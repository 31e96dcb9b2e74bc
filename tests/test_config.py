"""INI scenario parsing: happy paths, derived air-times, error lines."""

from pathlib import Path

import pytest

from lorasync import ConfigError, Piecewise, RandomWalk
from lorasync.cli import main
from lorasync.config import load_scenario, parse_scenario
from lorasync.units import ms_to_ns

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"

MINIMAL = """
[scenario]
duration_s = 600

[slot]
t_tx_ms = 306
t_rx_ms = 91
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180

[device one]
clock = ideal
tx_period_s = 30
"""


def test_shipped_radio_derived_config():
    sc = load_scenario(CONFIGS / "radio-derived.ini")
    # SF7 uplink rounds to 307 ms, SF8 CRC-less ACK to 93 ms
    assert sc.cfg.t_tx_ns == ms_to_ns(307)
    assert sc.cfg.t_rx_ns == ms_to_ns(93)
    assert sc.cfg.t_slot_ns == ms_to_ns(1760)
    assert len(sc.devices) == 2


@pytest.mark.parametrize("on", ["on", "1", "TRUE", "yes"])
def test_a_downlink_with_crc_on_derives_a_longer_ack(on):
    text = (CONFIGS / "radio-derived.ini").read_text()
    sc = parse_scenario(text.replace("crc = off", f"crc = {on}"))
    # the 16-bit payload CRC adds 5 symbols of 1.024 ms to the SF8 ACK:
    # 102.912 ms, which rounds to 103
    assert sc.cfg.t_rx_ns == ms_to_ns(103)
    assert sc.cfg.t_slot_ns == ms_to_ns(1770)


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.duration_s == 600.0
    assert sc.seed == 0
    assert sc.strategy == "adaptive"
    assert sc.round_s is None
    assert sc.duty_cycle_limit == 0.01
    assert sc.downlink_loss == 0.0
    assert sc.slot_pick == "random"
    (dev,) = sc.devices
    assert dev.name == "one"
    assert dev.clock_model == Piecewise(((0.0, 0.0),))
    assert dev.payload_bytes == 0
    # devices are known by their section; an address key is not accepted
    bad = MINIMAL.replace("tx_period_s = 30", "tx_period_s = 30\ndev_addr = 7")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert "unknown key 'dev_addr' in [device one]" in str(e.value)
    assert e.value.line == bad.splitlines().index("dev_addr = 7") + 1


def test_clock_model_forms():
    text = MINIMAL + """
[device walking]
clock = random_walk
step_interval_s = 60
step_std_ppm = 4
initial_ppm = 30
seed = 5
tx_period_s = 30

[device steady]
clock = constant_ppm
offset_ppm = -12.5
tx_period_s = 30

[device staged]
clock = piecewise
segments = 0:50, 100:-50
tx_period_s = 30
"""
    sc = parse_scenario(text)
    models = {d.name: d.clock_model for d in sc.devices}
    assert models["walking"] == RandomWalk(60.0, 4.0, 30.0, seed=5)
    assert models["steady"] == Piecewise(((0.0, -12.5),))
    assert models["staged"] == Piecewise(((0.0, 50.0), (100.0, -50.0)))


def test_comments_and_blank_lines_ignored():
    text = "# banner\n; alt comment\n" + MINIMAL
    assert parse_scenario(text) == parse_scenario(MINIMAL)


def _line_of(err: ConfigError) -> int:
    return err.line


def test_unknown_key_reports_its_line():
    bad = MINIMAL.replace("tx_period_s = 30", "tx_period_s = 30\nwarp_factor = 9")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert "warp_factor" in str(e.value)
    assert e.value.line == bad.splitlines().index("warp_factor = 9") + 1


def test_missing_required_key_names_the_section():
    bad = MINIMAL.replace("tx_period_s = 30\n", "")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert "tx_period_s" in str(e.value)


def test_duplicate_key_and_section_rejected():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + "\n[slot]\nt_tx_ms = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("tb2_ms = 180", "tb2_ms = 180\ntb2_ms = 181"))


def test_garbage_line_rejected_with_number():
    bad = MINIMAL.replace("[slot]", "[slot]\nnot a key value pair")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert e.value.line is not None


def test_unknown_section_and_missing_sections():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + "\n[gateway]\nantennas = 2\n")
    with pytest.raises(ConfigError):
        parse_scenario("[slot]\nt_tx_ms = 306\n")  # no [scenario]
    with pytest.raises(ConfigError):
        parse_scenario("[scenario]\nduration_s = 10\n")  # no [slot]
    no_dev = MINIMAL[: MINIMAL.index("[device")]
    with pytest.raises(ConfigError):
        parse_scenario(no_dev)
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("[device one]", "[device ]"))


def test_slot_without_airtimes_needs_radio_sections():
    bad = MINIMAL.replace("t_tx_ms = 306\n", "")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert "radio.uplink" in str(e.value)


def test_bad_slot_geometry_wrapped_as_config_error():
    bad = MINIMAL.replace("tb1_ms = 180", "tb1_ms = 400")  # tb1 >= t_tx
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert "slot geometry" in str(e.value)


@pytest.mark.parametrize(
    "text, header, words",
    [
        (
            (CONFIGS / "radio-derived.ini").read_text().replace(
                "[radio.uplink]\nsf = 7", "[radio.uplink]\nsf = 13"
            ),
            "[radio.uplink]",
            ("[radio.uplink]", "sf must be in"),
        ),
        (
            MINIMAL.replace("clock = ideal", "clock = constant_ppm\noffset_ppm = 2000000"),
            "[device one]",
            ("device one", "offset_ppm"),
        ),
        *(
            (
                MINIMAL.replace(
                    "clock = ideal",
                    "clock = random_walk\nstep_interval_s = 60\ninitial_ppm = 0\n"
                    f"step_std_ppm = {std}",
                ),
                "[device one]",
                ("device one", "step_std_ppm must be finite"),
            )
            for std in ("nan", "inf")
        ),
        (
            MINIMAL.replace("duration_s = 600", "duration_s = 600\nstrategy = bogus"),
            "[scenario]",
            ("unknown strategy 'bogus'",),
        ),
        (
            MINIMAL.replace("duration_s = 600", "duration_s = 600\ndownlink_loss = 2"),
            "[scenario]",
            ("downlink_loss must be in [0, 1]",),
        ),
        *(
            (
                MINIMAL.replace("duration_s = 600", f"duration_s = {duration}"),
                "[scenario]",
                ("duration_s must be positive",),
            )
            for duration in ("nan", "0.0000000001")
        ),
        # the device checks run after the scenario's own, on the built scenario
        (
            MINIMAL.replace("tx_period_s = 30", "tx_period_s = 30\npayload_bytes = 300"),
            "[device one]",
            ("device one", "payload_bytes must be in 0..246"),
        ),
        *(
            (
                MINIMAL.replace("tx_period_s = 30", f"tx_period_s = {period}"),
                "[device one]",
                ("device one", "tx_period_s must be positive"),
            )
            for period in ("0", "nan", "0.0000000001")
        ),
        (
            MINIMAL.replace("tx_period_s = 30", "tx_period_s = 5e9"),
            "[device one]",
            ("device one", "int64 nanosecond range"),
        ),
        (
            MINIMAL + "\n[device two]\nclock = ideal\ntx_period_s = 30\npayload_bytes = 247\n",
            "[device two]",
            ("device two", "payload_bytes must be in 0..246"),
        ),
        (
            MINIMAL + "\n[device fea=ther]\nclock = ideal\ntx_period_s = 30\n",
            "[device fea=ther]",
            ("device fea=ther", "must not contain '='"),
        ),
        (
            MINIMAL.replace("clock = ideal", "clock = quartz"),
            "[device one]",
            ("unknown clock model 'quartz'",),
        ),
        *(
            (
                MINIMAL.replace(
                    "clock = ideal",
                    f"clock = random_walk\nstep_interval_s = {step}\n"
                    f"step_std_ppm = {std}\ninitial_ppm = {ppm}",
                ),
                "[device one]",
                ("device one: invalid clock", message),
            )
            for step, std, ppm, message in (
                ("0", "1", "0", "step_interval_s must be positive"),
                ("60", "-1", "0", "step_std_ppm must be >= 0"),
                ("60", "1", "-1000000", "|initial_ppm| must be < 1000000"),
            )
        ),
        (
            MINIMAL.replace("clock = ideal", "clock = piecewise\nsegments = 0:5, 60:1e6"),
            "[device one]",
            ("device one: invalid clock", "|offset_ppm| must be < 1000000"),
        ),
    ],
    ids=[
        "radio-sf", "clock-ppm", "walk-std-nan", "walk-std-inf", "strategy", "downlink-loss",
        "duration-nan", "duration-under-1ns", "payload-bytes", "tx-period-zero", "tx-period-nan",
        "tx-period-under-1ns", "tx-period-int64",
        "second-device", "device-name-equals", "clock-kind",
        "walk-step-zero", "walk-std-negative", "walk-ppm-limit", "piecewise-ppm-limit",
    ],
)
def test_out_of_range_section_value_reports_the_section_line(tmp_path, capsys, text, header, words):
    _assert_rejected_at(tmp_path, capsys, text, text.splitlines().index(header) + 1, words)


def _assert_rejected_at(tmp_path, capsys, text, line, words):
    """parse_scenario raises at `line` with every word, and simulate exits 1 naming the line."""
    with pytest.raises(ConfigError) as e:
        parse_scenario(text)
    assert e.value.line == line
    assert all(w in str(e.value) for w in words)
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert main(["simulate", str(ini)]) == 1
    assert f"error: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, at, words",
    [
        # a clock that draws nothing takes no seed, as ideal and constant_ppm take none
        (
            MINIMAL.replace("clock = ideal", "clock = ttgo-like\nseed = 5"),
            "seed = 5",
            ("unknown key 'seed' in [device one]",),
        ),
        (MINIMAL.replace("[slot]", "[slot"), "[slot", ("unterminated section header",)),
        (MINIMAL + "\n[ ]\n", "[ ]", ("empty section name",)),
        ("seed = 1\n" + MINIMAL, "seed = 1", ("key/value before any [section]",)),
        (MINIMAL.replace("tb1_ms = 180", "tb1_ms = 180\n= 5"), "= 5", ("empty key",)),
        (
            (CONFIGS / "radio-derived.ini").read_text().replace("crc = off", "crc = maybe"),
            "crc = maybe",
            ("bad value for 'crc'", "not a boolean: 'maybe'"),
        ),
        (
            MINIMAL.replace("clock = ideal", "clock = piecewise\nsegments = 0-30"),
            "segments = 0-30",
            ("bad value for 'segments'", "segment needs time:ppm, got '0-30'"),
        ),
        (
            MINIMAL.replace("clock = ideal", "clock = piecewise\nsegments = ,"),
            "segments = ,",
            ("bad value for 'segments'", "no segments given"),
        ),
    ],
    ids=[
        "ttgo-seed", "unterminated-header", "empty-section-name", "key-before-section",
        "empty-key", "bad-boolean", "segment-without-colon", "no-segments",
    ],
)
def test_malformed_line_reports_its_own_line(tmp_path, capsys, text, at, words):
    _assert_rejected_at(tmp_path, capsys, text, text.splitlines().index(at) + 1, words)


def test_repeated_device_name_reports_the_repeat(tmp_path, capsys):
    # the second [device one] is blamed, by its name and its own line
    one = MINIMAL[MINIMAL.index("[device one]"):]
    text = MINIMAL + "\n[device two]\nclock = ideal\ntx_period_s = 30\n\n" + one
    line = len(text.splitlines()) - 2
    assert text.splitlines()[line - 1] == "[device one]"
    _assert_rejected_at(tmp_path, capsys, text, line, ("device one: device names must be unique",))


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```ini\n") + len("```ini\n")
    example = readme[start:readme.index("```", start)]
    sc = parse_scenario(example)
    assert sc.strategy == "adaptive"
    assert sc.downlink_loss == 0.0
    assert sc.slot_pick == "random"
    assert [d.name for d in sc.devices] == ["feather"]


def test_bad_value_types_report_lines():
    bad = MINIMAL.replace("duration_s = 600", "duration_s = soon")
    with pytest.raises(ConfigError) as e:
        parse_scenario(bad)
    assert e.value.line is not None


def test_unreadable_file():
    with pytest.raises(ConfigError):
        load_scenario(CONFIGS / "does-not-exist.ini")


def test_a_byte_order_mark_is_read_as_utf8(tmp_path):
    # editors on Windows often save UTF-8 with a BOM; it is not part of line 1
    plain, marked = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(MINIMAL.replace("[device one]", "[device café]"), encoding="utf-8")
    marked.write_text(MINIMAL.replace("[device one]", "[device café]"), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_scenario(marked) == load_scenario(plain)
    assert load_scenario(marked).devices[0].name == "café"


def test_bytes_that_are_not_utf8_are_rejected_at_their_line(tmp_path, capsys):
    # a Latin-1 file: the é of "café" is the single byte 0xe9
    text = MINIMAL.replace("[device one]", "[device café]")
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(text.encode("latin-1"))
    line = text.splitlines().index("[device café]") + 1
    with pytest.raises(ConfigError, match="0xe9 is not UTF-8") as e:
        load_scenario(ini)
    assert e.value.line == line
    assert main(["simulate", str(ini)]) == 1
    assert capsys.readouterr().err == f"error: line {line}: byte 0xe9 is not UTF-8 text\n"
