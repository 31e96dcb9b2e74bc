"""Scenario config files.

Flat INI-style key/value sections, diff friendly:

    [scenario]          duration, seed, strategy, medium options
    [slot]              millisecond slot fields; t_tx_ms/t_rx_ms may be
                        omitted when radio sections provide air-times
    [radio.uplink]      LoRa parameters the uplink air-time derives from
    [radio.downlink]    same for the ACK
    [device NAME]       one section per device: clock model + schedule

Unknown sections or keys are errors, and every error carries the line
number it came from; an error names a section as its header writes it.
A key the file leaves out is not passed on, so each default is the one
its record's constructor states.  The records check the values: an
invalid [slot] or radio section is reported at its header's line, and a
failed scenario check at the header of the device section it blames, or
of [scenario].
"""

from __future__ import annotations

from .airtime import RadioParams, time_on_air
from .clock import ClockModel, Piecewise, RandomWalk, preset
from .errors import ConfigError, ParamError
from .sim import DeviceSpec, Scenario
from .slot import SlotConfig
from .units import ms_to_ns

# each radio section and the [slot] air time it may stand in for
_RADIOS = {"radio.uplink": "t_tx_ms", "radio.downlink": "t_rx_ms"}
# radio keys named apart from the RadioParams field they set
_RADIO_FIELDS = {"preamble": "n_preamble", "crc": "crc_on"}


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_segments(raw: str) -> tuple:
    """Piecewise clock segments, "0:30, 3600:-20" style."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        time_s, sep, ppm = part.partition(":")
        if not sep:
            raise ValueError(f"segment needs time:ppm, got {part!r}")
        out.append((float(time_s), float(ppm)))
    if not out:
        raise ValueError("no segments given")
    return tuple(out)


class _Section:
    def __init__(self, name: str, line: int, items: dict):
        self.name = name
        self.line = line
        self._items = items

    def take(self, key: str, conv):
        if key not in self._items:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}", self.line)
        raw, line = self._items.pop(key)
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line) from exc

    def given(self, **convs) -> dict:
        """The optional keys the section gives, converted in the order named."""
        return {key: self.take(key, conv) for key, conv in convs.items() if key in self._items}

    def finish(self):
        for key, (_, line) in self._items.items():
            raise ConfigError(f"unknown key {key!r} in [{self.name}]", line)


def _split_sections(text: str) -> list[_Section]:
    sections = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno)
            current = {}
            sections.append(_Section(name, lineno, current))
            continue
        if current is None:
            raise ConfigError("key/value before any [section]", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError("expected key = value", lineno)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        current[key] = (value, lineno)
    return sections


def _radio_from(sec: _Section) -> RadioParams:
    fields = dict(
        sf=sec.take("sf", int),
        bw_hz=sec.take("bw_khz", int) * 1000,
        cr=sec.take("cr", int),
        pl_bytes=sec.take("payload_bytes", int),
    )
    options = sec.given(
        preamble=int, crc=_to_bool, implicit_header=_to_bool, low_datarate_opt=_to_bool
    )
    fields.update((_RADIO_FIELDS.get(key, key), value) for key, value in options.items())
    try:
        params = RadioParams(**fields)
    except ParamError as exc:
        raise ConfigError(f"invalid [{sec.name}] parameters: {exc}", sec.line) from exc
    sec.finish()
    return params


def _clock_from(sec: _Section, device: str) -> ClockModel:
    kind = sec.take("clock", str)
    try:
        if kind in ("ideal", "ttgo-like"):  # they draw nothing, so take no seed
            return preset(kind)
        if kind == "feather-like":
            return preset(kind, **sec.given(seed=int))
        if kind == "constant_ppm":
            return Piecewise(((0.0, sec.take("offset_ppm", float)),))
        if kind == "random_walk":
            return RandomWalk(
                step_interval_s=sec.take("step_interval_s", float),
                step_std_ppm=sec.take("step_std_ppm", float),
                initial_ppm=sec.take("initial_ppm", float),
                **sec.given(seed=int),
            )
        if kind == "piecewise":
            return Piecewise(sec.take("segments", _to_segments))
    except ParamError as exc:
        raise ConfigError(f"device {device}: invalid clock: {exc}", sec.line) from exc
    raise ConfigError(f"unknown clock model {kind!r}", sec.line)


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    sections = _split_sections(text)
    by_name: dict[str, _Section] = {}
    devices: list[tuple[str, _Section]] = []  # (device name, its section)
    for sec in sections:
        head, _, label = sec.name.partition(" ")
        if head == "device":
            label = label.strip()
            if not label:
                raise ConfigError("device section needs a name: [device NAME]", sec.line)
            devices.append((label, sec))
            continue
        if sec.name in by_name:
            raise ConfigError(f"duplicate section [{sec.name}]", sec.line)
        if sec.name not in ("scenario", "slot", *_RADIOS):
            raise ConfigError(f"unknown section [{sec.name}]", sec.line)
        by_name[sec.name] = sec

    if "scenario" not in by_name:
        raise ConfigError(f"{source}: missing [scenario] section")
    if "slot" not in by_name:
        raise ConfigError(f"{source}: missing [slot] section")
    if not devices:
        raise ConfigError(f"{source}: needs at least one [device NAME] section")

    sc = by_name["scenario"]
    duration_s = sc.take("duration_s", float)
    options = sc.given(seed=int, strategy=str, round_s=int, duty_cycle_limit=float,
                       downlink_loss=float, slot_pick=str)
    sc.finish()

    radios = {name: _radio_from(by_name[name]) for name in _RADIOS if name in by_name}

    slot_sec = by_name["slot"]
    air_ms = slot_sec.given(t_tx_ms=int, t_rx_ms=int)
    rx_delay_ms = slot_sec.take("rx_delay_ms", int)
    tb1_ms = slot_sec.take("tb1_ms", int)
    tb2_ms = slot_sec.take("tb2_ms", int)
    slot_sec.finish()
    # an air time that [slot] leaves out derives from its radio section
    for radio, key in _RADIOS.items():
        if key not in air_ms:
            if radio not in radios:
                raise ConfigError(
                    f"[slot] needs {key} or a [{radio}] section to derive it from", slot_sec.line
                )
            air_ms[key] = time_on_air(radios[radio]).t_packet_ms
    try:
        cfg = SlotConfig(
            t_tx_ns=ms_to_ns(air_ms["t_tx_ms"]),
            rx_delay_ns=ms_to_ns(rx_delay_ms),
            t_rx_ns=ms_to_ns(air_ms["t_rx_ms"]),
            tb1_ns=ms_to_ns(tb1_ms),
            tb2_ns=ms_to_ns(tb2_ms),
        )
    except ParamError as exc:
        raise ConfigError(f"invalid slot geometry: {exc}", slot_sec.line) from exc

    specs = []
    for name, sec in devices:
        clock_model = _clock_from(sec, name)
        spec = DeviceSpec(
            name=name,
            clock_model=clock_model,
            tx_period_s=sec.take("tx_period_s", float),
            **sec.given(payload_bytes=int),
        )
        sec.finish()
        specs.append(spec)

    try:
        return Scenario(duration_s=duration_s, cfg=cfg, devices=specs, **options)
    except ConfigError as exc:
        # the checks know no line; point at the device's section, or at [scenario]
        line = sc.line if exc.device is None else devices[exc.device][1].line
        raise ConfigError(str(exc), line) from exc


def load_scenario(path) -> Scenario:
    """Parse a config file of UTF-8 text, with or without a byte order mark."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the line the parser would number: the text before the bad byte, and a stand-in for it
        line = len((data[: exc.start].decode("utf-8-sig") + "?").splitlines())
        raise ConfigError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text", line) from None
    return parse_scenario(text, source=str(path))
