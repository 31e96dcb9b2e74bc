"""Record types: read-only config, equality by fields, copies, cheap import."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lorasync import (
    AirTime,
    ConfigError,
    DeviceSpec,
    ParamError,
    Piecewise,
    RadioParams,
    RandomWalk,
    Scenario,
    SimClock,
    UplinkFrame,
    preset,
)
from lorasync.config import load_scenario
from published_slot import PUBLISHED_SLOT as CFG

ROOT = Path(__file__).parent.parent

WALK = RandomWalk(step_interval_s=60.0, step_std_ppm=4.0, initial_ppm=30.0, seed=5)
SPEC = DeviceSpec(name="walker", clock_model=WALK, tx_period_s=30.0)

STAGED = Piecewise(((0.0, 50.0), (100.0, -50.0)))
CONSTANT = Piecewise(((0.0, -12.5),))


def _id(record) -> str:
    # a one-segment Piecewise is named for the clock it models: ideal, or a constant rate
    if record == preset("ideal"):
        return "Ideal"
    return "ConstantPpm" if record == CONSTANT else type(record).__name__


CONFIG_RECORDS = [
    CFG,
    RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=255),
    preset("ideal"),
    CONSTANT,
    WALK,
    STAGED,
    SPEC,
    Scenario(duration_s=600.0, cfg=CFG, devices=(SPEC,), seed=3),
]
VALUE_RECORDS = [
    AirTime(1_000, 2_000, 8),
    UplinkFrame(dev_addr=0x01020304, fcnt=7, payload=b"\x01"),
]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("record", CONFIG_RECORDS, ids=_id)
def test_config_records_are_read_only(record):
    before = _fields(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before


@pytest.mark.parametrize(
    "record", CONFIG_RECORDS + VALUE_RECORDS, ids=_id
)
def test_records_with_equal_fields_compare_equal(record):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(twin) == repr(record)


def test_records_of_different_fields_or_classes_differ():
    assert Piecewise(((0.0, 2.0),)) != Piecewise(((0.0, 3.0),))
    assert preset("ideal") != WALK._replace(step_std_ppm=0.0, initial_ppm=0.0)
    assert RadioParams(7, 125_000, 1, 10) != RadioParams(7, 125_000, 1, 10, crc_on=False)


def test_copying_a_scenario_with_one_field_changed_keeps_the_original():
    sc = load_scenario(ROOT / "configs" / "testbench.ini")
    before = _fields(sc)
    copy = sc._replace(seed=sc.seed + 7)
    assert copy.seed == sc.seed + 7
    assert _fields(sc) == before
    assert [f for f in sc._fields if getattr(copy, f) != getattr(sc, f)] == ["seed"]


# each config record, one field put out of its range, and the record's own
# error; a name that is not a field is unknown to the constructor
BAD_COPIES = [
    (CFG, dict(tb1_ns=CFG.t_tx_ns), ParamError),
    (RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=255), dict(sf=13), ParamError),
    (preset("ideal"), dict(offset_ppm=1.0), TypeError),
    (CONSTANT, dict(segments=((0.0, 1e6),)), ParamError),
    (WALK, dict(step_interval_s=0.0), ParamError),
    (STAGED, dict(segments=((1.0, 0.0),)), ParamError),
    (Scenario(duration_s=600.0, cfg=CFG, devices=(SPEC,)), dict(downlink_loss=1.5), ConfigError),
]


@pytest.mark.parametrize(
    "record, changes, error", BAD_COPIES, ids=[_id(r) for r, _, _ in BAD_COPIES]
)
def test_a_copy_with_a_field_out_of_range_is_rejected(record, changes, error):
    before = _fields(record)
    with pytest.raises(error):
        record._replace(**changes)
    assert _fields(record) == before
    # a copy of every field as it is equals the original
    assert record._replace() == record


def test_a_piecewise_clock_holds_its_segments_as_a_tuple():
    # a list the caller changes later changes neither its equality nor its rates
    segs = [(0.0, 10.0)]
    model = Piecewise(segs)
    segs.append((-5.0, 2e6))
    assert model.segments == ((0.0, 10.0),) and type(model.segments) is tuple
    assert model == Piecewise(((0.0, 10.0),)) and hash(model) == hash(Piecewise(((0.0, 10.0),)))
    assert SimClock(model).local_time(10**9) == 10**9 + 10_000
    assert Piecewise([[0.0, 5.0], [1.0, 6.0]]).segments == ((0.0, 5.0), (1.0, 6.0))
    with pytest.raises(AttributeError):
        model.table = ()


def test_a_scenario_holds_its_devices_as_a_tuple():
    sc = Scenario(duration_s=600.0, cfg=CFG, devices=[SPEC])
    assert sc.devices == (SPEC,) and type(sc.devices) is tuple
    assert sc._replace(devices=[SPEC, SPEC._replace(name="other")]).devices[1].name == "other"
    assert type(sc._replace(devices=[SPEC]).devices) is tuple


def test_importing_the_cli_loads_no_dataclasses():
    # -S keeps site-packages hooks from importing anything on their own
    code = "import lorasync.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
