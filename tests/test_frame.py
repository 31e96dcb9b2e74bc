"""Wire codec: golden frames, round-trips, malformed-input handling."""

import random
from pathlib import Path

import pytest

from lorasync import (
    DecodeError,
    EncodeError,
    SyncAck,
    UplinkFrame,
    decode_ack,
    decode_uplink,
    encode_ack,
    encode_uplink,
)
from lorasync.airtime import MAX_PL_BYTES, WORST_CASE, time_on_air
from lorasync.frame import MAX_FRAME_BYTES, SYNC_FPORT
from lorasync.protocol import ADAPTIVE, SYNC_BYTES
from lorasync.slot import GUARD_HEADROOM_MS, MAX_SLOT_MS

DATA = Path(__file__).parent / "data"


def _golden(name: str) -> bytes:
    return bytes.fromhex((DATA / name).read_text().strip())


def test_uplink_golden_bytes():
    raw = encode_uplink(UplinkFrame(dev_addr=0x01020304, fcnt=0))
    assert raw.hex() == "4004030201000000c6"
    assert raw == _golden("uplink_minimal.hex")
    # DevAddr is little-endian on the wire, FPort 198 = 0xc6 closes the header
    assert raw[0] == 0x40
    assert raw[1:5] == bytes((0x04, 0x03, 0x02, 0x01))
    assert raw[8] == SYNC_FPORT


def test_uplink_with_payload_golden():
    raw = encode_uplink(UplinkFrame(dev_addr=1, fcnt=7, payload=b"\x01\x02\x03"))
    assert raw.hex() == "4001000000000700c6010203"
    assert raw == _golden("uplink_payload.hex")


def test_ack_golden_bytes():
    insync = encode_ack(SyncAck(dev_addr=0x01020304, fcnt=5))
    assert insync.hex() == "6004030201000500"
    assert insync == _golden("ack_insync.hex")

    resync = encode_ack(SyncAck(dev_addr=0x01020304, fcnt=6, remaining_ms=1757))
    # 1757 = 0x06dd, big-endian in the two FOpts bytes; FCtrl low nibble = 2
    assert resync.hex() == "600403020102060006dd"
    assert resync == _golden("ack_resync.hex")
    assert resync[5] & 0x0F == 2

    zero = encode_ack(SyncAck(dev_addr=0x01020304, fcnt=7, remaining_ms=0))
    assert zero.hex() == "60040302010207000000"
    assert zero == _golden("ack_zero.hex")


def test_remaining_zero_is_distinct_from_absent():
    a = decode_ack(_golden("ack_zero.hex"))
    b = decode_ack(_golden("ack_insync.hex"))
    assert a.remaining_ms == 0
    assert b.remaining_ms is None


def test_uplink_roundtrip_random():
    rng = random.Random(17)
    for _ in range(500):
        f = UplinkFrame(
            dev_addr=rng.randrange(0, 1 << 32),
            fcnt=rng.randrange(0, 1 << 16),
            fport=rng.randrange(0, 256),
            payload=rng.randbytes(rng.randrange(0, MAX_FRAME_BYTES - 9 + 1)),
        )
        assert decode_uplink(encode_uplink(f)) == f


def test_ack_roundtrip_random():
    rng = random.Random(23)
    for _ in range(500):
        a = SyncAck(
            dev_addr=rng.randrange(0, 1 << 32),
            fcnt=rng.randrange(0, 1 << 16),
            remaining_ms=None if rng.random() < 0.3 else rng.randrange(0, 1 << 16),
        )
        assert decode_ack(encode_ack(a)) == a


def test_encode_bounds():
    with pytest.raises(EncodeError):
        encode_uplink(UplinkFrame(dev_addr=1 << 32, fcnt=0))
    with pytest.raises(EncodeError):
        encode_uplink(UplinkFrame(dev_addr=-1, fcnt=0))
    with pytest.raises(EncodeError):
        encode_uplink(UplinkFrame(dev_addr=0, fcnt=1 << 16))
    with pytest.raises(EncodeError):
        encode_uplink(UplinkFrame(dev_addr=0, fcnt=0, fport=256))
    with pytest.raises(EncodeError):
        encode_uplink(UplinkFrame(dev_addr=0, fcnt=0, payload=bytes(247)))
    # largest frame that still fits
    raw = encode_uplink(UplinkFrame(dev_addr=0, fcnt=0, payload=bytes(246)))
    assert len(raw) == MAX_FRAME_BYTES
    with pytest.raises(EncodeError):
        encode_ack(SyncAck(dev_addr=0, fcnt=0, remaining_ms=1 << 16))
    with pytest.raises(EncodeError):
        encode_ack(SyncAck(dev_addr=0, fcnt=0, remaining_ms=-1))


def test_decode_errors_carry_offsets():
    with pytest.raises(DecodeError) as e:
        decode_uplink(b"")
    assert e.value.offset == 0

    with pytest.raises(DecodeError) as e:
        decode_uplink(b"\x60\x00\x00\x00\x00\x00\x00\x00\xc6")  # downlink MHDR
    assert e.value.offset == 0

    with pytest.raises(DecodeError) as e:
        decode_uplink(b"\x40\x01\x02")  # cut inside the header
    assert e.value.offset == 3

    with pytest.raises(DecodeError) as e:
        decode_uplink(b"\x40" + bytes(7))
    assert e.value.offset == 8  # header complete but FPort missing

    with pytest.raises(DecodeError) as e:
        decode_ack(b"\x40" + bytes(7))  # uplink MHDR on the downlink path
    assert e.value.offset == 0

    with pytest.raises(DecodeError) as e:
        decode_ack(bytes.fromhex("600403020105060006"))  # FOptsLen 5
    assert e.value.offset == 5

    with pytest.raises(DecodeError) as e:
        decode_ack(bytes.fromhex("60040302010206000f"))  # one FOpts byte short
    assert e.value.offset == 9


def test_decode_never_crashes_on_noise():
    rng = random.Random(41)
    for _ in range(2000):
        blob = rng.randbytes(rng.randrange(0, 32))
        for dec in (decode_uplink, decode_ack):
            try:
                dec(blob)
            except DecodeError:
                pass  # rejecting is fine, raising anything else is not


def test_each_limit_derives_from_its_one_definition():
    # the ACK's remaining-time field: what it adds to an ACK prices an
    # adaptive resync, and its largest value caps the slot length
    field_bytes = len(encode_ack(SyncAck(1, 0, 0))) - len(encode_ack(SyncAck(1, 0)))
    assert field_bytes == SYNC_BYTES[ADAPTIVE] == 2
    assert MAX_SLOT_MS == 65535
    assert decode_ack(encode_ack(SyncAck(1, 0, MAX_SLOT_MS))).remaining_ms == MAX_SLOT_MS
    with pytest.raises(EncodeError):
        encode_ack(SyncAck(1, 0, MAX_SLOT_MS + 1))
    # the worst-case uplink leaves the guards the rest of the longest slot
    assert GUARD_HEADROOM_MS == 53599 == MAX_SLOT_MS - time_on_air(WORST_CASE).t_packet_ms
    # one payload limit for the radio and the frame
    assert MAX_FRAME_BYTES == MAX_PL_BYTES == 255
