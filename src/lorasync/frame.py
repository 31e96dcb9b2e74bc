"""Wire codec for the uplink and acknowledgement frames.

Both frames open with one LoRaWAN-1.0-shaped header, `_HEADER`, written
and read in one place; MIC and encryption are deliberately absent:

    header  MHDR | DevAddr u32 LE | FCtrl | FCnt u16 LE | FOpts
    uplink  header with MHDR 0x40 and no FOpts | FPort u8 | payload
    ack     header with MHDR 0x60 and FOpts of 0 or 2 bytes

FCtrl carries the FOpts length in its low nibble.  An ACK with no options
bytes is itself the in-sync signal; its one option, `REMAINING_MS`, carries
the remaining time to the next slot boundary, whole milliseconds,
big-endian.  Its width caps the slot length (`slot.MAX_SLOT_MS`) and prices
an adaptive resync (`protocol.SYNC_BYTES`).  The sync traffic runs on FPort
198.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .airtime import MAX_PL_BYTES
from .errors import DecodeError, EncodeError

SYNC_FPORT = 198
MHDR_UPLINK = 0x40
MHDR_DOWNLINK = 0x60
MAX_FRAME_BYTES = MAX_PL_BYTES
# MHDR, DevAddr, FCtrl (the FOpts length in its low nibble), FCnt
_HEADER = struct.Struct("<BIBH")
# FCtrl's offset: the one byte set in a header with only FCtrl set
_FCTRL_AT = _HEADER.pack(0, 0, 1, 0).index(1)
_UPLINK_HEADER = _HEADER.size + 1  # and FPort
MAX_UPLINK_PAYLOAD = MAX_FRAME_BYTES - _UPLINK_HEADER
# the ACK's remaining-time field, the whole of its FOpts
REMAINING_MS = struct.Struct(">H")


class UplinkFrame(NamedTuple):
    dev_addr: int
    fcnt: int
    fport: int = SYNC_FPORT
    payload: bytes = b""


class SyncAck(NamedTuple):
    dev_addr: int
    fcnt: int
    remaining_ms: int | None = None


def _check_u(value: int, bits: int, what: str):
    if not 0 <= value < (1 << bits):
        raise EncodeError(f"{what} must fit in {bits} bits, got {value}")


def _encode_header(mhdr: int, dev_addr: int, fcnt: int, fopts_len: int = 0) -> bytes:
    """The header, FCtrl holding fopts_len; the caller checks its FOpts
    after the header fields, as it always has, and then appends them."""
    _check_u(dev_addr, 32, "dev_addr")
    _check_u(fcnt, 16, "fcnt")
    return _HEADER.pack(mhdr, dev_addr, fopts_len, fcnt)


def _decode_header(data: bytes, mhdr: int, direction: str, kind: str) -> tuple[int, int, int]:
    """DevAddr, FOpts length and FCnt of a frame that must open with mhdr."""
    if len(data) < 1:
        raise DecodeError("empty frame", 0)
    if data[0] != mhdr:
        raise DecodeError(f"expected {direction} MHDR 0x{mhdr:02x}, got 0x{data[0]:02x}", 0)
    if len(data) < _HEADER.size:
        raise DecodeError(f"truncated {kind} header", len(data))
    _, dev_addr, fctrl, fcnt = _HEADER.unpack_from(data)
    return dev_addr, fctrl & 0x0F, fcnt


def encode_uplink(f: UplinkFrame) -> bytes:
    head = _encode_header(MHDR_UPLINK, f.dev_addr, f.fcnt)
    _check_u(f.fport, 8, "fport")
    if len(f.payload) > MAX_UPLINK_PAYLOAD:
        raise EncodeError(
            f"frame would be {_UPLINK_HEADER + len(f.payload)} bytes, max {MAX_FRAME_BYTES}"
        )
    return head + bytes((f.fport,)) + f.payload


def decode_uplink(data: bytes) -> UplinkFrame:
    dev_addr, fopts_len, fcnt = _decode_header(data, MHDR_UPLINK, "uplink", "uplink")
    port_at = _HEADER.size + fopts_len
    if len(data) <= port_at:
        raise DecodeError("truncated before FPort", len(data))
    return UplinkFrame(dev_addr, fcnt, data[port_at], bytes(data[port_at + 1:]))


def encode_ack(a: SyncAck) -> bytes:
    fopts_len = 0 if a.remaining_ms is None else REMAINING_MS.size
    frame = _encode_header(MHDR_DOWNLINK, a.dev_addr, a.fcnt, fopts_len)
    if fopts_len:
        _check_u(a.remaining_ms, 8 * fopts_len, "remaining_ms")
        frame += REMAINING_MS.pack(a.remaining_ms)
    return frame


def decode_ack(data: bytes) -> SyncAck:
    dev_addr, fopts_len, fcnt = _decode_header(data, MHDR_DOWNLINK, "downlink", "ack")
    if fopts_len == 0:
        return SyncAck(dev_addr, fcnt, None)
    if fopts_len != REMAINING_MS.size:
        raise DecodeError(f"unsupported FOpts length {fopts_len}", _FCTRL_AT)
    if len(data) < _HEADER.size + fopts_len:
        raise DecodeError("truncated FOpts", len(data))
    (remaining_ms,) = REMAINING_MS.unpack_from(data, _HEADER.size)
    return SyncAck(dev_addr, fcnt, remaining_ms)
