"""Wire codec for the uplink and acknowledgement frames.

LoRaWAN-1.0-shaped layouts, MIC and encryption deliberately absent:

    uplink  MHDR 0x40 | DevAddr u32 LE | FCtrl | FCnt u16 LE | FPort u8 | payload
    ack     MHDR 0x60 | DevAddr u32 LE | FCtrl | FCnt u16 LE | FOpts (0 or 2 bytes)

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
_UPLINK_HEADER = 9  # MHDR + DevAddr + FCtrl + FCnt + FPort
MAX_UPLINK_PAYLOAD = MAX_FRAME_BYTES - _UPLINK_HEADER
_ACK_BASE = 8  # MHDR + DevAddr + FCtrl + FCnt
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


def encode_uplink(f: UplinkFrame) -> bytes:
    _check_u(f.dev_addr, 32, "dev_addr")
    _check_u(f.fcnt, 16, "fcnt")
    _check_u(f.fport, 8, "fport")
    if len(f.payload) > MAX_UPLINK_PAYLOAD:
        raise EncodeError(
            f"frame would be {_UPLINK_HEADER + len(f.payload)} bytes, max {MAX_FRAME_BYTES}"
        )
    head = struct.pack("<BIBHB", MHDR_UPLINK, f.dev_addr, 0, f.fcnt, f.fport)
    return head + f.payload


def decode_uplink(data: bytes) -> UplinkFrame:
    if len(data) < 1:
        raise DecodeError("empty frame", 0)
    if data[0] != MHDR_UPLINK:
        raise DecodeError(f"expected uplink MHDR 0x{MHDR_UPLINK:02x}, got 0x{data[0]:02x}", 0)
    if len(data) < 8:
        raise DecodeError("truncated uplink header", len(data))
    dev_addr, fctrl, fcnt = struct.unpack_from("<IBH", data, 1)
    fopts_len = fctrl & 0x0F
    port_at = 8 + fopts_len
    if len(data) < port_at + 1:
        raise DecodeError("truncated before FPort", len(data))
    return UplinkFrame(dev_addr, fcnt, data[port_at], bytes(data[port_at + 1:]))


def encode_ack(a: SyncAck) -> bytes:
    _check_u(a.dev_addr, 32, "dev_addr")
    _check_u(a.fcnt, 16, "fcnt")
    if a.remaining_ms is None:
        return struct.pack("<BIBH", MHDR_DOWNLINK, a.dev_addr, 0, a.fcnt)
    _check_u(a.remaining_ms, 8 * REMAINING_MS.size, "remaining_ms")
    head = struct.pack("<BIBH", MHDR_DOWNLINK, a.dev_addr, REMAINING_MS.size, a.fcnt)
    return head + REMAINING_MS.pack(a.remaining_ms)


def decode_ack(data: bytes) -> SyncAck:
    if len(data) < 1:
        raise DecodeError("empty frame", 0)
    if data[0] != MHDR_DOWNLINK:
        raise DecodeError(f"expected downlink MHDR 0x{MHDR_DOWNLINK:02x}, got 0x{data[0]:02x}", 0)
    if len(data) < _ACK_BASE:
        raise DecodeError("truncated ack header", len(data))
    dev_addr, fctrl, fcnt = struct.unpack_from("<IBH", data, 1)
    fopts_len = fctrl & 0x0F
    if fopts_len == 0:
        return SyncAck(dev_addr, fcnt, None)
    if fopts_len != REMAINING_MS.size:
        raise DecodeError(f"unsupported FOpts length {fopts_len}", 5)
    if len(data) < _ACK_BASE + REMAINING_MS.size:
        raise DecodeError("truncated FOpts", len(data))
    (remaining_ms,) = REMAINING_MS.unpack_from(data, _ACK_BASE)
    return SyncAck(dev_addr, fcnt, remaining_ms)
