"""Slot synchronization for class-A LoRaWAN devices.

Protocol library plus a deterministic discrete-event simulator: LoRa
air-time math, drifting-clock models, slot-grid arithmetic, the minimal
uplink/ACK wire codec, the adaptive resynchronization protocol and its
fixed-rate baseline.
"""

from .airtime import (
    AirTime,
    RadioParams,
    payload_symbol_count,
    remaining_time_bit_width,
    symbol_duration_ns,
    time_on_air,
)
from .clock import Piecewise, RandomWalk, SimClock, preset
from .config import load_scenario, parse_scenario
from .errors import (
    ConfigError,
    DecodeError,
    EncodeError,
    LorasyncError,
    ParamError,
    UsageError,
)
from .frame import SyncAck, UplinkFrame, decode_ack, decode_uplink, encode_ack, encode_uplink
from .protocol import (
    ADAPTIVE,
    FIXED_RATE,
    AckPlan,
    EndDeviceState,
    NetworkServerState,
    ed_first_tx_time,
    ed_next_tx_time,
    ed_on_ack,
    ed_pick_tx_time,
    ns_on_run_end,
    ns_on_uplink_end,
)
from .sim import DeviceSpec, Metrics, Scenario, Trace, TraceRow, run
from .slot import SlotConfig, remaining_to_next_slot, uplink_end_in_sync
from .units import ms_to_ns, ns_to_ms_round, s_to_ns

__version__ = "0.1.0"
