"""The published slot geometry, built by hand.

306 ms uplink + 1000 ms RX1 delay + 91 ms ACK + 180 + 180 ms guards =
1757 ms, the slot of configs/testbench.ini.  It is built here, not read
through the config loader, so that the slot and protocol tests do not
depend on config parsing.
"""

from lorasync import SlotConfig
from lorasync.units import ms_to_ns

PUBLISHED_SLOT = SlotConfig(
    t_tx_ns=ms_to_ns(306),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(91),
    tb1_ns=ms_to_ns(180),
    tb2_ns=ms_to_ns(180),
)
