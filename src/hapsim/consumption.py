"""Power-efficiency comparison of relayed versus direct transmission.

The power-efficiency factor of a transmit chain is the fraction of total
consumed power that leaves the antenna as signal.  Writing the chain
source-to-antenna as stages with linear gain ``G_i`` and drain efficiency
``eta_i``, every stage's wasted power is referred to the chain input by
the gain accumulated ahead of it:

    H = 1 / (1 + sum_k (1/eta_k - 1) / prod_{i<k} G_i)

A relay beats direct transmission, for equal delivered rate in the
noise-limited far-field regime, when

    (d1/d3)^2 / (Grx_relay/Grx_sink) + (d2/d3)^2 / (H_relay/H_source) < 1

with d1 the source-relay distance, d2 the relay-sink distance and d3 the
direct source-sink distance.  For a stratospheric platform the relay
candidate is the onboard repeater: d2 equals the access slant range, and
in the comparison against an onboard base station the direct path is that
same access link, so d3 = d2 and the feeder/access ratio d1/d3 drives the
first term.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import FRACTION, NON_NEGATIVE, POSITIVE, DomainError, check_range
from .geometry import Point3, link_geometry

__all__ = [
    "RelayAssessment",
    "power_efficiency_factor",
    "repeater_chain_efficiency",
    "base_station_chain_efficiency",
    "relay_advantage",
    "haps_relay_assessment",
]


def power_efficiency_factor(stages: Sequence[tuple[float, float]]) -> float:
    """Power-efficiency factor H of a chain of ``(gain, efficiency)`` stages, source to antenna.

    Gains are linear.  Lossless passive elements (efficiency 1) drop out;
    an empty chain is a bare antenna with H = 1.
    """
    waste = 0.0
    gain_before = 1.0
    for gain, efficiency in stages:
        check_range(gain, *POSITIVE, DomainError, "stage gain must be positive, got {}")
        check_range(efficiency, *FRACTION, DomainError, "stage efficiency must lie in (0, 1], got {}")
        waste += (1.0 / efficiency - 1.0) / gain_before
        gain_before *= gain
    return 1.0 / (1.0 + waste)


def repeater_chain_efficiency(mixer, rf_amp) -> float:
    """H of a repeater transmit chain (mixer then RF amplifier), each a ``(gain, efficiency)`` pair.

    The antennas on both ends are passive and contribute nothing.
    """
    return power_efficiency_factor([mixer, rf_amp])


def base_station_chain_efficiency(baseband_amp, mixer, rf_amp) -> float:
    """H of a base-station transmit chain (baseband amp, mixer, RF amp)."""
    return power_efficiency_factor([baseband_amp, mixer, rf_amp])


def relay_advantage(d1_m, d2_m, d3_m, relay_rx_gain, sink_rx_gain,
                    relay_efficiency, source_efficiency):
    """Right-hand side of the relay-advantage inequality (gains linear); the relay wins below 1.

    Any argument may be an array; they broadcast against each other, and an
    array is rejected when any of its entries is out of range.  Each square
    is a product, so scalar and array calls round alike.
    """
    check_range(d1_m, *NON_NEGATIVE, DomainError, "relay path distances must be non-negative")
    check_range(d2_m, *NON_NEGATIVE, DomainError, "relay path distances must be non-negative")
    check_range(d3_m, *POSITIVE, DomainError, "direct-path distance must be positive")
    check_range(relay_rx_gain, *POSITIVE, DomainError, "receive gains must be positive")
    check_range(sink_rx_gain, *POSITIVE, DomainError, "receive gains must be positive")
    check_range(relay_efficiency, *FRACTION, DomainError, "efficiency factors must lie in (0, 1]")
    check_range(source_efficiency, *FRACTION, DomainError, "efficiency factors must lie in (0, 1]")
    r1 = d1_m / d3_m
    r2 = d2_m / d3_m
    return (r1 * r1 / (relay_rx_gain / sink_rx_gain)
            + r2 * r2 / (relay_efficiency / source_efficiency))


class RelayAssessment(NamedTuple):
    """Relay verdicts of a deployment: one array entry per terminal.

    The fields are the columns of ``consumption.csv``, in its order.
    """

    terminal_id: np.ndarray
    d1_m: np.ndarray
    d2_m: np.ndarray
    d3_m: np.ndarray
    rhs: np.ndarray
    relay_preferred: np.ndarray
    margin: np.ndarray
    feeder_access_ratio_sq: np.ndarray


def haps_relay_assessment(x, y, platform: Point3, gateway: Point3,
                          relay_rx_gain_db: float, sink_rx_gain_db: float,
                          relay_efficiency: float,
                          source_efficiency: float) -> RelayAssessment:
    """Relay-versus-direct verdict for every ground terminal at ``(x, y)``.

    The platform is the relay: d1 is the gateway feeder slant, and the
    access slant serves as both relay-sink and direct distance, the
    onboard base station being the direct-transmission alternative.
    """
    _, d1 = link_geometry(gateway, platform)
    ground = np.column_stack([x, y, np.zeros(len(x))])
    _, d_access = link_geometry(platform, ground)
    rhs = relay_advantage(d1, d_access, d_access, 10.0 ** (relay_rx_gain_db / 10.0),
                          10.0 ** (sink_rx_gain_db / 10.0), relay_efficiency, source_efficiency)
    ratio = d1 / d_access
    return RelayAssessment(
        terminal_id=np.arange(d_access.size),
        d1_m=np.full(d_access.size, d1),
        d2_m=d_access,
        d3_m=d_access,
        rhs=rhs,
        relay_preferred=rhs < 1.0,
        margin=1.0 - rhs,
        feeder_access_ratio_sq=ratio * ratio,
    )
