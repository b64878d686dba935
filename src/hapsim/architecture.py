"""Bent-pipe and regenerative payload link budgets, from plain dB, dBm and Hz values.

A regenerative payload carries the base station: panels transmit at their
own power rating and uplink reception ends at the onboard receiver.  A
bent-pipe payload is an amplify-and-forward repeater: the downlink signal
originates at the ground gateway, crosses the feeder link and leaves the
repeater with its gain applied; the uplink is amplified and forwarded to
the gateway receiver.

Two modelling switches matter for cross-architecture comparisons:

* ``feeder_chain`` - "compensated" treats the repeater gain as sized to
  make up the feeder chain exactly, so the bent pipe radiates the same
  power as the regenerative panels; "explicit" propagates the actual
  per-position feeder loss through the chain (fluctuations of a few
  tenths of a dB over the flight circle plus a fixed offset).
* ``ul_noise`` - "matched" gives the bent-pipe uplink the same receiver
  floor as the onboard base station; "cascade" applies the Friis cascade
  of repeater and gateway receiver instead.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import POSITIVE, DomainError, check_range, scalar_or_array

__all__ = [
    "THERMAL_NOISE_DENSITY_DBM_HZ",
    "thermal_noise_dbm",
    "cascade_noise_figure",
    "bp_effective_dl_eirp",
    "repeater_noise_at_ue",
    "bp_uplink_noise_figure",
]

THERMAL_NOISE_DENSITY_DBM_HZ = -174.0


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Receiver noise floor over a bandwidth: kT density + 10log10(B) + NF."""
    check_range(bandwidth_hz, *POSITIVE, DomainError, "bandwidth must be positive")
    return THERMAL_NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def cascade_noise_figure(stages: Sequence[tuple[float, float]]) -> float:
    """Friis noise figure (dB) of ``(gain_db, noise_figure_db)`` stages in signal order.

    Each stage's excess noise is divided by the total gain ahead of it, so
    a high-gain first stage makes everything downstream negligible.
    """
    if not stages:
        raise DomainError("cascade needs at least one stage")
    total = 0.0
    gain_before = 1.0
    for gain_db, noise_figure_db in stages:
        factor = 10.0 ** (noise_figure_db / 10.0)
        check_range(factor, 1.0, math.inf, DomainError, "noise figure below 0 dB is unphysical")
        total += (factor - 1.0) / gain_before
        gain_before *= 10.0 ** (gain_db / 10.0)
    return 10.0 * math.log10(1.0 + total)


def bp_effective_dl_eirp(gateway_tx_dbm: float, gateway_gain_dbi: float, feeder_loss_db,
                         repeater_gain_db: float, max_output_dbm: float | None):
    """Downlink power at the panel input of a bent pipe with the feeder chain made explicit.

    Gateway power plus its antenna gain, attenuated over the feeder link,
    amplified by the repeater gain and clamped to the repeater's rated
    ``max_output_dbm`` (``None``: no clamp).  An array of feeder losses
    gives an array of powers.
    """
    output_dbm = gateway_tx_dbm + gateway_gain_dbi - feeder_loss_db + repeater_gain_db
    if max_output_dbm is not None:
        output_dbm = np.minimum(output_dbm, max_output_dbm)
    return output_dbm


def repeater_noise_at_ue(repeater_gain_db: float, repeater_noise_figure_db: float,
                         bandwidth_hz: float, access_loss_db) -> float | np.ndarray:
    """Repeater-amplified noise as received on the ground (dBm).

    Thermal floor over the bandwidth, raised by the repeater gain and
    noise figure, attenuated by the access-link loss.  Stays 15+ dB below
    a handset's own floor for any realistic access loss, which is why the
    default budgets ignore it.
    """
    floor = thermal_noise_dbm(bandwidth_hz)
    out = floor + repeater_gain_db + repeater_noise_figure_db - np.asarray(access_loss_db, dtype=float)
    return scalar_or_array(out)


def bp_uplink_noise_figure(repeater_gain_db: float, repeater_noise_figure_db: float,
                           gateway_noise_figure_db: float) -> float:
    """Uplink noise figure of the bent pipe referred to the repeater input.

    The feeder chain is treated as loss-compensated, so the cascade is the
    repeater followed by the gateway receiver; with 105 dB in front, the
    gateway's contribution vanishes and the repeater figure dominates.
    """
    return cascade_noise_figure([(repeater_gain_db, repeater_noise_figure_db),
                                 (0.0, gateway_noise_figure_db)])
