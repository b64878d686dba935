"""Bent-pipe and regenerative link-budget building blocks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hapsim.architecture import (
    bp_effective_dl_eirp,
    bp_uplink_noise_figure,
    cascade_noise_figure,
    repeater_noise_at_ue,
    thermal_noise_dbm,
)
from hapsim.errors import DomainError


def test_thermal_noise_reference_floors():
    assert_allclose(thermal_noise_dbm(20e6, 7.0), -93.9897, atol=5e-5)
    assert_allclose(thermal_noise_dbm(1e6, 5.0), -109.0, atol=1e-9)
    assert_allclose(thermal_noise_dbm(1.0), -174.0)


def test_thermal_noise_rejects_nonpositive_bandwidth():
    with pytest.raises(DomainError):
        thermal_noise_dbm(0.0)
    with pytest.raises(DomainError):
        thermal_noise_dbm(math.nan)


def test_cascade_single_stage_is_its_own_figure():
    assert_allclose(cascade_noise_figure([(30.0, 5.0)]), 5.0, rtol=1e-12)


def test_cascade_high_gain_front_end_dominates():
    # 105 dB ahead of the gateway receiver: its contribution is ~1e-10 dB
    nf = cascade_noise_figure([(105.0, 7.0), (0.0, 3.0)])
    assert_allclose(nf, 7.0, atol=1e-9)


def test_cascade_friis_two_stage_oracle():
    # F = F1 + (F2-1)/G1 with F1=2 (3.0103 dB), G1=10, F2=4 (6.0206 dB)
    nf = cascade_noise_figure([
        (10.0, 10.0 * math.log10(2.0)),
        (0.0, 10.0 * math.log10(4.0)),
    ])
    assert_allclose(nf, 10.0 * math.log10(2.0 + 3.0 / 10.0), rtol=1e-12)


def test_cascade_rejects_bad_input():
    with pytest.raises(DomainError):
        cascade_noise_figure([])
    with pytest.raises(DomainError):
        cascade_noise_figure([(10.0, -0.5)])
    with pytest.raises(DomainError):
        cascade_noise_figure([(10.0, math.nan)])


def test_bp_dl_eirp_explicit_chain():
    eirp = bp_effective_dl_eirp(43.0, 32.3, 137.673, 105.0, None)
    assert_allclose(eirp, 43.0 + 32.3 - 137.673 + 105.0, rtol=1e-12)
    assert_allclose(eirp, 42.627, atol=1e-9)


def test_bp_dl_eirp_output_limit():
    eirp = bp_effective_dl_eirp(43.0, 32.3, 120.0, 105.0, 30.0)
    # 43 + 32.3 - 120 + 105 = 60.3 dBm, clamped to 30 dBm at the output
    assert_allclose(eirp, 30.0, rtol=1e-12)
    assert_allclose(bp_effective_dl_eirp(43.0, 32.3, 120.0, 105.0, None), 60.3, rtol=1e-12)


@pytest.mark.parametrize("limit", [False, True])
def test_bp_dl_eirp_on_an_array_equals_scalar_calls(limit):
    max_output_dbm = 30.0 if limit else None
    losses = np.array([90.0, 120.0, 137.673, 137.9, 150.0])
    eirp = bp_effective_dl_eirp(43.0, 32.3, losses, 105.0, max_output_dbm)
    assert eirp.shape == losses.shape
    assert eirp.tolist() == [bp_effective_dl_eirp(43.0, 32.3, float(loss), 105.0, max_output_dbm)
                             for loss in losses]
    assert (eirp.max() == 30.0) == limit  # the 90 and 120 dB losses exceed the rated output


def test_repeater_noise_at_ue_stays_below_handset_floor():
    losses = np.arange(121.0, 200.0 + 0.5, 0.5)
    noise = repeater_noise_at_ue(105.0, 7.0, 20e6, losses)
    # -100.9897 + 105 + 7 - L
    assert_allclose(noise[0], -109.9897, atol=5e-5)
    assert_allclose(noise[-1], -188.9897, atol=5e-5)
    ue_floor = thermal_noise_dbm(20e6, 7.0)
    assert_allclose(ue_floor, -93.99, atol=5e-3)
    assert np.all(noise < ue_floor - 15.0)


def test_repeater_noise_scalar_in_scalar_out():
    out = repeater_noise_at_ue(105.0, 7.0, 20e6, 130.0)
    assert isinstance(out, float)
    assert_allclose(out, -118.9897, atol=5e-5)


def test_bp_uplink_noise_figure_matches_repeater():
    nf = bp_uplink_noise_figure(105.0, 7.0, gateway_noise_figure_db=3.0)
    assert_allclose(nf, 7.0, atol=1e-9)


def test_dl_sinr_worked_example():
    """EIRP 42.627 dBm, access loss 116.5 dB, UE floor at 20 MHz / NF 7."""
    sinr_db = 42.627 - 116.5 - thermal_noise_dbm(20e6, 7.0)
    assert_allclose(sinr_db, 20.12, atol=5e-3)
