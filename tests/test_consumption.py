"""Transmit-chain power-efficiency factors and the relay-advantage test."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from hapsim.config import preset_config
from hapsim.consumption import (
    base_station_chain_efficiency,
    haps_relay_assessment,
    power_efficiency_factor,
    relay_advantage,
    repeater_chain_efficiency,
)
from hapsim.errors import DomainError
from hapsim.geometry import Point3, link_geometry
from hapsim.simulation import build_drop

etas = st.floats(min_value=0.01, max_value=1.0)
gains = st.floats(min_value=0.1, max_value=1e6)


def test_single_stage_chain_is_its_own_efficiency():
    assert_allclose(power_efficiency_factor([(10.0, 0.4)]), 0.4, rtol=1e-15)


def test_empty_chain_is_a_bare_antenna():
    assert power_efficiency_factor([]) == 1.0


def test_two_stage_oracle():
    # eta1=0.5, G1=10, eta2=0.5: H = 1/(1 + 1 + 0.1) = 1/2.1
    h = power_efficiency_factor([(10.0, 0.5), (5.0, 0.5)])
    assert_allclose(h, 1.0 / 2.1, rtol=1e-15)


def test_repeater_closed_form_oracle():
    # unity mixer gain, both stages at 0.5: waste = 1 + 1, H = 1/3
    h = repeater_chain_efficiency((1.0, 0.5), (100.0, 0.5))
    assert_allclose(h, 1.0 / 3.0, rtol=1e-15)


def test_base_station_closed_form_oracle():
    # 0.5 at gain 10, 0.5 at gain 10, 0.5 final: waste = 1 + 0.1 + 0.01
    h = base_station_chain_efficiency((10.0, 0.5), (10.0, 0.5), (50.0, 0.5))
    assert_allclose(h, 1.0 / 2.11, rtol=1e-15)


@given(g1=gains, g2=gains, e1=etas, e2=etas)
def test_repeater_closed_form_matches_generic(g1, g2, e1, e2):
    mixer = (g1, e1)
    rf = (g2, e2)
    assert_allclose(
        repeater_chain_efficiency(mixer, rf),
        power_efficiency_factor([mixer, rf]),
        rtol=1e-12,
    )


@given(g1=gains, g2=gains, g3=gains, e1=etas, e2=etas, e3=etas)
def test_base_station_closed_form_matches_generic(g1, g2, g3, e1, e2, e3):
    a, m, r = (g1, e1), (g2, e2), (g3, e3)
    assert_allclose(
        base_station_chain_efficiency(a, m, r),
        power_efficiency_factor([a, m, r]),
        rtol=1e-12,
    )


@given(g1=gains, g2=gains, e1=etas, e2=st.floats(min_value=0.01, max_value=0.99))
def test_chain_efficiency_increases_with_any_stage_efficiency(g1, g2, e1, e2):
    worse = power_efficiency_factor([(g1, e1), (g2, e2)])
    better = power_efficiency_factor([(g1, e1), (g2, min(e2 + 0.01, 1.0))])
    assert better > worse


@given(gs=st.lists(gains, min_size=1, max_size=4), es=st.lists(etas, min_size=4, max_size=4))
def test_appending_lossless_stages_never_changes_h(gs, es):
    chain = [(g, e) for g, e in zip(gs, es)]
    padded = chain + [(7.5, 1.0), (0.3, 1.0)]
    assert_allclose(
        power_efficiency_factor(padded), power_efficiency_factor(chain), rtol=1e-15
    )


@given(es=st.lists(etas, min_size=1, max_size=5))
def test_h_bounded_by_unity_and_positive(es):
    chain = [(10.0, e) for e in es]
    h = power_efficiency_factor(chain)
    assert 0.0 < h <= 1.0


def test_stage_validation():
    with pytest.raises(DomainError):
        power_efficiency_factor([(10.0, 0.0)])
    with pytest.raises(DomainError) as err:
        power_efficiency_factor([(10.0, 1.5)])
    assert str(err.value) == "stage efficiency must lie in (0, 1], got 1.5"
    with pytest.raises(DomainError) as err:
        power_efficiency_factor([(0.0, 0.5)])
    assert str(err.value) == "stage gain must be positive, got 0.0"
    with pytest.raises(DomainError) as err:
        power_efficiency_factor([(math.nan, 0.5), (1.0, 0.5)])
    assert str(err.value) == "stage gain must be positive, got nan"


def test_relay_advantage_oracles():
    # symmetric geometry, relay antenna 4x the sink's, equal efficiencies,
    # half the direct distance each hop: rhs = 0.25/4 + 0.25/1... scaled:
    won = relay_advantage(
        d1_m=500.0, d2_m=500.0, d3_m=1000.0,
        relay_rx_gain=4.0, sink_rx_gain=1.0,
        relay_efficiency=0.5, source_efficiency=0.5,
    )
    assert_allclose(won, 0.25 / 4.0 + 0.25, rtol=1e-15)
    assert won < 1.0  # the relay wins

    # both hops as long as the direct path and no gain or efficiency edge
    lost = relay_advantage(
        d1_m=1000.0, d2_m=1000.0, d3_m=1000.0,
        relay_rx_gain=1.0, sink_rx_gain=1.0,
        relay_efficiency=0.5, source_efficiency=0.5,
    )
    assert_allclose(lost, 2.0, rtol=1e-15)


def test_relay_scenario_validation():
    with pytest.raises(DomainError):
        relay_advantage(-1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        relay_advantage(1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        relay_advantage(1.0, 1.0, 1.0, 0.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        relay_advantage(1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 0.5)
    with pytest.raises(DomainError) as err:
        relay_advantage(4.0, 2.0, 0.0, 10.0, 1.0, 0.5, 0.2)
    assert str(err.value) == "direct-path distance must be positive"


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_relay_advantage_is_scale_invariant(scale):
    base = relay_advantage(700.0, 400.0, 900.0, 2.0, 1.0, 0.4, 0.5)
    scaled = relay_advantage(700.0 * scale, 400.0 * scale, 900.0 * scale, 2.0, 1.0, 0.4, 0.5)
    assert_allclose(scaled, base, rtol=1e-12)


def test_relay_scenario_rejects_an_array_with_one_bad_entry():
    good = np.array([1.0, 2.0, 3.0])
    valid = dict(d1_m=good, d2_m=good, d3_m=good, relay_rx_gain=1.0, sink_rx_gain=1.0,
                 relay_efficiency=0.5, source_efficiency=0.5)
    for field, bad, message in (("d1_m", -1.0, "non-negative"), ("d2_m", -1.0, "non-negative"),
                                ("d3_m", 0.0, "positive"), ("relay_rx_gain", 0.0, "positive"),
                                ("sink_rx_gain", 0.0, "positive"), ("relay_efficiency", 1.5, "lie in"),
                                ("source_efficiency", 0.0, "lie in"), ("d1_m", math.nan, "non-negative"),
                                ("d2_m", math.nan, "non-negative"), ("d3_m", math.nan, "positive"),
                                ("relay_rx_gain", math.nan, "positive"), ("sink_rx_gain", math.nan, "positive")):
        with pytest.raises(DomainError, match=message):
            relay_advantage(**{**valid, field: np.array([0.5, bad, 0.5])})
    assert_allclose(relay_advantage(**valid), [2.0, 2.0, 2.0], rtol=1e-15)


def test_haps_assessment_geometry():
    """Platform relay: d2 = d3 = access slant, d1 = feeder slant."""
    platform = Point3(0.0, 0.0, 20000.0)
    gateway = Point3(45_000.0, 0.0, 0.0)
    rows = haps_relay_assessment(
        [20_000.0, 0.0], [0.0, 0.0], platform, gateway,
        relay_rx_gain_db=0.0, sink_rx_gain_db=0.0,
        relay_efficiency=0.5, source_efficiency=0.5,
    )
    assert rows.terminal_id.tolist() == [0, 1]
    d1 = math.hypot(45_000.0, 20_000.0)
    assert_allclose(rows.d1_m[0], d1, rtol=1e-12)
    assert_allclose(rows.d1_m[0], 49_244.29, atol=5e-3)
    assert rows.d2_m[0] == rows.d3_m[0]
    assert_allclose(rows.d2_m[0], 20_000.0 * math.sqrt(2.0), rtol=1e-12)
    # (d1/d3)^2 = (45^2+20^2)/(20^2+20^2) = 2425/800
    assert_allclose(rows.feeder_access_ratio_sq[0], 2425.0 / 800.0, rtol=1e-12)
    assert_allclose(rows.feeder_access_ratio_sq[0], 3.03125, rtol=1e-12)
    # d2 = d3 and equal efficiencies make the second term exactly 1, so
    # the relay can never win this comparison without a receive-gain edge
    assert_allclose(rows.rhs[0], 2425.0 / 800.0 + 1.0, rtol=1e-12)
    assert not rows.relay_preferred[0]

    # nadir terminal: shortest access slant, largest feeder/access ratio
    assert_allclose(rows.d2_m[1], 20_000.0, rtol=1e-12)
    assert_allclose(rows.feeder_access_ratio_sq[1], (d1 / 20_000.0) ** 2, rtol=1e-12)
    assert rows.feeder_access_ratio_sq[1] > rows.feeder_access_ratio_sq[0]


def test_haps_assessment_gain_edge_flips_verdict():
    platform = Point3(0.0, 0.0, 20000.0)
    gateway = Point3(45_000.0, 0.0, 0.0)
    rows = haps_relay_assessment(
        [20_000.0], [0.0], platform, gateway,
        relay_rx_gain_db=10.0, sink_rx_gain_db=0.0,
        relay_efficiency=0.5, source_efficiency=0.5,
    )
    # first term shrinks tenfold: 0.303 + 1.0 > 1 still loses on the
    # efficiency term alone; give the relay a better chain as well
    assert not rows.relay_preferred[0]
    rows = haps_relay_assessment(
        [20_000.0], [0.0], platform, gateway,
        relay_rx_gain_db=10.0, sink_rx_gain_db=0.0,
        relay_efficiency=0.5, source_efficiency=0.25,
    )
    assert_allclose(rows.rhs[0], 3.03125 / 10.0 + 0.5, rtol=1e-12)
    assert rows.relay_preferred[0]


@pytest.mark.parametrize("preset", ["single-cell-bp", "multi-selection-cpe-rg"])
def test_haps_assessment_rows_equal_scalar_verdicts(preset):
    cfg = preset_config(preset)
    terminals, _ = build_drop(cfg)
    platform = Point3(0.0, 0.0, cfg.altitude_m)
    gateway = Point3(cfg.gateway_distance_m, 0.0, 0.0)
    rows = haps_relay_assessment(
        [t.x for t in terminals], [t.y for t in terminals], platform, gateway,
        cfg.relay_rx_gain_db, cfg.sink_rx_gain_db, 0.4, 0.3,
    )
    _, d1 = link_geometry(gateway, platform)
    for i, t in enumerate(terminals):
        _, access = link_geometry(platform, Point3(t.x, t.y, 0.0))
        want = relay_advantage(
            d1, access, access, 10.0 ** (cfg.relay_rx_gain_db / 10.0),
            10.0 ** (cfg.sink_rx_gain_db / 10.0), 0.4, 0.3,
        )
        assert (rows.d1_m[i], rows.d2_m[i], rows.d3_m[i]) == (d1, access, access)
        assert (rows.rhs[i], rows.relay_preferred[i], rows.margin[i]) == (
            want, want < 1.0, 1.0 - want)
        assert rows.feeder_access_ratio_sq[i] == (d1 / access) * (d1 / access)
