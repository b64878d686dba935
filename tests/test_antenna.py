"""Element patterns, panel arrays, and user-terminal gains."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from hapsim.antenna import (
    BeamSet,
    ElementPattern,
    Panel,
    array_gain,
    broadside_weights,
    element_gain,
    hex_array,
    planar_panel,
    single_element_panel,
    steering_weights,
)
from hapsim.errors import ConfigError, OutOfCoverageError

PLATFORM_ELEMENT = ElementPattern(peak_gain_dbi=5.0, hpbw_deg=90.0)
CPE_PATTERN = ElementPattern(peak_gain_dbi=12.0, hpbw_deg=60.0)


def test_element_peak_on_boresight():
    assert_allclose(element_gain(PLATFORM_ELEMENT, 0.0, 0.0), 5.0)


def test_element_half_power_points():
    # 3 dB down at half the beamwidth off boresight, either plane
    assert_allclose(element_gain(PLATFORM_ELEMENT, 45.0, 0.0), 2.0)
    assert_allclose(element_gain(PLATFORM_ELEMENT, 0.0, 45.0), 2.0)
    assert_allclose(element_gain(CPE_PATTERN, 30.0, 0.0), 9.0)


def test_element_front_to_back_floor():
    assert_allclose(element_gain(PLATFORM_ELEMENT, 180.0, 0.0), -25.0)
    assert_allclose(element_gain(CPE_PATTERN, 90.0, 90.0), -18.0)


def test_element_quadratic_rolloff_sums_planes():
    g = element_gain(CPE_PATTERN, 30.0, 30.0)
    assert_allclose(g, 12.0 - 6.0)


def test_element_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        ElementPattern(peak_gain_dbi=5.0, hpbw_deg=0.0)
    with pytest.raises(ConfigError):
        ElementPattern(peak_gain_dbi=5.0, hpbw_deg=-1.0)
    with pytest.raises(ConfigError, match="^front-to-back ratio must be positive$"):
        ElementPattern(peak_gain_dbi=5.0, hpbw_deg=65.0, front_to_back_db=math.nan)


PANEL_ARGS = dict(element=PLATFORM_ELEMENT, rows=2, cols=2, boresight=[0.0, 0.0, -2.0],
                  col_axis=[0.0, 3.0, 0.0], row_axis=[1.0, 1.0, 0.0])


@pytest.mark.parametrize("change, message", [
    ({"rows": 0}, "panel dimensions must be positive"),
    ({"cols": -1}, "panel dimensions must be positive"),
    ({"spacing_wl": 0.0}, "element spacing must be positive"),
    ({"boresight": [0, 0, 0]}, "panel boresight must be a nonzero vector"),
    ({"col_axis": [0, 0, 0]}, "panel col_axis must be a nonzero vector"),
    ({"row_axis": np.zeros(3)}, "panel row_axis must be a nonzero vector"),
    ({"spacing_wl": math.nan}, "element spacing must be positive"),
    ({"boresight": [math.nan, 0.0, -1.0]}, "panel boresight must be a finite vector"),
    ({"col_axis": [0.0, math.inf, 0.0]}, "panel col_axis must be a finite vector"),
    ({"row_axis": [0.0, 0.0, -math.inf]}, "panel row_axis must be a finite vector"),
])
def test_panel_rejects_bad_arguments(change, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Panel(**{**PANEL_ARGS, **change})


def test_panel_axes_are_unit_vectors():
    panel = Panel(*PANEL_ARGS.values())  # positional, in the keyword order
    for name in ("boresight", "col_axis", "row_axis"):
        given_axis = np.asarray(PANEL_ARGS[name], dtype=float)
        np.testing.assert_array_equal(getattr(panel, name), given_axis / np.linalg.norm(given_axis))
        assert_allclose(np.linalg.norm(getattr(panel, name)), 1.0)
    assert (panel.rows, panel.cols, panel.spacing_wl, panel.n_elements) == (2, 2, 0.5, 4)


def test_panels_compare_by_identity():
    a, b = Panel(**PANEL_ARGS), Panel(**PANEL_ARGS)
    assert a == a and a != b and not a == b
    assert len({a, b}) == 2


def _one(panel):
    """The beam set of one panel, serving a cell at the origin."""
    return BeamSet([panel], np.zeros((1, 2)))


def test_a_beam_set_is_one_element_pattern_stacked():
    panels = hex_array(PLATFORM_ELEMENT, side_rows=3, spacing_wl=0.6)
    beams = BeamSet(panels, np.arange(14.0).reshape(7, 2))
    assert beams.element == PLATFORM_ELEMENT
    np.testing.assert_array_equal(beams.rows, [2, 3, 3, 3, 3, 3, 3])
    np.testing.assert_array_equal(beams.spacing_wl, 0.6)
    for name in ("col_axis", "row_axis", "boresight"):
        np.testing.assert_array_equal(getattr(beams, name), [getattr(p, name) for p in panels])
    with pytest.raises(ConfigError, match="^the panels of a beam set must share one element pattern$"):
        BeamSet([panels[0], planar_panel(CPE_PATTERN, 2, 2, 0.0, -90.0)], np.zeros((2, 2)))


def test_single_element_panel_matches_element():
    panel = single_element_panel(PLATFORM_ELEMENT)
    down = np.array([[0.0, 0.0, -1.0]])
    assert_allclose(array_gain(_one(panel), down)[0, 0], 5.0, atol=1e-9)
    # a 1x1 panel's kernel is exactly one, whatever the target
    probes = np.array([[0.3, -0.2, -1.0], [1.0, 0.5, -0.1]])
    az, el, _, _ = panel.local_angles(probes)
    np.testing.assert_array_equal(array_gain(_one(panel), probes, [[0.1, 0.2, -1.0]]),
                                  [element_gain(PLATFORM_ELEMENT, az, el)])


def test_written_out_row_axis_matches_np_cross_bit_for_bit():
    """The panel frame equals the one built from ``np.cross``, signs of zero included."""
    for az_deg in np.arange(-360.0, 361.0, 15.0):
        for el_deg in np.arange(-90.0, 91.0, 7.5):
            panel = planar_panel(PLATFORM_ELEMENT, 2, 2, az_deg, el_deg)
            az, el = np.radians(az_deg), np.radians(el_deg)
            boresight = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
            col_axis = np.array([-np.sin(az), np.cos(az), 0.0])
            ref = Panel(PLATFORM_ELEMENT, 2, 2, boresight, col_axis, np.cross(col_axis, boresight))
            for name in ("boresight", "col_axis", "row_axis"):
                got, want = getattr(panel, name), getattr(ref, name)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_planar_panel_element_count():
    bottom = planar_panel(PLATFORM_ELEMENT, rows=2, cols=2,
                          boresight_azimuth_deg=0.0, boresight_elevation_deg=-90.0)
    side = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                        boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    assert bottom.n_elements == 4
    assert side.n_elements == 8


def test_array_factor_at_steering_target_is_exact():
    """Conjugate-phase unit-norm weights put 10*log10(n) of array gain on target."""
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 50:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if v @ panel.boresight <= 0.05:
            continue
        g = array_gain(_one(panel), v[None, :], v[None, :])[0, 0]
        local_az, local_el, _, _ = panel.local_angles(v[None, :])
        expected = element_gain(panel.element, local_az[0], local_el[0]) + 10.0 * math.log10(panel.n_elements)
        assert_allclose(g, expected, atol=1e-9)
        checked += 1


def test_steering_rejects_behind_panel_targets():
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    dirs = np.array([[1.0, 0.0, -0.5], [0.5, 0.5, -1.0]])
    # one bad target in a stack is enough
    stack = np.array([panel.boresight, -panel.boresight])
    for bad in (-panel.boresight, np.zeros(3), np.array([np.nan, 0.0, -1.0])):
        with pytest.raises(OutOfCoverageError):
            steering_weights(panel, bad)
        with pytest.raises(OutOfCoverageError):
            array_gain(_one(panel), dirs, bad[None, :])
        stack[1] = bad
        with pytest.raises(OutOfCoverageError):
            array_gain(_one(panel), np.stack([dirs, dirs]), stack[:, None, :])


@pytest.mark.parametrize("bad_beam", [0, 2, 4])
def test_a_bad_target_names_the_first_beam_at_fault(bad_beam):
    beams = BeamSet(hex_array(PLATFORM_ELEMENT)[:5], np.zeros((5, 2)))
    dirs = np.array([[1.0, 0.0, -0.5], [0.5, 0.5, -1.0]])
    targets = np.broadcast_to(beams.boresight, (3, 5, 3)).copy()  # three positions
    targets[1, bad_beam] = -beams.boresight[bad_beam]
    targets[2, bad_beam:, :] = 0.0  # zero targets on this beam and every later one
    with pytest.raises(OutOfCoverageError, match=f"^steering target of beam {bad_beam} ") as caught:
        array_gain(beams, dirs, targets)
    assert caught.value.beam == bad_beam


def test_broadside_gains_frozen():
    bottom = planar_panel(PLATFORM_ELEMENT, rows=2, cols=2,
                          boresight_azimuth_deg=0.0, boresight_elevation_deg=-90.0)
    side = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                        boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    g_bottom = array_gain(_one(bottom), bottom.boresight[None, :])[0, 0]
    assert_allclose(g_bottom, 5.0 + 10.0 * math.log10(4.0), atol=1e-9)
    g_side = array_gain(_one(side), side.boresight[None, :])[0, 0]
    assert_allclose(g_side, 5.0 + 10.0 * math.log10(8.0), atol=1e-9)
    assert_allclose(g_bottom, 11.0206, atol=5e-4)
    assert_allclose(g_side, 14.0309, atol=5e-4)


def test_array_factor_is_maximised_at_the_target():
    """Cauchy-Schwarz: |AF| <= sqrt(n) everywhere, attained at the target."""
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=60.0, boresight_elevation_deg=-23.0)
    target = np.array([math.cos(math.radians(40.0)) * math.cos(math.radians(60.0)),
                       math.cos(math.radians(40.0)) * math.sin(math.radians(60.0)),
                       -math.sin(math.radians(40.0))])
    af_cap_db = 10.0 * math.log10(panel.n_elements)

    rng = np.random.default_rng(11)
    probes = rng.normal(size=(2000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    az, el, _, _ = panel.local_angles(probes)
    af_db = array_gain(_one(panel), probes, target[None, :])[0] - element_gain(panel.element, az, el)
    assert af_db.max() <= af_cap_db + 1e-9

    az_t, el_t, _, _ = panel.local_angles(target[None, :])
    af_t = array_gain(_one(panel), target[None, :], target[None, :])[0, 0] - element_gain(panel.element, az_t, el_t)[0]
    assert_allclose(af_t, af_cap_db, atol=1e-9)


def test_stacked_targets_match_one_call_per_target_bit_for_bit():
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=60.0, boresight_elevation_deg=-23.0)
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(5, 33, 3))
    dirs[..., 2] = -np.abs(dirs[..., 2]) - 1.0
    targets = (panel.boresight + rng.normal(scale=0.2, size=(5, 3)))[:, None, :]  # one beam's, per position
    beam = _one(panel)
    gains = array_gain(beam, dirs, targets)
    assert gains.shape == (5, 1, 33)
    for p in range(5):
        np.testing.assert_array_equal(gains[p], array_gain(beam, dirs[p], targets[p]))
    # one target, or none, applies to every leading axis of the directions
    for target in (targets[2], None):
        np.testing.assert_array_equal(array_gain(beam, dirs, target)[3],
                                      array_gain(beam, dirs[3], target))


def _every_axis_gain(panel, directions, target=None):
    """One panel's ``array_gain`` with the kernel of every axis formed, one element or more.

    ``target`` is one ``(3,)`` target or a stack of them, one per leading axis of the result.
    """
    az, el, u, v = panel.local_angles(directions)
    t = np.asarray(panel.boresight if target is None else target, dtype=float)
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    if t.ndim > 1:
        t = t[..., None, :]
    ut, vt = (t * panel.col_axis).sum(axis=-1), (t * panel.row_axis).sum(axis=-1)
    af = 1.0 / np.sqrt(panel.n_elements)
    for count, x in ((panel.cols, u - ut), (panel.rows, v - vt)):
        two_c = 2.0 * np.cos((np.pi * panel.spacing_wl) * x)
        u_prev, u_k = 0.0, np.ones_like(two_c)  # U_{-1}, U_0
        for _ in range(count - 1):
            u_prev, u_k = u_k, two_c * u_k - u_prev
        af = af * np.abs(u_k)
    return element_gain(panel.element, az, el) + 20.0 * np.log10(np.maximum(af, 1e-12))


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (1, 5), (2, 1), (4, 1)])
@pytest.mark.parametrize("azimuth, elevation, spacing", [(0.0, -90.0, 0.5), (60.0, -23.0, 0.7)])
def test_one_element_axes_match_the_every_axis_formula_bit_for_bit(rows, cols, azimuth,
                                                                   elevation, spacing):
    panel = planar_panel(PLATFORM_ELEMENT, rows, cols, azimuth, elevation, spacing_wl=spacing)
    rng = np.random.default_rng(rows * 10 + cols)
    dirs = rng.normal(size=(4, 25, 3))  # a quarter or so lies behind the panel
    dirs += 0.6 * panel.boresight
    targets = panel.boresight + rng.normal(scale=0.2, size=(4, 3))
    # broadside, one target, one per leading axis, and a stack of targets for one set of directions
    for d, target in ((dirs, None), (dirs, targets[1]), (dirs, targets), (dirs[0], targets)):
        want = _every_axis_gain(panel, d, target)
        got = array_gain(_one(panel), d, None if target is None else target[..., None, :])
        assert got.shape[-2] == 1
        got = got[..., 0, :]
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert (array_gain(_one(panel), dirs[0, :1], targets[:1])[0, 0]
            == _every_axis_gain(panel, dirs[0, 0], targets[0]))


def test_weights_are_unit_norm():
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    for w in (broadside_weights(panel), steering_weights(panel, np.array([0.5, 0.1, -0.8]))):
        assert_allclose(np.linalg.norm(w), 1.0, atol=1e-12)


def test_hex_array_layout():
    panels = hex_array(PLATFORM_ELEMENT)
    assert len(panels) == 7
    assert panels[0].rows == 2 and panels[0].cols == 2
    assert_allclose(panels[0].boresight, [0.0, 0.0, -1.0], atol=1e-12)
    sides = panels[1:]
    assert all(p.rows == 4 and p.cols == 2 for p in sides)
    azimuths = sorted(
        math.degrees(math.atan2(p.boresight[1], p.boresight[0])) % 360.0 for p in sides
    )
    assert_allclose(azimuths, [0.0, 60.0, 120.0, 180.0, 240.0, 300.0], atol=1e-9)
    # all six side panels look 23 degrees below the horizon
    tilts = [math.degrees(math.asin(-p.boresight[2])) for p in sides]
    assert_allclose(tilts, 23.0, atol=1e-9)


def test_total_radiated_power_is_bounded():
    """A lossless array cannot beat isotropic radiation on average.

    Sphere-average of the linear gain must stay at or below one (the
    element model is an envelope, so well below in practice).
    """
    panel = planar_panel(PLATFORM_ELEMENT, rows=4, cols=2,
                         boresight_azimuth_deg=0.0, boresight_elevation_deg=-23.0)
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    g_lin = 10.0 ** (array_gain(_one(panel), dirs)[0] / 10.0)
    assert g_lin.mean() < 1.05


def _reference_gain(panel, weights, directions):
    """Element gain plus ``20*log10|AF|`` summed element by element, and ``|AF|``.

    Element ``r * cols + c`` sits in row ``r`` and column ``c`` of the grid.
    """
    az, el, u, v = panel.local_angles(directions)
    col = (np.arange(panel.cols) - (panel.cols - 1) / 2.0) * panel.spacing_wl
    row = (np.arange(panel.rows) - (panel.rows - 1) / 2.0) * panel.spacing_wl
    phase = 2.0 * np.pi * (np.multiply.outer(v, row)[:, :, None]
                           + np.multiply.outer(u, col)[:, None, :])
    af = np.abs(np.exp(1j * phase.reshape(len(u), -1)) @ weights)
    return element_gain(panel.element, az, el) + 20.0 * np.log10(np.maximum(af, 1e-12)), af


_PANELS = st.tuples(st.integers(1, 16), st.integers(1, 16),
                    st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]), st.floats(0.25, 2.0)),
                    st.floats(0.0, 360.0), st.floats(-90.0, 0.0),
                    st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)))


@given(panels=st.lists(_PANELS, min_size=1, max_size=4), steered=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_matches_the_explicit_weights(panels, steered, seed):
    """Every beam of a stacked call: its explicit weights' gain, and its one-beam call's bits."""
    built, targets, dirs = [], [], [np.random.default_rng(seed).normal(size=(200, 3))]
    for rows, cols, spacing, azimuth, elevation, (ut, vt) in panels:
        panel = planar_panel(PLATFORM_ELEMENT, rows, cols, azimuth, elevation, spacing_wl=spacing)
        target = (ut * panel.col_axis + vt * panel.row_axis
                  + math.sqrt(1.0 - ut * ut - vt * vt) * panel.boresight)
        built.append(panel)
        targets.append(target)
        dirs += [target, panel.boresight]
        # grating lobes of the steered beam, where sin(pi d x) vanishes
        for du, dv in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            u, v = ut + du / spacing, vt + dv / spacing
            if u * u + v * v < 1.0:
                dirs.append(u * panel.col_axis + v * panel.row_axis
                            + math.sqrt(1.0 - u * u - v * v) * panel.boresight)
    dirs, targets = np.vstack(dirs), np.array(targets)
    beams = BeamSet(built, np.zeros((len(built), 2)))
    got = array_gain(beams, dirs, targets if steered else None)
    assert got.shape == (len(built), len(dirs))
    for b, panel in enumerate(built):
        weights = steering_weights(panel, targets[b]) if steered else broadside_weights(panel)
        want, af = _reference_gain(panel, weights, dirs)
        resolved = af > 1e-3  # the dB comparison is ill-conditioned in deep nulls
        assert_allclose(got[b, resolved], want[resolved], rtol=0.0, atol=1e-9)
        alone = array_gain(_one(panel), dirs, targets[b:b + 1] if steered else None)
        np.testing.assert_array_equal(got[b], alone[0])
    with pytest.raises(OutOfCoverageError):
        array_gain(beams, dirs, -targets)
