"""Terminal drops, attachment, scheduling and campaign plumbing."""

import dataclasses
import importlib.util
import math
import struct
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import hapsim
from hapsim import simulation
from hapsim.antenna import BeamSet, ElementPattern
from hapsim.architecture import bp_uplink_noise_figure
from hapsim.channel import NtnTables
from hapsim.cli import main
from hapsim.config import ScenarioConfig, preset_config, preset_names
from hapsim.errors import ConfigError, DomainError, HapsimError, ValidationError
from hapsim.geometry import Point3, link_geometry
from hapsim.report import format_report
from hapsim.simulation import (
    AggregateStats,
    Drop,
    Terminal,
    _coblock_interference,
    aggregate_se,
    build_beams,
    build_drop,
    cell_centers,
    drop_terminals,
    nominal_cells,
    run_campaign,
    sinr_to_se,
    ul_slot_assignments,
)

CENTER = Point3(0.0, 0.0, 20000.0)


# ----------------------------------------------------------------------
# Link abstraction and aggregation

def _lin(db):
    return 10.0 ** (db / 10.0)


LINK = (0.6, -10.0, 4.4)  # attenuation, inclusive floor (dB), cap


def test_sinr_to_se_regions():
    assert sinr_to_se(_lin(-15.0), *LINK) == 0.0
    assert sinr_to_se(_lin(-10.0), *LINK) > 0.0  # floor is inclusive
    assert_allclose(sinr_to_se(1.0, *LINK), 0.6, rtol=1e-12)
    assert_allclose(sinr_to_se(_lin(40.0), *LINK), 4.4, rtol=1e-12)


def test_sinr_to_se_midrange_value():
    assert_allclose(sinr_to_se(10.0, *LINK), 0.6 * math.log2(11.0), rtol=1e-12)


def test_sinr_to_se_custom_abstraction():
    abstraction = dict(attenuation=0.4, sinr_min_db=-5.0, se_max=2.0)
    assert sinr_to_se(_lin(-6.0), **abstraction) == 0.0
    assert_allclose(sinr_to_se(1.0, **abstraction), 0.4, rtol=1e-12)
    assert_allclose(sinr_to_se(_lin(40.0), **abstraction), 2.0, rtol=1e-12)


def test_sinr_to_se_vectorised_and_monotone():
    sinr = _lin(np.linspace(-20.0, 45.0, 400))
    se = sinr_to_se(sinr, *LINK)
    assert se.shape == sinr.shape
    assert np.all(np.diff(se) >= 0.0)
    assert se.min() == 0.0 and se.max() == 4.4


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (-0.5, "-0.5"), (-2.0, "-2.0")])
def test_sinr_to_se_rejects_nan_and_negative_values_by_name(bad, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"SINR .*got {shown}$"):
            sinr_to_se(bad, *LINK)
        # one bad entry among valid ones fails the whole array, named
        with pytest.raises(DomainError, match=f"got {shown}$"):
            sinr_to_se(np.array([[1.0, 0.0], [bad, 10.0]]), *LINK)


def test_sinr_to_se_maps_infinity_to_the_cap():
    assert sinr_to_se(math.inf, *LINK) == 4.4
    assert_array_equal(sinr_to_se(np.array([math.inf, 0.0, -0.0]), *LINK), [4.4, 0.0, 0.0])


def test_sinr_to_se_caps_an_attenuation_that_overflows_the_se():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_array_equal(sinr_to_se(np.array([10.0, 1e300, 0.05]), 1.7976931348623157e308, -10.0, 4.4),
                           [4.4, 4.4, 0.0])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(sinr_db=_FINITE, floor_db=_FINITE)
@example(sinr_db=-10.0, floor_db=-10.0)
@example(sinr_db=30.0, floor_db=4000.0)
@example(sinr_db=5000.0, floor_db=4000.0)
@example(sinr_db=-5000.0, floor_db=-4000.0)
def test_sinr_to_se_of_the_linear_value_is_the_db_definition(sinr_db, floor_db):
    attenuation, _, se_max = LINK
    with np.errstate(over="ignore"):
        linear = np.power(10.0, sinr_db / 10.0)
        floor = np.power(10.0, floor_db / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sinr_to_se(linear, attenuation, floor_db, se_max)
    # dB values that meet in one linear value cannot be told apart, and
    # the floor is inclusive, so such a value counts as at the floor
    below = sinr_db < floor_db and linear != floor
    want = 0.0 if below else min(attenuation * math.log2(1.0 + linear), se_max)
    assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_campaign_with_a_floor_beyond_the_float_range_is_all_outage():
    cfg = ScenarioConfig(dl_sinr_min_db=4000.0, ul_sinr_min_db=4000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_campaign(cfg)
    assert res.dl.outage_count == res.ul.outage_count == 20


def test_aggregate_edge_is_mean_of_lowest_5_percent():
    values = np.linspace(0.1, 2.0, 20)
    stats = aggregate_se(values)
    assert stats.edge_user_count == 1  # ceil(0.05 * 20)
    assert_allclose(stats.cell_edge_se, values.min(), rtol=1e-15)
    assert_allclose(stats.mean_se, values.mean(), rtol=1e-15)
    assert stats.outage_count == 0

    big = np.linspace(0.0, 2.0, 210)
    stats = aggregate_se(big)
    assert stats.edge_user_count == 11  # ceil(0.05 * 210)
    assert_allclose(stats.cell_edge_se, np.sort(big)[:11].mean(), rtol=1e-15)
    assert stats.outage_count == 1


def test_aggregate_counts_outage_as_zero_not_dropped():
    values = [0.0, 0.0, 1.0, 1.0]
    stats = aggregate_se(values)
    assert stats.outage_count == 2
    assert_allclose(stats.mean_se, 0.5)
    assert stats.cell_edge_se == 0.0


def test_aggregate_rejects_empty():
    with pytest.raises(DomainError):
        aggregate_se([])


# ----------------------------------------------------------------------
# Layout and drops

def test_cell_centers_single():
    assert_array_equal(cell_centers("single", 60_000.0, 0.44, 0.0), np.zeros((1, 2)))


def test_cell_centers_seven():
    centers = cell_centers("seven_cell", 100_000.0, 0.44, 0.0)
    assert centers.shape == (7, 2)
    assert_array_equal(centers[0], [0.0, 0.0])
    radii = np.hypot(centers[1:, 0], centers[1:, 1])
    assert_allclose(radii, 44_000.0, rtol=1e-12)
    az = np.degrees(np.arctan2(centers[1:, 1], centers[1:, 0])) % 360.0
    assert_allclose(np.sort(az), [0.0, 60.0, 120.0, 180.0, 240.0, 300.0], atol=1e-9)


def test_cell_centers_unknown_layout():
    with pytest.raises(ConfigError):
        cell_centers("nineteen_cell", 1.0, 0.44, 0.0)


def test_drop_is_reproducible_and_inside_disc():
    t = NtnTables.default()
    a = drop_terminals(50, 60_000.0, "ue_omni", t, np.random.default_rng(3), CENTER)
    b = drop_terminals(50, 60_000.0, "ue_omni", t, np.random.default_rng(3), CENTER)
    assert _drop_bits(a) == _drop_bits(b)
    for term in a:
        assert math.hypot(term.x, term.y) <= 60_000.0
        assert term.kind == "ue_omni"
    assert [term.terminal_id for term in a] == list(range(50))


def test_drop_radial_distribution_is_area_uniform():
    t = NtnTables.default()
    terms = drop_terminals(4000, 60_000.0, "ue_omni", t, np.random.default_rng(9), CENTER)
    r = np.hypot([x.x for x in terms], [x.y for x in terms])
    # for uniform area density the median radius is R/sqrt(2)
    assert abs(np.median(r) - 60_000.0 / math.sqrt(2.0)) < 1500.0


def test_drop_hits_exact_los_target():
    t = NtnTables.default()
    for seed in (1, 2, 3):
        terms = drop_terminals(20, 60_000.0, "ue_omni", t,
                               np.random.default_rng(seed), CENTER, target_los=17)
        assert sum(term.los for term in terms) == 17


def test_drop_draws_los_and_shadow_from_the_table():
    # one bin: every terminal gets its LOS probability and shadow sigmas
    t = NtnTables(np.array([45.0]), np.array([0.782]), np.array([1.79]),
                  np.array([8.93]), np.array([18.0]))
    terms = drop_terminals(4000, 60_000.0, "ue_omni", t, np.random.default_rng(0), CENTER)
    los = np.array([term.los for term in terms])
    shadow = np.array([term.shadow_db for term in terms])
    assert abs(los.mean() - 0.782) < 0.02
    assert abs(shadow[los].std() - 1.79) < 0.1
    assert abs(shadow[~los].std() - 8.93) < 0.4
    assert abs(shadow[los].mean()) < 0.1


class _Recorder:
    """A seeded generator that keeps every array ``drop_terminals`` draws from it."""

    def __init__(self, seed: int):
        self.rng, self.uniform, self.gaussian = np.random.default_rng(seed), [], []

    def random(self, n):
        self.uniform.append(self.rng.random(n))
        return self.uniform[-1]

    def normal(self, loc, scale):
        self.gaussian.append(self.rng.normal(loc, scale))
        return self.gaussian[-1]


@pytest.mark.parametrize("target_los", [None, 17])
def test_drop_records_hold_the_drawn_arrays(target_los):
    t, rng = NtnTables.default(), _Recorder(5)
    terms = drop_terminals(20, 60_000.0, "ue_omni", t, rng, CENTER, target_los)
    radii, angles, *_, los_draw = rng.uniform  # redraws keep only the last LOS draw
    radius, theta = 60_000.0 * np.sqrt(radii), angles * 2.0 * np.pi
    xs, ys = radius * np.cos(theta), radius * np.sin(theta)
    elevation, _ = link_geometry(np.column_stack([xs, ys, np.zeros(20)]), CENTER)
    los = los_draw < t.los_probability[t.bin_indices(elevation)]
    (shadow,) = rng.gaussian

    ids, x, y, kinds, los_col, shadow_col = map(list, zip(*terms))
    assert ids == list(range(20))
    assert x == xs.tolist() and y == ys.tolist()
    assert kinds == ["ue_omni"] * 20
    assert los_col == los.tolist()
    assert shadow_col == shadow.tolist()
    assert {type(v) for v in x + y + shadow_col} == {float}
    assert {type(v) for v in los_col} == {bool}
    with pytest.raises(AttributeError):
        next(iter(terms)).x = 0.0
    # the drawn arrays, bit for bit, and the records a list of them held
    assert _drop_bits(terms) == (xs.tobytes(), ys.tobytes(), los.tobytes(), shadow.tobytes(), "ue_omni")
    records = list(map(Terminal, range(20), xs.tolist(), ys.tolist(), ["ue_omni"] * 20,
                       los.tolist(), shadow.tolist()))
    got = list(terms)
    assert list(map(_record_bits, got)) == list(map(_record_bits, records))
    assert {type(t) for t in got} == {Terminal}


def _record_bits(t: Terminal) -> tuple:
    return t.terminal_id, t.x.hex(), t.y.hex(), t.kind, t.los, t.shadow_db.hex()


def _drop_bits(drop: Drop) -> tuple:
    """Every bit of a drop: its four arrays and its kind."""
    return drop.x.tobytes(), drop.y.tobytes(), drop.los.tobytes(), drop.shadow_db.tobytes(), drop.kind


def test_drop_is_read_only_arrays_and_a_seed_fixes_their_bits():
    a, _ = build_drop(ScenarioConfig(seed=4))
    b, _ = build_drop(ScenarioConfig(seed=4))
    assert isinstance(a, Drop) and a is not b and _drop_bits(a) == _drop_bits(b)
    assert _drop_bits(a) != _drop_bits(build_drop(ScenarioConfig(seed=5))[0])
    assert _drop_bits(a) != _drop_bits(Drop(a.x, a.y, a.los, a.shadow_db, "cpe_directional"))
    assert a != b  # drops compare by identity: compare their arrays
    for array in (a.x, a.y, a.los, a.shadow_db):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    assert a.x.dtype == a.y.dtype == a.shadow_db.dtype == float and a.los.dtype == bool
    with pytest.raises(TypeError):  # a terminal is read from the arrays, not by index
        a[0]


def test_drop_validation():
    t = NtnTables.default()
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        drop_terminals(0, 60_000.0, "ue_omni", t, rng, CENTER)
    with pytest.raises(ConfigError):
        drop_terminals(10, 60_000.0, "ue_omni", t, rng, CENTER, target_los=11)


def test_drop_infeasible_target_raises():
    # all-LOS table makes an all-NLOS target unreachable
    ones = np.ones(1)
    t = NtnTables(np.array([45.0]), ones, ones, 8.0 * ones, 19.0 * ones)
    with pytest.raises(ConfigError, match="LOS target"):
        drop_terminals(5, 60_000.0, "ue_omni", t, np.random.default_rng(0), CENTER, target_los=0)


def test_unreachable_los_target_fails_before_any_redraw():
    # 420 seven-cell terminals expect about 354 LOS: no redraw can
    # plausibly hit a target of 175
    t = NtnTables.default()
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match="LOS target 175/420") as err:
        drop_terminals(420, 100_000.0, "ue_omni", t, rng, CENTER, target_los=175)
    assert err.value.fields == ("terminal_count", "target_los_count")
    untouched = np.random.default_rng(4)
    untouched.random(420), untouched.random(420)  # the radii and angles of the drop
    assert rng.random() == untouched.random()
    with pytest.raises(ConfigError, match="LOS target"):
        build_drop(ScenarioConfig(layout="seven_cell", terminal_count=420, target_los_count=175))


def test_build_drop_resolves_layout_defaults():
    terms, _ = build_drop(ScenarioConfig())
    assert len(terms) == 20
    assert sum(t.los for t in terms) == 17
    terms, _ = build_drop(ScenarioConfig(layout="seven_cell"))
    assert len(terms) == 210
    assert sum(t.los for t in terms) == 175


def test_a_table_that_cannot_be_opened_names_its_key(tmp_path):
    # a library caller gets the HapsimError the CLI prints, not the OSError of the open
    for path in (tmp_path / "missing.csv", tmp_path):
        with pytest.raises(ValidationError, match=r"^ntn_table_path: \[Errno \d+\]") as err:
            build_drop(ScenarioConfig(ntn_table_path=str(path)))
        assert err.value.fields == ("ntn_table_path",)


# ----------------------------------------------------------------------
# Beams and attachment

def test_build_beams_single_and_seven():
    beams = build_beams(ScenarioConfig())
    assert_array_equal(beams.rows * beams.cols, [1])
    assert_array_equal(beams.centers, np.zeros((1, 2)))
    beams = build_beams(ScenarioConfig(layout="seven_cell"))
    assert beams.centers.shape == (7, 2)
    assert_array_equal(beams.rows * beams.cols, [4, 8, 8, 8, 8, 8, 8])
    for frame in (beams.col_axis, beams.row_axis, beams.boresight):
        assert frame.shape == (7, 3)
    assert beams.element == ElementPattern(5.0, 90.0, 30.0)


def _platform_bits(cfg: ScenarioConfig) -> list[bytes]:
    """Every bit of a config's platform: beams, cell centres, flight positions and steering targets."""
    beams, positions, targets = simulation._platform(cfg)
    arrays = [np.asarray(getattr(beams, name), dtype=float) for name in BeamSet.__slots__[1:]]
    return [struct.pack("<d", v) for v in beams.element] + [a.tobytes() for a in (*arrays, positions)] + [
        b"not steered" if targets is None else targets.tobytes()]


def _key_changes(cfg: ScenarioConfig, f: dataclasses.Field) -> list[tuple]:
    """``(cached, asked)`` values of one key: another value, and values equal to it but not the same."""
    value = getattr(cfg, f.name)
    if "choices" in f.metadata:
        return [(value, next(c for c in f.metadata["choices"] if c != value))]
    if f.type == "bool":
        return [(value, not value)]
    if f.type == "str":
        return [(value, "elsewhere.csv")]
    if value is None:  # an auto key: its resolved value, then another
        return [(None, cfg._resolved(f.name)), (None, cfg._resolved(f.name) + 1)]
    if f.type.startswith("int"):
        return [(value, value + 1), (value, np.int64(value))]
    pairs = [(value, value * 1.25 or 1.0), (value, np.float64(value))]
    if value == round(value):
        pairs += [(float(value), int(value)), (int(value), float(value))]
    if f.metadata.get("range", (-math.inf,))[0] <= 0:
        pairs += [(0.0, -0.0), (-0.0, 0.0), (0, -0.0)]
    return pairs


@pytest.mark.parametrize("layout", ["single", "seven_cell"])
def test_a_cached_beam_set_is_what_an_empty_cache_builds_for_every_key(layout):
    cache = simulation._build_platform
    base = ScenarioConfig(layout=layout)
    changed = set()
    for f in dataclasses.fields(ScenarioConfig):
        for cached, asked in _key_changes(base, f):
            first = dataclasses.replace(base, **{f.name: cached})
            then = dataclasses.replace(base, **{f.name: asked})
            try:
                then.validate()
            except ValidationError:  # a check across keys: the count and step of the circle
                assert f.name.startswith("flight_")
                continue
            cache.cache_clear()
            _platform_bits(first)
            from_cache = _platform_bits(then)
            cache.cache_clear()
            assert from_cache == _platform_bits(then), (f.name, cached, asked)
            if from_cache != _platform_bits(first):
                changed.add(f.name)
    # and a cache miss on each key the platform reads
    assert changed == BEAM_KEYS[layout]


# what a layout's platform reads: its beam set, flight circle and whether it steers its beams;
# the circle's count and step cannot change alone
_FLIGHT_KEYS = {"layout", "attachment_mode", "altitude_m", "flight_circle_diameter_m"}
_PATTERN_KEYS = ("gain_dbi", "hpbw_deg", "front_to_back_db")
BEAM_KEYS = {
    "single": _FLIGHT_KEYS | {f"single_antenna_{k}" for k in _PATTERN_KEYS},
    "seven_cell": _FLIGHT_KEYS | {f"array_element_{k}" for k in _PATTERN_KEYS} | {
        "cell_radius_m", "outer_cell_center_fraction", "bottom_panel_rows", "bottom_panel_cols",
        "side_panel_rows", "side_panel_cols", "element_spacing_wl", "side_panel_tilt_deg",
        "side_panel_azimuth_offset_deg"},
}


def test_cached_beams_and_positions_are_read_only():
    cfg = ScenarioConfig(layout="seven_cell")
    beams, hpos, targets = simulation._platform(cfg)
    assert build_beams(cfg) is beams and simulation._platform(cfg)[1] is hpos
    assert hpos.shape == (12, 3) and targets.shape == (12, 7, 3)
    for array in (hpos, targets, *(getattr(beams, name) for name in BeamSet.__slots__[1:])):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


# hex_array and cell_centers each add the offset to 60 k degrees
@pytest.mark.parametrize("offset", [0.0, 17.5, -45.0, 330.0])
def test_panels_and_cell_centres_are_index_aligned_on_azimuth(offset):
    beams = build_beams(ScenarioConfig(layout="seven_cell", side_panel_azimuth_offset_deg=offset))
    for k, (boresight, (x, y)) in enumerate(zip(beams.boresight[1:], beams.centers[1:])):
        az_panel = math.degrees(math.atan2(boresight[1], boresight[0]))
        az_cell = math.degrees(math.atan2(y, x))
        for az in (az_panel, az_cell):  # the same azimuth, up to a whole turn
            assert_allclose((az - offset - 60.0 * k + 180.0) % 360.0 - 180.0, 0.0, atol=1e-9)


def _xy(terminals):
    return np.array([[t.x, t.y] for t in terminals])


def test_nominal_cells_take_nearest_center():
    cfg = ScenarioConfig(layout="seven_cell")
    centers = build_beams(cfg).centers
    terminals, _ = build_drop(cfg)
    cells = nominal_cells(_xy(terminals), centers)
    for t, c in zip(terminals, cells):
        d = np.hypot(centers[:, 0] - t.x, centers[:, 1] - t.y)
        assert d[c] == d.min()


def test_attach_steering_uses_fixed_cells():
    for cfg in (preset_config(p) for p in preset_names() if "steering" in p):
        result = run_campaign(cfg)
        assert_array_equal(result.serving_cell,
                           nominal_cells(_xy(result.terminals), build_beams(cfg).centers))


def test_attach_selection_prefers_nadir_panel_overhead():
    # a 2 km disc lies wholly under the nadir panel at every position
    cfg = ScenarioConfig(layout="seven_cell", attachment_mode="beam_selection",
                         cell_radius_m=2000.0, los_assignment="probabilistic")
    assert_array_equal(run_campaign(cfg).serving_cell, 0)


# ----------------------------------------------------------------------
# Uplink scheduling

def test_slots_unique_within_a_cell():
    serving = np.array([0, 0, 0, 1, 1, 2])
    for offset in range(8):
        slots = ul_slot_assignments(serving, offset=offset).tolist()
        for cell in (0, 1, 2):
            members = [slots[i] for i in np.flatnonzero(serving == cell)]
            assert len(set(members)) == len(members)


def test_slots_zero_offset_is_id_order():
    serving = np.array([0, 1, 0, 1])
    # two members per cell; ranks 0 and 1 take slots 0 and 1
    assert ul_slot_assignments(serving, offset=0).tolist() == [0, 0, 1, 1]


def test_slots_blocks_fill_before_next_tti():
    # a lone cell's slots run through its ranks in terminal-id order
    serving = np.zeros(5, dtype=int)
    assert ul_slot_assignments(serving, offset=0).tolist() == [0, 1, 2, 3, 4]


def test_slot_offset_rotates_cells_at_different_rates():
    serving = np.array([0, 0, 1, 1])
    base = ul_slot_assignments(serving, offset=0).tolist()
    moved = ul_slot_assignments(serving, offset=1).tolist()
    # equally loaded cells must not stay in lockstep: the co-block pairing
    # changes between scheduling intervals
    pairs_base = {tuple(sorted(i for i, s in enumerate(base) if s == key)) for key in set(base)}
    pairs_moved = {tuple(sorted(i for i, s in enumerate(moved) if s == key)) for key in set(moved)}
    assert pairs_base != pairs_moved


def _loop_slots(serving, offset):
    """The slot rule as a per-terminal loop: the reference for the array version."""
    slots = np.empty(len(serving), dtype=int)
    for cell in np.unique(serving):
        members = np.flatnonzero(serving == cell)
        for rank, t in enumerate(members):
            slots[t] = (rank + offset * (int(cell) + 1)) % len(members)
    return slots


@settings(max_examples=60, deadline=None)
@given(serving=st.lists(st.integers(0, 6), min_size=1, max_size=40),
       offset=st.integers(0, 500))
def test_slots_permute_each_cell_and_rotate_with_the_offset(serving, offset):
    serving = np.array(serving)
    slots = ul_slot_assignments(serving, offset=offset)
    assert_array_equal(slots, _loop_slots(serving, offset))
    moved = ul_slot_assignments(serving, offset=offset + 1)
    for cell in np.unique(serving):
        members = serving == cell
        load = int(members.sum())
        # each cell's slots are a permutation of range(load) ...
        assert sorted(slots[members].tolist()) == list(range(load))
        # ... and one more pointer step shifts them by cell + 1
        assert_array_equal(moved[members], (slots[members] + cell + 1) % load)


def _shared_key_pairs(keys):
    """Ordered pairs of terminals that share a key: the co-block term count."""
    return sum(g * (g - 1) for g in Counter(keys.tolist()).values())


@settings(max_examples=60, deadline=None)
@given(serving=st.lists(st.integers(0, 6), min_size=1, max_size=40),
       offset=st.integers(0, 500), intervals=st.integers(1, 12))
def test_slot_keys_of_many_intervals_match_one_call_per_interval(serving, offset, intervals):
    serving = np.array(serving)
    width = np.bincount(serving).max()
    keys = ul_slot_assignments(serving, offset, intervals)
    assert keys.shape == (intervals * serving.size,)
    single = [ul_slot_assignments(serving, offset + j) for j in range(intervals)]
    for j, row in enumerate(keys.reshape(intervals, serving.size)):
        assert_array_equal(row - j * width, single[j])
    # keys of different intervals never meet, so shared keys count exactly
    # the co-slot pairs of each interval
    assert _shared_key_pairs(keys) == sum(_shared_key_pairs(s) for s in single)


@pytest.mark.parametrize("preset, n_calls", [("multi-steering-omni-bp", 12),
                                             ("multi-selection-cpe-rg", 12),
                                             ("single-cell-bp", 0)])
def test_campaign_schedules_each_position_in_one_slot_call(preset, n_calls, monkeypatch):
    calls = []
    slots = simulation.ul_slot_assignments
    monkeypatch.setattr(simulation, "ul_slot_assignments",
                        lambda *args: calls.append(args) or slots(*args))
    run_campaign(preset_config(preset))
    # one call per position with more than one active cell, covering all
    # of its sub-intervals
    assert len(calls) == n_calls
    assert all(intervals > 1 for _, _, intervals in calls)


@st.composite
def _serving_with_an_empty_beam(draw):
    """Serving beams of 2-30 terminals: two to six of seven beams, so one is empty."""
    active = draw(st.lists(st.integers(0, 6), min_size=2, max_size=6, unique=True))
    serving = draw(st.lists(st.sampled_from(active), min_size=2, max_size=30)
                   .filter(lambda s: len(set(s)) > 1))
    return np.array(serving)


@settings(max_examples=40, deadline=None)
@given(serving=_serving_with_an_empty_beam(), offset=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1))
@example(serving=np.array([4, 0, 4, 2, 0, 2, 6]), offset=0, seed=0)
def test_coblock_interference_matches_the_loop_sum(serving, offset, seed):
    n = serving.size
    rng = np.random.default_rng(seed)
    ul_rx_dbm = rng.uniform(-130.0, -60.0, n)
    gains = rng.uniform(-20.0, 30.0, (7, n))
    counts = np.bincount(serving, minlength=7)
    power = 10.0 ** ((ul_rx_dbm + gains) / 10.0)
    got = _coblock_interference(serving, counts, power, offset)
    assert got.shape == (counts.max(), n)
    # the powers the kernel is given, so only the summation is compared:
    # each terminal's interferers are added in beam order, starting from zero
    # (a beam holds a slot once, so terminals sorted by beam are in beam order)
    by_beam = np.argsort(serving, kind="stable")
    for j, row in enumerate(got):
        slots = ul_slot_assignments(serving, offset=offset + j)
        want = np.zeros(n)
        for t in range(n):
            for m in by_beam:
                if m != t and slots[m] == slots[t]:
                    want[t] += power[serving[t], m]
        assert_array_equal(row, want)


# ----------------------------------------------------------------------
# Campaign plumbing

def test_campaign_looks_up_all_positions_in_one_clamped_lookup(tmp_path, caplog, monkeypatch):
    # bins at 85 and 90 degrees: nearly every elevation lies below the table
    table = tmp_path / "steep.csv"
    table.write_text("85, 0.9, 4.0, 6.0, 20.0\n90, 0.9, 4.0, 6.0, 20.0\n")
    calls = []
    lookup = NtnTables.bin_indices
    monkeypatch.setattr(NtnTables, "bin_indices",
                        lambda self, elev: calls.append(np.shape(elev)) or lookup(self, elev))
    cfg = ScenarioConfig(ntn_table_path=str(table), los_assignment="probabilistic")
    with caplog.at_level("WARNING", logger="hapsim.channel"):
        run_campaign(cfg)
    # one lookup for the drop, one for all 12 positions of the campaign
    assert calls == [(20,), (12, 20)]
    assert len(caplog.records) == 2
    assert int(caplog.records[1].getMessage().split()[0]) > 20


def test_campaign_report_consistent_with_arrays():
    res = run_campaign(ScenarioConfig())
    assert res.dl_se.shape == (20,)
    lines = format_report(res, "custom").splitlines()
    assert "terminals = 20" in lines
    assert "los_terminals = 17" in lines
    assert res.dl == aggregate_se(res.dl_se)
    assert res.ul == aggregate_se(res.ul_se)


def test_campaign_architectures_match_under_default_switches():
    bp = run_campaign(ScenarioConfig(architecture="bp"))
    rg = run_campaign(ScenarioConfig(architecture="rg"))
    assert_array_equal(bp.dl_se, rg.dl_se)
    assert_array_equal(bp.ul_se, rg.ul_se)


@pytest.mark.parametrize("key, value", [
    ("workers", 4),
    ("panel_polarizations", 1),
    ("platform_speed_kmh", 75.0),
])
def test_campaign_inert_key_does_not_change_results(key, value):
    base = run_campaign(ScenarioConfig(layout="seven_cell"))
    changed = run_campaign(ScenarioConfig(layout="seven_cell", **{key: value}))
    assert_array_equal(base.dl_se, changed.dl_se)
    assert_array_equal(base.ul_se, changed.ul_se)
    assert_array_equal(base.serving_cell, changed.serving_cell)


def test_campaign_user_rows_align_with_arrays():
    res = run_campaign(ScenarioConfig())
    rows = res.user_rows()
    assert len(rows) == 20
    for row, term in zip(rows, res.terminals):
        assert row["terminal_id"] == term.terminal_id
        assert row["outage"] == (row["dl_se"] == 0.0 or row["ul_se"] == 0.0)
        assert_allclose(row["dl_se"], res.dl_se[term.terminal_id], rtol=1e-15)


def test_campaign_seed_changes_the_drop():
    a = run_campaign(ScenarioConfig(seed=1))
    b = run_campaign(ScenarioConfig(seed=2))
    assert not np.array_equal(a.dl_se, b.dl_se)


_configs = st.builds(
    ScenarioConfig,
    architecture=st.sampled_from(["bp", "rg"]),
    layout=st.sampled_from(["single", "seven_cell"]),
    terminal_kind=st.sampled_from(["ue_omni", "cpe_directional"]),
    attachment_mode=st.sampled_from(["beam_steering", "beam_selection"]),
    los_assignment=st.sampled_from(["fixed_counts", "probabilistic"]),
    bp_feeder_chain=st.sampled_from(["compensated", "explicit"]),
    bp_ul_noise=st.sampled_from(["matched", "cascade"]),
    bp_repeater_noise_at_ue=st.booleans(),
    repeater_output_limit=st.booleans(),
    seed=st.integers(0, 2**16),
    terminal_count=st.integers(1, 24),
    target_los_count=st.none() | st.integers(0, 24),
    cell_radius_m=st.none() | st.floats(500.0, 300_000.0),
    altitude_m=st.floats(1_000.0, 50_000.0),
    flight_position_count=st.sampled_from([1, 3, 4, 6, 12, 24]),
    dl_bandwidth_hz=st.floats(1e5, 1e8),
    ul_allocation_hz=st.floats(1e4, 1e6),
    panel_tx_power_dbm=st.floats(-20.0, 80.0),
    ue_tx_power_dbm=st.floats(-20.0, 40.0),
).map(lambda c: dataclasses.replace(
    c, flight_angular_step_deg=360.0 / c.flight_position_count))


@settings(max_examples=60, deadline=None)
@given(cfg=_configs)
# a lone terminal at the DL cap: its bandwidth-weighted mean once came out
# one ulp above the cap
@example(cfg=ScenarioConfig(layout="seven_cell", terminal_count=1,
                            los_assignment="probabilistic", flight_position_count=1,
                            flight_angular_step_deg=360.0, dl_bandwidth_hz=192723.0,
                            ul_allocation_hz=1e4))
def test_accepted_config_runs_to_bounded_se_or_a_hapsim_error(cfg):
    try:
        cfg.validate()
    except ValidationError:
        assume(False)
    try:
        result = run_campaign(cfg)
    except HapsimError as exc:
        # validate() owns the LOS target's range; the drop never finds it broken
        assert "outside [0," not in str(exc)
        return
    for se, se_max in ((result.dl_se, cfg.dl_se_max), (result.ul_se, cfg.ul_se_max)):
        assert np.all(np.isfinite(se))
        assert np.all((se >= 0.0) & (se <= se_max))


# every power and gain key at its upper end, the carriers and altitude at their lower ends
_LOUDEST = dict(architecture="bp", bp_feeder_chain="explicit", bp_repeater_noise_at_ue=True, bp_ul_noise="cascade",
                gateway_tx_power_dbm=300.0, gateway_antenna_gain_dbi=300.0, repeater_gain_db=300.0,
                panel_tx_power_dbm=300.0, ue_tx_power_dbm=300.0, terminal_kind="cpe_directional",
                cpe_gain_dbi=300.0, array_element_gain_dbi=300.0, single_antenna_gain_dbi=300.0,
                dl_carrier_hz=1.0, ul_carrier_hz=1.0, feeder_carrier_hz=1.0, gateway_distance_m=1.0,
                altitude_m=1.0, los_assignment="probabilistic")


@pytest.mark.parametrize("layout", ["single", "seven_cell"])
@pytest.mark.parametrize("clutter_db", [-300.0, 300.0])
def test_a_table_at_its_ends_runs_to_bounded_se_beside_the_keys_at_theirs(tmp_path, layout, clutter_db):
    table = tmp_path / "table.csv"
    table.write_text(f"10,0.5,100,100,{clutter_db}\n90,0.5,100,100,{clutter_db}\n")
    cfg = ScenarioConfig(**_LOUDEST, layout=layout, ntn_table_path=str(table))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow in the link budget's exp fails
        result = run_campaign(cfg)
    for se, se_max in ((result.dl_se, cfg.dl_se_max), (result.ul_se, cfg.ul_se_max)):
        assert np.all((se >= 0.0) & (se <= se_max))


def test_campaign_rejects_invalid_config():
    with pytest.raises(Exception):
        run_campaign(ScenarioConfig(architecture="mesh"))


# ----------------------------------------------------------------------
# Bent-pipe link-budget switches, campaign-wide

BP_LAYOUTS = ["single-cell-bp", "multi-selection-cpe-bp"]


def _bp(preset, **changes):
    return run_campaign(dataclasses.replace(preset_config(preset), **changes))


@pytest.mark.parametrize("preset", BP_LAYOUTS)
def test_cascade_uplink_noise_is_the_matched_floor_at_the_cascade_figure(preset):
    cascade = _bp(preset, bp_ul_noise="cascade")
    matched = _bp(preset, bs_noise_figure_db=bp_uplink_noise_figure(105.0, 7.0, 3.0))
    assert_array_equal(cascade.ul_se, matched.ul_se)
    assert_array_equal(cascade.dl_se, matched.dl_se)


# 50 dBm at the gateway leaves more than 43 dBm at every repeater output
EXPLICIT = dict(bp_feeder_chain="explicit", gateway_tx_power_dbm=50.0, repeater_max_output_dbm=43.0)


@pytest.mark.parametrize("preset", BP_LAYOUTS)
def test_explicit_feeder_chain_clamped_to_the_panel_power_is_the_compensated_chain(preset):
    compensated = _bp(preset)
    assert preset_config(preset).panel_tx_power_dbm == 43.0
    clamped = _bp(preset, repeater_output_limit=True, **EXPLICIT)
    assert_array_equal(clamped.dl_se, compensated.dl_se)
    assert_array_equal(clamped.ul_se, compensated.ul_se)
    unclamped = _bp(preset, repeater_output_limit=False, **EXPLICIT)
    assert not np.array_equal(unclamped.dl_se, compensated.dl_se)


@pytest.mark.parametrize("preset", ["single-cell-rg", "multi-selection-cpe-rg"])
def test_regenerative_payload_ignores_every_bent_pipe_switch(preset):
    plain = _bp(preset)
    switched = _bp(preset, bp_ul_noise="cascade", bp_repeater_noise_at_ue=True,
                   repeater_output_limit=True, **EXPLICIT)
    assert_array_equal(switched.dl_se, plain.dl_se)
    assert_array_equal(switched.ul_se, plain.ul_se)
    assert_array_equal(switched.serving_cell, plain.serving_cell)


# every key that only the uplink reads, with another value; the presets' matched UL noise never
# reads the gateway's noise figure, nor a regenerative payload the bent pipe's UL noise switch
UL_KEYS = {"ue_tx_power_dbm": 26.0, "bs_noise_figure_db": 3.0, "ul_carrier_hz": 2.0e9, "ul_allocation_hz": 5e5,
           "ul_se_attenuation": 0.5, "ul_sinr_min_db": -5.0, "ul_se_max": 1.5, "bp_ul_noise": "cascade",
           "gateway_noise_figure_db": 6.0}


@pytest.mark.parametrize("preset", preset_names())
def test_an_uplink_key_leaves_the_downlink_and_the_serving_cells_bit_identical(preset):
    base = run_campaign(preset_config(preset))
    moved = set()
    for key, value in UL_KEYS.items():
        changed = run_campaign(dataclasses.replace(preset_config(preset), **{key: value}))
        assert changed.dl_se.tobytes() == base.dl_se.tobytes(), key
        assert changed.serving_cell.tobytes() == base.serving_cell.tobytes(), key
        if changed.ul_se.tobytes() != base.ul_se.tobytes():
            moved.add(key)
    inert = {"gateway_noise_figure_db", "bp_ul_noise"} if preset.endswith("-rg") else {"gateway_noise_figure_db"}
    assert moved == UL_KEYS.keys() - inert


# every key that only the downlink reads, with another value (the bandwidth raised, so the UL
# allocation still fits); a regenerative payload never reads the bent pipe's repeater-noise switch
DL_KEYS = {"ue_noise_figure_db": 10.0, "dl_se_attenuation": 0.5, "dl_sinr_min_db": 0.0, "dl_se_max": 2.0,
           "dl_bandwidth_hz": 40e6, "bp_repeater_noise_at_ue": True}
# the DL budget also picks a selected beam; a steered beam (the single-cell presets' too) serves its
# own cell whatever the budget reads
DL_BUDGET_KEYS = {"panel_tx_power_dbm": 40.0, "dl_carrier_hz": 2.6e9}


@pytest.mark.parametrize("preset", preset_names())
def test_a_downlink_key_leaves_the_uplink_and_the_serving_cells_bit_identical(preset):
    cfg = preset_config(preset)
    base = run_campaign(cfg)
    keys = {**DL_KEYS, **DL_BUDGET_KEYS} if cfg.attachment_mode == "beam_steering" else DL_KEYS
    moved = set()
    for key, value in keys.items():
        changed = run_campaign(dataclasses.replace(cfg, **{key: value}))
        assert changed.ul_se.tobytes() == base.ul_se.tobytes(), key
        assert changed.serving_cell.tobytes() == base.serving_cell.tobytes(), key
        if changed.dl_se.tobytes() != base.dl_se.tobytes():
            moved.add(key)
    assert moved == keys.keys() - ({"bp_repeater_noise_at_ue"} if preset.endswith("-rg") else set())


# steps that can only help a link: (key, step, the SE they move, the keys of a scenario that reads the key)
HELPING_STEPS = [
    ("panel_tx_power_dbm", 3.0, {"dl_se"}, {}),
    ("ue_noise_figure_db", -2.0, {"dl_se"}, {}),
    ("ue_tx_power_dbm", 3.0, {"ul_se"}, {}),
    ("bs_noise_figure_db", -2.0, {"ul_se"}, {}),
    ("single_antenna_gain_dbi", 3.0, {"dl_se", "ul_se"}, {"layout": "single"}),
    ("array_element_gain_dbi", 3.0, {"dl_se", "ul_se"}, {"layout": "seven_cell"}),
    ("cpe_gain_dbi", 3.0, {"dl_se", "ul_se"}, {"terminal_kind": "cpe_directional"}),
]


@pytest.mark.parametrize("preset", preset_names())
def test_more_power_or_gain_or_less_noise_never_lowers_a_users_se(preset):
    cfg = preset_config(preset)  # seed 1
    base = run_campaign(cfg)
    for key, step, moves, reader in HELPING_STEPS:
        changed = run_campaign(dataclasses.replace(cfg, **{key: getattr(cfg, key) + step}))
        moved = set()
        for se in ("dl_se", "ul_se"):
            after, before = getattr(changed, se), getattr(base, se)
            assert (after >= before).all(), (key, se, np.flatnonzero(after < before))
            if after.tobytes() != before.tobytes():
                moved.add(se)
        reads = all(getattr(cfg, k) == v for k, v in reader.items())
        assert moved == (moves if reads else set()), key


# ----------------------------------------------------------------------
# Differential check against the benchmark's independent oracle

@pytest.fixture(scope="module")
def oracle():
    """``perfbench/oracle.py``: the model re-derived with its own complex-sum array factor."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


ORACLE_SEEDS = (1, 2, 3)


@pytest.mark.parametrize("preset", preset_names())
def test_campaign_agrees_with_the_independent_oracle(oracle, tmp_path, preset):
    table = oracle.read_table(Path(hapsim.__file__).parent / "data" / "ntn_rural_s_band.csv")
    for seed in ORACLE_SEEDS:
        out = tmp_path / str(seed)
        assert main(["run", "--preset", preset, "--seed", str(seed), "--out", str(out)]) == 0
        cfg = dataclasses.replace(preset_config(preset), seed=seed)
        drop = oracle.replay_drop(cfg, table)
        sample = np.arange(0, drop.x.size, 17)
        model = oracle.campaign_model(cfg, drop, table, sample)
        users = oracle.read_csv_rows(out / "users.csv")
        report = (out / "report.txt").read_text()
        assert oracle.check_campaign(cfg, drop, model, sample, users, report) == [], seed


@pytest.mark.parametrize("preset", preset_names())
def test_consumption_agrees_with_the_independent_oracle(oracle, tmp_path, preset, capsys):
    table = oracle.read_table(Path(hapsim.__file__).parent / "data" / "ntn_rural_s_band.csv")
    for seed in ORACLE_SEEDS:
        out = tmp_path / str(seed)
        assert main(["consumption", "--preset", preset, "--seed", str(seed), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        cfg = dataclasses.replace(preset_config(preset), seed=seed)
        drop = oracle.replay_drop(cfg, table)
        rows = oracle.read_csv_rows(out / "consumption.csv")
        assert oracle.check_consumption(cfg, drop, rows, stdout) == [], seed
