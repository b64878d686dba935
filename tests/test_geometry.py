"""Flight-pattern sampling and link geometry."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hapsim.errors import ConfigError, DegenerateGeometryError
from hapsim.geometry import FlightPattern, Point3, haps_position, link_geometry

# the flight of the scenario keys' defaults
FLIGHT = FlightPattern(Point3(0.0, 0.0, 20_000.0), 6_000.0, 12, 30.0)


def test_point_below_ground_rejected():
    with pytest.raises(ConfigError):
        Point3(0.0, 0.0, -1.0)


def test_point_as_array():
    p = Point3(1.0, -2.0, 3.0)  # a tuple, so numpy reads it as one row
    assert_array_equal(np.asarray(p, dtype=float), [1.0, -2.0, 3.0])


def test_default_pattern_closes_the_circle():
    pat = FLIGHT
    assert pat.position_count * pat.angular_step_deg == 360.0
    assert pat.radius_m == 3000.0
    assert pat.center.z == 20000.0


def test_pattern_rejects_open_circle():
    with pytest.raises(ConfigError):
        FLIGHT._replace(angular_step_deg=25.0)


def test_positions_on_the_circle():
    pat = FLIGHT
    p0 = haps_position(pat, 0)
    p3 = haps_position(pat, 3)
    p6 = haps_position(pat, 6)
    assert_allclose(p0, [3000.0, 0.0, 20000.0], atol=1e-9)
    assert_allclose(p3, [0.0, 3000.0, 20000.0], atol=1e-9)
    assert_allclose(p6, [-3000.0, 0.0, 20000.0], atol=1e-9)


def test_position_index_bounds():
    pat = FLIGHT
    with pytest.raises(ConfigError):
        haps_position(pat, 12)
    with pytest.raises(ConfigError):
        haps_position(pat, -1)
    with pytest.raises(ConfigError, match=r"^run_index nan outside \[0, 12\)$"):
        haps_position(pat, math.nan)


@pytest.mark.parametrize("count", [1, 5, 12, 24, 360])
def test_an_index_array_gives_the_stacked_points_bit_for_bit(count):
    pat = FlightPattern(Point3(1234.5, -678.25, 19_500.0), 7_300.0, count, 360.0 / count)
    rows = haps_position(pat, np.arange(count))
    assert rows.shape == (count, 3) and rows.dtype == float
    stacked = np.array([haps_position(pat, k) for k in range(count)])
    assert_array_equal(rows.view(np.uint64), stacked.view(np.uint64))
    assert all(type(haps_position(pat, k)) is Point3 for k in (0, np.int64(count - 1)))


@pytest.mark.parametrize("runs", [[0, 12], [-1, 3], [5, 13, 2]])
def test_an_index_array_with_an_index_out_of_range_is_rejected(runs):
    with pytest.raises(ConfigError, match=r"^run_index -?\d+ outside \[0, 12\)$"):
        haps_position(FLIGHT, np.array(runs))


def test_all_positions_at_constant_radius():
    pat = FLIGHT
    for k in range(pat.position_count):
        p = haps_position(pat, k)
        assert_allclose(math.hypot(p.x, p.y), 3000.0)
        assert p.z == 20000.0


def test_nadir_link():
    elevation, slant = link_geometry(Point3(0, 0, 0), Point3(0, 0, 20000.0))
    assert_allclose(elevation, 90.0)
    assert_allclose(slant, 20000.0)


def test_45_degree_link():
    elevation, slant = link_geometry(Point3(20000.0, 0, 0), Point3(0, 0, 20000.0))
    assert_allclose(elevation, 45.0)
    assert_allclose(slant, 20000.0 * math.sqrt(2.0), rtol=1e-12)


def test_cell_edge_link():
    elevation, slant = link_geometry(Point3(60000.0, 0, 0), Point3(0, 0, 20000.0))
    assert_allclose(elevation, math.degrees(math.atan2(20.0, 60.0)), rtol=1e-12)
    assert_allclose(elevation, 18.4349, atol=5e-5)
    assert_allclose(slant, 63245.553, atol=5e-3)


def test_coincident_points_rejected():
    with pytest.raises(DegenerateGeometryError):
        link_geometry(Point3(5.0, 5.0, 5.0), Point3(5.0, 5.0, 5.0))


def test_coincident_pair_inside_an_array_rejected():
    a = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 20000.0], [5.0, 5.0, 5.0], [1.0, 0.0, 20000.0]])
    with pytest.raises(DegenerateGeometryError):
        link_geometry(a, b)
    with pytest.raises(DegenerateGeometryError):
        link_geometry(a, Point3(5.0, 5.0, 5.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_endpoint_is_rejected_as_such(bad):
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for end in (a.copy(), np.array([0.0, 0.0, 20000.0])):
        end.flat[0] = bad  # one coordinate of one point
        with pytest.raises(DegenerateGeometryError, match="^link endpoints must be finite$"):
            link_geometry(end, Point3(0.0, 0.0, 20000.0))
        with pytest.raises(DegenerateGeometryError, match="^link endpoints must be finite$"):
            link_geometry(a, end)


def test_two_points_give_floats_and_arrays_give_arrays():
    pair = link_geometry(Point3(0.0, 0.0, 0.0), Point3(1000.0, 0.0, 100.0))
    assert type(pair) is tuple and len(pair) == 2
    assert all(type(v) is float for v in pair)
    ground = np.zeros((4, 5, 3))
    platforms = np.array([[3000.0, 0.0, 20000.0], [0.0, 3000.0, 20000.0], [-3000.0, 0.0, 20000.0],
                          [0.0, -3000.0, 20000.0]])[:, None, :]
    elevation, slant = link_geometry(ground, platforms)
    assert elevation.shape == slant.shape == (4, 5)


coordinate = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
height = st.floats(min_value=0.0, max_value=3e4, allow_nan=False)
point = st.tuples(coordinate, coordinate, height)


def _apart(a, b):
    # a millimetre or more: closer points can square to zero, which is degenerate
    return math.dist(a, b) >= 1e-3


@given(pairs=st.lists(st.tuples(point, point), min_size=1, max_size=8))
def test_array_call_equals_scalar_calls_bit_for_bit(pairs):
    assume(all(_apart(a, b) for a, b in pairs))
    a = np.array([pa for pa, _ in pairs])
    b = np.array([pb for _, pb in pairs])
    elevation, slant = link_geometry(a, b)
    for i, (pa, pb) in enumerate(pairs):
        assert (elevation[i], slant[i]) == link_geometry(Point3(*pa), Point3(*pb))


@given(origin=point, targets=st.lists(point, min_size=1, max_size=8))
def test_point_broadcasts_against_an_array(origin, targets):
    assume(all(_apart(origin, t) for t in targets))
    pairs = link_geometry(Point3(*origin), np.array(targets))
    for i, values in enumerate(pairs):  # elevation, then slant range
        expected = [link_geometry(Point3(*origin), Point3(*t))[i] for t in targets]
        assert_array_equal(values, expected)


def test_link_geometry_randomised_invariants():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = Point3(*rng.uniform(-1e5, 1e5, 2), rng.uniform(0, 100))
        b = Point3(*rng.uniform(-1e5, 1e5, 2), rng.uniform(200, 3e4))
        elevation, slant = link_geometry(a, b)
        assert slant >= abs(b.z - a.z) - 1e-9
        assert -90.0 <= elevation <= 90.0
        # elevation is 90 degrees exactly when there is no horizontal offset
        horizontal = math.hypot(b.x - a.x, b.y - a.y)
        if elevation == 90.0:
            assert horizontal == 0.0
