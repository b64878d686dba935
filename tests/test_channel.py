"""Free-space loss and the elevation-binned non-terrestrial channel."""

import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hapsim
from hapsim.channel import (
    C_LIGHT,
    NtnTables,
    feeder_loss,
    fspl,
)
from hapsim.errors import ConfigError, DomainError
from hapsim.geometry import Point3
from hapsim.simulation import drop_terminals

OVERHEAD = Point3(0.0, 0.0, 20000.0)


def _row_of(tables, elevation_deg):
    """A one-bin table holding the default table's row at ``elevation_deg``."""
    i = tables.bin_index(elevation_deg)
    return NtnTables(*(column[i:i + 1] for column in tables))


def test_fspl_reference_values():
    assert_allclose(fspl(3.65e9, 50_000.0), 137.673, atol=5e-4)
    assert_allclose(fspl(2.1e9, 20_000.0), 124.91, atol=5e-3)


def test_fspl_doubling_distance_adds_6dB():
    base = fspl(2.1e9, 10_000.0)
    assert_allclose(fspl(2.1e9, 20_000.0) - base, 20.0 * math.log10(2.0), rtol=1e-12)
    assert_allclose(fspl(4.2e9, 10_000.0) - base, 20.0 * math.log10(2.0), rtol=1e-12)


def test_fspl_vectorised():
    d = np.array([1e3, 1e4, 1e5])
    out = fspl(2.1e9, d)
    assert out.shape == (3,)
    assert_allclose(np.diff(out), 20.0, atol=1e-12)


def test_fspl_rejects_nonpositive():
    with pytest.raises(DomainError):
        fspl(0.0, 1000.0)
    with pytest.raises(DomainError):
        fspl(2.1e9, -5.0)
    with pytest.raises(DomainError):
        fspl(2.1e9, np.array([100.0, 0.0]))
    with pytest.raises(DomainError):
        fspl(math.nan, 1000.0)
    with pytest.raises(DomainError):
        fspl(2.1e9, np.array([100.0, np.nan]))


def test_default_table_shape_and_values():
    t = NtnTables.default()
    assert_allclose(t.elevation_deg, np.arange(10.0, 100.0, 10.0))
    assert_allclose(t.los_probability[0], 0.782)
    assert_allclose(t.los_probability[-1], 0.998)
    assert_allclose(t.shadow_std_los_db[3], 0.92)
    assert_allclose(t.shadow_std_nlos_db[0], 8.93)
    assert_allclose(t.clutter_loss_nlos_db[1], 18.17)


def test_bin_index_picks_nearest():
    t = NtnTables.default()
    assert t.bin_index(10.0) == 0
    assert t.bin_index(14.9) == 0
    assert t.bin_index(15.1) == 1
    assert t.bin_index(90.0) == 8
    assert t.bin_index(44.0) == 3


def test_bin_index_clamps_and_warns(caplog):
    t = NtnTables.default()
    with caplog.at_level(logging.WARNING, logger="hapsim.channel"):
        assert t.bin_index(2.0) == 0
    assert any("clamped" in rec.message for rec in caplog.records)


def test_bin_indices_match_the_scalar_lookup_and_warn_once(caplog):
    t = NtnTables.default()
    elev = np.array([2.0, 10.0, 14.9, 15.0, 15.1, 44.0, 45.0, 90.0, 97.0])
    expected = [t.bin_index(e) for e in elev]
    assert expected == [0, 0, 0, 0, 1, 3, 3, 8, 8]  # ties take the lower bin
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="hapsim.channel"):
        assert t.bin_indices(elev).tolist() == expected
    assert [r.getMessage()[:15] for r in caplog.records] == ["2 elevation(s) "]


def test_non_uniform_table_clamps_only_beyond_its_edges(caplog):
    # edge spacings 10 (below) and 50 (above); inner bins are 20 and 50 apart
    t = NtnTables(np.array([10.0, 20.0, 40.0, 90.0]), *[np.full(4, 0.5)] * 4)
    with caplog.at_level(logging.WARNING, logger="hapsim.channel"):
        assert t.bin_indices([65.0, 30.0, 5.0, 115.0]).tolist() == [2, 1, 0, 3]
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="hapsim.channel"):
        assert t.bin_indices([4.9, 115.1, 65.0]).tolist() == [0, 3, 2]
    assert [r.getMessage() for r in caplog.records] == [
        "2 elevation(s) outside channel table range [10, 90] deg, clamped to the nearest bin"]


def test_default_table_is_parsed_once_and_read_only():
    t = NtnTables.default()
    assert NtnTables.default() is t
    with pytest.raises(ValueError):
        t.los_probability[0] = 0.5
    with pytest.raises(ValueError):
        t.elevation_deg += 1.0


def test_every_table_is_read_only_and_leaves_the_callers_arrays_writable(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("10,0.5,1.0,4.0,20.0\n20,0.9,1.0,4.0,18.0\n")
    columns = [np.array(values) for values in _columns().values()]
    built = NtnTables(*columns)
    for t in (NtnTables.from_file(p), built, built._replace(los_probability=[0.4, 0.8])):
        assert not any(column.flags.writeable for column in t)
        with pytest.raises(ValueError):
            t.los_probability[0] = 0.5
    assert all(column.flags.writeable for column in columns)
    columns[1][0] = 0.25  # a copy was frozen, not the caller's array
    assert built.los_probability[0] == 0.5


def test_a_renamed_copy_of_the_package_reads_its_own_bundled_table(tmp_path):
    copy = tmp_path / "hapsim_copy"
    shutil.copytree(Path(hapsim.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    table = copy / "data" / "ntn_rural_s_band.csv"
    table.write_text(table.read_text().replace("10,0.782,", "10,0.700,"))
    # the original stays importable too, so a lookup by its absolute name would find its table
    path = [str(tmp_path), str(Path(hapsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "from hapsim_copy.channel import NtnTables; print(NtnTables.default().los_probability[0])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.7\n"


def test_in_range_lookup_does_not_warn(caplog):
    t = NtnTables.default()
    with caplog.at_level(logging.WARNING, logger="hapsim.channel"):
        t.bin_index(52.0)
    assert not caplog.records


def test_table_from_file_skips_comments_and_header(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text(
        "# a comment\n"
        "\n"
        "elevation_deg,los_probability,s_los,s_nlos,clutter\n"
        "10, 0.5, 1.0, 8.0, 19.0\n"
        "20  0.9  1.0  8.0  18.0\n"
    )
    t = NtnTables.from_file(p)
    assert_allclose(t.elevation_deg, [10.0, 20.0])
    assert_allclose(t.los_probability, [0.5, 0.9])


def test_table_from_file_reports_bad_row_with_line_number(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("10,0.5,1.0,8.0\n")
    with pytest.raises(ConfigError, match=r"expected 5 fields"):
        NtnTables.from_file(p)
    p.write_text("# only comments\n")
    with pytest.raises(ConfigError, match="no data rows"):
        NtnTables.from_file(p)
    # a typo in the first row of a table without a header is not a header
    p.write_text("x10,0.5,1.0,8.0,19.0\n20,0.9,1.0,8.0,18.0\n")
    with pytest.raises(ConfigError, match=r"line 1: elevation_deg: must be a finite number; got 'x10'"):
        NtnTables.from_file(p)


def test_a_table_with_a_byte_order_mark_and_no_header_loads_the_same_columns(tmp_path):
    bundled = (Path(hapsim.__file__).parent / "data" / "ntn_rural_s_band.csv").read_text()
    rows = "".join(line + "\n" for line in bundled.splitlines() if line[:1].isdigit())
    p = tmp_path / "table.csv"
    p.write_bytes(b"\xef\xbb\xbf" + rows.encode())
    assert all(map(np.array_equal, NtnTables.from_file(p), NtnTables.default()))
    p.write_bytes(b"\xef\xbb\xbf" + rows.encode() + b"# \xb0\n")
    with pytest.raises(ConfigError, match=rf"table\.csv, line {rows.count(chr(10)) + 1}: not valid UTF-8 \(byte 0xb0\)$"):
        NtnTables.from_file(p)


def test_table_from_file_reads_utf8_and_names_the_line_of_a_bad_byte(tmp_path):
    p = tmp_path / "table.csv"
    p.write_bytes("# Elevation in °\n10,0.5,1.0,8.0,19.0\n".encode("utf-8"))
    assert_allclose(NtnTables.from_file(p).elevation_deg, [10.0])
    p.write_bytes(b"# Elevation in \xb0\n10,0.5,1.0,8.0,19.0\n")
    with pytest.raises(ConfigError, match=r"table\.csv, line 1: not valid UTF-8 \(byte 0xb0\)$"):
        NtnTables.from_file(p)


def test_table_validation():
    ele = np.array([10.0, 20.0])
    ones = np.ones(2)
    with pytest.raises(ConfigError):
        NtnTables(np.array([20.0, 10.0]), 0.5 * ones, ones, ones, ones)
    for p_los in ([0.5, 1.5], [-0.1, 0.5]):
        with pytest.raises(ConfigError, match=r"^channel table column los_probability must lie in \[0, 1\]; got "):
            NtnTables(ele, np.array(p_los), ones, ones, ones)
    with pytest.raises(ConfigError):
        NtnTables(ele, 0.5 * ones, ones[:1], ones, ones)


def _columns() -> dict[str, list[float]]:
    return {"elevation_deg": [10.0, 20.0], "los_probability": [0.5, 0.9],
            "shadow_std_los_db": [1.0, 1.0], "shadow_std_nlos_db": [4.0, 4.0],
            "clutter_loss_nlos_db": [20.0, 18.0]}


COLUMN_ENDS = {"elevation_deg": "must lie in [-90, 90] degrees", "los_probability": "must lie in [0, 1]",
               "shadow_std_los_db": "must lie in [0, 100] dB", "shadow_std_nlos_db": "must lie in [0, 100] dB",
               "clutter_loss_nlos_db": "must lie in [-300, 300] dB"}


# NaN and +-inf fail a column's ends, the elevations' before their order is checked
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", NtnTables._fields)
def test_direct_construction_rejects_non_finite_values(column, bad):
    values = _columns()
    values[column][1] = bad
    with pytest.raises(ConfigError) as err:
        NtnTables(**values)
    assert str(err.value) == f"channel table column {column} {COLUMN_ENDS[column]}; got {bad}"


# the sigmas and the clutter loss enter the link budget's exp: beyond these ends it can overflow
@pytest.mark.parametrize("column, bad, message", [
    ("shadow_std_los_db", -1.0, "must lie in [0, 100] dB; got -1.0"),
    ("shadow_std_nlos_db", -1.0, "must lie in [0, 100] dB; got -1.0"),
    ("shadow_std_los_db", 1e5, "must lie in [0, 100] dB; got 100000.0"),
    ("shadow_std_nlos_db", 100.5, "must lie in [0, 100] dB; got 100.5"),
    ("clutter_loss_nlos_db", -5000.0, "must lie in [-300, 300] dB; got -5000.0"),
    ("clutter_loss_nlos_db", 300.5, "must lie in [-300, 300] dB; got 300.5"),
    ("elevation_deg", -95.0, "must lie in [-90, 90] degrees; got -95.0"),
])
def test_direct_construction_rejects_a_value_beyond_its_column_ends(column, bad, message):
    values = _columns()
    values[column][0] = bad
    with pytest.raises(ConfigError) as err:
        NtnTables(**values)
    assert str(err.value) == f"channel table column {column} {message}"


def test_direct_construction_takes_the_column_ends():
    t = NtnTables([-90.0, 90.0], [0.0, 1.0], [0.0, 100.0], [100.0, 0.0], [-300.0, 300.0])
    assert t.clutter_loss_nlos_db.tolist() == [-300.0, 300.0]


def test_a_negative_zero_is_held_as_zero(tmp_path):
    # numpy's normal takes no scale with its sign bit set: a -0.0 sigma once ended the drop in a ValueError
    p = tmp_path / "table.csv"
    p.write_text("10,-0.0,-0.0,-0,-0.0\n")
    t = NtnTables.from_file(p)
    assert not np.signbit(np.concatenate(t)).any()
    drop = drop_terminals(20, 1000.0, "ue_omni", t, np.random.default_rng(0), OVERHEAD)
    assert not any(drop.los) and all(drop.shadow_db == 0.0)


def test_an_elevation_beyond_its_ends_names_its_line(tmp_path):
    # the edge bin's spacing, halved and added to the last bin, once overflowed
    p = tmp_path / "table.csv"
    p.write_text("10,0.5,1.0,8.0,19.0\n1.7976931348623157e308,0.5,1.0,8.0,19.0\n")
    with pytest.raises(ConfigError, match=r"line 2: elevation_deg: must lie in \[-90, 90\] degrees; got 1\.797"):
        NtnTables.from_file(p)


def test_direct_construction_rejects_a_table_without_rows():
    with pytest.raises(ConfigError, match="^channel table has no rows$"):
        NtnTables(*[[]] * len(NtnTables._fields))


def test_assign_los_follows_bin_probability():
    t = NtnTables.default()
    # a 100 m disc under the platform sits in the 90-degree bin
    terms = drop_terminals(4000, 100.0, "ue_omni", t, np.random.default_rng(0), OVERHEAD)
    assert abs(np.mean([term.los for term in terms]) - 0.998) < 0.01
    terms = drop_terminals(4000, 100.0, "ue_omni", _row_of(t, 10.0),
                           np.random.default_rng(0), OVERHEAD)
    assert abs(np.mean([term.los for term in terms]) - 0.782) < 0.02


def test_draw_shadow_uses_state_specific_sigma():
    t = _row_of(NtnTables.default(), 10.0)
    terms = drop_terminals(8000, 100.0, "ue_omni", t, np.random.default_rng(1), OVERHEAD)
    los = np.array([term.los for term in terms])
    shadow = np.array([term.shadow_db for term in terms])
    assert abs(shadow[los].std() - 1.79) < 0.1
    assert abs(shadow[~los].std() - 8.93) < 0.4
    assert abs(shadow[los].mean()) < 0.1


def test_feeder_loss_reference_values():
    gateway = Point3(45_000.0, 0.0, 0.0)
    # closest approach of the flight circle: 42 km ground distance
    near = feeder_loss(gateway, Point3(3000.0, 0.0, 20000.0), 3.65e9)
    d_near = math.hypot(42_000.0, 20_000.0)
    assert_allclose(d_near, 46_518.81, atol=5e-3)
    assert_allclose(near, fspl(3.65e9, d_near), rtol=1e-12)
    assert_allclose(near, 137.0462, atol=5e-4)
    # farthest approach: 48 km ground distance
    far = feeder_loss(gateway, Point3(-3000.0, 0.0, 20000.0), 3.65e9)
    assert_allclose(far, fspl(3.65e9, math.hypot(48_000.0, 20_000.0)), rtol=1e-12)
    assert_allclose(far, 138.0137, atol=5e-4)
