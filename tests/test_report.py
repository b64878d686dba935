"""Artifact writers: per-user CSV, report text, CDF data."""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hapsim import report
from hapsim.cli import main
from hapsim.config import ScenarioConfig, preset_config, preset_names
from hapsim.consumption import RelayAssessment, haps_relay_assessment
from hapsim.geometry import Point3
from hapsim.report import (
    format_report,
    write_cdf,
    write_consumption_csv,
    write_report,
    write_users_csv,
)
from hapsim.simulation import USER_CSV_COLUMNS, run_campaign


@pytest.fixture(scope="module")
def result():
    return run_campaign(ScenarioConfig())


def test_users_csv_round_trip(tmp_path, result):
    p = tmp_path / "users.csv"
    rows = result.user_rows()
    write_users_csv(p, result)
    header, *lines = p.read_text().splitlines()
    back = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a["terminal_id"] == int(b["terminal_id"])
        assert a["kind"] == b["kind"]
        assert a["los"] == (b["los"] == "1")
        assert a["outage"] == (b["outage"] == "1")
        # repr round-trip keeps floats exact
        assert a["dl_se"] == float(b["dl_se"])
        assert a["x"] == float(b["x"])


def test_users_csv_header_and_order(tmp_path, result):
    p = tmp_path / "users.csv"
    write_users_csv(p, result)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(USER_CSV_COLUMNS)
    ids = [int(line.split(",")[0]) for line in lines[1:]]
    assert ids == list(range(20))


def test_users_csv_is_deterministic(tmp_path, result):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_users_csv(a, result)
    write_users_csv(b, result)
    assert a.read_bytes() == b.read_bytes()


def test_report_layout(result):
    text = format_report(result, scenario_name="single-cell-bp")
    lines = text.splitlines()
    assert lines[0] == "scenario = single-cell-bp"
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == [
        "scenario", "architecture", "layout", "attachment_mode",
        "terminal_kind", "seed", "terminals", "los_terminals",
        "dl_mean_se", "dl_cell_edge_se", "dl_outage_count",
        "ul_mean_se", "ul_cell_edge_se", "ul_outage_count",
    ]
    values = dict(line.split(" = ") for line in lines)
    assert values["terminals"] == "20"
    assert values["los_terminals"] == "17"
    assert_allclose(float(values["dl_mean_se"]), result.dl.mean_se, atol=1e-6)


def test_write_report(tmp_path, result):
    p = tmp_path / "report.txt"
    write_report(p, result, "custom")
    assert p.read_text() == format_report(result, "custom")


def _mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_artifact_modes_match_open_and_survive_a_rerun(tmp_path, umask):
    out = tmp_path / "out"
    names = ("users.csv", "report.txt", "cdf_dl.txt", "cdf_ul.txt", "consumption.csv")
    previous = os.umask(umask)
    try:
        with open(tmp_path / "reference.txt", "w"):
            pass
        for command in ("run", "consumption"):
            assert main([command, "--out", str(out)]) == 0
        created = {name: _mode(out / name) for name in names}
        for name in names:
            (out / name).chmod(0o640)
        for command in ("run", "consumption"):
            assert main([command, "--seed", "2", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert _mode(tmp_path / "reference.txt") == 0o666 & ~umask
    assert created == dict.fromkeys(names, _mode(tmp_path / "reference.txt"))
    assert {name: _mode(out / name) for name in names} == dict.fromkeys(names, 0o640)


def test_artifacts_open_in_binary_mode_where_the_os_has_one(tmp_path, monkeypatch):
    # On Windows a descriptor opened without O_BINARY would add a second "\r"
    # to every "\r\n" the text layer writes; stand in a flag bit to see it passed.
    fake_binary, seen, real_open = 0x40000000, [], os.open

    def recording_open(path, flags, mode=0o777):
        seen.append(flags)
        return real_open(path, flags & ~fake_binary, mode)

    monkeypatch.setattr(os, "O_BINARY", fake_binary, raising=False)
    monkeypatch.setattr(os, "open", recording_open)
    write_cdf(tmp_path / "cdf.txt", [1.0, 2.0], ["1.0", "2.0"])
    assert seen and all(flags & fake_binary for flags in seen)
    assert (tmp_path / "cdf.txt").read_bytes() == b"# se_bit_per_s_per_hz cumulative_fraction\n" \
        b"1.0 0.5\n2.0 1.0\n"


def test_short_writes_give_the_same_bytes(tmp_path, monkeypatch, capsys):
    # os.write may write less than it was given; each artifact must still be whole
    whole, short = tmp_path / "whole", tmp_path / "short"
    for command in ("run", "consumption"):
        assert main([command, "--out", str(whole)]) == 0
    real_write, calls = os.write, []

    def write_7(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", write_7)
    for command in ("run", "consumption"):
        assert main([command, "--out", str(short)]) == 0
    assert len(calls) > 5 * 100  # five artifacts of hundreds of bytes each
    artifacts = {out: {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 for out in (whole, short)}
    assert artifacts[short] == artifacts[whole]


def test_cdf_is_sorted_and_normalised(tmp_path):
    p = tmp_path / "cdf.txt"
    write_cdf(p, [2.0, 0.5, 1.0, 1.5], ["2.0", "0.5", "1.0", "1.5"])
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#")
    data = np.array([[float(tok) for tok in line.split()] for line in lines[1:]])
    assert_allclose(data[:, 0], [0.5, 1.0, 1.5, 2.0])
    assert_allclose(data[:, 1], [0.25, 0.5, 0.75, 1.0])
    assert data[-1, 1] == 1.0


def test_consumption_csv(tmp_path):
    rows = haps_relay_assessment(
        [20_000.0, 0.0], [0.0, 0.0],
        Point3(0.0, 0.0, 20_000.0), Point3(45_000.0, 0.0, 0.0),
        relay_rx_gain_db=105.0, sink_rx_gain_db=0.0,
        relay_efficiency=0.5, source_efficiency=0.5,
    )
    p = tmp_path / "consumption.csv"
    write_consumption_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(RelayAssessment._fields)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == rows.d1_m[0]
    assert first[5] in ("0", "1")


# ----------------------------------------------------------------------
# The column writers against the per-value formatter they replaced

def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_csv(header, rows) -> bytes:
    """CSV text formatted one value at a time: what the column writers must match."""
    lines = [",".join(header)]
    lines += [",".join(_reference_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _reference_cdf(values) -> bytes:
    """CDF text formatted one value at a time: what ``write_cdf`` must match."""
    ordered = np.sort(np.asarray(values, dtype=float))
    fraction = np.arange(1, ordered.size + 1) / ordered.size
    lines = ["# se_bit_per_s_per_hz cumulative_fraction"]
    lines += [f"{v!r} {f!r}" for v, f in zip(ordered.tolist(), fraction.tolist())]
    return ("\n".join(lines) + "\n").encode()


_DENSE_CPE = ("layout = seven_cell\nattachment_mode = beam_selection\n"
              "terminal_kind = cpe_directional\nterminal_count = 336\ntarget_los_count = 280\n")


@pytest.mark.parametrize("case", [*preset_names(), "dense-selection-cpe"])
def test_csv_writers_match_the_per_value_reference(tmp_path, monkeypatch, case):
    if case == "dense-selection-cpe":
        (tmp_path / "dense.cfg").write_text(_DENSE_CPE)
        source = ["--config", str(tmp_path / "dense.cfg")]
    else:
        source = ["--preset", case]
    written = {}  # writer name -> the result or assessment the CLI passed it

    def keep(name):
        writer = getattr(report, name)

        def wrapper(path, payload):
            written[name] = payload
            return writer(path, payload)
        monkeypatch.setattr(report, name, wrapper)

    keep("write_users_csv")
    keep("write_consumption_csv")
    out = tmp_path / "out"
    for command in ("run", "consumption"):
        assert main([command, *source, "--seed", "1", "--out", str(out)]) == 0

    result = written["write_users_csv"]
    users = ([row[c] for c in USER_CSV_COLUMNS] for row in result.user_rows())
    assert (out / "users.csv").read_bytes() == _reference_csv(USER_CSV_COLUMNS, users)
    for name, values in (("cdf_dl.txt", result.dl_se), ("cdf_ul.txt", result.ul_se)):
        assert (out / name).read_bytes() == _reference_cdf(values), name
    assessment = written["write_consumption_csv"]
    verdicts = zip(*(getattr(assessment, c).tolist() for c in RelayAssessment._fields))
    want = _reference_csv(RelayAssessment._fields, verdicts)
    assert (out / "consumption.csv").read_bytes() == want


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
_FLOATS = st.floats(allow_subnormal=True) | _SIGNED_ZEROS | st.sampled_from([5e-324, -5e-324])


def _column(n: int) -> st.SearchStrategy:
    """A column of ``n`` values, as an array or a list."""
    arrays = st.one_of(
        st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
        _FLOATS.map(lambda v: np.full(n, v)),  # one bit pattern
        st.lists(_SIGNED_ZEROS, min_size=n, max_size=n).map(np.array),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n).map(np.array),
    )
    return arrays | arrays.map(np.ndarray.tolist)


@st.composite
def _csv_columns(draw) -> dict:
    """Named columns, some of them the same object as an earlier one."""
    n = draw(st.integers(0, 6))
    columns = {}
    for i in range(draw(st.integers(1, 6))):
        if columns and draw(st.booleans()):
            columns[f"c{i}"] = columns[draw(st.sampled_from(sorted(columns)))]
        else:
            columns[f"c{i}"] = draw(_column(n))
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_csv_columns())
def test_any_columns_match_the_per_value_reference(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    report._write_csv(path, columns)
    rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
    assert path.read_bytes() == _reference_csv(columns, rows)


def _doubles() -> np.ndarray:
    """About 200k doubles: where ``str`` writes plain decimals, where it writes exponents, and both ends."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, 90_000, dtype=np.uint64, endpoint=False)
    anywhere = bits[:30_000].view(float)
    # random mantissas and signs under exponents of 2**-16 to 2**56, around both notation switches
    window = bits[30_000:] & np.uint64(0x800F_FFFF_FFFF_FFFF) | rng.integers(1007, 1080, 60_000).astype(np.uint64) << 52
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    # 1e-4 and 1e16 with their 16 nextafter neighbours on each side: one bit step each
    edges = (np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-16, 17)).view(float).ravel()
    values = np.concatenate([
        anywhere[np.isfinite(anywhere)], window.view(float), powers, -powers,
        np.arange(-3000.0, 3001.0), edges, -edges, [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf],
        rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-6, 18, 100_000),  # log-uniform
    ])
    return rng.permutation(values)


def test_column_text_is_str_on_a_corpus_of_doubles(monkeypatch):
    values = _doubles()
    want = list(map(str, values.tolist()))
    plain = np.flatnonzero([not ("e" in t or "n" in t or "0.0000" in t) for t in want])
    other = np.setdiff1d(np.arange(values.size), plain)
    assert plain.size > 100_000 and other.size > 50_000
    # each pair holds a value that str writes in another notation and a plain one: both as str writes them
    pairs = np.column_stack([other, plain[:other.size]])
    assert list(map(report._column_text, values[pairs])) == [[want[i], want[j]] for i, j in pairs.tolist()]
    ints = np.array([*range(-3000, 3001), np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    assert ints.dtype == np.int64
    # a byte-swapped or float32 column is written by its values, not by its raw bytes or float32 digits
    for other_dtype in (values[plain[:5000]].astype(">f8"), ints.astype(">i8"), np.float32([0.1, 2.5, 1e-3])):
        assert report._column_text(other_dtype) == list(map(str, other_dtype.tolist()))
    # the plain values take the one call, also through a strided view, and so do ints
    monkeypatch.setattr(report, "str", None, raising=False)  # a per-value fallback would fail
    assert report._column_text(values[plain]) == [want[i] for i in plain]
    strided = values[plain][::-3]
    assert not strided.flags.c_contiguous
    assert report._column_text(strided) == [want[i] for i in plain[::-3]]
    assert report._column_text(ints) == list(map(repr, ints.tolist()))
    assert report._column_text(np.empty(0)) == []


@pytest.mark.parametrize("k", [1, 2, 7, 300])
def test_only_the_values_in_another_notation_take_str(monkeypatch, k):
    values = np.random.default_rng(k).uniform(0.001, 9.0, 336)
    odd = np.random.default_rng(k).choice(values.size, k, replace=False)
    values[odd] = np.resize([7.07e-05, -3e-300, 2.5e16, np.nan, np.inf, 1e-5, -np.inf], k)
    want = list(map(str, values.tolist()))
    calls = []
    monkeypatch.setattr(report, "str", lambda v: calls.append(v) or str(v), raising=False)
    assert report._column_text(values) == want
    assert sorted(map(str, calls)) == sorted(want[i] for i in odd)  # one call each, k in all


# ----------------------------------------------------------------------
# One schema per CSV: the writers and the in-memory rows share their columns

@pytest.mark.parametrize("preset", ["single-cell-bp", "multi-selection-cpe-bp"])
def test_each_csv_has_one_schema(tmp_path, preset):
    for command in ("run", "consumption"):
        assert main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
    rows = run_campaign(preset_config(preset)).user_rows()
    header, *lines = (tmp_path / "users.csv").read_text().splitlines()
    assert header == ",".join(USER_CSV_COLUMNS)
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        assert tuple(row) == USER_CSV_COLUMNS
        assert {type(v) for v in row.values()} <= {int, float, str, bool}
        text = [("1" if v else "0") if type(v) is bool else str(v) for v in row.values()]
        assert ",".join(text) == line
    header = (tmp_path / "consumption.csv").read_text().splitlines()[0]
    assert header == ",".join(RelayAssessment._fields)
