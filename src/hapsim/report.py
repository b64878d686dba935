"""Campaign artifacts: per-user CSV, aggregate report, CDF data.

All writers emit deterministic bytes for identical inputs: fixed column
and row order (terminal id), shortest-round-trip floats, text formatted
one column at a time and written with one call.
Artifacts are overwritten in place and cut to length: truncating a written file on open
cost 66-245 us on ext4, against 7-36 us.  A failed write (the CLI exits 1) or a crash can
leave an artifact incomplete or holding older bytes at its new length; rerun to regenerate.
"""

from __future__ import annotations

import os

import numpy as np

from .consumption import RelayAssessment
from .simulation import USER_CSV_COLUMNS, CampaignResult

__all__ = [
    "USER_CSV_COLUMNS",
    "write_users_csv",
    "write_report",
    "write_cdf",
    "write_consumption_csv",
]


def _overwrite(path, text: str) -> None:
    """Overwrite in place, cut the stale tail: ``write_text`` minus ``O_TRUNC`` (66-245 us)."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # only fh translates newlines
    with open(os.open(path, flags, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


def _column_text(c: np.ndarray) -> list[str]:
    """Bools as 1/0, the rest by ``str``; a float column of one bit pattern takes one ``str``."""
    if c.dtype == bool:
        return np.where(c, "1", "0").tolist()
    values = c.tolist()  # equal ends first: most columns skip the bitwise test
    if (c.dtype == float and values and values[0] == values[-1]
            and (c.view(np.uint64) == c[:1].view(np.uint64)).all()):
        return [str(values[0])] * len(values)
    return list(map(str, values))


def _write_csv(path, columns: dict) -> None:
    """A CSV of equal-length columns, named by the keys; each distinct column is formatted once."""
    # keyed on the caller's objects, which ``columns`` keeps alive, so no id is reused
    distinct = {id(c): c for c in columns.values()}
    text = {key: _column_text(np.asarray(c)) for key, c in distinct.items()}
    lines = [",".join(columns), *map(",".join, zip(*(text[id(c)] for c in columns.values())))]
    _overwrite(path, "\n".join(lines) + "\n")


def write_users_csv(path, result: CampaignResult) -> None:
    """Per-user results, one line per terminal in id order."""
    _write_csv(path, result.user_columns())


def format_report(result: CampaignResult, scenario_name: str = "custom") -> str:
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
        f"los_terminals = {sum(t.los for t in result.terminals)}",
        f"dl_mean_se = {result.dl.mean_se:.6f}",
        f"dl_cell_edge_se = {result.dl.cell_edge_se:.6f}",
        f"dl_outage_count = {result.dl.outage_count}",
        f"ul_mean_se = {result.ul.mean_se:.6f}",
        f"ul_cell_edge_se = {result.ul.cell_edge_se:.6f}",
        f"ul_outage_count = {result.ul.outage_count}",
    ]
    return "\n".join(lines) + "\n"


def write_report(path, result: CampaignResult, scenario_name: str = "custom") -> str:
    """Write the aggregate summary and return the text written."""
    text = format_report(result, scenario_name)
    _overwrite(path, text)
    return text


def write_cdf(path, values) -> None:
    """Empirical CDF as two-column text: value, cumulative fraction."""
    ordered = np.sort(np.asarray(values, dtype=float))
    fraction = np.arange(1, ordered.size + 1) / ordered.size
    lines = ["# se_bit_per_s_per_hz cumulative_fraction"]
    lines += [f"{v!r} {f!r}" for v, f in zip(ordered.tolist(), fraction.tolist())]
    _overwrite(path, "\n".join(lines) + "\n")


CONSUMPTION_CSV_COLUMNS = RelayAssessment._fields


def write_consumption_csv(path, assessment: RelayAssessment) -> None:
    """Per-terminal relay-versus-direct verdicts."""
    _write_csv(path, assessment._asdict())
