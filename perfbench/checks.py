"""Output checks: property checks plus the independent oracle, per operation.

Every operation of a workload's first (untimed) round is checked here as
soon as it has run; later rounds must reproduce its artifacts byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle

ORACLE_SAMPLE = 12
# Acceptance criterion 2: bent-pipe and regenerative twins agree per user
# within 2% and in the campaign means within 1%.
TWIN_USER_RTOL = 0.02
TWIN_MEAN_RTOL = 0.01


def check_users_csv(result, users: list[dict]) -> list[str]:
    """``users.csv`` parsed with ``csv`` matches the campaign's result arrays."""
    n = len(result.terminals)
    if len(users) != n:
        return [f"users.csv has {len(users)} rows for {n} terminals"]
    for i, (t, row) in enumerate(zip(result.terminals, users)):
        dl, ul = float(result.dl_se[i]), float(result.ul_se[i])
        expected = {
            "terminal_id": str(i), "x": repr(t.x), "y": repr(t.y), "kind": t.kind,
            "los": "1" if t.los else "0", "serving_cell": str(int(result.serving_cell[i])),
            "dl_se": repr(dl), "ul_se": repr(ul),
            "outage": "1" if dl == 0.0 or ul == 0.0 else "0",
        }
        for key, want in expected.items():
            if key not in row or (row[key] != want and not _same_float(row[key], want)):
                return [f"users.csv row {i} {key} = {row.get(key)!r}, result holds {want!r}"]
    return []


def _same_float(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return False


def check_se_range(values: np.ndarray, se_max: float, label: str) -> list[str]:
    bad = ~np.isfinite(values) | (values < 0.0) | (values > se_max)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{label} SE of terminal {i} is {values[i]!r}, outside [0, {se_max}]"]
    return []


def check_cdf(text: str, values: np.ndarray, label: str) -> list[str]:
    """A CDF artifact is sorted, ends at 1 and lists exactly the user SEs."""
    pairs = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    se = np.array([float(p[0]) for p in pairs])
    frac = np.array([float(p[1]) for p in pairs])
    if se.size != values.size:
        return [f"{label}: {se.size} points for {values.size} users"]
    if np.any(np.diff(se) < 0) or np.any(np.diff(frac) <= 0):
        return [f"{label}: not sorted"]
    if frac[-1] != 1.0:
        return [f"{label}: ends at {frac[-1]!r}, not 1"]
    if not np.array_equal(se, np.sort(values)):
        return [f"{label}: values differ from the sorted user SEs"]
    return []


def check_twins(bp, rg, label: str) -> list[str]:
    """Bent-pipe and regenerative results agree within criterion 2's tolerances."""
    problems = []
    for direction in ("dl", "ul"):
        a, b = getattr(bp, f"{direction}_se"), getattr(rg, f"{direction}_se")
        served = (a > 0) | (b > 0)
        if served.any():
            gap = np.abs(a[served] - b[served]) / np.maximum(a[served], b[served])
            if gap.max() > TWIN_USER_RTOL:
                problems.append(f"{label} {direction}: per-user bp/rg gap {gap.max():.3%}")
        mean_gap = abs(a.mean() - b.mean()) / max(a.mean(), b.mean(), 1e-300)
        if mean_gap > TWIN_MEAN_RTOL:
            problems.append(f"{label} {direction}: mean bp/rg gap {mean_gap:.3%}")
    return problems


@dataclass
class Verifier:
    """Checks each operation's outputs and keeps what the report needs."""

    bench_seed: int
    table_path: str
    problems: list[str] = field(default_factory=list)
    los_attempts: int = 0
    coblock_terms: dict = field(default_factory=dict)  # scenario id -> oracle count
    _drops: dict = field(default_factory=dict)
    _twins: dict = field(default_factory=dict)

    def __post_init__(self):
        self.table = oracle.read_table(self.table_path)

    def _drop(self, scenario, cfg):
        if scenario.sid not in self._drops:
            self._drops[scenario.sid] = oracle.replay_drop(cfg, self.table)
        return self._drops[scenario.sid]

    def sample(self, scenario_index: int, n: int) -> np.ndarray:
        rng = np.random.default_rng([self.bench_seed, scenario_index])
        return np.sort(rng.choice(n, size=min(n, ORACLE_SAMPLE), replace=False))

    def check(self, scenario, scenario_index, command, cfg, captured, out, stdout) -> None:
        """Check one operation's outputs; ``captured`` is what the CLI computed."""
        if command == "run":
            self.check_run(scenario, scenario_index, cfg, captured, out, stdout)
        else:
            self.check_consumption(scenario, cfg, captured[0], out, stdout)

    def check_run(self, scenario, scenario_index, cfg, result, out, stdout) -> None:
        label = f"{scenario.sid} run"
        users = oracle.read_csv_rows(out / "users.csv")
        found = check_users_csv(result, users)
        found += check_se_range(result.dl_se, cfg.dl_se_max, f"{label} dl")
        found += check_se_range(result.ul_se, cfg.ul_se_max, f"{label} ul")
        for direction in ("dl", "ul"):
            found += check_cdf((out / f"cdf_{direction}.txt").read_text(),
                               getattr(result, f"{direction}_se"), f"{label} cdf_{direction}")
        report_text = (out / "report.txt").read_text()
        if report_text not in stdout:
            found.append(f"{label}: printed report differs from report.txt")
        drop = self._drop(scenario, cfg)
        self.los_attempts += drop.los_attempts
        found += oracle.check_drop(drop, result.terminals)
        sample = self.sample(scenario_index, drop.x.size)
        model = oracle.campaign_model(cfg, drop, self.table, sample)
        found += oracle.check_campaign(cfg, drop, model, sample, users, report_text)
        self.coblock_terms[scenario.sid] = model.coblock_terms
        if scenario.twin is not None:
            self._twins.setdefault(scenario.twin, {})[scenario.arch] = (result, model.coblock_terms)
        self.problems += [f"{label}: {p}" for p in found]

    def check_consumption(self, scenario, cfg, terminals, out, stdout) -> None:
        drop = self._drop(scenario, cfg)
        self.los_attempts += drop.los_attempts
        found = oracle.check_drop(drop, terminals)
        found += oracle.check_consumption(cfg, drop, oracle.read_csv_rows(out / "consumption.csv"), stdout)
        self.problems += [f"{scenario.sid} consumption: {p}" for p in found]

    def check_all_twins(self, observed_terms: dict | None = None) -> None:
        """bp/rg twins agree, and sum the same number of UL interferer terms."""
        for key, pair in self._twins.items():
            if set(pair) != {"bp", "rg"}:
                continue
            (bp, bp_terms), (rg, rg_terms) = pair["bp"], pair["rg"]
            self.problems += check_twins(bp, rg, str(key))
            if bp_terms != rg_terms:
                self.problems.append(f"{key}: bp/rg co-block terms {bp_terms} != {rg_terms}")
        for sid, terms in (observed_terms or {}).items():
            if self.coblock_terms.get(sid) != terms:
                self.problems.append(
                    f"{sid}: traced co-block terms {terms}, oracle {self.coblock_terms.get(sid)}")

