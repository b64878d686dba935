"""Tests of the benchmark itself: smoke runs and oracle mutation checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
from hapsim.cli import main as hapsim_main  # noqa: E402
from hapsim.config import ScenarioConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_runs_clean(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not list(ROOT.glob(".perfbench-tmp-*")), "temporary directory left behind"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "seed-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# The oracle must notice small, targeted corruptions of program output.

@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cfg = ScenarioConfig(layout="seven_cell", attachment_mode="beam_selection",
                         terminal_count=42, target_los_count=35, seed=4).validate()
    out = tmp_path_factory.mktemp("campaign")
    scenario = out / "small.cfg"
    scenario.write_text("layout = seven_cell\nattachment_mode = beam_selection\n"
                        "terminal_count = 42\ntarget_los_count = 35\nseed = 4\n")
    assert hapsim_main(["run", "--config", str(scenario), "--out", str(out)]) == 0
    table = oracle.read_table(ROOT / "src" / "hapsim" / "data" / "ntn_rural_s_band.csv")
    drop = oracle.replay_drop(cfg, table)
    sample = np.array([0, 7, 19, 41])
    model = oracle.campaign_model(cfg, drop, table, sample)
    users = oracle.read_csv_rows(out / "users.csv")
    report = (out / "report.txt").read_text()
    return cfg, drop, model, sample, users, report


def test_oracle_accepts_unmodified_output(campaign):
    cfg, drop, model, sample, users, report = campaign
    assert oracle.check_campaign(cfg, drop, model, sample, users, report) == []


@pytest.mark.parametrize("key", ["dl_se", "ul_se"])
def test_oracle_flags_tiny_se_change(campaign, key):
    cfg, drop, model, sample, users, report = campaign
    t = int(sample[1])
    mutated = [dict(u) for u in users]
    mutated[t][key] = repr(float(users[t][key]) * (1.0 + 1e-6))
    problems = oracle.check_campaign(cfg, drop, model, sample, mutated, report)
    assert any(f"terminal {t}: {key}" in p for p in problems), problems


def test_oracle_flags_wrong_serving_cell(campaign):
    cfg, drop, model, sample, users, report = campaign
    t = 5
    mutated = [dict(u) for u in users]
    mutated[t]["serving_cell"] = str((int(users[t]["serving_cell"]) + 1) % 7)
    problems = oracle.check_campaign(cfg, drop, model, sample, mutated, report)
    assert any(f"terminal {t}: serving cell" in p for p in problems), problems
