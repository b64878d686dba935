"""Per-user SE against committed golden values.

``data/golden_se.npz`` holds DL SE, UL SE and the modal serving cell of
every terminal for the ten presets plus one dense seven-cell case.  A
refactor that keeps the arithmetic order must reproduce DL SE and the
serving cells exactly; UL SE may move by rounding only (the co-block
interference powers come from array ``power``, which can differ from
scalar ``pow`` by one ulp).

The seven-cell cases are also run under three OpenBLAS core types, in
child processes: no host's BLAS kernels may change a bit of them.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` -- only
when the model itself changes on purpose.  Before it overwrites the file
it prints, per case, the largest relative DL and UL change against the
stored values and how many serving cells changed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import hapsim
from hapsim.config import ScenarioConfig, preset_config, preset_names
from hapsim.simulation import run_campaign

GOLDEN = Path(__file__).parent / "data" / "golden_se.npz"
DENSE = "dense-selection-cpe"
CASES = [*preset_names(), DENSE]


def case_config(name: str) -> ScenarioConfig:
    if name == DENSE:
        return ScenarioConfig(layout="seven_cell", attachment_mode="beam_selection",
                              terminal_kind="cpe_directional", terminal_count=336,
                              target_los_count=280, seed=1)
    return preset_config(name)


def compute(name: str) -> dict[str, np.ndarray]:
    res = run_campaign(case_config(name))
    return {f"{name}/dl_se": res.dl_se, f"{name}/ul_se": res.ul_se,
            f"{name}/serving_cell": res.serving_cell}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("name", CASES)
def test_per_user_se_matches_golden(golden, name):
    got = compute(name)
    assert_array_equal(got[f"{name}/dl_se"], golden[f"{name}/dl_se"])
    assert_array_equal(got[f"{name}/serving_cell"], golden[f"{name}/serving_cell"])
    assert_allclose(got[f"{name}/ul_se"], golden[f"{name}/ul_se"], rtol=1e-12, atol=0.0)


def test_golden_cases_are_all_stored(golden):
    assert sorted(golden) == sorted(f"{c}/{k}" for c in CASES
                                    for k in ("dl_se", "ul_se", "serving_cell"))


# prints the key of every seven-cell array whose bytes differ from the committed ones
_PRINT_CHANGED = """
import numpy as np
from test_golden import CASES, GOLDEN, case_config, compute
with np.load(GOLDEN) as golden:
    for name in CASES:
        if case_config(name).layout == "seven_cell":
            for key, got in compute(name).items():
                if got.dtype != golden[key].dtype or got.tobytes() != golden[key].tobytes():
                    print(key)
"""


@pytest.mark.parametrize("core", ["Prescott", "Sandybridge", "Haswell"])
def test_seven_cell_se_does_not_depend_on_the_blas_core(core):
    path = [str(Path(__file__).parent), str(Path(hapsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _PRINT_CHANGED], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def _largest_rel_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = np.maximum(np.abs(new), np.abs(old))
    return float(np.max(np.abs(new - old) / np.where(scale > 0, scale, 1.0), initial=0.0))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    old = dict(np.load(GOLDEN)) if GOLDEN.exists() else {}
    arrays = {}
    print(f"{'case':<26} {'max rel DL':>11} {'max rel UL':>11} {'cells changed':>14}")
    for case in CASES:
        arrays.update(compute(case))
        if f"{case}/dl_se" not in old:
            print(f"{case:<26} {'new case':>11}")
            continue
        dl, ul, cells = (f"{case}/{k}" for k in ("dl_se", "ul_se", "serving_cell"))
        print(f"{case:<26} {_largest_rel_change(arrays[dl], old[dl]):>11.2e} "
              f"{_largest_rel_change(arrays[ul], old[ul]):>11.2e} "
              f"{int(np.count_nonzero(arrays[cells] != old[cells])):>14}")
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
