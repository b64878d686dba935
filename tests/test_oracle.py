"""Drawn campaigns against the benchmark's independent oracle, ``perfbench/oracle.py``.

The oracle re-derives per-user SE and the modal serving cell from the
documented model, position by position and terminal by terminal, without
calling hapsim's simulation, antenna or channel code.
"""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hapsim.config import ScenarioConfig
from hapsim.errors import ValidationError
from hapsim.simulation import run_campaign

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
oracle = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = oracle  # its dataclasses look their module up
_spec.loader.exec_module(oracle)

TABLE = oracle.read_table(resources.files("hapsim.data") / "ntn_rural_s_band.csv")


@st.composite
def _scenarios(draw):
    """Every layout, attachment, terminal kind, architecture and LOS mode, with 1-40 terminals."""
    n = draw(st.integers(1, 40))
    return ScenarioConfig(
        layout=draw(st.sampled_from(["single", "seven_cell"])),
        attachment_mode=draw(st.sampled_from(["beam_steering", "beam_selection"])),
        terminal_kind=draw(st.sampled_from(["ue_omni", "cpe_directional"])),
        architecture=draw(st.sampled_from(["bp", "rg"])),
        los_assignment=draw(st.sampled_from(["fixed_counts", "probabilistic"])),
        terminal_count=n,
        target_los_count=draw(st.integers(0, n)),
        seed=draw(st.integers(0, 2**32 - 1)),
        **oracle.REFERENCE_SWITCHES,  # the switches the oracle models
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_scenarios())
def test_every_terminal_matches_the_oracle(cfg):
    try:
        result = run_campaign(cfg)
    except ValidationError as exc:  # a LOS target the redraw loop cannot plausibly hit
        assert "target_los_count" in exc.fields
        return
    drop = oracle.replay_drop(cfg, TABLE)
    assert oracle.check_drop(drop, result.terminals) == []
    model = oracle.campaign_model(cfg, drop, TABLE, np.arange(drop.x.size))
    assert_allclose(result.dl_se, model.dl_se, rtol=oracle.SE_RTOL, atol=0.0)
    assert_allclose(result.ul_se, model.ul_se, rtol=oracle.SE_RTOL, atol=0.0)
    assert_array_equal(result.serving_cell, model.modal_cell)
