"""Acceptance gate: one test (and one pass/fail line under ``pytest -v``)
per release criterion.

1. Feeder free-space loss at 3.65 GHz over 50 km is 137.7 +/- 0.05 dB and
   a scalar evaluation costs under a millisecond.
2. Bent-pipe and regenerative campaigns agree: per-user spectral
   efficiency within 2%, campaign means within 1% (the default modelling
   switches make them bit-identical).
3. Repeater-amplified noise received on the ground stays below the
   handset's own -94 dBm floor for every access loss in [121, 200] dB,
   and enabling the repeater-noise switch moves no served user's downlink
   SE by more than 0.2% -- both on the reference campaign and across the
   whole access-loss domain.
4. Reference campaign statistics land in their expected bands: single
   cell DL mean in [0.6, 1.1] and UL mean in [0.25, 0.50]; seven-cell
   steering/omni DL mean in [0.9, 1.6]; any single campaign completes
   within 60 seconds.
5. Ordering properties hold for every seed in 1..5: directional rooftop
   terminals strictly beat omni handsets in mean and cell-edge SE (both
   attachment modes, both directions); beam selection is never worse
   than beam steering (both terminal kinds, both directions); and the
   campaign-wide DL mean exceeds the UL mean in every mode and terminal
   kind, the system-level uplink limit the paper reports.  The ordering is
   not claimed per cell: grouped by modal serving cell, the UL mean of
   some cells (a lightly loaded nadir cell, a few rooftop side cells)
   exceeds their DL mean.
6. Power-efficiency algebra: a single-stage chain's factor equals its
   stage efficiency exactly; closed forms match the generic chain to
   1e-12 relative; the relay-advantage oracle cases evaluate to 0.5
   (relay wins) and 2.0 (relay loses); the verdict is scale-invariant;
   improving any stage efficiency strictly improves the chain.
7. Determinism: rerunning a campaign writes byte-identical artifacts,
   and a run given ``--workers 4`` (accepted, but campaigns run in one
   thread) writes the same bytes as one without it.
8. Cell-edge SE is the mean of the lowest ceil(0.05 n) users, outage
   users counted as zeros: with 20 users it is exactly the worst user.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from hapsim.architecture import repeater_noise_at_ue, thermal_noise_dbm
from hapsim.channel import fspl
from hapsim.cli import main
from hapsim.config import ScenarioConfig, preset_config
from hapsim.consumption import (
    base_station_chain_efficiency,
    power_efficiency_factor,
    relay_advantage,
    repeater_chain_efficiency,
)
from hapsim.simulation import aggregate_se, run_campaign, sinr_to_se

ORDERING_SEEDS = (1, 2, 3, 4, 5)


def _campaign(seed: int, mode: str, kind: str):
    return run_campaign(ScenarioConfig(
        layout="seven_cell",
        attachment_mode=f"beam_{mode}",
        terminal_kind=kind,
        seed=seed,
    ))


def test_criterion_1_feeder_loss_value_and_speed():
    value = fspl(3.65e9, 50_000.0)
    assert abs(value - 137.7) <= 0.05, f"feeder loss {value:.4f} dB outside 137.7 +/- 0.05"
    fspl(3.65e9, 50_000.0)  # warm
    t0 = time.perf_counter()
    for _ in range(100):
        fspl(3.65e9, 50_000.0)
    per_call = (time.perf_counter() - t0) / 100
    assert per_call < 1e-3, f"fspl took {per_call * 1e3:.3f} ms per call"


def test_criterion_2_architectures_agree():
    pairs = [
        (ScenarioConfig(architecture="bp"), ScenarioConfig(architecture="rg")),
    ]
    for mode in ("steering", "selection"):
        for kind in ("ue_omni", "cpe_directional"):
            pairs.append((
                ScenarioConfig(layout="seven_cell", attachment_mode=f"beam_{mode}",
                               terminal_kind=kind, architecture="bp"),
                ScenarioConfig(layout="seven_cell", attachment_mode=f"beam_{mode}",
                               terminal_kind=kind, architecture="rg"),
            ))
    for cfg_bp, cfg_rg in pairs:
        bp = run_campaign(cfg_bp)
        rg = run_campaign(cfg_rg)
        for direction, a, b in (("dl", bp.dl_se, rg.dl_se), ("ul", bp.ul_se, rg.ul_se)):
            served = (a > 0) | (b > 0)
            rel = np.abs(a[served] - b[served]) / np.maximum(a[served], b[served])
            assert rel.max() <= 0.02, (
                f"{direction} per-user BP/RG gap {rel.max():.2%} exceeds 2%"
            )
            mean_gap = abs(a.mean() - b.mean()) / max(a.mean(), b.mean())
            assert mean_gap <= 0.01, f"{direction} mean BP/RG gap {mean_gap:.2%} exceeds 1%"


def test_criterion_3_repeater_noise_safely_ignorable():
    cfg = ScenarioConfig()
    losses = np.arange(121.0, 200.0 + 1e-9, 0.05)
    noise = repeater_noise_at_ue(cfg.repeater_gain_db, cfg.repeater_noise_figure_db, 20e6, losses)
    ue_floor = thermal_noise_dbm(20e6, 7.0)
    assert ue_floor < -93.9
    assert np.all(noise < -94.0), "repeater noise reaches the -94 dBm floor"
    assert np.all(noise < ue_floor), "repeater noise reaches the handset floor"

    # whole access-loss domain: SE with/without the amplified-noise term
    rx = cfg.panel_tx_power_dbm + cfg.single_antenna_gain_dbi - losses
    rx_lin = 10.0 ** (rx / 10.0)
    floor_lin = 10.0 ** (ue_floor / 10.0)
    on = rx_lin / (floor_lin + 10.0 ** (noise / 10.0))
    off = rx_lin / floor_lin
    abstraction = (cfg.dl_se_attenuation, cfg.dl_sinr_min_db, cfg.dl_se_max)
    se_on = sinr_to_se(on, *abstraction)
    se_off = sinr_to_se(off, *abstraction)
    served = se_off > 0
    rel = np.abs(se_on[served] - se_off[served]) / se_off[served]
    assert rel.max() <= 0.002, f"budget-domain SE shift {rel.max():.4%} exceeds 0.2%"

    # reference campaign: flip the switch, compare per user
    base = run_campaign(ScenarioConfig())
    flagged = run_campaign(ScenarioConfig(bp_repeater_noise_at_ue=True))
    served = base.dl_se > 0
    rel = np.abs(flagged.dl_se[served] - base.dl_se[served]) / base.dl_se[served]
    assert rel.max() <= 0.002, f"campaign SE shift {rel.max():.4%} exceeds 0.2%"
    assert_array_equal(base.ul_se, flagged.ul_se)


def test_criterion_4_reference_bands_and_runtime():
    t0 = time.perf_counter()
    single = run_campaign(ScenarioConfig())
    single_dt = time.perf_counter() - t0
    dl, ul = single.dl.mean_se, single.ul.mean_se
    assert 0.6 <= dl <= 1.1, f"single-cell DL mean {dl:.4f} outside [0.6, 1.1]"
    assert 0.25 <= ul <= 0.50, f"single-cell UL mean {ul:.4f} outside [0.25, 0.50]"

    t0 = time.perf_counter()
    multi = _campaign(1, "steering", "ue_omni")
    multi_dt = time.perf_counter() - t0
    dl_multi = multi.dl.mean_se
    assert 0.9 <= dl_multi <= 1.6, f"seven-cell DL mean {dl_multi:.4f} outside [0.9, 1.6]"
    assert max(single_dt, multi_dt) < 60.0, "campaign exceeded the 60 s budget"


def test_criterion_5_ordering_properties():
    for seed in ORDERING_SEEDS:
        results = {
            (mode, kind): _campaign(seed, mode, kind)
            for mode in ("steering", "selection")
            for kind in ("ue_omni", "cpe_directional")
        }
        for mode in ("steering", "selection"):
            omni = results[(mode, "ue_omni")]
            cpe = results[(mode, "cpe_directional")]
            for direction in ("dl", "ul"):
                o, c = getattr(omni, direction), getattr(cpe, direction)
                assert c.mean_se > o.mean_se, (
                    f"seed {seed} {mode} {direction}: CPE mean {c.mean_se:.4f} "
                    f"not above omni {o.mean_se:.4f}"
                )
                assert c.cell_edge_se > o.cell_edge_se, (
                    f"seed {seed} {mode} {direction}: CPE edge {c.cell_edge_se:.4f} "
                    f"not above omni {o.cell_edge_se:.4f}"
                )
        for kind in ("ue_omni", "cpe_directional"):
            steer = results[("steering", kind)]
            select = results[("selection", kind)]
            for direction in ("dl", "ul"):
                st, se = getattr(steer, direction), getattr(select, direction)
                assert se.mean_se >= st.mean_se, (
                    f"seed {seed} {kind} {direction}: selection mean {se.mean_se:.4f} "
                    f"below steering {st.mean_se:.4f}"
                )
                assert se.cell_edge_se >= st.cell_edge_se, (
                    f"seed {seed} {kind} {direction}: selection edge {se.cell_edge_se:.4f} "
                    f"below steering {st.cell_edge_se:.4f}"
                )
        # every scenario combination reports a higher DL than UL mean
        for (mode, kind), res in results.items():
            dl_mean = res.dl.mean_se
            ul_mean = res.ul.mean_se
            assert dl_mean > ul_mean, (
                f"seed {seed} {mode}/{kind}: DL mean {dl_mean:.4f} "
                f"not above UL mean {ul_mean:.4f}"
            )


def test_criterion_6_power_efficiency_suite():
    assert power_efficiency_factor([(12.0, 0.4)]) == 0.4

    rng = np.random.default_rng(17)
    for _ in range(200):
        g = rng.uniform(0.1, 1e4, 3)
        e = rng.uniform(0.05, 1.0, 3)
        stages = [(float(gi), float(ei)) for gi, ei in zip(g, e)]
        assert_allclose(
            repeater_chain_efficiency(stages[0], stages[1]),
            power_efficiency_factor(stages[:2]), rtol=1e-12,
        )
        assert_allclose(
            base_station_chain_efficiency(*stages),
            power_efficiency_factor(stages), rtol=1e-12,
        )

    # half the direct distance on each hop, no gain or efficiency edge:
    # rhs = 0.25 + 0.25 = 0.5 and the relay wins
    win = relay_advantage(500.0, 500.0, 1000.0, 1.0, 1.0, 0.5, 0.5)
    assert_allclose(win, 0.5, rtol=1e-12)
    assert win < 1.0
    # both hops as long as the direct path: rhs = 1 + 1 = 2, relay loses
    lose = relay_advantage(1000.0, 1000.0, 1000.0, 1.0, 1.0, 0.5, 0.5)
    assert_allclose(lose, 2.0, rtol=1e-12)
    assert lose >= 1.0

    for scale in (1e-3, 0.1, 10.0, 1e3):
        scaled = relay_advantage(500.0 * scale, 500.0 * scale, 1000.0 * scale, 1.0, 1.0, 0.5, 0.5)
        assert_allclose(scaled, win, rtol=1e-12)

    base_eta = [0.3, 0.5, 0.7]
    h_base = power_efficiency_factor([(10.0, e) for e in base_eta])
    for i in range(3):
        bumped = list(base_eta)
        bumped[i] += 0.05
        h_bumped = power_efficiency_factor([(10.0, e) for e in bumped])
        assert h_bumped > h_base, f"improving stage {i} efficiency did not improve H"


def test_criterion_7_byte_identical_artifacts(tmp_path):
    runs = {}
    for label, extra in (("a", []), ("b", []), ("workers", ["--workers", "4"])):
        out = tmp_path / label
        rc = main(["run", "--preset", "multi-selection-cpe-bp", "--out", str(out), *extra])
        assert rc == 0
        runs[label] = {
            name: (out / name).read_bytes()
            for name in ("users.csv", "report.txt", "cdf_dl.txt", "cdf_ul.txt")
        }
    assert runs["a"] == runs["b"], "rerun artifacts differ"
    assert runs["a"] == runs["workers"], "--workers 4 artifacts differ from the default run"


def test_criterion_8_cell_edge_definition():
    values = np.full(20, 1.5)
    values[7] = 0.0
    stats = aggregate_se(values)
    assert stats.edge_user_count == math.ceil(0.05 * 20) == 1
    assert stats.cell_edge_se == 0.0, "outage user must be the cell edge, counted as zero"
    assert stats.outage_count == 1
    assert_allclose(stats.mean_se, values.mean(), rtol=1e-15)

    lifted = np.full(20, 1.5)
    lifted[7] = 0.2
    assert aggregate_se(lifted).cell_edge_se == 0.2

    big = np.concatenate([np.zeros(5), np.linspace(0.1, 3.0, 205)])
    stats = aggregate_se(big)
    assert stats.edge_user_count == 11
    assert_allclose(stats.cell_edge_se, np.sort(big)[:11].mean(), rtol=1e-15)
