"""Independent oracle for hapsim campaign and consumption outputs.

Everything here is re-derived from the documented model (README.md and
the module docstrings), not from the simulator's code paths: it reads
the scenario's configuration values and the channel-table file, and
never calls into ``hapsim.simulation``, ``hapsim.antenna``,
``hapsim.channel`` or ``hapsim.consumption``.  Each check returns a list
of human-readable problems; an empty list means the output agrees.

Model summary (one drop, replayed against every platform position):

* drop: radius ``R*sqrt(U)``, angle ``2*pi*U``; LOS states redrawn as a
  whole vector until exactly the target count is LOS (or drawn once when
  the assignment is probabilistic); one shadow draw per terminal;
* gains: element pattern ``peak - min(12(az/hpbw)^2 + 12(el/hpbw)^2,
  fbr)`` plus ``20 log10 |AF|`` with unit-power conjugate-phase weights;
* attachment: fixed nearest cell (steering) or strongest broadside beam
  (selection); DL shares the cell bandwidth equally, every other active
  beam interferes;
* UL: round-robin slot ``(rank + offset*(cell+1)) mod n_cell`` with
  ``offset = k*n_sub + sub`` over ``n_sub`` = largest cell load; equal
  slots in different cells collide;
* SE: ``min(a*log2(1+sinr), se_max)``, zero below the SINR floor; user
  SE is bits over time-bandwidth; cell edge is the mean of the lowest
  ``ceil(0.05 n)`` users.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C_LIGHT = 299_792_458.0
NOISE_DENSITY_DBM_HZ = -174.0
MAX_LOS_ATTEMPTS = 100_000
SE_RTOL = 1e-9


# ----------------------------------------------------------------------
# Inputs

@dataclass(frozen=True)
class Table:
    elevation_deg: np.ndarray
    los_probability: np.ndarray
    sigma_los_db: np.ndarray
    sigma_nlos_db: np.ndarray
    clutter_nlos_db: np.ndarray

    def nearest(self, elevation_deg: np.ndarray) -> np.ndarray:
        return np.argmin(np.abs(elevation_deg[:, None] - self.elevation_deg[None, :]), axis=1)


def read_table(path) -> Table:
    """Parse the elevation-binned channel CSV (``#`` comments, optional header)."""
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            continue  # header line
    data = np.array(rows, dtype=float)
    return Table(*(data[:, i] for i in range(5)))


@dataclass(frozen=True)
class Drop:
    x: np.ndarray
    y: np.ndarray
    los: np.ndarray
    shadow_db: np.ndarray
    los_attempts: int


def replay_drop(cfg, table: Table) -> Drop:
    """Redraw a campaign's terminal drop from its seed."""
    n = cfg.resolved_terminal_count()
    radius_m = cfg.resolved_cell_radius_m()
    target = cfg.resolved_target_los_count()
    rng = np.random.default_rng(cfg.seed)
    r = radius_m * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    x = r * np.cos(theta)
    y = r * np.sin(theta)
    elev = np.degrees(np.arctan2(cfg.altitude_m, np.hypot(x, y)))
    b = table.nearest(elev)
    p_los = table.los_probability[b]
    attempts = 0
    while True:
        attempts += 1
        los = rng.random(n) < p_los
        if target is None or int(los.sum()) == target:
            break
        if attempts == MAX_LOS_ATTEMPTS:
            raise ValueError(f"LOS target {target}/{n} not reached in {attempts} draws")
    sigma = np.where(los, table.sigma_los_db[b], table.sigma_nlos_db[b])
    shadow = rng.normal(0.0, sigma)
    return Drop(x, y, los, shadow, attempts)


# ----------------------------------------------------------------------
# Platform antennas

@dataclass(frozen=True)
class PanelModel:
    peak_dbi: float
    hpbw_deg: float
    fbr_db: float
    boresight: np.ndarray
    col_axis: np.ndarray
    row_axis: np.ndarray
    offsets_wl: np.ndarray  # (n_elements, 2): (col, row) in wavelengths
    cell_xy: tuple[float, float]


def _panel(peak, hpbw, fbr, az_deg, el_deg, rows, cols, spacing, cell_xy) -> PanelModel:
    az, el = math.radians(az_deg), math.radians(el_deg)
    bore = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
    col = np.array([-math.sin(az), math.cos(az), 0.0])
    row = np.cross(col, bore)
    c = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    r = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    offsets = np.array([(ci, ri) for ri in r for ci in c])
    return PanelModel(peak, hpbw, fbr, bore / np.linalg.norm(bore),
                      col / np.linalg.norm(col), row / np.linalg.norm(row),
                      offsets, cell_xy)


def platform_panels(cfg) -> list[PanelModel]:
    """One wide single antenna, or the nadir panel plus six tilted side panels."""
    radius_m = cfg.resolved_cell_radius_m()
    if cfg.layout == "single":
        return [_panel(cfg.single_antenna_gain_dbi, cfg.single_antenna_hpbw_deg,
                       cfg.single_antenna_front_to_back_db, 0.0, -90.0, 1, 1,
                       cfg.element_spacing_wl, (0.0, 0.0))]
    args = (cfg.array_element_gain_dbi, cfg.array_element_hpbw_deg,
            cfg.array_element_front_to_back_db)
    panels = [_panel(*args, 0.0, -90.0, cfg.bottom_panel_rows, cfg.bottom_panel_cols,
                     cfg.element_spacing_wl, (0.0, 0.0))]
    ring = cfg.outer_cell_center_fraction * radius_m
    for k in range(6):
        az = cfg.side_panel_azimuth_offset_deg + 60.0 * k
        cell = (ring * math.cos(math.radians(az)), ring * math.sin(math.radians(az)))
        panels.append(_panel(*args, az, -cfg.side_panel_tilt_deg, cfg.side_panel_rows,
                             cfg.side_panel_cols, cfg.element_spacing_wl, cell))
    return panels


def _element_db(peak, hpbw, fbr, az, el):
    return peak - np.minimum(12.0 * (az / hpbw) ** 2 + 12.0 * (el / hpbw) ** 2, fbr)


def _panel_gain(p: PanelModel, dirs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Realised gain (dBi) of a panel whose weights focus on ``target``."""
    d = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    u, v, w = d @ p.col_axis, d @ p.row_axis, d @ p.boresight
    az = np.degrees(np.arctan2(u, w))
    el = np.degrees(np.arctan2(v, np.hypot(u, w)))
    t = target / np.linalg.norm(target)
    ut, vt = t @ p.col_axis, t @ p.row_axis
    n_el = p.offsets_wl.shape[0]
    weights = np.exp(-2j * np.pi * (p.offsets_wl @ np.array([ut, vt]))) / math.sqrt(n_el)
    steer = np.exp(2j * np.pi * (np.outer(u, p.offsets_wl[:, 0]) + np.outer(v, p.offsets_wl[:, 1])))
    af = np.abs(steer @ weights)
    return _element_db(p.peak_dbi, p.hpbw_deg, p.fbr_db, az, el) + 20.0 * np.log10(np.maximum(af, 1e-12))


# ----------------------------------------------------------------------
# Campaign

def _se(sinr_db, attenuation, sinr_min_db, se_max):
    se = np.minimum(attenuation * np.log2(1.0 + 10.0 ** (sinr_db / 10.0)), se_max)
    return np.where(sinr_db < sinr_min_db, 0.0, se)


def _fspl_db(freq_hz, dist_m):
    return 20.0 * np.log10(4.0 * np.pi * dist_m * freq_hz / C_LIGHT)


def _noise_dbm(bw_hz, nf_db):
    return NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(bw_hz) + nf_db


@dataclass
class CampaignModel:
    dl_se: np.ndarray           # at the sampled terminals
    ul_se: np.ndarray           # at the sampled terminals
    modal_cell: np.ndarray      # every terminal
    coblock_terms: int          # interferer power terms the UL model sums


REFERENCE_SWITCHES = {"bp_feeder_chain": "compensated", "bp_ul_noise": "matched",
                      "bp_repeater_noise_at_ue": False}


def campaign_model(cfg, drop: Drop, table: Table, sample: np.ndarray) -> CampaignModel:
    """Per-user SE for ``sample``, modal cells and UL collision terms."""
    for key, value in REFERENCE_SWITCHES.items():
        if getattr(cfg, key) != value:
            raise ValueError(f"oracle models only {key} = {value}")
    n = drop.x.size
    panels = platform_panels(cfg)
    n_beams = len(panels)
    cells_xy = np.array([p.cell_xy for p in panels])
    fixed = np.argmin(((np.column_stack([drop.x, drop.y])[:, None, :] - cells_xy[None]) ** 2).sum(2), axis=1)
    cpe = cfg.terminal_kind == "cpe_directional"
    tx_dbm = cfg.panel_tx_power_dbm
    steering = cfg.attachment_mode == "beam_steering"
    noise_dl = 10.0 ** (_noise_dbm(cfg.dl_bandwidth_hz, cfg.ue_noise_figure_db) / 10.0)
    noise_ul = 10.0 ** (_noise_dbm(cfg.ul_allocation_hz, cfg.bs_noise_figure_db) / 10.0)
    dl_curve = (cfg.dl_se_attenuation, cfg.dl_sinr_min_db, cfg.dl_se_max)
    ul_curve = (cfg.ul_se_attenuation, cfg.ul_sinr_min_db, cfg.ul_se_max)

    P = cfg.flight_position_count
    history = np.empty((P, n), dtype=int)
    dl_bits = np.zeros(sample.size)
    dl_tb = np.zeros(sample.size)
    ul_sum = np.zeros(sample.size)
    terms = 0
    for k in range(P):
        ang = math.radians(k * cfg.flight_angular_step_deg)
        hp = np.array([cfg.flight_circle_diameter_m / 2.0 * math.cos(ang),
                       cfg.flight_circle_diameter_m / 2.0 * math.sin(ang), cfg.altitude_m])
        dirs = np.column_stack([drop.x - hp[0], drop.y - hp[1], np.full(n, -hp[2])])
        horiz = np.hypot(dirs[:, 0], dirs[:, 1])
        slant = np.sqrt(horiz ** 2 + hp[2] ** 2)
        elev = np.degrees(np.arctan2(hp[2], horiz))
        clutter = np.where(drop.los, 0.0, table.clutter_nlos_db[table.nearest(elev)])
        loss_dl = _fspl_db(cfg.dl_carrier_hz, slant) + drop.shadow_db + clutter
        loss_ul = _fspl_db(cfg.ul_carrier_hz, slant) + drop.shadow_db + clutter
        g_term = (_element_db(cfg.cpe_gain_dbi, cfg.cpe_hpbw_deg, cfg.cpe_front_to_back_db, 0.0, elev)
                  if cpe else np.zeros(n))
        gains = np.array([
            _panel_gain(p, dirs, (np.array([*p.cell_xy, 0.0]) - hp) if steering else p.boresight)
            for p in panels
        ])
        serving = fixed if steering else np.argmax(tx_dbm + gains - loss_dl[None, :], axis=0)
        history[k] = serving
        load = np.bincount(serving, minlength=n_beams)

        # downlink at the sample: every other active beam interferes
        s_cell = serving[sample]
        rx = tx_dbm + gains[:, sample] - loss_dl[sample] + g_term[sample]
        lin = 10.0 ** (rx / 10.0)
        other = (load[:, None] > 0) & (np.arange(n_beams)[:, None] != s_cell[None, :])
        interference = np.where(other, lin, 0.0).sum(axis=0)
        own = rx[s_cell, np.arange(sample.size)]
        se_dl = _se(own - 10.0 * np.log10(noise_dl + interference), *dl_curve)
        share = cfg.dl_bandwidth_hz / load[s_cell]
        dl_bits += se_dl * share
        dl_tb += share

        # uplink: rotating round-robin slots, co-slot terminals of other cells collide
        n_sub = int(load.max()) if np.count_nonzero(load) > 1 else 1
        rank = np.empty(n, dtype=np.int64)
        for b in range(n_beams):
            members = np.flatnonzero(serving == b)
            rank[members] = np.arange(members.size)
        offsets = k * n_sub + np.arange(n_sub, dtype=np.int64)
        slots = (rank[None, :] + offsets[:, None] * (serving[None, :] + 1)) % load[serving][None, :]
        width = int(load.max())
        keyed = (np.arange(n_sub)[:, None] * width + slots).ravel()
        per_slot = np.bincount(keyed, minlength=n_sub * width)
        terms += int((per_slot * (per_slot - 1)).sum())
        ul_tx = cfg.ue_tx_power_dbm + g_term - loss_ul
        for j, t in enumerate(sample):
            c = serving[t]
            power = 10.0 ** ((ul_tx + gains[c]) / 10.0)
            collide = (slots == slots[:, t:t + 1]) & (serving != c)[None, :]
            ul_if = np.where(collide, power[None, :], 0.0).sum(axis=1)
            sinr = ul_tx[t] + gains[c, t] - 10.0 * np.log10(noise_ul + ul_if)
            ul_sum[j] += _se(sinr, *ul_curve).mean()

    modal = np.array([np.bincount(history[:, t], minlength=n_beams).argmax() for t in range(n)])
    return CampaignModel(dl_bits / dl_tb, ul_sum / P, modal, terms)


# ----------------------------------------------------------------------
# Checks against program output

def _rel_gap(a, b) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_drop(drop: Drop, terminals) -> list[str]:
    """Compare the replayed drop with the program's ``build_drop`` terminals."""
    if len(terminals) != drop.x.size:
        return [f"drop has {len(terminals)} terminals, replay has {drop.x.size}"]
    problems = []
    for i, t in enumerate(terminals):
        if (t.terminal_id != i or t.los != bool(drop.los[i])
                or _rel_gap(t.x, drop.x[i]) > 1e-12 or _rel_gap(t.y, drop.y[i]) > 1e-12
                or _rel_gap(t.shadow_db, drop.shadow_db[i]) > 1e-12):
            problems.append(f"terminal {i} differs from the replayed drop")
            break
    return problems


def check_campaign(cfg, drop: Drop, model: CampaignModel, sample: np.ndarray,
                   users: list[dict], report_text: str) -> list[str]:
    """Per-user SE at the sample, every serving cell, mean and cell edge."""
    problems = []
    n = drop.x.size
    if len(users) != n:
        return [f"users.csv has {len(users)} rows, expected {n}"]
    for t in range(n):
        if int(users[t]["serving_cell"]) != model.modal_cell[t]:
            problems.append(f"terminal {t}: serving cell {users[t]['serving_cell']}, "
                            f"model says {model.modal_cell[t]}")
            break
    for j, t in enumerate(sample):
        for key, want in (("dl_se", model.dl_se[j]), ("ul_se", model.ul_se[j])):
            got = float(users[t][key])
            if _rel_gap(got, want) > SE_RTOL:
                problems.append(f"terminal {t}: {key} {got!r}, model says {want!r}")
    report = dict(line.split(" = ", 1) for line in report_text.splitlines() if " = " in line)
    for direction in ("dl", "ul"):
        se = np.array([float(u[f"{direction}_se"]) for u in users])
        edge_n = math.ceil(0.05 * n)
        expect = {
            f"{direction}_mean_se": float(se.sum() / n),
            f"{direction}_cell_edge_se": float(np.sort(se)[:edge_n].sum() / edge_n),
            f"{direction}_outage_count": int(np.count_nonzero(se == 0.0)),
        }
        for key, want in expect.items():
            got = float(report.get(key, "nan"))
            if not abs(got - want) <= 5.000001e-7:
                problems.append(f"report {key} = {got}, recomputed {want}")
    return problems


def chain_efficiency(stages) -> float:
    """Fraction of consumed power leaving the antenna, stages source to antenna."""
    waste, gain_before = 0.0, 1.0
    for gain_db, efficiency in stages:
        waste += (1.0 / efficiency - 1.0) / gain_before
        gain_before *= 10.0 ** (gain_db / 10.0)
    return 1.0 / (1.0 + waste)


def check_consumption(cfg, drop: Drop, rows: list[dict], stdout: str) -> list[str]:
    """Recompute every relay-advantage ``rhs`` and verdict from the coordinates."""
    n = drop.x.size
    if len(rows) != n:
        return [f"consumption.csv has {len(rows)} rows, expected {n}"]
    h_relay = chain_efficiency([(cfg.repeater_mixer_gain_db, cfg.repeater_mixer_efficiency),
                                (cfg.repeater_amp_gain_db, cfg.repeater_amp_efficiency)])
    h_source = chain_efficiency([(cfg.bs_baseband_gain_db, cfg.bs_baseband_efficiency),
                                 (cfg.bs_mixer_gain_db, cfg.bs_mixer_efficiency),
                                 (cfg.bs_amp_gain_db, cfg.bs_amp_efficiency)])
    g_ratio = 10.0 ** ((cfg.relay_rx_gain_db - cfg.sink_rx_gain_db) / 10.0)
    d1 = math.hypot(cfg.gateway_distance_m, cfg.altitude_m)
    problems = []
    wins = 0
    for t in range(n):
        access = math.sqrt(drop.x[t] ** 2 + drop.y[t] ** 2 + cfg.altitude_m ** 2)
        rhs = (d1 / access) ** 2 / g_ratio + h_source / h_relay
        row = rows[t]
        verdict = row["relay_preferred"] == "1"
        wins += rhs < 1.0
        gaps = [_rel_gap(float(row[k]), v) for k, v in
                (("d1_m", d1), ("d2_m", access), ("d3_m", access), ("rhs", rhs),
                 ("feeder_access_ratio_sq", (d1 / access) ** 2))]
        if (int(row["terminal_id"]) != t or max(gaps) > SE_RTOL or verdict != (rhs < 1.0)
                or abs(float(row["margin"]) - (1.0 - rhs)) > SE_RTOL * max(1.0, rhs)):
            problems.append(f"consumption row {t} disagrees: rhs {row['rhs']}, recomputed {rhs!r}")
            break
    if f"relay_preferred = {wins}/{n} terminals" not in stdout:
        problems.append(f"consumption summary does not report {wins}/{n} relay-preferred terminals")
    return problems
