"""Monte Carlo campaign: terminal drops, scheduling and spectral efficiency.

A campaign freezes one terminal drop (positions, LOS states, shadow
draws) and replays it against every platform position of the flight
circle.  Each position is one scheduling interval: every terminal
receives one downlink packet over its equal share of the cell bandwidth
and transmits one uplink packet over its fixed allocation.  User
spectral efficiency is total bits over total time-bandwidth product, so
positions with a larger bandwidth share weigh proportionally more.

Determinism: all randomness flows from one seeded generator consumed in
a fixed order (terminal radii, angles, LOS assignment, shadow fading)
before any link evaluation starts, so identical seeds give bit-identical
results.  All platform positions are evaluated together in one thread,
as arrays with the positions on their first axis; only the uplink
co-block interference is summed one position at a time, which bounds
its memory.  All of a position's sub-intervals are scheduled by one
``ul_slot_assignments`` call, and the interference is summed once per
panel and slot key into one table that every terminal reads.  SINRs
stay in linear units from the received powers to ``sinr_to_se``: every
beam gain enters linear units through one ``exp``, scaled by one
``(P, n)`` exponential per link direction.  ``exp`` and ``log2`` take
numpy's SIMD kernels, whose last bit can differ between CPUs.  The
``workers`` setting is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import functools
import math
from collections import UserString
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import antenna, architecture, channel
from .antenna import BeamSet, ElementPattern
from .config import ScenarioConfig
from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, DomainError, OutOfCoverageError, ValidationError,
                     check_range, read_only, scalar_or_array)
from .geometry import FlightPattern, Point3, haps_position, link_geometry

__all__ = [
    "AggregateStats",
    "Terminal",
    "Drop",
    "USER_CSV_COLUMNS",
    "CampaignResult",
    "sinr_to_se",
    "aggregate_se",
    "cell_centers",
    "drop_terminals",
    "build_drop",
    "build_beams",
    "ul_slot_assignments",
    "run_campaign",
]


# ----------------------------------------------------------------------
# Link abstraction

def sinr_to_se(sinr, attenuation: float, sinr_min_db: float, se_max: float):
    """Spectral efficiency ``attenuation * log2(1 + sinr)``: zero below the floor, capped above.

    ``sinr`` is a linear power ratio: NaN or negative raises ``DomainError``
    and ``inf`` maps to ``se_max``.  The inclusive floor ``sinr_min_db`` is
    converted here; a floor beyond the float range is infinite, so every
    finite SINR falls below it, and an SE beyond it is ``se_max``.
    Vectorized; scalars in, scalar out.
    """
    sinr = np.asarray(sinr, dtype=float)
    check_range(sinr, *NON_NEGATIVE, DomainError, "SINR must be a power ratio >= 0; got {}")
    with np.errstate(over="ignore"):
        floor = np.power(10.0, sinr_min_db / 10.0)
        se = np.minimum(attenuation * np.log2(1.0 + sinr), se_max)
    se = np.where(sinr < floor, 0.0, se)
    return scalar_or_array(se)


# ----------------------------------------------------------------------
# Aggregation

class AggregateStats(NamedTuple):
    """Campaign statistics over one link direction."""

    mean_se: float
    cell_edge_se: float
    outage_count: int
    edge_user_count: int


def aggregate_se(per_user_se) -> AggregateStats:
    """Mean and cell-edge SE of a user population.

    Cell edge is the mean of the lowest ``ceil(0.05 * n)`` users; outage
    users contribute zero to both statistics rather than being dropped.
    """
    values = np.asarray(per_user_se, dtype=float)
    if values.size == 0:
        raise DomainError("cannot aggregate an empty user set")
    edge_n = math.ceil(0.05 * values.size)
    ordered = np.sort(values)
    return AggregateStats(
        mean_se=float(values.mean()),
        cell_edge_se=float(ordered[:edge_n].mean()),
        outage_count=int(np.count_nonzero(values == 0.0)),
        edge_user_count=edge_n,
    )


# ----------------------------------------------------------------------
# Layout and terminal drop

class Terminal(NamedTuple):
    """One dropped terminal with its frozen channel state."""

    terminal_id: int
    x: float
    y: float
    kind: str
    los: bool
    shadow_db: float


class Drop:
    """A terminal drop: read-only arrays in terminal-id order and its terminals' one kind; iterates as ``Terminal``s."""

    __slots__ = ("x", "y", "los", "shadow_db", "kind")

    def __init__(self, x: np.ndarray, y: np.ndarray, los: np.ndarray, shadow_db: np.ndarray, kind: str):
        self.x, self.y, self.los, self.shadow_db, self.kind = *map(read_only, (x, y, los, shadow_db)), kind

    def __len__(self) -> int:
        return self.x.size

    def __iter__(self):
        return map(Terminal, range(self.x.size), self.x.tolist(), self.y.tolist(), repeat(self.kind),
                   self.los.tolist(), self.shadow_db.tolist())


def cell_centers(layout: str, service_radius_m: float, outer_fraction: float, azimuth_offset_deg: float) -> np.ndarray:
    """Ground cell centres as an (n, 2) array.

    The single layout has one cell at the origin.  The seven-cell layout
    adds six outer centres at ``outer_fraction`` of the service radius,
    60 degrees apart from ``azimuth_offset_deg``, aligned with the
    side-panel azimuths.
    """
    if layout == "single":
        return np.zeros((1, 2))
    if layout != "seven_cell":
        raise ConfigError(f"unknown layout {layout!r}")
    d = outer_fraction * service_radius_m
    az = np.radians(azimuth_offset_deg + 60.0 * np.arange(6))
    outer = np.column_stack([d * np.cos(az), d * np.sin(az)])
    return np.vstack([np.zeros((1, 2)), outer])


_MAX_LOS_ATTEMPTS = 100_000


def _los_target_reachable(p_los: np.ndarray, target: int) -> bool:
    """False when the redraw loop has no plausible chance to hit ``target``.

    Terminals with LOS probability 0 or 1 fix part of the count.  The
    other ``m`` make up the rest, ``k``; by Hoeffding's inequality one draw
    lands on ``k`` with probability at most ``exp(-2 (k - mean)^2 / m)``,
    so all attempts together succeed with at most that times their number.
    """
    k = target - int(np.count_nonzero(p_los >= 1.0))
    p = p_los[(p_los > 0.0) & (p_los < 1.0)]
    if not 0 <= k <= p.size:
        return False
    return p.size == 0 or _MAX_LOS_ATTEMPTS * math.exp(-2.0 * (k - p.sum()) ** 2 / p.size) > 1e-9


def drop_terminals(n: int, service_radius_m: float, kind: str,
                   tables: channel.NtnTables, rng: np.random.Generator,
                   platform_center: Point3,
                   target_los: int | None = None) -> Drop:
    """Drop ``n`` terminals uniformly over the service disc.

    LOS states are Bernoulli draws from the elevation-binned probability,
    evaluated towards the flight-circle centre.  With ``target_los`` set,
    the whole assignment vector is redrawn until exactly that many
    terminals are LOS, which reproduces drops reported with fixed splits.
    Shadow fading is drawn once per terminal and reused at every platform
    position, matching a terminal that never moves.
    """
    check_range(n, *POSITIVE, ConfigError, "terminal count must be positive")
    if target_los is not None:
        check_range(target_los, 0, n, ConfigError, f"target LOS count {{}} outside [0, {n}]")
    radius = service_radius_m * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    xs = radius * np.cos(theta)
    ys = radius * np.sin(theta)

    ground = np.column_stack([xs, ys, np.zeros(n)])
    elevation, _ = link_geometry(ground, platform_center)
    bins = tables.bin_indices(elevation)
    p_los = tables.los_probability[bins]

    # one draw without a target; an unreachable target fails before the first
    attempts = 1 if target_los is None else _MAX_LOS_ATTEMPTS if _los_target_reachable(p_los, target_los) else 0
    for _ in range(attempts):
        los = rng.random(n) < p_los
        if target_los is None or np.count_nonzero(los) == target_los:
            break
    else:
        raise ValidationError(
            ("terminal_count", "target_los_count"),
            f"could not hit LOS target {target_los}/{n} (expected LOS count "
            f"{p_los.sum():.1f}); check the target against the elevation profile",
        )

    sigma = np.where(los, tables.shadow_std_los_db[bins], tables.shadow_std_nlos_db[bins])
    shadow = rng.normal(0.0, sigma)

    return Drop(xs, ys, los, shadow, kind)


class _ScenarioPath(UserString):
    """A file name from scenario text: prints as written, opens by its UTF-8 bytes in any locale."""

    def __fspath__(self):  # on Windows, too, a bytes name is UTF-8
        return self.data.encode("utf-8", "surrogateescape")


def build_drop(config: ScenarioConfig) -> tuple[Drop, channel.NtnTables]:
    """The campaign drop implied by a configuration (seed included)."""
    config.validate()
    path = config.resolved_table_path()
    if path is None:
        tables = channel.NtnTables.default()
    else:
        try:
            tables = channel.NtnTables.from_file(_ScenarioPath(path))
        except OSError as exc:  # a table that cannot be opened: the key that names it is at fault
            raise ValidationError("ntn_table_path", str(exc)) from None
    try:
        drop = drop_terminals(
            config.resolved_terminal_count(), config.resolved_cell_radius_m(), config.terminal_kind,
            tables, np.random.default_rng(config.seed), Point3(0.0, 0.0, config.altitude_m),
            config.resolved_target_los_count())
    except ValidationError as exc:  # an unreachable LOS target: these keys set the LOS probabilities
        raise ValidationError((*exc.fields, "altitude_m", "cell_radius_m", "ntn_table_path"), exc.reason) from None
    return drop, tables


# ----------------------------------------------------------------------
# Platform and attachment

def _pattern(config: ScenarioConfig, prefix: str) -> ElementPattern:
    """The pattern of the ``<prefix>_gain_dbi``, ``_hpbw_deg`` and ``_front_to_back_db`` keys."""
    return ElementPattern(*(getattr(config, f"{prefix}_{key}") for key in ("gain_dbi", "hpbw_deg", "front_to_back_db")))


def _platform(config: ScenarioConfig) -> tuple[BeamSet, np.ndarray, np.ndarray | None]:
    """The platform a scenario flies: its beams, ``(P, 3)`` flight positions and ``(P, B, 3)`` steering targets.

    The targets are ``None`` unless the beams are steered.  Nothing here depends on the seed, so
    every config with the same platform keys shares one read-only platform.
    """
    element = _pattern(config, "single_antenna" if config.layout == "single" else "array_element")
    # + 0.0 makes -0.0 a 0.0: equal keys build equal bits and share one platform
    return _build_platform(
        config.layout, config.attachment_mode == "beam_steering", config.bottom_panel_rows,
        config.bottom_panel_cols, config.side_panel_rows, config.side_panel_cols, config.flight_position_count,
        *(value + 0.0 for value in (*element, config.resolved_cell_radius_m(), config.outer_cell_center_fraction,
                                    config.side_panel_azimuth_offset_deg, config.element_spacing_wl,
                                    config.side_panel_tilt_deg, config.altitude_m,
                                    config.flight_circle_diameter_m, config.flight_angular_step_deg)))


# A sweep over seeds or presets reuses a few platforms (the ten presets fly three); this keeps eight.
@functools.lru_cache(maxsize=8)
def _build_platform(layout, steering, bottom_rows, bottom_cols, side_rows, side_cols, position_count,
                    gain_dbi, hpbw_deg, front_to_back_db, radius_m, outer_fraction, azimuth_offset_deg,
                    spacing_wl, tilt_deg, altitude_m, diameter_m, step_deg):
    element = ElementPattern(gain_dbi, hpbw_deg, front_to_back_db)
    panels = [antenna.single_element_panel(element)] if layout == "single" else antenna.hex_array(
        element, bottom_rows=bottom_rows, bottom_cols=bottom_cols, side_rows=side_rows,
        side_cols=side_cols, spacing_wl=spacing_wl, side_tilt_deg=tilt_deg,
        azimuth_offset_deg=azimuth_offset_deg)
    beams = BeamSet(panels, cell_centers(layout, radius_m, outer_fraction, azimuth_offset_deg))
    flight = FlightPattern(Point3(0.0, 0.0, altitude_m), diameter_m, position_count, step_deg)
    positions = read_only(haps_position(flight, np.arange(position_count)))
    # a steered beam aims at its cell centre on the ground
    targets = np.column_stack([beams.centers, np.zeros(len(beams.centers))]) - positions[:, None, :]
    return beams, positions, read_only(targets) if steering else None


def build_beams(config: ScenarioConfig) -> BeamSet:
    """The platform's beams and the ground cell each serves: read-only, shared by every config of that platform."""
    return _platform(config)[0]


def nominal_cells(xy: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Fixed cell of each terminal: the nearest cell centre on the ground.

    ``xy`` holds one terminal per row, ``centers`` one cell per row.
    """
    d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def ul_slot_assignments(serving: np.ndarray, offset: int = 0,
                        intervals: int = 1) -> np.ndarray:
    """Round-robin uplink slots: rank within the cell, in terminal-id order.

    Returns one slot index per terminal.  Terminals in different cells
    sharing a slot transmit simultaneously on the same resource and
    interfere; within a cell ranks are unique, so intra-cell collisions
    cannot happen.

    ``offset`` is the round-robin pointer state: each cell's pointer
    advances at its own rate (cell index + 1 steps per scheduling
    interval), so equally loaded cells do not cycle in lockstep and no
    cross-cell collision pair persists across intervals.

    ``intervals`` schedules that many consecutive intervals (offsets
    ``offset`` to ``offset + intervals - 1``) from one ranking.  The
    result is then flat, interval-major: interval ``j`` holds the keys
    ``j * width + s`` with ``width`` the largest cell load, so two
    terminals share a key exactly when they share a slot in the same
    interval.  With one interval the key is the slot itself.
    """
    serving = np.asarray(serving)
    order = np.argsort(serving, kind="stable")
    counts = np.bincount(serving)
    first = np.cumsum(counts) - counts  # position of each cell's first member in ``order``
    rank = np.empty(serving.size, dtype=np.intp)
    rank[order] = np.arange(serving.size) - first[serving[order]]
    j = np.arange(intervals)[:, None]
    shift = (offset + j) * np.arange(1, counts.size + 1) % np.maximum(counts, 1)  # cell c's pointer in interval j
    slots = rank + shift[:, serving]  # under 2 * load: min with slots - load, unsigned (huge below load), wraps once
    np.minimum(slots.view(np.uint64), (slots - counts[serving]).view(np.uint64), out=slots.view(np.uint64))
    slots += j * counts.max(initial=0)
    return slots.ravel()


def _coblock_interference(serving: np.ndarray, counts: np.ndarray, ul_lin: np.ndarray,
                          first_offset: int) -> np.ndarray:
    """Uplink co-block interference (mW), one row per sub-interval.

    Sub-interval ``j`` schedules with round-robin offset ``first_offset + j``;
    there are as many as the largest cell has members, all keyed by one
    ``ul_slot_assignments`` call.  A terminal's interferers are the terminals
    of the other cells that hold its slot key, received through its serving
    panel and summed in beam order.  That sum depends only on the panel and
    the key, so it is built once as a table (everything panel ``c`` receives
    on key ``k``, at flat index ``c * n_keys + k``) that each terminal reads.
    """
    n = serving.size
    n_sub = int(counts.max())
    n_keys = n_sub * n_sub
    idx = np.arange(n)
    # flat[j, m]: the entry of terminal m in sub-interval j, with key j * n_sub + slot
    flat = ul_slot_assignments(serving, first_offset, n_sub).reshape(n_sub, n)
    flat += serving * n_keys
    # holder[b, key]: the terminal of beam b holding the slot key; n if none
    holder = np.full((counts.size, n_keys), n)
    holder.ravel()[flat] = idx
    # power[c, m]: terminal m received through panel c.  Column n (no
    # holder) is zero, and so is each terminal's own serving panel: in its
    # own beam a terminal finds itself, which is not interference.
    power = np.zeros((counts.size, n + 1))
    power[:, :n] = ul_lin
    power[serving, idx] = 0.0
    # the first active beam starts the table: its powers are at least +0.0,
    # so it is their sum from zero.  The later takes share one buffer; the
    # keys are in range, and mode="clip" fills it without an extra copy.
    first, *rest = np.flatnonzero(counts)
    table = power.take(holder[first], axis=1)
    held = np.empty_like(table)
    for b in rest:
        table += power.take(holder[b], axis=1, out=held, mode="clip")
    return table.take(flat)


# ----------------------------------------------------------------------
# Campaign

USER_CSV_COLUMNS = (
    "terminal_id", "x", "y", "kind", "los", "serving_cell",
    "dl_se", "ul_se", "outage",
)


class CampaignResult(NamedTuple):
    """Everything a campaign produces, per terminal and aggregated."""

    config: ScenarioConfig
    terminals: Drop
    dl_se: np.ndarray
    ul_se: np.ndarray
    serving_cell: np.ndarray  # modal serving beam over the flight circle
    dl: AggregateStats
    ul: AggregateStats

    def user_rows(self) -> list[dict]:
        """Per-user records as dicts keyed by ``USER_CSV_COLUMNS``, in terminal-id order."""
        rows = zip(self.terminals, self.serving_cell.tolist(), self.dl_se.tolist(), self.ul_se.tolist())
        return [dict(zip(USER_CSV_COLUMNS, (i, x, y, kind, los, cell, dl, ul, dl == 0.0 or ul == 0.0)))
                for (i, x, y, kind, los, _), cell, dl, ul in rows]


_DB_TO_LN = math.log(10.0) / 10.0  # 10 ** (x / 10) is exp(x * _DB_TO_LN)


def run_campaign(config: ScenarioConfig) -> CampaignResult:
    """Run one full campaign over the flight circle."""
    cfg = config  # build_drop validates it before any work
    drop, tables = build_drop(cfg)
    beams, hpos, targets = _platform(cfg)

    # Every array below has the platform positions on axis 0:
    # (P, n) per terminal, (P, beams, n) per beam and terminal.
    n = len(drop)
    n_pos = cfg.flight_position_count
    xy = np.column_stack([drop.x, drop.y])
    ground = np.column_stack([xy, np.zeros(n)])
    dirs = ground - hpos[:, None, :]  # platform -> terminal, for the antennas
    elev, slant = link_geometry(ground, hpos[:, None, :])  # terminal -> platform

    clutter = np.where(drop.los, 0.0, tables.clutter_loss_nlos_db[tables.bin_indices(elev)])
    loss_dl = channel.fspl(cfg.dl_carrier_hz, slant) + drop.shadow_db + clutter
    loss_ul = channel.fspl(cfg.ul_carrier_hz, slant) + drop.shadow_db + clutter

    # Terminal antenna gain towards the platform (identical both directions:
    # omnis are flat, rooftop antennas are azimuth-aligned with the link).
    if cfg.terminal_kind == "cpe_directional":
        term_gain = antenna.element_gain(_pattern(cfg, "cpe"), 0.0, elev)
    else:
        term_gain = np.zeros((n_pos, n))

    # Every beam's gain towards every terminal
    try:
        gains = antenna.array_gain(beams, dirs, targets)
    except OutOfCoverageError as exc:
        # an altitude of at least 1 m keeps cell 0 before the nadir panel; these keys place the side cells
        keys = ("altitude_m", "flight_circle_diameter_m", "side_panel_tilt_deg", "outer_cell_center_fraction")
        raise ValidationError(keys, f"the centre of cell {exc.beam} lies behind its panel") from None

    # Downlink transmit power at each panel input.
    if cfg.architecture == "bp" and cfg.bp_feeder_chain == "explicit":
        gateway = Point3(cfg.gateway_distance_m, 0.0, 0.0)
        tx_dbm = architecture.bp_effective_dl_eirp(
            cfg.gateway_tx_power_dbm, cfg.gateway_antenna_gain_dbi,
            channel.feeder_loss(gateway, hpos, cfg.feeder_carrier_hz), cfg.repeater_gain_db,
            cfg.repeater_max_output_dbm if cfg.repeater_output_limit else None,
        )[:, None, None]
    else:
        tx_dbm = cfg.panel_tx_power_dbm

    if targets is not None:  # a steered beam serves its own cell
        serving = np.broadcast_to(nominal_cells(xy, beams.centers), (n_pos, n))
    else:  # the strongest reference signal, in dBm: ties go to the lowest beam
        serving = np.argmax(tx_dbm + gains - loss_dl[:, None, :], axis=1)
    member = serving[:, None, :] == np.arange(len(beams.centers))[:, None]  # (P, beams, n)
    counts = member.sum(axis=2)
    # per_beam[pos, serving, term] is the serving beam's entry of a (P, beams, n) array
    pos, term = np.arange(n_pos)[:, None], np.arange(n)

    # Every beam's gain enters linear units through one exponential; the rest of each
    # direction's link budget is one (P, n) exponential that scales it.
    gain_lin = np.exp(gains * _DB_TO_LN)

    # Downlink SINR: all active beams radiate from the same platform, so
    # every beam reaches a terminal through the same access loss.
    rx_lin = gain_lin * np.exp((tx_dbm - loss_dl[:, None, :] + term_gain[:, None, :]) * _DB_TO_LN)
    own_dl_lin = rx_lin[pos, serving, term]
    total_lin = rx_lin.sum(axis=1, where=counts[:, :, None] > 0)
    interference_lin = np.maximum(total_lin - own_dl_lin, 0.0)

    noise_dl_lin = 10.0 ** (architecture.thermal_noise_dbm(cfg.dl_bandwidth_hz, cfg.ue_noise_figure_db) / 10.0)
    if cfg.architecture == "bp" and cfg.bp_repeater_noise_at_ue:
        rep_noise = architecture.repeater_noise_at_ue(
            cfg.repeater_gain_db, cfg.repeater_noise_figure_db, cfg.dl_bandwidth_hz, loss_dl)
        noise_dl_lin = noise_dl_lin + 10.0 ** (rep_noise / 10.0)

    sinr_dl = own_dl_lin / (noise_dl_lin + interference_lin)
    se_dl = sinr_to_se(sinr_dl, cfg.dl_se_attenuation, cfg.dl_sinr_min_db, cfg.dl_se_max)

    # Uplink SINR: received at the serving panel through the same beam.
    if cfg.architecture == "bp" and cfg.bp_ul_noise == "cascade":
        ul_nf = architecture.bp_uplink_noise_figure(
            cfg.repeater_gain_db, cfg.repeater_noise_figure_db, cfg.gateway_noise_figure_db)
    else:
        ul_nf = cfg.bs_noise_figure_db
    noise_ul_lin = 10.0 ** (architecture.thermal_noise_dbm(cfg.ul_allocation_hz, ul_nf) / 10.0)

    ul_rx_dbm = cfg.ue_tx_power_dbm + term_gain - loss_ul  # before panel gain
    # (P, beams, n), in gain_lin's buffer: nothing reads gain_lin after this
    ul_lin = np.multiply(gain_lin, np.exp(ul_rx_dbm * _DB_TO_LN)[:, None, :], out=gain_lin)
    own_ul_lin = ul_lin[pos, serving, term]
    ul_abs = (cfg.ul_se_attenuation, cfg.ul_sinr_min_db, cfg.ul_se_max)

    # With one active cell every slot has a single holder: noise alone.
    se_ul = sinr_to_se(own_ul_lin / noise_ul_lin, *ul_abs)
    # One platform position spans many TTIs; the round-robin pointer
    # advances each TTI, so a terminal meets a rotating set of co-block
    # interferers.  Average the achieved SE over one full rotation of
    # the largest cell rather than freezing a single collision draw.
    for p in np.flatnonzero(np.count_nonzero(counts, axis=1) > 1):
        n_sub = int(counts[p].max())
        sinr_ul = _coblock_interference(serving[p], counts[p], ul_lin[p], p * n_sub)
        np.divide(own_ul_lin[p], np.add(sinr_ul, noise_ul_lin, out=sinr_ul), out=sinr_ul)
        se_ul[p] = sinr_to_se(sinr_ul, *ul_abs).sum(axis=0) / n_sub

    # Per-user SE: bits over time-bandwidth, summed over the positions.  A
    # position lasts one second; the downlink shares the cell bandwidth,
    # the uplink allocation is fixed.  The mean of capped values can round
    # one ulp past the cap, so the cap is applied again.
    share = cfg.dl_bandwidth_hz / counts[pos, serving]
    dl_se = np.minimum((se_dl * share).sum(axis=0) / share.sum(axis=0), cfg.dl_se_max)
    ul_se = np.minimum((se_ul * cfg.ul_allocation_hz).sum(axis=0)
                       / (n_pos * cfg.ul_allocation_hz), cfg.ul_se_max)

    # the most frequent serving beam; ties go to the lowest index
    modal = member.sum(axis=0).argmax(axis=0)
    return CampaignResult(config=cfg, terminals=drop, dl_se=dl_se, ul_se=ul_se,
                          serving_cell=modal, dl=aggregate_se(dl_se), ul=aggregate_se(ul_se))
