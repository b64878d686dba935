"""Scenario configuration: flat text schema, presets, validation.

Scenario files are plain text, one ``key = value`` assignment per line;
blank lines and lines starting with ``#`` are ignored.  Every key has a
default, so an empty file is a complete scenario (the single-cell
bent-pipe baseline).  Unknown or duplicated keys are rejected.

Three keys accept the literal ``auto`` and resolve from the layout:
``terminal_count`` (20 single / 210 seven-cell), ``cell_radius_m``
(60 km / 100 km) and ``target_los_count`` (17 / 175).
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

from .errors import ConfigSyntaxError, ValidationError, read_utf8

__all__ = [
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "dump_config",
    "preset_config",
    "preset_names",
]

_ENUMS = {
    "architecture": ("bp", "rg"),
    "layout": ("single", "seven_cell"),
    "terminal_kind": ("ue_omni", "cpe_directional"),
    "attachment_mode": ("beam_steering", "beam_selection"),
    "los_assignment": ("fixed_counts", "probabilistic"),
    "bp_feeder_chain": ("compensated", "explicit"),
    "bp_ul_noise": ("matched", "cascade"),
}

# Fields that take "auto" and resolve against the layout.
_AUTO_FIELDS = ("terminal_count", "cell_radius_m", "target_los_count")

_LAYOUT_DEFAULTS = {
    "single": {"terminal_count": 20, "cell_radius_m": 60_000.0, "target_los_count": 17},
    "seven_cell": {"terminal_count": 210, "cell_radius_m": 100_000.0, "target_los_count": 175},
}


@dataclass
class ScenarioConfig:
    # Scenario selection
    architecture: str = "bp"
    layout: str = "single"
    terminal_kind: str = "ue_omni"
    attachment_mode: str = "beam_steering"
    seed: int = 1
    terminal_count: int | None = None
    los_assignment: str = "fixed_counts"
    target_los_count: int | None = None

    # Geometry
    cell_radius_m: float | None = None
    # Outer-ring cell centers sit at this fraction of the service radius.
    # 0.44 places them between the side panels' peak ground power
    # (34.5 km at 20 km altitude / 23 deg tilt) and their gain boresight
    # ring (47.1 km), matching the coverage footprint of the fixed beams.
    outer_cell_center_fraction: float = 0.44
    altitude_m: float = 20_000.0
    flight_circle_diameter_m: float = 6_000.0
    flight_position_count: int = 12
    flight_angular_step_deg: float = 30.0
    platform_speed_kmh: float = 110.0  # inert: each position is a frozen snapshot
    gateway_distance_m: float = 45_000.0

    # Carriers and bandwidth
    dl_carrier_hz: float = 2.1e9
    ul_carrier_hz: float = 1.8e9
    feeder_carrier_hz: float = 3.65e9
    dl_bandwidth_hz: float = 20e6
    ul_allocation_hz: float = 1e6

    # Transmit powers and receiver noise figures
    panel_tx_power_dbm: float = 43.0
    ue_tx_power_dbm: float = 23.0
    gateway_tx_power_dbm: float = 43.0
    gateway_antenna_gain_dbi: float = 32.3
    ue_noise_figure_db: float = 7.0
    bs_noise_figure_db: float = 5.0
    gateway_noise_figure_db: float = 3.0

    # Repeater and bent-pipe modelling switches
    repeater_gain_db: float = 105.0
    repeater_noise_figure_db: float = 7.0
    repeater_max_output_dbm: float = 30.0
    repeater_output_limit: bool = False
    bp_feeder_chain: str = "compensated"
    bp_repeater_noise_at_ue: bool = False
    bp_ul_noise: str = "matched"

    # Platform antennas
    single_antenna_gain_dbi: float = 8.0
    single_antenna_hpbw_deg: float = 65.0
    single_antenna_front_to_back_db: float = 30.0
    array_element_gain_dbi: float = 5.0
    array_element_hpbw_deg: float = 90.0
    array_element_front_to_back_db: float = 30.0
    bottom_panel_rows: int = 2
    bottom_panel_cols: int = 2
    side_panel_rows: int = 4
    side_panel_cols: int = 2
    panel_polarizations: int = 2  # inert: a link sees one co-polarized subarray
    element_spacing_wl: float = 0.5
    side_panel_tilt_deg: float = 23.0
    side_panel_azimuth_offset_deg: float = 0.0

    # Terminal antennas
    cpe_gain_dbi: float = 12.0
    cpe_hpbw_deg: float = 60.0
    cpe_front_to_back_db: float = 30.0

    # Link abstraction (truncated attenuated Shannon).  Attenuation and
    # cap are calibrated per direction against the reference campaign
    # statistics; the DL cap also keeps the amplified-repeater-noise
    # effect on any served link below the 0.2% "safely ignorable" level.
    dl_se_attenuation: float = 0.6
    dl_sinr_min_db: float = -10.0
    dl_se_max: float = 3.8
    ul_se_attenuation: float = 0.4
    ul_sinr_min_db: float = -10.0
    ul_se_max: float = 4.4

    # Channel table ("" = bundled default, unless the env var overrides)
    ntn_table_path: str = ""

    # Consumption-factor chains (gains in dB, efficiencies linear)
    repeater_mixer_gain_db: float = 10.0
    repeater_mixer_efficiency: float = 0.8
    repeater_amp_gain_db: float = 30.0  # inert: a chain's last gain never enters H
    repeater_amp_efficiency: float = 0.35
    bs_baseband_gain_db: float = 10.0
    bs_baseband_efficiency: float = 0.15
    bs_mixer_gain_db: float = 10.0
    bs_mixer_efficiency: float = 0.8
    bs_amp_gain_db: float = 30.0  # inert: a chain's last gain never enters H
    bs_amp_efficiency: float = 0.35
    relay_rx_gain_db: float = 105.0
    sink_rx_gain_db: float = 0.0

    # Execution: accepted and validated for compatibility; campaigns run
    # in one thread whatever its value.
    workers: int = 1

    # ------------------------------------------------------------------
    # Layout-dependent resolution

    def resolved_terminal_count(self) -> int:
        if self.terminal_count is not None:
            return self.terminal_count
        return _LAYOUT_DEFAULTS[self.layout]["terminal_count"]

    def resolved_cell_radius_m(self) -> float:
        if self.cell_radius_m is not None:
            return self.cell_radius_m
        return _LAYOUT_DEFAULTS[self.layout]["cell_radius_m"]

    def resolved_target_los_count(self) -> int | None:
        if self.los_assignment == "probabilistic":
            return None
        if self.target_los_count is not None:
            return self.target_los_count
        return _LAYOUT_DEFAULTS[self.layout]["target_los_count"]

    def resolved_table_path(self) -> str | None:
        """The ``ntn_table_path`` key, or ``None`` for the bundled table."""
        return self.ntn_table_path or None

    def validate(self) -> "ScenarioConfig":
        # map() keeps this check cheap: validate() runs once per scenario resolved
        values = _float_values(self)
        if not all(map(math.isfinite, filter(None, values))):
            field, value = next((f, v) for f, v in zip(_FLOAT_FIELDS, values)
                                if v is not None and not math.isfinite(v))
            raise ValidationError(field, f"must be finite; got {value}")
        for field, allowed in _ENUMS.items():
            value = getattr(self, field)
            if value not in allowed:
                raise ValidationError(
                    field, f"must be one of {', '.join(allowed)}; got {value!r}"
                )
        positive = [
            "altitude_m", "flight_circle_diameter_m", "flight_position_count",
            "flight_angular_step_deg", "gateway_distance_m",
            "dl_carrier_hz", "ul_carrier_hz", "feeder_carrier_hz",
            "dl_bandwidth_hz", "ul_allocation_hz",
            "single_antenna_hpbw_deg", "array_element_hpbw_deg", "cpe_hpbw_deg",
            "single_antenna_front_to_back_db", "array_element_front_to_back_db",
            "cpe_front_to_back_db",
            "bottom_panel_rows", "bottom_panel_cols", "side_panel_rows",
            "side_panel_cols", "panel_polarizations", "element_spacing_wl",
            "dl_se_attenuation", "dl_se_max", "ul_se_attenuation", "ul_se_max",
            "workers",
        ]
        for field in positive:
            if getattr(self, field) <= 0:
                raise ValidationError(field, f"must be positive; got {getattr(self, field)}")
        for field in ("repeater_mixer_efficiency", "repeater_amp_efficiency",
                      "bs_baseband_efficiency", "bs_mixer_efficiency",
                      "bs_amp_efficiency"):
            value = getattr(self, field)
            if not 0 < value <= 1:
                raise ValidationError(field, f"must lie in (0, 1]; got {value}")
        for field in ("ue_noise_figure_db", "bs_noise_figure_db",
                      "gateway_noise_figure_db", "repeater_noise_figure_db"):
            value = getattr(self, field)
            if value < 0:
                raise ValidationError(field, "must be non-negative: a noise figure below "
                                             f"0 dB is unphysical; got {value}")
        if self.seed < 0:
            raise ValidationError("seed", "must be non-negative")
        if not 0 < self.outer_cell_center_fraction <= 1:
            raise ValidationError("outer_cell_center_fraction", "must lie in (0, 1]")
        if not math.isclose(self.flight_position_count * self.flight_angular_step_deg, 360.0):
            raise ValidationError(
                ("flight_position_count", "flight_angular_step_deg"),
                "position count times angular step must equal 360 degrees",
            )
        if self.terminal_count is not None and self.terminal_count <= 0:
            raise ValidationError("terminal_count", "must be positive")
        if self.cell_radius_m is not None and self.cell_radius_m <= 0:
            raise ValidationError("cell_radius_m", "must be positive")
        if self.target_los_count is not None and self.target_los_count < 0:
            raise ValidationError("target_los_count", "must be non-negative")
        target, count = self.resolved_target_los_count(), self.resolved_terminal_count()
        if target is not None and target > count:
            raise ValidationError(("terminal_count", "target_los_count"),
                                  f"LOS target {target} cannot exceed terminal count {count}")
        if self.ul_allocation_hz > self.dl_bandwidth_hz:
            raise ValidationError(
                ("ul_allocation_hz", "dl_bandwidth_hz"),
                "the uplink allocation cannot exceed the system bandwidth",
            )
        return self


# ----------------------------------------------------------------------
# Parsing and canonical dumping

_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
_FLOAT_FIELDS = tuple(name for name, f in _FIELDS.items() if "float" in f.type)
_float_values = operator.attrgetter(*_FLOAT_FIELDS)


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _parse_value(key: str, raw: str):
    """The typed value of one assignment; ``ValueError`` names the type expected."""
    kind = _FIELDS[key].type
    if key in _AUTO_FIELDS:
        if raw.lower() == "auto":
            return None
        parse = int if key != "cell_radius_m" else float
        expected = f"{parse.__name__} or 'auto'"
    elif kind == "int":
        parse, expected = int, "integer"
    elif kind == "float":
        parse, expected = float, "number"
    elif kind == "bool":
        parse, expected = _parse_bool, "true/false"
    else:
        return raw
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from None


def _format_value(key: str, value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse scenario text into a validated configuration.

    Errors in the text name ``source`` and the line, and so do invalid
    values of the keys the text sets; a check across fields names the
    first line that sets one of them.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"expected 'key = value', got {line!r}", line_no, source)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValidationError(key, "unknown configuration key", line_no, source)
        if key in values:
            raise ConfigSyntaxError(f"duplicate key {key!r}", line_no, source)
        try:
            values[key] = _parse_value(key, raw_value.strip())
        except ValueError as exc:
            raise ConfigSyntaxError(str(exc), line_no, source) from None
        lines[key] = line_no
    try:
        return ScenarioConfig(**values).validate()
    except ValidationError as exc:
        line_no = min((lines[f] for f in exc.fields if f in lines), default=None)
        raise ValidationError(exc.fields, exc.reason, line_no, source) from None


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario file; an empty file is the baseline."""
    return parse_config(read_utf8(path), source=str(path))


def dump_config(config: ScenarioConfig) -> str:
    """Canonical text form: every key, declaration order, stable formatting."""
    lines = [
        f"{f.name} = {_format_value(f.name, getattr(config, f.name))}"
        for f in dataclasses.fields(ScenarioConfig)
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Presets

def _multi(mode: str, kind: str, arch: str) -> dict:
    return {
        "layout": "seven_cell",
        "attachment_mode": f"beam_{mode}",
        "terminal_kind": "ue_omni" if kind == "omni" else "cpe_directional",
        "architecture": arch,
    }


PRESETS: dict[str, dict] = {
    "single-cell-bp": {},
    "single-cell-rg": {"architecture": "rg"},
}
for _mode in ("steering", "selection"):
    for _kind in ("omni", "cpe"):
        for _arch in ("bp", "rg"):
            PRESETS[f"multi-{_mode}-{_kind}-{_arch}"] = _multi(_mode, _kind, _arch)


def preset_names() -> list[str]:
    return list(PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ValidationError(
            "preset", f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        )
    return ScenarioConfig(**PRESETS[name]).validate()
