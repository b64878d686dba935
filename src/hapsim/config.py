"""Scenario configuration: flat text schema, presets, validation.

Scenario files are plain text, one ``key = value`` assignment per line;
blank lines and lines starting with ``#`` are ignored.  Every key has a
default, so an empty file is a complete scenario (the single-cell
bent-pipe baseline).  Unknown or duplicated keys are rejected.

Each key's declaration below is its whole rule: the annotation gives its
type, and its default either names a domain (``_one_of``, ``_positive``, ``_fraction``,
``_non_negative``, ``_noise_figure``, ``_gain_db``, ``_frequency``, ``_power_dbm``, ``_beamwidth``,
``_length``, ``_panel_side`` or ``_within`` itself) or, for a number, leaves it finite only.
The keys of ``_LAYOUT_DEFAULTS`` also accept the literal ``auto`` and resolve from the layout:
``terminal_count`` (20 single / 210 seven-cell), ``cell_radius_m`` (60 km / 100 km) and
``target_los_count``, the layout's LOS share of the terminal count (17 of 20 / 175 of 210, rounded).
A ``bool`` key takes only a bool.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from dataclasses import dataclass

from .errors import FRACTION, NON_NEGATIVE, POSITIVE, ConfigSyntaxError, ValidationError, read_utf8

__all__ = [
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "with_line",
    "dump_config",
    "preset_config",
    "preset_names",
]

_LAYOUT_DEFAULTS = {
    "single": {"terminal_count": 20, "cell_radius_m": 60_000.0, "target_los_count": 17},
    "seven_cell": {"terminal_count": 210, "cell_radius_m": 100_000.0, "target_los_count": 175},
}


def _one_of(*choices: str):
    """An enumerated key; its first choice is the default."""
    return dataclasses.field(default=choices[0], metadata={"choices": choices})


def _within(lo: float, hi: float, reason: str):
    """A numeric key that admits ``lo <= value <= hi``; ``reason`` says why another fails."""
    return lambda default: dataclasses.field(default=default, metadata={"range": (lo, hi, reason)})


_positive = _within(*POSITIVE, "must be positive")
_fraction = _within(*FRACTION, "must lie in (0, 1]")
_non_negative = _within(*NON_NEGATIVE, "must be non-negative")
# finite ends far beyond any real chain, so 10 ** (value / 10) and what is built from it stay finite
_noise_figure = _within(0, 100, "must lie in [0, 100]: a noise figure below 0 dB is unphysical")
_gain_db = _within(-300, 300, "must lie in [-300, 300] dB")
# carriers and allocations: 1 Hz keeps the free-space loss and noise floor off log10(0); 1e15 Hz is beyond radio
_frequency = _within(1, 1e15, "must lie in [1, 1e+15] Hz")
_power_dbm = _within(-300, 300, "must lie in [-300, 300] dBm")
# the element pattern squares offset / beamwidth, which overflows as the beamwidth nears 0
_beamwidth = _within(0.001, 360, "must lie in [0.001, 360] degrees")
# ground and platform lengths: a squared distance overflows near 1e154 m; 1e7 m is a quarter of the Earth's girth
_length = _within(1, 1e7, "must lie in [1, 1e+07] m")
# the array sizes end where a seven-cell campaign still takes seconds and a few hundred MB: its uplink
# grows with the square of the terminal count, its memory with the positions, and the array factor's
# recurrence loops once per element of a panel side
_panel_side = _within(1, 1000, "must lie in [1, 1000]")


@dataclass(init=False, repr=False, eq=False)
class ScenarioConfig:
    # Scenario selection
    architecture: str = _one_of("bp", "rg")
    layout: str = _one_of("single", "seven_cell")
    terminal_kind: str = _one_of("ue_omni", "cpe_directional")
    attachment_mode: str = _one_of("beam_steering", "beam_selection")
    seed: int = _non_negative(1)
    terminal_count: int | None = _within(1, 5000, "must lie in [1, 5000]")(None)
    los_assignment: str = _one_of("fixed_counts", "probabilistic")
    target_los_count: int | None = _non_negative(None)

    # Geometry
    cell_radius_m: float | None = _length(None)
    # Outer-ring cell centers sit at this fraction of the service radius.
    # 0.44 places them between the side panels' peak ground power
    # (34.5 km at 20 km altitude / 23 deg tilt) and their gain boresight
    # ring (47.1 km), matching the coverage footprint of the fixed beams.
    outer_cell_center_fraction: float = _fraction(0.44)
    altitude_m: float = _length(20_000.0)
    flight_circle_diameter_m: float = _length(6_000.0)
    flight_position_count: int = _within(1, 360, "must lie in [1, 360]")(12)
    flight_angular_step_deg: float = _positive(30.0)
    platform_speed_kmh: float = 110.0  # inert: each position is a frozen snapshot
    gateway_distance_m: float = _length(45_000.0)

    # Carriers and bandwidth
    dl_carrier_hz: float = _frequency(2.1e9)
    ul_carrier_hz: float = _frequency(1.8e9)
    feeder_carrier_hz: float = _frequency(3.65e9)
    dl_bandwidth_hz: float = _frequency(20e6)
    ul_allocation_hz: float = _frequency(1e6)

    # Transmit powers and receiver noise figures
    panel_tx_power_dbm: float = _power_dbm(43.0)
    ue_tx_power_dbm: float = _power_dbm(23.0)
    gateway_tx_power_dbm: float = _power_dbm(43.0)
    gateway_antenna_gain_dbi: float = _gain_db(32.3)
    ue_noise_figure_db: float = _noise_figure(7.0)
    bs_noise_figure_db: float = _noise_figure(5.0)
    gateway_noise_figure_db: float = _noise_figure(3.0)

    # Repeater and bent-pipe modelling switches
    repeater_gain_db: float = _gain_db(105.0)
    repeater_noise_figure_db: float = _noise_figure(7.0)
    repeater_max_output_dbm: float = _power_dbm(30.0)
    repeater_output_limit: bool = False
    bp_feeder_chain: str = _one_of("compensated", "explicit")
    bp_repeater_noise_at_ue: bool = False
    bp_ul_noise: str = _one_of("matched", "cascade")

    # Platform antennas
    single_antenna_gain_dbi: float = _gain_db(8.0)
    single_antenna_hpbw_deg: float = _beamwidth(65.0)
    single_antenna_front_to_back_db: float = _positive(30.0)
    array_element_gain_dbi: float = _gain_db(5.0)
    array_element_hpbw_deg: float = _beamwidth(90.0)
    array_element_front_to_back_db: float = _positive(30.0)
    bottom_panel_rows: int = _panel_side(2)
    bottom_panel_cols: int = _panel_side(2)
    side_panel_rows: int = _panel_side(4)
    side_panel_cols: int = _panel_side(2)
    panel_polarizations: int = _positive(2)  # inert: a link sees one co-polarized subarray
    # the array factor's phase, pi times the spacing times a difference of cosines, overflows near 3e307
    element_spacing_wl: float = _within(math.ulp(0.0), 1000, "must lie in (0, 1000] wavelengths")(0.5)
    side_panel_tilt_deg: float = 23.0
    side_panel_azimuth_offset_deg: float = 0.0

    # Terminal antennas
    cpe_gain_dbi: float = _gain_db(12.0)
    cpe_hpbw_deg: float = _beamwidth(60.0)
    cpe_front_to_back_db: float = _positive(30.0)

    # Link abstraction (truncated attenuated Shannon).  Attenuation and
    # cap are calibrated per direction against the reference campaign
    # statistics; the DL cap also keeps the amplified-repeater-noise
    # effect on any served link below the 0.2% "safely ignorable" level.
    dl_se_attenuation: float = _positive(0.6)
    dl_sinr_min_db: float = -10.0
    dl_se_max: float = _positive(3.8)
    ul_se_attenuation: float = _positive(0.4)
    ul_sinr_min_db: float = -10.0
    ul_se_max: float = _positive(4.4)

    # Channel table ("" = the bundled default)
    ntn_table_path: str = ""

    # Consumption-factor chains (gains in dB, efficiencies linear)
    repeater_mixer_gain_db: float = _gain_db(10.0)
    repeater_mixer_efficiency: float = _fraction(0.8)
    repeater_amp_gain_db: float = _gain_db(30.0)  # inert: a chain's last gain never enters H
    repeater_amp_efficiency: float = _fraction(0.35)
    bs_baseband_gain_db: float = _gain_db(10.0)
    bs_baseband_efficiency: float = _fraction(0.15)
    bs_mixer_gain_db: float = _gain_db(10.0)
    bs_mixer_efficiency: float = _fraction(0.8)
    bs_amp_gain_db: float = _gain_db(30.0)  # inert: a chain's last gain never enters H
    bs_amp_efficiency: float = _fraction(0.35)
    relay_rx_gain_db: float = _gain_db(105.0)
    sink_rx_gain_db: float = _gain_db(0.0)

    # Execution: accepted and validated for compatibility; campaigns run
    # in one thread whatever its value.
    workers: int = _positive(1)

    # Written out, not generated: @dataclass would compile and run the source of these three
    # methods for some 80 keys on every import of hapsim, most of its own import time.
    def __init__(self, **values):
        if values.keys() != _DEFAULTS.keys():  # a copy with overrides passes every key
            unknown = [key for key in values if key not in _DEFAULTS]
            if unknown:
                raise TypeError(f"ScenarioConfig.__init__() got an unexpected keyword argument {unknown[0]!r}")
            values = {**_DEFAULTS, **values}
        self.__dict__ = values

    def __eq__(self, other):
        return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, _FIELDS, _values(self)))})"

    # ------------------------------------------------------------------
    # Layout-dependent resolution

    def _resolved(self, key: str):
        """A ``_LAYOUT_DEFAULTS`` key's value, or its layout's default when it is ``auto``."""
        value = self.__dict__[key]
        return _LAYOUT_DEFAULTS[self.layout][key] if value is None else value

    def resolved_terminal_count(self) -> int:
        return self._resolved("terminal_count")

    def resolved_cell_radius_m(self) -> float:
        return self._resolved("cell_radius_m")

    def resolved_target_los_count(self) -> int | None:
        if self.los_assignment == "probabilistic":
            return None
        if self.target_los_count is not None:
            return self.target_los_count
        defaults = _LAYOUT_DEFAULTS[self.layout]  # auto: the layout's LOS share of the terminal count
        return round(self.resolved_terminal_count() * defaults["target_los_count"] / defaults["terminal_count"])

    def resolved_table_path(self) -> str | None:
        """The ``ntn_table_path`` key, or ``None`` for the bundled table."""
        return self.ntn_table_path or None

    def validate(self) -> "ScenarioConfig":
        # one type and bounds test per key: validate() runs once per scenario resolved
        values = self.__dict__
        for field, choices, lo, hi, reason, kind in _DOMAINS:
            value = values[field]
            if choices is not None:
                if value in choices:
                    continue
                value = repr(value)
            elif type(value) is kind and lo <= value <= hi or value is None and field in _AUTO:
                continue
            elif kind is bool:  # only a bool prints back: "no" would run as on and print as no
                value = repr(value)
            elif isinstance(value, float) and not -math.inf < value < math.inf:
                reason = "must be finite"
            # only ints, and floats on a float key, print back: a bool prints as true/false, and
            # numpy's bool and float32 neither print as nor parse back to the value that ran
            elif type(value) is bool or not (hasattr(value, "__index__")
                                             or kind is float and isinstance(value, float)):
                reason, value = f"must be {'an integer' if kind is int else 'a number'}", repr(value)
            elif lo <= value <= hi:
                continue
            raise ValidationError(field, f"{reason}; got {value}")
        path = self.ntn_table_path  # parsing strips a value and reads one line: only so it round-trips
        if type(path) is not str:
            raise ValidationError("ntn_table_path", f"must be a string; got {path!r}")
        if path != path.strip() or len(path.splitlines()) > 1 or "\0" in path:  # no file has a NUL in its name
            raise ValidationError("ntn_table_path", f"must be one line without outer whitespace or NUL; got {path!r}")
        if not math.isclose(self.flight_position_count * self.flight_angular_step_deg, 360.0):
            raise ValidationError(
                ("flight_position_count", "flight_angular_step_deg"),
                "position count times angular step must equal 360 degrees",
            )
        target, count = self.resolved_target_los_count(), self.resolved_terminal_count()
        if target is not None and target > count:
            raise ValidationError(("terminal_count", "target_los_count"),
                                  f"LOS target {target} cannot exceed terminal count {count}")
        if count * self.flight_position_count > 240_000:  # caps the (P, beams, n) arrays' memory, not the run time
            raise ValidationError(("terminal_count", "flight_position_count"), "terminal count times position "
                                  f"count must not exceed 240000; got {count * self.flight_position_count}")
        if self.ul_allocation_hz > self.dl_bandwidth_hz:
            raise ValidationError(
                ("ul_allocation_hz", "dl_bandwidth_hz"),
                "the uplink allocation cannot exceed the system bandwidth",
            )
        return self


# ----------------------------------------------------------------------
# The key table, parsing and canonical dumping

_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
_DEFAULTS = {name: f.default for name, f in _FIELDS.items()}
_values = operator.attrgetter(*_FIELDS)  # every key's value, in declaration order
_AUTO = _LAYOUT_DEFAULTS["single"].keys()


def _domain_of(f: dataclasses.Field) -> tuple | None:
    """``(field, choices, lo, hi, reason, kind)`` for a key with a domain, else ``None``."""
    if "choices" in f.metadata:
        choices = f.metadata["choices"]
        return f.name, choices, None, None, f"must be one of {', '.join(choices)}", False
    if f.type == "bool":
        return f.name, None, False, True, "must be true or false", bool
    if not f.type.startswith(("int", "float")):
        return None
    lo, hi, reason = f.metadata.get("range", (-math.inf, math.inf, "must be finite"))
    if f.type.startswith("float"):
        # clipped to the finite floats: nan fails every comparison, +-inf these bounds
        lo, hi = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)
    return f.name, None, lo, hi, reason, int if f.type.startswith("int") else float


# every key with a domain, in declaration order
_DOMAINS = tuple(filter(None, map(_domain_of, _FIELDS.values())))


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


_PARSERS = {"int": (int, "integer"), "float": (float, "number"),
            "bool": (_parse_bool, "true/false"), "str": (str, "text")}


def _parse_value(key: str, raw: str):
    """The typed value of one assignment; ``ValueError`` names the type expected."""
    parse, expected = _PARSERS[_FIELDS[key].type.partition(" ")[0]]
    if key in _AUTO:
        if raw.lower() == "auto":
            return None
        expected = f"{parse.__name__} or 'auto'"
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from None


def _format_value(key: str, value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # float's own repr, so numpy's float64 prints as a float
        return float.__repr__(value)
    return str(value)


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse scenario text into a validated configuration.

    Errors in the text name ``source`` and the line, and so do invalid
    values of the keys the text sets; a check across fields names the
    first line that sets one of them.
    """
    values: dict[str, object] = {}
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
    try:
        return ScenarioConfig(**values).validate()
    except ValidationError as exc:
        raise with_line(exc, text, source) from None


def with_line(exc: ValidationError, text: str, source, unset=()) -> ValidationError:
    """``exc`` naming ``source`` and the first line of scenario ``text`` that sets one of its keys not in ``unset``."""
    keys = (raw.partition("=")[0].strip() for raw in text.splitlines())
    line_no = next((n for n, key in enumerate(keys, 1) if key in exc.fields and key not in unset), None)
    return ValidationError(exc.fields, exc.reason, line_no, source)


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario file; an empty file is the baseline."""
    return parse_config(read_utf8(path), source=str(path))


def dump_config(config: ScenarioConfig) -> str:
    """Canonical text form: every key, declaration order, stable formatting."""
    lines = [f"{key} = {_format_value(key, value)}" for key, value in zip(_FIELDS, _values(config))]
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
    """A preset's scenario, not validated: the presets are constants, and ``build_drop`` validates."""
    if name not in PRESETS:
        raise ValidationError(
            "preset", f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
        )
    return ScenarioConfig(**PRESETS[name])
