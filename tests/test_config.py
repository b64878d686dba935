"""Scenario file parsing, validation, presets and canonical dumping."""

import copy
import dataclasses
import math
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapsim.config import (
    ScenarioConfig,
    dump_config,
    load_config,
    parse_config,
    preset_config,
    preset_names,
)
from hapsim.errors import ConfigError, ConfigSyntaxError, ValidationError
from hapsim.simulation import run_campaign

FIELDS = dataclasses.fields(ScenarioConfig)
NUMERIC = [f.name for f in FIELDS if f.type.startswith(("int", "float"))]
FLOATS = [f.name for f in FIELDS if f.type.startswith("float")]
INTS = [f.name for f in FIELDS if f.type.startswith("int")]
BOOLS = [f.name for f in FIELDS if f.type == "bool"]
TEXTS = [f.name for f in FIELDS if f.type == "str" and "choices" not in f.metadata]
AUTO = ("terminal_count", "cell_radius_m", "target_los_count")
_FIELD = {f.name: f for f in FIELDS}


def _domain(f: dataclasses.Field) -> tuple[float, float]:
    """The bounds a numeric key admits; a number without a declared domain need only be finite."""
    lo, hi, _ = f.metadata.get("range", (-math.inf, math.inf, None))
    return lo, hi


def _out_of_domain(f: dataclasses.Field) -> list[str]:
    """Scenario-text values outside a key's domain; none for a key without one."""
    if "choices" in f.metadata:
        return ["mesh"]
    if f.name not in NUMERIC:
        return []
    lo, hi = _domain(f)
    values = ["inf", "-inf"] if lo < 0 else ["-1" if lo == 0 else "0"]
    if -math.inf < lo < 0:
        values.append(f"{lo - 1:g}")
    if hi < math.inf:  # every digit: 1e15 + 1 must not print as 1e+15
        values.append(f"{hi + 1:.17g}")
    return values


def _closed_bounds(f: dataclasses.Field) -> list[str]:
    """Scenario-text bounds a key admits: its finite whole-number ends (a positive key's is not)."""
    return [f"{end:g}" for end in _domain(f) if math.isfinite(end) and end == round(end)]


def test_empty_text_is_the_baseline():
    cfg = parse_config("")
    assert cfg == ScenarioConfig()
    assert cfg.architecture == "bp"
    assert cfg.layout == "single"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# scenario\n\n  # indented comment\nseed = 9\n")
    assert cfg.seed == 9


def test_values_parse_by_field_type():
    cfg = parse_config(
        "architecture = rg\n"
        "altitude_m = 21e3\n"
        "flight_position_count = 6\n"
        "flight_angular_step_deg = 60\n"
        "repeater_output_limit = yes\n"
    )
    assert cfg.architecture == "rg"
    assert cfg.altitude_m == 21000.0
    assert cfg.flight_position_count == 6
    assert cfg.repeater_output_limit is True


def test_auto_fields_resolve_from_layout():
    single = parse_config("terminal_count = auto\ncell_radius_m = auto\ntarget_los_count = auto\n")
    assert single.terminal_count is None
    assert single.resolved_terminal_count() == 20
    assert single.resolved_cell_radius_m() == 60_000.0
    assert single.resolved_target_los_count() == 17

    seven = parse_config("layout = seven_cell\n")
    assert seven.resolved_terminal_count() == 210
    assert seven.resolved_cell_radius_m() == 100_000.0
    assert seven.resolved_target_los_count() == 175


def test_explicit_counts_override_auto():
    cfg = parse_config("terminal_count = 50\ntarget_los_count = 40\n")
    assert cfg.resolved_terminal_count() == 50
    assert cfg.resolved_target_los_count() == 40


def test_probabilistic_los_disables_target():
    cfg = parse_config("los_assignment = probabilistic\ntarget_los_count = 17\n")
    assert cfg.resolved_target_los_count() is None


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown configuration key"):
        parse_config("carrier = 2.1e9\n")


def test_unknown_key_names_source_and_line():
    with pytest.raises(ValidationError, match=r"^scenario.cfg, line 3: carrier: unknown") as err:
        parse_config("seed = 1\n# comment\ncarrier = 2.1e9\n", source="scenario.cfg")
    assert err.value.field == "carrier"
    assert err.value.line_no == 3


# an int key read from a file is never infinite, so only nan is tried for it
@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{value}-{key}") for key in NUMERIC
    for value in ((math.nan, math.inf, -math.inf) if key in FLOATS else (math.nan,))
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ValidationError, match=f"must be finite; got {value}$") as err:
        ScenarioConfig(**{key: value}).validate()
    assert err.value.field == key


# a scenario file parses an int key with ``int``; only in-process values can be other numbers
@pytest.mark.parametrize("key, value, reason", [
    pytest.param(key, value, reason, id=f"{value}-{key}") for key in INTS
    for value, reason in ((0.5, "must be an integer"), (math.inf, "must be finite"))
])
def test_int_keys_reject_non_integers(key, value, reason):
    with pytest.raises(ValidationError, match=f"^{key}: {reason}; got {value}$") as err:
        ScenarioConfig(**{key: value}).validate()
    assert err.value.field == key


# a bool is an int, but dump_config prints it as true/false, which no numeric key parses
@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{value}-{key}") for key in NUMERIC for value in (True, False)
])
def test_numeric_keys_reject_bools(key, value):
    reason = "must be an integer" if key in INTS else "must be a number"
    with pytest.raises(ValidationError, match=f"^{key}: {reason}; got {value}$") as err:
        ScenarioConfig(**{key: value}).validate()
    assert err.value.field == key


@pytest.mark.parametrize("key", INTS)
def test_int_keys_take_numpy_integers(key):
    value = getattr(ScenarioConfig(), key) or {"terminal_count": 20, "target_los_count": 17}[key]
    assert ScenarioConfig(**{key: np.int64(value)}).validate() == ScenarioConfig(**{key: value})


# a numpy bool or float32 neither prints as nor parses back to the value that ran, and a
# string, a complex or None (outside the auto keys) is no number; none may warn on its way out
@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{value!r}-{key}") for key in NUMERIC
    for value in (np.True_, "1", 1j, np.float32(1)) + ((None,) if key not in AUTO else ())
])
def test_numeric_keys_reject_values_that_do_not_print_back(key, value):
    reason = "must be an integer" if key in INTS else "must be a number"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{key}: {reason}; got {re.escape(repr(value))}$") as err:
            ScenarioConfig(**{key: value}).validate()
    assert err.value.field == key


# only a bool prints back: "no" would run as on, print as no and parse back as off; and only a
# str is a table path (None and 3 have no strip, and b"x" would print as b'x')
@pytest.mark.parametrize("key, value, reason", [
    pytest.param(key, value, reason, id=f"{value!r}-{key}")
    for keys, values, reason in (
        (BOOLS, ("no", "yes", 0, 1, 2, None, np.True_), "must be true or false"),
        (TEXTS, (None, 3, b"x"), "must be a string"),
    ) for key in keys for value in values
])
def test_bool_and_text_keys_reject_other_types(key, value, reason):
    with pytest.raises(ValidationError, match=f"^{key}: {reason}; got {re.escape(repr(value))}$") as err:
        ScenarioConfig(**{key: value}).validate()
    assert err.value.field == key


@pytest.mark.parametrize("key", FLOATS)
def test_float_keys_take_numpy_floats_and_print_them_as_floats(key):
    default = getattr(ScenarioConfig(), key)
    value = np.float64(1.0 if default is None else default)
    cfg = ScenarioConfig(**{key: value}).validate()
    text = dump_config(cfg)
    assert f"\n{key} = {float(value)!r}\n" in text and "np." not in text
    assert parse_config(text) == cfg


def test_a_non_integer_seed_fails_validation_before_the_campaign():
    with pytest.raises(ValidationError, match="^seed: must be an integer; got 0.5$"):
        run_campaign(ScenarioConfig(seed=0.5))


@pytest.mark.parametrize("path", [" t.csv", "t.csv ", "\tt.csv", "t.csv\n", "a\nseed = 5"])
def test_a_table_path_that_would_not_round_trip_is_rejected(path):
    with pytest.raises(ValidationError, match="^ntn_table_path: must be one line without outer"):
        ScenarioConfig(ntn_table_path=path).validate()


# their domain is their type, which the parser gives every value it reads from a file
def test_every_key_but_the_bools_and_the_table_path_has_out_of_domain_text():
    assert [f.name for f in FIELDS if not _out_of_domain(f)] == BOOLS + TEXTS == [
        "repeater_output_limit", "bp_repeater_noise_at_ue", "ntn_table_path"]


@pytest.mark.parametrize("key, raw", [(f.name, raw) for f in FIELDS for raw in _out_of_domain(f)])
def test_out_of_domain_value_names_its_key_and_line(key, raw):
    with pytest.raises(ValidationError, match=rf"^s\.cfg, line 2: {key}: .*; got ") as err:
        parse_config(f"# out of domain on the next line\n{key} = {raw}\n", source="s.cfg")
    assert err.value.field == key
    assert err.value.line_no == 2


def _companions(key: str, raw: str) -> str:
    """What the checks across keys need beside ``key = raw``: a turn of positions, a count above the target."""
    if key == "flight_position_count":
        return f"flight_angular_step_deg = {360.0 / int(raw)!r}\n"
    return {"ul_allocation_hz": "dl_bandwidth_hz = 1e15\n",  # no allocation exceeds the bandwidth
            "terminal_count": "los_assignment = probabilistic\n"}.get(key, "")


@pytest.mark.parametrize("key, raw", [(f.name, raw) for f in FIELDS for raw in _closed_bounds(f)])
def test_closed_domain_bounds_are_accepted(key, raw):
    cfg = parse_config(f"{_companions(key, raw)}{key} = {raw}\n")
    assert getattr(cfg, key) == float(raw)


README = Path(__file__).parents[1] / "README.md"


def test_readme_names_every_key():
    readme = README.read_text(encoding="utf-8")
    assert [f.name for f in FIELDS if not re.search(rf"(?<!\w){f.name}(?!\w)", readme)] == []


def _key_list() -> list[str]:
    """The bullets of README's list of every key by domain, each joined into one line."""
    text = README.read_text(encoding="utf-8").partition("Every key, by domain:\n\n")[2].partition("\n\n")[0]
    return [" ".join(bullet.split()) for bullet in re.split(r"(?m)^- ", text) if bullet.strip()]


@pytest.mark.parametrize("key", [f.name for f in FIELDS if "range" in f.metadata])
def test_the_readme_key_list_prints_each_range_as_the_key_table_does(key):
    # "must lie in [1, 1e+07] m" prints its ends as "[1, 1e+07] m"; "must be positive" as "positive"
    reason = _FIELD[key].metadata["range"][2].partition(":")[0]
    ends = reason.removeprefix("must lie in ") if reason.startswith("must lie in ") else reason.removeprefix("must be ")
    holding = [bullet for bullet in _key_list() if f"`{key}`" in bullet]
    assert len(holding) == 1, holding
    assert ends in holding[0]


def test_the_first_invalid_key_in_declaration_order_is_named():
    # seed is declared before the three other keys, whatever their domains
    with pytest.raises(ValidationError, match="^<string>, line 4: seed: ") as err:
        parse_config("workers = 0\naltitude_m = nan\nbp_ul_noise = loud\nseed = -1\n")
    assert err.value.line_no == 4


def _admitted(f: dataclasses.Field) -> st.SearchStrategy:
    """Any value a key's domain admits."""
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    if f.type == "bool":
        return st.booleans()
    if f.type == "str":
        return _PATHS
    lo, hi = _domain(f)
    if f.type.startswith("int"):
        values = st.integers(min_value=math.ceil(lo), max_value=hi if hi < math.inf else None)
    else:
        values = st.floats(min_value=lo if lo > -math.inf else None,
                           max_value=hi if hi < math.inf else None,
                           allow_nan=False, allow_infinity=False)
    return st.none() | values if f.name in AUTO else values


_PATHS = st.from_regex(r"[\w./-]*", fullmatch=True)
_EDGES = st.sampled_from(["", " ", "\t", "\n"])  # what parsing strips from a value
_BREAKS = st.sampled_from(["", "\n", "\r", "\u2028"])  # what splits scenario text into lines


@st.composite
def _table_paths(draw) -> tuple[str, bool]:
    """A table path, and whether it is one line without outer whitespace."""
    if draw(st.booleans()):
        return draw(_PATHS), True
    lead, brk, trail = draw(st.tuples(_EDGES, _BREAKS, _EDGES).filter(any))
    return lead + draw(_PATHS) + brk + draw(_PATHS) + trail, False


@st.composite
def _configs(draw) -> ScenarioConfig:
    cfg = ScenarioConfig(**{f.name: draw(_admitted(f)) for f in FIELDS})
    # the four checks across keys
    cfg.dl_bandwidth_hz = max(cfg.dl_bandwidth_hz, cfg.ul_allocation_hz)  # each stays in its domain
    target, count = cfg.resolved_target_los_count(), cfg.resolved_terminal_count()
    if target is not None and target > count:  # the count rises to the target where its end admits it
        if target <= _domain(_FIELD["terminal_count"])[1]:
            cfg.terminal_count = target
        else:
            cfg.target_los_count = count
    # the positions fall to what the count admits: at most 240000 terminal positions
    cfg.flight_position_count = min(cfg.flight_position_count, 240_000 // cfg.resolved_terminal_count())
    cfg.flight_angular_step_deg = 360.0 / cfg.flight_position_count
    return cfg


@settings(max_examples=120, deadline=None)
@given(_configs(), _table_paths())
def test_any_admitted_config_round_trips_through_its_dump(cfg, table_path):
    cfg.ntn_table_path, one_clean_line = table_path
    if one_clean_line:
        assert parse_config(dump_config(cfg)) == cfg
    else:  # a padded or broken path would not parse back: validate() rejects it
        with pytest.raises(ValidationError, match="^ntn_table_path: "):
            cfg.validate()


def test_invalid_value_names_source_and_line():
    with pytest.raises(ValidationError,
                       match=r"^scenario.cfg, line 3: altitude_m: must be finite") as err:
        parse_config("seed = 1\n# comment\naltitude_m = nan\n", source="scenario.cfg")
    assert err.value.field == "altitude_m"
    assert err.value.line_no == 3
    # a check across fields names the first line that sets a field it blames
    with pytest.raises(ValidationError, match=r"^<string>, line 1: terminal_count, "
                                              r"target_los_count: LOS target 9 cannot") as err:
        parse_config("terminal_count = 5\ntarget_los_count = 9\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize("text, fields, line_no", [
    # 10 positions of the default 30-degree step miss the full circle
    ("flight_position_count = 10\n", "flight_position_count, flight_angular_step_deg", 1),
    # the default 1 MHz uplink allocation exceeds a 500 kHz system bandwidth
    ("dl_bandwidth_hz = 5e5\n", "ul_allocation_hz, dl_bandwidth_hz", 1),
    ("seed = 2\nflight_angular_step_deg = 40\nflight_position_count = 10\n",
     "flight_position_count, flight_angular_step_deg", 2),
    # the single layout's auto LOS target of 17 exceeds five terminals
    ("terminal_count = 5\n", "terminal_count, target_los_count", 1),
], ids=["position_count", "dl_bandwidth", "both_set", "auto_los_target"])
def test_cross_field_check_names_its_fields_and_first_line(text, fields, line_no):
    with pytest.raises(ValidationError, match=rf"^scenario.cfg, line {line_no}: {fields}: ") as err:
        parse_config(text, source="scenario.cfg")
    assert err.value.fields == tuple(fields.split(", "))
    assert err.value.line_no == line_no


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigSyntaxError, match="duplicate key") as err:
        parse_config("seed = 1\nseed = 2\n")
    assert "2" in str(err.value)


def test_malformed_line_reports_line():
    with pytest.raises(ConfigSyntaxError, match="key = value"):
        parse_config("seed = 1\njust some words\n")


def test_bad_value_types_rejected():
    with pytest.raises(ConfigSyntaxError, match="expected integer"):
        parse_config("seed = one\n")
    with pytest.raises(ConfigSyntaxError, match="expected number"):
        parse_config("altitude_m = high\n")
    with pytest.raises(ConfigSyntaxError, match="true/false"):
        parse_config("repeater_output_limit = maybe\n")
    with pytest.raises(ConfigSyntaxError, match="'auto'"):
        parse_config("terminal_count = many\n")


def test_enum_validation():
    with pytest.raises(ValidationError, match="architecture"):
        parse_config("architecture = mesh\n")
    with pytest.raises(ValidationError, match="attachment_mode"):
        ScenarioConfig(attachment_mode="nearest").validate()


def test_range_validation():
    with pytest.raises(ValidationError, match="must be positive"):
        ScenarioConfig(dl_bandwidth_hz=0.0).validate()
    with pytest.raises(ValidationError, match="seed"):
        ScenarioConfig(seed=-1).validate()
    with pytest.raises(ValidationError, match="outer_cell_center_fraction"):
        ScenarioConfig(outer_cell_center_fraction=1.5).validate()
    with pytest.raises(ValidationError, match="ul_allocation_hz"):
        ScenarioConfig(ul_allocation_hz=30e6).validate()
    with pytest.raises(ValidationError, match="target_los_count"):
        ScenarioConfig(target_los_count=21).validate()
    with pytest.raises(ValidationError, match="360"):
        ScenarioConfig(flight_position_count=10).validate()


def test_dump_lists_every_field_once():
    text = dump_config(ScenarioConfig())
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert "terminal_count = auto" in text
    assert "repeater_output_limit = false" in text


def test_the_constructor_takes_keys_only_and_names_an_unknown_one():
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'$"):
        ScenarioConfig(seed=2, colour="red")
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'$"):
        ScenarioConfig(**dataclasses.asdict(ScenarioConfig()), colour="red")
    with pytest.raises(TypeError, match="positional argument"):
        ScenarioConfig("rg")


def test_a_config_owns_its_values():
    cfg = ScenarioConfig()
    cfg.seed = 9  # configs are not frozen
    every_key = dataclasses.asdict(cfg)
    copied = ScenarioConfig(**every_key)
    copied.seed = 10
    assert (ScenarioConfig().seed, cfg.seed, every_key["seed"]) == (1, 9, 9)


def test_configs_compare_by_value_and_are_unhashable():
    a, b = ScenarioConfig(seed=3), ScenarioConfig(seed=3)
    assert a == b and not a != b
    assert a != ScenarioConfig(seed=4) and not a == ScenarioConfig(seed=4)
    assert a != dataclasses.astuple(a) and a != dump_config(a) and a != object()
    with pytest.raises(TypeError):
        hash(a)


def test_repr_lists_every_key_in_declaration_order():
    cfg = ScenarioConfig(layout="seven_cell", ntn_table_path="t.csv")
    fields = ", ".join(f"{f.name}={getattr(cfg, f.name)!r}" for f in FIELDS)
    assert repr(cfg) == f"ScenarioConfig({fields})"


def test_dataclass_helpers_pickle_and_copy_keep_the_config():
    cfg = preset_config("multi-selection-cpe-rg")
    assert dataclasses.replace(cfg, seed=5) == ScenarioConfig(**{**dataclasses.asdict(cfg), "seed": 5})
    assert dataclasses.replace(cfg, seed=5) != cfg and cfg.seed == 1
    assert list(dataclasses.asdict(cfg)) == [f.name for f in dataclasses.fields(cfg)]
    for twin in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
        assert twin == cfg and twin is not cfg


def test_dump_parse_round_trip_is_identity():
    for name in preset_names():
        cfg = preset_config(name)
        assert parse_config(dump_config(cfg)) == cfg
    custom = ScenarioConfig(seed=7, altitude_m=19_500.0, terminal_count=33)
    assert parse_config(dump_config(custom)) == custom


def test_load_config_from_file(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text("layout = seven_cell\nseed = 4\n")
    cfg = load_config(p)
    assert cfg.layout == "seven_cell"
    assert cfg.seed == 4


def test_load_config_reads_utf8_and_names_the_line_of_a_bad_byte(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_bytes("# Höhenplattform\nseed = 4\n".encode("utf-8"))
    assert load_config(p).seed == 4
    p.write_bytes(b"seed = 4\n# H\xf6henplattform\n")
    with pytest.raises(ConfigError, match=r"scenario\.cfg, line 2: not valid UTF-8 \(byte 0xf6\)$"):
        load_config(p)


def test_preset_catalogue():
    names = preset_names()
    assert "single-cell-bp" in names
    assert "single-cell-rg" in names
    assert len(names) == 10  # 2 single + 2 modes x 2 kinds x 2 architectures
    for name in names:  # a lookup does not validate its constant, so the catalogue is checked here
        preset_config(name).validate()
    cpe = preset_config("multi-selection-cpe-rg")
    assert cpe.layout == "seven_cell"
    assert cpe.attachment_mode == "beam_selection"
    assert cpe.terminal_kind == "cpe_directional"
    assert cpe.architecture == "rg"
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_config("multi-anything")


def test_table_path_resolves_from_the_key_alone(monkeypatch):
    # a table path in the environment plays no part
    monkeypatch.setenv("HAPSIM_NTN_TABLES", "/tmp/alt.csv")
    assert ScenarioConfig().resolved_table_path() is None
    explicit = ScenarioConfig(ntn_table_path="/etc/custom.csv")
    assert explicit.resolved_table_path() == "/etc/custom.csv"
    parsed = parse_config("ntn_table_path = /etc/custom.csv\n")
    assert parsed.resolved_table_path() == "/etc/custom.csv"
