"""Named-tuple records: every construction path checks, and no import generates dataclass code."""

import dataclasses
import importlib
import math
import pickle
import pkgutil

import numpy as np
import pytest

import hapsim
from hapsim.antenna import ElementPattern
from hapsim.channel import NtnTables
from hapsim.config import ScenarioConfig
from hapsim.consumption import RelayAssessment
from hapsim.errors import ConfigError
from hapsim.geometry import FlightPattern, Point3
from hapsim.simulation import AggregateStats, CampaignResult, Terminal

FLIGHT = FlightPattern(Point3(0.0, 0.0, 20_000.0), 6_000.0, 12, 30.0)
# a valid record, one field set out of its domain, and the error that must name it
CHECKED = [
    (Point3(1.0, -2.0, 3.0), "z", -1.0, ConfigError, "point below ground: z=-1.0"),
    (FLIGHT, "position_count", 0, ConfigError, "position_count must be positive"),
    (ElementPattern(8.0, 65.0, 30.0), "hpbw_deg", 0.0, ConfigError,
     "half-power beamwidth must be positive"),
    (NtnTables.default(), "los_probability", NtnTables.default().los_probability + 1.0,
     ConfigError, "LOS probabilities must lie in [0, 1]"),
    # NaN fails every range
    (Point3(1.0, -2.0, 3.0), "z", math.nan, ConfigError, "point below ground: z=nan"),
    (FLIGHT, "diameter_m", math.nan, ConfigError, "flight circle diameter must be positive"),
    (ElementPattern(8.0, 65.0, 30.0), "hpbw_deg", math.nan, ConfigError,
     "half-power beamwidth must be positive"),
]
IDS = [type(record).__name__ + (f"-{field}-nan" if isinstance(bad, float) and math.isnan(bad) else "")
       for record, field, bad, *_ in CHECKED]

PATHS = {
    "constructor": lambda record, field, bad: type(record)(**{**record._asdict(), field: bad}),
    "_make": lambda record, field, bad: type(record)._make(
        bad if name == field else value for name, value in zip(record._fields, record)),
    "_replace": lambda record, field, bad: record._replace(**{field: bad}),
}


def _equal(a, b) -> bool:
    """Field-by-field equality, arrays included."""
    return type(a) is type(b) and all(map(np.array_equal, a, b))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("record, field, bad, error, message", CHECKED, ids=IDS)
def test_every_construction_path_checks(record, field, bad, error, message, path):
    with pytest.raises(error) as err:
        PATHS[path](record, field, bad)
    assert str(err.value) == message


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("record, field, bad, error, message", CHECKED, ids=IDS)
def test_every_construction_path_keeps_a_valid_record(record, field, bad, error, message, path):
    value = getattr(record, field)
    assert _equal(PATHS[path](record, field, value), record)


@pytest.mark.parametrize("record, field, bad, error, message", CHECKED, ids=IDS)
def test_pickle_round_trip_returns_an_equal_record(record, field, bad, error, message):
    assert _equal(pickle.loads(pickle.dumps(record)), record)


@pytest.mark.parametrize("record, field, bad, error, message", CHECKED, ids=IDS)
def test_fields_cannot_be_assigned(record, field, bad, error, message):
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    with pytest.raises(AttributeError):  # no instance dict either
        record.note = "x"


@pytest.mark.parametrize("record", [record for record, *_ in CHECKED[:4]], ids=IDS[:4])
def test_a_checked_record_has_no_defaults(record):
    # a scenario key's default lives in the key table alone
    assert type(record)._field_defaults == {}
    with pytest.raises(TypeError):
        type(record)(*record[:-1])


def test_ntn_tables_hold_float_arrays():
    tables = NtnTables([10, 20], [0.5, 1], [1, 1], [4, 4], [20, 18])
    assert all(isinstance(c, np.ndarray) and c.dtype == float for c in tables)


def test_only_the_config_is_a_dataclass_and_it_generates_no_methods():
    # a dataclass compiles fresh __init__/__repr__/__eq__ source on every import of hapsim
    classes = set()
    for info in pkgutil.iter_modules(hapsim.__path__):
        module = importlib.import_module(f"hapsim.{info.name}")
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__}
    assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {"ScenarioConfig"}
    params = ScenarioConfig.__dataclass_params__  # its three methods are written out
    assert not (params.init or params.repr or params.eq)
    records = {type(record) for record, *_ in CHECKED}
    records |= {AggregateStats, CampaignResult, RelayAssessment, Terminal}
    assert records <= classes
    assert all(issubclass(c, tuple) for c in records)
