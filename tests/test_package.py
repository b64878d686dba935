"""Public facade and error hierarchy."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hapsim
from hapsim.errors import (
    ConfigError,
    ConfigSyntaxError,
    DegenerateGeometryError,
    DomainError,
    HapsimError,
    OutOfCoverageError,
    ValidationError,
)


def test_top_level_exports():
    for name in ("run_campaign", "ScenarioConfig", "fspl", "relay_advantage",
                 "power_efficiency_factor", "Point3", "NtnTables", "sinr_to_se"):
        assert hasattr(hapsim, name), name
    assert isinstance(hapsim.__version__, str)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(hapsim.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"hapsim.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exec(f"from hapsim.{module} import *", {})


def _unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(source)
    bound, exported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = ast.literal_eval(node.value)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read | set(exported))


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(hapsim.__path__)))
def test_no_module_binds_an_unused_import(module):
    # the package's __init__ imports only to re-export, so it is not checked
    source = Path(hapsim.__path__[0], f"{module}.py").read_text()
    assert _unused_imports(source) == []


def test_unused_import_check_sees_a_dead_import():
    assert _unused_imports("import math\nfrom . import config as cfg\n") == [
        "line 1: math", "line 2: cfg"]
    assert _unused_imports("import os.path\nos.sep\n__all__ = ['np']\nimport numpy as np\n") == []


def test_star_import_of_the_package():
    namespace = {}
    exec("from hapsim import *", namespace)
    assert {"run_campaign", "ScenarioConfig", "NtnTables"} <= namespace.keys()


def test_all_errors_share_one_base():
    for exc in (ConfigError, ConfigSyntaxError, ValidationError,
                DegenerateGeometryError, OutOfCoverageError, DomainError):
        assert issubclass(exc, HapsimError)
    assert issubclass(ConfigSyntaxError, ConfigError)
    assert issubclass(ValidationError, ConfigError)


def test_syntax_error_carries_line_number():
    err = ConfigSyntaxError("bad token", line_no=7)
    assert err.line_no == 7
    assert "line 7" in str(err)


def test_validation_error_names_the_field():
    err = ValidationError("altitude_m", "must be positive")
    assert err.field == "altitude_m"
    assert str(err) == "altitude_m: must be positive"


def test_one_catch_clause_covers_everything():
    with pytest.raises(HapsimError):
        hapsim.fspl(-1.0, 100.0)
    with pytest.raises(HapsimError):
        hapsim.ScenarioConfig(layout="ring").validate()


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracer.py wraps library functions by name; a rename that
    # breaks the benchmark fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    importlib.import_module("hapsim.cli")
    originals = {name: getattr(hapsim.geometry, name) for name in ("link_geometry", "haps_position")}
    tracer = tracer_mod.Tracer()
    try:  # a failed install still undoes the patches it made
        tracer.install()
        assert hapsim.geometry.link_geometry is not originals["link_geometry"]
    finally:
        tracer.uninstall()
    assert {name: getattr(hapsim.geometry, name) for name in originals} == originals
