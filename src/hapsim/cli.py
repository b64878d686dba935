"""Command-line entry point.

Subcommands:

* ``run``          - simulate one campaign and write its artifacts
* ``consumption``  - relay-versus-direct power-efficiency assessment
* ``validate``     - run a scenario's campaign, writing nothing, then print its canonical form

A scenario comes from ``--preset`` or ``--config`` (neither, or an empty file,
is the single-cell bent-pipe baseline); ``--seed`` and ``--arch`` override
individual fields without editing the file.  ``run`` still accepts
``--workers`` for compatibility; it has no effect.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from pathlib import Path

from . import consumption as consumption_mod
from . import report as report_mod
from .config import ScenarioConfig, dump_config, load_config, preset_config, preset_names, with_line
from .errors import HapsimError, ValidationError, read_utf8
from .geometry import Point3
from .simulation import build_drop, run_campaign

__all__ = ["main"]
_FLAGS = {"seed": "seed", "architecture": "arch", "workers": "workers"}  # key: the argument of the flag setting it


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", metavar="PATH", help="scenario file")
    source.add_argument("--preset", metavar="NAME",
                        help=f"built-in scenario ({', '.join(preset_names())})")
    parser.add_argument("--seed", type=int, metavar="N", help="override the drop seed")
    parser.add_argument("--arch", choices=("bp", "rg"), help="override the architecture")


def _scenario_from_args(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else preset_config(_scenario_name(args))
    overrides = {key: getattr(args, flag, None) for key, flag in _FLAGS.items()}
    # not validated here: every command reaches ``build_drop``, which validates first
    return ScenarioConfig(**{**vars(cfg), **{k: v for k, v in overrides.items() if v is not None}})


def _scenario_name(args) -> str:
    """The config file's stem, else the preset's name; a command given neither runs ``single-cell-bp``."""
    # the default lives here: argparse tells a --config/--preset clash only from --preset's None default
    return Path(args.config).stem if args.config else args.preset or "single-cell-bp"


def _cmd_run(args) -> int:
    cfg = _scenario_from_args(args)
    result = run_campaign(cfg)
    # created only now, so that a failed campaign leaves no empty directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dl_text, ul_text = report_mod.write_users_csv(out / "users.csv", result)
    text = report_mod.write_report(out / "report.txt", result, _scenario_name(args))
    report_mod.write_cdf(out / "cdf_dl.txt", result.dl_se, dl_text)
    report_mod.write_cdf(out / "cdf_ul.txt", result.ul_se, ul_text)
    print(text, end="")
    print(f"artifacts written to {out}")
    return 0


def _cmd_consumption(args) -> int:
    cfg = _scenario_from_args(args)
    drop, _ = build_drop(cfg)

    def stage(name):  # the ``<name>_gain_db`` and ``<name>_efficiency`` keys
        gain_db, efficiency = getattr(cfg, f"{name}_gain_db"), getattr(cfg, f"{name}_efficiency")
        return 10.0 ** (gain_db / 10.0), efficiency

    h_relay = consumption_mod.repeater_chain_efficiency(stage("repeater_mixer"), stage("repeater_amp"))
    h_source = consumption_mod.base_station_chain_efficiency(
        stage("bs_baseband"), stage("bs_mixer"), stage("bs_amp"))
    platform = Point3(0.0, 0.0, cfg.altitude_m)
    gateway = Point3(cfg.gateway_distance_m, 0.0, 0.0)
    assessment = consumption_mod.haps_relay_assessment(
        drop.x, drop.y, platform, gateway, cfg.relay_rx_gain_db, cfg.sink_rx_gain_db, h_relay, h_source)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_mod.write_consumption_csv(out / "consumption.csv", assessment)

    preferred = int(assessment.relay_preferred.sum())
    worst_ratio = float(assessment.feeder_access_ratio_sq.max())
    print(f"h_relay = {h_relay:.6f}")
    print(f"h_source = {h_source:.6f}")
    print(f"relay_preferred = {preferred}/{len(drop)} terminals")
    print(f"max_feeder_access_ratio_sq = {worst_ratio:.4f} (bound 6.25)")
    print(f"artifacts written to {out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _scenario_from_args(args)
    run_campaign(cfg)  # accepts exactly what ``run`` accepts; writes nothing
    print(dump_config(cfg), end="")
    return 0


@functools.cache  # one parser per process: every main() call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapsim",
        description="HAPS network simulator: bent-pipe vs. regenerative payloads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one campaign")
    _add_scenario_args(p_run)
    p_run.add_argument("--out", metavar="DIR", default="out", help="artifact directory")
    p_run.add_argument("--workers", type=int, metavar="N",
                       help="accepted for compatibility; campaigns run in one thread")
    p_run.set_defaults(func=_cmd_run)

    p_cons = sub.add_parser("consumption", help="relay power-efficiency assessment")
    _add_scenario_args(p_cons)
    p_cons.add_argument("--out", metavar="DIR", default="out", help="artifact directory")
    p_cons.set_defaults(func=_cmd_consumption)

    p_val = sub.add_parser("validate", help="validate a scenario and print it")
    _add_scenario_args(p_val)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):  # UTF-8 in every locale, as the artifacts are,
        if isinstance(stream, io.TextIOWrapper):  # a name's bytes as they came
            stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except ValidationError as exc:  # one with no line was raised once the campaign started
            if exc.line_no is not None or not args.config:
                raise
            # a flag's value is checked only there, so no line of the file is blamed for its key
            raise with_line(exc, read_utf8(args.config), args.config, unset=_FLAGS) from None
    except (HapsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
