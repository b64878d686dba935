"""Command-line interface: artifacts, overrides, error reporting."""

import argparse
import contextlib
import dataclasses
import errno
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hapsim
from hapsim.channel import NtnTables
from hapsim.cli import main
from hapsim.config import ScenarioConfig, dump_config, preset_config, preset_names


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--preset", "single-cell-bp", "--out", str(out)])
    assert rc == 0
    for name in ("users.csv", "report.txt", "cdf_dl.txt", "cdf_ul.txt"):
        assert (out / name).exists(), name
    lines = (out / "users.csv").read_text().splitlines()
    assert len(lines) == 1 + 20  # header and one row per terminal
    captured = capsys.readouterr()
    assert "scenario = single-cell-bp" in captured.out
    assert f"artifacts written to {out}" in captured.out
    assert (out / "report.txt").read_text() in captured.out


def test_run_defaults_to_baseline_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "scenario = single-cell-bp" in text
    assert "architecture = bp" in text


def test_run_is_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "single-cell-bp", "--out", str(a)]) == 0
    assert main(["run", "--preset", "single-cell-bp", "--out", str(b)]) == 0
    for name in ("users.csv", "report.txt", "cdf_dl.txt", "cdf_ul.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_from_config_file(tmp_path, capsys):
    scenario = tmp_path / "night_shift.cfg"
    scenario.write_text("seed = 5\narchitecture = rg\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(scenario), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    # scenario name comes from the file stem
    assert "scenario = night_shift" in text
    assert "architecture = rg" in text
    assert "seed = 5" in text


def test_run_cli_overrides_beat_the_file(tmp_path, capsys):
    scenario = tmp_path / "s.cfg"
    scenario.write_text("seed = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(scenario), "--seed", "9",
                 "--arch", "rg", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "seed = 9" in text
    assert "architecture = rg" in text


def test_config_and_preset_are_mutually_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x.cfg", "--preset", "single-cell-bp"])
    assert exc.value.code == 2


def test_unknown_preset_fails_cleanly(capsys):
    rc = main(["run", "--preset", "lunar-relay"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "unknown preset" in captured.err


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_reports_line(tmp_path, capsys):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text("seed = 1\nthrust = full\n")
    rc = main(["validate", "--config", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "thrust" in err


@pytest.mark.parametrize("line", ["altitude_m = nan", "dl_bandwidth_hz = inf"])
def test_non_finite_value_fails_cleanly(tmp_path, capsys, line):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(line + "\n")
    assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scenario}, line 1: {line.split()[0]}: must be finite")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_invalid_value_error_names_the_line(tmp_path, capsys):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text("# ground segment\nseed = 3\nue_tx_power_dbm = -inf\n")
    assert main(["validate", "--config", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {scenario}, line 3: ue_tx_power_dbm: must be finite; got -inf\n"


def test_a_los_target_above_terminal_count_fails_before_the_drop(tmp_path, capsys):
    scenario = tmp_path / "few.cfg"
    scenario.write_text("terminal_count = 5\ntarget_los_count = 6\n")
    assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {scenario}, line 1: terminal_count, target_los_count: "
                   "LOS target 6 cannot exceed terminal count 5\n")
    assert not (tmp_path / "out").exists()


# auto takes the layout's LOS share of the terminal count: 17 of 20 on one cell, 175 of 210 on seven
@pytest.mark.parametrize("layout, count, target", [("seven_cell", 420, 350), ("seven_cell", 840, 700),
                                                   ("single", 5, 4)])
def test_an_auto_los_target_at_another_terminal_count_runs_every_command(tmp_path, capsys, layout, count, target):
    scenario = tmp_path / "count.cfg"
    scenario.write_text(f"layout = {layout}\nterminal_count = {count}\n")
    for command in (["run", "--out", str(tmp_path / "out")], ["consumption", "--out", str(tmp_path / "out")],
                    ["validate"]):
        assert main([*command, "--config", str(scenario)]) == 0, command
        assert capsys.readouterr().err == ""
    assert f"\nterminals = {count}\nlos_terminals = {target}\n" in (tmp_path / "out" / "report.txt").read_text()


@pytest.mark.parametrize("field", ["ue_noise_figure_db", "bs_noise_figure_db",
                                   "gateway_noise_figure_db", "repeater_noise_figure_db"])
def test_negative_noise_figure_fails_validation_with_its_line(tmp_path, capsys, field):
    scenario = tmp_path / "cascade.cfg"
    scenario.write_text(f"bp_ul_noise = cascade\n{field} = -1\n")
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(scenario)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scenario}, line 2: {field}: must lie in [0, 100]: "
            "a noise figure below 0 dB is unphysical; got -1.0\n")
    assert not (tmp_path / "out").exists()


# every noise figure and every consumption-chain gain has two finite ends
DB_ENDS = {**dict.fromkeys(["ue_noise_figure_db", "bs_noise_figure_db", "gateway_noise_figure_db",
                            "repeater_noise_figure_db"], (0.0, 100.0)),
           **dict.fromkeys(["repeater_mixer_gain_db", "repeater_amp_gain_db", "bs_baseband_gain_db",
                            "bs_mixer_gain_db", "bs_amp_gain_db", "relay_rx_gain_db",
                            "sink_rx_gain_db"], (-300.0, 300.0))}
# the default bent pipe reads the UE and BS noise figures; these switches the other two
DB_SWITCHES = ("", "bp_ul_noise = cascade\nbp_repeater_noise_at_ue = true\n")
# and so does every transmit power and antenna gain
LEVEL_ENDS = dict.fromkeys(["panel_tx_power_dbm", "ue_tx_power_dbm", "gateway_tx_power_dbm",
                            "repeater_max_output_dbm", "gateway_antenna_gain_dbi",
                            "single_antenna_gain_dbi", "array_element_gain_dbi", "cpe_gain_dbi"],
                           (-300.0, 300.0))
# the single cell reads its antenna; seven rooftop cells the array element and the CPE; the
# explicit feeder chain the gateway and, with its limit on, the repeater's output
LEVEL_SWITCHES = ("", "layout = seven_cell\nterminal_kind = cpe_directional\n",
                  "bp_feeder_chain = explicit\nrepeater_output_limit = true\n")
# the repeater gain has the ends of the chain gains: every switch that reads it is on, on one
# cell and on seven rooftop cells, with the output limit off and on
REPEATER_SWITCHES = tuple(
    f"{layout}bp_ul_noise = cascade\nbp_repeater_noise_at_ue = true\n"
    f"bp_feeder_chain = explicit\n{limit}"
    for layout in ("", "layout = seven_cell\nterminal_kind = cpe_directional\n")
    for limit in ("", "repeater_output_limit = true\n"))
# a beamwidth lies in [0.001, 360] degrees: the single cell reads its antenna's; seven cells
# the array element's and, steered or selected, the CPE's
HPBW_SWITCHES = ("", *(f"layout = seven_cell\nterminal_kind = cpe_directional\n"
                       f"attachment_mode = {mode}\n" for mode in ("beam_steering", "beam_selection")))
HPBW_ENDS = dict.fromkeys(["single_antenna_hpbw_deg", "array_element_hpbw_deg", "cpe_hpbw_deg"],
                          (0.001, 360.0))
# the carriers, the DL bandwidth and the UL allocation lie in [1, 1e15] Hz: on one cell, on seven
# rooftop cells and on the explicit feeder chain, the one reader of the feeder carrier; the
# allocation's upper end runs with a system bandwidth as wide, and the bandwidth's lower end with an
# allocation as narrow
HZ_SWITCHES = ("", "layout = seven_cell\nterminal_kind = cpe_directional\n", "bp_feeder_chain = explicit\n")
CARRIER_ENDS = dict.fromkeys(["dl_carrier_hz", "ul_carrier_hz", "feeder_carrier_hz"], (1.0, 1e15))
# the cell radius, the gateway distance, the altitude and the flight circle's diameter lie in
# [1, 1e7] m: on one cell, on seven rooftop cells steered and selected with a drawn LOS split (every
# terminal of a 1 m disc is under the platform, and every one is LOS from 1e7 m up, so no fixed
# split is reachable) and on the explicit feeder chain, the gateway's one reader in a campaign
LENGTH_SWITCHES = ("", *(f"layout = seven_cell\nterminal_kind = cpe_directional\nlos_assignment = probabilistic\n"
                         f"attachment_mode = {mode}\n" for mode in ("beam_steering", "beam_selection")),
                   "bp_feeder_chain = explicit\n")
LENGTH_ENDS = dict.fromkeys(["cell_radius_m", "gateway_distance_m", "altitude_m", "flight_circle_diameter_m"],
                            (1.0, 1e7))
# the array sizes are integers: a panel side lies in [1, 1000] and runs on seven rooftop cells, steered
# and selected; the flight positions lie in [1, 360] and run there and on one cell, with the angular step
# that makes one turn; the terminal count lies in [1, 5000] and runs with a drawn LOS split on one cell
# (one cell's auto share of 17 in 20 lies below its expected LOS share, which 5000 terminals miss),
# and at its lower end with the auto target of one terminal and on seven cells too: a seven-cell
# campaign of 5000 terminals takes seconds
PANEL_ENDS = dict.fromkeys(["bottom_panel_rows", "bottom_panel_cols", "side_panel_rows", "side_panel_cols"], (1, 1000))
ENDS = {**DB_ENDS, **LEVEL_ENDS, "repeater_gain_db": (-300.0, 300.0), **HPBW_ENDS, **CARRIER_ENDS,
        "ul_allocation_hz": (1.0, 1e15), "dl_bandwidth_hz": (1.0, 1e15), **LENGTH_ENDS, **PANEL_ENDS, "flight_position_count": (1, 360),
        "terminal_count": (1, 5000)}
SWITCHES = {**dict.fromkeys(DB_ENDS, DB_SWITCHES), **dict.fromkeys(LEVEL_ENDS, LEVEL_SWITCHES),
            "repeater_gain_db": REPEATER_SWITCHES, **dict.fromkeys(HPBW_ENDS, HPBW_SWITCHES),
            **dict.fromkeys(CARRIER_ENDS, HZ_SWITCHES),
            "ul_allocation_hz": tuple(f"{switch}dl_bandwidth_hz = 1e15\n" for switch in HZ_SWITCHES),
            "dl_bandwidth_hz": tuple(f"{switch}bp_repeater_noise_at_ue = true\nul_allocation_hz = 1.0\n"
                                     for switch in HZ_SWITCHES),
            **dict.fromkeys(LENGTH_ENDS, LENGTH_SWITCHES),
            # a 1e7 m flight circle leaves the steered side cells behind their panels (tested below)
            "flight_circle_diameter_m": LENGTH_SWITCHES[:1] + LENGTH_SWITCHES[2:],
            **dict.fromkeys(PANEL_ENDS, HPBW_SWITCHES[1:]), "terminal_count": ("los_assignment = probabilistic\n",)}
# where an end takes switches of its own
END_SWITCHES = {**{("flight_position_count", count): tuple(f"flight_angular_step_deg = {360.0 / count!r}\n{switch}"
                                                         for switch in HPBW_SWITCHES) for count in (1, 360)},
                ("terminal_count", 1): ("", "los_assignment = probabilistic\n", *LENGTH_SWITCHES[1:3])}
# the terminal count times the position count lies in [1, 240000]: the upper end of each count also runs
# on one cell with the other count at the product's end
PRODUCT_END = 240_000
END_SWITCHES["terminal_count", 5000] = SWITCHES["terminal_count"] + (
    f"los_assignment = probabilistic\nflight_position_count = {PRODUCT_END // 5000}\n"
    f"flight_angular_step_deg = {360 / (PRODUCT_END // 5000)!r}\n",)
END_SWITCHES["flight_position_count", 360] += (
    f"flight_angular_step_deg = 1.0\nlos_assignment = probabilistic\nterminal_count = {PRODUCT_END // 360}\n",)
# the one warning an accepted scenario may print to stderr (pytest captures it as a log record):
# a 1e7 m cell, a 1 m altitude or a 1e7 m flight circle puts the terminals mostly below the
# table's lowest elevation bin
LOW_ELEVATION_ENDS = {("cell_radius_m", 1e7), ("altitude_m", 1.0), ("flight_circle_diameter_m", 1e7)}
CLAMPED = re.compile(r"\d+ elevation\(s\) outside channel table range \[10, 90\] deg, clamped to the nearest bin")


def _both_commands_run_cleanly(tmp_path, capsys, caplog, switches, assignments: str, clamped: bool = False) -> None:
    scenario = tmp_path / "end.cfg"
    for switch in switches:
        scenario.write_text(f"{switch}{assignments}")
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the run
            for command in ("run", "consumption"):
                out = tmp_path / command
                assert main([command, "--config", str(scenario), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        logged = [record.getMessage() for record in caplog.records]
        assert all(map(CLAMPED.fullmatch, logged)) and bool(logged) == clamped, logged
        text = (tmp_path / "consumption" / "consumption.csv").read_text()
        assert "nan" not in text and "inf" not in text
        cfg = ScenarioConfig()
        for row in (tmp_path / "run" / "users.csv").read_text().splitlines()[1:]:
            dl, ul = map(float, row.split(",")[6:8])
            assert 0.0 <= dl <= cfg.dl_se_max and 0.0 <= ul <= cfg.ul_se_max, row


@pytest.mark.parametrize("key, end", [(key, end) for key, ends in ENDS.items() for end in ends])
def test_each_end_of_a_db_domain_runs_both_commands_cleanly(tmp_path, capsys, caplog, key, end):
    clamped = (key, end) in LOW_ELEVATION_ENDS
    switches = END_SWITCHES.get((key, end)) or SWITCHES[key]
    _both_commands_run_cleanly(tmp_path, capsys, caplog, switches, f"{key} = {end!r}\n", clamped)


@pytest.mark.parametrize("end", [-300.0, 300.0])
def test_every_power_and_antenna_gain_at_one_end_together_runs_cleanly(tmp_path, capsys, caplog, end):
    _both_commands_run_cleanly(tmp_path, capsys, caplog, LEVEL_SWITCHES,
                               "".join(f"{key} = {end!r}\n" for key in LEVEL_ENDS))


# the element spacing lies in (0, 1000] wavelengths, and seven cells, steered and selected, read it
def test_the_widest_element_spacing_runs_both_commands_cleanly(tmp_path, capsys, caplog):
    _both_commands_run_cleanly(tmp_path, capsys, caplog, HPBW_SWITCHES[1:], "element_spacing_wl = 1000.0\n")


# an attenuation has no upper end: an SE it makes too large for a float is the cap
@pytest.mark.parametrize("key", ["dl_se_attenuation", "ul_se_attenuation"])
def test_an_attenuation_as_large_as_a_float_runs_to_the_cap(tmp_path, capsys, caplog, key):
    _both_commands_run_cleanly(tmp_path, capsys, caplog, HPBW_SWITCHES, f"{key} = 1.7976931348623157e308\n")


@pytest.mark.parametrize("key, end", [(key, end) for key, ends in ENDS.items() for end in ends])
def test_a_value_just_outside_a_db_domain_names_its_key_and_line(tmp_path, capsys, key, end):
    lo, hi = ENDS[key]
    away = math.copysign(1, end - (lo + hi) / 2)
    outside = end + int(away) if isinstance(end, int) else math.nextafter(end, away * math.inf)
    scenario = tmp_path / "outside.cfg"
    scenario.write_text(f"seed = 1\n{key} = {outside!r}\n")
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")], ["consumption"]):
        assert main([*command, "--config", str(scenario)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario}, line 2: {key}: must lie in [{lo:g}, {hi:g}]")
        assert err.endswith(f"; got {outside!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("terminals, positions", [(5000, PRODUCT_END // 5000 + 1), (PRODUCT_END // 360 + 1, 360)])
def test_a_product_past_its_end_names_both_counts_and_the_first_line(tmp_path, capsys, terminals, positions):
    scenario = tmp_path / "product.cfg"
    scenario.write_text(f"seed = 1\nflight_position_count = {positions}\nflight_angular_step_deg = {360 / positions!r}\n"
                        f"los_assignment = probabilistic\nterminal_count = {terminals}\n")
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")], ["consumption"]):
        assert main([*command, "--config", str(scenario)]) == 1
        assert capsys.readouterr().err == (
            f"error: {scenario}, line 2: terminal_count, flight_position_count: terminal count times position "
            f"count must not exceed {PRODUCT_END}; got {terminals * positions}\n")
    assert not (tmp_path / "out").exists()


# values far beyond an end, each of which once ended in an overflow, a NaN or an all-zero run
FAR_OUTSIDE = {
    "cell_radius_m = 1e300\n": (1, "cell_radius_m: must lie in [1, 1e+07] m; got 1e+300"),
    "repeater_gain_db = 1e6\nbp_ul_noise = cascade\n": (
        1, "repeater_gain_db: must lie in [-300, 300] dB; got 1000000.0"),
    "dl_carrier_hz = 5e-324\n": (1, "dl_carrier_hz: must lie in [1, 1e+15] Hz; got 5e-324"),
    "seed = 1\nouter_cell_center_fraction = 0\n": (2, "outer_cell_center_fraction: must lie in (0, 1]; got 0.0"),
    "dl_bandwidth_hz = 1.7976931348623157e308\n": (
        1, "dl_bandwidth_hz: must lie in [1, 1e+15] Hz; got 1.7976931348623157e+308"),
    "element_spacing_wl = 1.7976931348623157e308\n": (
        1, "element_spacing_wl: must lie in (0, 1000] wavelengths; got 1.7976931348623157e+308"),
    "seed = 1\nntn_table_path = a\0b\n": (2, "ntn_table_path: must be one line without outer whitespace or NUL; "
                                           "got 'a\\x00b'"),
}


@pytest.mark.parametrize("lines", FAR_OUTSIDE, ids=[message.partition(":")[0] for _, message in FAR_OUTSIDE.values()])
def test_a_value_far_outside_its_domain_names_its_key_and_line(tmp_path, capsys, lines):
    line_no, message = FAR_OUTSIDE[lines]
    scenario = tmp_path / "far.cfg"
    scenario.write_text(lines)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")], ["consumption"]):
        assert main([*command, "--config", str(scenario)]) == 1  # an exception would end the test
        assert capsys.readouterr().err == f"error: {scenario}, line {line_no}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, message", [
    ("40,0.929,-0.92,10.25,18.28", "shadow_std_los_db: must lie in [0, 100] dB; got -0.92"),
    ("40,0.929,100.5,10.25,18.28", "shadow_std_los_db: must lie in [0, 100] dB; got 100.5"),
    ("40,0.929,0.92,1e5,18.28", "shadow_std_nlos_db: must lie in [0, 100] dB; got 1e5"),
    ("40,0.929,0.92,10.25,-5000", "clutter_loss_nlos_db: must lie in [-300, 300] dB; got -5000"),
    ("40,0.929,0.92,10.25,300.5", "clutter_loss_nlos_db: must lie in [-300, 300] dB; got 300.5"),
    ("40,0.929,nan,10.25,18.28", "shadow_std_los_db: must be a finite number; got 'nan'"),
    ("x40,0.929,0.92,10.25,18.28", "elevation_deg: must be a finite number; got 'x40'"),
    # a typo in the first data row is not a second header
    ("x10,0.782,1.79,8.93,19.52", "elevation_deg: must be a finite number; got 'x10'"),
    ("40,1.5,0.92,10.25,18.28", "los_probability: must lie in [0, 1]; got 1.5"),
])
def test_bad_channel_table_row_fails_cleanly(tmp_path, capsys, row, message):
    # each case edits the bundled row of its elevation bin
    bundled = (resources.files("hapsim.data") / "ntn_rural_s_band.csv").read_text()
    elevation = row.split(",")[0].lstrip("x")
    original = next(line for line in bundled.splitlines() if line.startswith(f"{elevation},"))
    table = tmp_path / "table.csv"
    table.write_text(bundled.replace(f"\n{original}\n", f"\n{row}\n"))
    assert table.read_text() != bundled
    line_no = table.read_text().splitlines().index(row) + 1
    scenario = tmp_path / "edited.cfg"
    scenario.write_text(f"ntn_table_path = {table}\n")
    out = ["--out", str(tmp_path / "out")]
    for command in (["run", *out], ["consumption", *out], ["validate"]):
        assert main([*command, "--config", str(scenario)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {table}, line {line_no}: {message}\n"
        # the output directory is created only after the work succeeded
        assert not (tmp_path / "out").exists()


def test_channel_table_row_out_of_order_fails_cleanly(tmp_path, capsys):
    # the bundled 40-degree row moved before the 30-degree one
    bundled = (resources.files("hapsim.data") / "ntn_rural_s_band.csv").read_text()
    row_30, row_40 = (next(line for line in bundled.splitlines() if line.startswith(f"{e},"))
                      for e in (30, 40))
    table = tmp_path / "table.csv"
    table.write_text(bundled.replace(f"{row_30}\n{row_40}\n", f"{row_40}\n{row_30}\n"))
    assert table.read_text() != bundled
    line_no = table.read_text().splitlines().index(row_30) + 1
    scenario = tmp_path / "swapped.cfg"
    scenario.write_text(f"ntn_table_path = {table}\n")
    out = ["--out", str(tmp_path / "out")]
    for command in (["run", *out], ["consumption", *out], ["validate"]):
        assert main([*command, "--config", str(scenario)]) == 1
        assert capsys.readouterr().err == (f"error: {table}, line {line_no}: elevation_deg: "
                                           "must be strictly increasing; got 30 after 40\n")
        assert not (tmp_path / "out").exists()


def test_overrides_leave_the_loaded_config_untouched(monkeypatch, capsys):
    loaded = preset_config("single-cell-bp")
    monkeypatch.setattr("hapsim.cli.preset_config", lambda name: loaded)
    assert main(["validate", "--preset", "single-cell-bp", "--seed", "9", "--arch", "rg"]) == 0
    assert "seed = 9" in capsys.readouterr().out
    assert loaded == preset_config("single-cell-bp")


def test_validate_prints_canonical_dump(capsys):
    assert main(["validate", "--preset", "multi-selection-cpe-rg"]) == 0
    out = capsys.readouterr().out
    assert out == dump_config(preset_config("multi-selection-cpe-rg"))


def test_validate_applies_overrides(capsys):
    assert main(["validate", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "seed = 42" in out
    assert out == dump_config(ScenarioConfig(seed=42))


def test_flags_override_a_preset_as_a_file_setting_their_keys_would(tmp_path, capsys):
    assert main(["validate", "--preset", "multi-selection-cpe-bp", "--seed", "5", "--arch", "rg"]) == 0
    by_flags = capsys.readouterr().out
    scenario = tmp_path / "o.cfg"
    scenario.write_text("layout = seven_cell\nattachment_mode = beam_selection\nterminal_kind = cpe_directional\n"
                        "architecture = rg\nseed = 5\n")
    assert main(["validate", "--config", str(scenario)]) == 0
    assert capsys.readouterr().out == by_flags


def test_a_flag_value_is_never_blamed_on_a_line_of_the_file(tmp_path, capsys):
    # the file sets both keys validly; only the flags' values are out of their domains
    scenario = tmp_path / "s.cfg"
    scenario.write_text("seed = 3\nworkers = 2\n")
    for flags, message in ((["--seed", "-1"], "seed: must be non-negative; got -1"),
                           (["--workers", "0"], "workers: must be positive; got 0")):
        assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["validate", "--preset", "single-cell-bp", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed: must be non-negative; got -1\n"


def test_consumption_artifacts_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["consumption", "--preset", "single-cell-bp", "--out", str(out)])
    assert rc == 0
    assert (out / "consumption.csv").exists()
    text = capsys.readouterr().out
    assert "h_relay = " in text
    assert "h_source = " in text
    assert "relay_preferred = " in text
    assert "(bound 6.25)" in text
    lines = (out / "consumption.csv").read_text().splitlines()
    assert len(lines) == 21  # header + one row per terminal


def test_consumption_ratio_stays_under_worst_case_bound(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["consumption", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    ratio_line = next(l for l in text.splitlines() if l.startswith("max_feeder_access_ratio_sq"))
    ratio = float(ratio_line.split(" = ")[1].split()[0])
    assert ratio < 6.25


@pytest.mark.parametrize("key", ["repeater_amp_gain_db", "bs_amp_gain_db"])
def test_last_stage_amp_gain_is_inert(tmp_path, capsys, key):
    # H reads only the gains before each stage, never the last stage's own
    out = tmp_path / "out"
    outputs = []
    for value in (3.0, 30.0, 55.0):
        scenario = tmp_path / f"{value}.cfg"
        scenario.write_text(f"{key} = {value}\n")
        assert main(["consumption", "--config", str(scenario), "--out", str(out)]) == 0
        outputs.append(((out / "consumption.csv").read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]


# keys that only the campaign reads, with other values: consumption reads the drop's positions
# (drawn before any LOS state), the altitude, the gateway distance and the chain keys alone
CAMPAIGN_KEYS = {
    "panel_tx_power_dbm": 40.0, "ue_tx_power_dbm": 26.0, "gateway_tx_power_dbm": 40.0,
    "repeater_max_output_dbm": 20.0, "ue_noise_figure_db": 9.0, "bs_noise_figure_db": 3.0,
    "gateway_noise_figure_db": 6.0, "repeater_noise_figure_db": 9.0, "dl_carrier_hz": 2.6e9,
    "ul_carrier_hz": 2.0e9, "feeder_carrier_hz": 28e9, "dl_bandwidth_hz": 40e6, "ul_allocation_hz": 5e5,
    "dl_se_attenuation": 0.5, "dl_sinr_min_db": 0.0, "dl_se_max": 2.0, "ul_se_attenuation": 0.5,
    "ul_sinr_min_db": -5.0, "ul_se_max": 1.5, "attachment_mode": "beam_selection",
    "terminal_kind": "cpe_directional", "single_antenna_gain_dbi": 10.0, "single_antenna_hpbw_deg": 50.0,
    "array_element_gain_dbi": 7.0, "array_element_hpbw_deg": 70.0, "bottom_panel_rows": 3,
    "side_panel_cols": 3, "element_spacing_wl": 0.7, "side_panel_tilt_deg": 30.0,
    "side_panel_azimuth_offset_deg": 10.0, "outer_cell_center_fraction": 0.5, "cpe_gain_dbi": 15.0,
    "cpe_hpbw_deg": 40.0, "bp_feeder_chain": "explicit", "bp_repeater_noise_at_ue": True,
    "bp_ul_noise": "cascade", "flight_circle_diameter_m": 8000.0, "repeater_gain_db": 100.0,
    "los_assignment": "probabilistic",
}


@pytest.mark.parametrize("layout", ["single", "seven_cell"])
def test_a_campaign_only_key_leaves_the_consumption_output_unchanged(tmp_path, capsys, layout):
    def consumption(**values):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(dump_config(ScenarioConfig(layout=layout, **values)))
        assert main(["consumption", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 0
        return capsys.readouterr().out, (tmp_path / "out" / "consumption.csv").read_bytes()

    base = consumption()
    target = ScenarioConfig(layout=layout).resolved_target_los_count() - 1
    for key, value in {**CAMPAIGN_KEYS, "target_los_count": target}.items():
        assert consumption(**{key: value}) == base, key
    assert consumption(altitude_m=25_000.0) != base  # a key it reads does move it


def test_workers_flag_matches_serial_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "multi-steering-omni-bp", "--out", str(a)]) == 0
    assert main(["run", "--preset", "multi-steering-omni-bp", "--workers", "4",
                 "--out", str(b)]) == 0
    assert (a / "users.csv").read_bytes() == (b / "users.csv").read_bytes()


# ----------------------------------------------------------------------
# The module as a program, and one parser for every in-process call

ARTIFACTS = ("users.csv", "report.txt", "cdf_dl.txt", "cdf_ul.txt")


def _hapsim_process(*args, cwd=None, **environ):
    """``python -m hapsim.cli`` in a child process importing the hapsim under test.

    ``environ`` adds to the child's environment; output bytes that are not
    UTF-8 come back as surrogates.
    """
    path = [str(Path(hapsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "hapsim.cli", *args], capture_output=True,
                          text=True, errors="surrogateescape", env=env, timeout=120, cwd=cwd)


def test_module_run_writes_what_main_writes(tmp_path, capsys):
    a, b = tmp_path / "process", tmp_path / "in-process"
    proc = _hapsim_process("run", "--preset", "single-cell-bp", "--out", str(a))
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--preset", "single-cell-bp", "--out", str(b)]) == 0
    assert proc.stdout == capsys.readouterr().out.replace(str(b), str(a))
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_unknown_flag_prints_usage_without_a_traceback():
    proc = _hapsim_process("run", "--preset", "single-cell-bp", "--bogus")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: hapsim ")
    assert "unrecognized arguments: --bogus" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_scenario_file_that_is_not_utf8_fails_without_a_traceback(tmp_path):
    scenario = tmp_path / "latin1.cfg"
    scenario.write_bytes(b"\xffseed = 2\n")
    proc = _hapsim_process("validate", "--config", str(scenario))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {scenario}, line 1: not valid UTF-8 (byte 0xff)\n"
    assert "Traceback" not in proc.stderr


def test_channel_table_that_is_not_utf8_fails_without_a_traceback(tmp_path):
    table = tmp_path / "table.csv"
    table.write_bytes(b"# elevation profile\n10,0.5,1.0,8.0,19.0\n# caf\xe9\n")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(f"ntn_table_path = {table}\n")
    out = tmp_path / "out"
    proc = _hapsim_process("run", "--config", str(scenario), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {table}, line 3: not valid UTF-8 (byte 0xe9)\n"
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# Windows editors begin a UTF-8 file with a byte-order mark: it is no part of the first key
BOM = b"\xef\xbb\xbf"


def test_a_byte_order_mark_leaves_the_output_and_the_artifacts_alone(tmp_path, capsys):
    text = b"layout = seven_cell\nattachment_mode = beam_selection\n"
    outputs = {}
    for label, data in (("plain", text), ("bom", BOM + text)):
        scenario = tmp_path / label / "s.cfg"
        scenario.parent.mkdir()
        scenario.write_bytes(data)
        out = tmp_path / label / "out"
        for command in (["run", "--out", str(out)], ["consumption", "--out", str(out)], ["validate"]):
            assert main([*command, "--config", str(scenario)]) == 0
        printed = capsys.readouterr()
        outputs[label] = printed.out.replace(str(out), "<out>"), printed.err, {
            p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs["bom"] == outputs["plain"]
    assert len(outputs["plain"][2]) == 5


def test_a_bad_byte_after_a_byte_order_mark_names_its_own_value_and_line(tmp_path, capsys):
    scenario = tmp_path / "s.cfg"
    scenario.write_bytes(BOM + b"a\nb\xb0\n")  # utf-8-sig would report offset 3: byte 0x61 on line 1
    assert main(["validate", "--config", str(scenario)]) == 1
    assert capsys.readouterr().err == f"error: {scenario}, line 2: not valid UTF-8 (byte 0xb0)\n"


# Artifacts are UTF-8 whatever the locale: a scenario name the locale's
# codec cannot encode, or a file name that is not UTF-8, still runs
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.skipif(os.name != "posix", reason="needs the C locale")
def test_an_ascii_locale_writes_the_artifacts_of_a_utf8_one(tmp_path):
    scenario = tmp_path / "sz\u00e9nario.cfg"
    scenario.write_text("seed = 2\n")
    outputs = {}
    for label, environ in (("ascii", ASCII_LOCALE), ("utf8", {"LC_ALL": "C.UTF-8"})):
        out = tmp_path / label
        proc = _hapsim_process("run", "--config", str(scenario), "--out", str(out), **environ)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        outputs[label] = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert outputs["ascii"] == outputs["utf8"]
    assert outputs["ascii"]["report.txt"].startswith("scenario = sz\u00e9nario\n".encode())


@pytest.mark.skipif(os.name != "posix", reason="needs the C locale")
def test_a_table_path_an_ascii_locale_cannot_encode_opens_as_in_a_utf8_one(tmp_path):
    # the name is UTF-8 in the scenario text, so it opens by those bytes in every locale
    bundled = (resources.files("hapsim.data") / "ntn_rural_s_band.csv").read_bytes()
    (tmp_path / "tabl\u00e9.csv").write_bytes(bundled)
    (tmp_path / "s.cfg").write_text("ntn_table_path = tabl\u00e9.csv\n", encoding="utf-8")
    outputs = {}
    for label, environ in (("ascii", ASCII_LOCALE), ("utf8", {"LC_ALL": "C.UTF-8"})):
        for command in ("run", "consumption", "validate"):
            out = ["--out", label] if command != "validate" else []
            proc = _hapsim_process(command, "--config", "s.cfg", *out, cwd=tmp_path, **environ)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            outputs[label, command] = proc.stdout.replace(label, "OUT")
        outputs[label] = {name: (tmp_path / label / name).read_bytes()
                          for name in (*ARTIFACTS, "consumption.csv")}
    for key in ("run", "consumption", "validate"):
        assert outputs["ascii", key] == outputs["utf8", key], key
    assert outputs["ascii"] == outputs["utf8"]
    assert "ntn_table_path = tabl\u00e9.csv\n" in outputs["ascii", "validate"]


@pytest.mark.skipif(os.name != "posix", reason="needs the C locale")
def test_an_error_line_is_utf8_in_every_locale(tmp_path):
    # the message quotes the table's name: its UTF-8 bytes, as on standard output
    (tmp_path / "s.cfg").write_text("ntn_table_path = miss\u00e9.csv\n", encoding="utf-8")
    errors = {}
    for label, environ in (("ascii", ASCII_LOCALE), ("utf8", {"LC_ALL": "C.UTF-8"})):
        proc = _hapsim_process("run", "--config", "s.cfg", "--out", "out", cwd=tmp_path, **environ)
        assert proc.returncode == 1
        errors[label] = proc.stderr
    assert errors["ascii"] == errors["utf8"] == (
        "error: s.cfg, line 1: ntn_table_path: [Errno 2] No such file or directory: 'miss\u00e9.csv'\n")
    assert not (tmp_path / "out").exists()


# a UTF-8 locale other than C.UTF-8 gives standard output the strict error handler
@pytest.mark.skipif(sys.platform != "linux", reason="needs file names of any bytes")
@pytest.mark.parametrize("environ", [{}, {"PYTHONIOENCODING": "utf-8:strict"}], ids=str)
def test_a_file_name_that_is_not_utf8_names_the_scenario_byte_for_byte(tmp_path, environ):
    scenario = os.path.join(os.fsencode(tmp_path), b"sz\xe9nario.cfg")
    with open(scenario, "wb") as fh:
        fh.write(b"seed = 2\n")
    out = tmp_path / "out"
    proc = _hapsim_process("run", "--config", os.fsdecode(scenario), "--out", str(out), **environ)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "report.txt").read_bytes().startswith(b"scenario = sz\xe9nario\n")
    assert proc.stdout.startswith("scenario = sz\udce9nario\n")


# the keys of an unreachable LOS target: the target, and what sets the terminals' LOS probabilities
LOS_KEYS = "terminal_count, target_los_count, altitude_m, cell_radius_m, ntn_table_path"


@pytest.mark.parametrize("case", ["missing-table", "non-utf8-table", "unreachable-los-target",
                                  "side-panels-tilted-up", "cell-centres-above-flat-panels"])
def test_validate_rejects_what_run_rejects_before_the_campaign(tmp_path, capsys, case):
    table, scenario = tmp_path / "table.csv", tmp_path / "scenario.cfg"
    # a rejection once the campaign starts names the file's first line that sets one of its keys
    steering = (f"{scenario}, line 2: altitude_m, flight_circle_diameter_m, side_panel_tilt_deg, "
                "outer_cell_center_fraction: the centre of cell")
    if case == "missing-table":
        lines = f"ntn_table_path = {table}\n"
        named = f"{scenario}, line 1: ntn_table_path: [Errno 2] No such file or directory: '{table}'\n"
    elif case == "non-utf8-table":
        table.write_bytes(b"10,0.5,1.0,8.0,19.0\n# caf\xe9\n")
        lines, named = f"ntn_table_path = {table}\n", f"{table}, line 2: not valid UTF-8 (byte 0xe9)\n"
    elif case == "unreachable-los-target":
        lines = "layout = seven_cell\nterminal_count = 420\ntarget_los_count = 175\n"
        named = f"{scenario}, line 2: {LOS_KEYS}: could not hit LOS target 175/420"
    elif case == "side-panels-tilted-up":
        lines, named = "layout = seven_cell\nside_panel_tilt_deg = -70\n", steering
    else:
        # horizontal side panels see a centre 1 km out behind them from the flight circle
        lines = "layout = seven_cell\nside_panel_tilt_deg = 0\nouter_cell_center_fraction = 0.01\n"
        named = steering
    scenario.write_text(lines)
    proc = _hapsim_process("validate", "--config", str(scenario))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {named}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    # the same line that ``run`` prints for the same scenario
    assert main(["run", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == proc.stderr


@pytest.mark.parametrize("lines, line_no, expected", [
    ("layout = seven_cell\naltitude_m = 1e7\n", 2, "175/210 (expected LOS count 209.6)"),
    ("# LOS cells\nlayout = seven_cell\ncell_radius_m = 1e4\n", 3, "175/210 (expected LOS count 199.6)"),
    ("ntn_table_path = {table}\n", 1, "17/20 (expected LOS count 20.0)"),
], ids=["high-platform", "small-cells", "all-los-table"])
def test_an_unreachable_los_target_names_the_keys_that_set_its_probabilities(tmp_path, capsys, lines, line_no,
                                                                             expected):
    # each file raises the expected LOS count beyond the auto target without setting either count
    bundled = (resources.files("hapsim.data") / "ntn_rural_s_band.csv").read_text()
    table = tmp_path / "table.csv"
    table.write_text(re.sub(r"(?m)^(\d+),[^,]+,", r"\1,1.0,", bundled))  # every bin always LOS
    assert (NtnTables.from_file(table).los_probability == 1.0).all()
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(lines.format(table=table))
    out = ["--out", str(tmp_path / "out")]
    for command in (["run", *out], ["consumption", *out], ["validate"]):
        assert main([*command, "--config", str(scenario)]) == 1
        assert capsys.readouterr().err == (f"error: {scenario}, line {line_no}: {LOS_KEYS}: could not hit LOS "
                                           f"target {expected}; check the target against the elevation profile\n")
        assert not (tmp_path / "out").exists()


SIDE_BEHIND = ("altitude_m, flight_circle_diameter_m, side_panel_tilt_deg, outer_cell_center_fraction: "
               "the centre of cell 1 lies behind its panel")


@pytest.mark.parametrize("lines", ["layout = seven_cell\nflight_circle_diameter_m = 1e7\n",
                                   # neither runs into the fault alone
                                   "layout = seven_cell\naltitude_m = 1\nflight_circle_diameter_m = 1e5\n"])
def test_a_side_cell_behind_its_panel_names_the_flight_keys(tmp_path, capsys, lines):
    # the file sets no side-panel key, so the flight keys must be among those blamed, from line 2
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(lines)
    for command in (["run", "--out", str(tmp_path / "out")], ["validate"]):
        assert main([*command, "--config", str(scenario)]) == 1
        err = capsys.readouterr().err  # after the clamped-elevation warning, if any
        assert err.splitlines()[-1] == f"error: {scenario}, line 2: {SIDE_BEHIND}"
        assert "Traceback" not in err


@pytest.mark.parametrize("layout", ["", "layout = seven_cell\n"])
@pytest.mark.parametrize("key", ["altitude_m", "flight_circle_diameter_m"])
def test_an_overflowing_flight_length_names_its_key_and_line_without_a_traceback(tmp_path, layout, key):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(f"{layout}{key} = 1e300\n")
    proc = _hapsim_process("run", "--config", str(scenario), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    line = layout.count("\n") + 1
    assert proc.stderr == f"error: {scenario}, line {line}: {key}: must lie in [1, 1e+07] m; got 1e+300\n"


def test_validate_runs_the_campaign_and_writes_nothing(tmp_path, monkeypatch, capsys):
    proc = _hapsim_process("validate", "--preset", "multi-steering-omni-bp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dump_config(preset_config("multi-steering-omni-bp"))
    assert list(tmp_path.iterdir()) == []
    campaigns = []
    monkeypatch.setattr("hapsim.cli.run_campaign", campaigns.append)
    assert main(["validate", "--preset", "single-cell-rg", "--seed", "4"]) == 0
    assert campaigns == [dataclasses.replace(preset_config("single-cell-rg"), seed=4)]


def test_the_printed_scenario_is_the_whole_input(tmp_path, monkeypatch, capsys):
    # the bundled table with 10 dB more NLOS clutter, named in the environment,
    # which must play no part in a result
    tables = NtnTables.default()
    columns = [column.tolist() for column in tables]
    columns[-1] = [loss + 10.0 for loss in columns[-1]]
    edited = tmp_path / "edited.csv"
    edited.write_text("".join(",".join(map(repr, row)) + "\n" for row in zip(*columns)))
    for preset in preset_names():
        monkeypatch.setenv("HAPSIM_NTN_TABLES", str(edited))
        by_preset, by_file = tmp_path / preset / "preset", tmp_path / preset / "file"
        for command in ("run", "consumption"):
            assert main([command, "--preset", preset, "--out", str(by_preset)]) == 0
        capsys.readouterr()
        assert main(["validate", "--preset", preset]) == 0
        printed = tmp_path / f"{preset}.cfg"  # the stem names the scenario in report.txt
        printed.write_text(capsys.readouterr().out)
        # the printout alone, run where the variable is unset
        monkeypatch.delenv("HAPSIM_NTN_TABLES")
        for command in ("run", "consumption"):
            assert main([command, "--config", str(printed), "--out", str(by_file)]) == 0
        for name in (*ARTIFACTS, "consumption.csv"):
            assert (by_preset / name).read_bytes() == (by_file / name).read_bytes(), (preset, name)
        # validating the printout prints it again, byte for byte
        capsys.readouterr()
        assert main(["validate", "--config", str(printed)]) == 0
        assert capsys.readouterr().out == printed.read_text()
    # so does a file that sets a few keys, once printed whole
    partial = tmp_path / "dense.cfg"
    partial.write_text("layout = seven_cell\nattachment_mode = beam_selection\nterminal_kind = cpe_directional\n"
                       "seed = 3\nterminal_count = 84\ntarget_los_count = 70\n")
    assert main(["validate", "--config", str(partial)]) == 0
    partial.write_text(capsys.readouterr().out)
    assert main(["validate", "--config", str(partial)]) == 0
    assert capsys.readouterr().out == partial.read_text()


def test_repeated_calls_build_no_new_parser(monkeypatch, capsys):
    assert main(["validate"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(["validate", "--seed", "7"]) == 0
    assert built == []


@pytest.mark.parametrize("bad", [
    ["run", "--seed", "5", "--arch", "rg", "--bogus"],
    ["run", "--config", "x.cfg", "--preset", "single-cell-bp"],
    ["validate", "--seed", "five"],
    ["simulate"],
    [],
])
def test_a_failed_parse_leaves_the_next_call_unaffected(tmp_path, capsys, bad):
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["run", "--preset", "multi-selection-cpe-rg", "--out", str(before)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == dump_config(ScenarioConfig())
    assert main(["run", "--preset", "multi-selection-cpe-rg", "--out", str(after)]) == 0
    for name in ARTIFACTS:
        assert (before / name).read_bytes() == (after / name).read_bytes(), name


# ----------------------------------------------------------------------
# Reruns overwrite artifacts in place: nothing of the old bytes may survive

# junk at every artifact name, longer than the real output and shorter
STALE = {"users.csv": b"9,9,9\n" * 20_000, "report.txt": b"x",
         "cdf_dl.txt": b"", "cdf_ul.txt": b"# stale\n1.0 1.0\n" * 5_000,
         "consumption.csv": b"\xff\xfe stale\n"}


@pytest.mark.parametrize("preset", ["single-cell-bp", "multi-selection-cpe-rg"])
def test_rerun_over_stale_artifacts_writes_a_fresh_runs_bytes(tmp_path, capsys, preset):
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stale.mkdir()
    for name, junk in STALE.items():
        (stale / name).write_bytes(junk)
    outputs = {}
    for out in (fresh, stale):
        for command in ("run", "consumption"):
            assert main([command, "--preset", preset, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[out] = stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[stale] == outputs[fresh]
    sizes = [len(outputs[fresh][1][name]) - len(junk) for name, junk in STALE.items()]
    assert min(sizes) < 0 < max(sizes)  # both a longer and a shorter junk file


@pytest.mark.parametrize("name", STALE)
def test_a_failed_artifact_write_exits_1(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # no file can be opened there
    command = "consumption" if name == "consumption.csv" else "run"
    assert main([command, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_artifact_write_out_of_space_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "users.csv").symlink_to("/dev/full")  # opens, then every write fails
    assert main(["run", "--out", str(out)]) == 1
    assert f"[Errno {errno.ENOSPC}]" in capsys.readouterr().err


# ----------------------------------------------------------------------
# A text-level fuzz: a printed preset with a few lines edited, and at times a copy of the
# bundled table with one value replaced, through ``validate``

# numbers at and beyond the keys' ends, none of which sizes an array past a few hundred entries
_EDGES = st.sampled_from([0, -0.0, 1, -1, 0.5, 2, 30, 300, -300, 5e-324, 1e-300, 1e300, -1e300,
                          1.7976931348623157e308, math.nan, math.inf, -math.inf]).map(repr)
_VALUES = _EDGES | st.text(st.sampled_from("\0\ufeff= #,.-e1\t\n") | st.characters(codec="utf-8"), max_size=6)
_TABLE = (resources.files("hapsim.data") / "ntn_rural_s_band.csv").read_text()
_ROWS = [i for i, line in enumerate(_TABLE.splitlines()) if line[:1].isdigit()]
_TABLE_LINE = "ntn_table_path = <table>"


@st.composite
def _edited(draw):
    """A preset's text, with 1-3 edits, and the text of the table it names (``None``: the bundled one)."""
    lines = dump_config(preset_config(draw(st.sampled_from(preset_names())))).splitlines()
    table = None
    if draw(st.booleans()):
        table = _TABLE.splitlines()
        row = draw(st.sampled_from(_ROWS))
        values = table[row].split(",")
        values[draw(st.integers(0, len(values) - 1))] = draw(_VALUES)
        table[row] = ",".join(values)
        table = "\n".join(table) + "\n"
        lines[lines.index("ntn_table_path = ")] = _TABLE_LINE
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["value", "duplicate", "cut", "drop ="]))
        if edit == "value":
            lines[i] = f"{lines[i].partition('=')[0]}= {draw(_VALUES)}"
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            lines[i] = lines[i].replace("=", "", 1)
    return "\n".join(lines) + "\n", table


def _seven_cells_with(table: str) -> tuple[str, str]:
    """Seven cells with probabilistic LOS, over ``table``."""
    lines = dump_config(preset_config("multi-selection-cpe-bp")).replace("ntn_table_path = \n", _TABLE_LINE + "\n")
    return lines.replace("los_assignment = fixed_counts", "los_assignment = probabilistic"), table


@settings(max_examples=600, deadline=None)
@given(case=_edited())
@example(case=("ntn_table_path = a\0b\n", None))
@example(case=_seven_cells_with(re.sub(r",[\d.]+\n", ",-5000\n", _TABLE)))
@example(case=_seven_cells_with(_TABLE.replace("\n90,", "\n1.7976931348623157e308,")))
def test_an_edited_scenario_or_table_validates_or_fails_with_an_error_naming_its_file(case):
    text, table = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario, table_path = Path(tmp) / "edited.cfg", Path(tmp) / "table.csv"
        if table is not None:
            table_path.write_text(table, encoding="utf-8")
        scenario.write_text(text.replace("<table>", str(table_path)), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)  # an overflow in the campaign fails the example
            code = main(["validate", "--config", str(scenario)])  # any other exception fails it too
    assert code in (0, 1)
    if code == 1:
        last = err.getvalue().splitlines()[-1]  # the clamp warning may come before it
        assert last.startswith(("error: " + str(scenario), "error: " + str(table_path))), last
