"""Margin-space arithmetic and the command-line surface."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdsf
from hdsf import cli, falsify
from hdsf.cli import build_parser, main
from hdsf.config import Configuration
from hdsf.drone import (ControllerVariant, DroneParams, build_surrogate_system,
                        default_config_space, default_configuration, phi_for)
from hdsf.errors import ConfigurationError, EvaluationError
from hdsf.falsify import generate, run_trial, trial_rng
from hdsf.margins import compute_margins, quadrant_for
from hdsf.stl import Outcome


def surrogate_trace(battery_init, altitude_init, variant=ControllerVariant.BUGGY,
                    params=None):
    params = params or DroneParams()
    surrogate = build_surrogate_system(params, variant)
    config = default_configuration(battery_init, altitude_init)
    verdict, trace = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
    return trace, config, verdict


class TestComputeMargins:
    def test_battery_exactly_at_threshold_gives_zero_margin(self):
        trace, config, verdict = surrogate_trace(10.0, 20.0)
        point = compute_margins(trace, config, verdict.outcome)
        assert point.battery_margin == 0.0

    def test_plain_arithmetic_above_threshold(self):
        # battery never crosses within a short trace: margins at trace end
        params = DroneParams(horizon=5.0)
        trace, config, verdict = surrogate_trace(19.0, 70.0, params=params)
        point = compute_margins(trace, config, verdict.outcome)
        assert point.battery_margin == pytest.approx(19.0 - 0.8 * 5.0 - 10.0, abs=1e-9)
        assert point.in_band

    def test_below_band_directed_margin(self):
        trace, config, verdict = surrogate_trace(10.0, 20.0)
        point = compute_margins(trace, config, verdict.outcome)
        assert point.altitude_margin == pytest.approx(-40.0)
        assert not point.in_band

    def test_above_band_directed_margin(self):
        trace, config, verdict = surrogate_trace(10.0, 100.0)
        point = compute_margins(trace, config, verdict.outcome)
        assert point.altitude_margin == pytest.approx(20.0)
        assert not point.in_band

    def test_in_band_zero_with_flag(self):
        trace, config, verdict = surrogate_trace(10.0, 70.0)
        point = compute_margins(trace, config, verdict.outcome)
        assert point.altitude_margin == 0.0
        assert point.in_band

    def test_missing_signals_raise(self, make_trace):
        trace = make_trace(0.1, other=[1.0, 2.0])
        config = Configuration({"low_batt_threshold": 10.0,
                                "min_deploy_alt": 60.0, "max_deploy_alt": 80.0})
        with pytest.raises(EvaluationError):
            compute_margins(trace, config, Outcome.SATISFIED)


class TestQuadrants:
    def test_sign_table(self):
        assert quadrant_for(5.0, 3.0) == "Q1"
        assert quadrant_for(-5.0, 3.0) == "Q2"
        assert quadrant_for(-5.0, -3.0) == "Q3"
        assert quadrant_for(5.0, -3.0) == "Q4"

    def test_tie_rules(self):
        # zero battery margin is the triggered (low) side; zero altitude
        # margin counts as the high side
        assert quadrant_for(0.0, 1.0) == "Q2"
        assert quadrant_for(0.0, -1.0) == "Q3"
        assert quadrant_for(1.0, 0.0) == "Q1"
        assert quadrant_for(0.0, 0.0) == "Q2"


class TestRunCommand:
    REFERENCE_LINES = [
        "Configuration:",
        "- Min deploy altitude: 60.0m",
        "- Max deploy altitude: 80.0m",
        "- Low battery threshold: 10.0%",
        "Result:",
        "Battery: 10.0",
        "Altitude: 20.0m",
        "Parachute: NOT DEPLOYED",
        "Status: BLOCKED - Critical battery but altitude out of deployment range",
    ]

    def test_reference_run_output_and_exit(self, capsys):
        code = main(["run", "--battery", "10.0", "--altitude", "20"])
        out = capsys.readouterr().out.strip().split("\n")
        assert out == self.REFERENCE_LINES
        assert code == 1

    def test_patched_reference_run_deploys(self, capsys):
        code = main(["run", "--battery", "10.0", "--altitude", "20",
                     "--variant", "patched"])
        out = capsys.readouterr().out
        assert "Parachute: DEPLOYED" in out
        assert code == 0

    def test_vacuous_run_satisfied(self, capsys):
        code = main(["run", "--battery", "50", "--altitude", "70",
                     "--horizon", "20"])
        out = capsys.readouterr().out
        assert "Parachute: NOT DEPLOYED" in out
        assert code == 0

    def test_in_band_deployment_satisfied(self, capsys):
        code = main(["run", "--battery", "10", "--altitude", "70"])
        out = capsys.readouterr().out
        assert "Parachute: DEPLOYED" in out
        assert code == 0

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--battery", "not-a-number"])
        assert err.value.code == 2

    def test_run_full_matches_surrogate_verdict(self, capsys):
        code = main(["run-full", "--battery", "10.0", "--altitude", "20"])
        out = capsys.readouterr().out
        assert "Parachute: NOT DEPLOYED" in out
        assert code == 1

    def test_run_full_whole_mission(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"waypoint": [40.0, 0.0, 70.0]}))
        code = main(["run-full", "--entry", "idle", "--battery", "100",
                     "--scenario", str(scenario)])
        out = capsys.readouterr().out
        assert "IDLE -> TAKE_OFF" in out
        assert code == 0

    @pytest.mark.parametrize("argv", [["run-full", "--battery", "50", "--altitude", "70"],
                                      ["conformance", "--n-configs", "4", "--seed", "1"],
                                      ["timing", "--n-configs", "10", "--horizon", "10"]],
                             ids=["run-full", "conformance", "timing"])
    def test_far_waypoint_is_never_reached(self, capsys, tmp_path, argv):
        # squaring a gap of 1e200 overflows; the full model flies on until
        # its battery is critical, and run-full's verdict is Satisfied
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"waypoint": [1e200, 0.0, 70.0]}))
        assert main([*argv, "--scenario", str(scenario)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if argv[0] == "run-full":
            assert "GOTO -> PARACHUTE  (battery_critical)" in out

    def test_scenario_kp_changes_run_full_trace(self, capsys, tmp_path):
        # the last metres of the climb are unsaturated, so the z gain sets
        # when TAKE_OFF ends; the default gains give the default run
        def transitions(kp=None):
            argv = ["run-full", "--entry", "idle"]
            if kp is not None:
                scenario = tmp_path / "scenario.json"
                scenario.write_text(json.dumps({"kp": kp}))
                argv += ["--scenario", str(scenario)]
            assert main(argv) == 0
            return [line.strip() for line in capsys.readouterr().out.splitlines()
                    if "->" in line]

        default = transitions()
        assert "t=   14.600s  TAKE_OFF -> GOTO  (cruise_altitude_reached)" in default
        assert transitions([0.5, 0.5, 0.8]) == default
        assert "t=   23.350s  TAKE_OFF -> GOTO  (cruise_altitude_reached)" in transitions(
            [0.5, 0.5, 0.2])


def numeric_slots():
    """(key, index) of every number a scenario can set; index is None for a
    plain number and the position within a tuple field otherwise."""
    defaults = DroneParams()
    for f in dataclasses.fields(DroneParams):
        value = getattr(defaults, f.name)
        for index in (range(len(value)) if isinstance(value, tuple) else [None]):
            yield f.name, index


class TestInputErrors:
    """Bad input exits 2 with a one-line ``error:`` message, never a traceback."""

    def usage_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]

    def run_scenario(self, capsys, path):
        return self.usage_error(capsys, ["run", "--scenario", str(path)])

    def test_scenario_unknown_key(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"no_such_key": 1.0}))
        assert "no_such_key" in self.run_scenario(capsys, scenario)

    def test_scenario_former_pid_gains_key(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"pid_gains": [[0.5, 0.0, 0.0]] * 3}))
        assert "unknown key 'pid_gains'" in self.run_scenario(capsys, scenario)

    @pytest.mark.parametrize("key, index", list(numeric_slots()))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     pytest.param(10 ** 400, id="past-float-range"),
                                     pytest.param(-10 ** 400, id="-past-float-range")])
    def test_scenario_nonfinite_number(self, capsys, tmp_path, key, index, bad):
        # json.dumps writes these as NaN, Infinity, -Infinity and integers
        # that float() would overflow on
        value = bad
        if index is not None:
            value = list(getattr(DroneParams(), key))
            value[index] = bad
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({key: value}))
        message = self.run_scenario(capsys, scenario)
        assert message.startswith(f"error: scenario {scenario}: {key} must be a finite number")

    @pytest.mark.parametrize("command", ["run", "run-full", "fuzz", "conformance",
                                         "margins", "timing"])
    def test_scenario_nan_on_every_command(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # where fuzz and margins would write
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"cruise_drain": NaN}')
        message = self.usage_error(capsys, [command, "--scenario", str(scenario)])
        assert message == (f"error: scenario {scenario}: cruise_drain must be a "
                           "finite number, got nan")
        assert not (tmp_path / "hdsf-out").exists()

    def test_scenario_malformed_json(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{not json")
        self.run_scenario(capsys, scenario)

    def test_scenario_missing_file(self, capsys, tmp_path):
        self.run_scenario(capsys, tmp_path / "absent.json")

    @pytest.mark.parametrize("raw", [{"cruise_drain": "0.8"}, {"waypoint": 5},
                                     {"dt": [0.05]}, {"horizon": True}])
    def test_scenario_wrong_type(self, capsys, tmp_path, raw):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        assert next(iter(raw)) in self.run_scenario(capsys, scenario)

    def run_space_file(self, capsys, tmp_path, path):
        return self.usage_error(capsys, ["fuzz", "--runs", "2", "--space-file", str(path),
                                         "--out-dir", str(tmp_path / "out")])

    def test_space_file_missing(self, capsys, tmp_path):
        self.run_space_file(capsys, tmp_path, tmp_path / "absent.json")

    def test_space_file_malformed_json(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text("{not json")
        self.run_space_file(capsys, tmp_path, space_file)

    def test_space_file_without_bounds(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({"orderings": []}))
        assert "bounds" in self.run_space_file(capsys, tmp_path, space_file)

    def test_space_file_non_list_bound(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({"bounds": {"battery_init": 50.0}}))
        self.run_space_file(capsys, tmp_path, space_file)

    @pytest.mark.parametrize("bound", [[False, 100], ["0", "150"], [True, 5], [0, 1, 2],
                                       [None, 1], [0, 10 ** 400], [float("nan"), 1]])
    def test_space_file_bound_not_two_numbers(self, capsys, tmp_path, monkeypatch, bound):
        # float() would read a boolean or a string as a number, and overflow
        # on an integer past the float range
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        bounds = {name: list(b) for name, b
                  in default_config_space(DroneParams()).bounds.items()}
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "bounds": {**bounds, "battery_init": bound},
            "orderings": [["min_deploy_alt", "max_deploy_alt"]]}))
        message = self.run_space_file(capsys, tmp_path, space_file)
        assert message == ("error: bounds of 'battery_init' must be a [low, high] pair "
                           f"of finite numbers, got {json.dumps(bound)}")
        assert not (tmp_path / "out").exists()

    def test_space_file_width_past_the_float_range(self, capsys, tmp_path, monkeypatch):
        # each bound is a finite number, but no uniform draw spans their distance
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        bounds = {name: list(b) for name, b
                  in default_config_space(DroneParams()).bounds.items()}
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "bounds": {**bounds, "battery_init": [-1e308, 1e308]},
            "orderings": [["min_deploy_alt", "max_deploy_alt"]]}))
        message = self.run_space_file(capsys, tmp_path, space_file)
        assert message == ("error: parameter 'battery_init' has empty or unbounded "
                           "interval [-1e+308, 1e+308]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--horizon", "nan"),
                                             ("--horizon", "inf")])
    def test_nonfinite_step_or_horizon(self, capsys, flag, value):
        assert "finite" in self.usage_error(capsys, ["run", flag, value])

    @pytest.mark.parametrize("flags", [["--horizon", "1e308"], ["--dt", "1e-320"],
                                       ["--altitude", "20", "--delta", "1e300"]])
    def test_step_count_too_large(self, capsys, flags):
        # the last one only overflows when the truncated verdict re-simulates
        # over a horizon extended by the delay
        assert "too many" in self.usage_error(capsys, ["run", *flags])

    def test_resimulation_names_the_look_ahead(self, capsys):
        # the user's horizon is fine; the property's look-ahead past it is not
        message = self.usage_error(capsys, ["run", "--altitude", "20", "--delta", "1e300"])
        assert "look-ahead of 1e+300 s past the 120 s horizon" in message
        assert "horizon 1e+300" not in message

    def test_huge_delay_is_judged(self, capsys):
        # a window far past the trace end is as Unknown as one just past it
        assert main(["run", "--delta", "1e308"]) == 0
        assert "Status: DEPLOYED" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [("fuzz", "--runs"),
                                               ("conformance", "--n-configs"),
                                               ("margins", "--runs")])
    def test_negative_count_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, flag, "-1"])
        assert err.value.code == 2
        assert capsys.readouterr().err.strip().split("\n")[-1] == (
            f"hdsf {command}: error: argument {flag}: expected a nonnegative integer, "
            "got '-1'")

    @pytest.mark.parametrize("command", ["run", "run-full", "fuzz", "conformance",
                                         "margins", "timing"])
    @pytest.mark.parametrize("key", ["min_deploy_alt", "max_deploy_alt",
                                     "low_batt_threshold", "delta"])
    def test_scenario_trial_key_rejected(self, capsys, tmp_path, monkeypatch, command, key):
        # trial values are flags of run / run-full, never model parameters
        monkeypatch.chdir(tmp_path)  # where fuzz and margins would write
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({key: 3}))
        message = self.usage_error(capsys, [command, "--scenario", str(scenario)])
        assert f"unknown key {key!r}" in message

    @pytest.mark.parametrize("flags, message", [
        (["--min-deploy-alt", "90", "--max-deploy-alt", "80"], "must be below"),
        (["--delta", "0"], "delta must be positive")])
    def test_invalid_trial_flags(self, capsys, flags, message):
        assert message in self.usage_error(capsys, ["run", *flags])

    def test_space_file_nonpositive_delta(self, capsys, tmp_path, monkeypatch):
        # a mutation clipped to a lower bound of 0 gives a delta of exactly 0
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        space_file = tmp_path / "space.json"
        bounds = {name: list(bound) for name, bound
                  in default_config_space(DroneParams()).bounds.items()}
        for delta in ([-1.0, -0.5], [0.0, 0.2]):
            space_file.write_text(json.dumps({
                "bounds": {**bounds, "delta": delta},
                "orderings": [["min_deploy_alt", "max_deploy_alt"]]}))
            message = self.run_space_file(capsys, tmp_path, space_file)
            assert message == ("error: delta must be positive, but the space allows "
                               f"delta = {delta[0]}")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["ordering", "rng_seed"])
    def test_space_file_unknown_key(self, capsys, tmp_path, key):
        # a misspelt "orderings" would drop the band ordering; a seed in the
        # file would be overridden by --seed
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "bounds": {"min_deploy_alt": [20.0, 90.0], "max_deploy_alt": [40.0, 120.0]},
            key: [["min_deploy_alt", "max_deploy_alt"]] if key == "ordering" else 5}))
        message = self.run_space_file(capsys, tmp_path, space_file)
        assert f"unknown keys [{key!r}]" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, dropped, named", [
        ({"extra": [0.0, 1.0]}, None, "unknown: ['extra'], missing: []"),
        ({}, "delta", "unknown: [], missing: ['delta']")])
    def test_space_file_other_parameters(self, capsys, tmp_path, monkeypatch,
                                         extra, dropped, named):
        # a name the surrogate never reads would be a dead search dimension,
        # and a missing one would fail only once trials run
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        bounds = {name: list(bound) for name, bound
                  in default_config_space(DroneParams()).bounds.items() if name != dropped}
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "bounds": {**bounds, **extra},
            "orderings": [["min_deploy_alt", "max_deploy_alt"]]}))
        message = self.run_space_file(capsys, tmp_path, space_file)
        assert message.startswith("error: space must bound exactly the parameters [")
        assert message.endswith(named)
        assert not (tmp_path / "out").exists()

    def test_space_file_inverted_band(self, capsys, tmp_path):
        # without the band ordering these bounds only draw inverted bands
        space_file = tmp_path / "space.json"
        bounds = {name: list(bound) for name, bound
                  in default_config_space(DroneParams()).bounds.items()}
        space_file.write_text(json.dumps({"bounds": {
            **bounds, "min_deploy_alt": [60.0, 90.0], "max_deploy_alt": [10.0, 50.0]}}))
        message = self.run_space_file(capsys, tmp_path, space_file)
        assert message == "error: min_deploy_alt 90.0 must be below max_deploy_alt 10.0"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuzz", "margins"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_dir_that_cannot_be_made(self, capsys, tmp_path, monkeypatch,
                                         command, below):
        # a regular file where the directory, or one of its parents, would go
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        taken = tmp_path / "taken"
        taken.write_text("")
        out_dir = taken / "out" if below else taken
        message = self.usage_error(capsys, [command, "--runs", "20", "--seed", "7",
                                            "--out-dir", str(out_dir)])
        assert message.startswith(f"error: cannot create output directory {out_dir}: ")
        assert taken.read_text() == ""

    def test_non_integer_seed_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HDSF_SEED", "seven")
        with pytest.raises(SystemExit) as err:
            main(["fuzz"])
        assert err.value.code == 2
        assert capsys.readouterr().err.strip().split("\n")[-1].startswith(
            "hdsf fuzz: error: argument --seed")

    @pytest.mark.parametrize("command", ["fuzz", "conformance", "margins", "timing"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_negative_seed_exits_2(self, capsys, tmp_path, monkeypatch, command, from_env):
        # a seed sequence takes no negative entropy, so the parser turns it away
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(falsify, "simulate", no_trial)
        monkeypatch.chdir(tmp_path)
        argv = [command] + (["--out-dir", "out"] if command in ("fuzz", "margins") else [])
        if from_env:
            monkeypatch.setenv("HDSF_SEED", "-1")
        else:
            monkeypatch.delenv("HDSF_SEED", raising=False)
            argv += ["--seed", "-1"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.strip().split("\n")[-1] == (
            f"hdsf {command}: error: argument --seed: expected a nonnegative integer, "
            "got '-1'")
        assert list(tmp_path.iterdir()) == []


class TestFuzzCommand:
    def test_patched_campaign_zero_violations(self, capsys, tmp_path):
        code = main(["fuzz", "--variant", "patched", "--runs", "50",
                     "--seed", "7", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Unique Violations: 0" in out
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["unique_violations"] == 0

    def test_zero_runs_empty_outputs(self, capsys, tmp_path):
        code = main(["fuzz", "--runs", "0", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "violations.jsonl").read_text() == ""
        rows = (tmp_path / "margins.csv").read_text().strip().split("\n")
        assert len(rows) == 1  # header only

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["fuzz", "--variant", "buggy", "--runs", "40", "--seed", "7"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("summary.json", "violations.jsonl", "margins.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_violation_rows_cluster_at_low_battery_out_of_band(self, tmp_path, capsys):
        assert main(["fuzz", "--variant", "buggy", "--runs", "120", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "margins.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        violated = [r for r in rows if r["verdict"] == "Violated"]
        assert violated
        for row in violated:
            assert float(row["battery_margin"]) <= 0.0
            assert row["in_band"] == "False"

    def test_infeasible_space_exits_2(self, capsys, tmp_path):
        space_file = tmp_path / "bad_space.json"
        space_file.write_text(json.dumps({
            "bounds": {"min_deploy_alt": [80.0, 90.0], "max_deploy_alt": [10.0, 20.0]},
            "orderings": [["min_deploy_alt", "max_deploy_alt"]],
        }))
        code = main(["fuzz", "--runs", "5", "--space-file", str(space_file),
                     "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    def test_space_file(self, capsys, tmp_path):
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "bounds": {"battery_init": [50.0, 60.0], "altitude_init": [65.0, 75.0],
                       "min_deploy_alt": [60.0, 60.0], "max_deploy_alt": [80.0, 80.0],
                       "low_batt_threshold": [10.0, 10.0], "delta": [2.0, 2.0]},
            "orderings": [["min_deploy_alt", "max_deploy_alt"]],
        }))
        out_dir = tmp_path / "out"
        code = main(["fuzz", "--variant", "buggy", "--runs", "10", "--seed", "5",
                     "--space-file", str(space_file), "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        # battery stays comfortably above threshold within this space
        assert summary["unique_violations"] == 0


class TestConformanceCommand:
    def test_small_conformance_run(self, capsys):
        code = main(["conformance", "--n-configs", "5", "--seed", "13"])
        out = capsys.readouterr().out
        assert "Agreement: 5/5 (100.0%)" in out
        assert code == 0

    def test_reference_config_pair(self, capsys):
        code = main(["conformance", "--n-configs", "3", "--seed", "2",
                     "--variant", "patched"])
        out = capsys.readouterr().out
        assert "DISAGREE" not in out
        assert code == 0


class TestMarginsCommand:
    def test_margin_export(self, capsys, tmp_path):
        code = main(["margins", "--runs", "30", "--seed", "9",
                     "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        with open(tmp_path / "margins.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header[:6] == ["trial", "battery_margin", "altitude_margin",
                              "in_band", "verdict", "quadrant"]
        assert len(rows) == 30

    def test_forks_nothing(self, capsys, tmp_path, count_forks):
        assert main(["margins", "--runs", "20", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert count_forks == []


class TestTimingCommand:
    def test_small_timing_run(self, capsys):
        code = main(["timing", "--n-configs", "10", "--horizon", "10", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert any(line.startswith("Speedup: ") for line in out.split("\n"))

    def test_too_few_configurations_exit_2(self, capsys):
        code = main(["timing", "--n-configs", "5"])
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("command, check", [("conformance", "conformance_check"),
                                            ("timing", "timing_comparison")])
def test_configuration_t_is_drawn_from_trial_stream_t(monkeypatch, command, check):
    # as in margins: one configuration stream for every command
    sampled = []

    def capture(params, *args):
        sampled.extend(next(arg for arg in args if isinstance(arg, list)))
        raise ConfigurationError("sampled")

    monkeypatch.setattr(cli, check, capture)
    assert main([command, "--n-configs", "12", "--seed", "5"]) == 2
    space = default_config_space(DroneParams())
    assert sampled == [generate(space, trial_rng(5, t)) for t in range(12)]


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports hdsf from this checkout."""
    paths = [str(Path(hdsf.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestStartUp:
    """hdsf never loads scipy, so a process starts without its import time."""

    def test_cli_import_loads_no_scipy(self, tmp_path):
        done = run_python(
            "import sys\n"
            "import hdsf.cli\n"
            "loaded = [name for name, module in sys.modules.items()\n"
            "          if module is not None and name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n", tmp_path)
        assert done.returncode == 0, done.stderr

    def test_commands_run_without_scipy(self, tmp_path):
        done = run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from hdsf.cli import main\n"
            "assert main(['run', '--battery', '10', '--altitude', '20']) == 1\n"
            "assert main(['fuzz', '--runs', '20', '--seed', '3', '--out-dir', 'out']) == 0\n",
            tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "summary.json").is_file()


class TestSeedEnvironment:
    def test_env_var_overrides_default_seed(self, monkeypatch):
        monkeypatch.setenv("HDSF_SEED", "424242")
        args = build_parser().parse_args(["fuzz", "--runs", "1"])
        assert args.seed == 424242

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("HDSF_SEED", "424242")
        args = build_parser().parse_args(["fuzz", "--runs", "1", "--seed", "5"])
        assert args.seed == 5


MODEL_FLAGS = {"--variant", "--dt", "--horizon", "--scenario"}
TRIAL_FLAGS = {"--battery", "--altitude", "--min-deploy-alt", "--max-deploy-alt",
               "--batt-threshold", "--delta"}
OPTIONS = {
    "run": MODEL_FLAGS | TRIAL_FLAGS,
    "run-full": MODEL_FLAGS | TRIAL_FLAGS | {"--entry", "--full-dt"},
    "fuzz": MODEL_FLAGS | {"--seed", "--runs", "--out-dir", "--space-file"},
    "conformance": MODEL_FLAGS | {"--seed", "--n-configs"},
    "margins": MODEL_FLAGS | {"--seed", "--runs", "--out-dir"},
    "timing": MODEL_FLAGS | {"--seed", "--n-configs"},
}
# every subcommand used to accept all of these, read or not
FORMERLY_SHARED = MODEL_FLAGS | TRIAL_FLAGS | {"--seed", "--runs", "--out-dir"}
UNREAD = sorted((command, flag) for command, options in OPTIONS.items()
                for flag in FORMERLY_SHARED - options)


class TestParser:
    """Each subcommand accepts only the flags its command reads."""

    def test_option_sets_pinned(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {name: {flag for action in sub._actions for flag in action.option_strings
                          if flag not in ("-h", "--help")}
                   for name, sub in subparsers.choices.items()}
        assert options == OPTIONS
        assert sum(len(flags) for flags in OPTIONS.values()) == 49
        assert len(UNREAD) == 34

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, flag, "1"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
