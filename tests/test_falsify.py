"""Constraint-preserving generation, boundary-seeking mutation, violation
signatures, campaigns."""

import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from hdsf.config import Configuration, ConfigSpace
from hdsf.drone import (ControllerVariant, DroneParams, build_surrogate_system,
                        default_config_space, default_configuration, phi_for)
from hdsf.errors import SpaceError
from hdsf.falsify import campaign, generate, mutate, run_trial, violation_signature
from hdsf.hybrid import HybridSystem, StateExpr
from hdsf.margins import MarginPoint, quadrant_for
from hdsf.stl import Atom, Globally, Outcome, evaluate

from oracles import buggy_violation_predicate


def rng_for(seed=0):
    return np.random.default_rng(seed)


@st.composite
def chain_spaces(draw):
    """Feasible spaces p0 < p1 < ... < pk: integer bounds, often degenerate
    or shared between neighbours, around a strictly increasing witness."""
    witness = sorted(draw(st.sets(st.integers(0, 30), min_size=2, max_size=5)))
    bounds = {f"p{i}": (w - draw(st.integers(0, 15)), w + draw(st.integers(0, 15)))
              for i, w in enumerate(witness)}
    names = list(bounds)
    return ConfigSpace(bounds=bounds, orderings=tuple(zip(names, names[1:])))


class TestGenerate:
    def test_every_draw_satisfies_ordering(self):
        space = default_config_space(DroneParams())
        rng = rng_for(1)
        for _ in range(2000):
            config = generate(space, rng)
            assert config["min_deploy_alt"] < config["max_deploy_alt"]
            assert space.contains(config)

    def test_degenerate_point_space(self):
        space = ConfigSpace(bounds={"a": (3.0, 3.0), "b": (7.0, 7.0)})
        config = generate(space, rng_for(2))
        assert config.as_dict() == {"a": 3.0, "b": 7.0}

    def test_marginals_uniform_by_ks(self):
        bounds = {
            "battery_init": (0.0, 100.0),
            "altitude_init": (0.0, 150.0),
            "low_batt_threshold": (5.0, 30.0),
            "delta": (0.5, 5.0),
        }
        space = ConfigSpace(bounds=bounds)
        rng = rng_for(3)
        draws = [generate(space, rng) for _ in range(10_000)]
        for name, (lo, hi) in bounds.items():
            samples = np.array([c[name] for c in draws])
            statistic = scipy.stats.kstest(samples, "uniform",
                                           args=(lo, hi - lo)).statistic
            assert statistic < 0.05, f"{name}: KS statistic {statistic}"

    def test_infeasible_ordering_rejected_at_construction(self):
        with pytest.raises(SpaceError, match="infeasible"):
            ConfigSpace(bounds={"lo": (10.0, 20.0), "hi": (0.0, 5.0)},
                        orderings=(("lo", "hi"),))

    def test_infeasible_ordering_chain_rejected_at_construction(self):
        # each pair is feasible on its own, but a >= 10 and c <= 5 leave no
        # room for a < b < c
        with pytest.raises(SpaceError, match="infeasible"):
            ConfigSpace(bounds={"a": (10.0, 20.0), "b": (0.0, 30.0), "c": (0.0, 5.0)},
                        orderings=(("a", "b"), ("b", "c")))

    def test_feasible_ordering_chain_constructs(self):
        space = ConfigSpace(bounds={"a": (10.0, 20.0), "b": (0.0, 30.0),
                                    "c": (0.0, 12.0)},
                            orderings=(("a", "b"), ("b", "c")))
        assert space.contains(Configuration({"a": 10.0, "b": 11.0, "c": 12.0}))

    def test_cyclic_orderings_rejected(self):
        with pytest.raises(SpaceError, match="cycle"):
            ConfigSpace(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0)},
                        orderings=(("a", "b"), ("b", "a")))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(space=chain_spaces(), seed=st.integers(0, 2**32 - 1))
    def test_chain_spaces_generate_and_mutate_inside(self, space, seed):
        rng = rng_for(seed)
        for _ in range(10):
            config = generate(space, rng)
            assert space.contains(config), config
            for _ in range(5):
                config = mutate(config, space, None, rng)
                assert space.contains(config), config


def margin_point(battery_margin, altitude_margin, in_band, verdict=Outcome.SATISFIED):
    return MarginPoint(battery_margin, altitude_margin, in_band, verdict,
                       quadrant_for(battery_margin, altitude_margin))


class TestMutate:
    def test_boundary_seeking_battery(self):
        space = default_config_space(DroneParams())
        config = default_configuration(battery_init=10.1, altitude_init=20.0)
        feedback = margin_point(battery_margin=0.1, altitude_margin=-40.0, in_band=False)
        rng = rng_for(4)
        threshold = 10.0
        near = sum(
            abs(mutate(config, space, feedback, rng)["battery_init"] - threshold) <= 0.5
            for _ in range(1000))
        assert near >= 900

    @pytest.mark.parametrize("altitude, edge", [(65.0, 60.0), (75.0, 80.0), (70.0, 60.0)])
    def test_boundary_seeking_altitude_in_band(self, altitude, edge):
        # inside the 60-80 m band: toward the nearer edge, the lower one on a tie
        space = default_config_space(DroneParams())
        config = default_configuration(battery_init=80.0, altitude_init=altitude)
        feedback = margin_point(battery_margin=30.0, altitude_margin=0.0, in_band=True)
        rng = rng_for(5)
        near = sum(abs(mutate(config, space, feedback, rng)["altitude_init"] - edge) <= 2.0
                   for _ in range(1000))
        assert near >= 900

    @pytest.mark.parametrize("altitude, margin", [(50.0, -4.0), (90.0, 6.0)])
    def test_boundary_seeking_altitude_off_band(self, altitude, margin):
        # below or above the band: back by the margin the run decided at
        space = default_config_space(DroneParams())
        config = default_configuration(battery_init=80.0, altitude_init=altitude)
        feedback = margin_point(battery_margin=30.0, altitude_margin=margin, in_band=False)
        rng = rng_for(9)
        target = altitude - margin
        near = sum(abs(mutate(config, space, feedback, rng)["altitude_init"] - target) <= 2.0
                   for _ in range(1000))
        assert near >= 900

    def test_constraints_never_violated(self):
        space = default_config_space(DroneParams())
        rng = rng_for(6)
        config = generate(space, rng)
        feedback = margin_point(0.0, -5.0, False, Outcome.VIOLATED)
        for _ in range(10_000):
            config = mutate(config, space, feedback, rng)
            assert config["min_deploy_alt"] < config["max_deploy_alt"]
            assert space.contains(config)

    def test_mutation_without_feedback_stays_in_space(self):
        space = default_config_space(DroneParams())
        rng = rng_for(7)
        config = generate(space, rng)
        for _ in range(200):
            config = mutate(config, space, None, rng)
            assert space.contains(config)


class TestRunTrial:
    def setup_method(self):
        self.params = DroneParams()
        self.surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)

    def test_reference_config_violates_buggy(self):
        config = default_configuration(10.0, 20.0)
        verdict, trace = run_trial(self.surrogate, config, phi_for,
                                   self.params.dt, self.params.horizon)
        assert verdict.outcome is Outcome.VIOLATED
        assert trace.signals["deployed_flag"].max() < 0.5

    def test_full_battery_short_horizon_is_satisfied(self):
        config = default_configuration(100.0, 70.0)
        verdict, _ = run_trial(self.surrogate, config, phi_for, 0.05, 5.0)
        assert verdict.outcome is Outcome.SATISFIED

    def test_verdicts_match_analytic_predicate(self):
        space = default_config_space(self.params)
        rng = rng_for(8)
        for _ in range(300):
            config = generate(space, rng)
            verdict, _ = run_trial(self.surrogate, config, phi_for,
                                   self.params.dt, self.params.horizon)
            expected = buggy_violation_predicate(
                config, self.params.cruise_drain, self.params.dt, self.params.horizon)
            assert verdict.violated == expected, config

    def test_truncation_triggers_one_extension(self):
        # battery crosses exactly at the final sample of a short horizon on
        # the patched controller: deployment lands beyond the recorded trace,
        # so the trial must re-simulate once and come back Satisfied
        params = self.params
        patched = build_surrogate_system(params, ControllerVariant.PATCHED)
        horizon = 1.0
        # crosses the threshold on the final sample, one sample too late for
        # the deployment to land inside the recorded trace
        threshold = default_configuration(0.0, 20.0)["low_batt_threshold"]
        crossing_b0 = threshold + params.cruise_drain * horizon - 0.01
        config = default_configuration(crossing_b0, 20.0)
        verdict, trace = run_trial(patched, config, phi_for, params.dt, horizon)
        assert verdict.outcome is Outcome.SATISFIED
        assert trace.times[-1] > horizon  # the extension actually ran

    def test_static_mode_is_judged_over_the_whole_horizon(self):
        # a mode with no guards and no rates holds x = 1 to the horizon, so
        # the whole [0, 5] window is observed and satisfied
        system = HybridSystem(signal_names=("x",), dynamics={"M": {}},
                              guards={}, initial_mode="M", initials={"x": 1.0})
        phi = Globally(Atom("x", ">=", 0.5), interval=(0.0, 5.0))
        verdict, trace = run_trial(system, {}, phi, 0.1, 10.0)
        assert verdict.outcome is Outcome.SATISFIED
        assert len(trace) == 101


class TestDedup:
    def margins(self, side):
        return MarginPoint(battery_margin=-0.01,
                           altitude_margin={"below": -10.0, "above": 12.0, "in": 0.0}[side],
                           in_band=(side == "in"), verdict=Outcome.VIOLATED,
                           quadrant="Q3")

    def config(self, **overrides):
        base = dict(battery_init=50.2, altitude_init=20.0, min_deploy_alt=60.0,
                    max_deploy_alt=80.0, low_batt_threshold=10.0, delta=2.0)
        base.update(overrides)
        return Configuration(base)

    def test_quantized_equal_configs_are_duplicates(self):
        a = self.config(battery_init=50.2)
        b = self.config(battery_init=50.4)  # same unit-grid cell
        sig_a = violation_signature(a, self.margins("below"))
        sig_b = violation_signature(b, self.margins("below"))
        assert sig_a == sig_b

    def test_identical_configs_are_duplicates(self):
        a = self.config()
        assert (violation_signature(a, self.margins("below"))
                == violation_signature(a, self.margins("below")))

    def test_below_vs_above_band_distinct(self):
        a = self.config(altitude_init=50.0)
        below = violation_signature(a, self.margins("below"))
        above = violation_signature(a, self.margins("above"))
        assert below != above


class TestCampaign:
    def setup_method(self):
        self.params = DroneParams()

    def test_patched_campaign_has_zero_violations(self):
        surrogate = build_surrogate_system(self.params, ControllerVariant.PATCHED)
        summary, violations = campaign(
            surrogate, phi_for, surrogate.parameter_space, 200,
            dt=self.params.dt, horizon=self.params.horizon, seed=7)
        assert summary.total_runs == 200
        assert summary.unique_violations == 0
        assert violations == []

    def test_zero_budget_empty_summary(self):
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)
        summary, violations = campaign(
            surrogate, phi_for, surrogate.parameter_space, 0,
            dt=self.params.dt, horizon=self.params.horizon, seed=7)
        assert summary.total_runs == 0
        assert summary.unique_violations == 0
        assert summary.violation_rate == 0.0
        assert violations == []

    def test_buggy_campaign_finds_violations_and_replays(self):
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)
        summary, violations = campaign(
            surrogate, phi_for, surrogate.parameter_space, 100,
            dt=self.params.dt, horizon=self.params.horizon, seed=11)
        assert summary.unique_violations > 0
        # soundness: every logged violation's trace re-evaluates as Violated
        for record in violations:
            verdict = evaluate(phi_for(record.config), record.trace)
            assert verdict.outcome is Outcome.VIOLATED
        # one logged violation per signature
        assert len({r.signature for r in violations}) == len(violations)

    def test_byte_identical_reruns(self, tmp_path):
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)

        def run(where):
            campaign(surrogate, phi_for, surrogate.parameter_space, 60,
                     dt=self.params.dt, horizon=self.params.horizon, seed=21,
                     out_dir=where)
            return {name: (where / name).read_bytes()
                    for name in ("summary.json", "violations.jsonl", "margins.csv")}

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert first == second

    def test_margin_csv_row_count_equals_run_count(self, tmp_path):
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)
        campaign(surrogate, phi_for, surrogate.parameter_space, 40,
                 dt=self.params.dt, horizon=self.params.horizon, seed=3,
                 out_dir=tmp_path)
        lines = (tmp_path / "margins.csv").read_text().strip().split("\n")
        assert len(lines) == 41  # header + one row per run

    def test_summary_json_shape(self, tmp_path):
        surrogate = build_surrogate_system(self.params, ControllerVariant.PATCHED)
        campaign(surrogate, phi_for, surrogate.parameter_space, 5,
                 dt=self.params.dt, horizon=self.params.horizon, seed=1,
                 out_dir=tmp_path)
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data == {"total_runs": 5, "unique_violations": 0,
                        "violation_rate": 0.0, "seed": 1, "wall_time": None}

    def test_violation_log_schema(self, tmp_path):
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)
        campaign(surrogate, phi_for, surrogate.parameter_space, 50,
                 dt=self.params.dt, horizon=self.params.horizon, seed=11,
                 out_dir=tmp_path)
        lines = (tmp_path / "violations.jsonl").read_text().strip().split("\n")
        assert lines
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"trial", "config", "witness_t", "signature",
                                   "trace_file"}
            assert (tmp_path / record["trace_file"]).exists()

    def test_persistent_faults_abort(self):
        signals = ("battery", "altitude")
        exploding = {
            "battery": StateExpr(lambda s, p: s["battery"] * s["battery"] * 1e30,
                                 reads=frozenset({"battery"}))}
        system = HybridSystem(
            signal_names=signals, dynamics={"M": exploding},
            guards={"M": ()}, initial_mode="M",
            initials={"battery": "battery_init", "altitude": "altitude_init"})
        space = ConfigSpace(bounds={"battery_init": (50.0, 100.0),
                                    "altitude_init": (10.0, 20.0),
                                    "min_deploy_alt": (10.0, 20.0),
                                    "max_deploy_alt": (30.0, 40.0),
                                    "low_batt_threshold": (5.0, 6.0)},
                            orderings=(("min_deploy_alt", "max_deploy_alt"),))
        with pytest.raises(SpaceError, match="aborted"):
            campaign(system, Globally(Atom("battery", ">", 0.0)), space, 50,
                     dt=0.1, horizon=5.0, seed=1)
