"""Constraint-preserving generation, boundary-seeking mutation, failure
classes, campaigns and their artifacts."""

import csv
import dataclasses
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from hdsf import falsify
from hdsf.config import Configuration, ConfigSpace
from hdsf.drone import (ControllerVariant, DroneParams, build_surrogate_system,
                        default_config_space, default_configuration, phi_for)
from hdsf.errors import SpaceError, TrialFault
from hdsf.falsify import (MUTATION_FRACTION, campaign, generate, mutate, run_trial,
                          trial_rng)
from hdsf.hybrid import (Guard, HybridSystem, RateForm, StateExpr, Trace, trace_to_jsonl,
                         write_trace_jsonl)
from hdsf.margins import MarginPoint, compute_margins, quadrant_for
from hdsf.stl import Atom, Eventually, Globally, Outcome, evaluate

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
        assert dict(config) == {"a": 3.0, "b": 7.0}

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

    @pytest.mark.parametrize("bound", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.nan)])
    def test_unbounded_interval_rejected_at_construction(self, bound):
        # the first has finite ends, but no uniform draw spans their distance
        with pytest.raises(SpaceError, match="empty or unbounded interval"):
            ConfigSpace(bounds={"a": bound})

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

    @pytest.mark.parametrize("orderings", [(("a", "b"), ("b", "c"), ("c", "a")),
                                           (("a", "b"), ("c", "c"))])
    def test_cycle_message_lists_the_cycle(self, orderings):
        # the message is a chain of orderings that ends where it starts
        with pytest.raises(SpaceError) as err:
            ConfigSpace(bounds={"a": (0.0, 1.0), "b": (0.0, 1.0), "c": (0.0, 1.0)},
                        orderings=orderings)
        prefix = "ordering constraints contain a cycle: "
        assert str(err.value).startswith(prefix)
        chain = str(err.value)[len(prefix):].split(" < ")
        assert len(chain) >= 2 and chain[0] == chain[-1]
        assert set(zip(chain, chain[1:])) <= set(orderings)
        assert len(chain) == (4 if len(orderings) == 3 else 2)

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
        assert (len(trace) - 1) * trace.dt > horizon  # the extension actually ran

    def test_extension_reads_a_named_bound(self):
        # F[0, d] x >= 2.5 on x = t is undecided on a 1 s run; the re-simulation
        # looks d = 4 s further ahead, read from the configuration, and decides it
        system = HybridSystem(signal_names=("x",),
                              dynamics={"M": {"x": StateExpr(form=RateForm(1.0))}},
                              guards={}, initial_mode="M", initials={"x": 0.0})
        phi = Eventually(Atom("x", ">=", 2.5), interval=(0.0, "d"))
        verdict, trace = run_trial(system, Configuration(d=4.0), phi, 0.1, 1.0)
        assert verdict.outcome is Outcome.SATISFIED
        assert (len(trace) - 1) * trace.dt > 5.0

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
    def margins(self, side, altitude_margin=None):
        if altitude_margin is None:
            altitude_margin = {"below": -10.0, "above": 12.0, "in": 0.0}[side]
        return MarginPoint(battery_margin=-0.01, altitude_margin=altitude_margin,
                           in_band=(side == "in"), verdict=Outcome.VIOLATED,
                           quadrant="Q3")

    def test_distant_configs_in_one_bucket_are_duplicates(self):
        # every parameter more than a unit apart, the same side and bucket
        a = dict(battery_init=50.2, altitude_init=20.0, min_deploy_alt=60.0,
                 max_deploy_alt=80.0, low_batt_threshold=10.0, delta=2.0)
        b = {name: value + 1.5 for name, value in a.items()}
        point_a, point_b = self.decided(a, 8.0), self.decided(b, 9.0)
        assert point_a.altitude_margin != point_b.altitude_margin
        assert point_a.failure_class == point_b.failure_class == "below|-6"

    @staticmethod
    def decided(values, altitude):
        """The margin point of a two-sample run of ``values`` deciding at
        ``altitude``: the battery is at the threshold from the start."""
        threshold = values["low_batt_threshold"]
        trace = Trace([("FLY", 0)], {"battery": np.array([threshold, threshold]),
                                     "altitude": np.array([altitude, altitude])}, [], 0.1, 2)
        return compute_margins(trace, Configuration(values), Outcome.VIOLATED)

    def test_identical_configs_are_duplicates(self):
        values = dict(battery_init=50.2, altitude_init=20.0, min_deploy_alt=60.0,
                      max_deploy_alt=80.0, low_batt_threshold=10.0, delta=2.0)
        assert self.decided(values, 85.0).failure_class == "above|0"
        assert (self.decided(values, 85.0).failure_class
                == self.decided(dict(values), 85.0).failure_class)

    def test_below_vs_above_band_distinct(self):
        assert self.margins("below").failure_class != self.margins("above").failure_class

    def test_bucket_edge_splits_classes(self):
        assert self.margins("below", -9.99).failure_class == "below|-1"
        assert self.margins("below", -10.01).failure_class == "below|-2"

    def test_every_in_band_point_is_one_class(self):
        points = [MarginPoint(battery_margin=b, altitude_margin=0.0, in_band=True,
                              verdict=Outcome.VIOLATED, quadrant=quadrant_for(b, 0.0))
                  for b in (-3.0, -0.0, 0.0, 4.5)]
        assert {p.failure_class for p in points} == {"in_band|0"}

    def test_campaign_classes_follow_margins_csv(self, tmp_path):
        params = DroneParams()
        surrogate = build_surrogate_system(params, ControllerVariant.BUGGY)
        summary, _ = campaign(surrogate, phi_for, surrogate.parameter_space, 80,
                              dt=params.dt, horizon=params.horizon, seed=5,
                              out_dir=tmp_path)
        with open(tmp_path / "margins.csv", newline="") as fh:
            violated = [row for row in csv.DictReader(fh) if row["verdict"] == "Violated"]
        first = {}  # class -> trial of its first violated row
        for row in violated:
            margin = float(row["altitude_margin"])
            side = ("in_band" if row["in_band"] == "True"
                    else "above" if margin > 0 else "below")
            first.setdefault(f"{side}|{math.floor(margin / 10.0)}", int(row["trial"]))
        records = [json.loads(line)
                   for line in (tmp_path / "violations.jsonl").read_text().splitlines()]
        assert 1 < len(first) < len(violated)
        assert {r["signature"]: r["trial"] for r in records} == first
        assert [r["trial"] for r in records] == sorted(first.values())
        assert summary.unique_violations == len(first)
        assert summary.raw_violations == len(violated)
        assert summary.violation_rate == len(violated) / 80
        assert len(list((tmp_path / "traces").iterdir())) == len(first)


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
            verdict = evaluate(phi_for, record.trace, record.config)
            assert verdict.outcome is Outcome.VIOLATED
        # one logged violation per failure class
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
        assert data == {"total_runs": 5, "raw_violations": 0, "unique_violations": 0,
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


class Boom(Exception):
    pass


def buggy_campaign(out_dir=None):
    params = DroneParams()
    surrogate = build_surrogate_system(params, ControllerVariant.BUGGY)
    return campaign(surrogate, phi_for, surrogate.parameter_space, 60,
                    dt=params.dt, horizon=params.horizon, seed=7, out_dir=out_dir)


def trace_name(record) -> str:
    return f"trial_{record.trial:05d}.jsonl"


class TestMapTrials:
    """``write_campaign_outputs`` maps each violation to its trace file in a
    plain loop, in violation order: the files are those a serial loop of
    ``write_trace_jsonl`` writes, on any CPU count, and nothing forks."""

    @pytest.fixture(scope="class")
    def buggy(self):
        summary, violations = buggy_campaign()
        assert len(violations) >= 7
        return summary, violations

    @staticmethod
    def write_outputs(out_dir, summary, records):
        space = default_config_space(DroneParams())
        falsify.write_campaign_outputs(out_dir, summary, records, [], space)

    @pytest.mark.parametrize("n_items", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
    def test_equals_the_serial_loop(self, force_cpus, count_forks, monkeypatch, tmp_path,
                                    buggy, n_cpus, n_items):
        force_cpus(n_cpus)
        summary, violations = buggy
        records = violations[:n_items]
        serial = tmp_path / "serial"
        serial.mkdir()
        for record in records:
            write_trace_jsonl(record.trace, serial / trace_name(record))
        written = []  # the trace paths, in the order they are written

        def write(trace, path):
            written.append(path)
            write_trace_jsonl(trace, path)

        monkeypatch.setattr(falsify, "write_trace_jsonl", write)
        self.write_outputs(tmp_path / "out", summary, records)
        traces = tmp_path / "out" / "traces"
        assert written == [traces / trace_name(record) for record in records]
        assert files_under(traces) == files_under(serial)
        assert count_forks == []

    @pytest.mark.parametrize("earlier", [True, False])
    @pytest.mark.parametrize("n_cpus", [2, 3, 4])
    def test_reraises_the_lowest_index(self, force_cpus, count_forks, tmp_path, buggy,
                                       n_cpus, earlier):
        force_cpus(n_cpus)
        summary, violations = buggy
        records = violations[:7]
        # two neighbouring traces, from index n_cpus - 1 or n_cpus, are blocked
        # by directories: the loop raises at the lower and writes none after it
        lowest = n_cpus - 1 if earlier else n_cpus
        traces = tmp_path / "traces"
        for record in records[lowest:lowest + 2]:
            (traces / trace_name(record)).mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as err:
            self.write_outputs(tmp_path, summary, records)
        assert err.value.filename == str(traces / trace_name(records[lowest]))
        assert set(files_under(traces)) == {trace_name(r) for r in records[:lowest]}
        assert count_forks == []


class TestForkedTraceWrites:
    """A campaign's trace files, once written by forked workers, are written
    in this process: one per failure class, the same files on any CPU count,
    and nothing forks."""

    def test_same_files_on_one_cpu_and_on_three(self, force_cpus, count_forks, tmp_path):
        written = {}
        for n_cpus in (1, 3):
            force_cpus(n_cpus)
            out_dir = tmp_path / f"cpus-{n_cpus}"
            _, violations = buggy_campaign(out_dir)
            written[n_cpus] = files_under(out_dir)
        assert len(violations) >= 3
        assert count_forks == []
        assert set(written[1]) == {"summary.json", "violations.jsonl", "margins.csv",
                                   *(record.trace_ref for record in violations)}
        for record in violations:
            assert written[1][record.trace_ref] == trace_to_jsonl(record.trace).encode()
        assert written[1] == written[3]

    def test_a_write_error_reaches_the_caller(self, tmp_path):
        _, violations = buggy_campaign()
        # the second trace is blocked by a directory; the first is written
        blocked = tmp_path / "traces" / f"trial_{violations[1].trial:05d}.jsonl"
        blocked.mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as err:
            buggy_campaign(tmp_path)
        assert err.value.filename == str(blocked)
        assert (tmp_path / "traces" / f"trial_{violations[0].trial:05d}.jsonl").is_file()

    def test_a_reused_out_dir_keeps_only_this_campaigns_traces(self, tmp_path):
        params = DroneParams()
        surrogate = build_surrogate_system(params, ControllerVariant.BUGGY)

        def run(out_dir, runs, seed):
            return campaign(surrogate, phi_for, surrogate.parameter_space, runs,
                            dt=params.dt, horizon=params.horizon, seed=seed, out_dir=out_dir)

        run(tmp_path / "reused", 100, 7)
        run(tmp_path / "reused", 10, 3)
        _, violations = run(tmp_path / "fresh", 10, 3)
        assert violations  # the later campaign writes traces of its own
        assert files_under(tmp_path / "reused") == files_under(tmp_path / "fresh")


LATE_FILL_SPACE = Path(__file__).parent / "spaces" / "late-fill.json"


def files_under(out_dir: Path) -> dict[str, bytes]:
    return {str(path.relative_to(out_dir)): path.read_bytes()
            for path in out_dir.rglob("*") if path.is_file()}


def near_boundary_trials(out_dir: Path) -> list[int]:
    """The trials whose rows in margins.csv join the mutation pool."""
    with open(out_dir / "margins.csv", newline="") as fh:
        return [int(row["trial"]) for row in csv.DictReader(fh)
                if MarginPoint(float(row["battery_margin"]), float(row["altitude_margin"]),
                               row["in_band"] == "True", Outcome(row["verdict"]),
                               row["quadrant"]).near_boundary]


def generates(seed: int, trial: int) -> bool:
    """Whether a trial generates once the pool is nonempty."""
    return trial_rng(seed, trial).random() >= MUTATION_FRACTION


def faulty_system(above: float) -> HybridSystem:
    """The battery drains at 1/s and the altitude holds; a run whose
    battery starts above ``above`` faults on its first step."""
    def drain(state, params):
        return math.inf if params["battery_init"] > above else -1.0

    return HybridSystem(signal_names=("battery", "altitude"),
                        dynamics={"M": {"battery": StateExpr(drain)}}, guards={},
                        initial_mode="M",
                        initials={"battery": "battery_init", "altitude": "altitude_init"})


FAULTY_SPACE = ConfigSpace(bounds={"battery_init": (0.0, 100.0),
                                   "altitude_init": (10.0, 20.0),
                                   "min_deploy_alt": (10.0, 20.0),
                                   "max_deploy_alt": (30.0, 40.0),
                                   "low_batt_threshold": (5.0, 6.0)},
                           orderings=(("min_deploy_alt", "max_deploy_alt"),))


class TestCampaignOnWorkers:
    """A campaign runs every trial in this process, in trial order, and
    forks no worker."""

    params = DroneParams()

    def drone_campaign(self, variant, space=None, *, runs=60, seed=1, surrogate=None,
                       out_dir=None):
        if surrogate is None:
            surrogate = build_surrogate_system(self.params, variant)
        return campaign(surrogate, phi_for, space or surrogate.parameter_space, runs,
                        dt=self.params.dt, horizon=self.params.horizon, seed=seed,
                        out_dir=out_dir)

    @staticmethod
    def comparable(result):
        summary, violations = result
        summary = {k: v for k, v in vars(summary).items() if k != "wall_time"}
        records = []
        for record in violations:
            fields = {k: v for k, v in vars(record).items() if k != "trace"}
            trace = record.trace
            fields["trace"] = (trace.mode_runs, len(trace), trace.events, trace.dt,
                               {name: column.tobytes()
                                for name, column in trace.signals.items()})
            records.append(fields)
        return summary, records

    @pytest.mark.parametrize("late_fill", [False, True])
    @pytest.mark.parametrize("variant", list(ControllerVariant))
    def test_same_results_on_one_two_and_three_cpus(self, force_cpus, count_forks,
                                                    tmp_path, variant, late_fill):
        space = (ConfigSpace.from_json(LATE_FILL_SPACE.read_text()) if late_fill
                 else None)
        results, written = {}, {}
        for n_cpus in (1, 2, 3):
            force_cpus(n_cpus)
            out_dir = tmp_path / f"cpus-{n_cpus}"
            results[n_cpus] = self.comparable(
                self.drone_campaign(variant, space, out_dir=out_dir))
            written[n_cpus] = files_under(out_dir)
        if late_fill and variant is ControllerVariant.BUGGY:
            assert near_boundary_trials(tmp_path / "cpus-1")[0] == 21
        assert results[1] == results[2] == results[3]
        assert written[1] == written[2] == written[3]
        assert count_forks == []

    @pytest.mark.parametrize("runs, later_generated", [(22, 0), (24, 1), (25, 2)])
    def test_generated_trials_after_a_late_fill_run_here(self, count_forks, tmp_path, runs,
                                                         later_generated):
        # with the late-fill space the buggy pool fills at trial 21; no count
        # of generated trials after it, two included, makes the campaign fork
        space = ConfigSpace.from_json(LATE_FILL_SPACE.read_text())
        assert sum(generates(1, t) for t in range(22, runs)) == later_generated
        self.drone_campaign(ControllerVariant.BUGGY, space, runs=runs, out_dir=tmp_path)
        assert near_boundary_trials(tmp_path)[0] == 21
        assert count_forks == []

    def test_trial_faults_in_generated_trials(self, count_forks, tmp_path):
        phi = Globally(Atom("battery", ">", 3.0))
        summary, _ = campaign(faulty_system(90.0), phi, FAULTY_SPACE, 60,
                              dt=0.1, horizon=5.0, seed=1, out_dir=tmp_path)
        # seed 1 faults without aborting, and the faulted trials have no row
        rows = (tmp_path / "margins.csv").read_text().splitlines()
        assert summary.unique_violations > 0 and 1 < len(rows) < 61
        # seed 0 aborts at a generated trial, 4 faults in 34 trials
        with pytest.raises(SpaceError, match="campaign aborted") as err:
            campaign(faulty_system(90.0), phi, FAULTY_SPACE, 60,
                     dt=0.1, horizon=5.0, seed=0)
        assert str(err.value).startswith("campaign aborted: 4/34 trials faulted")
        assert isinstance(err.value.__cause__, TrialFault)
        assert generates(0, 33)
        assert count_forks == []

    def test_an_error_in_a_generated_trial_reaches_the_caller(self, tmp_path):
        seed = 7
        self.drone_campaign(ControllerVariant.BUGGY, seed=seed, out_dir=tmp_path / "clean")
        fills = near_boundary_trials(tmp_path / "clean")[0]
        # the fourth trial after the pool fills that generates
        trial = [t for t in range(fills + 1, 60) if generates(seed, t)][3]
        rng = trial_rng(seed, trial)
        rng.random()
        target = generate(default_config_space(self.params), rng)

        def trap(state, config):
            if config == target:
                raise Boom(f"config {dict(config)}")
            return False

        # an opaque guard that reads no signal is called on a run's first sample
        surrogate = build_surrogate_system(self.params, ControllerVariant.BUGGY)
        system = surrogate.system
        guards = {mode: (Guard("trap", trap, mode), *edges)
                  for mode, edges in system.guards.items()}
        trapped = dataclasses.replace(surrogate,
                                      system=dataclasses.replace(system, guards=guards))
        out_dir = tmp_path / "trapped"
        with pytest.raises(Boom) as err:
            self.drone_campaign(ControllerVariant.BUGGY, seed=seed, surrogate=trapped,
                                out_dir=out_dir)
        assert not out_dir.exists()
        assert str(err.value) == f"config {dict(target)}"

    def test_an_interrupt_at_the_first_trace_write_ends_the_campaign(self, count_forks,
                                                                     monkeypatch, tmp_path):
        # the campaign's trace writes run here: an interrupt at the first ends
        # the campaign there
        written = []

        def write(trace, path):
            written.append(path)
            raise KeyboardInterrupt

        monkeypatch.setattr(falsify, "write_trace_jsonl", write)
        with pytest.raises(KeyboardInterrupt):
            self.drone_campaign(ControllerVariant.BUGGY, seed=3, out_dir=tmp_path)
        assert len(written) == 1
        assert count_forks == []

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_this_process_builds_each_trial_stream_once(self, force_cpus, count_forks,
                                                         monkeypatch, n_cpus):
        # every trial's stream is built here, once, in trial order, on any
        # CPU count
        force_cpus(n_cpus)
        built = []
        monkeypatch.setattr(falsify, "trial_rng",
                            lambda seed, trial: built.append(trial) or trial_rng(seed, trial))
        result = self.comparable(self.drone_campaign(ControllerVariant.PATCHED, runs=50))
        assert built == list(range(50))
        assert count_forks == []
        monkeypatch.undo()
        force_cpus(1)
        assert result == self.comparable(
            self.drone_campaign(ControllerVariant.PATCHED, runs=50))

    def test_forks_nothing_and_holds_one_trial_stream(self, count_forks, monkeypatch):
        # every trial runs here: its stream is built once, and it is the only
        # one alive while the trial runs
        streams = []  # a weak reference to each trial's stream, in trial order
        alive = []  # how many streams were alive as each trial ran

        class Tracked(np.random.Generator):
            """The same stream, in a class that takes weak references."""

        def tracked(seed, trial):
            rng = Tracked(trial_rng(seed, trial).bit_generator)
            streams.append((trial, weakref.ref(rng)))
            return rng

        def counted(*args):
            alive.append(sum(ref() is not None for _, ref in streams))
            return run_trial(*args)

        mutated = []
        monkeypatch.setattr(falsify, "trial_rng", tracked)
        monkeypatch.setattr(falsify, "run_trial", counted)
        monkeypatch.setattr(falsify, "mutate", lambda *args: mutated.append(None) or mutate(*args))
        result = self.comparable(self.drone_campaign(ControllerVariant.PATCHED, runs=50))
        assert count_forks == []
        assert [trial for trial, _ in streams] == list(range(50))
        assert alive == [1] * 50
        assert len(mutated) >= 10  # the pool filled
        monkeypatch.undo()
        assert result == self.comparable(
            self.drone_campaign(ControllerVariant.PATCHED, runs=50))

    def test_a_pool_that_never_fills_forks_nothing(self, count_forks):
        space = default_config_space(self.params)
        bounds = {**space.bounds, "battery_init": (0.0, 1.0), "altitude_init": (0.0, 5.0),
                  "low_batt_threshold": (20.0, 30.0)}
        summary, _ = self.drone_campaign(
            ControllerVariant.BUGGY, ConfigSpace(bounds=bounds, orderings=space.orderings))
        assert summary.unique_violations > 0
        assert count_forks == []
