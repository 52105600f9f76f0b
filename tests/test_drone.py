"""End-to-end behavior of the parachute case study."""

import dataclasses
import math
import statistics
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest

from hdsf import drone
from hdsf.config import Configuration, ConfigSpace
from hdsf.drone import (ControllerVariant, DroneParams, build_full_system,
                        build_surrogate_system, check_space, conformance_check,
                        condensed_drone_descent, default_config_space, default_configuration,
                        emergency_deploy_decision, paired_trial_times, phi_for,
                        timing_comparison)
from hdsf.errors import ConfigurationError, SimulationFault, TrialFault
from hdsf.falsify import generate, run_trial
from hdsf.hybrid import simulate
from hdsf.reduction import build_surrogate
from hdsf.stl import Outcome, state_truth


BUGGY = ControllerVariant.BUGGY
PATCHED = ControllerVariant.PATCHED
BAND = ("min_deploy_alt", "max_deploy_alt")


def trace_scan_violated(trace, config) -> bool:
    """Direct trace scan: an antecedent sample with no deployment inside its
    delay window (pessimistic at the trace end)."""
    thr = config["low_batt_threshold"]
    delta = config["delta"]
    battery = trace.signals["battery"]
    altitude = trace.signals["altitude"]
    deployed = trace.signals["deployed_flag"]
    window = int(math.floor(delta / trace.dt + 0.5))
    n = len(battery)
    for i in range(n):
        if battery[i] <= thr and altitude[i] > 0.5:
            j_hi = min(i + window, n - 1)
            if not (deployed[i:j_hi + 1] >= 0.5).any():
                return True
    return False


class TestDeployDecision:
    """The decision the emergency guard of the full model and the surrogate runs."""

    REFERENCE = default_configuration(10.0, 20.0)

    def test_buggy_blocks_outside_band(self):
        assert emergency_deploy_decision(BUGGY, 10.0, 20.0, self.REFERENCE) is False

    def test_patched_unconditional(self):
        assert emergency_deploy_decision(PATCHED, 10.0, 20.0, self.REFERENCE) is True

    def test_buggy_deploys_inside_band(self):
        assert emergency_deploy_decision(BUGGY, 10.0, 70.0, self.REFERENCE) is True

    def test_above_threshold_never_deploys(self):
        for variant in (BUGGY, PATCHED):
            assert emergency_deploy_decision(variant, 50.0, 70.0, self.REFERENCE) is False

    def test_reads_band_and_threshold_from_configuration(self):
        config = default_configuration(25.0, 20.0, min_deploy_alt=15.0,
                                       max_deploy_alt=25.0, low_batt_threshold=30.0)
        assert emergency_deploy_decision(BUGGY, 25.0, 20.0, config) is True
        assert emergency_deploy_decision(BUGGY, 25.0, 26.0, config) is False
        assert emergency_deploy_decision(BUGGY, 31.0, 20.0, config) is False


class TestDeployDecisionTies:
    """The scalar decision and the guard's condition over arrays, which a
    declared mode run evaluates, agree at every tie: the battery at the
    threshold, the altitude at either band edge, signed zeros, and one
    ulp to either side of each."""

    CONFIGS = (default_configuration(0.0, 0.0),
               Configuration(default_configuration(0.0, 0.0), low_batt_threshold=0.0,
                             min_deploy_alt=-0.0, max_deploy_alt=0.0),
               Configuration(default_configuration(0.0, 0.0), low_batt_threshold=-0.0,
                             min_deploy_alt=0.0, max_deploy_alt=5e-324))

    @staticmethod
    def around(*values):
        """Each value, both signed zeros, and one ulp to either side of each."""
        points = set()
        for v in values + (0.0, -0.0):
            points.update((v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)))
        # a set keeps one of 0.0 and -0.0; put both back
        return sorted(points) + [0.0, -0.0]

    @pytest.mark.parametrize("variant", [BUGGY, PATCHED])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_scalar_and_array_decisions_agree(self, variant, config):
        batteries = self.around(config["low_batt_threshold"])
        altitudes = self.around(config["min_deploy_alt"], config["max_deploy_alt"])
        battery, altitude = (np.array(axis, dtype=float).ravel()
                             for axis in np.meshgrid(batteries, altitudes))
        guard = build_full_system(DroneParams(), variant).guards["GOTO"][0]
        truth = state_truth(guard.condition, {"battery": battery, "altitude": altitude}, config)
        scalar = [emergency_deploy_decision(variant, b, a, config)
                  for b, a in zip(battery.tolist(), altitude.tolist())]
        assert truth.tolist() == scalar
        # the ties themselves: at the threshold the battery is critical, and
        # the band is closed
        threshold = config["low_batt_threshold"]
        assert emergency_deploy_decision(variant, threshold, config["min_deploy_alt"], config)
        assert emergency_deploy_decision(variant, threshold, config["max_deploy_alt"], config)
        assert not emergency_deploy_decision(
            variant, float(np.nextafter(threshold, np.inf)), config["min_deploy_alt"], config)


class TestDroneParams:
    def test_defaults_reproduce_reference_thresholds(self):
        config = default_configuration(10.0, 20.0)
        assert (config["min_deploy_alt"], config["max_deploy_alt"],
                config["low_batt_threshold"], config["delta"]) == (60.0, 80.0, 10.0, 2.0)

    def test_invalid_band_rejected(self):
        for low, high in ((90.0, 80.0), (80.0, 80.0)):
            with pytest.raises(ConfigurationError, match="min_deploy_alt"):
                default_configuration(10.0, 20.0, min_deploy_alt=low, max_deploy_alt=high)

    @staticmethod
    def space(bounds, orderings) -> ConfigSpace:
        """The default space with some ``bounds`` replaced, under ``orderings``."""
        default = default_config_space(DroneParams()).bounds
        return ConfigSpace(bounds={**default, **bounds}, orderings=tuple(orderings))

    @pytest.mark.parametrize("bounds, orderings, ok", [
        ({}, [BAND], True),
        ({"min_deploy_alt": (20, 39)}, [], True),
        ({"min_deploy_alt": (20, 40)}, [], False),
        ({}, [("min_deploy_alt", "altitude_init"), ("altitude_init", "max_deploy_alt")], True),
        ({}, [("battery_init", "max_deploy_alt"), ("altitude_init", "battery_init"),
              ("min_deploy_alt", "altitude_init")], True),
        ({}, [("min_deploy_alt", "low_batt_threshold"),
              ("low_batt_threshold", "altitude_init"), ("altitude_init", "max_deploy_alt")],
         True)])
    def test_space_band(self, bounds, orderings, ok):
        # a space passes when its orderings chain the band, in any order and
        # through any parameters, or when no minimum it allows reaches a
        # maximum it allows
        space = self.space(bounds, orderings)
        if ok:
            check_space(space, DroneParams())
        else:
            with pytest.raises(ConfigurationError, match="40.0 must be below"):
                check_space(space, DroneParams())

    @pytest.mark.parametrize("delta, orderings, lowest", [
        ((0.0, 5.0), [BAND], 0.0), ((-1.0, 5.0), [BAND], -1.0), ((0.5, 5.0), [BAND], None),
        ((0.0, 40.0), [BAND, ("low_batt_threshold", "delta")], None)])
    def test_space_delta(self, delta, orderings, lowest):
        # the feasible lower bound decides: an ordering can lift it above 0
        space = self.space({"delta": delta}, orderings)
        if lowest is None:
            check_space(space, DroneParams())
        else:
            with pytest.raises(ConfigurationError,
                               match=f"delta must be positive.*delta = {lowest}$"):
                check_space(space, DroneParams())

    def test_fields_are_the_model_and_run_settings(self):
        assert [f.name for f in dataclasses.fields(DroneParams)] == [
            "cruise_drain", "hover_drain", "descent_rate", "waypoint", "kp",
            "dt", "horizon", "full_model_dt"]

    def test_negative_drain_rejected(self):
        with pytest.raises(ConfigurationError):
            DroneParams(cruise_drain=-0.1)


class TestFullSystem:
    def test_reference_scenario_violates_buggy(self):
        params = DroneParams()
        system = build_full_system(params, BUGGY).with_entry("GOTO")
        config = default_configuration(10.0, 20.0)
        verdict, trace = run_trial(system, config, phi_for, params.dt, params.horizon)
        assert verdict.outcome is Outcome.VIOLATED
        assert trace.signals["deployed_flag"].max() < 0.5

    def test_reference_scenario_satisfied_patched(self):
        params = DroneParams()
        system = build_full_system(params, PATCHED).with_entry("GOTO")
        config = default_configuration(10.0, 20.0)
        verdict, trace = run_trial(system, config, phi_for, params.dt, params.horizon)
        assert verdict.outcome is Outcome.SATISFIED
        assert trace.signals["deployed_flag"].max() >= 0.5

    def test_full_battery_short_mission_vacuous(self):
        params = DroneParams()
        system = build_full_system(params, BUGGY).with_entry("GOTO")
        config = default_configuration(100.0, 70.0)
        verdict, _ = run_trial(system, config, phi_for, params.dt, 10.0)
        assert verdict.outcome is Outcome.SATISFIED

    def test_whole_mission_from_idle(self):
        # a near waypoint so the mission takes off, cruises, and lands
        params = DroneParams(waypoint=(40.0, 0.0, 70.0))
        system = build_full_system(params, BUGGY)
        config = Configuration(default_configuration(100.0, 0.0), mission_start=1.0)
        trace = simulate(system, None, config, params.dt, params.horizon)
        visited = list(dict.fromkeys(mode for mode, _ in trace.mode_runs))
        assert visited[:3] == ["IDLE", "TAKE_OFF", "GOTO"]
        assert "LAND" in visited
        assert trace.signals["altitude"].max() >= 0.95 * 70.0

    def test_mission_does_not_start_without_parameter(self):
        params = DroneParams()
        system = build_full_system(params, BUGGY)
        config = default_configuration(100.0, 0.0)
        trace = simulate(system, None, config, params.dt, 5.0)
        assert trace.mode_runs == [("IDLE", 0)]

    def test_full_trace_projection_preserves_events(self):
        from hdsf.hybrid import project_trace
        params = DroneParams()
        system = build_full_system(params, PATCHED).with_entry("GOTO")
        config = default_configuration(10.0, 20.0)
        trace = simulate(system, None, config, params.dt, 10.0)
        projected = project_trace(trace, ["battery", "altitude"])
        assert list(projected.signals) == ["battery", "altitude"]
        assert projected.events == trace.events
        assert [e.guard for e in projected.events] == ["battery_critical"]


class TestSurrogateSystem:
    def test_structural_match_with_generic_reduction(self):
        params = DroneParams()
        full = build_full_system(params, BUGGY)
        generic = build_surrogate(full, phi_for, entry_mode="GOTO")
        packaged = build_surrogate_system(params, BUGGY)
        a = generic.system.structure_summary()
        b = packaged.system.structure_summary()
        for key in ("modes", "signals", "guards", "initial_mode", "initials"):
            assert a[key] == b[key]

    def test_reference_config_violated_on_buggy(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, BUGGY)
        config = default_configuration(10.0, 20.0)
        verdict, _ = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
        assert verdict.outcome is Outcome.VIOLATED

    def test_patched_satisfied_on_sampled_configs(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, PATCHED)
        rng = np.random.default_rng(31)
        space = surrogate.parameter_space
        for _ in range(300):
            config = generate(space, rng)
            verdict, _ = run_trial(surrogate, config, phi_for, params.dt,
                                   params.horizon)
            assert verdict.outcome is Outcome.SATISFIED, config

    def test_deployment_latching(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, PATCHED)
        rng = np.random.default_rng(37)
        for _ in range(50):
            config = generate(surrogate.parameter_space, rng)
            _, trace = run_trial(surrogate, config, phi_for, params.dt,
                                 params.horizon)
            deployed = trace.signals["deployed_flag"]
            if deployed.max() >= 0.5:
                first = int(np.argmax(deployed >= 0.5))
                assert (deployed[first:] >= 0.5).all()

    def test_violation_characterization_by_trace_scan(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, BUGGY)
        rng = np.random.default_rng(41)
        for _ in range(300):
            config = generate(surrogate.parameter_space, rng)
            verdict, trace = run_trial(surrogate, config, phi_for, params.dt,
                                       params.horizon)
            assert verdict.violated == trace_scan_violated(trace, config), config


class TestConformance:
    def test_reference_config_agrees_violated(self):
        params = DroneParams()
        config = default_configuration(10.0, 20.0)
        report = conformance_check(params, BUGGY, [config], params.dt, params.horizon)
        assert report.pairs[0].full is Outcome.VIOLATED
        assert report.pairs[0].surrogate is Outcome.VIOLATED
        assert report.agreement == 1.0

    @pytest.mark.parametrize("variant", [BUGGY, PATCHED])
    def test_sampled_configs_agree(self, variant):
        params = DroneParams()
        space = default_config_space(params)
        rng = np.random.default_rng(43)
        configs = [generate(space, rng) for _ in range(30)]
        report = conformance_check(params, variant, configs, params.dt,
                                   params.horizon)
        assert report.faults == []
        assert report.agreement == 1.0
        if variant is PATCHED:
            assert all(p.full is Outcome.SATISFIED for p in report.pairs)

    def test_forks_nothing(self, count_forks):
        params = DroneParams()
        configs = [default_configuration(50 + i, 70) for i in range(10)]
        report = conformance_check(params, BUGGY, configs, params.dt, 5.0)
        assert len(report.pairs) == 10
        assert count_forks == []

    def test_steps_the_full_models_goto_once(self, monkeypatch):
        # no configuration goes critical within 5 s, so every GOTO run reaches
        # the horizon from the same entry and all but the first replay it
        params = DroneParams()
        configs = [default_configuration(50 + i, 70) for i in range(10)]
        calls = []
        guidance = drone._guidance

        def counted(signal, gain, target):
            rate = guidance(signal, gain, target)
            if signal != "x":
                return rate
            return drone.StateExpr(lambda s, p: calls.append(None) or rate.func(s, p),
                                   reads=rate.reads)

        monkeypatch.setattr(drone, "_guidance", counted)
        full = build_full_system(params, BUGGY).with_entry("GOTO")
        run_trial(full, configs[0], phi_for, params.dt, 5.0)
        cold = len(calls)
        conformance_check(params, BUGGY, configs, params.dt, 5.0)
        assert cold > 0
        assert len(calls) == 2 * cold

    def test_a_faulting_configuration_is_reported_apart(self, monkeypatch):
        params = DroneParams()
        configs = [default_configuration(10.0, 20.0), default_configuration(50, 70),
                   default_configuration(15.0, 20.0)]
        bad = configs[1]
        exc = TrialFault(SimulationFault(0.5, "battery", math.nan), bad)

        def faulting(system, config, *args):
            if config is bad:
                raise exc
            return run_trial(system, config, *args)

        monkeypatch.setattr(drone, "run_trial", faulting)
        report = conformance_check(params, BUGGY, configs, params.dt, params.horizon)
        assert report.faults == [(bad, str(exc))]
        assert [pair.config for pair in report.pairs] == [configs[0], configs[2]]
        assert report.agreement == 1.0

    @pytest.mark.parametrize("variant", [BUGGY, PATCHED])
    def test_full_model_at_fidelity_step_agrees(self, variant):
        # conformance_check runs both systems at the trace step; the full
        # model at its fidelity step must give the surrogate's verdicts too
        params = DroneParams()
        full = build_full_system(params, variant).with_entry("GOTO")
        surrogate = build_surrogate_system(params, variant)
        space = default_config_space(params)
        rng = np.random.default_rng(59)
        outcomes = set()
        for config in [generate(space, rng) for _ in range(10)]:
            fine, trace = run_trial(full, config, phi_for, params.full_model_dt,
                                    params.horizon)
            coarse, _ = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
            assert trace.dt == params.full_model_dt
            assert fine.outcome is coarse.outcome, config
            outcomes.add(coarse.outcome)
        if variant is BUGGY:
            assert outcomes == {Outcome.VIOLATED, Outcome.SATISFIED}
        else:
            assert outcomes == {Outcome.SATISFIED}


class TestTiming:
    def test_requires_ten_configs(self):
        params = DroneParams()
        with pytest.raises(ConfigurationError, match="10"):
            timing_comparison(params, [default_configuration(50, 70)],
                              params.dt, params.horizon)

    def test_self_comparison_near_unity(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, BUGGY)
        rng = np.random.default_rng(47)
        configs = [generate(surrogate.parameter_space, rng) for _ in range(15)]
        model = (lambda: build_surrogate_system(params, BUGGY), params.dt)
        first, second = map(statistics.median,
                            paired_trial_times(model, model, configs, params.horizon))
        assert 0.25 <= first / second <= 4.0

    def test_untimed_warm_up_then_median(self, monkeypatch):
        params = DroneParams()
        configs = [default_configuration(50, 70 + i) for i in range(10)]
        steps = []  # "build", "clock" and "run", in the order they happen
        monkeypatch.setattr(drone, "build_full_system",
                            lambda params, variant: steps.append("build") or
                            SimpleNamespace(with_entry=lambda _: "full"))
        monkeypatch.setattr(drone, "build_surrogate_system",
                            lambda params, variant: steps.append("build") or "surrogate")
        runs = []
        monkeypatch.setattr(drone, "run_trial",
                            lambda system, config, phi, dt, horizon:
                            steps.append("run") or runs.append((system, dt, config)))
        # each trial reads the clock before and after it; full and surrogate
        # alternate: full 1, 9, 2, 3, 50, 4, 4, 6, 5, 7 s (median 4.5) and
        # surrogate 2, 1, 3, 8, 1, 3, 2, 6, 1, 9 s (median 2.5)
        durations = [1, 2, 9, 1, 2, 3, 3, 8, 50, 1, 4, 3, 4, 2, 6, 6, 5, 1, 7, 9]
        readings = []
        for seconds in durations:
            start = readings[-1] + 1 if readings else 0
            readings += [start, start + seconds]
        clock = iter(readings)
        monkeypatch.setattr(drone, "time", SimpleNamespace(
            perf_counter=lambda: steps.append("clock") or next(clock)))
        report = timing_comparison(params, configs, params.dt, params.horizon)
        assert (report.full_seconds, report.surrogate_seconds) == (4.5, 2.5)
        # the speedup is the median of the paired ratios 1/2, 9, 2/3, 3/8,
        # 50, 4/3, 2, 1, 5 and 7/9, not the ratio 4.5 / 2.5 of the medians
        assert report.speedup == pytest.approx((1 + 4 / 3) / 2)
        full, surrogate = ("full", params.full_model_dt), ("surrogate", params.dt)
        assert runs == [(*full, configs[0]), (*surrogate, configs[0]),
                        *((*model, config) for config in configs
                          for model in (full, surrogate))]
        assert next(clock, None) is None
        # one build per warm-up and per timed trial, all made before the first trial
        assert steps == ["build"] * 22 + ["run"] * 2 + ["clock", "run", "clock"] * 20

    def test_every_timed_full_trial_calls_the_full_models_rates(self, monkeypatch):
        # the same configuration each time: a trial on a reused system would replay
        params = DroneParams()
        configs = [default_configuration(50, 70)] * 10
        calls = []
        guidance = drone._guidance

        def counted(signal, gain, target):
            func = guidance(signal, gain, target).func
            return drone.StateExpr(lambda s, p: calls.append(signal) or func(s, p),
                                   reads=frozenset({signal}))

        monkeypatch.setattr(drone, "_guidance", counted)
        marks = []  # the rate calls made before each clock reading
        monkeypatch.setattr(drone, "time", SimpleNamespace(
            perf_counter=lambda: marks.append(len(calls)) or float(len(marks))))
        timing_comparison(params, configs, params.dt, 5.0)
        full_trials = list(zip(marks[0::4], marks[1::4]))
        assert len(full_trials) == len(configs)
        assert all(stop > start for start, stop in full_trials), full_trials

    def test_surrogate_faster_than_full(self):
        params = DroneParams()
        space = default_config_space(params)
        rng = np.random.default_rng(53)
        configs = [generate(space, rng) for _ in range(10)]
        report = timing_comparison(params, configs, params.dt, params.horizon)
        assert report.speedup > 1.0


class TestCondensedInterplay:
    def test_surrogate_and_condensed_rates_identical_at_defaults(self):
        params = DroneParams()
        goto = condensed_drone_descent(params, "GOTO")
        state = {"altitude": 20.0, "battery": 50.0, "deployed_flag": 0.0}
        assert goto["battery"].func(state, {}) == -params.cruise_drain
        parachute = condensed_drone_descent(params, "PARACHUTE")
        assert parachute["altitude"].func(state, {}) == -params.descent_rate

    def test_surrogate_descends_to_ground_and_stops(self):
        params = DroneParams()
        surrogate = build_surrogate_system(params, PATCHED)
        config = default_configuration(5.0, 70.0)
        _, trace = run_trial(surrogate, config, phi_for, params.dt, params.horizon)
        altitude = trace.signals["altitude"]
        assert altitude[-1] <= 0.5
        assert altitude.min() > -params.descent_rate * params.dt - 1e-12


class RecordingState(Mapping):
    """A named state that records which signals are read from it."""

    def __init__(self, values):
        self.values = values
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return self.values[name]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def declared_callables(system):
    """(where, declared reads, callable) of every rate, guard predicate and reset."""
    for mode, rates in system.dynamics.items():
        for signal, expr in rates.items():
            yield f"rate of {signal} in {mode}", expr.reads, expr.func
        for guard in system.guards[mode]:
            yield f"guard {guard.label} of {mode}", guard.reads, guard.predicate
            for signal, expr in guard.reset.items():
                yield f"reset of {signal} by {guard.label} of {mode}", expr.reads, expr.func


def audit_reads(system, samples):
    """{where: (declared, read)}: what each callable of ``system`` read over
    ``samples``, a list of (state dict, configuration) pairs."""
    seen = {}
    for where, declared, func in declared_callables(system):
        read = set()
        for state, config in samples:
            recording = RecordingState(state)
            func(recording, config)
            read |= recording.read
        seen[where] = (declared, read)
    return seen


def sampled_states(system, configs, every=20):
    """Every ``every``-th state of each configuration's trace at the trace step."""
    params = DroneParams()
    samples = []
    for config in configs:
        trace = simulate(system, None, config, params.dt, params.horizon)
        names = list(trace.signals)
        for k in range(0, len(trace), every):
            samples.append(({n: float(trace.signals[n][k]) for n in names}, config))
    return samples


class TestDeclaredReads:
    """The reduction trusts declared reads; each callable reads only those."""

    @pytest.fixture(scope="class")
    def configs(self):
        space = default_config_space(DroneParams())
        rng = np.random.default_rng(61)
        return [generate(space, rng) for _ in range(10)]

    def full_samples(self, variant, configs):
        system = build_full_system(DroneParams(), variant)
        # mid-mission from GOTO, and the whole mission from the ground
        missions = [Configuration(c, altitude_init=0.0, mission_start=1.0) for c in configs]
        return (sampled_states(system.with_entry("GOTO"), configs)
                + sampled_states(system, missions))

    @pytest.mark.parametrize("variant", [BUGGY, PATCHED])
    def test_full_model_reads_only_what_it_declares(self, variant, configs):
        system = build_full_system(DroneParams(), variant)
        seen = audit_reads(system, self.full_samples(variant, configs))
        assert len(seen) == 30
        assert {where.rsplit(" ", 1)[1] for where in seen} == set(system.dynamics)
        assert {w: read - declared for w, (declared, read) in seen.items()
                if not read <= declared} == {}
        # and the sampled states reach every declared read
        assert {w: declared - read for w, (declared, read) in seen.items()
                if declared != read} == {}

    @pytest.mark.parametrize("variant", [BUGGY, PATCHED])
    def test_surrogate_reads_only_what_it_declares(self, variant, configs):
        surrogate = build_surrogate_system(DroneParams(), variant).system
        seen = audit_reads(surrogate, sampled_states(surrogate, configs))
        assert {w for w in seen} == {
            "rate of battery in GOTO", "rate of altitude in GOTO",
            "rate of battery in PARACHUTE", "rate of altitude in PARACHUTE",
            "guard battery_critical of GOTO",
            "reset of deployed_flag by battery_critical of GOTO"}
        assert all(declared == read for declared, read in seen.values()), seen

    def test_a_wrong_declaration_is_caught(self, configs):
        # a condition's reads are derived from it, so only an opaque
        # predicate can declare them wrong
        system = build_full_system(DroneParams(), BUGGY)
        goto = tuple(dataclasses.replace(g, reads=frozenset({"x"}))
                     if g.label == "waypoint_reached" else g
                     for g in system.guards["GOTO"])
        wrong = dataclasses.replace(system, guards={**system.guards, "GOTO": goto})
        seen = audit_reads(wrong, self.full_samples(BUGGY, configs))
        assert {w: read - declared for w, (declared, read) in seen.items()
                if not read <= declared} == {"guard waypoint_reached of GOTO": {"y"}}
