"""Simulation semantics: integration, guards, events, projection, serialization."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from hdsf import hybrid
from hdsf.config import Configuration
from hdsf.drone import (ControllerVariant, DroneParams, build_full_system,
                        build_surrogate_system, default_config_space)
from hdsf.errors import ConfigurationError, ProjectionError, SimulationFault
from hdsf.falsify import generate, trial_rng
from hdsf.hybrid import (Guard, HybridSystem, RateForm, StateExpr, Trace, TraceEvent,
                         _json_texts, project_trace, simulate,
                         trace_to_jsonl, write_trace_jsonl)
from hdsf.stl import And, Atom, Not

from oracles import naive_simulate, naive_trace_to_jsonl, sample_modes
from random_systems import OPAQUE_PARAMETERS, small_systems


def single_mode_system(rates, signals=("x",), guards=(), initials=None):
    return HybridSystem(
        signal_names=signals,
        dynamics={"M": rates},
        guards={"M": tuple(guards)},
        initial_mode="M",
        initials=initials or {},
    )


def drain_system():
    rates = {"b": StateExpr(lambda s, p: -2.0, reads=frozenset())}
    return single_mode_system(rates, signals=("b",))


class TestSimulate:
    def test_zero_field_identity(self):
        # a static mode without guards holds its state until the horizon
        system = single_mode_system({})
        trace = simulate(system, [5.0], {}, dt=0.1, horizon=1.0)
        assert len(trace) == 11
        assert all(v == 5.0 for v in trace.signals["x"])
        assert trace.events == []

    def test_zero_field_with_guard_runs_full_horizon(self):
        never = Guard("never", lambda s, p: False, "M")
        system = single_mode_system({}, guards=[never])
        trace = simulate(system, [5.0], {}, dt=0.1, horizon=1.0)
        assert len(trace) == 11
        assert all(v == 5.0 for v in trace.signals["x"])
        assert trace.events == []

    def test_constant_drain_closed_form(self):
        trace = simulate(drain_system(), [100.0], {}, dt=0.1, horizon=10.0)
        assert len(trace) == 101
        # forward Euler is exact for a constant-rate field up to accumulated
        # rounding of the repeated addition
        assert trace.signals["b"][-1] == pytest.approx(80.0, abs=1e-9)

    def test_initial_state_from_initials_and_parameters(self):
        rates = {"b": StateExpr(lambda s, p: -1.0)}
        system = single_mode_system(rates, signals=("b",), initials={"b": "b0"})
        trace = simulate(system, None, {"b0": 42.0}, dt=0.5, horizon=1.0)
        assert trace.signals["b"][0] == 42.0

    def test_missing_initial_parameter_raises(self):
        system = single_mode_system({"x": StateExpr(lambda s, p: 0.0)},
                                    initials={"x": "x0"})
        with pytest.raises(ConfigurationError, match="x0"):
            simulate(system, None, {}, dt=0.5, horizon=1.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="entries"):
            simulate(drain_system(), [1.0, 2.0], {}, dt=0.1, horizon=1.0)

    def test_nonpositive_dt_raises(self):
        with pytest.raises(ConfigurationError):
            simulate(drain_system(), [1.0], {}, dt=0.0, horizon=1.0)

    def test_nonfinite_state_raises_simulation_fault(self):
        rates = {"x": StateExpr(lambda s, p: s["x"] * s["x"] * s["x"],
                                reads=frozenset({"x"}))}
        system = single_mode_system(rates)
        with pytest.raises(SimulationFault) as err:
            simulate(system, [50.0], {}, dt=1.0, horizon=50.0)
        assert err.value.signal == "x"
        assert err.value.time > 0

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_the_first_nonfinite_step_raises(self, value):
        # x moves by 0.1 a step until its rate turns non-finite at x = 0.3,
        # so the step to t = 0.4 is the first to leave x non-finite; y keeps
        # moving, so no step holds a value
        rates = {"x": StateExpr(lambda s, p: 1.0 if s["x"] < 0.25 else value,
                                reads=frozenset({"x"})),
                 "y": StateExpr(lambda s, p: 1.0)}
        system = single_mode_system(rates, signals=("x", "y"))
        faults = []
        for run in (simulate, naive_simulate):
            with pytest.raises(SimulationFault) as err:
                run(system, [0.0, 0.0], {}, 0.1, 1.0)
            faults.append((err.value.time, err.value.signal, repr(err.value.value)))
        assert faults == [(4 * 0.1, "x", repr(value))] * 2

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_initial_state_raises_simulation_fault(self, value):
        with pytest.raises(SimulationFault) as err:
            simulate(drain_system(), [value], {}, dt=0.1, horizon=1.0)
        assert (err.value.time, err.value.signal) == (0.0, "b")
        with pytest.raises(SimulationFault) as naive:
            naive_simulate(drain_system(), [value], {}, dt=0.1, horizon=1.0)
        assert (naive.value.time, naive.value.signal) == (0.0, "b")

    def test_nonfinite_initials_entry_raises_simulation_fault(self):
        system = single_mode_system({"x": StateExpr(lambda s, p: 0.0)},
                                    signals=("x", "y"), initials={"y": float("nan")})
        for run in (simulate, naive_simulate):
            with pytest.raises(SimulationFault) as err:
                run(system, None, {}, 0.1, 1.0)
            assert (err.value.time, err.value.signal) == (0.0, "y")

    def test_determinism_bit_identical(self):
        a = simulate(drain_system(), [100.0], {}, dt=0.1, horizon=10.0)
        b = simulate(drain_system(), [100.0], {}, dt=0.1, horizon=10.0)
        assert np.array_equal(a.signals["b"], b.signals["b"])
        assert (len(a), a.dt) == (len(b), b.dt)
        assert a.mode_runs == b.mode_runs

    def test_times_uniform_and_start_at_zero(self):
        # a trace stores its step, and its file writes sample k at k * dt
        trace = simulate(drain_system(), [100.0], {}, dt=0.25, horizon=5.0)
        lines = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()[1:]]
        assert [line["t"] for line in lines] == [k * 0.25 for k in range(21)]

    def test_a_trace_takes_no_time_column(self):
        with pytest.raises(TypeError, match="times"):
            Trace(times=np.zeros(1), mode_runs=[("M", 0)], signals={}, events=[], dt=0.1,
                  n_samples=1)
        assert not hasattr(simulate(drain_system(), [1.0], {}, 0.5, 1.0), "times")


def two_mode_system(guard_pred, reset=None):
    signals = ("x", "flag")
    rates_a = {"x": StateExpr(lambda s, p: 1.0)}
    guard = Guard("go", guard_pred, "B", reset or {}, reads=frozenset({"x"}))
    return HybridSystem(
        signal_names=signals,
        dynamics={"A": rates_a, "B": {}},
        guards={"A": (guard,), "B": ()},
        initial_mode="A",
    )


class TestGuardsAndEvents:
    def test_event_soundness(self):
        system = two_mode_system(lambda s, p: s["x"] >= 0.5,
                                 reset={"flag": StateExpr(lambda s, p: 1.0)})
        trace = simulate(system, [0.0, 0.0], {}, dt=0.1, horizon=2.0)
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev.source == "A" and ev.target == "B" and ev.guard == "go"
        idx = round(ev.time / trace.dt)
        assert ev.time == idx * trace.dt
        # guard true on the pre-transition sample; next sample in target mode
        assert trace.mode_runs == [("A", 0), ("B", idx + 1)]
        assert trace.signals["x"][idx] >= 0.5
        # B is static with no guards: it holds the reset state to the horizon
        assert len(trace) == 21
        assert set(trace.signals["flag"][idx + 1:]) == {1.0}

    def test_mode_coverage(self):
        system = two_mode_system(lambda s, p: s["x"] >= 0.5)
        trace = simulate(system, [0.0, 0.0], {}, dt=0.1, horizon=2.0)
        assert {mode for mode, _ in trace.mode_runs} <= {"A", "B"}

    def test_an_event_at_the_horizon_starts_no_run(self):
        system = two_mode_system(lambda s, p: s["x"] >= 1.0)
        trace = simulate(system, [0.0, 0.0], {}, dt=0.5, horizon=1.0)
        assert [(e.time, e.target) for e in trace.events] == [(1.0, "B")]
        assert trace.mode_runs == [("A", 0)] and len(trace) == 3
        text = trace_to_jsonl(trace)
        assert text == naive_trace_to_jsonl(trace)
        assert json.loads(text.splitlines()[0])["modes"] == ["A"]

    def test_guard_checked_on_initial_sample(self):
        system = two_mode_system(lambda s, p: s["x"] >= 0.5,
                                 reset={"flag": StateExpr(lambda s, p: 1.0)})
        trace = simulate(system, [1.0, 0.0], {}, dt=0.1, horizon=1.0)
        assert trace.events[0].time == 0.0
        assert trace.signals["flag"][0] == 0.0  # pre-reset sample recorded

    def test_declaration_order_tie_break(self):
        signals = ("x",)
        first = Guard("first", lambda s, p: True, "B")
        second = Guard("second", lambda s, p: True, "C")
        system = HybridSystem(
            signal_names=signals,
            dynamics={m: {} for m in ("A", "B", "C")},
            guards={"A": (first, second), "B": (), "C": ()},
            initial_mode="A",
        )
        trace = simulate(system, [0.0], {}, dt=0.1, horizon=1.0)
        assert trace.events[0].guard == "first"
        assert trace.events[0].target == "B"


class TestStep:
    """A single Euler step: ``simulate`` with ``horizon=dt``."""

    def test_zero_field_no_guards(self):
        system = single_mode_system({"x": StateExpr(lambda s, p: 0.0)})
        trace = simulate(system, [3.0], {}, dt=0.5, horizon=0.5)
        assert trace.mode_runs == [("M", 0)] and len(trace) == 2 and trace.events == []
        assert trace.signals["x"][1] == 3.0

    def test_hand_euler_step(self):
        trace = simulate(drain_system(), [100.0], {}, dt=0.5, horizon=0.5)
        assert trace.signals["b"][1] == 99.0
        assert trace.events == []

    def test_nonfinite_reset_raises_simulation_fault(self):
        # B has no rate for "flag", so no Euler step would catch the NaN
        signals = ("x", "flag")
        system = HybridSystem(
            signal_names=signals,
            dynamics={"A": {"x": StateExpr(lambda s, p: 1.0)},
                      "B": {"x": StateExpr(lambda s, p: 1.0)}},
            guards={"A": (Guard("go", lambda s, p: s["x"] >= 0.5, "B",
                                {"flag": StateExpr(lambda s, p: float("nan"))},
                                reads=frozenset({"x"})),),
                    "B": ()},
            initial_mode="A",
        )
        with pytest.raises(SimulationFault) as err:
            simulate(system, [0.0, 0.0], {}, dt=0.1, horizon=2.0)
        assert err.value.signal == "flag"
        assert err.value.time == pytest.approx(0.5)


def assert_matches_naive(system, initial_state, params, dt, horizon):
    trace = simulate(system, initial_state, params, dt, horizon)
    times, modes, rows, events = naive_simulate(
        system, initial_state, params, dt, horizon)
    assert [k * trace.dt for k in range(len(trace))] == times
    # runs start at 0, each after the one before, and none past the end
    starts = [first for _, first in trace.mode_runs]
    assert starts[0] == 0 and starts[-1] < len(trace), starts
    assert all(a < b for a, b in zip(starts, starts[1:])), starts
    assert sample_modes(trace) == modes
    for i, name in enumerate(system.signal_names):
        # compared as hex, which tells -0.0 from 0.0 where == does not
        assert ([v.hex() for v in trace.signals[name].tolist()] ==
                [row[i].hex() for row in rows]), name
    assert [(e.time, e.guard, e.source, e.target) for e in trace.events] == events


ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None)
# a failing drone example is reported as found: shrinking it re-simulates
# the model at every step and can take many minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
DRONE_SETTINGS = settings(ORACLE_SETTINGS, phases=NO_SHRINK)
_PARAMS = DroneParams()
_SYSTEMS = {
    (kind, variant): system
    for variant in ControllerVariant
    for kind, system in (
        ("surrogate", build_surrogate_system(_PARAMS, variant).system),
        ("goto", build_full_system(_PARAMS, variant).with_entry("GOTO")),
        ("idle", build_full_system(_PARAMS, variant)))
}


@st.composite
def drone_configs(draw):
    space = default_config_space(_PARAMS)
    values = {name: draw(st.floats(lo, hi)) for name, (lo, hi) in space.bounds.items()}
    assume(values["min_deploy_alt"] < values["max_deploy_alt"])
    return Configuration(values)


class TestNaiveOracle:
    """``simulate`` reproduces ``naive_simulate`` exactly."""

    @DRONE_SETTINGS
    @given(config=drone_configs(), variant=st.sampled_from(list(ControllerVariant)))
    def test_drone_surrogate(self, config, variant):
        assert_matches_naive(_SYSTEMS["surrogate", variant], None, config,
                             _PARAMS.dt, _PARAMS.horizon)

    @DRONE_SETTINGS
    @given(config=drone_configs(), variant=st.sampled_from(list(ControllerVariant)),
           entry=st.sampled_from(["goto", "idle"]))
    def test_drone_full_model(self, config, variant, entry):
        if entry == "idle":
            config = Configuration(config, altitude_init=0.0, mission_start=1.0)
        assert_matches_naive(_SYSTEMS[entry, variant], None, config,
                             _PARAMS.dt, _PARAMS.horizon)

    @ORACLE_SETTINGS
    @given(case=small_systems())
    def test_random_guarded_systems(self, case):
        system, initial, dt, horizon = case
        assert_matches_naive(system, initial, {}, dt, horizon)

    @settings(ORACLE_SETTINGS, max_examples=300)
    @given(case=small_systems(declared=True))
    def test_random_declared_systems(self, case):
        system, initial, dt, horizon, params = case
        assert_matches_naive(system, initial, params, dt, horizon)


def declared_system(rates, guards, signals=("x",), held=("B",)):
    """Mode A with ``rates`` and ``guards``, and the modes ``held`` with
    neither, so every run of A is filled in numpy passes."""
    return HybridSystem(signal_names=signals,
                        dynamics={"A": rates, **{m: {} for m in held}},
                        guards={"A": tuple(guards)}, initial_mode="A")


def clamp(rate, signal="x", exhausted=0.0):
    return StateExpr(form=RateForm(rate, signal, exhausted))


def when(label, condition, target="B"):
    return Guard(label, None, target, condition=condition)


def fault_of(run):
    with pytest.raises(SimulationFault) as err:
        run()
    return err.value.time, err.value.signal, err.value.value


class TestDeclaredRuns:
    """A mode whose rates all declare forms and whose guards all give
    conditions is filled in numpy passes, which reproduce the Python steps
    of ``naive_simulate`` bit for bit at every edge of a pass."""

    def test_event_at_the_first_sample(self):
        system = declared_system({"x": clamp(-0.5)}, [when("early", Atom("x", ">=", "c"))])
        trace = simulate(system, [1.0], {"c": 0.5}, dt=0.5, horizon=5.0)
        assert [(e.time, e.guard) for e in trace.events] == [(0.0, "early")]
        assert trace.mode_runs == [("A", 0), ("B", 1)] and len(trace) == 11
        assert_matches_naive(system, [1.0], {"c": 0.5}, 0.5, 5.0)

    def test_event_at_the_last_sample(self):
        system = declared_system({"x": StateExpr(form=RateForm(1.0))},
                                 [when("late", Atom("x", ">=", 5.0))])
        trace = simulate(system, [0.0], {}, dt=0.5, horizon=5.0)
        assert [(e.time, e.guard) for e in trace.events] == [(5.0, "late")]
        assert trace.mode_runs == [("A", 0)] and len(trace) == 11
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)
        assert_matches_naive(system, [0.0], {}, 0.5, 5.0)

    def test_clamp_switch_and_guard_at_one_sample(self):
        # x reaches 0.0 at sample 4, where its clamp switches and the guard holds
        system = declared_system({"x": clamp(-0.5), "y": clamp(0.25, "y")},
                                 [when("empty", Atom("x", "<=", 0.0))], signals=("x", "y"))
        trace = simulate(system, [1.0, -0.0], {}, dt=0.5, horizon=5.0)
        assert [(e.time, e.guard) for e in trace.events] == [(2.0, "empty")]
        assert_matches_naive(system, [1.0, -0.0], {}, 0.5, 5.0)

    def test_a_clamp_switch_goes_on_at_the_exhausted_rate(self):
        # no guard: the pass past the switch runs at the exhausted rate
        system = declared_system({"x": clamp(-0.3, exhausted=0.1)}, [])
        trace = simulate(system, [1.0], {}, dt=0.5, horizon=20.0)
        assert min(trace.signals["x"]) <= 0.0 < trace.signals["x"][-1]
        assert_matches_naive(system, [1.0], {}, 0.5, 20.0)

    @pytest.mark.parametrize("order", [("first", "second"), ("second", "first")])
    def test_two_conditions_true_at_once(self, order):
        conditions = {"first": Atom("x", ">=", 1.0), "second": Atom("x", ">", 0.9)}
        system = declared_system({"x": StateExpr(form=RateForm(0.5))},
                                 [when(label, conditions[label], target=label)
                                  for label in order], held=("first", "second"))
        trace = simulate(system, [0.0], {}, dt=1.0, horizon=4.0)
        assert [(e.time, e.guard) for e in trace.events] == [(2.0, order[0])]
        assert_matches_naive(system, [0.0], {}, 1.0, 4.0)

    @pytest.mark.parametrize("exhausted, after", [(0.0, "0x0.0p+0"), (-0.0, "-0x0.0p+0")])
    def test_signed_zero_start_under_a_clamp(self, exhausted, after):
        system = declared_system({"x": clamp(-1.0, exhausted=exhausted)},
                                 [when("never", Atom("x", ">", 1.0))])
        trace = simulate(system, [-0.0], {}, dt=0.5, horizon=2.0)
        assert [v.hex() for v in trace.signals["x"].tolist()] == ["-0x0.0p+0"] + [after] * 4
        assert_matches_naive(system, [-0.0], {}, 0.5, 2.0)

    def test_no_pass_after_a_clamp_switch_with_nothing_stepped(self, monkeypatch):
        # x drains to its level at sample 8 and holds there: the rest of the
        # trace is one write, not passes doubling over a state that cannot move
        bases = []

        def counted(rows, steps, values, data, base, end, safe):
            bases.append(base)
            return fill_pass(rows, steps, values, data, base, end, safe)

        fill_pass = hybrid._fill_pass
        monkeypatch.setattr(hybrid, "_fill_pass", counted)
        system = declared_system({"x": clamp(-0.5)}, [when("never", Atom("x", ">", 10.0))])
        trace = simulate(system, [4.0], {}, dt=1.0, horizon=2000.0)
        switch = int(np.argmax(trace.signals["x"] <= 0.0))
        assert switch == 8 and bases and max(bases) < switch
        assert_matches_naive(system, [4.0], {}, 1.0, 2000.0)

    @pytest.mark.parametrize("z0, fault", [
        (1e307, (2.0, "y", math.inf)),  # y and z overflow at sample 2: y comes first
        (1e308, (1.0, "z", math.inf)),  # z overflows first
    ])
    def test_overflow_faults_where_the_python_step_does(self, z0, fault):
        rates = {"x": StateExpr(form=RateForm(1.0)), "y": StateExpr(form=RateForm(6e307)),
                 "z": clamp(1e308, "z")}
        system = declared_system(rates, [], signals=("x", "y", "z"))
        initial = [0.0, 1e308, z0]
        assert fault_of(lambda: simulate(system, initial, {}, dt=1.0, horizon=5.0)) == fault
        assert fault_of(lambda: naive_simulate(system, initial, {}, 1.0, 5.0)) == fault
        # a guard that fires one sample before the overflow stops the run;
        # at the overflow's sample it would come too late (x is k at sample k)
        guarded = declared_system(rates, [when("before", Atom("x", ">=", fault[0] - 1.0))],
                                  signals=("x", "y", "z"))
        trace = simulate(guarded, initial, {}, dt=1.0, horizon=5.0)
        assert [e.time for e in trace.events] == [fault[0] - 1.0]
        assert_matches_naive(guarded, initial, {}, 1.0, 5.0)
        late = declared_system(rates, [when("late", Atom("x", ">=", fault[0]))],
                               signals=("x", "y", "z"))
        assert fault_of(lambda: simulate(late, initial, {}, dt=1.0, horizon=5.0)) == fault

    def test_overflow_to_minus_inf(self):
        system = declared_system({"x": StateExpr(form=RateForm(-1e306))}, [])
        fault = fault_of(lambda: simulate(system, [0.0], {}, dt=1.0, horizon=1000.0))
        assert fault == (180.0, "x", -math.inf)
        assert fault == fault_of(lambda: naive_simulate(system, [0.0], {}, 1.0, 1000.0))

    def test_a_mixed_mode_is_stepped_in_python(self):
        # a declared rate that an opaque guard reads is stepped: the guard is called every sample
        calls = []

        def opaque(s, p):
            calls.append(s["x"])
            return s["x"] >= 2.0

        system = declared_system({"x": StateExpr(form=RateForm(0.5))},
                                 [Guard("opaque", opaque, "B", reads=frozenset({"x"}))])
        trace = simulate(system, [0.0], {}, dt=0.5, horizon=5.0)
        assert calls == [0.25 * k for k in range(9)]
        assert [(e.time, e.guard) for e in trace.events] == [(4.0, "opaque")]
        assert_matches_naive(system, [0.0], {}, 0.5, 5.0)

    def test_runs_enter_and_leave_declared_modes(self):
        # A is stepped in Python, B filled in passes; each hands its event
        # to the other, resets included, until the horizon
        hop = Guard("hop", lambda s, p: s["x"] >= 1.0, "B",
                    {"y": StateExpr(lambda s, p: s["y"] + 1.0, reads=frozenset({"y"}))},
                    reads=frozenset({"x"}))
        back = Guard("back", None, "A", {"x": StateExpr(lambda s, p: 0.0)},
                     condition=Atom("y", ">=", "top"))
        system = HybridSystem(
            signal_names=("x", "y"),
            dynamics={"A": {"x": StateExpr(lambda s, p: 0.5)},
                      "B": {"y": StateExpr(form=RateForm(0.5)), "x": clamp(-0.25)}},
            guards={"A": (hop,), "B": (back,)}, initial_mode="A")
        trace = simulate(system, [0.0, 0.0], {"top": 3.0}, dt=0.25, horizon=30.0)
        assert len(trace.events) >= 10
        assert {e.guard for e in trace.events} == {"hop", "back"}
        assert_matches_naive(system, [0.0, 0.0], {"top": 3.0}, 0.25, 30.0)

    def test_a_missing_threshold_parameter(self):
        system = declared_system({"x": StateExpr(form=RateForm(1.0))},
                                 [when("on", Atom("x", ">=", "c"))])
        with pytest.raises(KeyError):
            simulate(system, [0.0], Configuration({}), dt=0.5, horizon=1.0)


def counter():
    """An opaque rate of 1.0: stepped in Python, never filled."""
    return StateExpr(lambda s, p: 1.0)


def opaque(label, test, reads, target="B", reset=None):
    return Guard(label, test, target, reset or {}, reads=frozenset(reads))


def assert_same_trace(trace, expected):
    assert trace.mode_runs == expected.mode_runs
    assert trace.events == expected.events
    # compared as hex, which tells -0.0 from 0.0 where == does not
    assert ({name: [v.hex() for v in values.tolist()] for name, values in trace.signals.items()}
            == {name: [v.hex() for v in values.tolist()]
                for name, values in expected.signals.items()})


def counted_rate(calls, value=lambda p: 1.0):
    """A stepped rate of ``x``, ``value(params)``, that counts its calls."""
    return StateExpr(lambda s, p: calls.append("rate") or value(p) + 0.0 * s["x"],
                     reads=frozenset({"x"}))


class TestMemo:
    """A system keeps the stepped part of a run of each mode, and a run
    from the same inputs replays it and steps on past its end: the trace
    is the one a fresh system gives, bit for bit."""

    @settings(ORACLE_SETTINGS, max_examples=200)
    @given(case=small_systems(declared=True), data=st.data())
    def test_runs_on_one_instance_equal_fresh_runs(self, case, data):
        system, initial, dt, horizon, params = case
        assume(any(plan.rates for plan in system._plans.values()))  # something is stepped
        for run in range(3):
            draw = [list(initial), dict(params), horizon]
            change = data.draw(st.sampled_from(["none", "zero", "parameter", "horizon"])
                               if run else st.just("none"))
            if change == "zero":  # a zero of the other sign than the value it replaces
                i = data.draw(st.integers(0, len(initial) - 1))
                draw[0][i] = math.copysign(0.0, -math.copysign(1.0, initial[i]))
            elif change == "parameter":  # one an opaque callable or a condition reads
                name = data.draw(st.sampled_from(sorted({*OPAQUE_PARAMETERS, *params})))
                draw[1][name] = data.draw(st.sampled_from([-0.0, 0.0, 1.5]))
            elif change == "horizon":
                draw[2] = dt * data.draw(st.integers(1, 40))
            fresh = simulate(replace(system), draw[0], draw[1], dt, draw[2])
            assert_same_trace(simulate(system, draw[0], draw[1], dt, draw[2]), fresh)
            assert_matches_naive(system, draw[0], draw[1], dt, draw[2])

    def test_a_replay_calls_no_rate_and_guards_only_where_all_are(self):
        # the replayed run ends where the opaque guard fires, which the replay
        # calls only there and on the entry sample, as it does every guard
        calls = []
        reached = opaque("reached", lambda s, p: calls.append("guard") or s["x"] >= 1.0, {"x"})
        system = declared_system({"x": counted_rate(calls)}, [reached])
        first = simulate(system, [0.0], {}, 0.1, 2.0)
        assert calls.count("rate") == 11 and calls.count("guard") == 12
        calls.clear()
        assert_same_trace(simulate(system, [0.0], {}, 0.1, 2.0), first)
        assert calls == ["guard", "guard"]
        assert [e.time for e in first.events] == [1.1]

    def test_a_run_cut_by_a_decided_guard_is_replayed_and_stepped_on(self):
        # b, filled and not in the key, empties at sample 6 (0.5 less six
        # steps of 0.1 is 2.8e-17 at sample 5); a run that does not empty
        # replays samples 0 to 6 and steps only samples 7 to 20
        calls = []
        system = declared_system({"x": counted_rate(calls), "b": StateExpr(form=RateForm(-1.0))},
                                 [when("empty", Atom("b", "<=", 0.0))], signals=("x", "b"))
        cut = simulate(system, [0.0, 0.5], {}, 0.1, 2.0)
        assert [e.time for e in cut.events] == [0.6000000000000001] and len(calls) == 6
        for initial, steps in [([0.0, 5.0], 14), ([0.0, 0.5], 0), ([0.0, 5.0], 0)]:
            calls.clear()
            trace = simulate(system, initial, {}, 0.1, 2.0)
            assert len(calls) == steps, initial
            assert_same_trace(trace, simulate(replace(system), initial, {}, 0.1, 2.0))
            assert_matches_naive(system, initial, {}, 0.1, 2.0)

    def test_a_resumed_run_keeps_the_lookups_of_its_prefix(self):
        # the rate looks up q only while x < 0.05, in the step from sample 0,
        # which the cut run stepped and the run that steps on past it replays
        calls = []
        system = declared_system(
            {"x": StateExpr(lambda s, p: calls.append(None) or (p["q"] if s["x"] < 0.05 else 1.0),
                            reads=frozenset({"x"})),
             "b": StateExpr(form=RateForm(-1.0))},
            [when("empty", Atom("b", "<=", 0.0))], signals=("x", "b"))
        simulate(system, [0.0, 0.15], {"q": 1.0}, 0.1, 2.0)
        simulate(system, [0.0, 5.0], {"q": 1.0}, 0.1, 2.0)
        calls.clear()
        trace = simulate(system, [0.0, 5.0], {"q": 3.0}, 0.1, 2.0)
        assert calls
        assert_same_trace(trace, simulate(replace(system), [0.0, 5.0], {"q": 3.0}, 0.1, 2.0))
        assert trace.signals["x"][1] == 0.30000000000000004

    def test_a_resumed_run_keeps_what_the_guards_read_where_its_prefix_ended(self):
        # near looks up q only at sample 6, where the first run is cut with
        # the parameters unrecorded, as at every sample where all guards are
        # called; the second steps on past it, so sample 6 lies inside the
        # part kept, and the third, with another q, must not replay it
        calls = []
        near = opaque("near", lambda s, p: abs(s["x"] - 0.6) < 0.01 and p["q"] > 0, {"x"})
        system = declared_system({"x": counted_rate(calls), "b": StateExpr(form=RateForm(-1.0))},
                                 [near, when("empty", Atom("b", "<=", 0.0))], signals=("x", "b"))
        for initial, q, steps in [([0.0, 0.5], -1.0, 6), ([0.0, 5.0], -1.0, 34),
                                  ([0.0, 5.0], 1.0, 6)]:
            calls.clear()
            trace = simulate(system, initial, {"q": q}, 0.1, 4.0)
            assert len(calls) == steps, q
            assert_same_trace(trace, simulate(replace(system), initial, {"q": q}, 0.1, 4.0))
            assert_matches_naive(system, initial, {"q": q}, 0.1, 4.0)
        assert [(e.guard, e.time) for e in trace.events] == [("near", 0.6000000000000001)]

    def test_an_event_entered_run_replays_only_an_event_entered_run(self):
        # A steps x; y, which only the guard reads, lets the guard fire on
        # the first sample and then never again
        calls = []
        again = opaque("again", lambda s, p: s["y"] < 0.5, {"y"}, target="A",
                       reset={"y": StateExpr(lambda s, p: 1.0)})
        system = declared_system({"x": counted_rate(calls)}, [again], signals=("x", "y"))
        simulate(system, [0.0, 1.0], {}, 0.1, 1.0)  # entered at sample 0, 10 to go
        for replayed in (False, True):  # entered at sample 1 by a step, 10 to go
            calls.clear()
            trace = simulate(system, [0.0, 0.0], {}, 0.1, 1.1)
            assert len(calls) == (0 if replayed else 11)
            assert_same_trace(trace, simulate(replace(system), [0.0, 0.0], {}, 0.1, 1.1))

    @pytest.mark.parametrize("first, second", [
        (([0.0], {}, 1.0), ([-0.0], {}, 1.0)),
        (([0.0], {}, 1.0), ([0.0], {}, 1.5)),
        (([0.0], {}, 1.5), ([0.0], {}, 1.0)),
        (([0.0], {}, 1.0), ([0.0], {"q": 2.0}, 1.0)),
        (([0.0], {}, 1.0), ([0.0], {"r": 0.0}, 1.0)),
        (([0.0], {"q": 2.0}, 1.0), ([0.0], {"q": -2.0}, 1.0)),
        (([0.0], {"q": 0.0}, 1.0), ([0.0], {"q": -0.0}, 1.0)),
    ], ids=["signed-zero", "horizon", "shorter-horizon", "absent-get", "absent-in", "value",
            "value-bits"])
    def test_a_changed_input_is_not_replayed(self, first, second):
        calls = []
        rate = counted_rate(calls, lambda p: p.get("q", 1.0) + (2.0 if "r" in p else 0.0))
        system = single_mode_system({"x": rate})
        simulate(system, first[0], first[1], 0.1, first[2])
        calls.clear()
        trace = simulate(system, second[0], second[1], 0.1, second[2])
        assert calls
        assert_same_trace(trace, simulate(replace(system), second[0], second[1], 0.1, second[2]))

    def test_only_a_mode_that_steps_keeps_a_run(self):
        config = Configuration(battery_init=50.0, altitude_init=0.0, min_deploy_alt=60.0,
                               max_deploy_alt=80.0, low_batt_threshold=10.0, delta=2.0,
                               mission_start=1.0)
        surrogate = build_surrogate_system(_PARAMS, ControllerVariant.BUGGY).system
        full = build_full_system(_PARAMS, ControllerVariant.BUGGY)
        for system in (surrogate, full):
            trace = simulate(system, None, config, _PARAMS.dt, _PARAMS.horizon)
        assert surrogate._runs == {}
        # IDLE and PARACHUTE step nothing; GOTO, which the decided emergency
        # guard cuts short, keeps its stepped part up to the cut
        assert [mode for mode, _ in trace.mode_runs] == ["IDLE", "TAKE_OFF", "GOTO", "PARACHUTE"]
        assert set(full._runs) == {"TAKE_OFF", "GOTO"}
        goto = trace.mode_runs[2][1]
        assert full._runs["GOTO"][2].shape == (5, trace.mode_runs[3][1] - goto)

    def test_patched_goto_runs_forward_and_back_step_goto_once(self):
        # the decided emergency guard cuts each patched GOTO run at its own
        # sample, and every run has the same key: run forward, each run
        # longer than those before it steps on past the kept part, and run
        # back, each replays a prefix of it
        calls = []
        full = build_full_system(_PARAMS, ControllerVariant.PATCHED)
        x = full.dynamics["GOTO"]["x"]
        goto = dict(full.dynamics["GOTO"],
                    x=StateExpr(lambda s, p: calls.append(None) or x.func(s, p), reads=x.reads))
        system = replace(full, dynamics=dict(full.dynamics, GOTO=goto), initial_mode="GOTO")
        space = default_config_space(_PARAMS)
        configs = [generate(space, trial_rng(1, t)) for t in range(25)]
        dt, horizon = _PARAMS.dt, _PARAMS.horizon
        stepped, ends = 0, set()  # the x rate's calls, and the samples GOTO stepped to
        for config in configs + configs[::-1]:
            before = len(calls)
            trace = simulate(system, None, config, dt, horizon)
            stepped += len(calls) - before
            runs = trace.mode_runs + [(None, len(trace))]
            assert runs[0] == ("GOTO", 0)
            ends.add(runs[1][1] - 1)
            fresh = build_full_system(_PARAMS, ControllerVariant.PATCHED).with_entry("GOTO")
            assert_same_trace(trace, simulate(fresh, None, config, dt, horizon))
            assert_matches_naive(system, None, config, dt, horizon)
        assert len(ends) > 10
        assert 0 < stepped <= max(ends)
        assert system._runs["GOTO"][2].shape == (5, max(ends) + 1)

    def test_a_callable_that_iterates_its_parameters_keys_on_all_of_them(self):
        calls = []
        system = single_mode_system({"x": counted_rate(calls, lambda p: sum(1.0 for _ in p))})
        for params, replayed in [({"a": 1.0}, False), ({"a": 1.0, "b": 2.0}, False),
                                 ({"a": 1.0, "b": 5.0}, False), ({"a": 1.0, "b": 5.0}, True)]:
            calls.clear()
            trace = simulate(system, [0.0], params, 0.1, 1.0)
            assert len(calls) == (0 if replayed else 10), params
            assert_same_trace(trace, simulate(replace(system), [0.0], params, 0.1, 1.0))


class TestMixedModes:
    """In a mode that declares some rates and guards, the filled signals
    and the decided guards' first sample come from numpy passes, and the
    rest is stepped in Python: the trace, the events and the faults are
    those of ``naive_simulate``."""

    def test_the_split(self):
        # x is filled; y is declared but an opaque guard reads it, so y is
        # stepped and the condition on y is not decided: it is called per sample
        system = declared_system(
            {"x": StateExpr(form=RateForm(1.0)), "y": StateExpr(form=RateForm(1.0)),
             "c": counter()},
            [when("on_x", Atom("x", ">=", 9.0)), when("on_y", Atom("y", ">=", 9.0)),
             opaque("on_c", lambda s, p: s["c"] + s["y"] >= 99.0, {"c", "y"})],
            signals=("x", "y", "c", "w"))
        plan = system._plans["A"]
        assert plan.filled_names == ("x",)
        assert [(name, row) for name, _, _, row in plan.rates] == [("y", 1), ("c", 2)]
        assert [g.label for g, _, _ in plan.edges] == ["on_y", "on_c"]
        assert len(plan.decided) == 1 and plan.watched == ()
        assert plan.free == (1, 2, 3)
        trace = simulate(system, [0.0, 0.0, 0.0, 5.0], {}, dt=1.0, horizon=20.0)
        assert [(e.time, e.guard) for e in trace.events] == [(9.0, "on_x")]
        assert_matches_naive(system, [0.0, 0.0, 0.0, 5.0], {}, 1.0, 20.0)

    def test_a_condition_on_an_unrated_signal_is_decided(self):
        # the buggy drone's emergency guard in GOTO: battery filled, altitude held
        system = declared_system(
            {"b": clamp(-1.0, "b"), "c": counter()},
            [when("low", And(Atom("b", "<=", 3.0), Atom("h", ">=", "floor"))),
             opaque("far", lambda s, p: s["c"] >= 50.0, {"c"})],
            signals=("b", "h", "c"))
        plan = system._plans["A"]
        assert plan.filled_names == ("b",) and plan.watched == ("h",)
        for h in (10.0, 0.0):
            assert_matches_naive(system, [8.0, h, 0.0], {"floor": 5.0}, 0.5, 40.0)

    @pytest.mark.parametrize("at, outcome", [
        (2.0, "event"),  # the opaque guard fires a sample before x overflows
        (3.0, "fault"),  # at the overflow's sample the fault comes first
        (4.0, "fault"),
    ])
    def test_an_opaque_guard_before_a_filled_overflow(self, at, outcome):
        # x is 6e307 * k, inf at sample 3; c is k
        system = declared_system(
            {"x": StateExpr(form=RateForm(6e307)), "c": counter()},
            [opaque("count", lambda s, p, at=at: s["c"] >= at, {"c"})], signals=("x", "c"))
        run = (lambda: simulate(system, [0.0, 0.0], {}, dt=1.0, horizon=10.0))
        if outcome == "event":
            assert [(e.time, e.guard) for e in run().events] == [(2.0, "count")]
            assert_matches_naive(system, [0.0, 0.0], {}, 1.0, 10.0)
        else:
            assert fault_of(run) == (3.0, "x", math.inf)
            assert fault_of(lambda: naive_simulate(system, [0.0, 0.0], {}, 1.0, 10.0)) == (
                3.0, "x", math.inf)

    @pytest.mark.parametrize("signals", [("f", "s"), ("s", "f")])
    @pytest.mark.parametrize("s_rate, fault_time", [(1e308, 2.0), (2e308, 1.0)])
    def test_a_stepped_and_a_filled_fault(self, signals, s_rate, fault_time):
        # f is filled and s stepped; both reach inf at sample 2, unless s's
        # rate is itself inf and s faults at sample 1: at one sample the
        # first signal in signal order is named, else the earlier sample
        rates = {"f": StateExpr(form=RateForm(1e308)),
                 "s": StateExpr(lambda s, p, r=s_rate: r)}
        system = declared_system(rates, [opaque("never", lambda s, p: s["s"] < -1.0, {"s"})],
                                 signals=signals)
        assert system._plans["A"].filled_names == ("f",)
        run = (lambda: simulate(system, [0.0, 0.0], {}, dt=1.0, horizon=5.0))
        first = signals[0] if fault_time == 2.0 else "s"
        assert fault_of(run)[:2] == (fault_time, first)
        assert fault_of(run) == fault_of(lambda: naive_simulate(system, [0.0, 0.0], {}, 1.0, 5.0))

    @pytest.mark.parametrize("signals", [("f", "s"), ("s", "f")])
    def test_a_filled_fault_on_the_entry_sample(self, signals):
        # the step out of the reset state overflows f, filled, and s,
        # stepped, on the entry sample of B: the first in signal order faults
        jump = opaque("jump", lambda s, p: True, {}, target="B",
                      reset={"f": StateExpr(lambda s, p: 1.5e308),
                             "s": StateExpr(lambda s, p: 1.5e308)})
        system = HybridSystem(
            signal_names=signals,
            dynamics={"A": {}, "B": {"f": StateExpr(form=RateForm(1e308)),
                                     "s": StateExpr(lambda s, p: 1e308)}},
            guards={"A": (jump,)}, initial_mode="A")
        run = (lambda: simulate(system, [0.0, 0.0], {}, dt=1.0, horizon=5.0))
        assert fault_of(run)[:2] == (1.0, signals[0])
        assert fault_of(run) == fault_of(lambda: naive_simulate(system, [0.0, 0.0], {}, 1.0, 5.0))

    @pytest.mark.parametrize("order", [("cond", "opaque"), ("opaque", "cond")])
    def test_a_condition_and_an_opaque_guard_at_the_decided_sample(self, order):
        # both hold first at sample 3: the one declared first fires
        guards = {"cond": when("cond", Atom("x", ">=", 3.0), target="cond"),
                  "opaque": opaque("opaque", lambda s, p: s["c"] >= 3.0, {"c"}, target="opaque")}
        system = declared_system({"x": StateExpr(form=RateForm(1.0)), "c": counter()},
                                 [guards[label] for label in order],
                                 signals=("x", "c"), held=("cond", "opaque"))
        assert len(system._plans["A"].decided) == 1
        trace = simulate(system, [0.0, 0.0], {}, dt=1.0, horizon=6.0)
        assert [(e.time, e.guard) for e in trace.events] == [(3.0, order[0])]
        assert_matches_naive(system, [0.0, 0.0], {}, 1.0, 6.0)

    @pytest.mark.parametrize("period", [1, 2, 3, 7])
    def test_fill_passes_stay_short_when_an_opaque_guard_fires_often(self, period, monkeypatch):
        # a self-loop resets c every period samples; x is filled throughout
        written = []

        def counted(rows, steps, values, data, base, end, safe):
            written.append(end - base + 1)
            return fill_pass(rows, steps, values, data, base, end, safe)

        fill_pass = hybrid._fill_pass
        monkeypatch.setattr(hybrid, "_fill_pass", counted)
        loop = opaque("loop", lambda s, p, top=float(period): s["c"] >= top, {"c"}, target="A",
                      reset={"c": StateExpr(lambda s, p: 0.0)})
        system = declared_system({"x": StateExpr(form=RateForm(0.5)), "c": counter()}, [loop],
                                 signals=("x", "c"), held=())
        initial = [0.0, float(period)]  # the loop fires at every multiple of period
        trace = simulate(system, initial, {}, dt=1.0, horizon=2000.0)
        assert len(trace.events) == 2000 // period + 1
        # a whole-trace pass per run would write len(trace) samples per event
        assert sum(written) <= 4 * len(trace)
        assert_matches_naive(system, initial, {}, 1.0, 2000.0)

    def test_the_filled_signal_is_stale_only_where_nothing_reads_it(self):
        # the opaque guard and rate see x as it was on the run's entry
        # sample; the condition's sample and the reset see it up to date
        seen = []

        def watch(s, p):
            seen.append(s["x"])
            return False

        full = Guard("full", None, "B", {"c": StateExpr(lambda s, p: s["x"] + 0.5,
                                                        reads=frozenset({"x"}))},
                     condition=Atom("x", ">=", 4.0))
        system = declared_system({"x": StateExpr(form=RateForm(1.0)), "c": counter()},
                                 [opaque("watch", watch, {"c"}), full], signals=("x", "c"))
        assert system._plans["A"].filled_names == ("x",)
        trace = simulate(system, [0.0, 0.0], {}, dt=1.0, horizon=8.0)
        assert [(e.time, e.guard) for e in trace.events] == [(4.0, "full")]
        assert len(seen) == 5 and seen[-1] == 4.0
        assert trace.signals["c"].tolist()[4:] == [4.0] + [4.5] * 4
        assert_matches_naive(system, [0.0, 0.0], {}, 1.0, 8.0)


@st.composite
def fixed_point_systems(draw):
    """Up to two modes over up to three signals whose runs tend to settle:
    clamped (``r if level > t else 0``, ``r`` nonzero) or exactly zero
    rates, constant resets, and signed zeros as initial values, rates and
    reset values.  A rate may also keep its signal moving (a nonzero
    constant, or an affine rate of any signal), so a mode can rate a
    signal that settles next to one that moves, and a clamped rate can
    hold while the signal it reads moves.  Every mode rates a signal and
    has a guard, which reads any one signal: half of the guards are a
    sign test, so a ``-0.0`` that a zero rate turns into ``0.0`` is often
    seen, and the others a threshold from either side."""
    signals = ("x", "y", "z")[:draw(st.integers(1, 3))]
    modes = [f"M{i}" for i in range(draw(st.integers(1, 2)))]
    value = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-2.0, 2.0))
    rest = st.sampled_from([0.0, -0.0])
    nonzero = st.builds(math.copysign, st.floats(0.1, 1.0), st.sampled_from([-1.0, 1.0]))
    signal = st.sampled_from(signals)

    def rate():
        kind = draw(st.sampled_from(["rest", "clamped", "constant", "affine"]))
        if kind == "rest":
            c = draw(rest)
            return StateExpr(lambda s, p, c=c: c)
        if kind == "constant":
            c = draw(nonzero)
            return StateExpr(lambda s, p, c=c: c)
        level = draw(signal)
        if kind == "affine":
            a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            return StateExpr(lambda s, p, level=level, a=a, b=b: a * s[level] + b,
                             reads=frozenset({level}))
        r, c, t = draw(nonzero), draw(rest), draw(value)
        return StateExpr(lambda s, p, level=level, r=r, c=c, t=t: r if s[level] > t else c,
                         reads=frozenset({level}))

    dynamics, guards = {}, {}
    for mode in modes:
        rated = draw(st.lists(signal, unique=True, min_size=1))
        dynamics[mode] = {n: rate() for n in rated}
        guards[mode] = []
        for j in range(draw(st.integers(1, 2))):
            src, bound = draw(signal), draw(value)
            if draw(st.booleans()):
                predicate = lambda s, p, src=src: math.copysign(1.0, s[src]) > 0
            else:
                below = draw(st.booleans())
                predicate = lambda s, p, src=src, c=bound, below=below: (s[src] <= c) == below
            written = draw(st.lists(signal, unique=True, max_size=2))
            reset = {n: StateExpr(lambda s, p, c=draw(value): c) for n in written}
            guards[mode].append(Guard(f"g{j}", predicate, draw(st.sampled_from(modes)),
                                      reset, reads=frozenset({src})))
    system = HybridSystem(
        signal_names=signals, dynamics=dynamics,
        guards={m: tuple(g) for m, g in guards.items()},
        initial_mode=draw(st.sampled_from(modes)))
    initial = draw(st.lists(value, min_size=len(signals), max_size=len(signals)))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5]))
    return system, initial, dt, dt * draw(st.integers(1, 40))


def held_while_its_read_moves():
    """y holds while x rises to 0, then moves: it must not settle early."""
    rates = {"x": StateExpr(lambda s, p: 1.0),
             "y": StateExpr(lambda s, p: 0.5 if s["x"] > 0 else 0.0, reads=frozenset({"x"}))}
    never = Guard("never", lambda s, p: s["y"] <= -1.0, "M", reads=frozenset({"y"}))
    return single_mode_system(rates, ("x", "y"), [never]), [-1.0, 1.0], 0.5, 5.0


class TestFixedPoint:
    """A step that changes nothing and fires no guard settles every signal
    and ends the work: the rest of the trace repeats it, exactly as
    ``naive_simulate`` computes."""

    def test_signed_zero_is_a_change(self):
        # -0.0 + dt * 0.0 is 0.0: equal under ==, but the guard tells them apart
        positive = Guard("positive", lambda s, p: math.copysign(1.0, s["x"]) > 0, "B",
                         reads=frozenset({"x"}))
        system = HybridSystem(signal_names=("x",),
                              dynamics={"A": {"x": StateExpr(lambda s, p: 0.0)}, "B": {}},
                              guards={"A": (positive,)}, initial_mode="A")
        trace = simulate(system, [-0.0], {}, dt=0.5, horizon=5.0)
        assert [(e.time, e.guard) for e in trace.events] == [(0.5, "positive")]
        assert_matches_naive(system, [-0.0], {}, 0.5, 5.0)

    def test_self_loop_fires_at_every_sample(self):
        identity = {"x": StateExpr(lambda s, p: s["x"], reads=frozenset({"x"}))}
        loop = Guard("loop", lambda s, p: True, "M", identity)
        system = single_mode_system({}, guards=[loop])
        trace = simulate(system, [1.0], {}, dt=0.5, horizon=5.0)
        assert [e.time for e in trace.events] == [k * trace.dt for k in range(len(trace))]
        # a run per sample, each of the same mode as the one before it
        assert trace.mode_runs == [("M", k) for k in range(len(trace))]
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)
        assert_matches_naive(system, [1.0], {}, 0.5, 5.0)

    def test_no_callable_called_past_the_fixed_point(self):
        calls = {"rate": 0, "guard": 0}

        def rate(s, p):
            calls["rate"] += 1
            return 0.0

        def never(s, p):
            calls["guard"] += 1
            return False

        system = single_mode_system({"x": StateExpr(rate)},
                                    guards=[Guard("never", never, "M")])
        trace = simulate(system, [3.0], {}, dt=0.1, horizon=10.0)
        assert calls == {"rate": 1, "guard": 1}
        assert len(trace) == 101 and trace.mode_runs == [("M", 0)]
        assert trace.signals["x"].tolist() == [3.0] * 101 and trace.events == []

    @ORACLE_SETTINGS
    @given(case=fixed_point_systems())
    @example(case=held_while_its_read_moves())
    def test_random_fixed_points(self, case):
        system, initial, dt, horizon = case
        assert_matches_naive(system, initial, {}, dt, horizon)


class TestSettledSignals:
    """A rated signal that a step leaves bit-identical, and whose reads
    have settled too, keeps its value without its rate being called, and
    a guard that reads only settled signals is not called: until the next
    event starts a new mode run."""

    def test_settled_callables_skipped_until_the_next_event(self):
        log = []  # each callable logs its name, then returns its value
        # x moves and wraps at 4.0; y rests; z holds at 0.0 but reads x
        rates = {
            "x": StateExpr(lambda s, p: log.append("x") or 1.0),
            "y": StateExpr(lambda s, p: log.append("y") or 0.0, reads=frozenset({"y"})),
            "z": StateExpr(lambda s, p: log.append("z") or 0.0 * s["x"],
                           reads=frozenset({"x"})),
        }
        on_y = Guard("on_y", lambda s, p: log.append("on_y") or s["y"] > 5.0, "M",
                     reads=frozenset({"y"}))
        wrap = Guard("wrap", lambda s, p: log.append("wrap") or s["x"] >= 4.0, "M",
                     {"x": StateExpr(lambda s, p: 0.0)}, reads=frozenset({"x"}))
        system = single_mode_system(rates, signals=("x", "y", "z"), guards=[on_y, wrap])
        trace = simulate(system, [0.0, 0.0, 0.0], {}, dt=0.5, horizon=10.0)
        assert [e.time for e in trace.events] == [4.0, 8.0]  # samples 8 and 16
        every = ["on_y", "wrap", "x", "y", "z"]  # the first sample of a mode run
        moving = ["wrap", "x", "z"]  # once y has settled
        fired = ["wrap", "x", "y", "z"]  # y has settled, but the event unsettles it
        expected = (every + moving * 7 + fired + every + moving * 6 + fired + every
                    + moving * 2 + ["wrap"])
        assert log == expected
        assert_matches_naive(system, [0.0, 0.0, 0.0], {}, 0.5, 10.0)

    def test_guard_of_an_unrated_signal_skipped_after_each_event(self):
        # no rated signal ever holds: only the mode's rates decide what settles
        log = []
        on_w = Guard("on_w", lambda s, p: log.append("on_w") or s["w"] > 5.0, "M",
                     reads=frozenset({"w"}))
        wrap = Guard("wrap", lambda s, p: log.append("wrap") or s["x"] >= 1.0, "M",
                     {"x": StateExpr(lambda s, p: 0.0)}, reads=frozenset({"x"}))
        system = single_mode_system({"x": StateExpr(lambda s, p: 1.0)},
                                    signals=("x", "w"), guards=[on_w, wrap])
        trace = simulate(system, [0.0, 0.0], {}, dt=0.5, horizon=5.0)
        assert [e.time for e in trace.events] == [1.0, 2.0, 3.0, 4.0, 5.0]
        # samples 0, 1 and 2, then each event starts a run of two samples
        assert log == ["on_w", "wrap", "wrap", "wrap"] + ["on_w", "wrap", "wrap"] * 4


def logging_system(system):
    """``system`` with every rate and guard predicate wrapped to log, per
    call, ``(kind, mode, name, mapping, snapshot)``: the mapping it was
    given and a ``dict`` copy of it taken at the call."""
    log = []

    def logged(kind, mode, name, func):
        def call(s, p):
            log.append((kind, mode, name, s, dict(s)))
            return func(s, p)
        return call

    dynamics = {mode: {sig: replace(expr, func=logged("rate", mode, sig, expr.func))
                       for sig, expr in rates.items()}
                for mode, rates in system.dynamics.items()}
    guards = {mode: tuple(replace(g, predicate=logged("guard", mode, g.label, g.predicate))
                          for g in edges)
              for mode, edges in system.guards.items()}
    return replace(system, dynamics=dynamics, guards=guards), log


def _bits(state):
    # hex tells -0.0 from 0.0 where == does not
    return {name: float(value).hex() for name, value in state.items()}


def assert_calls_follow_the_contract(system, initial, dt, horizon):
    """Simulate ``system`` with every call logged, and check each call
    against the state contract and the settling rule."""
    logged, log = logging_system(system)
    trace = simulate(logged, initial, {}, dt, horizon)
    for kind, mode, name, mapping, snapshot in log:
        assert _bits(mapping) == _bits(snapshot), (kind, mode, name)
    fired = {round(e.time / dt): e for e in trace.events}
    modes = sample_modes(trace)
    mode = modes[0]
    # the signals whose rate is still called, and the guards still called
    rated, watched = set(system.dynamics[mode]), list(system.guards[mode])
    i = 0  # the next log entry
    for k, mode in enumerate(modes):
        sample = {n: float(trace.signals[n][k]) for n in system.signal_names}
        event = fired.get(k)
        tried = [g.label for g in watched]
        if event is not None:
            tried = tried[:tried.index(event.guard) + 1]
        for label in tried:
            assert log[i][:3] == ("guard", mode, label)
            assert _bits(log[i][4]) == _bits(sample), (k, label)
            i += 1
        if k == len(trace) - 1:
            break
        state = sample
        if event is not None:
            reset = watched[len(tried) - 1].reset
            state = {n: float(reset[n].func(sample, {})) if n in reset else v
                     for n, v in sample.items()}
            mode = event.target
            rated, watched = set(system.dynamics[mode]), list(system.guards[mode])
        step = log[i:i + len(rated)]
        assert sorted(entry[:3] for entry in step) == [
            ("rate", mode, sig) for sig in sorted(rated)]
        for entry in step:
            assert _bits(entry[4]) == _bits(state), (k, entry[2])
        i += len(step)
        if event is None:
            # a rated signal moves if the step changed its bits or it reads
            # a signal that moves; every other signal has settled
            after = {n: float(trace.signals[n][k + 1]) for n in rated}
            moving = {n for n in rated if after[n].hex() != sample[n].hex()}
            while more := {n for n in rated - moving
                           if system.dynamics[mode][n].reads & moving}:
                moving |= more
            rated = moving
            watched = [g for g in watched if g.reads & moving]
    assert i == len(log)


class TestStateContract:
    """No callable sees its state mapping change, every guard called at
    sample k reads recorded sample k, and all rates of the step after it
    read one state: sample k, or the reset state when a guard fired.
    Exactly the rates of signals not settled are called, and exactly the
    guards that read a signal not settled."""

    @ORACLE_SETTINGS
    @given(case=small_systems())
    def test_callables_read_the_recorded_sample(self, case):
        assert_calls_follow_the_contract(*case)

    @ORACLE_SETTINGS
    @given(case=fixed_point_systems())
    def test_settled_callables_are_not_called(self, case):
        assert_calls_follow_the_contract(*case)


class TestProjection:
    def make(self):
        signals = ("a", "b", "c")
        rates = {"a": StateExpr(lambda s, p: 1.0), "b": StateExpr(lambda s, p: -1.0)}
        return single_mode_system(rates, signals=signals)

    def test_identity_projection(self):
        trace = simulate(self.make(), [0.0, 0.0, 0.0], {}, dt=0.1, horizon=1.0)
        same = project_trace(trace, ["a", "b", "c"])
        assert list(same.signals) == ["a", "b", "c"]
        assert (len(same), same.dt) == (len(trace), trace.dt)

    def test_projection_restricts_and_preserves_events(self):
        trace = simulate(self.make(), [0.0, 0.0, 0.0], {}, dt=0.1, horizon=1.0)
        proj = project_trace(trace, ["b"])
        assert list(proj.signals) == ["b"]
        assert proj.mode_runs == trace.mode_runs
        assert proj.events == trace.events

    def test_idempotence(self):
        trace = simulate(self.make(), [0.0, 0.0, 0.0], {}, dt=0.1, horizon=1.0)
        once = project_trace(trace, ["b"])
        twice = project_trace(once, ["b"])
        assert list(twice.signals) == ["b"]
        assert np.array_equal(once.signals["b"], twice.signals["b"])

    def test_unknown_signal_lists_available(self):
        trace = simulate(self.make(), [0.0, 0.0, 0.0], {}, dt=0.1, horizon=1.0)
        with pytest.raises(ProjectionError, match="available"):
            project_trace(trace, ["z"])

    def test_projection_commutes_with_simulation(self):
        trace = simulate(self.make(), [0.0, 0.0, 0.0], {}, dt=0.1, horizon=1.0)
        proj = project_trace(trace, ["a"])
        assert (len(proj), proj.dt) == (len(trace), trace.dt)
        assert proj.mode_runs == trace.mode_runs
        assert list(proj.signals) == ["a"]
        assert np.array_equal(proj.signals["a"], trace.signals["a"])


class TestSystemValidation:
    def test_a_clamp_switches_at_its_own_level(self):
        with pytest.raises(ConfigurationError, match="level of 'y', not its own"):
            single_mode_system({"x": clamp(-1.0, "y")}, signals=("x", "y"))

    def test_declared_forms_and_conditions_derive_callables_and_reads(self):
        rate = StateExpr(lambda s, p: 99.0, reads=frozenset({"y"}), form=RateForm(-1.0, "x"))
        assert rate.reads == {"x"}
        assert (rate.func({"x": 1.0}, {}), rate.func({"x": -0.0}, {})) == (-1.0, 0.0)
        guard = Guard("g", lambda s, p: True, "M", reads=frozenset({"z"}),
                      condition=And(Atom("x", "<=", "c"), Not(Atom("y"))))
        assert guard.reads == {"x", "y"}
        assert guard.predicate({"x": 1.0, "y": 0.0}, {"c": 1.0}) is True
        assert guard.predicate({"x": 1.0, "y": 0.5}, {"c": 1.0}) is False
        with pytest.raises(ConfigurationError, match="a predicate or a condition"):
            Guard("g", None, "M")
        with pytest.raises(ConfigurationError, match="a func or a form"):
            StateExpr()

    def test_rate_for_undeclared_signal_rejected(self):
        with pytest.raises(ConfigurationError, match=r"mode B.*\['y'\]"):
            HybridSystem(signal_names=("x",),
                         dynamics={"A": {}, "B": {"y": StateExpr(lambda s, p: 1.0)}},
                         guards={}, initial_mode="A")

    @pytest.mark.parametrize("part, message", [
        pytest.param("rate", "rate of 'x' in mode A", id="rate"),
        pytest.param("guard", "guard 'g' of mode A", id="guard"),
        pytest.param("reset", "reset of 'x' by guard 'g' of mode A", id="reset")])
    def test_undeclared_read_rejected(self, part, message):
        # a read of a signal the system lacks fails at construction, not as
        # a KeyError inside simulate
        def reads(where):
            return frozenset({"ghost"}) if where == part else frozenset()

        guard = Guard("g", lambda s, p: s["ghost"] > 0.0, "A", reads=reads("guard"),
                      reset={"x": StateExpr(lambda s, p: s["ghost"], reads=reads("reset"))})
        with pytest.raises(ConfigurationError,
                           match=rf"{message} reads undeclared signals: \['ghost'\]"):
            HybridSystem(signal_names=("x",),
                         dynamics={"A": {"x": StateExpr(lambda s, p: s["ghost"],
                                                        reads=reads("rate"))}},
                         guards={"A": (guard,)}, initial_mode="A")

    def test_guards_for_unknown_mode_rejected(self):
        # a misspelt mode key must not silently drop that mode's guards
        with pytest.raises(ConfigurationError, match=r"unknown modes: \['B'\]"):
            HybridSystem(signal_names=("x",), dynamics={"A": {}},
                         guards={"B": (Guard("g", lambda s, p: True, "A"),)},
                         initial_mode="A")

    def test_callers_guards_dict_left_unchanged(self):
        go = Guard("go", lambda s, p: True, "B")
        guards = {"A": [go]}
        system = HybridSystem(signal_names=("x",), dynamics={"A": {}, "B": {}},
                              guards=guards, initial_mode="A")
        assert guards == {"A": [go]}
        assert system.guards == {"A": (go,), "B": ()}

    def test_unknown_entry_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="initial mode 'NOPE'"):
            single_mode_system({}).with_entry("NOPE")

    def test_unknown_guard_target_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mode"):
            single_mode_system({}, guards=[Guard("g", lambda s, p: True, "NOPE")])

    def test_duplicate_signal_names_rejected(self):
        # a repeated name would drop one state entry from every trace
        with pytest.raises(ConfigurationError, match=r"duplicate signal names: \['x', 'x'\]"):
            HybridSystem(signal_names=("x", "x"),
                         dynamics={"A": {"x": StateExpr(lambda s, p: 1.0)}},
                         guards={}, initial_mode="A")


class TestSerialization:
    def test_jsonl_layout(self):
        system = two_mode_system(lambda s, p: s["x"] >= 0.55)
        trace = simulate(system, [0.0, 0.0], {}, dt=0.5, horizon=1.0)
        lines = trace_to_jsonl(trace).strip().split("\n")
        header = json.loads(lines[0])
        assert set(header) == {"dt", "signals", "modes"}
        sample = json.loads(lines[1])
        assert set(sample) == {"t", "mode", "signals"}
        assert json.loads(lines[-1]).get("event") is not None


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, float("nan"),
                  float("inf"), float("-inf")]
# JSON-escaped, %-formatting and non-ASCII characters
NAMES = st.text(alphabet='ab"\\%{}é☃', max_size=4)
VALUES = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


def mode_runs(draw, n: int) -> list[tuple[str, int]]:
    """Runs over ``n`` samples: the first at 0, then any later starts, so
    that one-sample runs are common; with at most three modes, so are
    neighbouring runs of the same mode."""
    mode_names = draw(st.lists(NAMES, min_size=1, max_size=3))
    later = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)) if n > 1 else []
    return [(draw(st.sampled_from(mode_names)), first) for first in [0] + sorted(later)]


@st.composite
def hand_built_traces(draw):
    """Up to 30 samples over up to four signals in drawn (unsorted) order."""
    n = draw(st.integers(1, 30))
    names = draw(st.lists(NAMES, unique=True, max_size=4))
    column = st.lists(VALUES, min_size=n, max_size=n)
    events = st.builds(TraceEvent, VALUES, NAMES, NAMES, NAMES)
    return Trace(
        mode_runs=mode_runs(draw, n),
        signals={name: np.array(draw(column)) for name in names},
        events=draw(st.lists(events, max_size=3)),
        dt=draw(VALUES),
        n_samples=n)


# (value, run length) pairs: held signals and stationary tails
RUNS = st.lists(st.tuples(st.sampled_from(SPECIAL_FLOATS), st.integers(1, 50)),
                min_size=1, max_size=6)


def run_column(runs, n=None) -> np.ndarray:
    """The column of ``runs``, repeated or cut to ``n`` samples if given."""
    column = np.repeat([value for value, _ in runs], [length for _, length in runs])
    return column if n is None else np.resize(column, n)


@st.composite
def traces_with_runs(draw):
    """A step, mode runs, and up to four signals, each a column of runs of
    special floats."""
    n = draw(st.integers(1, 300))
    names = draw(st.lists(NAMES, unique=True, max_size=4))
    return Trace(mode_runs=mode_runs(draw, n),
                 signals={name: run_column(draw(RUNS), n) for name in names},
                 events=[], dt=draw(VALUES), n_samples=n)


def with_bits(column: np.ndarray, i: int, flip: int) -> np.ndarray:
    """A copy of ``column`` with the bits ``flip`` of entry ``i`` flipped."""
    out = column.copy()
    out.view(np.int64)[i] ^= flip
    return out


@st.composite
def near_steps(draw):
    """``(dt, n)`` shapes of a trace: a step and the same step again, steps
    one bit away from it (the sign: 0.0 vs -0.0; the lowest: one ulp or
    another NaN payload), 0.0, -0.0 and NaN, and the step one sample
    longer."""
    step = np.array([draw(VALUES)])
    n = draw(st.integers(1, 20))
    steps = [step, step.copy(), with_bits(step, 0, np.int64(-2 ** 63)),
             with_bits(step, 0, 1), [0.0], [-0.0], [float("nan")]]
    return [(float(dt[0]), n) for dt in steps] + [(float(step[0]), n + 1)]


# a step of +-inf makes sample 0's time 0 * inf, and a step near the
# largest float makes a later time overflow; numpy warns of both
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
class TestSerializerOracle:
    """``trace_to_jsonl`` writes the same bytes as ``naive_trace_to_jsonl``."""

    @ORACLE_SETTINGS
    @given(shapes=near_steps())
    def test_time_text_reused_only_for_equal_length_and_step_bits(self, shapes):
        # every ordered pair of shapes is serialized one after the other
        for pair in itertools.product(shapes, repeat=2):
            for dt, n in pair:
                trace = Trace(mode_runs=[("M", 0)], signals={"x": np.arange(n) * 0.5},
                              events=[], dt=dt, n_samples=n)
                assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    @ORACLE_SETTINGS
    @given(trace=hand_built_traces())
    def test_hand_built_traces(self, trace):
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    @ORACLE_SETTINGS
    @given(trace=traces_with_runs())
    def test_traces_with_runs(self, trace):
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    @ORACLE_SETTINGS
    @given(runs=RUNS)
    def test_runs_formatted_once_read_as_every_value(self, runs):
        column = run_column(runs)
        texts = _json_texts(column)
        texts = [texts] * len(column) if isinstance(texts, str) else texts
        assert texts == [json.dumps(v) for v in column.tolist()]
        # one text per run of bit-equal values, shared by every value of the run
        bits = column.view(np.int64).tolist()
        assert len({id(text) for text in texts}) == 1 + sum(a != b
                                                            for a, b in zip(bits, bits[1:]))

    def test_adjacent_runs_of_special_floats(self):
        nan, inf = float("nan"), float("inf")
        column = run_column([(0.0, 3), (-0.0, 2), (0.0, 1), (nan, 4), (inf, 2),
                             (-inf, 3), (-0.0, 1), (1e-7, 1)])
        assert _json_texts(column) == (["0.0"] * 3 + ["-0.0"] * 2 + ["0.0"]
                                       + ["NaN"] * 4 + ["Infinity"] * 2
                                       + ["-Infinity"] * 3 + ["-0.0", "1e-07"])
        trace = Trace(mode_runs=[("M", 0)], signals={"x": column, "y": column[::-1]},
                      events=[], dt=0.5, n_samples=len(column))
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    def test_columns_and_modes_of_two_runs(self):
        # two runs differ between lines, so neither is folded into the key text
        trace = Trace(mode_runs=[("A", 0), ("B", 2)], n_samples=5, events=[], dt=0.5,
                      signals={"x": run_column([(1.0, 3), (-0.0, 2)]), "y": np.full(5, 7.0)})
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    def test_empty_column(self):
        # no two values differ, so the text alone comes back, for no line
        assert _json_texts(np.array([]), "a", "b") == "ab"

    def test_special_floats_one_sample_no_events(self):
        for value in SPECIAL_FLOATS:
            trace = Trace(mode_runs=[("M", 0)], events=[], dt=value, n_samples=1,
                          signals={"z": np.array([value]), "a": np.array([-value])})
            assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    def test_escaped_names_in_unsorted_order(self):
        names = ['z"q', "b\\s", "%s", "{0}", "é☃", "%%{", "a"]
        trace = Trace(mode_runs=[('"%{é', 0), ("\\M", 1)], n_samples=2,
                      signals={n: np.array([1.5, 2.0]) for n in names},
                      events=[TraceEvent(0.1, "g%{", '"%{é', "\\M")], dt=0.1)
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)

    def test_file_writer_writes_the_same_bytes(self, tmp_path):
        system = two_mode_system(lambda s, p: s["x"] >= 0.55,
                                 reset={"flag": StateExpr(lambda s, p: 1.0)})
        trace = simulate(system, [0.0, 0.0], {}, dt=0.1, horizon=2.0)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        assert path.read_bytes() == naive_trace_to_jsonl(trace).encode("ascii")

    def test_signed_zeros_in_one_column(self):
        column = np.array([0.0, -0.0, 0.0, -0.0])
        trace = Trace(mode_runs=[("M", 0)], signals={"x": column}, events=[], dt=0.5,
                      n_samples=4)
        text = trace_to_jsonl(trace)
        assert text == naive_trace_to_jsonl(trace)
        assert '"x": -0.0' in text and '"x": 0.0' in text

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              phases=NO_SHRINK)
    @given(config=drone_configs(), variant=st.sampled_from(list(ControllerVariant)),
           kind=st.sampled_from(["surrogate", "goto", "idle"]))
    def test_drone_traces(self, config, variant, kind):
        if kind == "idle":
            config = Configuration(config, altitude_init=0.0, mission_start=1.0)
        trace = simulate(_SYSTEMS[kind, variant], None, config,
                         _PARAMS.dt, _PARAMS.horizon)
        assert trace_to_jsonl(trace) == naive_trace_to_jsonl(trace)
