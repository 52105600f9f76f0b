"""Oracle semantics, look-ahead, and the built-in safety property."""

import numpy as np
import pytest

from hdsf import stl
from hdsf.config import Configuration
from hdsf.errors import (ConfigurationError, EvaluationError, MissingParameterError,
                         SpecificationError)
from hdsf.hybrid import Trace
from hdsf.drone import default_configuration, phi_for
from hdsf.stl import And, Atom, Eventually, Globally, Implies, Not, Outcome, Until, evaluate

from oracles import naive_value, naive_verdict, parametrize, random_formula, random_trace

# the reference configuration: battery threshold 10, delta 2
REFERENCE = default_configuration(10.0, 20.0)


def phi_default(trace):
    """The safety property's verdict on ``trace`` at the reference configuration."""
    return evaluate(phi_for, trace, REFERENCE)


class TestBuiltinPhi:
    def test_atoms_reference_exactly_the_three_signals(self):
        assert stl.atom_signals(phi_for) == {"battery", "altitude", "deployed_flag"}

    def test_shape(self):
        # one parametric formula: the threshold and the delay name parameters
        assert isinstance(phi_for, Globally) and phi_for.interval is None
        body = phi_for.child
        assert isinstance(body, Implies)
        assert body.left.left == Atom("battery", "<=", "low_batt_threshold")
        assert isinstance(body.right, Eventually)
        assert body.right.interval == (0.0, "delta")
        assert stl.formula_horizon(phi_for, REFERENCE) == 2.0

    def test_rejects_nonpositive_delta(self, make_trace):
        # the drone's configurations keep delta > 0; the formula itself
        # takes the legal window [0, 0]
        with pytest.raises(ConfigurationError, match="delta must be positive, got 0.0"):
            default_configuration(10.0, 20.0, delta=0.0)
        trace = make_trace(0.1, battery=[9.0] * 3, altitude=[20.0] * 3,
                           deployed_flag=[1.0] * 3)
        zero = Configuration(REFERENCE, delta=0.0)
        assert evaluate(phi_for, trace, zero).outcome is Outcome.SATISFIED

    def test_grounded_trace_is_vacuously_satisfied(self, make_trace):
        # altitude never above the airborne threshold
        n = 30
        trace = make_trace(0.1,
                           battery=np.linspace(20, 0, n),
                           altitude=[0.2] * n,
                           deployed_flag=[0.0] * n)
        assert phi_default(trace).outcome is Outcome.SATISFIED

    def test_low_battery_without_deployment_is_violated(self, make_trace):
        n = 60
        trace = make_trace(0.1,
                           battery=[9.0] * n,
                           altitude=[20.0] * n,
                           deployed_flag=[0.0] * n)
        verdict = phi_default(trace)
        assert verdict.outcome is Outcome.VIOLATED
        assert verdict.witness_time == 0.0

    def test_deployment_within_delta_satisfies(self, make_trace):
        # antecedent first true at t=5.0, deployment at t=6.0, delta=2.0
        dt = 0.5
        n = 20
        battery = [50.0] * 10 + [9.0] * 10
        altitude = [20.0] * n
        deployed = [0.0] * 12 + [1.0] * 8
        trace = make_trace(dt, battery=battery, altitude=altitude,
                           deployed_flag=deployed)
        verdict = phi_default(trace)
        assert verdict.outcome is Outcome.SATISFIED
        assert naive_verdict(phi_for, trace, REFERENCE) == stl.TRUE


class TestEvaluateBasics:
    def test_missing_signal_raises(self, make_trace):
        trace = make_trace(0.1, battery=[50.0, 50.0])
        with pytest.raises(EvaluationError, match="altitude"):
            phi_default(trace)

    def test_a_missing_signal_under_an_eventually_raises(self, make_trace):
        # the trace holds every other signal; the missing one is read only under F
        trace = make_trace(0.1, a=[1.0, 0.0, 0.0], b=[0.0, 1.0, 0.0])
        formula = Globally(Implies(Atom("a"), Eventually(Atom("c"), (0.0, 0.1))))
        with pytest.raises(EvaluationError, match="signal 'c'.*available: \\['a', 'b'\\]"):
            evaluate(And(Atom("b", "<", 2.0), formula), trace)
        # a bound naming a parameter the configuration lacks comes second
        named = Globally(Implies(Atom("a"), Eventually(Atom("c"), (0.0, "delta"))))
        with pytest.raises(EvaluationError, match="signal 'c'"):
            evaluate(named, trace)

    def test_a_missing_signal_in_an_until_right_operand_raises(self, make_trace):
        trace = make_trace(0.1, a=[1.0, 1.0, 0.0], b=[0.0, 1.0, 0.0])
        formula = Until(And(Atom("a"), Not(Atom("b"))), Atom("c"), (0.0, 0.2))
        with pytest.raises(EvaluationError, match="signal 'c'.*available: \\['a', 'b'\\]"):
            evaluate(formula, trace)

    def test_empty_trace_raises(self):
        trace = Trace(mode_runs=[], signals={"a": np.zeros(0)}, events=[], dt=0.1,
                      n_samples=0)
        with pytest.raises(EvaluationError, match="empty"):
            evaluate(Atom("a"), trace)

    def test_a_parameter_threshold_evaluates(self, make_trace):
        # as in a guard's condition, the threshold is read from the configuration
        trace = make_trace(0.1, battery=[50.0, 5.0])
        phi = Globally(Atom("battery", ">=", "low_batt_threshold"))
        verdict = evaluate(phi, trace, Configuration(low_batt_threshold=10.0))
        assert verdict.violated and verdict.witness_time == 0.1
        assert not evaluate(phi, trace, Configuration(low_batt_threshold=5.0)).violated
        holds = stl.state_truth(Atom("battery", ">=", "low_batt_threshold"),
                                trace.signals, {"low_batt_threshold": 10.0})
        assert holds.tolist() == [True, False]

    def test_a_parameter_bound_evaluates(self, make_trace):
        trace = make_trace(0.5, a=[0.0, 0.0, 0.0, 1.0])
        phi = Eventually(Atom("a"), interval=("lo", "hi"))
        for lo, hi, outcome in [(0.0, 1.0, Outcome.VIOLATED), (0.0, 1.5, Outcome.SATISFIED),
                                (1.5, 1.5, Outcome.SATISFIED), (0.5, 0.5, Outcome.VIOLATED)]:
            params = Configuration(lo=lo, hi=hi)
            assert evaluate(phi, trace, params).outcome is outcome, (lo, hi)
            assert stl.formula_horizon(phi, params) == hi

    def test_a_missing_parameter_raises(self, make_trace):
        trace = make_trace(0.1, battery=[50.0, 5.0], deployed_flag=[0.0, 0.0])
        named = [Globally(Atom("battery", ">=", "low_batt_threshold")),
                 Eventually(Atom("deployed_flag"), interval=(0.0, "delta")),
                 Until(Atom("battery", ">", 0.0), Atom("deployed_flag"), interval=("lo", 1.0))]
        for phi in named:
            for params in (Configuration(), Configuration(other=1.0)):
                with pytest.raises(MissingParameterError, match="configuration has no"):
                    evaluate(phi, trace, params)
            with pytest.raises(MissingParameterError):
                evaluate(phi, trace)  # a literal formula needs no configuration
        with pytest.raises(MissingParameterError, match="'delta'"):
            stl.formula_horizon(phi_for)
        with pytest.raises(MissingParameterError, match="'delta'"):
            stl.formula_horizon(phi_for, Configuration(low_batt_threshold=10.0))

    @pytest.mark.parametrize("interval, params", [
        (("lo", "hi"), {"lo": 2.0, "hi": 1.0}), ((1.0, "hi"), {"hi": 0.5}),
        (("lo", 1.0), {"lo": -0.5}), ((0.0, "hi"), {"hi": -1.0})])
    def test_a_resolved_interval_out_of_order_raises(self, make_trace, interval, params):
        trace = make_trace(0.1, a=[1.0, 1.0, 1.0])
        params = Configuration(params)
        for phi in (Eventually(Atom("a"), interval=interval),
                    Globally(Atom("a"), interval=interval),
                    Until(Atom("a"), Atom("a"), interval=interval),
                    Not(Globally(Eventually(Atom("a"), interval=interval)))):
            with pytest.raises(SpecificationError, match="breaks 0 <= lo <= hi"):
                evaluate(phi, trace, params)
            with pytest.raises(SpecificationError, match="breaks 0 <= lo <= hi"):
                stl.formula_horizon(phi, params)
        # a literal interval is checked when it is built
        with pytest.raises(SpecificationError, match="breaks 0 <= lo <= hi"):
            Eventually(Atom("a"), interval=(2.0, 1.0))

    def test_a_temporal_operator_is_no_state_formula(self):
        for formula in (Globally(Atom("a", ">", 0.0)), Implies(Atom("a"), Atom("b"))):
            with pytest.raises(SpecificationError, match="not a state formula"):
                stl.state_predicate(formula)
            with pytest.raises(SpecificationError, match="not a state formula"):
                stl.state_truth(formula, {"a": np.zeros(1), "b": np.zeros(1)}, {})

    def test_determinism(self, make_trace):
        rng = np.random.default_rng(3)
        trace = random_trace(rng)
        formula = random_formula(rng, 3, trace.dt)
        first = evaluate(formula, trace)
        for _ in range(5):
            assert evaluate(formula, trace) == first

    def test_truncated_window_is_pessimistic_and_flagged(self, make_trace):
        # antecedent true at the last sample; the F window has no room left
        trace = make_trace(0.1,
                           battery=[50.0, 50.0, 9.0],
                           altitude=[20.0] * 3,
                           deployed_flag=[0.0] * 3)
        verdict = phi_default(trace)
        assert verdict.outcome is Outcome.VIOLATED
        assert verdict.window_truncated

    def test_definite_violation_not_flagged_truncated(self, make_trace):
        n = 60
        trace = make_trace(0.1, battery=[9.0] * n, altitude=[20.0] * n,
                           deployed_flag=[0.0] * n)
        verdict = phi_default(trace)
        assert verdict.outcome is Outcome.VIOLATED
        assert not verdict.window_truncated


class TestNaiveEquivalence:
    def test_agreement_on_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            trace = random_trace(rng)
            formula = random_formula(rng, 4, trace.dt)
            fast = stl._values(formula, trace, {})[0]
            assert int(fast) == naive_verdict(formula, trace, {})

    def test_agreement_at_every_index(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            trace = random_trace(rng, max_len=20)
            formula = random_formula(rng, 3, trace.dt)
            fast = stl._values(formula, trace, {})
            memo = {}
            for i in range(len(trace)):
                assert int(fast[i]) == naive_value(formula, trace, i, {}, memo)

    def test_agreement_on_parametric_draws(self):
        # thresholds and bounds that name parameters, resolved by the
        # evaluator and by the oracle's own code, give the literal values
        rng = np.random.default_rng(4)
        for _ in range(200):
            trace = random_trace(rng, max_len=20)
            literal = random_formula(rng, 4, trace.dt)
            params = {}
            formula = parametrize(literal, rng, params)
            config = Configuration(params)
            fast = stl._values(formula, trace, config)
            memo = {}
            for i in range(len(trace)):
                assert int(fast[i]) == naive_value(formula, trace, i, params, memo), formula
            assert fast.tolist() == stl._values(literal, trace, {}).tolist()
            assert evaluate(formula, trace, config) == evaluate(literal, trace)
            assert (stl.formula_horizon(formula, config)
                    == stl.formula_horizon(literal)), formula

    def test_agreement_with_windows_past_the_trace_end(self):
        # window bounds up to five trace lengths, capped at the trace length
        # by the evaluator: the cap must change no value
        rng = np.random.default_rng(31)
        for _ in range(60):
            trace = random_trace(rng, max_len=20)
            formula = random_formula(rng, 3, trace.dt, reach=5 * len(trace) + 2)
            fast = stl._values(formula, trace, {})
            memo = {}
            for i in range(len(trace)):
                assert int(fast[i]) == naive_value(formula, trace, i, {}, memo)
        huge = Eventually(Atom("a"), interval=(0.0, 1e308))
        far = Eventually(Atom("a"), interval=(0.0, len(trace) * trace.dt))
        assert evaluate(huge, trace) == evaluate(far, trace)


def windowed(lo: int, hi: int, dt: float) -> list:
    """G, F and U on the sample window [lo, hi], over operands that are
    atoms and windows of their own, which are Unknown near the trace end."""
    interval = (lo * dt, hi * dt)
    near = Eventually(Atom("c"), interval=(0.0, 2 * dt))
    return [Globally(Atom("a", ">", -1.0), interval), Globally(near, interval),
            Eventually(Atom("b"), interval), Eventually(Not(near), interval),
            Until(Atom("a", ">", -1.5), Atom("b"), interval),
            Until(near, Atom("c", "<", 0.5), interval),
            Until(Atom("b", "<", 1.0), near, interval)]


def assert_naive_at_every_index(formula, trace):
    fast = stl._values(formula, trace, {})
    memo = {}
    assert [int(v) for v in fast] == [naive_value(formula, trace, i, {}, memo)
                                      for i in range(len(trace))], formula


class TestWindowEdges:
    """The O(n) folds of G, F and U against the naive expansion at every
    index, on the windows where an index bound goes wrong first."""

    @staticmethod
    def windows(kind: str, n: int) -> list[tuple[int, int]]:
        if kind == "wider_than_the_trace":
            return [(0, n), (0, n + 3), (1, 2 * n), (n - 1, 3 * n)]
        if kind == "lo_equals_hi":
            return [(k, k) for k in range(1, n)]
        if kind == "one_sample":
            return [(0, 0)]
        return [(n, n), (n, n + 2), (n + 1, n + 5)]  # starting at or past the end

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["wider_than_the_trace", "lo_equals_hi", "one_sample", "at_or_past_the_end"]))
    def test_agreement_at_every_index(self, seed, kind):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            trace = random_trace(rng, max_len=16)
            for lo, hi in self.windows(kind, len(trace)):
                for formula in windowed(lo, hi, trace.dt):
                    assert_naive_at_every_index(formula, trace)

    def test_one_sample_traces(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            trace = random_trace(rng, n=1)
            for lo, hi in [(0, 0), (0, 1), (1, 1), (0, 5), (2, 7)]:
                for formula in windowed(lo, hi, trace.dt):
                    assert_naive_at_every_index(formula, trace)

    def test_drone_length_trace_at_the_property_widths(self):
        # 2,401 samples are 120 s at dt 0.05; delta reaches 5 s, 100 samples.
        # The naive U costs its width squared per index, so its widest
        # window here has lo == hi.
        trace = random_trace(np.random.default_rng(12), n=2401, dt=0.05)
        body = Atom("a", ">", 0.0)
        formulas = [Globally(body, interval=(0.0, 0.5)), Globally(body, interval=(0.0, 5.0)),
                    Eventually(Atom("b"), interval=(0.0, 0.5)),
                    Eventually(Atom("b"), interval=(0.0, 5.0)),
                    Until(body, Atom("b"), interval=(0.0, 0.5)),
                    Until(body, Atom("b"), interval=(5.0, 5.0))]
        for formula in formulas:
            assert_naive_at_every_index(formula, trace)


def g_window(kind: str, n: int, rng) -> tuple[int, int]:
    """Sample-index bounds of a G window over an n-sample trace: inside it,
    running past its end, or starting at or past its end, so that capping
    leaves no recorded sample in it."""
    if kind == "inside":
        first = int(rng.integers(n))
        return first, int(rng.integers(first, n))
    if kind == "past_the_end":
        return int(rng.integers(n)), int(rng.integers(n, 2 * n + 3))
    first = int(rng.integers(n, 2 * n + 3))
    return first, first + int(rng.integers(4))


class TestWitness:
    @pytest.mark.parametrize("seed, kind", enumerate(
        ["unbounded", "inside", "past_the_end", "empty"]))
    def test_first_body_sample_of_the_window_not_true(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            trace = random_trace(rng, max_len=20)
            n, dt = len(trace), trace.dt
            body = random_formula(rng, 3, dt)
            if kind == "unbounded":
                formula, (first, last) = Globally(body), (0, n - 1)
            else:
                first, last = g_window(kind, n, rng)
                formula = Globally(body, interval=(first * dt, last * dt))
            memo = {}
            expected = next((float(j * dt) for j in range(first, min(last, n - 1) + 1)
                             if naive_value(body, trace, j, {}, memo) != stl.TRUE), None)
            verdict = evaluate(formula, trace)
            assert verdict.witness_time == expected, formula
            naive = naive_verdict(formula, trace, {})
            assert verdict.violated == (naive != stl.TRUE)
            assert verdict.window_truncated == (naive == stl.UNKNOWN)


class TestDualityAndMonotonicity:
    def test_de_morgan_globally_eventually(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            trace = random_trace(rng)
            inner = random_formula(rng, 2, trace.dt)
            lo = float(rng.integers(0, 3)) * trace.dt
            hi = lo + float(rng.integers(0, 6)) * trace.dt
            lhs = Not(Globally(Not(inner), interval=(lo, hi)))
            rhs = Eventually(inner, interval=(lo, hi))
            assert evaluate(lhs, trace) == evaluate(rhs, trace)

    def test_monotone_delta(self, make_trace):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(5, 40))
            trace = make_trace(
                0.5,
                battery=rng.uniform(0, 20, n),
                altitude=rng.uniform(0, 40, n),
                deployed_flag=rng.integers(0, 2, n).astype(float),
            )
            d1 = float(rng.integers(1, 6)) * 0.5
            d2 = d1 + float(rng.integers(0, 6)) * 0.5
            first, second = (Configuration(low_batt_threshold=10.0, delta=d) for d in (d1, d2))
            if evaluate(phi_for, trace, first).outcome is Outcome.SATISFIED:
                assert evaluate(phi_for, trace, second).outcome is Outcome.SATISFIED



class TestLookAhead:
    def test_extension_decides_every_formula_without_unbounded_globally(self):
        # run_trial re-simulates a truncated verdict once, over the formula's
        # look-ahead plus ten steps; without unbounded G that trace decides it
        rng = np.random.default_rng(5)
        for _ in range(2000):
            dt = float(rng.choice([0.1, 0.5, 1.0]))
            # bounds on another grid, so they fall between samples
            formula = random_formula(rng, 4, dt * float(rng.uniform(0.1, 3.0)),
                                     unbounded_g=False)
            n = round((stl.formula_horizon(formula) + 10 * dt) / dt) + 1
            trace = random_trace(rng, n=n, dt=dt)
            assert not evaluate(formula, trace).window_truncated, formula

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_unbounded_globally_can_stay_truncated(self, make_trace, n):
        # the body's window runs past the end at the last samples of any trace
        phi = Globally(Eventually(Atom("a"), interval=(1.0, 2.0)))
        assert stl.formula_horizon(phi) == 2.0
        verdict = evaluate(phi, make_trace(0.5, a=[1.0] * n))
        assert verdict.violated and verdict.window_truncated
