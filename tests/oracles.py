"""Independent oracles the test suite checks the implementation against.

These deliberately share no evaluation code with the package: the STL
oracle here is a direct quantifier expansion of the documented semantics,
the simulation oracle steps a plain dict through the documented hybrid
semantics, the trace serializer makes one ``json.dumps`` call per
sample, the condensation oracle factors the internal block once with
scipy's LU, and the drone violation predicate is the closed-form
behavior of the buggy controller.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hdsf import stl
from hdsf.errors import SimulationFault
from hdsf.hybrid import Trace

# ---------------------------------------------------------------------------
# Naive three-valued STL evaluation by quantifier expansion
# ---------------------------------------------------------------------------

_NOT = {stl.FALSE: stl.TRUE, stl.UNKNOWN: stl.UNKNOWN, stl.TRUE: stl.FALSE}


def _bound(seconds: float, dt: float) -> int:
    return int(math.floor(seconds / dt + 0.5))


def naive_value(formula, trace: Trace, i: int, memo=None) -> int:
    """Truth value of ``formula`` at sample ``i`` by direct expansion."""
    if memo is None:
        memo = {}
    key = (id(formula), i)
    if key in memo:
        return memo[key]
    n = len(trace)
    dt = trace.dt
    if i >= n:
        return stl.UNKNOWN

    if isinstance(formula, stl.Atom):
        v = float(trace.signals[formula.signal][i])
        if formula.op is None:
            ok = v >= stl.BOOL_THRESHOLD
        elif formula.op == "<=":
            ok = v <= formula.value
        elif formula.op == "<":
            ok = v < formula.value
        elif formula.op == ">=":
            ok = v >= formula.value
        elif formula.op == ">":
            ok = v > formula.value
        else:
            ok = v == formula.value
        result = stl.TRUE if ok else stl.FALSE
    elif isinstance(formula, stl.Not):
        result = _NOT[naive_value(formula.child, trace, i, memo)]
    elif isinstance(formula, stl.And):
        result = min(naive_value(formula.left, trace, i, memo),
                     naive_value(formula.right, trace, i, memo))
    elif isinstance(formula, stl.Or):
        result = max(naive_value(formula.left, trace, i, memo),
                     naive_value(formula.right, trace, i, memo))
    elif isinstance(formula, stl.Implies):
        result = max(_NOT[naive_value(formula.left, trace, i, memo)],
                     naive_value(formula.right, trace, i, memo))
    elif isinstance(formula, stl.Globally):
        if formula.interval is None:
            js = range(i, n)
        else:
            lo, hi = (_bound(b, dt) for b in formula.interval)
            js = range(i + lo, i + hi + 1)
        result = min((naive_value(formula.child, trace, j, memo) for j in js),
                     default=stl.TRUE)
    elif isinstance(formula, stl.Eventually):
        lo, hi = (_bound(b, dt) for b in formula.interval)
        result = max((naive_value(formula.child, trace, j, memo)
                      for j in range(i + lo, i + hi + 1)), default=stl.FALSE)
    elif isinstance(formula, stl.Until):
        lo, hi = (_bound(b, dt) for b in formula.interval)
        result = stl.FALSE
        for j in range(i + lo, i + hi + 1):
            term = naive_value(formula.right, trace, j, memo)
            for k in range(i, j):
                term = min(term, naive_value(formula.left, trace, k, memo))
            result = max(result, term)
    else:
        raise TypeError(f"not a formula node: {formula!r}")
    memo[key] = result
    return result


def naive_verdict(formula, trace: Trace) -> int:
    """Three-valued verdict at the start of the trace."""
    return naive_value(formula, trace, 0)


# ---------------------------------------------------------------------------
# Naive hybrid simulation from the documented semantics
# ---------------------------------------------------------------------------

def _check_finite(state, names, t):
    for n in names:
        if not math.isfinite(state[n]):
            raise SimulationFault(t, n, state[n])


def naive_simulate(system, initial_state, params, dt: float, horizon: float):
    """``(times, modes, rows, events)`` of a fixed-step run.

    A transcription of the semantics in the ``hdsf.hybrid`` docstring over
    a plain dict state: sample k is taken at t = k * dt before any
    transition, so the sample at an event carries the pre-transition
    state; guards are tried in declaration order and the first true one
    fires, its reset reading that sample, and the mode switches to its
    target; every Euler rate reads the pre-step state; every run ends at
    the horizon; a non-finite value in the initial state, after a step or
    after a reset raises ``SimulationFault``.  ``rows`` holds one list of signal values per
    sample and ``events`` one ``(t, guard, source, target)`` tuple per
    transition.
    """
    names = list(system.signal_names)
    if initial_state is None:
        initial_state = [params[init] if isinstance(init, str) else init
                         for init in (system.initials.get(n, 0.0) for n in names)]
    state = {n: float(v) for n, v in zip(names, initial_state)}
    _check_finite(state, names, 0.0)
    mode = system.initial_mode
    times, modes, rows, events = [], [], [], []
    for k in range(int(round(horizon / dt)) + 1):
        if k > 0:
            rates = system.dynamics[mode]
            derivative = {n: expr.func(state, params) for n, expr in rates.items()}
            state = {n: state[n] + dt * derivative[n] if n in derivative else state[n]
                     for n in names}
            _check_finite(state, names, k * dt)
        times.append(k * dt)
        modes.append(mode)
        rows.append([state[n] for n in names])
        for guard in system.guards[mode]:
            if guard.predicate(state, params):
                events.append((k * dt, guard.label, mode, guard.target))
                state = {n: float(guard.reset[n].func(state, params))
                         if n in guard.reset else state[n] for n in names}
                _check_finite(state, names, k * dt)
                mode = guard.target
                break
    return times, modes, rows, events


# ---------------------------------------------------------------------------
# Naive trace serialization: one json.dumps per sample
# ---------------------------------------------------------------------------

def sample_modes(trace: Trace) -> list[str]:
    """The mode of each sample: each mode run's mode repeated from its
    first sample up to the next run's, the last one up to the end."""
    modes: list[str] = []
    ends = [first for _, first in trace.mode_runs[1:]] + [len(trace)]
    for (mode, first), end in zip(trace.mode_runs, ends):
        modes += [mode] * (end - first)
    return modes


def naive_trace_to_jsonl(trace: Trace) -> str:
    """Serialize: header object, one object per sample, then event records."""
    modes = sample_modes(trace)
    seen: list[str] = []
    for m in modes:
        if m not in seen:
            seen.append(m)
    lines = [json.dumps({"dt": trace.dt, "signals": list(trace.signals),
                         "modes": seen}, sort_keys=True)]
    names = list(trace.signals)
    for i in range(len(trace)):
        lines.append(json.dumps({
            "t": float(i * trace.dt),
            "mode": modes[i],
            "signals": {n: float(trace.signals[n][i]) for n in names},
        }, sort_keys=True))
    for ev in trace.events:
        lines.append(json.dumps({"event": {
            "t": ev.time, "guard": ev.guard, "from": ev.source, "to": ev.target,
        }}, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Static condensation with a once-factored LU of the internal block
# ---------------------------------------------------------------------------

def lu_condensation(K: np.ndarray, F: np.ndarray, interface, internal):
    """``(k_tilde, f_tilde, reconstruct)`` of K U = F condensed onto
    ``interface``, where ``reconstruct(u_p)`` returns the internal unknowns.

    K_ii is factored once by ``scipy.linalg.lu_factor``, and every solve
    reuses that factorization through ``lu_solve``.
    """
    # imported here, so that loading the other oracles (perfbench does)
    # does not load scipy.linalg
    import scipy.linalg

    p, i = list(interface), list(internal)
    if not i:
        return K[np.ix_(p, p)].copy(), F[p].copy(), lambda u_p: np.zeros(0)
    K_pi, K_ip = K[np.ix_(p, i)], K[np.ix_(i, p)]
    lu = scipy.linalg.lu_factor(K[np.ix_(i, i)])
    k_tilde = K[np.ix_(p, p)] - K_pi @ scipy.linalg.lu_solve(lu, K_ip)
    f_tilde = F[p] - K_pi @ scipy.linalg.lu_solve(lu, F[i])
    return k_tilde, f_tilde, lambda u_p: scipy.linalg.lu_solve(lu, F[i] - K_ip @ u_p)


# ---------------------------------------------------------------------------
# Random formulas and traces for the equivalence tests
# ---------------------------------------------------------------------------

TRACE_SIGNALS = ("a", "b", "c")


def random_formula(rng: np.random.Generator, depth: int, dt: float, reach: int = 8,
                   unbounded_g: bool = True):
    """Random AST of at most the given depth over TRACE_SIGNALS; a window
    starts below ``reach // 2`` samples and is below ``reach`` samples wide.
    Without ``unbounded_g`` every G gets an interval."""
    if depth == 0 or rng.random() < 0.25:
        signal = TRACE_SIGNALS[rng.integers(len(TRACE_SIGNALS))]
        if rng.random() < 0.3:
            return stl.Atom(signal)
        op = ("<=", "<", ">=", ">", "==")[rng.integers(5)]
        return stl.Atom(signal, op, round(float(rng.uniform(-2.0, 2.0)), 2))

    def interval():
        lo = float(rng.integers(0, reach // 2)) * dt
        hi = lo + float(rng.integers(0, reach)) * dt
        return (lo, hi)

    def child():
        return random_formula(rng, depth - 1, dt, reach, unbounded_g)

    kind = rng.integers(8)
    if kind == 0:
        return stl.Not(child())
    if kind == 1:
        return stl.And(child(), child())
    if kind == 2:
        return stl.Or(child(), child())
    if kind == 3:
        return stl.Implies(child(), child())
    if kind == 4 and unbounded_g:
        return stl.Globally(child())
    if kind in (4, 5):
        return stl.Globally(child(), interval=interval())
    if kind == 6:
        return stl.Eventually(child(), interval=interval())
    return stl.Until(child(), child(), interval=interval())


def random_trace(rng: np.random.Generator, max_len: int = 50,
                 n: int | None = None, dt: float | None = None) -> Trace:
    """Random trace over TRACE_SIGNALS; ``n`` and ``dt`` are drawn unless given."""
    if n is None:
        n = int(rng.integers(1, max_len + 1))
    if dt is None:
        dt = float(rng.choice([0.1, 0.5, 1.0]))
    signals = {}
    for name in TRACE_SIGNALS:
        if rng.random() < 0.4:
            values = rng.integers(0, 2, size=n).astype(float)  # boolean-like
        else:
            values = np.round(rng.uniform(-2.0, 2.0, size=n), 2)
        signals[name] = values
    return Trace(mode_runs=[("M", 0)], signals=signals, events=[], dt=dt, n_samples=n)


# ---------------------------------------------------------------------------
# Closed-form violation predicate for the buggy drone surrogate
# ---------------------------------------------------------------------------

def buggy_violation_predicate(config, drain: float, dt: float, horizon: float) -> bool:
    """True iff the safety property is violated on the buggy surrogate.

    The battery follows the same fixed-step recurrence the simulator uses;
    the altitude stays at its initial value until (non-)deployment, so the
    deployment decision reduces to whether the initial altitude lies in the
    configured band.
    """
    a0 = config["altitude_init"]
    threshold = config["low_batt_threshold"]
    if a0 <= 0.5:
        return False  # never airborne: the antecedent cannot hold
    n_steps = int(round(horizon / dt))
    battery = config["battery_init"]
    crossed = battery <= threshold
    for _ in range(n_steps):
        if crossed:
            break
        battery = battery + dt * (-drain)
        crossed = battery <= threshold
    if not crossed:
        return False  # battery never critical within the trace
    in_band = config["min_deploy_alt"] <= a0 <= config["max_deploy_alt"]
    return not in_band
