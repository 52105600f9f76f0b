"""Bounded signal temporal logic over finite, uniformly sampled traces.

Formulas are ASTs, built in Python, over comparisons between named
signals and constants, boolean connectives, and the time-bounded
operators G (globally), F (eventually) and U (until).  Intervals are
given in seconds and are converted to sample-index windows by rounding
each bound to the nearest sample, ties rounding up.  G without an
interval is unbounded and ranges over the remainder of the trace.

Semantics are pointwise over sample indices with a three-valued
(Kleene) treatment of the trace end: a sample index beyond the last
recorded sample has unknown truth value, so a bounded window that
extends past the end of the trace can make a subformula undetermined.
An undetermined top-level result is judged pessimistically as Violated,
with ``window_truncated`` set on the verdict so callers may re-simulate
with a longer horizon before accepting the outcome.

Boolean signals are encoded as reals; a bare signal atom is true when
the signal value is >= 0.5.

Reference semantics, shared by this evaluator and the independent
naive evaluator used in the test suite:

  value(Atom, i)        = compare(sig[i]) if i < n else Unknown
  value(Not f, i)       = kleene-not value(f, i)
  value(f And g, i)     = kleene-and
  value(f Or g, i)      = kleene-or
  value(f -> g, i)      = kleene-or(not f, g)
  value(G f, i)         = AND over j in [i, n)                (unbounded; no padding)
  value(G[a,b] f, i)    = AND over j in [i+ia, i+ib]          (j >= n contributes Unknown)
  value(F[a,b] f, i)    = OR  over j in [i+ia, i+ib]          (j >= n contributes Unknown)
  value(f U[a,b] g, i)  = OR over j in [i+ia, i+ib] of
                            AND( value(g, j), AND over k in [i, j) of value(f, k) )

where ia, ib are the rounded index bounds, each capped at n: every index
from n on is Unknown, so the cap changes no value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import EvaluationError

# Three-valued encoding ordered so that kleene AND = min and OR = max.
FALSE = 0
UNKNOWN = 1
TRUE = 2

BOOL_THRESHOLD = 0.5

_COMPARATORS = ("<=", "<", ">=", ">", "==")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """``signal op constant`` comparison, or a bare boolean signal (op=None)."""

    signal: str
    op: Optional[str] = None
    value: Optional[float] = None

    def __post_init__(self):
        if (self.op is None) != (self.value is None):
            raise ValueError("comparison atoms need both op and value")
        if self.op is not None and self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")


@dataclass(frozen=True)
class Not:
    child: "StlFormula"


@dataclass(frozen=True)
class And:
    left: "StlFormula"
    right: "StlFormula"


@dataclass(frozen=True)
class Or:
    left: "StlFormula"
    right: "StlFormula"


@dataclass(frozen=True)
class Implies:
    left: "StlFormula"
    right: "StlFormula"


@dataclass(frozen=True)
class Globally:
    """G with optional [lo, hi] interval in seconds; None means unbounded."""

    child: "StlFormula"
    interval: Optional[tuple[float, float]] = None

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Eventually:
    child: "StlFormula"
    interval: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Until:
    left: "StlFormula"
    right: "StlFormula"
    interval: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _check_interval(self.interval)


StlFormula = Union[Atom, Not, And, Or, Implies, Globally, Eventually, Until]


def _check_interval(interval):
    if interval is None:
        return
    lo, hi = interval
    if not (0 <= lo <= hi):
        raise ValueError(f"interval must satisfy 0 <= lo <= hi, got {interval}")


def atom_signals(formula: StlFormula) -> frozenset[str]:
    """All signal names referenced by the formula's atoms."""
    if isinstance(formula, Atom):
        return frozenset({formula.signal})
    if isinstance(formula, Not):
        return atom_signals(formula.child)
    if isinstance(formula, (And, Or, Implies, Until)):
        return atom_signals(formula.left) | atom_signals(formula.right)
    if isinstance(formula, (Globally, Eventually)):
        return atom_signals(formula.child)
    raise TypeError(f"not a formula node: {formula!r}")


def formula_horizon(formula: StlFormula) -> float:
    """Worst-case look-ahead (seconds) the formula needs beyond a sample.

    An unbounded G adds only its body's look-ahead: it ranges over the
    recorded trace, so no extension of the trace decides it.  When that
    body is still Unknown at the end of the trace, the verdict stays
    truncated however long the run, and is judged pessimistically.
    """
    if isinstance(formula, Atom):
        return 0.0
    if isinstance(formula, Not):
        return formula_horizon(formula.child)
    if isinstance(formula, (And, Or, Implies)):
        return max(formula_horizon(formula.left), formula_horizon(formula.right))
    if isinstance(formula, Globally):
        inner = formula_horizon(formula.child)
        return inner if formula.interval is None else formula.interval[1] + inner
    if isinstance(formula, Eventually):
        return formula.interval[1] + formula_horizon(formula.child)
    if isinstance(formula, Until):
        return formula.interval[1] + max(formula_horizon(formula.left),
                                         formula_horizon(formula.right))
    raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------

class Outcome(Enum):
    SATISFIED = "Satisfied"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class Verdict:
    """Boolean result of one formula on one trace.

    ``witness_time`` is the first violation time, reported only when the
    top-level operator is Globally and the verdict is Violated.
    ``window_truncated`` marks a pessimistic verdict whose deciding window
    extended past the end of the trace; callers may re-simulate once with
    a longer horizon before accepting it.
    """

    outcome: Outcome
    witness_time: Optional[float] = None
    window_truncated: bool = False

    @property
    def violated(self) -> bool:
        return self.outcome is Outcome.VIOLATED


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _index_bound(seconds: float, dt: float, n: int) -> int:
    # round to nearest sample, ties up; capped at n, as every index from n on is Unknown
    index = seconds / dt + 0.5
    return n if index >= n else math.floor(index)


def _atom_values(atom: Atom, trace) -> np.ndarray:
    sig = trace.signals[atom.signal]
    if atom.op is None:
        truth = sig >= BOOL_THRESHOLD
    elif atom.op == "<=":
        truth = sig <= atom.value
    elif atom.op == "<":
        truth = sig < atom.value
    elif atom.op == ">=":
        truth = sig >= atom.value
    elif atom.op == ">":
        truth = sig > atom.value
    else:
        truth = sig == atom.value
    return np.where(truth, TRUE, FALSE).astype(np.int8)


def _window_fold(vals: np.ndarray, lo: int, hi: int, fold: str) -> np.ndarray:
    """Fold (min or max) over the window [i+lo, i+hi] for every index i.

    Indices beyond the end of ``vals`` contribute UNKNOWN, which is what the
    padding provides.
    """
    n = len(vals)
    padded = np.concatenate([vals, np.full(hi, UNKNOWN, dtype=np.int8)])
    width = hi - lo + 1
    windows = np.lib.stride_tricks.sliding_window_view(padded[lo:], width)[:n]
    if fold == "min":
        return windows.min(axis=1).astype(np.int8)
    return windows.max(axis=1).astype(np.int8)


_NOT_LUT = np.array([TRUE, UNKNOWN, FALSE], dtype=np.int8)


def _globally(formula: Globally, body: np.ndarray, dt: float) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index, given its
    body's truth ``body``."""
    if formula.interval is None:
        # unbounded: suffix conjunction over the recorded trace only
        return np.minimum.accumulate(body[::-1])[::-1]
    n = len(body)
    lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
    return _window_fold(body, lo, hi, "min")


def _values(formula: StlFormula, trace, dt: float) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index."""
    n = len(trace.times)
    if isinstance(formula, Atom):
        return _atom_values(formula, trace)
    if isinstance(formula, Not):
        return _NOT_LUT[_values(formula.child, trace, dt)]
    if isinstance(formula, And):
        return np.minimum(_values(formula.left, trace, dt), _values(formula.right, trace, dt))
    if isinstance(formula, Or):
        return np.maximum(_values(formula.left, trace, dt), _values(formula.right, trace, dt))
    if isinstance(formula, Implies):
        lhs = _NOT_LUT[_values(formula.left, trace, dt)]
        return np.maximum(lhs, _values(formula.right, trace, dt))
    if isinstance(formula, Globally):
        return _globally(formula, _values(formula.child, trace, dt), dt)
    if isinstance(formula, Eventually):
        child = _values(formula.child, trace, dt)
        lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
        return _window_fold(child, lo, hi, "max")
    if isinstance(formula, Until):
        left = _values(formula.left, trace, dt)
        right = _values(formula.right, trace, dt)
        lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
        lpad = np.concatenate([left, np.full(hi, UNKNOWN, dtype=np.int8)])
        rpad = np.concatenate([right, np.full(hi, UNKNOWN, dtype=np.int8)])
        acc = np.full(n, FALSE, dtype=np.int8)
        prefix = np.full(n, TRUE, dtype=np.int8)  # AND of left over [i, i+o)
        for o in range(hi + 1):
            if o >= lo:
                acc = np.maximum(acc, np.minimum(rpad[o:o + n], prefix))
            prefix = np.minimum(prefix, lpad[o:o + n])
        return acc
    raise TypeError(f"not a formula node: {formula!r}")


def _check_trace(formula: StlFormula, trace) -> float:
    times = trace.times
    if len(times) == 0:
        raise EvaluationError("cannot evaluate a formula on an empty trace")
    dt = trace.dt
    expected = np.arange(len(times)) * dt
    if not np.allclose(times, expected, rtol=0.0, atol=1e-9 * max(dt, 1.0)):
        raise EvaluationError("trace is not uniformly sampled at its declared dt")
    missing = sorted(atom_signals(formula) - set(trace.signals))
    if missing:
        raise EvaluationError(
            f"formula references signals {missing} not present in trace; "
            f"available: {sorted(trace.signals)}")
    return dt


def evaluate(formula: StlFormula, trace) -> Verdict:
    """Evaluate ``formula`` at the start of ``trace``.

    Returns a :class:`Verdict`.  An undetermined result (a deciding window
    ran past the end of the trace) is pessimistically Violated with
    ``window_truncated`` set.  A top-level G's body is evaluated once: its
    fold gives the verdict, and the first sample of the window where the
    body is not True gives the witness time.
    """
    dt = _check_trace(formula, trace)
    if isinstance(formula, Globally):
        body = _values(formula.child, trace, dt)
        root = int(_globally(formula, body, dt)[0])
    else:
        root = int(_values(formula, trace, dt)[0])
    if root == TRUE:
        return Verdict(Outcome.SATISFIED)
    witness = None
    if isinstance(formula, Globally):
        n = len(body)
        if formula.interval is None:
            lo, hi = 0, n - 1
        else:
            lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
        misses = np.flatnonzero(body[lo:hi + 1] != TRUE)
        if misses.size:
            witness = float(trace.times[lo + misses[0]])
    return Verdict(Outcome.VIOLATED, witness_time=witness,
                   window_truncated=(root == UNKNOWN))
