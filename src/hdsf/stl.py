"""Bounded signal temporal logic over finite, uniformly sampled traces.

Formulas are ASTs, built in Python, over comparisons between named
signals and constants, boolean connectives, and the time-bounded
operators G (globally), F (eventually) and U (until).  A trace's sample
k is at time ``k * dt``.  Intervals are given in seconds and are
converted to sample-index windows by rounding each bound to the nearest
sample, ties rounding up.  G without an interval is unbounded and ranges
over the remainder of the trace.

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

The evaluator computes each subformula at every sample index at once,
in O(n) on an n-sample trace whatever the window widths.  In the order
False < Unknown < True a window's AND is False iff the window holds a
False, and otherwise Unknown iff it holds an Unknown or reaches index
n; OR is the same with True in place of False.  So G[a,b] and F[a,b]
need only the first index at or after i + ia where the body takes each
value, and U[a,b] the first such index of each operand (see
``_until``).  One backward running minimum over the marked indices
gives every sample's first index at once.
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
    return truth.view(np.int8) * TRUE  # FALSE is 0


def _first_from(marked: np.ndarray, lo: int, none: int) -> np.ndarray:
    """For every sample i, the first index j >= i + lo with ``marked[j]``,
    or ``none`` where the trace holds no such index.

    One reversed running minimum over the marked indices, shifted by
    ``lo``: O(n) whatever ``lo``.  Passing ``none = n`` counts the first
    index past the trace end, which is Unknown, as marked.
    """
    n = len(marked)
    if not marked.any():
        return np.full(n, none)
    first = np.minimum.accumulate(np.where(marked, np.arange(n), none)[::-1])[::-1]
    if lo:
        first = np.concatenate([first[lo:], np.full(lo, none)])
    return first


def _window_holds(marked: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """For every sample i, whether ``marked[j]`` for some index j of the
    trace in the window [i+lo, i+hi]."""
    n = len(marked)
    if not marked.any():
        return marked
    return _first_from(marked, lo, 2 * n) <= np.arange(n) + hi


def _window_fold(vals: np.ndarray, lo: int, hi: int, decisive: int) -> np.ndarray:
    """Fold over the window [i+lo, i+hi] for every index i, in O(n)
    whatever the width: min when ``decisive`` is FALSE, max when it is TRUE.

    In the three-valued order the fold is ``decisive`` iff the window
    holds it.  Otherwise it is UNKNOWN iff the window holds an UNKNOWN or
    reaches past the end of ``vals``, and the other value if not.
    """
    n = len(vals)
    decided = _window_holds(vals == decisive, lo, hi)
    undecided = decided | _window_holds(vals == UNKNOWN, lo, hi)
    undecided[max(n - hi, 0):] = True  # these windows reach past the end
    moved = undecided.view(np.int8) + decided.view(np.int8)
    if decisive == FALSE:
        return TRUE - moved
    return FALSE + moved


def _until(left: np.ndarray, right: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``left U[lo, hi] right`` at every index i, in O(n) whatever the width.

    The candidate j = i + lo, ..., i + hi is True when ``right[j]`` is and
    ``left`` is True on [i, j), and False when ``right[j]`` is or ``left``
    is False somewhere on [i, j).  So the result is True iff the first True
    of ``right`` from i + lo on comes no later than i + hi and no later
    than the first non-True of ``left`` from i on, and False iff the first
    non-False of ``right`` from i + lo on comes later than i + hi and later
    than the first False of ``left`` from i on.  Every index from n on is
    Unknown.  A non-True is a False or an Unknown, so each input takes a
    pass for its Unknowns only if it holds one.
    """
    n = len(left)
    last = np.arange(n) + hi
    left_false = _first_from(left == FALSE, 0, 2 * n)
    false_by = np.minimum(last, left_false)
    true_by = np.minimum(false_by, _first_from(left == UNKNOWN, 0, n))
    right_true = _first_from(right == TRUE, lo, 2 * n)
    right_unknown = _first_from(right == UNKNOWN, lo, n)
    holds = (right_true <= true_by).view(np.int8)
    fails = ((right_true > false_by) & (right_unknown > false_by)).view(np.int8)
    return UNKNOWN + holds - fails


def _globally(formula: Globally, body: np.ndarray, dt: float) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index, given its
    body's truth ``body``."""
    if formula.interval is None:
        # unbounded: suffix conjunction over the recorded trace only
        return np.minimum.accumulate(body[::-1])[::-1]
    n = len(body)
    lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
    return _window_fold(body, lo, hi, FALSE)


def _values(formula: StlFormula, trace, dt: float) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index."""
    n = len(trace)
    if isinstance(formula, Atom):
        return _atom_values(formula, trace)
    if isinstance(formula, Not):
        return TRUE - _values(formula.child, trace, dt)
    if isinstance(formula, And):
        return np.minimum(_values(formula.left, trace, dt), _values(formula.right, trace, dt))
    if isinstance(formula, Or):
        return np.maximum(_values(formula.left, trace, dt), _values(formula.right, trace, dt))
    if isinstance(formula, Implies):
        lhs = TRUE - _values(formula.left, trace, dt)
        return np.maximum(lhs, _values(formula.right, trace, dt))
    if isinstance(formula, Globally):
        return _globally(formula, _values(formula.child, trace, dt), dt)
    if isinstance(formula, Eventually):
        child = _values(formula.child, trace, dt)
        lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
        return _window_fold(child, lo, hi, TRUE)
    if isinstance(formula, Until):
        left = _values(formula.left, trace, dt)
        right = _values(formula.right, trace, dt)
        lo, hi = (_index_bound(b, dt, n) for b in formula.interval)
        return _until(left, right, lo, hi)
    raise TypeError(f"not a formula node: {formula!r}")


def _check_trace(formula: StlFormula, trace) -> float:
    if len(trace) == 0:
        raise EvaluationError("cannot evaluate a formula on an empty trace")
    missing = sorted(atom_signals(formula) - set(trace.signals))
    if missing:
        raise EvaluationError(
            f"formula references signals {missing} not present in trace; "
            f"available: {sorted(trace.signals)}")
    return trace.dt


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
            witness = float((lo + misses[0]) * dt)
    return Verdict(Outcome.VIOLATED, witness_time=witness,
                   window_truncated=(root == UNKNOWN))
