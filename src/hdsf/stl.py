"""Bounded signal temporal logic over finite, uniformly sampled traces.

Formulas are ASTs, built in Python, over comparisons between named
signals and thresholds, boolean connectives, and the time-bounded
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

A formula may be parametric (Asarin, Caspi & Maler, RV 2011): an atom's
threshold and an interval's bound may name a configuration parameter,
so one formula, built once, stands for every instance a configuration
picks.  Each reader reads the named values from the configuration it is
given: :func:`evaluate`, :func:`formula_horizon`, and, on the state
formulas (atoms under Not, And and Or) that hybrid guards give as
conditions, :func:`state_predicate` and :func:`state_truth`.  A missing
name raises :class:`MissingParameterError`, and an interval that
resolves to break ``0 <= lo <= hi`` raises :class:`SpecificationError`.

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
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .config import Configuration
from .errors import EvaluationError, SpecificationError

# Three-valued encoding ordered so that kleene AND = min and OR = max.
FALSE = 0
UNKNOWN = 1
TRUE = 2

BOOL_THRESHOLD = 0.5

_LITERAL = Configuration()  # all a literal formula reads

_COMPARATORS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
                ">": operator.gt, "==": operator.eq}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Interval = tuple[Union[float, str], Union[float, str]]  # [lo, hi]: seconds or parameter names


@dataclass(frozen=True)
class Atom:
    """``signal op threshold`` comparison, or a bare boolean signal (op=None).

    The threshold is a constant, or the name of a configuration parameter
    that each reader of the formula reads from its configuration."""

    signal: str
    op: Optional[str] = None
    value: Union[float, str, None] = None

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
    """G with optional [lo, hi] interval in seconds; None means unbounded.
    A bound of any interval may name a configuration parameter."""

    child: "StlFormula"
    interval: Optional[Interval] = None

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Eventually:
    child: "StlFormula"
    interval: Interval = (0.0, 0.0)

    def __post_init__(self):
        _check_interval(self.interval)


@dataclass(frozen=True)
class Until:
    left: "StlFormula"
    right: "StlFormula"
    interval: Interval = (0.0, 0.0)

    def __post_init__(self):
        _check_interval(self.interval)


StlFormula = Union[Atom, Not, And, Or, Implies, Globally, Eventually, Until]


def _check_interval(interval):
    # a literal interval is checked here, one that names a bound when it is read
    if interval is not None and not any(isinstance(b, str) for b in interval):
        _resolve(interval, _LITERAL)


def _resolve(interval: Interval, params: Mapping) -> tuple[float, float]:
    """``interval`` with each bound that names a parameter read from ``params``."""
    lo, hi = (params[b] if isinstance(b, str) else b for b in interval)
    if not (0 <= lo <= hi):
        raise SpecificationError(f"interval {interval} resolves to [{lo}, {hi}], "
                                 "which breaks 0 <= lo <= hi")
    return lo, hi


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


def formula_horizon(formula: StlFormula, params: Mapping = _LITERAL) -> float:
    """Worst-case look-ahead (seconds) the formula needs beyond a sample,
    with each bound that names a parameter read from ``params``.

    An unbounded G adds only its body's look-ahead: it ranges over the
    recorded trace, so no extension of the trace decides it.  When that
    body is still Unknown at the end of the trace, the verdict stays
    truncated however long the run, and is judged pessimistically.
    """
    if isinstance(formula, Atom):
        return 0.0
    if isinstance(formula, Not):
        return formula_horizon(formula.child, params)
    if isinstance(formula, (And, Or, Implies)):
        return max(formula_horizon(formula.left, params),
                   formula_horizon(formula.right, params))
    if isinstance(formula, Globally):
        inner = formula_horizon(formula.child, params)
        return inner if formula.interval is None else _resolve(formula.interval, params)[1] + inner
    if isinstance(formula, Eventually):
        return _resolve(formula.interval, params)[1] + formula_horizon(formula.child, params)
    if isinstance(formula, Until):
        return _resolve(formula.interval, params)[1] + max(
            formula_horizon(formula.left, params), formula_horizon(formula.right, params))
    raise TypeError(f"not a formula node: {formula!r}")


def state_predicate(formula: StlFormula) -> Callable[[Mapping, Mapping], bool]:
    """``formula`` decided on one state: a predicate over ``(state, params)``
    that reads each threshold naming a parameter from ``params``.

    ``formula`` must be a state formula, atoms under Not, And and Or, or
    :class:`SpecificationError` is raised.  And and Or short-circuit left
    to right, as Python's ``and`` and ``or`` do.
    """
    if isinstance(formula, Atom):
        signal = formula.signal
        if formula.op is None:
            return lambda s, p: s[signal] >= BOOL_THRESHOLD
        compare, value = _COMPARATORS[formula.op], formula.value
        if isinstance(value, str):
            return lambda s, p: compare(s[signal], p[value])
        return lambda s, p: compare(s[signal], value)
    if isinstance(formula, Not):
        child = state_predicate(formula.child)
        return lambda s, p: not child(s, p)
    if isinstance(formula, And):
        left, right = state_predicate(formula.left), state_predicate(formula.right)
        return lambda s, p: left(s, p) and right(s, p)
    if isinstance(formula, Or):
        left, right = state_predicate(formula.left), state_predicate(formula.right)
        return lambda s, p: left(s, p) or right(s, p)
    raise SpecificationError(f"not a state formula (atoms under Not, And, Or): {formula!r}")


def state_truth(formula: StlFormula, columns: Mapping[str, np.ndarray],
                params: Mapping) -> np.ndarray:
    """The Boolean array of ``state_predicate(formula)`` at every index of
    ``columns``, one equally long array per signal it reads; the same
    IEEE comparisons, so the two agree at every value, ties and signed
    zeros included."""
    if isinstance(formula, Atom):
        column = columns[formula.signal]
        if formula.op is None:
            return column >= BOOL_THRESHOLD
        value = formula.value
        return _COMPARATORS[formula.op](column, params[value] if isinstance(value, str)
                                        else value)
    if isinstance(formula, Not):
        return ~state_truth(formula.child, columns, params)
    if isinstance(formula, And):
        return state_truth(formula.left, columns, params) & state_truth(
            formula.right, columns, params)
    if isinstance(formula, Or):
        return state_truth(formula.left, columns, params) | state_truth(
            formula.right, columns, params)
    raise SpecificationError(f"not a state formula (atoms under Not, And, Or): {formula!r}")


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


def _window(interval: Interval, params: Mapping, dt: float, n: int) -> tuple[int, int]:
    """The sample-index bounds of ``interval`` on an n-sample trace."""
    lo, hi = _resolve(interval, params)
    return _index_bound(lo, dt, n), _index_bound(hi, dt, n)


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


def _globally(formula: Globally, body: np.ndarray, params: Mapping, dt: float) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index, given its
    body's truth ``body``."""
    if formula.interval is None:
        # unbounded: suffix conjunction over the recorded trace only
        return np.minimum.accumulate(body[::-1])[::-1]
    return _window_fold(body, *_window(formula.interval, params, dt, len(body)), FALSE)


def _values(formula: StlFormula, trace, params: Mapping) -> np.ndarray:
    """Three-valued truth of ``formula`` at every sample index."""
    if isinstance(formula, Atom):
        if formula.signal not in trace.signals:
            raise EvaluationError(f"formula references signal {formula.signal!r}, not in "
                                  f"the trace; available: {sorted(trace.signals)}")
        return state_truth(formula, trace.signals, params).view(np.int8) * TRUE  # FALSE is 0
    if isinstance(formula, Not):
        return TRUE - _values(formula.child, trace, params)
    if isinstance(formula, Globally):
        return _globally(formula, _values(formula.child, trace, params), params, trace.dt)
    if isinstance(formula, Eventually):
        body = _values(formula.child, trace, params)
        return _window_fold(body, *_window(formula.interval, params, trace.dt, len(trace)), TRUE)
    if not isinstance(formula, (And, Or, Implies, Until)):
        raise TypeError(f"not a formula node: {formula!r}")
    left, right = _values(formula.left, trace, params), _values(formula.right, trace, params)
    if isinstance(formula, And):
        return np.minimum(left, right)
    if isinstance(formula, Or):
        return np.maximum(left, right)
    if isinstance(formula, Implies):
        return np.maximum(TRUE - left, right)
    return _until(left, right, *_window(formula.interval, params, trace.dt, len(trace)))


def evaluate(formula: StlFormula, trace, params: Mapping = _LITERAL) -> Verdict:
    """Evaluate ``formula`` at the start of ``trace``, with each threshold
    and bound that names a parameter read from the configuration ``params``.

    Returns a :class:`Verdict`.  An undetermined result (a deciding window
    ran past the end of the trace) is pessimistically Violated with
    ``window_truncated`` set.  A top-level G needs its body only over its
    window from sample 0: the least value there is the verdict, at most
    Unknown when the window reaches past the end of the trace, and the
    first sample of the window where the body is not True gives the
    witness time.  An atom whose signal the trace lacks raises
    :class:`EvaluationError`.
    """
    if len(trace) == 0:
        raise EvaluationError("cannot evaluate a formula on an empty trace")
    dt, n = trace.dt, len(trace)
    if isinstance(formula, Globally):
        lo, hi = (0, n - 1) if formula.interval is None else _window(formula.interval, params, dt, n)
        window = _values(formula.child, trace, params)[lo:hi + 1]
        # a window that reaches past the end, or starts there, is Unknown at best
        root = min(int(window.min(initial=TRUE)), UNKNOWN if hi >= n else TRUE)
    else:
        root = int(_values(formula, trace, params)[0])
    if root == TRUE:
        return Verdict(Outcome.SATISFIED)
    witness = None
    if isinstance(formula, Globally) and (misses := np.flatnonzero(window != TRUE)).size:
        witness = float((lo + misses[0]) * dt)
    return Verdict(Outcome.VIOLATED, witness_time=witness,
                   window_truncated=(root == UNKNOWN))
