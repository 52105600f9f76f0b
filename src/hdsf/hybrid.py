"""Hybrid dynamical systems: modes, guarded edges, and simulation.

A system declares one ordered list of named signals, shared by every
mode, and gives each control mode its own flow: a dict of rates keyed by
signal.  A mode is nothing but its name, a key of the system's
``dynamics``.  Each mode's outgoing edges are its guards: a guard is a
predicate over the named state that names its target mode and its reset;
when it fires, the reset rewrites selected signals and the mode switches
to the target.

Dynamics, guards, and resets declare the signals they read.  The
declarations make the models statically analyzable: the property-guided
reduction works purely on these declared dependency sets, never by
introspecting the callables.  A system checks when it is built that
every declared read names one of its signals, so no system, reduced or
not, reads a signal it lacks.  A rate may declare its form, a constant
or a constant clamped at its signal's level, and a guard may give a
condition, a state formula of :mod:`hdsf.stl`; their callables and
reads are then derived from what they declare.

Integration is explicit forward Euler with a fixed step ``dt``, and a
trace's sample k is at ``k * dt``; every rate reads the pre-step state.
Guards are evaluated on every recorded sample, the initial one included,
in declaration order; the first guard whose predicate holds fires.  The
recorded sample at an event time carries the pre-transition state and
mode, so a trace always shows the state the guard actually tested.
Every run ends at the horizon; a mode with no guards and no rates holds
its state until then; a trace keeps its modes as ``(mode, first
sample)`` runs.  Each mode is split when the system is built: a
signal whose rate declares a form and that no callable called per
sample reads is filled ahead in numpy passes, and so is the first
sample at which a condition over such signals, and signals the mode
does not rate, holds; a stretch in which nothing moves, with nothing
stepped, is written to the horizon at once.  The rest is stepped in
Python.  Both write the same bits as stepping every signal would.  A
system keeps the stepped part of a run of each mode, and a run from the
same inputs replays it and steps on past its end.

Dynamics, guard and reset callables are pure functions of ``(state,
params)``, where ``params`` is the trial's configuration, a read-only
dict.  They read only the signals they declare, and may be called any
number of times or not at all; a rate's callable derived from its form
is never called while its signal is filled.  A signal settles in a step
that fires no guard when the step leaves it bit-identical and every
signal it reads has settled too; a signal the mode does not rate has
settled.  A settled signal keeps its value without its rate being
called, and a guard that reads only settled signals is not called
either, until the next event starts a new mode run.  Once nothing is
left to step, the run goes on at once to the next sample the fill
decides.  So a callable that reads a signal it does not declare may be
skipped while that signal moves, and may find a stale value for it in
the state mapping.  A callable must not change the state mapping it is
given: that mapping is the recorded sample, shared by every guard and
rate of that sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .config import Configuration
from .errors import ConfigurationError, ProjectionError, SimulationFault
from .stl import StlFormula, atom_signals, state_predicate, state_truth

StateMap = Mapping[str, float]
Params = Mapping[str, float]


@dataclass(frozen=True)
class RateForm:
    """A rate declared by value: the constant ``rate``, or, with ``level``
    naming the signal it rates, ``rate`` while that signal is > 0 and
    ``exhausted`` while it is not."""

    rate: float
    level: Optional[str] = None
    exhausted: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "exhausted", float(self.exhausted))


@dataclass(frozen=True)
class StateExpr:
    """A scalar function of the named state and configuration.

    ``reads`` declares exactly which signals ``func`` consults.  The
    reduction machinery trusts this declaration, and so does the
    simulator: it stops calling ``func`` once those signals have settled.
    A rate may declare its ``form`` instead; then ``func`` and ``reads``
    are derived from the form, whatever is passed, and the simulator may
    integrate a mode run from the forms without calling ``func`` at all.
    """

    func: Optional[Callable[[StateMap, Params], float]] = None
    reads: frozenset[str] = frozenset()
    form: Optional[RateForm] = None

    def __post_init__(self):
        form = self.form
        if form is None:
            if self.func is None:
                raise ConfigurationError("a StateExpr needs a func or a form")
            return
        rate, level, exhausted = form.rate, form.level, form.exhausted
        if level is None:
            func, reads = (lambda s, p: rate), frozenset()
        else:
            func = lambda s, p: rate if s[level] > 0.0 else exhausted
            reads = frozenset({level})
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "reads", reads)


@dataclass(frozen=True)
class Guard:
    """One edge out of a mode: when ``predicate`` holds, apply ``reset``
    and switch to ``target``.

    ``reset`` maps signal names to new-value expressions, which read the
    pre-transition state; signals without an entry carry over unchanged.
    ``reads`` declares the signals ``predicate`` consults.  A guard may
    give a ``condition`` instead, a state formula of :mod:`hdsf.stl` whose
    thresholds may name parameters; then ``predicate`` is
    ``state_predicate(condition)`` and ``reads`` its atoms' signals,
    whatever is passed.
    """

    label: str
    predicate: Optional[Callable[[StateMap, Params], bool]]
    target: str
    reset: Mapping[str, StateExpr] = field(default_factory=dict)
    reads: frozenset[str] = frozenset()
    condition: Optional[StlFormula] = None

    def __post_init__(self):
        if self.condition is None:
            if self.predicate is None:
                raise ConfigurationError(f"guard {self.label!r} needs a predicate or a condition")
            return
        object.__setattr__(self, "predicate", state_predicate(self.condition))
        object.__setattr__(self, "reads", atom_signals(self.condition))


@dataclass
class HybridSystem:
    """A hybrid automaton: one ordered signal list shared by every mode,
    a flow per mode, and per-mode guarded edges.

    ``signal_names`` declares the state once.  The keys of ``dynamics``,
    in order, are the modes; each maps to that mode's rates, a
    ``{signal: StateExpr}`` dict giving a signal's time derivative
    (signals without an entry have derivative zero).  ``guards`` maps a
    mode to its outgoing edges; a mode without an entry has none.
    ``initials`` gives the default initial value per signal: a float, or
    the name of a configuration parameter to read it from.  Construction
    raises :class:`ConfigurationError` when a rate, guard or reset reads or
    writes a signal outside ``signal_names``.  Instances are treated as
    immutable after construction; the one thing a run changes is
    ``simulate``'s memo of the stepped part of a run of each mode, which
    no trace shows.
    """

    signal_names: tuple[str, ...]
    dynamics: dict[str, dict[str, StateExpr]]
    guards: dict[str, tuple[Guard, ...]]
    initial_mode: str
    initials: dict[str, Union[float, str]] = field(default_factory=dict)
    # how ``simulate`` runs each mode (see ``_plan``), the signals some mode
    # steps, and per mode the (key, parameters read, stepped rows) of its kept run
    _plans: dict[str, "_Plan"] = field(init=False, repr=False, compare=False)
    _stepped: frozenset[int] = field(init=False, repr=False, compare=False)
    _runs: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.signal_names = tuple(self.signal_names)
        declared = set(self.signal_names)
        if len(declared) != len(self.signal_names):
            raise ConfigurationError(f"duplicate signal names: {list(self.signal_names)}")
        if self.initial_mode not in self.dynamics:
            raise ConfigurationError(
                f"initial mode {self.initial_mode!r} not in {list(self.dynamics)}")
        unknown = self.guards.keys() - self.dynamics.keys()
        if unknown:
            raise ConfigurationError(f"guards for unknown modes: {sorted(unknown)}")

        def check(what: str, signals) -> None:
            bad = set(signals) - declared
            if bad:
                raise ConfigurationError(f"{what} undeclared signals: {sorted(bad)}")

        for name, rates in self.dynamics.items():
            check(f"rates of mode {name} for", rates)
            for sig, expr in rates.items():
                check(f"rate of {sig!r} in mode {name} reads", expr.reads)
                if expr.form is not None and expr.form.level not in (None, sig):
                    raise ConfigurationError(f"rate of {sig!r} in mode {name} switches at "
                                             f"the level of {expr.form.level!r}, not its own")
        self.guards = {name: tuple(self.guards.get(name, ())) for name in self.dynamics}
        for name, guards in self.guards.items():
            labels = [g.label for g in guards]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(f"duplicate guard labels in mode {name}: {labels}")
            for g in guards:
                if g.target not in self.dynamics:
                    raise ConfigurationError(
                        f"guard {g.label!r} of mode {name} targets unknown mode {g.target!r}")
                check(f"reset of {g.label!r} writes", g.reset)
                check(f"guard {g.label!r} of mode {name} reads", g.reads)
                for sig, expr in g.reset.items():
                    check(f"reset of {sig!r} by guard {g.label!r} of mode {name} reads",
                          expr.reads)
        check("initials for", self.initials)
        self._plans = {name: _plan(self, name) for name in self.dynamics}
        self._stepped = frozenset(i for plan in self._plans.values() for *_, i in plan.rates)
        self._runs = {}

    def with_entry(self, mode_name: str) -> "HybridSystem":
        """Copy of the system starting in ``mode_name``."""
        return replace(self, initial_mode=mode_name)

    def initial_state(self, parameters: Params) -> np.ndarray:
        """Initial state vector built from ``initials`` and the configuration."""
        out = np.zeros(len(self.signal_names))
        for i, name in enumerate(self.signal_names):
            init = self.initials.get(name, 0.0)
            if isinstance(init, str):
                try:
                    out[i] = float(parameters[init])
                except KeyError:
                    raise ConfigurationError(
                        f"initial value of signal {name!r} needs parameter {init!r}") from None
            else:
                out[i] = float(init)
        return out

    def structure_summary(self) -> dict:
        """Comparable description of the discrete structure (no callables)."""
        return {
            "signals": list(self.signal_names),
            "modes": list(self.dynamics),
            "initial_mode": self.initial_mode,
            "guards": {
                name: [
                    {"label": g.label, "reads": sorted(g.reads),
                     "target": g.target, "reset_writes": sorted(g.reset)}
                    for g in guards
                ]
                for name, guards in self.guards.items()
            },
            "dynamics": {
                name: {s: sorted(rates[s].reads) for s in sorted(rates)}
                for name, rates in self.dynamics.items()
            },
            "initials": {k: v for k, v in sorted(self.initials.items())},
        }


@dataclass(frozen=True)
class TraceEvent:
    time: float
    guard: str
    source: str
    target: str


@dataclass(eq=False)
class Trace:
    """Uniformly sampled execution of ``n_samples`` samples; sample k is at
    k * dt.  ``mode_runs`` holds ``(mode, first sample)`` pairs, the first
    at 0 and their starts increasing; a run lasts up to the next start."""

    mode_runs: list[tuple[str, int]]
    signals: dict[str, np.ndarray]
    events: list[TraceEvent]
    dt: float
    n_samples: int

    def __len__(self) -> int:
        return self.n_samples


def project_trace(trace: Trace, signals: Sequence[str]) -> Trace:
    """Restrict the signal map to ``signals``; mode runs, events, dt unchanged."""
    missing = [s for s in signals if s not in trace.signals]
    if missing:
        raise ProjectionError(
            f"unknown signals {missing}; available: {sorted(trace.signals)}")
    return replace(trace, signals={s: trace.signals[s] for s in signals})


def _apply_reset(system: HybridSystem, guard: Guard, named: StateMap,
                 parameters: Params, time: float) -> dict[str, float]:
    new = dict(named)
    for name in system.signal_names:
        expr = guard.reset.get(name)
        if expr is None:
            continue
        value = float(expr.func(named, parameters))
        if not math.isfinite(value):
            raise SimulationFault(time, name, value)
        new[name] = value
    return new


def _settle(rates: list, edges: list, held: tuple[str, ...]) -> tuple[list, list]:
    """The rates and guards still to call after a step that fired no guard.

    ``rates`` and ``edges`` are the ``(name, func, reads, row)`` and
    ``(guard, predicate, reads)`` entries still called in this mode run,
    and ``held`` names the signals whose rate the step called and that
    stayed bit-identical.  A signal moves if its rate was called and it changed,
    or if it reads a signal that moves; every other signal has settled.
    A guard stays only while it reads a signal that moves.
    """
    moving = {entry[0] for entry in rates}.difference(held)
    waiting = [(entry[0], entry[2]) for entry in rates if entry[0] not in moving]
    while stuck := {name for name, reads in waiting if not reads.isdisjoint(moving)}:
        moving |= stuck
        waiting = [entry for entry in waiting if entry[0] not in stuck]
    return ([entry for entry in rates if entry[0] in moving],
            [entry for entry in edges if not entry[2].isdisjoint(moving)])


_SPAN = 64  # the fewest samples the first pass after a clamp switch covers
_SAFE = 1e300  # a pass whose values stay below this in magnitude cannot overflow


@dataclass(frozen=True)
class _Plan:
    """How ``simulate`` runs one mode, split when the system is built.

    A *filled* signal's rate declares a form and no callable called per
    sample reads it, so its samples are filled ahead in numpy passes.  A
    *decided* guard gives a condition that reads only filled signals and
    signals the mode does not rate, so the passes find the first sample
    at which it holds.  The other rates are stepped in Python and the
    other guards called at every sample.  A stepped rate's entry carries
    its signal's row, into which ``simulate`` writes each value at the
    step that computes it.  What is stepped reads no filled signal, so its
    values and the sample at which an opaque guard fires follow from the
    entry values of the ``keyed`` signals and the parameters looked up.
    """

    rates: tuple  # (name, func, reads, row) of each stepped rate, in signal order
    edges: tuple  # (guard, predicate, reads) of each guard not decided, in declaration order
    guards: tuple  # the same of every guard
    free: tuple[int, ...]  # the indices of the signals not filled
    filled: tuple[int, ...]  # the indices of the filled signals, in signal order
    filled_names: tuple[str, ...]  # their names
    forms: tuple[RateForm, ...]  # their forms
    decided: tuple[StlFormula, ...]  # the decided guards' conditions, in declaration order
    watched: tuple[str, ...]  # the signals the mode does not rate that they read
    keyed: tuple[str, ...]  # the stepped signals and what they and the opaque guards read


def _plan(system: HybridSystem, mode: str) -> _Plan:
    """Split ``mode`` into its filled signals, its decided guards and the
    rest.  Making a guard opaque makes what it reads stepped, which can
    make another guard opaque, so the split shrinks the filled signals
    until nothing called per sample reads one."""
    names = system.signal_names
    rates, guards = system.dynamics[mode], system.guards[mode]
    unrated = set(names).difference(rates)
    filled = {name for name, expr in rates.items() if expr.form is not None}
    while True:
        decided = {g.label for g in guards
                   if g.condition is not None and g.reads <= filled | unrated}
        read = set().union(*(expr.reads for name, expr in rates.items() if name not in filled),
                           *(g.reads for g in guards if g.label not in decided))
        if read.isdisjoint(filled):
            break
        filled -= read
    stepped = [i for i, name in enumerate(names) if name in rates and name not in filled]
    fill = tuple(i for i, name in enumerate(names) if name in filled)
    watched = set().union(*(g.reads for g in guards if g.label in decided)) & unrated
    return _Plan(
        rates=tuple((names[i], rates[names[i]].func, rates[names[i]].reads, i) for i in stepped),
        edges=tuple((g, g.predicate, g.reads) for g in guards if g.label not in decided),
        guards=tuple((g, g.predicate, g.reads) for g in guards),
        free=tuple(i for i, name in enumerate(names) if name not in filled),
        filled=fill,
        filled_names=tuple(names[i] for i in fill),
        forms=tuple(rates[names[i]].form for i in fill),
        decided=tuple(g.condition for g in guards if g.label in decided),
        watched=tuple(name for name in names if name in watched),
        keyed=tuple(name for i, name in enumerate(names) if name in read or i in stepped))


def _form_rate(form: RateForm, value: float) -> float:
    """The rate ``form`` gives where its signal is at ``value``."""
    return form.rate if form.level is None or value > 0.0 else form.exhausted


def _fill_pass(rows: tuple[int, ...], steps: list[float], values: list[float], data: np.ndarray,
               base: int, end: int, safe: bool) -> tuple[list, int, Optional[int]]:
    """Write samples ``base`` to ``end`` of the signals ``rows`` into
    ``data``: each starts at its entry of ``values`` and adds its entry of
    ``steps`` once per sample.  Returns the columns written and the
    element and position in ``rows`` of the first non-finite value, ties
    going to the earlier row, or ``(end - base + 1, None)`` if there is
    none; with ``safe`` no value can overflow, and none is looked for."""
    size = end - base + 1
    fault, faulted = size, None
    columns = []
    for j, (i, value, step) in enumerate(zip(rows, values, steps)):
        row = data[i, base:end + 1]
        columns.append(row)
        if not step:
            row[0], row[1:] = value, value + step
            continue
        ramp = np.full(size, step)
        ramp[0] = value
        if safe:
            np.add.accumulate(ramp, out=row)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(ramp, out=row)
        bad = ~np.isfinite(row)
        at = int(bad.argmax())
        if bad[at] and at < fault:
            fault, faulted = at, j
    return columns, fault, faulted


def _fill_passes(plan: _Plan, names: tuple[str, ...], values: list[float], named: StateMap,
                 parameters: Params, dt: float, k: int, n_steps: int, data: np.ndarray,
                 span: int):
    """Fill the filled signals of a mode run from sample ``k`` on, whose
    values are ``values``, and yield ``(limit, decided, fault)`` after each
    pass.  The filled signals are written through sample ``limit``, and no
    decided guard holds at a sample after ``k`` and before ``limit``.
    ``decided`` says that one holds at ``limit``; ``fault`` is the
    :class:`SimulationFault` of the first non-finite value, at ``limit``,
    or None.  After either, or at the horizon, the caller stops.
    ``named`` holds the signals the mode does not rate, constant for the
    run.

    Between two switches of a clamp every rate is a constant ``r``, so a
    signal's samples are ``np.add.accumulate`` over ``[v, dt*r, dt*r,
    ...]``, which adds left to right exactly as the scalar step ``old +
    dt * r`` does (with ``r`` zero, every sample after ``v`` is ``v +
    dt*r``).  A pass writes ``span`` samples, and each next pass twice as
    many, until one finds what ends the stretch: the first sample at
    which a clamped signal changes side, from which the next stretch goes
    on at the rates that sample gives; the first sample at which a
    decided condition holds; or the first non-finite value.  A guard's
    condition is checked up to the switch, or up to the sample before the
    fault, since a fault at a sample comes before its guards.  What a
    pass wrote past the end of its run, a later run writes over.  A
    stretch's first pass spans twice the last stretch, and at least
    ``_SPAN`` samples, so a long stretch after a short one does not start
    from a short pass.  A still stretch, every step zero, in a mode with
    nothing stepped and no opaque guard, is written to the horizon at
    once: after its first sample, whose guards were checked, nothing
    moves, faults, switches a clamp or makes a condition hold.
    """
    rows, forms, decided = plan.filled, plan.forms, plan.decided
    base = k  # the sample a stretch or a pass starts at; its guards are checked
    while True:  # a stretch: every rate constant
        steps = [dt * _form_rate(form, value) for form, value in zip(forms, values)]
        if not (any(steps) or plan.rates or plan.edges):  # still, and nothing else ends the run
            for i, value, step in zip(rows, values, steps):
                data[i, base], data[i, base + 1:] = value, value + step
            yield n_steps, False, None
            return
        # the position of each clamped signal that moves, and the side of its level it starts on
        moving = [(j, value > 0.0) for j, (form, value, step)
                  in enumerate(zip(forms, values, steps)) if form.level is not None and step]
        safe = (max(map(abs, values)) + (n_steps + 1) * max(map(abs, steps))) < _SAFE
        stretch = base
        while True:  # a pass over samples base to end, its elements 0 to size - 1
            end = min(base + span, n_steps)
            size = end - base + 1
            columns, fault, faulted = _fill_pass(rows, steps, values, data, base, end, safe)
            switch = size  # the first element at which a clamp has switched
            for j, positive in moving:
                flips = (columns[j] > 0.0) != positive
                at = int(flips.argmax())
                if flips[at] and at < switch:
                    switch = at
            # the guards of elements 1 to checked - 1 are checked here
            hit = checked = min(switch + 1, fault)
            if decided and checked > 1:
                state = dict(zip(plan.filled_names, columns))
                state.update((name, np.full(size, named[name])) for name in plan.watched)
                for condition in decided:
                    truth = state_truth(condition, state, parameters)[1:hit]
                    at = int(truth.argmax())
                    if truth[at]:
                        hit = 1 + at
                        if hit == 1:
                            break
            if hit < checked:
                yield base + hit, True, None
                return
            if fault < size and fault <= switch:
                i = rows[faulted]
                yield base + fault, False, SimulationFault(
                    (base + fault) * dt, names[i], float(data[i, base + fault]))
                return
            if switch < size:
                base += switch
                values = [data.item(i, base) for i in rows]
                span = max(_SPAN, 2 * (base - stretch))
                break
            yield end, False, None
            values = [data.item(i, end) for i in rows]
            base, span = end, 2 * span


def _assemble(named: dict, plan: _Plan, data: np.ndarray, k: int, replayed: tuple) -> None:
    """Bring the entries of ``named`` of the filled signals, and of the
    signals of the stepped rates ``replayed``, up to sample ``k``."""
    item = data.item
    for name, i in zip(plan.filled_names, plan.filled):
        named[name] = item(i, k)
    for name, *_, i in replayed:
        named[name] = item(i, k)


def _close(data: np.ndarray, named: StateMap, names: tuple[str, ...], plan: _Plan,
           first: int, end: int, rates: Sequence[tuple]) -> None:
    """End a stretch of a mode run, samples ``first`` to ``end - 1``, in
    which ``rates`` were stepped.  Their signals' values were written at
    each step; every other signal that is not filled held its value in
    ``named``, which is written now."""
    stepped = [entry[3] for entry in rates]
    for i in plan.free:
        if i not in stepped:
            data[i, first:end] = named[names[i]]


class _Reads(Configuration):
    """The parameters that the stepped rates and opaque guards of one mode
    run look up in ``source``, as a read-only configuration.

    It starts empty, and a name enters on its first lookup, so later
    lookups of it run in C.  A lookup of a name ``source`` lacks, by
    ``[]``, ``get`` or ``in``, enters it in ``absent``.  Whatever reads
    every name, such as iterating, ``len``, ``==`` or ``copy``, copies
    all of ``source`` in and sets ``whole``.
    """

    __slots__ = ("source", "absent", "whole")

    def __init__(self, source: Params):
        dict.__init__(self)
        self.source, self.absent, self.whole = source, set(), False

    def __missing__(self, name: str):
        if name not in self.source:
            self.absent.add(name)
        value = self.source[name]  # an absent name raises as ``source`` does
        dict.__setitem__(self, name, value)
        return value

    def __contains__(self, name) -> bool:
        if name in self.source:
            self[name]
            return True
        self.absent.add(name)
        return False

    def get(self, name: str, default=None):
        return self[name] if name in self else default

    def matches(self, parameters: Params) -> bool:
        """Whether ``parameters`` gives every lookup recorded here the same
        answer: the same bits of each name found, no name found absent,
        and, with ``whole``, no other name."""
        if self.whole and len(parameters) != dict.__len__(self):
            return False
        return (not any(name in parameters for name in self.absent)
                and all(name in parameters and float(parameters[name]).hex() == float(v).hex()
                        for name, v in dict.items(self)))

    def over(self, parameters: Params) -> "_Reads":
        """A record over ``parameters``, which it ``matches``, that starts
        with the lookups recorded here."""
        reads = _Reads(parameters)
        reads.absent, reads.whole = set(self.absent), self.whole
        dict.update(reads, ((name, parameters[name]) for name in dict.keys(self)))
        return reads


def _reading_whole(method):
    def read(self, *args):
        if not self.whole:
            self.whole = True
            dict.update(self, self.source)
        return method(self, *args)
    return read


for _name in ("__iter__", "__reversed__", "__len__", "__eq__", "__ne__", "__or__", "__ror__",
              "keys", "items", "values", "copy"):
    setattr(_Reads, _name, _reading_whole(getattr(dict, _name)))


def simulate(system: HybridSystem, initial_state: Optional[Sequence[float]],
             parameters: Params, dt: float, horizon: float) -> Trace:
    """Run the system over [0, horizon] with fixed step ``dt``.

    Every sample k, t = 0 included, is handled the same way: record the
    state and mode at t = k * dt; fire the first guard of the mode that
    holds on the recorded state, in declaration order, apply its reset
    and switch to its target; stop at the horizon; otherwise take one
    forward-Euler step in which every rate reads the pre-step state.  The
    trace always holds ``round(horizon / dt) + 1`` samples; too many to
    hold raise :class:`ConfigurationError`.  Each event before the
    horizon starts a mode run at the next sample.

    A mode run, from the sample that enters a mode to the next event or
    the horizon, is computed in two parts, split once per mode when the
    system is built.  A signal whose rate declares a form, and that no
    rate or guard called per sample reads, is filled ahead in numpy
    passes (see ``_fill_passes``), and so is the first sample at which a
    guard holds whose condition reads only such signals and signals the
    mode does not rate.  The other rates are stepped in Python, one
    sample at a time, and the other guards called at every sample, up to
    that first sample.  Every guard of the mode is called, in declaration
    order, on the entry sample and on that sample.  A mode that declares
    everything has nothing to step, and one that declares nothing has
    nothing to fill.  Both parts write the same bits as stepping the whole
    state would.  The first non-finite filled value faults only if no
    guard fired before its sample and no stepped signal faulted first;
    at one sample the first signal in signal order faults.

    Each value a stepped rate returns is written into its signal's row of
    the trace at the step that computes it.  After a step that fires no
    guard, a stepped signal has settled when the step left it
    bit-identical (a ``-0.0`` that becomes ``0.0`` counts as a change) and
    every signal it declares it reads has settled too: the greatest such
    set over the mode's read graph, in which a signal the mode does not
    rate has settled.  A settled signal stays bit-identical at every later
    step of the mode run, so it keeps its value and its rate is not called
    again; a guard whose declared reads have all settled was false on the
    same inputs, so it is not called again either.  Both are called again
    from the next event on.  A signal settled or not rated is written once
    per stretch of samples in which it holds.  Once nothing is left to
    step, the run goes on to the next sample the fill decides, or the
    horizon, at once.

    The fill runs ahead of the stepping one pass at a time.  The first
    run with filled signals starts with a pass over the whole trace; each
    later one with a pass twice as long as the last run that filled, and
    each next pass doubles, so a mode whose other guards fire every few
    samples writes a few samples per sample, not a trace per run.  Where
    nothing is stepped and every filled rate is zero, no guard can fire
    before the horizon, and the fill writes up to it at once.

    A system keeps, per mode, the stepped part of a run: the stepped rows
    from the entry sample to the sample at which the run ended, by an
    event or at the horizon.  Its key is whether the entry sample was
    stepped into, the samples left, the bits of ``dt`` and of the entry
    values of the stepped signals and of what they and the opaque guards
    read, and the parameters those callables looked up.  A run with the
    same key writes those rows at once; it calls no stepped rate, and an
    opaque guard only where every guard is called, which it does where
    the kept part ends.  If no guard fires there and the horizon is not
    reached, it calls the opaque guards there again with a record that
    starts with the lookups the kept part recorded, steps on with every
    rate and guard of the mode, records its lookups in it too, and keeps
    the longer stepped part in its place.  This writes what stepping from
    the entry would: the kept values follow from the key and the recorded
    lookups, no opaque guard fired before the kept part ends, and what
    they looked up where it ended, now inside the longer part, is
    recorded as well.  A run from other inputs that goes past its entry
    sample replaces what its mode kept; a run that ends on its entry
    sample or within the kept part, or that faults, leaves it.

    ``initial_state`` may be None, in which case it is built from the
    system's declared initials and the configuration.  A non-finite value
    in the initial state, or produced by a step or a reset, raises
    :class:`SimulationFault`, so a trace holds finite values only.

    ``StateExpr`` and ``Guard`` callables must be pure functions of
    ``(state, params)`` that read only the signals they declare: the
    simulator may call them any number of times, or not at all once those
    signals have settled or when what they compute is filled from
    declared forms and conditions, and their results may depend on
    nothing else, time included.  A callable that reads a signal it does
    not declare may be skipped while that signal moves, and may find a
    stale value for it in the state mapping: a filled signal's entry is
    brought up to date only for the samples at which every guard is
    called and for resets.  A callable must not change the state mapping
    it is given: that mapping is the recorded sample, shared by every
    guard and rate of that sample (at an event, the rates share the reset
    state instead).  A stepped rate or opaque guard may be given, for
    ``params``, a read-only ``Configuration`` that records each name
    looked up in it, found or not; a parameter counts only if it is
    looked up, and iterating reads them all.
    """
    if not (math.isfinite(dt) and math.isfinite(horizon)):
        raise ConfigurationError(f"dt {dt} and horizon {horizon} must be finite")
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ConfigurationError(f"horizon {horizon} must be at least dt {dt}")
    names = system.signal_names
    if initial_state is None:
        state = [float(v) for v in system.initial_state(parameters)]
    else:
        if len(initial_state) != len(names):
            raise ConfigurationError(
                f"initial state has {len(initial_state)} entries, expected {len(names)}")
        state = [float(v) for v in initial_state]
    for name, value in zip(names, state):
        if not math.isfinite(value):
            raise SimulationFault(0.0, name, value)

    steps = horizon / dt
    try:
        n_steps = int(round(steps))
        data = np.empty((len(names), n_steps + 1))  # one row per signal
    except (OverflowError, ValueError, MemoryError):
        raise ConfigurationError(
            f"horizon {horizon} over dt {dt} is {steps:g} steps, too many to hold") from None
    data[:, 0] = state
    cells = [None] * len(names)  # a 1-D view of each row some mode steps
    for i in system._stepped:
        cells[i] = memoryview(data[i])
    plans, runs = system._plans, system._runs
    events: list[TraceEvent] = []
    mode = system.initial_mode
    mode_runs = [(mode, 0)]  # (mode, its first sample)
    copysign, isfinite = math.copysign, math.isfinite
    named = dict(zip(names, state))
    k, stepping = 0, False  # named is sample k, or with stepping the state one step before it
    span = n_steps  # the first filled run's first pass may cover the whole trace
    while True:  # a mode run, from sample k to its event or the horizon
        plan = plans[mode]
        rates, edges = plan.rates, plan.edges
        fill = [named[name] for name in plan.filled_names]
        fault = None  # the first non-finite filled value, at sample limit
        if stepping and fill:
            # the step from the reset state into sample k, as the Python step takes it
            fill = [value + dt * _form_rate(form, value) for form, value in zip(plan.forms, fill)]
            if not all(map(isfinite, fill)):
                fault = next(SimulationFault(k * dt, name, value)
                             for name, value in zip(plan.filled_names, fill)
                             if not isfinite(value))
        passes = None
        if fill:
            for i, value in zip(plan.filled, fill):
                data[i, k] = value
            if fault is None:
                passes = _fill_passes(plan, names, fill, named, parameters, dt, k, n_steps,
                                      data, span)
        start = first = nxt = k  # first: where the current stretch of stepped rates starts
        limit, decided = k, True  # every guard is called on the entry sample
        replayed, end = (), n_steps + 1  # the stepped rates replayed, to sample end
        ahead = None  # what the fill yielded past end, held until the replay ends
        given, used = parameters, None  # what the stepped rates and opaque guards read
        if rates:
            key = (stepping, n_steps - k, float(dt).hex(), *[named[n].hex() for n in plan.keyed])
            run = runs.get(mode)
            if run is not None and run[0] == key and run[1].matches(parameters):
                # the stepped part of a run from these inputs, at once
                end = k + run[2].shape[1] - 1
                data[[i for *_, i in rates], k:end + 1] = run[2]
                replayed, rates, edges = rates, (), ()
            else:
                given = used = _Reads(parameters)
        last = None  # what the last settling saw held; None until one in this mode run
        settling = False  # whether the next step follows a sample that fired no guard
        fired = None
        while True:  # the samples up to limit, the next one the fill decides
            for k in range(nxt, limit + 1):
                if stepping:
                    stepped = named.copy()
                    held = ()  # the stepped signals this step left bit-identical
                    for name, f, _, i in rates:
                        old = named[name]
                        value = old + dt * f(named, given)
                        # false, as in most steps, exactly when the value moved and is finite
                        if value == old or value - value:
                            if not isfinite(value):
                                if (fault is not None and k == limit
                                        and names.index(fault.signal) < names.index(name)):
                                    raise fault
                                raise SimulationFault(k * dt, name, value)
                            if value != 0.0 or copysign(1.0, value) == copysign(1.0, old):
                                held += (name,)
                        stepped[name] = value
                        cells[i][k] = value
                    named = stepped
                    # when the same signals held at the last settling, it settled
                    # none of them, and none settles now either
                    if settling and held != last:
                        last = held
                        moving, edges = _settle(rates, edges, held)
                        if len(moving) < len(rates):
                            _close(data, named, names, plan, first, k + 1, rates)
                            rates, first = moving, k + 1
                            if not rates and k < limit:
                                break  # no guard is left to call before limit
                tried, told = edges, given
                if k == limit:
                    if fault is not None:
                        raise fault
                    if decided:
                        _assemble(named, plan, data, k, replayed)
                        tried, told = plan.guards, parameters
                for guard, predicate, _ in tried:
                    if predicate(named, told):
                        fired = guard
                        break
                if fired is not None:
                    break
                settling = stepping = True
            if fired is not None or k == n_steps:
                break
            if k == limit:
                if k == end:  # no guard fired where the replay ends: step on from there
                    rates, edges, replayed, end = plan.rates, plan.edges, (), n_steps + 1
                    given = used = run[1].over(parameters)
                    for _, predicate, _ in edges:  # so the kept part records what they read here
                        predicate(named, given)
                if ahead:
                    (limit, decided, fault), ahead = ahead, None
                else:
                    limit, decided, fault = next(passes) if passes else (n_steps, False, None)
                if limit > end:  # every guard is called where the replay ends
                    ahead, fault = (limit, decided, fault), None
                if limit >= end:
                    limit, decided = end, True
                nxt = k + 1
            if not rates:
                # nothing to step, and no guard left that reads what moves:
                # go on to limit at once
                nxt, stepping, edges = limit, False, ()

        if fired is not None and (k != limit or not decided):
            _assemble(named, plan, data, k, replayed)  # the reset reads every signal
        _close(data, named, names, plan, first, k + 1, rates or replayed)
        if used is not None and k > start:  # stepped past its entry, or past a replay's end
            runs[mode] = (key, used, data[[i for *_, i in plan.rates], start:k + 1])
        if fired is None:
            break
        if passes is not None and k > start:
            span = 2 * (k - start)
        events.append(TraceEvent(k * dt, fired.label, mode, fired.target))
        named = _apply_reset(system, fired, named, parameters, k * dt)
        mode = fired.target
        if k == n_steps:
            break  # an event at the horizon starts no run
        k, stepping = k + 1, True
        mode_runs.append((mode, k))

    return Trace(mode_runs, dict(zip(names, data)), events, dt, n_steps + 1)

# ---------------------------------------------------------------------------
# Trace serialization (JSON lines)
# ---------------------------------------------------------------------------

def _json_texts(values, before: str = "", after: str = "") -> Union[str, list[str]]:
    """The text ``json.dumps`` writes of each value, between ``before``
    and ``after``, or that text alone if all values have the same bits.
    A run of bit-equal consecutive values, such as a held signal or a
    stationary tail, is formatted once, and one take by run number gives
    each value its run's text.  Bits keep ``-0.0`` apart from ``0.0``."""
    column = np.asarray(values, dtype=float)
    bits = column.view(np.int64)
    change = np.concatenate(([True], bits[1:] != bits[:-1]))[:bits.size]  # run starts
    texts = json.dumps(column[change].tolist())[1:-1].split(", ")
    if before or after:
        texts = [before + text + after for text in texts]
    if len(texts) == 1:
        return texts[0]
    return np.array(texts, dtype=object)[np.cumsum(change) - 1].tolist()


@lru_cache(maxsize=1)
def _time_texts(n: int, dt_hex: str) -> Union[str, list[str]]:
    """The text that ends each of ``n`` sample lines, from ``"t"`` on, at
    the step whose ``float.hex`` is ``dt_hex``, as ``_json_texts`` gives
    it, shared and never changed; a campaign's traces share both, and
    the hex key keeps ``-0.0`` apart from ``0.0``."""
    return _json_texts(np.arange(n) * float.fromhex(dt_hex), '}, "t": ', "}\n")


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize: a header line, one line per sample, then one per event.

    Every line is the ``json.dumps(..., sort_keys=True)`` text of one
    object.  The header holds ``dt``, ``modes`` (in order of first
    appearance) and ``signals`` (in trace order).  A sample line is
    ``{"mode": m, "signals": {name: value, ...}, "t": t}`` with the
    signals sorted by name, and an event line is
    ``{"event": {"from": ..., "guard": ..., "t": ..., "to": ...}}``.
    Floats are written as Python's ``repr`` (``NaN``/``Infinity`` if not
    finite), so equal traces give byte-identical text.

    Sample lines are pieces of one list, joined once with the header and
    the event lines.  Text that every line shares (the mode of a one-mode
    trace, the keys, a column of one run of values) is folded into one
    piece before each column that varies and before the times, and each
    varying column of modes, values or times goes into every
    ``stride``-th slot.  The time texts are reused while consecutive
    traces have the same length and bits of ``dt``.  This writes the same
    bytes as one ``json.dumps`` per sample.
    """
    n = len(trace)
    seen = list(dict.fromkeys(mode for mode, _ in trace.mode_runs))
    header = json.dumps({"dt": trace.dt, "signals": list(trace.signals),
                         "modes": seen}, sort_keys=True)
    runs = trace.mode_runs if len(seen) > 1 else trace.mode_runs[:1]
    modes = ['{"mode": ' + json.dumps(mode) + ', "signals": {' for mode, _ in runs]
    pieces, fixed = [], modes[0]  # shared texts and columns of a line; shared text to place
    if len(runs) > 1:
        number = np.repeat(np.arange(len(runs)), np.diff([first for _, first in runs], append=n))
        pieces, fixed = [np.array(modes, dtype=object)[number].tolist()], ""
    for i, name in enumerate(sorted(trace.signals)):
        fixed += (", " if i else "") + json.dumps(name) + ": "
        texts = _json_texts(trace.signals[name])
        if isinstance(texts, str):
            fixed += texts
        else:
            pieces += [fixed, texts]
            fixed = ""
    if fixed:
        pieces.append(fixed)
    pieces.append(_time_texts(n, float(trace.dt).hex()))
    stride = len(pieces)
    parts = [None] * (1 + n * stride)
    parts[0] = header + "\n"
    for j, piece in enumerate(pieces):
        parts[1 + j::stride] = [piece] * n if isinstance(piece, str) else piece
    parts.extend(json.dumps({"event": {
        "t": ev.time, "guard": ev.guard, "from": ev.source, "to": ev.target,
    }}, sort_keys=True) + "\n" for ev in trace.events)
    return "".join(parts)


def write_trace_jsonl(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_jsonl(trace))
