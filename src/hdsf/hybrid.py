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
not, reads a signal it lacks.

Integration is explicit forward Euler with a fixed step ``dt``, and a
trace's sample k is at ``k * dt``; every rate reads the pre-step state.
Guards are evaluated on every recorded sample, the initial one included,
in declaration order; the first guard whose predicate holds fires.  The
recorded sample at an event time carries the pre-transition state and
mode, so a trace always shows the state the guard actually tested.
Every run ends at the horizon; a mode with no guards and no rates holds
its state until then.

Dynamics, guard and reset callables are pure functions of ``(state,
params)`` that read only the signals they declare, and may be called any
number of times or not at all.  A signal settles in a step that fires no
guard when the step leaves it bit-identical and every signal it reads
has settled too; a signal the mode does not rate has settled.  A settled
signal keeps its value without its rate being called, and a guard that
reads only settled signals is not called either, until the next event
starts a new mode run.  Once every signal has settled, the rest of the
run repeats the last sample.  So a callable that reads a signal it does
not declare may be skipped while that signal moves.  A callable must not
change the state mapping it is given: that mapping is the recorded
sample, shared by every guard and rate of that sample.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ProjectionError, SimulationFault

StateMap = Mapping[str, float]
Params = Mapping[str, float]


@dataclass(frozen=True)
class StateExpr:
    """A scalar function of the named state and configuration.

    ``reads`` declares exactly which signals ``func`` consults.  The
    reduction machinery trusts this declaration, and so does the
    simulator: it stops calling ``func`` once those signals have settled.
    """

    func: Callable[[StateMap, Params], float]
    reads: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Guard:
    """One edge out of a mode: when ``predicate`` holds, apply ``reset``
    and switch to ``target``.

    ``reset`` maps signal names to new-value expressions, which read the
    pre-transition state; signals without an entry carry over unchanged.
    ``reads`` declares the signals ``predicate`` consults.
    """

    label: str
    predicate: Callable[[StateMap, Params], bool]
    target: str
    reset: Mapping[str, StateExpr] = field(default_factory=dict)
    reads: frozenset[str] = frozenset()


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
    immutable after construction.
    """

    signal_names: tuple[str, ...]
    dynamics: dict[str, dict[str, StateExpr]]
    guards: dict[str, tuple[Guard, ...]]
    initial_mode: str
    initials: dict[str, Union[float, str]] = field(default_factory=dict)

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
    """Uniformly sampled execution: per-sample modes and signal arrays; sample k is at k * dt."""

    modes: list[str]
    signals: dict[str, np.ndarray]
    events: list[TraceEvent]
    dt: float

    def __len__(self) -> int:
        return len(self.modes)


def project_trace(trace: Trace, signals: Sequence[str]) -> Trace:
    """Restrict the signal map to ``signals``; modes, events, dt unchanged."""
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

    ``rates`` and ``edges`` are the ``(name, func, reads)`` and ``(guard,
    predicate, reads)`` entries still called in this mode run, and ``held``
    names the signals whose rate the step called and that stayed
    bit-identical.  A signal moves if its rate was called and it changed,
    or if it reads a signal that moves; every other signal has settled.
    A guard stays only while it reads a signal that moves.
    """
    moving = {name for name, _, _ in rates}.difference(held)
    waiting = [(name, reads) for name, _, reads in rates if name not in moving]
    while stuck := {name for name, reads in waiting if not reads.isdisjoint(moving)}:
        moving |= stuck
        waiting = [entry for entry in waiting if entry[0] not in stuck]
    return ([entry for entry in rates if entry[0] in moving],
            [entry for entry in edges if not entry[2].isdisjoint(moving)])


_BLOCK = 256  # recorded samples held as dicts before they move into the flat array


def simulate(system: HybridSystem, initial_state: Optional[Sequence[float]],
             parameters: Params, dt: float, horizon: float) -> Trace:
    """Run the system over [0, horizon] with fixed step ``dt``.

    Every sample k, t = 0 included, is handled the same way: record the
    state and mode at t = k * dt; fire the first guard of the mode that
    holds on the recorded state, in declaration order, apply its reset
    and switch to its target; stop at the horizon; otherwise take one
    forward-Euler step in which every rate reads the pre-step state.  The
    trace always holds ``round(horizon / dt) + 1`` samples; too many to
    hold raise :class:`ConfigurationError`.

    After a step that fires no guard, a rated signal has settled when the
    step left it bit-identical (a ``-0.0`` that becomes ``0.0`` counts as
    a change) and every signal it declares it reads has settled too: the
    greatest such set over the mode's read graph, in which a signal the
    mode does not rate has settled.  A settled signal stays bit-identical
    at every later step of the mode run, so it keeps its value and its
    rate is not called again; a guard whose declared reads have all
    settled was false on the same inputs, so it is not called again
    either.  Both are called again from the next event on.  Once every
    signal has settled, every remaining sample repeats the last one in
    the same mode, with no further event, so they are filled in at once.

    ``initial_state`` may be None, in which case it is built from the
    system's declared initials and the configuration.  A non-finite value
    in the initial state, or produced by a step or a reset, raises
    :class:`SimulationFault`, so a trace holds finite values only.

    ``StateExpr`` and ``Guard`` callables must be pure functions of
    ``(state, params)`` that read only the signals they declare: the
    simulator may call them any number of times, or not at all once those
    signals have settled, and their results may depend on nothing else,
    time included.  A callable that reads a signal it does not declare
    may be skipped while that signal moves.  A callable must not change
    the state mapping it is given: that mapping is the recorded sample,
    shared by every guard and rate of that sample (at an event, the rates
    share the reset state instead).
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
    rates = {mode: [(name, dyn[name].func, dyn[name].reads) for name in names if name in dyn]
             for mode, dyn in system.dynamics.items()}
    edges = {mode: [(guard, guard.predicate, guard.reads) for guard in guards]
             for mode, guards in system.guards.items()}

    steps = horizon / dt
    try:
        n_steps = int(round(steps))
        data = np.empty((len(names), n_steps + 1))  # one row per signal
    except (OverflowError, ValueError, MemoryError):
        raise ConfigurationError(
            f"horizon {horizon} over dt {dt} is {steps:g} steps, too many to hold") from None
    samples = array("d")  # the recorded states, one after another
    block: list[dict[str, float]] = []  # the latest recorded states, not yet in samples
    record = block.append
    events: list[TraceEvent] = []
    mode = system.initial_mode
    mode_runs = [(mode, 0)]  # (mode, its first sample)
    # the rates and guards of the mode still called: those of signals not settled
    mode_edges, mode_rates = edges[mode], rates[mode]
    last = None  # what the last settling saw held; None until one in this mode run
    copysign, isfinite = math.copysign, math.isfinite
    named = dict(zip(names, state))
    pause = min(_BLOCK, n_steps)  # the next sample at which a block moves, or the last
    for k in range(n_steps + 1):
        record(named)
        fired = False
        for guard, predicate, _ in mode_edges:
            if predicate(named, parameters):
                t = k * dt
                events.append(TraceEvent(t, guard.label, mode, guard.target))
                named = _apply_reset(system, guard, named, parameters, t)
                mode = guard.target
                mode_runs.append((mode, k + 1))
                mode_edges, mode_rates = edges[mode], rates[mode]
                fired, last = True, None
                break
        if k == pause:
            if k == n_steps:
                break
            samples.extend(chain.from_iterable(map(dict.values, block)))
            block.clear()
            pause = min(k + _BLOCK, n_steps)
        stepped = named.copy()
        held = ()  # the rated signals this step left bit-identical
        for name, f, _ in mode_rates:
            old = named[name]
            value = old + dt * f(named, parameters)
            # false, as in most steps, exactly when the value moved and is finite
            if value == old or value - value:
                if not isfinite(value):
                    raise SimulationFault((k + 1) * dt, name, value)
                if value != 0.0 or copysign(1.0, value) == copysign(1.0, old):
                    held += (name,)
            stepped[name] = value
        named = stepped
        # when the same signals held at the last settling, it settled none
        # of them, and none settles now either
        if not fired and held != last:
            last = held
            mode_rates, mode_edges = _settle(mode_rates, mode_edges, held)
            if not mode_rates:
                # every signal has settled and no guard is left: every
                # later sample repeats this one
                break

    samples.extend(chain.from_iterable(map(dict.values, block)))
    recorded = k + 1
    data[:, :recorded] = np.frombuffer(samples, dtype=float).reshape(recorded, len(names)).T
    data[:, recorded:] = np.array(list(named.values()))[:, None]
    ends = [first for _, first in mode_runs[1:]] + [n_steps + 1]
    modes = list(chain.from_iterable(repeat(m, end - first)
                                     for (m, first), end in zip(mode_runs, ends)))
    return Trace(modes=modes, signals=dict(zip(names, data)), events=events, dt=dt)

# ---------------------------------------------------------------------------
# Trace serialization (JSON lines)
# ---------------------------------------------------------------------------

def _json_floats(values) -> list[str]:
    """JSON text of each value, exactly as ``json.dumps`` writes a float.

    Held signals and stationary tails repeat one value for long runs, so
    each run of bit-equal consecutive values is formatted once and its
    text repeated; comparing bits, not values, keeps ``-0.0`` apart from
    ``0.0``.  An empty column gives ``[]``.
    """
    column = np.asarray(values, dtype=float)
    if not column.size:
        return []
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    counts = np.diff(starts, append=column.size).tolist()
    heads = json.dumps(column[starts].tolist())[1:-1].split(", ")
    return list(chain.from_iterable(map(repeat, heads, counts)))


@lru_cache(maxsize=1)
def _time_texts(n: int, dt_hex: str) -> tuple[str, ...]:
    """The text that ends each of ``n`` sample lines, from ``"t"`` on, at
    the step whose ``float.hex`` is ``dt_hex``; a campaign's traces share
    both, and the hex key keeps ``-0.0`` apart from ``0.0``."""
    return tuple('}, "t": ' + text + "}\n"
                 for text in _json_floats(np.arange(n) * float.fromhex(dt_hex)))


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
    the event lines: each column's texts go into every ``stride``-th
    slot, between the fixed text of the keys.  The time texts are reused
    while consecutive traces have the same length and bits of ``dt``.
    This writes the same bytes as one ``json.dumps`` per sample.
    """
    seen = list(dict.fromkeys(trace.modes))
    header = json.dumps({"dt": trace.dt, "signals": list(trace.signals),
                         "modes": seen}, sort_keys=True)
    n = len(trace)
    names = sorted(trace.signals)
    keys = [json.dumps(name) + ": " for name in names]
    opening = ', "signals": {' + (keys[0] if keys else "")
    mode_text = {m: '{"mode": ' + json.dumps(m) + opening for m in seen}
    # a sample line's pieces in order: its mode and the first key, then
    # each value with the next key between values, then the time
    columns = [list(map(mode_text.__getitem__, trace.modes))]
    for i, name in enumerate(names):
        if i:
            columns.append([", " + keys[i]] * n)
        columns.append(_json_floats(trace.signals[name]))
    columns.append(_time_texts(n, float(trace.dt).hex()))
    stride = len(columns)
    parts = [None] * (1 + n * stride)
    parts[0] = header + "\n"
    for j, column in enumerate(columns):
        parts[1 + j::stride] = column
    parts.extend(json.dumps({"event": {
        "t": ev.time, "guard": ev.guard, "from": ev.source, "to": ev.target,
    }}, sort_keys=True) + "\n" for ev in trace.events)
    return "".join(parts)


def write_trace_jsonl(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_jsonl(trace))
