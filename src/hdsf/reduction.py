"""Property-guided reduction of hybrid systems.

Given a system and a property, this module computes which signals the
property can observe or influence, prunes the mode graph down to the
modes that matter for those signals, and assembles an executable reduced
system over the projected state.

The relevance analysis is a syntactic dependency closure over the
dependency sets declared by dynamics, guards, and resets:

  * the signals named by the property's atoms are relevant;
  * whatever the rate of a relevant signal reads is relevant;
  * whatever a reset expression writing a relevant signal reads is
    relevant, and so is whatever the guard triggering that reset reads.

Mode pruning walks the mode graph whose edges are the guards that only
read relevant signals.  Its anchors are the modes that write a relevant
signal or guard on one, and it keeps

    reachable from the entry mode  ∩  can reach an anchor,

so a kept mode either is an anchor or lies on an execution path toward
one.  Both sets are one reachability search each, forward from the entry
and backward from the anchors.  This is one conservative instantiation
of property relevance; the resulting reduced system is validated against
the full system empirically (per-configuration verdict agreement), not
by proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

from .config import ConfigSpace
from .errors import ReductionError, SpecificationError
from .hybrid import HybridSystem, StateExpr
from .stl import StlFormula, atom_signals


@dataclass
class RelevanceReport:
    """Which modes, guards, and signals survived the reduction, and why."""

    modes_kept: frozenset[str]
    modes_dropped: frozenset[str]
    guards_kept: dict[str, tuple[str, ...]]
    signals_kept: frozenset[str]
    reasons: dict[str, str]
    entry_mode: str

    def to_json(self) -> str:
        return json.dumps({
            "entry_mode": self.entry_mode,
            "modes_kept": sorted(self.modes_kept),
            "modes_dropped": sorted(self.modes_dropped),
            "guards_kept": {m: list(v) for m, v in sorted(self.guards_kept.items())},
            "signals_kept": sorted(self.signals_kept),
            "reasons": dict(sorted(self.reasons.items())),
        }, indent=2, sort_keys=True)


@dataclass
class ReducedSystem:
    """Executable reduced system plus its audit report and parameter space."""

    system: HybridSystem
    report: RelevanceReport
    parameter_space: Optional[ConfigSpace] = None


def reach(start: Iterable[str], step: Mapping[str, Iterable[str]]) -> set[str]:
    """``start`` and every node reachable from it along ``step``'s edges."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        for nxt in step[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def relevant_signals(formula: StlFormula, system: HybridSystem) -> frozenset[str]:
    """Dependency closure of the signals the property references."""
    atoms = atom_signals(formula)
    unknown = atoms - set(system.signal_names)
    if unknown:
        raise SpecificationError(
            f"property references unknown signals {sorted(unknown)}; "
            f"system signals: {list(system.signal_names)}")
    reads_of: dict[str, set[str]] = {sig: set() for sig in system.signal_names}
    for mode, rates in system.dynamics.items():
        for sig, expr in rates.items():
            reads_of[sig] |= expr.reads
        for g in system.guards[mode]:
            for sig, expr in g.reset.items():
                reads_of[sig] |= expr.reads | g.reads
    return frozenset(reach(atoms, reads_of))


def relevant_modes(system: HybridSystem, signals: frozenset[str],
                   entry_mode: Optional[str] = None) -> RelevanceReport:
    """Prune the mode graph to the modes that matter for ``signals``."""
    if not signals:
        raise SpecificationError("relevance analysis needs a nonempty signal set")
    entry = entry_mode or system.initial_mode
    names = list(system.dynamics)
    if entry not in names:
        raise ReductionError(f"entry mode {entry!r} is not a mode of the system")

    # the edges of the pruned mode graph: guards that read only relevant signals
    edges = {m: [g for g in system.guards[m] if g.reads <= signals] for m in names}
    targets = {m: [g.target for g in guards] for m, guards in edges.items()}
    predecessors = {m: [p for p in names if m in targets[p]] for m in names}

    def why(mode: str) -> list[str]:
        """What makes ``mode`` an anchor of the reduction; empty if nothing."""
        because = []
        if (signals.intersection(system.dynamics[mode])
                or any(signals.intersection(g.reset) for g in system.guards[mode])):
            because.append("writes a relevant signal")
        if any(g.reads & signals for g in edges[mode]):
            because.append("guards on a relevant signal")
        return because

    # keep a reachable mode when an anchor is still ahead of it, so execution
    # paths toward the property's modes stay intact while irrelevant tails
    # fall away
    reachable = reach([entry], targets)
    kept = reachable & reach([m for m in reachable if why(m)], predecessors)
    if entry not in kept:
        raise ReductionError(
            f"reduction would drop the entry mode {entry!r}; "
            "the property cannot be scoped to this entry")

    guards_kept = {}
    reasons: dict[str, str] = {}
    for mode in names:
        if mode not in reachable:
            reasons[f"mode:{mode}"] = "dropped: unreachable from entry over relevant guards"
            continue
        if mode not in kept:
            reasons[f"mode:{mode}"] = ("dropped: touches no relevant signal and "
                                       "is not between relevant modes")
            continue
        guards_kept[mode] = tuple(g.label for g in edges[mode] if g.target in kept)
        because = why(mode) or ["lies on an execution path to a relevant mode"]
        reasons[f"mode:{mode}"] = "kept: " + ", ".join(because)
        for g in system.guards[mode]:
            if not g.reads <= signals:
                reasons[f"guard:{mode}:{g.label}"] = (
                    f"dropped: reads irrelevant signals {sorted(g.reads - signals)}")
            elif g.target not in kept:
                reasons[f"guard:{mode}:{g.label}"] = f"dropped: target {g.target} was dropped"

    return RelevanceReport(
        modes_kept=frozenset(kept),
        modes_dropped=frozenset(set(names) - kept),
        guards_kept=guards_kept,
        signals_kept=frozenset(signals),
        reasons=reasons,
        entry_mode=entry,
    )


def build_surrogate(system: HybridSystem, formula: StlFormula,
                    condensed_dynamics: Optional[Mapping[str, Mapping[str, StateExpr]]] = None,
                    entry_mode: Optional[str] = None) -> ReducedSystem:
    """Assemble the executable reduced system for ``formula``.

    A kept mode's rates are ``condensed_dynamics[mode]`` where that key is
    given, otherwise its original rates for the kept signals; resets keep
    their writes of kept signals.  The dependency closure already holds
    every read of what is kept, so this is plain filtering; building the
    reduced :class:`HybridSystem` rejects a condensed rate that rates or
    reads a dropped signal.  The result has no parameter space; which
    parameters a search varies is the caller's choice.
    """
    signals = relevant_signals(formula, system)
    report = relevant_modes(system, signals, entry_mode=entry_mode)
    kept_order = tuple(s for s in system.signal_names if s in signals)
    condensed = condensed_dynamics or {}

    def kept(exprs: Mapping[str, StateExpr]) -> dict[str, StateExpr]:
        return {sig: expr for sig, expr in exprs.items() if sig in signals}

    modes = [m for m in system.dynamics if m in report.modes_kept]
    reduced = HybridSystem(
        signal_names=kept_order,
        dynamics={m: condensed[m] if m in condensed else kept(system.dynamics[m])
                  for m in modes},
        guards={m: tuple(replace(g, reset=kept(g.reset)) for g in system.guards[m]
                         if g.label in report.guards_kept[m])
                for m in modes},
        initial_mode=report.entry_mode,
        initials={sig: system.initials.get(sig, 0.0) for sig in kept_order},
    )
    return ReducedSystem(system=reduced, report=report)
