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

Mode pruning then keeps the modes reachable from the analysis entry mode
through guards that only read relevant signals, provided they write a
relevant signal, guard on one, or lie on an execution path toward a mode
that does.  This is one conservative instantiation of property
relevance; the resulting reduced system is validated against the full
system empirically (per-configuration verdict agreement), not by proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional

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


def relevant_signals(formula: StlFormula, system: HybridSystem) -> frozenset[str]:
    """Dependency closure of the signals the property references."""
    atoms = atom_signals(formula)
    unknown = atoms - set(system.signal_names)
    if unknown:
        raise SpecificationError(
            f"property references unknown signals {sorted(unknown)}; "
            f"system signals: {list(system.signal_names)}")
    closure = set(atoms)
    changed = True
    while changed:
        changed = False
        for mode, rates in system.dynamics.items():
            for sig, expr in rates.items():
                if sig in closure and not expr.reads <= closure:
                    closure |= expr.reads
                    changed = True
            for g in system.guards[mode]:
                written = [expr for sig, expr in g.reset.items() if sig in closure]
                if written:
                    reads = g.reads.union(*(expr.reads for expr in written))
                    if not reads <= closure:
                        closure |= reads
                        changed = True
    return frozenset(closure)


def relevant_modes(system: HybridSystem, signals: frozenset[str],
                   entry_mode: Optional[str] = None) -> RelevanceReport:
    """Prune the mode graph to the modes that matter for ``signals``."""
    if not signals:
        raise SpecificationError("relevance analysis needs a nonempty signal set")
    entry = entry_mode or system.initial_mode
    names = list(system.dynamics)
    if entry not in names:
        raise ReductionError(f"entry mode {entry!r} is not a mode of the system")

    def ok_guards(mode: str):
        return [g for g in system.guards[mode] if g.reads <= signals]

    # reachability from the entry over guards that survive the signal filter
    reachable: set[str] = set()
    frontier = [entry]
    while frontier:
        mode = frontier.pop()
        if mode in reachable:
            continue
        reachable.add(mode)
        for g in ok_guards(mode):
            frontier.append(g.target)

    def writes_kept(mode: str) -> bool:
        if any(sig in signals for sig in system.dynamics[mode]):
            return True
        return any(set(g.reset) & signals for g in system.guards[mode])

    def guards_on_kept(mode: str) -> bool:
        return any(g.reads & signals for g in ok_guards(mode))

    anchors = {m for m in reachable if writes_kept(m) or guards_on_kept(m)}

    # every reachable mode lies on a path from the entry; keep it when an
    # anchor is still ahead of it, so execution paths toward the property's
    # modes stay intact while irrelevant tails fall away
    pred: dict[str, list[str]] = {m: [] for m in reachable}
    for m in reachable:
        for g in ok_guards(m):
            if g.target in pred:
                pred[g.target].append(m)
    can_reach_anchor = set(anchors)
    frontier = list(anchors)
    while frontier:
        mode = frontier.pop()
        for prev in pred[mode]:
            if prev not in can_reach_anchor:
                can_reach_anchor.add(prev)
                frontier.append(prev)

    kept = anchors | can_reach_anchor
    if entry not in kept:
        raise ReductionError(
            f"reduction would drop the entry mode {entry!r}; "
            "the property cannot be scoped to this entry")

    guards_kept = {}
    reasons: dict[str, str] = {}
    for mode in names:
        if mode in kept:
            labels = tuple(g.label for g in ok_guards(mode) if g.target in kept)
            guards_kept[mode] = labels
            why = []
            if writes_kept(mode):
                why.append("writes a relevant signal")
            if guards_on_kept(mode):
                why.append("guards on a relevant signal")
            if not why:
                why.append("lies on an execution path to a relevant mode")
            reasons[f"mode:{mode}"] = "kept: " + ", ".join(why)
        else:
            if mode not in reachable:
                reasons[f"mode:{mode}"] = ("dropped: unreachable from entry "
                                           "over relevant guards")
            else:
                reasons[f"mode:{mode}"] = ("dropped: touches no relevant signal and "
                                           "is not between relevant modes")
        for g in system.guards[mode]:
            if mode not in kept:
                continue
            if g.label not in guards_kept[mode]:
                if not g.reads <= signals:
                    reasons[f"guard:{mode}:{g.label}"] = (
                        f"dropped: reads irrelevant signals {sorted(g.reads - signals)}")
                else:
                    reasons[f"guard:{mode}:{g.label}"] = (
                        f"dropped: target {g.target} was dropped")

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
