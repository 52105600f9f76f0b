"""Pinned outputs of the reduction and of the ordering-bound propagation.

The digests below were recorded from the code before the reduction's
graph searches and the space's cycle check and bound propagation were
rewritten over one reachability routine and one topological order.  They
cover the whole observable result of a reduction: the report as JSON,
the order of its ``reasons`` and ``guards_kept``, and the reduced
system's structure, or the error a case raises.  ``feasible_bounds`` is
checked against a brute-force oracle instead of a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from hdsf.config import ConfigSpace
from hdsf.drone import ControllerVariant, DroneParams, build_full_system, phi_for
from hdsf.errors import HdsfError, SpaceError
from hdsf.hybrid import Guard, HybridSystem, StateExpr
from hdsf.reduction import build_surrogate
from hdsf.stl import And, Atom, Globally

# both variants x every entry mode x three properties, in that loop order;
# re-recorded when the emergency guard became a condition: the patched
# guard reads only the battery, so for G(battery >= 5) it is an edge whose
# target is dropped rather than a guard on an irrelevant signal
DRONE_DIGEST = "d9462e9ae4891948519d95f511289ebe76672d2c204b309a1e0f8523c7ddf27e"
# 200 seeded random systems with resets
RANDOM_DIGEST = "360c63935e2e431ea76904d6d8a62f395e68a9155cb2ac191d365c18353d6d3b"


def outcome(system: HybridSystem, formula, entry) -> str:
    """Everything a reduction shows, or the error it raises, as text."""
    try:
        reduced = build_surrogate(system, formula, entry_mode=entry)
    except HdsfError as exc:
        return f"{type(exc).__name__}: {exc}\n"
    report = reduced.report
    return "\n".join([
        report.to_json(),
        json.dumps(list(report.reasons)),
        json.dumps(list(report.guards_kept.items())),
        json.dumps(reduced.system.structure_summary()),
    ]) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_drone_reductions_pinned():
    properties = (phi_for,
                  Globally(Atom("battery", ">=", 5.0)),
                  Globally(Atom("altitude", ">=", 0.0)))
    text = ""
    for variant in ControllerVariant:
        full = build_full_system(DroneParams(), variant)
        for entry in full.dynamics:
            for formula in properties:
                text += outcome(full, formula, entry)
    assert text.count("ReductionError") > 0
    assert sha256(text) == DRONE_DIGEST


def _zero(s, p):
    return 0.0


def _never(s, p):
    return False


def random_case(rng):
    """A random system over five signals whose guards carry resets, a
    property over one or two of its signals, and an entry mode or None."""
    names = ("a", "b", "c", "d", "e")
    modes = [f"M{i}" for i in range(int(rng.integers(1, 8)))]

    def reads(p):
        return frozenset(s for s in names if rng.random() < p)

    def exprs(p):
        return {s: StateExpr(_zero, reads=reads(0.3)) for s in names if rng.random() < p}

    # sparse rates and guard reads, so that some kept modes only lie on a
    # path to a relevant one and some guards lose their target
    dynamics = {m: exprs(0.2) for m in modes}
    guards = {m: tuple(Guard(f"g{k}", _never, modes[int(rng.integers(len(modes)))],
                             reset=exprs(0.15), reads=reads(0.1))
                       for k in range(int(rng.integers(0, 4))))
              for m in modes}
    system = HybridSystem(signal_names=names, dynamics=dynamics, guards=guards,
                          initial_mode=modes[0])
    atoms = [Atom(str(s), ">", 0.0)
             for s in rng.choice(names, size=int(rng.integers(1, 3)), replace=False)]
    formula = Globally(atoms[0] if len(atoms) == 1 else And(*atoms))
    entry = None if rng.random() < 0.3 else modes[int(rng.integers(len(modes)))]
    return system, formula, entry


def test_random_reductions_pinned():
    text = "".join(outcome(*random_case(np.random.default_rng(seed)))
                   for seed in range(200))
    for reason in ("lies on an execution path", "dropped: target",
                   "is not between relevant modes", "ReductionError"):
        assert text.count(reason) >= 10, reason
    assert sha256(text) == RANDOM_DIGEST


def oracle_bounds(bounds, orderings):
    """Feasible bounds by brute force: a name's lower bound is the largest
    over it and its ancestors, its upper bound the smallest over it and its
    descendants.  Returns "cycle" or "infeasible" where the space is empty."""
    succ = {name: {b for a, b in orderings if a == name} for name in bounds}
    below = {}
    for name in bounds:
        seen, stack = set(), [name]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        below[name] = seen
    if any(name in below[name] for name in bounds):
        return "cycle"
    lo = {n: max(bounds[m][0] for m in bounds if m == n or n in below[m]) for n in bounds}
    hi = {n: min(bounds[m][1] for m in {n} | below[n]) for n in bounds}
    if any(not lo[a] < hi[b] for a, b in orderings):
        return "infeasible"
    return {n: (lo[n], hi[n]) for n in bounds}


def random_space(rng):
    names = [f"p{i}" for i in range(int(rng.integers(1, 7)))]
    bounds = {}
    for name in names:
        lo = float(rng.integers(0, 10))
        bounds[name] = (lo, lo + float(rng.integers(0, 10)))
    # half the spaces order names only forward, so they are acyclic
    forward = rng.random() < 0.5
    orderings = []
    for _ in range(int(rng.integers(0, 2 * len(names) + 1))):
        i, j = (int(k) for k in rng.integers(len(names), size=2))
        if forward and i >= j:
            continue
        orderings.append((names[i], names[j]))
    return bounds, tuple(orderings)


def test_feasible_bounds_match_brute_force():
    kinds = {"cycle": 0, "infeasible": 0, "feasible": 0}
    self_loops = 0
    for seed in range(2000):
        bounds, orderings = random_space(np.random.default_rng(seed))
        self_loops += any(a == b for a, b in orderings)
        expected = oracle_bounds(bounds, orderings)
        if isinstance(expected, str):
            kinds[expected] += 1
            with pytest.raises(SpaceError, match=expected):
                ConfigSpace(bounds=bounds, orderings=orderings)
        else:
            kinds["feasible"] += 1
            assert ConfigSpace(bounds=bounds, orderings=orderings).feasible_bounds == expected
    assert min(kinds.values()) >= 200 and self_loops >= 100, (kinds, self_loops)
