"""Configurations and the constrained parameter spaces they are drawn from.

A configuration is a read-only dict of named finite real parameters; a
configuration space gives closed bounds per parameter plus strict
ordering constraints between parameter pairs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Mapping

from .errors import ConfigurationError, MissingParameterError, SpaceError


def _read_only(self, *args, **kwargs):
    raise TypeError("Configuration is read-only")


class Configuration(dict[str, float]):
    """Named finite real parameters: a read-only dict, so looking up a present
    name runs in C.  ``Configuration(values, **updates)`` merges as ``dict``
    does and coerces each value with ``float``; a missing name raises
    :class:`MissingParameterError`."""

    __slots__ = ()

    def __init__(self, values: Mapping[str, float] = {}, /, **updates: float):
        clean = {}
        for name, value in dict(values, **updates).items():
            v = float(value)
            if not math.isfinite(v):
                raise ConfigurationError(f"parameter {name!r} is not finite: {value!r}")
            clean[name] = v
        super().__init__(clean)

    def __missing__(self, name: str):
        raise MissingParameterError(
            f"configuration has no parameter {name!r}; available: {sorted(self)}")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # pickle and copy rebuild from the values; a dict's default would
        # set them one by one, which a read-only configuration refuses
        return Configuration, (dict(self),)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.items()))
        return f"Configuration({inner})"


@dataclass(frozen=True)
class ConfigSpace:
    """Closed per-parameter bounds plus strict ordering constraints.

    ``orderings`` lists (low, high) parameter-name pairs that every
    configuration must satisfy as low < high.  The constraint graph must
    be acyclic, and a cycle raises :class:`SpaceError` naming it, as in
    ``b < c < a < b``.  The feasible region must be nonempty.
    ``feasible_bounds`` holds the bounds tightened along the orderings in
    one topological pass each way: lower bounds pushed forward and upper
    bounds backward, so every configuration in the space lies inside
    them.
    """

    bounds: Mapping[str, tuple[float, float]]
    orderings: tuple[tuple[str, str], ...] = ()
    rng_seed: int = 0
    feasible_bounds: Mapping[str, tuple[float, float]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bounds",
                           {k: (float(lo), float(hi)) for k, (lo, hi) in self.bounds.items()})
        for name, (lo, hi) in self.bounds.items():
            # a width past the float range is unbounded too: no draw can span it
            if not math.isfinite(hi - lo) or lo > hi:
                raise SpaceError(f"parameter {name!r} has empty or unbounded interval [{lo}, {hi}]")
        graph = TopologicalSorter()
        for a, b in self.orderings:
            if a not in self.bounds or b not in self.bounds:
                raise SpaceError(f"ordering {a} < {b} references unknown parameters")
            graph.add(b, a)
        try:
            rank = {name: i for i, name in enumerate(graph.static_order())}
        except CycleError as exc:
            raise SpaceError("ordering constraints contain a cycle: "
                             + " < ".join(exc.args[1])) from None
        # one pass pushes lower bounds forward along the orderings, taking
        # each edge after every edge into its source; one pass pushes upper
        # bounds backward; then each strict a < b is feasible iff lo_a < hi_b
        lo = {name: bound[0] for name, bound in self.bounds.items()}
        hi = {name: bound[1] for name, bound in self.bounds.items()}
        for a, b in sorted(self.orderings, key=lambda pair: rank[pair[0]]):
            lo[b] = max(lo[b], lo[a])
        for a, b in sorted(self.orderings, key=lambda pair: rank[pair[1]], reverse=True):
            hi[a] = min(hi[a], hi[b])
        for a, b in self.orderings:
            if not lo[a] < hi[b]:
                raise SpaceError(f"constraint {a} < {b} infeasible: along the "
                                 f"orderings {a} >= {lo[a]} but {b} <= {hi[b]}")
        object.__setattr__(self, "feasible_bounds",
                           {name: (lo[name], hi[name]) for name in self.bounds})

    def contains(self, config: Configuration) -> bool:
        for name, (lo, hi) in self.bounds.items():
            if name not in config:
                return False
            if not (lo <= config[name] <= hi):
                return False
        return all(config[a] < config[b] for a, b in self.orderings)

    @classmethod
    def from_json(cls, text: str) -> "ConfigSpace":
        """Space from a JSON object with two keys: ``bounds`` maps each
        name to a ``[low, high]`` pair of finite JSON numbers, and the
        optional ``orderings`` is a list of ``[low, high]`` name pairs.  Any
        other key, a bound that is a boolean, a string, NaN or out of the
        float range, and malformed or wrongly shaped input raise
        :class:`SpaceError`.  A campaign takes its seed
        from its caller, so a space file holds none.
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpaceError(f"space is not valid JSON: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("bounds"), dict):
            raise SpaceError("space must be a JSON object with a 'bounds' object")
        unknown = sorted(set(data) - {"bounds", "orderings"})
        if unknown:
            raise SpaceError(f"space has unknown keys {unknown}; "
                             "known keys: ['bounds', 'orderings']")
        for name, pair in data["bounds"].items():
            # float() would take a boolean or a string as a number, and
            # overflow on an integer past the float range
            if not (isinstance(pair, list) and len(pair) == 2 and all(
                    type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pair)):
                raise SpaceError(f"bounds of {name!r} must be a [low, high] pair of "
                                 f"finite numbers, got {json.dumps(pair)}")
        try:
            return cls(
                bounds=data["bounds"],
                orderings=tuple(tuple(pair) for pair in data.get("orderings", [])),
            )
        except (TypeError, ValueError) as exc:
            raise SpaceError(f"malformed space: {exc}") from None
