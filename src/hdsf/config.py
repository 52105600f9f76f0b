"""Configurations and the constrained parameter spaces they are drawn from.

A configuration is an immutable mapping of named real parameters; a
configuration space gives closed bounds per parameter plus strict
ordering constraints between parameter pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import ConfigurationError, MissingParameterError, SpaceError


class Configuration(Mapping[str, float]):
    """Immutable named real-valued parameter vector."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float]):
        clean = {}
        for name, value in values.items():
            v = float(value)
            if not math.isfinite(v):
                raise ConfigurationError(f"parameter {name!r} is not finite: {value!r}")
            clean[name] = v
        object.__setattr__(self, "_values", clean)

    def __getitem__(self, name: str) -> float:
        try:
            return self._values[name]
        except KeyError:
            raise MissingParameterError(
                f"configuration has no parameter {name!r}; "
                f"available: {sorted(self._values)}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __reduce__(self):
        return Configuration, (self._values,)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({inner})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._values.items())))

    def replacing(self, **updates: float) -> "Configuration":
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(merged)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)


@dataclass(frozen=True)
class ConfigSpace:
    """Closed per-parameter bounds plus strict ordering constraints.

    ``orderings`` lists (low, high) parameter-name pairs that every
    configuration must satisfy as low < high.  The constraint graph must
    be acyclic and the feasible region nonempty.  ``feasible_bounds``
    holds the bounds tightened along the orderings: lower bounds pushed
    forward and upper bounds backward, so every configuration in the
    space lies inside them.
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
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise SpaceError(f"parameter {name!r} has empty or unbounded interval [{lo}, {hi}]")
        for a, b in self.orderings:
            if a not in self.bounds or b not in self.bounds:
                raise SpaceError(f"ordering {a} < {b} references unknown parameters")
        self._check_acyclic()
        object.__setattr__(self, "feasible_bounds", self._propagate_bounds())

    def _check_acyclic(self):
        succ: dict[str, list[str]] = {}
        for a, b in self.orderings:
            succ.setdefault(a, []).append(b)
        state: dict[str, int] = {}

        def visit(node):
            state[node] = 1
            for nxt in succ.get(node, []):
                if state.get(nxt) == 1:
                    raise SpaceError(f"ordering constraints contain a cycle through {nxt!r}")
                if state.get(nxt) is None:
                    visit(nxt)
            state[node] = 2

        for node in list(succ):
            if state.get(node) is None:
                visit(node)

    def _propagate_bounds(self) -> dict[str, tuple[float, float]]:
        # propagate lower bounds forward and upper bounds backward along the
        # ordering DAG; then each strict a < b is feasible iff lo_a < hi_b
        lo = {name: bound[0] for name, bound in self.bounds.items()}
        hi = {name: bound[1] for name, bound in self.bounds.items()}
        changed = True
        while changed:
            changed = False
            for a, b in self.orderings:
                if lo[a] > lo[b]:
                    lo[b], changed = lo[a], True
                if hi[b] < hi[a]:
                    hi[a], changed = hi[b], True
        for a, b in self.orderings:
            if not lo[a] < hi[b]:
                raise SpaceError(f"constraint {a} < {b} infeasible: along the "
                                 f"orderings {a} >= {lo[a]} but {b} <= {hi[b]}")
        return {name: (lo[name], hi[name]) for name in self.bounds}

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
        name to a ``[low, high]`` pair, and the optional ``orderings`` is a
        list of ``[low, high]`` name pairs.  Any other key, malformed or
        wrongly shaped input raises :class:`SpaceError`.  A campaign takes
        its seed from its caller, so a space file holds none.
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
        try:
            return cls(
                bounds={k: tuple(v) for k, v in data["bounds"].items()},
                orderings=tuple(tuple(pair) for pair in data.get("orderings", [])),
            )
        except (TypeError, ValueError) as exc:
            raise SpaceError(f"malformed space: {exc}") from None
