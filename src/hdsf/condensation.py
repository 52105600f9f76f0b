"""Static condensation of discretized linear systems.

Reduces a dense linear system K U = F to its interface degrees of
freedom by eliminating the internal block through the Schur complement:

    K~ = K_pp - K_pi K_ii^-1 K_ip
    F~ = F_p  - K_pi K_ii^-1 F_i
    U_i = K_ii^-1 (F_i - K_ip U_p)

The condensation solves K_ii against K_ip and F_i together, in one LU
solve; the internal block is kept, and the reconstruction of internal
state solves with it again.  Storage is dense and solves are direct;
the block models clients condense (see the case study's descent
dynamics) are small by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CondensationError, ConfigurationError, SolveError

# Largest condition estimate of the internal block that condense accepts.
COND_THRESHOLD = 1e12


@dataclass
class LinearSystem:
    """Dense system K U = F."""

    K: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        if self.K.ndim != 2 or self.K.shape[0] != self.K.shape[1]:
            raise ConfigurationError(f"K must be square, got shape {self.K.shape}")
        if self.F.shape != (self.K.shape[0],):
            raise ConfigurationError(
                f"F has shape {self.F.shape}, expected ({self.K.shape[0]},)")
        if self.K.shape[0] < 1:
            raise ConfigurationError("system must have at least one unknown")

    @property
    def size(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class Partition:
    """Split of 0..N-1 into interface (p) and internal (i) index lists."""

    interface_indices: tuple[int, ...]
    internal_indices: tuple[int, ...]

    def __post_init__(self):
        p, i = set(self.interface_indices), set(self.internal_indices)
        if len(p) != len(self.interface_indices) or len(i) != len(self.internal_indices):
            raise ConfigurationError("partition contains repeated indices")
        if p & i:
            raise ConfigurationError(f"partition groups overlap: {sorted(p & i)}")
        n = len(p) + len(i)
        if (p | i) != set(range(n)):
            raise ConfigurationError("partition must cover 0..N-1 exactly")

    @property
    def size(self) -> int:
        return len(self.interface_indices) + len(self.internal_indices)


@dataclass
class CondensedSystem:
    """Interface-reduced operators plus the internal block K_ii, which
    ``reconstruct_internal`` solves with (None when there is no internal
    set)."""

    k_tilde: np.ndarray
    f_tilde: np.ndarray
    partition: Partition
    internal_block: Optional[np.ndarray] = None

    @property
    def interface_size(self) -> int:
        return len(self.partition.interface_indices)


def condense(system: LinearSystem, partition: Partition) -> CondensedSystem:
    """Eliminate the internal block of ``system`` under ``partition``.

    Raises CondensationError when the internal block is singular or its
    condition estimate exceeds ``COND_THRESHOLD``.
    """
    if partition.size != system.size:
        raise ConfigurationError(
            f"partition covers {partition.size} dofs, system has {system.size}")
    p = list(partition.interface_indices)
    i = list(partition.internal_indices)
    if not i:
        return CondensedSystem(system.K[np.ix_(p, p)].copy(), system.F[p].copy(), partition)

    K_pp = system.K[np.ix_(p, p)]
    K_pi = system.K[np.ix_(p, i)]
    K_ip = system.K[np.ix_(i, p)]
    K_ii = system.K[np.ix_(i, i)]
    cond = np.linalg.cond(K_ii)
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise CondensationError(
            f"internal block K_ii ({len(i)}x{len(i)}) is singular or ill-conditioned "
            f"(condition estimate {cond:.3e} > {COND_THRESHOLD:.3e})")
    solved = np.linalg.solve(K_ii, np.column_stack((K_ip, system.F[i])))
    k_tilde = K_pp - K_pi @ solved[:, :-1]
    f_tilde = system.F[p] - K_pi @ solved[:, -1]
    return CondensedSystem(k_tilde, f_tilde, partition, internal_block=K_ii)


def solve_condensed(cs: CondensedSystem) -> np.ndarray:
    """Solve K~ U_p = F~ for the interface unknowns."""
    if cs.interface_size == 0:
        return np.zeros(0)
    try:
        u_p = np.linalg.solve(cs.k_tilde, cs.f_tilde)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"condensed interface matrix is singular: {exc}") from exc
    residual = np.linalg.norm(cs.k_tilde @ u_p - cs.f_tilde)
    bound = 1e-10 * (1.0 + np.linalg.norm(cs.f_tilde))
    if residual > bound:
        raise SolveError(
            f"condensed solve residual {residual:.3e} exceeds bound {bound:.3e}")
    return u_p


def reconstruct_internal(cs: CondensedSystem, system: LinearSystem,
                         u_p: np.ndarray) -> np.ndarray:
    """Recover the internal unknowns from the interface solution."""
    p = list(cs.partition.interface_indices)
    i = list(cs.partition.internal_indices)
    if len(u_p) != len(p):
        raise ConfigurationError(
            f"interface vector has {len(u_p)} entries, expected {len(p)}")
    if not i:
        return np.zeros(0)
    K_ip = system.K[np.ix_(i, p)]
    return np.linalg.solve(cs.internal_block, system.F[i] - K_ip @ u_p)


def reassemble(partition: Partition, u_p: np.ndarray, u_i: np.ndarray) -> np.ndarray:
    """Merge interface and internal solutions back into original index order."""
    full = np.zeros(partition.size)
    full[list(partition.interface_indices)] = u_p
    full[list(partition.internal_indices)] = u_i
    return full

