"""Schur-complement condensation against the full dense solve."""

import numpy as np
import pytest

from hdsf.condensation import (CondensedSystem, LinearSystem, Partition, condense,
                               reassemble, reconstruct_internal, solve_condensed)
from hdsf.drone import (DRONE_INTERFACE_PARTITION, ControllerVariant, DroneParams,
                        build_full_system, clamped_rate, condensed_drone_descent,
                        drone_block_system)
from hdsf.errors import CondensationError, ConfigurationError
from oracles import lu_condensation


def random_spd_system(rng, n):
    basis = rng.standard_normal((n, n))
    K = basis @ basis.T + n * np.eye(n)
    F = rng.standard_normal(n)
    return LinearSystem(K, F)


def random_nonsymmetric_system(rng, n):
    """Nonsymmetric and strictly diagonally dominant, so well conditioned."""
    K = rng.standard_normal((n, n))
    K += np.diag(np.abs(K).sum(axis=1) + 1.0) * rng.choice((-1.0, 1.0), n)
    return LinearSystem(K, rng.standard_normal(n))


def random_partition(rng, n, k=None):
    if k is None:
        k = int(rng.integers(0, n + 1))
    perm = rng.permutation(n)
    return Partition(tuple(int(v) for v in perm[:k]),
                     tuple(int(v) for v in perm[k:]))


class TestHandExample:
    """K = [[4,1],[1,3]], F = [1,2], interface {0}: K~ = 11/3, F~ = 1/3,
    U = (1/11, 7/11)."""

    def setup_method(self):
        self.system = LinearSystem(np.array([[4.0, 1.0], [1.0, 3.0]]),
                                   np.array([1.0, 2.0]))
        self.partition = Partition((0,), (1,))

    def test_condensed_operators(self):
        cs = condense(self.system, self.partition)
        assert cs.k_tilde[0, 0] == pytest.approx(11.0 / 3.0, rel=1e-15)
        assert cs.f_tilde[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_interface_solution(self):
        cs = condense(self.system, self.partition)
        u_p = solve_condensed(cs)
        assert u_p[0] == pytest.approx(1.0 / 11.0, rel=1e-15)

    def test_internal_reconstruction(self):
        cs = condense(self.system, self.partition)
        u_p = solve_condensed(cs)
        u_i = reconstruct_internal(cs, self.system, u_p)
        assert u_i[0] == pytest.approx(7.0 / 11.0, rel=1e-15)

    def test_against_full_dense_solve(self):
        cs = condense(self.system, self.partition)
        u_p = solve_condensed(cs)
        u_i = reconstruct_internal(cs, self.system, u_p)
        full = np.linalg.solve(self.system.K, self.system.F)
        assert reassemble(self.partition, u_p, u_i) == pytest.approx(full, rel=1e-14)


class TestTrivialCases:
    def test_empty_internal_is_identity(self):
        rng = np.random.default_rng(5)
        system = random_spd_system(rng, 4)
        partition = Partition((0, 1, 2, 3), ())
        cs = condense(system, partition)
        assert np.array_equal(cs.k_tilde, system.K)
        assert np.array_equal(cs.f_tilde, system.F)
        assert reconstruct_internal(cs, system, solve_condensed(cs)).size == 0

    def test_identity_condensed_system(self):
        cs = CondensedSystem(np.eye(3), np.array([1.0, 2.0, 3.0]),
                             Partition((0, 1, 2), ()))
        assert np.array_equal(solve_condensed(cs), [1.0, 2.0, 3.0])


class TestDenseSolveOracle:
    def test_spd_10x10_interface_first_three(self):
        rng = np.random.default_rng(17)
        system = random_spd_system(rng, 10)
        partition = Partition(tuple(range(3)), tuple(range(3, 10)))
        cs = condense(system, partition)
        u_p = solve_condensed(cs)
        full = np.linalg.solve(system.K, system.F)
        assert np.linalg.norm(u_p - full[:3]) <= 1e-10 * np.linalg.norm(full[:3])
        u_i = reconstruct_internal(cs, system, u_p)
        rebuilt = reassemble(partition, u_p, u_i)
        assert np.linalg.norm(rebuilt - full) <= 1e-9 * np.linalg.norm(full)

    def test_200_random_systems(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(2, 201))
            system = random_spd_system(rng, n)
            partition = random_partition(rng, n)
            cs = condense(system, partition)
            u_p = solve_condensed(cs)
            u_i = reconstruct_internal(cs, system, u_p)
            rebuilt = reassemble(partition, u_p, u_i)
            full = np.linalg.solve(system.K, system.F)
            assert np.linalg.norm(rebuilt - full) <= 1e-8 * max(1.0, np.linalg.norm(full))


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300)


class TestLuReference:
    """condense and reconstruct_internal against the once-factored LU of
    K_ii (``oracles.lu_condensation``), the path they replaced."""

    @pytest.mark.parametrize("make_system", [random_spd_system, random_nonsymmetric_system])
    def test_random_systems_and_partitions(self, make_system):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n = int(rng.integers(1, 41))
            # every tenth trial has no interface, every tenth no internal set
            k = {0: 0, 1: n}.get(trial % 10)
            system = make_system(rng, n)
            partition = random_partition(rng, n, k)
            k_ref, f_ref, reconstruct_ref = lu_condensation(
                system.K, system.F, partition.interface_indices, partition.internal_indices)
            cs = condense(system, partition)
            assert cs.k_tilde.shape == k_ref.shape and cs.f_tilde.shape == f_ref.shape
            assert relative_error(cs.k_tilde, k_ref) <= 1e-12
            assert relative_error(cs.f_tilde, f_ref) <= 1e-12
            u_p = rng.standard_normal(len(partition.interface_indices))
            u_i_ref = reconstruct_ref(u_p)
            u_i = reconstruct_internal(cs, system, u_p)
            assert u_i.shape == u_i_ref.shape
            assert relative_error(u_i, u_i_ref) <= 1e-12

    def test_condensed_drone_rates_bits(self):
        """The surrogate's rates, bit for bit as the LU path produced them."""
        params = DroneParams(cruise_drain=0.73, descent_rate=2.9)
        state = {"altitude": 50.0, "battery": 80.0}
        expected = {"GOTO": ("-0x1.75c28f5c28f5cp-1", "0x0.0p+0"),
                    "PARACHUTE": ("0x0.0p+0", "-0x1.7333333333333p+1")}
        for mode, bits in expected.items():
            dyn = condensed_drone_descent(params, mode)
            rates = tuple(dyn[sig].func(state, {}).hex() for sig in ("battery", "altitude"))
            assert rates == bits, mode


class TestStructuralProperties:
    def test_symmetry_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            system = random_spd_system(rng, n)
            partition = random_partition(rng, n)
            cs = condense(system, partition)
            if cs.k_tilde.size:
                assert np.max(np.abs(cs.k_tilde - cs.k_tilde.T)) <= 1e-12

    def test_internal_permutation_invariance(self):
        rng = np.random.default_rng(29)
        system = random_spd_system(rng, 12)
        interface = (0, 5, 7)
        internal = tuple(i for i in range(12) if i not in interface)
        base = condense(system, Partition(interface, internal))
        u_base = solve_condensed(base)
        for _ in range(5):
            shuffled = tuple(int(v) for v in rng.permutation(internal))
            cs = condense(system, Partition(interface, shuffled))
            assert np.max(np.abs(cs.k_tilde - base.k_tilde)) <= 1e-12
            assert np.max(np.abs(cs.f_tilde - base.f_tilde)) <= 1e-12
            assert np.max(np.abs(solve_condensed(cs) - u_base)) <= 1e-12

    def test_singular_internal_block_rejected(self):
        K = np.eye(3)
        K[2, 2] = 0.0
        system = LinearSystem(K, np.ones(3))
        with pytest.raises(CondensationError, match="K_ii"):
            condense(system, Partition((0, 1), (2,)))

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            Partition((0, 1), (1, 2))
        with pytest.raises(ConfigurationError):
            Partition((0,), (2,))


class TestCondensedDroneDescent:
    def test_goto_rates_match_parameters_exactly(self):
        params = DroneParams()
        dyn = condensed_drone_descent(params, "GOTO")
        state = {"altitude": 50.0, "battery": 80.0, "deployed_flag": 0.0}
        assert dyn["battery"].func(state, {}) == -params.cruise_drain
        assert dyn["altitude"].func(state, {}) == 0.0

    def test_descent_rates_match_parameters_exactly(self):
        params = DroneParams()
        dyn = condensed_drone_descent(params, "PARACHUTE")
        state = {"altitude": 50.0, "battery": 80.0, "deployed_flag": 0.0}
        assert dyn["battery"].func(state, {}) == 0.0
        assert dyn["altitude"].func(state, {}) == -params.descent_rate

    def test_zero_drain_gives_zero_battery_rate(self):
        params = DroneParams(cruise_drain=0.0)
        dyn = condensed_drone_descent(params, "GOTO")
        state = {"altitude": 50.0, "battery": 80.0, "deployed_flag": 0.0}
        assert dyn["battery"].func(state, {}) == 0.0

    def test_matches_full_model_fields_on_grid(self):
        """Condensed per-mode rates equal the full model's projected rates."""
        params = DroneParams(cruise_drain=0.73, descent_rate=2.9)
        full = build_full_system(params, ControllerVariant.BUGGY)
        for mode in ("GOTO", "PARACHUTE"):
            condensed = condensed_drone_descent(params, mode)
            full_dyn = full.dynamics[mode]
            for altitude in (0.0, 5.0, 20.0, 70.0, 150.0):
                for battery in (0.0, 5.0, 50.0, 100.0):
                    state = {"x": 1.0, "y": 2.0, "altitude": altitude,
                             "vx": 0.0, "vy": 0.0, "vz": 0.0,
                             "battery": battery, "deployed_flag": 0.0}
                    for sig in ("battery", "altitude"):
                        expr = full_dyn.get(sig)
                        full_rate = expr.func(state, {}) if expr else 0.0
                        cond_rate = condensed[sig].func(state, {})
                        assert cond_rate == pytest.approx(full_rate, abs=1e-9)

    def test_clamps(self):
        assert clamped_rate(10.0, -3.0) == -3.0
        assert clamped_rate(0.0, -3.0) == 0.0
        assert clamped_rate(-0.1, -3.0) == 0.0
        assert clamped_rate(0.0, 2.0) == 2.0

    def test_block_model_uses_the_interface_partition(self):
        params = DroneParams()
        system = drone_block_system("GOTO", params)
        assert system.size == 4
        assert DRONE_INTERFACE_PARTITION.interface_indices == (0, 1)
        # coupling off-diagonals are present, so the Schur step is load-bearing
        cs = condense(system, DRONE_INTERFACE_PARTITION)
        assert not np.array_equal(cs.k_tilde, system.K[:2, :2])
