"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the criterion FAILED.
"""

import time

import numpy as np

from hdsf.cli import main
from hdsf.condensation import (LinearSystem, Partition, condense, reassemble,
                               reconstruct_internal, solve_condensed)
from hdsf.drone import (ControllerVariant, DroneParams, build_full_system,
                        build_surrogate_system, conformance_check,
                        default_config_space, phi_for, timing_comparison)
from hdsf.falsify import campaign, generate, run_trial
from hdsf.reduction import build_surrogate, relevant_modes, relevant_signals
from hdsf.stl import _values

from oracles import (buggy_violation_predicate, naive_verdict, random_formula,
                     random_trace)

BUGGY = ControllerVariant.BUGGY
PATCHED = ControllerVariant.PATCHED


def report(criterion: str, message: str) -> None:
    print(f"\n[{criterion}] PASS - {message}")


def test_c1_reference_example_run(capsys):
    started = time.perf_counter()
    code = main(["run", "--battery", "10.0", "--altitude", "20"])
    out = capsys.readouterr().out
    assert code == 1
    assert "Parachute: NOT DEPLOYED" in out
    assert "Status: BLOCKED - Critical battery but altitude out of deployment range" in out
    assert "- Min deploy altitude: 60.0m" in out
    assert "- Max deploy altitude: 80.0m" in out
    assert "- Low battery threshold: 10.0%" in out

    code = main(["run", "--battery", "10.0", "--altitude", "20",
                 "--variant", "patched"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Parachute: DEPLOYED" in out
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report("C1", f"reference run blocked on buggy, deployed on patched "
                     f"({elapsed:.2f}s < 1s)")


def test_c2_patched_zero_violations_and_predicate_equivalence(capsys):
    params = DroneParams()
    patched = build_surrogate_system(params, PATCHED)
    for seed in (7, 123, 9001):
        summary, violations = campaign(
            patched, phi_for, patched.parameter_space, 200,
            dt=params.dt, horizon=params.horizon, seed=seed)
        assert summary.total_runs == 200
        assert summary.unique_violations == 0, f"seed {seed}"
        assert violations == []

    buggy = build_surrogate_system(params, BUGGY)
    rng = np.random.default_rng(20240501)
    false_pos = false_neg = 0
    n_violated = 0
    for _ in range(1000):
        config = generate(buggy.parameter_space, rng)
        verdict, _ = run_trial(buggy, config, phi_for, params.dt, params.horizon)
        expected = buggy_violation_predicate(config, params.cruise_drain,
                                             params.dt, params.horizon)
        if verdict.violated and not expected:
            false_pos += 1
        if expected and not verdict.violated:
            false_neg += 1
        n_violated += verdict.violated
    assert false_pos == 0 and false_neg == 0
    with capsys.disabled():
        report("C2", "patched campaigns (3 seeds x 200 runs) found 0 violations; "
                     f"buggy verdicts matched the analytic predicate on 1000 configs "
                     f"({n_violated} positives, 0 FP, 0 FN)")


def test_c3_conformance(capsys):
    params = DroneParams()
    space = default_config_space(params)
    rng = np.random.default_rng(33)
    configs = [generate(space, rng) for _ in range(100)]
    started = time.perf_counter()
    for variant in (BUGGY, PATCHED):
        rep = conformance_check(params, variant, configs, params.dt, params.horizon)
        assert rep.faults == []
        assert len(rep.pairs) == 100
        assert rep.agreement == 1.0, f"{variant}: {rep.agreement}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        report("C3", f"100 configs, both variants: 100% verdict agreement "
                     f"({elapsed:.1f}s < 60s)")


def test_c4_speedup(capsys):
    params = DroneParams()
    space = default_config_space(params)
    rng = np.random.default_rng(44)
    configs = [generate(space, rng) for _ in range(50)]
    rep = timing_comparison(params, configs, params.dt, params.horizon)
    assert rep.surrogate_seconds <= rep.full_seconds / 10.0, \
        f"speedup only {rep.speedup:.1f}x"

    surrogate = build_surrogate_system(params, BUGGY)
    worst = 0.0
    for config in configs:
        t0 = time.perf_counter()
        run_trial(surrogate, config, phi_for, params.dt, params.horizon)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 0.5, f"slowest surrogate trial {1000 * worst:.0f}ms"
    with capsys.disabled():
        report("C4", f"speedup {rep.speedup:.1f}x (>= 10x); slowest surrogate "
                     f"trial {1000 * worst:.0f}ms (< 500ms)")


def test_c5_static_condensation(capsys):
    started = time.perf_counter()
    system = LinearSystem(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))
    partition = Partition((0,), (1,))
    cs = condense(system, partition)
    u_p = solve_condensed(cs)
    u_i = reconstruct_internal(cs, system, u_p)
    assert abs(u_p[0] - 1.0 / 11.0) <= 1e-15 * abs(1.0 / 11.0)
    assert abs(u_i[0] - 7.0 / 11.0) <= 1e-15 * abs(7.0 / 11.0)

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        basis = rng.standard_normal((n, n))
        sys_n = LinearSystem(basis @ basis.T + n * np.eye(n), rng.standard_normal(n))
        k = int(rng.integers(0, n + 1))
        perm = rng.permutation(n)
        part = Partition(tuple(int(v) for v in perm[:k]),
                         tuple(int(v) for v in perm[k:]))
        cs_n = condense(sys_n, part)
        u_pn = solve_condensed(cs_n)
        u_in = reconstruct_internal(cs_n, sys_n, u_pn)
        full = np.linalg.solve(sys_n.K, sys_n.F)
        rel = (np.linalg.norm(reassemble(part, u_pn, u_in) - full)
               / max(1.0, np.linalg.norm(full)))
        worst = max(worst, rel)
    assert worst <= 1e-8, f"worst relative error {worst:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        report("C5", f"2x2 example exact to machine precision; 200 random SPD "
                     f"systems worst relative error {worst:.1e} <= 1e-8 "
                     f"({elapsed:.1f}s < 10s)")


def test_c6_stl_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    agree = 0
    for _ in range(1000):
        trace = random_trace(rng, max_len=50)
        formula = random_formula(rng, 4, trace.dt)
        fast = int(_values(formula, trace, {})[0])
        agree += fast == naive_verdict(formula, trace, {})
    assert agree == 1000, f"only {agree}/1000 agreed"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        report("C6", f"1000/1000 agreement with the naive quantifier-expansion "
                     f"evaluator ({elapsed:.1f}s < 10s)")


def test_c7_reduction_structure(capsys):
    params = DroneParams()
    full = build_full_system(params, BUGGY)
    phi = phi_for

    signals = relevant_signals(phi, full)
    assert signals == {"battery", "altitude", "deployed_flag"}
    rep = relevant_modes(full, signals, entry_mode="GOTO")
    assert rep.modes_kept == {"GOTO", "PARACHUTE"}

    # idempotence: reducing the reduced system changes nothing
    once = build_surrogate(full, phi, entry_mode="GOTO")
    twice = build_surrogate(once.system, phi)
    assert twice.system.structure_summary() == once.system.structure_summary()

    # monotonicity: enlarging the signal closure never shrinks the mode set
    for extra in ({"x"}, {"x", "y"}, {"x", "y", "vx", "vy", "vz"}):
        larger = relevant_modes(full, frozenset(signals | extra), entry_mode="GOTO")
        assert rep.modes_kept <= larger.modes_kept
    with capsys.disabled():
        report("C7", "Q_phi = {GOTO, PARACHUTE}, projection "
                     "{battery, altitude, deployed_flag}; idempotence and "
                     "monotonicity hold")


def test_c8_fuzz_determinism(capsys, tmp_path):
    args = ["fuzz", "--variant", "buggy", "--runs", "200", "--seed", "7"]
    assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "second")]) == 0
    capsys.readouterr()
    for name in ("summary.json", "violations.jsonl", "margins.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between reruns"
    with capsys.disabled():
        report("C8", "two 200-run fuzz invocations produced byte-identical "
                     "summary, violation log, and margins CSV")
