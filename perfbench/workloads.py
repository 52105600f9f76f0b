"""The hdsf benchmark: workloads, the measuring loop and the metrics.

Each workload is a closed loop with one caller: the benchmark makes one
call into hdsf's public API (a falsification campaign or a conformance
check), waits for it, checks its output outside the timed region, and
repeats until ``--seconds`` have been measured.  The seed's work is split
into ``CHUNKS`` distinct calls (campaigns with their own seeds, or slices of
the sampled configurations), run in a cycle, so that one run measures many
short calls over much more input than one call holds.  Inputs come from
``--seed`` only.

The host's speed drifts by a fifth or more over tens of seconds, so each
timed call is bracketed by a fixed reference kernel that does not touch
hdsf (``reference_kernel``) and its time is scaled by how slow the
reference ran around it, relative to ``REF_NOMINAL_S``.  ``trials_per_s``
is the trials of one cycle over the sum, across chunks, of each chunk's
median scaled time: trials per second at the reference's nominal speed.
The unscaled figure and every call's times are in the record line.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from hdsf import condensation, drone, falsify, hybrid
from hdsf.drone import (ControllerVariant, DroneParams, build_surrogate_system,
                        conformance_check, default_config_space, phi_for)
from hdsf.falsify import campaign, generate

from tracer import INFO, Layers, Tracer, ratio, stationary_tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
ARTIFACTS = ("summary.json", "violations.jsonl", "margins.csv")
SETUP_PROBES = 5

WHY = {
    "fuzz-buggy": "hdsf fuzz on the buggy surrogate, 8 campaigns of 50 runs: most "
                  "trials violate, so trace serialisation, artifact writing and dedup "
                  "dominate",
    "fuzz-patched": "the same campaigns on the patched surrogate: no violations, so "
                    "surrogate simulate is ~90% of a trial; STL is <=8% here and on "
                    "every workload",
    "conformance": "full 8-signal model plus surrogate on 200 sampled configurations at "
                   "the trace step: read-only, embarrassingly parallel, few stationary "
                   "tails",
}

# Work done by one timed call (campaign runs, or conformance configurations),
# and the number of distinct calls in a cycle.
SIZE = {"fuzz-buggy": 50, "fuzz-patched": 50, "conformance": 25}
TINY_SIZE = {"fuzz-buggy": 8, "fuzz-patched": 8, "conformance": 2}
CHUNKS, TINY_CHUNKS = 8, 2

# About the reference kernel's time on a 2-vCPU Intel Xeon host when it runs
# fast; any fixed value serves, since only ratios between commits matter.
REF_NOMINAL_S = 0.05

# Per-layer metric -> (unit, the end-to-end metric it should move, and where).
# Seconds and counts are per traced timed call (one campaign or one
# conformance check of a chunk); set-up layers are per call of that layer;
# violations and artifact_mb are per cycle (every chunk once).
PER_LAYER = {
    "hybrid.simulate.us_per_sample": ("us", "trials_per_s, mostly fuzz-patched and conformance"),
    "hybrid.samples": ("count", "trials_per_s, mostly fuzz-patched and conformance"),
    "hybrid.simulate.full.us_per_sample": ("us", "trials_per_s on conformance"),
    "hybrid.simulate.surrogate.us_per_sample": ("us", "trials_per_s on all workloads"),
    "hybrid.stationary_tail_frac": ("ratio", "trials_per_s (what a tail-skip saves)"),
    "hybrid.trace_to_jsonl.s": ("s", "trials_per_s and artifact_mb on fuzz-buggy"),
    "hybrid.trace_to_jsonl.us_per_sample": ("us", "trials_per_s on fuzz-buggy"),
    "hybrid.write_trace_jsonl.self_s": ("s", "trials_per_s on fuzz-buggy"),
    "stl.evaluate.us_per_sample": ("us", "trials_per_s on all workloads (never dominant)"),
    "stl.evaluate.calls": ("count", "trials_per_s on all workloads"),
    "stl.truncated": ("count", "trials_per_s on all workloads"),
    "falsify.run_trial.p50_ms": ("ms", "trials_per_s on fuzz-*"),
    "falsify.run_trial.p99_ms": ("ms", "trials_per_s on fuzz-*"),
    "falsify.run_trial.calls": ("count", "sample count of the run_trial percentiles"),
    "falsify.run_trial.self_s": ("s", "trials_per_s on fuzz-*"),
    "falsify.resim_frac": ("ratio", "trials_per_s on all workloads"),
    "falsify.mutated_frac": ("ratio", "trials_per_s on fuzz-*"),
    "falsify.generate.s": ("s", "trials_per_s on fuzz-*"),
    "falsify.mutate.s": ("s", "trials_per_s on fuzz-*"),
    "falsify.raw_violations": ("count", "artifact_mb and peak_rss_mb on fuzz-buggy"),
    "falsify.unique_violations": ("count", "artifact_mb and peak_rss_mb on fuzz-buggy"),
    "falsify.unique_frac": ("ratio", "artifact_mb and peak_rss_mb on fuzz-buggy"),
    "margins.compute_margins.us_per_call": ("us", "trials_per_s on fuzz-*"),
    "falsify.write_margins_csv.s": ("s", "trials_per_s on fuzz-*"),
    "drone.run_trial.full.s": ("s", "trials_per_s on conformance"),
    "drone.run_trial.surrogate.s": ("s", "trials_per_s on conformance"),
    "drone.full_over_surrogate": ("ratio", "trials_per_s on conformance"),
    "reduction.build_surrogate.s": ("s", "setup_s"),
    "condensation.condense.s": ("s", "setup_s"),
    "condensation.condense.calls": ("count", "setup_s"),
    "condensation.solve_condensed.s": ("s", "setup_s"),
    "artifact_mb": ("MB", "peak_rss_mb and trials_per_s on fuzz-buggy"),
    "failed_frac": ("ratio", "every metric: a failed trial or check voids the run"),
    "trials_per_s.untraced": ("1/s", "trials_per_s, from the untraced repeats of this run"),
    "trials_per_s.traced": ("1/s", "trials_per_s, with every span recorded"),
    "trace.overhead_frac": ("ratio", "none: untraced over traced trials_per_s, minus 1"),
}


# ---------------------------------------------------------------------------
# Workloads: set-up, the timed call, and the output check
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one timed call produced, reduced to what the checks need."""

    trials: int
    faulted: int
    failures: list[str]
    digest: str
    key: int  # the chunk; outcomes of one chunk must have the same digest
    artifact_bytes: int = 0
    raw_violations: int = 0
    unique_violations: int = 0


class Campaign:
    """``hdsf fuzz``: a falsification campaign that writes its artifacts."""

    def __init__(self, variant: ControllerVariant, seed: int, runs: int, chunks: int):
        self.variant = variant
        self.runs = runs
        self.params = DroneParams()
        self.surrogate = build_surrogate_system(self.params, variant, rng_seed=seed)
        self.space = self.surrogate.parameter_space
        # one campaign seed per chunk
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(chunks)]

    def call(self, key: int, work_dir: Path):
        p = self.params
        return campaign(self.surrogate, phi_for, self.space, self.runs,
                        dt=p.dt, horizon=p.horizon, seed=self.seeds[key], out_dir=work_dir)

    def outcome(self, key: int, result, work_dir: Path) -> Outcome:
        summary, _ = result
        with open(work_dir / "margins.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        raw = sum(r["verdict"] == "Violated" for r in rows)
        failures = []
        if self.variant is ControllerVariant.BUGGY:
            predicate = _oracles().buggy_violation_predicate
            p = self.params
            wrong = [r["trial"] for r in rows
                     if predicate({k: float(r[k]) for k in self.space.bounds},
                                  p.cruise_drain, p.dt, p.horizon)
                     != (r["verdict"] == "Violated")]
            if wrong:
                failures.append(f"verdicts differ from buggy_violation_predicate "
                                f"in trials {wrong[:10]}")
        elif raw or summary.unique_violations:
            failures.append(f"patched campaign found {raw} violations")
        digest = hashlib.sha256()
        for name in ARTIFACTS:
            digest.update((work_dir / name).read_bytes())
        size = sum(f.stat().st_size for f in work_dir.rglob("*") if f.is_file())
        return Outcome(trials=summary.total_runs,
                       faulted=summary.total_runs - len(rows),
                       failures=failures, digest=digest.hexdigest(), key=key,
                       artifact_bytes=size, raw_violations=raw,
                       unique_violations=summary.unique_violations)


class Conformance:
    """``hdsf conformance``: full model against surrogate on sampled configurations."""

    variant = ControllerVariant.BUGGY

    def __init__(self, seed: int, n_configs: int, chunks: int):
        self.params = DroneParams()
        space = default_config_space(self.params, rng_seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        self.configs = [[generate(space, rng) for _ in range(n_configs)]
                        for _ in range(chunks)]

    def call(self, key: int, work_dir: Path):
        p = self.params
        return conformance_check(p, self.variant, self.configs[key], p.dt, p.horizon)

    def outcome(self, key: int, report, work_dir: Path) -> Outcome:
        failures = []
        if report.faults or report.agreement != 1.0:
            failures.append(f"agreement {report.agreement} with "
                            f"{len(report.faults)} faults")
        verdicts = ",".join(f"{p.full.value}/{p.surrogate.value}" for p in report.pairs)
        return Outcome(trials=len(self.configs[key]), faulted=len(report.faults),
                       failures=failures,
                       digest=hashlib.sha256(verdicts.encode()).hexdigest(), key=key)


def make_workload(name: str, seed: int, tiny: bool):
    size = (TINY_SIZE if tiny else SIZE)[name]
    chunks = TINY_CHUNKS if tiny else CHUNKS
    if name == "conformance":
        return Conformance(seed, size, chunks)
    variant = ControllerVariant.BUGGY if name == "fuzz-buggy" else ControllerVariant.PATCHED
    return Campaign(variant, seed, size, chunks)


def _oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("hdsf_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

_REF_NAMES = tuple("abcdefgh")
_REF_RATES = tuple((lambda s, k=k: 0.01 * k - 0.001 * s["a"]) for k in range(8))


def reference_kernel(steps: int = 12000) -> float:
    """Wall time of a fixed computation shaped like a fixed-step simulation
    loop (dicts, small closures, float arithmetic, numpy element writes),
    independent of hdsf; it measures how fast the host runs Python now."""
    started = time.perf_counter()
    data = np.empty((steps, len(_REF_NAMES)))
    state = [0.1 * i for i in range(len(_REF_NAMES))]
    for k in range(steps):
        named = dict(zip(_REF_NAMES, state))
        state = [v + 0.01 * f(named) for v, f in zip(state, _REF_RATES)]
        for i, name in enumerate(_REF_NAMES):
            data[k, i] = named[name]
    float(data.sum())
    return time.perf_counter() - started


def measure_setup(args) -> float:
    """Median wall time, over fresh processes, from process creation to just
    before the timed call."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - spawned)
    return statistics.median(times)


def traced_names(tracer: Tracer) -> None:
    def sim_info(args, trace):
        return {"kind": _kind(args[0]), "samples": len(trace),
                "tail": stationary_tail(trace)}

    tracer.wrap(falsify, "run_trial")
    tracer.wrap(falsify, "simulate", sim_info)
    tracer.wrap(falsify, "evaluate", lambda args, verdict: {
        "samples": len(args[1]), "truncated": verdict.window_truncated})
    for name in ("compute_margins", "generate", "mutate", "write_trace_jsonl",
                 "write_margins_csv"):
        tracer.wrap(falsify, name)
    tracer.wrap(hybrid, "trace_to_jsonl", lambda args, text: {"samples": len(args[0])})
    tracer.wrap(drone, "run_trial", lambda args, result: {"kind": _kind(args[0])})
    tracer.wrap(drone, "build_surrogate")
    tracer.wrap(condensation, "condense")
    tracer.wrap(condensation, "solve_condensed")


def _kind(system_like) -> str:
    system = getattr(system_like, "system", system_like)
    return "full" if tuple(system.signal_names) == drone.FULL_SIGNALS else "surrogate"


def run(args) -> tuple[dict, dict]:
    """Measure one workload; returns (result, record)."""
    setup_s = None if args.trace else measure_setup(args)
    tracer = Tracer()
    if args.trace:
        traced_names(tracer)
        tracer.install()
    workload = make_workload(args.workload, args.seed, args.tiny)
    tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    chunks = TINY_CHUNKS if args.tiny else CHUNKS

    def timed_call(key: int, traced: bool, repeat=None) -> tuple[Outcome, float]:
        work_dir = Path(tempfile.mkdtemp(prefix="repeat-", dir=OUT_DIR))
        try:
            tracer.repeat = repeat
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            result = workload.call(key, work_dir)
            elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            tracer.repeat = None
        try:
            return workload.outcome(key, result, work_dir), elapsed
        finally:
            shutil.rmtree(work_dir)

    # warm-up: checked but not timed, so lazy set-up is done before measuring
    outcomes = [timed_call(0, False)[0]]
    calls: list[dict] = []
    ref_s = [reference_kernel()]
    started = time.perf_counter()
    # a cycle runs every chunk once, or with tracing once untraced and then
    # once traced, so the two are compared on the same inputs
    cycle = chunks * (2 if args.trace else 1)
    while True:
        repeat = len(calls)
        key, traced = (repeat // 2, repeat % 2 == 1) if args.trace else (repeat, False)
        outcome, elapsed = timed_call(key % chunks, traced, repeat)
        ref_s.append(reference_kernel())
        calls.append({"key": outcome.key, "traced": traced, "trials": outcome.trials,
                      "s": elapsed, "scaled_s": elapsed * 2 * REF_NOMINAL_S
                      / (ref_s[-2] + ref_s[-1])})
        outcomes.append(outcome)
        spent = time.perf_counter() - started
        if len(calls) >= cycle and spent + 0.5 * spent / len(calls) > args.seconds:
            break

    first: dict[int, Outcome] = {}
    attempted = failed = 0
    failures = []
    for o in outcomes:
        if o.digest != first.setdefault(o.key, o).digest:
            o.failures.append("artifacts differ from the first repeat's")
        attempted += o.trials + 2  # the output check and the digest check
        failed += o.faulted + len(o.failures)
        failures += o.failures

    if args.trace:
        metrics = layer_metrics(tracer, calls, list(first.values()), attempted, failed)
    else:
        metrics = {
            "trials_per_s": (cycle_rate(calls, False, "scaled_s"), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "size": (TINY_SIZE if args.tiny else SIZE)[args.workload], "chunks": chunks,
        "repeats": len(calls), "traced_repeats": sum(c["traced"] for c in calls),
        "unscaled_trials_per_s": cycle_rate(calls, False, "s"),
        "calls": calls, "reference_s": ref_s, "reference_nominal_s": REF_NOMINAL_S,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "failures": failures[:10],
        "layer_to_end_to_end": {k: v[1] for k, v in PER_LAYER.items()},
    }
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, record)
        record["spans_file"] = str(spans.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def cycle_rate(calls: list[dict], traced: bool, time_key: str) -> float:
    """Trials of one cycle over the sum of each chunk's median call time."""
    by_key: dict[int, list[dict]] = {}
    for c in calls:
        if c["traced"] == traced:
            by_key.setdefault(c["key"], []).append(c)
    trials = sum(cs[0]["trials"] for cs in by_key.values())
    return trials / sum(statistics.median(c[time_key] for c in cs)
                        for cs in by_key.values())


def layer_metrics(tracer: Tracer, calls: list[dict], cycle: list[Outcome],
                  attempted: int, failed: int) -> dict:
    L = Layers(tracer, sum(c["traced"] for c in calls))

    def by_kind(ids):
        return {k: [i for i in ids if L.spans[i][INFO]["kind"] == k]
                for k in ("full", "surrogate")}

    sims = L.named("falsify.simulate")
    samples = L.info_sum(sims, "samples")
    sim_kinds = by_kind(sims)
    to_jsonl = L.named("hybrid.trace_to_jsonl")
    evals = L.named("falsify.evaluate")
    trials = L.named("falsify.run_trial")
    trial_ms = [1e3 * L.net(i) for i in trials] or [0.0]
    drone_trials = L.named("drone.run_trial")
    n_trials = len(trials) + len(drone_trials)
    drone_s = {k: L.total(ids) for k, ids in by_kind(drone_trials).items()}
    n_generate, n_mutate = len(L.named("falsify.generate")), len(L.named("falsify.mutate"))
    margins = L.named("falsify.compute_margins")
    builds = L.named("drone.build_surrogate", timed=False)
    condenses = L.named("condensation.condense", timed=False)
    solves = L.named("condensation.solve_condensed", timed=False)
    untraced = cycle_rate(calls, False, "scaled_s")
    traced = cycle_rate(calls, True, "scaled_s")
    raw_violations = sum(o.raw_violations for o in cycle)
    unique_violations = sum(o.unique_violations for o in cycle)

    values = {
        "hybrid.simulate.us_per_sample": 1e6 * ratio(L.total(sims), samples),
        "hybrid.samples": L.per_repeat(samples),
        "hybrid.simulate.full.us_per_sample": 1e6 * ratio(
            L.total(sim_kinds["full"]), L.info_sum(sim_kinds["full"], "samples")),
        "hybrid.simulate.surrogate.us_per_sample": 1e6 * ratio(
            L.total(sim_kinds["surrogate"]), L.info_sum(sim_kinds["surrogate"], "samples")),
        "hybrid.stationary_tail_frac": ratio(L.info_sum(sims, "tail"), samples),
        "hybrid.trace_to_jsonl.s": L.per_repeat(L.total(to_jsonl)),
        "hybrid.trace_to_jsonl.us_per_sample": 1e6 * ratio(
            L.total(to_jsonl), L.info_sum(to_jsonl, "samples")),
        "hybrid.write_trace_jsonl.self_s": L.per_repeat(
            L.total(L.named("falsify.write_trace_jsonl"), L.self_time)),
        "stl.evaluate.us_per_sample": 1e6 * ratio(L.total(evals), L.info_sum(evals, "samples")),
        "stl.evaluate.calls": L.per_repeat(len(evals)),
        "stl.truncated": L.per_repeat(L.info_sum(evals, "truncated")),
        "falsify.run_trial.p50_ms": float(np.percentile(trial_ms, 50)),
        "falsify.run_trial.p99_ms": float(np.percentile(trial_ms, 99)),
        "falsify.run_trial.calls": len(trials),
        "falsify.run_trial.self_s": L.per_repeat(L.total(trials, L.self_time)),
        "falsify.resim_frac": ratio(len(sims) - n_trials, n_trials),
        "falsify.mutated_frac": ratio(n_mutate, n_mutate + n_generate),
        "falsify.generate.s": L.per_repeat(L.total(L.named("falsify.generate"))),
        "falsify.mutate.s": L.per_repeat(L.total(L.named("falsify.mutate"))),
        "falsify.raw_violations": raw_violations,
        "falsify.unique_violations": unique_violations,
        "falsify.unique_frac": ratio(unique_violations, raw_violations),
        "margins.compute_margins.us_per_call": 1e6 * ratio(L.total(margins), len(margins)),
        "falsify.write_margins_csv.s": L.per_repeat(
            L.total(L.named("falsify.write_margins_csv"))),
        "drone.run_trial.full.s": L.per_repeat(drone_s["full"]),
        "drone.run_trial.surrogate.s": L.per_repeat(drone_s["surrogate"]),
        "drone.full_over_surrogate": ratio(drone_s["full"], drone_s["surrogate"]),
        "reduction.build_surrogate.s": ratio(L.total(builds), len(builds)),
        "condensation.condense.s": ratio(L.total(condenses), len(condenses)),
        "condensation.condense.calls": ratio(len(condenses), len(builds)),
        "condensation.solve_condensed.s": ratio(L.total(solves), len(solves)),
        "artifact_mb": sum(o.artifact_bytes for o in cycle) / 1e6,
        "failed_frac": failed / attempted,
        "trials_per_s.untraced": untraced,
        "trials_per_s.traced": traced,
        "trace.overhead_frac": untraced / traced - 1.0,
    }
    return {k: (float(values[k]), PER_LAYER[k][0]) for k in PER_LAYER}
