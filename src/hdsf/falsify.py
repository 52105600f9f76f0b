"""Search the reduced parameter space for property-violating configurations.

The campaign loop interleaves fresh constraint-preserving generation
with mutation of earlier near-boundary configurations, runs each
candidate on the surrogate, evaluates the property oracle on the trace,
and deduplicates violations by a quantized signature so only
non-equivalent counterexamples are logged.  Each run's margin point
(:mod:`hdsf.margins`) decides pool membership, steering and the
signature's side, so this module names no parameter of its own.

Every trial draws its randomness from a stream derived from the
campaign seed and the trial index, so a campaign is reproducible
bit-for-bit given (seed, run-count budget).  A campaign runs its trials
in order, because mutation reads the pool of earlier trials; callers
whose trials are independent spread them over forked workers with
:func:`map_trials`.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence, TypeVar, Union

import numpy as np

from .config import Configuration, ConfigSpace
from .errors import ConfigurationError, SimulationFault, SpaceError, TrialFault
from .hybrid import HybridSystem, Trace, simulate, write_trace_jsonl
from .margins import MarginPoint, compute_margins, write_margins_csv
from .stl import StlFormula, Verdict, evaluate, formula_horizon

FormulaLike = Union[StlFormula, Callable[[Configuration], StlFormula]]
T = TypeVar("T")
R = TypeVar("R")

_MAX_REPAIR_ROUNDS = 100
# Share of trials that mutate a pooled near-boundary configuration (once
# the pool is nonempty), and the faulted share of trials that aborts a
# campaign.
MUTATION_FRACTION = 0.5
MAX_FAULT_FRACTION = 0.1


@dataclass
class ViolationRecord:
    trial: int
    config: Configuration
    witness_time: Optional[float]
    signature: str
    trace: Optional[Trace] = None
    trace_ref: Optional[str] = None


@dataclass
class CampaignSummary:
    total_runs: int
    unique_violations: int
    violation_rate: float
    seed: int
    wall_time: float


# ---------------------------------------------------------------------------
# Generation and mutation
# ---------------------------------------------------------------------------

def _repair_orderings(values: dict[str, float], space: ConfigSpace, rng) -> None:
    """Resample the violating member of each ordering pair, within the
    space's feasible bounds, until all hold."""
    for _ in range(_MAX_REPAIR_ROUNDS):
        stable = True
        for a, b in space.orderings:
            if values[a] < values[b]:
                continue
            stable = False
            lo_b, hi_b = space.feasible_bounds[b]
            if values[a] < hi_b:
                values[b] = rng.uniform(np.nextafter(max(lo_b, values[a]), np.inf), hi_b)
            else:
                lo_a, hi_a = space.feasible_bounds[a]
                if not lo_a < values[b]:
                    raise SpaceError(
                        f"constraint {a} < {b} cannot be repaired within bounds")
                values[a] = rng.uniform(lo_a, min(hi_a, values[b]))
        if stable:
            return
    raise SpaceError("ordering constraints could not be repaired; space may be "
                     "effectively empty")


def generate(space: ConfigSpace, rng: np.random.Generator) -> Configuration:
    """Draw a configuration uniformly within the space's feasible bounds,
    repairing ordering violations."""
    values = {name: float(rng.uniform(lo, hi))
              for name, (lo, hi) in space.feasible_bounds.items()}
    _repair_orderings(values, space, rng)
    return Configuration(values)


def _clip(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def mutate(config: Configuration, space: ConfigSpace,
           feedback: Optional[MarginPoint], rng: np.random.Generator) -> Configuration:
    """Perturb a random subset of parameters, steered toward decision
    boundaries when the margins of the configuration's run are small: each
    parameter that ``feedback.steering`` names is drawn around its target."""
    values = config.as_dict()
    steer = feedback.steering(values) if feedback is not None else {}
    seeking = [name for name in steer if name in space.bounds]
    for name in seeking:
        target, sigma = steer[name]
        values[name] = _clip(target + rng.normal(0.0, sigma), *space.feasible_bounds[name])

    for name, (lo, hi) in space.feasible_bounds.items():
        if name in seeking or name not in values:
            continue
        if rng.random() < 0.5:
            sigma = 0.05 * (hi - lo)
            if sigma > 0.0:
                values[name] = _clip(values[name] + rng.normal(0.0, sigma), lo, hi)

    _repair_orderings(values, space, rng)
    return Configuration(values)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def run_trial(surrogate, config: Configuration, formula: FormulaLike,
              dt: float, horizon: float) -> tuple[Verdict, Trace]:
    """Simulate one configuration and evaluate the property on its trace.

    If the verdict is pessimistically Violated only because an obligation
    window ran past the end of the trace, the run is re-simulated once
    with the horizon extended by the formula's look-ahead, then judged
    pessimistically.

    ``formula`` may be a fixed formula or a callable building one from the
    configuration (for properties parameterized by sampled thresholds).
    """
    system: HybridSystem = getattr(surrogate, "system", surrogate)
    phi = formula(config) if callable(formula) else formula

    def one_run(h: float) -> tuple[Verdict, Trace]:
        tr = simulate(system, None, config, dt, h)
        return evaluate(phi, tr), tr

    try:
        verdict, trace = one_run(horizon)
        if verdict.violated and verdict.window_truncated:
            ahead = formula_horizon(phi)
            try:
                verdict, trace = one_run(horizon + ahead + 10.0 * dt)
            except ConfigurationError:
                raise ConfigurationError(
                    f"the property's look-ahead of {ahead:g} s past the {horizon:g} s "
                    f"horizon is too many steps at dt {dt:g} to re-simulate a "
                    f"truncated verdict") from None
    except SimulationFault as exc:
        raise TrialFault(exc, config) from exc
    return verdict, trace


def map_trials(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(x) for x in items]``, with the items dealt round-robin to this
    process and to one forked worker per further CPU it may run on.

    Each worker pickles its results, or its first exception with the
    item's index, into a pipe, and this process re-raises the exception of
    the lowest index, as the serial loop would.  So results and exceptions
    must pickle, and what ``fn`` changes in a worker stays there.  A fork
    copies only the calling thread, so ``fn`` must not wait on another.
    Runs in this process alone with one CPU, fewer than two items, or no
    ``fork``.
    """
    items = list(items)
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)) if forks else 1, len(items))
    if workers < 2:
        return [fn(x) for x in items]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    shares = []
    statuses = []
    try:
        for first in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _worker(fn, items, first, workers, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        shares.append(_run_share(fn, items, 0, workers))
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            shares.append(pickle.loads(payload) if payload else None)
    finally:
        unread = len(shares) < workers
        for pid, read_fd in children:
            os.close(read_fd)
            if unread:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), share, status in zip(children, shares[1:], statuses):
        if share is None:
            raise RuntimeError(f"trial worker {pid} exited with status {status} "
                               "before sending its results")
    errors = [error for _, error in shares if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results: list = [None] * len(items)
    for first, (share, _) in enumerate(shares):
        results[first::workers] = share
    return results


def _run_share(fn, items: list, first: int, step: int):
    """``fn`` over ``items[first::step]``: the results up to the first
    exception, and that exception with its item's index (or None)."""
    results = []
    for index in range(first, len(items), step):
        try:
            results.append(fn(items[index]))
        except Exception as exc:
            return results, (index, exc)
    return results, None


def _worker(fn, items: list, first: int, step: int, write_fd: int) -> NoReturn:
    """A forked worker: run its share, send it, and end the process, so
    that it never returns into the caller's stack."""
    status = 1
    try:
        results, error = _run_share(fn, items, first, step)
        try:
            payload = pickle.dumps((results, error))
            if error is not None:
                pickle.loads(payload)  # an exception must also rebuild
        except Exception as exc:
            index = first if error is None else error[0]
            payload = pickle.dumps(([], (index, TypeError(
                f"item {index}: a trial worker cannot send its result back: {exc!r}"))))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------

def _quantize(value: float) -> int:
    # fixed grid of one unit per parameter, half-up
    return int(math.floor(value + 0.5))


def violation_signature(config: Configuration, margins: MarginPoint) -> str:
    """Deduplication key: the margin point's side plus the quantized configuration."""
    quantized = ";".join(f"{k}={_quantize(v)}" for k, v in sorted(config.items()))
    return f"{margins.side}|{quantized}"


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The random stream of trial ``trial`` in a campaign seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def campaign(surrogate, formula: FormulaLike, space: ConfigSpace,
             budget: int, *, dt: float, horizon: float,
             seed: Optional[int] = None, out_dir=None
             ) -> tuple[CampaignSummary, list[ViolationRecord]]:
    """Run a falsification campaign of ``budget`` trials.

    With ``out_dir`` set, writes summary.json, violations.jsonl,
    margins.csv, and one trace file per unique violation.  Aborts when
    more than ``MAX_FAULT_FRACTION`` of trials fault.
    """
    if budget < 0:
        raise SpaceError(f"budget must be nonnegative, got {budget}")
    campaign_seed = int(seed if seed is not None else space.rng_seed)
    started = time.perf_counter()

    violations: list[ViolationRecord] = []
    seen: set[str] = set()
    pool: list[tuple[Configuration, MarginPoint]] = []
    rows: list[tuple[int, Configuration, MarginPoint]] = []
    faults: list[tuple[int, str]] = []

    for trial in range(budget):
        rng = trial_rng(campaign_seed, trial)
        if pool and rng.random() < MUTATION_FRACTION:
            base_config, base_point = pool[int(rng.integers(len(pool)))]
            config = mutate(base_config, space, base_point, rng)
        else:
            config = generate(space, rng)

        try:
            verdict, trace = run_trial(surrogate, config, formula, dt, horizon)
        except TrialFault as exc:
            faults.append((trial, str(exc)))
            completed = trial + 1
            if completed >= 10 and len(faults) > MAX_FAULT_FRACTION * completed:
                raise SpaceError(
                    f"campaign aborted: {len(faults)}/{completed} trials faulted; "
                    f"first fault: {faults[0][1]}") from exc
            continue

        point = compute_margins(trace, config, verdict=verdict.outcome)
        rows.append((trial, config, point))
        if point.near_boundary:
            pool.append((config, point))

        if verdict.violated:
            signature = violation_signature(config, point)
            if signature not in seen:
                seen.add(signature)
                violations.append(ViolationRecord(
                    trial=trial,
                    config=config,
                    witness_time=verdict.witness_time,
                    signature=signature,
                    trace=trace,
                ))

    summary = CampaignSummary(
        total_runs=budget,
        unique_violations=len(violations),
        violation_rate=(len(violations) / budget) if budget else 0.0,
        seed=campaign_seed,
        wall_time=time.perf_counter() - started,
    )
    if out_dir is not None:
        write_campaign_outputs(Path(out_dir), summary, violations, rows, space)
    return summary, violations


def write_campaign_outputs(out_dir: Path, summary: CampaignSummary,
                           violations: list[ViolationRecord],
                           rows: list[tuple[int, Configuration, MarginPoint]],
                           space: ConfigSpace) -> None:
    """Persist the campaign artifacts.

    All three top-level files are byte-deterministic for a fixed
    (seed, run-count) campaign; the summary therefore carries wall_time
    as null on disk (the measured value lives on the in-memory summary).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)

    for record in violations:
        rel = f"traces/trial_{record.trial:05d}.jsonl"
        write_trace_jsonl(record.trace, out_dir / rel)
        record.trace_ref = rel

    with open(out_dir / "violations.jsonl", "w") as fh:
        for record in violations:
            fh.write(json.dumps({
                "trial": record.trial,
                "config": record.config.as_dict(),
                "witness_t": record.witness_time,
                "signature": record.signature,
                "trace_file": record.trace_ref,
            }, sort_keys=True) + "\n")

    with open(out_dir / "summary.json", "w") as fh:
        fh.write(json.dumps({
            "total_runs": summary.total_runs,
            "unique_violations": summary.unique_violations,
            "violation_rate": summary.violation_rate,
            "seed": summary.seed,
            "wall_time": None,
        }, sort_keys=True, indent=2) + "\n")

    write_margins_csv(out_dir / "margins.csv", rows, space)
