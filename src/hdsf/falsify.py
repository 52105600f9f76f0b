"""Search the reduced parameter space for property-violating configurations.

The campaign loop interleaves fresh constraint-preserving generation
with mutation of earlier near-boundary configurations, runs each
candidate on the surrogate, evaluates the property oracle on the trace,
and logs the first violation of each failure class with its trace, so
only non-equivalent counterexamples are kept.  Each run's margin point
(:mod:`hdsf.margins`) decides pool membership, steering and the failure
class, so this module names no parameter of its own.  A class is the
side of the boundary a run decided on and its margin in buckets as wide
as the seek window, 10 units; configurations on a 1-unit grid merged
almost no violations.  ``violation_rate`` counts every violation
(``raw_violations``), not the classes (``unique_violations``).

Every trial draws its randomness from a stream derived from the
campaign seed and the trial index, so a campaign is reproducible
bit-for-bit given (seed, run-count budget).  Only a mutated trial reads
the pool of earlier trials, and once the pool is nonempty a trial's own
stream alone decides whether it mutates and, if not, what it generates.
Everything runs in the caller's process: the trials in order, and then
the campaign's trace files in violation order.  A system replays only
what its own process ran, and a worker process cost more than it saved,
even for the trace writes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import Configuration, ConfigSpace
from .errors import ConfigurationError, SimulationFault, SpaceError, TrialFault
from .hybrid import HybridSystem, Trace, simulate, write_trace_jsonl
from .margins import MarginPoint, compute_margins, write_margins_csv
from .stl import StlFormula, Verdict, atom_signals, evaluate, formula_horizon

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
    raw_violations: int
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
    values = dict(config)
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

def run_trial(surrogate, config: Configuration, formula: StlFormula,
              dt: float, horizon: float) -> tuple[Verdict, Trace]:
    """Simulate one configuration and evaluate the property on its trace.

    The formula's thresholds and window bounds that name parameters are
    read from ``config``.  If the verdict is pessimistically Violated only
    because an obligation window ran past the end of the trace, the run is
    re-simulated once with the horizon extended by the formula's
    look-ahead under ``config``, then judged pessimistically.
    """
    return run_trial_against(None, surrogate, config, formula, dt, horizon)


def run_trial_against(reference: Optional[tuple[Verdict, Trace]], surrogate,
                      config: Configuration, formula: StlFormula,
                      dt: float, horizon: float) -> tuple[Verdict, Trace]:
    """``run_trial``, given ``reference``, the verdict and trace of a trial
    of ``formula`` under ``config`` on another system, or None.

    When the run's trace has the reference trace's length and ``dt`` and
    the bits of each signal ``formula`` reads, its verdict is the
    reference's without evaluating: ``evaluate`` reads nothing else of a
    trace.  Otherwise the trace is judged as ``run_trial`` judges it.
    """
    system: HybridSystem = getattr(surrogate, "system", surrogate)

    def one_run(h: float) -> tuple[Verdict, Trace]:
        tr = simulate(system, None, config, dt, h)
        if reference is not None and _same_reads(tr, reference[1], formula):
            return reference[0], tr
        return evaluate(formula, tr, config), tr

    try:
        verdict, trace = one_run(horizon)
        if verdict.violated and verdict.window_truncated:
            ahead = formula_horizon(formula, config)
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


def _same_reads(trace: Trace, other: Trace, formula: StlFormula) -> bool:
    """Whether ``evaluate`` reads the same of ``trace`` as of ``other``: the
    length, ``dt`` and the bits of each signal ``formula`` reads."""
    mine, theirs = trace.signals, other.signals
    return (len(trace) == len(other) and trace.dt == other.dt
            and all(name in mine and name in theirs
                    and mine[name].tobytes() == theirs[name].tobytes()
                    for name in atom_signals(formula)))


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The random stream of trial ``trial`` in a campaign seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def campaign(surrogate, formula: StlFormula, space: ConfigSpace,
             budget: int, *, dt: float, horizon: float,
             seed: int, out_dir=None
             ) -> tuple[CampaignSummary, list[ViolationRecord]]:
    """Run a falsification campaign of ``budget`` trials.

    With ``out_dir`` set, writes summary.json, violations.jsonl,
    margins.csv, and one trace file per failure class.  Aborts when
    more than ``MAX_FAULT_FRACTION`` of trials fault.

    Each trial draws from its own stream: once the mutation pool is
    nonempty, a coin decides whether it mutates a pooled configuration or
    generates a fresh one, and before that it generates.  Every trial
    runs in this process, in order, and only the first violation of each
    class keeps its trace, so a campaign holds one trial's stream and
    trace at a time.
    """
    if budget < 0:
        raise SpaceError(f"budget must be nonnegative, got {budget}")
    campaign_seed = int(seed)
    started = time.perf_counter()

    violations: list[ViolationRecord] = []
    raw_violations = 0
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
            raw_violations += 1
            signature = point.failure_class
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
        raw_violations=raw_violations,
        unique_violations=len(violations),
        violation_rate=(raw_violations / budget) if budget else 0.0,
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
    The trace files of an earlier campaign in ``out_dir`` are deleted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    for stale in traces_dir.glob("trial_*.jsonl"):
        if not stale.is_dir():
            stale.unlink()

    for record in violations:
        record.trace_ref = f"traces/trial_{record.trial:05d}.jsonl"
        write_trace_jsonl(record.trace, out_dir / record.trace_ref)

    with open(out_dir / "violations.jsonl", "w") as fh:
        for record in violations:
            fh.write(json.dumps({
                "trial": record.trial,
                "config": record.config,
                "witness_t": record.witness_time,
                "signature": record.signature,
                "trace_file": record.trace_ref,
            }, sort_keys=True) + "\n")

    with open(out_dir / "summary.json", "w") as fh:
        fh.write(json.dumps({
            "total_runs": summary.total_runs,
            "raw_violations": summary.raw_violations,
            "unique_violations": summary.unique_violations,
            "violation_rate": summary.violation_rate,
            "seed": summary.seed,
            "wall_time": None,
        }, sort_keys=True, indent=2) + "\n")

    write_margins_csv(out_dir / "margins.csv", rows, space)
