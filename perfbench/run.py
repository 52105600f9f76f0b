"""hdsf benchmark: simulate-and-judge trials per second, end to end and per layer.

Run from the root of a checkout of the repository (hdsf is imported from
its ``src/`` directory, nothing is installed):

    python3 perfbench/run.py --workload fuzz-buggy --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.WHY``): ``fuzz-buggy``, ``fuzz-patched`` and
``conformance``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics ``trials_per_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` it carries the per-layer metrics of a
run in which each call is made twice in a row, untraced and then recording
spans, and the spans are written to ``perfbench/out/``.  The line before it
records the seed, the repeat count, every call's times, ``nproc`` and the
library versions.

The timed calls run in this one process.  ``setup_s`` is the median over
fresh processes (``--setup-probe``) of the time from process creation to
just before the timed call; those processes run one at a time, before the
measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fuzz-buggy", "fuzz-patched", "conformance")


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_type, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time; the last repeat may run past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few trials per repeat and one setup probe (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the wall-clock time, and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hdsf" / "__init__.py").is_file():
        print(f"perfbench: no hdsf sources under {ROOT / 'src'}; run it from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT / 'tests' / 'oracles.py'} is missing", file=sys.stderr)
        return 2
    # one process, no helper threads: pin the BLAS pools before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import workloads

    if args.setup_probe:
        workloads.make_workload(args.workload, args.seed, args.tiny)
        print(repr(time.time()))
        return 0
    result, record = workloads.run(args)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
