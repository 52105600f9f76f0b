"""Check that the tests kill each committed mutant of the package.

    python tools/run_mutants.py [NAME ...]

``tools/mutants.json`` lists mutants: each has a name, the exact old and
new text of one or more edits, and the pytest selectors that must fail
on it.  For each mutant (or only those named), the package and its tests
are copied to a temporary directory, the edits are made there, and the
selectors run there.  The mutant is killed when they fail (pytest exit
status 1).  The run fails if a mutant survives, if its selectors end in
any other status, or if an old text is not found exactly once, which
means a refactor moved the code and the mutant must be re-aimed.  Every
selector first runs once on an unchanged copy and must pass there.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"


def pytest_status(copy: Path, selectors: list[str]) -> tuple[int, str]:
    """Run ``selectors`` in ``copy``; return pytest's status and last line."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *selectors], cwd=copy, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines() or [run.stderr.strip()]
    return run.returncode, lines[-1]


def fresh_copy(into: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return into


def mutate(copy: Path, edits: list[dict]) -> str | None:
    """Make ``edits`` in ``copy``; return why one cannot be made, or None."""
    for edit in edits:
        path = copy / edit["file"]
        text = path.read_text()
        found = text.count(edit["old"])
        if found != 1:
            return f"{edit['file']}: old text found {found} times: {edit['old']!r}"
        path.write_text(text.replace(edit["old"], edit["new"]))
    return None


def main(argv: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(argv) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in mutants if not argv or m["name"] in argv]
    failures = []
    with tempfile.TemporaryDirectory(prefix="hdsf-mutants-") as tmp:
        selectors = list(dict.fromkeys(s for m in mutants for s in m["selectors"]))
        status, last = pytest_status(fresh_copy(Path(tmp) / "unchanged"), selectors)
        if status != 0:
            print(f"the selectors do not pass unchanged (status {status}): {last}")
            return 1
        for mutant in mutants:
            copy = fresh_copy(Path(tmp) / mutant["name"])
            problem = mutate(copy, mutant["edits"])
            if problem is None:
                status, last = pytest_status(copy, mutant["selectors"])
                problem = {0: f"survived: {last}", 1: None}.get(
                    status, f"pytest status {status}: {last}")
            print(f"{mutant['name']}: {problem or 'killed'}")
            if problem:
                failures.append(mutant["name"])
            shutil.rmtree(copy)
    print(f"{len(mutants) - len(failures)} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
