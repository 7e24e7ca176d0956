#!/usr/bin/env python3
"""Run the tier-1 test command and check that only the two by-design
acceptance failures remain.

The command is ROADMAP's tier-1 verify,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

run from the repository root.  Criteria 7 and 9 of the acceptance suite
fail by design (README, "Acceptance suite").  Exits 0 when exactly those
two fail; otherwise names every other failing or erroring test, and
either of the two that no longer fails, and exits 1.

    python scripts/tier1.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BY_DESIGN = {
    "tests/test_acceptance.py::test_criterion_07_atom_light_landmark",
    "tests/test_acceptance.py::test_criterion_09_atom_mech_optimum",
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    # pytest's short summary: "FAILED <id> - <message>" and "ERROR <id> - <message>"
    failed = {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in lines if line.startswith(("FAILED ", "ERROR "))
    }
    print(lines[-1] if lines else "pytest printed nothing")
    problems = [f"unexpected failure: {test}" for test in sorted(failed - BY_DESIGN)]
    problems += [f"no longer fails (by design it should; see README): {test}"
                 for test in sorted(BY_DESIGN - failed)]
    if run.returncode not in (0, 1):
        problems.append(f"pytest exited with code {run.returncode}")
        print(run.stderr, end="", file=sys.stderr)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("ok: exactly criteria 7 and 9 fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
