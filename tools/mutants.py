"""Which one-line mutations of the package the test suite kills.

Each mutant is a named (file under src/halfspace_bubbles, old, new) triple;
``old`` must occur exactly once in its file.  For each mutant the checkout
(less .git and caches) is copied to a temporary directory, the one change
is made there, and the test suite runs on that copy with ``-x -q``.  A
failing suite kills the mutant; a passing one lets it survive.  The suite
first runs once on an unmutated copy, which must pass.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py source flux     # the named ones

The exit status is the number of survivors.  It is not a test: one run
takes a suite run per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    # the transposition sites: each reads an exponent matrix by (i, j)
    "source": ("exponent_system.py", "np.exp(log_u @ self.AT)", "np.exp(log_u @ self.A)"),
    "flux": ("exponent_system.py", "np.exp(log_u @ self.BT)", "np.exp(log_u @ self.B)"),
    "series-AT": ("radial_ode.py", "log_psi[1 : n + 1] @ spec.AT", "log_psi[1 : n + 1] @ spec.A"),
    "center-height": ("bubble_family.py", "(spec.B - spec.A).T", "(spec.B - spec.A)"),
    # the half-line's signs: c in the initial slope, and u'' = -source
    "halfline-slope-sign": ("radial_ode.py", "[v0, spec.flux(", "[v0, -spec.flux("),
    "halfline-rhs-sign": ("radial_ode.py", "out[m:] = -source(np.log(v))",
                          "out[m:] = source(np.log(v))"),
}


def fails(name: str | None) -> bool:
    """Run the suite on a fresh copy with mutant ``name`` applied (None: none); True if it fails."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        if name is not None:
            file, old, new = MUTANTS[name]
            path = copy / "src" / "halfspace_bubbles" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    return proc.returncode != 0


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    if fails(None):
        raise SystemExit("the suite fails on the unmutated copy; no mutant can be judged")
    survivors = 0
    for name in names or MUTANTS:
        killed = fails(name)
        survivors += not killed
        print(f"{name}: {'killed' if killed else 'survived'}", flush=True)
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
