"""Which one-line mutations of the package the test suite kills.

Each mutant is a named (file under src/halfspace_bubbles, old, new) triple;
``old`` must occur exactly once in its file.  The suite first runs once on an
unmutated copy of the checkout (less .git, caches and benchmark runs), which
must pass; there tests/test_mutants.py checks every anchor.  For each mutant
a fresh copy gets the one change, and the suite less tests/test_mutants.py
runs on it with ``-x -q``.  A failing suite kills the mutant; a passing one
lets it survive.  A mutant whose suite runs ``HANG_FACTOR`` times longer than
the unmutated one is stopped, printed as hung and counted as a survivor.

    python tools/mutants.py                 # every mutant
    python tools/mutants.py source flux     # the named ones

The exit status is the number of survivors.  It is not a test: one run
takes a suite run per mutant.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A mutant's suite may run this many times as long as the unmutated one.
HANG_FACTOR = 20

MUTANTS = {
    # the transposition sites: each reads an exponent matrix by (i, j)
    "source": ("exponent_system.py", "np.exp(log_u @ self.AT)", "np.exp(log_u @ self.A)"),
    "flux": ("exponent_system.py", "np.exp(log_u @ self.BT)", "np.exp(log_u @ self.B)"),
    "series-AT": ("radial_ode.py", "log_psi[1 : n + 1] @ spec.AT", "log_psi[1 : n + 1] @ spec.A"),
    "center-height": ("bubble_family.py", "(spec.B - spec.A).T", "(spec.B - spec.A)"),
    # the half-line's signs: c in the initial slope, and u'' = -source
    "halfline-slope-sign": ("radial_ode.py", "[v0, spec.flux(", "[v0, -spec.flux("),
    "halfline-rhs-sign": ("radial_ode.py", "out[m:] = -source(", "out[m:] = source("),
    # the sign of c in each boundary law
    "robin-c-sign": ("radial_ode.py", "* psi + flux", "* psi - flux"),
    "levels-c-sign": ("fd_verifier.py", "(d_in - robin) - flux", "(d_in - robin) + flux"),
    "analytic-c-sign": ("bubble_family.py", "np.abs(dN - flux)", "np.abs(dN + flux)"),
    # the radial Laplacian's (N-1)/r
    "radial-damping": ("radial_ode.py", "(spec.N - 1) / r", "(spec.N - 2) / r"),
    # the Kelvin image's slope s**N phi'(s) = -(N-2) psi(t) / t - psi'(t), read for s > 1
    "image-slope": ("radial_ode.py", "-(N - 2) * psi / t - dpsi", "-(N - 2) * psi / t + dpsi"),
    # the Robin coefficient (N-2)/(4d), in the shooting and in the ball's residual
    "robin-coefficient": ("radial_ode.py", "res = dpsi + (spec.N - 2)",
                          "res = dpsi + (spec.N - 1)"),
    "ball-kappa": ("conformal_ball.py", "kappa=(params.N - 2)", "kappa=(params.N - 1)"),
    # the Kelvin factor's exponent (N-2)/2
    "kelvin-exponent": ("kelvin_inversion.py", "(dy.shape[-1] - 2)", "(dy.shape[-1] - 1)"),
    # the one-sided stencil: its weights on u(p + h n) and u(p + 2h n), and its 2h
    "one-sided-weights": ("fd_verifier.py", "4 * vals[0] - vals[1]", "4 * vals[1] - vals[0]"),
    "one-sided-2h": ("fd_verifier.py", "vals[1]) / (2 * h)", "vals[1]) / h"),
    # the terminal event fires where it falls through zero, never where it rises
    "event-direction": ("ode.py", "if g_old >= 0 >= g:", "if g_old <= 0 <= g:"),
    # the half-line's time scale M**(-2/(N-2))
    "halfline-time-scale": ("radial_ode.py", "scale ** (-2.0 / (spec.N - 2))",
                            "scale ** (2.0 / (spec.N - 2))"),
    # the critical radius's d^2 = sigma^2 + y0N^2
    "critical-radius-d2": ("kelvin_inversion.py", "critical_radius(params.width2,",
                           "critical_radius(params.sigma**2,"),
    # mu/(2d) is sigma/e above the boundary and e/sigma below it
    "recover-branch": ("conformal_ball.py", "sigma / e if y0N >= 0 else e / sigma",
                       "e / sigma if y0N >= 0 else sigma / e"),
    # the bubble's axis neighbours: each row adds the axes after a in order, and
    # rows 2a and 2a + 1 hold the steps +h and -h
    "neighbour-prefix-order": ("bubble_family.py", "for b in range(a + 1, N):",
                               "for b in reversed(range(a + 1, N)):"),
    "neighbour-sign": ("bubble_family.py", "((2 * a, yT[a] + h), (2 * a + 1, yT[a] - h))",
                       "((2 * a, yT[a] - h), (2 * a + 1, yT[a] + h))"),
    # the lattice's q adds sigma^2 after the axis squares, as evaluate_bubble does
    "lattice-sigma-first": ("bubble_family.py",
                            "np.add(functools.reduce(np.add, terms[:-1]), terms[-1], out=q)\n"
                            "    q += params.sigma**2",
                            "np.add(functools.reduce(np.add, terms[:-1], params.sigma**2), terms[-1],"
                            " out=q)"),
    # the blocked sup: a block's NaN or larger value replaces the running one, and
    # its argmax counts from the block's first point
    "fold-nan": ("fd_verifier.py", "np.argmax(np.stack([best[0], sups]), axis=0).astype(bool)",
                 "sups > best[0]"),
    "fold-offset": ("fd_verifier.py", "mags.argmax(axis=1) + offset", "mags.argmax(axis=1)"),
    # every residual study runs at 4h, 2h and h
    "study-schedule": ("fd_verifier.py", "np.array([4 * h, 2 * h, h])",
                       "np.array([3 * h, 2 * h, h])"),
    # a family member's boundary width d is positive
    "width-rule": ("bubble_family.py", "if not self.d > 0:", "if self.d < 0:"),
    # a subnormal sigma^2 is out of range, and a params file without a key is malformed
    "sigma-range": ("bubble_family.py", "sigma * sigma >= np.finfo(float).tiny and ", ""),
    "params-missing-key": ("bubble_family.py", "except (KeyError, TypeError, OverflowError)",
                           "except (TypeError, OverflowError)"),
    # each rule's one tolerance, and ball's floor of 100 x 100 mapping samples
    "row-tolerance": ("exponent_system.py", "TOL_ROW = 1e-9", "TOL_ROW = 1e-5"),
    "height-tolerance": ("bubble_family.py", "TOL_HEIGHT = 1e-9", "TOL_HEIGHT = 0.5"),
    "grid-floor": ("cli.py", "type=_int_at_least(100)", "type=_int_at_least(1)"),
    # the CLI's gates: value_at_crossing's threshold scales with max(u0), and
    # containment in the ball is strict
    "gate-scale": ("cli.py", "threshold = threshold * scale", "threshold = threshold"),
    "gate-strict": ("cli.py", '"containment_strict": (operator.lt, 1.0)',
                    '"containment_strict": (operator.le, 1.0)'),
    # the rare branches of the CSV number kernel: a tie between two candidates
    # goes to the even one, an even significand's interval holds its bounds,
    # and below a power of two the interval is half as wide
    "render-half-even": ("reporting.py", "((s & _U(1)) == _U(0))", "((s & _U(1)) == _U(1))"),
    "render-even-bounds": ("reporting.py", "out = c & _U(1)", "out = _U(1)"),
    "render-power-of-two": ("reporting.py", "rop(cb - _U(2) + irregular)", "rop(cb - _U(2))"),
    # a cell's exponent field comes from a table with one row per exponent
    "csv-exp-table": ("reporting.py", "for x in range(-500, 500)", "for x in range(-499, 501)"),
}


def outcome(name: str | None, limit: float | None = None) -> str:
    """Run the suite on a fresh copy with mutant ``name`` applied (None: none).

    Returns killed (the suite fails), survived (it passes) or hung (it runs
    past ``limit`` seconds and is stopped).
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_runs"))
        args = []
        if name is not None:
            file, old, new = MUTANTS[name]
            path = copy / "src" / "halfspace_bubbles" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            # the anchor test fails on every mutated copy, whatever the other tests see
            args.append("--ignore=tests/test_mutants.py")
        # a session of its own, so a hung suite is stopped with its child processes
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(copy / "src")}, start_new_session=True,
        )
        try:
            return "killed" if proc.wait(timeout=limit) else "survived"
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):  # it ended meanwhile
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "hung"


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    start = time.perf_counter()
    if outcome(None) != "survived":
        raise SystemExit("the suite fails on the unmutated copy; no mutant can be judged")
    limit = HANG_FACTOR * (time.perf_counter() - start)
    survivors = 0
    for name in names or MUTANTS:
        result = outcome(name, limit)
        survivors += result != "killed"
        print(f"{name}: {result}", flush=True)
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
