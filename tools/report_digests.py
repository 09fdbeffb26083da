"""Digests of the CLI's reports and CSVs on the fixture specs, for byte-identity checks.

Runs every subcommand on the four fixture systems (f1, f2, f3 and the
asymmetric f4, at sigma = 1), ``ball`` and ``radial`` on f2's exponents with c = -1000,
``radial`` at large positive c (N = 4, c = 1e3; N = 5, c = 1e4; N = 3, c = 3e5),
the half-line solve from the scaled starts u0 = 1e-4 and 1e8
on f3 and the incompatible-rows spec x3, a spec that fails validation,
``verify`` and ``ball`` on point sets that span many blocks and CSV passes
(f3, f4 and an N = 5, m = 3 spec),
and the error paths: sweeps that start past the critical radius or end
below it, a shot
that cannot meet the Robin condition on incompatible boundary rows, and
unusable inputs (among them a params file of invalid JSON, a spec file
passed as params, and a sigma whose square is subnormal).  Last, ``radial`` runs again on f2, f4 and x3, now on the
roots this process has cached, and on f2 at sigma = 2, once on the root the
sigma = 1 call cached and once fresh after the cache is cleared, so each
cached call prints next to the digests of its fresh twin.  Each call
goes through ``halfspace_bubbles.cli.main`` in this process; per call it
prints the exit code, the standard error and the sha256 of every file it
wrote.
Run it against two checkouts and diff the printouts:

    PYTHONPATH=src python tools/report_digests.py OUTDIR > digests.txt

The reports and CSVs stay under OUTDIR, so a difference can be read
there with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from halfspace_bubbles import cli, radial_ode

SPECS = {
    "f1": {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [0.0]},
    "f2": {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]},
    "f3": {"N": 4, "m": 2, "A": [[1.0, 2.0], [2.0, 1.0]], "B": [[1.0, 1.0], [1.0, 1.0]],
           "c": [-1.0, -1.0]},
    # unequal row and column sums: a transposed exponent matrix changes the values
    "f4": {"N": 4, "m": 2, "A": [[1.0, 2.0], [0.5, 2.5]], "B": [[0.5, 1.5], [1.2, 0.8]],
           "c": [-1.0, -1.0]},
    # block-diagonal A: validate reports violations and exits 1
    "reducible": {"N": 4, "m": 2, "A": [[3.0, 0.0], [0.0, 3.0]], "B": [[2.0, 0.0], [0.0, 2.0]],
                  "c": [-1.0, -1.0]},
    # f3's A with diagonal boundary rows that demand two different profiles
    "x3": {"N": 4, "m": 2, "A": [[1.0, 2.0], [2.0, 1.0]], "B": [[2.0, 0.0], [0.0, 2.0]],
           "c": [-1.0, -0.5]},
    # f2 with the center 1.7e3 widths below the boundary
    "deep": {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1000.0]},
    # m = 1 at large positive c, where the Robin root 2d / mu lies far out on psi_ref's tail
    "n4-1e3": {"N": 4, "m": 1, "A": [[3.0]], "B": [[2.0]], "c": [1e3]},
    "n5-1e4": {"N": 5, "m": 1, "A": [[7 / 3]], "B": [[5 / 3]], "c": [1e4]},
    "n3-3e5": {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [3e5]},
    # N = 5, m = 3 with unequal row and column sums
    "n5m3": {"N": 5, "m": 3,
             "A": [[1 / 3, 1.0, 1.0], [0.5, 0.5, 4 / 3], [1.0, 1 / 3, 1.0]],
             "B": [[1 / 3, 2 / 3, 2 / 3], [1.0, 1 / 3, 1 / 3], [0.5, 0.5, 2 / 3]],
             "c": [-1.0, -1.0, -1.0]},
}


def calls(name: str) -> dict[str, list[str]]:
    """Call id -> argv of every fixture call on one spec."""
    off_origin = "3,4" if SPECS[name]["N"] == 3 else "3,4,0"
    return {
        f"{name}.validate": ["validate"],
        f"{name}.solve-params": ["solve-params"],
        f"{name}.verify": ["verify", "--csv"],
        f"{name}.moving-spheres": ["moving-spheres", "--csv"],
        f"{name}.moving-spheres-x": ["moving-spheres", "--csv", "--x", off_origin],
        f"{name}.ball": ["ball"],
        f"{name}.radial": ["radial", "--csv"],
        f"{name}.halfline": ["halfline", "--csv"],
    }


def main(outdir: str) -> int:
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    # reports name their spec file; relative names keep them equal across OUTDIRs
    os.chdir(root)
    matrix = {}
    for name, spec in SPECS.items():
        Path(f"{name}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        if name in ("f1", "f2", "f3", "f4"):
            matrix.update(calls(name))
    matrix["reducible.validate"] = ["validate"]
    # sweeps from past f2's critical radius 2, just past it and well past it: exit 1, bad_bracket
    matrix["f2.moving-spheres-near-lo"] = ["moving-spheres", "--lambda-lo", "2.000000002"]
    matrix["f2.moving-spheres-far-lo"] = ["moving-spheres", "--lambda-lo", "2.5"]
    # a sweep that ends below f2's critical radius: exit 1, no crossing, null lambda_numeric
    matrix["f2.moving-spheres-no-crossing"] = ["moving-spheres", "--csv", "--lambda-hi", "1.5"]
    # f3's parameters (its solve-params report; extra keys are ignored): exit 1, shoot_failed
    matrix["x3.radial"] = ["radial", "--params", "f3.solve-params.json"]
    # f3's parameters on f2, whose N and m they do not fit: exit 2, malformed_spec
    matrix["f2.radial-f3-params"] = ["radial", "--params", "f3.solve-params.json"]
    # a params file of invalid JSON, and a spec file as params: exit 2, malformed_spec
    Path("bad-json.params.json").write_text("{not json", encoding="utf-8")
    matrix["f2.verify-bad-json-params"] = ["verify", "--params", "bad-json.params.json"]
    matrix["f2.radial-spec-as-params"] = ["radial", "--params", "f2.spec.json"]
    # sigma^2 subnormal, where the center height loses its digits: exit 2, input_error
    matrix["f2.solve-params-subnormal-sigma"] = ["solve-params", "--sigma", "1e-160"]
    # transport far from the boundary, where the recovered (mu, alphas) could cancel
    matrix["deep.ball"] = ["ball"]
    matrix["deep.radial"] = ["radial"]
    for name in ("n4-1e3", "n5-1e4", "n3-3e5"):
        matrix[f"{name}.radial"] = ["radial"]
    # the half-line solve at scaled starts, where the stepper runs on u0 / max(u0)
    for name in ("f3", "x3"):
        for u0 in ("1e-4", "1e8"):
            matrix[f"{name}.halfline-{u0}"] = ["halfline", "--csv", "--u0", u0]
    # a boundary center off the hyperplane, a box below the boundary: exit 2, malformed_spec
    matrix["f1.moving-spheres-bad-x"] = ["moving-spheres", "--x", "1,2,3"]
    matrix["f1.verify-bad-box"] = ["verify", "--box=-1,1,-1,1,-1,1"]
    # point sets that span many residual blocks and CSV passes: 16^4 = 65,536 and
    # 9^5 = 59,049 lattice centers, 40,000 mapping samples, and 20,000-point CSVs
    # of 2 and 3 components
    matrix["f3.verify-large"] = ["verify", "--grid", "16", "--n-random", "20000", "--csv"]
    matrix["f4.ball-large"] = ["ball", "--grid", "200"]
    matrix["n5m3.verify-large"] = ["verify", "--grid", "9", "--n-random", "20000", "--csv"]
    # the same shots again on the cached psi_ref: the same exit, stderr and digests
    for call_id in ("f2.radial", "f4.radial", "x3.radial"):
        matrix[f"{call_id}-cached"] = matrix[call_id]
    # a new d on the root cached at sigma = 1, then its fresh twin
    matrix["f2.radial-sigma2-cached"] = ["radial", "--csv", "--sigma", "2"]
    matrix["f2.radial-sigma2"] = matrix["f2.radial-sigma2-cached"]

    for call_id, argv in matrix.items():
        if call_id == "f2.radial-sigma2":
            radial_ode.clear_unit_runs()
        spec = f"{call_id.split('.')[0]}.spec.json"
        report = Path(f"{call_id}.json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--spec", spec, "--out", str(report)])
        print(f"{call_id} exit={code} stderr={err.getvalue()!r}")
        for path in (report, report.with_suffix(".csv")):
            if path.exists():
                print(f"  {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_digests.py OUTDIR")
    sys.exit(main(sys.argv[1]))
