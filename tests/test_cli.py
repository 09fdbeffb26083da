import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfspace_bubbles
from halfspace_bubbles.cli import main


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}))
    return path


@pytest.fixture
def params_file(tmp_path, spec_file):
    path = tmp_path / "params.json"
    code = main(["solve-params", "--spec", str(spec_file), "--sigma", "1.0", "--out", str(path)])
    assert code == 0
    return path


def run(*args):
    return main([str(a) for a in args])


class TestValidate:
    def test_valid_spec_exits_zero(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("validate", "--spec", spec_file, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["violations"] == []

    def test_block_diagonal_exits_one(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(
            json.dumps(
                {"N": 4, "m": 2, "A": [[3.0, 0.0], [0.0, 3.0]],
                 "B": [[2.0, 0.0], [0.0, 2.0]], "c": [-1.0, -1.0]}
            )
        )
        out = tmp_path / "report.json"
        assert run("validate", "--spec", spec, "--out", out) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["violations"][0]["rule"] == "A_irreducible"

    def test_missing_file_exits_two_with_error_json(self, tmp_path, capsys):
        assert run("validate", "--spec", tmp_path / "absent.json") == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error_code", "detail"}

    def test_broken_json_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{oops")
        assert run("validate", "--spec", spec) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error_code"] == "malformed_spec"

    def test_non_integer_dimension_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "fractional.json"
        spec.write_text(json.dumps({"N": 3.7, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}))
        assert run("validate", "--spec", spec) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error_code"] == "malformed_spec"

    def test_usage_error_exits_two(self, capsys):
        assert run("validate") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error_code"] == "usage"


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify", "--tol=1e-9"),
        ("moving-spheres", "--tol=1e-9"),
        ("ball", "--tol=1e-9"),
        ("validate", "--csv"),
        ("solve-params", "--csv"),
        ("ball", "--csv"),
        ("validate", "--seed=7"),
        ("solve-params", "--seed=7"),
        ("radial", "--seed=7"),
        ("halfline", "--seed=7"),
    ],
)
def test_flag_a_command_never_reads_exits_two(command, flag, spec_file, capsys):
    assert run(command, "--spec", spec_file, flag) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "usage"


class TestSolveParams:
    def test_report_is_loadable_as_params(self, spec_file, params_file):
        from halfspace_bubbles.bubble_family import load_params

        params = load_params(params_file)
        assert params.betas[0] == pytest.approx(3**0.25, rel=1e-13)
        assert params.y0[-1] == pytest.approx(-np.sqrt(3.0), rel=1e-13)

    def test_degenerate_spec_reports_kernel(self, tmp_path):
        spec = tmp_path / "degenerate.json"
        spec.write_text(
            json.dumps(
                {"N": 4, "m": 2, "A": [[2.0, 1.0], [1.0, 2.0]],
                 "B": [[1.0, 1.0], [1.0, 1.0]], "c": [-1.0, -1.0]}
            )
        )
        out = tmp_path / "report.json"
        assert run("solve-params", "--spec", spec, "--sigma", "1.0", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["nullity"] == 1
        assert len(report["null_basis"]) == 1
        logb = np.log(report["betas"])
        assert logb.sum() == pytest.approx(np.log(8.0), abs=1e-12)

    def test_incompatible_rows_exit_one(self, tmp_path, capsys):
        spec = tmp_path / "incompatible.json"
        spec.write_text(
            json.dumps(
                {"N": 4, "m": 2, "A": [[1.0, 2.0], [2.0, 1.0]],
                 "B": [[1.0, 1.0], [1.0, 1.0]], "c": [-1.0, -0.5]}
            )
        )
        assert run("solve-params", "--spec", spec, "--sigma", "1.0") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error_code"] == "incompatible_boundary_coefficients"


class TestPipelines:
    def test_verify_passes(self, spec_file, params_file, tmp_path):
        out = tmp_path / "verify.json"
        assert run("verify", "--spec", spec_file, "--params", params_file, "--out", out, "--csv") == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["analytic"]["interior_max_rel"][0] <= 1e-12

    def test_verify_residual_csv(self, spec_file, params_file, tmp_path):
        from halfspace_bubbles.cli import DEFAULT_SEED
        from halfspace_bubbles.sampling import halfspace_box_points

        csv_bytes = []
        for tag in ("a", "b"):
            out = tmp_path / f"verify-{tag}.json"
            assert run("verify", "--spec", spec_file, "--params", params_file,
                       "--out", out, "--n-random", 50, "--csv") == 0
            csv_bytes.append((tmp_path / f"verify-{tag}.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]
        lines = csv_bytes[0].decode().splitlines()
        assert lines[0] == "kind,component,residual"
        # interior rows: the random points at least h = 1e-3 * diameter above the boundary
        box = np.array([[-2.0, 2.0], [-2.0, 2.0], [0.0, 2.0]])  # the default box
        h = 1e-3 * float(np.linalg.norm(box[:, 1] - box[:, 0]))
        k_interior = int(np.sum(halfspace_box_points(box, 50, DEFAULT_SEED)[:, -1] >= h))
        k_boundary = 50
        m = 1
        assert len(lines) - 1 == m * (k_interior + k_boundary)
        kinds = [row.split(",")[0] for row in lines[1:]]
        assert kinds.count("interior") == m * k_interior

    def test_verify_csv_counts_dropped_rows(self, spec_file, params_file, tmp_path):
        out = tmp_path / "verify.json"
        n_random = 1000
        assert run("verify", "--spec", spec_file, "--params", params_file,
                   "--out", out, "--n-random", n_random, "--csv") == 0
        counts = json.loads(out.read_text())["csv_interior_points"]
        kinds = [row.split(",")[0] for row in (tmp_path / "verify.csv").read_text().splitlines()]
        assert kinds.count("interior") == counts["written"]  # m = 1
        assert counts["written"] + counts["dropped_below_h"] == n_random
        assert counts["dropped_below_h"] > 0  # this seed puts points within h of y_N = 0

    def test_moving_spheres_passes_and_writes_csv(self, spec_file, params_file, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(
            "moving-spheres", "--spec", spec_file, "--params", params_file,
            "--x", "3,4", "--out", out, "--csv",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rel_gap"] <= 1e-6
        assert report["lambda_exact"] == pytest.approx(np.sqrt(29.0), rel=1e-12)
        csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_text[0].startswith("lambda,component,min_w")
        assert len(csv_text) > 30

    def test_radial_csv(self, spec_file, params_file, tmp_path):
        out = tmp_path / "radial.json"
        assert run("radial", "--spec", spec_file, "--params", params_file,
                   "--out", out, "--csv") == 0
        lines = (tmp_path / "radial.csv").read_text().splitlines()
        assert lines[0] == "r,psi_0,dpsi_0"
        assert len(lines) == 201

    def test_halfline_u0_broadcast(self, spec_file, tmp_path):
        out = tmp_path / "halfline.json"
        assert run("halfline", "--spec", spec_file, "--u0", "2.0", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["u0"] == [2.0]
        assert report["t_star"] > 0


def recording(monkeypatch, module, attr, log, rows_of):
    """Replace module.attr with a wrapper that appends rows_of(args, kwargs) to log."""
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        log.append(rows_of(args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


class TestEachValueOnce:
    def test_verify_sweeps_three_levels(self, spec_file, params_file, tmp_path, monkeypatch):
        from halfspace_bubbles import fd_verifier

        steps = []
        recording(monkeypatch, fd_verifier, "residual_sweep", steps, lambda a, kw: a[4])
        out = tmp_path / "verify.json"
        assert run("verify", "--spec", spec_file, "--params", params_file, "--out", out) == 0
        assert len(steps) == 3  # one sweep per level of h_list = [4h, 2h, h]
        report = json.loads(out.read_text())
        conv = report["convergence"]
        # the "fd" block is the finest level of the convergence study
        assert report["fd"]["h"] == conv["h_list"][-1] == steps[-1]
        assert report["fd"]["sup_interior"] == conv["sup_interior"][-1]
        assert report["fd"]["sup_boundary"] == conv["sup_boundary"][-1]

    def test_moving_spheres_evaluates_samples_once(
        self, spec_file, params_file, tmp_path, monkeypatch
    ):
        from halfspace_bubbles import bubble_family, kelvin_inversion

        evaluated, differenced = [], []
        recording(monkeypatch, bubble_family, "evaluate_bubble", evaluated,
                  lambda a, kw: len(a[1]))
        recording(monkeypatch, kelvin_inversion, "evaluate_bubble", evaluated,
                  lambda a, kw: len(a[1]))
        recording(monkeypatch, kelvin_inversion, "difference_w", differenced,
                  lambda a, kw: len(a[2]))
        out = tmp_path / "sweep.json"
        assert run("moving-spheres", "--spec", spec_file, "--params", params_file,
                   "--x", "3,4", "--out", out) == 0
        n_samples = json.loads(out.read_text())["n_samples"]
        # the full sample set once, then only the inverted points of each radius,
        # bisection midpoint, symmetry check and 0.9/1.1 check
        assert evaluated == [n_samples] + differenced
        assert len(differenced) > 33


class TestDeterminism:
    @pytest.mark.parametrize("command", ["validate", "solve-params", "verify", "halfline"])
    def test_repeat_runs_identical(self, command, spec_file, params_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}.json"
            args = [command, "--spec", spec_file, "--out", out]
            if command == "verify":
                args += ["--params", params_file]
            if command == "solve-params":
                args += ["--sigma", "1.0"]
            assert run(*args) in (0, 1)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def run_child(*args):
    # the child imports the same package as this process, installed or not
    src = str(Path(halfspace_bubbles.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(spec_file):
    proc = run_child("-m", "halfspace_bubbles", "validate", "--spec", str(spec_file))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_import_leaves_scipy_unloaded(tmp_path):
    # with every scipy import made to fail, the package and its CLI import
    # and every subcommand, the radial and half-line solves included,
    # passes on f1-f3
    specs = {"f1": (3, [[5.0]], [[3.0]], [0.0]), "f2": (3, [[5.0]], [[3.0]], [-1.0]),
             "f3": (4, [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0])}
    for name, (N, A, B, c) in specs.items():
        spec = {"N": N, "m": len(c), "A": A, "B": B, "c": c}
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    proc = run_child("-c", """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import halfspace_bubbles, halfspace_bubbles.cli
from halfspace_bubbles import halfline_breakdown, integrate_radial, shoot_robin
codes = {}
for spec in sys.argv[1:]:
    for command in ("validate", "solve-params", "verify", "moving-spheres", "ball", "radial",
                    "halfline"):
        out = spec[:-5] + "." + command + ".out.json"
        argv = [command, "--spec", spec, "--out", out]
        codes[spec + " " + command] = halfspace_bubbles.cli.main(argv)
print(json.dumps(codes))
""", *(str(tmp_path / f"{name}.json") for name in specs))
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert len(codes) == 21 and set(codes.values()) == {0}, codes
