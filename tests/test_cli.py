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


def test_console_entry_point(spec_file):
    # the child imports the same package as this process, installed or not
    src = str(Path(halfspace_bubbles.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "halfspace_bubbles", "validate", "--spec", str(spec_file)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
