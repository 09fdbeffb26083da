import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from halfspace_bubbles import EllipticSystemSpec, make_bubble_params, validate_spec
from halfspace_bubbles import bubble_family as bf
from halfspace_bubbles import fd_verifier as fd
from halfspace_bubbles import reporting
from halfspace_bubbles.cli import main

from conftest import (
    FIXTURE_NAMES, breakdown_time_radau, fixture_spec, incompatible_rows_spec, run_child,
)


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

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [' + "9" * 401 + "]}",
    ], ids=["no-object", "huge-int"])
    def test_unusable_spec_json_exits_two(self, text, tmp_path, capsys):
        # 401 digits in c ended in an OverflowError traceback, exit 1, before
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run("validate", "--spec", spec) == 2
        assert json.loads(capsys.readouterr().err)["error_code"] == "malformed_spec"

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
        ("radial", "--tol=1e-9"),
        ("halfline", "--tol=1e-9"),
    ],
)
def test_flag_a_command_never_reads_exits_two(command, flag, spec_file, capsys):
    assert run(command, "--spec", spec_file, flag) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "usage"


@pytest.fixture
def input_files(tmp_path, spec_file, params_file):
    """Spec and parameter files the malformed-input cases refer to by name."""
    files = {"spec": spec_file}
    specs = {
        "noncritical": {"N": 3, "m": 1, "A": [[6.0]], "B": [[3.0]], "c": [0.0]},
        "pair": {"N": 4, "m": 2, "A": [[1.0, 2.0], [2.0, 1.0]],
                 "B": [[1.0, 1.0], [1.0, 1.0]], "c": [-1.0, -1.0]},
        "n5": {"N": 5, "m": 1, "A": [[7 / 3]], "B": [[5 / 3]], "c": [-1.0]},
    }
    for name, spec in specs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    params = json.loads(params_file.read_text())
    files["nan_params"] = tmp_path / "nan_params.json"
    files["nan_params"].write_text(json.dumps({**params, "sigma": float("nan")}))
    return files


@pytest.mark.parametrize(
    "command, error_code, hangs",
    [
        ("validate --spec {noncritical} --tol=nan", "usage", False),
        ("validate --spec {spec} --tol=inf", "usage", False),
        ("validate --spec {spec} --tol=-1e-9", "usage", False),
        ("solve-params --spec {spec} --sigma=nan", "usage", False),
        ("solve-params --spec {spec} --tol=0", "usage", False),
        ("verify --spec {spec} --sigma=-1", "usage", False),
        ("verify --spec {spec} --h=nan", "usage", False),
        ("verify --spec {spec} --box=-1,1,-1,1,0,nan", "malformed_spec", False),
        # a box whose top lies below the largest step of the residual study
        ("verify --spec {spec} --box=-2,2,-2,2,0,0.01 --h=0.01", "stencil_out_of_domain", False),
        ("ball --spec {spec} --h=-inf", "usage", False),
        ("moving-spheres --spec {spec} --lambda-lo=nan", "usage", False),
        ("moving-spheres --spec {spec} --lambda-hi=0", "usage", False),
        ("moving-spheres --spec {spec} --x=1,,0", "malformed_spec", False),
        ("moving-spheres --spec {spec} --x=1,2,", "malformed_spec", False),
        ("halfline --spec {pair} --u0=1,2,3", "malformed_spec", False),
        ("halfline --spec {spec} --u0=", "malformed_spec", False),
        # each of these never returned before the check: a NaN step loops forever
        ("halfline --spec {spec} --u0=nan", "malformed_spec", True),
        ("halfline --spec {spec} --u0=inf", "malformed_spec", True),
        ("radial --spec {spec} --sigma=nan", "usage", True),
        ("radial --spec {spec} --params {nan_params}", "input_error", True),
    ],
)
def test_non_finite_or_malformed_input_exits_two(command, error_code, hangs, input_files, capsys):
    argv = [a.format(**input_files) for a in command.split()]
    if hangs:
        # in a child with a deadline, so that a regression fails instead of stalling
        proc = run_child("-m", "halfspace_bubbles", *argv, timeout=60)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error_code"] == error_code


@pytest.mark.parametrize(
    "command",
    [
        "verify --spec {spec} --grid=0",
        "verify --spec {spec} --grid=-2",
        "verify --spec {spec} --n-random=0",
        "verify --spec {spec} --n-random=1.5",
        # an IndexError traceback (exit 1) before the flag had a type of its own
        "moving-spheres --spec {spec} --n-lambda=0",
        # one radius brackets nothing: this exited 1 as a failed check
        "moving-spheres --spec {spec} --n-lambda=1",
        "moving-spheres --spec {spec} --grid=0",
        "ball --spec {spec} --grid=0",
        # numpy's "expected non-negative integer", an input_error, before the flag
        # had a type of its own
        "verify --spec {spec} --seed=-1",
        "moving-spheres --spec {spec} --seed=-1",
        "ball --spec {spec} --seed=-1",
    ],
)
def test_bad_count_flag_is_a_usage_error(command, input_files, capsys):
    code = main([a.format(**input_files) for a in command.split()])
    assert code == 2
    # one error object on stderr and nothing else, so no traceback
    assert json.loads(capsys.readouterr().err)["error_code"] == "usage"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command",
    [
        # sigma**2 overflows in the amplitude solve
        *(f"{name} --spec {{spec}} --sigma=1e200"
          for name in ("solve-params", "verify", "moving-spheres", "ball", "radial")),
        # sigma^2 N (N-2) overflows: betas of Infinity, a y0N of NaN and exit 0, after a warning
        "solve-params --spec {spec} --sigma=1e154",
        "verify --spec {spec} --sigma=1e154",
        # sigma**2 underflows to 0, and log(0) warned before the solve failed
        "solve-params --spec {spec} --sigma=1e-200",
        # sigma**2 is subnormal, and y0N lost its digits (-1.7320411e-160, exit 0)
        "solve-params --spec {spec} --sigma=1e-160",
        "radial --spec {spec} --sigma=1e-160",
        # M**(N/(N-2)), which maps the unit-scale slopes back, overflows
        "halfline --spec {spec} --u0=1e103",
        "halfline --spec {n5} --u0=1e300",
        # M**3 underflows, so every slope read 0 and the monotonicity gate NaN
        "halfline --spec {spec} --u0=1e-120",
    ],
)
def test_extreme_scale_is_an_input_error(command, input_files, capsys):
    # these exited 1 with an OverflowError traceback, or with a NaN check
    code = main([a.format(**input_files) for a in command.split()])
    assert code == 2
    # one error object on stderr and nothing else; a scale's detail names its flag
    error = json.loads(capsys.readouterr().err)
    assert error["error_code"] == "input_error"
    assert ("--sigma" in error["detail"]) == ("--sigma" in command)


@pytest.mark.parametrize("sigma", ["1e150", "1e-150"])
def test_solve_params_passes_at_extreme_scales_inside_the_range(sigma, spec_file, capsys):
    assert run("solve-params", "--spec", spec_file, "--sigma", sigma) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.all(np.isfinite(report["betas"] + report["y0"]))
    # f2's center height -sqrt(3) sigma, to the rounding of the solve
    assert report["y0"][-1] == pytest.approx(-np.sqrt(3.0) * float(sigma), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma, in_range", [
    *((sigma, False) for sigma in ("1e200", "1e154", "1e-200", "1e-160")),
    *((sigma, True) for sigma in ("1e150", "1e-150", "1e-9", "1", "1e9")),
])
def test_library_member_at_sigma_is_the_solve_params_report(
    sigma, in_range, spec_file, tmp_path, capsys
):
    # make_bubble_params owns the range rule: it raises exactly where --sigma exits 2,
    # and in range returns the reported params bit for bit (y0N read -1.7320411e-160)
    out = tmp_path / "params.json"
    code = run("solve-params", "--spec", spec_file, "--sigma", sigma, "--out", out)
    spec = EllipticSystemSpec.from_dict(json.loads(spec_file.read_text()))
    if not in_range:
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error_code"] == "input_error"
        with pytest.raises(ValueError, match="is out of range"):
            make_bubble_params(spec, float(sigma))
        return
    assert code == 0
    params = make_bubble_params(spec, float(sigma))
    report = json.loads(out.read_text())
    assert params.betas.tobytes() == np.array(report["betas"]).tobytes()
    assert params.y0.tobytes() == np.array(report["y0"]).tobytes()


PARAMS_FILES = {
    # each exited 2 as input_error with a bare detail, the last two with "'sigma'"
    "invalid-json": ("{{not json", "{path}"),
    "missing-key": ('{{"betas": [1.0], "y0": [0.0, 0.0, -1.0]}}', "'sigma'"),
    "spec-file": ("{spec}", "'sigma'"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(PARAMS_FILES))
@pytest.mark.parametrize("command", ["verify", "radial"])
def test_unreadable_params_file_is_malformed(command, case, spec_file, tmp_path, capsys):
    text, named = PARAMS_FILES[case]
    path = tmp_path / "params.json"
    path.write_text(text.format(spec=spec_file.read_text()))
    assert run(command, "--spec", spec_file, "--params", path, "--out", tmp_path / "out.json") == 2
    # one error object on stderr and nothing else; its detail names the file or the key
    error = json.loads(capsys.readouterr().err)
    assert error["error_code"] == "malformed_spec"
    assert named.format(path=path) in error["detail"]


@pytest.mark.parametrize("u0", ["1e100", "1e-100"])
def test_halfline_passes_at_extreme_scales_inside_the_range(u0, spec_file, tmp_path):
    assert run("halfline", "--spec", spec_file, "--u0", u0, "--out", tmp_path / "h.json") == 0


PARAMS_EDITS = {
    # shapes that do not fit the spec (N = 3, m = 1); each of these exited 0 or 1 before
    "two-betas": ({"betas": [1.0, 1.0]}, "malformed_spec"),
    "y0-of-two": ({"y0": [0.0, -1.0]}, "malformed_spec"),
    "y0-of-four": ({"y0": [0.0, 0.0, 0.0, -1.0]}, "malformed_spec"),
    "y0-2d": ({"y0": [[0.0, 0.0, -1.0]]}, "malformed_spec"),
    "sigma-list": ({"sigma": [1.0]}, "malformed_spec"),
    # non-finite entries, which Python's json reads as NaN and Infinity
    "nan-beta": ({"betas": [float("nan")]}, "input_error"),
    "infinite-y0": ({"y0": [float("inf"), 0.0, -1.0]}, "input_error"),
    # entries that are no JSON number, once read as 1.0 and 0.0
    "string-sigma": ({"sigma": "1.0"}, "malformed_spec"),
    "bool-beta": ({"betas": [True]}, "malformed_spec"),
    "string-y0": ({"y0": ["0", 0.0, -1.0]}, "malformed_spec"),
    # 401 digits: an OverflowError traceback, exit 1, before
    "huge-int-beta": ({"betas": [10**400]}, "malformed_spec"),
}


@pytest.mark.parametrize("edit", sorted(PARAMS_EDITS))
@pytest.mark.parametrize("command", ["verify", "moving-spheres", "ball", "radial"])
def test_params_that_do_not_fit_the_spec_exit_two(
    command, edit, spec_file, params_file, tmp_path, capsys
):
    fields, error_code = PARAMS_EDITS[edit]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**json.loads(params_file.read_text()), **fields}))
    capsys.readouterr()
    assert run(command, "--spec", spec_file, "--params", path, "--out", tmp_path / "out.json") == 2
    # one error object on stderr and nothing else, so no traceback
    assert json.loads(capsys.readouterr().err)["error_code"] == error_code


@pytest.mark.parametrize("command", ["verify", "moving-spheres", "ball", "radial"])
def test_params_file_that_is_no_object_exits_two(command, spec_file, tmp_path, capsys):
    # a TypeError traceback, exit 1, before
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run(command, "--spec", spec_file, "--params", path, "--out", tmp_path / "out.json") == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error_code"] == "malformed_spec"
    assert str(path) in error["detail"]


@pytest.mark.parametrize(
    "command, N, A, B, c",
    [
        ("ball", 3, [[5.0]], [[3.0]], [1000.0]),
        ("ball", 3, [[5.0]], [[3.0]], [-1000.0]),
        ("ball", 4, [[1.0, 2.0], [0.5, 2.5]], [[0.5, 1.5], [1.2, 0.8]], [-1000.0, -1000.0]),
        ("radial", 3, [[5.0]], [[3.0]], [-1e5]),
    ],
)
def test_transport_passes_far_from_the_boundary(command, N, A, B, c, tmp_path):
    # |y0N| / sigma grows with |c|, so the center sits 1.7e3 widths (1.7e5 for
    # radial) off the boundary: the recovered (mu, alphas) must not cancel there
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": N, "m": len(c), "A": A, "B": B, "c": c}))
    assert run(command, "--spec", spec, "--out", tmp_path / "out.json") == 0


def test_two_radii_are_enough_to_sweep(spec_file, params_file, tmp_path):
    out = tmp_path / "sweep.json"
    assert run("moving-spheres", "--spec", spec_file, "--params", params_file,
               "--n-lambda", "2", "--out", out) == 0


@pytest.mark.parametrize("lambda_lo", ["2.000000002", "2.0000002", "2.5"])
def test_sweep_starting_past_the_critical_radius_is_a_bad_bracket(
    lambda_lo, spec_file, tmp_path, capsys
):
    # the critical radius about x = 0 is 2: each start past it, however close,
    # exits 1 with the same error code and the same message form
    assert run("moving-spheres", "--spec", spec_file, "--lambda-lo", lambda_lo,
               "--out", tmp_path / "sweep.json") == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error_code"] == "bad_bracket"
    detail = error["detail"]
    assert detail.startswith("min w = -")
    assert detail.endswith(f" < 0 at lambda_lo={lambda_lo}; start below the critical radius")


def test_sweep_ending_below_the_critical_radius_finds_no_crossing(spec_file, tmp_path, capsys):
    # the critical radius about x = 0 is 2: a sweep up to 1.5 never sees min w < 0,
    # so the report has no numeric radius and its one failing check says so
    out = tmp_path / "sweep.json"
    assert run("moving-spheres", "--spec", spec_file, "--lambda-hi", "1.5", "--csv",
               "--out", out) == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["lambda_numeric"] is None
    assert report["rel_gap"] is None
    assert report["bracket"] is None
    failed = [check["name"] for check in report["checks"] if not check["passed"]]
    assert failed == ["critical_radius_found"]
    rows = out.with_suffix(".csv").read_text().splitlines()
    assert len(rows) == 1 + 33  # header, then one row per radius of the default grid
    assert all(float(row.split(",")[2]) > 0.0 for row in rows[1:])  # min_w


def test_seed_zero_is_a_seed(spec_file, params_file, tmp_path):
    out = tmp_path / "verify.json"
    assert run("verify", "--spec", spec_file, "--params", params_file, "--grid", "4",
               "--n-random", "50", "--seed", "0", "--out", out) == 0
    assert json.loads(out.read_text())["seed"] == 0


@pytest.mark.parametrize("grid, n_samples", [(33, 10000), (101, 10201)])
def test_ball_grid_is_the_sqrt_of_at_least_ten_thousand_samples(
    grid, n_samples, spec_file, params_file, tmp_path
):
    out = tmp_path / "ball.json"
    assert run("ball", "--spec", spec_file, "--params", params_file, "--grid", grid,
               "--out", out) == 0
    assert json.loads(out.read_text())["t_properties"]["n_samples"] == n_samples


def test_one_parser_serves_every_call(spec_file, params_file, tmp_path):
    from halfspace_bubbles.cli import build_parser

    assert build_parser() is build_parser()
    out = tmp_path / "verify.json"
    assert run("verify", "--spec", spec_file, "--params", params_file, "--grid", "4",
               "--n-random", "50", "--out", out) == 0
    assert json.loads(out.read_text())["n_random"] == 50
    # the flags of one call do not carry over into the next
    assert run("verify", "--spec", spec_file, "--params", params_file, "--grid", "4",
               "--out", out) == 0
    assert json.loads(out.read_text())["n_random"] == 1000


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("sigma", ["1e-12", "1e-6", "1e9"])
@pytest.mark.parametrize("command", [["moving-spheres", "--grid", "6", "--n-lambda", "8"],
                                     ["ball", "--grid", "1"]], ids=["moving-spheres", "ball"])
def test_field_checks_pass_at_every_scale(name, sigma, command, tmp_path):
    # critical scaling maps the bubble of sigma = 1 onto these, and the sample
    # sets scale with the bubble: so must every distance guard
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fixture_spec(name).to_dict()))
    assert run(*command, "--spec", spec, "--sigma", sigma, "--out", tmp_path / "out.json") == 0


@pytest.mark.parametrize("command", ["validate", "solve-params", "verify", "moving-spheres",
                                     "ball", "radial", "halfline"])
def test_asymmetric_fixture_passes_every_subcommand(command, tmp_path):
    # f4's A and B have unequal row and column sums, so an exponent matrix
    # read transposed at any site makes one of these exit 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fixture_spec("f4").to_dict()))
    assert run(command, "--spec", spec, "--out", tmp_path / "out.json") == 0


@st.composite
def admissible_asymmetric_specs(draw, coefficients=None):
    """N in 3..5, m in 2..3: A irreducible and B with critical row sums, one shared c.

    Rows are random weights scaled to the row targets, so A and (for c < 0)
    B have unequal row and column sums.  Rows with c >= 0 are diagonal.
    All rows have the same sums and the same c, so equal betas solve the
    amplitude system.  c takes a few fixed values: a continuous one could
    land near a zero of the radial profile's third derivative, where the
    ball's boundary slope breaks (ROADMAP item 1).  N = 4 with c = 0 lands
    on one; test_ball_passes_on_the_zero_third_derivative holds that case.
    A caller that runs no ball check passes its own ``coefficients`` strategy.
    """
    N, m = draw(st.integers(3, 5)), draw(st.integers(2, 3))
    p, q = (N + 2) / (N - 2), N / (N - 2)
    # for m = 3, drop at most one entry off the cycle 0 -> 1 -> 2 -> 0
    dropped = draw(st.sampled_from([None, (0, 2), (1, 0), (2, 1)])) if m == 3 else None

    def row(i, total):
        weights = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
        if dropped is not None and dropped[0] == i:
            weights[dropped[1]] = 0.0
        return [total * w / sum(weights) for w in weights]

    A = [row(i, p) for i in range(m)]
    # nullity 0: the amplitude solution is unique, so it is the equal one
    assume(abs(np.linalg.det(np.eye(m) - np.array(A))) > 1e-2)
    if coefficients is None:
        coefficients = st.sampled_from([-1.0, -0.5, 0.5] if N == 4 else [-1.0, -0.5, 0.0, 0.5])
    c = draw(coefficients)
    B = [row(i, q) for i in range(m)] if c < 0 else (q * np.eye(m)).tolist()
    return EllipticSystemSpec(N=N, m=m, A=A, B=B, c=[c] * m)


@settings(max_examples=6)
@given(spec=admissible_asymmetric_specs())
@example(spec=EllipticSystemSpec(
    N=5, m=3, A=[[1.0, 1.0, 1 / 3], [0.5, 0.5, 4 / 3], [2.0, 1 / 3, 0.0]],
    B=[[1.0, 0.5, 1 / 6], [0.2, 0.8, 2 / 3], [0.0, 1.5, 1 / 6]], c=[-0.5] * 3))
def test_admissible_asymmetric_specs_pass_every_check(spec, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spec")
    path, params, out = tmp / "spec.json", tmp / "params.json", tmp / "out.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert validate_spec(spec).passed
    assert run("solve-params", "--spec", path, "--out", params) == 0
    # equal betas (sigma^2 N (N-2))^((N-2)/4), center height sigma c sqrt(N/(N-2)); sigma = 1
    N, c = spec.N, spec.c[0]
    solved = json.loads(params.read_text())
    np.testing.assert_allclose(solved["betas"], (N * (N - 2)) ** ((N - 2) / 4), rtol=1e-13)
    assert solved["y0"][-1] == pytest.approx(c * np.sqrt(N / (N - 2)), rel=1e-13, abs=1e-13)
    for command in (["verify", "--grid", "4", "--n-random", "50"],
                    ["moving-spheres", "--grid", "6", "--n-lambda", "8"],
                    ["ball", "--grid", "1"], ["radial"]):
        assert run(*command, "--spec", path, "--params", params, "--out", out) == 0
    # unequal starts: equal ones stay on the diagonal, where every row sees the same values
    u0 = [1.0 + k for k in range(spec.m)]
    assert run("halfline", "--u0", ",".join(map(str, u0)), "--spec", path, "--out", out) == 0
    t_star = json.loads(out.read_text())["t_star"]
    assert t_star == pytest.approx(breakdown_time_radau(spec, u0), rel=1e-10)


@settings(max_examples=8)
# a nonzero subnormal c is a structural violation, so it is not drawn
@given(spec=admissible_asymmetric_specs(st.floats(-1e3, 1e3, allow_subnormal=False)))
def test_radial_shoots_admissible_specs_at_large_coefficients(spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    out = path.with_name("out.json")
    assert run("radial", "--spec", path, "--out", out) == 0
    report = json.loads(out.read_text())
    # psi_ref's tolerance 1e-12 sets the floor: up to 9e-13 on N = 3 near c = 0.5
    assert max(report["shooting_mu_rel_gap"], report["shooting_alpha_rel_gap"]) <= 1e-11


M1_EXPONENTS = {3: (5.0, 3.0), 4: (3.0, 2.0), 5: (7 / 3, 5 / 3)}  # A, B of m = 1 by N


@pytest.mark.parametrize("c", [1.0, -1.0, 10.0, -10.0, 1e2, -1e2, 1e3, -1e3, 1e4, -1e4, 1e5, 3e5])
@pytest.mark.parametrize("N", sorted(M1_EXPONENTS))
def test_radial_shoots_every_coefficient(N, c, tmp_path):
    # the Robin root s* = 2d / mu runs from about 3e-5 (c = -1e4) to 1e6
    # (N = 3, c = 3e5); psi_ref on [0, 1] and its Kelvin image cover both ends
    A, B = M1_EXPONENTS[N]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": N, "m": 1, "A": [[A]], "B": [[B]], "c": [c]}))
    assert run("radial", "--spec", spec, "--out", tmp_path / "out.json") == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert max(report["shooting_mu_rel_gap"], report["shooting_alpha_rel_gap"]) <= 1e-12
    assert report["kelvin_duality_residual"] <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: N = 4 with c = 0 puts the ball's "
                   "boundary on a zero of the profile's third derivative; the one-sided "
                   "stencil's slope reads 3 and the order-2 gate fails")
def test_ball_passes_on_the_zero_third_derivative(tmp_path):
    spec = EllipticSystemSpec(N=4, m=2, A=[[1.0, 2.0], [0.5, 2.5]], B=2 * np.eye(2),
                              c=[0.0, 0.0])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert run("ball", "--grid", "1", "--spec", path, "--out", tmp_path / "out.json") == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a pre-asymptotic one-sided truncation "
                   "term; the boundary sups 0.0563, 0.0159 and 0.0042 fit a slope of 1.87 "
                   "and fd_slope_gap_0 reads 0.128")
def test_verify_passes_on_the_seeded_n5_spec(tmp_path):
    # s25.verify of the field_checks benchmark at seed 42, which no known-defect tag covers
    spec = {"N": 5, "m": 1, "A": [[7 / 3]], "B": [[5 / 3]], "c": [-0.5395797553072732]}
    params = {"sigma": 0.5272336639529915, "betas": [2.9179184002361302],
              "y0": [0.19314250997548932, -0.3086257766403995, 0.5728563564073639,
                     -0.12721223225878409, -0.36726805404945934]}
    files = {}
    for name, data in (("spec", spec), ("params", params)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    assert run("verify", "--spec", files["spec"], "--params", files["params"], "--grid", "9",
               "--out", tmp_path / "out.json") == 0


SUBNORMAL_C = {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-2.2250738585e-313]}


def test_subnormal_coefficient_fails_validation(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SUBNORMAL_C))
    out = tmp_path / "report.json"
    assert run("validate", "--spec", spec, "--out", out) == 1
    assert json.loads(out.read_text())["violations"] == [
        {"rule": "c_zero_or_normal", "index": 0, "measured": -2.2250738585e-313,
         "expected": np.finfo(float).tiny}
    ]


@pytest.mark.parametrize("command", [["solve-params"], ["verify"], ["moving-spheres"], ["ball"],
                                     ["radial"], ["halfline", "--u0", "1.0"]])
def test_subnormal_coefficient_is_a_malformed_spec(command, tmp_path, capsys):
    # c keeps about 35 bits, so the flux could not be checked to 1e-12: verify exited 1 on it
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SUBNORMAL_C))
    assert run(*command, "--spec", spec, "--out", tmp_path / "out.json") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "malformed_spec" and "c_zero_or_normal" in err["detail"]


def test_non_finite_report_value_exits_one_naming_its_key(spec_file, tmp_path, capsys, monkeypatch):
    def nan_residuals(spec, params, y):
        return np.full((len(y), spec.m), np.nan)

    monkeypatch.setattr(bf, "interior_residual_relative", nan_residuals)
    out = tmp_path / "verify.json"
    assert run("verify", "--spec", spec_file, "--grid", 4, "--n-random", 50, "--out", out) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "non_finite_report"
    assert "'analytic.interior_max_rel.0'" in err["detail"]
    assert not out.exists()


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

    @pytest.mark.parametrize("sigma", ["1e-150", "1e-9", "1", "1e9", "1e150"])
    def test_incompatible_rows_exit_one_at_every_scale(self, sigma, tmp_path, capsys):
        # the heights scale with sigma and differ by a factor of 2; an absolute
        # spread bound let sigma = 1e-9 and 1e-10 through
        spec = tmp_path / "x3.json"
        spec.write_text(json.dumps(incompatible_rows_spec().to_dict()))
        assert run("solve-params", "--spec", spec, "--sigma", sigma) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error_code"] == "incompatible_boundary_coefficients"


class TestPipelines:
    @pytest.mark.parametrize("command", [["verify", "--grid", "5", "--n-random", "300", "--csv"],
                                         ["ball", "--grid", "1"]])
    def test_block_size_leaves_the_files_unchanged(self, command, monkeypatch, tmp_path):
        # f3 (m = 2) in blocks of 7 points: the lattices, samples and CSV passes all end partial
        spec = tmp_path / "f3.json"
        spec.write_text(json.dumps(fixture_spec("f3").to_dict()))
        files = []
        for block, tag in ((7, "a"), (10**6, "b")):
            monkeypatch.setattr(fd, "BLOCK_CENTERS", block)
            monkeypatch.setattr(reporting, "_VALUES_PER_PASS", block)
            out = tmp_path / f"{tag}.json"
            assert run(*command, "--spec", spec, "--out", out) == 0
            files.append([p.read_bytes() for p in (out, out.with_suffix(".csv")) if p.exists()])
        assert files[0] == files[1]

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
        from halfspace_bubbles import bubble_family

        evaluated, neighbours = [], []
        recording(monkeypatch, bubble_family, "evaluate_bubble", evaluated,
                  lambda a, kw: len(a[1]))
        recording(monkeypatch, bubble_family, "axis_neighbours", neighbours,
                  lambda a, kw: 2 * a[1].shape[1] * len(a[1]))
        out = tmp_path / "verify.json"
        assert run("verify", "--spec", spec_file, "--params", params_file, "--out", out) == 0
        # N = 3 on the default 8-point lattice: each interior center once plus its
        # 2N neighbours at each of the 3 steps, each boundary center once plus its 2
        # inward points at each step; one residual pass serves every level.  The
        # bubble's central stencils are its axis neighbours, not evaluated points
        n_interior, n_boundary, N = 8**3, 8**2, 3
        assert sum(neighbours) == n_interior * 3 * 2 * N
        assert sum(evaluated) + sum(neighbours) == (n_interior * (1 + 3 * 2 * N)
                                                    + n_boundary * (1 + 3 * 2))
        report = json.loads(out.read_text())
        conv = report["convergence"]
        # the "fd" block is the finest level of the convergence study
        assert report["fd"]["h"] == conv["h_list"][-1] == min(conv["h_list"])
        assert report["fd"]["sup_interior"] == conv["sup_interior"][-1]
        assert report["fd"]["sup_boundary"] == conv["sup_boundary"][-1]

    def test_moving_spheres_evaluates_samples_once(
        self, spec_file, params_file, tmp_path, monkeypatch
    ):
        from halfspace_bubbles import bubble_family, kelvin_inversion

        evaluated, inverted = [], []
        recording(monkeypatch, bubble_family, "evaluate_bubble", evaluated,
                  lambda a, kw: len(a[1]))
        recording(monkeypatch, kelvin_inversion, "evaluate_bubble", evaluated,
                  lambda a, kw: len(a[1]))
        recording(monkeypatch, kelvin_inversion, "_w_outside", inverted,
                  lambda a, kw: (a[1].dist, a[2]))
        out = tmp_path / "sweep.json"
        assert run("moving-spheres", "--spec", spec_file, "--params", params_file,
                   "--x", "3,4", "--out", out) == 0
        report = json.loads(out.read_text())
        n_samples, lam = report["n_samples"], report["lambda_exact"]
        dist = inverted[0][0]
        # the sweep radii and bisection midpoints, then 0.9 and 1.1 of the critical radius
        *swept, below, above = [radius for _, radius in inverted]
        assert (below, above) == (0.9 * lam, 1.1 * lam)
        assert len(swept) > 33

        def outside(radius):
            return int(np.count_nonzero(dist >= radius))

        # the full sample set once; then at each radius u at the inverted points of
        # the samples at distance >= it; the symmetry check inverts every sample
        assert evaluated == ([n_samples] + [outside(r) for r in swept] + [n_samples]
                             + [outside(below), outside(above)])
        assert outside(swept[-1]) < n_samples

    def test_ball_study_evaluates_each_center_once(
        self, spec_file, params_file, tmp_path, monkeypatch
    ):
        from halfspace_bubbles import conformal_ball

        evaluated, studying = [], []
        study = conformal_ball.ball_system_residual

        def flagged_study(*args, **kwargs):
            studying.append(True)
            try:
                return study(*args, **kwargs)
            finally:
                studying.pop()

        monkeypatch.setattr(conformal_ball, "ball_system_residual", flagged_study)
        recording(monkeypatch, conformal_ball, "transform_v", evaluated,
                  lambda a, kw: len(a[2]) if studying else 0)
        assert run("ball", "--spec", spec_file, "--params", params_file,
                   "--out", tmp_path / "ball.json") == 0
        # N = 3: the 400 interior and 200 boundary centers once, then at each of the
        # 3 steps the 2N neighbours of each interior center and the 2 inward points
        # of each boundary center
        N = 3
        assert sum(evaluated) == 600 + 3 * (400 * 2 * N + 200 * 2) == 9000

    def test_radial_shoots_once(self, spec_file, params_file, tmp_path, monkeypatch):
        from halfspace_bubbles import radial_ode

        solves, fits = [], []
        recording(monkeypatch, radial_ode, "solve_ivp", solves, lambda a, kw: a[1])
        recording(monkeypatch, radial_ode, "least_squares", fits, lambda a, kw: a[1])
        out = tmp_path / "radial.json"
        assert run("radial", "--spec", spec_file, "--params", params_file,
                   "--out", out, "--csv") == 0
        # the closed-form comparison and the CSV read the shot profile
        assert (len(solves), len(fits)) == (1, 1)

    def test_halfline_reports_the_event(self, spec_file, tmp_path, monkeypatch):
        from halfspace_bubbles import ode, radial_ode

        results, evaluated = [], []
        inner = radial_ode.solve_ivp

        def solve(*args, **kwargs):
            results.append(inner(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(radial_ode, "solve_ivp", solve)
        recording(monkeypatch, ode.DenseSolution, "__call__", evaluated, lambda a, kw: a[1])
        out = tmp_path / "halfline.json"
        assert run("halfline", "--spec", spec_file, "--u0", "2.0", "--out", out) == 0
        report = json.loads(out.read_text())
        (sol,) = results
        # u0 = 2 on N = 3 maps unit-scale time by 2**-2 and values by 2, both exact
        assert sol.status == ode.EVENT
        assert report["t_star"] == 0.25 * sol.t[-1]
        assert report["u_at_t_star"] == (2.0 * sol.y[:1, -1]).tolist()
        assert evaluated == []  # no dense output is evaluated after the event

    @pytest.mark.parametrize("name, starts", [
        ("f3", ["1e-4", "1", "1e8"]),
        ("f4", ["1,2", "2,4"]),  # both reduce to the unit-scale start (0.5, 1)
    ])
    def test_halfline_integrates_each_direction_once(self, name, starts, tmp_path, monkeypatch):
        from halfspace_bubbles import radial_ode

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fixture_spec(name).to_dict()))

        def halfline(u0, stem):
            out = tmp_path / f"{stem}-{u0}.json"
            assert run("halfline", "--spec", spec, "--u0", u0, "--out", out, "--csv") == 0
            return out.read_bytes(), out.with_suffix(".csv").read_bytes()

        fresh = {}
        for u0 in starts:
            radial_ode.clear_unit_runs()
            fresh[u0] = halfline(u0, "fresh")
        radial_ode.clear_unit_runs()
        solves = []
        recording(monkeypatch, radial_ode, "solve_ivp", solves, lambda a, kw: a[2])
        for u0 in starts:
            # the report and the full trace, byte for byte, as a fresh solve writes them
            assert halfline(u0, "cached") == fresh[u0]
        assert len(solves) == 1

    def test_radial_integrates_each_reference_once(self, tmp_path, monkeypatch, capsys):
        from halfspace_bubbles import radial_ode

        specs = {"f3": fixture_spec("f3"), "f4": fixture_spec("f4"), "x3": incompatible_rows_spec()}
        for name, spec in specs.items():
            (tmp_path / f"{name}.spec.json").write_text(json.dumps(spec.to_dict()))
            params = make_bubble_params(fixture_spec("f3") if name == "x3" else spec, 1.0)
            (tmp_path / f"{name}.params.json").write_text(json.dumps(params.to_dict()))
        out = tmp_path / "radial.json"

        def radial(name):
            """Exit code, stderr, report and CSV of one call; x3 on f3's params fails its shot."""
            written = (out, out.with_suffix(".csv"))
            for path in written:
                path.unlink(missing_ok=True)
            code = run("radial", "--spec", tmp_path / f"{name}.spec.json",
                       "--params", tmp_path / f"{name}.params.json", "--out", out, "--csv")
            return code, capsys.readouterr().err, [p.read_bytes() for p in written if p.exists()]

        fresh = {}
        for name in specs:
            radial_ode.clear_unit_runs()
            fresh[name] = radial(name)
        assert fresh["x3"][0] == 1 and "shoot_failed" in fresh["x3"][1]
        assert all(len(fresh[name][2]) == 2 for name in ("f3", "f4"))
        radial_ode.clear_unit_runs()
        solves = []
        recording(monkeypatch, radial_ode, "solve_ivp", solves, lambda a, kw: a[1])
        for name in ("f3", "f3", "f3", "f4", "x3"):
            # the report, the trajectory and the stderr, byte for byte, as a fresh solve writes them
            assert radial(name) == fresh[name]
        # one psi_ref per spec: the key tells f4 from f3, whose row sums it shares
        assert len(solves) == 3

    def test_radial_solves_each_root_once(self, spec_file, tmp_path, monkeypatch, capsys):
        from halfspace_bubbles import radial_ode

        x3 = tmp_path / "x3.spec.json"
        x3.write_text(json.dumps(incompatible_rows_spec().to_dict()))
        f3_params = tmp_path / "f3.params.json"
        f3_params.write_text(json.dumps(make_bubble_params(fixture_spec("f3"), 1.0).to_dict()))
        out = tmp_path / "radial.json"
        calls = [["--spec", spec_file, "--sigma", sigma] for sigma in ("1", "2", "5")]
        calls += [["--spec", x3, "--params", f3_params]] * 2

        def radial(argv):
            """Exit code, stderr, report and CSV of one call; x3 on f3's params fails its shot."""
            written = (out, out.with_suffix(".csv"))
            for path in written:
                path.unlink(missing_ok=True)
            code = run("radial", *argv, "--out", out, "--csv")
            return code, capsys.readouterr().err, [p.read_bytes() for p in written if p.exists()]

        fresh = []
        for argv in calls:
            radial_ode.clear_unit_runs()
            fresh.append(radial(argv))
        assert [code for code, *_ in fresh] == [0, 0, 0, 1, 1]
        radial_ode.clear_unit_runs()
        solves, fits = [], []
        recording(monkeypatch, radial_ode, "solve_ivp", solves, lambda a, kw: a[1])
        recording(monkeypatch, radial_ode, "least_squares", fits, lambda a, kw: a[1])
        # each d on f2 only rescales the cached root; x3's failed root is cached too
        assert [radial(argv) for argv in calls] == fresh
        assert (len(solves), len(fits)) == (2, 2)

    @pytest.mark.parametrize("command", [["radial"], ["halfline", "--u0", "2.0"]])
    def test_each_call_validates_its_spec_once(self, command, spec_file, tmp_path, monkeypatch):
        from halfspace_bubbles import cli, exponent_system, radial_ode

        validated = []
        # every name validate_spec goes by in the package
        for module in (cli, exponent_system, radial_ode):
            if hasattr(module, "validate_spec"):
                recording(monkeypatch, module, "validate_spec", validated, lambda a, kw: a[0])
        for _ in range(2):
            assert run(*command, "--spec", spec_file, "--out", tmp_path / "out.json") == 0
        assert len(validated) == 2


class TestRadialSensitivity:
    """``radial`` still tells a wrong parameter file from the right one.

    Its match and gaps compare one unit-scale shot against the parameters,
    so a perturbation of 1e-6 must fail and one of 1e-9 must pass.
    """

    @staticmethod
    def radial(tmp_path, name, perturb):
        """Exit code and failed checks, name -> (value, threshold), of ``radial`` on new params."""
        spec = fixture_spec(name)
        (tmp_path / "spec.json").write_text(json.dumps(
            {"N": spec.N, "m": spec.m, "A": spec.A.tolist(), "B": spec.B.tolist(),
             "c": spec.c.tolist()}
        ))
        params = make_bubble_params(spec, 1.0).to_dict()
        perturb(params)
        (tmp_path / "params.json").write_text(json.dumps(params))
        code = run("radial", "--spec", tmp_path / "spec.json",
                   "--params", tmp_path / "params.json", "--out", tmp_path / "radial.json")
        checks = json.loads((tmp_path / "radial.json").read_text())["checks"]
        return code, {c["name"]: (c["value"], c["threshold"]) for c in checks if not c["passed"]}

    @pytest.mark.parametrize("name", ["f2", "f3"])
    @pytest.mark.parametrize("delta, code", [(1e-6, 1), (1e-9, 0)])
    @pytest.mark.parametrize("field", ["beta0", "sigma", "y0N"])
    def test_perturbation_is_caught_above_the_gate(self, name, delta, code, field, tmp_path):
        def perturb(params):
            if field == "beta0":
                params["betas"][0] *= 1 + delta
            elif field == "sigma":
                params["sigma"] *= 1 + delta
            else:
                params["y0"][-1] += delta

        code_seen, failed = self.radial(tmp_path, name, perturb)
        assert code_seen == code
        # the shot profile's own comparison sees it, not only the shooting gaps
        assert ("integration_match_rel" in failed) == (code == 1)

    @pytest.mark.parametrize("name", ["f2", "f3"])
    def test_tangential_shift_passes(self, name, tmp_path):
        def perturb(params):
            params["y0"][0] += 0.5

        assert self.radial(tmp_path, name, perturb) == (0, {})

    def test_each_gate_fails_a_near_miss_by_less_than_a_thousandfold(self, tmp_path):
        # sigma x (1 + 1e-7) on f2: every radial check fails, each by less than
        # 1000x its gate, so a gate loosened 1000-fold lets its own check pass
        def perturb(params):
            params["sigma"] *= 1 + 1e-7

        code, failed = self.radial(tmp_path, "f2", perturb)
        assert code == 1
        assert sorted(failed) == [
            "integration_match_rel", "shooting_alpha_rel_gap", "shooting_mu_rel_gap"]
        for value, threshold in failed.values():
            assert threshold < value < 1000 * threshold

    def test_incompatible_rows_fail_the_least_squares_solve(self, tmp_path, capsys):
        # x3 on f3's params: psi_ref passes its duality check, the solve cannot meet both rows
        spec, params = tmp_path / "x3.json", tmp_path / "params.json"
        spec.write_text(json.dumps(incompatible_rows_spec().to_dict()))
        params.write_text(json.dumps(make_bubble_params(fixture_spec("f3"), 1.0).to_dict()))
        code = run("radial", "--spec", spec, "--params", params, "--out", tmp_path / "out.json")
        error = json.loads(capsys.readouterr().err)
        assert (code, error["error_code"]) == (1, "shoot_failed")
        assert error["detail"].startswith("terminal residual")


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
    proc = run_child("-m", "halfspace_bubbles", "validate", "--spec", str(spec_file))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_benchmark_tracing_resolves_every_name():
    # the benchmark's traced mode wraps program attributes by name, so deleting or
    # renaming one of them would stop it with an AttributeError
    perfbench = Path(__file__).parents[1] / "perfbench"
    proc = run_child("-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                     "import tracing; tracing.install()", str(perfbench))
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracing_counts_a_traced_run(tmp_path):
    # the traced wrappers bind the arguments they count by name, so renaming
    # one (difference_w's y, transform_v's z) would stop only the traced mode
    perfbench = Path(__file__).parents[1] / "perfbench"
    spec = tmp_path / "f1.json"
    spec.write_text(json.dumps({"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [0.0]}))
    proc = run_child("-c", """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.install()
from halfspace_bubbles import cli
spec, out = sys.argv[2], sys.argv[3]
fit = ["--spec", spec, "--sigma", "1.0"]
codes = [cli.main(argv + ["--out", f"{out}/{argv[0]}.json"]) for argv in (
    ["verify", *fit, "--grid", "4", "--n-random", "50", "--csv"],
    ["moving-spheres", *fit, "--grid", "6", "--n-lambda", "8", "--csv"],
    ["ball", *fit, "--grid", "1"],
    ["radial", *fit],
    ["halfline", "--spec", spec],
)]
print(json.dumps({"codes": codes, "counts": tracer.counts}))
""", str(perfbench), str(spec), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 5
    counts = result["counts"]
    for name in ("bubble_family.evaluate_bubble.points", "conformal_ball.transform_v.points",
                 "reporting.bytes_written"):
        assert counts.get(name, 0) > 0, name


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
