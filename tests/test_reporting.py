import csv
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfspace_bubbles import reporting
from halfspace_bubbles.cli import main
from halfspace_bubbles.errors import NonFiniteReport
from halfspace_bubbles.fd_verifier import convergence_from_sups
from halfspace_bubbles.kelvin_inversion import SweepResult
from halfspace_bubbles.radial_ode import RadialTrajectory
from halfspace_bubbles.reporting import (
    write_residual_csv,
    write_sweep_csv,
    write_trace_csv,
    write_trajectory_csv,
)


def csv_writer_table(header, rows) -> bytes:
    """A table as ``csv.writer`` writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def csv_writer_bytes(res_int, res_bdy) -> bytes:
    """The residual CSV as ``csv.writer`` writes it, one row per value."""
    rows = [
        [kind, j, repr(float(v))]
        for j in range(res_int.shape[1])
        for kind, column in (("interior", res_int[:, j]), ("boundary", res_bdy[:, j]))
        for v in column
    ]
    return csv_writer_table(["kind", "component", "residual"], rows)


SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 1e-7, 123456789.125]


@pytest.mark.parametrize(
    "res_int, res_bdy",
    [
        (np.array([SPECIAL, SPECIAL[::-1]]).T, np.array([SPECIAL[3:], SPECIAL[:-3]]).T),
        (np.zeros((0, 2)), np.array([[1e16, -0.0], [np.nan, 5e-324]])),
        (np.zeros((0, 1)), np.zeros((0, 1))),
        (np.random.default_rng(5).standard_normal((300, 3)) * 1e-9, np.ones((4, 3)) / 3),
    ],
    ids=["special-values", "no-interior", "empty", "random"],
)
def test_residual_csv_matches_csv_writer_bytes(res_int, res_bdy, tmp_path):
    path = tmp_path / "residuals.csv"
    write_residual_csv(res_int, res_bdy, path)
    assert path.read_bytes() == csv_writer_bytes(res_int, res_bdy)


def float_row(values) -> list[str]:
    return [repr(float(v)) for v in values]


def special_block(shape, seed):
    """Random values of the given shape with the special floats spread through them."""
    values = np.random.default_rng(seed).standard_normal(shape).ravel()
    values[: len(SPECIAL)] = SPECIAL[: values.size]
    return np.random.default_rng(seed + 1).permutation(values).reshape(shape)


@pytest.mark.parametrize("n_lambda, m, N", [(5, 3, 4), (4, 1, 3), (0, 2, 3)])
def test_sweep_csv_matches_csv_writer_bytes(n_lambda, m, N, tmp_path):
    sweep = SweepResult(
        lambda_grid=special_block((n_lambda,), 1),
        min_w=special_block((n_lambda, m), 2),
        argmin_points=special_block((n_lambda, m, N), 3),
        lambda_critical_numeric=None,
        bracket=None,
    )
    header = ["lambda", "component", "min_w"] + [f"argmin_{k}" for k in range(N)]
    rows = [
        float_row([sweep.lambda_grid[i]]) + [j] + float_row([sweep.min_w[i, j]])
        + float_row(sweep.argmin_points[i, j])
        for i in range(n_lambda) for j in range(m)
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    assert path.read_bytes() == csv_writer_table(header, rows)


@pytest.mark.parametrize("n, m", [(12, 2), (7, 1), (0, 1)])
def test_trajectory_csv_matches_csv_writer_bytes(n, m, tmp_path):
    traj = RadialTrajectory(r=special_block((n,), 4), psi=special_block((n, m), 5),
                            dpsi=special_block((n, m), 6), dense=None)
    header = ["r"] + [f"psi_{i}" for i in range(m)] + [f"dpsi_{i}" for i in range(m)]
    rows = [float_row([r, *psi, *dpsi]) for r, psi, dpsi in zip(traj.r, traj.psi, traj.dpsi)]
    path = tmp_path / "radial.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == csv_writer_table(header, rows)


@pytest.mark.parametrize("n, m", [(9, 3), (20, 1)])
def test_trace_csv_matches_csv_writer_bytes(n, m, tmp_path):
    trace = special_block((n, 1 + 2 * m), 7)
    header = ["t"] + [f"u_{i}" for i in range(m)] + [f"du_{i}" for i in range(m)]
    path = tmp_path / "halfline.csv"
    write_trace_csv(trace, path, m)
    assert path.read_bytes() == csv_writer_table(header, [float_row(row) for row in trace])


def table_bytes(tmp_path, header, columns) -> bytes:
    path = tmp_path / "table.csv"
    reporting._write_table(path, header, [("", columns)])
    return path.read_bytes()


def repr_table(header, columns) -> bytes:
    """The table with every entry as repr of its Python value, as csv.writer writes it."""
    return csv_writer_table(header, [[repr(v) for v in row] for row in zip(*(
        column.tolist() for column in columns))])


@given(rows=st.integers(1, 4).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(0, 2**64 - 1), min_size=ncols, max_size=ncols), min_size=1, max_size=50)))
def test_every_bit_pattern_renders_as_repr(rows, tmp_path_factory):
    columns = list(np.array(rows, dtype=np.uint64).view(np.float64).T)
    header = [f"x{j}" for j in range(len(columns))]
    directory = tmp_path_factory.getbasetemp()
    assert table_bytes(directory, header, columns) == repr_table(header, columns)


POWERS_OF_TWO = [x for e in range(-1022, 1024) for x in (
    2.0**e, math.nextafter(2.0**e, 0.0), math.nextafter(2.0**e, math.inf))]


@pytest.mark.parametrize("values", [
    [5e-324, math.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
     1.7976931348623157e308, -0.0, 0.0, math.nan, math.inf, -math.inf],
    POWERS_OF_TWO,
    # the layout edges: exponent form below 1e-4 and from 1e16 on
    [1e-4, math.nextafter(1e-4, 0.0), 1e-5, 1e15, 1e16, math.nextafter(1e16, 0.0),
     9999999999999998.0, 123456789012345680.0, 0.1, 1.5, 100.0, 1e100, 1e-100, 1e300],
    [float(n) for n in [*range(-1000, 1000), *range(2**53 - 1000, 2**53 + 1), *(10**k for k in range(17))]],
    # an even significand's interval holds its bounds: 1e23 is the midpoint of two doubles
    [1e23, -1e23],
    # a tie between two 17-digit decimals goes to the even one
    [1000000000000000.2, 1059438285926254.2],
    # below a power of two the neighbour is half as far: 2**-1019 needs its 17th digit
    [2.0**-1019, 2.0**-1018],
], ids=["extremes", "powers-of-two", "layout-edges", "integers", "even-bounds", "half-even",
        "power-of-two-interval"])
def test_explicit_values_render_as_repr(values, tmp_path):
    column = np.array(values)
    assert table_bytes(tmp_path, ["x"], [column]) == repr_table(["x"], [column])


@pytest.mark.parametrize("columns", [
    [np.zeros(0), np.zeros(0, dtype=np.int64)],
    [np.array([0, -1, 7, 2**63 - 1, -(2**63)], dtype=np.int64), np.array([1.0, -0.0, 2.5, 1e-7, 3.0])],
    [np.array([1.0]), np.array([-2.5e-300]), np.array([3], dtype=np.int64), np.array([np.nan])],
], ids=["empty", "integer-column", "one-row"])
def test_tables_render_as_repr(columns, tmp_path):
    header = [f"x{j}" for j in range(len(columns))]
    assert table_bytes(tmp_path, header, columns) == repr_table(header, columns)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}))
    return path


def report_of(*argv):
    """Exit code and parsed report of one CLI call writing to ``--out``."""
    out = Path(argv[argv.index("--out") + 1])
    code = main([str(a) for a in argv])
    return code, json.loads(out.read_text())


def test_verify_convergence_block_has_no_finest_level(spec_file, tmp_path):
    code, report = report_of("verify", "--spec", spec_file, "--grid", 4, "--n-random", 50,
                             "--out", tmp_path / "verify.json")
    assert code == 0
    assert list(report["convergence"]) == [
        "h_list", "sup_interior", "sup_boundary", "slope", "degenerate",
        "slope_interior", "slope_boundary", "degenerate_interior", "degenerate_boundary",
    ]
    assert list(report["fd"]) == [
        "sup_interior", "sup_boundary", "argmax_interior", "argmax_boundary",
        "h", "n_interior", "n_boundary",
    ]


def test_halfline_report_counts_the_trace(spec_file, tmp_path):
    code, report = report_of("halfline", "--spec", spec_file, "--csv",
                             "--out", tmp_path / "halfline.json")
    assert code == 0
    assert list(report) == ["command", "spec", "u0", "t_star", "failing_component",
                            "u_at_t_star", "n_trace", "checks", "passed"]
    lines = (tmp_path / "halfline.csv").read_text().splitlines()
    assert report["n_trace"] == len(lines) - 1


def test_validate_violations_are_objects(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"N": 4, "m": 2, "A": [[3.0, -0.5], [0.0, 3.0]],
                                "B": [[2.0, 0.0], [0.0, 2.0]], "c": [-1.0, -1.0]}))
    code, report = report_of("validate", "--spec", spec, "--out", tmp_path / "validate.json")
    assert code == 1
    assert list(report) == ["command", "spec", "tol_row", "passed", "violations"]
    assert report["violations"][0] == {"rule": "A_nonnegative", "index": [0, 1],
                                       "measured": -0.5, "expected": 0.0}
    assert {"rule": "A_row_sum", "index": 0, "measured": 2.5, "expected": 3.0} in report[
        "violations"]
    assert report["violations"][-1] == {"rule": "A_irreducible", "index": None,
                                        "measured": 0.0, "expected": 1.0}


@pytest.mark.parametrize("value, key", [(math.nan, "b.1.c"), (math.inf, "b.1.c"),
                                        (np.array([0.5, -np.inf]), "b.1.c.1")])
def test_non_finite_report_value_raises_naming_its_key(value, key, tmp_path):
    out = tmp_path / "report.json"
    report = {"a": 1.0, "b": [{"c": 0.0}, {"c": value}]}
    with pytest.raises(NonFiniteReport, match=f"'{key}' is not finite"):
        reporting.write_report(report, out)
    assert not out.exists()
    assert NonFiniteReport.code == "non_finite_report"


def test_degenerate_slopes_are_written_as_null(tmp_path):
    # c = -1000 at sigma = 1: the ball study's sups sit below the rounding floor, so
    # neither slope is fitted; NaN in memory, null in the report, and the call passes
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1000.0]}))
    code, report = report_of("ball", "--spec", spec, "--out", tmp_path / "ball.json")
    assert code == 0
    slopes = report["residual_slopes"]
    assert slopes["slope_interior"] == slopes["slope_boundary"] == [None]
    assert all(math.isfinite(v) for row in slopes["sup_interior"] for v in row)
    sups = np.array(slopes["sup_interior"])
    assert np.isnan(convergence_from_sups(slopes["h_list"], sups)[0][0])


def test_residual_csv_memory_is_bounded_by_the_pass(tmp_path):
    # 120,000 values: passes of 1 << 15 values traced 12.3 MB
    res = np.random.default_rng(5).standard_normal((60000, 1))
    write_residual_csv(res[:10], res[:10], tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        write_residual_csv(res, res, tmp_path / "res.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
