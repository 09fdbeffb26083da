import csv
import io

import numpy as np
import pytest

from halfspace_bubbles.reporting import write_residual_csv


def csv_writer_bytes(res_int, res_bdy) -> bytes:
    """The residual CSV as ``csv.writer`` writes it, one row per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["kind", "component", "residual"])
    for j in range(res_int.shape[1]):
        writer.writerows(["interior", j, repr(float(v))] for v in res_int[:, j])
        writer.writerows(["boundary", j, repr(float(v))] for v in res_bdy[:, j])
    return buf.getvalue().encode("utf-8")


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
