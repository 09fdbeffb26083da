"""Canonical report serialization.

Reports are plain dicts with a fixed key order; floats are emitted with
the shortest representation that round-trips, so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np


def jsonable(obj):
    """Recursively convert numpy containers and scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dumps_report(report: dict) -> str:
    return json.dumps(jsonable(report), indent=2) + "\n"


def write_report(report: dict, path: str | Path | None) -> None:
    """Write the report to ``path``, or to stdout when no path is given."""
    text = dumps_report(report)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def write_error(code: str, detail: str) -> None:
    """Single machine-readable error object on standard error."""
    sys.stderr.write(json.dumps({"error_code": code, "detail": detail}) + "\n")


def write_sweep_csv(sweep, path: str | Path) -> None:
    """Sweep table: one row per (radius, component) with the location of min w."""
    n_lambda, m = sweep.min_w.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        ncoord = sweep.argmin_points.shape[-1]
        writer.writerow(["lambda", "component", "min_w"] + [f"argmin_{k}" for k in range(ncoord)])
        for i in range(n_lambda):
            for j in range(m):
                writer.writerow(
                    [repr(float(sweep.lambda_grid[i])), j, repr(float(sweep.min_w[i, j]))]
                    + [repr(float(v)) for v in sweep.argmin_points[i, j]]
                )


def _float_reprs(column: np.ndarray) -> list[str]:
    """repr(float(v)) of every value, from one repr of the whole list."""
    text = repr(column.tolist())[1:-1]
    return text.split(", ") if text else []


def write_residual_csv(res_int: np.ndarray, res_bdy: np.ndarray, path: str | Path) -> None:
    """Per-point residuals, interior then boundary rows for each component.

    The bytes are those of ``csv.writer`` rows: unquoted fields, CRLF line ends.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,component,residual\r\n")
        for j in range(res_int.shape[1]):
            for kind, column in (("interior", res_int[:, j]), ("boundary", res_bdy[:, j])):
                reprs = _float_reprs(column)
                if reprs:
                    prefix = f"{kind},{j},"
                    fh.write(prefix + f"\r\n{prefix}".join(reprs) + "\r\n")


def write_trajectory_csv(trajectory, path: str | Path) -> None:
    """Radial trajectory as (r, values..., derivatives...)."""
    m = trajectory.psi.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["r"]
            + [f"psi_{i}" for i in range(m)]
            + [f"dpsi_{i}" for i in range(m)]
        )
        for r, psi, dpsi in zip(trajectory.r, trajectory.psi, trajectory.dpsi):
            writer.writerow(
                [repr(float(r))] + [repr(float(v)) for v in psi] + [repr(float(v)) for v in dpsi]
            )


def write_trace_csv(trace: np.ndarray, path: str | Path, m: int) -> None:
    """Breakdown trace as (t, u_1.., du_1..)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"u_{i}" for i in range(m)] + [f"du_{i}" for i in range(m)])
        for row in trace:
            writer.writerow([repr(float(v)) for v in row])
