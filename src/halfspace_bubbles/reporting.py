"""Canonical report serialization.

Reports are plain dicts with a fixed key order; floats are emitted with
the shortest representation that round-trips, so identical inputs always
produce byte-identical files.  Report dataclasses serialize as their
fields, and every CSV is written by one table writer.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np


def jsonable(obj):
    """Recursively convert reports to plain Python.

    A dataclass becomes its fields in order, less those declared
    ``field(repr=False)``; a named tuple becomes its ``_asdict()``; numpy
    containers and scalars become lists and Python scalars.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if hasattr(obj, "_asdict"):
        return jsonable(obj._asdict())
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


def write_report(report: dict, path: str | Path | None) -> None:
    """Write the report to ``path``, or to stdout when no path is given."""
    text = json.dumps(jsonable(report), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def write_error(code: str, detail: str) -> None:
    """Single machine-readable error object on standard error."""
    sys.stderr.write(json.dumps({"error_code": code, "detail": detail}) + "\n")


def _float_reprs(column: np.ndarray) -> list[str]:
    """repr of every value as a Python float (or int), from one repr of the whole list."""
    text = repr(column.tolist())[1:-1]
    return text.split(", ") if text else []


def _write_table(path: str | Path, header: list[str], blocks) -> None:
    """A CSV table in the bytes of the standard csv writer: unquoted fields, CRLF line ends.

    ``blocks`` are (prefix, columns) pairs: each writes one row per entry
    of its equal-length numpy columns, ``prefix`` then the entries joined
    by commas.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for prefix, columns in blocks:
            reprs = [_float_reprs(column) for column in columns]
            if len(reprs) == 1:
                # one join for the whole column: the residual CSV's hot path
                if reprs[0]:
                    fh.write(prefix + f"\r\n{prefix}".join(reprs[0]) + "\r\n")
            else:
                fh.writelines(prefix + ",".join(row) + "\r\n" for row in zip(*reprs))


def write_sweep_csv(sweep, path: str | Path) -> None:
    """Sweep table: one row per (radius, component) with the location of min w."""
    n_lambda, m = sweep.min_w.shape
    ncoord = sweep.argmin_points.shape[-1]
    columns = [np.repeat(sweep.lambda_grid, m), np.tile(np.arange(m), n_lambda),
               sweep.min_w.ravel(), *sweep.argmin_points.reshape(-1, ncoord).T]
    header = ["lambda", "component", "min_w"] + [f"argmin_{k}" for k in range(ncoord)]
    _write_table(path, header, [("", columns)])


def write_residual_csv(res_int: np.ndarray, res_bdy: np.ndarray, path: str | Path) -> None:
    """Per-point residuals, interior then boundary rows for each component."""
    blocks = [
        (f"{kind},{j},", [column])
        for j in range(res_int.shape[1])
        for kind, column in (("interior", res_int[:, j]), ("boundary", res_bdy[:, j]))
    ]
    _write_table(path, ["kind", "component", "residual"], blocks)


def write_trajectory_csv(trajectory, path: str | Path) -> None:
    """Radial trajectory as (r, values..., derivatives...)."""
    m = trajectory.psi.shape[1]
    header = ["r"] + [f"psi_{i}" for i in range(m)] + [f"dpsi_{i}" for i in range(m)]
    _write_table(path, header, [("", [trajectory.r, *trajectory.psi.T, *trajectory.dpsi.T])])


def write_trace_csv(trace: np.ndarray, path: str | Path, m: int) -> None:
    """Breakdown trace as (t, u_1.., du_1..)."""
    header = ["t"] + [f"u_{i}" for i in range(m)] + [f"du_{i}" for i in range(m)]
    _write_table(path, header, [("", trace.T)])
