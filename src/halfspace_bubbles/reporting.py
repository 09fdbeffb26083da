"""Canonical report serialization.

Reports are plain dicts with a fixed key order; floats are emitted with
the shortest representation that round-trips, so identical inputs always
produce byte-identical files.  Report dataclasses serialize as their
fields; every CSV number is rendered by one vectorized kernel, as repr.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import NonFiniteReport


def jsonable(obj, nan_as_null: bool = False):
    """Recursively convert reports to plain Python.

    A dataclass becomes its fields in order, less those declared
    ``field(repr=False)``; a named tuple becomes its ``_asdict()``; numpy
    containers and scalars become lists and Python scalars.  In a field
    declared ``field(metadata={"nan_as_null": True})`` a NaN stands for "no
    value" and becomes None.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name), f.metadata.get("nan_as_null", False))
                for f in dataclasses.fields(obj) if f.repr}
    if hasattr(obj, "_asdict"):
        return jsonable(obj._asdict())
    if isinstance(obj, dict):
        return {str(k): jsonable(v, nan_as_null) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, nan_as_null) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v, nan_as_null) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return None if nan_as_null and math.isnan(obj) else float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _non_finite_key(obj, key: str = "") -> str | None:
    """Dotted key of the first NaN or infinity in a plain report, None if it has none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        found = _non_finite_key(v, f"{key}.{k}" if key else str(k))
        if found is not None:
            return found
    return None


def write_report(report: dict, path: str | Path | None) -> None:
    """Write the report as strict JSON to ``path``, or to stdout when no path is given.

    A NaN or an infinity has no strict JSON form: it raises NonFiniteReport
    naming its key, and nothing is written.
    """
    report = jsonable(report)
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        key = _non_finite_key(report)
        raise NonFiniteReport(f"report value {key!r} is not finite, which JSON cannot hold") from None
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def write_error(code: str, detail: str) -> None:
    """Single machine-readable error object on standard error."""
    sys.stderr.write(json.dumps({"error_code": code, "detail": detail}) + "\n")


# Every CSV number is rendered by Schubfach (R. Giulietti, "The Schubfach way
# to render doubles", 2020) on uint64 arrays: the shortest decimal that reads
# back as the same double, the nearer one of two, the even one on a tie, as
# repr does.  Every constant is an explicit np.uint64, so the arithmetic is the
# same under NumPy 1.x value-based casting and NEP 50 (a uint64-int64 mix would
# promote to float64).
_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN, _K_MAX = -324, 292
# a cell: the sign, "0." and up to three zeros before a value below 1, 18
# slots for the 17 digits and a point, then e, the exponent's sign and 3 digits
_W = 29
_VALUES_PER_PASS = 1 << 13  # the kernel's scratch is 1.6 MB per pass (6.1 MB at 1 << 15)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g = g1 2**63 + g0 = floor(10**-k 2**-r) + 1 in [2**125, 2**126] per k: g1, g0.

    Built on first use: at import it would cost every process a few ms.
    """
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        g = ((1 << 125 + p.bit_length()) // p if k > 0 else p << 126 >> p.bit_length()) + 1
        words.append((g >> 63, g & (2**63 - 1)))
    return tuple(np.array(words, dtype=np.uint64).T.copy())


@functools.cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray]:
    """A cell's exponent sign and digits at row exponent + 500, and its keep mask at row
    ((sign * 6 + lead) * 19 + size) * 3 + form (0 positional, 1 and 2 the exponent form
    below and from e100), padded to 32 bytes: np.take copies rows of 4 and 32 bytes fastest.
    Built on first use."""
    exponents = b"".join(b"%+04d" % x for x in range(-500, 500))
    sign, lead, size, form = (i[:, None] for i in np.unravel_index(np.arange(684), (2, 6, 19, 3)))
    keeps = np.hstack([sign == 1, np.arange(5) < lead, np.arange(18) < size,
                       form > np.array([0, 0, 1, 0, 0]), np.zeros((684, 3), dtype=bool)])
    return np.frombuffer(exponents, dtype=np.uint8).reshape(-1, 4), keeps


def _mul_hi(a0, a1, b0, b1) -> np.ndarray:
    """High 64 bits of the 128-bit products a b of uint64 arrays given as 32-bit halves (low, high)."""
    p10, p01 = a1 * b0, a0 * b1
    carry = ((a0 * b0 >> _U(32)) + (p10 & _M32) + (p01 & _M32)) >> _U(32)
    return a1 * b1 + (p10 >> _U(32)) + (p01 >> _U(32)) + carry


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) such that f 10**k is repr's decimal of each positive normal double, given as raw bits.

    f has 16 or 17 digits, trailing zeros included.  The double is c 2**q; the
    reals that round to it span at least one and less than ten units of 10**k.
    """
    c = bits & _U(2**52 - 1) | _U(2**52)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    # below a power of two the neighbour is half as far, except at the
    # smallest normal, whose lower neighbour is the largest subnormal
    irregular = (c == _U(2**52)) & (q != -1074)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = (w[k - _K_MIN] for w in _pow10_table())
    halves = [(w & _M32, w >> _U(32)) for w in (g0, g1)]

    def rop(cp):  # (g cp 2**h) >> 127, rounded to odd
        cp = cp << h
        cp2 = (cp & _M32, cp >> _U(32))
        z = (g1 * cp >> _U(1)) + _mul_hi(*halves[0], *cp2)
        return (_mul_hi(*halves[1], *cp2) + (z >> _U(63))) | ((z & _M63) + _M63) >> _U(63)

    # the value and the bounds of the interval rounding to it, in 10**k / 4
    cb = c << _U(2)
    vb, vbl, vbr = rop(cb), rop(cb - _U(2) + irregular), rop(cb + _U(2))
    out = c & _U(1)  # an even significand's interval holds its bounds
    s = vb >> _U(2)
    # the interval holds at most one multiple of ten next to s: one digit fewer
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    # both s and s + 1 round to the value: the nearer one, the even one on a tie
    nearer = (vb < mid) | (vb == mid) & ((s & _U(1)) == _U(0))
    lower = uin & ~win | (uin == win) & nearer
    f = np.where(upin != wpin, sp10 + _U(10) * ~upin, s + ~lower)
    return f, k


def _texts(strings) -> tuple[np.ndarray, np.ndarray]:
    """Cells holding each string (an int: its decimal digits), left aligned, and their keep masks."""
    cells = np.array(strings, dtype=f"S{_W}").view(np.uint8).reshape(-1, _W)
    return cells, cells != 0


def _render(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells holding repr of each float64 of the 1-d ``x``, and their keep masks."""
    bits = x.view(np.uint64) & _M63
    odd = (bits - _U(2**52)) >= _U(0x7FE << 52)  # zero, subnormal, nan, inf
    f, k = _shortest(np.where(odd, _U(0x3FF0000000000000), bits))
    wide = f >= _U(10**16)
    decpt = k + 16 + wide
    # rows 1..17: the 17 digits of f, trailing zeros included, from its two
    # halves of 9 digits (the first is 0); rows 0 and 18 pad the point's shift
    digits = np.full((19, x.size), ord("0"), dtype=np.uint8)
    f = np.where(wide, f, f * _U(10))
    part = np.stack([f // _U(10**9), f % _U(10**9)]).astype(np.uint32)
    for j in range(8, -1, -1):
        rest = part // np.uint32(10)
        digits[:18].reshape(2, 9, -1)[:, j] += (part - rest * np.uint32(10)).astype(np.uint8)
        part = rest
    nd = ((digits[1:18] != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    expo = (decpt <= -4) | (decpt > 16)
    small = ~expo & (decpt <= 0)
    # the point goes after digit `point`; a small value has it in "0.000"
    point = np.where(expo, 1, np.where(small, 18, decpt))
    size = np.where(expo, nd + (nd > 1), np.where(small, nd, np.maximum(nd, decpt + 1) + 1))
    # slot j holds digit j (row j + 1) before the point and digit j - 1 after it
    slot = np.arange(18)[:, None]
    body = digits[:18] + (digits[1:] - digits[:18]) * (slot < point)
    body += (np.uint8(ord(".")) - body) * (slot == point)
    exponents, keeps = _cell_tables()
    cells = np.empty((x.size, _W), dtype=np.uint8)
    cells[:] = np.frombuffer(b"-0.000" + b"0" * 18 + b"e+000", dtype=np.uint8)
    cells[:, 6:24] = body.T
    cells[:, 25:29] = np.take(exponents, decpt + 499, axis=0)
    form = expo * (1 + (np.abs(decpt - 1) >= 100))
    lead = np.where(small, 2 - decpt, 0)
    keep = np.take(keeps, ((np.signbit(x) * 6 + lead) * 19 + size) * 3 + form, axis=0)[:, :_W]
    if odd.any():
        cells[odd], keep[odd] = _texts([repr(v) for v in x[odd].tolist()])
    return cells, keep


def _write_table(path: str | Path, header: list[str], blocks) -> None:
    """A CSV table in the bytes of the standard csv writer: unquoted fields, CRLF line ends.

    ``blocks`` are (prefix, columns) pairs: each writes one row per entry of
    its equal-length numpy columns, ``prefix`` then the entries, each repr of
    the float or int, joined by commas.  Rows are laid out in fixed-width
    cells with a mask of the bytes to keep; the file is the kept bytes.
    """
    columns = [np.concatenate(col) for col in zip(*(cols for _, cols in blocks))]
    values = np.stack(columns, axis=1).astype(np.float64, copy=False)
    prefixes = [np.frombuffer(p.encode(), dtype=np.uint8) for p, _ in blocks]
    width = max(map(len, prefixes))
    ends = np.cumsum([len(cols[0]) for _, cols in blocks]).tolist()
    ncols = len(columns)
    step = max(1, _VALUES_PER_PASS // ncols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(values), step):
            n = len(values[lo : lo + step])
            table = np.empty((n, width + ncols * (_W + 1) + 1), dtype=np.uint8)
            keep = np.ones(table.shape, dtype=bool)
            for prefix, start, end in zip(prefixes, [0] + ends, ends):
                rows = slice(max(start - lo, 0), max(end - lo, 0))
                table[rows, : len(prefix)] = prefix
                keep[rows, len(prefix) : width] = False
            cells, cells_keep = (a[:, width:-1].reshape(n, ncols, _W + 1) for a in (table, keep))
            cells[:, :, _W] = np.frombuffer(b"," * (ncols - 1) + b"\r", dtype=np.uint8)
            table[:, -1] = ord("\n")
            rendered = _render(values[lo : lo + n].ravel())
            cells[..., :_W], cells_keep[..., :_W] = (a.reshape(n, ncols, _W) for a in rendered)
            for j, column in enumerate(columns):
                if column.dtype.kind in "iu":
                    cells[:, j, :_W], cells_keep[:, j, :_W] = _texts(column[lo : lo + n])
            fh.write(table[keep].tobytes())


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
