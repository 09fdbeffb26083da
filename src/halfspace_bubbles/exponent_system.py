"""Structural data of the half-space elliptic system and its validation.

A system is described by the dimension ``N``, the component count ``m``,
the interior exponent matrix ``A``, the boundary exponent matrix ``B`` and
the boundary coefficient vector ``c``:

    lap(u_i) + prod_j u_j**A[i,j] = 0          for y_N > 0,
    d(u_i)/d(y_N) = c[i] * prod_j u_j**B[i,j]  on y_N = 0.

The two nonlinear terms are :meth:`EllipticSystemSpec.source` and ``flux``,
taken in log space: the exponents are fractional, the values span decades.

The structural constraints (row sums pinned to the scale-critical values,
non-negative exponents, irreducibility of ``A``, diagonal boundary rows
wherever ``c[i] >= 0``) are exact identities in exact arithmetic.  Inputs
arrive as decimal text, so this module checks them to the fixed relative
tolerance ``TOL_ROW`` instead; the tolerance policy is an artifact of
floating-point input handling, not part of the mathematical structure.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import MalformedSpec

__all__ = [
    "EllipticSystemSpec",
    "ValidationReport",
    "Violation",
    "interior_row_target",
    "boundary_row_target",
    "is_irreducible",
    "validate_spec",
    "load_json",
    "load_spec",
]


TOL_ROW = 1e-9  # the relative tolerance of the row-sum and diagonal checks


def interior_row_target(N: int) -> float:
    """Required row sum of the interior exponent matrix, (N+2)/(N-2)."""
    return (N + 2) / (N - 2)


def boundary_row_target(N: int) -> float:
    """Required row sum of the boundary exponent matrix, N/(N-2)."""
    return N / (N - 2)


@dataclass(frozen=True, eq=False)
class EllipticSystemSpec:
    """Dimension, component count, exponent matrices and boundary coefficients; frozen.

    A, B and c are read-only copies, checked by :func:`ensure_well_formed` on
    construction, copy and unpickling.  Specs compare and hash by ``key``,
    taken once: N, m and the shape and bytes of A, B and c.
    """

    N: int
    m: int
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A, B, c = (np.array(x, dtype=float) for x in (self.A, self.B, self.c))
        for x in (A, B, c):
            x.flags.writeable = False
        key = (self.N, self.m, *((x.shape, x.tobytes()) for x in (A, B, c)))
        # set past the frozen __setattr__; AT, BT and key are plain attributes, not fields
        self.__dict__.update(A=A, B=B, c=c, AT=A.T, BT=B.T, key=key)
        ensure_well_formed(self)

    def __eq__(self, other):
        return isinstance(other, EllipticSystemSpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):  # copies and pickles are built anew, on read-only arrays
        return EllipticSystemSpec, (self.N, self.m, self.A, self.B, self.c)

    @functools.cached_property
    def admissible(self) -> bool:
        """``validate_spec(self).passed``, taken once."""
        return validate_spec(self).passed

    def source(self, log_u: np.ndarray) -> np.ndarray:
        """Interior source prod_j u_j**A[i,j] from log u (..., m); (..., m)."""
        return np.exp(log_u @ self.AT)

    def flux(self, log_u: np.ndarray) -> np.ndarray:
        """Boundary flux c[i] prod_j u_j**B[i,j] from log u (..., m); (..., m)."""
        return self.c * np.exp(log_u @ self.BT)

    def to_dict(self) -> dict:
        return {
            "N": int(self.N),
            "m": int(self.m),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "c": self.c.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EllipticSystemSpec":
        """Build from parsed JSON: N and m are integers, A, B and c numbers, never coerced."""
        try:
            return cls(
                N=_integer(data["N"], "N"),
                m=_integer(data["m"], "m"),
                A=json_numbers(data["A"], "A"),
                B=json_numbers(data["B"], "B"),
                c=json_numbers(data["c"], "c"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedSpec(f"cannot build system data: {exc}") from exc


def _integer(value, name: str) -> int:
    # bool is an int subclass, and 3.0 or "3" would be silent coercions
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MalformedSpec(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_numbers(value, name: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; strings and bools raise, never coerced."""
    entries = np.array(value, dtype=object)
    if not all(type(v) in (int, float) for v in entries.flat):
        raise MalformedSpec(f"{name} must hold numbers only, in lists of equal length: {value!r}")
    return entries.astype(float)


class Violation(NamedTuple):
    """One violated structural rule: identifier, offending index, measured vs expected."""

    rule: str
    index: tuple | int | None
    measured: float
    expected: float


@dataclass
class ValidationReport:
    """Outcome of a structural validation; ``passed`` iff ``violations`` is empty."""

    passed: bool
    violations: list[Violation] = field(default_factory=list)


def ensure_well_formed(spec: EllipticSystemSpec) -> None:
    """Raise :class:`MalformedSpec` on shape or finiteness defects."""
    if int(spec.m) < 1:
        raise MalformedSpec(f"component count m={spec.m} must be >= 1")
    if int(spec.N) < 3:
        raise MalformedSpec(f"dimension N={spec.N} must be >= 3")
    m = int(spec.m)
    if spec.A.shape != (m, m):
        raise MalformedSpec(f"interior exponent matrix has shape {spec.A.shape}, expected {(m, m)}")
    if spec.B.shape != (m, m):
        raise MalformedSpec(f"boundary exponent matrix has shape {spec.B.shape}, expected {(m, m)}")
    if spec.c.shape != (m,):
        raise MalformedSpec(f"boundary coefficient vector has shape {spec.c.shape}, expected {(m,)}")
    for name, arr in (("A", spec.A), ("B", spec.B), ("c", spec.c)):
        if not np.all(np.isfinite(arr)):
            raise MalformedSpec(f"non-finite entry in {name}")


def is_irreducible(A: np.ndarray) -> bool:
    """True iff no nontrivial index partition produces an all-zero block of ``A``.

    Equivalent formulation: the digraph with an edge i -> j whenever
    ``A[i, j] > 0`` is strongly connected.  Strict positivity is used on
    purpose; exponents are inputs, not computed quantities.  A 1x1 matrix
    is irreducible unconditionally (no nontrivial partition exists).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise MalformedSpec(f"irreducibility requires a square matrix, got shape {A.shape}")
    # Warshall transitive closure: reach[i, j] iff a path i -> ... -> j exists
    reach = (A > 0.0) | np.eye(A.shape[0], dtype=bool)
    for k in range(A.shape[0]):
        reach |= reach[:, k, None] & reach[None, k, :]
    return bool(reach.all())


def validate_spec(spec: EllipticSystemSpec) -> ValidationReport:
    """Check every structural rule and report all violations.

    Row sums are compared to their targets with relative tolerance
    ``TOL_ROW``; identical inputs give identical reports.  Pure: the verdict
    is cached by ``spec.admissible`` alone.
    """
    m = int(spec.m)
    violations: list[Violation] = []

    for i in range(m):
        for j in range(m):
            if spec.A[i, j] < 0:
                violations.append(Violation("A_nonnegative", (i, j), spec.A[i, j], 0.0))
    for i in range(m):
        for j in range(m):
            if spec.B[i, j] < 0:
                violations.append(Violation("B_nonnegative", (i, j), spec.B[i, j], 0.0))

    target_a = interior_row_target(spec.N)
    target_b = boundary_row_target(spec.N)
    row_a = spec.A.sum(axis=1)
    row_b = spec.B.sum(axis=1)
    for i in range(m):
        if abs(row_a[i] - target_a) > TOL_ROW * max(1.0, abs(target_a)):
            violations.append(Violation("A_row_sum", i, row_a[i], target_a))
    for i in range(m):
        if abs(row_b[i] - target_b) > TOL_ROW * max(1.0, abs(target_b)):
            violations.append(Violation("B_row_sum", i, row_b[i], target_b))

    # Rows with non-negative coefficient must couple to their own component only.
    for i in range(m):
        if spec.c[i] >= 0:
            for j in range(m):
                expected = target_b if i == j else 0.0
                if abs(spec.B[i, j] - expected) > TOL_ROW * max(1.0, target_b):
                    violations.append(
                        Violation("B_diagonal_when_c_nonnegative", (i, j), spec.B[i, j], expected)
                    )

    # a subnormal c holds too few bits for the flux to be checked to 1e-12
    for i in range(m):
        if 0 < abs(spec.c[i]) < np.finfo(float).tiny:
            violations.append(Violation("c_zero_or_normal", i, spec.c[i], np.finfo(float).tiny))

    if not is_irreducible(spec.A):
        violations.append(Violation("A_irreducible", None, 0.0, 1.0))

    return ValidationReport(passed=not violations, violations=violations)


def load_json(path: str | Path) -> dict:
    """The JSON object in a file; invalid JSON, or a value that is no object, raises MalformedSpec."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedSpec(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedSpec(f"{path} holds no JSON object")
    return data


def load_spec(path: str | Path) -> EllipticSystemSpec:
    """Read system data from a JSON file with keys N, m, A, B, c (row-major matrices)."""
    return EllipticSystemSpec.from_dict(load_json(path))
