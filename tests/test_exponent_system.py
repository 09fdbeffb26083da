import numpy as np
import pytest

from halfspace_bubbles.errors import MalformedSpec
from halfspace_bubbles.exponent_system import (
    EllipticSystemSpec,
    boundary_row_target,
    interior_row_target,
    is_irreducible,
    load_spec,
    save_spec,
    validate_spec,
)


def brute_force_irreducible(A: np.ndarray) -> bool:
    """Oracle: enumerate all 2^m - 2 nontrivial partitions and look for a zero block."""
    m = A.shape[0]
    for mask in range(1, 2**m - 1):
        group1 = [i for i in range(m) if (mask >> i) & 1]
        group2 = [j for j in range(m) if not (mask >> j) & 1]
        if all(A[i, j] == 0.0 for i in group1 for j in group2):
            return False
    return True


def test_row_targets():
    assert interior_row_target(3) == 5.0
    assert boundary_row_target(3) == 3.0
    assert interior_row_target(4) == 3.0
    assert boundary_row_target(4) == 2.0


def test_validate_single_component_passes():
    spec = EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[3.0]], c=[-1.0])
    report = validate_spec(spec, tol_row=1e-9)
    assert report.passed
    assert report.violations == []


def test_validate_offdiagonal_boundary_rows_allowed_for_negative_c():
    # c < 0 frees the boundary rows from the diagonal rule; row sums still bind.
    spec = EllipticSystemSpec(
        N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
    )
    assert validate_spec(spec).passed


def test_validate_block_diagonal_fails_irreducibility():
    spec = EllipticSystemSpec(
        N=4, m=2, A=[[3.0, 0.0], [0.0, 3.0]], B=[[2.0, 0.0], [0.0, 2.0]], c=[-1.0, -1.0]
    )
    report = validate_spec(spec)
    assert not report.passed
    assert [v.rule for v in report.violations] == ["A_irreducible"]


def test_validate_row_sum_violation_reports_measured_and_expected():
    spec = EllipticSystemSpec(N=3, m=1, A=[[4.9]], B=[[3.0]], c=[-1.0])
    report = validate_spec(spec)
    assert not report.passed
    v = report.violations[0]
    assert v.rule == "A_row_sum"
    assert v.index == 0
    assert v.measured == pytest.approx(4.9)
    assert v.expected == pytest.approx(5.0)


def test_validate_diagonal_rule_for_nonnegative_c():
    spec = EllipticSystemSpec(
        N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[1.0, -1.0]
    )
    report = validate_spec(spec)
    rules = {(v.rule, v.index) for v in report.violations}
    assert ("B_diagonal_when_c_nonnegative", (0, 0)) in rules
    assert ("B_diagonal_when_c_nonnegative", (0, 1)) in rules
    # second row keeps its freedom
    assert all(v.index[0] == 0 for v in report.violations)


def test_validate_negative_exponent_flagged():
    spec = EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[-0.5]], c=[-1.0])
    report = validate_spec(spec)
    assert ("B_nonnegative", (0, 0)) in {(v.rule, v.index) for v in report.violations}


def test_validate_tol_row_accepts_decimal_noise():
    spec = EllipticSystemSpec(N=3, m=1, A=[[5.0 + 1e-12]], B=[[3.0]], c=[-1.0])
    assert validate_spec(spec, tol_row=1e-9).passed
    assert not validate_spec(spec, tol_row=1e-14).passed


def test_malformed_shapes_raise():
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=3, m=2, A=[[5.0]], B=[[3.0]], c=[-1.0]))
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=3, m=1, A=[[np.inf]], B=[[3.0]], c=[-1.0]))
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=2, m=1, A=[[5.0]], B=[[3.0]], c=[-1.0]))


def test_is_irreducible_examples():
    assert is_irreducible(np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert not is_irreducible(np.array([[3.0, 0.0], [0.0, 3.0]]))
    three = np.array([[0.0, 1.0, 4.0], [5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert brute_force_irreducible(three)
    assert is_irreducible(three)


def test_is_irreducible_m1_unconditional():
    assert is_irreducible(np.array([[0.0]]))
    assert is_irreducible(np.array([[7.0]]))


def test_is_irreducible_agrees_with_brute_force():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        density = rng.uniform(0.15, 0.9)
        A = rng.uniform(0.1, 3.0, size=(m, m)) * (rng.random((m, m)) < density)
        assert is_irreducible(A) == brute_force_irreducible(A)


def test_validate_idempotent_and_pure(spec_f3):
    before = (spec_f3.A.copy(), spec_f3.B.copy(), spec_f3.c.copy())
    r1 = validate_spec(spec_f3)
    r2 = validate_spec(spec_f3)
    assert r1 == r2
    assert np.array_equal(spec_f3.A, before[0])
    assert np.array_equal(spec_f3.B, before[1])
    assert np.array_equal(spec_f3.c, before[2])


def test_json_roundtrip(tmp_path, spec_f3):
    path = tmp_path / "spec.json"
    save_spec(spec_f3, path)
    loaded = load_spec(path)
    assert loaded.N == spec_f3.N and loaded.m == spec_f3.m
    assert np.array_equal(loaded.A, spec_f3.A)
    assert np.array_equal(loaded.B, spec_f3.B)
    assert np.array_equal(loaded.c, spec_f3.c)


def test_load_spec_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedSpec):
        load_spec(path)


@pytest.mark.parametrize("key", ["N", "m"])
@pytest.mark.parametrize("text", ["3.7", "3.0", "true", '"3"'])
def test_load_spec_rejects_non_integer_sizes(tmp_path, key, text):
    # JSON numbers and literals are never coerced to a dimension or a count
    fields = {"N": "3", "m": "1", key: text}
    path = tmp_path / "spec.json"
    path.write_text(
        f'{{"N": {fields["N"]}, "m": {fields["m"]}, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}}'
    )
    with pytest.raises(MalformedSpec, match=f"{key} must be an integer"):
        load_spec(path)


def test_from_dict_accepts_numpy_integers():
    spec = EllipticSystemSpec.from_dict(
        {"N": np.int64(3), "m": np.int32(1), "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}
    )
    assert (spec.N, spec.m) == (3, 1)
    assert type(spec.N) is int
