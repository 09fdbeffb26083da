import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfspace_bubbles.errors import MalformedSpec
from halfspace_bubbles.exponent_system import (
    EllipticSystemSpec,
    boundary_row_target,
    interior_row_target,
    is_irreducible,
    load_spec,
    validate_spec,
)

from conftest import fixture_spec


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


@pytest.mark.parametrize("tols", [(), (1e-14,), (1e-14, 1e-9)])
def test_admissible_is_the_default_tolerance_verdict(tols):
    # whichever validations ran before, at whatever tolerance
    spec = EllipticSystemSpec(N=3, m=1, A=[[5.0 + 1e-12]], B=[[3.0]], c=[-1.0])
    for tol in tols:
        validate_spec(spec, tol_row=tol)
    assert spec.admissible is True
    bad = EllipticSystemSpec(N=3, m=1, A=[[6.0]], B=[[3.0]], c=[0.0])
    for tol in tols:
        validate_spec(bad, tol_row=tol)
    assert bad.admissible is False


def test_malformed_shapes_raise():
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=3, m=2, A=[[5.0]], B=[[3.0]], c=[-1.0]))
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=3, m=1, A=[[np.inf]], B=[[3.0]], c=[-1.0]))
    with pytest.raises(MalformedSpec):
        validate_spec(EllipticSystemSpec(N=2, m=1, A=[[5.0]], B=[[3.0]], c=[-1.0]))


def test_malformed_spec_raises_at_construction_copy_and_unpickling(spec_f3):
    with pytest.raises(MalformedSpec, match="boundary coefficient vector"):
        EllipticSystemSpec(N=4, m=2, A=spec_f3.A, B=spec_f3.B, c=[-1.0])
    with pytest.raises(MalformedSpec, match="boundary coefficient vector"):
        dataclasses.replace(spec_f3, c=[[-1.0, -1.0]])
    # a spec whose c was swapped past the frozen fields: its copies are checked anew
    spec = EllipticSystemSpec(N=4, m=2, A=spec_f3.A, B=spec_f3.B, c=spec_f3.c)
    spec.__dict__["c"] = np.array([-1.0, -1.0, -1.0])
    for round_trip in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        with pytest.raises(MalformedSpec, match="boundary coefficient vector"):
            round_trip(spec)


def test_validate_spec_writes_nothing_into_its_spec(spec_f3):
    spec = EllipticSystemSpec(N=3, m=1, A=[[6.0]], B=[[3.0]], c=[0.0])
    for checked in (spec, spec_f3):
        before = dict(checked.__dict__)
        validate_spec(checked)
        assert checked.__dict__.keys() == before.keys()
    assert spec.admissible is False


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


@st.composite
def sparse_exponent_matrices(draw):
    m = draw(st.integers(1, 8))
    entries = st.lists(st.floats(0.1, 3.0), min_size=m * m, max_size=m * m)
    mask = st.lists(st.booleans(), min_size=m * m, max_size=m * m)
    return (np.array(draw(entries)) * np.array(draw(mask))).reshape(m, m)


@given(A=sparse_exponent_matrices(), data=st.data())
def test_is_irreducible_property(A, data):
    verdict = is_irreducible(A)
    assert verdict == brute_force_irreducible(A)
    # relabelling the components permutes rows and columns together
    p = data.draw(st.permutations(range(A.shape[0])))
    assert is_irreducible(A[p][:, p]) == verdict


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
    path.write_text(json.dumps(spec_f3.to_dict()))
    loaded = load_spec(path)
    assert loaded.N == spec_f3.N and loaded.m == spec_f3.m
    assert np.array_equal(loaded.A, spec_f3.A)
    assert np.array_equal(loaded.B, spec_f3.B)
    assert np.array_equal(loaded.c, spec_f3.c)


@pytest.mark.parametrize("name", ["A", "B", "c"])
def test_spec_cannot_be_changed(spec_f4, name):
    # source and flux read transposes taken at construction, so a changed
    # matrix would leave them on the old one
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec_f4, name, getattr(spec_f4, name) + 1.0)
    with pytest.raises(ValueError, match="read-only"):
        getattr(spec_f4, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec_f4.AT = spec_f4.A


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda spec: pickle.loads(pickle.dumps(spec))])
def test_copies_of_a_spec_stay_frozen(spec_f4, duplicate):
    twin = duplicate(spec_f4)
    assert twin == spec_f4 and hash(twin) == hash(spec_f4)
    for name in ("A", "B", "c"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(twin, name)[0] = 1.0
    assert twin.AT.base is twin.A and twin.BT.base is twin.B


@pytest.mark.parametrize("name", ["f1", "f3", "f4"])
def test_specs_from_the_same_json_are_equal(tmp_path, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fixture_spec(name).to_dict()))
    first, second = load_spec(path), load_spec(path)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == fixture_spec(name)
    assert len({first, second, fixture_spec(name)}) == 1


def test_specs_with_the_same_row_sums_differ(spec_f3, spec_f4):
    # f3 and f4 share N, m, c and every row sum of A and B; only the matrices tell them apart
    assert np.array_equal(spec_f3.A.sum(axis=1), spec_f4.A.sum(axis=1))
    assert np.array_equal(spec_f3.B.sum(axis=1), spec_f4.B.sum(axis=1))
    assert spec_f3 != spec_f4 and len({spec_f3, spec_f4}) == 2
    assert spec_f4 != dataclasses.replace(spec_f4, c=[-1.0, -2.0])
    assert spec_f4 != spec_f4.to_dict()


def test_source_and_flux_follow_the_matrices_the_spec_was_built_from(spec_f3, spec_f4):
    A, B, c = spec_f4.A.copy(), spec_f4.B.copy(), spec_f4.c.copy()
    spec = EllipticSystemSpec(N=4, m=2, A=A, B=B, c=c)
    # the caller's arrays are copied: writing into them changes neither the spec nor its terms
    A[:], B[:], c[:] = spec_f3.A, spec_f3.B, 2.0
    log_u = np.log([[0.5, 2.0], [3.0, 0.25]])
    for built in (spec, dataclasses.replace(spec_f3, A=spec_f4.A, B=spec_f4.B)):
        assert built == spec_f4
        np.testing.assert_array_equal(built.source(log_u), np.exp(log_u @ spec_f4.A.T))
        np.testing.assert_array_equal(built.flux(log_u), -np.exp(log_u @ spec_f4.B.T))
        np.testing.assert_array_equal(built.source(log_u), spec_f4.source(log_u))


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


@pytest.mark.parametrize(
    "key, text",
    [("A", '[["5.0"]]'), ("A", "[[true]]"), ("B", '[["3"]]'), ("c", "[true]"), ("c", '["-1"]')],
)
def test_load_spec_rejects_entries_that_are_no_numbers(tmp_path, key, text):
    # each of these was read as a float, and the spec passed validation
    fields = {"A": "[[5.0]]", "B": "[[3.0]]", "c": "[-1.0]", key: text}
    path = tmp_path / "spec.json"
    path.write_text(f'{{"N": 3, "m": 1, "A": {fields["A"]}, "B": {fields["B"]}, '
                    f'"c": {fields["c"]}}}')
    with pytest.raises(MalformedSpec, match=f"^{key} "):
        load_spec(path)


def test_from_dict_accepts_numpy_integers():
    spec = EllipticSystemSpec.from_dict(
        {"N": np.int64(3), "m": np.int32(1), "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}
    )
    assert (spec.N, spec.m) == (3, 1)
    assert type(spec.N) is int
