"""Eigensolver and matrix-utility tests.

The solver is exercised against a closed-form 2x2 oracle, against
numpy's LAPACK wrapper on random dense Hermitian matrices, and through
hypothesis-generated inputs for the structural invariants (trace and
Frobenius identities, partial-transpose involution).
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsimplex.qmat import (
    hermitian_eigenvalues,
    hs_inner,
    matrix_to_json,
    partial_transpose,
)
from magicsimplex.weyl import bell_projector


def two_by_two(a, d, re, im):
    return np.array([[a, re + 1j * im], [re - 1j * im, d]], dtype=complex)


def closed_form_eigs(a, d, re, im):
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.hypot(re, im))
    return mean - radius, mean + radius


@given(
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
@settings(max_examples=200, deadline=None)
def test_two_by_two_closed_form(a, d, re, im):
    lo, hi = closed_form_eigs(a, d, re, im)
    got = hermitian_eigenvalues(two_by_two(a, d, re, im))
    assert abs(got[0] - lo) <= 1e-12 * max(1.0, abs(lo))
    assert abs(got[1] - hi) <= 1e-12 * max(1.0, abs(hi))


def random_hermitian(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.conj().T)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_matches_lapack_on_dense(n):
    rng = np.random.default_rng(42 + n)
    for _ in range(25):
        m = random_hermitian(rng, n)
        ours = hermitian_eigenvalues(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_block_structured_input():
    # A matrix with an exact zero pattern splitting into sub-blocks must
    # produce the union of the block spectra.
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    m = np.zeros((7, 7), dtype=complex)
    m[:3, :3] = a
    m[3:, 3:] = b
    got = hermitian_eigenvalues(m)
    ref = np.sort(np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)]))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_trace_and_square_identities():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 9, scale=3.0)
    eigs = hermitian_eigenvalues(m)
    assert abs(np.sum(eigs) - np.trace(m).real) < 1e-9
    assert abs(np.sum(eigs**2) - hs_inner(m, m).real) < 1e-9


def test_rejects_non_hermitian():
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="[Hh]ermit"):
        hermitian_eigenvalues(m)


def test_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[1, 1] = np.nan
    with pytest.raises(ValueError):
        hermitian_eigenvalues(m)


# ---------------------------------------------------------------------------
# Stacks of matrices
# ---------------------------------------------------------------------------


def hermitian_stack(rng, count, n=9):
    return np.stack([random_hermitian(rng, n, scale=2.0) for _ in range(count)])


def test_stacked_eigenvalues_equal_per_matrix_calls():
    stack = hermitian_stack(np.random.default_rng(21), 40)
    got = hermitian_eigenvalues(stack)
    assert got.shape == (40, 9)
    for m, eigs in zip(stack, got):
        assert np.array_equal(eigs, hermitian_eigenvalues(m))
    nested = hermitian_eigenvalues(stack.reshape(4, 10, 9, 9))
    assert np.array_equal(nested.reshape(40, 9), got)


def test_stacked_partial_transpose_equals_per_matrix_calls():
    rng = np.random.default_rng(22)
    stack = rng.standard_normal((12, 9, 9)) + 1j * rng.standard_normal((12, 9, 9))
    got = partial_transpose(stack)
    for m, pt in zip(stack, got):
        assert np.array_equal(pt, partial_transpose(m))
    assert np.array_equal(partial_transpose(got), stack)


def test_stack_with_one_non_hermitian_member_is_rejected():
    stack = hermitian_stack(np.random.default_rng(23), 5)
    stack[3, 0, 1] += 1e-3
    with pytest.raises(ValueError, match=r"index \(3,\) is not Hermitian"):
        hermitian_eigenvalues(stack)


def test_stack_with_one_non_finite_member_is_rejected():
    stack = hermitian_stack(np.random.default_rng(24), 5)
    stack[2, 4, 4] = np.nan
    with pytest.raises(ValueError, match=r"index \(2,\) has non-finite"):
        hermitian_eigenvalues(stack)


def test_stack_with_an_infinite_member_raises_without_a_warning():
    # inf - inf in the asymmetry defect would warn; finiteness is tested first.
    stack = hermitian_stack(np.random.default_rng(26), 5)
    stack[1, 3, 3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"index \(1,\) has non-finite"):
            hermitian_eigenvalues(stack)


def test_moment_posts_hold_per_matrix(monkeypatch):
    # Perturbing one slice of the solver output must trip the post even
    # though every other matrix in the stack is exact.
    stack = hermitian_stack(np.random.default_rng(25), 6)
    exact = np.linalg.eigvalsh

    def perturbed(m):
        eigs = exact(m)
        eigs[4, 0] += 1e-6
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    with pytest.raises(ArithmeticError):
        hermitian_eigenvalues(stack)


def test_rejects_non_square_stack():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((3, 9, 8)))
    with pytest.raises(ValueError, match="9x9"):
        partial_transpose(np.zeros((3, 4, 4)))


# ---------------------------------------------------------------------------
# Partial transpose
# ---------------------------------------------------------------------------


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    twice = partial_transpose(partial_transpose(m))
    assert np.array_equal(twice, m)  # entry moves are exact


def test_partial_transpose_of_product():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(
        partial_transpose(np.kron(a, b)), np.kron(a, b.T), atol=0, rtol=0
    )


def test_partial_transpose_of_bell_projector():
    # The canonical maximally entangled state has PT spectrum {1/3, -1/3}.
    pt = partial_transpose(bell_projector(0, 0))
    eigs = hermitian_eigenvalues(pt)
    assert eigs[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert eigs[-1] == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Inner product, norms, serialization
# ---------------------------------------------------------------------------


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert hs_inner(x, y) == pytest.approx(np.conj(hs_inner(y, x)), abs=1e-12)
    assert hs_inner(x, x).real == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)


def test_json_round_trip():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    blob = json.loads(json.dumps(matrix_to_json(m)))
    assert blob["dim"] == 3
    back = np.array([complex(re, im) for re, im in blob["entries"]]).reshape(3, 3)
    assert np.array_equal(back, m)
