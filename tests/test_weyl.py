"""Phase-space operator basis and coefficient-table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsimplex.family import family_state
from magicsimplex.qmat import hs_inner
from magicsimplex.weyl import (
    bell_projector,
    minus_index,
    tensor_basis_element,
    weyl_operator,
    weyl_tensor_decompose,
)

OMEGA = np.exp(2j * np.pi / 3)


def test_weyl_orthogonality():
    # Tr(U_nm^dag U_kl) = 3 * delta_nk * delta_ml
    ops = {(n, m): weyl_operator(n, m) for n in range(3) for m in range(3)}
    for (n, m), u in ops.items():
        for (k, l), v in ops.items():
            want = 3 if (n, m) == (k, l) else 0.0
            assert abs(hs_inner(u, v) - want) <= 1e-12


def test_weyl_unitary():
    for n in range(3):
        for m in range(3):
            u = weyl_operator(n, m)
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_weyl_explicit_matrices():
    assert np.array_equal(weyl_operator(0, 0), np.eye(3, dtype=complex))
    assert np.allclose(weyl_operator(1, 0), np.diag([1, OMEGA, OMEGA**2]), atol=1e-15)
    shift = np.zeros((3, 3), dtype=complex)
    shift[0, 1] = shift[1, 2] = shift[2, 0] = 1.0
    assert np.allclose(weyl_operator(0, 1), shift, atol=1e-15)


def test_index_validation():
    with pytest.raises(ValueError):
        weyl_operator(3, 0)
    with pytest.raises(ValueError):
        weyl_operator(0, -1)


def test_minus_index():
    assert minus_index(0) == 0
    assert minus_index(1) == 2
    assert minus_index(2) == 1


def test_max_entangled_entries():
    proj = bell_projector(0, 0)
    # projector onto (1/sqrt 3)(|00> + |11> + |22>): 1/3 on the |ii><jj| grid
    assert proj.shape == (9, 9)
    diag_idx = (0, 4, 8)
    for i in range(9):
        for j in range(9):
            want = 1.0 / 3.0 if i in diag_idx and j in diag_idx else 0.0
            assert proj[i, j] == pytest.approx(want, abs=1e-15)
    assert bell_projector(0, 0) is not proj  # callers get a private copy


def test_bell_projectors_orthonormal():
    projs = [bell_projector(n, m) for n in range(3) for m in range(3)]
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            want = 1.0 if i == j else 0.0
            assert abs(hs_inner(p, q) - want) <= 1e-12
    assert np.allclose(sum(projs), np.eye(9), atol=1e-12)


def test_bell_projector_is_projector():
    p = bell_projector(2, 1)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert abs(np.trace(p) - 1.0) <= 1e-12


def test_tensor_basis_element_structure():
    b = tensor_basis_element(1, 2)
    assert np.allclose(
        b, np.kron(weyl_operator(1, 2), weyl_operator(minus_index(1), 2)), atol=1e-15
    )


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_decompose_identity():
    wc = weyl_tensor_decompose(np.eye(9, dtype=complex))
    assert wc.identity_coefficient() == pytest.approx(1.0, abs=1e-13)
    assert wc.max_off_identity() <= 1e-13
    assert wc.residual <= 1e-12


def test_decompose_bell_projector():
    # P_00 spreads evenly: every coefficient is 1/9.
    wc = weyl_tensor_decompose(bell_projector(0, 0))
    for value in wc.coeffs.values():
        assert value == pytest.approx(1.0 / 9.0, abs=1e-13)


def test_decompose_reconstruct_round_trip():
    rng = np.random.default_rng(3)
    coeffs = {
        (n, m): complex(rng.standard_normal(), rng.standard_normal())
        for n in range(3)
        for m in range(3)
    }
    op = sum(value * tensor_basis_element(n, m) for (n, m), value in coeffs.items())
    back = weyl_tensor_decompose(op)
    for key, value in coeffs.items():
        assert back.coeffs[key] == pytest.approx(value, abs=1e-12)
    assert back.residual <= 1e-12


def test_off_span_input_has_residual():
    # A local computational projector is far from the two-sided span.
    m = np.zeros((9, 9), dtype=complex)
    m[1, 1] = 1.0  # |0><0| (x) |1><1|
    assert weyl_tensor_decompose(m).residual > 0.1


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_decomposition_linearity(x, y):
    a = bell_projector(1, 0)
    b = np.eye(9, dtype=complex)
    wc = weyl_tensor_decompose(x * a + y * b)
    wa = weyl_tensor_decompose(a)
    wb = weyl_tensor_decompose(b)
    for key in wc.coeffs:
        want = x * wa.coeffs[key] + y * wb.coeffs[key]
        assert wc.coeffs[key] == pytest.approx(want, abs=1e-11)


def test_hermitian_coefficient_defect():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    herm = 0.5 * (raw + raw.conj().T)
    t = weyl_tensor_decompose(herm).coeffs
    # Hermitian input: t[-n, -m] = conj(t[n, m]) up to rounding
    defect = max(
        abs(np.conj(v) - t[(minus_index(n), minus_index(m))]) for (n, m), v in t.items()
    )
    assert defect <= 1e-12


def table_bits(table):
    """A coefficient table's keys, coefficient bits and residual bits."""
    values = np.array(list(table.coeffs.values())).view(np.int64).tolist()
    return list(table.coeffs), values, np.float64(table.residual).view(np.int64)


def test_stacked_decompose_is_the_one_matrix_call_bit_for_bit():
    rng = np.random.default_rng(5)
    rows = rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), size=(40, 3))
    states = family_state(rows)
    generic = rng.standard_normal((10, 9, 9)) + 1j * rng.standard_normal((10, 9, 9))
    stack = np.concatenate([states, generic])
    tables = weyl_tensor_decompose(stack)
    assert len(tables) == len(stack)
    for member, table in zip(stack, tables):
        assert table_bits(table) == table_bits(weyl_tensor_decompose(member))
    assert weyl_tensor_decompose(stack[:0]) == []


@pytest.mark.parametrize("shape", [(81,), (8, 8), (9, 8), (2, 9, 8), (2, 2, 9, 9)])
def test_decompose_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"expected shape \(9, 9\) or \(N, 9, 9\)"):
        weyl_tensor_decompose(np.zeros(shape, dtype=complex))
