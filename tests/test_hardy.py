import numpy as np
import pytest

from woldlab.hardy import (
    abstract_space,
    compress,
    direct_sum,
    double_commutation_defect,
    hardy_space,
    multiplier,
    shift,
)
from woldlab.linalg import gram_defect
from woldlab.symbols import blaschke, constant, polynomial, taylor

from oracles import multiplier_loop


def test_hardy_space_layout():
    sp = hardy_space(2, 3)
    assert sp.dim == 8
    assert sp.degree == 3
    assert list(sp.degrees_array()) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_abstract_space_degrees():
    sp = abstract_space(5)
    assert sp.degree == 0
    assert sp.dim == 5


def test_direct_sum_slices():
    a = hardy_space(1, 2)
    b = abstract_space(3)
    total, (sa, sb) = direct_sum(a, b)
    assert total.dim == 6
    assert sa == slice(0, 3)
    assert sb == slice(3, 6)
    assert list(total.degrees_array()[sb]) == [0, 0, 0]


def test_shift_is_exact_isometry():
    op = shift(2, 4)
    m = op.matrix
    assert m.shape == (12, 10)
    assert np.allclose(m.conj().T @ m, np.eye(10), atol=1e-15)
    assert op.growth == 1
    assert gram_defect(op.restricted()) < 1e-15


def test_multiplier_first_column_is_taylor():
    sym = polynomial([0.5, 0.25, 0.125])
    op = multiplier(sym, 4)
    col = op.matrix[:, 0]
    c = taylor(sym, 2)[:, 0, 0]
    assert np.allclose(col[:3], c, atol=1e-15)
    assert np.allclose(col[3:], 0.0, atol=1e-15)


def test_multiplier_is_block_toeplitz():
    sym = polynomial([0.5, 0.25])
    op = multiplier(sym, 5)
    m = op.matrix
    for n in range(1, 6):
        assert np.allclose(m[n: n + 2, n], m[0:2, 0], atol=1e-15)


def test_multiplier_product_identity_on_window():
    a = polynomial([0.5, 0.25])
    b = polynomial([0.4, -0.3])
    prod_coeffs = np.convolve([0.5, 0.25], [0.4, -0.3])
    ab = polynomial(prod_coeffs)
    lhs = compress(multiplier(ab, 8)).matrix
    rhs = compress(multiplier(a, 8)).matrix @ compress(
        multiplier(b, 8)).matrix
    degs = np.arange(9)
    cols = degs <= 8 - 2
    assert np.max(np.abs((lhs - rhs)[:, cols])) < 1e-14


def test_compressed_shift_window():
    op = compress(shift(1, 6))
    assert op.matrix.shape == (7, 7)
    assert op.window == 5
    assert gram_defect(op.restricted()) < 1e-15
    assert np.linalg.norm(op.matrix @ np.eye(7)[:, 6]) < 1e-15


def test_compress_cuts_codomain_rows_only():
    sym = polynomial([0.2, 0.3, 0.1])
    full = multiplier(sym, 10)
    small = compress(full, 6)
    assert small.matrix.shape == (7, 11)
    assert np.allclose(small.matrix, full.matrix[:7, :], atol=1e-15)


def test_compress_agrees_with_direct_low_degree_build():
    sym = polynomial([0.2, 0.3, 0.1])
    high = compress(multiplier(sym, 10), 6)
    low = compress(multiplier(sym, 6))
    assert np.allclose(high.matrix[:, :7], low.matrix, atol=1e-15)


def test_compress_beyond_top_degree_keeps_everything():
    op = shift(1, 4)
    out = compress(op, 9)
    assert out.matrix.shape == op.matrix.shape
    assert np.allclose(out.matrix, op.matrix)


def test_isometry_defect_of_contractive_multiplier():
    sym = polynomial([0.0, 0.5])
    op = compress(multiplier(sym, 6))
    assert abs(gram_defect(op.restricted()) - 0.75) < 1e-12


def test_double_commutation_defect_frozen_values():
    assert double_commutation_defect(constant(0.7), 8) < 1e-12
    assert abs(double_commutation_defect(polynomial([0.0, 1.0]), 8) - 1.0) \
        < 1e-12
    assert abs(double_commutation_defect(polynomial([0.5, 0.5]), 8) - 0.5) \
        < 1e-12
    got = double_commutation_defect(blaschke([0.5]), 12)
    assert abs(got - np.sqrt(3.0) / 2.0) < 1e-12


_MULTIPLIER_SYMBOLS = {
    "polynomial": lambda: polynomial([0.3, -0.2j, 0.25]),
    "matrix-polynomial": lambda: polynomial(
        [[[0.2, 0.1], [0.0, 0.3j]], [[0.1, 0.0], [0.2, -0.1]]]),
    "blaschke": lambda: blaschke([0.35, -0.3j]),
    "constant": lambda: constant(0.6j),
}


@pytest.mark.parametrize("degree", [0, 5, 83])
@pytest.mark.parametrize("name", sorted(_MULTIPLIER_SYMBOLS))
def test_multiplier_matches_the_blockwise_loop_bitwise(name, degree):
    sym = _MULTIPLIER_SYMBOLS[name]()
    op = multiplier(sym, degree)
    want = multiplier_loop(taylor(sym, op.growth), degree)
    assert op.matrix.tobytes() == want.tobytes()
    assert op.matrix.shape == (op.codomain.dim, op.domain.dim)
