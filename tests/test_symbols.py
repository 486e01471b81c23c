import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import defect_weight_loop, defect_weight_quadrature
from woldlab import symbols
from woldlab.errors import DomainError, PrecisionError, ValidationError
from woldlab.symbols import (
    MomentSequence,
    SchurSymbol,
    blaschke,
    blaschke_required_order,
    coefficient_tail_bound,
    constant,
    defect_weight,
    evaluate,
    is_inner,
    polynomial,
    symbol_from_literal,
    taylor,
    unit_circle_grid,
)


def test_polynomial_scalar_and_matrix():
    p = polynomial([0.5, 0.25])
    assert p.fiber_dim == 1
    assert p.degree == 1
    m = polynomial(np.stack([np.eye(2) * 0.3, np.eye(2) * 0.3]))
    assert m.fiber_dim == 2


def test_polynomial_rejects_expanding_symbol():
    with pytest.raises(DomainError):
        polynomial([0.9, 0.9])


def test_constant_value():
    c = constant(0.5j)
    assert c.degree == 0
    assert abs(evaluate(c, 0.3 + 0.1j)[0, 0] - 0.5j) < 1e-15


def test_blaschke_domain_rules():
    with pytest.raises(DomainError):
        blaschke([1.0])
    with pytest.raises(DomainError):
        blaschke([0.5], front=2.0)
    empty = blaschke([])
    assert empty.kind == "constant"


def test_blaschke_half_taylor_coefficients():
    b = blaschke([0.5])
    c = taylor(b, 5)[:, 0, 0]
    expect = np.array([-0.5] + [0.75 * 0.5 ** (k - 1) for k in range(1, 6)])
    assert np.max(np.abs(c - expect)) < 1e-15


def test_blaschke_two_factor_matches_series_product():
    b = blaschke([0.5, -0.3j])
    c = taylor(b, 40)[:, 0, 0]
    zs = 0.7 * unit_circle_grid(64)
    vals = np.array([evaluate(b, z)[0, 0] for z in zs])
    series = np.array([np.polyval(c[::-1], z) for z in zs])
    assert np.max(np.abs(vals - series)) < 1e-10


def test_taylor_respects_truncation_hint():
    b = blaschke([0.5], truncation_hint=10)
    assert taylor(b, 10).shape[0] == 11
    with pytest.raises(PrecisionError):
        taylor(b, 11)


def test_evaluate_outside_disc_rejected():
    p = polynomial([0.5])
    with pytest.raises(DomainError):
        evaluate(p, 1.5)


def test_evaluate_polynomial_horner():
    p = polynomial([0.1, 0.2, 0.3])
    z = 0.4 - 0.2j
    assert abs(evaluate(p, z)[0, 0] - (0.1 + 0.2 * z + 0.3 * z * z)) < 1e-15


def test_is_inner_classification():
    inner, defect = is_inner(blaschke([0.5, 0.2 + 0.1j]))
    assert inner and defect < 1e-12
    outer, defect = is_inner(polynomial([0.0, 0.5]))
    assert not outer and abs(defect - 0.75) < 1e-12


def test_defect_weight_half_shift():
    w = defect_weight(polynomial([0.0, 0.5]), 6)
    assert abs(w[0] - 0.75) < 1e-15
    for k in range(1, 7):
        assert abs(w[k]) < 1e-15
        assert abs(w[-k]) < 1e-15


def test_defect_weight_averaging_symbol():
    w = defect_weight(polynomial([0.5, 0.5]), 6)
    assert abs(w[0] - 0.5) < 1e-15
    assert abs(w[1] + 0.25) < 1e-15
    assert abs(w[-1] + 0.25) < 1e-15
    assert abs(w[2]) < 1e-15


def test_defect_weight_hermitian_and_inner_vanishing():
    w = defect_weight(blaschke([0.5]), 8)
    assert w.max_abs() < 1e-12
    rng = np.random.default_rng(11)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c *= 0.2 / np.max(np.abs(c))
    w2 = defect_weight(polynomial(c), 5)
    assert w2.hermitian_defect() < 1e-15


_SCHUR_SYMBOLS = st.tuples(st.integers(0, 2 ** 32 - 1),
                           st.sampled_from(["scalar", "matrix", "blaschke"]),
                           st.integers(1, 4), st.integers(0, 24))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_SCHUR_SYMBOLS)
def test_defect_weight_property_is_hermitian_with_psd_toeplitz_gram(case):
    # the Gram matrix G[m, n] = w_hat(m - n) is the one construct_example
    # factors; w = I - phi^H phi >= 0 on the circle makes it PSD
    seed, kind, n, k_max = case
    rng = np.random.default_rng(seed)
    if kind == "blaschke":
        sym = blaschke(0.8 * np.sqrt(rng.random(n))
                       * np.exp(2j * np.pi * rng.random(n)))
    else:
        d = 1 if kind == "scalar" else 2
        c = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        # coefficient norms summing to at most 1 keep sup |phi| <= 1
        c *= rng.random() / sum(np.linalg.norm(ck, 2) for ck in c)
        sym = polynomial(c[:, 0, 0] if d == 1 else c)
    w = defect_weight(sym, k_max)
    assert np.max(np.abs(w.values[::-1] - np.conj(w.values))) <= 1e-15
    idx = np.arange(k_max + 1)
    gram = w.values[k_max + idx[:, None] - idx[None, :]]
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-15
    assert np.linalg.eigvalsh(gram).min() >= -1e-12


def test_defect_weight_matches_quadrature():
    rng = np.random.default_rng(12)
    for _ in range(5):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        grid = unit_circle_grid(512)
        sup = max(abs(np.polyval(c[::-1], z)) for z in grid)
        c *= 0.9 / sup
        sym = polynomial(c)
        w = defect_weight(sym, 8)
        oracle = defect_weight_quadrature(sym, 8)
        assert np.max(np.abs(w.values - oracle)) < 1e-10


_WEIGHT_SYMBOLS = {
    "scalar": lambda: polynomial([0.2 + 0.1j, -0.3j, 0.25]),
    "matrix-fiber": lambda: polynomial(
        [np.diag([0.5, 0.3]), np.array([[0.1, 0.2], [0.0, 0.3j]])]),
    "blaschke": lambda: blaschke([0.35, -0.3j], 0.6 + 0.8j),
}


@pytest.mark.parametrize("name", sorted(_WEIGHT_SYMBOLS))
@pytest.mark.parametrize("k_max", [0, 1, 16, 128])
def test_defect_weight_matches_the_trace_loop(name, k_max):
    sym = _WEIGHT_SYMBOLS[name]()
    got = defect_weight(sym, k_max).values
    want = defect_weight_loop(sym, k_max).values
    assert np.max(np.abs(got - want)) <= 1e-15


_EVALUATED_SYMBOLS = {
    "matrix-fiber": _WEIGHT_SYMBOLS["matrix-fiber"],
    "blaschke": _WEIGHT_SYMBOLS["blaschke"],
    "constant": lambda: constant(np.array([[0.6, 0.0], [0.0, 0.8j]])),
}


@pytest.mark.parametrize("name", sorted(_EVALUATED_SYMBOLS))
def test_evaluate_on_an_array_matches_pointwise_evaluation(name):
    sym = _EVALUATED_SYMBOLS[name]()
    d = sym.fiber_dim
    pts = np.concatenate([unit_circle_grid(64),
                          0.7 * unit_circle_grid(7) * np.exp(0.3j), [0.0]])
    batched = evaluate(sym, pts)
    assert batched.shape == (pts.size, d, d)
    for z, val in zip(pts, batched):
        single = evaluate(sym, z)
        assert single.shape == (d, d)
        assert np.max(np.abs(val - single)) <= 1e-15


@pytest.mark.parametrize("coeffs", [
    [[[0.7]], [[0.6j]], [[0.2 - 0.1j]]],
    [np.diag([0.9, 0.3]), np.array([[0.3, 0.4], [0.0, 0.3j]])],
], ids=["scalar", "matrix-fiber"])
def test_boundary_excess_matches_pointwise_evaluation(coeffs):
    # built directly, so the symbol may leave the Schur class
    c = np.array(coeffs, dtype=np.complex128)
    sym = SchurSymbol(kind="polynomial", fiber_dim=c.shape[1], coeffs=c)
    pointwise = max(float(np.linalg.norm(evaluate(sym, z), 2)) - 1.0
                    for z in unit_circle_grid(256))
    assert pointwise > 0.1
    assert symbols._boundary_excess(sym, 256) == pointwise


def test_moment_sequence_indexing():
    vals = np.array([1 - 1j, 2.0, 1 + 1j])
    ms = MomentSequence(k_max=1, values=vals)
    assert ms[0] == 2.0
    assert ms[1] == 1 + 1j
    assert ms[-1] == np.conj(ms[1])
    with pytest.raises(DomainError):
        ms[2]


def test_blaschke_required_order_controls_tail():
    b = blaschke([0.5])
    order = blaschke_required_order(b, 10, 1e-12)
    assert coefficient_tail_bound(b, order) <= 1e-12
    assert blaschke_required_order(b, 20, 1e-12) == order + 10


def test_symbol_from_literal_round_trip():
    lit = {"kind": "blaschke", "zeros": [[0.5, 0.0]], "front": [0.0, 1.0]}
    sym = symbol_from_literal(lit)
    assert sym.kind == "blaschke"
    assert abs(sym.front - 1j) < 1e-15
    poly = symbol_from_literal({"kind": "polynomial", "coeffs": [0.5, 0.25]})
    assert poly.degree == 1
    const = symbol_from_literal({"kind": "constant", "value": [0.5, 0.0]})
    assert const.degree == 0


def test_symbol_from_literal_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        symbol_from_literal({"kind": "rational"})
