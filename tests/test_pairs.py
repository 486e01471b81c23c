"""Pair validation, the verdict battery, and structure recovery."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import woldlab.pairs
from woldlab.errors import (DimensionError, DomainError, PreconditionError,
                            ValidationError)
from woldlab.hardy import (GradedOperator, abstract_space, compress,
                           multiplier, shift)
from woldlab.linalg import (Subspace, complement, gram_defect, intersect,
                            kernel, mutual_orthogonality, operator_norm,
                            orthonormalize, reducing_residual,
                            subspace_distance, unimodular_clusters,
                            unitarity_defect, zero_subspace)
from woldlab.moments import finite_spectrum_forcing
from woldlab.pairs import (biunitary_pair, constant_shift_pair,
                           construct_example, finiteness_checks,
                           four_block_pair, model_decomposition,
                           point_spectrum_part, slocinski, tensor_shift_pair,
                           three_part_pair, validate_pair, verdict_battery)
from woldlab.symbols import SchurSymbol, blaschke, constant, polynomial, taylor
from woldlab.wold import hyper_range, unitary_part, wandering_subspace

from oracles import (model_audits_rungwise, r_v_dense,
                     reducing_residual_complement, slocinski_parts_intersect,
                     trusted_ladder_all_rungs, verdict_battery_projector)

HALF_SHIFT_NORM = 0.8660254037844386  # sqrt(3)/2
AVERAGE_NORM = 0.7071067811865476  # sqrt(1/2)


def _random_unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))[0]


def _haar_unitary(rng, n):
    """Haar-distributed: the QR factor with the phases of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_validate_pair_rejects_noncommuting_operators():
    rng = np.random.default_rng(0)
    u = _random_unitary(rng, 4)
    v = _random_unitary(rng, 4)
    with pytest.raises(DomainError, match="commute"):
        validate_pair(u, v)


def test_validate_pair_rejects_nonisometric_operator():
    half = 0.5 * np.eye(4)
    with pytest.raises(DomainError, match="isometric"):
        validate_pair(half, np.eye(4))


def test_validate_pair_rejects_mismatched_spaces():
    with pytest.raises(DimensionError):
        validate_pair(np.eye(4), np.eye(5))


def test_validate_pair_rejects_probe_from_another_space():
    probe = orthonormalize(np.eye(4)[:, :2])
    with pytest.raises(DimensionError, match="4.*3"):
        validate_pair(np.eye(3), np.eye(3), probe=probe)


def test_default_probe_needs_room_below_the_growth():
    with pytest.raises(ValidationError, match="probe"):
        validate_pair(compress(shift(1, 1)),
                      compress(multiplier(polynomial([0, 1.0]), 1)))


def test_validate_pair_rejects_a_given_empty_probe():
    with pytest.raises(ValidationError,
                       match="no coordinate of the 3-dimensional space"):
        validate_pair(np.eye(3), np.eye(3), probe=zero_subspace(3))


@pytest.mark.parametrize("build, error", [
    (lambda: four_block_pair(0, bidegree=1), DomainError),
    (lambda: four_block_pair(0, f_degree=0), ValidationError),
    (lambda: four_block_pair(0, g_degree=0), ValidationError),
    (lambda: constant_shift_pair(0.3, 0), ValidationError),
    (lambda: three_part_pair(0, degree=5), DomainError),
], ids=["four-bidegree-1", "four-f-degree-0", "four-g-degree-0",
        "constant-shift-0", "three-part-degree-5"])
def test_fixtures_refuse_degrees_too_small_for_a_summand(build, error):
    # inside a sum, the other summands' probe would hide an empty one
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("zero_cap", [1.0, 1.5, -0.5, float("nan")])
def test_three_part_pair_refuses_zero_cap_outside_unit_interval(
        zero_cap, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random draw was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(DomainError, match="zero_cap"):
        three_part_pair(1, degree=56, zero_cap=zero_cap)


def test_three_part_pair_builds_with_zeros_at_the_origin():
    pair, truth = three_part_pair(1, degree=56, zero_cap=0.0)
    assert np.all(truth["zeros"] == 0.0)
    assert pair.space.dim == 2 + 2 * 57


def test_three_part_pair_checks_its_degree_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scrambling unitary was drawn")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    with pytest.raises(DomainError, match="need more than 27"):
        three_part_pair(0, degree=5)


@pytest.mark.parametrize("phi", [blaschke([0.5], truncation_hint=120),
                                 constant(np.exp(0.7j))],
                         ids=["blaschke", "constant"])
def test_construct_example_of_inner_symbol_is_shift_and_multiplier(phi):
    degree = 16
    pair = construct_example(phi, degree)
    top = pair.space.dim - 1
    assert pair.space.coordinate_degrees == tuple(range(top + 1))
    assert np.array_equal(pair.s1.matrix, compress(shift(1, top)).matrix)
    assert np.array_equal(pair.s2.matrix,
                          compress(multiplier(phi, top)).matrix)
    assert np.array_equal(pair.probe.basis,
                          np.eye(top + 1)[:, :degree + 1])


def test_four_block_pair_is_the_sum_of_its_fixtures():
    seed, f_degree, g_degree, bidegree = 3, 7, 5, 4
    pair, _ = four_block_pair(seed, f_degree=f_degree, g_degree=g_degree,
                              bidegree=bidegree)
    # replay the draws: the bi-unitary block, then the two phases
    rng = np.random.default_rng(seed)
    v1, v2 = woldlab.pairs._commuting_unitaries(rng, 2)
    alpha = float(2 * np.pi * rng.random())
    beta = float(2 * np.pi * rng.random())
    us = constant_shift_pair(alpha, f_degree)
    su = constant_shift_pair(beta, g_degree)
    ss = tensor_shift_pair(bidegree, bidegree)
    assert np.array_equal(pair.s1.matrix, block_diag(
        v1, us.s1.matrix, su.s2.matrix, ss.s1.matrix))
    assert np.array_equal(pair.s2.matrix, block_diag(
        v2, us.s2.matrix, su.s1.matrix, ss.s2.matrix))
    assert np.array_equal(pair.probe.basis, block_diag(
        np.eye(2), us.probe.basis, su.probe.basis, ss.probe.basis))


def test_construct_example_half_shift_gram_is_scalar():
    pair = construct_example(polynomial([0, 0.5]), 16)
    a = pair.assembly
    assert a.rank == 17
    assert np.allclose(a.gram, 0.75 * np.eye(17), atol=1e-14)
    assert pair.commutator_residual == 0.0
    assert pair.defect_1 <= 1e-12 and pair.defect_2 <= 1e-12
    assert np.allclose(a.factor.conj().T @ a.factor, a.gram, atol=1e-12)


def test_construct_example_average_gram_is_tridiagonal():
    pair = construct_example(polynomial([0.5, 0.5]), 16)
    g = pair.assembly.gram
    assert pair.assembly.rank == 17
    assert abs(g[0, 0] - 0.5) < 1e-14
    assert abs(g[0, 1] + 0.25) < 1e-14
    assert abs(g[0, 2]) < 1e-14


def test_construct_example_inner_symbol_needs_no_boundary():
    pair = construct_example(blaschke([0.5], truncation_hint=120), 16)
    assert pair.assembly.rank == 0
    assert pair.assembly.b1.size == 0


def test_construct_example_rejects_symbol_outside_schur_class():
    bad = SchurSymbol(kind="polynomial", fiber_dim=1,
                      coeffs=np.array([[[1.3]]], dtype=np.complex128),
                      zeros=None, front=1.0 + 0.0j, truncation_hint=None)
    with pytest.raises(DomainError, match="Schur"):
        construct_example(bad, 8)


def test_construct_example_rejects_matrix_symbol():
    with pytest.raises(DomainError, match="scalar"):
        construct_example(constant(np.eye(2)), 8)


def test_verdict_battery_flags_noninner_symbol():
    pair = construct_example(polynomial([0, 0.5]), 16)
    rep = verdict_battery(pair)
    assert not rep.verdict
    assert not rep.vacuous
    assert abs(rep.r_iii - HALF_SHIFT_NORM) < 1e-12
    assert abs(rep.r_i - np.sqrt(1.5)) < 1e-9
    assert abs(rep.r_ii - np.sqrt(1.5)) < 1e-9
    assert rep.levels == [7, 14, 21]
    assert rep.r_iv == [[7], [14], [17]]
    flat = [row[0] for row in rep.r_iv]
    assert all(a < b for a, b in zip(flat, flat[1:]))


def test_verdict_battery_accepts_inner_symbol():
    pair = construct_example(blaschke([0.5], truncation_hint=120), 16)
    rep = verdict_battery(pair)
    assert rep.verdict
    assert not rep.vacuous
    assert rep.r_i <= 1e-10 and rep.r_ii <= 1e-10 and rep.r_iii <= 1e-10
    assert all(d == 0 for row in rep.r_iv for d in row)


def test_verdict_battery_constant_shift_is_vacuous():
    rep = verdict_battery(constant_shift_pair(1.1, 12))
    assert rep.verdict
    assert rep.vacuous
    assert rep.r_iii == 0.0


def test_verdict_battery_tensor_and_biunitary_pass():
    rep_t = verdict_battery(tensor_shift_pair(5, 5))
    assert rep_t.verdict and not rep_t.vacuous
    rep_b = verdict_battery(biunitary_pair(3, 5))
    assert rep_b.verdict and rep_b.vacuous


_BATTERY_PAIRS = {
    **{f"{kind}-{d}": (lambda sym=sym, d=d: construct_example(sym(), d))
       for kind, sym in (
           ("polynomial", lambda: polynomial([0.5, 0.5])),
           ("blaschke", lambda: blaschke([0.35, -0.3j])),
           ("constant", lambda: constant(np.array([[1j]]))))
       for d in (16, 32, 48)},
    "three-part": lambda: three_part_pair(0)[0],
    "four-block": lambda: four_block_pair(1)[0],
    "tensor": lambda: tensor_shift_pair(5, 5),
    "biunitary": lambda: biunitary_pair(3, 5),
    # a dense complement basis and a nonzero block B = Q^H S2 Q_perp, so r_v
    # reads B through a dense R factor
    "scrambled-polynomial-16": lambda: _scrambled_example(16, 3),
}


@pytest.mark.parametrize("name", sorted(_BATTERY_PAIRS))
def test_verdict_battery_matches_projector_oracle(name):
    pair = _BATTERY_PAIRS[name]()
    got = verdict_battery(pair)
    want = verdict_battery_projector(pair)
    for field in ("r_i", "r_ii", "r_iii"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13
    assert len(got.r_v) == len(want.r_v)
    for row, ref in zip(got.r_v, want.r_v):
        assert len(row) == len(ref)
        assert np.max(np.abs(np.subtract(row, ref))) <= 1e-13
    assert got.r_iv == want.r_iv
    assert got.levels == want.levels
    assert got.verdict == want.verdict
    assert got.vacuous == want.vacuous
    assert got.e_subspace.dim == want.e_subspace.dim


def test_verdict_battery_runs_no_full_size_svd(monkeypatch):
    pair = construct_example(polynomial([0.5, 0.5]), 48)
    n = pair.space.dim
    # cached on the pair: count the battery's own SVDs
    pair.split_1
    largest = max(rows.stop - rows.start for rows in pair.s1_blocks)
    wide, svd_rows = [], []

    def recording(real):
        is_svd = real is np.linalg.svd

        def call(a, *args, **kwargs):
            if np.shape(a)[-1] == n:
                wide.append((real.__name__, np.shape(a)))
            if is_svd:
                svd_rows.append(np.shape(a)[0])
            return real(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    for name in ("operator_norm", "gram_defect"):
        monkeypatch.setattr(woldlab.pairs, name,
                            recording(getattr(woldlab.pairs, name)))
    rep = verdict_battery(pair)
    head = list(svd_rows)
    rep.r_iv, rep.r_v  # the tail's SVDs count too
    # the top cap of r_v reads B = Q^H S2 Q_perp by column selection on
    # this coordinate split, so no SVD or norm input spans all n columns,
    # let alone n x n
    assert wide == []
    # E is found block by block and H & probe by its masks: before the tail
    # is read, no SVD has more rows than S1's largest diagonal block (54 of
    # 201)
    assert largest < n
    assert head and max(head) <= largest


@pytest.mark.parametrize("make", [
    lambda: construct_example(blaschke([0.5], truncation_hint=120), 16),
    lambda: three_part_pair(1, degree=40)[0],
    lambda: four_block_pair(3, f_degree=10, g_degree=10, bidegree=8)[0],
], ids=["example", "three-part", "four-block"])
def test_battery_tail_is_computed_only_when_read(make):
    pair = make()
    rep = verdict_battery(pair, seed=3)
    model_decomposition(pair)
    finiteness_checks(pair)
    for report in (rep, pair.verdict_report):
        assert "r_iv" not in vars(report) and "r_v" not in vars(report)
    # read, the tail is cached, and its samples come from the seed given
    want = verdict_battery_projector(pair, seed=3)
    assert rep.r_iv == want.r_iv and rep.r_iv is rep.r_iv
    assert np.max(np.abs(np.subtract(rep.r_v, want.r_v))) <= 1e-13


def test_a_pair_whose_report_was_read_dies_without_a_collection():
    # the report holds arrays, not the pair: the pair, its cached report
    # and the report's lazy tail form no reference cycle
    gc.disable()
    try:
        pair = construct_example(polynomial([0.5, 0.5]), 16)
        rep = pair.verdict_report
        rep.r_iv, rep.r_v
        ref = weakref.ref(pair)
        del pair
        assert ref() is None
        assert rep.r_iv == [[7], [14], [17]]
    finally:
        gc.enable()


_BLOCK_PATH_PAIRS = {
    **{f"polynomial-{d}": (lambda d=d: construct_example(
        polynomial([0.5, 0.5]), d)) for d in (16, 32, 48)},
    # a 9-dimensional E across the shift block and the tensor-shift block
    "four-block-3": lambda: four_block_pair(
        3, f_degree=10, g_degree=10, bidegree=8)[0],
}


@pytest.mark.parametrize("name", sorted(_BLOCK_PATH_PAIRS))
def test_block_path_finds_the_subspaces_of_the_general_path(name):
    pair = _BLOCK_PATH_PAIRS[name]()
    m1, split, probe = pair.s1.matrix, pair.split_1, pair.probe
    assert np.array_equal(probe.mask, np.any(probe.basis != 0, axis=1))
    e_sub = woldlab.pairs._probed_wandering(m1.conj().T, probe,
                                            pair.s1_blocks)
    assert len(pair.s1_blocks) > 1
    assert np.array_equal(verdict_battery(pair).e_subspace.basis,
                          e_sub.basis)
    h_probe = intersect(split.h_inf, probe)
    assert split.h_inf.mask is not None and h_probe.mask is not None
    # the dense oracles: the deflation's own basis, and unmasked probes
    plain = Subspace(probe.basis.copy())
    want_e = intersect(kernel(m1.conj().T), plain)
    want_h = intersect(hyper_range(m1), plain)
    assert e_sub.dim == want_e.dim > 0
    assert h_probe.dim == want_h.dim
    assert subspace_distance(e_sub, want_e) <= 1e-12
    assert subspace_distance(h_probe, want_h) <= 1e-12
    owners = sum(np.linalg.norm(e_sub.basis[rows]) > 0.5
                 for rows in pair.s1_blocks)
    assert owners == (2 if name.startswith("four-block") else 1)


@pytest.mark.parametrize("make", [
    lambda: construct_example(polynomial([0.5, 0.5]), 32),
    lambda: tensor_shift_pair(5, 5),
    lambda: three_part_pair(1)[0],
], ids=["example", "tensor", "three-part"])
def test_validate_pair_passes_an_exact_pair_with_no_svd(make, monkeypatch):
    pair = make()

    def refuse(*args, **kwargs):
        raise AssertionError("validation ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for name in ("operator_norm", "gram_defect"):
        monkeypatch.setattr(woldlab.pairs, name, refuse)
    validate_pair(pair.s1, pair.s2, pair.probe)


def _planted_defect_pair():
    """A tensor shift beside a 2 x 2 block on which ``S1 = c diag(1, -1)``
    and ``S2`` is a rotation by ``t``: the Gram defect of ``S1`` and the
    commutator are both 5e-9, planted below the 1e-8 gate. Every product
    has one nonzero term, so both routes form them exactly alike."""
    c = np.sqrt(1.0 + 5e-9)
    t = np.arcsin(2.5e-9 / c)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return woldlab.pairs._block_pair(
        [woldlab.pairs._tensor_shift_part(3, 3),
         (abstract_space(2), c * np.diag([1.0, -1.0]), rot,
          np.ones(2, dtype=bool))])


def test_pair_residuals_are_the_exact_operator_norms():
    pairs = [construct_example(polynomial([0.5, 0.5]), 32),
             *(four_block_pair(s)[0] for s in range(4)),
             three_part_pair(0)[0], _planted_defect_pair()]
    for pair in pairs:
        m1, m2, pb = pair.s1.matrix, pair.s2.matrix, pair.probe.basis
        assert "defect_1" not in vars(pair)  # computed on first read
        got = (pair.commutator_residual, pair.defect_1, pair.defect_2)
        want = (operator_norm((m1 @ m2 - m2 @ m1) @ pb),
                gram_defect(m1 @ pb), gram_defect(m2 @ pb))
        # The two routes sum the same products in different orders. A
        # product of inner size n is within gamma_n |A| |B| of the exact
        # one, gamma_n about n eps (Higham, Accuracy and Stability of
        # Numerical Algorithms, section 3.5), so each route lies within
        # about n eps ||S1|| ||S2|| of the exact matrix; 8 covers two
        # products per route, two routes and the SVD that takes the norm.
        bound = 8 * pair.space.dim * np.finfo(float).eps * max(
            operator_norm(m1), operator_norm(m2)) ** 2
        assert np.max(np.abs(np.subtract(got, want))) <= bound
    # the last pair's planted defects, far below that bound, read to 1e-12
    assert got[:2] == pytest.approx((5e-9, 5e-9), rel=1e-6)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_validate_pair_decides_by_the_operator_norm_past_the_bound():
    # every eigenvalue of the Gram defect is 9e-9: its Frobenius norm over
    # 16 probe directions is 3.6e-8, above 1e-8, its operator norm is not
    c = np.sqrt(1.0 - 9e-9)
    pair = validate_pair(c * np.eye(16), np.eye(16))
    assert pair.defect_1 == pytest.approx(9e-9, rel=1e-6)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["s1", "s2"])
def test_validate_pair_refuses_a_non_finite_entry(which, value):
    # the GradedOperator a pair is built from refuses the entry, so it
    # never reaches a norm or an SVD
    pair = construct_example(polynomial([0.5, 0.5]), 16)
    op = getattr(pair, which)
    col = int(np.flatnonzero(pair.probe.basis[:, 0])[0])
    m = op.matrix.copy()
    m[3, col] = value
    ops = dict(s1=pair.s1, s2=pair.s2)
    with pytest.raises(ValidationError, match="non-finite"):
        ops[which] = GradedOperator(matrix=m, domain=op.domain,
                                    codomain=op.codomain)
        validate_pair(ops["s1"], ops["s2"], pair.probe)


def _accepts(s1, s2):
    try:
        validate_pair(s1, s2)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6],
                         ids=["below", "above"])
def test_validate_pair_decides_a_straddling_gram_defect_as_the_exact_norm(
        side):
    # every eigenvalue of the Gram defect of S2 is 1e-8 (1 -+ 1e-6): its
    # Frobenius norm over 6 directions leaves the question open
    s1 = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    s2 = np.sqrt(1.0 + 1e-8 * side) * np.diag([1.0, 1.0, -1.0, -1.0, 1j, 1j])
    exact = gram_defect(s2)
    assert exact == pytest.approx(1e-8 * side, rel=1e-9)
    assert _accepts(s1, s2) == (exact <= 1e-8) == (side < 1.0)


@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6],
                         ids=["below", "above"])
def test_validate_pair_decides_a_straddling_commutator_as_the_exact_norm(
        side):
    # S1 = diag(1, -1) and a rotation by t: the commutator is 2 sin t on
    # the antidiagonal, its Frobenius norm sqrt(2) times its operator norm
    t = np.arcsin(0.5e-8 * side)
    s2 = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    s1 = np.diag([1.0, -1.0])
    exact = operator_norm(s1 @ s2 - s2 @ s1)
    assert exact == pytest.approx(1e-8 * side, rel=1e-9)
    assert _accepts(s1, s2) == (exact <= 1e-8) == (side < 1.0)


def test_validate_pair_decides_each_block_of_the_first_operator_alone(
        svd_calls):
    # each 1 x 1 block's Gram defect is 8e-9, within 1e-8 by its own
    # Frobenius norm, though the two summed in one Frobenius norm exceed it
    c = np.sqrt(1.0 + 8e-9)
    pair = validate_pair(np.diag([c, -c]), np.eye(2))
    assert len(pair.s1_blocks) == 2
    assert svd_calls == []
    assert pair.defect_1 == pytest.approx(8e-9, rel=1e-6)


def test_validate_pair_failures_name_the_exact_operator_norm():
    rng = np.random.default_rng(0)
    u = _random_unitary(rng, 4)
    v = _random_unitary(rng, 4)
    comm = operator_norm(u @ v - v @ u)
    with pytest.raises(DomainError) as info:
        validate_pair(u, v)
    assert str(info.value) == f"operators do not commute: residual {comm:.3e}"
    # a Frobenius defect of 1.5 but an operator-norm defect of 0.75
    with pytest.raises(DomainError) as info:
        validate_pair(0.5 * np.eye(4), np.eye(4))
    assert str(info.value) == \
        "first operator is not isometric on the probe: defect 7.500e-01"
    with pytest.raises(DomainError) as info:
        validate_pair(np.eye(4), np.diag([1.0, 1.0, 1.0, 0.5]))
    assert str(info.value) == \
        "second operator is not isometric on the probe: defect 7.500e-01"


def _block_sum_operators(rng, defect: float, twist: bool, where: int = 2):
    """Commuting block sums over three diagonal blocks of ``S1``; block
    ``where`` of ``S1`` is ``(1 + defect)`` times a unitary, and with
    ``twist`` block ``where`` of ``S2`` is a unitary that does not commute
    with it."""
    u, v, w = (_random_unitary(rng, k) for k in (3, 3, 2))
    first, second = [u, v, w], [u @ u, v.conj().T, w]
    first[where] = (1.0 + defect) * first[where]
    if twist:
        second[where] = _random_unitary(rng, first[where].shape[0])
    return block_diag(*first), block_diag(*second)


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("defect, twist", [(1e-6, False), (0.0, True)],
                         ids=["isometry-defect", "commutator"])
def test_validate_pair_refuses_a_defect_in_one_block_only(defect, twist,
                                                          where):
    # the block-by-block bounds must read every block; the message carries
    # the exact operator norm, not the Frobenius bound
    s1, s2 = _block_sum_operators(np.random.default_rng(8), defect, twist,
                                  where)
    assert len(woldlab.wold._block_slices(s1)) == 3
    if twist:
        want = "operators do not commute: residual " \
            f"{operator_norm(s1 @ s2 - s2 @ s1):.3e}"
    else:
        want = "first operator is not isometric on the probe: defect " \
            f"{gram_defect(s1):.3e}"
    with pytest.raises(DomainError) as info:
        validate_pair(s1, s2)
    assert str(info.value) == want
    # and the same pair without the defect passes
    validate_pair(*_block_sum_operators(np.random.default_rng(8), 0.0, False))


@pytest.mark.parametrize("make", [
    lambda: construct_example(polynomial([0.5, 0.5]), 24),
    lambda: four_block_pair(2)[0],
    lambda: three_part_pair(2, degree=30)[0],
    lambda: tensor_shift_pair(5, 5),
], ids=["example", "four-block", "three-part", "tensor"])
def test_a_pair_finds_its_first_operator_blocks_once(make, monkeypatch):
    calls = []
    real = woldlab.wold._diagonal_blocks

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(woldlab.wold, "_diagonal_blocks", counting)
    pair = make()
    verdict_battery(pair)
    n = pair.space.dim
    assert calls == [(n, n)]


def _partially_probed_pair():
    # the unitary block's hyper-range meets the probe in two of its three
    # coordinates, so its intersection takes coefficients, not the block
    s1 = block_diag(_random_unitary(np.random.default_rng(9), 3),
                    compress(shift(1, 4)).matrix)
    mask = np.array([True, True, False] + [True] * 4 + [False])
    return validate_pair(s1, np.eye(8), Subspace.coordinates(mask))


def _mixed_part(rng):
    """A block the deflation keeps in part: ``S1 = [[e^{i t}, 0.6], [0, 0]]``
    and ``S2 = I``, trusted on the first coordinate, whose hyper-range is
    that coordinate, one of the block's two."""
    a1 = np.zeros((2, 2), dtype=np.complex128)
    a1[0] = np.exp(2j * np.pi * rng.random()), 0.6
    return (abstract_space(2), a1, np.eye(2, dtype=np.complex128),
            np.array([True, False]))


def _mixed_block_sum(seed):
    """A bi-unitary, a mixed and a tensor-shift part: ``H`` is no
    coordinate subspace, so the split keeps the deflation's dense bases."""
    return woldlab.pairs._block_pair(
        [woldlab.pairs._biunitary_part(np.random.default_rng(seed), 2),
         _mixed_part(np.random.default_rng(seed)),
         woldlab.pairs._tensor_shift_part(2, 3)])


_ISO_DC_PAIRS = {**_BLOCK_PATH_PAIRS, "partial": _partially_probed_pair,
                 "mixed": lambda: _mixed_block_sum(4)}


@pytest.mark.parametrize("name", sorted(_ISO_DC_PAIRS))
def test_block_path_iso_and_dc_match_the_dense_products(name):
    pair = _ISO_DC_PAIRS[name]()
    m1, m2, split = pair.s1.matrix, pair.s2.matrix, pair.split_1
    m1h = m1.conj().T
    x = intersect(split.h_inf, pair.probe)
    assert (x.mask is None) == (name == "mixed")
    _, image, commutator = woldlab.pairs._commutator_images(
        m1h, m2, x, pair.s1_blocks)
    got = (gram_defect(woldlab.linalg._adjoint_times(split.h_inf, image)),
           operator_norm(commutator))
    # the dense oracle: the deflation's own basis and an unmasked probe
    q = hyper_range(m1)
    xd = intersect(q, Subspace(pair.probe.basis.copy())).basis
    want = (gram_defect(q.basis.conj().T @ (m2 @ xd)),
            operator_norm(m1h @ (m2 @ xd) - m2 @ (m1h @ xd)))
    assert x.dim == xd.shape[1] > 0
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14)
    rep = verdict_battery(pair)
    assert rep.r_i - rep.r_ii == pytest.approx(want[0] - want[1], abs=1e-14)


@pytest.mark.parametrize("make, coordinate", [
    (lambda: construct_example(polynomial([0.5, 0.5]), 32), True),
    (lambda: construct_example(blaschke([0.35, -0.3j]), 16), True),
    (lambda: four_block_pair(0)[0], True),
    (lambda: four_block_pair(1, f_degree=10, g_degree=10, bidegree=8)[0],
     True),
    (lambda: tensor_shift_pair(5, 5), True),
    (lambda: three_part_pair(0)[0], False),
    (lambda: _mixed_block_sum(0), False),
], ids=["example", "blaschke", "four-block", "four-block-cli", "tensor",
        "three-part", "mixed"])
def test_split_is_a_coordinate_subspace_when_every_block_is_whole(
        make, coordinate):
    # kept or dropped whole, the blocks of S1 give H as their coordinates;
    # a block kept in part, or one scrambled block, keeps the dense bases
    pair = make()
    split = pair.split_1
    assert (split.h_inf.mask is not None) == coordinate
    assert (split.h_perp.mask is not None) == coordinate
    if coordinate:
        assert np.array_equal(split.h_perp.mask, ~split.h_inf.mask)
        assert np.array_equal(split.a2, pair.s2.matrix[np.ix_(
            split.h_inf.mask, split.h_inf.mask)])
    want = hyper_range(pair.s1.matrix)
    assert split.h_inf.dim == want.dim
    assert subspace_distance(split.h_inf, want) <= 1e-12
    q = split.h_inf.basis
    assert np.max(np.abs(split.a2 - q.conj().T @ pair.s2.matrix @ q),
                  initial=0.0) <= 1e-14


def test_model_decomposition_requires_true_verdict():
    pair = construct_example(polynomial([0, 0.5]), 16)
    with pytest.raises(PreconditionError, match="0.866"):
        model_decomposition(pair)


def test_model_decomposition_recovers_scrambled_three_part_sum():
    pair, truth = three_part_pair(0)
    md = model_decomposition(pair)
    assert md.h_uu.dim == truth["uu_dim"] == 2
    assert md.f_dim == 1 and md.e_dim == 1
    assert md.f_ladder_dim == 55 and md.e_ladder_dim == 30
    assert md.psi_unitarity <= 1e-10
    assert abs(md.psi[0, 0] - truth["psi"]) <= 1e-8
    assert md.toeplitz_residual <= 1e-10
    assert md.reconstruction_residual <= 1e-8
    want = taylor(truth["phi"], md.phi_coeffs.shape[0] - 1)[:, 0, 0]
    got = md.phi_coeffs[:, 0, 0]
    assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-8
    ang = sorted(np.angle(np.linalg.eigvals(md.v1)))
    want_ang = sorted(np.angle(np.linalg.eigvals(truth["v1"])))
    assert np.allclose(ang, want_ang, atol=1e-8)


_MODEL_PAIRS = {
    **{f"three-part-{s}": (lambda s=s: three_part_pair(s)[0])
       for s in range(4)},
    "three-part-8-deg64": lambda: three_part_pair(8, degree=64, uu_dim=3)[0],
    "tensor": lambda: tensor_shift_pair(5, 5),
    "blaschke-16": lambda: construct_example(blaschke([0.4]), 16),
    "constant-shift": lambda: constant_shift_pair(1.1, 12),
    "biunitary": lambda: biunitary_pair(3, 5),
}


@pytest.mark.parametrize("name", sorted(_MODEL_PAIRS))
def test_model_decomposition_matches_rungwise_oracle(name):
    pair = _MODEL_PAIRS[name]()
    md = model_decomposition(pair)
    want = model_audits_rungwise(pair)
    assert md.f_ladder_dim == want["f_ladder_dim"]
    assert md.e_ladder_dim == want["e_ladder_dim"]
    assert md.phi_coeffs.shape == want["phi_coeffs"].shape
    assert np.max(np.abs(md.phi_coeffs - want["phi_coeffs"]),
                  initial=0.0) <= 1e-14
    for field in ("toeplitz_residual", "reconstruction_residual"):
        assert abs(getattr(md, field) - want[field]) <= 1e-14


def test_model_decomposition_reads_one_compression(monkeypatch):
    pair, _ = three_part_pair(0)
    pair.verdict_report  # cached on the pair: count the split's own norms
    real = np.linalg.norm
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    md = model_decomposition(pair)
    # two stop checks per rung of each ladder plus a fixed budget; a norm
    # per rung pair or per audited rung exceeds it
    assert len(calls) <= 2 * (md.f_ladder_dim + md.e_ladder_dim) + 60


def test_model_decomposition_of_tensor_pair_is_all_multiplier():
    md = model_decomposition(tensor_shift_pair(5, 5))
    assert md.h_uu.basis.shape == (36, 0)
    assert md.v1.shape == md.v2.shape == md.psi.shape == (0, 0)
    assert md.f_dim == 0 and md.f_ladder_dim == 0
    assert md.e_ladder_dim == 1
    assert md.e_dim == 6
    assert md.phi is not None and md.phi.fiber_dim == 6
    assert md.phi_coeffs.shape == (1, 6, 6)
    sv = np.linalg.svd(md.phi_coeffs[0], compute_uv=False)
    assert np.allclose(sv, [1, 1, 1, 1, 1, 0], atol=1e-10)
    assert md.reconstruction_residual <= 1e-10
    assert md.toeplitz_residual <= 1e-10


def test_slocinski_splits_four_block_sum_exactly():
    pair, expected = four_block_pair(2)
    dec = slocinski(pair)
    assert dec.dims == expected
    assert dec.labels == {"uu": ("unitary", "unitary"),
                          "us": ("unitary", "shift"),
                          "su": ("shift", "unitary"),
                          "ss": ("shift", "shift")}
    assert dec.fiber_dims["us"] == (0, 1)
    assert dec.fiber_dims["su"] == (1, 0)
    assert dec.fiber_dims["ss"] == (6, 6)
    assert dec.orthogonality_residual <= 1e-8
    assert dec.reduction_residual <= 1e-8
    assert dec.double_commutation_residual <= 1e-8


@pytest.mark.parametrize("seed", [0, 3])
def test_slocinski_constant_symbols_read_the_constant_unitaries(seed):
    pair, expected = four_block_pair(seed, f_degree=10, g_degree=10,
                                     bidegree=8)
    consts = slocinski(pair).constant_symbols
    assert consts["uu"] is None and consts["ss"] is None
    # S1 is exp(i alpha) on the us block, S2 is exp(i beta) on the su block
    us, su = expected["uu"], expected["uu"] + expected["us"]
    assert consts["us"].shape == consts["su"].shape == (1, 1)
    assert abs(consts["us"][0, 0] - pair.s1.matrix[us, us]) <= 1e-12
    assert abs(consts["su"][0, 0] - pair.s2.matrix[su, su]) <= 1e-12
    assert abs(abs(consts["us"][0, 0]) - 1.0) <= 1e-12


def test_reducing_residual_matches_complement_oracle_on_every_part():
    pair, _ = four_block_pair(2)
    for sub in slocinski(pair).parts.values():
        for m in (pair.s1.matrix, pair.s2.matrix):
            got = reducing_residual(m, sub)
            want = reducing_residual_complement(m, sub)
            assert np.max(np.abs(np.subtract(got, want))) \
                <= 1e-13 * max(1.0, operator_norm(m))


def test_slocinski_tensor_pair_is_pure_double_shift():
    dec = slocinski(tensor_shift_pair(5, 5))
    assert dec.dims == {"uu": 0, "us": 0, "su": 0, "ss": 36}
    assert dec.orthogonality_residual == 0.0


def _conjugated(pair, u, sp=None):
    """The pair and its probe conjugated by the unitary ``u``, on ``sp``
    (by default an ungraded space)."""
    sp = abstract_space(pair.space.dim) if sp is None else sp
    s1, s2 = (GradedOperator(matrix=u @ m @ u.conj().T, domain=sp,
                             codomain=sp)
              for m in (pair.s1.matrix, pair.s2.matrix))
    return validate_pair(s1, s2, probe=Subspace(u @ pair.probe.basis))


def _scrambled_example(degree, seed):
    """The example conjugated by a Haar unitary, keeping its graded space,
    so that each cap masks a proper subset of the dense ``Q_perp^H``."""
    pair = construct_example(polynomial([0.5, 0.5]), degree)
    u = _haar_unitary(np.random.default_rng(seed), pair.space.dim)
    return _conjugated(pair, u, pair.space)


def _scrambled_four_block(seed):
    pair, _ = four_block_pair(seed)
    u = _random_unitary(np.random.default_rng(100 + seed), pair.space.dim)
    return _conjugated(pair, u)


_SLOCINSKI_PAIRS = {
    **{f"four-block-{s}": (lambda s=s: four_block_pair(s)[0])
       for s in range(6)},
    **{f"four-block-{s}-cli": (lambda s=s: four_block_pair(
        s, f_degree=10, g_degree=10, bidegree=8)[0]) for s in range(6)},
    **{f"scrambled-{s}": (lambda s=s: _scrambled_four_block(s))
       for s in range(8)},
    "tensor-5": lambda: tensor_shift_pair(5, 5),
    "tensor-9": lambda: tensor_shift_pair(9, 9),
    "biunitary": lambda: biunitary_pair(3, 5),
    "constant-shift": lambda: constant_shift_pair(1.1, 12),
}


@pytest.mark.parametrize("name", sorted(_SLOCINSKI_PAIRS))
def test_slocinski_matches_intersect_oracle(name, monkeypatch):
    pair = _SLOCINSKI_PAIRS[name]()
    pair.split_1  # cached before recording
    real = woldlab.pairs.hyper_range_split
    halves = []

    def recording(t, *args, **kwargs):
        halves.append(real(t, *args, **kwargs))
        return halves[-1]

    monkeypatch.setattr(woldlab.pairs, "hyper_range_split", recording)
    got = slocinski(pair)
    # unscrambled, each half's blocks are kept or dropped whole
    assert len(halves) == 2
    assert all((half.mask is not None) == (not name.startswith("scrambled"))
               for split in halves for half in split)
    want = slocinski_parts_intersect(pair)
    assert got.dims == {k: sub.dim for k, sub in want.items()}
    for key, sub in want.items():
        assert subspace_distance(got.parts[key], sub) <= 1e-12
        if sub.dim == 0:
            assert got.labels[key] == ("empty", "empty")
            assert got.fiber_dims[key] == (0, 0)
            continue
        c1, c2 = (sub.basis.conj().T @ m @ sub.basis
                  for m in (pair.s1.matrix, pair.s2.matrix))
        assert got.labels[key] == tuple(
            "unitary" if unitarity_defect(c) <= 1e-8 else "shift"
            for c in (c1, c2))
        assert got.fiber_dims[key] == (wandering_subspace(c1).dim,
                                       wandering_subspace(c2).dim)


def test_slocinski_reads_the_two_halves_at_working_size(monkeypatch):
    pair, _ = four_block_pair(2)
    n, h = pair.space.dim, pair.split_1.h_inf.dim  # cached before counting
    real_split, real_complement = (woldlab.pairs.hyper_range_split,
                                   woldlab.pairs.complement)
    shapes, complements = [], []

    def counting_split(t, *args, **kwargs):
        shapes.append(np.shape(t))
        return real_split(t, *args, **kwargs)

    def counting_complement(sub, *args, **kwargs):
        complements.append(sub.ambient_dim)
        return real_complement(sub, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "hyper_range_split", counting_split)
    monkeypatch.setattr(woldlab.pairs, "complement", counting_complement)
    slocinski(pair)
    assert 0 < h < n
    # each half gives both its parts from one split, with no complement
    assert shapes == [(h, h), (n - h, n - h)]
    assert complements == []


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 32 - 1))
def test_slocinski_property_commutes_with_unitary_conjugation(seed, qseed):
    pair, _ = four_block_pair(seed)
    u = _random_unitary(np.random.default_rng(qseed), pair.space.dim)
    base = slocinski(pair)
    moved = slocinski(_conjugated(pair, u))
    assert moved.dims == base.dims
    for key, sub in base.parts.items():
        assert subspace_distance(moved.parts[key],
                                 Subspace(u @ sub.basis)) <= 1e-10


def test_slocinski_rejects_pair_without_double_commutation():
    pair = validate_pair(
        compress(shift(1, 52)),
        compress(multiplier(blaschke([0.5], truncation_hint=60), 52)))
    with pytest.raises(PreconditionError, match="8.660e-01"):
        slocinski(pair)


def test_point_spectrum_of_biunitary_pair_is_everything():
    dec = point_spectrum_part(biunitary_pair(3, 5))
    assert dec.subspace.dim == 3
    assert len(dec.eigenpairs) == 3
    assert dec.unimodularity <= 1e-10
    assert dec.reduction_residual_1 <= 1e-10
    assert dec.reduction_residual_2 <= 1e-10


def test_finiteness_checks_count_three_part_invariants():
    pair, _ = three_part_pair(0)
    rep = finiteness_checks(pair)
    assert (rep.dim_a, rep.dim_b, rep.spectrum_card) == (1, 1, 3)
    assert rep.verdict


def test_finiteness_checks_of_tensor_pair_count_an_empty_hyper_range():
    pair = tensor_shift_pair(5, 5)
    assert pair.split_1.h_inf.dim == 0
    rep = finiteness_checks(pair)
    assert (rep.dim_a, rep.dim_b, rep.spectrum_card) == (0, 0, 0)
    assert rep.verdict and rep.r_iii == 0.0


def test_finiteness_checks_report_failed_verdict():
    rep = finiteness_checks(construct_example(polynomial([0, 0.5]), 16))
    assert not rep.verdict
    assert abs(rep.r_iii - HALF_SHIFT_NORM) < 1e-12
    assert (rep.dim_a, rep.dim_b, rep.spectrum_card) == (17, 16, 17)


def test_average_symbol_projected_norm_matches_weight_mass():
    pair = construct_example(polynomial([0.5, 0.5]), 32)
    rep = verdict_battery(pair)
    assert abs(rep.r_iii - AVERAGE_NORM) < 1e-6


def test_finiteness_cardinality_counts_the_default_forcing_atoms():
    # 0.3 and 0.3 + 6e-7 share an anchor, 0.3 + 1.2e-6 starts its own
    # cluster, and the two values straddling angle pi form one cluster
    angles = [0.3, 0.3 + 6e-7, 0.3 + 1.2e-6, np.pi - 2e-7, -np.pi + 2e-7]
    pair = validate_pair(np.diag(np.exp(1j * np.array(angles))), np.eye(5))
    card = finiteness_checks(pair).spectrum_card
    block = unitary_part(pair.s1.matrix).unitary_block
    # two atoms 1.2e-6 apart leave the forcing fit nearly rank deficient,
    # and the projected gradient stops at its iteration cap
    with pytest.warns(RuntimeWarning, match="max_iter"):
        atoms = finite_spectrum_forcing(block, polynomial([0, 0.5]), 4).atoms
    assert card == atoms.size == 3


def test_pair_computes_its_first_hyper_range_once(monkeypatch):
    # every analysis reads the one split of the space by H_inf(S1); after
    # it, no split, hyper-range or complement is taken at full size
    real_split, real_range, real_complement = (
        woldlab.pairs.hyper_range_split, woldlab.pairs.hyper_range,
        woldlab.pairs.complement)
    splits, ranges, complements = [], [], []

    def counting_split(t, *args, **kwargs):
        splits.append(np.shape(t))
        return real_split(t, *args, **kwargs)

    def counting_range(t, *args, **kwargs):
        ranges.append(np.shape(t))
        return real_range(t, *args, **kwargs)

    def counting_complement(sub, *args, **kwargs):
        complements.append(sub.ambient_dim)
        return real_complement(sub, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "hyper_range_split", counting_split)
    monkeypatch.setattr(woldlab.pairs, "hyper_range", counting_range)
    monkeypatch.setattr(woldlab.pairs, "complement", counting_complement)
    for pair in (three_part_pair(1, degree=40)[0], four_block_pair(1)[0]):
        n = pair.space.dim
        splits.clear(), ranges.clear(), complements.clear()
        verdict_battery(pair)
        finiteness_checks(pair)
        point_spectrum_part(pair)
        model_decomposition(pair)
        try:
            slocinski(pair)
        except PreconditionError:
            pass  # the three-part pair is not doubly commuting
        # the one full-size split, then the halves' splits in slocinski
        assert splits[0] == (n, n)
        assert all(shape[0] < n for shape in splits[1:])
        assert 0 < pair.split_1.h_inf.dim < n
        assert ranges and all(shape[0] < n for shape in ranges)
        assert all(ambient < n for ambient in complements)


def test_pair_runs_its_verdict_battery_once(monkeypatch):
    pair, _ = three_part_pair(1, degree=40)
    real = woldlab.pairs.verdict_battery
    calls = []

    def counting(p, *args, **kwargs):
        calls.append(p is pair)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "verdict_battery", counting)
    fc = finiteness_checks(pair)
    model_decomposition(pair)
    assert sum(calls) == 1
    assert fc.r_iii == pair.verdict_report.r_iii


def test_slocinski_computes_each_wandering_subspace_once(monkeypatch):
    pair, _ = four_block_pair(1)
    real = woldlab.pairs.wandering_subspace
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(t.copy())
        return real(t, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "wandering_subspace", counting)
    sl = slocinski(pair)
    assert all(sl.dims.values())
    # two calls per part, in part order: its compressions of S1 and S2
    assert len(calls) == 2 * len(sl.parts)
    for k, sub in enumerate(sl.parts.values()):
        for got, m in zip(calls[2 * k:2 * k + 2],
                          (pair.s1.matrix, pair.s2.matrix)):
            assert np.array_equal(got, sub.basis.conj().T @ m @ sub.basis)
    # the parts are exact, so the us part's S2 compression and the su
    # part's S1 compression are one truncated shift, byte for byte
    z = compress(shift(1, 6)).matrix.astype(np.complex128)
    assert calls[3].tobytes() == calls[4].tobytes() == z.tobytes()


def test_pair_computes_its_first_unitary_part_once(monkeypatch):
    # the unitary part is found once, on the h x h compression Q^H S1 Q
    pair, _ = four_block_pair(1)
    real = woldlab.pairs.unitary_part
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(np.shape(t))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(woldlab.pairs, "unitary_part", counting)
    finiteness_checks(pair)
    ps = point_spectrum_part(pair)
    h = pair.split_1.h_inf.dim
    assert 0 < h < pair.space.dim
    assert calls == [(h, h)]
    assert ps.subspace.dim == pair.unitary_part_1.unitary_part.dim


_SPLIT_PAIRS = {
    **{f"three-part-{s}": (lambda s=s: three_part_pair(s)[0])
       for s in range(4)},
    **{f"four-block-{s}": (lambda s=s: four_block_pair(
        s, f_degree=10, g_degree=10, bidegree=8)[0]) for s in range(3)},
    "tensor": lambda: tensor_shift_pair(9, 9),
    "biunitary": lambda: biunitary_pair(3, 5),
    "constant-shift": lambda: constant_shift_pair(1.1, 12),
    "polynomial-48": lambda: construct_example(polynomial([0.5, 0.5]), 48),
    "blaschke-48": lambda: construct_example(blaschke([0.4]), 48),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_PAIRS))
def test_point_spectrum_part_is_the_cached_unitary_part(name, svd_calls):
    pair = _SPLIT_PAIRS[name]()
    cd = pair.unitary_part_1
    svd_calls.clear()
    ps = point_spectrum_part(pair)
    assert ps.subspace is cd.unitary_part
    assert ps.reduction_residual_1 == max(cd.reducing_defect)
    # one SVD per cluster's eigenspace, two for the residual against S2
    assert len(svd_calls) <= len(ps.eigenpairs) + 2
    if name == "tensor":
        assert ps.subspace.dim == 0
        assert ps.eigenpairs == []
        assert ps.unimodularity == 0.0


def _clusters(block):
    """Sizes and mean eigenvalues of the unitary block's 1e-6 clusters."""
    vals = np.linalg.eigvals(block)
    groups = unimodular_clusters(vals, 1e-6)
    return (np.array([len(g) for g in groups]),
            np.array([np.mean(vals[g]) for g in groups]))


@pytest.mark.parametrize("name", sorted(_SPLIT_PAIRS))
def test_unitary_part_of_the_split_matches_the_full_size_oracle(name):
    # the lift of unitary_part(Q^H S1 Q) against unitary_part(S1) itself
    pair = _SPLIT_PAIRS[name]()
    n = pair.space.dim
    got = pair.unitary_part_1
    want = unitary_part(pair.s1.matrix)
    assert got.unitary_part.dim == want.unitary_part.dim
    assert subspace_distance(got.unitary_part, want.unitary_part) <= 1e-12
    assert got.unitary_part.dim + got.cnu_part.dim == n
    assert mutual_orthogonality([got.unitary_part, got.cnu_part]) <= 1e-12
    got_sizes, got_means = _clusters(got.unitary_block)
    want_sizes, want_means = _clusters(want.unitary_block)
    assert got_sizes.size == want_sizes.size
    if want_sizes.size:
        # each cluster meets the one of the same size nearest to it
        gap = np.abs(got_means[:, None] - want_means[None, :])
        match = gap.argmin(axis=1)
        assert sorted(match) == list(range(want_sizes.size))
        assert np.array_equal(got_sizes, want_sizes[match])
        assert gap.min(axis=1).max() <= 1e-6
    split = pair.split_1
    assert split.h_inf.dim + split.h_perp.dim == n
    assert subspace_distance(split.h_perp,
                             complement(pair.split_1.h_inf)) <= 1e-12


def _schur_polynomial(seed, degree):
    """Random polynomial scaled to a boundary sup-norm in [0.3, 0.9]."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    boundary = np.exp(2j * np.pi * np.arange(512) / 512)
    sup = np.max(np.abs(np.polyval(c[::-1], boundary)))
    return polynomial(c * rng.uniform(0.3, 0.9) / sup)


def _partially_probed_unitary_part(rng):
    """Commuting unitaries on 2 to 4 coordinates, one of them untrusted."""
    dim = int(rng.integers(2, 5))
    v1, v2 = woldlab.pairs._commuting_unitaries(rng, dim)
    trusted = np.ones(dim, dtype=bool)
    trusted[rng.integers(dim)] = False
    return abstract_space(dim), v1, v2, trusted


_BLOCK_PARTS = {
    "tensor-shift": lambda rng: woldlab.pairs._tensor_shift_part(
        *(int(k) for k in rng.integers(2, 5, size=2))),
    "constant-shift": lambda rng: woldlab.pairs._constant_shift_part(
        2 * np.pi * rng.random(), int(rng.integers(1, 9))),
    "biunitary": lambda rng: woldlab.pairs._biunitary_part(
        rng, int(rng.integers(1, 5))),
    "partial-unitary": _partially_probed_unitary_part,
    "mixed": _mixed_part,
}

_ONLY_IF_PAIRS = st.one_of(
    st.tuples(st.just("example"), st.integers(0, 2 ** 32 - 1),
              st.integers(1, 3), st.sampled_from([16, 24, 32])),
    st.tuples(st.just("three-part"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("four-block"), st.integers(0, 2 ** 16),
              st.integers(0, 2 ** 32 - 1)),
    # a block sum of 2 to 4 parts in random order; a repeated (kind, seed)
    # repeats a part bitwise, so its blocks are deflated once
    st.tuples(st.just("block-sum"),
              st.lists(st.tuples(st.sampled_from(sorted(_BLOCK_PARTS)),
                                 st.integers(0, 2)),
                       min_size=2, max_size=4)),
)


def _only_if_pair(case):
    if case[0] == "example":
        _, seed, degree, d = case
        return construct_example(_schur_polynomial(seed, degree), d)
    if case[0] == "block-sum":
        return woldlab.pairs._block_pair(
            [_BLOCK_PARTS[kind](np.random.default_rng(seed))
             for kind, seed in case[1]])
    if case[0] == "three-part":
        return three_part_pair(case[1], degree=40)[0]
    pair, _ = four_block_pair(case[1])
    return _conjugated(pair, _haar_unitary(np.random.default_rng(case[2]),
                                           pair.space.dim))


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(_ONLY_IF_PAIRS)
def test_battery_property_projected_wandering_image_is_bounded_by_red_in(
        case):
    """The theorem's "only if" half: ``r_iii <= red_in``.

    Let ``P`` project onto ``H = H_inf(S1)`` and let ``E`` be the battery's
    wandering subspace, ``ker S1^H`` on the probe. Since
    ``H ⊆ ran S1 = (ker S1^H)^perp``, ``E`` is orthogonal to ``H``, so
    ``(I - P) E = E`` and ``P S2 E = P S2 (I - P) E``. Its norm is at most
    ``||P S2 (I - P)||``, which is ``red_in``, the second term of
    ``reducing_residual(S2, H)``. So if ``H`` reduces ``S2``, the projected
    wandering image ``r_iii`` vanishes.
    """
    pair = _only_if_pair(case)
    rep = verdict_battery(pair)
    red_in = reducing_residual(pair.s2.matrix, pair.split_1.h_inf)[1]
    assert rep.r_iii <= red_in + 1e-12


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.sampled_from([8, 16, 32]))
def test_battery_property_wandering_leak_has_closed_form(seed, n_coeffs, d):
    """The negative side: ``r_iii = sqrt(1 - sum |c_k|^2)``.

    For ``phi = sum c_k z^k`` with ``sum |c_k| <= 1``, ``ker S1^H`` on the
    probe is the scalar constant ``1`` of the Hardy summand. ``S2 1`` is
    ``phi`` in the Hardy summand plus ``b1 = C[:, 0]`` in the boundary
    summand, and the boundary summand is ``H_inf(S1)``. So ``r_iii`` is
    ``||b1||``, and ``||b1||^2 = G[0, 0] = w_hat(0) = 1 - sum |c_k|^2``, the
    mean of the defect weight ``w = 1 - |phi|^2`` on the circle.
    """
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n_coeffs) + 1j * rng.normal(size=n_coeffs)
    c *= rng.uniform(0.05, 1.0) / np.abs(c).sum()
    rep = verdict_battery(construct_example(polynomial(c), d))
    assert abs(rep.r_iii - np.sqrt(1.0 - np.sum(np.abs(c) ** 2))) <= 1e-12


def _biunitary_tensor_pair(seed):
    """A bi-unitary part beside a tensor shift: ``H`` and ``ker S2^H``
    meet nowhere, every cosine between them being rounding noise."""
    return woldlab.pairs._block_pair(
        [woldlab.pairs._biunitary_part(np.random.default_rng(seed), 2),
         woldlab.pairs._tensor_shift_part(3, 3)])


_SPECTRAL_PAIRS = {
    "three-part": lambda seed: three_part_pair(seed, degree=40)[0],
    "four-block": lambda seed: four_block_pair(seed)[0],
    "biunitary-tensor": _biunitary_tensor_pair,
}


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(st.sampled_from(sorted(_SPECTRAL_PAIRS)), st.integers(0, 2 ** 16),
       st.integers(0, 2 ** 32 - 1))
@example("biunitary-tensor", 0, 0)
def test_spectral_analyses_property_commute_with_unitary_conjugation(
        kind, seed, qseed):
    pair = _SPECTRAL_PAIRS[kind](seed)
    moved = _conjugated(pair, _haar_unitary(np.random.default_rng(qseed),
                                            pair.space.dim))
    base, turned = finiteness_checks(pair), finiteness_checks(moved)
    for field in ("dim_a", "dim_b", "spectrum_card", "verdict"):
        assert getattr(turned, field) == getattr(base, field)
    base, turned = point_spectrum_part(pair), point_spectrum_part(moved)
    assert turned.subspace.dim == base.subspace.dim
    assert len(turned.eigenpairs) == len(base.eigenpairs)
    want = np.array([lam for lam, _ in base.eigenpairs])
    got = np.array([lam for lam, _ in turned.eigenpairs])
    if want.size:
        gap = np.abs(got[:, None] - want[None, :])
        assert gap.min(axis=0).max() <= 1e-8
        assert gap.min(axis=1).max() <= 1e-8


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(_ONLY_IF_PAIRS, st.integers(0, 2 ** 32 - 1))
# several blocks on the dense path: the mixed block is kept in part
@example(("block-sum", [("biunitary", 0), ("mixed", 0), ("tensor-shift", 0)]),
         0)
def test_battery_property_commutes_with_unitary_conjugation(case, qseed):
    pair = _only_if_pair(case)
    moved = _conjugated(pair, _haar_unitary(np.random.default_rng(qseed),
                                            pair.space.dim))
    base, turned = verdict_battery(pair), verdict_battery(moved)
    assert (turned.verdict, turned.vacuous, turned.e_subspace.dim,
            moved.split_1.h_inf.dim) == \
        (base.verdict, base.vacuous, base.e_subspace.dim,
         pair.split_1.h_inf.dim)
    for field in ("r_i", "r_ii", "r_iii"):
        assert abs(getattr(turned, field) - getattr(base, field)) <= 1e-10


@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 32 - 1))
def test_model_property_commutes_with_unitary_conjugation(seed, qseed):
    """``psi`` and ``|c_k|`` are basis-free for scalar fibers.

    With one-dimensional wandering subspaces spanned by unit vectors
    ``w``, ``psi = w^H S1 w`` and ``c_k = w^H (S1^H)^k S2 w`` do not see
    the phase of ``w``, and a unitary conjugation moves ``w`` with the
    operators.
    """
    pair = three_part_pair(seed, degree=40)[0]
    moved = _conjugated(pair, _haar_unitary(np.random.default_rng(qseed),
                                            pair.space.dim))
    base, turned = model_decomposition(pair), model_decomposition(moved)
    for field in ("f_dim", "e_dim", "f_ladder_dim", "e_ladder_dim"):
        assert getattr(turned, field) == getattr(base, field)
    assert turned.h_uu.dim == base.h_uu.dim
    assert turned.psi.shape == base.psi.shape
    assert np.max(np.abs(turned.psi - base.psi)) <= 1e-8
    assert turned.phi_coeffs.shape == base.phi_coeffs.shape
    assert np.max(np.abs(np.abs(turned.phi_coeffs)
                         - np.abs(base.phi_coeffs))) <= 1e-8


_WORKING_SIZE_PAIRS = {
    "three-part": lambda: three_part_pair(0)[0],
    "four-block": lambda: four_block_pair(2)[0],
    "tensor": lambda: tensor_shift_pair(5, 5),
}


@pytest.mark.parametrize("name", sorted(_WORKING_SIZE_PAIRS))
def test_structure_analyses_form_no_projector(name, monkeypatch):
    pair = _WORKING_SIZE_PAIRS[name]()

    def refuse(self):
        raise AssertionError("an n x n projector was formed")

    monkeypatch.setattr(Subspace, "projector", refuse)
    for analysis in (verdict_battery, model_decomposition, slocinski,
                     finiteness_checks, point_spectrum_part):
        try:
            analysis(pair)
        except PreconditionError:
            pass


_LADDER_PAIRS = {
    **{f"three-part-{s}": (lambda s=s: three_part_pair(s)[0])
       for s in range(3)},
    **{f"four-block-{s}": (lambda s=s: four_block_pair(s)[0])
       for s in range(3)},
    # a width-6 e-ladder that escapes at rung 1
    "tensor": lambda: tensor_shift_pair(5, 5),
    # e-ladders of 16, 32 and 49 rungs: escapes at the chunk starts 16 and
    # 32, and inside the chunk 32..63
    **{f"inner-{d}": (lambda d=d: construct_example(blaschke([0.5]), d))
       for d in (15, 31, 48)},
}


def _recorded_ladders(pair, monkeypatch):
    """Arguments and result of every ``_trusted_ladder`` call of
    ``model_decomposition(pair)``."""
    calls = []
    real = woldlab.pairs._trusted_ladder

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(woldlab.pairs, "_trusted_ladder", recording)
    model_decomposition(pair)
    return calls


@pytest.mark.parametrize("name", sorted(_LADDER_PAIRS))
def test_trusted_ladders_match_the_all_rungs_oracle_bitwise(
        name, monkeypatch):
    calls = _recorded_ladders(_LADDER_PAIRS[name](), monkeypatch)
    assert len(calls) == 2
    for args, got in calls:
        want = trusted_ladder_all_rungs(*args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _shift_ladder(n, trusted, width, seed):
    """``kron(shift, I_width)`` from the first coordinate block, with the
    first ``trusted`` blocks as the probe: the ladder keeps ``trusted``
    rungs. A seed conjugates all of it by a Haar unitary, so the probe is
    dense."""
    step = np.kron(np.eye(n, k=-1), np.eye(width)).astype(np.complex128)
    start = np.eye(n * width, dtype=np.complex128)[:, :width]
    mask = np.arange(n * width) < trusted * width
    if seed is None:
        return step, Subspace(start), Subspace.coordinates(mask), n
    u = _haar_unitary(np.random.default_rng(seed), n * width)
    return (u @ step @ u.conj().T, Subspace(u @ start),
            Subspace(u[:, mask]), n)


def _counting(step, applied):
    """``step`` viewed as an array whose ``@`` appends to ``applied``."""

    class Counting(np.ndarray):
        def __matmul__(self, other):
            applied.append(1)
            return np.asarray(self) @ other

    return step.view(Counting)


@pytest.mark.parametrize("trusted", [1, 16, 32, 40, 64])
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("seed", [None, 5])
def test_trusted_ladder_stops_at_its_first_escaping_chunk(
        trusted, width, seed):
    # 1: escapes at rung 1; 16 and 32: at a chunk start; 40: inside the
    # chunk 32..63; 64: never, the last rungs being zero
    step, start, probe, cap = _shift_ladder(64, trusted, width, seed)
    applied = []
    got = woldlab.pairs._trusted_ladder(_counting(step, applied), start,
                                        probe, cap)
    want = trusted_ladder_all_rungs(step, start, probe, cap)
    assert len(got) == (trusted if trusted < 64 else cap + 1)
    assert got.shape == want.shape and np.array_equal(got, want)
    # the rungs built end with the chunk 2^j .. 2^(j+1) - 1 that holds the
    # first escape, rung len(got): fewer than twice the rungs kept
    assert len(applied) <= min(cap, 2 * len(got) - 1)


def test_model_decomposition_builds_no_rung_past_an_escaping_chunk(
        monkeypatch):
    pair, _ = three_part_pair(0, degree=56)
    built = []
    real = woldlab.pairs._trusted_ladder

    def counting(step, *args):
        applied = []
        out = real(_counting(step, applied), *args)
        built.append((len(applied), len(out)))
        return out

    monkeypatch.setattr(woldlab.pairs, "_trusted_ladder", counting)
    model_decomposition(pair)
    # both ladders escape (55 and 30 of 117 candidate rungs)
    assert [kept for _, kept in built] == [55, 30]
    assert all(applied <= 2 * kept - 1 for applied, kept in built)


def test_model_decomposition_of_a_three_part_pair_takes_few_svds(svd_calls):
    # split, battery, both ladders, the two nested hyper-ranges and every
    # residual: 155 SVDs when every rung took its own
    model_decomposition(three_part_pair(0, degree=56)[0])
    assert len(svd_calls) <= 30


_R_V_PAIRS = {
    **{f"polynomial-{d}": (lambda d=d: construct_example(
        polynomial([0.5, 0.5]), d)) for d in (16, 32, 48)},
    **{f"four-block-{s}": (lambda s=s: four_block_pair(s)[0])
       for s in range(3)},
    "tensor": lambda: tensor_shift_pair(5, 5),
    "constant-shift": lambda: constant_shift_pair(1.1, 12),
    "biunitary": lambda: biunitary_pair(3, 5),
    # dense splits, read through the R factor
    "mixed": lambda: _mixed_block_sum(4),
    "scrambled-polynomial-16": lambda: _scrambled_example(16, 3),
    "three-part": lambda: three_part_pair(0)[0],
}


@pytest.mark.parametrize("name", sorted(_R_V_PAIRS))
def test_r_v_matches_the_dense_formula(name):
    rep = verdict_battery(_R_V_PAIRS[name]())
    got, want = np.array(rep.r_v), np.array(r_v_dense(rep))
    assert got.shape == want.shape
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    assert np.max(np.abs(got - want) / scale) <= 1e-14
    if rep.tail.h_perp.mask is None:
        assert np.array_equal(got, want)
