"""Unitary/cnu splits, hyper-ranges, and wandering ladders."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from woldlab import wold
from woldlab.errors import DomainError
from woldlab.hardy import (GradedOperator, abstract_space, compress,
                           direct_sum, hardy_space, multiplier, shift)
from woldlab.linalg import Subspace, complement, subspace_distance
from woldlab.pairs import (biunitary_pair, construct_example, four_block_pair,
                           tensor_shift_pair, three_part_pair)
from woldlab.symbols import blaschke, constant, polynomial
from woldlab.wold import (cnu_eigenvector_span_residual, hyper_range,
                          unitary_part, wold_split)

from oracles import (hyper_range_nested, ladder_audits_pairwise,
                     unitary_part_iterated, unitary_part_stacked)


def _random_contraction(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m / max(np.linalg.svd(m, compute_uv=False)[0], 1.0)


def _seeded_contractions():
    """Twenty small contractions, every third with a planted unitary block."""
    rng = np.random.default_rng(11)
    out = []
    for i in range(20):
        n = int(rng.integers(2, 7))
        m = _random_contraction(rng, n)
        if i % 3 == 0:
            k = int(rng.integers(1, 3))
            q, _ = np.linalg.qr(rng.normal(size=(k, k))
                                + 1j * rng.normal(size=(k, k)))
            m[:k, :k] = q
            m[:k, k:] = 0
            m[k:, :k] = 0
        out.append(m)
    return out


def test_unitary_part_matches_stacked_nullspace_oracle():
    worst = 0.0
    for m in _seeded_contractions():
        dec = unitary_part(m)
        oracle = unitary_part_stacked(m)
        assert dec.unitary_part.dim == oracle.dim
        if oracle.dim:
            worst = max(worst, subspace_distance(dec.unitary_part, oracle))
    assert worst <= 1e-8


def _conjugated_rotation():
    rng = np.random.default_rng(7)
    theta = 0.3
    t = np.zeros((3, 3), dtype=np.complex128)
    t[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                 [np.sin(theta), np.cos(theta)]]
    t[2, 2] = 0.5
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return q @ t @ q.conj().T


def test_unitary_part_finds_conjugated_rotation_block():
    dec = unitary_part(_conjugated_rotation())
    assert dec.unitary_part.dim == 2
    assert dec.cnu_part.dim == 1
    assert dec.unitarity_defect <= 1e-10
    assert max(dec.reducing_defect) <= 1e-10


_UNITARY_PART_INPUTS = {
    **{f"three-part-{s}": (lambda s=s: three_part_pair(
        s, degree=56)[0].s1.matrix) for s in range(4)},
    "four-block": lambda: four_block_pair(1, 2, 10, 10, 8)[0].s1.matrix,
    "tensor-shift": lambda: tensor_shift_pair(9, 9).s1.matrix,
    "biunitary": lambda: biunitary_pair(3, 5).s1.matrix,
    "conjugated-rotation": _conjugated_rotation,
    **{f"contraction-{i}": (lambda i=i: _seeded_contractions()[i])
       for i in range(20)},
}


@pytest.mark.parametrize("name", sorted(_UNITARY_PART_INPUTS))
def test_unitary_part_matches_iterated_preimage_oracle(name):
    t = _UNITARY_PART_INPUTS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = unitary_part(t)
    want = unitary_part_iterated(t)
    assert got.unitary_part.dim == want.dim
    assert got.cnu_part.dim == t.shape[0] - want.dim
    assert subspace_distance(got.unitary_part, want) <= 1e-12


def test_unitary_part_runs_no_full_width_svd_per_round(monkeypatch):
    t = three_part_pair(0, degree=56)[0].s1.matrix
    wide = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a)[1] > 8:
            wide.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    dec = unitary_part(t)
    assert dec.cnu_part.dim == 57
    assert len(wide) <= 10


def _rotation_coupling(theta):
    # g is isometric and coisometric, f and f' carry the two defects, and
    # T sends f to sin(theta) g + cos(theta) f', so g leaks into the cnu
    # part at angle theta: T = [[c, s, 0], [0, 0, 0], [-s, c, 0]]
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s, 0.0], [0.0, 0.0, 0.0], [-s, c, 0.0]],
                    dtype=np.complex128)


def test_unitary_part_warns_on_a_cut_inside_the_thin_margin():
    # the first round's residual is sqrt(2) * sin(theta) ~ 7.1e-6, half the
    # cut sqrt(2e-10) ~ 1.41e-5, so g stays unitary, but not silently
    with pytest.warns(RuntimeWarning,
                      match=r"round 1 .* 7\.07\de-06 .* cut 1\.414e-05"):
        dec = unitary_part(_rotation_coupling(5e-6))
    assert dec.unitary_part.dim == unitary_part_iterated(
        _rotation_coupling(5e-6)).dim == 1


@pytest.mark.parametrize("theta", [0.0, 1e-3])
def test_unitary_part_is_silent_far_from_the_cut(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = unitary_part(_rotation_coupling(theta))
    assert dec.unitary_part.dim == (1 if theta == 0.0 else 0)


def _haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _planted(seed, n, k, scale):
    """Scrambled ``U (+) C`` with a k-dim unitary U and ||C|| = scale < 1."""
    rng = np.random.default_rng(seed)
    core = np.zeros((n, n), dtype=np.complex128)
    core[:k, :k] = _haar_unitary(rng, k)
    c = rng.normal(size=(n - k, n - k)) + 1j * rng.normal(size=(n - k, n - k))
    core[k:, k:] = scale * c / np.linalg.norm(c, 2)
    q = _haar_unitary(rng, n)
    return q @ core @ q.conj().T


def test_unitary_part_keeps_a_unitary_block_beside_a_zero_block():
    # T F and T^H F are rounding noise on the zero block; a cut relative to
    # their own size (the iterated preimages) turns that noise into cnu
    # directions and loses the whole unitary block
    t = _planted(0, 4, 2, 0.0)
    dec = unitary_part(t)
    assert dec.unitary_part.dim == unitary_part_stacked(t).dim == 2
    assert unitary_part_iterated(t).dim == 0
    assert dec.unitarity_defect <= 1e-10
    assert max(dec.reducing_defect) <= 1e-10


_PLANTED = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.integers(0, 2 ** 32 - 1), st.just(n), st.integers(0, n - 1),
    st.floats(0.0, 0.95)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_PLANTED)
def test_unitary_part_property_matches_stacked_oracle(case):
    seed, n, k, scale = case
    t = _planted(seed, n, k, scale)
    dec = unitary_part(t)
    oracle = unitary_part_stacked(t)
    assert dec.unitary_part.dim == oracle.dim == k
    assert subspace_distance(dec.unitary_part, oracle) <= 1e-8


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_PLANTED, st.integers(0, 2 ** 32 - 1))
def test_unitary_part_property_commutes_with_unitary_conjugation(case, qseed):
    seed, n, k, scale = case
    t = _planted(seed, n, k, scale)
    q = _haar_unitary(np.random.default_rng(qseed), n)
    base = unitary_part(t).unitary_part
    moved = unitary_part(q @ t @ q.conj().T).unitary_part
    assert moved.dim == base.dim
    assert subspace_distance(moved, Subspace(q @ base.basis)) <= 1e-10


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_unitary_part_cuts_its_first_intersection_at_its_own_tol(
        monkeypatch, tol):
    seen = []
    real = wold.intersect

    def recording(a, b, tol=1e-10):
        seen.append(tol)
        return real(a, b, tol)

    monkeypatch.setattr(wold, "intersect", recording)
    dec = unitary_part(_planted(3, 5, 2, 0.5), tol=tol)
    assert seen == [tol]
    assert dec.unitary_part.dim == 2


def test_unitary_part_of_strict_contraction_is_trivial():
    dec = unitary_part(np.array([[0.5]]))
    assert dec.unitary_part.dim == 0
    assert dec.cnu_part.dim == 1
    assert dec.unitary_block.shape == (0, 0)


def test_unitary_part_rejects_expansive_input():
    with pytest.raises(DomainError):
        unitary_part(np.array([[1.5]]))


def test_hyper_range_of_invertible_matrix_is_everything():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hyper_range(m).dim == 4


def test_hyper_range_of_empty_matrix_is_empty():
    assert hyper_range(np.zeros((0, 0))).basis.shape == (0, 0)


def test_hyper_range_of_nilpotent_matrix_is_trivial():
    assert hyper_range(np.diag([1.0, 1.0], k=1)).dim == 0


def test_hyper_range_of_scalar_half_is_full():
    assert hyper_range(np.array([[0.5]])).dim == 1


def _scrambled(core, seed):
    rng = np.random.default_rng(seed)
    n = core.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q @ core @ q.conj().T


def _unitary_plus_jordan(k, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return _scrambled(sla.block_diag(u, np.eye(k, k=-1)), seed + 1)


def _leaky_core():
    core = np.zeros((4, 4), dtype=np.complex128)
    core[0] = 1.0
    core[1:, 1:] = 0.05 * np.eye(3) + 5.0 * np.eye(3, k=1)
    return core


def _leaky_guess():
    # T^8 has a wide gap at the rank cut and T is well conditioned on its
    # range, but the strongly non-normal Jordan block (eigenvalue 0.05)
    # leaves that range about 4e-6 * ||T|| away from invariance
    return _scrambled(_leaky_core(), 0)


def _random_noncontraction():
    rng = np.random.default_rng(21)
    return 3.0 * (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))


_HYPER_RANGE_INPUTS = {
    **{f"polynomial-{d}": (lambda d=d: construct_example(
        polynomial([0.5, 0.5]), d).s1.matrix) for d in (16, 32, 48, 64)},
    **{f"blaschke-{d}": (lambda d=d: construct_example(
        blaschke([0.35, -0.3j]), d).s1.matrix) for d in (16, 64)},
    **{f"constant-{d}": (lambda d=d: construct_example(
        constant(np.array([[1j]])), d).s1.matrix) for d in (16, 64)},
    "three-part-7": lambda: three_part_pair(7, degree=64)[0].s1.matrix,
    "three-part-8": lambda: three_part_pair(8, degree=64,
                                            uu_dim=3)[0].s1.matrix,
    "tiny-direction": lambda: np.diag([1.0, 1e-11]),
    "scalar-half-block": lambda: np.diag([1.0] + [0.5] * 70),
    "random-noncontraction": _random_noncontraction,
    "scrambled-unitary-plus-jordan": lambda: _unitary_plus_jordan(24, 3),
}


@pytest.mark.parametrize("name", sorted(_HYPER_RANGE_INPUTS))
def test_hyper_range_matches_nested_oracle(name):
    t = _HYPER_RANGE_INPUTS[name]()
    got = hyper_range(t)
    want = hyper_range_nested(t)
    assert got.dim == want.dim
    assert subspace_distance(got, want) <= 1e-12


def _nonnormal_nilpotent():
    # nilpotent, but its ladder from ker(T^H) is not strictly block lower
    # triangular: T maps the second rung partly back onto itself
    return _scrambled(np.array([[0, 0, 0], [1, 0, 0], [0.7, 1, 0]],
                               dtype=np.complex128), 5)


@pytest.mark.parametrize("make, nilpotent", [
    (_leaky_guess, False),
    # T^4 keeps a singular value three times the cut, inside its margin
    (lambda: _scrambled(np.diag([1.0, 3e-10 ** 0.25]), 4), False),
    # the rescaled powers of a nilpotent matrix are rounding noise, and T
    # is singular on their range; the ladder certifies T nilpotent
    (lambda: _scrambled(np.eye(24, k=-1), 2), True),
    # the ladder rejects it, and the nested iteration on T cuts at
    # tol * ||T||
    (_nonnormal_nilpotent, True),
], ids=["leaky-guess", "thin-cut", "scrambled-jordan", "nonnormal-nilpotent"])
def test_hyper_range_falls_back_when_a_guard_fails(make, nilpotent):
    # a failed guard leaves the whole of T to the certificate and the
    # anchored nested iteration; the oracle cuts each step relative to its
    # own largest singular value, which keeps a rounding-level direction
    # of a nilpotent T and agrees bitwise otherwise
    t = make()
    if nilpotent:
        assert hyper_range(t).dim == 0
        assert hyper_range_nested(t).dim == 1
    else:
        assert np.array_equal(hyper_range(t).basis,
                              hyper_range_nested(t).basis)


def _leaky_guess_plus_jordan():
    # the leaking guess fails its guard beside a nilpotent Jordan chain, so
    # the nested iteration runs on all of T and leaves a 3-dim complement
    return _scrambled(sla.block_diag(_leaky_core(), np.eye(3, k=-1)), 0)


def _unitary_plus_nonnormal_nilpotent():
    # the guess is accepted, and the nested iteration runs on the
    # compression to its complement, which the ladder cannot certify
    rng = np.random.default_rng(6)
    core = sla.block_diag(_haar_unitary(rng, 3),
                          np.array([[0, 0, 0], [1, 0, 0], [0.7, 1, 0]]))
    return _scrambled(core, 7)


@pytest.mark.parametrize("make, nested", [
    (_leaky_guess, True),
    (lambda: _scrambled(np.diag([1.0, 3e-10 ** 0.25]), 4), True),
    (_leaky_guess_plus_jordan, True),
    (_unitary_plus_nonnormal_nilpotent, True),
    (lambda: _unitary_plus_jordan(24, 3), False),
], ids=["leaky-guess", "thin-cut", "leaky-guess-plus-jordan",
        "unitary-plus-nonnormal-nilpotent", "unitary-plus-jordan"])
def test_hyper_range_split_complement_matches_complement_oracle(
        make, nested, monkeypatch):
    t = make()
    runs = []
    real = wold._nested_range

    def counting(*args, **kwargs):
        runs.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(wold, "_nested_range", counting)
    h_inf, perp, _ = wold.hyper_range_split(t)
    assert bool(runs) is nested
    assert np.array_equal(h_inf.basis, hyper_range(t).basis)
    assert h_inf.dim + perp.dim == t.shape[0]
    assert subspace_distance(perp, complement(h_inf)) <= 1e-12


_STRICTLY_LOWER = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
                            st.floats(-3.0, 3.0))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(_STRICTLY_LOWER)
def test_hyper_range_property_of_scrambled_strictly_lower_is_trivial(case):
    # sizes stay at most 6: from about 8 on, such a matrix lies within
    # rounding of matrices with eigenvalues near eps ** (1 / n) * ||T||,
    # and its hyper-range is no longer decided by the data
    seed, n, u = case
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = _haar_unitary(rng, n)
    t = q @ (10.0 ** u * np.tril(g, -1)) @ q.conj().T
    assert hyper_range(t).dim == 0


_NILPOTENCY_CERTIFICATES = {
    "scrambled-jordan-66": (lambda: _scrambled(np.eye(66, k=-1), 1), True),
    "scrambled-chains-5-3": (lambda: _scrambled(sla.block_diag(
        np.eye(5, k=-1), np.eye(3, k=-1)), 2), True),
    # spanned by its ladder, but not nilpotent: eigenvalues 0.5, 0.1, 0
    "upper-triangular": (lambda: np.array(
        [[0.5, 0.3, 0], [0, 0.1, 0.3], [0, 0, 0]], dtype=np.complex128),
        False),
    # eigenvalues of modulus 1e-6 ** 0.1 ~ 0.25, so ker(T^H) is empty
    "jordan-10-corner": (lambda: np.eye(10, k=-1) + 1e-6 * np.eye(10, k=9),
                         False),
    "nonnormal-nilpotent": (_nonnormal_nilpotent, False),
}


@pytest.mark.parametrize("name", sorted(_NILPOTENCY_CERTIFICATES))
def test_nilpotency_ladder_certifies_only_what_it_can(name):
    make, certified = _NILPOTENCY_CERTIFICATES[name]
    c = make()
    scale = float(np.linalg.norm(c, 2))
    assert wold._certified_nilpotent(c, 1e-10, scale) is certified


def _model_compression():
    # the n x n form P S2 P of the compression model_decomposition reads
    p = three_part_pair(7, degree=64)[0]
    p_inf = p.split_1.h_inf.projector()
    return p_inf @ p.s2.matrix @ p_inf


def _model_compression_working_size():
    # the operator model_decomposition hands to hyper_range, Q^H S2 Q
    p = three_part_pair(7, degree=64)[0]
    q = p.split_1.h_inf.basis
    return q.conj().T @ p.s2.matrix @ q


@pytest.mark.parametrize("make", [
    lambda: construct_example(polynomial([0.5, 0.5]), 48).s1.matrix,
    lambda: construct_example(blaschke([0.35, -0.3j]), 48).s1.matrix,
    lambda: three_part_pair(7, degree=64)[0].s1.matrix,
    _model_compression,
    _model_compression_working_size,
], ids=["polynomial-48", "blaschke-48", "three-part-7", "model-compression",
        "model-compression-working-size"])
def test_hyper_range_needs_no_nested_iteration_on_workload_inputs(
        make, monkeypatch):
    t = make()
    want = hyper_range_nested(t)
    square = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a) == t.shape:
            square.append(a)
        return real_svd(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the nested iteration ran")

    monkeypatch.setattr(wold, "_nested_range", refuse)
    monkeypatch.setattr(np.linalg, "svd", counting)
    got = hyper_range(t)
    # the power's SVD, and the ladder's kernel SVD when the guess is empty
    assert len(square) <= 2
    assert got.dim == want.dim
    assert subspace_distance(got, want) <= 1e-12


def test_hyper_range_refuses_graded_operator():
    # the window would be dropped silently; the caller passes the matrix
    op = compress(multiplier(constant(np.array([[1j]])), 8))
    with pytest.raises(DomainError, match=r"\.matrix"):
        hyper_range(op)
    assert hyper_range(op.matrix).dim == 9


def _unitary_contraction_jordan():
    # H is the unitary block plus the invertible contraction (spectral
    # radius 0.5); the nilpotent Jordan block contributes nothing
    u = _haar_unitary(np.random.default_rng(12), 3)
    return sla.block_diag(u, np.array([[0.5, 0.4], [0.0, -0.3]]),
                          np.eye(4, k=-1))


_BLOCK_SPLIT_INPUTS = {
    **{f"{kind}-{d}": (lambda sym=sym, d=d: construct_example(
        sym, d).s1.matrix)
       for kind, sym in (("polynomial", polynomial([0.5, 0.5])),
                         ("blaschke", blaschke([0.35, -0.3j])),
                         ("constant", constant(0.6)))
       for d in (16, 32, 48)},
    "four-block": lambda: four_block_pair(0)[0].s1.matrix,
    "unitary-contraction-jordan": _unitary_contraction_jordan,
    "zero-between-blocks": lambda: sla.block_diag(
        _haar_unitary(np.random.default_rng(13), 2), np.zeros((1, 1)),
        np.array([[0.5, 0.4], [0.0, -0.3]])),
    "tiny-direction": lambda: np.diag([1.0, 1e-11]),
    "empty": lambda: np.zeros((0, 0)),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_SPLIT_INPUTS))
def test_block_split_matches_nested_oracle(name):
    t = _BLOCK_SPLIT_INPUTS[name]()
    h_inf, perp, _ = wold.hyper_range_split(t)
    want = hyper_range_nested(t)
    assert h_inf.dim == want.dim
    assert perp.dim == t.shape[0] - want.dim
    assert subspace_distance(h_inf, want) <= 1e-12
    assert subspace_distance(perp, complement(want)) <= 1e-12


@pytest.mark.parametrize("name", sorted(_BLOCK_SPLIT_INPUTS))
def test_block_split_lists_the_blocks_that_own_the_basis(name):
    t = _BLOCK_SPLIT_INPUTS[name]()
    n = t.shape[0]
    h_inf, _, blocks = wold.hyper_range_split(t)
    # the rows tile 0..n in order, and the owned columns tile 0..dim H
    for k, total in ((0, n), (1, h_inf.dim)):
        bounds = [(b[k].start, b[k].stop) for b in blocks]
        assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == total
    owned = np.zeros(h_inf.basis.shape, dtype=bool)
    for rows, cols in blocks:
        owned[rows, cols] = True
        off = np.ones(n, dtype=bool)
        off[rows] = False
        # nothing links a block to the rest: it is a diagonal block
        assert not np.any(t[rows][:, off]) and not np.any(t[off][:, rows])
    assert not np.any(h_inf.basis[~owned])


@pytest.mark.parametrize("make, sizes", [
    # one call per distinct block: the boundary unitary's three copies
    # are one, and so are four-block's seven equal 1 x 1 blocks
    (lambda: construct_example(polynomial([0.5, 0.5]), 48).s1.matrix,
     [49, 54]),
    (lambda: four_block_pair(0)[0].s1.matrix, [2, 1, 7, 36]),
    (_BLOCK_SPLIT_INPUTS["zero-between-blocks"], [2, 1, 2]),
    (_BLOCK_SPLIT_INPUTS["tiny-direction"], [1, 1]),
    (lambda: three_part_pair(0)[0].s1.matrix, [116]),
    (lambda: tensor_shift_pair(9, 9).s1.matrix, [100]),
], ids=["polynomial-48", "four-block", "zero-between-blocks",
        "tiny-direction", "three-part", "tensor"])
def test_block_split_deflates_each_block_at_the_largest_block_norm(
        make, sizes, monkeypatch):
    t = make()
    calls = []
    real = wold._deflated_block

    def recording(m, tol, norm):
        calls.append((m.shape[0], norm))
        return real(m, tol, norm)

    monkeypatch.setattr(wold, "_deflated_block", recording)
    wold.hyper_range_split(t)
    assert [size for size, _ in calls] == sizes
    if len(sizes) == 1:
        # one block is the whole matrix, deflated at its own norm, which
        # the block reads itself (a strictly triangular one never does)
        assert calls[0][1] is None
        return
    # the anchor is the whole operator's norm, so diag(1, 1e-11) drops its
    # second block: relative to that block's own norm it would be kept
    norms = {norm for _, norm in calls}
    assert len(norms) == 1
    assert norms.pop() == pytest.approx(np.linalg.norm(t, 2), rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda: construct_example(polynomial([0.5, 0.5]), 48).s1.matrix,
    lambda: four_block_pair(0)[0].s1.matrix,
], ids=["polynomial-48", "four-block"])
def test_equal_blocks_deflated_once_give_the_blockwise_split_bitwise(make):
    t = make()
    slices = wold._block_slices(t)
    norm = max(wold.operator_norm(t[sl, sl]) for sl in slices)
    # every block deflated in turn at the global norm, lifted by rows
    splits = [wold._deflated_block(t[sl, sl], 1e-10, norm) for sl in slices]
    assert len({t[sl, sl].tobytes() for sl in slices}) < len(slices)
    want_h = sla.block_diag(*(h.basis for h, _ in splits))
    want_perp = sla.block_diag(*(p for _, p in splits))
    h_inf, perp, blocks = wold.hyper_range_split(t)
    assert np.array_equal(h_inf.basis, want_h)
    assert np.array_equal(perp.basis, want_perp)
    assert [rows for rows, _ in blocks] == list(slices)
    assert [cols.stop - cols.start for _, cols in blocks] == \
        [h.dim for h, _ in splits]


_TRIANGULAR_INPUTS = {
    "shift": lambda: compress(shift(1, 12)).matrix,
    "shift-adjoint": lambda: compress(shift(1, 12)).matrix.conj().T,
    "tensor-first": lambda: tensor_shift_pair(4, 4).s1.matrix,
    "tensor-second": lambda: tensor_shift_pair(4, 4).s2.matrix,
    "unitary-and-shift": lambda: sla.block_diag(
        _haar_unitary(np.random.default_rng(14), 3),
        compress(shift(1, 5)).matrix),
}


@pytest.mark.parametrize("name", sorted(_TRIANGULAR_INPUTS))
def test_strictly_triangular_blocks_are_not_deflated(name, monkeypatch):
    t = _TRIANGULAR_INPUTS[name]()
    whole = wold._strictly_triangular(t)
    # the blocks of a block-diagonal matrix still count in the anchor
    one_block = whole and wold._diagonal_blocks(t).size == 1
    shapes = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def refuse(m):
        raise AssertionError("a strictly triangular matrix took a norm")

    monkeypatch.setattr(np.linalg, "svd", counting)
    if one_block:
        monkeypatch.setattr(wold, "operator_norm", refuse)
    h_inf, perp, _ = wold.hyper_range_split(t)
    monkeypatch.undo()
    # only the unitary block of the last input is factored
    assert all(max(shape) <= 3 for shape in shapes)
    assert whole == (not shapes)
    # bitwise what the nilpotency certificate returns with the rule bypassed
    monkeypatch.setattr(wold, "_strictly_triangular", lambda m: False)
    want_h, want_perp, _ = wold.hyper_range_split(t)
    assert np.array_equal(h_inf.basis, want_h.basis)
    assert np.array_equal(perp.basis, want_perp.basis)
    assert h_inf.dim == hyper_range_nested(t).dim


def test_wold_split_of_truncated_shift_is_exact():
    dec = wold_split(compress(shift(1, 16)), 16)
    assert dec.wandering.dim == 1
    assert [r.dim for r in dec.ladder] == [1] * 17
    assert dec.hyper_range.dim == 0
    assert dec.completeness_residual == 0.0
    assert dec.ladder_orthogonality == 0.0


def test_wold_split_recovers_unitary_summand():
    d = 10
    sq = compress(shift(1, d))
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    space, _ = direct_sum(sq.domain, abstract_space(3))
    op = GradedOperator(matrix=sla.block_diag(sq.matrix, q),
                        domain=space, codomain=space, growth=1, window=d - 1)
    dec = wold_split(op, d)
    assert dec.wandering.dim == 1
    assert dec.hyper_range.dim == 3
    assert dec.completeness_residual <= 1e-12
    assert dec.ladder_orthogonality <= 1e-12


def test_wold_split_of_inner_multiplier_has_no_residual_part():
    sym = blaschke([0.25], truncation_hint=200)
    big = compress(multiplier(sym, 112, order=112))
    op = GradedOperator(matrix=big.matrix, domain=big.domain,
                        codomain=big.codomain, growth=0, window=12)
    dec = wold_split(op, 44)
    assert dec.wandering.dim == 1
    assert dec.hyper_range.dim == 0
    assert dec.completeness_residual <= 1e-8
    assert dec.ladder_orthogonality <= 1e-8


def _blaschke_window():
    sym = blaschke([0.25], truncation_hint=200)
    big = compress(multiplier(sym, 112, order=112))
    return GradedOperator(matrix=big.matrix, domain=big.domain,
                          codomain=big.codomain, growth=0, window=12)


def _partial_isometry_window():
    # isometric on the three window columns, arbitrary above them, so the
    # ladder rungs overlap and both audits are far from zero
    rng = np.random.default_rng(4)
    sp = hardy_space(1, 7)
    m = 0.5 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    m[:, :3] = np.linalg.qr(rng.normal(size=(8, 3))
                            + 1j * rng.normal(size=(8, 3)))[0]
    return GradedOperator(matrix=m, domain=sp, codomain=sp, growth=1,
                          window=2)


@pytest.mark.parametrize("make, n_max", [(_blaschke_window, 5),
                                         (_partial_isometry_window, 6)])
def test_wold_split_audits_match_rung_by_rung_oracle(make, n_max):
    op = make()
    dec = wold_split(op, n_max)
    completeness, orthogonality = ladder_audits_pairwise(
        dec.ladder, dec.hyper_range, op.window_mask())
    assert completeness > 1e-3
    assert dec.completeness_residual == pytest.approx(completeness,
                                                      rel=1e-14, abs=0.0)
    assert dec.ladder_orthogonality == pytest.approx(orthogonality,
                                                     rel=1e-14, abs=1e-15)


def test_wold_split_rejects_nonisometric_window():
    sym = polynomial([0.0, 0.5])
    with pytest.raises(DomainError):
        wold_split(compress(multiplier(sym, 6)), 4)


def test_cnu_sections_span_shift_part():
    op = compress(shift(1, 24))
    grid = [0.5 * np.exp(2j * np.pi * k / 12) for k in range(12)]
    assert cnu_eigenvector_span_residual(op, grid) <= 1e-6


def test_cnu_span_residual_with_empty_grid_is_projector_norm():
    assert cnu_eigenvector_span_residual(compress(shift(1, 24)), []) == 1.0


def test_cnu_span_residual_rejects_boundary_points():
    with pytest.raises(DomainError):
        cnu_eigenvector_span_residual(compress(shift(1, 8)), [1.0])
