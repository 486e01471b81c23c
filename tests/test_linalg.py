import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import intersect_avg_projector, reducing_residual_complement
from woldlab.errors import DimensionError, ValidationError
from woldlab.linalg import (
    Subspace,
    _norm_at_most,
    complement,
    full_subspace,
    gram_defect,
    intersect,
    kernel,
    mutual_orthogonality,
    operator_norm,
    orthonormalize,
    pivoted_cholesky,
    reducing_residual,
    subspace_distance,
    unimodular_clusters,
    unitarity_defect,
    zero_subspace,
)
from woldlab.pairs import construct_example, validate_pair, verdict_battery
from woldlab.symbols import polynomial


def _random_subspace(rng, n, d):
    m = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return orthonormalize(m)


def test_orthonormalize_detects_rank():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 3))
    m = np.hstack([m, m @ rng.normal(size=(3, 2))])
    s = orthonormalize(m)
    assert s.dim == 3
    assert np.allclose(s.basis.conj().T @ s.basis, np.eye(3), atol=1e-12)


def test_orthonormalize_zero_matrix():
    s = orthonormalize(np.zeros((5, 4)))
    assert s.dim == 0
    assert s.ambient_dim == 5


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        Subspace(np.array([[1.0], [1.0]]))


def test_subspace_rejects_a_nan_basis():
    with pytest.raises(ValidationError, match="orthonormal"):
        Subspace(np.array([[1.0], [np.nan]]))


def test_coordinates_keeps_its_mask_beside_the_identity_columns():
    mask = np.array([True, False, True, True, False])
    s = Subspace.coordinates(mask)
    assert np.array_equal(s.mask, mask)
    assert np.array_equal(s.basis, np.eye(5)[:, mask])
    assert s.basis.dtype == np.complex128
    mask[0] = False  # the subspace holds its own copy
    assert s.mask[0]
    assert Subspace(s.basis).mask is None
    assert full_subspace(4).mask.all()
    assert zero_subspace(4).mask is None


@pytest.mark.parametrize("mask", [
    [0, 2], np.array([0.0, 0.5]), [0, 1, 1, 0], np.array([1, 0], dtype=np.int8),
], ids=["indices", "floats", "int-list", "int8"])
def test_coordinates_refuses_a_mask_that_is_not_boolean(mask):
    with pytest.raises(ValidationError, match="boolean, got dtype"):
        Subspace.coordinates(mask)
    # a list of bools is a mask
    assert Subspace.coordinates([True, False, True]).dim == 2


def test_coordinates_builds_identity_columns_without_the_check(monkeypatch):
    def refuse(self):
        raise AssertionError("the orthonormality check ran")

    monkeypatch.setattr(Subspace, "__post_init__", refuse)
    rng = np.random.default_rng(10)
    for n in (0, 1, 7, 40):
        mask = rng.random(n) < 0.5
        s = Subspace.coordinates(mask)
        assert np.array_equal(s.basis, np.eye(n, dtype=np.complex128)[:, mask])
        assert s.basis.dtype == np.complex128
    with pytest.raises(AssertionError, match="orthonormality"):
        Subspace(np.eye(3))


def test_a_mask_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Subspace(np.eye(3)[:, :2], mask=np.array([True, True, False]))
    with pytest.raises(ValidationError, match="1-D"):
        Subspace.coordinates(np.ones((2, 2), dtype=bool))


def test_projector_idempotent_hermitian():
    rng = np.random.default_rng(1)
    s = _random_subspace(rng, 7, 3)
    p = s.projector()
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert abs(np.trace(p).real - 3) < 1e-10


def test_intersect_matches_projector_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        a = _random_subspace(rng, n, int(rng.integers(1, n)))
        b = _random_subspace(rng, n, int(rng.integers(1, n)))
        got = intersect(a, b)
        want = intersect_avg_projector(a, b)
        assert got.dim == want.dim
        if got.dim:
            assert subspace_distance(got, want) <= 1e-8


def test_intersect_shared_direction():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(9, 1)) + 1j * rng.normal(size=(9, 1))
    a = orthonormalize(np.hstack([v, rng.normal(size=(9, 2))]))
    b = orthonormalize(np.hstack([v, rng.normal(size=(9, 2))]))
    got = intersect(a, b)
    assert got.dim == 1
    vb = orthonormalize(v)
    assert subspace_distance(got, vb) <= 1e-10


def test_intersect_disjoint_and_empty():
    e = np.eye(6)
    a = Subspace(e[:, :2])
    b = Subspace(e[:, 3:5])
    assert intersect(a, b).dim == 0
    z = zero_subspace(6)
    assert intersect(a, z).dim == 0


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _recording_svd(monkeypatch):
    shapes = []
    real_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_intersect_property_reads_a_coordinate_subspace_by_its_rows(
        planted, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(planted + 4, 15))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=int(rng.integers(max(planted, 1), n - 2)),
                    replace=False)] = True
    b = Subspace.coordinates(mask)
    inside = np.zeros((n, planted), dtype=np.complex128)
    inside[mask] = rng.normal(size=(b.dim, planted)) \
        + 1j * rng.normal(size=(b.dim, planted))
    # generic extra directions meet span(e_mask) nowhere while they fit
    extra = int(rng.integers(0, n - planted - b.dim + 1))
    outside = rng.normal(size=(n, extra)) + 1j * rng.normal(size=(n, extra))
    a = orthonormalize(np.hstack([inside, outside]))
    got = intersect(a, b)
    assert got.dim == planted
    want = intersect_avg_projector(a, b)
    assert want.dim == planted
    assert subspace_distance(got, want) <= 1e-12
    # conjugated by a Haar unitary, b is no longer a coordinate subspace
    u = _haar_unitary(rng, n)
    general = intersect(Subspace(u @ a.basis), Subspace(u @ b.basis))
    assert general.dim == planted
    assert subspace_distance(general, Subspace(u @ got.basis)) <= 1e-12


@pytest.mark.parametrize(
    "ratio, kept, tol",
    [(0.7, 1, 1e-10), (1.4, 0, 1e-10), (0.7, 1, 1e-6), (1.4, 0, 1e-6)],
    ids=["0.7-1", "1.4-0", "0.7-1-1e-06", "1.4-0-1e-06"])
def test_intersect_coordinate_path_keeps_the_cosine_rule(ratio, kept, tol):
    # a direction at sine ratio * sqrt(2 tol - tol^2) off span(e_0, e_1)
    sine = ratio * np.sqrt(2.0 * tol - tol * tol)
    v = np.zeros((4, 1), dtype=np.complex128)
    v[0], v[3] = np.sqrt(1.0 - sine ** 2), sine
    a = Subspace(v)
    b = Subspace.coordinates(np.array([True, True, False, False]))
    u = _haar_unitary(np.random.default_rng(9), 4)
    general = intersect(Subspace(u @ a.basis), Subspace(u @ b.basis), tol)
    assert intersect(a, b, tol).dim == general.dim == kept


def test_intersect_with_the_full_coordinate_space_returns_a():
    a = _random_subspace(np.random.default_rng(7), 6, 3)
    got = intersect(a, full_subspace(6))
    assert np.array_equal(got.basis, a.basis)


def test_intersect_reads_a_basis_one_ulp_off_the_identity_as_general(
        monkeypatch):
    a = _random_subspace(np.random.default_rng(8), 7, 3)
    near = np.eye(7, dtype=np.complex128)[:, :4]
    near[2, 2] = np.nextafter(1.0, 0.0)
    b = Subspace(near)
    shapes = _recording_svd(monkeypatch)
    got = intersect(a, b)
    # the general path takes the SVD of a^H b, not of the rows of a
    assert shapes[0] == (3, 4)
    want = intersect(a, Subspace.coordinates(np.arange(7) < 4))
    assert got.dim == want.dim
    # exact identity columns built by hand carry no mask: general as well,
    # and with a direction planted in the span the two paths agree
    rng = np.random.default_rng(8)
    planted = np.zeros((7, 1), dtype=np.complex128)
    planted[:4] = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    a = orthonormalize(np.hstack([planted, rng.normal(size=(7, 2))]))
    shapes.clear()
    got = intersect(a, Subspace(np.eye(7, dtype=np.complex128)[:, :4]))
    assert shapes[0] == (3, 4)
    want = intersect(a, Subspace.coordinates(np.arange(7) < 4))
    assert got.dim == want.dim == 1
    assert subspace_distance(got, want) <= 1e-12


def test_a_hand_built_identity_probe_gives_the_coordinate_answers():
    pair = construct_example(polynomial([0.5, 0.5]), 16)
    plain = Subspace(pair.probe.basis.copy())
    assert pair.probe.mask is not None and plain.mask is None
    general = validate_pair(pair.s1, pair.s2, probe=plain)
    for name in ("commutator_residual", "defect_1", "defect_2"):
        assert abs(getattr(general, name) - getattr(pair, name)) <= 1e-12
    got, want = verdict_battery(general), verdict_battery(pair)
    assert got.e_subspace.dim == want.e_subspace.dim
    assert subspace_distance(got.e_subspace, want.e_subspace) <= 1e-12
    for name in ("r_i", "r_ii", "r_iii"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12


def test_intersect_with_the_example_probe_takes_one_svd_of_a_h_b(
        monkeypatch):
    # a first operator whose mixed block [[e^{0.7i}, 0.6], [0, 0]] the
    # deflation keeps in part, so H is a dense basis beside the probe's mask
    u = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    s1 = np.zeros((5, 5), dtype=np.complex128)
    s1[0, :2] = np.exp(0.7j), 0.6
    s1[2:, 2:] = u
    mask = np.array([True, False, True, True, False])
    pair = validate_pair(s1, np.eye(5), Subspace.coordinates(mask))
    h_inf, probe = pair.split_1.h_inf, pair.probe
    assert h_inf.mask is None and h_inf.dim == 4
    shapes = _recording_svd(monkeypatch)
    got = intersect(h_inf, probe)
    # the cosine rule, with a^H b read by selecting the probe's rows
    assert shapes == [(h_inf.dim, probe.dim)]
    assert got.dim == intersect_avg_projector(h_inf, probe).dim == 3
    plain = intersect(h_inf, Subspace(probe.basis.copy()))
    assert plain.dim == 3 and subspace_distance(got, plain) <= 1e-12
    # two coordinate subspaces meet in their masks' AND, with no SVD
    pair = construct_example(polynomial([0.5, 0.5]), 32)
    h_inf, probe = pair.split_1.h_inf, pair.probe
    shapes.clear()
    got = intersect(h_inf, probe)
    assert shapes == []
    assert np.array_equal(got.mask, h_inf.mask & probe.mask)
    assert got.dim == intersect_avg_projector(h_inf, probe).dim


def test_intersect_ambient_mismatch():
    with pytest.raises(DimensionError):
        intersect(Subspace(np.eye(3)[:, :1]), Subspace(np.eye(4)[:, :1]))


def test_complement_partitions():
    rng = np.random.default_rng(4)
    s = _random_subspace(rng, 10, 4)
    c = complement(s)
    assert c.dim == 6
    assert np.allclose(s.projector() + c.projector(), np.eye(10),
                       atol=1e-12)


def test_complement_of_full_and_zero():
    assert complement(Subspace(np.eye(4))).dim == 0
    assert complement(zero_subspace(4)).dim == 4


def test_kernel_known():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    k = kernel(m)
    assert k.dim == 1
    assert np.linalg.norm(m @ k.basis) < 1e-12
    # a tall matrix takes the thin SVD; its right singular vectors are all
    rng = np.random.default_rng(4)
    tall = (rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))) \
        @ (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    _, s, vh = np.linalg.svd(tall, full_matrices=True)
    want = Subspace(vh[int(np.sum(s > 1e-10 * s[0])):].conj().T)
    got = kernel(tall)
    assert got.dim == want.dim == 3
    assert subspace_distance(got, want) <= 1e-12


def test_subspace_distance_properties():
    rng = np.random.default_rng(5)
    a = _random_subspace(rng, 8, 3)
    b = _random_subspace(rng, 8, 3)
    assert subspace_distance(a, a) < 1e-12
    assert abs(subspace_distance(a, b) - subspace_distance(b, a)) < 1e-12


def test_reducing_residual_invariant_block():
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = [[0, 1], [1, 0]]
    m[2:, 2:] = [[2, 0], [0, 3]]
    s = Subspace(np.eye(4, dtype=complex)[:, :2])
    low, up = reducing_residual(m, s)
    assert max(low, up) < 1e-14
    m[0, 2] = 1.0
    low, up = reducing_residual(m, s)
    assert max(low, up) > 0.5


@pytest.mark.parametrize("d", [0, 1, 6, 7])
@pytest.mark.parametrize("seed", range(4))
def test_reducing_residual_matches_complement_oracle(seed, d):
    rng = np.random.default_rng(seed)
    m = 3.0 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    s = _random_subspace(rng, 7, d)
    got = reducing_residual(m, s)
    want = reducing_residual_complement(m, s)
    assert np.max(np.abs(np.subtract(got, want))) \
        <= 1e-13 * max(1.0, operator_norm(m))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    assert abs(operator_norm(m) - np.linalg.svd(m, compute_uv=False)[0]) \
        < 1e-12


def test_pivoted_cholesky_reconstructs():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    gram = b @ b.conj().T
    c = pivoted_cholesky(gram)
    assert c.shape[0] == 4
    assert np.allclose(c.conj().T @ c, gram, atol=1e-10)


def test_pivoted_cholesky_rank_deficient_and_indefinite():
    gram = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    c = pivoted_cholesky(gram)
    assert c.shape[0] == 2
    bad = np.diag([1.0, -0.1]).astype(complex)
    with pytest.raises(ValidationError):
        pivoted_cholesky(bad)


def test_gram_and_unitarity_defects_of_a_rectangular_isometry():
    rng = np.random.default_rng(8)
    v = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))[0]
    assert gram_defect(v) < 1e-14
    assert gram_defect(np.zeros((4, 0))) == 0.0
    # V V^H is a rank-3 projector on C^5, so the co-isometry defect is 1
    assert abs(unitarity_defect(v) - 1.0) < 1e-14
    assert unitarity_defect(np.zeros((0, 0))) == 0.0


def test_mutual_orthogonality_matches_pairwise_norms_across_widths():
    rng = np.random.default_rng(9)
    subs = [_random_subspace(rng, 7, d) for d in (1, 3, 2, 1, 3)]
    subs.insert(1, zero_subspace(7))
    pairwise = max(operator_norm(a.basis.conj().T @ b.basis)
                   for i, a in enumerate(subs) for b in subs[i + 1:]
                   if a.dim and b.dim)
    assert abs(mutual_orthogonality(subs) - pairwise) <= 1e-14 * pairwise
    assert mutual_orthogonality(subs[:2]) == 0.0
    # a later narrow subspace tilted into an earlier wide one
    eye = np.eye(8, dtype=complex)
    tilted = orthonormalize(eye[:, 1] + eye[:, 6])
    subs = [orthonormalize(eye[:, :1]), orthonormalize(eye[:, 1:4]),
            orthonormalize(eye[:, 4:6]), tilted]
    assert abs(mutual_orthogonality(subs) - np.sqrt(0.5)) < 1e-15
    assert mutual_orthogonality(subs[:3]) == 0.0


def test_unimodular_clusters_merge_across_the_branch_cut():
    vals = np.exp(1j * np.array([np.pi - 1e-9, 0.5, -np.pi + 1e-9,
                                 0.5 + 1e-9, 2.0]))
    groups = unimodular_clusters(vals, 1e-8)
    # angle order: -pi (2), 0.5 (1, 3), 2.0 (4), pi (0) joins the first
    assert groups == [[2, 0], [1, 3], [4]]
    assert unimodular_clusters(vals, 1e-12) == [[2], [1], [3], [4], [0]]
    assert unimodular_clusters(np.zeros(0), 1e-8) == []


def test_subspaces_and_pairs_compare_and_hash_by_identity():
    # a generated __eq__ would compare the bases and raise on the array's
    # truth value; identity comparison never reads them
    s = full_subspace(3)
    assert s == s
    assert full_subspace(3) != full_subspace(3)
    assert (Subspace(np.eye(2)) == Subspace(np.eye(2))) is False
    pair = construct_example(polynomial([0.5, 0.5]), 8)
    assert pair == pair and pair in {pair}
    assert {s: 1}[s] == 1
    assert hash(pair.split_1) == hash(pair.split_1)
    assert len({hash(s), hash(pair), hash(pair.split_1.h_inf)}) == 3


_NORM_CASES = st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from(["random", "rank-1", "zero", "tiny"]),
    st.sampled_from(["above", "below", "frobenius", "frobenius-over-sqrt-r"]),
    # squared entries of the scaled input fall to subnormals, or overflow
    st.sampled_from([1.0, 1e-160, 1e160]))


def _norm_case(rng, kind):
    """A matrix of the given kind."""
    shape = tuple(int(k) for k in rng.integers(1, 9, size=2))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "rank-1":
        return np.outer(a[:, 0], a[0])
    if kind == "zero":
        return np.zeros(shape, dtype=np.complex128)
    if kind == "tiny":
        # each squared entry underflows to zero
        return 1e-300 * a
    return a


@settings(derandomize=True, max_examples=240, deadline=None, database=None)
@given(_NORM_CASES)
# a rank-one matrix whose SVD norm exceeds its Frobenius norm by rounding
@example((4, "rank-1", "frobenius", 1.0))
def test_norm_at_most_property_decides_as_the_svd(case):
    # the bounds sit just above and below the exact norm and on the two
    # Frobenius bounds, where a bound without slack would decide wrongly;
    # a scaled input takes its bound scaled alike
    seed, kind, at, scale = case
    rng = np.random.default_rng(seed)
    a = _norm_case(rng, kind)
    exact = operator_norm(a)
    fro = float(np.linalg.norm(a))
    bound = {"above": exact * (1.0 + 1e-9), "below": exact * (1.0 - 1e-9),
             "frobenius": fro,
             "frobenius-over-sqrt-r": fro / np.sqrt(min(a.shape))}[at]
    a, bound = scale * a, scale * bound
    assert _norm_at_most(a, bound) == (operator_norm(a) <= bound)


@pytest.mark.parametrize("bound", [0.0, 1.0, 1e300, np.inf])
@pytest.mark.parametrize("otherwise_zero", [False, True])
def test_norm_at_most_never_passes_a_nan(bound, otherwise_zero):
    # a NaN among zeros is not an all-zero matrix: it reaches the SVD
    a = np.zeros((3, 3)) if otherwise_zero else np.eye(3)
    a = a.astype(np.complex128)
    a[1, 2] = np.nan
    try:
        want = operator_norm(a) <= bound
    except np.linalg.LinAlgError as exc:
        with pytest.raises(type(exc)):
            _norm_at_most(a, bound)
    else:
        assert want is False
        assert _norm_at_most(a, bound) is False
