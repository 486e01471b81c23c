"""Commuting isometry pairs: construction, verdicts, and structure splits.

The central object is a pair of commuting isometric compressions on a
shared coordinate model. One constructor builds the weighted-boundary pair
attached to a scalar Schur symbol: the defect weight of the symbol induces
a Gram matrix on monomials, its Cholesky factor embeds them into a finite
boundary space, and the pair couples the shift to the symbol's multiplier
through a cross block feeding monomials to their boundary embeddings. The
first operator acts as a constant unitary on the boundary summand, so its
hyper-range is exactly that summand and every orthogonality question about
the pair becomes a question about the cross block.

A battery of residuals then probes, numerically, whether the hyper-range
of the first operator reduces the second to an isometry; the equivalent
formulations are computed independently so their verdicts can be compared
rather than assumed equal. Structure extractors split a verdict-true pair
into its bi-unitary, constant-times-shift, and shift-times-multiplier
parts, recover the multiplier's coefficients, and reassemble the model to
measure how much was lost.

All identity checks are confined to an explicit probe subspace: the set of
coordinates on which the finite compressions provably agree with the
operators they truncate. Fixtures that scramble their coordinates by a
random unitary hand the scrambled probe along, since trust survives a
change of basis even though coordinate degrees do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    PreconditionError,
    ValidationError,
)
from .hardy import (
    GradedOperator,
    TruncatedSpace,
    _coordinate_subspace,
    abstract_space,
    compress,
    direct_sum,
    hardy_space,
    multiplier,
    shift,
)
from .linalg import (
    Subspace,
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
    unimodular_clusters,
    unitarity_defect,
    zero_subspace,
)
from .symbols import SchurSymbol, defect_weight
from .wold import (CanonicalDecomposition, hyper_range, unitary_part,
                   wandering_subspace)

__all__ = [
    "OperatorPair",
    "ExampleAssembly",
    "VerdictReport",
    "ModelDecomposition",
    "SlocinskiDecomposition",
    "PointSpectrumPart",
    "FinitenessReport",
    "validate_pair",
    "construct_example",
    "verdict_battery",
    "model_decomposition",
    "slocinski",
    "point_spectrum_part",
    "finiteness_checks",
    "shift_multiplier_pair",
    "tensor_shift_pair",
    "biunitary_pair",
    "constant_shift_pair",
    "three_part_pair",
    "four_block_pair",
]

# polynomial degree of the boundary-valued summand of the weighted-boundary
# pair; the battery only ever populates low degrees there
_BOUNDARY_DEGREE = 2
# number of nested degree caps at which the battery reads r_iv and r_v
_N_LEVELS = 3


@dataclass(frozen=True)
class ExampleAssembly:
    """Raw ingredients of the weighted-boundary pair.

    ``factor`` is the Cholesky factor C of the monomial Gram matrix, so
    column n is the boundary embedding of z^n; ``v_hat`` is the unitary
    completion of the column shift C[:, n] -> C[:, n+1]; ``b1`` is the
    embedded constant, the cyclic vector whose moments under ``v_hat``
    reproduce the defect weight.
    """

    symbol: SchurSymbol
    degree: int
    gram: np.ndarray
    factor: np.ndarray
    v_hat: np.ndarray
    b1: np.ndarray
    rank: int


@dataclass(frozen=True)
class OperatorPair:
    """Validated commuting pair with its trust region and residuals."""

    s1: GradedOperator
    s2: GradedOperator
    space: TruncatedSpace
    mode: str
    probe: Subspace
    commutator_residual: float
    defect_1: float
    defect_2: float
    assembly: ExampleAssembly | None = None

    @cached_property
    def hyper_range_1(self) -> Subspace:
        """Hyper-range of the first operator, computed once on first use."""
        return hyper_range(self.s1.matrix)

    @cached_property
    def unitary_part_1(self) -> CanonicalDecomposition:
        """Unitary/cnu decomposition of the first operator, computed once."""
        return unitary_part(self.s1.matrix)

    @cached_property
    def verdict_report(self) -> VerdictReport:
        """Verdict battery at its default seed, computed once."""
        return verdict_battery(self)


@dataclass(frozen=True)
class VerdictReport:
    """Residuals of the equivalent orthogonality formulations.

    ``r_i`` measures whether the hyper-range of the first operator reduces
    the second to an isometry; ``r_ii`` the reduction plus the restricted
    double-commutation defect; ``r_iii`` the norm of the projected image of
    the wandering subspace, which is what the verdict thresholds. ``r_iv``
    lists, per truncation level and per sampled wandering vector, the
    dimension of the span of projected adjoint-power images; ``r_v`` keeps
    the top singular values of the off-diagonal compression per level,
    reported for inspection only.
    """

    e_subspace: Subspace
    p_inf: Subspace
    r_i: float
    r_ii: float
    r_iii: float
    r_iv: list
    r_v: list
    levels: list
    samples: list
    verdict: bool
    vacuous: bool


@dataclass(frozen=True)
class ModelDecomposition:
    """Three-part structure of a verdict-true pair.

    The bi-unitary part carries the blocks ``v1``, ``v2``; the middle part
    is a constant unitary ``psi`` acting over a ladder shifted by the
    second operator; the last part is a shift paired with the recovered
    multiplier ``phi_coeffs`` (block k is the k-th Taylor coefficient).
    ``reconstruction_residual`` is the worst column error of the assembled
    model against the input pair over trusted ladder columns.
    """

    h_uu: Subspace
    v1: np.ndarray
    v2: np.ndarray
    f_dim: int
    psi: np.ndarray
    psi_unitarity: float
    e_dim: int
    phi: SchurSymbol | None
    phi_coeffs: np.ndarray
    toeplitz_residual: float
    reconstruction_residual: float
    f_ladder_dim: int
    e_ladder_dim: int


@dataclass(frozen=True)
class SlocinskiDecomposition:
    """Four jointly reducing parts of a doubly commuting pair."""

    parts: dict
    dims: dict
    labels: dict
    fiber_dims: dict
    constant_symbols: dict
    orthogonality_residual: float
    reduction_residual: float
    double_commutation_residual: float


@dataclass(frozen=True)
class PointSpectrumPart:
    """Orthogonal sum of unimodular eigenspaces of the first operator."""

    subspace: Subspace
    eigenpairs: list
    reduction_residual_1: float
    reduction_residual_2: float
    unimodularity: float


@dataclass(frozen=True)
class FinitenessReport:
    """Finite-dimensionality indicators tied to the pair's verdict."""

    dim_a: int
    dim_b: int
    spectrum_card: int
    verdict: bool
    r_iii: float


def _default_probe(s1: GradedOperator, s2: GradedOperator) -> Subspace:
    degs = s1.domain.degrees_array()
    cut = s1.domain.degree - s1.growth - s2.growth
    return _coordinate_subspace(degs <= cut)


def validate_pair(s1, s2, mode: str = "isometry",
                  probe: Subspace | None = None,
                  assembly: ExampleAssembly | None = None) -> OperatorPair:
    """Measure a candidate pair's defects and reject anything beyond 1e-8.

    The commutator and, in isometry mode, each operator's isometry defect
    are evaluated on the probe subspace (by default, coordinates far enough
    below the top degree that truncation cannot reach them). Contraction
    mode instead requires both operator norms at most 1 + 1e-8.

    Raises
    ------
    DimensionError
        If the two operators do not share a coordinate model.
    DomainError
        If a measured defect exceeds 1e-8; the message carries the value.
    """
    from .wold import as_graded

    a = as_graded(s1)
    b = as_graded(s2)
    if a.domain.dim != a.codomain.dim or b.domain.dim != b.codomain.dim:
        raise DimensionError("pair operators must be square compressions")
    if a.domain.dim != b.domain.dim or \
            a.domain.coordinate_degrees != b.domain.coordinate_degrees:
        raise DimensionError("pair operators must share one graded space")
    if mode not in ("isometry", "contraction"):
        raise ValidationError(f"unknown mode {mode!r}")
    if probe is None:
        probe = _default_probe(a, b)
    if probe.dim == 0:
        raise ValidationError(
            "empty probe: the degree is too small for the symbols' growth"
        )
    m1, m2 = a.matrix, b.matrix
    comm = operator_norm((m1 @ m2 - m2 @ m1) @ probe.basis)
    if mode == "isometry":
        d1 = gram_defect(m1 @ probe.basis)
        d2 = gram_defect(m2 @ probe.basis)
        for name, d in (("first", d1), ("second", d2)):
            if d > 1e-8:
                raise DomainError(
                    f"{name} operator is not isometric on the probe: "
                    f"defect {d:.3e}"
                )
    else:
        d1 = max(0.0, operator_norm(m1) - 1.0)
        d2 = max(0.0, operator_norm(m2) - 1.0)
        for name, d in (("first", d1), ("second", d2)):
            if d > 1e-8:
                raise DomainError(
                    f"{name} operator is not a contraction: excess {d:.3e}"
                )
    if comm > 1e-8:
        raise DomainError(f"operators do not commute: residual {comm:.3e}")
    return OperatorPair(
        s1=a, s2=b, space=a.domain, mode=mode, probe=probe,
        commutator_residual=comm, defect_1=d1, defect_2=d2,
        assembly=assembly,
    )


def _unitary_completion(c: np.ndarray) -> np.ndarray:
    """Unitary V with V C[:, n] = C[:, n+1] wherever the columns decide it.

    The column shift is isometric on the span of all but the last column
    because the underlying Gram matrix is Toeplitz; the remaining freedom
    is filled deterministically by matching the left and right orthogonal
    complements in the order the SVD presents them.
    """
    r = c.shape[0]
    if r == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    d, rr = c[:, :-1], c[:, 1:]
    u, s, vh = np.linalg.svd(d, full_matrices=True)
    k = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
    images = rr @ vh[:k].conj().T / s[:k]
    v = images @ u[:, :k].conj().T
    if k < r:
        left = complement(orthonormalize(images)).basis \
            if k else np.eye(r, dtype=np.complex128)
        v = v + left[:, : r - k] @ u[:, k:].conj().T
    return v


def construct_example(phi: SchurSymbol, degree: int) -> OperatorPair:
    """Weighted-boundary pair attached to a scalar Schur symbol.

    The defect weight of the symbol defines the Gram matrix
    ``G[m, n] = w_hat(m - n)`` on monomials up to ``degree``; its pivoted
    Cholesky factor (rank cutoff 1e-12) embeds them into a boundary space,
    trivial exactly when the symbol is inner. The pair lives on a truncated
    boundary-valued Hardy space of degree 2 (``_BOUNDARY_DEGREE``)
    direct-summed with a scalar one: the first operator is the constant
    boundary unitary on one summand and the shift on the other, the second
    couples the boundary shift to the symbol's multiplier through the
    embedding block.

    Parameters
    ----------
    phi : SchurSymbol
        Scalar symbol.
    degree : int
        Monomial window; identities are asserted up to this degree, with
        the internal truncation built 4 degrees beyond the symbol's
        coefficient span so nothing leaks in.

    Raises
    ------
    DomainError
        If the symbol is not scalar, or the Gram matrix is indefinite
        below -1e-10 (the symbol is not in the Schur class).
    """
    if phi.fiber_dim != 1:
        raise DomainError("the weighted-boundary pair needs a scalar symbol")
    if degree < 1:
        raise DomainError("degree must be at least 1")
    w = defect_weight(phi, degree)
    idx = np.arange(degree + 1)
    gram = w.values[degree + (idx[:, None] - idx[None, :])]
    try:
        c = pivoted_cholesky(gram, cutoff=1e-12)
    except ValidationError as exc:
        raise DomainError(f"symbol is not in the Schur class: {exc}") from exc
    r = c.shape[0]
    v_hat = _unitary_completion(c)
    growth = multiplier(phi, 0).growth
    n_int = degree + growth + 4
    h_sp = hardy_space(1, n_int, label="scalar")
    m_phi = compress(multiplier(phi, n_int)).matrix
    if r == 0:
        s1 = GradedOperator(matrix=compress(shift(1, n_int)).matrix,
                            domain=h_sp, codomain=h_sp, growth=1,
                            window=n_int - 1)
        s2 = GradedOperator(matrix=m_phi, domain=h_sp, codomain=h_sp,
                            growth=growth, window=n_int - growth)
        degs = h_sp.degrees_array()
        probe = _coordinate_subspace(degs <= degree)
        assembly = ExampleAssembly(symbol=phi, degree=degree, gram=gram,
                                   factor=c, v_hat=v_hat,
                                   b1=np.zeros(0, dtype=np.complex128), rank=0)
        return validate_pair(s1, s2, "isometry", probe, assembly)
    g_sp = hardy_space(r, _BOUNDARY_DEGREE, label="boundary")
    space, (sl_g, sl_h) = direct_sum(g_sp, h_sp)
    n = space.dim
    cols = np.empty((r, n_int + 1), dtype=np.complex128)
    cols[:, : degree + 1] = c
    for j in range(degree + 1, n_int + 1):
        cols[:, j] = v_hat @ cols[:, j - 1]
    m1 = np.zeros((n, n), dtype=np.complex128)
    m1[sl_g, sl_g] = np.kron(np.eye(_BOUNDARY_DEGREE + 1), v_hat)
    m1[sl_h, sl_h] = compress(shift(1, n_int)).matrix
    m2 = np.zeros((n, n), dtype=np.complex128)
    m2[sl_g, sl_g] = compress(shift(r, _BOUNDARY_DEGREE)).matrix
    m2[sl_h, sl_h] = m_phi
    m2[sl_g.start: sl_g.start + r, sl_h] = cols
    s1 = GradedOperator(matrix=m1, domain=space, codomain=space, growth=1,
                        window=_BOUNDARY_DEGREE - 1)
    s2 = GradedOperator(matrix=m2, domain=space, codomain=space,
                        growth=max(growth, 1),
                        window=_BOUNDARY_DEGREE - 1)
    degs = space.degrees_array()
    mask = np.zeros(n, dtype=bool)
    mask[sl_g] = degs[sl_g] <= _BOUNDARY_DEGREE - 1
    mask[sl_h] = degs[sl_h] <= degree
    probe = _coordinate_subspace(mask)
    assembly = ExampleAssembly(symbol=phi, degree=degree, gram=gram,
                               factor=c, v_hat=v_hat,
                               b1=c[:, 0].copy(), rank=r)
    return validate_pair(s1, s2, "isometry", probe, assembly)


def shift_multiplier_pair(sym: SchurSymbol, degree: int) -> OperatorPair:
    """The pair (shift, multiplication by an inner symbol) on one window."""
    s1 = compress(shift(sym.fiber_dim, degree))
    s2 = compress(multiplier(sym, degree))
    return validate_pair(s1, s2, "isometry")


def _level_caps(top: int, n_levels: int) -> list:
    caps = []
    for i in range(1, n_levels + 1):
        c = max(i, round(top * i / n_levels))
        if caps and c <= caps[-1]:
            c = caps[-1] + 1
        caps.append(c)
    return caps


def verdict_battery(p: OperatorPair, seed: int = 0) -> VerdictReport:
    """Independent residuals for the orthogonality verdict.

    Computes the hyper-range of the first operator and the wandering
    subspace of its adjoint on the probe, then measures each equivalent
    formulation separately; the boolean verdict thresholds ``r_iii`` (the
    projected wandering image) at 1e-8. A pair with no wandering vectors
    is reported verdict-true with the ``vacuous`` flag set. ``r_iv`` and
    ``r_v`` are read at three nested degree caps; ``r_iv`` samples each
    wandering basis vector and, when there are several, two random
    combinations drawn from ``seed``.

    Every residual is computed at working size, on the basis ``Q`` of the
    hyper-range, never on an n x n projector: a projected image ``P x``
    enters through ``Q^H x``, which has the same norms and singular values,
    and the off-diagonal blocks of ``S2`` are ``S2 Q - Q A`` and
    ``Q^H S2 - A Q^H`` for the compression ``A = Q^H S2 Q``.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    n = p.space.dim
    h_inf = p.hyper_range_1
    q = h_inf.basis
    probe = p.probe.basis
    e_sub = Subspace(probe @ kernel(m1.conj().T @ probe).basis)
    h_probe = intersect(h_inf, p.probe)
    m2q = m2 @ q
    a = q.conj().T @ m2q
    cross = q.conj().T @ m2 - a @ q.conj().T
    red_out = operator_norm(m2q - q @ a)
    red_in = operator_norm(cross)
    image = m2 @ h_probe.basis
    iso = gram_defect(q.conj().T @ image)
    dc = operator_norm(m1.conj().T @ image
                       - m2 @ (m1.conj().T @ h_probe.basis)) \
        if h_probe.dim else 0.0
    r_i = red_out + red_in + iso
    r_ii = red_out + red_in + dc
    vacuous = e_sub.dim == 0
    r_iii = 0.0 if vacuous else operator_norm(q.conj().T @ (m2 @ e_sub.basis))
    samples = [e_sub.basis[:, j].copy() for j in range(e_sub.dim)]
    if e_sub.dim > 1:
        rng = np.random.default_rng(seed)
        for _ in range(2):
            coef = rng.normal(size=e_sub.dim) \
                + 1j * rng.normal(size=e_sub.dim)
            v = e_sub.basis @ (coef / np.linalg.norm(coef))
            samples.append(v)
    top = max(int(np.max(p.space.degrees_array())), _N_LEVELS)
    levels = _level_caps(top, _N_LEVELS)
    # the caps are nested, so each sample's adjoint-power images are built
    # once at the top cap and every level reads a prefix
    krylov = []
    for x in samples:
        vecs = []
        v = m2 @ x
        for _ in range(levels[-1]):
            v = m1.conj().T @ v
            vecs.append(v)
        krylov.append(q.conj().T @ np.column_stack(vecs))
    r_iv: list = []
    for cap in levels:
        dims_at_level = []
        for stack in krylov:
            stack = stack[:, :cap]
            if stack.size and np.any(stack):
                s = np.linalg.svd(stack, compute_uv=False)
                dims_at_level.append(int(np.sum(s > 1e-8)))
            else:
                dims_at_level.append(0)
        r_iv.append(dims_at_level)
    degs = p.space.degrees_array()
    r_v: list = []
    for cap in levels:
        s = np.linalg.svd(cross[:, degs <= cap], compute_uv=False)
        # an n x n block has n singular values, the missing ones zero
        top5 = np.zeros(min(5, n))
        top5[:min(5, s.size)] = s[:5]
        r_v.append([float(x) for x in top5])
    verdict = bool(vacuous or r_iii <= 1e-8)
    return VerdictReport(
        e_subspace=e_sub, p_inf=h_inf, r_i=float(r_i), r_ii=float(r_ii),
        r_iii=float(r_iii), r_iv=r_iv, r_v=r_v, levels=levels,
        samples=samples, verdict=verdict, vacuous=vacuous,
    )


def _trusted_ladder(step: np.ndarray, start: Subspace, probe: Subspace,
                    cap: int) -> np.ndarray:
    """Apply ``step`` repeatedly, stopping before leaving the probe.

    Returns the rungs as one stack of shape ``(k, n, w)``; an empty start
    gives an empty stack.
    """
    rungs = [start.basis] if start.dim else []
    while rungs and len(rungs) <= cap:
        nxt = step @ rungs[-1]
        leak = operator_norm(nxt - probe.project(nxt))
        scale = max(operator_norm(nxt), 1e-30)
        if leak / scale > 1e-8:
            break
        rungs.append(nxt)
    return np.array(rungs, dtype=np.complex128).reshape(
        len(rungs), start.ambient_dim, start.dim)


def model_decomposition(p: OperatorPair) -> ModelDecomposition:
    """Split a verdict-true pair into its three canonical parts.

    On the hyper-range of the first operator, the restriction of the
    second is an isometry; its own hyper-range carries the bi-unitary
    part, and its wandering subspace carries a constant unitary ``psi``
    (the compression of the first operator there). On the complement, the
    first operator is shift-like and the second acts as a multiplier. On
    the ladder ``E`` that the first operator grows from its wandering
    subspace there, the compression ``E^H S2 E`` is block Toeplitz: its
    first block column holds the multiplier's coefficients, and its block
    diagonals are checked against them.

    Raises
    ------
    PreconditionError
        If the battery verdict is false; the message carries ``r_iii``.
    """
    report = p.verdict_report
    if not report.verdict:
        raise PreconditionError(
            f"pair fails the orthogonality verdict: r_iii={report.r_iii:.6g}"
        )
    m1, m2 = p.s1.matrix, p.s2.matrix
    n = p.space.dim
    q = p.hyper_range_1.basis
    if q.shape[1]:
        a = q.conj().T @ m2 @ q
        h_uu = Subspace(q @ hyper_range(a).basis)
        f_wander = Subspace(q @ wandering_subspace(a).basis)
    else:
        h_uu = f_wander = zero_subspace(n)
    v1 = h_uu.basis.conj().T @ m1 @ h_uu.basis
    v2 = h_uu.basis.conj().T @ m2 @ h_uu.basis
    psi = f_wander.basis.conj().T @ m1 @ f_wander.basis
    f_lad = _trusted_ladder(m2, f_wander, p.probe, n)
    q_o = complement(p.hyper_range_1).basis
    e_wander = Subspace(
        q_o @ wandering_subspace(q_o.conj().T @ m1 @ q_o).basis)
    e_dim = e_wander.dim
    e_lad = _trusted_ladder(m1, e_wander, p.probe, n)
    k_e = len(e_lad)
    s2e = m2 @ e_lad
    # block (i, j) of the compression E^H S2 E is rung_i^H S2 rung_j
    g = e_lad.conj().swapaxes(1, 2)[:, None] @ s2e
    keep = k_e
    while keep > 1 and operator_norm(g[keep - 1, 0]) <= 1e-9:
        keep -= 1
    # the first block column, sliced so an empty ladder gives no blocks
    coeffs = g[:keep, :1].reshape(keep, e_dim, e_dim)
    # the later columns of each kept block diagonal repeat its coefficient
    rows, cols = np.tril_indices(k_e)
    diag = (cols > 0) & (rows - cols < keep)
    toe = operator_norm(g[rows[diag], cols[diag]]
                        - coeffs[rows[diag] - cols[diag]])
    phi = SchurSymbol(kind="polynomial", fiber_dim=e_dim, coeffs=coeffs) \
        if e_dim else None
    span = k_e - keep + 1
    model_img = sum(e_lad[k:k + span] @ coeffs[k] for k in range(keep))
    worst = max(operator_norm(m1 @ h_uu.basis - h_uu.basis @ v1),
                operator_norm(m2 @ h_uu.basis - h_uu.basis @ v2),
                operator_norm(m1 @ f_lad - f_lad @ psi),
                operator_norm(m2 @ f_lad[:-1] - f_lad[1:]),
                operator_norm(m1 @ e_lad[:-1] - e_lad[1:]),
                operator_norm(s2e[:span] - model_img))
    return ModelDecomposition(
        h_uu=h_uu, v1=v1, v2=v2,
        f_dim=f_wander.dim, psi=psi, psi_unitarity=gram_defect(psi),
        e_dim=e_dim, phi=phi, phi_coeffs=coeffs,
        toeplitz_residual=float(toe),
        reconstruction_residual=float(worst),
        f_ladder_dim=len(f_lad), e_ladder_dim=k_e,
    )


def slocinski(p: OperatorPair) -> SlocinskiDecomposition:
    """Four-part split of a doubly commuting pair.

    Intersecting and complementing the two hyper-ranges yields the parts
    on which (first, second) act as (unitary, unitary), (unitary, shift),
    (shift, unitary), and (shift, shift). Each part is labeled by measured
    unitarity defects, its shift coordinates get wandering fiber
    dimensions, and mixed parts report the constant compression of their
    unitary coordinate on the other coordinate's wandering subspace.

    Raises
    ------
    PreconditionError
        If the adjoint commutator on the probe exceeds 1e-8.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    dc = operator_norm(
        (m1.conj().T @ m2 - m2 @ m1.conj().T) @ p.probe.basis)
    if dc > 1e-8:
        raise PreconditionError(
            f"pair is not doubly commuting on the probe: residual {dc:.3e}"
        )
    h1 = p.hyper_range_1
    h2 = hyper_range(m2)
    h_uu = intersect(h1, h2)
    h_us, h_su = h1, h2
    if h_uu.dim:
        rest = complement(h_uu)
        h_us, h_su = intersect(h1, rest), intersect(h2, rest)
    h_ss = intersect(complement(h1), complement(h2))
    parts = {"uu": h_uu, "us": h_us, "su": h_su, "ss": h_ss}
    dims = {k: v.dim for k, v in parts.items()}
    labels: dict = {}
    fibers: dict = {}
    consts: dict = {}
    reduce_worst = 0.0
    for key, sub in parts.items():
        if sub.dim == 0:
            labels[key] = ("empty", "empty")
            fibers[key] = (0, 0)
            consts[key] = None
            continue
        reduce_worst = max(reduce_worst, *reducing_residual(m1, sub),
                           *reducing_residual(m2, sub))
        # the compressions to the part, and everything read off them
        c1, c2 = (sub.basis.conj().T @ m @ sub.basis for m in (m1, m2))
        role = tuple("unitary" if unitarity_defect(c) <= 1e-8 else "shift"
                     for c in (c1, c2))
        w1, w2 = wandering_subspace(c1), wandering_subspace(c2)
        labels[key] = role
        fibers[key] = (w1.dim, w2.dim)
        consts[key] = None
        if role == ("unitary", "shift"):
            consts[key] = w2.basis.conj().T @ c1 @ w2.basis
        elif role == ("shift", "unitary"):
            consts[key] = w1.basis.conj().T @ c2 @ w1.basis
    return SlocinskiDecomposition(
        parts=parts, dims=dims, labels=labels, fiber_dims=fibers,
        constant_symbols=consts,
        orthogonality_residual=mutual_orthogonality(parts.values()),
        reduction_residual=float(reduce_worst),
        double_commutation_residual=float(dc),
    )


def point_spectrum_part(p: OperatorPair,
                        cluster_tol: float = 1e-8) -> PointSpectrumPart:
    """Unimodular eigenspaces of the first operator, clustered and summed.

    Eigenvalues of the unitary block are clustered at ``cluster_tol`` by
    ``unimodular_clusters``; each cluster contributes one eigenspace, and
    their orthogonal sum is returned along with the residuals showing it
    reduces both operators.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    cd = p.unitary_part_1
    if cd.unitary_part.dim == 0:
        zero = zero_subspace(p.space.dim)
        return PointSpectrumPart(subspace=zero, eigenpairs=[],
                                 reduction_residual_1=0.0,
                                 reduction_residual_2=0.0,
                                 unimodularity=0.0)
    vals, vecs = np.linalg.eig(cd.unitary_block)
    unimod = float(np.max(np.abs(np.abs(vals) - 1.0)))
    pairs = []
    for group in unimodular_clusters(vals, cluster_tol):
        lam = complex(np.mean(vals[group]))
        basis = orthonormalize(cd.unitary_part.basis @ vecs[:, group])
        pairs.append((lam, basis))
    total = orthonormalize(np.hstack([b.basis for _, b in pairs]))
    r1 = max(reducing_residual(m1, total))
    r2 = max(reducing_residual(m2, total))
    return PointSpectrumPart(subspace=total, eigenpairs=pairs,
                             reduction_residual_1=float(r1),
                             reduction_residual_2=float(r2),
                             unimodularity=unimod)


def finiteness_checks(p: OperatorPair) -> FinitenessReport:
    """Kernel and spectrum cardinality indicators on the hyper-range."""
    m2 = p.s2.matrix
    h_inf = p.hyper_range_1
    ma = h_inf.basis.conj().T @ m2.conj().T @ h_inf.basis
    dim_a = kernel(ma).dim if h_inf.dim else 0
    k2 = kernel(m2.conj().T)
    dim_b = orthonormalize(h_inf.basis.conj().T @ k2.basis).dim \
        if k2.dim else 0
    card = len(unimodular_clusters(
        np.linalg.eigvals(p.unitary_part_1.unitary_block), 1e-6))
    rep = p.verdict_report
    return FinitenessReport(dim_a=dim_a, dim_b=dim_b, spectrum_card=card,
                            verdict=rep.verdict, r_iii=rep.r_iii)


def tensor_shift_pair(n1: int, n2: int) -> OperatorPair:
    """Product-shift pair on a truncated bidegree window."""
    if n1 < 2 or n2 < 2:
        raise DomainError("need bidegree at least (2, 2)")
    i = np.repeat(np.arange(n1 + 1), n2 + 1)
    j = np.tile(np.arange(n2 + 1), n1 + 1)
    degs = tuple(int(x) for x in np.maximum(i, j))
    space = TruncatedSpace(dim=(n1 + 1) * (n2 + 1), coordinate_degrees=degs,
                           label="bidegree")
    z1 = compress(shift(1, n1)).matrix
    z2 = compress(shift(1, n2)).matrix
    m1 = np.kron(z1, np.eye(n2 + 1))
    m2 = np.kron(np.eye(n1 + 1), z2)
    s1 = GradedOperator(matrix=m1, domain=space, codomain=space, growth=1,
                        window=min(n1, n2) - 1)
    s2 = GradedOperator(matrix=m2, domain=space, codomain=space, growth=1,
                        window=min(n1, n2) - 1)
    mask = (i <= n1 - 1) & (j <= n2 - 1)
    return validate_pair(s1, s2, "isometry", _coordinate_subspace(mask))


def _commuting_unitaries(rng: np.random.Generator, dim: int) -> tuple:
    """Two unitaries sharing one random eigenbasis, with random phases."""
    q = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    return tuple(q @ np.diag(np.exp(2j * np.pi * rng.random(dim))) @ q.conj().T
                 for _ in range(2))


def biunitary_pair(dim: int, seed: int) -> OperatorPair:
    """Random commuting unitary pair (common eigenbasis, random phases)."""
    m1, m2 = _commuting_unitaries(np.random.default_rng(seed), dim)
    sp = abstract_space(dim)
    s1 = GradedOperator(matrix=m1, domain=sp, codomain=sp)
    s2 = GradedOperator(matrix=m2, domain=sp, codomain=sp)
    return validate_pair(s1, s2, "isometry", full_subspace(dim))


def constant_shift_pair(alpha: float, degree: int) -> OperatorPair:
    """(constant unimodular scalar, shift) on one truncated window."""
    sp = hardy_space(1, degree)
    m1 = np.exp(1j * alpha) * np.eye(sp.dim, dtype=np.complex128)
    s1 = GradedOperator(matrix=m1, domain=sp, codomain=sp, growth=0,
                        window=degree)
    s2 = compress(shift(1, degree))
    mask = sp.degrees_array() <= degree - 1
    return validate_pair(s1, s2, "isometry", _coordinate_subspace(mask))


def three_part_pair(seed: int, degree: int = 56, uu_dim: int = 2,
                    zero_cap: float = 0.4) -> tuple:
    """Seeded three-part assembly scrambled by a random unitary.

    Direct sum of a commuting bi-unitary pair, a constant-unimodular and
    shift pair, and a shift and Blaschke-multiplier pair, conjugated by a
    random unitary so no coordinate structure survives. Returns the pair
    together with the ground truth used to build it. The multiplier
    summand's probe margin scales with the zero modulus so the truncated
    columns it vouches for are isometric to well below 1e-8.
    """
    from .symbols import blaschke

    rng = np.random.default_rng(seed)
    v1, v2 = _commuting_unitaries(rng, uu_dim)
    psi = np.exp(2j * np.pi * rng.random())
    n_zeros = int(rng.integers(1, 3))
    zeros = (zero_cap * np.sqrt(rng.random(n_zeros))
             * np.exp(2j * np.pi * rng.random(n_zeros)))
    front = np.exp(2j * np.pi * rng.random())
    phi = blaschke(zeros, front)
    sp_f = hardy_space(1, degree)
    sp_e = hardy_space(1, degree)
    space, (sl_u, sl_f, sl_e) = direct_sum(
        abstract_space(uu_dim), sp_f, sp_e)
    n = space.dim
    z = compress(shift(1, degree)).matrix
    m_phi = compress(multiplier(phi, degree)).matrix
    m1 = np.zeros((n, n), dtype=np.complex128)
    m2 = np.zeros((n, n), dtype=np.complex128)
    m1[sl_u, sl_u] = v1
    m2[sl_u, sl_u] = v2
    m1[sl_f, sl_f] = psi * np.eye(degree + 1)
    m2[sl_f, sl_f] = z
    m1[sl_e, sl_e] = z
    m2[sl_e, sl_e] = m_phi
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    e_margin = int(np.ceil(np.log(1e-10) / np.log(max(zero_cap, 0.1)))) + 1
    if degree <= e_margin:
        raise DomainError(
            f"degree {degree} leaves no probed multiplier columns; "
            f"need more than {e_margin}"
        )
    mask = np.zeros(n, dtype=bool)
    mask[sl_u] = True
    degs = space.degrees_array()
    mask[sl_f] = degs[sl_f] <= degree - 2
    mask[sl_e] = degs[sl_e] <= degree - e_margin
    probe = Subspace(q @ np.eye(n, dtype=np.complex128)[:, mask])
    sp = abstract_space(n)
    s1 = GradedOperator(matrix=q @ m1 @ q.conj().T, domain=sp, codomain=sp)
    s2 = GradedOperator(matrix=q @ m2 @ q.conj().T, domain=sp, codomain=sp)
    pair = validate_pair(s1, s2, "isometry", probe)
    truth = {"uu_dim": uu_dim, "psi": psi, "phi": phi, "zeros": zeros,
             "front": front, "v1": v1, "v2": v2, "q": q}
    return pair, truth


def four_block_pair(seed: int, uu_dim: int = 2, f_degree: int = 6,
                    g_degree: int = 6, bidegree: int = 5) -> tuple:
    """Direct sum exercising all four doubly commuting part types."""
    rng = np.random.default_rng(seed)
    v1, v2 = _commuting_unitaries(rng, uu_dim)
    alpha = float(2 * np.pi * rng.random())
    beta = float(2 * np.pi * rng.random())
    us = constant_shift_pair(alpha, f_degree)
    su = constant_shift_pair(beta, g_degree)
    ss = tensor_shift_pair(bidegree, bidegree)
    space, slices = direct_sum(abstract_space(uu_dim), us.space, su.space,
                               ss.space)
    n = space.dim
    m1 = np.zeros((n, n), dtype=np.complex128)
    m2 = np.zeros((n, n), dtype=np.complex128)
    sl_u, sl_f, sl_g, sl_t = slices
    m1[sl_u, sl_u] = v1
    m2[sl_u, sl_u] = v2
    m1[sl_f, sl_f] = us.s1.matrix
    m2[sl_f, sl_f] = us.s2.matrix
    m1[sl_g, sl_g] = su.s2.matrix
    m2[sl_g, sl_g] = su.s1.matrix
    m1[sl_t, sl_t] = ss.s1.matrix
    m2[sl_t, sl_t] = ss.s2.matrix
    mask = np.zeros(n, dtype=bool)
    mask[sl_u] = True
    mask[sl_f] = us.probe.basis.real.sum(axis=1) > 0.5
    mask[sl_g] = su.probe.basis.real.sum(axis=1) > 0.5
    mask[sl_t] = ss.probe.basis.real.sum(axis=1) > 0.5
    s1 = GradedOperator(matrix=m1, domain=space, codomain=space, growth=1,
                        window=min(f_degree, g_degree, bidegree) - 1)
    s2 = GradedOperator(matrix=m2, domain=space, codomain=space, growth=1,
                        window=min(f_degree, g_degree, bidegree) - 1)
    pair = validate_pair(s1, s2, "isometry", _coordinate_subspace(mask))
    expected = {"uu": uu_dim, "us": f_degree + 1, "su": g_degree + 1,
                "ss": (bidegree + 1) ** 2}
    return pair, expected
