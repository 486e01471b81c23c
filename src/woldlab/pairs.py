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
operators they truncate. Every fixture, the weighted-boundary pair
included, is an orthogonal sum of simple parts, each bringing its own
blocks and its own trusted coordinates. Fixtures that scramble their
coordinates by a random unitary hand the scrambled probe along, since
trust survives a change of basis even though coordinate degrees do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    abstract_space,
    compress,
    direct_sum,
    hardy_space,
    multiplier,
    shift,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    _basis_times,
    _block_kernels,
    _intersection_coefficients,
    _times_basis,
    complement,
    gram_defect,
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
from .symbols import SchurSymbol, blaschke, defect_weight
from .wold import (CanonicalDecomposition, _block_slices, as_graded,
                   hyper_range, hyper_range_split, unitary_part,
                   wandering_subspace)

__all__ = [
    "OperatorPair",
    "HyperRangeSplit",
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class HyperRangeSplit:
    """The space split by the hyper-range ``H`` of the first operator.

    ``h_inf`` and ``h_perp`` hold orthonormal bases ``Q`` of ``H`` and
    ``Q_perp`` of its complement, read off one deflation; ``s2q`` is
    ``S2 Q`` and ``a2`` the compression ``Q^H S2 Q``.

    ``blocks`` are the diagonal blocks of ``S1`` the pair's probe is read
    over (``_probe_blocks``), in order: a ``(rows, cols)`` pair of slices
    each, the block being ``S1[rows, rows]`` and ``Q[rows, cols]`` the part
    of ``Q`` it owns (``Q`` is zero elsewhere in those columns). With a
    coordinate probe they are the finest exact diagonal blocks that the
    deflation cut; the one block is ``(slice(0, n), slice(0, dim H))``.
    """

    h_inf: Subspace
    h_perp: Subspace
    s2q: np.ndarray
    a2: np.ndarray
    blocks: tuple


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Validated commuting pair with its trust region and residuals.

    The probe is the pair's one trust region: validation, the battery and
    the ladders read it, and nothing reads the ``growth`` or ``window`` of
    the two operators.

    ``commutator_residual``, ``defect_1`` and ``defect_2`` are the operator
    norms of ``(S1 S2 - S2 S1) P`` and of the Gram defects of ``S1 P`` and
    ``S2 P`` for the probe basis ``P``; each is computed on first read,
    from the products validation reads (``_probe_images``).

    ``s1_blocks`` are the row slices of the finest exact diagonal blocks of
    the first operator, found once per pair: validation reads them, and
    the split deflates over them.

    Every structure analysis reads one split of the space by the
    hyper-range ``H`` of the first operator, computed once per pair
    (``split_1``): the bases ``Q`` of ``H`` and ``Q_perp`` of ``H^perp``,
    ``S2 Q`` and ``A2 = Q^H S2 Q``, both formed block by block over the
    columns of ``Q`` each diagonal block owns. The unitary part of the
    first operator lies in ``H``, so it is found on the compression
    ``Q^H S1 Q`` and lifted by ``Q``.
    """

    s1: GradedOperator
    s2: GradedOperator
    space: TruncatedSpace
    probe: Subspace
    assembly: ExampleAssembly | None = None

    @cached_property
    def commutator_residual(self) -> float:
        return operator_norm(self._probe_images()[2])

    @cached_property
    def defect_1(self) -> float:
        return max(gram_defect(blk) for blk in self._probe_images()[0])

    @cached_property
    def defect_2(self) -> float:
        return gram_defect(self._probe_images()[1])

    @cached_property
    def s1_blocks(self) -> tuple:
        return _block_slices(self.s1.matrix)

    def _probe_images(self) -> tuple:
        """``S1 P`` per block, ``S2 P`` and ``(S1 S2 - S2 S1) P``.

        Over the probe's blocks (``_probe_blocks``) ``S1 P`` is block
        diagonal, ``S1[rows, rows] P[rows]`` each, so ``S1 (S2 P)`` is
        formed by block rows and ``S2 (S1 P)`` by blocks of columns. Not
        cached: validation reads them once, and a residual on first read.
        """
        m1, m2, probe = self.s1.matrix, self.s2.matrix, self.probe
        blocks = _probe_blocks(probe, self.s1_blocks,
                               slice(0, self.space.dim))
        s1p = [_times_basis(m1[rows, rows], probe, rows) for rows in blocks]
        s2p = _times_basis(m2, probe)
        commutator = (
            np.vstack([m1[rows, rows] @ s2p[rows] for rows in blocks])
            - np.hstack([m2[:, rows] @ blk for rows, blk in zip(blocks, s1p)]))
        return s1p, s2p, commutator

    @cached_property
    def split_1(self) -> HyperRangeSplit:
        """Split by the first operator's hyper-range, computed once."""
        h_inf, h_perp, blocks = hyper_range_split(self.s1.matrix,
                                                  _slices=self.s1_blocks)
        blocks = _probe_blocks(self.probe, blocks,
                               (slice(0, self.space.dim), slice(0, h_inf.dim)))
        q, m2 = h_inf.basis, self.s2.matrix
        # block k's columns of Q are zero outside its rows
        s2q = np.empty((m2.shape[0], q.shape[1]), dtype=np.complex128)
        a2 = np.empty((q.shape[1], q.shape[1]), dtype=np.complex128)
        for rows, cols in blocks:
            s2q[:, cols] = m2[:, rows] @ q[rows, cols]
        for rows, cols in blocks:
            a2[cols] = q[rows, cols].conj().T @ s2q[rows]
        return HyperRangeSplit(h_inf=h_inf, h_perp=h_perp, s2q=s2q, a2=a2,
                               blocks=blocks)

    @cached_property
    def unitary_part_1(self) -> CanonicalDecomposition:
        """Unitary/cnu decomposition of the first operator, computed once.

        It is ``unitary_part`` of the compression ``Q^H S1 Q`` lifted by
        ``Q``; the completely nonunitary part adds ``H^perp``. The reducing
        defect is measured against the full first operator.
        """
        m1 = self.s1.matrix
        q = self.split_1.h_inf.basis
        small = unitary_part(q.conj().T @ m1 @ q)
        unitary = Subspace(q @ small.unitary_part.basis)
        cnu = Subspace(np.hstack([q @ small.cnu_part.basis,
                                  self.split_1.h_perp.basis]))
        return CanonicalDecomposition(
            unitary_part=unitary,
            cnu_part=cnu,
            unitary_block=small.unitary_block,
            reducing_defect=reducing_residual(m1, unitary),
            unitarity_defect=small.unitarity_defect,
        )

    @cached_property
    def verdict_report(self) -> VerdictReport:
        """Verdict battery at its default seed, computed once."""
        return verdict_battery(self)


@dataclass(frozen=True, eq=False)
class _BatteryTail:
    """The arrays ``r_iv`` and ``r_v`` read, and the seed of the samples.

    Arrays only: a report that held its pair would close the cycle pair,
    cached report, pair, and keep both alive until a garbage collection.
    ``cross`` is ``B = Q^H S2 Q_perp`` and ``degs`` the coordinate degrees.
    """

    m1: np.ndarray
    m2: np.ndarray
    q: np.ndarray
    q_perp: np.ndarray
    cross: np.ndarray
    degs: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
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

    No verdict reads ``r_iv`` or ``r_v``, so both are computed on first
    read, from the arrays in ``tail``, and cached; the samples ``r_iv``
    reads are drawn then, from the battery's seed.
    """

    e_subspace: Subspace
    r_i: float
    r_ii: float
    r_iii: float
    levels: list
    verdict: bool
    vacuous: bool
    tail: _BatteryTail | None = field(repr=False)

    @cached_property
    def r_iv(self) -> list:
        t = self.tail
        m1h = t.m1.conj().T
        e = self.e_subspace.basis
        samples = [e[:, j].copy() for j in range(e.shape[1])]
        if e.shape[1] > 1:
            rng = np.random.default_rng(t.seed)
            for _ in range(2):
                coef = rng.normal(size=e.shape[1]) \
                    + 1j * rng.normal(size=e.shape[1])
                samples.append(e @ (coef / np.linalg.norm(coef)))
        # the caps are nested, so each sample's adjoint-power images are
        # built once at the top cap and every level reads a prefix
        krylov = []
        for x in samples:
            vecs = []
            v = t.m2 @ x
            for _ in range(self.levels[-1]):
                v = m1h @ v
                vecs.append(v)
            krylov.append(t.q.conj().T @ np.column_stack(vecs))
        r_iv: list = []
        for cap in self.levels:
            dims_at_level = []
            for stack in krylov:
                stack = stack[:, :cap]
                if stack.size and np.any(stack):
                    s = np.linalg.svd(stack, compute_uv=False)
                    dims_at_level.append(int(np.sum(s > 1e-8)))
                else:
                    dims_at_level.append(0)
            r_iv.append(dims_at_level)
        return r_iv

    @cached_property
    def r_v(self) -> list:
        t = self.tail
        n = t.q_perp.shape[0]
        r_v: list = []
        for cap in self.levels:
            cols = t.q_perp.conj().T[:, t.degs <= cap]
            if cols.shape[1] > cols.shape[0]:
                cols = np.linalg.qr(cols.conj().T, mode="r").conj().T
            s = np.linalg.svd(t.cross @ cols, compute_uv=False)
            # the masked n x n block P S2 (I - P) D has n singular values,
            # the ones the R factor leaves out being zero
            top5 = np.zeros(min(5, n))
            top5[:min(5, s.size)] = s[:5]
            r_v.append([float(x) for x in top5])
        return r_v


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _probe_blocks(probe: Subspace, blocks: tuple, whole) -> tuple:
    """A coordinate probe splits over S1's blocks; any other probe is one
    block, ``whole``, given in the form of ``blocks`` (rows or (rows, cols)).
    """
    return blocks if probe.mask is not None else (whole,)


def _default_probe(s1: GradedOperator, s2: GradedOperator) -> Subspace:
    degs = s1.domain.degrees_array()
    cut = s1.domain.degree - s1.growth - s2.growth
    return Subspace.coordinates(degs <= cut)


def validate_pair(s1, s2, probe: Subspace | None = None,
                  assembly: ExampleAssembly | None = None) -> OperatorPair:
    """Measure a candidate pair's defects and reject anything beyond 1e-8.

    The commutator and each operator's isometry defect are evaluated on the
    probe subspace (by default, coordinates far enough below the top degree
    that truncation cannot reach them). The first operator's exact
    diagonal blocks are found here, once per pair
    (``OperatorPair.s1_blocks``, which the split reuses), and the images
    ``S1 P`` per block, ``S2 P`` and ``(S1 S2 - S2 S1) P`` are formed
    (``OperatorPair._probe_images``): a probe built by
    ``Subspace.coordinates`` splits over the blocks and is applied by
    column selection, any other probe is one block. Each defect is decided
    by its Frobenius norm first, an upper bound of its operator norm, with
    the Gram bound of ``S1 P`` summed over its blocks: at or below 1e-8 it
    passes with no SVD. Otherwise the pair's exact residual (an operator
    norm, read off the same images) decides, and names the value when it
    raises; a non-finite entry never passes.

    Raises
    ------
    DimensionError
        If the two operators do not share a coordinate model, or the probe
        lives in another space; the message names both dimensions.
    DomainError
        If a measured defect exceeds 1e-8; the message carries the value.
    """
    a = as_graded(s1)
    b = as_graded(s2)
    if a.domain.dim != a.codomain.dim or b.domain.dim != b.codomain.dim:
        raise DimensionError("pair operators must be square compressions")
    if a.domain.dim != b.domain.dim or \
            a.domain.coordinate_degrees != b.domain.coordinate_degrees:
        raise DimensionError("pair operators must share one graded space")
    if probe is None:
        probe = _default_probe(a, b)
    if probe.ambient_dim != a.domain.dim:
        raise DimensionError(
            f"probe lives in dimension {probe.ambient_dim}, "
            f"the pair in dimension {a.domain.dim}"
        )
    if probe.dim == 0:
        raise ValidationError(
            f"empty probe: no coordinate of the {a.domain.dim}-dimensional "
            "space is trusted"
        )
    pair = OperatorPair(s1=a, s2=b, space=a.domain, probe=probe,
                        assembly=assembly)
    s1p, s2p, comm = pair._probe_images()
    gram_1 = np.sqrt(sum(np.linalg.norm(blk.conj().T @ blk
                                        - np.eye(blk.shape[1])) ** 2
                         for blk in s1p))
    gram_2 = np.linalg.norm(s2p.conj().T @ s2p - np.eye(probe.dim))
    commutator = np.linalg.norm(comm)
    for name, bound, exact in (("first", gram_1, "defect_1"),
                               ("second", gram_2, "defect_2")):
        # "not <=" so that a NaN bound or residual is refused
        if not bound <= 1e-8 and not getattr(pair, exact) <= 1e-8:
            raise DomainError(
                f"{name} operator is not isometric on the probe: "
                f"defect {getattr(pair, exact):.3e}"
            )
    if not commutator <= 1e-8 and not pair.commutator_residual <= 1e-8:
        raise DomainError("operators do not commute: residual "
                          f"{pair.commutator_residual:.3e}")
    return pair


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
    n_int = degree + multiplier(phi, 0).growth + 4
    # columns j > degree continue the embedding by the boundary unitary
    cols = np.empty((r, n_int + 1), dtype=np.complex128)
    cols[:, : degree + 1] = c
    for j in range(degree + 1, n_int + 1):
        cols[:, j] = v_hat @ cols[:, j - 1]
    # an inner symbol has no boundary: the summand is the zero space
    g_sp = hardy_space(r, _BOUNDARY_DEGREE) if r else abstract_space(0)
    h_sp = hardy_space(1, n_int)
    z_g = compress(shift(1, _BOUNDARY_DEGREE)).matrix
    assembly = ExampleAssembly(symbol=phi, degree=degree, gram=gram,
                               factor=c, v_hat=v_hat, b1=c[:, 0].copy(),
                               rank=r)
    return _block_pair(
        [(g_sp, np.kron(np.eye(_BOUNDARY_DEGREE + 1), v_hat),
          np.kron(z_g, np.eye(r)),
          g_sp.degrees_array() <= _BOUNDARY_DEGREE - 1),
         (h_sp, compress(shift(1, n_int)).matrix,
          compress(multiplier(phi, n_int)).matrix,
          h_sp.degrees_array() <= degree)],
        cross=cols, assembly=assembly)


def _level_caps(top: int, n_levels: int) -> list:
    caps = []
    for i in range(1, n_levels + 1):
        c = max(i, round(top * i / n_levels))
        if caps and c <= caps[-1]:
            c = caps[-1] + 1
        caps.append(c)
    return caps


def _probed_subspaces(m1h: np.ndarray, split: HyperRangeSplit,
                      probe: Subspace) -> tuple[Subspace, Subspace, list]:
    """``E = ker(S1^H P)`` on the probe, and ``H & probe``, block by block.

    Both only read ``S1`` and the probe, so over the blocks the split
    carries they are sums: ``E`` of the kernels of ``S1^H P`` restricted
    to a block, and ``H & probe`` of the intersections of ``Q[rows, cols]``
    with the probe's part in the block, lifted by rows. Every kernel rank
    is cut at the largest block's top singular value, ``kernel``'s rule
    for the whole matrix.

    The third value is the block-sparse ``W`` with ``H & probe = Q W``, one
    entry per block: the coefficients ``W_k`` with block ``k``'s columns
    ``Q[:, cols] W_k``, or None where the block is kept whole.
    """
    n = m1h.shape[0]
    q = split.h_inf.basis
    kernels = _block_kernels([_times_basis(m1h[rows, rows], probe, rows)
                              for rows, _ in split.blocks], DEFAULT_TOL)
    e_cols, h_cols, coefs = [], [], []
    for (rows, cols), kern in zip(split.blocks, kernels):
        e = np.zeros((n, kern.shape[1]), dtype=np.complex128)
        e[rows] = _basis_times(probe, rows, kern)
        e_cols.append(e)
        coef = _intersection_coefficients(q[rows, cols], probe, DEFAULT_TOL,
                                          rows)
        part = q[rows, cols] if coef is None else q[rows, cols] @ coef
        h = np.zeros((n, part.shape[1]), dtype=np.complex128)
        h[rows] = part
        h_cols.append(h)
        coefs.append(coef)
    return Subspace(np.hstack(e_cols)), Subspace(np.hstack(h_cols)), coefs


def _probed_image_defects(m1h: np.ndarray, m2: np.ndarray,
                          split: HyperRangeSplit, x: Subspace,
                          coefs: list) -> tuple[float, float]:
    """The battery's ``iso`` and ``dc`` on ``X = H & probe = Q W``, block
    by block; ``coefs`` is the ``W`` of ``_probed_subspaces``.

    ``S2 X = (S2 Q) W`` and ``Q^H S2 X = A2 W`` are read off the split, a
    column selection for a block kept whole. ``S1^H`` is block diagonal,
    so ``S1^H (S2 X)`` is formed by block rows, and ``S1^H X``, whose
    block ``k`` columns live in block ``k``'s rows, by blocks, as is
    ``S2 (S1^H X)``, one block of columns ``S2[:, rows] (S1^H X)_k`` each.
    """
    images, compressed, swapped = [], [], []
    at = 0
    for (rows, cols), coef in zip(split.blocks, coefs):
        image, comp = split.s2q[:, cols], split.a2[:, cols]
        if coef is not None:
            image, comp = image @ coef, comp @ coef
        part = x.basis[rows, at:at + image.shape[1]]
        at += image.shape[1]
        images.append(image)
        compressed.append(comp)
        swapped.append(m2[:, rows] @ (m1h[rows, rows] @ part))
    image = np.hstack(images)
    adjoint = np.vstack([m1h[rows, rows] @ image[rows]
                         for rows, _ in split.blocks])
    return (gram_defect(np.hstack(compressed)),
            operator_norm(adjoint - np.hstack(swapped)))


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

    The two subspaces the verdict rests on, ``E = ker(S1^H P)`` on the
    probe and ``H & probe``, only read ``S1`` and the probe, and are found
    one block at a time, over the blocks the pair's split carries: a
    probe built by ``Subspace.coordinates`` splits over the diagonal
    blocks of ``S1``, and any other probe, identity columns included, is
    one block. Every block's kernel rank is cut at the largest block's top
    singular value, the rule ``kernel`` applies to the whole matrix.

    Every residual is computed at working size, in the split basis
    ``[Q, Q_perp]`` of the hyper-range and its complement, never on an
    n x n projector: a projected image ``P x`` enters through ``Q^H x``,
    which has the same norms and singular values, and the off-diagonal
    blocks of ``S2`` are ``Q_perp^H S2 Q`` (``red_out``) and
    ``B = Q^H S2 Q_perp`` (``red_in``). ``r_v`` reads ``B`` times the
    masked columns of ``Q_perp^H``, reduced by their R factor to at most
    ``n - dim H`` columns, which keeps the singular values.

    ``iso`` and ``dc`` read ``X = H & probe`` as ``Q W``, with the
    block-sparse ``W`` the intersections give: ``S2 X`` and ``Q^H S2 X``
    are ``(S2 Q) W`` and ``A2 W`` off the split (a column selection for a
    block kept whole), and ``S1^H (S2 X)``, ``S1^H X`` and ``S2 (S1^H X)``
    are formed block by block; for one block these are the dense products.

    Nothing the verdict reads needs ``r_iv``, ``r_v`` or their Krylov
    stacks, so the report computes them on first read, from arrays it
    holds (never the pair), with the same samples and the same values.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    m1h = m1.conj().T
    split = p.split_1
    q, q_perp = split.h_inf.basis, split.h_perp.basis
    e_sub, h_probe, coefs = _probed_subspaces(m1h, split, p.probe)
    cross = q.conj().T @ (m2 @ q_perp)
    red_out = operator_norm(q_perp.conj().T @ split.s2q)
    red_in = operator_norm(cross)
    iso, dc = _probed_image_defects(m1h, m2, split, h_probe, coefs)
    r_i = red_out + red_in + iso
    r_ii = red_out + red_in + dc
    vacuous = e_sub.dim == 0
    r_iii = 0.0 if vacuous else operator_norm(q.conj().T @ (m2 @ e_sub.basis))
    degs = p.space.degrees_array()
    top = max(int(np.max(degs)), _N_LEVELS)
    verdict = bool(vacuous or r_iii <= 1e-8)
    return VerdictReport(
        e_subspace=e_sub, r_i=float(r_i), r_ii=float(r_ii),
        r_iii=float(r_iii), levels=_level_caps(top, _N_LEVELS),
        verdict=verdict, vacuous=vacuous,
        tail=_BatteryTail(m1=m1, m2=m2, q=q, q_perp=q_perp, cross=cross,
                          degs=degs, seed=seed),
    )


def _trusted_ladder(step: np.ndarray, start: Subspace, probe: Subspace,
                    cap: int) -> np.ndarray:
    """Apply ``step`` repeatedly, stopping before leaving the probe.

    Returns the rungs as one stack of shape ``(k, n, w)``; an empty start
    gives an empty stack. All ``cap`` applications are stacked first, and
    the ladder is cut before the first rung whose leak ``||x - P x||``
    exceeds ``1e-8 ||x||``, both norms taken over the stack at once.
    """
    if start.dim == 0:
        return np.zeros((0, start.ambient_dim, 0), dtype=np.complex128)
    rungs = np.empty((cap + 1, *start.basis.shape), dtype=np.complex128)
    rungs[0] = start.basis
    for k in range(cap):
        rungs[k + 1] = step @ rungs[k]
    q = probe.basis
    leak = np.linalg.norm(rungs - q @ (q.conj().T @ rungs), 2, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(rungs, 2, axis=(-2, -1)), 1e-30)
    escaped = np.flatnonzero(leak[1:] / scale[1:] > 1e-8)
    return rungs[:escaped[0] + 1] if escaped.size else rungs


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
    split = p.split_1
    q, a = split.h_inf.basis, split.a2
    h_uu = Subspace(q @ hyper_range(a).basis)
    f_wander = Subspace(q @ wandering_subspace(a).basis)
    v1 = h_uu.basis.conj().T @ m1 @ h_uu.basis
    v2 = h_uu.basis.conj().T @ m2 @ h_uu.basis
    psi = f_wander.basis.conj().T @ m1 @ f_wander.basis
    f_lad = _trusted_ladder(m2, f_wander, p.probe, n)
    q_o = split.h_perp.basis
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

    Double commutation makes the hyper-range ``H`` of the first operator
    reduce the second, so the parts are read off the second operator's
    restrictions to ``H`` and ``H^perp`` at working size: for a basis ``Q``
    of a half, the hyper-range of ``Q^H S2 Q`` lifted by ``Q`` is where the
    second operator is unitary, and its complement in the half, read off
    the same deflation (``hyper_range_split``), where it is a shift. This
    yields the parts on which (first, second) act as (unitary, unitary),
    (unitary, shift), (shift, unitary), and (shift, shift); an empty half
    yields two empty parts. Each part is labeled by
    measured unitarity defects, its shift coordinates get wandering fiber
    dimensions, and mixed parts report the constant compression of their
    unitary coordinate on the other coordinate's wandering subspace. The
    reduction residual is measured against the full operators, so a half
    that fails to reduce the second one off the probe still shows.

    Raises
    ------
    PreconditionError
        If the adjoint commutator on the probe exceeds 1e-8.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    dc = operator_norm(
        _times_basis(m1.conj().T @ m2 - m2 @ m1.conj().T, p.probe))
    if dc > 1e-8:
        raise PreconditionError(
            f"pair is not doubly commuting on the probe: residual {dc:.3e}"
        )
    split = p.split_1
    q_o = split.h_perp.basis
    parts: dict = {}
    for (unitary_key, shift_key), q, a in (
            (("uu", "us"), split.h_inf.basis, split.a2),
            (("su", "ss"), q_o, q_o.conj().T @ m2 @ q_o)):
        h2, rest, _ = hyper_range_split(a)
        parts[unitary_key] = Subspace(q @ h2.basis)
        parts[shift_key] = Subspace(q @ rest.basis)
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
    split = p.split_1
    # Q^H S2^H Q is the adjoint of the cached compression A2
    dim_a = kernel(split.a2.conj().T).dim
    q, k2 = split.h_inf.basis, kernel(m2.conj().T).basis
    # cosines of H and ker S2^H, cut absolutely: rounding noise counts none
    dim_b = int(np.sum(np.linalg.svd(q.conj().T @ k2, compute_uv=False)
                       > DEFAULT_TOL))
    card = len(unimodular_clusters(
        np.linalg.eigvals(p.unitary_part_1.unitary_block), 1e-6))
    rep = p.verdict_report
    return FinitenessReport(dim_a=dim_a, dim_b=dim_b, spectrum_card=card,
                            verdict=rep.verdict, r_iii=rep.r_iii)


def _block_pair(parts, cross: np.ndarray | None = None,
                scramble: np.ndarray | None = None,
                assembly: ExampleAssembly | None = None) -> OperatorPair:
    """Validated pair of block matrices, one diagonal block per part.

    Each part is ``(space, a1, a2, trusted)``: a summand of ``direct_sum``,
    the blocks of the two operators on it, and the mask of its coordinates
    the probe trusts. ``cross``, if given, is the second operator's block
    from the last summand into the leading coordinates of the first. A
    unitary ``scramble`` conjugates both operators and the probe, leaving
    an ungraded space.
    """
    space, slices = direct_sum(*(part[0] for part in parts))
    n = space.dim
    m1 = np.zeros((n, n), dtype=np.complex128)
    m2 = np.zeros((n, n), dtype=np.complex128)
    mask = np.zeros(n, dtype=bool)
    for sl, (_, a1, a2, trusted) in zip(slices, parts):
        m1[sl, sl], m2[sl, sl], mask[sl] = a1, a2, trusted
    if cross is not None:
        m2[:cross.shape[0], slices[-1]] = cross
    probe = Subspace.coordinates(mask)
    if scramble is not None:
        space = abstract_space(n)
        m1, m2 = (scramble @ m @ scramble.conj().T for m in (m1, m2))
        probe = Subspace(scramble @ probe.basis)
    return validate_pair(
        GradedOperator(matrix=m1, domain=space, codomain=space),
        GradedOperator(matrix=m2, domain=space, codomain=space),
        probe, assembly)


def _tensor_shift_part(n1: int, n2: int) -> tuple:
    if n1 < 2 or n2 < 2:
        raise DomainError("need bidegree at least (2, 2)")
    i = np.repeat(np.arange(n1 + 1), n2 + 1)
    j = np.tile(np.arange(n2 + 1), n1 + 1)
    degs = tuple(int(x) for x in np.maximum(i, j))
    space = TruncatedSpace(dim=(n1 + 1) * (n2 + 1), coordinate_degrees=degs)
    z1 = compress(shift(1, n1)).matrix
    z2 = compress(shift(1, n2)).matrix
    return (space, np.kron(z1, np.eye(n2 + 1)), np.kron(np.eye(n1 + 1), z2),
            (i <= n1 - 1) & (j <= n2 - 1))


def _constant_shift_part(alpha: float, degree: int) -> tuple:
    sp = hardy_space(1, degree)
    if degree < 1:
        # in a sum the other summands would hide the empty probe
        raise ValidationError(
            "empty probe: the shift needs degree at least 1")
    return (sp, np.exp(1j * alpha) * np.eye(sp.dim, dtype=np.complex128),
            compress(shift(1, degree)).matrix,
            sp.degrees_array() <= degree - 1)


def tensor_shift_pair(n1: int, n2: int) -> OperatorPair:
    """Product-shift pair on a truncated bidegree window."""
    return _block_pair([_tensor_shift_part(n1, n2)])


def _commuting_unitaries(rng: np.random.Generator, dim: int) -> tuple:
    """Two unitaries sharing one random eigenbasis, with random phases."""
    q = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    return tuple(q @ np.diag(np.exp(2j * np.pi * rng.random(dim))) @ q.conj().T
                 for _ in range(2))


def _biunitary_part(rng: np.random.Generator, dim: int) -> tuple:
    v1, v2 = _commuting_unitaries(rng, dim)
    return abstract_space(dim), v1, v2, np.ones(dim, dtype=bool)


def biunitary_pair(dim: int, seed: int) -> OperatorPair:
    """Random commuting unitary pair (common eigenbasis, random phases)."""
    return _block_pair([_biunitary_part(np.random.default_rng(seed), dim)])


def constant_shift_pair(alpha: float, degree: int) -> OperatorPair:
    """(constant unimodular scalar, shift) on one truncated window."""
    return _block_pair([_constant_shift_part(alpha, degree)])


def three_part_pair(seed: int, degree: int = 56, uu_dim: int = 2,
                    zero_cap: float = 0.4) -> tuple:
    """Seeded three-part assembly scrambled by a random unitary.

    Direct sum of a commuting bi-unitary pair, a constant-unimodular and
    shift pair, and a shift and Blaschke-multiplier pair, conjugated by a
    random unitary so no coordinate structure survives. Returns the pair
    together with the ground truth used to build it. The multiplier
    summand's probe margin scales with the zero modulus so the truncated
    columns it vouches for are isometric to well below 1e-8.

    Raises
    ------
    DomainError
        If ``zero_cap`` lies outside ``[0, 1)`` or the degree leaves no
        probed multiplier columns, before any random draw.
    """
    if not 0.0 <= zero_cap < 1.0:
        raise DomainError(f"zero_cap must lie in [0, 1), got {zero_cap}")
    e_margin = int(np.ceil(np.log(1e-10) / np.log(max(zero_cap, 0.1)))) + 1
    if degree <= e_margin:
        raise DomainError(
            f"degree {degree} leaves no probed multiplier columns; "
            f"need more than {e_margin}"
        )
    rng = np.random.default_rng(seed)
    uu = _biunitary_part(rng, uu_dim)
    psi = np.exp(2j * np.pi * rng.random())
    n_zeros = int(rng.integers(1, 3))
    zeros = (zero_cap * np.sqrt(rng.random(n_zeros))
             * np.exp(2j * np.pi * rng.random(n_zeros)))
    front = np.exp(2j * np.pi * rng.random())
    phi = blaschke(zeros, front)
    sp = hardy_space(1, degree)
    degs = sp.degrees_array()
    z = compress(shift(1, degree)).matrix
    parts = [uu, (sp, psi * np.eye(degree + 1), z, degs <= degree - 2),
             (sp, z, compress(multiplier(phi, degree)).matrix,
              degs <= degree - e_margin)]
    n = uu_dim + 2 * (degree + 1)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    pair = _block_pair(parts, scramble=q)
    truth = {"uu_dim": uu_dim, "psi": psi, "phi": phi, "zeros": zeros,
             "front": front, "v1": uu[1], "v2": uu[2], "q": q}
    return pair, truth


def four_block_pair(seed: int, uu_dim: int = 2, f_degree: int = 6,
                    g_degree: int = 6, bidegree: int = 5) -> tuple:
    """Direct sum exercising all four doubly commuting part types."""
    rng = np.random.default_rng(seed)
    uu = _biunitary_part(rng, uu_dim)
    alpha = float(2 * np.pi * rng.random())
    beta = float(2 * np.pi * rng.random())
    us = _constant_shift_part(alpha, f_degree)
    sp, a1, a2, trusted = _constant_shift_part(beta, g_degree)
    pair = _block_pair([uu, us, (sp, a2, a1, trusted),
                        _tensor_shift_part(bidegree, bidegree)])
    expected = {"uu": uu_dim, "us": f_degree + 1, "su": g_degree + 1,
                "ss": (bidegree + 1) ** 2}
    return pair, expected
