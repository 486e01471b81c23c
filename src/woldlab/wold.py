"""Canonical and Wold-type decompositions of contractions and isometries.

A contraction splits orthogonally into a unitary part and a completely
nonunitary part; an isometry splits further into a unitary part plus copies
of a shift stacked over its wandering subspace. Both splits are computed
here on finite coordinate models, and every structural claim is returned
with a residual instead of being assumed: ladder orthogonality,
decomposition completeness, and reducing defects are all measured.

The finite model cannot hold an honest infinite intersection, so the
hyper-range of a plain matrix means exactly what the matrix says (an
invertible matrix has full hyper-range).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .hardy import GradedOperator, abstract_space
from .linalg import (
    Subspace,
    _compression,
    _gram_residual,
    _lifted,
    _norm_at_most,
    as_matrix,
    complement,
    gram_defect,
    intersect,
    kernel,
    mutual_orthogonality,
    operator_norm,
    orthonormalize,
    reducing_residual,
    subspace_distance,
    unitarity_defect,
)

__all__ = [
    "CanonicalDecomposition",
    "WoldDecomposition",
    "unitary_part",
    "hyper_range",
    "hyper_range_split",
    "wold_split",
    "wandering_subspace",
    "cnu_eigenvector_span_residual",
    "as_graded",
]


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Split of a contraction into unitary and completely nonunitary parts.

    ``unitary_part`` and ``cnu_part`` are complementary subspaces;
    ``unitary_block`` is the compression of the contraction to the unitary
    part in its basis. ``reducing_defect`` holds the two off-diagonal block
    norms and ``unitarity_defect`` the deviation of the block from a
    unitary, so the caller can audit the split instead of trusting it.
    """

    unitary_part: Subspace
    cnu_part: Subspace
    unitary_block: np.ndarray
    reducing_defect: tuple[float, float]
    unitarity_defect: float


@dataclass(frozen=True, eq=False)
class WoldDecomposition:
    """Wandering-subspace ladder of an isometric window.

    ``ladder[n]`` spans the image of the wandering subspace under n
    applications; ``hyper_range`` is what remains of the window after the
    ladder is removed. ``ladder_orthogonality`` is the largest inner
    product between distinct rungs, and ``completeness_residual`` the worst
    reconstruction error of a window coordinate from the rungs plus the
    hyper-range.
    """

    hyper_range: Subspace
    wandering: Subspace
    ladder: list
    completeness_residual: float
    ladder_orthogonality: float


def _square(t, caller: str, name: str = "operator") -> np.ndarray:
    """``as_matrix(t, name)``, refused unless square; a ``GradedOperator``
    is refused, not read without its window, by a message naming ``caller``.
    """
    if isinstance(t, GradedOperator):
        raise DomainError(
            f"{caller} takes a square array, not a GradedOperator; "
            "pass its .matrix")
    m = as_matrix(t, name)
    if m.shape[0] != m.shape[1]:
        raise DomainError(f"square matrix required, got shape {m.shape}")
    return m


def as_graded(t) -> GradedOperator:
    """Wrap a square matrix as an ungraded operator exact everywhere."""
    if isinstance(t, GradedOperator):
        return t
    m = _square(t, "as_graded")
    sp = abstract_space(m.shape[0])
    return GradedOperator(matrix=m, domain=sp, codomain=sp, growth=0, window=0)


def unitary_part(t, tol: float = 1e-10) -> CanonicalDecomposition:
    """Largest subspace on which a contraction acts unitarily.

    The completely nonunitary part is the smallest subspace that contains
    the defect ranges ``ran(I - T^H T) + ran(I - T T^H)`` and is invariant
    under both ``T`` and ``T^H`` (Sz.-Nagy--Foias); it is grown as one
    orthonormal basis, and the unitary part is its complement.

    The first block is the complement of the joint kernel of the two
    defects, ``kernel(I - T^H T) & kernel(I - T T^H)``. When both defects
    have operator norm at most ``tol`` (``_norm_at_most``, decided by their
    Frobenius norms first), each kernel is the whole space under
    ``kernel``'s ``tol * max(1, s_max)`` cut, so the first block is empty
    and the unitary part is the whole space: the kernels, their
    intersection and its complement are not computed, and the result is
    the one they give. An exactly unitary ``T``, such as the compression
    of an isometry to its hyper-range (von Neumann--Wold), takes this
    path. Otherwise each round stacks
    ``[T F, T^H F]`` for the newest block ``F`` and makes two cuts:

    1. the stack keeps its singular directions above ``tol * ||T||``; the
       cut is anchored at the operator's norm, not at the stack's own
       largest singular value, so a stack of rounding noise (``T F`` and
       ``T^H F`` both zero in exact arithmetic) adds no direction;
    2. the current basis is projected out twice, and a direction joins the
       basis as part of the next block only if its residual singular value
       exceeds ``sqrt(2 * tol)``, the sine at which ``intersect`` stops
       keeping a cosine of ``1 - tol``.

    The rounds stop when a round adds no direction or the basis fills the
    space.

    The unitary part lies in the hyper-range ``H``, since ``T U = U`` puts
    it in every range, and an invariant subspace on which ``T`` is
    isometric and onto reduces it (``||Tu|| = ||u||`` gives
    ``T^H T u = u``). So for an orthonormal basis ``Q`` of ``H``,
    ``unitary_part(T) = Q . unitary_part(Q^H T Q)``, with the same unitary
    block, and the completely nonunitary part is ``Q`` times the small
    one plus ``H^perp``. The pair analyses compute it that way, at the
    size of ``H``.

    Parameters
    ----------
    t : array_like
        Square contraction (operator norm at most 1 + 1e-10).
    tol : float
        Rank and stabilization tolerance.

    Raises
    ------
    DomainError
        If the input is not a square array or not a contraction; the
        message names the offending norm.

    Warns
    -----
    RuntimeWarning
        If a residual singular value lies within a factor of 10 of the
        ``sqrt(2 * tol)`` cut; the message names the round, the value and
        the cut.
    """
    m = _square(t, "unitary_part", "contraction")
    norm = operator_norm(m)
    if norm > 1.0 + 1e-10:
        raise DomainError(f"not a contraction: operator norm {norm:.12g}")
    n = m.shape[0]
    # T^H T - I and T T^H - I: neither the kernels nor the norms read the sign
    defects = (_gram_residual(m), _gram_residual(m.conj().T))
    if all(_norm_at_most(d, tol) for d in defects):
        # both kernels, and so the start, are the whole space
        block = np.zeros((n, 0), dtype=np.complex128)
    else:
        start = intersect(kernel(defects[0], tol), kernel(defects[1], tol),
                          tol)
        block = complement(start).basis
    basis = block
    cut = np.sqrt(2.0 * tol)
    rounds = 0
    while block.shape[1] and basis.shape[1] < n:
        rounds += 1
        u, s, _ = np.linalg.svd(np.hstack([m @ block, m.conj().T @ block]),
                                full_matrices=False)
        grown = u[:, s > tol * norm]
        for _ in range(2):
            grown = grown - basis @ (basis.conj().T @ grown)
        u, s, _ = np.linalg.svd(grown, full_matrices=False)
        thin = s[(s > cut / 10.0) & (s < 10.0 * cut)]
        if thin.size:
            warnings.warn(
                f"unitary_part: round {rounds} has residual singular value "
                f"{thin[0]:.3e} within 10x of the cut {cut:.3e}",
                RuntimeWarning, stacklevel=2)
        block = u[:, s > cut]
        basis = np.hstack([basis, block])
    cnu = Subspace(basis)
    unitary = complement(cnu)
    unitary_block = _compression(m, unitary)
    return CanonicalDecomposition(
        unitary_part=unitary,
        cnu_part=cnu,
        unitary_block=unitary_block,
        reducing_defect=reducing_residual(m, unitary),
        unitarity_defect=unitarity_defect(unitary_block),
    )


def hyper_range(t, tol: float = 1e-10) -> Subspace:
    """Common range of all powers.

    For a square matrix this is the limit of the nested ranges of T^n,
    taken at face value, so invertible inputs return the full space.

    A matrix that is exactly block diagonal in its own coordinate order is
    first cut into its finest diagonal blocks: a block ends at ``k`` when
    no nonzero of ``|T| + |T^T|`` links a coordinate ``<= k`` to one past
    ``k``. The hyper-range is the sum of the blocks' hyper-ranges, so each
    block is deflated at its own size and its bases are lifted by rows.
    The anchor stays global: ``||T||`` in every cut and guard below is the
    largest block norm, the norm of the whole matrix, so a block far below
    it (the ``1e-11`` of ``diag(1, 1e-11)``) is cut as it would be inside
    the whole matrix. A matrix of one block is deflated whole. Blocks
    with equal bytes are normed and deflated once.

    A block that is exactly strictly lower or strictly upper triangular
    (a truncated shift, or its adjoint) is nilpotent, so its hyper-range
    is ``{0}``: it takes no power, SVD or ladder. Its norm still counts
    in the anchor of the other blocks; a matrix that is one such block
    takes no norm at all.

    Every other block is deflated as follows, running the nested iteration
    only where the ranges still shrink:

    1. Guess ``H = range(T^N)`` with ``N = 2^ceil(log2(n + 1))``, which
       exceeds every nilpotency index, by repeated squaring of ``T/||T||``
       rescaled after each squaring, and cut its rank at ``tol``.
    2. Accept the guess only if three guards hold. The guards: no
       singular value of the scaled ``T^N`` lies within a factor of 10 of
       the cut; ``T`` restricted to ``H`` is well conditioned (its
       smallest singular value exceeds ``10 * tol * ||T||``); and the
       invariance leak ``||(I - P_H) T P_H||`` is at most
       ``tol * ||T||``. An empty guess or a failed guard is the case
       ``H = {0}`` of step 3, whose compression ``C`` is ``T`` itself.
    3. Then ``T`` is block upper triangular over ``H (+) H^perp`` with an
       invertible ``T|H``, so the hyper-range is ``H`` plus the
       hyper-range of the compression ``C`` of ``T`` to ``H^perp``. That
       is ``{0}`` when the nilpotency certificate below passes on ``C``;
       otherwise it is found by the nested iteration on ``C``, whose
       steps keep the singular directions of ``C Q`` above the cut and
       exit once two consecutive ranges agree to within ``tol`` in
       subspace distance.

    Every rank cut, in the certificate and in the nested iteration, sits
    at ``tol * ||T||``, not at the largest singular value of the matrix
    being cut: relative to a nilpotent matrix's own scale, its
    rounding-level last powers would survive the cut.

    The nilpotency certificate is the forward Kublanovskaya--Van Dooren
    staircase: a ladder grown from ``ker(C^H)`` by applying ``C`` must span
    the space, and ``C`` in the ladder basis must be strictly block lower
    triangular to within the cut. Then ``C`` lies within the cut of a
    nilpotent matrix, whose hyper-range is ``{0}``. The certificate is
    sound but not complete: a non-normal nilpotent matrix can fail it and
    reach the nested iteration.

    Raises
    ------
    DomainError
        If the input is not a square array. A ``GradedOperator`` is
        refused rather than read without its window; pass its ``.matrix``.
    """
    m = _square(t, "hyper_range")
    slices = _block_slices(m)
    return Subspace(_lifted(slices, [h for h, _ in
                                     _deflated_blocks(m, tol, slices)]))


def hyper_range_split(t, tol: float = 1e-10, *,
                      _slices: tuple | None = None) -> tuple[Subspace,
                                                             Subspace]:
    """Hyper-range of a square matrix and its orthogonal complement,
    from the one deflation ``hyper_range`` runs over the finest exact
    diagonal blocks of ``T``.

    When every block is kept whole or dropped whole, as the von
    Neumann--Wold split keeps a unitary block and drops a shift, both
    halves are ``Subspace.coordinates`` of the kept and the dropped blocks,
    and no dense basis is assembled. Otherwise the hyper-range's basis is
    ``hyper_range``'s, bitwise, and per block the complement is spanned by
    the trailing left singular vectors of its SVD of ``T^N`` (all of the
    block when it is strictly triangular or the guess is rejected), lifted
    by the complement of the nested remainder when the nested iteration
    runs. So the split costs one hyper-range, where
    ``complement(hyper_range(t))`` adds a full n x n SVD. Bitwise equal
    blocks are deflated once, at the one global anchor.

    ``_slices`` is for a caller that already holds ``_block_slices(t)``
    (a validated pair finds its first operator's blocks once); the matrix
    is not cut again. Input is refused as ``hyper_range`` refuses it.
    """
    m = _square(t, "hyper_range_split")
    slices = _block_slices(m) if _slices is None else _slices
    splits = _deflated_blocks(m, tol, slices)
    if all(h.shape[1] in (0, h.shape[0]) for h, _ in splits):
        mask = np.concatenate([np.full(h.shape[0], h.shape[1] > 0)
                               for h, _ in splits])
        return Subspace.coordinates(mask), Subspace.coordinates(~mask)
    return (Subspace(_lifted(slices, [h for h, _ in splits])),
            Subspace(_lifted(slices, [perp for _, perp in splits])))


def _nested_range(m: np.ndarray, cap: int, tol: float,
                  scale: float) -> Subspace:
    """Nested ranges of ``m^k``, k = 1..cap, until two consecutive agree.

    Each step keeps the singular directions of ``m Q`` above ``tol`` times
    the larger of its own top singular value and ``scale``.
    """

    def span(a: np.ndarray) -> Subspace:
        sub = orthonormalize(a, tol)
        # the gain of each kept direction is its singular value
        gains = np.linalg.norm(a.conj().T @ sub.basis, axis=0)
        return Subspace(sub.basis[:, gains > tol * scale])

    cur = span(m)
    for _ in range(cap - 1):
        nxt = span(m @ cur.basis)
        if nxt.dim == cur.dim and subspace_distance(nxt, cur) <= tol:
            return nxt
        cur = nxt
    return cur


def _certified_nilpotent(c: np.ndarray, tol: float, scale: float) -> bool:
    """Whether a ladder certifies ``c`` within ``tol * scale`` of nilpotent.

    The forward Kublanovskaya--Van Dooren staircase, without eigenvalues:
    the first block is ``ker(c^H)``, the left singular directions of ``c``
    at or below the cut ``tol * scale``; each next block is ``c B_j`` for
    the newest block ``B_j``, with the basis so far projected out twice and
    cut at the same level. A one-column block is cut by its vector norm,
    its one singular value, and normalized, with no SVD. The basis is
    filled in place, one block of columns after another. The certificate
    holds only if the ladder basis ``Q`` spans the space and ``Q^H c Q`` is
    strictly block lower triangular to within the cut, decided for its
    masked upper part by ``_norm_at_most``: then ``c`` lies within the cut
    of a nilpotent matrix. It is sound but not complete; a non-normal
    nilpotent ``c`` can fail it.
    """
    n = c.shape[0]
    cut = tol * scale
    u, s, _ = np.linalg.svd(c)
    block = u[:, s <= cut]
    basis = np.empty((n, n), dtype=np.complex128, order="F")
    filled = block.shape[1]
    basis[:, :filled] = block
    widths = [filled]
    while block.shape[1] and filled < n:
        done = basis[:, :filled]
        grown = c @ block
        for _ in range(2):
            grown = grown - done @ (done.conj().T @ grown)
        if grown.shape[1] == 1:
            norm = np.linalg.norm(grown)
            block = grown / norm if norm > cut else grown[:, :0]
        else:
            u, s, _ = np.linalg.svd(grown, full_matrices=False)
            block = u[:, s > cut]
        if filled + block.shape[1] > n:
            return False
        basis[:, filled:filled + block.shape[1]] = block
        filled += block.shape[1]
        widths.append(block.shape[1])
    if filled != n:
        return False
    labels = np.repeat(np.arange(len(widths)), widths)
    upper = labels[:, None] <= labels[None, :]
    return _norm_at_most(np.where(upper, basis.conj().T @ c @ basis, 0.0),
                         cut)


def _diagonal_blocks(m: np.ndarray) -> np.ndarray:
    """End index of each block of the finest exact block-diagonal split.

    The split keeps the matrix's own coordinate order: a block ends at
    ``k`` when no nonzero of ``|T| + |T^T|`` links a row ``<= k`` to a
    column ``> k``, read off the running maximum of each row's farthest
    linked column.
    """
    idx = np.arange(m.shape[0])
    linked = (m != 0) | (m.T != 0)
    farthest = np.where(linked, idx, idx[:, None]).max(axis=1, initial=0)
    return np.flatnonzero(np.maximum.accumulate(farthest) == idx)


def _block_slices(m: np.ndarray) -> tuple:
    """Row slices of the finest exact diagonal blocks of ``m``, in order.

    A matrix with no such split (the empty matrix included) is one block,
    ``(slice(0, n),)``.
    """
    ends = _diagonal_blocks(m)
    if ends.size <= 1:
        return (slice(0, m.shape[0]),)
    return tuple(slice(int(a), int(b) + 1)
                 for a, b in zip(np.r_[0, ends[:-1] + 1], ends))


def _deflated_blocks(m: np.ndarray, tol: float, slices: tuple) -> list:
    """Deflation of each diagonal block of ``m``: per slice of ``slices``
    (``_block_slices(m)``), the block's hyper-range and a basis of its
    complement, both at the block's size.

    A matrix of one block is deflated at its own norm. Otherwise every cut
    is anchored at the largest block norm, and blocks with equal bytes are
    equal matrices, so each distinct block is normed and deflated once.
    """
    if len(slices) == 1:
        return [_deflated_block(m, tol, None)]
    keys = [m[sl, sl].tobytes() for sl in slices]
    # the first block of each kind, in order of first appearance
    distinct = {}
    for key, sl in zip(keys, slices):
        distinct.setdefault(key, m[sl, sl])
    norm = max(operator_norm(block) for block in distinct.values())
    deflated = {key: _deflated_block(block, tol, norm)
                for key, block in distinct.items()}
    return [deflated[key] for key in keys]


def _strictly_triangular(m: np.ndarray) -> bool:
    """Whether ``m`` is exactly strictly lower or strictly upper triangular."""
    return not np.any(np.triu(m)) or not np.any(np.tril(m))


def _deflated_block(m: np.ndarray, tol: float,
                    norm: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the hyper-range of one diagonal block and of its
    complement, every guard and cut at ``tol * norm``; a ``norm`` of None
    is the block's own norm.

    An exactly strictly triangular block is nilpotent: its hyper-range is
    ``{0}`` and its complement the identity, with no power, SVD or ladder
    and no norm. Every other block has a nonzero entry, so ``norm > 0``.
    The guess's invariance leak test ``||blocks[h:, :h]|| <= tol * norm``
    prints no value, so ``_norm_at_most`` takes it. When the SVD of
    ``T^N`` does not converge (LAPACK can fail on a power whose singular
    values all tie), the left singular vectors are the right ones of its
    adjoint's SVD.
    """
    n = m.shape[0]
    if _strictly_triangular(m):
        return (np.zeros((n, 0), dtype=np.complex128),
                np.eye(n, dtype=np.complex128))
    if norm is None:
        norm = operator_norm(m)
    power = m / norm
    for _ in range(n.bit_length()):
        power = power @ power
        top = np.abs(power).max()
        if top == 0.0:
            break
        power = power / top
    try:
        u, s, _ = np.linalg.svd(power)
    except np.linalg.LinAlgError:
        _, s, vh = np.linalg.svd(power.conj().T)
        u = vh.conj().T
    cut = tol * s[0]
    h = int(np.sum(s > cut))
    kept = h > 0 and s[h - 1] > 10.0 * cut and (h == n or s[h] <= cut / 10.0)
    if kept:
        blocks = u.conj().T @ m @ u
        smallest = np.linalg.svd(blocks[:h, :h], compute_uv=False)[-1]
        kept = smallest > 10.0 * tol * norm \
            and _norm_at_most(blocks[h:, :h], tol * norm)
    if not kept:
        h, u, blocks = 0, np.eye(n, dtype=np.complex128), m
    c = blocks[h:, h:]
    if _certified_nilpotent(c, tol, norm):
        return u[:, :h], u[:, h:]
    rest = _nested_range(c, n - h + 1, tol, norm)
    return (np.hstack([u[:, :h], u[:, h:] @ rest.basis]),
            u[:, h:] @ complement(rest).basis)


def wandering_subspace(t: np.ndarray) -> Subspace:
    """Wandering directions of an isometric-type operator.

    Reads them off the near-idempotent defect ``I - T T^H`` (eigenvalues at
    least one half). For the wandering directions of the part of ``T`` on
    a subspace with basis ``Q``, pass the compression ``Q^H T Q`` and lift
    the result by ``Q``.
    """
    flat = np.eye(t.shape[0]) - t @ t.conj().T
    vals, vecs = np.linalg.eigh((flat + flat.conj().T) / 2.0)
    return orthonormalize(vecs[:, vals >= 0.5])


def wold_split(s, n_max: int) -> WoldDecomposition:
    """Wandering ladder and residual hyper-range of an isometric window.

    The wandering subspace is read off the near-idempotent defect
    ``I - S S^H`` (eigenvalues above one half), the ladder applies the
    operator ``n_max`` times, and the hyper-range is the orthogonal
    complement of the ladder inside the trusted window. The rungs are
    audited as one stacked basis ``L``: orthogonality is the largest
    off-diagonal block of ``L^H L``, completeness the largest column norm
    of ``I - P_H - L L^H`` on the window. Truncation shows up in the
    reported residuals rather than being silently absorbed: an ``n_max``
    too small to exhaust the window simply produces a visible completeness
    residual.

    Raises
    ------
    DomainError
        If the operator is not isometric on its window within 1e-10.
    """
    op = as_graded(s)
    if op.domain.dim != op.codomain.dim:
        raise DomainError("wold_split needs a square compression")
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    defect = gram_defect(op.restricted())
    if defect > 1e-10:
        raise DomainError(
            f"operator is not isometric on its window: defect {defect:.3e}"
        )
    wandering = wandering_subspace(op.matrix)
    ladder = [wandering]
    rung = wandering.basis
    for _ in range(n_max):
        rung = op.matrix @ rung
        step = orthonormalize(rung)
        if step.dim == 0:
            break
        ladder.append(step)
    stack = np.hstack([r.basis for r in ladder])
    window_sub = Subspace.coordinates(op.window_mask())
    hyper = intersect(complement(orthonormalize(stack)), window_sub) \
        if wandering.dim else window_sub
    win = window_sub.mask
    rest = window_sub.basis - hyper.basis @ hyper.basis[win].conj().T \
        - stack @ stack[win].conj().T
    worst = float(np.linalg.norm(rest, axis=0).max()) if rest.size else 0.0
    return WoldDecomposition(
        hyper_range=hyper,
        wandering=wandering,
        ladder=ladder,
        completeness_residual=worst,
        ladder_orthogonality=mutual_orthogonality(ladder),
    )


def cnu_eigenvector_span_residual(s, grid) -> float:
    """Leakage of adjoint-eigenvector sections outside the shift-type part.

    For each grid point w in the open disc the (approximate) adjoint
    eigenvector is taken as the smallest singular direction of
    ``S^H - conj(w) I``; for shift-like operators these are the kernel
    sections. The result is the largest distance from such a section to the
    completely nonunitary window part. With an empty grid there is nothing
    to span and the norm of the cnu projector is returned: 1.0 whenever a
    cnu part exists at all, and 0.0 otherwise.
    """
    op = as_graded(s)
    if op.domain.dim != op.codomain.dim:
        raise DomainError("square compression required")
    n = op.domain.dim
    _, perp = hyper_range_split(op.matrix)
    cnu = intersect(perp, Subspace.coordinates(op.window_mask()))
    pts = list(grid)
    if not pts:
        return 1.0 if cnu.dim else 0.0
    worst = 0.0
    eye = np.eye(n)
    for w in pts:
        if abs(w) >= 1.0:
            raise DomainError(f"grid point outside the open disc: |w|={abs(w)}")
        _, _, vh = np.linalg.svd(op.matrix.conj().T - np.conj(w) * eye)
        section = vh[-1].conj()
        worst = max(worst,
                    float(np.linalg.norm(section - cnu.project(section))))
    return worst
