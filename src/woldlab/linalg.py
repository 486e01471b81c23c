"""Numerically hardened subspace calculus over complex matrices.

Subspaces are stored as matrices with orthonormal columns; every operation
makes its rank decision through an SVD with an explicit relative threshold,
so downstream verdicts do not depend on basis choices or input conditioning.

The audits every structural verdict reuses live here once: the Gram
isometry defect ``||A^H A - I||`` (``gram_defect``), the unitarity defect
``max(||U^H U - I||, ||U U^H - I||)`` (``unitarity_defect``), the mutual
orthogonality of a family of subspaces (``mutual_orthogonality``), and
the angle-ordered clustering of unimodular eigenvalues
(``unimodular_clusters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "as_matrix",
    "orthonormalize",
    "zero_subspace",
    "full_subspace",
    "intersect",
    "complement",
    "reducing_residual",
    "subspace_distance",
    "operator_norm",
    "gram_defect",
    "unitarity_defect",
    "unimodular_clusters",
    "mutual_orthogonality",
    "kernel",
    "pivoted_cholesky",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 2-D array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal column basis.

    Attributes
    ----------
    basis : ndarray, shape (ambient_dim, dim)
        Orthonormal columns. A zero-dimensional subspace has shape (n, 0).
    mask : ndarray of bool, shape (ambient_dim,), or None
        Set by ``Subspace.coordinates`` alone, so ``basis == eye(n)[:, mask]``
        always holds; None for any other basis, identity columns included.
    """

    basis: np.ndarray
    mask: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        q = self.basis
        if q.ndim != 2:
            raise ValidationError("subspace basis must be 2-D")
        if q.shape[1] > 0:
            defect = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
            if not defect <= 1e-12 * max(1.0, q.shape[1]):  # NaN too
                raise ValidationError(
                    f"basis columns not orthonormal (defect {defect:.3e})"
                )

    @classmethod
    def coordinates(cls, mask) -> Subspace:
        """Span of the coordinate vectors a 1-D boolean mask selects."""
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValidationError(f"mask must be 1-D, got ndim={mask.ndim}")
        sub = cls(np.eye(mask.size, dtype=np.complex128)[:, mask])
        object.__setattr__(sub, "mask", mask)
        return sub

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ v)


def orthonormalize(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column span of ``m``.

    Columns whose singular value falls at or below ``tol`` times the largest
    singular value are discarded, so the result is well defined for
    rank-deficient input. The zero matrix yields the zero subspace.
    """
    a = as_matrix(m)
    if a.shape[1] == 0 or not np.any(a):
        return zero_subspace(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return Subspace(np.ascontiguousarray(u[:, :rank]))


def zero_subspace(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0), dtype=np.complex128))


def full_subspace(n: int) -> Subspace:
    return Subspace.coordinates(np.ones(n, dtype=bool))


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def _times_basis(m: np.ndarray, s: Subspace,
                 rows: slice = slice(None)) -> np.ndarray:
    """``m`` times the columns of ``s``'s basis that live in ``rows``.

    ``rows`` are one diagonal block's coordinates, a column of ``m`` each.
    A subspace with a mask is read by column selection, equal to the
    product bitwise up to the sign of a zero; any other is one block.
    """
    return m @ s.basis[rows] if s.mask is None else m[:, s.mask[rows]]


def _basis_times(s: Subspace, rows: slice, c: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the columns of ``s``'s basis that live there, times
    ``c``; for a subspace with a mask, ``c`` placed in the masked rows."""
    if s.mask is None:
        return s.basis[rows] @ c
    lifted = np.zeros((s.mask[rows].size, c.shape[1]), dtype=np.complex128)
    lifted[s.mask[rows]] = c
    return lifted


def intersect(a: Subspace, b: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Principal vectors whose cosine (singular value of a^H b) reaches
    ``1 - tol`` are kept: ``a``'s basis times the orthonormal coefficients
    of ``_intersection_coefficients``, an orthonormal basis as it stands.
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient_dim)
    coef = _intersection_coefficients(a.basis, b, tol)
    return Subspace(a.basis if coef is None else a.basis @ coef)


def _intersection_coefficients(a: np.ndarray, b: Subspace, tol: float,
                               rows: slice = slice(None)) -> np.ndarray | None:
    """Orthonormal ``W`` with ``a @ W`` a basis of ``span(a) & span(b)``,
    for orthonormal columns ``a`` living in ``rows``; None keeps ``a``.

    For ``b = span(e_mask)`` the sines of the principal angles are the
    singular values of the rows of ``a`` outside the mask, padded with
    zeros to ``a``'s width, and ``W`` are the right singular vectors whose
    sine is at most ``sqrt(2 tol - tol^2)``, the cosine rule's. The cut is
    absolute, so it applies to the blocks of a block-sparse basis one at a
    time. With no row outside the mask (or no column) ``a`` is kept whole,
    and with no row inside it nothing is; neither takes an SVD. Any other
    ``b`` is one block: ``W`` are the left singular vectors of ``a^H b``
    whose cosine reaches ``1 - tol``.
    """
    if not a.shape[1]:
        return None
    if b.mask is None:
        u, s, _ = np.linalg.svd(a.conj().T @ b.basis[rows])
        return u[:, :int(np.sum(s >= 1.0 - tol))]
    mask = b.mask[rows]
    if mask.all():
        return None
    if not mask.any():
        return np.zeros((a.shape[1], 0), dtype=a.dtype)
    outside = a[~mask]
    _, s, vh = np.linalg.svd(
        outside, full_matrices=outside.shape[0] < outside.shape[1])
    dropped = int(np.sum(s > np.sqrt(2.0 * tol - tol * tol)))
    return vh[dropped:].conj().T


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space."""
    n = s.ambient_dim
    if s.dim == 0:
        return full_subspace(n)
    if s.dim == n:
        return zero_subspace(n)
    # Left null space of the basis via full SVD; exact orthogonality to s.
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(np.ascontiguousarray(u[:, s.dim:]))


def reducing_residual(t, s: Subspace) -> tuple[float, float]:
    """How far ``s`` is from reducing the square operator ``t``.

    Returns ``(||(I-P) T P||, ||P T (I-P)||)`` in operator norm, where P
    projects onto ``s``. Both vanish iff s and its complement are invariant.
    They are read at working size from the compression ``A = Q^H T Q`` to
    the basis ``Q`` of ``s``, as ``||T Q - Q A||`` and ``||Q^H T - A Q^H||``.
    """
    m = as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("reducing_residual needs a square operator")
    if m.shape[0] != s.ambient_dim:
        raise DimensionError("operator and subspace ambient dimensions differ")
    if s.dim == 0 or s.dim == s.ambient_dim:
        return (0.0, 0.0)
    q = s.basis
    qh = q.conj().T
    mq = m @ q
    a = qh @ mq
    return (operator_norm(mq - q @ a), operator_norm(qh @ m - a @ qh))


def subspace_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance of the orthogonal projectors."""
    _check_same_ambient(a, b)
    return operator_norm(a.projector() - b.projector())


def operator_norm(m) -> float:
    """Largest singular value; 0.0 for an empty matrix.

    A stack of matrices, shape ``(k, m, d)``, gives the largest norm.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2, axis=(-2, -1)).max())


def gram_defect(a) -> float:
    """``||A^H A - I||`` in operator norm; 0.0 when ``a`` has no columns.

    A stack of matrices, shape ``(k, m, d)``, gives the largest defect.
    """
    a = np.asarray(a)
    if a.shape[-1] == 0:
        return 0.0
    g = np.asarray(a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1]),
                   dtype=np.complex128)
    return float(np.linalg.norm(g, 2, axis=(-2, -1)).max())


def unitarity_defect(u) -> float:
    """``max(||U^H U - I||, ||U U^H - I||)``: the Gram defect of U and U^H."""
    u = np.asarray(u)
    return max(gram_defect(u), gram_defect(u.conj().T))


def unimodular_clusters(values, tol: float) -> list:
    """Index groups of ``values`` in angle order, anchored at their first.

    Walking the values by increasing angle, a value joins the current group
    when it lies within ``tol`` of the group's first member (its anchor)
    and starts a new group otherwise. The last group merges into the first
    when their anchors meet across the branch cut at angle pi; the merged
    group keeps the first group's anchor.
    """
    values = np.asarray(values)
    groups: list = []
    for i in np.argsort(np.angle(values)):
        if groups and abs(values[i] - values[groups[-1][0]]) <= tol:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    if len(groups) > 1 and \
            abs(values[groups[-1][0]] - values[groups[0][0]]) <= tol:
        groups[0].extend(groups.pop())
    return groups


def mutual_orthogonality(subspaces) -> float:
    """Largest ``||Q_i^H Q_j||`` over pairs of distinct nonzero subspaces.

    This is the largest off-diagonal block of ``L^H L`` for the stacked
    bases ``L``. Bases of equal dimension are stacked, so one batched SVD
    measures every pair drawn from two dimension classes.
    """
    classes: dict = {}
    for sub in subspaces:
        if sub.dim:
            classes.setdefault(sub.dim, []).append(sub.basis)
    stacks = [np.stack(group) for group in classes.values()]
    worst = 0.0
    for k, a in enumerate(stacks):
        for b in stacks[k:]:
            norms = np.linalg.norm(a.conj().swapaxes(1, 2)[:, None] @ b[None],
                                   2, axis=(2, 3))
            if b is a:
                norms = np.triu(norms, 1)
            worst = max(worst, float(norms.max()))
    return worst


def kernel(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Null space of ``m`` with an absolute-plus-relative threshold.

    Singular values at or below ``tol * max(1, s_max)`` count as zero; the
    absolute floor keeps kernels of nearly-zero matrices well defined. A
    matrix with at least as many rows as columns takes the thin SVD, whose
    right singular vectors are all of them.
    """
    a = as_matrix(m)
    if a.shape[1] == 0:
        return zero_subspace(0)
    return Subspace(np.ascontiguousarray(_block_kernels([a], tol)[0]))


def _block_kernels(blocks, tol: float) -> list:
    """Kernel bases of the diagonal blocks of one block-diagonal matrix.

    The rule of ``kernel`` for the whole matrix: every block's rank is cut
    at ``tol * max(1, s_max)``, with ``s_max`` the largest top singular
    value over the blocks, which is the whole matrix's. A block with no
    columns has an empty kernel basis and takes no SVD.
    """
    svds = [np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])[1:]
            if a.shape[1] else (np.zeros(0), np.zeros((0, 0)))
            for a in blocks]
    cutoff = tol * max([1.0] + [s[0] for s, _ in svds if s.size])
    return [vh[int(np.sum(s > cutoff)):].conj().T for s, vh in svds]


def pivoted_cholesky(gram, cutoff: float = 1e-12) -> np.ndarray:
    """Rank-revealing factor C (r x n) of a Hermitian PSD matrix, C^H C = gram.

    Greedy diagonal pivoting; stops when the largest remaining diagonal
    residual is at or below ``cutoff``. Small negative residuals (roundoff,
    down to -1e-10) are tolerated; anything worse raises.

    Returns the factor whose column j holds the coordinates of the j-th
    input vector in an orthonormal basis of the span.
    """
    g = as_matrix(gram, "gram")
    n = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise DimensionError("gram matrix must be square")
    if operator_norm(g - g.conj().T) > 1e-10 * max(1.0, operator_norm(g)):
        raise ValidationError("gram matrix is not Hermitian")
    d = np.real(np.diag(g)).copy()
    rows = np.zeros((n, n), dtype=np.complex128)
    order: list[int] = []
    for step in range(n):
        p = int(np.argmax(d))
        if d[p] <= cutoff:
            if d.min() < -1e-10:
                raise ValidationError(
                    f"gram matrix indefinite (diagonal residual {d.min():.3e})"
                )
            break
        piv = np.sqrt(d[p])
        row = (g[p, :] - (rows[:step, p].conj() @ rows[:step, :])) / piv
        # Row p of the factor is exactly the pivot scale; clean it up.
        row[p] = piv
        for q in order:
            row[q] = 0.0
        rows[step, :] = row
        d -= np.abs(row) ** 2
        d[p] = 0.0
        order.append(p)
    return rows[: len(order), :]
