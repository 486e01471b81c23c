"""Independent reference implementations used to cross-check the library.

Each oracle deliberately takes a different computational route from the
module it validates: intersections via averaged projectors instead of
stacked-complement SVDs, defect weights via dense quadrature instead of
coefficient autocorrelation, unitary parts via one big stacked nullspace
or via iterated preimages (``unitary_part_iterated``, the library's former
route) instead of one closure of the defect ranges, Wold ladder audits one
rung pair and one window coordinate at a time instead of through one
stacked basis, hyper-ranges of plain matrices by nested range steps on the
whole matrix instead of deflation, and nonnegative least squares via
scipy's active-set solver instead of projected gradients.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from woldlab.linalg import (Subspace, as_matrix, complement, full_subspace,
                            intersect, kernel, operator_norm, orthonormalize,
                            subspace_distance)
from woldlab.symbols import SchurSymbol, evaluate


def intersect_avg_projector(a: Subspace, b: Subspace,
                            tol: float = 1e-9) -> Subspace:
    """Intersection as the eigenvalue-one eigenspace of (P_a + P_b)/2."""
    half = (a.projector() + b.projector()) / 2.0
    vals, vecs = np.linalg.eigh((half + half.conj().T) / 2.0)
    return orthonormalize(vecs[:, vals >= 1.0 - tol])


def defect_weight_quadrature(sym: SchurSymbol, k_max: int,
                             n: int = 4096) -> np.ndarray:
    """Fourier coefficients of 1 - |phi|^2 by uniform boundary quadrature.

    Matrix fibers use the normalized trace. Returns values indexed from
    -k_max to k_max.
    """
    thetas = 2.0 * np.pi * np.arange(n) / n
    dens = np.empty(n)
    for j, th in enumerate(thetas):
        val = evaluate(sym, np.exp(1j * th))
        if np.isscalar(val) or np.ndim(val) == 0:
            dens[j] = 1.0 - abs(complex(val)) ** 2
        else:
            d = val.shape[0]
            dens[j] = 1.0 - float(
                np.trace(val.conj().T @ val).real) / d
    ks = np.arange(-k_max, k_max + 1)
    phases = np.exp(-1j * np.outer(ks, thetas))
    return phases @ dens / n


def unitary_part_stacked(t: np.ndarray) -> Subspace:
    """Largest unitary-reducing subspace by one stacked nullspace.

    For a contraction, a vector lies in the unitary part exactly when
    every power of the operator and of its adjoint preserves its norm,
    which by positivity is a joint nullspace condition.
    """
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    eye = np.eye(n)
    blocks = []
    pk = eye.copy()
    for _ in range(n):
        pk = t @ pk
        blocks.append(eye - pk.conj().T @ pk)
        blocks.append(eye - pk @ pk.conj().T)
    stack = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    return orthonormalize(vh[rank:].conj().T)


def _preimage(t: np.ndarray, s: Subspace, tol: float) -> Subspace:
    """Vectors mapped into ``s`` by ``t``, with no inversion of ``t``."""
    perp = complement(s)
    if perp.dim == 0:
        return full_subspace(t.shape[1])
    return complement(orthonormalize(t.conj().T @ perp.basis, tol))


def unitary_part_iterated(t, tol: float = 1e-10) -> Subspace:
    """Largest unitary-reducing subspace by iterated preimages.

    Starts from the vectors where both ``I - T^H T`` and ``I - T T^H``
    vanish and repeatedly intersects with the preimages under the operator
    and its adjoint until the subspace stabilizes.
    """
    m = as_matrix(t, "contraction")
    n = m.shape[0]
    eye = np.eye(n)
    cur = intersect(kernel(eye - m.conj().T @ m, tol),
                    kernel(eye - m @ m.conj().T, tol))
    for _ in range(n + 1):
        if cur.dim == 0:
            break
        nxt = intersect(cur, _preimage(m, cur, tol))
        nxt = intersect(nxt, _preimage(m.conj().T, cur, tol))
        if nxt.dim == cur.dim and subspace_distance(nxt, cur) <= tol:
            cur = nxt
            break
        cur = nxt
    return cur


def ladder_audits_pairwise(ladder: list, hyper: Subspace,
                           window_mask: np.ndarray) -> tuple:
    """Ladder orthogonality and completeness, rung by rung.

    Orthogonality is the largest ``||Q_i^H Q_j||`` over pairs of distinct
    nonzero rungs; completeness the worst ``||h - P_H h - sum_r P_r h||``
    over window coordinate vectors ``h``, with one projector per rung.
    Returns ``(completeness, orthogonality)``.
    """
    rungs = [r for r in ladder if r.dim]
    cross = 0.0
    for i in range(len(rungs)):
        for j in range(i + 1, len(rungs)):
            cross = max(cross, operator_norm(
                rungs[i].basis.conj().T @ rungs[j].basis))
    n = hyper.ambient_dim
    p_h = hyper.projector()
    projectors = [r.projector() for r in rungs]
    worst = 0.0
    for idx in np.flatnonzero(window_mask):
        h = np.zeros(n, dtype=np.complex128)
        h[idx] = 1.0
        rec = p_h @ h
        for p in projectors:
            rec = rec + p @ h
        worst = max(worst, float(np.linalg.norm(h - rec)))
    return worst, cross


def hyper_range_nested(t, n_max: int | None = None,
                       tol: float = 1e-10) -> Subspace:
    """Limit of the nested ranges of T^n, n = 1..n_max, on the whole matrix.

    Each step keeps the singular directions of ``T Q`` above ``tol`` times
    its own largest singular value, with early exit once two consecutive
    ranges agree to within ``tol``; ``n_max`` defaults to ``n + 1``.
    """
    m = as_matrix(t, "operator")
    cap = m.shape[0] + 1 if n_max is None else n_max
    cur = orthonormalize(m, tol)
    for _ in range(cap - 1):
        nxt = orthonormalize(m @ cur.basis, tol)
        if nxt.dim == cur.dim and subspace_distance(nxt, cur) <= tol:
            return nxt
        cur = nxt
    return cur


def nnls_scipy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, _ = scipy.optimize.nnls(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float).reshape(-1))
    return x
