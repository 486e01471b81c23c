"""Independent reference implementations used to cross-check the library.

Each oracle deliberately takes a different computational route from the
module it validates: intersections via averaged projectors instead of
stacked-complement SVDs, defect weights via dense quadrature instead of
coefficient autocorrelation, unitary parts via one big stacked nullspace
or via iterated preimages (``unitary_part_iterated``, the library's former
route) instead of one closure of the defect ranges, Wold ladder audits one
rung pair and one window coordinate at a time instead of through one
stacked basis, hyper-ranges of plain matrices by nested range steps on the
whole matrix instead of deflation and the nilpotency ladder, reducing
residuals as blocks against a complement basis
(``reducing_residual_complement``, the library's former route) instead
of the compression to the subspace, the verdict battery on n x n
projectors (``verdict_battery_projector``, the library's former route)
instead of the hyper-range basis, defect
weights by one trace per autocorrelation term (``defect_weight_loop``,
the library's former route) instead of one Gram matrix, and nonnegative
least squares via scipy's active-set solver instead of projected
gradients.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from woldlab.linalg import (Subspace, as_matrix, complement, full_subspace,
                            gram_defect, intersect, kernel, operator_norm,
                            orthonormalize, subspace_distance)
from woldlab.pairs import OperatorPair, VerdictReport, _level_caps
from woldlab.symbols import (MomentSequence, SchurSymbol,
                             blaschke_required_order, evaluate, taylor)


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


def defect_weight_loop(sym: SchurSymbol, k_max: int) -> MomentSequence:
    """Defect weight by the coefficient autocorrelation, one trace per term.

    ``w_hat(k) = delta_k0 - sum_j tr(c_j^H c_(j+k)) / d``, accumulated in
    a double loop over k and j; the library's former route.
    """
    if sym.kind == "blaschke":
        order = blaschke_required_order(sym, k_max)
    else:
        order = sym.degree + k_max
    c = taylor(sym, order)
    d = sym.fiber_dim
    vals = np.zeros(2 * k_max + 1, dtype=np.complex128)
    for k in range(k_max + 1):
        acc = 0.0 + 0.0j
        for j in range(order + 1 - k):
            acc += np.trace(c[j].conj().T @ c[j + k]) / d
        vals[k_max + k] = (1.0 if k == 0 else 0.0) - acc
        vals[k_max - k] = np.conj(vals[k_max + k])
    return MomentSequence(k_max=k_max, values=vals)


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


def reducing_residual_complement(t, s: Subspace) -> tuple[float, float]:
    """``(||Q_c^H T Q||, ||Q^H T Q_c||)`` for a complement basis ``Q_c``.

    The two off-diagonal blocks of ``T`` over ``s (+) s^perp``, read with
    the full basis of the complement; both are 0.0 when ``s`` or its
    complement is zero.
    """
    m = as_matrix(t)
    if s.dim == 0 or s.dim == s.ambient_dim:
        return (0.0, 0.0)
    q = s.basis
    qc = complement(s).basis
    return (operator_norm(qc.conj().T @ (m @ q)),
            operator_norm(q.conj().T @ (m @ qc)))


def verdict_battery_projector(p: OperatorPair, x_samples: list | None = None,
                              n_levels: int = 3,
                              seed: int = 0) -> VerdictReport:
    """The verdict battery on n x n projectors, the library's former route.

    Every projected image is formed as ``P_inf x`` with the full projector,
    the reducing residual takes its own complement, each level re-applies
    the adjoint powers from the start, and ``r_v`` takes the singular
    values of the full masked block ``P_inf m2 (I - P_inf) D``.
    """
    m1, m2 = p.s1.matrix, p.s2.matrix
    n = p.space.dim
    h_inf = p.hyper_range_1
    e_sub = intersect(kernel(m1.conj().T), p.probe)
    h_probe = intersect(h_inf, p.probe)
    p_inf = h_inf.projector()
    red_out, red_in = reducing_residual_complement(m2, h_inf)
    iso = gram_defect(p_inf @ m2 @ h_probe.basis)
    dc = operator_norm((m1.conj().T @ m2 - m2 @ m1.conj().T) @ h_probe.basis) \
        if h_probe.dim else 0.0
    r_i = red_out + red_in + iso
    r_ii = red_out + red_in + dc
    vacuous = e_sub.dim == 0
    r_iii = 0.0 if vacuous else operator_norm(p_inf @ m2 @ e_sub.basis)
    samples: list = []
    if x_samples is not None:
        samples = [np.asarray(x, dtype=np.complex128).reshape(-1)
                   for x in x_samples]
    elif not vacuous:
        samples = [e_sub.basis[:, j].copy() for j in range(e_sub.dim)]
        if e_sub.dim > 1:
            rng = np.random.default_rng(seed)
            for _ in range(2):
                coef = rng.normal(size=e_sub.dim) \
                    + 1j * rng.normal(size=e_sub.dim)
                v = e_sub.basis @ (coef / np.linalg.norm(coef))
                samples.append(v)
    top = max(int(np.max(p.space.degrees_array())), n_levels)
    levels = _level_caps(top, n_levels)
    r_iv: list = []
    for cap in levels:
        dims_at_level = []
        for x in samples:
            vecs = []
            v = m2 @ x
            for _ in range(cap):
                v = m1.conj().T @ v
                vecs.append(p_inf @ v)
            stack = np.column_stack(vecs) if vecs else np.zeros((n, 0))
            if stack.size and np.any(stack):
                s = np.linalg.svd(stack, compute_uv=False)
                dims_at_level.append(int(np.sum(s > 1e-8)))
            else:
                dims_at_level.append(0)
        r_iv.append(dims_at_level)
    p_out = np.eye(n) - p_inf
    degs = p.space.degrees_array()
    r_v: list = []
    for cap in levels:
        mask = np.diag((degs <= cap).astype(float))
        block = p_inf @ m2 @ p_out @ mask
        s = np.linalg.svd(block, compute_uv=False)
        r_v.append([float(x) for x in s[:5]])
    verdict = bool(vacuous or r_iii <= 1e-8)
    return VerdictReport(
        e_subspace=e_sub, p_inf=h_inf, r_i=float(r_i), r_ii=float(r_ii),
        r_iii=float(r_iii), r_iv=r_iv, r_v=r_v, levels=levels,
        samples=samples, verdict=verdict, vacuous=vacuous,
    )


def nnls_scipy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, _ = scipy.optimize.nnls(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float).reshape(-1))
    return x
