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
instead of the hyper-range basis, the model split's coefficients and
audits one rung pair at a time (``model_audits_rungwise``, the library's
former route) instead of one compression of a stacked ladder, defect
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
                            orthonormalize, subspace_distance,
                            zero_subspace)
from woldlab.pairs import OperatorPair, VerdictReport, _level_caps
from woldlab.symbols import (MomentSequence, SchurSymbol,
                             blaschke_required_order, evaluate, taylor)
from woldlab.wold import hyper_range, wandering_subspace


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


def verdict_battery_projector(p: OperatorPair,
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
    samples = [e_sub.basis[:, j].copy() for j in range(e_sub.dim)]
    if e_sub.dim > 1:
        rng = np.random.default_rng(seed)
        for _ in range(2):
            coef = rng.normal(size=e_sub.dim) \
                + 1j * rng.normal(size=e_sub.dim)
            v = e_sub.basis @ (coef / np.linalg.norm(coef))
            samples.append(v)
    top = max(int(np.max(p.space.degrees_array())), 3)
    levels = _level_caps(top, 3)
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


def _ladder_rungwise(step: np.ndarray, start: Subspace, probe: Subspace,
                     cap: int) -> list:
    rungs = [start.basis]
    for _ in range(cap):
        nxt = step @ rungs[-1]
        if nxt.size == 0:
            break
        leak = operator_norm(nxt - probe.project(nxt))
        scale = max(operator_norm(nxt), 1e-30)
        if leak / scale > 1e-8:
            break
        rungs.append(nxt)
    return rungs


def model_audits_rungwise(p: OperatorPair) -> dict:
    """The model split's audits rung by rung, the library's former route.

    Rebuilds the three parts as ``model_decomposition`` does, then reads
    each multiplier coefficient as ``E_k^H S2 E_0``, checks the Toeplitz
    pattern one ``(k, j)`` block pair at a time, and audits the
    reconstruction one rung at a time. Returns the coefficients, the two
    residuals and the two ladder lengths under the field names of
    ``ModelDecomposition``.
    """
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
    f_rungs = _ladder_rungwise(m2, f_wander, p.probe, n) \
        if f_wander.dim else []
    q_o = complement(p.hyper_range_1).basis
    e_wander = Subspace(
        q_o @ wandering_subspace(q_o.conj().T @ m1 @ q_o).basis)
    e_rungs: list = []
    coeffs = np.zeros((0, 0, 0), dtype=np.complex128)
    toe = 0.0
    if e_wander.dim:
        e_rungs = _ladder_rungwise(m1, e_wander, p.probe, n)
        k_e = len(e_rungs)
        blocks = [e_rungs[k].conj().T @ m2 @ e_rungs[0] for k in range(k_e)]
        keep = k_e
        while keep > 1 and operator_norm(blocks[keep - 1]) <= 1e-9:
            keep -= 1
        coeffs = np.stack(blocks[:keep])
        for k in range(keep):
            for j in range(1, k_e - k):
                toe = max(toe, operator_norm(
                    e_rungs[k + j].conj().T @ m2 @ e_rungs[j] - coeffs[k]))
    worst = 0.0
    if h_uu.dim:
        worst = max(operator_norm(m1 @ h_uu.basis - h_uu.basis @ v1),
                    operator_norm(m2 @ h_uu.basis - h_uu.basis @ v2))
    for j, rung in enumerate(f_rungs):
        worst = max(worst, operator_norm(m1 @ rung - rung @ psi))
        if j + 1 < len(f_rungs):
            worst = max(worst, operator_norm(m2 @ rung - f_rungs[j + 1]))
    k_e, k_c = len(e_rungs), coeffs.shape[0]
    for j, rung in enumerate(e_rungs):
        if j + 1 < k_e:
            worst = max(worst, operator_norm(m1 @ rung - e_rungs[j + 1]))
        if k_c and j + k_c <= k_e:
            model_img = sum(e_rungs[j + k] @ coeffs[k] for k in range(k_c))
            worst = max(worst, operator_norm(m2 @ rung - model_img))
    return {"phi_coeffs": coeffs, "toeplitz_residual": float(toe),
            "reconstruction_residual": float(worst),
            "f_ladder_dim": len(f_rungs), "e_ladder_dim": k_e}


def nnls_scipy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, _ = scipy.optimize.nnls(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float).reshape(-1))
    return x
