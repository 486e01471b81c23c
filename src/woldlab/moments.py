"""Block models, boundary moments, and finite-spectrum forcing.

The weighted-boundary pair hides a small stationary system: a unitary on
the boundary space, an isometric raising block, and an embedding of
monomials whose columns the unitary walks through. The defect weight of
the generating symbol is then exactly the autocorrelation of the embedded
constant under the unitary. The checks here measure every identity of
that system directly, match the walked moments against the symbol's
defect weight, and ask whether any nonnegative mass distribution on a
prescribed finite set of unimodular atoms could reproduce the weight; a
large misfit forces the corresponding spectral part to be trivial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hardy import compress, multiplier, shift
from .linalg import (gram_defect, operator_norm, unimodular_clusters,
                     unitarity_defect)
from .pairs import _BOUNDARY_DEGREE, ExampleAssembly
from .symbols import MomentSequence, SchurSymbol, defect_weight

__all__ = [
    "BlockModel",
    "ForcingReport",
    "block_model_from_assembly",
    "block_model_check",
    "moment_match",
    "nnls_projected",
    "finite_spectrum_forcing",
]


@dataclass(frozen=True)
class BlockModel:
    """Stationary boundary system extracted from a weighted pair.

    ``u`` is the boundary unitary (block-diagonal over boundary degrees),
    ``a`` the raising block on the boundary space, ``b`` the monomial
    embedding whose column n is the image of z^n at boundary degree zero,
    and ``phi`` the generating symbol.
    """

    u: np.ndarray
    a: np.ndarray
    b: np.ndarray
    phi: SchurSymbol
    degree: int
    boundary_degree: int


@dataclass(frozen=True)
class ForcingReport:
    """Outcome of fitting a defect weight by masses on finite atoms."""

    forced_trivial: bool
    residual: float
    max_weight: float
    atoms: np.ndarray
    masses: np.ndarray


def block_model_from_assembly(assembly: ExampleAssembly) -> BlockModel:
    """Assemble the stationary system of a weighted-boundary pair.

    The boundary degree is the pair's own, ``pairs._BOUNDARY_DEGREE``.
    """
    r = assembly.rank
    if r == 0:
        raise DomainError(
            "inner symbols have a trivial boundary; no block model exists"
        )
    u = np.kron(np.eye(_BOUNDARY_DEGREE + 1), assembly.v_hat)
    a = compress(shift(r, _BOUNDARY_DEGREE)).matrix
    b = np.zeros(((_BOUNDARY_DEGREE + 1) * r, assembly.degree + 1),
                 dtype=np.complex128)
    b[:r, :] = assembly.factor
    return BlockModel(u=u, a=a, b=b, phi=assembly.symbol,
                      degree=assembly.degree,
                      boundary_degree=_BOUNDARY_DEGREE)


def block_model_check(model: BlockModel, degree: int | None = None) -> dict:
    """Residuals of every identity the stationary system must satisfy.

    Returns a mapping with the unitarity of ``u``, the isometry of ``a``
    on its window, their commutator there, the intertwining of ``b``'s
    columns by ``u``, the orthogonality of the raised space to the
    embedding, and the defect identity tying the embedding's Gram matrix
    to the multiplier of ``phi``.
    """
    if degree is None:
        degree = model.degree
    if degree > model.degree:
        raise DomainError(
            f"model holds columns up to degree {model.degree}, "
            f"got {degree}"
        )
    u, a = model.u, model.a
    n = u.shape[0]
    r = n // (model.boundary_degree + 1)
    win = np.zeros(n, dtype=bool)
    win[: model.boundary_degree * r] = True
    ua = operator_norm((u @ a - a @ u)[:, win])
    b = model.b[:, : degree + 1]
    inter = operator_norm(u @ b[:, :-1] - b[:, 1:]) if degree >= 1 else 0.0
    a_orth = operator_norm(a.conj().T @ b)
    m_op = multiplier(model.phi, degree)
    mm = m_op.matrix.conj().T @ m_op.matrix
    defect = operator_norm(b.conj().T @ b + mm - np.eye(degree + 1))
    return {
        "u_unitary": unitarity_defect(u),
        "a_isometry": gram_defect(a[:, win]),
        "ua_commutator": float(ua),
        "intertwine": float(inter),
        "a_orthogonality": float(a_orth),
        "defect_identity": float(defect),
    }


def moment_match(u: np.ndarray, b1: np.ndarray, phi: SchurSymbol,
                 k_max: int) -> tuple:
    """Moments of the embedded constant against the defect weight.

    Walks ``b1`` through the adjoint powers of ``u`` and records the
    autocorrelation sequence, mirrored Hermitianly to negative indices.
    Returns the measured sequence, the symbol's defect weight, and their
    largest absolute difference.
    """
    u = np.asarray(u, dtype=np.complex128)
    b1 = np.asarray(b1, dtype=np.complex128).reshape(-1)
    vals = np.zeros(2 * k_max + 1, dtype=np.complex128)
    v = b1.copy()
    vals[k_max] = np.vdot(b1, b1)
    for k in range(1, k_max + 1):
        v = u.conj().T @ v
        vals[k_max + k] = np.vdot(b1, v)
        vals[k_max - k] = np.conj(vals[k_max + k])
    measured = MomentSequence(k_max=k_max, values=vals)
    expected = defect_weight(phi, k_max)
    err = float(np.max(np.abs(measured.values - expected.values)))
    return measured, expected, err


def nnls_projected(a: np.ndarray, b: np.ndarray, max_iter: int = 10000,
                   tol: float = 1e-12) -> np.ndarray:
    """Nonnegative least squares by projected gradient descent.

    Minimizes ``norm(a x - b)`` over ``x >= 0`` with a fixed step of one
    over the Lipschitz constant of the gradient, stopping when an iterate
    moves by less than ``tol`` in the infinity norm. Stopping at
    ``max_iter`` instead emits a ``RuntimeWarning`` that names the cap and
    the last step.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    ata = a.T @ a
    atb = a.T @ b
    lip = 2.0 * operator_norm(ata)
    if lip == 0.0:
        return np.zeros(a.shape[1])
    step = 1.0 / lip
    x = np.zeros(a.shape[1])
    delta = np.inf
    for _ in range(max_iter):
        grad = 2.0 * (ata @ x - atb)
        nxt = np.maximum(x - step * grad, 0.0)
        delta = float(np.max(np.abs(nxt - x))) if x.size else 0.0
        x = nxt
        if delta < tol:
            break
    else:
        warnings.warn(
            f"nnls_projected stopped at max_iter={max_iter} before "
            f"converging: last step {delta:.3e}, tolerance {tol:.1e}",
            RuntimeWarning, stacklevel=2,
        )
    return x


def finite_spectrum_forcing(u: np.ndarray, phi: SchurSymbol, k_max: int,
                            tol: float = 1e-8,
                            atoms: np.ndarray | None = None) -> ForcingReport:
    """Can finitely many unimodular atoms carry the defect weight?

    Fits nonnegative masses at the given atoms (by default the anchors of
    the eigenvalues of ``u`` clustered at 1e-6 by ``unimodular_clusters``)
    to the weight's moment sequence and reports the least-squares misfit.
    A weight that is not identically negligible yet cannot be matched
    within ``tol`` forces the associated spectral part to be trivial,
    which is what ``forced_trivial`` records.
    """
    w = defect_weight(phi, k_max)
    if atoms is None:
        vals = np.linalg.eigvals(np.asarray(u, dtype=np.complex128))
        groups = unimodular_clusters(vals, 1e-6)
        atoms = np.asarray([vals[g[0]] for g in groups], dtype=np.complex128)
    else:
        atoms = np.asarray(atoms, dtype=np.complex128).reshape(-1)
        off = np.max(np.abs(np.abs(atoms) - 1.0)) if atoms.size else 0.0
        if off > 1e-8:
            raise DomainError(
                f"atoms must sit on the unit circle; worst offset {off:.3e}"
            )
    ks = np.arange(-k_max, k_max + 1)
    design = np.conj(atoms)[None, :] ** ks[:, None] if atoms.size \
        else np.zeros((ks.size, 0), dtype=np.complex128)
    a_real = np.vstack([design.real, design.imag])
    b_real = np.concatenate([w.values.real, w.values.imag])
    masses = nnls_projected(a_real, b_real)
    fit = design @ masses if atoms.size else np.zeros(ks.size)
    residual = float(np.linalg.norm(fit - w.values))
    max_w = float(w.max_abs())
    forced = bool(max_w > 1e-12 and residual > tol)
    return ForcingReport(forced_trivial=forced, residual=residual,
                         max_weight=max_w, atoms=atoms, masses=masses)
