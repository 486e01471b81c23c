"""Schur-class boundary symbols and their defect weights.

A symbol is a matrix-valued analytic function on the closed unit disc with
contractive boundary values, given either by polynomial coefficients, by a
finite scalar Blaschke product, or by a constant. The defect weight
``w = I - phi^H phi`` on the circle is what couples symbols to boundary
measures; its Fourier coefficients come out of a coefficient
autocorrelation, no quadrature involved.

All circle integrals in this library are taken against dtheta/(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, ValidationError
from .linalg import gram_defect

__all__ = [
    "SchurSymbol",
    "MomentSequence",
    "polynomial",
    "constant",
    "blaschke",
    "taylor",
    "evaluate",
    "unit_circle_grid",
    "is_inner",
    "defect_weight",
    "blaschke_required_order",
    "coefficient_tail_bound",
    "symbol_from_literal",
]

#: default guaranteed Blaschke coefficient tail used when sizing truncations
TAIL_TARGET = 1e-14


@dataclass(frozen=True)
class SchurSymbol:
    """Immutable symbol description.

    kind is one of ``"polynomial"``, ``"blaschke"``, ``"constant"``.
    Polynomial and constant symbols store coefficients as an array of shape
    ``(n_coeffs, fiber_dim, fiber_dim)``; Blaschke symbols (scalar only)
    store their zeros and a unimodular front factor.

    ``truncation_hint`` caps the Taylor order coefficient-based operations
    may use; ``None`` means "size automatically".
    """

    kind: str
    fiber_dim: int
    coeffs: np.ndarray | None = None
    zeros: np.ndarray | None = None
    front: complex = 1.0 + 0.0j
    truncation_hint: int | None = None

    @property
    def degree(self) -> int:
        """Highest stored coefficient index (0 for blaschke/constant kinds)."""
        if self.coeffs is not None:
            return self.coeffs.shape[0] - 1
        return 0

    @property
    def zero_modulus(self) -> float:
        """Largest |zero| of a Blaschke symbol, 0.0 otherwise."""
        if self.kind == "blaschke" and self.zeros is not None and self.zeros.size:
            return float(np.max(np.abs(self.zeros)))
        return 0.0


def _coerce_coeffs(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim == 1:
        c = c.reshape(-1, 1, 1)
    if c.ndim == 2:
        # a single matrix: interpret as one constant coefficient
        c = c.reshape(1, *c.shape)
    if c.ndim != 3 or c.shape[1] != c.shape[2] or c.shape[0] == 0:
        raise ValidationError("coefficients must be scalars or square matrices")
    if not np.all(np.isfinite(c)):
        raise ValidationError("coefficients contain non-finite entries")
    return c


def _schur_check(sym: SchurSymbol, n_samples: int = 256):
    dev = _boundary_excess(sym, n_samples)
    if dev > 1e-12:
        raise DomainError(
            f"symbol exceeds the Schur class: boundary norm 1 + {dev:.3e}"
        )


def _boundary_excess(sym: SchurSymbol, n_samples: int) -> float:
    """Largest ``||phi(zeta)|| - 1`` on the grid, or 0."""
    vals = evaluate(sym, unit_circle_grid(n_samples))
    return max(0.0, float(np.linalg.norm(vals, 2, axis=(1, 2)).max()) - 1.0)


def polynomial(coeffs, truncation_hint: int | None = None) -> SchurSymbol:
    """Polynomial symbol from scalar or square-matrix coefficients.

    Membership in the Schur class is enforced on construction with 256
    boundary samples.
    """
    c = _coerce_coeffs(coeffs)
    sym = SchurSymbol(
        kind="polynomial",
        fiber_dim=c.shape[1],
        coeffs=c,
        truncation_hint=truncation_hint,
    )
    _schur_check(sym)
    return sym


def constant(value) -> SchurSymbol:
    """Constant symbol; the value must be a contraction."""
    c = _coerce_coeffs([value] if np.isscalar(value) else value)
    if c.shape[0] != 1:
        raise ValidationError("constant symbol takes a single value")
    if np.linalg.norm(c[0], 2) > 1.0 + 1e-12:
        raise DomainError("constant symbol is not a contraction")
    return SchurSymbol(kind="constant", fiber_dim=c.shape[1], coeffs=c)


def blaschke(zeros, front: complex = 1.0 + 0.0j,
             truncation_hint: int | None = None) -> SchurSymbol:
    """Finite scalar Blaschke product with the given zeros.

    Parameters
    ----------
    zeros : array_like of complex
        Zeros strictly inside the unit disc. An empty list collapses to the
        constant ``front``.
    front : complex
        Unimodular front factor.
    truncation_hint : int, optional
        Cap on the Taylor order later operations may request. ``None``
        (default) lets each operation size its own truncation.
    """
    z = np.asarray(zeros, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(z)):
        raise ValidationError("Blaschke zeros contain non-finite entries")
    if abs(abs(front) - 1.0) > 1e-12:
        raise DomainError(f"front factor must be unimodular, got |front|={abs(front)}")
    bad = np.abs(z) >= 1.0
    if np.any(bad):
        raise DomainError(
            f"Blaschke zeros must lie strictly inside the disc; got {z[bad][0]}"
        )
    if z.size == 0:
        return constant(front)
    return SchurSymbol(
        kind="blaschke",
        fiber_dim=1,
        zeros=z,
        front=complex(front),
        truncation_hint=truncation_hint,
    )


def blaschke_required_order(sym: SchurSymbol, k_max: int,
                            tail: float = TAIL_TARGET) -> int:
    """Taylor order guaranteeing coefficient tails below ``tail`` past k_max."""
    rho = sym.zero_modulus
    if rho == 0.0:
        extra = 0 if sym.zeros is None else int(sym.zeros.size)
        return k_max + extra
    return k_max + int(math.ceil(math.log(tail) / math.log(rho)))


def taylor(sym: SchurSymbol, order: int) -> np.ndarray:
    """Taylor coefficients c_0..c_order, shape (order+1, d, d).

    Polynomial coefficients beyond the stored degree are zero. Blaschke
    coefficients are built by convolving one-factor expansions
    ``(z - a)/(1 - conj(a) z) = -a + (1-|a|^2) * sum conj(a)^(k-1) z^k``.

    Raises
    ------
    PrecisionError
        If the symbol carries a ``truncation_hint`` smaller than ``order``.
    """
    if order < 0:
        raise ValidationError("order must be nonnegative")
    if sym.truncation_hint is not None and order > sym.truncation_hint:
        raise PrecisionError(
            f"Taylor order {order} exceeds truncation_hint={sym.truncation_hint}; "
            f"rebuild the symbol with truncation_hint >= {order}"
        )
    d = sym.fiber_dim
    if sym.kind in ("polynomial", "constant"):
        out = np.zeros((order + 1, d, d), dtype=np.complex128)
        n = min(order + 1, sym.coeffs.shape[0])
        out[:n] = sym.coeffs[:n]
        return out
    acc = np.zeros(order + 1, dtype=np.complex128)
    acc[0] = sym.front
    for a in sym.zeros:
        factor = np.zeros(order + 1, dtype=np.complex128)
        factor[0] = -a
        if order >= 1:
            k = np.arange(1, order + 1)
            factor[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** (k - 1)
        acc = np.convolve(acc, factor)[: order + 1]
    return acc.reshape(-1, 1, 1)


def evaluate(sym: SchurSymbol, z) -> np.ndarray:
    """Exact evaluation at points of the closed disc.

    A scalar point gives a (d, d) matrix; an array of k points gives the
    (k, d, d) stack of values, computed in one sweep over the factors or
    coefficients.
    """
    pts = np.asarray(z, dtype=np.complex128)
    radius = float(np.abs(pts).max(initial=0.0))
    if radius > 1.0 + 1e-12:
        raise DomainError(
            f"evaluation point outside the closed disc: |z|={radius}")
    zs = pts.reshape(-1, 1, 1)
    if sym.kind == "blaschke":
        acc = np.full(zs.shape, sym.front, dtype=np.complex128)
        for a in sym.zeros:
            acc = acc * ((zs - a) / (1.0 - np.conj(a) * zs))
    else:
        acc = np.zeros((zs.shape[0], sym.fiber_dim, sym.fiber_dim),
                       dtype=np.complex128)
        for c in sym.coeffs[::-1]:
            acc = acc * zs + c
    return acc[0] if pts.ndim == 0 else acc


def unit_circle_grid(n: int) -> np.ndarray:
    """n equispaced points exp(2*pi*i*j/n), j = 0..n-1."""
    if n < 1:
        raise ValidationError("grid needs at least one point")
    return np.exp(2j * np.pi * np.arange(n) / n)


def is_inner(sym: SchurSymbol, n_samples: int = 512,
             tol: float = 1e-10) -> tuple[bool, float]:
    """Boundary-isometry test.

    Samples ``n_samples`` equispaced boundary points and returns
    ``(verdict, deviation)`` where deviation is the largest
    ``||phi(zeta)^H phi(zeta) - I||`` observed.
    """
    if n_samples < 8:
        raise ValidationError("is_inner needs at least 8 samples")
    dev = gram_defect(evaluate(sym, unit_circle_grid(n_samples)))
    return (dev <= tol, dev)


@dataclass(frozen=True)
class MomentSequence:
    """Two-sided sequence indexed by k = -k_max..k_max."""

    k_max: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (2 * self.k_max + 1,):
            raise ValidationError("moment sequence length must be 2*k_max + 1")

    def __getitem__(self, k: int) -> complex:
        if abs(k) > self.k_max:
            raise DomainError(f"index {k} outside |k| <= {self.k_max}")
        return complex(self.values[k + self.k_max])

    def hermitian_defect(self) -> float:
        flipped = np.conj(self.values[::-1])
        return float(np.max(np.abs(self.values - flipped)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def defect_weight(sym: SchurSymbol, k_max: int) -> MomentSequence:
    """Fourier coefficients of ``w = I - phi^H phi`` against dtheta/(2*pi).

    Computed as the coefficient autocorrelation
    ``w_hat(k) = delta_k0 - sum_j conj(c_j) c_(j+k)`` (normalized trace for
    matrix fibers), so polynomial symbols are exact and Blaschke symbols are
    exact up to a certified geometric tail.

    Raises
    ------
    PrecisionError
        For Blaschke symbols whose ``truncation_hint`` is below the order
        needed to push the tail under 1e-14; the message names the required
        order.
    """
    if k_max < 0:
        raise ValidationError("k_max must be nonnegative")
    if sym.kind == "blaschke":
        order = blaschke_required_order(sym, k_max)
        if sym.truncation_hint is not None and sym.truncation_hint < order:
            raise PrecisionError(
                f"defect_weight to k_max={k_max} needs Taylor order {order}, "
                f"truncation_hint={sym.truncation_hint}"
            )
    else:
        order = sym.degree + k_max
    c = taylor(sym, order)
    flat = c.reshape(order + 1, -1)
    # gram[j, l] = tr(c_j^H c_l) / d, so lag k sums the k-th superdiagonal
    gram = flat.conj() @ flat.T / sym.fiber_dim
    lags = np.array([np.trace(gram, offset=k) for k in range(k_max + 1)])
    ahead = (np.arange(k_max + 1) == 0) - lags
    vals = np.concatenate([np.conj(ahead[::-1]), ahead[1:]])
    return MomentSequence(k_max=k_max, values=vals)


def coefficient_tail_bound(sym: SchurSymbol, order: int) -> float:
    """Certified bound on ``sum_{k > order} |c_k|`` for scalar symbols.

    Exact zero for polynomials of degree <= order; for Blaschke products the
    computed coefficients decay geometrically, and the bound sums computed
    entries out to a safe horizon plus a dominated-geometric remainder.
    """
    if sym.kind in ("polynomial", "constant"):
        if order >= sym.degree:
            return 0.0
        return float(np.sum(np.linalg.norm(sym.coeffs[order + 1:], ord=2, axis=(1, 2))))
    rho = sym.zero_modulus
    if rho == 0.0:
        return 0.0 if order >= sym.zeros.size else 1.0
    horizon = max(blaschke_required_order(sym, 0, tail=1e-16), order + 8)
    c = np.abs(taylor(SchurSymbol(
        kind="blaschke", fiber_dim=1, zeros=sym.zeros, front=sym.front,
    ), horizon)[:, 0, 0])
    computed = float(np.sum(c[order + 1:]))
    remainder = float(c[horizon]) * rho / (1.0 - rho)
    return computed + 2.0 * remainder + 1e-15


def symbol_from_literal(spec: dict) -> SchurSymbol:
    """Build a symbol from the JSON literal form used by configs.

    ``{"kind": "blaschke", "zeros": [[re, im], ...], "front": [re, im]}``,
    ``{"kind": "polynomial", "coeffs": [[re, im], ...]}`` (scalar), or
    ``{"kind": "constant", "value": [re, im]}``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("symbol literal must be an object with a 'kind'")
    kind = spec["kind"]

    def _c(pair) -> complex:
        if np.isscalar(pair):
            return complex(pair)
        if len(pair) != 2:
            raise ValidationError(f"complex literal must be [re, im], got {pair!r}")
        return complex(pair[0], pair[1])

    if kind == "blaschke":
        zeros = [_c(p) for p in spec.get("zeros", [])]
        front = _c(spec.get("front", [1.0, 0.0]))
        return blaschke(zeros, front)
    if kind == "polynomial":
        coeffs = [_c(p) for p in spec.get("coeffs", [])]
        if not coeffs:
            raise ValidationError("polynomial literal needs at least one coefficient")
        return polynomial(coeffs)
    if kind == "constant":
        return constant(_c(spec.get("value", [1.0, 0.0])))
    raise ValidationError(f"unknown symbol kind {kind!r}")
