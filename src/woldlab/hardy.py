"""Truncated vector-valued Hardy spaces and graded multiplication operators.

Everything here works with finite coordinate windows: a truncated Hardy
space of fiber dimension d and degree N is C^(d*(N+1)) with coordinates
grouped by monomial degree, lowest first. Operators carry their degree
growth and the largest input degree on which the stored matrix agrees with
the untruncated operator, so downstream code can confine identity checks to
coordinates that are actually exact.

Square compressions of multipliers are lower triangular in the degree
grading, which makes them exact on every window they see; what truncation
loses is output mass above the top degree. ``multiplier`` keeps every
coefficient up to the symbol's certified order, and
``symbols.coefficient_tail_bound`` certifies the mass it drops past that
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .symbols import (
    SchurSymbol,
    blaschke_required_order,
    taylor,
)

__all__ = [
    "TruncatedSpace",
    "GradedOperator",
    "hardy_space",
    "abstract_space",
    "direct_sum",
    "shift",
    "multiplier",
    "compress",
    "double_commutation_defect",
]


@dataclass(frozen=True)
class TruncatedSpace:
    """Finite coordinate model with a degree attached to each coordinate."""

    dim: int
    coordinate_degrees: tuple

    def __post_init__(self):
        if len(self.coordinate_degrees) != self.dim:
            raise DimensionError("one degree per coordinate required")

    @property
    def degree(self) -> int:
        """Largest coordinate degree (-1 for the zero space)."""
        return max(self.coordinate_degrees, default=-1)

    def degrees_array(self) -> np.ndarray:
        return np.asarray(self.coordinate_degrees, dtype=int)


def hardy_space(fiber_dim: int, degree: int) -> TruncatedSpace:
    """Truncated Hardy space of C^fiber_dim-valued polynomials up to degree."""
    if fiber_dim < 1 or degree < 0:
        raise DomainError("need fiber_dim >= 1 and degree >= 0")
    degs = tuple(k for k in range(degree + 1) for _ in range(fiber_dim))
    return TruncatedSpace(dim=fiber_dim * (degree + 1),
                          coordinate_degrees=degs)


def abstract_space(dim: int) -> TruncatedSpace:
    """Ungraded space; every coordinate sits at degree zero."""
    if dim < 0:
        raise DomainError("dimension must be nonnegative")
    return TruncatedSpace(dim=dim, coordinate_degrees=(0,) * dim)


def direct_sum(*spaces: TruncatedSpace) -> tuple[TruncatedSpace, list[slice]]:
    """Concatenate coordinate models; returns the sum and per-part slices."""
    degs: list[int] = []
    slices: list[slice] = []
    at = 0
    for s in spaces:
        slices.append(slice(at, at + s.dim))
        degs.extend(s.coordinate_degrees)
        at += s.dim
    return TruncatedSpace(dim=at, coordinate_degrees=tuple(degs)), slices


@dataclass(eq=False)
class GradedOperator:
    """Matrix between truncated spaces plus its exactness bookkeeping.

    ``growth`` bounds the degree increase (output degree <= input degree +
    growth up to the dropped coefficient tail, which
    ``symbols.coefficient_tail_bound`` certifies). ``window`` is the largest
    input degree on which the matrix reproduces the untruncated operator;
    coordinates above it may be polluted by truncation. The defaults, growth
    0 and a window over the whole domain, describe an ungraded operator
    exact everywhere.
    """

    matrix: np.ndarray
    domain: TruncatedSpace
    codomain: TruncatedSpace
    growth: int = 0
    window: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionError(
                f"matrix shape {m.shape} does not match spaces "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        self.matrix = m
        if self.window is None:
            self.window = self.domain.degree

    def window_mask(self) -> np.ndarray:
        """Boolean mask of domain coordinates with degree <= window."""
        return self.domain.degrees_array() <= self.window

    def restricted(self) -> np.ndarray:
        """Columns of the matrix restricted to exact input coordinates."""
        return self.matrix[:, self.window_mask()]


def shift(fiber_dim: int, degree: int) -> GradedOperator:
    """Multiplication by z as an exact rectangular map, degree -> degree + 1."""
    dom = hardy_space(fiber_dim, degree)
    cod = hardy_space(fiber_dim, degree + 1)
    m = np.zeros((cod.dim, dom.dim))
    m[fiber_dim:, :] = np.eye(dom.dim)
    return GradedOperator(matrix=m, domain=dom, codomain=cod,
                          growth=1, window=degree)


def _multiplier_order(sym: SchurSymbol) -> int:
    if sym.kind == "blaschke":
        return blaschke_required_order(sym, 0)
    return sym.degree


def multiplier(sym: SchurSymbol, degree: int,
               order: int | None = None) -> GradedOperator:
    """Multiplication by a symbol as a rectangular block-Toeplitz map.

    The codomain extends far enough to hold every retained coefficient
    (``order`` of them past each input degree; defaults to the symbol's
    certified order), so the matrix is exact on all of its domain up to the
    coefficient tail that ``symbols.coefficient_tail_bound`` certifies.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    g = _multiplier_order(sym) if order is None else order
    c = taylor(sym, g)
    d = sym.fiber_dim
    dom = hardy_space(d, degree)
    cod = hardy_space(d, degree + g)
    m = np.zeros((cod.dim, dom.dim), dtype=np.complex128)
    for j in range(degree + 1):
        for k in range(g + 1):
            i = j + k
            m[i * d:(i + 1) * d, j * d:(j + 1) * d] = c[k]
    return GradedOperator(matrix=m, domain=dom, codomain=cod, growth=g,
                          window=degree)


def compress(op: GradedOperator, degree: int | None = None) -> GradedOperator:
    """Compression onto codomain coordinates of degree <= ``degree``.

    Defaults to the domain's top degree, giving a square matrix when domain
    and codomain share a fiber. The exact window shrinks by the growth: an
    input coordinate is only safe if all of its image fits below the cut.
    """
    cut = op.domain.degree if degree is None else degree
    keep = op.codomain.degrees_array() <= cut
    degs = tuple(int(x) for x in op.codomain.degrees_array()[keep])
    cod = TruncatedSpace(dim=int(keep.sum()), coordinate_degrees=degs)
    return GradedOperator(
        matrix=op.matrix[keep, :],
        domain=op.domain,
        codomain=cod,
        growth=op.growth,
        window=min(op.window, cut - op.growth),
    )


def double_commutation_defect(sym: SchurSymbol, degree: int) -> float:
    """Norm of ``M_z^H M_phi - M_phi M_z^H`` on a truncated window.

    For an analytic symbol the commutator is the rank-one-type map
    ``f -> (sum_{k>=1} c_k z^(k-1)) f_0``, so the defect is the norm of the
    stacked coefficient column past index zero. Zero exactly when the symbol
    is constant, which is the doubly-commuting case.
    """
    if degree < 1:
        raise DomainError("need degree >= 1 to see the commutator")
    g = _multiplier_order(sym)
    c = taylor(sym, max(g, degree))
    if c.shape[0] < 2:
        return 0.0
    stack = np.vstack(list(c[1:]))
    return float(np.linalg.norm(stack, 2))
