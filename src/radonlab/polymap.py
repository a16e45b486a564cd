"""Polynomial mappings and the lattice balls they average over.

One type, `PolynomialMapping`, covers every map P: R^k -> R^d with
P(0) = 0, stored by its coefficients against the monomial basis indexed
by multi-indices.  The canonical mapping of degree N0 is the special case
with one component y^gamma per non-zero gamma, 0 <= gamma_j <= N0; its
dilations t^A scale component gamma by t^{|gamma|}.

Coefficients are Python ints, checked once at construction.  The
lattice path `eval_many` computes exactly with Python integers, so
overflow is impossible rather than detected; `eval_real`
evaluates the same map on float points, for phases and quadrature
nodes.  Every operator averages over the closed lattice ball
B_t = {y in Z^k : |y| <= t} that `lattice_points` enumerates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError

# Refuse lattice enumerations beyond this many candidate points.
LATTICE_BUDGET = 50_000_000


def build_gamma(k: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All non-zero multi-indices gamma with 0 <= gamma_j <= max_degree.

    Ordered lexicographically; the zero multi-index is excluded, so the
    result has (max_degree+1)^k - 1 entries.
    """
    if k < 1 or max_degree < 1:
        raise ValueError("need k >= 1 and max_degree >= 1")
    grid = itertools.product(range(max_degree + 1), repeat=k)
    return tuple(g for g in grid if any(g))


def monomial(y: tuple[int, ...], gamma: tuple[int, ...]) -> int:
    """y^gamma with exact integer arithmetic."""
    out = 1
    for base, exp in zip(y, gamma):
        if exp:
            out *= base ** exp
    return out


@dataclass(frozen=True)
class PolynomialMapping:
    """P: R^k -> R^d with P(0) = 0.

    coeffs[j] maps a multi-index gamma to the coefficient of y^gamma in the
    j-th component.  Coefficients must be Python ints; constant terms
    are rejected.
    """

    k: int
    d: int
    coeffs: tuple[dict, ...] = field(hash=False)

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or len(self.coeffs) != self.d:
            raise ValueError("inconsistent dimensions")
        for comp in self.coeffs:
            for g, c in comp.items():
                if len(g) != self.k or any(e < 0 for e in g):
                    raise ValueError(f"bad multi-index {g}")
                if not isinstance(c, int):
                    raise ValueError(f"coefficient {c!r} is not an int")
                if not any(g) and c != 0:
                    raise ValueError("constant term: P(0) != 0")

    @functools.cached_property
    def gamma(self) -> tuple[tuple[int, ...], ...]:
        """The index set of a canonical mapping, one monomial per component;
        computed on first use, since gauss_sum reads it on every call."""
        if any(list(comp.values()) != [1] for comp in self.coeffs):
            raise ValueError("not a canonical mapping: each component must "
                             "be one monomial with coefficient 1")
        return tuple(next(iter(comp)) for comp in self.coeffs)

    @property
    def degrees(self) -> tuple[int, ...]:
        """|gamma| for each component, the dilation exponents."""
        return tuple(sum(g) for g in self.gamma)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """(n, k) integer points -> (n, d) object array, exact."""
        pts = [tuple(int(c) for c in row) for row in np.atleast_2d(points)]
        return np.array([[sum(c * monomial(y, g) for g, c in comp.items()
                              if c) for comp in self.coeffs] for y in pts],
                        dtype=object)

    def eval_real(self, y: np.ndarray) -> np.ndarray:
        """Evaluate on real points, shape (..., k) -> (..., d), float64."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1] + (self.d,))
        for i, comp in enumerate(self.coeffs):
            for g, c in comp.items():
                if not c:
                    continue
                acc = np.full(y.shape[:-1], float(c))
                for j, e in enumerate(g):
                    if e:
                        acc = acc * y[..., j] ** e
                out[..., i] += acc
        return out


def canonical_mapping(k: int, max_degree: int) -> PolynomialMapping:
    """The mapping y -> (y^gamma)_{gamma in build_gamma(k, max_degree)}."""
    gamma = build_gamma(k, max_degree)
    return PolynomialMapping(k, len(gamma), tuple({g: 1} for g in gamma))


def lattice_points(k: int, t: float) -> np.ndarray:
    """The lattice ball B_t = {y in Z^k : |y| <= t}, lexicographically ordered.

    Returns an (n, k) int64 array.  The candidate cube has
    (2 floor(t) + 1)^k points; enumeration beyond LATTICE_BUDGET
    of them is refused with a BudgetError.
    """
    if t < 0:
        raise ValueError("negative dilation")
    r = math.floor(t + 1e-9)
    side = 2 * r + 1
    if side ** k > LATTICE_BUDGET:
        raise BudgetError(
            f"lattice enumeration would scan {side ** k} candidates",
            estimate=side ** k)
    axes = [np.arange(-r, r + 1, dtype=np.int64)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, k)
    x = pts.astype(float)
    return pts[(x * x).sum(axis=1) <= t * t]


def dilate(Q: PolynomialMapping, t: float, x: np.ndarray) -> np.ndarray:
    """Apply t^A: coordinate gamma is scaled by t^{|gamma|}."""
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    x = np.asarray(x, dtype=float)
    return x * np.power(float(t), Q.degrees)

