"""Polynomial mappings on integer lattices and the bodies they average over.

A polynomial mapping P: Z^k -> Z^d0 with P(0) = 0 is stored by its integer
coefficients against the monomial basis indexed by multi-indices.  The
canonical mapping of degree N0 collects every non-constant monomial
x^gamma, 0 <= gamma_j <= N0, so that any P of degree <= N0 factors exactly
as an integer matrix L applied to the canonical mapping.  All arithmetic on
lattice points is exact (Python integers), so overflow is impossible rather
than detected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetError

# Refuse lattice enumerations beyond this many candidate points.
DEFAULT_LATTICE_BUDGET = 50_000_000


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
class CanonicalMapping:
    """The mapping y -> (y^gamma)_{gamma in Gamma} for a fixed index set."""

    k: int
    gamma: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.gamma:
            raise ValueError("empty index set")
        seen = set()
        for g in self.gamma:
            if len(g) != self.k or any(e < 0 for e in g) or not any(g):
                raise ValueError(f"bad multi-index {g}")
            if g in seen:
                raise ValueError(f"repeated multi-index {g}")
            seen.add(g)

    @property
    def d(self) -> int:
        return len(self.gamma)

    @property
    def degrees(self) -> tuple[int, ...]:
        """|gamma| for each component, the dilation exponents."""
        return tuple(sum(g) for g in self.gamma)

    def __call__(self, y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(monomial(tuple(y), g) for g in self.gamma)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, k) integer array; returns (n, d) object array.

        Object dtype keeps Python-int exactness for large coordinates.
        """
        pts = [tuple(int(c) for c in row) for row in np.atleast_2d(points)]
        return np.array([[monomial(p, g) for g in self.gamma] for p in pts],
                        dtype=object)

    def eval_real(self, y: np.ndarray) -> np.ndarray:
        """Evaluate on real points, shape (..., k) -> (..., d), float64."""
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape[:-1] + (self.d,))
        for i, g in enumerate(self.gamma):
            acc = np.ones(y.shape[:-1])
            for j, e in enumerate(g):
                if e:
                    acc = acc * y[..., j] ** e
            out[..., i] = acc
        return out


def canonical_mapping(k: int, max_degree: int) -> CanonicalMapping:
    return CanonicalMapping(k, build_gamma(k, max_degree))


@dataclass(frozen=True)
class PolynomialMapping:
    """P: Z^k -> Z^d0 with P(0) = 0, integer coefficients.

    coeffs[j] maps a multi-index gamma to the coefficient of x^gamma in the
    j-th component.  Constant terms are rejected.
    """

    k: int
    d0: int
    coeffs: tuple[dict, ...] = field(hash=False)

    def __post_init__(self):
        if self.k < 1 or self.d0 < 1 or len(self.coeffs) != self.d0:
            raise ValueError("inconsistent dimensions")
        for comp in self.coeffs:
            for g, c in comp.items():
                if len(g) != self.k or any(e < 0 for e in g):
                    raise ValueError(f"bad multi-index {g}")
                if not any(g) and c != 0:
                    raise ValueError("constant term: P(0) != 0")
                if not isinstance(c, int):
                    raise ValueError("coefficients must be integers")

    @classmethod
    def from_canonical(cls, Q: CanonicalMapping) -> PolynomialMapping:
        """The canonical mapping's components as an explicit polynomial map.

        The lattice operators key on the target dimension d0; the canonical
        mapping is the special case with one monomial per component.
        """
        return cls(Q.k, Q.d, tuple({g: 1} for g in Q.gamma))

    @property
    def degree(self) -> int:
        degs = [sum(g) for comp in self.coeffs for g, c in comp.items() if c]
        if not degs:
            raise ValueError("zero mapping has no degree")
        return max(degs)

    @property
    def d(self) -> int:
        """Target dimension, matching the canonical mapping interface."""
        return self.d0

    def __call__(self, y) -> tuple[int, ...]:
        y = tuple(int(c) for c in y)
        return tuple(sum(c * monomial(y, g) for g, c in comp.items() if c)
                     for comp in self.coeffs)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """(n, k) integer points -> (n, d0) object array, exact."""
        pts = [tuple(int(c) for c in row) for row in np.atleast_2d(points)]
        return np.array([list(self(p)) for p in pts], dtype=object)

    def eval_real(self, y: np.ndarray) -> np.ndarray:
        """Evaluate on real points, shape (..., k) -> (..., d0), float64."""
        return eval_real_coeffs(self.coeffs, y)


def eval_real_coeffs(coeffs, y: np.ndarray) -> np.ndarray:
    """A polynomial map on real points, shape (..., k) -> (..., len(coeffs)).

    coeffs[i] maps multi-indices gamma to the (real or integer) coefficient
    of y^gamma in component i, as `PolynomialMapping.coeffs` does.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (len(coeffs),))
    for i, comp in enumerate(coeffs):
        for g, c in comp.items():
            if not c:
                continue
            acc = np.full(y.shape[:-1], float(c))
            for j, e in enumerate(g):
                if e:
                    acc = acc * y[..., j] ** e
            out[..., i] += acc
    return out


def mapping_from_univariate(coeffs_by_degree: dict[int, int]) -> PolynomialMapping:
    """Convenience: a single polynomial Z -> Z from {degree: coefficient}."""
    return PolynomialMapping(
        1, 1, ({(deg,): c for deg, c in coeffs_by_degree.items()},))


def lift(P: PolynomialMapping) -> tuple[CanonicalMapping, np.ndarray]:
    """Factor P = L o Q through the canonical mapping of P's degree.

    Returns (Q, L) with L an integer (d0, d) matrix acting by
    (L v)_j = sum_gamma L[j, gamma] v_gamma.  Gamma is never pruned to the
    support of L: downstream dilations are indexed by the full canonical
    set, and a sparse L costs nothing.
    """
    Q = canonical_mapping(P.k, P.degree)
    index = {g: i for i, g in enumerate(Q.gamma)}
    L = np.zeros((P.d0, Q.d), dtype=object)
    for j, comp in enumerate(P.coeffs):
        for g, c in comp.items():
            if c:
                L[j, index[g]] = c
    return Q, L


def apply_lift(L: np.ndarray, v) -> tuple:
    """Apply the lifting matrix to a canonical value vector, exactly."""
    return tuple(sum(int(L[j, i]) * int(v[i]) for i in range(L.shape[1]))
                 for j in range(L.shape[0]))


@dataclass(frozen=True)
class ConvexBody:
    """Open bounded convex body in R^k containing the origin.

    kind 'euclidean_ball' is the closed unit ball (its dilate by t meets
    Z^k in the standard lattice ball |x| <= t); kind 'box' is the open cube
    (-1, 1)^k; kind 'polytope' is given by a support predicate together
    with an outer radius bound in the sup norm.
    """

    kind: str
    k: int
    predicate: object = None
    radius_bound: float = 1.0

    def __post_init__(self):
        if self.kind not in ("euclidean_ball", "box", "polytope"):
            raise ValueError(f"unknown body kind {self.kind!r}")
        if self.kind == "polytope" and self.predicate is None:
            raise ValueError("polytope body needs a membership predicate")

    def contains(self, x: np.ndarray, t: float = 1.0) -> np.ndarray:
        """Membership of points (rows of x) in the dilate by t."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "euclidean_ball":
            return (x * x).sum(axis=1) <= t * t
        if self.kind == "box":
            return np.abs(x).max(axis=1) < t
        return np.array([bool(self.predicate(row / t)) for row in x])

    def sup_norm_bound(self, t: float) -> float:
        return t * self.radius_bound


def ball(k: int) -> ConvexBody:
    return ConvexBody("euclidean_ball", k)


def box(k: int) -> ConvexBody:
    return ConvexBody("box", k)


def lattice_points(body: ConvexBody, t: float,
                   budget: int = DEFAULT_LATTICE_BUDGET) -> np.ndarray:
    """Enumerate the dilate's lattice points, lexicographically ordered.

    Returns an (n, k) int64 array.  The candidate box has
    (2 floor(t rho) + 1)^k points; enumeration beyond `budget` is refused.
    """
    if t < 0:
        raise ValueError("negative dilation")
    r = math.floor(t * body.radius_bound + 1e-9)
    side = 2 * r + 1
    if side ** body.k > budget:
        raise BudgetError(
            f"lattice enumeration would scan {side ** body.k} candidates",
            estimate=side ** body.k)
    axes = [np.arange(-r, r + 1, dtype=np.int64)] * body.k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = grid.reshape(-1, body.k)
    keep = body.contains(pts, t)
    return pts[keep]


def dilation_exponents(Q: CanonicalMapping) -> np.ndarray:
    """The diagonal exponents |gamma| of the dilation group t^A."""
    return np.array(Q.degrees, dtype=float)


def dilate(Q: CanonicalMapping, t: float, x: np.ndarray) -> np.ndarray:
    """Apply t^A: coordinate gamma is scaled by t^{|gamma|}."""
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    x = np.asarray(x, dtype=float)
    return x * np.power(float(t), dilation_exponents(Q))


def dilate_exact(Q: CanonicalMapping, t: int, x) -> tuple:
    """t^A on exact rationals/integers (t a positive integer)."""
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    return tuple(Fraction(xi) * Fraction(t) ** e
                 for xi, e in zip(x, Q.degrees))
