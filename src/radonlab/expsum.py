"""Exponential sums and the oscillatory integrals that approximate them.

Normalized complete Gauss sums over rational points, lattice multiplier
sums for averaging and truncated singular convolutions, Weyl sums with a
C^1 weight, and the continuous (dilation-invariant) multipliers obtained
by integrating the same phases over a convex body.  The module ends with
the major-arc approximation checks: on a major arc the lattice multiplier
is a Gauss sum times a continuous multiplier, up to an explicit error.

Rational phases are computed exactly: the inner product <a/q, Q(y)> is an
integer residue mod q before any trigonometry, so a Gauss sum's phase set
is exact and only the final average rounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, KernelError, QuadratureError
from .polymap import (CanonicalMapping, ConvexBody, ball, canonical_mapping,
                      dilation_exponents, lattice_points)

GAUSS_BUDGET = 100_000_000
QUAD_NODE_BUDGET = 1 << 22  # integrand nodes per quadrature call
_INT64_MODULUS_MAX = math.isqrt(2 ** 63 - 1)


def torus_reduce(x) -> np.ndarray:
    """Reduce coordinates to the fundamental window [-1/2, 1/2)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


@dataclass(frozen=True)
class RationalPoint:
    """A point a/q on the rational torus, componentwise a_gamma/q.

    Stored with 0 <= a_gamma < q.  `reduced` means the joint gcd condition
    gcd(q, gcd_gamma(a_gamma)) == 1 holds: the zero vector belongs to q = 1
    only.
    """

    numerators: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if any(not (0 <= a < self.q) or not isinstance(a, int)
               for a in self.numerators) and self.q > 1:
            raise ValueError("numerators must satisfy 0 <= a < q")

    @property
    def reduced(self) -> bool:
        g = 0
        for a in self.numerators:
            g = math.gcd(g, a)
        return math.gcd(self.q, g) == 1

    def as_floats(self) -> np.ndarray:
        return torus_reduce(np.array(self.numerators, dtype=float) / self.q)


def reduce_fraction(numerators, q: int) -> RationalPoint:
    """Canonical joint-reduced representative of a/q on the torus."""
    nums = [a % q for a in numerators]
    g = 0
    for a in nums:
        g = math.gcd(g, a)
    g = math.gcd(g, q)
    return RationalPoint(tuple(a // g for a in nums), q // g)


def residue_classes(q: int, d: int) -> np.ndarray:
    """All a in {0..q-1}^d with gcd(q, gcd(a)) = 1, lexicographic, (n, d)."""
    axes = [np.arange(q, dtype=np.int64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    g = np.zeros(grid.shape[0], dtype=np.int64)
    for j in range(d):
        g = np.gcd(g, grid[:, j])
    keep = np.gcd(g, q) == 1
    return grid[keep]


def gauss_sum(q: int, a, Q: CanonicalMapping,
              budget: int = GAUSS_BUDGET) -> complex:
    """Normalized complete sum q^{-k} sum_{y in {1..q}^k} e(<a/q, Q(y)>).

    The phase <a, Q(y)> mod q is exact int64 arithmetic: every product
    and sum is reduced mod q right away, so no intermediate exceeds q^2,
    which fits in int64 for q <= isqrt(2^63 - 1).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    a = tuple(int(x) for x in a)
    if len(a) != Q.d:
        raise ValueError("numerator vector does not match the index set")
    if q ** Q.k > budget:
        raise BudgetError(f"complete sum has {q ** Q.k} terms",
                          estimate=q ** Q.k)
    if q > _INT64_MODULUS_MAX:
        raise BudgetError(f"modulus {q} squared overflows int64",
                          estimate=q ** Q.k)
    axes = np.meshgrid(*[np.arange(1, q + 1, dtype=np.int64) % q] * Q.k,
                       indexing="ij", sparse=True)
    residues = np.zeros((q,) * Q.k, dtype=np.int64)
    for i, g in enumerate(Q.gamma):
        mono = a[i] % q
        if mono == 0:
            continue
        for y, e in zip(axes, g):
            for _ in range(e):
                mono = mono * y % q
        residues = (residues + mono) % q
    phases = np.exp(2j * np.pi * residues.ravel() / q)
    return complex(phases.sum() / q ** Q.k)


def gauss_scan_quadratic(q: int) -> np.ndarray:
    """|G(a/q)| for every class a = (a1, a2) of y -> (y, y^2) at once.

    The (q x q) table of normalized magnitudes is the 2-D DFT of the
    incidence array of y -> (y mod q, y^2 mod q); entry [a1, a2] is
    |G((a1, a2)/q)|.  Classes failing the joint gcd condition are masked
    with NaN.  Cross-checked against gauss_sum in the tests.
    """
    y = np.arange(1, q + 1, dtype=np.int64)
    inc = np.zeros((q, q))
    np.add.at(inc, (y % q, (y * y) % q), 1.0)
    mags = np.abs(np.fft.fft2(inc)) / q
    a1, a2 = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    ok = np.gcd(np.gcd(a1, a2), q) == 1
    return np.where(ok, mags, np.nan)


# -- lattice multipliers --------------------------------------------------

def avg_multiplier(N: int, xi, Q: CanonicalMapping,
                   body: ConvexBody | None = None,
                   budget: int = GAUSS_BUDGET) -> complex:
    """m_N(xi) = |B_N|^{-1} sum_{y in B_N} e(<xi, Q(y)>)."""
    body = body or ball(Q.k)
    pts = lattice_points(body, N, budget=budget)
    return _phase_average(pts, xi, Q, weights=None)


def sing_multiplier(N: int, xi, Q: CanonicalMapping, kernel,
                    body: ConvexBody | None = None,
                    budget: int = GAUSS_BUDGET) -> complex:
    """sum_{y in B_N, y != 0} e(<xi, Q(y)>) K(y) (no normalization)."""
    body = body or ball(Q.k)
    pts = lattice_points(body, N, budget=budget)
    pts = pts[np.any(pts != 0, axis=1)]
    w = kernel.eval_many(pts)
    return _phase_average(pts, xi, Q, weights=w)


def _phase_average(pts: np.ndarray, xi, Q, weights):
    xi = torus_reduce(np.atleast_1d(np.asarray(xi, dtype=float)))
    if xi.shape != (Q.d,):
        raise ValueError("frequency does not match the index set")
    phase = np.zeros(len(pts))
    if hasattr(Q, "gamma"):
        for i, g in enumerate(Q.gamma):
            if xi[i] == 0.0:
                continue
            mono = np.ones(len(pts))
            for j, e in enumerate(g):
                if e:
                    mono = mono * pts[:, j].astype(float) ** e
            phase += xi[i] * mono
    else:
        phase = Q.eval_many(pts).astype(float) @ xi
    vals = np.exp(2j * np.pi * phase)
    if weights is None:
        return complex(vals.sum() / len(pts))
    return complex((vals * np.asarray(weights, dtype=float)).sum())


def weyl_sum(phase_poly, N: int, weight=None,
             body: ConvexBody | None = None, k: int = 1, pts=None,
             budget: int = GAUSS_BUDGET) -> complex:
    """S_N = sum_{n in region} e(P(n)) phi(n) for a real phase polynomial.

    `phase_poly` maps an (n, k) float array to phases; `weight` maps it to
    C^1 weights (default 1).  The region is the dilated body's lattice
    points, or an explicit (n, k) integer array passed as `pts` (e.g. the
    one-sided range 1..N).
    """
    if pts is None:
        body = body or ball(k)
        pts = lattice_points(body, N, budget=budget)
    pts = np.atleast_2d(np.asarray(pts)).astype(float)
    ph = np.asarray(phase_poly(pts), dtype=float)
    w = np.ones(len(pts)) if weight is None else np.asarray(weight(pts))
    return complex((np.exp(2j * np.pi * ph) * w).sum())


def weyl_decay_probe(phase_poly, N_grid, k: int = 1, weight=None) -> dict:
    """Fit log(|S_N| / N^k) against -alpha log log N over a dyadic sweep."""
    N_grid = [int(n) for n in N_grid]
    mags = []
    for n in N_grid:
        s = weyl_sum(phase_poly, n, weight=weight, k=k)
        mags.append(abs(s) / n ** k)
    x = np.log(np.log(np.array(N_grid, dtype=float)))
    y = np.log(np.maximum(mags, 1e-300))
    slope, intercept = np.polyfit(x, y, 1)
    return {"N": N_grid, "normalized": mags, "alpha": float(-slope),
            "intercept": float(intercept)}


# -- Calderon-Zygmund kernels ---------------------------------------------

@dataclass(frozen=True)
class CZKernelSpec:
    """A truncation kernel with size/smoothness certificate.

    evaluate: (n, k) float points -> values.  The certificate samples
    annuli and records sup of |y|^k |K| + |y|^{k+1} |grad K| (1.0 for the
    normalized convention); annular cancellation is checked by quadrature
    at validation time.
    """

    k: int
    evaluate: object
    name: str = "kernel"
    certificate: dict = field(default_factory=dict, hash=False, compare=False)

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(np.atleast_2d(
            np.asarray(pts, dtype=float))), dtype=float)

    def size_certificate(self, radii=None, samples: int = 64) -> float:
        """sup over sampled annuli of |y|^k |K| + |y|^{k+1} |grad K|."""
        radii = radii if radii is not None else np.geomspace(0.5, 64, 25)
        worst = 0.0
        for rad in radii:
            if self.k == 1:
                ys = np.array([[rad], [-rad]])
            else:
                th = np.linspace(0, 2 * np.pi, samples, endpoint=False)
                ys = rad * np.stack([np.cos(th), np.sin(th)], axis=1)
            h = 1e-6 * rad
            vals = np.abs(self.eval_many(ys))
            grad_sq = np.zeros(len(ys))
            for j in range(self.k):
                e = np.zeros(self.k)
                e[j] = h
                grad_sq += ((self.eval_many(ys + e)
                             - self.eval_many(ys - e)) / (2 * h)) ** 2
            worst = max(worst, float(np.max(
                rad ** self.k * vals + rad ** (self.k + 1) * np.sqrt(grad_sq))))
        return worst

    def cancellation_defect(self, r1: float, r2: float,
                            tol: float = 1e-10) -> float:
        """|integral of K over the annulus r1 < |y| <= r2| by quadrature."""
        if not 0 < r1 < r2:
            raise ValueError("need 0 < r1 < r2")
        if self.k == 1:
            return float(abs(_refining_midpoint(
                lambda y: self.eval_many(y[:, None])
                + self.eval_many(-y[:, None]), r1, r2, tol)))
        return float(abs(_disk_integral(self.eval_many, r1, r2, tol)))

    def validate(self, tol: float = 1e-6):
        """Raise KernelError if annular cancellation fails."""
        for r1, r2 in ((0.5, 1.0), (1.0, 4.0), (0.25, 8.0)):
            defect = self.cancellation_defect(r1, r2, tol=tol / 100)
            if defect > tol:
                raise KernelError(
                    f"{self.name}: annular integral {defect:.2e} "
                    f"over ({r1}, {r2}] is not zero")


def odd_power_kernel(c: float = 0.5) -> CZKernelSpec:
    """K(y) = c / y on Z \\ {0}; c = 1/2 meets the normalized size bound."""
    def ev(pts):
        y = pts[:, 0]
        out = np.zeros_like(y)
        nz = y != 0
        out[nz] = c / y[nz]
        return out
    return CZKernelSpec(1, ev, name=f"{c}/y",
                        certificate={"size_bound": 2.0 * c})


def plane_sign_kernel() -> CZKernelSpec:
    """K(y) = y1 y2 / |y|^4 on Z^2 \\ {0}: odd-symmetric, -2 homogeneous."""
    def ev(pts):
        n2 = (pts ** 2).sum(axis=1)
        out = np.zeros(len(pts))
        nz = n2 > 0
        out[nz] = pts[nz, 0] * pts[nz, 1] / n2[nz] ** 2
        return out
    return CZKernelSpec(2, ev, name="y1*y2/|y|^4")


# -- continuous multipliers ------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panels(a: float, b: float, panels: int):
    """Nodes and weights of `panels` equal 16-node Gauss-Legendre panels."""
    h = (b - a) / panels
    mids = a + h * (np.arange(panels) + 0.5)
    nodes = (mids[:, None] + 0.5 * h * _GL_NODES).ravel()
    return nodes, np.tile(0.5 * h * _GL_WEIGHTS, panels)


def _refine(evaluate, size, tol: float, what: str):
    """Double a rule until two consecutive values agree within tol.

    `evaluate(level)` is the rule at refinement level 0, 1, 2, ... and
    `size(level)` its node count.  The nodes of all levels together stay
    within QUAD_NODE_BUDGET: a level that would cross it is not evaluated,
    and QuadratureError reports the finest value and the last difference.
    """
    used, prev, diff = 0, None, None
    for level in itertools.count():
        used += size(level)
        if used > QUAD_NODE_BUDGET:
            raise QuadratureError(
                f"{what} did not reach tol {tol:.1e} within "
                f"{QUAD_NODE_BUDGET} nodes", estimate=prev, error_bound=diff)
        value = evaluate(level)
        if prev is not None:
            diff = abs(value - prev)
            if diff < tol:
                return value
        prev = value


def _refining_midpoint(f, a: float, b: float, tol: float):
    """int_a^b f(x) dx by composite 16-node Gauss-Legendre panels.

    f maps an (n,) array of nodes to values.  The panel count starts at 4
    and doubles until two consecutive sums agree within tol; the finer sum
    is returned.  For the analytic integrands used here the error falls
    spectrally in the panel width, so the returned sum is far inside tol.
    Past QUAD_NODE_BUDGET nodes it raises QuadratureError.  The name is
    kept because perfbench/tracer.py times this rule by it.
    """
    def evaluate(level):
        x, w = _gl_panels(a, b, 4 << level)
        return f(x) @ w
    return _refine(evaluate, lambda level: 64 << level, tol, "interval rule")


def _disk_integral(f, lo: float, hi: float, tol: float):
    """int over the annulus lo <= |y| <= hi of f(y) dy (lo = 0: a disk).

    f maps an (n, 2) array of points to values.  The rule is composite
    16-node Gauss-Legendre panels in r (with the Jacobian r) times the
    uniform trapezoid rule in theta, which converges exponentially for a
    smooth periodic integrand.  Both node counts start at 32 radii by 64
    angles and double together until two consecutive values agree within
    tol; the finer value is returned.  Past QUAD_NODE_BUDGET nodes it
    raises QuadratureError.
    """
    def evaluate(level):
        r, w = _gl_panels(lo, hi, 2 << level)
        n_t = 64 << level
        t = 2 * np.pi * np.arange(n_t) / n_t
        pts = r[:, None, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)
        vals = f(pts.reshape(-1, 2)).reshape(len(r), n_t)
        return vals.sum(axis=1) @ (w * r) * (2 * np.pi / n_t)
    return _refine(evaluate, lambda level: 2048 << 2 * level, tol,
                   "disk rule")


def _oscillation(xi: np.ndarray, Q: CanonicalMapping, kernel=None):
    """y -> e(<xi, Q(y)>) K(y) on (n, k) points (K = 1 without a kernel)."""
    def f(y):
        vals = np.exp(2j * np.pi * (Q.eval_real(y) @ xi))
        return vals if kernel is None else vals * kernel.eval_many(y)
    return f


def continuous_avg_multiplier(N: float, xi, Q: CanonicalMapping,
                              body: ConvexBody | None = None,
                              tol: float = 1e-8) -> complex:
    """Phi_N(xi) = |B_1|^{-1} int_{B_1} e(<xi, Q(N y)>) dy.

    Scaling moves N onto the frequency: Phi_N(xi) = Phi_1(N^A xi).
    Supported bodies: interval (k = 1, Gauss-Legendre panels) and disk
    (k = 2, Gauss-Legendre in r times the trapezoid rule in theta).
    """
    if N <= 0:
        raise ValueError("N must be positive")
    body = body or ball(Q.k)
    v = np.atleast_1d(np.asarray(xi, dtype=float)) * \
        np.power(float(N), dilation_exponents(Q))
    return _scaled_body_integral(v, Q, body, tol)


def _scaled_body_integral(v: np.ndarray, Q: CanonicalMapping,
                          body: ConvexBody, tol: float) -> complex:
    f = _oscillation(v, Q)
    if body.kind in ("euclidean_ball", "box") and Q.k == 1:
        return complex(_refining_midpoint(
            lambda y: f(y[:, None]), -1.0, 1.0, tol) / 2.0)
    if body.kind == "euclidean_ball" and Q.k == 2:
        return complex(_disk_integral(f, 0.0, 1.0, tol) / np.pi)
    raise NotImplementedError(
        f"continuous multiplier for kind={body.kind!r}, k={Q.k}")


def continuous_singular_multiplier(t: float, xi, Q: CanonicalMapping,
                                   kernel: CZKernelSpec,
                                   body: ConvexBody | None = None,
                                   tol: float = 1e-10,
                                   max_annuli: int = 200) -> complex:
    """Psi_t(xi) = p.v. int_{B_t} e(<xi, Q(y)>) K(y) dy.

    Dyadic annular decomposition from the outside in; each annulus is a
    proper integral, and cancellation makes the inner annuli negligible:
    summation stops once a term drops below tol.  Terms that grow for
    several consecutive annuli signal a kernel without cancellation.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    body = body or ball(Q.k)
    if body.kind != "euclidean_ball":
        raise NotImplementedError("singular integrals use the ball body")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    total = 0.0 + 0.0j
    prev_mag = None
    growth = 0
    for m in range(max_annuli):
        hi = t * 2.0 ** (-m)
        lo = hi / 2.0
        term = annulus_integral(lo, hi, xi, Q, kernel, tol=tol / 10)
        total += term
        mag = abs(term)
        if mag < tol and m >= 2:
            return complex(total)
        if prev_mag is not None and mag > prev_mag * 1.5:
            growth += 1
            if growth >= 6:
                raise KernelError(
                    "annular terms are growing: kernel lacks cancellation")
        else:
            growth = 0
        prev_mag = mag
    raise QuadratureError("annular decomposition did not converge",
                          estimate=total, error_bound=prev_mag)


def annulus_integral(lo: float, hi: float, xi, Q: CanonicalMapping,
                     kernel: CZKernelSpec, tol: float = 1e-11) -> complex:
    """int_{lo < |y| <= hi} e(<xi, Q(y)>) K(y) dy (proper integral).

    k = 1 folds the two half-lines into one interval rule; k = 2 uses the
    disk rule on the annulus.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    f = _oscillation(xi, Q, kernel)
    if Q.k == 1:
        return complex(_refining_midpoint(
            lambda y: f(y[:, None]) + f(-y[:, None]), lo, hi, tol))
    if Q.k == 2:
        return complex(_disk_integral(f, lo, hi, tol))
    raise NotImplementedError("annulus integrals support k <= 2")


def scale_norm(N: float, xi, Q: CanonicalMapping) -> float:
    """The decay parameter ||N^A xi||_inf."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return float(np.max(np.abs(xi) * np.power(float(N),
                                              dilation_exponents(Q))))


# -- major-arc approximation checks ---------------------------------------

@dataclass(frozen=True)
class ArcWindow:
    """Admissible major-arc parameters for the approximation checks.

    Requires 1 <= q <= L3 <= sqrt(N), L1 >= N, L2 >= 1 and
    |xi_gamma - a_gamma/q| <= L1^{-|gamma|} L2 for every gamma.
    """

    N: int
    L1: float
    L2: float
    L3: float

    def check(self, q: int, offsets: np.ndarray, degrees) -> None:
        if not (1 <= q <= self.L3):
            raise ValueError("need 1 <= q <= L3")
        if not (self.L3 <= math.sqrt(self.N) + 1e-12):
            raise ValueError("need L3 <= sqrt(N)")
        if self.L1 < self.N or self.L2 < 1:
            raise ValueError("need L1 >= N and L2 >= 1")
        caps = self.L2 * np.power(self.L1, -np.asarray(degrees, dtype=float))
        if np.any(np.abs(offsets) > caps * (1 + 1e-12)):
            raise ValueError("frequency offset outside the arc window")

    def error_bound(self, degrees) -> float:
        degs = np.asarray(degrees, dtype=float)
        tail = np.sum((self.N / self.L1) ** degs)
        return float(self.L3 / self.N
                     + self.L2 * self.L3 / self.N * tail)


def major_arc_approx_check(window: ArcWindow, frac: RationalPoint,
                           offsets, Q: CanonicalMapping,
                           body: ConvexBody | None = None,
                           tol: float = 1e-8) -> dict:
    """Compare m_N at xi = a/q + offsets with G(a/q) Phi_N(offsets).

    Returns observed error, the window's explicit bound, and their ratio.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    window.check(frac.q, offsets, Q.degrees)
    xi = frac.as_floats() + offsets
    m = avg_multiplier(window.N, xi, Q, body)
    g = gauss_sum(frac.q, frac.numerators, Q)
    phi = continuous_avg_multiplier(window.N, offsets, Q, body, tol=tol)
    err = abs(m - g * phi)
    bound = window.error_bound(Q.degrees)
    return {"error": err, "bound": bound, "ratio": err / bound,
            "m": m, "gauss": g, "phi": phi}


def major_arc_diff_check(window: ArcWindow, M: int, frac: RationalPoint,
                         offsets, Q: CanonicalMapping, kernel: CZKernelSpec,
                         tol: float = 1e-8) -> dict:
    """Same comparison for truncation differences of the singular sums.

    Compares (m_N - m_M)(xi) against G(a/q) (Psi_N - Psi_M)(offsets) for
    M in [cN, N]; the continuous difference is a single proper annulus
    integral.
    """
    if not (1 <= M <= window.N):
        raise ValueError("need 1 <= M <= N")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    window.check(frac.q, offsets, Q.degrees)
    xi = frac.as_floats() + offsets
    mN = sing_multiplier(window.N, xi, Q, kernel)
    mM = sing_multiplier(M, xi, Q, kernel)
    g = gauss_sum(frac.q, frac.numerators, Q)
    psi_diff = annulus_integral(float(M), float(window.N), offsets, Q,
                                kernel, tol=tol)
    err = abs((mN - mM) - g * psi_diff)
    bound = window.error_bound(Q.degrees)
    return {"error": err, "bound": bound, "ratio": err / bound,
            "lattice_diff": mN - mM, "gauss": g, "psi_diff": psi_diff}


def decay_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
