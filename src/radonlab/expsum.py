"""Exponential sums and the oscillatory integrals that approximate them.

Normalized complete Gauss sums over rational points, lattice multiplier
sums for averaging and truncated singular convolutions over the lattice
ball B_N, and their continuous (dilation-invariant) counterparts Phi_N
and Psi_t, which integrate the same phases over the ball of R^k.  The
multipliers are the only continuous objects here, and k is 1 or 2: one
interval rule and one disk rule integrate them, each raising
QuadratureError past QUAD_NODE_BUDGET nodes.  The module ends with the
major-arc approximation checks: on a major arc the lattice multiplier
is a Gauss sum times a continuous multiplier, up to an explicit error.

Rational phases are computed exactly: the inner product <a/q, Q(y)> is an
integer residue mod q before any trigonometry, so a Gauss sum's phase set
is exact and only the final average rounds.

The kernels take one input or a batch: `gauss_sum` one numerator vector
(d,) or a block (m, d), `phase_sum` and the multipliers one frequency (d,)
or a batch (F, d).  One input gives a complex, a batch an array, and a
row of a batch equals its one-input call bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, KernelError, QuadratureError
from .polymap import PolynomialMapping, dilate, lattice_points

GAUSS_BUDGET = 100_000_000
QUAD_NODE_BUDGET = 1 << 22  # integrand nodes per quadrature call
_PHASE_CHUNK = 1 << 16  # phase_sum's and gauss_sum's chunk, ~1 MB
_INT64_MODULUS_MAX = math.isqrt(2 ** 63 - 1)
MAX_ANNULI = 200  # dyadic annuli continuous_singular_multiplier may sum


def torus_reduce(x) -> np.ndarray:
    """Reduce coordinates to the fundamental window [-1/2, 1/2)."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x + 0.5)


@dataclass(frozen=True)
class RationalPoint:
    """A point a/q on the rational torus, componentwise a_gamma/q.

    Stored with 0 <= a_gamma < q.  `reduce_fraction` gives the
    representative with gcd(q, gcd_gamma(a_gamma)) == 1, on which the
    zero vector belongs to q = 1 only.
    """

    numerators: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if any(not isinstance(a, int) or not 0 <= a < self.q
               for a in self.numerators):
            raise ValueError("numerators must satisfy 0 <= a < q")

    def as_floats(self) -> np.ndarray:
        return torus_reduce(np.array(self.numerators, dtype=float) / self.q)


def reduce_fraction(numerators, q: int) -> RationalPoint:
    """Canonical joint-reduced representative of a/q on the torus; a and q
    may be integers of any type, NumPy's included.  Any other a or q, or
    q < 1, is refused with a ValueError that names the fraction."""
    nums = list(numerators)
    name = f"({', '.join(map(str, nums))})/{q}"
    try:
        q = operator.index(q)
        nums = [operator.index(a) for a in nums]
    except TypeError:
        raise ValueError(f"fraction {name}: numerators and denominator "
                         f"must be integers") from None
    if q < 1:
        raise ValueError(f"fraction {name}: need a denominator q >= 1")
    nums = [a % q for a in nums]
    g = 0
    for a in nums:
        g = math.gcd(g, a)
    g = math.gcd(g, q)
    return RationalPoint(tuple(a // g for a in nums), q // g)


def gauss_sum(q: int, a, Q: PolynomialMapping):
    """Normalized complete sum q^{-k} sum_{y in {1..q}^k} e(<a/q, Q(y)>).

    a is one numerator vector (d,), giving a complex, or a block (m, d),
    giving an (m,) array; a row of a block equals its one-vector call bit
    for bit.  The monomial residues y^gamma mod q and the root table
    e(r/q) are built once per call and shared by every row; rows go in
    chunks of at most _PHASE_CHUNK products a_i y^gamma_i (or one row), so
    memory stays flat in m.  A sum of more than GAUSS_BUDGET terms q^k is
    refused with a BudgetError.

    The phase <a, Q(y)> mod q is exact int64 arithmetic: numerators are
    reduced mod q before the int64 cast, so any Python int is admitted;
    every product is reduced mod q right away, and the d reduced products
    sum to less than d q before their own reduction.  No intermediate
    exceeds max(q^2, d q), which fits in int64 for q <= isqrt(2^63 - 1).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    a = np.asarray(a)
    if a.ndim not in (1, 2) or a.shape[-1] != Q.d:
        raise ValueError("numerator vector does not match the index set")
    terms = q ** Q.k
    if terms > GAUSS_BUDGET:
        raise BudgetError(f"complete sum has {terms} terms", estimate=terms)
    if q > _INT64_MODULUS_MAX:
        raise BudgetError(f"modulus {q} squared overflows int64",
                          estimate=terms)
    if a.dtype != np.int64:  # e.g. Python ints of any size or sign
        a = (a.astype(object) % q).astype(np.int64)
    block = (a % q).reshape(-1, Q.d)
    y = np.arange(1, q + 1, dtype=np.int64)
    y[-1] = 0  # y = q is 0 mod q
    axes = [y.reshape((1,) * j + (q,) + (1,) * (Q.k - j - 1))
            for j in range(Q.k)]
    monos = np.empty((Q.d,) + (q,) * Q.k, dtype=np.int64)
    for i, g in enumerate(Q.gamma):
        mono = None
        for axis, e in zip(axes, g):
            for _ in range(e):
                mono = axis if mono is None else mono * axis % q
        monos[i] = mono
    monos = monos.reshape(Q.d, terms)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    out = np.empty(len(block), dtype=complex)
    rows = max(1, _PHASE_CHUNK // (Q.d * terms))
    for lo in range(0, len(block), rows):
        products = block[lo:lo + rows, :, None] * monos
        products %= q
        residues = np.add.reduce(products, axis=1)
        residues %= q
        np.add.reduce(roots[residues], axis=1, out=out[lo:lo + rows])
    return out / terms if a.ndim == 2 else complex(out[0] / terms)


def _prime_divisors(q: int) -> list[int]:
    out, p = [], 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1
    return out + [q] if q > 1 else out


def gauss_scan_quadratic(q: int) -> np.ndarray:
    """|G(a/q)| for every class a = (a1, a2) of y -> (y, y^2) at once.

    The (q x q) table of normalized magnitudes is the 2-D DFT of the
    incidence array of y -> (y mod q, y^2 mod q); entry [a1, a2] is
    |G((a1, a2)/q)|.  Classes failing the joint gcd condition, those
    where some prime p | q divides both a1 and a2, are masked with NaN.
    Cross-checked against gauss_sum in the tests.
    """
    y = np.arange(1, q + 1, dtype=np.int64)
    inc = np.zeros((q, q))
    np.add.at(inc, (y % q, (y * y) % q), 1.0)
    mags = np.abs(np.fft.fft2(inc)) / q
    a = np.arange(q)
    shared = np.zeros((q, q), dtype=bool)
    for p in _prime_divisors(q):
        hit = a % p == 0
        shared |= np.outer(hit, hit)
    return np.where(shared, np.nan, mags)


# -- lattice multipliers --------------------------------------------------

def avg_multiplier(N: int, xi, Q: PolynomialMapping):
    """m_N(xi) = |B_N|^{-1} sum_{y in B_N} e(<xi, Q(y)>).

    xi is one frequency (d,), giving a complex, or a batch (F, d), giving
    an (F,) array; either is torus-reduced first.
    """
    pts = lattice_points(Q.k, N)
    return phase_sum(Q.eval_real(pts), torus_reduce(xi))


def sing_multiplier(N: int, xi, Q: PolynomialMapping, kernel):
    """sum_{y in B_N, y != 0} e(<xi, Q(y)>) K(y), not normalized; xi is
    one frequency (d,) or a batch (F, d), as in avg_multiplier."""
    pts = lattice_points(Q.k, N)
    pts = pts[np.any(pts != 0, axis=1)]
    w = kernel.eval_many(pts)
    return phase_sum(Q.eval_real(pts), torus_reduce(xi), weights=w)


def phase_sum(points: np.ndarray, xi, weights=None):
    """sum_j w_j e(<xi, z_j>) over the rows z_j of points (n, d), divided
    by n when weights is None.

    xi is one frequency (d,), giving a complex, or a batch (F, d), giving
    an (F,) array, summed in row chunks of at most _PHASE_CHUNK phases.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.ndim > 2 or xi.shape[-1] != points.shape[1]:
        raise ValueError("frequency does not match the index set")
    batch = np.atleast_2d(xi)
    out = np.empty(len(batch), dtype=complex)
    rows = max(1, _PHASE_CHUNK // max(len(points), 1))
    for lo in range(0, len(batch), rows):
        block = batch[lo:lo + rows]
        phase = np.zeros((len(block), len(points)))
        for i in range(points.shape[1]):
            phase += block[:, i, None] * points[:, i]
        vals = np.exp(2j * np.pi * phase)
        if weights is not None:
            vals *= weights
        out[lo:lo + rows] = vals.sum(axis=1)
    if weights is None:
        out /= len(points)
    return out if xi.ndim == 2 else complex(out[0])


# -- Calderon-Zygmund kernels ---------------------------------------------

@dataclass(frozen=True)
class CZKernelSpec:
    """A truncation kernel on R^k, k = 1 or 2, with size/smoothness
    certificate.

    evaluate: (n, k) float points -> values.  The certificate samples
    annuli and records sup of |y|^k |K| + |y|^{k+1} |grad K| (1.0 for the
    normalized convention); annular cancellation is checked by quadrature
    at validation time.
    """

    k: int
    evaluate: object
    name: str = "kernel"

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ValueError("only k <= 2 balls are realized")

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """K at the rows of pts (n, k); points of another width are refused."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[-1] != self.k:
            raise ValueError(f"{self.name} is a kernel on R^{self.k}, "
                             f"got points in R^{pts.shape[-1]}")
        return np.asarray(self.evaluate(pts), dtype=float)

    def size_certificate(self) -> float:
        """sup of |y|^k |K| + |y|^{k+1} |grad K| over 25 radii from 1/2 to
        64, at 64 angles each on R^2."""
        worst = 0.0
        for rad in np.geomspace(0.5, 64, 25):
            if self.k == 1:
                ys = np.array([[rad], [-rad]])
            else:
                th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
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

    def validate(self):
        """Raise KernelError if an annular integral exceeds 1e-6."""
        for r1, r2 in ((0.5, 1.0), (1.0, 4.0), (0.25, 8.0)):
            defect = self.cancellation_defect(r1, r2, tol=1e-8)
            if defect > 1e-6:
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
    return CZKernelSpec(1, ev, name=f"{c}/y")


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


def _oscillation(xi: np.ndarray, Q: PolynomialMapping, kernel=None):
    """y -> e(<xi, Q(y)>) K(y) on (n, k) points (K = 1 without a kernel)."""
    def f(y):
        vals = np.exp(2j * np.pi * (Q.eval_real(y) @ xi))
        return vals if kernel is None else vals * kernel.eval_many(y)
    return f


def continuous_avg_multiplier(N: float, xi, Q: PolynomialMapping,
                              tol: float = 1e-8) -> complex:
    """Phi_N(xi) = |B_1|^{-1} int_{B_1} e(<xi, Q(N y)>) dy.

    Scaling moves N onto the frequency: Phi_N(xi) = Phi_1(N^A xi).
    B_1 is the unit ball: the interval (-1, 1) for k = 1 (Gauss-Legendre
    panels) or the unit disk for k = 2 (Gauss-Legendre in r times the
    trapezoid rule in theta).
    """
    f = _oscillation(dilate(Q, N, np.atleast_1d(xi)), Q)
    if Q.k == 1:
        return complex(_refining_midpoint(
            lambda y: f(y[:, None]), -1.0, 1.0, tol) / 2.0)
    if Q.k == 2:
        return complex(_disk_integral(f, 0.0, 1.0, tol) / np.pi)
    raise ValueError("only k <= 2 balls are realized")


def continuous_singular_multiplier(t: float, xi, Q: PolynomialMapping,
                                   kernel: CZKernelSpec) -> complex:
    """Psi_t(xi) = p.v. int_{B_t} e(<xi, Q(y)>) K(y) dy.

    Dyadic annular decomposition from the outside in; each annulus is a
    proper integral, and cancellation makes the inner annuli negligible:
    summation stops once a term drops below tol = 1e-10.  Terms that grow
    for several consecutive annuli signal a kernel without cancellation.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    tol = 1e-10
    total = 0.0 + 0.0j
    prev_mag = None
    growth = 0
    for m in range(MAX_ANNULI):
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


def annulus_integral(lo: float, hi: float, xi, Q: PolynomialMapping,
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
    raise ValueError("only k <= 2 balls are realized")


def scale_norm(N: float, xi, Q: PolynomialMapping) -> float:
    """The decay parameter ||N^A xi||_inf."""
    return float(np.max(np.abs(dilate(Q, N, np.atleast_1d(xi)))))


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
                           offsets, Q: PolynomialMapping,
                           tol: float = 1e-8) -> dict:
    """Compare m_N at xi = a/q + offsets with G(a/q) Phi_N(offsets).

    Returns observed error, the window's explicit bound, and their ratio.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    window.check(frac.q, offsets, Q.degrees)
    xi = frac.as_floats() + offsets
    m = avg_multiplier(window.N, xi, Q)
    g = gauss_sum(frac.q, frac.numerators, Q)
    phi = continuous_avg_multiplier(window.N, offsets, Q, tol=tol)
    err = abs(m - g * phi)
    bound = window.error_bound(Q.degrees)
    return {"error": err, "bound": bound, "ratio": err / bound,
            "m": m, "gauss": g, "phi": phi}


def major_arc_diff_check(window: ArcWindow, M: int, frac: RationalPoint,
                         offsets, Q: PolynomialMapping, kernel: CZKernelSpec,
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
