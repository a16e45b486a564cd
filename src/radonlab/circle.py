"""Arithmetic denominator sets, arc cutoffs, and periodic multiplier families.

The Ionescu-Wainger construction splits every admissible denominator as
q = Q * w with Q dividing Q0 = (N0!)^D and w a product of at most D
distinct primes from (N0, N], each at exponent between 1 and D.  Around
the reduced fractions with those denominators we place anisotropically
scaled copies of a fixed smooth cutoff; sums of such bumps, optionally
weighted by Gauss sums and oscillatory-integral differences, form the
multiplier families the variational estimates run on.

Two regimes coexist.  The asymptotic regime couples the cutoff dilations to
the denominator growth (exponentially small in N); those scales leave
the floating-point range almost immediately.  Every builder therefore
takes its scale parameters explicitly and reports, per configuration,
whether the asymptotic constraints hold (`regime["asymptotic"]`) or the
object is a model-scale analogue.  Support disjointness of the bumps is
likewise computed and reported, never assumed.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, NotRepresentableError
from .expsum import (RationalPoint, annulus_integral, gauss_sum,
                     residue_classes, torus_reduce)
from .operators import GridFunction

SET_BUDGET = 2_000_000
FRACTION_BUDGET = 5_000_000
PAIR_BUDGET = 40_000_000

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


@functools.lru_cache(maxsize=32)
def _primes_upto(n: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(int(p) for p in np.nonzero(sieve)[0])


def _legendre_valuation(n: int, p: int) -> int:
    """Exponent of p in n! (Legendre's formula)."""
    s, pk = 0, p
    while pk <= n:
        s += n // pk
        pk *= p
    return s


@dataclass(frozen=True)
class IWParams:
    """Denominator-set parameters; derived values are always recomputed."""

    rho: float
    N: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("need rho > 0")
        if self.N < 0:
            raise ValueError("need N >= 0")

    @property
    def N0(self) -> int:
        # The nudge keeps exact integer powers (e.g. 4^(1/2)) from
        # rounding below their true floor.
        return int(math.floor(self.N ** (self.rho / 2) + 1e-9)) + 1

    @property
    def D(self) -> int:
        return int(math.floor(2 / self.rho + 1e-9)) + 1

    @property
    def Q0(self) -> int:
        return math.factorial(self.N0) ** self.D

    @property
    def window_primes(self) -> tuple[int, ...]:
        return tuple(p for p in _primes_upto(self.N) if p > self.N0)


def smooth_divisors(params: IWParams, cap: int | None = None) -> list[int]:
    """All divisors of Q0 (at most `cap`), ascending."""
    divs = [1]
    for p in _primes_upto(params.N0):
        e_max = params.D * _legendre_valuation(params.N0, p)
        powers = []
        pe = 1
        for _ in range(e_max):
            pe *= p
            if cap is not None and pe > cap:
                break
            powers.append(pe)
        divs = [d * pe for d in divs for pe in [1] + powers
                if cap is None or d * pe <= cap]
    return sorted(set(divs))


def rough_products(params: IWParams, cap: int | None = None) -> list[int]:
    """Products of 1..D distinct primes from (N0, N], exponents 1..D.

    With a cap, exactly the members <= cap are produced (depth-first
    over ascending primes with pruning, so nothing under the cap is
    missed).
    """
    primes = params.window_primes
    out: list[int] = []

    def extend(start: int, value: int, length: int):
        for i in range(start, len(primes)):
            p = primes[i]
            v = value
            for _ in range(params.D):
                v *= p
                if cap is not None and v > cap:
                    break
                out.append(v)
                if length + 1 < params.D:
                    extend(i + 1, v, length + 1)

    extend(0, 1, 0)
    return sorted(set(out))


def pn_cardinality(params: IWParams) -> int:
    """|P_N| in closed form: d(Q0) * (|Pi| + 1).

    Valid because the smooth part (primes <= N0) and the rough part
    (primes in (N0, N]) have disjoint prime support, so all products
    Q * w are distinct.
    """
    if params.N == 0:
        return 0
    d_q0 = 1
    for p in _primes_upto(params.N0):
        d_q0 *= params.D * _legendre_valuation(params.N0, p) + 1
    npr = len(params.window_primes)
    pi_count = sum(math.comb(npr, k) * params.D ** k
                   for k in range(1, params.D + 1))
    return d_q0 * (pi_count + 1)


@dataclass(frozen=True)
class DenominatorSet:
    """P_N, possibly restricted to the segment [1, cap].

    `cardinality` is the exact full-set size regardless of capping.
    """

    params: IWParams
    members: tuple[int, ...]
    cap: int | None
    cardinality: int
    truncated: bool

    def __contains__(self, q: int) -> bool:
        if self.cap is not None and q > self.cap:
            raise ValueError("membership undecidable beyond the cap")
        i = bisect.bisect_left(self.members, q)
        return i < len(self.members) and self.members[i] == q


def denominator_set(N: int, rho: float, cap: int | None = None,
                    budget: int = SET_BUDGET) -> DenominatorSet:
    """P_N = {Q * w: Q | Q0, w in Pi union {1}}.

    N = 0 gives the empty set: the shell decompositions below difference
    consecutive fraction sets starting from s = 0, and an empty base
    makes the shells partition exactly.
    """
    params = IWParams(rho, N)
    if N == 0:
        return DenominatorSet(params, (), cap, 0, False)
    card = pn_cardinality(params)
    if cap is None and card > budget:
        raise BudgetError(f"P_{N} holds {card} members (budget {budget}); "
                          f"pass a cap to work on a segment",
                          estimate=card)
    smooth = smooth_divisors(params, cap)
    rough = [1] + rough_products(params, cap)
    members: set[int] = set()
    for w in rough:
        for q in smooth:
            v = q * w
            if cap is not None and v > cap:
                break
            members.add(v)
    if len(members) > budget:
        raise BudgetError(f"capped segment still holds {len(members)} "
                          f"members (budget {budget})",
                          estimate=len(members))
    ordered = tuple(sorted(members))
    return DenominatorSet(params, ordered, cap, card,
                          cap is not None and card > len(ordered))


def containment_report(dset: DenominatorSet) -> dict:
    """Both inclusions of the denominator sandwich, checked exactly.

    Lower: {1, ..., N} is a subset of P_N (needs cap >= N when capped).
    Upper: every member is at most e^{N^rho}; compared in logs against
    the exact integer maximum, which is known in closed form even for a
    capped segment.  The upper inclusion fails at small N (the smooth
    part alone outgrows e^{N^rho}); it is reported, never assumed.
    """
    params = dset.params
    N, rho = params.N, params.rho
    if N == 0:
        return {"lower_holds": True, "upper_holds": True,
                "log_max_member": -math.inf, "log_bound": -math.inf}
    if dset.cap is not None and dset.cap < N:
        raise ValueError("segment too short to decide the lower inclusion")
    members = set(dset.members)
    lower = all(q in members for q in range(1, N + 1))
    # max(P_N) = Q0 * max(Pi): top-D window primes, each at exponent D.
    log_max = float(sum(math.log(math.factorial(params.N0))
                        for _ in range(params.D)))
    tops = sorted(params.window_primes)[-params.D:]
    log_max += params.D * sum(math.log(p) for p in tops)
    log_bound = float(N) ** rho
    return {"lower_holds": bool(lower),
            "upper_holds": bool(log_max <= log_bound),
            "log_max_member": log_max, "log_bound": log_bound}


def factor_smooth_rough(q: int, params: IWParams) -> tuple[int, int]:
    """The unique split q = Q * w with Q | Q0 and w in Pi union {1}."""
    if q < 1:
        raise ValueError("need q >= 1")
    if q == 1:
        return (1, 1)
    # Representable q has no prime factor beyond max(N0, N), so trial
    # division stops there even when q itself is a huge product of prime
    # powers; a generic sqrt(q) sweep would be hopeless for the big
    # members of a full set.
    bound = max(params.N0, params.N)
    fac: dict[int, int] = {}
    rest = q
    for p in _primes_upto(bound):
        if p * p > rest:
            break
        while rest % p == 0:
            fac[p] = fac.get(p, 0) + 1
            rest //= p
    if rest > bound:
        raise NotRepresentableError(
            f"{q}: has a prime factor beyond ({params.N0}, {params.N}]")
    if rest > 1:
        fac[rest] = fac.get(rest, 0) + 1
    Q = w = 1
    rough_primes = []
    for p, e in sorted(fac.items()):
        if p <= params.N0:
            if e > params.D * _legendre_valuation(params.N0, p):
                raise NotRepresentableError(
                    f"{q}: exponent of {p} exceeds its exponent in Q0")
            Q *= p ** e
        else:
            if e > params.D:
                raise NotRepresentableError(
                    f"{q}: exponent of {p} exceeds D = {params.D}")
            rough_primes.append(p)
            w *= p ** e
    if len(rough_primes) > params.D:
        raise NotRepresentableError(
            f"{q}: {len(rough_primes)} distinct window primes exceed "
            f"D = {params.D}")
    return (Q, w)


# -- reduced fraction lattices ----------------------------------------------------

@dataclass(frozen=True)
class FractionSet:
    """Reduced rational points a/q in the torus, least denominator first."""

    members: tuple[RationalPoint, ...]
    d: int

    def __len__(self) -> int:
        return len(self.members)

    def as_array(self) -> np.ndarray:
        if not self.members:
            return np.zeros((0, self.d))
        return np.array([[n / f.q for n in f.numerators]
                         for f in self.members])

    def keys(self) -> set[tuple]:
        return {(f.numerators, f.q) for f in self.members}


def fraction_set(denominators, d: int,
                 budget: int = FRACTION_BUDGET) -> FractionSet:
    """R(S) = {a/q in Q^d on the torus: a in A_q, q in S}.

    Joint-gcd reduction makes representatives unique across q, which the
    least-denominator dedup asserts rather than trusts.
    """
    qs = sorted(set(int(q) for q in denominators))
    if any(q < 1 for q in qs):
        raise ValueError("denominators must be positive")
    total = sum(q ** d for q in qs)
    if total > budget:
        raise BudgetError(f"enumerating A_q costs {total} residue tuples "
                          f"(budget {budget})", estimate=total)
    seen: dict[tuple, RationalPoint] = {}
    for q in qs:
        for row in residue_classes(q, d):
            pt = RationalPoint(tuple(int(c) for c in row), q)
            key = (pt.numerators, pt.q)
            if key in seen:
                raise AssertionError(
                    f"reduced fraction {key} produced twice; A_q "
                    f"enumeration is broken")
            seen[key] = pt
    members = tuple(sorted(seen.values(),
                           key=lambda f: (f.q, f.numerators)))
    return FractionSet(members, d)


def unit_fraction_lattice(n: int, l: int, rho: float, d: int,
                          cap: int | None = None,
                          set_budget: int = SET_BUDGET,
                          budget: int = FRACTION_BUDGET) -> FractionSet:
    """U_{n^l}: the reduced fractions over the denominator set P_{n^l}."""
    if n == 0:
        return FractionSet((), d)
    dset = denominator_set(n ** l, rho, cap=cap, budget=set_budget)
    return fraction_set(dset.members, d, budget=budget)


def shell_fractions(s: int, l: int, rho: float, d: int,
                    cap: int | None = None) -> FractionSet:
    """The s-th shell U_{(s+1)^l} minus U_{s^l}."""
    outer = unit_fraction_lattice(s + 1, l, rho, d, cap=cap)
    inner_keys = unit_fraction_lattice(s, l, rho, d, cap=cap).keys()
    members = tuple(f for f in outer.members
                    if (f.numerators, f.q) not in inner_keys)
    return FractionSet(members, d)


# -- the smooth cutoff ---------------------------------------------------------------

@dataclass
class BumpFunction:
    """Radial cutoff: 1 inside radius 1/(16 d), 0 outside 1/(8 d).

    The radial profile mollifies the indicator of [0, 3/(32 d)] with the
    standard exp(-1/(1-t^2)) bump scaled to 1/(32 d), cached on a radial
    grid.  It is built from the even bump's half-line masses
    m(a) = int_0^a: the tail beyond offset a is 1/2 - sign(a) m(|a|) /
    (2 m(1)), so the profile is exactly 1/2 at the indicator radius,
    reflects exactly about it, and is accurate to roundoff at the grid
    radii.  Between them `profile` interpolates linearly (error ~2e-7).
    """

    d: int
    grid_points: int = 2049
    _radii: np.ndarray = field(init=False, repr=False)
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")
        R, eps = self.indicator_radius, self.mollifier_radius

        def mass(a):
            # integral of the bump over [0, a], 0 <= a <= 1; the bump is
            # smooth on [0, a], flat only at the shared endpoint t = 1
            nodes = 0.5 * a * (_GL_NODES + 1)
            return 0.5 * a * (_GL_WEIGHTS * _bump_profile(nodes)).sum()

        half = mass(1.0)

        def tail_mass(a):
            # integral of the normalized bump over [a, 1]
            return 0.5 - math.copysign(mass(abs(a)), a) / (2 * half)

        radii = np.linspace(R - eps, R + eps, self.grid_points)
        values = np.array([tail_mass((s - R) / eps) for s in radii])
        if np.any(np.diff(values) > 1e-12):
            raise AssertionError("cutoff profile must decrease radially")
        # Roundoff (~1e-16) can wiggle the flat tails; pin the cached
        # profile to be exactly monotone within [0, 1].
        self._radii = radii
        self._values = np.minimum.accumulate(np.clip(values, 0.0, 1.0))

    @property
    def support_radius(self) -> float:
        return 1.0 / (8 * self.d)

    @property
    def plateau_radius(self) -> float:
        return 1.0 / (16 * self.d)

    @property
    def indicator_radius(self) -> float:
        return 3.0 / (32 * self.d)

    @property
    def mollifier_radius(self) -> float:
        return 1.0 / (32 * self.d)

    def profile(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self._radii, self._values)
        out = np.where(r <= self._radii[0], 1.0, out)
        out = np.where(r >= self._radii[-1], 0.0, out)
        return out

    def __call__(self, x) -> np.ndarray:
        """Evaluate at points of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.d:
            raise ValueError("point dimension mismatch")
        return self.profile(np.sqrt((x * x).sum(axis=-1)))


def _bump_profile(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


# -- multiplier families ---------------------------------------------------------------

@dataclass
class ArcMultiplier:
    """Sum over fraction centers of per-center terms in the torus offset.

    `separation` reports whether the scaled supports are pairwise
    disjoint (exact criterion: all supports are the radius-1/(8d) ball
    pulled back through one common dilation, so disjointness is
    equivalent to scaled center distances exceeding 1/(4d)); `regime`
    reports whether the configuration satisfies the asymptotic dilation
    constraints or is a model-scale analogue.
    """

    centers: np.ndarray
    term: object
    d: int
    label: str
    separation: dict
    regime: dict

    def __call__(self, xi):
        """Sum of the center terms at one frequency (d,), giving a
        complex, or at each row of a batch (F, d), giving an (F,) array."""
        xi = np.asarray(xi, dtype=float)
        xis = np.atleast_2d(xi)
        if xi.ndim > 2 or xis.shape[1] != self.d:
            raise ValueError("frequency dimension mismatch")
        out = np.zeros(len(xis), dtype=complex)
        for i in range(len(self.centers)):
            theta = torus_reduce(xis - self.centers[i])
            out += self.term(i, theta)
        return out if xi.ndim == 2 else complex(out[0])


def separation_report(centers: np.ndarray, scales: np.ndarray, d: int,
                      pair_budget: int = PAIR_BUDGET) -> dict:
    m = len(centers)
    threshold = 1.0 / (4 * d)
    if m <= 1:
        return {"checked": True, "min_scaled_distance": math.inf,
                "threshold": threshold, "disjoint": True, "pairs": 0}
    n_pairs = m * (m - 1) // 2
    if n_pairs > pair_budget:
        return {"checked": False, "min_scaled_distance": None,
                "threshold": threshold, "disjoint": None, "pairs": n_pairs}
    best = math.inf
    for i in range(m - 1):
        diff = torus_reduce(centers[i + 1:] - centers[i]) * scales
        best = min(best, float(np.sqrt((diff * diff).sum(axis=1)).min()))
    return {"checked": True, "min_scaled_distance": best,
            "threshold": threshold, "disjoint": best > threshold,
            "pairs": n_pairs}


def _asymptotic_regime(n: int, l: int, rho: float, chi: float,
                       degrees: np.ndarray) -> dict:
    """The asymptotic construction couples 10*rho*l = 1 and needs the
    cutoff dilations 2^{-n(|gamma|-chi)} below e^{-n^{2 rho l}}."""
    coupling = abs(10 * rho * l - 1.0) < 1e-12
    if n > 0:
        dilation = bool(np.all(n * (degrees - chi) * math.log(2)
                               >= float(n) ** (2 * rho * l)))
    else:
        dilation = False
    return {"asymptotic": coupling and dilation, "coupling_ok": coupling,
            "dilation_ok": dilation}


def arc_projection(n: int, l: int, rho: float, chi: float, Q,
                   level_j: int | None = None,
                   cap: int | None = None) -> ArcMultiplier:
    """The projection multiplier concentrating near U_{n^l}.

    With level_j None this is the chi-smoothed version (dilations
    2^{n(|gamma|-chi)}); with an integer level_j the level version with
    dilations 2^{n|gamma|+j}.
    """
    degrees = np.asarray(Q.degrees, dtype=float)
    d = Q.d
    fractions = unit_fraction_lattice(n, l, rho, d, cap=cap)
    centers = fractions.as_array()
    if level_j is None:
        scales = 2.0 ** (n * (degrees - chi))
        label = f"projection(n={n}, l={l})"
    else:
        scales = 2.0 ** (n * degrees + level_j)
        label = f"projection(n={n}, j={level_j}, l={l})"
    eta = BumpFunction(d)

    def term(i, theta):
        return eta(theta * scales).astype(complex)

    return ArcMultiplier(centers, term, d, label,
                         separation_report(centers, scales, d),
                         _asymptotic_regime(n, l, rho, chi, degrees))


def projection_shell_difference(n: int, s: int, j: int, l: int, rho: float,
                                chi: float, Q,
                                cap: int | None = None) -> ArcMultiplier:
    """One shell of the level-difference decomposition.

    Centers run over the s-th shell; each term is the difference of two
    consecutive level cutoffs times the coarse shell cutoff, so summing
    over 0 <= s < n telescopes the level projections.
    """
    if not 0 <= s < n:
        raise ValueError("need 0 <= s < n")
    degrees = np.asarray(Q.degrees, dtype=float)
    d = Q.d
    fractions = shell_fractions(s, l, rho, d, cap=cap)
    centers = fractions.as_array().reshape(len(fractions), d)
    eta = BumpFunction(d)
    fine = 2.0 ** (n * degrees + j)
    finer = 2.0 ** (n * degrees + j + 1)
    coarse = 2.0 ** (s * (degrees - chi))

    def term(i, theta):
        diff = eta(theta * fine) - eta(theta * finer)
        return (diff * eta(theta * coarse)).astype(complex)

    # Each term's support sits inside the finest cutoff's ball, so the
    # fine dilation gives the sharpest sufficient disjointness test.
    return ArcMultiplier(centers, term, d,
                         f"shell-difference(n={n}, s={s}, j={j})",
                         separation_report(centers, fine, d),
                         _asymptotic_regime(n, l, rho, chi, degrees))


def singular_arc_multiplier(j: int, l: int, rho: float, chi: float, Q,
                            kernel, shell_s: int | None = None,
                            cap: int | None = None,
                            tol: float = 1e-10) -> ArcMultiplier:
    """Gauss-sum weighted oscillatory difference pinned to the arcs.

    nu_{2^j}: centers U_{j^l}, cutoff dilated by 2^{j(|gamma|-chi)}.
    The shell variant restricts centers to the s-th shell and dilates
    the cutoff by 2^{s(|gamma|-chi)} instead.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    degrees = np.asarray(Q.degrees, dtype=float)
    d = Q.d
    if shell_s is None:
        fractions = unit_fraction_lattice(j, l, rho, d, cap=cap)
        scale_exp = j
        label = f"singular-arc(j={j}, l={l})"
    else:
        if shell_s >= j:
            raise ValueError("shell index must satisfy s < j")
        fractions = shell_fractions(shell_s, l, rho, d, cap=cap)
        scale_exp = shell_s
        label = f"singular-arc(j={j}, s={shell_s}, l={l})"
    centers = fractions.as_array().reshape(len(fractions), d)
    by_q: dict[int, list[int]] = {}
    for i, f in enumerate(fractions.members):
        by_q.setdefault(f.q, []).append(i)
    gauss = np.empty(len(fractions), dtype=complex)
    for q, rows in by_q.items():
        gauss[rows] = gauss_sum(
            q, [fractions.members[i].numerators for i in rows], Q)
    eta = BumpFunction(d)
    scales = 2.0 ** (scale_exp * (degrees - chi))

    def term(i, theta):
        cutoff = eta(theta * scales)
        out = np.zeros(len(theta), dtype=complex)
        live = np.nonzero(cutoff > 0.0)[0]
        for idx in live:
            osc = annulus_integral(2.0 ** (j - 1), 2.0 ** j, theta[idx],
                                   Q, kernel)
            out[idx] = gauss[i] * osc * cutoff[idx]
        return out

    return ArcMultiplier(centers, term, d, label,
                         separation_report(centers, scales, d),
                         _asymptotic_regime(j, l, rho, chi, degrees))


def telescope_defect(n: int, j: int, l: int, rho: float, chi: float, Q,
                     xis, cap: int | None = None) -> dict:
    """Max defect of the level-difference telescope over sample points.

    The level projections at j and j+1 should differ by the sum of the
    shell differences over 0 <= s < n; exact when the coarse shell
    cutoff is 1 on the support of the fine difference.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    upper = arc_projection(n, l, rho, chi, Q, level_j=j, cap=cap)
    lower = arc_projection(n, l, rho, chi, Q, level_j=j + 1, cap=cap)
    total = upper(xis) - lower(xis)
    for s in range(n):
        shell = projection_shell_difference(n, s, j, l, rho, chi, Q,
                                            cap=cap)
        total -= shell(xis)
    return {"max_defect": float(np.abs(total).max()),
            "points": len(xis)}


def shell_partition_defect(j: int, l: int, rho: float, chi: float, Q,
                           kernel, xis, cap: int | None = None) -> dict:
    """|nu - sum of its shells| over sample points, with the tail bound.

    The shells reuse nu's Gauss and oscillatory factors but carry the
    coarser cutoff, so the defect measures only cutoff disagreement; the
    reference decay is 2^{-chi j / d}.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    full = singular_arc_multiplier(j, l, rho, chi, Q, kernel, cap=cap)
    total = full(xis)
    for s in range(j):
        shell = singular_arc_multiplier(j, l, rho, chi, Q, kernel,
                                        shell_s=s, cap=cap)
        total -= shell(xis)
    defect = float(np.abs(total).max())
    reference = 2.0 ** (-chi * j / Q.d)
    return {"max_defect": defect, "reference": reference,
            "ratio": defect / reference, "points": len(xis)}


# -- periodic application ----------------------------------------------------------------

def torus_frequencies(shape) -> np.ndarray:
    """The (M^d, d) frequencies -a / M of the Z_M grid of `shape`, in C
    order of a and reduced into [-1/2, 1/2): the DFT of a periodic grid
    function at a is its Fourier transform at this frequency."""
    idx = np.indices(shape).reshape(len(shape), -1).T
    return torus_reduce(-idx / np.array(shape, dtype=float))


def apply_periodic_multiplier(f, symbol):
    """Realize the convolution operator with a symbol on Z_M data.

    f is a GridFunction whose box starts at 0 per coordinate (one period
    of M-periodic data).  symbol holds the M^d values of the multiplier
    at torus_frequencies(f.values.shape), in that order; the forward DFT
    is multiplied by them pointwise and inverted.  For M-periodic data
    this is the exact Fourier-side action.
    """
    if any(lo != 0 for lo, _ in f.box):
        raise ValueError("periodic data must live on a box starting at 0")
    shape = f.values.shape
    symbol = np.asarray(symbol, dtype=complex)
    if symbol.shape != (math.prod(shape),):
        raise ValueError("symbol must give one value per frequency")
    spectrum = np.fft.fftn(f.values) * symbol.reshape(shape)
    return GridFunction(f.box, np.fft.ifftn(spectrum))
