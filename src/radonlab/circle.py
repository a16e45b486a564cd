"""Ionescu-Wainger denominator sets and periodic multiplier application.

The Ionescu-Wainger construction splits every admissible denominator as
q = Q * w with Q dividing Q0 = (N0!)^D and w a product of at most D
distinct primes from (N0, N], each at exponent between 1 and D.  The
denominator set P_N collects those q; it is built exactly (or on a
capped segment [1, cap]), its size is known in closed form, and both
inclusions of the sandwich {1..N} in P_N in [1, e^{N^rho}] are checked
and reported, never assumed.

A multiplier acts on M-periodic data on Z_M^d through the DFT:
`torus_frequencies` lists the frequency of each grid point, and
`apply_periodic_multiplier` multiplies the spectrum by the symbol's
values there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, NotRepresentableError
from .expsum import torus_reduce
from .operators import GridFunction

SET_BUDGET = 2_000_000


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
    """Denominator-set parameters.  The derived values are computed on
    first use and kept; equality, hash and repr read (rho, N) only."""

    rho: float
    N: int

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("need rho > 0")
        if self.N < 0:
            raise ValueError("need N >= 0")

    @functools.cached_property
    def N0(self) -> int:
        # The nudge keeps exact integer powers (e.g. 4^(1/2)) from
        # rounding below their true floor.
        return int(math.floor(self.N ** (self.rho / 2) + 1e-9)) + 1

    @functools.cached_property
    def D(self) -> int:
        return int(math.floor(2 / self.rho + 1e-9)) + 1

    @functools.cached_property
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

    `members` ascend; `cardinality` is the exact full-set size
    regardless of capping.
    """

    params: IWParams
    members: tuple[int, ...]
    cap: int | None
    cardinality: int
    truncated: bool


def denominator_set(N: int, rho: float,
                    cap: int | None = None) -> DenominatorSet:
    """P_N = {Q * w: Q | Q0, w in Pi union {1}}.

    N = 0 gives the empty set.  A set, or a capped segment, of more than
    SET_BUDGET members is refused with a BudgetError.
    """
    params = IWParams(rho, N)
    if N == 0:
        return DenominatorSet(params, (), cap, 0, False)
    card = pn_cardinality(params)
    if cap is None and card > SET_BUDGET:
        raise BudgetError(f"P_{N} holds {card} members "
                          f"(budget {SET_BUDGET}); "
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
    if len(members) > SET_BUDGET:
        raise BudgetError(f"capped segment still holds {len(members)} "
                          f"members (budget {SET_BUDGET})",
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
