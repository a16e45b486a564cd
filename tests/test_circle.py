import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radonlab import circle as ci
from radonlab.errors import BudgetError, NotRepresentableError
from radonlab.expsum import avg_multiplier
from radonlab.operators import (GridFunction, apply_truncation,
                                grid_difference, pushforward_kernel)
from radonlab.polymap import canonical_mapping

Q_1D = canonical_mapping(1, 1)     # y
Q_PAIR = canonical_mapping(1, 2)   # (y, y^2)


# Ionescu-Wainger denominator sets ------------------------------------------

def test_params_derived_values():
    p = ci.IWParams(1.0, 4)
    assert (p.N0, p.D) == (3, 3)
    assert p.window_primes == ()
    p5 = ci.IWParams(1.0, 5)
    assert (p5.N0, p5.D) == (3, 3)
    assert p5.window_primes == (5,)


def test_params_cache_derived_values_outside_identity():
    # N0, D and window_primes are computed once and kept on the instance;
    # equality, hash and repr still read (rho, N) only.
    p, fresh = ci.IWParams(0.5, 30), ci.IWParams(0.5, 30)
    assert p.N0 == int(math.floor(30 ** 0.25 + 1e-9)) + 1 == 3
    assert p.D == int(math.floor(2 / 0.5 + 1e-9)) + 1 == 5
    assert p.window_primes == tuple(
        n for n in range(p.N0 + 1, 31)
        if all(n % m for m in range(2, math.isqrt(n) + 1)))
    assert {"N0", "D", "window_primes"} <= set(vars(p))
    assert p.window_primes is p.window_primes
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) == "IWParams(rho=0.5, N=30)"
    assert p != ci.IWParams(0.5, 31) and p != ci.IWParams(0.25, 30)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.N = 31


def test_params_validation():
    with pytest.raises(ValueError):
        ci.IWParams(0.0, 4)
    with pytest.raises(ValueError):
        ci.IWParams(1.0, -1)


def test_exact_power_floor():
    # 4^(1/2) must floor to 2, not 1, despite float representation
    assert ci.IWParams(1.0, 4).N0 == 3
    assert ci.IWParams(0.5, 16).N0 == 3  # 16^(1/4) = 2


def test_rough_products_single_window_prime():
    assert ci.rough_products(ci.IWParams(1.0, 5)) == [5, 25, 125]


def test_p4_is_divisors_of_216():
    ds = ci.denominator_set(4, 1.0)
    assert ds.members == (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 27, 36, 54, 72,
                          108, 216)
    assert ds.cardinality == 16 and not ds.truncated
    assert all(216 % q == 0 for q in ds.members)


def test_p5_products_and_count():
    ds = ci.denominator_set(5, 1.0)
    assert len(ds.members) == 64
    assert ds.cardinality == 64
    expect = sorted({q * w for q in ci.denominator_set(4, 1.0).members
                     for w in (1, 5, 25, 125)})
    assert list(ds.members) == expect


def test_initial_segment_contained():
    for N, rho in [(4, 1.0), (5, 1.0), (9, 1.0), (10, 0.5)]:
        ds = ci.denominator_set(N, rho, cap=10 ** 6)
        assert all(q in set(ds.members) for q in range(1, N + 1))


def test_nesting_chain():
    prev: set = set()
    for N in (2, 3, 4, 5, 9, 16):
        cur = set(ci.denominator_set(N, 1.0, cap=10 ** 6).members)
        assert prev <= cur
        prev = cur


def test_uniqueness_via_cardinality():
    # every product Q*w distinct <=> generated count matches closed form
    for N, rho in [(5, 1.0), (9, 1.0), (16, 1.0), (8, 0.5)]:
        ds = ci.denominator_set(N, rho)
        assert len(ds.members) == ci.pn_cardinality(ds.params)


def test_empty_base_set():
    ds = ci.denominator_set(0, 1.0)
    assert ds.members == () and ds.cardinality == 0 and not ds.truncated


def test_capped_segment_exact():
    full = set(ci.denominator_set(5, 1.0).members)
    seg = ci.denominator_set(5, 1.0, cap=100)
    assert set(seg.members) == {q for q in full if q <= 100}
    assert seg.truncated and seg.cardinality == 64
    assert seg.members[-1] == 100


def test_set_budget_refusal_carries_exact_count():
    with pytest.raises(BudgetError) as exc:
        ci.denominator_set(30, 0.5)
    assert exc.value.estimate == ci.pn_cardinality(ci.IWParams(0.5, 30))
    assert exc.value.estimate > 8_000_000


def test_containment_report():
    rep = ci.containment_report(ci.denominator_set(5, 1.0))
    assert rep["lower_holds"]
    # the upper inclusion wants every member below e^{N^rho}; at this
    # scale the largest member 216*125 = 27000 exceeds e^5, and the
    # report says so instead of pretending
    assert not rep["upper_holds"]
    assert rep["log_max_member"] == pytest.approx(math.log(27000))
    empty = ci.containment_report(ci.denominator_set(0, 1.0))
    assert empty["lower_holds"] and empty["upper_holds"]


def test_containment_needs_long_enough_segment():
    with pytest.raises(ValueError):
        ci.containment_report(ci.denominator_set(9, 1.0, cap=5))


# smooth-rough factorization -------------------------------------------------

def test_factor_identity():
    assert ci.factor_smooth_rough(1, ci.IWParams(1.0, 5)) == (1, 1)


def test_factor_split():
    assert ci.factor_smooth_rough(40, ci.IWParams(1.0, 5)) == (8, 5)


def test_factor_rejects_foreign_prime():
    with pytest.raises(NotRepresentableError):
        ci.factor_smooth_rough(7, ci.IWParams(1.0, 5))


def test_factor_rejects_excess_exponent():
    # 2^10 exceeds the exponent of 2 in Q0 = 216 = 2^3 3^3
    with pytest.raises(NotRepresentableError):
        ci.factor_smooth_rough(2 ** 10, ci.IWParams(1.0, 5))
    # 5^4 exceeds D = 3
    with pytest.raises(NotRepresentableError):
        ci.factor_smooth_rough(5 ** 4, ci.IWParams(1.0, 5))


def test_factor_exhaustive_roundtrip():
    for N, rho in [(5, 1.0), (9, 1.0), (8, 0.5)]:
        params = ci.IWParams(rho, N)
        rough = set(ci.rough_products(params)) | {1}
        q0 = math.factorial(params.N0) ** params.D
        for q in ci.denominator_set(N, rho).members:
            Q, w = ci.factor_smooth_rough(q, params)
            assert Q * w == q and q0 % Q == 0 and w in rough


# periodic application ---------------------------------------------------------

def _padded_field(rng, ndim, M, pad):
    vals = np.zeros((M,) * ndim, dtype=complex)
    inner = tuple(slice(pad, M - pad) for _ in range(ndim))
    vals[inner] = rng.standard_normal(vals[inner].shape)
    return GridFunction(tuple((0, M - 1) for _ in range(ndim)), vals)


def test_apply_identity(rng):
    f = _padded_field(rng, 1, 32, 4)
    g = ci.apply_periodic_multiplier(f, np.ones(32))
    assert grid_difference(f, g) < 1e-12


def test_apply_translation(rng):
    f = _padded_field(rng, 2, 8, 0)
    shift = np.array([1.0, 0.0])
    xis = ci.torus_frequencies((8, 8))
    g = ci.apply_periodic_multiplier(f, np.exp(2j * np.pi * (xis @ shift)))
    assert np.max(np.abs(g.values - np.roll(f.values, 1, axis=0))) < 1e-12


@pytest.mark.parametrize("Q,ndim,M", [(Q_1D, 1, 32), (Q_PAIR, 2, 32)])
def test_apply_matches_spatial_operator(Q, ndim, M, rng):
    # periodic multiplier application reproduces the direct averaging
    # operator when the data is padded clear of wraparound
    N = 2
    f = _padded_field(rng, ndim, M, M // 2 - 2)
    spectral = ci.apply_periodic_multiplier(
        f, avg_multiplier(N, ci.torus_frequencies((M,) * ndim), Q))
    spatial = apply_truncation(f, pushforward_kernel(Q, N))
    assert grid_difference(spectral, spatial) < 1e-10


def test_apply_composition_is_pointwise_product(rng):
    N = 2
    f = _padded_field(rng, 1, 64, 24)
    m = avg_multiplier(N, ci.torus_frequencies((64,)), Q_1D)
    m2 = m ** 2
    twice = ci.apply_periodic_multiplier(
        ci.apply_periodic_multiplier(f, m), m)
    once = ci.apply_periodic_multiplier(f, m2)
    assert grid_difference(twice, once) < 1e-10


def test_apply_requires_zero_based_box():
    f = GridFunction(((1, 4),), np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        ci.apply_periodic_multiplier(f, np.ones(4))


def test_torus_frequencies_layout():
    xis = ci.torus_frequencies((8, 8))
    assert xis.shape == (64, 2)
    # every torus frequency a / 8 in the window [-1/2, 1/2), once each
    assert len({tuple(x) for x in xis * 8}) == 64
    assert xis.min() == -0.5 and xis.max() == 0.375


def test_apply_refuses_a_scalar_symbol(rng):
    f = _padded_field(rng, 1, 16, 2)
    for symbol in (1.0 + 0j, np.ones((16, 1)), np.ones(15)):
        with pytest.raises(ValueError):
            ci.apply_periodic_multiplier(f, symbol)


# properties -------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=500))
def test_factor_roundtrip_or_refusal(q):
    params = ci.IWParams(1.0, 9)
    members = set(ci.denominator_set(9, 1.0).members)
    try:
        Q, w = ci.factor_smooth_rough(q, params)
    except NotRepresentableError:
        assert q not in members
    else:
        assert Q * w == q and q in members


@given(st.integers(min_value=0, max_value=15),
       st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-4.0, max_value=4.0))
def test_apply_linearity(shift, a, b):
    rng = np.random.default_rng(99)
    f = _padded_field(rng, 1, 16, 0)
    g = _padded_field(rng, 1, 16, 0)

    theta = np.exp(2j * np.pi * ci.torus_frequencies((16,))[:, 0] * shift)

    lhs = ci.apply_periodic_multiplier(
        GridFunction(f.box, a * f.values + b * g.values), theta)
    rhs_f = ci.apply_periodic_multiplier(f, theta)
    rhs_g = ci.apply_periodic_multiplier(g, theta)
    assert np.max(np.abs(lhs.values - a * rhs_f.values
                         - b * rhs_g.values)) < 1e-9
