import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from radonlab import circle as ci
from radonlab.errors import BudgetError, NotRepresentableError
from radonlab.expsum import annulus_integral, avg_multiplier, odd_power_kernel
from radonlab.operators import (GridFunction, apply_truncation,
                                grid_difference)
from radonlab.polymap import canonical_mapping

Q_1D = canonical_mapping(1, 1)     # y
Q_PAIR = canonical_mapping(1, 2)   # (y, y^2)
KERNEL = odd_power_kernel(1.0)

# Shared desk-scale configuration: n=2, l=1, rho=1, chi=0.1 on (y, y^2)
# gives 64 reduced fractions with pairwise disjoint scaled bump supports.
ARC = dict(l=1, rho=1.0, chi=0.1)


# Ionescu-Wainger denominator sets ------------------------------------------

def test_params_derived_values():
    p = ci.IWParams(1.0, 4)
    assert (p.N0, p.D, p.Q0) == (3, 3, 216)
    assert p.window_primes == ()
    p5 = ci.IWParams(1.0, 5)
    assert (p5.N0, p5.D, p5.Q0) == (3, 3, 216)
    assert p5.window_primes == (5,)


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
    assert 40 in ds and 7 not in ds


def test_membership_at_the_ends_and_the_cap():
    ds = ci.denominator_set(4, 1.0)
    assert 1 in ds and 216 in ds
    assert 0 not in ds and 5 not in ds and 217 not in ds
    capped = ci.denominator_set(5, 1.0, cap=100)
    assert 100 in capped and 99 not in capped
    with pytest.raises(ValueError):
        101 in capped


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
    assert 40 in seg
    with pytest.raises(ValueError):
        101 in seg


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
        q0 = params.Q0
        for q in ci.denominator_set(N, rho).members:
            Q, w = ci.factor_smooth_rough(q, params)
            assert Q * w == q and q0 % Q == 0 and w in rough


# fraction lattices ----------------------------------------------------------

def test_fraction_set_examples():
    assert ci.fraction_set([1], 1).as_array().tolist() == [[0.0]]
    assert ci.fraction_set([2], 1).as_array().tolist() == [[0.5]]
    got = sorted(x for (x,) in ci.fraction_set([1, 2, 3], 1).as_array())
    assert got == pytest.approx([0.0, 1 / 3, 1 / 2, 2 / 3])


def test_fraction_set_dedup_is_exact():
    # 2/4 never appears: A_4 holds only reduced representatives, so the
    # point 1/2 enters once, with denominator 2
    fs = ci.fraction_set([1, 2, 4], 1)
    keys = fs.keys()
    assert ((1,), 2) in keys and ((2,), 4) not in keys
    assert len(fs) == len({tuple(row) for row in fs.as_array()})


def test_fraction_set_budget():
    with pytest.raises(BudgetError):
        ci.fraction_set([10 ** 4], 2)


def test_unit_lattice_nesting_and_empty_base():
    assert len(ci.unit_fraction_lattice(0, 1, 1.0, 2)) == 0
    u1 = ci.unit_fraction_lattice(1, 1, 1.0, 2)
    u2 = ci.unit_fraction_lattice(2, 1, 1.0, 2)
    u3 = ci.unit_fraction_lattice(3, 1, 1.0, 2, cap=100)
    assert u1.keys() <= u2.keys() <= u3.keys()


def test_shells_partition_unit_lattice():
    whole = ci.unit_fraction_lattice(3, 1, 1.0, 1, cap=100)
    pieces = [ci.shell_fractions(s, 1, 1.0, 1, cap=100) for s in range(3)]
    union: set = set()
    for piece in pieces:
        ks = piece.keys()
        assert not (union & ks)
        union |= ks
    assert union == whole.keys()


# the smooth cutoff ----------------------------------------------------------

def test_bump_plateau_and_support():
    for d in (1, 2, 3):
        eta = ci.BumpFunction(d)
        assert eta(np.zeros(d)) == 1.0
        e1 = np.zeros(d)
        e1[0] = 1.0
        assert eta(e1 / (4 * d)) == 0.0
        assert eta.profile(eta.plateau_radius) == 1.0
        assert eta.profile(eta.support_radius) == 0.0


def test_bump_profile_monotone_and_bounded():
    eta = ci.BumpFunction(2)
    r = np.linspace(0.0, 0.1, 400)
    v = eta.profile(r)
    assert np.all(np.diff(v) <= 0.0)
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_bump_midpoint():
    # symmetric mollifier: the profile passes through 1/2 exactly at the
    # indicator radius
    for d in (1, 2, 3):
        eta = ci.BumpFunction(d)
        assert eta.profile(eta.indicator_radius) == pytest.approx(0.5,
                                                                  abs=1e-12)


def test_bump_profile_reflects_about_indicator_radius():
    # an even mollifier gives profile(R - x) + profile(R + x) = 1 across
    # the whole transition band
    for d in (1, 2, 3):
        eta = ci.BumpFunction(d)
        R = eta.indicator_radius
        x = np.linspace(0.0, eta.mollifier_radius, 257)
        defect = eta.profile(R - x) + eta.profile(R + x) - 1.0
        assert np.abs(defect).max() <= 1e-12


def test_bump_profile_matches_adaptive_quadrature():
    # independent oracle: the normalized tail mass of the bump from
    # adaptive quadrature; unlike the midpoint and reflection checks this
    # sees a wrong normalizer
    def tail(a):
        return quad(ci._bump_profile, a, 1.0, epsabs=1e-16, epsrel=1e-13)[0]

    total = tail(-1.0)
    for d in (1, 2, 3):
        eta = ci.BumpFunction(d)
        R, eps = eta.indicator_radius, eta.mollifier_radius
        # cached grid radii, so linear interpolation adds no error
        for r in eta._radii[::64]:
            assert eta.profile(r) == pytest.approx(
                tail((r - R) / eps) / total, abs=1e-12)


def test_bump_validates_dimension():
    with pytest.raises(ValueError):
        ci.BumpFunction(0)
    with pytest.raises(ValueError):
        ci.BumpFunction(2)(np.zeros(3))


# arc projections ------------------------------------------------------------

def test_projection_plateau_at_centers():
    xi = ci.arc_projection(2, Q=Q_PAIR, **ARC)
    assert len(xi.centers) == 64
    assert xi.separation["disjoint"] is True
    assert np.allclose(xi(xi.centers), 1.0)


def test_projection_partition_bound(rng):
    # disjoint supports of [0,1]-valued bumps keep the sum within 1
    xi = ci.arc_projection(2, Q=Q_PAIR, **ARC)
    sample = rng.uniform(-0.5, 0.5, size=(500, 2))
    vals = xi(sample).real
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0 + 1e-9


def test_projection_vanishes_far_from_fractions():
    xi = ci.arc_projection(2, Q=Q_PAIR, **ARC)
    assert xi(np.array([0.437, 0.261])) == 0j


def test_arc_multiplier_batch_equals_single(rng):
    # rows near the centers land on the bump slopes; rows with zero
    # components and the zero frequency ride along
    for arc in (ci.arc_projection(2, Q=Q_PAIR, level_j=1, **ARC),
                ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL,
                                           **ARC)):
        offsets = rng.uniform(-1.0, 1.0, (8, 2)) * [2.0 ** -8, 2.0 ** -10]
        xis = arc.centers[:8] + offsets
        xis = np.vstack([xis, [[0.0, 0.0], [0.0, 0.01], [0.004, 0.0]]])
        batch = arc(xis)
        assert batch.shape == (11,)
        assert np.count_nonzero(batch) >= 3
        assert np.array_equal(batch, [arc(x) for x in xis])
        for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError):
                arc(bad)


def test_projection_overlap_reported_not_hidden():
    # chi = 0.5 at l = 2 crowds 216 fractions past their support radius
    xi = ci.arc_projection(2, 2, 1.0, 0.5, Q_1D)
    assert len(xi.centers) == 216
    assert xi.separation["disjoint"] is False
    assert xi.separation["min_scaled_distance"] < xi.separation["threshold"]


def test_projection_regime_flags():
    model = ci.arc_projection(2, Q=Q_PAIR, **ARC)
    assert model.regime == {"asymptotic": False, "coupling_ok": False,
                            "dilation_ok": False}
    # 10 * rho * l = 1 with a feasible dilation at n = 2
    coupled = ci.arc_projection(2, 1, 0.1, 0.1, Q_1D, cap=4)
    assert coupled.regime["coupling_ok"] and coupled.regime["dilation_ok"]
    assert coupled.regime["asymptotic"] is True


def test_projection_level_variant_scales_differ():
    base = ci.arc_projection(2, Q=Q_PAIR, **ARC)
    lev = ci.arc_projection(2, Q=Q_PAIR, level_j=3, **ARC)
    assert lev.label != base.label
    # much larger dilation shrinks every support: a point near a center
    # keeps the base projection at 1 but falls off the level bump
    probe = base.centers[1] + np.array([0.0, 2.0 ** -10])
    assert base(probe) == 1.0 + 0j
    assert lev(probe) == 0j


def test_shell_difference_validates_index():
    with pytest.raises(ValueError):
        ci.projection_shell_difference(2, 2, 0, Q=Q_PAIR, **ARC)
    with pytest.raises(ValueError):
        ci.projection_shell_difference(2, -1, 0, Q=Q_PAIR, **ARC)


def test_level_telescope_is_exact_here(rng):
    # the coarse shell cutoffs are 1 on the fine differences at these
    # scales, so the telescope closes with zero defect
    xis = rng.uniform(-0.5, 0.5, size=(60, 2))
    rep = ci.telescope_defect(2, 0, Q=Q_PAIR, xis=xis, **ARC)
    assert rep["points"] == 60
    assert rep["max_defect"] <= 1e-12


# singular arc multipliers ----------------------------------------------------

def test_singular_vanishes_at_centers():
    nu = ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL, **ARC)
    assert nu.separation["disjoint"] is True
    # at each center the oscillatory factor is the annulus sum of the
    # odd kernel at frequency zero, which cancels
    vals = nu(nu.centers)
    assert np.max(np.abs(vals)) == 0.0


def test_singular_matches_manual_term():
    nu = ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL, **ARC)
    xi = np.array([0.005, 0.001])
    # inside the plateau of the center at 0, so the cutoff is exactly 1
    want = annulus_integral(2.0, 4.0, xi, Q_PAIR, KERNEL)
    assert nu(xi) == pytest.approx(want, abs=1e-14)
    assert nu(xi) != 0


def test_singular_conjugate_symmetry():
    nu = ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL, **ARC)
    for xi in (np.array([0.005, 0.001]), np.array([0.013, -0.002])):
        assert nu(-xi) == pytest.approx(np.conj(nu(xi)), abs=1e-14)


def test_singular_validates_indices():
    with pytest.raises(ValueError):
        ci.singular_arc_multiplier(0, Q=Q_PAIR, kernel=KERNEL, **ARC)
    with pytest.raises(ValueError):
        ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL, shell_s=2,
                                   **ARC)


def test_shell_partition_within_tail_bound(rng):
    # the shells reuse nu's weights under coarser cutoffs; the observed
    # disagreement stays below the 2^{-chi j / d} tail reference
    xis = rng.uniform(-0.5, 0.5, size=(40, 2))
    rep = ci.shell_partition_defect(2, Q=Q_PAIR, kernel=KERNEL, xis=xis,
                                    **ARC)
    assert rep["reference"] == pytest.approx(2.0 ** (-0.1 * 2 / 2))
    assert rep["ratio"] < 1.0
    assert rep["max_defect"] > 0.0  # honest: the partition is not exact


def test_shell_centers_partition_nu_centers():
    nu = ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL, **ARC)
    shell_counts = []
    for s in range(2):
        piece = ci.singular_arc_multiplier(2, Q=Q_PAIR, kernel=KERNEL,
                                           shell_s=s, **ARC)
        shell_counts.append(len(piece.centers))
    assert sum(shell_counts) == len(nu.centers)


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
    spatial = apply_truncation(f, Q, N)
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


@given(st.floats(min_value=0.0, max_value=0.2),
       st.floats(min_value=0.0, max_value=0.2))
def test_bump_profile_monotone_property(r1, r2):
    eta = ci.BumpFunction(2)
    lo, hi = sorted((r1, r2))
    assert eta.profile(lo) >= eta.profile(hi)


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
