import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import j1, sici

from radonlab import expsum as es
from radonlab.errors import BudgetError, KernelError, QuadratureError
from radonlab.experiments import RunConfig, run
from radonlab.operators import pushforward_kernel
from radonlab.polymap import canonical_mapping, lattice_points

Q_LIN = canonical_mapping(1, 1)    # y
Q_QUAD = canonical_mapping(1, 2)   # (y, y^2)


# Gauss sums --------------------------------------------------------------

def test_gauss_trivial_modulus():
    assert es.gauss_sum(1, (0,), Q_LIN) == pytest.approx(1.0)


def test_gauss_linear_full_cancellation():
    assert abs(es.gauss_sum(5, (2,), Q_LIN)) == pytest.approx(0.0, abs=1e-14)


def test_gauss_cubic_example():
    # q=3, a=(0,1) on (y, y^2): (1/3)(1 + 2 e^{2 pi i/3}) = i/sqrt(3)
    g = es.gauss_sum(3, (0, 1), Q_QUAD)
    assert g == pytest.approx(1j / np.sqrt(3), abs=1e-14)


def test_gauss_modulus_at_most_one(rng):
    for _ in range(25):
        q = int(rng.integers(1, 40))
        a = tuple(int(x) for x in rng.integers(0, q, size=2))
        assert abs(es.gauss_sum(q, a, Q_QUAD)) <= 1.0 + 1e-12


@pytest.mark.parametrize("q", [3, 7, 9, 15, 21, 199])
def test_gauss_quadratic_classical_modulus(q):
    # odd q, a = (0, a2), gcd(a2, q) = 1: |G| = q^{-1/2} exactly
    for a2 in range(1, q):
        if np.gcd(a2, q) == 1:
            g = es.gauss_sum(q, (0, a2), Q_QUAD)
            assert abs(g) == pytest.approx(q ** -0.5, abs=1e-12)


def test_gauss_scan_matches_direct(rng):
    for q in (5, 8, 12, 17):
        table = es.gauss_scan_quadratic(q)
        for _ in range(6):
            a1, a2 = int(rng.integers(q)), int(rng.integers(q))
            direct = es.gauss_sum(q, (a1, a2), Q_QUAD)
            if np.gcd(np.gcd(a1, a2), q) == 1:
                assert table[a1, a2] == pytest.approx(abs(direct), abs=1e-12)
            else:
                assert np.isnan(table[a1, a2])


def test_gauss_budget():
    with pytest.raises(BudgetError):
        es.gauss_sum(10**9, (0, 1), Q_QUAD)


def test_gauss_modulus_whose_square_overflows_int64_is_refused(monkeypatch):
    # a larger budget admits the q terms, but q^2 would not fit in int64
    monkeypatch.setattr(es, "GAUSS_BUDGET", 10 ** 19)
    q = math.isqrt(2 ** 63 - 1) + 1
    with pytest.raises(BudgetError):
        es.gauss_sum(q, (1,), Q_LIN)


@pytest.mark.parametrize("Q", [Q_QUAD, canonical_mapping(1, 3),
                               canonical_mapping(2, 2)])
def test_gauss_matches_python_int_residues_bitwise(Q, rng):
    # reference residues in exact Python ints, then the same float steps
    for q in (1, 2, 7, 12, 31):
        a = tuple(int(x) for x in rng.integers(0, q, size=Q.d))
        grid = itertools.product(range(1, q + 1), repeat=Q.k)
        residues = np.array([sum(ai * math.prod(y ** e for y, e in zip(ys, g))
                                 for ai, g in zip(a, Q.gamma)) % q
                             for ys in grid], dtype=np.int64)
        phases = np.exp(2j * np.pi * residues / q)
        assert es.gauss_sum(q, a, Q) == complex(phases.sum() / q ** Q.k)


def test_gauss_cubic_past_int64_cube_is_exact():
    # q = 2200013 is prime and 2 mod 3, so y -> y^3 permutes Z/q and the
    # cubic sum equals the complete linear sum, 0; y^3 itself overflows
    # int64 here, so only reduction after every multiply gets this right
    q = 2_200_013
    assert q % 3 == 2 and (q - 1) ** 3 > 2 ** 63
    g = es.gauss_sum(q, (0, 0, 1), canonical_mapping(1, 3))
    assert abs(g) < 1e-10


@pytest.mark.parametrize("Q", [Q_QUAD, canonical_mapping(1, 3),
                               canonical_mapping(2, 2)])
def test_gauss_block_equals_rows_bitwise(Q, rng):
    for q in (1, 2, 7, 12, 31, 199):
        # numerators past q and below zero, then Python ints past int64
        block = rng.integers(-3 * q, 3 * q, size=(9, Q.d))
        huge = [[(-1) ** i * (10 ** 30 + 7 * i + j) for j in range(Q.d)]
                for i in range(2)]
        # zero columns, which gauss_sum drops: the first zero mod q in
        # every row, the last in some rows only; an all-zero block; and
        # the top family (0, ..., 0, a) of the deg >= 3 scan
        zeroed = block.copy()
        zeroed[:, 0] = q * rng.integers(-2, 3, size=len(block))
        zeroed[::2, -1] = 0
        top = np.zeros((q, Q.d), dtype=np.int64)
        top[:, -1] = np.arange(q)
        for rows in (block, huge, zeroed, np.zeros_like(block), top):
            sums = es.gauss_sum(q, rows, Q)
            assert sums.shape == (len(rows),) and sums.dtype == complex
            for row, g in zip(rows, sums):
                one = es.gauss_sum(q, tuple(int(x) for x in row), Q)
                assert isinstance(one, complex)
                assert np.array([one]).tobytes() == np.array([g]).tobytes()
        # a numerator is only its class mod q
        assert es.gauss_sum(q, huge[0], Q) == es.gauss_sum(
            q, [x % q for x in huge[0]], Q)


def test_gauss_empty_block():
    sums = es.gauss_sum(7, np.zeros((0, 2), dtype=np.int64), Q_QUAD)
    assert sums.shape == (0,) and sums.dtype == complex


def test_gauss_block_of_wrong_width_is_refused():
    with pytest.raises(ValueError):
        es.gauss_sum(7, np.ones((4, 3), dtype=np.int64), Q_QUAD)
    with pytest.raises(ValueError):
        es.gauss_sum(7, np.ones((2, 4, 2), dtype=np.int64), Q_QUAD)


@pytest.mark.parametrize("q, Q, budget", [
    (10 ** 9, Q_QUAD, es.GAUSS_BUDGET),
    (math.isqrt(2 ** 63 - 1) + 1, Q_LIN, 10 ** 19),
])
def test_gauss_block_guards_refuse_before_allocating(q, Q, budget,
                                                     monkeypatch):
    monkeypatch.setattr(es, "GAUSS_BUDGET", budget)
    block = np.ones((100_000, Q.d), dtype=np.int64)  # 0.8-1.6 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            es.gauss_sum(q, block, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _gcd_masked_scan(q):
    # the scan with its joint gcd condition taken over the whole grid
    y = np.arange(1, q + 1, dtype=np.int64)
    inc = np.zeros((q, q))
    np.add.at(inc, (y % q, (y * y) % q), 1.0)
    mags = np.abs(np.fft.fft2(inc)) / q
    a1, a2 = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    ok = np.gcd(np.gcd(a1, a2), q) == 1
    return np.where(ok, mags, np.nan)


def test_gauss_scan_prime_divisor_mask_matches_gcd_mask():
    for q in range(1, 81):
        table = es.gauss_scan_quadratic(q)
        assert table.tobytes() == _gcd_masked_scan(q).tobytes()


def test_rational_point_reduction():
    p = es.reduce_fraction((4, 6), 8)
    assert p.numerators == (2, 3) and p.q == 4
    z = es.reduce_fraction((0,), 5)
    assert z.q == 1 and z.numerators == (0,)
    assert es.reduce_fraction((0, 0), 7) == es.RationalPoint((0, 0), 1)
    # NumPy integers reduce to Python ints; a float or a q < 1 is refused
    # by name.
    assert es.reduce_fraction(np.array([4, 6]), np.int64(8)) == p
    for a, q in (((1.5, 2), 8), ((1, 2), 8.0), ((1, 2), 0), ((1,), -3)):
        with pytest.raises(ValueError, match=r"fraction \("):
            es.reduce_fraction(a, q)


@pytest.mark.parametrize("numerators, q", [
    ((3,), 1), ((-2,), 1), ((0.5,), 1), ((0, 1), 1),
    ((5,), 5), ((-1,), 5), ((2.0,), 5)])
def test_rational_point_refuses_numerators_outside_range(numerators, q):
    with pytest.raises(ValueError):
        es.RationalPoint(numerators, q)


# lattice multipliers ------------------------------------------------------

def test_avg_multiplier_examples():
    assert es.avg_multiplier(1, [1 / 3], Q_LIN) == pytest.approx(0.0, abs=1e-14)
    assert es.avg_multiplier(2, [0.5], Q_LIN) == pytest.approx(0.2, abs=1e-14)
    assert es.avg_multiplier(9, [0.0, 0.0], Q_QUAD) == pytest.approx(1.0)


@pytest.mark.parametrize("xi", [(0.0, 0.3), (0.3, 0.1)])
def test_avg_multiplier_phase_is_a_monomial_loop(xi):
    # The phase adds xi_gamma * y^gamma in index order; a zero xi_gamma adds
    # an exact zero.  A matrix product of the images with xi rounds
    # differently at xi = (0.3, 0.1), which would move the result tables.
    y = lattice_points(1, 9)[:, 0].astype(float)
    phase = np.zeros(len(y))
    for x, e in zip(xi, (1, 2)):
        if x:
            phase += x * y ** e
    expected = complex(np.exp(2j * np.pi * phase).sum() / len(y))
    assert es.avg_multiplier(9, np.array(xi), Q_QUAD) == expected


def test_sing_multiplier_examples():
    K = es.odd_power_kernel(1.0)
    assert es.sing_multiplier(1, [0.25], Q_LIN, K) == pytest.approx(2j, abs=1e-14)
    expect = 2j * (np.sin(0.2 * np.pi) + np.sin(0.4 * np.pi) / 2)
    assert es.sing_multiplier(2, [0.1], Q_LIN, K) == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("N,Q,F", [(1, Q_QUAD, 9), (9, Q_QUAD, 9),
                                   (500, Q_LIN, 150)])
def test_multiplier_batch_equals_single(N, Q, F):
    # A batch (F, d) gives, row for row, the bits of one frequency at a
    # time.  At N = 500 a chunk holds 65 rows, so 150 rows span three
    # chunks, the last one partial.
    K = es.odd_power_kernel(1.0)
    xis = np.random.default_rng(5).uniform(-1.5, 1.5, size=(F, Q.d))
    xis[0] = 0.0
    xis[1:4, 0] = 0.0
    xis[4:6, -1] = 0.0
    for m in (lambda x: es.avg_multiplier(N, x, Q),
              lambda x: es.sing_multiplier(N, x, Q, K)):
        batch = m(xis)
        assert batch.shape == (F,)
        assert type(m(xis[7])) is complex
        assert np.array_equal(batch, [m(x) for x in xis])


_Q_PLANE = canonical_mapping(2, 1)  # (y2, y1)


@pytest.mark.parametrize("Q, K, N", [
    (Q_QUAD, es.odd_power_kernel(0.5), 500),
    (_Q_PLANE, es.plane_sign_kernel(), 20)])
@pytest.mark.parametrize("M", [lambda N: 1, lambda N: N - 1, lambda N: N],
                         ids=["1", "N-1", "N"])
def test_sing_multiplier_radii_equal_one_call_per_radius(Q, K, N, M):
    # One ball evaluation serves every radius, and each value keeps the
    # bits of its own call: at k = 1 a ball is the middle slice, at k = 2
    # the float membership test picks it.  1000 (k = 1) and 1256 (k = 2)
    # points make chunks of 65 and 52 rows, so 150 frequencies span
    # three chunks, the last one partial.
    radii = (N, M(N), math.sqrt(50), M(N))
    xis = np.random.default_rng(8).uniform(-1.5, 1.5, size=(150, Q.d))
    xis[0] = 0.0
    one = [es.sing_multiplier(t, xis, Q, K) for t in radii]
    many = es.sing_multiplier(radii, xis, Q, K)
    assert many.shape == (len(radii), len(xis))
    assert np.array_equal(many, one)
    single = es.sing_multiplier(list(radii), xis[7], Q, K)
    assert single.shape == (len(radii),)
    assert single.tolist() == [es.sing_multiplier(t, xis[7], Q, K)
                               for t in radii]
    # one radius in a sequence is the one-element case
    assert np.array_equal(es.sing_multiplier([N], xis, Q, K),
                          [es.sing_multiplier(N, xis, Q, K)])


def test_sing_multiplier_two_radii_peak_as_one():
    # The nested sums read the largest ball's term arrays and copy none.
    K = es.odd_power_kernel(0.5)
    xi = [0.123, 0.0456]
    peaks = []
    for radii in (6561, (6561, 3280)):
        es.sing_multiplier(radii, xi, Q_QUAD, K)  # warm every code path
        tracemalloc.start()
        try:
            es.sing_multiplier(radii, xi, Q_QUAD, K)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_multiplier_refuses_a_frequency_of_the_wrong_width():
    for xi in ([0.1, 0.2, 0.3], np.zeros((4, 1)), np.zeros((2, 3, 2))):
        with pytest.raises(ValueError):
            es.avg_multiplier(3, xi, Q_QUAD)


@given(st.integers(1, 12), st.integers(-400, 400), st.integers(1, 40))
def test_multiplier_periodicity_exact_on_dyadics(N, num, den_pow):
    # xi and xi + 1 reduce to the same double when xi is dyadic
    xi = num / 2.0 ** min(den_pow, 20)
    a = es.avg_multiplier(N, [xi], Q_LIN)
    b = es.avg_multiplier(N, [xi + 1.0], Q_LIN)
    assert a == b


@given(st.integers(1, 12), st.floats(-0.5, 0.499))
def test_multiplier_conjugate_symmetry(N, xi):
    a = es.avg_multiplier(N, [xi, 0.2], Q_QUAD)
    b = es.avg_multiplier(N, [-xi, -0.2], Q_QUAD)
    assert b == pytest.approx(np.conj(a), abs=1e-13)


def test_sing_multiplier_odd_kernel_at_zero():
    K = es.odd_power_kernel(0.5)
    assert es.sing_multiplier(9, [0.0], Q_LIN, K) == pytest.approx(0.0, abs=1e-14)


# kernels -------------------------------------------------------------------

def test_kernel_size_certificates():
    assert es.odd_power_kernel(0.5).size_certificate() == pytest.approx(1.0, rel=1e-6)
    assert es.odd_power_kernel(1.0).size_certificate() == pytest.approx(2.0, rel=1e-6)


def test_kernel_cancellation_validation():
    es.odd_power_kernel(0.5).validate()
    es.plane_sign_kernel().validate()
    bad = es.CZKernelSpec(1, lambda pts: 1.0 / np.abs(pts[:, 0]),
                          name="even")  # no sign change: no cancellation
    with pytest.raises(KernelError):
        bad.validate()


# continuous multipliers -----------------------------------------------------

def test_phi_linear_is_sinc():
    for N, xi in ((4, 0.3), (2, 0.11), (16, 0.05)):
        v = es.continuous_avg_multiplier(N, [xi], Q_LIN)
        expect = np.sin(2 * np.pi * N * xi) / (2 * np.pi * N * xi)
        assert v == pytest.approx(expect, abs=1e-8)


def test_phi_at_zero_is_one():
    assert es.continuous_avg_multiplier(7, [0.0, 0.0], Q_QUAD) == pytest.approx(1.0)


def test_phi_scaling_identity():
    # Phi_N(xi) = Phi_1(N^A xi)
    xi = np.array([0.02, 0.007])
    a = es.continuous_avg_multiplier(3, xi, Q_QUAD)
    b = es.continuous_avg_multiplier(1, 3.0 ** np.array([1, 2]) * xi, Q_QUAD)
    assert a == pytest.approx(b, abs=1e-8)


def test_phi_quadrature_against_scipy():
    xi = np.array([0.4, 0.9])

    def f_re(y):
        return np.cos(2 * np.pi * (xi[0] * y + xi[1] * y * y))

    def f_im(y):
        return np.sin(2 * np.pi * (xi[0] * y + xi[1] * y * y))
    expect = (quad(f_re, -1, 1, epsabs=1e-12)[0]
              + 1j * quad(f_im, -1, 1, epsabs=1e-12)[0]) / 2
    got = es.continuous_avg_multiplier(1, xi, Q_QUAD)
    assert got == pytest.approx(expect, abs=1e-9)


def test_phi_disk_matches_radial_bessel():
    # linear phase 0.7 y2 over the disk: angular average is a Bessel
    # profile, so the disk quadrature must match scipy on the radius
    Q2 = canonical_mapping(2, 1)  # Gamma = {(0,1),(1,0),(1,1)}
    xi = np.array([0.7, 0.0, 0.0])

    def f(r):
        from scipy.special import j0
        return j0(2 * np.pi * 0.7 * r) * 2 * r
    expect = quad(f, 0, 1, epsabs=1e-12)[0]
    got = es.continuous_avg_multiplier(1, xi, Q2)
    assert got == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("xi", [
    [0.7, 0.0, 0.0], [0.42, -0.56, 0.0],
    [3.0, 1.0, 0.0],  # ran the earlier tensor midpoint grid out of memory
    [0.0, 13.0, 0.0], [7.8, -10.4, 0.0]])
def test_phi_disk_linear_phase_closed_form(xi):
    # e(<v, y>) averaged over the unit disk is 2 J1(x) / x, x = 2 pi |v|
    x = 2 * np.pi * np.hypot(xi[0], xi[1])
    got = es.continuous_avg_multiplier(1, xi, canonical_mapping(2, 1))
    assert got == pytest.approx(2 * j1(x) / x, abs=1e-12)


def test_disk_rule_out_of_budget_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        es.continuous_avg_multiplier(1, [3000, 1000, 500],
                                     canonical_mapping(2, 1))
    assert np.isfinite(info.value.estimate)
    assert np.isfinite(info.value.error_bound)


def test_interval_rule_out_of_budget_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        es.continuous_avg_multiplier(1, [1e7 + 0.3], Q_LIN)
    assert np.isfinite(info.value.estimate)
    assert np.isfinite(info.value.error_bound)


def test_phi_body_mean_is_pinned_bitwise():
    # Pinned values of Phi_N under the interval rule (k = 1) and the disk
    # rule (k = 2); integrating over the unit ball must not move a bit.
    assert es.continuous_avg_multiplier(3, [0.4, 0.9], Q_QUAD) == \
        0.10984500292866717 + 0.057347293324302266j
    assert es.continuous_avg_multiplier(
        2, [0.42, -0.56, 0.3], canonical_mapping(2, 1)) == \
        -0.061370014159210326 - 0.11834072493588063j


@pytest.mark.parametrize("call", [
    lambda: es.CZKernelSpec(3, lambda pts: np.zeros(len(pts))),
    lambda: es.continuous_avg_multiplier(2, np.full(7, 0.1),
                                         canonical_mapping(3, 1)),
    lambda: es.annulus_integral(0.5, 1.0, np.full(7, 0.1),
                                canonical_mapping(3, 1),
                                es.odd_power_kernel()),
    lambda: es.continuous_singular_multiplier(1.0, np.full(7, 0.1),
                                              canonical_mapping(3, 1),
                                              es.odd_power_kernel())],
    ids=["kernel", "avg-multiplier", "annulus", "singular-multiplier"])
def test_k3_is_refused_with_value_error(call):
    with pytest.raises(ValueError, match="only k <= 2"):
        call()


# A k = 1 kernel along a k = 2 map: every path that evaluates the kernel
# refuses the points' width.
_Q2 = canonical_mapping(2, 1)


@pytest.mark.parametrize("call", [
    lambda K: es.sing_multiplier(3, [0.1, 0.2, 0.3], _Q2, K),
    lambda K: es.annulus_integral(0.5, 1.0, [0.1, 0.2, 0.3], _Q2, K),
    lambda K: es.continuous_singular_multiplier(1.0, [0.1, 0.2, 0.3], _Q2,
                                                K),
    lambda K: es.major_arc_diff_check(
        es.ArcWindow(N=64, L1=64.0, L2=1.0, L3=8.0), 32,
        es.RationalPoint((0, 0, 0), 1), np.zeros(3), _Q2, K),
    lambda K: pushforward_kernel(_Q2, 2, K)],
    ids=["sing-multiplier", "annulus", "singular-multiplier",
         "major-arc-diff", "apply-truncation"])
def test_kernel_of_the_wrong_dimension_is_refused(call):
    with pytest.raises(ValueError, match="kernel on R\\^1"):
        call(es.odd_power_kernel())


def test_phi_decay_bounds():
    # |Phi_N| <= C min(1, ||N^A xi||^{-1/d}) and
    # |Phi_N - 1| <= C min(1, ||N^A xi||), fitted C reported
    xi = np.array([0.37, 0.61])
    for N in (1.5, 4.0, 9.0):
        v = es.continuous_avg_multiplier(N, xi, Q_QUAD)
        x = es.scale_norm(N, xi, Q_QUAD)
        assert abs(v) <= 3.0 * min(1.0, x ** (-1 / 2))
    small = np.array([1e-4, 3e-5])
    v = es.continuous_avg_multiplier(1, small, Q_QUAD)
    assert abs(v - 1) <= 3.0 * es.scale_norm(1, small, Q_QUAD)


def test_psi_sine_integral_closed_form():
    K = es.odd_power_kernel(0.5)
    for t, xi in ((8.0, 0.3), (4.0, 0.05), (2.0, 1.2)):
        got = es.continuous_singular_multiplier(t, [xi], Q_LIN, K)
        si, _ = sici(2 * np.pi * xi * t)
        assert got == pytest.approx(1j * si, abs=5e-9)


def test_psi_at_zero_vanishes():
    K = es.odd_power_kernel(0.5)
    assert es.continuous_singular_multiplier(4.0, [0.0], Q_LIN, K) == 0.0


def test_psi_kernel_without_cancellation_detected():
    bad = es.CZKernelSpec(1, lambda pts: 1.0 / np.abs(pts[:, 0]), name="even")
    with pytest.raises((KernelError, Exception)):
        es.continuous_singular_multiplier(4.0, [0.1], Q_LIN, bad)


def test_annulus_integral_is_psi_difference():
    K = es.odd_power_kernel(0.5)
    xi = [0.2]
    whole = es.continuous_singular_multiplier(8.0, xi, Q_LIN, K)
    inner = es.continuous_singular_multiplier(4.0, xi, Q_LIN, K)
    ann = es.annulus_integral(4.0, 8.0, xi, Q_LIN, K)
    assert whole - inner == pytest.approx(ann, abs=1e-8)


def test_plane_kernel_annulus_against_dblquad():
    Q2 = canonical_mapping(2, 2)
    xi = np.array([0.3, -0.7, 0.45, 0.2, -0.35, 0.15, 0.1, -0.05])
    K = es.plane_sign_kernel()

    def integrand(r, th):
        y1, y2 = r * np.cos(th), r * np.sin(th)
        ph = sum(x * y1 ** g[0] * y2 ** g[1] for x, g in zip(xi, Q2.gamma))
        return np.exp(2j * np.pi * ph) * y1 * y2 / r ** 4 * r

    expect = sum(part * dblquad(lambda r, th: f(integrand(r, th)),
                                0, 2 * np.pi, 0.5, 1.0,
                                epsabs=1e-13, epsrel=1e-13)[0]
                 for part, f in ((1, np.real), (1j, np.imag)))
    got = es.annulus_integral(0.5, 1.0, xi, Q2, K)
    assert got == pytest.approx(expect, abs=1e-10)


# major-arc checks ------------------------------------------------------------

def test_arc_window_preconditions():
    w = es.ArcWindow(N=100, L1=100.0, L2=1.0, L3=10.0)
    with pytest.raises(ValueError):
        w.check(11, np.zeros(2), (1, 2))  # q > L3
    with pytest.raises(ValueError):
        es.ArcWindow(N=100, L1=50.0, L2=1.0, L3=10.0).check(
            1, np.zeros(2), (1, 2))  # L1 < N
    with pytest.raises(ValueError):
        w.check(1, np.array([0.5, 0.0]), (1, 2))  # offset too large


def test_major_arc_approx_rational_points():
    frac = es.RationalPoint((0, 1), 3)
    prev = None
    for e in (4, 5, 6):
        N = 3 ** e
        w = es.ArcWindow(N=N, L1=float(N), L2=1.0, L3=np.sqrt(N))
        out = es.major_arc_approx_check(w, frac, [0.0, 0.0], Q_QUAD)
        assert out["error"] <= 0.1
        scaled = out["error"] * N / 3
        assert scaled < 1.0
        if prev is not None:
            assert abs(scaled - prev) < 0.05  # stable across N
        prev = scaled


def test_major_arc_approx_random_tuple(rng):
    N = 512
    w = es.ArcWindow(N=N, L1=2.0 * N, L2=2.0, L3=16.0)
    frac = es.RationalPoint((1, 2), 5)
    caps = 2.0 * np.power(2.0 * N, -np.array([1.0, 2.0]))
    off = rng.uniform(-1, 1, size=2) * caps
    out = es.major_arc_approx_check(w, frac, off, Q_QUAD)
    assert out["ratio"] < 5.0


def test_major_arc_diff_zero_frequency_odd_kernel():
    K = es.odd_power_kernel(1.0)
    frac = es.RationalPoint((0, 0), 1)
    w = es.ArcWindow(N=64, L1=64.0, L2=1.0, L3=8.0)
    out = es.major_arc_diff_check(w, 32, frac, [0.0, 0.0], Q_QUAD, K)
    assert out["error"] == 0.0
    assert out["lattice_diff"] == 0.0 and out["psi_diff"] == 0.0


def test_major_arc_diff_random_tuple(rng):
    K = es.odd_power_kernel(1.0)
    N = 512
    w = es.ArcWindow(N=N, L1=2.0 * N, L2=2.0, L3=16.0)
    frac = es.RationalPoint((2, 3), 7)
    caps = 2.0 * np.power(2.0 * N, -np.array([1.0, 2.0]))
    off = rng.uniform(-1, 1, size=2) * caps
    out = es.major_arc_diff_check(w, N // 2, frac, off, Q_QUAD, K)
    assert out["ratio"] < 5.0


def test_prop2_fit_evaluates_one_ball_per_window(monkeypatch):
    # m_N and m_M of a window come from one ball: one lattice enumeration
    # and one sing_multiplier call per random window and per rational
    # probe, each as exact as the two one-radius calls.
    calls = Counter()

    def counting(key):
        fn = getattr(es, key)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(es, key, wrapped)
    for key in ("lattice_points", "sing_multiplier"):
        counting(key)
    trials, grid = 5, (81, 243)
    run(RunConfig("prop2-fit", seed=4,
                  params={"trials": trials, "rational_n_grid": grid}))
    # three rational probes per N
    windows = trials + len(grid) * 3
    assert calls == {"lattice_points": windows, "sing_multiplier": windows}


def test_torus_reduce_window():
    x = es.torus_reduce([0.5, -0.5, 0.49, 1.25, -2.75])
    assert np.all(x >= -0.5) and np.all(x < 0.5)
    assert x[0] == -0.5 and x[3] == pytest.approx(0.25)
