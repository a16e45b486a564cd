import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import j1, sici

from radonlab import expsum as es
from radonlab.errors import BudgetError, KernelError, QuadratureError
from radonlab.polymap import canonical_mapping

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


def test_gauss_modulus_whose_square_overflows_int64_is_refused():
    # a caller budget admits the q terms, but q^2 would not fit in int64
    q = math.isqrt(2 ** 63 - 1) + 1
    with pytest.raises(BudgetError):
        es.gauss_sum(q, (1,), Q_LIN, budget=10 ** 19)


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


def test_rational_point_reduction():
    p = es.reduce_fraction((4, 6), 8)
    assert p.numerators == (2, 3) and p.q == 4 and p.reduced
    z = es.reduce_fraction((0,), 5)
    assert z.q == 1 and z.numerators == (0,)


def test_residue_classes_match_definition():
    cls = es.residue_classes(2, 2)
    assert {tuple(c) for c in cls} == {(0, 1), (1, 0), (1, 1)}
    assert len(es.residue_classes(1, 1)) == 1


# lattice multipliers ------------------------------------------------------

def test_avg_multiplier_examples():
    assert es.avg_multiplier(1, [1 / 3], Q_LIN) == pytest.approx(0.0, abs=1e-14)
    assert es.avg_multiplier(2, [0.5], Q_LIN) == pytest.approx(0.2, abs=1e-14)
    assert es.avg_multiplier(9, [0.0, 0.0], Q_QUAD) == pytest.approx(1.0)


def test_sing_multiplier_examples():
    K = es.odd_power_kernel(1.0)
    assert es.sing_multiplier(1, [0.25], Q_LIN, K) == pytest.approx(2j, abs=1e-14)
    expect = 2j * (np.sin(0.2 * np.pi) + np.sin(0.4 * np.pi) / 2)
    assert es.sing_multiplier(2, [0.1], Q_LIN, K) == pytest.approx(expect, abs=1e-13)


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


def test_weyl_sum_quadratic_example():
    # sum_{n=1..3} e(n^2/3) = i sqrt(3)
    pts = np.arange(1, 4)[:, None]
    s = es.weyl_sum(lambda y: y[:, 0] ** 2 / 3.0, 3, pts=pts)
    assert s == pytest.approx(1j * np.sqrt(3), abs=1e-13)


def test_weyl_decay_probe_reports_fit():
    golden = (np.sqrt(5) - 1) / 2
    out = es.weyl_decay_probe(lambda y: golden * y[:, 0] ** 2,
                              [2 ** e for e in range(4, 11)])
    assert np.isfinite(out["alpha"])
    assert all(m <= 1.0 + 1e-12 for m in out["normalized"])


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


def test_torus_reduce_window():
    x = es.torus_reduce([0.5, -0.5, 0.49, 1.25, -2.75])
    assert np.all(x >= -0.5) and np.all(x < 0.5)
    assert x[0] == -0.5 and x[3] == pytest.approx(0.25)
