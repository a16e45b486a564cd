import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radonlab import polymap as pm
from radonlab.errors import BudgetError


def test_gamma_univariate_quadratic():
    assert pm.build_gamma(1, 2) == ((1,), (2,))


def test_gamma_bivariate_quadratic():
    g = pm.build_gamma(2, 2)
    assert len(g) == 8
    assert (0, 0) not in g
    assert g == tuple(sorted(g))  # lexicographic


def test_gamma_cardinality():
    for k in (1, 2, 3):
        for n0 in (1, 2, 3):
            assert len(pm.build_gamma(k, n0)) == (n0 + 1) ** k - 1


@pytest.mark.parametrize("coeffs", [
    {(0,): 1, (1,): 2}, {(1, 0): 1}, {(1,): 0.5, (2,): -1.25},
    {(1,): 2.0}, {(1,): np.int64(2)}],
    ids=["constant-term", "multi-index-length", "real", "integral-float",
         "numpy-int"])
def test_constant_term_rejected(coeffs):
    # 2.0 and np.int64(2) are integer-valued but not Python ints: the
    # exact lattice paths need Python ints, so the refusal is by type.
    with pytest.raises(ValueError):
        pm.PolynomialMapping(1, 1, (coeffs,))


def test_exact_huge_coordinates():
    # Exact integer arithmetic: no wraparound on values beyond 2^63.
    P = pm.PolynomialMapping(1, 1, ({(3,): 1},))
    assert P.eval_many(np.array([[10**7]]))[0, 0] == 10**21


def test_lattice_ball_1d():
    assert pm.lattice_points(1, 2).ravel().tolist() == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [0, 1, 2.5, 5])
def test_lattice_ball_matches_brute_force(k, t):
    # itertools.product runs in lexicographic order, so the filtered list
    # fixes both the set and the order; the test sum(y^2) <= t^2 is exact.
    r = math.ceil(t) + 1
    brute = [list(y) for y in itertools.product(range(-r, r + 1), repeat=k)
             if sum(c * c for c in y) <= Fraction(t) ** 2]
    pts = pm.lattice_points(k, t)
    assert pts.dtype == np.int64 and pts.shape == (len(brute), k)
    assert pts.tolist() == brute


def test_lattice_ball_origin_and_closed_boundary():
    for k in (1, 2, 3):
        assert pm.lattice_points(k, 0).tolist() == [[0] * k]
    disk = pm.lattice_points(2, 5).tolist()
    assert [3, 4] in disk and [-5, 0] in disk and [4, 4] not in disk


def test_lattice_ball_2d_count():
    # brute-force oracle: x^2 + y^2 <= 100 has 317 solutions
    brute = sum(1 for x in range(-10, 11) for y in range(-10, 11)
                if x * x + y * y <= 100)
    assert brute == 317
    assert len(pm.lattice_points(2, 10)) == 317


def test_lattice_monotone_in_t():
    counts = [len(pm.lattice_points(2, t)) for t in range(1, 12)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_lattice_density_matches_volume():
    # |B_N| / N^k within 10% of vol(B_1) = pi at N = 200, k = 2
    n = len(pm.lattice_points(2, 200))
    assert abs(n / 200.0 ** 2 - math.pi) < 0.1 * math.pi


def test_lattice_budget_refusal():
    with pytest.raises(BudgetError):
        pm.lattice_points(3, 10_000)


@given(st.floats(0.5, 8), st.floats(0.5, 8))
def test_dilation_group_law(t, s):
    Q = pm.canonical_mapping(1, 3)
    x = np.array([1.3, -0.2, 0.7])
    lhs = pm.dilate(Q, t, pm.dilate(Q, s, x))
    rhs = pm.dilate(Q, t * s, x)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_dilation_identity_and_exact():
    Q = pm.canonical_mapping(2, 2)
    x = np.arange(1.0, 1.0 + Q.d)
    assert np.array_equal(pm.dilate(Q, 1.0, x), x)


def test_eval_real_matches_integer_eval():
    Q = pm.canonical_mapping(2, 2)
    y = (3, -2)
    real = Q.eval_real(np.array(y, dtype=float))
    assert np.allclose(real, Q.eval_many(np.array([y]))[0].astype(float))


def test_canonical_mapping_is_a_polynomial_mapping():
    Q = pm.canonical_mapping(2, 2)
    gamma = pm.build_gamma(2, 2)
    assert Q.coeffs == tuple({g: 1} for g in gamma)
    assert (Q.k, Q.d, Q.gamma) == (2, len(gamma), gamma)
    assert Q.degrees == tuple(sum(g) for g in gamma)
    pts = np.array([[3, -2], [0, 5], [-1, -1]])
    exact = [[pm.monomial(tuple(int(c) for c in p), g) for g in gamma]
             for p in pts]
    assert Q.eval_many(pts).tolist() == exact
    assert np.array_equal(Q.eval_real(pts), np.array(exact, dtype=float))
    with pytest.raises(ValueError):
        pm.PolynomialMapping(1, 1, ({(1,): 2},)).gamma


def test_real_coefficients_refused_at_construction():
    # 0.5 y - 1.25 y^2 is refused once, when built, so neither the exact
    # lattice paths nor eval_real ever see a float coefficient.
    with pytest.raises(ValueError, match="0.5 is not an int"):
        pm.PolynomialMapping(1, 1, ({(1,): 0.5, (2,): -1.25},))
