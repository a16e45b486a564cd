import math
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonlab.errors import BudgetError
from radonlab import experiments, operators
from radonlab.experiments import RunConfig, run
from radonlab.expsum import (avg_multiplier, odd_power_kernel, phase_sum,
                            sing_multiplier)
from radonlab.operators import (GridFunction, apply_truncation,
                                delta_function, embed, ensemble,
                                ergodic_truncation, grid_difference,
                                pushforward_kernel, variation_curves)
from radonlab.polymap import PolynomialMapping, canonical_mapping
from radonlab.variation import growth_fit

P_ID = PolynomialMapping(1, 1, ({(1,): 1},))
P_SQ = PolynomialMapping(1, 1, ({(2,): 1},))
P_CUBE_MIX = PolynomialMapping(1, 1, ({(3,): 1, (1,): -2},))
P_2D = PolynomialMapping(2, 2, ({(1, 0): 1}, {(0, 2): 1, (2, 0): 1}))
P_2D_TO_1 = PolynomialMapping(2, 1, ({(2, 0): 1, (0, 3): 1},))
P_2D_ID = PolynomialMapping(2, 2, ({(1, 0): 1}, {(0, 1): 1}))
KERNEL = odd_power_kernel(1.0)


def apply(f, P, N, kernel=None, backend="direct"):
    return apply_truncation(f, pushforward_kernel(P, N, kernel), backend)


def ergodic(f, P, N, kernel=None):
    return ergodic_truncation(f, pushforward_kernel(P, N, kernel))


def curves(f, P, r_grid, N_set, p, kernel=None):
    """variation_curves over the fft outputs of the family at N_set: the
    ratio ||V_r||_p / ||f||_p per r."""
    return variation_curves(
        f, [apply(f, P, n, kernel, backend="fft")
            for n in sorted(N_set)], r_grid, p)


def random_grid(rng, ndim, halfwidth):
    shape = tuple(2 * halfwidth + 1 for _ in range(ndim))
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    box = tuple((-halfwidth, halfwidth) for _ in range(ndim))
    return GridFunction(box, vals)


# -- grid plumbing ------------------------------------------------------------

def test_box_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GridFunction(((0, 2),), np.zeros(2))


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        GridFunction(((3, 1),), np.zeros(0))


def test_embed_requires_containment():
    f = delta_function(1)
    with pytest.raises(ValueError):
        embed(f, ((1, 3),))


# -- frozen operator examples ---------------------------------------------------

def test_average_of_delta_identity_map():
    out = apply(delta_function(1), P_ID, 1)
    assert out.box == ((-1, 1),)
    np.testing.assert_allclose(out.values.real, [1 / 3, 1 / 3, 1 / 3],
                               atol=1e-15)


def test_average_of_delta_square_map_masses():
    # y in {-2..2}: images 4, 1, 0, 1, 4 -> mass 1/5 at 0, 2/5 at 1 and 4
    out = apply(delta_function(1), P_SQ, 2)
    assert out.box == ((0, 4),)
    np.testing.assert_allclose(out.values.real, [0.2, 0.4, 0.0, 0.0, 0.4],
                               atol=1e-15)
    assert np.all(out.values.imag == 0.0)


def test_pushforward_kernel_masses():
    ker = pushforward_kernel(P_SQ, 2)
    assert ker.box == ((0, 4),)
    np.testing.assert_allclose(ker.values, [0.2, 0.4, 0.0, 0.0, 0.4],
                               atol=1e-16)


def test_singular_of_delta_is_kernel():
    out = apply(delta_function(1), P_ID, 3, KERNEL)
    assert out.box == ((-3, 3),)
    expected = [-1 / 3, -1 / 2, -1.0, 0.0, 1.0, 1 / 2, 1 / 3]
    np.testing.assert_allclose(out.values.real, expected, atol=1e-15)


def test_singular_parity_odd_kernel_even_input():
    f = GridFunction(((-3, 3),), np.array([1.0, 2.0, 3.0, 4.0, 3.0, 2.0,
                                           1.0]))
    out = apply(f, P_ID, 2, KERNEL)
    vals = out.values.real
    np.testing.assert_allclose(vals, -vals[::-1], atol=1e-14)


# -- backend agreement -----------------------------------------------------------

@pytest.mark.parametrize("P,ndim", [(P_ID, 1), (P_SQ, 1), (P_CUBE_MIX, 1),
                                    (P_2D_TO_1, 1)])
def test_direct_vs_fft_average(rng, P, ndim):
    # f lives on the target lattice Z^d, not the source Z^k.
    f = random_grid(rng, ndim, 6)
    for N in (1, 2, 5):
        a = apply(f, P, N, backend="direct")
        b = apply(f, P, N, backend="fft")
        assert a.box == b.box
        scale = np.abs(a.values).max()
        assert grid_difference(a, b) <= 1e-10 * max(scale, 1.0)


def test_direct_vs_fft_2d_output(rng):
    f = random_grid(rng, 2, 3)
    a = apply(f, P_2D, 4, backend="direct")
    b = apply(f, P_2D, 4, backend="fft")
    assert grid_difference(a, b) <= 1e-10


def test_direct_vs_fft_singular(rng):
    f = random_grid(rng, 1, 8)
    for N in (2, 7):
        a = apply(f, P_SQ, N, KERNEL, backend="direct")
        b = apply(f, P_SQ, N, KERNEL, backend="fft")
        assert grid_difference(a, b) <= 1e-10


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        apply(delta_function(1), P_ID, 1, backend="magic")


@pytest.mark.parametrize("halfwidth,full", [(16, 37), (18, 41), (31, 67),
                                            (33, 71), (34, 73)])
def test_fft_at_a_prime_linear_size_is_the_direct_operator(rng, halfwidth,
                                                           full):
    # Under y -> (y, y^2) at N = 2 the kernel box is 5 x 5, so the linear
    # size is 2 halfwidth + 5 on both axes: a prime, padded to a length
    # with no prime factor above 7 and cropped back.
    P = canonical_mapping(1, 2)
    f = random_grid(rng, 2, halfwidth)
    ker = pushforward_kernel(P, 2)
    spectrum = ker.spectrum(f.values.shape)
    assert spectrum.shape == (operators._smooth_length(full),) * 2
    assert spectrum.shape != (full, full)
    a = apply_truncation(f, ker, backend="direct")
    b = apply_truncation(f, ker, backend="fft")
    assert a.box == b.box
    assert b.values.shape == (full, full)
    assert grid_difference(a, b) <= 1e-12 * np.abs(a.values).max()


def test_smooth_length_is_the_least_7_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c * 7 ** d for a in range(10)
                    for b in range(7) for c in range(5) for d in range(4))
    for n in range(1, 513):
        assert operators._smooth_length(n) == next(m for m in smooth
                                                   if m >= n)


def test_fft_budget_counts_the_padded_shape(monkeypatch):
    # A 65 x 65 input under y -> (y, y^2) at N = 4: linear size 73 x 81,
    # padded to 75 x 81; the spectrum, the input's transform and their
    # product are allocated at the padded shape.  The check runs when the
    # first FFT application builds the spectrum, and nothing is kept.
    f = GridFunction(((-32, 32),) * 2, np.zeros((65, 65)))
    ker = pushforward_kernel(canonical_mapping(1, 2), 4)
    monkeypatch.setattr(operators, "MEMORY_BUDGET_ELEMENTS", 2 * 75 * 81 - 1)
    with pytest.raises(BudgetError) as info:
        apply_truncation(f, ker, backend="fft")
    assert info.value.estimate == 2 * 75 * 81 > 2 * 73 * 81
    assert not ker._spectra
    monkeypatch.setattr(operators, "MEMORY_BUDGET_ELEMENTS", 2 * 75 * 81)
    apply_truncation(f, ker, backend="fft")
    assert list(ker._spectra) == [(75, 81)]


def test_one_kernel_serves_inputs_of_two_shapes(rng):
    # One spectrum per padded shape, built on first use and kept.  The
    # kernel box is 5 x 5: the 13 x 13 input's linear size 17 x 17 pads
    # to 18 x 18, the 9 x 11 input's 13 x 15 to 14 x 15.
    ker = pushforward_kernel(canonical_mapping(1, 2), 2)
    f = random_grid(rng, 2, 6)
    g = GridFunction(((-4, 4), (-5, 5)), rng.standard_normal((9, 11)))
    for h in (f, g, f, g):
        a = apply_truncation(h, ker, backend="direct")
        b = apply_truncation(h, ker, backend="fft")
        assert a.box == b.box
        assert grid_difference(a, b) <= 1e-12 * np.abs(a.values).max()
    assert list(ker._spectra) == [(18, 18), (14, 15)]
    assert ker.spectrum(f.values.shape) is ker._spectra[18, 18]
    assert not ker.spectrum((9, 11)).flags.writeable


def test_threads_that_build_one_spectrum_at_once_read_one_copy(monkeypatch):
    # Both threads miss the spectrum and build it; the first one stored
    # is the one both get.
    ker = pushforward_kernel(P_SQ, 2)
    barrier = threading.Barrier(2)
    fftn = np.fft.fftn

    def meeting(*args, **kwargs):
        barrier.wait(timeout=10)
        return fftn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fftn", meeting)
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(lambda _: ker.spectrum((7,)), range(2))
    assert first is second is ker._spectra[operators._smooth_length(11),]


# -- shift-system realization ------------------------------------------------------

def test_ergodic_average_bitwise_1d(rng):
    for P in (P_ID, P_SQ, P_CUBE_MIX):
        f = random_grid(rng, 1, 5)
        direct = apply(f, P, 4, backend="direct")
        orbit = ergodic(f, P, 4)
        assert direct.box == orbit.box
        assert np.array_equal(direct.values, orbit.values)


def test_ergodic_average_bitwise_2d(rng):
    f = random_grid(rng, 2, 3)
    direct = apply(f, P_2D, 3, backend="direct")
    orbit = ergodic(f, P_2D, 3)
    assert direct.box == orbit.box
    assert np.array_equal(direct.values, orbit.values)


def test_ergodic_singular_bitwise(rng):
    f = random_grid(rng, 1, 5)
    direct = apply(f, P_SQ, 5, KERNEL, backend="direct")
    orbit = ergodic(f, P_SQ, 5, KERNEL)
    assert direct.box == orbit.box
    assert np.array_equal(direct.values, orbit.values)


def test_ergodic_matches_average_of_delta():
    direct = apply(delta_function(1), P_ID, 1)
    orbit = ergodic(delta_function(1), P_ID, 1)
    assert np.array_equal(direct.values, orbit.values)


# -- structural invariants ----------------------------------------------------------

def test_linearity(rng):
    f = random_grid(rng, 1, 6)
    g = random_grid(rng, 1, 6)
    alpha, beta = 1.7 - 0.3j, -0.4 + 2.1j
    combo = GridFunction(f.box, alpha * f.values + beta * g.values)
    lhs = apply(combo, P_SQ, 3)
    rhs_f = apply(f, P_SQ, 3)
    rhs_g = apply(g, P_SQ, 3)
    rhs = alpha * rhs_f.values + beta * rhs_g.values
    assert np.abs(lhs.values - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_translation_equivariance_exact(rng):
    def translate(g, z):
        """(T_z g)(x) = g(x - z): the box moves, the values stay."""
        return GridFunction(tuple((lo + z, hi + z) for lo, hi in g.box),
                            g.values)

    f = random_grid(rng, 1, 6)
    shifted_in = apply(translate(f, 9), P_SQ, 3)
    shifted_out = translate(apply(f, P_SQ, 3), 9)
    assert shifted_in.box == shifted_out.box
    assert np.array_equal(shifted_in.values, shifted_out.values)


def test_mass_preservation(rng):
    for ndim, P in ((1, P_SQ), (2, P_2D)):
        f = random_grid(rng, ndim, 4)
        for N in (1, 3):
            mass, out = f.values.sum(), apply(f, P, N).values.sum()
            assert abs(out - mass) <= 1e-12 * abs(mass + 1)


def test_multiplier_consistency(rng):
    # Fourier transform of the pushforward kernel vs the direct phase sum.
    for P in (P_SQ, P_CUBE_MIX):
        ker = pushforward_kernel(P, 5)
        for xi in (0.0, 0.173, -0.42):
            direct = avg_multiplier(5, [xi], P)
            assert abs(ker.multiplier_at([xi]) - direct) <= 1e-10


def test_singular_multiplier_consistency():
    ker = pushforward_kernel(P_SQ, 6, kernel=KERNEL)
    direct = sing_multiplier(6, [0.31], P_SQ, KERNEL)
    assert abs(ker.multiplier_at([0.31]) - direct) <= 1e-10


@pytest.mark.parametrize("P,N,F", [(P_2D, 3, 12),
                                   (canonical_mapping(1, 3), 5, 64),
                                   (P_2D_ID, 60, 12)])
def test_multiplier_at_batch_equals_single(P, N, F, rng):
    # canonical_mapping(1, 3) at N = 5 has 71,786 box cells but 11 in its
    # support.  The identity on Z^2 at N = 60 has 11,289 support cells, so
    # a 2^16-phase chunk holds 5 frequencies and its 12 span three chunks.
    ker = pushforward_kernel(P, N)
    xis = rng.uniform(-0.5, 0.5, size=(F, P.d))
    xis[0] = 0.0
    xis[1:3, 0] = 0.0
    xis[3, -1] = 0.0
    batch = ker.multiplier_at(xis)
    assert batch.shape == (F,)
    assert np.array_equal(batch, [ker.multiplier_at(x) for x in xis])
    assert np.abs(batch - avg_multiplier(N, xis, P)).max() <= 1e-10
    with pytest.raises(ValueError):
        ker.multiplier_at(np.zeros((2, P.d + 1)))


@pytest.mark.parametrize("P,kernel,support", [(P_SQ, None, 9),
                                              (P_SQ, KERNEL, 0),
                                              (P_CUBE_MIX, KERNEL, 16)])
def test_multiplier_at_sums_over_the_support(P, kernel, support, rng):
    # Under y -> y^2, y and -y land on one cell: the average kernel weighs
    # 9 of the 65 box cells at N = 8, and c/y + c/(-y) cancels to an exact
    # zero on every cell of the singular one.  y^3 - 2y spreads signed
    # weights over a box that starts below 0.
    ker = pushforward_kernel(P, 8, kernel=kernel)
    assert np.count_nonzero(ker.values) == support < ker.values.size
    cells = np.indices(ker.values.shape).reshape(1, -1).T + ker.box[0][0]
    xis = rng.uniform(-0.5, 0.5, size=(16, 1))
    full_box = phase_sum(cells, xis, weights=ker.values.ravel())
    assert np.abs(ker.multiplier_at(xis) - full_box).max() <= 1e-14


def test_multiplier_at_memory_is_chunked():
    # Unchunked, 200 frequencies over 11,289 support cells would hold
    # 2.3M phases, 36 MB per complex temporary.
    ker = pushforward_kernel(P_2D_ID, 60)
    xis = np.random.default_rng(2).uniform(-0.5, 0.5, size=(200, 2))
    tracemalloc.start()
    try:
        ker.multiplier_at(xis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_memory_budget_refusal():
    with pytest.raises(BudgetError) as info:
        apply(delta_function(1), PolynomialMapping(1, 1, ({(5,): 1},)), 2000)
    assert info.value.estimate > 10 ** 16


def test_invalid_truncation_radius():
    with pytest.raises(ValueError):
        apply(delta_function(1), P_ID, 0)


# -- variation curves -----------------------------------------------------------------

def test_variation_singleton_is_zero():
    assert curves(delta_function(1), P_ID, [3.0], [1], 2.0) == [0.0]


def test_variation_two_term_value():
    # At |x| <= 1 the averages are 1/3 then 1/5, so V_r(x) = 2/15, and at
    # |x| = 2 they are 0 then 1/5: ||V_r||_2 = sqrt(30) / 15 for every r.
    for ratio in curves(delta_function(1), P_ID, (2.0, 2.5, 4.0),
                        [1, 2], 2.0):
        assert abs(ratio - math.sqrt(30) / 15) <= 1e-15


def test_variation_ratio_monotone_in_r(rng):
    f = random_grid(rng, 1, 10)
    ratios = curves(f, P_SQ, (2.1, 2.5, 3.0, 4.0), [1, 2, 4, 8], 2.0)
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a + 1e-12


def test_variation_ratio_homogeneous(rng):
    f = random_grid(rng, 1, 8)
    g = GridFunction(f.box, 2.0 * f.values)
    r1, = curves(f, P_SQ, [3.0], [1, 3, 5], 2.0)
    r2, = curves(g, P_SQ, [3.0], [1, 3, 5], 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_variation_rejects_duplicates():
    # A family lists each truncation once; operator-norm refuses repeats
    # before it applies any operator.
    for n_set in ((2, 2), ()):
        with pytest.raises(ValueError):
            run(RunConfig("operator-norm", seed=1,
                          params={"n_set": n_set}))
    with pytest.raises(ValueError):
        variation_curves(delta_function(1), [], [3.0], 2.0)


def test_variation_singular_curve_runs(rng):
    # An odd mapping: pushing the odd kernel through an even one (x^2)
    # cancels every weight and the curve is identically zero.
    f = random_grid(rng, 1, 6)
    ratio, = curves(f, P_CUBE_MIX, [3.0], [1, 2, 4], 2.0, kernel=KERNEL)
    assert 0.0 < ratio < math.inf


# -- ensembles and empirical norms ------------------------------------------------------

def test_ensemble_deterministic_and_typed():
    first = [g.values.copy() for g in ensemble(1, 8, 6, seed=11)]
    second = [g.values.copy() for g in ensemble(1, 8, 6, seed=11)]
    assert len(first) == 6
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    # spike inputs hold a single unit mass
    assert np.abs(first[0]).sum() == pytest.approx(1.0)
    # rademacher fields are unimodular
    assert np.all(np.abs(first[2]) == 1.0)


def test_ensemble_draws_are_pinned():
    # The first fields of fixed seeds; any change to the draw order fails.
    first = [g.values for g in ensemble(1, 3, 4, seed=2024)]
    assert all(np.all(v.imag == 0) for v in first)
    assert first[0].real.tolist() == [0, 1, 0, 0, 0, 0, 0]
    assert first[1].real.tolist() == [
        0.26207349287882875, 0.6832167232021095, 0.9940572892268112,
        0.807201342267722, 0.36582204362404896, 0.09252847462839943,
        0.013061662830690364]
    assert first[2].real.tolist() == [1, 1, 1, 1, 1, -1, -1]
    assert first[3].real.tolist() == [0, 0, 0, 0, 0, 0, 1]
    plane = [g.values.real for g in ensemble(2, 2, 4, seed=5)]
    assert plane[0][3, 4] == plane[3][1, 3] == 1.0
    assert np.unravel_index(plane[1].argmax(), (5, 5)) == (3, 2)
    assert plane[1].max() == 0.9560868863524238
    assert plane[2].tolist() == [[1, -1, -1, -1, 1], [-1, -1, -1, -1, -1],
                                 [-1, 1, -1, 1, 1], [-1, -1, -1, -1, 1],
                                 [-1, 1, 1, 1, -1]]


def test_growth_fit_reports_the_ensemble_max():
    # operator-norm's growth rows against V_r curves rebuilt from scratch,
    # with the truncations listed out of order.
    params = {"halfwidth": 8, "size": 6, "n_set": (4, 1, 8, 2),
              "r_grid": (3.0, 2.5)}
    out = run(RunConfig("operator-norm", seed=3, params=params))
    rows = [r for r in out.rows if r.case == "growth"]
    Q = canonical_mapping(1, 2)
    for j, row in enumerate(rows):
        ratios = [curves(f, Q, params["r_grid"], params["n_set"], 2.0)[j]
                  for f in ensemble(Q.d, 8, 6, seed=3)]
        assert row.params["r"] == params["r_grid"][j]
        assert row.observed == max(ratios)
        assert 0 < row.observed < 10


def test_growth_fit_scaled_constant_bounded():
    r_grid = [2.1, 2.5, 3.0]
    ratios = [curves(f, P_SQ, r_grid, [1, 2, 4, 8], 2.0)
              for f in ensemble(1, 12, 4, 5)]
    fit = growth_fit(r_grid, [max(col) for col in zip(*ratios)])
    assert 0 < fit["fitted_constant"] < 10
    assert all(row["scaled"] <= fit["fitted_constant"] + 1e-15
               for row in fit["rows"])


def test_growth_fit_rejects_low_r():
    with pytest.raises(ValueError):
        growth_fit([2.0], [1.0])


def test_operator_norm_applies_each_truncation_once(monkeypatch):
    # One build per (run, N): the lattice ball, the pushforward kernel and
    # its spectrum, at the one input shape.  Two backends per (field, N)
    # serve every check, plus one linearity input per N; the orbit oracle
    # realizes the first four fields.  multiplier-apply builds its one N
    # once for every trial and, running only the direct backend, no
    # spectrum.
    calls = Counter()
    kernels = []

    def counting(module, key, keep=False):
        fn = getattr(module, key)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            out = fn(*args, **kwargs)
            if keep:
                kernels.append(out)
            return out
        monkeypatch.setattr(module, key, wrapped)

    for key in ("apply_truncation", "ergodic_truncation"):
        counting(experiments, key)
    counting(experiments, "pushforward_kernel", keep=True)
    counting(operators, "lattice_points")
    fftn = np.fft.fftn

    def counting_fftn(a, *args, **kwargs):
        if any(a is ker.values for ker in kernels):
            calls["spectrum"] += 1
        return fftn(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fftn", counting_fftn)
    size, n_set = 5, (3, 1, 2)
    builds = dict.fromkeys(("lattice_points", "pushforward_kernel",
                            "spectrum"), len(n_set))
    for which in ("average", "singular"):
        calls.clear()
        kernels.clear()
        run(RunConfig("operator-norm", seed=2,
                      params={"size": size, "n_set": n_set,
                              "halfwidth": 6, "which": which}))
        assert calls == {**builds,
                         "apply_truncation": size * len(n_set) * 2
                         + len(n_set),
                         "ergodic_truncation": 4 * len(n_set)}
        assert all(len(ker._spectra) == 1 for ker in kernels)
    calls.clear()
    kernels.clear()
    run(RunConfig("multiplier-apply", seed=2, params={"trials": 3}))
    assert calls == {"lattice_points": 1, "pushforward_kernel": 1,
                     "apply_truncation": 3}
    assert not kernels[0]._spectra


# -- randomized cross-checks ---------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 8))
def test_backends_agree_property(seed, n):
    rng = np.random.default_rng(seed)
    f = random_grid(rng, 1, 5)
    a = apply(f, P_SQ, n, backend="direct")
    b = apply(f, P_SQ, n, backend="fft")
    assert grid_difference(a, b) <= 1e-10 * max(np.abs(a.values).max(), 1.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_ergodic_identification_property(seed):
    rng = np.random.default_rng(seed)
    f = random_grid(rng, 1, 4)
    direct = apply(f, P_CUBE_MIX, 3, backend="direct")
    orbit = ergodic(f, P_CUBE_MIX, 3)
    assert np.array_equal(direct.values, orbit.values)
