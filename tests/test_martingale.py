import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radonlab import martingale as mg
from radonlab.experiments import EXPERIMENTS
from radonlab.variation import (jump_count_batch, lp_norms,
                                variation_ratios, vr_exact_batch, vr_value)


def random_field(rng, m=1, L=6):
    shape = (2 ** L,) * m
    return mg.DyadicField(m, L, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))


def norm(v, p, measure):
    """The L^p norm of all of v, one `lp_norms` row."""
    return lp_norms(np.ravel(v)[None], p, measure)[0]


def stack_of(*fields):
    """The level stack of same-shape fields."""
    return mg._level_stack(np.stack([f.values for f in fields]),
                           fields[0].m, fields[0].L)


def level_rows(f):
    """E_0 f, ..., E_L f on the finest grid, one conditional expectation
    each: the reference for the level stack."""
    return [mg.conditional_expectation(f, k).values for k in range(f.L + 1)]


def differences(f):
    """D_k = E_k f - E_{k-1} f for k = 1..L, as fields."""
    rows = level_rows(f)
    return [mg.DyadicField(f.m, f.L, b - a) for a, b in zip(rows, rows[1:])]


# fields and conditional expectations ----------------------------------------

def test_field_validation():
    with pytest.raises(ValueError):
        mg.DyadicField(0, 2, np.zeros(4))
    with pytest.raises(ValueError):
        mg.DyadicField(1, -1, np.zeros(1))
    with pytest.raises(ValueError):
        mg.DyadicField(1, 2, np.zeros(5))
    with pytest.raises(ValueError):
        mg.DyadicField(2, 2, np.zeros((4, 2)))


def test_field_norms():
    # Integral norms: lp_norms with the cell measure.
    h = mg.haar_field(4)
    for p in (1, 2, math.inf):
        assert norm(h.values, p, h.cell_measure) == 1.0
    with pytest.raises(ValueError):
        norm(h.values, 0.5, h.cell_measure)


def test_expectation_of_half_indicator():
    f = mg.DyadicField(1, 3, np.r_[np.ones(4), np.zeros(4)].astype(complex))
    e0 = mg.conditional_expectation(f, 0)
    assert np.all(e0.values == 0.5)


def test_expectation_top_level_is_identity():
    rng = np.random.default_rng(0)
    f = random_field(rng)
    assert np.array_equal(mg.conditional_expectation(f, f.L).values,
                          f.values)


def test_expectation_haar_levels():
    h = mg.haar_field(3)
    assert np.all(mg.conditional_expectation(h, 0).values == 0.0)
    assert np.array_equal(mg.conditional_expectation(h, 1).values, h.values)


def test_expectation_level_range():
    h = mg.haar_field(3)
    with pytest.raises(ValueError):
        mg.conditional_expectation(h, -1)
    with pytest.raises(ValueError):
        mg.conditional_expectation(h, 4)


def test_tower_property_exact_rationals():
    vals = np.array([Fraction(i, 16) for i in range(16)], dtype=object)
    f = mg.DyadicField(1, 4, vals)
    for j in range(5):
        for k in range(5):
            lhs = mg.conditional_expectation(
                mg.conditional_expectation(f, k), j)
            rhs = mg.conditional_expectation(f, min(j, k))
            assert np.array_equal(lhs.values, rhs.values)


def test_tower_property_exact_2d():
    rng = np.random.default_rng(3)
    ints = rng.integers(-8, 9, size=(8, 8))
    vals = np.array([[Fraction(int(x), 4) for x in row] for row in ints],
                    dtype=object)
    f = mg.DyadicField(2, 3, vals)
    lhs = mg.conditional_expectation(mg.conditional_expectation(f, 2), 1)
    rhs = mg.conditional_expectation(f, 1)
    assert np.array_equal(lhs.values, rhs.values)


def test_differences_telescope_exactly():
    vals = np.array([Fraction(i ** 2, 8) for i in range(16)], dtype=object)
    f = mg.DyadicField(1, 4, vals)
    total = mg.conditional_expectation(f, 0).values
    for d in differences(f):
        total = total + d.values
    assert np.array_equal(total, f.values)


def test_differences_have_zero_parent_mean():
    rng = np.random.default_rng(1)
    f = random_field(rng, L=5)
    for k, d in enumerate(differences(f), start=1):
        coarse = mg.conditional_expectation(d, k - 1)
        assert np.max(np.abs(coarse.values)) < 1e-13


def test_orthogonality_identity():
    def norm2(g):
        return norm(g.values, 2, g.cell_measure)

    rng = np.random.default_rng(2)
    for f in (random_field(rng, m=1, L=6), random_field(rng, m=2, L=3)):
        lhs = norm2(f) ** 2
        rhs = norm2(mg.conditional_expectation(f, 0)) ** 2 + sum(
            norm2(d) ** 2 for d in differences(f))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tower_and_orthogonality_defects():
    # Nine L = 8 fields span three engine chunks (4, 4, 1); each defect is
    # the worst of the per-field defects.
    rng = np.random.default_rng(6)
    for fields in ([random_field(rng, L=8) for _ in range(9)],
                   [random_field(rng, m=2, L=3) for _ in range(3)]):
        for defect in (mg.tower_defect, mg.orthogonality_defect):
            worst = defect(fields)
            assert worst <= 1e-12
            assert worst == pytest.approx(max(defect([f]) for f in fields),
                                          abs=1e-15)


def test_square_norm_equals_mean_free_norm():
    rng = np.random.default_rng(4)
    f = random_field(rng, L=6)
    sub = mg.DyadicField(1, 6, f.values
                         - mg.conditional_expectation(f, 0).values)
    square = mg._square(stack_of(f))
    assert norm(square, 2, f.cell_measure) == pytest.approx(
        norm(sub.values, 2, sub.cell_measure), abs=1e-10)


# square, maximal, jumps -------------------------------------------------------

def test_level_stack_equals_the_conditional_expectations():
    # Quarters average exactly in floats, so the float stack's columns
    # are the exact rational expectations bit for bit.
    rng = np.random.default_rng(7)
    for m, L in ((1, 4), (2, 3)):
        ints = rng.integers(-8, 9, size=(2 ** L,) * m)
        vals = np.vectorize(lambda x: Fraction(int(x), 4),
                            otypes=[object])(ints)
        f = mg.DyadicField(m, L, vals)
        want = np.stack([v.ravel() for v in level_rows(f)], axis=1)
        got = stack_of(mg.DyadicField(m, L, vals.astype(complex)))
        assert np.array_equal(got, want.astype(complex))


def test_constant_square_and_maximal():
    stack = stack_of(mg.DyadicField(1, 4, np.full(16, -2.5 + 0j)))
    assert np.all(mg._square(stack) == 0.0)
    assert np.all(np.abs(stack).max(axis=1) == 2.5)


def test_haar_square_and_maximal():
    stack = stack_of(mg.haar_field(5))
    assert np.all(mg._square(stack) == 1.0)
    assert np.all(np.abs(stack).max(axis=1) == 1.0)


def test_jump_counts():
    c = mg.DyadicField(1, 3, np.full(8, 7.0 + 0j))
    assert np.all(jump_count_batch(stack_of(c), 0.5) == 0)
    h = mg.haar_field(5)
    jumps = jump_count_batch(stack_of(h), 0.5)
    assert np.all(jumps == 1)
    # One jump of size 1 everywhere: ||lambda N_lambda^{1/2}||_p = lambda.
    assert norm(0.5 * np.sqrt(jumps), 2, h.cell_measure) == 0.5
    with pytest.raises(ValueError):
        jump_count_batch(stack_of(h), -1.0)


def test_jump_dominated_by_variation_pointwise():
    rng = np.random.default_rng(5)
    f = random_field(rng, L=5)
    levels = np.stack([v.ravel() for v in level_rows(f)], axis=1)
    for lam in (0.25, 0.5, 1.0):
        for r in (2.5, 3.0):
            jumps = jump_count_batch(levels, lam)
            vr = vr_exact_batch(levels, r)
            assert np.all(jumps <= lam ** (-r) * vr ** r + 1e-12)


# Lepingle ratios ---------------------------------------------------------------

def lepingle_ratio(f, p, r):
    """||V_r(E_k f : k)||_p / ||f||_p of one field, by `ratio_sweep`."""
    (sweep,) = mg.ratio_sweep([f], [p], [r])
    return sweep["rows"][0]["max_ratio"]


def test_lepingle_constant_is_zero():
    c = mg.DyadicField(1, 4, np.full(16, 3.0 + 0j))
    assert lepingle_ratio(c, 2, 3.0) == 0.0
    zero = mg.DyadicField(1, 4, np.zeros(16, dtype=complex))
    assert lepingle_ratio(zero, 2, 3.0) == 0.0


def test_lepingle_haar_ratio_one():
    h = mg.haar_field(5)
    for p in (1.5, 2.0, 3.0):
        for r in (2.5, 4.0):
            assert lepingle_ratio(h, p, r) == pytest.approx(1.0)


def test_ratio_sweep_reports_bounded_fit():
    fields = list(mg.field_ensemble(1, 5, 12, seed=7))
    out, = mg.ratio_sweep(fields, [2.0], [2.05, 2.5, 3.0, 4.0])
    assert math.isfinite(out["fitted_constant"])
    assert out["fitted_constant"] > 0
    for row in out["rows"]:
        assert row["scaled"] == pytest.approx(
            row["max_ratio"] * (row["r"] - 2) / row["r"])
    with pytest.raises(ValueError):
        mg.ratio_sweep(fields, [2.0], [1.5, 3.0])


def _per_cell_variation(f, r, memo):
    """V_r of every cell's level sequence by the scalar DP, one cell at a time."""
    levels = np.stack([v.ravel() for v in level_rows(f)], axis=1)
    out = np.empty(len(levels))
    for c, seq in enumerate(levels):
        key = (r, seq.tobytes())
        if key not in memo:
            memo[key] = vr_value(seq, r)
        out[c] = memo[key]
    return out


def test_ratio_sweep_bitwise_across_chunk_boundaries(monkeypatch):
    # 37 fields of 256 cells in chunks of 4 fields: several full chunks
    # and a partial last one, which holds a spike, the largest ratio for
    # p < 3.
    monkeypatch.setattr(mg, "_ENGINE_COLUMNS", 1024)
    rng = np.random.default_rng(4)
    fields = [mg.DyadicField(1, 8, rng.choice([-1.0, 1.0], size=256))
              for _ in range(36)]
    fields.append(mg.DyadicField(1, 8, np.eye(256)[100]))
    per_chunk = mg._ENGINE_COLUMNS // fields[0].cells
    assert len(fields) > 2 * per_chunk and len(fields) % per_chunk == 1
    p_grid, r_grid = (1.5, 2.0, 3.0), (4.0, 2.05)
    sweeps = mg.ratio_sweep(fields, p_grid, r_grid)
    assert [s["p"] for s in sweeps] == list(p_grid)
    memo = {}
    for r in r_grid:
        vrs = [_per_cell_variation(f, r, memo) for f in fields]
        for p, sweep in zip(p_grid, sweeps):
            ratios = []
            for f, v in zip(fields, vrs):
                den = norm(f.values, p, f.cell_measure)
                ratios.append(norm(v, p, f.cell_measure) / den
                              if den else 0.0)
            if p < 3:
                assert ratios.index(max(ratios)) == len(fields) - 1
            row, = (row for row in sweep["rows"] if row["r"] == r)
            assert row["max_ratio"] == max(ratios)


def test_chunk_ratios_are_one_field_calls(monkeypatch):
    # Chunks of 4 fields over 11 mixed fields, a zero field among them:
    # each chunk's `variation_ratios` block, taken as `ratio_sweep` takes
    # it, holds every field's one-field call bit for bit.
    monkeypatch.setattr(mg, "_ENGINE_COLUMNS", 1024)
    fields = list(mg.field_ensemble(1, 8, 10, seed=9))
    fields.insert(5, mg.DyadicField(1, 8, np.zeros(256)))
    r_grid, p_grid = (4.0, 2.5, 2.05), (1.5, 2.0, 3.0)

    def ratios(chunk):
        return [variation_ratios(mg._engine_rows(stack),
                                 values.reshape(len(values), -1),
                                 r_grid, p_grid, measure)
                for values, stack, measure in mg._chunks(chunk)]
    blocks = ratios(fields)
    assert [b.shape[2] for b in blocks] == [4, 4, 3]
    whole = np.concatenate(blocks, axis=2)
    assert not whole[:, :, 5].any()
    for i, f in enumerate(fields):
        (one,) = ratios([f])
        assert one[:, :, 0].tobytes() == whole[:, :, i].tobytes()


def test_chunks_stack_each_field_once():
    # A chunk's values are its fields' values, stacked in order, and its
    # stack is built from them.
    fields = list(mg.field_ensemble(2, 3, 5, seed=4))
    (values, stack, measure), = mg._chunks(fields)
    assert values.shape == (5, 8, 8) and measure == 2.0 ** -6
    assert all(np.array_equal(v, f.values) for v, f in zip(values, fields))
    assert np.array_equal(stack, np.concatenate(
        [np.stack([v.ravel() for v in level_rows(f)], axis=1)
         for f in fields]))


def test_good_lambda_grid_equals_one_lambda_calls():
    lams = (0.25, 0.5, 1.0, 2.0)
    fields = list(mg.field_ensemble(1, 6, 6, seed=19))
    grids = mg.good_lambda_check(fields, lams, 2.0, 2.5)
    assert len(grids) == len(fields)
    for f, grid in zip(fields, grids):
        assert [rec["lam"] for rec in grid] == list(lams)
        for lam, rec in zip(lams, grid):
            assert rec == mg.good_lambda_check([f], [lam], 2.0, 2.5)[0][0]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweeps_hold_one_chunk_at_a_time():
    # Unchunked, the sweep peaks at 34 MB and the 50-field jump block at
    # 8.7 MB; in chunks of 8192 rows, at 2.3 MB and 3.3 MB.
    params = EXPERIMENTS["lepingle"].defaults
    fields = list(mg.field_ensemble(
        1, 8, params["fields"], seed=1))
    assert _peak_bytes(lambda: mg.ratio_sweep(
        fields, params["p_grid"], params["r_grid"])) < 8 << 20
    assert _peak_bytes(lambda: mg.jump_bound_defect(
        fields[:50], params["lam_grid"], params["jump_r"])) < 8 << 20


def test_good_lambda_validation_and_trivial_cases():
    h = mg.haar_field(4)
    with pytest.raises(ValueError):
        mg.good_lambda_check([h], [0.0], 2.0, 3.0)
    with pytest.raises(ValueError):
        mg.good_lambda_check([h], [1.0], 1.5, 3.0)
    with pytest.raises(ValueError):
        mg.good_lambda_check([h], [1.0], 2.0, 2.0)
    # V_r = 1 < 2 everywhere: the left set is empty
    [rep], = mg.good_lambda_check([h], [2.0], 2.0, 3.0)
    assert rep["lhs_measure"] == 0.0 and rep["ratio"] == 0.0
    c = mg.DyadicField(1, 4, np.full(16, 9.0 + 0j))
    [rep], = mg.good_lambda_check([c], [1.0], 2.0, 3.0)
    assert rep["lhs_measure"] == 0.0 and rep["rhs_measure"] == 0.0


def test_good_lambda_finite_on_random_fields():
    fields = list(mg.field_ensemble(1, 5, 9, seed=11))
    for records in mg.good_lambda_check(fields, (0.25, 1.0), 2.5, 2.5):
        assert all(math.isfinite(rep["ratio"]) for rep in records)


def test_doubling_constant():
    assert mg.doubling_constant(1) == 2
    assert mg.doubling_constant(2) == 4
    assert mg.doubling_constant(3) == 8


def test_field_ensemble_deterministic():
    a = [f.values for f in mg.field_ensemble(1, 4, 6, seed=13)]
    b = [f.values for f in mg.field_ensemble(1, 4, 6, seed=13)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert len(a) == 6


def test_field_ensemble_draws_are_pinned():
    # The first fields of fixed seeds; any change to the draw order fails.
    first = [f.values for f in mg.field_ensemble(1, 3, 4, seed=2024)]
    assert all(np.all(v.imag == 0) for v in first)
    assert first[0].real.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]
    assert first[1].real.tolist() == [
        0.031191204372198404, 0.3167595351724426, 0.923428130400837,
        0.7727737375924926, 0.18564252165896533, 0.01280201743426412,
        0.0002534283641450456, 1.4401504912363341e-06]
    assert first[2].real.tolist() == [1, 1, 1, 1, 1, -1, -1, 1]
    assert first[3].real.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    plane = [f.values.real for f in mg.field_ensemble(2, 2, 4, seed=5)]
    assert plane[0][2, 3] == plane[3][1, 1] == 1.0
    assert plane[1].max() == 0.5293938828293052
    assert plane[2].tolist() == [[1, -1, -1, -1], [1, -1, -1, -1],
                                 [-1, -1, -1, 1], [-1, 1, 1, -1]]


@pytest.mark.parametrize("seed", [1, 3, 7, 42])
def test_cut_real_stacks_are_the_uncut_complex_ones(seed):
    # The experiments' own stacks at their defaults: every chunk is real,
    # and V_r of its real part, all r in one call, has the bits of the
    # uncut engine on the complex stack, one r at a time.
    for name in ("lepingle", "good-lambda"):
        params = EXPERIMENTS[name].defaults
        grid = sorted({*params.get("r_grid", ()),
                       params.get("jump_r", params.get("r"))})
        fields = list(mg.field_ensemble(params["m"], params["L"],
                                        params["fields"], seed))
        for _, stack, _ in mg._chunks(fields):
            rows = mg._engine_rows(stack)
            assert rows.dtype == float
            for r, got in zip(grid, vr_exact_batch(rows, grid)):
                assert got.tobytes() == vr_exact_batch(stack, r).tobytes()


def test_complex_stacks_stay_complex():
    f = random_field(np.random.default_rng(3))
    stack = stack_of(f)
    assert mg._engine_rows(stack) is stack


# properties ---------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=4))
def test_expectation_idempotent(k):
    rng = np.random.default_rng(23)
    f = random_field(rng, L=4)
    once = mg.conditional_expectation(f, k)
    twice = mg.conditional_expectation(once, k)
    assert np.max(np.abs(once.values - twice.values)) < 1e-13


@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.05, max_value=2.0))
def test_jump_monotone_in_lambda(l1, l2):
    rng = np.random.default_rng(29)
    f = random_field(rng, L=4)
    lo, hi = sorted((l1, l2))
    stack = stack_of(f)
    assert np.all(jump_count_batch(stack, hi) <= jump_count_batch(stack, lo))


@given(st.floats(min_value=0.1, max_value=8.0))
def test_lepingle_ratio_scale_invariant(scale):
    rng = np.random.default_rng(31)
    f = random_field(rng, L=4)
    g = mg.DyadicField(f.m, f.L, scale * f.values)
    assert lepingle_ratio(g, 2, 3.0) == pytest.approx(
        lepingle_ratio(f, 2, 3.0), rel=1e-9)
