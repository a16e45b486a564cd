import itertools
import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radonlab import variation as vr
from radonlab.errors import BudgetError

finite_complex = st.complex_numbers(max_magnitude=10, allow_nan=False,
                                    allow_infinity=False)
seqs = st.lists(finite_complex, min_size=1, max_size=10)
rs = st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0])


# frozen example values --------------------------------------------------

def test_vr_up_down_r2():
    assert vr.vr_exact([0, 1, 0], 2).value == pytest.approx(np.sqrt(2), abs=1e-14)


def test_vr_total_variation_r1():
    assert vr.vr_exact([0, 1, 0, 1], 1).value == pytest.approx(3.0, abs=1e-14)


def test_vr_singleton_and_constant():
    assert vr.vr_exact([7.0], 2).value == 0.0
    assert vr.vr_exact([3, 3, 3], 2).value == 0.0


def test_witness_reproduces_value():
    rng = np.random.default_rng(3)
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    for r in (1.0, 2.0, 3.5):
        res = vr.vr_exact(a, r)
        idx = [int(l) for l in res.witness]
        re_eval = (np.abs(np.diff(a[idx])) ** r).sum() ** (1 / r) if len(idx) > 1 else 0.0
        assert re_eval == pytest.approx(res.value, rel=1e-12)


def test_vr_long_dyadic_labels():
    a = np.arange(1.0, 9.0)
    assert vr.long_short_split(a, 2, labels=a)[1] == pytest.approx(7.0)


def test_vr_long_short_two_point():
    a, labels = [0.0, 1.0], [2.0, 3.0]
    _, lng, sht = vr.long_short_split(a, 2, labels=labels)
    assert lng == 0.0
    assert sht == pytest.approx(1.0)


@pytest.mark.parametrize("b", [49, 52])
def test_short_variation_takes_exact_dyadic_blocks(b):
    # 2^b - 2 and 2^b - 1 share block b - 1, and 2^b starts block b, so
    # the one within-block step is 1; floor(log2) put 2^b - 1 in block b.
    labels = [2 ** b - 2, 2 ** b - 1, 2 ** b]
    assert vr.long_short_split([0, 1, 5], 2, labels=labels)[2] == 1.0
    assert vr.long_short_split([[0, 1, 5]] * 2, 2, labels=labels)[2].tolist() \
        == [1.0, 1.0]


def test_oscillation_examples():
    check = vr.oscillation_holder_check
    assert check([0, 1, 0, 1, 0], (0, 2, 4), 2, 2.0)[0] == pytest.approx(np.sqrt(2))
    assert check([0, 3, 1], (0, 2), 1, 2.0)[0] == pytest.approx(3.0)


def test_oscillation_bad_block_count():
    with pytest.raises(ValueError):
        vr.oscillation_holder_check([0, 1, 0], (0, 2), 2, 2.0)


def test_jump_examples():
    assert vr.jump_count([0, 1, 0, 1], 0.5) == 3
    assert vr.jump_count([5, 5, 5], 2.0) == 0
    assert vr.jump_count([0, 2, 0], 3.0) == 0


def test_jump_needs_chain_dp_not_fixed_start_greedy():
    # the best chain does not contain the first element
    a = [2.5, 0.0, 5.0, 0.0, 5.0]
    assert vr.jump_count(a, 4.9) == 3
    assert vr.jump_count_bruteforce(a, 4.9) == 3


def test_dyadic_level_square_bound_example():
    lhs, rhs = vr.dyadic_level_square_bound(np.arange(5.0), 2)
    assert lhs == pytest.approx(4.0)
    assert rhs == pytest.approx(np.sqrt(2) * (2.0 + np.sqrt(8.0) + 4.0))


def test_dyadic_level_requires_power_of_two_plus_one():
    with pytest.raises(ValueError):
        vr.dyadic_level_square_bound(np.arange(4.0), 2)


def test_lp_norm_is_the_compensated_sum():
    rng = np.random.default_rng(8)
    for shape in ((7,), (3, 5), (2, 2, 2)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for p in (1.0, 1.5, 2.0, 3.0):
            s = math.fsum(np.abs(v).ravel() ** p)
            assert vr.lp_norm(v, p) == float(s) ** (1 / p)
            assert vr.lp_norm(v, p, 0.25) == (0.25 * s) ** (1 / p)
        assert vr.lp_norm(v, math.inf) == np.abs(v).max()
    with pytest.raises(ValueError):
        vr.lp_norm(v, 0.5)


# oracle equivalence and properties --------------------------------------

@given(seqs, rs)
def test_dp_matches_bruteforce(a, r):
    dp = vr.vr_exact(a, r).value
    brute = vr.vr_bruteforce(a, r).value
    assert dp == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_batch_matches_scalar(rng):
    # One recursion serves both paths, so they agree to the last bit.
    vals = rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9))
    for r in (1.0, 1.5, 2.0, 3.0, 10.0):
        batch = vr.vr_exact_batch(vals, r)
        singles = [vr.vr_exact(v, r).value for v in vals]
        assert batch.tolist() == singles
        assert [vr.vr_value(v, r) for v in vals] == singles
        bbatch = vr.vr_bruteforce_batch(vals, r)
        assert np.allclose(bbatch, singles, rtol=1e-12)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, 10.0])
def test_batch_matches_scalar_at_the_boundaries(r):
    # n = 1, a constant row, and r = 1 (where V_1 is the total variation).
    rows = np.array([[0, 1, 0, 1], [3, 3, 3, 3], [0, 2, 1, 5]], dtype=complex)
    batch = vr.vr_exact_batch(rows, r)
    assert batch.tolist() == [vr.vr_exact(v, r).value for v in rows]
    assert batch[1] == 0.0
    assert vr.vr_exact_batch(rows[:, :1], r).tolist() == [0.0, 0.0, 0.0]
    assert vr.vr_exact(rows[1], r).witness == (0.0,)
    if r == 1.0:
        assert batch.tolist() == [3.0, 0.0, 7.0]


def test_batch_holds_no_cubic_tensor():
    # A (200, 257) batch needs O(m n) memory; an m x n x n array of the
    # pairwise distances alone would take 106 MB.
    vals = np.random.default_rng(5).normal(size=(200, 257)) + 0j
    tracemalloc.start()
    try:
        vr.vr_exact_batch(vals, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _enumerated_vr(rows, r):
    """Best chain totals by an explicit walk over every subsequence.

    Each total is a left-associated sum of Python floats, taken from the
    same |v_j - v_i|^r table the oracle builds, so it must match the
    oracle to the last bit.
    """
    pd = np.abs(rows[:, :, None] - rows[:, None, :]) ** r
    best = []
    for table in pd.tolist():
        top = 0.0
        for k in range(2, len(table) + 1):
            for idx in itertools.combinations(range(len(table)), k):
                total = 0.0
                for i, j in zip(idx, idx[1:]):
                    total += table[i][j]
                top = max(top, total)
        best.append(top)
    return np.array(best) ** (1.0 / r)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, 10.0])
def test_bruteforce_batch_is_the_explicit_enumeration(r):
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        rows = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        rows[0] = 2.5  # a constant row
        got = vr.vr_bruteforce_batch(rows, r)
        assert got.tolist() == _enumerated_vr(rows, r).tolist()
        assert got[0] == 0.0
    if r == 1.0:
        # V_1 is the total variation.
        assert vr.vr_bruteforce_batch([[0, 1, 0, 1], [0, 2, 1, 5]],
                                      r).tolist() == [3.0, 7.0]


def test_bruteforce_batch_at_the_limit():
    rows = np.random.default_rng(12).normal(size=(1, vr.BRUTEFORCE_LIMIT)) + 0j
    got = vr.vr_bruteforce_batch(rows, 2.0)
    assert got.tolist() == _enumerated_vr(rows, 2.0).tolist()
    assert got[0] == pytest.approx(vr.vr_exact(rows[0], 2.0).value, rel=1e-12)


@pytest.mark.parametrize("a,lam", [([0, 1, 2, 3], 1.0), ([0, 1, 0, 1], 1.0),
                                   ([0, 2, 1, 3, 0, 2], 1.0), ([5, 5, 5], 0.0),
                                   ([4.0], 0.0), ([0, 1], 0.0), ([0, 1], 1.0)])
def test_jump_bruteforce_is_the_explicit_enumeration(a, lam):
    # Integer gaps equal to lambda must not count.  A chain of k points
    # makes k - 1 jumps.
    longest = max(k for k in range(1, len(a) + 1)
                  for idx in itertools.combinations(range(len(a)), k)
                  if all(abs(a[j] - a[i]) > lam
                         for i, j in zip(idx, idx[1:])))
    assert vr.jump_count_bruteforce(a, lam) == longest - 1


def test_bruteforce_budget():
    too_long = np.zeros(vr.BRUTEFORCE_LIMIT + 1)
    for oracle in (lambda: vr.vr_bruteforce(too_long, 2),
                   lambda: vr.vr_bruteforce_batch(too_long, 2),
                   lambda: vr.jump_count_bruteforce(too_long, 1.0)):
        with pytest.raises(BudgetError) as info:
            oracle()
        assert info.value.estimate == 2 ** 17


def test_bruteforce_batch_memory_is_chunked():
    # vr-suite's largest default input; one (500, 2^12) array of chain
    # totals alone would take 16 MB.
    vals = np.random.default_rng(6).normal(size=(500, 12)) + 0j
    tracemalloc.start()
    try:
        vr.vr_bruteforce_batch(vals, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@given(seqs, rs, finite_complex, st.floats(0.25, 4))
def test_affine_invariance(a, r, shift, scale):
    base = vr.vr_exact(a, r).value
    moved = vr.vr_exact(scale * np.asarray(a, dtype=complex) + shift, r).value
    assert moved == pytest.approx(scale * base, rel=1e-9, abs=1e-9)


@given(seqs)
def test_monotone_nonincreasing_in_r(a):
    values = [vr.vr_exact(a, r).value for r in (1.0, 1.5, 2.0, 3.0, 10.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi <= lo + 1e-9


@given(seqs, rs, st.integers(0, 9), st.integers(0, 9))
def test_restriction_monotone(a, r, i, j):
    lo, hi = sorted((min(i, len(a) - 1), min(j, len(a) - 1)))
    sub = a[lo:hi + 1]
    if not sub:
        sub = a[:1]
    assert vr.vr_exact(sub, r).value <= vr.vr_exact(a, r).value + 1e-12


@given(seqs, rs)
def test_sup_bound_factor_two(a, r):
    lhs, rhs = vr.sup_bound_check(a, r)
    assert lhs <= rhs + 1e-9


@given(seqs, rs, st.integers(0, 10))
def test_split_bound_factor_two(a, r, w):
    lhs, rhs = vr.split_bound_check(a, r, float(w))
    assert lhs <= rhs + 1e-9


@given(seqs, st.sampled_from([2.0, 3.0, 10.0]))
def test_l2_bound_factor_two(a, r):
    lhs, rhs = vr.l2_bound_check(a, r)
    assert lhs <= rhs + 1e-9


@given(seqs, st.floats(0.05, 5), rs)
def test_jump_variation_inequality(a, lam, r):
    lhs, rhs = vr.jump_variation_check(a, lam, r)
    assert lhs <= rhs + 1e-9


@given(st.lists(finite_complex, min_size=5, max_size=12),
       st.sampled_from([2.0, 3.0, 10.0]))
def test_oscillation_holder(a, r):
    n = len(a)
    lac = [0, n // 2, n - 1] if n // 2 not in (0, n - 1) else [0, n - 1]
    J = len(lac) - 1
    lhs, rhs = vr.oscillation_holder_check(a, lac, J, r)
    assert lhs <= rhs + 1e-9


def test_long_short_domination_contiguous(rng):
    # V_r <= 2 (V^L + V^S) on full ranges 1..n; ratio above 4 would be a bug
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 33))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        lab = np.arange(1, n + 1, dtype=float)
        r = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        full, lo, sh = vr.long_short_split(a, r, labels=lab)
        if lo + sh > 0:
            worst = max(worst, full / (lo + sh))
        else:
            assert full == 0.0
    assert worst <= 2.0 + 1e-9


def test_jump_dp_matches_bruteforce(rng):
    for _ in range(120):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        lam = float(rng.uniform(0.05, 3.0))
        assert vr.jump_count(a, lam) == vr.jump_count_bruteforce(a, lam)


def test_jump_ties_at_lambda_do_not_count():
    rows = np.array([[0, 1, 2, 3], [0, 1, 0, 1], [5, 5, 5, 5]],
                    dtype=complex)
    assert vr.jump_count_batch(rows, 1.0).tolist() == [1, 0, 0]
    assert vr.jump_count_batch(rows, 0.0).tolist() == [3, 3, 0]
    for lam in (0.0, 1.0):
        assert (vr.jump_count_batch(rows, lam).tolist()
                == [vr.jump_count(row, lam) for row in rows])
    assert vr.jump_count([4.0], 0.0) == 0
    assert vr.jump_count_batch(rows[:, :1], 0.0).tolist() == [0, 0, 0]
    # The check takes the block too; its lhs is the jump count.
    lhs, rhs = vr.jump_variation_check(rows, 1.0, 2.0)
    assert lhs.tolist() == [1.0, 0.0, 0.0]
    assert rhs.tolist() == [vr.jump_variation_check(row, 1.0, 2.0)[1]
                            for row in rows]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=10),
       st.sampled_from([0.0, 1.0, 2.0, 2.5]))
def test_jump_dp_matches_bruteforce_with_ties(a, lam):
    # Integer values make gaps equal to lambda, which must not count.
    assert vr.jump_count(a, lam) == vr.jump_count_bruteforce(a, lam)


def test_jump_batch_matches_scalar(rng):
    for _ in range(25):
        batch = rng.normal(size=(8, 7)) + 1j * rng.normal(size=(8, 7))
        lam = float(rng.uniform(0.05, 2.0))
        got = vr.jump_count_batch(batch, lam)
        want = [vr.jump_count(row, lam) for row in batch]
        assert got.tolist() == want
    with pytest.raises(ValueError):
        vr.jump_count_batch(np.zeros((2, 3)), -0.5)


def test_dyadic_level_bound_random(rng):
    for s in (1, 2, 3, 4):
        for _ in range(50):
            a = rng.choice([-1.0, 1.0], size=2 ** s + 1)
            for r in (2.0, 3.0):
                lhs, rhs = vr.dyadic_level_square_bound(a, r)
                assert lhs <= rhs + 1e-9


# blocks of sequences ----------------------------------------------------

def assert_block_is_its_rows(check, block, *args, **kwargs):
    """check(block) holds length-m arrays whose rows are the one-row
    floats of check(row), bit for bit."""
    got = check(block, *args, **kwargs)
    got = got if isinstance(got, tuple) else (got,)
    for x in got:
        assert isinstance(x, np.ndarray) and x.shape == (len(block),)
    for i, row in enumerate(block):
        want = check(row, *args, **kwargs)
        want = want if isinstance(want, tuple) else (want,)
        assert all(type(w) is float for w in want)
        assert (np.array([x[i] for x in got]).tobytes()
                == np.array(want).tobytes())


def check_block(rng, n, m=12):
    block = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    block[0] = 2.5          # a constant row
    block[1] = block[2]     # a repeated row
    return block


@pytest.mark.parametrize("n", [1, 2, 3, 9, 33, 65])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_checks_on_a_block_equal_their_rows(rng, n, r):
    block = check_block(rng, n)
    labels = np.arange(1, n + 1)
    assert_block_is_its_rows(vr.sup_bound_check, block, r)
    # On the labels 0..n-1, w = n / 2 splits; w = 0 and w = n leave one
    # side empty.
    for w in (n / 2, 0.0, float(n)):
        assert_block_is_its_rows(vr.split_bound_check, block, r, w)
    assert_block_is_its_rows(vr.long_short_split, block, r, labels=labels)
    for lam in (0.25, 1.0):
        assert_block_is_its_rows(vr.jump_variation_check, block, lam, r)
    if r >= 2:
        assert_block_is_its_rows(vr.l2_bound_check, block, r)
    if r >= 2 and n >= 2:
        lac = [0, n // 2, n - 1] if n // 2 not in (0, n - 1) else [0, n - 1]
        assert_block_is_its_rows(vr.oscillation_holder_check, block, lac,
                                 len(lac) - 1, r)


@pytest.mark.parametrize("s", [0, 1, 3, 6])
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_dyadic_level_block_equals_its_rows(rng, s, r):
    assert_block_is_its_rows(vr.dyadic_level_square_bound,
                             check_block(rng, 2 ** s + 1), r)


def test_checks_round_as_their_scalar_formulas(rng):
    # Powers are taken in Python floats, as the one-sequence definitions
    # state them; NumPy's vectorized power may round some values apart.
    # Sums are row sums, so a block adds in the order one sequence does.
    n, r, lam = 17, 3.0, 0.5
    block = check_block(rng, n, m=40)
    labels = np.arange(1, n + 1)
    short = vr.long_short_split(block, r, labels=labels)[2]
    _, jump_rhs = vr.jump_variation_check(block, lam, r)
    osc, _ = vr.oscillation_holder_check(block, [0, 4, 16], 2, r)
    _, l2_rhs = vr.l2_bound_check(block, r)
    _, dyadic_rhs = vr.dyadic_level_square_bound(block, r)
    for i, a in enumerate(block):
        assert l2_rhs[i] == 2.0 * np.sqrt((np.abs(a) ** 2).sum())
        levels = 0.0
        for stride in (1, 2, 4, 8, 16):
            d = a[stride::stride] - a[:-stride:stride]
            levels += float(np.sqrt((np.abs(d) ** 2).sum()))
        assert dyadic_rhs[i] == np.sqrt(2.0) * levels
        total = 0.0
        for lo, hi in ((2, 4), (4, 8), (8, 16), (16, 18)):
            total += vr.vr_value(a[lo - 1:hi - 1], r) ** r
        assert short[i] == total ** (1.0 / r)
        assert jump_rhs[i] == lam ** (-r) * vr.vr_value(a, r) ** r
        sq = (float(np.abs(a[1:5] - a[0]).max()) ** 2
              + float(np.abs(a[5:17] - a[4]).max()) ** 2)
        assert osc[i] == sq ** 0.5


def test_checks_on_a_block_keep_their_refusals():
    block = np.ones((3, 5), dtype=complex)
    for bad in (lambda: vr.l2_bound_check(block, 1.5),
                lambda: vr.oscillation_holder_check(block, [0, 2, 4], 2, 1.5),
                lambda: vr.dyadic_level_square_bound(block, 1.5),
                lambda: vr.dyadic_level_square_bound(block[:, :4], 2.0),
                lambda: vr.jump_variation_check(block, 0.0, 2.0),
                lambda: vr.jump_variation_check(block, -1.0, 2.0),
                lambda: vr.sup_bound_check(block, 0.5),
                lambda: vr.sup_bound_check(block[None], 2.0),
                lambda: vr.long_short_split(block, 2.0, labels=np.arange(5)),
                lambda: vr.split_bound_check(block, 0.5, 1.0)):
        with pytest.raises(ValueError):
            bad()


# the one input form -----------------------------------------------------

_BLOCK = np.ones((3, 5), dtype=complex)
_ROW = np.arange(5.0)
# Labels from 1, so that the long/short checks would accept them aligned.
_BAD_LABELS = {"misaligned": [1, 2, 3], "tied": [1, 2, 2, 3, 4],
               "decreasing": [1, 3, 2, 4, 5],
               "2-d": np.arange(1.0, 11.0).reshape(2, 5)}
_ONE_SEQUENCE = ((vr.vr_exact, (2.0,)), (vr.vr_value, (2.0,)),
                 (vr.vr_bruteforce, (2.0,)),
                 (vr.jump_count, (1.0,)), (vr.jump_count_bruteforce, (1.0,)))
_REFUSALS = [
    *(pytest.param(vr.long_short_split, (_BLOCK, 2.0), {"labels": labels},
                   "labels", id=f"long_short_split-labels-{name}")
      for name, labels in _BAD_LABELS.items()),
    *(pytest.param(fn, (_BLOCK, *args), {}, "one sequence",
                   id=f"{fn.__name__}-block")
      for fn, args in _ONE_SEQUENCE),
    *(pytest.param(fn, (a, -0.5), {}, "lambda",
                   id=f"{fn.__name__}-negative-lambda")
      for fn, a in ((vr.jump_count, _ROW), (vr.jump_count_bruteforce, _ROW),
                    (vr.jump_count_batch, _BLOCK))),
    pytest.param(vr.vr_exact, ([], 2.0), {}, "sequence", id="empty"),
]


@pytest.mark.parametrize("fn,args,kwargs,match", _REFUSALS)
def test_one_input_form_refusals(fn, args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        fn(*args, **kwargs)


_READERS = (
    (vr.vr_exact, (2.0,)), (vr.vr_bruteforce, (2.0,)),
    (vr.jump_count, (0.5,)), (vr.jump_count_bruteforce, (0.5,)),
    (vr.vr_exact_batch, (2.0,)), (vr.vr_bruteforce_batch, (2.0,)),
    (vr.jump_count_batch, (0.5,)), (vr.sup_bound_check, (2.0,)))
_UNREADABLE = {"empty": (np.zeros((3, 0)), "non-empty"),
               "3-d": (np.zeros((2, 3, 4)), "non-empty"),
               "nan": ([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.nan, 1.0]],
                       "nan.* row 1 at index 2"),
               "inf": ([0.0, 1.0, 2.0, -np.inf], "inf.* row 0 at index 3")}


@pytest.mark.parametrize("fn,args", _READERS,
                         ids=[fn.__name__ for fn, _ in _READERS])
@pytest.mark.parametrize("kind", list(_UNREADABLE))
def test_every_reader_refuses_unreadable_input(fn, args, kind):
    # One reader for every entry point: an empty or 3-d input is refused,
    # not answered with zeros, and so is a non-finite value, named by its
    # row and index, which the one-row path's Python > would drop without
    # a sign.
    a, match = _UNREADABLE[kind]
    with pytest.raises(ValueError, match=match):
        fn(a, *args)


# the one-row path -------------------------------------------------------

# Lengths at and around the tile edges, and single rows whose tiles' gains
# outgrow `_GAIN_BYTES`, the block loop's gain chunk.
_TILE_EDGES = [1, 2, 15, 16, 17, 33, 65, 257, 512, 513, 1025]


def fast_path_rows(n):
    """A random complex row, an integer-valued row (ties) and a row of
    flat runs."""
    rng = np.random.default_rng(n)
    flat = np.repeat(rng.normal(size=n // 3 + 1), 3)[:n]
    return {"complex": rng.normal(size=n) + 1j * rng.normal(size=n),
            "integer": rng.integers(-3, 4, size=n).astype(complex),
            "flat": flat + 0j}


def assert_one_row_is_its_batch_row(a, gain):
    # best at every chain end, alone (the tiled path) and as the first
    # row of a two-row batch (the per-predecessor path), bit for bit.
    one = vr._longest_chain(a[None], (gain,))
    two = vr._longest_chain(np.stack([a, a[::-1]]), (gain,))
    assert one.shape == (1, 1, len(a))
    assert one[0, 0].tobytes() == two[0, 0].tobytes()


@pytest.mark.parametrize("n", _TILE_EDGES)
@pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
def test_one_row_variation_is_its_batch_row(n, r):
    for a in fast_path_rows(n).values():
        assert_one_row_is_its_batch_row(a, lambda d: d ** r)
        pair = np.stack([a, np.zeros(n)])
        alone = vr.vr_exact_batch(a, r)
        assert alone.tobytes() == vr.vr_exact_batch(pair, r)[:1].tobytes()
        assert vr.vr_exact(a, r).value == alone[0]
        # vr_value has the batch entry's bits, real rows too, so it may
        # skip the witness walk-back.
        for row in (a, a.real):
            value = vr.vr_value(row, r)
            assert type(value) is float
            assert (np.float64(value).tobytes()
                    == vr.vr_exact_batch(row[None], r)[:1].tobytes())


@pytest.mark.parametrize("n", _TILE_EDGES)
def test_one_row_jumps_are_its_batch_row(n):
    for a in fast_path_rows(n).values():
        gap = float(abs(a[-1] - a[0]))
        for lam in (0.0, 0.5, gap):
            assert_one_row_is_its_batch_row(a, vr._jump_gain(lam))
            pair = np.stack([a, np.zeros(n)])
            alone = vr.jump_count_batch(a, lam)
            assert (alone.tolist()
                    == vr.jump_count_batch(pair, lam)[:1].tolist())
            assert vr.jump_count(a, lam) == alone[0]


@given(st.lists(finite_complex, min_size=1, max_size=40),
       st.sampled_from([1.0, 2.0, 2.5]), st.integers(0, 39))
def test_one_row_path_is_the_batch_path(a, r, k):
    a = np.array(a, dtype=complex)
    assert_one_row_is_its_batch_row(a, lambda d: d ** r)
    # lambda is one of the sequence's own gaps, so ties at lambda occur.
    assert_one_row_is_its_batch_row(
        a, vr._jump_gain(float(abs(a[k % len(a)] - a[0]))))


# the real-row cut -------------------------------------------------------

# r = 1 is included: real rows keep the uncut run there.
_CUT_R = (1.0, 1.5, 2.0, 2.5, 3.0, 10.0)


def cut_edge_rows(n):
    """Real rows of length n: ties, flat runs, plateaus at the extrema,
    both monotone directions, a constant row and a random row."""
    rng = np.random.default_rng(n)
    plateaus = np.repeat([0.0, 3.0, 3.0, 1.0, 1.0, 4.0, -2.0], 3)
    return np.stack([rng.integers(-2, 3, size=n).astype(float),
                     np.repeat(rng.normal(size=n), 2)[:n],
                     np.resize(plateaus, n), np.arange(n, dtype=float),
                     -np.arange(n, dtype=float) ** 2, np.full(n, 1.5),
                     rng.normal(size=n)])


def test_turning_points_cut_a_row():
    keep = vr._turning_points(np.array([
        [0.0, 1.0, 2.0, 1.0, 1.0, 0.0, 0.0, 3.0],
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
        [5.0, 5.0, 4.0, 3.0, 3.0, 3.0, 1.0, 1.0]]))
    # The first point, each turn (a plateau by its start) and the start of
    # the last run.
    assert [np.flatnonzero(row).tolist() for row in keep] == [
        [0, 2, 5, 7], [0], [0, 6]]
    assert vr._turning_points(np.zeros((3, 1))).tolist() == [[True]] * 3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 64])
def test_cut_real_rows_are_the_uncut_complex_rows(cold_memo, n):
    block = cut_edge_rows(n)
    for r in _CUT_R:
        want = vr.vr_exact_batch(block + 0j, r)
        assert vr.vr_exact_batch(block, r).tobytes() == want.tobytes()
        for row, bits in zip(block, want):
            assert vr.vr_exact_batch(row, r).tobytes() == bits.tobytes()
            assert vr.vr_exact_batch(row + 0j, r)[0] == bits


def test_real_rows_run_the_engine_on_their_cuts(cold_memo, monkeypatch):
    runs = engine_runs(monkeypatch)
    block = np.array([[0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 1.0, 3.0, 2.0],
                      [1.0, 1.0, 1.0, 1.0, 1.0], [4.0, 3.0, 3.0, 5.0, 6.0]])
    vr.vr_exact_batch(block, 2.5)
    # Grouped by cut width: the monotone row cut to 2 points, the row
    # turning once to 3, the zigzag uncut; the constant row needs none.
    assert [v.tolist() for v, _, _ in runs] == [
        [[0.0, 4.0]], [[4.0, 3.0, 6.0]], [[0.0, 2.0, 1.0, 3.0, 2.0]]]
    runs.clear()
    vr.vr_exact_batch(block, 1.0)
    vr.vr_exact_batch(block + 0j, 2.5)
    assert [v.shape for v, _, _ in runs] == [(4, 5), (4, 5)]


@pytest.mark.parametrize("complex_rows", [False, True])
def test_a_sequence_of_r_is_the_scalar_calls(cold_memo, monkeypatch, rng,
                                             complex_rows):
    block = rng.normal(size=(40, 9))
    block[::3] = np.round(block[::3])
    # One row of 65 points (the tiled schedule), a (6000, 4) block whose
    # columns pass _GAIN_BYTES (one predecessor a chunk), and a (20, 100)
    # block of several predecessors a chunk and many chunks.
    inputs = [block, rng.normal(size=65), rng.normal(size=(6000, 4)),
              rng.normal(size=(20, 100))]
    if complex_rows:
        inputs = [a + 1j * rng.normal(size=a.shape) for a in inputs]
    assert inputs[2].T.nbytes > vr._GAIN_BYTES
    grid = (4.0, 1.0, 2.05, 2.5, 10.0)
    runs = engine_runs(monkeypatch)
    for a in inputs:
        runs.clear()
        got = vr.vr_exact_batch(a, grid)
        assert got.shape == (len(grid), len(np.atleast_2d(a)))
        if complex_rows:
            # Every r's gain reads one pass's differences.
            assert [len(gains) for _, gains, _ in runs] == [len(grid)]
        for r, row in zip(grid, got):
            assert row.tobytes() == vr.vr_exact_batch(a, r).tobytes()
    assert vr.vr_exact_batch(block[0], grid).shape == (len(grid), 1)
    with pytest.raises(ValueError, match="r >= 1"):
        vr.vr_exact_batch(block, (2.0, 0.5))


def test_turning_points_do_not_serve_jump_counts():
    # At lambda = 0.5, 0 -> 1 -> 2 makes two jumps, but its cut 0 -> 2
    # makes one: jump counts keep the uncut run.
    assert vr._turning_points(np.array([[0.0, 1.0, 2.0]])).tolist() == [
        [True, False, True]]
    assert vr.jump_count([0.0, 1.0, 2.0], 0.5) == 2
    assert vr.jump_count([0.0, 2.0], 0.5) == 1
    assert vr.jump_count_batch(np.array([[0.0, 1.0, 2.0]]), 0.5)[0] == 2


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_real_jump_counts_are_the_complex_ones(cold_memo, n):
    block = cut_edge_rows(n)
    for lam in (0.0, 0.5, 1.0, 2.0):
        want = vr.jump_count_batch(block + 0j, lam).tolist()
        assert vr.jump_count_batch(block, lam).tolist() == want
        assert [vr.jump_count(row, lam) for row in block] == want


def subset_chains_rows_major(v, gain):
    """The oracle's totals in the rows-major layout the masks-major one
    replaced, kept as its reference: chain[:, mask], one strided slice
    add per pair."""
    m, n = v.shape
    pd = gain(np.abs(v[:, :, None] - v[:, None, :]))
    chain = np.zeros((m, 1 << n))
    for h in range(1, n):
        for t in range(h):
            np.add(chain[:, 1 << t:2 << t], pd[:, t, h, None],
                   out=chain[:, (1 << h) + (1 << t):(1 << h) + (2 << t)])
    return chain


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_masks_major_oracle_totals_are_the_rows_major_ones(rng, n):
    block = rng.normal(size=(30, n)) + 1j * rng.normal(size=(30, n))
    for v in (block, block.real, np.round(block.real)):
        for gain in (lambda d: d ** 2.5, vr._jump_gain(0.5)):
            got = vr._subset_chains(v, gain)
            assert got.shape == (1 << n, len(v))
            assert np.ascontiguousarray(got.T).tobytes() == \
                subset_chains_rows_major(v, gain).tobytes()


# the chain memo ---------------------------------------------------------

_LAYOUTS = (vr._dyadic_layout, vr._gap_layout, vr._stride_layout)
_CACHES = (vr._remembered_max, *_LAYOUTS)


def clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


@pytest.fixture
def cold_memo():
    """An empty memo and empty layout caches for one test, emptied again
    after it."""
    clear_caches()
    yield
    clear_caches()


def engine_runs(monkeypatch) -> list:
    """Records (input, gains, seg) of every `_longest_chain` run from now
    on; seg is None on an unsegmented run."""
    runs, engine = [], vr._longest_chain

    def counting(v, gains, seg=None):
        runs.append((v.copy(), gains, None if seg is None else seg.copy()))
        return engine(v, gains, seg)
    monkeypatch.setattr(vr, "_longest_chain", counting)
    return runs


def seven_checks(a, r: float) -> bytes:
    """Every value of the seven explicit-constant checks on a 2^s + 1
    point sequence, as bytes."""
    n = len(a)
    s = (n - 1).bit_length() - 1
    anchors = [0] + [2 ** i for i in range(s + 1)]
    values = (vr.sup_bound_check(a, r), vr.split_bound_check(a, r, n / 2),
              vr.l2_bound_check(a, r),
              vr.oscillation_holder_check(a, anchors, s + 1, r),
              vr.dyadic_level_square_bound(a, r),
              vr.long_short_split(a, r, labels=np.arange(1, n + 1)),
              *(vr.jump_variation_check(a, lam, r) for lam in (0.25, 1.0)))
    return np.array([x for pair in values for x in pair]).tobytes()


def test_memo_hit_is_the_cold_run(cold_memo, monkeypatch, rng):
    # Each block fits the input size the memo takes: 128 complex points.
    blocks = [rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
              for m, n in ((3, 1), (3, 2), (3, 17), (1, 65), (2, 64))]
    cases = [(vr.vr_exact_batch, b, r, lambda d, r=r: d ** r,
              lambda best, r=r: best ** (1.0 / r))
             for b in blocks for r in (1.0, 2.0, 2.5)]
    cases += [(vr.jump_count_batch, b, lam, vr._jump_gain(lam),
               lambda best: best.astype(int))
              for b in blocks for lam in (0.0, 0.5, 1.0)]
    # The engine's own values, before any memo is in the way.
    want = [finish(vr._longest_chain(b, (gain,))[0].max(axis=1)).tobytes()
            for _, b, _, gain, finish in cases]
    runs = engine_runs(monkeypatch)
    for (entry, b, x, _, _), bits in zip(cases, want):
        before = len(runs)
        cold, hit = entry(b, x), entry(b, x)
        assert cold.tobytes() == hit.tobytes() == bits
        assert len(runs) == before + 1


def test_memo_hands_out_copies(cold_memo):
    a = np.array([0.0, 2.0, 1.0, 3.0, 0.5]) + 0j
    first = vr._chain_max(a, "vr", 2.0)
    want = first.tobytes()
    first[:] = -1.0
    second = vr._chain_max(a, "vr", 2.0)
    assert second.tobytes() == want
    second[:] = -2.0
    assert vr._chain_max(a, "vr", 2.0).tobytes() == want
    # The key is the input's bytes, so a changed input is a new key.
    a[1] = 7.0
    assert vr.vr_exact_batch(a, 2.0)[0] == vr.vr_exact(a, 2.0).value


@pytest.mark.parametrize("fn,arg", [(vr.vr_exact_batch, 2.0),
                                    (vr.jump_count_batch, 0.5)])
@pytest.mark.parametrize("kind", list(_UNREADABLE))
def test_memo_never_holds_refused_input(cold_memo, fn, arg, kind):
    a, match = _UNREADABLE[kind]
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match=match) as err:
            fn(a, arg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert vr._remembered_max.cache_info().currsize == 0


def test_memo_refuses_bad_r_and_lambda_every_time(cold_memo):
    a = np.arange(4.0)
    vr.vr_exact_batch(a, 2.0)
    vr.jump_count_batch(a, 0.5)
    for _ in range(2):
        with pytest.raises(ValueError, match="r >= 1"):
            vr.vr_exact_batch(a, 0.5)
        with pytest.raises(ValueError, match="lambda"):
            vr.jump_count_batch(a, -0.5)


def test_memo_passes_large_input_by(cold_memo, monkeypatch, rng):
    # 128 complex points fill the input size the memo takes; 129 pass by.
    runs = engine_runs(monkeypatch)
    for n, stored in ((128, 1), (129, 0)):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        before = len(runs)
        assert vr.vr_exact_batch(a, 2.0)[0] == vr.vr_exact_batch(a, 2.0)[0]
        assert len(runs) - before == 2 - stored
    assert vr._remembered_max.cache_info().currsize == 1


def test_memo_reads_a_row_as_a_one_row_block(cold_memo, rng):
    for n in (1, 17, 65):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        for r in (1.0, 2.5):
            # Row first, then the block, then the other way round.
            for first, second in ((a, a[None]), (a[None], a)):
                want = vr.vr_exact_batch(first, r).tobytes()
                assert vr.vr_exact_batch(second, r).tobytes() == want
        for lam in (0.25, 1.0):
            assert (vr.jump_count_batch(a, lam).tolist()
                    == vr.jump_count_batch(a[None], lam).tolist())


def test_memo_is_shared_safely_across_threads(cold_memo, rng):
    block = rng.normal(size=(32, 33)) + 1j * rng.normal(size=(32, 33))
    want = [seven_checks(a, 2.5) for a in block]
    clear_caches()
    # More workers than cores, switching often; each checks every row, so
    # it meets the others' entries and evictions.
    orders = (block, block[::-1]) * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(lambda rows: [seven_checks(a, 2.5)
                                                 for a in rows], rows)
                       for rows in orders]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want, want[::-1]] * 2


def test_seven_checks_run_the_full_row_once_per_gain(cold_memo, monkeypatch):
    a = [1, 1j] @ np.random.default_rng(65).normal(size=(2, 65))
    runs = engine_runs(monkeypatch)
    seven_checks(a, 2.5)
    # Five engine runs in all: the full row once per gain, then one
    # segmented run each for the split halves and the long/short parts.
    assert len(runs) == 5
    plain = [(v, gain) for v, (gain,), seg in runs if seg is None]
    assert all(v.shape == (1, 65) and np.array_equal(v[0], a)
               for v, _ in plain)
    # A gap of 0.5 tells the gains apart: V_r's 0.5^r, 1 above lambda =
    # 0.25 and -inf below lambda = 1.
    kinds = Counter({1.0: "jump-0.25", -math.inf: "jump-1.0"}.get(
        float(gain(np.array([0.5]))[0]), "vr") for _, gain in plain)
    assert kinds == {"vr": 1, "jump-0.25": 1, "jump-1.0": 1}
    (split, split_seg), (parts, parts_seg) = [
        (v, seg) for v, _, seg in runs if seg is not None]
    # The split at w = 32.5 of the labels 0..64: the full row, halved.
    assert np.array_equal(split[0], a)
    assert np.unique(split_seg, return_counts=True)[1].tolist() == [33, 32]
    # The labels 1..65: the 7 powers of two, then the 7 dyadic blocks.
    assert np.array_equal(parts[0], np.concatenate([a[[0, 1, 3, 7, 15, 31,
                                                        63]], a]))
    assert (np.unique(parts_seg, return_counts=True)[1].tolist()
            == [7, 1, 2, 4, 8, 16, 32, 2])


# segmented passes and label layouts -------------------------------------

@pytest.mark.parametrize("n", _TILE_EDGES)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 2.5, 3.0])
def test_segmented_pass_is_a_run_per_part(n, r):
    # Parts of one and two points, cuts on and off the tile edges, and
    # empty parts, first, inside and last.
    cut_sets = ([], [n // 2], [1, 3], [vr._TILE, 2 * vr._TILE],
                [7, 23, 24, 40], [0, 0, 5, 5, n])
    for a in fast_path_rows(n).values():
        for cuts in cut_sets:
            ends = [0, *sorted(min(c, n) for c in cuts), n]
            want = np.array([[vr.vr_exact_batch(a[lo:hi], r)[0] if hi > lo
                              else 0.0 for lo, hi in zip(ends, ends[1:])]])
            assert vr._vr_parts(a[None], r, ends).tobytes() == want.tobytes()
            pair = vr._vr_parts(np.stack([a, a[::-1]]), r, ends)
            assert pair[:1].tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_segmented_block_is_a_run_per_part(rng, r):
    # 300 rows of 65 points: each gain chunk of the block loop is one
    # predecessor, and stops at that predecessor's segment end.
    block = rng.normal(size=(300, 65)) + 1j * rng.normal(size=(300, 65))
    for ends in ([0, 65], [0, 1, 3, 16, 17, 40, 65], [0, 0, 32, 32, 65]):
        want = np.stack([vr.vr_exact_batch(block[:, lo:hi], r) if hi > lo
                         else np.zeros(300) for lo, hi in zip(ends, ends[1:])],
                        axis=1)
        assert vr._vr_parts(block, r, ends).tobytes() == want.tobytes()


@pytest.mark.parametrize("labels", [[3, 5, 6, 7], [3, 4, 5, 6], [2, 3], [5],
                                    [4]])
def test_long_short_with_an_empty_or_single_point_dyadic_part(labels):
    # No power of two, or one: V_r^long is 0, and V_r^short is the
    # variation of the last label's dyadic block, the only one of more
    # than one point.
    n = len(labels)
    block = (np.arange(2 * n).reshape(2, n) % 3) * (1 + 1j)
    top = 1 << (labels[-1].bit_length() - 1)
    rest = [i for i, x in enumerate(labels) if x >= top]
    for r in (1.0, 2.5):
        short = vr.vr_exact_batch(block[:, rest], r)
        for a, want in ((block, short), *zip(block, short)):
            full, lng, sht = vr.long_short_split(a, r, labels=labels)
            assert np.all(lng == 0.0)
            assert np.array_equal(sht, want)
            assert np.array_equal(full, vr.vr_exact_batch(a, r)[0]
                                  if a.ndim == 1 else vr.vr_exact_batch(a, r))


def test_layouts_refuse_bad_input_every_time(cold_memo):
    a = np.arange(5.0)
    refused = (
        (vr.long_short_split, (a, 2.0), {"labels": [0, 1, 2, 3, 4]}),
        (vr.long_short_split, (a, 2.0), {"labels": [1, 1.5, 2, 3, 4]}),
        (vr.long_short_split, (a, 2.0), {"labels": [1, 2, 3, 4, 5.5]}),
        (vr.oscillation_holder_check, (a, [0, 2.5, 4], 2, 2.0), {}),
        (vr.oscillation_holder_check, (a, [0, 2, 4], 3, 2.0), {}),
        (vr.oscillation_holder_check, (a, [0, 2, 2, 4], 2, 2.0), {}),
        (vr.oscillation_holder_check, (a, [[0, 2], [3, 4]], 1, 2.0), {}),
        (vr.oscillation_holder_check, (a, [0, 2, 9], 2, 2.0), {}),
        (vr.dyadic_level_square_bound, (a[:4], 2.0), {}))
    for fn, args, kwargs in refused:
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                fn(*args, **kwargs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert all(cache.cache_info().currsize == 0 for cache in _LAYOUTS)


def test_cached_layouts_are_read_only(cold_memo):
    lab = np.arange(1.0, 18.0)
    # Each check fills its layout; a second call hands out the same one.
    vr.long_short_split(np.ones(17), 2.0, labels=lab)
    vr.oscillation_holder_check(np.ones(17), [0, 1, 4, 16], 3, 2.0)
    vr.dyadic_level_square_bound(np.ones(17), 2.0)
    layouts = (vr._dyadic_layout(lab.tobytes()),
               vr._gap_layout((lab - 1).tobytes(), np.array([0.0, 1, 4, 16])
                              .tobytes(), (4,), 3),
               vr._stride_layout(17))
    assert all(cache.cache_info().hits == 1 for cache in _LAYOUTS)
    arrays = [x for layout in layouts for x in layout
              if isinstance(x, np.ndarray)]
    assert len(arrays) == 6
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0


# oscillation ------------------------------------------------------------

def oscillation_per_gap(a, lacunary, J):
    """The per-gap loop that the one-pass oscillation replaced, kept as
    its reference: a mask, a slice and a max for every gap."""
    v, lab, one = vr._block(a)
    lac = np.asarray(lacunary, dtype=float)
    if lac.ndim != 1 or lac.size < 2 or np.any(np.diff(lac) <= 0):
        raise ValueError("lacunary anchors must be strictly increasing")
    if J < 1 or J > lac.size - 1:
        raise ValueError(f"J={J} exceeds available lacunary gaps")
    if lac[0] < lab[0] or lac[J] > lab[-1]:
        raise ValueError("lacunary anchors outside the label range")
    at = np.searchsorted(lab, lac[:J])
    off = ~np.isclose(lab[at], lac[:J])
    if off.any():
        raise ValueError(f"anchor {lac[:J][off][0]} is not a label")
    total = np.zeros(len(v))
    for j, i in enumerate(at):
        inside = (lab > lac[j]) & (lab <= lac[j + 1])
        if inside.any():
            total += vr._pow(
                np.abs(v[:, inside] - v[:, i:i + 1]).max(axis=1), 2)
    return vr._out(one, vr._pow(total, 0.5))


def assert_oscillation_is_per_gap(a, lacunary, J):
    """`oscillation_holder_check`'s lhs and the per-gap loop give the same
    bits, or both refuse with the same message."""
    outcomes = []
    for fn in (lambda: vr.oscillation_holder_check(a, lacunary, J, 2.0)[0],
               lambda: oscillation_per_gap(a, lacunary, J)):
        try:
            outcomes.append(np.asarray(fn()).tobytes())
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_oscillation_is_the_per_gap_loop(rng):
    for trial in range(300):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        k = int(rng.integers(2, min(n, 16) + 1))
        lac = np.sort(rng.choice(n, size=k, replace=False)).astype(float)
        if trial % 3 == 0:
            # A last anchor between indices, which may leave its gap empty.
            lac[-1] -= 0.5
        J = int(rng.integers(1, k))
        assert_oscillation_is_per_gap(a, lac, J)
        assert_oscillation_is_per_gap(a[0], lac, J)


def test_oscillation_empty_gaps_are_the_per_gap_loop(rng):
    a = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    cases = (([0, 1 - 1e-9, 2, 4], 3),   # an empty first gap
             ([0, 1, 2 - 1e-9, 5], 3),   # an empty middle gap
             ([4, 4.5], 1),              # every gap empty
             ([0, 2, 3, 4, 5.5], 2))     # J below len(lacunary) - 1
    for lac, J in cases:
        out = assert_oscillation_is_per_gap(a, lac, J)
        assert isinstance(out, bytes)
    assert assert_oscillation_is_per_gap(a, [4, 4.5], 1) == \
        np.zeros(5).tobytes()


def test_oscillation_anchor_tolerance_is_the_per_gap_loop():
    a = np.array([0.0, 3.0, 1.0, 4.0, 1.0, 5.0])
    exact = assert_oscillation_is_per_gap(a, [0, 2, 4], 2)
    # Just below an index, within isclose's tolerance: accepted as it.
    assert assert_oscillation_is_per_gap(a, [0, 2 - 1e-9, 4], 2) == exact
    # Outside the tolerance, or just above an index: refused.
    for anchor in (2 - 1e-3, 2 + 1e-9):
        assert (assert_oscillation_is_per_gap(a, [0, anchor, 4], 2)
                == f"anchor {anchor} is not a label")


# long/short -------------------------------------------------------------

def test_short_variation_is_the_per_block_mask_loop(rng):
    # Increasing integer labels with gaps, some blocks empty or single.
    for _ in range(60):
        n = int(rng.integers(1, 30))
        labels = np.cumsum(rng.integers(1, 6, size=n))
        block = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        for r in (1.0, 2.5):
            ids = np.floor(np.log2(labels)).astype(int)
            total = np.zeros(3)
            for b in np.unique(ids):
                if (ids == b).sum() > 1:
                    total += vr._pow(vr.vr_exact_batch(block[:, ids == b],
                                                       r), r)
            want = vr._pow(total, 1.0 / r)
            got = vr.long_short_split(block, r, labels=labels)
            assert got[2].tobytes() == want.tobytes()
            # Each row alone takes the one-row segmented run.
            for i, row in enumerate(block):
                assert (np.array(vr.long_short_split(row, r, labels=labels))
                        .tobytes() == np.array([x[i] for x in got]).tobytes())
