"""r-variation seminorms, jump counts and their companion functionals.

The r-variation V_r of a finite sequence is the supremum over increasing
subsequences of the l^r norm of consecutive differences; the jump count
N_lambda is the number of steps in a longest subsequence whose
consecutive gaps exceed lambda.  Both are one longest-chain recursion
over chain ends with two edge gains: |a_j - a_i|^r for V_r (the value is
the 1/r-th power of the best total), and 1 on gaps > lambda, -inf
otherwise, for jumps.  The recursion pushes a block of rows one
predecessor at a time and a single row in tiles of predecessors, with
the same bits on both paths, and either may be cut into segments that no
chain crosses (see `_longest_chain`).  Real input stays real (float64),
and for r > 1 V_r runs the recursion on each real row's cut: its first
point, the start of every run of equal values where the direction
turns, and the start of its last run, which is all an optimal chain
needs (`_turning_points`).  Rows are grouped by cut width, and one cut
serves every r of a call.  Complex rows, r = 1, jump counts (0, 1, 2
has two jumps above 1/2, its cut 0, 2 one) and segmented runs take the
uncut recursion.  One recursion run takes several gains at once: each
chunk of predecessors takes its differences |a_j - a_i| once, and every
r of a call applies its own gain to them.  Subset-enumeration
brute forces serve as independent oracles for short sequences: they
total the chain of each of the 2^n subsets of each of m rows, m 2^n
cells taken as n(n - 1)/2 block adds per chunk of rows, masks-major,
with O(2^n) memory per row of the chunk.  The
rest of the module packages the seminorm inequalities with explicit
constants: sup bounds, splitting, the l^2 domination, long/short dyadic
splitting, oscillation sums, the jump inequality and the dyadic-level
square bound.  Three helpers serve every norm, ratio and fit
downstream: `lp_norms`, the one l^p (or L^p on equal cells) norm, taken
row by row over a block; `variation_ratios`, the one ratio
||V_r(T f)||_p / ||f||_p over a family T, the averages or truncations
of `operators` and the filtration of `martingale` alike; and
`growth_fit`, the r/(r - 2) scaling of a sweep of worst ratios.

Jump counts count jumps: a constant sequence or a single point has none.

Shapes: `vr_exact_batch` and `jump_count_batch` take m sequences as the
rows of an (m, n) array and return m values; `vr_exact_batch` given a
sequence of r returns one row of m values per r.  The checks
(`sup_bound_check`, `split_bound_check`, `l2_bound_check`,
`oscillation_holder_check`, `long_short_split`, `jump_variation_check`,
`dyadic_level_square_bound`) take one sequence (n,), giving floats, or a
block (m, n) sharing one set of labels, giving length-m arrays.  A check
runs the engine once per (block, part family, r): the split halves, or
the dyadic subsequence with every dyadic block, are one family, taken in
one segmented run (`_vr_parts`).  So checking many sequences at once
costs one engine run per part family rather than one per sequence, and a
block's row equals the one-sequence result to the last bit.  What a
check derives from the labels alone is built once per label set and
kept, read-only, in a small cache.  `vr_exact`, `vr_value`,
`vr_bruteforce`, `jump_count` and `jump_count_bruteforce` take exactly one
sequence.  Every public entry point reads its input through `_block`,
which refuses empty, 3-d and non-finite input.

The checks hand the rows they read to the public `vr_exact_batch` and
`jump_count_batch`, and one sequence checked at one r meets the same row
in each of them.  So both entries share an exact memo (`_chain_max`): the
per-row maxima of the last `_MEMO_ENTRIES` distinct inputs of at most
`_MEMO_INPUT_BYTES` each (64 KiB of input in all), keyed by V_r's r
values or the jump lambda, and the input's dtype, shape and bytes.  Only
input that passed `_block` is stored, so a hit skips the second pass
through `_block` as well as the engine, and refused input is refused on
every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

BRUTEFORCE_LIMIT = 16
_GAIN_BYTES = 128 * 1024
_MEMO_ENTRIES = 32
_MEMO_INPUT_BYTES = 2 * 1024
_LAYOUT_ENTRIES = 16
_TILE = 16
_CHAIN_BYTES = 1024 * 1024


@dataclass(frozen=True)
class VariationResult:
    value: float
    witness: tuple


def _check_r(r: float):
    if not (r >= 1):
        raise ValueError(f"need r >= 1, got {r}")


def _values(a) -> np.ndarray:
    """a as float64 when its values are real numbers, else as complex."""
    v = np.asarray(a)
    return v.astype(float if v.dtype.kind in "biuf" else complex, copy=False)


def _block(a, labels=None) -> tuple[np.ndarray, np.ndarray, bool]:
    """(rows, labels, one) of a sequence (n,) or a block of rows (m, n).

    The rows are (m, n), float64 for real input and complex otherwise,
    non-empty and finite, and share the labels; `one` marks a single
    sequence, whose results the checks give as floats.  Given labels
    must be 1-d, aligned with the rows and strictly increasing; without
    them the labels are 0..n-1.
    """
    v = _values(a)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("need a non-empty sequence (n,) or block of rows "
                         "(m, n)")
    n, one = v.shape[-1], v.ndim == 1
    v = v.reshape(-1, n)
    if np.count_nonzero(np.isfinite(v)) < v.size:
        row, i = np.argwhere(~np.isfinite(v))[0]
        raise ValueError(f"non-finite value {v[row, i]} in row {row} at "
                         f"index {i}")
    if labels is None:
        labels = np.arange(n, dtype=float)
    else:
        labels = np.asarray(labels, dtype=float)
        if labels.shape != (n,):
            raise ValueError("labels must be 1-d and aligned")
        if not np.all(labels[1:] > labels[:-1]):
            raise ValueError("labels must be strictly increasing")
    return v, labels, one


def _one(a) -> np.ndarray:
    """The values (n,) of exactly one sequence; a block is refused."""
    v, _, one = _block(a)
    if not one:
        raise ValueError("need one sequence (n,), not a block")
    return v[0]


def _longest_chain(v: np.ndarray, gains, seg=None) -> np.ndarray:
    """The one chain recursion behind V_r and the jump counts.

    v holds m sequences as the rows of an (m, n) array, as `_block` reads
    them, and gains is a sequence of K edge gains.  Under a gain, a chain
    i_0 < ... < i_k earns gain(|v_{i_{t+1}} - v_{i_t}|) per step;
    best[k, :, j] is the largest total under gains[k] over chains ending
    at j, floored at 0 so any point may start a chain.  Once best[k, :, i]
    is final it is pushed to every later j.  Returns best (K, m, n).
    O(K m n^2) time, O(K m n) memory.  Every gain reads the same |v_j -
    v_i|, taken once per chunk of predecessors, and pushes on its own, so
    best[k] is the bits of a run with gains[k] alone.

    With seg (n,), each point's segment end (nondecreasing: the segment of
    point i is i's run of equal ends, up to seg[i] exclusive), best[k, :, i]
    is pushed only to the later points of its own segment.  No chain then
    crosses a segment boundary, and best on each segment is that of the
    segment's own run, bit for bit.

    The number of rows alone picks the schedule.  One row goes to
    `_one_row_chain`, which takes its predecessors in tiles, since a push
    of at most n cells would pay an array call per predecessor.  A block
    (m >= 2) pushes one predecessor at a time to all m rows, and takes the
    differences of as many predecessors as fit in `_GAIN_BYTES` in one
    array operation, up to the segment end of the last of them.
    On either schedule every candidate is the one float add
    best[i] + gain(|v_j - v_i|), each gain is the same elementwise array
    operation, and a max is exact, so a row's values are the same bits on
    both.
    """
    if len(v) == 1:
        return _one_row_chain(v[0], gains, seg)[:, None]
    cols = np.ascontiguousarray(v.T)
    n = len(cols)
    end = [n] * n if seg is None else seg.tolist()
    best = np.zeros((len(gains),) + cols.shape)
    rows = max(1, _GAIN_BYTES // cols.nbytes)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        # d[a, b] is |v_j - v_i| from i = i0 + a to j = i0 + 1 + b.
        d = np.abs(cols[i0 + 1:end[i1 - 1]] - cols[i0:i1, None])
        for gain, top in zip(gains, best):
            g = gain(d)
            for i in range(i0, i1):
                later = top[i + 1:end[i]]
                step = g[i - i0, i - i0:end[i] - i0 - 1]
                step += top[i]
                np.maximum(later, step, out=later)
        # Drop this chunk's arrays before the next chunk's differences.
        del d, g
    return best.transpose(0, 2, 1)


def _one_row_chain(v: np.ndarray, gains, seg=None) -> np.ndarray:
    """`_longest_chain` of one sequence v (n,), `_TILE` predecessors a step:
    best (K, n).

    A tile's differences are taken against the points from its first on,
    up to the segment end of its last point, and every gain reads them.
    Inside the tile the push runs on Python floats, a few hundred
    nanoseconds a step where an array call costs microseconds; then one
    array operation pushes the finished tile to the later points.
    Python's > drops a NaN that np.maximum would pass on, which
    `_block`'s refusal of non-finite values rules out.  A tile that
    spans segments sets the gain between points of different segments
    to -inf, so no chain crosses a boundary; a tile inside one segment
    needs no mask.
    """
    n = len(v)
    best = np.zeros((len(gains), n))
    tops = list(zip(gains, best))
    end = [n] * n if seg is None else seg.tolist()
    for t0 in range(0, n - 1, _TILE):
        t1 = min(t0 + _TILE, n)
        w, stop = t1 - t0, end[t1 - 1]
        # d[a, b] is |v_j - v_i| from i = t0 + a to j = t0 + b.
        d = np.abs(v[t0:stop] - v[t0:t1, None])
        across = None if end[t0] == stop else \
            seg[t0:t1, None] != seg[t0:stop]
        for gain, top in tops:
            g = gain(d)
            if across is not None:
                g[across] = -np.inf
            tile = top[t0:t1].tolist()
            for a, row in enumerate(g[:, :w].tolist()):
                x = tile[a]
                for b in range(a + 1, w):
                    y = x + row[b]
                    if y > tile[b]:
                        tile[b] = y
            top[t0:t1] = tile
            if t1 < stop:
                later = g[:, w:]
                later += top[t0:t1, None]
                np.maximum(top[t1:stop], later.max(axis=0), out=top[t1:stop])
    return best


def vr_exact(a, r: float) -> VariationResult:
    """Exact r-variation with a maximizing chain of indices.

    B[j] = max(0, max_{i<j} B[i] + |a_j - a_i|^r), answer
    (max_j B[j])^{1/r}.  O(n^2).  The witness re-evaluates to the value.
    """
    _check_r(r)
    v = _one(a)
    best = _longest_chain(v[None], (_vr_gain(r),))[0, 0]
    chain = [int(np.argmax(best))]
    while best[chain[-1]] > 0:
        # The first predecessor attaining best[j].
        j = chain[-1]
        chain.append(int(np.argmax(best[:j] + np.abs(v[j] - v[:j]) ** r)))
    # The root as an array operation, exactly as in vr_exact_batch.
    value = best.max(keepdims=True) ** (1.0 / r)
    return VariationResult(float(value[0]),
                           tuple(float(i) for i in chain[::-1]))


def vr_value(a, r: float) -> float:
    return vr_exact(a, r).value


def _chain_max(values, kind: str, x) -> np.ndarray:
    """Per-row max of `_longest_chain` with V_r's gain (kind "vr", x = r,
    or a tuple of r giving one row of maxima per r) or the jump gain
    (kind "jump", x = lambda), remembered when small.

    An input of at most `_MEMO_INPUT_BYTES` is looked up by its dtype,
    shape and bytes before `_block` reads it.  A call that raises is not
    remembered, so refused input, and a refused lambda, are refused on
    every call.  The caller gets a copy.
    """
    a = _values(values)
    if a.nbytes > _MEMO_INPUT_BYTES:
        return _row_max(a, kind, x)
    return _remembered_max(kind, x, a.dtype.char, a.shape,
                           a.tobytes()).copy()


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _remembered_max(kind: str, x, dtype: str, shape: tuple,
                    data: bytes) -> np.ndarray:
    return _row_max(np.frombuffer(data, dtype=dtype).reshape(shape), kind,
                    x)


def _row_max(a: np.ndarray, kind: str, x) -> np.ndarray:
    if kind == "jump":
        return _longest_chain(_block(a)[0], (_jump_gain(x),))[0].max(axis=1)
    v = _block(a)[0]
    rs = x if isinstance(x, tuple) else (x,)
    # Complex rows, and r = 1, where monotone chains tie exactly, run
    # uncut, every such r in one engine run.
    cut = [k for k, r in enumerate(rs) if r > 1 and v.dtype.kind == "f"]
    uncut = [k for k in range(len(rs)) if k not in cut]
    best = np.empty((len(rs), len(v)))
    if cut:
        best[cut] = _cut_chain_max(v, [rs[k] for k in cut])
    if uncut:
        best[uncut] = _longest_chain(
            v, [_vr_gain(rs[k]) for k in uncut]).max(axis=2)
    return best if isinstance(x, tuple) else best[0]


def _turning_points(v: np.ndarray) -> np.ndarray:
    """The cut of real rows v (m, n), as a mask (m, n).

    A row keeps its first point, the start of every run of equal values
    where the direction turns, and the start of its last run.  For r > 1
    some optimal chain uses only those points (Butkus & Norvaiša, Lith.
    Math. J. 58, 2018): |a - c|^r > |a - b|^r + |b - c|^r for b strictly
    between a and c, and the points of a run of equal values are
    interchangeable in a chain.
    """
    keep = np.ones(v.shape, dtype=bool)
    # Right to left, ahead holds each row's first move from point j on, 0
    # past the last; point j >= 1 starts a run when its own move is not 0,
    # and is kept when the next move differs from it.
    ahead = np.zeros(len(v))
    for j in range(v.shape[1] - 1, 0, -1):
        move = np.sign(v[:, j] - v[:, j - 1])
        keep[:, j] = (move != 0) & (move != ahead)
        np.copyto(ahead, move, where=move != 0)
    return keep


def _cut_chain_max(v: np.ndarray, rs) -> np.ndarray:
    """`_row_max` of real rows v (m, n) at each r > 1: (len(rs), m).

    Every row is cut to its `_turning_points`, and the rows are grouped
    by cut width: each group runs `_longest_chain` once with every r's
    gain, on its cut rows only.  The cut drops no chain that an optimal
    one needs, so a row's maximum is that of its uncut run; the tests
    hold the two to the same bits.  A row with one point in its cut has
    no step and gets 0.
    """
    keep = _turning_points(v)
    widths = np.count_nonzero(keep, axis=1)
    # bincount and a stable argsort group the rows; np.unique would
    # import numpy.ma.
    order = np.argsort(widths, kind="stable")
    gains = [_vr_gain(r) for r in rs]
    best = np.zeros((len(rs), len(v)))
    start = 0
    for w, count in enumerate(np.bincount(widths).tolist()):
        rows = order[start:start + count]
        start += count
        if w < 2 or not count:
            continue
        cut = v[rows][keep[rows]].reshape(count, w)
        best[:, rows] = _longest_chain(cut, gains).max(axis=2)
    return best


def vr_exact_batch(values: np.ndarray, r) -> np.ndarray:
    """Batched r-variation: values is (m, n); returns the m values.

    r may also be a sequence of r (a list, tuple or 1-d array): the
    result is then (len(r), m), row k the bits of the call at r[k]
    alone, and real rows are cut once for every r.
    """
    if not isinstance(r, (list, tuple)) and getattr(r, "ndim", 0) == 0:
        _check_r(r)
        return _chain_max(values, "vr", float(r)) ** (1.0 / r)
    for x in r:
        _check_r(x)
    best = _chain_max(values, "vr", tuple(float(x) for x in r))
    for k, x in enumerate(r):
        best[k] = best[k] ** (1.0 / x)
    return best


def _vr_parts(v: np.ndarray, r: float, ends) -> np.ndarray:
    """V_r of every part v[:, ends[k]:ends[k + 1]] of the rows v: (m, K).

    The parts lie end to end; one of fewer than two points gets 0.  One
    `_longest_chain` run segmented by part, a row or a block alike, gives
    each part the bits of its own run, and one reduceat takes the maxima
    of every part.  The segmented run bypasses the memo, since no check
    asks for the same parts twice.
    """
    _check_r(r)
    ends = np.asarray(ends)
    size = ends[1:] - ends[:-1]
    best = _longest_chain(v, (_vr_gain(float(r)),),
                          np.repeat(ends[1:], size))[0]
    top = np.zeros((len(v), len(size)))
    # reduceat takes each live part from its start to the next live start;
    # an empty part has no maximum to take.
    live = size > 0
    top[:, live] = np.maximum.reduceat(best, ends[:-1][live], axis=1)
    return top ** (1.0 / r)


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only, for a cache that hands them out."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _subset_chains(v: np.ndarray, gain) -> np.ndarray:
    """Every subset's chain total: the oracle counterpart of _longest_chain.

    v is (m, n) with n <= BRUTEFORCE_LIMIT.  Returns chain (2^n, m),
    masks-major, where chain[mask] is the total gain(|v_j - v_i|) over
    consecutive indices i < j of mask (0 for masks of at most one bit).
    A mask with top bit h extends the mask without h, and the masks whose
    rest has top bit t form the slice [2^h + 2^t, 2^h + 2^{t+1}), so each
    pair t < h is one add of a contiguous block, the pair's gain
    broadcast across the rows: n(n - 1)/2 adds for m 2^n cells, O(m 2^n)
    memory.
    """
    m, n = v.shape
    if n > BRUTEFORCE_LIMIT:
        raise BudgetError(f"brute force limited to n <= {BRUTEFORCE_LIMIT}",
                          estimate=2 ** n)
    cols = v.T
    pd = gain(np.abs(cols[:, None] - cols[None, :]))
    chain = np.zeros((1 << n, m))
    for h in range(1, n):
        for t in range(h):
            np.add(chain[1 << t:2 << t], pd[t, h],
                   out=chain[(1 << h) + (1 << t):(1 << h) + (2 << t)])
    return chain


def vr_bruteforce(a, r: float) -> VariationResult:
    """Oracle: enumerate every subsequence (n <= 16).

    The witness is the indices of the first mask attaining the best total,
    or index 0 when the best is 0.
    """
    _check_r(r)
    v = _one(a)
    chain = _subset_chains(v[None], _vr_gain(r))[:, 0]
    # argmax is 0, the empty mask, exactly when the best total is 0.
    mask = int(chain.argmax()) or 1
    # The root as an array operation, exactly as in vr_exact.
    value = chain[mask:mask + 1] ** (1.0 / r)
    return VariationResult(float(value[0]),
                           tuple(float(i) for i in range(len(v))
                                 if mask >> i & 1))


def vr_bruteforce_batch(values: np.ndarray, r: float) -> np.ndarray:
    """Oracle, batched over (m, n) values: m 2^n subset totals.

    Rows go through _subset_chains in chunks of about _CHAIN_BYTES of
    totals, so a chunk costs n(n - 1)/2 slice adds and memory stays
    O(2^n) per chunk row.
    """
    _check_r(r)
    v = _block(values)[0]
    m, n = v.shape
    rows = max(1, _CHAIN_BYTES // (8 << n))
    best = np.zeros(m)
    for i in range(0, m, rows):
        best[i:i + rows] = _subset_chains(v[i:i + rows],
                                          _vr_gain(r)).max(axis=0)
    return best ** (1.0 / r)


def _out(one: bool, *results):
    """A check's length-m results, as floats when it got one sequence."""
    if one:
        results = [float(x[0]) for x in results]
    return results[0] if len(results) == 1 else tuple(results)


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e per element in Python floats, in the shape of x.

    NumPy's vectorized power may round differently from the scalar pow
    (on an AVX-512 machine it did for about 5% of random inputs at e = 3),
    so the checks raise to powers this way and a block stays
    bit-identical to its rows.
    """
    return np.array([t ** e for t in x.ravel().tolist()]).reshape(x.shape)


def lp_norms(rows, p: float, measure: float = 1.0) -> list[float]:
    """(measure * sum |v|^p)^{1/p} of every row v of rows (k, n), as
    floats; p = inf: max |v|.

    measure is the mass of one entry: 1 for counting measure, the cell
    measure for cell-constant functions.  One power for the whole block,
    then one fsum per row.  fsum is exactly rounded, so the form of its
    input cannot change the value, and the power is elementwise, so a
    row's norm has the bits of its own call; a memoryview hands fsum
    Python floats without boxing each element as a NumPy scalar, which
    is twice as fast.
    """
    v = np.abs(rows)
    if p == math.inf:
        return v.max(axis=1).tolist()
    if p < 1:
        raise ValueError("need p >= 1")
    return [float((measure * math.fsum(memoryview(x))) ** (1.0 / p))
            for x in v ** p]


def variation_ratios(paths, inputs, r_grid, p_grid,
                     measure: float = 1.0) -> np.ndarray:
    """||V_r(T f)||_p / ||f||_p of F inputs f over a family T, at every
    (p, r): an array (len(p_grid), len(r_grid), F).

    inputs (F, cells) holds the inputs, and paths (F * c, n) the family
    pointwise, one row per cell of its outputs: input i's are rows i * c
    to (i + 1) * c (c may differ from cells, as when the outputs live on
    a larger box).  One `vr_exact_batch` call takes every r, and each
    norm is one `lp_norms` row, so an input's ratios have the bits of a
    call on it alone.  An input with ||f||_p = 0 gets 0.
    """
    inputs = np.asarray(inputs)
    vr = vr_exact_batch(paths, r_grid).reshape(
        len(r_grid), len(inputs), -1)
    out = np.zeros((len(p_grid), len(r_grid), len(inputs)))
    for i, p in enumerate(p_grid):
        denoms = np.array(lp_norms(inputs, p, measure))
        for j, block in enumerate(vr):
            np.divide(lp_norms(block, p, measure), denoms, out=out[i, j],
                      where=denoms > 0)
    return out


def growth_fit(r_grid, max_ratios) -> dict:
    """The r/(r - 2) growth factored out of a sweep of worst ratios.

    max_ratios[j] is the worst ||V_r||_p / ||f||_p at r = r_grid[j] > 2.
    Returns {"rows", "fitted_constant"}: one row per r, in grid order,
    with max_ratio and scaled = max_ratio (r - 2) / r, and the largest
    scaled value.  A bounded fit as r decreases toward 2 is what the
    variational inequalities predict; it is reported, never asserted.
    """
    if any(r <= 2 for r in r_grid):
        raise ValueError("the growth fit needs r > 2")
    rows = [{"r": float(r), "max_ratio": worst,
             "scaled": worst * (r - 2.0) / r}
            for r, worst in zip(r_grid, max_ratios)]
    return {"rows": rows,
            "fitted_constant": max((row["scaled"] for row in rows),
                                   default=0.0)}


def long_short_split(a, r: float, labels):
    """(V_r, V_r^long, V_r^short); V_r <= 2 (long + short) on full ranges.

    The labels must be positive integers.  V_r^long is the variation
    along the powers of two present among the labels, and V_r^short the
    l^r sum over the dyadic blocks [2^b, 2^{b+1}) of the variation within
    each block; both come from one family of parts.
    """
    v, lab, one = _block(a, labels)
    full = vr_exact_batch(v, r)
    index, ends = _dyadic_layout(lab.tobytes())
    parts = _vr_parts(v[:, index], r, ends)
    # A running sum adds the blocks' r-th powers block by block, in order.
    short = np.add.accumulate(_pow(parts[:, 1:], r), axis=1)[:, -1]
    return _out(one, full, parts[:, 0], _pow(short, 1.0 / r))


@functools.lru_cache(maxsize=_LAYOUT_ENTRIES)
def _dyadic_layout(labels: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(index, ends) for `_vr_parts` of the long/short parts of one label
    set.

    The row v[:, index] holds the points at the powers of two, then every
    point; its part 0 is that skeleton, and part k >= 1 the k-th dyadic
    block [2^b, 2^{b+1}) present, cuts[k - 1]:cuts[k] (cuts[0] = 0).
    """
    lab = np.frombuffer(labels)
    ilab = np.round(lab).astype(np.int64)
    if np.any(np.abs(lab - ilab) > 0) or np.any(ilab < 1):
        raise ValueError("long/short variation needs positive integer labels")
    dyadic = np.flatnonzero((ilab & (ilab - 1)) == 0)
    # frexp's exponent is exact; floor(log2) rounds 2^b - 1 up to b for
    # b >= 49.  The labels increase, so each block is one index range.
    block = np.frexp(lab)[1]
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1,
                           [len(lab)]])
    return _frozen(np.concatenate([dyadic, np.arange(len(lab))]),
                   np.concatenate([[0], len(dyadic) + cuts]))


def sup_bound_check(a, r: float):
    """sup_j |a_j| <= 2 V_r + min_{j0} |a_{j0}| (worst anchor).

    Returns (lhs, rhs).
    """
    v, _, one = _block(a)
    mags = np.abs(v)
    return _out(one, mags.max(axis=1),
                2.0 * vr_exact_batch(v, r) + mags.min(axis=1))


def split_bound_check(a, r: float, w_label: float):
    """V_r(all) <= 2 sup|a| + V_r(labels < w) + V_r(labels >= w), with
    the labels 0..n-1.

    Returns (lhs, rhs).
    """
    v, lab, one = _block(a)
    lhs = vr_exact_batch(v, r)
    # The labels increase, so those below w are a prefix.
    cut = np.searchsorted(lab, w_label)
    left, right = _vr_parts(v, r, [0, cut, len(lab)]).T
    return _out(one, lhs, 2.0 * np.abs(v).max(axis=1) + (left + right))


def l2_bound_check(a, r: float):
    """For r >= 2: V_r <= 2 (sum |a_j|^2)^{1/2}.  Returns (lhs, rhs)."""
    if r < 2:
        raise ValueError("the l^2 bound needs r >= 2")
    v, _, one = _block(a)
    return _out(one, vr_exact_batch(v, r),
                2.0 * np.sqrt((np.abs(v) ** 2).sum(axis=1)))


# typed: a float J fails as an index where the equal int passes.
@functools.lru_cache(maxsize=_LAYOUT_ENTRIES, typed=True)
def _gap_layout(labels: bytes, lacunary: bytes, shape: tuple, J: int):
    """(lo, hi, anchor, starts) of `oscillation_holder_check`'s gaps, for
    one label set, anchor set and J.

    Gap j holds the labels in (lac[j], lac[j + 1]], the index range
    edges[j]:edges[j + 1].  The ranges lie end to end over lo:hi; anchor
    holds each of those labels' anchor index, and starts the offsets of
    the live gaps in lo:hi.
    """
    lab = np.frombuffer(labels)
    lac = np.frombuffer(lacunary).reshape(shape)
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
    edges = np.searchsorted(lab, lac[:J + 1], side="right")
    size = np.diff(edges)
    return (int(edges[0]), int(edges[-1]),
            *_frozen(np.repeat(at, size), edges[:-1][size > 0] - edges[0]))


def oscillation_holder_check(a, lacunary, J: int, r: float):
    """O_J <= J^{1/2 - 1/r} V_r for r >= 2.  Returns (lhs, rhs).

    O_J = (sum_{j<=J} sup_{n_j < n <= n_{j+1}} |a_n - a_{n_j}|^2)^{1/2},
    where `lacunary` lists the anchor indices n_1 < n_2 < ...; J
    consecutive gaps are used, so J must not exceed len(lacunary) - 1.
    """
    if r < 2:
        raise ValueError("the oscillation bound needs r >= 2")
    v, lab, one = _block(a)
    lac = np.asarray(lacunary, dtype=float)
    lo, hi, anchor, starts = _gap_layout(lab.tobytes(), lac.tobytes(),
                                         lac.shape, J)
    # One slice taken against each index's anchor and one reduceat give
    # every live gap's sup.
    dist = np.abs(v[:, lo:hi] - v[:, anchor])
    squares = _pow(np.maximum.reduceat(dist, starts, axis=1), 2)
    # A running sum adds the squares gap by gap, in order.
    total = (np.add.accumulate(squares, axis=1)[:, -1] if squares.size
             else np.zeros(len(v)))
    return _out(one, _pow(total, 0.5),
                J ** (0.5 - 1.0 / r) * vr_exact_batch(v, r))


def _vr_gain(r: float):
    """V_r's gain: |v_j - v_i|^r."""
    return lambda d: d ** r


def _jump_gain(lam: float):
    """The jump gain: 1 on gaps strictly above lam (not at ties), else -inf."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return lambda d: np.where(d > lam, 1.0, -np.inf)


def jump_count(a, lam: float) -> int:
    """N_lam: the jumps of a longest chain with gaps strictly above lam."""
    return int(_longest_chain(_one(a)[None], (_jump_gain(lam),)).max())


def jump_count_bruteforce(a, lam: float) -> int:
    """Oracle: most jumps of a valid chain by subset enumeration (n <= 16)."""
    return int(_subset_chains(_one(a)[None], _jump_gain(lam)).max())


def jump_count_batch(values: np.ndarray, lam: float) -> np.ndarray:
    """Batched jump_count: values is (m, n); returns m jump counts."""
    return _chain_max(values, "jump", float(lam)).astype(int)


def jump_variation_check(a, lam: float, r: float):
    """N_lam <= lam^{-r} V_r^r.  Returns (lhs, rhs)."""
    _check_r(r)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    v, _, one = _block(a)
    return _out(one, jump_count_batch(v, lam).astype(float),
                lam ** (-r) * _pow(vr_exact_batch(v, r), r))


def dyadic_level_square_bound(a, r: float):
    """V_r vs sqrt(2) * sum over strides 2^i of the l^2 of stride differences.

    For a sequence of length 2^s + 1 and r >= 2:
      V_r <= sqrt(2) sum_{i=0}^{s} ( sum_j |a_{(j+1)2^i} - a_{j 2^i}|^2 )^{1/2}.
    Returns (lhs, rhs).
    """
    if r < 2:
        raise ValueError("the dyadic level bound needs r >= 2")
    v, _, one = _block(a)
    ahead, behind, ends = _stride_layout(v.shape[1])
    squares = np.abs(v[:, ahead] - v[:, behind]) ** 2
    # One pairwise row sum per stride, as over that stride's own array: a
    # sum over a strided view of a block may add in another order.
    roots = np.sqrt([np.ascontiguousarray(squares[:, lo:hi]).sum(axis=1)
                     for lo, hi in zip(ends, ends[1:])])
    # A running sum adds the roots stride by stride, in order.
    rhs = np.add.accumulate(roots)[-1]
    return _out(one, vr_exact_batch(v, r), np.sqrt(2.0) * rhs)


@functools.lru_cache(maxsize=_LAYOUT_ENTRIES)
def _stride_layout(n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(ahead, behind, ends) of the stride differences of n = 2^s + 1
    points: stride 2^i takes a[ahead] - a[behind] over ends[i]:ends[i + 1].
    """
    s = n - 1
    if s < 1 or s & (s - 1):
        raise ValueError("length must be 2^s + 1")
    strides = [1 << i for i in range(s.bit_length())]
    ahead = np.concatenate([np.arange(k, n, k) for k in strides])
    counts = [s // k for k in strides]
    return (*_frozen(ahead, ahead - np.repeat(strides, counts)),
            tuple(np.cumsum([0, *counts]).tolist()))
