"""Dyadic martingales on the unit cube and the jump and variation
experiments over their filtration.

Fields are cell-constant on the finest dyadic grid of [0, 1)^m, so
every coarser conditional expectation is an exact block average and the
filtration identities can be checked in exact rational arithmetic when
the inputs are rationals (object arrays of Fraction).  All norms are
integral norms with the cell measure 2^{-mL}.

The pointwise functionals of the filtration (V_r, jump counts, the
square and maximal functions) all read one level stack: the per-cell
sequences E_0 f, ..., E_L f of a set of same-shape fields, one row per
cell.  The sweeps stream the fields in groups, a chunk of at most
_ENGINE_COLUMNS rows each, and build one stack per chunk, so a sweep's
working set does not grow with the field count.  A stack whose
imaginary parts are all 0 goes to the variation engine as real rows,
which take its turning-point cut, and V_r at every r of a sweep is one
engine call per chunk (jump counts one per lambda); every p and lambda
shares the result, and each L^p norm is one power per chunk and one
fsum per field.  The engine's rows are independent, so chunking never
changes a value.
`conditional_expectation` builds one level of one field, exactly for
rationals, and is the reference the stack is tested against.

The variational and jump experiments report fitted constants: the
inequalities behind them carry implicit constants, so the module
asserts structure (monotonicity, exact identities, finiteness) and
leaves magnitudes to the experiment reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import random_arrays
from .variation import (growth_fit, jump_count_batch, lp_norm, lp_norms,
                        vr_exact_batch)

# Rows of one level stack handed to the variation engine: 32 fields at
# m = 1, L = 8.  Bounds a sweep's working set whatever the field count,
# and is large enough that the engine's per-call and per-width-group
# costs are spread over many rows.
_ENGINE_COLUMNS = 8192


@dataclass(frozen=True)
class DyadicField:
    """Cell-constant function on the finest dyadic grid of [0, 1)^m.

    values has shape (2^L,) * m; object dtype carries exact rationals,
    anything numeric is held as complex.
    """

    m: int
    L: int
    values: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need m >= 1")
        if self.L < 0:
            raise ValueError("need L >= 0")
        v = np.asarray(self.values)
        if v.dtype != object:
            v = v.astype(complex)
        want = (2 ** self.L,) * self.m
        if v.shape != want:
            raise ValueError(f"values must have shape {want}, "
                             f"got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def cells(self) -> int:
        return 2 ** (self.m * self.L)

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.m * self.L)


def cell_measure_exact(m: int, k: int) -> Fraction:
    """Measure of one level-k dyadic cube in [0, 1)^m."""
    return Fraction(1, 2 ** (m * k))


def doubling_constant(m: int) -> int:
    """Parent-to-child measure ratio over the first ten levels; 2^m for
    standard dyadic cubes."""
    ratios = {cell_measure_exact(m, k) / cell_measure_exact(m, k + 1)
              for k in range(10)}
    if len(ratios) != 1:
        raise AssertionError("dyadic cube measures are not uniform")
    r = next(iter(ratios))
    if r.denominator != 1:
        raise AssertionError("doubling ratio is not an integer")
    return int(r)


def haar_field(L: int) -> DyadicField:
    """1 on [0, 1/2), -1 on [1/2, 1): the first Haar function."""
    if L < 1:
        raise ValueError("need L >= 1 to resolve the half cells")
    n = 2 ** L
    vals = np.ones(n, dtype=complex)
    vals[n // 2:] = -1.0
    return DyadicField(1, L, vals)


# -- conditional expectations -----------------------------------------------------

def _block_average(v: np.ndarray, m: int, factor: int) -> np.ndarray:
    """Average over factor^m blocks of the trailing m axes of v."""
    if factor == 1:
        return v.copy()
    lead = v.ndim - m
    shaped = v.reshape(v.shape[:lead] + tuple(
        x for n in v.shape[lead:] for x in (n // factor, factor)))
    axes = tuple(range(lead + 1, lead + 2 * m, 2))
    if v.dtype == object:
        out = shaped
        for ax in sorted(axes, reverse=True):
            out = out.sum(axis=ax)
        return out * Fraction(1, factor ** m)
    return shaped.mean(axis=axes)


def _expand(coarse: np.ndarray, m: int, factor: int) -> np.ndarray:
    """Repeat each entry of the trailing m axes factor times per axis."""
    out = coarse
    for ax in range(coarse.ndim - m, coarse.ndim):
        out = np.repeat(out, factor, axis=ax)
    return out


def conditional_expectation(f: DyadicField, k: int) -> DyadicField:
    """Average over level-k dyadic cubes, returned on the finest grid.

    Exact when the field carries rationals (object dtype): block sums
    divide by the exact cell count, so the tower property is an
    identity rather than an approximation.
    """
    if not 0 <= k <= f.L:
        raise ValueError(f"level must lie in [0, {f.L}]")
    factor = 2 ** (f.L - k)
    coarse = _block_average(f.values, f.m, factor)
    return DyadicField(f.m, f.L, _expand(coarse, f.m, factor))


def _level_stack(fields) -> np.ndarray:
    """(F * cells, L + 1) complex array: row i * cells + c holds
    E_0 f_i, ..., E_L f_i at cell c of the i-th field.

    The fields must share m and L (np.stack refuses other shapes).
    Every level is one block average of the whole (F, 2^L, ..., 2^L)
    array, so a set of fields costs L + 1 array operations rather than
    F (L + 1).
    """
    fields = list(fields)
    m, L = fields[0].m, fields[0].L
    v = np.stack([f.values for f in fields])
    stack = np.empty((v.size, L + 1), dtype=complex)
    for k in range(L + 1):
        stack[:, k] = _expand(_block_average(v, m, 2 ** (L - k)), m,
                              2 ** (L - k)).reshape(-1)
    return stack


def _engine_rows(stack: np.ndarray) -> np.ndarray:
    """The stack as the engine should read it: a copy of its real part
    when every imaginary part is 0, since real rows take the engine's cut
    path, and the complex stack need not outlive the copy."""
    return stack if stack.imag.any() else stack.real.copy()


def _chunks(fields):
    """Consecutive runs of fields whose stacks fit in _ENGINE_COLUMNS rows."""
    fields = list(fields)
    if not fields:
        return
    size = max(1, _ENGINE_COLUMNS // fields[0].cells)
    for i in range(0, len(fields), size):
        yield fields[i:i + size]


def _square(stack: np.ndarray) -> np.ndarray:
    """Per-row (sum_k |E_k f - E_{k-1} f|^2)^{1/2}."""
    vals = np.zeros(stack.shape[0])
    for k in range(1, stack.shape[1]):
        vals += np.abs(stack[:, k] - stack[:, k - 1]) ** 2
    return np.sqrt(vals)


# -- jumps and variation over the filtration ----------------------------------------

def jump_bound_defect(fields, lams, r: float) -> float:
    """max over fields, cells and lambda of N_lambda - lambda^{-r} V_r^r.

    The pointwise jump inequality says this is <= 0.  One level stack
    per chunk of fields, one V_r call per chunk and one jump-count call
    per (chunk, lambda).
    """
    defect = -math.inf
    for chunk in _chunks(fields):
        stack = _engine_rows(_level_stack(chunk))
        vr_r = vr_exact_batch(stack, r) ** r
        for lam in lams:
            jumps = jump_count_batch(stack, lam)
            defect = max(defect, float(np.max(jumps - lam ** -r * vr_r)))
    return defect


def tower_defect(fields) -> float:
    """max over fields, cells and j <= k of |E_j (E_k f) - E_j f|.

    E_j (E_k f) is column j of the level stack of the fields E_k f, so
    each chunk of fields costs one stack per level k.
    """
    worst = 0.0
    for chunk in _chunks(fields):
        m, L, shape = chunk[0].m, chunk[0].L, chunk[0].values.shape
        stack = _level_stack(chunk)
        levels = stack.reshape(len(chunk), -1, L + 1)
        for k in range(L + 1):
            towered = _level_stack(DyadicField(m, L, v[:, k].reshape(shape))
                                   for v in levels)
            worst = max(worst, float(np.max(np.abs(
                towered[:, :k + 1] - stack[:, :k + 1]))))
    return worst


def orthogonality_defect(fields) -> float:
    """max over fields of the relative gap in
    ||E_L f - E_0 f||_2^2 = sum_k ||D_k f||_2^2, D_k = E_k f - E_{k-1} f
    read as column differences of the level stack."""
    worst = 0.0
    for chunk in _chunks(fields):
        L = chunk[0].L
        for f, v in zip(chunk, _level_stack(chunk).reshape(
                len(chunk), -1, L + 1)):
            lhs = float(np.sum(np.abs(v[:, L] - v[:, 0]) ** 2)
                        * f.cell_measure)
            rhs = math.fsum(lp_norm(v[:, k] - v[:, k - 1], 2,
                                    f.cell_measure) ** 2
                            for k in range(1, L + 1))
            worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    return worst


def ratio_sweep(fields, p_grid, r_grid) -> list[dict]:
    """Max Lepingle ratio per (p, r), with the r/(r - 2) growth factored out.

    The Lepingle ratio of a field f is ||V_r(E_k f : k)||_p / ||f||_p,
    0 for f = 0; the regime needs r > 2, and `growth_fit` refuses any
    other r.  fields is a set of same-shape fields.  Their level stack
    is built once per chunk, and one engine call per chunk takes V_r at
    every r; each (r, p) then costs one power of the chunk's V_r block
    and one fsum per field (`lp_norms`).  Returns one sweep per p, in
    p_grid order: {"p"} plus the `growth_fit` of its worst ratios, rows
    running over r in decreasing order.
    """
    p_grid = list(p_grid)
    r_grid = sorted((float(r) for r in r_grid), reverse=True)
    ratios = {(p, r): [] for p in p_grid for r in r_grid}
    for chunk in _chunks(fields):
        measure = chunk[0].cell_measure
        values = np.stack([f.values.reshape(-1) for f in chunk]).astype(
            complex, copy=False)
        vr = vr_exact_batch(_engine_rows(_level_stack(chunk)),
                            r_grid).reshape(len(r_grid), len(chunk), -1)
        for p in p_grid:
            denoms = lp_norms(values, p, measure)
            for r, block in zip(r_grid, vr):
                ratios[p, r] += [norm / d if d else 0.0 for norm, d in
                                 zip(lp_norms(block, p, measure), denoms)]
    return [{"p": p, **growth_fit(r_grid, [max(ratios[p, r])
                                           for r in r_grid])}
            for p in p_grid]


def good_lambda_check(fields, lams, q: float, r: float) -> list[list[dict]]:
    """Both sides of the variation/square-function set comparison, per
    field and lambda.

    lhs: measure of {V_r(E_k f) > lambda and Mf < lambda / 2}.
    rhs: measure of {Sf > lambda} plus
         lambda^{-q} (r - 2)^{-q/2} * integral of Sf^q over {Sf <= lambda}.
    V_r, Sf and Mf do not depend on lambda: they are computed once per
    chunk of fields, from one level stack, and shared by the whole grid.
    fields is a set of same-shape fields.  Returns, per field in order,
    one record per lambda of lams, in order.  The comparison constant is
    implicit; the ratio is reported and only finiteness is asserted by
    the experiment suite.
    """
    lams = list(lams)
    if any(lam <= 0 for lam in lams):
        raise ValueError("lambda must be positive")
    if q < 2:
        raise ValueError("need q >= 2")
    if r <= 2:
        raise ValueError("need r > 2")
    out = []
    for chunk in _chunks(fields):
        stack = _engine_rows(_level_stack(chunk))
        cells = (len(chunk), -1)
        sets = zip(vr_exact_batch(stack, r).reshape(cells),
                   _square(stack).reshape(cells),
                   np.abs(stack).max(axis=1).reshape(cells))
        out += [_good_lambda_records(f.cell_measure, *per_cell, lams, q, r)
                for f, per_cell in zip(chunk, sets)]
    return out


def _good_lambda_records(measure: float, vr: np.ndarray, s: np.ndarray,
                         mx: np.ndarray, lams, q: float,
                         r: float) -> list[dict]:
    """One field's `good_lambda_check` records from its per-cell V_r,
    square function s and maximal function mx."""
    records = []
    for lam in lams:
        lhs = measure * int(np.sum((vr > lam) & (mx < lam / 2)))
        exceed = measure * int(np.sum(s > lam))
        below = s[s <= lam]
        integral = float(measure * math.fsum(below ** q))
        tail = lam ** (-q) * (r - 2) ** (-q / 2) * integral
        rhs = exceed + tail
        if lhs == 0.0:
            ratio = 0.0
        elif rhs == 0.0:
            ratio = math.inf
        else:
            ratio = lhs / rhs
        records.append({"lhs_measure": lhs, "rhs_measure": rhs,
                        "rhs_square_measure": exceed, "rhs_tail_term": tail,
                        "ratio": ratio, "lam": lam, "q": q, "r": r})
    return records


# -- random field ensembles ----------------------------------------------------------

def field_ensemble(m: int, L: int, size: int, seed: int):
    """`size` random dyadic fields on [0, 1)^m at level L, cycling
    spikes, bumps, and sign fields."""
    n = 2 ** L
    centers = (np.arange(n) + 0.5) / n
    for vals in random_arrays(size, seed, centers, m, (0.25, 0.75),
                              (0.05, 0.25)):
        yield DyadicField(m, L, vals)
