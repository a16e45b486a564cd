"""Batch experiments behind the command line.

Each experiment turns one family of checks into a list of ResultRow
records plus figure selectors for the plot-data writer.  Two rules keep
runs reproducible byte for byte:

  * every random input is drawn up front from a single seeded generator,
    before any work is dispatched;
  * work items then go through an order-preserving map, so the thread
    count changes wall time and nothing else.

`run` is the one entry point.  It checks every setting, the seed, the
thread count and each parameter override, against the shape of its
default (`param_shape`, which also gives the CLI its flag types), each
list for at least one entry, and each bounded setting, a scalar or
every entry of a list, against the range its experiment can run with
(`ExperimentSpec.minimums` and `exceeds`), so every caller gets the same
refusals before any work.

Rows carry a pass flag only for exact-inequality checks with explicit
constants.  Fitted constants, slopes, and feasibility reports always
ship with `passed=None`; they are data, not gates.
"""

from __future__ import annotations

import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .circle import (SET_BUDGET, apply_periodic_multiplier,
                     containment_report, denominator_set,
                     factor_smooth_rough, torus_frequencies)
from .errors import BudgetError, NotRepresentableError
from .expsum import (ArcWindow, _prime_divisors, annulus_integral,
                     avg_multiplier, continuous_avg_multiplier, decay_slope,
                     gauss_scan_quadratic, gauss_sum, major_arc_approx_check,
                     major_arc_diff_check, odd_power_kernel, reduce_fraction,
                     scale_norm)
from .martingale import (doubling_constant, field_ensemble,
                         good_lambda_check, haar_field, jump_bound_defect,
                         orthogonality_defect, ratio_sweep, tower_defect)
from .operators import (GridFunction, apply_truncation, embed, ensemble,
                        ergodic_truncation, grid_difference,
                        pushforward_kernel, union_box)
from .polymap import canonical_mapping
from .reporting import ResultRow
from .variation import (growth_fit, variation_ratios, vr_bruteforce_batch,
                        vr_exact_batch)

VR_TOLERANCE = 1e-12  # vr-suite's DP-vs-oracle pass gate, never loosened
# iw-build: the segment [1, cap] built when the full set is over budget,
# and the largest set whose members its meta lists.
IW_FALLBACK_CAP = 100_000
IW_MEMBERS_LISTED = 5000


@dataclass(frozen=True)
class RunConfig:
    """Everything a runner needs besides its defaults."""

    experiment: str
    seed: int | None = None
    threads: int = 1
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunOutcome:
    """`run` puts the checked seed and parameter overrides in `meta`."""

    rows: tuple[ResultRow, ...]
    figures: tuple[dict, ...]
    meta: dict


@dataclass(frozen=True)
class ExperimentSpec:
    runner: object
    defaults: dict
    needs_seed: bool
    summary: str
    # setting -> the least value a run of the experiment can use
    minimums: dict = field(default_factory=dict)
    # setting -> the value it must exceed
    exceeds: dict = field(default_factory=dict)


def _bound_row(name: str, case: str, params: dict, observed: float,
               bound: float) -> ResultRow:
    """The row of an exact check `observed <= bound`."""
    return ResultRow(name, case, params, observed, bound, observed / bound,
                     observed <= bound)


def _fit_rows(name: str, p: float, fit: dict, case: str,
              fit_case: str) -> list[ResultRow]:
    """A `growth_fit` result at p as rows: one `case` row per r, in the
    fit's order, then its fitted constant as the `fit_case` row."""
    rows = [ResultRow(name, case, {"p": p, "r": rec["r"]}, rec["max_ratio"],
                      None, rec["scaled"], None) for rec in fit["rows"]]
    rows.append(ResultRow(name, fit_case, {"p": p}, fit["fitted_constant"],
                          None, None, None))
    return rows


def _ordered_map(fn, items, threads: int) -> list:
    """Map preserving item order; thread count never changes results."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# Each scalar cell kind: the values it admits (bools never) and its name.
_CELLS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "a string")}


def _cell(kind, value, shape: str):
    if isinstance(value, bool) or not isinstance(value, _CELLS[kind][0]):
        raise TypeError(shape)
    return kind(value)


def _sequence(value, shape: str):
    if not isinstance(value, (list, tuple)):
        raise TypeError(shape)
    return value


def param_shape(default):
    """The one rule for what a setting with this default may be set to.

    Returns (check, flag): `check(value)` gives the value a run stores
    or raises TypeError naming the wanted shape; `flag` is the argparse
    type of the setting's flag.  An int default takes an int; a float
    default an int or a float, stored as float; a str default a str; a
    tuple of numbers a list of that cell type (int when every default
    cell is), stored as a tuple, and its flag a comma list; None takes
    None or an int.  Any other default raises TypeError.
    """
    if default is None:
        return (lambda v: None if v is None
                else _cell(int, v, "null or an integer")), int
    if type(default) in _CELLS:
        kind = type(default)
        return (lambda v: _cell(kind, v, _CELLS[kind][1])), kind
    if isinstance(default, tuple) and default and \
            all(type(x) in (int, float) for x in default):
        kind = int if all(type(x) is int for x in default) else float
        shape = f"a list of {'integers' if kind is int else 'numbers'}"

        def parse_list(text: str) -> tuple:
            return tuple(kind(tok) for tok in text.split(",") if tok)
        parse_list.__name__ = f"{kind.__name__}-list"
        return (lambda v: tuple(_cell(kind, x, shape)
                                for x in _sequence(v, shape))), parse_list
    raise TypeError(f"no parameter shape for default {default!r}")


def run(config: RunConfig) -> RunOutcome:
    """Check every setting, then dispatch one experiment.

    The seed (None or an integer in [0, 2^64)), the thread count (an
    integer >= 1) and each parameter override go through `param_shape`;
    each list setting must hold an entry, and a setting with a spec
    bound must reach its minimum, or exceed its `exceeds` value, as a
    scalar or in every list entry (None is never bounded).  A refusal is
    a ValueError naming the experiment, setting and value.
    """
    name = config.experiment
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    spec = EXPERIMENTS[name]
    unknown = set(config.params) - set(spec.defaults)
    if unknown:
        raise ValueError(f"unknown parameter(s) for {name}: "
                         f"{', '.join(sorted(unknown))}")
    checked = {}
    for key, default, value in (
            ("seed", None, config.seed), ("threads", 1, config.threads),
            *((k, spec.defaults[k], v) for k, v in config.params.items())):
        try:
            checked[key] = param_shape(default)[0](value)
        except TypeError as err:
            raise ValueError(f"{name}: {key} must be {err}, "
                             f"got {value!r}") from None
    seed, threads = checked.pop("seed"), checked.pop("threads")
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name}: seed must be in [0, 2^64), got {seed}")
    if threads < 1:
        raise ValueError(f"{name}: threads must be >= 1, got {threads}")
    if spec.needs_seed and seed is None:
        raise ValueError(f"{name} draws random inputs; a seed is required")
    params = {**spec.defaults, **checked}
    for key, value in params.items():
        if value == ():
            raise ValueError(f"{name}: {key} must not be empty")
    for bounds, relation, holds in ((spec.minimums, ">=", operator.ge),
                                    (spec.exceeds, ">", operator.gt)):
        for key, low in bounds.items():
            listed = isinstance(params[key], tuple)
            for x in params[key] if listed else (params[key],):
                if x is not None and not holds(x, low):
                    what = f"every {key} entry" if listed else key
                    raise ValueError(f"{name}: {what} must be {relation} "
                                     f"{low}, got {x}")
    config = RunConfig(name, seed, threads, checked)
    outcome = spec.runner(params, config)
    return replace(outcome, meta={"seed": seed, "params": checked,
                                  **outcome.meta})


# -- gauss-scan --------------------------------------------------------------------


def _run_gauss_scan(params, config) -> RunOutcome:
    """Gauss sum magnitudes against the classical square-root decay.

    The quadratic case scans every reduced class via the 2-D DFT table;
    other canonical mappings scan the top-coefficient family
    (0, ..., 0, a) with gcd(a, q) = 1, which already realizes the decay
    rate.  The decay exponent is a least-squares fit, so small-q
    outliers (the classical even-q obstruction) do not gate anything.
    """
    k, deg, q_max = params["k"], params["deg"], params["q_max"]
    Q = canonical_mapping(k, deg)
    name = config.experiment
    quadratic = (k, deg) == (1, 2)

    def scan(q: int) -> dict:
        if quadratic:
            table = gauss_scan_quadratic(q)
            best = float(np.nanmax(table))
            # Row a1 = 0 is NaN exactly where gcd(a2, q) > 1.
            restricted = table[0, ~np.isnan(table[0])]
            dev = float(np.max(np.abs(restricted * math.sqrt(q) - 1.0)))
        else:
            tops = [a for a in range(1, q) if math.gcd(a, q) == 1]
            vecs = np.zeros((len(tops), Q.d), dtype=np.int64)
            vecs[:, -1] = tops
            sums = gauss_sum(q, vecs, Q)
            best = max(map(abs, sums.tolist()))
            dev = math.nan
        return {"q": q, "max": best, "classical_dev": dev}

    qs = list(range(2, q_max + 1))
    scans = _ordered_map(scan, qs, config.threads)
    rows = []
    for rec in scans:
        q, best = rec["q"], rec["max"]
        ref = q ** -0.5
        ratio = best / ref
        passed = None
        if quadratic and q % 2 == 1 and _prime_divisors(q) == [q]:
            passed = abs(ratio - 1.0) <= 1e-9
        rows.append(ResultRow(name, "scan", {"q": q}, best, ref, ratio,
                              passed))
    if quadratic:
        for rec in scans:
            q = rec["q"]
            if q % 2 == 0:
                continue
            dev = rec["classical_dev"]
            rows.append(ResultRow(name, "classical", {"q": q}, dev, 1e-9,
                                  None, dev <= 1e-9))
    delta = -decay_slope(np.array(qs, dtype=float),
                         np.array([rec["max"] for rec in scans]))
    rows.append(ResultRow(name, "delta-fit", {"q_max": q_max}, delta, 0.45,
                          None, None))
    figures = ({"name": "decay", "case": "scan", "x": "params:q",
                "y": "observed", "yref": "reference",
                "xlabel": "q", "ylabel": "max |G(a/q)|",
                "xscale": "log", "yscale": "log",
                "reference": "q^(-1/2)"},)
    return RunOutcome(tuple(rows), figures,
                      {"k": k, "deg": deg, "q_max": q_max,
                       "fitted_delta": delta})


# -- weyl-decay --------------------------------------------------------------------


def _run_weyl_decay(params, config) -> RunOutcome:
    """Log-log decay of the continuous multipliers.

    Sweeps the dilation parameter u along a fixed frequency direction;
    by scaling, Phi_N(xi) = Phi_1(N^A xi) and the truncation difference
    Psi_N - Psi_{N/2} is a unit annulus integral at the scaled
    frequency, so the sweep probes exactly the decay in ||N^A xi||.
    """
    deg = params["deg"]
    points, u_min, u_max = params["points"], params["u_min"], params["u_max"]
    tol = params["tol"]
    name = config.experiment
    if u_min >= u_max:
        raise ValueError(f"{name}: u_min must be < u_max = {u_max}, "
                         f"got {u_min}")
    # The kernel 0.5/y lives on R^1, so the map has k = 1.
    Q = canonical_mapping(1, deg)
    direction = np.ones(Q.d)
    kernel = odd_power_kernel()
    grid = np.geomspace(u_min, u_max, points)

    def probe(u: float) -> dict:
        xi = u * direction
        x = scale_norm(1.0, xi, Q)
        avg = abs(continuous_avg_multiplier(1.0, xi, Q, tol=tol))
        diff = abs(annulus_integral(0.5, 1.0, xi, Q, kernel,
                                    tol=min(tol, 1e-9)))
        return {"u": float(u), "x": x, "avg": avg, "diff": diff}

    probes = _ordered_map(probe, grid, config.threads)
    target = -1.0 / Q.d + 0.1
    rows = []
    for rec in probes:
        ref = rec["x"] ** (-1.0 / Q.d)
        rows.append(ResultRow(name, "avg", {"u": rec["u"]}, rec["avg"],
                              ref, rec["avg"] / ref, None))
    for rec in probes:
        ref = rec["x"] ** (-1.0 / Q.d)
        rows.append(ResultRow(name, "diff", {"u": rec["u"]}, rec["diff"],
                              ref, rec["diff"] / ref, None))
    xs = np.array([rec["x"] for rec in probes])
    avg_slope = decay_slope(xs, np.array([rec["avg"] for rec in probes]))
    diff_slope = decay_slope(xs, np.array([rec["diff"] for rec in probes]))
    rows.append(ResultRow(name, "avg-slope", {"points": points}, avg_slope,
                          target, None, None))
    rows.append(ResultRow(name, "diff-slope", {"points": points}, diff_slope,
                          target, None, None))
    figures = tuple({"name": case, "case": case, "x": "params:u",
                     "y": "observed", "yref": "reference",
                     "xlabel": "||N^A xi||", "ylabel": f"|{label}|",
                     "xscale": "log", "yscale": "log",
                     "reference": "x^(-1/d)"}
                    for case, label in (("avg", "Phi"),
                                        ("diff", "Psi_N - Psi_{N/2}")))
    return RunOutcome(tuple(rows), figures,
                      {"avg_slope": avg_slope, "diff_slope": diff_slope,
                       "slope_target": target, "d": Q.d})


# -- vr-suite ----------------------------------------------------------------------


def _run_vr_suite(params, config) -> RunOutcome:
    """Dynamic-programming variation against the subset-enumeration oracle."""
    n_max, trials, r_grid = params["n_max"], params["trials"], params["r_grid"]
    rng = np.random.default_rng(config.seed)
    seqs = {n: rng.standard_normal((trials, n))
            + 1j * rng.standard_normal((trials, n))
            for n in range(2, n_max + 1)}
    name = config.experiment

    def check(item) -> float:
        n, r = item
        dp = vr_exact_batch(seqs[n], r)
        oracle = vr_bruteforce_batch(seqs[n], r)
        return float(np.max(np.abs(dp - oracle)
                            / np.maximum(np.abs(oracle), 1e-300)))

    items = [(n, r) for n in range(2, n_max + 1) for r in r_grid]
    errors = _ordered_map(check, items, config.threads)
    rows = [_bound_row(name, "check", {"n": n, "r": r}, err, VR_TOLERANCE)
            for (n, r), err in zip(items, errors)]
    figures = ({"name": "error", "case": "check", "x": "params:n",
                "y": "observed", "xlabel": "n",
                "ylabel": "max relative error", "yscale": "log"},)
    return RunOutcome(tuple(rows), figures,
                      {"trials": trials, "worst": max(errors)})


# -- prop0-fit / prop2-fit ---------------------------------------------------------


def _random_windows(rng, params, degrees, d):
    """Admissible (window, fraction, offsets) tuples, drawn up front."""
    out = []
    for i in range(params["trials"]):
        N = int(rng.integers(params["n_min"], params["n_max"] + 1))
        L3 = float(max(1, int(math.sqrt(N) * rng.uniform(0.4, 1.0))))
        q = int(rng.integers(1, int(L3) + 1))
        a = tuple(int(x) for x in rng.integers(0, max(q, 1), size=d))
        frac = reduce_fraction(a, q)
        L1 = float(N) * float(rng.uniform(1.0, 4.0))
        L2 = float(rng.uniform(1.0, 2.0))
        caps = L2 * np.power(L1, -np.asarray(degrees, dtype=float))
        offsets = caps * rng.uniform(-0.9, 0.9, size=d)
        out.append({"i": i, "window": ArcWindow(N, L1, L2, L3),
                    "frac": frac, "offsets": offsets})
    return out


def _rational_probes(params, d):
    """The exact rationals (0, ..., 0, 1)/3, (1, ..., 1)/4 and
    (1, ..., 1, 2)/5 in d numerators, each at every rational_n_grid entry
    N, whose window needs q <= sqrt(N): the spec bounds N below by 5^2."""
    fracs = [reduce_fraction((0,) * (d - 1) + (1,), 3),
             reduce_fraction((1,) * d, 4),
             reduce_fraction((1,) * (d - 1) + (2,), 5)]
    return [{"N": N, "frac": frac,
             "window": ArcWindow(N, float(N), 1.0, math.sqrt(N))}
            for N in params["rational_n_grid"] for frac in fracs]


def _run_prop_fit(params, config, which: str) -> RunOutcome:
    """Major-arc approximation error against its explicit bound.

    Random admissible windows give error/bound ratios (one fitted
    constant reported); exact rationals with zero offset isolate the
    q/N term of the bound, reported as error * N / q.
    """
    name = config.experiment
    if params["n_min"] > params["n_max"]:
        raise ValueError(f"{name}: n_min must be <= n_max = "
                         f"{params['n_max']}, got {params['n_min']}")
    if which == "diff" and params["m_factor"] > 1:
        raise ValueError(f"{name}: m_factor must be <= 1, got "
                         f"{params['m_factor']}")
    Q = canonical_mapping(1, params["deg"])
    probes = _rational_probes(params, Q.d)
    rng = np.random.default_rng(config.seed)
    draws = _random_windows(rng, params, Q.degrees, Q.d)
    kernel = odd_power_kernel(params["kernel_c"]) if which == "diff" \
        else None
    tol = params["tol"]

    def approx(window, frac, offs) -> dict:
        if kernel is None:
            return major_arc_approx_check(window, frac, offs, Q, tol=tol)
        M = max(1, int(window.N * params["m_factor"]))
        return major_arc_diff_check(window, M, frac, offs, Q, kernel,
                                    tol=tol)

    results = _ordered_map(
        lambda item: approx(item["window"], item["frac"], item["offsets"]),
        draws, config.threads)
    rows = []
    for item, res in zip(draws, results):
        rows.append(ResultRow(
            name, "window",
            {"trial": item["i"], "N": item["window"].N, "q": item["frac"].q},
            res["error"], res["bound"], res["ratio"], None))
    fitted = max(res["ratio"] for res in results)
    rows.append(ResultRow(name, "ratio-fit", {"trials": params["trials"]},
                          fitted, None, None, None))

    def rational(item) -> float:
        res = approx(item["window"], item["frac"], np.zeros(Q.d))
        return res["error"] * item["N"] / item["frac"].q

    scaled = _ordered_map(rational, probes, config.threads)
    for item, value in zip(probes, scaled):
        rows.append(ResultRow(
            name, "rational",
            {"N": item["N"], "q": item["frac"].q,
             "a": list(item["frac"].numerators)},
            value, None, None, None))
    rows.append(ResultRow(name, "rational-fit", {}, max(scaled), None, None,
                          None))
    figures = ({"name": "ratio", "case": "window", "x": "params:N",
                "y": "ratio", "xlabel": "N", "ylabel": "error / bound",
                "xscale": "log", "yscale": "log"},)
    return RunOutcome(tuple(rows), figures,
                      {"fitted_ratio": fitted,
                       "rational_fit": max(scaled)})


def _run_prop0_fit(params, config) -> RunOutcome:
    return _run_prop_fit(params, config, "avg")


def _run_prop2_fit(params, config) -> RunOutcome:
    return _run_prop_fit(params, config, "diff")


# -- iw-build ----------------------------------------------------------------------


def _run_iw_build(params, config) -> RunOutcome:
    """Build one denominator set and check everything checkable exactly.

    The lower containment {1..N} in P_N, the factorization uniqueness,
    and the nesting against P_{N-1} carry pass flags.  The upper
    inclusion max(P_N) <= e^{N^rho} is compared in logs and flagged only
    when it actually holds; at desk scale it does not, and that is a
    feasibility report, not a failure.
    """
    rho, n, cap = params["rho"], params["n"], params["cap"]
    name = config.experiment
    rows = []
    try:
        dset = denominator_set(n, rho, cap=cap)
    except BudgetError as err:
        rows.append(ResultRow(name, "truncated",
                              {"estimate": int(err.estimate)},
                              float(err.estimate), float(SET_BUDGET), None,
                              None))
        dset = denominator_set(n, rho, cap=IW_FALLBACK_CAP)
    members = dset.members
    rows.append(ResultRow(name, "cardinality", {"n": n, "rho": rho},
                          float(len(members)), float(dset.cardinality),
                          None,
                          None if dset.truncated
                          else len(members) == dset.cardinality))

    if dset.cap is None or dset.cap >= n:
        rep = containment_report(dset)
        rows.append(ResultRow(name, "initial-segment", {"n": n},
                              None, None, None, rep["lower_holds"]))
        log_max, log_bound = rep["log_max_member"], rep["log_bound"]
        rows.append(ResultRow(name, "upper-inclusion", {"n": n},
                              log_max, log_bound,
                              log_max / log_bound if log_bound > 0
                              else None,
                              True if rep["upper_holds"] else None))

    ok = True
    for q in members:
        try:
            smooth, rough = factor_smooth_rough(q, dset.params)
        except NotRepresentableError:
            ok = False
            break
        if smooth * rough != q:
            ok = False
            break
    rows.append(ResultRow(name, "factor-roundtrip",
                          {"members": len(members)}, None, None, None, ok))

    prev = denominator_set(n - 1, rho, cap=dset.cap) if n >= 1 else None
    if prev is not None:
        nested = set(prev.members) <= set(members)
        rows.append(ResultRow(name, "nesting", {"from": n - 1, "to": n},
                              None, None, None, nested))

    meta = {"n": n, "rho": rho, "N0": dset.params.N0, "D": dset.params.D,
            "cardinality": dset.cardinality, "cap": dset.cap,
            "truncated": dset.truncated}
    if len(members) <= IW_MEMBERS_LISTED:
        meta["members"] = list(members)
    return RunOutcome(tuple(rows), (), meta)


# -- operator-norm -----------------------------------------------------------------


def _run_operator_norm(params, config) -> RunOutcome:
    """Backend agreement, structural identities, and empirical norms.

    The kernel picks the family: M_N for `which` = average, T_N for
    singular.  Each N's `pushforward_kernel` (ball, images, weights and
    kernel grid) is built once, before the fields are mapped, and every
    field reads it; its spectrum is built at the first fft output and
    kept.  Each field's direct and fft outputs are built once per N, and
    every check reads them; only linearity applies the operator to a
    further input, and the ergodic check realizes its own orbits.  The
    growth rows read the fft outputs in increasing N.
    """
    which, name = params["which"], config.experiment
    if which not in ("average", "singular"):
        raise ValueError(f"{name}: which must be 'average' or 'singular', "
                         f"got {which!r}")
    # The bundled kernel 0.5/y lives on R^1.
    if which == "singular" and params["k"] != 1:
        raise ValueError(f"{name}: k must be 1 with which = 'singular', "
                         f"got {params['k']}")
    Q = canonical_mapping(params["k"], params["deg"])
    kernel = odd_power_kernel(params["kernel_c"]) \
        if which == "singular" else None
    n_set = tuple(int(n) for n in params["n_set"])
    if len(set(n_set)) != len(n_set):
        raise ValueError(f"{name}: n_set entries must be distinct, "
                         f"got {n_set}")
    fields = list(ensemble(Q.d, params["halfwidth"], params["size"],
                           config.seed))
    p, r_grid = params["p"], params["r_grid"]
    by_n = sorted(range(len(n_set)), key=n_set.__getitem__)
    family = [pushforward_kernel(Q, N, kernel) for N in n_set]

    def gap(a: GridFunction, b: GridFunction) -> float:
        return grid_difference(a, b) / max(float(np.abs(a.values).max()),
                                           1e-300)

    def realized(f, ker, direct) -> bool:
        orbit = ergodic_truncation(f, ker)
        u = union_box(direct, orbit)
        return np.array_equal(embed(direct, u).values,
                              embed(orbit, u).values)

    def check(item) -> dict:
        """Every per-field check, read from one (direct, fft) pair per N.

        The fft outputs and their variation come first, so the variation
        engine never runs beside the direct outputs.  Only the first two
        fields keep their outputs (for linearity), so the ensemble's
        outputs are never all held at once.
        """
        i, f = item
        ffts = [apply_truncation(f, ker, backend="fft") for ker in family]
        u = union_box(*ffts)
        # Stacked N-major and read transposed: the engine's column layout
        # is the stack itself, not a copy.
        paths = np.stack([embed(ffts[j], u).values.ravel() for j in by_n])
        ratios = variation_ratios(paths.T, f.values.reshape(1, -1), r_grid,
                                  (p,))[0, :, 0].tolist()
        directs = [apply_truncation(f, ker) for ker in family]
        total = complex(f.values.sum())
        return {"backend": max(gap(a, b) for a, b in zip(directs, ffts)),
                "mass": max(abs(complex(a.values.sum()) - total)
                            for a in directs) / max(1.0, abs(total)),
                "ergodic": i >= 4 or all(
                    realized(f, ker, a) for ker, a in zip(family, directs)),
                "ratios": ratios,
                "direct": directs if i < 2 else None}

    recs = _ordered_map(check, enumerate(fields), config.threads)
    rows = [_bound_row(name, "backend", {"i": i}, rec["backend"], 1e-10)
            for i, rec in enumerate(recs)]
    if kernel is None:
        rows.append(_bound_row(name, "mass", {"n_set": list(n_set)},
                               max(rec["mass"] for rec in recs), 1e-12))

    a1, a2 = 0.7 - 0.2j, -1.3 + 0.4j
    f, g = fields[0], fields[1]
    combo = GridFunction(f.box, a1 * f.values + a2 * g.values)
    worst = 0.0
    for ker, fa, ga in zip(family, recs[0]["direct"], recs[1]["direct"]):
        lhs = apply_truncation(combo, ker)
        worst = max(worst, gap(lhs, GridFunction(
            fa.box, a1 * fa.values + a2 * ga.values)))
    rows.append(_bound_row(name, "linearity", {"n_set": list(n_set)}, worst,
                           1e-12))
    rows.append(ResultRow(name, "ergodic", {"n_set": list(n_set)}, None,
                          None, None, all(rec["ergodic"] for rec in recs)))

    fit = growth_fit(r_grid, [max(col) for col in zip(
        *(rec["ratios"] for rec in recs))])
    rows += _fit_rows(name, p, fit, "growth", "growth-fit")
    figures = ({"name": "growth", "case": "growth", "x": "params:r",
                "y": "observed", "xlabel": "r",
                "ylabel": "max ||V_r||_p / ||f||_p"},)
    return RunOutcome(tuple(rows), figures,
                      {"which": which, "p": p,
                       "fitted_constant": fit["fitted_constant"],
                       "worst_backend_dev": max(rec["backend"]
                                                for rec in recs)})


# -- lepingle ----------------------------------------------------------------------


def _run_lepingle(params, config) -> RunOutcome:
    """Martingale identities with flags, the variation sweep as data."""
    m, L = params["m"], params["L"]
    fields = list(field_ensemble(m, L, params["fields"], config.seed))
    name = config.experiment
    rows = []

    rows.append(_bound_row(name, "tower", {"fields": min(len(fields), 24)},
                           tower_defect(fields[:24]), 1e-10))
    rows.append(_bound_row(name, "orthogonality", {"fields": len(fields)},
                           orthogonality_defect(fields), 1e-10))

    dev = max(abs(rec["max_ratio"] - 1.0) for sweep in ratio_sweep(
        [haar_field(L)], params["p_grid"], params["r_grid"])
        for rec in sweep["rows"])
    rows.append(ResultRow(name, "haar", {"L": L}, dev, 0.0, None,
                          dev == 0.0))

    grown = doubling_constant(m)
    rows.append(ResultRow(name, "doubling", {"m": m}, float(grown),
                          float(2 ** m), None, grown == 2 ** m))

    r_jump = params["jump_r"]
    defect = jump_bound_defect(fields[:min(len(fields), 50)],
                               params["lam_grid"], r_jump)
    rows.append(ResultRow(name, "jump-bound",
                          {"r": r_jump, "lam_grid": list(params["lam_grid"])},
                          defect, 0.0, None, defect <= 1e-9))

    sweeps = ratio_sweep(fields, params["p_grid"], params["r_grid"])
    for p, sweep in zip(params["p_grid"], sweeps):
        rows += _fit_rows(name, p, sweep, "sweep", "constant-fit")
    figures = ({"name": "sweep", "case": "sweep", "x": "params:r",
                "y": "observed", "xlabel": "r",
                "ylabel": "max ||V_r(E_k f)||_p / ||f||_p",
                "yscale": "log"},)
    return RunOutcome(tuple(rows), figures,
                      {"fields": len(fields), "L": L,
                       "fitted": {repr(p): s["fitted_constant"]
                                  for p, s in zip(params["p_grid"],
                                                  sweeps)}})


# -- good-lambda -------------------------------------------------------------------


def _run_good_lambda(params, config) -> RunOutcome:
    """Distributional comparison rows; finiteness is the exact check."""
    fields = list(field_ensemble(params["m"], params["L"], params["fields"],
                                 config.seed))
    q, r = params["q"], params["r"]
    name = config.experiment
    lams = [float(lam) for lam in params["lam_grid"]]
    checks = good_lambda_check(fields, lams, q, r)
    rows = [ResultRow(name, "check", {"i": i, "lam": rec["lam"]},
                      rec["ratio"], None, None, math.isfinite(rec["ratio"]))
            for i, records in enumerate(checks) for rec in records]
    ratios = [row.observed for row in rows]
    rows.append(ResultRow(name, "max-ratio", {"q": q, "r": r},
                          max(ratios), None, None, None))
    figures = ({"name": "ratio", "case": "check", "x": "params:lam",
                "y": "observed", "xlabel": "lambda",
                "ylabel": "lhs / rhs"},)
    return RunOutcome(tuple(rows), figures,
                      {"max_ratio": max(ratios), "q": q, "r": r})


# -- multiplier-apply --------------------------------------------------------------


def _run_multiplier_apply(params, config) -> RunOutcome:
    """Fourier-side and space-side realizations of M_N must agree.

    Test inputs are supported well inside one period so the periodic
    convolution never wraps and equals the free-space operator exactly.
    The kernel is built once, and every trial reads it through the
    direct backend, which needs no spectrum.
    """
    Q = canonical_mapping(params["k"], params["deg"])
    n, m, trials = params["n"], params["m"], params["trials"]
    name = config.experiment
    ker = pushforward_kernel(Q, n)

    # The averaged output lives on supp(f) + Q(B_n); keep that inside
    # one period so the wrapped convolution equals the free-space one.
    least = max(max(0, -lo) + max(0, hi) + 1 for lo, hi in ker.box)
    if m < least:
        raise ValueError(f"{name}: m must be >= {least} for n = {n}, "
                         f"got {m}")
    lo_pad = tuple(max(0, -lo) for lo, _ in ker.box)
    hi_pad = tuple(m - 1 - max(0, hi) for _, hi in ker.box)

    xis = torus_frequencies((m,) * Q.d)
    symbol = avg_multiplier(n, xis, Q)
    dev = float(np.abs(ker.multiplier_at(xis) - symbol).max())
    rows = [_bound_row(name, "kernel-dft", {"n": n, "m": m}, dev, 1e-10)]

    rng = np.random.default_rng(config.seed)
    period_box = tuple((0, m - 1) for _ in range(Q.d))
    support_box = tuple(zip(lo_pad, hi_pad))
    shape = tuple(b - a + 1 for a, b in support_box)
    inputs = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(trials)]

    squared = symbol ** 2

    def agree(values) -> tuple[float, float]:
        f = embed(GridFunction(support_box, values), period_box)
        direct = apply_truncation(GridFunction(support_box, values), ker)
        spectral = apply_periodic_multiplier(f, symbol)
        scale = max(float(np.abs(direct.values).max()), 1e-300)
        dev_apply = grid_difference(embed(direct, period_box),
                                    spectral) / scale
        twice = apply_periodic_multiplier(spectral, symbol)
        product = apply_periodic_multiplier(f, squared)
        dev_comp = grid_difference(twice, product) / scale
        return dev_apply, dev_comp

    agreements = _ordered_map(agree, inputs, config.threads)
    for case, devs in zip(("apply", "composition"), zip(*agreements)):
        rows.append(_bound_row(name, case, {"n": n, "m": m, "trials": trials},
                               max(devs), 1e-10))
    return RunOutcome(tuple(rows), (),
                      {"n": n, "m": m, "frequencies": len(xis)})


# -- registry ----------------------------------------------------------------------


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "gauss-scan": ExperimentSpec(
        _run_gauss_scan,
        {"k": 1, "deg": 2, "q_max": 199},
        needs_seed=False,
        summary="Gauss sum magnitudes vs the classical square-root decay",
        minimums={"q_max": 2, "k": 1, "deg": 1}),
    "weyl-decay": ExperimentSpec(
        _run_weyl_decay,
        {"deg": 2, "points": 50, "u_min": 1.5, "u_max": 200.0, "tol": 1e-7},
        needs_seed=False,
        summary="log-log decay of the continuous multipliers",
        minimums={"points": 2, "deg": 1},
        exceeds={"tol": 0, "u_min": 0}),
    "vr-suite": ExperimentSpec(
        _run_vr_suite,
        {"n_max": 12, "trials": 500,
         "r_grid": (1.0, 1.5, 2.0, 3.0, 10.0)},
        needs_seed=True,
        summary="variation DP against the subset-enumeration oracle",
        minimums={"n_max": 2, "trials": 1, "r_grid": 1}),
    "prop0-fit": ExperimentSpec(
        _run_prop0_fit,
        {"trials": 200, "n_min": 64, "n_max": 4096, "deg": 2,
         "rational_n_grid": (81, 243, 729, 2187, 6561),
         "tol": 1e-8},
        needs_seed=True,
        summary="averaging multiplier major-arc approximation",
        # a window at N needs 1 <= L3 <= sqrt(N), and a rational probe's
        # L3 = sqrt(N) its q <= 5
        minimums={"trials": 1, "deg": 1, "n_min": 1, "rational_n_grid": 25},
        exceeds={"tol": 0}),
    "prop2-fit": ExperimentSpec(
        _run_prop2_fit,
        {"trials": 200, "n_min": 64, "n_max": 4096, "deg": 2,
         "rational_n_grid": (81, 243, 729, 2187, 6561),
         "m_factor": 0.5, "kernel_c": 0.5, "tol": 1e-8},
        needs_seed=True,
        summary="singular truncation-difference major-arc approximation",
        minimums={"trials": 1, "deg": 1, "n_min": 1, "rational_n_grid": 25},
        exceeds={"tol": 0}),
    "iw-build": ExperimentSpec(
        _run_iw_build,
        {"rho": 1.0, "n": 4, "cap": None},
        needs_seed=False,
        summary="denominator set construction and containment checks",
        # a cap of 0 would leave an empty segment
        minimums={"n": 0, "cap": 1},
        exceeds={"rho": 0}),
    "operator-norm": ExperimentSpec(
        _run_operator_norm,
        {"k": 1, "deg": 2, "halfwidth": 16, "size": 9,
         "n_set": (1, 2, 3, 4), "p": 2.0, "r_grid": (2.5, 3.0, 4.0),
         "which": "average", "kernel_c": 0.5},
        needs_seed=True,
        summary="operator backends, identities, and empirical norms",
        # the linearity check reads two fields
        minimums={"size": 2, "halfwidth": 0, "k": 1, "deg": 1, "p": 1},
        # the growth fit's regime, and truncation radii N >= 1
        exceeds={"r_grid": 2.0, "n_set": 0}),
    "lepingle": ExperimentSpec(
        _run_lepingle,
        {"m": 1, "L": 8, "fields": 200, "p_grid": (1.5, 2.0, 3.0),
         "r_grid": (2.05, 2.2, 2.5, 3.0, 4.0),
         "lam_grid": (0.25, 0.5, 1.0), "jump_r": 2.5},
        needs_seed=True,
        summary="martingale identities and the variation-ratio sweep",
        # the Haar check needs L >= 1 to resolve the half cells
        minimums={"fields": 1, "m": 1, "L": 1, "jump_r": 1, "p_grid": 1},
        # the growth fit's regime, and jumps of a positive size
        exceeds={"r_grid": 2.0, "lam_grid": 0}),
    "good-lambda": ExperimentSpec(
        _run_good_lambda,
        {"m": 1, "L": 8, "fields": 100,
         "lam_grid": (0.25, 0.5, 1.0, 2.0), "q": 2.0, "r": 2.5},
        needs_seed=True,
        summary="distributional variation/square/maximal comparison",
        minimums={"fields": 1, "m": 1, "L": 0, "q": 2},
        exceeds={"r": 2, "lam_grid": 0}),
    "multiplier-apply": ExperimentSpec(
        _run_multiplier_apply,
        {"k": 1, "deg": 2, "n": 4, "m": 64, "trials": 12},
        needs_seed=True,
        summary="Fourier-side realization against the direct operator",
        minimums={"trials": 1, "n": 1, "k": 1, "deg": 1}),
}
