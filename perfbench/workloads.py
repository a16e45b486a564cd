"""The benchmark's four workloads and the steps of one pass of each.

A pass is a fixed list of steps run one after another in one process.  A
`cli` step is one `radonlab.cli.main` invocation, so the cli, experiments
and reporting layers sit inside the timed pass as they do for
`scripts/run_all.py`; randomized experiments get the workload seed and
deterministic ones ignore it.  A `lib` step calls the library directly,
for work no experiment reaches, and writes its rows through
`radonlab.reporting` so every step leaves a result document.

This module imports radonlab only inside the library steps, so the
benchmark's parent process never loads the program.

Why these four:

* martingale-sweep: many short level sequences (256 cells x 9 levels)
  through the batched variation DP and conditional expectations.
* long-chains: few long sequences through the scalar DP path
  (vr_exact / vr_value / jump_count) that no experiment calls, plus one
  (200, 257) batch whose n^2 tensor sets peak memory.
* spectral-apply: the per-frequency symbol path under
  apply_periodic_multiplier, and both operator backends; no quadrature and
  little variation work.
* arith-quadrature: 1-D and disk quadrature and exact Gauss sums, with no
  variation, martingale or operator work.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

WORKLOADS = {
    "martingale-sweep": (
        ("cli", "lepingle", ("lepingle",)),
        ("cli", "good-lambda", ("good-lambda",)),
        ("cli", "vr-suite", ("vr-suite",)),
    ),
    "long-chains": (
        ("lib", "chains", "seminorm_chains"),
        ("lib", "batch", "seminorm_batch"),
    ),
    "spectral-apply": (
        ("cli", "multiplier-apply", ("multiplier-apply",)),
        ("cli", "operator-norm", ("operator-norm",)),
        ("cli", "operator-norm-singular",
         ("operator-norm", "--which", "singular")),
        ("cli", "operator-norm-h32", ("operator-norm", "--halfwidth", "32")),
    ),
    "arith-quadrature": (
        ("cli", "gauss-scan", ("gauss-scan",)),
        ("cli", "gauss-scan-deg3", ("gauss-scan", "--deg", "3",
                                    "--q-max", "199")),
        ("cli", "weyl-decay", ("weyl-decay",)),
        ("cli", "prop0-fit", ("prop0-fit",)),
        ("cli", "prop2-fit", ("prop2-fit",)),
        ("cli", "iw-build", ("iw-build",)),
        ("cli", "iw-build-rho05", ("iw-build", "--rho", "0.5", "--n", "30",
                                   "--cap", "50000")),
        ("lib", "disk-probes", "disk_probes"),
    ),
}

# long-chains: draws per sequence length 2^s + 1, the exponents, and the
# jump thresholds of the acceptance battery's seminorm checks.
CHAIN_DRAWS = 100
CHAIN_LEVELS = range(1, 7)
CHAIN_R = (2.0, 3.0)
CHAIN_LAMBDAS = (0.25, 1.0)
BATCH_SHAPE = (200, 257)
BATCH_R = 2.0

# arith-quadrature: k = 2 disk multipliers at tol 1e-6.  The disk rule has
# no node budget; at 1e-8 it outgrows a 3 GiB address space.
DISK_DIRECTION = (0.7, 0.3, 0.2)
DISK_SCALES = (0.5, 1.0, 2.0, 4.0)
DISK_TOL = 1e-6


def ordered_map(fn, items, threads: int) -> list:
    """Order-preserving map, in this thread or on a `threads` pool.

    The library steps' own copy of what `radonlab.experiments` does for
    experiments, so they need not import the experiments layer.
    """
    items = list(items)
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def chain_inputs(seed: int) -> dict:
    """Complex Gaussian sequences: the per-level blocks and the batch."""
    import numpy as np
    rng = np.random.default_rng(seed)
    blocks = {s: _gaussian(rng, (CHAIN_DRAWS, 2 ** s + 1))
              for s in CHAIN_LEVELS}
    return {"blocks": blocks, "batch": _gaussian(rng, BATCH_SHAPE)}


def _chain_checks(s: int, block, r: float) -> dict:
    """(lhs, rhs) pairs of the seven explicit-constant checks, by name."""
    import numpy as np
    from radonlab import variation as V
    n = 2 ** s + 1
    anchors = [0] + [2 ** i for i in range(s + 1)]
    labels = np.arange(1, n + 1)
    pairs = {name: [] for name in ("sup", "split", "l2", "oscillation",
                                   "dyadic-level", "long-short",
                                   *(f"jump-{lam}" for lam in CHAIN_LAMBDAS))}
    for a in block:
        pairs["sup"].append(V.sup_bound_check(a, r))
        pairs["split"].append(V.split_bound_check(a, r, n / 2))
        pairs["l2"].append(V.l2_bound_check(a, r))
        pairs["oscillation"].append(
            V.oscillation_holder_check(a, anchors, s + 1, r))
        pairs["dyadic-level"].append(V.dyadic_level_square_bound(a, r))
        v, lng, sht = V.long_short_split(a, r, labels=labels)
        pairs["long-short"].append((v, 2.0 * (lng + sht)))
        for lam in CHAIN_LAMBDAS:
            pairs[f"jump-{lam}"].append(V.jump_variation_check(a, lam, r))
    return pairs


def _violations(name: str, lhs, rhs):
    """Boolean array of violated checks.

    Equality is attained on degenerate subsequences, so roundoff gets a
    few ulps of slack; the dyadic-level bound keeps the battery's 1e-9.
    """
    import numpy as np
    if name == "dyadic-level":
        return lhs > rhs + 1e-9
    return lhs > rhs + 1e-12 * np.maximum(1.0, rhs)


def _check_rows(experiment: str, name: str, params: dict, lhs, rhs):
    import numpy as np
    from radonlab.reporting import ResultRow
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    bad = int(_violations(name, lhs, rhs).sum())
    worst = float(np.max(lhs / np.maximum(rhs, 1e-300)))
    row = ResultRow(experiment, name, {**params, "draws": int(lhs.size)},
                    worst, 1.0, None, bad == 0)
    return row, int(lhs.size), bad


def seminorm_chains(inputs, threads: int, label: str):
    """The seminorm checks per (level, r), mapped over `threads`."""
    import numpy as np
    items = [(s, r) for s in CHAIN_LEVELS for r in CHAIN_R]
    results = ordered_map(
        lambda item: _chain_checks(item[0], inputs["blocks"][item[0]],
                                   item[1]),
        items, threads)
    rows, attempted, failed = [], 0, 0
    for (s, r), pairs in zip(items, results):
        for name, values in pairs.items():
            lhs, rhs = np.array(values).T
            row, n, bad = _check_rows(label, name, {"s": s, "r": r},
                                      lhs, rhs)
            rows.append(row)
            attempted += n
            failed += bad
    return rows, attempted, failed


def seminorm_batch(inputs, threads: int, label: str):
    """One batched DP call on long sequences, checked by the l^2 and sup
    bounds (V_r <= 2 ||a||_2 and sup |a| <= 2 V_r + min |a|)."""
    import numpy as np
    from radonlab import variation as V
    stack = inputs["batch"]
    vr = V.vr_exact_batch(stack, BATCH_R)
    mags = np.abs(stack)
    l2 = 2.0 * np.sqrt((mags ** 2).sum(axis=1))
    sup = 2.0 * vr + mags.min(axis=1)
    rows, attempted, failed = [], 0, 0
    for name, lhs, rhs in (("l2", vr, l2), ("sup", mags.max(axis=1), sup)):
        row, n, bad = _check_rows(label, name,
                                  {"n": stack.shape[1], "r": BATCH_R},
                                  lhs, rhs)
        rows.append(row)
        attempted += n
        failed += bad
    return rows, attempted, failed


def disk_probes(inputs, threads: int, label: str):
    """k = 2 disk multipliers; each probe is one operation."""
    import numpy as np
    from radonlab import expsum, polymap
    from radonlab.errors import QuadratureError
    from radonlab.reporting import ResultRow
    Q = polymap.canonical_mapping(2, 1)

    def probe(u: float):
        try:
            value = expsum.continuous_avg_multiplier(
                1.0, u * np.array(DISK_DIRECTION), Q, tol=DISK_TOL)
        except (MemoryError, QuadratureError) as err:
            return u, None, type(err).__name__
        return u, value, None

    rows, failed = [], 0
    for u, value, error in ordered_map(probe, DISK_SCALES, threads):
        failed += error is not None
        rows.append(ResultRow(label, "disk", {"u": u, "tol": DISK_TOL,
                                              "error": error},
                              None if value is None else abs(value),
                              None, None, None))
    return rows, len(DISK_SCALES), failed
