"""Acceptance battery: every checkable claim at its stated tolerance.

One test per claim, each ending in a single PASS/FAIL line (run with
`pytest -s` to see them).  Tolerances sit where a genuine failure and
float roundoff are orders of magnitude apart; inequalities with an
explicit constant are checked with zero violations, allowing only a
few-ulp slack where equality is attained exactly.
"""

import json
import math
import time

import numpy as np

from radonlab import circle as ci
from radonlab import cli, experiments, variation
from radonlab.experiments import RunConfig, run
from radonlab.expsum import avg_multiplier, odd_power_kernel
from radonlab.operators import (GridFunction, apply_truncation, embed,
                                ensemble, ergodic_truncation,
                                pushforward_kernel, union_box)
from radonlab.polymap import PolynomialMapping, canonical_mapping
from radonlab.variation import (dyadic_level_square_bound,
                                jump_variation_check, l2_bound_check,
                                long_short_split, oscillation_holder_check,
                                split_bound_check, sup_bound_check)

SEED = 20260814


def verdict(label: str, ok: bool, elapsed: float, budget: float | None = None):
    line = f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.1f}s"
    if budget is not None:
        line += f" of {budget:.0f}s allowed"
        ok = ok and elapsed < budget
    print(line + ")")
    assert ok, label


def flags(outcome, case=None):
    return [r for r in outcome.rows
            if r.passed is not None and (case is None or r.case == case)]


def rows_of(outcome, case):
    return [r for r in outcome.rows if r.case == case]


def seq_ensembles():
    """1000 complex Gaussian sequences of length 2^s + 1 per s in 1..6."""
    rng = np.random.default_rng(90210)
    return {s: rng.standard_normal((1000, 2 ** s + 1))
               + 1j * rng.standard_normal((1000, 2 ** s + 1))
            for s in range(1, 7)}


def test_variation_oracle_equivalence():
    started = time.perf_counter()
    outcome = run(RunConfig(experiment="vr-suite", seed=SEED))
    checks = flags(outcome, "check")
    ok = len(checks) == 11 * 5 and all(r.passed for r in checks)
    verdict("variation oracles agree to 1e-12 on 500 draws per (n, r)",
            ok, time.perf_counter() - started, budget=30.0)


def test_dyadic_level_square_constant():
    started = time.perf_counter()
    violations = 0
    for s, block in seq_ensembles().items():
        for r in (2.0, 3.0):
            lhs, rhs = dyadic_level_square_bound(block, r)
            violations += int(np.sum(lhs > rhs + 1e-9))
    verdict("sqrt(2) dyadic-level square bound, 1000 draws per level",
            violations == 0, time.perf_counter() - started, budget=60.0)


def test_explicit_constant_seminorm_facts():
    # Each check takes a whole level's block at once; a block's row equals
    # the one-sequence check to the last bit (tests/test_variation.py).
    started = time.perf_counter()
    violations = 0
    total = 0
    for s, block in seq_ensembles().items():
        n = 2 ** s + 1
        anchors = [0] + [2 ** i for i in range(s + 1)]
        labels = np.arange(1, n + 1)
        for r in (2.0, 3.0):
            checks = [sup_bound_check(block, r),
                      split_bound_check(block, r, n / 2),
                      l2_bound_check(block, r),
                      oscillation_holder_check(block, anchors, s + 1, r)]
            v, lng, sht = long_short_split(block, r, labels=labels)
            checks.append((v, 2.0 * (lng + sht)))
            for lam in (0.25, 1.0):
                checks.append(jump_variation_check(block, lam, r))
            for lhs, rhs in checks:
                total += lhs.size
                # Equality is attained on degenerate subsequences, so
                # pure roundoff needs a few ulps of slack.
                violations += int(np.sum(lhs > rhs
                                         + 1e-12 * np.maximum(1.0, rhs)))
    assert total == 84000
    verdict(f"explicit-constant seminorm bounds, {total} checks",
            violations == 0, time.perf_counter() - started)


def test_gauss_sum_decay():
    started = time.perf_counter()
    outcome = run(RunConfig(experiment="gauss-scan",
                            params={"q_max": 200}))
    classical = flags(outcome, "classical")
    prime_scan = flags(outcome, "scan")
    delta = rows_of(outcome, "delta-fit")[0]
    # q = 1 has no coprime residue class, so odd q runs over 3..199.
    ok = (len(classical) == 99 and all(r.passed for r in classical)
          and prime_scan and all(r.passed for r in prime_scan)
          and delta.observed >= 0.45)
    verdict(f"Gauss sum square-root cancellation, fitted delta "
            f"{delta.observed:.3f} >= 0.45",
            ok, time.perf_counter() - started, budget=120.0)


def test_major_arc_approximations():
    started = time.perf_counter()
    ok = True
    for which in ("prop0-fit", "prop2-fit"):
        outcome = run(RunConfig(experiment=which, seed=SEED))
        fit = rows_of(outcome, "ratio-fit")[0].observed
        rational_fit = rows_of(outcome, "rational-fit")[0].observed
        windows = rows_of(outcome, "window")
        rationals = rows_of(outcome, "rational")
        ok = (ok and math.isfinite(fit) and math.isfinite(rational_fit)
              and len(windows) == 200
              and all(math.isfinite(r.ratio) and r.ratio <= fit
                      for r in windows)
              and all(math.isfinite(r.observed)
                      and r.observed <= rational_fit for r in rationals))
    verdict("major-arc errors bounded by one fitted constant, average "
            "and singular", ok, time.perf_counter() - started, budget=300.0)


def test_multiplier_decay_slopes():
    started = time.perf_counter()
    outcome = run(RunConfig(experiment="weyl-decay"))
    avg = rows_of(outcome, "avg-slope")[0]
    diff = rows_of(outcome, "diff-slope")[0]
    ok = avg.observed <= avg.reference and diff.observed <= diff.reference
    verdict(f"multiplier decay slopes {avg.observed:.3f}, "
            f"{diff.observed:.3f} <= {avg.reference:.2f}",
            ok, time.perf_counter() - started, budget=120.0)


def test_operator_backend_equivalence():
    started = time.perf_counter()
    kernel = odd_power_kernel(0.5)
    configs = (
        (canonical_mapping(1, 1), 32, 6),
        (canonical_mapping(1, 2), 8, 4),
        (canonical_mapping(1, 3), 4, 3),
        (canonical_mapping(2, 1), 6, 3),
        (PolynomialMapping(2, 1, ({(2, 0): 1, (0, 3): 1},)), 8, 5),
    )

    def sup_gap(a: GridFunction, b: GridFunction) -> float:
        u = union_box(a, b)
        gap = np.abs(embed(a, u).values - embed(b, u).values).max()
        return float(gap) / max(float(np.abs(a.values).max()), 1e-30)

    worst_backend = worst_mass = worst_lin = 0.0
    count = 0
    ergodic_ok = True
    for j, (Q, N, h) in enumerate(configs):
        fields = list(ensemble(Q.d, h, 20, seed=7000 + j))
        avg = pushforward_kernel(Q, N)
        if Q.k == 1:
            sing = pushforward_kernel(Q, N, kernel)
        for i, f in enumerate(fields):
            count += 1
            direct = apply_truncation(f, avg, backend="direct")
            fast = apply_truncation(f, avg, backend="fft")
            worst_backend = max(worst_backend, sup_gap(direct, fast))
            worst_mass = max(worst_mass,
                             abs(direct.values.sum() - f.values.sum())
                             / max(1.0, abs(f.values.sum())))
            if Q.k == 1:
                ds = apply_truncation(f, sing, backend="direct")
                fs = apply_truncation(f, sing, backend="fft")
                worst_backend = max(worst_backend, sup_gap(ds, fs))
            if i < 2:
                g = fields[i + 1]
                ub = union_box(f, g)
                fe, ge = embed(f, ub), embed(g, ub)
                combo = GridFunction(ub, 0.7 * fe.values - 1.3j * ge.values)
                lhs = apply_truncation(combo, avg, backend="fft")
                rf = apply_truncation(fe, avg, backend="fft")
                rg = apply_truncation(ge, avg, backend="fft")
                dev = np.abs(lhs.values - (0.7 * rf.values
                                           - 1.3j * rg.values)).max()
                worst_lin = max(worst_lin, float(dev)
                                / max(float(np.abs(lhs.values).max()),
                                      1e-30))
            if i < 3:
                erg = ergodic_truncation(f, avg)
                u = union_box(direct, erg)
                ergodic_ok = ergodic_ok and np.array_equal(
                    embed(direct, u).values, embed(erg, u).values)
                if Q.k == 1:
                    es = ergodic_truncation(f, sing)
                    u = union_box(ds, es)
                    ergodic_ok = ergodic_ok and np.array_equal(
                        embed(ds, u).values, embed(es, u).values)
    ok = (count == 100 and worst_backend <= 1e-10
          and worst_mass <= 1e-12 and worst_lin <= 1e-12 and ergodic_ok)
    verdict(f"operator backends agree on {count} fields "
            f"(worst {worst_backend:.1e}), ergodic realization exact",
            ok, time.perf_counter() - started)


def test_periodic_multiplier_consistency():
    started = time.perf_counter()
    outcome = run(RunConfig(experiment="multiplier-apply", seed=SEED))
    checks = flags(outcome)
    cases = {r.case for r in checks}
    ok = ({"kernel-dft", "apply", "composition"} <= cases
          and all(r.passed for r in checks))
    verdict("periodic multiplier application matches the lattice average",
            ok, time.perf_counter() - started)


def test_multiplier_apply_evaluates_the_symbol_once(monkeypatch):
    # One call for the torus symbol table, which the kernel-dft row and
    # every trial read, whatever the trial count.
    started = time.perf_counter()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return avg_multiplier(*args, **kwargs)

    monkeypatch.setattr(experiments, "avg_multiplier", counting)
    counts = {}
    for trials in (4, 12):
        calls.clear()
        outcome = run(RunConfig(experiment="multiplier-apply", seed=SEED,
                                params={"trials": trials}))
        counts[trials] = len(calls)
        assert all(r.passed for r in flags(outcome))
    verdict(f"multiplier-apply evaluates avg_multiplier {counts} times",
            counts == {4: 1, 12: 1}, time.perf_counter() - started)


def test_denominator_set_sweep():
    started = time.perf_counter()
    segment_cap = 20_000
    ok = True
    for rho in (1.0, 0.5):
        prev = None
        for n in range(1, 31):
            params = ci.IWParams(rho, n)
            card = ci.pn_cardinality(params)
            cap = None if card <= segment_cap else segment_cap
            dset = ci.denominator_set(n, rho, cap=cap)
            members = dset.members
            if not dset.truncated:
                ok = ok and len(members) == card
            ok = ok and ci.containment_report(dset)["lower_holds"]
            # Distinct (Q, w) pairs match the member count exactly, so
            # every product is represented once: uniqueness, exhaustively.
            smooth = ci.smooth_divisors(params, dset.cap)
            rough = [1] + ci.rough_products(params, dset.cap)
            pairs = 0
            for w in rough:
                for Q in smooth:
                    if dset.cap is not None and Q * w > dset.cap:
                        break
                    pairs += 1
            ok = ok and pairs == len(members)
            for q in members:
                Q, w = ci.factor_smooth_rough(q, params)
                ok = ok and Q * w == q
            if prev is not None:
                inside = set(members)
                ok = ok and all(q in inside for q in prev
                                if dset.cap is None or q <= dset.cap)
            prev = members
    verdict("denominator sets: cardinality, containment, nesting, "
            "unique factorization up to N = 30",
            ok, time.perf_counter() - started, budget=30.0)


def test_martingale_suite():
    started = time.perf_counter()
    lep = run(RunConfig(experiment="lepingle", seed=SEED))
    glam = run(RunConfig(experiment="good-lambda", seed=SEED))
    lep_flags = flags(lep)
    lep_cases = {r.case for r in lep_flags}
    fits = rows_of(lep, "constant-fit") + rows_of(lep, "sweep")
    ok = ({"tower", "orthogonality", "haar", "doubling",
           "jump-bound"} <= lep_cases
          and all(r.passed for r in lep_flags)
          and all(math.isfinite(r.observed) for r in fits)
          and all(r.passed for r in flags(glam, "check"))
          and math.isfinite(rows_of(glam, "max-ratio")[0].observed))
    verdict("martingale identities exact, variation and good-lambda "
            "ratios finite", ok, time.perf_counter() - started,
            budget=300.0)


def test_thread_count_determinism(tmp_path, capsys):
    started = time.perf_counter()
    jobs = (
        ["vr-suite", "--seed", "3", "--n-max", "8", "--trials", "20"],
        ["lepingle", "--seed", "3", "--fields", "40"],
        ["good-lambda", "--seed", "3", "--fields", "20"],
        ["multiplier-apply", "--seed", "3", "--trials", "4"],
        # a three-dimensional torus of 20^3 frequencies
        ["multiplier-apply", "--seed", "3", "--deg", "3", "--n", "2",
         "--m", "20", "--trials", "2"],
        # one batched Gauss-sum call per q on the deg >= 3 branch, and
        # one DFT table per q on the quadratic branch
        ["gauss-scan", "--deg", "3", "--q-max", "40"],
        ["gauss-scan", "--q-max", "40"],
        # one quadrature probe per point, one window or rational probe
        # per trial
        ["weyl-decay", "--points", "6"],
        ["prop0-fit", "--seed", "3", "--trials", "8"],
        ["prop2-fit", "--seed", "3", "--trials", "8"],
        # one per-field check per thread, both families
        ["operator-norm", "--seed", "3", "--size", "5"],
        ["operator-norm", "--seed", "3", "--size", "5",
         "--which", "singular"],
        # prime linear sizes (67, 71, 73) padded for the FFT, each N's
        # spectrum built inside the threaded map, both families
        ["operator-norm", "--seed", "3", "--size", "3", "--halfwidth", "32"],
        ["operator-norm", "--seed", "3", "--size", "3", "--halfwidth", "32",
         "--which", "singular"],
    )
    ok = True
    for argv in jobs:
        sub = {}
        # Both thread counts start from an empty chain memo; the last run
        # meets the memo its threads-4 run filled.
        for run_name, threads in (("1", "1"), ("4", "4"), ("4-warm", "4")):
            if run_name != "4-warm":
                variation._remembered_max.cache_clear()
            out = tmp_path / argv[0] / run_name
            code = cli.main(argv + ["--threads", threads,
                                    "--out", str(out)])
            ok = ok and code == 0
            sub[run_name] = out
        for suffix in (".csv", ".json"):
            name = argv[0] + suffix
            ok = ok and ((sub["1"] / name).read_bytes()
                         == (sub["4"] / name).read_bytes()
                         == (sub["4-warm"] / name).read_bytes())
        meta = json.loads((sub["1"] / (argv[0] + ".meta.json")).read_text())
        ok = ok and meta["threads"] == 1
    capsys.readouterr()
    verdict("tables byte-identical across thread counts",
            ok, time.perf_counter() - started)
