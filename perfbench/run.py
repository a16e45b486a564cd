#!/usr/bin/env python3
"""Benchmark of radonlab: four closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, every metric

Each workload is a pass: a fixed list of steps run one after another in
one fresh child process (see workloads.py).  The loop is closed: the next
pass starts when the previous one has ended.  Every pass runs under a
3 GiB address-space limit set on that child only, so a quadrature or DP
blow-up becomes a failed operation instead of exhausting the machine.

With --trace 0 a run alternates --threads 1 and --threads 2 passes until
--seconds are spent (at least one of each) and reports medians:

  wall_s       wall time of a --threads 1 pass (the primary metric)
  wall_t2_s    the same pass at --threads 2.  long-chains has no thread
               setting in the program, so its library steps are mapped
               over a 2-thread pool by the benchmark instead.
  setup_s      fresh interpreter to the first call into the workload:
               importing radonlab and building the CLI parser.  Sampled
               from every pass child plus set-up-only probes.
  peak_rss_mb  peak RSS of the --threads 1 child.

With --trace 1 a run alternates untraced and traced --threads 1 passes
and reports the per-layer metrics of tracer.py (times are medians over
traced passes; counters must repeat exactly) plus trace.overhead_s, the
traced minus the untraced median wall time.

Correctness gates, on every pass: every invocation exits 0 and raises
nothing, every exact-check flag and every long-chains inequality holds,
and every pass's result tables are byte-identical to those of the first
--threads 1 pass (so --threads 2 and reruns change wall time only).
Operations are invocations plus exact-check rows plus inequality checks;
`failed` counts false flags, nonzero exits, and raised errors.

The first --threads 1 pass's result documents stay in
perfbench/out/<workload>/seed-<n>/docs/, next to result.json (every
sample, with core count, thread count and Python/numpy versions), so the
rows of two commits can be diffed with `radonlab report`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import COUNTERS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ADDRESS_SPACE = 3 << 30
PASS_TIMEOUT_S = 150.0
SETUP_PROBES = 2          # the first only warms caches and the CPU
END_TO_END = (("wall_s", "s"), ("wall_t2_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_child(workload: str, seed: int, threads: int, trace: bool,
              out: Path, setup_only: bool = False) -> dict:
    """One child pass; returns its summary plus exit status and peak RSS."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--threads", str(threads),
           "--trace", str(int(trace)), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(out / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT,
                                preexec_fn=_limit_address_space)
        # wait4 gives this child's own rusage, hence its own peak RSS.
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - spawned > PASS_TIMEOUT_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    summary = {"exit": proc.returncode, "threads": threads, "traced": trace,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(out / "pass.json", encoding="utf-8") as fh:
            summary.update(json.load(fh))
        summary["setup_s"] = summary["setup_done"] - spawned
    except (OSError, ValueError, KeyError):
        summary["exit"] = summary["exit"] or -1
    if summary["exit"] != 0 and not setup_only:
        planned = len(WORKLOADS[workload])
        summary.update(attempted=planned, failed=planned)
    return summary


def result_tables(pass_dir: Path) -> dict:
    """Relative path -> bytes of every step output but the timing sidecar."""
    return {str(p.relative_to(pass_dir)): p.read_bytes()
            for p in sorted(pass_dir.glob("*/*"))
            if p.is_file() and not p.name.endswith(".meta.json")}


def run_passes(workload: str, seed: int, trace: bool, run_dir: Path,
               deadline: float, problems: list) -> tuple[list, list]:
    """Set-up probes, then alternating passes until the deadline.

    Returns the set-up samples of the probes and every pass record; gate
    failures are appended to `problems`.
    """
    scratch = run_dir / "passes"
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_child(workload, seed, 1, False, scratch / "setup",
                              setup_only=True)
            if probe["exit"] != 0:
                problems.append(f"set-up probe exited {probe['exit']}")
            elif i:
                setups.append(probe["setup_s"])
    schedule = ((1, False), (1, True)) if trace else ((1, False), (2, False))

    # One pass of each kind at least; a further pass starts only if one
    # like it fits before the deadline.
    passes, reference, elapsed = [], None, {}
    while not problems:
        threads, traced = kind = schedule[len(passes) % 2]
        if len(passes) >= 2 and \
                time.monotonic() + 1.1 * elapsed[kind] > deadline:
            break
        out = run_dir / "docs" if reference is None \
            else scratch / f"pass-{len(passes)}"
        started = time.monotonic()
        record = run_child(workload, seed, threads, traced, out)
        elapsed[kind] = time.monotonic() - started
        passes.append(record)
        if record["exit"] != 0:
            problems.append(f"pass {len(passes)} (threads {threads}) "
                            f"exited {record['exit']}, see {out}")
            continue
        tables = result_tables(out)
        if reference is None:
            reference = tables
        elif tables != reference:
            changed = sorted(k for k in set(tables) | set(reference)
                             if tables.get(k) != reference.get(k))
            problems.append(f"pass {len(passes)} (threads {threads}, "
                            f"traced {traced}) changed result tables: "
                            f"{', '.join(changed)}")
        if traced and not (run_dir / "spans.jsonl").exists():
            shutil.move(out / "spans.jsonl", run_dir / "spans.jsonl")
    if not problems:
        shutil.rmtree(scratch, ignore_errors=True)
    return setups, passes


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    run_dir = OUT / workload / f"seed-{seed}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    problems = []
    setups, passes = run_passes(workload, seed, trace, run_dir,
                                time.monotonic() + seconds, problems)
    ok = [p for p in passes if p["exit"] == 0]
    if trace:
        values, samples = layer_metrics(ok, problems)
        units = dict(PER_LAYER)
    else:
        values, samples = end_to_end_metrics(ok, setups)
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not problems and failed == 0 and all(
        v is not None for v in values.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = {"cores": os.cpu_count(),
           "usable_cores": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": next((p["numpy"] for p in ok), None),
           "machine": platform.machine(),
           "address_space_limit_bytes": ADDRESS_SPACE}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "problems": problems,
              "fail_ratio": failed / max(attempted, 1), "samples": samples,
              "bound_names": next((p["bound_names"] for p in ok
                                   if p["traced"]), None),
              "passes": [{k: v for k, v in p.items()
                          if k not in ("layers", "bound_names")}
                         for p in passes],
              "result": result}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"{workload}: FAIL {problem}", file=sys.stderr)
    _print_lines(workload, record)
    return result


def end_to_end_metrics(passes: list, setups: list) -> tuple[dict, dict]:
    """Medians over passes: values and sample counts by metric."""
    one = [p for p in passes if p["threads"] == 1]
    two = [p for p in passes if p["threads"] == 2]
    setups = setups + [p["setup_s"] for p in passes]
    values = {"wall_s": _median([p["wall_s"] for p in one]),
              "wall_t2_s": _median([p["wall_s"] for p in two]),
              "setup_s": _median(setups),
              "peak_rss_mb": _median([p["peak_rss_mb"] for p in one])}
    samples = {"wall_s": len(one), "wall_t2_s": len(two),
               "setup_s": len(setups), "peak_rss_mb": len(one)}
    return values, samples


def layer_metrics(passes: list, problems: list) -> tuple[dict, dict]:
    """Per-layer medians over traced passes; counters must not vary."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    samples = {name: len(traced) for name, _ in PER_LAYER}
    samples["trace.overhead_s"] = len(passes)
    if not traced or not plain:
        return {name: None for name, _ in PER_LAYER}, samples
    first = traced[0]["layers"]
    for other in traced[1:]:
        drift = [k for k in COUNTERS if other["layers"][k] != first[k]]
        if drift:
            problems.append(f"counters differ between traced passes: "
                            f"{', '.join(drift)}")
    values = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = (_median([p["wall_s"] for p in traced])
                            - _median([p["wall_s"] for p in plain]))
        elif name in COUNTERS:
            values[name] = first[name]
        else:
            values[name] = _median([p["layers"][name] for p in traced])
    return values, samples


def _median(values):
    return statistics.median(values) if values else None


def _print_lines(workload: str, record: dict) -> None:
    env = record["env"]
    for name, metric in record["result"]["metrics"].items():
        print(f"{workload:17s} {name:32s} {metric['value']!s:>22} "
              f"{metric['unit']:6s} samples={record['samples'][name]} "
              f"threads={2 if name == 'wall_t2_s' else 1} "
              f"cores={env['cores']} python={env['python']} "
              f"numpy={env['numpy']}")
    print(f"{workload:17s} {'fail_ratio':32s} {record['fail_ratio']:>22} "
          f"{'ratio':6s} attempted={record['result']['attempted']} "
          f"failed={record['result']['failed']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="radonlab benchmark (see the module docstring)")
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        parser.error("seed must fit in an unsigned 64-bit integer")
    if not (ROOT / "src" / "radonlab" / "__init__.py").is_file():
        print(f"error: no radonlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
