"""One pass of one workload, in a fresh interpreter.

The parent starts this script with an address-space limit and reads back
`pass.json` from the output directory.  The set-up stamp is taken right
before the first call into the workload, after importing radonlab and
building the CLI parser, which every radonlab invocation pays.  A step
that raises (a MemoryError or QuadratureError from a blow-up, say) is
recorded as a failed operation and the pass goes on.

    python3 perfbench/child.py --workload NAME --seed N --threads T \
        --trace 0|1 --out DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count_cli(step_dir: Path, experiment: str, record: dict) -> None:
    """Exact-check rows of the step's result document as operations."""
    doc = step_dir / f"{experiment}.json"
    flags = []
    if doc.is_file():
        with open(doc, encoding="utf-8") as fh:
            flags = [row["passed"] for row in json.load(fh)["rows"]
                     if row["passed"] is not None]
    record["checks"] = len(flags)
    record["failed_checks"] = sum(flag is False for flag in flags)


def run_pass(args, out: Path) -> dict:
    import workloads as W
    steps = W.WORKLOADS[args.workload]

    import numpy
    import radonlab
    from radonlab import reporting
    if not Path(radonlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"radonlab imported from {radonlab.__file__}, "
                         f"not from {ROOT / 'src'}")
    if any(kind == "cli" for kind, _, _ in steps):
        from radonlab import cli
        from radonlab.experiments import EXPERIMENTS
        cli.build_parser()
    inputs = W.chain_inputs(args.seed) if args.workload == "long-chains" \
        else None
    summary = {"numpy": numpy.__version__,
               "python": sys.version.split()[0],
               "threads": args.threads, "traced": bool(args.trace)}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    summary["setup_done"] = time.monotonic()
    if args.setup_only:
        return summary

    records = []
    start = time.perf_counter()
    for kind, label, spec in steps:
        step_dir = out / label
        record = {"label": label, "exit": 0, "error": None,
                  "checks": 0, "failed_checks": 0}
        if tracer is not None:
            tracer.step = label
        step_start = time.perf_counter()
        try:
            if kind == "cli":
                argv = [*spec, "--out", str(step_dir),
                        "--threads", str(args.threads)]
                if EXPERIMENTS[spec[0]].needs_seed:
                    argv += ["--seed", str(args.seed)]
                record["exit"] = cli.main(argv)
            else:
                rows, checks, failed = getattr(W, spec)(inputs, args.threads,
                                                        label)
                reporting.write_csv(rows, step_dir / f"{label}.csv")
                reporting.write_json(
                    reporting.make_document(label, rows, {"seed": args.seed}),
                    step_dir / f"{label}.json")
                record["checks"], record["failed_checks"] = checks, failed
        except Exception as err:  # a blow-up is a failed operation
            record["error"] = type(err).__name__
            traceback.print_exc()
        record["wall_s"] = time.perf_counter() - step_start
        records.append(record)
    summary["wall_s"] = time.perf_counter() - start

    for (kind, _, spec), record in zip(steps, records):
        if kind == "cli":
            _count_cli(out / record["label"], spec[0], record)
    summary["steps"] = records
    summary["attempted"] = sum(1 + r["checks"] for r in records)
    summary["failed"] = sum((r["exit"] != 0 or r["error"] is not None)
                            + r["failed_checks"] for r in records)
    if tracer is not None:
        summary["bound_names"] = tracer.bound_names()
        tracer.uninstall()
        summary["layers"] = tracer.metrics()
        tracer.write_spans(out / "spans.jsonl")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    summary = run_pass(args, args.out)
    with open(args.out / "pass.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
