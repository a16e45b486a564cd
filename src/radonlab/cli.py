"""Command-line entry point: run experiments, compare runs.

One subcommand per experiment, plus `report` for run-over-run diffs.
Settings come from the defaults, then the config file, then flags; the
environment is never read.  This module checks only the output directory
and table format; `experiments.run` checks every other value.  Result
tables carry no timing or host information; wall time goes to a
.meta.json sidecar so the CSV/JSON pair is byte-identical for equal
seeds at any thread count.  The exit status is 1 when an exact-inequality
pass flag fails, 2 on a usage error, and 3 when a budget or quadrature
guard stops a run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .errors import BudgetError, QuadratureError
from .experiments import EXPERIMENTS, RunConfig, param_shape, run
from .reporting import (compare_runs, emit_plotdata, json_text,
                        make_document, read_json, render_comparison,
                        write_csv, write_json)

CONFIG_KEYS = {"seed", "out", "threads", "format", "params"}
FORMATS = ("csv", "json", "both")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Parsing leaves a parser as it was (each parse fills a new namespace),
    so every `main` call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="radonlab",
        description="discrete Radon averaging laboratory")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, spec in EXPERIMENTS.items():
        p = sub.add_parser(name, help=spec.summary)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="random seed (required for randomized runs)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default .)")
        p.add_argument("--threads", type=int, metavar="N",
                       help="worker threads (default 1)")
        p.add_argument("--format", choices=FORMATS,
                       help="table format (default both)")
        for key, default in spec.defaults.items():
            p.add_argument("--" + key.replace("_", "-"),
                           dest="param_" + key,
                           type=param_shape(default)[1], default=None,
                           help=f"default {default!r}")
    rep = sub.add_parser("report",
                         help="diff two result documents (JSON)")
    rep.add_argument("previous", help="baseline result document")
    rep.add_argument("current", help="new result document")
    rep.add_argument("--drift", type=float, default=0.05,
                     help="relative drift tolerance on observed values")
    rep.add_argument("--format", choices=("md", "json"), default="md")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path} is not valid JSON: {err}") \
            from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"config {path}: unknown key(s) "
                         f"{', '.join(sorted(unknown))}")
    if not isinstance(data.get("params", {}), dict):
        raise ValueError(f"config {path}: params must be an object")
    return data


def _resolve(args) -> tuple[RunConfig, Path, str]:
    file_cfg = _load_config(args.config)

    def pick(key: str, default):
        flag = getattr(args, key)
        return file_cfg.get(key, default) if flag is None else flag

    out, fmt = pick("out", "."), pick("format", "both")
    if not isinstance(out, str):
        raise ValueError(f"out must be a directory path, got {out!r}")
    if fmt not in FORMATS:
        raise ValueError(f"format must be csv, json, or both, got {fmt!r}")
    flags = {key.removeprefix("param_"): value
             for key, value in vars(args).items()
             if key.startswith("param_") and value is not None}
    params = {**file_cfg.get("params", {}), **flags}
    config = RunConfig(experiment=args.command, seed=pick("seed", None),
                       threads=pick("threads", 1), params=params)
    return config, Path(out), fmt


def _run_command(args) -> int:
    config, out_dir, fmt = _resolve(args)
    started = time.perf_counter()
    outcome = run(config)
    elapsed = time.perf_counter() - started

    name = config.experiment
    document = make_document(name, outcome.rows, meta=outcome.meta)
    written = []
    if fmt in ("csv", "both"):
        written.append(write_csv(outcome.rows, out_dir / f"{name}.csv"))
    if fmt in ("json", "both"):
        written.append(write_json(document, out_dir / f"{name}.json"))
    sidecar = {"experiment": name, "wall_time_s": elapsed,
               "threads": config.threads, "rows": len(outcome.rows)}
    written.append(write_json(sidecar, out_dir / f"{name}.meta.json"))
    if outcome.figures:
        written.extend(emit_plotdata(list(outcome.rows), outcome.figures,
                                     out_dir, name))

    flagged = [r for r in outcome.rows if r.passed is not None]
    failed = [r for r in flagged if not r.passed]
    for row in failed:
        print(f"FAIL {name}/{row.case} {row.params}: "
              f"observed {row.observed!r}, reference {row.reference!r}",
              file=sys.stderr)
    print(f"{name}: {len(outcome.rows)} rows, "
          f"{len(flagged) - len(failed)}/{len(flagged)} exact checks "
          f"passed, wrote {', '.join(p.name for p in written)}")
    return 1 if failed else 0


def _report_command(args) -> int:
    previous = read_json(args.previous)
    current = read_json(args.current)
    diff = compare_runs(previous, current, drift_tolerance=args.drift)
    if args.format == "json":
        print(json_text(diff))
    else:
        print(render_comparison(diff), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _report_command(args)
        return _run_command(args)
    except BudgetError as err:
        detail = f" (estimated {err.estimate})" if err.estimate else ""
        print(f"error: computation over budget{detail}: {err}",
              file=sys.stderr)
        return 3
    except QuadratureError as err:
        print(f"error: quadrature did not converge: {err} (estimate "
              f"{err.estimate}, error bound {err.error_bound})",
              file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
