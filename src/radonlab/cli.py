"""Command-line entry point: run experiments, compare runs.

One subcommand per experiment, plus `report` for run-over-run diffs.
Option precedence is defaults, then the config file, then environment
(LAB_OUT, LAB_THREADS), then explicit flags.  Result tables carry no
timing or host information; wall time goes to a .meta.json sidecar so
the CSV/JSON pair is byte-identical for equal seeds at any thread
count.  The exit status is 1 when an exact-inequality pass flag fails,
2 on a usage error, and 3 when a budget or quadrature guard stops a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .errors import BudgetError, QuadratureError
from .experiments import EXPERIMENTS, RunConfig, run
from .reporting import (compare_runs, emit_plotdata, make_document,
                        read_json, render_comparison, write_csv, write_json)

CONFIG_KEYS = {"seed", "out", "threads", "format", "budgets", "params"}


def _flag_parser(default):
    """An argparse type matching the default value's shape."""
    if isinstance(default, bool):
        raise TypeError("boolean experiment parameters are not supported")
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return float
    if isinstance(default, str):
        return str
    if isinstance(default, tuple) and default \
            and all(isinstance(x, (int, float)) for x in default):
        cell = int if all(isinstance(x, int) for x in default) else float

        def parse_list(text: str) -> tuple:
            try:
                return tuple(cell(tok) for tok in text.split(",") if tok)
            except ValueError as err:
                raise argparse.ArgumentTypeError(str(err)) from None
        parse_list.__name__ = f"{cell.__name__}-list"
        return parse_list
    return None


def build_parser() -> argparse.ArgumentParser:
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
                       help="output directory (default ., env LAB_OUT)")
        p.add_argument("--threads", type=int, metavar="N",
                       help="worker threads (default 1, env LAB_THREADS)")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       help="table format (default both)")
        for key, default in spec.defaults.items():
            kind = _flag_parser(default) if default is not None else int
            if kind is None:
                continue
            p.add_argument("--" + key.replace("_", "-"),
                           dest="param_" + key, type=kind, default=None,
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
    for key in ("budgets", "params"):
        if key in data and not isinstance(data[key], dict):
            raise ValueError(f"config {path}: {key} must be an object")
    return data


def _positive_int(label: str, value) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be an integer, got {value!r}") \
            from None
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")
    return value


def _resolve(args) -> tuple[RunConfig, Path, str]:
    file_cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else file_cfg.get("seed")
    if seed is not None:
        seed = int(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
    out = args.out or os.environ.get("LAB_OUT") or file_cfg.get("out") \
        or "."
    threads = args.threads if args.threads is not None \
        else os.environ.get("LAB_THREADS", file_cfg.get("threads", 1))
    threads = _positive_int("threads", threads)
    fmt = args.format or file_cfg.get("format") or "both"
    if fmt not in ("csv", "json", "both"):
        raise ValueError(f"format must be csv, json, or both, got {fmt!r}")
    params = dict(file_cfg.get("params", {}))
    for key in EXPERIMENTS[args.command].defaults:
        flag_value = getattr(args, "param_" + key, None)
        if flag_value is not None:
            params[key] = flag_value
    budgets = dict(file_cfg.get("budgets", {}))
    config = RunConfig(experiment=args.command, seed=seed,
                       threads=threads, params=params, budgets=budgets)
    return config, Path(out), fmt


def _run_command(args) -> int:
    config, out_dir, fmt = _resolve(args)
    started = time.perf_counter()
    outcome = run(config)
    elapsed = time.perf_counter() - started

    name = config.experiment
    document = make_document(name, outcome.rows,
                             meta={"seed": config.seed,
                                   "params": config.params,
                                   **outcome.meta})
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
        print(json.dumps(diff, sort_keys=True, indent=2))
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
