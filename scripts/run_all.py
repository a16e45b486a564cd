#!/usr/bin/env python3
"""Run every experiment into one output directory.

Seedless experiments ignore --seed; the rest share it.  The exit status
is the worst per-experiment status, so a failed exact check (1), a
usage error (2), or a budget refusal or unconverged quadrature (3)
survives to the calling shell.
"""

import argparse
import sys

from radonlab.cli import main as lab_main
from radonlab.experiments import EXPERIMENTS


def main() -> int:
    parser = argparse.ArgumentParser(
        description="run the full experiment battery")
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default="results")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default="both")
    args = parser.parse_args()

    worst = 0
    for name, spec in EXPERIMENTS.items():
        argv = [name, "--out", args.out, "--threads", str(args.threads),
                "--format", args.format]
        if spec.needs_seed:
            argv += ["--seed", str(args.seed)]
        code = lab_main(argv)
        if code:
            print(f"{name}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
