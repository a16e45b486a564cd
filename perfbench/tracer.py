"""Outside-in span tracing of radonlab's layers.

The tracer replaces layer functions with timing wrappers from outside the
package: every module attribute bound to a traced function is patched,
so names imported with ``from .variation import vr_exact_batch`` in
``experiments`` or ``martingale`` are traced as well as the defining
module's own global.  Spans live in memory and are written when the pass
ends.  A span's self time is its duration minus the durations of its
direct child spans.

Work counters come from call arguments and results only, never from
clocks or the program's internals, so they repeat exactly for a fixed
seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "radonlab"
LAYERS = ("polymap", "expsum", "variation", "operators", "circle",
          "martingale", "reporting", "experiments", "cli")

# Private functions that are the boundary of a kernel worth timing on its
# own: the quadrature rules and the two operator backends.
PRIVATE_BOUNDARIES = {
    "expsum": ("_refining_midpoint", "_disk_integral"),
    "operators": ("_accumulate_translates", "_convolve_fft"),
}

# Invocation labels of every experiment step in the benchmark's workloads;
# each gets an `experiments.<label>_s` metric.
INVOCATIONS = ("lepingle", "good-lambda", "vr-suite", "multiplier-apply",
               "operator-norm", "operator-norm-singular",
               "operator-norm-h32", "gauss-scan", "gauss-scan-deg3",
               "weyl-decay", "prop0-fit", "prop2-fit", "iw-build",
               "iw-build-rho05")

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("variation.self_s", "s"),
    ("variation.calls", "count"),
    ("variation.dp_cells", "count"),
    ("variation.dp_bytes", "bytes"),
    ("variation.oracle_s", "s"),
    ("martingale.self_s", "s"),
    ("martingale.level_builds", "count"),
    ("expsum.quad_1d_s", "s"),
    ("expsum.quad_disk_s", "s"),
    ("expsum.quad_failures", "count"),
    ("expsum.gauss_s", "s"),
    ("expsum.gauss_terms", "count"),
    ("expsum.symbol_calls", "count"),
    ("polymap.self_s", "s"),
    ("polymap.lattice_points", "count"),
    ("circle.periodic_apply_s", "s"),
    ("circle.dset_s", "s"),
    ("circle.dset_members", "count"),
    ("operators.direct_s", "s"),
    ("operators.fft_s", "s"),
    ("operators.kernel_builds", "count"),
    *((f"experiments.{label}_s", "s") for label in INVOCATIONS),
    ("reporting.write_s", "s"),
    ("reporting.bytes_written", "bytes"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
)

COUNTERS = tuple(name for name, unit in PER_LAYER if unit != "s")

ORACLES = {"variation.vr_bruteforce", "variation.vr_bruteforce_batch",
           "variation.jump_count_bruteforce"}
GAUSS = {"expsum.gauss_sum", "expsum.gauss_scan_quadratic"}
QUAD_RULES = {"expsum._refining_midpoint", "expsum._disk_integral",
              "expsum.annulus_integral",
              "expsum.continuous_singular_multiplier"}
WRITERS = {"reporting.write_csv", "reporting.write_json",
           "reporting.emit_plotdata"}
QUAD_FAILURES = ("QuadratureError", "MemoryError")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _shape2(values) -> tuple[int, int]:
    """(m, n) of a batch argument, as np.atleast_2d would see it."""
    shape = np.shape(values)
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


def _dp(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a"))
    return {"variation.dp_cells": n * n}


def _dp_batch(args, kwargs, result):
    m, n = _shape2(_arg(args, kwargs, 0, "values"))
    return {"variation.dp_cells": m * n * n,
            "variation.dp_bytes": ("max", 8 * m * n * n)}


def _oracle(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a"))
    return {"variation.dp_cells": 2 ** n,
            "variation.dp_bytes": ("max", 8 * n * n)}


def _oracle_batch(args, kwargs, result):
    m, n = _shape2(_arg(args, kwargs, 0, "values"))
    return {"variation.dp_cells": m * 2 ** n,
            "variation.dp_bytes": ("max", 8 * m * n * n)}


def _jump_batch(args, kwargs, result):
    m, n = _shape2(_arg(args, kwargs, 0, "values"))
    return {"variation.dp_cells": m * n * n}


def _jump_oracle(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "a"))
    return {"variation.dp_cells": 2 ** n}


def _gauss_terms(args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    return {"expsum.gauss_terms": q ** _arg(args, kwargs, 2, "Q").k}


def _scan_terms(args, kwargs, result):
    return {"expsum.gauss_terms": _arg(args, kwargs, 0, "q")}


def _lattice(args, kwargs, result):
    return {"polymap.lattice_points": len(result)}


def _members(args, kwargs, result):
    return {"circle.dset_members": len(result.members)}


def _written(args, kwargs, result):
    # The timing sidecar holds a wall time whose digit count varies, so
    # only the result tables and plot data count.
    if str(_arg(args, kwargs, 0, "path")).endswith(".meta.json"):
        return {}
    return {"reporting.bytes_written": len(_arg(args, kwargs, 1, "data"))}


COUNTER_HOOKS = {
    "variation.vr_exact": _dp,
    "variation.jump_count": _dp,
    "variation.vr_exact_batch": _dp_batch,
    "variation.jump_count_batch": _jump_batch,
    "variation.vr_bruteforce": _oracle,
    "variation.vr_bruteforce_batch": _oracle_batch,
    "variation.jump_count_bruteforce": _jump_oracle,
    "martingale.conditional_expectation":
        lambda a, k, r: {"martingale.level_builds": 1},
    "expsum.gauss_sum": _gauss_terms,
    "expsum.gauss_scan_quadratic": _scan_terms,
    "expsum.avg_multiplier": lambda a, k, r: {"expsum.symbol_calls": 1},
    "expsum.sing_multiplier": lambda a, k, r: {"expsum.symbol_calls": 1},
    "polymap.lattice_points": _lattice,
    "circle.denominator_set": _members,
    "operators.pushforward_kernel":
        lambda a, k, r: {"operators.kernel_builds": 1},
    "reporting.atomic_write_bytes": _written,
}


class Span:
    __slots__ = ("name", "parent", "step", "start", "end", "child_s",
                 "error", "own_error", "disk")

    def __init__(self, name, parent, step, start):
        self.name, self.parent, self.step = name, parent, step
        self.start, self.end, self.child_s = start, start, 0.0
        self.error, self.own_error, self.disk = None, False, False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def record(self, index: int) -> dict:
        return {"id": index, "parent": self.parent, "name": self.name,
                "step": self.step, "start": self.start, "end": self.end,
                "self_s": self.self_s, "error": self.error}


class Tracer:
    """Patches every bound name of the layer functions with span wrappers.

    `step` labels the benchmark step in progress; spans carry it so time
    can be attributed to each experiment invocation.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.step = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def targets(self) -> dict:
        """Original function object -> span name, for every layer."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            extra = PRIVATE_BOUNDARIES.get(layer, ())
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    found[obj] = f"{layer}.{name}"
        return found

    def install(self) -> None:
        """Patch every package-module attribute bound to a traced function.

        Spans nest through one stack per thread; traced passes run on one
        thread, so the counters need no lock.
        """
        targets = self.targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def bound_names(self) -> list[str]:
        """`module.attr` of every patched binding."""
        return sorted(f"{mod.__name__}.{attr}"
                      for mod, attr, _ in self._patched)

    def _wrap(self, name: str, fn):
        spans, counts, local = self.spans, self.counts, self._local
        hook = COUNTER_HOOKS.get(name)
        disk_rule = name == "expsum.annulus_integral"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span = Span(name, parent, tracer.step, clock())
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                # An exception crossing several spans is owned by the
                # innermost one that raised it.
                if not getattr(exc, "_traced", False):
                    span.own_error = True
                    try:
                        exc._traced = True
                    except AttributeError:
                        pass
                raise
            else:
                if hook is not None:
                    for key, value in hook(args, kwargs, result).items():
                        if isinstance(value, tuple):
                            counts[key] = max(counts[key], value[1])
                        else:
                            counts[key] += value
                return result
            finally:
                span.end = clock()
                if disk_rule:
                    span.disk = _arg(args, kwargs, 3, "Q").k == 2
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration

        return traced

    # -- reports --------------------------------------------------------------

    def _outermost(self, names) -> float:
        """Inclusive time of spans in `names` with no ancestor in `names`."""
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            up = span.parent
            while up >= 0 and self.spans[up].name not in names:
                up = self.spans[up].parent
            if up < 0:
                total += span.duration
        return total

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        out = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
        out.pop("trace.overhead_s")
        for name in COUNTERS:
            out[name] = int(self.counts.get(name, 0))
        calls = 0
        cli_main = experiments_run = 0.0
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            if layer == "variation":
                calls += 1
                out["variation.self_s"] += span.self_s
            elif layer in ("martingale", "polymap"):
                out[f"{layer}.self_s"] += span.self_s
            if span.name in ORACLES:
                out["variation.oracle_s"] += span.duration
            elif span.name in GAUSS:
                out["expsum.gauss_s"] += span.duration
            elif span.name == "expsum._refining_midpoint":
                out["expsum.quad_1d_s"] += span.duration
            elif span.name == "expsum._disk_integral":
                out["expsum.quad_disk_s"] += span.duration
            elif span.disk:
                out["expsum.quad_disk_s"] += span.self_s
            elif span.name == "circle.apply_periodic_multiplier":
                out["circle.periodic_apply_s"] += span.self_s
            elif span.name == "circle.denominator_set":
                out["circle.dset_s"] += span.duration
            elif span.name == "operators._accumulate_translates":
                out["operators.direct_s"] += span.duration
            elif span.name == "operators._convolve_fft":
                out["operators.fft_s"] += span.duration
            elif span.name == "cli.main":
                cli_main += span.duration
            elif span.name == "experiments.run":
                experiments_run += span.duration
                key = f"experiments.{span.step}_s"
                if key in out:
                    out[key] += span.duration
            if (span.name in QUAD_RULES and span.own_error
                    and span.error in QUAD_FAILURES):
                out["expsum.quad_failures"] += 1
        out["variation.calls"] = calls
        out["reporting.write_s"] = self._outermost(WRITERS)
        out["cli.overhead_s"] = cli_main - experiments_run
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.record(index)) + "\n")
