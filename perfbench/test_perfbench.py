"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

Two traced passes per workload must give identical work counters and
byte-identical result tables; the tracer must patch names bound by
importers as well as the defining module; BENCHMARK.json must list
exactly the workloads and metrics the benchmark reports.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from tracer import COUNTERS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def scratch():
    path = run.OUT / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_across_traced_passes(workload, scratch):
    first, second = (run.run_child(workload, 7, 1, True, scratch / name)
                     for name in ("a", "b"))
    for record in (first, second):
        assert record["exit"] == 0
        assert record["failed"] == 0
    assert {k: first["layers"][k] for k in COUNTERS} == \
        {k: second["layers"][k] for k in COUNTERS}
    expected = {name for name, _ in PER_LAYER} - {"trace.overhead_s"}
    assert set(first["layers"]) == expected
    assert run.result_tables(scratch / "a") == run.result_tables(scratch / "b")


def test_tracer_patches_every_bound_name():
    from radonlab import experiments, martingale, operators, variation
    original = variation.vr_exact_batch
    tracer = Tracer()
    tracer.install()
    try:
        for module in (variation, experiments, martingale, operators):
            assert module.vr_exact_batch is not original
            assert module.vr_exact_batch.__wrapped__ is original
        values = [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
        experiments.vr_exact_batch(values, 2.0)
        variation.vr_value([0.0, 1.0], 2.0)
    finally:
        tracer.uninstall()
    assert experiments.vr_exact_batch is original
    names = [span.name for span in tracer.spans]
    assert names[0] == "variation.vr_exact_batch"
    assert "variation.vr_exact" in names
    metrics = tracer.metrics()
    # 2 x 3^2 for the batch, 2^2 for the scalar DP under vr_value.
    assert metrics["variation.dp_cells"] == 22
    assert metrics["variation.dp_bytes"] == 8 * 2 * 3 * 3
    assert metrics["variation.calls"] == len(names)
    # vr_value's self time excludes its vr_exact child.
    outer = next(s for s in tracer.spans if s.name == "variation.vr_value")
    assert 0 <= outer.self_s < outer.duration


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
