"""Smoke test of the benchmark itself: tiny workloads, oracles and tracer.

    python3 -m pytest benchmarks/test_smoke.py -q

It lives outside the package's test paths, so the package's own suite does
not collect it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_epoch(runner):
    t = tracer.Tracer()
    t.install()
    try:
        runner.epoch(t)
    finally:
        t.restore()
    return t


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_oracles_untraced_and_traced(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path, tiny=True)
    runner = run.Runner(workload, 1)
    runner.epoch()
    first = traced_epoch(runner)
    second = traced_epoch(runner)

    assert tracer.find_unrestored() == []
    assert runner.attempted == 3 * len(workload.jobs)
    assert runner.failures() == 0
    assert first.calls["job"] == len(workload.jobs)
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.counts) == dict(second.counts)
    assert {s[2] for s in first.spans} >= {"job"}


def test_tracer_sees_callers_that_imported_the_function():
    import kantor

    t = tracer.Tracer()
    t.install()
    try:
        for wrapped in (kantor.product.multiply, kantor.identities.multiply,
                        kantor.classify.kantor_product, kantor.Poly.__rmul__):
            assert getattr(wrapped, "kantor_tracer", False)
        kantor.kantor_square(workloads.dense_table(2, random.Random(0)))
    finally:
        t.restore()
    assert t.calls["product.kantor_product"] == 1
    assert t.calls["algebra.multiply"] > 0
    assert t.counts["poly.mul.term_pairs"] >= t.calls["poly.mul"]
    assert tracer.find_unrestored() == []


def test_oracles_reject_wrong_outputs(tmp_path):
    identity = workloads.build_identity(1, tmp_path, tiny=True)
    for job in identity.jobs:
        holds = job.summarize(job.run())
        assert job.check(holds) is None
        assert job.check(not holds) is not None

    un = workloads.build_un_table(1, tmp_path, tiny=True)
    for job in un.jobs:
        assert job.check("not the digest") is not None

    classify = workloads.build_classify(1, tmp_path, tiny=True)
    job = classify.jobs[0]
    code, text = job.summarize(job.run())
    assert job.check((code, text)) is None
    assert job.check((3, text)) is not None
    assert job.check((0, "not json")) is not None
    everything_free = json.loads(text)[0]
    unknowns = sorted({n for f in json.loads(text) for n in list(f["assignment"]) + f["free"]})
    everything_free.update(assignment={}, free=unknowns, equations=[], inequations=[])
    assert job.check((0, json.dumps([everything_free]))) is not None


def test_result_line_names_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "un_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
