"""Benchmark of the kantor package: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload identity --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Workloads (see ``workloads.py``):

    identity   Jacobi on the symbolic Kantor squares of dense n=4 tables,
               plus a few catalog tag checks, through check_identity
    classify   ``kantor classify ... --json`` through ``kantor.cli.main``
    un_table   un_table(3) with u = e1 and with a seeded rational u

One client runs jobs in a closed loop, whole epochs at a time, after one
untimed job of each kind, until at least ``--seconds`` of job time has
passed.  Job times are calibrated for the machine's speed (see
``calibrate.py``); wall-clock figures are printed too.  Every output is
checked by an oracle after the loop.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    --trace 0  end-to-end metrics: jobs_per_s (one epoch at each job's median
               time), job_ms.p50, job_ms.p90, setup_s, peak_rss_mb (set-up
               is measured in fresh processes)
    --trace 1  per-layer metrics per epoch from traced epochs, alternating
               with untraced epochs that give the tracing overhead; the
               spans go to benchmarks/_work/trace_<workload>_<seed>.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"

# Fresh processes per run for setup_s and peak_rss_mb; the median is reported.
SETUP_PROBES = 9
TRACED_PROBES = 3

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, per traced epoch (catalog ones per fresh process).
PER_LAYER_UNITS = {
    "poly.mul.calls": "count",
    "poly.mul.term_pairs": "count",
    "poly.mul.self_s": "s",
    "poly.add.calls": "count",
    "poly.add.self_s": "s",
    "poly.substitute.calls": "count",
    "poly.substitute.self_s": "s",
    "poly.str.calls": "count",
    "algebra.multiply.calls": "count",
    "algebra.multiply.self_s": "s",
    "product.kantor_product.calls": "count",
    "product.kantor_product.self_s": "s",
    "product.kantor_product.total_s": "s",
    "identities.check_identity.calls": "count",
    "identities.check_identity.self_s": "s",
    "identities.check_identity.total_s": "s",
    "identities.obstructions": "count",
    "linsolve.solve_linear.calls": "count",
    "linsolve.solve_linear.self_s": "s",
    "linsolve.rows": "count",
    "linsolve.kernel_dim": "count",
    "classify.stage1.total_s": "s",
    "classify.case_split_solve.calls": "count",
    "classify.case_split_solve.self_s": "s",
    "classify.case_split_solve.total_s": "s",
    "classify.families": "count",
    "classify.families_unverified": "count",
    "classify.depth_capped": "count",
    "un.un_bracket.calls": "count",
    "catalog.load_catalog.total_s": "s",
    "catalog.verify_entry.self_s": "s",
    "cli.main.self_s": "s",
    "files.parse_algebra.self_s": "s",
    "trace.jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.overhead": "ratio",
}
CATALOG_LAYER = ("catalog.load_catalog.total_s", "catalog.verify_entry.self_s")

RAISED = object()


def probe(trace: bool) -> dict:
    """Run setup_probe.py in a fresh interpreter and return its figures."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + (["--trace"] if trace else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    """Runs epochs of a workload and keeps latencies and output summaries."""

    def __init__(self, workload, seed: int):
        self.jobs = workload.jobs
        self.rng = random.Random(f"order:{workload.name}:{seed}")
        self.latencies = defaultdict(list)  # kind -> calibrated seconds, untraced jobs only
        self.job_times = defaultdict(list)  # job index -> calibrated seconds, untraced
        self.wall_latencies = []
        self.summaries = defaultdict(Counter)  # job index -> summary -> count
        self.attempted = 0

    def warm_up(self):
        """Run the first job of each kind once, untimed: the first run of a
        kind in a process is 10-20% slower (code paths, allocator arenas)."""
        first = {}
        for index, job in enumerate(self.jobs):
            first.setdefault(job.kind, index)
        self.epoch(order=list(first.values()))

    def epoch(self, tracer=None, order=None):
        """Run every job once in a seeded order; return (wall, calibrated) job time.

        The calibration kernel runs between jobs and, sampled, during them;
        each job's time, and the layer times the tracer recorded during it,
        are scaled by the sampler's factor (see ``calibrate.py``).  With
        ``order``, only those jobs run and no time is kept.
        """
        timed = order is None
        if timed:
            order = list(range(len(self.jobs)))
            self.rng.shuffle(order)
        wall = busy = 0.0
        kernel = calibrate.kernel_seconds()
        sampler = calibrate.Sampler()
        try:
            for index in order:
                job = self.jobs[index]
                snapshot = tracer.snapshot() if tracer else None
                sampler.start()
                start = time.perf_counter()
                try:
                    result = tracer.run_job(job.name, job.run) if tracer else job.run()
                except Exception:
                    result = RAISED
                    failure = traceback.format_exc()
                end = time.perf_counter()
                sampler.stop()
                elapsed = end - start - sampler.spent
                if result is RAISED:
                    print(f"job {job.name} raised:\n{failure}", file=sys.stderr)
                    summary = RAISED
                else:
                    summary = job.summarize(result)
                after = calibrate.kernel_seconds()
                factor = sampler.factor(kernel, after)
                kernel = after
                seconds = elapsed * factor
                if tracer:
                    tracer.scale_since(snapshot, factor)
                wall += elapsed
                busy += seconds
                self.attempted += 1
                self.summaries[index][summary] += 1
                if timed and tracer is None:
                    self.latencies[job.kind].append(seconds)
                    self.job_times[index].append(seconds)
                    self.wall_latencies.append(elapsed)
        finally:
            sampler.close()
        return wall, busy

    def failures(self) -> int:
        """Check every distinct summary with its job's oracle; count failed jobs."""
        failed = 0
        for index, counter in sorted(self.summaries.items()):
            job = self.jobs[index]
            for summary, count in counter.items():
                if summary is RAISED:
                    failed += count
                    continue
                try:
                    error = job.check(summary)
                except Exception:
                    error = traceback.format_exc()
                if error:
                    print(f"FAILED {job.name}: {error}", file=sys.stderr)
                    failed += count
        return failed


def _ms_percentiles(seconds):
    ms = sorted(s * 1000 for s in seconds)
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def measure(runner, seconds):
    wall = busy = 0.0
    epochs = 0
    while wall < seconds or epochs == 0:
        epoch_wall, epoch_busy = runner.epoch()
        wall += epoch_wall
        busy += epoch_busy
        epochs += 1
    probes = [probe(trace=False) for _ in range(SETUP_PROBES)]
    every = [s for kind in runner.latencies.values() for s in kind]
    p50, p90 = _ms_percentiles(every)
    # Throughput of one epoch at each job's median time: a job that outlasts
    # a change of machine speed is mis-calibrated, and a mean would keep it.
    epoch_s = sum(statistics.median(times) for times in runner.job_times.values())
    metrics = {
        "jobs_per_s": len(runner.job_times) / epoch_s,
        "job_ms.p50": p50,
        "job_ms.p90": p90,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }
    print(f"{epochs} epochs, {len(every)} jobs, {wall:.2f} s of job time (closed loop, one client)")
    print(f"{'kind':<12} {'jobs':>5} {'p50_ms':>9} {'p90_ms':>9}   (calibrated)")
    for kind, values in runner.latencies.items():
        k50, k90 = _ms_percentiles(values)
        print(f"{kind:<12} {len(values):>5} {k50:>9.2f} {k90:>9.2f}")
    w50, w90 = _ms_percentiles(runner.wall_latencies)
    print(f"mean throughput {len(every) / busy:.4g} jobs/s calibrated, {len(every) / wall:.4g} wall clock")
    print(f"wall clock: job_ms.p50 {w50:.4g}, job_ms.p90 {w90:.4g}; "
          f"machine speed {busy / wall:.3f} of the reference")
    setups = " ".join(f"{p['setup_s']:.3f}" for p in probes)
    print(f"setup_s per fresh process (wall clock): {setups}")
    return metrics


def measure_traced(runner, seconds, trace_path):
    from tracer import Tracer, find_unrestored

    tracer = Tracer()
    wall = plain = traced = 0.0
    epochs = 0
    while wall < seconds or epochs == 0:
        epoch_wall, epoch_busy = runner.epoch()
        wall += epoch_wall
        plain += epoch_busy
        tracer.install()
        try:
            epoch_wall, epoch_busy = runner.epoch(tracer)
        finally:
            tracer.restore()
        wall += epoch_wall
        traced += epoch_busy
        epochs += 1
    left = find_unrestored()
    if left:
        raise RuntimeError(f"tracer left wrappers in place: {left}")
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    for name, value in tracer.metrics(epochs).items():
        if name in metrics:
            metrics[name] = int(value) if value == int(value) and not name.endswith("_s") else value
    probes = [probe(trace=True) for _ in range(TRACED_PROBES)]
    for name in CATALOG_LAYER:
        metrics[name] = statistics.median(p.get(name, 0.0) for p in probes)
    jobs = len(runner.jobs) * epochs
    metrics["trace.jobs_per_s"] = jobs / traced
    metrics["trace.untraced_jobs_per_s"] = jobs / plain
    metrics["trace.overhead"] = traced / plain
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans = [dict(zip(("id", "parent", "name", "job", "start", "end"), s)) for s in tracer.spans]
    trace_path.write_text(json.dumps({"metrics": metrics, "spans": spans}))
    print(f"{epochs} untraced and {epochs} traced epochs; tracing overhead x{traced / plain:.2f}")
    print(f"{len(spans)} spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["identity", "classify", "un_table"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kantor" / "__init__.py").is_file():
        print(f"error: no kantor package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kantor
    import workloads

    if Path(kantor.__file__).resolve().parent != SRC / "kantor":
        print(f"error: imported kantor from {kantor.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the jobs, the calibration kernel and the set-up probes:
        # the speed of each CPU changes on its own, so a job that migrated
        # would be calibrated against another CPU's speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kantor.load_catalog(selftest=True)
    inputs = WORKDIR / f"inputs_{args.workload}_{args.seed}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
        runner = Runner(workload, args.seed)
        kinds = Counter(job.kind for job in workload.jobs)
        print(f"workload {args.workload}, seed {args.seed}: epoch of {len(workload.jobs)} jobs "
              f"{dict(kinds)}, sizes {workload.sizes}")
        runner.warm_up()
        if args.trace:
            trace_path = WORKDIR / f"trace_{args.workload}_{args.seed}.json"
            metrics = measure_traced(runner, args.seconds, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics = measure(runner, args.seconds)
            units = END_TO_END_UNITS
        failed = runner.failures()
        checked = [(job.check.families_checked, job.check.families_seen)
                   for job in workload.jobs if hasattr(job.check, "families_seen")]
        if checked:
            print(f"oracle evaluated {sum(c for c, _ in checked)} of {sum(s for _, s in checked)} "
                  f"families at rational points; the rest did not evaluate at the points tried")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(f"failed_frac {failed / runner.attempted:.4f} ({failed} of {runner.attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
