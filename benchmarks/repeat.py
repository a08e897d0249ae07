"""Repeat benchmark runs over several seeds and summarize them.

    python3 benchmarks/repeat.py --workload identity --seeds 1-10 --seconds 25
    python3 benchmarks/repeat.py --workload classify --seeds 1-10 --seconds 25 \\
        --checkout /path/to/parent --checkout /path/to/change

Each run is ``benchmarks/run.py`` inside a checkout (default: this one),
in a separate process.  With one checkout it prints, per metric, the
median, the quartiles and the spread (interquartile range over median).
With two checkouts it alternates which one runs first for each seed, so
that the two sides see the same machine conditions, and also prints the
ratio of the medians and how many seeds each side won.  ``--out`` keeps
every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(checkout: Path, workload, seed, seconds, trace):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {checkout} seed {seed}: {result['failed']} of {result['attempted']} jobs failed",
              file=sys.stderr)
    return result


def summarize(results):
    """Per metric: median, quartiles and spread over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="source checkout with a benchmarks/ directory (at most two)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = args.checkout or [HERE.parent]
    if len(checkouts) > 2:
        parser.error("at most two checkouts")

    results = {str(c): [] for c in checkouts}
    for index, seed in enumerate(seeds_of(args.seeds)):
        order = checkouts if index % 2 == 0 else checkouts[::-1]
        for checkout in order:
            result = run_once(checkout, args.workload, seed, args.seconds, args.trace)
            results[str(checkout)].append(result)
            print(f"seed {seed} {checkout}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summaries = {c: summarize(r) for c, r in results.items()}
    for checkout, summary in summaries.items():
        print(f"\n{checkout} ({len(results[checkout])} runs)")
        print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, s in summary.items():
            print(f"{name:<36} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:>8.3f}")
    if len(checkouts) == 2:
        first, second = (str(c) for c in checkouts)
        print(f"\nratio of medians {second} / {first}, and seeds where {second} is higher")
        for name in summaries[first]:
            a, b = summaries[first][name], summaries[second][name]
            higher = sum(y > x for x, y in zip(a["values"], b["values"]))
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(f"{name:<36} {ratio:>8.3f} {higher:>3}/{len(a['values'])}")
    if args.out:
        args.out.write_text(json.dumps({"runs": results, "summary": summaries}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
