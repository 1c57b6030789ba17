"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --workloads deep cli --seeds 1-10 --seconds 20 [--trace 0]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  Runs are
made one at a time; ``--json PATH`` also saves every run's result and report
together with that summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write every result line here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in seed_range(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            results.setdefault(workload, []).append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
    summary = {}
    for workload, runs in results.items():
        print(f"== {workload} ({len(runs)} runs, {seconds} s each)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            summary.setdefault(workload, {})[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "runs": len(values)}
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
            print(f"  {name:44s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"seconds": seconds, "summary": summary, "runs": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
