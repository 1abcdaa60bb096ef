"""Steadiness check: run the benchmark over several seeds and report, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.

Workloads are interleaved (every workload at one seed, then the next
seed) so that slow drift in host speed spreads over all of them instead
of landing on one.

    python3 perfbench/prove.py --seeds 1,2,3,4,5 --workloads cv-1k \
        --out .bench_work/prove.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--out", required=True, help="JSON file for all runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [int(s) for s in args.seeds.split(",")]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    runs: dict[str, list[dict]] = {w: [] for w in names}
    ok = True
    for seed in seeds:
        for name in names:
            began = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            values = {m: v["value"] for m, v in result["metrics"].items()}
            elapsed = time.monotonic() - began
            runs[name].append({"seed": seed, "elapsed_s": elapsed, **result,
                               "values": values})
            print(f"{name} seed {seed} ({elapsed:.0f} s): " + " ".join(
                f"{m}={v:.4g}" for m, v in values.items()), flush=True)
    summary = {}
    for name in names:
        summary[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["values"][metric["name"]] for r in runs[name]]
            if len(values) < 2:
                continue
            median, rel = spread(values)
            summary[name][metric["name"]] = {
                "median": median, "spread": rel, "bound": metric["bound"]}
            flag = "" if rel < metric["bound"] / 3 else "  <-- over bound/3"
            print(f"{name:12s} {metric['name']:12s} median={median:.6g} "
                  f"spread={rel:.4f} bound={metric['bound']}{flag}")
    Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary},
                                         indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
