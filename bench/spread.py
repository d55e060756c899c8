#!/usr/bin/env python3
"""Repeat bench/run.py over several seeds and report each metric's spread.

    python3 bench/spread.py --workload laws-on-tables --seeds 1-10 --seconds 30 \
        [--trace 0] [--out results.json]

For every metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential, one
at a time, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        result = json.loads(proc.stdout.splitlines()[-1])
        meta = next((json.loads(line[5:]) for line in proc.stdout.splitlines()
                     if line.startswith("meta ")), {})
        runs.append({"seed": seed, "rc": proc.returncode, "elapsed_s": elapsed,
                     "meta": meta, "result": result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                          if bounds.get(k) is not None)
        print(f"seed {seed} rc={proc.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {elapsed:.1f}s {values}",
              flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = summarize(values)
        bound = bounds.get(name)
        if bound is not None:
            s = summary[name]
            print(f"{name:<14} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} bound={bound} "
                  f"({'ok' if s['spread'] < bound / 3 else 'WIDE'} against bound/3)")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                              "runs": runs, "summary": summary}, indent=1)
                                  + "\n", encoding="utf-8")
    return 0 if all(r["rc"] == 0 and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
