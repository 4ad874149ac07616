"""Repeat benchmark runs over several run seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/BENCH_1.json
    python3 perfbench/repeat.py --workloads exact-bnb --seeds 1-5 --trace 1

Run from the root of a checkout. Runs go one after another, each in its own
`python3 perfbench/run.py` process, with the workloads and run length of
BENCHMARK.json unless overridden. For every metric it reports the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for chunk in spec.split(","):
        lo, _, hi = chunk.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace,
               "held_out": args.held_out, "workloads": {}}
    for workload in args.workloads.split(","):
        results, provenance = [], []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (
                       ["--held-out"] if args.held_out else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            provenance.append(json.loads(next(
                line for line in lines
                if line.startswith("provenance "))[len("provenance "):]))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, metric in results[0]["metrics"].items():
            metrics[name] = {"unit": metric["unit"], **summarise(
                [r["metrics"][name]["value"] for r in results])}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "provenance": provenance,
            "metrics": metrics,
        }
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:13s} {name:28s} median {m['median']:<12.6g} "
                  f"{m['unit']:6s} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
