"""fleetcast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fleet-greedy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; fleetcast is imported from ./src, and
all files go to ./.perfbench/. The run seed only shuffles the order in which
a round's operation groups run: the instances themselves are pinned (see
workloads.py), so every seed does the same work and the same outputs are
checked. `--held-out` swaps in each workload's held-out instances.

A run sets up several times (import plus input generation; `setup_s` is the
median), then repeats rounds of the workload's operations until `--seconds`
have passed. With `--trace 0` it prints the end-to-end metrics, with
operation times corrected for host contention (probe.py); with `--trace 1`
the first round runs untraced and the rest traced, and it prints the
per-layer metrics and writes the spans to ./.perfbench/. Everything runs in
this one process: no thread or process pool.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from probe import SpeedProbe
from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "energy_j": "J", "solved_ops": "count", "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def import_fleetcast(root: Path):
    """Import fleetcast (and its CLI) from the checkout, afresh each call."""
    for name in [n for n in sys.modules
                 if n == "fleetcast" or n.startswith("fleetcast.")]:
        del sys.modules[name]
    fc = importlib.import_module("fleetcast")
    importlib.import_module("fleetcast.cli")
    if Path(fc.__file__).resolve().parent != (root / "src" / "fleetcast").resolve():
        raise SystemExit(f"fleetcast imported from {fc.__file__}, not ./src")
    return fc


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs rounds of operations, gating every output."""

    def __init__(self, groups, seed: int):
        self.groups = groups
        self.rng = random.Random(seed)
        self.reference = {}     # op label -> Outcome of its first check
        self.windows = []       # (round, op label, start, end) of every op
        self.rounds = []        # (energy, solved ops) per round
        self.attempted = 0
        self.failed = 0

    def round(self, tracer: Tracer | None) -> None:
        """One pass over every operation, in an order drawn from the seed."""
        energy = 0.0
        solved = 0
        order = list(self.groups)
        self.rng.shuffle(order)
        for group in order:
            for op in group:
                self.attempted += 1
                gc.collect()
                try:
                    started = perf_counter()
                    try:
                        if tracer is None:
                            result = op.run()
                        else:
                            with tracer.operation(op.label):
                                result = op.run()
                    finally:
                        self.windows.append(
                            (len(self.rounds), op.label, started, perf_counter()))
                    reference = self.reference.get(op.label)
                    outcome = op.check(result, reference is None)
                    if reference is not None and outcome != reference:
                        raise CheckFailed("outputs differ from the first round's")
                    self.reference.setdefault(op.label, outcome)
                except Exception as exc:  # noqa: BLE001 - count it, keep going
                    self.failed += 1
                    detail = (str(exc) if isinstance(exc, CheckFailed)
                              else traceback.format_exc())
                    print(f"FAILED {op.label}: {detail}", file=sys.stderr)
                    continue
                energy += outcome.energy
                solved += outcome.solved
        self.rounds.append((energy, solved))

    def round_walls(self) -> list[float]:
        """Summed uncorrected operation time of each round."""
        walls = [0.0] * len(self.rounds)
        for rnd, _, start, end in self.windows:
            walls[rnd] += end - start
        return walls

    def outputs_sha256(self) -> str:
        joined = "".join(f"{label}={self.reference[label].digest}\n"
                         for label in sorted(self.reference))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def quantile(values, q):
    """Inclusive-method percentile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "bytes" if name == "lp.bytes" else "count"


def measure(args, root: Path, workload):
    """Set up, then run rounds; returns (runner, setup windows, tracer, probe).

    Untraced runs sample host speed throughout (probe.py); traced runs do
    not, so that probe time lands in no layer's self time.
    """
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    tracer = None
    try:
        with contextlib.nullcontext() if args.trace else SpeedProbe() as probe:
            setups, input_digests = [], set()
            for _ in range(SETUP_REPEATS):
                started = perf_counter()
                fc = import_fleetcast(root)
                input_digests.add(workload.setup(fc, work))
                setups.append((started, perf_counter()))
            if len(input_digests) != 1:
                raise SystemExit("set-up generated different inputs on repeat")

            runner = Runner(workload.groups(fc, work), args.seed)
            deadline = perf_counter() + args.seconds
            if args.trace:
                runner.round(None)
                tracer = Tracer()
                tracer.install()
            try:
                while True:
                    runner.round(tracer)
                    if perf_counter() >= deadline:
                        break
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return runner, setups, tracer, probe
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(runner: Runner, setups, probe: SpeedProbe) -> dict:
    """End-to-end metrics from probe-corrected times.

    An operation's latency is the median of its corrected times over the
    run's rounds; the percentiles are taken over operations.
    """
    correct = probe.corrector()
    per_op = {}
    for _, label, start, end in runner.windows:
        per_op.setdefault(label, []).append(correct(start, end))
    latencies = sorted(statistics.median(times) for times in per_op.values())
    energies = [energy for energy, _ in runner.rounds]
    solved = [n for _, n in runner.rounds]
    return {
        "setup_s": statistics.median(correct(s, e) for s, e in setups),
        "wall_s": sum(latencies),
        "op_p50_ms": quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": quantile(latencies, 0.9) * 1e3,
        "energy_j": statistics.median(energies),
        "solved_ops": statistics.median(solved),
        "ok_share": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, tracer: Tracer) -> dict:
    untraced, *traced = runner.round_walls()
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["trace.wall_ms"] = statistics.fmean(traced) * 1e3
    metrics["trace.remainder_ms"] = metrics["trace.wall_ms"] - sum(
        metrics[f"{layer}.self_ms"] for layer in LAYERS)
    metrics["trace.untraced_wall_ms"] = untraced * 1e3
    metrics["trace.overhead_ms"] = (statistics.median(traced) - untraced) * 1e3
    return metrics


def write_spans(path: Path, spans) -> None:
    origin = spans[0][1] if spans else 0.0
    path.write_text(json.dumps([
        {"name": name, "start": start - origin, "end": end - origin,
         "parent": parent, "counts": counts}
        for name, start, end, parent, counts in spans]))


def run(args, root: Path) -> dict:
    workload = WORKLOADS[args.workload](args.held_out)
    runner, setups, tracer, probe = measure(args, root, workload)
    if args.trace:
        values = per_layer(runner, tracer)
        write_spans(root / ".perfbench"
                    / f"spans-{args.workload}-seed{args.seed}.json", tracer.spans)
        metrics = {name: {"value": values[name], "unit": unit_of(name)}
                   for name in sorted(values)}
    else:
        values = end_to_end(runner, setups, probe)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "held_out": args.held_out, "instances": workload.instances(),
        "rounds": len(runner.rounds),
        "traced_rounds": len(runner.rounds) - 1 if args.trace else 0,
        "percentile_samples": len({label for _, label, _, _ in runner.windows}),
        "uncorrected_wall_s": statistics.median(runner.round_walls()),
        "probe_median_cost_s": probe.median_cost() if probe else None,
        "setup_repeats": SETUP_REPEATS, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "commit": git_commit(root),
        "outputs_sha256": runner.outputs_sha256(),
    }
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed: shuffles the order of operation groups")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="keep starting rounds until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the workload's held-out instances")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fleetcast" / "__init__.py").is_file():
        print("error: run from the root of a fleetcast checkout "
              "(./src/fleetcast not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
