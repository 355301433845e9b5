"""conekit benchmark: cold-process runs of one workload, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of the workload is a fresh `child.py` process, so the program's
`lru_cache`s start empty as in a CLI call. Runs go one at a time (a closed
loop with one client): the work is batch verification, and a machine with
two cores has no spare one for a second client. Runs repeat until about S seconds have passed,
and at least MIN_RUNS times.

With --trace 0 run r uses draw r of the seed's inputs, and the end-to-end
metrics are medians over runs (verdict times are pooled over runs). With
--trace 1 every run uses draw 0 and runs alternate untraced and traced; the
per-layer metrics are medians over the traced runs, and
`bench.trace_overhead_s` is the traced minus the untraced median `run_s`.

The last stdout line is the JSON result. Details (seed, generated inputs,
every run's record, machine) go to `.perfbench/` in the checkout, with the
traced runs' spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench"
TIME_LIMIT_S = 170  # the whole invocation, children included
SETUP_PROBES = 10
MIN_RUNS = 2


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run could start")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned_at), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run {args} did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"run {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version()}


def percentile(values: list[float], q: float) -> float:
    """Smoothed q-quantile: the mean of the order statistics within one
    binomial standard deviation of rank q(n-1), and at least one rank.

    Verdict times fall in clusters (one per kind of input), and a plain
    percentile that sits in a gap between two clusters jumps between them
    from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    centre = q * (n - 1)
    half = max(1.0, math.sqrt(n * q * (1 - q)))
    window = [v for r, v in enumerate(ordered) if abs(r - centre) <= half]
    return statistics.fmean(window)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spawn(["probe"], deadline)  # byte-compiles once; fails fast without src/
    setups = [spawn(["probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    step = 2 if trace else 1  # runs until the next stopping point
    started = time.monotonic()
    while True:
        index = len(runs)
        traced = trace and index % 2 == 1
        draw = 0 if trace else index
        spans = OUT / f"{workload}-seed{seed}-run{index}-spans.json" if traced else "-"
        record = spawn([workload, str(seed), str(draw), str(index), str(spans)], deadline)
        record.update(run_id=index, draw=draw, traced=traced)
        runs.append(record)
        count = len(runs)
        if trace and count % 2:
            continue  # finish the untraced/traced pair
        elapsed = time.monotonic() - started
        next_end = elapsed * (count + step) / count
        if count >= MIN_RUNS and next_end > seconds:
            break
        if started + next_end > deadline - 5:
            break
    setups += [r["setup_s"] for r in runs]
    return {"setups": setups, "runs": runs}


def end_to_end(result: dict) -> dict:
    # Verdict percentiles are taken per run, then the median over runs. A
    # pooled sample can put p90 on the edge between clusters of runs' equal
    # verdicts (paper-check's slowest criterion is 1 in 10), where it jumps.
    runs = result["runs"]
    verdict_s = [[s for _, s, _ in r["verdicts"] if s is not None] for r in runs]
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "verdict_ms_p50": 1000 * statistics.median(percentile(v, 0.5) for v in verdict_s),
        "verdict_ms_p90": 1000 * statistics.median(percentile(v, 0.9) for v in verdict_s),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(result["setups"]),
    }


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Medians over traced runs; counts must repeat exactly, as inputs do."""
    traced = [r for r in result["runs"] if r["traced"]]
    plain = [r for r in result["runs"] if not r["traced"]]
    problems = []
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name] for r in traced]
        if isinstance(first, int):
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between identical runs: {values}")
            out[name] = first
        else:
            out[name] = statistics.median(values)
    out["bench.trace_overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain)
    )
    return out, problems


def main(argv=None) -> int:
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = result["runs"]
    errors = [(r["run_id"], label, err) for r in runs for label, _, err in r["verdicts"] if err]
    if args.trace:
        metrics, problems = per_layer(result)
    else:
        metrics, problems = end_to_end(result), []
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for run_id, label, err in errors:
        print(f"perfbench: run {run_id} {label}: {err}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    summary = {
        "correct": not errors and not problems,
        "attempted": sum(len(r["verdicts"]) for r in runs),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "setup_s": result["setups"],
        "runs": runs, "problems": problems, **summary,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
