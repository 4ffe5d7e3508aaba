"""Repeat the benchmark over seeds and summarise it, one line per workload.

    python3 bench/sweep.py --seeds 1-10

Each workload of BENCHMARK.json runs at its ``run_seconds`` once per seed,
each run ``bench/run.py`` in its own process, in turn. The summary gives,
per end-to-end metric, the median over the runs and the spread (distance
between the first and third quartile as a share of the median), then the
top self-time layers and the tracing overhead of one traced run. Every run's record stays in ``bench/out/``; the summary
also goes to ``bench/out/sweep.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr, flush=True)
        row = {"runs": len(runs), "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            row["metrics"][m["name"]] = {"median": statistics.median(values), "spread": spread(values),
                                         "bound": m["bound"], "unit": m["unit"], "values": values}
        line = f"{workload} ({len(runs)} runs, {row['failed']} failed): " + ", ".join(
            f"{k} {v['median']:.4g} {v['unit']} ±{100 * v['spread']:.1f}%" for k, v in row["metrics"].items())
        traced = run_once(workload, seeds[0], seconds, 1)["metrics"]
        top = sorted(((k, v["value"]) for k, v in traced.items() if v["unit"] == "s" and not k.endswith("_total_s")), key=lambda kv: -kv[1])[:4]
        row["top_self_time"] = top
        row["trace_overhead_pct"] = traced["trace.overhead_pct"]["value"]
        line += " | top self time: " + ", ".join(f"{k} {v:.3g} s" for k, v in top)
        line += f" | tracing overhead {row['trace_overhead_pct']:.1f}%"
        row["machine"] = json.loads((HERE / "out" / f"{workload}-seed{seeds[0]}-trace0.json").read_text())["machine"]
        summary[workload] = row
        print(line, flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "sweep.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
