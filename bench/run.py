"""opticomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout; opticomp is imported from ``src/``
(nothing is installed). Set-up generates the seeded inputs; the loop then
repeats the workload's iteration (pipeline, a block of verify jobs, a block
of dse jobs, one more timed set-up) until ``--seconds`` have passed, at
least ``MIN_ITERS`` times, and checks every output. Host times are medians
of samples scaled to a fixed host speed (see hostspeed.py). The last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}``. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json
with tracing off; ``--trace 1`` reports its per-layer metrics from a run
that alternates traced and untraced loop iterations, so that
``trace.overhead_pct`` compares the two. Each run also writes its samples,
the machine and, when traced, its spans under ``bench/out/``.

``--smoke`` runs every workload at a tiny size in both modes and fails unless
each run is correct and reports every metric BENCHMARK.json names.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

from tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# One process drives the load; single-threaded BLAS keeps it within nproc
# and steadies timings on a small shared machine.
BLAS_THREADS = 1
MIN_ITERS = 2  # two same-seed compresses are needed for the determinism check


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


@contextlib.contextmanager
def _job(tracer):
    if tracer is None:
        yield
        return
    with instrument(tracer), tracer.job():
        yield


def _digests(art) -> dict:
    files = [art.inputs / f for f in ("model.lten", "calib.lten", "data.lten")]
    if art.run is not None:
        files += [art.run / "plan.json", art.run / "compressed.lten"]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def layer_medians(tracer) -> dict[str, float]:
    """Per-layer metrics: for each layer, the median of its per-job values
    over the traced loop jobs (counts are the same in every job)."""
    values = defaultdict(list)
    for job in tracer.per_job():
        if job.get("decompose.local_adapt_steps_requested"):
            job["decompose.local_adapt_accept_ratio"] = (
                job["decompose.local_adapt_steps_accepted"] / job["decompose.local_adapt_steps_requested"]
            )
        for name, value in job.items():
            values[name].append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def summarize(samples: list[float]) -> dict:
    ordered = sorted(samples)
    return {"n": len(ordered), "min": ordered[0], "median": statistics.median(ordered),
            "p90": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]}


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns every metric measured plus the raw record."""
    from hostspeed import Clock
    from workloads import Checks, dse_block, functional_probes, gen_inputs, pipeline_job, quality, verify_block

    checks = Checks()
    clock = Clock()
    loop_s = {False: [], True: []}
    tracer = Tracer() if trace else None
    metrics: dict = {}
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        # Set-up is repeated after every loop iteration, so that its samples
        # span the run like the others rather than one moment of it.
        def setup(rep: int):
            with clock.sample("setup_s"):
                art = gen_inputs(wl, work / f"inputs{rep}", seed, checks)
            return art, _digests(art)

        art, inputs_digests = setup(0)
        deadline = time.perf_counter() + seconds
        first = probes = None
        i = 0
        while i < MIN_ITERS or time.perf_counter() < deadline:
            traced = trace and i % 2 == 1
            with _job(tracer if traced else None):
                t0 = time.perf_counter()
                art = pipeline_job(wl, art, work / "run", seed, checks, clock)
                # Every iteration writes the same bytes (checked below), so
                # the first iteration's probes serve them all.
                probes = probes or functional_probes(wl, art, seed)
                verify_block(wl, art, seed, checks, clock)
                dse_block(wl, art, probes, checks, clock)
                loop_s[traced].append(time.perf_counter() - t0)
            digests = _digests(art)
            first = first or digests
            checks.expect(digests == first, f"same-seed compress {i} wrote different bytes")
            i += 1
            again, again_digests = setup(i)
            checks.expect(again_digests == inputs_digests, f"same-seed set-up {i} wrote different bytes")
            shutil.rmtree(again.inputs)
        metrics.update(quality(art, checks))
    except Exception as exc:  # a failed operation is reported, not raised
        checks.expect(False, f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each host time is the median over the run of its samples scaled to the
    # reference host speed (see hostspeed.py); the raw samples stay in the
    # record.
    scaled = clock.scaled()
    for name, samples in scaled.items():
        metrics[name] = statistics.median(samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        metrics.update(layer_medians(tracer))
        if loop_s[True] and loop_s[False]:
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(loop_s[True]) / statistics.median(loop_s[False]) - 1.0
            )
    samples = {
        **{f"{name}_scaled": v for name, v in scaled.items()},
        **clock.raw,
        "reference_s": [dt for _, dt in clock.refs],
        "loop_untraced_s": loop_s[False],
        "loop_traced_s": loop_s[True],
    }
    return {
        "metrics": metrics,
        "checks": checks,
        "samples": samples,
        "stats": {name: summarize(v) for name, v in samples.items() if v},
        "tracer": tracer,
    }


def report(wl, seed: int, trace: bool, measured: dict, spec: dict) -> tuple[dict, dict]:
    """Select the metrics BENCHMARK.json names; write the run's record."""
    from hostspeed import REF_S

    checks = measured["checks"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured["metrics"].get(m["name"])
        if value is None:
            checks.expect(False, f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    stem = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    self_times = sorted(
        ((k, v) for k, v in measured["metrics"].items() if k.endswith("_s") and not k.endswith("_total_s")
         and "." in k),
        key=lambda kv: -kv[1],
    )
    record = {
        "workload": asdict(wl),
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == wl.name), None),
        "seed": seed,
        "trace": trace,
        "machine": machine(),
        "reference_kernel_s": REF_S,
        "result": result,
        "failures": checks.failures,
        "stats": measured["stats"],
        "samples": measured["samples"],
        "all_metrics": measured["metrics"],
        "top_self_time": self_times[:5],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if measured["tracer"] is not None:
        measured["tracer"].write_jsonl(stem.with_suffix(".spans.jsonl"))
    return result, record


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, traced and not: each run must be
    correct and report every metric BENCHMARK.json names."""
    from workloads import WORKLOADS, smoke as tiny

    bad = 0
    for name, wl in WORKLOADS.items():
        wl = tiny(wl)
        for trace in (False, True):
            result, record = report(wl, 0, trace, measure(wl, 0, 0.0, trace), spec)
            missing = [k for k, v in result["metrics"].items() if v["value"] is None]
            ok = result["correct"] and not missing
            bad += not ok
            print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAIL'} "
                  f"({result['attempted']} checks, {result['failed']} failed{', missing ' + ', '.join(missing) if missing else ''})")
            for failure in record["failures"]:
                print(f"  {failure}")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a tiny size and check the metric names")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "opticomp" / "__init__.py").is_file():
        print(f"error: no opticomp sources at {src}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(src))
    if args.smoke:
        return smoke(spec)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    result, record = report(wl, args.seed, trace, measure(wl, args.seed, args.seconds, trace), spec)
    mach = record["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items() if k != "platform"))
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items() if v["value"] is not None)
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {shown}")
    if trace:
        print("top self time: " + ", ".join(f"{k} {v:.4g} s" for k, v in record["top_self_time"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
