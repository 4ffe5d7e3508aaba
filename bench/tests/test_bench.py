"""Tests of the benchmark itself: smoke mode, tracing, host-speed scaling and the missing-source exit."""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def test_smoke_runs_every_workload_and_reports_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            assert f"smoke {w['name']} trace={trace}: ok" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.job():
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
            tracer.add("work", 2)
    [m] = tracer.per_job()
    assert m["inner_s"] >= 0.01
    assert m["outer_s"] == pytest.approx(m["outer_total_s"] - m["inner_total_s"])
    assert m["outer_calls"] == m["inner_calls"] == 1
    assert m["work"] == 2


def test_instrument_wraps_the_name_each_caller_looks_up_and_restores_it():
    import opticomp.decompose as decompose
    import opticomp.linalg as linalg

    orig = linalg.truncated_svd
    tracer = Tracer()
    with instrument(tracer):
        assert decompose.truncated_svd is not orig
        with tracer.job():
            decompose.truncated_svd(np.eye(3), 2)
        with tracer.job(), tracer.span("pipeline.compress_model"):
            decompose.truncated_svd(np.eye(3), 2)
    assert decompose.truncated_svd is orig and linalg.truncated_svd is orig
    outside, inside = tracer.per_job()
    assert outside["linalg.truncated_svd_calls"] == inside["linalg.truncated_svd_calls"] == 1
    assert "util.as_matrix_calls" not in outside  # counted only inside compress
    assert inside["util.as_matrix_calls"] >= 1


def test_clock_leaves_reference_time_out_and_scales_by_the_references_around_a_sample(monkeypatch):
    monkeypatch.setattr(hostspeed, "reference", lambda: time.sleep(0.005))
    clock = hostspeed.Clock()
    with clock.sample("outer"):
        assert clock.block("inner", lambda: time.sleep(0.01) or 7, 2) == [7, 7]
    [inner], [outer] = clock.raw["inner"], clock.raw["outer"]
    assert 0.01 <= inner < 0.02  # per job; the three references in the block are left out
    assert 0.02 <= outer < 0.04  # five references inside, all left out
    refs = [dt for _, dt in clock.refs]
    assert len(refs) == 5 and min(refs) >= 0.005
    scaled = clock.scaled()
    assert scaled["inner"][0] == pytest.approx(inner * hostspeed.REF_S / (sum(refs) / len(refs)), rel=0.2)
    assert scaled["outer"][0] == pytest.approx(outer * hostspeed.REF_S / (sum(refs) / len(refs)), rel=0.2)
