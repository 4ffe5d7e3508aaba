import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opticomp import pipeline
from opticomp.cli import main
from opticomp.container import read_container, write_container

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    assert main([
        "gen-toy", "--out", str(out), "--seed", "11",
        "--hidden", "24", "--heads", "2", "--blocks", "2", "--in-dim", "12",
        "--calib-tokens", "32", "--samples", "12", "--tokens", "6",
    ]) == 0
    return out


def compress_args(toy_dir, out_dir, *extra):
    return [
        "compress",
        "--set", f"paths.model={toy_dir}/model.lten",
        "--set", f"paths.calibration={toy_dir}/calib.lten",
        "--set", "targets.alpha=0.3",
        "--set", "decomposition.iters=20",
        "--set", "decomposition.adapt_steps=20",
        "--out", str(out_dir),
        "--seed", "11",
        *extra,
    ]


@pytest.fixture(scope="module")
def compressed_dir(toy_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(compress_args(toy_dir, out)) == 0
    return out


class TestGenToy:
    def test_outputs_exist(self, toy_dir):
        for name in ("model.lten", "calib.lten", "data.lten"):
            assert (toy_dir / name).exists()

    def test_gen_is_deterministic(self, toy_dir, tmp_path):
        assert main([
            "gen-toy", "--out", str(tmp_path), "--seed", "11",
            "--hidden", "24", "--heads", "2", "--blocks", "2", "--in-dim", "12",
            "--calib-tokens", "32", "--samples", "12", "--tokens", "6",
        ]) == 0
        assert (tmp_path / "model.lten").read_bytes() == (toy_dir / "model.lten").read_bytes()


class TestCompress:
    def test_artifacts_and_psi(self, compressed_dir):
        plan = json.loads((compressed_dir / "plan.json").read_text())
        assert plan["psi_achieved"] >= 0.3
        assert (compressed_dir / "compressed.lten").exists()
        assert (compressed_dir / "run_meta.json").exists()

    def test_same_seed_byte_identical(self, toy_dir, compressed_dir, tmp_path):
        assert main(compress_args(toy_dir, tmp_path)) == 0
        assert (tmp_path / "plan.json").read_bytes() == (compressed_dir / "plan.json").read_bytes()
        assert (tmp_path / "compressed.lten").read_bytes() == (compressed_dir / "compressed.lten").read_bytes()

    def test_infeasible_alpha_exits_nonzero(self, toy_dir, tmp_path, capsys):
        code = main(compress_args(toy_dir, tmp_path, "--set", "targets.alpha=0.999"))
        assert code == 1
        assert "violates" in capsys.readouterr().err

    def test_bad_config_field_exits_two(self, toy_dir, tmp_path):
        assert main(compress_args(toy_dir, tmp_path, "--set", "targets.bogus=1")) == 2

    def test_invalid_alpha_exits_two(self, toy_dir, tmp_path):
        assert main(compress_args(toy_dir, tmp_path, "--set", "targets.alpha=1.5")) == 2

    def test_granularity_above_sparse_ptc_rows_exits_two(self, toy_dir, tmp_path, capsys, monkeypatch):
        # Rejected before the model is even loaded, so no decomposition runs.
        def unreachable(*args):
            raise AssertionError("compress loaded the model before checking the granularity")

        monkeypatch.setattr(pipeline, "load_model", unreachable)
        code = main(compress_args(toy_dir, tmp_path, "--set", "targets.granularity=9"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "targets.granularity=9" in err and "n_v=8" in err
        assert not (tmp_path / "plan.json").exists()

    def test_ranks_do_not_depend_on_final_pass_iterations(self, tmp_path):
        # decomposition.iters sets only the per-rank pass; the allocator's
        # guide is a fixed single alternation. At hidden 32 a guide run for
        # decomposition.iters alternations would assign other ranks.
        toy = tmp_path / "toy32"
        assert main([
            "gen-toy", "--out", str(toy), "--seed", "5",
            "--hidden", "32", "--heads", "2", "--blocks", "2", "--in-dim", "12",
            "--calib-tokens", "32", "--samples", "12", "--tokens", "6",
        ]) == 0
        plans = []
        for iters in (2, 6):
            out = tmp_path / f"iters{iters}"
            assert main(compress_args(toy, out, "--set", f"decomposition.iters={iters}")) == 0
            plan = json.loads((out / "plan.json").read_text())
            plans.append((plan["psi_achieved"], [(l["id"], l["r"], l["d"]) for l in plan["layers"]]))
        assert plans[0] == plans[1]

    def test_artifacts_identical_across_blas_thread_counts(self, tmp_path):
        def opticomp(*args, threads=1):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
            subprocess.run([sys.executable, "-m", "opticomp.cli", *args], env=env, check=True, capture_output=True)

        toy = tmp_path / "toy96"
        opticomp("gen-toy", "--out", str(toy), "--seed", "3", "--hidden", "96", "--calib-tokens", "256")
        digests = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            opticomp(
                "compress",
                "--set", f"paths.model={toy}/model.lten",
                "--set", f"paths.calibration={toy}/calib.lten",
                "--set", "decomposition.iters=12",
                "--set", "decomposition.adapt_steps=20",
                "--out", str(out), "--seed", "3",
                threads=threads,
            )
            digests.append(
                [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("plan.json", "compressed.lten")]
            )
        assert digests[0] == digests[1]


def test_calibrate_is_an_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--out", "unused"])
    assert exc.value.code == 2
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


class TestSimulate:
    def test_baseline_reports_zero_index_overhead(self, toy_dir, tmp_path):
        assert main([
            "simulate", "--baseline",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", "hardware.batch_tokens=24",
            "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["energy_pj"]["index_overhead"] == 0.0
        assert (tmp_path / "report.csv").exists()

    def test_breakdown_sums(self, toy_dir, compressed_dir, tmp_path):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", "hardware.batch_tokens=24",
            "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["total_energy_pj"] == pytest.approx(sum(report["energy_pj"].values()), rel=1e-9)

    def test_compare_ratios_are_quotients(self, toy_dir, compressed_dir, tmp_path):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"), "--compare",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", "hardware.batch_tokens=24",
            "--out", str(tmp_path),
        ]) == 0
        cmp_data = json.loads((tmp_path / "comparison.json").read_text())
        assert cmp_data["edp_ratio"] == pytest.approx(
            cmp_data["baseline"]["edp_pj_s"] / cmp_data["compressed"]["edp_pj_s"], rel=1e-12
        )

    def test_missing_plan_is_usage_error(self, toy_dir, tmp_path):
        assert main([
            "simulate",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 2

    def test_plan_with_baseline_is_usage_error(self, toy_dir, compressed_dir, tmp_path, capsys):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"), "--baseline",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 2
        assert "exactly one of --plan PATH or --baseline" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestVerify:
    def verify_args(self, toy_dir, run_dir, *extra):
        return [
            "verify",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", f"paths.calibration={toy_dir}/calib.lten",
            "--out", str(run_dir),
            *extra,
        ]

    def test_fresh_artifacts_pass(self, toy_dir, compressed_dir, capsys):
        assert main(self.verify_args(toy_dir, compressed_dir)) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_quant_noise_zero_ratio_matches(self, toy_dir, compressed_dir, capsys):
        assert main(self.verify_args(toy_dir, compressed_dir, "--quant-noise", "0.0")) == 0
        assert "quant_noise" in capsys.readouterr().out

    def test_corrupted_index_fails_condensed_check(self, toy_dir, compressed_dir, tmp_path, capsys):
        manifest, tensors = read_container(compressed_dir / "compressed.lten")
        bad = {k: np.array(v) for k, v in tensors.items()}
        name = next(k for k in bad if k.endswith("sparse.cols"))
        bad[name] = bad[name].copy()
        bad[name][0, 0] = 10_000  # out of range
        path = tmp_path / "corrupt.lten"
        write_container(path, bad, extra={k: v for k, v in manifest.items() if k != "tensors"})
        code = main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path)))
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] condensed_matmul" in out


class TestReport:
    def test_report_pretty_print(self, toy_dir, compressed_dir, tmp_path, capsys):
        main([
            "simulate", "--plan", str(compressed_dir / "plan.json"), "--compare",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", "hardware.batch_tokens=24",
            "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "comparison.json")]) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "report.json")]) == 0

    def test_report_prints_one_row_per_layer(self, toy_dir, compressed_dir, tmp_path, capsys):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--set", "hardware.batch_tokens=24",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "report.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        per_layer = json.loads((tmp_path / "report.json").read_text())["per_layer"]
        header = next(i for i, line in enumerate(lines) if line.startswith("layer"))
        rows = [line.split() for line in lines[header + 1:]]
        assert len(rows) == len(per_layer)
        for row, layer in zip(rows, per_layer):
            dense, sparse = layer["dense_cycles"], layer["sparse_cycles"]
            bound = "tie" if dense == sparse else "dense" if dense > sparse else "sparse"
            top = max(layer["energy_pj"], key=layer["energy_pj"].get)
            assert row == [layer["id"], str(dense), str(sparse), bound, top]
        # Compressed layers share the cycle budget with the sparse engine;
        # embedding and head run dense only.
        assert {row[3] for row in rows} >= {"dense"}
        assert any(layer["sparse_cycles"] > 0 for layer in per_layer)

    def test_comparison_report_has_no_layer_table(self, toy_dir, compressed_dir, tmp_path, capsys):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"), "--compare",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "comparison.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["metric", "baseline", "compressed", "ratio"]
        assert len(lines) == 4
