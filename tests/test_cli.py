import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opticomp import cli, pipeline
from opticomp.allocate import read_plan
from opticomp.cli import main
from opticomp.config import ConfigError
from opticomp.container import read_container, write_container
from opticomp.decompose import compute_scaling, expand, layer_error
from opticomp.model import LayerSpec, ModelGraph, block_ids, load_model, save_model
from opticomp.photonic import EnergyParams, EngineConfig, condensed_matmul, load_energy_params, load_engine_config
from opticomp.quantize import dequantize, inject_noise, quantize
from opticomp.util import philox_rng, stable_key
from opticomp.vit import ToyViT, block_loss, collect_calibration, forward, logit_loss

from test_container import rewrite_manifest

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


@pytest.fixture(scope="module")
def one_block_dir(tmp_path_factory):
    """The toy model with one block instead of two, compressed into run/."""
    out = tmp_path_factory.mktemp("toy1")
    assert main([
        "gen-toy", "--out", str(out), "--seed", "11",
        "--hidden", "24", "--heads", "2", "--blocks", "1", "--in-dim", "12",
        "--calib-tokens", "32", "--samples", "12", "--tokens", "6",
    ]) == 0
    assert main(compress_args(out, out / "run")) == 0
    return out


@pytest.fixture(scope="module")
def narrow_dir(tmp_path_factory):
    """A hidden-16 toy with the layer ids of ``toy_dir``'s, compressed into run/."""
    out = tmp_path_factory.mktemp("toy16")
    assert main([
        "gen-toy", "--out", str(out), "--seed", "11",
        "--hidden", "16", "--heads", "2", "--blocks", "2", "--in-dim", "12",
        "--calib-tokens", "32", "--samples", "12", "--tokens", "6",
    ]) == 0
    assert main(compress_args(out, out / "run")) == 0
    return out


@pytest.fixture(scope="module")
def walkthrough_dir(tmp_path_factory):
    """The README walkthrough: gen-toy's default toy at seed 42, compressed at
    alpha 0.3 into run/."""
    out = tmp_path_factory.mktemp("walkthrough")
    assert main(["gen-toy", "--out", str(out), "--seed", "42"]) == 0
    assert main([
        "compress",
        "--set", f"paths.model={out}/model.lten",
        "--set", f"paths.calibration={out}/calib.lten",
        "--set", "targets.alpha=0.3",
        "--out", str(out / "run"), "--seed", "42",
    ]) == 0
    return out


def copy_holding_verify_lines(toy, calibrated, noise, seed=0):
    """Verify's printed lines for ``toy`` and its run/, derived as verify did
    while it held every copy at once: the file's tensors beside both float64
    models, the raw calibration activations, and separate quantized and noisy
    weight dicts."""
    graph_o, tensors_o = load_model(toy / "model.lten")
    graph_c, compressed, others = pipeline.load_compressed(toy / "run" / "compressed.lten")
    plan = read_plan(toy / "run" / "plan.json")
    worst = 0.0
    for lid, cl in compressed.items():
        x = philox_rng(seed, 5, stable_key(lid)).standard_normal((cl.sparse.full_cols, 8))
        worst = max(worst, float(np.abs(condensed_matmul(cl.sparse, x) - expand(cl.sparse) @ x).max()))
    lines = [f"[PASS] condensed_matmul: max |condensed - dense| = {worst:.3e}"]
    model_o = ToyViT.from_tensors(graph_o, tensors_o)
    if calibrated:
        calib = collect_calibration(model_o, pipeline.load_calibration_inputs(toy / "calib.lten"))
        recorded = {pl.id: pl.error for pl in plan.layers}
        worst = max(
            abs(layer_error(np.asarray(tensors_o[lid], dtype=np.float64), compute_scaling(calib[lid]), cl) - recorded[lid])
            for lid, cl in compressed.items()
        )
        lines.append(f"[PASS] reconstruction_fidelity: max |recorded - recomputed| layer error = {worst:.3e}")
    lines.append(f"[PASS] psi_recomputation: psi = {plan.psi_achieved:.6f} vs target {plan.alpha}")
    model_c = ToyViT.from_tensors(graph_c, pipeline.effective_tensors(graph_c, compressed, others))
    probe = philox_rng(seed, 6).standard_normal((graph_o.layer("embed").cols, 16))
    logits_o, feats_o = forward(model_o, probe)
    logits_c, feats_c = forward(model_c, probe)
    bdrift = block_loss(feats_c, feats_o)
    ldrift = logit_loss(logits_c[None, :], logits_o[None, :], np.array([int(np.argmax(logits_o))]))
    lines.append(f"[PASS] distillation_drift: block_loss = {bdrift:.4f}, logit_loss = {ldrift:.4f}")
    if noise is not None:
        clean = {name: dequantize(quantize(w)) for name, w in model_c.weights.items()}
        noisy = {name: inject_noise(w, noise, seed, key=stable_key(name)) for name, w in clean.items()}
        lo, _ = forward(replace(model_c, weights=clean), probe)
        ln, _ = forward(replace(model_c, weights=noisy), probe)
        lines.append(f"[PASS] quant_noise: max logit shift under quant+noise = {float(np.abs(lo - ln).max()):.4e}")
    return lines


def rewrite_tensor(src, dst, tensor, edit):
    """Copy the container at src to dst with ``edit`` applied to one tensor."""
    manifest, tensors = read_container(src)
    bad = {k: np.array(v) for k, v in tensors.items()}
    edit(bad[tensor])
    write_container(dst, bad, extra={k: v for k, v in manifest.items() if k != "tensors"})


def rewrite_compressed(src, dst, edit):
    """Copy a compressed model with ``edit(compressed_layers, tensors)`` applied."""
    manifest, tensors = read_container(src)
    extra = {k: v for k, v in manifest.items() if k != "tensors"}
    bad = {k: np.array(v) for k, v in tensors.items()}
    edit(extra["compressed_layers"], bad)
    write_container(dst, bad, extra=extra)


def sliced(tensor, index):
    """A ``rewrite_compressed`` edit that keeps ``index`` of one of block0.attn.q's tensors."""
    name = f"block0.attn.q.{tensor}"
    return lambda meta, tensors: tensors.update({name: tensors[name][index]})


def rename_layer(old, new):
    """An edit of a model's (graph, tensors) that renames one block layer everywhere."""

    def edit(graph, tensors):
        next(layer for layer in graph["layers"] if layer["id"] == old)["id"] = new
        for block in graph["blocks"]:
            for ids in block.values():
                ids[:] = [new if lid == old else lid for lid in ids]
        tensors[new] = tensors.pop(old)

    return edit


def append_block(groups):
    """An edit of a model's (graph, tensors) that appends a block of ``groups``
    and its layernorm vectors, and no layer."""

    def edit(graph, tensors):
        graph["blocks"].append(groups)
        i, hidden = len(graph["blocks"]) - 1, graph["hidden_size"]
        for ln in ("ln1", "ln2"):
            tensors[f"block{i}.{ln}.weight"], tensors[f"block{i}.{ln}.bias"] = np.ones(hidden), np.zeros(hidden)

    return edit


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

    def test_walkthrough_inputs_are_pinned(self, walkthrough_dir):
        # The README walkthrough's `gen-toy --seed 42`; the same bytes at 1
        # and 2 OpenBLAS threads (OpenBLAS 0.3.31, numpy 2.4.6).
        pins = {
            "model.lten": "4b1a14041426c6028a6f7c40f256eb8d1c3be4a92a74c620132823bf8128ab81",
            "calib.lten": "2916c97b97741db248941cf763d6b331694101b2112714211d35ee647e2b67a4",
            "data.lten": "ef152864674ce03053ad7923e94653c98c9792b9ceb583e10f1674e24c084847",
        }
        assert {name: hashlib.sha256((walkthrough_dir / name).read_bytes()).hexdigest() for name in pins} == pins

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--blocks", "0"), ("--tokens", "0"), ("--calib-tokens", "0"), ("--samples", "0"),
            ("--hidden", "0"), ("--heads", "-2"), ("--mlp-ratio", "0"), ("--classes", "0"),
            ("--in-dim", "0"), ("--seed", "-1"), ("--blocks", "two"),
        ],
    )
    def test_bad_argument_exits_two_and_writes_nothing(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["gen-toy", "--out", str(tmp_path / "toy"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer >= " in err and "Traceback" not in err
        assert not (tmp_path / "toy").exists()

    def test_hidden_not_divisible_by_heads_exits_two_and_writes_nothing(self, tmp_path, capsys):
        assert main(["gen-toy", "--out", str(tmp_path / "toy"), "--hidden", "24", "--heads", "5"]) == 2
        assert "error: --hidden 24 is not divisible by --heads 5" in capsys.readouterr().err
        assert not (tmp_path / "toy").exists()


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

    @pytest.fixture
    def model_never_loaded(self, monkeypatch):
        """Config errors are caught before the model is loaded, so no decomposition runs."""
        def unreachable(*args):
            raise AssertionError("compress loaded the model before checking the config")

        monkeypatch.setattr(pipeline, "load_model", unreachable)

    def test_bad_config_field_exits_two(self, toy_dir, tmp_path):
        assert main(compress_args(toy_dir, tmp_path, "--set", "targets.bogus=1")) == 2

    @pytest.mark.parametrize(
        "extra,field",
        [
            (("--set", "targets.alpha=1.5"), "targets.alpha"),
            (("--set", "targets.sparse_ratio=0"), "targets.sparse_ratio"),
            (("--set", "targets.granularity=0"), "targets.granularity"),
            (("--set", "decomposition.iters=0"), "decomposition.iters"),
            (("--set", "decomposition.adapt_steps=-5"), "decomposition.adapt_steps"),
            # Removed fields: any value for them is a config error naming the field.
            (("--set", "allocator.threshold=2"), "allocator.threshold"),
            (("--set", "allocator.temperature=0"), "allocator.temperature"),
            (("--set", "allocator.temperature=-1"), "allocator.temperature"),
            (("--set", "allocator.basis_rank=0"), "allocator.basis_rank"),
            (("--set", "allocator.basis_rank=-3"), "allocator.basis_rank"),
            (("--set", "decomposition.adapt_lr=0"), "decomposition.adapt_lr"),
            (("--set", "decomposition.adapt_lr=-1"), "decomposition.adapt_lr"),
            (("--set", "hardware.batch_tokens=0"), "hardware.batch_tokens"),
            (("--seed", "-1"), "seed"),
        ],
        ids=[
            "alpha_above_one", "sparse_ratio_zero", "granularity_zero", "iters_zero",
            "adapt_steps_negative", "threshold_above_one", "temperature_zero", "temperature_negative",
            "basis_rank_zero", "basis_rank_negative", "adapt_lr_zero", "adapt_lr_negative",
            "batch_tokens_zero", "seed_negative",
        ],
    )
    def test_invalid_alpha_exits_two(self, toy_dir, tmp_path, capsys, model_never_loaded, extra, field):
        assert main(compress_args(toy_dir, tmp_path, *extra)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(field) in err and "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    # Fields that are no longer settings, each at its old default: the
    # allocator's batch mass, softmax temperature and rank quantum, and the
    # adapter's learning rate.
    @pytest.mark.parametrize(
        "setting", ["allocator.threshold=0.5", "allocator.temperature=1.0", "allocator.basis_rank=null",
                    "decomposition.adapt_lr=0.01"],
        ids=lambda setting: setting.partition("=")[0],
    )
    def test_a_removed_field_exits_two(self, toy_dir, tmp_path, capsys, model_never_loaded, setting):
        assert main(compress_args(toy_dir, tmp_path, "--set", setting)) == 2
        field = setting.partition("=")[0]
        assert capsys.readouterr().err == f"config error: unknown config field {field!r}\n"
        assert not (tmp_path / "plan.json").exists()

    def test_a_config_file_with_the_allocator_section_exits_two(self, toy_dir, tmp_path, capsys, model_never_loaded):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "targets": {"alpha": 0.3, "sparse_ratio": 0.125, "granularity": 4},
            "allocator": {"threshold": 0.5, "temperature": 1.0, "basis_rank": None},
            "decomposition": {"iters": 80, "adapt_steps": 100, "adapt_lr": 0.01},
        }))
        assert main(compress_args(toy_dir, tmp_path / "run", "--config", str(path))) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown config field 'allocator'\n"
        assert not (tmp_path / "run").exists()

    def test_granularity_above_sparse_ptc_rows_exits_two(self, toy_dir, tmp_path, capsys, model_never_loaded):
        code = main(compress_args(toy_dir, tmp_path, "--set", "targets.granularity=9"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "targets.granularity=9" in err and "n_v=8" in err
        assert not (tmp_path / "plan.json").exists()

    def test_an_svd_that_fails_exits_one(self, toy_dir, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert main(compress_args(toy_dir, tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Eigenvalues did not converge\n"
        assert captured.out == ""
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

    def test_eigenvector_signs_do_not_reach_the_artifacts(self, toy_dir, compressed_dir, tmp_path, monkeypatch):
        # The eigensolver's signs are arbitrary; truncated_svd's sign convention
        # removes them before the adapter's seeded start reads the factors.
        eigh = np.linalg.eigh

        def alternately_negated(*args, **kwargs):
            values, vectors = eigh(*args, **kwargs)
            return values, vectors * np.where(np.arange(vectors.shape[1]) % 2, -1.0, 1.0)

        monkeypatch.setattr(np.linalg, "eigh", alternately_negated)
        assert main(compress_args(toy_dir, tmp_path)) == 0
        for name in ("plan.json", "compressed.lten"):
            assert (tmp_path / name).read_bytes() == (compressed_dir / name).read_bytes()

    def test_artifacts_identical_across_blas_thread_counts(self, tmp_path):
        digests = [
            [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("plan.json", "compressed.lten")]
            for out in compress_under_blas_threads(tmp_path, hidden=96)
        ]
        assert digests[0] == digests[1]

    def test_hidden_192_plans_agree_across_blas_thread_counts(self, tmp_path):
        # Measured at 1 vs 2 threads: identical plans; with LAPACK's SVD in
        # place of the Gram-form spectra, layer errors 3.6e-14 apart (relative).
        one, two = (read_plan(out / "plan.json") for out in compress_under_blas_threads(tmp_path, hidden=192))
        assert one.psi_achieved == two.psi_achieved
        assert [(l.id, l.r, l.d) for l in one.layers] == [(l.id, l.r, l.d) for l in two.layers]
        for a, b in zip(one.layers, two.layers):
            assert abs(a.error - b.error) <= 1e-12 * b.error


def compress_under_blas_threads(tmp_path, hidden):
    """Compress one seeded toy at ``hidden`` under 1 and then 2 BLAS threads,
    each in a fresh interpreter; return the two output directories."""
    def opticomp(*args, threads=1):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "opticomp.cli", *args], env=env, check=True, capture_output=True)

    toy = tmp_path / f"toy{hidden}"
    opticomp("gen-toy", "--out", str(toy), "--seed", "3", "--hidden", str(hidden), "--calib-tokens", "256")
    outs = []
    for threads in (1, 2):
        outs.append(tmp_path / f"threads{threads}")
        opticomp(
            "compress",
            "--set", f"paths.model={toy}/model.lten",
            "--set", f"paths.calibration={toy}/calib.lten",
            "--set", "decomposition.iters=12",
            "--set", "decomposition.adapt_steps=20",
            "--out", str(outs[-1]), "--seed", "3",
            threads=threads,
        )
    return outs


def compress_in_subprocess(toy_dir, out_dir, block_scipy=False):
    """Run compress in a fresh interpreter; return the SHA-256s of plan.json and
    compressed.lten and the scipy modules loaded by then."""
    script = "\n".join([
        "import sys",
        *(['sys.modules["scipy"] = None'] if block_scipy else []),
        "import opticomp",
        "from opticomp.cli import main",
        f"assert main({compress_args(toy_dir, out_dir)!r}) == 0",
        'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None))',
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    digests = [hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("plan.json", "compressed.lten")]
    return digests, run.stdout.splitlines()[-1]


class TestWithoutScipy:
    def test_import_and_compress_load_no_scipy(self, toy_dir, tmp_path):
        _, scipy_modules = compress_in_subprocess(toy_dir, tmp_path / "run")
        assert scipy_modules == "[]"

    def test_artifacts_do_not_depend_on_scipy_being_importable(self, toy_dir, tmp_path):
        importable, _ = compress_in_subprocess(toy_dir, tmp_path / "importable")
        blocked, _ = compress_in_subprocess(toy_dir, tmp_path / "blocked", block_scipy=True)
        assert importable == blocked


@pytest.mark.parametrize("verb", ["gen-toy", "compress", "simulate"])
def test_out_naming_a_plain_file_exits_two_before_any_work(verb, toy_dir, compressed_dir, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{verb} started work before creating --out")

    for name in ("build_toy_graph", "compress_model", "load_model"):
        monkeypatch.setattr(cli, name, unreachable)
    target = tmp_path / "F"
    target.write_bytes(b"not a directory")
    args = {
        "gen-toy": ["gen-toy", "--out", str(target)],
        "compress": compress_args(toy_dir, target),
        "simulate": [
            "simulate", "--plan", str(compressed_dir / "plan.json"),
            "--set", f"paths.model={toy_dir}/model.lten", "--out", str(target),
        ],
    }[verb]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: cannot create output directory {target}: " in err and "Traceback" not in err
    assert target.read_bytes() == b"not a directory"


@pytest.mark.parametrize(
    "verb,extra,field",
    [
        ("compress", ("--set", "paths.calibration={toy}/calib.lten"), "paths.model"),
        ("compress", ("--set", "paths.model={toy}/model.lten"), "paths.calibration"),
        ("simulate", ("--plan", "{run}/plan.json"), "paths.model"),
        ("simulate", ("--baseline",), "paths.model"),
        ("verify", ("--set", "paths.calibration={toy}/calib.lten"), "paths.model"),
    ],
    ids=["compress_model", "compress_calibration", "simulate_plan", "simulate_baseline", "verify_model"],
)
def test_a_missing_path_exits_two_before_any_work(verb, extra, field, toy_dir, compressed_dir, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{verb} read a file before checking its paths")

    for name in ("hardware_from_config", "compress_model", "load_model", "read_plan", "verify_artifacts"):
        monkeypatch.setattr(cli, name, unreachable)
    out = tmp_path / "out"
    args = [verb, *(arg.format(toy=toy_dir, run=compressed_dir) for arg in extra), "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {verb} needs config field {field!r}; set it with --set {field}=PATH\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "verb,extra",
    [
        ("compress", ("--set", "paths.model={dir}", "--set", "paths.calibration={toy}/calib.lten")),
        ("compress", ("--set", "paths.model={toy}/model.lten", "--set", "paths.calibration={dir}")),
        ("compress", ("--config", "{dir}")),
        ("simulate", ("--set", "paths.model={toy}/model.lten", "--plan", "{dir}")),
        ("verify", ("--set", "paths.model={dir}")),
        ("report", ()),
    ],
    ids=["compress_model", "compress_calibration", "compress_config", "simulate_plan", "verify_model", "report"],
)
def test_an_input_path_naming_a_directory_exits_two(verb, extra, toy_dir, tmp_path, capsys):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    args = [verb, *(arg.format(dir=directory, toy=toy_dir) for arg in extra)]
    args += [str(directory)] if verb == "report" else ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {directory}: Is a directory\n"
    assert not (tmp_path / "out" / "plan.json").exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (("gen-toy", "--hidden", "24", "--heads", "5"), "--hidden 24 is not divisible by --heads 5"),
        (("simulate", "--plan", "{run}/plan.json", "--baseline", "--set", "paths.model={toy}/model.lten"),
         "provide exactly one of --plan PATH or --baseline"),
        (("simulate", "--baseline", "--compare", "--set", "paths.model={toy}/model.lten"), "--compare needs --plan"),
    ],
    ids=["heads_not_dividing_hidden", "plan_with_baseline", "compare_without_plan"],
)
def test_a_flag_combination_that_cannot_run_exits_two_and_writes_nothing(
    args, message, toy_dir, compressed_dir, tmp_path, capsys
):
    out = tmp_path / "out"
    assert main([*(arg.format(toy=toy_dir, run=compressed_dir) for arg in args), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


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

    def test_plan_with_no_layers_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        # only --baseline asks for the dense baseline; an empty plan is a mismatch
        plan = json.loads((compressed_dir / "plan.json").read_text())
        plan["layers"] = []
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([
            "simulate", "--plan", str(path), "--compare",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path / "out"),
        ]) == 1
        captured = capsys.readouterr()
        assert "error: plan/model mismatch at layer(s): block0.attn.k, " in captured.err
        assert "EDP ratio" not in captured.out
        assert not (tmp_path / "out" / "comparison.json").exists()

    def test_plan_of_other_layer_shapes_exits_one(self, toy_dir, narrow_dir, tmp_path, capsys):
        # Same layer ids, other (rows, cols): the plan of a hidden-16 toy.
        capsys.readouterr()
        assert main([
            "simulate", "--plan", str(narrow_dir / "run" / "plan.json"),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: plan/model mismatch at layer(s): block0.attn.k, block0.attn.o, ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "report.json").exists()

    def test_compare_writes_the_same_report(self, toy_dir, compressed_dir, tmp_path):
        # --compare adds report_baseline.json and comparison.json only.
        for name, extra in (("plain", ()), ("compare", ("--compare",))):
            assert main([
                "simulate", "--plan", str(compressed_dir / "plan.json"), *extra,
                "--set", f"paths.model={toy_dir}/model.lten",
                "--out", str(tmp_path / name),
            ]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "compare" / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "compare").iterdir()) == [
            "comparison.json", "report.csv", "report.json", "report_baseline.json",
        ]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "file_cfg,field",
        [
            ({"targets": 5}, "targets"),
            ({"targets": {"alpha": "0.3"}}, "targets.alpha"),
            ({"decomposition": {"iters": 2.5}}, "decomposition.iters"),
        ],
        ids=["section_not_an_object", "string_for_float", "float_for_int"],
    )
    def test_mistyped_config_file_exits_two(self, toy_dir, tmp_path, capsys, file_cfg, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(file_cfg))
        assert main(compress_args(toy_dir, tmp_path / "run", "--config", str(path))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: config ") and repr(field) in err
        assert not (tmp_path / "run").exists()

    def test_null_for_a_field_without_null_default_exits_two(self, toy_dir, tmp_path, capsys):
        assert main(compress_args(toy_dir, tmp_path, "--set", "targets.alpha=null")) == 2
        err = capsys.readouterr().err
        assert err == "config error: config field 'targets.alpha' must be a number in (0, 1), got None\n"

    def simulate_baseline(self, toy_dir, tmp_path, *extra):
        return main([
            "simulate", "--baseline",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path / "out"),
            *extra,
        ])

    def test_energy_params_unknown_key_exits_two(self, toy_dir, tmp_path, capsys):
        path = tmp_path / "energy.json"
        path.write_text(json.dumps({"adc": 1.0, "bogus": 2.0}))
        assert self.simulate_baseline(toy_dir, tmp_path, "--set", f"hardware.energy_params={path}") == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: energy params has unknown field 'bogus'\n"

    def test_batch_with_counts_past_int64_exits_one(self, walkthrough_dir, tmp_path, capsys):
        # The README walkthrough's model: 16 row and inner blocks of 12 in an
        # attention layer, times ceil(10**19 / 12) column blocks.
        batch = ("--set", "hardware.batch_tokens=10000000000000000000")
        assert self.simulate_baseline(walkthrough_dir, tmp_path, *batch) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: batch_tokens=10000000000000000000: layer 'block0.attn.q' needs more invocations than int64 holds\n"
        )
        assert captured.out == "" and list((tmp_path / "out").iterdir()) == []

    def test_engine_config_missing_n_lambda_exits_two(self, toy_dir, tmp_path, capsys):
        engines = EngineConfig.default().to_json()
        del engines["dense"]["ptc"]["n_lambda"]
        path = tmp_path / "engines.json"
        path.write_text(json.dumps(engines))
        assert self.simulate_baseline(toy_dir, tmp_path, "--set", f"hardware.engine_config={path}") == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: engine config dense.ptc has no field 'n_lambda'\n"

    @pytest.mark.parametrize("verb", ["compress", "simulate"])
    def test_sparse_ptc_rows_not_in_quarters_exit_two(self, toy_dir, compressed_dir, tmp_path, capsys, verb):
        # Only the sparse engine gates its rows in quarters of n_v.
        engines = EngineConfig.default().to_json()
        engines["sparse"]["ptc"]["n_v"] = 6
        path = tmp_path / "engines.json"
        path.write_text(json.dumps(engines))
        hardware = ("--set", f"hardware.engine_config={path}")
        args = {
            "compress": compress_args(toy_dir, tmp_path / "run", *hardware),
            "simulate": ["simulate", "--plan", str(compressed_dir / "plan.json"),
                         "--set", f"paths.model={toy_dir}/model.lten", "--out", str(tmp_path / "run"), *hardware],
        }[verb]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {path}: row gating needs n_v divisible by 4, got 6\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda graph: {k: v for k, v in graph.items() if k != "blocks"}, "graph has no field 'blocks'"),
            (lambda graph: graph["layers"][1].update(rows="24"), "graph layer 'block0.attn.q': rows must be an integer, got '24'"),
            (lambda graph: [graph], "graph must be a JSON object, got list"),
            (lambda graph: graph.update(hidden_size="x"), "graph hidden_size must be an integer >= 1, got 'x'"),
            (lambda graph: graph["blocks"][0].update(mlp="block0.mlp.fc1"),
             "graph block 0: mlp must be a list of layer ids, got 'block0.mlp.fc1'"),
            (lambda graph: graph["layers"][1].update(bias=True),
             "graph layer 'block0.attn.q' has unknown field 'bias'"),
            (lambda graph: graph["blocks"][0].update(norm=[]), "graph block 0 has unknown field 'norm'"),
            (lambda graph: graph["meta"].update(depth="2"), "graph meta has unknown field 'depth'"),
            (lambda graph: graph["meta"].update(heads="abc"),
             "graph meta: heads must be an integer string >= 1, got 'abc'"),
            (lambda graph: graph["meta"].update(heads=2), "graph meta: heads must be an integer string >= 1, got 2"),
            (lambda graph: graph["meta"].update(heads="5"), "graph hidden_size 24 is not divisible by meta.heads 5"),
            (lambda graph: graph.update(layers=graph["layers"][1:]), "graph has no layer 'embed' of kind 'embed'"),
            (lambda graph: graph["layers"][-1].update(kind="embed"), "graph has no layer 'head' of kind 'head'"),
        ],
        ids=["no_blocks", "rows_string", "graph_list", "hidden_size_string", "block_group_string", "layer_unknown_key",
             "block_unknown_key", "meta_unknown_key", "meta_heads_not_digits", "meta_heads_number",
             "meta_heads_not_dividing_hidden", "no_embed", "head_of_kind_embed"],
    )
    def test_malformed_model_graph_exits_one(self, toy_dir, tmp_path, capsys, edit, message):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)

        def edit_graph(manifest):
            manifest["graph"] = edit(manifest["graph"]) or manifest["graph"]

        rewrite_manifest(bad_toy / "model.lten", edit_graph)
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad_toy / 'model.lten'}: {message}\n"
        assert not (tmp_path / "run" / "plan.json").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (rename_layer("block0.attn.q", "block0.attn.query"),
             "graph block 0: attn must list ['block0.attn.q', 'block0.attn.k', 'block0.attn.v', 'block0.attn.o'], "
             "got ['block0.attn.query', 'block0.attn.k', 'block0.attn.v', 'block0.attn.o']"),
            (append_block({"attn": ["x"], "mlp": []}),
             "graph block 2: attn must list ['block2.attn.q', 'block2.attn.k', 'block2.attn.v', 'block2.attn.o'], "
             "got ['x']"),
            (append_block(block_ids(2)), "graph block 2: attn lists 'block2.attn.q', which is not a graph layer"),
        ],
        ids=["layer_renamed", "block_of_other_ids", "block_of_absent_layers"],
    )
    def test_block_the_forward_cannot_run_exits_one(self, toy_dir, tmp_path, capsys, edit, message):
        # Each model is whole otherwise: every graph layer and layernorm vector has its tensor.
        manifest, tensors = read_container(toy_dir / "model.lten")
        tensors = dict(tensors)
        edit(manifest["graph"], tensors)
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        write_container(bad_toy / "model.lten", tensors, extra={"graph": manifest["graph"]})
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad_toy / 'model.lten'}: {message}\n"
        assert not (tmp_path / "run" / "plan.json").exists()

    def test_calibration_without_inputs_exits_one(self, toy_dir, tmp_path, capsys):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        write_container(bad_toy / "calib.lten", {"tokens": np.zeros((12, 4))})
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        assert capsys.readouterr().err == f"error: {bad_toy / 'calib.lten'}: no tensor 'inputs'\n"
        assert not (tmp_path / "run" / "plan.json").exists()

    def test_verify_on_a_model_without_embed_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)

        def drop_embed(manifest):
            del manifest["graph"]["layers"][0]

        rewrite_manifest(bad_toy / "model.lten", drop_embed)
        assert main(["verify", "--set", f"paths.model={bad_toy}/model.lten",
                     "--set", f"paths.calibration={bad_toy}/calib.lten", "--out", str(compressed_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad_toy / 'model.lten'}: graph has no layer 'embed' of kind 'embed'\n"
        assert captured.out == ""

    def test_plan_without_layers_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        plan = json.loads((compressed_dir / "plan.json").read_text())
        del plan["layers"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([
            "simulate", "--plan", str(path),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path / "out"),
        ]) == 1
        assert f"error: {path}: plan has no field 'layers'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["rows", "id"])
    def test_a_plan_layer_without_a_field_is_named(self, toy_dir, compressed_dir, tmp_path, capsys, field):
        # The layer is named by its id once that is read, by its index before.
        plan = json.loads((compressed_dir / "plan.json").read_text())
        del plan["layers"][3][field]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([
            "simulate", "--plan", str(path),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path / "out"),
        ]) == 1
        layer = "plan layer 3" if field == "id" else f"plan layer {plan['layers'][3]['id']!r}"
        assert capsys.readouterr().err == f"error: {path}: {layer} has no field {field!r}\n"

    @pytest.mark.parametrize("field,value", [("g", 0), ("r", -5)], ids=["g_zero", "r_negative"])
    def test_plan_field_below_one_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, field, value):
        plan = json.loads((compressed_dir / "plan.json").read_text())
        plan["layers"][1][field] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([
            "simulate", "--plan", str(path),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path / "out"),
        ]) == 1
        captured = capsys.readouterr()
        layer = plan["layers"][1]["id"]
        assert captured.err == f"error: {path}: plan layer {layer!r}: {field} must be an integer >= 1, got {value}\n"
        assert captured.out == ""
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "file,tensor",
        [("model.lten", "block0.attn.q"), ("calib.lten", "inputs"), ("model.lten", "block0.ln1.weight")],
        ids=["model_weight", "calibration_inputs", "layernorm_vector"],
    )
    def test_non_finite_input_file_exits_one(self, toy_dir, tmp_path, capsys, file, tensor):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        rewrite_tensor(toy_dir / file, bad_toy / file, tensor, lambda t: t.flat.__setitem__(0, np.nan))
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        assert capsys.readouterr().err == f"error: {bad_toy / file}: tensor {tensor!r} contains non-finite entries\n"
        assert not (tmp_path / "run" / "plan.json").exists()

    @pytest.mark.parametrize(
        "file,tensor,edit,message",
        [
            ("calib.lten", "inputs", lambda t: t.reshape(-1), "has shape (384,), expected (*, *)"),
            ("model.lten", "head", lambda t: t.astype(np.int32), "holds i32, expected f32"),
        ],
        ids=["calibration_inputs_1d", "head_weight_i32"],
    )
    def test_input_tensor_breaking_its_table_exits_one(self, toy_dir, tmp_path, capsys, file, tensor, edit, message):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        manifest, tensors = read_container(toy_dir / file)
        tensors = {**tensors, tensor: edit(tensors[tensor])}
        write_container(bad_toy / file, tensors, extra={k: v for k, v in manifest.items() if k != "tensors"})
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        assert capsys.readouterr().err == f"error: {bad_toy / file}: tensor {tensor!r} {message}\n"
        assert not (tmp_path / "run" / "plan.json").exists()

    @pytest.mark.parametrize("shape", [[10**30], [2**62, 4]], ids=["beyond_int64", "wraps_int64"])
    def test_calibration_shape_beyond_int64_exits_one(self, toy_dir, tmp_path, capsys, shape):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)

        def enlarge(manifest):
            next(e for e in manifest["tensors"] if e["name"] == "inputs")["shape"] = shape

        rewrite_manifest(bad_toy / "calib.lten", enlarge)
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_toy / 'calib.lten'}: tensor 'inputs' shape ")
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "plan.json").exists()

    def test_zero_token_calibration_exits_one(self, toy_dir, tmp_path, capsys):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        write_container(bad_toy / "calib.lten", {"inputs": np.zeros((12, 0))})
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        assert "error: calibration inputs hold no tokens" in capsys.readouterr().err
        assert not (tmp_path / "run" / "plan.json").exists()

    def test_zero_weight_layer_exits_one(self, toy_dir, tmp_path, capsys):
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)
        rewrite_tensor(toy_dir / "model.lten", bad_toy / "model.lten", "block0.attn.q", lambda t: t.fill(0.0))
        assert main(compress_args(bad_toy, tmp_path / "run")) == 1
        assert "error: layer 'block0.attn.q' has an all-zero weight" in capsys.readouterr().err
        assert not (tmp_path / "run" / "plan.json").exists()


    def test_model_without_compressible_layers_exits_one(self, toy_dir, tmp_path, capsys):
        graph = ModelGraph(
            layers=[LayerSpec("embed", "embed", 24, 12), LayerSpec("head", "head", 10, 24)],
            blocks=[],
            hidden_size=24,
            meta={"in_dim": 12, "heads": 2},
        )
        path = tmp_path / "empty.lten"
        save_model(path, graph, {"embed": np.ones((24, 12)), "head": np.ones((10, 24))})
        args = compress_args(toy_dir, tmp_path / "run", "--set", f"paths.model={path}")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: model has no compressible layers" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "plan.json").exists()


LAYER = "compressed layer 'block0.attn.q'"


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

    def test_quant_noise_quantizes_each_weight_once(self, toy_dir, compressed_dir, monkeypatch):
        shapes = []
        real = pipeline.quantize
        monkeypatch.setattr(pipeline, "quantize", lambda m: shapes.append(m.shape) or real(m))
        assert main(self.verify_args(toy_dir, compressed_dir, "--quant-noise", "0.03")) == 0
        graph, _ = load_model(toy_dir / "model.lten")
        assert sorted(shapes) == sorted((l.rows, l.cols) for l in graph.layers)

    @pytest.mark.parametrize("ratio", ["-0.5", "-1", "nan", "inf", "-inf", "-1e-3", "-Infinity"])
    def test_quant_noise_out_of_range_exits_two_before_reading(self, toy_dir, compressed_dir, capsys, monkeypatch, ratio):
        def unreachable(*args):
            raise AssertionError("verify read its config before checking --quant-noise")

        monkeypatch.setattr(cli, "_config_from", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(self.verify_args(toy_dir, compressed_dir, "--quant-noise", ratio))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --quant-noise: must be a finite number >= 0, got '{ratio}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--quant", "--q"])
    def test_an_abbreviated_quant_noise_gets_the_range_message(self, toy_dir, compressed_dir, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.verify_args(toy_dir, compressed_dir, flag, "-inf"))
        assert exc.value.code == 2
        assert "argument --quant-noise: must be a finite number >= 0, got '-inf'" in capsys.readouterr().err

    def test_corrupted_index_is_rejected_when_read(self, toy_dir, compressed_dir, tmp_path, capsys):
        path = tmp_path / "corrupt.lten"
        rewrite_tensor(
            compressed_dir / "compressed.lten", path, "block0.attn.q.sparse.cols",
            lambda t: t.__setitem__((0, 0), 10_000),
        )
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: compressed layer 'block0.attn.q': kept column index out of range [0, 24)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "tensor,value",
        [("block0.attn.q.sparse.values", np.nan), ("block1.mlp.fc2.a", np.inf), ("block0.ln1.bias", -np.inf)],
        ids=["sparse_values_nan", "factor_inf", "layernorm_minus_inf"],
    )
    def test_non_finite_compressed_tensor_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, tensor, value):
        path = tmp_path / "compressed.lten"
        rewrite_tensor(compressed_dir / "compressed.lten", path, tensor, lambda t: t.flat.__setitem__(0, value))
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: tensor {tensor!r} contains non-finite entries\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda meta, t: meta["block0.attn.q"].update(g=0), LAYER + ": g must be an integer >= 1, got 0"),
            (lambda meta, t: meta["block0.attn.q"].pop("g"), LAYER + " has no field 'g'"),
            (sliced("a", np.s_[:, :-1]), "tensor 'block0.attn.q.a' has shape (24, 11), expected (24, 12)"),
            (sliced("b", np.s_[:, :-1]), "tensor 'block0.attn.q.b' has shape (12, 23), expected (12, 24)"),
            (
                sliced("sparse.values", np.s_[:-1]),
                "tensor 'block0.attn.q.sparse.values' has shape (23, 3), expected (24, 3)",
            ),
            (
                sliced("sparse.cols", np.s_[:, ::-1]),
                LAYER + ": kept column indices must be strictly increasing per chunk",
            ),
            (
                lambda meta, t: meta["block0.attn.q"].update(r=13),
                "tensor 'block0.attn.q.a' has shape (24, 12), expected (24, 13)",
            ),
            (
                lambda meta, t: t.update({"block0.attn.q.sparse.cols": t["block0.attn.q.sparse.cols"] + 0.5}),
                "tensor 'block0.attn.q.sparse.cols' holds f32, expected i32",
            ),
        ],
        ids=[
            "g_zero", "g_missing", "a_short", "b_narrow", "values_short", "cols_reversed", "manifest_r_off", "cols_f32"
        ],
    )
    def test_malformed_compressed_layer_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, edit, message):
        path = tmp_path / "compressed.lten"
        rewrite_compressed(compressed_dir / "compressed.lten", path, edit)
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    def test_layer_shape_mismatch_exits_one(self, toy_dir, compressed_dir, narrow_dir, capsys):
        # Same layer ids, other widths: the compressed model of a hidden-16 toy.
        capsys.readouterr()
        extra = ("--compressed", str(narrow_dir / "run" / "compressed.lten"))
        assert main(self.verify_args(toy_dir, compressed_dir, *extra)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: compressed/original model mismatch at layer(s): block0.attn.k, ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda plan: plan.update(alpha=[0.3]), "plan alpha must be a finite number, got [0.3]"),
            (lambda plan: plan.update(alpha=None), "plan alpha must be a finite number, got None"),
            (lambda plan: plan.update(psi_achieved="0.31"), "plan psi_achieved must be a finite number, got '0.31'"),
            (lambda plan: plan["layers"][0].update(error="x"), "error must be a finite number or null, got 'x'"),
            (lambda plan: plan["layers"][0].update(id=5), "plan layer 0: id must be a string, got 5"),
            (lambda plan: plan["layers"][0].update(eror=plan["layers"][0].pop("error")), " has unknown field 'eror'\n"),
            (lambda plan: plan.update(layer_count=12), "plan has unknown field 'layer_count'\n"),
        ],
        ids=["alpha_list", "alpha_null", "psi_string", "error_string", "id_int", "error_misspelt", "plan_unknown_key"],
    )
    def test_plan_field_of_wrong_type_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, edit, message):
        plan = json.loads((compressed_dir / "plan.json").read_text())
        edit(plan)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(self.verify_args(toy_dir, compressed_dir, "--plan", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: plan ")
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_plan_without_layer_errors_fails_fidelity(self, toy_dir, compressed_dir, tmp_path, capsys):
        # A layer's error may be null or absent in plan.json; verify must not read it as 0.
        plan = json.loads((compressed_dir / "plan.json").read_text())
        plan["layers"][0]["error"] = None
        del plan["layers"][3]["error"]
        missing = sorted([plan["layers"][0]["id"], plan["layers"][3]["id"]])
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(self.verify_args(toy_dir, compressed_dir, "--plan", str(path))) == 1
        captured = capsys.readouterr()
        assert f"[FAIL] reconstruction_fidelity: layer error not recorded for: {', '.join(missing)}\n" in captured.out
        assert captured.out.count("FAIL") == 1
        assert captured.err == ""

    def test_a_model_without_meta_in_dim_verifies_with_the_same_probe(self, toy_dir, compressed_dir, tmp_path, capsys):
        # The probe's row count comes from the embedding layer, which the forward checks.
        assert main(self.verify_args(toy_dir, compressed_dir)) == 0
        want = capsys.readouterr().out
        bad_toy = tmp_path / "toy"
        shutil.copytree(toy_dir, bad_toy)

        def drop_in_dim(manifest):
            del manifest["graph"]["meta"]["in_dim"]

        rewrite_manifest(bad_toy / "model.lten", drop_in_dim)
        assert main(self.verify_args(bad_toy, compressed_dir)) == 0
        captured = capsys.readouterr()
        assert captured.out == want
        assert captured.err == ""

    def test_plan_ranks_must_match_the_compressed_model(self, toy_dir, compressed_dir, tmp_path, capsys):
        # q and o are both hidden x hidden, so swapping their ranks keeps psi and the layer set.
        plan = json.loads((compressed_dir / "plan.json").read_text())
        layers = {l["id"]: l for l in plan["layers"]}
        q, o = layers["block0.attn.q"], layers["block0.attn.o"]
        assert q["r"] != o["r"]
        q["r"], o["r"] = o["r"], q["r"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(self.verify_args(toy_dir, compressed_dir, "--plan", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: plan/compressed model mismatch at layer(s): block0.attn.o, block0.attn.q\n"
        assert captured.out == ""

    def test_plan_params_must_count_the_layer(self, toy_dir, compressed_dir, tmp_path, capsys):
        # params = r (rows + cols) + rows d (docs/formats.md); psi is recomputed from the tensors, not from params.
        plan = json.loads((compressed_dir / "plan.json").read_text())
        plan["layers"][2]["params"] += 12345
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(self.verify_args(toy_dir, compressed_dir, "--plan", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: plan/compressed model mismatch at layer(s): {plan['layers'][2]['id']}\n"
        assert captured.out == ""

    def test_compressed_graph_must_run_the_original_architecture(self, toy_dir, compressed_dir, tmp_path, capsys):
        # The drift check would otherwise run a one-head model against the two-head original.
        path = tmp_path / "compressed.lten"
        shutil.copy(compressed_dir / "compressed.lten", path)

        def one_head(manifest):
            manifest["graph"]["meta"]["heads"] = "1"

        rewrite_manifest(path, one_head)
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: compressed/original graph mismatch (compressed vs original): meta.heads 1 vs 2\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "one_block,message",
        [
            ("plan", "plan/model mismatch"),
            ("original", "compressed/original model mismatch"),
            ("compressed", "compressed/original model mismatch"),
        ],
        ids=["plan", "original", "compressed"],
    )
    def test_layer_set_mismatch_exits_one(self, toy_dir, compressed_dir, one_block_dir, capsys, one_block, message):
        # One of the three artifacts comes from the one-block toy model.
        model_dir = one_block_dir if one_block == "original" else toy_dir
        extra = {
            "plan": ("--plan", str(one_block_dir / "run" / "plan.json")),
            "original": (),
            "compressed": ("--compressed", str(one_block_dir / "run" / "compressed.lten")),
        }[one_block]
        assert main(self.verify_args(model_dir, compressed_dir, *extra)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message} at layer(s): block1.attn.k, block1.attn.o,")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_compressed_layer_missing_a_tensor_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        manifest, tensors = read_container(compressed_dir / "compressed.lten")
        del tensors["block0.attn.q.a"]
        path = tmp_path / "compressed.lten"
        write_container(path, tensors, extra={k: v for k, v in manifest.items() if k != "tensors"})
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: no tensor 'block0.attn.q.a'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tensor", ["embed", "head", "block0.ln1.weight", "block1.ln2.bias"])
    def test_compressed_model_missing_a_dense_tensor_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, tensor):
        path = tmp_path / "compressed.lten"
        rewrite_compressed(compressed_dir / "compressed.lten", path, lambda meta, tensors: tensors.pop(tensor))
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: no tensor {tensor!r}\n"
        assert captured.out == ""

    def test_misshapen_layernorm_vector_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        path = tmp_path / "compressed.lten"
        rewrite_compressed(
            compressed_dir / "compressed.lten", path,
            lambda meta, tensors: tensors.update({"block0.ln1.bias": tensors["block0.ln1.bias"][None, :]}),
        )
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: tensor 'block0.ln1.bias' has shape (1, 24), expected (24,)\n"
        assert captured.out == ""

    def test_original_model_missing_a_layernorm_vector_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        manifest, tensors = read_container(toy_dir / "model.lten")
        del tensors["block1.ln2.bias"]
        write_container(tmp_path / "model.lten", tensors, extra={k: v for k, v in manifest.items() if k != "tensors"})
        shutil.copy(toy_dir / "calib.lten", tmp_path)
        assert main(self.verify_args(tmp_path, compressed_dir)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path}/model.lten: no tensor 'block1.ln2.bias'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "entries,message",
        [
            (lambda layers: list(layers.items()), "compressed_layers must be a JSON object, got list"),
            (
                lambda layers: {**layers, "block0.attn.q": [12, 3, 4]},
                "compressed layer 'block0.attn.q' must be a JSON object, got list",
            ),
        ],
        ids=["layers_list", "entry_list"],
    )
    def test_non_object_manifest_entry_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, entries, message):
        manifest, tensors = read_container(compressed_dir / "compressed.lten")
        extra = {k: v for k, v in manifest.items() if k != "tensors"}
        path = tmp_path / "compressed.lten"
        write_container(path, tensors, extra={**extra, "compressed_layers": entries(extra["compressed_layers"])})
        assert main(self.verify_args(toy_dir, compressed_dir, "--compressed", str(path))) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    def test_compressed_layer_missing_from_graph(self, compressed_dir, one_block_dir, tmp_path):
        manifest, tensors = read_container(compressed_dir / "compressed.lten")
        one_block_graph = read_container(one_block_dir / "run" / "compressed.lten")[0]["graph"]
        path = tmp_path / "compressed.lten"
        extra = {k: v for k, v in manifest.items() if k != "tensors"}
        write_container(path, tensors, extra={**extra, "graph": one_block_graph})
        with pytest.raises(ValueError, match="graph has no compressible layer.*block1.attn.k"):
            pipeline.load_compressed(path)


    @pytest.mark.parametrize("calibrated", [False, True], ids=["uncalibrated", "calibrated"])
    @pytest.mark.parametrize("noise", [None, 0.03], ids=["clean", "noise"])
    def test_walkthrough_lines_match_the_copy_holding_flow(self, walkthrough_dir, capsys, calibrated, noise):
        args = ["verify", "--set", f"paths.model={walkthrough_dir}/model.lten", "--out", str(walkthrough_dir / "run")]
        args += ["--set", f"paths.calibration={walkthrough_dir}/calib.lten"] if calibrated else []
        args += ["--quant-noise", str(noise)] if noise else []
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == copy_holding_verify_lines(walkthrough_dir, calibrated, noise)

    def test_verify_holds_one_dense_model_at_a_time(self, tmp_path):
        # The traced peak counts every array verify makes; one float64 copy of
        # the model's weights is the unit. One dense model at a time measures
        # 3.8 units here; holding the original and compressed models, the
        # quantized and noisy copies and every calibration activation at once
        # takes about 7.
        toy = tmp_path / "toy"
        assert main(["gen-toy", "--out", str(toy), "--seed", "4", "--hidden", "128", "--blocks", "3",
                     "--calib-tokens", "256"]) == 0
        assert main(compress_args(toy, toy / "run", "--set", "decomposition.iters=4",
                                  "--set", "decomposition.adapt_steps=2")) == 0
        graph, _ = load_model(toy / "model.lten")
        weight_bytes = sum(l.rows * l.cols * 8 for l in graph.layers)
        kwargs = dict(original_path=toy / "model.lten", compressed_path=toy / "run" / "compressed.lten",
                      plan_path=toy / "run" / "plan.json", calibration_path=toy / "calib.lten",
                      quant_noise_ratio=0.03, seed=0)
        pipeline.verify_artifacts(**kwargs)  # so that one-off imports and caches fall outside the trace
        tracemalloc.start()
        try:
            checks = pipeline.verify_artifacts(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.name for c in checks if c.passed] == [
            "condensed_matmul", "reconstruction_fidelity", "psi_recomputation", "distillation_drift", "quant_noise"]
        assert peak <= 5 * weight_bytes, f"peak {peak / weight_bytes:.2f}x the float64 weights"

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

    def test_report_on_a_plan_exits_one(self, compressed_dir, capsys):
        path = compressed_dir / "plan.json"
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"error: {path}: neither a simulate report nor a comparison" in captured.err
        assert captured.out == ""

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

    def test_comparison_with_a_number_for_a_side_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"), "--compare",
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        path = tmp_path / "comparison.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "baseline": 5}))
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: comparison baseline must be a JSON object, got int\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda data: data["per_layer"][2].pop("sparse_cycles"),
             "report layer 'block0.attn.k' has no field 'sparse_cycles'"),
            (lambda data: data["per_layer"][0]["energy_pj"].update(laser="1"),
             "report layer 'embed' energy_pj: laser must be a finite number, got '1'"),
            (lambda data: data.update(cycles=True), "report cycles must be an integer, got True"),
        ],
        ids=["layer_without_cycles", "energy_string", "cycles_bool"],
    )
    def test_malformed_report_exits_one(self, toy_dir, compressed_dir, tmp_path, capsys, edit, message):
        assert main([
            "simulate", "--plan", str(compressed_dir / "plan.json"),
            "--set", f"paths.model={toy_dir}/model.lten",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        path = tmp_path / "report.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**30) | st.sampled_from([0, 1, 4, 10**400]) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["2", "abc", "embed", "block0.attn.q"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)

# Each record: the file it sits in and the keys that lead to it there.
RECORDS = {
    "plan": ("plan", ()),
    "plan_layer": ("plan", ("layers", 3)),
    "graph": ("graph", ()),
    "graph_layer": ("graph", ("layers", 1)),
    "graph_block": ("graph", ("blocks", 0)),
    "graph_meta": ("graph", ("meta",)),
    "engine_config": ("engines", ()),
    "engine_block": ("engines", ("sparse",)),
    "engine_ptc": ("engines", ("dense", "ptc")),
    "energy_params": ("energy", ()),
    "compressed_layer_entry": ("compressed", ("block0.attn.q",)),
    "report": ("report", ()),
    "report_layer": ("report", ("per_layer", 2)),
    "report_layer_energies": ("report", ("per_layer", 2, "energy_pj")),
    "comparison": ("comparison", ()),
    "comparison_side": ("comparison", ("compressed",)),
}


@pytest.fixture(scope="module")
def report_dir(toy_dir, compressed_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main([
        "simulate", "--plan", str(compressed_dir / "plan.json"), "--compare",
        "--set", f"paths.model={toy_dir}/model.lten", "--set", "hardware.batch_tokens=24", "--out", str(out),
    ]) == 0
    return out


class TestRecordEdits:
    """One edit of one record in a valid file: an unknown key added, a key
    deleted, or a value swapped for another JSON value. Reading the file then
    succeeds or raises its reader's documented error, never another one."""

    def document(self, kind, toy_dir, compressed_dir, report_dir):
        if kind == "plan":
            return json.loads((compressed_dir / "plan.json").read_text())
        if kind == "graph":
            return read_container(toy_dir / "model.lten")[0]["graph"]
        if kind == "engines":
            return EngineConfig.default().to_json()
        if kind == "energy":
            return EnergyParams().to_json()
        if kind == "compressed":
            return read_container(compressed_dir / "compressed.lten")[0]["compressed_layers"]
        return json.loads((report_dir / f"{kind}.json").read_text())

    def read(self, kind, doc, tmp, compressed_dir) -> bool:
        """Read ``doc`` as its reader does; whether it was rejected with the reader's documented error."""
        path = Path(tmp, "record.json")
        path.write_text(json.dumps(doc))
        try:
            if kind == "plan":
                read_plan(path)
            elif kind == "graph":
                ModelGraph.from_json(doc)
            elif kind in ("engines", "energy"):
                (load_engine_config if kind == "engines" else load_energy_params)(path)
            elif kind == "compressed":
                manifest, tensors = read_container(compressed_dir / "compressed.lten")
                extra = {k: v for k, v in manifest.items() if k != "tensors"}
                write_container(Path(tmp, "c.lten"), tensors, extra={**extra, "compressed_layers": doc})
                pipeline.load_compressed(Path(tmp, "c.lten"))
            else:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = main(["report", str(path)])
                assert code in (0, 1)
                return code == 1
        except ConfigError:
            assert kind in ("engines", "energy")
            return True
        except ValueError:
            assert kind not in ("engines", "energy")
            return True
        return False

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("record", sorted(RECORDS))
    def test_an_edited_record_reads_or_raises_its_readers_error(
        self, toy_dir, compressed_dir, report_dir, record, data
    ):
        kind, keys = RECORDS[record]
        doc = self.document(kind, toy_dir, compressed_dir, report_dir)
        target = doc
        for key in keys:
            target = target[key]
        edit = data.draw(st.sampled_from(["add", "delete", "swap"]), label="edit")
        if edit == "add":
            target[data.draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in target), label="key")] = (
                data.draw(_JSON, label="value")
            )
        else:
            key = data.draw(st.sampled_from(sorted(target)), label="key")
            if edit == "delete":
                del target[key]
            else:
                target[key] = data.draw(_JSON, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            rejected = self.read(kind, doc, tmp, compressed_dir)
        assert rejected or edit != "add", "a record with an unknown field was read"
