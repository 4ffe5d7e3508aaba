"""Benchmark workloads and the jobs they run against opticomp's public API.

A workload is a seeded ``gen-toy`` model plus compress settings. Set-up runs
``opticomp gen-toy``; each loop iteration then runs

* the pipeline: README walkthrough steps 2-4, i.e. compress, simulate
  ``--compare`` and verify ``--quant-noise 0.03``;
* a block of ``verify_reps`` verify jobs, then a block of ``dse_reps`` dse
  jobs, on the plan it wrote. A dse job is a design-space sweep of
  ``simulate`` over engine configurations, batch sizes and the broadcast /
  ADC-sharing switches, plus a functional PTC execution of every compressed
  layer.

Every output is checked, outside the timed calls; each check is one
attempted operation.
"""
from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from opticomp import cli, config, model, photonic, pipeline, util, vit

QUANT_NOISE = 0.03
# (dense tiles, PTC size, sparse tiles); each is compared with a dense-only
# engine of two more tiles, as EngineConfig.baseline_scaled does for the
# default (first) entry.
ENGINE_VARIANTS = ((4, 12, 3), (6, 12, 2), (4, 16, 3), (8, 8, 4))


@dataclass(frozen=True)
class Workload:
    name: str
    gen_toy: tuple[str, ...]  # extra `opticomp gen-toy` arguments
    overrides: tuple[str, ...]  # compress config overrides
    # Verify and dse jobs per block, one block each per loop iteration. A
    # single verify or dse job takes tens to hundreds of milliseconds, and
    # host speed on a small shared machine flickers on that scale; a block of
    # about a second, timed as a whole, averages the flicker out as the
    # length of a compress does.
    verify_reps: int
    dse_reps: int
    dse_batches: tuple[int, ...]
    functional_batch: int


# 512 samples of 4 tokens. top1_acc differs from model to model; on
# hidden-128 models its spread across seeds was about 10% with 4-token
# samples against about 22% with gen-toy's default 16 tokens.
DATASET = ("--samples", "512", "--tokens", "4")

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="wide",
            gen_toy=("--hidden", "128", "--blocks", "3", "--calib-tokens", "256", *DATASET),
            overrides=("targets.alpha=0.3", "targets.granularity=4", "decomposition.iters=12", "decomposition.adapt_steps=20"),
            verify_reps=16,
            dse_reps=8,
            dse_batches=(197,),
            functional_batch=16,
        ),
        Workload(
            name="longcalib",
            gen_toy=("--hidden", "48", "--blocks", "2", "--calib-tokens", "1536", *DATASET),
            overrides=("targets.alpha=0.3", "targets.granularity=1", "decomposition.iters=10"),
            verify_reps=4,
            dse_reps=40,
            dse_batches=(197,),
            functional_batch=16,
        ),
        Workload(
            name="dse",
            gen_toy=("--hidden", "64", "--blocks", "2", "--calib-tokens", "256", *DATASET),
            overrides=("targets.alpha=0.3", "targets.granularity=4", "decomposition.iters=8", "decomposition.adapt_steps=20"),
            verify_reps=40,
            dse_reps=10,
            dse_batches=(1, 64, 197, 512),
            functional_batch=64,
        ),
    )
}


def smoke(wl: Workload) -> Workload:
    """The same workload at a tiny size, for a quick end-to-end check."""
    return replace(
        wl,
        gen_toy=("--hidden", "24", "--blocks", "1", "--calib-tokens", "64", "--samples", "8", "--in-dim", "12"),
        overrides=wl.overrides + ("decomposition.iters=2", "decomposition.adapt_steps=3"),
        verify_reps=1,
        dse_reps=1,
        dse_batches=wl.dse_batches[:2],
        functional_batch=8,
    )


class Checks:
    """Attempted operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Artifacts:
    inputs: Path  # model.lten, calib.lten, data.lten
    run: Path | None = None  # compressed.lten, plan.json
    sim: dict | None = None  # sim_cycles, sim_energy_pj, sim_edp_ratio


def gen_inputs(wl: Workload, inputs: Path, seed: int, checks: Checks) -> Artifacts:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen-toy", "--out", str(inputs), "--seed", str(seed), *wl.gen_toy])
    checks.expect(code == 0, f"gen-toy exited {code}")
    return Artifacts(inputs=inputs)


def pipeline_job(wl: Workload, art: Artifacts, run: Path, seed: int, checks: Checks, clock) -> Artifacts:
    """compress -> simulate --compare -> verify, timed on ``clock`` as
    ``pipeline_s`` with ``compress_s`` inside it."""
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    model_path, calib_path = art.inputs / "model.lten", art.inputs / "calib.lten"
    cfg = config.load_config(
        None,
        [f"paths.model={model_path}", f"paths.calibration={calib_path}", f"paths.output={run}", f"seed={seed}", *wl.overrides],
    )
    run_art = replace(art, run=run)
    with clock.sample("pipeline_s"):
        with clock.sample("compress_s"):
            engines, params = pipeline.hardware_from_config(cfg)
            graph, tensors, compressed, plan, summary = pipeline.compress_model(cfg, engines)
            pipeline.save_compressed(run / "compressed.lten", graph, tensors, compressed)
            pipeline.write_plan(run / "plan.json", plan)
        stored = pipeline.read_plan(run / "plan.json")
        graph_m, _ = model.load_model(model_path)
        batch = cfg["hardware"]["batch_tokens"]
        base = photonic.simulate(None, graph_m, photonic.EngineConfig.baseline_scaled(), params, batch)
        comp = photonic.simulate(stored, graph_m, engines, params, batch)
        cmp = photonic.comparison(base, comp)
        results = _verify(run_art, seed)
    run_art.sim = {"sim_cycles": comp.cycles, "sim_energy_pj": comp.total_energy, "sim_edp_ratio": cmp["edp_ratio"]}
    _check_verify(results, checks)

    checks.expect(summary["psi_achieved"] >= cfg["targets"]["alpha"], f"psi {summary['psi_achieved']} below alpha")
    _expect_report(checks, comp, "compressed report")
    _expect_report(checks, base, "baseline report")
    checks.expect(math.isfinite(cmp["edp_ratio"]) and cmp["edp_ratio"] > 0, "edp ratio not finite and positive")
    return run_art


def _verify(art: Artifacts, seed: int) -> list:
    """verify with calibration and quant noise."""
    return pipeline.verify_artifacts(
        original_path=art.inputs / "model.lten",
        compressed_path=art.run / "compressed.lten",
        plan_path=art.run / "plan.json",
        calibration_path=art.inputs / "calib.lten",
        quant_noise_ratio=QUANT_NOISE,
        seed=seed,
    )


def verify_block(wl: Workload, art: Artifacts, seed: int, checks: Checks, clock) -> None:
    """``wl.verify_reps`` verify jobs back to back, one ``verify_s`` sample
    on ``clock``; then checks every result."""
    for results in clock.block("verify_s", lambda: _verify(art, seed), wl.verify_reps):
        _check_verify(results, checks)


def _check_verify(results: list, checks: Checks) -> None:
    for c in results:
        checks.expect(c.passed, f"verify {c.name}: {c.detail}")
    checks.expect({c.name for c in results} >= {"condensed_matmul", "reconstruction_fidelity", "psi_recomputation",
                                                "distillation_drift", "quant_noise"}, "verify skipped a check")


def _expect_report(checks: Checks, rep, what: str) -> None:
    energies = list(rep.energy.values())
    checks.expect(
        rep.cycles > 0 and all(math.isfinite(e) and e >= 0 for e in energies) and rep.total_energy > 0,
        f"{what}: cycles {rep.cycles}, energies {energies}",
    )


def _dense_sparse(sp) -> np.ndarray:
    """Reference scatter of a condensed sparse component, chunk by chunk."""
    out = np.zeros((sp.full_rows, sp.full_cols))
    for i in range(sp.num_chunks):
        lo, hi = sp.chunk_rows(i)
        out[lo:hi, sp.kept_cols[i]] = sp.condensed[lo:hi]
    return out


def _engines(tiles: int, dim: int, sparse_tiles: int):
    ptc = photonic.PtcConfig(dim, dim, dim)
    sparse_ptc = photonic.PtcConfig(8, dim, dim)
    eng = photonic.EngineConfig(
        dense=photonic.EngineBlock(tiles, 2, ptc), sparse=photonic.EngineBlock(sparse_tiles, 2, sparse_ptc)
    )
    base = photonic.EngineConfig(
        dense=photonic.EngineBlock(tiles + 2, 2, ptc), sparse=photonic.EngineBlock(0, 1, sparse_ptc)
    )
    return eng, base


def functional_probes(wl: Workload, art: Artifacts, seed: int) -> dict:
    """Seeded inputs and numpy reference outputs for every compressed layer
    of ``art``; made once per run, outside the timed jobs."""
    _, compressed, _ = pipeline.load_compressed(art.run / "compressed.lten")
    rng = util.philox_rng(seed, 11)
    probes = {}
    for lid, cl in compressed.items():
        x = rng.standard_normal((cl.b.shape[1], wl.functional_batch))
        probes[lid] = (x, cl.a @ (cl.b @ x) + _dense_sparse(cl.sparse) @ x)
    return probes


def dse_block(wl: Workload, art: Artifacts, probes: dict, checks: Checks, clock) -> None:
    """``wl.dse_reps`` dse jobs back to back, one ``dse_s`` sample on
    ``clock``; then checks every output."""
    for sweep, outputs in clock.block("dse_s", lambda: _dse(wl, art, probes), wl.dse_reps):
        _check_dse(sweep, outputs, probes, checks)


def _dse(wl: Workload, art: Artifacts, probes: dict) -> tuple[dict, dict]:
    """One design-space sweep plus functional PTC execution of every compressed layer."""
    graph, _ = model.load_model(art.inputs / "model.lten")
    plan = pipeline.read_plan(art.run / "plan.json")
    _, compressed, _ = pipeline.load_compressed(art.run / "compressed.lten")
    params = photonic.EnergyParams()
    sweep = {}
    for tiles, dim, sparse_tiles in ENGINE_VARIANTS:
        eng, base_eng = _engines(tiles, dim, sparse_tiles)
        for batch in wl.dse_batches:
            reps = {
                (bc, adc): photonic.simulate(
                    plan, graph, replace(eng, broadcast_enabled=bc, adc_sharing_enabled=adc), params, batch
                )
                for bc in (True, False)
                for adc in (True, False)
            }
            base = photonic.simulate(None, graph, base_eng, params, batch)
            ratio = photonic.comparison(base, reps[True, True])["edp_ratio"]
            sweep[f"engine {tiles}x{dim}+{sparse_tiles} batch {batch}"] = reps, ratio
    outputs = {}
    for lid, cl in compressed.items():
        x = probes[lid][0]
        for dim in sorted({dim for _, dim, _ in ENGINE_VARIANTS}):
            ptc = photonic.PtcConfig(dim, dim, dim)
            y = photonic.ptc_layer_matmul(cl.a, photonic.ptc_layer_matmul(cl.b, x, ptc), ptc)
            outputs[lid, dim] = y + photonic.condensed_matmul(cl.sparse, x)
    return sweep, outputs


def _check_dse(sweep: dict, outputs: dict, probes: dict, checks: Checks) -> None:
    for where, (reps, ratio) in sweep.items():
        for rep in reps.values():
            _expect_report(checks, rep, where)
        checks.expect(len({rep.cycles for rep in reps.values()}) == 1, f"{where}: cycles depend on energy switches")
        for flag in (True, False):
            checks.expect(
                reps[True, flag].energy["input_encode"] <= reps[False, flag].energy["input_encode"],
                f"{where}: broadcast raised input-encode energy",
            )
            checks.expect(
                reps[flag, True].energy["readout"] <= reps[flag, False].energy["readout"],
                f"{where}: ADC sharing raised readout energy",
            )
        checks.expect(math.isfinite(ratio) and ratio > 0, f"{where}: edp ratio {ratio}")
    checks.expect(set(probes) == {lid for lid, _ in outputs}, "functional execution covered other layers")
    for (lid, dim), y in outputs.items():
        ref = probes[lid][1]
        tol = 1e-9 * (1.0 + float(np.abs(ref).max()))
        err = float(np.abs(y - ref).max())
        checks.expect(err <= tol, f"{lid} PTC {dim}: functional error {err:.3e} > {tol:.3e}")


def quality(art: Artifacts, checks: Checks) -> dict:
    """Deterministic quality of the compressed model; not timed."""
    plan = pipeline.read_plan(art.run / "plan.json")
    errors = [pl.error for pl in plan.layers]
    graph_o, tensors_o = model.load_model(art.inputs / "model.lten")
    graph_c, compressed, others = pipeline.load_compressed(art.run / "compressed.lten")
    model_o = vit.ToyViT.from_tensors(graph_o, tensors_o)
    model_c = vit.ToyViT.from_tensors(graph_c, pipeline.effective_tensors(graph_c, compressed, others))
    data = vit.load_dataset(art.inputs / "data.lten")
    logits_o = np.stack([vit.forward(model_o, x)[0] for x in data.inputs])
    logits_c = np.stack([vit.forward(model_c, x)[0] for x in data.inputs])
    checks.expect(bool(np.all(np.argmax(logits_o, axis=1) == data.labels)), "labels are not the original's argmax")
    drift = vit.logit_loss(logits_c, logits_o, data.labels)
    top1 = vit.evaluate(model_c, data)
    checks.expect(top1 == float(np.mean(np.argmax(logits_c, axis=1) == data.labels)), f"top-1 accuracy {top1}")
    return {
        "psi": plan.psi_achieved,
        "layer_err_mean": float(np.mean(errors)),
        "layer_err_max": float(np.max(errors)),
        "logit_drift": drift,
        "top1_acc": top1,
        **art.sim,
    }
