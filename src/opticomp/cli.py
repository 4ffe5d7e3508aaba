"""Command-line pipeline driver.

Verbs: gen-toy, compress, simulate, verify, report. Every config field
can be overridden with ``--set section.field=value``. Exit codes: 0
success, 1 failed invariant or pipeline error, 2 usage/config error or a
file that is missing or cannot be read.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import ConfigError, load_config
from .container import write_container
from .model import load_model, save_model
from .photonic import EngineConfig, comparison, read_report, simulate
from .pipeline import (
    compress_model,
    hardware_from_config,
    read_plan,
    save_compressed,
    verify_artifacts,
    write_plan,
)
from .util import COUNT, NATURAL, NON_NEGATIVE, from_text, philox_rng
from .vit import build_toy_graph, gen_toy_dataset, gen_toy_model, save_dataset


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON pipeline config")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config field by dotted name, e.g. targets.alpha=0.4")
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("--out", help="shorthand for --set paths.output=DIR")


def _config_from(args) -> dict:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"paths.output={args.out}")
    return load_config(args.config, overrides)


def _arg(kind):
    """argparse type: a value ``kind`` allows, read as ``--set`` values are."""

    def parse(text: str):
        value = from_text(text, kind)
        if not kind[1](value):
            raise argparse.ArgumentTypeError(f"must be {kind[0]}, got {text!r}")
        return value

    return parse


class UsageError(Exception):
    """A command-line value that cannot be used; exit 2."""


def _output_dir(path) -> Path:
    """Create the output directory before any work, so that a path that
    cannot be one (a plain file, say) is a usage error, not a lost run."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _require_paths(cfg: dict, verb: str, *names: str) -> None:
    """ConfigError naming the first ``paths.<name>`` left null; called before any file is read."""
    for name in names:
        if cfg["paths"][name] is None:
            raise ConfigError(f"{verb} needs config field 'paths.{name}'; set it with --set paths.{name}=PATH")


def cmd_gen_toy(args) -> int:
    if args.hidden % args.heads:
        raise UsageError(f"--hidden {args.hidden} is not divisible by --heads {args.heads}")
    out = _output_dir(args.out or "toy")
    graph = build_toy_graph(
        hidden=args.hidden, heads=args.heads, mlp_ratio=args.mlp_ratio,
        blocks=args.blocks, classes=args.classes, in_dim=args.in_dim,
    )
    tensors = gen_toy_model(graph, seed=args.seed)
    save_model(out / "model.lten", graph, tensors)

    calib = philox_rng(args.seed, 7).normal(0.0, 1.0, size=(args.in_dim, args.calib_tokens))
    write_container(out / "calib.lten", {"inputs": calib}, extra={"kind": "calibration_inputs"})

    dataset = gen_toy_dataset(graph, tensors, samples=args.samples, tokens=args.tokens, seed=args.seed)
    save_dataset(out / "data.lten", dataset)
    print(f"wrote {out}/model.lten, calib.lten ({args.calib_tokens} tokens), data.lten ({args.samples} samples)")
    return 0


def cmd_compress(args) -> int:
    cfg = _config_from(args)
    _require_paths(cfg, "compress", "model", "calibration")
    engines, _ = hardware_from_config(cfg)
    out = _output_dir(cfg["paths"]["output"])
    start = time.perf_counter()
    graph, tensors, compressed, plan, summary = compress_model(cfg, engines)
    wall = time.perf_counter() - start

    save_compressed(out / "compressed.lten", graph, tensors, compressed)
    write_plan(out / "plan.json", plan)
    (out / "run_meta.json").write_text(json.dumps({"wall_time_s": wall, "seed": cfg["seed"]}) + "\n")

    print(f"psi achieved: {summary['psi_achieved']:.4f} (target alpha {summary['alpha']})")
    for lid, info in summary["layers"].items():
        print(f"  {lid}: r={info['r']} d={info['d']}")
    print(f"wall time: {wall:.2f}s; artifacts in {out}/")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from(args)
    _require_paths(cfg, "simulate", "model")
    engines, params = hardware_from_config(cfg)
    if bool(args.plan) == args.baseline:
        raise UsageError("provide exactly one of --plan PATH or --baseline")
    if args.compare and not args.plan:
        raise UsageError("--compare needs --plan")
    out = _output_dir(cfg["paths"]["output"])
    graph, _ = load_model(cfg["paths"]["model"])
    batch = cfg["hardware"]["batch_tokens"]
    plan = read_plan(args.plan) if args.plan else None

    report = simulate(plan, graph, engines, params, batch)
    _write_json(out / "report.json", report.to_json())
    report.write_csv(out / "report.csv")
    if not args.compare:
        print(f"total energy: {report.total_energy:.3e} pJ, cycles: {report.cycles}, EDP: {report.edp:.3e} pJ*s")
        return 0
    base_engines = EngineConfig.baseline_scaled() if cfg["hardware"]["engine_config"] is None else engines
    base = simulate(None, graph, base_engines, params, batch)
    cmp_data = comparison(base, report)
    _write_json(out / "report_baseline.json", base.to_json())
    _write_json(out / "comparison.json", cmp_data)
    print(f"EDP ratio (baseline / compressed): {cmp_data['edp_ratio']:.3f}")
    print(f"energy ratio: {cmp_data['energy_ratio']:.3f}, latency ratio: {cmp_data['latency_ratio']:.3f}")
    return 0


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    _require_paths(cfg, "verify", "model")
    out = Path(cfg["paths"]["output"])
    checks = verify_artifacts(
        original_path=cfg["paths"]["model"],
        compressed_path=args.compressed or out / "compressed.lten",
        plan_path=args.plan or out / "plan.json",
        calibration_path=cfg["paths"]["calibration"],
        quant_noise_ratio=args.quant_noise,
        seed=cfg["seed"],
    )
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    return 1 if failed else 0


def cmd_report(args) -> int:
    data = read_report(args.report)
    if "edp_ratio" in data:
        print(f"{'metric':<18}{'baseline':>16}{'compressed':>16}{'ratio':>10}")
        for metric, key in (("energy (pJ)", "energy_pj"), ("latency (s)", "latency_s"), ("EDP (pJ*s)", "edp_pj_s")):
            b, c = data["baseline"][key], data["compressed"][key]
            print(f"{metric:<18}{b:>16.4e}{c:>16.4e}{b / c:>10.3f}")
        return 0
    print(f"total energy: {data['total_energy_pj']:.4e} pJ over {data['cycles']} cycles")
    for comp, value in sorted(data["energy_pj"].items()):
        print(f"  {comp:<16}{value:>16.4e} pJ")
    print(f"{'layer':<20}{'dense cyc':>12}{'sparse cyc':>12}  {'bound':<8}top energy")
    for layer in data["per_layer"]:
        dense, sparse = layer["dense_cycles"], layer["sparse_cycles"]
        bound = "tie" if dense == sparse else "dense" if dense > sparse else "sparse"
        top = max(sorted(layer["energy_pj"]), key=layer["energy_pj"].get)
        print(f"{layer['id']:<20}{dense:>12}{sparse:>12}  {bound:<8}{top}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opticomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-toy", help="generate a seeded toy model + calibration + dataset")
    p.add_argument("--out", default="toy")
    p.add_argument("--seed", type=_arg(NATURAL), default=0)
    p.add_argument("--hidden", type=_arg(COUNT), default=48)
    p.add_argument("--heads", type=_arg(COUNT), default=4)
    p.add_argument("--mlp-ratio", type=_arg(COUNT), default=2)
    p.add_argument("--blocks", type=_arg(COUNT), default=2)
    p.add_argument("--classes", type=_arg(COUNT), default=10)
    p.add_argument("--in-dim", type=_arg(COUNT), default=24)
    p.add_argument("--calib-tokens", type=_arg(COUNT), default=256)
    p.add_argument("--samples", type=_arg(COUNT), default=64)
    p.add_argument("--tokens", type=_arg(COUNT), default=16)
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("compress", help="run the full compression pipeline")
    _add_config_args(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("simulate", help="cost-model a plan (or dense baseline)")
    _add_config_args(p)
    p.add_argument("--plan", help="plan JSON from compress")
    p.add_argument("--baseline", action="store_true", help="simulate the uncompressed model")
    p.add_argument("--compare", action="store_true", help="emit baseline vs compressed comparison")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check compressed artifacts against the original")
    _add_config_args(p)
    p.add_argument("--compressed", help="compressed model path (default: <out>/compressed.lten)")
    p.add_argument("--plan", help="plan path (default: <out>/plan.json)")
    p.add_argument("--quant-noise", type=_arg(NON_NEGATIVE), default=None,
                   help="also evaluate 8-bit quantization with this noise ratio (finite, >= 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="pretty-print a report or comparison JSON")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)
    return parser


def _attach_numeric_values(argv: list[str]) -> list[str]:
    """Write ``--quant-noise VALUE`` as ``--quant-noise=VALUE`` when VALUE is
    a number; an abbreviation argparse accepts (``--quant``) is treated the
    same way. argparse takes a value such as ``-inf`` or ``-1e-3`` for an
    option; attached, it reaches the option's range check."""
    out: list[str] = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--quant-noise".startswith(out[-1]):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_numeric_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that names a directory, or a file that cannot be read
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
