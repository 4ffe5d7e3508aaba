"""Pipeline configuration: JSON file plus dotted command-line overrides."""
from __future__ import annotations

import json
import math

# Allowed ranges: (description, test). Float bounds exclude inf and NaN.
_UNIT_OPEN = ("in (0, 1)", lambda v: 0.0 < v < 1.0)
_UNIT_HALF_OPEN = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)
_POSITIVE = ("> 0", lambda v: 0.0 < v < math.inf)
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)

# Every config field: dotted name -> (type, default, allowed range). Fields
# whose default is None may be null; a range of None allows any value.
_FIELDS = {
    "paths.model": (str, None, None),
    "paths.calibration": (str, None, None),
    "paths.output": (str, "out", None),
    "targets.alpha": (float, 0.3, _UNIT_OPEN),
    "targets.sparse_ratio": (float, 0.125, _UNIT_OPEN),
    "targets.granularity": (int, 4, _AT_LEAST_ONE),
    "allocator.threshold": (float, 0.5, _UNIT_HALF_OPEN),
    "allocator.temperature": (float, 1.0, _POSITIVE),
    "allocator.basis_rank": (int, None, _AT_LEAST_ONE),
    "decomposition.iters": (int, 80, _AT_LEAST_ONE),
    "decomposition.adapt_steps": (int, 100, _NON_NEGATIVE),
    "decomposition.adapt_lr": (float, 1e-2, _POSITIVE),
    "hardware.engine_config": (str, None, None),
    "hardware.energy_params": (str, None, None),
    "hardware.batch_tokens": (int, 197, _AT_LEAST_ONE),
    "seed": (int, 0, _NON_NEGATIVE),
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Merge defaults <- config file <- ``key.path=value`` overrides."""
    cfg: dict = {}
    for dotted, (_, default, _) in _FIELDS.items():
        node, leaf = _slot(cfg, dotted)
        node[leaf] = default
    if path is not None:
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{path}: config must be a JSON object, got {file_cfg!r}")
        _merge(cfg, file_cfg, prefix="")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        key, _, value = item.partition("=")
        set_field(cfg, key.strip(), value.strip())
    _validate(cfg)
    return cfg


def _merge(dst: dict, src: dict, prefix: str) -> None:
    for key, value in src.items():
        dotted = f"{prefix}{key}"
        if isinstance(dst.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {dotted!r} must be a JSON object, got {value!r}")
            _merge(dst[key], value, prefix=f"{dotted}.")
        elif dotted in _FIELDS:
            dst[key] = _checked(dotted, value)
        else:
            raise ConfigError(f"unknown config field {dotted!r}")


def _checked(dotted: str, value):
    """``value`` as the field's type (an int is a valid float); ConfigError otherwise."""
    kind, default, _ = _FIELDS[dotted]
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        nullable = " or null" if default is None else ""
        raise ConfigError(f"config field {dotted!r} must be {kind.__name__}{nullable}, got {value!r}")
    return value


def set_field(cfg: dict, dotted: str, raw: str) -> None:
    if dotted not in _FIELDS:
        raise ConfigError(f"unknown config field {dotted!r}")
    kind = _FIELDS[dotted][0]
    try:
        value = None if raw in ("null", "none", "None") else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config field {dotted!r} must be {kind.__name__}, got {raw!r}") from exc
    node, leaf = _slot(cfg, dotted)
    node[leaf] = _checked(dotted, value)


def _slot(cfg: dict, dotted: str) -> tuple[dict, str]:
    """The section of ``cfg`` holding a dotted field (made if missing) and the field's key in it."""
    *parents, leaf = dotted.split(".")
    for part in parents:
        cfg = cfg.setdefault(part, {})
    return cfg, leaf


def _validate(cfg: dict) -> None:
    for dotted, (_, _, allowed) in _FIELDS.items():
        node, leaf = _slot(cfg, dotted)
        value = node[leaf]
        if allowed is not None and value is not None and not allowed[1](value):
            raise ConfigError(f"config field {dotted!r} must be {allowed[0]}, got {value!r}")
