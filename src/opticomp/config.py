"""Pipeline configuration: JSON file plus dotted command-line overrides."""
from __future__ import annotations

import json

from .util import COUNT, FINITE, NATURAL, OBJECT, STRING, check, from_text, nullable

# Allowed values beyond util's: (description, test). Float bounds exclude inf and NaN.
_UNIT_OPEN = ("a number in (0, 1)", lambda v: FINITE[1](v) and 0.0 < v < 1.0)
_PATH = nullable(STRING)

# Every config field: dotted name -> (allowed values, default). A field with
# a float default holds a float, also when given an integer.
_FIELDS = {
    "paths.model": (_PATH, None),
    "paths.calibration": (_PATH, None),
    "paths.output": (STRING, "out"),
    "targets.alpha": (_UNIT_OPEN, 0.3),
    "targets.sparse_ratio": (_UNIT_OPEN, 0.125),
    "targets.granularity": (COUNT, 4),
    "decomposition.iters": (COUNT, 80),
    "decomposition.adapt_steps": (NATURAL, 100),
    "hardware.engine_config": (_PATH, None),
    "hardware.energy_params": (_PATH, None),
    "hardware.batch_tokens": (COUNT, 197),
    "seed": (NATURAL, 0),
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Merge defaults <- config file <- ``key.path=value`` overrides; each
    value is checked once, as it is set."""
    cfg: dict = {}
    for dotted, (_, default) in _FIELDS.items():
        node, leaf = _slot(cfg, dotted)
        node[leaf] = default
    if path is not None:
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        _merge(cfg, check(file_cfg, OBJECT, f"{path}: config", ConfigError), f"{path}: ", prefix="")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, _, text = (part.strip() for part in item.partition("="))
        if dotted not in _FIELDS:
            raise ConfigError(f"unknown config field {dotted!r}")
        node, leaf = _slot(cfg, dotted)
        node[leaf] = _checked(dotted, from_text(text, _FIELDS[dotted][0]))
    return cfg


def _merge(dst: dict, src: dict, source: str, prefix: str) -> None:
    for key, value in src.items():
        dotted = f"{prefix}{key}"
        if dotted in _FIELDS:
            dst[key] = _checked(dotted, value, source)
        elif key in dst:  # a section: every other key of dst is one
            section = check(value, OBJECT, f"{source}config section {dotted!r}", ConfigError)
            _merge(dst[key], section, source, prefix=f"{dotted}.")
        else:
            raise ConfigError(f"{source}unknown config field {dotted!r}")


def _checked(dotted: str, value, source: str = ""):
    """``value`` if the field allows it; ConfigError naming ``source`` and the field otherwise."""
    allowed, default = _FIELDS[dotted]
    check(value, allowed, f"{source}config field {dotted!r}", ConfigError)
    return float(value) if type(default) is float else value


def _slot(cfg: dict, dotted: str) -> tuple[dict, str]:
    """The section of ``cfg`` holding a dotted field (made if missing) and the field's key in it."""
    *parents, leaf = dotted.split(".")
    for part in parents:
        cfg = cfg.setdefault(part, {})
    return cfg, leaf
