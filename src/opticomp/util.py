"""Shared helpers: array coercion, JSON field checks, reproducible random streams."""
from __future__ import annotations

import math

import numpy as np

# What a JSON field must be, as (its description, its test).
FINITE = ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v))
INTEGER = ("an integer", lambda v: type(v) is int)
COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
STRING = ("a string", lambda v: type(v) is str)
LIST = ("a list", lambda v: type(v) is list)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce outside data to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_finite(m: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"non-finite values produced by {context}")
    return m


def read_record(obj, table: dict, where: str) -> dict:
    """The fields ``table`` lists (field -> (description, test)) of the JSON
    object ``obj``, each checked; ValueError naming ``where`` and the field
    otherwise. A field whose test accepts None may be absent (read as None).
    ``where`` starts with the kind of file; a record's "id" names it."""
    if type(obj) is not dict:
        raise ValueError(f"{where.rstrip(':')} must be a JSON object, got {type(obj).__name__}")
    values = {}
    for name, (meaning, ok) in table.items():
        if name not in obj and not ok(None):
            raise ValueError(f"{where.split()[0]} has no field {name!r}")
        value = values[name] = obj.get(name)
        if not ok(value):
            raise ValueError(f"{where} {name} must be {meaning}, got {value!r}")
        if name == "id":
            where = f"{where.split()[0]} layer {value!r}:"
    return values


def philox_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox4x32-10 generator keyed on (seed, *key).

    Philox is splittable: distinct keys give independent, reproducible
    streams, so per-layer / per-tensor randomness does not depend on
    call order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def stable_key(text: str) -> int:
    """Deterministic 32-bit key for a string (FNV-1a), platform independent."""
    h = 2166136261
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h
