"""Shared helpers: array coercion, JSON record checks, reproducible random streams."""
from __future__ import annotations

import sys

import numpy as np

# What a JSON value must be, as (its description, its test). A finite number
# is one a float holds: no NaN or infinity, and no integer beyond the float range.
FINITE = ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
NON_NEGATIVE = ("a finite number >= 0", lambda v: FINITE[1](v) and v >= 0)
POSITIVE = ("a finite number > 0", lambda v: FINITE[1](v) and v > 0)
INTEGER = ("an integer", lambda v: type(v) is int)
NATURAL = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
BOOL = ("a boolean", lambda v: type(v) is bool)
STRING = ("a string", lambda v: type(v) is str)
LIST = ("a list", lambda v: type(v) is list)
OBJECT = ("a JSON object", lambda v: type(v) is dict)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce outside data to a C-contiguous float64 2-D array, rejecting
    non-finite entries: the one scan of an array a caller hands in."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def nullable(kind: tuple) -> tuple:
    """``kind``, or null."""
    return (f"{kind[0]} or null", lambda v: v is None or kind[1](v))


def check(value, kind: tuple, what: str, error=ValueError):
    """``value`` if it passes ``kind``'s test; ``error`` saying what ``what``
    must be otherwise (a value that should be an object is named by its type)."""
    meaning, ok = kind
    if not ok(value):
        got = type(value).__name__ if kind is OBJECT else repr(value)
        raise error(f"{what} must be {meaning}, got {got}")
    return value


def from_text(text: str, kind: tuple):
    """A command-line value: null, or the first of its readings as an integer,
    a float and text that ``kind`` allows (its first reading if none is)."""
    if text in ("null", "none", "None"):
        return None
    readings = []
    for parse in (int, float, str):
        try:
            readings.append(parse(text))
        except ValueError:
            pass
    return next((v for v in readings if kind[1](v)), readings[0])


def read_record(obj, table: dict, where: str, error=ValueError, optional=()) -> dict:
    """The fields of the JSON object ``obj``, each checked against ``table``
    (field -> (description, test)); ``error`` naming ``where`` and the field
    otherwise. Every field the table lists is required unless ``optional``
    names it (an absent one is left out), and a field it does not list is an
    error. ``where`` names the record: the file's own ("plan") or one inside
    it, ending in ":" ("plan layer 0:"); a record's "id", once read, names it
    in place of its index."""
    name = where.rstrip(":")
    check(obj, OBJECT, name, error)
    values = {}
    for field, kind in table.items():
        if field in obj:
            values[field] = check(obj[field], kind, f"{where} {field}", error)
            if field == "id":
                name = f"{name.rsplit(' ', 1)[0]} {obj[field]!r}"
                where = f"{name}:"
        elif field not in optional:
            raise error(f"{name} has no field {field!r}")
    for field in obj:
        if field not in table:
            raise error(f"{name} has unknown field {field!r}")
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
