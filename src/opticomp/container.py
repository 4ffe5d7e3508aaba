"""LTEN v1 tensor container.

Layout, all little-endian:

    bytes 0..3    magic ``LTEN`` (ASCII)
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..15   manifest byte length, uint64
    manifest      UTF-8 JSON object; ``manifest["tensors"]`` is a list of
                  ``{name, dtype, shape, byte_offset, byte_len}`` entries
                  with byte_offset relative to the start of the blob region
    blob          raw tensor data, each tensor aligned to a 64-byte boundary

Supported dtypes are ``f32`` (little-endian float32) and ``i32``
(little-endian int32). Extra manifest keys (e.g. a model graph) ride along
untouched. Round trips are bit-exact, NaN and infinity included:
``read_container`` checks the format only. What a kind of file must hold is
its table, ``name -> (dtype, shape)``, checked by ``check_tensors``.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .util import INTEGER, LIST, OBJECT, STRING, check, read_record

MAGIC = b"LTEN"
VERSION = 1
ALIGNMENT = 64

_DTYPES = {"f32": np.dtype("<f4"), "i32": np.dtype("<i4")}


class ContainerError(Exception):
    """Base class for LTEN container failures."""


class BadMagicError(ContainerError):
    pass


class VersionMismatchError(ContainerError):
    pass


class TruncatedBlobError(ContainerError):
    pass


class ShapeDisagreementError(ContainerError):
    """Manifest entry and blob extent disagree about a tensor's size."""


class DuplicateTensorError(ContainerError):
    """Two manifest entries share a tensor name."""


class NegativeExtentError(ContainerError):
    """A manifest entry has a negative byte offset, byte length or dimension."""


class OverlappingTensorsError(ContainerError):
    """Two tensors' byte extents share bytes of the blob."""


_STORED = {"f": "f32", "i": "i32", "u": "i32"}  # numpy dtype kind -> the dtype it is stored as


def _dtype_name(arr: np.ndarray) -> str:
    if arr.dtype.kind not in _STORED:
        raise ContainerError(f"unsupported tensor dtype {arr.dtype}")
    return _STORED[arr.dtype.kind]


def write_container(path, tensors: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write tensors (name -> array) plus optional extra manifest keys.

    Float arrays are stored as f32 and integer arrays as i32; tensor order
    in the file is sorted by name so identical inputs produce identical
    bytes.
    """
    entries = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        dtype = _dtype_name(arr)
        data = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes()
        pad = (-offset) % ALIGNMENT
        offset += pad
        blobs.append((pad, data))
        entries.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "byte_offset": offset,
                "byte_len": len(data),
            }
        )
        offset += len(data)

    manifest = dict(extra or {})
    manifest["tensors"] = entries
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest_bytes)))
        fh.write(manifest_bytes)
        for pad, data in blobs:
            fh.write(b"\x00" * pad)
            fh.write(data)


# A manifest's tensor entry: field -> (description, test), checked by
# ``util.read_record``.
_SHAPE = ("a list of integers", lambda v: LIST[1](v) and all(INTEGER[1](n) for n in v))
_ENTRY_FIELDS = {"name": STRING, "dtype": STRING, "shape": _SHAPE, "byte_offset": INTEGER, "byte_len": INTEGER}


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an LTEN file, returning (manifest, tensors).

    f32 tensors come back as float32 arrays and i32 as int32; promotion to
    float64 is left to the caller so storage bits stay inspectable. They are
    read-only views of the file's bytes, held once, so a kept tensor keeps
    the whole file's bytes alive.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise TruncatedBlobError(f"{path}: file shorter than the 16-byte header")
    if raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise VersionMismatchError(f"{path}: container version {version}, expected {VERSION}")
    (manifest_len,) = struct.unpack_from("<Q", raw, 8)
    if 16 + manifest_len > len(raw):
        raise TruncatedBlobError(f"{path}: manifest extends past end of file")
    try:
        manifest = json.loads(raw[16 : 16 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: manifest is not valid JSON: {exc}") from exc

    check(manifest, OBJECT, f"{path}: manifest", ContainerError)
    entries = check(manifest.get("tensors", []), LIST, f"{path}: manifest 'tensors'", ContainerError)

    blob = memoryview(raw)[16 + manifest_len :]
    tensors: dict[str, np.ndarray] = {}
    extents: list[tuple[int, int, str]] = []
    for i, entry in enumerate(entries):
        entry = read_record(entry, _ENTRY_FIELDS, f"{path}: tensor entry {i}:", ContainerError)
        name = entry["name"]
        if name in tensors:
            raise DuplicateTensorError(f"{path}: tensor {name!r} appears more than once in the manifest")
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise ContainerError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']!r}")
        shape = tuple(entry["shape"])
        start, length = entry["byte_offset"], entry["byte_len"]
        if start < 0 or length < 0 or any(dim < 0 for dim in shape):
            raise NegativeExtentError(
                f"{path}: tensor {name!r} has offset {start}, length {length}, shape {shape}; none may be negative"
            )
        expected = math.prod(shape) * dtype.itemsize  # exact: a JSON dimension may exceed int64
        if expected != length:
            raise ShapeDisagreementError(
                f"{path}: tensor {name!r} shape {shape} needs {expected} bytes, manifest says {length}"
            )
        if start + length > len(blob):
            raise TruncatedBlobError(f"{path}: tensor {name!r} extends past end of blob")
        try:  # an empty tensor can still name a shape numpy cannot represent
            tensors[name] = np.frombuffer(blob, dtype=dtype, count=expected // dtype.itemsize, offset=start).reshape(shape)
        except ValueError as exc:
            raise ShapeDisagreementError(f"{path}: tensor {name!r} has an unusable shape {shape}: {exc}") from exc
        if length:
            extents.append((start, start + length, name))
    extents.sort()
    for (_, end, first), (start, _, second) in zip(extents, extents[1:]):
        if start < end:
            raise OverlappingTensorsError(f"{path}: tensors {first!r} and {second!r} share blob bytes")
    return manifest, tensors


def check_tensors(path, tensors: dict, table: dict) -> None:
    """Check ``tensors`` against a file's table, ``name -> (dtype, shape)``:
    each named tensor is present, stored as ``dtype`` (``f32`` or ``i32``, as
    ``write_container`` stores it) with ``shape`` (a None dimension matches any
    length), and finite if f32; a ValueError naming ``path`` and the tensor
    otherwise. Tensors the table does not name are not looked at."""
    for name, (dtype, shape) in table.items():
        arr = tensors.get(name)
        if arr is None:
            raise ValueError(f"{path}: no tensor {name!r}")
        held = _STORED.get(arr.dtype.kind)
        if held != dtype:
            raise ValueError(f"{path}: tensor {name!r} holds {held or arr.dtype}, expected {dtype}")
        if arr.shape != shape and (
            arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
        ):
            wanted = str(tuple(shape)).replace("None", "*")
            raise ValueError(f"{path}: tensor {name!r} has shape {arr.shape}, expected {wanted}")
        if dtype == "f32" and not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} contains non-finite entries")


def read_tensors(path, table: dict) -> list[np.ndarray]:
    """The tensors ``table`` names (see ``check_tensors``), in its order, from
    the container at ``path``."""
    _, tensors = read_container(path)
    check_tensors(path, tensors, table)
    return [tensors[name] for name in table]
