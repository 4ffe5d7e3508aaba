import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opticomp.container import (
    ALIGNMENT,
    BadMagicError,
    ContainerError,
    DuplicateTensorError,
    NegativeExtentError,
    OverlappingTensorsError,
    ShapeDisagreementError,
    TruncatedBlobError,
    VersionMismatchError,
    check_tensors,
    read_container,
    write_container,
)


def rewrite_manifest(path, edit):
    """Replace the manifest of an LTEN file with edit(manifest), keeping the blob.

    ``edit`` changes the manifest in place or returns a replacement."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16 : 16 + mlen])
    replacement = edit(manifest)
    if replacement is not None:
        manifest = replacement
    new_manifest = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new_manifest)) + new_manifest + raw[16 + mlen :])


def test_round_trip_single_scalar(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"w": np.array([[0.5]], dtype=np.float32)})
    _, tensors = read_container(path)
    assert tensors["w"].tobytes() == np.array([[0.5]], dtype=np.float32).tobytes()


_ARRAYS = st.one_of(
    hnp.arrays("<f4", hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6), elements=st.floats(width=32)),
    hnp.arrays("<i4", hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)),
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=12), _ARRAYS, min_size=1, max_size=5))
def test_round_trip_mixed_dtypes_bit_exact(originals):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.lten"), Path(tmp, "b.lten")
        write_container(first, originals, extra={"note": "x"})
        write_container(second, dict(reversed(originals.items())), extra={"note": "x"})  # order must not matter
        assert first.read_bytes() == second.read_bytes()
        manifest, tensors = read_container(first)
    assert manifest["note"] == "x"
    assert tensors.keys() == originals.keys()
    for name, orig in originals.items():
        assert tensors[name].dtype == orig.dtype
        assert tensors[name].shape == orig.shape
        assert tensors[name].tobytes() == orig.tobytes()


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"x": rng.normal(size=(6, 6)), "y": rng.normal(size=(2, 3))}
    p1, p2 = tmp_path / "a.lten", tmp_path / "b.lten"
    write_container(p1, tensors)
    write_container(p2, dict(reversed(list(tensors.items()))))  # insertion order must not matter
    assert p1.read_bytes() == p2.read_bytes()


def test_tensors_are_64_byte_aligned(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((3, 3)), "b": np.ones((5, 5))})
    manifest, _ = read_container(path)
    for entry in manifest["tensors"]:
        assert entry["byte_offset"] % ALIGNMENT == 0


def test_reading_holds_the_files_bytes_once(tmp_path):
    # The tensors view the bytes read from the file; a second copy of the
    # blob would take the peak to about twice the file size.
    rng = np.random.default_rng(0)
    path = tmp_path / "m.lten"
    write_container(path, {f"w{i}": rng.normal(size=(128, 256)) for i in range(8)})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, tensors = read_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tensors) == 8
    assert peak <= 1.2 * size, f"peak {peak} bytes for a {size}-byte file"


def test_bad_magic(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2))})
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(raw)
    with pytest.raises(BadMagicError, match="bad magic"):
        read_container(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2))})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(raw)
    with pytest.raises(VersionMismatchError, match="version 9"):
        read_container(path)


def test_truncated_blob(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((8, 8))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(TruncatedBlobError):
        read_container(path)


def test_manifest_blob_shape_disagreement(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2))})

    def lie(manifest):
        manifest["tensors"][0]["shape"] = [3, 3]  # lies about the stored extent

    rewrite_manifest(path, lie)
    with pytest.raises(ShapeDisagreementError):
        read_container(path)


def test_duplicate_tensor_name(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2)), "b": np.zeros((2, 2))})

    def rename(manifest):
        manifest["tensors"][1]["name"] = "a"  # would silently shadow the first "a"

    rewrite_manifest(path, rename)
    with pytest.raises(DuplicateTensorError, match="'a'"):
        read_container(path)


@pytest.mark.parametrize("field,value", [("byte_offset", -64), ("byte_len", -16), ("shape", [-2, -2])])
def test_negative_extent(tmp_path, field, value):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2)), "b": np.ones((2, 2))})

    def negate(manifest):
        manifest["tensors"][1][field] = value

    rewrite_manifest(path, negate)
    with pytest.raises(NegativeExtentError, match="'b'"):
        read_container(path)


def test_overlapping_tensors(tmp_path):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((4, 4)), "b": np.ones((2, 2))})

    def alias(manifest):
        manifest["tensors"][1]["byte_offset"] = 32  # inside a's 64 bytes

    rewrite_manifest(path, alias)
    with pytest.raises(OverlappingTensorsError, match="'a' and 'b'"):
        read_container(path)


def _drop_dtype(manifest):
    del manifest["tensors"][0]["dtype"]


def _string_shape(manifest):
    manifest["tensors"][0]["shape"] = "ab"


def _tensors_as_object(manifest):
    manifest["tensors"] = {entry["name"]: entry for entry in manifest["tensors"]}


@pytest.mark.parametrize(
    "edit,message",
    [
        (_drop_dtype, "tensor entry 0 has no field 'dtype'"),
        (lambda manifest: [manifest], "manifest must be a JSON object"),
        (_string_shape, "tensor entry 0: shape must be a list of integers, got 'ab'"),
        (_tensors_as_object, "'tensors' must be a list"),
    ],
    ids=["entry_without_dtype", "manifest_is_array", "string_shape", "tensors_not_a_list"],
)
def test_malformed_manifest(tmp_path, edit, message):
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones((2, 2))})
    rewrite_manifest(path, edit)
    with pytest.raises(ContainerError, match=message):
        read_container(path)


@pytest.mark.parametrize("shape", [[10**30], [2**62, 4], [0, 10**30], [0, 2**62, 4]])
def test_shape_beyond_int64_is_a_container_error(tmp_path, shape):
    # The byte size is an exact integer: it neither overflows nor wraps to 0.
    path = tmp_path / "t.lten"
    write_container(path, {"a": np.ones(2)})

    def enlarge(manifest):
        manifest["tensors"][0]["shape"] = shape
        manifest["tensors"][0]["byte_len"] = 0 if 0 in shape else 4 * 2

    rewrite_manifest(path, enlarge)
    with pytest.raises(ShapeDisagreementError, match="'a'"):
        read_container(path)


_INTS = st.one_of(st.integers(-2, 200), st.integers(-(2**80), 2**80), st.sampled_from([2**62, 2**63, 2**64, 10**30]))
_VALUES = st.one_of(
    _INTS,
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(["a", "b", "c", "f32", "i32", "f64"]),
    st.lists(_INTS, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    entry=st.integers(0, 2),
    field=st.sampled_from(["shape", "byte_offset", "byte_len", "dtype", "name"]),
    data=st.data(),
)
def test_mutated_manifest_entry_raises_only_container_errors(entry, field, data):
    # One field of one valid entry is changed: one dimension of a shape, or
    # any field replaced by another JSON value. Reading then either succeeds
    # or raises a ContainerError; no other exception may escape.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.lten")
        write_container(path, {"a": np.ones((2, 3)), "b": np.zeros((0, 4), dtype=np.int32), "c": np.float32(1.5)})

        def mutate(manifest):
            target = manifest["tensors"][entry]
            if field == "shape" and target["shape"] and data.draw(st.booleans(), label="one dimension"):
                dim = data.draw(st.integers(0, len(target["shape"]) - 1), label="dimension")
                target["shape"][dim] = data.draw(_INTS, label="size")
            else:
                target[field] = data.draw(_VALUES, label=field)

        rewrite_manifest(path, mutate)
        try:
            read_container(path)
        except ContainerError:
            pass


_STORED = {"f32": np.dtype("<f4"), "i32": np.dtype("<i4")}
_SIDES = st.integers(0, 3)
_TABLE_SHAPES = st.lists(st.none() | _SIDES, max_size=3).map(tuple)


def _expected_defect(arr, dtype, shape):
    """What ``check_tensors`` must report of one table entry, or None."""
    if arr is None:
        return "no tensor"
    if arr.dtype != _STORED[dtype]:
        return "holds"
    if arr.ndim != len(shape) or any(want is not None and want != got for want, got in zip(shape, arr.shape)):
        return "has shape"
    if dtype == "f32" and (np.isnan(arr) | np.isinf(arr)).any():
        return "contains non-finite entries"
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcd"), st.tuples(st.sampled_from(sorted(_STORED)), _TABLE_SHAPES), max_size=4),
    st.data(),
)
def test_check_tensors_passes_exactly_the_tensors_that_hold_the_table(table, data):
    # Each tensor is absent, of a random dtype and shape, or as its table
    # entry lists it, maybe with one non-finite entry; "e" is in no table.
    tensors = {}
    for name in [*table, "e"]:
        case = data.draw(st.sampled_from(["absent", "random", *["listed"] * 4]))
        if case == "absent":
            continue
        dtype, shape = table.get(name, ("f32", ()))
        if case == "random":
            dtype, shape = data.draw(st.sampled_from(sorted(_STORED))), data.draw(_TABLE_SHAPES)
        shape = tuple(data.draw(_SIDES) if side is None else side for side in shape)
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False) if dtype == "f32" else None
        arr = data.draw(hnp.arrays(_STORED[dtype], shape, elements=finite))
        if dtype == "f32" and arr.size and data.draw(st.booleans()):
            arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        tensors[name] = arr
    defects = [(name, _expected_defect(tensors.get(name), dtype, shape)) for name, (dtype, shape) in table.items()]
    defects = [(name, defect) for name, defect in defects if defect]
    if not defects:
        check_tensors("t.lten", tensors, table)
        return
    with pytest.raises(ValueError) as exc:
        check_tensors("t.lten", tensors, table)
    (name, defect), message = defects[0], str(exc.value)
    if defect == "no tensor":
        assert message == f"t.lten: no tensor {name!r}"
    else:
        assert message.startswith(f"t.lten: tensor {name!r} {defect}")
