"""Property tests of blobio: bit-exact round trips and rejection of damaged data."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tcgl import blobio

_settings = settings(max_examples=60, deadline=None)

_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._/", min_size=1, max_size=12)


def _arrays(min_side):
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=min_side, max_side=4)
    return st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: hnp.arrays(dtype, shapes))


def _save(arrays, tmp):
    path = Path(tmp) / "blob"
    blobio.save_arrays(path, blobio.encode(arrays, meta={"kind": "test"}))
    return path


def _file(path):
    return path / blobio.FILE_NAME


@_settings
@given(st.dictionaries(_names, _arrays(min_side=0), max_size=5))
def test_round_trip_is_bit_exact(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        assert [f.name for f in path.iterdir()] == [blobio.FILE_NAME]
        loaded, meta = blobio.load_arrays(path)
    assert meta["kind"] == "test"
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.astype("<f8").tobytes()  # float32 widens exactly


@pytest.mark.parametrize("preallocate", [True, False], ids=["preallocated", "no-posix-fallocate"])
def test_a_save_over_a_larger_stale_tmp_writes_exactly_the_encoding(tmp_path, monkeypatch,
                                                                    preallocate):
    # a save that died after preallocating leaves a full-size arrays.bin.tmp of zeros;
    # where os has no posix_fallocate (macOS) the save writes without preallocating
    allocated = []
    if preallocate:
        real = os.posix_fallocate
        monkeypatch.setattr(os, "posix_fallocate",
                            lambda fd, offset, size: allocated.append(size) or real(fd, offset, size))
    else:
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    arrays = {"x": np.arange(6.0).reshape(2, 3), "y": np.array(-0.0)}
    data = blobio.encode(arrays, meta={"kind": "test"})
    assert isinstance(data, bytes)
    (tmp_path / "blob").mkdir()
    (tmp_path / "blob" / blobio.TMP_NAME).write_bytes(bytes(4 * len(data)))
    blobio.save_arrays(tmp_path / "blob", data)
    assert allocated == ([len(data)] if preallocate else [])
    assert [f.name for f in (tmp_path / "blob").iterdir()] == [blobio.FILE_NAME]
    assert _file(tmp_path / "blob").read_bytes() == data
    loaded, meta = blobio.load_arrays(tmp_path / "blob")
    assert meta == {"kind": "test"} and list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape and loaded[name].tobytes() == arr.tobytes()


_non_empty = st.dictionaries(_names, _arrays(min_side=1), min_size=1, max_size=4)


@_settings
@given(_non_empty, st.data())
def test_flipped_byte_is_rejected(arrays, data):
    # anywhere in the file: header, array bytes or the digest itself
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        blob = bytearray(_file(path).read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 0xFF
        _file(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.data())
def test_truncated_blob_is_rejected(arrays, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        blob = _file(path).read_bytes()
        _file(path).write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.one_of(st.integers().filter(lambda v: v != blobio.FORMAT_VERSION),
                             st.none(), st.text(max_size=4)))
def test_wrong_format_version_is_rejected(arrays, version):
    # the header is rewritten under a valid digest, so only the version check can refuse it
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        head, rest = _file(path).read_bytes()[:-hashlib.sha256().digest_size].split(b"\n", 1)
        header = json.loads(head)
        header["format_version"] = version
        body = json.dumps(header).encode() + b"\n" + rest
        _file(path).write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@pytest.mark.parametrize("name", ["", "#x", "a b", "a\tb"])
def test_names_the_manifest_cannot_hold_are_rejected(tmp_path, name):
    with pytest.raises(ValueError):
        blobio.save_arrays(tmp_path / "blob", blobio.encode({name: np.ones(2)}))


def _redigest(path, edit):
    """Rewrite arrays.bin's header as ``edit(header)`` under a valid digest."""
    head, rest = _file(path).read_bytes()[:-hashlib.sha256().digest_size].split(b"\n", 1)
    body = json.dumps(edit(json.loads(head))).encode() + b"\n" + rest
    _file(path).write_bytes(body + hashlib.sha256(body).digest())


# JSON values an edit may put in place of a field; no strings, so an edit
# cannot rename an array, which only the reader of the names can refuse
_values = st.one_of(st.integers(-16, 600), st.floats(), st.none(), st.booleans(),
                    st.lists(st.integers(-2, 5), max_size=3), st.dictionaries(st.text(max_size=2),
                                                                               st.integers(), max_size=1))


def _edit(header, data):
    entries = header["arrays"]
    kind = data.draw(st.sampled_from(["top", "entry", "drop", "duplicate", "reverse", "whole"]))
    if kind in ("top", "entry"):
        target = header if kind == "top" else data.draw(st.sampled_from(entries))
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(_values | st.sampled_from(["<f4", "<f8", "<i8", "|u1", ">f8"])
                                    if key == "dtype" else _values)
    elif kind == "drop":
        entries.remove(data.draw(st.sampled_from(entries)))
    elif kind == "duplicate":
        entries.append(dict(data.draw(st.sampled_from(entries))))
    elif kind == "reverse":
        entries.reverse()
    else:
        return data.draw(st.sampled_from([list(header), list(header.values()), None, 2]))
    return header


@_settings
@given(_non_empty, st.data())
def test_redigested_header_edit_loads_the_same_arrays_or_raises(arrays, data):
    # A shape edit that keeps the element count reads the same bytes under
    # another shape; only the reader of the shapes (restore_model) can refuse it.
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        _redigest(path, lambda header: _edit(header, data))
        try:
            loaded, _ = blobio.load_arrays(path)
        except ValueError:
            return
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert (loaded[name].dtype, loaded[name].tobytes()) == (np.float64,
                                                                arr.astype("<f8").tobytes())


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "arrays"},
    lambda h: {k: v for k, v in h.items() if k != "meta"},
    lambda h: list(h.values()),
    lambda h: {**h, "arrays": [{**h["arrays"][0], "offset": -8}]},
    lambda h: {**h, "arrays": h["arrays"][:-1]},
    lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "<i8"}, h["arrays"][1]]},
    lambda h: {**h, "arrays": [{**h["arrays"][0], "dtype": "<f4", "shape": [6]}, h["arrays"][1]]},
    lambda h: {**h, "arrays": [h["arrays"][0], {**h["arrays"][1], "name": "x"}]},
    lambda h: {**h, "arrays": [h["arrays"][0], {**h["arrays"][1], "shape": [3], "length": 24}]},
], ids=["no-arrays", "no-meta", "list-header", "offset-minus-8", "last-entry-dropped",
        "same-size-dtype", "float32-dtype", "duplicate-name", "past-the-digest"])
def test_malformed_header_probes_are_rejected(tmp_path, edit):
    path = _save({"x": np.arange(3.0), "y": np.ones(2)}, tmp_path)
    _redigest(path, edit)
    with pytest.raises(ValueError, match=blobio.FILE_NAME):  # a diagnostic naming the file
        blobio.load_arrays(path)
