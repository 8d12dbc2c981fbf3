"""Property tests of blobio: bit-exact round trips and rejection of damaged data."""

import errno
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tcgl import blobio

_settings = settings(max_examples=60, deadline=None)

_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._/", min_size=1, max_size=12)


@st.composite
def _pairs(draw, min_side=0, min_size=0, max_size=5):
    """(params, momentum): arrays of one shape per name, each float32 or
    float64; momentum's names come in a drawn order of their own."""
    shapes = draw(st.dictionaries(_names, hnp.array_shapes(min_dims=0, max_dims=3,
                                                           min_side=min_side, max_side=4),
                                  min_size=min_size, max_size=max_size))

    def array(shape):
        return draw(hnp.arrays(draw(st.sampled_from([np.float32, np.float64])), shape))

    params = {name: array(shape) for name, shape in shapes.items()}
    return params, {name: array(shapes[name]) for name in draw(st.permutations(list(shapes)))}


def _save(pair, tmp):
    path = Path(tmp) / "blob"
    blobio.save_arrays(path, blobio.encode(*pair, meta={"kind": "test"}))
    return path


def _file(path):
    return path / blobio.FILE_NAME


def _assert_loaded(loaded, pair):
    """``loaded`` (params, momentum) holds ``pair``'s values as float64, both
    in the parameters' order."""
    for got, want in zip(loaded, pair):
        assert list(got) == list(pair[0])
        for name, arr in want.items():
            assert got[name].dtype == np.float64
            assert got[name].shape == arr.shape
            assert got[name].tobytes() == arr.astype("<f8").tobytes()  # float32 widens exactly


@_settings
@given(_pairs())
def test_round_trip_is_bit_exact(pair):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(pair, tmp)
        assert [f.name for f in path.iterdir()] == [blobio.FILE_NAME]
        *loaded, meta = blobio.load_arrays(path)
    assert meta["kind"] == "test"
    _assert_loaded(loaded, pair)


@pytest.mark.parametrize("mode", ["preallocated", "no-posix-fallocate", "posix-fallocate-refused"])
def test_a_save_over_a_larger_stale_tmp_writes_exactly_the_encoding(tmp_path, monkeypatch,
                                                                    mode):
    # a save that died after preallocating leaves a full-size arrays.bin.tmp of zeros;
    # where os has no posix_fallocate (macOS), or the file system refuses it, the save
    # writes without preallocating
    allocated = []
    if mode == "no-posix-fallocate":
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        real = os.posix_fallocate

        def fallocate(fd, offset, size):
            allocated.append(size)
            if mode == "posix-fallocate-refused":
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))
            real(fd, offset, size)

        monkeypatch.setattr(os, "posix_fallocate", fallocate)
    pair = ({"x": np.arange(6.0).reshape(2, 3), "y": np.array(-0.0)},
            {"y": np.array(1.5), "x": -np.arange(6.0).reshape(2, 3)})
    data = blobio.encode(*pair, meta={"kind": "test"})
    assert isinstance(data, bytes)
    (tmp_path / "blob").mkdir()
    (tmp_path / "blob" / blobio.TMP_NAME).write_bytes(bytes(4 * len(data)))
    blobio.save_arrays(tmp_path / "blob", data)
    assert allocated == ([] if mode == "no-posix-fallocate" else [len(data)])
    assert [f.name for f in (tmp_path / "blob").iterdir()] == [blobio.FILE_NAME]
    assert _file(tmp_path / "blob").read_bytes() == data
    *loaded, meta = blobio.load_arrays(tmp_path / "blob")
    assert meta == {"kind": "test"}
    _assert_loaded(loaded, pair)


_non_empty = _pairs(min_side=1, min_size=1, max_size=4)


@_settings
@given(_non_empty, st.data())
def test_flipped_byte_is_rejected(pair, data):
    # anywhere in the file: header, array bytes or the digest itself
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(pair, tmp)
        blob = bytearray(_file(path).read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 0xFF
        _file(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.data())
def test_truncated_blob_is_rejected(pair, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(pair, tmp)
        blob = _file(path).read_bytes()
        _file(path).write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.one_of(st.integers().filter(lambda v: v != blobio.FORMAT_VERSION),
                             st.none(), st.text(max_size=4)))
@example(pair=({"x": np.ones(2)}, {"x": np.zeros(2)}), version=2)  # the format before this one
def test_wrong_format_version_is_rejected(pair, version):
    # the header is rewritten under a valid digest, so only the version check can refuse it
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(pair, tmp)
        _redigest(path, lambda header: {**header, "format_version": version})
        with pytest.raises(ValueError, match=re.escape(f"format version {version!r} != "
                                                       f"{blobio.FORMAT_VERSION}")):
            blobio.load_arrays(path)


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
    entries = header["params"]
    kind = data.draw(st.sampled_from(["top", "entry", "drop", "duplicate", "reverse", "whole"]))
    if kind == "top":
        key = data.draw(st.sampled_from(sorted(header)))
        if data.draw(st.booleans()):
            del header[key]
        else:
            header[key] = data.draw(_values)
    elif kind == "entry":  # replace, grow or shrink one entry, or one of its fields
        i = data.draw(st.integers(0, len(entries) - 1))
        field = data.draw(st.sampled_from(["entry", "name", "shape", "append", "pop"]))
        if field == "entry":
            entries[i] = data.draw(_values)
        elif field in ("name", "shape"):
            entries[i][field == "shape"] = data.draw(_values)
        elif field == "append":
            entries[i].append(data.draw(_values))
        else:
            entries[i].pop()
    elif kind == "drop":
        entries.remove(data.draw(st.sampled_from(entries)))
    elif kind == "duplicate":
        entries.append(list(data.draw(st.sampled_from(entries))))
    elif kind == "reverse":
        entries.reverse()
    else:
        return data.draw(st.sampled_from([list(header), list(header.values()), None, 2]))
    return header


def _values_in_order(arrays):
    return b"".join(np.asarray(arr, "<f8").tobytes() for arr in arrays.values())


@_settings
@given(_non_empty, st.data())
def test_redigested_header_edit_loads_the_same_arrays_or_raises(pair, data):
    # A re-digested header is a validly written one: an edit that keeps every
    # entry well formed and the sizes' sum reads the same bytes in header
    # order, under other names or shapes; only the reader of the names and
    # shapes (restore_model) can refuse it.
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(pair, tmp)
        _redigest(path, lambda header: _edit(header, data))
        try:
            *loaded, _ = blobio.load_arrays(path)
        except ValueError:
            return
    for got, want in zip(loaded, pair):
        assert list(got) == list(loaded[0])
        assert all(arr.dtype == np.float64 for arr in got.values())
        assert _values_in_order(got) == _values_in_order({k: want[k] for k in pair[0]})


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "params"},
    lambda h: {k: v for k, v in h.items() if k != "meta"},
    lambda h: list(h.values()),
    # x one value short: y would start 8 bytes early
    lambda h: {**h, "params": [["x", [2]], h["params"][1]]},
    lambda h: {**h, "params": h["params"][:-1]},
    # an entry that names a dtype: every value is float64, and no entry says so
    lambda h: {**h, "params": [[*h["params"][0], "<i8"], h["params"][1]]},
    lambda h: {**h, "params": [[*h["params"][0], "<f4"], h["params"][1]]},
    lambda h: {**h, "params": [h["params"][0], ["x", h["params"][1][1]]]},
    lambda h: {**h, "params": [h["params"][0], ["y", [3]]]},
    lambda h: {**h, "params": [["x", [-3]], h["params"][1]]},
    lambda h: {**h, "params": [["x", [3.0]], h["params"][1]]},
    lambda h: {**h, "params": [{"name": "x", "shape": [3]}, h["params"][1]]},
    lambda h: {**h, "params": [*h["params"], ["z", [1]]]},
], ids=["no-arrays", "no-meta", "list-header", "offset-minus-8", "last-entry-dropped",
        "same-size-dtype", "float32-dtype", "duplicate-name", "past-the-digest",
        "negative-dim", "non-int-dim", "non-pair-entry", "extra-entry"])
def test_malformed_header_probes_are_rejected(tmp_path, edit):
    path = _save(({"x": np.arange(3.0), "y": np.ones(2)}, {"x": np.zeros(3), "y": np.ones(2)}),
                 tmp_path)
    _redigest(path, edit)
    with pytest.raises(ValueError, match=blobio.FILE_NAME):  # a diagnostic naming the file
        blobio.load_arrays(path)
