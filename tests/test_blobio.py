"""Property tests of blobio: bit-exact round trips and rejection of damaged data."""

import json
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
    blobio.save_arrays(path, arrays, meta={"kind": "test"})
    return path


@_settings
@given(st.dictionaries(_names, _arrays(min_side=0), max_size=5))
def test_round_trip_is_bit_exact(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        loaded, meta = blobio.load_arrays(_save(arrays, tmp))
    assert meta["kind"] == "test"
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


_non_empty = st.dictionaries(_names, _arrays(min_side=1), min_size=1, max_size=4)


@_settings
@given(_non_empty, st.data())
def test_flipped_byte_is_rejected(arrays, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        blob = bytearray((path / "data.bin").read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 0xFF
        (path / "data.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.data())
def test_truncated_blob_is_rejected(arrays, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        blob = (path / "data.bin").read_bytes()
        (path / "data.bin").write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@_settings
@given(_non_empty, st.one_of(st.integers().filter(lambda v: v != blobio.FORMAT_VERSION),
                             st.none(), st.text(max_size=4)))
def test_wrong_format_version_is_rejected(arrays, version):
    with tempfile.TemporaryDirectory() as tmp:
        path = _save(arrays, tmp)
        meta = json.loads((path / "meta.json").read_text())
        meta["format_version"] = version
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            blobio.load_arrays(path)


@pytest.mark.parametrize("name", ["", "#x", "a b", "a\tb"])
def test_names_the_manifest_cannot_hold_are_rejected(tmp_path, name):
    with pytest.raises(ValueError):
        blobio.save_arrays(tmp_path / "blob", {name: np.ones(2)})
