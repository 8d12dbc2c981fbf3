"""One-file persistence for named float arrays.

A saved directory holds one file, arrays.bin: a JSON header line (format
version, meta, and each array's name, dtype, shape, byte offset and
length), then the little-endian array bytes, then the sha256 of everything
before it. A save streams into arrays.bin.tmp and renames it over
arrays.bin, so a process that dies mid-save leaves the previous file whole.
Loading checks the digest first, so a damaged or truncated byte anywhere,
header included, is rejected with a diagnostic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2
FILE_NAME = "arrays.bin"
TMP_NAME = f"{FILE_NAME}.tmp"

_DTYPES = ("<f4", "<f8")
_DIGEST_SIZE = hashlib.sha256().digest_size
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "length")


class Encoded(tuple):
    """arrays.bin as the chunks a save writes: header line, arrays (uncopied), sha256."""


def encode(arrays, meta=None):
    """Encode named arrays plus metadata once, for any number of saves."""
    header = {"format_version": FORMAT_VERSION, "meta": meta or {}, "arrays": []}
    arrs, offset = [], 0
    for name, arr in arrays.items():
        if name.split() != [name] or name[0] == "#":
            raise ValueError(f"array name {name!r} must be non-empty, without whitespace "
                             "and not start with '#'")
        arr = np.asarray(arr)
        arr = np.require(arr, "<f4" if arr.dtype == np.float32 else "<f8", "C")
        header["arrays"].append({"name": name, "dtype": arr.dtype.str, "shape": arr.shape,
                                 "offset": offset, "length": arr.nbytes})
        arrs.append(arr)
        offset += arr.nbytes
    chunks = [json.dumps(header).encode() + b"\n", *arrs]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return Encoded([*chunks, digest.digest()])


def save_arrays(dir_path, arrays, meta=None):
    """Write named arrays plus metadata, or ``encode``'s chunks, into ``dir_path``/arrays.bin."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / TMP_NAME, "wb") as fh:
        for chunk in arrays if isinstance(arrays, Encoded) else encode(arrays, meta):
            fh.write(chunk)
    os.replace(out / TMP_NAME, out / FILE_NAME)


def holds_no_save(dir_path):
    """Whether ``dir_path`` is a directory that no save has finished in: empty,
    or holding only the arrays.bin.tmp of a save that died."""
    path = Path(dir_path)
    return path.is_dir() and {p.name for p in path.iterdir()} <= {TMP_NAME}


def load_arrays(dir_path):
    """Read back (arrays, meta); raises ValueError on a bad checksum, version,
    dtype or header key, or entries that do not tile the bytes before the digest."""
    path = Path(dir_path) / FILE_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {FILE_NAME} in {dir_path}")
    data = path.read_bytes()
    body = memoryview(data)[:-_DIGEST_SIZE]  # slices of a memoryview copy nothing
    if hashlib.sha256(body).digest() != data[-_DIGEST_SIZE:]:
        raise ValueError(f"{path}: checksum mismatch")
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise ValueError(f"{path}: header needs a meta object and an arrays list")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {version!r} != {FORMAT_VERSION}")
    arrays, end = {}, 0
    for entry in header["arrays"]:
        fields = entry if isinstance(entry, dict) else {}
        name, dtype, shape, offset, length = map(fields.get, _ENTRY_KEYS)
        if dtype not in _DTYPES:
            raise ValueError(f"{path}: unknown dtype {dtype!r} for array {name!r}")
        if not (isinstance(name, str) and name not in arrays and offset == end
                and isinstance(shape, list) and all(type(d) is int and d >= 0
                                                    for d in [offset, length, *shape])
                and length == math.prod(shape) * np.dtype(dtype).itemsize
                and start + end + length <= len(body)):
            raise ValueError(f"{path}: bad name, offset, shape or length in entry {entry!r}")
        raw = body[start + offset:start + offset + length]
        arrays[name], end = np.frombuffer(raw, dtype).reshape(shape).copy(), offset + length
    if start + end != len(body):
        raise ValueError(f"{path}: array bytes end at {end}, not at the digest")
    return arrays, header["meta"]
