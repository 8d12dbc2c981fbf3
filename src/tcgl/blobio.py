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
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2
FILE_NAME = "arrays.bin"

_DTYPES = ("<f4", "<f8")
_DIGEST_SIZE = hashlib.sha256().digest_size


def save_arrays(dir_path, arrays, meta=None):
    """Write named arrays plus metadata into ``dir_path``/arrays.bin."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
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
    digest = hashlib.sha256()
    tmp = out / f"{FILE_NAME}.tmp"
    with open(tmp, "wb") as fh:  # arrays go out from their own buffers, uncopied
        for chunk in [json.dumps(header).encode() + b"\n", *arrs]:
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())
    os.replace(tmp, out / FILE_NAME)


def load_arrays(dir_path):
    """Read back (arrays, meta); raises on checksum, version, dtype or length problems."""
    path = Path(dir_path) / FILE_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {FILE_NAME} in {dir_path}")
    data = path.read_bytes()
    body = memoryview(data)[:-_DIGEST_SIZE]  # slices of a memoryview copy nothing
    if hashlib.sha256(body).digest() != data[-_DIGEST_SIZE:]:
        raise ValueError(f"{path}: checksum mismatch")
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {version!r} != {FORMAT_VERSION}")
    arrays = {}
    for entry in header["arrays"]:
        name, dtype, offset, length = (entry[k] for k in ("name", "dtype", "offset", "length"))
        if dtype not in _DTYPES:
            raise ValueError(f"{path}: unknown dtype {dtype!r} for array {name!r}")
        raw = body[start + offset:start + offset + length]
        if len(raw) != length:
            raise ValueError(f"{path}: data truncated at array {name!r}")
        arrays[name] = np.frombuffer(raw, dtype).reshape(entry["shape"]).copy()
    return arrays, header["meta"]
