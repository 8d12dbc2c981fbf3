"""One-file persistence for named float64 parameters and their momentum.

A saved directory holds one file, arrays.bin: a JSON header line (format
version, meta, and each parameter's [name, shape]), then every parameter's
little-endian float64 values in header order, then every momentum's in the
same order, then the sha256 of everything before it. A save writes
arrays.bin.tmp, preallocated where the file system allows, in one call and
renames it over arrays.bin, so a process that dies mid-save leaves the
previous file whole. Loading checks the digest first, so a damaged or
truncated byte anywhere, header included, is rejected with a diagnostic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 3
FILE_NAME = "arrays.bin"
TMP_NAME = f"{FILE_NAME}.tmp"

_DIGEST_SIZE = hashlib.sha256().digest_size


def encode(params, momentum, meta=None):
    """arrays.bin of named ``params``, their ``momentum`` and metadata, as the
    one ``bytes`` that ``save_arrays`` writes. Encode once for any number of
    saves. Momentum whose names or shapes differ from the parameters' raises
    ValueError naming the first such name."""
    params = {k: np.require(v, "<f8", "C") for k, v in params.items()}
    moms = {k: np.require(v, "<f8", "C") for k, v in momentum.items()}
    for name in [*params, *moms]:
        if name not in params or name not in moms or params[name].shape != moms[name].shape:
            raise ValueError(f"momentum and parameters differ in names or shapes at {name!r}")
    header = {"format_version": FORMAT_VERSION, "meta": meta or {},
              "params": [[k, v.shape] for k, v in params.items()]}
    chunks = [json.dumps(header).encode() + b"\n", *params.values(), *map(moms.get, params)]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return b"".join([*chunks, digest.digest()])


def save_arrays(dir_path, data):
    """Write ``encode``'s ``data`` into ``dir_path``/arrays.bin."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / TMP_NAME, "wb") as fh:
        try:  # allocated blocks: no ext4 write-back on rename
            os.posix_fallocate(fh.fileno(), 0, len(data))
        except (AttributeError, OSError):  # no such call (macOS), or a file system refuses it
            pass
        fh.write(data)
    os.replace(out / TMP_NAME, out / FILE_NAME)


def holds_no_save(dir_path):
    """Whether ``dir_path`` is a directory that no save has finished in: empty,
    or holding only the arrays.bin.tmp of a save that died."""
    path = Path(dir_path)
    return path.is_dir() and {p.name for p in path.iterdir()} <= {TMP_NAME}


def load_arrays(dir_path):
    """Read back (params, momentum, meta), the arrays as views into one float64
    copy of the file's values; raises ValueError on a bad checksum, version or
    header, or entries whose sizes do not fill the bytes before the digest."""
    path = Path(dir_path) / FILE_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no {FILE_NAME} in {dir_path}")
    data = path.read_bytes()
    body = memoryview(data)[:-_DIGEST_SIZE]  # slices of a memoryview copy nothing
    if hashlib.sha256(body).digest() != data[-_DIGEST_SIZE:]:
        raise ValueError(f"{path}: checksum mismatch")
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: header format version {version!r} != {FORMAT_VERSION}")
    entries = header.get("params")
    if not (isinstance(header.get("meta"), dict) and isinstance(entries, list)):
        raise ValueError(f"{path}: header needs a meta object and a params list")
    layout = {}  # name -> shape, in header order
    for entry in entries:
        name, shape = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not (isinstance(name, str) and name not in layout and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"{path}: bad or repeated [name, shape] entry {entry!r}")
        layout[name] = shape
    sizes = [math.prod(shape) for shape in layout.values()]
    if 16 * sum(sizes) != len(body) - start:
        raise ValueError(f"{path}: 2 x {sum(sizes)} entry values do not end at the digest")
    rows = np.frombuffer(body[start:], "<f8").copy().reshape(2, sum(sizes))  # params, momenta
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    params, momentum = ({name: row[end - size:end].reshape(shape) for (name, shape), size, end
                         in zip(layout.items(), sizes, ends)} for row in rows)
    return params, momentum, header["meta"]
