"""Manifest-plus-blob persistence for named float arrays.

A saved directory holds one binary blob of little-endian array data, a
text manifest with one line per array (name, dtype, shape, byte offset,
length, sha256) and a meta.json for scalar metadata. Loading verifies
checksums, so truncation or corruption is rejected with a diagnostic.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1

_DTYPES = {"<f4": "<f4", "<f8": "<f8"}


def save_arrays(dir_path, arrays, meta=None):
    """Write named arrays plus metadata into a directory."""
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    offset = 0
    with open(out / "data.bin", "wb") as blob:
        for name, arr in arrays.items():
            if not name or name[0] == "#" or any(ch.isspace() for ch in name):
                raise ValueError(f"array name {name!r} must be non-empty, without whitespace "
                                 "and not start with '#'")
            arr = np.asarray(arr)
            dtype = "<f4" if arr.dtype == np.float32 else "<f8"
            raw = arr.astype(dtype).tobytes()
            digest = hashlib.sha256(raw).hexdigest()
            shape = ",".join(str(d) for d in arr.shape) or "-"
            lines.append(f"{name} {dtype} {shape} {offset} {len(raw)} {digest}")
            blob.write(raw)
            offset += len(raw)
    (out / "manifest.txt").write_text(
        f"# blobio format {FORMAT_VERSION}\n" + "\n".join(lines) + "\n"
    )
    with open(out / "meta.json", "w") as fh:
        json.dump({"format_version": FORMAT_VERSION, **(meta or {})}, fh, indent=1)


def load_arrays(dir_path):
    """Read back (arrays, meta); raises on version/checksum/truncation problems."""
    src = Path(dir_path)
    manifest_path = src / "manifest.txt"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.txt in {src}")
    with open(src / "meta.json") as fh:
        meta = json.load(fh)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{src}: format version {meta.get('format_version')} != {FORMAT_VERSION}"
        )
    blob = (src / "data.bin").read_bytes()
    arrays = {}
    for line in manifest_path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            name, dtype, shape_s, offset_s, nbytes_s, digest = line.split()
        except ValueError:
            raise ValueError(f"{src}: malformed manifest line {line!r}")
        if dtype not in _DTYPES:
            raise ValueError(f"{src}: unknown dtype {dtype!r} in manifest")
        offset, nbytes = int(offset_s), int(nbytes_s)
        raw = blob[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"{src}: blob truncated at array {name!r}")
        if hashlib.sha256(raw).hexdigest() != digest:
            raise ValueError(f"{src}: checksum mismatch for array {name!r}")
        shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return arrays, meta
