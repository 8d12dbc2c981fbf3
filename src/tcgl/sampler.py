"""Snippet sampling, tuple shuffling, frame-set splitting, synthetic videos.

Videos are dense float arrays of shape (frames, channels, height, width).
The synthetic generator stands in for real datasets: every class owns a
distinct contrast oscillation period (and its phase speed, the drift in
cycles per frame), so frame order is statistically recoverable and
classes are separable by their temporal statistics rather than by any per
video appearance, which is randomized as a nuisance.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class VideoTensor:
    """Dense frame array plus an optional class id."""

    data: np.ndarray  # (frames, channels, height, width), float32
    class_id: int = -1

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def channels(self):
        return self.data.shape[1]


@dataclass
class SyntheticLabel:
    """Motion parameters standing in for a dataset class."""

    class_id: int
    drift: float  # contrast oscillation's phase speed in cycles per frame, 1 / period
    period: float  # contrast oscillation period in frames


@dataclass
class SnippetTuple:
    """Shuffled snippets plus the permutation that produced them.

    ``snippets[j]`` is the chronologically ``perm[j]``-th snippet, where
    ``perm`` is the lexicographically indexed permutation of the id.
    """

    snippets: list = field(default_factory=list)
    permutation_id: int = 0

    def permutation(self):
        return permutation_from_id(self.permutation_id, len(self.snippets))


def num_permutations(n):
    return math.factorial(n)


@functools.lru_cache(maxsize=None)
def permutation_table(n):
    """Read-only (n!, n) array whose row k is the permutation with id k:
    itertools lists the permutations of range(n) in lexicographic order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    table.flags.writeable = False
    return table


def permutation_from_id(permutation_id, n):
    """The ``permutation_id``-th permutation of range(n), lexicographic."""
    count = num_permutations(n)
    if not 0 <= permutation_id < count:
        raise ValueError(f"permutation_id {permutation_id} out of range [0, {count})")
    return tuple(permutation_table(n)[permutation_id].tolist())


def sample_snippets(video: VideoTensor, l, p, n):
    """Uniformly sample n non-overlapping snippets of l frames, gap p."""
    needed = n * l + (n - 1) * p
    if video.frames < needed:
        raise ValueError(
            f"video has {video.frames} frames, sampling l={l}, p={p}, n={n} "
            f"needs at least {needed}"
        )
    return [video.data[k * (l + p): k * (l + p) + l] for k in range(n)]


def shuffle_tuple(snippets, permutation_id=None, rng=None):
    """Shuffle a chronological snippet list into a labeled SnippetTuple."""
    n = len(snippets)
    if permutation_id is None:
        if rng is None:
            raise ValueError("need either permutation_id or rng")
        permutation_id = int(rng.integers(num_permutations(n)))
    perm = permutation_from_id(permutation_id, n)
    return SnippetTuple(snippets=[snippets[i] for i in perm], permutation_id=permutation_id)


def split_framesets(snippet, m):
    """An l-frame snippet's m equal chronological frame-sets, its (m, l // m, ...) reshape."""
    l = snippet.shape[0]
    if m < 1 or l % m != 0:
        raise ValueError(f"frame-set count {m} does not divide snippet length {l}")
    return snippet.reshape(m, l // m, *snippet.shape[1:])


# -- synthetic data -----------------------------------------------------

_PERIODS = (7.0, 9.0, 10.0, 11.0, 13.0, 14.0, 15.0, 17.0, 18.0, 20.0)


def label_for_class(class_id):
    """Deterministic motion parameters for a class id.

    Each of the ten classes owns a distinct oscillation period; the drift
    velocity is the matching phase speed in cycles per frame, so distinct
    classes have distinguishable temporal statistics.
    """
    if not 0 <= class_id < len(_PERIODS):
        raise ValueError(f"class_id must lie in 0..{len(_PERIODS) - 1}, got {class_id}")
    period = _PERIODS[class_id]
    return SyntheticLabel(class_id=class_id, drift=1.0 / period, period=period)


def gen_synthetic_video(seed, label: SyntheticLabel, frames=64, channels=1,
                        height=16, width=16):
    """Deterministic synthetic video with a monotone temporal component.

    The per-frame contrast oscillates at the class period with its phase
    locked to the global frame index, so the unwrapped phase of the
    contrast rhythm encodes frame order; decoding a snippet's temporal
    position therefore requires knowing the class period, tying position
    and class information together. The per-frame brightness is pure
    nuisance — a random per-video offset, random mid-frequency waves and
    per-frame jitter — so raw brightness statistics carry no class or
    order signal.
    """
    if frames <= 0 or channels <= 0 or height <= 0 or width <= 0:
        raise ValueError(
            f"dimensions must be positive, got frames={frames}, c={channels}, "
            f"h={height}, w={width}"
        )
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), label.class_id)))
    base = rng.normal(0.0, 1.0)
    t = np.arange(frames, dtype=np.float64)
    waves = np.zeros(frames)
    for _ in range(4):
        wave_period = rng.uniform(16.0, 28.0)
        waves += rng.uniform(0.3, 0.7) * np.sin(
            2.0 * np.pi * t / wave_period + rng.uniform(0.0, 2.0 * np.pi))
    jitter = rng.normal(0.0, 0.3, size=frames)
    level = base + waves + jitter
    scale = rng.uniform(0.8, 1.2)
    ripple = 1.0 + rng.normal(0.0, 0.08, size=frames)
    contrast = (0.45 * scale * ripple
                * (1.0 + 0.5 * np.sin(2.0 * np.pi * label.drift * t)))
    noise = rng.standard_normal((frames, channels, height, width))
    data = level[:, None, None, None] + contrast[:, None, None, None] * noise
    return VideoTensor(data=data.astype(np.float32), class_id=label.class_id)


# -- dataset files ------------------------------------------------------

_HEADER = struct.Struct("<5i")  # frames, channels, height, width, class_id


def write_video(path, video: VideoTensor):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*video.data.shape, video.class_id))
        fh.write(video.data.astype("<f4").tobytes())


def read_video(path):
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        frames, c, h, w, class_id = _HEADER.unpack(raw)
        if min(frames, c, h, w) <= 0:
            raise ValueError(f"{path}: header gives a {frames}x{c}x{h}x{w} video; "
                             "frames, channels, height and width must be positive")
        expected = frames * c * h * w * 4
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expected:
            raise ValueError(f"{path}: expected {expected} data bytes, got {got}")
        data = np.empty((frames, c, h, w), dtype="<f4")  # one allocation, no bytes to copy
        fh.readinto(data)
    return VideoTensor(data=data, class_id=class_id)


def generate_dataset(out_dir, num_videos, num_classes, seed, frames=64,
                     channels=1, height=16, width=16):
    """Write a dataset directory: one video file per entry plus a manifest."""
    if num_videos < 1 or not 1 <= num_classes <= len(_PERIODS):
        raise ValueError(f"a dataset needs at least one video and one class, and at most "
                         f"{len(_PERIODS)} classes, got {num_videos=}, {num_classes=}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(num_videos):
        label = label_for_class(i % num_classes)
        video = gen_synthetic_video(seed + i, label, frames, channels, height, width)
        name = f"video_{i:05d}.bin"
        write_video(out / name, video)
        entries.append({"file": name, "class_id": label.class_id})
    manifest = {"seed": seed, "num_classes": num_classes, "videos": entries}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def load_dataset(data_dir):
    """Load every video listed in the manifest; returns (manifest, videos)."""
    data = Path(data_dir)
    manifest_path = data / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {data}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("videos"), list):
        raise ValueError(f"{manifest_path} must be a JSON object whose 'videos' is a list")
    if not manifest["videos"]:
        raise ValueError(f"{manifest_path} lists no videos")
    videos = []
    for i, entry in enumerate(manifest["videos"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and type(entry.get("class_id")) is int):
            raise ValueError(f"{manifest_path}: video entry {i} needs a string 'file' "
                             "and an integer 'class_id'")
        video = read_video(data / entry["file"])
        if video.class_id != entry["class_id"]:
            raise ValueError(f"{data / entry['file']}: header class id {video.class_id} "
                             f"differs from the manifest's {entry['class_id']}")
        if videos and video.data.shape[1:] != videos[0].data.shape[1:]:
            raise ValueError(f"{data / entry['file']}: channels, height and width "
                             f"{video.data.shape[1:]} differ from the first video's "
                             f"{videos[0].data.shape[1:]}")
        videos.append(video)
    return manifest, videos

