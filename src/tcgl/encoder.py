"""Pooled-statistics clip encoder.

Stands in for a 3D CNN backbone: each frame is reduced to its spatial
mean and standard deviation per channel, the statistics are concatenated
across frames, and a shared linear map with ReLU produces the feature.
One parameter block serves all clips of the same length; snippets and
frame-sets get separate blocks because their pooled dimensions differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc


@dataclass
class EncoderParams:
    weight: dc.Tensor  # (pooled_dim, feature_dim)
    bias: dc.Tensor    # (feature_dim,)


def pooled_dim(clip_frames, channels):
    """Mean and std per frame per channel, concatenated across frames."""
    return 2 * clip_frames * channels


def clip_statistics(clip):
    """Per-frame per-channel spatial mean and std, frame-major order.

    ``clip`` is (..., frames, c, h, w), an array or a list of equal clips;
    leading axes are batch axes. Each frame's statistics depend on that
    frame alone, so the statistics of a frame-set are the matching slice of
    its snippet's statistics. ``clip`` itself is never modified.
    """
    clip = np.array(clip, dtype=np.float64)  # one owned copy: stack and cast in one pass
    if clip.ndim < 4 or clip.shape[-1] * clip.shape[-2] == 0:
        raise ValueError(f"a clip is (..., frames, c, h, w) with h * w > 0, not {clip.shape}")
    rows = clip.reshape(-1, clip.shape[-2] * clip.shape[-1])  # one row per frame and channel
    out = np.empty((rows.shape[0], 2))
    np.divide(np.add.reduce(rows, axis=1), rows.shape[1], out=out[:, 0])  # ndarray.mean's recipe
    np.square(np.subtract(rows, out[:, :1], out=rows), out=rows)
    np.sqrt(np.divide(np.add.reduce(rows, axis=1), rows.shape[1]), out=out[:, 1])
    return out.reshape(*clip.shape[:-4], 2 * clip.shape[-4] * clip.shape[-3])


def encode(stats, params: EncoderParams):
    """Feature of each clip from its ``clip_statistics`` (..., pooled_dim);
    differentiable w.r.t. params."""
    if stats.ndim < 1 or stats.shape[-1] != params.weight.shape[0]:
        raise ValueError(
            f"clip statistics of shape {stats.shape} do not match an encoder "
            f"expecting {params.weight.shape[0]} per clip"
        )
    return dc.relu(dc.linear(dc.Tensor(stats), params.weight, params.bias))
