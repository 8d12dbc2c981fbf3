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

    @property
    def pooled_dim(self):
        return self.weight.shape[0]


def pooled_dim(clip_frames, channels):
    """Mean and std per frame per channel, concatenated across frames."""
    return 2 * clip_frames * channels


def clip_statistics(clip):
    """Per-frame per-channel spatial mean and std, frame-major order.

    ``clip`` is (..., frames, c, h, w); leading axes are batch axes. Each
    frame's statistics depend on that frame alone, so the statistics of a
    frame-set are the matching slice of its snippet's statistics.
    """
    clip = np.asarray(clip, dtype=np.float64)  # cast once, not once per reduction
    means = clip.mean(axis=(-2, -1), keepdims=True)
    stds = np.sqrt(np.square(clip - means).mean(axis=(-2, -1)))  # ndarray.std's recipe, one mean
    return np.stack([means[..., 0, 0], stds], axis=-1).reshape(*clip.shape[:-4], -1)


def encode(stats, params: EncoderParams):
    """Feature of each clip from its ``clip_statistics`` (..., pooled_dim);
    differentiable w.r.t. params."""
    if stats.ndim < 1 or stats.shape[-1] != params.pooled_dim:
        raise ValueError(
            f"clip statistics of shape {stats.shape} do not match an encoder "
            f"expecting {params.pooled_dim} per clip"
        )
    return dc.relu(dc.linear(dc.Tensor(stats), params.weight, params.bias))
