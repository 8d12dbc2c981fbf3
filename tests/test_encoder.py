"""Clip statistics encoder: pooling, projection, and gradient fidelity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import tcgl.diffcore as dc
from tcgl import encoder, sampler, trainer


@pytest.fixture()
def clip():
    video = sampler.gen_synthetic_video(3, sampler.label_for_class(2))
    return sampler.sample_snippets(video, 16, 8, 3)[1]


def _params(rng, clip_frames, feature_dim):
    return encoder.EncoderParams(*dc.init_linear(
        rng, encoder.pooled_dim(clip_frames, 1), feature_dim, gain=1.0))


def test_pooled_dim():
    assert encoder.pooled_dim(16, 1) == 32
    assert encoder.pooled_dim(4, 3) == 24


def test_clip_statistics_layout(clip):
    stats = encoder.clip_statistics(clip)
    assert stats.shape == (32,)
    means = clip.mean(axis=(2, 3))[:, 0]
    stds = clip.std(axis=(2, 3))[:, 0]
    assert np.allclose(stats[0::2], means, atol=1e-6)
    assert np.allclose(stats[1::2], stds, atol=1e-6)


def test_clip_statistics_layout_is_frame_major_over_channels(rng):
    # per frame [mean_c0, std_c0, mean_c1, std_c1]; a channel-major stack differs
    clip = rng.standard_normal((4, 2, 6, 5)).astype(np.float32)
    clip[:, 1] += 10.0
    stats = encoder.clip_statistics(clip)
    assert stats.shape == (encoder.pooled_dim(4, 2),)
    frame = clip.astype(np.float64)
    want = [s for f in range(4) for c in range(2) for s in (frame[f, c].mean(), frame[f, c].std())]
    assert np.allclose(stats, want, rtol=0, atol=1e-12)


def _two_mean_recipe(clip):
    """The statistics as mean, then sqrt(mean(square(x - mean)))."""
    x = np.asarray(clip, dtype=np.float64)
    means = x.mean(axis=(-2, -1), keepdims=True)
    stds = np.sqrt(np.square(x - means).mean(axis=(-2, -1)))
    return np.stack([means[..., 0, 0], stds], axis=-1).reshape(*x.shape[:-4], -1)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([np.float32, np.float64]), st.booleans())
def test_clip_statistics_property_is_the_two_mean_recipe_bit_for_bit(data, dtype, as_list):
    # leading axes, 1-3 channels, either dtype, array or list input; the input stays as it was
    lead = data.draw(st.lists(st.integers(1, 3), max_size=2))
    shape = (*lead, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
             data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20)))
    clip = data.draw(hnp.arrays(dtype, shape, elements=st.floats(
        -1e4, 1e4, allow_subnormal=False, width=np.finfo(dtype).bits)))
    given_clip = list(clip) if as_list else clip
    before = clip.copy()
    got = encoder.clip_statistics(given_clip)
    want = _two_mean_recipe(np.stack(given_clip) if isinstance(given_clip, list) else clip)
    assert got.shape == want.shape == (*lead, encoder.pooled_dim(shape[-4], shape[-3]))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert clip.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape", [(16, 16), (4, 16, 16), (3, 1, 0, 16)])
def test_clip_statistics_refuses_a_malformed_clip(shape):
    # the error names the shape: too few axes, or frames without pixels
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        encoder.clip_statistics(np.ones(shape))


def test_encode_shape_and_nonnegativity(clip, rng):
    params = _params(rng, 16, 12)
    feat = encoder.encode(encoder.clip_statistics(clip), params)
    assert feat.shape == (12,)
    assert np.all(feat.data >= 0.0)


def test_encode_rejects_mismatched_params(clip, rng):
    params = _params(rng, 8, 12)
    with pytest.raises(ValueError):
        encoder.encode(encoder.clip_statistics(clip), params)


def test_init_bound_follows_fan_in():
    # the model's encoders draw within 1/sqrt(fan-in), gain 1: pooled dims 32 and 8
    model = trainer.build_model(trainer.TrainConfig(feature_dim=64))
    for params, fan_in in ((model.enc_snip, 32), (model.enc_frame, 8)):
        assert params.weight.shape == (fan_in, 64)
        bound = 1.0 / np.sqrt(fan_in)
        assert np.abs(params.weight.data).max() <= bound
        assert np.abs(params.bias.data).max() <= bound
        assert np.abs(params.weight.data).max() > 0.9 * bound


def test_encode_gradient_matches_finite_differences(clip, rng):
    params = _params(rng, 16, 6)

    def f(w, b):
        feat = encoder.encode(encoder.clip_statistics(clip),
                              encoder.EncoderParams(weight=w, bias=b))
        return dc.tsum(feat)

    err = dc.finite_diff_check(f, [params.weight, params.bias])
    assert err < 1e-4


def test_batched_statistics_equal_each_clip_and_frame_set():
    video = sampler.gen_synthetic_video(4, sampler.label_for_class(1))
    snippets = sampler.sample_snippets(video, 16, 8, 3)
    batched = encoder.clip_statistics(np.stack(snippets))
    assert batched.shape == (3, 32)
    for k, snippet in enumerate(snippets):
        assert np.array_equal(batched[k], encoder.clip_statistics(snippet))
        for j, frames in enumerate(sampler.split_framesets(snippet, 4)):
            assert np.array_equal(batched[k].reshape(4, -1)[j], encoder.clip_statistics(frames))
