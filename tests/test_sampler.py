"""Snippet sampling, shuffling, frame-sets, and the synthetic generator."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcgl import sampler


def _video(frames=64, class_id=0):
    return sampler.gen_synthetic_video(11, sampler.label_for_class(class_id),
                                       frames=frames)


def test_sample_snippets_default_starts():
    snippets = sampler.sample_snippets(_video(), l=16, p=8, n=3)
    assert len(snippets) == 3
    video = _video()
    for k, s in enumerate(snippets):
        start = k * 24
        assert np.array_equal(s, video.data[start:start + 16])


def test_sample_snippets_too_short():
    with pytest.raises(ValueError, match="64"):
        sampler.sample_snippets(_video(frames=63), l=16, p=8, n=3)


def test_sample_snippets_contiguous_split():
    snippets = sampler.sample_snippets(_video(frames=32), l=16, p=0, n=2)
    video = _video(frames=32)
    assert np.array_equal(np.concatenate(snippets), video.data)


def test_permutation_table_rows_are_permutation_ids():
    # every permutation of range(n) once, in strictly increasing lexicographic order
    for n in range(1, 7):
        table = sampler.permutation_table(n)
        rows = [tuple(row) for row in table.tolist()]
        assert table.shape == (sampler.num_permutations(n), n)
        assert all(sorted(row) == list(range(n)) for row in rows)
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert all(sampler.permutation_from_id(k, n) == row for k, row in enumerate(rows))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_permutation_id_zero_is_identity():
    assert sampler.permutation_from_id(0, 3) == (0, 1, 2)


def test_shuffle_tuple_identity_and_inverse():
    snippets = sampler.sample_snippets(_video(), 16, 8, 3)
    tup = sampler.shuffle_tuple(snippets, permutation_id=0)
    for orig, shuf in zip(snippets, tup.snippets):
        assert np.array_equal(orig, shuf)
    tup4 = sampler.shuffle_tuple(snippets, permutation_id=4)
    for src, shuf in zip(tup4.permutation(), tup4.snippets):
        assert np.array_equal(snippets[src], shuf)


def test_shuffle_tuple_rejects_bad_id():
    snippets = sampler.sample_snippets(_video(), 16, 8, 3)
    with pytest.raises(ValueError):
        sampler.shuffle_tuple(snippets, permutation_id=6)


def test_shuffle_uniformity():
    snippets = sampler.sample_snippets(_video(), 16, 8, 3)
    rng = np.random.default_rng(123)
    counts = np.zeros(6)
    draws = 10_000
    for _ in range(draws):
        counts[sampler.shuffle_tuple(snippets, rng=rng).permutation_id] += 1
    assert np.all(np.abs(counts / draws - 1 / 6) < 0.02)


def test_split_framesets_partition():
    snippet = sampler.sample_snippets(_video(), 16, 8, 3)[0]
    sets = sampler.split_framesets(snippet, 4)
    assert len(sets) == 4
    assert np.array_equal(np.concatenate(sets), snippet)
    singles = sampler.split_framesets(snippet, 16)
    assert len(singles) == 16


def test_split_framesets_is_the_snippets_reshape_view():
    snippet = sampler.sample_snippets(_video(), 16, 8, 3)[0]
    sets = sampler.split_framesets(snippet, 4)
    assert sets.shape == (4, 4, *snippet.shape[1:])
    assert np.shares_memory(sets, snippet)
    assert np.array_equal(sets, snippet.reshape(4, 4, *snippet.shape[1:]))


def test_split_framesets_requires_divisibility():
    snippet = sampler.sample_snippets(_video(), 16, 8, 3)[0]
    with pytest.raises(ValueError):
        sampler.split_framesets(snippet, 3)


def test_generator_deterministic():
    a = _video()
    b = _video()
    assert np.array_equal(a.data, b.data)


def test_generator_motion_present():
    v = _video()
    assert np.abs(v.data[1:] - v.data[:-1]).mean() > 0.0


def test_generator_rejects_bad_dims():
    with pytest.raises(ValueError):
        sampler.gen_synthetic_video(0, sampler.label_for_class(0), frames=0)


def _phase_statistic(video):
    # unwrapped Hilbert phase of the per-frame contrast: the analytic signal is
    # the DFT with negative frequencies zeroed and positive ones doubled
    stds = video.data.std(axis=(1, 2, 3)).astype(np.float64)
    spectrum = np.fft.rfft(stds - stds.mean())
    spectrum[1:(len(stds) + 1) // 2] *= 2.0
    return np.unwrap(np.angle(np.fft.ifft(spectrum, len(stds))))


def test_phase_statistic_tracks_frame_index():
    # the generator locks each class's contrast rhythm to the frame index
    worst = min(
        np.corrcoef(np.arange(64), _phase_statistic(
            sampler.gen_synthetic_video(1000 + i,
                                        sampler.label_for_class(i % 10))))[0, 1]
        for i in range(100)
    )
    assert worst > 0.9


def test_distinct_classes_have_distinct_periods():
    periods = {sampler.label_for_class(c).period for c in range(10)}
    assert len(periods) == 10


def test_class_ids_beyond_the_ten_periods_are_refused(tmp_path):
    with pytest.raises(ValueError, match="got 10"):
        sampler.label_for_class(10)
    out = tmp_path / "data"
    with pytest.raises(ValueError, match="num_classes=11"):
        sampler.generate_dataset(out, num_videos=12, num_classes=11, seed=1)
    assert not out.exists()


def _tiny_dataset(tmp_path, num_videos=3):
    """A dataset of ``num_videos`` 24-frame videos; returns its directory and videos.bin."""
    data = tmp_path / "data"
    sampler.generate_dataset(data, num_videos, 3, seed=9, frames=24)
    return data, data / sampler.VIDEOS_FILE


def _rewrite_head(path, version=1, count=3, dims=(1, 16, 16), frames=(24, 24, 24)):
    """Replace the header and frame-count table of a 3-video ``_tiny_dataset``'s videos.bin,
    keeping its frames."""
    body = path.read_bytes()[sampler._HEADER.size + 4 * 3:]
    path.write_bytes(sampler._HEADER.pack(version, count, *dims)
                     + np.array(frames, dtype="<i4").tobytes() + body)


def test_video_file_roundtrip(tmp_path):
    # one videos.bin holds every video's frames, byte-equal to the generator's; the
    # manifest alone holds names and class ids
    data = tmp_path / "data"
    manifest = sampler.generate_dataset(data, 7, 3, seed=9, frames=40, channels=2, height=8,
                                        width=12)
    assert sorted(p.name for p in data.iterdir()) == ["manifest.json", "videos.bin"]
    assert json.loads((data / "manifest.json").read_text()) == manifest
    assert manifest["videos"] == [{"name": f"video_{i:05d}.bin", "class_id": i % 3}
                                  for i in range(7)]
    loaded, videos = sampler.load_dataset(data)
    assert loaded == manifest
    for i, video in enumerate(videos):
        want = sampler.gen_synthetic_video(9 + i, sampler.label_for_class(i % 3), 40, 2, 8, 12)
        assert video.data.dtype == np.float32 and video.data.flags.writeable
        assert video.data.tobytes() == want.data.tobytes()
        assert video.class_id == i % 3


def test_videos_of_mixed_frame_counts_load(tmp_path):
    counts = (64, 80, 48)
    videos = [sampler.gen_synthetic_video(5 + i, sampler.label_for_class(i), f)
              for i, f in enumerate(counts)]
    sampler.write_videos(tmp_path / sampler.VIDEOS_FILE, videos)
    (tmp_path / "manifest.json").write_text(json.dumps({"videos": [
        {"name": f"clip{i}", "class_id": 7 - i} for i in range(3)]}))
    _, loaded = sampler.load_dataset(tmp_path)
    assert [v.frames for v in loaded] == list(counts)
    assert [v.class_id for v in loaded] == [7, 6, 5]
    assert all(np.array_equal(a.data, b.data) for a, b in zip(loaded, videos))


@pytest.mark.parametrize("dims", [(64, 1, 0, 16), (0, 1, 16, 16), (64, -1, 16, 16),
                                  (64, 1, 16, -2)])
def test_read_video_refuses_non_positive_dimensions(tmp_path, dims):
    # dims are video 1's frame count, then the dataset's channels, height and width
    data, path = _tiny_dataset(tmp_path)
    _rewrite_head(path, dims=dims[1:], frames=(24, dims[0], 24))
    want = (f"{path}: non-positive size {'x'.join(map(str, dims[1:]))} "
            f"or frame count {min(24, dims[0])}")
    with pytest.raises(ValueError, match=re.escape(want)):
        sampler.load_dataset(data)


@pytest.mark.parametrize("extra", [-4, 4])
def test_read_video_refuses_a_body_of_the_wrong_length(tmp_path, extra):
    data, path = _tiny_dataset(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
    want = f"{path}: expected {3 * 24 * 16 * 16 * 4} data bytes, got {3 * 24 * 16 * 16 * 4 + extra}"
    with pytest.raises(ValueError, match=re.escape(want)):
        sampler.load_dataset(data)


@pytest.mark.parametrize("head, message", [
    (dict(version=2), "format version 2 != 1"),
    (dict(version=0), "format version 0 != 1"),
    (dict(count=4), "holds 4 videos, the manifest lists 3"),
    (dict(count=2, frames=(24, 24)), "holds 2 videos, the manifest lists 3"),
], ids=["version-2", "version-0", "more-videos", "fewer-videos"])
def test_load_dataset_refuses_a_videos_file_whose_header_disagrees(tmp_path, head, message):
    data, path = _tiny_dataset(tmp_path)
    _rewrite_head(path, **head)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        sampler.load_dataset(data)


@pytest.mark.parametrize("size", [0, 19, 20, 31], ids=["empty", "short", "no-counts",
                                                       "short-counts"])
def test_load_dataset_refuses_a_truncated_header(tmp_path, size):
    data, path = _tiny_dataset(tmp_path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated header$"):
        sampler.load_dataset(data)


@pytest.mark.parametrize("directory", [False, True], ids=["absent", "a-directory"])
def test_load_dataset_without_videos_bin_names_it(tmp_path, directory):
    data, path = _tiny_dataset(tmp_path)
    path.unlink()
    if directory:
        path.mkdir()
    with pytest.raises(FileNotFoundError, match=f"^no videos.bin in {re.escape(str(data))}$"):
        sampler.load_dataset(data)


def test_generate_and_load_dataset(tmp_path):
    data_dir = tmp_path / "data"
    manifest = sampler.generate_dataset(data_dir, 12, 4, seed=9)
    loaded_manifest, videos = sampler.load_dataset(data_dir)
    assert loaded_manifest == manifest and loaded_manifest["seed"] == 9
    assert len(videos) == 12
    assert {v.class_id for v in videos} == set(range(4))
    assert [e["class_id"] for e in loaded_manifest["videos"]] == \
        [v.class_id for v in videos]


@pytest.mark.parametrize("channels, height, width", [(2, 16, 16), (1, 8, 16), (1, 16, 12)],
                         ids=["channels", "height", "width"])
def test_write_videos_refuses_a_video_of_another_frame_shape_naming_it(tmp_path, channels,
                                                                      height, width):
    # channels, height and width are stored once per dataset, so every video must share
    # video 0's; a differing frame count is fine, as snippets are sampled per video
    videos = [sampler.gen_synthetic_video(10, sampler.label_for_class(0)),
              sampler.gen_synthetic_video(11, sampler.label_for_class(1), 80),
              sampler.gen_synthetic_video(12, sampler.label_for_class(2), 48, channels,
                                          height, width)]
    path = tmp_path / sampler.VIDEOS_FILE
    with pytest.raises(ValueError, match=re.escape(
            f"video 2: channels, height and width {(channels, height, width)} differ from "
            "video 0's (1, 16, 16)")):
        sampler.write_videos(path, videos)
    assert not path.exists()
