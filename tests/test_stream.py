import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammem.errors import (BadMagicError, BadVersionError,
                              MalformedArtifactError, NonFiniteDataError,
                              TruncatedPayloadError)
from streammem.stream import (FrameTokenStream, _word_vector,
                              encode_instruction, load_stream, save_stream,
                              split_into_subclips, synth_stream)


class TestSplitIntoSubclips:
    def test_exact_division(self):
        ranges = split_into_subclips(64, 16)
        assert ranges == [(0, 16), (16, 32), (32, 48), (48, 64)]

    def test_single_ragged_clip(self):
        assert split_into_subclips(10, 16) == [(0, 10)]

    def test_long_stream_has_ragged_tail(self):
        ranges = split_into_subclips(548, 16)
        assert len(ranges) == 35
        assert all(b - a == 16 for a, b in ranges[:-1])
        assert ranges[-1] == (544, 548)

    def test_zero_arguments_rejected(self):
        with pytest.raises(ValueError):
            split_into_subclips(0, 16)
        with pytest.raises(ValueError):
            split_into_subclips(16, 0)

    @given(st.integers(1, 500), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_tiling_property(self, T, F):
        ranges = split_into_subclips(T, F)
        assert ranges[0][0] == 0 and ranges[-1][1] == T
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and a < b
        assert sum(b - a for a, b in ranges) == T


class TestSynthStream:
    def test_deterministic(self):
        a = synth_stream(7, 2, 1, 4)
        b = synth_stream(7, 2, 1, 4)
        for fa, fb in zip(a.frames, b.frames):
            assert fa.tobytes() == fb.tobytes()

    def test_seed_changes_values(self):
        a = synth_stream(7, 2, 1, 4)
        b = synth_stream(8, 2, 1, 4)
        assert any(fa.tobytes() != fb.tobytes()
                   for fa, fb in zip(a.frames, b.frames))

    def test_prefix_stability(self):
        long = synth_stream(7, 10, 2, 4)
        short = synth_stream(7, 6, 2, 4)
        assert long.frames[5].tobytes() == short.frames[5].tobytes()

    def test_values_bounded(self):
        s = synth_stream(0, 8, 4, 16)
        for f in s.frames:
            assert np.all(np.abs(f) <= 3.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            synth_stream(0, 0, 1, 1)


class TestEncodeInstruction:
    def test_repeated_word_rows_identical(self):
        enc = encode_instruction("a a a", 8)
        assert enc.tokens.shape == (3, 8)
        assert np.array_equal(enc.tokens[0], enc.tokens[1])
        assert np.array_equal(enc.tokens[0], enc.tokens[2])
        assert np.allclose(enc.mean, enc.tokens[0], atol=0)

    def test_rows_unit_norm(self):
        enc = encode_instruction("describe the video", 16)
        assert enc.tokens.shape == (3, 16)
        assert np.allclose(np.linalg.norm(enc.tokens, axis=1), 1.0,
                           atol=1e-12)

    def test_word_swap_keeps_mean(self):
        a = encode_instruction("find the red car", 8)
        b = encode_instruction("find the car red", 8)
        assert not np.array_equal(a.tokens, b.tokens)
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert sorted(map(tuple, a.tokens)) == sorted(map(tuple, b.tokens))

    def test_deterministic(self):
        a = encode_instruction("what happens", 8)
        b = encode_instruction("what happens", 8)
        assert a.tokens.tobytes() == b.tokens.tobytes()

    def test_cached_vectors_give_the_same_bytes_and_are_read_only(self):
        text = "pick up the cup"
        uncached = np.stack([_word_vector.__wrapped__(w, 8)
                             for w in text.split()])
        _word_vector.cache_clear()
        first = encode_instruction(text, 8)  # fills the cache
        first.tokens[:] = 0.0  # a caller's own rows are its to write
        again = encode_instruction(text, 8)
        assert _word_vector.cache_info().hits == 4
        assert again.tokens.tobytes() == uncached.tobytes()
        with pytest.raises(ValueError):
            _word_vector("cup", 8)[0] = 1.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            encode_instruction("   ", 8)


class TestStreamFile:
    def test_round_trip(self, tmp_path):
        stream = synth_stream(3, 5, 2, 4)
        path = tmp_path / "s.rwfs"
        save_stream(stream, path)
        loaded = load_stream(path)
        assert (loaded.T, loaded.P, loaded.d) == (5, 2, 4)
        # on-disk precision is float32; a second round trip is bit-exact
        save_stream(loaded, tmp_path / "s2.rwfs")
        assert (tmp_path / "s.rwfs").read_bytes() == \
            (tmp_path / "s2.rwfs").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_stream(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 9, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(BadVersionError):
            load_stream(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 2, 3, 4) + b"\x00" * 8)
        with pytest.raises(TruncatedPayloadError):
            load_stream(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 1, 1, 1)
                         + b"\x00" * 8)
        with pytest.raises(TruncatedPayloadError):
            load_stream(path)

    def test_no_frames_rejected(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 0, 2, 4))
        with pytest.raises(MalformedArtifactError):
            load_stream(path)

    def test_no_tokens_rejected(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 20, 0, 64))
        with pytest.raises(MalformedArtifactError):
            load_stream(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "bad.rwfs"
        payload = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 1, 1, 1) + payload)
        with pytest.raises(NonFiniteDataError):
            load_stream(path)

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_many_shapes(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        stream = synth_stream(seed, int(rng.integers(1, 6)),
                              int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        save_stream(stream, tmp_path / "a.rwfs")
        save_stream(load_stream(tmp_path / "a.rwfs"), tmp_path / "b.rwfs")
        assert (tmp_path / "a.rwfs").read_bytes() == \
            (tmp_path / "b.rwfs").read_bytes()


def test_iter_subclips_views_frames():
    """A sub-clip is the stream's array sliced between two bounds of
    split_into_subclips: a view of the frames, not a copy."""
    stream = synth_stream(1, 7, 2, 4)
    ranges = split_into_subclips(stream.T, 3)
    assert ranges == [(0, 3), (3, 6), (6, 7)]
    clips = [stream.frames[a:b] for a, b in ranges]
    assert [len(c) for c in clips] == [3, 3, 1]
    assert all(np.shares_memory(c, stream.frames) for c in clips)
    assert clips[2][0].tobytes() == stream.frames[6].tobytes()
    assert np.concatenate(clips).tobytes() == \
        np.asarray(stream.frames).tobytes()


def test_prefix():
    stream = synth_stream(1, 7, 2, 4)
    pre = stream.prefix(3)
    assert (pre.T, pre.P, pre.d) == (3, 2, 4)
    assert np.shares_memory(pre.frames, stream.frames)
    assert pre.frames[2].tobytes() == stream.frames[2].tobytes()
    with pytest.raises(ValueError):
        stream.prefix(0)


def test_shape_read_from_the_array():
    stream = FrameTokenStream(np.zeros((5, 3, 2), dtype=np.float32))
    assert (stream.T, stream.P, stream.d) == (5, 3, 2)
    with pytest.raises(ValueError):
        FrameTokenStream(np.zeros((0, 3, 2)))
    with pytest.raises(ValueError):
        FrameTokenStream(np.zeros((5, 3)))
