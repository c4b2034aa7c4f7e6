import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammem.codec import RWFS
from streammem.config import RunConfig
from streammem.errors import (BadMagicError, BadVersionError, ConfigError,
                              MalformedArtifactError, NonFiniteDataError,
                              TruncatedPayloadError)
from streammem.memory import (SPILL_MANIFEST, DiskFeatureBuffer, FrameStore,
                              MemoryBank, QueryBank, accounting_report,
                              append, buffer_store, load_bank,
                              read_context, save_bank, save_buffer_spill,
                              write_frame)
from streammem.params import init_model_params
from streammem.perceiver import process_stream
from streammem.pipeline import run_pipeline, stage1_peak_resident_bytes
from streammem.stream import (empty_instruction, encode_instruction,
                              load_stream, synth_stream)
from streammem.tensor import make_attention_params

from oracles import (attention_oracle, bank_bytes_loop, bank_bytes_v1,
                     read_context_loop, read_context_uncached,
                     spill_manifest_v2)


def _query_bank(seed, d=8, heads=2, n_read=4, n_write=2):
    rng = np.random.default_rng(seed)
    return QueryBank(
        read_queries=rng.standard_normal((n_read, d)),
        write_queries=rng.standard_normal((n_write, d)),
        read_attention=make_attention_params(rng, d, heads, 0.2),
        write_attention=make_attention_params(rng, d, heads, 0.2),
    )


class _CheckedReads:
    """Reads a bank and checks each read against `read_context_loop` bit
    for bit, replaying the row counts at which the same read queries read
    before; other read queries restart the replay, as they restart the
    bank's read state. Each read's attention, before any residual, is also
    checked against one full attention within `_full_read_bound`."""

    def __init__(self, bank):
        self.bank = bank
        self.queries = None
        self.reads = []
        self._expected = None  # (replayed, full, bound), without residual

    def read(self, queries, residual=True):
        bank = self.bank
        out = read_context(bank, queries, residual)
        if not len(bank):
            return out
        rows = bank.token_count()
        if queries is not self.queries:
            self.queries, self.reads = queries, []
        if not self.reads or self.reads[-1] != rows:
            self.reads.append(rows)
            self._expected = None
        if self._expected is None:
            mem = bank.all_tokens()
            self._expected = (
                read_context_loop(mem, queries, self.reads, False),
                read_context_uncached(bank, queries, False),
                _full_read_bound(mem, queries, len(self.reads)))
        loop, full, bound = self._expected
        # the bound covers the attention, not the rounding of the residual
        # sum, which can move a query-sized entry by an ulp on its own
        assert np.max(np.abs(loop - full)) <= bound
        if residual:
            loop = queries.read_queries + loop
        assert np.array_equal(out, loop)
        return out


def _full_read_bound(mem, queries, n_reads):
    """How far the streaming read may be from one two-pass attention over
    the same rows.

    Per head both are a convex combination of the projected value rows, so
    they differ only by rounding. A shifted exponential exp(s - max) carries
    a relative error of about eps(1 + S), S the largest scaled score, from
    the rounded shift; the streaming form adds one such rescale per read,
    and both sum over the n rows (error at most n eps relative). So each
    head's context is off by at most (n_reads + n + 4)(1 + S) eps times V,
    the largest projected value entry. The output projection adds up to d
    rounding steps and scales by O, the largest column sum of |w_o|. The
    bound is twice that: 2e-12 to 5e-10 of the largest output entry at the
    test shapes, the high end where the rows' norm grows, while the two
    forms measure at most about 3e-15 of it apart.
    """
    params = queries.read_attention
    dh = params.dim_model // params.heads
    qp = queries.read_queries @ params.w_q
    kp, vp = mem @ params.w_k, mem @ params.w_v
    S = max(np.abs(qp[:, h:h + dh] @ kp[:, h:h + dh].T).max()
            for h in range(0, params.dim_model, dh)) / np.sqrt(dh)
    V = np.abs(vp).max()
    O = np.abs(params.w_o).sum(axis=0).max()
    eps = np.finfo(np.float64).eps
    steps = n_reads + len(mem) + params.dim_model + 4
    return 2 * steps * (1 + S) * eps * V * O


def _filled_bank(seed, W=2, d=8, frames=3):
    rng = np.random.default_rng(seed)
    bank = MemoryBank(W=W, d=d)
    append(bank, rng.standard_normal((frames, W, d)))
    return bank


def _bank_state(bank):
    return (len(bank), bank.frames.copy(), bank.tokens.copy(),
            bank.resident_bytes())


class TestAppend:
    def test_orders_and_counts(self):
        bank = _filled_bank(0, frames=5)
        assert len(bank) == 5
        assert bank.token_count() == 10
        assert bank.frame_indices() == [0, 1, 2, 3, 4]
        assert bank.all_tokens().shape == (10, 8)

    def test_blocks_land_after_the_live_rows(self):
        rng = np.random.default_rng(30)
        bank = MemoryBank(W=2, d=8)
        first = rng.standard_normal((3, 2, 8))
        second = rng.standard_normal((2, 2, 8))
        append(bank, first)
        append(bank, second)
        expected = np.concatenate([first, second])
        first[0, 0, 0] = 99.0  # the bank holds a copy of each block
        assert bank.frame_indices() == [0, 1, 2, 3, 4]
        assert bank.frames.tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(bank.tokens, expected)

    @staticmethod
    def _rejected(tokens):
        """Append a block that must be rejected to a bank of frames 0, 1
        and 2 (capacity 16) that has been read, and check that its rows,
        capacity and resident bytes, read state included, are unchanged."""
        bank = _filled_bank(32)
        read_context(bank, _query_bank(33))
        before, capacity = _bank_state(bank), len(bank._tokens)
        with pytest.raises(ValueError):
            append(bank, tokens)
        for got, want in zip(_bank_state(bank), before):
            assert np.array_equal(got, want)
        assert len(bank._tokens) == capacity

    def test_wrong_shape_rejected(self):
        # wrong W, wrong d, one frame's W x d without the block axis
        for shape in ((2, 3, 8), (2, 2, 7), (2, 8)):
            self._rejected(np.zeros(shape))

    def test_row_count_mismatch_rejected(self):
        # the block's leading axis is its row count, one W x d row a frame:
        # two frames' tokens as one (n*W, d) matrix, each frame's flattened
        # to one W*d row, or a block with one axis too many
        for shape in ((4, 8), (2, 16), (1, 2, 2, 8)):
            self._rejected(np.zeros(shape))

    def test_non_finite_rejected(self):
        for value in (np.nan, np.inf):
            tokens = np.random.default_rng(34).standard_normal((2, 2, 8))
            tokens[-1, -1, -1] = value  # the last row only
            self._rejected(tokens)

    def test_overflow_of_a_float32_bank_rejected(self):
        """A finite float64 token beyond float32's range would be stored as
        inf in a float32 bank; the block is checked in the bank's dtype."""
        bank = MemoryBank(W=2, d=8, dtype=np.float32)
        append(bank, np.ones((1, 2, 8)))
        tokens = np.ones((1, 2, 8))
        tokens[0, 1, 3] = 1e39
        with pytest.raises(ValueError):
            append(bank, tokens)
        assert len(bank) == 1 and bank.tokens.dtype == np.float32
        append(bank, tokens / 1e30)
        assert np.isfinite(bank.tokens).all()

    def test_rejected_block_does_not_grow_the_bank(self):
        # 40 rows would outgrow the capacity of 16
        tokens = np.random.default_rng(35).standard_normal((40, 2, 8))
        self._rejected(tokens[..., :7])
        tokens[-1, -1, -1] = np.nan
        self._rejected(tokens)

    def test_growth_keeps_rows_and_views_are_read_only(self, tmp_path):
        rng = np.random.default_rng(17)
        bank = MemoryBank(W=2, d=8)
        written = [rng.standard_normal((3, 2, 8)) for _ in range(14)]
        for tokens in written:
            append(bank, tokens)
        assert np.array_equal(bank.tokens, np.concatenate(written))
        assert np.array_equal(bank.all_tokens(),
                              np.concatenate(written).reshape(-1, 8))
        assert bank.frame_indices() == list(range(42))
        for view in (bank.all_tokens(), bank.tokens, bank.frames):
            with pytest.raises(ValueError):
                view[0] = 1
        # a loaded bank's tokens view the file's bytes, which an append
        # copies before it grows them
        path = tmp_path / "m.rwmb"
        save_bank(bank, path)
        loaded = load_bank(path)
        saved = loaded.tokens.copy()
        base = loaded.tokens
        while isinstance(base, np.ndarray):
            assert not base.flags.writeable
            base = base.base
        assert isinstance(base, bytes)
        append(loaded, np.zeros((0, 2, 8)))
        assert len(loaded) == 42
        more = rng.standard_normal((5, 2, 8)).astype(np.float32)
        append(loaded, more)
        assert len(loaded) == 47
        assert np.array_equal(loaded.tokens, np.concatenate([saved, more]))
        assert np.array_equal(load_bank(path).tokens, saved)
        assert path.read_bytes() == bank_bytes_loop(load_bank(path))


class TestReadContext:
    def test_empty_bank_returns_queries(self):
        queries = _query_bank(1)
        out = read_context(MemoryBank(W=2, d=8), queries)
        assert np.array_equal(out, queries.read_queries)
        assert out is not queries.read_queries

    def test_matches_loop_oracle_with_residual(self):
        queries = _query_bank(2)
        bank = _filled_bank(3)
        mem = bank.all_tokens()
        expected = queries.read_queries + attention_oracle(
            queries.read_queries, mem, mem, queries.read_attention)
        assert np.allclose(read_context(bank, queries, residual=True),
                           expected, atol=1e-10, rtol=0)

    def test_no_residual_matches_oracle(self):
        queries = _query_bank(4)
        bank = _filled_bank(5)
        mem = bank.all_tokens()
        expected = attention_oracle(queries.read_queries, mem, mem,
                                    queries.read_attention)
        assert np.allclose(read_context(bank, queries, residual=False),
                           expected, atol=1e-10, rtol=0)

    def test_single_identical_token_bank(self):
        queries = _query_bank(6)
        bank = MemoryBank(W=1, d=8)
        row = np.random.default_rng(6).standard_normal(8)
        append(bank, row[None, None, :])
        out = read_context(bank, queries, residual=False)
        expected = np.tile(
            (row @ queries.read_attention.w_v) @ queries.read_attention.w_o,
            (queries.n_read, 1))
        assert np.allclose(out, expected, atol=1e-12)


class TestReadKVCache:
    """The streaming read must equal the replayed recurrence bit for bit,
    however the rows arrived and whichever read queries read before."""

    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 1), (2, 3), (3, 16)])
    def test_bit_exact_after_each_append(self, W, batch):
        # W=1 with one frame per read projects single rows, which numpy
        # sends to gemv; 40 frames cross the capacity doublings
        rng = np.random.default_rng(20 + W + batch)
        queries = _query_bank(20, n_write=W)
        bank = MemoryBank(W=W, d=8)
        reader = _CheckedReads(bank)
        for t in range(40):
            append(bank, rng.standard_normal((1, W, 8)))
            if (t + 1) % batch:
                continue
            for residual in (True, False):
                reader.read(queries, residual)
            assert bank.read_state(queries).rows == bank.token_count()

    def test_second_query_bank_rebuilds_cache(self):
        first, second = _query_bank(21), _query_bank(22)
        bank = _filled_bank(23, frames=5)
        reader = _CheckedReads(bank)
        for queries in (first, second, first):
            reader.read(queries)
            append(bank, np.full((1, 2, 8), 0.1 * len(bank)))
            reader.read(second)
        assert len(reader.reads) == 1  # the last read restarted the state

    def test_resident_bytes_count_the_cache(self):
        # the read state: the projected read queries, and per head and
        # read-query row a maximum, a denominator and a dh-wide numerator
        bank = _filled_bank(26, frames=6)
        rows = bank.tokens.nbytes
        assert bank.resident_bytes() == rows
        read_context(bank, _query_bank(27, d=8, heads=2, n_read=4))
        state = (4 * 8 + 2 * 4 * (2 + 4)) * 8
        assert bank.resident_bytes() == rows + state
        append(bank, np.ones((1, 2, 8)))
        read_context(bank, _query_bank(27, d=8, heads=2, n_read=4))
        assert bank.resident_bytes() == rows + bank.tokens.nbytes // 7 \
            + state


class TestWriteFrame:
    def test_matches_loop_oracle(self):
        queries = _query_bank(7)
        perceived = np.random.default_rng(7).standard_normal((3, 5, 8))
        tokens = write_frame(perceived, queries)
        assert tokens.shape == (3, queries.n_write, 8)
        for written, frame in zip(tokens, perceived):
            expected = attention_oracle(queries.write_queries, frame, frame,
                                        queries.write_attention)
            assert np.allclose(written, expected, atol=1e-10, rtol=0)

    def test_batch_matches_one_frame_at_a_time(self):
        queries = _query_bank(10)
        perceived = np.random.default_rng(10).standard_normal((4, 5, 8))
        batched = write_frame(perceived, queries)
        for j in range(4):
            (single,) = write_frame(perceived[j:j + 1], queries)
            assert np.array_equal(batched[j], single)

    def test_identical_rows_collapse(self):
        queries = _query_bank(8)
        row = np.random.default_rng(8).standard_normal(8)
        perceived = np.tile(row, (1, 6, 1))
        (written,) = write_frame(perceived, queries)
        expected = np.tile(
            (row @ queries.write_attention.w_v) @ queries.write_attention.w_o,
            (queries.n_write, 1))
        assert np.allclose(written, expected, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        queries = _query_bank(9)
        with pytest.raises(ValueError):
            write_frame(np.zeros((1, 4, 7)), queries)

    def test_unstacked_states_rejected(self):
        queries = _query_bank(9)
        with pytest.raises(ValueError):
            write_frame(np.zeros((4, 8)), queries)


def _manifest_v2(frames):
    """The version 2 manifest of a spill of 2 x 4 float32 frames, as
    `_spilled` writes them."""
    return spill_manifest_v2(frames, 2 * 4 * 4)


class TestFeatureBuffer:
    HEADER = RWFS.header_size
    FRAME = 2 * 4 * 4  # bytes of one 2 x 4 float32 frame of `_spilled`

    def test_bitwise_fidelity(self):
        raw = np.random.default_rng(10).standard_normal((6, 3, 8))
        buffer = FrameStore(raw, count=0)
        buffer_store(buffer, 6)
        raw[5, 0, 0] = 99.0  # a write to the source must not reach the buffer
        got = buffer.get(5)
        assert got[0, 0] != 99.0
        assert got.tobytes() != raw[5].tobytes()
        raw[5, 0, 0] = got[0, 0]
        assert got.tobytes() == raw[5].tobytes()

    def test_store_backwards_or_past_the_end_rejected(self):
        buffer = FrameStore(np.zeros((6, 1, 2)), count=0)
        with pytest.raises(ValueError):
            buffer_store(buffer, 7)  # past the end
        buffer_store(buffer, 4)
        for end in (4, 3, 0, 7):  # the same sub-clip again, backwards, past
            with pytest.raises(ValueError):
                buffer_store(buffer, end)
        assert len(buffer) == 4
        with pytest.raises(MalformedArtifactError):
            buffer.get(4)
        buffer_store(buffer, 6)
        assert len(buffer) == 6

    def test_counts(self):
        buffer = FrameStore(np.zeros((3, 3, 4)), count=0)
        assert (len(buffer), buffer.token_count(),
                buffer.resident_bytes()) == (0, 0, 0)
        buffer_store(buffer, 2)
        assert len(buffer) == 2
        assert buffer.token_count() == 6
        # an array store's blocks are views of its one copy, so its reads
        # allocate nothing
        buffer.block(0, 2)
        assert buffer.resident_bytes() == 0

    def test_negative_index_counts_from_the_end(self, tmp_path):
        """store[-k] is frame len - k, as store[-k:] starts there, for an
        array store, a file-backed one and a shorter store sharing it;
        `get` takes only positions inside the store."""
        path = tmp_path / "s.rwfs"
        _write_stream_file(path, 5, 3, 4)
        with load_stream(path).frames as loaded:
            for store in (loaded, FrameStore(loaded, count=3),
                          synth_stream(3, 5, 3, 4).frames):
                n = len(store)
                for k in range(1, n + 1):
                    assert store[-k].tobytes() == store.get(n - k).tobytes()
                    assert store[-k].tobytes() == store[-k:][0].tobytes()
                with pytest.raises(MalformedArtifactError):
                    store[-n - 1]
                with pytest.raises(MalformedArtifactError):
                    store.get(-1)

    def test_spill_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((4, 2, 4))
        buffer = FrameStore(frames)
        data = tmp_path / "buffer.bin"
        manifest = tmp_path / "buffer.manifest"
        save_buffer_spill(buffer, data, manifest)
        # one RWFS record of every frame, as `save_stream` writes them
        assert data.read_bytes() == _rwfs_bytes(frames)
        assert manifest.read_bytes() == SPILL_MANIFEST
        disk = DiskFeatureBuffer(data, manifest)
        assert disk.frame_indices() == [0, 1, 2, 3]
        assert (disk.token_count(), disk.P, disk.d) == (8, 2, 4)
        for t, raw in enumerate(frames):
            # spill quantizes to float32; retrieval matches that rounding
            assert np.array_equal(disk.get(t),
                                  raw.astype(np.float32).astype(np.float64))
        # a file-backed store spills its file's bytes, or their first frames
        with FrameStore.open(data) as loaded:
            save_buffer_spill(loaded, tmp_path / "f32.bin", manifest)
            assert (tmp_path / "f32.bin").read_bytes() == data.read_bytes()
            save_buffer_spill(FrameStore(loaded, count=3), tmp_path / "f3.bin",
                              manifest)
            assert (tmp_path / "f3.bin").read_bytes() == \
                _rwfs_bytes(frames[:3])

    def _spilled(self, tmp_path, frames=3):
        buffer = FrameStore(np.repeat(np.arange(float(frames)), 2 * 4)
                            .reshape(frames, 2, 4))
        data = tmp_path / "buffer.bin"
        manifest = tmp_path / "buffer.manifest"
        save_buffer_spill(buffer, data, manifest)
        return data, manifest

    def test_manifest_is_the_same_for_every_spill(self, tmp_path):
        for frames in (1, 1000):
            manifest = tmp_path / f"{frames}.manifest"
            buffer = FrameStore(np.zeros((frames, 1, 2), np.float32))
            save_buffer_spill(buffer, tmp_path / f"{frames}.bin", manifest)
            assert manifest.read_bytes() == SPILL_MANIFEST

    def _manifest_rejected(self, tmp_path, text):
        data, manifest = self._spilled(tmp_path)
        manifest.write_text(text)
        with pytest.raises(MalformedArtifactError):
            DiskFeatureBuffer(data, manifest)

    @pytest.mark.parametrize("text", ["{not json", "[]", "{}",
                                      '{"frames": [[0]]}',
                                      '{"frames": [["a", 0]]}',
                                      '{"frames": [[0, -20]]}',
                                      '{"frames": [[0, 0, 0]]}',
                                      '{"frames": [[[0, 0]], [[1, 40]]]}',
                                      '{"frames": [[0, 0], [0, 40]]}',
                                      '{"frames": [[0, null]]}',
                                      '{"frames": {"0": 0}}',
                                      '{"frames": 7}',
                                      pytest.param("", id="empty"),
                                      pytest.param(_manifest_v2(range(3)),
                                                   id="v2"),
                                      pytest.param(_manifest_v2([1, 0, 2]),
                                                   id="reordered"),
                                      pytest.param(_manifest_v2(range(2)),
                                                   id="other_T"),
                                      pytest.param(SPILL_MANIFEST.decode()
                                                   .replace(",", ", "),
                                                   id="added_space"),
                                      pytest.param(SPILL_MANIFEST.decode()
                                                   + " ",
                                                   id="trailing_byte")])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        """Any manifest but SPILL_MANIFEST, including the version 2 offset
        list that earlier versions wrote for this very spill."""
        self._manifest_rejected(tmp_path, text)

    def test_offset_past_end_is_truncated(self, tmp_path):
        """A version 2 offset past the last frame's tokens, at the end of
        the file or beyond it, fails when the buffer is opened: no offset
        is read, since the header locates every frame."""
        for offset in (self.HEADER + 3 * self.FRAME, 100000):
            self._manifest_rejected(tmp_path,
                                    '{"frames": [[0, %d]]}' % offset)

    @pytest.mark.parametrize("offset", [0, HEADER - 1, HEADER + 4,
                                        HEADER + FRAME + FRAME // 2,
                                        2**63, -2**63, -2**63 - 1])
    def test_offset_off_a_frame_start_rejected(self, tmp_path, offset):
        """Inside the header, inside a frame, past int64 either way, or at
        its minimum: a manifest naming an offset is not SPILL_MANIFEST."""
        self._manifest_rejected(tmp_path, '{"frames": [[0, %d]]}' % offset)

    @pytest.mark.parametrize("frames", [0, 2])
    def test_record_of_wrong_frame_count_rejected(self, tmp_path, frames):
        """An empty record fails when the buffer is opened. A shorter
        record is a spill of its own, as the manifest is the same for every
        spill: it opens at its length, which the CLI checks against the
        bank's."""
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(_rwfs_bytes(np.zeros((frames, 2, 4))))
        if frames == 0:
            with pytest.raises(MalformedArtifactError):
                DiskFeatureBuffer(data, manifest)
        else:
            assert len(DiskFeatureBuffer(data, manifest)) == frames

    def test_frame_missing_from_manifest_rejected(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        disk = DiskFeatureBuffer(data, manifest)
        for frame in (3, -1):
            with pytest.raises(MalformedArtifactError):
                disk.get(frame)

    def test_huge_record_is_truncated_before_reading(self, tmp_path):
        """A record declaring more bytes than the file holds fails before
        any read of that size."""
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(_rwfs_bytes(np.zeros((1, 2, 4)))[:12]
                         + struct.pack("<II", 2**31, 2**31))
        with pytest.raises(TruncatedPayloadError):
            DiskFeatureBuffer(data, manifest).get(0)

    @pytest.mark.parametrize("offset", ["Infinity", "NaN", "1e400"])
    def test_non_integer_offset_rejected(self, tmp_path, offset):
        self._manifest_rejected(tmp_path, '{"frames": [[0, %s]]}' % offset)

    def test_manifest_order_and_empty_manifest(self, tmp_path):
        """The manifest is SPILL_MANIFEST: a version 2 list of the same
        frames in another order, or of no frames, is rejected, and the
        constant opens the spill at the length its header gives."""
        for text in (_manifest_v2([2, 0, 1]), _manifest_v2([]),
                     '{"frames": []}'):
            self._manifest_rejected(tmp_path, text)
        data, manifest = self._spilled(tmp_path)
        disk = DiskFeatureBuffer(data, manifest)
        assert (disk.frame_indices(), len(disk), disk.token_count()) == \
            ([0, 1, 2], 3, 6)
        for t in range(3):
            assert np.array_equal(disk.get(t), np.full((2, 4), float(t)))

    def test_short_record_body_is_truncated(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(data.read_bytes()[:-4])
        with pytest.raises(TruncatedPayloadError):
            DiskFeatureBuffer(data, manifest)

    def test_trailing_bytes_are_truncated(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(data.read_bytes() + bytes(4))
        with pytest.raises(TruncatedPayloadError):
            DiskFeatureBuffer(data, manifest)

    def test_non_finite_frame_fails_only_when_read(self, tmp_path):
        """Each `get` checks the frame it reads, and only that frame."""
        data, manifest = self._spilled(tmp_path)
        raw = bytearray(data.read_bytes())
        at = self.HEADER + self.FRAME + 8
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        data.write_bytes(bytes(raw))
        disk = DiskFeatureBuffer(data, manifest)
        for t in (0, 2):
            assert np.array_equal(disk.get(t), np.full((2, 4), float(t)))
        with pytest.raises(NonFiniteDataError):
            disk.get(1)


class TestReadScoreCache:
    """Each read folds in only the rows appended since the previous one,
    rescaling its sums when a running maximum rises; the result must equal
    the replayed recurrence bit for bit and one full attention within
    `_full_read_bound`."""

    @staticmethod
    def _append_and_read(reader, queries, frames, batch, scale_of=None):
        """Append `frames` rows of random tokens, reading after every
        `batch` of them."""
        bank = reader.bank
        rng = np.random.default_rng(len(bank) + 7 * batch)
        for t in range(len(bank), len(bank) + frames):
            tokens = rng.standard_normal((bank.W, bank.d))
            if scale_of is not None:
                tokens *= scale_of(t)
            append(bank, tokens[None])
            if (t + 1) % batch == 0:
                for residual in (True, False):
                    reader.read(queries, residual)

    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 5), (2, 16)])
    def test_single_read_query(self, W, batch):
        # one query row makes every score product a gemv
        queries = _query_bank(40, d=64, heads=4, n_read=1, n_write=W)
        reader = _CheckedReads(MemoryBank(W=W, d=64))
        self._append_and_read(reader, queries, 160, batch)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 3), (2, 16)])
    def test_heads(self, heads, W, batch):
        queries = _query_bank(41 + heads, d=16, heads=heads, n_read=5,
                              n_write=W)
        reader = _CheckedReads(MemoryBank(W=W, d=16))
        self._append_and_read(reader, queries, 160, batch)

    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 1), (2, 16)])
    def test_reference_head_shape_past_200_rows(self, W, batch):
        # 32 query rows of 16-column heads, the default model's read,
        # over more rows than the small-matrix kernels take
        queries = _query_bank(49, d=64, heads=4, n_read=32, n_write=W)
        reader = _CheckedReads(MemoryBank(W=W, d=64))
        self._append_and_read(reader, queries, 320, batch)

    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 16)])
    def test_wide_heads(self, W, batch):
        queries = _query_bank(48, d=64, heads=2, n_read=32, n_write=W)
        reader = _CheckedReads(MemoryBank(W=W, d=64))
        self._append_and_read(reader, queries, 160, batch)

    @pytest.mark.parametrize("W,batch", [(1, 32), (2, 16), (4, 24)])
    def test_rows_of_growing_norm_raise_the_maxima(self, W, batch):
        """Rows whose norm grows with t raise some query row's maximum on
        most reads, so the rescaling of the running sums is exercised."""
        queries = _query_bank(43, d=16, heads=2, n_read=6, n_write=W)
        reader = _CheckedReads(MemoryBank(W=W, d=16))
        rises, last = 0, None
        for _ in range(20):
            self._append_and_read(reader, queries, batch, batch,
                                  scale_of=lambda t: 1.0 + 0.3 * t)
            top = reader.bank.read_state(queries).top.copy()
            if last is not None:
                rises += bool(np.any(top > last))
            last = top
        assert rises >= 0.75 * 19, rises

    @given(W=st.integers(1, 4), F=st.integers(2, 8), n_read=st.integers(1, 8),
           heads=st.sampled_from([1, 2, 4]), dh=st.sampled_from([1, 4, 16]),
           growth=st.floats(0.05, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_property_rows_of_growing_norm(self, W, F, n_read, heads, dh,
                                           growth, seed):
        """Over shapes and growth rates, every read equals the replayed
        recurrence and one full attention within the bound. Each read's
        W*F rows grow in norm with the read: they open with +r and -r for
        a fixed row r, and the rest are at most half of r plus noise, so
        every read raises most of the running maxima (all but those of a
        head and query row whose score of r is near 0)."""
        d = heads * dh
        queries = _query_bank(seed, d=d, heads=heads, n_read=n_read,
                              n_write=W)
        bank = MemoryBank(W=W, d=d)
        reader = _CheckedReads(bank)
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(d)
        last = None
        for read in range(12):
            chunk = rng.uniform(-0.5, 0.5, (F, W, 1)) * r + 0.01 \
                * np.linalg.norm(r) * rng.standard_normal((F, W, d)) / d
            chunk.reshape(-1, d)[:2] = r, -r
            chunk *= 1.0 + growth * read
            append(bank, chunk)
            for residual in (True, False):
                reader.read(queries, residual)
            top = bank.read_state(queries).top.copy()
            if last is not None:
                assert np.mean(top > last) > 0.5, read
            last = top

    def test_read_state_size_is_independent_of_T(self):
        """The O(1)-in-T claim: after Stage 1 the bank holds its token rows
        plus a read state of the same size at T=512 and T=2048."""
        config = RunConfig(d=16, heads=2, layers=1, n_read=4,
                           subclip_frames=16).validate()
        params = init_model_params(config)
        beyond = {}
        for T in (512, 2048):
            bank, _ = process_stream(synth_stream(46, T, 3, 16),
                                     empty_instruction(16), params.query_bank,
                                     params.perceiver, config.subclip_frames)
            rows = bank.tokens.nbytes
            beyond[T] = bank.resident_bytes() - rows
            assert rows == T * 2 * 16 * 4
        # float32 projected queries and maxima, float64 running sums
        assert beyond[512] == beyond[2048] == \
            (4 * 16 + 2 * 4) * 4 + 2 * 4 * (1 + 8) * 8

    def test_stage1_peak_counts_the_read_workspace(self):
        """The modelled peak holds every head's N_R x W*min(F, T) read scores
        and the perceiver's workspace, cross-attention scores and erf
        scratch included, on top of the weights and the bank's rows and
        read state, all at float32 but the read state's float64 sums. An
        in-memory stream's frames add nothing: Stage 1 reads views of
        them and its buffer shares them."""
        config = RunConfig(d=16, heads=2, layers=1, n_read=4, n_write=2,
                           subclip_frames=4).validate()
        T, P, d, W, F = 18, 3, 16, 2, 4
        stream = synth_stream(47, T, P, d)
        n_keys = P + encode_instruction("probe", d).tokens.shape[0]
        state = (4 * d + 2 * 4) * 4 + 2 * 4 * (1 + d // 2) * 8
        # read, write and query rows and tau; four attention blocks; the
        # cross and temporal norms; FFN
        weights = 4 * (7 * d + 4 * 4 * d * d + 4 * d + 2 * d * 4 * d
                       + 4 * d + 3 * d)
        peak = 0
        for start in range(0, T, F):
            n, f = min(start + F, T), min(F, T - start)
            resident = weights + n * W * d * 4 + state
            read_scores = 2 * 4 * W * F * 4  # heads x N_R x W*F
            hidden = f * 4 * 4 * d  # f x N_Q x 4d
            perceive = 4 * (f * (3 * n_keys * d + 2 * 4 * n_keys)
                            + 3 * hidden) + hidden * 2 * 4
            peak = max(peak, resident + read_scores + perceive)
        assert stage1_peak_resident_bytes(config, stream, "probe") == peak


def _rwfs_bytes(values):
    """One RWFS record of a (T, P, d) array, packed by hand."""
    return (struct.pack("<4sIIII", b"RWFS", 1, *values.shape)
            + values.astype("<f4").tobytes())


def _write_stream_file(path, T, P, d, seed=0):
    values = np.random.default_rng(seed).standard_normal((T, P, d))
    path.write_bytes(_rwfs_bytes(values))


def _load_and_process(path, d=64):
    config = RunConfig(d=d, layers=1).validate()
    params = init_model_params(config)
    stream = load_stream(path)
    bank, buffer = process_stream(stream, empty_instruction(d),
                                  params.query_bank, params.perceiver,
                                  config.subclip_frames)
    return stream, bank, buffer


class TestZeroCopyStream:
    """A loaded stream is never held whole: its frames are read from the
    file a block at a time, bit-exact, into read-only arrays, and the
    feature buffer shares the file rather than copying it. An array input
    is copied once, so a caller's later writes never reach the store, and
    Stage 1's buffer shares that copy."""

    def test_loaded_frames_are_bit_equal_to_the_file(self, tmp_path):
        path = tmp_path / "s.rwfs"
        _write_stream_file(path, 5, 3, 4)
        payload = path.read_bytes()[RWFS.header_size:]
        frames = load_stream(path).frames
        assert frames.shape == (5, 3, 4) and frames.dtype == np.float32
        assert np.asarray(frames).tobytes() == payload
        assert b"".join(f.tobytes() for f in frames) == payload
        assert frames[1:4].tobytes() == payload[1 * 48:4 * 48]
        assert frames.resident_bytes() == 5 * 48  # the largest read
        frames.close()
        with pytest.raises(ValueError):
            frames.get(0)

    def test_get_is_read_only(self, tmp_path):
        path = tmp_path / "s.rwfs"
        _write_stream_file(path, 9, 4, 8)
        stream, _, buffer = _load_and_process(path, d=8)
        synthetic = FrameStore(synth_stream(3, 9, 4, 8).frames)
        for store in (stream.frames, buffer, synthetic):
            for t in range(9):
                got = store.get(t)
                assert got.dtype == np.float32
                with pytest.raises(ValueError):
                    got[0, 0] = 1.0
            with pytest.raises(ValueError):
                store.block(2, 5)[0, 0, 0] = 1.0
        for t in range(9):
            assert np.array_equal(buffer.get(t), stream.frames.get(t))
        # the buffer holds one block read from the file, 9 frames in one
        # 16-frame sub-clip, not a copy of every frame
        assert buffer.resident_bytes() == 9 * 4 * 8 * 4

    def test_run_keeps_open_only_the_stream_it_returns(self, tmp_path,
                                                        monkeypatch):
        """`run_pipeline` from a path leaves the stream open as the
        result's buffer, which `close` closes, and closes it when the run
        fails."""
        import streammem.pipeline as pipeline

        opened = []

        def load(path):
            opened.append(load_stream(path))
            return opened[-1]

        monkeypatch.setattr(pipeline, "load_stream", load)
        path = tmp_path / "s.rwfs"
        _write_stream_file(path, 6, 4, 8)
        config = RunConfig(d=8, heads=2, layers=1, n_read=3, n_write=2,
                           subclip_frames=4, L=4, knn_k=3, Kc=2,
                           pool_tokens=2).validate()
        result = pipeline.run_pipeline(config, path, "x", tmp_path / "o")
        assert result.buffer.get(5).tobytes() == \
            path.read_bytes()[-4 * 8 * 4:]
        result.buffer.close()
        with pytest.raises(ValueError):
            result.buffer.get(5)
        with pytest.raises(ConfigError):  # a stream of d=8 for model.d=16
            pipeline.run_pipeline(RunConfig(d=16).validate(), path, "x",
                                  tmp_path / "p")
        with pytest.raises(ValueError):
            opened[-1].frames.get(0)

    def test_writable_frame_is_copied(self):
        raw = np.ones((1, 3, 4), dtype=np.float32)
        buffer = FrameStore(raw)
        raw[0, 0, 0] = 5.0
        assert not np.shares_memory(buffer.block(0, 1), raw)
        assert buffer.get(0).dtype == np.float32
        assert buffer.get(0)[0, 0] == 1.0

    def test_read_only_view_of_writable_array_is_copied(self):
        source = np.zeros((2, 3, 4))
        view = source[1:]
        view.flags.writeable = False
        buffer = FrameStore(view)
        source[1, 0, 0] = 7.0
        assert not np.shares_memory(buffer.block(0, 1), source)
        assert buffer.get(0)[0, 0] == 0.0

    def test_writable_bytes_backed_frame_is_copied(self):
        data = bytearray(np.ones((2, 2), dtype="<f4").tobytes())
        raw = np.frombuffer(data, dtype="<f4").reshape(1, 2, 2)
        buffer = FrameStore(raw)
        data[:4] = np.float32(9.0).tobytes()
        assert buffer.get(0)[0, 0] == 1.0

    @staticmethod
    def _peak_growth_per_frame(tmp_path, loaded):
        """Bytes per frame by which the traced peak of Stage 1 grows from
        T=512 to T=2048, at P=32, d=64, one layer: load_stream plus
        process_stream of a file, or process_stream alone of an in-memory
        stream built before tracing starts."""
        peaks = {}
        for T in (512, 2048):
            path = tmp_path / f"s{T}.rwfs"
            if loaded:
                _write_stream_file(path, T, 32, 64, seed=T)
            else:
                stream = synth_stream(T, T, 32, 64)
            tracemalloc.start()
            try:
                if loaded:
                    _load_and_process(path)
                else:
                    config = RunConfig(layers=1).validate()
                    params = init_model_params(config)
                    process_stream(stream, empty_instruction(64),
                                   params.query_bank, params.perceiver,
                                   config.subclip_frames)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return (peaks[2048] - peaks[512]) / (2048 - 512)

    def test_stage1_peak_grows_at_most_20kb_per_frame(self, tmp_path):
        """A whole-stream float64 decode plus a float64 copy per buffered
        frame grows by about 36 kB per frame."""
        per_frame = self._peak_growth_per_frame(tmp_path, loaded=True)
        assert per_frame <= 20_000, per_frame

    def test_stage1_peak_grows_at_most_1kb_per_frame(self, tmp_path):
        """Only the bank grows with T, by W*d*4 = 512 bytes a frame, and it
        is sized up front. A loaded stream's payload held whole would add
        its 8 kB a frame (9.4 kB a frame, measured, when `load_stream` read
        the file whole)."""
        per_frame = self._peak_growth_per_frame(tmp_path, loaded=True)
        assert per_frame <= 1_000, per_frame

    def test_in_memory_stage1_peak_grows_at_most_1kb_per_frame(self,
                                                               tmp_path):
        """An in-memory stream's Stage 1 grows only with the bank too: its
        buffer shares the stream's array. A buffer copying the array added
        its 8 kB a frame (8.7 kB a frame, measured)."""
        per_frame = self._peak_growth_per_frame(tmp_path, loaded=False)
        assert per_frame <= 1_000, per_frame


def test_whole_run_peak_grows_only_with_the_bank(tmp_path):
    """The traced peak of a whole `run_pipeline` from a loaded stream (1
    layer, P=8, d=64) grows by about the bank's W*d*4 = 512 bytes a frame
    between T=8768 and T=13152, where it lies above the finiteness scan's
    5.25 MB chunk. A write of the bank or the LLM input that joins or
    concatenates its rows holds a second copy of the bank while the bank
    is alive, about 1.02 kB a frame in all."""
    config = RunConfig(layers=1).validate()
    peaks = {}
    for T in (8768, 13152):
        path = tmp_path / f"s{T}.rwfs"
        _write_stream_file(path, T, 8, 64, seed=T)
        tracemalloc.start()
        try:
            result = run_pipeline(config, path, "find the red cup",
                                  tmp_path / f"out{T}")
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result.buffer.close()
        path.unlink()
    per_frame = (peaks[13152] - peaks[8768]) / (13152 - 8768)
    assert per_frame <= 600, per_frame


# Stage 1 of a loaded stream in a fresh process, printing the minor page
# faults it takes: load_stream, then process_stream at 4 layers
_FAULTS = """
import resource, sys
import streammem
from streammem.perceiver import process_stream
config = streammem.RunConfig(layers=4).validate()
params = streammem.init_model_params(config)
instruction = streammem.encode_instruction("find the red cup", config.d)
stream = streammem.load_stream(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
process_stream(stream, instruction, params.query_bank, params.perceiver,
               config.subclip_frames)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_stage1_minor_faults_stay_bounded(tmp_path):
    """A fresh process's Stage 1 at the reference stream shape (T=548,
    P=32, d=64, 35 sub-clips) takes few minor page faults. The check of a
    loaded stream's finiteness, a multi-MB chunk at a time, runs before
    Stage 1 and its freed chunk raises glibc's mmap threshold, so the
    perceiver's temporaries are reused from the heap. Measured on one
    Linux host: about 7,800 faults when `load_stream` read the payload
    whole, about 33,000 without the chunked check, and about 800 with it.
    The bound is the whole-payload read's count with 50% margin."""
    path = tmp_path / "s.rwfs"
    _write_stream_file(path, 548, 32, 64, seed=548)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _FAULTS, str(path)],
                          env=env, capture_output=True, text=True,
                          check=True)
    faults = int(done.stdout)
    assert faults <= 12_000, faults


class TestMemoryModel:
    """`stage1_peak_resident_bytes` bounds the traced peak of
    `process_stream` (with the weights it runs on) from above, and by at
    most 1.35x, for a loaded stream as for a synthetic one: the model
    counts a loaded stream's frames as the one sub-clip block it reads
    from the file, and a synthetic stream's, built before tracing, as
    nothing, since Stage 1 only views them."""

    @pytest.mark.parametrize("T,layers", [(64, 2), (256, 1)])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_modelled_peak_bounds_the_traced_peak(self, tmp_path, T, layers,
                                                  loaded):
        # (64, 2) is reference-like and (256, 1) long-stream-like, both at
        # the default P=32, d=64, N_R=32, W=2 and F=16
        config = RunConfig(layers=layers).validate()
        P, d = 32, config.d
        if loaded:
            _write_stream_file(tmp_path / "s.rwfs", T, P, d, seed=T)
            stream = load_stream(tmp_path / "s.rwfs")
        else:
            stream = synth_stream(T, T, P, d)
        instruction = encode_instruction("find the red cup", d)
        tracemalloc.start()
        try:
            # the weights are traced, as the model counts them
            params = init_model_params(config)
            process_stream(stream, instruction, params.query_bank,
                           params.perceiver, config.subclip_frames)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        modelled = stage1_peak_resident_bytes(config, stream,
                                              "find the red cup")
        assert traced <= modelled <= 1.35 * traced, (modelled, traced)


class TestBankFile:
    def test_round_trip_bitwise(self, tmp_path):
        bank = _filled_bank(12, frames=4)
        path = tmp_path / "m.rwmb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.frame_indices() == bank.frame_indices()
        save_bank(loaded, tmp_path / "again.rwmb")
        assert (tmp_path / "again.rwmb").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_bank(path)

    def test_bad_version(self, tmp_path):
        bank = _filled_bank(13, frames=1)
        path = tmp_path / "m.rwmb"
        raw = bytearray(bank_bytes_loop(bank))
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_bank(path)
        # a well-formed version 1 file, with its frame and sub-clip fields
        path.write_bytes(bank_bytes_v1(_filled_bank(13, frames=3), F=2))
        with pytest.raises(BadVersionError):
            load_bank(path)

    def test_truncated(self, tmp_path):
        bank = _filled_bank(14, frames=2)
        path = tmp_path / "m.rwmb"
        path.write_bytes(bank_bytes_loop(bank)[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_bank(path)

    @pytest.mark.parametrize("W,d,frames", [(2, 8, 0), (2, 8, 1), (3, 5, 37),
                                            (1, 64, 20)])
    def test_bytes_match_entry_loop(self, tmp_path, W, d, frames):
        bank = _filled_bank(18 + frames, W=W, d=d, frames=frames)
        save_bank(bank, tmp_path / "m.rwmb")
        assert (tmp_path / "m.rwmb").read_bytes() == bank_bytes_loop(bank)

    def test_unrepresentable_entry_shape_rejected(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(struct.pack("<4sIIII", b"RWMB", 2, 0, 2**20, 2**20))
        with pytest.raises(MalformedArtifactError):
            load_bank(path)

    @pytest.mark.parametrize("count,W,d", [(0, 2, 8), (3, 0, 8), (3, 2, 0)])
    def test_empty_bank_rejected(self, tmp_path, count, W, d):
        path = tmp_path / "m.rwmb"
        # no entries, or entries of no tokens: an empty payload either way
        path.write_bytes(struct.pack("<4sIIII", b"RWMB", 2, count, W, d))
        with pytest.raises(MalformedArtifactError):
            load_bank(path)

    def test_oversized_rejected(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(bank_bytes_loop(_filled_bank(19, frames=2)) + b"\0")
        with pytest.raises(TruncatedPayloadError):
            load_bank(path)

    def test_non_finite_rejected(self, tmp_path):
        raw = bytearray(bank_bytes_loop(_filled_bank(28, frames=3)))
        # last float32 of the last entry's tokens
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path = tmp_path / "m.rwmb"
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError):
            load_bank(path)

    @pytest.mark.parametrize("frames", [
        pytest.param((1, 0, 8), id="0"),  # a regression
        pytest.param((1, 1, 8), id="1"),  # a duplicate
        pytest.param((1, 7, 8), id="7"),  # increasing, with gaps
        pytest.param((0, 1, 3), id="gap"),
        pytest.param((1, 2, 3), id="start_at_1")])
    def test_frame_order_rejected(self, tmp_path, frames):
        """A bank's frames are its positions 0..count-1, and nothing else:
        an entry stores no frame. A version 1 file, whose entries did, is
        rejected whatever their order, and so are its bytes relabelled
        version 2, whose frame fields leave the payload the wrong size."""
        raw = bytearray(bank_bytes_v1(_filled_bank(29, frames=3), F=2))
        entry = 8 + 2 * 8 * 4
        for i, frame in enumerate(frames):
            raw[20 + i * entry:24 + i * entry] = frame.to_bytes(4, "little")
        path = tmp_path / "m.rwmb"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_bank(path)
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError):
            load_bank(path)



class TestAccounting:
    def test_reference_stream_length(self):
        config = RunConfig()
        bank = MemoryBank(W=2, d=64)
        rng = np.random.default_rng(0)
        append(bank, rng.standard_normal((548, 2, 64)))
        report = accounting_report(bank, None, config)
        assert report.memory_token_count == 1096
        assert report.llm_input_length == 1353
        # heads*N_R*W*F
        assert report.peak_transient_scores == 4 * 32 * 2 * 16
        assert "1184*" in report.note
        assert "1353" in report.note
        text = report.render_text()
        assert "llm_input_length=1353" in text
        assert "note:" in text

    def test_short_stream_clamps_selection(self):
        config = RunConfig()
        bank = _filled_bank(15, W=2, d=8, frames=3)
        report = accounting_report(bank, None, config)
        # only 3 frames exist, so at most 3 can be selected
        assert report.llm_input_length == 2 * 3 + 1 + 32 * 3
        assert report.note == ""

    def test_buffer_tokens_counted(self):
        config = RunConfig(d=8)
        bank = _filled_bank(16, frames=2)
        buffer = FrameStore(np.zeros((2, 4, 8)))
        report = accounting_report(bank, buffer, config)
        assert report.buffer_token_count == 8
        assert report.bytes_estimates["buffer"] == 8 * 8 * 4
        assert report.bytes_estimates["memory"] == 4 * 8 * 4
