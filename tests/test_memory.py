import struct

import numpy as np
import pytest

from streammem.config import RunConfig
from streammem.errors import (BadMagicError, BadVersionError,
                              MalformedArtifactError, NonFiniteDataError,
                              NumericError, TruncatedPayloadError)
from streammem.memory import (DiskFeatureBuffer, FeatureBuffer, MemoryBank,
                              MemoryEntry, QueryBank, accounting_report,
                              append, bank_bytes, buffer_store, load_bank,
                              read_context, save_bank, save_buffer_spill,
                              write_frame)
from streammem.stream import rwfs_record_bytes
from streammem.tensor import attention, make_attention_params

from oracles import attention_oracle, bank_bytes_loop


def _query_bank(seed, d=8, heads=2, n_read=4, n_write=2):
    rng = np.random.default_rng(seed)
    return QueryBank(
        read_queries=rng.standard_normal((n_read, d)),
        write_queries=rng.standard_normal((n_write, d)),
        read_attention=make_attention_params(rng, d, heads, 0.2),
        write_attention=make_attention_params(rng, d, heads, 0.2),
    )


def _filled_bank(seed, W=2, d=8, frames=3):
    rng = np.random.default_rng(seed)
    bank = MemoryBank(W=W, d=d)
    for t in range(frames):
        append(bank, MemoryEntry(t, t // 2, rng.standard_normal((W, d))))
    return bank


class TestAppend:
    def test_orders_and_counts(self):
        bank = _filled_bank(0, frames=5)
        assert len(bank) == 5
        assert bank.token_count() == 10
        assert bank.frame_indices() == [0, 1, 2, 3, 4]
        assert bank.all_tokens().shape == (10, 8)

    def test_out_of_order_rejected(self):
        bank = _filled_bank(0, frames=3)
        with pytest.raises(ValueError):
            append(bank, MemoryEntry(2, 1, np.zeros((2, 8))))

    def test_duplicate_rejected(self):
        bank = _filled_bank(0, frames=3)
        with pytest.raises(ValueError):
            append(bank, MemoryEntry(2, 1, np.zeros((2, 8))))

    def test_wrong_shape_rejected(self):
        bank = MemoryBank(W=2, d=8)
        with pytest.raises(ValueError):
            append(bank, MemoryEntry(0, 0, np.zeros((3, 8))))

    def test_non_finite_rejected(self):
        bank = MemoryBank(W=2, d=8)
        tokens = np.zeros((2, 8))
        tokens[0, 0] = np.nan
        with pytest.raises(ValueError):
            append(bank, MemoryEntry(0, 0, tokens))

    def test_growth_keeps_rows_and_views_are_read_only(self):
        rng = np.random.default_rng(17)
        bank = MemoryBank(W=2, d=8)
        written = [rng.standard_normal((2, 8)) for _ in range(40)]
        for t, tokens in enumerate(written):
            append(bank, MemoryEntry(2 * t, t // 4, tokens))
        assert np.array_equal(bank.tokens, np.stack(written))
        assert np.array_equal(bank.all_tokens(), np.concatenate(written))
        assert bank.frame_indices() == list(range(0, 80, 2))
        assert [e.subclip_index for e in bank.entries] == \
            [t // 4 for t in range(40)]
        with pytest.raises(ValueError):
            bank.all_tokens()[0, 0] = 1.0
        with pytest.raises(ValueError):
            bank.entries[0].tokens[0, 0] = 1.0


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
        append(bank, MemoryEntry(0, 0, row[None, :]))
        out = read_context(bank, queries, residual=False)
        expected = np.tile(
            (row @ queries.read_attention.w_v) @ queries.read_attention.w_o,
            (queries.n_read, 1))
        assert np.allclose(out, expected, atol=1e-12)


class TestReadKVCache:
    """The cached read must equal one uncached attention over all memory
    rows bit for bit, however the rows arrived."""

    @staticmethod
    def _uncached(bank, queries, residual=True):
        mem = bank.all_tokens()
        out = attention(queries.read_queries, mem, mem,
                        queries.read_attention)
        return queries.read_queries + out if residual else out

    @pytest.mark.parametrize("W,batch", [(1, 1), (2, 1), (2, 3), (3, 16)])
    def test_bit_exact_after_each_append(self, W, batch):
        # W=1 with one frame per read projects single rows, which numpy
        # would send to gemv; 40 frames cross the capacity doublings
        rng = np.random.default_rng(20 + W + batch)
        queries = _query_bank(20, n_write=W)
        bank = MemoryBank(W=W, d=8)
        for t in range(40):
            append(bank, MemoryEntry(t, t // batch,
                                     rng.standard_normal((W, 8))))
            if (t + 1) % batch:
                continue
            for residual in (True, False):
                assert np.array_equal(read_context(bank, queries, residual),
                                      self._uncached(bank, queries, residual))
            params = queries.read_attention
            kp, vp = bank.projected_kv(params)
            assert np.array_equal(kp, bank.all_tokens() @ params.w_k)
            assert np.array_equal(vp, bank.all_tokens() @ params.w_v)

    def test_second_query_bank_rebuilds_cache(self):
        first, second = _query_bank(21), _query_bank(22)
        bank = _filled_bank(23, frames=5)
        for queries in (first, second, first):
            assert np.array_equal(read_context(bank, queries),
                                  self._uncached(bank, queries))
            append(bank, MemoryEntry(len(bank), 0,
                                     np.full((2, 8), 0.1 * len(bank))))
            assert np.array_equal(read_context(bank, second),
                                  self._uncached(bank, second))

    def test_non_finite_weights_raise_on_cached_read(self):
        queries = _query_bank(24)
        bank = _filled_bank(25)
        read_context(bank, queries)
        queries.read_attention.w_o[0, 0] = np.inf
        with pytest.raises(NumericError):
            read_context(bank, queries)

    def test_resident_bytes_count_the_cache(self):
        bank = _filled_bank(26, frames=6)
        before = bank.resident_bytes()
        assert before >= bank.tokens.nbytes
        read_context(bank, _query_bank(27))
        assert bank.resident_bytes() >= before + 2 * bank.all_tokens().nbytes


class TestWriteFrame:
    def test_matches_loop_oracle(self):
        queries = _query_bank(7)
        perceived = np.random.default_rng(7).standard_normal((3, 5, 8))
        entries = write_frame(perceived, queries, start_frame=9,
                              subclip_index=2)
        assert [(e.frame_index, e.subclip_index) for e in entries] == \
            [(9, 2), (10, 2), (11, 2)]
        for entry, frame in zip(entries, perceived):
            expected = attention_oracle(queries.write_queries, frame, frame,
                                        queries.write_attention)
            assert np.allclose(entry.tokens, expected, atol=1e-10, rtol=0)

    def test_batch_matches_one_frame_at_a_time(self):
        queries = _query_bank(10)
        perceived = np.random.default_rng(10).standard_normal((4, 5, 8))
        batched = write_frame(perceived, queries, 0, 0)
        for j in range(4):
            (single,) = write_frame(perceived[j:j + 1], queries, j, 0)
            assert np.array_equal(batched[j].tokens, single.tokens)

    def test_identical_rows_collapse(self):
        queries = _query_bank(8)
        row = np.random.default_rng(8).standard_normal(8)
        perceived = np.tile(row, (1, 6, 1))
        (entry,) = write_frame(perceived, queries, 0, 0)
        expected = np.tile(
            (row @ queries.write_attention.w_v) @ queries.write_attention.w_o,
            (queries.n_write, 1))
        assert np.allclose(entry.tokens, expected, atol=1e-12)

    def test_dim_mismatch_rejected(self):
        queries = _query_bank(9)
        with pytest.raises(ValueError):
            write_frame(np.zeros((1, 4, 7)), queries, 0, 0)

    def test_unstacked_states_rejected(self):
        queries = _query_bank(9)
        with pytest.raises(ValueError):
            write_frame(np.zeros((4, 8)), queries, 0, 0)


class TestFeatureBuffer:
    def test_bitwise_fidelity(self):
        buffer = FeatureBuffer()
        raw = np.random.default_rng(10).standard_normal((3, 8))
        buffer_store(buffer, 5, raw)
        raw[0, 0] = 99.0  # mutating the source must not leak into the buffer
        got = buffer.get(5)
        assert got[0, 0] != 99.0
        assert got.tobytes() != raw.tobytes()
        raw[0, 0] = got[0, 0]
        assert got.tobytes() == raw.tobytes()

    def test_duplicate_store_rejected(self):
        buffer = FeatureBuffer()
        buffer_store(buffer, 0, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            buffer_store(buffer, 0, np.zeros((1, 2)))

    def test_counts(self):
        buffer = FeatureBuffer()
        buffer_store(buffer, 1, np.zeros((3, 4)))
        buffer_store(buffer, 0, np.zeros((3, 4)))
        assert len(buffer) == 2
        assert buffer.token_count() == 6
        assert buffer.frame_indices() == [0, 1]

    def test_spill_round_trip(self, tmp_path):
        buffer = FeatureBuffer()
        rng = np.random.default_rng(11)
        frames = {t: rng.standard_normal((2, 4)) for t in range(4)}
        for t, raw in frames.items():
            buffer_store(buffer, t, raw)
        data = tmp_path / "buffer.bin"
        manifest = tmp_path / "buffer.manifest"
        save_buffer_spill(buffer, data, manifest)
        disk = DiskFeatureBuffer(data, manifest)
        assert disk.frame_indices() == [0, 1, 2, 3]
        assert disk.token_count() == 8
        for t, raw in frames.items():
            # spill quantizes to float32; retrieval matches that rounding
            assert np.array_equal(disk.get(t),
                                  raw.astype(np.float32).astype(np.float64))

    def _spilled(self, tmp_path, frames=3):
        buffer = FeatureBuffer()
        for t in range(frames):
            buffer_store(buffer, t, np.full((2, 4), float(t)))
        data = tmp_path / "buffer.bin"
        manifest = tmp_path / "buffer.manifest"
        save_buffer_spill(buffer, data, manifest)
        return data, manifest

    @pytest.mark.parametrize("text", ["{not json", "[]", "{}",
                                      '{"frames": [[0]]}',
                                      '{"frames": [["a", 0]]}',
                                      '{"frames": [[0, -20]]}'])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        data, manifest = self._spilled(tmp_path)
        manifest.write_text(text)
        with pytest.raises(MalformedArtifactError):
            DiskFeatureBuffer(data, manifest)

    def test_offset_past_end_is_truncated(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        manifest.write_text('{"frames": [[0, 100000]]}')
        with pytest.raises(TruncatedPayloadError):
            DiskFeatureBuffer(data, manifest).get(0)

    @pytest.mark.parametrize("frames", [0, 2])
    def test_record_of_wrong_frame_count_rejected(self, tmp_path, frames):
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(rwfs_record_bytes(np.zeros((frames, 2, 4))))
        manifest.write_text('{"frames": [[0, 0]]}')
        with pytest.raises(MalformedArtifactError):
            DiskFeatureBuffer(data, manifest).get(0)

    def test_frame_missing_from_manifest_rejected(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        with pytest.raises(MalformedArtifactError):
            DiskFeatureBuffer(data, manifest).get(3)

    def test_short_record_body_is_truncated(self, tmp_path):
        data, manifest = self._spilled(tmp_path)
        data.write_bytes(data.read_bytes()[:-4])
        disk = DiskFeatureBuffer(data, manifest)
        disk.get(0)
        with pytest.raises(TruncatedPayloadError):
            disk.get(2)


class TestBankFile:
    def test_round_trip_bitwise(self, tmp_path):
        bank = _filled_bank(12, frames=4)
        path = tmp_path / "m.rwmb"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.frame_indices() == bank.frame_indices()
        assert [e.subclip_index for e in loaded.entries] == \
            [e.subclip_index for e in bank.entries]
        assert bank_bytes(loaded) == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_bank(path)

    def test_bad_version(self, tmp_path):
        bank = _filled_bank(13, frames=1)
        path = tmp_path / "m.rwmb"
        raw = bytearray(bank_bytes(bank))
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_bank(path)

    def test_truncated(self, tmp_path):
        bank = _filled_bank(14, frames=2)
        path = tmp_path / "m.rwmb"
        path.write_bytes(bank_bytes(bank)[:-3])
        with pytest.raises(TruncatedPayloadError):
            load_bank(path)

    @pytest.mark.parametrize("W,d,frames", [(2, 8, 0), (2, 8, 1), (3, 5, 37),
                                            (1, 64, 20)])
    def test_bytes_match_entry_loop(self, W, d, frames):
        bank = _filled_bank(18 + frames, W=W, d=d, frames=frames)
        assert bank_bytes(bank) == bank_bytes_loop(bank)

    def test_unrepresentable_entry_shape_rejected(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(struct.pack("<4sIIII", b"RWMB", 1, 0, 2**20, 2**20))
        with pytest.raises(MalformedArtifactError):
            load_bank(path)

    def test_oversized_rejected(self, tmp_path):
        path = tmp_path / "m.rwmb"
        path.write_bytes(bank_bytes(_filled_bank(19, frames=2)) + b"\0")
        with pytest.raises(TruncatedPayloadError):
            load_bank(path)

    def test_non_finite_rejected(self, tmp_path):
        raw = bytearray(bank_bytes(_filled_bank(28, frames=3)))
        # last float32 of the last entry
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path = tmp_path / "m.rwmb"
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError):
            load_bank(path)

    @pytest.mark.parametrize("second", [0, 1, 7])
    def test_frame_order_rejected(self, tmp_path, second):
        # frames (1, second, 8): a regression, a duplicate, then in order
        raw = bytearray(bank_bytes(_filled_bank(29, frames=3)))
        entry = 8 + 2 * 8 * 4
        for i, frame in enumerate((1, second, 8)):
            raw[20 + i * entry:24 + i * entry] = frame.to_bytes(4, "little")
        path = tmp_path / "m.rwmb"
        path.write_bytes(bytes(raw))
        if second == 7:
            assert load_bank(path).frame_indices() == [1, 7, 8]
        else:
            with pytest.raises(MalformedArtifactError):
                load_bank(path)


class TestAccounting:
    def test_reference_stream_length(self):
        config = RunConfig()
        bank = MemoryBank(W=2, d=64)
        rng = np.random.default_rng(0)
        for t in range(548):
            append(bank, MemoryEntry(t, t // 16, rng.standard_normal((2, 64))))
        report = accounting_report(bank, None, config)
        assert report.memory_token_count == 1096
        assert report.llm_input_length == 1353
        assert report.peak_transient_scores == 32 * 1096
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
        buffer = FeatureBuffer()
        buffer_store(buffer, 0, np.zeros((4, 8)))
        buffer_store(buffer, 1, np.zeros((4, 8)))
        report = accounting_report(bank, buffer, config)
        assert report.buffer_token_count == 8
        assert report.bytes_estimates["buffer"] == 8 * 8 * 4
        assert report.bytes_estimates["memory"] == 4 * 8 * 4
