import numpy as np
import pytest

from streammem.config import RunConfig
from streammem.errors import (BadMagicError, BadVersionError,
                              TruncatedPayloadError)
from streammem.memory import (DiskFeatureBuffer, FeatureBuffer, MemoryBank,
                              MemoryEntry, QueryBank, accounting_report,
                              append, bank_bytes, buffer_store, load_bank,
                              read_context, save_bank, save_buffer_spill,
                              write_frame)
from streammem.tensor import make_attention_params

from oracles import attention_oracle


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
