import numpy as np
import pytest

from streammem.assembly import (RWLI, LLMInputSequence, assemble,
                                load_llm_input, save_llm_input)
from streammem.config import (RunConfig, format_config, load_config,
                              parse_config)
from streammem.dfs import CandidateSet, ClusterDiagnostics, SelectionResult
from streammem.errors import (BadMagicError, BadVersionError, ConfigError,
                              MalformedArtifactError, NonFiniteDataError,
                              TruncatedPayloadError)
from streammem.memory import MemoryBank, append
from streammem.params import init_model_params

from oracles import llm_input_bytes_v1, llm_input_rows_float64


def _bank(seed, T=4, W=2, d=3):
    rng = np.random.default_rng(seed)
    bank = MemoryBank(W=W, d=d)
    append(bank, rng.standard_normal((T, W, d)))
    return bank


def _selection(centers, pooled, d=3):
    n = len(centers)
    diag = ClusterDiagnostics(sigma=np.zeros(n), rho=np.zeros(n),
                              weighted=np.zeros(n), centers=list(centers))
    cand = CandidateSet(frames=list(centers), vectors=np.zeros((n, d)),
                        relevance=np.zeros(n), L=n)
    return SelectionResult(centers=list(centers), pooled=pooled,
                           diagnostics=diag, candidates=cand)


class TestAssemble:
    def test_row_counting(self):
        bank = _bank(0, T=4, W=2)
        rng = np.random.default_rng(0)
        selection = _selection([2], rng.standard_normal((1, 3, 3)))
        tau = rng.standard_normal(3)
        seq = assemble(bank, selection, tau)
        # W*T + 1 + Kc*p = 8 + 1 + 3
        assert seq.total_rows == 12
        assert seq.memory_rows == 8
        assert seq.selected_rows == 3
        assert llm_input_rows_float64(seq).shape == (12, 3)

    def test_section_contents_and_order(self, tmp_path):
        """The saved payload holds the memory rows, the separator and the
        selected rows in that order, each as float32."""
        bank = _bank(1)
        rng = np.random.default_rng(1)
        pooled_a = rng.standard_normal((2, 3))
        pooled_b = rng.standard_normal((2, 3))
        tau = rng.standard_normal(3)
        selection = _selection([1, 3], np.stack([pooled_a, pooled_b]))
        seq = assemble(bank, selection, tau)
        save_llm_input(seq, tmp_path / "x.rwli")
        rows = np.frombuffer((tmp_path / "x.rwli").read_bytes(), "<f4",
                             offset=RWLI.header_size).reshape(-1, 3)
        assert len(rows) == 13
        f32 = np.float32
        assert np.array_equal(rows[:8], bank.all_tokens().astype(f32))
        assert np.array_equal(rows[8], tau.astype(f32))
        assert np.array_equal(rows[9:11], pooled_a.astype(f32))
        assert np.array_equal(rows[11:13], pooled_b.astype(f32))

    def test_centers_resorted_ascending(self):
        bank = _bank(2)
        rng = np.random.default_rng(2)
        pooled_for_3 = rng.standard_normal((1, 3))
        pooled_for_1 = rng.standard_normal((1, 3))
        selection = _selection([3, 1], np.stack([pooled_for_3, pooled_for_1]))
        seq = assemble(bank, selection, np.zeros(3))
        # frame 1's pooled rows must come before frame 3's
        assert np.array_equal(seq.selected_tokens[0], pooled_for_1[0])
        assert np.array_equal(seq.selected_tokens[1], pooled_for_3[0])

    def test_separator_does_not_hold_the_model(self):
        """A model's tensors view its one checkpoint payload, so a sequence
        holding tau itself would keep every weight alive with it."""
        params = init_model_params(RunConfig(d=8, heads=2, layers=1,
                                             n_read=3, n_write=2).validate())
        seq = assemble(_bank(2, d=8), _selection([0], np.ones((1, 2, 8)),
                                                 d=8), params.tau)
        assert np.array_equal(seq.separator, params.tau)
        assert not np.shares_memory(seq.separator, params.payload)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            assemble(MemoryBank(W=2, d=3),
                     _selection([], np.zeros((0, 1, 3))), np.zeros(3))

    def test_tau_shape_rejected(self):
        bank = _bank(3)
        with pytest.raises(ValueError):
            assemble(bank, _selection([0], np.zeros((1, 1, 3))), np.zeros(4))


class TestLLMInputFile:
    def _seq(self, seed):
        bank = _bank(seed)
        rng = np.random.default_rng(seed)
        selection = _selection([0, 2], rng.standard_normal((2, 2, 3)))
        return assemble(bank, selection, rng.standard_normal(3))

    def test_round_trip_bitwise(self, tmp_path):
        seq = self._seq(4)
        save_llm_input(seq, tmp_path / "a.rwli")
        loaded = load_llm_input(tmp_path / "a.rwli")
        assert loaded.total_rows == seq.total_rows
        assert loaded.memory_rows == seq.memory_rows
        save_llm_input(loaded, tmp_path / "b.rwli")
        assert (tmp_path / "a.rwli").read_bytes() == \
            (tmp_path / "b.rwli").read_bytes()

    @pytest.mark.parametrize("selected", [0, 1, 3])
    def test_one_pass_write_matches_float64_rows(self, tmp_path, selected):
        """The payload cast straight to float32 is the float64 rows cast
        afterwards, byte for byte, also for values float32 rounds, flushes
        to subnormals or to zero, and with no selected rows."""
        rng = np.random.default_rng(40 + selected)
        bank = _bank(40 + selected, T=5)
        pooled = np.reshape(
            [rng.standard_normal((2, 3)) * 10.0 ** rng.integers(
                -50, 37, size=(2, 3)) for _ in range(selected)],
            (selected, 2, 3))
        seq = assemble(bank, _selection(range(selected), pooled),
                       np.array([1e-46, -3e-39, 1.0 + 2.0 ** -30]))
        save_llm_input(seq, tmp_path / "one_pass.rwli")
        RWLI.save(tmp_path / "two_pass.rwli",
                  llm_input_rows_float64(seq).astype("<f4"),
                  d=seq.separator.shape[0], memory_rows=seq.memory_rows,
                  selected_rows=seq.selected_rows)
        assert (tmp_path / "one_pass.rwli").read_bytes() == \
            (tmp_path / "two_pass.rwli").read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.rwli").write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_llm_input(tmp_path / "x.rwli")

    def test_bad_version(self, tmp_path):
        seq = self._seq(5)
        save_llm_input(seq, tmp_path / "x.rwli")
        raw = bytearray((tmp_path / "x.rwli").read_bytes())
        raw[4] = 9
        (tmp_path / "y.rwli").write_bytes(bytes(raw))
        # version 1 also stored the total row count
        (tmp_path / "v1.rwli").write_bytes(llm_input_bytes_v1(seq))
        for name in ("y.rwli", "v1.rwli"):
            with pytest.raises(BadVersionError):
                load_llm_input(tmp_path / name)

    def test_truncated(self, tmp_path):
        seq = self._seq(6)
        save_llm_input(seq, tmp_path / "x.rwli")
        raw = (tmp_path / "x.rwli").read_bytes()
        (tmp_path / "y.rwli").write_bytes(raw[:-4])
        with pytest.raises(TruncatedPayloadError):
            load_llm_input(tmp_path / "y.rwli")

    def test_inconsistent_sections(self, tmp_path):
        seq = self._seq(7)
        save_llm_input(seq, tmp_path / "x.rwli")
        raw = bytearray((tmp_path / "x.rwli").read_bytes())
        raw[16] += 1  # selected_rows, without touching the payload
        (tmp_path / "y.rwli").write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError):
            load_llm_input(tmp_path / "y.rwli")

    def test_non_finite_payload(self, tmp_path):
        seq = self._seq(8)
        seq.separator[0] = np.inf
        save_llm_input(seq, tmp_path / "x.rwli")
        with pytest.raises(NonFiniteDataError):
            load_llm_input(tmp_path / "x.rwli")

    def test_sections_not_adding_up_rejected(self, tmp_path):
        """The section sizes fix the payload, so a memory_rows one too large
        leaves the payload a row short."""
        seq = self._seq(9)
        save_llm_input(seq, tmp_path / "x.rwli")
        raw = bytearray((tmp_path / "x.rwli").read_bytes())
        raw[12] += 1  # memory_rows
        (tmp_path / "y.rwli").write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError):
            load_llm_input(tmp_path / "y.rwli")

    @pytest.mark.parametrize("header", [
        dict(d=0, memory_rows=4, selected_rows=0),  # five 0-wide rows
        dict(d=0, memory_rows=2, selected_rows=2),
        dict(d=3, memory_rows=0, selected_rows=0),  # only the separator
        dict(d=3, memory_rows=0, selected_rows=2),
        dict(d=3, memory_rows=4, selected_rows=0)])
    def test_what_no_run_writes_rejected(self, tmp_path, header):
        """`assemble` writes at least one memory row and one selected row,
        d >= 1 wide; a record of exactly its declared size that breaks
        this is malformed, not an empty sequence."""
        _, shape, _ = RWLI.layout(RWLI.Header(**header))
        RWLI.save(tmp_path / "x.rwli", np.ones(shape, np.float32), **header)
        with pytest.raises(MalformedArtifactError):
            load_llm_input(tmp_path / "x.rwli")


class TestConfig:
    def test_defaults(self):
        config = parse_config("")
        assert (config.d, config.heads, config.layers) == (64, 4, 8)
        assert (config.n_read, config.n_write) == (32, 2)
        assert config.subclip_frames == 16
        assert (config.L, config.knn_k, config.Kc, config.pool_tokens) == \
            (64, 5, 8, 32)
        assert config.seed == 0
        assert config.residual_read is True
        assert config.temporal == "per_layer"
        assert config.z_repr == "mean"

    def test_overrides_comments_and_blanks(self):
        text = "\n".join([
            "# run setup", "", "model.d = 16", "model.heads=2",
            "dfs.Kc=3", "mode.residual_read = off", "seed=42",
        ])
        config = parse_config(text)
        assert (config.d, config.heads, config.Kc) == (16, 2, 3)
        assert config.residual_read is False
        assert config.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("model.width=3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("model.d=three")
        with pytest.raises(ConfigError):
            parse_config("mode.residual_read=maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("model.d 3")

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config("model.d=10\nmodel.heads=4")
        with pytest.raises(ConfigError):
            parse_config("dfs.Kc=0")
        with pytest.raises(ConfigError):
            parse_config("mode.temporal=sometimes")
        with pytest.raises(ConfigError):
            parse_config("mode.z_repr=max")

    def test_format_round_trip(self, tmp_path):
        config = RunConfig(d=16, heads=2, Kc=3, residual_read=False, seed=9)
        text = format_config(config)
        assert parse_config(text) == config
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert load_config(path) == config

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"model.d=16\n# \xff\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seed=-1\n")

    def test_L_below_Kc_rejected(self):
        """Fewer candidates than centers would select fewer than
        min(Kc, T) frames, so the accounting could not count them."""
        with pytest.raises(ConfigError):
            parse_config("dfs.L=4\ndfs.Kc=8\n")
        config = parse_config("dfs.L=8\ndfs.Kc=8\n")
        assert config.L == config.Kc == 8
