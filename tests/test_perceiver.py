import math
import struct

import numpy as np
import pytest

from streammem.autodiff import Var
from streammem.config import RunConfig
from streammem.errors import (BadMagicError, BadVersionError,
                              MalformedArtifactError, NonFiniteDataError,
                              TruncatedPayloadError)
from streammem.memory import bank_bytes
from streammem.params import init_model_params, load_params, save_params
from streammem.perceiver import (PerceiverParams, perceive_subclip,
                                 process_stream, temporal_sublayer)
from streammem.pipeline import run_pipeline
from streammem.stream import (FrameTokenStream, InstructionEncoding,
                              empty_instruction, encode_instruction,
                              synth_stream)

from oracles import (attention_loop, cast_model, layer_norm_two_pass,
                     perceive_subclip_loop, process_stream_loop,
                     read_context_loop)


def _config(**overrides):
    base = dict(d=8, heads=2, layers=2, n_read=3, n_write=2,
                subclip_frames=4, seed=0)
    base.update(overrides)
    return RunConfig(**base).validate()


def _clip(seed, n_frames=3, P=4, d=8):
    return np.random.default_rng(seed).standard_normal((n_frames, P, d))


class TestTemporalSublayer:
    def test_single_frame_matches_single_key_attention(self):
        params = init_model_params(_config())
        layer = params.perceiver.layers[0]
        state = np.random.default_rng(1).standard_normal((3, 8))
        (out,) = temporal_sublayer(state[None], layer.temporal)
        # one frame gives each query index a one-key softmax, weight 1
        for q in range(3):
            normed = np.array(layer_norm_two_pass(
                state[q].tolist(), layer.temporal.ln_gain.tolist(),
                layer.temporal.ln_bias.tolist(), 1e-5))
            expected = state[q] + (normed @ layer.temporal.w_v) \
                @ layer.temporal.w_o
            assert np.allclose(out[q], expected, atol=1e-10)

    def test_matches_loop_oracle_per_query(self):
        params = init_model_params(_config())
        layer = params.perceiver.layers[0]
        rng = np.random.default_rng(2)
        states = rng.standard_normal((4, 3, 8))
        out = temporal_sublayer(states, layer.temporal)
        t = layer.temporal
        for q in range(3):
            seq = np.stack([s[q] for s in states])
            normed = np.array([layer_norm_two_pass(
                row.tolist(), t.ln_gain.tolist(), t.ln_bias.tolist(), 1e-5)
                for row in seq])
            expected = seq + np.array(attention_loop(
                normed.tolist(), normed.tolist(), normed.tolist(),
                t.w_q.tolist(), t.w_k.tolist(), t.w_v.tolist(),
                t.w_o.tolist(), t.heads))
            for j in range(4):
                assert np.allclose(out[j][q], expected[j], atol=1e-10)

    def test_frame_permutation_equivariance(self):
        params = init_model_params(_config())
        layer = params.perceiver.layers[0]
        rng = np.random.default_rng(3)
        states = rng.standard_normal((5, 2, 8))
        perm = [3, 0, 4, 1, 2]
        out = temporal_sublayer(states, layer.temporal)
        out_perm = temporal_sublayer(states[perm], layer.temporal)
        for pos, j in enumerate(perm):
            assert np.allclose(out_perm[pos], out[j], atol=1e-12)


class TestPerceiveSubclip:
    def test_output_contract(self):
        params = init_model_params(_config())
        clip = _clip(4)
        context = np.random.default_rng(4).standard_normal((3, 8))
        out = perceive_subclip(clip, context, empty_instruction(8),
                               params.perceiver)
        assert len(out) == 3
        for f in out:
            assert f.shape == (3, 8)
            assert np.all(np.isfinite(f))

    def test_deterministic(self):
        params = init_model_params(_config())
        clip = _clip(5)
        context = np.random.default_rng(5).standard_normal((3, 8))
        instr = encode_instruction("watch this", 8)
        a = perceive_subclip(clip, context, instr, params.perceiver)
        b = perceive_subclip(clip, context, instr, params.perceiver)
        for fa, fb in zip(a, b):
            assert fa.tobytes() == fb.tobytes()

    def test_instruction_changes_output(self):
        params = init_model_params(_config())
        clip = _clip(6)
        context = np.random.default_rng(6).standard_normal((3, 8))
        a = perceive_subclip(clip, context, empty_instruction(8),
                             params.perceiver)
        b = perceive_subclip(clip, context, encode_instruction("find it", 8),
                             params.perceiver)
        assert any(not np.allclose(fa, fb) for fa, fb in zip(a, b))

    def test_zero_rows_differs_from_one_zero_row(self):
        # a zero *vector* is still an extra key; absence of rows is not
        params = init_model_params(_config())
        clip = _clip(7)
        context = np.random.default_rng(7).standard_normal((3, 8))
        none = empty_instruction(8)
        zero_row = InstructionEncoding(tokens=np.zeros((1, 8)),
                                       mean=np.zeros(8))
        a = perceive_subclip(clip, context, none, params.perceiver)
        b = perceive_subclip(clip, context, zero_row, params.perceiver)
        assert any(not np.allclose(fa, fb) for fa, fb in zip(a, b))

    def test_instruction_row_permutation_invariance(self):
        params = init_model_params(_config())
        clip = _clip(8)
        context = np.random.default_rng(8).standard_normal((3, 8))
        instr = encode_instruction("one two three four", 8)
        swapped = InstructionEncoding(tokens=instr.tokens[::-1].copy(),
                                      mean=instr.mean)
        a = perceive_subclip(clip, context, instr, params.perceiver)
        b = perceive_subclip(clip, context, swapped, params.perceiver)
        for fa, fb in zip(a, b):
            assert np.allclose(fa, fb, atol=1e-12)

    def test_bad_context_shape_rejected(self):
        params = init_model_params(_config())
        with pytest.raises(ValueError):
            perceive_subclip(_clip(9), np.zeros((2, 8)),
                             empty_instruction(8), params.perceiver)

    def test_empty_clip_rejected(self):
        params = init_model_params(_config())
        with pytest.raises(ValueError):
            perceive_subclip(np.zeros((0, 4, 8)), np.zeros((3, 8)),
                             empty_instruction(8), params.perceiver)

    def test_final_mode_differs_from_per_layer(self):
        config = _config()
        per_layer = init_model_params(config)
        final = init_model_params(_config(temporal="final"))
        clip = _clip(10)
        context = np.random.default_rng(10).standard_normal((3, 8))
        a = perceive_subclip(clip, context, empty_instruction(8),
                             per_layer.perceiver)
        b = perceive_subclip(clip, context, empty_instruction(8),
                             final.perceiver)
        assert any(not np.allclose(fa, fb) for fa, fb in zip(a, b))

    def test_var_context_matches_ndarray_forward(self):
        # the tape runs the production kernels, so the values agree bit
        # for bit, not only to a tolerance
        clip = _clip(11, n_frames=2)
        context = np.random.default_rng(11).standard_normal((3, 8))
        for temporal in ("per_layer", "final"):
            params = init_model_params(_config(temporal=temporal))
            for instr in (empty_instruction(8),
                          encode_instruction("find the red car", 8)):
                plain = perceive_subclip(clip, context, instr,
                                         params.perceiver)
                taped = perceive_subclip(clip, Var(context), instr,
                                         params.perceiver)
                assert np.array_equal(plain, taped.value), temporal


class TestBatchedForwardBitExact:
    """The batched forward equals the frame-by-frame composition of 2-D
    attention calls byte for byte, not only to a tolerance."""

    @pytest.mark.parametrize("temporal", ["per_layer", "final"])
    @pytest.mark.parametrize("n_frames", [1, 3, 4])
    @pytest.mark.parametrize("text", ["", "find the red car"])
    def test_perceive_subclip(self, temporal, n_frames, text):
        params = init_model_params(_config(temporal=temporal))
        clip = _clip(30 + n_frames, n_frames=n_frames)
        context = np.random.default_rng(30).standard_normal((3, 8))
        instr = encode_instruction(text, 8) if text else empty_instruction(8)
        out = perceive_subclip(clip, context, instr, params.perceiver)
        expected = perceive_subclip_loop(clip, context, instr.tokens,
                                         params.perceiver)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("temporal", ["per_layer", "final"])
    @pytest.mark.parametrize("F", [1, 4])
    @pytest.mark.parametrize("text", ["", "summarize"])
    def test_process_stream(self, temporal, F, text):
        # T=21 with F=4 leaves a one-frame last sub-clip
        params = init_model_params(_config(temporal=temporal))
        stream = synth_stream(31, 21, 4, 8)
        instr = encode_instruction(text, 8) if text else empty_instruction(8)
        bank, _ = process_stream(stream, instr, params.query_bank,
                                 params.perceiver, F=F)
        expected = process_stream_loop(stream.frames, instr.tokens,
                                       params.query_bank, params.perceiver, F)
        assert len(bank) == len(expected) == 21
        for tokens, want in zip(bank.tokens, expected):
            assert np.array_equal(tokens, want)


class TestCachedReadInStream:
    """Every read inside process_stream equals the streaming recurrence
    replayed over the rows of each earlier read, and the bank equals the
    frame-by-frame composition, bit for bit."""

    @pytest.mark.parametrize("overrides,T", [
        (dict(n_read=1), 40),
        (dict(heads=1), 40),
        (dict(heads=2), 40),
        (dict(n_write=1, subclip_frames=1), 70),
        (dict(d=16, heads=2, n_read=6, n_write=2, subclip_frames=16), 70),
        (dict(subclip_frames=4), 49),  # a one-frame last sub-clip
    ])
    def test_each_read_matches_uncached(self, monkeypatch, overrides, T):
        import streammem.perceiver as perceiver_module

        config = _config(**overrides)
        params = init_model_params(config)
        stream = synth_stream(32, T, 4, config.d)
        instr = encode_instruction("find the cup", config.d)
        real_read = perceiver_module.read_context
        reads = []

        def checked_read(bank, queries, residual=True):
            out = real_read(bank, queries, residual=residual)
            if len(bank):
                rows = [n * config.n_write for n in reads[1:]]
                rows.append(bank.token_count())
                assert np.array_equal(out, read_context_loop(
                    bank.all_tokens(), queries, rows, residual))
            reads.append(len(bank))
            return out

        monkeypatch.setattr(perceiver_module, "read_context", checked_read)
        F = config.subclip_frames
        bank, _ = process_stream(stream, instr, params.query_bank,
                                 params.perceiver, F=F)
        assert reads == list(range(0, T, F))
        expected = process_stream_loop(stream.frames, instr.tokens,
                                       params.query_bank, params.perceiver, F)
        assert np.array_equal(bank.tokens, np.stack(expected))


class TestProcessStream:
    def test_bank_and_buffer_cover_stream(self):
        config = _config()
        params = init_model_params(config)
        stream = synth_stream(12, 10, 4, 8)
        bank, buffer = process_stream(stream, empty_instruction(8),
                                      params.query_bank, params.perceiver,
                                      F=4)
        assert bank.frame_indices() == list(range(10))
        assert buffer.frame_indices() == list(range(10))
        for t in range(10):
            assert np.array_equal(buffer.get(t), stream.frames[t])

    def test_prefix_causality_bit_exact(self):
        config = _config()
        params = init_model_params(config)
        stream = synth_stream(13, 12, 4, 8)
        instr = encode_instruction("summarize", 8)
        full, _ = process_stream(stream, instr, params.query_bank,
                                 params.perceiver, F=4)
        # a run over any sub-clip-aligned prefix reproduces the same rows
        pre, _ = process_stream(stream.prefix(8), instr, params.query_bank,
                                params.perceiver, F=4)
        assert len(pre) == 8
        assert pre.tokens.tobytes() == full.tokens[:8].tobytes()
        assert bank_bytes(pre) != bank_bytes(full)

    def test_on_subclip_callback_order(self):
        """Each sub-clip is a view of the stream's array, handed to the
        callback after its frames are written and buffered."""
        config = _config()
        params = init_model_params(config)
        stream = synth_stream(14, 9, 4, 8)
        seen = []

        def on_subclip(frames, bank, buf):
            start = len(bank) - len(frames)
            assert np.shares_memory(frames, stream.frames)
            assert frames.tobytes() == stream.frames[start:len(bank)].tobytes()
            seen.append((start, len(bank), len(buf)))

        process_stream(stream, empty_instruction(8), params.query_bank,
                       params.perceiver, F=4, on_subclip=on_subclip)
        assert seen == [(0, 4, 4), (4, 8, 8), (8, 9, 9)]

    def test_residual_flag_changes_result(self):
        config = _config()
        params = init_model_params(config)
        stream = synth_stream(15, 8, 4, 8)
        a, _ = process_stream(stream, empty_instruction(8), params.query_bank,
                              params.perceiver, F=4, residual_read=True)
        b, _ = process_stream(stream, empty_instruction(8), params.query_bank,
                              params.perceiver, F=4, residual_read=False)
        # the first sub-clip sees an empty bank either way; later ones differ
        assert np.allclose(a.tokens[0], b.tokens[0])
        assert not np.allclose(a.tokens[7], b.tokens[7])


def _recording(monkeypatch, names, seen):
    """Wrap each of `names` in the perceiver module so its outputs are
    appended to seen[name]."""
    import streammem.perceiver as perceiver_module

    for name in names:
        real = getattr(perceiver_module, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            out = _real(*args, **kwargs)
            seen.setdefault(_name, []).append(out)
            return out

        monkeypatch.setattr(perceiver_module, name, wrapper)


class TestFloat32StageOne:
    """Stage 1 runs in float32 from the float32 stream and weights, and
    stays close to a float64 run of the same float32-rounded weights."""

    SUBLAYERS = ("cross_sublayer", "temporal_sublayer", "ffn_sublayer",
                 "read_context", "write_frame", "perceive_subclip")

    @pytest.mark.parametrize("temporal", ["per_layer", "final"])
    def test_every_stage_one_array_is_float32(self, monkeypatch, temporal):
        config = _config(temporal=temporal)
        params = init_model_params(config)
        stream = synth_stream(40, 10, 4, 8)
        assert stream.frames.dtype == np.float32
        seen = {}
        _recording(monkeypatch, self.SUBLAYERS, seen)
        bank, buffer = process_stream(stream, encode_instruction("a cup", 8),
                                      params.query_bank, params.perceiver,
                                      F=4)
        assert set(seen) == set(self.SUBLAYERS)
        for name, outputs in seen.items():
            assert {out.dtype for out in outputs} == {np.dtype(np.float32)}, \
                name
        assert bank.tokens.dtype == np.float32
        assert {buffer.get(t).dtype for t in range(10)} == \
            {np.dtype(np.float32)}

    def test_close_to_float64_run_of_the_same_weights(self, monkeypatch):
        """Default model with 2 layers: states within 5e-6 and memory
        tokens within 5e-8 of the float64 run, absolute."""
        config = RunConfig(layers=2).validate()
        params = init_model_params(config)
        wide = cast_model(params, np.float64)
        stream = synth_stream(41, 64, 32, config.d)
        instruction = encode_instruction("who picks up the red cup",
                                         config.d)
        runs = []
        for model, frames in ((params, stream.frames),
                              (wide, stream.frames.astype(np.float64))):
            seen = {}
            _recording(monkeypatch, ["perceive_subclip"], seen)
            bank, _ = process_stream(FrameTokenStream(frames), instruction,
                                     model.query_bank, model.perceiver,
                                     config.subclip_frames)
            runs.append((np.stack(seen["perceive_subclip"]), bank.tokens))
        (states, tokens), (states64, tokens64) = runs
        assert states.dtype == tokens.dtype == np.float32
        assert states64.dtype == tokens64.dtype == np.float64
        assert np.abs(states - states64).max() <= 5e-6
        assert np.abs(tokens - tokens64).max() <= 5e-8


class TestCheckpointReproducesRun:
    """A run from the params that `load_params` reads back from a run's
    `params.rwpm` writes the bytes of that run's `memory.rwmb`."""

    @pytest.mark.parametrize("temporal", ["per_layer", "final"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_memory_bytes_equal(self, tmp_path, layers, temporal):
        config = _config(layers=layers, temporal=temporal, seed=layers)
        stream = synth_stream(42, 11, 4, 8)
        text = "find the red car"
        run_pipeline(config, stream, text, tmp_path)
        loaded = load_params(tmp_path / "params.rwpm")
        bank, _ = process_stream(stream, encode_instruction(text, 8),
                                 loaded.query_bank, loaded.perceiver,
                                 config.subclip_frames)
        assert bank_bytes(bank) == (tmp_path / "memory.rwmb").read_bytes()


class TestCheckpointFile:
    def test_round_trip_bitwise(self, tmp_path):
        config = _config(layers=3, seed=21)
        params = init_model_params(config)
        path_a = tmp_path / "a.rwpm"
        path_b = tmp_path / "b.rwpm"
        save_params(params, path_a)
        save_params(load_params(path_a), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_loaded_params_behave_identically(self, tmp_path):
        config = _config()
        params = init_model_params(config)
        path = tmp_path / "p.rwpm"
        save_params(params, path)
        loaded = load_params(path)
        stream = synth_stream(22, 4, 4, 8)
        # float32 rounding on disk; re-save both and compare checkpoints
        save_params(loaded, tmp_path / "q.rwpm")
        assert path.read_bytes() == (tmp_path / "q.rwpm").read_bytes()
        assert loaded.perceiver.temporal_mode == "per_layer"
        bank, _ = process_stream(stream, empty_instruction(8),
                                 loaded.query_bank, loaded.perceiver, F=4)
        assert len(bank) == 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.rwpm"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_params(path)

    def test_truncated(self, tmp_path):
        config = _config()
        params = init_model_params(config)
        path = tmp_path / "p.rwpm"
        save_params(params, path)
        (tmp_path / "t.rwpm").write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayloadError):
            load_params(tmp_path / "t.rwpm")

    @pytest.mark.parametrize("keep", [0, 10, 32, 36, 37])
    def test_cut_anywhere_is_truncated(self, tmp_path, keep):
        # inside the 36-byte v2 header, at its end, mid-value
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config()), path)
        (tmp_path / "t.rwpm").write_bytes(path.read_bytes()[:keep])
        with pytest.raises(TruncatedPayloadError):
            load_params(tmp_path / "t.rwpm")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config()), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(TruncatedPayloadError):
            load_params(path)

    def test_final_mode_round_trips(self, tmp_path):
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config(temporal="final")), path)
        assert load_params(path).perceiver.temporal_mode == "final"
        # RWPM v2: d heads layers n_read n_write hidden temporal_mode
        assert struct.unpack_from("<4s8I", path.read_bytes()) == \
            (b"RWPM", 2, 8, 2, 2, 3, 2, 32, 1)

    @pytest.mark.parametrize("field,value", [("heads", 0), ("heads", 3),
                                             ("temporal_mode", 2)])
    def test_bad_header_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config()), path)
        raw = bytearray(path.read_bytes())
        pos = {"heads": 12, "temporal_mode": 32}[field]
        raw[pos:pos + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedArtifactError):
            load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [36, -4])  # the first value, tau's last
    def test_non_finite_weight_rejected(self, tmp_path, at, value):
        """The codec's check at load is the only finiteness check that
        weights get: attention does not re-check them on every call."""
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config()), path)
        raw = bytearray(path.read_bytes())
        at %= len(raw)
        raw[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError):
            load_params(path)

    def test_version_1_rejected(self, tmp_path):
        # the v1 layout: the v2 header without temporal_mode
        path = tmp_path / "p.rwpm"
        save_params(init_model_params(_config()), path)
        raw = path.read_bytes()
        path.write_bytes(struct.pack("<4s7I", b"RWPM", 1,
                                     *struct.unpack_from("<6I", raw, 8))
                         + raw[36:])
        with pytest.raises(BadVersionError):
            load_params(path)


def test_init_is_seed_deterministic():
    a = init_model_params(_config(seed=5))
    b = init_model_params(_config(seed=5))
    c = init_model_params(_config(seed=6))
    assert a.tau.tobytes() == b.tau.tobytes()
    assert a.query_bank.read_queries.tobytes() == \
        b.query_bank.read_queries.tobytes()
    assert a.tau.tobytes() != c.tau.tobytes()
