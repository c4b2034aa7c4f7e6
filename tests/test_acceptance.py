"""Acceptance suite: one test per contract criterion, each recording a
pass/fail verdict line printed in the terminal summary."""

import filecmp
import time

import numpy as np
import pytest

from streammem.assembly import load_llm_input, save_llm_input
from streammem.config import RunConfig
from streammem.dfs import dfs_select, uniform_select
from streammem.memory import MemoryBank, append, load_bank, save_bank
from streammem.params import init_model_params, load_params, save_params
from streammem.perceiver import process_stream
from streammem.pipeline import run_pipeline, stage1_peak_resident_bytes
from streammem.stream import (FrameTokenStream, InstructionEncoding,
                              encode_instruction, load_stream, save_stream,
                              synth_stream)
from streammem.tensor import attention, make_attention_params, softmax_rows
from streammem.verify import (QueryBank, run_grads_suite, run_linearity_suite,
                              run_oracle_suite)

from conftest import record_criterion
from oracles import attention_oracle


def _verdict(number, name, passed):
    record_criterion(number, name, passed)
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_configuration_fidelity(tmp_path):
    """Default configuration, 548-frame stream: 8 pooled 32 x d matrices,
    a 2*548-token memory bank, and a bounded runtime on one core."""
    config = RunConfig()
    stream = synth_stream(0, 548, 32, 64)
    start = time.perf_counter()
    result = run_pipeline(config, stream, "describe the sequence",
                          tmp_path / "run")
    elapsed = time.perf_counter() - start

    ok = len(result.selection.pooled) == 8
    ok &= all(m.shape == (32, 64) for m in result.selection.pooled)
    ok &= result.bank.token_count() == 2 * 548
    ok &= elapsed <= 60.0

    # the runtime bound is quoted at 16 tokens per frame; run that too
    start = time.perf_counter()
    small = run_pipeline(config, synth_stream(0, 548, 16, 64),
                         "describe the sequence", tmp_path / "run16")
    elapsed16 = time.perf_counter() - start
    ok &= elapsed16 <= 60.0
    ok &= small.bank.token_count() == 2 * 548
    _verdict(1, "configuration fidelity", ok)


def test_criterion_2_linear_memory_scaling():
    """memory_token_count = W*T exactly, and Stage-1 peak resident state
    grows linearly: doubling T must not more than 2.2x the peak."""
    ok = all(passed for _, _, passed in
             run_linearity_suite(frame_counts=(16, 64, 256, 1024)))

    config = RunConfig(d=16, heads=2, layers=2, n_read=8, n_write=2,
                       subclip_frames=16, pool_tokens=4)
    peaks = {}
    for T in (512, 1024):
        stream = synth_stream(0, T, 4, 16)
        peaks[T] = stage1_peak_resident_bytes(config, stream, "probe")
    ratio = peaks[1024] / peaks[512]
    ok &= ratio <= 2.2
    _verdict(2, "linear memory scaling", ok)


def test_criterion_3_prefix_breakpoint_consistency():
    """Processing the first k sub-clips yields memory rows byte-identical
    to the first k*F rows of the full run, for all k, over 20 seeds."""
    config = RunConfig(d=8, heads=2, layers=2, n_read=3, n_write=2,
                       subclip_frames=4, pool_tokens=2)
    F, T = config.subclip_frames, 12
    ok = True
    for seed in range(20):
        cfg = RunConfig(**{**config.__dict__, "seed": seed})
        params = init_model_params(cfg)
        stream = synth_stream(seed, T, 4, 8)
        instr = encode_instruction(f"probe {seed}", 8)
        full, _ = process_stream(stream, instr, params.query_bank,
                                 params.perceiver, F)
        for k in range(1, T // F + 1):
            pre, _ = process_stream(stream.prefix(k * F), instr,
                                    params.query_bank, params.perceiver, F)
            ok &= full.tokens[:k * F].tobytes() == pre.tokens.tobytes()
            ok &= np.array_equal(full.frames[:k * F], pre.frames)
    _verdict(3, "prefix/breakpoint consistency", ok)


def test_criterion_4_clustering_oracle_equivalence():
    """Center selection matches a brute-force double-loop oracle on 500
    random instances, exact index agreement including engineered ties."""
    matched, total = run_oracle_suite(500)
    _verdict(4, "clustering oracle equivalence", matched == total == 500)


def test_criterion_5_attention_correctness():
    """Multi-head attention within 1e-10 of the nested-loop oracle on 200
    instances; softmax rows sum to 1 within 1e-12."""
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 4))
        d = heads * int(rng.integers(2, 5))
        n_q = int(rng.integers(1, 6))
        n_kv = int(rng.integers(1, 9))
        params = make_attention_params(rng, d, heads, weight_std=0.5)
        q = rng.standard_normal((n_q, d))
        k = rng.standard_normal((n_kv, d))
        v = rng.standard_normal((n_kv, d))
        diff = np.abs(attention(q, k, v, params)
                      - attention_oracle(q, k, v, params)).max()
        ok &= diff <= 1e-10
        sums = softmax_rows(rng.standard_normal((4, 7)) * 20).sum(axis=1)
        ok &= np.abs(sums - 1.0).max() <= 1e-12
    _verdict(5, "attention correctness", ok)


def test_criterion_6_gradient_checks():
    """Analytic reverse pass of attention, layer norm, FFN, and a full
    perceiver layer agrees with central differences to < 1e-5 over 100
    seeded instances per kernel."""
    results = run_grads_suite(n_seeds=100, threshold=1e-5)
    ok = all(passed for _, _, passed in results)
    ok &= len(results) == 4
    _verdict(6, "gradient checks", ok)


def test_criterion_7_determinism(tmp_path):
    """Two identical pipeline invocations produce byte-identical output
    directories; every serialization format round-trips bitwise."""
    config = RunConfig(d=16, heads=2, layers=2, n_read=4, n_write=2,
                       subclip_frames=8, L=16, knn_k=3, Kc=4, pool_tokens=4,
                       seed=11)
    stream = synth_stream(11, 40, 8, 16)
    names = ["config.txt", "params.rwpm", "memory.rwmb", "buffer.bin",
             "buffer.manifest", "selection.txt", "selection_pooled.rwfs",
             "llm_input.rwli", "accounting.txt"]
    run_pipeline(config, stream, "repeat run", tmp_path / "a")
    run_pipeline(config, stream, "repeat run", tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               names, shallow=False)
    ok = sorted(match) == sorted(names) and not mismatch and not errors

    # bitwise round trips of every binary format
    a = tmp_path / "a"
    save_stream(load_stream(a / "selection_pooled.rwfs"), tmp_path / "s.rwfs")
    ok &= (tmp_path / "s.rwfs").read_bytes() == \
        (a / "selection_pooled.rwfs").read_bytes()
    save_bank(load_bank(a / "memory.rwmb"), tmp_path / "m.rwmb")
    ok &= (tmp_path / "m.rwmb").read_bytes() == \
        (a / "memory.rwmb").read_bytes()
    save_params(load_params(a / "params.rwpm"), tmp_path / "p.rwpm")
    ok &= (tmp_path / "p.rwpm").read_bytes() == \
        (a / "params.rwpm").read_bytes()
    save_llm_input(load_llm_input(a / "llm_input.rwli"), tmp_path / "l.rwli")
    ok &= (tmp_path / "l.rwli").read_bytes() == \
        (a / "llm_input.rwli").read_bytes()
    _verdict(7, "determinism and round trips", ok)


def test_criterion_8_accounting_report(tmp_path):
    """llm_input_length = W*T + 1 + K_c*p exactly; the 548-frame default run
    reports 1353 together with a note surfacing the published 1184* figure."""
    ok = True
    for T, W, Kc, p in ((16, 2, 4, 4), (40, 1, 8, 2), (100, 3, 8, 8)):
        config = RunConfig(d=8, heads=2, layers=1, n_read=2, n_write=W,
                           subclip_frames=8, Kc=Kc, pool_tokens=p)
        bank = MemoryBank(W=W, d=8)
        rng = np.random.default_rng(T)
        from streammem.memory import accounting_report
        for t in range(T):
            append(bank, rng.standard_normal((1, W, 8)))
        report = accounting_report(bank, None, config)
        ok &= report.llm_input_length == W * T + 1 + Kc * p
        ok &= report.memory_token_count == W * T

    result = run_pipeline(RunConfig(), synth_stream(1, 548, 32, 64),
                          "length probe", tmp_path / "run")
    ok &= result.report.llm_input_length == 1353
    ok &= "1184*" in result.report.note
    ok &= "note:" in (tmp_path / "run" / "accounting.txt").read_text()
    _verdict(8, "accounting report", ok)


def test_criterion_9_selection_vs_uniform_harness():
    """On streams where one temporal segment aligns with the probe vector,
    instruction-guided selection places at least 6 of 8 centers inside the
    segment while uniform sampling is capped near the segment fraction."""
    T, seg_a, seg_b = 160, 48, 128
    fraction = (seg_b - seg_a) / T
    uniform_cap = int(np.ceil(8 * fraction)) + 1
    config = RunConfig(d=16, heads=2, layers=2, n_read=8, n_write=2,
                       subclip_frames=16, L=64, knn_k=5, Kc=8, pool_tokens=4)
    params = init_model_params(config)
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        direction = rng.standard_normal(16)
        direction /= np.linalg.norm(direction)
        frames = np.empty((T, 4, 16))
        for t in range(T):
            frames[t] = rng.standard_normal((4, 16)) * 0.1
            if seg_a <= t < seg_b:
                frames[t] += 3.0 * direction
        stream = FrameTokenStream(frames)
        bank, buffer = process_stream(stream, encode_instruction("probe", 16),
                                      params.query_bank, params.perceiver, 16)
        in_seg = np.concatenate(
            [tokens for frame, tokens in zip(bank.frames, bank.tokens)
             if seg_a <= frame < seg_b]).mean(axis=0)
        out_seg = np.concatenate(
            [tokens for frame, tokens in zip(bank.frames, bank.tokens)
             if not seg_a <= frame < seg_b]).mean(axis=0)
        probe_dir = in_seg - out_seg
        probe_dir /= np.linalg.norm(probe_dir)
        probe = InstructionEncoding(tokens=probe_dir[None, :], mean=probe_dir)

        selected = dfs_select(bank, buffer, probe, config.L, config.knn_k,
                              config.Kc, config.pool_tokens)
        uniform = uniform_select(bank, buffer, config.Kc, config.pool_tokens)
        inside = sum(seg_a <= c < seg_b for c in selected.centers)
        inside_uniform = sum(seg_a <= c < seg_b for c in uniform.centers)
        ok &= inside >= 6
        ok &= inside_uniform <= uniform_cap
    _verdict(9, "instruction-guided vs uniform selection", ok)
