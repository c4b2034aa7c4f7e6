"""End-to-end pipeline: Stage 1 (read-perceive-write), Stage 2 (selection),
assembly, and deterministic artifact output.

Artifacts written to the output directory:

    config.txt            canonical key=value dump of the run configuration
    params.rwpm           model parameter checkpoint
    memory.rwmb           memory bank
    buffer.bin            spilled feature buffer (one RWFS record per frame)
    buffer.manifest       frame_index -> byte offset map for buffer.bin
    selection.txt         per-candidate selection report
    selection_pooled.rwfs pooled tokens of the selected frames
    llm_input.rwli        assembled LLM-input sequence
    accounting.txt        token/byte accounting report
"""

import os
from dataclasses import dataclass

import numpy as np

from .assembly import assemble, save_llm_input
from .config import RunConfig, format_config
from .dfs import dfs_select, format_selection_report, uniform_select
from .errors import ConfigError
from .memory import accounting_report, save_bank, save_buffer_spill
from .params import init_model_params, save_params
from .perceiver import process_stream
from .stream import (FrameTokenStream, encode_instruction, load_stream,
                     save_stream)


@dataclass
class PipelineResult:
    bank: object
    buffer: object
    selection: object
    sequence: object
    report: object
    out_dir: str


def _resolve_stream(stream_source, config: RunConfig,
                    breakpoint_frame=None) -> FrameTokenStream:
    if isinstance(stream_source, FrameTokenStream):
        stream = stream_source
    else:
        stream = load_stream(stream_source)
    if stream.d != config.d:
        raise ConfigError(
            f"stream dim {stream.d} does not match model.d {config.d}")
    if breakpoint_frame is not None:
        if breakpoint_frame < 1:
            raise ConfigError("breakpoint must keep at least one frame")
        stream = stream.prefix(min(breakpoint_frame, stream.T))
    return stream


def run_pipeline(config: RunConfig, stream_source, instruction_text: str,
                 out_dir, select_strategy: str = "dfs",
                 breakpoint_frame=None) -> PipelineResult:
    """Run both stages plus assembly and write all artifacts.

    Fully deterministic: identical (config, stream bytes, instruction text)
    produce byte-identical output directories.
    """
    if select_strategy not in ("dfs", "uniform"):
        raise ConfigError(f"unknown selection strategy {select_strategy!r}")
    config.validate()
    stream = _resolve_stream(stream_source, config, breakpoint_frame)
    params = init_model_params(config)
    instruction = encode_instruction(instruction_text, config.d)

    bank, buffer = process_stream(stream, instruction, params.query_bank,
                                  params.perceiver, config.subclip_frames,
                                  residual_read=config.residual_read)
    p = min(config.pool_tokens, stream.P)
    if select_strategy == "uniform":
        selection = uniform_select(bank, buffer, config.Kc, p)
    else:
        selection = dfs_select(bank, buffer, instruction, config.L,
                               config.knn_k, config.Kc, p,
                               z_repr=config.z_repr)
    sequence = assemble(bank, selection, params.tau)
    report = accounting_report(bank, buffer, config)

    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    with open(path("config.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))
    save_params(params, path("params.rwpm"))
    save_bank(bank, path("memory.rwmb"))
    save_buffer_spill(buffer, path("buffer.bin"), path("buffer.manifest"))
    with open(path("selection.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_selection_report(selection))
    save_stream(FrameTokenStream(len(selection.pooled), p, config.d,
                                 list(selection.pooled)),
                path("selection_pooled.rwfs"))
    save_llm_input(sequence, path("llm_input.rwli"))
    with open(path("accounting.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.render_text())
    return PipelineResult(bank=bank, buffer=buffer, selection=selection,
                          sequence=sequence, report=report,
                          out_dir=str(out_dir))


def stage1_peak_resident_bytes(config: RunConfig, stream: FrameTokenStream,
                               instruction_text: str) -> int:
    """Allocation-accounting harness for Stage 1.

    Tracks, after every sub-clip, the bytes allocated by the bank (its
    projected K/V cache included) and held by the buffer, plus the
    transient workspace of the next read (the N_R x W*t score matrix) and
    the per-clip cross-attention keys. The peak demonstrates the absence of
    any state that grows faster than linearly in T.
    """
    config.validate()
    params = init_model_params(config)
    instruction = encode_instruction(instruction_text, config.d)
    peak = 0

    def on_subclip(clip, bank, buffer):
        nonlocal peak
        resident = bank.resident_bytes() + buffer.resident_bytes()
        read_scores = config.n_read * bank.token_count() * 8
        clip_keys = len(clip.frames) * (
            stream.P + instruction.tokens.shape[0]) * config.d * 8
        peak = max(peak, resident + read_scores + clip_keys)

    process_stream(stream, instruction, params.query_bank, params.perceiver,
                   config.subclip_frames, residual_read=config.residual_read,
                   on_subclip=on_subclip)
    return peak
