"""End-to-end pipeline: Stage 1 (read-perceive-write), Stage 2 (selection),
assembly, and deterministic artifact output.

Artifacts written to the output directory:

    config.txt            canonical key=value dump of the run configuration
    params.rwpm           model parameter checkpoint
    memory.rwmb           memory bank
    buffer.bin            spilled feature buffer (one RWFS record: for a
                          loaded stream, a kernel copy of its first frames)
    buffer.manifest       constant version line (memory.SPILL_MANIFEST)
    selection.txt         per-candidate selection report
    selection_pooled.rwfs pooled tokens of the selected frames
    llm_input.rwli        assembled LLM-input sequence
    accounting.txt        token/byte accounting report

They are written into a temporary directory inside the output directory
and moved out once all nine are written, so a failed run leaves none.

A stream given as a path is opened with `load_stream`, which checks it
whole but holds none of it: Stage 1 reads it a sub-clip block at a time
and Stage 2 pools the selected frames from it, both through one
descriptor. `PipelineResult.buffer` keeps that descriptor open for further
queries; `buffer.close()` closes it, as does collecting the result.
"""

import os
import tempfile
from dataclasses import dataclass

from .assembly import assemble, save_llm_input
from .config import RunConfig, format_config
from .dfs import dfs_select, format_selection_report, uniform_select
from .errors import ConfigError
from .memory import accounting_report, save_bank, save_buffer_spill
from .params import init_model_params, save_params
from .perceiver import process_stream
from .special import erf_scratch_bytes
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


def _resolve_stream(stream: FrameTokenStream, config: RunConfig,
                    breakpoint_frame=None) -> FrameTokenStream:
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
    produce byte-identical output directories. A stream given as a path is
    opened here: a failed run closes it, and a finished one leaves it open
    as the result's buffer.
    """
    if select_strategy not in ("dfs", "uniform"):
        raise ConfigError(f"unknown selection strategy {select_strategy!r}")
    config.validate()
    stream = stream_source
    if not isinstance(stream, FrameTokenStream):
        stream = load_stream(stream_source)
    try:
        return _run(config, stream, instruction_text, out_dir,
                    select_strategy, breakpoint_frame)
    except BaseException:
        if stream is not stream_source:
            stream.frames.close()
        raise


def _run(config: RunConfig, stream: FrameTokenStream, instruction_text: str,
         out_dir, select_strategy: str, breakpoint_frame) -> PipelineResult:
    stream = _resolve_stream(stream, config, breakpoint_frame)
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
    with tempfile.TemporaryDirectory(prefix=".streammem-",
                                     dir=out_dir) as staging:
        def path(name):
            return os.path.join(staging, name)

        with open(path("config.txt"), "w", encoding="utf-8") as fh:
            fh.write(format_config(config))
        save_params(params, path("params.rwpm"))
        save_bank(bank, path("memory.rwmb"))
        save_buffer_spill(buffer, path("buffer.bin"), path("buffer.manifest"))
        with open(path("selection.txt"), "w", encoding="utf-8") as fh:
            fh.write(format_selection_report(selection))
        save_stream(FrameTokenStream(selection.pooled),
                    path("selection_pooled.rwfs"))
        save_llm_input(sequence, path("llm_input.rwli"))
        with open(path("accounting.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.render_text())
        for name in os.listdir(staging):
            os.replace(path(name), os.path.join(out_dir, name))
    return PipelineResult(bank=bank, buffer=buffer, selection=selection,
                          sequence=sequence, report=report,
                          out_dir=str(out_dir))


def stage1_peak_resident_bytes(config: RunConfig, stream: FrameTokenStream,
                               instruction_text: str) -> int:
    """Allocation-accounting harness for Stage 1.

    Tracks, after every sub-clip, the bytes held by the bank (its live
    rows and the streaming read state, whose size does not depend on T)
    and by the buffer, plus the model's weights, resident through Stage 1,
    and two workspaces that do not grow with T:
    - the read's: every head's N_R x W*min(F, T) scores over the rows of
      one sub-clip;
    - the perceiver's, for a sub-clip of f frames with P+I keys each: three
      f x (P+I) x d arrays (the keys with instruction rows, which live
      through every layer, and their K and V projections), the
      cross-attention scores, f x heads x N_Q x (P+I), three f x N_Q x 4d
      arrays (the FFN's pre-activation, its GELU, and a bound on the
      narrower temporaries around them), and the scratch of the GELU's
      erf.
    Every term counts the itemsize Stage 1 runs at, the bank's: 4 bytes
    for a float32 run. The buffer counts what it holds
    (`FrameStore.resident_bytes`): P*d of it per buffered frame of a
    synthetic stream's copied array, and one sub-clip's block read from a
    loaded stream's file. The peak demonstrates the absence of any state
    that grows faster than linearly in T; for a loaded stream only the
    bank grows with T.
    """
    config.validate()
    params = init_model_params(config)
    instruction = encode_instruction(instruction_text, config.d)
    F, d, n_read = config.subclip_frames, config.d, config.n_read
    n_keys = stream.P + instruction.tokens.shape[0]
    weights = params.nbytes()
    peak = 0

    def on_subclip(frames, bank, buffer):
        nonlocal peak
        size = bank.tokens.itemsize
        resident = weights + bank.resident_bytes() + buffer.resident_bytes()
        read_scores = (config.heads * n_read * bank.W * min(F, stream.T)
                       * size)
        hidden = len(frames) * n_read * 4 * d
        perceive = size * (
            len(frames) * (3 * n_keys * d + config.heads * n_read * n_keys)
            + 3 * hidden) + erf_scratch_bytes(hidden, bank.tokens.dtype)
        peak = max(peak, resident + read_scores + perceive)

    process_stream(stream, instruction, params.query_bank, params.perceiver,
                   F, residual_read=config.residual_read,
                   on_subclip=on_subclip)
    return peak
