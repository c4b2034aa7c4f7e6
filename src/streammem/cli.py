"""Command-line interface.

Subcommands: synth, process, select, assemble, report, check.
Exit codes: 0 success, 2 format error, 3 config error, 4 numeric error.
"""

import argparse
import functools
import os
import sys

from .assembly import assemble, save_llm_input
from .config import RunConfig, check_stage2_override, load_config
from .dfs import (SelectionResult, dfs_select, format_selection_report,
                  parse_selection_centers, uniform_select)
from .errors import EngineError, MalformedArtifactError
from .memory import (DiskFeatureBuffer, accounting_report, load_bank)
from .params import init_model_params
from .pipeline import run_pipeline
from .stream import (FrameTokenStream, encode_instruction, load_stream,
                     save_stream, synth_stream)
from .verify import self_check


def _add_instruction_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--instruction", help="instruction text")
    group.add_argument("--instruction-file",
                       help="UTF-8 file holding the instruction text")


def _read_instruction(args) -> str:
    if args.instruction is not None:
        return args.instruction
    with open(args.instruction_file, "r", encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then once per process:
    `main` may run many commands in one process, and parsing keeps no
    state between calls, so every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="streammem",
        description="Streaming memory engine over per-frame token streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic RWFS stream")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--tokens-per-frame", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("process", help="run both stages and write artifacts")
    p.add_argument("--stream", required=True)
    _add_instruction_args(p)
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--select", choices=("dfs", "uniform"), default="dfs")
    p.add_argument("--breakpoint", type=int, default=None,
                   help="process only frames before this index")

    p = sub.add_parser("select", help="run Stage-2 selection on artifacts")
    p.add_argument("--bank", required=True)
    p.add_argument("--buffer-manifest", required=True,
                   help="spill manifest; the spill's frames are read from "
                        "buffer.bin in the same directory")
    _add_instruction_args(p)
    p.add_argument("--config", help="the config.txt beside --bank with other "
                   "dfs.* or mode.z_repr values; default: that file")
    p.add_argument("--strategy", choices=("dfs", "uniform"), default="dfs")
    p.add_argument("--out", required=True,
                   help="report path; pooled tokens go to <out>.pooled.rwfs")

    p = sub.add_parser("assemble", help="build the LLM-input sequence")
    p.add_argument("--bank", required=True)
    p.add_argument("--selection", required=True,
                   help="selection report written by `select`; its pooled "
                        "tokens are read from <selection>.pooled.rwfs")
    p.add_argument("--config", help="the config.txt beside --bank with other "
                   "dfs.* or mode.z_repr values; default: that file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="print accounting for an output dir")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("check", help="run a self-verification suite")
    p.add_argument("--suite",
                   choices=("grads", "oracle", "linearity", "erf32"),
                   required=True)

    return parser


def _cmd_synth(args) -> int:
    stream = synth_stream(args.seed, args.frames, args.tokens_per_frame,
                          args.dim)
    save_stream(stream, args.out)
    print(f"wrote {args.out}: T={stream.T} P={stream.P} d={stream.d}")
    return 0


def _cmd_process(args) -> int:
    config = RunConfig() if args.config is None else load_config(args.config)
    result = run_pipeline(config, args.stream, _read_instruction(args),
                          args.out_dir, select_strategy=args.select,
                          breakpoint_frame=args.breakpoint)
    result.buffer.close()
    print(result.report.render_text(), end="")
    print(f"artifacts in {result.out_dir}")
    return 0


def _load_run(bank_path, config_path=None, manifest_path=None):
    """The config Stage 2 runs with, the bank at `bank_path` and, given
    `manifest_path`, the spill beside it, which the caller closes (else
    None). The config is `config_path`, or else the `config.txt` that
    `process` wrote beside the bank, which is read either way. Before any
    selection work, in this order:
    - the bank's d and W must be the config's model.d and memory.n_write
      (exit 3);
    - a given config may differ from `config.txt` only in Stage-2 keys, so
      it cannot contradict the bank, the spill or the model whose tau
      `assemble` draws (exit 3);
    - the spill's manifest must be the one `process` writes, and the spill
      must hold as many frames as the bank, each the bank's d wide
      (exit 2)."""
    run_path = os.path.join(os.path.dirname(bank_path), "config.txt")
    config = load_config(config_path or run_path)
    bank = load_bank(bank_path)
    config.require("d", bank.d, "memory bank dim")
    config.require("n_write", bank.W, "memory bank W")
    if config_path is not None:
        check_stage2_override(load_config(run_path), config)
    if manifest_path is None:
        return config, bank, None
    buffer = DiskFeatureBuffer(
        os.path.join(os.path.dirname(manifest_path), "buffer.bin"),
        manifest_path)
    if (len(buffer), buffer.d) != (len(bank), bank.d):
        buffer.close()
        raise MalformedArtifactError(
            f"buffer of {len(buffer)} frames of dim {buffer.d} does not fit "
            f"the memory bank's {len(bank)} frames of dim {bank.d}")
    return config, bank, buffer


def _cmd_select(args) -> int:
    config, bank, buffer = _load_run(args.bank, args.config,
                                     args.buffer_manifest)
    with buffer:
        p = min(config.pool_tokens, buffer.P)
        if args.strategy == "uniform":
            selection = uniform_select(bank, buffer, config.Kc, p)
        else:
            instruction = encode_instruction(_read_instruction(args),
                                             config.d)
            selection = dfs_select(bank, buffer, instruction, config.L,
                                   config.knn_k, config.Kc, p,
                                   z_repr=config.z_repr)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_selection_report(selection))
    save_stream(FrameTokenStream(selection.pooled), args.out + ".pooled.rwfs")
    print(f"selected centers: {' '.join(str(c) for c in selection.centers)}")
    return 0


def _read_selection(path, bank):
    """The centers of the selection report at `path` and their pooled
    tokens, once they are distinct bank frames, each pooled at bank.d."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            centers = parse_selection_centers(fh.read())
    except ValueError as exc:
        raise MalformedArtifactError(f"selection report: {exc}") from exc
    pooled = load_stream(path + ".pooled.rwfs")
    with pooled.frames as tokens:
        n, frames = len(centers), {c for c in centers if 0 <= c < len(bank)}
        if (len(frames), pooled.T, pooled.d) != (n, n, bank.d):
            raise MalformedArtifactError(
                f"selected frames {centers} with {pooled.T} pooled frames of "
                f"dim {pooled.d} do not fit the memory bank")
        return centers, tokens.block(0, n)


def _cmd_assemble(args) -> int:
    config, bank, _ = _load_run(args.bank, args.config)
    centers, pooled = _read_selection(args.selection, bank)
    # assemble reads only the centers and their pooled tokens
    selection = SelectionResult(centers=centers, pooled=pooled,
                                diagnostics=None, candidates=None)
    params = init_model_params(config)
    sequence = assemble(bank, selection, params.tau)
    save_llm_input(sequence, args.out)
    print(f"wrote {args.out}: rows={sequence.total_rows} "
          f"(memory={sequence.memory_rows}, selected={sequence.selected_rows})")
    return 0


def _cmd_report(args) -> int:
    config, bank, buffer = _load_run(
        os.path.join(args.out_dir, "memory.rwmb"),
        manifest_path=os.path.join(args.out_dir, "buffer.manifest"))
    with buffer:
        report = accounting_report(bank, buffer, config)
    print(report.render_text(), end="")
    return 0


def _cmd_check(args) -> int:
    ok, lines = self_check(args.suite)
    for line in lines:
        print(line)
    return 0 if ok else 1


_COMMANDS = {
    "synth": _cmd_synth,
    "process": _cmd_process,
    "select": _cmd_select,
    "assemble": _cmd_assemble,
    "report": _cmd_report,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    """Run one command and return its exit code: argparse's 2 for a usage
    error and 0 for `--help`, which argparse raises as SystemExit and
    `main` returns, so an in-process caller gets a code for every outcome.
    The parser is built once per process (`build_parser`), so a process
    that calls `main` for every query does not rebuild it each time."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
