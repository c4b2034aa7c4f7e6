"""Byte mutations of every artifact of one small `process` run: each
public loader returns or raises an EngineError, and `select`, `assemble`
and `report` on the mutated set exit 0, 2, 3 or 4, never with a
traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streammem
from streammem.cli import main

CONFIG = ("model.d=16\nmodel.heads=2\nmodel.layers=1\nmemory.n_read=4\n"
          "stream.subclip_frames=8\ndfs.L=16\ndfs.knn_k=3\ndfs.Kc=3\n"
          "dfs.pool_tokens=4\nseed=1\n")
INSTRUCTION = "who picks up the red cup"
HEADER = 36  # bytes; the longest binary header, RWPM's


def _buffer(d):
    buffer = streammem.DiskFeatureBuffer(d / "buffer.bin",
                                         d / "buffer.manifest")
    return [buffer.get(t) for t in buffer.frame_indices()]


LOADERS = {
    "config.txt": lambda d: streammem.load_config(d / "config.txt"),
    "params.rwpm": lambda d: streammem.load_params(d / "params.rwpm"),
    "memory.rwmb": lambda d: streammem.load_bank(d / "memory.rwmb"),
    "buffer.bin": _buffer,
    "buffer.manifest": _buffer,
    "selection.txt": None,  # read only by `assemble`
    "selection.txt.pooled.rwfs": lambda d: streammem.load_stream(
        d / "selection.txt.pooled.rwfs"),
    "llm_input.rwli": lambda d: streammem.load_llm_input(d / "llm_input.rwli"),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The artifacts of `process` on a T=40, P=8, d=16 stream by name,
    with the pooled tokens under the name `assemble` reads them by."""
    root = tmp_path_factory.mktemp("mutation")
    (root / "run.cfg").write_text(CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--frames", "40", "--tokens-per-frame", "8",
                     "--dim", "16", "--seed", "2",
                     "--out", str(root / "s.rwfs")]) == 0
        assert main(["process", "--stream", str(root / "s.rwfs"),
                     "--instruction", INSTRUCTION,
                     "--config", str(root / "run.cfg"),
                     "--out-dir", str(root / "run")]) == 0
    files = {p.name: p.read_bytes() for p in (root / "run").iterdir()}
    files["selection.txt.pooled.rwfs"] = files.pop("selection_pooled.rwfs")
    del files["accounting.txt"]  # written, never read back
    assert set(files) == set(LOADERS)
    return files


def _mutate(data: bytes, kind, position, xor, extra) -> bytes:
    if kind == "truncate":
        return data[:position % len(data)]
    if kind == "append":
        return data + extra
    head = min(HEADER, len(data))
    if kind == "header" or len(data) == head:
        i = position % head
    else:
        i = head + position % (len(data) - head)
    return data[:i] + bytes([data[i] ^ xor]) + data[i + 1:]


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(LOADERS)),
       kind=st.sampled_from(("truncate", "header", "payload", "append")),
       position=st.integers(0, 2**32), xor=st.integers(1, 255),
       extra=st.binary(min_size=1, max_size=12))
def test_mutated_artifact_loads_or_exits_documented(artifacts, name, kind,
                                                    position, xor, extra):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other, data in artifacts.items():
            (d / other).write_bytes(data)
        (d / name).write_bytes(_mutate(artifacts[name], kind, position, xor,
                                       extra))
        try:
            if LOADERS[name] is not None:
                LOADERS[name](d)
        except streammem.EngineError:
            pass
        codes = [
            _run(["select", "--bank", str(d / "memory.rwmb"),
                  "--buffer-manifest", str(d / "buffer.manifest"),
                  "--instruction", INSTRUCTION,
                  "--config", str(d / "config.txt"),
                  "--out", str(d / "sel.txt")]),
            _run(["assemble", "--bank", str(d / "memory.rwmb"),
                  "--selection", str(d / "selection.txt"),
                  "--config", str(d / "config.txt"),
                  "--out", str(d / "seq.rwli")]),
            _run(["report", "--out-dir", str(d)]),
        ]
    assert set(codes) <= {0, 2, 3, 4}, codes
