import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streammem
from streammem import verify
from streammem.assembly import load_llm_input
from streammem.cli import build_parser, main
from streammem.dfs import parse_selection_centers
from streammem.memory import SPILL_MANIFEST, load_bank
from streammem.stream import load_stream

from oracles import bank_bytes_v1, spill_manifest_v2


CONFIG_TEXT = """\
model.d=8
model.heads=2
model.layers=2
memory.n_read=3
memory.n_write=2
stream.subclip_frames=4
dfs.L=8
dfs.knn_k=3
dfs.Kc=2
dfs.pool_tokens=2
seed=1
"""


def _manifest_v2(frames):
    """The version 2 manifest of a spill of 4 x 8 float32 frames, as
    `stream_path` holds."""
    return spill_manifest_v2(frames, 4 * 8 * 4)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture
def stream_path(tmp_path):
    path = tmp_path / "stream.rwfs"
    assert main(["synth", "--frames", "10", "--tokens-per-frame", "4",
                 "--dim", "8", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


class TestSynth:
    def test_writes_loadable_stream(self, stream_path):
        stream = load_stream(stream_path)
        assert (stream.T, stream.P, stream.d) == (10, 4, 8)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.rwfs", tmp_path / "b.rwfs"
        for out in (a, b):
            main(["synth", "--frames", "4", "--tokens-per-frame", "2",
                  "--dim", "4", "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestProcessChain:
    def test_full_chain(self, tmp_path, config_path, stream_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["process", "--stream", stream_path,
                     "--instruction", "what happens at the end",
                     "--config", config_path, "--out-dir", str(out_dir)]) == 0
        for name in ("config.txt", "params.rwpm", "memory.rwmb", "buffer.bin",
                     "buffer.manifest", "selection.txt",
                     "selection_pooled.rwfs", "llm_input.rwli",
                     "accounting.txt"):
            assert (out_dir / name).exists(), name
        printed = capsys.readouterr().out
        assert "memory_token_count=20" in printed
        assert "llm_input_length=25" in printed

        # re-run selection and assembly from the written artifacts; disk
        # holds float32, so values match the pipeline run to that precision
        from streammem.dfs import parse_selection_centers
        report = tmp_path / "sel.txt"
        assert main(["select", "--bank", str(out_dir / "memory.rwmb"),
                     "--buffer-manifest", str(out_dir / "buffer.manifest"),
                     "--instruction", "what happens at the end",
                     "--config", config_path, "--out", str(report)]) == 0
        assert parse_selection_centers(report.read_text()) == \
            parse_selection_centers((out_dir / "selection.txt").read_text())

        seq_path = tmp_path / "seq.rwli"
        assert main(["assemble", "--bank", str(out_dir / "memory.rwmb"),
                     "--selection", str(report), "--config", config_path,
                     "--out", str(seq_path)]) == 0
        seq = load_llm_input(seq_path)
        pipe_seq = load_llm_input(out_dir / "llm_input.rwli")
        assert seq.total_rows == 2 * 10 + 1 + 2 * 2
        assert pipe_seq.total_rows == seq.total_rows
        assert np.allclose(seq.rows(), pipe_seq.rows(), atol=1e-6)

        assert main(["report", "--out-dir", str(out_dir)]) == 0
        assert "llm_input_length=25" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["dfs", "uniform"])
    def test_disk_select_reproduces_pooled_bytes(self, tmp_path, strategy):
        """`select` and `assemble` from the artifacts reproduce the pooled
        tokens and the LLM input of `process` byte for byte. P=32 pooled
        to 5 groups averages 6 or 7 rows per group, so buffered frames
        read back at any precision other than the stream's would change
        these bytes."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT.replace("dfs.pool_tokens=2",
                                           "dfs.pool_tokens=5"))
        stream = tmp_path / "s.rwfs"
        assert main(["synth", "--frames", "12", "--tokens-per-frame", "32",
                     "--dim", "8", "--seed", "5", "--out", str(stream)]) == 0
        out_dir = tmp_path / "run"
        assert main(["process", "--stream", str(stream), "--instruction",
                     "who opens the door", "--config", str(cfg),
                     "--out-dir", str(out_dir), "--select", strategy]) == 0
        report = tmp_path / "sel.txt"
        assert main(["select", "--bank", str(out_dir / "memory.rwmb"),
                     "--buffer-manifest", str(out_dir / "buffer.manifest"),
                     "--instruction", "who opens the door",
                     "--config", str(cfg), "--strategy", strategy,
                     "--out", str(report)]) == 0
        pooled = (out_dir / "selection_pooled.rwfs").read_bytes()
        assert load_stream(out_dir / "selection_pooled.rwfs").P == 5
        assert (tmp_path / "sel.txt.pooled.rwfs").read_bytes() == pooled
        seq = tmp_path / "seq.rwli"
        assert main(["assemble", "--bank", str(out_dir / "memory.rwmb"),
                     "--selection", str(report), "--config", str(cfg),
                     "--out", str(seq)]) == 0
        assert seq.read_bytes() == (out_dir / "llm_input.rwli").read_bytes()

    def test_uniform_strategy(self, tmp_path, config_path, stream_path):
        out_dir = tmp_path / "run"
        assert main(["process", "--stream", stream_path,
                     "--instruction", "x", "--config", config_path,
                     "--out-dir", str(out_dir), "--select", "uniform"]) == 0
        text = (out_dir / "selection.txt").read_text()
        assert text.splitlines()[0] == "# selection strategy=uniform"
        assert "# centers: 0 5" in text

    def test_breakpoint_prefix(self, tmp_path, config_path, stream_path):
        full = tmp_path / "full"
        part = tmp_path / "part"
        main(["process", "--stream", stream_path, "--instruction", "x",
              "--config", config_path, "--out-dir", str(full)])
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", config_path, "--out-dir", str(part),
                     "--breakpoint", "8"]) == 0
        full_bank = (full / "memory.rwmb").read_bytes()
        part_bank = (part / "memory.rwmb").read_bytes()
        # sub-clip-aligned prefix: shared frames have identical bytes
        header = struct.calcsize("<4sIIII")
        entry = 2 * 8 * 4  # W x d float32 tokens
        assert part_bank[header:] == full_bank[header:header + 8 * entry]

    def test_instruction_file(self, tmp_path, config_path, stream_path):
        instr = tmp_path / "instr.txt"
        instr.write_text("describe the scene")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["process", "--stream", stream_path, "--instruction",
              "describe the scene", "--config", config_path,
              "--out-dir", str(out_a)])
        assert main(["process", "--stream", stream_path,
                     "--instruction-file", str(instr), "--config", config_path,
                     "--out-dir", str(out_b)]) == 0
        assert (out_a / "llm_input.rwli").read_bytes() == \
            (out_b / "llm_input.rwli").read_bytes()


class TestArtifactsReproduceProcess:
    """`assemble` on the selection that `process` wrote, and `select` with
    either strategy on its bank and spill, reproduce its bytes over random
    stream, sub-clip and selection sizes. `select --strategy dfs` scores
    the float32 bank on disk, which is the bank `process` scored."""

    @given(T=st.integers(1, 40), P=st.integers(1, 8), F=st.integers(1, 8),
           Kc=st.integers(1, 6), pool=st.integers(1, 10),
           seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_assemble_and_select(self, T, P, F, Kc, pool, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "run.cfg"
            cfg.write_text(
                "model.d=8\nmodel.heads=2\nmodel.layers=1\n"
                f"memory.n_read=4\nstream.subclip_frames={F}\ndfs.L=8\n"
                f"dfs.Kc={Kc}\ndfs.pool_tokens={pool}\nseed={seed}\n")
            stream = tmp / "s.rwfs"
            assert main(["synth", "--frames", str(T), "--tokens-per-frame",
                         str(P), "--dim", "8", "--seed", str(seed),
                         "--out", str(stream)]) == 0
            for strategy in ("dfs", "uniform"):
                out = tmp / strategy
                assert main(["process", "--stream", str(stream),
                             "--instruction", "who opens the door",
                             "--config", str(cfg), "--out-dir", str(out),
                             "--select", strategy]) == 0
                (out / "selection.txt.pooled.rwfs").write_bytes(
                    (out / "selection_pooled.rwfs").read_bytes())
                seq = tmp / f"{strategy}.rwli"
                assert main(["assemble", "--bank", str(out / "memory.rwmb"),
                             "--selection", str(out / "selection.txt"),
                             "--config", str(cfg), "--out", str(seq)]) == 0
                assert seq.read_bytes() == \
                    (out / "llm_input.rwli").read_bytes()
                report = tmp / f"{strategy}.txt"
                assert main(["select", "--bank", str(out / "memory.rwmb"),
                             "--buffer-manifest",
                             str(out / "buffer.manifest"),
                             "--instruction", "who opens the door",
                             "--config", str(cfg), "--strategy", strategy,
                             "--out", str(report)]) == 0
                assert report.read_bytes() == \
                    (out / "selection.txt").read_bytes()
                assert (tmp / f"{strategy}.txt.pooled.rwfs").read_bytes() \
                    == (out / "selection_pooled.rwfs").read_bytes()


class TestExitCodes:
    def test_format_error_is_2(self, tmp_path, config_path, capsys):
        bad = tmp_path / "bad.rwfs"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        code = main(["process", "--stream", str(bad), "--instruction", "x",
                     "--config", config_path, "--out-dir",
                     str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_is_3(self, tmp_path, stream_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.width=3\n")
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 3

    def test_dim_mismatch_is_3(self, tmp_path, stream_path):
        cfg = tmp_path / "d16.cfg"
        cfg.write_text("model.d=16\n")
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command",
                             ["dfs", "uniform", "assemble", "report"])
    def test_bank_dim_mismatch_is_3(self, tmp_path, processed, command,
                                    capsys):
        bank = str(processed / "memory.rwmb")
        wide = tmp_path / "d16.cfg"
        wide.write_text(CONFIG_TEXT.replace("model.d=8", "model.d=16"))
        if command == "report":
            config = processed / "config.txt"
            text = config.read_text()
            assert "model.d=8\n" in text
            config.write_text(text.replace("model.d=8\n", "model.d=16\n"))
            args = ["report", "--out-dir", str(processed)]
        elif command == "assemble":
            args = ["assemble", "--bank", bank,
                    "--selection", str(processed / "selection.txt"),
                    "--config", str(wide), "--out", str(tmp_path / "s.rwli")]
        else:
            args = ["select", "--bank", bank, "--buffer-manifest",
                    str(processed / "buffer.manifest"), "--instruction", "x",
                    "--config", str(wide), "--strategy", command,
                    "--out", str(tmp_path / "sel.txt")]
        capsys.readouterr()
        assert main(args) == 3
        assert "memory bank dim 8 does not match model.d 16" in \
            capsys.readouterr().err

    def test_negative_seed_is_3(self, tmp_path, stream_path):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed=1", "seed=-1"))
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 3

    def test_L_below_Kc_is_3(self, tmp_path, stream_path):
        cfg = tmp_path / "few.cfg"
        cfg.write_text(CONFIG_TEXT.replace("dfs.L=8", "dfs.L=1"))
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 3

    def test_numeric_error_is_4(self, tmp_path, config_path):
        bad = tmp_path / "nan.rwfs"
        payload = np.full(4 * 8, np.nan, dtype="<f4").tobytes()
        bad.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 1, 4, 8) + payload)
        assert main(["process", "--stream", str(bad), "--instruction", "x",
                     "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 4

    def test_stream_without_tokens_is_2(self, tmp_path, config_path, capsys):
        # T=20 frames of P=0 tokens: rejected on load, before Stage 1
        bad = tmp_path / "empty.rwfs"
        bad.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 20, 0, 8))
        assert main(["process", "--stream", str(bad), "--instruction", "x",
                     "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "no tokens" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stream_of_zero_dim_tokens_is_2(self, tmp_path, config_path,
                                            capsys):
        # T=4 frames of P=3 tokens with d=0: rejected on load, not as a
        # model.d mismatch (3)
        bad = tmp_path / "flat.rwfs"
        bad.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 4, 3, 0))
        assert main(["process", "--stream", str(bad), "--instruction", "x",
                     "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "no dimensions" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pooled_without_tokens_is_2(self, processed, config_path, capsys):
        centers = parse_selection_centers(
            (processed / "selection.txt").read_text())
        assert len(centers) == 2
        (processed / "selection.txt.pooled.rwfs").write_bytes(
            struct.pack("<4sIIII", b"RWFS", 1, len(centers), 0, 8))
        out = processed / "seq.rwli"
        assert main(["assemble", "--bank", str(processed / "memory.rwmb"),
                     "--selection", str(processed / "selection.txt"),
                     "--config", config_path, "--out", str(out)]) == 2
        assert "no tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_1(self, tmp_path, config_path):
        assert main(["process", "--stream", str(tmp_path / "nope.rwfs"),
                     "--instruction", "x", "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 1


class TestCachedParser:
    """`main` reuses one parser per process; a run of different commands
    through it gives what a fresh parser per call gives."""

    def _calls(self, processed, config_path, tmp_path):
        bank = str(processed / "memory.rwmb")
        instr = tmp_path / "instr.txt"
        instr.write_text("who closes the window", encoding="utf-8")
        select = ["select", "--bank", bank, "--buffer-manifest",
                  str(processed / "buffer.manifest"), "--config", config_path]
        out = str(tmp_path / "sel.txt")
        return [
            select + ["--instruction", "x", "--strategy", "uniform",
                      "--out", out],
            select + ["--instruction-file", str(instr), "--strategy", "dfs",
                      "--out", out],
            select + ["--instruction", "x", "--instruction-file",
                      str(instr), "--out", out],  # usage error
            select + ["--instruction", "what happens at the end",
                      "--out", out],  # default strategy
            ["assemble", "--bank", bank, "--selection", out,
             "--config", config_path],  # usage error: no --out
            ["assemble", "--bank", bank, "--selection", out,
             "--config", config_path, "--out", str(tmp_path / "seq.rwli")],
            ["report", "--out-dir", str(processed)],
        ]

    def _run(self, calls, tmp_path, capsys, fresh):
        build_parser.cache_clear()
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            files = {p.name: p.read_bytes()
                     for p in sorted(tmp_path.glob("se*"))}
            results.append((code, printed.out, printed.err, files))
        return results

    def test_same_as_a_fresh_parser_per_call(self, processed, config_path,
                                             tmp_path, capsys):
        calls = self._calls(processed, config_path, tmp_path)
        fresh = self._run(calls, tmp_path, capsys, fresh=True)
        for path in tmp_path.glob("se*"):
            path.unlink()
        cached = self._run(calls, tmp_path, capsys, fresh=False)
        assert build_parser.cache_info().misses == 1
        assert cached == fresh
        assert [code for code, *_ in cached] == [0, 0, 2, 0, 2, 0, 0]
        # each select reports its own strategy and instruction
        reports = [files["sel.txt"] for _, _, _, files in cached]
        assert reports[0].startswith(b"# selection strategy=uniform\n")
        assert reports[1].startswith(b"# selection strategy=dfs\n")
        assert reports[3].startswith(b"# selection strategy=dfs\n")
        assert reports[1] != reports[3]
        assert "not allowed with argument" in cached[2][2]


class TestUsageExitCodes:
    """`main` returns argparse's codes instead of raising SystemExit: 2 for
    a usage error and 0 for --help; the module's process exits with them."""

    def test_usage_error_returns_2(self, capsys):
        assert main(["select"]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("usage: streammem select")
        assert "the following arguments are required" in printed.err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: streammem")

    def test_module_exits_2_on_usage_error(self):
        src = str(Path(streammem.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "streammem.cli",
                                 "select"], env=env, capture_output=True,
                                text=True)
        assert result.returncode == 2
        assert result.stderr.startswith("usage: streammem select")


@pytest.fixture
def processed(tmp_path, config_path, stream_path):
    out_dir = tmp_path / "run"
    assert main(["process", "--stream", stream_path, "--instruction", "x",
                 "--config", config_path, "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestArtifactSet:
    """`process` writes its nine artifacts as a set: a run that fails
    while writing them leaves none of them, and every other file in the
    output directory as it was."""

    def _before(self, out_dir):
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept")
        (out_dir / "config.txt").write_text("an earlier run's")
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def _process(self, stream, config_path, out_dir):
        return main(["process", "--stream", str(stream), "--instruction",
                     "x", "--config", config_path, "--out-dir", str(out_dir)])

    def test_failed_write_leaves_no_artifact(self, tmp_path, config_path,
                                             stream_path, monkeypatch):
        import streammem.pipeline as pipeline

        def fail(*args):
            raise streammem.NonFiniteDataError("refused")

        monkeypatch.setattr(pipeline, "save_llm_input", fail)
        out_dir = tmp_path / "run"
        before = self._before(out_dir)
        assert self._process(stream_path, config_path, out_dir) == 4
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_overflowing_pooled_tokens_leave_no_artifact(self, tmp_path,
                                                         config_path):
        """±3e38 frames pool to infinities, which `save_stream` refuses
        after six artifacts are written."""
        signs = np.random.default_rng(0).random((10, 4, 8)) < 0.5
        stream = tmp_path / "big.rwfs"
        streammem.save_stream(streammem.FrameTokenStream(
            np.where(signs, -3e38, 3e38).astype(np.float32)), stream)
        out_dir = tmp_path / "run"
        before = self._before(out_dir)
        with np.errstate(over="ignore", invalid="ignore"):
            assert self._process(stream, config_path, out_dir) == 4
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


class TestAccountingMatchesArtifacts:
    @pytest.mark.parametrize("pool_tokens", [2, 4, 64])  # P is 4
    def test_llm_input_length_is_the_written_row_count(
            self, tmp_path, stream_path, pool_tokens, capsys):
        """accounting.txt, `streammem report` and the RWLI file agree on the
        LLM-input length, also where dfs.pool_tokens exceeds P and pooling
        clamps it to P."""
        cfg = tmp_path / "pool.cfg"
        cfg.write_text(CONFIG_TEXT.replace(
            "dfs.pool_tokens=2", f"dfs.pool_tokens={pool_tokens}"))
        out_dir = tmp_path / "run"
        assert main(["process", "--stream", stream_path, "--instruction", "x",
                     "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        rows = load_llm_input(str(out_dir / "llm_input.rwli")).total_rows
        assert rows == 2 * 10 + 1 + min(pool_tokens, 4) * 2
        written = (out_dir / "accounting.txt").read_text()
        assert f"llm_input_length={rows}\n" in written
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out == written


class TestMalformedArtifactExitCodes:
    """Malformed artifacts exit 2 with an error line, never a traceback."""

    def _select(self, out_dir, config_path):
        return main(["select", "--bank", str(out_dir / "memory.rwmb"),
                     "--buffer-manifest", str(out_dir / "buffer.manifest"),
                     "--instruction", "x", "--config", config_path,
                     "--out", str(out_dir / "sel.txt")])

    @pytest.mark.parametrize("change", ["v1", "truncated", "oversized",
                                        "empty"])
    def test_bank_file_is_2(self, processed, config_path, capsys, change):
        """A bank in version 1 of the format (a frame and a sub-clip index
        before each entry's tokens), cut short, one byte long, or of no
        entries exits 2 from every command that loads it."""
        path = processed / "memory.rwmb"
        raw = path.read_bytes()
        path.write_bytes({
            "v1": bank_bytes_v1(load_bank(path), F=4),
            "truncated": raw[:-3],
            "oversized": raw + b"\0",
            "empty": struct.pack("<4sIIII", b"RWMB", 2, 0, 2, 8),
        }[change])
        self._loaders_exit_2(processed, config_path, capsys)

    @pytest.mark.parametrize("frames", [
        pytest.param({1: 0}, id="0"),  # entry 1 gets frame 0: a duplicate
        pytest.param({2: 1}, id="1"),  # entry 2 gets frame 1: a duplicate
        pytest.param({t: t + 1 for t in range(2, 10)}, id="gap"),  # 0 1 3..
        pytest.param({t: t + 1 for t in range(10)}, id="start_at_1")])
    def test_bank_frame_order_is_2(self, processed, config_path, capsys,
                                   frames):
        """A version 1 bank whose frames are not its positions 0..T-1
        exits 2 from every command that loads the bank."""
        path = processed / "memory.rwmb"
        raw = bytearray(bank_bytes_v1(load_bank(path), F=4))
        entry = 8 + 2 * 8 * 4
        for i, frame in frames.items():
            raw[20 + i * entry:24 + i * entry] = frame.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        self._loaders_exit_2(processed, config_path, capsys)

    def _loaders_exit_2(self, processed, config_path, capsys):
        """`select`, `assemble` and `report` each exit 2 on the bank."""
        assert self._select(processed, config_path) == 2
        assert main(["assemble", "--bank", str(processed / "memory.rwmb"),
                     "--selection", str(processed / "selection.txt"),
                     "--config", config_path,
                     "--out", str(processed / "x.rwli")]) == 2
        assert main(["report", "--out-dir", str(processed)]) == 2
        assert capsys.readouterr().err.count("error:") == 3

    def test_empty_bank_is_2(self, processed):
        (processed / "memory.rwmb").write_bytes(
            struct.pack("<4sIIII", b"RWMB", 2, 0, 2, 8))
        assert main(["report", "--out-dir", str(processed)]) == 2

    @pytest.mark.parametrize("text", [
        "{not json", '{"version": 1}', '{"frames": [[0, 0]]}',
        pytest.param("", id="empty"),
        pytest.param(_manifest_v2(range(10)), id="v2"),
        pytest.param(_manifest_v2([1, 0, *range(2, 10)]), id="reordered"),
        pytest.param(_manifest_v2(range(9)), id="other_T"),
        pytest.param(SPILL_MANIFEST.decode().replace(",", ", "),
                     id="added_space"),
        pytest.param(SPILL_MANIFEST.decode() + " ", id="trailing_byte")])
    def test_malformed_manifest_is_2(self, processed, config_path, capsys,
                                     text):
        """Any manifest but the line `process` writes for every spill,
        including the version 2 offset list earlier versions wrote for
        this one."""
        assert (processed / "buffer.manifest").read_bytes() == SPILL_MANIFEST
        (processed / "buffer.manifest").write_text(text)
        assert self._select(processed, config_path) == 2
        assert main(["report", "--out-dir", str(processed)]) == 2
        assert capsys.readouterr().err.count("error:") == 2

    @pytest.mark.parametrize("change", ["short_spill", "long_spill"])
    def test_manifest_frames_differ_from_bank_is_2(self, processed,
                                                    config_path, capsys,
                                                    monkeypatch, change):
        """A whole spill of fewer or more frames than the bank, with its own
        manifest, exits 2 before Stage 2 runs."""
        import streammem.cli as cli

        def stage2(*args, **kwargs):
            raise AssertionError("Stage 2 ran on a mismatched spill")

        monkeypatch.setattr(cli, "dfs_select", stage2)
        monkeypatch.setattr(cli, "accounting_report", stage2)
        frames = load_stream(processed / "buffer.bin").frames
        frames = frames[:9] if change == "short_spill" \
            else np.concatenate([frames, frames[:1]])
        streammem.save_stream(streammem.FrameTokenStream(frames),
                              processed / "buffer.bin")
        assert self._select(processed, config_path) == 2
        assert not (processed / "sel.txt").exists()
        assert main(["report", "--out-dir", str(processed)]) == 2
        assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("command", ["select", "assemble", "report"])
def test_non_finite_bank_is_4(processed, config_path, capsys, command):
    """A NaN token in memory.rwmb fails the codec's finiteness check:
    exit 4 for every command that loads the bank, with no output."""
    path = processed / "memory.rwmb"
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    bank = str(path)
    out = processed / "again.out"
    argv = {
        "select": ["select", "--bank", bank, "--buffer-manifest",
                   str(processed / "buffer.manifest"), "--instruction", "x",
                   "--config", config_path, "--out", str(out)],
        "assemble": ["assemble", "--bank", bank, "--selection",
                     str(processed / "selection.txt"), "--config",
                     config_path, "--out", str(out)],
        "report": ["report", "--out-dir", str(processed)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 4
    printed = capsys.readouterr()
    assert "not finite" in printed.err and printed.out == ""
    assert not out.exists()


SPILL_HEADER = streammem.stream.RWFS.header_size
SPILL_FRAME = 4 * 8 * 4  # bytes of one 4 x 8 float32 frame of `processed`


def _select_and_report(processed, config_path):
    """The exit codes of `select` and `report` on the artifacts."""
    select = main(["select", "--bank", str(processed / "memory.rwmb"),
                   "--buffer-manifest", str(processed / "buffer.manifest"),
                   "--instruction", "x", "--config", config_path,
                   "--out", str(processed / "sel.txt")])
    return select, main(["report", "--out-dir", str(processed)])


class TestSpillGuards:
    """A spill header or manifest offset that no spill could hold exits 2
    before any frame is read."""

    @pytest.mark.parametrize("field,value", [("T", 2**30), ("P", 2**31),
                                             ("d", 2**31), ("T", 2)])
    def test_record_header_is_2(self, processed, config_path, capsys, field,
                                value):
        # the one header: T, P and d are the u32s at bytes 8, 12 and 16
        path = processed / "buffer.bin"
        raw = bytearray(path.read_bytes())
        pos = {"T": 8, "P": 12, "d": 16}[field]
        raw[pos:pos + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert _select_and_report(processed, config_path) == (2, 2)
        assert capsys.readouterr().err.count("error:") == 2

    @pytest.mark.parametrize("offset", ["1e30", "Infinity", str(2**63 - 1),
                                        str(10**40), "inside", "past_end",
                                        "at_end", "in_header"])
    def test_manifest_offset_is_2(self, processed, config_path, capsys,
                                  offset):
        size = (processed / "buffer.bin").stat().st_size
        offset = {"inside": str(size - SPILL_FRAME + 4),  # 4 bytes into one
                  "past_end": str(size + 1), "at_end": str(size),
                  "in_header": str(SPILL_HEADER - 4)}.get(offset, offset)
        entries = [f"[{i}, {SPILL_HEADER + i * SPILL_FRAME}]"
                   for i in range(1, 10)]
        (processed / "buffer.manifest").write_text(
            '{"frames": [[0, %s], %s]}' % (offset, ", ".join(entries)))
        assert _select_and_report(processed, config_path) == (2, 2)
        assert capsys.readouterr().err.count("error:") == 2

    def test_record_dim_unlike_the_bank_is_2(self, processed, config_path):
        # 10 x 4 x 8 -> 10 x 8 x 4: same bytes, wrong d for the bank
        path = processed / "buffer.bin"
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<II", 8, 4)
        path.write_bytes(bytes(raw))
        assert _select_and_report(processed, config_path) == (2, 2)


class TestSpillFrames:
    """`buffer.bin` is the stream's RWFS bytes, and a command decodes only
    the frames it reads from it."""

    def test_spill_is_the_stream(self, tmp_path, config_path, stream_path):
        for breakpoint in (None, 7):
            out = tmp_path / f"run{breakpoint}"
            argv = ["process", "--stream", stream_path, "--instruction",
                    "x", "--config", config_path, "--out-dir", str(out)]
            if breakpoint is not None:
                argv += ["--breakpoint", str(breakpoint)]
                expected = tmp_path / "prefix.rwfs"
                streammem.save_stream(
                    load_stream(stream_path).prefix(breakpoint), expected)
            else:
                expected = Path(stream_path)
            assert main(argv) == 0
            assert (out / "buffer.bin").read_bytes() == \
                expected.read_bytes()

    def test_select_on_breakpoint_spill_matches_process(
            self, tmp_path, config_path, stream_path):
        """`select` on the spill of a `--breakpoint 7` run, the first 7
        frames' byte range under a fresh header, reproduces the selection
        and pooled bytes that `process` wrote."""
        out = tmp_path / "run"
        assert main(["process", "--stream", stream_path, "--instruction",
                     "find the door", "--config", config_path,
                     "--out-dir", str(out), "--breakpoint", "7"]) == 0
        sel = tmp_path / "sel.txt"
        assert main(["select", "--bank", str(out / "memory.rwmb"),
                     "--buffer-manifest", str(out / "buffer.manifest"),
                     "--instruction", "find the door",
                     "--config", config_path, "--out", str(sel)]) == 0
        assert sel.read_text() == (out / "selection.txt").read_text()
        assert (tmp_path / "sel.txt.pooled.rwfs").read_bytes() == \
            (out / "selection_pooled.rwfs").read_bytes()

    def test_non_finite_last_subclip_is_4(self, tmp_path, config_path,
                                          stream_path, capsys, monkeypatch):
        """A NaN in frame 9, in the last of the sub-clips [0, 4), [4, 8)
        and [8, 10), fails the check of the whole stream when it is
        opened: exit 4 before any Stage-1 work, with no artifact and no
        output directory."""
        import streammem.pipeline as pipeline

        def stage1(*args, **kwargs):
            raise AssertionError("Stage 1 ran on a non-finite stream")

        monkeypatch.setattr(pipeline, "process_stream", stage1)
        path = Path(stream_path)
        raw = bytearray(path.read_bytes())
        at = SPILL_HEADER + 9 * SPILL_FRAME + 4
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        out = tmp_path / "o"
        assert main(["process", "--stream", stream_path, "--instruction",
                     "x", "--config", config_path, "--out-dir", str(out)]) == 4
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def _poison(self, processed, frame):
        at = SPILL_HEADER + frame * SPILL_FRAME + 4
        path = processed / "buffer.bin"
        raw = bytearray(path.read_bytes())
        raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))

    def test_non_finite_selected_frame_is_4(self, processed, config_path,
                                            capsys):
        centers = parse_selection_centers(
            (processed / "selection.txt").read_text())
        self._poison(processed, centers[-1])
        assert _select_and_report(processed, config_path) == (4, 0)
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_unread_frame_is_0(self, processed, config_path):
        """A frame no command reads is never decoded, so its NaN goes
        unseen: opening the spill does not decode all of it."""
        centers = parse_selection_centers(
            (processed / "selection.txt").read_text())
        unread = min(set(range(10)) - set(centers))
        self._poison(processed, unread)
        assert _select_and_report(processed, config_path) == (0, 0)
        assert parse_selection_centers(
            (processed / "sel.txt").read_text()) == centers


class TestAssembleInputs:
    """`assemble` exits 2 on a selection report or pooled file that does
    not fit the memory bank."""

    def _assemble(self, processed, config_path):
        selection = processed / "selection.txt"
        (processed / "selection.txt.pooled.rwfs").write_bytes(
            (processed / "selection_pooled.rwfs").read_bytes())
        return main(["assemble", "--bank", str(processed / "memory.rwmb"),
                     "--selection", str(selection), "--config", config_path,
                     "--out", str(processed / "seq.rwli")])

    def _edit_centers(self, processed, edit):
        path = processed / "selection.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = edit(lines[1])
        path.write_text("".join(lines))

    def test_unchanged_inputs_assemble(self, processed, config_path):
        assert self._assemble(processed, config_path) == 0
        assert (processed / "seq.rwli").read_bytes() == \
            (processed / "llm_input.rwli").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(": ", ": 1 "),  # one center too many
        lambda line: line.rsplit(" ", 1)[0] + "\n",  # one too few
        lambda line: line.replace(": ", ": 999 ").rsplit(" ", 1)[0] + "\n",
        lambda line: line.rsplit(" ", 1)[0] + " " + line.split()[2] + "\n",
        lambda line: line.replace(": ", ": x "),
        lambda line: line.replace(": ", ": 1.5 "),
        lambda line: "# no centers\n",
    ], ids=["extra", "missing", "not_in_bank", "repeated", "word", "float",
            "no_line"])
    def test_centers_is_2(self, processed, config_path, capsys, edit):
        self._edit_centers(processed, edit)
        assert self._assemble(processed, config_path) == 2
        assert "error:" in capsys.readouterr().err
        assert not (processed / "seq.rwli").exists()

    def test_selection_not_utf8_is_2(self, processed, config_path):
        path = processed / "selection.txt"
        path.write_bytes(b"\xff" + path.read_bytes())
        assert self._assemble(processed, config_path) == 2

    def test_pooled_dim_unlike_the_bank_is_2(self, processed, config_path):
        # 2 centers x 2 pooled rows x 8 -> 2 x 4 x 4: same bytes, d=4
        path = processed / "selection_pooled.rwfs"
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<II", 4, 4)
        path.write_bytes(bytes(raw))
        assert self._assemble(processed, config_path) == 2


class TestConfigArtifact:
    def test_config_not_utf8_is_3(self, processed, capsys):
        config = processed / "config.txt"
        config.write_bytes(config.read_bytes() + b"\xc1\n")
        codes = [main(["select", "--bank", str(processed / "memory.rwmb"),
                       "--buffer-manifest",
                       str(processed / "buffer.manifest"), "--instruction",
                       "x", "--config", str(config),
                       "--out", str(processed / "sel.txt")]),
                 main(["assemble", "--bank", str(processed / "memory.rwmb"),
                       "--selection", str(processed / "selection.txt"),
                       "--config", str(config),
                       "--out", str(processed / "seq.rwli")]),
                 main(["report", "--out-dir", str(processed)])]
        assert codes == [3, 3, 3]
        assert capsys.readouterr().err.count("not UTF-8") == 3


def test_check_linearity_suite(capsys):
    assert main(["check", "--suite", "linearity"]) == 0
    out = capsys.readouterr().out
    assert "linearity T=16" in out
    assert "FAIL" not in out


def test_check_erf32_suite(capsys, monkeypatch):
    # the whole scan takes seconds: the suite's report from the 4096
    # float32 below the cut through 1
    cut = int(np.float32(0.84375).view(np.int32))
    scan = verify.erf32_scan
    monkeypatch.setattr(verify, "erf32_scan", lambda: scan(cut - 4096))
    assert main(["check", "--suite", "erf32"]) == 0
    out = capsys.readouterr().out
    count = verify.ERF32_STOP - cut + 4096
    assert f"erf32 [0, 1]: {count} values, worst 1 ulp" in out
    assert out.rstrip().endswith("decreasing steps PASS")
