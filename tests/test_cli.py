import struct

import numpy as np
import pytest

from streammem.assembly import load_llm_input
from streammem.cli import main
from streammem.stream import load_stream


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
        entry = struct.calcsize("<II") + 2 * 8 * 4
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

    def test_numeric_error_is_4(self, tmp_path, config_path):
        bad = tmp_path / "nan.rwfs"
        payload = np.full(4 * 8, np.nan, dtype="<f4").tobytes()
        bad.write_bytes(struct.pack("<4sIIII", b"RWFS", 1, 1, 4, 8) + payload)
        assert main(["process", "--stream", str(bad), "--instruction", "x",
                     "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 4

    def test_missing_file_is_1(self, tmp_path, config_path):
        assert main(["process", "--stream", str(tmp_path / "nope.rwfs"),
                     "--instruction", "x", "--config", config_path,
                     "--out-dir", str(tmp_path / "o")]) == 1


@pytest.fixture
def processed(tmp_path, config_path, stream_path):
    out_dir = tmp_path / "run"
    assert main(["process", "--stream", stream_path, "--instruction", "x",
                 "--config", config_path, "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestMalformedArtifactExitCodes:
    """Malformed artifacts exit 2 with an error line, never a traceback."""

    def _select(self, out_dir, config_path):
        return main(["select", "--bank", str(out_dir / "memory.rwmb"),
                     "--buffer-manifest", str(out_dir / "buffer.manifest"),
                     "--instruction", "x", "--config", config_path,
                     "--out", str(out_dir / "sel.txt")])

    @pytest.mark.parametrize("frame", [0, 1])
    def test_bank_frame_order_is_2(self, processed, config_path, capsys,
                                   frame):
        # entry 1 gets frame 0 (duplicate) or keeps 1 while entry 2 gets 1
        path = processed / "memory.rwmb"
        raw = bytearray(path.read_bytes())
        entry = 8 + 2 * 8 * 4
        slot = 20 + (1 if frame == 0 else 2) * entry
        raw[slot:slot + 4] = frame.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        assert self._select(processed, config_path) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", '{"version": 1}'])
    def test_malformed_manifest_is_2(self, processed, config_path, capsys,
                                     text):
        (processed / "buffer.manifest").write_text(text)
        assert self._select(processed, config_path) == 2
        assert main(["report", "--out-dir", str(processed)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_selected_frame_missing_from_manifest_is_2(self, processed,
                                                       config_path, capsys):
        (processed / "buffer.manifest").write_text('{"frames": [[0, 0]]}')
        assert self._select(processed, config_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_manifest_offset_past_end_is_2(self, processed, capsys):
        (processed / "buffer.manifest").write_text(
            '{"frames": [[0, 1000000]]}')
        assert main(["report", "--out-dir", str(processed)]) == 2
        assert "error:" in capsys.readouterr().err


def test_check_linearity_suite(capsys):
    assert main(["check", "--suite", "linearity"]) == 0
    out = capsys.readouterr().out
    assert "linearity T=16" in out
    assert "FAIL" not in out
