"""Output checks. Each raises CheckFailed; a failed check counts the
operation it checks as failed."""

import contextlib
import hashlib
import io
import os

import numpy as np

import streammem
from streammem import cli

ARTIFACTS = ("config.txt", "params.rwpm", "memory.rwmb", "buffer.bin",
             "buffer.manifest", "selection.txt", "selection_pooled.rwfs",
             "llm_input.rwli", "accounting.txt")


class CheckFailed(Exception):
    pass


def require(condition, message) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def artifact_digest(out_dir) -> str:
    return digest([os.path.join(out_dir, name) for name in ARTIFACTS])


def artifact_bytes(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in ARTIFACTS)


def run_cli(argv):
    """streammem.cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_centers(centers, spec) -> None:
    require(len(centers) == spec.centers(),
            f"{len(centers)} centers, expected {spec.centers()}")
    require(centers == sorted(set(centers)), "centers not ascending")
    require(all(0 <= c < spec.T for c in centers), "center out of range")


def check_llm_input(sequence, spec) -> None:
    require(sequence.total_rows == spec.llm_rows(),
            f"llm input has {sequence.total_rows} rows, "
            f"expected {spec.llm_rows()}")


def check_process_outputs(out_dir, spec, config, result=None) -> None:
    """Every artifact of one `process` run loads back through its public
    loader and agrees with the stream shape and the configuration;
    `streammem report` reproduces the accounting text."""
    path = {name: os.path.join(out_dir, name) for name in ARTIFACTS}
    for name, p in path.items():
        require(os.path.isfile(p), f"missing artifact {name}")
    loaded = streammem.load_config(path["config.txt"])
    require(loaded == config, "config.txt differs from the run config")
    params = streammem.load_params(path["params.rwpm"])
    require(len(params.perceiver.layers) == config.layers,
            "params.rwpm layer count")
    bank = streammem.load_bank(path["memory.rwmb"])
    require(bank.frame_indices() == list(range(spec.T)),
            "memory.rwmb frame indices")
    buffer = streammem.DiskFeatureBuffer(path["buffer.bin"],
                                         path["buffer.manifest"])
    require(buffer.frame_indices() == list(range(spec.T)),
            "buffer.manifest frame indices")
    with open(path["selection.txt"], encoding="utf-8") as fh:
        centers = streammem.dfs.parse_selection_centers(fh.read())
    check_centers(centers, spec)
    for frame in (0, spec.T - 1, *centers):
        require(buffer.get(frame).shape == (spec.P, spec.d),
                f"buffer frame {frame} shape")
    pooled = streammem.load_stream(path["selection_pooled.rwfs"])
    require((pooled.T, pooled.P, pooled.d) == (len(centers), spec.p, spec.d),
            "selection_pooled.rwfs shape")
    check_llm_input(streammem.load_llm_input(path["llm_input.rwli"]), spec)
    with open(path["accounting.txt"], encoding="utf-8") as fh:
        accounting = fh.read()
    code, report = run_cli(["report", "--out-dir", str(out_dir)])
    require(code == 0, f"report exited {code}")
    require(report == accounting, "report differs from accounting.txt")
    if result is not None:
        require(result.report.render_text() == accounting,
                "accounting.txt differs from the in-process report")
        require(list(result.selection.centers) == centers,
                "selection.txt differs from the in-process selection")


def check_query(centers, pooled, sequence, spec) -> None:
    check_centers(list(centers), spec)
    require(all(np.shape(p) == (spec.p, spec.d) for p in pooled),
            "pooled shape")
    check_llm_input(sequence, spec)


def same_selection(a, b) -> bool:
    return (list(a.centers) == list(b.centers)
            and all(np.array_equal(x, y) for x, y in zip(a.pooled, b.pooled)))
