"""Workload definitions and seeded input generation.

Every workload is a stream shape, a run configuration and a loop type. The
benchmark generates the stream and the instructions itself, from the
workload seed, with numpy alone, and writes the stream in the RWFS layout,
so the program under test receives only an RWFS file, a config file and
instruction strings.

Why three workloads: Stage-1 perceiver cost grows with T, the memory read
grows with T^2/F, and a Stage-2 query reads the bank back from disk. Each
workload puts a different one of these in front.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

# A few dozen ordinary words; an instruction is a seeded draw of 3 to 8 of
# them, so every instruction is new but has the length of a real request.
VOCABULARY = (
    "what happens after the person opens door and walks into kitchen "
    "describe end of video who picks up red cup near window why does dog "
    "run outside when car stops how many people sit at table before light "
    "turns off where is phone left during meeting").split()

_RWFS_HEADER = struct.Struct("<4sIIII")


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "batch job, one caller" or "closed loop, one client"
    T: int  # frames in the stream
    P: int  # tokens per frame
    d: int
    layers: int
    L: int  # dfs.L, the Stage-2 candidate count
    Kc: int = 8
    pool_tokens: int = 32
    process_in_setup: bool = False  # requery: Stage 1 runs in set-up only
    min_process_runs: int = 3
    # In-memory queries after each process run; with at least 3 runs a
    # run holds the 100 query samples a p90 needs.
    queries_per_process: int = 34
    min_queries: int = 100  # requery: at least this many timed queries
    setup_runs: int = 5
    why: str = ""

    @property
    def main_op(self) -> str:
        """The operation per-layer metrics are normalised by."""
        return "query" if self.process_in_setup else "process"

    W = 2  # memory.n_write

    def config_text(self) -> str:
        return (f"model.d={self.d}\nmodel.layers={self.layers}\n"
                f"memory.n_write={self.W}\ndfs.L={self.L}\n"
                f"dfs.Kc={self.Kc}\ndfs.pool_tokens={self.pool_tokens}\n")

    @property
    def p(self) -> int:
        return min(self.pool_tokens, self.P)

    def llm_rows(self) -> int:
        """Rows of the assembled input: W*T + 1 + p*min(Kc, T)."""
        return self.W * self.T + 1 + self.p * min(self.Kc, self.T)

    def centers(self) -> int:
        return min(self.Kc, self.L, self.T)


WORKLOADS = {
    "reference": Workload(
        name="reference", loop="batch job, one caller",
        T=548, P=32, d=64, layers=8, L=64,
        why="Batch job, one caller: run_pipeline at the paper's reference "
            "shape (T=548, 8 layers). The perceiver is about 96% of the "
            "time; memory read and Stage 2 are small."),
    "long_stream": Workload(
        name="long_stream", loop="batch job, one caller",
        T=4384, P=32, d=64, layers=1, L=64,
        why="Batch job, one caller: run_pipeline at 8x T with 1 layer. The "
            "memory read re-projects all memory tokens per sub-clip, so it "
            "grows as T^2/F and shows next to the perceiver."),
    "requery": Workload(
        name="requery", loop="closed loop, one client",
        T=2192, P=32, d=64, layers=1, L=256,
        process_in_setup=True,
        why="Closed loop, one client: process once in set-up, then select "
            "plus assemble through the CLI per fresh instruction. The bank "
            "is read back from disk; Stage 1 is absent."),
}

# Seconds-scale shapes for the benchmark's own tests.
SMOKE = {name: replace(w, T=48, P=8, d=16, layers=1, L=16, Kc=4,
                       pool_tokens=4, queries_per_process=4, min_queries=12,
                       setup_runs=2)
         for name, w in WORKLOADS.items()}


def get(name: str, size: str = "full") -> Workload:
    table = SMOKE if size == "smoke" else WORKLOADS
    return table[name]


def _rng(seed: int, workload: str, stream_id: int) -> np.random.Generator:
    salt = sum(workload.encode("utf-8"))
    return np.random.default_rng([seed, salt, stream_id])


def instruction(seed: int, workload: str, index: int) -> str:
    """The index-th instruction of a run; a pure function of its arguments."""
    rng = _rng(seed, workload, 1 + index)
    count = int(rng.integers(3, 9))
    return " ".join(VOCABULARY[i]
                    for i in rng.integers(0, len(VOCABULARY), count))


def write_stream(spec: Workload, seed: int, path) -> None:
    """Seeded standard-normal tokens clipped to [-3, 3], as one RWFS file."""
    values = _rng(seed, spec.name, 0).standard_normal(
        (spec.T, spec.P, spec.d), dtype=np.float32)
    np.clip(values, -3.0, 3.0, out=values)
    with open(path, "wb") as fh:
        fh.write(_RWFS_HEADER.pack(b"RWFS", 1, spec.T, spec.P, spec.d))
        fh.write(values.astype("<f4").tobytes())
