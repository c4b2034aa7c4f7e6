"""LLM-input sequence construction and the RWLI serialization."""

import struct
from dataclasses import dataclass

import numpy as np

from .dfs import SelectionResult
from .errors import (BadMagicError, BadVersionError, NonFiniteDataError,
                     TruncatedPayloadError)
from .memory import MemoryBank

RWLI_MAGIC = b"RWLI"
RWLI_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


@dataclass
class LLMInputSequence:
    memory_tokens: np.ndarray  # (W*T, d), frame then write-query order
    separator: np.ndarray  # (d,) the tau row
    selected_tokens: np.ndarray  # (sum of pooled rows, d)
    memory_rows: int
    selected_rows: int

    @property
    def total_rows(self) -> int:
        return self.memory_rows + 1 + self.selected_rows

    def rows(self) -> np.ndarray:
        return np.concatenate([self.memory_tokens, self.separator[None, :],
                               self.selected_tokens], axis=0)


def assemble(bank: MemoryBank, selection: SelectionResult,
             tau: np.ndarray) -> LLMInputSequence:
    """Memory tokens in temporal order, one separator row, then pooled tokens
    of the selected frames in ascending frame order."""
    if len(bank) == 0:
        raise ValueError("cannot assemble from an empty memory bank")
    if tau.shape != (bank.d,):
        raise ValueError("separator row must have length d")
    order = sorted(range(len(selection.centers)),
                   key=lambda i: selection.centers[i])
    if selection.pooled:
        selected = np.concatenate([selection.pooled[i] for i in order], axis=0)
    else:
        selected = np.zeros((0, bank.d))
    memory_tokens = bank.all_tokens()
    return LLMInputSequence(memory_tokens=memory_tokens, separator=tau,
                            selected_tokens=selected,
                            memory_rows=memory_tokens.shape[0],
                            selected_rows=selected.shape[0])


def save_llm_input(seq: LLMInputSequence, path) -> None:
    d = seq.separator.shape[0]
    payload = np.ascontiguousarray(seq.rows(), dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RWLI_MAGIC, RWLI_VERSION, seq.total_rows, d,
                              seq.memory_rows, seq.selected_rows))
        fh.write(payload.tobytes())


def load_llm_input(path) -> LLMInputSequence:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError("RWLI header truncated")
    magic, version, total, d, mem_rows, sel_rows = _HEADER.unpack_from(data)
    if magic != RWLI_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {RWLI_MAGIC!r}")
    if version != RWLI_VERSION:
        raise BadVersionError(f"unsupported RWLI version {version}")
    if total != mem_rows + 1 + sel_rows:
        raise TruncatedPayloadError("RWLI section sizes do not add up")
    expected = _HEADER.size + total * d * 4
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"RWLI file holds {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data[_HEADER.size:],
                           dtype="<f4").astype(np.float64).reshape(total, d)
    if not np.all(np.isfinite(values)):
        raise NonFiniteDataError("RWLI payload contains non-finite values")
    return LLMInputSequence(memory_tokens=values[:mem_rows],
                            separator=values[mem_rows],
                            selected_tokens=values[mem_rows + 1:],
                            memory_rows=mem_rows, selected_rows=sel_rows)
