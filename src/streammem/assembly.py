"""LLM-input sequence construction and the RWLI serialization.

An RWLI record is written straight from the sequence's three sections by
the codec's one writer, `Format.save`, so writing an LLM input copies
none of its rows; the memory section is a view of the bank's tokens."""

from dataclasses import dataclass

import numpy as np

from .codec import Format
from .dfs import SelectionResult
from .errors import MalformedArtifactError
from .memory import MemoryBank

RWLI = Format(b"RWLI", 2, ("d", "memory_rows", "selected_rows"),
              lambda h: ("<f4", (h.memory_rows + 1 + h.selected_rows, h.d)))


@dataclass
class LLMInputSequence:
    memory_tokens: np.ndarray  # (W*T, d), frame then write-query order
    separator: np.ndarray  # (d,) the tau row
    selected_tokens: np.ndarray  # (sum of pooled rows, d)

    @property
    def memory_rows(self) -> int:
        return len(self.memory_tokens)

    @property
    def selected_rows(self) -> int:
        return len(self.selected_tokens)

    @property
    def total_rows(self) -> int:
        return self.memory_rows + 1 + self.selected_rows


def assemble(bank: MemoryBank, selection: SelectionResult,
             tau: np.ndarray) -> LLMInputSequence:
    """Memory tokens in temporal order, one separator row, then pooled tokens
    of the selected frames in ascending frame order. The separator is a
    copy of `tau`: a model's tau views its whole payload, which a sequence
    must not keep alive."""
    if len(bank) == 0:
        raise ValueError("cannot assemble from an empty memory bank")
    if tau.shape != (bank.d,):
        raise ValueError("separator row must have length d")
    pooled, centers = selection.pooled, selection.centers
    order = sorted(range(len(centers)), key=centers.__getitem__)
    selected = pooled[order].reshape(-1, pooled.shape[-1])
    return LLMInputSequence(memory_tokens=bank.all_tokens(),
                            separator=tau.copy(), selected_tokens=selected)


def save_llm_input(seq: LLMInputSequence, path) -> None:
    """Write the sequence as one RWLI record of three sections, memory
    rows, separator row and selected rows, each written as it is or, if it
    is not float32, cast on its own: no stacked copy of the rows is made."""
    RWLI.save(path, seq.memory_tokens, seq.separator[None, :],
              seq.selected_tokens, d=seq.separator.shape[0],
              memory_rows=seq.memory_rows, selected_rows=seq.selected_rows)


def load_llm_input(path) -> LLMInputSequence:
    """The sequence an RWLI file holds. `assemble` writes at least one
    memory row and one selected row, d wide, so a header with a zero d or
    an empty section is malformed."""
    header, values = RWLI.load(path)
    if min(header) < 1:
        raise MalformedArtifactError(f"RWLI sequence {tuple(header)} is empty")
    m = header.memory_rows
    return LLMInputSequence(memory_tokens=values[:m], separator=values[m],
                            selected_tokens=values[m + 1:])
