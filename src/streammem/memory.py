"""Memory bank, feature buffer, learnable read/write interfaces, and token
accounting.

The bank is the only Stage-1 state that grows with stream length: W compact
tokens per processed frame, kept in strict temporal order. Raw frame tokens
go to a passive feature buffer that is never read during Stage 1.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadMagicError, BadVersionError, NonFiniteDataError,
                     TruncatedPayloadError)
from .stream import read_rwfs_bytes, rwfs_record_bytes
from .tensor import AttentionParams, attention

RWMB_MAGIC = b"RWMB"
RWMB_VERSION = 1
_BANK_HEADER = struct.Struct("<4sIIII")
_ENTRY_HEADER = struct.Struct("<II")


@dataclass
class MemoryEntry:
    frame_index: int
    subclip_index: int
    tokens: np.ndarray  # (W, d)


@dataclass
class MemoryBank:
    W: int
    d: int
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def token_count(self) -> int:
        return self.W * len(self.entries)

    def frame_indices(self):
        return [e.frame_index for e in self.entries]

    def all_tokens(self) -> np.ndarray:
        """All memory tokens flattened in temporal order, (W * len, d)."""
        if not self.entries:
            return np.zeros((0, self.d))
        return np.concatenate([e.tokens for e in self.entries], axis=0)

    def resident_bytes(self) -> int:
        return sum(e.tokens.nbytes for e in self.entries)


def append(bank: MemoryBank, entry: MemoryEntry) -> None:
    """Append in strict temporal order; duplicates and regressions are bugs
    in the orchestrator and rejected outright."""
    if entry.tokens.shape != (bank.W, bank.d):
        raise ValueError("entry tokens must be W x d")
    if not np.all(np.isfinite(entry.tokens)):
        raise ValueError("entry tokens must be finite")
    if bank.entries and entry.frame_index <= bank.entries[-1].frame_index:
        raise ValueError(
            f"out-of-order append: frame {entry.frame_index} after "
            f"{bank.entries[-1].frame_index}")
    bank.entries.append(entry)


class FeatureBuffer:
    """In-memory raw-token store keyed by frame index; bit-exact retrieval."""

    def __init__(self):
        self._frames = {}

    def store(self, frame_index: int, raw: np.ndarray) -> None:
        if frame_index in self._frames:
            raise ValueError(f"frame {frame_index} already buffered")
        self._frames[frame_index] = np.array(raw, dtype=np.float64, copy=True)

    def get(self, frame_index: int) -> np.ndarray:
        return self._frames[frame_index]

    def frame_indices(self):
        return sorted(self._frames)

    def __len__(self):
        return len(self._frames)

    def token_count(self) -> int:
        return sum(f.shape[0] for f in self._frames.values())

    def resident_bytes(self) -> int:
        return sum(f.nbytes for f in self._frames.values())


def buffer_store(buffer, frame_index: int, raw: np.ndarray) -> None:
    buffer.store(frame_index, raw)


def save_buffer_spill(buffer: FeatureBuffer, data_path, manifest_path) -> None:
    """Spill the buffer to disk: one RWFS record per frame plus a manifest
    mapping frame_index to byte offset. Values are stored as float32."""
    offsets = []
    with open(data_path, "wb") as fh:
        for frame_index in buffer.frame_indices():
            raw = buffer.get(frame_index)
            offsets.append([frame_index, fh.tell()])
            fh.write(rwfs_record_bytes(raw[None, :, :]))
    manifest = {"format": "RWFS-spill", "version": 1, "frames": offsets}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


class DiskFeatureBuffer:
    """Read-only view over a spilled feature buffer."""

    def __init__(self, data_path, manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        self._offsets = {int(i): int(off) for i, off in manifest["frames"]}
        self._data_path = data_path

    def frame_indices(self):
        return sorted(self._offsets)

    def __len__(self):
        return len(self._offsets)

    def token_count(self) -> int:
        if not self._offsets:
            return 0
        return len(self._offsets) * self.get(self.frame_indices()[0]).shape[0]

    def get(self, frame_index: int) -> np.ndarray:
        offset = self._offsets[frame_index]
        with open(self._data_path, "rb") as fh:
            fh.seek(offset)
            header = fh.read(20)
            _, _, T, P, d = struct.unpack("<4sIIII", header)
            body = fh.read(T * P * d * 4)
        _, _, _, values = read_rwfs_bytes(header + body)
        return values[0]


@dataclass
class QueryBank:
    read_queries: np.ndarray  # (N_R, d), learnable
    write_queries: np.ndarray  # (W, d), learnable
    read_attention: AttentionParams
    write_attention: AttentionParams

    @property
    def n_read(self) -> int:
        return self.read_queries.shape[0]

    @property
    def n_write(self) -> int:
        return self.write_queries.shape[0]


def read_context(bank: MemoryBank, queries: QueryBank,
                 residual: bool = True) -> np.ndarray:
    """Retrieve context from memory with the read queries.

    An empty bank returns the read queries unchanged (their learned initial
    content); otherwise cross-attention over all flattened memory tokens,
    with an optional residual connection back onto the queries.
    """
    if not bank.entries:
        return queries.read_queries.copy()
    memory_tokens = bank.all_tokens()
    attended = attention(queries.read_queries, memory_tokens, memory_tokens,
                         queries.read_attention)
    if residual:
        return queries.read_queries + attended
    return attended


def write_frame(perceived: np.ndarray, queries: QueryBank, start_frame: int,
                subclip_index: int) -> list:
    """Distill each frame of a sub-clip into W compact memory tokens.

    `perceived` holds the sub-clip's stacked (F, N_Q, d) states, frame
    `start_frame` first; one batched attention call writes all F frames.
    Returns the F entries in frame order.
    """
    if perceived.ndim != 3 or perceived.shape[2] != queries.write_queries.shape[1]:
        raise ValueError("perceived tokens must be F x N_Q x d")
    tokens = attention(queries.write_queries, perceived, perceived,
                       queries.write_attention)
    return [MemoryEntry(frame_index=start_frame + j,
                        subclip_index=subclip_index, tokens=tokens[j])
            for j in range(len(tokens))]


def save_bank(bank: MemoryBank, path) -> None:
    with open(path, "wb") as fh:
        fh.write(bank_bytes(bank))


def bank_bytes(bank: MemoryBank) -> bytes:
    parts = [_BANK_HEADER.pack(RWMB_MAGIC, RWMB_VERSION, len(bank.entries),
                               bank.W, bank.d)]
    for e in bank.entries:
        parts.append(_ENTRY_HEADER.pack(e.frame_index, e.subclip_index))
        parts.append(np.ascontiguousarray(e.tokens, dtype=np.float32).tobytes())
    return b"".join(parts)


def load_bank(path) -> MemoryBank:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _BANK_HEADER.size:
        raise TruncatedPayloadError("RWMB header truncated")
    magic, version, count, W, d = _BANK_HEADER.unpack_from(data)
    if magic != RWMB_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {RWMB_MAGIC!r}")
    if version != RWMB_VERSION:
        raise BadVersionError(f"unsupported RWMB version {version}")
    entry_size = _ENTRY_HEADER.size + W * d * 4
    expected = _BANK_HEADER.size + count * entry_size
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"bank file holds {len(data)} bytes, expected {expected}")
    bank = MemoryBank(W=W, d=d)
    pos = _BANK_HEADER.size
    for _ in range(count):
        frame_index, subclip_index = _ENTRY_HEADER.unpack_from(data, pos)
        pos += _ENTRY_HEADER.size
        tokens = np.frombuffer(data[pos:pos + W * d * 4],
                               dtype="<f4").astype(np.float64).reshape(W, d)
        pos += W * d * 4
        if not np.all(np.isfinite(tokens)):
            raise NonFiniteDataError("RWMB payload contains non-finite values")
        append(bank, MemoryEntry(frame_index, subclip_index, tokens))
    return bank


@dataclass
class AccountingReport:
    T: int
    memory_token_count: int
    buffer_token_count: int
    llm_input_length: int
    peak_transient_scores: int
    bytes_estimates: dict
    note: str = ""

    def render_text(self) -> str:
        lines = [
            "accounting report",
            f"frames_processed={self.T}",
            f"memory_token_count={self.memory_token_count}",
            f"buffer_token_count={self.buffer_token_count}",
            f"llm_input_length={self.llm_input_length}",
            f"peak_transient_scores={self.peak_transient_scores}",
        ]
        for key in sorted(self.bytes_estimates):
            lines.append(f"bytes32.{key}={self.bytes_estimates[key]}")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines) + "\n"


def accounting_report(bank: MemoryBank, buffer, config) -> AccountingReport:
    """Token and byte accounting for a processed stream.

    LLM-input length is W*T + 1 + p*min(K_c, T): the separator row is always
    present, and at most T frames can be selected.
    """
    T = len(bank.entries)
    W = bank.W
    d = bank.d
    memory_tokens = W * T
    buffer_tokens = buffer.token_count() if buffer is not None else 0
    selected = config.pool_tokens * min(config.Kc, T)
    llm_len = memory_tokens + 1 + selected
    peak_scores = config.n_read * memory_tokens
    est = {
        "memory": memory_tokens * d * 4,
        "buffer": buffer_tokens * d * 4,
        "llm_input": llm_len * d * 4,
    }
    note = ""
    if (T, W, config.Kc, config.pool_tokens) == (548, 2, 8, 32):
        note = ("published reference configuration lists 1184* input tokens "
                "under an undocumented counting convention; the formula "
                "W*T + 1 + Kc*p gives 1353 and both are reported here")
    return AccountingReport(T=T, memory_token_count=memory_tokens,
                            buffer_token_count=buffer_tokens,
                            llm_input_length=llm_len,
                            peak_transient_scores=peak_scores,
                            bytes_estimates=est, note=note)
