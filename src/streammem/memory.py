"""Memory bank, feature buffer, learnable read/write interfaces, and token
accounting.

The bank is the only Stage-1 state that grows with stream length: W compact
tokens per processed frame, kept in strict temporal order. It is stored as
one growable (capacity, W, d) array plus frame and sub-clip index arrays,
so appends are amortised O(1) and readers see views, never copies. Raw
frame tokens go to a passive feature buffer that is never read during
Stage 1.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, BadVersionError, MalformedArtifactError,
                     NonFiniteDataError, TruncatedPayloadError)
from .stream import read_rwfs_bytes, rwfs_record_bytes
from .tensor import AttentionParams, attend, attention

RWMB_MAGIC = b"RWMB"
RWMB_VERSION = 1
_BANK_HEADER = struct.Struct("<4sIIII")
_RWFS_HEADER = struct.Struct("<4sIIII")
_MIN_CAPACITY = 16


def _record_dtype(W: int, d: int) -> np.dtype:
    """One RWMB entry: frame index, sub-clip index, W x d float32 tokens."""
    return np.dtype([("frame", "<u4"), ("subclip", "<u4"),
                     ("tokens", "<f4", (W, d))])


def _reserve(buf: np.ndarray, used: int, needed: int) -> np.ndarray:
    """`buf` if it holds `needed` rows, else a copy of its first `used` rows
    in a buffer of at least double the capacity."""
    if needed <= len(buf):
        return buf
    grown = np.empty((max(needed, 2 * len(buf), _MIN_CAPACITY),)
                     + buf.shape[1:], dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass
class MemoryEntry:
    frame_index: int
    subclip_index: int
    tokens: np.ndarray  # (W, d)


class MemoryBank:
    """W memory tokens per frame in strict frame order.

    `tokens`, `frames`, `subclips` and `all_tokens()` are read-only views
    of the live rows. The bank also caches the read attention's projected
    K/V rows (`projected_kv`): attention weights are fixed at inference,
    so the cache assumes they are never changed in place.
    """

    def __init__(self, W: int, d: int):
        self.W = W
        self.d = d
        self._count = 0
        self._tokens = np.empty((0, W, d))
        self._frames = np.empty(0, dtype=np.int64)
        self._subclips = np.empty(0, dtype=np.int64)
        self._kv_params = None
        self._kv_rows = 0
        self._k = np.empty((0, d))
        self._v = np.empty((0, d))

    def __len__(self):
        return self._count

    @property
    def tokens(self) -> np.ndarray:
        """(len, W, d) memory tokens, frame order."""
        return _readonly(self._tokens[:self._count])

    @property
    def frames(self) -> np.ndarray:
        return _readonly(self._frames[:self._count])

    @property
    def subclips(self) -> np.ndarray:
        return _readonly(self._subclips[:self._count])

    @property
    def entries(self) -> list:
        """The bank as per-frame entries whose tokens are views of it."""
        return [MemoryEntry(f, s, t) for f, s, t in
                zip(self.frames.tolist(), self.subclips.tolist(), self.tokens)]

    def token_count(self) -> int:
        return self.W * self._count

    def frame_indices(self):
        return self.frames.tolist()

    def all_tokens(self) -> np.ndarray:
        """All memory tokens flattened in temporal order, (W * len, d)."""
        return self.tokens.reshape(self.token_count(), self.d)

    def resident_bytes(self) -> int:
        """Bytes of the live rows (tokens and frame and sub-clip indices)
        plus the cached K/V rows. Spare capacity is never written, so it is
        not counted."""
        n, rows = self._count, self._kv_rows
        return sum(a.nbytes for a in (self._tokens[:n], self._frames[:n],
                                      self._subclips[:n], self._k[:rows],
                                      self._v[:rows]))

    def _push(self, frames, subclips, tokens) -> None:
        """Store rows after the live ones; callers validate them."""
        n, end = self._count, self._count + len(frames)
        self._tokens = _reserve(self._tokens, n, end)
        self._frames = _reserve(self._frames, n, end)
        self._subclips = _reserve(self._subclips, n, end)
        self._tokens[n:end] = tokens
        self._frames[n:end] = frames
        self._subclips[n:end] = subclips
        self._count = end

    def projected_kv(self, params: AttentionParams):
        """The memory rows projected through `params.w_k` and `params.w_v`,
        each (W * len, d). Rows appended since the last call are projected
        now; a different `params` object restarts the cache.

        numpy sends a one-row product to gemv, which rounds differently
        from gemm, so every projected block spans at least two rows unless
        the whole bank is one row: the rows then equal one full projection
        of all_tokens() bit for bit.
        """
        rows = self.token_count()
        if params is not self._kv_params:
            self._kv_params, self._kv_rows = params, 0
        if self._kv_rows < rows:
            start = 0 if self._kv_rows < 2 else min(self._kv_rows, rows - 2)
            self._k = _reserve(self._k, start, rows)
            self._v = _reserve(self._v, start, rows)
            block = self.all_tokens()[start:]
            self._k[start:rows] = block @ params.w_k
            self._v[start:rows] = block @ params.w_v
            self._kv_rows = rows
        return _readonly(self._k[:rows]), _readonly(self._v[:rows])


def append(bank: MemoryBank, entry: MemoryEntry) -> None:
    """Append in strict temporal order; duplicates and regressions are bugs
    in the orchestrator and rejected outright."""
    if entry.tokens.shape != (bank.W, bank.d):
        raise ValueError("entry tokens must be W x d")
    if not np.all(np.isfinite(entry.tokens)):
        raise ValueError("entry tokens must be finite")
    n = len(bank)
    if n and entry.frame_index <= bank._frames[n - 1]:
        raise ValueError(
            f"out-of-order append: frame {entry.frame_index} after "
            f"{bank._frames[n - 1]}")
    bank._push([entry.frame_index], [entry.subclip_index],
               entry.tokens[None])


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
            try:
                manifest = json.load(fh)
                self._offsets = {int(i): int(off)
                                 for i, off in manifest["frames"]}
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedArtifactError(
                    f"malformed buffer manifest: {exc!r}") from exc
        if any(off < 0 for off in self._offsets.values()):
            raise MalformedArtifactError("negative offset in buffer manifest")
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
        offset = self._offsets.get(frame_index)
        if offset is None:
            raise MalformedArtifactError(
                f"frame {frame_index} is not in the buffer manifest")
        with open(self._data_path, "rb") as fh:
            fh.seek(offset)
            header = fh.read(_RWFS_HEADER.size)
            if len(header) < _RWFS_HEADER.size:
                raise TruncatedPayloadError(
                    f"buffer record of frame {frame_index} at offset "
                    f"{offset} is truncated")
            _, _, T, P, d = _RWFS_HEADER.unpack(header)
            body = fh.read(T * P * d * 4)
        T, _, _, values = read_rwfs_bytes(header + body)
        if T != 1:
            raise MalformedArtifactError(
                f"buffer record of frame {frame_index} holds {T} frames")
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
    with an optional residual connection back onto the queries. The memory
    side's K/V projections come from the bank's cache, so a read projects
    only the rows written since the previous one.
    """
    if len(bank) == 0:
        return queries.read_queries.copy()
    params = queries.read_attention
    kp, vp = bank.projected_kv(params)
    attended = attend(queries.read_queries @ params.w_q, kp, vp, params)
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
    records = np.empty(len(bank), dtype=_record_dtype(bank.W, bank.d))
    records["frame"] = bank.frames
    records["subclip"] = bank.subclips
    records["tokens"] = bank.tokens
    return (_BANK_HEADER.pack(RWMB_MAGIC, RWMB_VERSION, len(bank), bank.W,
                              bank.d)
            + records.tobytes())


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
    try:
        record = _record_dtype(W, d)
    except ValueError as exc:
        raise MalformedArtifactError(
            f"RWMB entry shape {W} x {d} is not representable") from exc
    expected = _BANK_HEADER.size + count * record.itemsize
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"bank file holds {len(data)} bytes, expected {expected}")
    records = np.frombuffer(data, dtype=record, count=count,
                            offset=_BANK_HEADER.size)
    if not np.all(np.isfinite(records["tokens"])):
        raise NonFiniteDataError("RWMB payload contains non-finite values")
    frames = records["frame"].astype(np.int64)
    if np.any(np.diff(frames) <= 0):
        raise MalformedArtifactError(
            "RWMB frame indices are not strictly increasing")
    bank = MemoryBank(W=W, d=d)
    bank._push(frames, records["subclip"], records["tokens"])
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
    T = len(bank)
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
