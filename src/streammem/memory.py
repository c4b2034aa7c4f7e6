"""Memory bank, frame store, learnable read/write interfaces, and token
accounting.

The bank is the only Stage-1 state that grows with stream length: W compact
tokens per processed frame, kept in strict temporal order, so a frame's
index is its position. It is stored as one (capacity, W, d) array, and
Stage 1 adds rows only through `append`, one checked (n, W, d) block of a
sub-clip's F frames at a time. Appends are amortised O(1) and readers see
views, never copies; a bank built for a stream of known length is sized
for it once. `load_bank` keeps the read-only tokens of an RWMB file as
the bank's array, which an append to it copies first. The read keeps a
streaming state on the bank whose size does not depend on the bank's
length: per head and read-query row, the online softmax (Milakov &
Gimelshein, arXiv 1805.02867) of the memory rows read so far, rescaled as
FlashAttention does (Dao et al., arXiv 2205.14135). So each read projects
and scores only the rows written since the previous one.

Raw frame tokens live in one kind of store, `FrameStore`, which serves
`block(start, end)` and `get(t)` from either an array (a synthetic
stream's, copied once) or an RWFS file read through one descriptor (a
loaded stream, as `load_stream` opens it, or a spill, as
`DiskFeatureBuffer` opens it). A file-backed store holds no frame between
reads. Stage 1's feature buffer is a store of the stream's frames and a
count of those buffered so far, advanced once per sub-clip and never read
during Stage 1; Stage 2 pools the selected frames through it. Its spill
keeps frames in the same order, so a frame's index is its position there
too, and the spill's header alone locates every frame; for a file-backed
buffer the spill is a kernel-side copy of the file's first frames.

Everything here holds the dtype Stage 1 computes in, float32 for a run of
the pipeline: the bank's tokens, the buffered frames, and the read state
apart from its two running sums, which are a few kilobytes of float64.
"""

import os
import weakref
from dataclasses import dataclass

import numpy as np

from .codec import RWFS, Format
from .errors import (MalformedArtifactError, NonFiniteDataError,
                     TruncatedPayloadError)
from .tensor import (AttentionParams, _row_max, attention, head_scale,
                     merge_heads, shift_exp, split_heads)

_MIN_CAPACITY = 16


RWMB = Format(b"RWMB", 2, ("count", "W", "d"), lambda h: ("<f4", tuple(h)))


def _reserve(buf: np.ndarray, used: int, needed: int) -> np.ndarray:
    """`buf` if it holds `needed` rows and can be written, else a copy of
    its first `used` rows in a buffer of at least double the capacity."""
    if needed <= len(buf) and buf.flags.writeable:
        return buf
    grown = np.empty((max(needed, 2 * len(buf), _MIN_CAPACITY),)
                     + buf.shape[1:], dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


class _ReadState:
    """The online softmax of the read queries over the memory rows folded
    in so far. Per head (the leading axis of every array here) and
    read-query row it holds the running maximum of the scaled scores
    (`top`), the sum of exp(score - top) over the rows (`den`) and the sum
    of exp(score - top) times each row's projected value (`num`, dh wide),
    so the read context is num / den. Its size is fixed by the read
    queries and heads, whatever the number of rows.

    The projected queries and the maxima are in the read weights' dtype,
    as the scores are; the two sums are float64, and the context is
    rounded back to the weights' dtype.
    """

    def __init__(self, queries: "QueryBank"):
        params = queries.read_attention
        shape = (params.heads, queries.n_read)
        self.read_queries, self.params = queries.read_queries, params
        self.qp = split_heads(queries.read_queries @ params.w_q, params.heads)
        self.top = np.full(shape + (1,), -np.inf, dtype=self.qp.dtype)
        self.den = np.zeros(shape + (1,))
        self.num = np.zeros(shape + (params.dim_model // params.heads,))
        self.rows = 0

    def serves(self, queries: "QueryBank") -> bool:
        return (queries.read_queries is self.read_queries
                and queries.read_attention is self.params)

    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.qp, self.top, self.den, self.num))

    def fold(self, new_rows: np.ndarray) -> None:
        """Fold in the memory rows that follow the ones folded so far: every
        head scores them, raises its running maxima, and rescales its sums
        by exp(old max - new max) before adding the new rows' terms."""
        params = self.params
        kp = split_heads(new_rows @ params.w_k, params.heads)
        vp = split_heads(new_rows @ params.w_v, params.heads)
        scores = self.qp @ kp.swapaxes(-1, -2)
        scores *= head_scale(params)
        top = np.maximum(self.top, _row_max(scores))
        shift_exp(scores, top)
        # exp(old max - new max), in the old maxima's storage
        rescale = shift_exp(self.top, top)
        self.den *= rescale
        self.den += scores.sum(axis=-1, keepdims=True)
        self.num *= rescale
        self.num += scores @ vp
        self.top = top
        self.rows += len(new_rows)

    def context(self) -> np.ndarray:
        """Each head's num / den, heads side by side, in the projected
        queries' dtype: (N_R, d)."""
        return merge_heads(self.num / self.den).astype(self.qp.dtype,
                                                        copy=False)


class MemoryBank:
    """W memory tokens per frame in strict frame order: row t holds frame t.

    `tokens` and `all_tokens()` are read-only views of the live rows, and
    `frames` is the read-only arange of their positions. The bank also
    carries the streaming read state of the last read queries
    (`read_state`), whose size depends on the read queries and heads but
    not on the bank's length. Queries and attention weights are fixed at
    inference, so the state assumes they are never changed in place.

    `capacity` frames are allocated once up front; a bank that outgrows
    them doubles its array. Untouched capacity is never written, so it is
    not counted. Tokens are stored in `dtype`, and appended blocks are cast
    to it; Stage 1 and `load_bank` build float32 banks, and a loaded bank's
    array is its file's read-only bytes until an append copies it.
    """

    def __init__(self, W: int, d: int, capacity: int = 0,
                 dtype=np.float64):
        self.W = W
        self.d = d
        self._count = 0
        self._tokens = np.empty((capacity, W, d), dtype=dtype)
        self._read = None

    def __len__(self):
        return self._count

    @property
    def tokens(self) -> np.ndarray:
        """(len, W, d) memory tokens, frame order."""
        return _readonly(self._tokens[:self._count])

    @property
    def frames(self) -> np.ndarray:
        """Each row's frame index, which is its position."""
        return _readonly(np.arange(self._count))

    def token_count(self) -> int:
        return self.W * self._count

    def frame_indices(self):
        return list(range(self._count))

    def all_tokens(self) -> np.ndarray:
        """All memory tokens flattened in temporal order, (W * len, d)."""
        return self.tokens.reshape(self.token_count(), self.d)

    def resident_bytes(self) -> int:
        """Bytes of the live rows' tokens plus the streaming read state.
        Spare capacity is never written, so it is not counted."""
        state = self._read.nbytes() if self._read is not None else 0
        return state + self._tokens[:self._count].nbytes

    def read_state(self, queries: "QueryBank") -> _ReadState:
        """The streaming read state of `queries` with every memory row
        folded in. Rows appended since the last read are folded in now;
        read queries or read weights other than the last read's restart
        the state from row 0."""
        if self._read is None or not self._read.serves(queries):
            self._read = _ReadState(queries)
        state = self._read
        if state.rows < self.token_count():
            state.fold(self.all_tokens()[state.rows:])
        return state


def append(bank: MemoryBank, tokens) -> None:
    """Append an (n, W, d) block of `tokens`, the next n frames: their rows
    take positions len(bank) on. The whole block is checked before any row
    is stored, so a rejected block leaves the bank as it was: the tokens
    must be n x W x d and finite in the bank's dtype, or ValueError is
    raised."""
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        tokens = np.asarray(tokens, dtype=bank._tokens.dtype)
    if tokens.ndim != 3 or tokens.shape[1:] != (bank.W, bank.d):
        raise ValueError(f"tokens must be n x {bank.W} x {bank.d}, "
                         f"not {tokens.shape}")
    if not np.all(np.isfinite(tokens)):
        raise ValueError("memory tokens must be finite")
    n = len(bank)
    end = n + len(tokens)
    bank._tokens = _reserve(bank._tokens, n, end)
    bank._tokens[n:end] = tokens
    bank._count = end


# A loaded stream is checked for non-finite values whole, at open, so a
# bad frame fails before any Stage-1 work, and in chunks of at most this
# many bytes, so the check never holds the payload. The freed chunk also
# matters to Stage 1: glibc raises its dynamic mmap threshold to the size
# of a freed mmapped block, so the perceiver's temporaries that follow
# are reused from the heap instead of mmapped and faulted in afresh on
# every call. Stage 1 of a 548-frame, 8-layer stream in a fresh process
# (Linux, glibc 2.36) took about 63,000 minor faults with no scan, 5,300
# with 1 MiB chunks and 700-800 with 2 or 4 MiB ones; of a 2192-frame,
# 1-layer stream 17,000, 1,500 and 770-900.
_SCAN_BYTES = 4 << 20


class _RWFSFile:
    """An RWFS record read through one descriptor, opened read-only.

    Opening checks the header, that the file holds exactly the payload it
    declares and that the payload holds at least one frame of one token;
    with `scan`, it also checks every value for finiteness, a chunk at a
    time. `read` reads whole frames with os.pread and checks, unless the
    open scanned them, that they are finite. The descriptor closes on
    `close` or when the file object is collected.
    """

    def __init__(self, path, scan: bool):
        self._fd = os.open(path, os.O_RDONLY)
        self._closer = weakref.finalize(self, os.close, self._fd)
        try:
            header = RWFS.read_header(os.pread(self._fd, RWFS.header_size, 0))
            size = os.fstat(self._fd).st_size - RWFS.header_size
            if size != RWFS.layout(header)[2]:
                raise TruncatedPayloadError(
                    f"RWFS payload of {size} bytes is not {tuple(header)}")
            if header.T < 1:
                raise MalformedArtifactError("RWFS stream holds no frames")
            if header.P < 1:
                raise MalformedArtifactError("RWFS frames hold no tokens")
            if header.d < 1:
                raise MalformedArtifactError("RWFS tokens have no dimensions")
            self.shape = tuple(header)
            self.frame_bytes = header.P * header.d * 4
            self.largest_read = 0
            self.checked = False
            if scan:
                self._scan(size)
        except BaseException:
            self.close()
            raise

    dtype = np.dtype("<f4")

    @property
    def fd(self) -> int:
        # a closed descriptor's number may already name another file
        if not self._closer.alive:
            raise ValueError("read from a closed frame store")
        return self._fd

    def close(self) -> None:
        self._closer()

    def _scan(self, size: int) -> None:
        """Check every payload value for finiteness, reading each chunk
        into one reused buffer."""
        chunk = np.empty(min(size, _SCAN_BYTES) // 4, dtype=self.dtype)
        for start in range(0, size, chunk.nbytes):
            part = chunk[:min(size - start, chunk.nbytes) // 4]
            view, offset = memoryview(part).cast("B"), RWFS.header_size + start
            while view:
                got = os.preadv(self.fd, [view], offset)
                if got == 0:
                    raise TruncatedPayloadError("RWFS file shrank while open")
                view, offset = view[got:], offset + got
            if not np.isfinite(part).all():
                raise NonFiniteDataError("RWFS payload is not finite")
        self.checked = True

    def read(self, start: int, end: int) -> np.ndarray:
        """Frames start..end-1, a fresh read-only (end-start, P, d) array
        viewing the bytes read for them."""
        size = (end - start) * self.frame_bytes
        data = os.pread(self.fd, size,
                        RWFS.header_size + start * self.frame_bytes)
        if len(data) != size:
            raise TruncatedPayloadError("RWFS file shrank while open")
        out = np.frombuffer(data, self.dtype).reshape(
            (end - start,) + self.shape[1:])
        if not self.checked and not np.isfinite(out).all():
            raise NonFiniteDataError("RWFS payload is not finite")
        self.largest_read = max(self.largest_read, size)
        return out

    def copy_to(self, frames: int, path) -> None:
        """Write the first `frames` frames to `path` as an RWFS record of
        their own: a fresh header, then their bytes copied by the kernel."""
        with open(path, "wb") as out:
            out.write(RWFS.header_bytes(
                RWFS.Header(frames, *self.shape[1:])))
            out.flush()
            offset, left = RWFS.header_size, frames * self.frame_bytes
            while left:
                sent = os.sendfile(out.fileno(), self.fd, offset, left)
                if sent == 0:
                    raise TruncatedPayloadError("RWFS file shrank while open")
                offset, left = offset + sent, left - sent


class FrameStore:
    """The raw (P, d) tokens of a stream's first `len(store)` frames,
    bit-exact, read a block at a time.

    A store is backed by an array or by an RWFS file. An array, a synthetic
    stream's or a caller's, is copied once in its own dtype, so a caller's
    later writes never reach the store; `block` and `get` return read-only
    views of the copy. A file (`FrameStore.open`, as `load_stream` returns,
    or a spill, `DiskFeatureBuffer`) is read through one descriptor:
    `block` and `get` read only the frames asked for into a fresh
    read-only float32 array. `FrameStore(store, count)` holds the other
    store's first `count` frames, sharing its array or descriptor.

    Stage 1 keeps its buffer as such a store of the stream's frames,
    holding none of them at first; `buffer_store` advances the count one
    sub-clip at a time. `resident_bytes` counts what the store holds: the
    buffered frames of an array, or the largest block read from a file.
    `close` closes a file's descriptor; a store is also its own context
    manager.
    """

    ndim = 3

    def __init__(self, frames, count=None):
        if isinstance(frames, FrameStore):
            self._frames, self._file = frames._frames, frames._file
        elif isinstance(frames, _RWFSFile):
            self._frames, self._file = None, frames
        else:
            self._frames, self._file = np.array(frames), None
        self._limit, self.P, self.d = frames.shape
        self.dtype = frames.dtype
        self._count = self._limit if count is None else count
        if not 0 <= self._count <= self._limit:
            raise ValueError(f"a store of {self._limit} frames cannot hold "
                             f"{self._count}")

    @classmethod
    def open(cls, path) -> "FrameStore":
        """Every frame of the RWFS file at `path`, each value checked for
        finiteness now, so a non-finite stream raises NonFiniteDataError
        before anything reads it."""
        return cls(_RWFSFile(path, scan=True))

    @property
    def shape(self):
        return (self._count, self.P, self.d)

    def __len__(self):
        return self._count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def block(self, start: int, end: int) -> np.ndarray:
        """Frames start..end-1 as one read-only (end-start, P, d) array."""
        if not 0 <= start <= end <= self._count:
            raise MalformedArtifactError(
                f"frames {start} to {end} are not in the {self._count}-frame "
                f"store")
        if self._file is None:
            return _readonly(self._frames[start:end])
        return self._file.read(start, end)

    def get(self, frame_index: int) -> np.ndarray:
        """Frame `frame_index`'s (P, d) tokens, read-only; a frame read
        from an unscanned file raises NonFiniteDataError if it is not
        finite."""
        # a frame outside the store is unreachable from the CLI, which
        # rejects a spill of other than the bank's length, while Stage 2,
        # `select` and `report` ask only for bank frames
        return self.block(frame_index, frame_index + 1)[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._count)
            if step != 1:
                raise ValueError("a frame store reads contiguous frames")
            return self.block(start, max(start, stop))
        return self.get(key)

    def __iter__(self):
        return (self.get(t) for t in range(self._count))

    def __array__(self, dtype=None, copy=None):
        frames = self.block(0, self._count)
        return frames if dtype is None else frames.astype(dtype)

    def frame_indices(self):
        return list(range(self._count))

    def token_count(self) -> int:
        return self._count * self.P

    def resident_bytes(self) -> int:
        if self._file is None:
            return self._frames[:self._count].nbytes
        return self._file.largest_read


def buffer_store(buffer: FrameStore, end: int) -> None:
    """Buffer the frames from the last one buffered up to `end`
    (exclusive): the next sub-clip's. Storing backwards or past the end of
    the stream is a bug in the caller and raises ValueError."""
    if not buffer._count < end <= buffer._limit:
        raise ValueError(f"cannot buffer frames {buffer._count} to {end} "
                         f"of a {buffer._limit}-frame stream")
    buffer._count = end


# every spill's manifest: the record's header locates each frame
SPILL_MANIFEST = b'{"format":"RWFS-spill","version":3}\n'


def save_buffer_spill(buffer: FrameStore, data_path, manifest_path) -> None:
    """Spill the buffer's frames to disk as one float32 RWFS record, the
    bytes `save_stream` writes for them, plus the manifest, which is
    SPILL_MANIFEST for every spill: the record's header fixes where each
    frame's tokens start. A file-backed buffer's frames are the first ones
    of its file, so the spill is a fresh header and a kernel-side copy of
    their byte range: the input file itself when every frame was
    buffered."""
    T, P, d = buffer.shape
    if buffer._file is None:
        RWFS.save(data_path, buffer.block(0, T), T=T, P=P, d=d)
    else:
        buffer._file.copy_to(T, data_path)
    with open(manifest_path, "wb") as fh:
        fh.write(SPILL_MANIFEST)


class DiskFeatureBuffer(FrameStore):
    """A spilled feature buffer, frames 0 to T-1, opened for Stage 2.
    Opening it checks the spill once: a manifest of exactly SPILL_MANIFEST,
    then a header of at least one P x d frame and a file of exactly the
    payload it declares. Nothing is scanned at open: `get(t)` reads frame
    t's tokens at RWFS.header_size + t*P*d*4 through the store's one
    descriptor and checks for finiteness only the frame it reads."""

    def __init__(self, data_path, manifest_path):
        with open(manifest_path, "rb") as fh:
            if fh.read(len(SPILL_MANIFEST) + 1) != SPILL_MANIFEST:
                raise MalformedArtifactError(
                    "buffer manifest is not the one `process` writes")
        super().__init__(_RWFSFile(data_path, scan=False))


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
    with an optional residual connection back onto the queries. The
    attention comes from the bank's streaming read state, so a read
    projects and scores only the rows written since the previous one and
    holds every head's N_R x (new rows) scores at once. It equals one
    `attention` over all memory rows up to rounding: the softmax is
    normalised after the weighted sum, not before it, and rescaled as the
    running maxima rise.
    """
    if len(bank) == 0:
        return queries.read_queries.copy()
    params = queries.read_attention
    attended = bank.read_state(queries).context() @ params.w_o
    if residual:
        return queries.read_queries + attended
    return attended


def write_frame(perceived: np.ndarray, queries: QueryBank) -> np.ndarray:
    """Distill each frame of a sub-clip into W compact memory tokens.

    `perceived` holds the sub-clip's stacked (F, N_Q, d) states; one batched
    attention call writes all F frames. Returns their (F, W, d) tokens in
    frame order.
    """
    if perceived.ndim != 3 or perceived.shape[2] != queries.write_queries.shape[1]:
        raise ValueError("perceived tokens must be F x N_Q x d")
    return attention(queries.write_queries, perceived, perceived,
                     queries.write_attention)


def save_bank(bank: MemoryBank, path) -> None:
    with open(path, "wb") as fh:
        fh.write(bank_bytes(bank))


def bank_bytes(bank: MemoryBank) -> bytes:
    return b"".join(RWMB.encode(bank.tokens, count=len(bank), W=bank.W,
                                d=bank.d))


def load_bank(path) -> MemoryBank:
    """The bank an RWMB file holds: a float32 bank of exactly its `count`
    rows, whose tokens are the codec's read-only view of the file's bytes,
    as Stage 1 wrote them. The codec's decode has already raised
    NonFiniteDataError (exit 4) on a non-finite token."""
    header, tokens = RWMB.load(path)
    if min(header) < 1:
        raise MalformedArtifactError(f"RWMB bank {tuple(header)} is empty")
    bank = MemoryBank(W=header.W, d=header.d, dtype=np.float32)
    bank._tokens, bank._count = tokens, header.count
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
    present, at most T frames can be selected (L >= K_c is validated), and
    p is pool_tokens clamped to the buffer's P, as pooling clamps it. The
    peak transient scores are every head's read scores over the rows of
    one sub-clip, heads*N_R*W*min(F, T).
    """
    T = len(bank)
    W = bank.W
    d = bank.d
    memory_tokens = W * T
    buffer_tokens = buffer.token_count() if buffer is not None else 0
    p = config.pool_tokens
    if buffer:  # pooling clamps p to the P tokens of a buffered frame
        p = min(p, buffer_tokens // len(buffer))
    llm_len = memory_tokens + 1 + p * min(config.Kc, T)
    peak_scores = (config.heads * config.n_read * W
                   * min(config.subclip_frames, T))
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
