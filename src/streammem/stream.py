"""Frame token streams, instruction encodings, sub-clip partitioning, and
the RWFS on-disk stream format.

A stream's frames are (T, P, d): an array for a synthetic stream, or, for
a stream loaded from an RWFS file, a file-backed `memory.FrameStore` that
holds none of the payload. A sub-clip is the frames between two bounds of
`split_into_subclips`: a view of an array, or one block read from the
file. Synthetic streams stand in for a real visual encoder: frame t is
drawn from a counter-based generator keyed by (seed, t), so a stream's
prefix never depends on its total length. Instruction rows are
hash-seeded unit-norm vectors, one per whitespace-delimited word.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .codec import RWFS
from .errors import NonFiniteDataError
from .memory import FrameStore

_WORD_CACHE = 1024  # (word, d) vectors kept by `_word_vector`


class FrameTokenStream:
    """T frames of P d-wide tokens: a (T, P, d) float32 array for a
    synthetic stream, or the file-backed FrameStore of a loaded one, which
    reads float32 frames from the file as they are asked for. Stage 1
    computes in the frames' dtype.
    """

    def __init__(self, frames: np.ndarray):
        if frames.ndim != 3 or len(frames) < 1:
            raise ValueError("frames must be a T x P x d array, T >= 1")
        self.frames = frames
        self.T, self.P, self.d = frames.shape

    def prefix(self, t: int) -> "FrameTokenStream":
        """The first t frames as a stream of their own, viewing this one's
        array or sharing its file."""
        if not (1 <= t <= self.T):
            raise ValueError("prefix length out of range")
        frames = self.frames
        if isinstance(frames, FrameStore):
            return FrameTokenStream(FrameStore(frames, count=t))
        return FrameTokenStream(frames[:t])


@dataclass
class InstructionEncoding:
    tokens: np.ndarray  # (n_text, d)
    mean: np.ndarray  # (d,)


def split_into_subclips(T: int, F: int):
    """Tile [0, T) into ceil(T/F) ordered ranges; only the last may be short."""
    if T < 1 or F < 1:
        raise ValueError("T and F must be at least 1")
    return [(start, min(start + F, T)) for start in range(0, T, F)]


def _frame_rng(seed: int, t: int) -> np.random.Generator:
    key = np.array([seed % 2**64, t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def synth_stream(seed: int, T: int, P: int, d: int) -> FrameTokenStream:
    """Deterministic synthetic stream; frame t is a pure function of
    (seed, t): float64 normals clipped to [-3, 3] and rounded to float32
    once, the values `save_stream` writes."""
    if T < 1 or P < 1 or d < 1:
        raise ValueError("T, P and d must be at least 1")
    frames = np.empty((T, P, d), dtype=np.float32)
    draw = np.empty((P, d))
    for t in range(T):
        _frame_rng(seed, t).standard_normal(out=draw)
        np.clip(draw, -3.0, 3.0, out=frames[t])
    return FrameTokenStream(frames)


@functools.lru_cache(maxsize=_WORD_CACHE)
def _word_vector(word: str, d: int) -> np.ndarray:
    """The unit-norm row of one word, read-only: the cache hands every
    caller the same array, so a write must not reach the next one."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    v = np.random.Generator(np.random.Philox(key=key)).standard_normal(d)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def encode_instruction(text: str, d: int) -> InstructionEncoding:
    """One unit-norm row per whitespace-delimited word; mean row attached."""
    words = text.split()
    if not words:
        raise ValueError("instruction text is empty")
    tokens = np.stack([_word_vector(w, d) for w in words])
    return InstructionEncoding(tokens=tokens, mean=tokens.mean(axis=0))


def empty_instruction(d: int) -> InstructionEncoding:
    """Zero-row encoding: conditioning disabled, mean defined as zeros."""
    return InstructionEncoding(tokens=np.zeros((0, d)), mean=np.zeros(d))


def save_stream(stream: FrameTokenStream, path) -> None:
    payload = np.asarray(stream.frames, dtype=np.float32)
    if not np.all(np.isfinite(payload)):
        raise NonFiniteDataError("stream contains non-finite values")
    RWFS.save(path, payload, T=stream.T, P=stream.P, d=stream.d)


def load_stream(path) -> FrameTokenStream:
    """Open an RWFS file as a stream whose frames are a file-backed
    FrameStore: the header and the file's exact size are checked and every
    value is checked for finiteness now, a bounded chunk at a time, and
    frames are read from the file again only when asked for."""
    return FrameTokenStream(FrameStore.open(path))
