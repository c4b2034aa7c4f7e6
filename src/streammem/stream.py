"""Per-frame token streams, instruction encodings, sub-clip partitioning,
and the RWFS on-disk stream format.

Streams stand in for a real visual encoder: values are drawn from a
counter-based generator keyed by (seed, frame index), so a stream's prefix
never depends on its total length. Instruction rows are hash-seeded
unit-norm vectors, one per whitespace-delimited word.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .codec import Format
from .errors import MalformedArtifactError, NonFiniteDataError

RWFS = Format(b"RWFS", 1, ("T", "P", "d"), lambda h: ("<f4", tuple(h)))


@dataclass
class FrameTokenStream:
    T: int
    P: int
    d: int
    # T matrices of shape (P, d). Synthetic streams hold float64 arrays; a
    # loaded stream holds read-only float32 views of the file's bytes, not
    # float64 copies, and consumers convert where they compute.
    frames: list

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("stream must contain at least one frame")
        if len(self.frames) != self.T:
            raise ValueError("frame list length must equal T")
        for f in self.frames:
            if f.shape != (self.P, self.d):
                raise ValueError("every frame must be P x d")

    def prefix(self, t: int) -> "FrameTokenStream":
        """The first t frames as a stream of their own."""
        if not (1 <= t <= self.T):
            raise ValueError("prefix length out of range")
        return FrameTokenStream(t, self.P, self.d, self.frames[:t])


@dataclass
class SubClip:
    index: int
    start: int
    end: int  # exclusive
    frames: list = field(default_factory=list)

    def __len__(self):
        return self.end - self.start


@dataclass
class InstructionEncoding:
    tokens: np.ndarray  # (n_text, d)
    mean: np.ndarray  # (d,)


def split_into_subclips(T: int, F: int):
    """Tile [0, T) into ceil(T/F) ordered ranges; only the last may be short."""
    if T < 1 or F < 1:
        raise ValueError("T and F must be at least 1")
    return [(start, min(start + F, T)) for start in range(0, T, F)]


def iter_subclips(stream: FrameTokenStream, F: int):
    return [SubClip(i, a, b, stream.frames[a:b])
            for i, (a, b) in enumerate(split_into_subclips(stream.T, F))]


def _frame_rng(seed: int, t: int) -> np.random.Generator:
    key = np.array([seed % 2**64, t], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def synth_stream(seed: int, T: int, P: int, d: int) -> FrameTokenStream:
    """Deterministic synthetic stream; frame t is a pure function of
    (seed, t), values clipped to [-3, 3]."""
    if T < 1 or P < 1 or d < 1:
        raise ValueError("T, P and d must be at least 1")
    frames = [np.clip(_frame_rng(seed, t).standard_normal((P, d)), -3.0, 3.0)
              for t in range(T)]
    return FrameTokenStream(T, P, d, frames)


def _word_vector(word: str, d: int) -> np.ndarray:
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    v = np.random.Generator(np.random.Philox(key=key)).standard_normal(d)
    return v / np.linalg.norm(v)


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
    payload = np.stack(stream.frames).astype(np.float32)
    if not np.all(np.isfinite(payload)):
        raise NonFiniteDataError("stream contains non-finite values")
    RWFS.save(path, payload, T=stream.T, P=stream.P, d=stream.d)


def load_stream(path) -> FrameTokenStream:
    """Read an RWFS file; its frames are read-only float32 views of one
    payload array over the file's bytes."""
    header, values = RWFS.load(path)
    if header.T < 1:
        raise MalformedArtifactError("RWFS stream holds no frames")
    return FrameTokenStream(*header, list(values))
