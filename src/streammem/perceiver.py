"""Instruction-aware perceiver block and the Stage-1 orchestrator.

Each perceiver layer runs three pre-norm residual sublayers per sub-clip:
per-frame cross-attention from the query states onto the frame tokens with
instruction rows appended as extra keys/values, bidirectional self-attention
across the sub-clip's frames taken independently at each query index, and a
position-wise feed-forward; each takes the layer and reads its pre-norm
from it. In "final" temporal mode the temporal sublayer runs once after the
whole stack (with the last layer's) instead of inside every layer.

A sub-clip is an (F, P, d) block of the stream's frames, and its F frames
are processed together: the state is one stacked (F, N_Q, d) array and
each sublayer is one batched call; the sub-clip's (F, W, d) memory tokens
come from one write-attention call and enter the bank as one block. Stage
1 computes in the dtype of its inputs: float32 for float32 frames and
weights, as every artifact stores them. The sublayers are compositions of
the tensor kernels, matmul and addition with no forward of their own to
differentiate: given autodiff tape values they record this same forward
on the tape, so gradient checks run the production code.
"""

from dataclasses import dataclass

import numpy as np

from .memory import (FrameStore, MemoryBank, QueryBank, append, buffer_store,
                     read_context, write_frame)
from .stream import FrameTokenStream, InstructionEncoding, split_into_subclips
from .tensor import AttentionParams, attention, gelu, layer_norm


@dataclass
class PerceiverLayerParams:  # RWPM's draw order: `_build` fills by position
    cross: AttentionParams
    cross_ln_gain: np.ndarray
    cross_ln_bias: np.ndarray
    temporal: AttentionParams
    temporal_ln_gain: np.ndarray
    temporal_ln_bias: np.ndarray
    w1: np.ndarray  # (d, 4d)
    b1: np.ndarray  # (4d,)
    w2: np.ndarray  # (4d, d)
    b2: np.ndarray  # (d,)
    ffn_ln_gain: np.ndarray
    ffn_ln_bias: np.ndarray


@dataclass
class PerceiverParams:
    layers: list  # of PerceiverLayerParams
    n_queries: int  # N_Q, equal to the read-query count
    d: int
    temporal_mode: str = "per_layer"


def cross_sublayer(state, kv, layer: PerceiverLayerParams):
    """Cross-attention of the (F, N_Q, d) states onto the (F, P+I, d) keys,
    frame by frame. A shared (N_Q, d) state broadcasts over the F frames."""
    normed = layer_norm(state, layer.cross_ln_gain, layer.cross_ln_bias)
    # the residual goes into attention's fresh output, as in `ffn_sublayer`
    out = attention(normed, kv, kv, layer.cross)
    out += state
    return out


def ffn_sublayer(state, layer: PerceiverLayerParams):
    # `+=` adds into the fresh matmul results; on a tape value, which has
    # no in-place add, it rebinds to the same sum
    normed = layer_norm(state, layer.ffn_ln_gain, layer.ffn_ln_bias)
    pre = normed @ layer.w1
    pre += layer.b1
    out = gelu(pre) @ layer.w2
    out += layer.b2
    # state + out and out + state are the same sum
    out += state
    return out


def temporal_sublayer(states, layer: PerceiverLayerParams):
    """Bidirectional self-attention over the frame axis, independently at
    each query index: attention over the (N_Q, F, d) view of the
    (F, N_Q, d) states."""
    seq = states.swapaxes(0, 1)
    normed = layer_norm(seq, layer.temporal_ln_gain, layer.temporal_ln_bias)
    out = attention(normed, normed, normed, layer.temporal)
    out += seq
    return out.swapaxes(0, 1)


def _frame_keys(frames: np.ndarray,
                instruction: InstructionEncoding) -> np.ndarray:
    """The (F, P+I, d) key/value matrices of the (F, P, d) frames, in
    their dtype: their raw tokens with the instruction rows appended to
    every frame."""
    if instruction.tokens.shape[0] == 0:
        return frames
    rows = np.broadcast_to(instruction.tokens,
                           (len(frames),) + instruction.tokens.shape)
    return np.concatenate([frames, rows], axis=1, dtype=frames.dtype)


def perceive_subclip(frames: np.ndarray, context,
                     instruction: InstructionEncoding,
                     params: PerceiverParams) -> np.ndarray:
    """Refine one sub-clip's (F, P, d) frames into their stacked
    (F, N_Q, d) query states, one N_Q x d matrix per frame.

    Every frame starts from the same read context; instruction rows are
    appended to the keys/values of every layer's cross-attention.
    """
    if len(frames) < 1:
        raise ValueError("sub-clip is empty")
    if context.shape != (params.n_queries, params.d):
        raise ValueError("context must be N_Q x d")
    keys = _frame_keys(frames, instruction)
    # the (N_Q, d) context broadcasts against the (F, P+I, d) keys, so the
    # first cross-attention yields the stacked (F, N_Q, d) state
    states = context
    for layer in params.layers:
        states = cross_sublayer(states, keys, layer)
        if params.temporal_mode == "per_layer":
            states = temporal_sublayer(states, layer)
        states = ffn_sublayer(states, layer)
    if params.temporal_mode == "final":
        states = temporal_sublayer(states, params.layers[-1])
    return states


def process_stream(stream: FrameTokenStream, instruction: InstructionEncoding,
                   queries: QueryBank, params: PerceiverParams, F: int,
                   residual_read: bool = True, on_subclip=None):
    """Run the full read-perceive-write cycle over a stream.

    Sub-clips are processed strictly in order, each as
    `stream.frames[start:end]`: a view of an in-memory stream's array, or
    a block read from a loaded stream's file, so a loaded stream is held
    one sub-clip at a time. Per sub-clip the bank is read once, the frames
    perceived and buffered raw, and the (F, W, d) tokens of all of them
    written by one attention call and appended to the bank as one block,
    so bank row t holds frame t. `on_subclip(frames, bank, buffer)` is
    called after each. The bank is sized for the stream's T frames up
    front, in the dtype Stage 1 computes in (the frames' and weights'
    common dtype). The buffer is a FrameStore sharing the stream's array
    or file, so it copies no frame. Returns the populated (bank, buffer).
    """
    W = queries.n_write
    bank = MemoryBank(W=W, d=params.d, capacity=stream.T,
                      dtype=np.result_type(stream.frames.dtype,
                                           queries.write_queries))
    buffer = FrameStore(stream.frames, count=0)
    for start, end in split_into_subclips(stream.T, F):
        frames = stream.frames[start:end]
        context = read_context(bank, queries, residual=residual_read)
        states = perceive_subclip(frames, context, instruction, params)
        buffer_store(buffer, end)
        append(bank, write_frame(states, queries))
        if on_subclip is not None:
            on_subclip(frames, bank, buffer)
    return bank, buffer
