"""Independent reference implementations used as test oracles.

The kernel oracles are deliberately written with plain Python loops and no
shared helpers from the package, so a bug in a production path cannot hide
in its own oracle. The two composition oracles at the end are the
exception: they call the package's 2-D kernels one frame at a time, to pin
the batched perceiver to that composition bit for bit.
"""

import math


def softmax_rows_longdouble(m):
    """Naive softmax evaluated in extended precision, row by row."""
    import numpy as np

    x = np.asarray(m, dtype=np.longdouble)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        shifted = x[i] - x[i].max()
        e = np.exp(shifted)
        out[i] = e / e.sum()
    return out.astype(np.float64)


def layer_norm_two_pass(row, gain, bias, eps):
    """Two-pass mean/variance normalization of a single row."""
    n = len(row)
    mean = sum(row) / n
    var = sum((v - mean) ** 2 for v in row) / n
    inv = 1.0 / math.sqrt(var + eps)
    return [(v - mean) * inv * g + b for v, g, b in zip(row, gain, bias)]


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for t in range(inner):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def attention_loop(q, k, v, w_q, w_k, w_v, w_o, heads):
    """Nested-loop multi-head attention; inputs are lists of lists."""
    d = len(w_q)
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qp = _matmul(q, w_q)
    kp = _matmul(k, w_k)
    vp = _matmul(v, w_v)
    n_q, n_kv = len(q), len(k)
    ctx = [[0.0] * d for _ in range(n_q)]
    for h in range(heads):
        base = h * dh
        for i in range(n_q):
            logits = []
            for j in range(n_kv):
                s = 0.0
                for c in range(dh):
                    s += qp[i][base + c] * kp[j][base + c]
                logits.append(s * scale)
            m = max(logits)
            exps = [math.exp(x - m) for x in logits]
            denom = sum(exps)
            for j in range(n_kv):
                w = exps[j] / denom
                for c in range(dh):
                    ctx[i][base + c] += w * vp[j][base + c]
    return _matmul(ctx, w_o)


def attention_oracle(q, k, v, params):
    """Loop attention from an AttentionParams bundle; returns ndarray."""
    import numpy as np

    out = attention_loop(q.tolist(), k.tolist(), v.tolist(),
                         params.w_q.tolist(), params.w_k.tolist(),
                         params.w_v.tolist(), params.w_o.tolist(),
                         params.heads)
    return np.array(out)


def perceive_subclip_loop(frames, context, instruction_tokens, perceiver):
    """The perceiver as one 2-D attention call per frame (cross-attention)
    and per query index (temporal attention), returning (F, N_Q, d).

    Unlike the loops above this composes the package's own 2-D attention,
    layer_norm and gelu: it pins the batched forward to the frame-by-frame
    composition bit for bit, not the arithmetic of each kernel.
    """
    import numpy as np
    from streammem.tensor import attention, gelu, layer_norm

    if len(instruction_tokens):
        keys = [np.concatenate([f, instruction_tokens], axis=0)
                for f in frames]
    else:
        keys = [np.asarray(f, dtype=np.float64) for f in frames]

    def cross(state, kv, layer):
        normed = layer_norm(state, layer.cross.ln_gain, layer.cross.ln_bias)
        return state + attention(normed, kv, kv, layer.cross)

    def temporal(states, t):
        stacked = np.stack(states)
        out = np.empty_like(stacked)
        for q in range(stacked.shape[1]):
            seq = stacked[:, q, :]
            normed = layer_norm(seq, t.ln_gain, t.ln_bias)
            out[:, q, :] = seq + attention(normed, normed, normed, t)
        return [out[j] for j in range(len(states))]

    def ffn(state, layer):
        normed = layer_norm(state, layer.ffn_ln_gain, layer.ffn_ln_bias)
        return state + (gelu(normed @ layer.w1 + layer.b1) @ layer.w2
                        + layer.b2)

    states = [context.copy() for _ in frames]
    for layer in perceiver.layers:
        states = [cross(s, kv, layer) for s, kv in zip(states, keys)]
        if perceiver.temporal_mode == "per_layer":
            states = temporal(states, layer.temporal)
        states = [ffn(s, layer) for s in states]
    if perceiver.temporal_mode == "final":
        states = temporal(states, perceiver.layers[-1].temporal)
    return np.stack(states)


def process_stream_loop(frames, instruction_tokens, queries, perceiver, F,
                        residual_read=True):
    """Read-perceive-write over a list of frames with one 2-D write
    attention per frame; returns the memory tokens per frame, in order."""
    import numpy as np
    from streammem.tensor import attention

    written = []
    for start in range(0, len(frames), F):
        if written:
            mem = np.concatenate(written, axis=0)
            context = attention(queries.read_queries, mem, mem,
                                queries.read_attention)
            if residual_read:
                context = queries.read_queries + context
        else:
            context = queries.read_queries.copy()
        states = perceive_subclip_loop(frames[start:start + F], context,
                                       instruction_tokens, perceiver)
        for state in states:
            written.append(attention(queries.write_queries, state, state,
                                     queries.write_attention))
    return written


def bank_bytes_loop(bank):
    """RWMB encoding entry by entry: header, then per entry its frame and
    sub-clip index and its W x d tokens as float32."""
    import struct

    import numpy as np

    entries = bank.entries
    parts = [struct.pack("<4sIIII", b"RWMB", 1, len(entries), bank.W,
                         bank.d)]
    for e in entries:
        parts.append(struct.pack("<II", e.frame_index, e.subclip_index))
        parts.append(np.ascontiguousarray(e.tokens, dtype=np.float32).tobytes())
    return b"".join(parts)


def frame_relevance_loop(bank, instruction_mean):
    """Per entry, max over its tokens of the dot product with the mean,
    scaled by 1/sqrt(d); returns (frames, relevance) lists."""
    scale = 1.0 / math.sqrt(bank.d)
    entries = bank.entries
    return ([e.frame_index for e in entries],
            [float((e.tokens @ instruction_mean).max() * scale)
             for e in entries])


def select_top_L_loop(bank, instruction_mean, L, z_repr):
    """Top-L frames by (-relevance, frame) with a sorted() over entries,
    and their candidate vectors built one entry at a time."""
    import numpy as np

    frames, relevance = frame_relevance_loop(bank, instruction_mean)
    order = sorted(range(len(frames)),
                   key=lambda i: (-relevance[i], frames[i]))[:L]
    entries = bank.entries
    if z_repr == "mean":
        vectors = [entries[i].tokens.mean(axis=0) for i in order]
    else:
        vectors = [entries[i].tokens.reshape(-1) for i in order]
    return ([frames[i] for i in order], np.stack(vectors),
            np.array([relevance[i] for i in order]))


def sq_dist_matrix_unblocked(z):
    """The difference-form distance matrix through one (n, n, d)
    temporary."""
    import numpy as np

    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)
