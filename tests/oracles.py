"""Independent reference implementations used as test oracles.

The kernel oracles are deliberately written with plain Python loops and no
shared helpers from the package, so a bug in a production path cannot hide
in its own oracle. The composition oracles `perceive_subclip_loop`,
`process_stream_loop`, `read_context_loop` and `read_context_uncached` are
the exception: they call the package's 2-D kernels, or the same numpy
steps, one frame, one head or one read at a time, to pin the batched
perceiver and the streaming memory read to that composition bit for bit.
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
        keys = [np.concatenate([f, instruction_tokens], axis=0, dtype=f.dtype)
                for f in frames]
    else:
        keys = list(frames)

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
    attention per frame and every read through `read_context_loop`;
    returns the memory tokens per frame, in order."""
    import numpy as np
    from streammem.tensor import attention

    written, reads = [], []
    for start in range(0, len(frames), F):
        if written:
            mem = np.concatenate(written, axis=0)
            reads.append(len(mem))
            context = read_context_loop(mem, queries, reads, residual_read)
        else:
            context = queries.read_queries.copy()
        states = perceive_subclip_loop(frames[start:start + F], context,
                                       instruction_tokens, perceiver)
        for state in states:
            written.append(attention(queries.write_queries, state, state,
                                     queries.write_attention))
    return written


def read_context_loop(mem, queries, reads, residual=True):
    """The streaming memory read, replayed from scratch: the online softmax
    of the read queries over the rows of `mem`, folded in the chunks that
    end at each row count of `reads` (ascending, the last one len(mem)),
    one head at a time, with a fresh array per step.

    Each chunk runs the same row products and the same elementwise steps
    as the bank's read state, so the two agree bit for bit; only the
    state's bookkeeping differs. As there, the scores and maxima are in
    the projected queries' dtype, the running sums in float64, and the
    context is rounded back to that dtype.
    """
    import numpy as np

    params = queries.read_attention
    dh = params.dim_model // params.heads
    scale = 1.0 / math.sqrt(dh)
    qp = queries.read_queries @ params.w_q
    heads_out = []
    for h in range(params.heads):
        sl = slice(h * dh, (h + 1) * dh)
        top = np.full((len(qp), 1), -np.inf, dtype=qp.dtype)
        den = np.zeros((len(qp), 1))
        num = np.zeros((len(qp), dh))
        for a, b in zip([0] + list(reads[:-1]), reads):
            k = mem[a:b] @ params.w_k
            v = mem[a:b] @ params.w_v
            scores = (qp[:, sl] @ k[:, sl].T) * scale
            new_top = np.maximum(top, scores.max(axis=1, keepdims=True))
            e = np.exp(scores - new_top)
            rescale = np.exp(top - new_top)
            den = den * rescale + e.sum(axis=1, keepdims=True)
            num = num * rescale + e @ v[:, sl]
            top = new_top
        heads_out.append(num / den)
    out = np.concatenate(heads_out, axis=1).astype(qp.dtype) @ params.w_o
    return queries.read_queries + out if residual else out


def read_context_uncached(bank, queries, residual=True):
    """The memory read as one `attention` call over all memory rows: the
    two-pass softmax, normalised before the weighted sum. The streaming
    read agrees with it up to rounding, not bit for bit."""
    from streammem.tensor import attention

    mem = bank.all_tokens()
    out = attention(queries.read_queries, mem, mem, queries.read_attention)
    return queries.read_queries + out if residual else out


def bank_bytes_loop(bank):
    """RWMB encoding frame by frame: the version 2 header, then per frame
    its W x d tokens as float32."""
    import struct

    import numpy as np

    parts = [struct.pack("<4sIIII", b"RWMB", 2, len(bank), bank.W, bank.d)]
    for tokens in bank.tokens:
        parts.append(np.ascontiguousarray(tokens, dtype=np.float32).tobytes())
    return b"".join(parts)


def bank_bytes_v1(bank, F):
    """The version 1 RWMB encoding of `bank` as Stage 1 with F-frame
    sub-clips wrote it: the header, then per frame its index, its sub-clip
    index and its W x d tokens as float32."""
    import struct

    import numpy as np

    parts = [struct.pack("<4sIIII", b"RWMB", 1, len(bank), bank.W, bank.d)]
    for frame, tokens in enumerate(bank.tokens):
        parts.append(struct.pack("<II", frame, frame // F))
        parts.append(np.ascontiguousarray(tokens, dtype=np.float32).tobytes())
    return b"".join(parts)


def frame_relevance_loop(bank, instruction_mean):
    """Per frame, max over its W tokens' dot products with the mean,
    scaled by 1/sqrt(d); returns (frames, relevance) lists of numpy
    scalars in the bank's dtype. The dot products are one flattened
    (T*W, d) gemv with the mean cast to the tokens' dtype, as
    `frame_relevance` takes them; the max and the scale run frame by
    frame."""
    import numpy as np

    tokens = bank.all_tokens()
    dots = tokens @ np.asarray(instruction_mean).astype(tokens.dtype)
    scale = 1.0 / math.sqrt(bank.d)
    frames = bank.frames.tolist()
    W = bank.W
    return frames, [dots[i * W:(i + 1) * W].max() * scale
                    for i in range(len(frames))]


def select_top_L_loop(bank, instruction_mean, L, z_repr):
    """Top-L frames by (-relevance, frame) with a sorted() over frames,
    and their candidate vectors built one frame at a time."""
    import numpy as np

    frames, relevance = frame_relevance_loop(bank, instruction_mean)
    order = sorted(range(len(frames)),
                   key=lambda i: (-relevance[i], frames[i]))[:L]
    rows = list(bank.tokens)
    if z_repr == "mean":
        vectors = [rows[i].mean(axis=0) for i in order]
    else:
        vectors = [rows[i].reshape(-1) for i in order]
    return ([frames[i] for i in order], np.stack(vectors),
            np.array([relevance[i] for i in order]))


def select_top_L_full_sort(relevance, L, bank, z_repr):
    """Top-L frames by one lexsort of the whole bank on (-relevance, frame),
    NaN last; returns (frames, vectors, relevance) of the first L."""
    import numpy as np

    chosen = np.lexsort((bank.frames, -relevance))[:L]
    tokens = bank.tokens[chosen]
    if z_repr == "mean":
        vectors = tokens.mean(axis=1)
    else:
        vectors = tokens.reshape(len(tokens), -1)
    return bank.frames[chosen].tolist(), vectors, relevance[chosen]


def sq_dist_matrix_unblocked(z):
    """The difference-form distance matrix through one (n, n, d)
    temporary."""
    import numpy as np

    diff = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def llm_input_rows_float64(seq):
    """The three sections of an LLM input stacked in float64, before any
    cast to the RWLI payload."""
    import numpy as np

    return np.concatenate([seq.memory_tokens, seq.separator[None, :],
                           seq.selected_tokens], axis=0)


def format_selection_report_indexed(result):
    """The selection report with each score read as a numpy scalar, one
    index at a time, and formatted through an f-string."""
    lines = [
        f"# selection strategy={result.strategy}",
        "# centers: " + " ".join(str(c) for c in result.centers),
        "# fields: frame_index relevance sigma rho weighted chosen",
    ]
    chosen = set(result.diagnostics.centers)
    cand = result.candidates
    for i, frame in enumerate(cand.frames):
        sigma = result.diagnostics.sigma[i]
        rho = result.diagnostics.rho[i]
        weighted = result.diagnostics.weighted[i]
        lines.append(f"{frame} {cand.relevance[i]:.17g} {sigma:.17g} "
                     f"{rho:.17g} {weighted:.17g} {int(frame in chosen)}")
    return "\n".join(lines) + "\n"


def pool_tokens_loop(raw, p):
    """Mean-pool rows into p contiguous groups, larger groups first, one
    mean per group."""
    import numpy as np

    base, rem = divmod(raw.shape[0], p)
    out = np.empty((p, raw.shape[1]))
    start = 0
    for g in range(p):
        size = base + (1 if g < rem else 0)
        out[g] = raw[start:start + size].mean(axis=0)
        start += size
    return out


def local_density_loop(dists, K):
    """Per candidate, the row without its self entry, sorted, and exp of
    the negative mean of its K smallest values."""
    import numpy as np

    n = len(dists)
    K = min(K, n - 1)
    sigma = np.empty(n)
    for l in range(n):
        row = np.delete(dists[l], l)
        row.sort()
        sigma[l] = math.exp(-row[:K].sum() / K)
    return sigma


def distance_index_loop(dists, sigma):
    """Per candidate, the smallest distance to a strictly denser one, or
    the largest distance when none is denser."""
    import numpy as np

    n = len(dists)
    rho = np.empty(n)
    for l in range(n):
        higher = sigma > sigma[l]
        if higher.any():
            rho[l] = dists[l][higher].min()
        else:
            rho[l] = dists[l].max()
    return rho


def dpc_rank_loop(frames, weighted, K_c):
    """The top min(K_c, n) frames by (-weighted, frame) through sorted()."""
    order = sorted(range(len(frames)), key=lambda i: (-weighted[i], frames[i]))
    return [frames[i] for i in order[:min(K_c, len(frames))]]


def layer_norm_var(x, gain, bias, eps):
    """Layer norm through np.mean and np.var, one fresh array per step."""
    import numpy as np

    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def gelu_out_of_place(x):
    """Exact-erf GELU, one fresh array per step."""
    import numpy as np
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


# Cephes ndtr.c coefficients, copied here so the oracle shares nothing
# with streammem.special
_CEPHES_T = [9.60497373987051638749E0, 9.00260197203842689217E1,
             2.23200534594684319226E3, 7.00332514112805075473E3,
             5.55923013010394962768E4]
_CEPHES_U = [3.35617141647503099647E1, 5.21357949780152679795E2,
             4.59432382970980127987E3, 2.26290000613890934246E4,
             4.92673942608635921086E4]
_CEPHES_P = [2.46196981473530512524E-10, 5.64189564831068821977E-1,
             7.46321056442269912687E0, 4.86371970985681366614E1,
             1.96520832956077098242E2, 5.26445194995477358631E2,
             9.34528527171957607540E2, 1.02755188689515710272E3,
             5.57535335369399327526E2]
_CEPHES_Q = [1.32281951154744992508E1, 8.67072140885989742329E1,
             3.54937778887819891062E2, 9.75708501743205489753E2,
             1.82390916687909736289E3, 2.24633760818710981792E3,
             1.65666309194161350182E3, 5.57535340817727675546E2]
_CEPHES_R = [5.64189583547755073984E-1, 1.27536670759978104416E0,
             5.01905042251180477414E0, 6.16021097993053585195E0,
             7.40974269950448939160E0, 2.97886665372100240670E0]
_CEPHES_S = [2.26052863220117276590E0, 9.39603524938001434673E0,
             1.20489539808096656605E1, 1.70814450747565897222E1,
             9.60896809063285878198E0, 3.36907645100081516050E0]
_CEPHES_MAXLOG = 7.09782712893383996843E2


def _polevl(x, coefs):
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coefs):
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erfc_cephes(a):
    x = -a if a < 0 else a
    if x < 1.0:
        return 1.0 - erf_cephes(a)
    z = -a * a
    if z < -_CEPHES_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _CEPHES_P), _p1evl(x, _CEPHES_Q)
    else:
        p, q = _polevl(x, _CEPHES_R), _p1evl(x, _CEPHES_S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def erf_cephes(x):
    """Cephes ndtr.c's erf for one Python float, line for line."""
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf_cephes(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc_cephes(x)
    z = x * x
    return x * _polevl(z, _CEPHES_T) / _p1evl(z, _CEPHES_U)


def attend_out_of_place(qp, kp, vp, params):
    """The attention core with a fresh array per step: scale, max shift,
    exp and normalisation each allocate their result."""
    import numpy as np

    dh = params.dim_model // params.heads
    scale = 1.0 / np.sqrt(dh)
    heads_out = []
    for h in range(params.heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (qp[..., sl] @ kp[..., sl].swapaxes(-1, -2)) * scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        heads_out.append(e / e.sum(axis=-1, keepdims=True) @ vp[..., sl])
    return np.concatenate(heads_out, axis=-1) @ params.w_o


def cast_model(obj, dtype):
    """A copy of a model (its dataclasses, lists and arrays) with every
    array cast to dtype: the same weights, run in another precision."""
    import dataclasses

    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.astype(dtype)
    if isinstance(obj, list):
        return [cast_model(item, dtype) for item in obj]
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{
            f.name: cast_model(getattr(obj, f.name), dtype)
            for f in dataclasses.fields(obj) if f.init})
    return obj


def spill_manifest_text(frames, frame_bytes):
    """The manifest text `process` writes for a spill, listing `frames` at
    the offsets of their tokens: after the 20-byte RWFS header, frame t
    starts t * frame_bytes bytes in."""
    entries = ",".join(f"[{t},{20 + t * frame_bytes}]" for t in frames)
    return '{"format":"RWFS-spill","frames":[%s],"version":2}\n' % entries
