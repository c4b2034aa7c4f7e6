"""Self-verification suites: gradient checks of every differentiable kernel,
a brute-force clustering oracle, and memory-growth linearity.

The brute-force routines here are intentionally independent of the
production implementations (plain Python loops, no shared helpers) so the
two routes can disagree when one of them is wrong.
"""

import math

import numpy as np

from .autodiff import Var, backward
from .dfs import CandidateSet, dpc_knn_select
from .memory import MemoryBank, QueryBank, append, write_frame
from .perceiver import (PerceiverLayerParams, cross_sublayer, ffn_sublayer,
                        temporal_sublayer)
from .tensor import (AttentionParams, attention, gelu, grad_check, layer_norm,
                     make_attention_params)


# -- parameter-vector packing ------------------------------------------------

def _pack(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays])


def _unpack(theta, shapes):
    out = []
    pos = 0
    for shape in shapes:
        count = int(np.prod(shape))
        out.append(theta[pos:pos + count].reshape(shape))
        pos += count
    return out


def _grad_error(loss, shapes, theta0, h):
    """grad_check of the scalar `loss(*arrays)`, theta packing one array per
    shape: the reverse pass runs `loss` on autodiff leaves, the differences
    run it on plain ndarrays."""
    def f(theta):
        leaves = [Var(a) for a in _unpack(theta, shapes)]
        root = loss(*leaves)
        backward(root)
        return float(root.value), _pack([leaf.grad for leaf in leaves])

    def value(theta):
        return float(loss(*_unpack(theta, shapes)))

    return grad_check(f, theta0, h, value_fn=value)


# -- gradient-check instances -------------------------------------------------

def attention_grad_error(seed: int, d: int = 8, heads: int = 2, n_q: int = 3,
                         n_kv: int = 4, h: float = 1e-5) -> float:
    """Reverse pass of the attention kernel vs central differences; theta
    covers q, k, v and all four projections."""
    rng = np.random.default_rng(seed)
    shapes = [(n_q, d), (n_kv, d), (n_kv, d), (d, d), (d, d), (d, d), (d, d)]
    theta0 = _pack([rng.standard_normal(s) for s in shapes])

    def loss(q, k, v, wq, wk, wv, wo):
        params = AttentionParams(heads=heads, dim_model=d, w_q=wq, w_k=wk,
                                 w_v=wv, w_o=wo,
                                 ln_gain=np.ones(d), ln_bias=np.zeros(d))
        return attention(q, k, v, params).sum()

    return _grad_error(loss, shapes, theta0, h)


def layer_norm_grad_error(seed: int, n: int = 3, d: int = 8,
                          h: float = 1e-5) -> float:
    rng = np.random.default_rng(seed)
    shapes = [(n, d), (d,), (d,)]
    theta0 = _pack([rng.standard_normal(s) for s in shapes])

    coeffs = np.arange(1.0, n * d + 1.0).reshape(n, d)
    return _grad_error(
        lambda x, gain, bias: (layer_norm(x, gain, bias, eps=1e-5)
                               * coeffs).sum(),
        shapes, theta0, h)


def ffn_grad_error(seed: int, n: int = 3, d: int = 8,
                   h: float = 1e-5) -> float:
    rng = np.random.default_rng(seed)
    hidden = 4 * d
    shapes = [(n, d), (d, hidden), (hidden,), (hidden, d), (d,)]
    theta0 = _pack([rng.standard_normal(s) * 0.5 for s in shapes])
    return _grad_error(
        lambda x, w1, b1, w2, b2: (x + (gelu(x @ w1 + b1) @ w2 + b2)).sum(),
        shapes, theta0, h)


def perceiver_layer_grad_error(seed: int, d: int = 8, heads: int = 2,
                               n_q: int = 2, n_frames: int = 2, n_keys: int = 3,
                               h: float = 1e-5) -> float:
    """One full perceiver layer (cross + temporal + FFN sublayers) with the
    loss over all per-frame outputs; theta covers the layer parameters.
    Both passes run the production batched sublayers: on autodiff leaves
    for the reverse pass, on ndarrays for the differences."""
    rng = np.random.default_rng(seed)
    hidden = 4 * d
    attn_shapes = [(d, d)] * 4 + [(d,), (d,)]
    shapes = attn_shapes + attn_shapes + [(d, hidden), (hidden,),
                                          (hidden, d), (d,), (d,), (d,)]
    theta0 = _pack([rng.standard_normal(s) * 0.5 for s in shapes])
    context = rng.standard_normal((n_q, d))
    keys = rng.standard_normal((n_frames, n_keys, d))

    def loss(cwq, cwk, cwv, cwo, cg, cb, twq, twk, twv, two, tg, tb,
             w1, b1, w2, b2, fg, fb):
        layer = PerceiverLayerParams(
            cross=AttentionParams(heads, d, cwq, cwk, cwv, cwo, cg, cb),
            temporal=AttentionParams(heads, d, twq, twk, twv, two, tg, tb),
            w1=w1, b1=b1, w2=w2, b2=b2, ffn_ln_gain=fg, ffn_ln_bias=fb)
        states = cross_sublayer(context, keys, layer)
        states = temporal_sublayer(states, layer.temporal)
        return ffn_sublayer(states, layer).sum()

    return _grad_error(loss, shapes, theta0, h)


GRAD_KERNELS = [
    ("attention", attention_grad_error),
    ("layer_norm", layer_norm_grad_error),
    ("ffn", ffn_grad_error),
    # d=4 keeps the 100-seed sweep fast; the d=8 instance is covered once
    # in the test suite.
    ("perceiver_layer", lambda seed: perceiver_layer_grad_error(seed, d=4)),
]


def run_grads_suite(n_seeds: int = 100, threshold: float = 1e-5):
    """Per kernel, the worst gradient-check error over n_seeds instances."""
    results = []
    for name, fn in GRAD_KERNELS:
        worst = max(fn(seed) for seed in range(n_seeds))
        results.append((name, worst, worst < threshold))
    return results


# -- brute-force clustering oracle --------------------------------------------

def dpc_bruteforce(frames, vectors, K: int, K_c: int):
    """Independent re-derivation of the clustering: exhaustive distance
    matrix, per-point neighbor scan, stable sort. Returns
    (sigma, rho, centers)."""
    n = len(frames)
    if n == 1:
        return [1.0], [0.0], list(frames)
    dists = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0.0
            for a, b in zip(vectors[i], vectors[j]):
                s += (a - b) * (a - b)
            dists[i][j] = s
    k_eff = min(K, n - 1)
    sigma = []
    for i in range(n):
        others = sorted(dists[i][j] for j in range(n) if j != i)
        sigma.append(math.exp(-sum(others[:k_eff]) / k_eff))
    rho = []
    for i in range(n):
        higher = [dists[i][j] for j in range(n) if sigma[j] > sigma[i]]
        rho.append(min(higher) if higher else max(dists[i]))
    ranked = sorted(range(n), key=lambda i: (-(sigma[i] * rho[i]), frames[i]))
    centers = [frames[i] for i in ranked[:min(K_c, n)]]
    return sigma, rho, centers


def random_cluster_instance(seed: int):
    """A random candidate set, with engineered ties on some seeds:
    duplicated points (equal densities) every third seed, an all-identical
    set every fifty-seventh."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    d = int(rng.integers(1, 17))
    vectors = rng.standard_normal((n, d))
    if seed % 3 == 0 and n >= 4:
        vectors[1] = vectors[0]
        vectors[3] = vectors[2]
    if seed % 57 == 0:
        vectors = np.tile(vectors[0], (n, 1))
    frames = list(rng.permutation(n * 2)[:n])
    frames = [int(f) for f in frames]
    K = int(rng.integers(1, 9))
    K_c = int(rng.integers(1, 9))
    return frames, vectors, K, K_c


def run_oracle_suite(n_instances: int = 500):
    """Compare dpc_knn_select against the brute-force oracle; exact center
    agreement required."""
    mismatches = 0
    for seed in range(n_instances):
        frames, vectors, K, K_c = random_cluster_instance(seed)
        cand = CandidateSet(frames=frames, vectors=vectors,
                            relevance=np.zeros(len(frames)), L=len(frames))
        diag = dpc_knn_select(cand, K, K_c)
        _, _, expected = dpc_bruteforce(frames, [list(v) for v in vectors],
                                        K, K_c)
        if diag.centers != expected:
            mismatches += 1
    return n_instances - mismatches, n_instances


# -- linearity ---------------------------------------------------------------

def run_linearity_suite(frame_counts=(16, 64, 256), W: int = 2, d: int = 8):
    """Memory token count must equal W*T exactly after writing T frames."""
    rng = np.random.default_rng(0)
    queries = QueryBank(
        read_queries=rng.standard_normal((4, d)),
        write_queries=rng.standard_normal((W, d)),
        read_attention=make_attention_params(rng, d, 2),
        write_attention=make_attention_params(rng, d, 2),
    )
    results = []
    for T in frame_counts:
        bank = MemoryBank(W=W, d=d)
        for _ in range(T):
            perceived = rng.standard_normal((1, 4, d))
            append(bank, write_frame(perceived, queries))
        results.append((T, bank.token_count(), bank.token_count() == W * T))
    return results


def self_check(suite: str):
    """Run one verification suite; returns (all_passed, report lines)."""
    lines = []
    ok = True
    if suite == "grads":
        for name, err, passed in run_grads_suite():
            ok &= passed
            lines.append(f"grads {name}: max_rel_err={err:.3e} "
                         f"{'PASS' if passed else 'FAIL'}")
    elif suite == "oracle":
        matched, total = run_oracle_suite()
        ok = matched == total
        lines.append(f"oracle clustering: {matched}/{total} instances match "
                     f"{'PASS' if ok else 'FAIL'}")
    elif suite == "linearity":
        for T, count, passed in run_linearity_suite():
            ok &= passed
            lines.append(f"linearity T={T}: tokens={count} "
                         f"{'PASS' if passed else 'FAIL'}")
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return ok, lines
