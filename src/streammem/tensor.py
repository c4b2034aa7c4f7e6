"""Dense numeric core: row softmax, layer norm, multi-head attention,
and the finite-difference gradient checker.

Every function works over the last axis, so a stack of matrices with any
leading batch axes goes through one call; heads are one more batch axis,
laid out by `split_heads` and `merge_heads` alone. Each kernel has one
forward, which computes in its input's dtype (`special.float_array`):
float32 in Stage 1, float64 in the gradient checks and the oracles. Its
scalars are Python floats, which numpy casts to the array's dtype, so no
float64 scalar promotes a float32 array. Softmax, layer norm and GELU are
marked `differentiable(vjp)`, with their vector-Jacobian product next to
the forward, so the autodiff tape runs this same forward when gradient
checks pass it tape values; attention is a composition of those kernels
with matmul, reshape and swapaxes, and needs no VJP of its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import differentiable
from .errors import NumericError
from .special import erf, float_array

DEFAULT_EPS = 1e-5


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")


@dataclass
class AttentionParams:
    """Projection weights for one attention block; a sublayer's pre-norm
    lives on its layer. Weights are finite where they enter: seeded
    draws, or a checkpoint the codec checked."""

    heads: int
    dim_model: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        if self.dim_model % self.heads != 0:
            raise ValueError("dim_model must be divisible by heads")


def shift_exp(m: np.ndarray, top: np.ndarray) -> np.ndarray:
    """exp(m - top) in m's own storage: the shifted exponentials of a
    softmax, with `top` the row maxima (or any bound broadcasting to m)."""
    m -= top
    return np.exp(m, out=m)


# The widest rows and the largest blocks `_row_max` copies (see there)
_NARROW = 63
_COPY_BYTES = 1 << 21


def _row_max(m: np.ndarray) -> np.ndarray:
    """Each row's maximum over the last axis, kept as an axis of length 1.

    numpy runs `m.max(axis=-1)` as one short reduce per row. Rows of up to
    _NARROW columns, in a block of up to _COPY_BYTES, are instead copied
    once, contiguously and transposed to (n, rows), and reduced with
    `np.maximum` down the n columns in long vector passes. Measured on a
    2-core Xeon (2 MB of L2 a core) in float32: 2.3x faster on the
    (16, 4, 32, 39) cross-attention scores, 9x on the (32, 4, 16, 16)
    temporal ones and 3x on the read's (4, 32, 32). The reduce wins from
    64 columns (the copy's power-of-two stride also collides in cache
    there): 55x on (4, 5000), 3x on (128, 256). Past 2 MB the copy leaves
    the cache, and the reduce wins from 24 columns. Both give the same
    maxima, NaN included, up to the sign of a zero, which `shift_exp`
    does not see: exp(m - 0) and exp(m - (-0)) are equal for every m.
    """
    n = m.shape[-1]
    if n > _NARROW or m.nbytes > _COPY_BYTES:
        return m.max(axis=-1, keepdims=True)
    top = np.maximum.reduce(m.reshape(-1, n).T.copy(), axis=0)
    return top.reshape(m.shape[:-1] + (1,))


def _softmax_vjp(g, out, args, i):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


@differentiable(_softmax_vjp)
def _softmax_inplace(m: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float array, in its own storage."""
    shift_exp(m, _row_max(m))
    m /= m.sum(axis=-1, keepdims=True)
    return m


@differentiable(_softmax_vjp)
def softmax_rows(m):
    """Row-wise softmax, shift-invariant (max subtracted before exp)."""
    m = float_array(m, copy=True)
    _require_finite(m, "softmax input")
    return _softmax_inplace(m)


def _centred(x, eps):
    """x minus its row mean, and the row standard deviation with eps, in
    x's dtype. A row whose variance is not finite in x's dtype (a float32
    row with |x| above about 1.8e19 squares past its range) is centred and
    measured again in float64 and rounded once; every other row keeps the
    bits of x's dtype."""
    out = x - x.mean(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # such a row is redone below
        std = np.square(out)
    std = std.mean(axis=-1, keepdims=True)
    std += float(eps)
    np.sqrt(std, out=std)
    finite = np.isfinite(std[..., 0])
    if not finite.all():
        wide = ~finite
        rows = x[wide].astype(np.float64)
        rows -= rows.mean(axis=-1, keepdims=True)
        out[wide] = rows
        std[wide] = np.sqrt(np.square(rows).mean(axis=-1, keepdims=True)
                            + float(eps))
    return out, std


def _layer_norm_vjp(g, out, args, i):
    x, gain, _, eps = args
    if i == 2:
        return g
    xhat, std = _centred(x, eps)
    xhat /= std
    if i == 1:
        return g * xhat
    gx = g * gain
    return (gx - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) / std


@differentiable(_layer_norm_vjp)
def layer_norm(x, gain, bias, eps: float = DEFAULT_EPS):
    """Per-row normalization to zero mean / unit variance, then gain and bias."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cols = x.shape[-1]
    if np.shape(gain) != (cols,) and np.shape(gain) != (1, cols):
        raise ValueError("gain length must match column count")
    if np.shape(bias) != np.shape(gain):
        raise ValueError("bias shape must match gain shape")
    x = float_array(x)
    gain = np.asarray(gain)
    # np.var would subtract the mean again; the variance is the mean of
    # the squared centred rows either way, bit for bit
    out, std = _centred(x, eps)
    out /= std
    if out.ndim < gain.ndim:  # a (cols,) row with a (1, cols) gain
        out = out * gain
    else:
        out *= gain
    out += np.asarray(bias)
    return out


def _gelu_vjp(g, out, args, i):
    x = args[0]
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return g * (cdf + x * pdf)


@differentiable(_gelu_vjp)
def gelu(x):
    x = float_array(x)
    out = x / math.sqrt(2.0)
    erf(out, out=out)
    out += 1.0
    out *= 0.5 * x
    return out


def attention(q, k, v, params: AttentionParams):
    """Multi-head scaled dot-product attention with learned projections.

    Shapes: q (..., n_q, d), k and v (..., n_kv, d); returns (..., n_q, d).
    Leading batch axes broadcast, so a 2-D q attends over every element of
    a stacked k/v. Each batch element and head gets the gemms of a 2-D
    one-head call, so the values equal one call per element.
    Raises on an empty key set: callers that attend over growing stores
    must guard the empty case themselves.
    """
    d = params.dim_model
    if q.shape[-1] != d or k.shape[-1] != d or v.shape[-1] != d:
        raise ValueError("q/k/v column count must equal dim_model")
    return attend(q @ params.w_q, k @ params.w_k, v @ params.w_v, params)


def split_heads(x, heads: int):
    """View (..., n, d) rows as (..., heads, n, d/heads), heads in column
    order."""
    x = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return x.swapaxes(-2, -3)


def merge_heads(x):
    """The inverse of `split_heads`: (..., heads, n, dh) to (..., n, d)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def head_scale(params: AttentionParams) -> float:
    """The logit scale 1/sqrt(d/heads), a Python float."""
    return 1.0 / math.sqrt(params.dim_model // params.heads)


def attend(qp, kp, vp, params: AttentionParams):
    """The attention core on rows already projected through w_q, w_k and
    w_v: per-head softmax of the logits scaled by 1/sqrt(d/heads), the
    weighted values, and the output projection w_o.

    The (..., heads, n_q, n_kv) scores of all heads are scaled and
    normalised in their own storage; a tape value has no in-place multiply,
    so `*=` rebinds it to the same product.
    """
    if kp.shape[-2] != vp.shape[-2]:
        raise ValueError("k and v must have the same row count")
    if kp.shape[-2] == 0:
        raise ValueError("attention over an empty key set")
    h = params.heads
    scores = split_heads(qp, h) @ split_heads(kp, h).swapaxes(-1, -2)
    scores *= head_scale(params)
    weighted = _softmax_inplace(scores) @ split_heads(vp, h)
    return merge_heads(weighted) @ params.w_o


def grad_check(f, theta: np.ndarray, h: float = 1e-5,
               value_fn=None) -> float:
    """Max relative disagreement between an analytic gradient and central
    differences.

    `f(theta)` must return `(scalar_value, gradient_vector)` where the
    gradient comes from the kernel's reverse pass. Per coordinate the error
    is |analytic - central| / max(1, |analytic|). When `value_fn` is given
    it is used for the difference evaluations (e.g. the same forward on
    plain ndarrays, without building a tape).
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError("step h must lie in [1e-6, 1e-4]")
    theta = np.asarray(theta, dtype=np.float64)
    value, grad = f(theta)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericError("non-finite value or gradient at theta")
    if value_fn is None:
        value_fn = lambda t: f(t)[0]
    worst = 0.0
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        fp = value_fn(theta + step)
        fm = value_fn(theta - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite function value during differencing")
        central = (fp - fm) / (2.0 * h)
        err = abs(grad[i] - central) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst


def make_attention_params(rng: np.random.Generator, d: int, heads: int,
                          weight_std: float = 0.02) -> AttentionParams:
    """Seeded init: scaled-normal projections."""
    return AttentionParams(
        heads=heads,
        dim_model=d,
        w_q=rng.standard_normal((d, d)) * weight_std,
        w_k=rng.standard_normal((d, d)) * weight_std,
        w_v=rng.standard_normal((d, d)) * weight_std,
        w_o=rng.standard_normal((d, d)) * weight_std,
    )
