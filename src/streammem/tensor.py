"""Dense numeric core: row softmax, layer norm, multi-head attention,
and the finite-difference gradient checker.

Every function works over the last axis, so a stack of matrices with any
leading batch axes goes through one call. Inputs are float64 ndarrays in
production or autodiff Vars for derivative verification; softmax, layer
norm and GELU dispatch to the tape's op for a Var, and attention is one
composition of matmul, slicing and concatenation that runs on either.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import autodiff
from .autodiff import Var
from .errors import NumericError

DEFAULT_EPS = 1e-5


def _any_var(*xs) -> bool:
    return any(isinstance(x, Var) for x in xs)


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")


@dataclass
class AttentionParams:
    """Projection weights for one attention block.

    ln_gain/ln_bias are the pre-norm parameters of the sublayer this block
    lives in; attention() itself does not apply them.
    """

    heads: int
    dim_model: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray

    def __post_init__(self):
        if self.dim_model % self.heads != 0:
            raise ValueError("dim_model must be divisible by heads")

    def validate_finite(self) -> None:
        for name in ("w_q", "w_k", "w_v", "w_o", "ln_gain", "ln_bias"):
            w = getattr(self, name)
            if isinstance(w, np.ndarray):
                _require_finite(w, f"attention weight {name}")


def _softmax_last(m):
    if isinstance(m, Var):
        return autodiff.softmax_rows_v(m)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(m):
    """Row-wise softmax, shift-invariant (max subtracted before exp)."""
    if not isinstance(m, Var):
        m = np.asarray(m, dtype=np.float64)
        _require_finite(m, "softmax input")
    return _softmax_last(m)


def layer_norm(x, gain, bias, eps: float = DEFAULT_EPS):
    """Per-row normalization to zero mean / unit variance, then gain and bias."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cols = x.shape[-1]
    if np.shape(gain) != (cols,) and np.shape(gain) != (1, cols):
        raise ValueError("gain length must match column count")
    if np.shape(bias) != np.shape(gain):
        raise ValueError("bias shape must match gain shape")
    if _any_var(x, gain, bias):
        return autodiff.layer_norm_v(x, gain, bias, eps)
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * np.asarray(gain) + np.asarray(bias)


def gelu(x):
    if isinstance(x, Var):
        return autodiff.gelu_v(x)
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _float64(x):
    return x if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _concat_last(parts):
    if _any_var(*parts):
        return autodiff.concat_last(parts)
    return np.concatenate(parts, axis=-1)


def attention(q, k, v, params: AttentionParams):
    """Multi-head scaled dot-product attention with learned projections.

    Shapes: q (..., n_q, d), k and v (..., n_kv, d); returns (..., n_q, d).
    Leading batch axes broadcast, so a 2-D q attends over every element of
    a stacked k/v. Each batch element goes through the same per-head gemms
    as a 2-D call, so the values are identical to one call per element.
    Raises on an empty key set: callers that attend over growing stores
    must guard the empty case themselves.
    """
    d = params.dim_model
    if q.shape[-1] != d or k.shape[-1] != d or v.shape[-1] != d:
        raise ValueError("q/k/v column count must equal dim_model")
    return attend(_float64(q) @ params.w_q, _float64(k) @ params.w_k,
                  _float64(v) @ params.w_v, params)


def attend(qp, kp, vp, params: AttentionParams):
    """The attention core on rows already projected through w_q, w_k and
    w_v: per-head softmax of the logits scaled by 1/sqrt(d/heads), the
    weighted values, and the output projection w_o."""
    if kp.shape[-2] != vp.shape[-2]:
        raise ValueError("k and v must have the same row count")
    if kp.shape[-2] == 0:
        raise ValueError("attention over an empty key set")
    params.validate_finite()

    dh = params.dim_model // params.heads
    scale = 1.0 / np.sqrt(dh)
    heads_out = []
    for h in range(params.heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (qp[..., sl] @ kp[..., sl].swapaxes(-1, -2)) * scale
        heads_out.append(_softmax_last(scores) @ vp[..., sl])
    return _concat_last(heads_out) @ params.w_o


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
    """Seeded init: scaled-normal projections, identity layer norm."""
    return AttentionParams(
        heads=heads,
        dim_model=d,
        w_q=rng.standard_normal((d, d)) * weight_std,
        w_k=rng.standard_normal((d, d)) * weight_std,
        w_v=rng.standard_normal((d, d)) * weight_std,
        w_o=rng.standard_normal((d, d)) * weight_std,
        ln_gain=np.ones(d),
        ln_bias=np.zeros(d),
    )
