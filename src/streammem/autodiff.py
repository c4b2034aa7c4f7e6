"""Minimal reverse-mode tape used to verify the analytic derivatives.

Only the handful of operations needed by the attention / layer-norm /
feed-forward kernels are implemented, on arrays with any number of leading
batch axes. The tensor and perceiver functions have a single forward
implementation that runs on plain ndarrays in production and on Vars here,
so gradient checks compare the reverse pass of that same composition
against central finite differences.
"""

import numpy as np

from .special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Var:
    """A node in the tape: a float64 array plus the VJPs of its parents."""

    __array_ufunc__ = None  # make numpy defer to our reflected operators

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjps = vjps
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_var(other)
        return Var(self.value + other.value, (self, other),
                   (lambda g: _unbroadcast(g, self.shape),
                    lambda g: _unbroadcast(g, other.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = as_var(other)
        return Var(self.value - other.value, (self, other),
                   (lambda g: _unbroadcast(g, self.shape),
                    lambda g: _unbroadcast(-g, other.shape)))

    def __rsub__(self, other):
        return as_var(other).__sub__(self)

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            return Var(self.value * c, (self,), (lambda g: g * c,))
        other = as_var(other)
        return Var(self.value * other.value, (self, other),
                   (lambda g: _unbroadcast(g * other.value, self.shape),
                    lambda g: _unbroadcast(g * self.value, other.shape)))

    __rmul__ = __mul__

    def __neg__(self):
        return Var(-self.value, (self,), (lambda g: -g,))

    def __matmul__(self, other):
        """Batched matmul over the trailing two axes; a 2-D operand
        broadcasts over the other's batch axes and its gradient is summed
        back over them."""
        other = as_var(other)
        return Var(self.value @ other.value, (self, other),
                   (lambda g: _unbroadcast(g @ other.value.swapaxes(-1, -2),
                                           self.shape),
                    lambda g: _unbroadcast(self.value.swapaxes(-1, -2) @ g,
                                           other.shape)))

    def __rmatmul__(self, other):
        return as_var(other).__matmul__(self)

    # -- shape ops ----------------------------------------------------------

    def swapaxes(self, a, b):
        return Var(self.value.swapaxes(a, b), (self,),
                   (lambda g: g.swapaxes(a, b),))

    def __getitem__(self, index):
        """Basic (slice) indexing, e.g. `x[..., a:b]` for a column block."""
        def vjp(g):
            out = np.zeros_like(self.value)
            out[index] = g
            return out

        return Var(self.value[index], (self,), (vjp,))

    def sum(self):
        return Var(self.value.sum(), (self,),
                   (lambda g: np.full_like(self.value, float(g)),))


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def concat_last(parts) -> Var:
    """Concatenate along the last axis."""
    parts = [as_var(p) for p in parts]
    sizes = [p.value.shape[-1] for p in parts]
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    def make_vjp(i):
        return lambda g: g[..., offsets[i]:offsets[i + 1]]

    return Var(np.concatenate([p.value for p in parts], axis=-1),
               tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


def softmax_rows_v(x: Var) -> Var:
    """Softmax over the last axis."""
    x = as_var(x)
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return Var(y, (x,), (vjp,))


def layer_norm_v(x: Var, gain: Var, bias: Var, eps: float) -> Var:
    """Layer norm over the last axis."""
    x, gain, bias = as_var(x), as_var(gain), as_var(bias)
    mu = x.value.mean(axis=-1, keepdims=True)
    var = x.value.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.value - mu) * inv_std
    y = xhat * gain.value + bias.value

    def vjp_x(g):
        gx = g * gain.value
        return inv_std * (gx - gx.mean(axis=-1, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    return Var(y, (x, gain, bias),
               (vjp_x,
                lambda g: _unbroadcast(g * xhat, gain.shape),
                lambda g: _unbroadcast(g, bias.shape)))


def gelu_v(x: Var) -> Var:
    x = as_var(x)
    cdf = 0.5 * (1.0 + erf(x.value * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.value * x.value)

    def vjp(g):
        return g * (cdf + x.value * pdf)

    return Var(x.value * cdf, (x,), (vjp,))


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar `root` into every reachable node."""
    if root.value.shape != ():
        raise ValueError("backward expects a scalar root")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        for parent, vjp in zip(node.parents, node.vjps):
            parent.grad = parent.grad + vjp(node.grad)
