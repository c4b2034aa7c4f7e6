"""Minimal reverse-mode tape used to verify the analytic derivatives.

`Var` records addition, multiplication, batched matmul, slicing, reshape
and swapaxes on arrays with any number of leading batch axes, so the tape
runs `split_heads` and `merge_heads` as they are. Every other kernel
(softmax, layer norm, GELU) has one forward, the ndarray function in
`tensor.py`, marked `differentiable(vjp)` with its vector-Jacobian product
next to it: the decorator is the one place that tells a `Var` from an
ndarray. Gradient checks thus take the reverse pass of the production
forward itself and compare it against central finite differences.
"""

import functools
import inspect

import numpy as np


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

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            return Var(self.value * c, (self,), (lambda g: g * c,))
        other = as_var(other)
        return Var(self.value * other.value, (self, other),
                   (lambda g: _unbroadcast(g * other.value, self.shape),
                    lambda g: _unbroadcast(g * self.value, other.shape)))

    __rmul__ = __mul__

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

    def reshape(self, shape):
        return Var(self.value.reshape(shape), (self,),
                   (lambda g: g.reshape(self.shape),))

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


def differentiable(vjp):
    """Make the ndarray function it decorates a primitive of the tape.

    On ndarrays the wrapper returns the function's own result. With a `Var`
    among the arguments it runs the function on copies of the `Var` values,
    so an in-place kernel never writes into the tape, and returns a `Var`
    whose gradient into argument i is `vjp(g, out, args, i)` summed back to
    that argument's shape. `args` holds every argument by position,
    defaults applied and each `Var` replaced by its value.
    """
    def decorate(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not any(isinstance(a, Var)
                       for a in (*args, *kwargs.values())):
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            taped = [i for i, a in enumerate(bound.args) if isinstance(a, Var)]
            values = [a.value if i in taped else a
                      for i, a in enumerate(bound.args)]
            out = fn(*(a.copy() if i in taped else a
                       for i, a in enumerate(values)))

            def make_vjp(i):
                return lambda g: _unbroadcast(vjp(g, out, values, i),
                                              values[i].shape)

            return Var(out, tuple(bound.args[i] for i in taped),
                       tuple(make_vjp(i) for i in taped))

        return wrapper

    return decorate
