import numpy as np
import pytest

from streammem.autodiff import Var, backward, concat_last
from streammem.tensor import grad_check, layer_norm, softmax_rows
from streammem.verify import (attention_grad_error, ffn_grad_error,
                              layer_norm_grad_error,
                              perceiver_layer_grad_error)


@pytest.mark.parametrize("seed", range(10))
def test_attention_reverse_pass(seed):
    assert attention_grad_error(seed) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_layer_norm_reverse_pass(seed):
    assert layer_norm_grad_error(seed) < 1e-5


@pytest.mark.parametrize("seed", range(10))
def test_ffn_reverse_pass(seed):
    assert ffn_grad_error(seed) < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_full_perceiver_layer_reverse_pass(seed):
    # the d=8, two-frame instance
    assert perceiver_layer_grad_error(seed, d=8, n_frames=2) < 1e-5


def _value(x):
    return x.value if isinstance(x, Var) else x


def _op_grad_error(op, shapes, seed):
    """grad_check of sum(op(*inputs) * c) for a fixed random c, with theta
    covering every input; op must run on both Vars and ndarrays."""
    rng = np.random.default_rng(seed)
    theta0 = np.concatenate([rng.standard_normal(s).reshape(-1)
                             for s in shapes])

    def split(theta):
        parts, pos = [], 0
        for s in shapes:
            n = int(np.prod(s))
            parts.append(theta[pos:pos + n].reshape(s))
            pos += n
        return parts

    out_shape = np.shape(_value(op(*split(theta0))))
    coeffs = rng.standard_normal(out_shape)

    def f(theta):
        leaves = [Var(a) for a in split(theta)]
        loss = (op(*leaves) * coeffs).sum()
        backward(loss)
        return float(loss.value), np.concatenate(
            [leaf.grad.reshape(-1) for leaf in leaves])

    def value_only(theta):
        return float((_value(op(*split(theta))) * coeffs).sum())

    return grad_check(f, theta0, 1e-5, value_fn=value_only)


VAR_OPS = {
    # a 2-D weight broadcast over a batch, as in the projections
    "batched_matmul_weight": (lambda x, w: x @ w, [(3, 4, 5), (5, 2)]),
    # a 2-D left operand broadcast over a batch, as in the batched write
    "batched_matmul_left": (lambda a, b: a @ b, [(2, 4), (3, 4, 5)]),
    "batched_matmul_both": (lambda a, b: a @ b, [(3, 2, 4), (3, 4, 5)]),
    "swapaxes": (lambda x, w: x.swapaxes(0, 1) @ w, [(2, 3, 4), (4, 2)]),
    "last_axis_slice": (lambda x: x[..., 1:3] * x[..., 2:4], [(2, 3, 5)]),
    "concat_last": (lambda x, y: concat_last([y, x[..., :2], y]),
                    [(2, 3, 4), (2, 3, 1)]),
    "softmax_last": (lambda x: softmax_rows(x), [(2, 3, 4)]),
    "layer_norm_last": (lambda x, g, b: layer_norm(x, g, b),
                        [(2, 3, 4), (4,), (4,)]),
}


@pytest.mark.parametrize("name", sorted(VAR_OPS))
@pytest.mark.parametrize("seed", range(3))
def test_var_op_reverse_pass(name, seed):
    op, shapes = VAR_OPS[name]
    assert _op_grad_error(op, shapes, seed) < 1e-6
