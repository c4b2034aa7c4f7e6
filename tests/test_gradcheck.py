import ast
import re
from pathlib import Path

import numpy as np
import pytest

from streammem import autodiff, perceiver, tensor
from streammem.autodiff import Var
from streammem.tensor import (_softmax_inplace, attention, gelu, layer_norm,
                              make_attention_params, merge_heads,
                              softmax_rows, split_heads)
from streammem.verify import (_grad_error, attention_grad_error,
                              ffn_grad_error, layer_norm_grad_error,
                              perceiver_layer_grad_error)

SRC = Path(__file__).resolve().parent.parent / "src" / "streammem"


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


def _op_grad_error(op, shapes, seed):
    """grad_check of sum(op(*inputs) * c) for a fixed random c, with theta
    covering every input; op must run on both Vars and ndarrays."""
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal(s) for s in shapes]
    theta0 = np.concatenate([p.reshape(-1) for p in parts])
    coeffs = rng.standard_normal(np.shape(op(*parts)))
    return _grad_error(lambda *xs: (op(*xs) * coeffs).sum(), shapes, theta0,
                       1e-5)


VAR_OPS = {
    # a 2-D weight broadcast over a batch, as in the projections
    "batched_matmul_weight": (lambda x, w: x @ w, [(3, 4, 5), (5, 2)]),
    # a 2-D left operand broadcast over a batch, as in the batched write
    "batched_matmul_left": (lambda a, b: a @ b, [(2, 4), (3, 4, 5)]),
    "batched_matmul_both": (lambda a, b: a @ b, [(3, 2, 4), (3, 4, 5)]),
    "swapaxes": (lambda x, w: x.swapaxes(0, 1) @ w, [(2, 3, 4), (4, 2)]),
    "last_axis_slice": (lambda x: x[..., 1:3] * x[..., 2:4], [(2, 3, 5)]),
    # rows cut into 3 heads, each head's rows mixed by a per-head weight
    "split_heads": (lambda x, w: split_heads(x, 3) @ w,
                    [(2, 4, 6), (3, 2, 2)]),
    "merge_heads": (lambda x, w: merge_heads(x) @ w, [(2, 3, 4, 2), (6, 5)]),
    "softmax_last": (lambda x: softmax_rows(x), [(2, 3, 4)]),
    "layer_norm_last": (lambda x, g, b: layer_norm(x, g, b),
                        [(2, 3, 4), (4,), (4,)]),
    # a (1, cols) gain and bias over one (cols,) row
    "layer_norm_row_gain": (lambda x, g, b: layer_norm(x, g, b),
                            [(4,), (1, 4), (1, 4)]),
    "gelu_last": (lambda x: gelu(x), [(2, 3, 4)]),
}


@pytest.mark.parametrize("name", sorted(VAR_OPS))
@pytest.mark.parametrize("seed", range(3))
def test_var_op_reverse_pass(name, seed):
    op, shapes = VAR_OPS[name]
    assert _op_grad_error(op, shapes, seed) < 1e-6


# -- the taped forward is the production forward -----------------------------

def _attention_params(seed):
    return make_attention_params(np.random.default_rng(seed), 8, 2,
                                 weight_std=0.5)


# every op above, and attention with tape values for q, k and v
TAPED_KERNELS = dict(VAR_OPS, attention=(
    lambda q, k, v: attention(q, k, v, _attention_params(0)),
    [(2, 3, 8), (2, 5, 8), (2, 5, 8)]))


@pytest.mark.parametrize("name", sorted(TAPED_KERNELS))
def test_var_kernel_matches_ndarray_forward(name):
    op, shapes = TAPED_KERNELS[name]
    rng = np.random.default_rng(5)
    parts = [rng.standard_normal(s) for s in shapes]
    plain = op(*parts)
    taped = op(*[Var(p) for p in parts])
    assert isinstance(taped, Var)
    assert np.array_equal(plain, taped.value)


# -- the differentiable decorator ---------------------------------------------

def test_inplace_kernel_leaves_the_tape_value_unchanged():
    m = np.random.default_rng(6).standard_normal((3, 4))
    x = Var(m.copy())
    y = _softmax_inplace(x)
    assert np.array_equal(x.value, m)
    assert np.array_equal(y.value, softmax_rows(m))


def test_ndarray_call_returns_the_kernels_own_result():
    m = np.random.default_rng(7).standard_normal((3, 4))
    assert _softmax_inplace(m) is m


def test_float32_operands_promote_exactly():
    rng = np.random.default_rng(8)
    params = _attention_params(1)
    q, k, v = (rng.standard_normal(s).astype(np.float32)
               for s in [(3, 8), (5, 8), (5, 8)])
    out = attention(q, k, v, params)
    assert out.dtype == np.float64
    assert np.array_equal(out, attention(q.astype(np.float64),
                                         k.astype(np.float64),
                                         v.astype(np.float64), params))


def test_no_mirrored_forward_is_left():
    gone = {"_any_var", "_float64", "_concat_last", "_add_into",
            "softmax_rows_v", "layer_norm_v", "gelu_v", "head_slices",
            "concat_last", "_concat_vjp"}
    for module in (autodiff, perceiver, tensor):
        assert not gone & set(vars(module))


@pytest.mark.parametrize("module", ["tensor.py", "perceiver.py"])
def test_tape_dispatch_stays_in_autodiff(module):
    """The production kernels name no tape type; the only thing they take
    from autodiff is the decorator."""
    source = (SRC / module).read_text(encoding="utf-8")
    assert not re.search(r"\bVar\b", source)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[-1] == "autodiff":
            assert names == ["differentiable"]
        else:
            assert not any(n.split(".")[-1] == "autodiff" for n in names)
