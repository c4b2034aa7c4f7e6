import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammem.errors import NumericError
from streammem.tensor import (AttentionParams, _row_max, _softmax_inplace,
                              attend, attention, gelu, grad_check, layer_norm,
                              make_attention_params, shift_exp, softmax_rows)

from oracles import (attend_out_of_place, attention_oracle,
                     gelu_out_of_place, layer_norm_two_pass, layer_norm_var,
                     softmax_rows_longdouble)


def _params(seed, d=8, heads=2):
    return make_attention_params(np.random.default_rng(seed), d, heads,
                                 weight_std=0.5)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_shift_invariance_avoids_overflow(self):
        out = softmax_rows(np.array([[1e9, 1e9 + 1]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_matches_extended_precision_oracle(self):
        m = np.random.default_rng(3).standard_normal((4, 6)) * 5
        assert np.allclose(softmax_rows(m), softmax_rows_longdouble(m),
                           atol=1e-12, rtol=0)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[np.nan, 0.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_row_stochastic(self, seed):
        m = np.random.default_rng(seed).standard_normal((3, 5)) * 10
        out = softmax_rows(m)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def _softmax_by_reduce(m):
    """The in-place softmax with numpy's per-row max reduce."""
    shift_exp(m, m.max(axis=-1, keepdims=True))
    m /= m.sum(axis=-1, keepdims=True)
    return m


class TestSoftmaxRowMax:
    """Narrow rows take their maximum from a transposed copy; the softmax
    keeps the bits of the per-row reduce at every width."""

    @staticmethod
    def _rows(rng, n, dtype):
        signed_zeros = rng.choice([0.0, -0.0, -1.0], (4, n))
        signed_zeros[:, 0] = (0.0, -0.0, 0.0, -0.0)  # the max is a zero
        minus_inf = rng.standard_normal((3, n))
        minus_inf[0, rng.integers(0, n)] = -np.inf
        minus_inf[1, ::2] = -np.inf
        minus_inf[2] = -np.inf  # no finite entry: NaN either way
        return np.concatenate([
            rng.standard_normal((8, n)) * 3,
            rng.integers(-2, 3, (4, n)),  # ties
            np.full((1, n), 1.5),
            signed_zeros, minus_inf]).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", range(1, 41))
    def test_same_bits_as_the_reduce(self, n, dtype):
        rng = np.random.default_rng(n)
        rows = self._rows(rng, n, dtype)
        bits = np.int32 if dtype == np.float32 else np.int64
        with np.errstate(invalid="ignore"):
            want = _softmax_by_reduce(rows.copy())
            assert np.array_equal(_softmax_inplace(rows.copy()).view(bits),
                                  want.view(bits))
            # non-contiguous: every other column of a wider array, in place
            wide = np.repeat(rows, 2, axis=-1)
            strided = wide[:, ::2]
            assert _softmax_inplace(strided) is strided
            assert np.array_equal(strided.view(bits), want.view(bits))
            # rows along a swapped axis, as the temporal sublayer lays them
            def stack():
                return np.stack([rows, rows[::-1]]).swapaxes(0, 1)

            assert np.array_equal(_softmax_inplace(stack()).view(bits),
                                  _softmax_by_reduce(stack()).view(bits))


class TestRowMax:
    """`_row_max` equals the per-row reduce on both sides of its width and
    block-size limits."""

    @staticmethod
    def _check(m):
        want = m.max(axis=-1, keepdims=True)
        got = _row_max(m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (6, 1), (6, 2), (7, 16), (32, 4, 16, 16), (4, 32, 32),
        (16, 4, 32, 39), (6, 63), (6, 64), (128, 256), (4, 5000),
        (16384, 39),  # narrow rows in a block past the copy's size limit
    ])
    def test_equals_the_reduce(self, shape, dtype):
        rng = np.random.default_rng(len(shape) * shape[-1])
        m = (rng.standard_normal(shape) * 3).astype(dtype)
        n = shape[-1]
        nan, inf = rng.standard_normal((2, n))
        nan[-1] = np.nan
        inf[0] = -np.inf
        special = [nan, np.full(n, -np.inf), inf,
                   rng.choice([0.0, -0.0, -1.0], n), np.full(n, -0.0),
                   np.zeros(n)]
        # the first rows, as many as there are: a view, so the edits reach m
        for row, values in zip(m.reshape(-1, n), special):
            row[...] = values
        self._check(m)
        # every other column of a wider array, and rows along a swapped
        # axis, as the temporal sublayer lays them
        self._check(np.repeat(m, 2, axis=-1)[..., ::2])
        self._check(np.stack([m, m[::-1]]).swapaxes(0, 1))


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = np.full((1, 3), 4.2)
        out = layer_norm(x, np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_zero_gain_yields_bias(self):
        x = np.random.default_rng(0).standard_normal((2, 4))
        bias = np.arange(4.0)
        out = layer_norm(x, np.zeros(4), bias)
        assert np.array_equal(out, np.tile(bias, (2, 1)))

    def test_standardizes_rows(self):
        x = np.random.default_rng(1).standard_normal((5, 16)) * 3 + 2
        out = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-6)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 7))
        gain = rng.standard_normal(7)
        bias = rng.standard_normal(7)
        expected = layer_norm_two_pass(x[0].tolist(), gain.tolist(),
                                       bias.tolist(), 1e-5)
        assert np.allclose(layer_norm(x, gain, bias, 1e-5)[0], expected,
                           atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 3, 4)])
    def test_float32_row_past_the_square_range(self, shape):
        """A float32 row whose squares overflow is normalised within 2 ulp
        of the float64 result, not silently to the bias; every other row
        keeps its float32 bits."""
        rng = np.random.default_rng(53)
        x = rng.standard_normal(shape).astype(np.float32)
        huge = np.zeros(shape[:-1], dtype=bool)
        huge.flat[::2] = True  # rows 0 and 2 of the batched case
        x[huge] = [3e19, -3e19, 1e19, 0.0]
        x[huge] *= np.arange(1, huge.sum() + 1, dtype=np.float32)[:, None]
        gain, bias = np.ones(4, np.float32), np.zeros(4, np.float32)
        out = layer_norm(x, gain, bias)
        assert out.dtype == np.float32
        wide = layer_norm(x.astype(np.float64), gain, bias).astype(np.float32)
        ulps = np.abs(out.view(np.int32).astype(np.int64)
                      - wide.view(np.int32))
        assert np.all(ulps[huge] <= 2), ulps
        assert np.array_equal(out[~huge], layer_norm(x[~huge], gain, bias))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 4)), np.ones(3), np.zeros(3))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((1, 2)), np.ones(2), np.zeros(2), eps=0.0)


class TestElementwiseInPlace:
    """layer_norm and gelu reuse their own temporaries; the values equal
    the out-of-place compositions bit for bit and inputs stay unchanged."""

    SHAPES = [(7,), (3, 7), (16, 32, 64), (2, 3, 4, 8), (1, 64)]

    def test_layer_norm_matches_var_composition(self):
        rng = np.random.default_rng(50)
        for case in range(60):
            shape = self.SHAPES[case % len(self.SHAPES)]
            x = rng.standard_normal(shape) * rng.uniform(0.01, 100.0) \
                + rng.uniform(-50.0, 50.0)
            if case % 3 == 0 and x.ndim == 3:
                x = x.swapaxes(0, 1)  # the temporal sublayer's view
            cols = shape[-1]
            gshape = (1, cols) if case % 4 == 1 and x.ndim > 1 else (cols,)
            gain = rng.standard_normal(gshape)
            bias = rng.standard_normal(gshape)
            eps = (1e-5, 1e-12, 0.5)[case % 3]
            before = x.copy()
            out = layer_norm(x, gain, bias, eps=eps)
            expected = layer_norm_var(x, gain, bias, eps)
            assert out.shape == expected.shape
            assert np.array_equal(out, expected), case
            assert np.array_equal(x, before)

    def test_layer_norm_row_with_row_matrix_gain(self):
        x = np.random.default_rng(51).standard_normal(6)
        gain, bias = np.full((1, 6), 2.0), np.full((1, 6), 0.5)
        out = layer_norm(x, gain, bias)
        assert out.shape == (1, 6)
        assert np.array_equal(out, layer_norm_var(x, gain, bias, 1e-5))

    def test_gelu_matches_composition(self):
        rng = np.random.default_rng(52)
        for scale in (1e-6, 1.0, 8.0, 40.0):
            x = rng.standard_normal((4, 5, 33)) * scale
            before = x.copy()
            assert np.array_equal(gelu(x), gelu_out_of_place(x))
            assert np.array_equal(x, before)


class TestAttention:
    def test_single_key_passes_value_through(self):
        rng = np.random.default_rng(4)
        params = _params(4)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        out = attention(q, k, v, params)
        expected = np.tile((v @ params.w_v) @ params.w_o, (3, 1))
        assert np.allclose(out, expected, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(5)
        params = _params(5)
        q = rng.standard_normal((2, 8))
        k = np.tile(rng.standard_normal(8), (4, 1))
        v = rng.standard_normal((4, 8))
        out = attention(q, k, v, params)
        expected = np.tile((v @ params.w_v).mean(axis=0) @ params.w_o, (2, 1))
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = _params(seed)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        assert np.allclose(attention(q, k, v, params),
                           attention_oracle(q, k, v, params),
                           atol=1e-10, rtol=0)

    def test_key_value_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        params = _params(6)
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((7, 8))
        v = rng.standard_normal((7, 8))
        perm = rng.permutation(7)
        assert np.allclose(attention(q, k, v, params),
                           attention(q, k[perm], v[perm], params),
                           atol=1e-12)

    def test_empty_key_set_rejected(self):
        params = _params(7)
        with pytest.raises(ValueError):
            attention(np.zeros((2, 8)), np.zeros((0, 8)), np.zeros((0, 8)),
                      params)

    def test_dimension_mismatch_rejected(self):
        params = _params(8)
        with pytest.raises(ValueError):
            attention(np.zeros((2, 6)), np.zeros((3, 8)), np.zeros((3, 8)),
                      params)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            AttentionParams(heads=3, dim_model=8, w_q=np.eye(8),
                            w_k=np.eye(8), w_v=np.eye(8), w_o=np.eye(8))


class TestAttendInPlace:
    """The ndarray core normalises scores in place; its values must equal
    the out-of-place composition bit for bit."""

    @pytest.mark.parametrize("q_shape, kv_shape", [
        ((3, 8), (5, 8)),  # 2-D
        ((1, 8), (1, 8)),  # one query, one key
        ((4, 8), (6, 40, 8)),  # shared queries over a batch, as in the read
        ((6, 4, 8), (6, 9, 8)),  # batched queries and keys
        ((2, 3, 5, 8), (2, 3, 7, 8)),  # two batch axes
        # the perceiver's cross-attention at the reference shape
        ((32, 64), (16, 37, 64)),
    ])
    @pytest.mark.parametrize("heads", [1, 2, 4, 8])  # 8 at d=8: 1 column a head
    def test_matches_out_of_place(self, q_shape, kv_shape, heads):
        rng = np.random.default_rng(len(q_shape) * 10 + heads)
        params = _params(heads, d=q_shape[-1], heads=heads)
        qp = rng.standard_normal(q_shape) * 3.0
        kp = rng.standard_normal(kv_shape) * 3.0
        vp = rng.standard_normal(kv_shape)
        got = attend(qp, kp, vp, params)
        assert np.array_equal(got, attend_out_of_place(qp, kp, vp, params))

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(2)
        params = _params(2)
        qp, kp, vp = (rng.standard_normal((3, 8)) for _ in range(3))
        before = [a.copy() for a in (qp, kp, vp)]
        attend(qp, kp, vp, params)
        assert all(np.array_equal(a, b) for a, b in zip((qp, kp, vp), before))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        theta = np.random.default_rng(9).standard_normal(6)

        def f(t):
            return 0.5 * float(t @ t), t

        assert grad_check(f, theta, 1e-5) < 1e-10

    def test_step_bounds_enforced(self):
        def f(t):
            return float(t.sum()), np.ones_like(t)

        with pytest.raises(ValueError):
            grad_check(f, np.zeros(2), 1e-3)

    def test_non_finite_rejected(self):
        def f(t):
            return float("nan"), t

        with pytest.raises(NumericError):
            grad_check(f, np.zeros(2), 1e-5)
