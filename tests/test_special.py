import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import streammem
from streammem.special import _BLOCK, erf, erf_scratch_bytes

from oracles import erf_cephes

SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
                  -np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 8.0, -8.0,
                  np.nextafter(8.0, 0.0), 26.6, -26.6, 26.65, -26.65, np.inf,
                  -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                  1e300, -1e300]


def _sample():
    rng = np.random.default_rng(20240)
    return np.concatenate([rng.normal(0.0, 0.16, 20000),
                           rng.normal(0.0, 3.0, 20000),
                           rng.uniform(-30.0, 30.0, 20000)])


def assert_same_bits(a, b):
    """Equal as bit patterns (so 0.0 and -0.0 differ); NaN matches NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


class TestBitExact:
    def test_sample_matches_scipy(self):
        x = _sample()
        assert_same_bits(erf(x), scipy.special.erf(x))

    def test_sample_matches_scalar_cephes(self):
        x = _sample()
        assert_same_bits(erf(x), np.array([erf_cephes(v) for v in x.tolist()]))

    def test_special_values(self):
        x = np.array(SPECIAL_VALUES)
        got = erf(x)
        assert_same_bits(got, scipy.special.erf(x))
        assert_same_bits(got, np.array([erf_cephes(v) for v in x.tolist()]))
        assert np.signbit(got[1]) and not np.signbit(got[0])
        assert got[np.isinf(x)].tolist() == [1.0, -1.0]
        assert np.isnan(got[np.isnan(x)]).all()

    def test_many_blocks(self):
        x = np.random.default_rng(5).normal(0.0, 1.0, 2 * _BLOCK + 17)
        assert_same_bits(erf(x), scipy.special.erf(x))


class TestArrays:
    def test_out_may_be_the_input(self):
        x = _sample().reshape(3, -1)
        want = scipy.special.erf(x)
        assert erf(x, out=x) is x
        assert_same_bits(x, want)

    def test_out_of_another_array(self):
        x = _sample()
        out = np.full_like(x, 7.0)
        assert erf(x, out=out) is out
        assert_same_bits(out, scipy.special.erf(x))
        assert_same_bits(x, _sample())

    def test_zero_dimensional(self):
        got = erf(np.float64(-1.5))
        assert got.shape == ()
        assert_same_bits(got, scipy.special.erf(np.array(-1.5)))

    def test_empty(self):
        assert erf(np.empty((0, 3))).shape == (0, 3)

    def test_non_contiguous_input(self):
        x = _sample().reshape(60, 1000)
        for view in (x[:, ::3], x.T, x[::-2]):
            assert_same_bits(erf(view), scipy.special.erf(view))

    def test_non_contiguous_out(self):
        x = _sample().reshape(60, 1000)
        want = scipy.special.erf(x.T)
        view = x.T
        erf(view, out=view)
        assert_same_bits(view, want)

    def test_out_overlapping_the_input(self):
        for into, source in ((slice(1, None), slice(None, -1)),
                             (slice(None, -1), slice(1, None))):
            buf = _sample()
            want = scipy.special.erf(buf[source])
            erf(buf[source], out=buf[into])
            assert_same_bits(buf[into], want)

    def test_out_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            erf(np.zeros(3), out=np.zeros(4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_traced_scratch_is_the_modelled_scratch(self, dtype):
        # in place on a (16, 32, 256) input below 0.84375, two float32
        # blocks or four float64 ones: the measured peak is the modelled
        # scratch, which the float32 (z, num) pair puts at 512 kB
        import tracemalloc

        x = np.random.default_rng(9).uniform(-0.8, 0.8, (16, 32, 256))
        x = x.astype(dtype)
        assert x.nbytes >= 2 * _BLOCK * 8  # a block is 256 kB of either
        want = erf(x)
        tracemalloc.start()
        try:
            erf(x, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, want)
        modelled = erf_scratch_bytes(x.size, dtype)
        assert modelled == {np.float32: 524_288, np.float64: 786_432}[dtype]
        assert modelled <= peak <= modelled + 4096


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(streammem.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, streammem.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
