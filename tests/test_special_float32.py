"""`special.erf` on float32 input: x + x * S(x^2) in float32 steps below
0.84375 and the float64 erf rounded once from there, checked in ulps
against float32(scipy.special.erf(float64 x))."""

import numpy as np
import pytest
import scipy.special

from streammem.special import _BLOCK, erf
from streammem.verify import ERF32_STOP, erf32_scan

CUT = int(np.float32(0.84375).view(np.int32))
ONE = int(np.float32(1.0).view(np.int32))
TEN = int(np.float32(10.0).view(np.int32))
INF = int(np.float32(np.inf).view(np.int32))

# Every float32 of [0, 1] at which the Cephes rational's last two steps in
# float32 (x * T rounded, then / U rounded) would be 3 ulp off, found by a
# run over all 1,065,353,217 of them. `erf` takes no step of that rational
# in float32: the 32 values below 0.84375 go through x + x * S(x^2), and
# the 9 from 0.84375 up are the float64 erf rounded once.
HARD = np.array([
    0x3acf62c2, 0x3bd8c790, 0x3bde40d0, 0x3bde4328, 0x3bde43a5, 0x3bde44a6,
    0x3bde45a7, 0x3bdf8158, 0x3c5b0bab, 0x3c5e1838, 0x3c5f71a5, 0x3c5fc1c5,
    0x3c626e37, 0x3c626eb4, 0x3cd9f5f9, 0x3cdb6ae2, 0x3cdeb7b1, 0x3cdf787d,
    0x3ce08e89, 0x3ce1f851, 0x3d57f69d, 0x3d5b0e2e, 0x3d5b5520, 0x3d5d78d5,
    0x3d5fc240, 0x3d6007b6, 0x3d614c5d, 0x3d62d8b0, 0x3dd42f18, 0x3ddc665a,
    0x3dde4f22, 0x3f4ce7c8, 0x3f59855f, 0x3f6ae07f, 0x3f6f8f76, 0x3f7286ea,
    0x3f7469d3, 0x3f7606ed, 0x3f7a9ce0, 0x3f7daa15, 0x3f7eb19e,
], dtype=np.int32).view(np.float32)


def _floats(start, stop, step):
    """The float32 values whose bit patterns run from start to stop
    (exclusive) in steps of step, all positive."""
    return np.arange(start, stop, step, dtype=np.int32).view(np.float32)


def _ulps(got, want):
    """Distance in float32 ulps, counted across zero, per element."""
    def ordered(a):
        bits = a.view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

    return np.abs(ordered(got) - ordered(want))


def _reference(x):
    return scipy.special.erf(x.astype(np.float64)).astype(np.float32)


def _check(x, bound):
    x = np.concatenate([x, -x])
    got = erf(x)
    assert got.dtype == np.float32
    ulps = _ulps(got, _reference(x))
    assert ulps.max() <= bound, x[ulps.argmax()]
    return ulps


def test_within_1_ulp_on_minus_1_to_1():
    # every 251st float32 of [0, 1] (subnormals to 1), both signs, 2**20
    # evenly spaced values and the hard cases
    x = np.concatenate([_floats(0, ONE + 1, 251),
                        np.linspace(0, 1, 2**20, dtype=np.float32), HARD])
    ulps = _check(x, 1)
    assert ulps.mean() < 0.1


def test_within_1_ulp_below_the_cut():
    # every 211th float32 of [0, 0.84375) (subnormals included), both
    # signs, and the hard cases there; a run over every float32 of the
    # range meets the bound too
    x = np.concatenate([_floats(0, CUT, 211), HARD[HARD < 0.84375]])
    _check(x, 1)


def test_either_side_of_the_cut():
    # the 4096 float32 below 0.84375 take x + x * S(x^2), within 1 ulp;
    # 0.84375 and the 4096 above it the float64 erf, bit for bit
    below, above = _floats(CUT - 4096, CUT, 1), _floats(CUT, CUT + 4097, 1)
    assert below.max() < 0.84375 == above.min()
    _check(below, 1)
    _check(above, 0)
    assert (np.diff(erf(np.append(below, above))) >= 0).all()


def test_exact_and_non_decreasing_from_the_cut_through_1():
    # every float32 of [0.84375, 1], both signs, bit for bit, and no step
    # down from the 4096 float32 below the cut through 1
    x = _floats(CUT - 4096, ERF32_STOP, 1)
    assert x[4096] == 0.84375 and x[-1] == 1.0
    _check(x[4096:], 0)
    assert (np.diff(erf(x)) >= 0).all()


def test_mixed_block_matches_each_element_alone():
    # both forms, the tail, NaN, infinities and signed zeros, each value
    # many times over in a shuffled input of more than one block, computed
    # out of place and in place
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.standard_normal(500) * 0.6,
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.84375, -0.84375,
         np.nextafter(0.84375, 0, dtype=np.float32)]]).astype(np.float32)
    alone = np.concatenate([erf(values[i:i + 1])
                            for i in range(values.size)]).view(np.int32)
    pick = rng.integers(0, values.size, 2 * _BLOCK + 600)
    x = values[pick]
    assert np.array_equal(erf(x).view(np.int32), alone[pick])
    assert np.array_equal(erf(x, out=x).view(np.int32), alone[pick])


def test_exact_on_the_tails():
    # every 7th float32 of (1, 10] and every 4099th beyond, to the largest
    x = np.concatenate([_floats(ONE + 1, TEN + 1, 7),
                        _floats(TEN + 1, INF, 4099)])
    _check(x, 0)


def test_odd_bit_for_bit():
    x = _floats(0, INF, 65521)
    assert np.array_equal(erf(-x).view(np.int32), (-erf(x)).view(np.int32))


def test_special_values_pass_through():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
                 dtype=np.float32)
    got = erf(x)
    assert got.dtype == np.float32
    assert got[:2].view(np.int32).tolist() == \
        x[:2].view(np.int32).tolist()  # signed zeros kept
    assert got[2:4].tolist() == [1.0, -1.0]
    assert np.isnan(got[4:]).all()


def test_out_in_place_and_dtype():
    x = (np.random.default_rng(3).standard_normal((64, 700)) * 2
         ).astype(np.float32)
    want = erf(x)
    view = x.T
    assert erf(view, out=view) is view
    assert np.array_equal(x, want)
    with pytest.raises(ValueError):
        erf(x, out=np.empty(x.shape))
    assert erf(x.astype(np.float64)).dtype == np.float64


def test_scan_just_below_the_cut():
    # the `check --suite erf32` scan, from the 2**20 float32 below 0.84375
    # through 1
    count, worst, off_by_one, decreasing = erf32_scan(CUT - 2**20)
    assert (count, worst, decreasing) == (ERF32_STOP - CUT + 2**20, 1, 0)
    assert 0 < off_by_one < 2**20


def test_non_decreasing_below_the_cut():
    # runs of 4096 neighbouring float32 from 257 starts spread over
    # [0, 0.84375), subnormals included
    starts = np.linspace(0, CUT - 4096, 257).astype(np.int64)
    x = (starts[:, None] + np.arange(4096)).astype(np.int32).view(np.float32)
    assert (np.diff(erf(x), axis=1) >= 0).all()


def test_odd_bit_for_bit_below_the_cut():
    x = _floats(0, CUT, 97)
    assert np.array_equal(erf(-x).view(np.int32), (-erf(x)).view(np.int32))
