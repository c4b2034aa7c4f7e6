"""The error function in its input's dtype: float32 stays float32, and
float64 is bit for bit what `scipy.special.erf` computes.

On float64, `erf` evaluates the Cephes algorithm (Moshier, Cephes Math
Library, `ndtr.c`), which is the one scipy compiles for real float64
input, with numpy elementwise operations in the same order and with the
same coefficients, so every result, signed zeros included, has the same
bits as scipy's:

- |x| <= 1: x * polevl(x^2, T) / p1evl(x^2, U), both in Horner form.
- |x| > 1: 1 - erfc(|x|), with the sign of x. erfc is
  exp(-x^2) * polevl(|x|, P) / p1evl(|x|, Q) below 8 and the same with
  R and S from 8 up, and 0 once x^2 exceeds MAXLOG (exp would underflow).
- NaN passes through.

Cephes writes erf(-x) as -erf(x); IEEE multiplication and division are
symmetric in sign, so the |x| <= 1 branch runs on the signed input
directly. The tail's exp goes through `math.exp`, the C library's exp
that the compiled Cephes calls: numpy's vectorised exp may differ in the
last bit.

On float32 `erf` has two forms, each with the bound it meets against
float32(scipy erf(float64 x)):

- |x| < 0.84375: x + x * S(z) with z = x^2, every step in float32. S is
  one degree-5 polynomial with float32 coefficients, with no second
  polynomial and no divide: Lawson's iteratively reweighted least squares
  (a minimax fit) of (erf(x) - x) / x in z, on 2000 Chebyshev nodes of
  [0, 0.84375^2] in float64, each coefficient then rounded to float32. The
  fit is off by at most 5.7e-9; its constant term is 2/sqrt(pi) - 1, as in
  erf's series. The leading x is exact, so S's rounding errors shrink by
  |x * S| / |erf x|, at most 0.12: within 1 ulp. `verify.erf32_scan`
  (`streammem check --suite erf32`) checks every one of the 1,062,731,776
  non-negative float32 below the cut: 62,949,978 are 1 ulp off, none
  further, and no step between neighbours goes down. IEEE arithmetic is
  symmetric in sign, so erf(-x) is -erf(x) bit for bit. A degree-4 fit
  reaches 4 ulp.
- |x| >= 0.84375, and NaN: the float64 erf above, rounded once, so
  float32(scipy erf) exactly. The same scan runs on through 1 and finds
  no step down across the cut or above it.

The cut is fdlibm's (`s_erf.c`, Sun Microsystems, 1993): past 0.84375
its erf changes form (erx plus a rational in |x| - 1, then erfc through
exp). GELU's erf inputs sit well inside it (below 0.48 in a seeded
default-config run), so the few elements at or past it are gathered and
widened, and a float32 form of their own would buy little.

The work runs in blocks of 256 kB of the input's dtype (_BLOCK float64s
or twice as many float32s) over scratch buffers that are reused from block
to block, so the elementwise passes of each block stay in cache: 14 for
float32 below the cut (the square, its maximum, 10 for S, x * S and the
sum) over two blocks of scratch, and 21 for the Cephes rational over
three. `erf_scratch_bytes` counts them.
"""

import math

import numpy as np

_BLOCK = 1 << 15  # float64s per block
_NO_INDEX = np.empty(0, dtype=np.intp)

_MAXLOG = 7.09782712893383996843e2
_SMALL2 = 0.84375 ** 2  # fdlibm's cut-off, squared: 729/1024

_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,  # leading 1
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,  # leading 1
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,  # leading 1
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
# float32 erf(x) = x + x * S(x^2) for |x| < 0.84375, highest degree
# first as `_polevl` takes them: a degree-5 fit in float32 (see above)
_S32 = (-0.0006359994877129793, 0.005058678798377514,
        -0.026807021349668503, 0.11282824724912643,
        -0.3761258125305176, 0.12837916612625122)


def _polevl(x, coefs, out):
    """Cephes polevl: sum of coefs[i] * x^(n-i), in Horner order, in out."""
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _p1evl(x, coefs, out):
    """Cephes p1evl: polevl with an implied leading coefficient of 1."""
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def float_array(x, copy=False) -> np.ndarray:
    """x as an ndarray of the dtype the kernels compute in: float32 stays
    float32, anything else becomes float64. With copy, always a new array."""
    x = np.asarray(x)
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    return np.array(x, dtype=dtype, copy=copy or None)


def _block(dtype) -> int:
    """Elements per block of `dtype`: as many bytes as _BLOCK float64s."""
    return _BLOCK * 8 // np.dtype(dtype).itemsize


def _scratch_blocks(dtype) -> int:
    """Scratch blocks `erf` holds: z and num, and den for float64."""
    return 2 if np.dtype(dtype) == np.float32 else 3


def erf_scratch_bytes(size: int, dtype) -> int:
    """The bytes of scratch `erf` holds for `size` elements of `dtype`:
    two blocks of float32 (z and num) or three of float64 (z, num and
    den). The elements a float32 block gathers (from 0.84375 up, and NaN)
    and the float64 tail take copies on top of it; GELU's inputs give
    almost none."""
    return (min(size, _block(dtype)) * _scratch_blocks(dtype)
            * np.dtype(dtype).itemsize)


def _erfc_tail(u):
    """Cephes erfc(u) for a 1-D float64 array of u > 1."""
    y = np.zeros_like(u)
    live = np.flatnonzero(u * u <= _MAXLOG)
    u = u[live]
    # exp(-u^2) through the C library, as the compiled Cephes calls it
    ez = np.fromiter((math.exp(-v * v) for v in u.tolist()), u.dtype, u.size)
    for part, num, den in ((u < 8.0, _P, _Q), (u >= 8.0, _R, _S)):
        if part.any():
            up = u[part]
            y[live[part]] = (ez[part] * _polevl(up, num, np.empty_like(up))
                             / _p1evl(up, den, np.empty_like(up)))
    return y


def _cephes(x, out, z, num, den):
    """Cephes erf of the 1-D float64 block x into out (which may be x); z,
    num and den are scratch of x's length."""
    np.multiply(x, x, out=z)
    # x^2 > 1 exactly when |x| > 1. A NaN makes the max NaN, which sends
    # the block to the elementwise test; that leaves the NaN out.
    tail = _NO_INDEX if z.max() <= 1.0 else np.flatnonzero(z > 1.0)
    signed = x[tail]  # gathered before out, which may be x, is written
    _polevl(z, _T, num)
    _p1evl(z, _U, den)
    num *= x
    np.divide(num, den, out=out)
    if tail.size:
        out[tail] = np.copysign(1.0 - _erfc_tail(np.abs(signed)), signed)


def _erf_block(x, out, *scratch):
    """erf of the 1-D block x into out (which may be x), over the scratch
    blocks `erf_scratch_bytes` counts, each of x's length and dtype.
    Float64 is `_cephes`. Float32 takes x + x * S(x^2) in float32 steps;
    the elements with |x| >= 0.84375 or NaN are gathered first and take
    the float64 erf, rounded once."""
    if x.dtype != np.float32:
        _cephes(x, out, *scratch)
        return
    z, num = scratch
    np.multiply(x, x, out=z)
    # z < 0.84375^2 = 729/1024 exactly when |x| < 0.84375: the square
    # rounds monotonically, and the float32 just below 0.84375 squares to
    # below it. A NaN fails the test both ways.
    far = _NO_INDEX if z.max() < _SMALL2 else np.flatnonzero(~(z < _SMALL2))
    rest = x[far]  # gathered before out, which may be x, is written
    _polevl(z, _S32, num)
    num *= x
    np.add(x, num, out=out)
    if far.size:
        out[far] = erf(rest.astype(np.float64))


def erf(x, out=None):
    """The error function of x, elementwise, in x's dtype (`float_array`);
    on float64 equal bit for bit to `scipy.special.erf(x)`. `out`, an array
    of that dtype and x's shape, receives the result and may be x itself;
    returns out."""
    x = float_array(x)
    if out is None:
        out = np.empty(x.shape, x.dtype)
    elif out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(f"out must be a {x.dtype} array of the input's "
                         f"shape")
    dst = out if out.flags.c_contiguous else np.empty(x.shape, x.dtype)
    src = np.ascontiguousarray(x)
    if src is not dst and np.may_share_memory(src, dst):
        src = src.copy()
    src, flat = src.reshape(-1), dst.reshape(-1)
    block = _block(x.dtype)
    n = min(src.size, block)
    scratch = [np.empty(n, x.dtype) for _ in range(_scratch_blocks(x.dtype))]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, block):
            stop = min(start + block, src.size)
            _erf_block(src[start:stop], flat[start:stop],
                       *(s[:stop - start] for s in scratch))
    if dst is not out:
        out[...] = dst
    return out
