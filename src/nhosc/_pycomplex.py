"""CPython's complex arithmetic on float64 columns, rounded as the interpreter rounds.

A complex column is a pair (re, im) of float64 arrays (or floats that
broadcast against them).  Each function is a line-by-line port of the C code
behind one operation of Python's `complex` -- `_Py_c_prod` for `*`,
`_Py_c_quot` for `/`, `cmath.sqrt` -- so every element equals what the scalar
expression gives, bit for bit, signed zeros, subnormals and overflow
included.  numpy's own complex `*`, `/` and `sqrt` are rounded differently
and are not used.  Sums and differences are formed part by part, as Python
forms them.  Call these inside `np.errstate(all="ignore")`; overflow and
division by zero yield inf and NaN as in C.
"""

from __future__ import annotations

import cmath
import sys

import numpy as np

DBL_MIN = sys.float_info.min
# CM_SCALE_UP and CM_SCALE_DOWN of Modules/cmathmodule.c for 53-bit doubles
_SCALE_UP = 2 * (53 // 2) + 1
_SCALE_DOWN = -(_SCALE_UP + 1) // 2

I = (0.0, 1.0)


def add(a, b):
    return a[0] + b[0], a[1] + b[1]


def sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def mul(a, b):
    """a * b as `_Py_c_prod` forms it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def div(a, b):
    """(a / b, zero) as `_Py_c_quot` forms them; `zero` marks the elements
    where Python raises ZeroDivisionError (their quotient reads 0)."""
    (ar, ai), (br, bi) = map(np.asarray, a), map(np.asarray, b)
    abs_br, abs_bi = np.abs(br), np.abs(bi)
    by_real = abs_br >= abs_bi
    by_imag = ~by_real & (abs_bi >= abs_br)
    # divide top and bottom by b.real ...
    ratio = bi / br
    denom = br + bi * ratio
    real_re, real_im = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    # ... or by b.imag; NaN where a part of b is NaN
    ratio = br / bi
    denom = br * ratio + bi
    imag_re, imag_im = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    zero = by_real & (abs_br == 0.0)
    re = np.where(zero, 0.0, np.where(by_real, real_re, np.where(by_imag, imag_re, np.nan)))
    im = np.where(zero, 0.0, np.where(by_real, real_im, np.where(by_imag, imag_im, np.nan)))
    return (re, im), zero


def sqrt(z):
    """cmath.sqrt(z): both of its scalings, its zero case, and its table of
    special values (taken from cmath itself) where a part is not finite."""
    x, y = np.broadcast_arrays(*map(np.asarray, z))
    ax, ay = np.abs(x), np.abs(y)
    # where hypot(ax, ay) may be subnormal, scale both up by a power of two
    tiny = (ax < DBL_MIN) & (ay < DBL_MIN)
    up = np.ldexp(ax, _SCALE_UP)
    s = np.where(tiny,
                 np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, _SCALE_UP))), _SCALE_DOWN),
                 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    right = x >= 0.0
    re = np.where(right, s, d)
    im = np.copysign(np.where(right, d, s), y)
    origin = (x == 0.0) & (y == 0.0)
    re = np.where(origin, 0.0, re)
    im = np.where(origin, y, im)
    special = ~(np.isfinite(x) & np.isfinite(y))
    for i in np.flatnonzero(special):
        root = cmath.sqrt(complex(x.flat[i], y.flat[i]))
        re.flat[i], im.flat[i] = root.real, root.imag
    return re, im
