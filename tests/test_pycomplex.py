"""The float64-column ports of CPython's complex `*`, `/` and cmath.sqrt
against the interpreter itself, bit for bit."""

import cmath
import math
import random
import struct
import sys

import numpy as np
import pytest

from nhosc import _pycomplex as pyc

TINY = sys.float_info.min
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 5e-324, -5e-324, TINY, -TINY, TINY / 3, -1e-310,
         1e-300, -1e-300, 1e300, -1e300, sys.float_info.max, -sys.float_info.max,
         math.inf, -math.inf, math.nan]


def operands(seed, count):
    """count complex operands as (re, im) columns: edge values, random bit
    patterns (every exponent, subnormals included) and moderate numbers."""
    rng = random.Random(seed)

    def draw():
        kind = rng.random()
        if kind < 0.3:
            return rng.choice(EDGES)
        if kind < 0.6:
            return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        return rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-20, 20)

    parts = np.array([[draw(), draw()] for _ in range(count)])
    return parts[:, 0], parts[:, 1]


def same(column, values):
    """Each element has the bits of the Python float beside it (any NaN for a NaN)."""
    expected = np.array(values)
    both_nan = np.isnan(column) & np.isnan(expected)
    return bool(np.all(both_nan | (column.view(np.int64) == expected.view(np.int64))))


def complexes(column):
    return [complex(re, im) for re, im in zip(*column)]


@pytest.fixture(scope="module")
def pairs():
    a, b = operands(1, 20_000), operands(2, 20_000)
    # zero divisors of both signs, against every kind of numerator
    zeros = np.array([0.0, -0.0])
    b[0][::97], b[1][::97] = zeros[np.arange(b[0][::97].size) % 2], -0.0
    return a, b


def test_product_is_cpythons(pairs):
    a, b = pairs
    with np.errstate(all="ignore"):
        re, im = pyc.mul(a, b)
    expected = [x * y for x, y in zip(complexes(a), complexes(b))]
    assert same(re, [z.real for z in expected]) and same(im, [z.imag for z in expected])


def test_quotient_and_zero_divisor_are_cpythons(pairs):
    a, b = pairs
    with np.errstate(all="ignore"):
        (re, im), zero = pyc.div(a, b)
    expected, raised = [], []
    for x, y in zip(complexes(a), complexes(b)):
        try:
            expected.append(x / y)
            raised.append(False)
        except ZeroDivisionError:
            expected.append(0j)
            raised.append(True)
    assert zero.tolist() == raised and sum(raised) > 100
    assert same(re, [z.real for z in expected]) and same(im, [z.imag for z in expected])


def test_square_root_is_cmaths():
    z = operands(3, 20_000)
    with np.errstate(all="ignore"):
        re, im = pyc.sqrt(z)
    expected = [cmath.sqrt(x) for x in complexes(z)]
    assert same(re, [w.real for w in expected]) and same(im, [w.imag for w in expected])
    # both scalings ran: parts below DBL_MIN, and parts near the top of the range
    assert (np.maximum(*map(np.abs, z)) < TINY).sum() > 100
    assert (np.maximum(*map(np.abs, z)) > 1e300).sum() > 100

