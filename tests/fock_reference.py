"""Matrix reference for the number-basis truncations built by `spectra`.

It evaluates an operator as a sum of products of ladder matrices, so it
shares no code with the band formula it checks.
"""

import numpy as np


def weyl_truncation(poly, omega, size):
    """Sum c x^m p^n of a WeylPoly on |0>..|size-1> at frequency omega.

    a = diag(sqrt(1) ... sqrt(big-1), 1) on big = size + degree states, with
    x = (a + a+)/sqrt(2 omega) and p = i sqrt(omega/2)(a+ - a).  A retained
    entry passes only through states below big, so the top-left size x size
    block is exact.
    """
    big = size + max(poly.degree, 0)
    a = np.diag(np.sqrt(np.arange(1, big)), 1).astype(complex)
    x = (a + a.T) / np.sqrt(2 * omega)
    p = 1j * np.sqrt(omega / 2) * (a.T - a)
    out = np.zeros((big, big), dtype=complex)
    for (m, n), c in poly.terms.items():
        out += c * np.linalg.matrix_power(x, m) @ np.linalg.matrix_power(p, n)
    return out[:size, :size]


def dense_tridiagonal(t):
    """The n x n matrix of a linalg.Tridiagonal."""
    n = t.size
    out = np.diag(t.diag)
    out[np.arange(1, n), np.arange(n - 1)] = t.lower
    out[np.arange(n - 1), np.arange(1, n)] = t.upper
    return out


def dense(fock):
    """The size x size matrix of a spectra.FockMatrix."""
    out = np.zeros((fock.size, fock.size), dtype=complex)
    for par, block in enumerate(fock.blocks):
        out[par::2, par::2] = dense_tridiagonal(block)
    return out
