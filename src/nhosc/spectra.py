"""Spectra of the three-parameter oscillator and general quadratic operators.

The central object is H = h11 p^2 + i h12 (xp + px) + h22 x^2 with real
coefficients.  In a number basis built at frequency w the operator couples
|n> only to |n> and |n +- 2>, with coefficients A_n, B_n, C_n.  At the two
roots w of C_n(w) = 0 the matrix becomes upper triangular, the diagonal is
+-sqrt(D) (2n+1) with D = h11 h22 + h12^2, and the three-term recurrence for
the eigenvector coefficients terminates, giving finitely many Fock
components per state.  Away from those roots the truncated matrix is
diagonalized numerically and compared against the closed forms.

Any quadratic c_pp p^2 + c_xp (xp + px) + c_xx x^2 couples the same states,
with amplitudes in closed form, so one band formula (`quadratic_fock_matrix`)
builds every truncation (`FockMatrix`) as its two parity blocks, tridiagonals;
no N x N matrix is formed on the way to a spectrum or a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import canonical, linalg
from .canonical import NormalizabilityResult, QuadraticHamiltonian
from .weyl import PRUNE_REL

__all__ = [
    "BrokenPhaseError",
    "DegenerateEigenvaluesError",
    "ThreeParamOscillator",
    "FockMatrix",
    "EigenPair",
    "CriticalFrequencies",
    "SpectrumLevel",
    "SpectrumReport",
    "EtaReport",
    "rath_mallick_oscillator",
    "critical_frequencies",
    "branch_frequency",
    "closed_form_eigenvalue",
    "eigenvector_coefficients",
    "quadratic_fock_matrix",
    "ParitySpectrum",
    "parity_spectrum",
    "general_quadratic_spectrum",
    "verify_isospectral",
    "eta_check",
]


class BrokenPhaseError(ValueError):
    """The discriminant is negative: the closed-form spectrum is complex."""


class DegenerateEigenvaluesError(ValueError):
    """Retained eigenvalues too close for a biorthogonal construction."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


def _finite_float(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise canonical.NonFiniteError(f"{name} must be finite")
    return value


@dataclass(frozen=True, init=False)
class ThreeParamOscillator:
    """H = h11 p^2 + i h12 (xp + px) + h22 x^2, all coefficients real."""

    h11: float
    h12: float
    h22: float

    def __init__(self, h11, h12, h22):
        # each field converted, checked and stored once (frozen: via the dict)
        fields = vars(self)
        fields["h11"] = _finite_float("h11", h11)
        fields["h12"] = _finite_float("h12", h12)
        fields["h22"] = _finite_float("h22", h22)

    @property
    def discriminant(self):
        return self.h11 * self.h22 + self.h12 * self.h12

    def as_quadratic(self):
        return QuadraticHamiltonian(self.h11, 1j * self.h12, self.h22)


def rath_mallick_oscillator(lam, beta):
    """Coefficients of the oscillator produced by the two-parameter mix.

    h11 = (1-l^2)/(2(1+l b)), h12 = (l+b)/(2(1+l b)), h22 = (1-b^2)/(2(1+l b));
    the discriminant is exactly 1/4 for every admissible (l, b).
    """
    denom = 2.0 * (1.0 + lam * beta)
    if denom == 0:
        raise ValueError("singular parameters: 1 + lam*beta = 0")
    return ThreeParamOscillator(
        (1.0 - lam * lam) / denom,
        (lam + beta) / denom,
        (1.0 - beta * beta) / denom,
    )


@dataclass(frozen=True)
class CriticalFrequencies:
    """Classification of the roots of C_n(omega) = 0.

    kind is one of "pair" (two real roots), "degenerate" (coincident roots,
    exceptional point), "complex_pair" (negative discriminant, broken phase),
    "single" (h11 = 0, one root), "none" (h11 = h12 = 0).  sign_contract
    records whether the labels match omega_plus > 0 > omega_minus; it can be
    False when h22 <= 0, in which case the labels are formula names only.
    """

    kind: str
    discriminant: float
    omega_plus: float | None = None
    omega_minus: float | None = None
    omega_single: float | None = None
    sign_contract: bool | None = None


def critical_frequencies(h):
    d = h.discriminant
    if h.h11 == 0.0:
        if h.h12 == 0.0:
            return CriticalFrequencies(kind="none", discriminant=d)
        return CriticalFrequencies(
            kind="single", discriminant=d, omega_single=h.h22 / (2.0 * h.h12)
        )
    if d < 0.0:
        return CriticalFrequencies(kind="complex_pair", discriminant=d)
    if d == 0.0:
        return CriticalFrequencies(
            kind="degenerate", discriminant=d, omega_single=-h.h12 / h.h11
        )
    root = math.sqrt(d)
    w_plus = (root - h.h12) / h.h11
    w_minus = -(root + h.h12) / h.h11
    return CriticalFrequencies(
        kind="pair",
        discriminant=d,
        omega_plus=w_plus,
        omega_minus=w_minus,
        sign_contract=(w_plus > 0.0) and (w_minus < 0.0),
    )


def branch_frequency(h, branch):
    """The critical frequency realizing the branch (+1 or -1)."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    crit = critical_frequencies(h)
    if crit.kind == "pair":
        return crit.omega_plus if branch == 1 else crit.omega_minus
    if crit.kind == "single":
        realized = 1 if h.h12 > 0 else -1
        if branch != realized:
            raise ValueError(
                f"h11 = 0 realizes only the {'+' if realized == 1 else '-'} branch"
            )
        return crit.omega_single
    if crit.kind == "complex_pair":
        raise BrokenPhaseError(f"discriminant {crit.discriminant} < 0: complex spectrum")
    if crit.kind == "degenerate":
        raise ValueError("exceptional point: the two critical frequencies coincide")
    raise ValueError("no critical frequency exists (h11 = h12 = 0)")


def closed_form_eigenvalue(h, n, branch):
    """E_n = branch * sqrt(D) (2n+1); requires D >= 0."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if n < 0:
        raise ValueError("index must be non-negative")
    d = h.discriminant
    if d < 0:
        raise BrokenPhaseError(f"discriminant {d} < 0: complex spectrum")
    return branch * (math.sqrt(d) * (2 * n + 1))


@dataclass(frozen=True)
class FockMatrix:
    """Truncation of a quadratic to |0>..|size-1> at one frequency: blocks[p]
    is the linalg.Tridiagonal on the states p, p+2, ... (even only at size 1)."""

    blocks: tuple
    omega: float
    size: int


@np.errstate(over="ignore", invalid="ignore")
def quadratic_fock_matrix(q, omega, size):
    """Truncation of q = c_pp p^2 + c_xp (xp + px) + c_xx x^2 to |0>..|size-1>
    at a finite nonzero frequency omega; a negative omega gives the truncation
    of the negative-eigenvalue branch.

    With x = (a + a+)/sqrt(2w) and p = i sqrt(w/2)(a+ - a), q is
    (c_pp w/2 + c_xx/2w)(2 a+ a + 1) + (c_xx/2w - c_pp w/2 +- i c_xp) (a+^2, a^2),
    so q|n> = A_n |n-2> + B_n |n> + C_n |n+2>: B_n on the diagonal, C_m at
    row m+2, column m and A_n at row n-2, column n.  A +-2 amplitude within
    PRUNE_REL of the largest term forming it is cancellation dust and is set
    to 0, so the truncation at a critical frequency is exactly triangular.
    OverflowError when an entry overflows.
    """
    omega = float(omega)
    size = int(size)
    if not math.isfinite(omega) or omega == 0:
        raise ValueError(f"frequency must be finite and nonzero, got {omega}")
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    # in the real three-parameter formula's operation order: its bands, bit for bit
    pp, xx, i_xp = 0.5 * q.c_pp * omega, 0.5 * q.c_xx / omega, 1j * q.c_xp
    dust = PRUNE_REL * max(abs(pp), abs(xx), abs(i_xp))
    raising, lowering = (0.0 if abs(amp) <= dust else amp
                         for amp in (-pp + xx + i_xp, -pp + xx - i_xp))
    n = np.arange(size, dtype=float)
    diag = (pp + xx) * (2 * n + 1)
    lower = raising * np.sqrt((n[:-2] + 1) * (n[:-2] + 2))
    upper = lowering * np.sqrt(n[2:] * (n[2:] - 1))
    if not all(np.isfinite(band).all() for band in (diag, lower, upper)):
        raise OverflowError(f"number-basis matrix of size {size} overflows")
    blocks = tuple(linalg.Tridiagonal(diag[par::2], lower[par::2], upper[par::2])
                   for par in range(min(size, 2)))
    return FockMatrix(blocks=blocks, omega=omega, size=size)


@dataclass(frozen=True)
class EigenPair:
    """Terminating eigenvector of the oscillator at a critical frequency.

    coefficients[n] is the amplitude on |n>; the support is {s, s+2, ..., 2k+s}
    for parity s and excitation k.  residual is ||(M - E) d|| / ||d|| on the
    truncation of size len(coefficients) at the branch frequency.
    """

    eigenvalue: complex
    coefficients: np.ndarray
    parity: int
    excitation: int
    branch: int
    frequency: float
    residual: float


def eigenvector_coefficients(h, branch, excitation, parity, trunc=None):
    """Finite-support eigenvector from the terminating three-term recurrence.

    At the branch frequency every C_n vanishes, so d_{n+2} = (E - B_n)/A_{n+2} d_n
    terminates at n = 2k+s with E = B_{2k+s}; B_n and A_n are read off the
    truncation at that frequency.  When the A_n vanish too (h12 = 0) the matrix
    is diagonal and the unit vector at 2k+s is returned.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if excitation < 0:
        raise ValueError("excitation must be non-negative")
    top = 2 * excitation + parity
    omega = branch_frequency(h, branch)
    size = int(trunc) if trunc is not None else top + 8
    if size <= top:
        raise ValueError(f"truncation {size} does not contain index {top}")
    block = quadratic_fock_matrix(h.as_quadratic(), omega, size).blocks[parity]
    # row j of the block is |parity + 2j>: diag[j] is its B_n, upper[j] the A_{n+2}
    b_n, a_next = block.diag.real, block.upper.real
    e_val = b_n[excitation]
    d = np.zeros(size, dtype=complex)
    if not a_next.any():
        d[top] = 1.0
    else:
        d[parity] = 1.0
        for j in range(excitation):
            n = parity + 2 * j
            d[n + 2] = (e_val - b_n[j]) / a_next[j] * d[n]
    d /= math.sqrt(float((np.abs(d) ** 2).sum()))
    part = d[parity::2]  # M d has no entry off the parity block of d
    residual = float(np.sqrt((np.abs(block.matvec(part) - e_val * part) ** 2).sum()))
    return EigenPair(
        eigenvalue=complex(e_val),
        coefficients=d,
        parity=parity,
        excitation=excitation,
        branch=branch,
        frequency=omega,
        residual=residual,
    )


def general_quadratic_spectrum(q, n):
    """E_n = Omega (2n+1) with Omega = sqrt(c_pp c_xx - c_xp^2), principal branch.

    A complex value signals the broken phase; callers needing the truncation
    route should diagonalize instead.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    return q.frequency_scale * (2 * n + 1)


@dataclass(frozen=True)
class ParitySpectrum:
    """A truncation solved once, for every check that needs it.

    fock is the FockMatrix solved; eigenvalues are sorted by real part then
    imaginary part, and parities[k] is the block eigenvalues[k] came from.
    With levels set they hold only the lowest `levels` of them, else the
    whole spectrum.
    """

    fock: FockMatrix
    eigenvalues: np.ndarray
    parities: np.ndarray
    levels: int | None = None


def _order(parts):
    """Indices that sort the concatenated parts by real part then imaginary
    part; stable, so even before odd on a tie."""
    values = np.concatenate(parts)
    return np.lexsort((values.imag, values.real))


def parity_spectrum(fock, levels=None):
    """Solve each parity block of a FockMatrix with linalg.tridiagonal_eigenvalues.

    With levels = L the two blocks' lowest interleave, so each block first
    solves for its lowest k = L // 2 + 1, which are certified to be its lowest.
    A block is complete when it was solved whole, or when its k-th value does
    not sort before the merged L-th: every value it did not return sorts after
    that one.  A block that is not complete is solved again for its lowest L,
    which is always enough.  Either way each value is the full solve's, so the
    merged lowest L are the whole spectrum's.  L must be at least 1 and at
    most the size of the truncation.
    """
    if levels is not None and levels < 1:
        raise ValueError("need at least one level")
    if levels is not None and levels > fock.size:
        raise ValueError(f"need at most {fock.size} levels of a size-{fock.size} "
                         f"truncation, got {levels}")
    parts = [linalg.tridiagonal_eigenvalues(
        block, lowest=None if levels is None else min(levels // 2 + 1, block.size))
        for block in fock.blocks]
    if levels is not None:
        ends = np.cumsum([part.size for part in parts]) - 1
        before = _order(parts)[:levels - 1]
        for par, block in enumerate(fock.blocks):
            if parts[par].size < block.size and ends[par] in before:
                parts[par] = linalg.tridiagonal_eigenvalues(block, lowest=levels)
    labels = np.repeat(np.arange(len(parts)), [part.size for part in parts])
    order = _order(parts)[:levels]
    return ParitySpectrum(fock=fock, eigenvalues=np.concatenate(parts)[order],
                          parities=labels[order], levels=levels)


@dataclass(frozen=True)
class SpectrumLevel:
    index: int
    eigenvalue: complex
    parity: int | None
    reference: complex | None
    deviation: float | None
    matched: bool


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues, reference values, deviations, normalizability, and the solution."""

    levels: tuple
    passed: bool
    max_deviation: float
    solved: ParitySpectrum = field(compare=False, repr=False)
    normalizable: NormalizabilityResult | None = None
    notes: tuple = field(default_factory=tuple)


def verify_isospectral(transform, trunc=200, n_levels=10, tol=1e-8, base=None, omega=1.0):
    """Check that the transformed oscillator keeps the base spectrum.

    Builds the quadratic image of the base under the transform, truncates it
    at frequency omega, solves it once for the lowest n_levels eigenvalues and
    compares them to Omega_base (2n+1).  Requires n_levels <= trunc/4 so the
    retained levels are well below the truncation edge.  The report carries
    the solution (`solved`), which eta_check takes as it is.
    """
    trunc = int(trunc)
    n_levels = int(n_levels)
    if n_levels < 1 or n_levels * 4 > trunc:
        raise ValueError(f"need n_levels <= trunc/4, got {n_levels} vs {trunc}")
    if base is None:
        base = canonical.harmonic_oscillator()
    scale = base.frequency_scale
    if abs(scale.imag) > 1e-12 * max(1.0, abs(scale)) or scale.real <= 0:
        raise ValueError("base operator must have a real positive spectral scale")
    target = canonical.apply_to_quadratic(transform, base)
    solved = parity_spectrum(quadratic_fock_matrix(target, omega, trunc), levels=n_levels)
    eigs, parities = solved.eigenvalues, solved.parities
    levels = []
    max_dev = 0.0
    notes = []
    for n in range(n_levels):
        ref = general_quadratic_spectrum(base, n).real
        dev = float(abs(eigs[n] - ref))
        max_dev = max(max_dev, dev)
        matched = bool(dev <= tol)
        levels.append(
            SpectrumLevel(
                index=n,
                eigenvalue=complex(eigs[n]),
                parity=int(parities[n]),
                reference=complex(ref),
                deviation=dev,
                matched=matched,
            )
        )
        if int(parities[n]) != n % 2:
            notes.append(f"level {n}: observed parity {int(parities[n])} != {n % 2}")
    try:
        norm = canonical.normalizable(transform)
    except ValueError:
        norm = None
    passed = all(level.matched for level in levels)
    return SpectrumReport(
        levels=tuple(levels),
        passed=passed,
        max_deviation=max_dev,
        solved=solved,
        normalizable=norm,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class EtaReport:
    """Biorthonormality and pseudo-Hermiticity defects on the retained span."""

    biorthonormality_defect: float
    pseudo_hermiticity_defect: float
    passed: bool


def eta_check(solved, tol=1e-6):
    """Numerical pseudo-Hermiticity check on the levels of a ParitySpectrum.

    Computes right eigenvectors phi_n of M and Phi_n of the conjugate
    transpose for every level of `solved`, each on the parity block of its
    level and embedded in the full basis: one `linalg.tridiagonal_eigenvectors`
    call per block and side takes all of that block's levels, so a check
    makes at most four.  It then rescales to <Phi_m|phi_n> = delta_mn,
    and measures how far eta M - M+ eta, with eta = sum |Phi_n><Phi_n|, is from
    zero on the span of the phi_n.  eta is applied through its factors and
    never formed, and M and M+ act block by block on the parity slices.  The
    levels must be simple, with pairwise gaps above 1e-6 times the largest
    modulus among them.
    """
    retained, parities = solved.eigenvalues, solved.parities
    n_levels = retained.size
    min_gap = 1e-6 * float(np.abs(retained).max())
    for i in range(n_levels):
        for j in range(i + 1, n_levels):
            gap = abs(retained[i] - retained[j])
            if gap <= min_gap:
                raise DegenerateEigenvaluesError(
                    f"eigenvalues {retained[i]} and {retained[j]} separated by {gap:.2e}",
                    pair=(complex(retained[i]), complex(retained[j])),
                )
    size = solved.fock.size
    phi = np.zeros((size, n_levels), dtype=complex)
    chi = np.zeros((size, n_levels), dtype=complex)
    for par, block in enumerate(solved.fock.blocks):
        levels = np.flatnonzero(parities == par)
        if levels.size:
            lams = retained[levels]
            phi[par::2, levels] = linalg.tridiagonal_eigenvectors(block, lams)
            chi[par::2, levels] = linalg.tridiagonal_eigenvectors(block.adjoint(), lams.conj())
    overlap = chi.conj().T @ phi
    diag = np.diagonal(overlap)
    vanishing = np.flatnonzero(np.abs(diag) < 1e-12)
    if vanishing.size:
        # for unit phi_k and chi_k, |<chi_k|phi_k>| is 1/kappa_k
        k = int(vanishing[0])
        raise DegenerateEigenvaluesError(
            f"near-defective pair: vanishing biorthogonal overlap at level {k}, "
            f"eigenvalue {complex(retained[k]):.6g}, |<chi|phi>| = {abs(diag[k]):.2e}")
    chi = chi / diag.conj()
    overlap = overlap / diag[:, None]
    bio_defect = float(np.abs(overlap - np.eye(n_levels)).max())

    blocks = solved.fock.blocks
    norm = math.hypot(*(block.norm() for block in blocks))
    # the defect is unchanged when M is scaled by a power of two, which is
    # exact; scaling a huge or tiny truncation towards 1 keeps the residual
    # norms finite and their squares normal
    scale = linalg._radix_scale(np.array([norm]))
    if scale != 1.0:
        blocks = [block.scaled(scale) for block in blocks]
        norm *= scale

    def times(parts, v):
        """The block-diagonal matrix with diagonal blocks `parts` times v."""
        out = np.empty_like(v)
        for par, part in enumerate(parts):
            out[par::2] = part.matvec(v[par::2])
        return out

    adjoints = [block.adjoint() for block in blocks]
    residual = (chi @ (chi.conj().T @ times(blocks, phi))
                - times(adjoints, chi @ (chi.conj().T @ phi)))
    col_scale = np.sqrt((np.abs(chi) ** 2).sum(axis=0)) * norm
    # M = 0 leaves the residual exactly 0
    pseudo_defect = 0.0 if norm == 0 else float(
        (np.sqrt((np.abs(residual) ** 2).sum(axis=0)) / col_scale).max()
    )
    passed = bool(bio_defect <= tol and pseudo_defect <= tol)
    return EtaReport(
        biorthonormality_defect=bio_defect,
        pseudo_hermiticity_defect=pseudo_defect,
        passed=passed,
    )
