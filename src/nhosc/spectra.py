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

import cmath
import math
from dataclasses import dataclass, field, replace

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
    "eigenvector_top",
    "eigenvector_coefficients",
    "quadratic_fock_matrix",
    "ParitySpectrum",
    "parity_spectrum",
    "general_quadratic_spectrum",
    "broken_phase",
    "solve_levels",
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


@dataclass(frozen=True)
class ThreeParamOscillator:
    """H = h11 p^2 + i h12 (xp + px) + h22 x^2, all coefficients real."""

    h11: float
    h12: float
    h22: float

    def __post_init__(self):
        for name in ("h11", "h12", "h22"):
            object.__setattr__(self, name, _finite_float(name, getattr(self, name)))

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
    h11, h12, h22, scaled = h.h11, h.h12, h.h22, d
    if not math.isfinite(d):
        # D overflows; the frequencies, ratios of h's entries and sqrt(D), need
        # not: take them from h scaled by 2^-k to entries below 2^511.  An h11
        # that underflows stays nonzero, so that its ratio overflows: D's
        # overflow then came from h12^2, so the ratio is above 2^1073
        k = math.frexp(max(abs(h11), abs(h12), abs(h22)))[1] - 511
        h11, h12, h22 = (math.ldexp(value, -k) for value in (h11, h12, h22))
        h11 = h11 or math.copysign(5e-324, h.h11)
        scaled = h11 * h22 + h12 * h12
    if scaled < 0.0:
        return CriticalFrequencies(kind="complex_pair", discriminant=d)
    if scaled == 0.0:
        return CriticalFrequencies(
            kind="degenerate", discriminant=d, omega_single=-h12 / h11
        )
    root = math.sqrt(scaled)
    w_plus = (root - h12) / h11
    w_minus = -(root + h12) / h11
    # one of the two cancels when h11 h22 << h12^2; that one comes from
    # w_plus w_minus = -h22/h11 instead
    if h12 >= 0.0:
        w_plus = h22 / (root + h12)
    else:
        w_minus = -h22 / (root - h12)
    return CriticalFrequencies(
        kind="pair",
        discriminant=d,
        omega_plus=w_plus,
        omega_minus=w_minus,
        sign_contract=(w_plus > 0.0) and (w_minus < 0.0),
    )


def branch_frequency(h, branch):
    """The critical frequency realizing the branch (+1 or -1), which must be finite."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    crit = critical_frequencies(h)
    if crit.kind == "complex_pair":
        raise BrokenPhaseError(f"discriminant {crit.discriminant} < 0: complex spectrum")
    if crit.kind == "degenerate":
        raise ValueError("exceptional point: the two critical frequencies coincide")
    if crit.kind == "none":
        raise ValueError("no critical frequency exists (h11 = h12 = 0)")
    if crit.kind == "pair":
        omega = crit.omega_plus if branch == 1 else crit.omega_minus
    else:
        realized = 1 if h.h12 > 0 else -1
        if branch != realized:
            raise ValueError(
                f"h11 = 0 realizes only the {'+' if realized == 1 else '-'} branch"
            )
        omega = crit.omega_single
    if not math.isfinite(omega):
        raise canonical.NonFiniteError(
            f"frequency of the {'+' if branch == 1 else '-'} branch overflows: {omega}")
    return omega


def closed_form_eigenvalue(h, n, branch):
    """E_n = branch * sqrt(D) (2n+1); requires D >= 0."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if n < 0:
        raise ValueError("index must be non-negative")
    d = h.discriminant
    if d < 0:
        raise BrokenPhaseError(f"discriminant {d} < 0: complex spectrum")
    # Omega^2 = c_pp c_xx - c_xp^2 = h11 h22 + h12^2 = D, rounded the same way
    return branch * general_quadratic_spectrum(h.as_quadratic(), n).real


@dataclass(frozen=True)
class FockMatrix:
    """Truncation of a quadratic to |0>..|size-1> at one frequency: blocks[p]
    is the linalg.Tridiagonal on the states p, p+2, ... (even only at size 1)."""

    blocks: tuple
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
    return FockMatrix(blocks=blocks, size=size)


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


def eigenvector_top(excitation, parity):
    """Index 2k + s of the last Fock component of the eigenvector of excitation
    k and parity s; ValueError for a parity not 0 or 1 or a negative k."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if excitation < 0:
        raise ValueError("excitation must be non-negative")
    return 2 * excitation + parity


def eigenvector_coefficients(h, branch, excitation, parity, trunc=None):
    """Finite-support eigenvector from the terminating three-term recurrence.

    At the branch frequency every C_n vanishes, so d_{n+2} = (E - B_n)/A_{n+2} d_n
    terminates at n = 2k+s with E = B_{2k+s}; B_n and A_n are read off the
    truncation at that frequency.  When the A_n vanish too (h12 = 0) the matrix
    is diagonal and the unit vector at 2k+s is returned.  NonFiniteError when
    the recurrence overflows.
    """
    top = eigenvector_top(excitation, parity)
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
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(excitation):
                n = parity + 2 * j
                d[n + 2] = (e_val - b_n[j]) / a_next[j] * d[n]
        if not np.isfinite(d).all():
            raise canonical.NonFiniteError(
                f"eigenvector coefficients of excitation {excitation} overflow")
    d /= linalg.frobenius_norm(d)
    part = d[parity::2]  # M d has no entry off the parity block of d
    residual = linalg.frobenius_norm(block.matvec(part) - e_val * part)
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
    route should diagonalize instead.  NonFiniteError when Omega overflows.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    scale = q.frequency_scale
    if not cmath.isfinite(scale):
        raise canonical.NonFiniteError(
            "non-finite spectrum scale: c_pp c_xx - c_xp^2 overflows for coefficients up "
            f"to {max(map(abs, vars(q).values())):.3g} in modulus")
    return scale * (2 * n + 1)


def broken_phase(q):
    """Whether the spectrum Omega (2n+1) of q is complex beyond rounding:
    |Im Omega| above 1e-12 |Omega|, at every scale of q."""
    scale = q.frequency_scale
    return abs(scale.imag) > 1e-12 * abs(scale)


@dataclass(frozen=True)
class ParitySpectrum:
    """A truncation solved once, for every check that needs it.

    fock is the FockMatrix solved; eigenvalues are sorted by real part then
    imaginary part, and parities[k] is the block eigenvalues[k] came from.
    Solved for the lowest L levels they hold only those, else the whole
    spectrum.
    """

    fock: FockMatrix
    eigenvalues: np.ndarray
    parities: np.ndarray


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
        before = linalg._order(np.concatenate(parts))[:levels - 1]
        for par, block in enumerate(fock.blocks):
            if parts[par].size < block.size and ends[par] in before:
                parts[par] = linalg.tridiagonal_eigenvalues(block, lowest=levels)
    labels = np.repeat(np.arange(len(parts)), [part.size for part in parts])
    values = np.concatenate(parts)
    order = linalg._order(values)[:levels]  # stable: even before odd on a tie
    return ParitySpectrum(fock=fock, eigenvalues=values[order], parities=labels[order])


@dataclass(frozen=True)
class SpectrumLevel:
    """A solved level and its closed form; no deviation in the broken phase, matched by verify."""

    index: int
    eigenvalue: complex
    parity: int | None
    reference: complex
    deviation: float | None
    matched: bool | None = None


@dataclass(frozen=True)
class SpectrumReport:
    """Levels of one truncation solved once (`solved`), their deviations, the broken-phase
    verdict and the transform's normalizability; verify_isospectral sets passed and notes."""

    levels: tuple
    max_deviation: float | None
    broken_phase: bool
    solved: ParitySpectrum = field(compare=False, repr=False)
    normalizable: NormalizabilityResult | None = None
    passed: bool | None = None
    notes: tuple = field(default_factory=tuple)


def solve_levels(q, omega, trunc, n_levels, reference, transform=None):
    """The lowest n_levels of q's truncation to |0>..|trunc-1> at frequency
    omega, solved once, as the SpectrumReport that spectrum and verify print.

    First a ValueError unless 1 <= n_levels <= trunc/4, which keeps the levels
    well below the truncation edge.  Level n's reference is
    general_quadratic_spectrum(reference, n), computed before the truncation is built, and
    its deviation the distance to it, None in the broken phase (broken_phase(reference)).
    normalizable is canonical.normalizable(transform), None without a
    transform or where it raises (the degenerate line).  No level is matched.
    """
    if n_levels < 1:
        raise ValueError("levels must be at least 1")
    if trunc < 4 * n_levels:
        raise ValueError(f"trunc must be at least 4*levels, got {trunc} < {4 * n_levels}")
    refs = [general_quadratic_spectrum(reference, n) for n in range(n_levels)]
    broken = broken_phase(reference)
    solved = parity_spectrum(quadratic_fock_matrix(q, omega, trunc), levels=n_levels)
    levels = tuple(
        SpectrumLevel(n, complex(eig), int(parity), reference=ref,
                      deviation=None if broken else float(abs(eig - ref)))
        for n, (eig, parity, ref) in enumerate(zip(solved.eigenvalues, solved.parities, refs)))
    try:
        norm = None if transform is None else canonical.normalizable(transform)
    except ValueError:
        norm = None
    max_dev = None if broken else max(level.deviation for level in levels)
    return SpectrumReport(levels, max_dev, broken, solved, normalizable=norm)


def verify_isospectral(transform, trunc=200, n_levels=10, tol=1e-8, base=None, omega=1.0):
    """Check that the transformed oscillator keeps the base spectrum.

    Solves the quadratic image of the base under the transform with
    solve_levels, against the base, and matches level n when it is within
    tol of Omega_base (2n+1).  The report carries the solution (`solved`),
    which eta_check takes as it is.
    """
    if base is None:
        base = canonical.harmonic_oscillator()
    if broken_phase(base) or base.frequency_scale.real <= 0:
        raise ValueError("base operator must have a real positive spectral scale")
    report = solve_levels(canonical.apply_to_quadratic(transform, base), omega, trunc, n_levels,
                          reference=base, transform=transform)
    levels = tuple(replace(level, matched=bool(level.deviation <= tol)) for level in report.levels)
    notes = tuple(f"level {level.index}: observed parity {level.parity} != {level.index % 2}"
                  for level in levels if level.parity != level.index % 2)
    return replace(report, levels=levels, passed=all(level.matched for level in levels),
                   notes=notes)


@dataclass(frozen=True)
class EtaReport:
    """Biorthonormality and pseudo-Hermiticity defects on the retained span,
    and kappa[n] = 1/|<chi_n|phi_n>| for unit vectors, the condition number of
    level n."""

    biorthonormality_defect: float
    pseudo_hermiticity_defect: float
    passed: bool
    kappa: tuple


def eta_check(solved, tol=1e-6):
    """Numerical pseudo-Hermiticity check on the levels of a ParitySpectrum.

    M, its eigenvectors and eta all split by parity, so each parity block B
    is checked on its own levels: one `linalg.tridiagonal_eigenvectors` call
    per side computes the right eigenvectors phi_n of B and chi_n of B+, which
    are rescaled to <chi_m|phi_n> = delta_mn, and the residual
    eta B phi - B+ eta phi, with eta = sum |chi_n><chi_n| applied through its
    factors and never formed, is measured relative to ||M||_F.  Each defect is
    the largest over the blocks.  The levels must be simple, with pairwise
    gaps above 1e-6 times the largest modulus among them.
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
    pairs = []
    diag = np.empty(n_levels, dtype=complex)
    for par, block in enumerate(solved.fock.blocks):
        levels = np.flatnonzero(parities == par)
        if levels.size:
            lams = retained[levels]
            phi = linalg.tridiagonal_eigenvectors(block, lams)
            chi = linalg.tridiagonal_eigenvectors(block.adjoint(), lams.conj())
            # einsum sums in a fixed order; a BLAS product's may move with its threads
            overlap = np.einsum("im,in->mn", chi.conj(), phi)
            diag[levels] = np.diagonal(overlap)
            pairs.append((block, phi, chi, overlap))
    vanishing = np.flatnonzero(np.abs(diag) < 1e-12)
    if vanishing.size:
        # for unit phi_k and chi_k, |<chi_k|phi_k>| is 1/kappa_k
        k = int(vanishing[0])
        raise DegenerateEigenvaluesError(
            f"near-defective pair: vanishing biorthogonal overlap at level {k}, "
            f"eigenvalue {complex(retained[k]):.6g}, |<chi|phi>| = {abs(diag[k]):.2e}")

    norm = math.hypot(*(block.norm() for block in solved.fock.blocks))
    # the defect is unchanged when M is scaled by a power of two, which is
    # exact; scaling a huge or tiny truncation towards 1 keeps the residual
    # norms finite and their squares normal
    scale = linalg._radix_scale(np.array([norm]))
    norm *= scale
    bio_defect = pseudo_defect = 0.0
    for block, phi, chi, overlap in pairs:
        block = block.scaled(scale)
        scales = np.diagonal(overlap)
        chi = chi / scales.conj()
        overlap = overlap / scales[:, None]
        bio_defect = max(bio_defect, float(np.abs(overlap - np.eye(scales.size)).max()))

        def eta(v):
            return np.einsum("im,mn->in", chi, np.einsum("im,in->mn", chi.conj(), v))

        residual = eta(block.matvec(phi)) - block.adjoint().matvec(eta(phi))
        # M = 0 leaves the residual exactly 0
        if norm != 0:
            ratio = np.sqrt((np.abs(residual) ** 2).sum(axis=0) / (np.abs(chi) ** 2).sum(axis=0))
            pseudo_defect = max(pseudo_defect, float(ratio.max()) / norm)
    return EtaReport(
        biorthonormality_defect=bio_defect,
        pseudo_hermiticity_defect=pseudo_defect,
        passed=bool(bio_defect <= tol and pseudo_defect <= tol),
        kappa=tuple((1.0 / np.abs(diag)).tolist()),
    )
