"""Acceptance suite: every release criterion at its contracted tolerance.

Each test prints one [acceptance] PASS/FAIL line; run with -s (or rely on
captured output on failure) to see them.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from fock_reference import dense, weyl_truncation

from nhosc import canonical, cli, spectra, wavefun, weyl
from nhosc.spectra import ThreeParamOscillator
from nhosc.weyl import P, X


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def sample_mix_parameters(count=100, seed=20250810):
    """Random (lam, beta) with 1 + lam*beta > 0, bounded away from the poles."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        lam, beta = rng.uniform(-0.7, 0.7, size=2)
        if 1 + lam * beta > 0.3:
            pairs.append((lam, beta))
    return pairs


def sample_oscillators(count, seed, h12_nonzero=False):
    rng = np.random.default_rng(seed)
    oscillators = []
    while len(oscillators) < count:
        h11 = rng.uniform(0.1, 2.0)
        h12 = rng.uniform(-1.0, 1.0)
        h22 = rng.uniform(0.05, 2.0)
        if h12_nonzero and abs(h12) < 0.05:
            continue
        oscillators.append(ThreeParamOscillator(h11, h12, h22))
    return oscillators


def test_criterion_01_isospectrality():
    with criterion(1, "isospectrality of the transformed oscillator"):
        for alpha, beta in [(0.3, 0.2), (0.9, -0.5), (-0.5, 0.9)]:
            start = time.perf_counter()
            report = spectra.verify_isospectral(
                canonical.rath_mallick(alpha, beta), trunc=200, n_levels=10, tol=1e-8
            )
            elapsed = time.perf_counter() - start
            assert report.passed, (alpha, beta, report.max_deviation)
            assert report.max_deviation <= 1e-8
            assert elapsed <= 5.0, f"case ({alpha},{beta}) took {elapsed:.2f}s"


def test_criterion_02_triangular_exactness():
    with criterion(2, "upper-triangular form and exact diagonal at omega_plus"):
        for osc in sample_oscillators(100, seed=2202):
            crit = spectra.critical_frequencies(osc)
            assert crit.kind == "pair" and osc.h11 > 0
            mat = dense(spectra.quadratic_fock_matrix(osc.as_quadratic(), crit.omega_plus, 100))
            norm = np.abs(mat).max()
            assert np.abs(np.tril(mat, -1)).max() <= 1e-12 * norm
            expected = np.array(
                [spectra.closed_form_eigenvalue(osc, n, 1) for n in range(100)]
            )
            assert np.abs(np.real(np.diagonal(mat)) - expected).max() <= 1e-12


def test_criterion_03_discriminant_identity():
    with criterion(3, "mix-family discriminant equals 1/4"):
        for lam, beta in sample_mix_parameters():
            osc = spectra.rath_mallick_oscillator(lam, beta)
            assert abs(osc.discriminant - 0.25) <= 1e-14


def test_criterion_04_critical_frequencies():
    with criterion(4, "critical frequencies match the displayed expressions"):
        for lam, beta in sample_mix_parameters():
            osc = spectra.rath_mallick_oscillator(lam, beta)
            crit = spectra.critical_frequencies(osc)
            assert abs(crit.omega_plus - (1 - beta) / (1 + lam)) <= 1e-12
            assert abs(crit.omega_minus - (1 + beta) / (lam - 1)) <= 1e-12


def test_criterion_05_negative_spectrum():
    with criterion(5, "negative branch mirrors the positive branch"):
        for osc in sample_oscillators(30, seed=2205):
            for n in range(12):
                plus = spectra.closed_form_eigenvalue(osc, n, 1)
                minus = spectra.closed_form_eigenvalue(osc, n, -1)
                assert minus == -plus
            crit = spectra.critical_frequencies(osc)
            mat = dense(spectra.quadratic_fock_matrix(osc.as_quadratic(), crit.omega_minus, 100))
            expected = np.array(
                [spectra.closed_form_eigenvalue(osc, n, -1) for n in range(100)]
            )
            assert np.abs(np.real(np.diagonal(mat)) - expected).max() <= 1e-12
            assert np.abs(np.tril(mat, -1)).max() <= 1e-12 * np.abs(mat).max()


def test_criterion_06_gauge_identities():
    with criterion(6, "gauge conjugation identities hold symbolically"):
        rng = np.random.default_rng(2206)
        for _ in range(20):
            # dyadic parameters keep every coefficient operation exact
            alpha = int(rng.integers(-32, 33)) / 16.0
            beta = int(rng.integers(-32, 33)) / 16.0
            h_beta = 0.5 * (P + 1j * beta * X) ** 2 + 0.5 * (alpha**2 + beta**2) * X**2
            half_gauge = weyl.x_polynomial(0, 0, -beta / 2)
            oscillator = 0.5 * P**2 + 0.5 * (alpha**2 + beta**2) * X**2
            assert weyl.gauge_conjugate(h_beta, half_gauge) == oscillator
            full_gauge = weyl.x_polynomial(0, 0, -beta)
            assert weyl.gauge_conjugate(h_beta, full_gauge) == weyl.adjoint(h_beta)


def test_criterion_07_phase_transition_scan(tmp_path):
    with criterion(7, "real-to-complex transition located by the gamma scan"):
        start = time.perf_counter()
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan", "--alpha", "1.0", "--scan", "gamma",
            "--start", "0", "--stop", "2", "--step", "0.01",
            "-n", "8", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())["results"]["rows"]
        hot = [row["value"] for row in rows if row["max_imag"] > 1e-6]
        assert hot, "no transition found"
        assert 0.99 < hot[0] <= 1.02
        out_k = tmp_path / "scan_k.json"
        code = cli.main([
            "scan", "--k", "1.0", "--scan", "gamma",
            "--start", "0", "--stop", "2", "--step", "0.01",
            "-n", "8", "--out", str(out_k),
        ])
        assert code == 0
        rows_k = json.loads(out_k.read_text())["results"]["rows"]
        assert all(row["max_imag"] <= 1e-6 for row in rows_k)
        assert time.perf_counter() - start <= 30.0


def test_criterion_08_normalizability_region():
    with criterion(8, "square-integrability margin sign over the parameter grid"):
        grid = np.linspace(-1.9, 1.9, 20)
        tested = 0
        for alpha in grid:
            for beta in grid:
                if abs(1 + alpha * beta) < 0.05:
                    continue
                margin = canonical.normalizable(canonical.rath_mallick(alpha, beta)).margin
                expected = (1 - beta) / (1 + alpha)
                assert margin * expected > 0 or margin == expected == 0
                assert abs(margin - expected) <= 1e-10 * max(1.0, abs(expected))
                tested += 1
        assert tested >= 350


def test_criterion_09_pseudo_hermiticity():
    with criterion(9, "eta-pseudo-Hermiticity of the mix truncation"):
        target = canonical.apply_to_quadratic(
            canonical.rath_mallick(0.3, 0.2), canonical.harmonic_oscillator()
        )
        fock = spectra.quadratic_fock_matrix(target, 1.0, 200)
        report = spectra.eta_check(fock, 8, tol=1e-6)
        assert report.biorthonormality_defect <= 1e-8
        assert report.pseudo_hermiticity_defect <= 1e-6
        assert report.passed


def test_criterion_10_node_counts():
    with criterion(10, "gauge-family eigenfunctions keep the oscillator node count"):
        alpha = 1.0
        for gamma in (0.3, 0.6):
            freq = math.sqrt(alpha**2 - gamma**2)
            grid = wavefun.default_grid(freq, 3001)
            phase = np.exp(0.5j * gamma * grid.points**2)
            for n in range(7):
                base = wavefun.hermite_function(n, freq, grid.points)
                gauged = wavefun.WavefunctionSample(grid, phase * base, freq, "gauged")
                if n > 0:
                    with pytest.raises(ValueError):
                        wavefun.count_nodes(gauged)
                representative = wavefun.WavefunctionSample(
                    grid, gauged.values * np.conj(phase), freq, "representative"
                )
                assert wavefun.count_nodes(representative) == n
        # real-gauge family: the weight is real, nodes countable directly
        grid = wavefun.default_grid(1.0, 3001)
        weight = np.exp(0.25 * grid.points**2)
        for n in range(7):
            values = weight * wavefun.hermite_function(n, 1.0, grid.points)
            sample = wavefun.WavefunctionSample(grid, values, 1.0, "real gauge")
            assert wavefun.count_nodes(sample) == n


def test_criterion_11_eigenvector_recurrence():
    with criterion(11, "terminating eigenvectors satisfy the recurrence at N=200"):
        for osc in sample_oscillators(20, seed=2211, h12_nonzero=True):
            for branch in (1, -1):
                for parity in (0, 1):
                    for excitation in range(6):
                        pair = spectra.eigenvector_coefficients(
                            osc, branch, excitation, parity, trunc=200
                        )
                        assert pair.residual <= 1e-10


def test_criterion_12_oracle_equivalence():
    with criterion(12, "band formula and matrix reference truncations agree entrywise"):
        rng = np.random.default_rng(2212)
        for _ in range(50):
            osc = ThreeParamOscillator(
                rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.05, 2.0)
            )
            omega = rng.uniform(0.3, 2.5)
            size = int(rng.integers(4, 61))
            quad = osc.as_quadratic()
            direct = dense(spectra.quadratic_fock_matrix(quad, omega, size))
            reference = weyl_truncation(quad.weyl_poly(), omega, size)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(direct - reference).max() <= 1e-12 * scale
