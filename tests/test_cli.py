import argparse
import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhosc import canonical, cli, linalg, spectra

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert out, f"no output; stderr: {err}"
    return code, json.loads(out)


class TestSpectrum:
    def test_oscillator_levels(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5",
            "-n", "5", "-N", "40",
        )
        assert code == 0
        numeric = doc["results"]["numeric"]
        assert [entry["eigenvalue"]["re"] for entry in numeric] == [
            0.5, 1.5, 2.5, 3.5, 4.5,
        ]
        assert doc["diagnostics"]["max_deviation"] == 0.0

    def test_mix_levels_match_half_integers(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2",
            "-n", "10", "-N", "200",
        )
        assert code == 0
        assert doc["diagnostics"]["max_deviation"] <= 1e-8
        assert doc["diagnostics"]["normalizable"]["flag"] is True
        crit = doc["results"]["critical_frequencies"]
        assert crit["kind"] == "pair"
        assert abs(crit["omega_plus"] - (1 - 0.2) / (1 + 0.3)) < 1e-12

    def test_broken_phase_marker(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "-0.5",
            "-n", "4", "-N", "20",
        )
        assert code == 0
        assert doc["results"]["broken_phase"] is True
        assert doc["results"]["critical_frequencies"]["kind"] == "complex_pair"
        assert all(entry["deviation"] is None for entry in doc["results"]["numeric"])

    def test_gamma_family(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--gamma", "0.5", "--alpha", "1.0", "-n", "4", "-N", "30",
        )
        assert code == 0
        assert doc["results"]["broken_phase"] is False

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5",
            "-n", "3", "-N", "16", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,eigen_re,eigen_im,parity,closed_re,closed_im,deviation"
        assert len(lines) == 4

    def test_determinism(self, capsys):
        args = ("spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-n", "4", "-N", "40")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_conflicting_models_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5",
            "--rm-alpha", "0.1", "--rm-beta", "0.1",
        )
        assert code == 2
        assert "exactly one model" in err

    def test_truncation_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5",
            "-n", "10", "-N", "20",
        )
        assert code == 2
        assert "4*levels" in err


class TestScan:
    def test_gamma_transition_bracket(self, capsys):
        code, doc = run_json(
            capsys, "scan", "--alpha", "1.0", "--scan", "gamma",
            "--start", "0.8", "--stop", "1.2", "--step", "0.05", "-n", "5",
        )
        assert code == 0
        bracket = doc["diagnostics"]["transition_bracket"]
        assert bracket is not None
        assert bracket[0] <= 1.0 < bracket[1] + 1e-12

    def test_fixed_force_constant_never_transitions(self, capsys):
        code, doc = run_json(
            capsys, "scan", "--k", "1.0", "--scan", "gamma",
            "--start", "0.0", "--stop", "2.0", "--step", "0.25", "-n", "5",
        )
        assert code == 0
        assert doc["diagnostics"]["transition_bracket"] is None
        assert all(not row["transition"] for row in doc["results"]["rows"])

    def test_margin_sign_change(self, capsys):
        code, doc = run_json(
            capsys, "scan", "--rm-alpha", "0.0", "--scan", "rm-beta",
            "--start", "0.5", "--stop", "1.5", "--step", "0.125", "-n", "4",
        )
        assert code == 0
        bracket = doc["diagnostics"]["margin_sign_change_bracket"]
        assert bracket is not None and bracket[0] < 1.0 <= bracket[1]

    def test_requires_range(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--alpha", "1.0", "--scan", "gamma")
        assert code == 2 and "--start" in err

    def test_unknown_parameter(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--alpha", "1.0", "--scan", "bogus",
            "--start", "0", "--stop", "1", "--step", "0.5",
        )
        assert code == 2 and "cannot scan" in err

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "1.0", "--scan", "gamma",
            "--start", "0.0", "--stop", "0.5", "--step", "0.25", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,value,max_imag,margin,transition"
        assert len(lines) == 4


class TestVerify:
    def test_identity_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--u11", "1", "--u12", "0", "--u21", "0", "--u22", "1",
            "-N", "60", "-n", "5",
        )
        assert code == 0
        assert doc["diagnostics"]["passed"] is True

    def test_mix_transform_passes(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--rm-alpha", "0.3", "--rm-beta", "0.2",
            "-N", "120", "-n", "6",
        )
        assert code == 0
        assert doc["results"]["isospectral"]["passed"] is True
        assert doc["results"]["eta"]["biorthonormality_defect"] <= 1e-8
        assert doc["diagnostics"]["normalizable"]["flag"] is True

    def test_gauge_with_scaled_base(self, capsys):
        # conjugating p^2/2 + (a^2+b^2) x^2/2 by the gauge transform gives the
        # shifted-momentum oscillator; spectrum sqrt(a^2+b^2) (n + 1/2)
        alpha, beta = 1.0, 0.5
        code, doc = run_json(
            capsys, "verify", "--gauge-g", str(beta), "--base-k", str(alpha**2 + beta**2),
            "-N", "100", "-n", "5",
        )
        assert code == 0
        level0 = doc["results"]["isospectral"]["levels"][0]
        assert abs(level0["reference"]["re"] - 0.5 * (alpha**2 + beta**2) ** 0.5) < 1e-12

    def test_non_normalizable_flagged_and_reported(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--rm-alpha", "0.3", "--rm-beta", "2.0",
            "-N", "80", "-n", "4",
        )
        assert code == 4
        assert doc["diagnostics"]["normalizable"]["flag"] is False
        # the formal truncation is still diagonalized and reported
        assert len(doc["results"]["isospectral"]["levels"]) == 4

    def test_bad_base_exits_before_solving(self, capsys, monkeypatch):
        calls = []
        solve = spectra.parity_spectrum

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectra, "parity_spectrum", spy)
        code, out, err = run_cli(
            capsys, "verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--base-k", "-1",
            "-N", "40", "-n", "4",
        )
        assert (code, out) == (2, "")
        assert err == "nhosc: error: base operator must have a real positive spectral scale\n"
        assert calls == []

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise spectra.DegenerateEigenvaluesError("forced collision")

        monkeypatch.setattr(spectra, "eta_check", explode)
        code, _, err = run_cli(
            capsys, "verify", "--rm-alpha", "0.3", "--rm-beta", "0.2",
            "-N", "60", "-n", "4",
        )
        assert code == 3
        assert "numeric failure" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--h11", "0.4", "--h12", "0.3", "--h22", "0.6", "-N", "40", "-n", "4"],
    ["spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "40", "-n", "4"],
    ["spectrum", "--gamma", "0.3", "--alpha", "1", "-N", "40", "-n", "4", "--omega", "0.7"],
    ["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "40", "-n", "4"],
    ["verify", "--gauge-g", "0.3", "-N", "40", "-n", "4", "--base-k", "2"],
    ["verify", "--u11", "1", "--u12", "0", "--u21", "0.2j", "--u22", "1", "-N", "40", "-n", "4"],
])
def test_truncation_never_enters_the_qr_fallback(capsys, monkeypatch, argv):
    """QL solves every parity block of spectrum and verify: it never breaks
    down and hands a segment to the Aberth fallback."""
    calls = []
    aberth = linalg._aberth

    def spy(d, e, lowest=None):
        calls.append("aberth")
        return aberth(d, e, lowest)

    monkeypatch.setattr(linalg, "_aberth", spy)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, calls) == (0, "", [])
    assert out


def test_near_defective_exit_names_the_level(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--rm-alpha", "0.6", "--rm-beta", "0.6", "-N", "160", "-n", "24",
    )
    assert (code, out) == (3, "")
    named = re.fullmatch(
        r"nhosc: numeric failure: near-defective pair: vanishing biorthogonal overlap "
        r"at level (\d+), eigenvalue (\S+), \|<chi\|phi>\| = (\S+)\n", err)
    assert named, err
    level = int(named[1])
    assert 0 <= level < 24
    # the named eigenvalue is that level's, near level + 1/2
    assert abs(complex(named[2]).real - (level + 0.5)) < 1
    assert float(named[3]) < 1e-12


class TestWavefunction:
    def test_mix_ground_state(self, capsys):
        code, doc = run_json(
            capsys, "wavefunction", "--rm-alpha", "0.3", "--rm-beta", "0.2",
            "--grid-points", "801",
        )
        assert code == 0
        results = doc["results"]
        assert abs(results["norm"] - 1.0) < 1e-8
        assert results["nodes"] == 0

    @pytest.mark.parametrize("state, omega", [
        (["--level", "3", "--omega", "5e-324"], "5e-324"),
        (["--level", "3", "--omega", "1e-320"], "1e-320"),
        (["--level", "3", "--omega", "1e-315"], "1e-315"),
        # the mix ground state of width (1 - beta)/(1 + alpha)
        (["--rm-alpha", "1e300", "--rm-beta", "0.9999999999999998"], "2.71332854e-316"),
        # the + branch frequency h22/(sqrt(D) + h12)
        (["--h11", "1", "--h12", "1", "--h22", "1e-310"], "5e-311"),
    ], ids=["level-5e-324", "level-1e-320", "level-1e-315", "mix", "eigenvector"])
    def test_subnormal_frequency_is_refused(self, capsys, state, omega):
        assert run_cli(capsys, "wavefunction", *state) == (
            2, "", "nhosc: error: frequency must be at least the smallest normal double "
            f"2.2250738585072014e-308, got {omega}\n")

    @pytest.mark.parametrize("state", [
        ["--level", "3", "--omega", repr(sys.float_info.min)],
        ["--rm-alpha", repr(2.0**1022 - 1), "--rm-beta", "0"],
        ["--h11", "1", "--h12", "1", "--h22", repr(2 * sys.float_info.min)],
    ], ids=["level", "mix", "eigenvector"])
    def test_smallest_normal_frequency_is_sampled(self, capsys, state):
        code, doc = run_json(capsys, "wavefunction", *state)
        assert code == 0 and doc["results"]["omega"] == sys.float_info.min
        assert abs(doc["results"]["norm"] - 1.0) < 1e-12

    def test_high_level_far_grid(self, capsys):
        # the Gaussian underflows beyond |x| = 38.6, where level 1000 is O(0.1)
        code, doc = run_json(
            capsys, "wavefunction", "--level", "1000", "--grid-span", "50",
            "--grid-points", "20001",
        )
        assert code == 0
        assert abs(doc["results"]["norm"] - 1.0) < 1e-10
        assert doc["results"]["nodes"] == 1000

    def test_oscillator_level_nodes(self, capsys):
        code, doc = run_json(
            capsys, "wavefunction", "--level", "3", "--omega", "1.0",
            "--grid-points", "1201",
        )
        assert code == 0
        assert doc["results"]["nodes"] == 3

    def test_eigenvector_synthesis(self, capsys):
        code, doc = run_json(
            capsys, "wavefunction", "--h11", "0.4", "--h12", "0.3", "--h22", "0.6",
            "--branch", "+", "--excitation", "2", "--parity", "0",
            "--grid-points", "801",
        )
        assert code == 0
        assert doc["results"]["nodes"] == 4

    def test_negative_branch_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "wavefunction", "--h11", "0.4", "--h12", "0.3", "--h22", "0.6",
            "--branch", "-", "--excitation", "1", "--parity", "0",
        )
        assert code == 2
        assert "imaginary axis" in err

    def test_boundary_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "wavefunction", "--rm-alpha", "0.3", "--rm-beta", "1.0",
        )
        assert code == 2
        assert "square integrable" in err

    @pytest.mark.parametrize("alpha, beta, message", [
        ("0.3", "1.0", "state is not square integrable (margin 0)"),
        ("-1.5", "0.2", "state is not square integrable (margin -1.6)"),
        ("-1", "0.2", "degenerate transform: u22 - i u12 vanishes"),
    ])
    def test_outside_region_messages(self, capsys, alpha, beta, message):
        code, out, err = run_cli(capsys, "wavefunction", f"--rm-alpha={alpha}",
                                 f"--rm-beta={beta}")
        assert (code, out, err) == (2, "", f"nhosc: error: {message}\n")

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.2), (-0.6, 0.9), (1.4, -0.9), (0.0, 0.0),
                                             (-2.0, 3.0), (-2.0, 2.0)])
    def test_mix_ground_state_is_the_gaussian_of_the_margin(self, capsys, alpha, beta):
        # width (1 - beta)/(1 + alpha) whether s = 1/sqrt(1 + alpha beta) is
        # real or imaginary; at (0, 0) the state is the oscillator's
        code, doc = run_json(capsys, "wavefunction", f"--rm-alpha={alpha}",
                             f"--rm-beta={beta}", "--grid-points", "801")
        assert code == 0
        width = doc["results"]["omega"]
        assert abs(width - (1 - beta) / (1 + alpha)) <= 4 * np.spacing(width)
        x = np.array(doc["results"]["x"])
        expected = (width / math.pi) ** 0.25 * np.exp(-0.5 * width * x * x)
        assert np.abs(np.array(doc["results"]["value_re"]) - expected).max() <= 1e-15
        assert not any(doc["results"]["value_im"])

    def test_mix_ground_state_unit_norm_across_region(self, capsys):
        for alpha in np.linspace(-0.6, 1.4, 5):
            for beta in np.linspace(-0.9, 0.9, 5):
                code, doc = run_json(capsys, "wavefunction", f"--rm-alpha={float(alpha)!r}",
                                     f"--rm-beta={float(beta)!r}", "--grid-points", "2001")
                assert code == 0
                assert abs(doc["results"]["norm"] - 1.0) < 1e-10

    def test_mix_ground_state_exists_where_spectrum_is_normalizable(self, capsys):
        """One region rule: the state is sampled exactly where `spectrum` runs and
        reports a normalizable transform, including beta > 1 with alpha < -1,
        1 + alpha beta < 0, alpha = -1, and points within 1e-14 and within
        1e-12 to 1e-9 of the singular line 1 + alpha beta = 0.  A null verdict
        (alpha = -1, the degenerate line) is not normalizable."""
        rng = np.random.default_rng(4711)
        points = [(1.0, -1.0), (-2.0, 3.0), (-2.0, 2.0)]
        points += [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(80)]
        points += [(-rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)) for _ in range(40)]
        points += [(-1.0, rng.uniform(-3.0, 3.0)) for _ in range(20)]
        # refused by both within 1e-12 of the line, admissible beyond it
        for offset in [rng.uniform(-1e-14, 1e-14) for _ in range(40)] + [
                rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -9) for _ in range(20)]:
            alpha = rng.choice((-1, 1)) * rng.uniform(0.3, 3.0)
            points.append((alpha, -(1.0 + offset) / alpha))
        sampled = normalizable = 0
        for alpha, beta in points:
            flags = (f"--rm-alpha={float(alpha)!r}", f"--rm-beta={float(beta)!r}")
            code, out, _ = run_cli(capsys, "spectrum", *flags, "-N", "8", "-n", "2")
            verdict = json.loads(out)["diagnostics"]["normalizable"] if code == 0 else None
            allowed = verdict is not None and verdict["flag"]
            code, _, _ = run_cli(capsys, "wavefunction", *flags, "--grid-points", "101")
            assert (code == 0) == allowed, (alpha, beta)
            sampled += code == 0
            normalizable += allowed
        assert sampled == normalizable and 0 < sampled < len(points)

    @pytest.mark.parametrize("level", [17, 18, 60, 200])
    def test_high_level_on_its_default_grid(self, capsys, level):
        code, doc = run_json(capsys, "wavefunction", "--level", str(level))
        assert code == 0
        # the grid reaches past the turning point sqrt(2n+1); a fixed +-12
        # grid reads norm 0.999995 at level 60 and 0.639 at level 200
        assert doc["diagnostics"]["grid_span"] == max(12.0, math.sqrt(2 * level + 1) + 6.0)
        assert abs(doc["results"]["norm"] - 1.0) <= 1e-13
        assert doc["results"]["nodes"] == level

    @pytest.mark.parametrize("level, points", [(650, 4001), (700, 4141), (1500, 8480),
                                               (3000, 16467)])
    def test_default_grid_resolves_every_level(self, capsys, level, points):
        # 4 points per node spacing pi/sqrt(2n+1); 4001 at 4001 points read
        # norm 1 - 4e-3 at level 1500 and 0.985 with 2964 nodes at level 3000
        code, doc = run_json(capsys, "wavefunction", "--level", str(level))
        assert code == 0
        assert doc["diagnostics"]["grid_points"] == doc["config"]["grid_points"] == points
        assert abs(doc["results"]["norm"] - 1.0) <= 1e-10
        assert doc["results"]["nodes"] == level

    def test_too_few_grid_points_for_the_level(self, capsys):
        code, out, err = run_cli(capsys, "wavefunction", "--level", "1500",
                                 "--grid-points", "8479")
        assert (code, out) == (2, "")
        assert err == ("nhosc: error: level 1500 needs at least 8480 grid-points on the "
                       "default grid, 4 per node spacing; got 8479\n")
        assert run_cli(capsys, "wavefunction", "--level", "1500", "--grid-points", "8480")[0] == 0

    @pytest.mark.parametrize("span", ["0", "-3"])
    def test_span_must_be_positive(self, capsys, span):
        assert run_cli(capsys, "wavefunction", "--level", "1", f"--grid-span={span}",
                       "--grid-points", "5") == (
            2, "", f"nhosc: error: grid-span must be positive, got {float(span)}\n")

    def test_span_grid_too_coarse_for_the_level(self, capsys):
        # 4001 points on +-70 read norm 0.9977 at level 1500, silently
        code, out, err = run_cli(capsys, "wavefunction", "--level", "1500", "--grid-span", "70",
                                 "--grid-points", "4001")
        assert (code, out) == (2, "")
        assert err == ("nhosc: error: level 1500 needs a grid spacing of at most 0.014337, "
                       "4 per node spacing; --grid-span 70 with 4001 grid-points spaces them "
                       "0.035\n")
        # 140 / 0.0143369537 = 9764.98 steps
        assert run_cli(capsys, "wavefunction", "--level", "1500", "--grid-span", "70",
                       "--grid-points", "9765")[0] == 2
        code, doc = run_json(capsys, "wavefunction", "--level", "1500", "--grid-span", "70",
                             "--grid-points", "9766")
        assert code == 0
        assert abs(doc["results"]["norm"] - 1.0) <= 1e-10
        assert doc["results"]["nodes"] == 1500

    @pytest.mark.parametrize("excitation", ["300", "400"])
    def test_high_excitation_state_is_normalized(self, capsys, excitation):
        # the coefficients' sum of squares overflows before they are normalized
        code, doc = run_json(capsys, "wavefunction", "--h11", "0.5", "--h12", "0.2",
                             "--h22", "0.5", "--excitation", excitation)
        assert code == 0
        assert abs(doc["results"]["norm"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("argv, code, message", [
        (["--excitation", "600"], 3,
         "numeric failure: eigenvector coefficients of excitation 600 overflow"),
        (["--excitation", "100000"], 2,
         "error: level 200000 needs 1028259 grid-points by default, more than the 1000000 "
         "allowed"),
        (["--excitation", str(10 ** 400)], 2,
         f"error: level {2 * 10 ** 400} needs more grid-points than the 1000000 allowed"),
    ], ids=["600", "100000", "10**400"])
    def test_excitation_out_of_reach(self, argv, code, message):
        got = run_quiet(["wavefunction", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", *argv])
        assert got == (code, "", f"nhosc: {message}\n", [])

    @pytest.mark.parametrize("span", [[], ["--grid-span", "1"]])
    def test_level_beyond_float_range(self, capsys, span):
        assert run_cli(capsys, "wavefunction", "--level", str(10 ** 400), *span) == (
            2, "", f"nhosc: error: level {10 ** 400} needs more grid-points than the 1000000 "
            "allowed\n")

    def test_csv_has_constant_summary_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--level", "1", "--grid-points", "54",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value_re,value_im,norm,nodes"
        assert len(lines) == 55


class TestUnreadFlags:
    """A model or state flag that the chosen family or state does not read
    exits 2 and names the flag."""

    SCAN = ["--start", "0", "--stop", "1", "--step", "0.5"]

    @pytest.mark.parametrize("argv, flag, reader", [
        (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "--alpha", "3"],
         "--alpha", "--gamma"),
        (["spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--k", "2"], "--k", "--gamma"),
        (["scan", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--scan", "k"] + SCAN,
         "--k", "--gamma"),
        (["scan", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "--scan", "alpha"] + SCAN,
         "--alpha", "--gamma"),
        (["scan", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--alpha", "1", "--scan", "rm-beta"]
         + SCAN, "--alpha", "--gamma"),
        (["wavefunction", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--omega", "5"],
         "--omega", "--level"),
        (["wavefunction", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "--omega", "5"],
         "--omega", "--level"),
        (["wavefunction", "--level", "2", "--parity", "1"], "--parity", "--h11/--h12/--h22"),
        (["wavefunction", "--level", "2", "--excitation", "1"],
         "--excitation", "--h11/--h12/--h22"),
        (["wavefunction", "--rm-alpha", "0.3", "--rm-beta", "0.2", "--branch", "-"],
         "--branch", "--h11/--h12/--h22"),
    ])
    def test_rejected(self, capsys, argv, flag, reader):
        assert run_cli(capsys, *argv) == (2, "", f"nhosc: error: {flag} is read only with "
                                                 f"{reader}\n")

    MODEL = ("specify exactly one model family: --h11/--h12/--h22, --rm-alpha/--rm-beta, "
             "or --gamma with --alpha or --k")
    TRANSFORM = ("specify exactly one transform: --rm-alpha/--rm-beta, --gauge-g, "
                 "or --u11/--u12/--u21/--u22")
    STATE = ("specify exactly one state: --rm-alpha/--rm-beta (ground state), --level with "
             "--omega, or --h11/--h12/--h22 with --branch/--excitation/--parity")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "--rm-alpha", "0.1",
          "--rm-beta", "0.1"], MODEL),
        (["scan", "--alpha", "1", "--scan", "k"] + SCAN, MODEL),
        (["verify", "--rm-alpha", "0.3", "--gauge-g", "1", "-N", "40", "-n", "4"], TRANSFORM),
        (["verify", "-N", "40", "-n", "4"], TRANSFORM),
        (["wavefunction", "--level", "1", "--rm-alpha", "0.3"], STATE),
        (["wavefunction"], STATE),
        (["spectrum", "--h11", "0.5", "--h12", "0.1"],
         "the three-parameter model needs --h11, --h12 and --h22"),
        (["spectrum", "--rm-beta", "0.3"], "the mix model needs both --rm-alpha and --rm-beta"),
        (["scan", "--gamma", "0.3", "--scan", "gamma"] + SCAN, "--gamma needs --alpha or --k"),
        (["verify", "--rm-alpha", "0.3", "-N", "40", "-n", "4"],
         "the mix transform needs both --rm-alpha and --rm-beta"),
        (["verify", "--u11", "1", "--u12", "0", "-N", "40", "-n", "4"],
         "the explicit transform needs all four matrix entries"),
        (["wavefunction", "--rm-alpha", "0.3"],
         "the mix ground state needs both --rm-alpha and --rm-beta"),
        (["wavefunction", "--h11", "0.5", "--h12", "0.1"],
         "the eigenvector state needs --h11, --h12 and --h22"),
    ])
    def test_choice_messages(self, capsys, argv, message):
        """No group chosen, two chosen, or the chosen one incomplete."""
        assert run_cli(capsys, *argv) == (2, "", f"nhosc: error: {message}\n")

    @pytest.mark.parametrize("argv, text, flag", [
        (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5"], "alpha = 3", "--alpha"),
        (["wavefunction", "--rm-alpha", "0.3", "--rm-beta", "0.2"], "omega = 5", "--omega"),
    ])
    def test_config_file_values_count_as_set(self, capsys, tmp_path, argv, text, flag):
        config = tmp_path / "run.cfg"
        config.write_text(text + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"nhosc: error: {flag} is read only with")

    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--level", "2", "--omega", "0.5"],
        ["wavefunction", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "--branch", "+",
         "--excitation", "1", "--parity", "1"],
        ["spectrum", "--gamma", "0.3", "--alpha", "1", "--k", "2"],
    ])
    def test_read_flags_accepted(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    def test_scan_of_a_parameter_the_model_does_not_read(self, capsys, tmp_path):
        # with --k set, ahmed_hermitian ignores alpha, so every row would be the same
        message = ("nhosc: error: cannot scan alpha: with --k set, the gamma model does not "
                   "read --alpha\n")
        argv = ["scan", "--gamma", "0.5", "--scan", "alpha"] + self.SCAN
        assert run_cli(capsys, *argv, "--k", "2") == (2, "", message)
        config = tmp_path / "run.cfg"
        config.write_text("k = 2\n")
        assert run_cli(capsys, *argv, "--config", str(config)) == (2, "", message)

    def test_spectrum_has_no_tol_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "--tol", "1e-8"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gamma", "--alpha", "--k"])
    def test_wavefunction_has_no_gamma_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            cli.main(["wavefunction", "--level", "1", flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_missing_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = 0.5\nlevels = 3\ntrunc = 16\n")
        code, doc = run_json(capsys, "spectrum", "--config", str(config))
        assert code == 0
        assert len(doc["results"]["numeric"]) == 3

    def test_flags_override_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = 0.5\nlevels = 3\ntrunc = 16\n")
        code, doc = run_json(capsys, "spectrum", "--config", str(config), "-n", "2")
        assert code == 0
        assert len(doc["results"]["numeric"]) == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2 and "unknown key" in err

    @pytest.mark.parametrize("argv, text, key", [
        (["wavefunction", "--level", "1", "--grid-points", "101"], "alpha = 3", "alpha"),
        (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "-n", "2", "-N", "12"],
         "tol-eta = 5", "tol-eta"),
        # spectrum compares its levels with the closed form but applies no tolerance
        (["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "-n", "2", "-N", "12"],
         "tol = 1e-8", "tol"),
    ])
    def test_key_of_another_subcommand_rejected(self, capsys, tmp_path, argv, text, key):
        config = tmp_path / "run.cfg"
        config.write_text(text + "\n")
        assert run_cli(capsys, *argv, "--config", str(config)) == (
            2, "", f"nhosc: error: {config}: key {key!r} is not read by {argv[0]}\n")

    def test_comments_and_blanks(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# oscillator\n\nh11 = 0.5\nh12 = 0  # none\nh22 = 0.5\n")
        code, _ = run_json(capsys, "spectrum", "--config", str(config), "-n", "2", "-N", "12")
        assert code == 0

    def test_value_outside_the_flags_choices(self, capsys, tmp_path):
        # the file is held to the flag's choices, as --format xml is
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = 0.5\nformat = xml\n")
        assert run_cli(capsys, "spectrum", "--config", str(config), "-n", "2", "-N", "12") == (
            2, "", f"nhosc: error: {config}:4: bad value for format: invalid choice: 'xml' "
                   "(choose from 'json', 'csv')\n")
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = 0.5\nformat = csv\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(config), "-n", "2", "-N", "12")
        assert code == 0 and out.startswith("n,eigen_re,")


class TestOutputFile:
    def test_out_path(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5",
            "-n", "2", "-N", "12", "--out", str(out_path),
        )
        assert code == 0
        assert stdout == ""
        doc = json.loads(out_path.read_text())
        assert doc["config"]["command"] == "spectrum"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-N", "8", "-n", "2"],
        ["scan", "--alpha", "1", "--scan", "gamma", "--start", "0", "--stop", "1", "--step", "0.5"],
        ["verify", "--gauge-g", "0.3", "-N", "16", "-n", "2"],
        ["wavefunction", "--level", "0"],
    ])
    def test_unwritable_path_is_a_config_error(self, capsys, tmp_path, argv):
        for path, reason in ((tmp_path / "missing" / "x", "No such file or directory"),
                             (tmp_path, "Is a directory")):
            assert run_cli(capsys, *argv, "--out", str(path)) == (
                2, "", f"nhosc: error: {path}: cannot write output file: {reason}\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nhosc", "spectrum", "--h11", "0.5", "--h12", "0",
         "--h22", "0.5", "-n", "2", "-N", "12"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["numeric"][0]["eigenvalue"]["re"] == 0.5


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "nhosc", "unknown-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


class TestExitCodes:
    """Non-finite options exit 2; overflow while computing exits 3."""

    def test_verify_nan_entry_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--u11", "nan", "--u12", "0", "--u21", "0", "--u22", "1",
            "-N", "40", "-n", "4",
        )
        assert code == 2 and out == "" and "u11 must be finite" in err

    def test_spectrum_nan_parameter_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--gamma", "nan", "--alpha", "1", "-N", "20", "-n", "2"
        )
        assert code == 2 and out == "" and "gamma must be finite" in err

    def test_scan_infinite_stop_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--alpha", "1", "--scan", "gamma",
            "--start", "0", "--stop", "inf", "--step", "0.1",
        )
        assert code == 2 and out == "" and "stop must be finite" in err

    def test_verify_gauge_overflow_is_numeric_failure(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--gauge-g", "1e200", "-N", "40", "-n", "4")
        assert code == 3 and out == "" and "numeric failure" in err

    def test_critical_frequencies_of_a_tiny_h11(self, capsys):
        # (sqrt(D) - h12)/h11 cancels here: it read 0.499933427988708, and 0
        # at h11 = 1e-17, where the eigenvector state then exited 2
        code, doc = run_json(capsys, "spectrum", "--h11", "1e-12", "--h12", "0.5", "--h22",
                             "0.5", "-N", "8", "-n", "2")
        assert code == 0
        assert doc["results"]["critical_frequencies"]["omega_plus"] == 0.49999999999975
        code, doc = run_json(capsys, "wavefunction", "--h11", "1e-17", "--h12", "0.5",
                             "--h22", "0.5")
        assert code == 0 and doc["results"]["omega"] == 0.5 and doc["results"]["nodes"] == 0

    def test_overflowing_discriminant_with_finite_frequencies(self, capsys):
        # D = h11 h22 + h12^2 overflows (it exited 3, "frequency of the +
        # branch overflows: inf"), the frequencies are those of (1, 1, 1)
        code, doc = run_json(capsys, "wavefunction", "--h11", "1e200", "--h12", "1e200",
                             "--h22", "1e200")
        assert code == 0 and doc["results"]["nodes"] == 0
        assert doc["results"]["omega"] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    def test_near_singular_mix_determinant(self, capsys):
        # at 1 + alpha beta = 1e-8 the determinant rounds to 1 + 1.5e-8, within
        # its bound relative to |u11 u22| + |u21 u12| = 2e8; it exited 2
        code, doc = run_json(capsys, "spectrum", "--rm-alpha", "1", "--rm-beta=-0.99999999",
                             "-N", "8", "-n", "2")
        assert code == 0 and doc["diagnostics"]["normalizable"]["flag"] is True
        # a determinant that is wrong, not rounded, still exits 2
        assert run_cli(capsys, "verify", "--u11", "2", "--u12", "0", "--u21", "0", "--u22", "1",
                       "-N", "40", "-n", "4") == (
            2, "", "nhosc: error: determinant must be 1, measured (2+0j)\n")

    def test_config_file_values_checked(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = inf\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(config), "-N", "8", "-n", "2")
        assert code == 2 and out == "" and "h22 must be finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_output_is_numeric_failure(self, capsys, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "spectrum", "--h11", "1e200", "--h12", "0", "--h22", "1e200",
                "-N", "8", "-n", "2", "--format", fmt,
            )
        assert code == 3 and out == "" and "non-finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_scan_row_is_numeric_failure(self, capsys, fmt):
        # every point builds, but h11 h22 overflows in max_imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "scan", "--h11", "1e300", "--h22", "1e300", "--scan", "h12",
                "--start", "0", "--stop", "1", "--step", "0.5", "--format", fmt,
            )
        assert code == 3 and out == "" and "non-finite" in err

    def test_overflow_in_model_is_numeric_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--gamma", "1e200", "--alpha", "1e200", "-N", "8", "-n", "2"
        )
        assert code == 3 and out == ""
        assert err == "nhosc: numeric failure: c_xx must be finite, got (nan+0j)\n"
        # the mix family's transform overflows first, as in every subcommand
        assert run_cli(capsys, "spectrum", "--rm-alpha", "1e200", "--rm-beta", "1e200",
                       "-N", "8", "-n", "2") == (
            3, "", "nhosc: numeric failure: mix transform overflows: "
                   "1 + alpha*beta = (inf+0j)\n")

    def test_overflow_in_ladder_form_is_numeric_failure(self):
        # c_xx / (2 omega) overflows
        code, out, err, caught = run_quiet([
            "spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5",
            "-N", "40", "-n", "4", "--omega", "1e-310",
        ])
        assert caught == [] and (code, out) == (3, "")
        assert err == "nhosc: numeric failure: number-basis matrix of size 40 overflows\n"

    @pytest.mark.parametrize("command, message", [
        ("verify --rm-alpha 1e200 --rm-beta 1e200 -N 40 -n 4",
         "mix transform overflows: 1 + alpha*beta = (inf+0j)"),
        ("wavefunction --h11 1e-300 --h12=-1e300 --h22 1",
         "frequency of the + branch overflows: inf"),
        ("verify --gauge-g 1e300 -N 40 -n 4",
         "quadratic image under the transform overflows: transform entries up to 1e+300, "
         "quadratic coefficients up to 0.5 in modulus"),
        ("verify --u11 1e200 --u12 0 --u21 0 --u22 1e-200 -N 40 -n 4",
         "quadratic image under the transform overflows: transform entries up to 1e+200, "
         "quadratic coefficients up to 0.5 in modulus"),
    ])
    def test_overflow_is_named_numeric_failure(self, command, message):
        code, out, err, caught = run_quiet(command.split())
        assert caught == [] and (code, out) == (3, "")
        assert err == f"nhosc: numeric failure: {message}\n"

    @pytest.mark.parametrize("argv, value", [
        (["spectrum", "--omega", "0"], "0.0"),
        (["spectrum", "--omega", "-1"], "-1.0"),
        (["verify", "--omega", "-2"], "-2.0"),
    ])
    def test_non_positive_omega_rejected(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"nhosc: error: omega must be positive, got {value}\n"

    def test_overflow_in_number_basis_matrix_is_numeric_failure(self):
        code, out, err, caught = run_quiet(
            ["verify", "--gauge-g", "0.3", "-N", "40", "-n", "4", "--base-k", "1e308"])
        assert caught == [] and (code, out) == (3, "")
        assert err == "nhosc: numeric failure: number-basis matrix of size 40 overflows\n"

    def test_unreadable_config_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_cli(capsys, "spectrum", "--config", str(missing))
        assert code == 2 and out == ""
        assert err == f"nhosc: error: {missing}: cannot read config file: No such file or directory\n"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run_quiet(argv):
    """(exit code, stdout, stderr, warnings) of an in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestHugeCoefficients:
    """Finite but huge coefficients: no numpy warning, a clean exit code."""

    def test_verify(self):
        code, out, err, caught = run_quiet(["verify", "--gauge-g", "1e100", "-N", "40", "-n", "4"])
        assert caught == []
        # the scaled truncation solves; its levels are far from n + 1/2
        assert code == 4 and err == ""
        doc = strict_json(out)
        assert doc["diagnostics"]["passed"] is False
        assert doc["results"]["isospectral"]["passed"] is False

    def test_wavefunction_grid_width_overflows(self):
        # a span whose width overflows is spaced far wider than any level allows
        code, out, err, caught = run_quiet(["wavefunction", "--level", "1", "--grid-span", "1e308"])
        assert caught == [] and (code, out) == (2, "")
        assert err == ("nhosc: error: level 1 needs a grid spacing of at most 0.45345, 4 per "
                       "node spacing; --grid-span 1e+308 with 4001 grid-points spaces them "
                       "5e+304\n")

    def test_wavefunction_span_grid_spacing_stays_finite(self):
        argv = ["wavefunction", "--level", "2", "--grid-span", "1.7e308", "--grid-points", "5"]
        code, out, err, caught = run_quiet(argv)
        assert caught == [] and (code, out) == (2, "")
        assert err == ("nhosc: error: level 2 needs a grid spacing of at most 0.351241, 4 per "
                       "node spacing; --grid-span 1.7e+308 with 5 grid-points spaces them "
                       "8.5e+307\n")

    def test_wavefunction_grid_too_wide_for_state(self):
        # every sample but the one at 0, where level 1 vanishes, would underflow
        argv = ["wavefunction", "--level", "1", "--grid-span", "1e300", "--grid-points", "5"]
        code, out, err, caught = run_quiet(argv)
        assert caught == [] and (code, out) == (2, "")
        assert err == ("nhosc: error: level 1 needs a grid spacing of at most 0.45345, 4 per "
                       "node spacing; --grid-span 1e+300 with 5 grid-points spaces them "
                       "5e+299\n")

    # `inside` is how many of the grid points lie within the state's half-width
    @pytest.mark.parametrize("argv, inside", [
        # one nonzero sample, 5e299 wide: the norm would read 4.3e149
        (["--level", "0", "--grid-span", "1e300", "--grid-points", "5"], "1 of the 5"),
        # sqrt(omega) x would overflow on the grid
        (["--level", "1", "--omega", "1e200", "--grid-span", "1e250", "--grid-points", "5"],
         "1 of the 5"),
        (["--rm-alpha", "0.3", "--rm-beta", "0.2", "--grid-span", "100", "--grid-points", "9"],
         "1 of the 9"),
        (["--h11", "0.4", "--h12", "0.3", "--h22", "0.6", "--grid-span", "1e5",
          "--grid-points", "4001"], "1 of the 4001"),
    ])
    def test_wavefunction_grid_too_coarse_for_state(self, argv, inside):
        code, out, err, caught = run_quiet(["wavefunction", *argv])
        assert caught == [] and (code, out) == (2, "")
        assert err.startswith("nhosc: error: level ")
        assert f" with {inside.split()[-1]} grid-points spaces them " in err
        assert err.count("\n") == 1

    def test_wavefunction_grid_with_three_points_on_the_state(self):
        # the coarsest span grid level 0 accepts, 4 points per pi/sqrt(w)
        argv = ["wavefunction", "--level", "0", "--grid-span", "12", "--grid-points"]
        assert run_quiet(argv + ["31"])[:2] == (2, "")
        code, out, err, caught = run_quiet(argv + ["32"])
        assert caught == [] and (code, err) == (0, "")
        doc = strict_json(out)
        assert doc["results"]["x"][::31] == [-12.0, 12.0]
        assert abs(doc["results"]["norm"] - 1.0) <= 1e-7

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spectrum_scale_overflows(self, fmt):
        # D = h11 h22 + h12^2 is 0, but each product overflows
        argv = ["spectrum", "--h11", "1e200", "--h12", "1e200", "--h22=-1e200", "-N", "8",
                "-n", "2", "--format", fmt]
        assert run_quiet(argv) == (
            3, "", "nhosc: numeric failure: non-finite spectrum scale: c_pp c_xx - c_xp^2 "
            "overflows for coefficients up to 1e+200 in modulus\n", [])

    def test_spectrum(self):
        argv = ["spectrum", "--h11", "1e160", "--h12", "0.3", "--h22", "0.5", "-N", "40", "-n", "4"]
        code, out, err, caught = run_quiet(argv)
        assert caught == []
        # spectrum reports and does not judge: the solve succeeds
        assert code == 0 and err == ""
        doc = strict_json(out)
        eigs = [level["eigenvalue"]["re"] for level in doc["results"]["numeric"]]
        assert all(math.isfinite(v) for v in eigs)


@pytest.mark.parametrize("scale, argv", [
    (1e-7, ["--gauge-g", "1e-8", "--base-k", "1e-14", "--omega", "1e-7"]),
    (1e-13, ["--gauge-g", "1e-14", "--base-k", "1e-26", "--omega", "1e-13"]),
])
def test_verify_at_small_scale(scale, argv):
    """`verify --gauge-g 0.1 -N 40 -n 4` with every energy scaled down: the
    levels are scale * (n + 1/2), and their gaps are not taken for degeneracy."""
    code, out, err, caught = run_quiet(["verify", *argv, "-N", "40", "-n", "4"])
    assert (code, err, caught) == (0, "", [])
    doc = strict_json(out)
    assert doc["diagnostics"]["passed"] is True
    levels = [level["eigenvalue"] for level in doc["results"]["isospectral"]["levels"]]
    for n, level in enumerate(levels):
        assert abs(complex(level["re"], level["im"]) - scale * (n + 0.5)) <= 1e-13 * scale


class TestJsonText:
    """_json_text is json.dumps(indent=2, sort_keys=True, allow_nan=False), byte for byte."""

    @staticmethod
    def dumps(document):
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False)

    SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-7, 0.1, 1e16]
    NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]

    @staticmethod
    def documents(scalars):
        keys = st.text(max_size=6)
        return st.recursive(
            scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.lists(children, max_size=3).map(tuple),
                st.dictionaries(keys, children, max_size=5),
            ),
            max_leaves=40,
        )

    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([2**64, -(2**100), 10**40]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.sampled_from(SPECIAL_FLOATS),
        st.text(),
        st.text(alphabet="\"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600", max_size=8),
    )

    @given(documents(scalars))
    @PROPERTY_SETTINGS
    def test_matches_json_dumps(self, document):
        assert cli._json_text(document) == self.dumps(document)

    @given(documents(st.one_of(scalars, st.sampled_from(NON_FINITE))))
    @PROPERTY_SETTINGS
    def test_non_finite_raises_like_json_dumps(self, document):
        try:
            expected = self.dumps(document)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cli._json_text(document)
            assert str(raised.value) == str(exc)
        else:
            assert cli._json_text(document) == expected

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_at_any_depth(self, bad):
        nested = {"a": [1, {"b": [2.0, {"c": bad}]}], "z": [[], {}]}
        message = f"Out of range float values are not JSON compliant: {bad!r}"
        for document in (bad, [bad], {"k": bad}, nested, [[[[bad]]]], (0, (bad,))):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                cli._json_text(document)

    def test_empty_and_scalar_documents(self):
        for document in ([], {}, (), [[]], {"a": {}}, [{}, []], None, True, 3, "x", 1.5):
            assert cli._json_text(document) == self.dumps(document)


def old_indicator(point, levels):
    """The scan indicator as the per-level maximum, the reference for the scan columns."""
    model = cli.resolve_model(point)
    return max(
        abs(spectra.general_quadratic_spectrum(model.quadratic, n).imag) for n in range(levels)
    )


class TestScanIndicator:
    # the mix sweep stays real; the others cross into the broken phase
    @pytest.mark.parametrize("argv, turns_complex", [
        (["scan", "--alpha", "1.0", "--scan", "gamma", "--start", "-1.5", "--stop", "1.5",
          "--step", "0.01"], True),
        (["scan", "--rm-alpha", "0.3", "--scan", "rm-beta", "--start", "-0.9", "--stop", "2.5",
          "--step", "0.01", "-n", "5"], False),
        (["scan", "--h11", "0.5", "--h22", "-0.2", "--scan", "h12", "--start", "-1", "--stop",
          "1", "--step", "0.005", "-n", "13"], True),
        (["scan", "--gamma", "0.5", "--scan", "k", "--start", "-2", "--stop", "2",
          "--step", "0.01", "-n", "3"], True),
    ])
    def test_rows_match_per_level_maximum(self, capsys, argv, turns_complex):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        ns = cli.build_parser().parse_args(argv)
        param = ns.scan.replace("-", "_")
        levels = 8 if ns.levels is None else ns.levels
        rows = doc["results"]["rows"]
        assert any(row["max_imag"] > 0 for row in rows) == turns_complex
        for row in rows:
            point = argparse.Namespace(**vars(ns))
            setattr(point, param, row["value"])
            assert row["max_imag"].hex() == old_indicator(point, levels).hex()


class TestParserReuse:
    SEQUENCE = [
        ["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-N", "16", "-n", "3"],
        ["scan", "--alpha", "1.0", "--scan", "gamma", "--start", "0", "--stop", "2",
         "--step", "0.25", "--format", "csv"],
        ["spectrum", "-N", "abc"],
        ["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "32", "-n", "4"],
        ["wavefunction", "--level", "1", "--grid-points", "11"],
        ["bogus"],
        ["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-N", "16", "-n", "3"],
        ["scan", "--alpha", "1", "--scan", "gamma"],
        ["wavefunction", "--branch", "x"],
        ["verify", "--gauge-g", "0.5", "-N", "24", "-n", "3", "--format", "csv"],
    ]

    def test_in_process_calls_match_fresh_processes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, COLUMNS="80")
        for argv in self.SEQUENCE:
            code, out, err, _ = run_quiet(argv)
            proc = subprocess.run([sys.executable, "-m", "nhosc", *argv], capture_output=True,
                                  text=True, env=env)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_parser_not_built_at_import(self):
        probe = "from nhosc import cli; print(cli._shared_cli.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.stdout == "0\n", proc.stderr


def long_options(parser):
    """(option, action) for every long option of every subcommand."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in commands.choices.values():
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    yield option, action


SAMPLE_TEXT = {float: "0.25", int: "3", complex: "1+2j", str: "json", cli._parse_branch: "-"}


class TestConfigKeys:
    def test_every_long_option_is_a_key_with_its_type(self, tmp_path):
        parser, keys = cli._build()
        options = {}
        for option, action in long_options(parser):
            if option in ("--help", "--config"):
                continue
            options[option[2:]] = (action.dest, action.type or str, action.choices)
        assert keys == options
        assert "help" not in keys and "config" not in keys
        for key, (dest, kind, _) in keys.items():
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = {SAMPLE_TEXT[kind]}\n")
            assert cli.load_config_file(path, keys) == {dest: kind(SAMPLE_TEXT[kind])}

    def test_keys_are_the_union_over_subcommands(self):
        _, keys = cli._build()
        # verify has --gauge-g and --u11, scan has --threshold, wavefunction --grid-points
        for key in ("gauge-g", "u11", "threshold", "grid-points", "rm-alpha", "trunc", "out"):
            assert key in keys
        assert keys["trunc"] == ("trunc", int, None)
        assert keys["u22"] == ("u22", complex, None)
        assert keys["branch"] == ("branch", cli._parse_branch, None)
        assert keys["format"] == ("format", str, ("json", "csv"))

    def test_bad_value_message(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\ntrunc = abc\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2
        assert err == (f"nhosc: error: {config}:2: bad value for trunc: "
                       "invalid literal for int() with base 10: 'abc'\n")


# Numbers for the fuzz test: non-finite values and the edges of the double range
# in one draw out of four, ordinary values otherwise.
FUZZ_SPECIAL = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0]
FUZZ_NUMBERS = st.one_of(
    st.sampled_from(FUZZ_SPECIAL),
    st.floats(-3.0, 3.0),
    st.floats(0.05, 3.0),
    st.floats(-3.0, -0.05),
)
FUZZ_POSITIVE = st.one_of(st.sampled_from(FUZZ_SPECIAL), st.floats(1e-3, 3.0))


def number_flag(name, numbers=FUZZ_NUMBERS):
    return numbers.map(lambda v: f"--{name}={v!r}")


@st.composite
def model_flags(draw):
    family = draw(st.sampled_from(["three_param", "mix", "gamma_alpha", "gamma_k"]))
    names = {"three_param": ("h11", "h12", "h22"), "mix": ("rm-alpha", "rm-beta"),
             "gamma_alpha": ("gamma", "alpha"), "gamma_k": ("gamma", "k")}[family]
    return family, [draw(number_flag(name)) for name in names]


def optional(draw, strategy):
    return [draw(strategy)] if draw(st.booleans()) else []


def run_flags(draw):
    # mostly trunc >= 4 * levels >= 4, which the CLI requires
    levels = draw(st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4)))
    trunc = draw(st.integers(max(1, 4 * levels - 2), 4 * levels + 12))
    return [f"-N={trunc}", f"-n={levels}"]


@st.composite
def spectrum_argv(draw):
    _, flags = draw(model_flags())
    return ["spectrum"] + flags + optional(draw, number_flag("omega")) + run_flags(draw)


@st.composite
def verify_argv(draw):
    kind = draw(st.sampled_from(["mix", "gauge", "matrix"]))
    if kind == "mix":
        flags = [draw(number_flag("rm-alpha")), draw(number_flag("rm-beta"))]
    elif kind == "gauge":
        flags = [draw(number_flag("gauge-g"))]
    else:
        # x -> x, p -> p + c x has unit determinant for every c
        c = draw(FUZZ_NUMBERS)
        flags = ["--u11=1", "--u12=0", f"--u21={c!r}j", "--u22=1"]
    return (["verify"] + flags + optional(draw, number_flag("base-k", FUZZ_POSITIVE))
            + optional(draw, number_flag("omega")) + run_flags(draw)
            + optional(draw, number_flag("tol", FUZZ_POSITIVE))
            + optional(draw, number_flag("tol-eta", FUZZ_POSITIVE)))


@st.composite
def scan_argv(draw):
    family, flags = draw(model_flags())
    param = draw(st.sampled_from({"three_param": ("h11", "h12", "h22"),
                                  "mix": ("rm-alpha", "rm-beta"),
                                  "gamma_alpha": ("gamma", "alpha"),
                                  "gamma_k": ("gamma", "k")}[family]))
    start, span, step = draw(FUZZ_NUMBERS), draw(FUZZ_POSITIVE), draw(FUZZ_POSITIVE)
    with np.errstate(all="ignore"):
        stop = float(np.float64(start) + span)
        count = np.float64(stop - start) / np.float64(step)
    # a finite sweep of more points than this is a long run, not an edge case
    if math.isfinite(count) and count > 200:
        step = (stop - start) / 200
    return (["scan"] + flags + ["--scan", param, f"--start={start!r}", f"--stop={stop!r}",
                                f"--step={step!r}", f"-n={draw(st.integers(0, 13))}"]
            + optional(draw, number_flag("threshold", FUZZ_POSITIVE)))


@st.composite
def wavefunction_argv(draw):
    state = draw(st.sampled_from(["mix", "level", "eigenvector"]))
    if state == "mix":
        flags = [draw(number_flag("rm-alpha")), draw(number_flag("rm-beta"))]
    elif state == "level":
        # levels and excitations stay low: the recurrence's work grows with them
        flags = [f"--level={draw(st.integers(-1, 300))}"] + optional(draw, number_flag("omega"))
    else:
        flags = ([draw(number_flag(name)) for name in ("h11", "h12", "h22")]
                 + optional(draw, st.sampled_from(["--branch=+", "--branch=-"]))
                 + optional(draw, st.integers(-1, 40).map(lambda k: f"--excitation={k}"))
                 + optional(draw, st.integers(-1, 2).map(lambda s: f"--parity={s}")))
    return (["wavefunction"] + flags + optional(draw, number_flag("grid-span", FUZZ_POSITIVE))
            + optional(draw, st.integers(0, 5000).map(lambda n: f"--grid-points={n}")))


FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestFuzz:
    """Every numeric input keeps the exit-code contract and byte determinism."""

    @staticmethod
    def check(argv):
        code, out, err, caught = run_quiet(argv)
        assert caught == [], (argv, caught)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err and "Warning" not in err
        if code in (0, 4):
            strict_json(out)
            assert err == ""
        else:
            # one message, last; argparse puts its usage lines before it
            assert out == ""
            lines = err.splitlines()
            assert sum(line.startswith("nhosc") for line in lines) == 1, err
            assert lines[-1].startswith("nhosc"), err
        assert run_quiet(argv)[:3] == (code, out, err)
        return code

    @given(spectrum_argv())
    @FUZZ_SETTINGS
    def test_spectrum(self, argv):
        self.check(argv)

    @given(verify_argv())
    @FUZZ_SETTINGS
    def test_verify(self, argv):
        self.check(argv)

    @given(scan_argv())
    @FUZZ_SETTINGS
    def test_scan(self, argv):
        self.check(argv)

    @given(wavefunction_argv())
    # the residual of these coefficients has entries whose squares overflow
    @example(["wavefunction", "--h11=1", "--h12=-1e300", "--h22=1e300", "--excitation=10"])
    @FUZZ_SETTINGS
    def test_wavefunction(self, argv):
        assert self.check(argv) != 4


@st.composite
def same_keyed_tables(draw, keys, values):
    """Row tables whose rows share one key set, each row in its own key order."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    return [dict(zip(draw(st.permutations(names)),
                     draw(st.lists(values, min_size=len(names), max_size=len(names)))))
            for _ in range(draw(st.integers(1, 8)))]


class TestJsonRowTables:
    """Lists of dicts, same-keyed or not, are walked a row at a time; the text
    is json.dumps's."""

    # braces, brackets, "%" and NUL in keys and strings
    plain = st.text(alphabet=",:\"\\\n\u00e9xy%\x00", max_size=4)
    braced = st.text(alphabet="xy{}[]%\x00", min_size=1, max_size=3)
    numbers = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.sampled_from(TestJsonText.SPECIAL_FLOATS),
    )
    keys = st.one_of(plain, braced)
    scalars = st.one_of(numbers, plain, braced)
    plain_rows = st.dictionaries(plain, st.one_of(numbers, plain), min_size=1, max_size=5)
    rows = st.dictionaries(keys, scalars, min_size=1, max_size=5)
    # the same row table at the top, as a dict value, and inside a list
    wrappers = st.sampled_from([
        lambda table: table,
        lambda table: {"results": {"rows": table}, "z": 1},
        lambda table: [[table], 0],
    ])

    @given(wrappers, st.lists(st.one_of(
        rows,
        st.lists(rows, min_size=1, max_size=6),
        same_keyed_tables(keys, scalars),
        st.builds(dict),
        scalars,
        st.lists(scalars, max_size=3),
        st.dictionaries(keys, st.lists(scalars, max_size=2), max_size=2),
    ), max_size=6))
    @PROPERTY_SETTINGS
    def test_mixed_lists_match_json_dumps(self, wrap, items):
        document = wrap(items)
        assert cli._json_text(document) == TestJsonText.dumps(document)

    @given(wrappers, st.one_of(st.lists(plain_rows, min_size=1, max_size=8),
                               st.lists(rows, min_size=1, max_size=8),
                               same_keyed_tables(keys, scalars)))
    @PROPERTY_SETTINGS
    def test_row_tables_match_json_dumps(self, wrap, table):
        document = wrap(table)
        assert cli._json_text(document) == TestJsonText.dumps(document)

    @given(st.one_of(st.lists(plain_rows, min_size=1, max_size=8),
                     same_keyed_tables(plain, st.one_of(numbers, plain))), st.data())
    @PROPERTY_SETTINGS
    def test_non_finite_in_any_row(self, table, data):
        bad = data.draw(st.sampled_from(TestJsonText.NON_FINITE))
        index = data.draw(st.integers(0, len(table) - 1))
        key = data.draw(st.sampled_from(sorted(table[index])))
        table[index][key] = bad
        document = {"results": {"rows": table}}
        with pytest.raises(ValueError) as expected:
            TestJsonText.dumps(document)
        with pytest.raises(ValueError) as raised:
            cli._json_text(document)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == f"Out of range float values are not JSON compliant: {bad!r}"


@st.composite
def column_tables(draw, floats):
    """A ColumnTable of 1 to 8 rows: int (range), bool, all-None and float columns."""
    size = draw(st.integers(1, 8))
    kinds = {
        "int": st.integers(-(2**70), 2**70).map(lambda start: range(start, start + size)),
        "bool": st.lists(st.booleans(), min_size=size, max_size=size).map(np.array),
        "none": st.none(),
        "float": st.lists(floats, min_size=size, max_size=size)
        .map(lambda cells: np.array(cells, dtype=np.float64)),
    }
    names = draw(st.lists(TestJsonRowTables.plain, min_size=1, max_size=5, unique=True))
    columns = {name: draw(st.sampled_from(sorted(kinds)).flatmap(kinds.get)) for name in names}
    if all(column is None for column in columns.values()):
        columns[names[0]] = range(size)
    return cli.ColumnTable(columns)


def row_dicts(table):
    keys = list(table.columns)
    return [dict(zip(keys, row)) for row in table.rows(keys)]


class TestColumnTables:
    """A ColumnTable is written as json.dumps writes the list of its rows as dicts."""

    FLOATS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]),
    )
    # the table at the top, as a dict value at two depths, and inside lists
    wrappers = st.sampled_from([
        lambda table: table,
        lambda table: {"results": {"rows": table}, "z": 1},
        lambda table: [[table], 0],
        lambda table: {"a": [{"b": table, "c": [1.5, None]}], "d": {}},
    ])

    @given(wrappers, column_tables(FLOATS))
    @PROPERTY_SETTINGS
    def test_matches_json_dumps_of_row_dicts(self, wrap, table):
        assert cli._json_text(wrap(table)) == TestJsonText.dumps(wrap(row_dicts(table)))

    @given(wrappers, column_tables(st.one_of(FLOATS, st.sampled_from(TestJsonText.NON_FINITE))))
    @PROPERTY_SETTINGS
    def test_non_finite_names_the_first(self, wrap, table):
        rows = row_dicts(table)
        first = [row[key] for row in rows for key in sorted(row)
                 if isinstance(row[key], float) and not math.isfinite(row[key])]
        try:
            expected = TestJsonText.dumps(wrap(rows))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cli._json_text(wrap(table))
            assert str(raised.value) == str(exc)
            assert str(raised.value) == \
                f"Out of range float values are not JSON compliant: {first[0]!r}"
        else:
            assert not first
            assert cli._json_text(wrap(table)) == expected

    def test_rows_in_key_order(self):
        table = cli.ColumnTable({"i": range(2), "x": np.array([0.5, -0.0]), "m": None,
                                 "t": np.array([True, False])})
        assert list(table.rows(["t", "i", "m", "x"])) == [(True, 0, None, 0.5),
                                                          (False, 1, None, -0.0)]

    def test_empty_table(self):
        table = cli.ColumnTable({"a": range(0), "b": np.zeros(0), "c": None})
        for wrap in (lambda rows: rows, lambda rows: {"r": [rows, 1]}):
            assert cli._json_text(wrap(table)) == TestJsonText.dumps(wrap([]))

    @pytest.mark.parametrize("columns", [{"a": None}, {"a": range(2), "b": np.zeros(3)}])
    def test_rejects_columns_without_one_length(self, columns):
        with pytest.raises(ValueError, match="values to unpack"):
            cli.ColumnTable(columns)


LEVELS_TOO_LARGE = (f"nhosc: error: --levels {10 ** 400} is too large: 2n+1 of its top level n "
                    "does not convert to float")


class TestScanModelFamily:
    def test_family_resolved_once_per_scan(self, capsys, monkeypatch):
        calls = []
        family = cli.model_family

        def counted(ns):
            calls.append(ns.gamma)
            return family(ns)

        monkeypatch.setattr(cli, "model_family", counted)
        code, doc = run_json(capsys, "scan", "--alpha", "1", "--scan", "gamma",
                             "--start", "0", "--stop", "2", "--step", "0.2")
        assert code == 0 and len(doc["results"]["rows"]) == 11
        assert calls == [0.0]

    @pytest.mark.parametrize("argv", [
        ["--h11", "0.5", "--h12", "0.2", "--h22", "0.4"],
        ["--rm-alpha", "0.3", "--rm-beta", "0.2"],
        ["--gamma", "0.5", "--alpha", "1"],
        ["--gamma", "0.5", "--k", "2"],
    ])
    def test_resolve_model_is_family_then_builder(self, argv):
        ns = cli.build_parser().parse_args(["spectrum"] + argv)
        model = cli.resolve_model(ns)
        assert model == cli.model_family(ns)(ns)
        assert cli.model_family(ns) is cli.model_family(ns)

    # a point inside the sweep fails: the same exit code and message as a
    # single model built there, and nothing on stdout
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, code, message", [
        (["--rm-alpha", "1", "--scan", "rm-beta", "--start=-2", "--stop", "0", "--step", "0.5"],
         2, "nhosc: error: singular parameters: 1 + alpha*beta = 0j"),
        (["--rm-beta", "2", "--scan", "rm-alpha", "--start=-2", "--stop", "0", "--step", "0.25"],
         2, "nhosc: error: degenerate transform: u22 - i u12 vanishes"),
        (["--alpha", "1", "--scan", "gamma", "--start=-1e307", "--stop=1e307", "--step=1e307"],
         3, "nhosc: numeric failure: c_xx must be finite, got (nan+0j)"),
        (["--rm-alpha", "1e200", "--scan", "rm-beta", "--start", "0", "--stop", "1e200",
          "--step", "1e199"], 3, "nhosc: numeric failure: h11 must be finite"),
        # a singular mix crossing, at rm-beta = -1 exactly
        (["--rm-alpha", "1", "--rm-beta=-1", "--scan", "rm-beta", "--start=-2", "--stop", "0",
          "--step", "0.1"], 2, "nhosc: error: singular parameters: 1 + alpha*beta = 0j"),
        # gamma^2 overflows, and k = alpha^2 - gamma^2 with it
        (["--gamma=1e200", "--alpha", "1", "--scan", "alpha", "--start", "0", "--stop", "1",
          "--step", "0.5"], 3, "nhosc: numeric failure: c_xx must be finite, got (nan+0j)"),
        # 2n + 1 does not convert to float: a configuration error, before any point
        (["--alpha", "1", "--scan", "gamma", "--start", "0", "--stop", "1", "--step", "0.5",
          f"-n={10 ** 400}"], 2, LEVELS_TOO_LARGE),
        (["--gamma=1e200", "--alpha", "1", "--scan", "alpha", "--start", "0", "--stop", "0",
          "--step", "1", f"-n={10 ** 400}"], 2, LEVELS_TOO_LARGE),
        (["--rm-alpha=-1", "--scan", "rm-beta", "--start", "1", "--stop", "1", "--step", "1"],
         2, "nhosc: error: singular parameters: 1 + alpha*beta = 0j"),
        (["--rm-alpha=-1", "--scan", "rm-beta", "--start", "0", "--stop", "0", "--step", "1",
          f"-n={10 ** 400}"], 2, LEVELS_TOO_LARGE),
        # the first failing point wins, whatever fails at a later one
        (["--rm-alpha=-1", "--scan", "rm-beta", "--start", "0", "--stop", "1", "--step", "0.5"],
         2, "nhosc: error: degenerate transform: u22 - i u12 vanishes"),
    ])
    def test_failure_mid_sweep(self, capsys, fmt, argv, code, message):
        assert run_cli(capsys, "scan", *argv, "--format", fmt) == (code, "", message + "\n")


@functools.cache
def _parsed_scan(argv, param):
    return vars(cli.build_parser().parse_args(["scan", *argv, "--scan", param]))


def scan_point(argv, param, value):
    """The namespace cmd_scan evaluates at one point of a scan over `param`."""
    point = argparse.Namespace(**_parsed_scan(tuple(argv), param))
    setattr(point, param.replace("-", "_"), value)
    return point


def class_row(point, levels):
    """max_imag and margin of one point through the value classes."""
    model = cli.resolve_model(point)
    indicator = abs(spectra.general_quadratic_spectrum(model.quadratic, levels - 1).imag)
    margin = None if model.transform is None else canonical.normalizable(model.transform).margin
    return indicator, margin


class TestScanColumns:
    """cmd_scan evaluates its points as float64 columns; a point that is not
    flagged risky holds the value classes' result bit for bit, and every
    point at which the classes raise is flagged."""

    EDGES = [0.0, -0.0, 1.0, -1.0, 1e-8, -1e-8, 1e3, -1e3, 0.5, -0.5, 2.0, 5e-324, -5e-324,
             1e-310, sys.float_info.min, 1e-300, 1e154, -1e155, 1e200, -1e300,
             sys.float_info.max, -sys.float_info.max, 1 - 1.5e-12, -1 + 1.5e-12, -1 - 1e-13]

    @pytest.mark.parametrize("argv, param", [
        (["--h11", "0.5", "--h12", "0.2", "--h22", "0.4"], "h11"),
        (["--h11", "0.5", "--h12", "0.2", "--h22", "-0.4"], "h12"),
        (["--h11=-1e-8", "--h12", "0.2", "--h22", "0.4"], "h22"),
        (["--rm-alpha", "0.3", "--rm-beta", "0.2"], "rm-alpha"),
        (["--rm-alpha", "1", "--rm-beta", "0.2"], "rm-beta"),
        (["--rm-alpha=-1", "--rm-beta", "0.2"], "rm-beta"),
        (["--rm-alpha", "1e200", "--rm-beta", "0.2"], "rm-beta"),
        (["--gamma", "0.5", "--alpha", "1"], "gamma"),
        (["--gamma", "0.5", "--alpha", "1"], "alpha"),
        (["--gamma", "1e200", "--alpha", "1"], "alpha"),
        (["--gamma", "0.5", "--k", "2"], "gamma"),
        (["--gamma", "0.5", "--k", "2"], "k"),
        (["--gamma=-3", "--alpha", "1", "--k=-0.0"], "k"),
        # 1 + alpha beta < 0 for most values: s is imaginary
        (["--rm-alpha=-2", "--rm-beta", "1"], "rm-beta"),
        (["--rm-alpha", "1", "--rm-beta=-3"], "rm-alpha"),
        (["--h11", "1", "--h12", "0", "--h22", "0"], "h22"),
    ])
    def test_columns_match_the_classes(self, argv, param):
        rng = np.random.default_rng(len(argv) + len(param))
        values = self.EDGES + rng.uniform(-3, 3, 60).tolist()
        point = scan_point(argv, param, values[0])
        build = cli.model_family(point)
        key = param.replace("-", "_")
        for levels in (1, 8, 13):
            indicator, margin, risky = cli._scan_columns(build, point, key, values, levels)
            for index, value in enumerate(values):
                try:
                    expected = class_row(scan_point(argv, param, value), levels)
                except (ValueError, OverflowError):
                    assert risky[index], (value, levels)
                    continue
                if not risky[index]:
                    got = (indicator[index], None if margin is None else margin[index])
                    assert [None if x is None else float(x).hex() for x in got] == \
                        [None if x is None else x.hex() for x in expected], (value, levels)
                elif index >= len(self.EDGES):
                    # a moderate value that the classes accept is not near a threshold
                    assert not all(map(math.isfinite, expected)), (value, levels)

    def test_discriminant_band_is_rebuilt_by_the_classes(self, capsys):
        # cmath.sqrt divides D by 8 first, which rounds where -D < 8 DBL_MIN, so
        # there sqrt(-D) need not be its root; D = h22 exactly here
        tiny = sys.float_info.min
        argv = ["--h11", "1", "--h12", "0"]
        code, doc = run_json(capsys, "scan", *argv, "--scan", "h22", f"--start={-8 * tiny!r}",
                             "--stop=0", f"--step={0.37 * tiny!r}")
        assert code == 0
        rows = doc["results"]["rows"]
        values = [row["value"] for row in rows]
        point = scan_point(argv, "h22", values[0])
        _, _, risky = cli._scan_columns(cli.three_param_model, point, "h22", values, 8)
        assert risky.tolist() == [-8 * tiny < value < 0 for value in values]
        assert [row["max_imag"] for row in rows] == \
            [class_row(scan_point(argv, "h22", value), 8)[0] for value in values]
        assert any(math.sqrt(-value) * 15 != row["max_imag"] for value, row in zip(values, rows)
                   if value < 0)

    def test_clean_sweeps_call_no_class_per_point(self, capsys, monkeypatch):
        calls = collections.Counter()
        for module, name in ((spectra, "general_quadratic_spectrum"),
                             (canonical, "normalizable"), (canonical, "rath_mallick"),
                             (spectra, "rath_mallick_oscillator"),
                             (canonical, "ahmed_hermitian")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                                calls.update([_n]) or _f(*a, **k))
        for argv, _ in TestGoldenScans.SCANS:
            code, doc = run_json(capsys, *argv)
            assert code == 0
        assert calls == collections.Counter()

    def test_flagged_rows_come_from_the_classes(self, capsys, monkeypatch):
        """Corrupt every column value and flag every point: the bytes stay."""
        argv = ["scan", "--rm-alpha", "0.3", "--scan", "rm-beta", "--start=-0.9",
                "--stop", "1.1", "--step", "0.05"]
        expected = run_cli(capsys, *argv)
        columns = cli._scan_columns

        def all_risky(*args):
            indicator, margin, risky = columns(*args)
            indicator[:] = margin[:] = -1.0
            return indicator, margin, np.ones_like(risky)

        monkeypatch.setattr(cli, "_scan_columns", all_risky)
        assert run_cli(capsys, *argv) == expected

    def test_flagged_point_the_classes_accept(self, capsys, monkeypatch):
        # |u22 - i u12| = |1 + alpha| s is within twice the 1e-12 limit of
        # normalizable at every point, so each point is flagged, yet none fails
        argv = ["--rm-alpha=-0.9999999999988", "--scan", "rm-beta", "--start", "0",
                "--stop", "0.5", "--step", "0.25"]
        calls = []
        original = spectra.general_quadratic_spectrum
        monkeypatch.setattr(spectra, "general_quadratic_spectrum",
                            lambda q, n: calls.append(n) or original(q, n))
        code, doc = run_json(capsys, "scan", *argv)
        assert code == 0 and calls == [7, 7, 7]
        for row in doc["results"]["rows"]:
            point = scan_point(argv[:1], "rm-beta", row["value"])
            assert (row["max_imag"], row["margin"]) == class_row(point, 8)
            assert row["margin"] > 1e11


class TestScanPointCap:
    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 5)
        code, doc = run_json(capsys, "scan", "--alpha", "1", "--scan", "gamma",
                             "--start", "0", "--stop", "0.4", "--step", "0.1")
        assert code == 0 and len(doc["results"]["rows"]) == 5
        code, out, err = run_cli(capsys, "scan", "--alpha", "1", "--scan", "gamma",
                                 "--start", "0", "--stop", "0.5", "--step", "0.1")
        assert (code, out) == (2, "")
        assert err == ("nhosc: error: scan has 6 points, more than the 5 allowed; "
                       "raise --step or narrow --start/--stop\n")

    def test_range_too_wide_to_count(self, capsys):
        # stop - start overflows to inf, which used to fail converting to int
        code, out, err = run_cli(capsys, "scan", "--alpha", "1", "--scan", "gamma",
                                 "--start=-1e308", "--stop=1e308", "--step=1e307")
        assert (code, out) == (2, "")
        assert err == ("nhosc: error: scan has inf points, more than the 1000000 allowed; "
                       "raise --step or narrow --start/--stop\n")

    def test_huge_scan_exits_before_allocating(self):
        # under a 1 GiB address-space limit a list of the points would fail
        proc = run_in_one_gib("scan", "--alpha", "1", "--scan", "gamma",
                              "--start", "0", "--stop", "1", "--step", "1e-300")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "nhosc: error: scan has 1e+300 points, more than the 1000000 allowed; "
            "raise --step or narrow --start/--stop"
        ]


class TestOneOwnerPerCheck:
    """Each check on the mix has one owner, so every subcommand that reaches a
    point says the same about it: canonical.rath_mallick's singular and
    overflow rules, canonical.normalizable's verdict (printed by spectrum and
    verify through spectra.solve_levels), and general_quadratic_spectrum's
    overflowing scale."""

    @pytest.mark.parametrize("alpha, beta, code, message", [
        ("1", "-1", 2, "nhosc: error: singular parameters: 1 + alpha*beta = 0j"),
        ("1e200", "1e200", 3,
         "nhosc: numeric failure: mix transform overflows: 1 + alpha*beta = (inf+0j)"),
    ])
    @pytest.mark.parametrize("command", ["spectrum", "scan", "verify", "wavefunction"])
    def test_mix_point_reads_the_same_everywhere(self, capsys, command, alpha, beta, code,
                                                 message):
        point = [f"--rm-alpha={alpha}", f"--rm-beta={beta}"]
        if command == "scan":
            # a sweep that ends at the point
            point = [f"--rm-alpha={alpha}", "--scan", "rm-beta", f"--start={float(beta) - 1}",
                     f"--stop={beta}", "--step", "0.5"]
        assert run_cli(capsys, command, *point) == (code, "", message + "\n")

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_degenerate_line_has_no_verdict(self, capsys, command):
        code, doc = run_json(capsys, command, "--rm-alpha=-1", "--rm-beta", "0.5",
                             "-N", "40", "-n", "4")
        assert code == 0 and doc["diagnostics"]["normalizable"] is None

    @pytest.mark.parametrize("argv", [
        ["wavefunction", "--rm-alpha=-1", "--rm-beta", "0.5"],
        # a scan row's margin cannot be null
        ["scan", "--rm-alpha=-1", "--scan", "rm-beta", "--start", "0.5", "--stop", "0.5",
         "--step", "1"],
    ])
    def test_degenerate_line_has_no_state_or_margin(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            2, "", "nhosc: error: degenerate transform: u22 - i u12 vanishes\n")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--h11", "1e200", "--h12", "1e200", "--h22=-1e200", "-N", "8", "-n", "2"],
        ["scan", "--h11", "0.5", "--h22", "0.5", "--h12", "0", "--scan", "h12", "--start", "0",
         "--stop", "1e308", "--step", "1e307"],
    ])
    def test_overflowing_scale_is_named(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("nhosc: numeric failure: non-finite spectrum scale: "
                              "c_pp c_xx - c_xp^2 overflows for coefficients up to ")

    @pytest.mark.parametrize("levels", [1, 10])
    @pytest.mark.parametrize("model, broken", [
        (["--rm-alpha", "0.3", "--rm-beta", "0.2"], False),
        (["--gamma", "1.5", "--alpha", "1"], True),
    ], ids=["unbroken", "broken"])
    def test_one_closed_form_per_level(self, capsys, monkeypatch, model, broken, levels):
        """spectrum's closed forms are the references solve_levels computed,
        one general_quadratic_spectrum call per level in either phase."""
        calls = []
        closed_form = spectra.general_quadratic_spectrum

        def counted(q, n):
            calls.append(n)
            return closed_form(q, n)

        monkeypatch.setattr(spectra, "general_quadratic_spectrum", counted)
        code, doc = run_json(capsys, "spectrum", *model, "-n", str(levels), "-N", "40")
        assert code == 0 and doc["results"]["broken_phase"] is broken
        assert calls == list(range(levels))

    def test_broken_phase_has_one_rule_at_every_scale(self, capsys):
        """On a seeded sweep of three-parameter oscillators and their copies
        scaled by c, spectrum's broken_phase is its own critical frequencies'
        complex pair, the closed form's D < 0, and where the eigenvector state
        is refused for a complex spectrum: one verdict at every scale."""
        rng = np.random.default_rng(29)
        verdicts = []
        for h in rng.uniform(-1.0, 1.0, size=(24, 3)):
            verdict = set()
            for c in (1.0, 1e-13, 1e-20, 1e20):
                h11, h12, h22 = (c * h).tolist()
                flags = [f"--h11={h11!r}", f"--h12={h12!r}", f"--h22={h22!r}"]
                code, doc = run_json(capsys, "spectrum", *flags, "-N", "8", "-n", "2")
                broken = doc["results"]["broken_phase"]
                assert code == 0
                assert broken is (doc["results"]["critical_frequencies"]["kind"]
                                  == "complex_pair")
                try:
                    spectra.closed_form_eigenvalue(spectra.ThreeParamOscillator(h11, h12, h22),
                                                   0, 1)
                except spectra.BrokenPhaseError:
                    assert broken
                else:
                    assert not broken
                code, out, err = run_cli(capsys, "wavefunction", *flags, "--excitation", "0")
                assert (code == 2 and err.endswith(" < 0: complex spectrum\n")) is broken
                verdict.add(broken)
            assert len(verdict) == 1
            verdicts.append(verdict.pop())
        assert any(verdicts) and not all(verdicts)


class TestTruncationCap:
    """spectrum's and verify's -N is at most cli.MAX_SCAN_POINTS, checked before
    anything is built, and -n is bounded by -N before a list over it is built."""

    @pytest.mark.parametrize("command", [
        ["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5"],
        ["verify", "--gauge-g", "0.3"],
    ])
    def test_cap_is_inclusive(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 40)
        code, doc = run_json(capsys, *command, "-N", "40", "-n", "4")
        assert code == 0 and doc["config"]["trunc"] == 40
        assert run_cli(capsys, *command, "-N", "41", "-n", "4") == (
            2, "", "nhosc: error: trunc 41 is more than the 40 allowed\n")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-N", "100000000",
          "-n", "10"], "trunc 100000000 is more than the 1000000 allowed"),
        (["verify", "--gauge-g", "0.3", "-N", "100000000", "-n", "10"],
         "trunc 100000000 is more than the 1000000 allowed"),
        # the closed-form lists over -n come after the budget
        (["spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-n", "1000000000",
          "-N", "10"], "trunc must be at least 4*levels, got 10 < 4000000000"),
    ])
    def test_huge_run_exits_before_allocating(self, argv, message):
        proc = run_in_one_gib(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"nhosc: error: {message}\n")


def run_in_one_gib(*argv):
    """nhosc with argv in a subprocess under a 1 GiB address-space limit."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "nhosc", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )


class TestGridPointCap:
    """A wavefunction grid has at most cli.MAX_SCAN_POINTS points, the same cap
    as a scan."""

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        # at least the 32 points that level 0 needs on its default grid
        monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 40)
        argv = ["wavefunction", "--level", "0", "--grid-span", "1"]
        code, doc = run_json(capsys, *argv, "--grid-points", "40")
        assert code == 0 and doc["diagnostics"]["grid_points"] == 40
        assert run_cli(capsys, *argv, "--grid-points", "41") == (
            2, "", "nhosc: error: grid has 41 points, more than the 40 allowed\n")

    @pytest.mark.parametrize("argv, message", [
        (["--level", "0", "--grid-points", "100000000000"],
         "grid has 100000000000 points, more than the 1000000 allowed"),
        (["--level", "0", "--grid-points", "100000000", "--grid-span", "10"],
         "grid has 100000000 points, more than the 1000000 allowed"),
        # the default grid of a high level
        (["--level", "10000000"], "level 10000000 needs 50997915 grid-points by default, more "
                                  "than the 1000000 allowed"),
        # checked before the recurrence builds a 2e8-row truncation
        (["--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "--excitation", "100000000"],
         "level 200000000 needs 1018897217 grid-points by default, more than the 1000000 "
         "allowed"),
        # the same caps on a --grid-span grid, where 3 points are spaced finely enough
        (["--level", "100000000", "--grid-span", "1e-6", "--grid-points", "3"],
         "level 100000000 needs 509511898 grid-points by default, more than the 1000000 "
         "allowed"),
        (["--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "--excitation", "100000000",
          "--grid-span", "1e-6", "--grid-points", "3"],
         "level 200000000 needs 1018897217 grid-points by default, more than the 1000000 "
         "allowed"),
    ])
    def test_huge_grid_exits_before_allocating(self, argv, message):
        proc = run_in_one_gib("wavefunction", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"nhosc: error: {message}\n")


class TestRecurrenceWorkCap:
    """A wavefunction's Hermite recurrence takes at most cli.MAX_ROW_POINTS rows
    times grid points: its level + 1 rows at every point of its grid."""

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        # level 2 on 40 points is 120 row-points
        monkeypatch.setattr(cli, "MAX_ROW_POINTS", 120)
        argv = ["wavefunction", "--level", "2", "--grid-span", "4"]
        code, doc = run_json(capsys, *argv, "--grid-points", "40")
        assert code == 0 and doc["diagnostics"]["grid_points"] == 40
        assert run_cli(capsys, *argv, "--grid-points", "41") == (
            2, "", "nhosc: error: level 2 on 41 grid-points is 123 row-points of Hermite "
                   "recurrence, more than the 120 allowed\n")

    def test_default_grid_and_eigenvector_level(self, capsys, monkeypatch):
        # level 1 on its default 4,001 points is 8,002 row-points
        monkeypatch.setattr(cli, "MAX_ROW_POINTS", 8002)
        assert run_json(capsys, "wavefunction", "--level", "1")[0] == 0
        message = ("nhosc: error: level 2 on 4001 grid-points is 12003 row-points of Hermite "
                   "recurrence, more than the 8002 allowed\n")
        assert run_cli(capsys, "wavefunction", "--level", "2") == (2, "", message)
        # an eigenvector of excitation 1 reaches level 2; refused before its coefficients
        monkeypatch.setattr(spectra, "eigenvector_coefficients", None)
        assert run_cli(capsys, "wavefunction", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5",
                       "--excitation", "1") == (2, "", message)

    def test_limit_on_the_default_grid(self, capsys, monkeypatch):
        # level 10,055 is the last whose default grid passes; its recurrence
        # takes seconds, so a stand-in samples it
        monkeypatch.setattr(cli.wavefun, "hermite_function", lambda n, omega, x: np.zeros_like(x))
        code, doc = run_json(capsys, "wavefunction", "--level", "10055")
        assert code == 0 and doc["diagnostics"]["grid_points"] == 53380
        assert run_cli(capsys, "wavefunction", "--level", "10056") == (
            2, "", "nhosc: error: level 10056 on 53386 grid-points is 536903002 row-points of "
                   "Hermite recurrence, more than the 536870912 allowed\n")


README_SCAN = ["scan", "--alpha", "1.0", "--scan", "gamma", "--start", "0", "--stop", "2",
               "--step", "0.01"]


class TestGoldenScans:
    """sha256 of stdout for the README scan and four sweeps of 1,401 to 2,001
    points: a gamma sweep, a mix sweep, a three-parameter sweep through D = 0,
    and a mix sweep where 1 + alpha beta < 0 (s imaginary) and the margin is
    exactly 0 at beta = 1.

    Scans use elementwise real float64 operations, each rounded as the value
    classes round it, and no BLAS, so these bytes do not depend on the
    platform's BLAS or numpy version.
    """

    SCANS = [
        (README_SCAN,
         ("0d505e900870cc5e7fe9362a21e6c59d89dcd01c73a02f9a1cef4c57cc96ce64",
          "dc9d3f86a1769d3e4c031f0aa7696a1df1cfc2b27c0472a7f1dd041969cd3e9e")),
        (["scan", "--alpha=1.2056942074137735", "--scan", "gamma",
          "--start=-0.008282451560798203", "--stop=1.9922175484392017", "--step=0.001"],
         ("0300686ec134ced3e5709d95ed76bb8fbd5794f0a9317bb60355e426ad38f99d",
          "1397c1c47f141f10434ba42a8efa4b1add4f812aa0cebb204a17921c128dd05c")),
        (["scan", "--rm-alpha=-0.034311177066519594", "--scan", "rm-beta",
          "--start=-0.8875924925519162", "--stop=1.1129075074480836", "--step=0.001"],
         ("4ab8f4fd7b4fd40dfbb66631e870f25bc963cf71da91a2ce172fb3bf5086bbf5",
          "0531d8bb9f1326ea2abd2d64a15862f56fad8014ed86694dfc102ae18df28cd7")),
        (["scan", "--h11", "0.5", "--h22=-0.3", "--scan", "h12", "--start=-1", "--stop",
          "1.0005", "--step", "0.001"],
         ("17fc0c3dec323e5dfb1151bfe9d12107d203694178c64cf8777a7defa6b7b35c",
          "21bf55209ca8ec74ebf40191a796bf8e72bf8aaccc4a8e19aa3ab8b03ca198e3")),
        (["scan", "--rm-alpha=-2", "--scan", "rm-beta", "--start", "0.6", "--stop", "2.0005",
          "--step", "0.001"],
         ("c212399ff7777c9813ed1392e142e953e3603bb321921cf2448a5f2f054c9199",
          "88e899aa30ce640d5e33417431c7126c50093b341807b5c3e424ff31590c74a4")),
    ]

    @pytest.mark.parametrize("argv, digests", SCANS)
    def test_stdout_digest(self, capsys, argv, digests):
        for fmt, digest in zip(("json", "csv"), digests):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# The README's spectrum and verify commands and the seed-1 verify and spectrum
# tasks of bench/workloads.py.
LOWEST_LEVEL_COMMANDS = [
    ["spectrum", "--h11", "0.5", "--h12", "0", "--h22", "0.5", "-n", "5"],
    ["spectrum", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-n", "10", "-N", "200"],
    ["verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "200", "-n", "8"],
    ["verify", "--rm-alpha=0.34430518977014", "--rm-beta=0.6682360721558334", "-N", "200",
     "-n", "8"],
    ["verify", "--rm-alpha=-0.3706471101068152", "--rm-beta=-0.7395725002604754", "-N", "200",
     "-n", "8"],
    ["verify", "--rm-alpha=0.6027841474780662", "--rm-beta=-0.2966335167713954", "-N", "200",
     "-n", "8"],
    ["verify", "--rm-alpha=-0.660731455595799", "--rm-beta=0.3308871894704164", "-N", "200",
     "-n", "8"],
    ["verify", "--gauge-g=0.6271697522812801", "-N", "200", "-n", "8"],
    ["verify", "--gauge-g=-0.32030982143585024", "-N", "200", "-n", "8"],
    ["verify", "--u11=(0.8823152190458334+0j)", "--u12=-0.30517329409337585j",
     "--u21=-0.40529654843212487j", "--u22=(0.9931986871743752+0j)", "-N", "200", "-n", "8"],
    ["verify", "--u11=(1.0206944050979585+0j)", "--u12=-0.48404146440671036j",
     "--u21=-0.3785775900413258j", "--u22=(0.8001932261463192+0j)", "-N", "200", "-n", "8"],
    ["spectrum", "--h11=0.5130987192066295", "--h12=-0.391023287380625",
     "--h22=0.5928202026889786", "-n", "10", "-N", "100"],
    ["spectrum", "--rm-alpha=0.3190507606532735", "--rm-beta=0.21687723671431253", "-n", "10",
     "-N", "100"],
    ["spectrum", "--gamma=0.30662806220126215", "--alpha=1.0380897237222373", "-n", "10",
     "-N", "100"],
    ["spectrum", "--h11=0.32041746369561314", "--h12=0.16996941664222537",
     "--h22=0.5476547371014461", "-n", "10", "-N", "200"],
    ["spectrum", "--rm-alpha=-0.38753848988818723", "--rm-beta=-0.2479253690310007", "-n",
     "10", "-N", "200"],
    ["spectrum", "--gamma=0.1104788100017771", "--alpha=1.0326180015019755", "-n", "10",
     "-N", "200"],
    ["spectrum", "--h11=0.5103847594360817", "--h12=0.2574171661963569",
     "--h22=0.37622130850727764", "-n", "10", "-N", "400"],
    ["spectrum", "--rm-alpha=0.7218889872961263", "--rm-beta=-0.17155837111220518", "-n",
     "10", "-N", "400"],
    ["spectrum", "--gamma=-0.20049890770249762", "--alpha=1.1377126496463152", "-n", "10",
     "-N", "400"],
]


class TestLowestLevelsOutput:
    """Solving only the reported levels leaves every byte of output as it was."""

    @pytest.mark.parametrize("argv", LOWEST_LEVEL_COMMANDS, ids=" ".join)
    def test_same_bytes_as_full_solve(self, monkeypatch, argv):
        early = run_quiet(argv)
        full_solve = linalg.tridiagonal_eigenvalues

        def ignore_lowest(t, lowest=None):
            return full_solve(t)

        monkeypatch.setattr(linalg, "tridiagonal_eigenvalues", ignore_lowest)
        assert early == run_quiet(argv)
        assert early[0] in (0, 4) and early[2:] == ("", [])
