import json
import subprocess
import sys

import pytest

from nhosc import cli, spectra


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

    def test_csv_has_constant_summary_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--level", "1", "--grid-points", "11",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value_re,value_im,norm,nodes"
        assert len(lines) == 12


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

    def test_comments_and_blanks(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# oscillator\n\nh11 = 0.5\nh12 = 0  # none\nh22 = 0.5\n")
        code, _ = run_json(capsys, "spectrum", "--config", str(config), "-n", "2", "-N", "12")
        assert code == 0


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

    def test_config_file_values_checked(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("h11 = 0.5\nh12 = 0\nh22 = inf\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(config), "-N", "8", "-n", "2")
        assert code == 2 and out == "" and "h22 must be finite" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_output_is_numeric_failure(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "spectrum", "--h11", "1e200", "--h12", "0", "--h22", "1e200",
            "-N", "8", "-n", "2", "--format", fmt,
        )
        assert code == 3 and out == "" and "non-finite" in err
