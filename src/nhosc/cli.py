"""Command-line front end for spectra, scans, verification, and wavefunctions.

Exit codes: 0 success, 2 configuration error (a NaN or infinite numeric
option among them), 3 numeric failure (overflow and non-finite results among
them), 4 verification failure.  Output is strict JSON (default) or CSV; floats
are written in round-trip form (at most 17 significant digits) and payloads
carry no timestamps, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import canonical, linalg, spectra, wavefun

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# the most points a scan or a wavefunction grid, or states a truncation, may have
MAX_SCAN_POINTS = 1_000_000
# the most Hermite-recurrence work a wavefunction may take: its level + 1 rows
# times its grid points; level 10,000 on its default grid is 5.3e8 of them
MAX_ROW_POINTS = 2 ** 29

_MODEL_KEYS = ("h11", "h12", "h22", "rm_alpha", "rm_beta", "gamma", "alpha", "k")


class ConfigError(ValueError):
    pass


def _parse_branch(text):
    mapping = {"+": 1, "-": -1, "+1": 1, "-1": -1, "plus": 1, "minus": -1}
    try:
        return mapping[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"branch must be + or -, got {text!r}")


def load_config_file(path, keys):
    """Flat KEY = VALUE file mirroring the long flag names; '#' comments.

    keys maps each accepted key to the (dest, type, choices) of its flag.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected KEY = VALUE")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        dest, kind, choices = keys[key]
        try:
            values[dest] = kind(val)
            if choices is not None and values[dest] not in choices:
                raise ValueError(f"invalid choice: {val!r} (choose from "
                                 + ", ".join(map(repr, choices)) + ")")
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _add_common(parser):
    return [
        parser.add_argument("--format", choices=("json", "csv")),
        parser.add_argument("--out", help="output path (default: stdout)"),
        parser.add_argument("--config", help="config file; flags override it"),
    ]


def _add_model(parser, gamma=True):
    """The model flags; the --gamma family's only where gamma is set."""
    group = parser.add_argument_group("model (choose one family)")
    names = ("h11", "h12", "h22", "rm-alpha", "rm-beta") + (("gamma", "alpha", "k") if gamma else ())
    return [group.add_argument(f"--{name}", type=float) for name in names]


def _add_transform(parser):
    group = parser.add_argument_group("transform (choose one)")
    return [
        group.add_argument("--rm-alpha", type=float, dest="rm_alpha"),
        group.add_argument("--rm-beta", type=float, dest="rm_beta"),
        group.add_argument("--gauge-g", type=float, dest="gauge_g"),
        group.add_argument("--u11", type=complex),
        group.add_argument("--u12", type=complex),
        group.add_argument("--u21", type=complex),
        group.add_argument("--u22", type=complex),
    ]


def _build():
    """The parser, and the config-file keys derived from its actions.

    Every long option but --config is a key; it maps to the (dest, type,
    choices) of its flag, str where the flag has no type.  Keys are the union
    over the subcommands.
    """
    parser = argparse.ArgumentParser(
        prog="nhosc",
        description="Non-Hermitian oscillators with real spectra: closed forms, "
        "truncated diagonalization, and structural verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="closed-form and numeric eigenvalues")
    actions = _add_model(p_spec) + [
        p_spec.add_argument("--omega", type=float),
        p_spec.add_argument("-N", "--trunc", type=int),
        p_spec.add_argument("-n", "--levels", type=int),
    ] + _add_common(p_spec)

    p_scan = sub.add_parser("scan", help="sweep one parameter, track the phase indicator")
    actions += _add_model(p_scan) + [
        p_scan.add_argument("--scan", help="parameter to sweep"),
        p_scan.add_argument("--start", type=float),
        p_scan.add_argument("--stop", type=float),
        p_scan.add_argument("--step", type=float),
        p_scan.add_argument("--threshold", type=float),
        p_scan.add_argument("-n", "--levels", type=int),
    ] + _add_common(p_scan)

    p_ver = sub.add_parser("verify", help="isospectrality and pseudo-Hermiticity checks")
    actions += _add_transform(p_ver) + [
        p_ver.add_argument("--base-k", type=float, dest="base_k",
                           help="base oscillator p^2/2 + k x^2/2 (default: k = 1)"),
        p_ver.add_argument("--omega", type=float),
        p_ver.add_argument("-N", "--trunc", type=int),
        p_ver.add_argument("-n", "--levels", type=int),
        p_ver.add_argument("--tol", type=float),
        p_ver.add_argument("--tol-eta", type=float, dest="tol_eta"),
    ] + _add_common(p_ver)

    p_wav = sub.add_parser("wavefunction", help="sample eigenfunctions on a grid")
    actions += _add_model(p_wav, gamma=False) + [
        p_wav.add_argument("--level", type=int, help="oscillator level n"),
        p_wav.add_argument("--omega", type=float),
        p_wav.add_argument("--branch", type=_parse_branch),
        p_wav.add_argument("--excitation", type=int),
        p_wav.add_argument("--parity", type=int),
        p_wav.add_argument("--grid-span", type=float, dest="grid_span"),
        p_wav.add_argument("--grid-points", type=int, dest="grid_points"),
    ] + _add_common(p_wav)

    keys = {
        option[2:]: (action.dest, action.type or str, action.choices)
        for action in actions
        for option in action.option_strings
        if option.startswith("--") and option != "--config"
    }
    return parser, keys


def build_parser():
    """A fresh nhosc argument parser."""
    return _build()[0]


@functools.cache
def _shared_cli():
    """The parser and config keys `main` reuses; built on its first call."""
    return _build()


def _merge_config(ns, keys):
    """Fill the options not given as flags from the config file; a key the
    subcommand does not read is a ConfigError, like a flag it does not take."""
    if ns.config is None:
        return
    file_values = load_config_file(ns.config, keys)
    for key, value in file_values.items():
        if not hasattr(ns, key):
            raise ConfigError(f"{ns.config}: key {key.replace('_', '-')!r} "
                              f"is not read by {ns.command}")
        if getattr(ns, key) is None:
            setattr(ns, key, value)


def _default(ns, name, value):
    if getattr(ns, name, None) is None:
        setattr(ns, name, value)


def _require_positive(value, name):
    if value is None or value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _require_finite(ns):
    """Reject NaN and infinite numeric options, from flags or the config file."""
    for key, value in sorted(vars(ns).items()):
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ConfigError(f"{key.replace('_', '-')} must be finite, got {value}")


def _validate_run(ns):
    """Checked before anything is built; spectra.solve_levels checks the level budget."""
    _require_positive(ns.omega, "omega")
    if ns.trunc > MAX_SCAN_POINTS:
        raise ConfigError(f"trunc {ns.trunc} is more than the {MAX_SCAN_POINTS} allowed")


@dataclass(frozen=True)
class _Choice:
    """One group of a choose-one option group."""

    keys: tuple  # the options that choose it; it needs all of them
    own: tuple  # the options that only it reads
    needs: str | None  # the message when some of `keys` are missing
    build: object  # what the caller builds from it


def _choose(ns, choices, conflict):
    """The one of `choices` whose options are set, from flags or the config file.

    ConfigError with `conflict` unless exactly one has an option set; then
    naming the first set option that only another choice reads; then with the
    chosen one's `needs` message when it lacks one of its options.
    """
    chosen = [choice for choice in choices
              if any(getattr(ns, key) is not None for key in choice.keys)]
    if len(chosen) != 1:
        raise ConfigError(conflict)
    (choice,) = chosen
    for other in choices:
        for key in other.own:
            if other is not choice and getattr(ns, key) is not None:
                raise ConfigError(f"--{key} is read only with "
                                  + "/".join(f"--{name}" for name in other.keys))
    if any(getattr(ns, key) is None for key in choice.keys):
        raise ConfigError(choice.needs)
    return choice


@dataclass
class Model:
    kind: str
    quadratic: canonical.QuadraticHamiltonian
    oscillator: spectra.ThreeParamOscillator | None
    transform: canonical.CanonicalTransform | None


def model_family(ns):
    """Check the model flags; return the builder of the family they choose.

    The choice depends only on which model options are set, not on their
    values, so a scan makes it once and calls the builder only at its risky
    points (see _scan_columns).
    """
    build = _choose(ns, _MODEL_FAMILIES, "specify exactly one model family: --h11/--h12/--h22, "
                    "--rm-alpha/--rm-beta, or --gamma with --alpha or --k").build
    if build is gamma_model and ns.alpha is None and ns.k is None:
        raise ConfigError("--gamma needs --alpha or --k")
    return build


def three_param_model(ns):
    """The --h11/--h12/--h22 model; the flags were checked by model_family."""
    osc = spectra.ThreeParamOscillator(ns.h11, ns.h12, ns.h22)
    return Model(
        kind="three_param",
        quadratic=osc.as_quadratic(),
        oscillator=osc,
        transform=None,
    )


def mix_model(ns):
    """The --rm-alpha/--rm-beta model; canonical.rath_mallick's checks come first."""
    transform = canonical.rath_mallick(ns.rm_alpha, ns.rm_beta)
    osc = spectra.rath_mallick_oscillator(ns.rm_alpha, ns.rm_beta)
    return Model(
        kind="rath_mallick",
        quadratic=osc.as_quadratic(),
        oscillator=osc,
        transform=transform,
    )


def gamma_model(ns):
    """The --gamma model with --alpha and/or --k."""
    quad = canonical.ahmed_hermitian(ns.gamma, alpha=ns.alpha, k=ns.k)
    return Model(kind="gamma_family", quadratic=quad, oscillator=None, transform=None)


_MODEL_FAMILIES = (
    _Choice(("h11", "h12", "h22"), (),
            "the three-parameter model needs --h11, --h12 and --h22", three_param_model),
    _Choice(("rm_alpha", "rm_beta"), (),
            "the mix model needs both --rm-alpha and --rm-beta", mix_model),
    _Choice(("gamma",), ("alpha", "k"), None, gamma_model),
)


def resolve_model(ns):
    return model_family(ns)(ns)


# each builder takes the values of its options, in order
_TRANSFORMS = (
    _Choice(("rm_alpha", "rm_beta"), (),
            "the mix transform needs both --rm-alpha and --rm-beta", canonical.rath_mallick),
    _Choice(("gauge_g",), (), None, canonical.gauge),
    _Choice(("u11", "u12", "u21", "u22"), (),
            "the explicit transform needs all four matrix entries", canonical.from_matrix),
)


def resolve_transform(ns):
    """The transform the flags choose, and its options and their values."""
    choice = _choose(ns, _TRANSFORMS, "specify exactly one transform: --rm-alpha/--rm-beta, "
                     "--gauge-g, or --u11/--u12/--u21/--u22")
    params = {key: getattr(ns, key) for key in choice.keys}
    return choice.build(*params.values()), params


def _cj(value):
    """Complex to a JSON-friendly {re, im} pair."""
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _level_record(level, key):
    """A spectra.SpectrumLevel as JSON, its reference under `key`, null where
    the level has no deviation (the broken phase)."""
    record = {"n": level.index, "eigenvalue": _cj(level.eigenvalue), "parity": level.parity,
              key: None if level.deviation is None else _cj(level.reference),
              "deviation": level.deviation}
    if level.matched is not None:
        record["matched"] = level.matched
    return record


def _normalizable_record(norm):
    return None if norm is None else {"flag": norm.normalizable, "margin": norm.margin}


def _config_echo(ns, command, extra=None):
    echo = {"command": command}
    skip = {"command", "config", "out"}
    for key, value in sorted(vars(ns).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, complex):
            value = _cj(value)
        echo[key] = value
    if extra:
        echo.update(extra)
    return echo


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise OverflowError(f"non-finite result {value}")
        return format(float(value), ".17g")
    return str(value)


class ColumnTable:
    """A list of rows given as its columns, each a range of ints, a numpy
    array of bools or float64, or None for nulls; written as the rows' dicts."""

    def __init__(self, columns):
        self.columns = columns
        (self.size,) = {len(column) for column in columns.values() if column is not None}

    def rows(self, keys):
        """The rows as tuples of Python scalars, in the order of `keys`."""
        return zip(*(repeat(None, self.size) if column is None
                     else column if isinstance(column, range) else column.tolist()
                     for column in map(self.columns.__getitem__, keys)))


_CONTAINERS = (dict, list, tuple, ColumnTable)
_NOT_SERIALIZABLE = json.JSONEncoder().default
_OUT_OF_RANGE = "Out of range float values are not JSON compliant: "


def _json_text(document):
    """The text json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    writes, with each ColumnTable as the list of its rows.

    A container whose items are all scalars goes through the stdlib's C
    encoder in one call, made with an item separator that carries the
    container's newline and indent.  Only containers that hold containers
    are walked here, and their keys must be strings, as in every document
    this module writes.  NaN and infinities raise json.dumps's ValueError,
    naming the first in its order.
    """
    def encode(obj, level):
        if isinstance(obj, ColumnTable):
            return _column_text(obj, level)
        inner = "\n" + "  " * (level + 1)
        if obj and isinstance(obj, _CONTAINERS):
            is_dict = isinstance(obj, dict)
            values = obj.values() if is_dict else obj
            # one test per item type, not per item: a wavefunction's lists
            # hold thousands of floats
            if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
                if is_dict:
                    parts = [encode_basestring_ascii(key) + ": " + encode(value, level + 1)
                             for key, value in sorted(obj.items())]
                else:
                    parts = [encode(value, level + 1) for value in obj]
                return (("{" if is_dict else "[") + inner + ("," + inner).join(parts)
                        + "\n" + "  " * level + ("}" if is_dict else "]"))
        try:
            text = "".join(c_make_encoder(None, _NOT_SERIALIZABLE, encode_basestring_ascii, None,
                                          ": ", "," + inner, True, False, False)(obj, 0))
        except ValueError:  # Python 3.11's C encoder does not name the value
            items = ([obj[key] for key in sorted(obj)] if isinstance(obj, dict)
                     else obj if isinstance(obj, _CONTAINERS) else [obj])
            raise ValueError(_OUT_OF_RANGE + repr(next(
                value for value in items if isinstance(value, float) and not math.isfinite(value))))
        if len(text) > 2 and text[0] in "[{":
            return text[0] + inner + text[1:-1] + "\n" + "  " * level + text[-1]
        return text

    return encode(document, 0)


def _column_text(table, level):
    """The text of table's rows as dicts at nesting level `level`: each row
    joins its cells with each key's prefix, and one join writes the rows."""
    row, field = "  " * (level + 1), "  " * (level + 2)
    parts, bad = [], []
    for position, key in enumerate(sorted(table.columns)):
        column = table.columns[key]
        parts.append(repeat((",\n" + row + "{\n" if position == 0 else ",\n")
                            + field + encode_basestring_ascii(key) + ": "))
        if column is None:
            parts.append(repeat("null"))
        elif isinstance(column, range):
            parts.append(map(int.__repr__, column))
        elif column.dtype == bool:
            parts.append(map(("false", "true").__getitem__, column.tolist()))
        else:
            finite = np.isfinite(column)
            if not finite.all():
                bad.append((int(finite.argmin()), position, column[~finite][0].item()))
            parts.append(map(float.__repr__, column.tolist()))
    if bad:  # the first in json.dumps's order: row by row, keys sorted in a row
        raise ValueError(_OUT_OF_RANGE + repr(min(bad)[2]))
    rows = map("".join, zip(*parts, repeat("\n" + row + "}")))
    first = next(rows, None)
    if first is None:
        return "[]"
    # the first row's "," is the list's "["
    return "".join(chain(("[", first[1:]), rows, ("\n" + "  " * level + "]",)))


def _emit(ns, document, csv_header, csv_rows):
    """Write the document as JSON, or the header and rows (any iterable, only
    consumed here) as CSV."""
    if ns.format == "json":
        try:
            text = _json_text(document) + "\n"
        except ValueError as exc:
            raise OverflowError(f"non-finite result: {exc}") from exc
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([_csv_cell(cell) for cell in row])
        text = buffer.getvalue()
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"{ns.out}: cannot write output file: {exc.strerror}")
    else:
        sys.stdout.write(text)


class _Output(NamedTuple):
    """What a subcommand computed; `main` echoes the config and writes it."""

    results: dict
    diagnostics: dict
    header: list  # the CSV header
    rows: object  # the CSV rows, any iterable; consumed only for CSV output
    code: int = EXIT_OK
    echo: dict | None = None  # entries added to the config echo


def cmd_spectrum(ns):
    _validate_run(ns)
    model = resolve_model(ns)
    report = spectra.solve_levels(model.quadratic, ns.omega, ns.trunc, ns.levels,
                                  model.quadratic, transform=model.transform)
    closed = np.array([level.reference for level in report.levels])
    results = {
        "model": {
            "kind": model.kind,
            "c_pp": _cj(model.quadratic.c_pp),
            "c_xp": _cj(model.quadratic.c_xp),
            "c_xx": _cj(model.quadratic.c_xx),
            "frequency_scale": _cj(model.quadratic.frequency_scale),
            "discriminant": model.oscillator.discriminant if model.oscillator else None,
        },
        "broken_phase": report.broken_phase,
        "closed_form": {
            "plus": ColumnTable({"re": closed.real, "im": closed.imag}),
            "minus": ColumnTable({"re": -closed.real, "im": -closed.imag})
            if model.oscillator is not None else None,
        },
        "critical_frequencies": None,
        "numeric": [_level_record(level, "closed_form") for level in report.levels],
    }
    if model.oscillator is not None:
        crit = spectra.critical_frequencies(model.oscillator)
        results["critical_frequencies"] = {
            "kind": crit.kind,
            "omega_plus": crit.omega_plus,
            "omega_minus": crit.omega_minus,
            "omega_single": crit.omega_single,
            "sign_contract": crit.sign_contract,
        }
    rows = ([level.index, level.eigenvalue.real, level.eigenvalue.imag, level.parity]
            + ([None, None] if report.broken_phase
               else [level.reference.real, level.reference.imag])
            + [level.deviation] for level in report.levels)
    return _Output(results, {"max_deviation": report.max_deviation,
                             "normalizable": _normalizable_record(report.normalizable)},
                   ["n", "eigen_re", "eigen_im", "parity", "closed_re", "closed_im", "deviation"],
                   rows)


def _scan_values(ns):
    if ns.scan is None:
        raise ConfigError("scan needs --scan PARAM")
    if ns.start is None or ns.stop is None or ns.step is None:
        raise ConfigError("scan needs --start, --stop and --step")
    _require_positive(ns.step, "step")
    if ns.stop < ns.start:
        raise ConfigError("stop must be >= start")
    span = (ns.stop - ns.start) / ns.step
    # a range too wide to count in floating point has more points than the cap
    count = int(math.floor(span + 1e-9)) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SCAN_POINTS:
        raise ConfigError(f"scan has {count:.7g} points, more than the {MAX_SCAN_POINTS} "
                          "allowed; raise --step or narrow --start/--stop")
    # start + i * step, rounded as Python rounds it: i converts to float exactly
    return ns.start + np.arange(count) * ns.step


# a scan point within _RISK_SLACK of canonical.SINGULAR_TOL or of DET_TOL is risky
_RISK_SLACK = 2.0


def _finite(*columns):
    return np.logical_and.reduce([np.isfinite(column) for column in columns])


def _three_param_columns(p):
    """three_param_model's discriminant h11 h22 + h12^2; it raises nowhere."""
    return p["h11"] * p["h22"] + p["h12"] * p["h12"], None, False


def _mix_columns(p):
    """mix_model's discriminant (spectra.rath_mallick_oscillator), the margin
    of its transform (canonical.rath_mallick, canonical.normalizable), and
    where a check of theirs might fire."""
    lam, beta = p["rm_alpha"], p["rm_beta"]
    shift = 1.0 + lam * beta
    denom = 2.0 * shift
    h11, h12, h22 = (1.0 - lam * lam) / denom, (lam + beta) / denom, (1.0 - beta * beta) / denom
    # s = 1/sqrt(1 + alpha beta) is t or i t, u12 = i alpha s and u21 = i beta s;
    # either way the margin and the determinant round as these real expressions
    t = np.copysign(1.0 / np.sqrt(np.abs(shift)), shift)
    u12, u21 = lam * t, beta * t
    margin = (t - u21) / (t + u12)
    det_error = t * t + u21 * u12 - np.sign(shift)
    risky = ~(_finite(h11, h12, h22, shift, u12, u21, margin)
              & (np.abs(shift) >= _RISK_SLACK * canonical.SINGULAR_TOL)
              & (np.abs(t + u12) >= _RISK_SLACK * canonical.SINGULAR_TOL)
              & (np.abs(det_error) <= canonical.DET_TOL / _RISK_SLACK))
    return h11 * h22 + h12 * h12, margin, risky


def _gamma_columns(p):
    """gamma_model's discriminant c_pp c_xx - c_xp^2 (canonical.ahmed_hermitian)."""
    gamma, k = p["gamma"], p["k"]
    if k is None:
        k = p["alpha"] * p["alpha"] - gamma * gamma
    c_xp, c_xx = -0.5 * gamma, 0.5 * (gamma * gamma + k)
    return 0.5 * c_xx - c_xp * c_xp, None, False


_SCAN_COLUMNS = {three_param_model: _three_param_columns, mix_model: _mix_columns,
                 gamma_model: _gamma_columns}


def _scan_columns(build, point, param, values, levels):
    """max_imag and margin (None without a transform) at every scan value, and
    the points that the value classes must evaluate instead.

    Each family's parameters are real, so its c_pp c_xx - c_xp^2 is a real D
    (its imaginary part is +-0), rounded as one real expression.  cmath.sqrt
    of it is sqrt(|D|), on the real or the imaginary side, wherever |D| is at
    least 8 DBL_MIN, where its scaling by 1/8 is exact.  So a point that is
    not risky holds the classes' result bit for bit.  A point is risky where
    building it might raise, where normalizable might raise, where D lies in
    (-8 DBL_MIN, 0), or where a result is not finite.
    """
    count = len(values)
    p = {key: None if getattr(point, key) is None else np.full(count, getattr(point, key))
         for key in _MODEL_KEYS}
    p[param] = np.array(values)
    top = float(2 * (levels - 1) + 1)
    with np.errstate(all="ignore"):
        discriminant, margin, risky = _SCAN_COLUMNS[build](p)
        # The indicator is the largest |Im E_n| over the lowest `levels` levels,
        # E_n = sqrt(D) (2n+1): sqrt(-D) (2n+1) rounded where D < 0, and 0
        # elsewhere.  Rounding is monotone, so the top level holds the maximum.
        indicator = np.where(discriminant < 0, np.sqrt(-discriminant), 0.0) * top
        risky = (risky | ~_finite(p[param], discriminant, indicator)
                 | ((discriminant < 0) & (discriminant > -8 * sys.float_info.min)))
    return indicator, margin, risky


def cmd_scan(ns):
    if ns.levels < 1:
        raise ConfigError("levels must be at least 1")
    try:
        float(2 * ns.levels - 1)
    except OverflowError:
        raise ConfigError(f"--levels {ns.levels} is too large: 2n+1 of its top level n "
                          "does not convert to float") from None
    _require_positive(ns.threshold, "threshold")
    param = ns.scan.replace("-", "_") if ns.scan else None
    grid = _scan_values(ns)
    values = grid.tolist()
    if param not in _MODEL_KEYS:
        raise ConfigError(f"cannot scan {ns.scan!r}; choose one of "
                          + ", ".join(key.replace("_", "-") for key in _MODEL_KEYS))

    point = argparse.Namespace(**vars(ns))
    setattr(point, param, values[0])
    build = model_family(point)
    if build is gamma_model and param == "alpha" and ns.k is not None:
        raise ConfigError("cannot scan alpha: with --k set, the gamma model does not read --alpha")
    indicator, margin, risky = _scan_columns(build, point, param, grid, ns.levels)
    # a point that might raise, or whose result is not finite, is rebuilt by
    # the value classes in scan order, so the first bad point raises as the
    # classes make it raise; every other point already holds their result
    for index in np.flatnonzero(risky):
        setattr(point, param, values[index])
        model = build(point)
        indicator[index] = abs(spectra.general_quadratic_spectrum(model.quadratic,
                                                                  ns.levels - 1).imag)
        if margin is not None:
            margin[index] = canonical.normalizable(model.transform).margin

    # rows after the first cross the threshold upwards where the previous
    # indicator did not exceed it; NaN compares False both ways, as in Python
    crossing = np.zeros(len(values), dtype=bool)
    crossing[1:] = (indicator[1:] > ns.threshold) & (indicator[:-1] <= ns.threshold)
    transition_bracket = margin_bracket = None
    if crossing.any():
        index = int(crossing.argmax())
        transition_bracket = [values[index - 1], values[index]]
    if margin is not None:
        positive = margin > 0
        flips = positive[1:] != positive[:-1]
        if flips.any():
            index = int(flips.argmax()) + 1
            margin_bracket = [values[index - 1], values[index]]
    table = ColumnTable({"index": range(len(values)), "value": grid, "max_imag": indicator,
                         "margin": margin, "transition": crossing})
    header = ["index", "value", "max_imag", "margin", "transition"]
    return _Output({"rows": table}, {"threshold": ns.threshold,
                                     "transition_bracket": transition_bracket,
                                     "margin_sign_change_bracket": margin_bracket},
                   header, table.rows(header))


def cmd_verify(ns):
    _validate_run(ns)
    _require_positive(ns.tol, "tol")
    _require_positive(ns.tol_eta, "tol-eta")
    transform, params = resolve_transform(ns)
    base = (
        canonical.scaled_oscillator(ns.base_k)
        if ns.base_k is not None
        else canonical.harmonic_oscillator()
    )
    iso = spectra.verify_isospectral(transform, trunc=ns.trunc, n_levels=ns.levels, tol=ns.tol,
                                     base=base, omega=ns.omega)
    eta = spectra.eta_check(iso.solved, tol=ns.tol_eta)
    passed = iso.passed and eta.passed
    norm = iso.normalizable
    results = {
        "isospectral": {
            "passed": iso.passed,
            "max_deviation": iso.max_deviation,
            "levels": [_level_record(level, "reference") for level in iso.levels],
            "notes": list(iso.notes),
        },
        "eta": {
            "passed": eta.passed,
            "biorthonormality_defect": eta.biorthonormality_defect,
            "pseudo_hermiticity_defect": eta.pseudo_hermiticity_defect,
        },
    }
    rows = [
        ["isospectral.passed", iso.passed],
        ["isospectral.max_deviation", iso.max_deviation],
        ["eta.passed", eta.passed],
        ["eta.biorthonormality_defect", eta.biorthonormality_defect],
        ["eta.pseudo_hermiticity_defect", eta.pseudo_hermiticity_defect],
        ["normalizable.flag", None if norm is None else norm.normalizable],
        ["normalizable.margin", None if norm is None else norm.margin],
        ["passed", passed],
    ]
    rows.extend(
        [f"isospectral.level.{level.index}.deviation", level.deviation] for level in iso.levels
    )
    echo = {"transform": params if all(not isinstance(v, complex) for v in params.values())
            else {key: _cj(v) for key, v in params.items()}}
    return _Output(results, {"passed": passed, "normalizable": _normalizable_record(norm)},
                   ["metric", "value"], rows, EXIT_OK if passed else EXIT_VERIFY, echo)


def _grid(ns, omega, level=0):
    """The grid that covers level `level` at frequency omega, or the --grid-span
    grid.

    The default grid has DEFAULT_GRID_POINTS points, or more where the level
    needs them (wavefun.min_grid_points); more than MAX_SCAN_POINTS points,
    fewer explicit --grid-points than that on the default width, a --grid-span
    that is not positive, or a --grid-span grid spaced wider than
    wavefun.max_grid_spacing, are a ConfigError, raised before any point is
    allocated, as is a level whose default grid needs more than
    MAX_SCAN_POINTS points, or too many to count in floating point, on
    every grid.  Last, more than MAX_ROW_POINTS rows times points of Hermite
    recurrence is a ConfigError.
    A grid that passes holds more than 30 points within the default
    half-width, where the state lives."""
    try:
        fewest = wavefun.min_grid_points(level)
    except OverflowError:
        raise ConfigError(f"level {level} needs more grid-points than the {MAX_SCAN_POINTS} "
                          "allowed") from None
    # on any grid: the level, not the grid, bounds the recurrence's work
    if fewest > MAX_SCAN_POINTS:
        raise ConfigError(f"level {level} needs {fewest} grid-points by default, more than "
                          f"the {MAX_SCAN_POINTS} allowed")
    if ns.grid_points is None:
        ns.grid_points = max(wavefun.DEFAULT_GRID_POINTS, fewest)
    if ns.grid_points > MAX_SCAN_POINTS:
        raise ConfigError(f"grid has {ns.grid_points} points, more than the {MAX_SCAN_POINTS} "
                          "allowed")
    if ns.grid_span is None:
        if ns.grid_points < fewest:
            raise ConfigError(f"level {level} needs at least {fewest} grid-points on the "
                              f"default grid, {wavefun.POINTS_PER_NODE_SPACING} per node "
                              f"spacing; got {ns.grid_points}")
        grid = wavefun.default_grid(omega, ns.grid_points, level)
    else:
        _require_positive(ns.grid_span, "grid-span")
        # spacings, not point counts, stay finite for every finite span
        widest = wavefun.max_grid_spacing(level, omega)
        spacing = ns.grid_span / (ns.grid_points - 1) * 2.0
        if spacing > widest:
            raise ConfigError(f"level {level} needs a grid spacing of at most {widest:.6g}, "
                              f"{wavefun.POINTS_PER_NODE_SPACING} per node spacing; --grid-span "
                              f"{ns.grid_span:g} with {ns.grid_points} grid-points spaces them "
                              f"{spacing:.6g}")
        grid = wavefun.uniform_grid(ns.grid_span, ns.grid_points)
    work = (level + 1) * grid.size
    if work > MAX_ROW_POINTS:
        raise ConfigError(f"level {level} on {grid.size} grid-points is {work} row-points of "
                          f"Hermite recurrence, more than the {MAX_ROW_POINTS} allowed")
    return grid


def _mix_ground_state(ns):
    """The ground state of the mix: the oscillator's at frequency
    (1 - beta)/(1 + alpha), the width canonical.normalizable reads off the
    transform, so spectrum, verify and this state share one region rule."""
    flag, width = canonical.normalizable(canonical.rath_mallick(ns.rm_alpha, ns.rm_beta))
    if not flag:
        raise ConfigError(f"state is not square integrable (margin {width:g})")
    grid = _grid(ns, width)
    return wavefun.WavefunctionSample(
        grid=grid, values=wavefun.hermite_function(0, width, grid.points), omega=width,
        source=f"rm-ground alpha={ns.rm_alpha:g} beta={ns.rm_beta:g}",
    )


def _level_state(ns):
    _default(ns, "omega", 1.0)
    _require_positive(ns.omega, "omega")
    if ns.level < 0:
        raise ConfigError("level must be non-negative")
    grid = _grid(ns, ns.omega, ns.level)
    values = wavefun.hermite_function(ns.level, ns.omega, grid.points)
    return wavefun.WavefunctionSample(
        grid=grid, values=values, omega=ns.omega,
        source=f"oscillator level n={ns.level}",
    )


def _eigenvector_state(ns):
    _default(ns, "branch", 1)
    _default(ns, "excitation", 0)
    _default(ns, "parity", 0)
    osc = spectra.ThreeParamOscillator(ns.h11, ns.h12, ns.h22)
    # the grid is checked before the recurrence allocates the state
    level = spectra.eigenvector_top(ns.excitation, ns.parity)
    try:
        omega = spectra.branch_frequency(osc, ns.branch)
    except spectra.BrokenPhaseError as exc:
        raise ConfigError(str(exc))
    if omega <= 0:
        raise ConfigError(
            f"branch frequency {omega:g} is not positive; the state is "
            "square integrable along the imaginary axis only and is not sampled"
        )
    grid = _grid(ns, omega, level)
    pair = spectra.eigenvector_coefficients(osc, ns.branch, ns.excitation, ns.parity)
    return wavefun.synthesize(pair, grid)


_STATES = (
    _Choice(("rm_alpha", "rm_beta"), (),
            "the mix ground state needs both --rm-alpha and --rm-beta", _mix_ground_state),
    _Choice(("level",), ("omega",), None, _level_state),
    _Choice(("h11", "h12", "h22"), ("branch", "excitation", "parity"),
            "the eigenvector state needs --h11, --h12 and --h22", _eigenvector_state),
)


def cmd_wavefunction(ns):
    if ns.grid_points is not None and ns.grid_points < 3:
        raise ConfigError("grid-points must be at least 3")
    sample = _choose(ns, _STATES, "specify exactly one state: --rm-alpha/--rm-beta (ground "
                     "state), --level with --omega, or --h11/--h12/--h22 with "
                     "--branch/--excitation/--parity").build(ns)
    norm = wavefun.quadrature_norm(sample)
    try:
        nodes = wavefun.count_nodes(sample)
    except ValueError:
        nodes = None
    results = {
        "source": sample.source,
        "omega": sample.omega,
        "norm": norm,
        "nodes": nodes,
        "x": sample.grid.points.tolist(),
        "value_re": sample.values.real.tolist(),
        "value_im": sample.values.imag.tolist(),
    }
    rows = (
        [float(x), float(v.real), float(v.imag), norm, nodes]
        for x, v in zip(sample.grid.points, sample.values)
    )
    return _Output(results, {"grid_points": sample.grid.size,
                             "grid_span": float(sample.grid.points[-1])},
                   ["x", "value_re", "value_im", "norm", "nodes"], rows)


# each subcommand and the defaults of its options; every one writes JSON by default
_COMMANDS = {
    "spectrum": (cmd_spectrum, {"omega": 1.0, "trunc": 100, "levels": 10}),
    "scan": (cmd_scan, {"levels": 8, "threshold": 1e-6}),
    "verify": (cmd_verify, {"omega": 1.0, "trunc": 200, "levels": 8, "tol": 1e-8,
                            "tol_eta": 1e-6}),
    "wavefunction": (cmd_wavefunction, {}),
}


def main(argv=None):
    parser, config_keys = _shared_cli()
    ns = parser.parse_args(argv)
    command, defaults = _COMMANDS[ns.command]
    try:
        _merge_config(ns, config_keys)
        _require_finite(ns)
        for name, value in {"format": "json", **defaults}.items():
            _default(ns, name, value)
        out = command(ns)
        # after the command, which may set options such as grid_points
        document = {"config": _config_echo(ns, ns.command, out.echo),
                    "results": out.results, "diagnostics": out.diagnostics}
        _emit(ns, document, out.header, out.rows)
        return out.code
    # several numeric failures subclass ValueError, so they are caught first
    except (linalg.EigenConvergenceError, spectra.DegenerateEigenvaluesError,
            spectra.BrokenPhaseError, canonical.NonFiniteError, OverflowError) as exc:
        print(f"nhosc: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"nhosc: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
