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
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import canonical, linalg, spectra, wavefun

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

MAX_SCAN_POINTS = 1_000_000

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

    keys maps each accepted key to the (dest, type) of its flag.
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
        dest, kind = keys[key]
        try:
            values[dest] = kind(val)
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

    Every long option but --config is a key; it maps to the (dest, type) of
    its flag, str where the flag has no type.  Keys are the union over the
    subcommands.
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
        p_spec.add_argument("--tol", type=float),
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
        option[2:]: (action.dest, action.type or str)
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
    _require_positive(ns.omega, "omega")
    _require_positive(ns.tol, "tol")
    if ns.levels < 1:
        raise ConfigError("levels must be at least 1")
    if ns.trunc < 4 * ns.levels:
        raise ConfigError(f"trunc must be at least 4*levels, got {ns.trunc} < {4 * ns.levels}")


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
    values, so a scan makes it once and calls the builder at every point.
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
    """The --rm-alpha/--rm-beta model; a singular point is a ValueError."""
    osc = spectra.rath_mallick_oscillator(ns.rm_alpha, ns.rm_beta)
    transform = canonical.rath_mallick(ns.rm_alpha, ns.rm_beta)
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


_CONTAINERS = (dict, list, tuple)
_ROW_BATCH = 256
_NOT_SERIALIZABLE = json.JSONEncoder().default
# encodes a list of scalars with "\x00" between them; strings escape a NUL
_SCALARS = c_make_encoder(None, _NOT_SERIALIZABLE, encode_basestring_ascii, None, ": ",
                          "\x00", True, False, False)


def _json_text(document):
    """The text json.dumps(document, indent=2, sort_keys=True, allow_nan=False) writes.

    A container whose items are all scalars goes through the stdlib's C
    encoder in one call, with one encoder per nesting level whose item
    separator carries that level's newline and indent; a row table (see
    _row_table) goes through in batches.  Only other containers that hold
    containers are walked here, and their keys must be strings, as in every
    document this module writes.  NaN and infinities raise json.dumps's
    ValueError.
    """
    encoders = {}

    def encoder_at(level):
        encoder = encoders.get(level)
        if encoder is None:
            encoder = encoders[level] = c_make_encoder(
                None, _NOT_SERIALIZABLE, encode_basestring_ascii, None, ": ",
                ",\n" + "  " * (level + 1), True, False, False)
        return encoder

    def encode(obj, level):
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
                    text = _row_table(obj, level)
                    if text is not None:
                        return text
                    parts = [encode(value, level + 1) for value in obj]
                return (("{" if is_dict else "[") + inner + ("," + inner).join(parts)
                        + "\n" + "  " * level + ("}" if is_dict else "]"))
        text = "".join(encoder_at(level)(obj, 0))
        if len(text) > 2 and text[0] in "[{":
            return text[0] + inner + text[1:-1] + "\n" + "  " * level + text[-1]
        return text

    try:
        return encode(document, 0)
    except ValueError:
        # the C encoder does not always name the out-of-range float
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        raise


def _row_table(rows, level):
    """The indented text of a row table at nesting level `level`, or None.

    A row table is a list of non-empty dicts (not dict subclasses) with one
    set of str keys and no container values.  Its values, row by row in
    sorted key order, go through the C encoder one call per _ROW_BATCH rows,
    since the encoder holds every small piece of its text until it returns.
    Each batch fills its rows' copies of one row template with one %.  Any
    other list is left to the caller's walk.  NaN and infinities raise
    ValueError.
    """
    # plain dicts only: a subclass's [] may not raise on a missing key
    if set(map(type, rows)) != {dict}:
        return None
    order = sorted(rows[0]) if all(map(isinstance, rows[0], repeat(str))) else ()
    # a row as long as the first that holds each of its keys has its key set
    if not (order and all(map(len(order).__eq__, map(len, rows)))):
        return None
    try:
        values = [row[key] for row in rows for key in order]
    except KeyError:
        return None
    if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
        return None
    outer, row, field = ("  " * (level + depth) for depth in range(3))
    template = ("{\n" + field + (",\n" + field).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in order)
        + "\n" + row + "}")
    step = len(order) * _ROW_BATCH
    filled = []
    for start in range(0, len(values), step):
        batch = values[start:start + step]
        filled.append((",\n" + row).join(repeat(template, len(batch) // len(order)))
                      % tuple("".join(_SCALARS(batch, 0))[1:-1].split("\x00")))
    return "[\n" + row + (",\n" + row).join(filled) + "\n" + outer + "]"


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
        with open(ns.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(ns):
    _default(ns, "omega", 1.0)
    _default(ns, "trunc", 100)
    _default(ns, "levels", 10)
    _default(ns, "tol", 1e-8)
    _default(ns, "format", "json")
    _validate_run(ns)
    model = resolve_model(ns)
    scale = model.quadratic.frequency_scale
    broken = abs(scale.imag) > 1e-12 * max(1.0, abs(scale))
    closed_plus = [spectra.general_quadratic_spectrum(model.quadratic, n)
                   for n in range(ns.levels)]
    closed_minus = [-v for v in closed_plus] if model.oscillator is not None else None

    fock = spectra.quadratic_fock_matrix(model.quadratic, ns.omega, ns.trunc)
    solved = spectra.parity_spectrum(fock, levels=ns.levels)
    eigs, parities = solved.eigenvalues, solved.parities

    levels = []
    max_dev = None
    for n in range(ns.levels):
        entry = {
            "n": n,
            "eigenvalue": _cj(eigs[n]),
            "parity": int(parities[n]),
            "closed_form": None,
            "deviation": None,
        }
        if not broken:
            entry["closed_form"] = _cj(closed_plus[n])
            entry["deviation"] = abs(eigs[n] - closed_plus[n])
            max_dev = entry["deviation"] if max_dev is None else max(max_dev, entry["deviation"])
        levels.append(entry)

    results = {
        "model": {
            "kind": model.kind,
            "c_pp": _cj(model.quadratic.c_pp),
            "c_xp": _cj(model.quadratic.c_xp),
            "c_xx": _cj(model.quadratic.c_xx),
            "frequency_scale": _cj(scale),
            "discriminant": model.oscillator.discriminant if model.oscillator else None,
        },
        "broken_phase": broken,
        "closed_form": {
            "plus": [_cj(v) for v in closed_plus],
            "minus": [_cj(v) for v in closed_minus] if closed_minus is not None else None,
        },
        "critical_frequencies": None,
        "numeric": levels,
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
    diagnostics = {"max_deviation": max_dev, "normalizable": None}
    if model.transform is not None:
        flag, margin = canonical.normalizable(model.transform)
        diagnostics["normalizable"] = {"flag": flag, "margin": margin}
    document = {
        "config": _config_echo(ns, "spectrum"),
        "results": results,
        "diagnostics": diagnostics,
    }
    header = ["n", "eigen_re", "eigen_im", "parity", "closed_re", "closed_im", "deviation"]
    rows = (
        [
            entry["n"],
            entry["eigenvalue"]["re"],
            entry["eigenvalue"]["im"],
            entry["parity"],
            entry["closed_form"]["re"] if entry["closed_form"] else None,
            entry["closed_form"]["im"] if entry["closed_form"] else None,
            entry["deviation"],
        ]
        for entry in levels
    )
    _emit(ns, document, header, rows)
    return EXIT_OK


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
    return [ns.start + i * ns.step for i in range(count)]


def cmd_scan(ns):
    _default(ns, "levels", 8)
    _default(ns, "threshold", 1e-6)
    _default(ns, "format", "json")
    if ns.levels < 1:
        raise ConfigError("levels must be at least 1")
    _require_positive(ns.threshold, "threshold")
    param = ns.scan.replace("-", "_") if ns.scan else None
    values = _scan_values(ns)
    if param not in _MODEL_KEYS:
        raise ConfigError(f"cannot scan {ns.scan!r}; choose one of "
                          + ", ".join(key.replace("_", "-") for key in _MODEL_KEYS))

    point = argparse.Namespace(**vars(ns))
    setattr(point, param, values[0])
    build = model_family(point)

    rows = []
    transition_bracket = margin_bracket = previous_indicator = previous_margin = None
    for index, value in enumerate(values):
        setattr(point, param, value)
        model = build(point)
        # The indicator is the largest |Im E_n| over the lowest `levels` levels,
        # E_n = Omega (2n+1).  Im E_n is Im(Omega)*(2n+1) rounded, plus
        # Re(Omega)*0, which is +-0 at every level (NaN at every level when
        # Re(Omega) is not finite).  Rounding is monotone, so |Im E_n| never
        # decreases with n and the top level holds the maximum bit for bit.
        indicator = abs(spectra.general_quadratic_spectrum(model.quadratic, ns.levels - 1).imag)
        margin = (None if model.transform is None
                  else canonical.normalizable(model.transform).margin)
        transition = indicator > ns.threshold and (previous_indicator is None
                                                   or previous_indicator <= ns.threshold)
        if transition and transition_bracket is None and index > 0:
            transition_bracket = [values[index - 1], value]
        if (margin is not None and previous_margin is not None and margin_bracket is None
                and (margin > 0) != (previous_margin > 0)):
            margin_bracket = [values[index - 1], value]
        rows.append({"index": index, "value": value, "max_imag": indicator,
                     "margin": margin, "transition": transition and index > 0})
        previous_indicator = indicator
        previous_margin = margin

    document = {
        "config": _config_echo(ns, "scan"),
        "results": {"rows": rows},
        "diagnostics": {
            "threshold": ns.threshold,
            "transition_bracket": transition_bracket,
            "margin_sign_change_bracket": margin_bracket,
        },
    }
    header = ["index", "value", "max_imag", "margin", "transition"]
    csv_rows = (
        [row["index"], row["value"], row["max_imag"], row["margin"], row["transition"]]
        for row in rows
    )
    _emit(ns, document, header, csv_rows)
    return EXIT_OK


def cmd_verify(ns):
    _default(ns, "omega", 1.0)
    _default(ns, "trunc", 200)
    _default(ns, "levels", 8)
    _default(ns, "tol", 1e-8)
    _default(ns, "tol_eta", 1e-6)
    _default(ns, "format", "json")
    _validate_run(ns)
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
    document = {
        "config": _config_echo(ns, "verify", extra={"transform": params if all(
            not isinstance(v, complex) for v in params.values()) else {
            key: _cj(v) for key, v in params.items()}}),
        "results": {
            "isospectral": {
                "passed": iso.passed,
                "max_deviation": iso.max_deviation,
                "levels": [
                    {
                        "n": level.index,
                        "eigenvalue": _cj(level.eigenvalue),
                        "reference": _cj(level.reference),
                        "deviation": level.deviation,
                        "parity": level.parity,
                        "matched": level.matched,
                    }
                    for level in iso.levels
                ],
                "notes": list(iso.notes),
            },
            "eta": {
                "passed": eta.passed,
                "biorthonormality_defect": eta.biorthonormality_defect,
                "pseudo_hermiticity_defect": eta.pseudo_hermiticity_defect,
            },
        },
        "diagnostics": {
            "passed": passed,
            "normalizable": None
            if norm is None
            else {"flag": norm.normalizable, "margin": norm.margin},
        },
    }
    header = ["metric", "value"]
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
    _emit(ns, document, header, rows)
    return EXIT_OK if passed else EXIT_VERIFY


def _grid(ns, omega, level=0):
    """The grid that covers level `level` at frequency omega, or the --grid-span
    grid.

    The default grid has DEFAULT_GRID_POINTS points, or more where the level
    needs them (wavefun.min_grid_points); fewer explicit --grid-points than
    that on the default width, a --grid-span that is not positive, or a
    --grid-span grid spaced wider than wavefun.max_grid_spacing, are a
    ConfigError.  A grid that passes holds more than 30 points within the
    default half-width, where the state lives."""
    fewest = wavefun.min_grid_points(level)
    if ns.grid_points is None:
        ns.grid_points = max(wavefun.DEFAULT_GRID_POINTS, fewest)
    if ns.grid_span is None:
        if ns.grid_points < fewest:
            raise ConfigError(f"level {level} needs at least {fewest} grid-points on the "
                              f"default grid, {wavefun.POINTS_PER_NODE_SPACING} per node "
                              f"spacing; got {ns.grid_points}")
        return wavefun.default_grid(omega, ns.grid_points, level)
    _require_positive(ns.grid_span, "grid-span")
    # spacings, not point counts, stay finite for every finite span
    widest = wavefun.max_grid_spacing(level, omega)
    spacing = ns.grid_span / (ns.grid_points - 1) * 2.0
    if spacing > widest:
        raise ConfigError(f"level {level} needs a grid spacing of at most {widest:.6g}, "
                          f"{wavefun.POINTS_PER_NODE_SPACING} per node spacing; --grid-span "
                          f"{ns.grid_span:g} with {ns.grid_points} grid-points spaces them "
                          f"{spacing:.6g}")
    return wavefun.uniform_grid(ns.grid_span, ns.grid_points)


def _mix_ground_state(ns):
    width = wavefun.rm_ground_width(ns.rm_alpha, ns.rm_beta)
    grid = _grid(ns, width)
    values = wavefun.rm_ground_state(ns.rm_alpha, ns.rm_beta, grid.points)
    return wavefun.WavefunctionSample(
        grid=grid, values=values, omega=width,
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
    try:
        pair = spectra.eigenvector_coefficients(osc, ns.branch, ns.excitation, ns.parity)
    except spectra.BrokenPhaseError as exc:
        raise ConfigError(str(exc))
    if pair.frequency <= 0:
        raise ConfigError(
            f"branch frequency {pair.frequency:g} is not positive; the state is "
            "square integrable along the imaginary axis only and is not sampled"
        )
    grid = _grid(ns, pair.frequency, 2 * ns.excitation + ns.parity)
    return wavefun.synthesize(pair, pair.frequency, grid)


_STATES = (
    _Choice(("rm_alpha", "rm_beta"), (),
            "the mix ground state needs both --rm-alpha and --rm-beta", _mix_ground_state),
    _Choice(("level",), ("omega",), None, _level_state),
    _Choice(("h11", "h12", "h22"), ("branch", "excitation", "parity"),
            "the eigenvector state needs --h11, --h12 and --h22", _eigenvector_state),
)


def cmd_wavefunction(ns):
    _default(ns, "format", "json")
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
    document = {
        "config": _config_echo(ns, "wavefunction"),
        "results": {
            "source": sample.source,
            "omega": sample.omega,
            "norm": norm,
            "nodes": nodes,
            "x": sample.grid.points.tolist(),
            "value_re": sample.values.real.tolist(),
            "value_im": sample.values.imag.tolist(),
        },
        "diagnostics": {"grid_points": sample.grid.size, "grid_span": float(sample.grid.points[-1])},
    }
    header = ["x", "value_re", "value_im", "norm", "nodes"]
    rows = (
        [float(x), float(v.real), float(v.imag), norm, nodes]
        for x, v in zip(sample.grid.points, sample.values)
    )
    _emit(ns, document, header, rows)
    return EXIT_OK


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "scan": cmd_scan,
    "verify": cmd_verify,
    "wavefunction": cmd_wavefunction,
}


def main(argv=None):
    parser, config_keys = _shared_cli()
    ns = parser.parse_args(argv)
    try:
        _merge_config(ns, config_keys)
        _require_finite(ns)
        return _DISPATCH[ns.command](ns)
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
