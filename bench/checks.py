"""Correctness checks on one task's output, run outside the timed region.

Every check uses only the standard library and numpy; nothing here calls the
package under test.  Reference values come from closed forms computed here,
and the spectrum oracle is numpy.linalg.eigvals on a truncation this module
builds itself.  Each function returns a list of mismatch messages, empty when
the output is correct.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

LEVEL_TOL = 1e-8
CLOSED_FORM_REL = 1e-12
NORM_TOL = 1e-6


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def _complex(pair):
    return complex(pair["re"], pair["im"])


def truncation(c_pp, c_xp, c_xx, size):
    """Number-basis matrix of c_pp p^2 + c_xp (xp+px) + c_xx x^2 at frequency 1,
    the default of `nhosc spectrum`.

    With x = (a + a+)/sqrt(2) and p = i (a+ - a)/sqrt(2) the operator is
    diagonal (c_pp + c_xx)(2n+1)/2 plus a+^2 and a^2 terms.
    """
    n = np.arange(size, dtype=float)
    mat = np.zeros((size, size), dtype=complex)
    mat[np.arange(size), np.arange(size)] = (c_pp + c_xx) / 2 * (2 * n + 1)
    raise_amp = (c_xx - c_pp) / 2 + 1j * c_xp
    lower_amp = (c_xx - c_pp) / 2 - 1j * c_xp
    low = n[: size - 2]
    mat[np.arange(2, size), np.arange(size - 2)] = raise_amp * np.sqrt((low + 1) * (low + 2))
    high = n[2:]
    mat[np.arange(size - 2), np.arange(2, size)] = lower_amp * np.sqrt(high * (high - 1))
    return mat


def oracle_levels(quadratic, size, count):
    """Lowest `count` eigenvalues of the truncation by LAPACK, parity blocks apart."""
    mat = truncation(*quadratic, size)
    eigs = np.concatenate([np.linalg.eigvals(mat[0::2, 0::2]),
                           np.linalg.eigvals(mat[1::2, 1::2])])
    return eigs[np.lexsort((eigs.imag, eigs.real))][:count]


def check_verify(doc, expect):
    errors = []
    results = doc["results"]
    levels = results["isospectral"]["levels"]
    if len(levels) != expect["levels"]:
        errors.append(f"{len(levels)} levels, expected {expect['levels']}")
    for level in levels:
        n = level["n"]
        reference = expect["omega"] * (2 * n + 1)
        dev = abs(_complex(level["eigenvalue"]) - reference)
        if not dev <= LEVEL_TOL:
            errors.append(f"level {n} is {dev:.3e} from {reference}")
    for flag in (results["isospectral"]["passed"], results["eta"]["passed"],
                 doc["diagnostics"]["passed"]):
        if flag is not True:
            errors.append("a verification flag is not true")
            break
    return errors


def check_spectrum(doc, expect, oracle):
    errors = []
    c_pp, c_xp, c_xx = expect["quadratic"]
    scale = cmath.sqrt(c_pp * c_xx - c_xp * c_xp)
    results = doc["results"]
    if results["broken_phase"] is not False:
        errors.append("reported a broken phase for an unbroken model")
    numeric = results["numeric"]
    plus = results["closed_form"]["plus"]
    if len(numeric) != expect["levels"] or len(plus) != expect["levels"]:
        errors.append(f"{len(numeric)} levels, expected {expect['levels']}")
        return errors
    for n, (level, closed) in enumerate(zip(numeric, plus)):
        reference = scale * (2 * n + 1)
        if abs(_complex(closed) - reference) > CLOSED_FORM_REL * abs(reference):
            errors.append(f"closed form {n} differs from {reference}")
        value = _complex(level["eigenvalue"])
        tol = LEVEL_TOL * max(1.0, abs(reference))
        if not abs(value - reference) <= tol:
            errors.append(f"level {n} is {abs(value - reference):.3e} from the closed form")
        if not abs(value - oracle[n]) <= tol:
            errors.append(f"level {n} is {abs(value - oracle[n]):.3e} from the oracle")
    return errors


def _bracket_holds(bracket, point):
    return bracket is not None and bracket[0] - 1e-9 <= point <= bracket[1] + 1e-9


def check_scan(doc, expect):
    errors = []
    rows = doc["results"]["rows"]
    if len(rows) != expect["rows"]:
        errors.append(f"{len(rows)} rows, expected {expect['rows']}")
    if [row["index"] for row in rows] != list(range(len(rows))):
        errors.append("row indices are not consecutive")
    diagnostics = doc["diagnostics"]
    transition = diagnostics["transition_bracket"]
    if expect["transition_at"] is None:
        if transition is not None or any(row["max_imag"] != 0 for row in rows):
            errors.append("complex levels on a real-spectrum scan")
    elif not _bracket_holds(transition, expect["transition_at"]):
        errors.append(f"transition bracket {transition} misses {expect['transition_at']}")
    if "margin_sign_at" in expect and not _bracket_holds(
        diagnostics["margin_sign_change_bracket"], expect["margin_sign_at"]
    ):
        errors.append("margin sign change is not bracketed at beta = 1")
    return errors


def check_wavefunction(doc, expect):
    errors = []
    results = doc["results"]
    x = np.array(results["x"])
    density = np.array(results["value_re"]) ** 2 + np.array(results["value_im"]) ** 2
    recomputed = math.sqrt(float(np.trapezoid(density, x)))
    for label, norm in (("reported", results["norm"]), ("recomputed", recomputed)):
        if not abs(norm - 1.0) <= NORM_TOL:
            errors.append(f"{label} norm {norm!r} is not 1")
    if results["nodes"] != expect["nodes"]:
        errors.append(f"{results['nodes']} nodes, expected {expect['nodes']}")
    return errors


def check(task, code, stdout, oracle=None):
    """Mismatches of one run of `task` that exited with `code` and printed `stdout`."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    try:
        if task.kind == "verify":
            return check_verify(doc, task.expect)
        if task.kind == "spectrum":
            return check_spectrum(doc, task.expect, oracle)
        if task.kind == "scan":
            return check_scan(doc, task.expect)
        return check_wavefunction(doc, task.expect)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"output lacks an expected field: {exc!r}"]
