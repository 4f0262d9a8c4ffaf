"""Seeded task pools for the three benchmark workloads.

A task is one `nhosc` command line plus what the benchmark expects of its
output.  Every pool is stratified: each pass over it holds the same kinds of
tasks at the same sizes, and the seed only moves each parameter inside its
stratum.  So two seeds give different inputs with the same mix of work, and
the spread between runs reflects the program rather than the draw.

All parameter ranges were chosen so that every task succeeds at the commit
that defined the benchmark; a failure is a regression, never noise.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

VERIFY_TRUNC = 200
VERIFY_LEVELS = 8
SPECTRUM_TRUNCS = (100, 200, 400)
SPECTRUM_LEVELS = 10
SCAN_POINTS = 2001
SCAN_STEP = 0.001

# The mix (alpha, beta) strata: one point per quadrant of [-0.8, 0.8]^2, with
# MIX_MIN_SUM <= |alpha + beta| <= a per-workload maximum.
# - Near the line alpha = -beta the transformed operator is nearly the Hermitian
#   oscillator, its truncation nearly diagonal, and the solver finishes at once;
#   a draw there would swing the cost of a run with the seed.
# - Large |alpha + beta| squeezes the eigenfunctions towards the truncation
#   edge.  At (0.8, 0.8) level 7 of the N = 200 truncation sits 2e-4 from n + 1/2
#   by LAPACK as well, so verify rightly fails there.  The maxima keep every
#   retained level within 1e-10 of the closed form by LAPACK: 1.2 for the N = 200
#   verify tasks, 0.9 for the N = 100 spectrum tasks.
# On this box 1 + alpha beta >= 0.36, so the mix is never singular.
MIX_QUADRANTS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
MIX_MIN_SUM = 0.2
VERIFY_MAX_SUM = 1.2
SPECTRUM_MAX_SUM = 0.9
MIX_RANGE = (0.05, 0.8)


@dataclass(frozen=True)
class Task:
    """One command line and the facts its output must show."""

    kind: str
    argv: tuple
    expect: dict

    @property
    def key(self):
        return " ".join(self.argv)


def _flag(name, value):
    """`--name=value` with round-trip text; the `=` form keeps argparse from
    reading a negative value such as -3e-05 as an option."""
    return f"--{name}={value!r}"


def _mix_point(rng, quadrant, max_sum):
    sa, sb = quadrant
    while True:
        alpha = sa * rng.uniform(*MIX_RANGE)
        beta = sb * rng.uniform(*MIX_RANGE)
        if MIX_MIN_SUM <= abs(alpha + beta) <= max_sum:
            return alpha, beta


def _mix_quadratic(alpha, beta):
    denom = 2.0 * (1.0 + alpha * beta)
    return ((1.0 - alpha * alpha) / denom, 1j * (alpha + beta) / denom,
            (1.0 - beta * beta) / denom)


def _explicit_transform(rng):
    """Entries of exp[(a/2) x^2 + (c/2)(xp+px) + (b/2) p^2] with imaginary a, b.

    Computed here from the generator's closed form, so the benchmark does not
    call the package to build its own inputs.
    """
    a = 1j * rng.uniform(-0.5, 0.5)
    b = 1j * rng.uniform(-0.5, 0.5)
    c = rng.uniform(-0.2, 0.2)
    theta = cmath.sqrt(c * c - a * b)
    if abs(theta) < 1e-6:
        return _explicit_transform(rng)
    cosh, sinhc = cmath.cosh(theta), cmath.sinh(theta) / theta
    return cosh - c * sinhc, -b * sinhc, a * sinhc, cosh + c * sinhc


def verify_pool(seed):
    """`nhosc verify -N 200 -n 8` over mix, gauge and explicit transforms."""
    rng = random.Random(f"verify/{seed}")
    common = ("-N", str(VERIFY_TRUNC), "-n", str(VERIFY_LEVELS))
    expect = {"levels": VERIFY_LEVELS, "omega": 0.5}
    tasks = []
    for quadrant in MIX_QUADRANTS:
        alpha, beta = _mix_point(rng, quadrant, VERIFY_MAX_SUM)
        tasks.append(Task("verify", ("verify", _flag("rm-alpha", alpha),
                                     _flag("rm-beta", beta)) + common, expect))
    for sign in (1, -1):
        g = sign * rng.uniform(0.1, 0.8)
        tasks.append(Task("verify", ("verify", _flag("gauge-g", g)) + common, expect))
    for _ in range(2):
        entries = _explicit_transform(rng)
        flags = tuple(_flag(name, complex(value))
                      for name, value in zip(("u11", "u12", "u21", "u22"), entries))
        tasks.append(Task("verify", ("verify",) + flags + common, expect))
    return tasks


def spectrum_pool(seed):
    """`nhosc spectrum -n 10` for each family at each truncation."""
    rng = random.Random(f"spectrum/{seed}")
    tasks = []
    for trunc, quadrant in zip(SPECTRUM_TRUNCS, MIX_QUADRANTS):
        common = ("-n", str(SPECTRUM_LEVELS), "-N", str(trunc))
        expect = {"levels": SPECTRUM_LEVELS, "trunc": trunc}

        h11, h22 = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
        h12 = rng.choice((1, -1)) * rng.uniform(0.1, 0.4)
        tasks.append(Task("spectrum", ("spectrum", _flag("h11", h11), _flag("h12", h12),
                                       _flag("h22", h22)) + common,
                          dict(expect, quadratic=(h11, 1j * h12, h22))))

        alpha, beta = _mix_point(rng, quadrant, SPECTRUM_MAX_SUM)
        tasks.append(Task("spectrum", ("spectrum", _flag("rm-alpha", alpha),
                                       _flag("rm-beta", beta)) + common,
                          dict(expect, quadratic=_mix_quadratic(alpha, beta))))

        alpha = rng.uniform(0.8, 1.2)
        gamma = rng.choice((1, -1)) * rng.uniform(0.1, 0.6) * alpha
        # (p - gamma x)^2/2 + (alpha^2 - gamma^2) x^2/2
        tasks.append(Task("spectrum", ("spectrum", _flag("gamma", gamma),
                                       _flag("alpha", alpha)) + common,
                          dict(expect, quadratic=(0.5, -0.5 * gamma, 0.5 * alpha * alpha))))
    return tasks


def _scan_range(start):
    """Flags for SCAN_POINTS points from start; stop sits half a step past the
    last point so the inclusive row count is unambiguous."""
    stop = start + (SCAN_POINTS - 1) * SCAN_STEP + SCAN_STEP / 2
    return (_flag("start", start), _flag("stop", stop), _flag("step", SCAN_STEP))


def closed_form_pool(seed):
    """Two ~2,000-point scans and three wavefunction tasks."""
    rng = random.Random(f"closed_form/{seed}")
    tasks = []

    # gamma family at fixed alpha: the spectrum turns complex once |gamma| > alpha
    alpha = rng.uniform(0.5, 1.5)
    tasks.append(Task("scan", ("scan", _flag("alpha", alpha), "--scan", "gamma")
                      + _scan_range(rng.uniform(-0.05, 0.0)),
                      {"rows": SCAN_POINTS, "transition_at": alpha}))

    # mix family along beta: real spectrum throughout, margin (1-beta)/(1+alpha)
    # changes sign at beta = 1
    rm_alpha = rng.uniform(-0.5, 0.8)
    tasks.append(Task("scan", ("scan", _flag("rm-alpha", rm_alpha), "--scan", "rm-beta")
                      + _scan_range(rng.uniform(-0.95, -0.85)),
                      {"rows": SCAN_POINTS, "transition_at": None, "margin_sign_at": 1.0}))

    alpha, beta = rng.uniform(-0.5, 0.8), rng.uniform(-0.8, 0.8)
    tasks.append(Task("wavefunction", ("wavefunction", _flag("rm-alpha", alpha),
                                       _flag("rm-beta", beta)), {"nodes": 0}))

    level = rng.randrange(0, 9)
    omega = rng.uniform(0.5, 2.0)
    tasks.append(Task("wavefunction", ("wavefunction", "--level", str(level),
                                       _flag("omega", omega)), {"nodes": level}))

    h11, h22 = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)
    h12 = rng.choice((1, -1)) * rng.uniform(0.1, 0.4)
    excitation, parity = rng.randrange(0, 4), rng.randrange(0, 2)
    tasks.append(Task("wavefunction", ("wavefunction", _flag("h11", h11), _flag("h12", h12),
                                       _flag("h22", h22), "--excitation", str(excitation),
                                       "--parity", str(parity)),
                      {"nodes": 2 * excitation + parity}))
    return tasks


POOLS = {
    "verify": verify_pool,
    "spectrum": spectrum_pool,
    "closed_form": closed_form_pool,
}

# Small fixed commands run during set-up, one per subcommand, so that lazy
# work on a first call is paid inside set-up and not by the first timed task.
WARMUP = (
    ("verify", "--rm-alpha", "0.3", "--rm-beta", "0.2", "-N", "32", "-n", "4"),
    ("spectrum", "--h11", "0.5", "--h12", "0.2", "--h22", "0.5", "-N", "32", "-n", "4"),
    ("scan", "--alpha", "1.0", "--scan", "gamma", "--start", "0", "--stop", "2", "--step", "0.1"),
    ("wavefunction", "--level", "1", "--grid-points", "101"),
)
