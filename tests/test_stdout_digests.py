"""Byte identity of the command line's output on a fixed set of commands.

Each entry pins the exit code and the sha256 of stdout and of stderr of one
`nhosc` command, run in-process.  The commands are the README's, a 2,001-row
mix scan whose margin changes sign, a CSV scan, points of the benchmark's
seed-1 spectrum and verify pools, the ill-conditioned mix (0.6, 0.6) at
N = 400, a three-parameter block that sits near Bendixson's exit, the
N = 2000 mix verify, a verify that fails on a vanishing biorthogonal
overlap, one whose huge gauge radix-scales inverse iteration, and one
command for each choice of model, transform and wavefunction state that the
others leave out, a broken-phase spectrum, a verify against a scaled base,
a verify that fails its level check (exit 4), eigenvector states whose
coefficients' sum of squares or recurrence overflows or whose level is past
the grid cap or float range, a spectrum and a scan whose scale overflows,
a spectrum on the degenerate line alpha = -1, whose verdict is null, an
inverted oscillator at scale 1e-13, whose phase is broken as at every scale,
and a state at a subnormal frequency, which is refused.  A change
meant to keep results identical must leave every digest as it is; a change
meant to alter output updates the affected digests and says so.

Run `PYTHONPATH=src python tests/test_stdout_digests.py` to print the
digests of the current tree in this file's format.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nhosc import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# command -> (exit code, sha256 of stdout, sha256 of stderr)
DIGESTS = {
    'spectrum --h11 0.5 --h12 0 --h22 0.5 -n 5':
        (0, '092f99d6df89ee9d308efbb697eef11b9f9d59334193e7f0efc0e54a0a316d23',
         EMPTY),
    'spectrum --rm-alpha 0.3 --rm-beta 0.2 -n 10 -N 200':
        (0, '50d2e1dab29bb73e9918afbb70aec47c97415fd4627a0cc1c023bdb977ccfa51',
         EMPTY),
    'scan --alpha 1.0 --scan gamma --start 0 --stop 2 --step 0.01':
        (0, '0d505e900870cc5e7fe9362a21e6c59d89dcd01c73a02f9a1cef4c57cc96ce64',
         EMPTY),
    'scan --rm-alpha 0.3 --scan rm-beta --start=-0.9 --stop 1.1005 --step 0.001':
        (0, 'e43f0a9c36a57103e323349fdcafcbbea41bc0c2d1065aea850ec08feed75653',
         EMPTY),
    'scan --alpha 1.0 --scan gamma --start 0 --stop 2 --step 0.01 --format csv':
        (0, 'dc9d3f86a1769d3e4c031f0aa7696a1df1cfc2b27c0472a7f1dd041969cd3e9e',
         EMPTY),
    'verify --rm-alpha 0.3 --rm-beta 0.2 -N 200 -n 8':
        (0, '893454dff67945a2b056e6a121c525a385685e8b8871c05e5430857352796d1a',
         EMPTY),
    'wavefunction --rm-alpha 0.3 --rm-beta 0.2':
        (0, '4295380aef05878b00dd226008e49fdea5019cbf5a1c2b937e86ea6ca82e7a18',
         EMPTY),
    'spectrum --h11=0.32041746369561314 --h12=0.16996941664222537 --h22=0.5476547371014461 -n 10 -N 200':
        (0, 'eb31bed9b8cffc36b600e8fd3434c673b65d4191b5d5e1925d4df3da10e2d4bd',
         EMPTY),
    'spectrum --h11=0.5103847594360817 --h12=0.2574171661963569 --h22=0.37622130850727764 -n 10 -N 400':
        (0, '8ebb9fb6c6353d365e2ae33e138c7ba5de491fc615a36dc3b39a565a290ad3e0',
         EMPTY),
    'spectrum --rm-alpha=0.7218889872961263 --rm-beta=-0.17155837111220518 -n 10 -N 400':
        (0, '8b1ff09ea18d8ee98edff9cf22e59b037478239fb890d205cb4ce699e74f9888',
         EMPTY),
    'spectrum --gamma=-0.20049890770249762 --alpha=1.1377126496463152 -n 10 -N 400':
        (0, 'f6c0f2fe6c1ebdf2c9a7460c6991a0ca1a126eb325df755ad1e35485b76c25ab',
         EMPTY),
    'verify --rm-alpha=0.34430518977014 --rm-beta=0.6682360721558334 -N 200 -n 8':
        (0, '7ddc67819a7717e16ccf1fa427b9a96e7e56f7216c042e251b95faf7f5cf32a6',
         EMPTY),
    'verify --gauge-g=-0.32030982143585024 -N 200 -n 8':
        (0, 'f46e92d051e029d7d4b0ac0de633ed6a42803aec47a8c19ebdb9cf6e3ec70831',
         EMPTY),
    'verify --u11=(0.8823152190458334+0j) --u12=-0.30517329409337585j --u21=-0.40529654843212487j --u22=(0.9931986871743752+0j) -N 200 -n 8':
        (0, 'bd103d78ef62ce510bbed1a73312c28f9e62fd89d756696977f5a34d53a98dcb',
         EMPTY),
    'spectrum --rm-alpha 0.6 --rm-beta 0.6 -n 28 -N 400':
        (0, '87c3e2cb0bfa935a09941d2b66ed8abec28a6c0dda3253e981a6b5117702773d',
         EMPTY),
    'verify --rm-alpha 0.6 --rm-beta 0.6 -n 28 -N 400':
        (3, EMPTY,
         '36cf6dec5e53e6d3d26240172e11d8cd27efa3d5ab5bf85c1fa04186cd2d9e38'),
    'verify --rm-alpha 0.3 --rm-beta 0.2 -N 2000 -n 8':
        (0, 'c0470ab61ccff83dba52e3607db60bd4ffe75c70098bb141d61c58f717c68269',
         EMPTY),
    'verify --rm-alpha 0.3 --rm-beta 0.2 -N 400 -n 60':
        (3, EMPTY,
         '30c98beda1ccb65fb8423e46f1648184aac9afad89c472732d0ef95460435ac8'),
    'verify --gauge-g 1e100 -N 40 -n 4':
        (4, 'e2ee0d0b9606b5d58d0fc1a18f13fc730dcada63263a3901b0d4c861572ddcc4',
         EMPTY),
    'wavefunction --level 3 --omega 1.5':
        (0, 'f5593ff9ec4ca777f0c7f60664c9aa09361a6cc68681e49507f6b2073a179e4c',
         EMPTY),
    'wavefunction --h11 0.4 --h12 0.3 --h22 0.6 --excitation 1 --parity 1':
        (0, '411e230e3b9125bb4964167af46887d5c69f923d48e197a682b3712397bbd27f',
         EMPTY),
    'spectrum --gamma 0.3 --k 2 -N 40 -n 4 --format csv':
        (0, '23f58e36bf4a4acce0d5ad2d1255fc40e6fdb76f72fb2a1b87959fdd53470765',
         EMPTY),
    'verify --u11 1 --u12 0 --u21 0 --u22 1 -N 40 -n 4 --format csv':
        (0, '5a2d8e4666dd3b90eaa0833ead520a35c1ec180808fdd5933721bdd394b1fa10',
         EMPTY),
    'spectrum --gamma 1.5 --alpha 1 -N 40 -n 4':
        (0, '603df2e2eee4d089e1bd5a4438ae66f2c769c24d44555022de8e04b31d1d3d4a',
         EMPTY),
    'spectrum --gamma 1.5 --alpha 1 -N 40 -n 4 --format csv':
        (0, '37add5d94b0366bd85651b9584fec7bc7ccc39a350eef199e362144e2693fca7',
         EMPTY),
    'verify --rm-alpha 0.3 --rm-beta 0.2 --base-k 2 -N 40 -n 4':
        (0, '067ab96fe7fc046b45403623e74e9d985716b47c805cd82d94e94538231c4978',
         EMPTY),
    'verify --rm-alpha 0.8 --rm-beta 0.8 -N 200 -n 8':
        (4, '377ca6557981be55e3660b6d96f9b5bbba5a123f84c2dc8b78548c31091f6eb7',
         EMPTY),
    'verify --rm-alpha 0.8 --rm-beta 0.8 -N 200 -n 8 --format csv':
        (4, '025dca8d699e2aa17dad8c203f9926e61e33f9ec99aeccb6cb3657594a549a50',
         EMPTY),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 300':
        (0, '21d06248ac6c608dcd4a5d54dcc0ccf7366ba43a71648863e6f30271c6d33761',
         EMPTY),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 400':
        (0, 'fbab062ba4bcd41cd7438a0ab6cb9a692b3cb9807459c9899dc16296938ea06f',
         EMPTY),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 600':
        (3, EMPTY,
         'f31a980ffc683a140b9b02891171448318b936fe7289b1e01333b75623c69af6'),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 100000':
        (2, EMPTY,
         '09989a8ad4db371798bbbf43ce54f20a090d17a1fd5059d51cfe321facb96d14'),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 100000000':
        (2, EMPTY,
         '1b8b60e04296d8494dda14a2251f69f27382201cd2b9e2b5b8df45b89b828396'),
    'wavefunction --h11 0.5 --h12 0.2 --h22 0.5 --excitation 1' + '0' * 400:
        (2, EMPTY,
         '65c6076c2baadb179e1c2f9540f97901af52ce4256b7ef325c65b03e818bdc20'),
    'wavefunction --level 1' + '0' * 400:
        (2, EMPTY,
         '39675ab021845f3f327083f3c0d7c51cb8d438de2781a8ea2f65cebb3635f294'),
    'spectrum --h11 1e200 --h12 1e200 --h22=-1e200 -N 8 -n 2':
        (3, EMPTY,
         '6e8f5e15ce08c4f79e2adcd2f7906a116bf8657b35bf208b37a2c7e11a5f100f'),
    'spectrum --rm-alpha=-1 --rm-beta 0.5 -N 40 -n 4':
        (0, '6db0f0ff1614ec0196d0d0cae68a5d3d6ba0822544bd78ef0f671461f1600ede',
         EMPTY),
    'scan --h11 0.5 --h22 0.5 --h12 0 --scan h12 --start 0 --stop 1e308 --step 1e307':
        (3, EMPTY,
         'fe61eb6a2f75357518e5f0802b61bdb2f00872ddbf4e80700d86940111eabd4e'),
    'spectrum --h11 1e-13 --h12 0 --h22=-1e-13 -N 8 -n 2':
        (0, '9d92e029cc67014603cd9c1f466cb4d6ed876478bb22dae65b17065487f43330',
         EMPTY),
    'spectrum --h11 1e-13 --h12 0 --h22=-1e-13 -N 8 -n 2 --format csv':
        (0, '3817b85e71184d50b6c01072928a68586fe0a1d6b5c64b4035aec940405a48a1',
         EMPTY),
    'wavefunction --level 3 --omega 5e-324':
        (2, EMPTY,
         '3865da4db997194f9d361db4e4188b9d775b3427e57f859ab16aa3b2afa3578f'),
}


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return (code,) + tuple(hashlib.sha256(stream.getvalue().encode()).hexdigest()
                           for stream in (out, err))


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_digest(command):
    assert run(command) == DIGESTS[command]


def test_digests_do_not_depend_on_blas_threads():
    """Every pinned command again, in one process whose BLAS runs one thread.

    The in-process digests run at the default thread count, and the benchmark
    pins one thread, so output that depends on the count fails one of the two.
    """
    paths = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    script = ("import json, test_stdout_digests as t; "
              "print(json.dumps({command: t.run(command) for command in t.DIGESTS}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = {command: tuple(result) for command, result in json.loads(proc.stdout).items()}
    assert {command: result for command, result in got.items()
            if result != DIGESTS[command]} == {}


if __name__ == "__main__":
    for command in DIGESTS:
        code, out, err = run(command)
        err = "EMPTY" if err == EMPTY else repr(err)
        print(f"    {command!r}:\n        ({code}, {out!r},\n         {err}),")
