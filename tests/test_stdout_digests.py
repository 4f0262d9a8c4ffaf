"""Byte identity of the command line's output on a fixed set of commands.

Each entry pins the exit code and the sha256 of stdout and of stderr of one
`nhosc` command, run in-process.  The commands are the README's, a 2,001-row
mix scan whose margin changes sign, a CSV scan, points of the benchmark's
seed-1 spectrum and verify pools, the ill-conditioned mix (0.6, 0.6) at
N = 400, a three-parameter block that sits near Bendixson's exit, the
N = 2000 mix verify, a verify that fails on a vanishing biorthogonal
overlap, one whose huge gauge radix-scales inverse iteration, and one
command for each choice of model, transform and wavefunction state that the
others leave out.  A change meant to keep results identical must leave every
digest as it is; a change meant to alter output updates the affected digests
and says so.

Run `PYTHONPATH=src python tests/test_stdout_digests.py` to print the
digests of the current tree in this file's format.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from nhosc import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# command -> (exit code, sha256 of stdout, sha256 of stderr)
DIGESTS = {
    'spectrum --h11 0.5 --h12 0 --h22 0.5 -n 5':
        (0, '2fbde71dfb0b65697ae4da8a7bfcfa32e6f127b0d86fae0c69c04db4ecdfb0cc',
         EMPTY),
    'spectrum --rm-alpha 0.3 --rm-beta 0.2 -n 10 -N 200':
        (0, '5bf732bf7926b1edc8c7d545b2fd0be195f929fbfdcce8f47a96f342ba833744',
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
        (0, '7eee2dbdc9993b1caffdf70de6714749dcce770e85addc9428e8d9692ae6d44a',
         EMPTY),
    'wavefunction --rm-alpha 0.3 --rm-beta 0.2':
        (0, '0dfb94ca161685c477820f326f681dcb3217d1ea85ffe07c2a1ba458ad8821e2',
         EMPTY),
    'spectrum --h11=0.32041746369561314 --h12=0.16996941664222537 --h22=0.5476547371014461 -n 10 -N 200':
        (0, 'e0f1c27e21b5a14a624aba7c5abe6215696f6b190b8fa018b8f510649624ffc3',
         EMPTY),
    'spectrum --h11=0.5103847594360817 --h12=0.2574171661963569 --h22=0.37622130850727764 -n 10 -N 400':
        (0, '400a36c83ccdb5758d4fb9dbc8e21f04f1f51fca923f5c51c255d703f3f5ff93',
         EMPTY),
    'spectrum --rm-alpha=0.7218889872961263 --rm-beta=-0.17155837111220518 -n 10 -N 400':
        (0, 'ab1a378a5e0d9902c672b125a0994afe24d77dee7038964de0d4bb72f126cd4d',
         EMPTY),
    'spectrum --gamma=-0.20049890770249762 --alpha=1.1377126496463152 -n 10 -N 400':
        (0, 'af077bde97cb8553e62220cdf6645a32619339951d2fffa9dfe90401f0cd6026',
         EMPTY),
    'verify --rm-alpha=0.34430518977014 --rm-beta=0.6682360721558334 -N 200 -n 8':
        (0, 'b5bbd775a16ad3ff397a9e4b80997cf6885075d4404fc58e97bcb0a762399eb3',
         EMPTY),
    'verify --gauge-g=-0.32030982143585024 -N 200 -n 8':
        (0, 'fa8ace9a3ac504901890304ced23aa6f416d44eac9b229443f06aaff91c47f36',
         EMPTY),
    'verify --u11=(0.8823152190458334+0j) --u12=-0.30517329409337585j --u21=-0.40529654843212487j --u22=(0.9931986871743752+0j) -N 200 -n 8':
        (0, 'b0ea00672b84835d0cfecdfa4bf38e043a8d15425c31bd78b30527cf85bd740c',
         EMPTY),
    'spectrum --rm-alpha 0.6 --rm-beta 0.6 -n 28 -N 400':
        (0, '2da56a7fe811e0f2b944001ad4f8ffe210e18eaa74fb310a427a88b7fc9192d4',
         EMPTY),
    'verify --rm-alpha 0.6 --rm-beta 0.6 -n 28 -N 400':
        (3, EMPTY,
         '36cf6dec5e53e6d3d26240172e11d8cd27efa3d5ab5bf85c1fa04186cd2d9e38'),
    'verify --rm-alpha 0.3 --rm-beta 0.2 -N 2000 -n 8':
        (0, '5be07e07fceae7500b1d870a6257da9d792aee72bbda1b15d1067ae11e080e27',
         EMPTY),
    'verify --rm-alpha 0.3 --rm-beta 0.2 -N 400 -n 60':
        (3, EMPTY,
         '30c98beda1ccb65fb8423e46f1648184aac9afad89c472732d0ef95460435ac8'),
    'verify --gauge-g 1e100 -N 40 -n 4':
        (4, 'fb3ad35c7bca6a6b8b227c403ff82bc9d441415c073e9088f1464059ee28891b',
         EMPTY),
    'wavefunction --level 3 --omega 1.5':
        (0, 'bf8d089df25e6a5d9aeeb5c6e77647fa6d2677883c0a0c510e5d5ed498455c03',
         EMPTY),
    'wavefunction --h11 0.4 --h12 0.3 --h22 0.6 --excitation 1 --parity 1':
        (0, 'adce3e63c8daea55b7dbccec460bfb46cb332df0d5fe165aef293c555b5c0b88',
         EMPTY),
    'spectrum --gamma 0.3 --k 2 -N 40 -n 4 --format csv':
        (0, '23f58e36bf4a4acce0d5ad2d1255fc40e6fdb76f72fb2a1b87959fdd53470765',
         EMPTY),
    'verify --u11 1 --u12 0 --u21 0 --u22 1 -N 40 -n 4 --format csv':
        (0, '2394fadb9ed831adb91ac6f6a5aab4564a815fcdb8154819c70b30392058d526',
         EMPTY),
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


if __name__ == "__main__":
    for command in DIGESTS:
        code, out, err = run(command)
        err = "EMPTY" if err == EMPTY else repr(err)
        print(f"    {command!r}:\n        ({code}, {out!r},\n         {err}),")
