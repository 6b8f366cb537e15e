"""Session-scoped rank-5 objects that several test modules read.

The rank-5 support sweep, the stdout digest of ``kflag verify --n 5 --json``
and the rank-5 staircase kernel generators are each built once per session.
Tests that check repeatability still compute a second copy themselves.
"""

import contextlib
import time

import pytest

from kflag import gkm, kirwan
from kflag.cli import main as cli_main

from oracles import Sha256Sink

RANK5_LAM, RANK5_MU = "4,2,0,-2,-4", "31/97,17/97,5/97,-11/97,-42/97"


@pytest.fixture(scope="session")
def rank5_sweep():
    """verify_support_theorem(5) and the seconds it took."""
    t0 = time.perf_counter()
    report = gkm.verify_support_theorem(5)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def rank5_verify_json_sha256(rank5_sweep):
    """The sha256 of the stdout of ``kflag verify --n 5 --json``; the command
    prints the report of rank5_sweep."""
    real = gkm.verify_support_theorem
    sink = Sha256Sink()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gkm, "verify_support_theorem", lambda n: rank5_sweep[0] if n == 5 else real(n))
        with contextlib.redirect_stdout(sink):
            assert cli_main(["verify", "--n", "5", "--json"]) == 0
    return sink.digest.hexdigest()


@pytest.fixture(scope="session")
def rank5_kernel():
    """kernel_generators of the rank-5 staircase lam at RANK5_MU."""
    return kirwan.kernel_generators(
        kirwan.WeightVector.parse(RANK5_LAM), kirwan.WeightVector.parse(RANK5_MU)
    )


@pytest.fixture
def shared_rank5_kernel(monkeypatch, rank5_kernel):
    """kirwan.kernel_generators answers the rank-5 weights with rank5_kernel,
    for tests that run the CLI on them; other weights are computed."""
    real = kirwan.kernel_generators
    key = (kirwan.WeightVector.parse(RANK5_LAM), kirwan.WeightVector.parse(RANK5_MU))
    monkeypatch.setattr(
        kirwan, "kernel_generators",
        lambda lam, mu: rank5_kernel if (lam, mu) == key else real(lam, mu),
    )
