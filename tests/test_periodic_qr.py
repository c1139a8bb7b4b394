"""The periodic QR route for the transfer spectrum against its oracles.

``eigenvalues_stabilized`` is periodic QR only.  The moduli of the cyclic
embedding (``cyclic_log_moduli``) are an oracle, never a fallback: the
tests that patch ``transfer.cyclic_log_moduli`` to raise check that the
run-time route does not reach it.  Those moduli and the sum rule are the
references here; the phases are checked against the formed product in
``tests/test_transfer.py``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockflow import (ModelSpec, anderson_strip, eigenvalues_stabilized,
                       hatano_nelson, lu_logdet)
from blockflow import transfer
from blockflow.transfer import cyclic_log_moduli
from blockflow.cli import main
from blockflow.linalg import EigenConvergenceError

from conftest import clean_chain, hermitian_chain, random_chain


def sum_rule(chain):
    return math.fsum(lu_logdet(chain.c[k]).log_modulus
                     - lu_logdet(chain.b[k]).log_modulus for k in range(chain.n))


def assert_same_moduli(got, want, tol):
    # multisets of reals: sorted order pairs them optimally
    assert np.max(np.abs(np.sort(got.log_abs) - np.sort(want))) <= tol


@pytest.fixture
def no_cyclic(monkeypatch):
    # the oracle stays importable from blockflow.transfer by name; only the
    # module attribute a run-time route would reach refuses
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues_stabilized reached the cyclic embedding")
    monkeypatch.setattr(transfer, "cyclic_log_moduli", refuse)


#: random and Hermitian chains at real and complex E
CHAIN_DRAWS = dict(n=st.integers(3, 12), m=st.integers(1, 3),
                   seed=st.integers(0, 10**6), hermitian=st.booleans(),
                   re=st.floats(-2.0, 2.0),
                   im=st.sampled_from([0.0, 0.05, 0.4, 1.0]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**CHAIN_DRAWS)
def test_periodic_matches_cyclic(n, m, seed, hermitian, re, im):
    chain = hermitian_chain(n, m, seed) if hermitian else random_chain(n, m, seed)
    energy = complex(re, im)
    got = eigenvalues_stabilized(chain, energy)
    assert len(got.log_abs) == 2 * m
    assert_same_moduli(got, cyclic_log_moduli(chain, energy), 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**CHAIN_DRAWS)
def test_periodic_meets_the_sum_rule(n, m, seed, hermitian, re, im):
    # sum_k log|z_k| = log|det T| = sum_j (log|det C_j| - log|det B_j|)
    chain = hermitian_chain(n, m, seed) if hermitian else random_chain(n, m, seed)
    got = eigenvalues_stabilized(chain, complex(re, im))
    assert math.fsum(got.log_abs) == pytest.approx(sum_rule(chain), abs=1e-8)


def test_close_moduli_are_grouped(no_cyclic):
    # weak disorder: neighbouring moduli differ by a factor e^0.08, so those
    # boundaries never converge and their eigenvalues are solved as a group
    chain = anderson_strip(100, 4, 1.0, seed=2)
    energy = 0.3 + 0.1j
    want = cyclic_log_moduli(chain, energy)
    assert np.min(np.diff(np.sort(want))) < 0.1
    got = eigenvalues_stabilized(chain, energy)
    assert_same_moduli(got, want, 1e-9)


def test_clean_chain_inside_the_band_stays_on_the_unit_circle(no_cyclic):
    chain = clean_chain(50)
    energy = 0.5
    got = eigenvalues_stabilized(chain, energy)
    assert np.allclose(got.log_abs, 0.0, atol=1e-9)
    # z = e^{+-i n k} with 2 cos k = E
    k = math.acos(energy / 2.0)
    want = sorted(math.remainder(s * chain.n * k, 2.0 * math.pi) for s in (1, -1))
    assert np.allclose(sorted(got.phase), want, atol=1e-9)


def test_long_chain_meets_the_sum_rule(no_cyclic):
    chain = hatano_nelson(800, -3.5, 3.5, seed=7)
    got = eigenvalues_stabilized(chain, 0.4 + 0.9j)
    # a formed product would hold e^600 and lose e^-600 entirely
    assert got.log_abs[0] > 500.0 and got.log_abs[-1] < -500.0
    assert math.fsum(got.log_abs) == pytest.approx(sum_rule(chain), abs=1e-8)


def test_one_slow_sweep_does_not_stall_a_boundary(no_cyclic):
    # short-corpus pool entry corpus-0015: after sweep 2 one boundary has
    # shrunk only 96x (STALL_FACTOR is 100) but is still converging, so
    # sweeping goes on instead of merging a group across it
    chain = anderson_strip(6, 3, 1.136, seed=44522)
    energy = 1.433106 + 0.806821j
    got = eigenvalues_stabilized(chain, energy)
    assert got.sweeps > 3
    assert_same_moduli(got, cyclic_log_moduli(chain, energy), 1e-9)


def pool_chain(**model):
    return ModelSpec.from_dict(model).build()


WIDE_GROUPS = [
    # short-corpus pool entries whose stalled groups spread 10.4-14.6 in
    # log|z| after 3-5 sweeps; they were once solved again by the cyclic
    # embedding
    pytest.param(lambda: pool_chain(kind="anderson-strip", n=6, m=3, w=1.851,
                                    seed=376972), 1.309867 + 0.211663j,
                 id="corpus-0104"),
    pytest.param(lambda: pool_chain(kind="banded-random", n=15, m=3,
                                    interval=[-1, 1], seed=394273),
                 -0.222299 + 0.758037j, id="corpus-0304"),
    pytest.param(lambda: pool_chain(kind="banded-random", n=9, m=3,
                                    interval=[-1, 1], seed=624899),
                 0.373337 + 0.958824j, id="corpus-0425"),
    pytest.param(lambda: pool_chain(kind="anderson-strip", n=6, m=3, w=2.152,
                                    seed=359407), 1.266808 + 0.385021j,
                 id="corpus-0823"),
    pytest.param(lambda: pool_chain(kind="banded-random", n=9, m=3,
                                    interval=[-1, 1], seed=29671),
                 0.35628 + 0.852725j, id="corpus-1052"),
    # one stalled group of all 2m = 6 eigenvalues, spreading 19.3 in log|z|
    pytest.param(lambda: random_chain(9, 3, seed=848732),
                 -0.5029304376075685 + 1j, id="random-9x3-spread-19"),
]


@pytest.mark.parametrize("build, energy", WIDE_GROUPS)
def test_wide_groups_stay_on_the_periodic_route(no_cyclic, build, energy):
    chain = build()
    got = eigenvalues_stabilized(chain, energy)
    assert_same_moduli(got, cyclic_log_moduli(chain, energy), 1e-9)


def test_sweep_cap_splits_at_the_converged_boundaries(no_cyclic, monkeypatch):
    # one sweep cannot settle the unit-circle pair: the capped iteration
    # solves the unsplit rest as a group instead of giving up
    monkeypatch.setattr(transfer, "MAX_SWEEPS", 1)
    chain = clean_chain(8)
    got = eigenvalues_stabilized(chain, 0.5)
    assert got.sweeps == 1
    assert_same_moduli(got, cyclic_log_moduli(chain, 0.5), 1e-9)


@pytest.fixture
def zero_r_diagonal(monkeypatch):
    # R_1[0, 0] = 0 makes the leading eigenvalue's log -inf
    sweep = transfer._periodic_sweep

    def patched(step_mats, q0):
        qn, rs = sweep(step_mats, q0)
        rs[0, 0, 0] = 0.0
        return qn, rs
    monkeypatch.setattr(transfer, "_periodic_sweep", patched)


TRIDIAG = {"kind": "random-tridiag", "n": 10, "seed": 7, "interval": [-2, 2]}


def test_non_finite_log_eigenvalue_is_an_error(zero_r_diagonal):
    chain = ModelSpec.from_dict(TRIDIAG).build()
    with pytest.raises(EigenConvergenceError, match=r"n=10, m=1 .* after \d+ sweeps"):
        eigenvalues_stabilized(chain, 0.4 + 0.3j)


def test_non_finite_log_eigenvalue_is_one_error_line(zero_r_diagonal, tmp_path,
                                                     capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TRIDIAG, "energy": [0.4, 0.3]}))
    assert main(["exponents", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: periodic QR gave a non-finite")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("max_sweeps, method", [(transfer.MAX_SWEEPS, "periodic"),
                                                (1, "periodic")])
def test_exponents_report_names_the_route_used(tmp_path, capsys, monkeypatch,
                                               max_sweeps, method):
    monkeypatch.setattr(transfer, "MAX_SWEEPS", max_sweeps)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TRIDIAG, "energy": [0.4, 0.3]}))
    assert main(["exponents", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == method
