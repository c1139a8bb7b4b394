"""The periodic QR route for the transfer spectrum against its oracles.

``eigenvalues_stabilized`` runs the periodic QR iteration and falls back to
the cyclic embedding (``eigenvalues_cyclic``) when it does not settle; the
cyclic embedding and the sum rule are the references here.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockflow import (anderson_strip, eigenvalues_cyclic,
                       eigenvalues_stabilized, exponent_spectrum,
                       hatano_nelson, lu_logdet)
from blockflow import transfer

from conftest import clean_chain, hermitian_chain, random_chain


def sum_rule(chain):
    return math.fsum(lu_logdet(chain.c[k]).log_modulus
                     - lu_logdet(chain.b[k]).log_modulus for k in range(chain.n))


def assert_same_moduli(got, want, tol):
    # multisets of reals: sorted order pairs them optimally
    assert np.max(np.abs(np.sort(got.log_abs) - np.sort(want.log_abs))) <= tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 12), m=st.integers(1, 3), seed=st.integers(0, 10**6),
       hermitian=st.booleans(), re=st.floats(-2.0, 2.0),
       im=st.sampled_from([0.0, 0.05, 0.4, 1.0]))
def test_periodic_matches_cyclic(n, m, seed, hermitian, re, im):
    chain = hermitian_chain(n, m, seed) if hermitian else random_chain(n, m, seed)
    energy = complex(re, im)
    got = eigenvalues_stabilized(chain, energy)
    assert len(got.log_abs) == 2 * m
    assert_same_moduli(got, eigenvalues_cyclic(chain, energy), 1e-9)


def test_close_moduli_are_grouped():
    # weak disorder: neighbouring moduli differ by a factor e^0.08, so those
    # boundaries never converge and their eigenvalues are solved as a group
    chain = anderson_strip(100, 4, 1.0, seed=2)
    energy = 0.3 + 0.1j
    want = eigenvalues_cyclic(chain, energy)
    assert np.min(np.diff(np.sort(want.log_abs))) < 0.1
    got = eigenvalues_stabilized(chain, energy)
    assert got.route == "periodic"
    assert_same_moduli(got, want, 1e-9)


def test_clean_chain_inside_the_band_stays_on_the_unit_circle():
    chain = clean_chain(50)
    energy = 0.5
    got = eigenvalues_stabilized(chain, energy)
    assert got.route == "periodic"
    assert np.allclose(got.log_abs, 0.0, atol=1e-9)
    # z = e^{+-i n k} with 2 cos k = E
    k = math.acos(energy / 2.0)
    want = sorted(math.remainder(s * chain.n * k, 2.0 * math.pi) for s in (1, -1))
    assert np.allclose(sorted(got.phase), want, atol=1e-9)


def test_long_chain_meets_the_sum_rule():
    chain = hatano_nelson(800, -3.5, 3.5, seed=7)
    got = eigenvalues_stabilized(chain, 0.4 + 0.9j)
    assert got.route == "periodic"
    # a formed product would hold e^600 and lose e^-600 entirely
    assert got.log_abs[0] > 500.0 and got.log_abs[-1] < -500.0
    assert math.fsum(got.log_abs) == pytest.approx(sum_rule(chain), abs=1e-8)


def test_one_slow_sweep_does_not_stall_a_boundary():
    # short-corpus pool entry corpus-0015: after sweep 2 one boundary has
    # shrunk only 96x (STALL_FACTOR is 100) but is still converging; merging
    # across it gave a group spread of 11.5 and the cyclic fallback
    chain = anderson_strip(6, 3, 1.136, seed=44522)
    energy = 1.433106 + 0.806821j
    got = eigenvalues_stabilized(chain, energy)
    assert got.route == "periodic"
    assert_same_moduli(got, eigenvalues_cyclic(chain, energy), 1e-9)


@pytest.mark.parametrize("constant, value", [("MAX_SWEEPS", 1),
                                             ("MAX_GROUP_SPREAD", -1.0)])
def test_forced_fallback_uses_the_cyclic_route(monkeypatch, constant, value):
    # one sweep cannot settle a boundary; a negative spread bound refuses
    # every group of two or more eigenvalues (here the unit-circle pair)
    monkeypatch.setattr(transfer, constant, value)
    chain = clean_chain(8)
    got = eigenvalues_stabilized(chain, 0.5)
    want = eigenvalues_cyclic(chain, 0.5)
    assert got.route == "cyclic" and got.sweeps >= 1
    assert np.array_equal(got.log_abs, want.log_abs)
    assert np.array_equal(got.phase, want.phase)
    assert exponent_spectrum(chain, 0.5).method == "cyclic"


@pytest.mark.parametrize("max_sweeps, method", [(transfer.MAX_SWEEPS, "periodic"),
                                                (1, "cyclic")])
def test_exponents_report_names_the_route_used(tmp_path, capsys, monkeypatch,
                                               max_sweeps, method):
    from blockflow.cli import main

    monkeypatch.setattr(transfer, "MAX_SWEEPS", max_sweeps)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7, "interval": [-2, 2]},
        "energy": [0.4, 0.3]}))
    assert main(["exponents", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == method
