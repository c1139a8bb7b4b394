import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockflow import (anderson_strip, assemble_open, check_corner_decay,
                       check_pd_decay, demko_params_general, demko_params_pd,
                       dichotomy, hatano_nelson, t11_singular_floor)
from blockflow.bounds import _shifted_params

from conftest import hermitian_chain, pd_block_tridiag, random_chain


def test_pd_params_by_hand():
    # a = 1, b = 4: q = 1/3, C = 9/8
    p = demko_params_pd(1.0, 4.0)
    assert p.q == pytest.approx(1.0 / 3.0)
    assert p.c == pytest.approx(9.0 / 8.0)
    with pytest.raises(ValueError):
        demko_params_pd(0.0, 1.0)
    with pytest.raises(ValueError):
        demko_params_pd(2.0, 1.0)


def test_general_params_match_condition_form():
    rng = np.random.default_rng(71)
    for _ in range(10):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = demko_params_general(a)
        s = np.linalg.svd(a, compute_uv=False)
        cond = s[0] / s[-1]
        assert p.q == pytest.approx((cond - 1) / (cond + 1), abs=1e-12)
        assert p.c == pytest.approx((cond + 1) ** 2 / (2 * s[0] ** 2), rel=1e-12)
    with pytest.raises(ValueError):
        demko_params_general(np.zeros((3, 3)))


def test_pd_decay_on_corpus():
    for n, m, seed in [(6, 1, 72), (8, 2, 73), (5, 3, 74)]:
        mat = pd_block_tridiag(n, m, seed)
        rep = check_pd_decay(mat, m)
        assert rep.passed
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-12


def test_pd_decay_tight_on_shifted_laplacian():
    # the 1-d Laplacian family is the equality-approaching case: the bound
    # must hold but without huge slack at the first off-diagonal
    n = 12
    mat = 2.5 * np.eye(n) + np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    rep = check_pd_decay(mat.astype(complex), 1)
    assert rep.passed
    assert rep.max_ratio > 0.25


def test_pd_decay_input_validation():
    with pytest.raises(ValueError):
        check_pd_decay(np.eye(5), 2)  # size not divisible
    a = np.eye(4)
    a[0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError):
        check_pd_decay(a, 1)
    herm = np.eye(4)
    herm[0, 3] = herm[3, 0] = 0.5  # not block tridiagonal
    with pytest.raises(ValueError):
        check_pd_decay(herm, 1)
    neg = -np.eye(4)
    with pytest.raises(ValueError):
        check_pd_decay(neg, 1)


def test_corner_decay_bound_holds():
    for n in (8, 16, 32):
        ch = random_chain(n, 1, seed=75)
        rep = check_corner_decay(ch, 0.4 + 1.2j)
        assert rep.passed
        assert rep.corner_1n <= rep.bound_1n
        assert rep.corner_n1 <= rep.bound_n1
        assert rep.params.q < 1.0


def test_corner_decay_rate_tracks_q():
    ch = random_chain(32, 2, seed=76)
    rep = check_corner_decay(ch, 0.3 + 1.5j)
    assert rep.measured_rate <= rep.bound_rate + 0.05


def test_dichotomy_split_for_long_chains():
    # E far enough from the spectrum for a small q, so the crossover
    # length sits well below n = 64 and the thresholds are ordered
    ch = random_chain(64, 1, seed=77)
    rep = dichotomy(ch, 0.2 + 2.5j)
    assert (rep.count_above, rep.count_middle, rep.count_below) == (1, 0, 1)
    assert rep.max_slack > 0
    assert rep.log_threshold_low < rep.log_threshold_high
    doc = rep.to_dict()
    assert doc["counts"] == {"above": 1, "below": 1, "middle": 0}
    assert set(doc) >= {"q", "C", "K", "n", "thresholds", "counts", "max_slack"}


def test_dichotomy_strip():
    ch = anderson_strip(48, 3, 7.0, seed=78)
    rep = dichotomy(ch, 0.4 + 1.0j)
    assert (rep.count_above, rep.count_middle, rep.count_below) == (3, 0, 3)


def test_dichotomy_short_chain_counts_are_a_partition():
    ch = random_chain(4, 2, seed=79)
    rep = dichotomy(ch, 0.3 + 0.4j)
    assert rep.count_above + rep.count_middle + rep.count_below == 4
    assert min(rep.count_above, rep.count_middle, rep.count_below) >= 0


def test_threshold_properties_saturate():
    ch = hatano_nelson(400, -3.5, 3.5, seed=80)
    rep = dichotomy(ch, 0.1 + 1.0j)
    assert rep.threshold_high == math.inf or rep.threshold_high > 0
    assert rep.threshold_low >= 0.0


def test_t11_floor():
    ch = random_chain(48, 2, seed=81)
    out = t11_singular_floor(ch, 0.25 + 1.1j)
    assert out["passed"]
    assert min(out["log_theta"]) >= out["log_floor"]


def test_corner_decay_uses_open_spectrum():
    # E far off the spectrum: tiny condition number, fast decay rate
    ch = random_chain(16, 1, seed=82)
    far = check_corner_decay(ch, 0.0 + 30.0j)
    near = check_corner_decay(ch, 0.2 + 1.0j)
    assert far.params.q < near.params.q
    assert np.max(np.abs(assemble_open(ch))) < 30.0


def _hermitian_case(kind, n, m, seed):
    if kind == "hatano-nelson":
        return hatano_nelson(n, -3.5, 3.5, seed)
    if kind == "anderson-strip":
        return anderson_strip(n, m, 3.0, seed)
    return hermitian_chain(n, m, seed)


hermitian_cases = st.builds(
    _hermitian_case, st.sampled_from(["hatano-nelson", "anderson-strip", "explicit"]),
    st.integers(2, 40), st.integers(1, 3), st.integers(0, 10**6))

#: real and complex energies
energies = st.builds(complex, st.floats(-4.0, 4.0),
                     st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))


@settings(max_examples=60, deadline=None)
@given(hermitian_cases, energies)
def test_band_spectrum_interval_matches_dense_svd(chain, energy):
    # the band route gives sigma = |lambda - E|; the oracle is the SVD
    h = assemble_open(chain)
    s = np.linalg.svd(h - energy * np.eye(h.shape[0]), compute_uv=False)
    params = _shifted_params(chain, energy)
    tol = 1e-13 * (np.linalg.norm(h, 2) + abs(energy))
    assert abs(math.sqrt(params.a) - s[-1]) <= tol
    assert abs(math.sqrt(params.b) - s[0]) <= tol
