import cmath
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from blockflow import (ContourTooCloseError, UnitCircleEigenvalueError,
                       counting_function, exponent_csv, exponent_spectrum,
                       hadamard_fisher_bound, jensen_identity_check,
                       positive_exponent_sum, sum_rule_value)
from blockflow import hatano_nelson, product
from blockflow.exponents import DELTA_EDGE, _flux_values
from blockflow.hamiltonian import RingBand, ring_band
from blockflow.linalg import LogDet
from blockflow.transfer import cyclic_log_moduli

from conftest import clean_chain, complex_energies, hermitian_chain, random_chain


def test_methods_agree_on_small_chains():
    for n, m, seed in [(5, 1, 91), (6, 2, 92)]:
        ch = random_chain(n, m, seed)
        e = 0.3 + 0.4j
        via_cyclic = cyclic_log_moduli(ch, e) / n
        via_direct = np.log(np.abs(np.linalg.eigvals(product(ch, e)))) / n
        assert np.allclose(np.sort(via_cyclic), np.sort(via_direct), atol=1e-9)
        assert np.allclose(exponent_spectrum(ch, e).xi, via_cyclic, atol=1e-9)


def test_checks_reuse_a_passed_spectrum():
    # the spectrum names its chain and E, so the check reads both from it
    ch = hermitian_chain(8, 2, seed=94)
    e = 0.2 + 0.6j
    sp = exponent_spectrum(ch, e)
    assert sp.chain is ch and sp.energy == e and (sp.n, sp.m) == (8, 2)
    assert "chain" not in repr(sp)
    xi = float(np.mean(sp.xi[1:3]))
    rep = jensen_identity_check(sp, xi, quad_points=32)
    assert rep == jensen_identity_check(exponent_spectrum(ch, e), xi, quad_points=32)
    assert rep.energy == e


def test_sum_rule_long_chain():
    ch = random_chain(200, 2, seed=93)
    sp = exponent_spectrum(ch, 0.1 + 0.7j)
    assert abs(sp.sum * ch.n / ch.n - sum_rule_value(ch) * 1.0) >= 0  # finite
    assert sp.sum == pytest.approx(sum_rule_value(ch), abs=1e-8)


def test_clean_chain_exponents_by_hand():
    # E = 2i: single-step eigenvalues i(1 +/- sqrt(2)); per-site exponents
    # are +/- log(1 + sqrt(2)) independent of n
    ch = clean_chain(6)
    sp = exponent_spectrum(ch, 2.0j)
    want = math.log(1.0 + math.sqrt(2.0))
    assert sp.xi[0] == pytest.approx(want, abs=1e-9)
    assert sp.xi[-1] == pytest.approx(-want, abs=1e-9)


def test_jensen_identity_various_contours():
    ch = random_chain(8, 2, seed=94)
    e = 0.25 + 0.6j
    sp = exponent_spectrum(ch, e)
    below = float(sp.xi.min()) - 0.4
    above = float(sp.xi.max()) + 0.4
    inside = 0.5 * (float(np.sort(sp.xi)[1]) + float(np.sort(sp.xi)[2]))
    for xi in (below, above, inside):
        rep = jensen_identity_check(sp, xi, quad_points=256)
        assert rep.residual <= 1e-8, rep.to_dict()
    # below every exponent the left side reduces to -xi exactly
    rep = jensen_identity_check(sp, below)
    assert rep.lhs == pytest.approx(-below, abs=1e-12)
    # above every exponent it reduces to xi - sum/m
    rep = jensen_identity_check(sp, above)
    assert rep.lhs == pytest.approx(above - sp.sum / ch.m, abs=1e-10)


def test_jensen_quadrature_converges():
    ch = random_chain(8, 1, seed=95)
    e = 0.3 + 0.5j
    sp = exponent_spectrum(ch, e)
    xs = np.sort(sp.xi)
    # a deliberately thin contour margin slows convergence enough to see it
    xi = float(xs[0]) + 0.02
    coarse = jensen_identity_check(sp, xi, quad_points=32)
    fine = jensen_identity_check(sp, xi, quad_points=128)
    assert fine.residual <= coarse.residual
    assert fine.convergence_estimate <= coarse.convergence_estimate
    assert coarse.margin == fine.margin


def test_jensen_rejects_bad_quadrature():
    sp = exponent_spectrum(clean_chain(4), 2.0j)
    with pytest.raises(ValueError):
        jensen_identity_check(sp, 0.1, quad_points=6)
    with pytest.raises(ValueError):
        jensen_identity_check(sp, 0.1, quad_points=33)


def test_contour_guard_suggests_usable_offset():
    ch = random_chain(6, 1, seed=96)
    e = 0.2 + 0.4j
    sp = exponent_spectrum(ch, e)
    with pytest.raises(ContourTooCloseError) as info:
        jensen_identity_check(sp, float(sp.xi[0]))
    suggestion = info.value.suggested_xi
    rep = jensen_identity_check(sp, suggestion)
    assert rep.residual <= 1e-8


def test_counting_function_matches_slope():
    # N(xi) = m * (1 + d/dxi rhs(xi)) away from the exponents
    ch = random_chain(7, 2, seed=97)
    e = 0.15 + 0.8j
    sp = exponent_spectrum(ch, e)
    xs = np.sort(sp.xi)
    xi = 0.5 * (float(xs[1]) + float(xs[2]))
    h = 1e-4
    up = jensen_identity_check(sp, xi + h, quad_points=512).rhs
    dn = jensen_identity_check(sp, xi - h, quad_points=512).rhs
    slope = (up - dn) / (2 * h)
    n_from_slope = ch.m * (1.0 + slope)
    assert counting_function(ch, e, xi) == round(n_from_slope)
    assert abs(n_from_slope - round(n_from_slope)) < 1e-4


def test_positive_sum_matches_eigensolve():
    ch = hermitian_chain(10, 2, seed=98)
    e = 0.2 + 1.0j
    sp = exponent_spectrum(ch, e)
    want = math.fsum(float(x) for x in sp.xi if x > 0)
    got = positive_exponent_sum(ch, e, quad_points=512)
    assert got == pytest.approx(want, abs=1e-8)


def test_positive_sum_rejects_unit_circle():
    # clean chain at real E inside the band: eigenvalues on |z| = 1
    with pytest.raises(UnitCircleEigenvalueError):
        positive_exponent_sum(clean_chain(8), 0.5)


def test_flux_values_match_a_dense_loop():
    from blockflow import anderson_strip, assemble_balanced, logdet_shift

    ch = anderson_strip(5, 3, 2.0, seed=3)
    e, xi, nodes = 0.2 + 0.5j, 0.15, 64
    got = _flux_values(ch, e, xi, nodes)
    want = [logdet_shift(assemble_balanced(
                ch, cmath.exp(complex(xi, 2.0 * math.pi * j / nodes / ch.n))), e).log_modulus
            for j in range(nodes)]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-9


def per_node_flux_values(chain, energy, xi, quad_points):
    """The flux node values by one folded band LU per node: the oracle for
    the 2m + 1 sample interpolation of _flux_values."""
    band = ring_band(chain, energy)
    return [band.logdet(cmath.exp(complex(xi, 2.0 * math.pi * j / quad_points / chain.n)))
            .log_modulus for j in range(quad_points)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.integers(1, 3), st.booleans(), st.integers(0, 10**6),
       complex_energies, st.integers(0, 5))
def test_flux_values_match_the_per_node_loop(n, m, complex_blocks, seed, energy, which):
    # n = 2 included: there the corner blocks add onto the inner hoppings
    ch = random_chain(n, m, seed, complex_entries=complex_blocks)
    xs = np.sort(exponent_spectrum(ch, energy).xi)
    widest = int(np.argmax(np.diff(xs)))
    # the widest gap, and a contour grazing one exponent from above
    worst = 0.0
    for xi in (0.5 * float(xs[widest] + xs[widest + 1]), float(xs[which % len(xs)]) + 1e-5):
        if np.min(np.abs(xs - xi)) < DELTA_EDGE:
            continue
        got = np.array(_flux_values(ch, energy, xi, 64))
        want = np.array(per_node_flux_values(ch, energy, xi, 64))
        err = float(np.max(np.abs(got - want)))
        # a node 1e-5 above an exponent sits where |det| is about n*1e-5 of
        # its largest value on the contour, so rounding grows to ~1e-11
        assert err <= 1e-9, (n, m, complex_blocks, seed, energy, xi, err)
        worst = max(worst, err)
    target(worst, label="max |log|det| - oracle| per node")


@pytest.mark.parametrize("quad_points", [8, 64, 1024])
def test_flux_values_take_2m_plus_1_band_lus(monkeypatch, quad_points):
    calls = []
    logdet = RingBand.logdet

    def counted(self, w):
        calls.append(w)
        return logdet(self, w)

    monkeypatch.setattr(RingBand, "logdet", counted)
    for m in (1, 2, 4):
        calls.clear()
        values = _flux_values(random_chain(6, m, seed=140 + m), 0.3 + 0.4j, 0.05, quad_points)
        assert len(values) == quad_points
        assert len(calls) == 2 * m + 1


def test_flux_values_refuse_a_determinant_zero_at_every_sample(monkeypatch):
    # invertible hoppings keep det[E - H(z)] a nonzero Laurent polynomial,
    # so only rounding can zero every sample; stand in for it
    monkeypatch.setattr(RingBand, "logdet", lambda self, w: LogDet(-math.inf, 0.0))
    with pytest.raises(ContourTooCloseError, match="every sample") as info:
        _flux_values(random_chain(4, 2, seed=143), 0.3 + 0.4j, 0.05, 64)
    assert info.value.suggested_xi == 0.05 + 10 * DELTA_EDGE


def test_hadamard_fisher_on_corpus():
    rng = np.random.default_rng(99)
    for n, m, seed in [(4, 1, 100), (6, 2, 101), (5, 3, 102)]:
        ch = random_chain(n, m, seed)
        e = complex(rng.normal(), rng.normal())
        for xi in (-0.7, 0.0, 0.4, 1.1):
            rep = hadamard_fisher_bound(ch, e, xi)
            assert rep.passed, rep.to_dict()
            assert rep.slack >= -1e-12


def test_hadamard_fisher_matches_a_per_site_loop():
    from blockflow import logdet_blocks, lu_logdet

    ch = random_chain(7, 3, seed=105)
    e, xi = 0.4 - 0.6j, 0.3
    terms = []
    for k in range(ch.n):
        shifted = ch.a[k] - e * np.eye(ch.m)
        gram = (shifted.conj().T @ shifted
                + math.exp(2 * xi) * ch.b[k].conj().T @ ch.b[k]
                + math.exp(-2 * xi) * ch.c[k].conj().T @ ch.c[k])
        terms.append(lu_logdet(gram).log_modulus)
    want = math.fsum(terms) / (2 * ch.n) - logdet_blocks(ch.c).log_modulus / ch.n
    assert hadamard_fisher_bound(ch, e, xi).rhs == pytest.approx(want, abs=1e-12)


def test_hadamard_fisher_clean_chain_value():
    # A = 0, B = C = 1, E = 2i, xi = 0: left side log(1+sqrt(2)), right
    # side log(6)/2 per site
    rep = hadamard_fisher_bound(clean_chain(4), 2.0j, 0.0)
    assert rep.lhs == pytest.approx(math.log(1.0 + math.sqrt(2.0)), abs=1e-9)
    assert rep.rhs == pytest.approx(0.5 * math.log(6.0), abs=1e-12)
    assert rep.slack == pytest.approx(0.5 * math.log(6.0)
                                      - math.log(1.0 + math.sqrt(2.0)), abs=1e-9)


def test_exponent_csv_format_and_overflow_sentinel():
    ch = random_chain(5, 1, seed=103)
    sp = exponent_spectrum(ch, 0.3 + 0.3j)
    buf = io.StringIO()
    exponent_csv(sp, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# blockflow-csv v1"
    assert lines[1] == "k,re_z,im_z,xi,pair_id,log_abs_z,arg_z"
    assert len(lines) == 2 + 2
    # strong gain over 800 sites: |log z| > 700, so z is not a double
    big = hatano_nelson(800, -6.0, 6.0, seed=104)
    sp_big = exponent_spectrum(big, 0.2 + 0.9j)
    buf = io.StringIO()
    exponent_csv(sp_big, buf)
    body = buf.getvalue().splitlines()[2:]
    assert any("overflow" in line for line in body)
    for line in body:
        fields = line.split(",")
        assert len(fields) == 7
        float(fields[5]), float(fields[6])  # log-polar columns always numeric
