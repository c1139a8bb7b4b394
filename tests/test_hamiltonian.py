import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blockflow import (assemble_balanced, assemble_bloch, assemble_open,
                       exponent_spectrum, logdet_shift)
from blockflow.hamiltonian import log_minus_z, logdet_open, ring_band
from blockflow.linalg import LogDet, wrap_phase

from conftest import (clean_chain, complex_energies, hermitian_chain,
                      property_chains, random_chain, separated_z, z_draws)


def test_two_site_ring_sums_corners():
    z = 0.7 + 0.4j
    h = assemble_bloch(clean_chain(2), z)
    want = np.array([[0.0, 1.0 + 1.0 / z], [1.0 + z, 0.0]])
    assert np.allclose(h, want, atol=1e-14)


def test_ring_structure_n3():
    ch = random_chain(3, 2, seed=31)
    z = 1.3 - 0.2j
    h = assemble_bloch(ch, z)
    m = 2
    assert np.allclose(h[:m, :m], ch.a[0])
    assert np.allclose(h[:m, m:2 * m], ch.b[0])
    assert np.allclose(h[m:2 * m, :m], ch.c[1])
    assert np.allclose(h[:m, 2 * m:], ch.c[0] / z)        # top-right corner
    assert np.allclose(h[2 * m:, :m], z * ch.b[2])        # bottom-left corner
    assert np.allclose(h[2 * m:, m:2 * m], ch.c[2])


def test_open_operator_has_no_corners():
    ch = random_chain(4, 2, seed=32)
    h = assemble_open(ch)
    m = 2
    assert np.allclose(h[:m, 3 * m:], 0.0)
    assert np.allclose(h[3 * m:, :m], 0.0)
    for k in range(3):
        assert np.allclose(h[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m], ch.b[k])
        assert np.allclose(h[(k + 1) * m:(k + 2) * m, k * m:(k + 1) * m], ch.c[k + 1])


def test_balanced_is_similar_to_ring():
    for n, m, seed in [(3, 1, 33), (5, 2, 34)]:
        ch = random_chain(n, m, seed)
        w = cmath.exp(complex(0.3, 0.7))
        e = 0.2 + 0.1j
        lhs = logdet_shift(assemble_balanced(ch, w), e)
        rhs = logdet_shift(assemble_bloch(ch, w ** n), e)
        assert lhs.log_modulus == pytest.approx(rhs.log_modulus, abs=1e-9)
        assert wrap_phase(lhs.phase - rhs.phase) == pytest.approx(0.0, abs=1e-9)


def test_balanced_gauge_invariance():
    ch = random_chain(5, 1, seed=35)
    w = cmath.exp(complex(0.4, 0.9))
    rot = w * cmath.exp(2j * math.pi / ch.n)
    a = np.sort_complex(np.linalg.eigvals(assemble_balanced(ch, w)))
    b = np.sort_complex(np.linalg.eigvals(assemble_balanced(ch, rot)))
    assert np.allclose(a, b, atol=1e-9)


def test_ring_logdet_beyond_overflow():
    # n*xi = 200 makes z = e^200 assemble-able but e^800 would not be;
    # the balanced route never forms z at all
    ch = random_chain(200, 1, seed=36)
    ld = logdet_shift(assemble_balanced(ch, math.exp(4.0)), 0.5 + 0.5j)
    assert math.isfinite(ld.log_modulus)


def test_ring_logdet_matches_direct_when_representable():
    ch = random_chain(6, 2, seed=37)
    xi, phi = 0.2, 1.1
    e = -0.3 + 0.8j
    via_balanced = logdet_shift(
        assemble_balanced(ch, cmath.exp(complex(xi, phi / ch.n))), e)
    direct = logdet_shift(assemble_bloch(ch, cmath.exp(complex(ch.n * xi, phi))), e)
    assert via_balanced.log_modulus == pytest.approx(direct.log_modulus, abs=1e-9)
    assert wrap_phase(via_balanced.phase - direct.phase) == pytest.approx(0.0, abs=1e-9)


def test_zero_boundary_factor_rejected():
    ch = clean_chain(3)
    with pytest.raises(ValueError):
        assemble_bloch(ch, 0.0)
    with pytest.raises(ValueError):
        assemble_balanced(ch, 0.0)


def test_log_minus_z_prefactor():
    for z in (2.0, -0.5 + 0.3j, 1.0j):
        for m in (1, 2, 3):
            want = LogDet.from_complex((-z) ** m)
            got = log_minus_z(z, m)
            assert got.log_modulus == pytest.approx(want.log_modulus, abs=1e-12)
            assert wrap_phase(got.phase - want.phase) == pytest.approx(0.0, abs=1e-12)


def assert_same_logdet(got, want):
    assert got.log_modulus == pytest.approx(want.log_modulus, abs=1e-9)
    assert wrap_phase(got.phase - want.phase) == pytest.approx(0.0, abs=1e-9)


chains = st.builds(lambda hermitian, n, m, seed:
                   hermitian_chain(n, m, seed) if hermitian else random_chain(n, m, seed),
                   st.booleans(), st.integers(2, 8), st.integers(1, 3),
                   st.integers(0, 10**6))
energies = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(chain=chains, energy=energies, log_w=st.floats(-3.0, 3.0),
       arg_w=st.floats(-math.pi, math.pi))
def test_folded_ring_band_matches_dense(chain, energy, log_w, arg_w):
    # the folded band (n = 2: corners summed onto the inner hoppings)
    # against the dense balanced matrix and the dense ring it is similar to
    w = cmath.exp(complex(log_w, arg_w))
    got = ring_band(chain, energy).logdet(w)
    assert_same_logdet(got, logdet_shift(assemble_balanced(chain, w), energy))
    assert_same_logdet(got, logdet_shift(assemble_bloch(chain, w ** chain.n), energy))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chain=chains, energy=energies)
def test_open_band_matches_dense(chain, energy):
    assert_same_logdet(logdet_open(chain, energy),
                       logdet_shift(assemble_open(chain), energy))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=property_chains, energy=complex_energies, draw=z_draws)
def test_ring_logdet_has_the_flux_period(chain, energy, draw):
    # H_bal(w e^{2 pi i / n}) = D H_bal(w) D^{-1} with D = diag(e^{-2 pi i k / n});
    # z = w^n stays away from the transfer spectrum, so the determinant does
    # not vanish
    z, margin = separated_z(exponent_spectrum(chain, energy), draw)
    assume(margin >= 0.1)
    band = ring_band(chain, energy)
    w = cmath.exp(cmath.log(z) / chain.n)
    assert_same_logdet(band.logdet(w * cmath.exp(2j * math.pi / chain.n)),
                       band.logdet(w))


def test_ring_band_at_extreme_boundary_factor():
    # the verify-hatano-nelson-z1e120 golden case: z = 1e120 enters only
    # through w = z^(1/n) = 1e2, where the dense balanced matrix is the oracle
    from blockflow import hatano_nelson

    chain = hatano_nelson(60, -3.5, 3.5, seed=14)
    energy = 0.4 + 0.9j
    w = cmath.exp(cmath.log(1e120) / chain.n)
    band = ring_band(chain, energy)
    for root in (w, 1.0 / w):
        assert_same_logdet(band.logdet(root),
                           logdet_shift(assemble_balanced(chain, root), energy))


def test_band_logdet_exact_zero():
    # E = 0 on the clean ring H(1): eigenvalues 2 cos(2 pi k / 4) include 0
    ld = ring_band(clean_chain(4), 0.0).logdet(1.0)
    assert ld.is_zero
    assert logdet_open(clean_chain(3), 0.0).is_zero
