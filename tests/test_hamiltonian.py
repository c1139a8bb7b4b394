import cmath
import math

import numpy as np
import pytest

from blockflow import (assemble_balanced, assemble_bloch, assemble_open,
                       logdet_shift)
from blockflow.hamiltonian import log_minus_z
from blockflow.linalg import LogDet, wrap_phase

from conftest import clean_chain, random_chain


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
