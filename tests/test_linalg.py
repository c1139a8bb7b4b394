import math
import warnings

import numpy as np
import pytest

from blockflow import (LogDet, logdet_blocks, lu_logdet, match_spectra,
                       singular_values, wrap_phase)


def det_cofactor(a):
    """Laplace expansion along the first row; exact reference for tiny sizes."""
    a = np.asarray(a, dtype=complex)
    k = a.shape[0]
    if k == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(k):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return total


def test_lu_logdet_matches_cofactor_expansion():
    rng = np.random.default_rng(11)
    for k in range(1, 7):
        for _ in range(5):
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            want = det_cofactor(a)
            got = lu_logdet(a)
            assert got.log_modulus == pytest.approx(math.log(abs(want)), abs=1e-10)
            assert wrap_phase(got.phase - np.angle(want)) == pytest.approx(0.0, abs=1e-10)


def test_lu_logdet_exact_zero():
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    ld = lu_logdet(a)
    assert ld.is_zero
    assert ld.value == 0.0
    # a zero pivot is a result here, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lu_logdet(np.ones((2, 2))).log_modulus == -math.inf


def test_logdet_blocks_is_the_product_of_block_determinants():
    rng = np.random.default_rng(12)
    blocks = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    want = LogDet(0.0, 0.0)
    for block in blocks:
        want = want * lu_logdet(block)
    got = logdet_blocks(blocks)
    assert got.log_modulus == pytest.approx(want.log_modulus, abs=1e-12)
    assert wrap_phase(got.phase - want.phase) == pytest.approx(0.0, abs=1e-12)
    # real blocks keep an exact phase; one singular block zeroes the product
    reflections = np.diag([-1.0, 1.0])[None].repeat(41, axis=0)
    assert logdet_blocks(reflections) == LogDet(0.0, math.pi)
    blocks[7] = 0.0
    assert logdet_blocks(blocks).is_zero


def test_logdet_value_roundtrip():
    for v in (2.5, -3.0 + 1e-3j, 1e-20j, -1.0):
        ld = LogDet.from_complex(v)
        assert ld.value == pytest.approx(v, rel=1e-14)
        assert -math.pi < ld.phase <= math.pi


def test_logdet_algebra():
    x, y = 1.5 - 2.0j, -0.25 + 0.7j
    lx, ly = LogDet.from_complex(x), LogDet.from_complex(y)
    assert (lx * ly).value == pytest.approx(x * y, rel=1e-14)
    assert (lx / ly).value == pytest.approx(x / y, rel=1e-14)
    zero = LogDet.from_complex(0.0)
    assert (lx * zero).is_zero
    with pytest.raises(ZeroDivisionError):
        lx / zero


def test_wrap_phase_range_and_periodicity():
    for x in (-10.0, -math.pi, 0.0, 2.0, math.pi, 12.0):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi
        assert wrap_phase(x + 2 * math.pi) == pytest.approx(w, abs=1e-12)


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    want = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    got = singular_values(a)
    assert np.allclose(got, want, atol=1e-10)
    assert np.all(np.diff(got) <= 0)


def test_as_matrix_rejects_bad_input():
    from blockflow.linalg import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    as_matrix(np.zeros((2, 3)), square=False)


def test_match_spectra_permutation_and_outliers():
    rng = np.random.default_rng(9)
    left = rng.normal(size=6) + 1j * rng.normal(size=6)
    perm = rng.permutation(6)
    pairs, max_d, ul, ur = match_spectra(left, left[perm])
    assert len(pairs) == 6 and not ul and not ur
    assert max_d == 0.0
    right = left.copy()
    right[2] += 10.0
    pairs, _, ul, ur = match_spectra(left, right, tol=1e-6)
    assert len(pairs) == 5
    assert ul == [2] and ur == [2]
