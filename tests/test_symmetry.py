import numpy as np
import pytest

from blockflow import (NotHermitianChainError, check_symplectic,
                       check_unit_circle_exclusion, detect_pairings,
                       exponent_spectrum, sigma_form)

from conftest import clean_chain, hermitian_chain, random_chain


def test_sigma_form_structure():
    ch = hermitian_chain(5, 2, seed=111)
    for k in (1, 3, 5):
        sig = sigma_form(ch, k)
        m = ch.m
        assert np.allclose(sig[:m, :m], 0.0)
        assert np.allclose(sig[m:, m:], 0.0)
        assert np.allclose(sig[:m, m:], -1j * ch.b[k - 1].conj().T)
        assert np.allclose(sig[m:, :m], 1j * ch.b[k - 1])
        # the form is Hermitian
        assert np.allclose(sig, sig.conj().T)


def test_symplectic_conservation():
    for n, m, seed in [(4, 1, 112), (6, 2, 113), (5, 3, 114)]:
        ch = hermitian_chain(n, m, seed)
        for e in (0.3, 0.2 + 0.9j, -1.1 - 0.4j):
            rep = check_symplectic(ch, e)
            assert rep.passed, rep.to_dict()
            assert rep.residual <= 1e-9 * rep.scale
            assert len(rep.step_residuals) == n
            assert max(rep.step_residuals) <= 1e-10 * max(rep.scale, 1.0)


def test_symplectic_requires_hermitian_chain():
    ch = random_chain(4, 2, seed=115)
    with pytest.raises(NotHermitianChainError):
        check_symplectic(ch, 0.3)
    with pytest.raises(NotHermitianChainError):
        check_unit_circle_exclusion(exponent_spectrum(ch, 0.3 + 1.0j))


def test_pairings_hermitian_real_energy():
    for n, m, seed in [(6, 1, 116), (8, 2, 117)]:
        ch = hermitian_chain(n, m, seed)
        rep = detect_pairings(exponent_spectrum(ch, 0.2), mode="hermitian-real-E")
        assert rep.unmatched == ()
        assert np.all(rep.pair_id >= 0)
        assert rep.max_defect <= 1e-7
        # paired exponents cancel: every id's log-moduli sum to ~0
        for pid in set(int(i) for i in rep.pair_id):
            members = rep.log_abs[rep.pair_id == pid]
            assert abs(members.sum()) <= 1e-6 * max(1.0, np.abs(rep.log_abs).max())


def test_unit_circle_members_self_pair():
    # clean chain inside the band: every eigenvalue on |z| = 1
    rep = detect_pairings(exponent_spectrum(clean_chain(8), 0.5), mode="hermitian-real-E")
    assert np.all(rep.unit_circle)
    assert rep.unmatched == ()
    counts = {int(i): int(np.sum(rep.pair_id == i)) for i in set(rep.pair_id)}
    assert all(c == 1 for c in counts.values())


def test_pairings_real_symmetric_mode():
    ch = hermitian_chain(6, 2, seed=118, real=True)
    rep = detect_pairings(exponent_spectrum(ch, 0.35), mode="real-symmetric")
    assert rep.mode == "real-symmetric"
    assert rep.unmatched == ()
    # multiplets close under negation of log-modulus
    logs = np.sort(rep.log_abs)
    assert np.allclose(logs, -logs[::-1], atol=1e-7)


def test_pairings_unknown_mode():
    with pytest.raises(ValueError):
        detect_pairings(exponent_spectrum(clean_chain(4), 0.1), mode="chiral")


def test_unit_circle_exclusion():
    ch = hermitian_chain(8, 2, seed=119)
    rep = check_unit_circle_exclusion(exponent_spectrum(ch, 0.3 + 1.0j))
    assert rep.passed
    assert rep.margin > 0.0
    # margin grows with the distance from the real axis
    far = check_unit_circle_exclusion(exponent_spectrum(ch, 0.3 + 3.0j))
    assert far.margin > rep.margin
    with pytest.raises(ValueError):
        check_unit_circle_exclusion(exponent_spectrum(ch, 0.3))


def test_exponent_negation_symmetry_at_real_energy():
    ch = hermitian_chain(9, 2, seed=120)
    sp = exponent_spectrum(ch, -0.4)
    xs = np.sort(sp.xi)
    assert np.allclose(xs, -xs[::-1], atol=1e-9)


def test_symplectic_overflow_names_the_same_step_as_product():
    from blockflow import BlockChain, ProductOverflowError, product

    diag = np.full((500, 1, 1), 30.0, dtype=complex)
    ones = np.ones((500, 1, 1), dtype=complex)
    ch = BlockChain(a=diag, b=ones.copy(), c=ones.copy())
    assert ch.is_hermitian()
    with pytest.raises(ProductOverflowError) as plain:
        product(ch, 0.5j)
    with pytest.raises(ProductOverflowError) as symplectic:
        check_symplectic(ch, 0.5j)
    assert str(symplectic.value) == str(plain.value)
