import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings

from blockflow import (LogDet, ModelSpec, ProductOverflowError, eigenvalues_stabilized,
                       lu_logdet, match_spectra, polynomial_coefficients,
                       product, stabilized_log_singular_values, steps)
from blockflow.chains import BlockChain
from blockflow.transfer import LogEigenvalues, cyclic_log_moduli
from blockflow.linalg import wrap_phase

from conftest import (clean_chain, complex_energies, hermitian_chain,
                      property_chains, random_chain)


def run_recursion(chain, energy, u0, u1):
    """Independent reference: iterate the three-term relation directly."""
    u_prev, u_cur = u0, u1
    for k in range(chain.n):
        rhs = (energy * np.eye(chain.m) - chain.a[k]) @ u_cur - chain.c[k] @ u_prev
        u_next = np.linalg.solve(chain.b[k], rhs)
        u_prev, u_cur = u_cur, u_next
    return u_cur, u_prev  # (u_{n+1}, u_n)


def test_product_propagates_the_recursion():
    rng = np.random.default_rng(21)
    for n, m, seed in [(4, 1, 1), (6, 2, 2), (5, 3, 3)]:
        ch = random_chain(n, m, seed)
        e = complex(rng.normal(), rng.normal())
        u0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        u1 = rng.normal(size=m) + 1j * rng.normal(size=m)
        top, bot = run_recursion(ch, e, u0, u1)
        t = product(ch, e)
        vec = t @ np.concatenate([u1, u0])
        assert np.allclose(vec[:m], top, atol=1e-9)
        assert np.allclose(vec[m:], bot, atol=1e-9)


def test_clean_two_site_product_by_hand():
    # single step [[E, -1], [1, 0]]; squared at E = 2i gives [[-5, -2i], [2i, -1]]
    ch = clean_chain(2)
    e = 2.0j
    t1 = steps(ch, e)[0]
    assert np.allclose(t1, np.array([[e, -1.0], [1.0, 0.0]]))
    t = product(ch, e)
    assert np.allclose(t, np.array([[-5.0, -2.0j], [2.0j, -1.0]]))


def test_determinant_law():
    for n, m, seed in [(3, 1, 4), (7, 2, 5), (5, 3, 6)]:
        ch = random_chain(n, m, seed)
        t = product(ch, 0.3 - 0.8j)
        want = 0.0
        for k in range(n):
            want += lu_logdet(ch.c[k]).log_modulus - lu_logdet(ch.b[k]).log_modulus
        assert lu_logdet(t).log_modulus == pytest.approx(want, abs=1e-10)


def test_inverse_via_reversed_chain():
    # T^{-1} = sigma T^J sigma: T^J of the reversed chain, sigma the block swap
    for n, m, seed in [(5, 1, 7), (4, 2, 8)]:
        ch = random_chain(n, m, seed)
        e = 0.9 + 0.4j
        t = product(ch, e)
        sigma = np.roll(np.eye(2 * m), m, axis=0)
        t_inv = sigma @ product(ch.reversed(), e) @ sigma
        assert np.allclose(t @ t_inv, np.eye(2 * m), atol=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=property_chains, energy=complex_energies)
def test_reversed_chain_gives_the_inverse(chain, energy):
    # T^{-1} = sigma T^J sigma; the rounding of T T^{-1} scales with
    # ||T|| ||T^J||, which reaches 4.5e8 on these draws
    m = chain.m
    t = product(chain, energy)
    t_rev = product(chain.reversed(), energy)
    sigma = np.roll(np.eye(2 * m), m, axis=0)
    scale = np.linalg.norm(t, 2) * np.linalg.norm(t_rev, 2)
    assert np.max(np.abs(t @ sigma @ t_rev @ sigma - np.eye(2 * m))) <= 1e-12 * scale


def test_logdet_t11_matches_the_product():
    for n, m, seed in [(3, 1, 30), (7, 2, 31), (5, 3, 32)]:
        ch = random_chain(n, m, seed)
        e = 0.35 - 0.7j
        want = lu_logdet(product(ch, e)[:m, :m])
        got = eigenvalues_stabilized(ch, e).det_t11
        assert got.log_modulus == pytest.approx(want.log_modulus, abs=1e-10)
        assert wrap_phase(got.phase - want.phase) == pytest.approx(0.0, abs=1e-10)


def test_stabilized_singulars_match_dense_svd():
    for n, m, seed in [(6, 1, 9), (10, 2, 10), (8, 3, 11)]:
        ch = random_chain(n, m, seed)
        e = -0.2 + 0.6j
        t = product(ch, e)
        want = np.log(np.linalg.svd(t, compute_uv=False))
        got = stabilized_log_singular_values(ch, e)
        assert np.allclose(got, want, atol=1e-9)


def test_stabilized_singulars_long_chain_sum_rule():
    # n where the formed product would overflow by hundreds of orders
    ch = random_chain(400, 2, seed=12)
    e = 0.15 + 0.25j
    logs = stabilized_log_singular_values(ch, e)
    want = 0.0
    for k in range(ch.n):
        want += lu_logdet(ch.c[k]).log_modulus - lu_logdet(ch.b[k]).log_modulus
    assert math.fsum(logs) == pytest.approx(want, abs=1e-8)
    assert logs[0] > 50.0  # genuinely beyond naive range after exponentiation
    assert np.all(np.diff(logs) <= 1e-12)


def test_stabilized_singulars_insensitive_to_reorth_interval():
    ch = random_chain(60, 2, seed=13)
    e = 0.4 - 0.3j
    a = stabilized_log_singular_values(ch, e, k_qr=1)
    b = stabilized_log_singular_values(ch, e, k_qr=8)
    c = stabilized_log_singular_values(ch, e, k_qr=25)
    assert np.allclose(a, b, atol=1e-8)
    assert np.allclose(a, c, atol=1e-8)


#: sha256 of the bytes of stabilized_log_singular_values on one chain of
#: each kind (three from the benchmark pools), written before the graded
#: Jacobi kernel was streamlined: the rewrite must keep every bit.  Like
#: the golden reports these are per platform (numpy and LAPACK build).
SINGULAR_BYTES = {
    "hatano-nelson": (
        {"kind": "hatano-nelson", "n": 150, "interval": [-3.5, 3.5], "seed": 168060},
        -0.941081 + 0.487637j,
        "73bffed1b8d01bdc6c4edf245e1f594859e0b2b4d3e6a47fb510b2477a799785"),
    "random-tridiag": (
        {"kind": "random-tridiag", "n": 48, "seed": 11, "interval": [-2, 2]},
        0.2 + 1.0j,
        "a1fbbf90d5788eae607083929f06daa0c4d121eb61171892920f3f2253678baa"),
    "anderson-strip": (
        {"kind": "anderson-strip", "n": 40, "m": 4, "w": 3.0, "seed": 781532},
        -1.261255 + 0.53737j,
        "2f6e552f4d2ad0f38916710dfe76ef359e1e8a22f7c258c9aaddefef49bb55f0"),
    "banded-random": (
        {"kind": "banded-random", "n": 160, "m": 4, "interval": [-1.0, 1.0],
         "seed": 101744},
        0.359722 + 0.637167j,
        "719db04241239068aeb6edc4d489a0eacf075650a9c00cce47058a7d539cde0a"),
}


@pytest.mark.parametrize("kind", sorted(SINGULAR_BYTES))
def test_stabilized_singulars_keep_their_bytes(kind):
    model, energy, digest = SINGULAR_BYTES[kind]
    logs = stabilized_log_singular_values(ModelSpec.from_dict(model).build(), energy)
    assert hashlib.sha256(logs.tobytes()).hexdigest() == digest


def test_stabilized_singulars_keep_their_bytes_on_complex_blocks():
    logs = stabilized_log_singular_values(random_chain(24, 3, seed=90), 0.3 + 0.7j)
    assert hashlib.sha256(logs.tobytes()).hexdigest() == (
        "09fbe3f037c9d5686c78a0d424235a53878d3a64b4aefaa63cbce8cf9e68223d")


def test_product_overflow_raises():
    diag = np.full((500, 1, 1), 30.0, dtype=complex)
    ones = np.ones((500, 1, 1), dtype=complex)
    ch = BlockChain(a=diag, b=ones.copy(), c=ones.copy())
    with pytest.raises(ProductOverflowError):
        product(ch, 0.0)
    # the stabilized route keeps working on the same chain
    logs = stabilized_log_singular_values(ch, 0.0)
    assert np.all(np.isfinite(logs))
    assert logs[0] > 700.0


def test_eigenvalues_stabilized_match_dense():
    for n, m, seed in [(5, 1, 14), (7, 2, 15), (6, 3, 16)]:
        ch = random_chain(n, m, seed)
        e = 0.3 + 0.5j
        want = np.linalg.eigvals(product(ch, e))
        got = eigenvalues_stabilized(ch, e).values()
        pairs, _, ul, ur = match_spectra(got, want, tol=1e-7 * (1 + np.abs(want).max()))
        assert not ul and not ur


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=property_chains, energy=complex_energies)
def test_eigenvalues_stabilized_match_dense_property(chain, energy):
    # the cyclic oracle checks moduli only; the phases are checked here
    # against a plain eigensolve of the formed product
    want = np.linalg.eigvals(product(chain, energy))
    got = eigenvalues_stabilized(chain, energy).values()
    _, _, ul, ur = match_spectra(got, want, tol=1e-7 * (1 + np.abs(want).max()))
    assert not ul and not ur


def test_eigenvalues_stabilized_long_chain():
    ch = random_chain(300, 1, seed=17)
    e = 0.2 + 0.4j
    eig = eigenvalues_stabilized(ch, e)
    want = 0.0
    for k in range(ch.n):
        want += lu_logdet(ch.c[k]).log_modulus - lu_logdet(ch.b[k]).log_modulus
    assert math.fsum(eig.log_abs) == pytest.approx(want, abs=1e-8)
    assert len(eig.log_abs) == 2
    assert eig.xi == pytest.approx(eig.log_abs / 300.0)


def test_cyclic_moduli_of_degenerate_replicas():
    # at E = 0 the clean 4-site transfer matrix is the identity: all 2m n
    # eigenvalues of the cyclic embedding lie on the unit circle and every
    # run of n replicas averages to log|z| = 0
    assert np.allclose(cyclic_log_moduli(clean_chain(4), 0.0), 0.0, atol=1e-10)


def test_values_saturate_on_overflow():
    eig = LogEigenvalues(log_abs=np.array([800.0, -800.0]),
                         phase=np.array([0.0, 0.0]), chain=clean_chain(10),
                         energy=0j, det_t11=LogDet(0.0, 0.0))
    vals = eig.values()
    assert vals[0] == complex(math.inf, 0.0)
    assert vals[1] == 0.0


def test_polynomial_coefficients():
    ch = random_chain(4, 1, seed=18)
    coeffs = polynomial_coefficients(ch)
    assert len(coeffs) == ch.n + 1
    # leading coefficient: top-left block is (B_1 ... B_n)^{-1}
    prod_b = np.eye(1, dtype=complex)
    for k in range(ch.n):
        prod_b = prod_b @ ch.b[k]
    lead = coeffs[-1]
    assert np.allclose(lead[:1, :1], np.linalg.inv(prod_b), atol=1e-8)
    assert np.allclose(lead[1:, :], 0.0, atol=1e-8)
    # evaluation matches the product at fresh points
    for e in (0.37 - 0.21j, -1.2 + 0.05j):
        want = product(ch, e)
        got = sum(c * e ** p for p, c in enumerate(coeffs))
        assert np.allclose(got, want, atol=1e-7)


def test_degenerate_direction_raises():
    # A_1 = E makes the first step annihilate nothing here, but a zero
    # column appears if C is scaled to zero; use a nearly-zero C instead
    # and check the plain product still works, then force the singular path
    ch = clean_chain(3)
    logs = stabilized_log_singular_values(ch, 0.5)
    assert np.all(np.isfinite(logs))


def test_hermitian_chain_unit_circle_at_real_energy():
    # inside the band of the clean chain all eigenvalues sit on |z| = 1
    ch = clean_chain(8)
    eig = eigenvalues_stabilized(ch, 0.5)
    assert np.allclose(eig.log_abs, 0.0, atol=1e-9)
    ch2 = hermitian_chain(8, 2, seed=19)
    t = product(ch2, 0.3)
    vals = np.linalg.eigvals(t)
    # spectrum symmetric under z -> 1/conj(z)
    inv_conj = 1.0 / np.conj(vals)
    _, max_d, ul, ur = match_spectra(vals, inv_conj,
                                     tol=1e-6 * (1 + np.abs(vals).max()))
    assert not ul and not ur
