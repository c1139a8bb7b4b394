import numpy as np
import pytest

from blockflow import (CornerSingularError, ResolventSingularError,
                       assemble_open, corner_blocks, factorization_residual,
                       product, transfer_from_resolvent)
from blockflow import resolvent
from blockflow.chains import BlockChain

from conftest import clean_chain, random_chain


def dense_corners(chain, energy):
    """Reference: invert the full (h - E) and slice the corner blocks."""
    n, m = chain.n, chain.m
    g = np.linalg.inv(assemble_open(chain) - energy * np.eye(n * m))
    return (g[:m, :m], g[:m, (n - 1) * m:],
            g[(n - 1) * m:, :m], g[(n - 1) * m:, (n - 1) * m:])


def test_two_site_corners_by_hand():
    # h = [[0, 1], [1, 0]], E = 2i: g = (h - E)^{-1} = [[2i, 1], [1, 2i]]/5
    ch = clean_chain(2)
    corners = corner_blocks(ch, 2.0j)
    assert np.allclose(corners.g11, [[0.4j]], atol=1e-12)
    assert np.allclose(corners.g1n, [[0.2]], atol=1e-12)
    assert np.allclose(corners.gn1, [[0.2]], atol=1e-12)
    assert np.allclose(corners.gnn, [[0.4j]], atol=1e-12)
    t = transfer_from_resolvent(ch, 2.0j)
    assert np.allclose(t, np.array([[-5.0, -2.0j], [2.0j, -1.0]]), atol=1e-12)


def test_corners_match_dense_inverse():
    for n, m, seed in [(4, 1, 41), (8, 2, 42), (6, 3, 43), (12, 2, 44)]:
        ch = random_chain(n, m, seed)
        e = 0.35 + 0.55j
        corners = corner_blocks(ch, e)
        g11, g1n, gn1, gnn = dense_corners(ch, e)
        assert np.allclose(corners.g11, g11, atol=1e-10)
        assert np.allclose(corners.g1n, g1n, atol=1e-10)
        assert np.allclose(corners.gn1, gn1, atol=1e-10)
        assert np.allclose(corners.gnn, gnn, atol=1e-10)
        # LAPACK's 1-norm estimate is a lower bound, sharp within a small factor
        kappa = np.linalg.cond(assemble_open(ch) - e * np.eye(n * m), 1)
        assert kappa / 10 <= corners.cond_estimate <= kappa * (1 + 1e-8)


def test_transfer_reconstruction_matches_product():
    for n, m, seed in [(5, 1, 45), (7, 2, 46), (6, 3, 47)]:
        ch = random_chain(n, m, seed)
        e = -0.4 + 0.7j
        t_prod = product(ch, e)
        t_res = transfer_from_resolvent(ch, e)
        assert t_res.shape == (2 * m, 2 * m)
        scale = np.max(np.abs(t_prod))
        assert np.max(np.abs(t_prod - t_res)) <= 1e-8 * scale


def test_factorization_residual_small():
    for n, m, seed in [(4, 2, 48), (9, 1, 49)]:
        ch = random_chain(n, m, seed)
        e = 0.6 - 0.9j
        scale = np.max(np.abs(product(ch, e)))
        assert factorization_residual(ch, e) <= 1e-10 * max(scale, 1.0)


def test_energy_in_spectrum_raises():
    ch = clean_chain(5)
    h = assemble_open(ch)
    e = float(np.sort(np.linalg.eigvalsh(h.real))[2])
    with pytest.raises(ResolventSingularError):
        corner_blocks(ch, e)
    # slightly off the eigenvalue the condition guard still trips
    with pytest.raises(ResolventSingularError) as info:
        corner_blocks(ch, e + 1e-15)
    assert "condition" in str(info.value) or "spectrum" in str(info.value)


def test_guard_refuses_estimate_above_cond_guard(monkeypatch):
    ch = random_chain(8, 2, 42)
    e = 0.35 + 0.55j
    estimate = corner_blocks(ch, e).cond_estimate
    monkeypatch.setattr(resolvent, "COND_GUARD", estimate / 2)
    with pytest.raises(ResolventSingularError, match="condition estimate"):
        corner_blocks(ch, e)


def test_corner_underflow_raises_corner_error():
    # deep in the decay regime g_1n underflows to exactly 0 long before
    # (h - E) becomes ill conditioned
    rng = np.random.default_rng(50)
    n = 1200
    diag = rng.uniform(-8.0, 8.0, size=n).astype(complex).reshape(n, 1, 1)
    ones = np.ones((n, 1, 1), dtype=complex)
    ch = BlockChain(a=diag, b=ones.copy(), c=ones.copy())
    with pytest.raises(CornerSingularError):
        transfer_from_resolvent(ch, 0.3 + 0.4j)
