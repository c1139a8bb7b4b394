"""Corner blocks of the open-chain resolvent and the transfer matrix
reconstruction built from them.

For g(E) = (h - E)^{-1} only the four corner blocks g_11, g_1n, g_n1,
g_nn enter the transfer matrix identity

    T(E) = [[-B_n^{-1} g_1n^{-1},          -B_n^{-1} g_1n^{-1} g_11 C_1],
            [ g_nn g_1n^{-1},   g_nn g_1n^{-1} g_11 C_1 - g_n1 C_1    ]],

so they are extracted by solving 2m banded linear systems rather than
inverting the full nm x nm operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chains import BlockChain
from .hamiltonian import open_band
from .linalg import as_matrix, singular_values
from .transfer import product

#: corner extraction refuses condition estimates beyond this
COND_GUARD = 1e12


class ResolventSingularError(ValueError):
    """h - E is singular or too ill conditioned for corner extraction."""

    def __init__(self, message: str, log_modulus: float = float("nan")):
        super().__init__(message)
        self.log_modulus = log_modulus


class CornerSingularError(ValueError):
    """The corner block g_1n is singular, so T(E) cannot be reconstructed."""


@dataclass(frozen=True)
class ResolventCorners:
    """Corner blocks of (h - E)^{-1}, each m x m."""

    g11: np.ndarray
    g1n: np.ndarray
    gn1: np.ndarray
    gnn: np.ndarray
    energy: complex
    cond_estimate: float


def _cond_estimate(solve, matvec_norm: float, size: int, iters: int = 10) -> float:
    """Rough 2-norm condition estimate via inverse power iteration.

    ``solve`` applies (h-E)^{-1}; matvec_norm is an upper estimate of
    ||h-E||.  Accuracy within a small factor is all the guard needs.
    """
    rng = np.random.default_rng(size)  # fixed seed: deterministic guard
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v /= np.linalg.norm(v)
    inv_norm = 0.0
    for _ in range(iters):
        v = solve(v)
        nv = float(np.linalg.norm(v))
        if not math.isfinite(nv) or nv == 0.0:
            return float("inf")
        inv_norm = nv
        v /= nv
    return matvec_norm * inv_norm


def corner_blocks(chain: BlockChain, energy: complex) -> ResolventCorners:
    """Solve (h - E) X = [e_first, e_last] for the four corner blocks.

    Raises ResolventSingularError when E sits in (or numerically on) the
    spectrum of h: exact breakdown of the banded LU, or a condition
    estimate beyond COND_GUARD.
    """
    n, m = chain.n, chain.m
    size = n * m
    band, kl, ku = open_band(chain, energy)
    ab = 0.0 - band  # h - E, with +0.0 in the unused storage
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku)
    if info != 0:
        raise ResolventSingularError(
            f"banded factorization of h - E broke down (info={info}); "
            "E is in the spectrum of the open chain",
            log_modulus=float("-inf"))

    def solve(rhs):
        x, sinfo = gbtrs(lu, kl, ku, rhs, piv)
        if sinfo != 0:
            raise ResolventSingularError(f"banded solve failed (info={sinfo})")
        return x

    # ||h - E||_2 <= sqrt(||.||_1 ||.||_inf); both norms are cheap on the bands
    dense_cols = np.abs(ab).sum(axis=0)
    norm_est = float(dense_cols.max())
    cond = _cond_estimate(solve, norm_est, size)
    if cond > COND_GUARD:
        # diagonal of U sits in row kl+ku of the banded LU storage
        log_mod = float(np.sum(np.log(np.abs(lu[kl + ku, :]))))
        raise ResolventSingularError(
            f"resolvent singular: condition estimate {cond:.3e} exceeds "
            f"{COND_GUARD:.0e} at E={energy}", log_modulus=log_mod)

    rhs = np.zeros((size, 2 * m), dtype=complex)
    for j in range(m):
        rhs[j, j] = 1.0
        rhs[(n - 1) * m + j, m + j] = 1.0
    x = solve(rhs)
    return ResolventCorners(g11=x[:m, :m].copy(),
                            g1n=x[:m, m:].copy(),
                            gn1=x[(n - 1) * m:, :m].copy(),
                            gnn=x[(n - 1) * m:, m:].copy(),
                            energy=complex(energy),
                            cond_estimate=cond)


def transfer_from_resolvent(chain: BlockChain, energy: complex) -> np.ndarray:
    """T(E) reconstructed from the four resolvent corners, a 2m x 2m array."""
    corners = corner_blocks(chain, energy)
    return transfer_from_corners(chain, corners)


def transfer_from_corners(chain: BlockChain, corners: ResolventCorners) -> np.ndarray:
    m = chain.m
    g1n = as_matrix(corners.g1n)
    sv = singular_values(g1n)
    if sv[-1] <= 1e-300 or sv[0] / max(sv[-1], 1e-300) > COND_GUARD:
        raise CornerSingularError(
            f"corner singular: g_1n has sigma_min={sv[-1]:.3e} at "
            f"E={corners.energy}")
    inv_g1n = np.linalg.inv(g1n)
    b_n = chain.b[chain.n - 1]
    c_1 = chain.c[0]
    t11 = -np.linalg.solve(b_n, inv_g1n)
    t12 = t11 @ corners.g11 @ c_1
    t21 = corners.gnn @ inv_g1n
    t22 = t21 @ corners.g11 @ c_1 - corners.gn1 @ c_1
    total = np.zeros((2 * m, 2 * m), dtype=complex)
    total[:m, :m] = t11
    total[:m, m:] = t12
    total[m:, :m] = t21
    total[m:, m:] = t22
    return total


def factorization_residual(chain: BlockChain, energy: complex) -> float:
    """Max-norm residual of the two-sided corner factorization

        [[0, -B_n^{-1}], [g_n1, g_nn]] = T(E) [[g_11, g_1n], [-C_1^{-1}, 0]],

    a route-independent consistency check tying the product transfer
    matrix to the resolvent corners.
    """
    m = chain.m
    corners = corner_blocks(chain, energy)
    t = product(chain, energy)
    left = np.zeros((2 * m, 2 * m), dtype=complex)
    left[:m, m:] = -np.linalg.inv(chain.b[chain.n - 1])
    left[m:, :m] = corners.gn1
    left[m:, m:] = corners.gnn
    right = np.zeros((2 * m, 2 * m), dtype=complex)
    right[:m, :m] = corners.g11
    right[:m, m:] = corners.g1n
    right[m:, :m] = -np.linalg.inv(chain.c[0])
    return float(np.max(np.abs(left - t @ right)))
