"""Corner blocks of the open-chain resolvent and the transfer matrix
reconstruction built from them.

For g(E) = (h - E)^{-1} only the four corner blocks g_11, g_1n, g_n1,
g_nn enter the transfer matrix identity

    T(E) = [[-B_n^{-1} g_1n^{-1},          -B_n^{-1} g_1n^{-1} g_11 C_1],
            [ g_nn g_1n^{-1},   g_nn g_1n^{-1} g_11 C_1 - g_n1 C_1    ]],

so they are extracted by solving 2m banded linear systems rather than
inverting the full nm x nm operator.  They are refused unless LAPACK's
1-norm condition estimate on the same band LU stays below COND_GUARD.
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


def corner_blocks(chain: BlockChain, energy: complex) -> ResolventCorners:
    """Solve (h - E) X = [e_first, e_last] for the four corner blocks.

    Raises ResolventSingularError when E sits in (or numerically on) the
    spectrum of h: exact breakdown of the banded LU, or a 1-norm condition
    estimate beyond COND_GUARD.  The estimate is LAPACK's ?gbcon (Higham's
    estimator) on the same LU that solves for the corners.
    """
    n, m = chain.n, chain.m
    band, kl, ku = open_band(chain, energy)
    ab = 0.0 - band  # h - E, with +0.0 in the unused storage
    gbtrf, gbtrs, gbcon = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs", "gbcon"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku)
    if info != 0:
        raise ResolventSingularError(
            f"banded factorization of h - E broke down (info={info}); "
            "E is in the spectrum of the open chain")
    # ||h - E||_1 is the largest column sum of the band
    rcond, _ = gbcon(kl, ku, lu, piv, float(np.abs(ab).sum(axis=0).max()))
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    if cond > COND_GUARD:
        raise ResolventSingularError(
            f"resolvent singular: condition estimate {cond:.3e} exceeds "
            f"{COND_GUARD:.0e} at E={energy}")
    rhs = np.zeros((n * m, 2 * m), dtype=complex)
    rhs[:m, :m] = rhs[(n - 1) * m:, m:] = np.eye(m)
    x, info = gbtrs(lu, kl, ku, rhs, piv)
    if info != 0:
        raise ResolventSingularError(f"banded solve failed (info={info})")
    first, last = x[:m], x[(n - 1) * m:]
    return ResolventCorners(g11=first[:, :m].copy(), g1n=first[:, m:].copy(),
                            gn1=last[:, :m].copy(), gnn=last[:, m:].copy(),
                            energy=complex(energy), cond_estimate=cond)


def transfer_from_resolvent(chain: BlockChain, energy: complex) -> np.ndarray:
    """T(E) reconstructed from the four resolvent corners, a 2m x 2m array."""
    return transfer_from_corners(chain, corner_blocks(chain, energy))


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
