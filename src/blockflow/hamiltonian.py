"""Assembly of the ring and open operators attached to a chain.

H(z) is the nm x nm block tridiagonal matrix of the chain closed into a
ring with boundary factor z: corner blocks C_1/z (top right) and z*B_n
(bottom left) encode u_0 = u_n/z and u_{n+1} = z*u_1.  For n = 2 the
corner positions coincide with the inner hopping positions and the
contributions add.

The balanced variant spreads the boundary factor over the whole ring,
every B_k -> w*B_k and C_k -> C_k/w; H(w^n) and the balanced matrix at w
are similar via the diagonal gauge diag(w^k I_m), so determinants and
spectra agree exactly while entries stay O(|w|) instead of O(|w|^n).
This makes the balanced form the numerically usable one at large |z|.
The balanced matrix is invariant in spectrum under w -> w*exp(2i*pi/n).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .chains import BlockChain
from .linalg import LogDet, lu_logdet, wrap_phase


def _assemble(chain: BlockChain, upper: np.ndarray, lower: np.ndarray,
              corners: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Place A_k on the diagonal, upper[k] at block (k, k+1), lower[k] at
    (k+1, k) and, for a ring, corners = (top right, bottom left).

    Corner blocks are added last, so for n = 2 they sum with the inner
    hoppings they overlap.
    """
    n, m = chain.n, chain.m
    h = np.zeros((n * m, n * m), dtype=complex)
    blocks = h.reshape(n, m, n, m)  # blocks[i, :, j, :] is block (i, j) of h
    k = np.arange(n)
    blocks[k, :, k, :] = chain.a
    blocks[k[:-1], :, k[1:], :] += upper
    blocks[k[1:], :, k[:-1], :] += lower
    if corners is not None:
        blocks[0, :, n - 1, :] += corners[0]
        blocks[n - 1, :, 0, :] += corners[1]
    return h


def assemble_bloch(chain: BlockChain, z: complex) -> np.ndarray:
    """H(z) with corner blocks C_1/z and z*B_n.

    For n = 2 the corners share positions with B_1 and C_2 and are summed,
    which is the convention consistent with the ring boundary conditions.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("boundary factor z must be nonzero")
    return _assemble(chain, chain.b[:-1], chain.c[1:],
                     (chain.c[0] / z, z * chain.b[-1]))


def assemble_balanced(chain: BlockChain, w: complex) -> np.ndarray:
    """The gauge-balanced ring matrix: every B_k -> w*B_k, C_k -> C_k/w."""
    w = complex(w)
    if w == 0:
        raise ValueError("per-site factor w must be nonzero")
    return _assemble(chain, w * chain.b[:-1], chain.c[1:] / w,
                     (chain.c[0] / w, w * chain.b[-1]))


def assemble_open(chain: BlockChain) -> np.ndarray:
    """The open-boundary operator h: no corners, B_n and C_1 unused."""
    return _assemble(chain, chain.b[:-1], chain.c[1:])


def logdet_shift(matrix: np.ndarray, energy: complex) -> LogDet:
    """log det[E*I - matrix] for an assembled operator."""
    mat = np.asarray(matrix)
    return lu_logdet(energy * np.eye(mat.shape[0]) - mat)


def log_minus_z(z: complex, m: int) -> LogDet:
    """LogDet of (-z)^m, the prefactor of the ring/transfer duality."""
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    return LogDet(m * math.log(abs(z)),
                  wrap_phase(m * (cmath.phase(z) + math.pi)))
