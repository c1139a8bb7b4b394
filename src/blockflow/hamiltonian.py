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

Determinants are taken from LAPACK general-band storage (gbtrf), O(n m^3),
never from the dense matrices, which stay as oracles.  The open chain is
banded in its natural site order (kl = ku = 2m - 1).  The ring is not: its
corner blocks couple sites 1 and n.  Folding it, i.e. taking the sites in
the order 1, n, 2, n-1, 3, ..., puts every ring neighbour at most two
positions away, so the permuted matrix has kl = ku = 3m - 1; rows and
columns move together, so the determinant is unchanged.  In that band
E - H_bal(w) = D - w*U - L/w, with D (the diagonal blocks E - A_k), U (the
B_k) and L (the C_k) fixed for one (chain, E), so each w costs one band
sum and one gbtrf.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chains import BlockChain
from .linalg import LogDet, band_logdet, lu_logdet, wrap_phase


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
    """log det[E*I - matrix] for an assembled operator by dense LU: the
    oracle for the band routes below."""
    mat = np.asarray(matrix)
    return lu_logdet(energy * np.eye(mat.shape[0]) - mat)


def _band(chain: BlockChain, kl: int, ku: int, placements) -> np.ndarray:
    """Sum of block placements in LAPACK general-band storage for gbtrf.

    ``placements`` holds (blocks, rows, cols): blocks[i] is added at block
    position (rows[i], cols[i]), positions distinct within one placement.
    Entry (i, j) sits at ab[kl + ku + i - j, j]; the top kl rows are the
    workspace gbtrf fills in.
    """
    m = chain.m
    ab = np.zeros((2 * kl + ku + 1, chain.n * m), dtype=complex)
    r = np.arange(m)[:, None]
    s = np.arange(m)[None, :]
    for blocks, rows, cols in placements:
        rows, cols = rows[:, None, None], cols[:, None, None]
        ab[kl + ku + (rows - cols) * m + r - s, cols * m + s] += blocks
    return ab


def open_band(chain: BlockChain, energy: complex) -> tuple[np.ndarray, int, int]:
    """(ab, kl, ku): E - h in band storage, sites in natural order."""
    kl = ku = 2 * chain.m - 1
    k = np.arange(chain.n)
    ab = _band(chain, kl, ku, [(energy * np.eye(chain.m) - chain.a, k, k),
                               (-chain.b[:-1], k[:-1], k[1:]),
                               (-chain.c[1:], k[1:], k[:-1])])
    return ab, kl, ku


def logdet_open(chain: BlockChain, energy: complex) -> LogDet:
    """log det[E - h] of the open chain from its band LU."""
    return band_logdet(*open_band(chain, energy))


@dataclass(frozen=True)
class RingBand:
    """E - H_bal(w) = diag - w*upper - lower/w in folded band storage.

    The three parts are fixed for one (chain, E); ``logdet(w)`` forms one
    band from them and factors it.
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    kl: int
    ku: int

    def logdet(self, w: complex) -> LogDet:
        """log det[E - H_bal(w)], which equals log det[E - H(w^n)]."""
        w = complex(w)
        if w == 0:
            raise ValueError("per-site factor w must be nonzero")
        ab = self.lower * (-1.0 / w)
        ab += self.diag
        ab -= w * self.upper
        return band_logdet(ab, self.kl, self.ku)


def ring_band(chain: BlockChain, energy: complex) -> RingBand:
    """The balanced ring at (chain, E) in folded band storage.

    Site k (0-based) sits at position 2k for k < n/2 and 2(n-1-k)+1
    otherwise, so B_k at (k, k+1 mod n) and C_k at (k, k-1 mod n) land at
    most two block positions off the diagonal.  For n = 2 the corner blocks
    share positions with the inner hoppings and add to them in the sum.
    """
    n, m = chain.n, chain.m
    kl = ku = min(3 * m - 1, n * m - 1)
    k = np.arange(n)
    pos = np.where(2 * k < n, 2 * k, 2 * (n - 1 - k) + 1)
    # Fortran order, the layout gbtrf reads: each w factors without a copy
    diag, upper, lower = (np.asfortranarray(_band(chain, kl, ku, [part])) for part in (
        (energy * np.eye(m) - chain.a, pos, pos),
        (chain.b, pos, pos[(k + 1) % n]),
        (chain.c, pos, pos[(k - 1) % n])))
    return RingBand(diag=diag, upper=upper, lower=lower, kl=kl, ku=ku)


def log_minus_z(z: complex, m: int) -> LogDet:
    """LogDet of (-z)^m, the prefactor of the ring/transfer duality.

    log|z| and arg z both come from cmath.log(z), which keeps every bit
    at deeply subnormal z, where abs(z) rounds to a few digits.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    log_z = cmath.log(z)
    return LogDet(m * log_z.real, wrap_phase(m * (log_z.imag + math.pi)))
