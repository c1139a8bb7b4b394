"""Spectral symmetries of Hermitian-block chains.

A chain with A_k Hermitian and C_{k+1} = B_k^dag (cyclically, so
C_1 = B_n^dag) has transfer matrices obeying the indefinite relation

    T(Ebar)^dag Sigma_n T(E) = Sigma_n,     Sigma_k = i [[0, -B_k^dag],
                                                         [B_k,  0    ]],

built one factor at a time: t_k(Ebar)^dag Sigma_k t_k(E) = Sigma_{k-1}
with Sigma_0 identified with Sigma_n.  Consequences checked here: at real
E the spectrum of T is invariant under z -> 1/zbar (pairs with opposite
exponents), at non-real E no eigenvalue reaches the unit circle, and for
real symmetric chains the spectrum closes into quadruples
{z, zbar, 1/z, 1/zbar}.  The pairing and exclusion checks read the
transfer spectrum (transfer.LogEigenvalues), which carries the chain and
E it was computed at; the conservation law forms its own products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import BlockChain
from .linalg import report_fields
from .transfer import LogEigenvalues, product, steps

#: exponent pairing tolerance |log|z| + log|z'||
TOL_PAIR = 1e-7

#: smallest |Im E| at which the unit-circle exclusion is checked
MIN_IM = 1e-8


class NotHermitianChainError(ValueError):
    """The chain lacks the structure A_k = A_k^dag, C_{k+1} = B_k^dag."""


def _require_hermitian(chain: BlockChain) -> None:
    if not chain.is_hermitian():
        raise NotHermitianChainError(
            "not a Hermitian chain: need A_k = A_k^dag and C_{k+1} = B_k^dag "
            "(cyclically) within 1e-12")


def _sigma(b: np.ndarray) -> np.ndarray:
    """i [[0, -B^dag], [B, 0]] for one block B or a stack of them."""
    m = b.shape[-1]
    s = np.zeros((*b.shape[:-2], 2 * m, 2 * m), dtype=complex)
    s[..., :m, m:] = -1j * np.swapaxes(b.conj(), -1, -2)
    s[..., m:, :m] = 1j * b
    return s


def sigma_form(chain: BlockChain, k: int) -> np.ndarray:
    """Sigma_k = i [[0, -B_k^dag], [B_k, 0]] for 1-based k."""
    return _sigma(chain.b[k - 1])


@dataclass(frozen=True)
class SymplecticReport:
    """Residuals of the conservation law, whole product and per step."""

    energy: complex
    residual: float
    scale: float
    step_residuals: tuple[float, ...]
    passed: bool

    to_dict = report_fields


def check_symplectic(chain: BlockChain, energy: complex) -> SymplecticReport:
    """Verify T(Ebar)^dag Sigma_n T(E) = Sigma_n and each one-step relation.

    The residual is compared against 1e-9 times a conditioning scale
    ||T(Ebar)||*||T(E)||*||Sigma_n||, the size at which roundoff enters
    the triple product.
    """
    _require_hermitian(chain)
    sigmas = _sigma(chain.b)
    sigma_n = sigmas[-1]
    energy_bar = complex(energy).conjugate()
    steps_e = steps(chain, energy)
    t_e = product(chain, energy, steps_e)
    steps_ebar = steps(chain, energy_bar)
    t_ebar = product(chain, energy_bar, steps_ebar)
    lhs = t_ebar.conj().T @ sigma_n @ t_e
    residual = float(np.max(np.abs(lhs - sigma_n)))
    scale = float(np.max(np.abs(sigma_n))
                  * max(1.0, np.linalg.norm(t_e, 2) * np.linalg.norm(t_ebar, 2)))
    # t_k(Ebar)^dag Sigma_k t_k(E) against Sigma_{k-1}, with Sigma_0 = Sigma_n
    got = np.swapaxes(steps_ebar.conj(), 1, 2) @ sigmas @ steps_e
    step_residuals = np.max(np.abs(got - np.roll(sigmas, 1, axis=0)), axis=(1, 2))
    return SymplecticReport(energy=complex(energy), residual=residual,
                            scale=scale,
                            step_residuals=tuple(float(r) for r in step_residuals),
                            passed=bool(residual <= 1e-9 * scale))


@dataclass(frozen=True)
class PairingReport:
    """Pairing structure of the transfer spectrum.

    pair_id[k] groups eigenvalues: members of one pair (or quadruple)
    share an id; unpaired eigenvalues keep id -1 and are listed in
    ``unmatched``.  Eigenvalues with |log|z|| <= TOL_PAIR are flagged as
    unit-circle members (self-paired under z -> 1/zbar).
    """

    mode: str
    energy: complex
    log_abs: np.ndarray
    phase: np.ndarray
    pair_id: np.ndarray
    unit_circle: np.ndarray
    unmatched: tuple[int, ...]
    max_defect: float

    to_dict = report_fields


def detect_pairings(spectrum: LogEigenvalues,
                    mode: str = "hermitian-real-E") -> PairingReport:
    """Group the transfer eigenvalues of ``spectrum`` into symmetry multiplets.

    mode "hermitian-real-E": pairs (z, 1/zbar), i.e. opposite log moduli
    with equal phases; requires a Hermitian chain and real E to be
    meaningful.  mode "real-symmetric": quadruples {z, zbar, 1/z, 1/zbar}
    (pairs degenerate to size 2 on the real axis or the unit circle).
    Unmatched eigenvalues are reported, not raised.
    """
    if mode not in ("hermitian-real-E", "real-symmetric"):
        raise ValueError(f"unknown pairing mode {mode!r}")
    count = len(spectrum.log_abs)
    log_abs = spectrum.log_abs
    phase = spectrum.phase
    unit_circle = np.abs(log_abs) <= TOL_PAIR
    pair_id = -np.ones(count, dtype=int)
    next_id = 0
    max_defect = 0.0
    tol_phase = max(1e-6, TOL_PAIR * spectrum.n)

    def phase_gap(i, j, sign):
        # sign +1: phases equal (partner 1/zbar); -1: opposite (partner 1/z)
        d = phase[i] - sign * phase[j]
        return abs(math.remainder(d, 2.0 * math.pi))

    for i in range(count):
        if pair_id[i] >= 0:
            continue
        if unit_circle[i] and mode == "hermitian-real-E":
            # z -> 1/zbar fixes the unit circle pointwise: self-paired
            pair_id[i] = next_id
            next_id += 1
            continue
        best_j, best_mod, best_ph = -1, math.inf, math.inf
        for j in range(count):
            if j == i or pair_id[j] >= 0:
                continue
            mod_defect = abs(log_abs[i] + log_abs[j])
            if mode == "hermitian-real-E":
                ph_defect = phase_gap(i, j, +1)
            else:
                ph_defect = min(phase_gap(i, j, +1), phase_gap(i, j, -1))
            if mod_defect + ph_defect < best_mod + best_ph:
                best_j, best_mod, best_ph = j, mod_defect, ph_defect
        if best_j >= 0 and best_mod <= TOL_PAIR and best_ph <= tol_phase:
            pair_id[i] = pair_id[best_j] = next_id
            next_id += 1
            max_defect = max(max_defect, best_mod)
    if mode == "real-symmetric":
        # merge conjugate pairs of pairs into quadruples
        for i in range(count):
            if pair_id[i] < 0:
                continue
            for j in range(count):
                if pair_id[j] < 0 or pair_id[j] == pair_id[i]:
                    continue
                if abs(log_abs[i] - log_abs[j]) <= TOL_PAIR \
                        and phase_gap(i, j, -1) <= TOL_PAIR * 10:
                    old = pair_id[j]
                    pair_id[pair_id == old] = pair_id[i]
    unmatched = tuple(int(i) for i in np.flatnonzero(pair_id < 0))
    return PairingReport(mode=mode, energy=spectrum.energy,
                         log_abs=log_abs.copy(), phase=phase.copy(),
                         pair_id=pair_id, unit_circle=unit_circle,
                         unmatched=unmatched, max_defect=max_defect)


@dataclass(frozen=True)
class UnitCircleReport:
    energy: complex
    margin: float
    passed: bool

    to_dict = report_fields


def check_unit_circle_exclusion(spectrum: LogEigenvalues) -> UnitCircleReport:
    """At Im E != 0 a Hermitian chain has no unit-circle eigenvalue.

    Returns the margin min_k |log|z_k|| of ``spectrum``, which is strictly
    positive and grows with |Im E|; |Im E| must be at least MIN_IM.
    """
    _require_hermitian(spectrum.chain)
    if abs(spectrum.energy.imag) < MIN_IM:
        raise ValueError(f"need |Im E| >= {MIN_IM} for the exclusion check")
    margin = float(np.min(np.abs(spectrum.log_abs)))
    return UnitCircleReport(energy=spectrum.energy, margin=margin,
                            passed=bool(margin > 0.0))
