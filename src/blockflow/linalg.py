"""Dense complex linear algebra in log space.

Determinants of long chain products overflow double precision long before
the underlying physics degenerates, so every determinant in this package is
carried as a (log-modulus, phase) pair.  The helpers here wrap LAPACK
routines (via numpy/scipy) behind that representation and fix the
spectrum matching convention used everywhere else.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import scipy.linalg

TAU = 2.0 * math.pi

_zgbtrf = scipy.linalg.lapack.zgbtrf

#: relative tolerance for invertibility checks
TOL_INV = 1e-10


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular at working precision."""


class EigenConvergenceError(RuntimeError):
    """The underlying eigenvalue iteration failed to converge."""


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    p = math.fmod(phi, TAU)
    if p > math.pi:
        p -= TAU
    elif p <= -math.pi:
        p += TAU
    return p


def as_matrix(a, square: bool = True) -> np.ndarray:
    """Validate and return a complex 2-d array.

    Rejects empty and non-finite input; the rest of the package assumes
    matrices passed through here.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-d array, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class LogDet:
    """A nonzero complex number det = exp(log_modulus + i*phase).

    ``log_modulus`` is -inf for an exactly zero determinant, in which case
    the phase is fixed to 0.0 by convention.
    """

    log_modulus: float
    phase: float

    @classmethod
    def from_complex(cls, value: complex) -> "LogDet":
        value = complex(value)
        if value == 0:
            return cls(float("-inf"), 0.0)
        return cls(math.log(abs(value)), wrap_phase(cmath.phase(value)))

    @property
    def value(self) -> complex:
        """The determinant as a complex number; may overflow to inf."""
        if self.log_modulus == float("-inf"):
            return 0.0
        return cmath.exp(complex(self.log_modulus, self.phase))

    def __mul__(self, other: "LogDet") -> "LogDet":
        if self.is_zero or other.is_zero:
            return LogDet(float("-inf"), 0.0)
        return LogDet(self.log_modulus + other.log_modulus,
                      wrap_phase(self.phase + other.phase))

    def __truediv__(self, other: "LogDet") -> "LogDet":
        if other.is_zero:
            raise ZeroDivisionError("division by a zero determinant")
        if self.is_zero:
            return LogDet(float("-inf"), 0.0)
        return LogDet(self.log_modulus - other.log_modulus,
                      wrap_phase(self.phase - other.phase))

    @property
    def is_zero(self) -> bool:
        return self.log_modulus == float("-inf")


def report_fields(report) -> dict:
    """A report dataclass's fields as {key: raw value}: keyed by name, but
    ``energy`` by "E", with a nested report flattened into its keys.  The
    command line makes the values JSON-safe (complex to [re, im], arrays
    to lists).
    """
    doc = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if is_dataclass(value):
            doc.update(value.to_dict())
        else:
            doc["E" if f.name == "energy" else f.name] = value
    return doc


def lu_logdet(a) -> LogDet:
    """Determinant of a square matrix as a LogDet, via pivoted LU.

    An exactly zero pivot gives log_modulus = -inf rather than raising (or,
    as scipy.linalg.lu_factor would, warning): LAPACK getrf is called directly.
    """
    m = as_matrix(a)
    getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (m,))
    lu, piv, _ = getrf(m)
    return _logdet_from_lu(np.diagonal(lu), piv)


def band_logdet(ab: np.ndarray, kl: int, ku: int) -> LogDet:
    """Determinant of a banded matrix as a LogDet, via LAPACK gbtrf.

    ``ab`` holds the matrix in general-band storage with the kl workspace
    rows gbtrf needs on top (entry (i, j) at ab[kl + ku + i - j, j]); a
    complex Fortran-ordered array is factored in place.  Same sign rule and
    zero-pivot convention as lu_logdet.
    """
    lu, piv, info = _zgbtrf(ab, kl, ku, overwrite_ab=True)
    if info < 0:
        raise ValueError(f"gbtrf rejected argument {-info}")
    # the diagonal of U sits in row kl + ku of the factored storage
    return _logdet_from_lu(lu[kl + ku], piv)


def _logdet_from_lu(diag: np.ndarray, piv: np.ndarray) -> LogDet:
    """det from the diagonal of U and the 0-based row pivots of an LU."""
    if np.any(diag == 0):
        return LogDet(float("-inf"), 0.0)
    log_modulus = float(np.sum(np.log(np.abs(diag))))
    # each off-position pivot is one row swap contributing a factor -1
    swaps = int(np.sum(piv != np.arange(len(piv))))
    phase = float(np.sum(np.angle(diag))) + math.pi * (swaps % 2)
    return LogDet(log_modulus, wrap_phase(phase))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    m = as_matrix(a, square=False)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def raise_first_singular(svals: np.ndarray, names) -> None:
    """Raise SingularMatrixError for the first singular matrix of a stack.

    ``svals[i]`` holds the descending singular values of the i-th square
    matrix (as one batched SVD returns them) and ``names[i]`` its name.  A
    matrix is singular when sigma_min <= TOL_INV * max(sigma_max, 1) * size.
    """
    size = svals.shape[1]
    bad = np.flatnonzero(svals[:, -1] <= TOL_INV * np.maximum(svals[:, 0], 1.0) * size)
    if bad.size:
        s = svals[bad[0]]
        raise SingularMatrixError(
            f"{names[bad[0]]} is singular at working precision "
            f"(sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})")


def logdet_blocks(blocks) -> LogDet:
    """det[X_1 X_2 ... X_n] for a stack of square matrices, as a LogDet.

    One batched LU (numpy slogdet); a singular block has sign 0 and gives
    log_modulus = -inf.  The signs are multiplied, not their angles summed,
    so real blocks keep a phase of exactly 0 or pi.
    """
    sign, log_abs = np.linalg.slogdet(blocks)
    return LogDet(float(np.sum(log_abs)), wrap_phase(float(np.angle(np.prod(sign)))))


def match_tolerance(values: np.ndarray) -> float:
    """Matching radius for eigenvalue multisets: 1e-7 * (1 + spectral radius)."""
    vals = np.asarray(values)
    radius = float(np.max(np.abs(vals))) if vals.size else 0.0
    return 1e-7 * (1.0 + radius)


def match_spectra(left, right, tol: float | None = None):
    """Greedy nearest-neighbour matching of two complex multisets.

    Returns (pairs, max_distance, unmatched_left, unmatched_right) where
    ``pairs`` is a list of index pairs (i, j) with |left[i]-right[j]| <= tol.
    Matching is greedy over globally ascending distances, which is exact
    whenever the multisets agree pairwise within tol and are separated by
    more than 2*tol otherwise.
    """
    lv = np.asarray(left, dtype=complex)
    rv = np.asarray(right, dtype=complex)
    if tol is None:
        tol = match_tolerance(np.concatenate([lv, rv]))
    dist = np.abs(lv[:, None] - rv[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_l = np.zeros(len(lv), dtype=bool)
    used_r = np.zeros(len(rv), dtype=bool)
    pairs = []
    max_d = 0.0
    complete = min(len(lv), len(rv))
    for flat in order:
        if len(pairs) == complete:
            break
        i, j = divmod(int(flat), len(rv))
        if used_l[i] or used_r[j]:
            continue
        if dist[i, j] > tol:
            break
        used_l[i] = used_r[j] = True
        pairs.append((i, j))
        max_d = max(max_d, float(dist[i, j]))
    unmatched_l = [int(i) for i in np.flatnonzero(~used_l)]
    unmatched_r = [int(j) for j in np.flatnonzero(~used_r)]
    return pairs, max_d, unmatched_l, unmatched_r
