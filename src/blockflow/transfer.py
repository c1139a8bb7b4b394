"""Transfer matrices of block tridiagonal chains.

The one-step matrix at energy E is

    t_k(E) = [[B_k^{-1}(E - A_k), -B_k^{-1} C_k],
              [I_m,               0            ]]

and the n-step matrix is the ordered product T(E) = t_n ... t_1, returned
by product as a plain 2m x 2m array.  Entries of T grow like
exp(n * xi_max), so alongside the plain product this module provides
numerically stabilized routes: singular values accumulated in log space
through a graded one-sided Jacobi factorization, and eigenvalues in
log-polar form through a periodic QR iteration, neither of which forms the
product itself.  The iteration's first sweep factors T = Q_n R_n ... R_1,
so the spectrum (LogEigenvalues, which also carries the exponents xi_k,
the chain and E) carries det T_11 from that sweep as well.  The moduli of
the cyclic block-companion embedding (cyclic_log_moduli) are kept as the
test oracle of the eigenvalues; no run-time route calls it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .chains import BlockChain
from .linalg import (EigenConvergenceError, LogDet, SingularMatrixError,
                     lu_logdet, wrap_phase)

#: steps between re-orthogonalizations of the accumulated product
K_QR = 8
#: graded Jacobi: a column pair with |overlap| at most this is orthogonal
TOL_JACOBI = 1e-15
#: graded Jacobi: sweeps before the orthogonalization is refused
MAX_JACOBI_SWEEPS = 40

#: periodic QR: a boundary has converged once its defect is at most this
TOL_BOUNDARY = 1e-12
#: periodic QR: a boundary has stalled once two consecutive sweeps each
#: shrink its defect less than this factor
STALL_FACTOR = 100.0
#: periodic QR: sweeps before the converged boundaries are taken as they stand
MAX_SWEEPS = 32


class ProductOverflowError(FloatingPointError):
    """The plain product left the range of double precision."""


def steps(chain: BlockChain, energy: complex) -> np.ndarray:
    """All one-step matrices, shape (n, 2m, 2m): out[k] is t_{k+1}(E)."""
    n, m = chain.n, chain.m
    out = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    # two solves, not one over [E - A | -C]: the fused solve rounds differently
    out[:, :m, :m] = np.linalg.solve(chain.b, energy * np.eye(m) - chain.a)
    out[:, :m, m:] = -np.linalg.solve(chain.b, chain.c)
    out[:, m:, :m] = np.eye(m)
    return out


def product(chain: BlockChain, energy: complex,
            step_mats: np.ndarray | None = None) -> np.ndarray:
    """Plain ordered product T(E) = t_n ... t_1, a 2m x 2m array.

    ``step_mats`` may pass steps(chain, energy) when the caller already
    built them.  Raises ProductOverflowError if an intermediate product
    leaves double range; use the stabilized routes in that regime.
    """
    if step_mats is None:
        step_mats = steps(chain, energy)
    total = np.eye(2 * chain.m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in step_mats:
            total = step @ total
        # inf and nan never turn finite again (inf*x, 0*inf, inf - inf), so
        # a finite total means no step overflowed; otherwise name the first
        if np.isfinite(total).all():
            return total
        partial = np.eye(2 * chain.m, dtype=complex)
        for k, step in enumerate(step_mats, start=1):
            partial = step @ partial
            if not np.isfinite(partial).all():
                break
    raise ProductOverflowError(f"transfer product overflowed at step {k} of {chain.n}")


# ---------------------------------------------------------------------------
# stabilized singular values: graded one-sided Jacobi accumulation

def _orthogonalize_graded(cols: np.ndarray, logs: np.ndarray) -> None:
    """One-sided Jacobi on the matrix with j-th column cols[:, j]*exp(logs[j]).

    Works in place.  Columns are kept unit norm with the true norms carried
    in ``logs``, so the dynamic range of the represented matrix is
    unlimited.  On return the represented columns are mutually orthogonal,
    i.e. logs holds the log singular values (unsorted).
    """
    d = cols.shape[1]
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for i in range(d):
            for j in range(i + 1, d):
                if logs[i] < logs[j]:
                    cols[:, [i, j]] = cols[:, [j, i]]
                    logs[[i, j]] = logs[[j, i]]
                overlap = complex(np.vdot(cols[:, i], cols[:, j]))
                if abs(overlap) <= TOL_JACOBI:
                    continue
                rotated = True
                r = math.exp(min(logs[j] - logs[i], 0.0))  # <= 1, may underflow to 0
                ac = abs(overlap)
                phase = overlap / ac  # e^{i psi}
                # real rotation angle for the dephased scaled Gram
                # [[1, ac*r], [ac*r, r^2]]; t/r stays well defined when r
                # underflows (limit t/r -> ac)
                denom = (1.0 - r * r) / (2.0 * ac) \
                    + math.sqrt(r * r + (1.0 - r * r) ** 2 / (4.0 * ac * ac))
                t_over_r = 1.0 / denom
                t = t_over_r * r
                c_t = 1.0 / math.sqrt(1.0 + t * t)
                # both new columns are formed before either is written back;
                # the norms are the sums numpy.linalg.norm computes
                # large column: an O(t*r) correction keeps it large
                v = cols[:, i] + (t * r / phase) * cols[:, j]
                nv = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
                # small column: O(1) direction change, log moves by log(c_t*|u|)
                u = cols[:, j] - (t_over_r * phase) * cols[:, i]
                nu = math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag))
                if nu <= 1e-14 or nv <= 1e-14:
                    raise EigenConvergenceError(
                        "graded Jacobi lost a direction: columns collapsed "
                        "numerically; re-orthogonalize more often")
                cols[:, i] = v / nv
                cols[:, j] = u / nu
                logs[i] += math.log(c_t * nv)
                logs[j] += math.log(c_t * nu)
        if not rotated:
            return
    raise EigenConvergenceError("graded Jacobi orthogonalization did not converge")


def stabilized_log_singular_values(chain: BlockChain, energy: complex,
                                   k_qr: int = K_QR) -> np.ndarray:
    """log of the singular values of T(E), descending, without forming T.

    The product is carried as (unit columns, log column norms) and
    re-orthogonalized every ``k_qr`` steps, so results stay accurate for
    dynamic ranges far beyond double precision.
    """
    if k_qr < 1:
        raise ValueError("k_qr must be positive")
    d = 2 * chain.m
    cols = np.eye(d, dtype=complex)
    logs = np.zeros(d)
    # normalized columns all grow at the top rate, so collapse shows up as
    # inter-column overlap, not as norm spread; orthogonalize early once any
    # pair leans together, before the small directions drown in roundoff
    overlap_cap = 0.999
    for k, step in enumerate(steps(chain, energy), start=1):
        cols = step @ cols
        # the column norms as numpy.linalg.norm(cols, axis=0) computes them
        norms = np.sqrt(np.add.reduce((cols.conj() * cols).real, axis=0))
        # a nan norm fails the first test
        if not (norms.min() > 0.0 and norms.max() < math.inf):
            raise SingularMatrixError(
                f"transfer step {k} annihilated a direction; chain is degenerate")
        cols /= norms
        logs += np.log(norms)
        if k % k_qr == 0:
            _orthogonalize_graded(cols, logs)
        else:
            gram = np.abs(cols.conj().T @ cols)
            np.fill_diagonal(gram, 0.0)
            if float(gram.max()) > overlap_cap:
                _orthogonalize_graded(cols, logs)
    _orthogonalize_graded(cols, logs)
    return np.sort(logs)[::-1]


# ---------------------------------------------------------------------------
# stabilized eigenvalues: periodic QR, cyclic block-companion embedding

@dataclass(frozen=True)
class LogEigenvalues:
    """Eigenvalues of T(E) in log-polar form, and the exponents they define.

    log_abs[k] + i*phase[k] is one value of log z_k; ``xi`` is the exponent
    vector log|z_k| / n and ``sum`` its sum.  ``chain`` and ``energy`` are
    the (chain, E) it was computed at, so a check that reads the spectrum
    reads both from it.  ``det_t11`` is det T(E)_11, taken from the first
    sweep.  ``sweeps`` counts the periodic QR sweeps run.
    """

    log_abs: np.ndarray
    phase: np.ndarray
    chain: BlockChain = field(repr=False)
    energy: complex
    det_t11: LogDet
    sweeps: int = 0

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def m(self) -> int:
        return self.chain.m

    @property
    def xi(self) -> np.ndarray:
        return self.log_abs / self.n

    @property
    def sum(self) -> float:
        return float(math.fsum(self.xi))

    def values(self) -> np.ndarray:
        """Complex eigenvalues; overflow saturates to inf, underflow to 0."""
        out = np.empty(len(self.log_abs), dtype=complex)
        for i, (la, ph) in enumerate(zip(self.log_abs, self.phase)):
            if la > 709.0:
                out[i] = complex(math.inf, 0.0)
            else:
                out[i] = cmath.exp(complex(la, ph))
        return out


def _periodic_sweep(step_mats: np.ndarray, q0: np.ndarray):
    """Solve t_k Q_{k-1} = Q_k R_k for k = 1..n; returns (Q_n, [R_k]).

    Calls LAPACK geqrf/ungqr directly (the factorization numpy.linalg.qr
    runs) to skip its per-call overhead, which dominates at 2m x 2m.
    Raises ProductOverflowError if a product t_k Q_{k-1} leaves double
    range.
    """
    geqrf, ungqr = scipy.linalg.get_lapack_funcs(("geqrf", "ungqr"), (step_mats,))
    factors = np.empty((len(step_mats), *q0.shape), dtype=step_mats.dtype)
    q = q0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, step in enumerate(step_mats):
            factors[k], tau, _, _ = geqrf(step @ q)
            q, _, _ = ungqr(factors[k], tau)
    # a non-finite factor carries on into every later one: name the first
    finite = np.isfinite(factors).all(axis=(1, 2))
    if not finite.all():
        raise ProductOverflowError(
            f"periodic QR left double range at step {int(np.argmin(finite)) + 1} "
            f"of {len(step_mats)}")
    return q, np.triu(factors)


def _group_log_eigenvalues(closing: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """log of the eigenvalues of closing @ R_n ... R_1, all square blocks.

    The product is renormalized after every factor with its scale kept in
    log form, so it never leaves double range.
    """
    total = np.eye(closing.shape[0], dtype=complex)
    log_scale = 0.0
    for r in rs:
        total = r @ total
        norm = np.linalg.norm(total)
        total /= norm
        log_scale += np.log(norm)
    return np.log(np.linalg.eigvals(closing @ total)) + log_scale


def eigenvalues_stabilized(chain: BlockChain, energy: complex) -> LogEigenvalues:
    """Eigenvalues of T(E) in log-polar form by periodic QR, O(n m^3).

    Each sweep runs one QR per site on 2m x 2m matrices and restarts from
    the last Q_n, so Q_0^H T Q_0 = (Q_0^H Q_n) R_n ... R_1 tends to upper
    triangular form, as in the unshifted QR algorithm, but without forming
    T.  Boundary p has the defect max|(Q_0^H Q_n)[p:, :p]|; it converges at
    rate |z_{p+1} / z_p| per sweep, so moduli separated by e^{n dxi} settle
    within a few sweeps.  A boundary has stalled once two consecutive
    sweeps each shrank its defect less than STALL_FACTOR (equal or close
    moduli, such as unit-circle pairs).  Sweeping stops once every boundary
    has converged or stalled, or after MAX_SWEEPS.

    The last sweep is then split at its converged boundaries only: there
    (Q_0^H Q_n) R_n ... R_1 is block upper triangular up to rounding, so
    each diagonal block holds eigenvalues of T whatever the stall rule
    decided.  A single eigenvalue comes from the diagonals of the R_k and
    of Q_0^H Q_n, a group from its normalized block product.  Logs and
    angles are summed, so nothing overflows at any chain length.  The
    cyclic embedding (cyclic_log_moduli) is a test oracle only, never a
    fallback; a non-finite value raises EigenConvergenceError, and a sweep
    that leaves double range ProductOverflowError naming E and the step.
    The first sweep, from Q_0 = I, also gives det T_11 (the det_t11 field).
    """
    step_mats = steps(chain, energy)
    m, d = chain.m, 2 * chain.m
    q0 = np.eye(d, dtype=complex)
    previous = np.full(d - 1, np.inf)
    was_slow = np.zeros(d - 1, dtype=bool)
    for sweep in range(1, MAX_SWEEPS + 1):
        try:
            qn, rs = _periodic_sweep(step_mats, q0)
        except ProductOverflowError as exc:
            raise ProductOverflowError(f"{exc} at E={complex(energy)!r}") from None
        if sweep == 1:
            # Q_0 = I: det T_11 = det Q_n[:m, :m] times the R_k[:m, :m] diagonals
            diag = np.diagonal(rs[:, :m, :m], axis1=1, axis2=2)
            with np.errstate(divide="ignore"):
                log_r = float(np.sum(np.log(np.abs(diag))))
            det_t11 = lu_logdet(qn[:m, :m]) * LogDet(
                log_r, wrap_phase(float(np.sum(np.angle(diag)))))
        closing = q0.conj().T @ qn
        defect = np.array([np.max(np.abs(closing[p:, :p])) for p in range(1, d)])
        converged = defect <= TOL_BOUNDARY
        # one slow sweep can be a transient; two in a row are a stall
        is_slow = defect * STALL_FACTOR > previous
        if (converged | (was_slow & is_slow)).all():
            break
        previous, was_slow, q0 = defect, is_slow, qn
    cuts = [0, *(p for p in range(1, d) if converged[p - 1]), d]
    logs = []
    # a zero or non-finite value turns into a non-finite log, refused below
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo == 1:
                # log z = sum_k log R_k[p, p] + log (Q_0^H Q_n)[p, p]
                logs.append([np.sum(np.log(np.append(rs[:, lo, lo], closing[lo, lo])))])
                continue
            logs.append(_group_log_eigenvalues(closing[lo:hi, lo:hi],
                                               rs[:, lo:hi, lo:hi]))
    logs = np.concatenate(logs)
    if not np.all(np.isfinite(logs)):
        raise EigenConvergenceError(
            f"periodic QR gave a non-finite log eigenvalue for the n={chain.n}, "
            f"m={chain.m} chain at E={complex(energy)!r} after {sweep} sweeps")
    la = logs.real
    ph = np.array([wrap_phase(p) for p in logs.imag])
    order = np.lexsort((ph, -la))
    return LogEigenvalues(log_abs=la[order], phase=ph[order], chain=chain,
                          energy=complex(energy), det_t11=det_t11, sweeps=sweep)


def cyclic_log_moduli(chain: BlockChain, energy: complex) -> np.ndarray:
    """log|z_k| of the eigenvalues of T(E), descending, via the cyclic embedding.

    The block-cyclic matrix with the t_k on its sub-diagonal has
    eigenvalues mu with mu^n running over sp(T), each picked up n times, so
    the sorted n log|mu| fall into 2m runs of n replicas of one log|z_k|
    each; each run's mean is returned.  Entries stay O(max ||t_k||) at any
    chain length, so the moduli keep uniform accuracy where the plain
    product would overflow.  The dense eigensolve costs O((nm)^3): this is
    the test oracle of eigenvalues_stabilized, which never calls it.
    """
    n, d = chain.n, 2 * chain.m
    big = np.zeros((n * d, n * d), dtype=complex)
    k = np.arange(n)
    # block (k + 1 mod n, k) holds t_{k+1}
    big.reshape(n, d, n, d)[(k + 1) % n, :, k, :] = steps(chain, energy)
    log_abs = n * np.log(np.abs(np.linalg.eigvals(big)))
    return np.sort(log_abs).reshape(d, n).mean(axis=1)[::-1]


# ---------------------------------------------------------------------------
# polynomial structure in E

def polynomial_coefficients(chain: BlockChain) -> list[np.ndarray]:
    """Matrix coefficients T_0..T_n of T(E) = sum_p T_p E^p.

    Entries of T(E) are polynomials in E of degree at most n, so
    interpolation on n+1 Chebyshev points is exact.  Intended for
    degree checks on short chains; cost grows with the usual
    ill-conditioning of high-degree interpolation.
    """
    degree = chain.n
    d = 2 * chain.m
    nodes = np.cos(np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1)))
    samples = np.stack([product(chain, complex(x)) for x in nodes])
    flat = samples.reshape(degree + 1, d * d)
    fitted = np.polynomial.chebyshev.chebfit(nodes, flat, deg=degree)
    # cheb2poly trims trailing zeros, so pad every column back to full length
    power = np.zeros((degree + 1, d * d), dtype=complex)
    for col in range(d * d):
        coeffs = np.polynomial.chebyshev.cheb2poly(fitted[:, col])
        power[:len(coeffs), col] = coeffs
    return [power[p].reshape(d, d) for p in range(degree + 1)]
