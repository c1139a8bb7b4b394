"""Radial exponents of the transfer spectrum and their integral identities.

The 2m eigenvalues z_k(E) of T(E) define exponents xi_k = log|z_k| / n;
exponent_spectrum returns both as one transfer.LogEigenvalues, which also
carries its chain and E (jensen_identity_check reads both from it), and
sum_rule_value gives their exact sum from the hopping blocks alone.
These are finite-chain objects tied to one realization; they are not the
Lyapunov exponents of an infinite chain, although they converge to them
in distribution for self-averaging models.  Everything here is exact at
finite n:

* sum rule: sum_k xi_k = (1/n) sum_j (log|det C_j| - log|det B_j|);
* the Jensen identity relating the exponents below a contour xi to the
  flux average of log|det[H(e^{n xi + i phi}) - E]|;
* its xi = 0 corollary for the sum of positive exponents;
* the counting function N(xi, E) and a Hadamard-Fischer upper bound.

Quadratures are periodic trapezoid sums, spectrally accurate because the
integrand is analytic in phi whenever the contour stays away from the
exponents; their node values come from 2m + 1 ring determinants, whatever
the node count (see _flux_values).  Sums over nodes use math.fsum, which
rounds only once, so results are independent of summation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chains import BlockChain
from .hamiltonian import ring_band
from .linalg import logdet_blocks, report_fields
from .transfer import LogEigenvalues, eigenvalues_stabilized

#: minimum distance of an integration contour from any exponent
DELTA_EDGE = 1e-6

#: default number of flux quadrature nodes
QUAD_POINTS = 256


class ContourTooCloseError(ValueError):
    """The requested contour xi runs through (or hugs) an exponent."""

    def __init__(self, message: str, suggested_xi: float):
        super().__init__(message)
        self.suggested_xi = suggested_xi


class UnitCircleEigenvalueError(ValueError):
    """A transfer eigenvalue sits on the unit circle, |z_k| = 1."""


def sum_rule_value(chain: BlockChain) -> float:
    """(1/n) sum_j (log|det C_j| - log|det B_j|), the exact sum of xi_k."""
    return (logdet_blocks(chain.c) / logdet_blocks(chain.b)).log_modulus / chain.n


def exponent_spectrum(chain: BlockChain, energy: complex) -> LogEigenvalues:
    """The transfer spectrum with its 2m exponents ``xi``, descending, by
    periodic QR (eigenvalues_stabilized), O(n m^3) at every size."""
    return eigenvalues_stabilized(chain, energy)


def _flux_values(chain: BlockChain, energy: complex, xi: float,
                 quad_points: int) -> list[float]:
    """log|det[H(e^{n xi + i phi_j}) - E]| at phi_j = 2 pi j / quad_points.

    z enters H(z) only through the m x m corner blocks C_1/z and z*B_n, so
    det[E - H(z)] is a Laurent polynomial in z of degree m each way and, on
    the contour, a trigonometric polynomial of degree m in phi.  Its values
    at the 2m + 1 angles 2 pi k / (2m + 1), each one folded band LU of the
    balanced ring (see ring_band), fix its coefficients through one DFT;
    the node values are those 2m + 1 terms summed, exact up to rounding
    whatever quad_points is.  The samples are scaled by their largest
    modulus first, so no value overflows.  The trapezoid rule (the mean of
    the node values) on this periodic analytic integrand converges
    geometrically to the flux average.
    """
    n, m = chain.n, chain.m
    # the node arrays come first, so a quad_points beyond memory fails at once
    phis = 2.0 * math.pi * np.arange(quad_points) / quad_points
    values = np.empty(quad_points, dtype=complex)
    band = ring_band(chain, energy)
    size = 2 * m + 1
    thetas = 2.0 * math.pi * np.arange(size) / size
    samples = [band.logdet(cmath.exp(complex(xi, theta / n))) for theta in thetas.tolist()]
    top = max(s.log_modulus for s in samples)
    if top == -math.inf:
        raise ContourTooCloseError(
            "det[H - E] vanished at every sample on the contour; "
            "shift xi away from an exponent", suggested_xi=xi + 10 * DELTA_EDGE)
    scaled = np.array([cmath.exp(complex(s.log_modulus - top, s.phase)) for s in samples])
    # the DFT by its size x size matrix: numpy.fft's first call would add
    # about 0.3 MB to the peak memory of a process
    coeffs = np.exp(-1j * np.outer(np.arange(size), thetas)) @ scaled / size
    values.fill(coeffs[0])
    for k in range(1, m + 1):
        wave = np.exp(1j * k * phis)
        values += coeffs[k] * wave
        values += coeffs[-k] * wave.conj()
    zero = np.flatnonzero(values == 0)
    if zero.size:
        raise ContourTooCloseError(
            f"det[H - E] vanished on the contour at phi={phis[zero[0]]:.6f}; "
            f"shift xi away from an exponent", suggested_xi=xi + 10 * DELTA_EDGE)
    return (np.log(np.abs(values)) + top).tolist()


def _guard_contour(spectrum: LogEigenvalues, xi: float) -> None:
    gaps = np.abs(spectrum.xi - xi)
    if gaps.size and float(gaps.min()) < DELTA_EDGE:
        offender = int(np.argmin(gaps))
        xs = np.sort(spectrum.xi)
        # suggest the midpoint of the widest nearby gap
        candidates = [xi + 0.5, xi - 0.5]
        for lo, hi in zip(xs[:-1], xs[1:]):
            if hi - lo > 4 * DELTA_EDGE:
                candidates.append(0.5 * (lo + hi))
        best = min(candidates, key=lambda c: abs(c - xi)
                   if np.abs(spectrum.xi - c).min() > 2 * DELTA_EDGE else math.inf)
        raise ContourTooCloseError(
            f"contour xi={xi!r} is within {DELTA_EDGE} of exponent "
            f"xi_{offender}={spectrum.xi[offender]!r}", suggested_xi=float(best))


@dataclass(frozen=True)
class JensenReport:
    """Both sides of the Jensen identity at contour xi."""

    energy: complex
    xi: float
    lhs: float
    rhs: float
    residual: float
    quad_points: int
    convergence_estimate: float
    margin: float

    to_dict = report_fields


def jensen_identity_check(spectrum: LogEigenvalues, xi: float,
                          quad_points: int = QUAD_POINTS) -> JensenReport:
    """Evaluate both sides of

        (1/m) sum_{xi_k < xi} (xi - xi_k) - xi
            = (1/(m n)) <log|det[H(e^{n xi + i phi}) - E]|>_phi
              - (1/(m n)) sum_j log|det C_j|

    at the (chain, E) of ``spectrum``.  The convergence estimate compares
    the rule with its half-node rule, whose nodes are every other node of
    the full rule.
    """
    if quad_points < 8 or quad_points % 2:
        raise ValueError("quad_points must be even and at least 8")
    chain, energy = spectrum.chain, spectrum.energy
    n, m = chain.n, chain.m
    _guard_contour(spectrum, xi)
    margin = float(np.min(np.abs(spectrum.xi - xi)))
    below = spectrum.xi[spectrum.xi < xi]
    lhs = math.fsum(float(xi - x) for x in below) / m - xi
    log_c = logdet_blocks(chain.c).log_modulus
    values = _flux_values(chain, energy, xi, quad_points)
    full = math.fsum(values) / quad_points
    half = math.fsum(values[::2]) / (quad_points // 2)
    rhs = full / (m * n) - log_c / (m * n)
    rhs_half = half / (m * n) - log_c / (m * n)
    return JensenReport(energy=energy, xi=float(xi), lhs=lhs, rhs=rhs,
                        residual=abs(lhs - rhs), quad_points=quad_points,
                        convergence_estimate=abs(rhs - rhs_half), margin=margin)


def positive_exponent_sum(chain: BlockChain, energy: complex,
                          quad_points: int = QUAD_POINTS) -> float:
    """sum_{xi_k > 0} xi_k via the unit-circle flux average:

        (1/n) <log|det[H(e^{i theta}) - E]|>_theta - (1/n) log|det B_1..B_n|.

    Requires the unit circle free of transfer eigenvalues; the offender is
    named otherwise.
    """
    spectrum = exponent_spectrum(chain, energy)
    k = int(np.argmin(np.abs(spectrum.xi)))
    if abs(spectrum.xi[k]) < DELTA_EDGE:
        raise UnitCircleEigenvalueError(
            f"transfer eigenvalue z_{k} with log|z|={spectrum.log_abs[k]:.3e}, "
            f"phase={spectrum.phase[k]:.6f} lies on the unit circle; the "
            "corollary needs |z_k| != 1 for all k")
    average = math.fsum(_flux_values(chain, energy, 0.0, quad_points)) / quad_points
    return average / chain.n - logdet_blocks(chain.b).log_modulus / chain.n


def counting_function(chain: BlockChain, energy: complex, xi: float) -> int:
    """N(xi, E): number of exponents strictly below xi."""
    spectrum = exponent_spectrum(chain, energy)
    _guard_contour(spectrum, xi)
    return int(np.sum(spectrum.xi < xi))


@dataclass(frozen=True)
class HadamardFisherReport:
    """The exponent partial sum against its concavity bound."""

    energy: complex
    xi: float
    lhs: float
    rhs: float
    slack: float
    passed: bool

    to_dict = report_fields


def hadamard_fisher_bound(chain: BlockChain, energy: complex,
                          xi: float) -> HadamardFisherReport:
    """Check sum_k (xi - xi_k) theta(xi - xi_k) - m xi against

        (1/(2n)) sum_k log det[(A_k^dag - Ebar)(A_k - E)
                               + e^{2 xi} B_k^dag B_k + e^{-2 xi} C_k^dag C_k]
        - (1/n) sum_j log|det C_j|.
    """
    n, m = chain.n, chain.m
    spectrum = exponent_spectrum(chain, energy)
    lhs = math.fsum(float(xi - x) for x in spectrum.xi if x < xi) - m * xi

    def gram(x):
        return np.swapaxes(x.conj(), 1, 2) @ x

    # all n site grams stacked, one batched determinant
    grams = (gram(chain.a - energy * np.eye(m)) + math.exp(2.0 * xi) * gram(chain.b)
             + math.exp(-2.0 * xi) * gram(chain.c))
    rhs = (logdet_blocks(grams).log_modulus / (2.0 * n)
           - logdet_blocks(chain.c).log_modulus / n)
    slack = rhs - lhs
    return HadamardFisherReport(energy=complex(energy), xi=float(xi),
                                lhs=lhs, rhs=rhs, slack=slack,
                                passed=bool(slack >= -1e-9 * max(1.0, abs(rhs))))


def exponent_csv(spectrum: LogEigenvalues, stream) -> None:
    """Write the spectrum as CSV: k, re_z, im_z, xi, pair_id (always -1).

    Values of z beyond double range are written as their log-polar parts
    in the extra columns and the sentinel 'overflow' in re_z/im_z.
    """
    stream.write("# blockflow-csv v1\n")
    stream.write("k,re_z,im_z,xi,pair_id,log_abs_z,arg_z\n")
    for k in range(len(spectrum.xi)):
        la, ph = float(spectrum.log_abs[k]), float(spectrum.phase[k])
        if abs(la) > 700.0:
            re_s, im_s = "overflow", "overflow"
        else:
            z = cmath.exp(complex(la, ph))
            re_s, im_s = repr(z.real), repr(z.imag)
        stream.write(f"{k},{re_s},{im_s},{float(spectrum.xi[k])!r},-1,{la!r},{ph!r}\n")
