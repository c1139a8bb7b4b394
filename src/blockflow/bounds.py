"""Decay bounds for block tridiagonal inverses and the singular value
dichotomy of long transfer products.

For a positive definite banded matrix with spectrum inside [a, b], the
Chebyshev approximation of 1/x on [a, b] gives entrywise decay of the
inverse with ratio

    q = (sqrt(b) - sqrt(a)) / (sqrt(b) + sqrt(a)),
    C = (sqrt(b) + sqrt(a))^2 / (2 a b),

and a general invertible matrix inherits the square-root rate q^{1/2}
through A A^dag, with a = sigma_min^2 and b = sigma_max^2 of A.
Equivalent parameterization: q = (cond-1)/(cond+1),
C = (cond+1)^2 / (2 ||A||^2).

Applied to h - E this controls the resolvent corners, hence T(E)_11
through (T_11)^{-1} = -g_1n B_n, and yields the dichotomy: beyond a
crossover length the transfer matrix has exactly m singular values above
q^{-n/2}/K and m below K q^{n/2} with

    K = m ||B_n|| C (||A_1 - E|| + ||B_1||) q^{-3/2}.

When h is exactly Hermitian (A_k = A_k^dag and C_{k+1} = B_k^dag for
k < n, bit for bit), h - E is normal, so its singular values are exactly
|lambda_i(h) - E|.  The interval then comes from the eigenvalues of h by
LAPACK's Hermitian band solver on the band h already has: O((nm)^2 m)
time and O(n m^2) memory, with no dense matrix.  That solver is backward
stable, so by Weyl's
theorem each computed lambda is within c eps ||h|| of the exact one: the
accuracy class of the dense SVD, whose sigma are within c eps ||h - E||.
Every other chain, including one Hermitian only up to rounding, takes
the dense SVD of h - E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chains import BlockChain
from .hamiltonian import assemble_open, open_band
from .linalg import as_matrix, report_fields, singular_values
from .resolvent import corner_blocks, transfer_from_resolvent
from .transfer import stabilized_log_singular_values


@dataclass(frozen=True)
class DemkoParams:
    """Decay parameters (q, C) with the interval [a, b] they came from."""

    q: float
    c: float
    a: float
    b: float

    def to_dict(self) -> dict:
        return {"q": self.q, "C": self.c, "a": self.a, "b": self.b}


def demko_params_pd(a: float, b: float) -> DemkoParams:
    """Parameters for the positive definite case, spectrum in [a, b]."""
    if not (0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    sa, sb = math.sqrt(a), math.sqrt(b)
    q = (sb - sa) / (sb + sa)
    c = (sb + sa) ** 2 / (2.0 * a * b)
    return DemkoParams(q=q, c=c, a=a, b=b)


def demko_params_general(matrix) -> DemkoParams:
    """Parameters for an invertible matrix via its singular interval.

    Uses a = sigma_min^2, b = sigma_max^2; by construction this agrees
    with q = (cond-1)/(cond+1) and C = (cond+1)^2/(2 ||A||^2).
    """
    s = singular_values(as_matrix(matrix))
    return _params_from_singular_interval(float(s[-1]), float(s[0]))


def _params_from_singular_interval(s_min: float, s_max: float) -> DemkoParams:
    """demko_params_pd on [s_min^2, s_max^2], refusing a singular matrix
    and constants that leave double range."""
    if s_min == 0.0:
        raise ValueError("matrix is singular; no decay parameters exist")
    try:
        params = demko_params_pd(s_min ** 2, s_max ** 2)
    except OverflowError:
        params = None
    # C = (sqrt b + sqrt a)^2 / (2ab) reads 0 once 2ab overflows, and q
    # rounds to 0 once sigma_max / sigma_min is 1 to the last bit, which
    # far from the spectrum happens before that
    if params is None or params.c == 0.0 or params.q == 0.0:
        raise ValueError(f"Demko parameters leave double range: sigma_min = "
                         f"{s_min:.3e}, sigma_max = {s_max:.3e}")
    return params


def _shifted_params(chain: BlockChain, energy: complex) -> DemkoParams:
    """Demko parameters of h - E: from the band spectrum of h when h is
    exactly Hermitian, else demko_params_general on the dense h - E."""
    energy = complex(energy)
    a_dag = np.swapaxes(chain.a.conj(), 1, 2)
    b_dag = np.swapaxes(chain.b[:-1].conj(), 1, 2)
    if not (np.array_equal(chain.a, a_dag) and np.array_equal(chain.c[1:], b_dag)):
        return demko_params_general(
            assemble_open(chain) - energy * np.eye(chain.n * chain.m))
    ab, kl, ku = open_band(chain, 0.0)
    # rows kl..kl+ku hold the upper band of -h in the layout hbevd reads
    upper = -ab[kl:kl + ku + 1]
    if not upper.imag.any():
        upper = upper.real
    eigs = scipy.linalg.eigvals_banded(upper, lower=False, check_finite=False)
    dist = np.abs(eigs - energy)
    return _params_from_singular_interval(float(dist.min()), float(dist.max()))


@dataclass(frozen=True)
class PDDecayReport:
    """Entrywise check of |A^{-1}[i,j]| <= C q^{|i-j|} (1/a on the diagonal)."""

    params: DemkoParams
    n: int
    m: int
    max_ratio: float
    min_slack: float
    violations: int
    passed: bool

    to_dict = report_fields


def check_pd_decay(matrix, block_size: int) -> PDDecayReport:
    """Verify the positive definite decay bound entrywise.

    ``matrix`` must be Hermitian positive definite and block tridiagonal
    with the given block size; the dense inverse is formed deliberately
    (this is a verification routine, not a production solver).
    """
    mat = as_matrix(matrix)
    size = mat.shape[0]
    if size % block_size:
        raise ValueError("matrix size not a multiple of block_size")
    n = size // block_size
    scale = float(np.max(np.abs(mat)))
    if float(np.max(np.abs(mat - mat.conj().T))) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian")
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                blk = mat[i * block_size:(i + 1) * block_size,
                          j * block_size:(j + 1) * block_size]
                if np.any(blk != 0):
                    raise ValueError("matrix is not block tridiagonal")
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] <= 0:
        raise ValueError(f"matrix is not positive definite (lambda_min={eigs[0]:.3e})")
    params = demko_params_pd(float(eigs[0]), float(eigs[-1]))
    inv = np.linalg.inv(mat)
    max_ratio = 0.0
    min_slack = math.inf
    violations = 0
    for i in range(n):
        for j in range(n):
            blk = np.max(np.abs(inv[i * block_size:(i + 1) * block_size,
                                    j * block_size:(j + 1) * block_size]))
            bound = (1.0 / params.a) if i == j else params.c * params.q ** abs(i - j)
            if bound > 0:
                max_ratio = max(max_ratio, float(blk) / bound)
            min_slack = min(min_slack, bound - float(blk))
            if blk > bound * (1.0 + 1e-12):
                violations += 1
    return PDDecayReport(params=params, n=n, m=block_size,
                         max_ratio=max_ratio, min_slack=float(min_slack),
                         violations=violations, passed=violations == 0)


@dataclass(frozen=True)
class CornerDecayReport:
    """The resolvent corner bounds at one (chain, E)."""

    params: DemkoParams
    n: int
    corner_1n: float
    corner_n1: float
    bound_1n: float
    bound_n1: float
    measured_rate: float
    bound_rate: float
    passed: bool

    to_dict = report_fields


def check_corner_decay(chain: BlockChain, energy: complex) -> CornerDecayReport:
    """Check the corner bounds of g = (h - E)^{-1}:

        |g[1,n]| <= C (||A_1 - E|| + ||B_1||) q^{(n-3)/2},
        |g[n,1]| <= C (||A_n - E|| + ||C_n||) q^{(n-3)/2},

    entrywise over the m x m corner blocks.  measured_rate is
    (1/n) log max|g corner entry|, to be held against
    bound_rate = (1/2) log q.
    """
    n, m = chain.n, chain.m
    params = _shifted_params(chain, energy)
    corners = corner_blocks(chain, energy)
    eye = np.eye(m)
    norm_a1 = float(np.linalg.norm(chain.a[0] - energy * eye, 2))
    norm_an = float(np.linalg.norm(chain.a[n - 1] - energy * eye, 2))
    norm_b1 = float(np.linalg.norm(chain.b[0], 2))
    norm_cn = float(np.linalg.norm(chain.c[n - 1], 2))
    decay = params.q ** ((n - 3) / 2.0)
    bound_1n = params.c * (norm_a1 + norm_b1) * decay
    bound_n1 = params.c * (norm_an + norm_cn) * decay
    corner_1n = float(np.max(np.abs(corners.g1n)))
    corner_n1 = float(np.max(np.abs(corners.gn1)))
    worst = max(corner_1n, corner_n1)
    # log 0 = -inf when both corners underflow to 0
    measured_rate = math.log(worst) / n if worst > 0 else -math.inf
    bound_rate = 0.5 * math.log(params.q)
    return CornerDecayReport(params=params, n=n,
                             corner_1n=corner_1n, corner_n1=corner_n1,
                             bound_1n=bound_1n, bound_n1=bound_n1,
                             measured_rate=measured_rate, bound_rate=bound_rate,
                             passed=bool(corner_1n <= bound_1n
                                         and corner_n1 <= bound_n1))


@dataclass(frozen=True)
class DichotomyReport:
    """Singular values of T(E) against the two dichotomy thresholds.

    Thresholds are carried in log form; the float fields saturate to
    inf / 0 when out of double range.  ``max_slack`` is the smaller of the
    two log-distances separating the top m and bottom m singular values
    from their thresholds: positive exactly when the counts are (m, m, 0).
    """

    n: int
    m: int
    q: float
    c: float
    k_const: float
    log_threshold_high: float
    log_threshold_low: float
    log_singulars: np.ndarray
    count_above: int
    count_below: int
    count_middle: int
    max_slack: float

    @property
    def threshold_high(self) -> float:
        return math.exp(self.log_threshold_high) if self.log_threshold_high < 709 else math.inf

    @property
    def threshold_low(self) -> float:
        return math.exp(self.log_threshold_low) if self.log_threshold_low > -745 else 0.0

    def to_dict(self) -> dict:
        return {"q": self.q, "C": self.c, "K": self.k_const, "n": self.n,
                "m": self.m,
                "thresholds": {"log_high": self.log_threshold_high,
                               "log_low": self.log_threshold_low},
                "counts": {"above": self.count_above, "below": self.count_below,
                           "middle": self.count_middle},
                "log_singulars": self.log_singulars,
                "max_slack": self.max_slack}


def dichotomy(chain: BlockChain, energy: complex,
              params: DemkoParams | None = None) -> DichotomyReport:
    """Count singular values of T(E) against q^{-n/2}/K and K q^{n/2}.

    ``params`` may pass the decay parameters of h - E when the caller
    already computed them for (chain, E), as check_corner_decay does.
    """
    n, m = chain.n, chain.m
    if params is None:
        params = _shifted_params(chain, energy)
    eye = np.eye(m)
    k_const = (m * float(np.linalg.norm(chain.b[n - 1], 2)) * params.c
               * (float(np.linalg.norm(chain.a[0] - energy * eye, 2))
                  + float(np.linalg.norm(chain.b[0], 2)))
               * params.q ** -1.5)
    log_q = math.log(params.q)
    log_hi = -(n / 2.0) * log_q - math.log(k_const)
    log_lo = math.log(k_const) + (n / 2.0) * log_q
    logs = stabilized_log_singular_values(chain, energy)
    # below short crossover lengths the thresholds cross; keep the counts a
    # partition by binning as above first
    mask_above = logs > log_hi
    mask_below = (logs < log_lo) & ~mask_above
    above = int(mask_above.sum())
    below = int(mask_below.sum())
    middle = len(logs) - above - below
    max_slack = min(float(logs[m - 1]) - log_hi, log_lo - float(logs[m]))
    return DichotomyReport(n=n, m=m, q=params.q, c=params.c, k_const=k_const,
                           log_threshold_high=log_hi, log_threshold_low=log_lo,
                           log_singulars=logs, count_above=above,
                           count_below=below, count_middle=middle,
                           max_slack=max_slack)


def t11_singular_floor(chain: BlockChain, energy: complex) -> dict:
    """Check min theta_k >= q^{-n/2}/K for the singular values theta of T_11.

    T_11 is taken from the resolvent route, theta from its dense SVD.
    Returns the measured values in log form along with the floor.
    """
    report = dichotomy(chain, energy)
    m = chain.m
    theta = singular_values(transfer_from_resolvent(chain, energy)[:m, :m])
    log_theta = np.log(theta)
    floor = report.log_threshold_high
    return {"log_theta": [float(x) for x in log_theta],
            "log_floor": floor,
            "passed": bool(float(log_theta[-1]) >= floor)}
