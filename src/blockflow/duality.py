"""Identities tying the transfer matrix to the ring and open operators.

The central identity, for n >= 3 and any nonzero z:

    det[z I_2m - T(E)] = (-z)^m det[E I_nm - H(z)] / det[B_1 ... B_n].

Its relatives: the open chain satisfies det[E - h] = det T(E)_11 *
det[B_1 ... B_n], and the symmetrized form couples z and 1/z:

    det[T + T^{-1} - (z + 1/z) I]
        = det[E - H(z)] det[E - H(1/z)] / (det[B_1..B_n] det[C_1..C_n]).

Each check takes the transfer spectrum (transfer.LogEigenvalues), which
carries the chain and E it was computed at, so one spectrum serves every
check of a report.  All comparisons happen between LogDet values:
log-modulus residuals are scale free, and phases are compared modulo 2 pi
with the looser tolerance TOL_PHASE_PER_SIZE * n * m (phase error grows
with the LU size).  Ring and open determinants come from band LUs
(ring_band, logdet_open); the dense assemblers are their oracles.

The spectral-curve tracer sweeps the flux angle phi at fixed radial
exponent xi and links the eigenvalue trajectories of the balanced ring
matrix into closed loops; for an exponent separated from the spectrum the
loops are the level sets |z_k(E)| = e^{n xi} of the duality.  With real
blocks the spectrum at 2 pi - phi is the conjugate of the one at phi, so
N angles take N//2 + 1 dense eigensolves; complex blocks take N.  The
angles are independent: when the eigensolves repay a fork, forked workers
solve contiguous slices of them on the other usable CPUs, with the same
matrices and LAPACK calls, so the samples are bitwise those of one loop.
"""

from __future__ import annotations

import cmath
import math
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from .chains import BlockChain
from .hamiltonian import assemble_balanced, log_minus_z, logdet_open, ring_band
from .linalg import (LogDet, logdet_blocks, match_spectra, match_tolerance,
                     wrap_phase)
from .resolvent import transfer_from_resolvent
from .transfer import LogEigenvalues, product

#: default acceptance tolerances for the identity checks
TOL_LOG = 1e-7
TOL_PHASE_PER_SIZE = 1e-6
#: transfer-routes tolerance on ||T_prod - T_res||_max / ||T_prod||_max
TOL_ROUTES = 1e-6
#: default number of flux angles of a spectral curve
PHI_STEPS = 64
#: most slices the solved angles of one curve are split into: the caller's
#: and at most MAX_SLICES - 1 forked workers'
MAX_SLICES = 4
#: fewest solved angles times (nm)^3 worth forking for, about 25 ms of
#: eigensolves against a few ms per fork: a real 96-angle curve at nm = 80
#: (49 solved) is 2.5e7, a real 16-angle one at nm = 36 (9 solved) 4.2e5
MIN_FORK_WORK = 2_000_000


@dataclass(frozen=True)
class DualityReport:
    """Outcome of one identity check at a single (E, z)."""

    name: str
    energy: complex
    z: complex | None
    lhs: LogDet
    rhs: LogDet
    residual_log: float
    residual_phase: float
    tol_log: float
    tol_phase: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "E": self.energy,
            "z": self.z,
            "lhs_log": self.lhs.log_modulus,
            "rhs_log": self.rhs.log_modulus,
            "lhs_phase": self.lhs.phase,
            "rhs_phase": self.rhs.phase,
            "residual_log": self.residual_log,
            "residual_phase": self.residual_phase,
            "tol_log": self.tol_log,
            "tol_phase": self.tol_phase,
            "passed": self.passed,
            "note": self.note,
        }


def _compare(name: str, spectrum: LogEigenvalues, z, lhs: LogDet, rhs: LogDet,
             tol_log: float) -> DualityReport:
    """The report of one determinant identity; the phase tolerance grows
    with the LU size, TOL_PHASE_PER_SIZE * n * m."""
    tol_phase = TOL_PHASE_PER_SIZE * spectrum.n * spectrum.m
    if lhs.is_zero and rhs.is_zero:
        res_log, res_phase = 0.0, 0.0
    elif lhs.is_zero or rhs.is_zero:
        res_log, res_phase = float("inf"), float("inf")
    else:
        res_log = abs(lhs.log_modulus - rhs.log_modulus)
        res_phase = abs(wrap_phase(lhs.phase - rhs.phase))
    return DualityReport(name=name, energy=spectrum.energy, z=z,
                         lhs=lhs, rhs=rhs,
                         residual_log=res_log, residual_phase=res_phase,
                         tol_log=tol_log, tol_phase=tol_phase,
                         passed=bool(res_log <= tol_log and res_phase <= tol_phase))


def _require_ring(chain: BlockChain, who: str) -> None:
    if chain.n < 3:
        raise ValueError(
            f"{who} requires n >= 3: at n = 2 the ring corners overlap the "
            "inner hoppings and the identity checks are skipped")


def _logdet_zi_minus_t(eig: LogEigenvalues, log_z: complex) -> LogDet:
    """log det[zI - T(E)] = sum_k log(z - z_k) from the eigenvalues of T.

    z is passed as log z and the z_k are known only in log-polar form, so
    this forms neither z, 1/z nor T: it holds at any chain length and any
    |z|.  Each factor is taken relative to the larger of |z| and |z_k|,
    log z + log(1 - z_k/z) or log(-z_k) + log(1 - z/z_k), so the ratio
    never exceeds 1 in modulus and no difference of huge values cancels.
    """
    total = LogDet(0.0, 0.0)
    for la, ph in zip(eig.log_abs, eig.phase):
        log_zk = complex(la, ph)
        if log_z.real >= la:
            lead, ratio = log_z, cmath.exp(log_zk - log_z)
        else:
            lead, ratio = log_zk + complex(0.0, math.pi), cmath.exp(log_z - log_zk)
        if ratio == 1.0:
            return LogDet(float("-inf"), 0.0)
        term = lead + cmath.log(1.0 - ratio)
        total = total * LogDet(term.real, wrap_phase(term.imag))
    return total


def check_duality(spectrum: LogEigenvalues, z: complex,
                  tol_log: float = TOL_LOG) -> DualityReport:
    """Compare det[zI - T(E)] det[B_1..B_n] with (-z)^m det[E - H(z)].

    det[zI - T] comes from the transfer eigenvalues in ``spectrum``, which
    names the chain and E; det[E - H(z)] from the folded band of the
    balanced ring at w = z^{1/n}, which is similar to H(z) and stays in
    range at any |z|.
    """
    chain, energy = spectrum.chain, spectrum.energy
    _require_ring(chain, "check_duality")
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    log_z = cmath.log(z)
    lhs = _logdet_zi_minus_t(spectrum, log_z) * logdet_blocks(chain.b)
    ring = ring_band(chain, energy).logdet(cmath.exp(log_z / chain.n))
    rhs = log_minus_z(z, chain.m) * ring
    return _compare("duality", spectrum, z, lhs, rhs, tol_log)


def check_open_duality(spectrum: LogEigenvalues,
                       tol_log: float = TOL_LOG) -> DualityReport:
    """Compare det[E - h] with det T(E)_11 * det[B_1..B_n].

    det T_11 is the det_t11 of the transfer spectrum.
    """
    lhs = logdet_open(spectrum.chain, spectrum.energy)
    rhs = spectrum.det_t11 * logdet_blocks(spectrum.chain.b)
    return _compare("open-duality", spectrum, None, lhs, rhs, tol_log)


def check_symmetric_duality(spectrum: LogEigenvalues, z: complex,
                            tol_log: float = TOL_LOG) -> DualityReport:
    """Compare det[T + T^{-1} - (z + 1/z) I] with
    det[E - H(z)] det[E - H(1/z)] / (det[B_1..B_n] det[C_1..C_n]).

    T + T^{-1} - (z + 1/z) I = T^{-1} (T - zI)(T - I/z), so the left side
    is det[zI - T] det[I/z - T] / det T, all three from the transfer
    eigenvalues in ``spectrum``.  Both ring determinants come from one
    folded band, at w = z^{1/n} and 1/w.
    """
    chain, energy = spectrum.chain, spectrum.energy
    _require_ring(chain, "check_symmetric_duality")
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    det_t = LogDet(float(np.sum(spectrum.log_abs)),
                   wrap_phase(float(np.sum(spectrum.phase))))
    log_z = cmath.log(z)
    lhs = (_logdet_zi_minus_t(spectrum, log_z) * _logdet_zi_minus_t(spectrum, -log_z)
           / det_t)
    band = ring_band(chain, energy)
    w = cmath.exp(log_z / chain.n)
    rhs = (band.logdet(w) * band.logdet(1.0 / w)
           / logdet_blocks(chain.b) / logdet_blocks(chain.c))
    return _compare("symmetric-duality", spectrum, z, lhs, rhs, tol_log)


def check_transfer_routes(chain: BlockChain, energy: complex) -> DualityReport:
    """Product route versus resolvent route for T(E), entrywise."""
    t_prod = product(chain, energy)
    t_res = transfer_from_resolvent(chain, energy)
    scale = float(np.max(np.abs(t_prod)))
    residual = float(np.max(np.abs(t_prod - t_res)))
    return DualityReport(
        name="transfer-routes", energy=complex(energy), z=None,
        lhs=LogDet.from_complex(scale if scale else 1.0),
        rhs=LogDet.from_complex(max(residual, 1e-300)),
        residual_log=residual / max(scale, 1e-300), residual_phase=0.0,
        tol_log=TOL_ROUTES, tol_phase=math.inf,
        passed=bool(residual <= TOL_ROUTES * max(scale, 1e-300)),
        note="residual_log is ||T_prod - T_res||_max / ||T_prod||_max")


# ---------------------------------------------------------------------------
# spectral curves

@dataclass(frozen=True)
class SpectralCurve:
    """Eigenvalue trajectories of the balanced ring matrix over one flux period.

    ``samples[i, s]`` is the eigenvalue of trajectory s at angle phis[i].
    ``loop_id[s]`` labels the closed loop the trajectory belongs to after
    composing the monodromy over phi in [0, 2 pi); -1 marks trajectories
    whose linking was ambiguous (braid ambiguity) and was not resolved.
    """

    xi: float
    phis: np.ndarray
    samples: np.ndarray
    loop_id: np.ndarray
    ambiguous: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_loops(self) -> int:
        ids = {int(i) for i in self.loop_id if i >= 0}
        return len(ids)

    def to_csv(self, stream) -> None:
        stream.write("# blockflow-csv v1\n")
        stream.write(f"# spectral curve, xi={self.xi!r}\n")
        stream.write("phi,re_E,im_E,loop_id\n")
        suffixes = [f",{lid}\n" for lid in self.loop_id.tolist()]
        # one row at a time: the whole sample matrix as Python floats would
        # double the writer's peak memory
        for phi, row in zip(self.phis.tolist(), self.samples):
            head = f"{phi!r},"
            stream.write("".join(f"{head}{re!r},{im!r}{suffix}" for re, im, suffix
                                 in zip(row.real.tolist(), row.imag.tolist(), suffixes)))


def _link(prev: np.ndarray, curr: np.ndarray, tol: float):
    """Nearest-neighbour assignment prev -> curr.

    Returns (perm, ambiguous_slots): perm[s] is the index in curr matched
    to prev[s]; a slot is ambiguous when its best two candidates are
    closer than tol apart (a braid crossing at this resolution).  When
    every row's nearest candidate is clear of its second by tol and no two
    rows share one, the row argmins are the permutation the greedy
    ``match_spectra`` returns, so it runs only otherwise.
    """
    dist = np.abs(prev[:, None] - curr[None, :])
    nearest = np.partition(dist, 1, axis=1)
    gap = nearest[:, 1] - nearest[:, 0]
    ambiguous = np.flatnonzero(gap < tol).tolist()
    perm = dist.argmin(axis=1)
    taken = np.zeros(len(curr), dtype=bool)
    taken[perm] = True
    if np.all(gap >= tol) and taken.all():
        return perm, ambiguous
    pairs, _, _, _ = match_spectra(prev, curr, tol=math.inf)
    perm = np.empty(len(prev), dtype=int)
    for i, j in pairs:
        perm[i] = j
    return perm, ambiguous


def _single_threaded() -> bool:
    """True when this process runs one thread, the one state in which a
    fork cannot copy a lock some other thread holds."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _slice_count(solved: int, size: int) -> int:
    """Into how many slices ``solved`` eigensolves of size ``size`` are
    split: 1, the serial loop, unless the work repays a fork, the platform
    is Linux (fork, sched_getaffinity, /proc), this process runs one thread
    and more than one CPU is usable."""
    if (solved * size ** 3 < MIN_FORK_WORK or not hasattr(os, "sched_getaffinity")
            or not _single_threaded()):
        return 1
    return min(len(os.sched_getaffinity(0)), MAX_SLICES, solved)


def _fork_worker(solve, rows: range, out: np.ndarray) -> tuple[int, int] | None:
    """Fork a worker that runs ``solve(rows)`` and writes the bytes of
    ``out[rows]`` to a pipe: (pid, read end), or None if no pipe or process
    could be made.  The worker never returns into the caller's code."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            solve(rows)
            with open(write_fd, "wb") as fh:
                fh.write(out[rows.start:rows.stop].tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(worker: tuple[int, int], rows: range, out: np.ndarray) -> bool:
    """Read a worker's rows into ``out`` and reap it; False when it failed
    or sent other than the rows' bytes, and ``out[rows]`` is left as it was."""
    pid, read_fd = worker
    try:
        with open(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    block = out[rows.start:rows.stop]
    if status != 0 or len(data) != block.nbytes:
        return False
    block[...] = np.frombuffer(data, dtype=block.dtype).reshape(block.shape)
    return True


def _stop(worker: tuple[int, int]) -> None:
    """Kill a worker whose rows are no longer wanted and reap it."""
    pid, read_fd = worker
    os.kill(pid, signal.SIGKILL)
    os.close(read_fd)
    os.waitpid(pid, 0)


def _ring_spectra(chain: BlockChain, xi: float, phis: np.ndarray) -> np.ndarray:
    """Eigenvalues of the balanced ring at w = exp(xi + i phi / n), one row
    per angle of phis = 2 pi j / N, j = 0..N-1, in LAPACK's order.

    For real blocks H_bal(conj w) = conj H_bal(w), and the spectrum is
    invariant under w -> w exp(2 pi i / n), so the spectrum at phi_{N-j}
    is the conjugate of the one at phi_j: only j = 0..N//2 are solved.
    Complex blocks take one eigensolve per angle.

    The solved angles are split into _slice_count contiguous slices; this
    process solves the first and a forked worker each other one.  A worker
    that fails, dies or cannot be forked has its slice solved here, so
    errors are those of the serial loop, and no worker outlives the call.
    """
    steps = len(phis)
    real = not any(np.any(blocks.imag) for blocks in (chain.a, chain.b, chain.c))
    solved = steps // 2 + 1 if real else steps
    spectra = np.empty((steps, chain.n * chain.m), dtype=complex)

    def solve(rows: range) -> None:
        for j in rows:
            w = cmath.exp(complex(xi, phis[j] / chain.n))
            spectra[j] = np.linalg.eigvals(assemble_balanced(chain, w))

    count = _slice_count(solved, chain.n * chain.m)
    slices = [range(solved * k // count, solved * (k + 1) // count)
              for k in range(count)]
    workers = []
    try:
        for rows in slices[1:]:
            workers.append((rows, _fork_worker(solve, rows, spectra)))
        solve(slices[0])
        while workers:
            rows, worker = workers.pop(0)
            if worker is None or not _collect(worker, rows, spectra):
                solve(rows)
    finally:
        for _, worker in workers:
            if worker is not None:
                _stop(worker)
    spectra[solved:] = spectra[steps - np.arange(solved, steps)].conj()
    return spectra


def trace_spectral_curve(chain: BlockChain, xi: float,
                         phi_steps: int = PHI_STEPS) -> SpectralCurve:
    """Sweep phi over [0, 2 pi) at fixed xi and link the eigenvalues.

    Eigenvalues of the balanced matrix at w = exp(xi + i phi / n) are
    matched between consecutive angles by nearest neighbour; the loop
    structure is the cycle decomposition of the permutation collected
    around the full period (the spectrum at phi = 2 pi equals the one at
    phi = 0).  Real blocks take phi_steps // 2 + 1 eigensolves and mirror
    the rest by conjugation; complex blocks take phi_steps.
    """
    if phi_steps < 8:
        raise ValueError("phi_steps must be at least 8")
    size = chain.n * chain.m
    phis = np.linspace(0.0, 2.0 * math.pi, phi_steps, endpoint=False)
    samples = _ring_spectra(chain, xi, phis)
    notes: list[str] = []

    tol = match_tolerance(samples[0])
    # deterministic start order: real part, then imaginary part
    first = samples[0]
    samples[0] = first[np.lexsort((first.imag, first.real))]
    ambiguous_slots: set[int] = set()

    for i in range(1, phi_steps):
        perm, amb = _link(samples[i - 1], samples[i], tol)
        samples[i] = samples[i][perm]
        ambiguous_slots.update(amb)
    # the spectrum at phi = 2 pi is the one at phi = 0: close on samples[0]
    monodromy, amb = _link(samples[-1], samples[0], tol)
    ambiguous_slots.update(amb)

    loop_id = -np.ones(size, dtype=int)
    next_id = 0
    for s in range(size):
        if loop_id[s] != -1:
            continue
        cycle = [s]
        cur = monodromy[s]
        while cur != s and len(cycle) <= size:
            cycle.append(cur)
            cur = monodromy[cur]
        for member in cycle:
            loop_id[member] = next_id
        next_id += 1
    ambiguous = bool(ambiguous_slots)
    if ambiguous:
        touched = {int(loop_id[s]) for s in ambiguous_slots}
        loop_id = np.array([-1 if int(l) in touched else int(l) for l in loop_id])
        notes.append(f"braid ambiguity at {len(ambiguous_slots)} trajectories; "
                     "affected loops left unlinked")
    return SpectralCurve(xi=float(xi), phis=phis, samples=samples,
                         loop_id=loop_id, ambiguous=ambiguous,
                         notes=tuple(notes))
