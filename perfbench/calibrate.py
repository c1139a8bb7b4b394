"""Host-speed calibration: a fixed numpy/Python kernel timed between reports.

The benchmark runs on a few vCPUs of a shared host.  Other load on the host
slows the processor itself for minutes at a time: wall time and CPU time
rise together, by up to 30 % between runs of the same batch, so no
statistic over one 30 s run removes it.  The workload child therefore
interleaves a fixed calibration unit with its reports, one unit per
INTERVAL_S of report time, and divides each batch's time by the host speed
measured around it.

A unit does the two kinds of work blockflow's reports spend their time on:
dense LAPACK on an nm = 100 complex matrix (LU and eigenvalues, as in the
ring and cyclic routes) and many tiny numpy calls plus dict and JSON work
in the interpreter (per-site transfer steps, argparse, report output).  It
uses numpy and scipy only, never blockflow, so a change to the program
leaves the unit's time alone.  numpy is imported on the first unit, so
the parent process of run.py can read the constants without it.
"""

from __future__ import annotations

import functools
import json
import time

#: report time between two calibration units
INTERVAL_S = 0.25
#: seconds per unit on the reference host: the 2-vCPU Intel Xeon VM (2.1 GHz,
#: numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread) the pools were built
#: on, in its quiet spells.  The normalised time is what a batch would take
#: on that host.
UNIT_NOMINAL_S = 0.048
#: calibration time per second of report time on the reference host
SHARE = UNIT_NOMINAL_S / INTERVAL_S


@functools.cache
def _inputs():
    import numpy as np
    import scipy.linalg as sla

    rng = np.random.default_rng(20121031)
    dense = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    small = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
             for _ in range(10)]
    return np, sla, dense, 0.1 * np.eye(100), small


def unit() -> float:
    """Run one calibration unit; returns its seconds."""
    np, sla, dense, shift, small = _inputs()
    start = time.perf_counter()
    for _ in range(2):
        for _ in range(8):
            sla.lu_factor(dense + shift)
        np.linalg.eigvals(dense)
    for _ in range(75):
        p = np.eye(3, dtype=complex)
        for block in small:
            p = block @ p
            np.linalg.svd(p, compute_uv=False)
            p /= np.abs(p).max()
        table = {str(i): i * 0.5 for i in range(200)}
        json.dumps(table)
    return time.perf_counter() - start


class HostClock:
    """Runs calibration units in step with report time and keeps their times."""

    def __init__(self):
        self.units: list[float] = []
        self._owed = 0.0

    def after_report(self, seconds: float) -> None:
        """Account one report's time; run the units it is owed."""
        self._owed += seconds
        while self._owed >= INTERVAL_S:
            self._owed -= INTERVAL_S
            self.units.append(unit())

    def take(self) -> list[float]:
        """Unit times since the last take."""
        units, self.units = self.units, []
        return units


def speed_factor(units: list[float]) -> float:
    """Host slowness around a batch: mean unit time / nominal unit time."""
    return sum(units) / len(units) / UNIT_NOMINAL_S
