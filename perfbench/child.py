"""Workload child process: one client running CLI reports in a closed loop.

    python3 perfbench/child.py BATCH_JSON RESULT_JSON

run.py starts this in a fresh interpreter with ``src`` on PYTHONPATH and
BLAS threads pinned to 1.  Each report is one ``blockflow.cli.main(argv)``
call, started after the previous one returned.  Outputs are held until the
batch ends and only then checked against the reference, so checking adds
nothing to the timed batch.  In an end-to-end run, calibration units
(calibrate.py) run between reports, outside the reports' time, and measure
the host's speed around each batch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from calibrate import HostClock, unit
from checks import compare, summarize

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_report(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one cli.main call.

    An exception escaping cli.main is a failed report with exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback escaping the CLI: record it, keep going
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_batch(cli, reports: list[dict], tracer=None, clock=None) -> tuple[float, list]:
    """(summed report seconds, per-report results) of one pass over reports.

    With a clock, calibration units run between reports, outside the
    reports' time.
    """
    results = []
    for index, report in enumerate(reports):
        if tracer is not None:
            tracer.trace = index
        results.append(run_report(cli, report["argv"]))
        if clock is not None:
            clock.after_report(results[-1][0])
    return sum(r[0] for r in results), results


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_text = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_text,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


class Tally:
    """Checks report outputs against the reference and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.failures: dict[str, str] = {}

    def check(self, reports: list[dict], results: list) -> int:
        """Check one batch; returns its skipped verify checks."""
        skipped = 0
        for report, (_, code, out, err) in zip(reports, results):
            self.attempted += 1
            got = summarize(report["argv"], code, out)
            diffs = compare(report["expect"], got)
            skipped += got.get("skipped", 0)
            # a report fails when it exits non-zero or leaves the reference
            if code == 0 and not diffs:
                continue
            self.failed += 1
            self.mismatched += bool(diffs)
            if diffs:
                reason = "leaves the reference: " + "; ".join(diffs)
            elif code == 1:
                bad = [c["check"] for c in got.get("checks", []) if not c["passed"]]
                reason = "exit 1, failed checks: " + ", ".join(bad or ["corner decay"])
            else:
                reason = f"exit {code}: {err.strip().splitlines()[-1:]}"
            self.failures.setdefault(report["id"], reason)
        return skipped


def main(batch_path: str, result_path: str) -> int:
    with open(batch_path, encoding="utf-8") as fh:
        batch = json.load(fh)
    import blockflow
    import blockflow.cli as cli

    src = os.path.join(batch["root"], "src")
    if not os.path.abspath(blockflow.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"blockflow imported from {blockflow.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    run_report(cli, batch["warmup_argv"])
    tally = Tally()
    walls, times, units = [], [], []
    clock = None

    def untraced(reports):
        wall, results = run_batch(cli, reports, clock=clock)
        walls.append(wall)
        if clock is not None:
            units.append(clock.take())
        times.extend(r[0] for r in results)
        tally.check(reports, results)

    result = {"env": environment()}
    if not batch["trace"]:
        unit()  # untimed: first-call costs of the kernel
        clock = HostClock()
        for reports in batch["batches"]:
            untraced(reports)
    else:
        from layers import batch_metrics
        from tracer import Tracer

        tracer = Tracer("blockflow")
        traced_walls, per_batch = [], []
        for reports in batch["batches"]:
            models = dict(enumerate(r["model"] for r in reports))
            untraced(reports)
            tracer.install()
            try:
                wall, results = run_batch(cli, reports, tracer)
            finally:
                tracer.restore()
            traced_walls.append(wall)
            spans = tracer.take_spans()
            metrics = batch_metrics(spans, models)
            metrics["cli.verify.skipped_checks"] = tally.check(reports, results)
            per_batch.append(metrics)
        with open(batch["spans_path"], "w", encoding="utf-8") as fh:
            fh.write("id,parent,trace,name,start,end,failed\n")
            for s in spans:
                fh.write(f"{s.id},{'' if s.parent is None else s.parent},{s.trace},"
                         f"{s.name},{s.start!r},{s.end!r},{int(s.failed)}\n")
        result["trace"] = {"walls": traced_walls, "per_batch": per_batch,
                           "overhead_frac": statistics.median(traced_walls)
                           / statistics.median(walls) - 1.0}
    result.update(walls=walls, units=units, times=times, attempted=tally.attempted,
                  failed=tally.failed, mismatched=tally.mismatched,
                  failures=tally.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
