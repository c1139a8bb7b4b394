"""blockflow benchmark: CLI reports in a closed loop, checked against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is long-chain, ring-sweep, short-corpus, or all.  Run from any
directory; the package is imported from the ``src`` directory next to
``perfbench``, never from an installed copy.

The seed draws the workload's batches of reports from the committed pools
in perfbench/reference, as many batches as fill S seconds at the reference
commit.  They run in a fresh child process (child.py) with BLAS threads
pinned to 1.  Every report is checked against its reference.
Calibration units between reports (calibrate.py) measure the host's speed,
and wall_norm_s scales each batch's time to the reference host's speed.

--trace 0 prints the end-to-end metrics; --trace 1 runs each batch untraced
and then traced and prints the per-layer metrics of the traced ones.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from calibrate import speed_factor
from child import THREAD_VARS
from layers import METRICS as LAYER_METRICS
from stats import tail
from workloads import (WARMUP_CONFIG, WORKLOADS, batch_count, batch_reports,
                       batch_size, load_pool, select_batches, trace_pair_count)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

#: fresh-interpreter imports per run, after one untimed import
SETUP_SAMPLES = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import blockflow.cli; "
              "print(repr(time.perf_counter() - t))")
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds to import blockflow.cli in fresh interpreters."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import blockflow.cli failed:\n{proc.stderr}")
        if i:
            samples.append(float(proc.stdout))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        pool = load_pool(name)
        size = batch_size(workload, pool)
        count = (trace_pair_count(workload, seconds) if trace
                 else batch_count(workload, seconds, size))
        batches = [batch_reports(entries, run_dir)
                   for entries in select_batches(workload, pool, seed, count)]
        warmup = os.path.join(run_dir, "warmup.json")
        with open(warmup, "w", encoding="utf-8") as fh:
            json.dump(WARMUP_CONFIG, fh)
        batch = {"root": ROOT, "batches": batches, "trace": trace,
                 "warmup_argv": ["verify", "--config", warmup],
                 "spans_path": os.path.join(WORK, f"spans-{name}.csv")}
        batch_path = os.path.join(run_dir, "batch.json")
        result_path = os.path.join(run_dir, "result.json")
        with open(batch_path, "w", encoding="utf-8") as fh:
            json.dump(batch, fh)
        setup = [] if trace else measure_setup(env)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               batch_path, result_path], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"workload child exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{exc.cmd[-1]!r} timed out after {exc.timeout} s") from exc
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(setup=setup, batch_size=size)
    return result


def tail_note(times: list[float]) -> str:
    found = tail(times)
    if found is None:
        return f"report_tail_s n/a: {len(times)} report times are too few"
    value, percentile, count = found
    beyond = count - round(percentile * count / 100)
    return (f"report_tail_s {value:.6g} s: p{percentile:.1f} of {count} report "
            f"times ({beyond} beyond it)")


def normalised_walls(walls: list[float], units: list[list[float]]) -> list[float]:
    """Each batch's time divided by the host slowness measured during it.

    A batch too short to owe a calibration unit takes the run's mean.
    """
    pooled = [u for batch in units for u in batch]
    if not pooled:
        raise BenchError("no calibration unit ran")
    return [wall / speed_factor(batch or pooled) for wall, batch in zip(walls, units)]


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    times, walls = result["times"], result["walls"]
    normalised = normalised_walls(walls, result["units"])
    factors = [w / n for w, n in zip(walls, normalised)]
    metrics = {
        "wall_norm_s": (statistics.median(normalised), "s"),
        "setup_s": (statistics.median(result["setup"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    units = sum(len(batch) for batch in result["units"])
    notes = [
        f"wall_norm_s: median of {len(walls)} batches of {result['batch_size']} "
        f"reports, each divided by the host slowness measured during it "
        f"(min {min(normalised):.4g} s, max {max(normalised):.4g} s)",
        f"wall_s {statistics.median(walls):.6g} s: median raw batch time "
        f"(min {min(walls):.4g} s, max {max(walls):.4g} s)",
        f"host slowness {statistics.median(factors):.4g}: mean calibration unit "
        f"/ reference unit, median over batches ({units} units, "
        f"{min(factors):.4g}-{max(factors):.4g})",
        f"setup_s: median of {len(result['setup'])} fresh-interpreter imports "
        f"of blockflow.cli",
        # printed only: on the few distinct reports of long-chain and
        # ring-sweep these percentiles fall between report kinds and move
        # more between seeds than any bound allows (see README.md)
        f"report_p50_s {statistics.median(times):.6g} s: median of {len(times)} "
        f"report times",
        tail_note(times),
        f"failed_frac {result['failed'] / result['attempted']:.6g}: "
        f"{result['failed']} of {result['attempted']} reports failed",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    per_batch = result["trace"]["per_batch"]
    metrics, undefined = {}, []
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = result["trace"]["overhead_frac"]
        else:
            values = [b[name] for b in per_batch if b[name] is not None]
            value = statistics.median(values) if values else None
        if value is None:
            undefined.append(name)
            value = 0.0
        metrics[name] = (value, unit)
    notes = [f"per-layer: median over {len(per_batch)} traced batches of "
             f"{result['batch_size']} reports"]
    if undefined:
        notes.append("n/a on this workload (reported as 0.0): " + ", ".join(undefined))
    return metrics, notes


def report(name: str, seed: int, seconds: float, trace: bool) -> None:
    result = run_workload(name, seed, seconds, trace)
    metrics, notes = per_layer(result) if trace else end_to_end(result)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for report_id, reason in sorted(result["failures"].items()):
        print(f"# failed {report_id}: {reason}")
    width = max(len(m) for m in metrics)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<{width}}  {value:.6g} {unit}")
    line = {"correct": result["mismatched"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blockflow", "cli.py")):
        print(f"error: no blockflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
