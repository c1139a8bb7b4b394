"""Workload definitions and seeded batch selection.

A workload is a set of slots.  Each slot has a committed pool of entries
(reference/<workload>.json, written by make_reference.py); an entry is one
model config plus the CLI reports run on it, each with the summary the
report produced at the reference commit.  A batch takes a fixed number of
entries from every slot, chosen by the benchmark seed, so different seeds
give different inputs while every input has a committed reference.  Each
batch of a run draws afresh, so a run times several draws and its median
depends less on which entries one draw happened to pick.

This module imports neither numpy nor blockflow: the parent process of
run.py uses it before any child starts.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from calibrate import SHARE
from stats import TAIL_BEYOND

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    #: slot name -> entries drawn per batch
    slots: tuple[tuple[str, int], ...]
    #: batch wall time at the reference commit on a 2-vCPU Intel Xeon VM,
    #: calibration excluded; fixes how many batches one run repeats (see
    #: batch_count)
    nominal_batch_s: float


WORKLOADS = {
    w.name: w for w in (
        # verify / exponents / bounds on four long chains: the dense
        # O((nm)^3) cyclic eigen route and the rejection-sampled
        # banded-random generator dominate
        Workload("long-chain", (("hn150", 1), ("hn300", 1), ("as40x4", 1),
                                ("br40x4", 1)), 11.0),
        # Jensen flux averages with 1024 nodes and one spectral curve:
        # ring assembly, dense ring LU and the dense ring eigensolve dominate
        Workload("ring-sweep", (("jensen-hn80", 1), ("jensen-hn120", 1),
                                ("jensen-as25x4", 1), ("curve", 1)), 5.5),
        # hundreds of tiny reports: per-call Python overhead dominates
        Workload("short-corpus", (("corpus", 360),), 2.5),
    )
}

#: the untimed warm-up report: a tiny Hermitian chain, so verify runs every
#: check family once and lazy imports happen before timing starts
WARMUP_CONFIG = {"model": {"kind": "anderson-strip", "n": 4, "m": 2, "w": 1.0,
                           "seed": 1},
                 "energy": [0.1, 0.4]}


def batch_size(workload: Workload, pool: dict) -> int:
    """Reports per batch."""
    return sum(count * len(pool["slots"][slot][0]["reports"])
               for slot, count in workload.slots)


def batch_count(workload: Workload, seconds: float, size: int) -> int:
    """Batches per run: as many as fill ``seconds`` at the reference commit,
    calibration units included.

    The count depends only on ``seconds``, not on measured time, so every
    run of a workload with one seed times the same reports, and order
    statistics such as the tail percentile stay comparable between
    commits.  At least two batches, so wall_norm_s is a median, and enough
    reports for the tail percentile.
    """
    return max(2, -(-(TAIL_BEYOND + 1) // size),
               round(seconds / ((1 + SHARE) * workload.nominal_batch_s)))


def trace_pair_count(workload: Workload, seconds: float) -> int:
    """(untraced, traced) batch pairs per traced run."""
    return max(1, round(seconds / (2.5 * workload.nominal_batch_s)))


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_pool(name: str) -> dict:
    with open(reference_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def select_batches(workload: Workload, pool: dict, seed: int,
                   batches: int) -> list[list[dict]]:
    """The entries of each of ``batches`` batches, chosen from the pool by
    ``seed``; every batch is an independent draw."""
    rng = random.Random(seed)
    chosen = []
    for _ in range(batches):
        entries = []
        for slot, count in workload.slots:
            candidates = pool["slots"][slot]
            if count > len(candidates):
                raise ValueError(f"slot {slot} has {len(candidates)} entries, "
                                 f"batch needs {count}")
            entries.extend(rng.sample(candidates, count))
        chosen.append(entries)
    return chosen


def batch_reports(entries: list[dict], config_dir: str) -> list[dict]:
    """Write each entry's config and expand its reports into CLI calls."""
    reports = []
    for entry in entries:
        path = os.path.join(config_dir, f"{entry['id']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry["config"], fh)
        for rep in entry["reports"]:
            argv = [rep["argv"][0], "--config", path, *rep["argv"][1:]]
            reports.append({"id": f"{entry['id']}:{rep['argv'][0]}",
                            "argv": argv, "model": entry["config"]["model"],
                            "expect": rep["expect"]})
    return reports
