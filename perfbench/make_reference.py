"""Build the input pools and their reference summaries.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.json.  Every pool entry is derived
from its slot and index alone, then run once through blockflow.cli.main;
the summaries (checks.summarize) become the reference that every benchmark
run is held against.  Run it only to define a new reference commit: the
pools are data, and rebuilding them changes what every seed selects.

Two inputs need the package itself:

* ring-sweep contours sit in the widest gap of the exponent spectrum, so
  the flux average stays away from every exponent;
* long-chain banded-random chains are drawn by rejection sampling, whose
  cost is geometric in the number of redraws (0.02-1.5 s per build at
  n = 160, m = 4).  Only candidates whose redraw count lies within
  BR_DRAWS_WINDOW of the candidates' median enter the pool, so the
  generator costs about the same in every batch and seeds differ in
  realization, not in work.  Failures are not screened: verify fails on
  these chains at the reference commit and stays in the pool.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys

import numpy as np

import blockflow
import blockflow.cli as cli
from blockflow import ModelSpec, exponent_spectrum

from checks import summarize
from child import environment, run_report
from workloads import WORKLOADS, reference_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

POOL_PER_SLOT = 12
SHORT_CORPUS_POOL = 1080
#: candidates that fix the median redraw count
BR_CANDIDATES = 40
BR_DRAWS_WINDOW = (0.75, 1.33)
JENSEN_NODES = 1024
CURVE_STEPS = 96

HN = "hatano-nelson"
AS = "anderson-strip"
BR = "banded-random"
RT = "random-tridiag"


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 10 ** 6)


def _energy(rng: random.Random, im_low: float = 0.3) -> list[float]:
    return [round(rng.uniform(-1.5, 1.5), 6), round(rng.uniform(im_low, 1.0), 6)]


def _widest_gap(config: dict) -> float:
    chain = ModelSpec.from_dict(config["model"]).build()
    xi = np.sort(exponent_spectrum(chain, complex(*config["energy"])).xi)
    k = int(np.argmax(np.diff(xi)))
    return round(float(0.5 * (xi[k] + xi[k + 1])), 4) + 0.0


def _jensen_argv(config: dict, nodes: int) -> list[str]:
    # "=" keeps argparse from reading a negative contour as a flag
    return ["exponents", f"--jensen-xi={_widest_gap(config)!r}", "--quad-points", str(nodes)]


def _generator_draws(model: dict) -> int:
    """Determinants the generator evaluated: a deterministic cost count."""
    calls = 0
    det = np.linalg.det

    def counting(a):
        nonlocal calls
        calls += 1
        return det(a)

    np.linalg.det = counting
    try:
        ModelSpec.from_dict(model).build()
    finally:
        np.linalg.det = det
    return calls


def long_chain_entry(slot: str, i: int) -> dict:
    rng = random.Random(f"long-chain/{slot}/{i}")
    model = {
        "hn150": {"kind": HN, "n": 150, "interval": [-3.5, 3.5]},
        "hn300": {"kind": HN, "n": 300, "interval": [-3.5, 3.5]},
        "as40x4": {"kind": AS, "n": 40, "m": 4, "w": 3.0},
        "br40x4": {"kind": BR, "n": 160, "m": 4, "interval": [-1.0, 1.0]},
    }[slot]
    model["seed"] = _seed(rng)
    return {"id": f"{slot}-{i:03d}",
            "config": {"model": model, "energy": _energy(rng)},
            "reports": [{"argv": ["verify"]}, {"argv": ["exponents"]},
                        {"argv": ["bounds"]}]}


def long_chain_slot(slot: str) -> list[dict]:
    if slot != "br40x4":
        return [long_chain_entry(slot, i) for i in range(POOL_PER_SLOT)]
    draws = [_generator_draws(long_chain_entry(slot, i)["config"]["model"])
             for i in range(BR_CANDIDATES)]
    low, high = (f * statistics.median(draws) for f in BR_DRAWS_WINDOW)
    chosen = []
    i = 0
    while len(chosen) < POOL_PER_SLOT:
        entry = long_chain_entry(slot, i)
        count = draws[i] if i < len(draws) else _generator_draws(entry["config"]["model"])
        if low <= count <= high:
            chosen.append(entry)
        i += 1
    return chosen


def ring_sweep_entry(slot: str, i: int) -> dict:
    rng = random.Random(f"ring-sweep/{slot}/{i}")
    if slot == "curve":
        model = ({"kind": HN, "n": 80, "interval": [-3.5, 3.5]} if i % 2 == 0
                 else {"kind": AS, "n": 20, "m": 4, "w": 3.0})
        model["seed"] = _seed(rng)
        config = {"model": model, "xi": round(rng.uniform(0.05, 0.4), 4)}
        return {"id": f"{slot}-{i:03d}", "config": config,
                "reports": [{"argv": ["curve", "--phi-steps", str(CURVE_STEPS)]}]}
    model = {
        "jensen-hn80": {"kind": HN, "n": 80, "interval": [-3.5, 3.5]},
        "jensen-hn120": {"kind": HN, "n": 120, "interval": [-3.5, 3.5]},
        "jensen-as25x4": {"kind": AS, "n": 25, "m": 4, "w": 3.0},
    }[slot]
    model["seed"] = _seed(rng)
    config = {"model": model, "energy": _energy(rng)}
    return {"id": f"{slot}-{i:03d}", "config": config,
            "reports": [{"argv": _jensen_argv(config, JENSEN_NODES)}]}


def short_corpus_entry(i: int) -> dict:
    rng = random.Random(f"short-corpus/{i}")
    kind = rng.choice((HN, RT, AS, BR))
    blocks = rng.randint(3, 12)
    m = 1 if kind in (HN, RT) else rng.randint(1, 3)
    model = {
        HN: {"kind": HN, "n": blocks, "interval": [-3.0, 3.0]},
        RT: {"kind": RT, "n": blocks, "interval": [-2.0, 2.0]},
        AS: {"kind": AS, "n": blocks, "m": m, "w": round(rng.uniform(1.0, 4.0), 3)},
        BR: {"kind": BR, "n": blocks * m, "m": m, "interval": [-1.0, 1.0]},
    }[kind]
    model["seed"] = _seed(rng)
    command = rng.choice(("verify", "exponents", "bounds", "curve"))
    config = {"model": model, "energy": _energy(rng, im_low=0.1)}
    argv = [command]
    if command == "verify" and rng.random() < 0.2:
        config["energy"][1] = 0.0  # real E: the pairing check instead of exclusion
    elif command == "curve":
        del config["energy"]
        config["xi"] = round(rng.uniform(-0.5, 0.5), 4)
        argv += ["--phi-steps", str(rng.randint(8, 16))]
    elif command == "exponents" and rng.random() < 0.5:
        argv = _jensen_argv(config, rng.choice((16, 32, 64)))
    return {"id": f"corpus-{i:04d}", "config": config, "reports": [{"argv": argv}]}


def pool(name: str) -> dict[str, list[dict]]:
    if name == "long-chain":
        return {slot: long_chain_slot(slot) for slot, _ in WORKLOADS[name].slots}
    if name == "ring-sweep":
        return {slot: [ring_sweep_entry(slot, i) for i in range(POOL_PER_SLOT)]
                for slot, _ in WORKLOADS[name].slots}
    return {"corpus": [short_corpus_entry(i) for i in range(SHORT_CORPUS_POOL)]}


def attach_reference(entries: list[dict], config_path: str) -> None:
    for entry in entries:
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(entry["config"], fh)
        for rep in entry["reports"]:
            argv = [rep["argv"][0], "--config", config_path, *rep["argv"][1:]]
            _, code, out, err = run_report(cli, argv)
            rep["expect"] = summarize(argv, code, out)
            if code != 0:
                print(f"  {entry['id']} {rep['argv'][0]}: exit {code} "
                      f"{err.strip()[-200:]}", flush=True)


def write(name: str, slots: dict[str, list[dict]]) -> None:
    lines = [f'{{"workload": {json.dumps(name)},',
             f' "made_with": {json.dumps(environment(), sort_keys=True)},',
             ' "slots": {']
    for s, (slot, entries) in enumerate(slots.items()):
        lines.append(f'  {json.dumps(slot)}: [')
        lines += [f"   {json.dumps(e)}," for e in entries]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ]" + ("," if s < len(slots) - 1 else ""))
    lines.append(" }}")
    with open(reference_path(name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(names: list[str]) -> int:
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(blockflow.__file__).startswith(src):
        print(f"blockflow imported from {blockflow.__file__}, not {src}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    config_path = os.path.join(work, "make-reference.json")
    try:
        for name in names or list(WORKLOADS):
            print(f"{name}: building pool", flush=True)
            slots = pool(name)
            for slot, entries in slots.items():
                print(f" {slot}: {len(entries)} entries", flush=True)
                attach_reference(entries, config_path)
            write(name, slots)
    finally:
        if os.path.exists(config_path):
            os.remove(config_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
