"""Byte-for-byte golden reports of the command line tool.

Each case runs ``blockflow.cli.main`` on a pinned config and compares its
stdout with ``tests/golden/<case>.out`` and its exit code with the table
below.  The cases cover every route a report can take: a ring
determinant at extreme |z| (z = 1e120; it takes the same folded band
route as every other z and no longer selects a ring route of its own),
the Hermitian checks at complex and at real E, the n = 2 skip notice, a
block size m = 3, the exponents report with and without the contour
identity, the bounds report on a non-Hermitian and on a Hermitian chain
and a spectral-curve CSV.

The golden files are per platform: the reports print every float in full
(``repr``), so a different numpy/LAPACK build may change the last digits,
as the differing counts of acceptance criterion 10 between machines show.
Regenerate them on a new platform, from a commit known to be correct, with

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites only the cases whose report changed and prints, for each,
every changed JSON field with its largest |delta| against the committed
file (list entries collapse to ``[*]``, checks are named by ``check``).
"""

import contextlib
import io
import json
import os
import sys

import pytest

from blockflow.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

TRIDIAG = {"model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                     "interval": [-2, 2]},
           "energy": [0.4, 0.3]}
HATANO = {"model": {"kind": "hatano-nelson", "n": 60, "seed": 14,
                    "interval": [-3.5, 3.5]},
          "energy": [0.4, 0.9]}
STRIP = {"model": {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5},
         "energy": [0.3, 1.0]}
TWO_SITE = {"model": {"kind": "random-tridiag", "n": 2, "seed": 3,
                      "interval": [-1, 1]},
            "energy": [0.2, 0.4]}
BANDED = {"model": {"kind": "banded-random", "n": 18, "m": 3, "seed": 4,
                    "interval": [-1, 1]},
          "energy": [0.3, 0.5]}
BOUNDS = {"model": {"kind": "random-tridiag", "n": 48, "seed": 11,
                    "interval": [-2, 2]},
          "energy": [0.2, 1.0]}

#: case name -> (config, arguments after the config, exit code)
CASES = {
    "verify-tridiag": (TRIDIAG, ["verify"], 0),
    "verify-hatano-nelson": (HATANO, ["verify"], 0),
    "verify-hatano-nelson-z1e120": (HATANO, ["verify", "--z", "1e120"], 0),
    "verify-strip-complex-e": (STRIP, ["verify"], 0),
    "verify-strip-real-e": (STRIP, ["verify", "--energy", "0.3"], 0),
    "verify-two-site": (TWO_SITE, ["verify"], 0),
    "verify-banded-m3": (BANDED, ["verify"], 0),
    "exponents-default": (TRIDIAG, ["exponents"], 0),
    "exponents-jensen": (TRIDIAG, ["exponents", "--jensen-xi", "0.02",
                                   "--quad-points", "64"], 0),
    "bounds": (BOUNDS, ["bounds"], 0),
    "bounds-strip": (STRIP, ["bounds"], 0),
    "curve-csv": (TRIDIAG, ["curve", "--xi", "0.35", "--phi-steps", "16"], 0),
}


def run_case(name: str, config_dir: str) -> tuple[int, str]:
    """Exit code and stdout of one case, with its config written to config_dir."""
    config, argv, _ = CASES[name]
    path = os.path.join(config_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([argv[0], "--config", path, *argv[1:]])
    return rc, out.getvalue()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    rc, text = run_case(name, str(tmp_path))
    assert rc == CASES[name][2]
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert text == expected


def _leaves(doc, path=""):
    """(path, value) for every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, dict) and "check" in value:
                yield from _leaves(value, f"{path}[{value['check']}]")
            else:
                yield from _leaves(value, f"{path}[*]")
    else:
        yield path, doc


def changed_fields(old: str, new: str) -> list[str]:
    """One line per changed field of two JSON reports: the field and its
    largest |delta|, or its old and new values when they are not numbers."""
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except json.JSONDecodeError:
        old_lines, new_lines = old.splitlines(), new.splitlines()
        moved = sum(a != b for a, b in zip(old_lines, new_lines))
        moved += abs(len(old_lines) - len(new_lines))
        return [f"{moved} of {len(new_lines)} lines (not JSON)"]
    old_leaves, new_leaves = list(_leaves(old_doc)), list(_leaves(new_doc))
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        return ["fields added, removed or reordered"]
    deltas: dict[str, float | str] = {}
    for (path, a), (_, b) in zip(old_leaves, new_leaves):
        if a == b:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (a, b))
        if numbers:
            deltas[path] = max(deltas.get(path, 0.0), abs(b - a))
        else:
            deltas[path] = f"{a!r} -> {b!r}"
    return [f"{path} {d:.1e}" if isinstance(d, float) else f"{path} {d}"
            for path, d in deltas.items()]


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, report = run_case(case, tmp)
            if code != CASES[case][2]:
                sys.exit(f"{case}: exit code {code}, expected {CASES[case][2]}")
            path = golden_path(case)
            old = None
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8", newline="") as fh:
                    old = fh.read()
            if old == report:
                continue
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(report)
            print(f"wrote {path}")
            for line in ([] if old is None else changed_fields(old, report)):
                print(f"  {line}")
