"""Self-tests of the benchmark harness (no timing, a few small reports)."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import blockflow  # noqa: E402
import blockflow.cli as cli  # noqa: E402

from checks import compare, summarize  # noqa: E402
from child import Tally, run_report  # noqa: E402
from layers import METRICS, batch_metrics  # noqa: E402
from run import end_to_end, normalised_walls  # noqa: E402
from stats import tail  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

TINY = {"model": {"kind": "hatano-nelson", "n": 5, "seed": 3, "interval": [-2, 2]},
        "energy": [0.2, 0.5]}


def _span(i, parent, start, end, name="f"):
    return Span(i, parent, 0, name, start, end, False, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 2, 1.5, 2.0),     # grandchild: counts against 2, not 1
        _span(4, 1, 2.5, 4.0),     # overlaps 2: the union [1, 4] is covered
        _span(5, 1, 6.0, 7.0),
    ]
    got = self_times(spans)
    assert abs(got[1] - (10.0 - 3.0 - 1.0)) < 1e-12
    assert abs(got[2] - 1.5) < 1e-12
    assert got[3] == 0.5 and got[4] == 1.5 and got[5] == 1.0


def test_batch_metrics_groups_and_slope():
    spans = [
        Span(1, None, 0, "hamiltonian.assemble_open", 0.0, 1.0, False, None),
        Span(2, None, 1, "hamiltonian.assemble_bloch", 0.0, 8.0, True, None),
    ]
    models = {0: {"kind": "hatano-nelson", "n": 10}, 1: {"kind": "hatano-nelson", "n": 20}}
    got = batch_metrics(spans, models)
    assert got["hamiltonian.assemble.calls"] == 2
    assert got["hamiltonian.assemble.self_s"] == 9.0
    assert got["hamiltonian.assemble.errors"] == 1
    assert abs(got["hamiltonian.assemble.n_slope"] - 3.0) < 1e-12
    assert got["transfer.product.calls"] == 0
    assert got["transfer.product.n_slope"] is None


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert tail(values) == (89.0, 90.0, 100)
    assert tail(values[:10]) is None
    assert tail(values[:11]) == (0.0, 100.0 / 11, 11)
    # ties at the candidate move the rank down until ten lie strictly above
    tied = [1.0] * 5 + [2.0] * 10 + [3.0] * 6
    assert tail(tied) == (1.0, 100.0 * 5 / 21, 21)


def _verify(tmp_path, *extra):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return ["verify", "--config", str(path), *extra]


def test_forced_exit_1_counts_as_failed(tmp_path):
    argv = _verify(tmp_path, "--tol-log", "0")
    result = run_report(cli, argv)
    assert result[1] == 1
    known = summarize(argv, 1, result[2])
    passing = summarize(*_passing(tmp_path))

    tally = Tally()
    # failing at the reference commit too: failed, but not a deviation
    tally.check([{"id": "known", "argv": argv, "expect": known}], [result])
    assert (tally.attempted, tally.failed, tally.mismatched) == (1, 1, 0)
    # passing at the reference commit: failed and a deviation
    tally.check([{"id": "lost", "argv": argv, "expect": passing}], [result])
    assert (tally.attempted, tally.failed, tally.mismatched) == (2, 2, 1)
    assert "leaves the reference" in tally.failures["lost"]


def _passing(tmp_path):
    argv = _verify(tmp_path)
    _, code, out, _ = run_report(cli, argv)
    assert code == 0
    return argv, code, out


def test_compare_tolerates_route_changes_within_tolerance(tmp_path):
    argv, code, out = _passing(tmp_path)
    ref = summarize(argv, code, out)
    moved = json.loads(json.dumps(ref))
    duality = next(c for c in moved["checks"] if c["check"] == "duality")
    duality["lhs_log"] += 1.5 * duality["tol_log"]
    assert compare(ref, moved) == []
    duality["lhs_log"] += 1.0 * duality["tol_log"]
    assert len(compare(ref, moved)) == 1
    dropped = dict(ref, checks=[c for c in ref["checks"] if c["check"] != "duality"])
    assert compare(ref, dropped) == ["duality: not run, reference ran it"]


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items() if name.split(".")[0] == "blockflow"
            for attr, value in vars(mod).items()}


def test_tracer_rebinds_everywhere_and_restores(tmp_path):
    argv = _verify(tmp_path)
    before = _bindings()
    original_product = blockflow.transfer.product
    tracer = Tracer("blockflow")
    tracer.install()
    try:
        # imported by name into duality, exponents and symmetry
        for mod in (blockflow.transfer, blockflow.duality, blockflow.symmetry, blockflow):
            assert mod.product is not original_product
            assert mod.product.__wrapped__ is original_product
        tracer.trace = 7
        assert run_report(cli, argv)[1] == 0
    finally:
        tracer.restore()
    assert _bindings() == before
    spans = tracer.take_spans()
    names = {s.name for s in spans}
    assert {"cli.main", "transfer.product", "duality.check_duality",
            "resolvent.corner_blocks", "linalg.lu_logdet"} <= names
    assert all(s.trace == 7 for s in spans)
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    keys = {s.key for s in spans if s.name == "transfer.product"}
    assert None not in keys


def test_each_batch_is_normalised_by_its_own_units():
    from calibrate import UNIT_NOMINAL_S as u

    got = normalised_walls([10.0, 10.0, 6.0], [[2 * u, 2 * u], [u], []])
    # the last batch owed no unit: it takes the run's mean, (2u + 2u + u) / 3
    assert [round(g, 12) for g in got] == [5.0, 10.0, round(6.0 / (5 / 3), 12)]


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == METRICS
    result = {"times": [0.1 * i for i in range(11)], "walls": [1.0, 1.2],
              "units": [[0.05, 0.06], [0.055]], "setup": [0.4],
              "peak_rss_mb": 60.0, "failed": 0, "attempted": 11, "batch_size": 11}
    emitted = [(m, unit) for m, (_, unit) in end_to_end(result)[0].items()]
    assert emitted == [(m["name"], m["unit"]) for m in bench["end_to_end"]]
