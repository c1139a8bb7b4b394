"""Per-layer metrics of one traced batch.

A layer metric is ``<group>.<stat>``.  A group is one traced function or
the sum over a few related ones (the three ring/open assemblers, the four
duality checks, ...).  Stats:

* ``calls``           spans of the group in the batch;
* ``self_s``          summed self time (span time minus child spans);
* ``errors``          calls that raised (overflow, singular corners, ...);
* ``distinct_ratio``  distinct (chain content, E) keys / calls;
* ``n_slope``         log-log slope of per-call time against chain length
                      over the hatano-nelson chains (m = 1) of the batch.

Ratios and slopes that are undefined on a workload (no calls, one length)
are reported as 0.0 and marked n/a in the printed table.
"""

from __future__ import annotations

from collections import defaultdict

from stats import loglog_slope
from tracer import Span, self_times

GROUPS = {
    "transfer.eigenvalues_stabilized": ("transfer.eigenvalues_stabilized",),
    "transfer.product": ("transfer.product",),
    "transfer.one_step": ("transfer.one_step",),
    "transfer.stabilized_log_singular_values":
        ("transfer.stabilized_log_singular_values",),
    "resolvent.corner_blocks": ("resolvent.corner_blocks",),
    "bounds.demko_params_general": ("bounds.demko_params_general",),
    "bounds.dichotomy": ("bounds.dichotomy",),
    "bounds.check_corner_decay": ("bounds.check_corner_decay",),
    "hamiltonian.logdet_shift": ("hamiltonian.logdet_shift",),
    "hamiltonian.assemble": ("hamiltonian.assemble_bloch",
                             "hamiltonian.assemble_balanced",
                             "hamiltonian.assemble_open"),
    "duality.trace_spectral_curve": ("duality.trace_spectral_curve",),
    "duality.check": ("duality.check_duality", "duality.check_open_duality",
                      "duality.check_symmetric_duality",
                      "duality.check_transfer_routes"),
    "exponents.exponent_spectrum": ("exponents.exponent_spectrum",),
    "exponents.jensen_identity_check": ("exponents.jensen_identity_check",),
    "symmetry.check": ("symmetry.check_symplectic",
                       "symmetry.check_unit_circle_exclusion",
                       "symmetry.detect_pairings"),
    "chains.build": ("chains.hatano_nelson", "chains.random_tridiag",
                     "chains.anderson_strip", "chains.banded_random"),
    "linalg.require_invertible": ("linalg.require_invertible",),
    "linalg.lu_logdet": ("linalg.lu_logdet",),
    "linalg.singular_values": ("linalg.singular_values",),
    "cli.main": ("cli.main",),
}

#: (metric, unit, better); the per_layer list of BENCHMARK.json
METRICS = [
    ("transfer.eigenvalues_stabilized.calls", "count", "lower"),
    ("transfer.eigenvalues_stabilized.self_s", "s", "lower"),
    ("transfer.eigenvalues_stabilized.distinct_ratio", "ratio", "higher"),
    ("transfer.eigenvalues_stabilized.n_slope", "1", "lower"),
    ("transfer.product.calls", "count", "lower"),
    ("transfer.product.self_s", "s", "lower"),
    ("transfer.product.distinct_ratio", "ratio", "higher"),
    ("transfer.product.errors", "count", "lower"),
    ("transfer.one_step.calls", "count", "lower"),
    ("transfer.one_step.self_s", "s", "lower"),
    ("transfer.stabilized_log_singular_values.calls", "count", "lower"),
    ("transfer.stabilized_log_singular_values.self_s", "s", "lower"),
    ("transfer.stabilized_log_singular_values.n_slope", "1", "lower"),
    ("resolvent.corner_blocks.calls", "count", "lower"),
    ("resolvent.corner_blocks.self_s", "s", "lower"),
    ("resolvent.corner_blocks.errors", "count", "lower"),
    ("resolvent.corner_blocks.n_slope", "1", "lower"),
    ("bounds.demko_params_general.calls", "count", "lower"),
    ("bounds.demko_params_general.self_s", "s", "lower"),
    ("bounds.dichotomy.self_s", "s", "lower"),
    ("bounds.check_corner_decay.self_s", "s", "lower"),
    ("hamiltonian.logdet_shift.calls", "count", "lower"),
    ("hamiltonian.logdet_shift.self_s", "s", "lower"),
    ("hamiltonian.logdet_shift.n_slope", "1", "lower"),
    ("hamiltonian.assemble.calls", "count", "lower"),
    ("hamiltonian.assemble.self_s", "s", "lower"),
    ("duality.trace_spectral_curve.calls", "count", "lower"),
    ("duality.trace_spectral_curve.self_s", "s", "lower"),
    ("duality.check.self_s", "s", "lower"),
    ("exponents.exponent_spectrum.calls", "count", "lower"),
    ("exponents.exponent_spectrum.self_s", "s", "lower"),
    ("exponents.jensen_identity_check.calls", "count", "lower"),
    ("exponents.jensen_identity_check.self_s", "s", "lower"),
    ("symmetry.check.self_s", "s", "lower"),
    ("chains.build.calls", "count", "lower"),
    ("chains.build.self_s", "s", "lower"),
    ("linalg.require_invertible.calls", "count", "lower"),
    ("linalg.require_invertible.self_s", "s", "lower"),
    ("linalg.lu_logdet.calls", "count", "lower"),
    ("linalg.lu_logdet.self_s", "s", "lower"),
    ("linalg.singular_values.calls", "count", "lower"),
    ("linalg.singular_values.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.verify.skipped_checks", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def batch_metrics(spans: list[Span], models: dict[int, dict]) -> dict[str, float | None]:
    """Every group stat of one traced batch; ``models`` maps trace id -> model."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, float | None] = {}
    for group, members in GROUPS.items():
        group_spans = [s for name in members for s in by_name[name]]
        calls = len(group_spans)
        out[f"{group}.calls"] = calls
        out[f"{group}.self_s"] = sum(selfs[s.id] for s in group_spans)
        out[f"{group}.errors"] = sum(s.failed for s in group_spans)
        out[f"{group}.distinct_ratio"] = (
            len({s.key for s in group_spans}) / calls if calls else None)
        per_length = defaultdict(list)
        for s in group_spans:
            model = models.get(s.trace)
            if model is not None and model["kind"] == "hatano-nelson":
                per_length[model["n"]].append(s.end - s.start)
        out[f"{group}.n_slope"] = loglog_slope(per_length)
    return out
