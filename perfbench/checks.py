"""Report summaries and their comparison with the committed reference.

``summarize`` reduces one CLI report to the numbers the reference keeps:
exit code, check verdicts, exponents, sums, dichotomy counts and loop
counts.  ``compare`` holds a new summary against the reference at the
package's own tolerances, never by byte equality, so a route change that
stays within tolerance passes while a lost identity does not.
"""

from __future__ import annotations

import json
import math

#: blockflow.duality.TOL_LOG at the reference commit: log-modulus tolerance
#: of the determinant identities, used here for per-site logs (exponents,
#: decay rates, log singular values per site)
TOL_LOG = 1e-7
#: tolerance of the exponent sum rule in ``blockflow verify``
TOL_SUM_RULE = 1e-8
#: tolerance of the Jensen identity in the acceptance suite (criterion 07)
TOL_JENSEN = 1e-6
#: two routes each within ``tol`` of the truth are within 2 * tol of each
#: other, so a value from a new route may move this far from the reference
ROUTES = 2.0

_IDENTITY_CHECKS = ("duality", "open-duality", "symmetric-duality")


def summarize(argv: list[str], exit_code: int, stdout: str) -> dict:
    """The reference-relevant content of one report."""
    command = argv[0]
    summary = {"command": command, "exit": exit_code}
    if exit_code not in (0, 1):
        return summary
    if command == "curve":
        ids = [int(line.rsplit(",", 1)[1]) for line in stdout.splitlines()[3:]]
        summary["n_loops"] = len({i for i in ids if i >= 0})
        summary["ambiguous"] = -1 in ids
        return summary
    doc = json.loads(stdout)
    if command == "verify":
        summary["checks"] = [_check_summary(c) for c in doc["checks"]]
        summary["skipped"] = sum("skipped" in note for note in doc["notices"])
    elif command == "exponents":
        summary["xi"] = doc["xi"]
        summary["sum"] = doc["sum"]
        summary["sum_rule"] = doc["sum_rule"]
        if "jensen" in doc:
            jensen = doc["jensen"]
            summary["jensen"] = {k: jensen[k] for k in ("lhs", "rhs", "quad_points")}
    elif command == "bounds":
        dich = doc["dichotomy"]
        corner = doc["corner_decay"]
        summary["passed"] = doc["passed"]
        summary["counts"] = [dich["counts"][k] for k in ("above", "below", "middle")]
        summary["split_holds"] = dich["split_holds"]
        summary["measured_rate"] = corner["measured_rate"]
        summary["bound_rate"] = corner["bound_rate"]
        summary["log_singulars_per_site"] = [x / dich["n"] for x in dich["log_singulars"]]
    return summary


def _check_summary(check: dict) -> dict:
    name = check["check"]
    out = {"check": name, "passed": check["passed"]}
    if name in _IDENTITY_CHECKS:
        for key in ("lhs_log", "rhs_log", "lhs_phase", "rhs_phase",
                    "tol_log", "tol_phase"):
            out[key] = check[key]
    elif name == "exponent-sum-rule":
        for key in ("sum", "expected", "tol_log"):
            out[key] = check[key]
    elif name == "unit-circle-exclusion":
        out["margin"] = check["margin"]
    elif name == "pairing":
        out["unmatched"] = len(check["unmatched"])
    return out


def _far(ref, new, tol: float, phase: bool = False) -> bool:
    # non-finite values are carried as sentinel strings ("neg_inf", "nan")
    if isinstance(ref, str) or isinstance(new, str):
        return ref != new
    diff = new - ref
    if phase:
        diff = math.remainder(diff, 2.0 * math.pi)
    return not abs(diff) <= tol


def compare(expect: dict, got: dict) -> list[str]:
    """Deviations of ``got`` from the reference summary ``expect``.

    A check that failed at the reference commit may pass now; a check that
    passed must still pass, with its numbers within tolerance.
    """
    if got["exit"] != expect["exit"] and not (expect["exit"] == 1 and got["exit"] == 0):
        return [f"exit code {got['exit']}, reference {expect['exit']}"]
    if expect["exit"] not in (0, 1):
        return []
    command = expect["command"]
    out: list[str] = []

    def near(label, ref, new, tol, phase=False):
        if _far(ref, new, tol, phase):
            out.append(f"{label} = {new!r}, reference {ref!r} (tol {tol:.1e})")

    if command == "curve":
        for key in ("n_loops", "ambiguous"):
            if got[key] != expect[key]:
                out.append(f"{key} = {got[key]!r}, reference {expect[key]!r}")
    elif command == "verify":
        new_checks = {c["check"]: c for c in got["checks"]}
        for ref in expect["checks"]:
            name = ref["check"]
            new = new_checks.get(name)
            if new is None:
                out.append(f"{name}: not run, reference ran it")
            elif not ref["passed"]:
                continue
            elif not new["passed"]:
                out.append(f"{name}: failed, passed at reference")
            elif name in _IDENTITY_CHECKS:
                for key in ("lhs_log", "rhs_log"):
                    near(f"{name}.{key}", ref[key], new[key], ROUTES * ref["tol_log"])
                for key in ("lhs_phase", "rhs_phase"):
                    near(f"{name}.{key}", ref[key], new[key],
                         ROUTES * ref["tol_phase"], phase=True)
            elif name == "exponent-sum-rule":
                for key in ("sum", "expected"):
                    near(f"{name}.{key}", ref[key], new[key], ROUTES * ref["tol_log"])
            elif name == "unit-circle-exclusion":
                near(f"{name}.margin", ref["margin"], new["margin"], ROUTES * TOL_LOG)
            elif name == "pairing" and new["unmatched"] != ref["unmatched"]:
                out.append(f"pairing: {new['unmatched']} unmatched, "
                           f"reference {ref['unmatched']}")
    elif command == "exponents":
        if len(got["xi"]) != len(expect["xi"]):
            return [f"{len(got['xi'])} exponents, reference {len(expect['xi'])}"]
        for k, (ref, new) in enumerate(zip(expect["xi"], got["xi"])):
            near(f"xi[{k}]", ref, new, TOL_LOG)
        for key in ("sum", "sum_rule"):
            near(key, expect[key], got[key], ROUTES * TOL_SUM_RULE)
        if "jensen" in expect:
            ref, new = expect["jensen"], got.get("jensen")
            if new is None or new["quad_points"] != ref["quad_points"]:
                out.append("jensen: missing or different quad_points")
            else:
                for key in ("lhs", "rhs"):
                    near(f"jensen.{key}", ref[key], new[key], TOL_JENSEN)
    elif command == "bounds":
        if expect["passed"] and not got["passed"]:
            out.append("corner decay bound: failed, passed at reference")
        for key in ("counts", "split_holds"):
            if got[key] != expect[key]:
                out.append(f"{key} = {got[key]!r}, reference {expect[key]!r}")
        for key in ("measured_rate", "bound_rate"):
            near(key, expect[key], got[key], TOL_LOG)
        for k, (ref, new) in enumerate(zip(expect["log_singulars_per_site"],
                                           got["log_singulars_per_site"])):
            near(f"log_singulars_per_site[{k}]", ref, new, TOL_LOG)
    return out
