"""Command line front end.

Four subcommands:

    blockflow verify    --config cfg.json [--energy RE,IM] [--xi X] [--phi P]
    blockflow curve     --config cfg.json --xi X [--phi-steps N] [--csv F] [--svg F]
    blockflow exponents --config cfg.json --energy RE,IM [--csv F]
    blockflow bounds    --config cfg.json --energy RE,IM

The config file is a JSON object; the "model" entry is a ModelSpec
document and the remaining keys (energy, z, xi, phi, phi_steps,
quad_points) supply defaults that individual flags override; any other
key is refused.  Numeric results go to stdout as JSON (or CSV where
noted) so runs with the same config and seed are byte-identical.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 invalid
input (bad config, singular blocks, contour through an exponent, ...).
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import os
import sys

import numpy as np

from .bounds import check_corner_decay, dichotomy
from .chains import BlockChain, ModelSpec, as_integer
from .duality import (PHI_STEPS, TOL_LOG, SpectralCurve, check_duality,
                      check_open_duality, check_symmetric_duality,
                      check_transfer_routes, trace_spectral_curve)
from .exponents import (QUAD_POINTS, exponent_csv, exponent_spectrum,
                        jensen_identity_check, sum_rule_value)
from .linalg import EigenConvergenceError
from .resolvent import CornerSingularError, ResolventSingularError
from .symmetry import (MIN_IM, check_symplectic, check_unit_circle_exclusion,
                       detect_pairings)
from .transfer import ProductOverflowError

SCHEMA_VERSION = 1

#: fall-back boundary point for `verify` when neither z nor xi/phi is given
DEFAULT_XI = 0.2
DEFAULT_PHI = 0.8


class InputError(ValueError):
    """Bad command line or config input (exit code 2)."""


def _require_finite(value, what: str):
    """The value itself if it is finite, else an InputError naming ``what``."""
    if not cmath.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def _require_exp_range(xi: float, what: str) -> None:
    """InputError naming ``what`` unless e^xi is a nonzero finite double."""
    try:
        in_range = math.exp(xi) > 0.0
    except OverflowError:
        in_range = False
    if not in_range:
        raise InputError(f"{what} = {xi!r} is out of range: e^(xi) overflows "
                         "or underflows double precision")


def _parse_complex(text: str, flag: str) -> complex:
    parts = text.split(",")
    value = None
    if len(parts) in (1, 2):
        try:
            value = complex(*(float(part) for part in parts))
        except ValueError:
            pass
    if value is None:
        raise InputError(f"{flag}: expected RE or RE,IM, got {text!r}")
    return _require_finite(value, flag)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    # the keys some subcommand reads, so one config drives all four
    known = {"model", "energy", "z", "xi", "phi", "phi_steps", "quad_points"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise InputError(f"config {path}: unknown key(s) "
                         f"{', '.join(map(repr, unknown))}; known keys are "
                         f"{', '.join(sorted(known))}")
    return doc


def _build_chain(config: dict) -> tuple[BlockChain, dict]:
    if "model" not in config:
        raise InputError("config needs a 'model' entry")
    try:
        spec = ModelSpec.from_dict(config["model"])
        chain = spec.build()
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"bad model: {exc}") from exc
    summary = spec.to_dict()
    if spec.kind == "explicit":
        summary = {"kind": "explicit", "n": chain.n, "m": chain.m}
    return chain, summary


def _resolve(config: dict, key: str, flag_value, convert, default=None):
    """Flag beats config beats default; config numbers must be finite."""
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    try:
        value = convert(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"config field {key!r}: {exc}") from exc
    if isinstance(value, (float, complex)):
        _require_finite(value, f"config field {key!r}")
    return value


def _config_complex(raw) -> complex:
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(float(raw[0]), float(raw[1]))
    if isinstance(raw, (int, float)):
        return complex(raw)
    raise ValueError(f"expected a number or [re, im], got {raw!r}")


def _require_energy(args, config) -> complex:
    energy = _resolve(config, "energy", args.energy, _config_complex)
    if energy is None:
        raise InputError("an energy is required (--energy RE,IM or config 'energy')")
    return energy


def _jsonable(obj):
    """Recursively make obj JSON-safe; non-finite floats become sentinels."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "neg_inf"
        return x
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _writable(path: str) -> str:
    """An output flag's path, refused when it cannot be written: the parser
    checks every output path before anything is computed, so a refusal
    leaves no partial output behind."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path}: not a writable file")
    return path


def _emit(report: dict | str, path: str | None) -> None:
    """Write a report to ``path`` or stdout; a dict goes out as sorted JSON."""
    if isinstance(report, dict):
        report = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(report)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    tol_log = TOL_LOG if args.tol_log is None else args.tol_log
    if tol_log < 0:
        raise InputError(f"--tol-log must be at least 0, got {tol_log!r}")
    config = _load_config(args.config)
    chain, model_summary = _build_chain(config)
    energy = _require_energy(args, config)
    z = _resolve(config, "z", None if args.z is None else _parse_complex(args.z, "--z"),
                 _config_complex)
    if z is None:
        xi = _resolve(config, "xi", args.xi, float, DEFAULT_XI)
        phi = _resolve(config, "phi", args.phi, float, DEFAULT_PHI)
        arg = chain.n * xi
        if abs(arg) > 690.0:
            raise InputError(f"n*xi = {arg:.1f} overflows z = e^(n xi + i phi); "
                             "pass z directly or shrink xi")
        z = complex(math.exp(arg) * math.cos(phi), math.exp(arg) * math.sin(phi))
    if z == 0:
        raise InputError("z must be nonzero")
    spectrum = exponent_spectrum(chain, energy)
    checks = []
    notices = []

    def record(report, name=None):
        doc = report.to_dict()
        if name is not None and "check" not in doc:
            doc["check"] = name
        checks.append(doc)

    try:
        record(check_transfer_routes(chain, energy))
    except (ResolventSingularError, CornerSingularError, ProductOverflowError) as exc:
        notices.append(f"transfer-routes skipped: {exc}")

    record(check_open_duality(spectrum, tol_log=tol_log))

    if chain.n >= 3:
        record(check_duality(spectrum, z, tol_log=tol_log))
        record(check_symmetric_duality(spectrum, z, tol_log=tol_log))
    else:
        notices.append(
            "duality and symmetric-duality skipped: at n = 2 the ring "
            "corners overlap the inner hoppings and the determinant "
            "identities are only checked for n >= 3")

    sum_rule = sum_rule_value(chain)
    residual = abs(spectrum.sum - sum_rule)
    checks.append({"check": "exponent-sum-rule", "sum": spectrum.sum,
                   "expected": sum_rule, "residual": residual,
                   "tol_log": 1e-8, "passed": bool(residual <= 1e-8)})

    if chain.is_hermitian():
        try:
            record(check_symplectic(chain, energy), name="symplectic")
        except ProductOverflowError as exc:
            notices.append(f"symplectic skipped: {exc}")
        if abs(energy.imag) >= MIN_IM:
            record(check_unit_circle_exclusion(spectrum), name="unit-circle-exclusion")
        else:
            pairing = detect_pairings(spectrum, mode="hermitian-real-E")
            checks.append({"check": "pairing", **pairing.to_dict(),
                           "passed": not pairing.unmatched})
    else:
        notices.append("chain is not Hermitian: symplectic and pairing "
                       "checks not applicable")

    passed = all(c.get("passed", True) for c in checks)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "model": model_summary,
        "energy": energy,
        "z": z,
        "checks": checks,
        "notices": notices,
        "passed": passed,
    }
    _emit(doc, args.json)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# curve

_SVG_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910",
                "#117a8b", "#a04000", "#5d6d7e")


def _curve_svg(curve: SpectralCurve) -> str:
    width, height, margin = 640, 480, 54
    pts = curve.samples
    re = pts.real.ravel()
    im = pts.imag.ravel()
    lo_x, hi_x = float(re.min()), float(re.max())
    lo_y, hi_y = float(im.min()), float(im.max())
    pad_x = 0.05 * (hi_x - lo_x or 1.0)
    pad_y = 0.05 * (hi_y - lo_y or 1.0)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y

    def sx(x):
        return margin + (x - lo_x) / (hi_x - lo_x) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - lo_y) / (hi_y - lo_y) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">'
        f'spectral curve, xi={curve.xi!r}, loops={curve.n_loops}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">Re E</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">Im E</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-family="monospace" '
        f'font-size="10">{lo_x:.3g}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin + 16}" '
        f'text-anchor="end" font-family="monospace" font-size="10">{hi_x:.3g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{lo_y:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin + 10}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{hi_y:.3g}</text>',
    ]
    for s in range(pts.shape[1]):
        lid = int(curve.loop_id[s])
        color = "#999999" if lid < 0 else _SVG_PALETTE[lid % len(_SVG_PALETTE)]
        for i in range(pts.shape[0]):
            e = pts[i, s]
            parts.append(f'<circle cx="{sx(e.real):.2f}" cy="{sy(e.imag):.2f}" '
                         f'r="1.6" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_curve(args) -> int:
    config = _load_config(args.config)
    chain, model_summary = _build_chain(config)
    xi = _resolve(config, "xi", args.xi, float)
    if xi is None:
        raise InputError("curve requires --xi (or config 'xi')")
    _require_exp_range(xi, "--xi" if args.xi is not None else "config field 'xi'")
    phi_steps = _resolve(config, "phi_steps", args.phi_steps, as_integer, PHI_STEPS)
    curve = trace_spectral_curve(chain, xi, phi_steps=phi_steps)
    buf = io.StringIO()
    curve.to_csv(buf)
    _emit(buf.getvalue(), args.csv)
    if args.svg is not None:
        _emit(_curve_svg(curve), args.svg)
    if args.json is not None:
        doc = {"schema_version": SCHEMA_VERSION, "command": "curve",
               "model": model_summary, "xi": xi, "phi_steps": phi_steps,
               "n_loops": curve.n_loops, "ambiguous": curve.ambiguous,
               "notes": list(curve.notes)}
        _emit(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# exponents

def _cmd_exponents(args) -> int:
    config = _load_config(args.config)
    chain, model_summary = _build_chain(config)
    energy = _require_energy(args, config)
    if args.jensen_xi is not None:
        _require_exp_range(args.jensen_xi, "--jensen-xi")
    spectrum = exponent_spectrum(chain, energy)
    if args.csv is not None:
        buf = io.StringIO()
        exponent_csv(spectrum, buf)
        _emit(buf.getvalue(), args.csv)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "exponents",
        "model": model_summary,
        "energy": energy,
        # periodic QR is the only route; both keys keep the report's schema
        "method": "periodic",
        "xi": spectrum.xi,
        "sum": spectrum.sum,
        "sum_rule": sum_rule_value(chain),
        "phase_reliable": True,
    }
    if args.jensen_xi is not None:
        quad = _resolve(config, "quad_points", args.quad_points, as_integer,
                        QUAD_POINTS)
        report = jensen_identity_check(spectrum, args.jensen_xi, quad_points=quad)
        doc["jensen"] = report.to_dict()
    _emit(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# bounds

def _cmd_bounds(args) -> int:
    config = _load_config(args.config)
    chain, model_summary = _build_chain(config)
    energy = _require_energy(args, config)
    corner = check_corner_decay(chain, energy)
    dich = dichotomy(chain, energy, params=corner.params)
    counts_ok = (dich.count_above == chain.m and dich.count_below == chain.m
                 and dich.count_middle == 0)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "bounds",
        "model": model_summary,
        "energy": energy,
        "corner_decay": corner.to_dict(),
        "dichotomy": {**dich.to_dict(), "split_holds": counts_ok},
        "passed": bool(corner.passed),
    }
    _emit(doc, args.json)
    return 0 if corner.passed else 1


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file with a 'model' entry")
    p.add_argument("--json", metavar="FILE", type=_writable,
                   help="write the JSON report here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Refusals (bad flag value, unknown flag, no subcommand) raise
    InputError: exit 2 with one error line, not a usage block."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockflow",
        description="Transfer matrix identities, exponents and decay bounds "
                    "for block tridiagonal chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the determinant identity and "
                                      "consistency checks at one (E, z)")
    _add_common(p)
    p.add_argument("--energy", metavar="RE[,IM]")
    p.add_argument("--z", metavar="RE[,IM]", help="boundary factor; defaults "
                   f"to e^(n xi + i phi) with xi={DEFAULT_XI}, phi={DEFAULT_PHI}")
    p.add_argument("--xi", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--tol-log", type=float, dest="tol_log",
                   help="override the log-modulus tolerance of the "
                        "determinant checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("curve", help="trace the flux loops at fixed xi")
    _add_common(p)
    p.add_argument("--xi", type=float)
    p.add_argument("--phi-steps", type=int, dest="phi_steps")
    p.add_argument("--csv", metavar="FILE", type=_writable, help="CSV output (default stdout)")
    p.add_argument("--svg", metavar="FILE", type=_writable, help="also write a scatter plot")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("exponents", help="characteristic exponents at one energy")
    _add_common(p)
    p.add_argument("--energy", metavar="RE[,IM]")
    p.add_argument("--csv", metavar="FILE", type=_writable, help="write the spectrum as CSV")
    p.add_argument("--jensen-xi", type=float, dest="jensen_xi",
                   help="also evaluate the contour identity at this xi")
    p.add_argument("--quad-points", type=int, dest="quad_points")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("bounds", help="resolvent corner decay and the "
                                      "singular value dichotomy")
    _add_common(p)
    p.add_argument("--energy", metavar="RE[,IM]")
    p.set_defaults(func=_cmd_bounds)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built on first use, not at import, and reused by later calls
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if getattr(args, "energy", None) is not None:
            args.energy = _parse_complex(args.energy, "--energy")
        for flag in ("xi", "phi", "jensen_xi", "tol_log"):
            if getattr(args, flag, None) is not None:
                _require_finite(getattr(args, flag), "--" + flag.replace("_", "-"))
        return args.func(args)
    except (ValueError, ArithmeticError, EigenConvergenceError, MemoryError) as exc:
        # InputError (the parser's refusals too), singular blocks or
        # corners, contours through an exponent, product overflow, values
        # beyond double range, iterations that did not converge and sizes
        # beyond memory
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
