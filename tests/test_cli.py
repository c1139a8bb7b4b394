import contextlib
import io
import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockflow import BlockChain, chain_to_spec
from blockflow.cli import main

from conftest import hermitian_chain, random_chain


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRIDIAG = {"kind": "random-tridiag", "n": 10, "seed": 7, "interval": [-2, 2]}
#: exactly Hermitian: bounds takes its interval from the band spectrum
STRIP = {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5}


@pytest.fixture
def tridiag_config(tmp_path):
    return write_config(tmp_path, {"model": TRIDIAG, "energy": [0.4, 0.3]})


def test_verify_passes_and_reports(tridiag_config, capsys):
    rc = main(["verify", "--config", tridiag_config])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["passed"] is True
    names = [c["check"] for c in doc["checks"]]
    assert {"transfer-routes", "open-duality", "duality",
            "symmetric-duality", "exponent-sum-rule"} <= set(names)


def test_verify_flag_overrides_config(tridiag_config, capsys):
    rc = main(["verify", "--config", tridiag_config, "--energy", "0.1,0.9",
               "--z", "1.5,-0.3"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["energy"] == [0.1, 0.9]
    assert doc["z"] == [1.5, -0.3]


def test_verify_tightened_tolerance_fails(tridiag_config, capsys):
    rc = main(["verify", "--config", tridiag_config, "--tol-log", "1e-18"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["passed"] is False


def test_verify_two_site_ring_notice(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 2, "seed": 3,
                  "interval": [-1, 1]},
        "energy": [0.2, 0.4],
    })
    rc = main(["verify", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert any("n = 2" in note for note in doc["notices"])
    assert all(c["check"] not in ("duality", "symmetric-duality")
               for c in doc["checks"])


def test_verify_hermitian_checks_appear(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5},
        "energy": [0.3, 1.0],
    })
    rc = main(["verify", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    names = [c["check"] for c in doc["checks"]]
    assert "E" in doc["checks"][0]
    assert any("margin" in c for c in doc["checks"])  # unit-circle exclusion ran
    assert names.count("transfer-routes") == 1


@pytest.mark.parametrize("model, energy", [
    ({"kind": "hatano-nelson", "n": 60, "seed": 14, "interval": [-3.5, 3.5]},
     [0.4, 0.9]),
    # Hermitian: unit-circle exclusion at complex E, pairing at real E
    ({"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5}, [0.3, 1.0]),
    ({"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5}, [0.3, 0.0]),
])
def test_verify_computes_the_spectrum_once(tmp_path, capsys, monkeypatch,
                                           model, energy):
    import blockflow.exponents as exponents

    calls = []
    original = exponents.eigenvalues_stabilized

    def counted(chain, e):
        calls.append(e)
        return original(chain, e)

    monkeypatch.setattr(exponents, "eigenvalues_stabilized", counted)
    cfg = write_config(tmp_path, {"model": model, "energy": energy})
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("model, energy", [
    ({"kind": "hatano-nelson", "n": 60, "seed": 14, "interval": [-3.5, 3.5]},
     [0.4, 0.9]),
    ({"kind": "banded-random", "n": 18, "m": 3, "seed": 4, "interval": [-1, 1]},
     [0.3, 0.5]),
])
def test_verify_runs_one_periodic_factorization(tmp_path, capsys, monkeypatch,
                                                model, energy):
    # open duality takes det T_11 from the spectrum's first sweep: no
    # check runs a periodic QR sweep of its own
    import blockflow.exponents as exponents
    import blockflow.transfer as transfer

    spectra, sweeps = [], []
    original_spectrum = exponents.eigenvalues_stabilized
    original_sweep = transfer._periodic_sweep

    def counted_spectrum(chain, e):
        spectra.append(original_spectrum(chain, e))
        return spectra[-1]

    def counted_sweep(step_mats, q0):
        sweeps.append(q0.shape)
        return original_sweep(step_mats, q0)

    monkeypatch.setattr(exponents, "eigenvalues_stabilized", counted_spectrum)
    monkeypatch.setattr(transfer, "_periodic_sweep", counted_sweep)
    cfg = write_config(tmp_path, {"model": model, "energy": energy})
    assert main(["verify", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "open-duality" in [c["check"] for c in doc["checks"]]
    assert len(spectra) == 1
    assert len(sweeps) == spectra[0].sweeps
    assert all(rows == cols for rows, cols in sweeps)


def test_bounds_computes_the_demko_params_once(tmp_path, capsys, monkeypatch):
    # check_corner_decay hands its parameters of h - E on to dichotomy
    import blockflow.bounds as bounds

    calls = []
    original = bounds.demko_params_general

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(bounds, "demko_params_general", counted)
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 48, "seed": 11,
                  "interval": [-2, 2]},
        "energy": [0.2, 1.0]})
    assert main(["bounds", "--config", cfg]) == 0
    capsys.readouterr()
    assert calls == [(48, 48)]


def _near_hermitian_model():
    chain = hermitian_chain(8, 2, seed=84)
    a = chain.a.copy()
    a[3, 0, 1] += 1e-14
    near = BlockChain(a=a, b=chain.b, c=chain.c)
    assert near.is_hermitian()
    return chain_to_spec(near).to_dict()


@pytest.mark.parametrize("model, dense", [
    (STRIP, False),
    ({"kind": "hatano-nelson", "n": 60, "seed": 14, "interval": [-3.5, 3.5]}, False),
    (chain_to_spec(hermitian_chain(8, 2, seed=84)).to_dict(), False),
    (TRIDIAG, True),
    # Hermitian within is_hermitian's 1e-12, but not to the last bit
    (_near_hermitian_model(), True),
], ids=["strip", "hatano-nelson", "explicit", "tridiag", "near-hermitian"])
def test_only_non_hermitian_bounds_take_the_dense_svd(tmp_path, capsys, monkeypatch,
                                                      model, dense):
    # an exactly Hermitian h takes its interval from the band spectrum
    import blockflow.bounds as bounds

    calls = []
    for name in ("assemble_open", "singular_values"):
        def counted(*args, _name=name, _original=getattr(bounds, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(bounds, name, counted)
    cfg = write_config(tmp_path, {"model": model, "energy": [0.4, 0.3]})
    assert main(["bounds", "--config", cfg]) == 0
    capsys.readouterr()
    assert calls == (["assemble_open", "singular_values"] if dense else [])


def test_verify_runs_every_identity_past_product_overflow(tmp_path, capsys):
    # the plain product overflows at step 924: only the two checks that
    # compare formed products are skipped, and the report is kept
    cfg = write_config(tmp_path, {
        "model": {"kind": "hatano-nelson", "n": 1000, "interval": [-3.5, 3.5],
                  "seed": 14},
        "energy": [0.4, 0.9], "z": [1.7, -0.6]})
    rc = main(["verify", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [c["check"] for c in doc["checks"]] == [
        "open-duality", "duality", "symmetric-duality", "exponent-sum-rule",
        "unit-circle-exclusion"]
    assert doc["notices"] == [
        f"{name} skipped: transfer product overflowed at step 924 of 1000"
        for name in ("transfer-routes", "symplectic")]


def test_parser_is_built_once(tridiag_config, capsys, monkeypatch):
    import blockflow.cli as cli

    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["exponents", "--config", tridiag_config]) == 0
    assert main(["bounds", "--config", tridiag_config]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_missing_energy_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 6, "seed": 1,
                  "interval": [-1, 1]}})
    rc = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert "energy" in err


def test_singular_explicit_block_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "explicit",
                  "A": [[[0.0]], [[0.0]], [[0.0]]],
                  "B": [[[1.0]], [[0.0]], [[1.0]]],
                  "C": [[[1.0]], [[1.0]], [[1.0]]]},
        "energy": [0.1, 0.1]})
    rc = main(["verify", "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 2
    assert "singular" in err


def test_bad_complex_flag(tridiag_config, capsys):
    rc = main(["verify", "--config", tridiag_config, "--energy", "zap"])
    assert rc == 2


def test_block_size_below_one_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "banded-random", "n": 12, "m": 0, "seed": 1,
                  "interval": [-1, 1]},
        "energy": [0.1, 0.1]})
    rc = main(["verify", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: bad model: m must be at least 1, got 0\n"


@pytest.mark.parametrize("model", [
    {"kind": "random-tridiag", "n": 12, "seed": 7, "interval": [-5e-4, 5e-4]},
    {"kind": "banded-random", "n": 12, "m": 3, "seed": 7,
     "interval": [-0.09, 0.05]},
    # passes the up-front check, then exhausts the band redraws
    {"kind": "banded-random", "n": 12, "m": 3, "seed": 7,
     "interval": [-0.1, 0.05]},
])
def test_interval_with_no_accepted_draw_is_input_error(tmp_path, capsys, model):
    cfg = write_config(tmp_path, {"model": model, "energy": [0.4, 0.3]})
    rc = main(["verify", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: bad model: interval ")
    assert captured.err.count("\n") == 1


def test_non_integral_size_is_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "anderson-strip", "n": 4.9, "m": 2, "w": 1,
                  "seed": 1},
        "energy": [0.1, 0.1]})
    rc = main(["verify", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: bad model: model field 'n' must be an "
                            "integer, got 4.9\n")


@pytest.mark.parametrize("field, value", [
    # a JSON integer float() cannot hold raises OverflowError
    ("w", 10 ** 400),
    ("interval", 3),
    ("interval", [-2, 2, 3]),
    ("interval", [-2, "x"]),
], ids=["w-beyond-double", "interval-number", "interval-triple", "interval-string"])
def test_malformed_model_value_names_its_field(tmp_path, capsys, field, value):
    model = {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5}
    if field == "interval":
        model = {"kind": "random-tridiag", "n": 10, "seed": 7}
    cfg = write_config(tmp_path, {"model": {**model, field: value},
                                  "energy": [0.1, 0.1]})
    rc = main(["verify", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: bad model: model field {field!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, extra, key", [
    ("curve", {"xi": 0.3, "phi_step": 16}, "'phi_step'"),
    ("exponents", {"method": "cyclic"}, "'method'"),
    # a model key its kind does not take: m = 3 built an m = 1 chain, and a
    # stray w was echoed into the report's model summary
    ("verify", {"model": {"kind": "hatano-nelson", "n": 10, "seed": 7,
                          "interval": [-2, 2], "m": 3}}, "'m'"),
    ("verify", {"model": {"kind": "hatano-nelson", "n": 10, "seed": 7,
                          "interval": [-2, 2], "w": 5}}, "'w'"),
    ("bounds", {"model": {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0,
                          "seed": 5, "mm": 3}}, "'mm'"),
])
def test_unknown_config_key_is_input_error(tmp_path, capsys, command, extra, key):
    # a misspelt, retired or unused key must not fall back to a default
    # silently
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], **extra})
    rc = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err and "unknown key" in captured.err


#: (command arguments, config key) for the two integer config keys
INTEGER_KEYS = [(["curve", "--xi", "0.3"], "phi_steps"),
                (["exponents", "--jensen-xi", "0.02"], "quad_points")]


@pytest.mark.parametrize("argv, key", INTEGER_KEYS)
@pytest.mark.parametrize("value", [16.9, 12.5, True, "16"])
def test_non_integral_config_integer_is_input_error(tmp_path, capsys, argv, key, value):
    # refused, not truncated: 16.9 used to trace 16 angles and exit 0
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], key: value})
    rc = main([argv[0], "--config", cfg, *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: config field {key!r}: must be an integer, "
                            f"got {value!r}\n")


@pytest.mark.parametrize("argv, key", INTEGER_KEYS)
def test_integral_float_config_integer_passes(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], key: 16.0})
    rc = main([argv[0], "--config", cfg, *argv[1:], "--json", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    got = doc["phi_steps"] if key == "phi_steps" else doc["jensen"]["quad_points"]
    assert got == 16 and isinstance(got, int)


def test_one_config_drives_all_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], "z": [1.2, 0.1], "xi": 0.3, "phi": 0.5,
        "phi_steps": 8, "quad_points": 64})
    for command in ("verify", "exponents", "bounds", "curve"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("model, energy", [
    *(pytest.param(TRIDIAG, e, id=e) for e in ("1e300", "1e100", "1e20")),
    *(pytest.param(STRIP, e, id=f"strip-{e}") for e in ("1e300", "1e100", "1e20")),
])
def test_bounds_beyond_double_range_is_named(tmp_path, capsys, model, energy):
    # far from the spectrum sigma^2 of h - E (1e300) or the 2ab of the
    # Demko constant (1e100) overflows, or q rounds to 0 (1e20)
    cfg = write_config(tmp_path, {"model": model, "energy": [0.4, 0.3]})
    rc = main(["bounds", "--config", cfg, "--energy", energy])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    sigma = f"{float(energy):.3e}"
    assert captured.err == ("error: Demko parameters leave double range: "
                            f"sigma_min = {sigma}, sigma_max = {sigma}\n")


def test_missing_config_file(capsys):
    rc = main(["verify", "--config", "/does/not/exist.json"])
    assert rc == 2


def test_curve_csv_svg_and_determinism(tridiag_config, tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    svg = tmp_path / "a.svg"
    js = tmp_path / "a.json"
    rc = main(["curve", "--config", tridiag_config, "--xi", "0.35",
               "--phi-steps", "16", "--csv", str(csv1), "--svg", str(svg),
               "--json", str(js)])
    assert rc == 0
    text = csv1.read_text()
    assert text.startswith("# blockflow-csv v1\n")
    assert "phi,re_E,im_E,loop_id" in text
    doc = json.loads(js.read_text())
    assert doc["schema_version"] == 1
    assert doc["n_loops"] >= 1
    body = svg.read_text()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")
    csv2 = tmp_path / "b.csv"
    rc = main(["curve", "--config", tridiag_config, "--xi", "0.35",
               "--phi-steps", "16", "--csv", str(csv2)])
    assert rc == 0
    assert csv2.read_bytes() == csv1.read_bytes()


def test_curve_requires_xi(tridiag_config, capsys):
    rc = main(["curve", "--config", tridiag_config])
    assert rc == 2


def test_curve_csv_to_stdout(tridiag_config, capsys):
    rc = main(["curve", "--config", tridiag_config, "--xi", "0.4",
               "--phi-steps", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# blockflow-csv v1\n")


def test_curve_overflowing_xi_is_input_error(tridiag_config, capsys):
    # e^(xi + i phi / n) leaves double range: exit 2 with one error line
    rc = main(["curve", "--config", tridiag_config, "--xi", "1e6"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config_extra, named", [
    (["curve", "--xi", "800"], {}, "--xi"),
    (["curve", "--xi=-800"], {}, "--xi"),
    (["curve"], {"xi": 800.0}, "config field 'xi'"),
    (["exponents", "--jensen-xi=1e6"], {}, "--jensen-xi"),
    (["exponents", "--jensen-xi=-1e6"], {}, "--jensen-xi"),
    # flag values the parser refuses, and an unknown flag
    (["curve", "--xi", "0.3", "--phi-steps", "16.5"], {}, "--phi-steps"),
    (["exponents", "--jensen-xi", "0.02", "--quad-points", "x"], {}, "--quad-points"),
    (["verify", "--xi", "x"], {}, "--xi"),
    (["bounds", "--phi-steps", "16"], {}, "--phi-steps"),
    # a negative tolerance would fail every check: bad input, not a failure
    (["verify", "--tol-log", "-1"], {}, "--tol-log"),
    # output files that cannot be written: a missing directory, a directory
    (["verify", "--json", "/nonexistent/x.json"], {}, "cannot write /nonexistent/x.json"),
    (["exponents", "--csv", "/nonexistent/x.csv"], {}, "cannot write /nonexistent/x.csv"),
    (["curve", "--xi", "0.1", "--svg", "/nonexistent/x.svg"], {},
     "cannot write /nonexistent/x.svg"),
    (["curve", "--xi", "0.1", "--csv", "."], {}, "cannot write ."),
])
def test_out_of_range_xi_is_named(tmp_path, capsys, argv, config_extra, named):
    # e^(xi) beyond double range, a flag value or flag that is refused, or
    # an output file that cannot be written: exit 2 with one error line
    # naming the input
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], **config_extra})
    rc = main([argv[0], "--config", cfg, *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, written", [
    (["curve", "--xi", "0.1", "--svg", "/nonexistent/x.svg"], None),
    (["curve", "--xi", "0.1", "--csv", "c.csv", "--json", "/nonexistent/x.json"],
     "c.csv"),
    (["exponents", "--csv", "e.csv", "--json", "/nonexistent/x.json"], "e.csv"),
])
def test_unwritable_output_leaves_no_partial_output(tmp_path, capsys, monkeypatch,
                                                    argv, written):
    # every output path is checked before the first one is written
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3]})
    monkeypatch.chdir(tmp_path)
    rc = main([argv[0], "--config", cfg, *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: argument --")
    assert "cannot write /nonexistent/x." in captured.err
    assert captured.err.count("\n") == 1
    if written is not None:
        assert not (tmp_path / written).exists()


@pytest.mark.parametrize("argv, config_extra, named", [
    (["exponents", "--energy", "nan"], {}, "--energy"),
    (["exponents", "--energy", "inf,0"], {}, "--energy"),
    (["exponents", "--jensen-xi=nan"], {}, "--jensen-xi"),
    (["curve", "--xi", "nan"], {}, "--xi"),
    (["verify", "--z", "nan"], {}, "--z"),
    (["verify", "--phi=-inf"], {}, "--phi"),
    (["verify", "--tol-log", "nan"], {}, "--tol-log"),
    (["exponents"], {"energy": [0.4, float("inf")]}, "'energy'"),
    (["verify"], {"z": float("nan")}, "'z'"),
    (["verify"], {"xi": float("nan")}, "'xi'"),
    (["curve"], {"xi": float("inf")}, "'xi'"),
    # model values numpy cannot sample from
    (["verify"], {"model": {"kind": "anderson-strip", "n": 6, "m": 2, "w": "nan",
                            "seed": 5}}, "bad model: model field 'w'"),
    (["verify"], {"model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                            "interval": [-2, float("inf")]}},
     "bad model: model field 'interval'"),
    (["verify"], {"model": {"kind": "banded-random", "n": 12, "m": 3, "seed": 1,
                            "interval": [-1e308, 1e308]}},
     "bad model: model field 'interval'"),
])
def test_nonfinite_input_is_named(tmp_path, capsys, argv, config_extra, named):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], **config_extra})
    rc = main([argv[0], "--config", cfg, *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "finite" in err


def test_exponents_json_and_csv(tridiag_config, tmp_path, capsys):
    csv = tmp_path / "e.csv"
    rc = main(["exponents", "--config", tridiag_config, "--csv", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["xi"]) == 2
    assert abs(doc["sum"] - doc["sum_rule"]) <= 1e-8
    lines = csv.read_text().splitlines()
    assert lines[1] == "k,re_z,im_z,xi,pair_id,log_abs_z,arg_z"


def test_exponents_has_no_route_selector(tridiag_config, capsys):
    # periodic QR is the only route: the old flag is refused
    rc = main(["exponents", "--config", tridiag_config, "--method", "cyclic"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--method" in err


def test_missing_subcommand_is_one_error_line(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err == ("error: the following arguments are "
                                       "required: command\n")
    # --help is not a refusal: it prints the usage and exits 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: blockflow ")


def test_exponents_jensen_block(tridiag_config, capsys):
    rc = main(["exponents", "--config", tridiag_config, "--jensen-xi", "0.02",
               "--quad-points", "128"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["jensen"]["quad_points"] == 128
    assert doc["jensen"]["residual"] <= 1e-6


def test_exponents_impossible_quadrature_is_input_error(tridiag_config, capsys):
    # the node arrays are allocated before any band LU, so this fails at
    # once instead of running one LU per node
    rc = main(["exponents", "--config", tridiag_config, "--jensen-xi", "0.02",
               "--quad-points", "1000000000000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_exponents_contour_on_exponent_is_input_error(tmp_path, capsys):
    # xi exactly on an exponent triggers the contour guard
    from blockflow import chain_to_spec, exponent_spectrum

    ch = random_chain(6, 1, seed=121)
    sp = exponent_spectrum(ch, 0.2 + 0.4j)
    cfg = write_config(tmp_path, {"model": json.loads(chain_to_spec(ch).to_json()),
                                  "energy": [0.2, 0.4]})
    rc = main(["exponents", "--config", cfg, "--jensen-xi",
               repr(float(sp.xi[0]))])
    err = capsys.readouterr().err
    assert rc == 2
    assert "contour" in err or "exponent" in err


def test_bounds_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 48, "seed": 11,
                  "interval": [-2, 2]},
        "energy": [0.2, 1.0]})
    rc = main(["bounds", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"] is True
    assert doc["corner_decay"]["passed"] is True
    assert doc["dichotomy"]["counts"] == {"above": 1, "below": 1, "middle": 0}
    assert doc["dichotomy"]["split_holds"] is True


def test_json_output_deterministic(tridiag_config, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--config", tridiag_config, "--json", str(out1)]) == 0
    assert main(["verify", "--config", tridiag_config, "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_nonfinite_sentinels_in_json():
    from blockflow.cli import _jsonable

    doc = _jsonable({"a": float("-inf"), "b": float("inf"),
                     "c": float("nan"), "d": np.float64(1.5),
                     "e": np.array([1.0, 2.0]), "f": 1.0 + 2.0j})
    assert doc["a"] == "neg_inf"
    assert doc["b"] == "inf"
    assert doc["c"] == "nan"
    assert doc["d"] == 1.5
    assert doc["e"] == [1.0, 2.0]
    assert doc["f"] == [1.0, 2.0]
    json.dumps(doc)


def test_jacobi_non_convergence_is_one_error_line(tmp_path, capsys, monkeypatch):
    # no Jacobi sweep allowed: the graded orthogonalization cannot converge
    from blockflow import transfer

    monkeypatch.setattr(transfer, "MAX_JACOBI_SWEEPS", 0)
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 48, "seed": 11,
                  "interval": [-2, 2]},
        "energy": [0.2, 1.0]})
    rc = main(["bounds", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: graded Jacobi orthogonalization did not "
                            "converge\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "exponents"])
@pytest.mark.parametrize("energy", ["1e308", "-1.7e308", "0,1e308"])
def test_energy_beyond_double_range_is_one_error_line(tridiag_config, capsys,
                                                      command, energy):
    # the one-step matrices overflow: the periodic QR sweep names E and the
    # step instead of leaking a floating-point warning
    rc = main([command, "--config", tridiag_config, f"--energy={energy}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    named = repr(complex(*(float(part) for part in energy.split(","))))
    assert captured.err.startswith("error: periodic QR left double range at step ")
    assert captured.err.endswith(f" of 10 at E={named}\n")
    assert captured.err.count("\n") == 1


def test_out_of_memory_is_one_error_line(tridiag_config, capsys, monkeypatch):
    # stands in for curve --phi-steps 1000000000000, whose arrays would
    # take terabytes
    import blockflow.cli as cli

    def exhausted(chain, xi, phi_steps):
        raise MemoryError(f"cannot hold {phi_steps} angles")

    monkeypatch.setattr(cli, "trace_spectral_curve", exhausted)
    rc = main(["curve", "--config", tridiag_config, "--xi", "0.3",
               "--phi-steps", "1000000000000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: cannot hold 1000000000000 angles\n"


# ---------------------------------------------------------------------------
# in-process fuzz of the exit-code contract

#: small chains of every generated kind, n <= 12
FUZZ_MODELS = [
    {"kind": "random-tridiag", "n": 12, "seed": 7, "interval": [-2, 2]},
    {"kind": "random-tridiag", "n": 2, "seed": 3, "interval": [-1, 1]},
    {"kind": "hatano-nelson", "n": 9, "seed": 14, "interval": [-3.5, 3.5]},
    {"kind": "anderson-strip", "n": 6, "m": 2, "w": 4.0, "seed": 5},
    {"kind": "banded-random", "n": 12, "m": 3, "seed": 4, "interval": [-1, 1]},
]

_REAL = st.floats(-3.0, 3.0)
_COMPLEX = st.tuples(_REAL, _REAL)
#: valid values of each flag and config key, as config values; flags pass
#: them as text.  Counts stay at most 4096: the impossible sizes have tests
_VALID = {"energy": _COMPLEX, "z": _COMPLEX, "xi": _REAL, "phi": _REAL,
          "tol_log": st.floats(0.0, 1.0), "jensen_xi": _REAL,
          "phi_steps": st.sampled_from([8, 13, 16, 64, 4096]),
          "quad_points": st.sampled_from([8, 16, 64, 256, 4096])}
#: the flags of each subcommand, by the config key they share a value with
_FLAGS = {"verify": ("energy", "z", "xi", "phi", "tol_log"),
          "curve": ("xi", "phi_steps"),
          "exponents": ("energy", "jensen_xi", "quad_points"),
          "bounds": ("energy",)}
_CONFIG_KEYS = ("energy", "z", "xi", "phi", "phi_steps", "quad_points")
#: the output-file flags of each subcommand
_OUTPUTS = {"verify": ("json",), "curve": ("json", "csv", "svg"),
            "exponents": ("json", "csv"), "bounds": ("json",)}
_COUNTS = ("phi_steps", "quad_points")
#: non-finite, huge, non-integral, negative and non-numeric values
_BAD = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 16.5, -16, 0,
        "x", "", True, None, [0.3, 1e308], [1, 2, 3]]


def _flag_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_fuzz_keeps_the_exit_code_contract(data):
    # exit 0, 1 or 2; nothing escapes main; stderr (warnings included) is
    # empty on 0 and 1 and exactly one error line on 2.  Each draw is valid
    # but for at most two slots, so every refusal is reached from a report
    # that would otherwise run
    command = data.draw(st.sampled_from(sorted(_FLAGS)), label="command")
    # energy and xi always come from the config, so every subcommand can run
    doc = {"model": data.draw(st.sampled_from(FUZZ_MODELS), label="model"),
           "energy": data.draw(_COMPLEX, label="energy"),
           "xi": data.draw(_REAL, label="xi")}
    flags = {}
    for key in ("z", "phi", *_COUNTS):
        if data.draw(st.booleans(), label=f"config {key}"):
            doc[key] = data.draw(_VALID[key], label=key)
    for key in _FLAGS[command]:
        if data.draw(st.booleans(), label=f"flag {key}"):
            flags[key] = data.draw(_VALID[key], label=key)
    for _ in range(data.draw(st.integers(0, 2), label="bad slots")):
        where = data.draw(st.sampled_from(["config", "flag", "unknown", "output"]),
                          label="where")
        if where == "unknown":
            doc["bogus"] = 1
            flags["bogus"] = ""
            continue
        if where == "output":
            # a file in a directory that does not exist
            output = data.draw(st.sampled_from(_OUTPUTS[command]), label="output")
            flags[output] = "/nonexistent/out"
            continue
        # a key the subcommand reads, from its config or its flag
        keys = [key for key in _FLAGS[command]
                if where == "flag" or key in _CONFIG_KEYS]
        key = data.draw(st.sampled_from(keys), label=f"bad {where}")
        # a count of 1e308 is an impossible size, which has its own tests
        bad = [v for v in _BAD if v != 1e308] if key in _COUNTS else _BAD
        value = data.draw(st.sampled_from(bad), label=f"bad {key}")
        (doc if where == "config" else flags)[key] = value
    argv = [command, *(f"--{key.replace('_', '-')}={_flag_text(value)}"
                       for key, value in flags.items())]
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--config", path])
    lines = err.getvalue().splitlines() + [f"warning: {w.message}" for w in caught]
    assert rc in (0, 1, 2), (argv, doc, rc)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, doc, lines)
    else:
        assert lines == [], (argv, doc, lines)
