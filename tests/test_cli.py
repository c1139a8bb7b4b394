import json

import numpy as np
import pytest

from blockflow.cli import main

from conftest import random_chain


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def tridiag_config(tmp_path):
    return write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3],
    })


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


@pytest.mark.parametrize("command, extra, key", [
    ("curve", {"xi": 0.3, "phi_step": 16}, "'phi_step'"),
    ("exponents", {"method": "cyclic"}, "'method'"),
])
def test_unknown_config_key_is_input_error(tmp_path, capsys, command, extra, key):
    # a misspelt or retired key must not fall back to a default silently
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


def test_one_config_drives_all_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], "z": [1.2, 0.1], "xi": 0.3, "phi": 0.5,
        "phi_steps": 8, "quad_points": 64})
    for command in ("verify", "exponents", "bounds", "curve"):
        assert main([command, "--config", cfg]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("energy", ["1e300", "1e100", "1e20"])
def test_bounds_beyond_double_range_is_named(tridiag_config, capsys, energy):
    # far from the spectrum sigma^2 of h - E (1e300) or the 2ab of the
    # Demko constant (1e100) overflows, or q rounds to 0 (1e20)
    rc = main(["bounds", "--config", tridiag_config, "--energy", energy])
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
])
def test_out_of_range_xi_is_named(tmp_path, capsys, argv, config_extra, named):
    # e^(xi) beyond double range: exit 2 with one error line naming the input
    cfg = write_config(tmp_path, {
        "model": {"kind": "random-tridiag", "n": 10, "seed": 7,
                  "interval": [-2, 2]},
        "energy": [0.4, 0.3], **config_extra})
    rc = main([argv[0], "--config", cfg, *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


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
    # periodic QR is the only route: argparse refuses the old flag
    with pytest.raises(SystemExit) as exc:
        main(["exponents", "--config", tridiag_config, "--method", "cyclic"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_exponents_jensen_block(tridiag_config, capsys):
    rc = main(["exponents", "--config", tridiag_config, "--jensen-xi", "0.02",
               "--quad-points", "128"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["jensen"]["quad_points"] == 128
    assert doc["jensen"]["residual"] <= 1e-6


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

    monkeypatch.setattr(transfer._orthogonalize_graded, "__defaults__", (1e-15, 0))
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
