import cmath
import io
import json
import math
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blockflow import (assemble_balanced, assemble_bloch, assemble_open,
                       banded_random, chain_to_spec, check_duality,
                       check_open_duality, check_symmetric_duality,
                       check_transfer_routes, exponent_spectrum, hatano_nelson,
                       lu_logdet, product, trace_spectral_curve)
from blockflow.hamiltonian import log_minus_z
from blockflow.linalg import match_spectra, wrap_phase

from conftest import (clean_chain, complex_energies, property_chains,
                      random_chain, separated_z, z_draws)


def test_duality_on_corpus():
    rng = np.random.default_rng(61)
    for n, m, seed in [(3, 1, 1), (4, 2, 2), (5, 3, 3), (8, 2, 4)]:
        ch = random_chain(n, m, seed)
        for _ in range(3):
            e = complex(rng.normal(), rng.normal())
            z = complex(rng.normal(), rng.normal())
            if abs(z) < 0.1:
                z += 0.5
            rep = check_duality(exponent_spectrum(ch, e), z)
            assert rep.passed, rep.to_dict()
            assert rep.residual_log <= 1e-9
            assert rep.residual_phase <= 1e-8 * n * m


def test_open_duality_on_corpus():
    rng = np.random.default_rng(62)
    cases = [(random_chain(n, m, seed), complex(rng.normal(), rng.normal()))
             for n, m, seed in [(3, 1, 5), (6, 2, 6), (4, 3, 7)]]
    # the plain product overflows at step 924 of the first chain; on the
    # second its T_11 comes out with an exactly zero LU pivot
    cases += [(hatano_nelson(1000, -3.5, 3.5, seed=14), 0.4 + 0.9j),
              (banded_random(160, 4, -1.0, 1.0, seed=544724),
               -0.822128 + 0.347989j)]
    for ch, e in cases:
        rep = check_open_duality(exponent_spectrum(ch, e))
        assert rep.passed, rep.to_dict()


def test_symmetric_duality_on_corpus():
    rng = np.random.default_rng(63)
    cases = []
    for n, m, seed in [(3, 1, 8), (5, 2, 9)]:
        ch = random_chain(n, m, seed)
        e = complex(rng.normal(), rng.normal())
        z = complex(1.1 + rng.uniform(0, 0.5), rng.uniform(-0.5, 0.5))
        cases.append((ch, e, z))
    # the plain product overflows at step 924
    cases.append((hatano_nelson(1000, -3.5, 3.5, seed=14), 0.4 + 0.9j, 1.7 - 0.6j))
    for ch, e, z in cases:
        rep = check_symmetric_duality(exponent_spectrum(ch, e), z)
        assert rep.passed, rep.to_dict()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain=property_chains, energy=complex_energies, draw=z_draws)
def test_identities_hold_at_separated_points(chain, energy, draw):
    # z and 1/z stay e^0.1 away from every |z_k| in modulus and E 0.05 away
    # from the open spectrum, so no determinant is near zero
    spectrum = exponent_spectrum(chain, energy)
    z, margin = separated_z(spectrum, draw)
    assume(margin >= 0.1)
    assume(np.min(np.abs(np.linalg.eigvals(assemble_open(chain)) - energy)) >= 0.05)
    for rep in (check_duality(spectrum, z), check_symmetric_duality(spectrum, z),
                check_open_duality(spectrum)):
        assert rep.passed, rep.to_dict()


def test_two_site_ring_is_gated():
    ch = random_chain(2, 2, seed=10)
    spectrum = exponent_spectrum(ch, 0.1)
    with pytest.raises(ValueError, match="n >= 3"):
        check_duality(spectrum, 1.5)
    with pytest.raises(ValueError, match="n >= 3"):
        check_symmetric_duality(spectrum, 1.5)
    # the open-chain identity has no corner overlap and stays available
    assert check_open_duality(exponent_spectrum(ch, 0.37 + 0.21j)).passed


def test_two_site_identity_holds_algebraically():
    # with summed corners the determinant identity itself survives at
    # n = 2 even though the library gates the check
    ch = random_chain(2, 1, seed=11)
    e, z = 0.4 - 0.6j, 1.3 + 0.8j
    t = product(ch, e)
    lhs = lu_logdet(z * np.eye(2) - t)
    for k in range(2):
        lhs = lhs * lu_logdet(ch.b[k])
    rhs = log_minus_z(z, 1) * lu_logdet(e * np.eye(2) - assemble_bloch(ch, z))
    assert lhs.log_modulus == pytest.approx(rhs.log_modulus, abs=1e-9)
    assert wrap_phase(lhs.phase - rhs.phase) == pytest.approx(0.0, abs=1e-9)


def test_transfer_eigenvalue_is_ring_zero():
    # z in sp(T(E)) exactly when E in sp(H(z))
    ch = random_chain(5, 2, seed=12)
    e = 0.25 + 0.45j
    t = product(ch, e)
    for z in np.linalg.eigvals(t)[:2]:
        ring = assemble_bloch(ch, z)
        gap = np.min(np.abs(np.linalg.eigvals(ring) - e))
        assert gap <= 1e-7 * (1 + np.max(np.abs(ring)))


def test_duality_extreme_boundary_factor():
    ch = random_chain(4, 1, seed=13)
    z = math.exp(300.0) * complex(math.cos(0.5), math.sin(0.5))
    rep = check_duality(exponent_spectrum(ch, 0.3 + 0.2j), z)
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("z", [1e-310, 1e-320])
def test_identities_hold_at_subnormal_z(z):
    # 1/z overflows double range here: the symmetric form takes -log z
    ch = random_chain(12, 1, seed=7)
    spectrum = exponent_spectrum(ch, 0.4 + 0.3j)
    for check in (check_duality, check_symmetric_duality):
        rep = check(spectrum, z)
        assert rep.passed, rep.to_dict()
        assert math.isfinite(rep.lhs.log_modulus)


def test_duality_at_deeply_subnormal_complex_z():
    # abs(z) keeps about two digits of |z| = 6.96e-320 (the prefactor
    # log|z| was then off by 3e-5); cmath.log(z) keeps them all
    ch = random_chain(3, 1, seed=0)
    rep = check_duality(exponent_spectrum(ch, 0.3 + 0.2j), cmath.rect(6.96e-320, 2.5))
    assert rep.passed, rep.to_dict()
    assert rep.residual_log <= 1e-12


def test_duality_product_overflow_fallback():
    # long disordered chain: the plain product overflows, the stabilized
    # eigenvalues do not, and the identity holds at the default tolerances
    ch = hatano_nelson(700, -3.5, 3.5, seed=14)
    rep = check_duality(exponent_spectrum(ch, 0.4 + 0.9j), 1.7 - 0.6j)
    assert rep.passed, rep.to_dict()


def test_transfer_routes_on_corpus():
    for n, m, seed in [(4, 1, 15), (6, 2, 16), (5, 3, 17)]:
        ch = random_chain(n, m, seed)
        rep = check_transfer_routes(ch, 0.3 + 0.6j)
        assert rep.passed, rep.to_dict()


def test_duality_rejects_zero_z():
    ch = random_chain(3, 1, seed=18)
    with pytest.raises(ValueError):
        check_duality(exponent_spectrum(ch, 0.1), 0.0)


# ---------------------------------------------------------------------------
# spectral curves

def test_clean_ring_traces_one_loop():
    # all n eigenvalues lie on one ellipse and the flux permutes them
    # cyclically: a single closed loop
    curve = trace_spectral_curve(clean_chain(16), xi=0.5, phi_steps=64)
    assert curve.n_loops == 1
    assert not curve.ambiguous
    # the loop is the ellipse 2*cosh(xi + i*theta)
    for e in curve.samples.ravel():
        theta = math.atan2(e.imag / (2 * math.sinh(0.5)),
                           e.real / (2 * math.cosh(0.5)))
        want = complex(2 * math.cosh(0.5) * math.cos(theta),
                       2 * math.sinh(0.5) * math.sin(theta))
        assert abs(e - want) <= 1e-8


def test_localized_regime_traces_trivial_loops():
    # strong disorder at tiny xi: every eigenvalue returns to itself
    ch = hatano_nelson(30, -6.0, 6.0, seed=19)
    curve = trace_spectral_curve(ch, xi=0.01, phi_steps=32)
    assert curve.n_loops == 30
    assert np.all(curve.loop_id >= 0)


def test_curve_csv_format_and_determinism():
    ch = hatano_nelson(12, -2.0, 2.0, seed=20)
    curve = trace_spectral_curve(ch, xi=0.3, phi_steps=16)
    buf1, buf2 = io.StringIO(), io.StringIO()
    curve.to_csv(buf1)
    trace_spectral_curve(ch, xi=0.3, phi_steps=16).to_csv(buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# blockflow-csv v1"
    assert lines[2] == "phi,re_E,im_E,loop_id"
    assert len(lines) == 3 + 16 * 12
    first = lines[3].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1]), float(first[2]), int(first[3])


def _full_sweep(chain, xi, phis):
    """The ring spectra with one eigensolve per angle: the oracle for the
    conjugate mirror of real-block chains."""
    return np.array([np.linalg.eigvals(assemble_balanced(
        chain, cmath.exp(complex(xi, phi / chain.n)))) for phi in phis])


@pytest.mark.parametrize("phi_steps", [8, 13, 16])
def test_curve_solves_one_spectrum_per_angle(monkeypatch, phi_steps):
    # phi = 2 pi closes on the phi = 0 spectrum, not on a fresh eigensolve;
    # real blocks solve j = 0..N//2 and take phi_{N-j} as the conjugate of
    # phi_j, complex blocks solve every angle
    import blockflow.duality as duality

    calls = []
    original = duality.assemble_balanced

    def counted(chain, w):
        calls.append(w)
        return original(chain, w)

    monkeypatch.setattr(duality, "assemble_balanced", counted)
    trace_spectral_curve(hatano_nelson(12, -2.0, 2.0, seed=20), xi=0.3,
                         phi_steps=phi_steps)
    assert len(calls) == phi_steps // 2 + 1
    calls.clear()
    explicit = chain_to_spec(random_chain(5, 2, seed=21)).build()
    assert np.any(explicit.b.imag)
    trace_spectral_curve(explicit, xi=0.3, phi_steps=phi_steps)
    assert len(calls) == phi_steps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 10), m=st.integers(1, 3), phi_steps=st.integers(8, 40),
       real=st.booleans(), xi=st.floats(-1.0, 1.0), seed=st.integers(0, 10**6))
def test_curve_matches_full_sweep(n, m, phi_steps, real, xi, seed):
    import blockflow.duality as duality

    chain = random_chain(n, m, seed, complex_entries=not real)
    got = trace_spectral_curve(chain, xi, phi_steps)
    with mock.patch.object(duality, "_ring_spectra", _full_sweep):
        want = trace_spectral_curve(chain, xi, phi_steps)
    assert np.array_equal(got.loop_id, want.loop_id)
    assert got.n_loops == want.n_loops
    assert got.ambiguous == want.ambiguous
    scale = np.max(np.abs(want.samples))
    assert np.max(np.abs(got.samples - want.samples)) <= 1e-12 * scale


def _greedy_perm(prev, curr):
    pairs, _, _, _ = match_spectra(prev, curr, tol=math.inf)
    perm = np.empty(len(prev), dtype=int)
    for i, j in pairs:
        perm[i] = j
    return perm


def _check_link(prev, curr, tol):
    import blockflow.duality as duality

    perm, ambiguous = duality._link(prev, curr, tol)
    assert np.array_equal(perm, _greedy_perm(prev, curr))
    nearest = np.partition(np.abs(prev[:, None] - curr[None, :]), 1, axis=1)
    assert ambiguous == np.flatnonzero(nearest[:, 1] - nearest[:, 0] < tol).tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 12), noise=st.sampled_from([1e-9, 1e-3, 0.1, 1.0]),
       seed=st.integers(0, 10**6))
def test_link_matches_greedy_matching(size, noise, seed):
    # curr is a shuffled, perturbed prev: small noise takes the argmin path,
    # noise near the spacing makes argmins collide and slots near-tie
    rng = np.random.default_rng(seed)
    prev = rng.normal(size=size) + 1j * rng.normal(size=size)
    curr = rng.permutation(prev) + noise * (rng.normal(size=size)
                                            + 1j * rng.normal(size=size))
    _check_link(prev, curr, 1e-7 * (1 + np.max(np.abs(prev))))


@pytest.mark.parametrize("prev, curr", [
    # both rows are nearest to curr[0]: the argmins collide
    ([0.0, 0.1], [0.04, 1.0]),
    # row 0 near-ties between curr[0] and curr[1]
    ([0.0, 5.0, 9.0], [0.5, -0.5 + 1e-12, 5.1]),
])
def test_link_falls_back_to_greedy_matching(monkeypatch, prev, curr):
    import blockflow.duality as duality

    calls = []
    original = duality.match_spectra

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(duality, "match_spectra", counted)
    _check_link(np.array(prev, dtype=complex), np.array(curr, dtype=complex), 1e-7)
    assert len(calls) == 1


def test_curve_rejects_too_few_steps():
    with pytest.raises(ValueError):
        trace_spectral_curve(clean_chain(4), xi=0.5, phi_steps=4)


# ---------------------------------------------------------------------------
# forked ring eigensolves

_FORK = os.fork


def _route(monkeypatch, cpus, min_work=None):
    """Make the slice gate see ``cpus`` usable CPUs and one thread (and,
    with ``min_work``, that fork threshold); returns the list of worker
    pids the curve forks."""
    import blockflow.duality as duality

    forks = []

    def counted():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(duality, "_single_threaded", lambda: True)
    if min_work is not None:
        monkeypatch.setattr(duality, "MIN_FORK_WORK", min_work)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("phi_steps", [13, 16])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_forked_and_serial_curves_are_bitwise_equal(monkeypatch, complex_entries,
                                                    phi_steps):
    chain = random_chain(6, 2, seed=31, complex_entries=complex_entries)
    forks = _route(monkeypatch, cpus=2, min_work=0)
    forked = trace_spectral_curve(chain, 0.3, phi_steps)
    assert len(forks) == 1
    _assert_no_child_left()
    forks = _route(monkeypatch, cpus=1)
    serial = trace_spectral_curve(chain, 0.3, phi_steps)
    assert forks == []
    assert forked.samples.tobytes() == serial.samples.tobytes()
    assert np.array_equal(forked.loop_id, serial.loop_id)


@pytest.mark.parametrize("failure", ["raises", "exits", "killed", "unforkable"])
def test_failed_worker_leaves_the_serial_result(monkeypatch, failure):
    # the worker of the second slice fails before sending its rows, or
    # cannot be forked at all; the caller solves that slice itself
    import blockflow.duality as duality

    chain = random_chain(6, 2, seed=32)
    serial = trace_spectral_curve(chain, 0.3, 16)
    caller = os.getpid()
    assemble = duality.assemble_balanced

    def failing(chain, w):
        if os.getpid() != caller:
            if failure == "raises":
                raise RuntimeError("worker failed")
            if failure == "exits":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        return assemble(chain, w)

    def unforkable():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(duality, "assemble_balanced", failing)
    forks = _route(monkeypatch, cpus=2, min_work=0)
    if failure == "unforkable":
        monkeypatch.setattr(os, "fork", unforkable)
    got = trace_spectral_curve(chain, 0.3, 16)
    assert len(forks) == (failure != "unforkable")
    _assert_no_child_left()
    assert got.samples.tobytes() == serial.samples.tobytes()


@pytest.mark.parametrize("bad_row", [1, 6], ids=["caller-slice", "worker-slice"])
def test_failed_eigensolve_keeps_the_serial_exit_code(tmp_path, capsys, monkeypatch,
                                                      bad_row):
    # one angle's eigensolve fails wherever it runs: the forked route exits
    # with the serial route's code and message, and leaves no worker behind
    import blockflow.duality as duality
    from blockflow.cli import main

    model = {"kind": "random-tridiag", "n": 12, "seed": 7, "interval": [-2, 2]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model}))
    phis = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    bad_w = cmath.exp(complex(0.3, phis[bad_row] / 12))
    assemble = duality.assemble_balanced

    def failing(chain, w):
        if w == bad_w:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return assemble(chain, w)

    monkeypatch.setattr(duality, "assemble_balanced", failing)
    argv = ["curve", "--config", str(cfg), "--xi", "0.3", "--phi-steps", "16"]
    outcomes = []
    for cpus in (1, 2):
        forks = _route(monkeypatch, cpus=cpus, min_work=0)
        code = main(argv)
        outcomes.append((code, capsys.readouterr()))
        assert len(forks) == cpus - 1
        _assert_no_child_left()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2
    assert outcomes[0][1].out == ""
    assert outcomes[0][1].err == "error: Eigenvalues did not converge\n"


def test_short_curves_never_fork(monkeypatch):
    # the largest short-corpus curves, nm = 36 at 16 angles, stay in one
    # process even on two CPUs; a 96-angle curve at nm = 80 forks
    def no_fork():
        raise AssertionError("a short curve forked")

    forks = _route(monkeypatch, cpus=2)
    monkeypatch.setattr(os, "fork", no_fork)
    for complex_entries in (False, True):
        trace_spectral_curve(random_chain(12, 3, seed=33, complex_entries=complex_entries),
                             0.3, 16)
    forks = _route(monkeypatch, cpus=2)
    trace_spectral_curve(hatano_nelson(80, -3.5, 3.5, seed=34), 0.0933, 96)
    assert len(forks) == 1
    _assert_no_child_left()
