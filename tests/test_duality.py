import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from blockflow import (assemble_bloch, assemble_open, banded_random,
                       check_duality, check_open_duality,
                       check_symmetric_duality, check_transfer_routes,
                       exponent_spectrum, hatano_nelson, lu_logdet, product,
                       trace_spectral_curve)
from blockflow.hamiltonian import log_minus_z
from blockflow.linalg import wrap_phase

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
            rep = check_duality(ch, e, z)
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
        rep = check_open_duality(ch, e)
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
        rep = check_symmetric_duality(ch, e, z)
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
    for rep in (check_duality(chain, energy, z, spectrum=spectrum),
                check_symmetric_duality(chain, energy, z, spectrum=spectrum),
                check_open_duality(chain, energy)):
        assert rep.passed, rep.to_dict()


def test_two_site_ring_is_gated():
    ch = random_chain(2, 2, seed=10)
    with pytest.raises(ValueError, match="n >= 3"):
        check_duality(ch, 0.1, 1.5)
    with pytest.raises(ValueError, match="n >= 3"):
        check_symmetric_duality(ch, 0.1, 1.5)
    # the open-chain identity has no corner overlap and stays available
    assert check_open_duality(ch, 0.37 + 0.21j).passed


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
    rep = check_duality(ch, 0.3 + 0.2j, z)
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("z", [1e-310, 1e-320])
def test_identities_hold_at_subnormal_z(z):
    # 1/z overflows double range here: the symmetric form takes -log z
    ch = random_chain(12, 1, seed=7)
    for check in (check_duality, check_symmetric_duality):
        rep = check(ch, 0.4 + 0.3j, z)
        assert rep.passed, rep.to_dict()
        assert math.isfinite(rep.lhs.log_modulus)


def test_duality_product_overflow_fallback():
    # long disordered chain: the plain product overflows, the stabilized
    # eigenvalues do not
    ch = hatano_nelson(700, -3.5, 3.5, seed=14)
    rep = check_duality(ch, 0.4 + 0.9j, 1.7 - 0.6j, tol_log=1e-5,
                        tol_phase=1e-3)
    assert rep.passed, rep.to_dict()


def test_transfer_routes_on_corpus():
    for n, m, seed in [(4, 1, 15), (6, 2, 16), (5, 3, 17)]:
        ch = random_chain(n, m, seed)
        rep = check_transfer_routes(ch, 0.3 + 0.6j)
        assert rep.passed, rep.to_dict()


def test_duality_rejects_zero_z():
    ch = random_chain(3, 1, seed=18)
    with pytest.raises(ValueError):
        check_duality(ch, 0.1, 0.0)


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


@pytest.mark.parametrize("phi_steps", [8, 16])
def test_curve_solves_one_spectrum_per_angle(monkeypatch, phi_steps):
    # phi = 2 pi closes on the phi = 0 spectrum, not on a fresh eigensolve
    import blockflow.duality as duality

    calls = []
    original = duality.assemble_balanced

    def counted(chain, w):
        calls.append(w)
        return original(chain, w)

    monkeypatch.setattr(duality, "assemble_balanced", counted)
    trace_spectral_curve(hatano_nelson(12, -2.0, 2.0, seed=20), xi=0.3,
                         phi_steps=phi_steps)
    assert len(calls) == phi_steps


def test_curve_rejects_too_few_steps():
    with pytest.raises(ValueError):
        trace_spectral_curve(clean_chain(4), xi=0.5, phi_steps=4)
