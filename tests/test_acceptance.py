"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single PASS/FAIL line with the measured extremes, and
the same lines are echoed in the terminal summary.  Corpora are seed-pinned
so the suite is bit-reproducible.
"""
import math

import numpy as np

from blockflow import (anderson_strip, assemble_balanced, check_corner_decay,
                       check_duality, check_pd_decay, check_symplectic,
                       check_transfer_routes, check_unit_circle_exclusion,
                       corner_blocks, dichotomy, exponent_spectrum,
                       hatano_nelson, jensen_identity_check, lu_logdet,
                       positive_exponent_sum, random_tridiag,
                       singular_values, stabilized_log_singular_values,
                       trace_spectral_curve)
from blockflow.chains import BlockChain

from conftest import hermitian_chain, pd_block_tridiag, random_chain

RESULTS = []


def _report(num, name, ok, detail):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


_CORPUS = None


def duality_corpus():
    """50 chains, 3 <= n <= 8, 1 <= m <= 3, all seed-pinned."""
    global _CORPUS
    if _CORPUS is None:
        chains = []
        for i in range(50):
            pick = np.random.default_rng(2000 + i)
            n = int(pick.integers(3, 9))
            m = int(pick.integers(1, 4))
            chains.append(random_chain(n, m, seed=3000 + i))
        _CORPUS = chains
    return _CORPUS


def test_criterion_01_duality_identity():
    max_log = 0.0
    max_phase_rel = 0.0
    fails = 0
    for i, ch in enumerate(duality_corpus()):
        rng = np.random.default_rng(4000 + i)
        for _ in range(10):
            energy = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            rep = check_duality(exponent_spectrum(ch, energy), complex(z))
            max_log = max(max_log, rep.residual_log)
            max_phase_rel = max(max_phase_rel,
                                rep.residual_phase / (ch.n * ch.m))
            if rep.residual_log > 1e-7 or rep.residual_phase > 1e-6 * ch.n * ch.m:
                fails += 1
    _report(1, "duality identity, 50 chains x 10 (E, z)", fails == 0,
            f"max log residual {max_log:.2e} <= 1e-7, "
            f"max phase residual {max_phase_rel:.2e} * nm <= 1e-6 * nm")


def test_criterion_02_route_equality():
    worst = 0.0
    fails = 0
    for i, ch in enumerate(duality_corpus()):
        rng = np.random.default_rng(4100 + i)
        energy = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
        rep = check_transfer_routes(ch, energy)
        worst = max(worst, rep.residual_log)
        if not rep.passed:
            fails += 1
    _report(2, "product route == resolvent route", fails == 0,
            f"max relative entry residual {worst:.2e} <= 1e-6")


def test_criterion_03_determinant_law():
    worst = 0.0
    for i, ch in enumerate(duality_corpus()):
        rng = np.random.default_rng(4200 + i)
        target = 0.0
        for b, c in zip(ch.b, ch.c):
            target += lu_logdet(c).log_modulus - lu_logdet(b).log_modulus
        for _ in range(20):
            energy = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            # log|det T| as the sum of all stabilized log singular values;
            # the dense determinant of the formed product cancels badly on
            # wide-spread chains
            got = float(np.sum(stabilized_log_singular_values(ch, energy)))
            worst = max(worst, abs(got - target))
    _report(3, "det T(E) frozen across 20-point E grids", worst <= 1e-8,
            f"max |log det drift| {worst:.2e} <= 1e-8")


def test_criterion_04_pd_decay_bound():
    total_violations = 0
    count = 0
    for i in range(100):
        pick = np.random.default_rng(5000 + i)
        n = int(pick.integers(2, 13))
        m = int(pick.integers(1, 4))
        mat = pd_block_tridiag(n, m, seed=5100 + i)
        rep = check_pd_decay(mat, m)
        total_violations += rep.violations
        count += 1
    _report(4, "PD inverse decay, 100 Hermitian-PD matrices",
            total_violations == 0,
            f"{count} matrices, {total_violations} entry violations of "
            f"C q^|i-j| / 1/a")


def test_criterion_05_corner_decay():
    energy = 0.2 + 2.5j
    fails = 0
    worst_excess = -math.inf
    for n in (8, 16, 32):
        for ch in (hermitian_chain(n, 1, seed=700 + n),
                   hermitian_chain(n, 2, seed=710 + n),
                   anderson_strip(n, 2, w=3.0, seed=720 + n)):
            rep = check_corner_decay(ch, energy)
            if not rep.passed:
                fails += 1
            worst_excess = max(worst_excess,
                               rep.measured_rate - rep.bound_rate)
    _report(5, "resolvent corner decay at n in {8, 16, 32}",
            fails == 0 and worst_excess <= 0.05,
            f"all bounds hold, worst slope excess {worst_excess:+.3f} <= 0.05")


def _family_m1_real(seed, n_max):
    rng = np.random.default_rng(seed)
    a = [np.array([[x]], dtype=complex) for x in rng.uniform(-2, 2, n_max)]
    eye = [np.eye(1, dtype=complex)] * n_max
    return a, eye, eye


def _family_m1_complex(seed, n_max):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2, 2, n_max) + 1j * rng.uniform(-1, 1, n_max)
    a = [np.array([[x]]) for x in vals]
    eye = [np.eye(1, dtype=complex)] * n_max
    return a, eye, eye


def _family_m2_hermitian(seed, n_max):
    rng = np.random.default_rng(seed)
    a = []
    for _ in range(n_max):
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a.append((d + d.conj().T) / 2.0)
    eye = [np.eye(2, dtype=complex)] * n_max
    return a, eye, eye


def test_criterion_06_dichotomy_and_interlacing():
    energy = 0.2 + 2.5j
    tested = [4, 8, 12, 16, 24, 32, 48, 64, 80, 96]
    n_stars = []
    max_q = 0.0
    inter_min = math.inf
    for fam, seed in ((_family_m1_real, 600), (_family_m1_complex, 601),
                      (_family_m2_hermitian, 602)):
        a, b, c = fam(seed, tested[-1])
        split_ok = []
        for n in tested:
            ch = BlockChain(a[:n], b[:n], c[:n])
            m = ch.m
            rep = dichotomy(ch, energy)
            max_q = max(max_q, rep.q)
            split_ok.append(rep.count_above == m and rep.count_below == m
                            and rep.count_middle == 0)
            # interlacing against the T_11 corner, theta from the resolvent
            # route so tiny singular values stay representable
            logs = stabilized_log_singular_values(ch, energy)
            corner = -corner_blocks(ch, energy).g1n @ ch.b[n - 1]
            log_theta = -np.log(singular_values(corner))[::-1]
            for k in range(m):
                inter_min = min(inter_min, float(logs[k] - log_theta[k]),
                                float(log_theta[k] - logs[m + k]))
        # first tested length from which the (m, m, 0) split never breaks
        star = None
        for j in range(len(tested)):
            if all(split_ok[j:]):
                star = tested[j]
                break
        n_stars.append(star)
    ok = (all(s is not None and s <= 64 for s in n_stars)
          and max_q <= 0.9 and inter_min >= -1e-9)
    _report(6, "dichotomy split and corner interlacing",
            ok,
            f"n* = {n_stars} (<= 64), max q {max_q:.3f} <= 0.9, "
            f"interlacing min slack {inter_min:+.2e}")


def test_criterion_07_jensen_identity():
    cases = [(random_chain(8, 1, seed=730), 0.3 + 0.4j),
             (random_chain(12, 2, seed=731), -0.2 + 0.6j),
             (random_chain(16, 1, seed=732), 0.1 - 0.5j),
             (hermitian_chain(10, 2, seed=733), 0.4 + 0.8j),
             (random_chain(6, 2, seed=734), 0.7 + 0.2j),
             (hermitian_chain(16, 1, seed=735), -0.5 + 0.9j)]
    max_res = 0.0
    doubling_checked = 0
    min_ratio = math.inf
    ok = True
    for ch, energy in cases:
        spectrum = exponent_spectrum(ch, energy)
        xs = np.sort(spectrum.xi)
        gaps = np.diff(xs)
        i = int(np.argmax(gaps))
        contours = [float((xs[i] + xs[i + 1]) / 2.0)]
        if ch.n == 12:
            # a contour grazing the top exponent keeps the 1024-node
            # residual above the roundoff floor, so halving is observable
            contours.append(float(xs[-1] + 1e-3))
        for xi in contours:
            r1 = jensen_identity_check(spectrum, xi, quad_points=1024)
            max_res = max(max_res, r1.residual)
            ok = ok and r1.residual <= 1e-6 and r1.margin > 0
            if r1.residual > 1e-10:
                r2 = jensen_identity_check(spectrum, xi, quad_points=2048)
                ratio = r1.residual / max(r2.residual, 1e-300)
                min_ratio = min(min_ratio, ratio)
                doubling_checked += 1
                ok = ok and ratio >= 4.0
    ok = ok and doubling_checked >= 1
    _report(7, "Jensen identity at 1024 nodes", ok,
            f"max residual {max_res:.2e} <= 1e-6, doubling checked "
            f"{doubling_checked}x with min reduction {min_ratio:.3g} >= 4")


def test_criterion_08_positive_exponent_sum():
    worst = 0.0
    for (n, m, seed), re_part in zip(
            [(6, 1, 800), (8, 2, 801), (10, 2, 802), (12, 1, 803), (7, 3, 804)],
            [0.2, -0.4, 0.0, 0.6, -1.0]):
        ch = hermitian_chain(n, m, seed=seed)
        energy = re_part + 1.0j
        quad = positive_exponent_sum(ch, energy)
        eig = float(np.sum(np.maximum(exponent_spectrum(ch, energy).xi, 0.0)))
        worst = max(worst, abs(quad - eig))
    _report(8, "positive-exponent sum vs eigensolve at Im E = 1",
            worst <= 1e-6, f"max |quadrature - eigensolve| {worst:.2e} <= 1e-6")


def test_criterion_09_symplectic_and_pairings():
    chains = [hermitian_chain(6, 2, seed=810), hermitian_chain(9, 1, seed=811),
              hermitian_chain(5, 3, seed=812)]
    ok = True
    worst_sym = 0.0
    worst_neg = 0.0
    min_margin = math.inf
    for ch in chains:
        for energy in (0.3 + 0.8j, 0.2):
            rep = check_symplectic(ch, energy)
            ok = ok and rep.passed
            worst_sym = max(worst_sym, rep.residual / max(rep.scale, 1.0))
        xs = np.sort(exponent_spectrum(ch, 0.2).xi)
        neg = float(np.max(np.abs(xs + xs[::-1])))
        worst_neg = max(worst_neg, neg)
        ok = ok and neg <= 1e-7
        margin = check_unit_circle_exclusion(exponent_spectrum(ch, 0.3 + 0.8j)).margin
        min_margin = min(min_margin, margin)
        ok = ok and margin > 0.0
    _report(9, "symplectic law, negation symmetry, circle exclusion", ok,
            f"max residual/scale {worst_sym:.2e} <= 1e-9, negation defect "
            f"{worst_neg:.2e} <= 1e-7, min |log z| margin {min_margin:.3f} > 0")


def test_criterion_10_figure_reproductions():
    # expanding front line: complex bubble plus real tails
    ch1 = hatano_nelson(600, -3.5, 3.5, seed=900)
    lam1 = np.linalg.eigvals(assemble_balanced(ch1, math.exp(1.0)))
    n_real = int(np.sum(np.abs(lam1.imag) < 1e-6))
    n_pairs = int(np.sum(lam1.imag > 1e-6))
    fig1_ok = n_real > 0 and n_pairs > 0

    # interior depletion as the front circle expands
    ch2 = random_tridiag(800, -1.0, 1.0, seed=911)
    interior = []
    for xi in (0.3, 0.45, 0.6):
        lam = np.linalg.eigvals(assemble_balanced(ch2, math.exp(xi)))
        interior.append(int(np.sum(np.abs(lam) < 0.3)))
    fig1b_ok = interior[0] > interior[1] > interior[2]

    # strip geometry: one closed loop per channel
    ch3 = anderson_strip(8, 3, w=7.0, seed=920)
    curve = trace_spectral_curve(ch3, xi=1.5, phi_steps=192)
    ids = set(int(i) for i in curve.loop_id)
    n_loops = len([i for i in ids if i >= 0])
    fig2_ok = n_loops == 3 and -1 not in ids

    _report(10, "figure reproductions (seed-pinned)",
            fig1_ok and fig1b_ok and fig2_ok,
            f"bubble+tails counts ({n_pairs} pairs, {n_real} real), "
            f"interior depletion {interior}, strip loops {n_loops} == 3")
