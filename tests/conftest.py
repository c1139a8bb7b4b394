"""Seeded chain corpora shared by the test modules.

Every helper is deterministic in its arguments, so expected values frozen
in the tests stay valid across platforms.
"""

import cmath
import sys

import numpy as np
from hypothesis import strategies as st

from blockflow import BlockChain


def pytest_terminal_summary(terminalreporter):
    # echo the acceptance PASS/FAIL lines past pytest's output capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _invertible_block(rng, m, scale=1.0, complex_entries=True, min_sv=0.1):
    while True:
        x = rng.uniform(-scale, scale, size=(m, m))
        if complex_entries:
            x = x + 1j * rng.uniform(-scale, scale, size=(m, m))
        if np.linalg.svd(x, compute_uv=False)[-1] > min_sv * scale:
            return x


def random_chain(n, m, seed, scale=1.0, complex_entries=True) -> BlockChain:
    """Generic dense chain; hopping blocks kept comfortably invertible."""
    rng = np.random.default_rng(seed)
    a = np.empty((n, m, m), dtype=complex)
    b = np.empty((n, m, m), dtype=complex)
    c = np.empty((n, m, m), dtype=complex)
    for k in range(n):
        x = rng.uniform(-scale, scale, size=(m, m))
        if complex_entries:
            x = x + 1j * rng.uniform(-scale, scale, size=(m, m))
        a[k] = x
        b[k] = _invertible_block(rng, m, scale, complex_entries)
        c[k] = _invertible_block(rng, m, scale, complex_entries)
    return BlockChain(a=a, b=b, c=c)


def hermitian_chain(n, m, seed, scale=1.0, real=False) -> BlockChain:
    """Chain with Hermitian diagonal blocks and C_{k+1} = B_k^dag cyclically."""
    rng = np.random.default_rng(seed)
    a = np.empty((n, m, m), dtype=complex)
    b = np.empty((n, m, m), dtype=complex)
    for k in range(n):
        x = rng.uniform(-scale, scale, size=(m, m))
        if not real:
            x = x + 1j * rng.uniform(-scale, scale, size=(m, m))
        a[k] = 0.5 * (x + x.conj().T)
        b[k] = _invertible_block(rng, m, scale, complex_entries=not real)
    c = np.empty((n, m, m), dtype=complex)
    for k in range(n):
        c[(k + 1) % n] = b[k].conj().T
    return BlockChain(a=a, b=b, c=c)


def pd_block_tridiag(n, m, seed, margin=0.5):
    """Hermitian positive definite block tridiagonal matrix (dense form)."""
    from blockflow import assemble_open

    chain = hermitian_chain(n, m, seed)
    h = assemble_open(chain)
    h = 0.5 * (h + h.conj().T)
    lo = float(np.linalg.eigvalsh(h)[0])
    return h + (abs(lo) + margin) * np.eye(n * m)


def clean_chain(n) -> BlockChain:
    """Scalar chain with A = 0 and unit hoppings."""
    zeros = np.zeros((n, 1, 1), dtype=complex)
    ones = np.ones((n, 1, 1), dtype=complex)
    return BlockChain(a=zeros, b=ones.copy(), c=ones.copy())


#: random and Hermitian chains for the property tests, n in [3, 8], m in [1, 3]
property_chains = st.builds(
    lambda hermitian, n, m, seed:
        hermitian_chain(n, m, seed) if hermitian else random_chain(n, m, seed),
    st.booleans(), st.integers(3, 8), st.integers(1, 3), st.integers(0, 10**6))

#: energies off the real axis, where a Hermitian chain has no spectrum
complex_energies = st.builds(complex, st.floats(-2.0, 2.0),
                             st.sampled_from([-0.8, -0.3, 0.3, 1.0]))

#: (gap, frac, phi) for separated_z
z_draws = st.tuples(st.integers(0, 12), st.floats(0.25, 0.75),
                    st.floats(-np.pi, np.pi))


def separated_z(spectrum, draw):
    """A boundary factor z away from every transfer eigenvalue, and its margin.

    log|z| / n is put at the fraction ``frac`` of one gap of the sorted
    exponents +-xi_k (widened by 1 at both ends), so both z and 1/z keep
    the returned log-distance from every |z_k|.
    """
    gap, frac, phi = draw
    xs = np.sort(np.concatenate([spectrum.xi, -spectrum.xi]))
    edges = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    i = gap % (len(edges) - 1)
    lo, hi = edges[i], edges[i + 1]
    z = cmath.exp(complex(spectrum.n * (lo + frac * (hi - lo)), phi))
    return z, spectrum.n * min(frac, 1.0 - frac) * (hi - lo)
