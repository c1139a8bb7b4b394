import hashlib
import json
import warnings

import numpy as np
import pytest

from blockflow import (BlockChain, ModelSpec, SingularMatrixError,
                       anderson_strip, assemble_open, banded_random,
                       chain_to_spec, hatano_nelson, random_tridiag)
from blockflow.chains import EPS_INV

from conftest import hermitian_chain, random_chain


def test_generators_are_bit_deterministic():
    for make in (lambda s: hatano_nelson(20, -2, 2, seed=s),
                 lambda s: random_tridiag(20, -1, 1, seed=s),
                 lambda s: anderson_strip(10, 3, 5.0, seed=s),
                 lambda s: banded_random(12, 2, -1, 1, seed=s)):
        x, y = make(42), make(42)
        assert np.array_equal(x.a, y.a)
        assert np.array_equal(x.b, y.b)
        assert np.array_equal(x.c, y.c)
        z = make(43)
        assert not np.array_equal(x.a, z.a)


def test_block_chain_validation():
    ok = np.ones((3, 1, 1))
    with pytest.raises(ValueError):
        BlockChain(a=np.ones((1, 1, 1)), b=np.ones((1, 1, 1)), c=np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        BlockChain(a=np.ones((3, 2, 1)), b=np.ones((3, 2, 1)), c=np.ones((3, 2, 1)))
    with pytest.raises(SingularMatrixError):
        BlockChain(a=ok, b=np.zeros((3, 1, 1)), c=ok)
    bad = ok.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        BlockChain(a=bad, b=ok, c=ok)


def test_shapes_and_properties():
    ch = anderson_strip(7, 3, 4.0, seed=1)
    assert (ch.n, ch.m) == (7, 3)
    assert ch.a.shape == ch.b.shape == ch.c.shape == (7, 3, 3)


def test_hatano_nelson_blocks():
    ch = hatano_nelson(50, -3.5, 3.5, seed=2)
    assert np.all(ch.b == 1.0) and np.all(ch.c == 1.0)
    diag = ch.a[:, 0, 0]
    assert np.all(np.abs(diag) <= 3.5)
    assert np.all(diag.imag == 0.0)


def test_random_tridiag_respects_invertibility_floor():
    ch = random_tridiag(200, -1, 1, seed=3)
    assert np.min(np.abs(ch.b)) > EPS_INV
    assert np.min(np.abs(ch.c)) > EPS_INV


def test_anderson_strip_structure():
    w = 6.0
    ch = anderson_strip(9, 4, w, seed=4)
    eye = np.eye(4)
    assert np.array_equal(ch.b[0], eye) and np.array_equal(ch.c[5], eye)
    for k in range(ch.n):
        blk = ch.a[k]
        off = blk - np.diag(np.diag(blk))
        want = np.zeros((4, 4))
        for i in range(3):
            want[i, i + 1] = want[i + 1, i] = 1.0
        assert np.array_equal(off.real, want)
        assert np.all(np.abs(np.diag(blk)) <= w / 2)


def test_banded_random_round_trip():
    b = 3
    ch = banded_random(18, b, -1, 1, seed=5)
    full = assemble_open(ch)
    n_sites = 18
    idx = np.arange(n_sites)
    outside = np.abs(idx[:, None] - idx[None, :]) > b
    assert np.all(full[outside] == 0.0)
    # partition of a banded matrix forces triangular hopping blocks
    for k in range(ch.n - 1):
        assert np.allclose(ch.b[k], np.tril(ch.b[k]))
        assert np.allclose(ch.c[k + 1], np.triu(ch.c[k + 1]))
    assert np.allclose(ch.b[ch.n - 1], np.tril(ch.b[ch.n - 1]))
    assert np.allclose(ch.c[0], np.triu(ch.c[0]))
    for k in range(ch.n):
        assert abs(np.linalg.det(ch.b[k])) > EPS_INV
        assert abs(np.linalg.det(ch.c[k])) > EPS_INV


def _digest(chain):
    return hashlib.sha256(chain.a.tobytes() + chain.b.tobytes()
                          + chain.c.tobytes()).hexdigest()


# sha256 of (a, b, c).tobytes(), pinned so a change of the generators'
# draw order or accept test shows as a different chain, not as a report
# that happens to stay within tolerance
BANDED_RANDOM_DIGESTS = [
    # the long-chain benchmark size, 40 blocks of 4
    ((160, 4, -1.0, 1.0, 101744),
     "5069cfb2f42837ea9f58032408ffaa93df93607a9996218a5f628cbee3ed9dd0"),
    ((160, 4, -1.0, 1.0, 544724),
     "029fb01f25eaa945214dedcd61b42c9ccab769197f83149d1e5544966b1baeee"),
    ((160, 4, -1.0, 1.0, 469881),
     "5b29ad37508257e9851c41ecd389005e53de4bbbc2740b606b839b49d727b3fe"),
    ((12, 2, -1.0, 1.0, 42),
     "9ba7675c6f578b3c1e77c3949ba52bede50a98a10740612a3f658765a0e0560b"),
    ((18, 3, -1.0, 1.0, 5),
     "565e1be8f9558b0b7ff064c73e6cb363778179f8305a2f004a1adb4965b06200"),
    ((8, 1, -2.0, 2.0, 7),
     "d722508eaa9564c97aa088d214365d05a41d00d78b1ad43738fbdbe5b53a2ac9"),
    ((24, 3, -0.5, 1.5, 9),
     "c0c2737f194b83c63923bd02a92c8339037d89b0c8e296fa1c5899c3cdc1fffc"),
]

RANDOM_TRIDIAG_DIGESTS = [
    # the README config
    ((12, -2.0, 2.0, 7),
     "ecd56ee70233e1ed537b6b5833ae19de44347f66b710f13b4f21915ab3b519c7"),
    # narrow intervals, where a tenth and two thirds of the draws are redrawn
    ((40, -0.01, 0.01, 3),
     "d189879abd5cdc58b59924c979fd5eb32ba1cdc04210a3301c93ec1c8a51fe67"),
    ((30, -1e-3, 2e-3, 11),
     "427c133b520051db3e197512af6476226d2c04254cd85ec6c0e87da76ab4a3fb"),
]


@pytest.mark.parametrize("args, digest", BANDED_RANDOM_DIGESTS)
def test_banded_random_pinned(args, digest):
    assert _digest(banded_random(*args)) == digest


@pytest.mark.parametrize("args, digest", RANDOM_TRIDIAG_DIGESTS)
def test_random_tridiag_pinned(args, digest):
    assert _digest(random_tridiag(*args)) == digest


@pytest.mark.parametrize("build, args", [
    (random_tridiag, (12, -5e-4, 5e-4, 7)),
    # |x| <= EPS_INV on the whole interval, bound included
    (random_tridiag, (12, -1e-3, 1e-3, 7)),
    # 0.09^3 < EPS_INV: no triangular 3 x 3 block is accepted
    (banded_random, (12, 3, -0.09, 0.05, 7)),
])
def test_generators_refuse_intervals_with_no_accepted_draw(build, args):
    # the redraw loops would never end: refused before the first draw
    with pytest.raises(ValueError, match="admits no hopping block"):
        build(*args)


@pytest.mark.parametrize("build, args, what", [
    # 0.1^3 rounds to just above EPS_INV, so the up-front check passes,
    # yet no 3 x 3 band block on [-0.1, 0.05] is ever accepted
    (banded_random, (12, 3, -0.1, 0.05, 7), "no band"),
    # one draw in about 5e15 lies outside [-EPS_INV, EPS_INV]
    (random_tridiag, (12, -1.0000000000000002e-3, 1.0000000000000002e-3, 7),
     "no set of 24 hoppings"),
])
def test_generators_refuse_nearly_impossible_intervals(build, args, what):
    # the redraw loops stop at _MAX_REDRAWS instead of running forever
    with pytest.raises(ValueError, match=f"gave {what} with .* 65536 redraws"):
        build(*args)


def test_banded_random_caps_ring_closure_redraws(monkeypatch):
    # seed 13 accepts its first band, then draws C_1 twice below EPS_INV
    import blockflow.chains as chains

    monkeypatch.setattr(chains, "_MAX_REDRAWS", 1)
    with pytest.raises(ValueError, match="no ring-closure block C_1 .* 1 redraws"):
        banded_random(6, 3, -0.3, 0.3, seed=13)


def test_banded_random_on_a_huge_interval_warns_nothing():
    # products and determinants overflow to inf in the accept tests, which
    # must decide without a RuntimeWarning reaching the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ch = banded_random(12, 3, -1e200, 1e200, seed=1)
    assert np.all(np.isfinite(ch.b)) and np.abs(ch.b).max() > 1e190


def _banded_random_by_det(n_sites, b, low, high, seed):
    """banded_random as first written: redraw the whole band, one LU
    determinant per hopping block, until every |det| > EPS_INV."""
    n = n_sites // b
    rng = np.random.default_rng(seed)
    idx = np.arange(n_sites)
    band = np.abs(idx[:, None] - idx[None, :]) <= b
    count = int(band.sum())
    k = np.arange(n)
    while True:
        full = np.zeros((n_sites, n_sites))
        full[band] = rng.uniform(low, high, size=count)
        blocks = full.reshape(n, b, n, b).swapaxes(1, 2)
        hop_up = blocks[k[:-1], k[1:]]
        hop_dn = blocks[k[1:], k[:-1]]
        if np.abs(np.linalg.det(np.concatenate([hop_up, hop_dn]))).min() > EPS_INV:
            break
    a = blocks[k, k].astype(complex)
    bk = np.empty((n, b, b), dtype=complex)
    ck = np.empty((n, b, b), dtype=complex)
    bk[: n - 1] = hop_up
    ck[1:] = hop_dn
    bk[n - 1] = np.tril(rng.uniform(low, high, size=(b, b)))
    ck[0] = np.triu(rng.uniform(low, high, size=(b, b)))
    while abs(np.linalg.det(bk[n - 1])) <= EPS_INV:
        bk[n - 1] = np.tril(rng.uniform(low, high, size=(b, b)))
    while abs(np.linalg.det(ck[0])) <= EPS_INV:
        ck[0] = np.triu(rng.uniform(low, high, size=(b, b)))
    return BlockChain(a=a, b=bk, c=ck)


def test_banded_random_matches_det_oracle():
    # 540 small cases over block size, block count and seed, on an
    # interval centred at 0 and on one that is not
    cases = [(n * b, b, low, high, seed)
             for b in (1, 2, 3) for n in (2, 3, 4, 5, 6, 7)
             for low, high in ((-1.0, 1.0), (-0.3, 1.1))
             for seed in range(15)]
    assert len(cases) >= 500
    for case in cases:
        got, want = banded_random(*case), _banded_random_by_det(*case)
        for x, y in ((got.a, want.a), (got.b, want.b), (got.c, want.c)):
            assert x.tobytes() == y.tobytes(), case


def test_banded_random_rejects_bad_partition():
    with pytest.raises(ValueError):
        banded_random(10, 3, -1, 1, seed=1)
    with pytest.raises(ValueError):
        banded_random(3, 3, -1, 1, seed=1)


def test_is_hermitian():
    assert hermitian_chain(6, 2, seed=6).is_hermitian()
    assert not random_chain(6, 2, seed=6).is_hermitian()
    # breaking one closure block breaks the property
    ch = hermitian_chain(6, 2, seed=7)
    c = ch.c.copy()
    c[0] = c[0] + 0.1
    assert not BlockChain(a=ch.a, b=ch.b, c=c).is_hermitian()
    # so does an interior hopping block, C_4 against B_3^dag
    c = ch.c.copy()
    c[3, 1, 0] += 1e-6
    assert not BlockChain(a=ch.a, b=ch.b, c=c).is_hermitian()
    # and a non-Hermitian diagonal block with every hopping intact
    a = ch.a.copy()
    a[2, 0, 1] += 0.1j
    assert not BlockChain(a=a, b=ch.b, c=ch.c).is_hermitian()
    # a defect below tol * scale does not
    a[2, 0, 1] -= 0.1j - 1e-14
    assert BlockChain(a=a, b=ch.b, c=ch.c).is_hermitian()


def test_reversed_is_involution():
    ch = random_chain(5, 2, seed=8)
    rev = ch.reversed()
    assert np.array_equal(rev.a[0], ch.a[4])
    assert np.array_equal(rev.b[1], ch.c[3])
    assert np.array_equal(rev.c[2], ch.b[2])
    back = rev.reversed()
    assert np.array_equal(back.a, ch.a)
    assert np.array_equal(back.b, ch.b)
    assert np.array_equal(back.c, ch.c)


def test_model_spec_round_trip_random_kinds():
    spec = ModelSpec(kind="anderson-strip", n=6, m=2, w=3.0, seed=11)
    doc = json.loads(spec.to_json())
    again = ModelSpec.from_dict(doc)
    assert again == spec
    x, y = spec.build(), again.build()
    assert np.array_equal(x.a, y.a)


def test_model_spec_explicit_round_trip():
    ch = random_chain(4, 2, seed=12)
    spec = chain_to_spec(ch)
    rebuilt = ModelSpec.from_json(spec.to_json()).build()
    assert np.allclose(rebuilt.a, ch.a)
    assert np.allclose(rebuilt.b, ch.b)
    assert np.allclose(rebuilt.c, ch.c)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="nope", n=4, seed=1)
    with pytest.raises(ValueError):
        ModelSpec(kind="hatano-nelson", n=4, interval=(-1, 1))  # no seed
    with pytest.raises(ValueError):
        ModelSpec(kind="hatano-nelson", n=4, seed=1)  # no interval
    with pytest.raises(ValueError):
        ModelSpec(kind="anderson-strip", n=4, seed=1)  # no width
    # the block size is checked before any generator divides by it or
    # allocates with it
    for kind, m, extra in [("banded-random", 0, {"interval": [-1, 1]}),
                           ("anderson-strip", 0, {"w": 1.0}),
                           ("anderson-strip", -2, {"w": 1.0})]:
        with pytest.raises(ValueError, match=f"^m must be at least 1, got {m}$"):
            ModelSpec.from_dict({"kind": kind, "n": 6, "m": m, "seed": 1, **extra})
    with pytest.raises(ValueError):
        ModelSpec.from_dict({"kind": "explicit", "A": [[[0.0]]]})
    with pytest.raises(ValueError):
        ModelSpec.from_dict({"n": 3})
    # sizes and seeds are refused, not truncated, unless integral
    strip = {"kind": "anderson-strip", "n": 4, "m": 2, "w": 1, "seed": 1}
    for name, bad in [("n", 4.9), ("m", 2.5), ("seed", 1.7), ("m", True),
                      ("n", False), ("seed", "1")]:
        with pytest.raises(ValueError, match=f"^model field '{name}' must be "
                                             f"an integer, got {bad!r}$"):
            ModelSpec.from_dict({**strip, name: bad})
    spec = ModelSpec.from_dict({**strip, "n": 40.0, "seed": 3.0})
    assert (spec.n, spec.seed) == (40, 3)
    assert type(spec.n) is int and type(spec.seed) is int


def test_model_spec_complex_entries():
    doc = {"kind": "explicit",
           "A": [[[0.0]], [[0.0]]],
           "B": [[[[1.0, 2.0]]], [[1.0]]],
           "C": [[[1.0]], [[[0.0, -1.0]]]]}
    ch = ModelSpec.from_dict(doc).build()
    assert ch.b[0, 0, 0] == 1.0 + 2.0j
    assert ch.c[1, 0, 0] == -1.0j
