"""Block tridiagonal chain models.

A chain of length n with block size m is the coefficient data of the
difference equation

    C_k u_{k-1} + A_k u_k + B_k u_{k+1} = E u_k,       k = 1..n,

with every hopping block B_k, C_k invertible.  B_k couples site k to k+1
and C_k couples site k to k-1; the blocks B_n and C_1 only enter through
the ring closure (the corner blocks of the Bloch matrix) or, for the open
chain, not at all.

Generators for the standard disorder models are provided along with a
small JSON-serializable ModelSpec.  A given (kind, parameters, seed)
produces bit-identical blocks on every platform: all draws go through
numpy's default_rng (PCG64), whose stream is part of numpy's API.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import raise_first_singular

#: hopping blocks with |det| at or below this are resampled by generators
EPS_INV = 1e-3

#: most candidate bands banded_random tests per numpy call; at 40 blocks
#: of 4 one chunk of draws is about 0.36 MB
_MAX_CHUNK = 32

#: most redraws a generator makes of one thing (a band, a ring-closure
#: block, a round of hopping draws) before it refuses the interval
_MAX_REDRAWS = 1 << 16


@dataclass(frozen=True)
class BlockChain:
    """Blocks of a length-n chain; arrays have shape (n, m, m).

    a[k], b[k], c[k] hold A_{k+1}, B_{k+1}, C_{k+1} in the 1-based notation
    above.  Construction validates shapes, finiteness and invertibility of
    every hopping block.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        c = np.asarray(self.c, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"diagonal blocks must have shape (n, m, m), got {a.shape}")
        if a.shape != b.shape or a.shape != c.shape:
            raise ValueError("block arrays must share one shape")
        if a.shape[0] < 2:
            raise ValueError("a chain needs at least 2 sites")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("chain blocks must be finite")
        # singular values of B_1, C_1, B_2, C_2, ... in that order
        svals = np.stack([np.linalg.svd(b, compute_uv=False),
                          np.linalg.svd(c, compute_uv=False)], axis=1)
        raise_first_singular(svals.reshape(-1, a.shape[1]),
                             [f"{h}_{k + 1}" for k in range(a.shape[0]) for h in "BC"])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]

    def is_hermitian(self) -> bool:
        """Structural check: A_k Hermitian, C_{k+1} = B_k^dag cyclically,
        within 1e-12 of the largest entry of A and B (or of 1)."""
        scale = max(1.0, float(max(np.max(np.abs(self.a)), np.max(np.abs(self.b)))))
        a_defect = np.max(np.abs(self.a - np.swapaxes(self.a.conj(), 1, 2)))
        # np.roll(c, -1)[k] is C_{k+1}, the partner of B_k
        c_defect = np.max(np.abs(np.roll(self.c, -1, axis=0)
                                 - np.swapaxes(self.b.conj(), 1, 2)))
        return bool(max(a_defect, c_defect) <= 1e-12 * scale)

    def reversed(self) -> "BlockChain":
        """The chain traversed in the opposite direction.

        Site order is reversed and the roles of the hopping blocks swap:
        A'_k = A_{n+1-k}, B'_k = C_{n+1-k}, C'_k = B_{n+1-k}.
        """
        return BlockChain(a=self.a[::-1].copy(),
                          b=self.c[::-1].copy(),
                          c=self.b[::-1].copy())


def hatano_nelson(n: int, diag_low: float, diag_high: float, seed: int) -> BlockChain:
    """Scalar chain with unit hoppings and uniform on-site disorder.

    The asymmetry parameter of this model lives in the boundary factor of
    the Bloch matrix, not in the blocks, so B_k = C_k = 1 throughout.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(diag_low, diag_high, size=n).astype(complex).reshape(n, 1, 1)
    ones = np.ones((n, 1, 1), dtype=complex)
    return BlockChain(a=a, b=ones.copy(), c=ones.copy())


def _require_accepting(low: float, high: float, b: int) -> None:
    """ValueError unless a triangular b x b block of draws from [low, high]
    can have |det| > EPS_INV, so that a redraw loop ends."""
    # clamped at 1, where the power cannot overflow and stays above EPS_INV
    largest = min(max(abs(low), abs(high)), 1.0) ** b
    if largest <= EPS_INV:
        raise ValueError(
            f"interval [{low!r}, {high!r}] admits no hopping block with "
            f"|det| > EPS_INV = {EPS_INV!r}: max(|low|, |high|)^{b} = {largest!r}")


def _redraws_exhausted(low: float, high: float, what: str) -> ValueError:
    return ValueError(
        f"interval [{low!r}, {high!r}] gave no {what} with |det| > EPS_INV = "
        f"{EPS_INV!r} in {_MAX_REDRAWS} redraws: it is too narrow")


def random_tridiag(n: int, low: float, high: float, seed: int) -> BlockChain:
    """Scalar chain with all of a_k, b_k, c_k drawn uniform on [low, high].

    Off-diagonal draws with |value| <= EPS_INV are redrawn so the chain
    is comfortably invertible; an interval with no such draw, or one that
    still lacks them after _MAX_REDRAWS rounds of 2n draws, is refused.
    """
    _require_accepting(low, high, 1)
    rng = np.random.default_rng(seed)
    a = rng.uniform(low, high, size=n)
    # b and c are the first n and the next n draws after a with
    # |x| > EPS_INV, the values a one-draw-at-a-time redraw loop keeps
    hops = np.empty(0)
    rounds = 0
    while hops.size < 2 * n:
        if rounds == _MAX_REDRAWS:
            raise _redraws_exhausted(low, high, f"set of {2 * n} hoppings")
        x = rng.uniform(low, high, size=2 * n)
        hops = np.concatenate([hops, x[np.abs(x) > EPS_INV]])
        rounds += 1
    b, c = hops[:n], hops[n:2 * n]
    return BlockChain(a=a.astype(complex).reshape(n, 1, 1),
                      b=b.astype(complex).reshape(n, 1, 1),
                      c=c.astype(complex).reshape(n, 1, 1))


def anderson_strip(n: int, m: int, w: float, seed: int) -> BlockChain:
    """Strip of width m: transverse hopping plus diagonal disorder.

    A_k = T + D_k with T the open-boundary transverse hopping matrix
    (zero diagonal, unit first off-diagonals) and D_k diagonal with
    entries uniform on [-w/2, w/2].  Longitudinal hoppings are identity.
    """
    rng = np.random.default_rng(seed)
    t = np.zeros((m, m))
    for i in range(m - 1):
        t[i, i + 1] = 1.0
        t[i + 1, i] = 1.0
    a = np.empty((n, m, m), dtype=complex)
    for k in range(n):
        a[k] = t + np.diag(rng.uniform(-w / 2.0, w / 2.0, size=m))
    eye = np.broadcast_to(np.eye(m, dtype=complex), (n, m, m)).copy()
    return BlockChain(a=a, b=eye, c=eye.copy())


def banded_random(n_sites: int, b: int, low: float, high: float, seed: int) -> BlockChain:
    """Chain obtained by partitioning a random banded matrix into b x b blocks.

    The full n_sites x n_sites matrix has i.i.d. uniform entries inside the
    band |i - j| <= b, drawn in row-major order, and is redrawn until every
    hopping block satisfies |det| > EPS_INV.  The partition makes B_k lower
    triangular and C_k upper triangular, with diagonals on the outermost
    band diagonals |i - j| = b; b = 1 recovers the random tridiagonal
    layout.  So the accept test reads only the product of those
    2 (n - 1) b diagonal entries, and it tests a chunk of candidate bands
    per numpy call.  The PCG64 stream is unchanged: after the first
    accepted band, the generator is moved to where one-band-at-a-time
    draws would leave it, so the ring-closure blocks B_n and C_1 come
    from the same draws as before.  The chains are bit-identical to those
    of earlier releases, which took an LU determinant of each hopping
    block: the two tests can part only where rounding straddles EPS_INV,
    and the test suite compares them bitwise.  An interval with no
    accepted band is refused, and so is one that gives no accepted band
    or ring-closure block within _MAX_REDRAWS redraws.
    """
    _require_accepting(low, high, b)
    if n_sites % b != 0:
        raise ValueError(f"n_sites={n_sites} not divisible by block size b={b}")
    n = n_sites // b
    if n < 2:
        raise ValueError("need at least 2 blocks")
    rng = np.random.default_rng(seed)
    idx = np.arange(n_sites)
    band = np.abs(idx[:, None] - idx[None, :]) <= b
    count = int(band.sum())
    # position in the draw order of every band entry, then of the
    # diagonals of B_1..B_{n-1} (row k b + p, column (k + 1) b + p) and
    # of C_2..C_n (the transposed positions)
    order = np.zeros((n_sites, n_sites), dtype=np.intp)
    order[band] = np.arange(count)
    hop_diagonals = np.concatenate([order[idx[:-b], idx[b:]],
                                    order[idx[b:], idx[:-b]]]).reshape(2 * (n - 1), b)
    # a chunk of c rows draws the same doubles as c successive bands;
    # growing it from 1 keeps a first-draw accept as cheap as one band
    chunk, tested = 1, 0
    while True:
        state = rng.bit_generator.state
        draws = rng.uniform(low, high, size=(chunk, count))
        # a product or determinant that overflows to inf or nan below
        # still decides the test; errstate only keeps the warning off stderr
        with np.errstate(over="ignore", invalid="ignore"):
            accepted = np.abs(draws[:, hop_diagonals].prod(axis=2)).min(axis=1) > EPS_INV
        if accepted.any():
            break
        tested += chunk
        if tested >= _MAX_REDRAWS:
            raise _redraws_exhausted(low, high, "band")
        chunk = min(2 * chunk, _MAX_CHUNK)
    hit = int(np.argmax(accepted))
    # one double takes one 64-bit PCG64 output; advance wants a Python int
    rng.bit_generator.state = state
    rng.bit_generator.advance((hit + 1) * count)
    full = np.zeros((n_sites, n_sites))
    full[band] = draws[hit]
    blocks = full.reshape(n, b, n, b).swapaxes(1, 2)
    k = np.arange(n)
    hop_up = blocks[k[:-1], k[1:]]
    hop_dn = blocks[k[1:], k[:-1]]
    a = blocks[k, k].astype(complex)
    bk = np.empty((n, b, b), dtype=complex)
    ck = np.empty((n, b, b), dtype=complex)
    bk[: n - 1] = hop_up
    ck[1:] = hop_dn
    # ring-closure blocks are not part of the banded matrix; keep the
    # triangular shape so the chain stays in the same family
    bk[n - 1] = np.tril(rng.uniform(low, high, size=(b, b)))
    ck[0] = np.triu(rng.uniform(low, high, size=(b, b)))
    for block, shape, name in ((bk[n - 1], np.tril, "B_n"), (ck[0], np.triu, "C_1")):
        redraws = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while abs(np.linalg.det(block)) <= EPS_INV:
                if redraws == _MAX_REDRAWS:
                    raise _redraws_exhausted(low, high, f"ring-closure block {name}")
                block[...] = shape(rng.uniform(low, high, size=(b, b)))
                redraws += 1
    return BlockChain(a=a, b=bk, c=ck)


_RANDOM_KINDS = ("hatano-nelson", "random-tridiag", "anderson-strip", "banded-random")
KINDS = _RANDOM_KINDS + ("explicit",)

#: the keys besides "kind" that a model document of each kind takes
_MODEL_KEYS = {"hatano-nelson": ("n", "interval", "seed"),
               "random-tridiag": ("n", "interval", "seed"),
               "anderson-strip": ("n", "m", "w", "seed"),
               "banded-random": ("n", "m", "interval", "seed"),
               "explicit": ("A", "B", "C")}


def _complex_from_json(entry):
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex entries are [re, im] pairs, got {entry!r}")
        return complex(entry[0], entry[1])
    return complex(entry)


def _complex_to_json(value: complex):
    if value.imag == 0:
        return value.real
    return [value.real, value.imag]


def _blocks_from_json(data, what: str) -> np.ndarray:
    arr = np.array([[[_complex_from_json(e) for e in row] for row in blk] for blk in data])
    if arr.ndim != 3:
        raise ValueError(f"{what} must be a list of matrices")
    return arr


def as_integer(value) -> int:
    """value as an int: an integral float such as 40.0 passes, anything
    else but an integer (a bool, 4.9, a string) is refused, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _integer_field(doc: dict, name: str, default: int | None) -> int | None:
    """doc[name] through as_integer, or ``default`` when it is absent."""
    if name not in doc:
        return default
    try:
        return as_integer(doc[name])
    except ValueError as exc:
        raise ValueError(f"model field {name!r} {exc}") from None


def _float_field(doc: dict, name: str):
    """doc[name] as a float (a pair of them for "interval"), or None when it
    is absent; a malformed value raises a ValueError naming the field."""
    if name not in doc:
        return None
    try:
        if name != "interval":
            return float(doc[name])
        low, high = doc[name]
        return float(low), float(high)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model field {name!r}: {exc}") from None


@dataclass(frozen=True)
class ModelSpec:
    """JSON-serializable description of a chain.

    Fields follow the config format of the command line tool:
    kind, n, m, w or interval, seed; the explicit kind instead carries
    the block lists A, B, C with entries as numbers or [re, im] pairs.
    """

    kind: str
    n: int = 0
    m: int = 1
    w: float | None = None
    interval: tuple[float, float] | None = None
    seed: int | None = None
    blocks: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; known: {', '.join(KINDS)}")
        if self.kind in _RANDOM_KINDS:
            if self.seed is None:
                raise ValueError(f"model kind {self.kind!r} requires a seed")
            if self.n < 2:
                raise ValueError("n must be at least 2")
        if self.kind in ("anderson-strip", "banded-random") and self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.kind == "anderson-strip" and self.w is None:
            raise ValueError("anderson-strip requires a disorder width w")
        if self.w is not None and not math.isfinite(self.w):
            raise ValueError(f"model field 'w' must be finite, got {self.w!r}")
        if self.interval is not None:
            low, high = self.interval
            # high - low is finite only when both ends are
            if not math.isfinite(high - low):
                raise ValueError(f"model field 'interval' must have finite ends and a "
                                 f"finite width high - low, got [{low!r}, {high!r}]")
        if self.kind in ("hatano-nelson", "random-tridiag", "banded-random") \
                and self.interval is None:
            raise ValueError(f"{self.kind} requires interval [low, high]")
        if self.kind == "explicit" and not self.blocks:
            raise ValueError("explicit model requires block lists A, B, C")

    def build(self) -> BlockChain:
        if self.kind == "hatano-nelson":
            low, high = self.interval
            return hatano_nelson(self.n, low, high, self.seed)
        if self.kind == "random-tridiag":
            low, high = self.interval
            return random_tridiag(self.n, low, high, self.seed)
        if self.kind == "anderson-strip":
            return anderson_strip(self.n, self.m, self.w, self.seed)
        if self.kind == "banded-random":
            low, high = self.interval
            return banded_random(self.n, self.m, low, high, self.seed)
        return BlockChain(a=_blocks_from_json(self.blocks["A"], "A"),
                          b=_blocks_from_json(self.blocks["B"], "B"),
                          c=_blocks_from_json(self.blocks["C"], "C"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_dict(self) -> dict:
        if self.kind == "explicit":
            return {"kind": self.kind, **self.blocks}
        return {"kind": self.kind,
                **{key: getattr(self, key) for key in _MODEL_KEYS[self.kind]}}

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("model document must be an object with a 'kind' field")
        kind = doc["kind"]
        if kind in KINDS:
            unused = sorted(set(doc) - {"kind", *_MODEL_KEYS[kind]})
            if unused:
                raise ValueError(
                    f"unknown key(s) {', '.join(map(repr, unused))} for model "
                    f"kind {kind!r}; its keys are kind, {', '.join(_MODEL_KEYS[kind])}")
        if kind == "explicit":
            missing = [f for f in ("A", "B", "C") if f not in doc]
            if missing:
                raise ValueError(f"explicit model missing fields: {', '.join(missing)}")
            blocks = {"A": doc["A"], "B": doc["B"], "C": doc["C"]}
            n = len(doc["A"])
            m = len(doc["A"][0]) if n else 0
            return cls(kind=kind, n=n, m=m, blocks=blocks)
        return cls(kind=kind,
                   n=_integer_field(doc, "n", 0),
                   m=_integer_field(doc, "m", 1),
                   w=_float_field(doc, "w"),
                   interval=_float_field(doc, "interval"),
                   seed=_integer_field(doc, "seed", None))

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))


def chain_to_spec(chain: BlockChain) -> ModelSpec:
    """Explicit ModelSpec for an arbitrary chain (round-trips exactly)."""
    blocks = {
        name: [[[_complex_to_json(complex(e)) for e in row] for row in blk]
               for blk in arr]
        for name, arr in (("A", chain.a), ("B", chain.b), ("C", chain.c))
    }
    return ModelSpec(kind="explicit", n=chain.n, m=chain.m, blocks=blocks)
