"""Spans around the calls into a package's public functions.

The tracer wraps every public function defined in a module of the package
and rebinds it in every module namespace of the package that holds it,
since ``from .transfer import product`` copies the binding into duality,
exponents and symmetry.  Lazy imports inside functions read the defining
module's attribute at call time and so also reach the wrapper.  Nothing in
the package itself changes; ``restore`` puts every original back.

Spans are kept in memory as tuples and aggregated after the traced batch.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    trace: int | None
    name: str
    start: float
    end: float
    failed: bool
    key: tuple | None


#: functions whose (chain content, energy) arguments are recorded, so the
#: share of repeated work can be counted
KEYED = ("transfer.product", "transfer.eigenvalues_stabilized")


def chain_energy_key(args: tuple, kwargs: dict) -> tuple:
    """(digest of the chain's blocks, energy).

    Keyed on content, not id(): reversed chains are short-lived, so their
    ids are reused by later, different chains.
    """
    chain = args[0] if args else kwargs["chain"]
    energy = args[1] if len(args) > 1 else kwargs["energy"]
    digest = hashlib.blake2b(digest_size=16)
    for blocks in (chain.a, chain.b, chain.c):
        digest.update(repr(blocks.shape).encode())
        digest.update(blocks.tobytes())
    return digest.digest(), complex(energy)


class Tracer:
    """Install with ``install()``; set ``trace`` to tag spans per report."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.trace: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._rebound: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(self.package) + 1:]
            for attr, obj in vars(mod).items():
                if (short and not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def take_spans(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        keyed = name in KEYED
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = chain_energy_key(args, kwargs) if keyed else None
            parent = stack[-1] if stack else None
            self._next_id += 1
            span_id = self._next_id
            stack.append(span_id)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, self.trace, name,
                                       start, end, failed, key))

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is not None and start <= run_end:
                run_end = max(run_end, end)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        if run_end is not None:
            covered += run_end - run_start
        out[span.id] = (span.end - span.start) - covered
    return out
