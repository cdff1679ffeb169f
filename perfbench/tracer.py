"""Spans and counters recorded from outside designforge.

The library has no tracing of its own, so this module wraps its public
functions on the module or class attribute that callers resolve at call time
(patching ``hadamard.is_hadamard`` reaches both the construction's gate and
the CLI's second gate).  Two passes never mix:

* the span pass wraps every public module-level function of the eight modules
  plus the coarse methods in SPAN_METHODS, and records per-op calls, total
  time and self time (duration minus the time of the spans it called);
* the counting pass wraps only the per-element methods in COUNTED, whose
  millions of calls would stretch the span pass's timings.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

MODULES = ("groups", "field", "galois", "designs", "constructions", "hadamard", "search", "cli")

# span name -> (module, class, attribute); "__init__" spans time construction
SPAN_METHODS = {
    "groups.GroupIso.verify": ("groups", "GroupIso", "verify"),
    "field.FieldCtx": ("field", "FieldCtx", "__init__"),
    "galois.RingCtx": ("galois", "RingCtx", "__init__"),
    "designs.from_json": ("designs", "DifferenceFamily", "from_json"),
    "hadamard.SignMatrix.to_json": ("hadamard", "SignMatrix", "to_json"),
    "search.Certificate.replay": ("search", "Certificate", "replay"),
}

# counter name -> (module, class, method) counted once per call
COUNTED = {
    "groups.sub.calls": ("groups", "FiniteAbelianGroup", "sub"),
    "galois.mul.calls": ("galois", "RingCtx", "mul"),
    "search.nodes": ("search", "_Budget", "spend_node"),
}


def _record_gate(counters: Dict[str, float], args: tuple, result) -> None:
    counters["hadamard.matrix_bytes"] = max(
        counters.get("hadamard.matrix_bytes", 0), args[0].entries.nbytes
    )


def _record_gram(counters: Dict[str, float], args: tuple, result) -> None:
    _record_gate(counters, args, result)
    counters["hadamard.gram_macs"] = counters.get("hadamard.gram_macs", 0) + args[0].order ** 3


def _record_pairs(counters: Dict[str, float], args: tuple, result) -> None:
    pairs = sum(b.size * b.size for b in args[0].blocks)
    counters["designs.difference_table.pairs"] = (
        counters.get("designs.difference_table.pairs", 0) + pairs
    )


def _record_certificates(counters: Dict[str, float], args: tuple, result) -> None:
    counters["search.certificates"] = counters.get("search.certificates", 0) + len(result)


# computed counters, taken from a span's arguments and result
SPAN_HOOKS: Dict[str, Callable] = {
    "hadamard.is_hadamard": _record_gram,
    "hadamard.is_skew": _record_gate,
    "hadamard.is_symmetric": _record_gate,
    "designs.difference_table": _record_pairs,
    "search.search_ddf": _record_certificates,
}


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _modules() -> Dict[str, object]:
    return {name: importlib.import_module(f"designforge.{name}") for name in MODULES}


def _replace_everywhere(patches: _Patches, namespaces, old, new) -> None:
    """Rebind every module attribute that is ``old``, so `from x import f` users see ``new``."""
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is old:
                patches.set(ns, attr, new)


class SpanRecorder:
    """Per-op span statistics: name -> [calls, total seconds, self seconds]."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[float] = []  # child time accumulated by each open span
        self._patches = _Patches()

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        hook = SPAN_HOOKS.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = self.stats.get(name)
                if rec is None:
                    rec = self.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if hook is not None:
                hook(self.counters, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        mods = _modules()
        namespaces = list(mods.values()) + [importlib.import_module("designforge")]
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    wrapped = self._wrap(f"{short}.{attr}", value)
                    _replace_everywhere(self._patches, namespaces, value, wrapped)
        for name, (short, cls_name, attr) in SPAN_METHODS.items():
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patches.set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patches.set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        self._patches.undo()


class CallCounter:
    """Counts calls of the per-element methods in COUNTED, and nothing else."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {name: 0 for name in COUNTED}
        self._patches = _Patches()

    def reset(self) -> None:
        for name in COUNTED:
            self.counts[name] = 0

    def install(self) -> None:
        mods = _modules()
        for name, (short, cls_name, attr) in COUNTED.items():
            cls = getattr(mods[short], cls_name)
            self._patches.set(cls, attr, self._counting(name, cls.__dict__[attr]))

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def uninstall(self) -> None:
        self._patches.undo()
