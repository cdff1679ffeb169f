"""Seeded workload inputs: the argv of each op and the files it names.

The seed stays on this side: the program under test sees only argv lists and
the JSON files written here.  Nothing in this module imports designforge, so
the oracle inputs are built without the library they test.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from typing import Iterator, List, Sequence, Tuple

WORKLOADS = ("gr4_symmetric", "szekeres_skew", "search_m8", "oracle_verify")

# Exponents i of g^i in GF(32) (designforge's default modulus) with trace 0.
TRACE_ZERO_U = (1, 2, 4, 7, 8, 14, 15, 16, 19, 23, 25, 27, 28, 29, 30)

# oracle_verify draws its translates and swaps from seed % ORACLE_VARIANTS,
# so reference.json can hold the expected stdout of every input it can make.
ORACLE_VARIANTS = 16

SKEW_Q = 1331
SEARCH_M = 8
SEARCH_MAX_SOLUTIONS = 256

Element = Tuple[int, ...]


class Op:
    """One closed-loop op: a fixed sequence of CLI calls.

    ``key`` names the entry of reference.json that holds the expected outcome
    of every call; ``labels`` names the calls inside that entry.
    """

    def __init__(self, key: str, calls: List[Tuple[str, List[str]]]) -> None:
        self.key = key
        self.labels = [label for label, _ in calls]
        self.argvs = [argv for _, argv in calls]


# -- gr4_symmetric ---------------------------------------------------------------


def gr4_argv(u: int) -> List[str]:
    return ["hadamard", "symmetric", "--n", "5", "--u", str(u)]


def gr4_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(f"gr4_symmetric/{seed}")
    while True:
        u = rng.choice(TRACE_ZERO_U)
        yield Op(f"u={u}", [("symmetric", gr4_argv(u))])


# -- szekeres_skew ---------------------------------------------------------------


def skew_argv() -> List[str]:
    return ["hadamard", "skew", "--q", str(SKEW_Q)]


def skew_ops(seed: int) -> Iterator[Op]:
    while True:
        yield Op(f"q={SKEW_Q}", [("skew", skew_argv())])


# -- search_m8 -------------------------------------------------------------------


def search_spec(seed: int) -> dict:
    """Z_7 x Z_2^2 with N = {0} x Z_2^2; the exhaustive walk ignores ``seed``."""
    return {
        "group": {"moduli": [7, 2, 2]},
        "forbidden": [[0, a, b] for a in range(2) for b in range(2)],
        "m": SEARCH_M,
        "mode": "exhaustive",
        "seed": seed,
        "budget": {"max_solutions": SEARCH_MAX_SOLUTIONS},
    }


def search_ops(seed: int, workdir: str) -> Iterator[Op]:
    path = os.path.join(workdir, f"search_m8-{seed}.json")
    _write_json(path, search_spec(seed))
    while True:
        yield Op(f"m={SEARCH_M}", [("search", ["search", path])])


# -- oracle_verify -----------------------------------------------------------------


def _legendre(x: int, p: int) -> int:
    r = pow(x, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def paley_set() -> Tuple[Tuple[int, ...], List[Element]]:
    """Nonzero squares of Z_8191: a (8191, 4095, 2047) difference set."""
    p = 8191
    return (p,), sorted({((x * x) % p,) for x in range(1, p)})


def twin_prime_set() -> Tuple[Tuple[int, ...], List[Element]]:
    """Stanton-Sprott set in Z_59 x Z_61: a (3599, 1799, 899) difference set."""
    p, q = 59, 61
    elems = [(x, 0) for x in range(p)]
    elems += [
        (x, y)
        for x in range(1, p)
        for y in range(1, q)
        if _legendre(x, p) == _legendre(y, q)
    ]
    return (p, q), sorted(elems)


def bent_set() -> Tuple[Tuple[int, ...], List[Element]]:
    """{x in Z_2^12 : x1x2 + ... + x11x12 = 1}: a (4096, 2016, 992) set."""
    elems = [
        x
        for x in itertools.product(range(2), repeat=12)
        if sum(x[i] * x[i + 1] for i in range(0, 12, 2)) % 2 == 1
    ]
    return (2,) * 12, sorted(elems)


ORACLE_SETS = (("paley", paley_set), ("twin_prime", twin_prime_set), ("bent", bent_set))


def family_json(moduli: Sequence[int], elems: Sequence[Element]) -> dict:
    return {
        "group": {"moduli": list(moduli)},
        "forbidden": [[0] * len(moduli)],
        "blocks": [[list(e) for e in sorted(elems)]],
    }


def oracle_families(variant: int) -> List[Tuple[str, dict]]:
    """Each set moved by a seeded translate, then a copy with one element swapped."""
    rng = random.Random(f"oracle_verify/{variant}")
    out: List[Tuple[str, dict]] = []
    for name, build in ORACLE_SETS:
        moduli, elems = build()
        t = [rng.randrange(m) for m in moduli]
        moved = sorted(tuple((c + s) % m for c, s, m in zip(e, t, moduli)) for e in elems)
        members = set(moved)
        outside = [x for x in itertools.product(*(range(m) for m in moduli)) if x not in members]
        drop, add = rng.choice(moved), rng.choice(outside)
        swapped = sorted((members - {drop}) | {add})
        out.append((name, family_json(moduli, moved)))
        out.append((f"{name}_swapped", family_json(moduli, swapped)))
    return out


def oracle_ops(seed: int, workdir: str) -> Iterator[Op]:
    variant = seed % ORACLE_VARIANTS
    calls = []
    for label, data in oracle_families(variant):
        path = os.path.join(workdir, f"oracle-v{variant}-{label}.json")
        _write_json(path, data)
        calls.append((label, ["verify", path]))
    while True:
        yield Op(f"variant={variant}", calls)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))


def workload_ops(name: str, seed: int, workdir: str) -> Iterator[Op]:
    if name == "gr4_symmetric":
        return gr4_ops(seed)
    if name == "szekeres_skew":
        return skew_ops(seed)
    if name == "search_m8":
        return search_ops(seed, workdir)
    if name == "oracle_verify":
        return oracle_ops(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def reference_ops(workdir: str) -> Iterator[Tuple[str, Op]]:
    """(workload, op) for every distinct op any seed can draw."""
    for u in TRACE_ZERO_U:
        yield "gr4_symmetric", Op(f"u={u}", [("symmetric", gr4_argv(u))])
    yield "szekeres_skew", next(skew_ops(0))
    yield "search_m8", next(search_ops(0, workdir))
    for variant in range(ORACLE_VARIANTS):
        yield "oracle_verify", next(oracle_ops(variant, workdir))
