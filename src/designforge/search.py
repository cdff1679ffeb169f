"""Search for divisible difference families that qualify for the symmetric array.

Exhaustive mode enumerates negation-closed, coset-balanced first blocks and
prunes compatible second blocks by partial difference counts; randomized mode
does seeded restart hill-climbing.  Every emitted certificate replays through
the independent verifier before it leaves this module.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import hadamard
from .constructions import PreconditionError
from .designs import Block, DesignParams, DifferenceFamily
from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    json_elements,
    json_field,
    json_int,
    json_number,
    json_object,
    json_typed,
)


@dataclass
class SearchBudget:
    max_nodes: Optional[int] = None
    max_solutions: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass
class SearchSpec:
    """Target group, forbidden subgroup and seed order for the array conditions."""

    group: FiniteAbelianGroup
    forbidden: Subgroup
    m: int
    mode: str = "exhaustive"  # or "randomized"
    budget: SearchBudget = field(default_factory=SearchBudget)
    seed: int = 0

    def validate(self) -> None:
        m = self.m
        if m % 4 != 0:
            raise PreconditionError(
                f"m={m} infeasible: m(m-4)/4 = {m}({m - 4})/4 is not integral "
                "unless m = 0 (mod 4)"
            )
        if self.group.order != m * (m - 1) // 2:
            raise PreconditionError(
                f"|G|={self.group.order}, need m(m-1)/2={m * (m - 1) // 2}"
            )
        if self.forbidden.order != m // 2:
            raise PreconditionError(
                f"|N|={self.forbidden.order}, need m/2={m // 2}"
            )
        if self.mode not in ("exhaustive", "randomized"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        if self.mode == "randomized" and all(
            limit is None
            for limit in (
                self.budget.max_nodes,
                self.budget.max_solutions,
                self.budget.max_seconds,
            )
        ):
            raise PreconditionError(
                "randomized mode restarts forever without a budget; set "
                "max_nodes, max_solutions or max_seconds"
            )

    def targets(self) -> Tuple[int, int, int]:
        """Block size, inside frequency, outside frequency."""
        m = self.m
        return m * (m - 2) // 4, m * (m - 4) // 4, m * (m - 3) // 4

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "forbidden": self.forbidden.to_json(),
            "m": self.m,
            "mode": self.mode,
            "seed": self.seed,
            "budget": {
                "max_nodes": self.budget.max_nodes,
                "max_solutions": self.budget.max_solutions,
                "max_seconds": self.budget.max_seconds,
            },
        }

    @classmethod
    def from_json(cls, data: dict, where: str = "spec") -> "SearchSpec":
        """Parse ``to_json`` output found at the JSON path ``where``.

        A malformed field raises ValueError naming its path, such as
        ``spec.budget.max_nodes``.
        """
        group = FiniteAbelianGroup.from_json(
            json_field(data, "group", where, json_object), f"{where}.group"
        )
        budget = json_field(data, "budget", where, json_object, {})
        unknown = set(budget) - {"max_nodes", "max_solutions", "max_seconds"}
        if unknown:
            raise ValueError(f"{where}.budget.{min(unknown)} is not a budget field")
        in_budget = f"{where}.budget"
        return cls(
            group=group,
            forbidden=Subgroup(group, json_field(data, "forbidden", where, json_elements)),
            m=json_field(data, "m", where, json_int),
            mode=json_field(data, "mode", where, json_typed("a string", str), "exhaustive"),
            budget=SearchBudget(
                max_nodes=json_field(budget, "max_nodes", in_budget, json_int, None),
                max_solutions=json_field(budget, "max_solutions", in_budget, json_int, None),
                max_seconds=json_field(budget, "max_seconds", in_budget, json_number, None),
            ),
            seed=json_field(data, "seed", where, json_int, 0),
        )


@dataclass
class Certificate:
    """A found family plus enough context to replay the verification."""

    family: DifferenceFamily
    spec: SearchSpec
    nodes: int
    seed: int
    elapsed: float

    def to_json(self) -> dict:
        data = self.family.to_json()
        data["spec"] = self.spec.to_json()
        data["nodes"] = self.nodes
        data["seed"] = self.seed
        data["elapsed"] = round(self.elapsed, 6)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        """Parse ``to_json`` output; a malformed field raises ValueError naming it,
        such as ``certificate.spec.m`` or ``certificate.nodes``."""
        where = "certificate"
        spec = SearchSpec.from_json(
            json_field(data, "spec", where, json_object), f"{where}.spec"
        )
        return cls(
            family=DifferenceFamily.from_json(data),
            spec=spec,
            nodes=json_field(data, "nodes", where, json_int, 0),
            seed=json_field(data, "seed", where, json_int, 0),
            elapsed=float(json_field(data, "elapsed", where, json_number, 0.0)),
        )

    def replay(self) -> bool:
        """One ``check_symmetric_conditions`` run; it includes the oracle's verdict."""
        return hadamard.check_symmetric_conditions(self.family, self.spec.m).ok


class _Budget:
    def __init__(self, budget: SearchBudget) -> None:
        self.max_nodes = budget.max_nodes
        self.max_solutions = budget.max_solutions
        self.deadline = (
            time.perf_counter() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        self.nodes = 0
        self.solutions = 0

    def spend_node(self) -> bool:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            return False
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return False
        return True

    def room_for_solutions(self) -> bool:
        return self.max_solutions is None or self.solutions < self.max_solutions


class _CodeTables:
    """The spec's group as mixed-radix codes 0..v-1, for the search's hot loops.

    ``diff[x * v + y]`` is the code of x - y, so ``diff[:v]`` negates;
    ``targets[d]`` is the frequency the family needs at difference d (0 at
    d = 0, which no pair of distinct elements produces); ``outside`` lists
    the cosets of the forbidden subgroup other than itself, each as sorted
    codes, in order of their least member.  Code order is lexicographic
    tuple order, so every sorted list here lines up with the tuple elements.
    """

    def __init__(self, spec: SearchSpec) -> None:
        group = spec.group
        v = group.order
        codes = np.arange(v)
        self.v = v
        self.elements = list(group.elements())  # by code, shared by every certificate
        self.diff: List[int] = group.code_sub(codes[:, None], codes[None, :]).ravel().tolist()
        self.neg = self.diff[:v]
        _, lam, mu = spec.targets()
        in_n = group.encode(list(spec.forbidden.elements)).tolist()
        self.targets = [mu] * v
        for x in in_n:
            self.targets[x] = lam
        self.targets[0] = 0
        self.per_coset = spec.m // 4
        self.outside: List[List[int]] = []
        seen = set(in_n)
        for x in range(v):
            if x not in seen:
                # x + n = x - (-n)
                coset = sorted(self.diff[x * v + self.neg[n]] for n in in_n)
                seen.update(coset)
                self.outside.append(coset)

    def pair_counts(self, *blocks: Iterable[int]) -> List[int]:
        """Difference counts over the ordered pairs of distinct points of each block."""
        diff, v = self.diff, self.v
        counts = [0] * v
        for block in blocks:
            elems = list(block)
            for x in elems:
                row = x * v
                for y in elems:
                    if x != y:
                        counts[diff[row + y]] += 1
        return counts


def _first_block_choices(tables: _CodeTables) -> List[List[FrozenSet[int]]]:
    """Per negation-orbit-of-cosets options for a symmetric, balanced block.

    A paired coset contributes a free m/4-subset mirrored into its partner;
    a self-paired coset is filled from its internal {x, -x} orbits.
    """
    neg, per_coset = tables.neg, tables.per_coset
    handled: Set[int] = set()  # least codes of the cosets already covered
    choice_groups: List[List[FrozenSet[int]]] = []
    for cs in tables.outside:
        if cs[0] in handled:
            continue
        partner = sorted(neg[x] for x in cs)
        if partner == cs:
            orbits: List[Tuple[int, ...]] = []
            seen: Set[int] = set()
            for x in cs:
                if x in seen:
                    continue
                nx = neg[x]
                orbit = (x,) if nx == x else (x, nx)
                seen.update(orbit)
                orbits.append(orbit)
            options = [
                frozenset(itertools.chain.from_iterable(sel))
                for r in range(len(orbits) + 1)
                for sel in itertools.combinations(orbits, r)
                if sum(len(o) for o in sel) == per_coset
            ]
            handled.add(cs[0])
        else:
            options = [
                frozenset(sub) | frozenset(neg[x] for x in sub)
                for sub in itertools.combinations(cs, per_coset)
            ]
            handled.add(cs[0])
            handled.add(partner[0])
        choice_groups.append(options)
    return choice_groups


def _symmetric_first_blocks(tables: _CodeTables, budget: _Budget) -> Iterator[FrozenSet[int]]:
    """Negation-closed blocks meeting every outside coset in exactly m/4 points."""
    for assignment in itertools.product(*_first_block_choices(tables)):
        if not budget.spend_node():
            return
        yield frozenset(itertools.chain.from_iterable(assignment))


def _balanced_blocks(
    tables: _CodeTables,
    base_counts: List[int],
    budget: _Budget,
) -> Iterator[FrozenSet[int]]:
    """Coset-balanced second blocks whose differences complete the targets.

    Depth-first over the outside cosets, keeping a running difference count
    and pruning a choice as soon as any frequency overshoots its target.
    """
    diff, neg, v, targets = tables.diff, tables.neg, tables.v, tables.targets
    outside, per_coset = tables.outside, tables.per_coset

    def extend(counts: List[int], chosen: List[int], extra: Tuple[int, ...]) -> Optional[List[int]]:
        """The counts with extra's new pairs added, or None once one overshoots."""
        merged = counts[:]
        for i, x in enumerate(extra):
            row = x * v
            for y in itertools.chain(chosen, extra[i + 1 :]):
                d = diff[row + y]
                merged[d] += 1
                if merged[d] > targets[d]:
                    return None
                d = neg[d]
                merged[d] += 1
                if merged[d] > targets[d]:
                    return None
        return merged

    def rec(idx: int, chosen: List[int], counts: List[int]) -> Iterator[FrozenSet[int]]:
        if not budget.spend_node():
            return
        if idx == len(outside):
            if counts == targets:
                yield frozenset(chosen)
            return
        for extra in itertools.combinations(outside[idx], per_coset):
            merged = extend(counts, chosen, extra)
            if merged is not None:
                yield from rec(idx + 1, chosen + list(extra), merged)

    yield from rec(0, [], list(base_counts))


def _make_certificate(
    spec: SearchSpec,
    tables: _CodeTables,
    d1: FrozenSet[int],
    d2: FrozenSet[int],
    budget: _Budget,
    t0: float,
) -> Certificate:
    """Decode the two code blocks into a family, and replay it."""
    k, lam, mu = spec.targets()
    group, elements = spec.group, tables.elements
    family = DifferenceFamily(
        ambient=group,
        forbidden=spec.forbidden,
        blocks=[Block(group, frozenset(elements[c] for c in d)) for d in (d1, d2)],
        declared=DesignParams(lam, mu, (k, k)),
        provenance={"construction": "search", "m": spec.m, "mode": spec.mode},
    )
    cert = Certificate(
        family=family,
        spec=spec,
        nodes=budget.nodes,
        seed=spec.seed,
        elapsed=time.perf_counter() - t0,
    )
    if not cert.replay():
        raise RuntimeError("search emitted a family that failed replay")
    return cert


def search_ddf(spec: SearchSpec) -> List[Certificate]:
    """All (or budget-limited) qualifying families for the spec.

    Exhaustive mode is complete when the budget is unlimited; certificates
    come out in canonical order.  Randomized mode is deterministic for a
    given seed.  Zero false positives: every certificate has already been
    replayed through the independent verifier.  Both modes work on
    mixed-radix codes; certificates hold tuple elements.
    """
    spec.validate()
    t0 = time.perf_counter()
    budget = _Budget(spec.budget)
    tables = _CodeTables(spec)
    certs: List[Certificate] = []
    if spec.mode == "exhaustive":
        for d1 in _symmetric_first_blocks(tables, budget):
            base = tables.pair_counts(d1)
            if any(c > t for c, t in zip(base, tables.targets)):
                continue
            for d2 in _balanced_blocks(tables, base, budget):
                if not budget.room_for_solutions():
                    return _sorted_certs(certs)
                certs.append(_make_certificate(spec, tables, d1, d2, budget, t0))
                budget.solutions += 1
    else:
        certs = _randomized_search(spec, tables, budget, t0)
    return _sorted_certs(certs)


def _sorted_certs(certs: List[Certificate]) -> List[Certificate]:
    return sorted(certs, key=lambda c: c.family.canonical_blocks())


def _randomized_search(
    spec: SearchSpec, tables: _CodeTables, budget: _Budget, t0: float
) -> List[Certificate]:
    """Seeded restart hill-climbing on the squared frequency deviation.

    Moves swap one element of the second block for an unused one inside the
    same coset, so coset balance is invariant; the (negation-closed) first
    block is redrawn on every restart.
    """
    rng = random.Random(spec.seed)
    per_coset = tables.per_coset
    outside, targets = tables.outside, tables.targets

    def deviation(d1: FrozenSet[int], d2: FrozenSet[int]) -> int:
        counts = tables.pair_counts(d1, d2)
        return sum((c - t) ** 2 for c, t in zip(counts, targets))

    choice_groups = _first_block_choices(tables)
    if any(not options for options in choice_groups):
        return []

    def random_d1() -> FrozenSet[int]:
        return frozenset(
            itertools.chain.from_iterable(rng.choice(options) for options in choice_groups)
        )

    def random_d2() -> FrozenSet[int]:
        chosen: Set[int] = set()
        for cs in outside:
            chosen.update(rng.sample(cs, per_coset))
        return frozenset(chosen)

    certs: List[Certificate] = []
    seen_families: Set[tuple] = set()
    while budget.spend_node() and budget.room_for_solutions():
        d1, d2 = random_d1(), random_d2()
        score = deviation(d1, d2)
        stall = 0
        while score > 0 and stall < 200 and budget.spend_node():
            cs = rng.choice(outside)
            inside = [x for x in cs if x in d2]
            outside_pts = [x for x in cs if x not in d2]
            if not inside or not outside_pts:
                stall += 1
                continue
            out_pt, in_pt = rng.choice(inside), rng.choice(outside_pts)
            cand = (d2 - {out_pt}) | {in_pt}
            cand_score = deviation(d1, cand)
            if cand_score <= score:
                if cand_score < score:
                    stall = 0
                d2, score = cand, cand_score
            else:
                stall += 1
        if score == 0:
            cert = _make_certificate(spec, tables, d1, d2, budget, t0)
            key = tuple(map(tuple, cert.family.canonical_blocks()))
            if key not in seen_families:
                seen_families.add(key)
                certs.append(cert)
                budget.solutions += 1
    return certs


# -- orbit reduction --------------------------------------------------------------


SYMMETRY_NAMES = ("translation", "negation", "n_multiplication")


def canonical_form(
    family: DifferenceFamily, symmetries: Sequence[str]
) -> Tuple[Tuple[Element, ...], ...]:
    """Lexicographically least image under the chosen symmetry actions.

    translation: independent shifts of each block by arbitrary elements;
    n_multiplication: the same restricted to the forbidden subgroup (the
    additive shadow of multiplying by forbidden-subgroup elements);
    negation: negating all blocks at once.  Because block shifts are
    independent, the least sorted image is the sorted tuple of per-block
    least translates, taken over both negation states.  The images are
    formed on mixed-radix codes, whose order is lexicographic tuple order,
    and only the least one is decoded.
    """
    for name in symmetries:
        if name not in SYMMETRY_NAMES:
            raise ValueError(f"unknown symmetry {name!r}; pick from {SYMMETRY_NAMES}")
    group = family.ambient
    if "translation" in symmetries:
        shifts = np.arange(group.order)
    elif "n_multiplication" in symmetries:
        shifts = group.encode(list(family.forbidden.elements))
    else:
        shifts = np.zeros(1, dtype=np.int64)
    negations = (False, True) if "negation" in symmetries else (False,)
    blocks = [group.encode(list(block.elements)) for block in family.blocks]
    best: Optional[Tuple[Tuple[int, ...], ...]] = None
    for neg in negations:
        images = (group.code_sub(0, b) if neg else b for b in blocks)
        cand = tuple(sorted(_least_translate(group, b, shifts) for b in images))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return tuple(tuple(map(group.element, blk)) for blk in best)


def _least_translate(
    group: FiniteAbelianGroup, codes: np.ndarray, shifts: np.ndarray
) -> Tuple[int, ...]:
    """The lexicographically least sorted translate of a code block."""
    images = group.code_add(shifts[:, None], codes[None, :]).tolist()
    return min(tuple(sorted(row)) for row in images)


def dedupe(
    certs: Sequence[Certificate],
    symmetries: Sequence[str] = SYMMETRY_NAMES,
) -> List[Certificate]:
    """One certificate per orbit of the declared symmetry actions.

    The kept representative is the one whose canonical image is
    lexicographically least; output order follows that canonical image.
    """
    best: Dict[tuple, Certificate] = {}
    for cert in certs:
        key = canonical_form(cert.family, symmetries)
        if key not in best:
            best[key] = cert
    return [best[k] for k in sorted(best)]
