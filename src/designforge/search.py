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

from . import hadamard
from .constructions import PreconditionError
from .designs import Block, DesignParams, DifferenceFamily
from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    cosets,
    json_elements,
    json_field,
    json_int,
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
    def from_json(cls, data: dict) -> "SearchSpec":
        """Parse ``to_json`` output; a malformed field raises ValueError naming it."""
        group = FiniteAbelianGroup.from_json(
            json_field(data, "group", "spec", json_object), "spec.group"
        )
        budget = json_field(data, "budget", "spec", json_object, {})
        unknown = set(budget) - {"max_nodes", "max_solutions", "max_seconds"}
        if unknown:
            raise ValueError(f"spec.budget.{min(unknown)} is not a budget field")
        seconds = json_typed("a number", int, float)
        return cls(
            group=group,
            forbidden=Subgroup(group, json_field(data, "forbidden", "spec", json_elements)),
            m=json_field(data, "m", "spec", json_int),
            mode=json_field(data, "mode", "spec", json_typed("a string", str), "exhaustive"),
            budget=SearchBudget(
                max_nodes=json_field(budget, "max_nodes", "spec.budget", json_int, None),
                max_solutions=json_field(budget, "max_solutions", "spec.budget", json_int, None),
                max_seconds=json_field(budget, "max_seconds", "spec.budget", seconds, None),
            ),
            seed=json_field(data, "seed", "spec", json_int, 0),
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
        spec = SearchSpec.from_json(data["spec"])
        family = DifferenceFamily.from_json(data)
        return cls(
            family=family,
            spec=spec,
            nodes=int(data.get("nodes", 0)),
            seed=int(data.get("seed", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
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


def _coset_structure(spec: SearchSpec):
    """Non-forbidden cosets, sorted, with the negation pairing between them."""
    group = spec.group
    all_cosets = cosets(group, spec.forbidden)
    outside = [cs for _, cs in all_cosets if min(cs) not in spec.forbidden]
    neg_of: Dict[FrozenSet, FrozenSet] = {}
    for cs in outside:
        neg_of[cs] = frozenset(group.neg(x) for x in cs)
    return outside, neg_of


def _first_block_choices(spec: SearchSpec) -> List[List[FrozenSet[Element]]]:
    """Per negation-orbit-of-cosets options for a symmetric, balanced block.

    A paired coset contributes a free m/4-subset mirrored into its partner;
    a self-paired coset is filled from its internal {x, -x} orbits.
    """
    group = spec.group
    per_coset = spec.m // 4
    outside, neg_of = _coset_structure(spec)
    handled: Set[FrozenSet] = set()
    choice_groups: List[List[FrozenSet[Element]]] = []
    for cs in outside:
        if cs in handled:
            continue
        partner = neg_of[cs]
        if partner == cs:
            orbits: List[Tuple[Element, ...]] = []
            seen: Set[Element] = set()
            for x in sorted(cs):
                if x in seen:
                    continue
                nx = group.neg(x)
                orbit = (x,) if nx == x else (x, nx)
                seen.update(orbit)
                orbits.append(orbit)
            options = [
                frozenset(itertools.chain.from_iterable(sel))
                for r in range(len(orbits) + 1)
                for sel in itertools.combinations(orbits, r)
                if sum(len(o) for o in sel) == per_coset
            ]
            handled.add(cs)
        else:
            options = [
                frozenset(sub) | frozenset(group.neg(x) for x in sub)
                for sub in itertools.combinations(sorted(cs), per_coset)
            ]
            handled.add(cs)
            handled.add(partner)
        choice_groups.append(options)
    return choice_groups


def _symmetric_first_blocks(spec: SearchSpec, budget: _Budget) -> Iterator[FrozenSet[Element]]:
    """Negation-closed blocks meeting every outside coset in exactly m/4 points."""
    for assignment in itertools.product(*_first_block_choices(spec)):
        if not budget.spend_node():
            return
        yield frozenset(itertools.chain.from_iterable(assignment))


def _balanced_blocks(
    spec: SearchSpec,
    base_counts: Dict[Element, int],
    budget: _Budget,
) -> Iterator[FrozenSet[Element]]:
    """Coset-balanced second blocks whose differences complete the targets.

    Depth-first over the outside cosets, keeping a running difference count
    and pruning as soon as any frequency overshoots its target.
    """
    group = spec.group
    _, lam, mu = spec.targets()
    targets = {
        d: (lam if d in spec.forbidden else mu)
        for d in group.elements()
        if d != group.zero()
    }
    per_coset = spec.m // 4
    outside, _ = _coset_structure(spec)
    sub = group.sub

    def rec(idx: int, chosen: List[Element], counts: Dict[Element, int]) -> Iterator[FrozenSet[Element]]:
        if not budget.spend_node():
            return
        if idx == len(outside):
            if all(counts.get(d, 0) == t for d, t in targets.items()):
                yield frozenset(chosen)
            return
        for extra in itertools.combinations(sorted(outside[idx]), per_coset):
            delta: Dict[Element, int] = {}
            ok = True
            new_elems = list(extra)
            for i, x in enumerate(new_elems):
                for y in itertools.chain(chosen, new_elems[i + 1 :]):
                    for d in (sub(x, y), sub(y, x)):
                        delta[d] = delta.get(d, 0) + 1
            for d, extra_count in delta.items():
                if counts.get(d, 0) + extra_count > targets.get(d, 0):
                    ok = False
                    break
            if not ok:
                continue
            merged = dict(counts)
            for d, c in delta.items():
                merged[d] = merged.get(d, 0) + c
            yield from rec(idx + 1, chosen + new_elems, merged)

    yield from rec(0, [], dict(base_counts))


def _pair_counts(group: FiniteAbelianGroup, elems: Iterable[Element]) -> Dict[Element, int]:
    out: Dict[Element, int] = {}
    elems = list(elems)
    for x in elems:
        for y in elems:
            if x != y:
                d = group.sub(x, y)
                out[d] = out.get(d, 0) + 1
    return out


def _make_certificate(
    spec: SearchSpec, d1: FrozenSet[Element], d2: FrozenSet[Element], budget: _Budget, t0: float
) -> Certificate:
    k, lam, mu = spec.targets()
    family = DifferenceFamily(
        ambient=spec.group,
        forbidden=spec.forbidden,
        blocks=[Block(spec.group, d1), Block(spec.group, d2)],
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
    replayed through the independent verifier.
    """
    spec.validate()
    t0 = time.perf_counter()
    budget = _Budget(spec.budget)
    certs: List[Certificate] = []
    if spec.mode == "exhaustive":
        for d1 in _symmetric_first_blocks(spec, budget):
            base = _pair_counts(spec.group, d1)
            if any(
                c > (spec.targets()[1] if d in spec.forbidden else spec.targets()[2])
                for d, c in base.items()
            ):
                continue
            for d2 in _balanced_blocks(spec, base, budget):
                if not budget.room_for_solutions():
                    return _sorted_certs(certs)
                certs.append(_make_certificate(spec, d1, d2, budget, t0))
                budget.solutions += 1
    else:
        certs = _randomized_search(spec, budget, t0)
    return _sorted_certs(certs)


def _sorted_certs(certs: List[Certificate]) -> List[Certificate]:
    return sorted(certs, key=lambda c: c.family.canonical_blocks())


def _randomized_search(spec: SearchSpec, budget: _Budget, t0: float) -> List[Certificate]:
    """Seeded restart hill-climbing on the squared frequency deviation.

    Moves swap one element of the second block for an unused one inside the
    same coset, so coset balance is invariant; the (negation-closed) first
    block is redrawn on every restart.
    """
    rng = random.Random(spec.seed)
    group = spec.group
    k, lam, mu = spec.targets()
    per_coset = spec.m // 4
    outside, neg_of = _coset_structure(spec)
    targets = {
        d: (lam if d in spec.forbidden else mu)
        for d in group.elements()
        if d != group.zero()
    }

    def deviation(d1: FrozenSet, d2: FrozenSet) -> int:
        fam_counts = _pair_counts(group, d1)
        for d, c in _pair_counts(group, d2).items():
            fam_counts[d] = fam_counts.get(d, 0) + c
        return sum((fam_counts.get(d, 0) - t) ** 2 for d, t in targets.items())

    choice_groups = _first_block_choices(spec)
    if any(not options for options in choice_groups):
        return []

    def random_d1() -> FrozenSet:
        return frozenset(
            itertools.chain.from_iterable(rng.choice(options) for options in choice_groups)
        )

    def random_d2() -> FrozenSet:
        chosen: Set[Element] = set()
        for cs in outside:
            chosen.update(rng.sample(sorted(cs), per_coset))
        return frozenset(chosen)

    certs: List[Certificate] = []
    seen_families: Set[tuple] = set()
    while budget.spend_node() and budget.room_for_solutions():
        d1, d2 = random_d1(), random_d2()
        score = deviation(d1, d2)
        stall = 0
        while score > 0 and stall < 200 and budget.spend_node():
            cs = rng.choice(outside)
            inside = sorted(set(cs) & d2)
            outside_pts = sorted(set(cs) - d2)
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
            cert = _make_certificate(spec, d1, d2, budget, t0)
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
    least translates, taken over both negation states.
    """
    for name in symmetries:
        if name not in SYMMETRY_NAMES:
            raise ValueError(f"unknown symmetry {name!r}; pick from {SYMMETRY_NAMES}")
    group = family.ambient
    shifts: Sequence[Element]
    if "translation" in symmetries:
        shifts = list(group.elements())
    elif "n_multiplication" in symmetries:
        shifts = sorted(family.forbidden.elements)
    else:
        shifts = [group.zero()]
    negations = (False, True) if "negation" in symmetries else (False,)
    best: Optional[Tuple[Tuple[Element, ...], ...]] = None
    for neg in negations:
        canon_blocks = []
        for block in family.blocks:
            elems = (
                [group.neg(x) for x in block.elements] if neg else list(block.elements)
            )
            canon_blocks.append(
                min(tuple(sorted(group.add(x, t) for x in elems)) for t in shifts)
            )
        cand = tuple(sorted(canon_blocks))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


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
