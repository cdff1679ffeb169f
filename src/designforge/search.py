"""Search for divisible difference families that qualify for the symmetric array.

Exhaustive mode enumerates negation-closed, coset-balanced first blocks and
prunes compatible second blocks by partial difference counts; randomized mode
does seeded restart hill-climbing.  Every emitted certificate replays through
the independent verifier before it leaves this module.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import hadamard
from .constructions import PreconditionError
from .designs import Block, DesignParams, DifferenceFamily
from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
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
        if self.mode == "randomized" and (
            self.budget.max_nodes is None and self.budget.max_seconds is None
        ):
            # max_solutions alone bounds nothing: the group may hold fewer
            # distinct families than it asks for
            raise PreconditionError(
                "randomized mode restarts forever without a node or time budget; "
                "set max_nodes or max_seconds"
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
            forbidden=Subgroup(group, json_field(
                data, "forbidden", where, lambda v, at: group.json_codes(v, at, "forbidden element")
            )),
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
        """The batch of one of ``replay_certificates``."""
        return replay_certificates([self])[0]


def replay_certificates(certs: Sequence[Certificate]) -> List[bool]:
    """Whether each certificate's family passes ``check_symmetric_conditions``
    at the spec's m, the oracle's verdict included: one
    ``check_symmetric_conditions_batch`` run.  The certificates must share
    one m, and their families one group and forbidden subgroup; otherwise
    this raises ValueError."""
    if not certs:
        return []
    m = certs[0].spec.m
    if any(cert.spec.m != m for cert in certs):
        raise ValueError("replayed certificates must share one m")
    reports = hadamard.check_symmetric_conditions_batch([cert.family for cert in certs], m)
    return [report.ok for report in reports]


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
    codes, in order of their least member.

    The exhaustive walk keeps its counts packed into one int, a field of
    ``width`` bits per difference code d at bit ``width * d``, holding
    ``count + 2^(width-1) - 1 - targets[d]``.  A count overshoots its target
    exactly when its field's high bit is set, so one AND with ``high`` finds
    any overshoot, and ``complete`` (every field at ``2^(width-1) - 1``) is
    the packed form of counts equal to the targets.  ``2^(width-1)`` exceeds
    k(k-1), the ordered pairs of one block, so a field that starts at most
    at its target plus one choice's pairs stays below ``2^width``: no field
    carries into the next.
    """

    def __init__(self, spec: SearchSpec) -> None:
        group = spec.group
        v = group.order
        codes = np.arange(v)
        self.v = v
        self.diff: List[int] = group.code_sub(codes[:, None], codes[None, :]).ravel().tolist()
        self.neg = self.diff[:v]
        k, lam, mu = spec.targets()
        self.targets = [mu] * v
        for x in spec.forbidden.codes.tolist():
            self.targets[x] = lam
        self.targets[0] = 0
        self.per_coset = spec.m // 4
        self.outside: List[List[int]] = spec.forbidden.coset_codes()[1:].tolist()
        self.width = (k * (k - 1)).bit_length() + 1
        fields = range(0, v * self.width, self.width)
        self.high = sum(1 << (shift + self.width - 1) for shift in fields)
        self.complete = sum(((1 << (self.width - 1)) - 1) << shift for shift in fields)
        # built on first use by the exhaustive walk, one outside coset at a time
        self._packed_cosets: List[Optional[_PackedCoset]] = [None] * len(self.outside)

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

    def pack(self, counts: Iterable[int]) -> int:
        """The packed, biased form of a count list whose counts are at most their targets."""
        width, bias = self.width, (1 << (self.width - 1)) - 1
        return sum(
            (c + bias - t) << (width * d) for d, (c, t) in enumerate(zip(counts, self.targets))
        )

    def pair_vector(self, x: int, y: int) -> int:
        """The packed counts of the ordered pairs (x, y) and (y, x)."""
        diff, v, width = self.diff, self.v, self.width
        return (1 << (width * diff[x * v + y])) + (1 << (width * diff[y * v + x]))

    def packed_coset(self, idx: int) -> "_PackedCoset":
        """The options and pair rows of outside coset ``idx``, built on first use."""
        packed = self._packed_cosets[idx]
        if packed is None:
            packed = self._packed_cosets[idx] = _PackedCoset(self, idx)
        return packed


# Options carry one summed row up to m = 16 (per_coset = m/4 = 4), each
# point's own row above it.  Summing costs C(m/2, m/4) rows per coset
# instead of m/2 and saves per_coset - 1 list passes per accepted option.
# Measured on cyclic specs (exhaustive, max_nodes; child-process peak RSS;
# a shared 2-core host, Python 3.11):
# m = 12 and 16 at 200,000 nodes ran 1.75-3.09 s and 9.6-12.5 s summed
# against 3.36-4.30 s and 15.6-18.6 s per point, at 32.3 against 31.8 MB
# and 40.9 against 33.1 MB; m = 20 at 500 nodes took 121.6 against 36.1 MB,
# and m = 24 at 50 nodes 654 against 42 MB, with 5 of its 22 cosets built.
_SUMMED_MAX_PER_COSET = 4


class _PackedCoset:
    """One outside coset's share of the packed walk.

    ``options`` holds, in ``itertools.combinations`` order, each per_coset
    subset of the coset as (its codes, their positions in the coset, the
    packed counts of the pairs inside it, and the rows that carry its cross
    pairs on).  A row holds packed pair vectors, one per point of the later
    cosets in coset order.  An option's rows are the one sum of its points'
    rows while per_coset is at most ``_SUMMED_MAX_PER_COSET``, else each
    point's own row.  ``size`` is the number of points in the coset.
    """

    __slots__ = ("options", "size")

    def __init__(self, tables: _CodeTables, idx: int) -> None:
        cs = tables.outside[idx]
        pair = tables.pair_vector
        later = list(itertools.chain.from_iterable(tables.outside[idx + 1 :]))
        rows = [[pair(x, y) for y in later] for x in cs]
        self.size = len(cs)
        summed = tables.per_coset <= _SUMMED_MAX_PER_COSET
        self.options = []
        for locs in itertools.combinations(range(len(cs)), tables.per_coset):
            inside = sum(pair(cs[i], cs[j]) for i, j in itertools.combinations(locs, 2))
            if summed:
                carried = [[sum(column) for column in zip(*(rows[i] for i in locs))]]
            else:
                carried = [rows[i] for i in locs]
            self.options.append((tuple(cs[i] for i in locs), locs, inside, carried))


_Options = Callable[[], Iterator[FrozenSet[int]]]


class _MirroredOptions:
    """The options for one negation pair of outside cosets: a
    per_coset-subset of the first coset together with its negation in the
    partner coset, in ``itertools.combinations`` order.  Calling it makes a
    fresh iterator over them, so no option is built before it is reached."""

    __slots__ = ("cs", "neg", "per_coset")

    def __init__(self, cs: List[int], neg: List[int], per_coset: int) -> None:
        self.cs = cs
        self.neg = neg
        self.per_coset = per_coset

    def __call__(self) -> Iterator[FrozenSet[int]]:
        return map(self._mirror, itertools.combinations(self.cs, self.per_coset))

    def draw(self, rng: random.Random) -> FrozenSet[int]:
        """The option ``rng.choice(list(self()))`` would draw, without the list:
        ``rng.randrange(k)`` makes the same draw as ``rng.choice`` over k
        items, and the index is unranked into combinations order."""
        rank = rng.randrange(math.comb(len(self.cs), self.per_coset))
        return self._mirror(_unrank_combination(self.cs, self.per_coset, rank))

    def _mirror(self, sub: Sequence[int]) -> FrozenSet[int]:
        return frozenset(sub) | frozenset(self.neg[x] for x in sub)


def _unrank_combination(items: Sequence[int], r: int, rank: int) -> List[int]:
    """The ``rank``-th r-subset of ``items`` in ``itertools.combinations`` order."""
    out: List[int] = []
    start = 0
    for left in range(r, 0, -1):
        # skip past the subsets whose next item is items[start]
        while rank >= (skipped := math.comb(len(items) - start - 1, left - 1)):
            rank -= skipped
            start += 1
        out.append(items[start])
        start += 1
    return out


def _first_block_choices(tables: _CodeTables) -> List[_MirroredOptions]:
    """Per negation pair of outside cosets, the options for a symmetric, balanced block.

    No outside coset is its own partner: G/N has odd order m - 1, so
    x + N = -x + N forces 2x in N and then x in N.
    """
    neg, per_coset = tables.neg, tables.per_coset
    partners: Set[int] = set()  # least codes of the partner cosets already covered
    choice_groups: List[_MirroredOptions] = []
    for cs in tables.outside:
        if cs[0] in partners:
            continue
        partners.add(min(neg[x] for x in cs))
        choice_groups.append(_MirroredOptions(cs, neg, per_coset))
    return choice_groups


def _lazy_product(choice_groups: Sequence[_Options], prefix: tuple = ()) -> Iterator[tuple]:
    """``itertools.product`` over the groups' options, in the same order, with
    one open iterator per group instead of every option of every group."""
    if len(prefix) == len(choice_groups):
        yield prefix
        return
    for option in choice_groups[len(prefix)]():
        yield from _lazy_product(choice_groups, prefix + (option,))


def _symmetric_first_blocks(tables: _CodeTables, budget: _Budget) -> Iterator[FrozenSet[int]]:
    """Negation-closed blocks meeting every outside coset in exactly m/4 points."""
    for assignment in _lazy_product(_first_block_choices(tables)):
        if not budget.spend_node():
            return
        yield frozenset(itertools.chain.from_iterable(assignment))


def _balanced_blocks(
    tables: _CodeTables,
    base_counts: List[int],
    budget: _Budget,
) -> Iterator[FrozenSet[int]]:
    """Coset-balanced second blocks whose differences complete the targets.

    Depth-first over the outside cosets, keeping the running difference
    counts packed (see ``_CodeTables``) and pruning a choice as soon as any
    frequency it touches overshoots its target.  No block completes a base
    that already overshoots: it returns at once, spending no node.  The
    recursion lives in module-level functions, so a call leaves no closures
    in reference cycles behind.
    """
    if any(c > t for c, t in zip(base_counts, tables.targets)):
        return
    points = sum(map(len, tables.outside))
    yield from _balanced_from(tables, budget, 0, (), tables.pack(base_counts), [0] * points)


def _balanced_from(
    tables: _CodeTables,
    budget: _Budget,
    idx: int,
    chosen: Tuple[int, ...],
    packed: int,
    cross: List[int],
) -> Iterator[FrozenSet[int]]:
    """The blocks that extend ``chosen`` over the outside cosets from ``idx`` on.

    ``packed`` holds the counts so far; ``cross`` holds, for each point of
    the cosets from ``idx`` on, the packed pairs it forms with ``chosen``.
    A choice's counts are then ``packed`` plus its inside pairs plus the
    cross vectors of its points.
    """
    if not budget.spend_node():
        return
    if idx == len(tables.outside):
        if packed == tables.complete:
            yield frozenset(chosen)
        return
    coset = tables.packed_coset(idx)
    high, size = tables.high, coset.size
    for extra, locs, inside, carried in coset.options:
        merged = packed + inside
        for i in locs:
            merged += cross[i]
        if merged & high:
            continue
        later = itertools.islice(cross, size, None)
        for row in carried:
            later = list(map(operator.add, later, row))
        yield from _balanced_from(tables, budget, idx + 1, chosen + extra, merged, later)


# A found family before it is built: its two code blocks, the nodes spent
# and the seconds elapsed when it was found.
_Hit = Tuple[FrozenSet[int], FrozenSet[int], int, float]


def _certificates(spec: SearchSpec, hits: List[_Hit]) -> List[Certificate]:
    """The certificates of the hits' families, replayed together."""
    k, lam, mu = spec.targets()
    group = spec.group
    declared = DesignParams(lam, mu, (k, k))
    codes = itertools.chain.from_iterable(d for d1, d2, _, _ in hits for d in (d1, d2))
    blocks = Block.from_rows(group, np.fromiter(codes, dtype=np.int64).reshape(-1, k))
    certs = [
        Certificate(
            family=DifferenceFamily(
                ambient=group,
                forbidden=spec.forbidden,
                blocks=blocks[2 * i : 2 * i + 2],
                declared=declared,
                provenance={"construction": "search", "m": spec.m, "mode": spec.mode},
            ),
            spec=spec,
            nodes=nodes,
            seed=spec.seed,
            elapsed=elapsed,
        )
        for i, (_, _, nodes, elapsed) in enumerate(hits)
    ]
    if not all(replay_certificates(certs)):
        raise RuntimeError("search emitted a family that failed replay")
    return certs


def search_ddf(spec: SearchSpec) -> List[Certificate]:
    """All (or budget-limited) qualifying families for the spec.

    Exhaustive mode is complete when the budget is unlimited; certificates
    come out ordered by their families' ``sorted_blocks``.  Randomized mode is deterministic for a
    given seed.  Zero false positives: before any certificate is returned,
    all of them have been replayed together through the independent
    verifier.  Both modes work on mixed-radix codes, and certificates hold
    their blocks as codes.

    The walk only records its hits; the families are built and replayed
    after it ends.  So a family that fails replay raises RuntimeError once
    the whole budget is spent, not when it is found, and the build and
    replay come on top of ``max_seconds`` (about 20 ms per 256 families
    at m = 8).
    """
    spec.validate()
    t0 = time.perf_counter()
    budget = _Budget(spec.budget)
    tables = _CodeTables(spec)
    if spec.mode == "exhaustive":
        hits = _exhaustive_search(tables, budget, t0)
    else:
        hits = _randomized_search(spec, tables, budget, t0)
    certs = _certificates(spec, hits)
    return sorted(certs, key=lambda c: [b.codes.tolist() for b in c.family.sorted_blocks()])


def _exhaustive_search(tables: _CodeTables, budget: _Budget, t0: float) -> List[_Hit]:
    """Every first block, then every second block that completes its counts."""
    hits: List[_Hit] = []
    for d1 in _symmetric_first_blocks(tables, budget):
        for d2 in _balanced_blocks(tables, tables.pair_counts(d1), budget):
            if not budget.room_for_solutions():
                return hits
            hits.append((d1, d2, budget.nodes, time.perf_counter() - t0))
            budget.solutions += 1
    return hits


def _randomized_search(
    spec: SearchSpec, tables: _CodeTables, budget: _Budget, t0: float
) -> List[_Hit]:
    """Seeded restart hill-climbing on the squared frequency deviation.

    Moves swap one element of the second block for an unused one inside the
    same coset, so coset balance is invariant; the (negation-closed) first
    block is redrawn on every restart.  A family found again is dropped.
    """
    rng = random.Random(spec.seed)
    per_coset = tables.per_coset
    outside, targets = tables.outside, tables.targets
    choice_groups = _first_block_choices(tables)

    def random_d1() -> FrozenSet[int]:
        return frozenset(
            itertools.chain.from_iterable(options.draw(rng) for options in choice_groups)
        )

    def random_d2() -> FrozenSet[int]:
        chosen: Set[int] = set()
        for cs in outside:
            chosen.update(rng.sample(cs, per_coset))
        return frozenset(chosen)

    hits: List[_Hit] = []
    seen_families: Set[tuple] = set()  # the sorted code blocks of each family found
    while budget.spend_node() and budget.room_for_solutions():
        d1, d2 = random_d1(), random_d2()
        counts = tables.pair_counts(d1, d2)
        score = sum((c - t) ** 2 for c, t in zip(counts, targets))
        stall = 0
        while score > 0 and stall < 200 and budget.spend_node():
            cs = rng.choice(outside)
            inside = [x for x in cs if x in d2]
            outside_pts = [x for x in cs if x not in d2]
            if not inside or not outside_pts:
                stall += 1
                continue
            out_pt, in_pt = rng.choice(inside), rng.choice(outside_pts)
            cand_score, change = _scored_swap(tables, counts, score, d2, out_pt, in_pt)
            if cand_score <= score:
                if cand_score < score:
                    stall = 0
                d2, score = (d2 - {out_pt}) | {in_pt}, cand_score
                for d, step in change.items():
                    counts[d] += step
            else:
                stall += 1
        if score == 0:
            key = tuple(sorted((tuple(sorted(d1)), tuple(sorted(d2)))))
            if key not in seen_families:
                seen_families.add(key)
                hits.append((d1, d2, budget.nodes, time.perf_counter() - t0))
                budget.solutions += 1
    return hits


def _scored_swap(
    tables: _CodeTables,
    counts: List[int],
    score: int,
    d2: FrozenSet[int],
    out_pt: int,
    in_pt: int,
) -> Tuple[int, Dict[int, int]]:
    """The squared deviation after swapping ``out_pt`` of ``d2`` for ``in_pt``,
    with the count changes that make the swap.

    Only the differences of the two points against the rest of ``d2``, in
    both orientations, change; a count c that moves by s with target t
    changes the score by (c + s - t)^2 - (c - t)^2 = s (2 (c - t) + s).
    """
    diff, neg = tables.diff, tables.neg
    row_out, row_in = out_pt * tables.v, in_pt * tables.v
    change: Dict[int, int] = {}
    get = change.get
    for y in d2:
        if y != out_pt:
            d = diff[row_out + y]
            change[d] = get(d, 0) - 1
            d = neg[d]
            change[d] = get(d, 0) - 1
            d = diff[row_in + y]
            change[d] = get(d, 0) + 1
            d = neg[d]
            change[d] = get(d, 0) + 1
    targets = tables.targets
    for d, step in change.items():
        score += step * (2 * (counts[d] - targets[d]) + step)
    return score, change


# -- orbit reduction --------------------------------------------------------------


SYMMETRY_NAMES = ("translation", "negation", "n_multiplication")
# Codes formed per ``code_add`` by ``_canonical_forms``: 32 KB of int32 codes
# per slice, so deduplicating a search's certificates adds no peak memory.
_TRANSLATES_AT_ONCE = 1 << 13


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
    return _canonical_forms([family], symmetries)[0]


def _canonical_forms(
    families: Sequence[DifferenceFamily], symmetries: Sequence[str]
) -> List[Tuple[Tuple[Element, ...], ...]]:
    """``canonical_form`` of each family, batched.

    The blocks are stacked by ambient group, block size and shift set, each
    stack with its negation beneath it.  One ``code_add`` per stack forms
    every translate on mixed-radix codes (in slices of a bounded number of
    translates), whose order is lexicographic tuple order; each translate is
    sorted along its row, and one lexsort with the block as its primary key
    puts each block's least translate first among its own.  The least image
    is chosen on codes and only it is decoded.
    """
    for name in symmetries:
        if name not in SYMMETRY_NAMES:
            raise ValueError(f"unknown symmetry {name!r}; pick from {SYMMETRY_NAMES}")
    negations = 2 if "negation" in symmetries else 1
    # per (group, block size, shifts): the group, the shifts, the block codes
    # and the family of each block
    stacks: Dict[tuple, Tuple[FiniteAbelianGroup, np.ndarray, List[np.ndarray], List[int]]] = {}
    for f, family in enumerate(families):
        group = family.ambient
        if "translation" in symmetries:
            shifts = np.arange(group.order, dtype=group.code_dtype)
        elif "n_multiplication" in symmetries:
            shifts = family.forbidden.codes
        else:
            shifts = np.zeros(1, dtype=group.code_dtype)
        for block in family.blocks:
            key = (group, block.size, shifts.tobytes())
            stack = stacks.setdefault(key, (group, shifts, [], []))
            stack[2].append(block.codes)
            stack[3].append(f)
    # images[f][neg]: the codes of the least translates of family f's blocks
    images: List[List[List[Tuple[int, ...]]]] = [
        [[] for _ in range(negations)] for _ in families
    ]
    element_of: Dict[FiniteAbelianGroup, Dict[int, Element]] = {}
    for group, shifts, blocks, owners in stacks.values():
        codes = np.stack(blocks)
        if negations == 2:
            codes = np.concatenate([codes, group.code_sub(0, codes)])
        step = max(1, _TRANSLATES_AT_ONCE // (shifts.size * max(codes.shape[1], 1)))
        least = np.concatenate(
            [_least_translates(group, codes[i : i + step], shifts) for i in range(0, len(codes), step)]
        )
        for r, row in enumerate(least.tolist()):
            neg, i = divmod(r, len(owners))
            images[owners[i]][neg].append(tuple(row))
        used = group.sorted_codes(least, "translate")
        element_of.setdefault(group, {}).update(
            zip(used.tolist(), group.decode_elements(used))
        )
    forms = []
    for family, states in zip(families, images):
        best = min(tuple(sorted(state)) for state in states)
        elements = element_of.get(family.ambient, {})
        forms.append(tuple(tuple(elements[c] for c in blk) for blk in best))
    return forms


def _least_translates(
    group: FiniteAbelianGroup, codes: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """The lexicographically least sorted translate of each row of ``codes``."""
    translates = np.sort(group.code_add(shifts[:, None], codes[:, None, :]), axis=2)
    rows, count, size = translates.shape
    flat = translates.reshape(rows * count, size)
    block_of = np.repeat(np.arange(rows, dtype=flat.dtype), count)
    return flat[np.lexsort(np.vstack([flat.T[::-1], block_of]))[::count]]


def dedupe(
    certs: Sequence[Certificate],
    symmetries: Sequence[str] = SYMMETRY_NAMES,
) -> List[Certificate]:
    """One certificate per orbit of the declared symmetry actions.

    The kept representative is the first certificate of its orbit in input
    order; output order follows the canonical image.
    """
    best: Dict[tuple, Certificate] = {}
    for cert, key in zip(certs, _canonical_forms([c.family for c in certs], symmetries)):
        if key not in best:
            best[key] = cert
    return [best[k] for k in sorted(best)]
