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
            raise PreconditionError(f"|G|={self.group.order}, need m(m-1)/2={m * (m - 1) // 2}")
        if self.forbidden.order != m // 2:
            raise PreconditionError(f"|N|={self.forbidden.order}, need m/2={m // 2}")
        if self.mode not in ("exhaustive", "randomized"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        for name, value in vars(self.budget).items():
            # NaN fails both comparisons, and a deadline of NaN never passes
            if value is not None and not 0 <= value < math.inf:
                raise PreconditionError(f"budget.{name} is {value}; it must be finite and >= 0")
        budget = self.budget
        if self.mode == "randomized" and budget.max_nodes is None and budget.max_seconds is None:
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
            "group": self.group.to_json(), "forbidden": self.forbidden.to_json(), "m": self.m,
            "mode": self.mode, "seed": self.seed, "budget": dict(vars(self.budget)),
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
        return dict(
            self.family.to_json(), spec=self.spec.to_json(), nodes=self.nodes, seed=self.seed,
            elapsed=round(self.elapsed, 6),
        )

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        """Parse ``to_json`` output; a malformed field raises ValueError naming it,
        such as ``certificate.spec.m`` or ``certificate.nodes``."""
        where = "certificate"
        spec = SearchSpec.from_json(json_field(data, "spec", where, json_object), f"{where}.spec")
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
    at the spec's m, the oracle's verdict included (counted for the families
    that carry none): one ``check_symmetric_conditions_batch`` run.  The certificates must share
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
        seconds = budget.max_seconds
        self.deadline = None if seconds is None else time.perf_counter() + seconds
        self.nodes = 0
        self.solutions = 0

    def spend_node(self) -> bool:
        # the count stops at max_nodes + 1, so a cut walk reports that however it was cut
        if self.max_nodes is None or self.nodes <= self.max_nodes:
            self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            return False
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return False
        return True

    def room_for_solutions(self) -> bool:
        return self.max_solutions is None or self.solutions < self.max_solutions


def _lane_dtype(targets: Sequence[int], per_coset: int) -> np.dtype:
    """8-bit lanes while every target is at most 127 and a choice's 2 m/4 at most 128."""
    return np.dtype(np.uint8 if max(targets) <= 127 and 2 * per_coset <= 128 else np.uint16)


class _CodeTables:
    """The spec's group as mixed-radix codes 0..v-1, for the search's hot loops.

    ``diff[x * v + y]`` is the code of x - y, so ``diff[:v]`` negates;
    ``targets[d]`` is the frequency the family needs at difference d (0 at
    d = 0, which no pair of distinct elements produces); ``outside`` lists
    the cosets of the forbidden subgroup other than itself, each as sorted
    codes, in order of their least member.

    The exhaustive walk holds counts as rows of ``width`` w-bit lanes (dtype
    ``lane``) read as uint64 words: lane d < v holds ``count + 2^(w-1) - 1 -
    targets[d]``, the padding lanes (at least one) 0.  A count overshoots
    exactly when its lane's high bit is set, which the OR of a row's words
    ANDed with ``high`` shows.  A choice of m/4 points adds at most 2 m/4 to
    a count (each point forms one pair per difference and orientation), so
    with w = 8 while every target is at most 127, else 16, no lane carries.
    """

    def __init__(self, spec: SearchSpec) -> None:
        group = spec.group
        v = group.order
        codes = np.arange(v)
        self._diff = group.code_sub(codes[:, None], codes[None, :])
        self.v = v
        self.diff: List[int] = self._diff.ravel().tolist()
        self.neg = self.diff[:v]
        _, lam, mu = spec.targets()
        self.targets = [mu] * v
        for x in spec.forbidden.codes.tolist():
            self.targets[x] = lam
        self.targets[0] = 0
        self.per_coset = spec.m // 4
        self.outside: List[List[int]] = spec.forbidden.coset_codes()[1:].tolist()
        self.lane = _lane_dtype(self.targets, self.per_coset)
        bits = 8 * self.lane.itemsize
        self.width = -(-(v + 1) * bits // 64) * 64 // bits
        self.high = np.uint64(sum(1 << (i + bits - 1) for i in range(0, 64, bits)))
        # a pending row's bytes in one pass: option totals twice, point pairs twice
        size = spec.forbidden.order
        self.row_bytes = 2 * (math.comb(size, self.per_coset) + size) * self.width * bits // 8
        # built on first use by the exhaustive walk, one outside coset at a time
        self._coset_lanes: List[Optional[tuple]] = [None] * len(self.outside)

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

    def lanes(self, counts: Sequence[int]) -> np.ndarray:
        """The words of a row of counts that are at most their targets."""
        row = np.zeros(self.width, self.lane)
        bias = np.iinfo(self.lane).max // 2  # 2^(w-1) - 1
        row[: self.v] = np.asarray(counts) + bias - np.asarray(self.targets)
        return row.view(np.uint64)

    def coset_lanes(self, idx: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Outside coset ``idx``'s options, built on first use: their codes and
        positions in the coset, in ``itertools.combinations`` order, the words of
        their inside pairs, and ``reach``: per point x and lane d, the codes x - d
        and x + d (v on a padding lane), where a row marks x's partners at d."""
        built = self._coset_lanes[idx]
        if built is None:
            cs = np.asarray(self.outside[idx])
            points = np.array(list(itertools.combinations(range(len(cs)), self.per_coset)))
            reach = np.full((2, len(cs), self.width), self.v)
            reach[0, :, : self.v] = self._diff[cs]
            reach[1, :, : self.v] = self._diff[cs][:, self.neg]
            marks = np.zeros((len(cs), self.width), self.lane)  # one row per point
            marks[np.arange(len(cs)), cs] = 1
            pairs = _pair_words(marks, reach)
            inside = np.zeros((len(points), pairs.shape[2]), np.uint64)
            for a, b in itertools.combinations(range(self.per_coset), 2):
                inside += pairs[points[:, a], points[:, b]]
            built = self._coset_lanes[idx] = (cs[points], points, inside, reach)
        return built


def _pair_words(marks: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Per row of ``marks`` and point of ``reach``, its pairs' words with the marked codes."""
    pairs = marks.take(reach[0], axis=1).view(np.uint64)
    pairs += marks.take(reach[1], axis=1).view(np.uint64)
    return pairs


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


# The bytes one pass of the exhaustive walk holds at most (``row_bytes`` a row)
_SLICE_BYTES = 1 << 18


def _second_blocks(
    tables: _CodeTables, base_counts: List[int], budget: _Budget
) -> Iterator[Tuple[FrozenSet[int], int]]:
    """Coset-balanced second blocks whose differences complete the targets,
    in depth-first order, each with the nodes a depth-first walk spends up
    to it.  Level c of the tree holds the choices in the first c outside
    cosets as rows: lane words (see ``_CodeTables``), marks (1 at each chosen
    code) and a partial rank, the sum over the row's path of each node's
    index in its level plus one.  The walk always extends a slice off the
    front of the deepest level with pending rows, testing it against every
    option of the next coset in one numpy pass, so each level's rows are
    made in depth-first order.  A leaf's partial is then its depth-first
    rank, and the front row of a level with nothing pending below ranks at
    its partial plus the rows made below its level.  The walk ends once that
    rank passes ``max_nodes`` or, read once per slice, the deadline, and
    counts nodes as the depth-first walk does; an overshooting base spends none.
    """
    if any(map(operator.gt, base_counts, tables.targets)):
        return
    spent, depth, lane = budget.nodes, len(tables.outside), tables.lane
    cap = np.iinfo(np.int64).max if budget.max_nodes is None else budget.max_nodes - spent
    made = [1] + [0] * depth  # the rows made at each level
    pending: List[Optional[tuple]] = [None] * depth  # per level: words, marks, partial ranks
    pending[0] = (tables.lanes(base_counts)[None], np.zeros((1, tables.width), lane), np.ones(1, int))
    at_once = max(1, _SLICE_BYTES // tables.row_bytes)
    level = 0
    while level >= 0:
        words, marks, partial = pending[level]
        front = int(partial[0]) + sum(made[level + 1 :])
        if front > cap or budget.deadline is not None and time.perf_counter() > budget.deadline:
            budget.nodes = spent + min(front, cap + 1)  # the front node fails to spend
            return
        n = min(at_once, len(partial), cap - front + 1)
        pending[level] = (words[n:], marks[n:], partial[n:]) if n < len(partial) else None
        words, marks, partial = words[:n], marks[:n], partial[:n]
        options, points, inside, reach = tables.coset_lanes(level)
        with_point = _pair_words(marks, reach)  # each point's pairs with the chosen codes
        totals = words[:, None] + inside
        gathered = np.empty_like(totals)
        for q in range(tables.per_coset):
            totals += with_point.take(points[:, q], axis=1, out=gathered)
        over = totals[:, :, 0].copy()
        for word in range(1, totals.shape[2]):
            over |= totals[:, :, word]
        rows, opts = np.nonzero(~(over & tables.high).astype(bool))
        ranks = partial[rows] + np.arange(made[level + 1] + 1, made[level + 1] + len(rows) + 1)
        made[level + 1] += len(rows)
        # partial ranks grow along a level, so the rows past the cap are a suffix
        kept = int(np.count_nonzero(ranks <= cap))
        rows, opts, ranks = rows[:kept], opts[:kept], ranks[:kept]
        if level + 1 == depth:
            # both blocks hold k points, so the counts sum to the targets'
            # sum, and a leaf with no count above its target meets them all
            for row, opt, rank in zip(rows.tolist(), opts.tolist(), ranks.tolist()):
                block = np.flatnonzero(marks[row]).tolist() + options[opt].tolist()
                yield frozenset(block), spent + rank
        elif kept:
            picked = marks[rows]
            picked[np.arange(kept)[:, None], options[opts]] = 1
            pending[level + 1] = (totals[rows, opts], picked, ranks)
            level += 1
        while level >= 0 and pending[level] is None:
            level -= 1
    budget.nodes = spent + min(sum(made), cap + 1)


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
            DifferenceFamily(group, spec.forbidden, blocks[2 * i : 2 * i + 2], declared,
                             provenance={"construction": "search", "m": spec.m, "mode": spec.mode}),
            spec, nodes, spec.seed, elapsed,
        )
        for i, (_, _, nodes, elapsed) in enumerate(hits)
    ]
    if not all(replay_certificates(certs)):
        raise RuntimeError("search emitted a family that failed replay")
    return certs


def search_ddf(spec: SearchSpec) -> List[Certificate]:
    """All (or budget-limited) qualifying families for the spec.

    Exhaustive mode is complete when the budget is unlimited, and a
    certificate's ``nodes`` are those a depth-first walk over first, then
    second blocks enters up to its family, though second blocks are walked
    in slices (``_second_blocks``).  Randomized mode is deterministic for a
    given seed.  Certificates hold their blocks as codes, come out ordered by
    their families' ``sorted_blocks``, and have all been replayed together
    through the independent verifier: zero false positives.  The walk only
    records its hits, so a family that fails replay raises RuntimeError once
    the budget is spent, and the build and replay come on top of
    ``max_seconds`` (about 5 ms per 256 families at m = 8).
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
        for d2, nodes in _second_blocks(tables, tables.pair_counts(d1), budget):
            if not budget.room_for_solutions():
                return hits
            hits.append((d1, d2, nodes, time.perf_counter() - t0))
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
# Codes formed per ``code_add`` by ``_least_translates``: 32 KB of int32 codes
# per slice, so deduplicating a search's certificates adds no peak memory
# (256 KiB slices read 0.7 MB higher in 5 s search_m8 benchmark runs).
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


def _canonical_forms(families: Sequence[DifferenceFamily], symmetries: Sequence[str]) -> list:
    """``canonical_form`` of each family, batched: its code key decoded."""
    forms = {}
    for group, members, keys in _canonical_keys(families, symmetries):
        forms.update(zip(members, _decoded(group, keys)))
    return [forms[f] for f in range(len(families))]


def _canonical_keys(
    families: Sequence[DifferenceFamily], symmetries: Sequence[str]
) -> Iterator[Tuple[FiniteAbelianGroup, List[int], np.ndarray]]:
    """Per class of families with one group and one multiset of block sizes:
    the group, the families' indices and their canonical images as code keys,
    each the image's blocks as rows padded with -1.  Code order is element
    order and -1 sorts first, so keys compare as the images' element tuples.

    A class's blocks are stacked by size and shift set, each stack with its
    negation beneath it, for ``_least_translates``.  Ranking the translates
    orders each negation state's blocks; ranking the states picks the lesser.
    """
    for name in symmetries:
        if name not in SYMMETRY_NAMES:
            raise ValueError(f"unknown symmetry {name!r}; pick from {SYMMETRY_NAMES}")
    negations = 2 if "negation" in symmetries else 1
    classes: Dict[tuple, List[int]] = {}
    for f, family in enumerate(families):
        classes.setdefault((family.ambient, family.sizes()), []).append(f)
    for (group, sizes), members in classes.items():
        # images[row, neg, slot]: a least translate of block ``slot`` of the
        # class's family ``row`` in negation state ``neg``
        shape = (len(members), negations, len(sizes), max(sizes, default=0) + 1)
        images = np.full(shape, -1, group.code_dtype)
        stacks: Dict[tuple, Tuple[np.ndarray, list]] = {}
        for row, f in enumerate(members):
            # a subgroup's least code is 0, the identity
            shifts = families[f].forbidden.codes[: None if "n_multiplication" in symmetries else 1]
            for slot, block in enumerate(families[f].blocks):
                if block.size:  # an empty block's image is its padding
                    stack = stacks.setdefault((block.size, shifts.tobytes()), (shifts, []))
                    stack[1].append((block.codes, row, slot))
        for shifts, stack in stacks.values():
            blocks, rows, slots = zip(*stack)
            codes = np.stack(blocks)
            if negations == 2:
                codes = np.concatenate([codes, group.code_sub(0, codes)])
            at = (np.tile(rows, negations), np.arange(len(codes)) // len(rows), np.tile(slots, negations))
            images[at + (slice(codes.shape[1]),)] = _least_translates(
                group, codes, None if "translation" in symmetries else shifts
            )
        rank = _row_ranks(images.reshape(-1, shape[3])).reshape(shape[:3])
        images = np.take_along_axis(images, rank.argsort(axis=2)[..., None], axis=2)
        rank = _row_ranks(images.reshape(shape[0] * negations, shape[2] * shape[3]))
        lesser = rank.reshape(-1, negations).argmin(axis=1)
        yield group, members, images[np.arange(len(members)), lesser]


def _row_ranks(rows: np.ndarray) -> np.ndarray:
    """Each row's place in the lexicographic order of the rows, by ``np.lexsort``
    (``np.unique`` sorts rows as records, many times slower)."""
    rank = np.empty(len(rows), np.intp)
    rank[np.lexsort(rows.T[::-1]) if rows.shape[1] else slice(None)] = np.arange(len(rows))
    return rank


def _least_translates(
    group: FiniteAbelianGroup, codes: np.ndarray, shifts: Optional[np.ndarray]
) -> np.ndarray:
    """The lexicographically least sorted translate of each row of ``codes``
    by one of ``shifts``, or by any element if ``shifts`` is None: then only
    the shifts taking a point to 0, the least code, can give it.  A slice of
    rows forms at most ``_TRANSLATES_AT_ONCE`` codes; then per column of the
    sorted translates, the shifts whose value is least among those kept stay."""
    tried = codes.shape[1] if shifts is None else shifts.size  # shifts per row
    step = max(1, _TRANSLATES_AT_ONCE // (tried * codes.shape[1]))
    least = np.empty_like(codes)
    for i in range(0, len(codes), step):
        rows = codes[i : i + step]
        moves = group.code_sub(0, rows) if shifts is None else shifts[None, :]
        translates = np.sort(group.code_add(moves[:, :, None], rows[:, None, :]), axis=2)
        kept = np.ones(translates.shape[:2], bool)
        for column in np.moveaxis(translates, 2, 0):
            value = np.where(kept, column, group.order)
            kept &= value == value.min(axis=1, keepdims=True)
        least[i : i + step] = translates[np.arange(len(rows)), kept.argmax(axis=1)]
    return least


def _decoded(group: FiniteAbelianGroup, keys: np.ndarray) -> list:
    """The element tuples of code keys (see ``_canonical_keys``)."""
    used = np.flatnonzero(np.bincount(keys[keys >= 0]))
    element = dict(zip(used.tolist(), group.decode_elements(used)))
    return [tuple(tuple(element[c] for c in blk if c >= 0) for blk in key) for key in keys.tolist()]


def dedupe(
    certs: Sequence[Certificate], symmetries: Sequence[str] = SYMMETRY_NAMES
) -> List[Certificate]:
    """One certificate per orbit of the declared symmetry actions.

    The kept representative is the first certificate of its orbit in input
    order; output order follows the canonical image.  One ``np.unique`` per
    class of ``_canonical_keys`` finds its orbits, whose keys alone are
    decoded: images of equal element tuples in two groups are one orbit.
    """
    firsts: List[Tuple[int, tuple]] = []
    for group, members, keys in _canonical_keys([c.family for c in certs], symmetries):
        first = np.unique(keys, axis=0, return_index=True)[1]
        firsts += zip([members[i] for i in first.tolist()], _decoded(group, keys[first]))
    best: Dict[tuple, Certificate] = {}
    for i, form in sorted(firsts, key=operator.itemgetter(0)):
        best.setdefault(form, certs[i])
    return [best[k] for k in sorted(best)]
