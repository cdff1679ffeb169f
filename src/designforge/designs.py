"""Difference families and their brute-force verification oracles.

Everything here counts differences by exhaustive pair enumeration.  This
module is the sole acceptance oracle for the construction layer, so it must
stay independent of it: no character sums, no shortcuts.  The oracle has
two kernels on one padded key layout: scatter tallies every pair's key by
bincount, and dense adds each row's 0/1 indicator of its block's column
keys, shifted to the row's offset, into uint8 counts.  Either way each
ordered pair adds exactly 1 to its own bin.  A cost model picks the kernel
and the padding for each stack of equal-size blocks; it moves time only,
never a count (see ``_add_stack_differences`` and ``_oracle_plan``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .groups import Element, FiniteAbelianGroup, Subgroup
from .groups import json_field, json_int, json_ints, json_list, json_object

INFINITY = "inf"
# Pair keys the scatter kernel forms at once, 64 KiB of int64, however many
# blocks and families are stacked.
_ORACLE_KEYS = 1 << 13
# Rows the dense kernel adds into its uint8 counts between flushes.
_FLUSH_ROWS = 255
# The oracle's cost model in nanoseconds, see ``_oracle_plan``.
_NS_KEY, _NS_DIGIT, _NS_ROW, _NS_BYTE, _NS_BIN, _NS_RUN = 2.6, 12.0, 560.0, 0.038, 1.4, 16000.0


class Block:
    """A subset of a finite abelian group, stored only as its members' sorted,
    distinct, read-only codes; ``elements`` and ``sorted_elements`` decode them.
    A code or element outside the group, or repeated, is refused, and so is
    rebinding either slot, since a family's carried verdict covers them."""

    __slots__ = ("ambient", "codes")

    def __init__(self, ambient: FiniteAbelianGroup, codes: object) -> None:
        if np.ndim(codes) != 1:
            raise ValueError("block codes are not a 1-D array")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "codes", ambient.sorted_codes(codes, "block"))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot rebind Block.{name}")

    @classmethod
    def from_elements(cls, ambient: FiniteAbelianGroup, elements: Iterable[Element]) -> "Block":
        """The block with the given boundary elements, each range-checked as
        a ``block element`` by ``checked_encode``."""
        return cls(ambient, ambient.checked_encode(list(elements), "block element"))

    @classmethod
    def from_rows(cls, ambient: FiniteAbelianGroup, rows: object) -> List["Block"]:
        """One block per row of a 2-D array of codes, all sorted and checked at
        once by ``sorted_codes``: a code outside the group or repeated is refused."""
        if np.ndim(rows) != 2:
            raise ValueError("block rows are not a 2-D array")
        blocks = []
        for row in ambient.sorted_codes(rows, "block"):
            block = cls.__new__(cls)
            object.__setattr__(block, "ambient", ambient)
            object.__setattr__(block, "codes", row)
            blocks.append(block)
        return blocks

    @property
    def size(self) -> int:
        return self.codes.size

    @property
    def elements(self) -> FrozenSet[Element]:
        """The members as boundary tuples, decoded on each call."""
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> List[Element]:
        return self.ambient.decode_elements(self.codes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Block)
            and self.ambient == other.ambient
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Block({self.ambient!r}, {self.codes.tolist()})"


@dataclass(frozen=True)
class DesignParams:
    """Declared (lambda, mu) frequencies and the multiset of block sizes.

    ``lam`` is the frequency on the forbidden subgroup minus identity and is
    None for plain difference families (trivial forbidden subgroup), where
    ``mu`` carries the single constant.
    """

    lam: Optional[int]
    mu: Optional[int]
    sizes: Tuple[int, ...]

    def counting_identity_holds(self, group_order: int, forbidden_order: int) -> bool:
        lhs = sum(k * (k - 1) for k in self.sizes)
        lam, mu = self.lam or 0, self.mu or 0
        return lhs == lam * (forbidden_order - 1) + mu * (group_order - forbidden_order)


@dataclass(frozen=True)
class DifferenceFamily:
    """Blocks in an ambient group with an optional forbidden subgroup.

    Frozen, so the verdict ``verify_batch`` leaves in ``report`` stays the
    one on these blocks, subgroup and declared parameters; a family made by
    ``dataclasses.replace`` starts without one."""

    ambient: FiniteAbelianGroup
    forbidden: Subgroup
    blocks: Tuple[Block, ...]
    declared: Optional[DesignParams] = None
    provenance: Optional[dict] = None
    report: Optional[VerificationReport] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.forbidden.parent != self.ambient:
            raise ValueError("forbidden subgroup lives in a different group")
        for b in self.blocks:
            if b.ambient != self.ambient:
                raise ValueError("block lives in a different group")

    def sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(b.size for b in self.blocks))

    def sorted_blocks(self) -> List[Block]:
        """The blocks in the one canonical order: by their sorted codes, which
        is element order."""
        return sorted(self.blocks, key=lambda b: b.codes.tolist())

    def canonical_blocks(self) -> List[List[Element]]:
        """The tuples of ``sorted_blocks``."""
        return [b.sorted_elements() for b in self.sorted_blocks()]

    def to_json(self) -> dict:
        data = {
            "group": self.ambient.to_json(),
            "forbidden": self.forbidden.to_json(),
            "blocks": [self.ambient.decode(b.codes).tolist() for b in self.sorted_blocks()],
        }
        if self.declared is not None:
            decl = self.declared
            data["declared"] = {"lambda": decl.lam, "mu": decl.mu, "K": list(decl.sizes)}
        if self.provenance is not None:
            data["provenance"] = self.provenance
        return data

    @classmethod
    def from_json(cls, data: dict) -> "DifferenceFamily":
        """Parse ``to_json`` output, element arrays straight to codes; a
        malformed field or a repeated element raises ValueError naming it."""
        group = FiniteAbelianGroup.from_json(
            json_field(data, "group", "family", json_object), "family.group"
        )
        forbidden = Subgroup(group, json_field(
            data, "forbidden", "family", lambda v, at: group.json_codes(v, at, "forbidden element")
        ))
        blocks = [
            Block(group, group.json_codes(blk, f"family.blocks[{i}]", "block element"))
            for i, blk in enumerate(json_field(data, "blocks", "family", json_list))
        ]
        declared = None
        d = json_field(data, "declared", "family", json_object, None)
        if d is not None:
            where = "family.declared"
            sizes = json_field(d, "K", where, json_ints, [b.size for b in blocks])
            declared = DesignParams(
                lam=json_field(d, "lambda", where, json_int, None),
                mu=json_field(d, "mu", where, json_int, None),
                sizes=tuple(sorted(sizes)),
            )
        provenance = json_field(data, "provenance", "family", json_object, None)
        return cls(group, forbidden, blocks, declared, provenance)


# -- the counting oracle -------------------------------------------------------


def difference_totals(family: DifferenceFamily) -> np.ndarray:
    """Counts of x - y over all ordered pairs of distinct elements per block,
    as an int64 array indexed by the difference's mixed-radix code; code
    order is element order.  The batch of one of ``stacked_difference_totals``.
    """
    return stacked_difference_totals([family])[0]


def stacked_difference_totals(families: Sequence[DifferenceFamily]) -> np.ndarray:
    """``difference_totals`` of each of a nonempty stack of families that
    share one ambient group, as one int64 row per family.  This is the one
    oracle run behind ``difference_table`` and ``verify_batch``.

    Exhaustive pair enumeration on codes, one add per ordered pair: the
    blocks of each size are stacked, and every ordered pair of each is
    counted in one pass of the scatter or the dense kernel, keyed apart per
    family (see ``_add_stack_differences``).
    """
    group = families[0].ambient
    if any(family.ambient != group for family in families):
        raise ValueError("stacked families must share one ambient group")
    totals = np.zeros((len(families), group.order), dtype=np.int64)
    diagonal = [0] * len(families)  # the x == y pairs each family's blocks leave out
    stacks: Dict[int, Tuple[List[np.ndarray], List[int]]] = {}  # size -> blocks, owners
    for f, family in enumerate(families):
        for block in family.blocks:
            if block.size >= 2:
                blocks, owners = stacks.setdefault(block.size, ([], []))
                blocks.append(block.codes)
                owners.append(f)
                diagonal[f] += block.size
    for blocks, owners in stacks.values():
        _add_stack_differences(group, np.stack(blocks), np.array(owners), totals)
    totals[:, 0] -= diagonal
    return totals


def _add_stack_differences(
    group: FiniteAbelianGroup, codes: np.ndarray, owners: np.ndarray, totals: np.ndarray
) -> None:
    """Add the counts of x - y over the ordered pairs of distinct codes of
    each row of ``codes`` (B blocks of k sorted codes, owned by families in
    nondecreasing order) to its owner's row of ``totals``.

    Leading coordinates are differenced by ``code_sub`` on prefix codes.
    Each trailing one gets a padded slot of 2*m_i - 1 values: a row digit
    a_i adds a_i and a column digit b_i adds m_i - 1 - b_i, and a_i - b_i +
    m_i - 1 in [0, 2*m_i - 2] never carries.  A pair's key is its row's
    offset plus its column's key against the row's prefix, in ``bins`` keys
    per family that ``_fold`` relabels to residues.  ``_oracle_plan`` picks
    the split and the kernel.  Scatter forms the keys of about
    ``_ORACLE_KEYS`` pairs at a time and bincounts them.  Dense sets the k
    column keys of each run of rows of one block and prefix once in a 0/1
    uint8 indicator, and each row of the run adds it, as one slice add, at
    its row offset into uint8 counts that move into the histogram every
    ``_FLUSH_ROWS`` rows, before any can wrap.  Either way each ordered pair
    adds exactly 1 to its own bin, since a row's column keys are distinct
    as its block's codes are.  Unpadded keys are group codes, counted
    straight into the totals.
    """
    k = codes.shape[1]
    lead, dense = _oracle_plan(group.moduli, codes, totals.shape[0])
    trail = group.moduli[lead:]
    prefixes = codes.astype(np.int64).ravel()  # loses its trailing digits below
    row_offsets, col_offsets = np.zeros((2, prefixes.size), dtype=np.int64)
    slot = 1  # the padded radix weight of the current coordinate
    for m in reversed(trail):
        digit = prefixes % m
        prefixes //= m
        row_offsets += digit * slot
        col_offsets += (m - 1 - digit) * slot
        slot *= 2 * m - 1
    prefix_group = FiniteAbelianGroup(group.moduli[:lead] or (1,))
    bins = prefix_group.order * slot
    bases = owners * bins  # each block's family, as its first bin
    col_prefixes, col_offsets = prefixes.reshape(-1, k), col_offsets.reshape(-1, k)
    # a bin counts at most one pair per row of its family: int32 holds it
    hist = totals.reshape(-1) if slot == 1 else np.zeros(totals.shape[0] * bins, dtype=np.int32)

    def columns(at: object, blk: object) -> np.ndarray:
        """The column keys of row(s) ``at`` of block(s) ``blk``: k per row."""
        if not lead:
            return col_offsets[blk]
        diff = prefix_group.code_sub(prefixes[at, None], col_prefixes[blk])
        return diff * slot + col_offsets[blk]

    if dense:
        new_run = np.ones(prefixes.size + 1, dtype=bool)  # row r is of block r // k
        new_run[1:-1] = prefixes[1:] != prefixes[:-1]
        new_run[::k] = True
        cuts = new_run.copy()
        cuts[::_FLUSH_ROWS] = True  # a flush cuts a run
        edges = np.flatnonzero(cuts).tolist()
        counts = np.zeros(hist.size, dtype=np.uint8)  # of the rows since the last flush
        indicator = np.zeros(bins, dtype=np.uint8)
        cols = np.zeros(0, dtype=np.int64)
        for a, b in zip(edges[:-1], edges[1:]):
            if new_run[a]:
                indicator[cols] = 0
                cols = columns(a, a // k)
                lo, hi, base = int(cols.min()), int(cols.max()) + 1, int(bases[a // k])
                indicator[cols] = 1
                run = indicator[lo:hi]
            for at in (row_offsets[a:b] + (base + lo)).tolist():
                window = counts[at : at + hi - lo]
                np.add(window, run, out=window)
            if b % _FLUSH_ROWS == 0 or b == prefixes.size:  # the families since the last flush
                since = slice(int(bases[(b - 1) // _FLUSH_ROWS * _FLUSH_ROWS // k]), base + bins)
                hist[since] += counts[since]
                counts[since] = 0
    else:
        step = max(1, _ORACLE_KEYS // k)
        keys = np.empty((min(step, prefixes.size), k), dtype=np.int64)  # the one chunk, reused
        for start in range(0, prefixes.size, step):
            at = np.arange(start, min(start + step, prefixes.size))
            blk, low = at // k, int(bases[start // k])  # low: the chunk's first family's bin
            rows = row_offsets[at] + bases[blk] - low
            if blk[0] == blk[-1]:  # one block: its columns broadcast over the rows
                blk = blk[:1]
            chunk = keys[: at.size]
            np.add(columns(at, blk), rows[:, None], out=chunk)
            tally = np.bincount(chunk.ravel())
            hist[low : low + tally.size] += tally
            del tally  # one chunk's tally alive at a time
    if slot > 1:
        folded = _fold(hist.reshape(-1, *(2 * m - 1 for m in trail)), trail)
        totals.reshape(folded.shape)[...] += folded


def _oracle_plan(moduli: Tuple[int, ...], codes: np.ndarray, families: int) -> Tuple[int, bool]:
    """(unpadded leading coordinates, dense?): the kernel and split of least
    cost for a stack of B blocks of k codes owned by ``families`` families.

    The model is in nanoseconds: a key costs ``_NS_KEY`` plus ``_NS_DIGIT``
    per leading coordinate (scatter forms B*k*k keys, a dense run k keys
    and ``_NS_RUN``); a dense row costs ``_NS_ROW`` plus ``_NS_BYTE`` per
    byte of its span (bins less the largest row offset); and each family,
    scatter chunk and dense flush costs ``_NS_BIN`` per bin."""
    blocks, k = codes.shape
    chunks = -(-codes.size // max(1, _ORACLE_KEYS // k))
    best = (math.inf, 0, False)
    for lead in range(len(moduli) + 1):
        trail = math.prod(moduli[lead:])
        slot = math.prod(2 * m - 1 for m in moduli[lead:])
        bins = math.prod(moduli[:lead]) * slot
        key = _NS_KEY + _NS_DIGIT * lead
        scatter = codes.size * k * key + (families + chunks) * bins * _NS_BIN
        dense = codes.size * (_NS_ROW + _NS_BYTE * (bins - slot // 2))
        dense += (families + codes.size / _FLUSH_ROWS) * bins * _NS_BIN
        if dense < min(scatter, best[0]):  # only then are the runs worth counting
            runs = blocks + np.count_nonzero(np.diff(codes // trail, axis=1))
            best = min(best, (dense + runs * (_NS_RUN + k * key), lead, True))
        best = min(best, (scatter, lead, False))
    return best[1:]


def _fold(hist: np.ndarray, moduli: Tuple[int, ...]) -> np.ndarray:
    """Relabel the padded slots of axes 1.. to residues, in place on views.

    Slot value v holds a - b + m - 1, so v >= m - 1 is the residue
    v - (m - 1) and v < m - 1 the residue v + 1, the same bin as slot v + m.
    """
    for axis, m in enumerate(moduli, start=1):
        at = (slice(None),) * axis
        hist[at + (slice(m, 2 * m - 1),)] += hist[at + (slice(0, m - 1),)]
        hist = hist[at + (slice(m - 1, None),)]
    return hist


def difference_table(family: DifferenceFamily) -> Dict[Element, int]:
    """The nonzero counts of ``difference_totals``, keyed by tuple element."""
    totals = difference_totals(family)
    nonzero = np.flatnonzero(totals[1:]) + 1
    return dict(zip(family.ambient.decode_elements(nonzero), totals[nonzero].tolist()))


def difference_count(family: DifferenceFamily, d: Element) -> int:
    """How many ordered pairs in the family have difference d (d != 0)."""
    code = int(family.ambient.checked_encode([d], "difference")[0])
    if code == 0:
        raise ValueError("difference counts are only defined for nonzero d")
    return int(difference_totals(family)[code])


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    lam: Optional[int]
    mu: Optional[int]
    sizes: Tuple[int, ...]
    message: str = ""
    witness: Optional[Tuple[Element, int, str]] = None  # (element, count, expected)
    degenerate_blocks: int = 0
    totals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)  # read-only

    def summary(self) -> str:
        status = "VERIFIED" if self.ok else "FAILED"
        lam, mu = ("-" if x is None else x for x in (self.lam, self.mu))
        parts = [f"{status}: lambda={lam} mu={mu} K={list(self.sizes)}"]
        if self.message:
            parts.append(self.message)
        if self.witness is not None:
            d, got, expected = self.witness
            parts.append(f"witness d={d}: count {got}, expected {expected}")
        return "; ".join(parts)


def verify(family: DifferenceFamily) -> VerificationReport:
    """Check the two-frequency law by exhaustive difference counting: the
    batch of one of ``verify_batch``."""
    return verify_batch([family])[0]


def verify_batch(families: Sequence[DifferenceFamily]) -> List[VerificationReport]:
    """Check each family's two-frequency law by exhaustive difference counting.

    The difference counts must be constant on the forbidden subgroup minus
    identity and constant outside it.  When the family declares parameters,
    the realized values must match them.  Failure is reported with the first
    witness in element order, never raised.  The families must share one
    ambient group and one forbidden subgroup (else ValueError), and share
    one ``stacked_difference_totals`` run.  Each report keeps its row of
    the oracle's code-indexed totals, read-only, as ``totals``, and is left
    on its family as ``report``, so callers never need to count again; this
    counts on every call all the same, and never reads a carried report.
    Everything is read off the rows with a membership mask of the forbidden
    subgroup; no group element is walked in Python.
    """
    if not families:
        return []
    forbidden = batch_subgroup(families)
    group = forbidden.parent
    totals = stacked_difference_totals(families)
    totals.flags.writeable = False
    # codes 1..v-1 in order are the nonzero elements in element order
    counts = totals[:, 1:]
    in_n = np.zeros(group.order, dtype=bool)
    in_n[forbidden.codes] = True
    in_n = in_n[1:]
    realized = {}  # per region: each family's value at the region's first position
    first_off = {}  # per region: each family's first position off that value, or -1
    for name, region in (("lambda", in_n), ("mu", ~in_n)):
        at = _first(region)
        if at is None:  # an empty region realizes no value
            realized[name] = [None] * len(families)
            first_off[name] = [-1] * len(families)
        else:
            value = counts[:, at]
            realized[name] = value.tolist()
            first_off[name] = _first_rows(region & (counts != value[:, None])).tolist()
    reports = []
    for f, family in enumerate(families):
        lam, mu = realized["lambda"][f], realized["mu"][f]  # lam is None when N is trivial
        off = [
            (first_off[name][f], f"{name}={realized[name][f]}")
            for name in realized
            if first_off[name][f] >= 0
        ]
        witness = None
        if off:
            at, expected = min(off)
            witness = (group.element(at + 1), int(counts[f, at]), expected)
        sizes = family.sizes()
        degenerate = sum(1 for k in sizes if k <= 1)
        ok = witness is None
        message = ""
        if not ok:
            message = "difference counts are not two-valued"
        elif family.declared is not None:
            # declared frequencies are vacuous on empty regions (trivial N, or N = G)
            decl = family.declared
            if decl.lam is not None and lam is not None and decl.lam != lam:
                ok, message = False, f"declared lambda={decl.lam}, realized {lam}"
            if decl.mu is not None and mu is not None and decl.mu != mu:
                ok, message = False, f"declared mu={decl.mu}, realized {mu}"
            if tuple(sorted(decl.sizes)) != sizes:
                ok, message = False, f"declared K={sorted(decl.sizes)}, realized {list(sizes)}"
        if ok:
            params = DesignParams(lam, mu, sizes)
            if not params.counting_identity_holds(group.order, forbidden.order):
                ok, message = False, "counting identity violated"
        if ok and degenerate:
            message = f"{degenerate} block(s) of size <= 1 contribute no differences"
        reports.append(
            VerificationReport(ok, lam, mu, sizes, message, witness, degenerate, totals=totals[f])
        )
        object.__setattr__(family, "report", reports[-1])
    return reports


def batch_subgroup(families: Sequence[DifferenceFamily]) -> Subgroup:
    """The forbidden subgroup that a nonempty batch of families shares, with
    its ambient group; ValueError when they do not share both."""
    forbidden = families[0].forbidden
    for family in families:
        if family.ambient != forbidden.parent:
            raise ValueError("batched families must share one ambient group")
        if family.forbidden is not forbidden and family.forbidden != forbidden:
            raise ValueError("batched families must share one forbidden subgroup")
    return forbidden


def _first(mask: np.ndarray) -> Optional[int]:
    """The index of the first True in a boolean array, or None."""
    return int(mask.argmax()) if mask.any() else None


def _first_rows(mask: np.ndarray) -> np.ndarray:
    """The index of the first True in each row of a 2-D boolean array, or -1."""
    at = mask.argmax(axis=1)
    return np.where(mask[np.arange(mask.shape[0]), at], at, -1)


# -- development ----------------------------------------------------------------


def develop(family: DifferenceFamily) -> List[Block]:
    """All translates of all blocks, each by every code in turn: |G| * b blocks."""
    group = family.ambient
    shifts = np.arange(group.order, dtype=group.code_dtype)[:, None]
    rows = (group.code_add(shifts, b.codes) for b in family.blocks)
    return [block for translates in rows for block in Block.from_rows(group, translates)]


@dataclass
class GddReport:
    ok: bool
    lam: Optional[int]
    mu: Optional[int]
    message: str = ""
    witness: Optional[Tuple[tuple, int, str]] = None

    def summary(self) -> str:
        status = "VERIFIED" if self.ok else "FAILED"
        out = f"{status}: same-group lambda={self.lam} cross-group mu={self.mu}"
        if self.message:
            out += f"; {self.message}"
        if self.witness is not None:
            pair, got, expected = self.witness
            out += f"; witness pair={pair}: count {got}, expected {expected}"
        return out


def verify_gdd(
    blocks: Iterable[Iterable],
    groups: Sequence[Iterable],
    lam: Optional[int] = None,
    mu: Optional[int] = None,
) -> GddReport:
    """Pair-count a block collection against a point partition.

    Every unordered pair from the same part must lie in a constant number of
    blocks (lambda), every cross pair in a constant number (mu).  Parts of
    size 1 make this a plain 2-design check.  Expected values are optional;
    realized constants are reported either way.
    """
    parts = [frozenset(g) for g in groups]
    points: set = set()
    for part in parts:
        if points & part:
            return GddReport(False, None, None, "groups are not disjoint")
        points |= part
    part_of = {p: i for i, part in enumerate(parts) for p in part}
    counts: Counter = Counter()
    for blk in blocks:
        elems = sorted(blk, key=repr)
        for i, x in enumerate(elems):
            if x not in part_of:
                return GddReport(False, None, None, f"block point {x!r} not in any group")
            for y in elems[i + 1 :]:
                counts[(x, y) if repr(x) <= repr(y) else (y, x)] += 1
    realized: Dict[bool, Optional[int]] = {True: lam, False: mu}  # keyed by "same part"
    pts = sorted(points, key=repr)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            key = (x, y) if repr(x) <= repr(y) else (y, x)
            got, same = counts.get(key, 0), part_of[x] == part_of[y]
            if realized[same] is None:
                realized[same] = got
            elif got != realized[same]:
                kind, name = ("same", "lambda") if same else ("cross", "mu")
                return GddReport(
                    False, realized[True], realized[False], f"{kind}-group pair count not constant",
                    witness=(key, got, f"{name}={realized[same]}"),
                )
    return GddReport(True, realized[True], realized[False])


@dataclass
class PointedDesign:
    """A 2-design on Z_v plus one extra point."""

    points: List
    blocks: List[FrozenSet]
    lam: int
    report: GddReport


def one_rotational_design(family: DifferenceFamily) -> PointedDesign:
    """Develop a {lam, (lam+1)^(e-1)}-sized family and adjoin a fixed point.

    The single size-lam orbit gains the extra point, giving a
    2-(v+1, lam+1, lam) design, which is verified by pair counting before it
    is returned.  Families of the wrong size shape, and the degenerate
    lam = 0 case (empty blocks would gain the new point as singletons), are
    rejected.
    """
    if len(family.ambient.moduli) != 1:
        raise ValueError("one-rotational development needs a cyclic ambient group")
    if not family.forbidden.is_trivial():
        raise ValueError("one-rotational development needs a plain difference family")
    rep = family.report or verify(family)
    if not rep.ok:
        raise ValueError(f"family failed verification: {rep.summary()}")
    lam = rep.mu
    if lam is None:
        raise ValueError("family has no realized frequency")
    if lam == 0:
        raise ValueError("lam = 0 is degenerate: empty blocks would gain the new point")
    sizes = sorted(b.size for b in family.blocks)
    expected = sorted([lam] + [lam + 1] * (len(family.blocks) - 1))
    if sizes != expected or len(family.blocks) < 2:
        raise ValueError(
            f"block sizes {sizes} are not of the shape {{lam, (lam+1)^(b-1)}} "
            f"with lam={lam}"
        )
    points: List = [*family.ambient.elements(), INFINITY]
    # the translates of the size-lam block gain the new point
    blocks = [b.elements | {INFINITY} if b.size == lam else b.elements for b in develop(family)]
    report = verify_gdd(blocks, [[p] for p in points], mu=lam)
    if not report.ok:
        raise ValueError(f"pointed development failed: {report.summary()}")
    return PointedDesign(points=points, blocks=blocks, lam=lam, report=report)
