"""Difference families and their brute-force verification oracles.

Everything here counts differences by exhaustive pair enumeration.  This
module is the sole acceptance oracle for the construction layer, so it must
stay independent of it: no character sums, no shortcuts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .groups import (
    Element,
    FiniteAbelianGroup,
    Subgroup,
    json_elements,
    json_field,
    json_int,
    json_ints,
    json_list,
    json_object,
)

INFINITY = "inf"
# Rows of a block the oracle differences against all k columns at once: a
# chunk holds _ORACLE_ROWS * k codes, about 2 MB of int32 at k = 4095.
# 64 to 256 rows ran equally fast on the benchmark's oracle inputs.
_ORACLE_ROWS = 128


@dataclass(frozen=True)
class Block:
    """A subset of a finite abelian group."""

    ambient: FiniteAbelianGroup
    elements: FrozenSet[Element]

    def __post_init__(self) -> None:
        for e in self.elements:
            if not self.ambient.contains(e):
                raise ValueError(f"block element {e} outside {self.ambient}")

    @property
    def size(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> List[Element]:
        return sorted(self.elements)

    def translate(self, t: Element) -> "Block":
        add = self.ambient.add
        return Block(self.ambient, frozenset(add(x, t) for x in self.elements))

    def negate(self) -> "Block":
        neg = self.ambient.neg
        return Block(self.ambient, frozenset(neg(x) for x in self.elements))


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
        lam = self.lam if self.lam is not None else 0
        mu = self.mu if self.mu is not None else 0
        return lhs == lam * (forbidden_order - 1) + mu * (group_order - forbidden_order)


@dataclass
class DifferenceFamily:
    """Blocks in an ambient group with an optional forbidden subgroup."""

    ambient: FiniteAbelianGroup
    forbidden: Subgroup
    blocks: List[Block]
    declared: Optional[DesignParams] = None
    provenance: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.forbidden.parent != self.ambient:
            raise ValueError("forbidden subgroup lives in a different group")
        for b in self.blocks:
            if b.ambient != self.ambient:
                raise ValueError("block lives in a different group")

    def sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(b.size for b in self.blocks))

    def canonical_blocks(self) -> List[List[Element]]:
        """Blocks with sorted elements, sorted among themselves."""
        return sorted([b.sorted_elements() for b in self.blocks])

    def to_json(self) -> dict:
        data = {
            "group": self.ambient.to_json(),
            "forbidden": [list(e) for e in sorted(self.forbidden.elements)],
            "blocks": [[list(e) for e in blk] for blk in self.canonical_blocks()],
        }
        if self.declared is not None:
            data["declared"] = {
                "lambda": self.declared.lam,
                "mu": self.declared.mu,
                "K": list(self.declared.sizes),
            }
        if self.provenance is not None:
            data["provenance"] = self.provenance
        return data

    @classmethod
    def from_json(cls, data: dict) -> "DifferenceFamily":
        """Parse ``to_json`` output; a malformed field raises ValueError naming it."""
        group = FiniteAbelianGroup.from_json(
            json_field(data, "group", "family", json_object), "family.group"
        )
        forbidden = Subgroup(group, json_field(data, "forbidden", "family", json_elements))
        blocks = [
            Block(group, frozenset(json_elements(blk, f"family.blocks[{i}]")))
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


def difference_table(family: DifferenceFamily) -> Dict[Element, int]:
    """Counts of x - y over all ordered pairs of distinct elements per block.

    Exhaustive pair enumeration on mixed-radix codes: each block is taken in
    chunks of ``_ORACLE_ROWS`` rows against all of its k columns, the chunk's
    difference codes are built one coordinate at a time and tallied with a
    bincount, so every ordered pair is formed and no k x k x dims array
    exists.  The table's keys are tuple elements.
    """
    group = family.ambient
    totals = np.zeros(group.order, dtype=np.int64)
    for block in family.blocks:
        if block.size < 2:
            continue
        codes = group.encode(list(block.elements))
        for start in range(0, block.size, _ORACLE_ROWS):
            rows = codes[start : start + _ORACLE_ROWS]
            counts = np.bincount(group.code_sub(rows[:, None], codes[None, :]).ravel())
            totals[: counts.size] += counts
        totals[0] -= block.size  # remove the x == y diagonal
    nonzero = np.flatnonzero(totals[1:]) + 1
    return {
        tuple(e): int(c)
        for e, c in zip(group.decode(nonzero).tolist(), totals[nonzero].tolist())
    }


def difference_count(family: DifferenceFamily, d: Element) -> int:
    """How many ordered pairs in the family have difference d (d != 0)."""
    if family.ambient.reduce(d) == family.ambient.zero():
        raise ValueError("difference counts are only defined for nonzero d")
    return difference_table(family).get(family.ambient.reduce(d), 0)


@dataclass
class VerificationReport:
    ok: bool
    lam: Optional[int]
    mu: Optional[int]
    sizes: Tuple[int, ...]
    message: str = ""
    witness: Optional[Tuple[Element, int, str]] = None  # (element, count, expected)
    degenerate_blocks: int = 0
    counts: Dict[Element, int] = field(default_factory=dict, repr=False)  # difference_table(family)

    def summary(self) -> str:
        status = "VERIFIED" if self.ok else "FAILED"
        lam = "-" if self.lam is None else self.lam
        parts = [f"{status}: lambda={lam} mu={self.mu} K={list(self.sizes)}"]
        if self.message:
            parts.append(self.message)
        if self.witness is not None:
            d, got, expected = self.witness
            parts.append(f"witness d={d}: count {got}, expected {expected}")
        return "; ".join(parts)


def verify(family: DifferenceFamily) -> VerificationReport:
    """Check the two-frequency law by exhaustive difference counting.

    The difference counts must be constant on the forbidden subgroup minus
    identity and constant outside it.  When the family declares parameters,
    the realized values must match them.  Failure is reported with the first
    witness in element order, never raised.  The report keeps the oracle's
    difference table as ``counts``, so callers never need to count again.
    """
    group = family.ambient
    forbidden = family.forbidden
    table = difference_table(family)
    zero = group.zero()
    lam: Optional[int] = None
    mu: Optional[int] = None
    witness = None
    for d in group.elements():
        if d == zero:
            continue
        got = table.get(d, 0)
        if d in forbidden:
            if lam is None:
                lam = got
            elif got != lam and witness is None:
                witness = (d, got, f"lambda={lam}")
        else:
            if mu is None:
                mu = got
            elif got != mu and witness is None:
                witness = (d, got, f"mu={mu}")
    sizes = family.sizes()
    degenerate = sum(1 for k in sizes if k <= 1)
    ok = witness is None
    message = ""
    if not ok:
        message = "difference counts are not two-valued"
    elif family.declared is not None:
        # declared frequencies are vacuous on empty regions (trivial N, or N = G)
        decl = family.declared
        if decl.lam is not None and lam is not None and forbidden.order > 1 and decl.lam != lam:
            ok, message = False, f"declared lambda={decl.lam}, realized {lam}"
        if decl.mu is not None and mu is not None and decl.mu != mu:
            ok, message = False, f"declared mu={decl.mu}, realized {mu}"
        if tuple(sorted(decl.sizes)) != sizes:
            ok, message = False, f"declared K={sorted(decl.sizes)}, realized {list(sizes)}"
    if ok:
        realized = DesignParams(lam if forbidden.order > 1 else None, mu, sizes)
        if not realized.counting_identity_holds(group.order, forbidden.order):
            ok, message = False, "counting identity violated"
    if ok and degenerate:
        message = f"{degenerate} block(s) of size <= 1 contribute no differences"
    return VerificationReport(
        ok=ok,
        lam=lam if forbidden.order > 1 else None,
        mu=mu,
        sizes=sizes,
        message=message,
        witness=witness,
        degenerate_blocks=degenerate,
        counts=table,
    )


# -- development ----------------------------------------------------------------


def develop(family: DifferenceFamily) -> List[Block]:
    """All translates of all blocks (with multiplicity): |G| * b blocks."""
    out: List[Block] = []
    for block in family.blocks:
        for t in family.ambient.elements():
            out.append(block.translate(t))
    return out


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
    realized_lam: Optional[int] = lam
    realized_mu: Optional[int] = mu
    pts = sorted(points, key=repr)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            key = (x, y) if repr(x) <= repr(y) else (y, x)
            got = counts.get(key, 0)
            if part_of[x] == part_of[y]:
                if realized_lam is None:
                    realized_lam = got
                elif got != realized_lam:
                    return GddReport(
                        False, realized_lam, realized_mu,
                        "same-group pair count not constant",
                        witness=(key, got, f"lambda={realized_lam}"),
                    )
            else:
                if realized_mu is None:
                    realized_mu = got
                elif got != realized_mu:
                    return GddReport(
                        False, realized_lam, realized_mu,
                        "cross-group pair count not constant",
                        witness=(key, got, f"mu={realized_mu}"),
                    )
    return GddReport(True, realized_lam, realized_mu)


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
    rep = verify(family)
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
    points: List = [e for e in family.ambient.elements()]
    blocks: List[FrozenSet] = []
    for block in family.blocks:
        for t in family.ambient.elements():
            translated = block.translate(t).elements
            if block.size == lam:
                blocks.append(frozenset(translated) | {INFINITY})
            else:
                blocks.append(frozenset(translated))
    points.append(INFINITY)
    report = verify_gdd(blocks, [[p] for p in points], mu=lam)
    if not report.ok:
        raise ValueError(f"pointed development failed: {report.summary()}")
    return PointedDesign(points=points, blocks=blocks, lam=lam, report=report)
