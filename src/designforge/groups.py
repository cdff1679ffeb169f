"""Finite abelian groups Z_m1 x ... x Z_mk.

Elements have two forms.  At the boundary (JSON, text output, provenance,
``Block`` and ``DifferenceFamily`` fields) an element is a tuple of reduced
residues.  Hot paths work on its mixed-radix code instead: the element's
rank in lexicographic order, an integer in 0..order-1, so code order is
tuple order.  ``FiniteAbelianGroup`` owns the radix weights and converts
between the two forms.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Element = Tuple[int, ...]

# The largest group a JSON file may name: 2^24 >= |GR(4,12)^*|, so every
# group the library builds itself still loads.
MAX_GROUP_ORDER = 1 << 24
# Codes of groups up to this order are int32: code arithmetic forms digit
# sums below 2 * order, which must not wrap.
INT32_CODE_ORDER = 1 << 30


def closure_generators(
    elements: Iterable[Hashable],
    identity: Hashable,
    op: Callable[[Hashable, Hashable], Hashable],
) -> List[Hashable]:
    """Generators of the finite set S, picked greedily from ``sorted(S)``.

    BFS from ``identity`` multiplies each reached element by each generator
    once, O(|S| log |S|) calls of the group operation ``op``.  A product
    outside S raises ValueError naming the witness pair (a, g), so a returned
    list proves that S is a subgroup.
    """
    members = frozenset(elements)
    if identity not in members:
        raise ValueError(f"not a subgroup: the identity {identity!r} is missing")
    # in a group the identity is the only idempotent
    if op(identity, identity) != identity:
        raise ValueError(f"not a subgroup: {identity!r} is not the identity")
    reached = {identity}
    gens: List[Hashable] = []
    for s in sorted(members):
        if s in reached:
            continue
        gens.append(s)
        # old elements meet only the new generator; new ones meet them all
        frontier, by = list(reached), [s]
        while frontier:
            nxt = []
            for a in frontier:
                for g in by:
                    c = op(a, g)
                    if c not in members:
                        raise ValueError(f"not a subgroup: {a!r} times {g!r} leaves the set")
                    if c not in reached:
                        reached.add(c)
                        nxt.append(c)
            frontier, by = nxt, gens
    return gens


# -- parsed JSON, checked field by field ---------------------------------------

_REQUIRED = object()


def json_typed(name: str, *kinds: type) -> Callable[[object, str], Any]:
    """A parser for a JSON value whose exact Python type is one of ``kinds``."""

    def parse(value: object, where: str) -> Any:
        if type(value) not in kinds:
            raise ValueError(f"{where} is not {name}")
        return value

    return parse


json_int = json_typed("an integer", int)
json_number = json_typed("a number", int, float)
json_list = json_typed("an array", list)
json_object = json_typed("a JSON object", dict)


def json_field(
    data: object,
    key: str,
    where: str,
    parse: Callable[[object, str], Any],
    default: Any = _REQUIRED,
) -> Any:
    """``parse(data[key], path)`` for the JSON object ``data`` found at ``where``.

    With a ``default``, a missing or null field yields it; without one, the
    field is required.  Every malformed value raises ValueError naming its
    JSON path, such as ``family.blocks[0][2]``.
    """
    path = f"{where}.{key}"
    if json_object(data, where).get(key) is None:
        if default is _REQUIRED:
            raise ValueError(f"{path} is {'null' if key in data else 'missing'}")
        return default
    return parse(data[key], path)


def json_ints(value: object, where: str) -> Tuple[int, ...]:
    if any(type(c) is not int for c in json_list(value, where)):
        raise ValueError(f"{where} is not an array of integers")
    return tuple(value)


def json_elements(value: object, where: str) -> List[Element]:
    """An array of group elements, each an array of integers."""
    return [json_ints(e, f"{where}[{i}]") for i, e in enumerate(json_list(value, where))]


class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively.

    Boundary elements are plain tuples of residues, one per modulus, always
    kept reduced; elements carry no back-reference, so element sets are cheap
    to build and hash.  The working form is the mixed-radix code
    ``sum(c_i * weights[i])``: ``index``/``element`` convert one element,
    ``encode``/``decode`` whole arrays, and ``code_sub``/``code_add`` combine
    code arrays one coordinate at a time, never materialising a coordinate
    axis.
    """

    __slots__ = ("moduli", "order", "weights")

    def __init__(self, moduli: Sequence[int]) -> None:
        mods = tuple(int(m) for m in moduli)
        if not mods:
            raise ValueError("at least one modulus is required")
        if any(m < 1 for m in mods):
            raise ValueError(f"moduli must all be >= 1, got {mods}")
        self.moduli = mods
        # weights[i] is the product of the moduli after position i
        weights = [1] * len(mods)
        for i in range(len(mods) - 2, -1, -1):
            weights[i] = weights[i + 1] * mods[i + 1]
        self.weights = tuple(weights)
        self.order = weights[0] * mods[0]

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.moduli)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.moduli))

    # -- element handling ------------------------------------------------

    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def reduce(self, coords: Sequence[int]) -> Element:
        if len(coords) != len(self.moduli):
            raise ValueError(f"element {tuple(coords)} does not live in {self}")
        return tuple(c % m for c, m in zip(coords, self.moduli))

    def contains(self, a: Sequence[int]) -> bool:
        return len(a) == len(self.moduli) and all(
            0 <= c < m for c, m in zip(a, self.moduli)
        )

    def add(self, a: Element, b: Element) -> Element:
        if len(a) != len(self.moduli) or len(b) != len(self.moduli):
            raise ValueError(f"mismatched ambient group for {a} + {b} in {self}")
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        if len(a) != len(self.moduli):
            raise ValueError(f"mismatched ambient group for -{a} in {self}")
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def sub(self, a: Element, b: Element) -> Element:
        if len(a) != len(self.moduli) or len(b) != len(self.moduli):
            raise ValueError(f"mismatched ambient group for {a} - {b} in {self}")
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def scalar_mul(self, k: int, a: Element) -> Element:
        return tuple((k * x) % m for x, m in zip(a, self.moduli))

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def index(self, a: Element) -> int:
        """Mixed-radix code of an element: its rank in lexicographic order."""
        return sum((c % m) * w for c, m, w in zip(a, self.moduli, self.weights))

    def element(self, idx: int) -> Element:
        """The element whose code is ``idx``."""
        return tuple((idx // w) % m for m, w in zip(self.moduli, self.weights))

    @property
    def code_dtype(self) -> type:
        """int32 up to INT32_CODE_ORDER, else int64."""
        return np.int32 if self.order <= INT32_CODE_ORDER else np.int64

    def encode(self, coords: object) -> np.ndarray:
        """Codes of an array (or sequence) of elements, one per row, as ``code_dtype``."""
        dims = len(self.moduli)
        arr = np.asarray(coords, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, dims)
        if arr.ndim != 2 or arr.shape[1] != dims:
            raise ValueError(f"elements of shape {arr.shape} do not live in {self}")
        codes = (arr % np.array(self.moduli)) @ np.array(self.weights, dtype=np.int64)
        return codes.astype(self.code_dtype)

    def decode(self, codes: object) -> np.ndarray:
        """Elements of an array of codes, one row of residues per code."""
        arr = np.asarray(codes).reshape(-1, 1)
        return (arr // np.array(self.weights)) % np.array(self.moduli)

    def code_sub(self, x: object, y: object) -> np.ndarray:
        """Codes of x - y for code arrays x and y, broadcast together."""
        return self._code_combine(x, y, np.subtract)

    def code_add(self, x: object, y: object) -> np.ndarray:
        """Codes of x + y for code arrays x and y, broadcast together."""
        return self._code_combine(x, y, np.add)

    def _code_combine(self, x: object, y: object, op: Callable) -> np.ndarray:
        # one coordinate at a time: the digits come from the (small) inputs,
        # and the broadcast result holds codes only, at the inputs' dtype
        # (a*w +- b*w) mod m*w = ((a +- b) mod m) * w, with a, b digits of x, y
        out: Any = None
        for m, w in zip(self.moduli, self.weights):
            digit = op((x // w) % m * w, (y // w) % m * w)
            digit %= m * w
            if out is None:
                out = digit
            else:
                out += digit
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data: dict, where: str = "group") -> "FiniteAbelianGroup":
        """Parse ``to_json`` output found at the JSON path ``where``.

        A group of order above MAX_GROUP_ORDER raises ValueError before any
        caller can allocate per-element tables for it.
        """
        group = cls(json_field(data, "moduli", where, json_ints))
        if group.order > MAX_GROUP_ORDER:
            raise ValueError(
                f"{where}.moduli give order {group.order}, "
                f"above MAX_GROUP_ORDER = {MAX_GROUP_ORDER}"
            )
        return group


class Subgroup:
    """A verified subgroup: contains zero, closed under addition (so under negation)."""

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteAbelianGroup, elements: Iterable[Element]) -> None:
        elems = frozenset(parent.reduce(e) for e in elements)
        closure_generators(elems, parent.zero(), parent.add)
        self.parent = parent
        self.elements = elems

    @classmethod
    def trivial(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, [parent.zero()])

    @classmethod
    def whole(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, parent.elements())

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, a: Element) -> bool:
        return a in self.elements

    def __iter__(self) -> Iterator[Element]:
        return iter(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def to_json(self) -> list:
        return [list(e) for e in sorted(self.elements)]


def subgroup_generated(group: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing ``gens`` (closure under repeated addition)."""
    gens = [group.reduce(g) for g in gens]
    frontier = {group.zero()}
    closure = set(frontier)
    while frontier:
        frontier = {group.add(a, g) for a in frontier for g in gens} - closure
        closure |= frontier
    return Subgroup(group, closure)


def cosets(
    group: FiniteAbelianGroup,
    sub: Subgroup,
    *,
    rep_choice: Optional[Callable[[frozenset], Element]] = None,
) -> List[Tuple[Element, frozenset]]:
    """Partition of the group into cosets of ``sub``.

    Cosets are listed in lexicographic order of their smallest member; the
    representative is that smallest member unless ``rep_choice`` overrides it.
    Downstream results must not depend on the representative choice, so
    tests rerun constructions with randomized choices.
    """
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    seen: Dict[Element, None] = {}
    out: List[Tuple[Element, frozenset]] = []
    for a in group.elements():
        if a in seen:
            continue
        coset = frozenset(group.add(a, n) for n in sub.elements)
        for x in coset:
            seen[x] = None
        rep = rep_choice(coset) if rep_choice is not None else min(coset)
        if rep not in coset:
            raise ValueError(f"representative {rep} not inside its coset")
        out.append((rep, coset))
    out.sort(key=lambda pair: min(pair[1]))
    return out


def random_rep_choice(rng: random.Random) -> Callable[[frozenset], Element]:
    """A coset-representative picker drawing uniformly from each coset."""

    def pick(coset: frozenset) -> Element:
        return rng.choice(sorted(coset))

    return pick


class GroupIso:
    """Tabulated isomorphism from a multiplicative domain onto an abelian group.

    The domain is given extensionally as a ``forward`` table keyed by whatever
    hashable representation the domain uses (field or ring elements here),
    with its multiplication ``mul`` and identity ``one``.  ``verify`` is a
    complete check at every size, linear in the domain times its rank.
    """

    def __init__(
        self,
        codomain: FiniteAbelianGroup,
        forward: Dict[Hashable, Element],
        *,
        mul: Callable[[Hashable, Hashable], Hashable],
        one: Hashable,
        domain: str = "",
    ) -> None:
        self.codomain = codomain
        self.forward = dict(forward)
        self.domain = domain
        self.mul = mul
        self.one = one

    def __call__(self, x: Hashable) -> Element:
        try:
            return self.forward[x]
        except KeyError:
            raise KeyError(f"{x!r} is not in the domain of this isomorphism") from None

    def map_set(self, xs: Iterable[Hashable]) -> frozenset:
        return frozenset(self(x) for x in xs)

    def verify(self) -> None:
        """Check injectivity, closure, and f(xg) = f(x) + f(g) for all x and
        each generator g; by induction over words this is the full law."""
        images = set(self.forward.values())
        if len(images) != len(self.forward):
            raise ValueError(f"isomorphism table for {self.domain} is not injective")
        for img in images:
            if not self.codomain.contains(img):
                raise ValueError(f"image {img} outside {self.codomain}")
        if self.forward.get(self.one) != self.codomain.zero():
            raise ValueError(f"identity {self.one!r} does not map to zero")
        try:
            gens = closure_generators(self.forward, self.one, self.mul)
        except ValueError as exc:
            raise ValueError(f"domain of {self.domain}: {exc}") from None
        for x, fx in self.forward.items():
            for g in gens:
                lhs = self.forward[self.mul(x, g)]
                rhs = self.codomain.add(fx, self.forward[g])
                if lhs != rhs:
                    raise ValueError(
                        f"not a homomorphism at ({x!r}, {g!r}): {lhs} != {rhs}"
                    )
