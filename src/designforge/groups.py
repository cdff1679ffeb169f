"""Finite abelian groups Z_m1 x ... x Z_mk.

Elements have two forms.  The stored and working form is the mixed-radix
code: the element's rank in lexicographic order, an integer in 0..order-1,
so code order is tuple order.  ``Block``, ``Subgroup`` and ``GroupIso`` hold
codes only.  A tuple of reduced residues is the boundary form of provenance,
failure witnesses and Python callers, decoded from codes when it is asked
for; JSON arrays of elements convert straight to codes (``json_codes``) and
back (``decode``).  ``FiniteAbelianGroup`` owns the radix weights and
converts between the forms.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Element = Tuple[int, ...]

# The largest group a JSON file may name: 2^24 >= |GR(4,12)^*|, so every
# group the library builds itself still loads.
MAX_GROUP_ORDER = 1 << 24
# Codes of groups up to this order are int32: code arithmetic forms digit
# sums below 2 * order, which must not wrap.
INT32_CODE_ORDER = 1 << 30


def cycle_least(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``values[x]`` lowered to the least value on x's cycle of the index
    permutation ``perm`` by doubling: round k takes the minimum with the value
    2^k steps on; once one changes nothing, values are constant around each
    cycle of the step, so of ``perm``.  Unchanged, ``values`` is returned."""
    while True:
        lowered = np.minimum(values, values[perm])
        if np.array_equal(lowered, values):
            return values
        values, perm = lowered, perm[perm]


def closure_table(
    count: int,
    identity: int,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    name: Callable[[int], object] = int,
) -> Tuple[List[int], np.ndarray]:
    """Generators of a finite set S, held by position 0..count-1, and its
    product table under them.

    ``op`` multiplies two position arrays elementwise and returns the
    product's position, or -1 for a product outside S.  Generators are picked
    greedily in position order.  Each new generator s is absorbed by
    doubling: the reached set is multiplied by s, s^2, s^4, ... until it
    stops growing, so a cyclic S of order k costs log k array rounds rather
    than k.  Then every element of S meets every generator once:
    ``table[x, j]`` is the position of x * gens[j].  A product outside S
    raises ValueError naming the witness pair (a, g) through ``name``, so a
    returned table proves that S is a subgroup: S holds the identity, is
    reached from it by products of generators, and is closed under each of
    them.
    """
    if identity < 0:
        raise ValueError("not a subgroup: the identity is missing")

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        c = op(a, b)
        outside = np.flatnonzero(c < 0)
        if outside.size:
            j = outside[0]
            raise ValueError(
                f"not a subgroup: {name(int(a[j]))!r} times {name(int(b[j]))!r} leaves the set"
            )
        return c

    one = np.array([identity])
    # in a group the identity is the only idempotent
    if op(one, one)[0] != identity:
        raise ValueError(f"not a subgroup: {name(identity)!r} is not the identity")
    reached = np.zeros(count, dtype=bool)
    reached[identity] = True
    gens: List[int] = []
    while not reached.all():
        s = int(np.argmin(reached))
        gens.append(s)
        reached[s] = True  # so every round makes progress, whatever op does
        power = np.array([s])
        while True:
            members = np.flatnonzero(reached)
            new = product(members, np.repeat(power, members.size))
            new = new[~reached[new]]
            if not new.size:
                break
            reached[new] = True
            power = product(power, power)
    every = np.arange(count)
    table = np.empty((count, len(gens)), dtype=np.int64)
    for j, g in enumerate(gens):
        table[:, j] = op(every, np.full(count, g))
    outside = np.argwhere(table < 0)  # row-major: the first element, then its generator
    if outside.size:
        x, j = outside[0]
        raise ValueError(
            f"not a subgroup: {name(int(x))!r} times {name(gens[j])!r} leaves the set"
        )
    return gens, table


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


def json_file(path: str) -> object:
    """The JSON value in the file at ``path``.  Input nested too deeply to
    parse raises ValueError, not the parser's RecursionError: that is a
    RuntimeError, which the CLI reports as a failed verification."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests JSON arrays or objects too deeply") from None


def _narrowest_int(value: int) -> type:
    """The narrowest signed numpy integer type holding the nonnegative ``value``."""
    for kind, bits in ((np.int8, 7), (np.int16, 15), (np.int32, 31)):
        if value < 1 << bits:
            return kind
    return np.int64


class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively.

    Boundary elements are tuples of residues, one per modulus.  The stored
    and working form is the mixed-radix code ``sum(c_i * weights[i])``:
    ``index``/``element`` convert one element, ``encode``/``decode`` whole
    arrays.  ``code_sub``/``code_add`` combine code arrays with one raw op
    on the codes and a wrap correction per coordinate, never materialising
    a coordinate axis or dividing the broadcast result; ``cayley_rows``
    builds whole rows of the Cayley table from the small tables of a lead
    and a trail factor.
    """

    __slots__ = ("moduli", "order", "weights", "_wraps")

    def __init__(self, moduli: Sequence[int]) -> None:
        mods = tuple(int(m) for m in moduli)
        if not mods:
            raise ValueError("at least one modulus is required")
        if any(m < 1 for m in mods):
            raise ValueError(f"moduli must all be >= 1, got {mods}")
        self.moduli = mods
        # weights[i] is the product of the moduli after position i
        self.weights = tuple(itertools.accumulate(mods[:0:-1], operator.mul, initial=1))[::-1]
        self.order = self.weights[0] * mods[0]
        # (w, m*w, m*w in the narrowest signed type) per coordinate that can wrap
        self._wraps = tuple(
            (w, m * w, _narrowest_int(m * w)(m * w)) for m, w in zip(mods, self.weights) if m > 1
        )

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.moduli)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("FiniteAbelianGroup", self.moduli))

    # -- element handling ------------------------------------------------

    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def contains(self, a: Sequence[int]) -> bool:
        return len(a) == len(self.moduli) and all(0 <= c < m for c, m in zip(a, self.moduli))

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

    def code_set(self, elements: Iterable[Element]) -> np.ndarray:
        """Sorted codes of some distinct elements, each a reduced residue
        per modulus: an element outside the group or repeated is refused."""
        return self.sorted_codes(self.checked_encode(list(elements), "element"), "element")

    def checked_encode(self, elements: Sequence[Element], what: str) -> np.ndarray:
        """Codes of boundary elements that must already be reduced residues,
        one per modulus, checked with one int64 array and two comparisons.
        The first element, in the given order, that fails raises ValueError
        ``{what} {e} outside {self}``."""
        try:
            coords = np.array(elements, dtype=np.int64).reshape(len(elements), len(self.moduli))
        except (ValueError, TypeError, OverflowError):  # ragged, wrong length, not integers
            coords = None
        if coords is None or (coords < 0).any() or (coords >= self.moduli).any():
            for e in elements:
                if not self.contains(e):
                    raise ValueError(f"{what} {tuple(e)} outside {self}")
        return self.encode(coords)

    def json_codes(self, value: object, where: str, what: str) -> np.ndarray:
        """Sorted codes of the JSON array of elements found at ``where``, read
        in one pass: each element an array of integers, a reduced residue per
        modulus (``checked_encode``), none repeated.  Types are checked on
        the whole array at once; only a failure scans it element by element
        to name the first bad one by its path, such as ``family.blocks[0][2]``;
        the first repeat in file order raises ``{where} repeats {what} {e}``."""
        items = json_list(value, where)
        if not set(map(type, items)) <= {list} or not set(
            map(type, itertools.chain.from_iterable(items))
        ) <= {int}:  # bools, floats and nested arrays fail here too
            for i, e in enumerate(items):
                json_ints(e, f"{where}[{i}]")
        codes = self.checked_encode(items, what)
        try:
            return self.sorted_codes(codes, what)
        except ValueError:  # the codes are in range, so some repeat: name the first in file order
            order = np.argsort(codes, kind="stable")  # equal codes stay in file order
            later = order[1:][codes[order[1:]] == codes[order[:-1]]]
            raise ValueError(f"{where} repeats {what} {tuple(items[later.min()])}") from None

    def sorted_codes(self, codes: object, what: str) -> np.ndarray:
        """Sorted codes of one set (1-D) or one set per row (2-D), as one
        read-only ``code_dtype`` array.  A code outside 0..order-1 (the least
        or greatest, checked in the input's dtype before the cast) or repeated
        in its set (the first after sorting, ``in row r`` for rows) raises
        ValueError; none is dropped.  No ``np.unique``: it imports ``numpy.ma``."""
        arr = np.asarray(codes)
        if arr.ndim not in (1, 2) or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(f"{what} codes are not a 1-D or 2-D array of integers")
        low, high = (arr.min(), arr.max()) if arr.size else (0, 0)
        if low < 0 or high >= self.order:
            raise ValueError(f"{what} code {low if low < 0 else high} outside {self}")
        arr = arr.astype(self.code_dtype)
        arr.sort(axis=-1)
        repeats = np.argwhere(arr[..., 1:] == arr[..., :-1])
        if repeats.size:
            at = tuple(repeats[0].tolist())
            raise ValueError(f"{what} code {arr[at]} repeats" + f" in row {at[0]}" * (arr.ndim == 2))
        arr.flags.writeable = False
        return arr

    def decode(self, codes: object) -> np.ndarray:
        """Elements of an array of codes, one row of residues per code."""
        arr = np.asarray(codes).reshape(-1, 1)
        return (arr // np.array(self.weights)) % np.array(self.moduli)

    def decode_elements(self, codes: object) -> List[Element]:
        """The boundary tuples of an array of codes, in its order."""
        return list(map(tuple, self.decode(codes).tolist()))

    def code_sub(self, x: object, y: object) -> np.ndarray:
        """Codes of x - y for code arrays x and y, broadcast together."""
        return self._code_combine(x, y, np.subtract)

    def code_add(self, x: object, y: object) -> np.ndarray:
        """Codes of x + y for code arrays x and y, broadcast together."""
        return self._code_combine(x, y, np.add)

    def negatives_in(self, codes: np.ndarray, block_of: Optional[np.ndarray] = None) -> np.ndarray:
        """For each of the sorted distinct ``codes``, whether its negative is
        among them too: all True for a negation-closed set, all False for a
        skew one.  With ``block_of``, ``codes`` holds several such sets end
        to end, ``block_of`` numbers each code's set in nondecreasing order,
        and each negative is looked for in its own set."""
        neg = self.code_sub(0, codes)
        if block_of is not None:  # each set's codes and negatives, moved past the sets before it
            offsets = block_of.astype(np.int64) * self.order
            codes, neg = codes + offsets, neg + offsets
        return codes[np.searchsorted(codes, neg) % max(codes.size, 1)] == neg

    def cayley_rows(self, rows: object, op: Callable) -> np.ndarray:
        """Codes of ``op(r, j)`` (``np.subtract`` or ``np.add``) for each of
        the 1-D row codes r against every code j, as a (len(rows), order)
        ``code_dtype`` array: those rows of the group's Cayley table.

        The moduli split into a lead factor of order L and a trail factor of
        order T, at the first split with the least L + T (a cyclic group has
        only the trivial lead).  A code is its lead code times T plus its
        trail code, so the rows are each factor's small R x L and R x T
        tables, from code arithmetic, joined by one broadcast add.  With a
        trivial lead the trail table is the result itself.
        """
        rows = np.asarray(rows, dtype=self.code_dtype).reshape(-1, 1)
        leads = list(itertools.accumulate(self.moduli[:-1], operator.mul, initial=1))
        cut = min(range(len(leads)), key=lambda s: leads[s] + self.order // leads[s])
        lead_order, trail_order = leads[cut], self.order // leads[cut]
        tails = FiniteAbelianGroup(self.moduli[cut:])._code_combine(
            rows % trail_order, np.arange(trail_order, dtype=rows.dtype), op
        )
        if not cut:
            return tails
        heads = FiniteAbelianGroup(self.moduli[:cut])._code_combine(
            rows // trail_order, np.arange(lead_order, dtype=rows.dtype), op
        )
        heads *= trail_order
        return (heads[:, :, None] + tails[:, None, :]).reshape(rows.size, self.order)

    def _code_combine(self, x: object, y: object, op: Callable) -> np.ndarray:
        # One raw op on the codes, then a correction of m*w wherever a
        # coordinate's digits wrapped: digits are reduced residues, so one
        # correction is enough, and int32 codes stay below INT32_CODE_ORDER,
        # so the raw sum cannot overflow.  Only the (small) inputs are
        # divided: a digit times w is x % (m*w) - x % w, where x % (m*w) is
        # the previous coordinate's x % w (x itself at the lead).  The
        # broadcast result sees a compare and a multiply-add per coordinate,
        # the product in the narrowest type holding m*w: a masked add is
        # slower on the alternating masks of Z_2 coordinates, and an int32
        # product costs memory and time.
        out = op(x, y)
        add = op is np.add
        undo = np.subtract if add else np.add
        for w, mw, step in self._wraps:
            if w == 1:  # the last coordinate: x already is its digit
                xd, yd = x, y
            else:
                x_low, y_low = x % w, y % w
                xd, yd, x, y = x - x_low, y - y_low, x_low, y_low
            wrapped = xd >= mw - yd if add else xd < yd
            undo(out, wrapped * step, out=out)
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
    """A verified subgroup: contains zero, closed under addition (so under negation).

    Its one stored form is ``codes``, its members' sorted codes; ``elements``
    decodes them, and ``generators`` lists the codes that generate it.
    ``coset_index`` is the one place cosets are computed.  No slot can be
    rebound, since a family's carried verdict covers them.
    """

    __slots__ = ("parent", "codes", "generators", "_coset_index")

    def __init__(self, parent: FiniteAbelianGroup, codes: object) -> None:
        if np.ndim(codes) != 1:
            raise ValueError("subgroup codes are not a 1-D array")
        codes = parent.sorted_codes(codes, "subgroup")
        if not codes.size or codes[0] != 0:
            raise ValueError(f"not a subgroup: the identity {parent.zero()!r} is missing")

        def position_of_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            total = parent.code_add(codes[a], codes[b])
            at = np.searchsorted(codes, total) % codes.size
            return np.where(codes[at] == total, at, -1)

        gens, _ = closure_table(
            codes.size, 0, position_of_sum, lambda p: parent.element(int(codes[p]))
        )
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "generators", codes[gens].tolist())
        object.__setattr__(self, "_coset_index", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot rebind Subgroup.{name}")

    @classmethod
    def from_elements(cls, parent: FiniteAbelianGroup, elements: Iterable[Element]) -> "Subgroup":
        """The subgroup with the given boundary elements, each range-checked
        as a ``forbidden element``."""
        return cls(parent, parent.checked_encode(list(elements), "forbidden element"))

    @classmethod
    def trivial(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, [0])

    @classmethod
    def whole(cls, parent: FiniteAbelianGroup) -> "Subgroup":
        return cls(parent, np.arange(parent.order))

    @property
    def order(self) -> int:
        return self.codes.size

    @property
    def elements(self) -> FrozenSet[Element]:
        """The members as boundary tuples, decoded on each call."""
        return frozenset(self.parent.decode_elements(self.codes))

    def is_trivial(self) -> bool:
        return self.codes.size == 1

    def coset_index(self) -> np.ndarray:
        """The coset number of every code of the parent, read-only, built on
        first use (neither loading nor verifying a family builds it).

        Cosets are numbered by their least member in code (so element) order,
        so the subgroup itself is coset 0.  ``least[x]``, the least member of
        x's coset, is ``cycle_least`` along the translation by each
        generator: about log|N| rounds of two gathers over G in all.
        """
        if self._coset_index is None:
            group = self.parent
            every = np.arange(group.order, dtype=group.code_dtype)
            least = every
            for g in self.generators:
                least = cycle_least(least, group.code_add(every, g))
            # a coset's number is the rank of its least member among all of them
            index = np.searchsorted(np.flatnonzero(least == every), least)
            index.flags.writeable = False
            object.__setattr__(self, "_coset_index", index)
        return self._coset_index

    def coset_codes(self) -> np.ndarray:
        """The codes of each coset, one sorted row per coset in index order."""
        index = self.coset_index()
        return np.argsort(index, kind="stable").reshape(-1, self.order)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def to_json(self) -> list:
        return self.parent.decode(self.codes).tolist()


def subgroup_generated(group: FiniteAbelianGroup, gens: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing ``gens``; a generator outside the group is refused.
    Each g joins the cosets H + j*g, 0 < j < k, to the subgroup H so far, k the least
    j > 0 with j*g in H: disjoint cosets, nothing collapses, the j*g in doubling runs."""
    reached = np.zeros(group.order, dtype=bool)
    codes = np.zeros(1, dtype=group.code_dtype)
    for g in group.checked_encode(list(gens), "generator")[:, None]:
        reached[codes] = True
        multiples, hit = codes[:1], ()  # j*g for 0 <= j < multiples.size
        while not len(hit):
            more = group.code_add(multiples, group.code_add(multiples[-1:], g))
            hit = np.flatnonzero(reached[more])
            multiples = np.concatenate([multiples, more[: hit[0] if hit.size else None]])
        codes = group.code_add(codes[:, None], multiples).ravel()
    return Subgroup(group, codes)


def cosets(group: FiniteAbelianGroup, sub: Subgroup) -> List[Tuple[Element, frozenset]]:
    """Partition of the group into cosets of ``sub``, decoded from ``sub.coset_index()``.

    One (representative, coset) pair per coset in index order, that is by
    least member, with the least member as representative; ``sub`` itself
    comes first with representative zero.
    """
    if sub.parent != group:
        raise ValueError("subgroup does not belong to this group")
    out: List[Tuple[Element, frozenset]] = []
    for row in sub.coset_codes():
        members = group.decode_elements(row)
        out.append((members[0], frozenset(members)))
    return out


class GroupIso:
    """Tabulated isomorphism from a multiplicative domain onto an abelian group.

    The domain is held as the increasing codes ``codes`` of some elements of
    the group ``elements``, multiplied by ``mul`` (two code arrays,
    elementwise), with ``one`` the identity's code; ``images[p]`` is the
    codomain code of the image of ``codes[p]``.  ``map_codes`` maps codes;
    ``forward`` and ``__call__`` are decoded views, built on first use.
    ``verify`` is one complete check at every size, linear in the domain
    times its rank.
    """

    def __init__(
        self,
        codomain: FiniteAbelianGroup,
        elements: FiniteAbelianGroup,
        codes: np.ndarray,
        images: np.ndarray,
        *,
        mul: Callable[[np.ndarray, np.ndarray], np.ndarray],
        one: int,
        domain: str = "",
    ) -> None:
        keys = np.asarray(codes, dtype=np.int64)
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError(f"domain of {domain} is not in element order")
        self.codomain = codomain
        self.domain = domain
        self.one = elements.element(one)
        self._elements = elements
        self._keys = keys
        self._images = np.asarray(images, dtype=np.int64)
        self._position = lookup = np.full(elements.order, -1, dtype=np.int64)
        lookup[keys] = np.arange(keys.size)
        self._one = int(lookup[one])
        self._op = lambda a, b: lookup[mul(keys[a], keys[b])]
        self._forward: Optional[Dict[Element, Element]] = None

    def _name(self, p: int) -> Element:
        return self._elements.element(int(self._keys[p]))

    @property
    def forward(self) -> Dict[Element, Element]:
        """The table as a dict from domain tuples to codomain tuples."""
        if self._forward is None:
            keys = self._elements.decode_elements(self._keys)
            self._forward = dict(zip(keys, self.codomain.decode_elements(self._images)))
        return self._forward

    def __call__(self, x: Element) -> Element:
        try:
            return self.forward[x]
        except KeyError:
            raise KeyError(f"{x!r} is not in the domain of this isomorphism") from None

    def map_codes(self, codes: np.ndarray) -> np.ndarray:
        """Image codes of the domain elements with the given codes."""
        positions = self._position[codes]
        if (positions < 0).any():
            raise KeyError(f"code {codes[positions < 0][0]} is not in the domain of this isomorphism")
        return self._images[positions]

    def verify(self) -> None:
        """Check the images, injectivity, and f(xg) = f(x) + f(g) for all x
        and each generator g of the domain; by induction over words this is
        the full law.  Products come from the domain's own multiplication,
        never from the table under test."""
        images = self._images
        outside = images[(images < 0) | (images >= self.codomain.order)]
        if outside.size:
            raise ValueError(f"image code {int(outside[0])} outside {self.codomain}")
        if images.size and np.bincount(images).max() > 1:
            raise ValueError(f"isomorphism table for {self.domain} is not injective")
        if self._one < 0 or images[self._one] != 0:
            raise ValueError(f"identity {self.one!r} does not map to zero")
        try:
            gens, table = closure_table(images.size, self._one, self._op, self._name)
        except ValueError as exc:
            raise ValueError(f"domain of {self.domain}: {exc}") from None
        lhs = images[table]
        rhs = self.codomain.code_add(images[:, None], images[gens][None, :])
        bad = np.argwhere(lhs != rhs)  # row-major: the first element, then its generator
        if bad.size:
            x, j = bad[0]
            got = self.codomain.element(int(lhs[x, j]))
            want = self.codomain.element(int(rhs[x, j]))
            raise ValueError(
                f"not a homomorphism at ({self._name(int(x))!r}, {self._name(gens[j])!r}): "
                f"{got} != {want}"
            )
