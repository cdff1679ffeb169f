"""Exact GF(p^r) arithmetic in polynomial basis with tabulated discrete logs.

Fields are capped at 2^20 elements: every log and multiplicative subgroup is
an explicit table, which keeps all downstream verification exact and fast.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteAbelianGroup, json_file, json_ints, json_object

Element = Tuple[int, ...]
Poly = Tuple[int, ...]  # coefficients, lowest degree first

MAX_FIELD_SIZE = 1 << 20

# Monic irreducible moduli, lowest degree first.  The p = 2 entries are the
# classical primitive trinomials/pentanomials (x generates the unit group),
# which the Galois-ring lift relies on.  Anything missing here is found by a
# deterministic scan, so the table is a reproducibility convenience, not a
# requirement.  Override via an external table file (see load_poly_table).
BUILTIN_POLYS: Dict[Tuple[int, int], Poly] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),  # x^3 + x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 0, 2, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 0, 1, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
    (7, 4): (5, 3, 1, 0, 1),
    (11, 2): (7, 1, 1),
    (11, 3): (5, 0, 1, 1),
    (13, 2): (2, 1, 1),
    (13, 3): (6, 1, 0, 1),
}


# -- integer helpers ----------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2^20 here)."""
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def isqrt_exact(n: int) -> Optional[int]:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# -- polynomial arithmetic over GF(p) -----------------------------------------


def _trim(c: List[int]) -> Tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pad_poly(poly: Sequence[int], r: int) -> Element:
    """A reduced polynomial as a length-r coefficient tuple."""
    return tuple(poly) + (0,) * (r - len(poly))


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """The unreduced product, with len(a) + len(b) - 1 coefficients mod p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> Poly:
    return poly_rem(poly_mul(a, b, p), mod, p)


def poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> Poly:
    a = [c % p for c in a]
    deg_m = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i]
        if c:
            f = (c * inv_lead) % p
            for j, mj in enumerate(mod):
                a[i - deg_m + j] = (a[i - deg_m + j] - f * mj) % p
    return _trim(a[:deg_m])


def poly_powmod(a: Sequence[int], k: int, mod: Sequence[int], p: int) -> Poly:
    """a^k mod ``mod`` by square-and-multiply, for k >= 0."""
    if k < 0:
        raise ValueError(f"exponent {k} is negative")
    result: Poly = (1,)
    base = poly_rem(list(a), mod, p)
    while k:
        if k & 1:
            result = poly_mulmod(result, base, mod, p)
        base = poly_mulmod(base, base, mod, p)
        k >>= 1
    return result


def poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> Poly:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, poly_rem(a, b, p)
    return a


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's criterion for a monic polynomial over GF(p)."""
    f = tuple(c % p for c in poly)
    r = len(f) - 1
    if r < 1 or f[-1] != 1:
        return False
    x_red = poly_rem([0, 1], f, p)
    xq = poly_powmod((0, 1), p**r, f, p)
    if _poly_sub(xq, x_red, p):
        return False
    for t in factorize(r):
        xqt = poly_powmod((0, 1), p ** (r // t), f, p)
        g = poly_gcd(_poly_sub(xqt, x_red, p), f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _poly_sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def find_irreducible(p: int, r: int) -> Poly:
    """First monic irreducible of degree r in lexicographic coefficient order."""
    for low in range(p**r):
        coeffs = []
        v = low
        for _ in range(r):
            coeffs.append(v % p)
            v //= p
        cand = tuple(coeffs) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {r} over GF({p})")


def load_poly_table(path: str) -> Dict[Tuple[int, int], Poly]:
    """Read a user table: JSON mapping "p,r" to coefficient lists (low first).

    A malformed table raises ValueError naming the key at fault."""
    raw = json_object(json_file(path), "poly table")
    table: Dict[Tuple[int, int], Poly] = {}
    for key, coeffs in raw.items():
        try:
            p, r = map(int, key.split(","))
        except ValueError:
            raise ValueError(f"poly table key {key!r} is not of the form \"p,r\"") from None
        table[(p, r)] = json_ints(coeffs, f"poly table entry {key!r}")
    return table


# -- unit groups as log codes ----------------------------------------------------


class UnitTables:
    """The unit group of a finite local ring R as log codes.

    R^* = Z_m x Z_2^bits: a unit is xi^i (1 + 2b), with xi a primitive
    (Teichmuller) element of order m and b running over a GF(2)-space of
    dimension ``bits`` (0 for a field, where the unit is g^i).  Its log code
    ``i << bits | b`` is its mixed-radix code in ``group``, the
    ``FiniteAbelianGroup`` Z_m x Z_2^bits, so units multiply by
    ``group.code_add`` and divide by ``group.code_sub``, and unit subgroups
    are ``Subgroup``s of ``group``.  ``exp`` maps each log code to the
    unit's additive code in ``additive`` (the mixed-radix code of its
    coefficient tuple), and ``log`` maps every additive code back, -1 on
    the nonunits.
    """

    __slots__ = ("additive", "group", "m", "bits", "exp", "log")

    def __init__(
        self, additive: FiniteAbelianGroup, m: int, bits: int, exp: np.ndarray, log: np.ndarray
    ) -> None:
        self.additive = additive
        self.group = FiniteAbelianGroup((m,) + (2,) * bits)
        self.m = m
        self.bits = bits
        self.exp = exp
        self.log = log

    @classmethod
    def from_exp(
        cls, additive: FiniteAbelianGroup, m: int, bits: int, exp: np.ndarray, units: np.ndarray
    ) -> "UnitTables":
        """The tables for ``exp``, where ``units`` masks the additive codes of
        the units.  exp is proved a bijection onto them before log is built
        as its inverse: its codes lie in range and hit exactly the units, and
        there are as many codes as units, so none is hit twice."""
        sized = exp.size == m << bits == np.count_nonzero(units)  # m >= 1: exp is not empty
        hit = np.zeros(additive.order, dtype=bool)
        if sized and 0 <= exp.min() and exp.max() < additive.order:
            hit[exp] = True
        if not (sized and (hit == units).all()):
            raise RuntimeError(f"exp is not a bijection onto the units of {additive}")
        log = np.full(additive.order, -1, dtype=exp.dtype)
        log[exp] = np.arange(exp.size, dtype=exp.dtype)
        for table in (exp, log):
            table.setflags(write=False)  # shared by every caller of the context
        return cls(additive, m, bits, exp, log)

    @property
    def one(self) -> int:
        """The additive code of 1."""
        return int(self.exp[0])

    def scale(self, x: int, codes: np.ndarray) -> np.ndarray:
        """Additive codes of x * c for the unit with log code x and any
        elements c.  A nonunit c lies in the maximal ideal, so 1 + c is a
        unit and x * c = x(1 + c) - x."""
        logs = self.log[codes]
        unit = logs >= 0
        out = np.empty_like(codes)
        out[unit] = self.exp[self.group.code_add(logs[unit], x)]
        shifted = self.log[self.additive.code_add(codes[~unit], self.one)]
        out[~unit] = self.additive.code_sub(self.exp[self.group.code_add(shifted, x)], self.exp[x])
        return out


def _powers_by_doubling(
    group: FiniteAbelianGroup, one: Element, g: Element, mul: Callable, count: int
) -> np.ndarray:
    """The additive codes of g^0, ..., g^(count-1) in ``group``, whose
    coordinates are the coefficients of a ring element.  Multiplying by g^s
    is linear on coefficient rows, over Z_p for GF(p^r) and over Z_4 for
    GR(4,n), so exp[s:2s] is exp[:s] times the matrix whose row j is
    x^j g^s (``mul`` multiplies tuples), applied to digit rows in chunks."""
    exp = np.empty(count, dtype=group.code_dtype)
    exp[0] = group.index(one)
    basis = [tuple(row) for row in np.eye(len(group.moduli), dtype=int).tolist()]
    chunk = 1 << 16  # rows of int64 digits: about 10 MB of them at r = 20
    s, g_s = 1, g
    while s < count:
        matrix = np.array([mul(x, g_s) for x in basis], dtype=np.int64)
        stop = min(s, count - s)
        for start in range(0, stop, chunk):
            rows = exp[start : min(start + chunk, stop)]
            exp[s + start : s + start + rows.size] = group.encode(group.decode(rows) @ matrix)
        s, g_s = 2 * s, mul(g_s, g_s)
    return exp


# -- the field context ---------------------------------------------------------


class FieldCtx:
    """GF(p^r) with a fixed monic irreducible modulus and a primitive element.

    Elements are length-r tuples over GF(p), lowest degree first.  The
    primitive element is found by a brute-force order scan over elements in
    encoded order, so construction is deterministic.  The exp/log tables,
    ``unit_tables``, are built once by ``_powers_by_doubling``; the context
    is immutable afterwards.
    """

    def __init__(
        self,
        p: int,
        r: int = 1,
        modulus: Optional[Sequence[int]] = None,
        poly_table: Optional[Dict[Tuple[int, int], Poly]] = None,
    ) -> None:
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        # r is clamped first, so a huge requested degree costs nothing
        if p ** min(r, MAX_FIELD_SIZE.bit_length()) > MAX_FIELD_SIZE:
            size = p**r if r <= MAX_FIELD_SIZE.bit_length() else f"{p}^{r}"
            raise ValueError(f"field size {size} exceeds the {MAX_FIELD_SIZE} cap")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p**r
        self.p = p
        self.r = r
        self.q = q
        if modulus is None:
            if poly_table and (p, r) in poly_table:
                modulus = poly_table[(p, r)]
            elif (p, r) in BUILTIN_POLYS:
                modulus = BUILTIN_POLYS[(p, r)]
            elif r == 1:
                modulus = (0, 1)
            else:
                modulus = find_irreducible(p, r)
        mod = tuple(c % p for c in modulus)
        if len(mod) != r + 1 or mod[-1] != 1:
            raise ValueError(f"modulus {mod} is not monic of degree {r}")
        if not is_irreducible(mod, p):
            raise ValueError(f"modulus {mod} is not irreducible over GF({p})")
        self.modulus: Poly = mod
        self.zero: Element = (0,) * r
        self.one: Element = (1,) + (0,) * (r - 1)
        self.g = self._find_primitive()
        # from_exp proves exp a bijection onto the units, which is the order check of g
        group = self.additive_group()
        exp = _powers_by_doubling(group, self.one, self.g, self.mul, q - 1)
        self.unit_tables = UnitTables.from_exp(group, q - 1, 0, exp, np.arange(q) != 0)

    # -- construction helpers

    def _find_primitive(self) -> Element:
        # the modulus is irreducible, so a^(q-1) = 1 for every candidate a
        target = self.q - 1
        prime_divs = list(factorize(target))
        for idx in range(1, self.q):
            a = self.decode(idx)
            if all(self.poly_pow(a, target // ell) != self.one for ell in prime_divs):
                return a
        raise RuntimeError(f"no primitive element found in GF({self.p}^{self.r})")

    def poly_pow(self, a: Element, k: int) -> Element:
        """Square-and-multiply power using raw polynomial arithmetic, k >= 0."""
        return pad_poly(poly_powmod(a, k, self.modulus, self.p), self.r)

    # -- basic queries

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.r}), modulus={list(self.modulus)})"

    def encode(self, a: Element) -> int:
        v = 0
        for c in reversed(a):
            v = v * self.p + c
        return v

    def decode(self, idx: int) -> Element:
        coeffs = []
        for _ in range(self.r):
            coeffs.append(idx % self.p)
            idx //= self.p
        return tuple(coeffs)

    def elements(self) -> Iterator[Element]:
        for idx in range(self.q):
            yield self.decode(idx)

    def nonzero_elements(self) -> Iterator[Element]:
        for idx in range(1, self.q):
            yield self.decode(idx)

    def element(self, coeffs: Sequence[int]) -> Element:
        return pad_poly(poly_rem(coeffs, self.modulus, self.p), self.r)

    # -- arithmetic

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        return pad_poly(poly_mulmod(a, b, self.modulus, self.p), self.r)

    def inv(self, a: Element) -> Element:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero in the field")
        return self.g_pow(-self.discrete_log(a))

    def pow(self, a: Element, k: int) -> Element:
        if a == self.zero:
            if k <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return self.zero
        return self.g_pow(self.discrete_log(a) * k)

    def frobenius(self, a: Element) -> Element:
        return self.poly_pow(a, self.p)

    def trace(self, a: Element) -> int:
        """Absolute trace into GF(p), returned as an integer in [0, p)."""
        acc = self.zero
        cur = a
        for _ in range(self.r):
            acc = self.add(acc, cur)
            cur = self.frobenius(cur)
        if any(acc[1:]):
            raise RuntimeError(f"trace of {a} did not land in the prime field: {acc}")
        return acc[0]

    # -- multiplicative structure

    def g_pow(self, i: int) -> Element:
        return self.unit_tables.additive.element(int(self.unit_tables.exp[i % (self.q - 1)]))

    def discrete_log(self, a: Element) -> int:
        if a == self.zero:
            raise ZeroDivisionError("discrete log of zero")
        tables = self.unit_tables
        return int(tables.log[tables.additive.checked_encode([a], "field element")[0]])

    def mult_subgroup(self, e: int) -> FrozenSet[Element]:
        """The index-e subgroup {g^(e*i)} of the multiplicative group."""
        if e <= 0 or (self.q - 1) % e != 0:
            raise ValueError(f"index {e} does not divide the group order {self.q - 1}")
        tables = self.unit_tables
        return frozenset(tables.additive.decode_elements(tables.exp[::e]))

    def element_order(self, a: Element) -> int:
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative order")
        return (self.q - 1) // math.gcd(self.discrete_log(a), self.q - 1)

    # -- ring-style adapter, shared with RingCtx

    def units(self) -> Iterator[Element]:
        return self.nonzero_elements()

    def nonunits(self) -> Iterator[Element]:
        yield self.zero

    def additive_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup((self.p,) * self.r)
