"""Exact arithmetic in the Galois ring GR(4,n).

At the boundary an element is a length-n tuple over Z_4, reduced by a
primitive basic irreducible modulus; its tuple arithmetic is the field's
polynomial arithmetic (``field.poly_mulmod`` and kin) at modulus 4, and is
the reference.  Hot paths hold an element as its additive code, its
mixed-radix rank in Z_4^n, and a unit also as its log code (i, bbar) for
xi^i(1+2*lift(bbar)), through one log/exp table pair per ring
(``RingCtx.unit_tables``).  The context holds the Teichmuller set as codes,
built by the field's doubling, exposes the unit decomposition a0*(1+2*a1),
reduces onto the residue field F_{2^n}, and owns the coordinates that carry
any unit subgroup onto Z_d x Z_2^s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .field import BUILTIN_POLYS, FieldCtx, UnitTables, _powers_by_doubling, pad_poly, poly_mul
from .field import poly_mulmod, poly_powmod, poly_rem
from .groups import FiniteAbelianGroup, GroupIso

Element = Tuple[int, ...]

MAX_RING_DEGREE = 12


def graeffe_lift(h: Sequence[int]) -> Tuple[int, ...]:
    """Lift a primitive GF(2) polynomial h to Z_4 via g(x^2) = (-1)^n h(x)h(-x).

    The product h(x)h(-x) is an even polynomial over Z_4, so its even-degree
    coefficients define g; the sign keeps g monic.
    """
    n = len(h) - 1
    prod = poly_mul(h, [c if i % 2 == 0 else -c for i, c in enumerate(h)], 4)
    if any(prod[i] for i in range(1, 2 * n + 1, 2)):
        raise RuntimeError(f"squaring lift of {tuple(h)} produced odd terms")
    sign = 1 if n % 2 == 0 else -1
    return tuple((sign * prod[2 * i]) % 4 for i in range(n + 1))


@dataclass(frozen=True)
class UnitDecomposition:
    """A unit written as a0*(1+2*a1) with a0 in T_n^*, a1 in T_n."""

    a0: Element
    a1: Element
    a0_exponent: int  # a0 = xi^a0_exponent
    a1_index: int  # position of a1 in the ordered Teichmuller list

    def recompose(self, ring: "RingCtx") -> Element:
        return ring.mul(self.a0, ring.add(ring.one, ring.mul(ring.two, self.a1)))


class RingCtx:
    """GR(4,n) with a fixed primitive basic irreducible modulus.

    Given only the degree, the modulus is ``graeffe_lift`` of the primitive
    polynomial ``BUILTIN_POLYS[(2, n)]``, for 1 <= n <= MAX_RING_DEGREE.
    T_n is stored once, as ``teich_codes``: the read-only additive codes of
    [0, 1, xi, ..., xi^(2^n - 2)].
    """

    def __init__(self, n: Optional[int] = None, modulus: Optional[Sequence[int]] = None) -> None:
        if modulus is None:
            if n is None:
                raise ValueError("give a degree n or an explicit modulus")
            if not 1 <= n <= MAX_RING_DEGREE:
                raise ValueError(f"degree {n} is outside 1..{MAX_RING_DEGREE}")
            modulus = graeffe_lift(BUILTIN_POLYS[(2, n)])
        mod = tuple(c % 4 for c in modulus)
        if n is None:
            n = len(mod) - 1
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError(f"modulus {mod} is not monic of degree {n}")
        if n > MAX_RING_DEGREE:
            raise ValueError(f"degree {n} exceeds the {MAX_RING_DEGREE} cap")
        self.n = n
        self.modulus = mod
        self.size = 4**n
        residue_mod = tuple(c % 2 for c in mod)
        self.residue = FieldCtx(2, n, modulus=residue_mod)
        self.zero: Element = (0,) * n
        self.one: Element = (1,) + (0,) * (n - 1)
        self.two: Element = (2,) + (0,) * (n - 1)
        self.xi: Element = self.element((0, 1))
        # T_n as additive codes [0, 1, xi, ..., xi^(m-1)], from the m + 1 powers of xi
        m, group = 2**n - 1, self.additive_group()
        powers = _powers_by_doubling(group, self.one, self.xi, self.mul, m + 1)
        if powers[m] != powers[0]:
            raise ValueError(f"modulus {mod} is not primitive basic: xi^{m} != 1")
        teich = np.concatenate([np.zeros(1, dtype=powers.dtype), powers[:m]])
        ordered = np.sort(teich)  # distinct powers: xi has order m
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(f"modulus {mod} is not primitive basic: xi has order < {m}")
        fixed = teich  # t^(2^n) = t, by n squarings through the table-free product
        for _ in range(n):
            fixed = self.mul_codes(fixed, fixed)
        if not np.array_equal(fixed, teich):
            t = group.element(int(teich[np.argmax(fixed != teich)]))
            raise RuntimeError(f"{t} is not fixed by the Teichmuller projection")
        if self.residue.element_order(self.residue_of(self.xi)) != m:
            raise ValueError(f"residue modulus {self.residue.modulus} is not primitive")
        teich.flags.writeable = False
        self.teich_codes: np.ndarray = teich

    # -- element handling --------------------------------------------------

    def __repr__(self) -> str:
        return f"RingCtx(GR(4,{self.n}), modulus={list(self.modulus)})"

    def element(self, coeffs: Sequence[int]) -> Element:
        return pad_poly(poly_rem(coeffs, self.modulus, 4), self.n)

    def elements(self) -> Iterator[Element]:
        """All 4^n elements in the additive group's lexicographic order."""
        return self.additive_group().elements()

    def format(self, a: Element) -> str:
        """Digit string (highest coefficient first) for n=3, list syntax otherwise."""
        if self.n == 3:
            return "".join(str(c) for c in reversed(a))
        return "[" + ",".join(str(c) for c in reversed(a)) + "]"

    def parse(self, text: str) -> Element:
        if self.n == 3 and "[" not in text:
            digits = [int(ch) for ch in text.strip()]
            if len(digits) != 3:
                raise ValueError(f"expected 3 digits, got {text!r}")
            return tuple(reversed(digits))
        inner = text.strip().strip("[]")
        return self.element(tuple(reversed([int(t) for t in inner.split(",")])))

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % 4 for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % 4 for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % 4 for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        return pad_poly(poly_mulmod(a, b, self.modulus, 4), self.n)

    def pow(self, a: Element, k: int) -> Element:
        """a^k for k >= 0."""
        return pad_poly(poly_powmod(a, k, self.modulus, 4), self.n)

    def is_unit(self, a: Element) -> bool:
        return any(c % 2 for c in a)

    def inv(self, a: Element) -> Element:
        """Unit inverse: invert in the residue field, then one Newton step."""
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in GR(4,{self.n})")
        bbar = self.residue.inv(self.residue_of(a))
        b = tuple(int(c) for c in bbar)
        x = self.mul(b, self.sub(self.two, self.mul(a, b)))
        if self.mul(a, x) != self.one:
            raise RuntimeError(f"inverse lift failed for {a}")
        return x

    # -- structure ----------------------------------------------------------

    def residue_of(self, a: Element) -> Tuple[int, ...]:
        """Reduction modulo the maximal ideal, as a residue-field element."""
        return tuple(c % 2 for c in a)

    @cached_property
    def teichmuller(self) -> Tuple[Element, ...]:
        """T_n as tuples, ordered as [0, 1, xi, xi^2, ...]: ``teich_codes`` decoded."""
        return tuple(self.additive_group().decode_elements(self.teich_codes))

    def lift(self, fbar: Tuple[int, ...]) -> Element:
        """Teichmuller lift of a residue-field element."""
        if fbar == self.residue.zero:
            return self.zero
        return self.teichmuller[1 + self.residue.discrete_log(fbar)]

    def teichmuller_project(self, a: Element) -> Element:
        """The projection a -> a^(2^n); fixes exactly the Teichmuller set."""
        return self.pow(a, 2**self.n)

    def teich_index(self, a: Element) -> int:
        """The position of a in T_n: 1 + the discrete log of its residue, 0 for zero."""
        fbar = self.residue_of(a)
        idx = 0 if fbar == self.residue.zero else 1 + self.residue.discrete_log(fbar)
        if self.additive_group().element(int(self.teich_codes[idx])) != a:
            raise ValueError(f"{a} is not a Teichmuller element")
        return idx

    def unit_decompose(self, a: Element) -> UnitDecomposition:
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit")
        a0 = self.teichmuller_project(a)
        w = self.mul(a, self.inv(a0))  # lies in 1 + 2R
        c = self.sub(w, self.one)
        if any(x % 2 for x in c):
            raise RuntimeError(f"decomposition failed for {a}")
        a1 = self.lift(tuple((x // 2) % 2 for x in c))
        dec = UnitDecomposition(
            a0=a0,
            a1=a1,
            a0_exponent=self.teich_index(a0) - 1,
            a1_index=self.teich_index(a1),
        )
        if dec.recompose(self) != a:
            raise RuntimeError(f"recomposition mismatch for {a}")
        return dec

    def units(self) -> Iterator[Element]:
        for a in self.elements():
            if self.is_unit(a):
                yield a

    def nonunits(self) -> Iterator[Element]:
        """The maximal ideal 2*GR(4,n)."""
        for a in self.elements():
            if not self.is_unit(a):
                yield a

    def principal_units(self) -> List[Element]:
        """Units of the form 1 + 2b, b Teichmuller, in Teichmuller order."""
        return [self.add(self.one, self.add(b, b)) for b in self.teichmuller]

    def additive_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup((4,) * self.n)

    def residue_group(self) -> FiniteAbelianGroup:
        """The residue field's additive group Z_2^n, whose codes index bbar."""
        return FiniteAbelianGroup((2,) * self.n)

    # -- code arithmetic ----------------------------------------------------

    @cached_property
    def unit_tables(self) -> UnitTables:
        """GR(4,n)^* = T^* x (1+2R) = Z_(2^n-1) x Z_2^n on additive codes, built
        on first use.

        ``exp[i << n | b]`` is xi^i(1 + 2*lift(bbar)), where b is the Z_2^n
        code of bbar.  Since 2y depends only on the residue of y, it is built
        additively as teich[i] + 2*(xibar^i * bbar), with the residue product
        read off the residue field's own exp/log pair, whose generator is
        xbar, the residue of xi.  A code holds each Z_4 digit in two bits,
        every digit of 2y is 0 or 2, and adding 2 to a digit flips its high
        bit, so the sum is an xor of codes.
        exp is filled in blocks of log-code rows i, so no full-size
        temporary is made.
        """
        n, m = self.n, 2**self.n - 1
        group, residues = self.additive_group(), self.residue_group()
        # twice[c] = 2*lift(cbar) for the residue with Z_2^n code c
        twice = group.encode(2 * residues.decode(np.arange(2**n)))
        res = self.residue.unit_tables  # exp[k] is the Z_2^n code of xibar^k
        exp = np.empty(m << n, dtype=group.code_dtype)
        rows = max(1, (1 << 18) >> n)
        for start in range(0, m, rows):
            i = np.arange(start, min(start + rows, m))
            xi_times_b = res.exp[(i[:, None] + res.log) % m]
            xi_times_b[:, 0] = 0  # the zero residue, whose log is -1
            block = self.teich_codes[1 + i, None] ^ twice[xi_times_b]
            exp[start << n : (start + i.size) << n] = block.ravel()
        units = np.ones(group.order, dtype=bool)
        units[twice] = False  # the nonunits 2R
        return UnitTables.from_exp(group, m, n, exp, units)

    @cached_property
    def _product_matrix(self) -> np.ndarray:
        """Row i*n + j holds the coefficients of x^(i+j) mod the modulus."""
        n = self.n
        return np.array(
            [self.element((0,) * (i + j) + (1,)) for i in range(n) for j in range(n)],
            dtype=np.int64,
        )

    def mul_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Additive codes of the products of two code arrays, elementwise.

        Schoolbook multiplication in Z_4[x]/(g) on digit arrays: the n^2
        digit products, summed through the reduced powers x^(i+j).  It reads
        neither log nor exp table, so it can check them.
        """
        n = self.n
        # an additive code has coefficient j in base-4 digit n-1-j
        shifts = 2 * np.arange(n - 1, -1, -1)
        x = (np.asarray(a, dtype=np.int64)[:, None] >> shifts) & 3
        y = (np.asarray(b, dtype=np.int64)[:, None] >> shifts) & 3
        terms = (x[:, :, None] * y[:, None, :]).reshape(-1, n * n)
        digits = (terms @ self._product_matrix) & 3
        return (digits << shifts).sum(axis=1)


# -- GF(2)-linear helpers on the residue field ---------------------------------


def gf2_coordinates(vectors: Iterable[int], n: int) -> Tuple[List[int], np.ndarray]:
    """A GF(2) basis of the span of residue-field vectors, and coordinates in it.

    Vectors are Z_2^n codes (so xor adds them).  They are taken in ascending
    polynomial order, the constant term least significant, and each one
    outside the span of those kept so far is kept.  Returns the basis and an
    array over Z_2^n holding each vector's coordinates as a Z_2^s code (the
    first basis vector most significant), or -1 outside the span.
    """
    poly = FiniteAbelianGroup((2,) * n).decode(np.arange(1 << n)) @ (1 << np.arange(n))
    of_poly = np.empty(1 << n, dtype=np.int64)
    of_poly[poly] = np.arange(1 << n)
    present = np.zeros(1 << n, dtype=bool)
    present[poly[np.asarray(list(vectors), dtype=np.int64)]] = True
    in_span = np.zeros(1 << n, dtype=bool)
    in_span[0] = True
    span = np.zeros(1, dtype=np.int64)
    basis: List[int] = []
    for v in of_poly[np.flatnonzero(present)].tolist():
        if not in_span[v]:
            basis.append(v)
            span = np.concatenate([span, span ^ v])
            in_span[span] = True
    span = np.zeros(1, dtype=np.int64)
    for v in reversed(basis):
        span = np.concatenate([span, span ^ v])
    coords = np.full(1 << n, -1, dtype=np.int64)
    coords[span] = np.arange(span.size)
    return basis, coords


def unit_subgroup_split(ring: RingCtx, logs: np.ndarray) -> Tuple[int, List[int], np.ndarray]:
    """The structure of a unit subgroup N, given by its log codes.

    N <= Z_m x Z_2^n with m odd, so N = g0*Z_m x V: g0 is the gcd of m and
    the odd parts, and V is spanned by the 2-parts of N's principal units.
    Returns g0 and the ``gf2_coordinates`` basis of V with its coordinates.
    """
    n = ring.n
    odd, two = logs >> n, logs & (2**n - 1)
    g0 = math.gcd(ring.unit_tables.m, *set(odd.tolist()))
    basis, coords = gf2_coordinates(two[odd == 0].tolist(), n)
    return g0, basis, coords


def unit_group_iso(ring: RingCtx, subgroup: np.ndarray) -> GroupIso:
    """Map a unit subgroup N of GR(4,n), given by its additive codes, onto its
    invariant-factor model Z_d x Z_2^s.

    A unit xi^i(1+2b) has log code (i, bbar) in ``ring.unit_tables``, so it
    splits into an odd part and a 2-part.  The odd part reads i off the
    exponent lattice of N; the 2-part takes the coordinates of bbar in the
    ``gf2_coordinates`` basis of the residues of N's principal units.  The
    full unit group, the codes where ``unit_tables.log >= 0``, maps onto
    Z_{2^n-1} x Z_2^n (n >= 2) in the polynomial basis 1, xbar, ...,
    xbar^(n-1), where each image code is the unit's log code.  Trivial
    factors are dropped.  The table passes ``GroupIso.verify`` before it is
    returned; the check multiplies with ``RingCtx.mul_codes``, never with
    the tables it checks.
    """
    tables = ring.unit_tables
    group, n, m = tables.additive, ring.n, tables.m
    codes = group.sorted_codes(subgroup, "subgroup")  # element order is code order
    logs = tables.log[codes].astype(np.int64)
    if (logs < 0).any():
        raise ZeroDivisionError(f"{group.element(int(codes[np.argmax(logs < 0)]))} is not a unit")
    g0, basis, coords = unit_subgroup_split(ring, logs)
    odd, two = logs >> n, logs & (2**n - 1)
    d_order = m // g0
    two_coords = coords[two]
    if (two_coords < 0).any():
        x = group.element(int(codes[np.argmax(two_coords < 0)]))
        raise ValueError(f"not a subgroup: the 2-part of {x} is not a principal unit of it")
    moduli = ([d_order] if d_order > 1 else []) + [2] * len(basis)
    codomain = FiniteAbelianGroup(moduli or [1])
    images = (odd // g0 % d_order << len(basis)) + two_coords
    iso = GroupIso(
        codomain,
        group,
        codes,
        images,
        mul=ring.mul_codes,
        one=group.index(ring.one),
        domain=f"unit subgroup of GR(4,{n})",
    )
    iso.verify()
    return iso
