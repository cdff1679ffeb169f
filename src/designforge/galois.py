"""Exact arithmetic in the Galois ring GR(4,n).

Elements are length-n tuples over Z_4, reduced by a primitive basic
irreducible modulus.  The context tabulates the Teichmuller set, exposes the
unit decomposition a0*(1+2*a1), reduces onto the residue field F_{2^n}, and
owns the coordinates that carry any unit subgroup onto Z_d x Z_2^s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import BUILTIN_POLYS, FieldCtx, factorize
from .groups import FiniteAbelianGroup, GroupIso

Element = Tuple[int, ...]

MAX_RING_DEGREE = 12


def graeffe_lift(h: Sequence[int]) -> Tuple[int, ...]:
    """Lift a primitive GF(2) polynomial h to Z_4 via g(x^2) = (-1)^n h(x)h(-x).

    The product h(x)h(-x) is an even polynomial over Z_4, so its even-degree
    coefficients define g; the sign keeps g monic.
    """
    n = len(h) - 1
    a = [c % 4 for c in h]
    b = [(c if i % 2 == 0 else -c) % 4 for i, c in enumerate(h)]
    prod = [0] * (2 * n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 4
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
        self._check_primitive_basic()
        # T_n ordered as [0, 1, xi, xi^2, ...]; index 0 is the zero element.
        teich: List[Element] = [self.zero, self.one]
        cur = self.one
        for _ in range(2**n - 2):
            cur = self.mul(cur, self.xi)
            teich.append(cur)
        self.teichmuller: Tuple[Element, ...] = tuple(teich)
        self._teich_index: Dict[Element, int] = {t: i for i, t in enumerate(teich)}
        if len(self._teich_index) != 2**n:
            raise RuntimeError("Teichmuller elements are not distinct")
        for t in self.teichmuller:
            if self.teichmuller_project(t) != t and t != self.zero:
                raise RuntimeError(f"{t} is not fixed by the Teichmuller projection")

    def _check_primitive_basic(self) -> None:
        order = 2**self.n - 1
        if self.pow(self.xi, order) != self.one:
            raise ValueError(f"modulus {self.modulus} is not primitive basic: xi^{order} != 1")
        for ell in factorize(order):
            if self.pow(self.xi, order // ell) == self.one:
                raise ValueError(
                    f"modulus {self.modulus} is not primitive basic: xi has order < {order}"
                )
        # residue modulus must be primitive over GF(2)
        xbar = self.residue.element((0, 1)) if self.n > 1 else self.residue.one
        if self.residue.element_order(xbar) != order:
            raise ValueError(f"residue modulus {self.residue.modulus} is not primitive")

    # -- element handling --------------------------------------------------

    def __repr__(self) -> str:
        return f"RingCtx(GR(4,{self.n}), modulus={list(self.modulus)})"

    def element(self, coeffs: Sequence[int]) -> Element:
        c = [x % 4 for x in coeffs]
        while len(c) > self.n:
            top = c.pop()
            if top:
                base = len(c) - self.n
                for j in range(self.n):
                    c[base + j] = (c[base + j] - top * self.modulus[j]) % 4
        while len(c) < self.n:
            c.append(0)
        return tuple(c)

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
        out = [0] * (2 * self.n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % 4
        return self.element(out)

    def pow(self, a: Element, k: int) -> Element:
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

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

    def lift(self, fbar: Tuple[int, ...]) -> Element:
        """Teichmuller lift of a residue-field element."""
        if fbar == self.residue.zero:
            return self.zero
        return self.teichmuller[1 + self.residue.discrete_log(fbar)]

    def teichmuller_project(self, a: Element) -> Element:
        """The projection a -> a^(2^n); fixes exactly the Teichmuller set."""
        return self.pow(a, 2**self.n)

    def teich_index(self, a: Element) -> int:
        idx = self._teich_index.get(a)
        if idx is None:
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
        return [self.add(self.one, self.mul(self.two, b)) for b in self.teichmuller]

    def additive_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup((4,) * self.n)


# -- GF(2)-linear helpers on the residue field ---------------------------------


def gf2_basis(vectors: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Gaussian elimination over GF(2) with deterministic pivoting.

    Vectors are processed in ascending encoded order (constant term least
    significant); the returned basis is the list of pivot vectors in
    insertion order.
    """
    basis: List[Tuple[int, ...]] = []
    echelon: List[Tuple[int, ...]] = []
    pivots: List[int] = []
    for v in sorted({tuple(v) for v in vectors}, key=lambda t: tuple(reversed(t))):
        w = list(v)
        for evec, piv in zip(echelon, pivots):
            if w[piv]:
                w = [(a + b) % 2 for a, b in zip(w, evec)]
        nz = next((i for i, c in enumerate(w) if c), None)
        if nz is not None:
            basis.append(v)
            echelon.append(tuple(w))
            pivots.append(nz)
    return basis


def gf2_span_coords(
    basis: Sequence[Tuple[int, ...]], dim: int
) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """Map every vector of GF(2)^dim in the span of an ordered basis to its coordinates."""
    span: Dict[Tuple[int, ...], Tuple[int, ...]] = {(0,) * dim: (0,) * len(basis)}
    for k, b in enumerate(basis):
        for vec, coords in list(span.items()):
            new = tuple((a + c) % 2 for a, c in zip(vec, b))
            span[new] = coords[:k] + (1,) + coords[k + 1 :]
    return span


def unit_group_iso(ring: RingCtx, subgroup: Iterable[Element]) -> GroupIso:
    """Map a unit subgroup N of GR(4,n) onto its invariant-factor model Z_d x Z_2^s.

    GR(4,n)^* = T_n^* x (1+2R), so a unit xi^i(1+2b) from ``unit_decompose``
    splits into an odd part and a 2-part.  The odd part reads i off the
    exponent lattice of N; the 2-part takes the coordinates of residue(b) in
    the ``gf2_basis`` of the residues of N's principal units.  The full unit
    group is ``unit_group_iso(ring, ring.units())``, onto Z_{2^n-1} x Z_2^n
    (n >= 2) in the polynomial basis 1, xbar, ..., xbar^(n-1).  Trivial
    factors are dropped.  The table passes ``GroupIso.verify`` before it is
    returned.
    """
    m = 2**ring.n - 1
    decomps = {x: ring.unit_decompose(x) for x in subgroup}
    g0 = math.gcd(m, *(d.a0_exponent for d in decomps.values()))
    d_order = m // g0
    basis = gf2_basis(
        [ring.residue_of(dec.a1) for dec in decomps.values() if dec.a0_exponent == 0]
    )
    span = gf2_span_coords(basis, ring.n)
    moduli: List[int] = []
    if d_order > 1:
        moduli.append(d_order)
    moduli.extend([2] * len(basis))
    if not moduli:
        moduli = [1]
    codomain = FiniteAbelianGroup(moduli)
    forward: Dict[Element, Element] = {}
    for x, dec in decomps.items():
        coords: Tuple[int, ...] = ()
        if d_order > 1:
            coords += (dec.a0_exponent // g0 % d_order,)
        coords += span[ring.residue_of(dec.a1)]
        if not coords:
            coords = (0,)
        forward[x] = coords
    domain = f"unit subgroup of GR(4,{ring.n})"
    iso = GroupIso(codomain, forward, mul=ring.mul, one=ring.one, domain=domain)
    iso.verify()
    return iso
