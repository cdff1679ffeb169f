"""The generator-based structure checks against the all-pairs scans they replace.

The reference functions below are the quadratic closure, homomorphism and
block-invariance scans the library used before it switched to checking on a
generating set.  The hypothesis tests require both to give the same verdict on
random subsets and perturbed tables over small groups; the negative controls
run at sizes where the scans are too slow to keep, including a 70000-element
domain.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.constructions import (
    PreconditionError,
    _unit_subgroup,
    galois_ring_data,
    unit_quotient_family,
)
from designforge.field import FieldCtx
from designforge.galois import RingCtx, unit_group_iso
from designforge.groups import (
    FiniteAbelianGroup,
    GroupIso,
    Subgroup,
    subgroup_generated,
)

# ---------------------------------------------------------------------------
# the all-pairs reference scans
# ---------------------------------------------------------------------------


def ref_is_subgroup(group, elems):
    """Zero present, and closed under negation and all pairwise sums."""
    if group.zero() not in elems:
        return False
    for a in elems:
        if group.neg(a) not in elems:
            return False
        for b in elems:
            if group.add(a, b) not in elems:
                return False
    return True


def ref_is_closed(N, one, mul):
    """One present, and x*N == N for every x in N."""
    if one not in N:
        return False
    return all(frozenset(mul(x, y) for y in N) == N for x in N)


def ref_is_isomorphism(codomain, forward, mul):
    """Injective into the codomain, and f(xy) = f(x) + f(y) for all pairs."""
    images = set(forward.values())
    if len(images) != len(forward) or not all(codomain.contains(i) for i in images):
        return False
    for x, fx in forward.items():
        for y, fy in forward.items():
            if forward[mul(x, y)] != codomain.add(fx, fy):
                return False
    return True


def ref_is_invariant(mul, N, D):
    """x*D == D for every x in N."""
    return all(frozenset(mul(x, d) for d in D) == D for x in N)


def mult_closure(gens, one, mul):
    closure = {one}
    frontier = [one]
    while frontier:
        frontier = [c for c in {mul(a, g) for a in frontier for g in gens} if c not in closure]
        closure.update(frontier)
    return frozenset(closure)


def rejects(fn, *args, error=ValueError, match=""):
    """Whether ``fn(*args)`` raises ``error`` with ``match`` in its message."""
    try:
        fn(*args)
    except error as exc:
        return match in str(exc)
    return False


def _codes(ring, elements):
    """The additive codes of ring or field elements, in the given order."""
    return ring.additive_group().encode(list(elements))


def _elements(ring, codes):
    """The tuples of additive codes, as a set."""
    return frozenset(ring.additive_group().decode_elements(codes))


def perturb(rng, subgroup, universe):
    """The subgroup itself, or it with one element added or removed."""
    members = set(subgroup)
    kind = rng.choice(["keep", "add", "remove"])
    if kind == "add":
        members.add(rng.choice(sorted(universe)))
    elif kind == "remove" and members:
        members.discard(rng.choice(sorted(members)))
    return frozenset(members)


# small multiplicative groups: (name, identity, tuple mul, elements, unit tables)
_GF7 = FieldCtx(7)
_Z7 = ("Z7*", (1,), lambda a, b: (a[0] * b[0] % 7,), [(x,) for x in range(1, 7)], _GF7.unit_tables)
_RINGS = {n: RingCtx(n) for n in (2, 3)}
MULT_GROUPS = [_Z7] + [
    (f"GR(4,{n})*", r.one, r.mul, sorted(r.units()), r.unit_tables) for n, r in _RINGS.items()
]

# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([(6,), (12,), (2, 2, 2), (2, 2, 2, 2), (3, 6), (4, 2)]),
    st.integers(min_value=0, max_value=10**9),
)
def test_subgroup_check_matches_all_pairs_scan(moduli, seed):
    rng = random.Random(seed)
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    if rng.random() < 0.2:
        candidate = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
    else:
        gens = rng.sample(elems, rng.randint(0, 2))
        candidate = perturb(rng, subgroup_generated(g, gens).elements, elems)
    assert rejects(Subgroup.from_elements, g, candidate) == (not ref_is_subgroup(g, candidate))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(MULT_GROUPS))), st.integers(min_value=0, max_value=10**9))
def test_unit_closure_check_matches_all_pairs_scan(which, seed):
    rng = random.Random(seed)
    _, one, mul, elems, tables = MULT_GROUPS[which]
    if rng.random() < 0.2:
        candidate = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
    else:
        gens = rng.sample(elems, rng.randint(0, 2))
        candidate = perturb(rng, mult_closure(gens, one, mul), elems)
    codes = tables.additive.code_set(candidate)  # the closure check on the unit tables
    new = rejects(_unit_subgroup, tables, codes, error=PreconditionError)
    assert new == (not ref_is_closed(candidate, one, mul))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=10**9))
def test_user_subgroup_check_matches_all_pairs_scan(n, seed):
    rng = random.Random(seed)
    ring = _RINGS[n]
    D = sorted(_elements(ring, galois_ring_data(ring).D))
    gens = rng.sample(D, rng.randint(0, 2))
    candidate = perturb(rng, mult_closure(gens, ring.one, ring.mul), D)
    new = rejects(galois_ring_data, ring, None, _codes(ring, candidate), error=PreconditionError)
    assert new == (not ref_is_closed(candidate, ring.one, ring.mul))


def _iso_tables():
    """(name, codomain, forward, tuple mul, domain group, code mul, identity)
    for a few true isomorphisms: ``forward`` maps domain tuples to codomain
    tuples, the tuple mul multiplies two domain tuples, and the code mul two
    arrays of the domain group's codes."""
    out = []
    for m, k in ((12, 5), (9, 2)):
        zm = FiniteAbelianGroup((m,))
        forward = {a: zm.scalar_mul(k, a) for a in zm.elements()}
        out.append((f"Z{m}", zm, forward, zm.add, zm, zm.code_add, zm.zero()))
    z2 = FiniteAbelianGroup((2, 2, 2))
    forward = {a: (a[0], (a[0] + a[1]) % 2, (a[1] + a[2]) % 2) for a in z2.elements()}
    out.append(("Z2^3", z2, forward, z2.add, z2, z2.code_add, z2.zero()))
    log7 = {(pow(3, i, 7),): (i,) for i in range(6)}
    z7 = FiniteAbelianGroup((7,))
    out.append(("Z7*", FiniteAbelianGroup((6,)), log7, _Z7[2], z7, lambda a, b: a * b % 7, (1,)))
    for ring in _RINGS.values():
        iso = unit_group_iso(ring, _codes(ring, ring.units()))
        group = ring.additive_group()
        out.append((iso.domain, iso.codomain, iso.forward, ring.mul, group, ring.mul_codes, ring.one))
    return out


ISO_TABLES = _iso_tables()


def iso_on_codes(table, codomain, elements, mul, one, name):
    """The tuple table ``table`` as a ``GroupIso`` on the codes of ``elements``."""
    keys = sorted(table)
    return GroupIso(
        codomain, elements, elements.encode(keys), codomain.encode([table[x] for x in keys]),
        mul=mul, one=elements.index(one), domain=name,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(ISO_TABLES))), st.integers(min_value=0, max_value=10**9))
def test_isomorphism_check_matches_all_pairs_scan(which, seed):
    rng = random.Random(seed)
    name, codomain, forward, mul, elements, code_mul, one = ISO_TABLES[which]
    table = dict(forward)
    keys = sorted(table)
    kind = rng.choice(["keep", "swap", "replace", "shift"])
    if kind == "swap":
        a, b = rng.sample(keys, 2)
        table[a], table[b] = table[b], table[a]
    elif kind == "replace":
        table[rng.choice(keys)] = codomain.element(rng.randrange(codomain.order))
    elif kind == "shift":
        c = codomain.element(rng.randrange(codomain.order))
        table = {x: codomain.add(fx, c) for x, fx in table.items()}
    iso = iso_on_codes(table, codomain, elements, code_mul, one, name)
    assert rejects(iso.verify) == (not ref_is_isomorphism(codomain, table, mul))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(["GF(13)", 2, 3]), st.integers(min_value=0, max_value=10**9))
def test_invariance_check_matches_all_pairs_scan(which, seed):
    rng = random.Random(seed)
    ring = FieldCtx(13) if which == "GF(13)" else _RINGS[which]
    units = sorted(ring.units())
    N = mult_closure(rng.sample(units, rng.randint(0, 3)), ring.one, ring.mul)
    # D is a union of orbits of a subgroup H of N, so it is often fixed by
    # some generators of N and not by others
    H = mult_closure(rng.sample(sorted(N), min(len(N), rng.randint(0, 2))), ring.one, ring.mul)
    elements = sorted(ring.elements())
    D = set()
    for x in rng.sample(elements, rng.randint(1, 3)):
        D |= {ring.mul(x, y) for y in H}
    D = perturb(rng, D, elements)
    # an invariant D may still fail the later transversal check (a
    # PreconditionError) or the base oracle run (a RuntimeError)
    new = rejects(
        unit_quotient_family, ring, [_codes(ring, D)], _codes(ring, N), _codes(ring, [ring.one]),
        error=(PreconditionError, RuntimeError), match="not fixed",
    )
    assert new == (not ref_is_invariant(ring.mul, N, D))


# ---------------------------------------------------------------------------
# negative controls at sizes the quadratic scans never reached
# ---------------------------------------------------------------------------


def test_swapped_log_table_is_rejected_on_70000_elements():
    p = 70001
    order = p - 1
    g = next(
        c for c in range(2, p) if all(pow(c, order // f, p) != 1 for f in (2, 5, 7))
    )
    logs = np.zeros(p, dtype=np.int64)  # logs[x] = i for x = g^i
    x = 1
    for i in range(order):
        logs[x] = i
        x = x * g % p
    codomain, units = FiniteAbelianGroup((order,)), np.arange(1, p)

    def iso(images):
        return GroupIso(
            codomain, FiniteAbelianGroup((p,)), units, images, mul=lambda a, b: a * b % p, one=1,
            domain="Z70001*",
        )

    iso(logs[1:]).verify()
    logs[2], logs[3] = logs[3], logs[2]
    with pytest.raises(ValueError, match="not a homomorphism"):
        iso(logs[1:]).verify()


def _not_closed_subsets(ring, data):
    """D minus one element, and T* plus one principal unit: neither is closed."""
    D = _elements(ring, data.D)
    extra = next(u for u in sorted(D) if u != ring.one)
    teich = frozenset(ring.teichmuller[1:])
    principal = next(u for u in sorted(D & set(ring.principal_units())) if u != ring.one)
    return [D - {extra}, teich | {principal}]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_non_closed_subgroup_is_rejected(n):
    ring = RingCtx(n)
    data = galois_ring_data(ring)
    for N in _not_closed_subsets(ring, data):
        assert ring.one in N and N <= _elements(ring, data.D)
        with pytest.raises(PreconditionError, match="not a subgroup"):
            galois_ring_data(ring, subgroup=_codes(ring, N))
        with pytest.raises(PreconditionError, match="not a subgroup"):
            unit_quotient_family(ring, [data.D], _codes(ring, N), _codes(ring, [ring.one]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_non_invariant_block_is_rejected(n):
    ring = RingCtx(n)
    data = galois_ring_data(ring)
    D = _elements(ring, data.D)
    for victim in (ring.one, max(D)):
        with pytest.raises(PreconditionError, match="not fixed"):
            unit_quotient_family(ring, [_codes(ring, D - {victim})], data.D, _codes(ring, [ring.one]))
