import random

import numpy as np
import pytest

from designforge import galois
from designforge.constructions import galois_ring_data
from designforge.field import BUILTIN_POLYS, FieldCtx, UnitTables
from designforge.galois import (
    MAX_RING_DEGREE,
    RingCtx,
    gf2_coordinates,
    graeffe_lift,
    unit_group_iso,
)
from designforge.groups import FiniteAbelianGroup

# ---------------------------------------------------------------------------
# modulus lifting
# ---------------------------------------------------------------------------


def test_ring_moduli_are_pinned():
    # the lifted moduli every stdout is written in; n=3 is the reference
    # blocks' x^3 + 3x^2 + 2x + 3
    pinned = {
        1: (3, 1),
        2: (1, 1, 1),
        3: (3, 2, 3, 1),
        4: (1, 3, 2, 0, 1),
        5: (3, 2, 3, 0, 0, 1),
        6: (1, 3, 0, 2, 0, 0, 1),
        7: (3, 1, 0, 0, 2, 0, 0, 1),
        8: (1, 2, 3, 1, 3, 2, 2, 0, 1),
    }
    for n, modulus in pinned.items():
        assert RingCtx(n).modulus == modulus, n


def test_ring_degree_out_of_range():
    for n in (0, -1, MAX_RING_DEGREE + 1):
        with pytest.raises(ValueError, match="outside"):
            RingCtx(n)


def test_lift_degree_three_worked_example():
    assert graeffe_lift((1, 0, 1, 1)) == (3, 2, 3, 1)  # x^3+x^2+1 -> x^3+3x^2+2x+3


def test_lift_degree_one():
    ring = RingCtx(1)
    assert ring.modulus == (3, 1)
    # the root is -3 = 1, of order 1 = 2^1 - 1
    assert ring.xi == (1,)


def test_lift_degree_two_root_order():
    ring = RingCtx(2)
    assert ring.pow(ring.xi, 3) == ring.one
    assert ring.xi != ring.one
    assert ring.mul(ring.xi, ring.xi) != ring.one


def test_lift_rejects_nonprimitive():
    # x^3+x^2+x+1 is not even irreducible; the lifted modulus must be refused
    with pytest.raises(ValueError):
        RingCtx(modulus=graeffe_lift((1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------


def test_z4_multiplication():
    ring = RingCtx(1)
    assert ring.mul((3,), (3,)) == (1,)


def test_gr43_xi_cubed():
    # oracle: x^3 = -(3x^2+2x+3) = x^2+2x+1 (mod 4, modulus)
    ring = RingCtx(3)
    assert ring.mul(ring.xi, ring.mul(ring.xi, ring.xi)) == (1, 2, 1)


def test_unit_inverses_exhaustive():
    ring = RingCtx(3)
    count = 0
    for a in ring.units():
        assert ring.mul(a, ring.inv(a)) == ring.one
        count += 1
    assert count == 2**3 * (2**3 - 1)  # 56 units


def test_inv_rejects_nonunit():
    ring = RingCtx(2)
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.two)


# ---------------------------------------------------------------------------
# Teichmuller structure
# ---------------------------------------------------------------------------


def test_projection_examples():
    r1 = RingCtx(1)
    assert r1.teichmuller_project((3,)) == (1,)  # 3^2 = 9 = 1
    r3 = RingCtx(3)
    assert r3.teichmuller_project(r3.xi) == r3.xi
    for b in r3.teichmuller:
        w = r3.add(r3.one, r3.mul(r3.two, b))
        assert r3.teichmuller_project(w) == r3.one


def test_projection_fixes_exactly_teichmuller():
    for n in (2, 3, 4):
        ring = RingCtx(n)
        fixed = {a for a in ring.elements() if ring.teichmuller_project(a) == a}
        assert fixed == set(ring.teichmuller)
        assert len(ring.teichmuller) == 2**n


def test_unit_decomposition_examples():
    ring = RingCtx(3)
    dec = ring.unit_decompose(ring.xi)
    assert dec.a0 == ring.xi and dec.a1 == ring.zero
    w = ring.add(ring.one, ring.mul(ring.two, ring.xi))
    dec = ring.unit_decompose(w)
    assert dec.a0 == ring.one and dec.a1 == ring.xi


def test_unit_decomposition_roundtrip_all_units():
    ring = RingCtx(3)
    seen = 0
    for a in ring.units():
        dec = ring.unit_decompose(a)
        assert dec.recompose(ring) == a
        seen += 1
    assert seen == 56


def test_principal_units_model_residue_addition():
    # (1+2b)(1+2c) = 1 + 2*lift(residue(b)+residue(c)) for all Teichmuller b, c
    for n in (2, 3, 4, 5):
        ring = RingCtx(n)
        field = ring.residue
        for b in ring.teichmuller:
            for c in ring.teichmuller:
                lhs = ring.mul(
                    ring.add(ring.one, ring.mul(ring.two, b)),
                    ring.add(ring.one, ring.mul(ring.two, c)),
                )
                s = field.add(ring.residue_of(b), ring.residue_of(c))
                rhs = ring.add(ring.one, ring.mul(ring.two, ring.lift(s)))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# reduction to the residue field
# ---------------------------------------------------------------------------


def test_residue_modulus_consistency():
    ring = RingCtx(3)
    assert ring.residue.modulus == (1, 0, 1, 1)  # modulus mod 2 = x^3+x^2+1


def test_residue_of_ideal_vanishes():
    ring = RingCtx(3)
    for a in ring.nonunits():
        assert ring.residue_of(a) == ring.residue.zero
    assert sum(1 for _ in ring.nonunits()) == 2**3


def test_residue_is_ring_homomorphism():
    ring = RingCtx(2)
    field = ring.residue
    elems = list(ring.elements())
    for a in elems:
        for b in elems:
            assert ring.residue_of(ring.add(a, b)) == field.add(
                ring.residue_of(a), ring.residue_of(b)
            )
            assert ring.residue_of(ring.mul(a, b)) == field.mul(
                ring.residue_of(a), ring.residue_of(b)
            )


# ---------------------------------------------------------------------------
# the unit-group isomorphism
# ---------------------------------------------------------------------------


def test_unit_group_iso_basics():
    for n in (3, 6):
        ring = RingCtx(n)
        iso = unit_group_iso(ring, ring.additive_group().encode(list(ring.units())))  # verifies
        assert iso(ring.xi) == (1,) + (0,) * n
        w = ring.add(ring.one, ring.two)  # 1 + 2*1, and 1 is the first basis vector
        assert iso(w) == (0, 1) + (0,) * (n - 1)
        assert len(iso.forward) == (2**n - 1) * 2**n
        units = list(ring.units())
        codes = iso.map_codes(ring.additive_group().encode(units))
        assert iso.codomain.decode_elements(codes) == [iso(u) for u in units]
        with pytest.raises(KeyError, match="not in the domain"):
            iso.map_codes(ring.additive_group().encode([ring.two]))


def test_unit_group_iso_codomains_of_subgroups():
    # D = T^* x (1 + 2 lift(E)) and T^* alone, both through unit_group_iso
    for n in (3, 4, 5, 6):
        ring = RingCtx(n)
        D = galois_ring_data(ring).D
        assert unit_group_iso(ring, D).codomain.moduli == (2**n - 1,) + (2,) * (n - 1)
        teich = unit_group_iso(ring, ring.additive_group().encode(ring.teichmuller[1:]))
        assert teich.codomain.moduli == (2**n - 1,)


def test_gf2_helpers():
    z2 = FiniteAbelianGroup((2, 2, 2))
    basis, coords = gf2_coordinates([z2.index(v) for v in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]], 3)
    assert len(basis) == 2  # the three vectors only span a plane
    assert (coords >= 0).sum() == 4
    assert coords[z2.index((1, 1, 0))] in {1, 2, 3}
    assert coords[z2.index((1, 1, 1))] == -1


def test_format_and_parse():
    ring = RingCtx(3)
    a = (3, 2, 1)  # 1*xi^2 + 2*xi + 3
    assert ring.format(a) == "123"
    assert ring.parse("123") == a
    r4 = RingCtx(4)
    assert r4.parse(r4.format((1, 2, 3, 0))) == (1, 2, 3, 0)


# ---------------------------------------------------------------------------
# the field's arithmetic at modulus 4, against the loops it replaced
# ---------------------------------------------------------------------------


def ref_element(ring, coeffs):
    c = [x % 4 for x in coeffs]
    while len(c) > ring.n:
        top = c.pop()
        if top:
            base = len(c) - ring.n
            for j in range(ring.n):
                c[base + j] = (c[base + j] - top * ring.modulus[j]) % 4
    while len(c) < ring.n:
        c.append(0)
    return tuple(c)


def ref_mul(ring, a, b):
    out = [0] * (2 * ring.n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % 4
    return ref_element(ring, out)


def ref_pow(ring, a, k):
    result, base = ring.one, a
    while k:
        if k & 1:
            result = ref_mul(ring, result, base)
        base = ref_mul(ring, base, base)
        k >>= 1
    return result


def ref_graeffe_product(h):
    """h(x)h(-x) over Z_4, coefficient by coefficient."""
    n = len(h) - 1
    a = [c % 4 for c in h]
    b = [(c if i % 2 == 0 else -c) % 4 for i, c in enumerate(h)]
    prod = [0] * (2 * n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 4
    return prod


def ref_unit_exp(ring):
    """The unit tables' exp in one broadcast: teich[i] + 2*(xibar^i * bbar)."""
    n, m = ring.n, 2**ring.n - 1
    group, residues = ring.additive_group(), ring.residue_group()
    teich = group.encode([ring.pow(ring.xi, i) for i in range(m)])
    twice = group.encode(2 * residues.decode(np.arange(2**n)))
    res = ring.residue.unit_tables
    xi_times_b = res.exp[(np.arange(m)[:, None] + res.log) % m]
    xi_times_b[:, 0] = 0
    return group.code_add(teich[:, None], twice[xi_times_b]).ravel()


@pytest.mark.parametrize("n", range(1, MAX_RING_DEGREE + 1))
def test_teich_codes_match_the_tuple_loop(n):
    ring = RingCtx(n)
    teich, cur = [ring.zero, ring.one], ring.one
    for _ in range(2**n - 2):
        cur = ref_mul(ring, cur, ring.xi)
        teich.append(cur)
    assert ring.teichmuller == tuple(teich)
    assert np.array_equal(ring.teich_codes, ring.additive_group().encode(teich))
    assert ring.teich_codes.dtype == ring.additive_group().code_dtype
    with pytest.raises(ValueError):
        ring.teich_codes[0] = 1


def test_ring_arithmetic_matches_the_schoolbook_loops():
    rng = random.Random(22)
    for n in range(1, 7):
        ring = RingCtx(n)
        for _ in range(100):
            a, b = (tuple(rng.randrange(4) for _ in range(n)) for _ in range(2))
            long = [rng.randrange(-8, 8) for _ in range(rng.randrange(3 * n + 2))]
            k = rng.randrange(3 * 4**n)
            assert ring.element(long) == ref_element(ring, long)
            assert ring.mul(a, b) == ref_mul(ring, a, b)
            assert ring.pow(a, k) == ref_pow(ring, a, k)


def test_graeffe_lift_matches_the_schoolbook_product():
    for (p, n), h in BUILTIN_POLYS.items():
        if p == 2:
            prod = ref_graeffe_product(h)
            sign = 1 if n % 2 == 0 else -1
            assert graeffe_lift(h) == tuple((sign * prod[2 * i]) % 4 for i in range(n + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_block_built_unit_exp_matches_the_one_shot_formula(n):
    ring = RingCtx(n)
    assert ring.unit_tables.exp.dtype == np.int32
    assert np.array_equal(ring.unit_tables.exp, ref_unit_exp(ring))


def test_negative_exponents_are_refused():
    ring = RingCtx(3)
    with pytest.raises(ValueError, match="exponent -1 is negative"):
        ring.pow(ring.xi, -1)
    field = FieldCtx(2, 3)
    with pytest.raises(ValueError, match="exponent -1 is negative"):
        field.poly_pow(field.g, -1)


# ---------------------------------------------------------------------------
# every check of the context, made to fail
# ---------------------------------------------------------------------------


def test_a_root_of_order_six_fails_xi_to_the_m():
    # x^2 + 3x + 1 reduces to the primitive x^2 + x + 1, but x^3 = 3 = -1
    with pytest.raises(ValueError, match=r"not primitive basic: xi\^3 != 1"):
        RingCtx(modulus=(1, 3, 1))


def test_a_root_of_order_five_fails_the_order_check():
    # the lift of x^4 + x^3 + x^2 + x + 1, whose root has order 5 in GF(16)^*
    with pytest.raises(ValueError, match="not primitive basic: xi has order < 15"):
        RingCtx(modulus=graeffe_lift((1, 1, 1, 1, 1)))


def test_a_power_off_the_teichmuller_set_fails_the_projection(monkeypatch):
    build = galois._powers_by_doubling

    def minus_one_for_xi(group, one, g, mul, count):
        powers = build(group, one, g, mul, count).copy()
        powers[1] = group.index((3,) + (0,) * (len(one) - 1))  # -1 has order 2
        return powers

    monkeypatch.setattr(galois, "_powers_by_doubling", minus_one_for_xi)
    with pytest.raises(RuntimeError, match="not fixed by the Teichmuller projection"):
        RingCtx(4)


def test_a_residue_of_lower_order_fails_the_residue_check(monkeypatch):
    monkeypatch.setattr(FieldCtx, "element_order", lambda self, a: 1)
    with pytest.raises(ValueError, match="residue modulus .* is not primitive"):
        RingCtx(3)


def test_a_repeated_teichmuller_row_fails_the_unit_bijection():
    ring = RingCtx(4)
    teich = ring.teich_codes.copy()
    teich[2] = teich[1]  # rows 0 and 1 of exp then both cover 1 + 2R
    ring.teich_codes = teich
    with pytest.raises(RuntimeError, match="not a bijection onto the units"):
        ring.unit_tables


def test_from_exp_refuses_every_kind_of_non_bijection():
    group = FiniteAbelianGroup((5,))
    units = np.arange(5) != 0
    assert UnitTables.from_exp(group, 4, 0, np.array([1, 2, 4, 3]), units).log.tolist() == [
        -1, 0, 1, 3, 2
    ]
    # -1 would index code 4, the one unit missing, if codes were not range-checked
    for exp in ([1, 2, 2, 3], [1, 2, 4, 0], [1, 2, 3, -1], [1, 2, 4, 5], [1, 2, 4]):
        with pytest.raises(RuntimeError, match="not a bijection onto the units"):
            UnitTables.from_exp(group, 4, 0, np.array(exp), units)
