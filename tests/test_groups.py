import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.constructions import galois_ring_ddf
from designforge.galois import RingCtx
from designforge.groups import (
    FiniteAbelianGroup,
    GroupIso,
    Subgroup,
    cosets,
    subgroup_generated,
)
from designforge.hadamard import check_symmetric_conditions

# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_add_mod_single():
    z6 = FiniteAbelianGroup((6,))
    assert z6.add((4,), (5,)) == (3,)


def test_add_product_group():
    g = FiniteAbelianGroup((7, 2))
    assert g.add((6, 1), (1, 1)) == (0, 0)


def test_add_identity():
    g = FiniteAbelianGroup((5, 3, 2))
    for a in g.elements():
        assert g.add(a, g.zero()) == a


def test_negate():
    z6 = FiniteAbelianGroup((6,))
    assert z6.neg((1,)) == (5,)
    g = FiniteAbelianGroup((7, 2, 2))
    assert g.neg((3, 1, 0)) == (4, 1, 0)
    assert g.neg(g.zero()) == g.zero()


def test_mismatched_length_raises():
    z6 = FiniteAbelianGroup((6,))
    with pytest.raises(ValueError):
        z6.add((1, 0), (2,))


def test_bad_moduli():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())


def test_index_element_roundtrip():
    g = FiniteAbelianGroup((3, 4, 2))
    for i, e in enumerate(g.elements()):
        assert g.index(e) == i
        assert g.element(i) == e


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_add_neg_properties(moduli, ia, ib):
    g = FiniteAbelianGroup(moduli)
    a = g.element(ia % g.order)
    b = g.element(ib % g.order)
    assert g.add(a, b) == g.add(b, a)
    assert g.add(a, g.neg(a)) == g.zero()
    assert g.sub(a, b) == g.add(a, g.neg(b))


# ---------------------------------------------------------------------------
# subgroups and cosets
# ---------------------------------------------------------------------------


def test_subgroup_generated_examples():
    z6 = FiniteAbelianGroup((6,))
    assert subgroup_generated(z6, [(3,)]).elements == {(0,), (3,)}
    assert subgroup_generated(z6, []).elements == {(0,)}
    g = FiniteAbelianGroup((7, 2))
    assert subgroup_generated(g, [(0, 1), (1, 0)]).order == 14


def test_subgroup_generated_matches_a_breadth_first_closure():
    # the closure of the generators under addition, one tuple at a time
    rng = random.Random(23)
    for _ in range(300):
        g = FiniteAbelianGroup([rng.choice([1, 2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(1, 3))])
        gens = [tuple(rng.randrange(m) for m in g.moduli) for _ in range(rng.randint(0, 4))]
        reached, frontier = {g.zero()}, [g.zero()]
        while frontier:
            frontier = [s for s in {g.add(a, b) for a in frontier for b in gens} if s not in reached]
            reached.update(frontier)
        assert subgroup_generated(g, gens).elements == reached


def test_subgroup_generated_takes_few_array_passes_on_a_large_cyclic_group(monkeypatch):
    # Z_(2^20) from (1,) is 2^20 breadth-first rounds; each generator's
    # multiples come in doubling runs, about 2 * 20 code additions, and the
    # subgroup check of ``closure_table`` doubles too, about as many again
    calls = []
    code_add = FiniteAbelianGroup.code_add

    def counted(self, x, y):
        calls.append(np.size(x))
        assert len(calls) <= 100, "subgroup_generated adds codes in more than 100 passes"
        return code_add(self, x, y)

    monkeypatch.setattr(FiniteAbelianGroup, "code_add", counted)
    g = FiniteAbelianGroup((1 << 20,))
    assert subgroup_generated(g, [(1,)]).codes.tolist() == list(range(1 << 20))
    calls.clear()
    assert subgroup_generated(g, [(1 << 10,), (1 << 15,), (1 << 19,)]).order == 1 << 10


def test_subgroup_verification_rejects_noneclosed():
    z6 = FiniteAbelianGroup((6,))
    with pytest.raises(ValueError):
        Subgroup.from_elements(z6, [(0,), (1,)])
    with pytest.raises(ValueError):
        Subgroup.from_elements(z6, [(3,)])  # missing zero


def test_cosets_z6():
    z6 = FiniteAbelianGroup((6,))
    n = Subgroup.from_elements(z6, [(0,), (3,)])
    cs = cosets(z6, n)
    assert [rep for rep, _ in cs] == [(0,), (1,), (2,)]
    assert [sorted(c) for _, c in cs] == [
        [(0,), (3,)],
        [(1,), (4,)],
        [(2,), (5,)],
    ]


def test_cosets_product_group():
    g = FiniteAbelianGroup((7, 2, 2))
    n = subgroup_generated(g, [(0, 1, 0), (0, 0, 1)])
    cs = cosets(g, n)
    assert len(cs) == 7
    assert [rep for rep, _ in cs] == [(j, 0, 0) for j in range(7)]


def test_cosets_whole_group():
    g = FiniteAbelianGroup((4,))
    cs = cosets(g, Subgroup.whole(g))
    assert len(cs) == 1
    assert cs[0][0] == (0,)


def test_cosets_partition_property():
    g = FiniteAbelianGroup((4, 3))
    n = subgroup_generated(g, [(2, 0)])
    cs = cosets(g, n)
    seen = set()
    for _, c in cs:
        assert len(c) == n.order
        assert not (seen & c)
        seen |= c
    assert len(seen) == g.order


# ---------------------------------------------------------------------------
# tabulated isomorphisms
# ---------------------------------------------------------------------------


Z5 = FiniteAbelianGroup((5,))


def z5_units_iso(codomain, units, images, domain="Z5*"):
    """The table units[p] -> images[p] on Z_5^*, held by code in Z_5."""
    return GroupIso(
        codomain, Z5, np.array(units), np.array(images), mul=lambda a, b: a * b % 5, one=1,
        domain=domain,
    )


def test_group_iso_verification():
    z4 = FiniteAbelianGroup((4,))
    # multiplicative group mod 5 -> Z_4 via discrete log base 2
    iso = z5_units_iso(z4, [1, 2, 3, 4], [0, 1, 3, 2])
    iso.verify()
    assert iso((2,)) == (1,)
    assert {iso((x,)) for x in [1, 4]} == {(0,), (2,)}
    assert iso.map_codes(np.array([4, 3])).tolist() == [2, 3]


def test_group_iso_rejects_nonhomomorphism():
    z4 = FiniteAbelianGroup((4,))
    iso = z5_units_iso(z4, [1, 2, 3, 4], [0, 2, 3, 1])
    with pytest.raises(ValueError):
        iso.verify()


def test_group_iso_rejects_noninjective():
    z4 = FiniteAbelianGroup((4,))
    iso = z5_units_iso(z4, [1, 2], [0, 0], domain="bad")
    with pytest.raises(ValueError):
        iso.verify()


def test_group_iso_rejects_identity_off_zero():
    z2 = FiniteAbelianGroup((2,))
    iso = z5_units_iso(z2, [1], [1], domain="trivial")
    with pytest.raises(ValueError, match="identity"):
        iso.verify()


def test_group_iso_refuses_a_domain_out_of_element_order():
    with pytest.raises(ValueError, match="not in element order"):
        z5_units_iso(FiniteAbelianGroup((4,)), [1, 3, 2, 4], [0, 3, 1, 2])


def test_closure_table_reports_witness():
    # Subgroup runs closure_table on its codes with code_add
    z6 = FiniteAbelianGroup((6,))
    assert Subgroup(z6, range(6)).generators == (1,)
    assert Subgroup(z6, [0, 2, 4]).generators == (2,)
    with pytest.raises(ValueError, match=r"\(2,\) times \(2,\) leaves"):
        Subgroup(z6, [0, 2])
    with pytest.raises(ValueError, match="identity"):
        Subgroup(z6, [1])


def test_subgroup_generators_cannot_change_in_place():
    # the coset index and the symmetric gate's translation claims read the
    # generators, so a cleared list once broke check_symmetric_conditions
    family = galois_ring_ddf(RingCtx(3)).family
    gens = family.forbidden.generators
    assert type(gens) is tuple and gens
    with pytest.raises(AttributeError):
        gens.clear()
    with pytest.raises(TypeError):
        gens[0] = 0
    assert check_symmetric_conditions(family).ok


def test_group_json_roundtrip():
    g = FiniteAbelianGroup((7, 2, 2))
    assert FiniteAbelianGroup.from_json(g.to_json()) == g


# ---------------------------------------------------------------------------
# sorted codes: one checked path, against the former int64 path
# ---------------------------------------------------------------------------


def ref_sorted_codes(group, codes, what):
    """The former int64 path (``sorted_code_rows``): cast to int64, sort each
    row, refuse a code outside the group or repeated in its row.  A 1-D set
    is one row, named without a row number."""
    arr = np.asarray(codes, dtype=np.int64)
    flat = arr.ndim == 1
    rows = np.sort(arr.reshape(1, -1) if flat else arr, axis=1)
    low, high = (rows[:, 0].min(), rows[:, -1].max()) if rows.size else (0, 0)
    if low < 0 or high >= group.order:
        raise ValueError(f"{what} code {low if low < 0 else high} outside {group}")
    repeats = np.argwhere(rows[:, 1:] == rows[:, :-1])
    if repeats.size:
        row, at = repeats[0].tolist()
        raise ValueError(f"{what} code {rows[row, at]} repeats" + ("" if flat else f" in row {row}"))
    out = rows.astype(group.code_dtype)
    return out[0] if flat else out


def _outcome(sort, group, codes):
    try:
        return sort(group, codes, "block")
    except ValueError as exc:
        return str(exc)


# int64 codes of 2^31 or more would wrap into range if cast to int32 first
_HUGE = (2**31, 2**31 + 3, 2**32 + 5, -(2**31) - 1, 2**40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_sorted_codes_match_the_former_int64_path(data):
    moduli = data.draw(st.sampled_from([(7,), (12,), (7, 2, 2), (1 << 20,), (3, 1 << 30)]))
    group = FiniteAbelianGroup(moduli)
    codes = st.integers(0, group.order - 1)
    bad = st.one_of(
        st.integers(-3, -1), st.integers(group.order, group.order + 3), st.sampled_from(_HUGE)
    )
    k = data.draw(st.integers(0, 6))
    rows = [
        data.draw(st.lists(codes, min_size=k, max_size=k, unique=True))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    for _ in range(data.draw(st.integers(0, 2)) if k else 0):
        row, at = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, k - 1))
        rows[row][at] = data.draw(st.one_of(bad, st.sampled_from(rows[row])))  # out of range or a repeat
    value = rows[0] if data.draw(st.booleans()) else rows
    forms = [value, np.array(value, dtype=np.int64)]
    if all(-(2**31) <= c < 2**31 for row in rows for c in row):
        forms.append(np.array(value, dtype=np.int32))
    want = _outcome(ref_sorted_codes, group, forms[1])
    for form in forms:
        got = _outcome(FiniteAbelianGroup.sorted_codes, group, form)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == group.code_dtype and not got.flags.writeable
            assert got.shape == want.shape and np.array_equal(got, want)


def test_sorted_codes_refuse_what_they_cannot_hold():
    z7 = FiniteAbelianGroup((7,))
    with pytest.raises(ValueError, match=r"^block code 4294967299 outside FiniteAbelianGroup\(\[7\]\)$"):
        z7.sorted_codes(np.array([1, 2**32 + 3]), "block")  # 3 once cast to int32
    with pytest.raises(ValueError, match=r"^block code 1 repeats in row 1$"):
        z7.sorted_codes([[0, 1], [1, 1]], "block")
    for codes in ([1.0, 2.0], [True], [[[1]]], 3):
        with pytest.raises(ValueError, match="not a 1-D or 2-D array of integers"):
            z7.sorted_codes(codes, "block")
    assert z7.sorted_codes([], "block").tolist() == []


def test_boundary_elements_outside_the_group_are_refused():
    # each was reduced modulo the group before: (8,) read as (1,), (6,) in Z_5 as (1,)
    from designforge.constructions import galois_ring_ddf, szekeres_family
    from designforge.designs import difference_count
    from designforge.field import FieldCtx
    from designforge.galois import RingCtx

    z7 = FiniteAbelianGroup((7,))
    with pytest.raises(ValueError, match=r"^element \(8,\) outside FiniteAbelianGroup\(\[7\]\)$"):
        z7.code_set([(8,), (1,)])
    with pytest.raises(ValueError, match=r"^element code 1 repeats$"):
        z7.code_set([(1,), (1,)])
    family = szekeres_family(FieldCtx(11)).family
    with pytest.raises(ValueError, match=r"^difference \(6,\) outside FiniteAbelianGroup\(\[5\]\)$"):
        difference_count(family, (6,))
    with pytest.raises(ValueError, match=r"^generator \(8,\) outside FiniteAbelianGroup\(\[7\]\)$"):
        subgroup_generated(z7, [(8,)])
    with pytest.raises(ValueError, match=r"^element \(5, 0, 0\) outside FiniteAbelianGroup\(\[4, 4, 4\]\)$"):
        galois_ring_ddf(RingCtx(3), subgroup=[(5, 0, 0)])
    assert subgroup_generated(z7, [(1,), (1,), (2,)]).order == 7  # sums that meet collapse
