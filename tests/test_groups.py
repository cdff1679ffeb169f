import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.groups import (
    FiniteAbelianGroup,
    GroupIso,
    Subgroup,
    cosets,
    subgroup_generated,
)

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
    assert Subgroup(z6, range(6))._generators == [1]
    assert Subgroup(z6, [0, 2, 4])._generators == [2]
    with pytest.raises(ValueError, match=r"\(2,\) times \(2,\) leaves"):
        Subgroup(z6, [0, 2])
    with pytest.raises(ValueError, match="identity"):
        Subgroup(z6, [1])


def test_group_json_roundtrip():
    g = FiniteAbelianGroup((7, 2, 2))
    assert FiniteAbelianGroup.from_json(g.to_json()) == g
