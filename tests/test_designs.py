import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import designs
from designforge.constructions import cyclotomic_family, szekeres_family
from designforge.designs import (
    Block,
    DesignParams,
    DifferenceFamily,
    develop,
    difference_count,
    difference_table,
    difference_totals,
    one_rotational_design,
    verify,
    verify_gdd,
)
from designforge.field import FieldCtx
from designforge.groups import FiniteAbelianGroup, Subgroup, subgroup_generated


def _family(moduli, blocks, forbidden=None, declared=None):
    g = FiniteAbelianGroup(moduli)
    forb = Subgroup.from_elements(g, forbidden) if forbidden else Subgroup.trivial(g)
    return DifferenceFamily(
        g, forb, [Block.from_elements(g, frozenset(tuple(e) for e in b)) for b in blocks], declared
    )


# ---------------------------------------------------------------------------
# the difference-count oracle
# ---------------------------------------------------------------------------


def test_singleton_block_has_no_differences():
    fam = _family((6,), [[(0,)]])
    for d in range(1, 6):
        assert difference_count(fam, (d,)) == 0


def test_difference_count_rejects_zero():
    fam = _family((6,), [[(1,), (2,)]])
    with pytest.raises(ValueError):
        difference_count(fam, (0,))


def test_szekeres_q11_theta_constant_one():
    # the multiplicative family {3,4},{4,5} in F_11 maps onto Z_5
    fam = szekeres_family(FieldCtx(11)).family
    for d in range(1, 5):
        assert difference_count(fam, (d,)) == 1


def test_difference_table_matches_naive_counting():
    fam = _family((4, 3), [[(0, 0), (1, 2), (3, 1)], [(2, 0), (0, 1)]])
    g = fam.ambient
    naive = {}
    for block in fam.blocks:
        for x in block.elements:
            for y in block.elements:
                if x != y:
                    d = g.sub(x, y)
                    naive[d] = naive.get(d, 0) + 1
    assert difference_table(fam) == naive


def test_theta_total_mass():
    fam = _family((7,), [[(1,), (2,), (4,)], [(0,), (3,)]])
    table = difference_table(fam)
    assert sum(table.values()) == 3 * 2 + 2 * 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_difference_table_matches_naive_on_random_families(data):
    moduli = data.draw(
        st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=2)
    )
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        size = data.draw(st.integers(min_value=0, max_value=min(5, g.order)))
        blocks.append(frozenset(data.draw(st.permutations(elems))[:size]))
    fam = DifferenceFamily(
        g, Subgroup.trivial(g), [Block.from_elements(g, b) for b in blocks]
    )
    naive = {}
    for b in blocks:
        for x in b:
            for y in b:
                if x != y:
                    d = g.sub(x, y)
                    naive[d] = naive.get(d, 0) + 1
    table = difference_table(fam)
    assert table == naive
    assert sum(table.values()) == sum(len(b) * (len(b) - 1) for b in blocks)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_z6_ddf():
    fam = _family((6,), [[(1,), (5,)], [(1,), (2,)]], forbidden=[(0,), (3,)])
    rep = verify(fam)
    assert rep.ok and rep.lam == 0 and rep.mu == 1 and rep.sizes == (2, 2)


def test_verify_against_declared_parameters():
    fam = _family(
        (6,),
        [[(1,), (5,)], [(1,), (2,)]],
        forbidden=[(0,), (3,)],
        declared=DesignParams(0, 1, (2, 2)),
    )
    assert verify(fam).ok
    fam.declared = DesignParams(1, 1, (2, 2))
    assert not verify(fam).ok


def test_verify_corrupted_family_reports_witness():
    fam = _family((6,), [[(1,), (5,)], [(1,), (4,)]], forbidden=[(0,), (3,)])
    rep = verify(fam)
    assert not rep.ok
    assert rep.witness is not None
    d, got, expected = rep.witness
    assert difference_table(fam).get(d, 0) == got


def tuple_walk(family):
    """(lam, mu, witness) by walking every element as a tuple, with ``in``
    tests against the forbidden subgroup: the reference for ``verify``."""
    group, forbidden = family.ambient, family.forbidden.elements
    table = difference_table(family)
    lam = mu = witness = None
    for d in group.elements():
        if d == group.zero():
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
    return (lam if len(forbidden) > 1 else None), mu, witness


def test_verify_matches_the_tuple_walk_on_named_families():
    g = FiniteAbelianGroup((6,))
    everything = [(x,) for x in range(6)]
    families = [
        # passing and failing, with a non-trivial N
        _family((6,), [[(1,), (5,)], [(1,), (2,)]], forbidden=[(0,), (3,)]),
        _family((6,), [[(1,), (5,)], [(1,), (4,)]], forbidden=[(0,), (3,)]),
        # counts off both lambda (first at 4) and mu (first at 3)
        _family((8,), [[(0,), (1,), (2,)]], forbidden=[(0,), (2,), (4,), (6,)]),
        # passing and failing, with a trivial N
        szekeres_family(FieldCtx(11)).family,
        _family((7,), [[(1,), (2,), (4,)]]),
        _family((7,), [[(1,), (2,), (5,)]]),
        # N = G: every difference is in N, none outside
        _family((6,), [[(0,), (1,), (3,)]], forbidden=everything),
        _family((6,), [[(0,), (1,), (2,), (3,), (4,), (5,)]], forbidden=everything),
        DifferenceFamily(g, Subgroup.whole(g), [Block.from_elements(g, frozenset())]),
        # a trivial group
        _family((1,), [[(0,)]]),
    ]
    verdicts = set()
    for fam in families:
        rep = verify(fam)
        assert (rep.lam, rep.mu, rep.witness) == tuple_walk(fam), fam
        verdicts.add((rep.ok, fam.forbidden.is_trivial(), fam.forbidden.order == g.order))
    assert {(True, True, False), (False, True, False), (True, False, False),
            (False, False, False), (True, False, True), (False, False, True)} <= verdicts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_matches_the_tuple_walk_on_random_families(data):
    moduli = data.draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
    forbidden = data.draw(
        st.sampled_from([Subgroup.trivial(g), Subgroup.whole(g), subgroup_generated(g, gens)])
    )
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        size = data.draw(st.integers(min_value=0, max_value=min(6, g.order)))
        blocks.append(Block.from_elements(g, frozenset(data.draw(st.permutations(elems))[:size])))
    fam = DifferenceFamily(g, forbidden, blocks)
    rep = verify(fam)
    assert (rep.lam, rep.mu, rep.witness) == tuple_walk(fam)
    assert np.array_equal(rep.totals, difference_totals(fam))
    assert not rep.totals.flags.writeable


def test_verify_flags_degenerate_blocks():
    fam = _family((3,), [[(0,)], [(1,)]])
    rep = verify(fam)
    assert rep.ok and rep.degenerate_blocks == 2


# ---------------------------------------------------------------------------
# development
# ---------------------------------------------------------------------------


def test_develop_counts():
    fam = _family((3,), [[(0,)]])
    assert len(develop(fam)) == 3
    szek = szekeres_family(FieldCtx(7)).family
    assert len(develop(szek)) == 6


def test_develop_z6_into_gdd():
    fam = _family((6,), [[(1,), (5,)], [(1,), (2,)]], forbidden=[(0,), (3,)])
    blocks = [b.elements for b in develop(fam)]
    groups = [[(0,), (3,)], [(1,), (4,)], [(2,), (5,)]]
    rep = verify_gdd(blocks, groups)
    assert rep.ok and rep.lam == 0 and rep.mu == 1


def test_gdd_negative_control_dropped_block():
    fam = _family((6,), [[(1,), (5,)], [(1,), (2,)]], forbidden=[(0,), (3,)])
    blocks = [b.elements for b in develop(fam)]
    rep = verify_gdd(blocks[:-1], [[(0,), (3,)], [(1,), (4,)], [(2,), (5,)]])
    assert not rep.ok
    assert rep.witness is not None


def test_gdd_rejects_bad_partition():
    rep = verify_gdd([[(0,), (1,)]], [[(0,)], [(0,), (1,)]])
    assert not rep.ok


def test_gdd_type_one_is_two_design():
    # Fano plane as a development of the (7,3,1) difference set
    fam = _family((7,), [[(1,), (2,), (4,)]])
    blocks = [b.elements for b in develop(fam)]
    rep = verify_gdd(blocks, [[(i,)] for i in range(7)])
    assert rep.ok and rep.mu == 1


# ---------------------------------------------------------------------------
# one-rotational development
# ---------------------------------------------------------------------------


def test_one_rotational_q11():
    fam = cyclotomic_family(FieldCtx(11), 2, with_zero=True).family
    design = one_rotational_design(fam)
    assert design.lam == 2
    assert len(design.points) == 6
    assert len(design.blocks) == 10
    assert all(len(b) == 3 for b in design.blocks)
    assert design.report.ok


def test_one_rotational_rejects_lam_zero():
    fam = cyclotomic_family(FieldCtx(13), 4, with_zero=True).family
    assert verify(fam).mu == 0
    with pytest.raises(ValueError):
        one_rotational_design(fam)


def test_one_rotational_rejects_wrong_shape():
    fam = szekeres_family(FieldCtx(11)).family  # equal block sizes
    with pytest.raises(ValueError):
        one_rotational_design(fam)


def test_one_rotational_negative_control_without_infinity():
    fam = cyclotomic_family(FieldCtx(11), 2, with_zero=True).family
    plain = [b.elements for b in develop(fam)]
    points = [(i,) for i in range(5)] + [designs.INFINITY]
    rep = verify_gdd(plain, [[p] for p in points])
    assert not rep.ok  # pairs through the new point are never covered
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_counting_identity_on_verified_families():
    fam = _family((6,), [[(1,), (5,)], [(1,), (2,)]], forbidden=[(0,), (3,)])
    rep = verify(fam)
    params = DesignParams(rep.lam, rep.mu, rep.sizes)
    assert params.counting_identity_holds(6, 2)
    assert not params.counting_identity_holds(6, 3)


def test_family_json_roundtrip():
    fam = _family(
        (6,),
        [[(1,), (5,)], [(1,), (2,)]],
        forbidden=[(0,), (3,)],
        declared=DesignParams(0, 1, (2, 2)),
    )
    fam.provenance = {"construction": "test"}
    again = DifferenceFamily.from_json(fam.to_json())
    assert again.ambient == fam.ambient
    assert again.forbidden == fam.forbidden
    assert again.canonical_blocks() == fam.canonical_blocks()
    assert again.declared == fam.declared
    assert again.provenance == {"construction": "test"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_json_roundtrip_keeps_the_verdict(data):
    # to_json, through a JSON string, then from_json: the same family and
    # the same oracle verdict, declared parameters and provenance included
    moduli = data.draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
    )
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    forbidden = subgroup_generated(g, [data.draw(st.sampled_from(elems))])
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        size = data.draw(st.integers(min_value=0, max_value=min(5, g.order)))
        blocks.append(Block.from_elements(g, frozenset(data.draw(st.permutations(elems))[:size])))
    fam = DifferenceFamily(g, forbidden, blocks)
    if data.draw(st.booleans()):
        rep = verify(fam)
        fam.declared = DesignParams(rep.lam, rep.mu, rep.sizes)
        fam.provenance = {"construction": "random", "order": g.order}
    again = DifferenceFamily.from_json(json.loads(json.dumps(fam.to_json())))
    assert again.ambient == fam.ambient
    assert again.forbidden == fam.forbidden
    assert again.canonical_blocks() == fam.canonical_blocks()
    assert again.declared == fam.declared
    assert again.provenance == fam.provenance
    before, after = verify(fam), verify(again)
    assert (after.ok, after.lam, after.mu, after.sizes, after.witness) == (
        before.ok, before.lam, before.mu, before.sizes, before.witness
    )
    assert np.array_equal(after.totals, before.totals)


def test_blocks_must_live_in_ambient():
    g = FiniteAbelianGroup((6,))
    with pytest.raises(ValueError):
        Block.from_elements(g, frozenset({(7,)}))


def test_block_range_check_names_the_first_failing_element():
    # the witness is the first element, in the frozenset's iteration order,
    # that has the wrong length or a coordinate outside [0, modulus)
    g = FiniteAbelianGroup((6, 4))

    def fails(e):
        return len(e) != 2 or not all(0 <= c < m for c, m in zip(e, g.moduli))

    valid = [(a, b) for a in range(6) for b in range(4)]
    bad_kinds = {
        "ragged": [(1,), (2, 3, 0), ()],
        "negative": [(-1, 0), (0, -3), (-6, -4)],
        "too large": [(6, 0), (0, 4), (2**40, 1)],
    }
    mixed = [e for kind in bad_kinds.values() for e in kind]
    for name, bad in [*bad_kinds.items(), ("mixed", mixed)]:
        for count in range(1, len(bad) + 1):
            elements = frozenset(valid[: 5 * count] + bad[:count])
            witness = next(e for e in elements if fails(e))
            with pytest.raises(ValueError) as info:
                Block.from_elements(g, elements)
            assert str(info.value) == f"block element {witness} outside {g}", name
    # in range, including both ends of every coordinate
    assert Block.from_elements(g, frozenset(valid)).size == 24
    assert Block.from_elements(g, frozenset()).size == 0


def test_blocks_and_subgroups_store_sorted_checked_codes():
    g = FiniteAbelianGroup((6,))
    block = Block(g, [3, 1, 3])
    assert block.codes.tolist() == [1, 3] and block.codes.dtype == g.code_dtype
    assert not block.codes.flags.writeable
    assert block.elements == {(1,), (3,)} and block.sorted_elements() == [(1,), (3,)]
    same = Block.from_elements(g, [(3,), (1,)])
    assert block == same and hash(block) == hash(same)
    assert block != Block(FiniteAbelianGroup((7,)), [1, 3])
    for codes, bad in (([0, 6], 6), ([-1, 2], -1)):
        with pytest.raises(ValueError, match=rf"^block code {bad} outside"):
            Block(g, codes)
        with pytest.raises(ValueError, match=rf"^subgroup code {bad} outside"):
            Subgroup(g, codes)
    assert Subgroup(g, [3, 0]).elements == {(0,), (3,)}


def test_blocks_from_rows_match_one_block_at_a_time():
    # one sort and one array pass of checks for all rows, as a search builds
    # its certificates' blocks and ``develop`` its translates
    g = FiniteAbelianGroup((7, 2, 2))
    rng = np.random.default_rng(8)
    rows = [rng.choice(g.order, size=12, replace=False).tolist() for _ in range(20)]
    blocks = Block.from_rows(g, rows)
    assert blocks == [Block(g, row) for row in rows]
    assert all(b.codes.dtype == g.code_dtype and not b.codes.flags.writeable for b in blocks)
    assert [hash(b) for b in blocks] == [hash(Block(g, row)) for row in rows]
    assert Block.from_rows(g, np.zeros((0, 12), dtype=np.int64)) == []
    for bad, match in (
        ([[0, 28]], "^block code 28 outside"),
        ([[3, 1], [-1, 2]], "^block code -1 outside"),
        ([[1, 2], [4, 4]], "^block code 4 repeats in row 1$"),
    ):
        with pytest.raises(ValueError, match=match):
            Block.from_rows(g, bad)

