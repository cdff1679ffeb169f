import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import designs
from designforge.constructions import (
    PreconditionError,
    cyclotomic_family,
    galois_ring_ddf,
    szekeres_family,
    teichmuller_difference_set,
)
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
from designforge.galois import RingCtx
from designforge.groups import (
    FiniteAbelianGroup,
    Subgroup,
    json_field,
    json_ints,
    json_list,
    json_object,
    subgroup_generated,
)
from designforge.hadamard import skew_from_df
from designforge.search import Certificate, SearchSpec, search_ddf


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
    fam = dataclasses.replace(fam, declared=DesignParams(1, 1, (2, 2)))
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


def test_summary_prints_a_dash_for_either_empty_region():
    # with N = G no element lies outside N, so mu is vacuous like a missing lambda
    rep = verify(_family((2,), [[(0,), (1,)]], forbidden=[(0,), (1,)]))
    assert rep.ok and (rep.lam, rep.mu) == (2, None)
    assert rep.summary() == "VERIFIED: lambda=2 mu=- K=[2]"
    assert verify(_family((3,), [[(0,), (1,), (2,)]])).summary() == "VERIFIED: lambda=- mu=3 K=[3]"


# ---------------------------------------------------------------------------
# the verdict a family carries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: szekeres_family(FieldCtx(19)).family,
        lambda: cyclotomic_family(FieldCtx(37), 4).family,
        lambda: cyclotomic_family(FieldCtx(109), 4, with_zero=True).family,
        lambda: galois_ring_ddf(RingCtx(3)).family,
        lambda: galois_ring_ddf(RingCtx(3), include_ideal=True).family,
        lambda: teichmuller_difference_set(RingCtx(4)).family,
    ],
    ids=["szekeres", "prop22", "prop23", "gr4-ddf", "gr4-union", "prop34"],
)
def test_a_constructed_family_carries_the_verdict_of_a_fresh_run(build):
    family = build()
    fresh = verify(DifferenceFamily.from_json(family.to_json()))
    assert family.report.ok
    assert family.report.summary() == fresh.summary()
    assert np.array_equal(family.report.totals, fresh.totals)


def test_a_family_and_its_verdict_are_frozen():
    fam = szekeres_family(FieldCtx(19)).family
    for target, attr, value in [
        (fam, "blocks", fam.blocks[::-1]),
        (fam, "declared", None),
        (fam, "report", None),
        (fam.report, "ok", False),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, attr, value)
    assert fam.report.ok and not fam.report.totals.flags.writeable


def test_the_blocks_and_subgroup_of_a_verified_family_refuse_rebinding():
    # a rebound block or forbidden subgroup would leave report.ok True, and
    # skew_from_df would assemble on the stale verdict and fail its gate
    fam = szekeres_family(FieldCtx(19)).family
    g = fam.ambient
    rows = Block.from_rows(g, np.array([[0, 1, 2, 7], [3, 4, 5, 6]]))
    for target, attr, value in [
        (fam.blocks[0], "codes", np.array([0, 1, 2, 7])),
        (fam.blocks[0], "ambient", g),
        (rows[0], "codes", rows[1].codes),
        (fam.forbidden, "codes", np.array([0, 3, 6])),
        (fam.forbidden, "generators", []),
        (fam.forbidden, "_coset_index", None),
    ]:
        with pytest.raises(AttributeError, match="cannot rebind"):
            setattr(target, attr, value)
    assert all(not b.codes.flags.writeable for b in fam.blocks + tuple(rows))
    with pytest.raises(ValueError, match="read-only"):
        fam.blocks[0].codes[0] = 7
    # the lazy coset index still fills its own slot, once
    index = fam.forbidden.coset_index()
    assert fam.forbidden.coset_index() is index and not index.flags.writeable
    assert fam.report.ok and skew_from_df(fam).matrix.order == 20


def test_a_family_made_by_replace_carries_no_verdict():
    fam = szekeres_family(FieldCtx(19)).family
    g = fam.ambient
    assert fam.report.ok
    for changes in [
        {},
        {"blocks": fam.blocks[::-1]},
        {"forbidden": Subgroup.from_elements(g, [(0,), (3,), (6,)])},
        {"declared": DesignParams(None, 2, (4, 4))},
        {"provenance": None},
    ]:
        assert dataclasses.replace(fam, **changes).report is None


def test_skew_from_df_runs_the_oracle_on_a_family_without_a_verdict():
    # one block swapped by replace: skew_from_df must verify the new family
    # and refuse it, not assemble it on the old verdict and fail the gate
    fam = szekeres_family(FieldCtx(19)).family
    bad = Block(fam.ambient, [0, 1, 2, 7])
    mutant = dataclasses.replace(fam, blocks=(bad, fam.blocks[1]))
    assert mutant.report is None
    with pytest.raises(PreconditionError, match="family failed verification"):
        skew_from_df(mutant)
    assert not mutant.report.ok


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
    fam = dataclasses.replace(fam, provenance={"construction": "test"})
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
        fam = dataclasses.replace(
            fam, declared=DesignParams(rep.lam, rep.mu, rep.sizes),
            provenance={"construction": "random", "order": g.order},
        )
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
    block = Block(g, [3, 1])
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
    # a repeat is refused, not collapsed into a smaller set
    with pytest.raises(ValueError, match=r"^block code 3 repeats$"):
        Block(g, [3, 1, 3])
    with pytest.raises(ValueError, match=r"^subgroup code 0 repeats$"):
        Subgroup(g, [3, 0, 0])
    with pytest.raises(ValueError, match=r"^block code 3 repeats$"):
        Block.from_elements(g, [(3,), (1,), (3,)])
    assert Subgroup(g, [3, 0]).elements == {(0,), (3,)}
    # a subgroup is one set of codes, as a block is
    for codes in ([[0], [3]], [[0, 3]]):
        with pytest.raises(ValueError, match=r"^subgroup codes are not a 1-D array$"):
            Subgroup(g, codes)


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



# ---------------------------------------------------------------------------
# element arrays read straight to codes, against the former tuple chain
# ---------------------------------------------------------------------------


def ref_json_elements(value, where):
    """The former reader of an element array: each element a tuple of integers."""
    return [json_ints(e, f"{where}[{i}]") for i, e in enumerate(json_list(value, where))]


def ref_read(data, spec):
    """The forbidden codes and the block codes (None for a spec) of a file,
    read through tuples: the former chain, which took a block through a
    frozenset and let a repeated element collapse, as its ``Subgroup`` let a
    repeated forbidden element collapse; or the ValueError text."""
    where = "spec" if spec else "family"
    try:
        group = FiniteAbelianGroup.from_json(
            json_field(data, "group", where, json_object), f"{where}.group"
        )
        elements = json_field(data, "forbidden", where, ref_json_elements)
        forbidden = Subgroup.from_elements(group, dict.fromkeys(elements)).codes.tolist()
        if spec:
            return forbidden, None
        return forbidden, [
            Block.from_elements(group, frozenset(ref_json_elements(blk, f"family.blocks[{i}]")))
            .codes.tolist()
            for i, blk in enumerate(json_field(data, "blocks", "family", json_list))
        ]
    except ValueError as exc:
        return str(exc)


def new_read(data, spec):
    """``ref_read`` through ``SearchSpec.from_json`` or ``DifferenceFamily.from_json``."""
    try:
        if spec:
            return SearchSpec.from_json(data).forbidden.codes.tolist(), None
        family = DifferenceFamily.from_json(data)
        return family.forbidden.codes.tolist(), [b.codes.tolist() for b in family.blocks]
    except ValueError as exc:
        return str(exc)


def _element_lists(data, spec):
    """(path, what, elements) of each element array a file holds, in reading order."""
    where = "spec" if spec else "family"
    out = [(f"{where}.forbidden", "forbidden element", data["forbidden"])]
    if not spec:
        out += [(f"family.blocks[{i}]", "block element", b) for i, b in enumerate(data["blocks"])]
    return out


_MUTATIONS = (
    "bool", "float", "string", "nested", "negative", "huge", "too large", "short", "long",
    "empty", "not an element", "not an array", "repeat", "add",
)


def _mutate(data, group, file, spec):
    """Break one element array of ``file`` in place, in one drawn way."""
    lists = _element_lists(file, spec)
    at = data.draw(st.integers(0, len(lists) - 1))
    elements = lists[at][2]
    kind = data.draw(st.sampled_from(_MUTATIONS))
    if kind == "not an array":
        value = data.draw(st.sampled_from([5, "[[0]]", {"0": [0]}, True]))
        if at == 0:
            file["forbidden"] = value
        else:
            file["blocks"][at - 1] = value
        return
    if not isinstance(elements, list):
        return
    where = data.draw(st.integers(0, len(elements)))
    if kind == "add" or not elements:
        residues = st.lists(st.integers(-3, 9), min_size=len(group.moduli), max_size=len(group.moduli))
        elements.insert(where, data.draw(residues))
        return
    j = data.draw(st.integers(0, len(elements) - 1))
    if kind == "repeat":
        elements.insert(where, list(elements[j]) if isinstance(elements[j], list) else elements[j])
        return
    if kind == "empty":
        elements[j] = []
        return
    if kind == "not an element":
        elements[j] = data.draw(st.sampled_from([3, "1", None, {"0": 1}, False]))
        return
    element = elements[j]
    if not isinstance(element, list) or not element:
        return
    c = data.draw(st.integers(0, len(element) - 1))
    if kind == "short":
        element.pop(c)
    elif kind == "long":
        element.insert(c, 0)
    else:
        value = element[c]
        element[c] = {
            "bool": lambda: data.draw(st.booleans()),
            "float": lambda: float(value) if type(value) is int else 0.5,
            "string": lambda: str(value),
            "nested": lambda: [value],
            "negative": lambda: -data.draw(st.integers(1, 20)),
            "huge": lambda: data.draw(st.sampled_from([2**70, -(2**70), 2**63])),
            "too large": lambda: group.moduli[c] + data.draw(st.integers(0, 5)),
        }[kind]()


def _first_repeat(elements):
    seen = set()
    for e in map(tuple, elements):
        if e in seen:
            return e
        seen.add(e)
    return None


def _assert_reads_agree(group, file, spec):
    """``new_read`` equals ``ref_read`` but for the two intended changes: a
    repeated element is refused, naming the first repeat in file order, and a
    block's range witness is its first bad element in file order, not in
    frozenset order."""
    old = ref_read(file, spec)
    new = new_read(file, spec)
    while isinstance(new, str) and " repeats " in new:
        path, what, elements = next(x for x in _element_lists(file, spec) if new.startswith(f"{x[0]} "))
        assert new == f"{path} repeats {what} {_first_repeat(elements)}"
        elements[:] = [list(e) for e in dict.fromkeys(map(tuple, elements))]
        assert ref_read(file, spec) == old  # the former chain let the repeat collapse
        new = new_read(file, spec)
    if new != old:
        assert isinstance(new, str) and isinstance(old, str) and new.endswith(f" outside {group}")
        what, first = next(
            (what, e) for _, what, elements in _element_lists(file, spec)
            for e in elements if not group.contains(e)
        )
        assert what == "block element" and old.startswith(what) and old.endswith(f" outside {group}")
        assert new == f"{what} {tuple(first)} outside {group}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.booleans(), st.data())
def test_element_arrays_read_as_the_former_tuple_chain(spec, data):
    moduli = data.draw(st.sampled_from([(7,), (12,), (7, 2, 2), (4, 4), (3, 2, 2)]))
    group = FiniteAbelianGroup(moduli)
    elements = [list(e) for e in group.elements()]
    subgroup = subgroup_generated(group, [tuple(data.draw(st.sampled_from(elements)))])
    file = {"group": {"moduli": list(moduli)}, "forbidden": data.draw(st.permutations(subgroup.to_json()))}
    if spec:
        file["m"] = 8
    else:
        file["blocks"] = [
            data.draw(st.permutations(elements))[: data.draw(st.integers(0, 6))]
            for _ in range(data.draw(st.integers(1, 3)))
        ]
    file = json.loads(json.dumps(file))
    assert new_read(file, spec) == ref_read(file, spec) and isinstance(new_read(file, spec), tuple)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, group, file, spec)
    _assert_reads_agree(group, file, spec)


def test_repeated_elements_are_refused_in_every_file_kind():
    family = {"group": {"moduli": [7]}, "forbidden": [[0]], "blocks": [[[1], [1], [2], [4]]]}
    with pytest.raises(ValueError, match=r"^family.blocks\[0\] repeats block element \(1,\)$"):
        DifferenceFamily.from_json(family)
    twice = dict(family, forbidden=[[0], [0]], blocks=[[[1], [2], [4]]])
    with pytest.raises(ValueError, match=r"^family.forbidden repeats forbidden element \(0,\)$"):
        DifferenceFamily.from_json(twice)
    spec = {"group": {"moduli": [6]}, "forbidden": [[0], [3], [3]], "m": 4}
    with pytest.raises(ValueError, match=r"^spec.forbidden repeats forbidden element \(3,\)$"):
        SearchSpec.from_json(spec)
    cert = search_ddf(SearchSpec.from_json(dict(spec, forbidden=[[0], [3]])))[0].to_json()
    with pytest.raises(ValueError, match=r"^certificate.spec.forbidden repeats forbidden element"):
        Certificate.from_json(dict(cert, spec=spec))
    cert["blocks"][1].append(cert["blocks"][1][0])
    with pytest.raises(ValueError, match=r"^family.blocks\[1\] repeats block element"):
        Certificate.from_json(cert)
