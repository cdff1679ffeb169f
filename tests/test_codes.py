"""Mixed-radix code paths against the tuple implementations they replace.

The reference functions below are the tuple-based oracle, index tables,
second-block walk, pair counts and canonical form the library used before
its hot paths moved to mixed-radix codes.  The hypothesis tests require the
code paths to give the same counts, verdicts, witnesses, tables, blocks,
node counts and canonical forms on random groups and blocks; the negative
controls require both to reject the same perturbed families with the same
witness.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import designs, groups, hadamard, search
from designforge.constructions import galois_ring_ddf
from designforge.designs import Block, DifferenceFamily, difference_table, verify
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup, cosets, subgroup_generated
from designforge.search import SYMMETRY_NAMES, SearchSpec, canonical_form

# ---------------------------------------------------------------------------
# the tuple references
# ---------------------------------------------------------------------------


def ref_difference_table(family):
    """The k x k x dims oracle: every coordinate difference formed explicitly."""
    group = family.ambient
    moduli = np.array(group.moduli, dtype=np.int64)
    weights = np.ones(len(group.moduli), dtype=np.int64)
    for i in range(len(group.moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * group.moduli[i + 1]
    totals = np.zeros(group.order, dtype=np.int64)
    for block in family.blocks:
        if block.size < 2:
            continue
        coords = np.array(block.sorted_elements(), dtype=np.int64)
        diffs = (coords[:, None, :] - coords[None, :, :]) % moduli
        enc = (diffs * weights).sum(axis=2)
        totals += np.bincount(enc.ravel(), minlength=group.order)
        totals[0] -= block.size
    return {
        group.element(int(idx)): int(c) for idx, c in enumerate(totals) if c and idx
    }


def ref_index_tables(group):
    """The v x v x dims int64 difference, sum and negation tables."""
    elems = list(group.elements())
    coords = np.array(elems, dtype=np.int64)
    moduli = np.array(group.moduli, dtype=np.int64)
    weights = np.ones(len(group.moduli), dtype=np.int64)
    for i in range(len(group.moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * group.moduli[i + 1]
    diff = ((coords[:, None, :] - coords[None, :, :]) % moduli) @ weights
    sums = ((coords[:, None, :] + coords[None, :, :]) % moduli) @ weights
    neg = ((-coords) % moduli) @ weights
    return elems, diff, sums, neg


def ref_pair_counts(group, elems):
    out = {}
    elems = list(elems)
    for x in elems:
        for y in elems:
            if x != y:
                d = group.sub(x, y)
                out[d] = out.get(d, 0) + 1
    return out


def ref_coset_structure(spec):
    group = spec.group
    outside = [cs for _, cs in cosets(group, spec.forbidden) if min(cs) not in spec.forbidden]
    neg_of = {cs: frozenset(group.neg(x) for x in cs) for cs in outside}
    return outside, neg_of


def ref_first_block_choices(spec):
    group = spec.group
    per_coset = spec.m // 4
    outside, neg_of = ref_coset_structure(spec)
    handled = set()
    choice_groups = []
    for cs in outside:
        if cs in handled:
            continue
        partner = neg_of[cs]
        if partner == cs:
            orbits, seen = [], set()
            for x in sorted(cs):
                if x in seen:
                    continue
                nx = group.neg(x)
                orbit = (x,) if nx == x else (x, nx)
                seen.update(orbit)
                orbits.append(orbit)
            options = [
                frozenset(itertools.chain.from_iterable(sel))
                for r in range(len(orbits) + 1)
                for sel in itertools.combinations(orbits, r)
                if sum(len(o) for o in sel) == per_coset
            ]
            handled.add(cs)
        else:
            options = [
                frozenset(sub) | frozenset(group.neg(x) for x in sub)
                for sub in itertools.combinations(sorted(cs), per_coset)
            ]
            handled.add(cs)
            handled.add(partner)
        choice_groups.append(options)
    return choice_groups


def ref_balanced_blocks(spec, base_counts, budget):
    """Depth-first second blocks on tuples, with a dict of running counts."""
    group = spec.group
    _, lam, mu = spec.targets()
    targets = {
        d: (lam if d in spec.forbidden else mu) for d in group.elements() if d != group.zero()
    }
    per_coset = spec.m // 4
    outside, _ = ref_coset_structure(spec)
    sub = group.sub

    def rec(idx, chosen, counts):
        if not budget.spend_node():
            return
        if idx == len(outside):
            if all(counts.get(d, 0) == t for d, t in targets.items()):
                yield frozenset(chosen)
            return
        for extra in itertools.combinations(sorted(outside[idx]), per_coset):
            delta = {}
            new_elems = list(extra)
            for i, x in enumerate(new_elems):
                for y in itertools.chain(chosen, new_elems[i + 1 :]):
                    for d in (sub(x, y), sub(y, x)):
                        delta[d] = delta.get(d, 0) + 1
            if any(counts.get(d, 0) + c > targets.get(d, 0) for d, c in delta.items()):
                continue
            merged = dict(counts)
            for d, c in delta.items():
                merged[d] = merged.get(d, 0) + c
            yield from rec(idx + 1, chosen + new_elems, merged)

    yield from rec(0, [], dict(base_counts))


def ref_canonical_form(family, symmetries):
    group = family.ambient
    if "translation" in symmetries:
        shifts = list(group.elements())
    elif "n_multiplication" in symmetries:
        shifts = sorted(family.forbidden.elements)
    else:
        shifts = [group.zero()]
    negations = (False, True) if "negation" in symmetries else (False,)
    best = None
    for neg in negations:
        canon_blocks = []
        for block in family.blocks:
            elems = [group.neg(x) for x in block.elements] if neg else list(block.elements)
            canon_blocks.append(
                min(tuple(sorted(group.add(x, t) for x in elems)) for t in shifts)
            )
        cand = tuple(sorted(canon_blocks))
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# random groups and families
# ---------------------------------------------------------------------------

moduli_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


def random_family(data, group, max_blocks=3, max_size=8):
    elems = list(group.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=max_blocks))):
        size = data.draw(st.integers(min_value=0, max_value=min(max_size, group.order)))
        blocks.append(Block(group, frozenset(data.draw(st.permutations(elems))[:size])))
    return DifferenceFamily(group, subgroup_generated(group, gens), blocks)


def report_fields(report):
    return (report.ok, report.lam, report.mu, report.sizes, report.message, report.witness)


def with_reference_oracle(family):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "difference_table", ref_difference_table)
        return verify(family)


def oracle_runs(family, chunks):
    """(counts, report) for each oracle chunk size, with int32 and int64 codes."""
    out = []
    for rows in chunks:
        for code_order in (groups.INT32_CODE_ORDER, 0):  # 0 forces int64 codes
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(designs, "_ORACLE_ROWS", rows)
                mp.setattr(groups, "INT32_CODE_ORDER", code_order)
                out.append((difference_table(family), verify(family)))
    return out


# ---------------------------------------------------------------------------
# encode and decode
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(moduli_lists, st.data())
def test_encode_decode_round_trip_in_lexicographic_order(moduli, data):
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    codes = g.encode(elems)
    assert codes.dtype == np.int32
    assert codes.tolist() == list(range(g.order)) == [g.index(e) for e in elems]
    assert [tuple(row) for row in g.decode(codes).tolist()] == elems
    assert [g.element(c) for c in range(g.order)] == elems
    some = data.draw(st.lists(st.sampled_from(elems), max_size=10))
    # code order is tuple order, in both directions
    assert sorted(g.encode(some).tolist()) == g.encode(sorted(some)).tolist()
    # encode reduces its input, like index
    shifted = [tuple(c + m for c, m in zip(e, moduli)) for e in some]
    assert g.encode(shifted).tolist() == g.encode(some).tolist()
    # elements of another rank are refused, never reshaped into this one
    with pytest.raises(ValueError, match="do not live in"):
        g.encode([e + (0,) for e in elems])


@settings(max_examples=100, deadline=None)
@given(moduli_lists, st.data())
def test_code_arithmetic_matches_tuple_arithmetic(moduli, data):
    g = FiniteAbelianGroup(moduli)
    elems = list(g.elements())
    xs = data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=6))
    ys = data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=6))
    cx, cy = g.encode(xs), g.encode(ys)
    diff = g.code_sub(cx[:, None], cy[None, :])
    sums = g.code_add(cx[:, None], cy[None, :])
    assert diff.dtype == sums.dtype == np.int32
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert g.element(int(diff[i, j])) == g.sub(x, y)
            assert g.element(int(sums[i, j])) == g.add(x, y)
    assert [g.element(int(c)) for c in g.code_sub(0, cx)] == [g.neg(x) for x in xs]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(moduli_lists, st.data())
def test_oracle_matches_reference_at_every_chunk_size(moduli, data):
    g = FiniteAbelianGroup(moduli)
    fam = random_family(data, g)
    k = max(1, max(b.size for b in fam.blocks))
    want = ref_difference_table(fam)
    want_report = report_fields(with_reference_oracle(fam))
    for table, report in oracle_runs(fam, (1, k, k + 1)):
        assert table == want
        assert report_fields(report) == want_report
        assert report.counts == want


def _paley_family(p):
    g = FiniteAbelianGroup((p,))
    squares = frozenset(((x * x) % p,) for x in range(1, p))
    return DifferenceFamily(g, Subgroup.trivial(g), [Block(g, squares)])


def test_oracle_negative_controls_match_reference():
    rng = random.Random(7)
    families = [_paley_family(83), galois_ring_ddf(RingCtx(3)).family]
    for fam in families:
        for _ in range(3):
            block = fam.blocks[rng.randrange(len(fam.blocks))]
            drop = rng.choice(sorted(block.elements))
            add = rng.choice(sorted(set(fam.ambient.elements()) - block.elements))
            broken = Block(fam.ambient, (block.elements - {drop}) | {add})
            bad = DifferenceFamily(
                fam.ambient,
                fam.forbidden,
                [broken if b is block else b for b in fam.blocks],
                fam.declared,
            )
            want = report_fields(with_reference_oracle(bad))
            assert not want[0] and want[5] is not None
            k = block.size
            for table, report in oracle_runs(bad, (1, k, k + 1)):
                assert table == ref_difference_table(bad)
                assert report_fields(report) == want
        assert all(report.ok for _, report in oracle_runs(fam, (1, 64)))


# ---------------------------------------------------------------------------
# index tables
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(moduli_lists)
def test_index_tables_match_reference(moduli):
    g = FiniteAbelianGroup(moduli)
    elems, diff, sums, neg = hadamard._index_tables(g)
    r_elems, r_diff, r_sums, r_neg = ref_index_tables(g)
    assert elems == r_elems
    for new, ref in ((diff, r_diff), (sums, r_sums), (neg, r_neg)):
        assert new.dtype == np.int32
        assert np.array_equal(new, ref)
    subset = elems[:: max(1, len(elems) // 3)]
    member = hadamard._membership(g, subset)
    assert [i for i in range(g.order) if member[i]] == [g.index(e) for e in subset]


def test_index_tables_refuse_groups_beyond_int32_before_allocating():
    big = FiniteAbelianGroup((1 << 15, (1 << 15) + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="INT32_CODE_ORDER"):
            hadamard._index_tables(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

SYMMETRY_SUBSETS = [
    subset
    for r in range(len(SYMMETRY_NAMES) + 1)
    for subset in itertools.combinations(SYMMETRY_NAMES, r)
]


@settings(max_examples=80, deadline=None)
@given(moduli_lists, st.data())
def test_canonical_forms_match_reference(moduli, data):
    g = FiniteAbelianGroup(moduli)
    fam = random_family(data, g)
    for symmetries in SYMMETRY_SUBSETS:
        assert canonical_form(fam, symmetries) == ref_canonical_form(fam, symmetries)


def test_canonical_forms_of_the_m8_family_match_reference():
    fam = galois_ring_ddf(RingCtx(3)).family
    for symmetries in SYMMETRY_SUBSETS:
        assert canonical_form(fam, symmetries) == ref_canonical_form(fam, symmetries)


# ---------------------------------------------------------------------------
# the exhaustive walk
# ---------------------------------------------------------------------------


def _spec(moduli, forbidden, m, max_nodes=None):
    g = FiniteAbelianGroup(moduli)
    return SearchSpec(
        group=g,
        forbidden=Subgroup(g, forbidden),
        m=m,
        budget=search.SearchBudget(max_nodes=max_nodes),
    )


SPECS = {
    "Z6, m=4": ((6,), [(0,), (3,)], 4),
    "Z3xZ2, m=4": ((3, 2), [(0, 0), (0, 1)], 4),
    "Z7xZ2^2, m=8": ((7, 2, 2), [(0, a, b) for a in range(2) for b in range(2)], 8),
    "Z28, m=8": ((28,), [(0,), (7,), (14,), (21,)], 8),
    "Z14xZ2, m=8": ((14, 2), [(a, b) for a in (0, 7) for b in range(2)], 8),
}


def _decode(group, block):
    return frozenset(group.element(c) for c in block)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.data())
def test_balanced_blocks_match_reference(name, data):
    moduli, forbidden, m = SPECS[name]
    max_nodes = data.draw(st.sampled_from([None, 1, 7, 40]))
    spec = _spec(moduli, forbidden, m, max_nodes)
    g = spec.group
    tables = search._CodeTables(spec)
    choices = search._first_block_choices(tables)
    decoded = [[_decode(g, o) for o in options] for options in choices]
    assert decoded == ref_first_block_choices(spec)
    d1 = frozenset().union(*(data.draw(st.sampled_from(options)) for options in choices))
    d1_elems = _decode(g, d1)
    counts = tables.pair_counts(d1)
    ref_counts = ref_pair_counts(g, d1_elems)
    assert {g.element(d): c for d, c in enumerate(counts) if c} == ref_counts
    new_budget = search._Budget(spec.budget)
    ref_budget = search._Budget(spec.budget)
    new = [_decode(g, b) for b in search._balanced_blocks(tables, counts, new_budget)]
    ref = list(ref_balanced_blocks(spec, ref_counts, ref_budget))
    assert new == ref
    assert new_budget.nodes == ref_budget.nodes
