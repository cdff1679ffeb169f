"""Mixed-radix code paths against the tuple implementations they replace.

The reference functions below are the tuple-based oracle, index tables,
coset walk, seed-condition and block-symmetry scans, second-block walk, pair
counts and canonical form the library used before its hot paths moved to
mixed-radix codes, and the whole-table matrix assemblies the row-block ones
replace.  The hypothesis tests require the code paths to give the
same counts, verdicts, witnesses, tables, cosets, blocks, node counts and
canonical forms on random groups and blocks; the negative controls require
both to reject the same perturbed families with the same witness.
"""

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import cli, designs, groups, hadamard, search
from designforge.constructions import (
    block_symmetry_report,
    galois_ring_data,
    galois_ring_ddf,
    szekeres_family,
)
from designforge.designs import Block, DesignParams, DifferenceFamily, difference_table, verify
from designforge.field import FieldCtx
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup, cosets, subgroup_generated
from designforge.hadamard import check_symmetric_conditions
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
        for start in range(0, block.size, 256):  # 256 rows at a time bound the k x k x dims table
            diffs = (coords[start : start + 256, None, :] - coords[None, :, :]) % moduli
            enc = (diffs * weights).sum(axis=2)
            totals += np.bincount(enc.ravel(), minlength=group.order)
        totals[0] -= block.size
    return {
        group.element(int(idx)): int(c) for idx, c in enumerate(totals) if c and idx
    }


def ref_difference_totals(family):
    """``ref_difference_table`` as an array indexed by lexicographic rank."""
    group = family.ambient
    totals = np.zeros(group.order, dtype=np.int64)
    for e, c in ref_difference_table(family).items():
        totals[group.index(e)] = c
    return totals


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


def ref_cosets(group, sub):
    """Cosets by a walk over all of G: (least member, coset), by least member."""
    seen = set()
    out = []
    for a in group.elements():
        if a in seen:
            continue
        coset = frozenset(group.add(a, n) for n in sub.elements)
        seen |= coset
        out.append((min(coset), coset))
    out.sort(key=lambda pair: pair[0])
    return out


def ref_symmetric_structure_failures(family, m):
    """The negation and coset-balance failures of the seed conditions, on
    tuples; the negation witness is the least element of the first block
    whose negative is missing."""
    group, N = family.ambient, family.forbidden
    blocks = [b.elements for b in family.blocks]

    def escapes(block):
        return sorted(a for a in block if group.neg(a) not in block)

    failures = []
    if escapes(blocks[0]) and escapes(blocks[1]):
        failures.append(
            f"neither block is negation-closed (first fails at {escapes(blocks[0])[0]})"
        )
    for i, block in enumerate(blocks):
        hits = len(block & N.elements)
        if hits:
            failures.append(f"block {i} meets N in {hits} points, need 0")
    for rep, coset in ref_cosets(group, N)[1:]:
        bad = [i for i, block in enumerate(blocks) if len(block & coset) != m // 4]
        if bad:
            got = len(blocks[bad[0]] & coset)
            failures.append(f"block {bad[0]} meets coset of {rep} in {got} points, need {m // 4}")
            break
    return failures


def _ref_first(mask):
    return int(mask.argmax()) if mask.any() else None


def ref_verify(family):
    """The per-family verifier: one family's reference counts read with one
    membership mask, every verdict, message and witness as ``verify`` gives."""
    group, forbidden = family.ambient, family.forbidden
    totals = ref_difference_totals(family)
    counts = totals[1:]
    in_n = np.zeros(group.order, dtype=bool)
    in_n[forbidden.codes] = True
    in_n = in_n[1:]
    out_n = ~in_n
    lam_at, mu_at = _ref_first(in_n), _ref_first(out_n)
    lam = None if lam_at is None else int(counts[lam_at])
    mu = None if mu_at is None else int(counts[mu_at])
    first_off = []
    for region, name, value in ((in_n, "lambda", lam), (out_n, "mu", mu)):
        if value is not None:
            at = _ref_first(region & (counts != value))
            if at is not None:
                first_off.append((at, f"{name}={value}"))
    witness = None
    if first_off:
        at, expected = min(first_off)
        witness = (group.element(at + 1), int(counts[at]), expected)
    sizes = family.sizes()
    degenerate = sum(1 for k in sizes if k <= 1)
    ok = witness is None
    message = ""
    if not ok:
        message = "difference counts are not two-valued"
    elif family.declared is not None:
        decl = family.declared
        if decl.lam is not None and lam is not None and forbidden.order > 1 and decl.lam != lam:
            ok, message = False, f"declared lambda={decl.lam}, realized {lam}"
        if decl.mu is not None and mu is not None and decl.mu != mu:
            ok, message = False, f"declared mu={decl.mu}, realized {mu}"
        if tuple(sorted(decl.sizes)) != sizes:
            ok, message = False, f"declared K={sorted(decl.sizes)}, realized {list(sizes)}"
    if ok:
        realized = DesignParams(lam if forbidden.order > 1 else None, mu, sizes)
        if not realized.counting_identity_holds(group.order, forbidden.order):
            ok, message = False, "counting identity violated"
    if ok and degenerate:
        message = f"{degenerate} block(s) of size <= 1 contribute no differences"
    return designs.VerificationReport(
        ok, lam if forbidden.order > 1 else None, mu, sizes, message, witness, degenerate, totals
    )


def ref_check_symmetric_conditions(family, m=None):
    """The per-family seed-condition check: the shape, ``ref_verify``'s
    verdict, then the tuple walk of the blocks, as
    (ok, m, failures, lam, mu, sizes, block_order)."""
    group, N = family.ambient, family.forbidden
    m = 2 * N.order if m is None else m
    failures = []
    if m % 4 != 0:
        failures.append(f"m={m} is not divisible by 4")
    if 2 * N.order != m:
        failures.append(f"|N|={N.order}, need m/2={m // 2}")
    if group.order != m * (m - 1) // 2:
        failures.append(f"|G|={group.order}, need m(m-1)/2={m * (m - 1) // 2}")
    if len(family.blocks) != 2:
        failures.append(f"need 2 blocks, got {len(family.blocks)}")
    if failures:
        return (False, m, failures, None, None, (), (0, 1))
    report = ref_verify(family)
    if not report.ok:
        failures.append(f"family does not verify: {report.summary()}")
    k, lam, mu = m * (m - 2) // 4, m * (m - 4) // 4, m * (m - 3) // 4
    if report.sizes != (k, k):
        failures.append(f"sizes {list(report.sizes)}, need [{k},{k}]")
    if report.ok and (report.lam != lam or report.mu != mu):
        failures.append(f"frequencies ({report.lam},{report.mu}), need ({lam},{mu})")
    failures += ref_symmetric_structure_failures(family, m)
    closed = [all(group.neg(a) in b.elements for a in b.elements) for b in family.blocks]
    block_order = (1, 0) if not closed[0] and closed[1] else (0, 1)
    return (not failures, m, failures, report.lam, report.mu, report.sizes, block_order)


def ref_block_symmetry(result):
    """(ok, closed, free, coset_counts, witness) by a first-coordinate scan of G per coset."""
    group = result.family.ambient
    n = result.data.ring.n
    d1, d2 = (b.elements for b in result.family.blocks)
    d1_closed = all(group.neg(a) in d1 for a in d1)
    d2_free = all(group.neg(a) not in d2 for a in d2)
    witness = None
    if not d1_closed:
        witness = "negation escapes the first block"
    elif not d2_free:
        witness = "negation collides inside the second block"
    coset_counts = {}
    for j in range(2**n - 1):
        coset = {e for e in group.elements() if e[0] == j}
        c1, c2 = len(d1 & coset), len(d2 & coset)
        coset_counts[j] = (c1, c2)
        want = 0 if j == 0 else 2 ** (n - 2)
        if (c1, c2) != (want, want) and witness is None:
            witness = f"coset {j} meets the blocks {c1}/{c2} times, expected {want}"
    return witness is None, d1_closed, d2_free, coset_counts, witness


def ref_coset_structure(spec):
    group = spec.group
    outside = [cs for _, cs in ref_cosets(group, spec.forbidden)[1:]]
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
    forbidden = spec.forbidden.elements
    targets = {d: (lam if d in forbidden else mu) for d in group.elements() if d != group.zero()}
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

    if any(c > targets.get(d, 0) for d, c in base_counts.items()):
        return  # no block completes a base that already overshoots: no node spent
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
# Rows per block of the assemblies: single rows, blocks that split a group
# unevenly, and the library's own tile.
TILES = [1, 3, 7, hadamard._TILE_ROWS]


def random_family(data, group, max_blocks=3, max_size=8):
    elems = list(group.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
    blocks = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=max_blocks))):
        size = data.draw(st.integers(min_value=0, max_value=min(max_size, group.order)))
        blocks.append(Block.from_elements(group, frozenset(data.draw(st.permutations(elems))[:size])))
    return DifferenceFamily(group, subgroup_generated(group, gens), blocks)


def same_sized_family(data, family):
    """A random family in the family's group with blocks of its block sizes,
    so the stacked oracle stacks their blocks together."""
    group = family.ambient
    elems = list(group.elements())
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=2))
    blocks = [
        Block.from_elements(group, frozenset(data.draw(st.permutations(elems))[: block.size]))
        for block in family.blocks
    ]
    return DifferenceFamily(group, subgroup_generated(group, gens), blocks)


def report_fields(report):
    return (report.ok, report.lam, report.mu, report.sizes, report.message, report.witness)


def with_reference_oracle(family):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            designs,
            "stacked_difference_totals",
            lambda families: np.stack([ref_difference_totals(f) for f in families]),
        )
        return verify(family)


def oracle_settings(moduli, k, chunks):
    """(plan, scatter chunk keys) pairs: the scatter kernel at every split
    and at chunks of each of ``chunks`` rows of k pairs, the dense kernel at
    every split, and the plan the cost model picks (None)."""
    leads = range(len(moduli) + 1)
    scatter = [((lead, False), rows * k) for lead in leads for rows in chunks]
    return [*scatter, *(((lead, True), k) for lead in leads), (None, designs._ORACLE_KEYS)]


def at_each_oracle_setting(settings, run):
    """``run()`` at each of ``oracle_settings``, with int32 and int64 codes."""
    out = []
    for plan, keys in settings:
        for code_order in (groups.INT32_CODE_ORDER, 0):  # 0 forces int64 codes
            with pytest.MonkeyPatch.context() as mp:
                if plan is not None:
                    mp.setattr(designs, "_oracle_plan", lambda *args, plan=plan: plan)
                mp.setattr(designs, "_ORACLE_KEYS", keys)
                mp.setattr(groups, "INT32_CODE_ORDER", code_order)
                out.append(run())
    return out


def oracle_runs(family, settings):
    """(counts, report) at each oracle setting, with int32 and int64 codes."""
    return at_each_oracle_setting(settings, lambda: (difference_table(family), verify(family)))


def stacked_runs(stack, settings):
    """The stacked oracle's rows, as lists, at each oracle setting, with
    int32 and int64 codes."""
    return at_each_oracle_setting(
        settings, lambda: designs.stacked_difference_totals(stack).tolist()
    )


def planned(run):
    """``run()`` and the (lead, dense) plan of each stack it sent to the oracle."""
    plans = []
    choose = designs._oracle_plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_oracle_plan", lambda *args: plans.append(choose(*args)) or plans[-1])
        return run(), plans


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
    # a Python-int operand on either side
    y0 = int(cy[0])
    assert [g.element(int(c)) for c in g.code_sub(y0, cx)] == [g.sub(ys[0], x) for x in xs]
    assert [g.element(int(c)) for c in g.code_add(cx, y0)] == [g.add(x, ys[0]) for x in xs]
    # the 3-D broadcast of search._least_translates: shifts against rows of codes
    rows = np.stack([cx, cx[::-1]])
    translates = g.code_add(cy[:, None], rows[:, None, :])
    assert translates.shape == (2, len(ys), len(xs))
    for r, row in enumerate(rows.tolist()):
        for s, y in enumerate(ys):
            assert [g.element(int(c)) for c in translates[r, s]] == [
                g.add(y, g.element(c)) for c in row
            ]
    # int64 codes: the same moduli beside two large ones, order above 2^30,
    # elements drawn coordinate by coordinate, never enumerated
    big = FiniteAbelianGroup([*moduli, 40009, 30011])
    assert big.order > groups.INT32_CODE_ORDER and big.code_dtype == np.int64
    residues = st.tuples(*(st.integers(0, m - 1) for m in big.moduli))
    bx = data.draw(st.lists(residues, min_size=1, max_size=6))
    by = data.draw(st.lists(residues, min_size=1, max_size=6))
    ex, ey = big.encode(bx), big.encode(by)
    big_diff = big.code_sub(ex[:, None], ey[None, :])
    big_sums = big.code_add(ex[:, None], ey[None, :])
    assert big_diff.dtype == big_sums.dtype == np.int64
    for i, x in enumerate(bx):
        for j, y in enumerate(by):
            assert big.element(int(big_diff[i, j])) == big.sub(x, y)
            assert big.element(int(big_sums[i, j])) == big.add(x, y)
    assert [big.element(int(c)) for c in big.code_sub(0, ex)] == [big.neg(x) for x in bx]


def sign_tables(data, group, count):
    """``count`` random int8 +-1 tables indexed by the group's codes."""
    signs = st.lists(st.sampled_from([-1, 1]), min_size=group.order, max_size=group.order)
    return [np.array(data.draw(signs), dtype=np.int8) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(moduli_lists, st.sampled_from(TILES), st.data())
def test_cayley_rows_match_code_arithmetic_on_every_row_block(moduli, tile, data):
    # each row block the assemblies develop, and rows in any order, against
    # code_sub and code_add of the row codes against every code, and each
    # developed block, kept and negated, against fancy indexing at those codes
    g = FiniteAbelianGroup(moduli)
    every = np.arange(g.order, dtype=g.code_dtype)
    (table,) = sign_tables(data, g, 1)
    blocks = [every[start : start + tile] for start in range(0, g.order, tile)]
    picked = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=8))
    for op, combine in ((np.subtract, g.code_sub), (np.add, g.code_add)):
        for i in blocks + [np.array(picked, dtype=g.code_dtype)]:
            want = combine(i[:, None], every[None, :])
            got = g.cayley_rows(i, op)
            assert got.dtype == g.code_dtype and np.array_equal(got, want)
        M, asked, cayley_rows = np.zeros((g.order, 2 * g.order), dtype=np.int8), [], g.cayley_rows

        def spy(group, rows, row_op):
            asked.append((rows.copy(), row_op))
            return cayley_rows(rows, row_op)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hadamard, "_TILE_ROWS", tile)
            mp.setattr(FiniteAbelianGroup, "cayley_rows", spy)
            hadamard._develop(M, 0, g, g.weights, [[(op, table, 1), (op, table, -1)]])
        # one code build per block of rows, the blocks covering every row once
        assert [(i.tolist(), row_op) for i, row_op in asked] == [(i.tolist(), op) for i in blocks]
        want = table[combine(every[:, None], every[None, :])]
        assert np.array_equal(M[:, : g.order], want) and np.array_equal(M[:, g.order :], -want)


@settings(max_examples=100, deadline=None)
@given(moduli_lists, st.sampled_from(TILES), st.integers(0, 2), st.sampled_from([1, 2]), st.data())
def test_develop_writes_signed_blocks_and_derives_their_translations(moduli, tile, head, n, data):
    # an n x n grid of cells with random ops, tables and signs after `head`
    # border rows and columns of ones: each block against fancy indexing at
    # code_sub or code_add, the border untouched, and the claims derived
    # from the ops holding, one per generator, with one orbit per block row
    g = FiniteAbelianGroup(moduli)
    v, every = g.order, np.arange(g.order, dtype=g.code_dtype)
    tables = sign_tables(data, g, 2)
    ops = [[data.draw(st.sampled_from([np.subtract, np.add])) for _ in range(n)] for _ in range(n)]
    if n == 2:
        # the last op is forced: a block of i - j moves its rows and columns
        # by the same multiple of g, a block of i + j by opposite ones
        turn = {np.subtract: 1, np.add: -1}
        ops[1][1] = np.subtract if turn[ops[0][0]] * turn[ops[0][1]] * turn[ops[1][0]] == 1 else np.add
    picks = [[(data.draw(st.integers(0, 1)), data.draw(st.sampled_from([-1, 1]))) for _ in range(n)] for _ in range(n)]
    layout = [[(ops[b][c], tables[t], sign) for c, (t, sign) in enumerate(row)] for b, row in enumerate(picks)]
    M = np.ones((head + n * v, head + n * v), dtype=np.int8)
    M[head:, head:] = 0
    # the radix weights of the coordinates that are not Z_1 generate G
    gens = [w for modulus, w in zip(g.moduli, g.weights) if modulus > 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hadamard, "_TILE_ROWS", tile)
        claims = hadamard._develop(M, head, g, gens, layout)
    for b, c in itertools.product(range(n), repeat=2):
        op, table, sign = layout[b][c]
        combine = g.code_sub if op is np.subtract else g.code_add
        block = M[head + b * v : head + (b + 1) * v, head + c * v : head + (c + 1) * v]
        assert np.array_equal(block, sign * table[combine(every[:, None], every[None, :])]), (b, c)
    assert (M[:head] == 1).all() and (M[:, :head] == 1).all()
    assert len(claims) == len(gens)
    assert hadamard._orbit_leasts(M, claims).size == head + n


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4), st.data())
def test_oracle_matches_reference_at_every_chunk_size(moduli, data):
    # both kernels at every split, and the scatter kernel at chunk sizes
    # between 1 row and the whole block; stacked with 1-2 families of the
    # same block sizes, a chunk holds rows of several families and so does
    # the span between two dense flushes
    g = FiniteAbelianGroup(moduli)
    fam = random_family(data, g, max_blocks=4, max_size=16)
    stack = [fam] + [same_sized_family(data, fam) for _ in range(data.draw(st.integers(1, 2)))]
    k = max(1, max(b.size for b in fam.blocks))
    chunks = sorted({1, max(1, k // 3), max(1, k // 2), k, k + 1, 2 * k + 1})
    settings = oracle_settings(moduli, k, chunks)
    want = ref_difference_table(fam)
    want_report = report_fields(with_reference_oracle(fam))
    want_totals = ref_difference_totals(fam).tolist()
    for table, report in oracle_runs(fam, settings):
        assert table == want
        assert report_fields(report) == want_report
        assert report.totals.tolist() == want_totals
    want_stack = [ref_difference_totals(f).tolist() for f in stack]
    for rows in stacked_runs(stack, settings):
        assert rows == want_stack


def _paley_family(p):
    g = FiniteAbelianGroup((p,))
    squares = frozenset(((x * x) % p,) for x in range(1, p))
    return DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, squares)])


def test_oracle_negative_controls_match_reference():
    rng = random.Random(7)
    families = [_paley_family(83), galois_ring_ddf(RingCtx(3)).family]
    for fam in families:
        for _ in range(3):
            block = fam.blocks[rng.randrange(len(fam.blocks))]
            drop = rng.choice(sorted(block.elements))
            add = rng.choice(sorted(set(fam.ambient.elements()) - block.elements))
            broken = Block.from_elements(fam.ambient, (block.elements - {drop}) | {add})
            bad = DifferenceFamily(
                fam.ambient,
                fam.forbidden,
                [broken if b is block else b for b in fam.blocks],
                fam.declared,
            )
            want = report_fields(with_reference_oracle(bad))
            assert not want[0] and want[5] is not None
            k = block.size
            settings = oracle_settings(fam.ambient.moduli, k, (1, k, k + 1))
            for table, report in oracle_runs(bad, settings):
                assert table == ref_difference_table(bad)
                assert report_fields(report) == want
        k = max(b.size for b in fam.blocks)
        settings = oracle_settings(fam.ambient.moduli, k, (1, 64))
        assert all(report.ok for _, report in oracle_runs(fam, settings))


@pytest.mark.parametrize(
    "moduli, k",
    [
        ((7,), 4),
        ((2, 3), 5),
        ((1, 5, 2), 6),
        ((6, 7), 12),
        ((4, 1, 3, 2), 11),
        ((3, 1, 7, 5, 2), 42),
    ],
)
def test_oracle_matches_reference_at_every_split(moduli, k):
    # both kernels at every split, the scatter kernel at every chunk size
    # from 1 row to the whole block; empty and 1-point blocks ride along.
    # Three such families stacked put the rows of two families into one
    # scatter chunk and between two dense flushes
    g = FiniteAbelianGroup(moduli)
    rng = random.Random(f"splits/{moduli}")
    elems = list(g.elements())

    def family():
        blocks = [Block.from_elements(g, frozenset(rng.sample(elems, size))) for size in (k, 0, 1, k - 1)]
        return DifferenceFamily(g, subgroup_generated(g, [rng.choice(elems)]), blocks)

    stack = [family() for _ in range(3)]
    fam = stack[0]
    want = ref_difference_table(fam)
    want_report = report_fields(with_reference_oracle(fam))
    chunks = range(1, k + 2)
    for table, report in oracle_runs(fam, oracle_settings(moduli, k, chunks)):
        assert table == want
        assert report_fields(report) == want_report
    want_stack = [ref_difference_totals(f).tolist() for f in stack]
    for rows in stacked_runs(stack, oracle_settings(moduli, k, [*chunks, 2 * k + 1])):
        assert rows == want_stack


def test_stacked_oracle_on_a_large_cyclic_group():
    # Z_10007 stays unpadded at these sizes: the cost model scatters every
    # family's keys straight into its row of the totals
    g = FiniteAbelianGroup((10007,))
    rng = random.Random("z10007")

    def family():
        blocks = [
            Block.from_elements(g, frozenset((x,) for x in rng.sample(range(g.order), size)))
            for size in (5, 0, 5, 1, 4)
        ]
        return DifferenceFamily(g, Subgroup.trivial(g), blocks)

    stack = [family() for _ in range(3)]
    _, plans = planned(lambda: designs.stacked_difference_totals(stack))
    assert plans == [(1, False), (1, False)]
    want = [ref_difference_totals(f).tolist() for f in stack]
    for rows in stacked_runs(stack, oracle_settings(g.moduli, 5, range(1, 12))):
        assert rows == want


def _twin_prime_family():
    p, q = 59, 61
    g = FiniteAbelianGroup((p, q))

    def chi(x, n):
        return 0 if x % n == 0 else (1 if pow(x, (n - 1) // 2, n) == 1 else -1)

    points = [(x, 0) for x in range(p)]
    points += [(x, y) for x in range(1, p) for y in range(1, q) if chi(x, p) == chi(y, q)]
    return DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, points)])


def _z4_5_family():
    g = FiniteAbelianGroup((4,) * 5)
    rng = random.Random("z4^5")
    return DifferenceFamily(g, Subgroup.trivial(g), [Block(g, rng.sample(range(g.order), 496))])


def _m8_stack():
    """32 families of two 12-point blocks in Z_7 x Z_2^2, as a search replays them."""
    g = FiniteAbelianGroup((7, 2, 2))
    rng = random.Random("m8 stack")
    blocks = [Block(g, rng.sample(range(g.order), 12)) for _ in range(64)]
    return [DifferenceFamily(g, Subgroup.trivial(g), blocks[i : i + 2]) for i in range(0, 64, 2)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: [_paley_family(8191)],
        lambda: [_twin_prime_family()],
        lambda: [_bent_family()],
        lambda: [_z4_5_family()],
        _m8_stack,
    ],
    ids=["Z_8191", "Z_59xZ_61", "Z_2^12", "Z_4^5", "Z_7xZ_2^2"],
)
def test_dense_kernel_matches_reference_at_every_trailing_split(build):
    stack = build()
    g = stack[0].ambient
    want = [ref_difference_totals(f).tolist() for f in stack]
    settings = [((lead, True), 1) for lead in range(len(g.moduli) + 1)]
    for rows in stacked_runs(stack, settings):
        assert rows == want


@pytest.mark.parametrize("moduli", [(600,), (4, 4, 4, 4, 4), (5, 1, 60)])
def test_dense_counts_cross_the_flush_exactly(moduli):
    # the whole group as one block: every nonzero difference counts |G|
    # pairs, more than the 255 a uint8 count holds between flushes
    g = FiniteAbelianGroup(moduli)
    fam = DifferenceFamily(g, Subgroup.trivial(g), [Block(g, range(g.order))])
    want = [[0] + [g.order] * (g.order - 1)]
    assert [ref_difference_totals(fam).tolist()] == want
    settings = [((lead, True), 1) for lead in range(len(moduli) + 1)]
    for rows in stacked_runs([fam, fam], settings):
        assert rows == want * 2


def test_tier1_families_reach_both_kernels(m8_certificates):
    # Paley's 4095-point block goes to the dense kernel, every point padded;
    # the m=8 search's 12-point blocks go to the scatter kernel
    report, plans = planned(lambda: verify(_paley_family(8191)))
    assert report.ok and plans == [(0, True)]
    # certificates read back from JSON carry no verdict, so the replay counts
    loaded = [search.Certificate.from_json(cert.to_json()) for cert in m8_certificates]
    replayed, plans = planned(lambda: search.replay_certificates(loaded))
    assert all(replayed) and len(plans) == 1 and not plans[0][1]


def chunked_code_totals(family, rows=128):
    """The former oracle: 128 rows of whole-code differences per bincount."""
    group = family.ambient
    totals = np.zeros(group.order, dtype=np.int64)
    for block in family.blocks:
        if block.size < 2:
            continue
        codes = block.codes
        for start in range(0, block.size, rows):
            diffs = group.code_sub(codes[start : start + rows, None], codes[None, :])
            counts = np.bincount(diffs.ravel())
            totals[: counts.size] += counts
        totals[0] -= block.size
    return totals


def traced_peak(oracle, family):
    """(totals, traced peak bytes) of one oracle run, block codes cached."""
    oracle(family)
    tracemalloc.start()
    try:
        totals = oracle(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return totals, peak


def _bent_family():
    g = FiniteAbelianGroup((2,) * 12)
    bent = frozenset(
        x for x in g.elements() if sum(x[i] * x[i + 1] for i in range(0, 12, 2)) % 2
    )
    return DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, bent)])


def _z2_20_family():
    g = FiniteAbelianGroup((2,) * 20)
    rng = random.Random(20)
    points = set()
    while len(points) < 50:
        points.add(tuple(rng.randrange(2) for _ in range(20)))
    return DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, frozenset(points))])


@pytest.mark.parametrize(
    "build, plan",
    [
        (lambda: _paley_family(8191), (0, True)),  # dense, all padded: 16381 bins
        (_bent_family, (5, True)),  # dense, the last 7 coordinates padded: 2^5 * 3^7 bins
        (_z2_20_family, (20, False)),  # scatter, nothing padded: |G| bins already
    ],
    ids=["paley-dense-0", "bent-dense-5", "z2_20-scatter-20"],
)
def test_oracle_peak_stays_within_the_former_oracle(build, plan):
    fam = build()
    (block,) = fam.blocks
    assert planned(lambda: designs.difference_totals(fam))[1] == [plan]
    want, former = traced_peak(chunked_code_totals, fam)
    got, peak = traced_peak(designs.difference_totals, fam)
    assert np.array_equal(got, want)
    assert peak <= former
    if plan[0] == 0:
        assert former < 6.5 * 2**20  # 6.2 MiB for Paley's 4095 x 128 chunk


def test_fold_relabels_each_slot_to_its_residue():
    # slot v of modulus m holds a - b + m - 1: the bins v and v + m (v < m - 1)
    # are one residue, v - (m - 1)
    for moduli in ((1,), (2,), (5,), (3, 4), (2, 1, 3)):
        g = FiniteAbelianGroup(moduli)
        padded = np.zeros((1, *(2 * m - 1 for m in moduli)), dtype=np.int32)
        want = np.zeros(g.order, dtype=np.int64)
        for a in g.elements():
            for b in g.elements():
                padded[(0, *(x - y + m - 1 for x, y, m in zip(a, b, moduli)))] += 1
                want[g.index(g.sub(a, b))] += 1
        folded = designs._fold(padded, moduli)
        assert folded.shape == (1, *moduli)
        assert folded.ravel().tolist() == want.tolist()


# ---------------------------------------------------------------------------
# row-block assembly against the index-table assembly
# ---------------------------------------------------------------------------


def ref_signs(group, elements, table):
    """+-1 incidence, entry by entry, of a table of ranks in a set of elements."""
    member = np.zeros(group.order, dtype=np.int64)
    member[[group.index(e) for e in elements]] = 1
    return 2 * member[table] - 1


def ref_skew_matrix(family):
    """The bordered skew array through whole index tables and ``np.block``."""
    g = family.ambient
    v = g.order
    _, diff, sums, _ = ref_index_tables(g)
    blocks = [b.elements for b in family.blocks]
    s = next(i for i, b in enumerate(blocks) if not any(g.neg(x) in b for x in b))
    A = ref_signs(g, blocks[s] | {g.zero()}, diff)
    B = ref_signs(g, blocks[1 - s], sums)
    e = np.ones((v, 1), dtype=np.int64)
    one = np.ones((1, 1), dtype=np.int64)
    return np.block([[one, one, e.T, -e.T], [-one, one, e.T, e.T], [-e, -e, A, B], [e, -e, -B, A]])


def ref_symmetric_parts(family, assignment):
    """H1, H2, A', B', C, n_in through whole index tables and the coset walk."""
    g, N = family.ambient, family.forbidden
    _, diff, sums, neg = ref_index_tables(g)
    m = 2 * N.order
    coset_of = np.zeros(g.order, dtype=np.int64)
    for number, (_, coset) in enumerate(ref_cosets(g, N)):
        coset_of[[g.index(x) for x in coset]] = number
    Hp = hadamard.normalize(hadamard.sylvester(m.bit_length() - 1)).entries[1:].astype(np.int64)
    H1 = Hp[np.asarray(assignment)[coset_of]]
    blocks = [b.elements for b in family.blocks]
    first = next(i for i, b in enumerate(blocks) if all(g.neg(x) in b for x in b))
    in_N = (coset_of == 0).astype(np.int64)
    return {
        "H1": H1,
        "H2": -H1[neg],
        "Ap": ref_signs(g, blocks[first], diff),
        "Bp": ref_signs(g, blocks[1 - first], sums),
        "C": in_N[sums],
        "n_in": in_N[diff],
    }


def ref_symmetric_matrix(family, assignment):
    p = ref_symmetric_parts(family, assignment)
    m = 2 * family.forbidden.order
    J = np.ones((m, m), dtype=np.int64)
    return np.block(
        [
            [-J, p["H1"].T, p["H2"].T],
            [p["H1"], p["Bp"], p["Ap"]],
            [p["H2"], p["Ap"], -p["Bp"] - 2 * p["C"]],
        ]
    )


def ref_difference_set_matrix(family):
    g = family.ambient
    _, diff, _, _ = ref_index_tables(g)
    return ref_signs(g, family.blocks[0].elements, diff)


def transported(family, moduli):
    """A family carried onto an isomorphic group by splitting its first
    cyclic factor into factors of the given coprime moduli (x mod m, ...)."""
    target = FiniteAbelianGroup(tuple(moduli) + family.ambient.moduli[1:])

    def image(x):
        return tuple(x[0] % m for m in moduli) + x[1:]

    blocks = [Block.from_elements(target, frozenset(map(image, b.elements))) for b in family.blocks]
    N = Subgroup.from_elements(target, [image(x) for x in family.forbidden.elements])
    return DifferenceFamily(target, N, blocks)


def z6_family():
    g = FiniteAbelianGroup((6,))
    blocks = [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (2,)}))]
    return DifferenceFamily(g, Subgroup.from_elements(g, [(0,), (3,)]), blocks)


def product_difference_set(g1, d1, g2, d2):
    """The Menon set of the Kronecker product: x in it iff x1 in d1 and x2
    in d2 or neither is, in G1 x G2."""
    g = FiniteAbelianGroup(g1.moduli + g2.moduli)
    dims = len(g1.moduli)
    points = frozenset(x for x in g.elements() if (x[:dims] in d1) == (x[dims:] in d2))
    return DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, points)])


@pytest.mark.parametrize("tile", TILES)
def test_skew_assembly_matches_index_tables(tile, monkeypatch):
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    for q, moduli in ((19, (9,)), (31, (3, 5)), (31, (5, 3)), (43, (7, 3))):
        family = transported(szekeres_family(FieldCtx(q)).family, moduli)
        got = hadamard.skew_from_df(family).matrix.entries
        assert np.array_equal(got, ref_skew_matrix(family)), (q, moduli)


@pytest.mark.parametrize("tile", TILES)
def test_symmetric_assembly_matches_index_tables(tile, monkeypatch):
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    families = [
        transported(z6_family(), (2, 3)),
        transported(z6_family(), (3, 2)),
        galois_ring_ddf(RingCtx(3)).family,  # Z_7 x Z_2^3
        transported(galois_ring_ddf(RingCtx(4)).family, (5, 3)),  # Z_5 x Z_3 x Z_2^4
    ]
    for family, seed in itertools.product(families, (None, 5)):
        result = hadamard.symmetric_from_ddf(family, coset_assignment=seed)
        assignment = result.matrix.provenance["assignment"]
        assert np.array_equal(result.matrix.entries, ref_symmetric_matrix(family, assignment))
        parts = hadamard.build_symmetric_parts(family, coset_assignment=seed)
        for name, want in ref_symmetric_parts(family, assignment).items():
            got = getattr(parts, name)
            assert got.dtype == np.int8 and np.array_equal(got, want), name


@pytest.mark.parametrize("tile", TILES)
def test_difference_set_assembly_matches_index_tables(tile, monkeypatch):
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    z4, z2z2 = FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2))
    gr42 = galois_ring_data(RingCtx(2))
    z4z4 = RingCtx(2).additive_group()
    families = [
        product_difference_set(z4, {(0,)}, z2z2, {(0, 0)}),  # Z_4 x Z_2^2
        product_difference_set(z2z2, {(0, 0)}, z4, {(0,)}),  # Z_2^2 x Z_4
        product_difference_set(z2z2, {(0, 0)}, z4z4, set(z4z4.decode_elements(gr42.D))),
    ]
    for family in families:
        got = hadamard.hadamard_from_difference_set(family)
        assert got.labels == list(family.ambient.elements())
        assert np.array_equal(got.entries, ref_difference_set_matrix(family))


@settings(max_examples=60, deadline=None)
@given(moduli_lists, st.sampled_from(TILES), st.data())
def test_difference_set_rows_match_index_tables_on_any_block(moduli, tile, data):
    # any block, with the gate passed, so the assembly alone is compared
    g = FiniteAbelianGroup(moduli)
    points = data.draw(st.frozensets(st.sampled_from(list(g.elements())), min_size=1))
    family = DifferenceFamily(g, Subgroup.trivial(g), [Block.from_elements(g, points)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hadamard, "_TILE_ROWS", tile)
        mp.setattr(hadamard, "is_hadamard", lambda M, symmetries=(): True)
        got = hadamard.hadamard_from_difference_set(family).entries
    assert np.array_equal(got, ref_difference_set_matrix(family))


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


@st.composite
def groups_with_subgroups(draw):
    g = FiniteAbelianGroup(draw(moduli_lists))
    kind = draw(st.sampled_from(["trivial", "generated", "whole"]))
    if kind == "trivial":
        return g, Subgroup.trivial(g)
    if kind == "whole":
        return g, Subgroup.whole(g)
    gens = draw(st.lists(st.sampled_from(list(g.elements())), max_size=3))
    return g, subgroup_generated(g, gens)


@settings(max_examples=120, deadline=None)
@given(groups_with_subgroups())
def test_coset_index_matches_the_tuple_walk(group_and_sub):
    g, n = group_and_sub
    ref = ref_cosets(g, n)
    assert cosets(g, n) == ref
    number = {x: j for j, (_, coset) in enumerate(ref) for x in coset}
    index = n.coset_index()
    assert index.tolist() == [number[e] for e in g.elements()]
    assert not index.flags.writeable and n.coset_index() is index
    assert n.codes.tolist() == sorted(g.index(e) for e in n.elements)
    spec = SearchSpec(group=g, forbidden=n, m=4)
    assert search._CodeTables(spec).outside == [
        sorted(g.index(e) for e in coset) for _, coset in ref[1:]
    ]


@settings(max_examples=100, deadline=None)
@given(moduli_lists, st.data())
def test_negation_check_matches_tuple_negation(moduli, data):
    g = FiniteAbelianGroup(moduli)
    elems = sorted(data.draw(st.sets(st.sampled_from(list(g.elements())))))
    block = frozenset(elems)
    got = g.negatives_in(g.encode(elems)).tolist()
    assert got == [g.neg(x) in block for x in elems]


def test_loading_a_subgroup_builds_no_coset_index():
    g = FiniteAbelianGroup((1 << 12, 1 << 12))
    n = Subgroup.from_elements(g, [(0, 0), (0, 1 << 11)])
    fam = DifferenceFamily(g, n, [Block.from_elements(g, frozenset({(1, 0), (2, 0), (4, 0)}))])
    verify(fam)
    assert n._coset_index is None


def _z6_family():
    g = FiniteAbelianGroup((6,))
    n = Subgroup.from_elements(g, [(0,), (3,)])
    return DifferenceFamily(
        g, n, [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (2,)}))]
    )


def _replace_point(family, i, old, new):
    blocks = list(family.blocks)
    blocks[i] = Block.from_elements(family.ambient, (blocks[i].elements - {old}) | {new})
    return DifferenceFamily(family.ambient, family.forbidden, blocks)


def _structure_failures(family, m=None):
    report = check_symmetric_conditions(family, m)
    return [f for f in report.failures if f.startswith(("neither", "block "))]


def _seed_families():
    return [(_z6_family(), 4), (galois_ring_ddf(RingCtx(3)).family, 8)]


def test_seed_condition_failures_match_the_tuple_reference():
    rng = random.Random(11)
    for fam, m in _seed_families():
        g, n = fam.ambient, fam.forbidden
        assert _structure_failures(fam) == ref_symmetric_structure_failures(fam, m) == []
        first, second = (sorted(b.elements) for b in fam.blocks)
        rep_of = {x: rep for rep, coset in ref_cosets(g, n) for x in coset}
        other_coset = min(
            x for x in g.elements()
            if rep_of[x] not in (g.zero(), rep_of[second[0]]) and x not in second
        )
        same_coset = max(
            x for x in g.elements() if rep_of[x] == rep_of[first[-1]] and x not in first
        )
        perturbed = {
            "into N": _replace_point(fam, 0, rng.choice(first), max(n.elements)),
            "unbalanced": _replace_point(fam, 1, second[0], other_coset),
            # the first block loses its negation symmetry, the second never had it
            "neither closed": _replace_point(fam, 0, first[-1], same_coset),
            "both skew": DifferenceFamily(g, n, [fam.blocks[1], fam.blocks[1]]),
        }
        for name, bad in perturbed.items():
            got = _structure_failures(bad)
            assert got == ref_symmetric_structure_failures(bad, m), name
            assert got, name
        for _ in range(20):
            i = rng.randrange(2)
            block = sorted(fam.blocks[i].elements)
            bad = _replace_point(
                fam, i, rng.choice(block), rng.choice(sorted(set(g.elements()) - set(block)))
            )
            assert _structure_failures(bad) == ref_symmetric_structure_failures(bad, m)


def test_negation_witness_is_the_least_offending_element():
    fam = galois_ring_ddf(RingCtx(3)).family
    g = fam.ambient
    bad = DifferenceFamily(g, fam.forbidden, [fam.blocks[1], fam.blocks[1]])
    least = min(a for a in fam.blocks[1].elements if g.neg(a) not in fam.blocks[1].elements)
    assert f"(first fails at {least})" in check_symmetric_conditions(bad).summary()


@pytest.fixture(scope="module")
def m8_certificates():
    """The full exhaustive m=8 certificate set: 1152 families in Z_7 x Z_2^2."""
    g = FiniteAbelianGroup((7, 2, 2))
    n = Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)])
    return search.search_ddf(SearchSpec(group=g, forbidden=n, m=8))


def _batch_matches_the_per_family_reference(families, m=None):
    """``check_symmetric_conditions_batch`` and ``verify_batch`` against the
    per-family references, family by family; the reference reports."""
    want = [ref_check_symmetric_conditions(f, m) for f in families]
    got = hadamard.check_symmetric_conditions_batch(families, m)
    assert [
        (r.ok, r.m, r.failures, r.lam, r.mu, r.sizes, r.block_order) for r in got
    ] == want
    for family, report in zip(families, designs.verify_batch(families)):
        ref = ref_verify(family)
        assert (*report_fields(report), report.degenerate_blocks) == (
            *report_fields(ref), ref.degenerate_blocks
        )
        assert np.array_equal(report.totals, ref.totals)
    return want


def test_batched_replay_matches_the_per_family_reference_on_every_m8_certificate(
    m8_certificates,
):
    # copies without the verdicts the search left, so the batch runs the oracle
    families = [dataclasses.replace(cert.family) for cert in m8_certificates]
    assert len(families) == 1152
    want = _batch_matches_the_per_family_reference(families, 8)
    assert all(ok for ok, *_ in want)
    assert search.replay_certificates(m8_certificates) == [True] * 1152


def _m8_mutants(family, rng):
    """One mutant of a qualifying m=8 family per failure kind, each with the
    failure text the reference must report for it."""
    g, n = family.ambient, family.forbidden
    rep_of = {x: rep for rep, coset in ref_cosets(g, n) for x in coset}

    def moved(fam, i, same_coset):
        """``fam`` with a point of block i moved within its coset, or out of it."""
        block = sorted(fam.blocks[i].elements)
        x = rng.choice(block)
        free = [
            y for y in g.elements()
            if y not in block and rep_of[y] != g.zero() and (rep_of[y] == rep_of[x]) == same_coset
        ]
        return _replace_point(fam, i, x, rng.choice(free))

    opened = moved(family, 0, True)  # block 0 loses a negative
    if all(g.neg(a) in opened.blocks[1].elements for a in opened.blocks[1].elements):
        opened = moved(opened, 1, True)
    closed, other = (sorted(b.elements) for b in family.blocks)
    extra = min(set(g.elements()) - set(other) - n.elements)
    k, lam, mu = 12, 8, 10  # m(m-2)/4, m(m-4)/4, m(m-3)/4 at m = 8
    sizes = family.declared.sizes
    return [
        ("swapped element", moved(family, 1, True), "family does not verify"),
        ("not negation-closed", opened, "neither block is negation-closed"),
        ("meets N", _replace_point(family, 0, closed[-1], max(n.elements)), "meets N"),
        ("unbalanced coset", moved(family, 1, False), "meets coset of"),
        ("wrong size",
         DifferenceFamily(g, n, [family.blocks[0], Block.from_elements(g, set(other) | {extra})]),
         f"need [{k},{k}]"),
        ("wrong declared lambda",
         DifferenceFamily(g, n, family.blocks, DesignParams(lam + 1, mu, sizes)),
         f"declared lambda={lam + 1}, realized {lam}"),
        ("wrong declared mu",
         DifferenceFamily(g, n, family.blocks, DesignParams(lam, mu - 1, sizes)),
         f"declared mu={mu - 1}, realized {mu}"),
        ("three blocks", DifferenceFamily(g, n, [*family.blocks, family.blocks[0]]),
         "need 2 blocks, got 3"),
    ]


def test_batched_replay_matches_the_per_family_reference_on_mixed_batches(m8_certificates):
    # qualifying families with one mutant of each failure kind, shuffled:
    # every report must come out as if checked alone
    rng = random.Random(15)
    for trial in range(4):
        good = rng.sample([cert.family for cert in m8_certificates], 12)
        # half of them with the negation-closed block second
        good[::2] = [DifferenceFamily(f.ambient, f.forbidden, f.blocks[::-1], f.declared) for f in good[::2]]
        batch = list(good)
        for family in rng.sample(good, 2):
            for name, mutant, failure in _m8_mutants(family, rng):
                (ok, _, failures, *_) = ref_check_symmetric_conditions(mutant)
                assert not ok and any(failure in f for f in failures), (name, failures)
                batch.append(mutant)
        rng.shuffle(batch)
        want = _batch_matches_the_per_family_reference(batch)
        assert sum(ok for ok, *_ in want) == 12
        assert {order for ok, *_, order in want if ok} == {(0, 1), (1, 0)}
        # the same families at a declared m
        _batch_matches_the_per_family_reference(batch, 8)
        assert not any(ok for ok, *_ in _batch_matches_the_per_family_reference(batch, 12))
        # each alone, as the batch of one
        for family in batch[:6]:
            report = check_symmetric_conditions(family)
            assert (
                report.ok, report.m, report.failures, report.lam, report.mu,
                report.sizes, report.block_order,
            ) == ref_check_symmetric_conditions(family)
    # the Z_6 family, qualifying at m = 4, is a batch of its own
    z6 = _z6_family()
    (ok, *_), = _batch_matches_the_per_family_reference([z6])
    assert ok
    _batch_matches_the_per_family_reference([z6], 8)


def test_batches_across_groups_subgroups_or_m_are_refused(m8_certificates):
    family = m8_certificates[0].family
    other_n = DifferenceFamily(family.ambient, Subgroup.trivial(family.ambient), family.blocks)
    for batch, what in (
        ([family, _z6_family()], "one ambient group"),
        ([_z6_family(), family], "one ambient group"),
        ([family, other_n], "one forbidden subgroup"),
    ):
        for check in (hadamard.check_symmetric_conditions_batch, designs.verify_batch):
            with pytest.raises(ValueError, match=what):
                check(batch)
    with pytest.raises(ValueError, match="one ambient group"):
        designs.stacked_difference_totals([family, _z6_family()])
    cert = m8_certificates[0]
    at_m12 = search.Certificate(
        cert.family, dataclasses.replace(cert.spec, m=12), cert.nodes, cert.seed, cert.elapsed
    )
    with pytest.raises(ValueError, match="one m"):
        search.replay_certificates([cert, at_m12])
    assert search.replay_certificates([]) == []
    assert hadamard.check_symmetric_conditions_batch([]) == designs.verify_batch([]) == []


def test_batched_replay_of_the_m8_set_stays_small(m8_certificates):
    # 1152 families of two 12-point blocks in a group of 28: the stacked
    # totals take 0.25 MiB, and the whole replay under 4 MiB
    search.replay_certificates(m8_certificates)
    tracemalloc.start()
    try:
        assert all(search.replay_certificates(m8_certificates))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def _symmetry_fields(report):
    return (
        report.ok,
        report.d1_negation_closed,
        report.d2_negation_free,
        report.coset_counts,
        report.witness,
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_block_symmetry_report_matches_the_first_coordinate_scan(n):
    res = galois_ring_ddf(RingCtx(n))
    assert _symmetry_fields(block_symmetry_report(res)) == ref_block_symmetry(res)
    assert block_symmetry_report(res).ok


def test_block_symmetry_negation_controls_match_the_scan():
    res = galois_ring_ddf(RingCtx(4))
    fam = res.family
    g = fam.ambient
    d1, d2 = (sorted(b.elements) for b in fam.blocks)
    original = list(fam.blocks)
    # swap a point of the first block for another point of the same coset:
    # the coset counts hold, negation closure breaks
    same_coset = next(e for e in g.elements() if e[0] == d1[0][0] and e not in fam.blocks[0].elements)
    first = Block.from_elements(g, (original[0].elements - {d1[0]}) | {same_coset})
    mutant = dataclasses.replace(res, family=dataclasses.replace(fam, blocks=(first, original[1])))
    rep = block_symmetry_report(mutant)
    assert _symmetry_fields(rep) == ref_block_symmetry(mutant)
    assert not rep.d1_negation_closed and rep.witness == "negation escapes the first block"
    # put a point and its negative into the second block
    second = Block.from_elements(g, (original[1].elements - {d2[0]}) | {g.neg(d2[1])})
    mutant = dataclasses.replace(res, family=dataclasses.replace(fam, blocks=(original[0], second)))
    rep = block_symmetry_report(mutant)
    assert _symmetry_fields(rep) == ref_block_symmetry(mutant)
    assert not rep.d2_negation_free and "collides" in rep.witness


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


@settings(max_examples=20, deadline=None)
@given(st.lists(moduli_lists, min_size=1, max_size=4), st.data())
def test_batched_canonical_forms_match_reference(moduli_per_family, data):
    # several families at once, over different groups and block sizes, so the
    # blocks fall into several stacks
    fams = [random_family(data, FiniteAbelianGroup(moduli)) for moduli in moduli_per_family]
    for symmetries in SYMMETRY_SUBSETS:
        assert search._canonical_forms(fams, symmetries) == [
            ref_canonical_form(fam, symmetries) for fam in fams
        ]


def ref_dedupe(certs, symmetries):
    best = {}
    for cert in certs:
        best.setdefault(ref_canonical_form(cert.family, symmetries), cert)
    return [best[k] for k in sorted(best)]


def test_dedupe_keeps_the_first_certificate_of_each_orbit():
    # certificates from three groups; the kept representative and the order
    # must match the tuple reference
    specs = [
        _spec(*SPECS["Z6, m=4"]),
        _spec(*SPECS["Z3xZ2, m=4"]),
        _spec(*SPECS["Z7xZ2^2, m=8"]),
    ]
    specs[2].budget = search.SearchBudget(max_solutions=16)
    certs = [cert for spec in specs for cert in search.search_ddf(spec)]
    assert len(certs) == 4 + 4 + 16
    for symmetries in SYMMETRY_SUBSETS:
        kept = search.dedupe(certs, symmetries)
        assert [id(c) for c in kept] == [id(c) for c in ref_dedupe(certs, symmetries)]


@pytest.fixture(scope="module")
def spec_certificates():
    """Per entry of ``SPECS`` and search mode, the certificates found: up to 8
    exhaustive ones, and up to 4 from a seeded randomized climb."""
    found = {}
    for name in sorted(SPECS):
        for mode, budget in (
            ("exhaustive", search.SearchBudget(max_solutions=8)),
            ("randomized", search.SearchBudget(max_nodes=20000, max_solutions=4)),
        ):
            spec = dataclasses.replace(_spec(*SPECS[name]), mode=mode, budget=budget, seed=5)
            found[name, mode] = search.search_ddf(spec)
    return found


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_dedupe_keeps_the_reference_representatives_of_shuffled_copies(spec_certificates, data):
    # certificates of six groups in any order, some repeated and some
    # copied, so the kept object shows which of equal families came first
    pool = [cert for certs in spec_certificates.values() for cert in certs]
    # families of Z_6 and Z_7 with the same element tuples: one orbit to ref_dedupe
    lookalikes = []
    for moduli in ((6,), (7,)):
        g = FiniteAbelianGroup(moduli)
        family = DifferenceFamily(g, Subgroup.from_elements(g, [(0,)]), [Block.from_elements(g, [(0,), (1,)])])
        lookalikes.append(search.Certificate(family, pool[0].spec, nodes=0, seed=0, elapsed=0.0))
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=24))
    picks = data.draw(st.permutations(picks + lookalikes))
    certs = [dataclasses.replace(cert) if data.draw(st.booleans()) else cert for cert in picks]
    for symmetries in SYMMETRY_SUBSETS:
        kept = search.dedupe(certs, symmetries)
        assert [id(c) for c in kept] == [id(c) for c in ref_dedupe(certs, symmetries)]


def test_certificate_lines_match_the_dumped_json(spec_certificates):
    # the CLI's line writer against the per-certificate dump it replaces
    for (name, mode), certs in spec_certificates.items():
        dumped = [
            cli._dump({key: value for key, value in cert.to_json().items() if key != "elapsed"})
            for cert in certs
        ]
        assert cli._certificate_lines(certs) == dumped, (name, mode)
    # both modes found families in a cyclic and in a mixed-radix group
    for name in ("Z6, m=4", "Z7xZ2^2, m=8", "Z14xZ2, m=8"):
        assert all(spec_certificates[name, mode] for mode in ("exhaustive", "randomized"))


# ---------------------------------------------------------------------------
# the exhaustive walk
# ---------------------------------------------------------------------------


def _spec(moduli, forbidden, m, max_nodes=None):
    g = FiniteAbelianGroup(moduli)
    return SearchSpec(
        group=g,
        forbidden=Subgroup.from_elements(g, forbidden),
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
    choices = [list(options()) for options in search._first_block_choices(tables)]
    decoded = [[_decode(g, o) for o in options] for options in choices]
    assert decoded == ref_first_block_choices(spec)
    d1 = frozenset().union(*(data.draw(st.sampled_from(options)) for options in choices))
    d1_elems = _decode(g, d1)
    counts = tables.pair_counts(d1)
    ref_counts = ref_pair_counts(g, d1_elems)
    assert {g.element(d): c for d, c in enumerate(counts) if c} == ref_counts
    new_budget = search._Budget(spec.budget)
    ref_budget = search._Budget(spec.budget)
    new = [_decode(g, b) for b, _ in search._second_blocks(tables, counts, new_budget)]
    ref = list(ref_balanced_blocks(spec, ref_counts, ref_budget))
    assert new == ref
    assert new_budget.nodes == ref_budget.nodes
