import functools
import gc
import itertools
import json
import operator
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import designs, hadamard, search
from designforge.constructions import PreconditionError, galois_ring_ddf
from designforge.designs import Block, DesignParams, DifferenceFamily
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup, subgroup_generated
from designforge.search import (
    Certificate,
    SearchBudget,
    SearchSpec,
    canonical_form,
    dedupe,
    search_ddf,
)
from test_codes import SPECS, _spec


def z6_spec(**kw):
    g = FiniteAbelianGroup((6,))
    return SearchSpec(
        group=g, forbidden=Subgroup.from_elements(g, [(0,), (3,)]), m=4, **kw
    )


def naive_all_pairs_count():
    """Independent oracle: filter every pair of 2-subsets of Z_6.

    Families are unordered block collections, so pairs are deduplicated as
    sets before counting.
    """
    g = FiniteAbelianGroup((6,))
    n = Subgroup.from_elements(g, [(0,), (3,)])
    found = set()
    for d1 in itertools.combinations(list(g.elements()), 2):
        for d2 in itertools.combinations(list(g.elements()), 2):
            fam = DifferenceFamily(
                g,
                n,
                [Block.from_elements(g, frozenset(d1)), Block.from_elements(g, frozenset(d2))],
                DesignParams(0, 1, (2, 2)),
            )
            if designs.verify(fam).ok and hadamard.check_symmetric_conditions(fam, 4).ok:
                found.add(frozenset((frozenset(d1), frozenset(d2))))
    return len(found), found


# ---------------------------------------------------------------------------
# exhaustive mode
# ---------------------------------------------------------------------------


def test_exhaustive_finds_the_reference_family():
    certs = search_ddf(z6_spec())
    reference = {frozenset({(1,), (5,)}), frozenset({(1,), (2,)})}
    assert any(
        {c.family.blocks[0].elements, c.family.blocks[1].elements} == reference
        for c in certs
    )


def test_exhaustive_matches_naive_oracle():
    certs = search_ddf(z6_spec())
    count, found = naive_all_pairs_count()
    assert len(certs) == count == 4
    cert_pairs = {
        frozenset((c.family.blocks[0].elements, c.family.blocks[1].elements))
        for c in certs
    }
    assert cert_pairs == found


def test_every_certificate_replays():
    for cert in search_ddf(z6_spec()):
        assert cert.replay()
        rep = designs.verify(cert.family)
        assert rep.ok and (rep.lam, rep.mu) == (0, 1)


def test_certificate_json_roundtrip():
    cert = search_ddf(z6_spec())[0]
    again = Certificate.from_json(cert.to_json())
    assert again.family.canonical_blocks() == cert.family.canonical_blocks()
    assert again.spec.m == 4
    assert again.replay()


def test_certificate_json_names_bad_fields():
    data = search_ddf(z6_spec())[0].to_json()
    cases = [
        ({k: v for k, v in data.items() if k != "spec"}, "certificate.spec is missing"),
        (dict(data, nodes=True), "certificate.nodes is not an integer"),
        (dict(data, nodes="12"), "certificate.nodes is not an integer"),
        (dict(data, seed=1.5), "certificate.seed is not an integer"),
        (dict(data, elapsed="soon"), "certificate.elapsed is not a number"),
        (dict(data, spec=dict(data["spec"], m="4")), "certificate.spec.m is not an integer"),
        (dict(data, spec=[]), "certificate.spec is not a JSON object"),
        (
            dict(data, spec=dict(data["spec"], budget={"max_nodez": 1})),
            "certificate.spec.budget.max_nodez is not a budget field",
        ),
        ([], "certificate is not a JSON object"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError) as info:
            Certificate.from_json(bad)
        assert str(info.value) == message
    # a null optional field reads as absent
    assert Certificate.from_json(dict(data, nodes=None)).nodes == 0


@st.composite
def search_specs(draw):
    moduli = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
    g = FiniteAbelianGroup(moduli)
    gens = draw(st.lists(st.sampled_from(list(g.elements())), max_size=2))
    optional_int = st.none() | st.integers(min_value=0, max_value=10**12)
    return SearchSpec(
        group=g,
        forbidden=subgroup_generated(g, gens),
        m=draw(st.integers(min_value=-8, max_value=64)),
        mode=draw(st.sampled_from(["exhaustive", "randomized"])),
        budget=SearchBudget(
            max_nodes=draw(optional_int),
            max_solutions=draw(optional_int),
            max_seconds=draw(
                st.none() | st.integers(0, 100) | st.floats(0, 1e6, allow_nan=False)
            ),
        ),
        seed=draw(st.integers(min_value=-(2**40), max_value=2**40)),
    )


@settings(max_examples=100, deadline=None)
@given(search_specs(), st.data())
def test_spec_and_certificate_json_roundtrip(spec, data):
    assert SearchSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
    g = spec.group
    elems = list(g.elements())
    blocks = [
        Block.from_elements(g, frozenset(data.draw(st.lists(st.sampled_from(elems), max_size=6))))
        for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
    ]
    cert = Certificate(
        family=DifferenceFamily(
            g, spec.forbidden, blocks, DesignParams(0, 1, tuple(sorted(b.size for b in blocks)))
        ),
        spec=spec,
        nodes=data.draw(st.integers(min_value=0, max_value=10**9)),
        seed=spec.seed,
        elapsed=data.draw(st.floats(min_value=0, max_value=1e4, allow_nan=False)),
    )
    again = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again.to_json() == cert.to_json()
    assert again.spec == spec
    assert (again.nodes, again.seed) == (cert.nodes, cert.seed)
    assert again.elapsed == round(cert.elapsed, 6)


def test_budget_limits_nodes():
    spec = z6_spec(budget=SearchBudget(max_nodes=2))
    assert len(search_ddf(spec)) <= 1
    spec = z6_spec(budget=SearchBudget(max_solutions=1))
    assert len(search_ddf(spec)) == 1


def test_lazy_product_matches_itertools_product():
    for sizes in [(), (3,), (2, 3), (3, 0, 2), (1, 4, 2, 3)]:
        lists = [[(i, j) for j in range(n)] for i, n in enumerate(sizes)]
        groups = [functools.partial(iter, options) for options in lists]
        assert list(search._lazy_product(groups)) == list(itertools.product(*lists))


def test_first_blocks_keep_the_product_order_under_a_budget():
    g = FiniteAbelianGroup((7, 2, 2))
    n = Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)])
    spec = SearchSpec(group=g, forbidden=n, m=8)
    tables = search._CodeTables(spec)
    lists = [list(options()) for options in search._first_block_choices(tables)]
    want = [frozenset(itertools.chain.from_iterable(a)) for a in itertools.product(*lists)]
    assert len(want) == 6 ** 3
    for max_nodes in (None, 1, 5, 300):
        budget = search._Budget(SearchBudget(max_nodes=max_nodes))
        got = list(search._symmetric_first_blocks(tables, budget))
        assert got == want[:max_nodes]


def test_second_block_search_leaves_no_cyclic_closures():
    # a recursive closure refers to itself through its cell, so nested
    # recursion helpers would wait for the cyclic collector after every call
    fam = galois_ring_ddf(RingCtx(3)).family
    spec = SearchSpec(
        group=fam.ambient, forbidden=fam.forbidden, m=8,
        budget=SearchBudget(max_solutions=256),
    )
    first = search_ddf(spec)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        second = search_ddf(spec)
        gc.collect()
        names = [getattr(obj, "__name__", None) for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert [c.family.canonical_blocks() for c in second] == [
        c.family.canonical_blocks() for c in first
    ]
    assert second[-1].nodes == first[-1].nodes == 30077
    assert "rec" not in names and "extend" not in names


_PEAK_RSS = """
import json, resource, sys
from designforge import cli
m = int(sys.argv[1]); v = m * (m - 1) // 2; step = 2 * v // m
spec = {"group": {"moduli": [v]}, "forbidden": [[step * i] for i in range(m // 2)],
        "m": m, "mode": "exhaustive", "budget": {"max_nodes": 1}}
with open(sys.argv[2], "w") as fh:
    json.dump(spec, fh)
assert cli.main(["search", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_first_block_options_are_not_built_ahead_of_the_budget(tmp_path):
    # cyclic specs with max_nodes = 1: each negation pair of cosets has
    # C(m/2, m/4) options, 924 at m=24 and 12870 at m=32, of which one is used
    peaks = []
    for m in (24, 32):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(m), str(tmp_path / f"spec{m}.json")],
            capture_output=True, text=True, check=True,
        )
        peaks.append(int(proc.stderr.split()[-1]))  # KiB on Linux
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


def test_randomized_first_blocks_are_drawn_without_building_the_options(tmp_path):
    # the same cyclic specs in randomized mode: each restart draws one option
    # per pair of cosets by unranking, so no option list is ever built
    script = _PEAK_RSS.replace('"mode": "exhaustive"', '"mode": "randomized"')
    assert script != _PEAK_RSS
    peaks = []
    for m in (24, 32):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(m), str(tmp_path / f"spec{m}.json")],
            capture_output=True, text=True, check=True,
        )
        peaks.append(int(proc.stderr.split()[-1]))  # KiB on Linux
    assert peaks[1] - peaks[0] < 10 * 1024, peaks


def test_capped_m20_walk_keeps_a_small_traced_peak(monkeypatch):
    # 50 nodes reach the second-block walk and build its first outside
    # cosets' options, 252 per coset of 10 points.  Summing each option's
    # pair rows over the later cosets once took a traced peak of 79 MiB here
    built = set()
    real = search._CodeTables.coset_lanes

    def counted(self, idx):
        built.add(idx)
        return real(self, idx)

    monkeypatch.setattr(search._CodeTables, "coset_lanes", counted)
    m = 20
    v = m * (m - 1) // 2
    g = FiniteAbelianGroup((v,))
    n = Subgroup.from_elements(g, [(2 * v // m * i,) for i in range(m // 2)])
    spec = SearchSpec(group=g, forbidden=n, m=m, budget=SearchBudget(max_nodes=50))
    tracemalloc.start()
    try:
        assert search_ddf(spec) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) >= 5
    assert peak < 16 * 2**20, peak


def test_unranked_combinations_follow_itertools_order():
    for n in range(7):
        items = [10 * i + 3 for i in range(n)]
        for r in range(n + 1):
            want = [list(c) for c in itertools.combinations(items, r)]
            got = [search._unrank_combination(items, r, k) for k in range(len(want))]
            assert got == want, (n, r)


def _draw_from_the_list(options, rng):
    """The former draw: every option built, then ``rng.choice``."""
    return rng.choice(list(options()))


def test_randomized_trajectories_match_the_list_draw(monkeypatch):
    # seeds 0..9 at m=8 over Z_7 x Z_2^2: the same certificates after the same
    # node counts as when every option list was built and drawn from
    g = FiniteAbelianGroup((7, 2, 2))
    n = Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)])

    def trajectories():
        out = []
        for seed in range(10):
            spec = SearchSpec(
                group=g, forbidden=n, m=8, mode="randomized", seed=seed,
                budget=SearchBudget(max_nodes=3000),
            )
            out.append([(c.nodes, c.family.canonical_blocks()) for c in search_ddf(spec)])
        return out

    unranked = trajectories()
    monkeypatch.setattr(search._MirroredOptions, "draw", _draw_from_the_list)
    assert trajectories() == unranked
    assert sum(map(len, unranked)) > 0


def test_rediscovers_galois_ring_family():
    # the n=2 unit-subgroup family lives in Z_3 x Z_2 with m = 4
    res = galois_ring_ddf(RingCtx(2))
    fam = res.family
    spec = SearchSpec(group=fam.ambient, forbidden=fam.forbidden, m=4)
    certs = search_ddf(spec)
    assert certs
    target = canonical_form(fam, ("translation", "negation"))
    assert any(
        canonical_form(c.family, ("translation", "negation")) == target
        for c in certs
    )


def test_rediscovers_n3_family_at_m8():
    # full enumeration over Z_7 x Z_2^2 (135312 nodes, about 1.5 s with packed
    # counts); the known two-block family must appear up to translation and
    # negation
    fam = galois_ring_ddf(RingCtx(3)).family
    spec = SearchSpec(group=fam.ambient, forbidden=fam.forbidden, m=8)
    certs = search_ddf(spec)
    assert len(certs) == 1152
    target = canonical_form(fam, ("translation", "negation"))
    assert any(
        canonical_form(c.family, ("translation", "negation")) == target
        for c in certs
    )
    assert len(dedupe(certs)) == 36


# ---------------------------------------------------------------------------
# infeasible specs
# ---------------------------------------------------------------------------


def test_rejects_m_six():
    g = FiniteAbelianGroup((15,))
    sub = Subgroup.from_elements(g, [(0,), (5,), (10,)])
    with pytest.raises(PreconditionError, match="m=6 infeasible"):
        SearchSpec(group=g, forbidden=sub, m=6).validate()


def test_randomized_requires_a_budget():
    with pytest.raises(PreconditionError, match="budget"):
        search_ddf(z6_spec(mode="randomized", seed=3))


def test_rejects_wrong_sizes():
    g = FiniteAbelianGroup((6,))
    with pytest.raises(PreconditionError, match="\\|N\\|"):
        SearchSpec(group=g, forbidden=Subgroup.trivial(g), m=4).validate()
    g8 = FiniteAbelianGroup((8,))
    with pytest.raises(PreconditionError, match="\\|G\\|"):
        SearchSpec(
            group=g8, forbidden=Subgroup.from_elements(g8, [(0,), (4,)]), m=4
        ).validate()


# ---------------------------------------------------------------------------
# randomized mode
# ---------------------------------------------------------------------------


def test_randomized_deterministic_and_replayable():
    spec = z6_spec(mode="randomized", seed=42, budget=SearchBudget(max_nodes=2000))
    first = search_ddf(spec)
    second = search_ddf(spec)
    assert [c.family.canonical_blocks() for c in first] == [
        c.family.canonical_blocks() for c in second
    ]
    assert first
    assert all(c.replay() for c in first)


def test_randomized_search_raises_on_failed_replay(monkeypatch):
    # a family that fails replay must stop the search, never vanish from it:
    # the batch replay reports one failure among passing families
    batches = []
    real = search.replay_certificates

    def last_fails(certs):
        batches.append(len(certs))
        return real(certs)[:-1] + [False]

    monkeypatch.setattr(search, "replay_certificates", last_fails)
    spec = z6_spec(mode="randomized", seed=42, budget=SearchBudget(max_nodes=2000))
    with pytest.raises(RuntimeError, match="failed replay"):
        search_ddf(spec)
    assert len(batches) == 1 and batches[0] >= 2


def test_randomized_seed_changes_trajectory():
    a = search_ddf(z6_spec(mode="randomized", seed=1, budget=SearchBudget(max_nodes=500)))
    b = search_ddf(z6_spec(mode="randomized", seed=2, budget=SearchBudget(max_nodes=500)))
    # node paths differ even if the same solutions are found
    assert [c.nodes for c in a] != [c.nodes for c in b] or [
        c.family.canonical_blocks() for c in a
    ] != [c.family.canonical_blocks() for c in b]


# ---------------------------------------------------------------------------
# orbit reduction
# ---------------------------------------------------------------------------


def test_dedupe_translates_collapse():
    certs = search_ddf(z6_spec())
    assert len(dedupe(certs, ["translation"])) == 1
    assert len(dedupe(certs, ["n_multiplication"])) == 1


def test_dedupe_empty_input():
    assert dedupe([]) == []


def test_dedupe_counts_orbits():
    certs = search_ddf(z6_spec())
    orbits = dedupe(certs)
    assert len(orbits) == 1
    # without any symmetry, nothing collapses
    identical = dedupe(certs, [])
    assert len(identical) == 4


def test_dedupe_rejects_unknown_symmetry():
    certs = search_ddf(z6_spec())
    with pytest.raises(ValueError):
        dedupe(certs, ["mirror"])


# ---------------------------------------------------------------------------
# the slice-batched walk and swap deltas against the per-pair kernel and full rescoring
# ---------------------------------------------------------------------------


def ref_extended_counts(diff, neg, v, targets, counts, chosen, extra):
    """The former per-pair kernel: the counts with extra's new pairs added,
    or None once one overshoots."""
    merged = counts[:]
    for i, x in enumerate(extra):
        row = x * v
        for y in itertools.chain(chosen, extra[i + 1 :]):
            d = diff[row + y]
            merged[d] += 1
            if merged[d] > targets[d]:
                return None
            d = neg[d]
            merged[d] += 1
            if merged[d] > targets[d]:
                return None
    return merged


def ref_walk_nodes(tables, idx, chosen, counts):
    """The former walk's nodes in depth-first order, as (idx, chosen, counts);
    none from a base that already overshoots."""
    if any(map(operator.gt, counts, tables.targets)):
        return
    yield idx, chosen, counts
    if idx == len(tables.outside):
        return
    for extra in itertools.combinations(tables.outside[idx], tables.per_coset):
        merged = ref_extended_counts(
            tables.diff, tables.neg, tables.v, tables.targets, counts, list(chosen), extra
        )
        if merged is not None:
            yield from ref_walk_nodes(tables, idx + 1, chosen + extra, merged)


@functools.lru_cache(maxsize=None)
def ref_full_search(name):
    """The former depth-first search over a ``test_codes.SPECS`` spec, with
    no budget, on the per-pair reference walk: every hit as (first block,
    second block, nodes spent when reached), and the nodes of the whole walk."""
    tables = search._CodeTables(_spec(*SPECS[name]))
    budget = search._Budget(SearchBudget())
    hits = []
    for d1 in search._symmetric_first_blocks(tables, budget):
        for idx, chosen, counts in ref_walk_nodes(tables, 0, (), tables.pair_counts(d1)):
            budget.spend_node()
            if idx == len(tables.outside) and counts == tables.targets:
                hits.append((d1, frozenset(chosen), budget.nodes))
    return hits, budget.nodes


def ref_budgeted_search(name, max_nodes, max_solutions):
    """What the depth-first search does under a budget: the hits reached
    within ``max_nodes`` nodes, up to ``max_solutions`` of them, and the
    nodes counted when the walk ends short of a further solution (None when
    it stops at one)."""
    hits, total = ref_full_search(name)
    reached = [hit for hit in hits if max_nodes is None or hit[2] <= max_nodes]
    if max_solutions is not None and len(reached) > max_solutions:
        return reached[:max_solutions], None
    return reached, total if max_nodes is None else min(total, max_nodes + 1)


def _slice_bytes(tables, rows):
    """The slice budget that makes each pass take ``rows`` rows; None keeps the default."""
    return search._SLICE_BYTES if rows is None else rows * tables.row_bytes


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_walk_matches_the_reference_search_under_every_budget(monkeypatch, name, rows):
    # the same hits, in the same order, at the same node counts, for every
    # node cap and solution cap, and caps at the first hit and one node
    # short of it; passes of 1 and 7 rows split every level into many
    # slices.  Their uncapped walks (up to 202,192 nodes at one row per
    # numpy pass) are left to the default slice
    tables = search._CodeTables(_spec(*SPECS[name]))
    monkeypatch.setattr(search, "_SLICE_BYTES", _slice_bytes(tables, rows))
    passes = []
    real = tables.coset_lanes
    tables.coset_lanes = lambda idx: passes.append(idx) or real(idx)
    hits, _ = ref_full_search(name)
    caps = [1, 2, 7, 40, 1000, 5000] + [nodes - i for _, _, nodes in hits[:1] for i in (0, 1)]
    for max_nodes, max_solutions in itertools.product(
        caps + ([None] if rows is None else []), [None, 1, 10, 256]
    ):
        passes.clear()
        budget = search._Budget(SearchBudget(max_nodes=max_nodes, max_solutions=max_solutions))
        got = [hit[:3] for hit in search._exhaustive_search(tables, budget, 0.0)]
        want, nodes = ref_budgeted_search(name, max_nodes, max_solutions)
        assert got == want, (max_nodes, max_solutions)
        if nodes is not None:
            assert budget.nodes == nodes, (max_nodes, max_solutions)
        # each pass extends rows from a node within the cap
        assert max_nodes is None or len(passes) <= max_nodes


def test_walk_with_16_bit_lanes_matches_the_reference_search(monkeypatch):
    # m >= 28 needs 16-bit lanes (a target above 127); the same search at m = 8
    monkeypatch.setattr(search, "_lane_dtype", lambda targets, per_coset: np.dtype(np.uint16))
    for name in ("Z7xZ2^2, m=8", "Z6, m=4"):
        tables = search._CodeTables(_spec(*SPECS[name]))
        assert tables.lane == np.uint16
        for max_nodes in (None, 5000):
            budget = search._Budget(SearchBudget(max_nodes=max_nodes))
            got = [hit[:3] for hit in search._exhaustive_search(tables, budget, 0.0)]
            assert (got, budget.nodes) == ref_budgeted_search(name, max_nodes, None)


def test_packed_walk_matches_the_per_pair_kernel_at_m8(monkeypatch):
    # the benchmark's spec: 256 certificates, the last after 30077 nodes.
    # 49 first blocks reach the walk; the 6 whose counts overshoot spend
    # no node in it
    bases = []
    real = search._second_blocks

    def recorded(tables, base, budget):
        bases.append(all(map(operator.le, base, tables.targets)))
        return real(tables, base, budget)

    monkeypatch.setattr(search, "_second_blocks", recorded)
    name = "Z7xZ2^2, m=8"
    spec = _spec(*SPECS[name])
    spec.budget = SearchBudget(max_solutions=256)
    certs = search_ddf(spec)
    want, _ = ref_budgeted_search(name, None, 256)
    assert len(certs) == 256 and certs[-1].nodes == want[-1][2] == 30077
    assert sorted(c.nodes for c in certs) == [nodes for _, _, nodes in want]
    assert len(bases) == 49 and sum(bases) == 43


@pytest.mark.parametrize("m", [12])
def test_packed_walk_matches_the_per_pair_kernel_on_cyclic_specs(m):
    # the whole second-block tree of the first first block whose counts fit
    # the targets over Z_v, v = m(m-1)/2: 33,135 nodes, no block
    v = m * (m - 1) // 2
    g = FiniteAbelianGroup((v,))
    n = Subgroup.from_elements(g, [(2 * v // m * i,) for i in range(m // 2)])
    tables = search._CodeTables(SearchSpec(group=g, forbidden=n, m=m))
    fits = next(
        d1
        for d1 in search._symmetric_first_blocks(tables, search._Budget(SearchBudget()))
        if all(c <= t for c, t in zip(tables.pair_counts(d1), tables.targets))
    )
    budget = search._Budget(SearchBudget())
    assert list(search._second_blocks(tables, tables.pair_counts(fits), budget)) == []
    ref = ref_walk_nodes(tables, 0, (), tables.pair_counts(fits))
    assert budget.nodes == sum(1 for _ in ref) == 33135


def test_packed_fields_accept_the_target_and_reject_one_more(monkeypatch):
    # lanes 0 and v - 1, with every other count at its target, in the 8-bit
    # lanes of m = 8 and the 16-bit ones of m >= 28
    for lane in (np.uint8, np.uint16):
        monkeypatch.setattr(search, "_lane_dtype", lambda targets, per_coset: np.dtype(lane))
        _check_lanes(search._CodeTables(_spec(*SPECS["Z7xZ2^2, m=8"])))


def _check_lanes(tables):
    v, high, widest = tables.v, tables.high, 2 * tables.per_coset

    def overshoots(words):
        return bool(np.bitwise_or.reduce(words) & high)

    def step(d, by):
        lanes = np.zeros(tables.width, tables.lane)
        lanes[d] = by
        return lanes.view(np.uint64)

    at_target = tables.lanes(tables.targets)
    assert not overshoots(at_target)
    for d in (0, v - 1):
        assert overshoots(at_target + step(d, 1))  # target + 1
        if tables.targets[d]:
            below = list(tables.targets)
            below[d] -= 1
            reaches = tables.lanes(below) + step(d, 1)
            assert not overshoots(reaches) and (reaches == at_target).all()
        # the widest step on a count at its target sets only its own lane's
        # high bit and leaves the next lane (at d = v - 1 a padding lane) alone
        most = (at_target + step(d, widest)).view(tables.lane)
        assert most[d] == (1 << (8 * tables.lane.itemsize - 1)) - 1 + widest
        assert (np.delete(most, d) == np.delete(at_target.view(tables.lane), d)).all()


def test_an_overshooting_base_completes_no_block():
    # one count above its target at difference 0, which no pair of distinct
    # points forms: the walk returns at once, spending no node
    g = FiniteAbelianGroup((7, 2, 2))
    n = Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)])
    spec = SearchSpec(group=g, forbidden=n, m=8, budget=SearchBudget(max_solutions=1))
    d1 = frozenset(search_ddf(spec)[0].family.blocks[0].codes.tolist())
    tables = search._CodeTables(spec)
    base = tables.pair_counts(d1)
    fits = search._Budget(SearchBudget())
    assert list(search._second_blocks(tables, base, fits))
    over = search._Budget(SearchBudget())
    assert list(search._second_blocks(tables, [1] + base[1:], over)) == []
    assert fits.nodes > 0 and over.nodes == 0


def _check_every_swap(spec):
    """Run the search, checking each swap's delta score and count changes
    against a full ``pair_counts`` rescoring of the candidate."""
    real_counts, real_swap = search._CodeTables.pair_counts, search._scored_swap
    restarts, steps = [], []

    def deviation(tables, counts):
        return sum((c - t) ** 2 for c, t in zip(counts, tables.targets))

    def pair_counts(self, *blocks):
        restarts.append(blocks[0])
        return real_counts(self, *blocks)

    def scored_swap(tables, counts, score, d2, out_pt, in_pt):
        # the running counts and score are those of d2: each step checks the
        # candidate's, and a restart's come from pair_counts
        cand_score, change = real_swap(tables, counts, score, d2, out_pt, in_pt)
        full = real_counts(tables, restarts[-1], (d2 - {out_pt}) | {in_pt})
        assert cand_score == deviation(tables, full)
        assert [c + change.get(d, 0) for d, c in enumerate(counts)] == full
        steps.append(cand_score)
        return cand_score, change

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search._CodeTables, "pair_counts", pair_counts)
        mp.setattr(search, "_scored_swap", scored_swap)
        certs = search_ddf(spec)
    assert steps and len(restarts) < len(steps)
    return certs


def test_swap_deltas_match_full_rescoring_at_m8():
    g = FiniteAbelianGroup((7, 2, 2))
    n = Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)])
    for seed in range(10):
        spec = SearchSpec(
            group=g, forbidden=n, m=8, mode="randomized", seed=seed,
            budget=SearchBudget(max_nodes=1000),
        )
        _check_every_swap(spec)


def test_swap_deltas_match_full_rescoring_on_cyclic_m12():
    g = FiniteAbelianGroup((66,))
    spec = SearchSpec(
        group=g, forbidden=Subgroup.from_elements(g, [(11 * i,) for i in range(6)]), m=12,
        mode="randomized", seed=0, budget=SearchBudget(max_nodes=2000),
    )
    assert _check_every_swap(spec) == []
