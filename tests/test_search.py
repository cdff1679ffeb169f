import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import designs, hadamard
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


def z6_spec(**kw):
    g = FiniteAbelianGroup((6,))
    return SearchSpec(
        group=g, forbidden=Subgroup(g, [(0,), (3,)]), m=4, **kw
    )


def naive_all_pairs_count():
    """Independent oracle: filter every pair of 2-subsets of Z_6.

    Families are unordered block collections, so pairs are deduplicated as
    sets before counting.
    """
    g = FiniteAbelianGroup((6,))
    n = Subgroup(g, [(0,), (3,)])
    found = set()
    for d1 in itertools.combinations(list(g.elements()), 2):
        for d2 in itertools.combinations(list(g.elements()), 2):
            fam = DifferenceFamily(
                g,
                n,
                [Block(g, frozenset(d1)), Block(g, frozenset(d2))],
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
        Block(g, frozenset(data.draw(st.lists(st.sampled_from(elems), max_size=6))))
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
    # full enumeration over Z_7 x Z_2^2 (135312 nodes, about 3 s on mixed-radix
    # codes); the known two-block family must appear up to translation and
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
    sub = Subgroup(g, [(0,), (5,), (10,)])
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
            group=g8, forbidden=Subgroup(g8, [(0,), (4,)]), m=4
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
    # a family that fails replay must stop the search, never vanish from it
    monkeypatch.setattr(Certificate, "replay", lambda self: False)
    spec = z6_spec(mode="randomized", seed=42, budget=SearchBudget(max_nodes=2000))
    with pytest.raises(RuntimeError, match="failed replay"):
        search_ddf(spec)


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
