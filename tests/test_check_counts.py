"""Each artifact passes each check exactly once, at the place that owns it.

Counting wrappers around the oracle (``designs.stacked_difference_totals``,
behind every single-family call too), the Gram gate (``hadamard.is_hadamard``)
and the symmetric-array precondition check record every call made while one
artifact is built.  A family carries the verdict of its oracle run, so a
builder handed a constructed family reads that verdict and runs the oracle
only on a family read from a file; ``verify`` itself counts on every call.
"""

import json

import pytest

from designforge import cli, constructions, designs, groups, hadamard
from designforge.field import FieldCtx
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup
from designforge.search import Certificate, SearchBudget, SearchSpec, search_ddf


@pytest.fixture
def calls(monkeypatch):
    """Argument log per wrapped check: tables get each stacked family, stacks
    get each oracle run's family count, Grams get orders; conditions count
    the families checked."""
    log = {"tables": [], "stacks": [], "grams": [], "conditions": 0}
    table, gram, cond = (
        designs.stacked_difference_totals,
        hadamard.is_hadamard,
        hadamard.check_symmetric_conditions_batch,
    )

    def counted_table(families):
        log["tables"].extend(families)
        log["stacks"].append(len(families))
        return table(families)

    def counted_gram(M, symmetries=()):
        log["grams"].append(M.order)
        return gram(M, symmetries)

    def counted_cond(families, m=None):
        log["conditions"] += len(families)
        return cond(families, m)

    monkeypatch.setattr(designs, "stacked_difference_totals", counted_table)
    monkeypatch.setattr(hadamard, "is_hadamard", counted_gram)
    monkeypatch.setattr(hadamard, "check_symmetric_conditions_batch", counted_cond)
    return log


def test_symmetric_cli_counts(calls, capsys):
    assert cli.main(["hadamard", "symmetric", "--n", "3"]) == 0
    # unit_quotient_family's base check and the family's oracle; the array
    # check reads the verdict the family carries
    assert len(calls["tables"]) == 2
    assert calls["conditions"] == 1
    # the default order-8 seed is gated by sylvester() alone
    assert sorted(calls["grams"]) == [8, 64]


@pytest.mark.parametrize(
    "argv, tables",
    [
        # unit_quotient_family's R^+ base check, then the family's oracle
        (["construct", "gr4-ddf", "--n", "3"], 2),
        (["construct", "szekeres", "--q", "11"], 1),
        # the same base check is the cyclotomic set's only run
        (["construct", "prop22", "--q", "19", "--e", "2"], 2),
        (["construct", "prop23", "--q", "109", "--e", "4"], 2),
    ],
)
def test_construct_cli_counts(argv, tables, calls, capsys):
    # the CLI prints the report the construction's own oracle run made
    assert cli.main(argv) == 0
    assert len(calls["tables"]) == tables


def test_skew_cli_counts(calls, capsys):
    assert cli.main(["hadamard", "skew", "--q", "7"]) == 0
    # szekeres_family's oracle; skew_from_df reads the verdict it left
    assert len(calls["tables"]) == 1
    assert calls["grams"] == [8]


@pytest.mark.parametrize("argv", [["hadamard", "symmetric", "--family"], ["verify"]])
def test_a_family_file_passes_the_oracle_once(argv, calls, tmp_path, capsys):
    # a family read back from JSON carries no verdict: one run, in the array
    # check or in verify
    path = tmp_path / "family.json"
    path.write_text(json.dumps(constructions.galois_ring_ddf(RingCtx(3)).family.to_json()))
    calls["tables"].clear()
    assert cli.main(argv + [str(path)]) == 0
    assert len(calls["tables"]) == 1
    assert calls["conditions"] == (argv[0] == "hadamard")


def test_builders_read_the_verdict_a_constructed_family_carries(calls):
    for family, build in [
        (constructions.szekeres_family(FieldCtx(19)).family, hadamard.skew_from_df),
        (constructions.cyclotomic_family(FieldCtx(11), 2, with_zero=True).family,
         designs.one_rotational_design),
    ]:
        calls["tables"].clear()
        build(family)
        assert calls["tables"] == []


def test_verify_counts_on_every_call(calls):
    family = constructions.szekeres_family(FieldCtx(11)).family
    calls["tables"].clear()
    first, second = designs.verify(family), designs.verify(family)
    assert calls["tables"] == [family, family]
    assert first is not second and family.report is second


def test_sylvester_cli_counts(calls, capsys):
    assert cli.main(["hadamard", "sylvester", "--k", "3"]) == 0
    assert calls["grams"] == [8]


def test_family_oracle_runs_once(calls):
    for result in (
        constructions.galois_ring_ddf(RingCtx(3)),
        constructions.cyclotomic_family(FieldCtx(37), 4),
    ):
        assert sum(f is result.family for f in calls["tables"]) == 1


def test_replay_runs_the_oracle_once(calls):
    # search_ddf replays each certificate before it returns, so an in-memory
    # one carries its verdict; one read back from JSON is checked afresh
    g = FiniteAbelianGroup((6,))
    spec = SearchSpec(group=g, forbidden=Subgroup.from_elements(g, [(0,), (3,)]), m=4)
    cert = search_ddf(spec)[0]
    calls["tables"].clear()
    assert cert.replay()
    assert calls["tables"] == []
    loaded = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert loaded.replay()
    assert calls["tables"] == [loaded.family]


@pytest.mark.parametrize("mode", ["exhaustive", "randomized"])
def test_search_checks_each_certificate_once(mode, calls):
    # the full m=8 walk (1152 certificates) and a seeded climb: one batch of
    # conditions and one stacked oracle run, holding each certificate once
    g = FiniteAbelianGroup((7, 2, 2))
    spec = SearchSpec(
        group=g,
        forbidden=Subgroup.from_elements(g, [(0, a, b) for a in range(2) for b in range(2)]),
        m=8,
        mode=mode,
        budget=SearchBudget(max_nodes=20000 if mode == "randomized" else None),
    )
    certs = search_ddf(spec)
    assert len(certs) == (1152 if mode == "exhaustive" else 10)
    assert calls["conditions"] == len(certs)
    assert calls["stacks"] == [len(certs)]
    assert sorted(map(id, calls["tables"])) == sorted(id(c.family) for c in certs)


@pytest.mark.parametrize(
    "argv, order",
    [
        (["hadamard", "sylvester", "--k", "3"], 8),
        (["hadamard", "skew", "--q", "7"], 8),
        (["hadamard", "symmetric", "--n", "3"], 64),
    ],
)
def test_failed_gate_exits_one(argv, order, monkeypatch, capsys):
    # fail only the gate on the emitted matrix, so the library's own gate on
    # the artifact is what the exit code reports
    gram = hadamard.is_hadamard
    monkeypatch.setattr(
        hadamard, "is_hadamard", lambda M, symmetries=(): M.order != order and gram(M, symmetries)
    )
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_wrong_group_order_is_refused_before_the_oracle(calls, monkeypatch, tmp_path, capsys):
    # two 2-point blocks and |N| = 2 in Z_{2^24}: m = 4 needs |G| = 6, and
    # neither the oracle nor the coset index over all of G may run to say so
    coset_index = []
    monkeypatch.setattr(
        groups.Subgroup, "coset_index", lambda self: coset_index.append(self) or None
    )
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "group": {"moduli": [1 << 24]},
        "forbidden": [[0], [1 << 23]],
        "blocks": [[[1], [2]], [[3], [4]]],
    }))
    assert cli.main(["hadamard", "symmetric", "--family", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|G|=16777216, need m(m-1)/2=6" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert calls["conditions"] == 1
    assert calls["tables"] == [] and coset_index == []
