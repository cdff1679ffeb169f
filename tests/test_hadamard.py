import dataclasses
import json
import random
import tracemalloc

import numpy as np
import pytest

from designforge import designs, hadamard
from designforge.constructions import (
    PreconditionError,
    galois_ring_data,
    galois_ring_ddf,
    szekeres_family,
)
from designforge.designs import Block, DifferenceFamily
from designforge.field import FieldCtx
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup
from designforge.hadamard import (
    SignMatrix,
    build_symmetric_parts,
    check_symmetric_conditions,
    equivalence_invariants,
    hadamard_failure,
    hadamard_from_difference_set,
    identity_checks,
    is_hadamard,
    is_skew,
    is_symmetric,
    normalize,
    skew_from_df,
    sylvester,
    symmetric_from_ddf,
)


def z6_family():
    g = FiniteAbelianGroup((6,))
    n = Subgroup.from_elements(g, [(0,), (3,)])
    return DifferenceFamily(
        g,
        n,
        [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (2,)}))],
    )


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_predicates_on_order_two():
    M = SignMatrix(np.array([[1, 1], [1, -1]]))
    assert is_hadamard(M) and is_symmetric(M) and not is_skew(M)
    # skewness needs the unit diagonal as well as antisymmetry off it
    assert is_skew(SignMatrix(np.array([[1, 1], [-1, 1]])))
    assert not is_skew(SignMatrix(np.array([[-1, 1], [-1, -1]])))


def test_sylvester_orders():
    assert sylvester(0).entries.tolist() == [[1]]
    s4 = sylvester(2)
    assert s4.order == 4 and is_hadamard(s4)
    s8 = sylvester(3)
    assert is_hadamard(s8)
    assert (s8.entries[0] == 1).all() and (s8.entries[:, 0] == 1).all()
    assert all(int(s8.entries[i].sum()) == 0 for i in range(1, 8))


def test_all_ones_is_not_hadamard():
    M = SignMatrix(np.ones((2, 2), dtype=int))
    assert not is_hadamard(M)
    assert "inner product" in hadamard_failure(M)


def test_rejects_non_sign_entries():
    # 257 and -2^63 would pass as +-1 if the int8 cast ran before the check,
    # and int8 -128 is its own absolute value
    for bad in (
        np.array([[1, 0], [1, 1]]),
        np.array([[257]]),
        np.array([[-(2**63)]]),
        np.array([[-128]], dtype=np.int8),
    ):
        with pytest.raises(ValueError):
            SignMatrix(bad)


def test_entries_are_stored_as_int8():
    assert SignMatrix(np.array([[1, 1], [1, -1]], dtype=np.int64)).entries.dtype == np.int8
    assert sylvester(3).entries.dtype == np.int8


def test_orders_above_the_cap_are_refused_before_allocation():
    # each builder checks the order its input implies before any order^2 array
    g = FiniteAbelianGroup((16383,))  # skew order 2 * 16383 + 2 = 32768
    skew_family = DifferenceFamily(
        g, Subgroup.trivial(g), [Block.from_elements(g, frozenset({(1,)})), Block.from_elements(g, frozenset({(2,)}))]
    )
    g = FiniteAbelianGroup((256,))  # |N| = 128, so m = 256 and order m^2 = 65536
    sym_family = DifferenceFamily(
        g, Subgroup.from_elements(g, [(2 * i,) for i in range(128)]), [Block.from_elements(g, frozenset({(1,)}))] * 2
    )
    # a single block in Z_2^15: the translate-incidence matrix has order 32768
    big = FiniteAbelianGroup((2,) * 15)
    ds_family = DifferenceFamily(big, Subgroup.trivial(big), [Block.from_elements(big, frozenset({(0,) * 15}))])
    calls = [
        lambda: sylvester(15),
        lambda: sylvester(10**12),
        lambda: skew_from_df(skew_family),
        lambda: build_symmetric_parts(sym_family),
        lambda: hadamard_from_difference_set(ds_family),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="MAX_MATRIX_ORDER"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_normalize():
    rng = random.Random(3)
    A = sylvester(3).entries.copy()
    for i in range(8):
        if rng.random() < 0.5:
            A[i] *= -1
        if rng.random() < 0.5:
            A[:, i] *= -1
    norm = normalize(SignMatrix(A))
    assert (norm.entries[0] == 1).all() and (norm.entries[:, 0] == 1).all()
    assert is_hadamard(norm)


def test_text_roundtrip():
    s = sylvester(2)
    assert SignMatrix.from_text(s.to_text()) == s
    assert SignMatrix.from_json(s.to_json()) == s
    labelled = SignMatrix(s.entries, labels=[(0, 0), (0, 1), (1, 0), "x"], provenance={"k": 2})
    again = SignMatrix.from_json(json.loads(json.dumps(labelled.to_json())))
    assert (again.labels, again.provenance) == (labelled.labels, labelled.provenance)


@pytest.mark.parametrize(
    "text, match",
    [
        ("+x\nx+", "holds 'x'"),
        ("+-\n-1", "holds '1'"),
        ("++\n+", "ragged rows"),
        ("+-+\n-+-", "not a square"),
        ("+\n-\n+", "not a square"),
        ("", "square matrix"),
    ],
)
def test_text_reader_refuses_malformed_matrices(text, match):
    with pytest.raises(ValueError, match=match):
        SignMatrix.from_text(text)


@pytest.mark.parametrize(
    "data, match",
    [
        ({"rows": [[1, 2], [1, -1]]}, "entries must all be"),
        ({"rows": [[1, 0], [1, -1]]}, "entries must all be"),
        ({"rows": [[1, True], [1, -1]]}, r"matrix.rows\[0\] is not an array of integers"),
        ({"rows": [[1, 1.0], [1, -1]]}, r"matrix.rows\[0\] is not an array of integers"),
        ({"rows": [[1, "-"], [1, -1]]}, r"matrix.rows\[0\] is not an array of integers"),
        ({"rows": [[1, 1], [1]]}, "ragged rows"),
        ({"rows": [[1, 1, 1], [1, -1, 1]]}, "not a square"),
        ({"rows": [1, -1]}, r"matrix.rows\[0\] is not an array"),
        ({"rows": "+-"}, "matrix.rows is not an array"),
        ({"order": 2}, "matrix.rows is missing"),
        ({"order": 3, "rows": [[1, 1], [1, -1]]}, "matrix.order is 3, but matrix.rows holds 2"),
        ({"order": "2", "rows": [[1, 1], [1, -1]]}, "matrix.order is not an integer"),
        ([[1]], "matrix is not a JSON object"),
        ({"rows": [[1, 1], [1, -1]], "row_labels": 5}, "matrix.row_labels is not an array"),
        ({"rows": [[1, 1], [1, -1]], "row_labels": [[0]]}, "label count does not match"),
        ({"rows": [[1, 1], [1, -1]], "provenance": 7}, "matrix.provenance is not a JSON object"),
    ],
)
def test_json_reader_refuses_malformed_matrices(data, match):
    with pytest.raises(ValueError, match=match):
        SignMatrix.from_json(data)


def naive_text(M):
    """The text form built one entry at a time."""
    return "".join("".join("+" if x == 1 else "-" for x in row) + "\n" for row in M.entries)


def sample_matrices():
    """All three kinds, orders 1 to 1024, with and without labels and provenance."""
    ring3 = RingCtx(3)
    group = ring3.additive_group()
    ds = DifferenceFamily(
        group, Subgroup.trivial(group), [Block(group, galois_ring_data(ring3).D)]
    )
    labelled = hadamard_from_difference_set(ds)
    out = [sylvester(k) for k in range(11)]
    fields = (FieldCtx(7), FieldCtx(19), FieldCtx(3, 3), FieldCtx(251))
    out += [skew_from_df(szekeres_family(ctx).family).matrix for ctx in fields]
    out += [symmetric_from_ddf(z6_family()).matrix]
    out += [symmetric_from_ddf(galois_ring_ddf(RingCtx(n)).family).matrix for n in (3, 5)]
    out += [
        labelled,
        SignMatrix(labelled.entries, labels=labelled.labels),
        SignMatrix(sylvester(5).entries),
        SignMatrix(-np.eye(3, dtype=np.int8) + (1 - np.eye(3, dtype=np.int8))),
    ]
    return out


def test_streamed_writers_match_the_reference_encoders():
    matrices = sample_matrices()
    assert {M.order for M in matrices} >= {1, 3, 8, 16, 20, 28, 64, 252, 1024}
    assert any(M.labels is not None and M.provenance is None for M in matrices)
    for M in matrices:
        want = json.dumps(M.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        assert "".join(M.iter_json()) == want, M.order
        assert "".join(M.iter_text()) == naive_text(M), M.order
        assert M.to_text() == naive_text(M)[:-1]


@pytest.mark.parametrize("entries", [1, 5, 64, 1000])
def test_streamed_writers_across_block_boundaries(entries, monkeypatch):
    monkeypatch.setattr(hadamard, "WRITE_BLOCK_ENTRIES", entries)
    for M in (sylvester(0), sylvester(3), skew_from_df(szekeres_family(FieldCtx(19)).family).matrix):
        chunks = list(M.iter_json())
        assert "".join(chunks) == json.dumps(M.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        assert "".join(M.iter_text()) == naive_text(M)
        assert len(chunks) - 2 == -(-M.order // max(1, entries // M.order))


# ---------------------------------------------------------------------------
# the skew array
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,order", [(7, 8), (11, 12), (19, 20), (23, 24)])
def test_skew_from_szekeres(q, order):
    fam = szekeres_family(FieldCtx(q)).family
    res = skew_from_df(fam)
    M = res.matrix
    assert M.order == order
    A = M.entries
    assert np.array_equal(A @ A.T, order * np.eye(order, dtype=np.int64))
    assert np.array_equal(A.T @ A, order * np.eye(order, dtype=np.int64))
    assert np.array_equal(A + A.T, 2 * np.eye(order, dtype=np.int64))


def test_skew_rejects_wrong_parameters():
    g = FiniteAbelianGroup((7,))
    fam = DifferenceFamily(
        g,
        Subgroup.trivial(g),
        [Block.from_elements(g, frozenset({(1,), (2,)})), Block.from_elements(g, frozenset({(1,), (3,)}))],
    )
    with pytest.raises(PreconditionError):
        skew_from_df(fam)  # |G| = 7 needs blocks of size 3


def test_skew_requires_a_skew_block():
    # {1,4} and {2,3} in Z_5 form a (Z_5,2,1)-DF but both blocks are
    # negation-closed, so the skewness condition fails
    g = FiniteAbelianGroup((5,))
    fam = DifferenceFamily(
        g,
        Subgroup.trivial(g),
        [Block.from_elements(g, frozenset({(1,), (4,)})), Block.from_elements(g, frozenset({(2,), (3,)}))],
    )
    assert designs.verify(fam).ok
    with pytest.raises(PreconditionError, match="skewness"):
        skew_from_df(fam)


# ---------------------------------------------------------------------------
# the symmetric array
# ---------------------------------------------------------------------------


def test_conditions_z6():
    rep = check_symmetric_conditions(z6_family())
    assert rep.ok and rep.m == 4


def test_conditions_gr43():
    fam = galois_ring_ddf(RingCtx(3)).family
    rep = check_symmetric_conditions(fam, 8)
    assert rep.ok
    assert (rep.lam, rep.mu) == (8, 10) and rep.sizes == (12, 12)


def test_conditions_orient_blocks_after_serialization():
    # serialization sorts blocks, so the checker may find the negation-closed
    # block in either slot; the report records the orientation
    fam = galois_ring_ddf(RingCtx(3)).family
    fam = dataclasses.replace(fam, blocks=fam.blocks[::-1])
    assert designs.verify(fam).ok
    rep = check_symmetric_conditions(fam)
    assert rep.ok and rep.block_order == (1, 0)
    res = symmetric_from_ddf(fam)
    assert is_hadamard(res.matrix) and is_symmetric(res.matrix)


def test_conditions_negative_control_symmetry():
    # doubling the skew block leaves no negation-closed block at all
    fam = galois_ring_ddf(RingCtx(3)).family
    fam = dataclasses.replace(fam, blocks=(fam.blocks[1], fam.blocks[1]))
    rep = check_symmetric_conditions(fam)
    assert not rep.ok
    assert any("negation-closed" in f for f in rep.failures)


def test_symmetric_from_z6():
    res = symmetric_from_ddf(z6_family())
    M = res.matrix
    assert M.order == 16 and is_hadamard(M) and is_symmetric(M)
    assert np.array_equal(
        M.entries.T @ M.entries, 16 * np.eye(16, dtype=np.int64)
    )


def test_symmetric_from_gr43_with_checks():
    res = symmetric_from_ddf(galois_ring_ddf(RingCtx(3)).family)
    assert res.matrix.order == 64
    assert is_hadamard(res.matrix) and is_symmetric(res.matrix)
    checks = identity_checks(res.parts)
    assert all(c.ok for c in checks)
    numbers = sorted({c.number for c in checks})
    assert numbers == list(range(1, 11))


def test_identity_check_reported_values():
    # spot values: C C^T diagonal is m/2 = 4, A'A'^T+B'B'^T diagonal is m(m-1) = 56
    parts = build_symmetric_parts(
        galois_ring_ddf(RingCtx(3)).family, sylvester(3)
    )
    m = parts.m
    CCt = parts.C @ parts.C.T
    assert set(np.diag(CCt)) == {m // 2}
    S = parts.Ap @ parts.Ap.T + parts.Bp @ parts.Bp.T
    assert set(np.diag(S)) == {m * (m - 1)}
    Z = parts.Bp @ parts.H1 + parts.Ap @ parts.H2
    assert not Z.any()


def test_identity_checks_zero_claim_on_z6():
    parts = build_symmetric_parts(z6_family(), sylvester(2))
    Z = parts.Bp @ parts.H1 + parts.Ap @ parts.H2
    assert not Z.any()


def test_symmetric_seed_must_match():
    with pytest.raises(PreconditionError):
        symmetric_from_ddf(z6_family(), H=sylvester(3))  # order 8 seed for m=4
    with pytest.raises(PreconditionError, match="not Hadamard"):
        symmetric_from_ddf(z6_family(), H=SignMatrix(np.ones((4, 4), dtype=np.int64)))


def test_symmetric_rejects_unqualified_family():
    fam = szekeres_family(FieldCtx(11)).family
    with pytest.raises(PreconditionError):
        symmetric_from_ddf(fam)


def test_coset_assignment_variants():
    fam = z6_family()
    base = symmetric_from_ddf(fam).matrix
    for perm in ([1, 0, 2], [2, 1, 0], 7, random.Random(9)):
        M = symmetric_from_ddf(fam, coset_assignment=perm).matrix
        assert is_hadamard(M) and is_symmetric(M)
    with pytest.raises(ValueError):
        symmetric_from_ddf(fam, coset_assignment=[0, 0, 1])
    assert is_hadamard(base)


def test_identity_checks_fail_with_witness_on_perturbation():
    parts = build_symmetric_parts(z6_family(), sylvester(2))
    parts.Ap[0, 1] *= -1  # single-entry perturbation
    checks = identity_checks(parts)
    bad = [c for c in checks if not c.ok]
    assert bad
    assert all("mismatch at" in c.detail for c in bad)


def test_failed_symmetric_gate_builds_the_parts_to_name_identities(monkeypatch):
    # one code outside N moved into the type-2 block: the array stays +-1
    # but fails the gate, and the parts read off it name identity 5
    family = galois_ring_ddf(RingCtx(3)).family
    code = int(np.argmax(family.forbidden.coset_index() != 0))
    membership, made = hadamard._membership, []

    def flipped(group, codes):
        out = membership(group, codes)
        if len(made) == 1:  # the type-2 block's, after the type-1 block's
            out[code] = 1 - out[code]
        made.append(out)
        return out

    monkeypatch.setattr(hadamard, "_membership", flipped)
    with pytest.raises(hadamard.AssemblyError, match="failing identities: .*5:A'A'"):
        symmetric_from_ddf(family)


@pytest.mark.parametrize("region", ["H1", "H2", "Bp", "Ap", "corner"])
def test_one_flip_in_the_gated_symmetric_array_names_an_identity(region, monkeypatch):
    # the parts are read off the very array that failed, so one flipped
    # entry in any part they read shows in an identity
    family = galois_ring_ddf(RingCtx(3)).family
    m, v = 2 * family.forbidden.order, family.ambient.order
    at = {"H1": (m + 3, 1), "H2": (m + v + 5, 2), "Bp": (m + 1, m + 6),
          "Ap": (m + 2, m + v + 7), "corner": (m + v + 4, m + v + 9)}[region]
    assemble = hadamard._symmetric_array

    def flipped(*args):
        M, assignment, claims = assemble(*args)
        M[at] = -M[at]
        return M, assignment, claims

    monkeypatch.setattr(hadamard, "_symmetric_array", flipped)
    with pytest.raises(hadamard.AssemblyError, match=r"failing identities: \d+:"):
        symmetric_from_ddf(family)


def test_symmetric_parts_are_read_off_the_returned_array():
    family = galois_ring_ddf(RingCtx(3)).family
    result = symmetric_from_ddf(family, coset_assignment=4)
    parts = result.parts
    assert all(np.shares_memory(getattr(parts, name), result.matrix.entries)
               for name in ("H1", "H2", "Ap", "Bp"))
    again = build_symmetric_parts(family, coset_assignment=4)
    for name in ("H1", "H2", "C", "Ap", "Bp", "n_in"):
        assert np.array_equal(getattr(parts, name), getattr(again, name)), name


# ---------------------------------------------------------------------------
# difference-set route and fingerprints
# ---------------------------------------------------------------------------


def test_hadamard_from_difference_set():
    ring = RingCtx(3)
    data = galois_ring_data(ring)
    group = ring.additive_group()
    fam = DifferenceFamily(
        group, Subgroup.trivial(group), [Block(group, data.D)]
    )
    M = hadamard_from_difference_set(fam)
    assert M.order == 64 and is_hadamard(M) and is_symmetric(M)


def test_fingerprint_invariance_under_signed_permutations():
    rng = random.Random(11)
    M = sylvester(3)
    fp = equivalence_invariants(M)
    for _ in range(5):
        A = M.entries.copy()
        pr = list(range(8))
        pc = list(range(8))
        rng.shuffle(pr)
        rng.shuffle(pc)
        A = A[pr][:, pc]
        for i in range(8):
            if rng.random() < 0.5:
                A[i] *= -1
            if rng.random() < 0.5:
                A[:, i] *= -1
        assert equivalence_invariants(SignMatrix(A)) == fp


def test_fingerprints_recorded_for_both_order64_routes():
    # recorded, not compared: equivalence deciding is out of scope
    ring = RingCtx(3)
    res = symmetric_from_ddf(galois_ring_ddf(ring).family)
    group = ring.additive_group()
    fam = DifferenceFamily(
        group,
        Subgroup.trivial(group),
        [Block(group, galois_ring_data(ring).D)],
    )
    direct = hadamard_from_difference_set(fam)
    fp_array = equivalence_invariants(res.matrix)
    fp_direct = equivalence_invariants(direct)
    assert fp_array.order == fp_direct.order == 64
    assert fp_array.as_tuple() and fp_direct.as_tuple()


def test_fingerprint_rejects_non_hadamard_and_big_orders():
    with pytest.raises(ValueError):
        equivalence_invariants(SignMatrix(np.ones((2, 2), dtype=int)))
    big = SignMatrix(np.kron(sylvester(3).entries, sylvester(5).entries))
    with pytest.raises(ValueError):
        equivalence_invariants(big)


# ---------------------------------------------------------------------------
# negative controls on the predicates
# ---------------------------------------------------------------------------


def test_single_entry_perturbation_breaks_hadamard():
    M = sylvester(3)
    A = M.entries.copy()
    A[2, 5] *= -1
    bad = SignMatrix(A)
    assert not is_hadamard(bad)
    witness = hadamard_failure(bad)
    assert witness is not None and "rows" in witness
