"""The float32 BLAS Hadamard gate against the int64 products it replaces.

The reference functions below are the int64 ``A @ A.T`` gate, its witness,
and the int64 identity checks the library used before every product went
through ``hadamard._exact_product``.  The hypothesis tests require the same
verdicts and the same witness strings on random +-1 matrices, on Hadamard
matrices with one entry flipped, and on perturbed symmetric-array parts.
The single-flip tests at orders 1024 and 4096 run where the int64 reference
is too slow to keep, so their witness is computed by hand.  The builders
claim translations (sigma on rows, tau on columns) that the gate verifies
before it multiplies one row per orbit; the symmetry tests require the
verdict of every claim list they draw, valid or malformed, on intact,
corrupted and flipped arrays, to equal both the gate with no claim and the
int64 reference.  The gate and the
entry, symmetry and skewness checks work on tiles of rows; the tiled tests
shrink the tile to 1, 3 and 7 rows so that small matrices have many tiles,
ragged ones included, and the tracemalloc tests bound what a tile costs.
"""

import dataclasses
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import hadamard
from designforge.constructions import galois_ring_data, galois_ring_ddf, szekeres_family
from designforge.designs import Block, DifferenceFamily
from designforge.field import FieldCtx
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup
from designforge.hadamard import (
    SignMatrix,
    _exact_product,
    build_symmetric_parts,
    hadamard_failure,
    hadamard_from_difference_set,
    identity_checks,
    is_hadamard,
    is_skew,
    is_symmetric,
    skew_from_df,
    sylvester,
    symmetric_from_ddf,
)

# ---------------------------------------------------------------------------
# the int64 references
# ---------------------------------------------------------------------------


def ref_failure(A):
    """None if A A^T = order I in int64 arithmetic, else the first bad row pair."""
    A = A.astype(np.int64)
    P = A @ A.T
    want = len(A) * np.eye(len(A), dtype=np.int64)
    if np.array_equal(P, want):
        return None
    i, j = (int(x) for x in np.argwhere(P != want)[0])
    return f"rows {i} and {j} have inner product {int(P[i, j])}, expected {int(want[i, j])}"


def ref_identity_checks(parts):
    """The thirteen identity checks as (number, name, ok, detail), all in int64."""
    m, v = parts.m, parts.group.order
    H1, H2, Ap, Bp, C, n_in = (
        x.astype(np.int64) for x in (parts.H1, parts.H2, parts.Ap, parts.Bp, parts.C, parts.n_in)
    )
    I_v = np.eye(v, dtype=np.int64)
    I_m = np.eye(m, dtype=np.int64)
    J_m = np.ones((m, m), dtype=np.int64)
    zeros_vm = np.zeros((v, m), dtype=np.int64)
    two_level = (v + m // 2) * I_m - (m // 2) * J_m
    checks = [
        (1, "H1 H1^T coset pattern", H1 @ H1.T, m * n_in),
        (1, "H2 H2^T coset pattern", H2 @ H2.T, m * n_in),
        (2, "H1^T H1 two-level form", H1.T @ H1, two_level),
        (2, "H2^T H2 two-level form", H2.T @ H2, two_level),
        (3, "H1 H2^T opposite-coset pattern", H1 @ H2.T, -m * C),
        (4, "C C^T coset pattern", C @ C.T, (m // 2) * n_in),
        (5, "A'A'^T + B'B'^T three-level form", Ap @ Ap.T + Bp @ Bp.T, m * m * I_v - m * n_in),
        (6, "A'C^T pattern", Ap @ C.T, -(m // 2) * C),
        (7, "B'C^T pattern", Bp @ C.T, -(m // 2) * n_in),
        (7, "C B'^T pattern", C @ Bp.T, -(m // 2) * n_in),
        (8, "B'H1 + A'H2 vanishes", Bp @ H1 + Ap @ H2, zeros_vm),
        (9, "A'H1 - B'H2 - 2CH2 vanishes", Ap @ H1 - Bp @ H2 - 2 * C @ H2, zeros_vm),
        (10, "A'B'^T symmetric against B'A'^T", Ap @ Bp.T, Bp @ Ap.T),
    ]
    out = []
    for num, name, got, want in checks:
        if np.array_equal(got, want):
            out.append((num, name, True, ""))
        else:
            idx = tuple(int(x) for x in np.argwhere(got != want)[0])
            out.append((num, name, False, f"first mismatch at {idx}: {int(got[idx])} != {int(want[idx])}"))
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def hadamard_bases():
    """Hadamard matrices of orders 1..64 from every constructor."""
    bases = [sylvester(k) for k in range(7)]
    bases += [skew_from_df(szekeres_family(FieldCtx(q)).family).matrix for q in (7, 11, 19, 23)]
    bases.append(symmetric_from_ddf(galois_ring_ddf(RingCtx(3)).family).matrix)
    return bases


@functools.lru_cache(maxsize=None)
def symmetric_families():
    g = FiniteAbelianGroup((6,))
    blocks = [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (2,)}))]
    z6 = DifferenceFamily(g, Subgroup.from_elements(g, [(0,), (3,)]), blocks)
    return [z6, galois_ring_ddf(RingCtx(3)).family]


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


def assert_gate_agrees(M):
    want = ref_failure(M.entries)
    assert hadamard_failure(M) == want
    assert is_hadamard(M) == (want is None)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=48), st.integers(min_value=0, max_value=10**9))
def test_gate_matches_int64_on_random_sign_matrices(order, seed):
    rng = np.random.default_rng(seed)
    assert_gate_agrees(SignMatrix(rng.choice(np.array([-1, 1]), size=(order, order))))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_gate_matches_int64_on_flipped_hadamard_matrices(seed, flip):
    rng = random.Random(seed)
    base = rng.choice(hadamard_bases())
    A = base.entries.copy()
    if flip:
        i, j = rng.randrange(base.order), rng.randrange(base.order)
        A[i, j] = -A[i, j]
    M = SignMatrix(A)
    assert_gate_agrees(M)
    # one flip breaks every Hadamard matrix of order > 1 (order 1 has no second row)
    assert is_hadamard(M) == (not flip or base.order == 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from(["none", "H1", "H2", "Ap", "Bp", "C", "n_in", "random"]),
)
def test_identity_checks_match_int64_on_perturbed_parts(seed, which):
    rng = random.Random(seed)
    family = rng.choice(symmetric_families())
    parts = build_symmetric_parts(family, coset_assignment=rng.randrange(10**6))
    if which == "random":
        nrng = np.random.default_rng(seed)
        signs = np.array([-1, 1], dtype=np.int8)
        parts = dataclasses.replace(
            parts,
            H1=nrng.choice(signs, size=parts.H1.shape),
            Ap=nrng.choice(signs, size=parts.Ap.shape),
            C=nrng.choice(np.array([0, 1], dtype=np.int8), size=parts.C.shape),
        )
    elif which != "none":
        X = getattr(parts, which)
        i, j = rng.randrange(X.shape[0]), rng.randrange(X.shape[1])
        X[i, j] = 1 - X[i, j] if which in ("C", "n_in") else -X[i, j]
    got = [(c.number, c.name, c.ok, c.detail) for c in identity_checks(parts)]
    assert got == ref_identity_checks(parts)
    if which == "none":
        assert all(ok for _, _, ok, _ in got)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([1, 3, 7]),
    st.sampled_from(["none", "flip", "duplicate", "swap", "random"]),
)
def test_tiled_checks_match_whole_matrix_references(seed, tile, mutation):
    rng = random.Random(seed)
    base = rng.choice(hadamard_bases())
    A, n = base.entries.copy(), base.order
    if mutation == "flip":
        i, j = rng.randrange(n), rng.randrange(n)
        A[i, j] = -A[i, j]
    elif mutation == "duplicate" and n > 1:
        i, j = rng.sample(range(n), 2)
        A[j] = A[i]
    elif mutation == "swap" and n > 1:
        i, j = rng.sample(range(n), 2)
        A[[i, j]] = A[[j, i]]
    elif mutation == "random":
        A = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), size=(n, n))
    M = SignMatrix(A)
    wide = A.astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hadamard, "_TILE_ROWS", tile)
        want = ref_failure(A)
        assert hadamard_failure(M) == want
        assert is_hadamard(M) == (want is None)
        assert is_symmetric(M) == np.array_equal(wide, wide.T)
        assert is_skew(M) == np.array_equal(wide + wide.T, 2 * np.eye(n, dtype=np.int64))
    if n > 1 and mutation in ("flip", "duplicate"):
        assert want is not None
    if mutation in ("none", "swap"):
        assert want is None


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_tiled_entry_check_finds_any_bad_entry(tile, monkeypatch):
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    A = sylvester(4).entries
    assert SignMatrix(A.astype(np.int64)).entries.dtype == np.int8
    for i, j in itertools.product(range(16), repeat=2):
        for bad in (0, 2, -128):
            B = A.copy()
            B[i, j] = bad
            with pytest.raises(ValueError, match="entries must all be"):
                SignMatrix(B)


def test_gate_holds_tiles_not_the_whole_gram():
    # a float32 copy and a float32 Gram of an order-2048 matrix take 32 MiB
    M = sylvester(11)
    tracemalloc.start()
    try:
        assert is_hadamard(M) and is_symmetric(M) and hadamard_failure(M) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, peak


def test_symmetric_array_at_order_4096_holds_little_besides_its_entries():
    # v = 2016: each v x v int32 table took 16 MiB, the float32 gate 128 MiB
    family = galois_ring_ddf(RingCtx(6)).family
    tracemalloc.start()
    try:
        M = symmetric_from_ddf(family).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.order == 4096
    assert peak < M.entries.nbytes + (24 << 20), peak


# ---------------------------------------------------------------------------
# sizes the int64 reference cannot reach quickly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [10, 12])
def test_single_flip_rejected_with_row_pair_witness(k):
    M = sylvester(k)
    assert hadamard_failure(M) is None
    rng = random.Random(k)
    i, j = rng.randrange(1, M.order), rng.randrange(M.order)
    A = M.entries.copy()
    A[i, j] = -A[i, j]
    bad = SignMatrix(A)
    assert not is_hadamard(bad)
    # only row i changed, so row 0 first meets it: the dot product moves by -2 A[0,j] A[i,j]
    inner = -2 * int(M.entries[0, j]) * int(M.entries[i, j])
    assert hadamard_failure(bad) == f"rows 0 and {i} have inner product {inner}, expected 0"


def test_identity_checks_pass_at_m32():
    # H1^T H1 has diagonal v + m/2 = 512 here, which an int8 product would wrap
    parts = build_symmetric_parts(galois_ring_ddf(RingCtx(5)).family)
    assert parts.m == 32 and parts.H1.dtype == np.int8
    assert parts.group.order + parts.m // 2 > np.iinfo(np.int8).max
    checks = identity_checks(parts)
    assert len(checks) == 13 and all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_exact_product_refuses_products_float32_cannot_hold():
    # the bound inner_dim * max|X| * max|Y| = 2^24 is still exact
    X = np.array([[4096]], dtype=np.int64)
    assert _exact_product(X, X)[0, 0] == 2**24
    # 2^24 + 1 rounds to 2^24 in float32, so it must be refused, not rounded
    with pytest.raises(ValueError, match="2\\^24"):
        _exact_product(np.array([[2**24 + 1]]), np.array([[1]]))
    with pytest.raises(ValueError, match="2\\^24"):
        _exact_product(np.array([[4097]]), np.array([[4096]]))
    # the inner dimension counts: three terms of 2^23 each
    with pytest.raises(ValueError, match="2\\^24"):
        _exact_product(np.full((1, 3), 2**12), np.full((3, 1), 2**11))
    # and the Gram form X X^T uses X on both sides
    with pytest.raises(ValueError, match="2\\^24"):
        _exact_product(np.full((1, 2), 2**12))


# ---------------------------------------------------------------------------
# the gate with claimed symmetries
# ---------------------------------------------------------------------------


def _difference_set_64():
    group = RingCtx(3).additive_group()
    data = galois_ring_data(RingCtx(3))
    return hadamard_from_difference_set(DifferenceFamily(group, Subgroup.trivial(group), [Block(group, data.D)]))


# each builder with the number of row orbits its claims leave
BUILDERS = {
    "skew-q7": (lambda: skew_from_df(szekeres_family(FieldCtx(7)).family), 4),
    "skew-q23": (lambda: skew_from_df(szekeres_family(FieldCtx(23)).family), 4),
    "symmetric-n3": (lambda: symmetric_from_ddf(galois_ring_ddf(RingCtx(3)).family), 8 + 2 * 28 // 4),
    "difference-set-64": (_difference_set_64, 1),
}


def recording_gate(monkeypatch):
    """A list that collects each (matrix, claims) passed to ``is_hadamard``
    from now on; the gate itself still answers."""
    seen, gate = [], hadamard.is_hadamard

    def record(M, symmetries=()):
        seen.append((M, symmetries))
        return gate(M, symmetries)

    monkeypatch.setattr(hadamard, "is_hadamard", record)
    return seen


def built(name, monkeypatch):
    """The array a builder gates last and the claims it passes with it."""
    seen = recording_gate(monkeypatch)
    BUILDERS[name][0]()
    return seen[-1]


def assert_claims_agree(M, claims):
    """The claimed gate's verdict is the plain gate's and the reference's,
    and any witness it gives is a true nonzero entry of M M^T - order * I."""
    A = M.entries.astype(np.int64)
    residual = A @ A.T - M.order * np.eye(M.order, dtype=np.int64)
    verdict = is_hadamard(M, claims)
    assert verdict == is_hadamard(M) == (ref_failure(M.entries) is None)
    witness = hadamard._gram_residual(M, claims)
    assert (witness is None) == verdict
    if witness is not None:
        i, j, inner = witness
        assert inner == residual[i, j] != 0
    return verdict


@pytest.mark.parametrize("tile", [1, 3, 7, 512])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_claims_of_each_builder_hold_and_leave_its_orbits(name, tile, monkeypatch):
    M, claims = built(name, monkeypatch)
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    assert claims and assert_claims_agree(M, claims)
    assert hadamard._orbit_leasts(M.entries, claims).size == BUILDERS[name][1]


def _padded_family(moduli, blocks):
    """The family of ``blocks`` of last coordinates, the others 0, in G(moduli)."""
    g = FiniteAbelianGroup(moduli)
    pad = (0,) * (len(moduli) - len(blocks[0][0]))
    return DifferenceFamily(
        g, Subgroup.trivial(g), [Block.from_elements(g, [pad + x for x in b]) for b in blocks]
    )


@pytest.mark.parametrize(
    "build, blocks, moduli",
    [
        # the (Z_7, 3, 2) pair {1, 2, 4}, {3, 5, 6}
        (skew_from_df, [[(1,), (2,), (4,)], [(3,), (5,), (6,)]], (7,)),
        # the (16, 6, 2) set of the nonzero points on the axes of Z_4 x Z_4
        (hadamard_from_difference_set, [[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]], (4, 4)),
    ],
)
def test_claims_skip_a_z1_coordinate(build, blocks, moduli, monkeypatch):
    # a Z_1 coordinate's radix weight is no translation of G: with one in
    # front the builder claims what it claims without, and the gate sees
    # the same array and the same orbit rows
    seen = recording_gate(monkeypatch)
    for padded in ((1,) + moduli, moduli):
        build(_padded_family(padded, blocks))
    (M, claims), (plain, plain_claims) = seen
    assert len(claims) == len(plain_claims) == len(moduli)
    assert np.array_equal(M.entries, plain.entries)
    leasts = hadamard._orbit_leasts(M.entries, claims)
    assert leasts.tolist() == hadamard._orbit_leasts(plain.entries, plain_claims).tolist()


@pytest.mark.parametrize("tile", [3, 512])
@pytest.mark.parametrize("name, table", [("skew-q23", 1), ("symmetric-n3", 1), ("difference-set-64", 0)])
def test_developed_corruptions_keep_their_claims_and_fail(name, table, tile, monkeypatch):
    # one entry of a +-1 table (the skew signs_T, the symmetric 'second',
    # the difference set's signs) flipped: every block is still developed
    membership, made = hadamard._membership, []

    def flipped(group, codes):
        out = membership(group, codes)
        if len(made) == table:
            out[np.flatnonzero(out)[1]] = 0  # the second member leaves (never one of N)
        made.append(out)
        return out

    monkeypatch.setattr(hadamard, "_membership", flipped)
    seen = recording_gate(monkeypatch)
    with pytest.raises(hadamard.AssemblyError):
        BUILDERS[name][0]()
    M, claims = seen[-1]
    monkeypatch.setattr(hadamard, "_TILE_ROWS", tile)
    assert hadamard._orbit_leasts(M.entries, claims).size == BUILDERS[name][1]
    assert not assert_claims_agree(M, claims)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_single_entry_flips_fail_with_or_without_their_claims(name, monkeypatch):
    M, claims = built(name, monkeypatch)
    monkeypatch.setattr(hadamard, "_TILE_ROWS", 7)
    rng = random.Random(name)
    spots = [(0, 0), (M.order - 1, M.order - 1)]
    spots += [(rng.randrange(M.order), rng.randrange(M.order)) for _ in range(20)]
    for i, j in spots:
        A = M.entries.copy()
        A[i, j] = -A[i, j]
        assert not assert_claims_agree(SignMatrix(A), claims)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_malformed_claims_are_dropped(name, monkeypatch):
    M, claims = built(name, monkeypatch)
    rng = np.random.default_rng(len(name))
    sigma, tau = (np.asarray(p) for p in claims[0])
    repeat = sigma.copy()
    repeat[1] = repeat[0]
    bad = [
        (sigma[:-1], tau),  # wrong length
        (sigma, np.append(tau, 0)),
        (repeat, tau),  # not a permutation
        (sigma, -1 - tau),
        (sigma.astype(float), tau),  # not integers
        (sigma == 0, tau == 0),
        (rng.permutation(M.order), rng.permutation(M.order)),  # M is not invariant
        (np.roll(np.arange(M.order), 1), np.arange(M.order)),
    ]
    for claim in bad:
        assert hadamard._orbit_leasts(M.entries, [claim]).size == M.order
        assert assert_claims_agree(M, [claim])
    # the verified claims alone decide the orbits, whatever else is claimed
    leasts = hadamard._orbit_leasts(M.entries, claims)
    assert np.array_equal(hadamard._orbit_leasts(M.entries, bad + list(claims)), leasts)
    A = M.entries.copy()
    A[-1, 0] = -A[-1, 0]
    assert not assert_claims_agree(SignMatrix(A), bad + list(claims))


def test_orbits_close_under_claims_that_do_not_commute():
    # J - 2I of order 4 is Hadamard and invariant under every permutation
    # applied to rows and columns alike.  Claimed (1 2) then (0 2), one sweep
    # leaves row 1 looking least; the second sweep joins it to row 0's orbit.
    M = SignMatrix(np.ones((4, 4), dtype=np.int8) - 2 * np.eye(4, dtype=np.int8))
    swaps = [np.array([0, 2, 1, 3]), np.array([2, 1, 0, 3])]
    claims = [(p, p) for p in swaps]
    assert hadamard._orbit_leasts(M.entries, claims).tolist() == [0, 3]
    assert assert_claims_agree(M, claims)
    A = M.entries.copy()
    A[3, 3] = 1  # still invariant, no longer Hadamard
    assert hadamard._orbit_leasts(A, claims).tolist() == [0, 3]
    assert not assert_claims_agree(SignMatrix(A), claims)


def test_a_map_that_is_no_permutation_is_dropped_though_m_satisfies_it():
    # rows h0, h1, h2, h2 of the order-4 Sylvester matrix; swapping columns
    # 1 and 2 turns h1 into h2 and h2 into h1, so M[sigma[i], tau[j]] ==
    # M[i, j] holds for sigma = [0, 2, 1, 1], which folds row 3 onto row 1:
    # trusted, it would leave rows 0 and 1 only and pass the repeated row
    A = sylvester(2).entries[[0, 1, 2, 2]]
    sigma, tau = np.array([0, 2, 1, 1]), np.array([0, 2, 1, 3])
    assert np.array_equal(A[sigma][:, tau], A)
    assert hadamard._orbit_leasts(A, [(sigma, tau)]).size == 4
    assert not assert_claims_agree(SignMatrix(A), [(sigma, tau)])


@pytest.mark.parametrize("seed", range(12))
def test_developed_random_arrays_match_the_reference(seed, monkeypatch):
    # a random +-1 table developed over a small group: rarely Hadamard, so
    # the reduced rows must find the residual the full scan finds
    rng = random.Random(seed)
    group = FiniteAbelianGroup(rng.choice([(4,), (2, 2), (16,), (4, 4), (2, 2, 2, 2), (3, 5)]))
    signs = np.array([rng.choice((-1, 1)) for _ in range(group.order)], dtype=np.int8)
    codes = np.arange(group.order, dtype=group.code_dtype)
    A = np.empty((group.order, group.order), dtype=np.int8)
    claims = hadamard._develop(A, 0, group, group.weights, [[(np.subtract, signs, 1)]])
    assert np.array_equal(A, signs[group.cayley_rows(codes, np.subtract)])
    M = SignMatrix(A)
    monkeypatch.setattr(hadamard, "_TILE_ROWS", rng.choice([1, 3, 512]))
    assert hadamard._orbit_leasts(M.entries, claims).size == 1
    assert_claims_agree(M, claims)


@pytest.mark.parametrize(
    "build, rows",
    [
        (lambda: skew_from_df(szekeres_family(FieldCtx(11, 3)).family), 4),
        (lambda: symmetric_from_ddf(galois_ring_ddf(RingCtx(5)).family), 94),
        (_difference_set_64, 1),
    ],
)
def test_gate_multiplies_one_row_per_orbit(build, rows, monkeypatch):
    products, product = [], hadamard._exact_product

    def counted(X, Y=None, maxes=None):
        products.append(X.shape)
        return product(X, Y, maxes)

    monkeypatch.setattr(hadamard, "_exact_product", counted)
    M = build()
    M = getattr(M, "matrix", M)
    # one product per column tile, each of the orbit rows (the default
    # seed's own gate, if any, has a shorter inner dimension)
    tiles = -(-M.order // hadamard._TILE_ROWS)
    assert [x for x in products if x[1] == M.order] == [(rows, M.order)] * tiles
