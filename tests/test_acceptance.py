"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime budgets are asserted with perf_counter; all numeric checks are exact.
"""

import itertools
import random
import sys
import time

import numpy as np
import pytest

from designforge import designs, hadamard, search
from designforge.constructions import (
    block_symmetry_report,
    cyclotomic_family,
    galois_ring_data,
    galois_ring_ddf,
    szekeres_family,
    szekeres_inverse_identity,
    teichmuller_difference_set,
)
from designforge.designs import Block, DesignParams, DifferenceFamily, one_rotational_design
from designforge.field import FieldCtx, factorize
from designforge.galois import RingCtx
from designforge.groups import FiniteAbelianGroup, Subgroup
from designforge.hadamard import (
    build_symmetric_parts,
    check_symmetric_conditions,
    hadamard_failure,
    identity_checks,
    is_hadamard,
    is_symmetric,
    skew_from_df,
    sylvester,
    symmetric_from_ddf,
)

REFERENCE_D1 = {
    "103", "232", "322", "112", "211", "111",
    "231", "121", "300", "332", "212", "331",
}
REFERENCE_D2 = {
    "233", "322", "332", "113", "213", "121",
    "010", "333", "103", "300", "112", "030",
}

_GR_CACHE = {}


def gr_ddf(n):
    if n not in _GR_CACHE:
        _GR_CACHE[n] = galois_ring_ddf(RingCtx(n))
    return _GR_CACHE[n]


_WRITE = [lambda line: sys.__stdout__.write(line + "\n")]


@pytest.fixture(scope="session", autouse=True)
def _route_reports_through_pytest(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        _WRITE[0] = reporter.write_line
    yield


def report(number: int, description: str, elapsed: float, ok: bool = True) -> None:
    status = "PASS" if ok else "FAIL"
    _WRITE[0](f"ACCEPTANCE {number:2d} {description}: {status} ({elapsed:.2f}s)")


def test_criterion_01_example_reproduction():
    t0 = time.perf_counter()
    try:
        ring = RingCtx(3)
        assert ring.modulus == (3, 2, 3, 1)
        res = gr_ddf(3)
        d1, d2 = (ring.additive_group().decode_elements(sub) for _, _, sub in res.quotient.blocks)
        assert {ring.format(x) for x in d1} == REFERENCE_D1
        assert {ring.format(x) for x in d2} == REFERENCE_D2
        rep = designs.verify(res.family)
        assert rep.ok and rep.sizes == (12, 12) and (rep.lam, rep.mu) == (8, 10)
        assert res.family.forbidden.order == 4
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    except BaseException:
        report(1, "reference blocks for n=3 reproduced exactly", time.perf_counter() - t0, False)
        raise
    report(1, "reference blocks for n=3 reproduced exactly", elapsed)


def test_criterion_02_parameter_sweep():
    t0 = time.perf_counter()
    expected = {
        3: (12, 8, 10),
        4: (56, 48, 52),
        5: (240, 224, 232),
    }
    try:
        for n, (k, lam, mu) in expected.items():
            rep = designs.verify(gr_ddf(n).family)
            assert rep.ok, (n, rep.summary())
            assert rep.sizes == (k, k), (n, rep.sizes)
            assert (rep.lam, rep.mu) == (lam, mu), (n, rep.lam, rep.mu)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    except BaseException:
        report(2, "unit-family parameters for n=3,4,5", time.perf_counter() - t0, False)
        raise
    report(2, "unit-family parameters for n=3,4,5", elapsed)


def test_criterion_03_block_symmetries():
    t0 = time.perf_counter()
    try:
        for n in (3, 4, 5):
            rep = block_symmetry_report(gr_ddf(n))
            assert rep.ok, (n, rep.witness)
            assert rep.expected_count == 2 ** (n - 2)
            assert rep.coset_counts[0] == (0, 0)
            for j, counts in rep.coset_counts.items():
                if j:
                    assert counts == (2 ** (n - 2), 2 ** (n - 2)), (n, j, counts)
    except BaseException:
        report(3, "negation symmetry and coset balance for n=3,4,5",
               time.perf_counter() - t0, False)
        raise
    report(3, "negation symmetry and coset balance for n=3,4,5", time.perf_counter() - t0)


def test_criterion_04_teichmuller_difference_sets():
    t0 = time.perf_counter()
    expected = {3: (7, 3, 1), 4: (15, 7, 3), 5: (31, 15, 7)}
    try:
        for n, (v, k, lam) in expected.items():
            res = teichmuller_difference_set(RingCtx(n))
            rep = designs.verify(res.family)
            assert rep.ok and rep.sizes == (k,) and rep.mu == lam
            assert res.family.ambient.order == v
    except BaseException:
        report(4, "shifted-set difference sets for n=3,4,5", time.perf_counter() - t0, False)
        raise
    report(4, "shifted-set difference sets for n=3,4,5", time.perf_counter() - t0)


def _prime_powers_3_mod_4(lo: int, hi: int):
    out = []
    for q in range(lo, hi + 1):
        if q % 4 != 3:
            continue
        if len(factorize(q)) == 1:
            out.append(q)
    return out


def test_criterion_05_szekeres_sweep():
    t0 = time.perf_counter()
    qs = _prime_powers_3_mod_4(7, 1024)
    try:
        assert len(qs) >= 80  # sanity: primes and 27, 243, 343
        for q in qs:
            (p, r), = factorize(q).items()
            ctx = FieldCtx(p, r)
            lam = (q - 7) // 4
            k = (q - 3) // 4
            rep1 = designs.verify(szekeres_family(ctx).family)
            assert rep1.ok and rep1.mu == lam and rep1.sizes == (k, k), q
            rep2 = designs.verify(cyclotomic_family(ctx, 2).family)
            assert rep2.ok and rep2.mu == lam and rep2.sizes == (k, k), q
            lhs, rhs = szekeres_inverse_identity(ctx)
            assert lhs == rhs, q
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    except BaseException:
        report(5, f"two-block families for all {len(qs)} prime powers q=3(4) up to 1024",
               time.perf_counter() - t0, False)
        raise
    report(5, f"two-block families for all {len(qs)} prime powers q=3(4) up to 1024", elapsed)


def test_criterion_06_quartic_octic_families_and_development():
    t0 = time.perf_counter()
    try:
        rep = designs.verify(cyclotomic_family(FieldCtx(37), 4).family)
        assert rep.ok and rep.mu == 1 and rep.sizes == (2, 2, 2, 2)
        rep = designs.verify(cyclotomic_family(FieldCtx(73), 8).family)
        assert rep.ok and rep.mu == 0 and rep.sizes == (1,) * 8
        for q in (11, 19, 23, 31):
            lam = (q - 3) // 4
            rep = designs.verify(cyclotomic_family(FieldCtx(q), 2, with_zero=True).family)
            assert rep.ok and rep.mu == lam
            assert rep.sizes == tuple(sorted((lam, lam + 1))), q
        rep = designs.verify(cyclotomic_family(FieldCtx(13), 4, with_zero=True).family)
        assert rep.ok and rep.mu == 0 and rep.sizes == (0, 1, 1, 1)
        rep = designs.verify(cyclotomic_family(FieldCtx(109), 4, with_zero=True).family)
        assert rep.ok and rep.mu == 6 and rep.sizes == (6, 7, 7, 7)
        design = one_rotational_design(cyclotomic_family(FieldCtx(11), 2, with_zero=True).family)
        assert design.lam == 2
        assert len(design.points) == 6 and len(design.blocks) == 10
        assert all(len(b) == 3 for b in design.blocks)
        assert design.report.ok and design.report.mu == 2
    except BaseException:
        report(6, "index-4/8 families and the pointed 2-(6,3,2) design",
               time.perf_counter() - t0, False)
        raise
    report(6, "index-4/8 families and the pointed 2-(6,3,2) design", time.perf_counter() - t0)


def test_criterion_07_skew_hadamard():
    t0 = time.perf_counter()
    try:
        for q, order in ((7, 8), (11, 12), (19, 20), (23, 24)):
            M = skew_from_df(szekeres_family(FieldCtx(q)).family).matrix
            assert M.order == order
            A = M.entries
            eye = np.eye(order, dtype=np.int64)
            assert np.array_equal(A @ A.T, order * eye)
            assert np.array_equal(A + A.T, 2 * eye)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    except BaseException:
        report(7, "skew Hadamard matrices of orders 8,12,20,24", time.perf_counter() - t0, False)
        raise
    report(7, "skew Hadamard matrices of orders 8,12,20,24", elapsed)


def _z6_family():
    spec = search.SearchSpec(
        group=FiniteAbelianGroup((6,)),
        forbidden=Subgroup.from_elements(FiniteAbelianGroup((6,)), [(0,), (3,)]),
        m=4,
    )
    return search.search_ddf(spec)[0].family


def test_criterion_08_symmetric_hadamard():
    t0 = time.perf_counter()
    try:
        res16 = symmetric_from_ddf(_z6_family())
        assert res16.matrix.order == 16
        for n, order in ((3, 64), (4, 256), (5, 1024)):
            res = symmetric_from_ddf(gr_ddf(n).family)
            assert res.matrix.order == order
            A = res.matrix.entries.astype(np.int64)
            assert np.array_equal(A, A.T)
            assert np.array_equal(A @ A.T, order * np.eye(order, dtype=np.int64))
            if n == 3:
                checks = identity_checks(res.parts)
                assert len(checks) == 13 and sorted({c.number for c in checks}) == list(range(1, 11))
                assert all(c.ok for c in checks), [c for c in checks if not c.ok]
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"
    except BaseException:
        report(8, "symmetric Hadamard matrices of orders 16,64,256,1024",
               time.perf_counter() - t0, False)
        raise
    report(8, "symmetric Hadamard matrices of orders 16,64,256,1024", elapsed)


def test_criterion_09_representative_robustness():
    t0 = time.perf_counter()
    try:
        fam = gr_ddf(3).family
        for seed in range(5):
            res = symmetric_from_ddf(fam, coset_assignment=random.Random(seed))
            assert is_hadamard(res.matrix) and is_symmetric(res.matrix), seed
        ring = RingCtx(3)
        data = galois_ring_data(ring)
        candidates = [w for w in ring.principal_units() if ring.additive_group().index(w) not in data.D]
        assert len(candidates) == 4
        for y in candidates:
            res = symmetric_from_ddf(galois_ring_ddf(ring, y=y).family)
            assert is_hadamard(res.matrix) and is_symmetric(res.matrix), y
    except BaseException:
        report(9, "order-64 robust to coset assignment and y choice",
               time.perf_counter() - t0, False)
        raise
    report(9, "order-64 robust to coset assignment and y choice", time.perf_counter() - t0)


def test_criterion_10_search_completeness():
    t0 = time.perf_counter()
    try:
        g = FiniteAbelianGroup((6,))
        n = Subgroup.from_elements(g, [(0,), (3,)])
        spec = search.SearchSpec(group=g, forbidden=n, m=4)
        certs = search.search_ddf(spec)
        assert all(c.replay() for c in certs)
        found = {
            frozenset((c.family.blocks[0].elements, c.family.blocks[1].elements))
            for c in certs
        }
        oracle = set()
        for d1 in itertools.combinations(list(g.elements()), 2):
            for d2 in itertools.combinations(list(g.elements()), 2):
                fam = DifferenceFamily(
                    g, n,
                    [Block.from_elements(g, frozenset(d1)), Block.from_elements(g, frozenset(d2))],
                    DesignParams(0, 1, (2, 2)),
                )
                if designs.verify(fam).ok and check_symmetric_conditions(fam, 4).ok:
                    oracle.add(frozenset((frozenset(d1), frozenset(d2))))
        assert found == oracle and len(certs) == len(oracle)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    except BaseException:
        report(10, "exhaustive search matches the all-pairs oracle",
               time.perf_counter() - t0, False)
        raise
    report(10, "exhaustive search matches the all-pairs oracle", elapsed)


def test_criterion_11_negative_controls():
    t0 = time.perf_counter()
    try:
        # families: swap one element of a passing instance
        g = FiniteAbelianGroup((6,))
        n = Subgroup.from_elements(g, [(0,), (3,)])
        good = DifferenceFamily(
            g, n, [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (2,)}))]
        )
        assert designs.verify(good).ok
        bad = DifferenceFamily(
            g, n, [Block.from_elements(g, frozenset({(1,), (5,)})), Block.from_elements(g, frozenset({(1,), (4,)}))]
        )
        rep = designs.verify(bad)
        assert not rep.ok and rep.witness is not None

        # group divisible development: drop one block
        blocks = [b.elements for b in designs.develop(good)]
        groups = [[(0,), (3,)], [(1,), (4,)], [(2,), (5,)]]
        assert designs.verify_gdd(blocks, groups).ok
        gdd = designs.verify_gdd(blocks[:-1], groups)
        assert not gdd.ok and gdd.witness is not None

        # Hadamard: flip a single entry
        M = sylvester(3)
        assert hadamard_failure(M) is None
        flipped = M.entries.copy()
        flipped[3, 4] *= -1
        witness = hadamard_failure(hadamard.SignMatrix(flipped))
        assert witness is not None and "rows" in witness

        # array identities: perturb one entry of a part
        parts = build_symmetric_parts(_z6_family(), sylvester(2))
        assert all(c.ok for c in identity_checks(parts))
        parts.Bp[0, 0] *= -1
        failing = [c for c in identity_checks(parts) if not c.ok]
        assert failing and all("mismatch at" in c.detail for c in failing)
    except BaseException:
        report(11, "every verifier fails with a witness on perturbation",
               time.perf_counter() - t0, False)
        raise
    report(11, "every verifier fails with a witness on perturbation", time.perf_counter() - t0)
