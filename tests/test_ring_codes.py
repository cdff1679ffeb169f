"""GR(4,n) on additive and log codes against the tuple arithmetic it replaces.

The reference functions below are the tuple versions of ``galois_ring_data``,
``unit_quotient_family``, ``_coset_reps``, ``unit_group_iso`` and the
Teichmuller difference set that the library ran before its ring pipeline
moved onto one log/exp table pair per ring.  They multiply with the tuple
``RingCtx.mul`` and decompose units one by one; like the functions they
stand in for, they take and return additive codes, decoded on the way in
and encoded on the way out.  The tests require the code paths to give the
same tables, blocks, transversals, lambda_t arrays, isomorphisms and
provenance; the negative controls require a corrupted log table to be
refused by the isomorphism check, which never reads it.
"""

import math
import random

import numpy as np
import pytest

from designforge import constructions, designs
from designforge.constructions import (
    PreconditionError,
    cyclotomic_family,
    galois_ring_data,
    galois_ring_ddf,
    teichmuller_difference_set,
    trace_zero_default,
    unit_quotient_family,
)
from designforge.designs import Block, DifferenceFamily
from designforge.field import FieldCtx
from designforge.galois import RingCtx, gf2_coordinates, unit_group_iso
from designforge.groups import (
    FiniteAbelianGroup,
    GroupIso,
    Subgroup,
    closure_table,
)

# ---------------------------------------------------------------------------
# the tuple references
# ---------------------------------------------------------------------------


def ref_gf2_basis(vectors):
    """Gaussian elimination on tuples, in ascending polynomial order."""
    basis, echelon, pivots = [], [], []
    for v in sorted({tuple(v) for v in vectors}, key=lambda t: tuple(reversed(t))):
        w = list(v)
        for evec, piv in zip(echelon, pivots):
            if w[piv]:
                w = [(a + b) % 2 for a, b in zip(w, evec)]
        nz = next((i for i, c in enumerate(w) if c), None)
        if nz is not None:
            basis.append(v)
            echelon.append(tuple(w))
            pivots.append(nz)
    return basis


def ref_gf2_span_coords(basis, dim):
    """Every vector of the span of an ordered basis, mapped to its coordinates."""
    span = {(0,) * dim: (0,) * len(basis)}
    for k, b in enumerate(basis):
        for vec, coords in list(span.items()):
            new = tuple((a + c) % 2 for a, c in zip(vec, b))
            span[new] = coords[:k] + (1,) + coords[k + 1 :]
    return span


def _codes(ring, elements):
    """The additive codes of ring or field elements, in the given order."""
    return ring.additive_group().encode(list(elements))


def _elements(ring, codes):
    """The tuples of additive codes, as a set."""
    return frozenset(ring.additive_group().decode_elements(codes))


def ref_closure_generators(elements, identity, mul):
    """Generators of a set of tuples, or ValueError unless it is closed under
    the tuple product ``mul``: ``closure_table`` on the sorted tuples."""
    members = sorted(frozenset(elements))
    if identity not in members:
        raise ValueError(f"not a subgroup: the identity {identity!r} is missing")
    position = {x: p for p, x in enumerate(members)}

    def op(a, b):
        pairs = zip(a.tolist(), b.tolist())
        return np.array([position.get(mul(members[i], members[j]), -1) for i, j in pairs], dtype=np.int64)

    gens, _ = closure_table(len(members), position[identity], op, members.__getitem__)
    return [members[g] for g in gens]


def tuple_mul_on_codes(ring):
    """The tuple ``ring.mul``, lifted to arrays of additive codes."""
    group = ring.additive_group()

    def mul(a, b):
        pairs = zip(group.decode_elements(a), group.decode_elements(b))
        return group.encode([ring.mul(x, y) for x, y in pairs]).astype(np.int64)

    return mul


def ref_unit_group_iso(ring, subgroup):
    """Per-unit ``unit_decompose``, the span dict and a tuple-multiplied check."""
    m = 2**ring.n - 1
    decomps = {x: ring.unit_decompose(x) for x in _elements(ring, subgroup)}
    g0 = math.gcd(m, *(d.a0_exponent for d in decomps.values()))
    d_order = m // g0
    basis = ref_gf2_basis(
        [ring.residue_of(dec.a1) for dec in decomps.values() if dec.a0_exponent == 0]
    )
    span = ref_gf2_span_coords(basis, ring.n)
    moduli = ([d_order] if d_order > 1 else []) + [2] * len(basis)
    forward = {}
    for x, dec in decomps.items():
        coords = (dec.a0_exponent // g0 % d_order,) if d_order > 1 else ()
        forward[x] = (coords + span[ring.residue_of(dec.a1)]) or (0,)
    codomain = FiniteAbelianGroup(moduli or [1])
    group, members = ring.additive_group(), sorted(forward)
    iso = GroupIso(
        codomain,
        group,
        group.encode(members),
        codomain.encode([forward[x] for x in members]),
        mul=tuple_mul_on_codes(ring),
        one=group.index(ring.one),
        domain="reference",
    )
    iso.verify()
    return iso


def ref_galois_ring_data(ring, u=None, subgroup=None):
    field = ring.residue
    if u is None:
        u = trace_zero_default(field)
    E = frozenset(x for x in field.elements() if field.trace(field.mul(u, x)) == 0)
    lifts = [ring.lift(x) for x in sorted(E, key=field.encode)]
    D = frozenset(
        ring.mul(a, ring.add(ring.one, ring.mul(ring.two, b)))
        for a in ring.teichmuller[1:]
        for b in lifts
    )
    N = D if subgroup is None else _elements(ring, subgroup)
    ref_closure_generators(N, ring.one, ring.mul)
    L = frozenset(N & set(ring.principal_units()))
    group = ring.additive_group()
    return constructions.GR4Data(
        ring, u, ring.residue_group().code_set(E), group.code_set(D), group.code_set(N),
        group.code_set(L),
    )


def ref_unit_quotient_family(ring, blocks, subgroup, reps):
    group = ring.additive_group()
    N = _elements(ring, subgroup)
    blocks = [_elements(ring, b) for b in blocks]
    reps = group.decode_elements(reps)
    one = ring.one
    gens = ref_closure_generators(N, one, ring.mul)
    for D in blocks:
        for g in gens:
            if frozenset(ring.mul(g, d) for d in D) != D:
                raise PreconditionError("not fixed")
    covered = set()
    for y in reps:
        coset = {ring.mul(y, x) for x in N}
        if covered & coset:
            raise PreconditionError("repeats")
        covered |= coset
    if len(covered) != sum(1 for _ in ring.units()):
        raise PreconditionError("covers")
    report = designs.verify(
        DifferenceFamily(group, Subgroup.trivial(group), [Block.from_elements(group, D) for D in blocks])
    )
    out_blocks = []
    for i, D in enumerate(blocks):
        for y in reps:
            y_inv = ring.inv(y)
            shifted = frozenset(ring.mul(y_inv, ring.sub(d, one)) for d in D)
            out_blocks.append((i, group.index(y), group.code_set(shifted & N)))
    ideal_plus_one = [ring.add(z, one) for z in ring.nonunits()]
    lambda_t = [
        sum(
            1
            for D in blocks
            for z in ideal_plus_one
            if z in D and ring.add(z, ring.sub(t, one)) in D
        )
        for t in sorted(N)
    ]
    return constructions.QuotientFamilyResult(
        out_blocks, report.mu, group.code_set(N), np.array(lambda_t)
    )


def quotient_outputs(result):
    """The fields of a ``QuotientFamilyResult`` as comparable lists."""
    return (
        [(i, y, sub.tolist()) for i, y, sub in result.blocks],
        result.base_lambda,
        result.subgroup.tolist(),
        result.lambda_t.tolist(),
    )


def ref_coset_reps(ring, N):
    N = _elements(ring, N)
    principal = ring.principal_units()
    found = []
    covered = set()
    for u in ring.units():
        if u in covered:
            continue
        coset = frozenset(ring.mul(u, x) for x in N)
        least = min(coset)
        found.append((least, next((y for y in principal if y in coset), least)))
        covered |= coset
    found.sort(key=lambda pair: (pair[1] != ring.one, pair[0]))
    return _codes(ring, [rep for _, rep in found])


def ref_teichmuller_members(ring, u=None):
    D = _elements(ring, ref_galois_ring_data(ring, u).D)
    return frozenset(x for x in ring.teichmuller[1:] if ring.sub(x, ring.two) in D)


def test_gf2_coordinates_match_the_tuple_elimination():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        group = FiniteAbelianGroup((2,) * n)
        vectors = [group.element(rng.randrange(2**n)) for _ in range(rng.randint(0, 5))]
        basis, coords = gf2_coordinates([group.index(v) for v in vectors], n)
        ref_basis = ref_gf2_basis(vectors)
        assert [group.element(b) for b in basis] == ref_basis
        coord_group = FiniteAbelianGroup((2,) * len(basis) or (1,))
        ref_span = ref_gf2_span_coords(ref_basis, n)
        for v in group.elements():
            want = ref_span.get(v)
            got = int(coords[group.index(v)])
            assert got == (-1 if want is None else coord_group.index(want or (0,)))


@pytest.fixture
def with_references(monkeypatch):
    """Run the constructions with the tuple references in place of the code paths."""

    def install():
        monkeypatch.setattr(constructions, "galois_ring_data", ref_galois_ring_data)
        monkeypatch.setattr(constructions, "unit_quotient_family", ref_unit_quotient_family)
        monkeypatch.setattr(constructions, "_coset_reps", ref_coset_reps)
        monkeypatch.setattr(constructions, "unit_group_iso", ref_unit_group_iso)

    return install


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_log_table_matches_unit_decompose(n):
    ring = RingCtx(n)
    tables = ring.unit_tables
    group, residues = ring.additive_group(), ring.residue_group()
    units = list(ring.units())
    assert len(units) == tables.exp.size == (2**n - 1) * 2**n
    for x in units:
        dec = ring.unit_decompose(x)
        log = int(tables.log[group.index(x)])
        assert (log >> n, log & (2**n - 1)) == (
            dec.a0_exponent,
            residues.index(ring.residue_of(dec.a1)),
        ), x


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exp_inverts_log_and_log_marks_the_nonunits(n):
    ring = RingCtx(n)
    tables = ring.unit_tables
    group = ring.additive_group()
    unit_codes = group.encode(list(ring.units()))
    assert np.array_equal(tables.exp[tables.log[unit_codes]], unit_codes)
    nonunit_codes = group.encode(list(ring.nonunits()))
    assert nonunit_codes.size == 4**n - unit_codes.size
    assert (tables.log[nonunit_codes] == -1).all()
    assert (tables.log >= 0).sum() == unit_codes.size


@pytest.mark.parametrize("n", range(1, 13))
def test_teichmuller_residues_are_the_residue_field_exp_table(n):
    # RingCtx.unit_tables reads the residue product off the residue field's
    # own exp/log pair, which holds only if its generator is xbar
    ring = RingCtx(n)
    group, residues = ring.additive_group(), ring.residue_group()
    teich = group.encode(ring.teichmuller[1:])  # xi^0, ..., xi^(2^n - 2)
    assert np.array_equal(residues.encode(group.decode(teich) % 2), ring.residue.unit_tables.exp)


def test_unit_tables_are_read_only():
    tables = RingCtx(3).unit_tables
    for table in (tables.exp, tables.log):
        with pytest.raises(ValueError):
            table[0] = 0


def test_unit_tables_multiply_like_the_ring():
    rng = random.Random(5)
    for n in (2, 3, 5):
        ring = RingCtx(n)
        tables, group = ring.unit_tables, ring.additive_group()
        units = sorted(ring.units())
        elements = sorted(ring.elements())
        for _ in range(300):
            x, y, z = rng.choice(units), rng.choice(units), rng.choice(elements)
            lx, ly = (int(tables.log[group.index(a)]) for a in (x, y))
            # units multiply by the log group's code_add and invert by its code_sub from 0
            product = tables.group.code_add(np.array([lx]), ly)[0]
            inverse = tables.group.code_sub(0, np.array([lx]))[0]
            assert group.element(int(tables.exp[product])) == ring.mul(x, y)
            assert group.element(int(tables.exp[inverse])) == ring.inv(x)
            scaled = tables.scale(lx, np.array([group.index(z)]))
            assert group.element(int(scaled[0])) == ring.mul(x, z)


def test_field_tables_are_the_field_logs():
    for ctx in (FieldCtx(7), FieldCtx(2, 4), FieldCtx(3, 3)):
        tables, group = ctx.unit_tables, ctx.additive_group()
        assert tables.bits == 0 and tables.m == ctx.q - 1
        for x in ctx.nonzero_elements():
            assert int(tables.log[group.index(x)]) == ctx.discrete_log(x)
        assert int(tables.log[group.index(ctx.zero)]) == -1


def test_batched_product_matches_the_tuple_product():
    rng = random.Random(11)
    for n in range(1, 8):
        ring = RingCtx(n)
        group = ring.additive_group()
        pairs = [(group.element(rng.randrange(4**n)), group.element(rng.randrange(4**n)))
                 for _ in range(200)]
        got = ring.mul_codes(
            group.encode([a for a, _ in pairs]), group.encode([b for _, b in pairs])
        )
        assert [group.element(int(c)) for c in got] == [ring.mul(a, b) for a, b in pairs]


# ---------------------------------------------------------------------------
# the pipeline against the references
# ---------------------------------------------------------------------------


def _ddf_outputs(res):
    return (
        res.y,
        [b.elements for b in res.family.blocks],
        res.family.forbidden.elements,
        res.family.provenance,
        quotient_outputs(res.quotient),
        res.iso.codomain,
        res.iso.forward,
        [codes.tolist() for codes in (res.data.E, res.data.D, res.data.subgroup, res.data.L)],
    )


def _trace_zero_exponents(ring):
    field = ring.residue
    return [i for i in range(field.q - 1) if field.trace(field.g_pow(i)) == 0]


def _ddf_cases():
    cases = [(n, None, False) for n in (2, 3, 4, 5)]
    cases += [(n, None, True) for n in (2, 3, 4, 5)]
    cases += [(5, i, False) for i in _trace_zero_exponents(RingCtx(5))]
    return cases


@pytest.mark.parametrize("n, u, include_ideal", _ddf_cases())
def test_galois_ring_ddf_matches_the_tuple_pipeline(n, u, include_ideal, with_references):
    ring = RingCtx(n)
    u = None if u is None else ring.residue.g_pow(u)
    got = galois_ring_ddf(ring, u=u, include_ideal=include_ideal)
    if got.y is not None:
        assert got.family.provenance["y"] == ring.unit_decompose(got.y).a1_index
    with_references()
    want = galois_ring_ddf(RingCtx(n), u=u, include_ideal=include_ideal)
    assert _ddf_outputs(got) == _ddf_outputs(want)


def _subgroups(ring):
    """Unit subgroups of D with nontrivial transversals: T^*, the principal
    part of D, and the squares of D."""
    D = _elements(ring, ref_galois_ring_data(ring).D)
    teich = frozenset(ring.teichmuller[1:])
    principal = D & frozenset(ring.principal_units())
    squares = frozenset(ring.mul(x, x) for x in D)
    return [teich, principal, squares]


@pytest.mark.parametrize("n", [3, 4])
def test_subgroup_families_match_the_tuple_pipeline(n, with_references):
    ring = RingCtx(n)
    got = [galois_ring_ddf(ring, subgroup=N) for N in _subgroups(ring)]
    with_references()
    want = [galois_ring_ddf(ring, subgroup=N) for N in _subgroups(ring)]
    assert [_ddf_outputs(r) for r in got] == [_ddf_outputs(r) for r in want]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coset_reps_match_the_tuple_scan(n):
    ring = RingCtx(n)
    for N in _subgroups(ring) + [frozenset({ring.one}), frozenset(ring.units())]:
        N = ring.additive_group().code_set(N)
        assert constructions._coset_reps(ring, N).tolist() == ref_coset_reps(ring, N).tolist()


@pytest.mark.parametrize(
    "p, r, e, with_zero",
    [(7, 1, 2, False), (3, 3, 2, False), (37, 1, 4, False), (13, 1, 4, True), (73, 1, 8, False)],
)
def test_cyclotomic_family_matches_the_tuple_pipeline(p, r, e, with_zero, with_references):
    ctx = FieldCtx(p, r)
    got = cyclotomic_family(ctx, e, with_zero)
    with_references()
    want = cyclotomic_family(ctx, e, with_zero)
    assert quotient_outputs(got.quotient) == quotient_outputs(want.quotient)
    assert got.family.blocks == want.family.blocks
    assert got.family.report.summary() == want.family.report.summary()


def test_quotient_machine_matches_on_degenerate_inputs():
    # the trivial subgroup with every unit as a representative, and D with 2R
    ctx = FieldCtx(7)
    args = (ctx, [_codes(ctx, ctx.mult_subgroup(2))], [1], np.arange(1, 7))
    assert quotient_outputs(unit_quotient_family(*args)) == quotient_outputs(
        ref_unit_quotient_family(*args)
    )
    ring = RingCtx(3)
    N = _elements(ring, galois_ring_data(ring).D)
    y = next(w for w in ring.principal_units() if w not in N)
    args = (
        ring, [_codes(ring, N | frozenset(ring.nonunits()))], _codes(ring, N),
        _codes(ring, [ring.one, y]),
    )
    assert quotient_outputs(unit_quotient_family(*args)) == quotient_outputs(
        ref_unit_quotient_family(*args)
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_teichmuller_set_matches_the_tuple_scan(n):
    ring = RingCtx(n)
    codes = teichmuller_difference_set(ring).codes
    assert np.array_equal(codes, np.sort(codes))
    assert frozenset(ring.additive_group().decode_elements(codes)) == ref_teichmuller_members(ring)


def test_unit_group_iso_matches_the_tuple_decomposition():
    for n in (2, 3, 4):
        ring = RingCtx(n)
        for N in _subgroups(ring) + [frozenset(ring.units())]:
            N = _codes(ring, N)
            got, want = unit_group_iso(ring, N), ref_unit_group_iso(ring, N)
            assert got.codomain == want.codomain
            assert got.forward == want.forward


# ---------------------------------------------------------------------------
# negative controls: the check never reads the table it checks
# ---------------------------------------------------------------------------


def _swap_logs(ring, a, b):
    """Rebuild the ring's tables with the log codes of units a and b swapped.

    exp is swapped to match, so the pair still passes its bijection check and
    the two tables still invert each other: only a product computed without
    them can tell.
    """
    tables, group = ring.unit_tables, ring.additive_group()
    la, lb = (int(tables.log[group.index(x)]) for x in (a, b))
    exp = tables.exp.copy()
    exp[[la, lb]] = exp[[lb, la]]
    ring.unit_tables = tables.from_exp(tables.additive, tables.m, tables.bits, exp, tables.log >= 0)
    assert int(ring.unit_tables.log[group.index(a)]) == lb


@pytest.mark.parametrize("n", [3, 5])
def test_swapped_log_entries_are_refused_with_a_witness(n):
    ring = RingCtx(n)
    xi2 = ring.mul(ring.xi, ring.xi)
    _swap_logs(ring, ring.xi, xi2)
    with pytest.raises(ValueError, match=r"not a homomorphism at \(\(.*\), \(.*\)\): "):
        unit_group_iso(ring, _codes(ring, ring.units()))
    # both units lie in D, so D keeps its log codes and only the isomorphism
    # check can notice; the construction refuses rather than emit a family
    with pytest.raises(ValueError, match="not a homomorphism"):
        galois_ring_ddf(ring)


def test_swapped_log_entries_across_d_are_refused():
    ring = RingCtx(4)
    data = galois_ring_data(ring)
    outside = next(w for w in ring.principal_units() if w not in _elements(ring, data.D))
    _swap_logs(ring, ring.xi, outside)
    # D is built from the swapped logs; its one oracle run refuses it as a
    # failed check of a library-built set
    with pytest.raises(RuntimeError, match="not a difference family in R\\^\\+"):
        galois_ring_ddf(ring)


def test_closure_table_terminates_when_the_op_is_no_group_law():
    # a generator that the identity does not fix is still counted as reached,
    # so the doubling makes progress and the verdict comes from the table
    gens, table = closure_table(2, 0, lambda a, b: np.zeros_like(a))
    assert gens == [1] and table.tolist() == [[0], [0]]
