"""Difference-family constructions in finite fields and Galois rings GR(4,n).

Every construction returns its family together with the raw field- or
ring-level blocks, held as sorted additive codes and nothing decoded from them
(``decode_elements`` of the field's or ring's additive group gives the
tuples).  Nothing leaves this module unverified: the exhaustive oracle in
designs.py is run once on each output family, which carries the report as
``family.report``, and once on each source difference set, and the
derived-family identity theta(t) = lambda - lambda_t is checked pointwise for
every construction routed through the generic quotient machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import designs
from .designs import Block, DesignParams, DifferenceFamily
from .field import FieldCtx, UnitTables, isqrt_exact
from .galois import RingCtx, unit_group_iso
from .groups import FiniteAbelianGroup, GroupIso, Subgroup

Element = Tuple[int, ...]


class PreconditionError(ValueError):
    """A construction precondition (diophantine or structural) failed."""


def _verified(family: DifferenceFamily, failure: str, need_mu: bool = False) -> DifferenceFamily:
    """The family, carrying its oracle verdict, or RuntimeError(f"{failure}:
    {summary}") if that fails or, with ``need_mu``, realizes no mu."""
    report = designs.verify(family)
    if not report.ok or (need_mu and report.mu is None):
        raise RuntimeError(f"{failure}: {report.summary()}")
    return family


# -- cyclotomic difference sets -------------------------------------------------


@dataclass
class CyclotomicDS:
    """A multiplicative-subgroup difference set in the additive group of GF(q)."""

    ctx: FieldCtx
    e: int
    with_zero: bool
    codes: np.ndarray  # sorted additive codes of the set
    q: int
    k: int
    lam: int


def _check_cyclotomic_conditions(q: int, e: int, with_zero: bool) -> None:
    """The exact arithmetic conditions under which the subgroup is a difference
    set; the index is checked first, before anything divides by it."""
    if e not in (2, 4, 8):
        raise PreconditionError(f"index e={e} is not one of 2, 4, 8")
    if (q - 1) % e != 0:
        raise PreconditionError(f"e={e} does not divide q-1={q - 1}")
    if e == 2:
        if q % 4 != 3:
            raise PreconditionError(f"q={q} fails q = 3 (mod 4)")
        return
    if e == 4 and not with_zero:
        t2, rem = divmod(q - 1, 4)
        t = isqrt_exact(t2)
        if rem or t is None or t % 2 == 0:
            raise PreconditionError(f"q={q} fails q = 1 + 4t^2 with t odd")
        return
    if e == 4 and with_zero:
        t2, rem = divmod(q - 9, 4)
        t = isqrt_exact(t2) if q > 9 else None
        if rem or t is None or t % 2 == 0:
            raise PreconditionError(f"q={q} fails q = 9 + 4t^2 with t odd")
        return
    if not with_zero:
        a = isqrt_exact((q - 9) // 64) if (q - 9) % 64 == 0 else None
        b = isqrt_exact((q - 1) // 8) if (q - 1) % 8 == 0 else None
        if a is None or b is None or a % 2 == 0 or b % 2 == 0:
            raise PreconditionError(
                f"q={q} fails q = 9 + 64a^2 = 1 + 8b^2 with a, b odd"
            )
        return
    a = isqrt_exact((q - 441) // 64) if (q - 441) % 64 == 0 else None
    b = isqrt_exact((q - 49) // 8) if (q - 49) % 8 == 0 else None
    if a is None or b is None or a % 2 == 1 or b % 2 == 0:
        raise PreconditionError(
            f"q={q} fails q = 441 + 64a^2 = 49 + 8b^2 with a even, b odd"
        )


def _cyclotomic_codes(ctx: FieldCtx, e: int, with_zero: bool) -> np.ndarray:
    """Additive codes of the index-e multiplicative subgroup (with 0 if asked)
    once `_check_cyclotomic_conditions` passes; the caller's oracle run verifies the set."""
    _check_cyclotomic_conditions(ctx.q, e, with_zero)
    codes = ctx.unit_tables.exp[::e]  # the index-e subgroup: the log codes divisible by e
    return np.append(codes, 0) if with_zero else codes


def cyclotomic_difference_set(
    ctx: FieldCtx, e: int, with_zero: bool = False
) -> CyclotomicDS:
    """The index-e multiplicative subgroup (optionally with 0) as a difference set.

    The arithmetic precondition on q is checked exactly with integer square
    roots, and the resulting set is verified by brute force in the additive
    group before being returned.
    """
    q = ctx.q
    codes = _cyclotomic_codes(ctx, e, with_zero)
    group = ctx.unit_tables.additive
    k = codes.size
    lam = k * (k - 1) // (q - 1)  # exact: every closed form above implies it
    family = _verified(DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, codes)],
        declared=DesignParams(None, lam, (k,)),
    ), "cyclotomic set failed verification")
    return CyclotomicDS(ctx, e, with_zero, family.blocks[0].codes, q, k, lam)


# -- the generic quotient machine ----------------------------------------------


@dataclass(eq=False)
class QuotientFamilyResult:
    """Blocks y^(-1)(D_i - 1) ∩ N over a transversal, with the lost counts.

    Everything is held as the ring's additive codes.  ``lambda_t[j]`` is the
    number of pairs lost to the nonunit translates at t = ``subgroup[j]``;
    the derived family's difference count at t != 1 is
    ``base_lambda - lambda_t[j]``.
    """

    blocks: List[Tuple[int, int, np.ndarray]]  # (block index, rep, sorted subset)
    base_lambda: int
    subgroup: np.ndarray  # N, sorted
    lambda_t: np.ndarray  # aligned with ``subgroup``


def unit_quotient_family(
    ring,
    blocks: Sequence[np.ndarray],
    subgroup: np.ndarray,
    reps: np.ndarray,
) -> QuotientFamilyResult:
    """Derive blocks inside a unit subgroup N from a difference family in R^+.

    ``ring`` may be a FieldCtx or RingCtx; both expose ``unit_tables``, and
    the blocks, N and the transversal ``reps`` are given as additive codes,
    so everything runs on additive and log codes.  Each input block must be
    fixed setwise by N, and ``reps`` must be a complete transversal of R^*/N
    (PreconditionError otherwise).  Closure of N and invariance of the blocks
    are checked completely on a generating set of N.  The input family must
    verify as a difference family in the additive group; this is the only
    oracle run its blocks get, and a failure raises RuntimeError.
    """
    tables: UnitTables = ring.unit_tables
    group = tables.additive
    block_codes = [group.sorted_codes(D, "element") for D in blocks]
    n_codes = group.sorted_codes(subgroup, "element")
    N = _unit_subgroup(tables, n_codes)
    for D in block_codes:
        in_d = _mask(group.order, D)
        for g in N.generators:
            if not in_d[tables.scale(g, D)].all():
                g_elem = group.element(int(tables.exp[g]))
                raise PreconditionError(f"block is not fixed by subgroup generator {g_elem}")
    rep_logs = _transversal_logs(tables, N, reps)
    # the input family must be a difference family in the additive group
    base = _verified(DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, D) for D in block_codes],
    ), "input blocks are not a difference family in R^+", need_mu=True)
    in_n = _mask(tables.group.order, N.codes)
    out_blocks: List[Tuple[int, int, np.ndarray]] = []
    for i, D in enumerate(block_codes):
        shifted = tables.log[group.code_sub(D, tables.one)]
        shifted = shifted[shifted >= 0]
        for y, y_log in zip(np.asarray(reps).tolist(), rep_logs.tolist()):
            inside = tables.group.code_sub(shifted, y_log)
            out_blocks.append((i, y, np.sort(tables.exp[inside[in_n[inside]]])))
    # lambda_t = sum_i #{(z, w) : z in D_i ∩ (I + 1), w in D_i, w - z = t - 1}
    ideal_plus_one = _mask(
        group.order, group.code_add(np.flatnonzero(tables.log < 0), tables.one)
    )
    pair_counts = np.zeros(group.order, dtype=np.int64)
    for D in block_codes:
        Z = D[ideal_plus_one[D]]
        pair_counts += np.bincount(
            group.code_sub(D[None, :], Z[:, None]).ravel(), minlength=group.order
        )
    lambda_t = pair_counts[group.code_sub(n_codes, tables.one)]
    return QuotientFamilyResult(out_blocks, base.report.mu, n_codes, lambda_t)


def _mask(size: int, codes: np.ndarray) -> np.ndarray:
    out = np.zeros(size, dtype=bool)
    out[codes] = True
    return out


def _shift_overlap(group: FiniteAbelianGroup, codes: np.ndarray, y: int) -> int:
    """|(S + y) ∩ S| for the set S and the element y, given by codes."""
    return int(_mask(group.order, codes)[group.code_sub(codes, y)].sum())


def _unit_subgroup(tables: UnitTables, codes: np.ndarray) -> Subgroup:
    """The units with the given additive codes as a ``Subgroup`` of the log
    group ``tables.group``, or PreconditionError: a nonunit is named as a
    ring element, a failed closure by its witness pair of log-group elements."""
    logs = tables.log[codes]
    if (logs < 0).any():
        x = tables.additive.element(int(codes[np.argmax(logs < 0)]))
        raise PreconditionError(f"subgroup element {x} is not a unit")
    try:
        return Subgroup(tables.group, logs)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def _transversal_logs(tables: UnitTables, N: Subgroup, reps: np.ndarray) -> np.ndarray:
    """Log codes of the units with additive codes ``reps``, or
    PreconditionError unless their cosets y*N tile the unit group, checked in
    order: a nonunit or a coset that repeats an earlier one is named."""
    group = tables.additive
    rep_logs = tables.log[reps]
    nonunit = np.flatnonzero(rep_logs < 0)
    valid = nonunit[0] if nonunit.size else rep_logs.size
    seen: set = set()
    for k, label in enumerate(N.coset_index()[rep_logs[:valid]].tolist()):
        if label in seen:
            raise PreconditionError(
                f"transversal element {group.element(int(reps[k]))} repeats a coset"
            )
        seen.add(label)
    if nonunit.size:
        raise PreconditionError(
            f"transversal element {group.element(int(reps[valid]))} is not a unit"
        )
    covered = len(seen) * N.order
    if covered != tables.exp.size:
        raise PreconditionError(f"transversal covers {covered} of {tables.exp.size} units")
    return rep_logs


def _check_quotient_consistency(
    result: QuotientFamilyResult,
    group: FiniteAbelianGroup,
    images: np.ndarray,
    family: DifferenceFamily,
) -> None:
    """Check that the count at the family code ``images[j]`` of every t =
    ``result.subgroup[j]`` other than 1 (image 0), as the oracle verdict the
    family carries has it, is base_lambda - lambda_t; the first t in code
    order that fails is named with its element of ``group``."""
    counts = family.report.totals[images]
    bad = np.flatnonzero((counts != result.base_lambda - result.lambda_t) & (images != 0))
    if bad.size:
        j = bad[0]
        raise RuntimeError(
            f"quotient family inconsistent at t={group.element(int(result.subgroup[j]))}: "
            f"count {counts[j]}, expected {result.base_lambda} - {result.lambda_t[j]}"
        )


# -- Szekeres-style two-block families in GF(q) ---------------------------------


@dataclass
class SzekeresFamily:
    ctx: FieldCtx
    field_blocks: Tuple[np.ndarray, np.ndarray]  # sorted additive codes of d1, d2
    family: DifferenceFamily


def szekeres_family(ctx: FieldCtx) -> SzekeresFamily:
    """The two-block family (N-1) ∩ N, (N+1) ∩ N over the nonzero squares N.

    Requires q = 3 (mod 4) and q >= 7.  The blocks are mapped onto
    Z_((q-1)/2) through the discrete log and verified as a difference family
    with frequencies ((q-3)/4 sizes, lambda = (q-7)/4).
    """
    q = ctx.q
    if q % 4 != 3:
        raise PreconditionError(f"q={q} fails q = 3 (mod 4)")
    if q < 7:
        raise PreconditionError(f"q={q} is too small (need q >= 7)")
    tables = ctx.unit_tables
    group = tables.additive
    squares = np.sort(tables.exp[::2])
    in_n = _mask(q, squares)
    d1 = squares[in_n[group.code_add(squares, tables.one)]]  # (N-1) ∩ N
    d2 = squares[in_n[group.code_sub(squares, tables.one)]]  # (N+1) ∩ N
    # g^(2i) maps to i in Z_((q-1)/2)
    zv = FiniteAbelianGroup(((q - 1) // 2,))
    blocks = [Block(zv, tables.log[d] // 2) for d in (d1, d2)]
    k = (q - 3) // 4
    family = DifferenceFamily(
        ambient=zv,
        forbidden=Subgroup.trivial(zv),
        blocks=blocks,
        declared=DesignParams(None, (q - 7) // 4, (k, k)),
        provenance={"construction": "szekeres", "q": q},
    )
    return SzekeresFamily(ctx, (d1, d2), _verified(family, "Szekeres family failed verification"))


def szekeres_inverse_identity(ctx: FieldCtx) -> Tuple[FrozenSet[Element], FrozenSet[Element]]:
    """The two sides of ((N+1) ∩ N)^(-1) = (-(N-1)) ∩ N, as field sets."""
    N = ctx.mult_subgroup(2)
    one = ctx.one
    d2 = frozenset(x for x in N if ctx.sub(x, one) in N)
    lhs = frozenset(ctx.inv(x) for x in d2)
    # x in -(N-1) <=> -x + 1 = 1 - x in N
    rhs = frozenset(x for x in N if ctx.sub(one, x) in N)
    return lhs, rhs


@dataclass
class CyclotomicFamily:
    family: DifferenceFamily
    quotient: QuotientFamilyResult


def cyclotomic_family(
    ctx: FieldCtx, e: int, with_zero: bool = False
) -> CyclotomicFamily:
    """Blocks g^(-i)(D - 1) ∩ N for i < e, from a cyclotomic difference set D.

    Without zero, all e blocks have size lambda_DS and the family has
    frequency lambda_DS - 1.  With zero, the block at the representative
    inside N is one element smaller.  The realized sizes are recomputed and
    checked against that accounting rather than trusted.
    """
    if ctx.q - 1 < 2 * e:  # no division: e may be anything here
        raise PreconditionError(
            f"q={ctx.q} gives a trivial quotient Z_{(ctx.q - 1) // e}; too small"
        )
    codes = _cyclotomic_codes(ctx, e, with_zero)
    tables = ctx.unit_tables
    group = tables.additive
    n_codes = tables.exp[::e]
    # the base check inside is the only oracle run of the difference set
    quotient = unit_quotient_family(ctx, [codes], n_codes, tables.exp[:e])
    # g^(e*i) maps to i in Z_((q-1)/e)
    zv = FiniteAbelianGroup(((ctx.q - 1) // e,))
    blocks = [Block(zv, tables.log[sub] // e) for _, _, sub in quotient.blocks]
    # block-size law |D_{1,y}| = |(N+y) ∩ N| for the zero-free construction
    if not with_zero:
        for (_, y, sub) in quotient.blocks:
            shifted = _shift_overlap(group, n_codes, y)
            if sub.size != shifted:
                raise RuntimeError(
                    f"block-size law violated at y={group.element(y)}: {sub.size} != {shifted}"
                )
    lam = quotient.base_lambda  # the set's lambda, as the oracle counted it
    sizes = tuple(sorted(b.size for b in blocks))
    expected_sizes = (lam,) * e if not with_zero else tuple(sorted([lam - 1] + [lam] * (e - 1)))
    if sizes != expected_sizes:
        raise RuntimeError(
            f"realized block sizes {sizes} disagree with the accounting {expected_sizes}"
        )
    family = DifferenceFamily(
        ambient=zv,
        forbidden=Subgroup.trivial(zv),
        blocks=blocks,
        declared=DesignParams(None, lam - 1, sizes),
        provenance={
            "construction": "cyclotomic-with-zero" if with_zero else "cyclotomic",
            "q": ctx.q,
            "e": e,
        },
    )
    _verified(family, "cyclotomic family failed verification")
    _check_quotient_consistency(quotient, group, tables.log[quotient.subgroup] // e, family)
    return CyclotomicFamily(family, quotient)


# -- GR(4,n) divisible difference families ---------------------------------------


def trace_zero_default(field: FieldCtx) -> Element:
    """The least power of the residue primitive element with zero trace."""
    for i in range(field.q - 1):
        u = field.g_pow(i)
        if field.trace(u) == 0:
            return u
    raise PreconditionError(f"no nonzero trace-zero element in GF({field.q})")


@dataclass(eq=False)
class GR4Data:
    """The trace-zero hyperplane E and the index-2 unit subgroup D it defines,
    as sorted codes: E in the residue field's Z_2^n, the rest additive codes."""

    ring: RingCtx
    u: Element  # residue-field element with zero trace
    E: np.ndarray  # residue-field subgroup of order 2^(n-1)
    D: np.ndarray  # {a(1+2b) : a in T_n^*, residue(b) in E}
    subgroup: np.ndarray  # the N the family lives in (a subgroup of D)
    L: np.ndarray  # N ∩ (principal units)


def galois_ring_data(
    ring: RingCtx,
    u: Optional[Element] = None,
    subgroup: Optional[np.ndarray] = None,
) -> GR4Data:
    if ring.n < 2:
        raise PreconditionError("the construction needs degree n >= 2")
    field = ring.residue
    if u is None:
        u = trace_zero_default(field)
    if u == field.zero or field.trace(u) != 0:
        raise PreconditionError(f"u={u} must be nonzero with zero trace")
    n, tables = ring.n, ring.unit_tables
    group = tables.additive
    # x -> Tr(ux) is GF(2)-linear, so it is read off the basis 1, xbar, ...
    basis_traces = [field.trace(field.mul(u, field.element((0,) * j + (1,)))) for j in range(n)]
    residues = ring.residue_group().decode(np.arange(2**n))
    E = np.flatnonzero(residues @ np.array(basis_traces) % 2 == 0)
    if E.size != 2 ** (n - 1):
        raise RuntimeError(f"|E| = {E.size} is not 2^(n-1)")
    # D = T^* x (1 + 2 lift(E)): the log codes whose 2-part lies in E
    D = group.sorted_codes(tables.exp[np.arange(tables.m)[:, None] << n | E].ravel(), "element")
    N = D
    if subgroup is not None:
        N = group.sorted_codes(subgroup, "element")
        if not _mask(group.order, D)[N].all():
            raise PreconditionError("subgroup must be contained in D")
        _unit_subgroup(tables, N)
    # the principal units 1 + 2R are the log codes with odd part 0
    return GR4Data(ring, u, E, D, N, N[tables.log[N] < 2**n])


@dataclass
class GaloisRingDDF:
    """A divisible difference family in a unit subgroup of GR(4,n)."""

    data: GR4Data
    include_ideal: bool
    y: Optional[Element]
    iso: GroupIso
    family: DifferenceFamily
    quotient: QuotientFamilyResult


def _coset_reps(ring: RingCtx, N: np.ndarray) -> np.ndarray:
    """Additive codes of a transversal of R^*/N, for N given by its codes:
    identity coset first, then by least coset member.

    Within each coset the first principal unit in ``ring.principal_units()``
    (Teichmuller) order is preferred, falling back to the least element.
    Cosets are told apart by the coset index of N as a ``Subgroup`` of the
    log group.
    """
    tables = ring.unit_tables
    sub = _unit_subgroup(tables, N)
    index = sub.coset_index()
    count = tables.group.order // sub.order
    units = np.flatnonzero(tables.log >= 0)
    least = np.full(count, tables.additive.order, dtype=np.int64)
    np.minimum.at(least, index[tables.log[units]], units)
    principal = tables.log[tables.additive.encode(ring.principal_units())]
    first = np.full(count, principal.size, dtype=np.int64)
    np.minimum.at(first, index[principal], np.arange(principal.size))
    found = []  # (rep is not 1, least member, rep) per coset
    for low, p in zip(least.tolist(), first.tolist()):
        rep = int(tables.exp[principal[p]]) if p < principal.size else low
        found.append((rep != tables.one, low, rep))
    return np.array([rep for _, _, rep in sorted(found)], dtype=np.int64)


def _principal_index(ring: RingCtx, y: Element) -> int:
    """The Teichmuller index of a1 in the unit decomposition y = a0(1 + 2 a1)."""
    two_part = int(ring.unit_tables.log[ring.additive_group().index(y)]) & (2**ring.n - 1)
    return ring.teich_index(ring.lift(ring.residue_group().element(two_part)))


def galois_ring_ddf(
    ring: RingCtx,
    u: Optional[Element] = None,
    subgroup: Optional[Iterable[Element]] = None,
    y: Optional[Element] = None,
    include_ideal: bool = False,
) -> GaloisRingDDF:
    """The divisible difference family y^(-1)(D - 1) ∩ N in a unit subgroup.

    With N = D there are exactly two blocks and the family has parameters
    (2^(n-1)(2^(n-1)-1) sizes, lambda = 2^n(2^(n-2)-1),
    mu = 2^(n-1)(2^(n-1)-1) - 2^(n-2)) with forbidden subgroup L = N ∩ U_n.
    ``include_ideal=True`` replaces D by D ∪ 2R as the source difference set,
    giving sizes 2^(2(n-1)) with lambda = 2^(2(n-1)),
    mu = 2^(n-2)(2^n + 1).  ``y`` picks the second coset representative
    (default: the first of ``ring.principal_units()`` outside D); other
    subgroups take their deterministic transversal.
    """
    additive = ring.additive_group()
    data = galois_ring_data(ring, u, None if subgroup is None else additive.code_set(subgroup))
    n = ring.n
    in_d = _mask(additive.order, data.D)
    N_is_D = np.array_equal(data.subgroup, data.D)
    if N_is_D:
        if y is None:
            y = next(w for w in ring.principal_units() if not in_d[additive.index(w)])
        elif not ring.is_unit(y):
            raise PreconditionError(f"y={y} is not a unit")
        reps = additive.checked_encode([ring.one, y], "y")
        if in_d[reps[1]]:
            raise PreconditionError(f"y={y} lies in D, it does not cross cosets")
    else:
        if y is not None:
            raise PreconditionError("y can only be chosen for the N = D family")
        reps = _coset_reps(ring, data.subgroup)
    nonunits = np.flatnonzero(ring.unit_tables.log < 0)
    source = np.append(data.D, nonunits) if include_ideal else data.D
    quotient = unit_quotient_family(ring, [source], data.subgroup, reps)
    iso = unit_group_iso(ring, data.subgroup)
    group = iso.codomain
    blocks = [Block(group, iso.map_codes(sub)) for _, _, sub in quotient.blocks]
    forbidden = Subgroup(group, iso.map_codes(data.L))
    lam = 2 ** (2 * (n - 1)) if include_ideal else 2**n * (2 ** (n - 2) - 1)
    mu = (
        2 ** (n - 2) * (2**n + 1)
        if include_ideal
        else 2 ** (n - 1) * (2 ** (n - 1) - 1) - 2 ** (n - 2)
    )
    sizes = tuple(sorted(b.size for b in blocks))
    if N_is_D:
        expected_k = 2 ** (2 * (n - 1)) if include_ideal else 2 ** (n - 1) * (
            2 ** (n - 1) - 1
        )
        if sizes != (expected_k, expected_k):
            raise RuntimeError(f"block sizes {sizes} disagree with {expected_k}")
        # size law k_y = |(D + y) ∩ D| for the plain construction
        if not include_ideal:
            for (_, rep, sub) in quotient.blocks:
                if sub.size != _shift_overlap(additive, data.D, rep):
                    raise RuntimeError(f"size law violated at y={additive.element(rep)}")
    family = DifferenceFamily(
        ambient=group,
        forbidden=forbidden,
        blocks=blocks,
        declared=DesignParams(lam, mu, sizes),
        provenance={
            "construction": "gr4-union" if include_ideal else "gr4-ddf",
            "n": n,
            "u": ring.residue.discrete_log(data.u),
            "y": None if y is None else _principal_index(ring, y),
            "modulus": list(ring.modulus),
        },
    )
    _verified(family, "unit-subgroup family failed verification")
    _check_quotient_consistency(quotient, additive, iso.map_codes(quotient.subgroup), family)
    return GaloisRingDDF(data, include_ideal, y, iso, family, quotient)


@dataclass
class TeichmullerDS:
    ring: RingCtx
    u: Element
    codes: np.ndarray  # sorted additive codes of the members in GR(4,n)
    family: DifferenceFamily


def teichmuller_difference_set(
    ring: RingCtx, u: Optional[Element] = None
) -> TeichmullerDS:
    """The set (D + 2) ∩ T_n^* as a difference set in the cyclic group Z_(2^n - 1).

    Verified with parameters (2^n - 1, 2^(n-1) - 1, 2^(n-2) - 1).
    """
    data = galois_ring_data(ring, u)
    n, tables = ring.n, ring.unit_tables
    additive = tables.additive
    teich = tables.exp[np.arange(tables.m) << n]  # xi^i at position i
    in_d = _mask(additive.order, data.D)
    exponents = np.flatnonzero(in_d[additive.code_sub(teich, additive.index(ring.two))])
    members = np.sort(teich[exponents])
    group = FiniteAbelianGroup((2**n - 1,))
    family = DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, exponents)],
        declared=DesignParams(
            None, 2 ** (n - 2) - 1, (2 ** (n - 1) - 1,)
        ),
        provenance={
            "construction": "prop34",
            "n": n,
            "u": ring.residue.discrete_log(data.u),
        },
    )
    _verified(family, "Teichmuller difference set failed verification")
    return TeichmullerDS(ring, data.u, members, family)


@dataclass
class BlockSymmetryReport:
    """Negation symmetry and coset balance of the two-block unit family."""

    ok: bool
    d1_negation_closed: bool
    d2_negation_free: bool
    coset_counts: Dict[int, Tuple[int, int]]
    expected_count: int
    witness: Optional[str] = None


def block_symmetry_report(result: GaloisRingDDF) -> BlockSymmetryReport:
    """Check the structural properties of the N = D family's mapped blocks.

    (i) the first block is closed under negation, (ii) the second block never
    contains a point and its negative, (iii) both blocks miss the forbidden
    coset and meet every other coset of it in exactly 2^(n-2) points.  The
    forbidden subgroup is 0 x Z_2^n in Z_{2^n-1} x Z_2^n, so its cosets, in
    least-member order, are the first coordinates j; ``coset_counts[j]`` is
    read off one bincount of its coset index per block.
    """
    if not np.array_equal(result.data.subgroup, result.data.D):
        raise ValueError("symmetry report is defined for the N = D family")
    family = result.family
    group = family.ambient
    n = result.data.ring.n
    d1, d2 = (block.codes for block in family.blocks)
    d1_closed = bool(group.negatives_in(d1).all())
    d2_free = not group.negatives_in(d2).any()
    index = family.forbidden.coset_index()
    n_cosets = group.order // family.forbidden.order
    counts = [np.bincount(index[d], minlength=n_cosets).tolist() for d in (d1, d2)]
    coset_counts = dict(enumerate(zip(*counts)))
    expected = 2 ** (n - 2)
    witness = None
    if not d1_closed:
        witness = "negation escapes the first block"
    elif not d2_free:
        witness = "negation collides inside the second block"
    else:
        for j, (c1, c2) in coset_counts.items():
            want = 0 if j == 0 else expected
            if (c1, c2) != (want, want):
                witness = f"coset {j} meets the blocks {c1}/{c2} times, expected {want}"
                break
    return BlockSymmetryReport(
        ok=witness is None,
        d1_negation_closed=d1_closed,
        d2_negation_free=d2_free,
        coset_counts=coset_counts,
        expected_count=expected,
        witness=witness,
    )
