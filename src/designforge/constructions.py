"""Difference-family constructions in finite fields and Galois rings GR(4,n).

Every construction returns its family together with the raw field- or
ring-level blocks, and nothing leaves this module unverified: the exhaustive
oracle in designs.py is run once on each output and its report is returned
with it, and the derived-family identity theta(t) = lambda - lambda_t is
checked pointwise for every construction routed through the generic quotient
machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import designs
from .designs import Block, DesignParams, DifferenceFamily
from .field import FieldCtx, isqrt_exact
from .galois import RingCtx, unit_group_iso
from .groups import FiniteAbelianGroup, GroupIso, Subgroup, closure_generators

Element = Tuple[int, ...]


class PreconditionError(ValueError):
    """A construction precondition (diophantine or structural) failed."""


# -- cyclotomic difference sets -------------------------------------------------


@dataclass
class CyclotomicDS:
    """A multiplicative-subgroup difference set in the additive group of GF(q)."""

    ctx: FieldCtx
    e: int
    with_zero: bool
    elements: FrozenSet[Element]
    q: int
    k: int
    lam: int


def _check_cyclotomic_conditions(q: int, e: int, with_zero: bool) -> None:
    """The exact arithmetic conditions under which the subgroup is a difference set."""
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
    if e == 8 and not with_zero:
        a = isqrt_exact((q - 9) // 64) if (q - 9) % 64 == 0 else None
        b = isqrt_exact((q - 1) // 8) if (q - 1) % 8 == 0 else None
        if a is None or b is None or a % 2 == 0 or b % 2 == 0:
            raise PreconditionError(
                f"q={q} fails q = 9 + 64a^2 = 1 + 8b^2 with a, b odd"
            )
        return
    if e == 8 and with_zero:
        a = isqrt_exact((q - 441) // 64) if (q - 441) % 64 == 0 else None
        b = isqrt_exact((q - 49) // 8) if (q - 49) % 8 == 0 else None
        if a is None or b is None or a % 2 == 0 or b % 2 == 0:
            raise PreconditionError(
                f"q={q} fails q = 441 + 64a^2 = 49 + 8b^2 with a, b odd"
            )
        return
    raise PreconditionError(f"index e={e} is not one of 2, 4, 8")


def cyclotomic_difference_set(
    ctx: FieldCtx, e: int, with_zero: bool = False
) -> CyclotomicDS:
    """The index-e multiplicative subgroup (optionally with 0) as a difference set.

    The arithmetic precondition on q is checked exactly with integer square
    roots, and the resulting set is verified by brute force in the additive
    group before being returned.
    """
    q = ctx.q
    if (q - 1) % e != 0:
        raise PreconditionError(f"e={e} does not divide q-1={q - 1}")
    _check_cyclotomic_conditions(q, e, with_zero)
    D = set(ctx.mult_subgroup(e))
    if with_zero:
        D.add(ctx.zero)
    k = len(D)
    lam, rem = divmod(k * (k - 1), q - 1)
    if rem:
        raise PreconditionError(f"k(k-1) = {k*(k-1)} is not divisible by q-1 = {q - 1}")
    group = ctx.additive_group()
    family = DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, frozenset(D))],
        declared=DesignParams(None, lam, (k,)),
    )
    report = designs.verify(family)
    if not report.ok:
        raise RuntimeError(f"cyclotomic set failed verification: {report.summary()}")
    return CyclotomicDS(ctx, e, with_zero, frozenset(D), q, k, lam)


# -- the generic quotient machine ----------------------------------------------


@dataclass
class QuotientFamilyResult:
    """Blocks y^(-1)(D_i - 1) ∩ N over a transversal, with the count table.

    ``lambda_table`` maps each t in N minus identity to the number of pairs
    lost to the nonunit translates; the derived family's difference count at
    t is ``base_lambda - lambda_table[t]``.
    """

    blocks: List[Tuple[int, Element, FrozenSet[Element]]]  # (block index, rep, subset)
    base_lambda: int
    lambda_table: Dict[Element, int]


def unit_quotient_family(
    ring,
    blocks: Sequence[Iterable[Element]],
    subgroup: Iterable[Element],
    reps: Sequence[Element],
) -> QuotientFamilyResult:
    """Derive blocks inside a unit subgroup N from a difference family in R^+.

    ``ring`` may be a FieldCtx or RingCtx (anything with one/mul/inv/sub,
    is_unit, nonunits and additive_group).  Each input block must be fixed
    setwise by N, the input family must verify as a difference family in the
    additive group, and ``reps`` must be a complete transversal of R^*/N.
    Closure of N and invariance of the blocks are checked completely on a
    generating set of N, at O((|N| + |D|) log |N|) multiplications.
    """
    N = frozenset(subgroup)
    blocks = [frozenset(b) for b in blocks]
    one = ring.one
    for x in N:
        if not ring.is_unit(x):
            raise PreconditionError(f"subgroup element {x} is not a unit")
    gens = _subgroup_generators(ring, N)
    for D in blocks:
        for g in gens:
            if frozenset(ring.mul(g, d) for d in D) != D:
                raise PreconditionError(f"block is not fixed by subgroup generator {g}")
    # the transversal must tile the unit group
    covered: set = set()
    for y in reps:
        if not ring.is_unit(y):
            raise PreconditionError(f"transversal element {y} is not a unit")
        coset = {ring.mul(y, x) for x in N}
        if covered & coset:
            raise PreconditionError(f"transversal element {y} repeats a coset")
        covered |= coset
    n_units = sum(1 for _ in ring.units())
    if len(covered) != n_units:
        raise PreconditionError(
            f"transversal covers {len(covered)} of {n_units} units"
        )
    # the input family must be a difference family in the additive group
    group = ring.additive_group()
    base = DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, D) for D in blocks],
    )
    report = designs.verify(base)
    if not report.ok or report.mu is None:
        raise PreconditionError(
            f"input blocks are not a difference family in R^+: {report.summary()}"
        )
    base_lambda = report.mu
    out_blocks: List[Tuple[int, Element, FrozenSet[Element]]] = []
    for i, D in enumerate(blocks):
        for y in reps:
            y_inv = ring.inv(y)
            shifted = frozenset(
                ring.mul(y_inv, ring.sub(d, one)) for d in D
            )
            out_blocks.append((i, y, shifted & N))
    # lambda_t = sum_i |D_i ∩ (D_i - t + 1) ∩ (I + 1)| over the nonunit translates
    ideal_plus_one = [ring.add(z, one) for z in ring.nonunits()]
    lambda_table: Dict[Element, int] = {}
    for t in N:
        if t == one:
            continue
        count = 0
        for D in blocks:
            for z in ideal_plus_one:
                if z in D and ring.add(z, ring.sub(t, one)) in D:
                    count += 1
        lambda_table[t] = count
    return QuotientFamilyResult(out_blocks, base_lambda, lambda_table)


def _subgroup_generators(ring, N: FrozenSet[Element]) -> List[Element]:
    """Generators of the unit subgroup N, or PreconditionError if N is not closed."""
    try:
        return closure_generators(N, ring.one, ring.mul)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def _check_quotient_consistency(
    result: QuotientFamilyResult,
    iso_map,
    report: designs.VerificationReport,
) -> None:
    """Pointwise check that the oracle's counts equal base_lambda - lambda_t."""
    for t, lam_t in result.lambda_table.items():
        expected = result.base_lambda - lam_t
        got = report.counts.get(iso_map(t), 0)
        if got != expected:
            raise RuntimeError(
                f"quotient family inconsistent at t={t}: count {got}, "
                f"expected {result.base_lambda} - {lam_t}"
            )


# -- Szekeres-style two-block families in GF(q) ---------------------------------


@dataclass
class SzekeresFamily:
    ctx: FieldCtx
    squares: FrozenSet[Element]
    field_blocks: Tuple[FrozenSet[Element], FrozenSet[Element]]
    family: DifferenceFamily
    report: designs.VerificationReport  # the oracle's verdict on ``family``


def _half_log_map(ctx: FieldCtx, e: int):
    """Map the index-e subgroup onto Z_((q-1)/e) through the discrete log."""
    v = (ctx.q - 1) // e

    def phi(x: Element) -> Element:
        log = ctx.discrete_log(x)
        if log % e:
            raise ValueError(f"{x} is not in the index-{e} subgroup")
        return ((log // e) % v,)

    return phi, FiniteAbelianGroup((v,))


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
    N = ctx.mult_subgroup(2)
    one = ctx.one
    d1 = frozenset(x for x in N if ctx.add(x, one) in N)  # (N-1) ∩ N
    d2 = frozenset(x for x in N if ctx.sub(x, one) in N)  # (N+1) ∩ N
    phi, zv = _half_log_map(ctx, 2)
    blocks = [
        Block(zv, frozenset(phi(x) for x in d1)),
        Block(zv, frozenset(phi(x) for x in d2)),
    ]
    k = (q - 3) // 4
    family = DifferenceFamily(
        ambient=zv,
        forbidden=Subgroup.trivial(zv),
        blocks=blocks,
        declared=DesignParams(None, (q - 7) // 4, (k, k)),
        provenance={"construction": "szekeres", "q": q},
    )
    report = designs.verify(family)
    if not report.ok:
        raise RuntimeError(f"Szekeres family failed verification: {report.summary()}")
    return SzekeresFamily(ctx, N, (d1, d2), family, report)


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
    ds: CyclotomicDS
    reps: List[Element]
    field_blocks: List[FrozenSet[Element]]
    family: DifferenceFamily
    quotient: QuotientFamilyResult
    report: designs.VerificationReport


def cyclotomic_family(
    ctx: FieldCtx, e: int, with_zero: bool = False
) -> CyclotomicFamily:
    """Blocks g^(-i)(D - 1) ∩ N for i < e, from a cyclotomic difference set D.

    Without zero, all e blocks have size lambda_DS and the family has
    frequency lambda_DS - 1.  With zero, the block at the representative
    inside N is one element smaller.  The realized sizes are recomputed and
    checked against that accounting rather than trusted.
    """
    if (ctx.q - 1) // e < 2:
        raise PreconditionError(
            f"q={ctx.q} gives a trivial quotient Z_{(ctx.q - 1) // e}; too small"
        )
    ds = cyclotomic_difference_set(ctx, e, with_zero)
    N = ctx.mult_subgroup(e)
    reps = [ctx.g_pow(i) for i in range(e)]
    quotient = unit_quotient_family(ctx, [ds.elements], N, reps)
    phi, zv = _half_log_map(ctx, e)
    blocks: List[Block] = []
    field_blocks: List[FrozenSet[Element]] = []
    for _, y, sub in quotient.blocks:
        field_blocks.append(sub)
        blocks.append(Block(zv, frozenset(phi(x) for x in sub)))
    # block-size law |D_{1,y}| = |(N+y) ∩ N| for the zero-free construction
    if not with_zero:
        for (_, y, sub) in quotient.blocks:
            shifted = sum(1 for x in N if ctx.sub(x, y) in N)
            if len(sub) != shifted:
                raise RuntimeError(
                    f"block-size law violated at y={y}: {len(sub)} != {shifted}"
                )
    lam_family = ds.lam - 1
    sizes = tuple(sorted(len(b) for b in field_blocks))
    expected_sizes = (
        (ds.lam,) * e if not with_zero else tuple(sorted([ds.lam - 1] + [ds.lam] * (e - 1)))
    )
    if sizes != expected_sizes:
        raise RuntimeError(
            f"realized block sizes {sizes} disagree with the accounting {expected_sizes}"
        )
    family = DifferenceFamily(
        ambient=zv,
        forbidden=Subgroup.trivial(zv),
        blocks=blocks,
        declared=DesignParams(None, lam_family, sizes),
        provenance={
            "construction": "cyclotomic-with-zero" if with_zero else "cyclotomic",
            "q": ctx.q,
            "e": e,
        },
    )
    report = designs.verify(family)
    _check_quotient_consistency(quotient, phi, report)
    if not report.ok:
        raise RuntimeError(f"cyclotomic family failed verification: {report.summary()}")
    return CyclotomicFamily(ds, reps, field_blocks, family, quotient, report)


# -- GR(4,n) divisible difference families ---------------------------------------


def trace_zero_default(field: FieldCtx) -> Element:
    """The least power of the residue primitive element with zero trace."""
    for i in range(field.q - 1):
        u = field.g_pow(i)
        if field.trace(u) == 0:
            return u
    raise PreconditionError(f"no nonzero trace-zero element in GF({field.q})")


@dataclass
class GR4Data:
    """The trace-zero hyperplane E and the index-2 unit subgroup D it defines."""

    ring: RingCtx
    u: Element  # residue-field element with zero trace
    E: FrozenSet[Element]  # residue-field subgroup of order 2^(n-1)
    D: FrozenSet[Element]  # {a(1+2b) : a in T_n^*, residue(b) in E}
    subgroup: FrozenSet[Element]  # the N the family lives in (a subgroup of D)
    L: FrozenSet[Element]  # N ∩ (principal units)


def galois_ring_data(
    ring: RingCtx,
    u: Optional[Element] = None,
    subgroup: Optional[Iterable[Element]] = None,
) -> GR4Data:
    if ring.n < 2:
        raise PreconditionError("the construction needs degree n >= 2")
    field = ring.residue
    if u is None:
        u = trace_zero_default(field)
    if u == field.zero or field.trace(u) != 0:
        raise PreconditionError(f"u={u} must be nonzero with zero trace")
    E = frozenset(x for x in field.elements() if field.trace(field.mul(u, x)) == 0)
    if len(E) != 2 ** (ring.n - 1):
        raise RuntimeError(f"|E| = {len(E)} is not 2^(n-1)")
    lifts = [ring.lift(x) for x in sorted(E, key=field.encode)]
    D = set()
    for a in ring.teichmuller[1:]:
        for b in lifts:
            D.add(ring.mul(a, ring.add(ring.one, ring.mul(ring.two, b))))
    if len(D) != 2 ** (ring.n - 1) * (2**ring.n - 1):
        raise RuntimeError(f"|D| = {len(D)} is not 2^(n-1)(2^n - 1)")
    if subgroup is None:
        N = frozenset(D)
    else:
        N = frozenset(subgroup)
        if not N <= D:
            raise PreconditionError("subgroup must be contained in D")
        _subgroup_generators(ring, N)
    principal = set(ring.principal_units())
    L = frozenset(N & principal)
    return GR4Data(ring, u, E, frozenset(D), N, L)


@dataclass
class GaloisRingDDF:
    """A divisible difference family in a unit subgroup of GR(4,n)."""

    data: GR4Data
    include_ideal: bool
    reps: List[Element]
    y: Optional[Element]
    ring_blocks: List[FrozenSet[Element]]
    iso: GroupIso
    family: DifferenceFamily
    quotient: QuotientFamilyResult
    report: designs.VerificationReport


def _coset_reps(ring: RingCtx, N: FrozenSet[Element]) -> List[Element]:
    """Transversal of R^*/N: identity coset first, then by least coset member.

    Within each coset the first principal unit in ``ring.principal_units()``
    (Teichmuller) order is preferred, falling back to the least element.
    """
    principal = ring.principal_units()
    found: List[Tuple[Element, Element]] = []  # (coset key, rep)
    covered: set = set()
    for u in ring.units():
        if u in covered:
            continue
        coset = frozenset(ring.mul(u, x) for x in N)
        least = min(coset)
        found.append((least, next((y for y in principal if y in coset), least)))
        covered |= coset
    found.sort(key=lambda pair: (pair[1] != ring.one, pair[0]))
    return [rep for _, rep in found]


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
    data = galois_ring_data(ring, u, subgroup)
    N = data.subgroup
    n = ring.n
    if N == data.D:
        if y is None:
            y = next(w for w in ring.principal_units() if w not in data.D)
        elif not ring.is_unit(y):
            raise PreconditionError(f"y={y} is not a unit")
        elif y in data.D:
            raise PreconditionError(f"y={y} lies in D, it does not cross cosets")
        reps = [ring.one, y]
    else:
        if y is not None:
            raise PreconditionError("y can only be chosen for the N = D family")
        reps = _coset_reps(ring, N)
    source = set(data.D)
    if include_ideal:
        source |= set(ring.nonunits())
    quotient = unit_quotient_family(ring, [frozenset(source)], N, reps)
    iso = unit_group_iso(ring, N)
    group = iso.codomain
    blocks: List[Block] = []
    ring_blocks: List[FrozenSet[Element]] = []
    for _, rep, sub in quotient.blocks:
        ring_blocks.append(sub)
        blocks.append(Block(group, iso.map_set(sub)))
    forbidden = Subgroup(group, iso.map_set(data.L))
    lam = 2 ** (2 * (n - 1)) if include_ideal else 2**n * (2 ** (n - 2) - 1)
    mu = (
        2 ** (n - 2) * (2**n + 1)
        if include_ideal
        else 2 ** (n - 1) * (2 ** (n - 1) - 1) - 2 ** (n - 2)
    )
    sizes = tuple(sorted(len(b) for b in ring_blocks))
    if N == data.D:
        expected_k = 2 ** (2 * (n - 1)) if include_ideal else 2 ** (n - 1) * (
            2 ** (n - 1) - 1
        )
        if sizes != (expected_k, expected_k):
            raise RuntimeError(f"block sizes {sizes} disagree with {expected_k}")
        # size law k_y = |(D + y) ∩ D| for the plain construction
        if not include_ideal:
            for (_, rep, sub) in quotient.blocks:
                law = sum(1 for x in data.D if ring.sub(x, rep) in data.D)
                if len(sub) != law:
                    raise RuntimeError(f"size law violated at y={rep}")
    family = DifferenceFamily(
        ambient=group,
        forbidden=forbidden,
        blocks=blocks,
        declared=DesignParams(lam, mu, sizes),
        provenance={
            "construction": "gr4-union" if include_ideal else "gr4-ddf",
            "n": n,
            "u": ring.residue.discrete_log(data.u),
            "y": None if y is None else ring.unit_decompose(y).a1_index,
            "modulus": list(ring.modulus),
        },
    )
    report = designs.verify(family)
    _check_quotient_consistency(quotient, lambda t: iso(t), report)
    if not report.ok:
        raise RuntimeError(f"unit-subgroup family failed verification: {report.summary()}")
    return GaloisRingDDF(
        data=data,
        include_ideal=include_ideal,
        reps=reps,
        y=y,
        ring_blocks=ring_blocks,
        iso=iso,
        family=family,
        quotient=quotient,
        report=report,
    )


@dataclass
class TeichmullerDS:
    ring: RingCtx
    u: Element
    ring_elements: FrozenSet[Element]
    family: DifferenceFamily
    report: designs.VerificationReport


def teichmuller_difference_set(
    ring: RingCtx, u: Optional[Element] = None
) -> TeichmullerDS:
    """The set (D + 2) ∩ T_n^* as a difference set in the cyclic group Z_(2^n - 1).

    Verified with parameters (2^n - 1, 2^(n-1) - 1, 2^(n-2) - 1).
    """
    data = galois_ring_data(ring, u)
    two = ring.two
    members = frozenset(
        x
        for x in ring.teichmuller[1:]
        if ring.sub(x, two) in data.D
    )
    n = ring.n
    group = FiniteAbelianGroup((2**n - 1,))
    mapped = frozenset(((ring.teich_index(x) - 1) % (2**n - 1),) for x in members)
    family = DifferenceFamily(
        ambient=group,
        forbidden=Subgroup.trivial(group),
        blocks=[Block(group, mapped)],
        declared=DesignParams(
            None, 2 ** (n - 2) - 1, (2 ** (n - 1) - 1,)
        ),
        provenance={
            "construction": "prop34",
            "n": n,
            "u": ring.residue.discrete_log(data.u),
        },
    )
    report = designs.verify(family)
    if not report.ok:
        raise RuntimeError(
            f"Teichmuller difference set failed verification: {report.summary()}"
        )
    return TeichmullerDS(ring, data.u, members, family, report)


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
    coset and meet every other coset of it in exactly 2^(n-2) points.
    """
    if result.data.subgroup != result.data.D:
        raise ValueError("symmetry report is defined for the N = D family")
    family = result.family
    group = family.ambient
    n = result.data.ring.n
    m = 2**n - 1
    d1 = family.blocks[0].elements
    d2 = family.blocks[1].elements
    neg = group.neg
    d1_closed = all(neg(a) in d1 for a in d1)
    d2_free = all(neg(a) not in d2 for a in d2)
    expected = 2 ** (n - 2)
    coset_counts: Dict[int, Tuple[int, int]] = {}
    witness = None
    if not d1_closed:
        witness = "negation escapes the first block"
    elif not d2_free:
        witness = "negation collides inside the second block"
    for j in range(m):
        coset = {e for e in group.elements() if e[0] == j}
        c1 = len(d1 & coset)
        c2 = len(d2 & coset)
        coset_counts[j] = (c1, c2)
        want = 0 if j == 0 else expected
        if (c1, c2) != (want, want) and witness is None:
            witness = f"coset {j} meets the blocks {c1}/{c2} times, expected {want}"
    ok = witness is None
    return BlockSymmetryReport(
        ok=ok,
        d1_negation_closed=d1_closed,
        d2_negation_free=d2_free,
        coset_counts=coset_counts,
        expected_count=expected,
        witness=witness,
    )
