"""Sign matrices, Hadamard predicates, and the two array constructions.

Sign matrices are stored as int8.  Every matrix product runs through one
exact kernel, ``_exact_product``, which multiplies in float32 BLAS: each
product term, partial sum and result entry is an integer of magnitude at
most inner_dim * max|X| * max|Y| (the order, for a +-1 Gram), and float32
represents every integer up to 2^24 exactly, so the product is exact in any
summation order and with FMA.  The kernel raises ValueError when that bound
is exceeded; no check has a tolerance.  Group-indexed matrices use the
ambient group's lexicographic element enumeration, which serialization
records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import designs
from .constructions import PreconditionError
from .designs import DifferenceFamily
from .groups import INT32_CODE_ORDER, Element, FiniteAbelianGroup, Subgroup, cosets

MAX_FINGERPRINT_ORDER = 128
# The Hadamard gate's working set is about 9 * order^2 bytes (int8 entries,
# their float32 copy and the float32 Gram): 0.6 GiB at this cap.
MAX_MATRIX_ORDER = 8192
# float32 holds every integer of magnitude up to 2^24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24


class AssemblyError(RuntimeError):
    """An assembled matrix failed its defining identity."""


def check_matrix_order(base: int, exponent: int = 1) -> None:
    """Refuse a matrix of order base^exponent above MAX_MATRIX_ORDER.

    Callers run it before any order^2-sized allocation.  The exponent is
    clamped to the cap's bit length before the power is taken (any base >= 2
    passes the cap there), so a huge requested exponent costs nothing.
    """
    if base ** min(exponent, MAX_MATRIX_ORDER.bit_length()) > MAX_MATRIX_ORDER:
        shown = f"{base}^{exponent}" if exponent != 1 else f"{base}"
        raise PreconditionError(
            f"matrix order {shown} exceeds MAX_MATRIX_ORDER = {MAX_MATRIX_ORDER}"
        )


def _max_abs(X: np.ndarray) -> int:
    return max(int(X.max()), -int(X.min())) if X.size else 0


def _exact_product(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
    """The exact integer product X @ Y (Y defaults to X.T) as a float32 array.

    Every term, partial sum and entry is an integer of magnitude at most
    inner_dim * max|X| * max|Y|; while that bound is at most 2^24 the
    float32 BLAS product equals the integer one in any summation order.
    Above it this raises ValueError.  The default Y casts X once, and BLAS
    can then use its symmetric rank-k kernel.
    """
    bound = X.shape[1] * _max_abs(X) * _max_abs(X if Y is None else Y)
    if bound > FLOAT32_EXACT_LIMIT:
        raise ValueError(
            f"exact float32 product needs inner_dim * max|X| * max|Y| <= 2^24, got {bound}"
        )
    Xf = X.astype(np.float32)
    return Xf @ (Xf.T if Y is None else Y.astype(np.float32))


@dataclass
class SignMatrix:
    """A square matrix with entries +1/-1, stored as int8, and optional labels."""

    entries: np.ndarray
    labels: Optional[List] = None
    provenance: Optional[dict] = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        if not (np.abs(arr) == 1).all():
            raise ValueError("entries must all be +1 or -1")
        self.entries = arr.astype(np.int8, copy=False)
        if self.labels is not None and len(self.labels) != arr.shape[0]:
            raise ValueError("label count does not match the order")

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def to_text(self) -> str:
        return "\n".join(
            "".join("+" if x == 1 else "-" for x in row) for row in self.entries
        )

    @classmethod
    def from_text(cls, text: str) -> "SignMatrix":
        rows = [
            [1 if ch == "+" else -1 for ch in line.strip()]
            for line in text.strip().splitlines()
        ]
        return cls(np.array(rows, dtype=np.int64))

    def to_json(self) -> dict:
        data: dict = {"order": self.order, "rows": self.entries.tolist()}
        if self.labels is not None:
            data["row_labels"] = [list(l) if isinstance(l, tuple) else l for l in self.labels]
        if self.provenance is not None:
            data["provenance"] = self.provenance
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SignMatrix":
        labels = data.get("row_labels")
        if labels is not None:
            labels = [tuple(l) if isinstance(l, list) else l for l in labels]
        return cls(
            np.array(data["rows"], dtype=np.int64),
            labels=labels,
            provenance=data.get("provenance"),
        )


def _gram_residual(M: SignMatrix) -> np.ndarray:
    """M M^T - order * I, exact, from the float32 Gram of ``_exact_product``."""
    G = _exact_product(M.entries)
    G[np.diag_indices_from(G)] -= M.order
    return G


def is_hadamard(M: SignMatrix) -> bool:
    """Exact check of M M^T = order * I."""
    return not _gram_residual(M).any()


def hadamard_failure(M: SignMatrix) -> Optional[str]:
    """None if M is Hadamard, else the first row pair violating orthogonality.

    The same exact gate as ``is_hadamard``, read for a witness.
    """
    G = _gram_residual(M)
    if not G.any():
        return None
    # every +-1 row has squared norm order, so a violation is off the diagonal
    i, j = (int(x) for x in np.argwhere(G)[0])
    return f"rows {i} and {j} have inner product {int(G[i, j])}, expected 0"


def is_symmetric(M: SignMatrix) -> bool:
    return np.array_equal(M.entries, M.entries.T)


def is_skew(M: SignMatrix) -> bool:
    """Exact check of M + M^T = 2I (unit diagonal, antisymmetric elsewhere)."""
    S = M.entries + M.entries.T
    S[np.diag_indices_from(S)] -= 2
    return not S.any()


def sylvester(k: int) -> SignMatrix:
    """The tensor-doubled Hadamard matrix of order 2^k (normalized), verified."""
    if k < 0:
        raise ValueError("k must be >= 0")
    check_matrix_order(2, k)
    H = np.array([[1]], dtype=np.int8)
    for _ in range(k):
        H = np.block([[H, H], [H, -H]])
    result = SignMatrix(H, provenance={"construction": "sylvester", "k": k})
    if not is_hadamard(result):
        raise AssemblyError("Sylvester matrix is not Hadamard")
    return result


def normalize(M: SignMatrix) -> Tuple[SignMatrix, np.ndarray, np.ndarray]:
    """Negate rows/columns until the first row and column are all +1.

    Returns the normalized matrix and the applied row/column signs.
    """
    col_signs = M.entries[0, :].copy()
    A = M.entries * col_signs[None, :]
    row_signs = A[:, 0].copy()
    A = A * row_signs[:, None]
    return SignMatrix(A, provenance=M.provenance), row_signs, col_signs


# -- group-indexed incidence machinery ------------------------------------------


def _index_tables(group: FiniteAbelianGroup) -> Tuple[List[Element], np.ndarray, np.ndarray, np.ndarray]:
    """Element list plus int32 code tables of i-j, i+j and -i for the group.

    Row and column positions are the elements' mixed-radix codes.  Each
    table is built one coordinate at a time in int32; a group above
    INT32_CODE_ORDER, whose code arithmetic could wrap int32, is refused
    before anything is allocated.
    """
    if group.code_dtype is not np.int32:
        raise ValueError(
            f"group order {group.order} is above INT32_CODE_ORDER = {INT32_CODE_ORDER}, "
            "too large for int32 index tables"
        )
    codes = np.arange(group.order, dtype=np.int32)
    diff = group.code_sub(codes[:, None], codes[None, :])
    sums = group.code_add(codes[:, None], codes[None, :])
    neg = group.code_sub(0, codes)
    return list(group.elements()), diff, sums, neg


def _membership(group: FiniteAbelianGroup, subset) -> np.ndarray:
    out = np.zeros(group.order, dtype=np.int8)
    out[group.encode(list(subset))] = 1
    return out


# -- skew Hadamard matrices from two-block families ------------------------------


@dataclass
class SkewHadamardResult:
    matrix: SignMatrix
    skew_block_index: int
    family: DifferenceFamily


def _is_skew_set(group: FiniteAbelianGroup, block) -> bool:
    elems = block if isinstance(block, frozenset) else block.elements
    if group.zero() in elems:
        return False
    return all(group.neg(a) not in elems for a in elems)


def skew_from_df(family: DifferenceFamily) -> SkewHadamardResult:
    """A skew Hadamard matrix of order 4(m+1) from a (G, m, m-1) pair family.

    One block must satisfy the skewness condition (never containing both a
    point and its negative); it feeds the type-1 diagonal blocks together
    with the identity, while the other block enters as a type-2 block.  The
    bordered array is verified exactly before being returned.
    """
    if not family.forbidden.is_trivial():
        raise PreconditionError("skew construction needs a plain difference family")
    if len(family.blocks) != 2:
        raise PreconditionError(f"need exactly 2 blocks, got {len(family.blocks)}")
    group = family.ambient
    v = group.order
    if v % 2 == 0:
        raise PreconditionError(f"group order {v} is even, need |G| = 2m+1")
    m = (v - 1) // 2
    check_matrix_order(4 * (m + 1))
    report = designs.verify(family)
    if not report.ok:
        raise PreconditionError(f"family failed verification: {report.summary()}")
    if report.sizes != (m, m) or report.mu != m - 1:
        raise PreconditionError(
            f"family has K={list(report.sizes)}, lambda={report.mu}; "
            f"need K=[{m},{m}], lambda={m - 1}"
        )
    skew_idx = next(
        (i for i, b in enumerate(family.blocks) if _is_skew_set(group, b)), None
    )
    if skew_idx is None:
        raise PreconditionError("neither block satisfies the skewness condition")
    S = family.blocks[skew_idx].elements | {group.zero()}
    T = family.blocks[1 - skew_idx].elements
    _, diff, sums, _ = _index_tables(group)
    A = 2 * _membership(group, S)[diff] - 1
    B = 2 * _membership(group, T)[sums] - 1
    e = np.ones((v, 1), dtype=np.int8)
    one = np.ones((1, 1), dtype=np.int8)
    M = np.block(
        [
            [one, one, e.T, -e.T],
            [-one, one, e.T, e.T],
            [-e, -e, A, B],
            [e, -e, -B, A],
        ]
    )
    result = SignMatrix(
        M,
        provenance={
            "construction": "skew",
            "order": 4 * (m + 1),
            "family": family.provenance,
            "skew_block": skew_idx,
        },
    )
    if not is_hadamard(result):
        raise AssemblyError("assembled matrix is not Hadamard")
    if not is_skew(result):
        raise AssemblyError("assembled matrix is not skew")
    return SkewHadamardResult(result, skew_idx, family)


# -- symmetric Hadamard matrices from qualifying divisible families ---------------


@dataclass
class SeedConditionReport:
    """Checks that a divisible family can feed the symmetric array at seed order m."""

    ok: bool
    m: int
    failures: List[str] = field(default_factory=list)
    lam: Optional[int] = None
    mu: Optional[int] = None
    sizes: Tuple[int, ...] = ()
    block_order: Tuple[int, int] = (0, 1)

    def summary(self) -> str:
        if self.ok:
            return f"qualifies for seed order m={self.m}"
        return f"fails for m={self.m}: " + "; ".join(self.failures)


def check_symmetric_conditions(
    family: DifferenceFamily, m: Optional[int] = None
) -> SeedConditionReport:
    """Parameter and structure checks for the order-m^2 symmetric array.

    Needs |G| = m(m-1)/2, |N| = m/2, two blocks of size m(m-2)/4 with
    frequencies (m(m-4)/4, m(m-3)/4), one negation-closed block, and both
    blocks meeting every nonidentity coset of N in exactly m/4 points while
    missing N itself.  Blocks may arrive in either order (serialization
    sorts them); ``block_order`` reports which one plays the type-1 role.
    """
    group = family.ambient
    N = family.forbidden
    if m is None:
        m = 2 * N.order
    failures: List[str] = []
    if m % 4 != 0:
        failures.append(f"m={m} is not divisible by 4")
    if 2 * N.order != m:
        failures.append(f"|N|={N.order}, need m/2={m // 2}")
    if group.order != m * (m - 1) // 2:
        failures.append(f"|G|={group.order}, need m(m-1)/2={m * (m - 1) // 2}")
    if len(family.blocks) != 2:
        failures.append(f"need 2 blocks, got {len(family.blocks)}")
        return SeedConditionReport(False, m, failures)
    report = designs.verify(family)
    if not report.ok:
        failures.append(f"family does not verify: {report.summary()}")
    k, lam, mu = m * (m - 2) // 4, m * (m - 4) // 4, m * (m - 3) // 4
    if report.sizes != (k, k):
        failures.append(f"sizes {list(report.sizes)}, need [{k},{k}]")
    if report.ok and (report.lam != lam or report.mu != mu):
        failures.append(
            f"frequencies ({report.lam},{report.mu}), need ({lam},{mu})"
        )

    def neg_witness(block) -> Optional[Element]:
        return next((a for a in block.elements if group.neg(a) not in block.elements), None)

    block_order = (0, 1)
    if neg_witness(family.blocks[0]) is None:
        block_order = (0, 1)
    elif neg_witness(family.blocks[1]) is None:
        block_order = (1, 0)
    else:
        failures.append(
            f"neither block is negation-closed (first fails at "
            f"{neg_witness(family.blocks[0])})"
        )
    for i, block in enumerate(family.blocks):
        hits = len(block.elements & N.elements)
        if hits:
            failures.append(f"block {i} meets N in {hits} points, need 0")
    for rep, coset in cosets(group, N):
        if rep in N:
            continue
        for i, block in enumerate(family.blocks):
            got = len(block.elements & coset)
            if got != m // 4:
                failures.append(
                    f"block {i} meets coset of {rep} in {got} points, need {m // 4}"
                )
                break
        else:
            continue
        break
    return SeedConditionReport(
        not failures, m, failures, report.lam, report.mu, report.sizes, block_order
    )


@dataclass
class SymmetricParts:
    """The pieces of the order-m^2 array, kept for the identity checks.

    Every array is int8; multiply them through ``_exact_product``, since an
    int8 product wraps.
    """

    group: FiniteAbelianGroup
    N: Subgroup
    m: int
    elements: List[Element]
    H1: np.ndarray
    H2: np.ndarray
    C: np.ndarray  # [i,j] = 1 iff i + j in N
    Ap: np.ndarray  # +-1 incidence of i - j in the first block
    Bp: np.ndarray  # +-1 incidence of i + j in the second block
    n_in: np.ndarray  # [i,j] = 1 iff i - j in N
    assignment: List[int]


Assignment = Union[None, Sequence[int], random.Random, int]


def _resolve_assignment(n_cosets: int, assignment: Assignment) -> List[int]:
    if assignment is None:
        return list(range(n_cosets))
    if isinstance(assignment, int):
        assignment = random.Random(assignment)
    if isinstance(assignment, random.Random):
        perm = list(range(n_cosets))
        assignment.shuffle(perm)
        return perm
    perm = [int(x) for x in assignment]
    if sorted(perm) != list(range(n_cosets)):
        raise ValueError(f"assignment must be a permutation of 0..{n_cosets - 1}")
    return perm


def build_symmetric_parts(
    family: DifferenceFamily,
    H: Optional[SignMatrix] = None,
    coset_assignment: Assignment = None,
) -> SymmetricParts:
    """Assemble H1, H2, A', B', C for a family passing the seed conditions.

    The seed H defaults to the Sylvester matrix when m is a power of two,
    which ``sylvester`` gates itself; a supplied seed is gated here.
    ``coset_assignment`` maps the (sorted) cosets of N onto rows of the seed
    matrix with its first row removed; pass a permutation, a seed, or a
    Random for a randomized choice.  The Hadamard property must not depend
    on it.  The order m^2 is checked against MAX_MATRIX_ORDER first.
    """
    check_matrix_order(2 * family.forbidden.order, 2)
    cond = check_symmetric_conditions(family)
    if not cond.ok:
        raise PreconditionError(cond.summary())
    m = cond.m
    if H is None:
        if m & (m - 1):
            raise PreconditionError(
                f"m={m} is not a power of two; supply a seed matrix explicitly"
            )
        H = sylvester(m.bit_length() - 1)
    elif H.order != m:
        raise PreconditionError(f"seed matrix has order {H.order}, need {m}")
    elif not is_hadamard(H):
        raise PreconditionError("seed matrix is not Hadamard")
    H_norm, _, _ = normalize(H)
    first, second = (family.blocks[i] for i in cond.block_order)
    group = family.ambient
    N = family.forbidden
    elems, diff, sums, neg = _index_tables(group)
    coset_list = cosets(group, N)
    assignment = _resolve_assignment(len(coset_list), coset_assignment)
    # element positions coincide with their mixed-radix codes, so the code
    # tables index rows directly
    coset_of = np.empty(group.order, dtype=np.int64)
    for ci, (_, cs) in enumerate(coset_list):
        coset_of[group.encode(list(cs))] = ci
    Hp = H_norm.entries[1:, :]  # rows indexed by cosets
    H1 = Hp[np.asarray(assignment, dtype=np.int64)[coset_of]]
    H2 = -H1[neg]
    in_N = _membership(group, N.elements)
    return SymmetricParts(
        group=group,
        N=N,
        m=m,
        elements=elems,
        H1=H1,
        H2=H2,
        C=in_N[sums],
        Ap=2 * _membership(group, first.elements)[diff] - 1,
        Bp=2 * _membership(group, second.elements)[sums] - 1,
        n_in=in_N[diff],
        assignment=assignment,
    )


@dataclass
class IdentityCheck:
    number: int
    name: str
    ok: bool
    detail: str = ""


def identity_checks(parts: SymmetricParts) -> List[IdentityCheck]:
    """The ten exact matrix identities behind the symmetric array, separately.

    Each is an equality of integer matrices; any failure reports the first
    differing entry.  Every product goes through the exact kernel of
    ``is_hadamard`` (the int8 seed rows would wrap in an int8 product) and is
    then combined in int64.
    """

    def P(X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        return _exact_product(X, Y).astype(np.int64)

    m, v = parts.m, parts.group.order
    I_v = np.eye(v, dtype=np.int64)
    I_m = np.eye(m, dtype=np.int64)
    J_m = np.ones((m, m), dtype=np.int64)
    H1, H2 = parts.H1, parts.H2
    Ap, Bp = parts.Ap, parts.Bp
    C, n_in = parts.C.astype(np.int64), parts.n_in.astype(np.int64)
    zeros_vm = np.zeros((v, m), dtype=np.int64)
    two_level = (v + m // 2) * I_m - (m // 2) * J_m
    checks: List[Tuple[int, str, np.ndarray, np.ndarray]] = [
        (1, "H1 H1^T coset pattern", P(H1), m * n_in),
        (1, "H2 H2^T coset pattern", P(H2), m * n_in),
        (2, "H1^T H1 two-level form", P(H1.T), two_level),
        (2, "H2^T H2 two-level form", P(H2.T), two_level),
        (3, "H1 H2^T opposite-coset pattern", P(H1, H2.T), -m * C),
        (4, "C C^T coset pattern", P(C), (m // 2) * n_in),
        (5, "A'A'^T + B'B'^T three-level form",
         P(Ap) + P(Bp), m * m * I_v - m * n_in),
        (6, "A'C^T pattern", P(Ap, C.T), -(m // 2) * C),
        (7, "B'C^T pattern", P(Bp, C.T), -(m // 2) * n_in),
        (7, "C B'^T pattern", P(C, Bp.T), -(m // 2) * n_in),
        (8, "B'H1 + A'H2 vanishes", P(Bp, H1) + P(Ap, H2), zeros_vm),
        (9, "A'H1 - B'H2 - 2CH2 vanishes", P(Ap, H1) - P(Bp, H2) - P(2 * C, H2), zeros_vm),
        (10, "A'B'^T symmetric against B'A'^T", P(Ap, Bp.T), P(Bp, Ap.T)),
    ]
    out: List[IdentityCheck] = []
    for num, name, got, want in checks:
        if np.array_equal(got, want):
            out.append(IdentityCheck(num, name, True))
        else:
            idx = np.argwhere(got != want)[0]
            out.append(
                IdentityCheck(
                    num,
                    name,
                    False,
                    f"first mismatch at {tuple(int(x) for x in idx)}: "
                    f"{int(got[tuple(idx)])} != {int(want[tuple(idx)])}",
                )
            )
    return out


@dataclass
class SymmetricHadamardResult:
    matrix: SignMatrix
    parts: SymmetricParts
    family: DifferenceFamily


def symmetric_from_ddf(
    family: DifferenceFamily,
    H: Optional[SignMatrix] = None,
    coset_assignment: Assignment = None,
) -> SymmetricHadamardResult:
    """The symmetric Hadamard matrix of order m^2 from a qualifying family.

    The family passes the single ``check_symmetric_conditions`` call inside
    ``build_symmetric_parts``, which also supplies the default Sylvester seed.
    The result passes one Hadamard gate and one symmetry check; on failure
    the failing internal identity is named.
    """
    parts = build_symmetric_parts(family, H, coset_assignment)
    m = parts.m
    Jm = np.ones((m, m), dtype=np.int8)
    M = np.block(
        [
            [-Jm, parts.H1.T, parts.H2.T],
            [parts.H1, parts.Bp, parts.Ap],
            [parts.H2, parts.Ap, -parts.Bp - 2 * parts.C],
        ]
    )
    result = SignMatrix(
        M,
        provenance={
            "construction": "symmetric",
            "order": m * m,
            "m": m,
            "family": family.provenance,
            "assignment": parts.assignment,
        },
    )
    if not (is_hadamard(result) and is_symmetric(result)):
        failing = [c for c in identity_checks(parts) if not c.ok]
        names = ", ".join(f"{c.number}:{c.name}" for c in failing) or "none isolated"
        raise AssemblyError(f"assembled matrix failed; failing identities: {names}")
    return SymmetricHadamardResult(result, parts, family)


def hadamard_from_difference_set(family: DifferenceFamily) -> SignMatrix:
    """The translate-incidence +-1 matrix of a single-block difference set.

    For a (4s^2, 2s^2 - s, s^2 - s) set this is a regular Hadamard matrix;
    it is symmetric whenever the set is negation-closed.  Used to compare
    fingerprints with the order-m^2 array built from the same data.
    """
    if len(family.blocks) != 1:
        raise PreconditionError("need a single-block family")
    group = family.ambient
    elems, diff, _, _ = _index_tables(group)
    A = 2 * _membership(group, family.blocks[0].elements)[diff] - 1
    M = SignMatrix(A, labels=elems, provenance={"construction": "difference-set"})
    if not is_hadamard(M):
        raise AssemblyError("difference set does not give a Hadamard matrix")
    return M


# -- cheap equivalence invariants -------------------------------------------------


@dataclass(frozen=True)
class HadamardFingerprint:
    """Invariants under row/column permutation and negation (not a decider)."""

    order: int
    profile: Tuple[Tuple[int, int], ...]  # (abs 4-row product sum, count)
    rank2: int

    def as_tuple(self) -> tuple:
        return (self.order, self.profile, self.rank2)


def equivalence_invariants(M: SignMatrix) -> HadamardFingerprint:
    """Fingerprint: the 4-row product profile plus an augmented GF(2) rank.

    The profile is the multiset, over all 4-subsets of rows, of
    |sum_t m_i m_j m_k m_l|; negating any row or column flips an even number
    of factors per term or a whole sum, so absolute values are invariant.
    The rank is that of the span of pairwise row differences of the 0/1 lift
    joined with the all-ones vector: column negations shift every row the
    same way and so cancel in the differences, row negations add the
    all-ones vector, and permutations relabel the difference set.
    """
    if not is_hadamard(M):
        raise ValueError("fingerprints are only defined for Hadamard matrices")
    v = M.order
    if v > MAX_FINGERPRINT_ORDER:
        raise ValueError(
            f"fingerprint cost grows as order^6; refusing order {v} > {MAX_FINGERPRINT_ORDER}"
        )
    A = M.entries
    pair_i, pair_j = np.triu_indices(v, k=1)
    P = A[pair_i] * A[pair_j]  # one row per unordered row pair
    G = _exact_product(P)
    ii, jj = np.triu_indices(len(pair_i), k=1)
    disjoint = (
        (pair_i[ii] != pair_i[jj])
        & (pair_i[ii] != pair_j[jj])
        & (pair_j[ii] != pair_i[jj])
        & (pair_j[ii] != pair_j[jj])
    )
    vals = np.abs(G[ii[disjoint], jj[disjoint]]).astype(np.int64)
    counts = np.bincount(vals)
    profile = []
    for value, count in enumerate(counts):
        if count:
            if count % 3:
                raise RuntimeError("pairings did not triple-cover the quadruples")
            profile.append((int(value), int(count // 3)))
    bits = [int("".join("1" if x == 1 else "0" for x in row), 2) for row in A]
    vecs = [b ^ bits[0] for b in bits[1:]]
    vecs.append((1 << v) - 1)
    pivot_to_vec: Dict[int, int] = {}
    for b in vecs:
        while b:
            h = b.bit_length() - 1
            if h not in pivot_to_vec:
                pivot_to_vec[h] = b
                break
            b ^= pivot_to_vec[h]
    return HadamardFingerprint(v, tuple(sorted(profile)), len(pivot_to_vec))
