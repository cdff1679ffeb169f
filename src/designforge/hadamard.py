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

Every whole-matrix step works on tiles of ``_TILE_ROWS`` rows: the Gram
gate, the entry, symmetry and skewness checks, and ``_develop``, the one
writer of the group-developed arrays.  The skew, symmetric and
difference-set arrays each hand it their block formula as a grid of cells
(op, table, sign), such as [[A, B], [-B, A]]; it gathers each int8 +-1
table, indexed by group code, at the codes of a tile's rows of the Cayley
table (``FiniteAbelianGroup.cayley_rows``), and derives the array's
translations from the ops.  Besides the int8 matrix itself, none holds more
than a few tiles.  The translations are claimed to the Gram gate, which
verifies them and then multiplies one row per orbit.  The symmetric array's
parts, for its identity checks, are read off the assembled array.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import designs, groups
from .constructions import PreconditionError
from .designs import DifferenceFamily
from .groups import FiniteAbelianGroup, Subgroup, json_field, json_int, json_ints, json_list, json_object

MAX_FINGERPRINT_ORDER = 128
# The int8 entries take order^2 bytes, 256 MiB at this cap; every check and
# assembly adds only a few tiles of rows (see _TILE_ROWS), and an order-16384
# symmetric array runs in well under 1 GiB of peak RSS.
MAX_MATRIX_ORDER = 16384
# Rows per tile of the gate, the entry checks and the assemblies.  A pair of
# gate tiles casts to 2 * 512 * order float32 entries, 64 MiB at the cap; an
# assembly block holds one 512 x v int32 code array at a time, 16 MiB at
# v = 8191, and a few int8 blocks of rows.  Smaller tiles cost the gate time
# in BLAS calls too small to run at full speed (256 rows: 45% slower at order
# 8192 on a 2-core host).
_TILE_ROWS = 512
# float32 holds every integer of magnitude up to 2^24 exactly.
FLOAT32_EXACT_LIMIT = 1 << 24
# Entries the streaming writers turn into text per block of rows: each block
# holds a few bytes per entry, about 3 MiB at this size.
WRITE_BLOCK_ENTRIES = 1 << 18
# A claimed automorphism of a matrix: (sigma on rows, tau on columns).
Symmetry = Tuple[np.ndarray, np.ndarray]


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


def _exact_product(
    X: np.ndarray, Y: Optional[np.ndarray] = None, maxes: Optional[Tuple[int, int]] = None
) -> np.ndarray:
    """The exact integer product X @ Y (Y defaults to X.T) as a float32 array.

    Every term, partial sum and entry is an integer of magnitude at most
    inner_dim * max|X| * max|Y|; while that bound is at most 2^24 the
    float32 BLAS product equals the integer one in any summation order.
    Above it this raises ValueError.  ``maxes`` gives (max|X|, max|Y|) when
    the caller has taken them already.  An operand that is float32 already
    is used without a copy.  The default Y casts X once, and BLAS can then
    use its symmetric rank-k kernel.
    """
    if maxes is None:
        maxes = (_max_abs(X), _max_abs(X if Y is None else Y))
    bound = X.shape[1] * maxes[0] * maxes[1]
    if bound > FLOAT32_EXACT_LIMIT:
        raise ValueError(
            f"exact float32 product needs inner_dim * max|X| * max|Y| <= 2^24, got {bound}"
        )
    Xf = X.astype(np.float32, copy=False)
    return Xf @ (Xf.T if Y is None else Y.astype(np.float32, copy=False))


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
        for start in range(0, arr.shape[0], _TILE_ROWS):
            tile = arr[start : start + _TILE_ROWS]
            if not (np.abs(tile) == 1).all():
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

    def _block_rows(self) -> Iterator[np.ndarray]:
        """The int8 entries in blocks of whole rows, about WRITE_BLOCK_ENTRIES each."""
        step = max(1, WRITE_BLOCK_ENTRIES // max(1, self.order))
        for start in range(0, self.order, step):
            yield self.entries[start : start + step]

    def iter_text(self) -> Iterator[str]:
        """``to_text()`` plus a final newline, a block of rows per chunk."""
        for block in self._block_rows():
            buf = np.empty((block.shape[0], self.order + 1), dtype=np.uint8)
            buf[:, :-1] = np.where(block == 1, np.uint8(ord("+")), np.uint8(ord("-")))
            buf[:, -1] = ord("\n")
            yield buf.tobytes().decode("ascii")

    def to_text(self) -> str:
        return "".join(self.iter_text())[:-1]

    @classmethod
    def from_text(cls, text: str) -> "SignMatrix":
        """Parse ``to_text`` output, one row of ``+`` and ``-`` per line; any
        other character, ragged rows or a matrix that is not square raise
        ValueError."""
        lines = [line.strip() for line in text.strip().splitlines()]
        for i, line in enumerate(lines):
            other = set(line) - {"+", "-"}
            if other:
                raise ValueError(f"matrix row {i} holds {min(other)!r}; entries must be '+' or '-'")
        _check_square(lines, "matrix")
        rows = [[1 if ch == "+" else -1 for ch in line] for line in lines]
        return cls(np.array(rows, dtype=np.int64))

    def _json_extras(self) -> dict:
        """The optional fields of ``to_json``: row labels and provenance."""
        data: dict = {}
        if self.labels is not None:
            data["row_labels"] = [list(l) if isinstance(l, tuple) else l for l in self.labels]
        if self.provenance is not None:
            data["provenance"] = self.provenance
        return data

    def to_json(self) -> dict:
        return {"order": self.order, "rows": self.entries.tolist(), **self._json_extras()}

    def iter_json(self) -> Iterator[str]:
        """``json.dumps(to_json(), sort_keys=True, separators=(",", ":"))`` plus a
        final newline, written from the int8 entries a block of rows per chunk.

        "rows" sorts last among the keys, so the other fields go first through
        ``json.dumps`` itself.  Each row is laid out as a ``,`` (dropped before
        the first row), ``[``, then a ``-``, ``1``, ``,`` triple per entry with
        the ``-`` masked out for +1 entries, the last ``,`` being ``]``.
        """
        head = json.dumps(
            {"order": self.order, **self._json_extras()}, sort_keys=True, separators=(",", ":")
        )
        yield head[:-1] + ',"rows":['
        template = np.frombuffer(bytearray(",[" + "-1," * self.order, "ascii"), dtype=np.uint8)
        template[-1] = ord("]")
        first = True
        for block in self._block_rows():
            keep = np.ones((block.shape[0], template.size), dtype=bool)
            keep[:, 2::3] = block != 1
            keep[0, 0] = not first
            first = False
            yield np.broadcast_to(template, keep.shape)[keep].tobytes().decode("ascii")
        yield "]}\n"

    @classmethod
    def from_json(cls, data: dict) -> "SignMatrix":
        """Parse ``to_json`` output; ``rows`` must be a square array of rows
        of integers +1 or -1, and ``order``, ``row_labels`` and ``provenance``,
        if given, its order, an array and a JSON object, else ValueError
        naming the field."""
        rows = [
            json_ints(row, f"matrix.rows[{i}]")
            for i, row in enumerate(json_field(data, "rows", "matrix", json_list))
        ]
        _check_square(rows, "matrix.rows")
        order = json_field(data, "order", "matrix", json_int, len(rows))
        if order != len(rows):
            raise ValueError(f"matrix.order is {order}, but matrix.rows holds {len(rows)} rows")
        labels = json_field(data, "row_labels", "matrix", json_list, None)
        if labels is not None:
            labels = [tuple(l) if isinstance(l, list) else l for l in labels]
        return cls(
            np.array(rows, dtype=np.int64),
            labels=labels,
            provenance=json_field(data, "provenance", "matrix", json_object, None),
        )


def _check_square(rows: Sequence[Sequence], where: str) -> None:
    """ValueError unless ``rows`` holds n rows of n entries each."""
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise ValueError(f"{where} has ragged rows of {widths[0]} to {widths[-1]} entries")
    if widths and widths[0] != len(rows):
        raise ValueError(f"{where} has {len(rows)} rows of {widths[0]} entries, not a square")


def _orbit_leasts(A: np.ndarray, symmetries: Sequence[Symmetry]) -> np.ndarray:
    """The least row of each orbit of the claimed symmetries (sigma, tau)
    that A has, sorted; every row if none holds.  A claim holds if both are
    permutations of range(order) and A[sigma[i], tau[j]] == A[i, j], checked
    a row tile at a time with ``take(tau, axis=1)``; any other is dropped."""
    every, sigmas = np.arange(A.shape[0]), []
    tiles = [slice(r, r + _TILE_ROWS) for r in range(0, every.size, _TILE_ROWS)]
    for sigma, tau in symmetries:
        sigma, tau = np.asarray(sigma), np.asarray(tau)
        both_perms = all(p.shape == every.shape and p.dtype.kind in "iu"
                         and np.array_equal(np.sort(p), every) for p in (sigma, tau))
        if both_perms and all(np.array_equal(A[sigma[s]].take(tau, axis=1), A[s]) for s in tiles):
            sigmas.append(sigma)
    least, before = every, None
    while sigmas and least is not before:  # until a sweep changes nothing
        before = least
        for sigma in sigmas:
            least = groups.cycle_least(least, sigma)
    return np.flatnonzero(least == every)


def _gram_residual(
    M: SignMatrix, symmetries: Sequence[Symmetry] = ()
) -> Optional[Tuple[int, int, int]]:
    """An (i, j) where M M^T - order * I is nonzero, with that entry, or
    None if M is Hadamard; the least such (i, j), row-major, if no claimed
    symmetry holds.

    Each tile of the rows R that ``_orbit_leasts`` keeps is cast to float32
    and bounded once, then multiplied exactly by each column tile from the
    one holding its least row, as X X^T on the rows' own tile.  That covers
    G = M M^T: G is symmetric, and G = P_sigma G P_sigma^T for each verified
    sigma, as M = P_sigma M P_tau^T.  With r(x) the least row of x's orbit,
    take a pair with r(a) <= r(b) and pi, in the group the sigmas generate,
    with pi(r(a)) = a: G[a, b] = G[r(a), pi^-1 b], and pi^-1 b >= r(b) >=
    r(a).  With every row in R, as G's diagonal is zero (a +-1 row has
    squared norm order), no earlier row has a nonzero entry when row tile I
    is reached, so neither has any row of I left of I's diagonal tile.
    """
    A, n = M.entries, M.order
    rows = _orbit_leasts(A, symmetries)
    for start in range(0, rows.size, _TILE_ROWS):
        R = rows[start : start + _TILE_ROWS]
        X = A[R]
        x_max = _max_abs(X)
        X = X.astype(np.float32)  # cast once for all of the tile's column tiles
        found = []
        for c in range(R[0] - R[0] % _TILE_ROWS, n, _TILE_ROWS):
            if c == R[0] and rows.size == n:
                G = _exact_product(X, maxes=(x_max, x_max))
            else:
                Y = A[c : c + _TILE_ROWS]
                G = _exact_product(X, Y.T, maxes=(x_max, _max_abs(Y)))
            diagonal = (R >= c) & (R < c + _TILE_ROWS)
            G[diagonal, R[diagonal] - c] -= n
            if G.any():
                i, j = np.argwhere(G)[0].tolist()
                found.append((int(R[i]), c + j, int(G[i, j])))
        if found:
            return min(found)
    return None


def is_hadamard(M: SignMatrix, symmetries: Sequence[Symmetry] = ()) -> bool:
    """Exact check of M M^T = order * I.  Claimed symmetries, each verified
    first, change the work (a row per orbit) but never the verdict."""
    return _gram_residual(M, symmetries) is None


def hadamard_failure(M: SignMatrix) -> Optional[str]:
    """None if M is Hadamard, else the first row pair violating orthogonality.

    The same exact gate as ``is_hadamard``, read for a witness.
    """
    bad = _gram_residual(M)
    if bad is None:
        return None
    i, j, inner = bad
    return f"rows {i} and {j} have inner product {inner}, expected 0"


def _transposed_tiles(A: np.ndarray) -> Iterator[Tuple[bool, np.ndarray, np.ndarray]]:
    """Square tiles A[I, J] and A[J, I]^T over the upper triangle of row-tile
    pairs, each with whether it lies on the diagonal."""
    n = A.shape[0]
    for r in range(0, n, _TILE_ROWS):
        for c in range(r, n, _TILE_ROWS):
            rows, cols = slice(r, r + _TILE_ROWS), slice(c, c + _TILE_ROWS)
            yield r == c, A[rows, cols], A[cols, rows].T


def is_symmetric(M: SignMatrix) -> bool:
    return all(np.array_equal(X, Yt) for _, X, Yt in _transposed_tiles(M.entries))


def is_skew(M: SignMatrix) -> bool:
    """Exact check of M + M^T = 2I (unit diagonal, antisymmetric elsewhere)."""
    for diagonal, X, Yt in _transposed_tiles(M.entries):
        S = X + Yt
        if diagonal:
            S[np.diag_indices_from(S)] -= 2
        if S.any():
            return False
    return True


def sylvester(k: int) -> SignMatrix:
    """The tensor-doubled Hadamard matrix of order 2^k (normalized), verified."""
    if k < 0:
        raise ValueError("k must be >= 0")
    check_matrix_order(2, k)
    # doubled in place: [[H, H], [H, -H]] fills the next 2s x 2s corner
    H = np.empty((1 << k, 1 << k), dtype=np.int8)
    H[0, 0] = 1
    for s in (1 << i for i in range(k)):
        H[:s, s : 2 * s] = H[s : 2 * s, :s] = H[:s, :s]
        np.negative(H[:s, :s], out=H[s : 2 * s, s : 2 * s])
    result = SignMatrix(H, provenance={"construction": "sylvester", "k": k})
    if not is_hadamard(result):
        raise AssemblyError("Sylvester matrix is not Hadamard")
    return result


def normalize(M: SignMatrix) -> SignMatrix:
    """Negate rows/columns until the first row and column are all +1."""
    A = M.entries * M.entries[0]
    A = A * A[:, :1]
    return SignMatrix(A, provenance=M.provenance)


# -- group-developed arrays --------------------------------------------------------

# A cell of a developed array's block grid: (op, table, sign) gives the block
# sign * table[op(i, j)] over row codes i and column codes j, with op
# ``np.subtract`` or ``np.add`` and table an int8 +-1 array indexed by code.
Cell = Tuple[Callable, np.ndarray, int]


def _membership(group: FiniteAbelianGroup, codes: np.ndarray) -> np.ndarray:
    out = np.zeros(group.order, dtype=np.int8)
    out[codes] = 1
    return out


def _radix_generators(group: FiniteAbelianGroup) -> List[int]:
    """The radix weights of the coordinates other than Z_1: they generate G."""
    return [w for m, w in zip(group.moduli, group.weights) if m > 1]


def _develop(
    M: np.ndarray,
    head: int,
    group: FiniteAbelianGroup,
    gens: Sequence[int],
    layout: Sequence[Sequence[Cell]],
) -> List[Symmetry]:
    """Write the v x v blocks ``layout`` gives (v = |G|) into M below and
    right of its first ``head`` rows and columns, and return the array's
    translations: one claim (sigma, tau) per generator code g in ``gens``.

    Each tile of ``_TILE_ROWS`` rows takes one op's codes at a time from
    ``cayley_rows``, gathers each of that op's tables there once, and
    writes the gathered rows, negated for sign -1, into each of its cells.

    A block of op(i, j) is unchanged when its rows move by s*g and its
    columns by t*g, where t = s for i - j and t = -s for i + j.  With s = 1
    on block row 0, the ops of row 0 fix each block column's t and those of
    column 0 each block row's s.  The head rows and columns stay in place,
    so the caller picks ``gens`` under which they are invariant too.
    """
    v = group.order
    every = np.arange(v, dtype=group.code_dtype)
    cells = [(b, c, *cell) for b, row in enumerate(layout) for c, cell in enumerate(row)]
    ops = dict.fromkeys(op for _, _, op, _, _ in cells)
    for start in range(0, v, _TILE_ROWS):
        rows = every[start : start + _TILE_ROWS]
        for op in ops:
            codes, gathered = group.cayley_rows(rows, op), {}
            for b, c, cell_op, table, sign in cells:
                if cell_op is not op:
                    continue
                T = gathered.get(id(table))
                if T is None:
                    T = gathered[id(table)] = table.take(codes)
                r = head + b * v + start
                out = M[r : r + rows.size, head + c * v : head + (c + 1) * v]
                if sign < 0:
                    np.negative(T, out=out)
                else:
                    out[...] = T
            del codes, gathered, T  # freed before the next op's codes are built
    turn = {np.subtract: 1, np.add: -1}  # t = turn * s
    col_signs = [turn[op] for op, _, _ in layout[0]]
    row_signs = [turn[row[0][0]] * col_signs[0] for row in layout]

    def moved(g: int, signs: List[int]) -> np.ndarray:
        shifted = [(group.code_add if s > 0 else group.code_sub)(every, g) for s in signs]
        return np.concatenate([np.arange(head)] + [head + b * v + x for b, x in enumerate(shifted)])

    return [(moved(g, row_signs), moved(g, col_signs)) for g in gens]


# -- skew Hadamard matrices from two-block families ------------------------------


@dataclass
class SkewHadamardResult:
    matrix: SignMatrix
    skew_block_index: int
    family: DifferenceFamily


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
    report = family.report or designs.verify(family)
    if not report.ok:
        raise PreconditionError(f"family failed verification: {report.summary()}")
    if report.sizes != (m, m) or report.mu != m - 1:
        raise PreconditionError(
            f"family has K={list(report.sizes)}, lambda={report.mu}; "
            f"need K=[{m},{m}], lambda={m - 1}"
        )
    codes = [block.codes for block in family.blocks]
    skew_idx = next((i for i, c in enumerate(codes) if not group.negatives_in(c).any()), None)
    if skew_idx is None:
        raise PreconditionError("neither block satisfies the skewness condition")
    signs_S = 2 * _membership(group, codes[skew_idx]) - 1
    signs_S[0] = 1  # the skew block plus the identity
    signs_T = 2 * _membership(group, codes[1 - skew_idx]) - 1
    # [[1, 1, e^T, -e^T], [-1, 1, e^T, e^T], [-e, -e, A, B], [e, -e, -B, A]]
    M = np.empty((2 * v + 2, 2 * v + 2), dtype=np.int8)
    M[:2, :2] = [[1, 1], [-1, 1]]
    M[:2, 2:] = np.repeat(np.array([[1, -1], [1, 1]], dtype=np.int8), v, axis=1)
    M[2:, :2] = np.repeat(np.array([[-1, -1], [1, -1]], dtype=np.int8), v, axis=0)
    A, B = (np.subtract, signs_S, 1), (np.add, signs_T, 1)
    claims = _develop(M, 2, group, _radix_generators(group), [[A, B], [(np.add, signs_T, -1), A]])
    result = SignMatrix(
        M,
        provenance={
            "construction": "skew",
            "order": 4 * (m + 1),
            "family": family.provenance,
            "skew_block": skew_idx,
        },
    )
    if not is_hadamard(result, claims):
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
    """Parameter and structure checks for the order-m^2 symmetric array: the
    batch of one of ``check_symmetric_conditions_batch``."""
    return check_symmetric_conditions_batch([family], m)[0]


def check_symmetric_conditions_batch(
    families: Sequence[DifferenceFamily], m: Optional[int] = None
) -> List[SeedConditionReport]:
    """Parameter and structure checks of each family for the order-m^2
    symmetric array; m defaults to 2|N|.  The families must share one
    ambient group and one forbidden subgroup N; otherwise this raises
    ValueError.

    Needs |G| = m(m-1)/2, |N| = m/2, two blocks of size m(m-2)/4 with
    frequencies (m(m-4)/4, m(m-3)/4), one negation-closed block, and both
    blocks meeting every nonidentity coset of N in exactly m/4 points while
    missing N itself.  Blocks may arrive in either order (serialization
    sorts them); ``block_order`` reports which one plays the type-1 role.
    When neither block is negation-closed, the witness is the least element
    of the first block whose negative it misses; a balance failure names
    the first coset off m/4, by least member, and the first block there.
    A failure of m, |N|, |G| or the block count is reported alone, before
    the oracle and the coset index cost anything.  The other families read
    the verdicts they carry; those without one share one
    ``designs.verify_batch`` run.  All share one ``negatives_in`` and one
    bincount of ``N.coset_index()`` over all of their blocks.
    """
    if not families:
        return []
    N = designs.batch_subgroup(families)
    if m is None:
        m = 2 * N.order
    reports: List[Optional[SeedConditionReport]] = []
    shaped = []  # the positions of the well-shaped families
    for i, family in enumerate(families):
        failures = _shape_failures(family, m)
        reports.append(SeedConditionReport(False, m, failures) if failures else None)
        if not failures:
            shaped.append(i)
    if shaped:
        batch = [families[i] for i in shaped]
        designs.verify_batch([family for family in batch if family.report is None])
        for i, report in zip(shaped, _structure_reports(batch, N)):
            reports[i] = report
    return reports  # type: ignore[return-value]  # every slot is filled


def _shape_failures(family: DifferenceFamily, m: int) -> List[str]:
    """The failures of m, |N|, |G| and the block count."""
    group, N = family.ambient, family.forbidden
    failures: List[str] = []
    if m % 4 != 0:
        failures.append(f"m={m} is not divisible by 4")
    if 2 * N.order != m:
        failures.append(f"|N|={N.order}, need m/2={m // 2}")
    if group.order != m * (m - 1) // 2:
        failures.append(f"|G|={group.order}, need m(m-1)/2={m * (m - 1) // 2}")
    if len(family.blocks) != 2:
        failures.append(f"need 2 blocks, got {len(family.blocks)}")
    return failures


def _structure_reports(batch: List[DifferenceFamily], N: Subgroup) -> List[SeedConditionReport]:
    """The rest of ``check_symmetric_conditions_batch`` for well-shaped
    families with forbidden subgroup N, which carry their oracle verdicts."""
    group = N.parent
    m = 2 * N.order
    k, lam, mu = m * (m - 2) // 4, m * (m - 4) // 4, m * (m - 3) // 4
    codes = [block.codes for family in batch for block in family.blocks]
    flat = np.concatenate(codes)
    block_of = np.repeat(np.arange(len(codes)), [c.size for c in codes])
    closed = group.negatives_in(flat, block_of)
    is_closed = (np.bincount(block_of[~closed], minlength=len(codes)) == 0).tolist()
    # points of each block per coset of N, by coset number; N itself is coset 0
    index = N.coset_index()
    n_cosets = group.order // N.order
    per_coset = np.bincount(block_of * n_cosets + index[flat], minlength=len(codes) * n_cosets)
    per_coset = per_coset.reshape(len(batch), 2, n_cosets)
    balanced = ~(per_coset[:, :, 0].any(axis=1) | (per_coset[:, :, 1:] != m // 4).any(axis=(1, 2)))
    reports = []
    for f, (family, is_balanced) in enumerate(zip(batch, balanced.tolist())):
        report = family.report
        failures: List[str] = []
        if not report.ok:
            failures.append(f"family does not verify: {report.summary()}")
        if report.sizes != (k, k):
            failures.append(f"sizes {list(report.sizes)}, need [{k},{k}]")
        if report.ok and (report.lam != lam or report.mu != mu):
            failures.append(f"frequencies ({report.lam},{report.mu}), need ({lam},{mu})")
        block_order = (0, 1)
        if not is_closed[2 * f]:
            if is_closed[2 * f + 1]:
                block_order = (1, 0)
            else:
                first = codes[2 * f]
                start = int(np.searchsorted(block_of, 2 * f))
                witness = group.element(int(first[np.argmin(closed[start : start + first.size])]))
                failures.append(f"neither block is negation-closed (first fails at {witness})")
        if not is_balanced:
            counts = per_coset[f]
            for i in np.flatnonzero(counts[:, 0]).tolist():
                failures.append(f"block {i} meets N in {counts[i, 0]} points, need 0")
            off = np.argwhere(counts[:, 1:].T != m // 4) + (1, 0)  # row-major: first coset, then block
            if off.size:
                c, i = off[0].tolist()
                rep = group.element(int(np.argmax(index == c)))  # the coset's least member
                failures.append(
                    f"block {i} meets coset of {rep} in {counts[i, c]} points, need {m // 4}"
                )
        reports.append(
            SeedConditionReport(
                not failures, m, failures, report.lam, report.mu, report.sizes, block_order
            )
        )
    return reports


@dataclass
class SymmetricParts:
    """The pieces of the order-m^2 array, for the identity checks.

    Every array is int8; multiply them through ``_exact_product``, since an
    int8 product wraps.  ``of`` reads them off an assembled array.
    """

    group: FiniteAbelianGroup
    m: int
    H1: np.ndarray
    H2: np.ndarray
    C: np.ndarray  # [i,j] = 1 iff i + j in N
    Ap: np.ndarray  # +-1 incidence of i - j in the first block
    Bp: np.ndarray  # +-1 incidence of i + j in the second block
    n_in: np.ndarray  # [i,j] = 1 iff i - j in N

    @classmethod
    def of(cls, M: np.ndarray, N: Subgroup) -> "SymmetricParts":
        """The parts of M = [[-J, H1^T, H2^T], [H1, B', A'], [H2, A', -B' - 2C]]
        built with forbidden subgroup N.  H1, H2, B' and the upper A' are
        views of M, so a write to them writes M; C comes from the corner and
        B', n_in from ``N.coset_index()``."""
        m, v = 2 * N.order, N.parent.order
        upper, lower = M[m : m + v], M[m + v :]
        index = N.coset_index()
        return cls(
            group=N.parent,
            m=m,
            H1=upper[:, :m],
            H2=lower[:, :m],
            C=(lower[:, m + v :] + upper[:, m : m + v]) // -2,
            Ap=upper[:, m + v :],
            Bp=upper[:, m : m + v],
            n_in=(index[:, None] == index).astype(np.int8),
        )


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


def _symmetric_array(
    family: DifferenceFamily, H: Optional[SignMatrix], coset_assignment: Assignment
) -> Tuple[np.ndarray, List[int], List[Symmetry]]:
    """Check the order, the seed conditions and the seed, then assemble
    [[-J, H1^T, H2^T], [H1, B', A'], [H2, A', -B' - 2C]] as int8.  Returns
    the array, the coset assignment and the array's translations by N."""
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
    first, second = (family.blocks[i] for i in cond.block_order)
    group, N = family.ambient, family.forbidden
    v = group.order
    # element positions coincide with their mixed-radix codes, so the coset
    # index and the negation codes address rows directly
    coset_of = N.coset_index()
    assignment = _resolve_assignment(v // N.order, coset_assignment)
    M = np.empty((m + 2 * v, m + 2 * v), dtype=np.int8)
    M[:m, :m] = -1
    H1, H2 = M[m : m + v, :m], M[m + v :, :m]
    H1[...] = normalize(H).entries[1:][np.asarray(assignment, dtype=np.int64)[coset_of]]
    np.negative(H1[group.code_sub(0, np.arange(v, dtype=group.code_dtype))], out=H2)
    M[:m, m:] = M[m:, :m].T
    # +-1 tables by code: A' of i - j, and B' and -B' - 2C of i + j
    Ap = (np.subtract, 2 * _membership(group, first.codes) - 1, 1)
    signs_B = 2 * _membership(group, second.codes) - 1
    Bp, corner = (np.add, signs_B, 1), (np.add, -signs_B - 2 * _membership(group, N.codes), 1)
    claims = _develop(M, m, group, N.generators, [[Bp, Ap], [Ap, corner]])
    return M, assignment, claims


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
    on it.  The order m^2 is checked against MAX_MATRIX_ORDER first.  The
    parts are read off the array ``symmetric_from_ddf`` assembles, which is
    not gated here.
    """
    M, _, _ = _symmetric_array(family, H, coset_assignment)
    return SymmetricParts.of(M, family.forbidden)


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
    family: DifferenceFamily

    @cached_property
    def parts(self) -> SymmetricParts:
        """The parts for ``identity_checks``, read off the matrix on first use."""
        return SymmetricParts.of(self.matrix.entries, self.family.forbidden)


def symmetric_from_ddf(
    family: DifferenceFamily,
    H: Optional[SignMatrix] = None,
    coset_assignment: Assignment = None,
) -> SymmetricHadamardResult:
    """The symmetric Hadamard matrix of order m^2 from a qualifying family.

    The family passes a single ``check_symmetric_conditions`` call, in the
    assembly shared with ``build_symmetric_parts``, which also supplies the
    default Sylvester seed.  The array passes one Hadamard gate and one
    symmetry check; only on failure are its parts read off it to name the
    failing identity.
    """
    M, assignment, claims = _symmetric_array(family, H, coset_assignment)
    m = 2 * family.forbidden.order
    matrix = SignMatrix(
        M,
        provenance={
            "construction": "symmetric",
            "order": m * m,
            "m": m,
            "family": family.provenance,
            "assignment": assignment,
        },
    )
    result = SymmetricHadamardResult(matrix, family)
    if not (is_hadamard(matrix, claims) and is_symmetric(matrix)):
        failing = [c for c in identity_checks(result.parts) if not c.ok]
        names = ", ".join(f"{c.number}:{c.name}" for c in failing) or "none isolated"
        raise AssemblyError(f"assembled matrix failed; failing identities: {names}")
    return result


def hadamard_from_difference_set(family: DifferenceFamily) -> SignMatrix:
    """The translate-incidence +-1 matrix of a single-block difference set.

    For a (4s^2, 2s^2 - s, s^2 - s) set this is a regular Hadamard matrix;
    it is symmetric whenever the set is negation-closed.  Used to compare
    fingerprints with the order-m^2 array built from the same data.
    """
    if len(family.blocks) != 1:
        raise PreconditionError("need a single-block family")
    group = family.ambient
    check_matrix_order(group.order)
    signs = 2 * _membership(group, family.blocks[0].codes) - 1
    A = np.empty((group.order, group.order), dtype=np.int8)
    claims = _develop(A, 0, group, _radix_generators(group), [[(np.subtract, signs, 1)]])
    M = SignMatrix(A, labels=list(group.elements()), provenance={"construction": "difference-set"})
    if not is_hadamard(M, claims):
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
