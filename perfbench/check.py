"""Independent re-checks of CLI output, in the benchmark's own code.

Nothing here imports designforge.  Each check returns None when the output
is right and a one-line reason when it is not.  Differences are recounted by
enumerating pairs row by row over mixed-radix codes, not by the library's
k x k x dims broadcast; matrices are checked in float64, which is exact here
because every entry and partial sum of M M^T is an integer of magnitude at
most the order, far below 2^53.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Element = Tuple[int, ...]

_ROW_CHUNK_PAIRS = 1 << 21


# -- difference counting -------------------------------------------------------------


def _weights(moduli: Sequence[int]) -> np.ndarray:
    w = np.ones(len(moduli), dtype=np.int64)
    for i in range(len(moduli) - 2, -1, -1):
        w[i] = w[i + 1] * moduli[i + 1]
    return w


def code_of(moduli: Sequence[int], e: Sequence[int]) -> int:
    return int(np.dot(np.asarray(e, dtype=np.int64), _weights(moduli)))


def recount(moduli: Sequence[int], blocks: Sequence[Sequence[Element]]) -> np.ndarray:
    """Counts of x - y over ordered pairs x != y in each block, indexed by code."""
    mods = np.asarray(moduli, dtype=np.int64)
    weights = _weights(moduli)
    order = _order(moduli)
    counts = np.zeros(order, dtype=np.int64)
    for block in blocks:
        if len(block) < 2:
            continue
        pts = np.asarray(block, dtype=np.int64).reshape(len(block), len(moduli))
        rows = max(1, _ROW_CHUNK_PAIRS // len(block))
        for start in range(0, len(block), rows):
            x = pts[start : start + rows]
            codes = (((x[:, None, :] - pts[None, :, :]) % mods) * weights).sum(axis=2)
            counts += np.bincount(codes.ravel(), minlength=order)
        counts[0] -= len(block)
    return counts


def family_problem(
    moduli: Sequence[int],
    forbidden: Sequence[Element],
    blocks: Sequence[Sequence[Element]],
    lam: Optional[int] = None,
    mu: Optional[int] = None,
) -> Optional[str]:
    """None if counts are constant on N minus 0 (and equal lam) and outside N (mu)."""
    for block in blocks:
        if len(set(map(tuple, block))) != len(block):
            return "block repeats an element"
        for e in block:
            if len(e) != len(moduli) or any(not 0 <= c < m for c, m in zip(e, moduli)):
                return f"element {list(e)} outside the group"
    counts = recount(moduli, blocks)
    inside = np.zeros(len(counts), dtype=bool)
    for e in forbidden:
        inside[code_of(moduli, e)] = True
    inside[0] = False
    outside = ~inside
    outside[0] = False
    for region, want, name in ((inside, lam, "lambda"), (outside, mu, "mu")):
        values = np.unique(counts[region])
        if len(values) > 1:
            return f"{name} region holds counts {values[:4].tolist()}"
        if want is not None and len(values) == 1 and int(values[0]) != want:
            return f"{name}={int(values[0])}, expected {want}"
    return None


# -- verify output (oracle_verify) -----------------------------------------------------

_SUMMARY = re.compile(r"^(VERIFIED|FAILED): lambda=(\S+) mu=(\S+) K=\[([\d, ]*)\]")
_WITNESS = re.compile(r"witness d=\(([\d, ]+)\): count (\d+), expected mu=(\d+)")


def verify_output_problem(family: dict, stdout: str, exit_code: int) -> Optional[str]:
    """Recount the family's differences and hold the CLI's verdict line against them."""
    moduli = family["group"]["moduli"]
    (block,) = family["blocks"]
    counts = recount(moduli, [block])[1:]
    match = _SUMMARY.match(stdout)
    if match is None:
        return f"unparsed verdict {stdout[:80]!r}"
    status, _, mu_text, sizes = match.groups()
    if [int(s) for s in sizes.split(",")] != [len(block)]:
        return f"K=[{sizes}] but the block has {len(block)} elements"
    if int(mu_text) != int(counts[0]):
        return f"mu={mu_text}, recount gives {int(counts[0])} at the first nonzero element"
    if counts.min() == counts.max():
        if status != "VERIFIED" or exit_code != 0:
            return f"a difference set reported {status} with exit {exit_code}"
        return None
    if status != "FAILED" or exit_code != 1:
        return f"counts range {counts.min()}..{counts.max()} but reported {status}"
    witness = _WITNESS.search(stdout)
    if witness is None:
        return "failure reported without a witness"
    d = [int(c) for c in re.findall(r"\d+", witness.group(1))]
    got, expected = int(witness.group(2)), int(witness.group(3))
    true_count = int(counts[code_of(moduli, d) - 1])
    if true_count != got or got == expected or int(counts[0]) != expected:
        return f"witness d={d} count {got} (recount {true_count}), expected {expected}"
    return None


# -- search output (search_m8) ------------------------------------------------------------


def _order(moduli: Sequence[int]) -> int:
    return int(np.prod(moduli))


def certificate_problem(cert: dict, m: int) -> Optional[str]:
    """The difference counts and the array preconditions of one certificate."""
    moduli = cert["group"]["moduli"]
    forbidden = [tuple(e) for e in cert["forbidden"]]
    blocks = [[tuple(e) for e in blk] for blk in cert["blocks"]]
    k, lam, mu = m * (m - 2) // 4, m * (m - 4) // 4, m * (m - 3) // 4
    if sorted(len(b) for b in blocks) != [k, k]:
        return f"block sizes {[len(b) for b in blocks]}, need [{k}, {k}]"
    problem = family_problem(moduli, forbidden, blocks, lam, mu)
    if problem is not None:
        return problem
    neg = lambda e: tuple((-c) % q for c, q in zip(e, moduli))  # noqa: E731
    if not any(all(neg(e) in set(b) for e in b) for b in blocks):
        return "neither block is negation-closed"
    n_set = set(forbidden)
    for b in blocks:
        per_coset: Dict[frozenset, int] = {}
        for e in b:
            if e in n_set:
                return f"block meets N at {list(e)}"
            coset = frozenset(tuple((c + f) % q for c, f, q in zip(e, n, moduli)) for n in forbidden)
            per_coset[coset] = per_coset.get(coset, 0) + 1
        if set(per_coset.values()) != {m // 4} or len(per_coset) != _order(moduli) // len(n_set) - 1:
            return "a block does not meet every nonidentity coset of N in m/4 points"
    return None


def certificate_set_digest(cert_lines: Sequence[dict]) -> str:
    blocks = sorted(json.dumps(c["blocks"], separators=(",", ":")) for c in cert_lines)
    return hashlib.sha256("\n".join(blocks).encode()).hexdigest()


def parse_search_output(stdout: str) -> Tuple[List[dict], dict]:
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return lines[:-1], lines[-1]["summary"]


def search_output_problem(stdout: str, m: int) -> Optional[str]:
    certs, summary = parse_search_output(stdout)
    if summary["certificates"] != len(certs):
        return f"summary lists {summary['certificates']} certificates, output has {len(certs)}"
    for i, cert in enumerate(certs):
        problem = certificate_problem(cert, m)
        if problem is not None:
            return f"certificate {i}: {problem}"
    return None


# -- matrices (gr4_symmetric, szekeres_skew) ---------------------------------------------


def matrix_of(stdout: str) -> Tuple[int, np.ndarray]:
    data = json.loads(stdout)
    return int(data["order"]), np.asarray(data["rows"], dtype=np.float64)


def matrix_problem(order: int, A: np.ndarray, kind: str) -> Optional[str]:
    """+-1 entries, symmetry or skewness (M + M^T = 2I), and M M^T = order I."""
    if A.shape != (order, order):
        return f"shape {A.shape}, order {order}"
    if not ((A == 1) | (A == -1)).all():
        return "an entry is not +-1"
    eye = np.eye(order)
    if kind == "symmetric" and not (A == A.T).all():
        return "not symmetric"
    if kind == "skew" and not (A + A.T == 2 * eye).all():
        return "not skew"
    gram = A @ A.T
    bad = np.argwhere(gram != order * eye)
    if len(bad):
        i, j = bad[0]
        return f"rows {i} and {j} have inner product {gram[i, j]:.0f}"
    return None


# -- negative controls ------------------------------------------------------------------------


def flipped_entry_control(order: int, A: np.ndarray, kind: str, rng: random.Random) -> Optional[str]:
    """Flip one seeded entry; returns the reason the check rejects it, or None if it did not."""
    B = A.copy()
    i, j = rng.randrange(order), rng.randrange(order)
    B[i, j] = -B[i, j]
    return matrix_problem(order, B, kind)


def swapped_element_control(
    moduli: Sequence[int], forbidden: Sequence[Element], blocks: Sequence[Sequence[Element]],
    rng: random.Random,
) -> Optional[str]:
    """Swap one seeded block element for a non-member; returns the rejection reason or None."""
    blocks = [list(map(tuple, b)) for b in blocks]
    b = rng.randrange(len(blocks))
    members = set(blocks[b])
    outside = [e for e in itertools.product(*map(range, moduli)) if e not in members]
    blocks[b][rng.randrange(len(blocks[b]))] = rng.choice(outside)
    return family_problem(moduli, forbidden, blocks)
