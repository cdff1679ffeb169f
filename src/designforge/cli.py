"""Command-line front end: construct, verify, hadamard, search.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or I/O
error.  Given the same inputs and seed, stdout is byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import constructions, designs, hadamard, search
from .constructions import PreconditionError
from .field import MAX_FIELD_SIZE, FieldCtx, factorize, load_poly_table
from .galois import RingCtx
from .groups import json_file

POLY_TABLE_ENV = "DESIGNFORGE_POLY_TABLE"


@dataclass
class RunConfig:
    poly_table_path: Optional[str] = None
    fmt: str = "json"
    budget: Optional[int] = None
    out: Optional[str] = None

    def poly_table(self) -> Optional[Dict[Tuple[int, int], tuple]]:
        path = self.poly_table_path or os.environ.get(POLY_TABLE_ENV)
        if path is None:
            return None
        if not os.path.exists(path):
            raise FileNotFoundError(f"polynomial table {path} does not exist")
        return load_poly_table(path)


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _emit(chunks: Iterable[str], config: RunConfig) -> None:
    """Write the chunks, in order, to the --out file or to stdout.

    Callers pass only gated output, a verified artifact or the report of
    ``verify``, so --out is opened here, after the gate.  Chunks are
    ``str``: a redirected stdout may have no byte buffer.
    """
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _field_for(q: int, config: RunConfig) -> FieldCtx:
    if q > MAX_FIELD_SIZE:  # before factorize, whose trial division would hang
        raise PreconditionError(f"field size {q} exceeds the {MAX_FIELD_SIZE} cap")
    factors = factorize(q)
    if len(factors) != 1:
        raise PreconditionError(f"q={q} is not a prime power")
    (p, r), = factors.items()
    return FieldCtx(p, r, poly_table=config.poly_table())


def _trace_zero_u(ring: RingCtx, u: Optional[int]):
    """The residue-field element g^u for --u, range-checked like --y."""
    if u is None:
        return None
    if not 0 <= u < ring.residue.q - 1:
        raise PreconditionError(f"--u {u} out of range for the exponents 0..{ring.residue.q - 2}")
    return ring.residue.g_pow(u)


def _family_text(family: designs.DifferenceFamily) -> str:
    lines = [family.report.summary()]
    if family.provenance:
        lines.insert(0, _dump(family.provenance))
    for blk in family.sorted_blocks():
        rows = family.ambient.decode(blk.codes).tolist()
        lines.append(" ".join(",".join(map(str, e)) for e in rows))
    return "\n".join(lines)


def _emit_family(result, config: RunConfig) -> int:
    """Print a construction's family with the report its own oracle run left on it."""
    if config.fmt == "json":
        _emit([_dump(result.family.to_json()) + "\n"], config)
    else:
        _emit([_family_text(result.family) + "\n"], config)
    return 0


def _cmd_construct(args: argparse.Namespace, config: RunConfig) -> int:
    kind = args.kind
    if kind in ("szekeres", "prop22", "prop23"):
        if args.q is None:
            raise PreconditionError(f"{kind} needs --q")
        ctx = _field_for(args.q, config)
        if kind == "szekeres":
            result = constructions.szekeres_family(ctx)
        else:
            e = args.e if args.e is not None else 2
            result = constructions.cyclotomic_family(ctx, e, with_zero=(kind == "prop23"))
    elif kind in ("gr4-ddf", "gr4-union", "prop34"):
        if args.n is None:
            raise PreconditionError(f"{kind} needs --n")
        ring = RingCtx(args.n)
        u = _trace_zero_u(ring, args.u)
        if kind == "prop34":
            result = constructions.teichmuller_difference_set(ring, u)
        else:
            y = None
            if args.y is not None:
                if not 0 <= args.y < ring.teich_codes.size:
                    raise PreconditionError(f"--y {args.y} out of range for the Teichmuller list")
                y = ring.principal_units()[args.y]
            result = constructions.galois_ring_ddf(ring, u=u, y=y, include_ideal=(kind == "gr4-union"))
    else:
        raise PreconditionError(f"unknown construction kind {kind!r}")
    return _emit_family(result, config)


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    family = designs.DifferenceFamily.from_json(json_file(args.family))
    report = designs.verify(family)
    _emit([report.summary() + "\n"], config)
    return 0 if report.ok else 1


def _cmd_hadamard(args: argparse.Namespace, config: RunConfig) -> int:
    reads = {"sylvester": ("k",), "skew": ("q",), "symmetric": ("n", "u")}[args.subkind]
    if args.subkind == "symmetric" and args.family is not None:
        reads = ("family",)
    for flag in ("k", "q", "n", "u", "family"):
        if flag not in reads and getattr(args, flag) is not None:
            with_family = " with --family" * (reads == ("family",))
            raise PreconditionError(f"hadamard {args.subkind} does not read --{flag}{with_family}")
    if args.subkind == "sylvester":
        if args.k is None:
            raise PreconditionError("sylvester needs --k")
        matrix = hadamard.sylvester(args.k)
    elif args.subkind == "skew":
        if args.q is None:
            raise PreconditionError("skew needs --q")
        hadamard.check_matrix_order(args.q + 1)
        ctx = _field_for(args.q, config)
        family = constructions.szekeres_family(ctx).family
        matrix = hadamard.skew_from_df(family).matrix
    elif args.subkind == "symmetric":
        if args.n is not None:
            hadamard.check_matrix_order(4, args.n)
            ring = RingCtx(args.n)
            u = _trace_zero_u(ring, args.u)
            family = constructions.galois_ring_ddf(ring, u=u).family
        elif args.family is not None:
            family = designs.DifferenceFamily.from_json(json_file(args.family))
        else:
            raise PreconditionError("symmetric needs --n or --family")
        matrix = hadamard.symmetric_from_ddf(family).matrix
    _emit(matrix.iter_json() if config.fmt == "json" else matrix.iter_text(), config)
    return 0


def _certificate_lines(certs: Sequence[search.Certificate]) -> List[str]:
    """``_dump`` of each ``to_json`` of one ``search_ddf`` call's certificates,
    less ``elapsed``, which would make stdout irreproducible.  They share all
    fields but blocks and nodes, dumped once from the first; blocks are joined
    from element text by code, and ``fields``, built in sorted key order,
    keeps that order through ``update``."""
    if not certs:
        return []
    first, group, lines = certs[0], certs[0].family.ambient, []
    shared = dict(first.family.to_json(), spec=first.spec.to_json(), seed=first.seed, nodes=None)
    fields = {key: f'"{key}":{_dump(value)}' for key, value in sorted(shared.items())}
    text = [_dump(e) for e in group.decode(range(group.order)).tolist()]
    for cert in certs:
        blocks = [",".join([text[c] for c in b.codes.tolist()]) for b in cert.family.sorted_blocks()]
        fields.update(blocks='"blocks":[[%s]]' % "],[".join(blocks), nodes=f'"nodes":{cert.nodes}')
        lines.append("{%s}" % ",".join(fields.values()))
    return lines


def _cmd_search(args: argparse.Namespace, config: RunConfig) -> int:
    spec = search.SearchSpec.from_json(json_file(args.spec))
    if args.seed is not None:
        spec.seed = args.seed
    if config.budget is not None:
        spec.budget.max_nodes = config.budget
    certs = search.search_ddf(spec)
    summary = {"certificates": len(certs), "orbits": len(search.dedupe(certs)), "mode": spec.mode,
               "nodes": max((c.nodes for c in certs), default=None), "seed": spec.seed}
    _emit(["\n".join([*_certificate_lines(certs), _dump({"summary": summary})]) + "\n"], config)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: a parser sits in reference cycles, so one per call would
    leave garbage for the cyclic collector after every call."""
    parser = argparse.ArgumentParser(
        prog="designforge",
        description=(
            "Construct and verify difference families over finite fields and "
            "GR(4,n), and the Hadamard matrices built from them."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument(
        "--poly-table",
        help=f"path to a polynomial table (overrides ${POLY_TABLE_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a named family", parents=[common])
    p_con.add_argument(
        "kind",
        choices=("szekeres", "prop22", "prop23", "gr4-ddf", "gr4-union", "prop34"),
    )
    p_con.add_argument("--q", type=int, help="field size (prime power)")
    p_con.add_argument("--e", type=int, help="subgroup index (2, 4 or 8)")
    p_con.add_argument("--n", type=int, help="Galois ring degree")
    p_con.add_argument("--u", type=int, help="exponent of the trace-zero parameter")
    p_con.add_argument("--y", type=int, help="Teichmuller index of the second representative")

    p_ver = sub.add_parser("verify", help="verify a family JSON file", parents=[common])
    p_ver.add_argument("family")

    p_had = sub.add_parser("hadamard", help="build a verified Hadamard matrix", parents=[common])
    p_had.add_argument("subkind", choices=("sylvester", "skew", "symmetric"))
    p_had.add_argument("--k", type=int, help="sylvester: order is 2^k")
    p_had.add_argument("--q", type=int, help="skew: field size")
    p_had.add_argument("--n", type=int, help="symmetric: Galois ring degree")
    p_had.add_argument("--u", type=int, help="symmetric: trace-zero exponent")
    p_had.add_argument("--family", help="symmetric: family JSON file")

    p_sea = sub.add_parser("search", help="search for qualifying families", parents=[common])
    p_sea.add_argument("spec", help="search spec JSON file")
    p_sea.add_argument("--seed", type=int, help="override the spec seed")
    p_sea.add_argument("--budget", type=int, help="node budget override")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        poly_table_path=args.poly_table,
        fmt=args.format,
        out=args.out,
        budget=getattr(args, "budget", None),
    )
    try:
        if args.command == "construct":
            return _cmd_construct(args, config)
        if args.command == "verify":
            return _cmd_verify(args, config)
        if args.command == "hadamard":
            return _cmd_hadamard(args, config)
        if args.command == "search":
            return _cmd_search(args, config)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed self-check, AssemblyError included
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
