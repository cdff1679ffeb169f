"""One workload in a fresh process: closed-loop ops through designforge.cli.main.

run.py starts this file once per workload and reads the JSON it writes to
``--out``.  One client, one thread: each op starts when the previous one has
returned.  The loop stops before an op that would end past ``--seconds``
(at least one op always runs).  ``--trace 0`` runs plain ops only; ``--trace
1`` alternates plain and span-traced ops and ends with one counting op.
Every op's stdout is held against reference.json and re-checked by check.py
after the loop and after peak RSS is read, so neither the check nor its
memory is measured.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program(spawned_at: float) -> float:
    """Import designforge.cli from this checkout; the seconds since spawn."""
    sys.path.insert(0, str(SRC))
    import designforge.cli  # noqa: F401

    setup_s = time.monotonic() - spawned_at
    origin = Path(designforge.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"designforge imported from {origin}, not from {SRC}")
    return setup_s


def run_call(argv):
    """One CLI call in-process: (exit code, stdout, stderr, error or None)."""
    import contextlib
    import io

    from designforge import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), error


def output_summary(workload: str, label: str, stdout: str, exit_code, argv) -> dict:
    """The independent re-check of one distinct output, plus what reference.json compares."""
    import json

    import check
    import inputs

    if workload in ("gr4_symmetric", "szekeres_skew"):
        order, A = check.matrix_of(stdout)
        return {"problem": check.matrix_problem(order, A, label)}
    if workload == "search_m8":
        certs, summary = check.parse_search_output(stdout)
        return {
            "problem": check.search_output_problem(stdout, inputs.SEARCH_M),
            "certificates": len(certs),
            "orbits": summary["orbits"],
            "certificate_set_sha256": check.certificate_set_digest(certs),
        }
    with open(argv[-1], encoding="utf-8") as fh:
        family = json.load(fh)
    return {"problem": check.verify_output_problem(family, stdout, exit_code)}


def reference_problem(workload: str, expected: dict, exit_code, sha: str, summary: dict):
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, reference {expected['exit']}"
    if workload == "search_m8":
        for key in ("certificates", "orbits", "certificate_set_sha256"):
            if summary.get(key) != expected[key]:
                return f"{key} {summary.get(key)}, reference {expected[key]}"
    elif sha != expected["sha256"]:
        return f"stdout sha256 {sha[:12]}, reference {expected['sha256'][:12]}"
    return None


def negative_controls(workload: str, seed: int, outputs: dict, argv_of: dict) -> dict:
    """Corrupt one output of this run and return why the re-check rejects it (None: it did not)."""
    import json
    import random

    import check

    rng = random.Random(f"control/{workload}/{seed}")
    key = min(outputs)
    if workload in ("gr4_symmetric", "szekeres_skew"):
        order, A = check.matrix_of(outputs[key])
        return {"flipped_entry": check.flipped_entry_control(order, A, key[0], rng)}
    if workload == "search_m8":
        certs, _ = check.parse_search_output(outputs[key])
        family = certs[0]
    else:
        with open(argv_of[key][-1], encoding="utf-8") as fh:
            family = json.load(fh)
    return {
        "swapped_element": check.swapped_element_control(
            family["group"]["moduli"], family["forbidden"], family["blocks"], rng
        )
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    setup_s = _import_program(args.spawned_at)

    import hashlib
    import json
    import os
    import resource

    import numpy

    import inputs
    import tracer

    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    op_iter = inputs.workload_ops(args.workload, args.seed, args.workdir)

    spans = tracer.SpanRecorder()
    counter = tracer.CallCounter()
    ops = []
    # Each distinct output, by (label, stdout sha256), is kept on disk until the
    # checks run, so holding it does not add to the loop's peak RSS.
    output_files = {}
    argv_of = {}  # (label, stdout sha256) -> argv, and the exit code it gave
    exit_of = {}

    def run_op(kind: str) -> None:
        op = next(op_iter)
        if kind == "spans":
            spans.reset()
            spans.install()
        elif kind == "count":
            counter.reset()
            counter.install()
        results = []
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            for op_argv in op.argvs:
                results.append(run_call(op_argv))
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            spans.uninstall()
            counter.uninstall()
        calls = []
        for label, op_argv, (code, stdout, stderr, error) in zip(op.labels, op.argvs, results):
            sha = hashlib.sha256(stdout.encode()).hexdigest()
            if error is None and (label, sha) not in output_files:
                path = Path(args.workdir) / f"output-{os.getpid()}-{len(output_files)}.txt"
                path.write_text(stdout, encoding="utf-8")
                output_files[(label, sha)] = path
                argv_of[(label, sha)] = op_argv
                exit_of[(label, sha)] = code
            calls.append({"label": label, "exit": code, "sha256": sha,
                          "stdout_bytes": len(stdout.encode()), "error": error,
                          "stderr": stderr.strip()[-200:]})
        record = {"kind": kind, "key": op.key, "wall_s": wall, "cpu_s": cpu, "calls": calls}
        if kind == "spans":
            record["spans"] = spans.stats
            record["counters"] = spans.counters
        elif kind == "count":
            record["counts"] = dict(counter.counts)
        ops.append(record)

    start = time.perf_counter()
    kinds = ["plain", "spans"] if args.trace else ["plain"]
    while True:
        run_op(kinds[len(ops) % len(kinds)])
        elapsed = time.perf_counter() - start
        longest = max(o["wall_s"] for o in ops)
        if len(ops) >= len(kinds) and elapsed + longest > args.seconds:
            break
    if args.trace:
        run_op("count")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, outside the measured region ----------------------------------
    outputs = {}
    for key, path in output_files.items():
        outputs[key] = path.read_text(encoding="utf-8")
        path.unlink()
    summaries = {}
    for key, stdout in outputs.items():
        try:
            summaries[key] = output_summary(args.workload, key[0], stdout, exit_of[key], argv_of[key])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            summaries[key] = {"problem": f"unreadable output: {type(exc).__name__}: {exc}"}
    for o in ops:
        reasons = []
        expected = reference.get(o["key"], {})
        for c in o["calls"]:
            if c["error"] is not None:
                reasons.append(f"{c['label']} raised {c['error']}")
                continue
            summary = summaries[(c["label"], c["sha256"])]
            if c["label"] not in expected:
                reasons.append(f"{c['label']}: no reference outcome for {o['key']}")
            else:
                problem = reference_problem(args.workload, expected[c["label"]], c["exit"], c["sha256"], summary)
                if problem is not None:
                    reasons.append(f"{c['label']}: {problem}")
            if summary["problem"] is not None:
                reasons.append(f"{c['label']}: re-check: {summary['problem']}")
        o["failure"] = "; ".join(reasons) or None

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "ops": ops,
        "controls": negative_controls(args.workload, args.seed, outputs, argv_of) if outputs else {},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
