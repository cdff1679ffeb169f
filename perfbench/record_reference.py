"""Record the reference outcome of every op the workloads can generate.

Run from the root of a checkout whose program is the reference version:

    python3 perfbench/record_reference.py

For each CLI call it stores the exit code and the sha256 of stdout; for
search_m8 it stores the certificate set and the orbit count instead, because
the node count in stdout may change under a complete prune.  An outcome is
recorded only if the benchmark's own re-check accepts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import inputs
import workload

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    workload._import_program(time.monotonic())
    workdir = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    reference: dict = {name: {} for name in inputs.WORKLOADS}
    for name, op in inputs.reference_ops(workdir):
        entry = reference[name].setdefault(op.key, {})
        for label, argv in zip(op.labels, op.argvs):
            t0 = time.perf_counter()
            code, stdout, _, error = workload.run_call(argv)
            if error is not None:
                raise SystemExit(f"{name} {op.key} {label} raised {error}")
            summary = workload.output_summary(name, label, stdout, code, argv)
            if summary["problem"] is not None:
                raise SystemExit(f"{name} {op.key} {label}: {summary['problem']}")
            outcome = {"exit": code}
            if name == "search_m8":
                outcome.update((k, summary[k]) for k in ("certificates", "orbits", "certificate_set_sha256"))
            else:
                outcome["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
            entry[label] = outcome
            print(f"{name} {op.key} {label}: exit {code} ({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
