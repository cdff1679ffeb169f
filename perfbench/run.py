"""designforge benchmark: time to a verified artifact, peak memory, layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gr4_symmetric --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py        # every workload, untraced then traced

Each workload runs in a fresh child process (workload.py), one workload at a
time.  ``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer metrics named in BENCHMARK.json.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's metadata.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracer
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_PROBES = 8  # fresh interpreters timed per run, besides the workload's own
DEADLINE_S = 170  # the whole run, child included, ends within this
PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); import designforge.cli; print(time.monotonic())"


class RunError(RuntimeError):
    """The benchmark could not produce a result."""


# -- metadata ----------------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def host_load() -> dict:
    """/proc/loadavg and MemAvailable, read only."""
    mem = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemAvailable:"):
            mem = int(line.split()[1]) / 1024.0
    load = _read("/proc/loadavg")
    return {"loadavg": load.split()[:3] if load else None, "mem_available_mb": mem}


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    sha = _read(str(ROOT / ".git" / ref))
    if sha:
        return sha.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "designforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- one workload ------------------------------------------------------------------


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time")
    return left


def setup_probe(deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to `import designforge.cli` done."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=_remaining(deadline),
    )
    if out.returncode != 0:
        raise RunError(f"importing designforge failed: {out.stderr.strip()[-300:]}")
    return float(out.stdout) - t0


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Start the workload's own child process and return its result and metadata."""
    load_start = host_load()
    setup_probe(deadline)  # warm-up: a fresh checkout compiles its bytecode here
    probes = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"result-{name}-{os.getpid()}.json"
    spawned = time.monotonic()
    child = subprocess.Popen(
        [
            sys.executable, str(HERE / "workload.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--spawned-at", repr(spawned), "--workdir", str(WORKDIR), "--out", str(out),
        ],
        stdout=sys.stderr,
    )
    try:
        code = child.wait(timeout=_remaining(deadline))
    except (subprocess.TimeoutExpired, RunError):
        child.kill()
        child.wait()
        raise RunError(f"{name} did not finish in time")
    if code != 0:
        raise RunError(f"{name} exited with {code}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    result["setup_samples"] = [result["setup_s"]] + probes
    result["load_start"], result["load_end"] = load_start, host_load()
    return result


# -- metrics -----------------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _walls(result: dict, kind: str) -> List[float]:
    return [o["wall_s"] for o in result["ops"] if o["kind"] == kind]


def end_to_end(result: dict) -> Dict[str, float]:
    ops = result["ops"]
    failed = sum(1 for o in ops if o["failure"])
    return {
        "verified_s": _median(_walls(result, "plain")),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": _median(result["setup_samples"]),
        "verified_rate": (len(ops) - failed) / len(ops),
    }


def _span_op_metrics(op: dict, names: List[str]) -> Dict[str, float]:
    """Per-layer values of one span-traced op: ``*.self_s`` and ``*.calls`` by span name."""
    stats, counters = op["spans"], op["counters"]

    def stat(name: str, i: int) -> float:
        return stats.get(name, (0, 0.0, 0.0))[i]

    out: Dict[str, float] = {}
    for metric in names:
        base, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = stat("cli.main" if base == "cli" else base, 2)
        elif field == "calls" and metric not in tracer.COUNTED:
            out[metric] = stat(base, 0)
    macs = counters.get("hadamard.gram_macs", 0)
    pairs = counters.get("designs.difference_table.pairs", 0)
    out.update({
        "hadamard.gram_macs": macs,
        "hadamard.gram_macs_per_s": macs / stat("hadamard.is_hadamard", 2) if macs else 0.0,
        "hadamard.matrix_bytes": counters.get("hadamard.matrix_bytes", 0),
        "designs.difference_table.pairs": pairs,
        "designs.pairs_per_s": pairs / stat("designs.difference_table", 2) if pairs else 0.0,
        "cli.stdout_bytes": sum(c["stdout_bytes"] for c in op["calls"]),
        "search.ddf_total_s": stat("search.search_ddf", 1),
        "search.certificates": counters.get("search.certificates", 0),
    })
    return out


def per_layer(result: dict, names: List[str]) -> Dict[str, float]:
    span_ops = [_span_op_metrics(o, names) for o in result["ops"] if o["kind"] == "spans"]
    merged = {k: _median([m[k] for m in span_ops]) for k in span_ops[0]}
    (count_op,) = [o for o in result["ops"] if o["kind"] == "count"]
    counts = count_op["counts"]
    nodes = counts["search.nodes"]
    merged.update(counts)
    merged.update({
        "search.nodes_per_s": nodes / merged["search.ddf_total_s"] if nodes else 0.0,
        "search.yield": merged["search.certificates"] / nodes if nodes else 0.0,
        "process.cpu_s": _median([o["cpu_s"] for o in result["ops"] if o["kind"] == "plain"]),
        "trace_overhead": _median(_walls(result, "spans")) / _median(_walls(result, "plain")),
    })
    return {k: merged[k] for k in names}


def tail_percentile(samples: List[float]) -> Optional[dict]:
    """The highest whole percentile (nearest rank) with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return {"p": p, "value": sorted(samples)[rank - 1], "n": n}


def report(name: str, seed: int, seconds: int, trace: int, units: Dict[str, str], deadline: float) -> dict:
    result = run_workload(name, seed, seconds, trace, deadline)
    ops = result["ops"]
    failed = sum(1 for o in ops if o["failure"])
    missed_controls = [k for k, why in result["controls"].items() if why is None]
    values = per_layer(result, list(units)) if trace else end_to_end(result)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "load_start": result["load_start"], "load_end": result["load_end"],
        "ops": [{"kind": o["kind"], "key": o["key"], "wall_s": o["wall_s"], "failure": o["failure"]} for o in ops],
        "verified_s_tail": tail_percentile(_walls(result, "plain")),
        "setup_samples": result["setup_samples"],
        "negative_controls": result["controls"],
    }
    return {
        "meta": meta,
        "result": {
            "correct": failed == 0 and not missed_controls and bool(result["controls"]),
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "designforge" / "cli.py").is_file():
            raise RunError(f"no designforge source under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {
            trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))
        }
        seconds = args.seconds or spec["run_seconds"]
        traces = [0, 1] if args.trace == "both" else [int(args.trace)]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        single = len(names) == 1 and len(traces) == 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in traces:
                out = report(name, args.seed, seconds, trace, units[trace], time.monotonic() + DEADLINE_S)
                print(json.dumps({"meta": out["meta"]}))
                res = out["result"]
                if single:
                    combined = res
                    break
                combined["correct"] &= res["correct"]
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
                for metric, v in res["metrics"].items():
                    combined["metrics"][f"{name}/{metric}"] = v
                    print(f"{name:15} {metric:44} {v['value']:>16.6g} {v['unit']}")
        print(json.dumps(combined))
        return 0
    except (RunError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
