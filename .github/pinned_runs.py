"""Run the CLI's large pinned commands, each in a fresh child process, and
check each one's exit code, its own peak RSS and its stdout.

Every row of ``RUNS`` is one command: its name, the CLI arguments, an
optional file argument, the cap on the child's peak RSS in MiB, and the
check of its stdout (a sha256 prefix, an exact text, or the summary-only
line of a cut search).  Each row's wall seconds are printed too, as a
report, not a bound.  A file argument is either a search spec, written as
JSON, or the name of an earlier row whose stdout is read back, as ``verify``
reads the q = 524287 family and ``hadamard symmetric --family`` the GR(4,6)
one.  The peak RSS is the child's own, read with
``os.wait4``.

Usage: python .github/pinned_runs.py   (runs every row; exits 1 if any fails)
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

M8 = {"group": {"moduli": [7, 2, 2]}, "forbidden": [[0, a, b] for a in range(2) for b in range(2)],
      "m": 8, "mode": "exhaustive", "seed": 0}
M12 = {"group": {"moduli": [66]}, "forbidden": [[11 * i] for i in range(6)],
       "m": 12, "mode": "exhaustive", "budget": {"max_nodes": 200000}}


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_prefix(prefix):
    return lambda path: sha256(path).startswith(prefix)


def exactly(text):
    return lambda path: Path(path).read_bytes() == text


def summary_only(path):
    lines = Path(path).read_bytes().splitlines()
    return len(lines) == 1 and "summary" in json.loads(lines[0])


RUNS = [
    # the order-16384 symmetric array
    ("symmetric-n7", ["hadamard", "symmetric", "--n", "7"], None, 448, sha256_prefix("871085a4339f")),
    # the order-16364 skew array, Z_8181 over 16 row tiles
    ("skew-q16363", ["hadamard", "skew", "--q", "16363"], None, 448, sha256_prefix("6646f3a14468")),
    # the Szekeres family at q = 524287 passes the oracle, and verify reads it back
    ("szekeres-q524287", ["construct", "szekeres", "--q", "524287"], None, 128,
     sha256_prefix("cc7056ee88e1")),
    ("verify-szekeres-q524287", ["verify"], "szekeres-q524287", 128,
     exactly(b"VERIFIED: lambda=- mu=131070 K=[131071, 131071]\n")),
    # the GR(4,6) family; the order-4096 array from it read back, which the
    # builder verifies, and built in process, which reads the carried verdict
    ("gr4-ddf-n6", ["construct", "gr4-ddf", "--n", "6"], None, 64, sha256_prefix("0323014097ae")),
    ("symmetric-family-n6", ["hadamard", "symmetric", "--family"], "gr4-ddf-n6", 128,
     sha256_prefix("c6f1c602fb5a")),
    ("symmetric-n6", ["hadamard", "symmetric", "--n", "6"], None, 128, sha256_prefix("c6f1c602fb5a")),
    # the Teichmuller difference set of GR(4,12)
    ("prop34-n12", ["construct", "prop34", "--n", "12"], None, 320, sha256_prefix("4c24487cb98c")),
    # the full m = 8 search, 1152 certificates in 36 orbits
    ("search-m8", ["search"], M8, 64, sha256_prefix("ad053234d8cf")),
    # the exhaustive walk over cyclic Z_66 at m = 12 keeps a bounded frontier for 200,000 nodes
    ("search-m12-cut", ["search"], M12, 64, summary_only),
]


def run(args, out_path):
    """The exit code and the peak RSS in MiB of one CLI run, its stdout
    written to ``out_path``.  Stdout goes to a file, never into this
    process: a child forked from a large parent would count the parent's
    pages in its own peak RSS."""
    with open(out_path, "wb") as out:
        child = subprocess.Popen([sys.executable, "-m", "designforge.cli"] + args, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own peak RSS
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024  # KiB on Linux


def main():
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, args, file_arg, cap_mib, check in RUNS:
            out = os.path.join(workdir, f"{name}.out")
            if isinstance(file_arg, str):  # an earlier row's stdout
                args = args + [os.path.join(workdir, f"{file_arg}.out")]
            elif file_arg is not None:  # a search spec
                args = args + [os.path.join(workdir, f"{name}.json")]
                Path(args[-1]).write_text(json.dumps(file_arg))
            start = time.monotonic()
            code, rss_mib = run(args, out)
            wall_s = time.monotonic() - start
            ok = code == 0 and rss_mib < cap_mib and check(out)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code}, {wall_s:.1f} s, peak RSS "
                  f"{rss_mib:.1f} MiB (cap {cap_mib}), stdout sha256 {sha256(out)}", flush=True)
            if not ok:
                with open(out, "rb") as fh:
                    print(f"     stdout begins {fh.read(200)!r}", flush=True)
                failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
