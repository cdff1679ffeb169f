import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import cli, constructions, hadamard
from designforge.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_szekeres_q11(capsys):
    code, out, _ = run_cli(["construct", "szekeres", "--q", "11"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"moduli": [5]}
    assert data["declared"]["mu"] == 1
    assert data["declared"]["K"] == [2, 2]


def test_construct_gr4_ddf_defaults(capsys):
    code, out, _ = run_cli(["construct", "gr4-ddf", "--n", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"moduli": [7, 2, 2]}
    assert data["declared"] == {"K": [12, 12], "lambda": 8, "mu": 10}
    assert data["provenance"]["u"] == 3 and data["provenance"]["y"] == 2


def test_construct_rejects_non_prime_power(capsys):
    code, _, err = run_cli(["construct", "prop22", "--q", "6", "--e", "2"], capsys)
    assert code == 2
    assert "not a prime power" in err


def test_construct_rejects_bad_diophantine(capsys):
    code, _, err = run_cli(["construct", "prop22", "--q", "13", "--e", "4"], capsys)
    assert code == 2
    assert "1 + 4t^2" in err


@pytest.mark.parametrize("e", ["0", "-2"])
def test_construct_rejects_an_index_outside_2_4_8(e, capsys):
    code, out, err = run_cli(["construct", "prop22", "--q", "7", "--e", e], capsys)
    assert (code, out, err) == (2, "", f"error: index e={e} is not one of 2, 4, 8\n")


def test_construct_prop23_and_prop34(capsys):
    code, out, _ = run_cli(["construct", "prop23", "--q", "109", "--e", "4"], capsys)
    assert code == 0
    assert json.loads(out)["declared"]["K"] == [6, 7, 7, 7]
    code, out, _ = run_cli(["construct", "prop34", "--n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["declared"] == {"K": [7], "lambda": None, "mu": 3}


def test_construct_prop23_octic_with_zero(capsys):
    # 26041 = 441 + 64*20^2 = 49 + 8*57^2: Lehmer's condition has a even, b odd
    code, out, _ = run_cli(["construct", "prop23", "--q", "26041", "--e", "8"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"moduli": [3255]}
    assert data["declared"] == {"K": [406] + [407] * 7, "lambda": None, "mu": 406}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "67c3827a1b432d862011f36570339ae87e1f631d221b36902eddd4d7ddf077c1"
    )


def test_construct_gr4_union(capsys):
    code, out, _ = run_cli(["construct", "gr4-union", "--n", "3"], capsys)
    assert code == 0
    assert json.loads(out)["declared"] == {"K": [16, 16], "lambda": 16, "mu": 18}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "fam.json"
    code, out, _ = run_cli(
        ["construct", "szekeres", "--q", "11", "--out", str(path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["verify", str(path)], capsys)
    assert code == 0
    assert "VERIFIED" in out


ROUND_TRIPS = {
    "szekeres": ["--q", "11"],
    "prop22": ["--q", "19", "--e", "2"],
    "prop23": ["--q", "109", "--e", "4"],
    "gr4-ddf": ["--n", "3"],
    "gr4-union": ["--n", "3"],
    "prop34": ["--n", "4"],
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_every_construct_kind_verifies_from_its_own_output(kind, tmp_path, capsys):
    # the file construct writes reads back to the summary that its text form printed
    argv = ["construct", kind, *ROUND_TRIPS[kind]]
    code, text, _ = run_cli(argv + ["--format", "text"], capsys)
    assert code == 0
    summary = next(line for line in text.splitlines() if line.startswith("VERIFIED: "))
    path = tmp_path / "family.json"
    assert run_cli(argv + ["--out", str(path)], capsys)[0] == 0
    assert run_cli(["verify", str(path)], capsys) == (0, summary + "\n", "")


def test_a_search_certificate_line_verifies(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": {"moduli": [6]}, "forbidden": [[0], [3]], "m": 4}))
    code, out, _ = run_cli(["search", str(spec)], capsys)
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out.splitlines()[0])
    assert run_cli(["verify", str(path)], capsys) == (0, "VERIFIED: lambda=0 mu=1 K=[2, 2]\n", "")


def test_verify_corrupted_family_exits_one(tmp_path, capsys):
    path = tmp_path / "fam.json"
    run_cli(["construct", "szekeres", "--q", "11", "--out", str(path)], capsys)
    data = json.loads(path.read_text())
    data["blocks"][0][0] = [0]  # inject the identity: counts break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", str(bad)], capsys)
    assert code == 1
    assert "FAILED" in out and "witness" in out


def test_verify_writes_its_report_to_out(tmp_path, capsys):
    # the report line goes to --out, not stdout, for a FAILED report too
    good = tmp_path / "fam.json"
    run_cli(["construct", "szekeres", "--q", "11", "--out", str(good)], capsys)
    data = json.loads(good.read_text())
    data["blocks"][0][0] = [0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for family, want_code in ((good, 0), (bad, 1)):
        _, printed, _ = run_cli(["verify", str(family)], capsys)
        report = tmp_path / "report.txt"
        assert run_cli(["verify", str(family), "--out", str(report)], capsys) == (want_code, "", "")
        assert report.read_text() == printed
    assert printed.startswith("FAILED")


def test_verify_into_an_unwritable_out_exits_two(tmp_path, capsys):
    family = tmp_path / "fam.json"
    run_cli(["construct", "szekeres", "--q", "11", "--out", str(family)], capsys)
    for out_path in (tmp_path, tmp_path / "missing" / "report.txt"):
        code, out, err = run_cli(["verify", str(family), "--out", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_io_errors_exit_two_with_one_line(tmp_path, capsys):
    cases = {
        "missing file": ["verify", str(tmp_path / "missing.json")],
        "directory": ["verify", str(tmp_path)],
        "--out into a missing directory": [
            "construct", "szekeres", "--q", "7", "--out", str(tmp_path / "no" / "f.json"),
        ],
    }
    for name, argv in cases.items():
        code, out, err = run_cli(argv, capsys)
        assert code == 2, name
        assert out == "", name
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, err)


def test_malformed_files_exit_two_with_one_line(tmp_path, capsys):
    family = {"group": {"moduli": [5]}, "forbidden": [[0]], "blocks": [[[1], [4]], [[2], [3]]]}
    spec = {"group": {"moduli": [6]}, "forbidden": [[0], [3]], "m": 4}

    poly_table = ["construct", "szekeres", "--q", "7", "--poly-table"]

    def without(data, key):
        return {k: v for k, v in data.items() if k != key}

    cases = [
        # (name, command, file contents, the field the error must name)
        ("family without forbidden", ["verify"], without(family, "forbidden"), "forbidden"),
        ("symmetric --family without forbidden", ["hadamard", "symmetric", "--family"],
         without(family, "forbidden"), "forbidden"),
        ("top-level list", ["verify"], [family], "family"),
        ("block element not an array", ["verify"], dict(family, blocks=[[1, 4]]), "blocks[0][0]"),
        ("moduli not integers", ["verify"], dict(family, group={"moduli": ["5"]}), "moduli"),
        ("group of order 10^12", ["verify"], dict(family, group={"moduli": [10**12]}),
         "family.group.moduli"),
        ("spec without forbidden", ["search"], without(spec, "forbidden"), "forbidden"),
        ("spec budget key max_nodez", ["search"], dict(spec, budget={"max_nodez": 5}), "max_nodez"),
        # forbidden elements get the range check that block elements get
        ("forbidden element out of range", ["verify"],
         {"group": {"moduli": [7]}, "forbidden": [[0], [7], [-14]], "blocks": [[[1], [2], [4]]]},
         "forbidden element (7,) outside FiniteAbelianGroup([7])"),
        ("block element out of range", ["verify"],
         {"group": {"moduli": [7]}, "forbidden": [[0]], "blocks": [[[1], [2], [11]]]},
         "block element (11,) outside FiniteAbelianGroup([7])"),
        # a polynomial table names its key at fault; bools are not coefficients
        ("poly table top-level list", poly_table, [["7,1", [0, 1]]], "poly table is not"),
        ("poly table entry not a list", poly_table, {"7,1": 5}, "poly table entry '7,1'"),
        ("poly table bool coefficient", poly_table, {"2,3": [1, True, 0, 1]},
         "poly table entry '2,3'"),
        ("poly table key not p,r", poly_table, {"7": [0, 1]}, "poly table key '7'"),
        ("spec forbidden element out of range", ["search"], dict(spec, forbidden=[[0], [9]]),
         "forbidden element (9,) outside FiniteAbelianGroup([6])"),
        # a repeated element is refused, not collapsed into a smaller set
        ("block element repeated", ["verify"],
         {"group": {"moduli": [7]}, "forbidden": [[0]], "blocks": [[[1], [1], [2], [4]]]},
         "family.blocks[0] repeats block element (1,)"),
        ("forbidden element repeated", ["verify"],
         {"group": {"moduli": [7]}, "forbidden": [[0], [0]], "blocks": [[[1], [2], [4]]]},
         "family.forbidden repeats forbidden element (0,)"),
        ("symmetric --family block element repeated", ["hadamard", "symmetric", "--family"],
         dict(family, blocks=[[[1], [4]], [[2], [3], [2]]]), "family.blocks[1] repeats block element (2,)"),
        ("spec forbidden element repeated", ["search"], dict(spec, forbidden=[[0], [3], [0]]),
         "spec.forbidden repeats forbidden element (0,)"),
        # Z_6 holds 4 qualifying families, so 50 solutions bound nothing
        ("randomized spec with max_solutions alone", ["search"],
         dict(spec, mode="randomized", budget={"max_solutions": 50}), "max_nodes or max_seconds"),
        # a deadline of NaN never passes, so neither bounds a walk; the node
        # cap keeps the randomized case finite even if the check were missing
        ("spec max_seconds NaN", ["search"], dict(spec, budget={"max_seconds": float("nan")}),
         "budget.max_seconds"),
        ("randomized spec max_seconds Infinity", ["search"],
         dict(spec, mode="randomized", budget={"max_seconds": float("inf"), "max_nodes": 50}),
         "budget.max_seconds"),
        ("spec max_seconds -1", ["search"], dict(spec, budget={"max_seconds": -1}), "budget.max_seconds"),
        ("spec max_nodes -1", ["search"], dict(spec, budget={"max_nodes": -1}), "budget.max_nodes"),
        ("spec max_solutions -1", ["search"], dict(spec, budget={"max_solutions": -1}),
         "budget.max_solutions"),
        ("search --budget -3", ["search", "--budget", "-3"], spec, "budget.max_nodes"),
    ]
    # nesting deeper than the parser's recursion limit (a string is the file's text)
    for command in (["verify"], ["search"], ["hadamard", "symmetric", "--family"], poly_table):
        cases.append((f"{command[0]} of 200,000 nested arrays", command, "[" * 200_000, "too deeply"))
    for i, (name, command, data, field) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code, out, err = run_cli(command + [str(path)], capsys)
        assert code == 2, name
        assert out == "", name
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, err)
        assert field in err, (name, err)


def test_oversized_field_requests_exit_two_quickly(capsys):
    # 2^61 - 1 is prime: factorize would trial-divide for minutes
    for kind in (["szekeres"], ["prop22", "--e", "2"]):
        t0 = time.perf_counter()
        code, out, err = run_cli(["construct", *kind, "--q", str(2**61 - 1)], capsys)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert err == f"error: field size {2**61 - 1} exceeds the 1048576 cap\n"


def test_trace_zero_exponent_out_of_range_exits_two(capsys):
    # --u is an exponent of the residue field's generator, 0..2^n - 2; it
    # used to wrap silently mod 2^n - 1
    for argv in (
        ["construct", "gr4-ddf", "--n", "5", "--u", "32"],
        ["construct", "gr4-ddf", "--n", "5", "--u", "-30"],
        ["construct", "prop34", "--n", "5", "--u", "31"],
        ["hadamard", "symmetric", "--n", "3", "--u", "7"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and "out of range" in err, (argv, err)
    code, out, _ = run_cli(["construct", "gr4-ddf", "--n", "3", "--u", "3"], capsys)
    assert code == 0 and json.loads(out)["provenance"]["u"] == 3


RING_KINDS = [["construct", "gr4-ddf"], ["construct", "gr4-union"], ["construct", "prop34"]]
FIELD_KINDS = [["construct", "szekeres"], ["construct", "prop22"], ["construct", "prop23"]]


@st.composite
def flag_argvs(draw):
    """Small, often invalid, values of the ring and field flags."""
    kind = draw(st.sampled_from(["ring", "symmetric", "field", "skew", "sylvester"]))
    if kind in ("ring", "symmetric"):
        n = draw(st.integers(-1, 5 if kind == "ring" else 4))
        argv = draw(st.sampled_from(RING_KINDS)) if kind == "ring" else ["hadamard", "symmetric"]
        argv += ["--n", str(n)]
        for flag in ("--u", "--y") if kind == "ring" else ("--u",):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(-2, 2 ** max(n, 0) + 1)))]
        return argv
    if kind == "sylvester":
        return ["hadamard", "sylvester", "--k", str(draw(st.integers(-2, 10)))]
    q = ["--q", str(draw(st.integers(-2, 300)))]
    if kind == "skew":
        return ["hadamard", "skew", *q]
    e = draw(st.one_of(st.none(), st.sampled_from([-2, 0, 1, 2, 3, 4, 8, 16])))
    return draw(st.sampled_from(FIELD_KINDS)) + q + ([] if e is None else ["--e", str(e)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flag_argvs())
def test_ring_and_field_flags_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert len(err.splitlines()) == 1 and out.getvalue() == "", (argv, err)


def test_failed_self_check_exits_one(monkeypatch, capsys):
    # a lambda_t off by one fails the quotient-consistency self-check, a
    # RuntimeError inside the library: exit 1 with one line, not a traceback
    original = constructions.unit_quotient_family

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        lambda_t = res.lambda_t.copy()
        lambda_t[np.flatnonzero(res.subgroup != args[0].unit_tables.one)[0]] += 1  # least t != 1
        return dataclasses.replace(res, lambda_t=lambda_t)

    monkeypatch.setattr(constructions, "unit_quotient_family", corrupted)
    code, out, err = run_cli(["construct", "gr4-ddf", "--n", "3"], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "quotient family inconsistent" in err


# ---------------------------------------------------------------------------
# hadamard
# ---------------------------------------------------------------------------


def test_hadamard_sylvester_text(capsys):
    code, out, _ = run_cli(
        ["hadamard", "sylvester", "--k", "2", "--format", "text"], capsys
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "++++"
    assert len(rows) == 4


def test_hadamard_skew_q7(capsys):
    code, out, _ = run_cli(["hadamard", "skew", "--q", "7"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8


def test_hadamard_symmetric_from_file(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    run_cli(["construct", "gr4-ddf", "--n", "3", "--out", str(fam)], capsys)
    code, out, _ = run_cli(["hadamard", "symmetric", "--family", str(fam)], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 64


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["symmetric", "--n", "2", "--family", "FAM"], "--n"),
        (["symmetric", "--family", "FAM", "--u", "1"], "--u"),
        (["symmetric", "--n", "3", "--k", "3"], "--k"),
        (["symmetric", "--family", "FAM", "--q", "7"], "--q"),
        (["skew", "--q", "7", "--n", "3"], "--n"),
        (["skew", "--q", "7", "--u", "1"], "--u"),
        (["skew", "--q", "7", "--family", "FAM"], "--family"),
        (["skew", "--q", "7", "--k", "3"], "--k"),
        (["sylvester", "--k", "3", "--n", "3"], "--n"),
        (["sylvester", "--k", "3", "--u", "1"], "--u"),
        (["sylvester", "--k", "3", "--family", "FAM"], "--family"),
        (["sylvester", "--k", "3", "--q", "7"], "--q"),
    ],
)
def test_hadamard_refuses_a_flag_its_subkind_does_not_read(argv, flag, tmp_path, capsys):
    # every one of these once exited 0 and ignored the flag
    fam = tmp_path / "fam.json"
    run_cli(["construct", "gr4-ddf", "--n", "3", "--out", str(fam)], capsys)
    argv = ["hadamard"] + [str(fam) if a == "FAM" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and f"does not read {flag}" in err, err


def test_oversized_hadamard_requests_exit_two_before_allocating(capsys):
    # orders 2^15, 10^6 + 4 and 4^8 exceed MAX_MATRIX_ORDER; the CLI refuses
    # them before building the matrix, the field or the ring
    for argv in (
        ["hadamard", "sylvester", "--k", "15"],
        ["hadamard", "skew", "--q", "1000003"],
        ["hadamard", "symmetric", "--n", "8"],
    ):
        tracemalloc.start()
        try:
            code, out, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert out == "", argv
        assert len(err.splitlines()) == 1 and "MAX_MATRIX_ORDER" in err, (argv, err)
        assert peak < 16 << 20, (argv, peak)


# stdout sha256 of the matrix commands: any change to the printed bytes shows
PINNED_MATRICES = [
    (["skew", "--q", "251"],
     "a3d2c6dedd6375434c44501bb7b2793a2bbf1f307c309eaa0fb4dd5a4b071b37"),
    (["skew", "--q", "251", "--format", "text"],
     "0f4010bff11083e2eb596712dc8681afd4e9b5f14cf8460c51546ed9d1831573"),
    (["symmetric", "--n", "4"],
     "74eeaa42e6a5047b6f0af907d35df5f247bffd7d3ba5781135548f727f1b5ef6"),
    (["symmetric", "--n", "4", "--format", "text"],
     "92fbd8f02da6f6f570c7b8f1c0dd527c4dfdd529c2e3162ebc8863f197c4b71b"),
    (["sylvester", "--k", "6"],
     "f4c4db92f1fe6904913da1247e84dbdd56732fc6ed2454122cabe4491dd12211"),
    (["sylvester", "--k", "6", "--format", "text"],
     "4518db41461e778092703f40280d663dab31e031b0c622674a2edd8f8f7a8e4e"),
    # the benchmark's own matrices: Z_665, whose rows span two tiles, and
    # Z_31 x Z_2^4, whose Cayley rows join a lead and a trail factor
    (["skew", "--q", "1331"],
     "84968ee32e9f15e6b736bdd96b3a2d13bb5ffa73d27fa0acc273a135a25a2093"),
    (["symmetric", "--n", "5", "--u", "7"],
     "42702face090efda506095667a9a8dba879169aecdb9c01f6f51e3b76af10624"),
]


def test_hadamard_stdout_is_pinned(capsys):
    for argv, sha256 in PINNED_MATRICES:
        code, out, err = run_cli(["hadamard", *argv], capsys)
        assert code == 0 and err == "", argv
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, argv


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    for argv, _ in PINNED_MATRICES[:2]:
        _, out, _ = run_cli(["hadamard", *argv], capsys)
        path = tmp_path / "matrix.out"
        code, printed, _ = run_cli(["hadamard", *argv, "--out", str(path)], capsys)
        assert code == 0 and printed == ""
        assert path.read_bytes() == out.encode()


def test_out_into_a_directory_exits_two(tmp_path, capsys):
    code, out, err = run_cli(["hadamard", "sylvester", "--k", "3", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_failed_gate_writes_no_out_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hadamard, "is_hadamard", lambda M: False)
    path = tmp_path / "matrix.json"
    code, out, err = run_cli(["hadamard", "sylvester", "--k", "3", "--out", str(path)], capsys)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert not path.exists()


def test_streamed_order_4096_output_stays_small():
    # the int8 matrix itself is 16 MiB; writing it adds a block of rows at a
    # time, never a nested list or the whole 42 MB string
    matrix = hadamard.sylvester(12)
    tracemalloc.start()
    try:
        cli._emit(matrix.iter_json(), cli.RunConfig(out=os.devnull))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_repeated_calls_leave_no_parser_garbage(capsys):
    # the parser is built once; a fresh one per call would leave its actions
    # and formatters in reference cycles after every call
    argv = ["hadamard", "sylvester", "--k", "2"]
    assert run_cli(argv, capsys)[0] == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(argv, capsys)[0] == 0
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leaked, leaked[:5]


def test_hadamard_symmetric_needs_input(capsys):
    code, _, err = run_cli(["hadamard", "symmetric"], capsys)
    assert code == 2
    assert "--n or --family" in err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def z6_spec_file(tmp_path):
    spec = {
        "group": {"moduli": [6]},
        "forbidden": [[0], [3]],
        "m": 4,
        "mode": "exhaustive",
        "seed": 0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_search_z6(tmp_path, capsys):
    code, out, _ = run_cli(["search", str(z6_spec_file(tmp_path))], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["certificates"] == 4
    assert summary["orbits"] == 1
    assert len(lines) == 5


def test_search_infeasible_spec(tmp_path, capsys):
    spec = {
        "group": {"moduli": [15]},
        "forbidden": [[0], [5], [10]],
        "m": 6,
        "mode": "exhaustive",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["search", str(path)], capsys)
    assert code == 2
    assert "infeasible" in err


def test_search_seeded_runs_identical(tmp_path, capsys):
    spec = {
        "group": {"moduli": [6]},
        "forbidden": [[0], [3]],
        "m": 4,
        "mode": "randomized",
        "budget": {"max_nodes": 1500},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _, out1, _ = run_cli(["search", str(path), "--seed", "9"], capsys)
    _, out2, _ = run_cli(["search", str(path), "--seed", "9"], capsys)
    assert out1 == out2


def m8_spec_file(tmp_path, **fields):
    """Z_7 x Z_2^2 with N = {0} x Z_2^2, the group of the GR(4,3) family."""
    spec = {
        "group": {"moduli": [7, 2, 2]},
        "forbidden": [[0, a, b] for a in range(2) for b in range(2)],
        "m": 8,
        **fields,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_search_m8_stdout_is_pinned(tmp_path, capsys):
    # the full exhaustive walk (1152 certificates, 36 orbits, 135312 nodes)
    # and a seeded randomized run (10 certificates in 18420 nodes): any
    # change to the node order, the pruning or the random trajectory shows
    cases = [
        (
            {"mode": "exhaustive", "seed": 0},
            "ad053234d8cfffd44c99b3d012dda381206132cbf6e712ae3baf3afe27f9f893",
        ),
        (
            {"mode": "randomized", "seed": 0, "budget": {"max_nodes": 20000}},
            "0a19ddcb9a699898a3848a3cc5d757dea83436b7845e2b0a1d9d71fef6b50231",
        ),
    ]
    for fields, sha256 in cases:
        code, out, _ = run_cli(["search", str(m8_spec_file(tmp_path, **fields))], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_construct_deterministic_output(capsys):
    _, out1, _ = run_cli(["construct", "gr4-ddf", "--n", "3"], capsys)
    _, out2, _ = run_cli(["construct", "gr4-ddf", "--n", "3"], capsys)
    assert out1 == out2


def test_poly_table_env_override(tmp_path, capsys, monkeypatch):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"2,3": [1, 1, 0, 1]}))  # x^3 + x + 1
    monkeypatch.setenv("DESIGNFORGE_POLY_TABLE", str(table))
    # q=7 ignores the (2,3) entry; a GF(8) use would pick it up, so just
    # prove the table file is read and a bad path fails loudly
    code, _, _ = run_cli(["construct", "szekeres", "--q", "7"], capsys)
    assert code == 0
    monkeypatch.setenv("DESIGNFORGE_POLY_TABLE", str(tmp_path / "missing.json"))
    code, _, err = run_cli(["construct", "szekeres", "--q", "7"], capsys)
    assert code == 2 and "does not exist" in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "designforge.cli", "construct", "szekeres", "--q", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["group"] == {"moduli": [3]}
