import dataclasses
import json
import subprocess
import sys
import tracemalloc

from designforge import constructions
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


def test_construct_prop23_and_prop34(capsys):
    code, out, _ = run_cli(["construct", "prop23", "--q", "109", "--e", "4"], capsys)
    assert code == 0
    assert json.loads(out)["declared"]["K"] == [6, 7, 7, 7]
    code, out, _ = run_cli(["construct", "prop34", "--n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["declared"] == {"K": [7], "lambda": None, "mu": 3}


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
    ]
    for i, (name, command, data, field) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(command + [str(path)], capsys)
        assert code == 2, name
        assert out == "", name
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, err)
        assert field in err, (name, err)


def test_failed_self_check_exits_one(monkeypatch, capsys):
    # a lambda_t off by one fails the quotient-consistency self-check, a
    # RuntimeError inside the library: exit 1 with one line, not a traceback
    original = constructions.unit_quotient_family

    def corrupted(*args, **kwargs):
        res = original(*args, **kwargs)
        table = dict(res.lambda_table)
        table[min(table)] += 1
        return dataclasses.replace(res, lambda_table=table)

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


def test_oversized_hadamard_requests_exit_two_before_allocating(capsys):
    # orders 2^15, 10^6 + 4 and 4^7 exceed MAX_MATRIX_ORDER; the CLI refuses
    # them before building the matrix, the field or the ring
    for argv in (
        ["hadamard", "sylvester", "--k", "15"],
        ["hadamard", "skew", "--q", "1000003"],
        ["hadamard", "symmetric", "--n", "7"],
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
