"""Command-line contract: golden transcripts, exit codes, JSON shape.

The golden files live in tests/golden/ and are regenerated with
`python tests/regen_golden.py`; every entry in GOLDEN is compared
byte for byte, and run twice to pin determinism.
"""

import json
import os

import pytest

from ramify.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

GOLDEN = {
    "pseries_p2_r2.txt": ["pseries", "--p", "2", "--r", "2"],
    "pseries_p3.json": ["pseries", "--p", "3", "--format", "json"],
    "weierstrass_honda22.txt": ["weierstrass", "--p", "2", "--n", "2"],
    "ring_p2.txt": ["ring", "--p", "2"],
    "reduce_k_honda22.txt": ["reduce-k", "--p", "2", "--n", "2"],
    "tor_p3_r2.txt": ["tor", "--p", "3", "--r", "2"],
    "tor_p2_n2.json": ["tor", "--p", "2", "--n", "2", "--format", "json"],
    "kunneth_p2_r2.txt": ["kunneth", "--p", "2", "--r", "2"],
    "compare_p2_k2.txt": ["compare", "--p", "2", "--k", "2"],
    "rational_p3.txt": ["rational", "--p", "3"],
    "converge_p2.txt": ["converge", "--p", "2"],
    "converge_p2_rational.txt": ["converge", "--p", "2", "--rational"],
    "socle_m5.txt": ["socle", "--m", "5"],
    "betti_tensor.txt": [
        "betti", "--algebra", "golden/tensor_2x2.alg", "--smax", "8",
    ],
    "nakayama_m4.txt": ["nakayama", "--m", "4", "--count", "10"],
    "emss_p3_S3.txt": ["emss", "--p", "3", "--S", "3"],
    "group_sylow_s4.txt": [
        "group", "sylow", "--gens", "(1,2);(1,2,3,4)", "--p", "2",
    ],
    "group_complement_s3.txt": [
        "group", "complement", "--gens", "(1,2);(1,2,3)", "--p", "2",
    ],
    "group_conjnil_s3.txt": [
        "group", "conjnil", "--gens", "(1,2);(1,2,3)", "--p", "2",
    ],
}


def run_cli(argv, capsys):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("fname", sorted(GOLDEN))
def test_golden_transcripts(fname, capsys, monkeypatch):
    monkeypatch.chdir(HERE)  # --algebra paths in GOLDEN are tests-relative
    with open(os.path.join(HERE, "golden", fname), encoding="utf-8") as fh:
        want = fh.read()
    rc1, out1, _ = run_cli(GOLDEN[fname], capsys)
    rc2, out2, _ = run_cli(GOLDEN[fname], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2  # determinism across runs in one process
    assert out1 == want


def test_json_shape(capsys):
    rc, out, _ = run_cli(["tor", "--p", "2", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["params", "result", "tool", "verdict", "version"]
    assert doc["tool"] == "ramify tor"
    assert doc["verdict"] == "OK"
    assert doc["params"]["p"] == 2
    # torsion is reported as p-exponents
    assert doc["result"]["entries"][1] == {"free": 0, "torsion": [1]}


def test_betti_tensor_algebra_values(capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    rc, out, _ = run_cli(
        ["betti", "--algebra", "golden/tensor_2x2.alg", "--smax", "8",
         "--format", "json"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["betti"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    rc, out, _ = run_cli(["ring", "--p", "2", "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("tool: ramify ring\n")
    assert text.endswith("verdict: OK\n")


# ------------------------------------------------------------------ exit codes


def test_unknown_subcommand_is_64(capsys):
    rc, _, err = run_cli(["bogus"], capsys)
    assert rc == 64 and "error" in err
    rc, _, err = run_cli(
        ["group", "bogus", "--gens", "(1,2)"], capsys
    )
    assert rc == 64


def test_missing_subcommand_is_2(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 2 and "subcommand" in err
    rc, _, err = run_cli(["group"], capsys)
    assert rc == 2


def test_bad_option_value_is_2(capsys):
    rc, _, err = run_cli(["tor", "--p", "4"], capsys)
    assert rc == 2 and "prime" in err
    rc, _, err = run_cli(["emss", "--p", "2"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["tor", "--p", "not-a-number"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["group", "conjnil", "--gens", "(1,2)", "--p", "6"], capsys)
    assert rc == 2


def test_negative_count_is_2(capsys):
    rc, out, err = run_cli(["nakayama", "--count", "-3"], capsys)
    assert rc == 2 and out == "" and "count" in err


def test_negative_betti_smax_is_2(capsys):
    rc, out, err = run_cli(["betti", "--smax", "-2"], capsys)
    assert rc == 2 and out == "" and "s_max" in err


def test_bad_emss_and_converge_sizes_are_2(capsys):
    for argv, reason in [
        (["emss", "--p", "9", "--S", "1"], "p must be prime"),
        (["emss", "--p", "3", "--S", "-1"], "cutoff S must be >= 0"),
        (["converge", "--p", "2", "--smax", "-1"], "s_max must be >= 0"),
        (["rational", "--p", "3", "--smax", "-1"], "s_max must be >= 0"),
    ]:
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2 and out == "" and reason in err
    rc, out, _ = run_cli(["rational", "--p", "3", "--smax", "0"], capsys)
    assert rc == 0 and "rank s=0: 1" in out


def test_inconclusive_is_3(capsys):
    rc, out, _ = run_cli(["emss", "--p", "3", "--S", "1"], capsys)
    assert rc == 3 and "verdict: INCONCLUSIVE" in out
    rc, out, _ = run_cli(["converge", "--p", "2", "--smax", "0"], capsys)
    assert rc == 3 and "verdict: INCONCLUSIVE" in out


def test_bad_input_files_are_65(tmp_path, capsys):
    rc, _, err = run_cli(
        ["group", "sylow", "--gens", "(1,2", "--p", "2"], capsys
    )
    assert rc == 65 and "generator" in err
    rc, _, err = run_cli(
        ["betti", "--algebra", str(tmp_path / "missing.alg")], capsys
    )
    assert rc == 65
    bad = tmp_path / "bad.alg"
    bad.write_text("labels: 1 y\nmul: nonsense\n", encoding="utf-8")
    rc, _, err = run_cli(["betti", "--algebra", str(bad)], capsys)
    assert rc == 65 and "malformed" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(["--help"], capsys)
    assert rc == 0
    assert "pseries" in out and "group" in out


# -------------------------------------------------------------- verdict wiring


def test_group_verdicts(capsys):
    rc, out, _ = run_cli(
        ["group", "complement", "--gens", "(1,2,3);(1,2)(4,5)", "--p", "2"],
        capsys,
    )
    assert rc == 0
    rc, out, _ = run_cli(
        ["group", "conjnil", "--gens", "(1,2,3,4)", "--p", "2"], capsys
    )
    assert rc == 0 and "verdict: NILPOTENT" in out


def test_converge_honda_point(capsys):
    rc, out, _ = run_cli(
        ["converge", "--p", "2", "--n", "2", "--format", "json"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "MISMATCH"
    assert [w["s"] for w in doc["result"]["witnesses"]] == [1, 3, 5]
    assert all(w["module"]["torsion"] == [1] for w in doc["result"]["witnesses"])
