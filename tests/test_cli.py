"""Command-line contract: golden transcripts, exit codes, JSON shape.

The golden files live in tests/golden/ and are regenerated with
`python tests/regen_golden.py`.  Every GOLDEN invocation is pinned in
both formats, the table in NAME.txt and the JSON report in NAME.json;
each file is compared byte for byte, and run twice to pin determinism.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from ramify import artin, cli, cochain, emss, fgl, homalg
from ramify.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

GOLDEN = {
    "pseries_p2_r2.txt": ["pseries", "--p", "2", "--r", "2"],
    "pseries_p3.json": ["pseries", "--p", "3", "--format", "json"],
    "pseries_p2_n2_r2.txt": ["pseries", "--p", "2", "--n", "2", "--r", "2"],
    "weierstrass_honda22.txt": ["weierstrass", "--p", "2", "--n", "2"],
    "ring_p2.txt": ["ring", "--p", "2"],
    "reduce_k_honda22.txt": ["reduce-k", "--p", "2", "--n", "2"],
    "tor_p3_r2.txt": ["tor", "--p", "3", "--r", "2"],
    "tor_p2_n2.json": ["tor", "--p", "2", "--n", "2", "--format", "json"],
    "kunneth_p2_r2.txt": ["kunneth", "--p", "2", "--r", "2"],
    "compare_p2_k2.txt": ["compare", "--p", "2", "--k", "2"],
    "compare_p2_n2_k3.txt": ["compare", "--p", "2", "--n", "2", "--k", "3"],
    "rational_p3.txt": ["rational", "--p", "3"],
    "converge_p2.txt": ["converge", "--p", "2"],
    "converge_p2_rational.txt": ["converge", "--p", "2", "--rational"],
    "socle_m5.txt": ["socle", "--m", "5"],
    "socle_p3_m5.txt": ["socle", "--p", "3", "--m", "5"],
    "socle_tensor.txt": ["socle", "--algebra", "golden/tensor_2x2.alg"],
    "betti_tensor.txt": [
        "betti", "--algebra", "golden/tensor_2x2.alg", "--smax", "8",
    ],
    "nakayama_m4.txt": ["nakayama", "--m", "4", "--count", "10"],
    "emss_p3_S3.txt": ["emss", "--p", "3", "--S", "3"],
    "emss_p5_S4.txt": ["emss", "--p", "5", "--S", "4"],
    "emss_p7_S3.txt": ["emss", "--p", "7", "--S", "3"],
    "group_sylow_s4.txt": [
        "group", "sylow", "--gens", "(1,2);(1,2,3,4)", "--p", "2",
    ],
    "group_complement_s3.txt": [
        "group", "complement", "--gens", "(1,2);(1,2,3)", "--p", "2",
    ],
    "group_conjnil_s3.txt": [
        "group", "conjnil", "--gens", "(1,2);(1,2,3)", "--p", "2",
    ],
    "group_conjnil_p3_s3.txt": [
        "group", "conjnil", "--p", "3", "--gens", "(1,2);(1,2,3)",
    ],
    "group_conjnil_s5.txt": [
        "group", "conjnil", "--gens", "(1,2);(1,2,3,4,5)", "--p", "2",
    ],
    "group_conjnil_p3_s5.txt": [
        "group", "conjnil", "--p", "3", "--gens", "(1,2);(1,2,3,4,5)",
    ],
}


def _both_formats(golden):
    """{file: argv} for the table and the JSON report of each entry."""
    both = {}
    for fname, argv in golden.items():
        stem = os.path.splitext(fname)[0]
        table = argv[:-2] if argv[-2:] == ["--format", "json"] else argv
        both[stem + ".txt"] = table
        both[stem + ".json"] = table + ["--format", "json"]
    return both


GOLDEN_BOTH = _both_formats(GOLDEN)


def run_cli(argv, capsys):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("fname", sorted(GOLDEN_BOTH))
def test_golden_transcripts(fname, capsys, monkeypatch):
    monkeypatch.chdir(HERE)  # --algebra paths in GOLDEN are tests-relative
    with open(os.path.join(HERE, "golden", fname), encoding="utf-8") as fh:
        want = fh.read()
    rc1, out1, _ = run_cli(GOLDEN_BOTH[fname], capsys)
    rc2, out2, _ = run_cli(GOLDEN_BOTH[fname], capsys)
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


def test_unwritable_out_is_2_with_nothing_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    rc, out, err = run_cli(["ring", "--out", str(target)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write %s: " % target)
    assert not target.parent.exists()


def test_each_command_builds_and_certifies_once(capsys, monkeypatch):
    # a refactor that brings back repeated work must fail here, not only
    # in timing
    calls = {}
    for module, name in ((homalg, "substitution_map"), (cochain, "_powers_matrix"),
                         (artin, "free_module"), (artin, "minimal_free_resolution")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    ring_calls = {}
    for name in ("_product", "_times_y"):
        def ring_spy(*args, _fn=getattr(cochain.CyclicCochainRing, name), _name=name):
            ring_calls[_name] = ring_calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(cochain.CyclicCochainRing, name, ring_spy)
    assert run_cli(["tor", "--p", "3", "--n", "2", "--r", "1"], capsys)[0] == 0
    # tor builds one ring and reads its y q_r off the closed form: no
    # ring product
    assert ring_calls == {"_times_y": 1}
    products = [0]
    mul = cochain.RingElement.__mul__

    def mul_spy(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(cochain.RingElement, "__mul__", mul_spy)
    rc, out, _ = run_cli(["compare", "--p", "2", "--k", "3", "--L", "7", "--format", "json"],
                         capsys)
    assert rc == 0
    # one substitution map, and one matrix of powers that apply reads
    assert calls == {"substitution_map": 1, "_powers_matrix": 1}
    # the tower map's y Q, its one power of phi(y) (rank_1 = 2) and its
    # relation check; the degree-2 chain-map identity.  y q_r of each
    # ring (A_3, A_1) is _times_y, and tor_table forms no product.
    # L |probes| squares certified
    assert products == [4]
    assert json.loads(out)["result"]["squares_checked"] == 7 * (2 + homalg.RANDOM_PROBES)
    calls.clear()
    assert run_cli(["nakayama", "--m", "4", "--count", "5"], capsys)[0] == 0
    assert calls == {"free_module": 1}
    calls.clear()
    assert run_cli(["betti", "--m", "3", "--smax", "5"], capsys)[0] == 0
    assert calls == {"minimal_free_resolution": 1}
    # modules are held by rho(G), |G| = 1 for F_p[y]/(y^m): one free
    # module and one submodule per check, and no dense action
    shapes = []
    init = artin.FinModule.__init__

    def module_spy(self, algebra, gen_act):
        shapes.append(gen_act.shape)
        init(self, algebra, gen_act)

    monkeypatch.setattr(artin.FinModule, "__init__", module_spy)
    assert run_cli(["nakayama", "--m", "16", "--count", "5"], capsys)[0] == 0
    assert len(shapes) == 6 and all(shape[0] == 1 for shape in shapes)
    assert shapes[0] == (1, 32, 32)
    shapes.clear()
    assert run_cli(["socle", "--m", "40"], capsys)[0] == 0
    assert shapes == [(1, 40, 40)]
    # the validator runs once per algebra file, and never on an algebra
    # the library builds
    validated = []
    validate = artin.FinAlgebra._validate
    monkeypatch.setattr(artin.FinAlgebra, "_validate",
                        lambda alg: validated.append(alg.dim) or validate(alg))
    algebra = os.path.join(HERE, "golden", "tensor_2x2.alg")
    for cmd in (["socle"], ["betti", "--smax", "3"], ["nakayama", "--count", "3"]):
        for source, runs in ((["--m", "6"], []), (["--algebra", algebra], [4])):
            validated.clear()
            assert run_cli(cmd + ["--p", "2"] + source, capsys)[0] == 0
            assert validated == runs, cmd + source
    validated.clear()
    assert run_cli(["reduce-k", "--p", "2", "--n", "2"], capsys)[0] == 0
    assert validated == []


def test_each_ring_solves_its_p_series_once_at_its_own_length(capsys, monkeypatch):
    # compare at k = 3 sizes the law for A_3; A_1 reads q_1 from a
    # p-series of its own length, and no (r, length) is solved twice
    solved, certified = [], []
    solve, certify = fgl._solve_log, fgl.certify_honda_pseries

    def solve_spy(target, p, n, M, N):
        solved.append(M)
        return solve(target, p, n, M, N)

    def certify_spy(psi, p, n, r, N):
        certified.append((r, len(psi)))
        return certify(psi, p, n, r, N)

    monkeypatch.setattr(fgl, "_solve_log", solve_spy)
    monkeypatch.setattr(fgl, "certify_honda_pseries", certify_spy)
    assert run_cli(["compare", "--p", "2", "--n", "2", "--k", "3"], capsys)[0] == 0
    need = [cochain.minimum_series_precision(2, 2, r, 8, False) for r in (1, 3)]
    assert need == [34, 634]
    # A_1 and A_3 at their own length, q_2 for the tower map at the law's
    assert sorted(certified) == [(1, 34), (2, 634), (3, 634)]
    assert solved == [length for _, length in certified]


@pytest.mark.parametrize("argv, solves", [
    (["compare", "--p", "3", "--n", "2", "--k", "2"], [(2, 804), (1, 804)]),
    (["compare", "--p", "2", "--n", "2", "--k", "2"], [(2, 154), (1, 154)]),
    (["weierstrass", "--p", "2", "--n", "2", "--M", "400"], [(1, 34)]),
])
def test_each_r_is_solved_once(argv, solves, capsys, monkeypatch):
    # a shorter request of the same r reads a prefix of the longer solve:
    # A_1 of q_1 for the tower map, and the weierstrass check of its ring
    certified = []
    certify = fgl.certify_honda_pseries

    def certify_spy(psi, p, n, r, N):
        certified.append((r, len(psi)))
        return certify(psi, p, n, r, N)

    monkeypatch.setattr(fgl, "certify_honda_pseries", certify_spy)
    assert run_cli(argv, capsys)[0] == 0
    assert certified == solves


@pytest.mark.parametrize("p", [2, 3])
def test_field_algebra_at_m_1_has_the_closed_forms(p, capsys):
    # F_p[y]/(y) = F_p: J = 0, so G is empty and every rho(G) stack has
    # a zero-length generator axis
    rc, out, _ = run_cli(["socle", "--p", str(p), "--m", "1", "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["result"] == {"dims": [1], "k0": 1, "e": 1}
    rc, out, _ = run_cli(["betti", "--p", str(p), "--m", "1", "--smax", "3",
                          "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["result"] == {"betti": [1, 0, 0, 0], "all_positive": False}
    rc, out, _ = run_cli(["nakayama", "--p", str(p), "--m", "1", "--count", "3",
                          "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["result"] == {"checks": 3, "violations": 0}


def test_compare_at_rank_729_has_the_closed_form(capsys):
    # A_1 -> A_3 at p = 3, n = 2: the tower map multiplies odd Tor by
    # p^(k-1) = 9, and the default L = 6 squares each have the 9
    # monomials of A_1 plus the random probes
    rc, out, _ = run_cli(["compare", "--p", "3", "--n", "2", "--k", "3"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "squares checked: 90" in lines and 90 == 6 * (9 + homalg.RANDOM_PROBES)
    assert "multiplier: 9" in lines
    for s in (1, 3, 5):
        assert "Tor_%d map: times-p^(k-1) (x9) injective=True" % s in lines
    assert lines[-1] == "verdict: OK"


def test_compare_at_rank_2401_has_the_closed_form(capsys):
    # A_1 -> A_2 at p = 7, n = 2: ring products at rank 2,401, the
    # multiplier p^(k-1) = 7 on every odd Tor, and L = 6 squares of the
    # 49 monomials of A_1 plus the random probes
    rc, out, _ = run_cli(["compare", "--p", "7", "--n", "2", "--k", "2", "--N", "8"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "squares checked: 330" in lines and 330 == 6 * (49 + homalg.RANDOM_PROBES)
    assert "multiplier: 7" in lines
    for s in (1, 3, 5):
        assert "Tor_%d map: times-p^(k-1) (x7) injective=True" % s in lines
    assert lines[-1] == "verdict: OK"


@pytest.mark.parametrize("p,r,N", [(2, 4, 8), (5, 2, 3), (3, 3, 4)])
def test_multiplicative_weierstrass_reads_the_cofactor_mod_p_n(p, r, N, capsys):
    # q_r = ((1 + y)^(p^r) - 1) / y has binomials past p^N; the factor and
    # the re-multiplication live in Z/p^N
    rc, out, _ = run_cli(["weierstrass", "--p", str(p), "--n", "1", "--r", str(r),
                          "--N", str(N), "--format", "json"], capsys)
    assert rc == 0
    result = json.loads(out)["result"]
    q = p**r
    assert result["distinguished"] == [math.comb(q, k + 1) % p**N for k in range(q)]
    assert result["constant_valuation"] == r
    assert result["remultiplication_matches"] is True


# p^(N + imax) is past the int64 bound: these series multiply as Python ints
OBJECT_PATH = [
    ["tor", "--p", "7", "--n", "2", "--r", "1", "--N", "12", "--format", "json"],
    ["weierstrass", "--p", "7", "--n", "2", "--r", "1", "--N", "14"],
]


def test_object_dtype_tor_has_the_closed_form(capsys, monkeypatch):
    dtypes = []
    dtype = fgl.dtype_for

    def spy(*args):
        dtypes.append(dtype(*args))
        return dtypes[-1]

    # every module that picks a dtype holds dtype_for under that name
    for name, module in list(sys.modules.items()):
        if name.startswith("ramify") and hasattr(module, "dtype_for"):
            monkeypatch.setattr(module, "dtype_for", spy)
    rc, out, _ = run_cli(OBJECT_PATH[0], capsys)
    assert rc == 0 and object in dtypes
    entries = json.loads(out)["result"]["entries"]
    assert entries[0] == {"free": 1, "torsion": []}
    for s, entry in enumerate(entries[1:], 1):
        assert entry == {"free": 0, "torsion": [1] if s % 2 else []}  # Z/7 in odd degrees


def test_every_series_the_library_builds_is_already_valid(capsys, monkeypatch):
    # TruncatedSeries checks nothing; every series built on the golden
    # runs and the object-dtype runs must be what validated_series makes
    built = []
    init = fgl.TruncatedSeries.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.chdir(HERE)  # --algebra paths in GOLDEN are tests-relative
    with monkeypatch.context() as m:
        m.setattr(fgl.TruncatedSeries, "__init__", spy)
        for argv in list(GOLDEN.values()) + OBJECT_PATH:
            assert main(list(argv)) == 0, argv
    capsys.readouterr()
    kinds = {(s.context.kind, s.exact) for s in built}
    assert kinds >= {("int", True), ("padic", True), ("padic", False)}
    for s in built:
        assert fgl.validated_series(s.context, s.coeffs, s.exact) == s


# ------------------------------------------------------------------ exit codes


def test_unknown_subcommand_is_64(capsys):
    rc, _, err = run_cli(["bogus"], capsys)
    assert rc == 64 and "error" in err
    rc, _, err = run_cli(
        ["group", "bogus", "--gens", "(1,2)"], capsys
    )
    assert rc == 64


def test_bad_option_choice_is_2_not_64(capsys):
    # 64 is reserved for an unknown subcommand; a bad option value is a
    # usage error like any other
    rc, _, err = run_cli(["socle", "--p", "2", "--m", "3", "--format", "xml"], capsys)
    assert rc == 2 and "invalid choice" in err
    rc, _, err = run_cli(["group", "conjnil", "--gens", "(1,2)", "--format", "xml"], capsys)
    assert rc == 2 and "invalid choice" in err


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


@pytest.mark.parametrize("argv, message", [
    (["tor", "--r", "-1"], "r must be >= 0"),
    (["compare", "--k", "-1"], "k must be >= 0"),
    (["rational", "--r", "-1"], "r must be >= 0"),
    (["pseries", "--n", "2", "--N", "-3"], "N must be >= 1"),
    (["tor", "--n", "2", "--N", "0"], "N must be >= 1"),
    (["pseries", "--N", "0"], "N must be >= 1"),
    (["ring", "--N", "0"], "N must be >= 1"),
])
def test_bad_tower_flags_are_named_before_m_is_derived(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == "" and err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["pseries", "--r", "0"],
])
def test_edge_tower_flags_still_answer(argv, capsys):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and out.endswith("verdict: OK\n")


def test_negative_count_is_2(capsys):
    rc, out, err = run_cli(["nakayama", "--count", "-3"], capsys)
    assert rc == 2 and out == "" and "count" in err


def test_negative_betti_smax_is_2(capsys):
    rc, out, err = run_cli(["betti", "--smax", "-2"], capsys)
    assert rc == 2 and out == "" and "s_max" in err


def test_bad_emss_and_converge_sizes_are_2(capsys, monkeypatch):
    built = []
    for module, name in ((cli, "make_honda_fgl"), (homalg, "substitution_map")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            built.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    for argv, reason in [
        (["emss", "--p", "9", "--S", "1"], "p must be prime"),
        (["emss", "--p", "3", "--S", "-1"], "cutoff S must be >= 0"),
        (["converge", "--p", "2", "--smax", "-1"], "s_max must be >= 0"),
        (["rational", "--p", "3", "--smax", "-1"], "s_max must be >= 0"),
        (["compare", "--p", "7", "--n", "2", "--k", "2", "--N", "8", "--smax", "-1"],
         "s_max must be >= 0"),
    ]:
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2 and out == "" and reason in err
    # compare refuses before it builds the law or the tower map
    assert built == []
    rc, out, _ = run_cli(["rational", "--p", "3", "--smax", "0"], capsys)
    assert rc == 0 and "rank s=0: 1" in out


def test_emss_page_ceiling_and_huge_primes_are_refused_at_once(capsys):
    for argv, code, reason in [
        (["emss", "--p", "3", "--S", "12"], 2,
         "page of 2*3^12 monomials exceeds PAGE_LIMIT = %d" % emss.PAGE_LIMIT),
        (["emss", "--p", "3", "--S", "1000000000"], 2, "exceeds PAGE_LIMIT"),
        (["emss", "--p", "9223372036854775783", "--S", "2"], 2, "exceeds PAGE_LIMIT"),
        (["emss", "--p", "618970019642690137449562111", "--S", "2"], 2, "cannot decide"),
        (["group", "sylow", "--gens", "(1,2)", "--p", "9223372036854775783"], 0, ""),
    ]:
        start = time.perf_counter()
        rc, _, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2.0
        assert rc == code and reason in err


def test_generator_strings_are_answered_or_refused_at_once(capsys):
    # a point past MAX_DEGREE or more distinct generators than MAX_ORDER is
    # refused before any permutation is built; groups at the order cap on
    # MAX_DEGREE points, however many times a generator is written, are
    # answered by every group subcommand
    c200 = "(%s,1000)" % ",".join(map(str, range(1, 200)))
    c100_c2 = "(%s,1000);(101,102)" % ",".join(map(str, range(1, 100)))
    repeated = ";".join(["(1,2,3)", "(1,2,3,4,1000)(%d)"] * 500) % tuple(range(5, 505))
    for gens, code, reason in [
        ("(1,2,3,4,5);(6,4000000)", 65, "degree 4000000 exceeds cap 1000"),
        ("(1,50000000)", 65, "degree 50000000 exceeds cap 1000"),
        (";".join("(1,%d)" % k for k in range(2, 1001)), 65, "999 distinct generators exceed"),
        (c200, 0, ""), (c100_c2, 0, ""), (repeated, 0, ""),
    ]:
        for sub in ("sylow", "complement", "conjnil"):
            start = time.perf_counter()
            rc, _, err = run_cli(["group", sub, "--gens", gens, "--p", "2"], capsys)
            assert time.perf_counter() - start < 1.0
            assert rc == code and reason in err


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
    # F_2[y]/(y^2); a second line for a key or a triple must not
    # silently override the first
    head = "labels: 1 y\nparities: 0 0\naug: 1 0\n"
    muls = "mul: 0 0 0 1\nmul: 0 1 1 1\nmul: 1 0 1 1\n"
    bad.write_text(head + muls, encoding="utf-8")
    assert run_cli(["betti", "--algebra", str(bad)], capsys)[0] == 0
    for text, why in [
        (head + muls + "mul: 1 1 0 1\nmul: 1 1 0 0\n", "repeated mul triple"),
        (head + muls + "mul: 0 1 1 1\n", "repeated mul triple"),
        (head + "labels: 1 z\n" + muls, "repeated labels line"),
        (head + "parities: 0 0\n" + muls, "repeated parities line"),
        (head + "aug: 1 0\n" + muls, "repeated aug line"),
        (head.replace("parities: 0 0", "parities: 0 3") + muls, "parities must be 0 or 1"),
        (head.replace("parities: 0 0", "parities: 0 -1") + muls, "parities must be 0 or 1"),
    ]:
        bad.write_text(text, encoding="utf-8")
        rc, out, err = run_cli(["betti", "--algebra", str(bad)], capsys)
        assert rc == 65 and out == ""
        assert err.startswith("error: malformed algebra file: " + why)


def test_failed_allocation_is_refused_with_exit_2():
    # socle --m 100000 asks numpy for a 10^5 x 10^5 int64 table (74.5 GiB);
    # a 2 GiB address-space limit makes the allocation fail whatever the
    # host's memory
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ramify.cli", "socle", "--p", "2", "--m", "100000"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory: Unable to allocate")


def test_largest_emss_page_runs_in_192_mib():
    # p = 3, S = 11 is the largest page PAGE_LIMIT admits; its index path
    # must fit a 192 MiB address space, interpreter and numpy included
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ramify.cli", "emss", "--p", "3", "--S", "11"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "verdict: MATCH"


def test_memory_error_without_a_message_is_named(capsys, monkeypatch):
    def exhausted(module):
        raise MemoryError()

    monkeypatch.setattr(artin, "socle_series", exhausted)
    rc, out, err = run_cli(["socle", "--m", "5"], capsys)
    assert rc == 2 and out == ""
    assert err == "error: out of memory: allocation failed\n"


def test_a_failed_tower_map_certificate_is_2(capsys, monkeypatch):
    # y |-> 0 passes the relation check; substitution_map's rank check
    # refuses it inside compare, and main reports it like any failed
    # computation
    powers = cochain._powers_matrix
    monkeypatch.setattr(cochain, "_powers_matrix",
                        lambda x, count: powers(x.ring.element([0]), count))
    rc, out, err = run_cli(["compare", "--p", "2", "--k", "2"], capsys)
    assert rc == 2 and out == ""
    assert "Traceback" not in err
    assert err == "error: tower map is not injective\n"


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(["--help"], capsys)
    assert rc == 0
    assert "pseries" in out and "group" in out


def test_reused_parser_parses_like_a_fresh_one(capsys, monkeypatch):
    sequence = [
        ["tor", "--p", "not-a-number"],
        ["--help"],
        ["socle", "--m", "5"],
        ["bogus"],
        ["group", "sylow", "--p", "2"],
        ["socle", "--help"],
        ["nakayama", "--m", "4", "--count", "3", "--seed", "9"],
        ["socle", "--m", "3", "--format", "json"],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    reused = [run_cli(argv, capsys) for argv in sequence]
    assert len(builds) == 1
    assert [rc for rc, _, _ in fresh] == [2, 0, 0, 64, 2, 0, 0, 0]
    assert reused == fresh


def test_primes_past_int64_exactness_are_refused(capsys):
    algebra = os.path.join(HERE, "golden", "tensor_2x2.alg")
    for p in (artin.P_LIMIT + 1, 4294967311):
        for cmd in (["socle"], ["betti"], ["nakayama", "--count", "5"]):
            for source in (["--m", "8"], ["--algebra", algebra]):
                start = time.perf_counter()
                rc, out, err = run_cli(cmd + ["--p", str(p)] + source, capsys)
                assert time.perf_counter() - start < 1.0
                assert rc == 2 and out == ""
                assert "p = %d is too large" % p in err
    with pytest.raises(artin.AlgebraError, match="too large"):
        artin.truncated_polynomial_algebra(artin.P_LIMIT + 1, 2)
    # a p below the bound that is not prime is a refusal too, before
    # any file is read
    for p in (4, 1):
        for source in (["--m", "2"], ["--algebra", algebra]):
            rc, out, err = run_cli(["socle", "--p", str(p)] + source, capsys)
            assert rc == 2 and out == ""
            assert err == "error: p must be prime\n"


def _basis_mod_p(rows, p):
    """Echelon basis of the span of rows over F_p, in Python ints."""
    basis = []  # (pivot, row) with row[pivot] == 1
    for row in rows:
        row = [x % p for x in row]
        for piv, b in basis:
            if row[piv]:
                row = [(x - row[piv] * y) % p for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            basis.append((lead, [x * inv % p for x in row]))
    return [b for _, b in basis]


def _socle_dims_oracle(table, p):
    """dim soc^k A = dim A - rank of x -> (w x for w in J^k), k = 1, 2,
    ... until it is all of A, with J spanned by e_1..e_(d-1)."""
    d = len(table)

    def mul(x, y):
        return [sum(x[a] * y[b] * table[a][b][c] for a in range(d) for b in range(d)) % p
                for c in range(d)]

    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    rad = unit[1:]
    power, dims = rad, []
    while not dims or dims[-1] < d:
        maps = [[mul(w, unit[j])[c] for j in range(d)] for w in power for c in range(d)]
        dims.append(d - len(_basis_mod_p(maps, p)))
        power = _basis_mod_p([mul(u, g) for u in power for g in rad], p)
    return dims


def _mat_mod_p(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_prime_below_the_bound_agrees_with_python_ints(tmp_path, capsys):
    # F_p[y]/(y^3) (x) F_p[z]/(z^2) in the basis f = P e, P = 1 + N with N
    # strictly upper triangular on J, so every structure constant is a
    # large residue and the products run near (p - 1)^2
    p, d = 65521, 6
    assert p < artin.P_LIMIT < 2 * p
    rng = random.Random(11)
    base = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b in itertools.product(range(d), repeat=2):
        (i1, j1), (i2, j2) = divmod(a, 2), divmod(b, 2)
        if i1 + i2 < 3 and j1 + j2 < 2:
            base[a][b][2 * (i1 + i2) + j1 + j2] = 1
    nil = [[rng.randrange(p) if 0 < i < j else 0 for j in range(d)] for i in range(d)]
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    P = [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(eye, nil)]
    # (1 + N)^-1 = 1 - N + N^2 - ..., as N^d = 0
    P_inv, term = [row[:] for row in eye], eye
    for k in range(1, d):
        term = _mat_mod_p(term, nil, p)
        P_inv = [[(x + (-1) ** k * y) % p for x, y in zip(r, s)] for r, s in zip(P_inv, term)]
    assert _mat_mod_p(P, P_inv, p) == eye
    table = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b in itertools.product(range(d), repeat=2):
        old = [sum(P[a][i] * P[b][j] * base[i][j][k] for i in range(d) for j in range(d))
               for k in range(d)]
        table[a][b] = [sum(old[k] * P_inv[k][c] for k in range(d)) % p for c in range(d)]
    lines = ["labels: " + " ".join("f%d" % i for i in range(d)),
             "parities: " + " 0" * d, "aug: 1" + " 0" * (d - 1)]
    lines += ["mul: %d %d %d %d" % (a, b, c, table[a][b][c])
              for a, b, c in itertools.product(range(d), repeat=3) if table[a][b][c]]
    path = tmp_path / "twisted.alg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert max(table[a][b][c] for a, b, c in itertools.product(range(d), repeat=3)) > p // 2

    want = _socle_dims_oracle(table, p)
    rc, out, _ = run_cli(["socle", "--p", str(p), "--algebra", str(path)], capsys)
    assert rc == 0 and "socle dims: %s\n" % " ".join(map(str, want)) in out
    # a complete intersection on two generators: b_s = s + 1
    rc, out, _ = run_cli(["betti", "--p", str(p), "--algebra", str(path), "--smax", "4"], capsys)
    assert rc == 0 and "b_4 = 5\n" in out
    rc, out, _ = run_cli(["nakayama", "--p", str(p), "--algebra", str(path), "--count", "3"],
                         capsys)
    assert rc == 0 and "violations: 0" in out


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
