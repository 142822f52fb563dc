"""CLI dispatcher: exit codes, document shape, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import digraphlab
from digraphlab.cli import main
from oracles import naive_export_paths


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_doc(capsys, argv):
    rc, out, err = run(capsys, argv)
    return rc, json.loads(out), err


def test_condition_a_dk3(capsys):
    rc, doc, _ = run_doc(capsys, ["condition-a", "--pattern", "dk3", "--a", "2"])
    assert rc == 0
    assert doc["results"]["verdict"] is False
    assert doc["results"]["witness_text"] == "6/3 > 2/2"


def test_condition_a_passes(capsys):
    for name in ("c3", "t3"):
        rc, doc, _ = run_doc(capsys, ["condition-a", "--pattern", name, "--a", "2"])
        assert rc == 0 and doc["results"]["verdict"] is True
    rc, doc, _ = run_doc(capsys, ["condition-a", "--pattern", "dk3", "--a", "4"])
    assert rc == 0 and doc["results"]["verdict"] is True


def test_density_document(capsys):
    rc, doc, _ = run_doc(capsys, ["density", "--pattern", "c3"])
    assert rc == 0
    res = doc["results"]
    assert res["m"] == "2"
    assert res["degree_constant"] == "55296"
    assert res["condition_a"]["verdict"] is True
    rc, doc, _ = run_doc(capsys, ["density", "--pattern", "dk3", "--a", "4"])
    res = doc["results"]
    assert res["m"] == "infinite" and res["m_finite_part"] == "5"
    assert res["m_two_cycle_flag"] is True


def test_ex_document(capsys, tmp_path):
    wdir = tmp_path / "wits"
    rc, doc, _ = run_doc(capsys, [
        "ex", "--pattern", "c3", "--n", "4", "--a", "2",
        "--mode", "full", "--witness-dir", str(wdir),
    ])
    assert rc == 0
    assert doc["results"]["value"] == "8"
    n_wit = int(doc["results"]["witness_count"])
    assert doc["checks"] == [{"name": "witnesses-pattern-free-and-extremal", "pass": True,
                              "detail": f"witnesses re-checked via copy counting: {n_wit}"}]
    assert len(list(wdir.glob("*.dg"))) == n_wit
    # witness files parse back and are extremal
    from digraphlab import parse_digraph

    for f in wdir.glob("*.dg"):
        g = parse_digraph(f.read_text())
        assert len(g.edges) == 8


def test_count_free_and_ratio(capsys):
    rc, doc, _ = run_doc(capsys, ["count-free", "--pattern", "dk3", "--n", "3"])
    assert rc == 0 and doc["results"]["count"] == "63"
    rc, doc, _ = run_doc(capsys, ["ratio", "--pattern", "dk3", "--n", "3"])
    assert rc == 0
    assert doc["results"]["ex2"] == "5"
    assert doc["checks"] == [{"name": "count >= 2^ex2", "pass": True,
                              "detail": "exact big-integer comparison: 63 >= 2^5"}]


@pytest.mark.parametrize("pattern", ["c3", "t3"])
def test_ratio_refuses_n7_before_the_search(capsys, monkeypatch, pattern):
    # the canonical n=7 search used to run in full before the count refused
    def no_work(*args, **kwargs):
        raise AssertionError("the extremal search started before the refusal")
    monkeypatch.setattr(digraphlab.extremal, "extremal_number", no_work)
    rc, out, err = run(capsys, ["ratio", "--pattern", pattern, "--n", "7"])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: labelled count capped at n=6\n"


def test_pattern_past_ten_vertices_refused_before_the_handler(capsys, monkeypatch, tmp_path):
    # the automorphism count of the inputs block used to run after the count
    path = tmp_path / "p11.dg"
    path.write_text("n=11\n" + "".join(f"{i} {i + 1}\n" for i in range(10)))

    def no_work(*args, **kwargs):
        raise AssertionError("the count started before the refusal")
    monkeypatch.setattr(digraphlab.cli, "count_free", no_work)
    rc, out, err = run(capsys, ["count-free", "--pattern", str(path), "--n", "6"])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: automorphism search over 11! permutations refused\n"


def test_supersat_document(capsys):
    rc, doc, _ = run_doc(capsys, [
        "supersat", "--pattern", "dk3", "--n", "3", "--a", "2", "--k-max", "1",
    ])
    assert rc == 0
    pts = doc["results"]["points"]
    assert [(p["k"], p["max_ea"]) for p in pts] == [("0", "5"), ("1", "6")]


def test_hypergraph_document(capsys, tmp_path):
    rc, doc, _ = run_doc(capsys, ["hypergraph", "--pattern", "c3", "--N", "3"])
    assert rc == 0
    assert doc["results"]["universe_size"] == "6"
    assert doc["results"]["edges"] == "2"
    assert doc["results"]["labelled_copy_count"] == "6"
    assert doc["results"]["export_text"].startswith("N=3 r=3 edges=2")
    assert doc["checks"] == [{"name": "hyperedges-decode-to-one-copy", "pass": True,
                              "detail": "hyperedges decoded to one copy each during the build: 2"}]
    out = tmp_path / "d.hg"
    rc, doc, _ = run_doc(capsys, [
        "hypergraph", "--pattern", "c3", "--N", "3", "--export", str(out),
    ])
    assert rc == 0 and out.exists() and doc["results"]["export_text"] is None


def test_codegree_document(capsys):
    rc, doc, _ = run_doc(capsys, ["codegree", "--pattern", "c3", "--N", "6", "--tau", "0.5"])
    assert rc == 0
    assert doc["results"]["codegree_sums"] == {"2": "30", "3": "30"}
    assert "value" in doc["results"]["delta"]


def test_verify_lemma_exit_codes(capsys):
    rc, doc, _ = run_doc(capsys, [
        "verify-lemma", "--pattern", "c3", "--gamma", "1", "--N-range", "6..8",
    ])
    assert rc == 0
    assert all(row["pass"] for row in doc["results"]["rows"])
    # flagged-infinite exponent refuses with exit 2
    rc, out, err = run(capsys, [
        "verify-lemma", "--pattern", "dk3", "--gamma", "1", "--N-range", "6..7",
    ])
    assert rc == 2 and "refused" in err
    # gamma > 1 is a precondition error
    rc, out, err = run(capsys, [
        "verify-lemma", "--pattern", "c3", "--gamma", "2", "--N-range", "6..7",
    ])
    assert rc == 2


def test_containers_and_verify_family(capsys, tmp_path):
    fam_file = tmp_path / "fam.txt"
    rc, doc, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--export", str(fam_file),
    ])
    assert rc == 0 and fam_file.exists()
    rc, doc, _ = run_doc(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--mode", "exhaustive", "--family", str(fam_file),
    ])
    assert rc == 0
    assert doc["results"]["coverage_ok"] is True
    assert doc["results"]["checked"] == "1699"


def test_verify_family_fault_exit_3(capsys, tmp_path):
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--export", str(fam_file),
    ])
    assert rc == 0
    lines = fam_file.read_text().splitlines()
    mask = int(lines[1], 16)
    w = len(lines[1])
    lines[1] = f"{mask & ~(mask & -mask):0{w}x}"
    fam_file.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--mode", "exhaustive", "--family", str(fam_file),
    ])
    assert rc == 3
    doc = json.loads(out)
    assert doc["results"]["coverage_ok"] is False
    assert doc["results"]["miss_witness"].startswith("n=4")
    assert "witness" in err


def test_verify_family_eps_must_match_the_export(capsys, tmp_path, monkeypatch):
    # the family's sparsity limit comes from its header; a different --eps
    # would be recorded in the manifest but not checked
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/3", "--export", str(fam_file),
    ])
    assert rc == 0

    def no_work(*args, **kwargs):
        raise AssertionError("verification started before the refusal")
    monkeypatch.setattr(digraphlab.cli, "verify_family", no_work)
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", str(fam_file),
    ])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: --eps 1/10 differs from the family's eps 1/3\n"
    monkeypatch.undo()
    rc, doc, _ = run_doc(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/3",
        "--family", str(fam_file),
    ])
    assert rc == 0 and doc["results"]["sparsity_ok"] is True


def _last_leaf_line(lines):
    return max(k for k, line in enumerate(lines) if line.startswith("-") and line != "-1")


@pytest.mark.parametrize("code, why", [
    ("-1001", "tree leaf -1001 not in -100..-1"),
    ("x", "bad tree code 'x'"),
    ("-5+", "bad tree code '-5+'"),
    ("5-", "bad tree code '5-'"),
])
def test_verify_family_bad_tree_line_exit_1(capsys, tmp_path, code, why):
    # a leaf must name one of the exported containers (c3 on [4], eps=1/10:
    # 99 containers, leaf codes -2..-100), and a code must be an integer
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--export", str(fam_file),
    ])
    assert rc == 0
    lines = fam_file.read_text().splitlines()
    k = _last_leaf_line(lines)
    lines[k] = code
    fam_file.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--family", str(fam_file),
    ])
    assert rc == 1 and out == ""
    assert err == f"digraphlab: parse error: line {k + 1}: {why}\n"


def _bump_last_pivot(lines):
    # the last pivot of the tree set to N(N-1) = 12
    k = max(k for k, line in enumerate(lines) if k > int(lines[0].split()[4]) and line[0] != "-")
    lines[k] = "12"
    return k + 1


def _drop_last_line(lines):
    lines.pop()


def _set_header(field, value):
    def edit(lines):
        head = lines[0].split()
        head[field] = value
        lines[0] = " ".join(head)
    return edit


def _set_container(value):
    def edit(lines):
        lines[1] = value(lines[1])
    return edit


@pytest.mark.parametrize("edit, line, why", [
    (_set_container(lambda c: "-" + c), 2, "bad container bitset"),
    (_set_container(lambda c: "0x" + c), 2, "bad container bitset"),
    (_set_container(lambda c: c[0] + "_" + c[1:]), 2, "bad container bitset"),
    (_set_container(lambda c: f"{int(c, 16) | 1 << 12:x}"), 2,
     "container bitset has a bit at or above N(N-1)=12"),
    (_set_header(2, "1"), 1, "family header eps=1 outside (0, 1/2)"),
    (_set_header(2, "1/2"), 1, "family header eps=1/2 outside (0, 1/2)"),
    (_set_header(2, "0"), 1, "family header eps=0 outside (0, 1/2)"),
    (_set_header(2, "1/0"), 1, "bad family header: Fraction(1, 0)"),
    (_set_header(2, "1e-9999999"), 1, "bad family header: eps '1e-9999999' is not a fraction p/q"),
    (_set_header(4, "-1"), 1, "family header count -1 is negative"),
    (_set_header(0, "1"), 1, "family header N=1 below 2"),
    (_set_header(3, "nan"), 1, "family header tau=nan outside (0, 1]"),
    (_set_header(3, "inf"), 1, "family header tau=inf outside (0, 1]"),
    (_set_header(3, "-3"), 1, "family header tau=-3 outside (0, 1]"),
    (_set_header(3, "0"), 1, "family header tau=0 outside (0, 1]"),
    (_set_header(3, "1e400"), 1, "family header tau=1e400 outside (0, 1]"),
    (_bump_last_pivot, None, "tree pivot 12 not in 0..11"),
    (_drop_last_line, None, "routing tree ends with 1 branch(es) open"),
])
def test_verify_family_malformed_export_exit_1(capsys, tmp_path, edit, line, why):
    # values the builder never writes are refused with their line number
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--export", str(fam_file),
    ])
    assert rc == 0
    lines = fam_file.read_text().splitlines()
    line = edit(lines) or line
    fam_file.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", str(fam_file),
    ])
    assert rc == 1 and out == ""
    assert err == f"digraphlab: parse error: line {line or len(lines)}: {why}\n"


@pytest.mark.parametrize("code, why", [
    ("9" * 5000, f"tree pivot {'9' * 5000} not in 0..5"),
    ("-" + "9" * 5000, f"tree leaf -{'9' * 5000} not in -2..-1"),
], ids=["pivot", "index"])
def test_verify_family_long_decimal_runs_exit_1(capsys, tmp_path, code, why):
    # past Python's 4300-digit limit on int(), a number is still refused in one line
    fam_file = tmp_path / "big.txt"
    fam_file.write_text(f"3 3 1/10 0.5 1\n3f\n{code}\n")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "3", "--family", str(fam_file),
    ])
    assert rc == 1 and out == ""
    assert err == f"digraphlab: parse error: line 3: {why}\n"


@pytest.mark.parametrize("head, why", [
    ("3 3 1/10 0.5 " + "1" * 5000, "count has 5000 digits"),
    (f"{'0' * 5000}1{'7' * 5000} 3 1/10 0.5 1", "N has 5001 digits"),
    ("3 3 1/" + "9" * 4400 + " 0.5 1", "eps has 4400 digits"),
], ids=["count", "N", "eps"])
def test_verify_family_long_header_field_exit_1(capsys, tmp_path, head, why):
    # a header field still past int()'s digit limit without its leading zeros
    # is refused by name (a zero-padded one is read: test_containers.py)
    fam_file = tmp_path / "big.txt"
    fam_file.write_text(f"{head}\n3f\n-2\n")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "3", "--family", str(fam_file),
    ])
    assert rc == 1 and out == ""
    assert err == f"digraphlab: parse error: line 1: bad family header: {why}, too many to read\n"


def test_verify_family_refuses_a_fingerprint_path_export(capsys, tmp_path):
    # the format exports had before the routing tree was written in preorder:
    # one line per container leaf, its fingerprint path and its index
    fam_file = tmp_path / "paths.txt"
    hg = digraphlab.build_hypergraph(4, digraphlab.cli.load_pattern("c3")[0])
    fam = digraphlab.build_containers(hg, 0.5, Fraction(1, 10))
    fam_file.write_text(naive_export_paths(fam))
    # the bytes that writer wrote for `containers --pattern c3 --N 4 --eps 1/10`
    assert hashlib.sha256(fam_file.read_bytes()).hexdigest() == (
        "e9b85a202538a6437ded8e171a6de5984da4437050ecf35d342849b505b38a0d")
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", str(fam_file),
    ])
    first = fam_file.read_text().splitlines()[100]
    assert rc == 1 and out == ""
    assert err == f"digraphlab: parse error: line 101: bad tree code {first!r}\n"


def test_sampled_verifier_draw_budget_exit_2(capsys, monkeypatch):
    # c3-free digraphs on [6] are about 1 draw in 29: 3 batches of 65,536
    # draws do not reach 10,000 samples
    monkeypatch.setattr(digraphlab.containers, "_DRAW_BUDGET", 3 * 65_536)
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "6", "--eps", "1/10", "--mode", "sampled",
    ])
    assert rc == 2 and out == ""
    assert re.fullmatch("digraphlab: refused: sampled verification stopped after 196608 draws, "
                        "[0-9]+ of 10000 samples accepted\n", err)
    # 2,000 samples are reached inside the budget
    rc, _, _ = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "6", "--eps", "1/10", "--mode", "sampled",
        "--samples", "2000",
    ])
    assert rc == 0


@pytest.mark.parametrize("argv, why", [
    (["verify-family", "--pattern", "c3", "--N", "6", "--eps", "1/10", "--mode", "exhaustive"],
     "exhaustive verification capped at N=5"),
    (["verify-family", "--pattern", "c3", "--N", "6", "--mode", "exhaustive",
      "--family", "no-such-family.txt"], "exhaustive verification capped at N=5"),
    (["verify-family", "--pattern", "c3", "--N", "9", "--mode", "sampled"],
     "sampled verification needs a <=63-bit universe"),
    (["pipeline", "--pattern", "c3", "--a", "2", "--N", "9", "--eps", "1/10"],
     "sampled verification needs a <=63-bit universe"),
    (["verify-family", "--pattern", "c3", "--N", "4", "--tau", "7",
      "--family", "no-such-family.txt"], "tau=7 outside (0, 1]"),
])
def test_out_of_cap_verification_refused_before_work(capsys, monkeypatch, argv, why):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    for module in (digraphlab.cli, digraphlab.containers):
        monkeypatch.setattr(module, "build_hypergraph", no_work)
        monkeypatch.setattr(module, "build_containers", no_work)
    monkeypatch.setattr(digraphlab.ContainerFamily, "from_export_text", no_work)
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"digraphlab: refused: {why}\n"


@pytest.mark.parametrize("argv, why", [
    (["ex", "--pattern", "c3", "--n", "4", "--witness-cap", "-1"], "--witness-cap must be >= 0, got -1"),
    (["verify-family", "--pattern", "c3", "--N", "5", "--mode", "sampled", "--samples", "0"],
     "--samples must be >= 1, got 0"),
    (["pipeline", "--pattern", "c3", "--N", "5", "--eps", "1/10", "--samples", "-4"],
     "--samples must be >= 1, got -4"),
    (["supersat", "--pattern", "dk3", "--n", "3", "--k-max", "2"],
     "--k-max 2 exceeds 1, the number of copies of the pattern in the complete digraph on [3]"),
    (["supersat", "--pattern", "dk3", "--n", "5", "--k-max", "100000000000"],
     "--k-max 100000000000 exceeds 10, the number of copies of the pattern in the complete "
     "digraph on [5]"),
])
def test_out_of_contract_budgets_exit_2(capsys, argv, why):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"digraphlab: refused: {why}\n"


@pytest.mark.parametrize("argv", [
    ["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--mode", "sampled",
     "--samples", "10"],
    ["pipeline", "--pattern", "c3", "--a", "2", "--N", "4", "--eps", "1/10"],
    ["count-free", "--pattern", "c3", "--n", "3"],
])
def test_seed_outside_32_bits_refused_before_work(capsys, monkeypatch, argv):
    # numpy's RNG takes a 32-bit seed: a sampled run used to build the family
    # first and then end in numpy's ValueError traceback
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    for module in (digraphlab.cli, digraphlab.containers):
        monkeypatch.setattr(module, "build_containers", no_work)
    monkeypatch.setattr(digraphlab.cli, "count_free", no_work)
    for seed in ("-1", "4294967296"):
        rc, out, err = run(capsys, [*argv, "--seed", seed])
        assert rc == 2 and out == ""
        assert err == f"digraphlab: refused: --seed must be in 0..4294967295, got {seed}\n"
    monkeypatch.undo()
    rc, doc, _ = run_doc(capsys, [*argv, "--seed", "4294967295"])
    assert rc == 0 and doc["manifest"]["seed"] == 4294967295


def test_workers_flag_is_a_usage_error(capsys):
    # every scan is serial; the flag that chose a worker count is gone
    rc, out, err = run(capsys, ["count-free", "--pattern", "c3", "--n", "4", "--workers", "2"])
    assert rc == 1 and out == ""
    assert err == "digraphlab: error: unrecognized arguments: --workers 2\n"


_LEMMA = ["verify-lemma", "--pattern", "c3", "--N-range", "6"]
_CONTAINERS = ["containers", "--pattern", "c3", "--N", "3"]


@pytest.mark.parametrize("argv, field, value", [
    (["density", "--pattern", "c3", "--a", "3"], "a", "3"),
    (["density", "--pattern", "c3", "--a", "7/2"], "a", "7/2"),
    (["density", "--pattern", "c3", "--a", "1.5"], "a", "3/2"),
    (_LEMMA + ["--gamma", "1"], "gamma", "1"),
    (_LEMMA + ["--gamma", "1/2"], "gamma", "1/2"),
    (_LEMMA + ["--gamma", "0.5"], "gamma", "1/2"),
    (_CONTAINERS + ["--eps", "1/10"], "eps", "1/10"),
    (_CONTAINERS + ["--eps", "0.25"], "eps", "1/4"),
    (_CONTAINERS + ["--eps", "1/10", "--tau", "1"], "tau", 1.0),
    (_CONTAINERS + ["--eps", "1/10", "--tau", "3/4"], "tau", 0.75),
    (["codegree", "--pattern", "c3", "--N", "4", "--tau", "0.5"], "tau", 0.5),
    # density reports no float of a, so a weight past the float range is read
    (["density", "--pattern", "c3", "--a", "9" * 400], "a", "9" * 400),
    # the pipeline writes its weighted sizes as exact strings only, so it takes
    # a weight that puts them past the float range (ex and supersat refuse it)
    (["pipeline", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--a", "1" + "0" * 308],
     "extremal", {"value": str(4 * 10 ** 308), "mode": "full"}),
])
def test_number_flags_accept_p_fraction_and_decimal(capsys, argv, field, value):
    rc, doc, _ = run_doc(capsys, argv)
    assert rc == 0
    res = doc["results"]
    got = res["condition_a"]["a"] if field == "a" else res[field]
    assert (got["value"] if isinstance(value, float) else got) == value


def test_number_flag_integer_eps_is_parsed_then_refused(capsys):
    rc, out, err = run(capsys, _CONTAINERS + ["--eps", "1"])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: eps=1 outside (0, 1/2)\n"


@pytest.mark.parametrize("argv, what, text", [
    (["codegree", "--pattern", "c3", "--N", "5", "--tau", "abc"], "tau", "abc"),
    (_CONTAINERS + ["--eps", "1/10", "--tau", "1/0"], "tau", "1/0"),
    (_CONTAINERS + ["--eps", "1e9999"], "eps", "1e9999"),
    (_LEMMA + ["--gamma", "1e9999"], "gamma", "1e9999"),
    (["density", "--pattern", "c3", "--a", "1e-9999999"], "weight", "1e-9999999"),
    (["density", "--pattern", "c3", "--a", "inf"], "weight", "inf"),
    (["pipeline", "--pattern", "c3", "--N", "4", "--eps", ".1"], "eps", ".1"),
    (["pipeline", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--a", "2/"], "weight", "2/"),
    (["verify-family", "--pattern", "c3", "--N", "4", "--tau", "abc",
      "--family", "no-such-family.txt"], "tau", "abc"),
])
def test_malformed_number_flags_exit_1(capsys, argv, what, text):
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err == (f"digraphlab: parse error: malformed {what}: {text!r}; "
                   "expected p, p/q or a decimal such as 1.5\n")


@pytest.mark.parametrize("argv, why", [
    (["codegree", "--pattern", "c3", "--N", "5", "--tau", "1" + "0" * 400],
     f"tau={'1' + '0' * 400} outside (0, 1]"),
    (["verify-lemma", "--pattern", "c3", "--N-range", "6..7", "--gamma", "1/1" + "0" * 400],
     f"gamma=1/1{'0' * 400} puts tau above 1 at N=6"),
    # 1e-160: tau^2 is a subnormal float, and delta_2 divides by it
    (["codegree", "--pattern", "t3", "--N", "4", "--tau", "0." + "0" * 159 + "1"],
     f"--tau 0.{'0' * 159}1: the co-degree function is past the float range"),
    # 1e308 is a float, but the scan's best pair has f2 = 2, and 2e308 is not
    (["ex", "--pattern", "c3", "--n", "3", "--a", "1" + "0" * 308],
     f"--a 1{'0' * 308}: the weighted size is past the float range"),
    (["supersat", "--pattern", "c3", "--n", "3", "--k-max", "1", "--a", "1" + "0" * 308],
     f"--a 1{'0' * 308}: the weighted size is past the float range"),
])
def test_numbers_past_the_float_range_refused(capsys, argv, why):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"digraphlab: refused: {why}\n"


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the refusal")


_TINY = "0." + "0" * 199 + "1"      # 1e-200: its square is below the float range
_ZERO = "0." + "0" * 330 + "1"      # 1e-331: float() gives 0.0
_HUGE = "9" * 400


@pytest.mark.parametrize("argv, why", [
    (["codegree", "--pattern", "c3", "--N", "4", "--tau", _TINY],
     f"--tau {_TINY}: tau^2 is below the float range"),
    (["codegree", "--pattern", "c3", "--N", "4", "--tau", _ZERO],
     f"--tau {_ZERO} is below the float range"),
    (_CONTAINERS + ["--eps", "1/10", "--tau", _ZERO], f"--tau {_ZERO} is below the float range"),
    (["verify-family", "--pattern", "c3", "--N", "4", "--tau", _ZERO,
      "--family", "no-such-family.txt"], f"--tau {_ZERO} is below the float range"),
    (["ex", "--pattern", "c3", "--n", "3", "--a", _HUGE], f"--a {_HUGE} is past the float range"),
    (["supersat", "--pattern", "c3", "--n", "3", "--k-max", "1", "--a", _HUGE],
     f"--a {_HUGE} is past the float range"),
    (["pipeline", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--a", _HUGE],
     f"--a {_HUGE} is past the float range"),
])
def test_numbers_past_the_float_range_refused_before_work(capsys, monkeypatch, argv, why):
    for name in ("build_hypergraph", "build_containers", "container_pipeline", "extremal_number",
                 "supersat_scan"):
        monkeypatch.setattr(digraphlab.cli, name, _no_work)
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"digraphlab: refused: {why}\n"


def test_codegree_refuses_more_than_20_edges_before_the_sums(capsys, monkeypatch, tmp_path):
    # the complete digraph on [6]: the sums would walk 2^29 subsets per incidence
    path = tmp_path / "k6.dg"
    path.write_text("n=6\n" + "".join(f"{u} {v}\n" for u in range(6) for v in range(6) if u != v))
    monkeypatch.setattr(digraphlab.pairhypergraph, "_codegree_sums", _no_work)
    rc, out, err = run(capsys, ["codegree", "--pattern", str(path), "--N", "6", "--tau", "1/2"])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: co-degree sums over 2^29 subsets per incidence refused\n"


def test_tiny_eps_builds_independent_containers(capsys):
    # 1/eps is far past the recursion limit; the tree is no deeper than N(N-1)
    rc, doc, _ = run_doc(capsys, _CONTAINERS + ["--eps", "1/" + "9" * 30])
    assert rc == 0 and doc["results"]["max_span"] == "0"


def test_k_max_up_to_copy_count_accepted(capsys):
    # dk3 has 1, 4 and 10 copies in the complete digraph on [3], [4] and [5]
    for n, k_max in ((3, 1), (4, 4), (5, 10)):
        rc, doc, _ = run_doc(capsys, ["supersat", "--pattern", "dk3", "--n", str(n), "--k-max", str(k_max)])
        assert rc == 0 and len(doc["results"]["points"]) == k_max + 1


def test_canonical_isolated_vertex_pattern(capsys, tmp_path):
    # a pattern with an isolated vertex: the greedy seed meets a core copy on
    # h - 1 vertices that no vertex can extend
    f = tmp_path / "c3iso.dg"
    f.write_text("n=4\n0 1\n1 2\n2 0\n")
    docs = {}
    for mode in ("full", "canonical"):
        rc, doc, err = run_doc(capsys, ["ex", "--mode", mode, "--pattern", str(f), "--n", "4"])
        assert rc == 0, err
        docs[mode] = doc["results"]
    assert docs["canonical"]["value"] == docs["full"]["value"]
    assert docs["canonical"]["witness_keys"] == docs["full"]["witness_keys"]


def _module_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this digraphlab."""
    src = str(Path(digraphlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["digraphlab", "digraphlab.cli"])
def test_module_entry_point(capsys, module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "density", "--pattern", "c3"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = run(capsys, ["density", "--pattern", "c3"])
    assert rc == 0 and proc.stdout == out


# A child interpreter that runs CLI commands (a JSON list of argv lists) one
# after another.  It prints whether numpy was loaded once digraphlab and its
# CLI were imported, and each command's exit code (or ImportError message)
# with whether numpy was loaded after it.  With "block", a meta-path finder
# refuses every import of numpy first.
_NUMPY_PROBE = """
import json, sys
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")
if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoNumpy())
import digraphlab
import digraphlab.cli
report = {"import": "numpy" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[2]):
    try:
        code = digraphlab.cli.main(argv)
    except ImportError as exc:
        code = str(exc)
    report["runs"].append([code, "numpy" in sys.modules])
print(json.dumps(report))
"""

_NUMPY_FREE = [
    ["density", "--pattern", "c3"],
    ["condition-a", "--pattern", "dk3", "--a", "2"],
    ["ex", "--pattern", "c3", "--n", "5", "--mode", "full"],
    ["ex", "--pattern", "t3", "--n", "5", "--mode", "canonical"],
    ["supersat", "--pattern", "c3", "--n", "4", "--k-max", "2"],
    ["hypergraph", "--pattern", "c3", "--N", "4"],
    ["codegree", "--pattern", "c3", "--N", "5", "--tau", "0.5"],
    ["verify-lemma", "--pattern", "c3", "--N-range", "5"],
]


def _probe_numpy(mode: str, argvs: list[list[str]]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, mode, json.dumps(argvs)],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_free_subcommands_run_without_numpy(capsys, tmp_path):
    # importing the package and its CLI loads no numpy, and neither do the
    # subcommands that run no array pass; their documents are the same as
    # those of a process that has numpy
    argvs = [[*argv, "--out", str(tmp_path / f"{k}.json")] for k, argv in enumerate(_NUMPY_FREE)]
    assert _probe_numpy("block", argvs) == {"import": False, "runs": [[0, False]] * len(argvs)}
    for k, argv in enumerate(_NUMPY_FREE):
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and (tmp_path / f"{k}.json").read_text() == out, argv


def test_array_subcommands_load_numpy(tmp_path):
    # the block above holds, and the array passes load numpy on first use
    count_free = ["count-free", "--pattern", "c3", "--n", "4", "--out", str(tmp_path / "f.json")]
    containers = ["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
                  "--out", str(tmp_path / "c.json")]
    assert _probe_numpy("block", [count_free]) == {"import": False,
                                                   "runs": [["numpy is blocked", False]]}
    for argv in (count_free, containers):
        assert _probe_numpy("free", [argv]) == {"import": False, "runs": [[0, True]]}


def test_closed_stdout_is_one_line_exit_1():
    # the pipe's reader is gone before the program starts, so its first
    # write to stdout fails; no traceback and no "Exception ignored" may follow
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "digraphlab", "count-free", "--pattern", "c3", "--n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_module_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "digraphlab: error: standard output closed\n"


@pytest.mark.parametrize("argv, what", [
    (["count-free", "--n", "3", "--pattern"], "graph"),
    (["verify-family", "--pattern", "c3", "--N", "4", "--family"], "family"),
])
def test_non_utf8_input_file_is_one_line_exit_1(capsys, tmp_path, argv, what):
    bad = tmp_path / "bad.dg"
    bad.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, [*argv, str(bad)])
    assert rc == 1 and out == ""
    assert err == (f"digraphlab: error: unreadable {what} file {str(bad)!r}: 'utf-8' codec "
                   "can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["count-free", "--pattern", "c3", "--n", "3", "--out", "MISSING/x.json"],
    ["hypergraph", "--pattern", "c3", "--N", "3", "--export", "MISSING/x"],
    ["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--export", "MISSING/x"],
    ["ex", "--pattern", "c3", "--n", "3", "--witness-dir", "FILE"],
])
def test_unwritable_output_is_one_line_exit_1(capsys, tmp_path, argv):
    # MISSING is a directory that does not exist, FILE a file where a
    # directory is wanted
    (tmp_path / "FILE").write_text("")
    rc, out, err = run(capsys, [str(tmp_path / a) if a.startswith(("MISSING", "FILE")) else a
                                for a in argv])
    assert rc == 1 and out == ""
    assert err.startswith("digraphlab: error: [Errno ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_pipeline_refusal_exit_2(capsys):
    rc, out, err = run(capsys, [
        "pipeline", "--pattern", "dk3", "--a", "2", "--N", "5", "--eps", "1/10",
    ])
    assert rc == 2
    assert "6/3 > 2/2" in err


def test_pipeline_n4(capsys):
    rc, doc, _ = run_doc(capsys, [
        "pipeline", "--pattern", "c3", "--a", "2", "--N", "4", "--eps", "1/10",
    ])
    assert rc == 0
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks["property-a-coverage"] is True
    assert checks["property-b-copy-bounds"] is True


def test_pipeline_weighted_size_is_reported_not_asserted(capsys):
    # 178 of p4's 704 containers lie above ex + eps*N^2 at N=5; the
    # conclusion is asymptotic, so the run still exits 0 and says so
    rc, doc, _ = run_doc(capsys, [
        "pipeline", "--pattern", "p4", "--a", "log2(3)", "--N", "5", "--eps", "1/10",
    ])
    assert rc == 0
    check = next(c for c in doc["checks"] if c["name"] == "property-b-weighted-size")
    assert check == {
        "name": "property-b-weighted-size", "pass": None,
        "detail": "exact (full enumeration); reported, not asserted: 178 of 704 containers "
                  "above ex + eps*N^2 = 8 + 5/2, the first container 0 at 3*log2(3)+6",
    }


def test_usage_errors_exit_1(capsys):
    rc, out, err = run(capsys, ["no-such-command"])
    assert rc == 1
    rc, out, err = run(capsys, ["ex", "--pattern", "c3", "--n", "nope"])
    assert rc == 1
    rc, out, err = run(capsys, ["ex", "--pattern", "/does/not/exist.dg", "--n", "3"])
    assert rc == 1
    rc, out, err = run(capsys, ["supersat", "--pattern", "c3", "--n", "3", "--a", "bogus", "--k-max", "1"])
    assert rc == 1


def test_budget_errors_exit_2(capsys):
    rc, out, err = run(capsys, ["ex", "--pattern", "c3", "--n", "6", "--mode", "full"])
    assert rc == 2 and "refused" in err
    rc, out, err = run(capsys, ["count-free", "--pattern", "c3", "--n", "9"])
    assert rc == 2


def test_pattern_file_path(capsys, tmp_path):
    f = tmp_path / "mine.dg"
    f.write_text("n=3\n0 1\n1 2\n")
    rc, doc, _ = run_doc(capsys, ["density", "--pattern", str(f)])
    assert rc == 0
    assert doc["results"]["m"] == "1"


def test_document_determinism(capsys):
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys, ["density", "--pattern", "t3", "--a", "2"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    rc, out, _ = run(capsys, ["count-free", "--pattern", "c3", "--n", "3", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["count"] == "49"


def _drop_one_element(path):
    lines = path.read_text().splitlines()
    mask = int(lines[1], 16)
    lines[1] = f"{mask & ~(mask & -mask):0{len(lines[1])}x}"
    path.write_text("\n".join(lines) + "\n")


def _tighten_eps(src, dst, eps):
    head, rest = src.read_text().split("\n", 1)
    fields = head.split()
    fields[2] = eps
    dst.write_text(" ".join(fields) + "\n" + rest)


# (argv, exit code, sha256 of stdout, stderr), or a file edit between runs.
# Paths are relative, so the --export and --family values recorded in the
# manifests do not depend on where the test runs.
_EMPTY = hashlib.sha256(b"").hexdigest()
_PINNED = [
    (["condition-a", "--pattern", "dk3", "--a", "2"],
     0, "345872afd51287daa2b16fa0cd59140e761575d32850e028467ddc60bac17a20", ""),
    (["density", "--pattern", "c3", "--a", "2"],
     0, "12d7c60848f03493af0b2c8a25e06777cb9dc55b05d1d4ce7a53b124c98639a4", ""),
    (["ex", "--pattern", "t3", "--n", "4", "--a", "2", "--mode", "full"],
     0, "85eb352fd197912dd43ea0d3a8bbd18f5d2c66137bcdcebd27aa2e81203bda53", ""),
    (["ex", "--pattern", "c3", "--n", "4", "--a", "2", "--mode", "canonical"],
     0, "47d9d45815e09f5234e88ed63688ca502e28b3db0b5282f728cdc1a554987891", ""),
    (["count-free", "--pattern", "dk3", "--n", "4"],
     0, "a0d2431465eaaa320cb3d24422bcaf20286417c9bd48ad81294102e15e970131", ""),
    (["ratio", "--pattern", "c3", "--n", "4"],
     0, "0f2e822be269642f44fee33df89524685f06d66cde7a585307c8fd956d029351", ""),
    (["supersat", "--pattern", "dk3", "--n", "4", "--a", "2", "--k-max", "2"],
     0, "dcbbe96ab53b2f24984c45ffe3e68c95454f47222e6a5dddfa9fb746a518b6c3", ""),
    (["hypergraph", "--pattern", "c3", "--N", "5"],
     0, "66b94b035d0cfc2cdb9a4690434a90f779063a8e3002a2baf6303393262122c8", ""),
    (["codegree", "--pattern", "t3", "--N", "7", "--tau", "0.5"],
     0, "582f314048accea0e1291b94e48bcab3b4db8b97772ff5266c6f416b41fd9dab", ""),
    (["verify-lemma", "--pattern", "c3", "--gamma", "1/2", "--N-range", "6..9"],
     0, "c0657fdc88639e5e94da69f02078c64fbffd41b673658cf83040f53cde012707", ""),
    (["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10"],
     0, "2945523034e19638bd9802079b2bdb351d10821da4beba8b9d36b6030e58fc4f", ""),
    (["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--mode", "exhaustive"],
     0, "bbb8f7868ba807388db808a4a92783ccb9f871ef2f522d3592d216800ffbc0a1", ""),
    (["verify-family", "--pattern", "c3", "--N", "6", "--eps", "1/10",
      "--mode", "sampled", "--samples", "2000", "--seed", "11"],
     0, "e90b17f91b528a36e17f69a13a5760eb8af7b86065e225afa033296a1d22656a", ""),
    # sampled draws whose copies cross the sampled verifier's vertex windows
    (["verify-family", "--pattern", "t3", "--N", "7", "--eps", "1/3",
      "--mode", "sampled", "--samples", "1000", "--seed", "5"],
     0, "96985b635b4ad8aa9d348f31c936849949534b39111042c0c19641bf7ef895b4", ""),
    (["pipeline", "--pattern", "c3", "--a", "2", "--N", "4", "--eps", "1/10"],
     0, "dd1564eb44dadcba71d7c1c3e01c81a78e6f235b3ba17667075d699fa6a0d433", ""),
    (["ex", "--pattern", "c3", "--n", "4", "--witness-dir", "wits"],
     0, "953e0def4b793fda2207c98a49a0379a4832236f5e567d45fe2c545140cbd7fc", ""),
    (["hypergraph", "--pattern", "c3", "--N", "4", "--export", "hg.txt"],
     0, "2e4036f11b0898b6cf4eb0204b2e3fb3a17592195403c1518cba0f555cd5a943", ""),
    (["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--export", "fam.txt"],
     0, "01645bd1154124c7e8820a08f083b642fd5f57f5c0db5788f0a7a42538173c7f", ""),
    (["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", "fam.txt"],
     0, "982c4799f314ca7a882bf65497c5e99c649ceb892696fb460afeedbd45d56e3e", ""),
    (["containers", "--pattern", "c3", "--N", "4", "--eps", "1/3", "--export", "loose.txt"],
     0, "c9516391fb0938df83855f4aa02c0a99f0a2c7a2e58fb81be14b3b821b7cf7ae", ""),
    lambda: _tighten_eps(Path("loose.txt"), Path("tight.txt"), "1/10"),
    (["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", "tight.txt"],
     3, "e520c71bc8934116889815aa08554ee35e9d51c016665b66feb9026734850ee7",
     "verification failed: container sparsity violated\n"),
    lambda: _drop_one_element(Path("fam.txt")),
    (["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--family", "fam.txt"],
     3, "fee57c552f6952924504b7a0f2dee55fae46620f7ca22db76a15aad6030e3fe7",
     "verification failed: coverage miss, witness:\nn=4\n1 0\n\n"),
    (["count-free", "--pattern", "c3", "--n", "3", "--seed", "5", "--out", "doc.json"],
     0, _EMPTY, ""),
    (["verify-lemma", "--pattern", "c3", "--N-range", "6,7", "--gamma", "2"],
     2, _EMPTY, "digraphlab: refused: gamma=2 outside (0, 1]\n"),
    (["count-free", "--pattern", "c3", "--n", "9"],
     2, _EMPTY, "digraphlab: refused: labelled count capped at n=6\n"),
    (["ex", "--pattern", "nope", "--n", "3"],
     1, _EMPTY,
     "digraphlab: error: pattern 'nope': no such file or builtin pattern\n"),
    (["ex", "--pattern", "c3"],
     1, _EMPTY, "digraphlab: error: the following arguments are required: --n\n"),
]
# every file the runs above leave behind, hashed as "path\0bytes\0" in path order
_PINNED_FILES = "08a7c25fb32cace63663123a1aec65a1b0908f02a56fc005001b699fe49b63a5"


def test_documents_are_pinned(capsys, tmp_path, monkeypatch):
    # every document, exit code and stderr line, byte for byte: the criterion-9
    # manifests, the flags that write files, and exits 1, 2 and 3
    monkeypatch.chdir(tmp_path)
    for step in _PINNED:
        if callable(step):
            step()
            continue
        argv, rc, out_sha, err = step
        got_rc, out, got_err = run(capsys, argv)
        got = (got_rc, hashlib.sha256(out.encode()).hexdigest(), got_err)
        assert got == (rc, out_sha, err), argv
    files = hashlib.sha256()
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        files.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    assert files.hexdigest() == _PINNED_FILES


@pytest.mark.parametrize("pattern, edges", [("dk3", 6), ("p3", 2)])
def test_verify_family_refuses_a_family_of_another_pattern(capsys, tmp_path, monkeypatch,
                                                           pattern, edges):
    # a c3 family read against dk3 used to end in a coverage miss, and
    # against p3 in a sparsity violation (exit 3 both)
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--export", str(fam_file),
    ])
    assert rc == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(digraphlab.cli, "build_hypergraph", no_work)
    monkeypatch.setattr(digraphlab.cli, "verify_family", no_work)
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", pattern, "--N", "4", "--family", str(fam_file),
    ])
    assert rc == 2 and out == ""
    assert err == (f"digraphlab: refused: the family's r=3 differs from the pattern's "
                   f"edge count {edges}\n")


def test_verify_family_refuses_a_family_on_another_n(capsys, tmp_path, monkeypatch):
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--export", str(fam_file),
    ])
    assert rc == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(digraphlab.cli, "build_hypergraph", no_work)
    monkeypatch.setattr(digraphlab.cli, "verify_family", no_work)
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "5", "--family", str(fam_file),
    ])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: family and hypergraph live on different [N]\n"


def test_verify_family_tau_must_match_the_export(capsys, tmp_path, monkeypatch):
    # the family was built at its header's tau; a different --tau would be
    # recorded in the manifest but never used
    fam_file = tmp_path / "fam.txt"
    rc, _, _ = run_doc(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--tau", "0.5",
        "--export", str(fam_file),
    ])
    assert rc == 0
    for tau in ("0.5", "1/2"):
        rc, doc, _ = run_doc(capsys, [
            "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--tau", tau,
            "--family", str(fam_file),
        ])
        assert rc == 0 and doc["results"]["coverage_ok"] is True

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(digraphlab.cli, "build_hypergraph", no_work)
    monkeypatch.setattr(digraphlab.cli, "verify_family", no_work)
    rc, out, err = run(capsys, [
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10", "--tau", "0.9",
        "--family", str(fam_file),
    ])
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: --tau 0.9 differs from the family's tau 0.5\n"


@pytest.mark.parametrize("n_range, why", [
    ("9..6", "--N-range '9..6' is empty"),
    (",", "--N-range ',' is empty"),
    ("6..1000000000", "N=1000000000: 999999997000000002000000000 injections exceed the "
                      "build budget 5000000"),
    ("1000,6", "N=1000: 997002000 injections exceed the build budget 5000000"),
    ("2..6", "N=2 below pattern vertex count h=3"),
])
def test_verify_lemma_refuses_an_n_range_it_cannot_build(capsys, monkeypatch, n_range, why):
    def no_work(*args, **kwargs):
        raise AssertionError("a hypergraph was built before the refusal")
    monkeypatch.setattr(digraphlab.pairhypergraph, "build_hypergraph", no_work)
    t0 = time.monotonic()
    rc, out, err = run(capsys, ["verify-lemma", "--pattern", "c3", "--N-range", n_range])
    assert time.monotonic() - t0 < 1.0  # the range is never materialised
    assert rc == 2 and out == ""
    assert err == f"digraphlab: refused: {why}\n"


@pytest.mark.parametrize("argv", [
    ["codegree", "--pattern", "c3", "--N", "0"],
    ["containers", "--pattern", "c3", "--N", "0", "--eps", "1/10"],
    ["verify-family", "--pattern", "c3", "--N", "0", "--eps", "1/10"],
])
def test_auto_tau_refuses_n_below_h(capsys, argv):
    # --tau auto is N^(-1/m); at N=0 it used to end in a ZeroDivisionError
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err == "digraphlab: refused: N=0 below pattern vertex count h=3\n"


@pytest.mark.parametrize("argv", [
    ["density", "--pattern", "c3"],
    ["condition-a", "--pattern", "dk3"],
    ["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10"],
    ["verify-lemma", "--pattern", "t3", "--N-range", "4..5"],
    ["pipeline", "--pattern", "c3", "--a", "2", "--N", "4", "--eps", "1/10"],
])
def test_one_subset_walk_per_run(capsys, monkeypatch, argv):
    # m, the sparsity verdict and --tau auto all read the pattern's one walk
    walk = digraphlab.digraphs.subset_maxima
    walks = []
    monkeypatch.setattr(digraphlab.digraphs, "subset_maxima",
                        lambda edges: walks.append(edges) or walk(edges))
    rc, _, _ = run(capsys, argv)
    assert rc == 0 and len(walks) == 1


@pytest.mark.parametrize("argv", [
    ["density"],
    ["condition-a", "--a", "8"],
    ["containers", "--N", "6", "--eps", "1/10", "--tau", "auto"],
    ["pipeline", "--N", "6", "--eps", "1/10", "--a", "16"],
])
def test_more_than_twenty_pattern_edges_refused(capsys, monkeypatch, tmp_path, argv):
    # the complete digraphs on [6] and [10] have 30 and 90 edges: the subset
    # walk refuses them before any other work of the handler, and before the
    # inputs block counts the automorphisms (10! optimal orders on [10])
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    for module in (digraphlab.cli, digraphlab.containers):
        monkeypatch.setattr(module, "build_hypergraph", no_work)
    monkeypatch.setattr(digraphlab.digraphs, "automorphism_count", no_work)
    for n in (6, 10):
        path = tmp_path / f"k{n}.dg"
        edges = "".join(f"{u} {v}\n" for u in range(n) for v in range(n) if u != v)
        path.write_text(f"n={n}\n{edges}")
        rc, out, err = run(capsys, [argv[0], "--pattern", str(path), *argv[1:]])
        assert rc == 2 and out == ""
        assert err == f"digraphlab: refused: subpattern scan over 2^{n * n - n} subsets refused\n"


@pytest.mark.parametrize("argv, why", [
    ([], "missing subcommand"),
    (["verify-lemma", "--pattern", "c3", "--N-range", "5..x"], "malformed N range '5..x'"),
    (["verify-lemma", "--pattern", "c3", "--N-range", "3,x"], "malformed N list '3,x'"),
])
def test_usage_errors_are_one_line_exit_1(capsys, argv, why):
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err == f"digraphlab: error: {why}\n"


def test_pipeline_past_the_full_scan_takes_the_canonical_extremal(capsys):
    # N=6 is past the full scan's n <= 5 and inside canonical growth's n <= 7
    argv = ["pipeline", "--pattern", "t3", "--N", "6", "--eps", "2/5", "--samples", "200"]
    rc, out, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ae938c7da5f8e720e4768ff9e0a1226ce495e9c0cbf0c84b6ac2e14d33e1f72f"
    res = json.loads(out)["results"]
    assert res["extremal"] == {"value": "18", "mode": "canonical"}
    assert res["extremal_note"] == "exact (canonical search)"
    assert res["coverage"] == {"mode": "sampled", "checked": "200", "ok": True}
