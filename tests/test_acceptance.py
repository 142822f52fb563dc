"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.  The heavy cases
(the n=5 full scans, the N=7 sampled coverage) sit at the end.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from digraphlab import (
    ContainerFamily,
    Digraph,
    PatternDigraph,
    WeightParam,
    build_containers,
    build_hypergraph,
    canonical_form,
    codegree_profile,
    condition_a,
    count_free,
    counting_ratio,
    degree_lemma_constant,
    extremal_number,
    m_density,
    supersat_scan,
    verify_degree_lemma,
    verify_family,
)
from digraphlab.cli import main
from digraphlab.extremal import iter_free_edge_masks

from oracles import all_digraph_edge_sets, naive_codegree_sums, naive_m

A2 = WeightParam.from_rational(2)
A4 = WeightParam.from_rational(4)

# frozen desk-scale values, derived from the naive all-digraphs oracle
# (n <= 4) and pinned from dual full/canonical runs (n = 5)
EX2 = {
    ("c3", 3): 4, ("c3", 4): 8, ("c3", 5): 12,
    ("t3", 3): 4, ("t3", 4): 8, ("t3", 5): 12,
    ("dk3", 3): 5, ("dk3", 4): 10, ("dk3", 5): 16,
}
FSTAR = {
    ("c3", 3): 49, ("c3", 4): 1699, ("c3", 5): 156532,
    ("t3", 3): 39, ("t3", 4): 921, ("t3", 5): 47462,
    ("dk3", 3): 63, ("dk3", 4): 3861, ("dk3", 5): 912060,
}


def report(k: int, text: str) -> None:
    print(f"\nACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_condition_a_verdicts(c3, t3, dk3):
    t0 = time.monotonic()
    res = condition_a(dk3, A2)
    assert res.ok is False
    assert res.max_density == Fraction(6, 3)
    assert res.witness_text == "6/3 > 2/2"
    assert condition_a(c3, A2).ok is True
    assert condition_a(t3, A2).ok is True
    assert condition_a(dk3, A4).ok is True
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"sparsity verdicts exact (dk3 fails at a=2 with 6/3, passes at a=4) in {elapsed:.3f}s")


def test_criterion_02_m_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for h in (2, 3, 4):
        # one spanning digraph on [h] per isomorphism class
        classes = {}
        for edges in all_digraph_edge_sets(h):
            if len({x for edge in edges for x in edge}) == h:
                g = Digraph(h, edges)
                classes.setdefault(canonical_form(g), g)
        for g in classes.values():
            e = len(g.edges)
            if not 2 <= e <= 8:
                continue
            pat = PatternDigraph(g)
            expect_val, expect_flag = naive_m(g.edges)
            got = m_density(pat)
            assert got.value == expect_val
            assert got.has_two_cycle_subgraph == expect_flag
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    assert checked > 100  # the 4-vertex zoo alone is in the hundreds
    report(2, f"m equals the naive subset scan on {checked} patterns (h<=4, 2<=e<=8) in {elapsed:.1f}s")


def test_criterion_03_extremal_mode_equivalence(c3, t3, dk3):
    lines = []
    for name, pat in (("c3", c3), ("t3", t3), ("dk3", dk3)):
        for n in (3, 4, 5):
            t0 = time.monotonic()
            rf = extremal_number(n, pat, A2, mode="full")
            t_full = time.monotonic() - t0
            rc = extremal_number(n, pat, A2, mode="canonical")
            assert rf.value_fraction == EX2[(name, n)]
            assert rc.value_fraction == EX2[(name, n)]
            assert set(rf.witness_keys) == set(rc.witness_keys)
            assert not rf.witness_overflow and not rc.witness_overflow
            if n == 5:
                assert t_full < 60.0
            lines.append(f"{name}/n={n}:{rf.value_str}({len(rf.witnesses)}cl,{t_full:.1f}s)")
    report(3, "full == canonical on value and witness key sets: " + " ".join(lines))


def test_criterion_04_counting_corollary(c3, t3, dk3):
    lines = []
    for name, pat in (("c3", c3), ("t3", t3), ("dk3", dk3)):
        for n in (3, 4, 5):
            rep = counting_ratio(n, pat)
            assert rep.count == FSTAR[(name, n)]
            assert rep.ex2 == EX2[(name, n)]
            assert rep.count >= 2 ** rep.ex2  # exact big-integer bound
            lines.append(f"{name}/n={n}: log2f*/ex2={rep.ratio:.4f}")
    report(4, "f* >= 2^ex2 exactly; ratios: " + " ".join(lines))


def test_criterion_05_supersaturation(c3, dk3):
    for name, pat in (("c3", c3), ("dk3", dk3)):
        for n in (3, 4, 5):
            pts = supersat_scan(n, pat, A2, 3)
            vals = [p.value_fraction for p in pts]
            assert vals == sorted(vals)  # nondecreasing in k
            assert vals[0] == EX2[(name, n)]  # k=0 anchors at the extremal number
    report(5, "supersaturation scans nondecreasing with k=0 = ex_a for c3 and dk3, n in 3..5")


def test_criterion_06_degree_lemma(c3, t3):
    t0 = time.monotonic()
    logged = []
    for name, pat in (("c3", c3), ("t3", t3)):
        assert degree_lemma_constant(pat) == 55296
        for gamma in (Fraction(1), Fraction(1, 2)):
            rep = verify_degree_lemma(pat, range(6, 15), gamma)
            assert rep.all_ok
            for row in rep.rows:
                assert row.delta <= float(55296 * gamma)
                logged.append(f"{name} g={gamma} N={row.N}: delta={row.delta:.4f}")
        for N in (6, 7, 8):
            hg = build_hypergraph(N, pat)
            prof = codegree_profile(hg, 0.5)
            assert prof.codegree_sums == naive_codegree_sums(
                hg.universe.size, list(hg.edges), hg.r
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print("\n".join("  " + ln for ln in logged))
    report(6, f"delta <= 55296*gamma on all 36 rows; naive co-degree oracle agrees for N<=8 ({elapsed:.1f}s)")


def test_criterion_07_container_coverage_exhaustive(c3):
    for N in (4, 5):
        t0 = time.monotonic()
        hg = build_hypergraph(N, c3)
        fam = build_containers(hg, N ** -0.5, Fraction(1, 10))
        rep = verify_family(hg, fam, c3, mode="exhaustive")
        elapsed = time.monotonic() - t0
        assert rep.coverage_ok and rep.miss_witness is None
        assert rep.checked == FSTAR[("c3", N)]       # cross-check against criterion 4
        assert rep.checked == count_free(N, c3)
        assert rep.sparsity_ok
        limit = Fraction(1, 10) * hg.edge_count
        assert rep.max_span <= limit
        if N == 5:
            assert elapsed < 900.0
        report(7, f"N={N}: all {rep.checked} triangle-free digraphs covered by "
                  f"{len(fam.containers)} containers, max span {rep.max_span} <= {limit} ({elapsed:.1f}s)")


def test_criterion_08_container_coverage_sampled(c3):
    # eps per N keeps the decision tree at desk scale; tau = N^(-1/m) = N^(-1/2)
    for N, eps in ((6, Fraction(1, 10)), (7, Fraction(1, 4))):
        t0 = time.monotonic()
        hg = build_hypergraph(N, c3)
        fam = build_containers(hg, N ** -0.5, eps, max_nodes=20_000_000)
        rep = verify_family(hg, fam, c3, mode="sampled", samples=10_000, seed=2024)
        elapsed = time.monotonic() - t0
        assert rep.checked >= 10_000
        assert rep.coverage_ok and rep.miss_witness is None
        assert rep.sparsity_ok
        report(8, f"N={N} eps={eps}: {rep.checked} uniform pattern-free samples "
                  f"({rep.attempts} draws) all covered, zero misses ({elapsed:.1f}s)")


def _run_cli(capsys, argv) -> tuple[int, str]:
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_criterion_09_determinism(capsys, tmp_path):
    manifests = [
        ["condition-a", "--pattern", "dk3", "--a", "2"],
        ["density", "--pattern", "c3", "--a", "2"],
        ["ex", "--pattern", "t3", "--n", "4", "--a", "2", "--mode", "full"],
        ["ex", "--pattern", "c3", "--n", "4", "--a", "2", "--mode", "canonical"],
        ["count-free", "--pattern", "dk3", "--n", "4"],
        ["ratio", "--pattern", "c3", "--n", "4"],
        ["supersat", "--pattern", "dk3", "--n", "4", "--a", "2", "--k-max", "2"],
        ["hypergraph", "--pattern", "c3", "--N", "5"],
        ["codegree", "--pattern", "t3", "--N", "7", "--tau", "0.5"],
        ["verify-lemma", "--pattern", "c3", "--gamma", "1/2", "--N-range", "6..9"],
        ["containers", "--pattern", "c3", "--N", "4", "--eps", "1/10"],
        ["verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10",
         "--mode", "exhaustive"],
        ["verify-family", "--pattern", "c3", "--N", "6", "--eps", "1/10",
         "--mode", "sampled", "--samples", "2000", "--seed", "11"],
        ["pipeline", "--pattern", "c3", "--a", "2", "--N", "4", "--eps", "1/10"],
    ]
    for argv in manifests:
        rc1, out1 = _run_cli(capsys, argv)
        rc2, out2 = _run_cli(capsys, argv)
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, f"non-identical rerun for {argv}"
    report(9, f"{len(manifests)} manifests re-ran byte-identically")


def test_criterion_10_fault_injection(capsys, tmp_path):
    fam_file = tmp_path / "family.txt"
    rc, _ = _run_cli(capsys, [
        "containers", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--export", str(fam_file),
    ])
    assert rc == 0
    lines = fam_file.read_text().splitlines()
    mask = int(lines[1], 16)
    w = len(lines[1])
    lines[1] = f"{mask & ~(mask & -mask):0{w}x}"  # drop one universe element
    fam_file.write_text("\n".join(lines) + "\n")
    rc = main([
        "verify-family", "--pattern", "c3", "--N", "4", "--eps", "1/10",
        "--mode", "exhaustive", "--family", str(fam_file),
    ])
    captured = capsys.readouterr()
    assert rc == 3
    doc = json.loads(captured.out)
    assert doc["results"]["coverage_ok"] is False
    assert doc["results"]["miss_witness"].startswith("n=4")
    assert "witness" in captured.err
    report(10, "truncated container detected: exit code 3 with a named witness digraph")
