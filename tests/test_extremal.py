"""Extremal search: full scan, canonical mode, counts, supersaturation."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from digraphlab import (
    Digraph,
    PatternDigraph,
    WeightParam,
    automorphism_count,
    count_copies,
    count_free,
    counting_ratio,
    extremal_number,
    free_classes,
    is_pattern_free,
    supersat_scan,
)
from digraphlab import digraphs, extremal
from digraphlab.cli import BUILTIN_PATTERNS, load_pattern
from digraphlab.digraphs import automorphisms
from digraphlab.errors import BudgetError, PreconditionError
from digraphlab.extremal import (
    _attachment_table,
    _blocks,
    _count_one_vertex_more,
    _extension,
    _extremal_canonical,
    _free_codes,
    _greedy_seed,
    _ranks,
    _sizes,
    _tie_groups,
    compile_copies,
    full_scan,
    iter_free_edge_masks,
)

from oracles import (
    all_digraph_edge_sets,
    class_route_count,
    f_counts,
    naive_blocks,
    naive_canonical_key,
    naive_compiled_copies,
    naive_count_copies,
    naive_extremal,
    naive_greedy_seed,
    naive_supersat,
    naive_tie_groups,
)

# frozen by the naive all-digraphs oracle (n <= 4) and by dual full/canonical
# runs (n = 5); see test_matches_naive_oracle below for the live recomputation
EX2 = {
    ("c3", 3): 4, ("c3", 4): 8, ("c3", 5): 12,
    ("t3", 3): 4, ("t3", 4): 8, ("t3", 5): 12,
    ("dk3", 3): 5, ("dk3", 4): 10, ("dk3", 5): 16,
}
FSTAR = {
    ("c3", 2): 4, ("c3", 3): 49, ("c3", 4): 1699, ("c3", 5): 156532,
    ("t3", 3): 39, ("t3", 4): 921, ("t3", 5): 47462,
    ("dk3", 3): 63, ("dk3", 4): 3861, ("dk3", 5): 912060,
}


@pytest.fixture(scope="module")
def patterns(c3, t3, dk3):
    return {"c3": c3, "t3": t3, "dk3": dk3}


def test_matches_naive_oracle(patterns, a2):
    for name, pat in patterns.items():
        for n in (3, 4):
            val, free, _ = naive_extremal(n, pat.graph.edges, pat.h, Fraction(2))
            assert val == EX2[(name, n)]
            assert free == FSTAR[(name, n)]
            res = extremal_number(n, pat, a2, mode="full")
            assert res.value_fraction == val
            assert count_free(n, pat) == free


def test_frozen_values_full_mode(patterns, a2):
    for (name, n), expect in EX2.items():
        res = extremal_number(n, patterns[name], a2, mode="full")
        assert res.value_fraction == expect
    for (name, n), expect in FSTAR.items():
        assert count_free(n, patterns[name]) == expect


def test_small_n_below_pattern(c3, a2):
    res = extremal_number(2, c3, a2, mode="full")
    assert res.value_fraction == 2  # the single 2-cycle; everything is free
    assert len(res.witnesses) == 1
    assert count_free(2, c3) == 4


def test_modes_agree(patterns, a2):
    for name, pat in patterns.items():
        for n in (1, 2, 3, 4, 5):
            rf = extremal_number(n, pat, a2, mode="full")
            rc = extremal_number(n, pat, a2, mode="canonical")
            assert rf.value_str == rc.value_str
            assert set(rf.witness_keys) == set(rc.witness_keys)


def test_modes_agree_other_weights(c3, dk3, alog, a4):
    for pat, w in ((c3, alog), (dk3, a4), (c3, a4)):
        rf = extremal_number(4, pat, w, mode="full")
        rc = extremal_number(4, pat, w, mode="canonical")
        assert rf.value_str == rc.value_str
        assert set(rf.witness_keys) == set(rc.witness_keys)


def test_witnesses_verified(patterns, a2):
    for name, pat in patterns.items():
        res = extremal_number(4, pat, a2, mode="full")
        for w in res.witnesses:
            assert count_copies(w, pat) == 0
            assert a2.ea_fraction(w.f2, w.f1) == res.value_fraction


def test_extremal_monotone_in_n_and_a(c3):
    vals = [extremal_number(n, c3, WeightParam.from_rational(2), mode="full").value_fraction
            for n in (1, 2, 3, 4)]
    assert vals == sorted(vals)
    for n in (3, 4):
        v2 = extremal_number(n, c3, WeightParam.from_rational(2), mode="full").value_fraction
        v4 = extremal_number(n, c3, WeightParam.from_rational(4), mode="full").value_fraction
        assert v4 >= v2


def test_budget_errors(c3, a2):
    with pytest.raises(BudgetError):
        extremal_number(6, c3, a2, mode="full")
    with pytest.raises(BudgetError):
        extremal_number(8, c3, a2, mode="canonical")
    with pytest.raises(BudgetError):
        count_free(7, c3)


def test_walker_refuses_n_past_full_mode(c3):
    # the walker holds every high state at once (4^10 of them on [6]), so it
    # refuses n = 6 on the call, before it builds any table
    with pytest.raises(BudgetError, match="capped at n=5"):
        iter_free_edge_masks(6, c3, lambda u, v: 0)
    with pytest.raises(BudgetError, match="capped at n=5"):
        _blocks(6, c3, 0)


def test_count_free_orbit_route_matches_scan(c3, t3):
    # classes * n!/|Aut| must reproduce the labelled scan count
    for pat in (c3, t3):
        for n in (3, 4):
            reps = free_classes(n, pat)
            fact = math.factorial(n)
            total = sum(fact // automorphism_count(g) for g in reps.values())
            assert total == count_free(n, pat)


def test_count_free_n6_extension_route():
    # the class route, the n=6 oracle, sums exact extension counts over
    # classes; check it against the direct scan at levels 3 and 4
    for name in BUILTIN_PATTERNS:
        pat = load_pattern(name)[0]
        for k in (3, 4):
            assert class_route_count(k, pat) == count_free(k + 1, pat), (name, k)


# a triangle with 1, 2 and 4 isolated vertices (h = k+1 and h > k+1 leave the
# new vertex to supply room) and a directed 5-cycle
MORE_COUNTED = {name: PatternDigraph.from_text(text) for name, text in (
    ("c3+1", "n=4; 0 1; 1 2; 2 0"),
    ("c3+2", "n=5; 0 1; 1 2; 2 0"),
    ("c3+4", "n=7; 0 1; 1 2; 2 0"),
    ("c5", "n=5; 0 1; 1 2; 2 3; 3 4; 4 0"),
)}


def counted_pattern(name: str) -> PatternDigraph:
    return MORE_COUNTED[name] if name in MORE_COUNTED else load_pattern(name)[0]


@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(MORE_COUNTED))
def test_labelled_one_vertex_count_matches_the_scan(name):
    # the reference counts the block walker's free masks, found from
    # compile_copies and not from _split_copies; k = 0 is f*(1) = 1
    pat = counted_pattern(name)
    for k in (0, 1, 2, 3, 4):
        free = sum(1 for _ in iter_free_edge_masks(k + 1, pat, lambda u, v: (k + 1) * u + v))
        assert _count_one_vertex_more(k, pat) == free, k


@pytest.mark.parametrize("name", BUILTIN_PATTERNS + ("c3+1", "c3+2", "c5"))
def test_count_free_n6_matches_the_class_route(name):
    pat = counted_pattern(name)
    assert count_free(6, pat) == class_route_count(5, pat)


def test_count_free_n6_pinned(c3, dk3):
    # c3 and dk3 made anew by labelled one-vertex extensions of a numpy
    # brute-force table of the free digraphs on [5], sharing no code with
    # count_free; the others agree with the class route
    assert count_free(6, c3) == 36_686_047
    assert count_free(6, dk3) == 823_931_109
    assert count_free(6, load_pattern("t3")[0]) == 5_205_915
    assert count_free(6, load_pattern("p4")[0]) == 606_054
    assert count_free(6, load_pattern("p3")[0]) == 13_098
    # a digraph holds no 2-cycle iff each of the 15 pairs takes one of its
    # 3 other states; a copy of c3+4 needs 7 vertices
    assert count_free(6, load_pattern("twocycle")[0]) == 3 ** 15
    assert count_free(6, MORE_COUNTED["c3+4"]) == 4 ** 15


def test_counting_ratio(patterns):
    rep = counting_ratio(3, patterns["dk3"])
    assert rep.count == 63 and rep.ex2 == 5
    assert abs(rep.log2_count - math.log2(63)) < 1e-12
    assert abs(rep.ratio - math.log2(63) / 5) < 1e-12
    for name in ("c3", "t3"):
        rep = counting_ratio(4, patterns[name])
        assert rep.count >= 2 ** rep.ex2
        assert rep.ratio >= 1


def test_ratio_trivial_case(c3):
    rep = counting_ratio(2, c3)
    assert rep.count == 4 and rep.ex2 == 2 and rep.ratio == 1.0


def test_supersat_examples(dk3, a2):
    pts = supersat_scan(3, dk3, a2, 1)
    assert [(p.k, str(p.value_fraction)) for p in pts] == [(0, "5"), (1, "6")]


def test_supersat_against_naive(c3, dk3):
    for pat in (c3, dk3):
        for n in (3, 4):
            expect = naive_supersat(n, pat.graph.edges, pat.h, Fraction(2), 3)
            pts = supersat_scan(n, pat, WeightParam.from_rational(2), 3)
            assert [p.value_fraction for p in pts] == expect


def test_supersat_nondecreasing_and_anchored(c3, dk3, a2):
    for pat in (c3, dk3):
        for n in (3, 4, 5):
            pts = supersat_scan(n, pat, a2, 2)
            vals = [p.value_fraction for p in pts]
            assert vals == sorted(vals)
            ex = extremal_number(n, pat, a2, mode="full").value_fraction
            assert vals[0] == ex


def test_supersat_k0_is_definition(c3, a2):
    pts = supersat_scan(4, c3, a2, 0)
    assert len(pts) == 1
    assert pts[0].value_fraction == extremal_number(4, c3, a2, mode="full").value_fraction


def test_full_scan_refuses_bad_budgets(c3, a2):
    with pytest.raises(PreconditionError):
        full_scan(3, c3, a2, k_max=-1)


def test_irrational_weight_search(c3):
    w = WeightParam.parse("log2(3)")
    res = extremal_number(3, c3, w, mode="full")
    # the attaining pair is unique under an irrational weight
    f2, f1 = res.best_pair
    assert math.isclose(res.value_float, math.log2(3) * f2 + f1)
    for wit in res.witnesses:
        assert (wit.f2, wit.f1) == (f2, f1)


def test_iter_free_masks_count(c3):
    masks = list(iter_free_edge_masks(3, c3, lambda u, v: u * 2 + (v if v < u else v - 1)))
    assert len(masks) == FSTAR[("c3", 3)]
    assert len(set(masks)) == len(masks)


def test_iter_free_masks_index_order(patterns):
    # with edge bits 2q (forward) and 2q+1 (backward) on pair slot q, a
    # digraph's mask is its state index, so the order is visible
    for name, pat in patterns.items():
        for n in (4, 5):
            slot = {pq: q for q, pq in enumerate(combinations(range(n), 2))}

            def edge_bit(u, v):
                return 2 * slot[(u, v)] if u < v else 2 * slot[(v, u)] + 1

            count, prev = 0, -1
            for mask in iter_free_edge_masks(n, pat, edge_bit):
                assert mask > prev
                count, prev = count + 1, mask
            assert count == FSTAR[(name, n)]
            if n == 4:
                masks = list(iter_free_edge_masks(n, pat, edge_bit))
                assert masks == [idx for idx, _, c, _ in oracle_states(name, n) if c == 0]


@lru_cache(maxsize=None)
def oracle_states(name: str, n: int):
    """(state index, digits, copies, (f2, f1)) of every digraph on [n], in
    index order, by the brute-force oracles: slot q of a state is the pair
    combinations(range(n), 2)[q], holding forward + 2 * backward."""
    pat = any_pattern(name)
    slots = list(combinations(range(n), 2))
    rows = []
    for edges in all_digraph_edge_sets(n):
        digits = tuple(((i, j) in edges) + 2 * ((j, i) in edges) for i, j in slots)
        idx = sum(t << 2 * q for q, t in enumerate(digits))
        copies = naive_count_copies(edges, n, pat.graph.edges, pat.h)
        rows.append((idx, digits, copies, f_counts(edges)))
    return sorted(rows)


# exact ordering keys of a*f2 + f1, independent of WeightParam: the rational
# value itself, and 2^(a*f2 + f1) = 3^f2 * 2^f1 for a = log2(3).  At a = 1
# every pair of equal f2 + f1 ties, the most ties of any weight
WEIGHT_KEYS = {
    "1": lambda f2, f1: f2 + f1,
    "2": lambda f2, f1: 2 * f2 + f1,
    "7/2": lambda f2, f1: Fraction(7, 2) * f2 + f1,
    "log2(3)": lambda f2, f1: 3 ** f2 * 2 ** f1,
}


@pytest.mark.parametrize("k_max", [0, 3])
@pytest.mark.parametrize("a", sorted(WEIGHT_KEYS))
@pytest.mark.parametrize("name", BUILTIN_PATTERNS)
def test_full_scan_against_oracles(name, a, k_max, monkeypatch):
    pat = load_pattern(name)[0]
    weight = WeightParam.parse(a)
    key = WEIGHT_KEYS[a]
    for n in (1, 2, 3, 4):
        rows = oracle_states(name, n)
        expect_best = []
        for c in range(k_max + 1):
            top = max((key(*pair) for _, _, cc, pair in rows if cc == c), default=None)
            first = next((pair for _, _, cc, pair in rows if cc == c and key(*pair) == top), None)
            expect_best.append(first)
        attaining = [idx for idx, _, cc, pair in rows if cc == 0 and key(*pair) == key(*expect_best[0])]
        for cap in (1, 7):
            monkeypatch.setattr(extremal, "_RAW_WITNESSES", cap)
            scan = full_scan(n, pat, weight, k_max=k_max, collect_witnesses=True)
            assert scan.states == len(rows) == 4 ** (n * (n - 1) // 2)
            assert scan.best_pairs == expect_best
            assert scan.witness_states == attaining[:cap]
            assert scan.witness_overflow == (len(attaining) > cap)
        if weight.rational is not None:
            value, free, count = naive_extremal(n, pat.graph.edges, pat.h, weight.rational)
            assert (free, count) == (count_free(n, pat), len(attaining))
            assert weight.ea_fraction(*scan.best_pairs[0]) == value
            points = supersat_scan(n, pat, weight, k_max)
            expect = naive_supersat(n, pat.graph.edges, pat.h, weight.rational, k_max)
            assert [p.value_fraction for p in points] == expect


# patterns with isolated vertices: the new vertex can supply the missing room
ISOLATED = {"c3iso": "n=4\n0 1\n1 2\n2 0\n", "p3iso": "n=5\n0 1\n1 2\n"}


def any_pattern(name: str) -> PatternDigraph:
    return PatternDigraph.from_text(ISOLATED[name]) if name in ISOLATED else load_pattern(name)[0]


@pytest.mark.parametrize("a", sorted(WEIGHT_KEYS))
@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(ISOLATED))
def test_full_mode_witnesses_against_oracles(name, a, monkeypatch):
    # each class keeps its first attaining state in index order, whichever
    # raw witnesses the scan keeps and however many classes the cap keeps
    pat = any_pattern(name)
    weight = WeightParam.parse(a)
    key = WEIGHT_KEYS[a]
    for n in (1, 2, 3, 4):
        slots = list(combinations(range(n), 2))
        free = [(digits, pair) for _, digits, c, pair in oracle_states(name, n) if c == 0]
        top = max(key(*pair) for _, pair in free)
        attaining = [
            frozenset([(i, j) for (i, j), d in zip(slots, digits) if d & 1]
                      + [(j, i) for (i, j), d in zip(slots, digits) if d & 2])
            for digits, pair in free if key(*pair) == top
        ]
        for raw, cap in ((extremal._RAW_WITNESSES, 256), (1, 256), (7, 256), (7, 2)):
            monkeypatch.setattr(extremal, "_RAW_WITNESSES", raw)
            classes = {}
            for edges in attaining[:raw]:
                classes.setdefault(naive_canonical_key(n, edges), edges)
            keys = sorted(classes)[:cap]
            res = extremal_number(n, pat, weight, mode="full", witness_cap=cap)
            assert res.witness_keys == tuple(keys), (n, raw, cap)
            assert [w.edges for w in res.witnesses] == [classes[k] for k in keys], (n, raw, cap)
            assert res.witness_overflow == (len(attaining) > raw or len(classes) > cap)


@pytest.mark.parametrize("name", BUILTIN_PATTERNS)
def test_full_mode_keys_each_witness_class_once(name, a2, monkeypatch):
    # a witness in the orbit of an earlier one is never keyed; twocycle has
    # 1,024 attaining states on [5] in 12 classes
    pat = load_pattern(name)[0]
    calls = Counter()
    key = extremal.canonical_form
    monkeypatch.setattr(extremal, "canonical_form", lambda g: calls.update([g.edges]) or key(g))
    res = extremal_number(5, pat, a2, mode="full")
    assert sum(calls.values()) == len(calls) == len(res.witness_keys)
    if name == "twocycle":
        assert len(res.witness_keys) == 12
        assert len(full_scan(5, pat, a2, collect_witnesses=True).witness_states) == 1024


@pytest.mark.parametrize("low", [1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(ISOLATED))
def test_block_subset_sums_against_brute_force(name, low, monkeypatch):
    # with L low slots, the 6 slots of [4] leave 6 - L high slots, so the
    # subset sums run over 10, 8 and 6 high bits (up to 1024 high states)
    monkeypatch.setattr(extremal, "_LOW_SLOTS", low)
    pat = any_pattern(name)
    rows = oracle_states(name, 4)
    copies = max(c for _, _, c, _ in rows)
    assert copies == len(compile_copies(4, pat))
    for c_max in (0, 1, 2, 3, 7, copies + 1):
        c_top = min(c_max, copies)
        expect = [[0] * (c_top + 1) for _ in range(4 ** (6 - low))]
        for idx, _, c, _ in rows:
            if c <= c_top:
                expect[idx >> 2 * low][c] |= 1 << (idx & ((1 << 2 * low) - 1))
        got = [(hi, list(exact)) for hi, exact in _blocks(4, pat, c_max)]
        assert got == list(enumerate(expect)), c_max


@pytest.mark.parametrize("name", BUILTIN_PATTERNS)
def test_blocks_match_the_per_copy_walker(name):
    pat = load_pattern(name)[0]
    for c_max in (0, 3):
        got = [(hi, list(exact)) for hi, exact in _blocks(5, pat, c_max)]
        assert got == naive_blocks(5, pat, c_max), c_max


@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(ISOLATED))
def test_compile_copies_against_brute_force(name):
    # every r-edge subset of the complete digraph that holds a copy; below h
    # (an isolated vertex included) there is none
    pat = any_pattern(name)
    for n in range(1, 5 if name == "dk3" else 6):
        assert compile_copies(n, pat) == naive_compiled_copies(n, pat.graph.edges, pat.h), n


@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(ISOLATED))
def test_free_extensions_against_brute_force(name):
    # every attachment code of a new vertex, kept iff the embedding search
    # finds no copy in the extension
    pat = any_pattern(name)
    for k in (1, 2, 3, 4):
        table = _attachment_table(k, pat)
        for g in free_classes(k, pat).values():
            expect = set()
            for code in range(4 ** k):
                edges = set(g.edges)
                edges |= {(u, k) for u in range(k) if code >> 2 * u & 1}
                edges |= {(k, u) for u in range(k) if code >> 2 * u + 1 & 1}
                ext = Digraph(k + 1, frozenset(edges))
                if is_pattern_free(ext, pat):
                    expect.add(ext.edges)
            codes = _free_codes(g, table)
            got = [_extension(g, code).edges for code in range(4 ** k) if codes >> code & 1]
            assert len(got) == len(set(got)) and set(got) == expect
            assert codes.bit_count() == len(expect)


@pytest.mark.parametrize("a", sorted(WEIGHT_KEYS))
@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_modes_agree_isolated_vertices(name, a):
    # the greedy seed dead-ends on a core copy one vertex short of h
    pat = any_pattern(name)
    weight = WeightParam.parse(a)
    for n in (4, 5):
        rf = extremal_number(n, pat, weight, mode="full")
        rc = extremal_number(n, pat, weight, mode="canonical")
        assert rf.value_str == rc.value_str
        assert rf.witness_keys == rc.witness_keys


@pytest.mark.parametrize("a", ["1", "2", "4", "7/2", "log2(3)", "log2(5)"])
def test_tie_groups_match_the_flag_strings(a):
    weight = WeightParam.parse(a)
    for k in range(7):
        sizes = _sizes(k)
        groups = _tie_groups(weight, *sizes)
        assert groups == naive_tie_groups(weight, *sizes), k
        assert sum(bits for _, bits in groups) == (1 << 4 ** k) - 1
    # at k = 6, a = 2 ties the pairs of equal 2*f2 + f1, and log2(3) ties
    # none of the 28 pairs
    if a in ("2", "log2(3)"):
        assert len(groups) == (13 if a == "2" else 28)


@pytest.mark.parametrize("a", ["1", "2", "7/2", "log2(3)", "log2(5)"])
def test_ranks_order_the_pairs_as_cmp_pairs(a):
    # the full scan's int compares stand in for cmp_pairs: equal ranks are
    # exact ties, and a heavier pair ranks higher
    weight = WeightParam.parse(a)
    for p in range(11):
        rank = _ranks(weight, p)
        pairs = [(f2, f1) for f2 in range(p + 1) for f1 in range(p + 1 - f2)]
        assert sorted(rank) == pairs
        for x in pairs:
            for y in pairs:
                assert (rank[x] > rank[y]) - (rank[x] < rank[y]) == weight.cmp_pairs(x, y), (p, x, y)


@pytest.mark.parametrize("a", ["2", "log2(3)", "7/2"])
@pytest.mark.parametrize("name", BUILTIN_PATTERNS + tuple(ISOLATED))
def test_greedy_seed_matches_the_heaviest_extension_walk(name, a):
    # the seed reads the lowest free code of the heaviest tie group; the
    # oracle builds every orbit-minimal extension and keeps the first heaviest
    pat = any_pattern(name)
    weight = WeightParam.parse(a)
    tables = [_attachment_table(k, pat) for k in range(1, 7)]
    groups = [_tie_groups(weight, *_sizes(k)) for k in range(1, 7)]
    seeds = [_greedy_seed(tables[:n - 1], groups[:n - 1]) for n in range(1, 8)]
    assert [(g.n, g.edges) for g in seeds] == \
        [(g.n, g.edges) for g in (naive_greedy_seed(n, pat, weight) for n in range(1, 8))]
    if name in ISOLATED:  # a core copy one vertex short of h forbids every code
        assert [g.edges for g in seeds[pat.h - 1:]] == [frozenset()] * (8 - pat.h)


@pytest.mark.parametrize("name", BUILTIN_PATTERNS)
def test_growth_carries_each_class_group(name, monkeypatch):
    # the group each class carries into the next level is the one the
    # search that keyed it found, and it is the whole of Aut
    levels = []
    classes = extremal._classes
    monkeypatch.setattr(extremal, "_classes", lambda exts: levels.append(classes(exts)) or levels[-1])
    reps = free_classes(5, load_pattern(name)[0])
    assert len(levels) == 5
    assert [(key, g.edges) for key, (g, _) in levels[-1].items()] == \
        [(key, g.edges) for key, g in reps.items()]
    for level in levels:
        for g, auts in level.values():
            assert auts == automorphisms(g), g.edge_list


def test_growth_refines_each_extension_once(c3, monkeypatch):
    # keying an extension gives its group too: no kept representative is
    # refined a second time for its automorphisms
    calls = Counter()
    refine, extension = digraphs._colour_refine, extremal._extension
    monkeypatch.setattr(digraphs, "_colour_refine", lambda g: calls.update(["refine"]) or refine(g))
    monkeypatch.setattr(extremal, "_extension",
                        lambda g, code: calls.update(["extension"]) or extension(g, code))
    free_classes(5, c3)
    assert calls["refine"] == calls["extension"] > 0


def _unpruned(monkeypatch, run):
    """run() with every attachment code extended, not one per Aut-orbit."""
    with monkeypatch.context() as m:
        m.setattr(extremal, "_orbit_minimal", lambda auts, codes: codes)
        return run()


@pytest.mark.parametrize("name", ["c3", "t3", "dk3", "p4", "c3iso"])
def test_orbit_pruning_keeps_every_class_and_representative(name, monkeypatch):
    pat = any_pattern(name)
    for n in range(1, 6):
        got = free_classes(n, pat)
        expect = _unpruned(monkeypatch, lambda: free_classes(n, pat))
        assert list(got) == list(expect)  # the same keys in the same order
        assert [g.edges for g in got.values()] == [g.edges for g in expect.values()]


@pytest.mark.parametrize("a", ["2", "log2(3)", "7/2"])
@pytest.mark.parametrize("name", ["c3", "t3"])
def test_orbit_pruning_keeps_the_canonical_winners(name, a, monkeypatch):
    pat = any_pattern(name)
    weight = WeightParam.parse(a)
    for n in range(1, 7):
        best, winners = _extremal_canonical(n, pat, weight)
        best_ref, winners_ref = _unpruned(monkeypatch, lambda: _extremal_canonical(n, pat, weight))
        assert best == best_ref
        assert list(winners) == list(winners_ref)
        assert [g.edges for g in winners.values()] == [g.edges for g in winners_ref.values()]
