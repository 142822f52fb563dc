"""Density parameters: the exponent m, the sparsity condition, the constant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from digraphlab import (
    Digraph,
    PatternDigraph,
    WeightParam,
    condition_a,
    degree_lemma_constant,
    m_density,
)
from digraphlab.density import require_usable_m
from digraphlab.digraphs import subset_maxima
from digraphlab.errors import BudgetError, PreconditionError

from oracles import (
    naive_condition,
    naive_m,
    naive_max_density,
    naive_subsets,
    naive_witnesses,
    relabel,
)


def test_m_examples(c3, t3):
    assert m_density(c3).value == 2
    assert m_density(t3).value == 2
    two_edges = PatternDigraph(Digraph(4, frozenset({(0, 1), (2, 3)})))
    assert m_density(two_edges).value == Fraction(1, 2)


def test_m_flags(dk3, twocycle):
    res = m_density(dk3)
    assert res.value == 5 and res.has_two_cycle_subgraph and not res.usable
    res = m_density(twocycle)
    assert res.value is None and res.has_two_cycle_subgraph and not res.usable


def test_m_witness_attains(c3):
    res = m_density(c3)
    e = len(res.witness)
    v = len({x for edge in res.witness for x in edge})
    assert Fraction(e - 1, v - 2) == res.value


def test_require_usable_m(c3, dk3, twocycle):
    assert require_usable_m(c3) == 2
    for p in (dk3, twocycle):
        with pytest.raises(PreconditionError):
            require_usable_m(p)


def test_condition_a_examples(c3, t3, dk3, a2, a4):
    assert condition_a(c3, a2).ok
    assert condition_a(t3, a2).ok
    res = condition_a(dk3, a2)
    assert not res.ok
    assert res.max_density == 2
    assert res.witness_text == "6/3 > 2/2"
    assert len(res.witness) == 6  # the full pattern is the densest subgraph
    assert condition_a(dk3, a4).ok


def test_condition_a_monotone_in_a(c3, t3, dk3, p3):
    weights = [WeightParam.parse(s) for s in ("1", "3/2", "log2(3)", "2", "3", "4", "6")]
    for pat in (c3, t3, dk3, p3):
        verdicts = [condition_a(pat, w).ok for w in weights]
        # once true, stays true as a grows
        assert verdicts == sorted(verdicts)


def test_condition_a_oriented_equivalence(c3, t3, p3, a2):
    # for 2-cycle-free patterns, the verdict at a=2 is just e(H') <= v(H')
    for pat in (c3, t3, p3):
        expect = all(e <= v for _, e, v in naive_subsets(pat.graph.edges))
        assert condition_a(pat, a2).ok == expect


def test_density_against_naive_oracle_random():
    rng = random.Random(31)
    built = 0
    while built < 60:
        n = rng.randint(2, 4)
        edges = set()
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    edges.add((u, v))
        if len(edges) < 2:
            continue
        built += 1
        pat = PatternDigraph(Digraph(n, frozenset(edges)))
        val, flag = naive_m(pat.graph.edges)
        res = m_density(pat)
        assert res.value == val and res.has_two_cycle_subgraph == flag
        assert condition_a(pat, WeightParam.from_rational(2)).max_density == naive_max_density(pat.graph.edges)
        for a in (Fraction(2), Fraction(3), Fraction(4)):
            assert condition_a(pat, WeightParam.from_rational(a)).ok == naive_condition(pat.graph.edges, a)


def _witness_cases():
    """Random patterns on up to 7 vertices (isolated ones included) with up
    to 10 edges, and patterns made of ties: 2-cycles only, equal cycles,
    paths, disjoint edges."""
    rng = random.Random(53)
    cases = [
        Digraph(2, frozenset({(0, 1), (1, 0)})),
        Digraph(5, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)})),
        Digraph(4, frozenset({(0, 1), (1, 0), (2, 3)})),
        Digraph(7, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})),
        Digraph(6, frozenset({(0, 1), (2, 3), (4, 5)})),
        Digraph(6, frozenset((i, i + 1) for i in range(5))),
        Digraph(4, frozenset((u, v) for u in range(4) for v in range(4) if u != v)),
    ]
    while len(cases) < 300:
        n = rng.randint(2, 7)
        p = rng.choice([0.15, 0.3, 0.5])
        edges = frozenset((u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p)
        if 2 <= len(edges) <= 10:
            cases.append(Digraph(n, edges))
    return cases


def test_walk_gives_the_first_maximisers():
    # the walk's (e, v, mask) and every result read off it, against the
    # least-mask maximisers of the naive subset list
    for g in _witness_cases():
        pat = PatternDigraph(g)
        edges = pat.graph.edge_list
        dense, shifted = naive_witnesses(g.edges)

        def mask(subset):
            return sum(1 << edges.index(x) for x in subset)
        assert subset_maxima(edges) == pat.subset_maxima
        assert pat.subset_maxima[0] == (dense[1], dense[2], mask(dense[0]))
        cond = condition_a(pat, WeightParam.from_rational(2))
        assert (cond.max_density, cond.witness) == (Fraction(dense[1], dense[2]), dense[0])
        res = m_density(pat)
        assert res.has_two_cycle_subgraph == naive_m(g.edges)[1]
        if shifted is None:
            assert pat.subset_maxima[1] is None
            assert res.value is None and res.witness is None
        else:
            assert pat.subset_maxima[1] == (shifted[1], shifted[2], mask(shifted[0]))
            assert (res.value, res.witness) == (Fraction(shifted[1] - 1, shifted[2] - 2), shifted[0])


def test_walk_of_twenty_edges_keeps_no_subset(monkeypatch):
    # the complete digraph on [5]: the full edge set is the first maximiser
    # of both ratios, found without a tuple or a Fraction per subset
    import tracemalloc

    k5 = PatternDigraph(Digraph(5, frozenset((u, v) for u in range(5) for v in range(5) if u != v)))
    made = []
    monkeypatch.setattr("digraphlab.density.Fraction", lambda *a: made.append(a) or Fraction(*a))
    tracemalloc.start()
    try:
        assert k5.subset_maxima == ((20, 5, (1 << 20) - 1), (20, 5, (1 << 20) - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    res = m_density(k5)
    assert (res.value, res.has_two_cycle_subgraph, len(res.witness)) == (Fraction(19, 3), True, 20)
    assert condition_a(k5, WeightParam.from_rational(8)).witness_text == "20/5 <= 8/2"
    assert made == [(19, 3), (20, 5)]


def test_walk_refuses_more_than_twenty_edges_first():
    k6 = PatternDigraph(Digraph(6, frozenset((u, v) for u in range(6) for v in range(6) if u != v)))
    for read in (m_density, require_usable_m, lambda p: condition_a(p, WeightParam.from_rational(2))):
        with pytest.raises(BudgetError, match=r"^subpattern scan over 2\^30 subsets refused$"):
            read(k6)


def test_m_monotone_under_subpattern(dk3):
    # the maximum over a pattern dominates every sub-pattern's maximum
    from itertools import combinations

    edges = sorted(dk3.graph.edges)
    full, _ = naive_m(frozenset(edges))
    for size in range(2, len(edges)):
        for sub in combinations(edges, size):
            sub_val, _ = naive_m(frozenset(sub))
            if sub_val is not None:
                assert sub_val <= full


def test_degree_lemma_constant(c3, t3, twocycle, p3):
    assert degree_lemma_constant(c3) == 55296
    assert degree_lemma_constant(t3) == 55296
    assert degree_lemma_constant(p3) == 1152   # r=2, h=3
    assert degree_lemma_constant(twocycle) == 128  # r=2, h=2


def test_degree_lemma_constant_formula():
    import math

    g = PatternDigraph.from_text("n=4; 0 1; 1 2; 2 3; 3 0")
    r, h = 4, 4
    assert degree_lemma_constant(g) == r * 2 ** (r * r) * math.factorial(h) ** 2


def test_isomorphism_invariance(c3, dk3):
    rng = random.Random(41)
    for pat in (c3, dk3):
        for _ in range(10):
            perm = list(range(pat.h))
            rng.shuffle(perm)
            relab = PatternDigraph(relabel(pat.graph, perm))
            assert m_density(relab).value == m_density(pat).value
            assert condition_a(relab, WeightParam.from_rational(2)).ok == \
                condition_a(pat, WeightParam.from_rational(2)).ok
