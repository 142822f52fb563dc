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
from digraphlab.errors import PreconditionError

from oracles import naive_condition, naive_m, naive_max_density, relabel


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
    from digraphlab.digraphs import iter_subpatterns

    for pat in (c3, t3, p3):
        expect = all(len(subset) <= v for subset, v in iter_subpatterns(pat))
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
