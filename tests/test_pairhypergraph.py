"""Pair universe, hypergraph build, co-degree profile, degree-bound check."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from digraphlab import (
    Digraph,
    PairUniverse,
    PatternDigraph,
    build_hypergraph,
    codegree_profile,
    count_copies,
    verify_degree_lemma,
)
from digraphlab.cli import BUILTIN_PATTERNS, load_pattern
from digraphlab.errors import BudgetError, PreconditionError
from digraphlab.extremal import iter_free_edge_masks

from oracles import naive_codegree_sums


def test_universe_codec_roundtrip():
    for N in (2, 3, 5, 9):
        uni = PairUniverse(N)
        assert uni.size == N * N - N
        seen = set()
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                idx = uni.pair_index(i, j)
                assert 0 <= idx < uni.size
                assert uni.index_pair(idx) == (i, j)
                seen.add(idx)
        assert len(seen) == uni.size


def edge_mask(uni: PairUniverse, g: Digraph) -> int:
    return sum(1 << uni.pair_index(u, v) for u, v in g.edges)


def test_universe_mask_roundtrip():
    uni = PairUniverse(4)
    g = Digraph(4, frozenset({(0, 1), (1, 0), (2, 3), (3, 1)}))
    assert uni.digraph_from_mask(edge_mask(uni, g)) == g


def test_build_examples(c3, t3):
    hg = build_hypergraph(3, c3)
    assert hg.universe.size == 6
    assert hg.edge_count == 2
    assert hg.labelled_copy_count == 6
    hg = build_hypergraph(3, t3)
    assert hg.edge_count == 6
    assert hg.labelled_copy_count == 6


@pytest.mark.parametrize("name", BUILTIN_PATTERNS + ("c3+isolated",))
def test_hyperedges_are_the_permutation_images(name):
    # the hyperedges come from the copy table; here every injection of the
    # whole pattern is mapped to its pair indices afresh
    if name == "c3+isolated":
        pat = PatternDigraph.from_text("n=4; 0 1; 1 2; 2 0")
    else:
        pat = load_pattern(name)[0]
    for N in range(pat.h, 8):
        uni = PairUniverse(N)
        images = {
            tuple(sorted(uni.pair_index(img[u], img[v]) for u, v in pat.graph.edges))
            for img in permutations(range(N), pat.h)
        }
        assert build_hypergraph(N, pat).edges == tuple(sorted(images))


def test_build_preconditions(c3):
    with pytest.raises(PreconditionError):
        build_hypergraph(2, c3)  # N < h
    with pytest.raises(BudgetError):
        build_hypergraph(200, c3)  # 7,880,400 injections, refused before any work


def test_labelled_count_is_edges_times_aut(c3, t3, dk3, twocycle):
    from oracles import naive_copy_images
    from digraphlab.digraphs import falling

    for pat in (c3, t3, dk3, twocycle):
        for N in (pat.h, pat.h + 1, pat.h + 2):
            hg = build_hypergraph(N, pat)
            assert hg.labelled_copy_count == hg.edge_count * pat.aut
            # injection-enumeration oracle: distinct images in the complete digraph
            complete = frozenset(
                (u, v) for u in range(N) for v in range(N) if u != v
            )
            images = naive_copy_images(complete, N, pat.graph.edges, pat.h)
            assert hg.edge_count == len(images)
            assert hg.labelled_copy_count == falling(N, pat.h)


def test_hyperedges_decode_to_single_copies(c3, dk3):
    for pat in (c3, dk3):
        hg = build_hypergraph(4, pat)
        for mask in hg.edge_masks:
            g = hg.universe.digraph_from_mask(mask)
            assert len(g.edges) == pat.r
            assert count_copies(g, pat) == 1


def test_independent_set_check_matches_copy_count(c3, t3):
    # the verifier's test: an edge set is independent iff it holds no
    # hyperedge's mask whole.  Exhaustive on [4], sampled on [5]
    def independent(hg, g):
        mask = edge_mask(hg.universe, g)
        return all(em & ~mask for em in hg.edge_masks)

    for pat in (c3, t3):
        hg = build_hypergraph(4, pat)
        free = 0
        for mask in iter_free_edge_masks(4, pat, hg.universe.pair_index):
            free += 1
            assert independent(hg, hg.universe.digraph_from_mask(mask))
        rng = random.Random(9)
        agree = 0
        hg5 = build_hypergraph(5, pat)
        for _ in range(400):
            edges = frozenset(
                (u, v) for u in range(5) for v in range(5)
                if u != v and rng.random() < 0.45
            )
            g = Digraph(5, edges)
            assert independent(hg5, g) == (count_copies(g, pat) == 0)
            agree += 1
        assert agree == 400


def test_codegree_profile_against_naive(c3, t3, dk3):
    for pat in (c3, t3, dk3):
        for N in (pat.h, pat.h + 1, pat.h + 2):
            hg = build_hypergraph(N, pat)
            prof = codegree_profile(hg, 0.7)
            assert prof.codegree_sums == naive_codegree_sums(
                hg.universe.size, list(hg.edges), hg.r
            )


def test_codegree_formula_assembly(c3):
    import math

    hg = build_hypergraph(5, c3)
    tau = 0.5
    prof = codegree_profile(hg, tau)
    r = hg.r
    scale = 2 ** (math.comb(r, 2) - 1)
    expect = scale * sum(
        2.0 ** (-(j - 1)) * prof.codegree_sums[j] / (tau ** (j - 1) * r * hg.edge_count)
        for j in range(2, r + 1)
    )
    assert prof.delta == pytest.approx(expect, rel=1e-12)


def test_codegree_r2_collapses_to_half_delta2(p3):
    # with r=2 the weighted function is delta_2 / 2 by the stated formula
    hg = build_hypergraph(4, p3)
    prof = codegree_profile(hg, 0.5)
    assert prof.delta == pytest.approx(prof.delta_j[2] / 2, rel=1e-12)


def test_codegree_disjoint_edges_have_unit_codegrees():
    # the two orientations of the triangle on [3] share no ordered pair, so
    # every subset inside an edge has co-degree exactly 1
    pat = PatternDigraph.from_text("n=3; 0 1; 1 2; 2 0")
    hg = build_hypergraph(3, pat)
    assert hg.edge_count == 2
    sums = codegree_profile(hg, 1.0).codegree_sums
    assert sums[2] == 6 and sums[3] == 6


def test_codegree_monotone_in_tau(c3):
    hg = build_hypergraph(6, c3)
    taus = [0.2, 0.35, 0.5, 0.75, 1.0]
    deltas = [codegree_profile(hg, t).delta for t in taus]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_codegree_maxnorm_variant(c3):
    hg = build_hypergraph(5, c3)
    prof = codegree_profile(hg, 0.5)
    # the two normalisations differ by the ratio max degree / average degree
    ratio = prof.max_degree / float(prof.d_avg)
    for j in prof.delta_j:
        assert prof.delta_j[j] == pytest.approx(prof.delta_j_maxnorm[j] * ratio, rel=1e-9)


def test_codegree_preconditions(c3):
    hg = build_hypergraph(4, c3)
    with pytest.raises(PreconditionError):
        codegree_profile(hg, 0.0)
    with pytest.raises(PreconditionError):
        codegree_profile(hg, 1.5)


def test_verify_lemma_rows(c3, t3):
    for pat in (c3, t3):
        rep = verify_degree_lemma(pat, [6, 8, 10], Fraction(1))
        assert rep.all_ok
        assert rep.constant == 55296
        assert all(row.bound == 55296 for row in rep.rows)
        rep = verify_degree_lemma(pat, [6, 8], Fraction(1, 2))
        assert rep.all_ok
        assert all(row.bound == Fraction(55296, 2) for row in rep.rows)


def test_verify_lemma_preconditions(c3, dk3, twocycle):
    with pytest.raises(PreconditionError):
        verify_degree_lemma(c3, [6], Fraction(3, 2))  # gamma > 1
    for pat in (dk3, twocycle):  # flagged infinite exponent
        with pytest.raises(PreconditionError):
            verify_degree_lemma(pat, [6], Fraction(1))


def test_export_format(c3):
    hg = build_hypergraph(3, c3)
    lines = hg.export_text().splitlines()
    assert lines[0] == "N=3 r=3 edges=2"
    assert len(lines) == 3
    for ln in lines[1:]:
        idxs = [int(x) for x in ln.split()]
        assert len(idxs) == 3
        assert all(0 <= i < 6 for i in idxs)
