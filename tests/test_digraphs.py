"""Digraph core: parsing, counting, subpatterns, canonical forms."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphlab import (
    Digraph,
    ParseError,
    PatternDigraph,
    automorphism_count,
    canonical_form,
    count_copies,
    is_pattern_free,
    parse_digraph,
)
from digraphlab.cli import BUILTIN_PATTERNS, load_pattern
from digraphlab.digraphs import _colour_refine, automorphisms
from digraphlab.errors import DigraphLabError, PreconditionError

from oracles import (
    all_digraph_edge_sets,
    burnside_digraph_classes,
    f_counts,
    naive_automorphisms,
    naive_canonical_key,
    naive_count_copies,
    naive_subsets,
    relabel,
    sorted_signature_colours,
)


def random_digraph(rng: random.Random, n: int) -> Digraph:
    edges = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                edges.add((u, v))
    return Digraph(n, frozenset(edges))


def key_sample() -> list[Digraph]:
    """Seeded digraphs at n = 5..8 over a spread of edge densities, plus
    circulants at n = 5..7, whose one colour cell makes the search run in full."""
    rng = random.Random(8)
    out = []
    for n in range(5, 9):
        for _ in range(60):
            p = rng.choice((0.1, 0.25, 0.5, 0.75, 0.9))
            out.append(Digraph(n, frozenset(
                (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p)))
    for n in (5, 6, 7):
        for _ in range(4):
            steps = [s for s in range(1, n) if rng.random() < 0.5]
            out.append(Digraph(n, frozenset((u, (u + s) % n) for u in range(n) for s in steps)))
    return out


def all_digraphs_on_4() -> list[Digraph]:
    return [Digraph(4, edges) for edges in all_digraph_edge_sets(4)]


def isomorphism_classes(n: int) -> list[Digraph]:
    """One digraph on [n] per canonical key."""
    reps: dict[bytes, Digraph] = {}
    for edges in all_digraph_edge_sets(n):
        g = Digraph(n, edges)
        reps.setdefault(canonical_form(g), g)
    return list(reps.values())


@st.composite
def relabelled_digraphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = frozenset(e for e, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on)
    return Digraph(n, edges), draw(st.permutations(range(n)))


# -- parsing -----------------------------------------------------------------

def test_parse_basic():
    g = parse_digraph("n=3\n0 1\n1 0\n1 2\n")
    assert g.f2 == 1 and g.f1 == 1


def test_parse_semicolon_form():
    g = parse_digraph("n=3; 0 1; 1 0; 1 2")
    assert g.f2 == 1 and g.f1 == 1


def test_parse_empty_digraph():
    g = parse_digraph("n=2; ")
    assert g.n == 2 and g.f1 == 0 and g.f2 == 0


def test_parse_comments_and_blanks():
    g = parse_digraph("# header comment\nn=3\n0 1  # edge\n\n2 1\n")
    assert g.edges == frozenset({(0, 1), (2, 1)})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=3\n0 1\n0 1\n", "duplicate"),
        ("n=3\n1 1\n", "loop"),
        ("n=3\n0 3\n", ">= n"),
        ("n=3\nx y\n", "malformed"),
        ("0 1\n", "header"),
        ("", "missing header"),
    ],
)
def test_parse_errors_name_lines(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_digraph(text)
    assert fragment in str(err.value)


_DOC_NOISE = "0123456789n= ;#\n\t-+x\u00b2\u0663\u00a0"


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(["n=3\n0 1\n1 2\n2 0\n", "n=4; 0 1; 1 0 # c\n2 3\n", "n=1\n"]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        noise = draw(st.one_of(st.text(_DOC_NOISE, max_size=4),
                               st.integers(1, 6000).map(lambda k: "9" * k)))
        text = text[:i] + noise + text[i + cut:]
    return text


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_documents())
def test_parse_fuzz_fails_only_with_package_errors(text):
    try:
        g = parse_digraph(text)
    except DigraphLabError:
        return
    # whatever parses round-trips through the writer
    assert parse_digraph(g.to_edge_text()) == g


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_digraph("n=3\n0 1\n0 1\n")
    assert err.value.line == 3


# -- f1/f2 and weighted size ---------------------------------------------------

def test_f1_f2_identity_random():
    # the masks and counts filled at construction against a recount from edges
    rng = random.Random(7)
    sample = [random_digraph(rng, rng.randint(1, 8)) for _ in range(200)]
    assert {g.n for g in sample} == set(range(1, 9))
    for g in all_digraphs_on_4() + sample:
        out = [0] * g.n
        inn = [0] * g.n
        for u, v in g.edges:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        assert g.out_mask == tuple(out) and g.in_mask == tuple(inn), g.edge_list
        assert (g.f2, g.f1) == f_counts(g.edges), g.edge_list
        assert g.f1 + 2 * g.f2 == len(g.edges)


def test_derived_fields_stay_out_of_eq_hash_repr():
    rng = random.Random(9)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(1, 8))
        twin = Digraph(g.n, frozenset(list(g.edges)))
        assert twin == g and hash(twin) == hash(g)
        assert repr(g) == f"Digraph(n={g.n}, edges={g.edges!r})"


def test_weighted_size_examples(a2, alog, twocycle):
    import math

    g = twocycle.graph
    assert a2.ea_float(g.f2, g.f1) == 2.0
    g = Digraph(2, frozenset())
    assert a2.ea_float(g.f2, g.f1) == 0.0
    g = parse_digraph("n=4; 0 1; 1 0; 2 3")
    assert alog.ea_float(g.f2, g.f1) == math.log2(3) + 1


def test_weighted_size_a2_counts_edges(a2):
    rng = random.Random(3)
    for _ in range(100):
        g = random_digraph(rng, rng.randint(1, 6))
        assert a2.ea_float(g.f2, g.f1) == len(g.edges)


# -- copy counting -------------------------------------------------------------

def test_count_copies_examples(c3, t3, dk3):
    assert count_copies(dk3.graph, c3) == 2
    assert count_copies(dk3.graph, t3) == 6
    assert count_copies(c3.graph, c3) == 1
    assert count_copies(t3.graph, t3) == 1
    small = Digraph(2, frozenset({(0, 1)}))
    assert count_copies(small, c3) == 0  # too few vertices


def test_count_copies_matches_naive_oracle(c3, t3, dk3, twocycle, p3):
    rng = random.Random(11)
    patterns = [c3, t3, dk3, twocycle, p3]
    for _ in range(60):
        g = random_digraph(rng, rng.randint(2, 5))
        for p in patterns:
            expect = naive_count_copies(g.edges, g.n, p.graph.edges, p.h)
            assert count_copies(g, p) == expect


def test_count_copies_isomorphism_invariant(c3, dk3):
    rng = random.Random(5)
    for _ in range(40):
        g = random_digraph(rng, 5)
        perm = list(range(5))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert count_copies(g, c3) == count_copies(h, c3)
        assert count_copies(g, dk3) == count_copies(h, dk3)


def test_freeness_monotone_under_deletion(c3, t3):
    rng = random.Random(13)
    for _ in range(60):
        g = random_digraph(rng, 5)
        for p in (c3, t3):
            if count_copies(g, p) == 0:
                for e in g.edges:
                    sub = Digraph(g.n, g.edges - {e})
                    assert count_copies(sub, p) == 0
            assert is_pattern_free(g, p) == (count_copies(g, p) == 0)


def test_pattern_with_isolated_vertex():
    # one edge pair plus an isolated vertex: needs three host vertices
    p = PatternDigraph.from_text("n=3; 0 1; 1 0")
    host2 = parse_digraph("n=2; 0 1; 1 0")
    host3 = parse_digraph("n=3; 0 1; 1 0")
    assert count_copies(host2, p) == 0  # no room for the isolated vertex
    assert count_copies(host3, p) == 1


def test_pattern_requires_two_edges():
    with pytest.raises(PreconditionError):
        PatternDigraph.from_text("n=2; 0 1")


# -- subpattern enumeration ------------------------------------------------------

def spans_and_sizes(pattern: PatternDigraph) -> list[tuple[int, int]]:
    """(v, e) per edge subset with more than one edge."""
    return [(v, e) for _, e, v in naive_subsets(pattern.graph.edges)]


def test_subpatterns_c3(c3):
    assert Counter(spans_and_sizes(c3)) == Counter({(3, 2): 3, (3, 3): 1})


def test_subpatterns_t3(t3):
    assert Counter(spans_and_sizes(t3)) == Counter({(3, 2): 3, (3, 3): 1})


def test_subpatterns_two_cycle(twocycle):
    assert spans_and_sizes(twocycle) == [(2, 2)]


def test_subpatterns_match_naive(dk3):
    from itertools import combinations

    edges = sorted(dk3.graph.edges)
    expect = Counter()
    for size in range(2, len(edges) + 1):
        for sub in combinations(edges, size):
            verts = {x for e in sub for x in e}
            expect[(len(verts), size)] += 1
    assert Counter(spans_and_sizes(dk3)) == expect


# -- automorphisms ---------------------------------------------------------------

def test_automorphism_counts(c3, t3, dk3, twocycle, p3):
    assert c3.aut == 3
    assert t3.aut == 1
    assert dk3.aut == 6
    assert twocycle.aut == 2
    assert p3.aut == 1


def test_automorphism_count_matches_brute_force():
    builtins = [load_pattern(name)[0].graph for name in BUILTIN_PATTERNS]
    sample = [g for g in key_sample() if g.n <= 6]
    assert len(builtins) == 6 and {5, 6} <= {g.n for g in sample}
    # one colour cell each: the search meets every order of the cell, and
    # the empty and complete digraphs keep all n! of them
    regular = [Digraph(n, frozenset(edges)) for n in range(1, 8) for edges in (
        (), [(u, v) for u in range(n) for v in range(n) if u != v],
        [(u, (u + 1) % n) for u in range(n) if n > 1])]
    for g in all_digraphs_on_4() + sample + builtins + regular:
        expect = naive_automorphisms(g.n, g.edges)
        assert automorphisms(g) == expect, g.edge_list
        assert automorphism_count(g) == len(expect), g.edge_list


def test_automorphism_count_keeps_no_order():
    # the complete digraph on [8] has all 8! orders optimal; counting them
    # stores none, where the list of them takes about 9 MB
    import tracemalloc

    k8 = Digraph(8, frozenset((u, v) for u in range(8) for v in range(8) if u != v))
    tracemalloc.start()
    try:
        assert automorphism_count(k8) == 40_320
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


@settings(max_examples=150, deadline=None, database=None)
@given(relabelled_digraphs())
def test_key_and_aut_invariant_under_relabelling(case):
    g, perm = case
    h = relabel(g, perm)
    assert canonical_form(h) == canonical_form(g)
    assert automorphism_count(h) == automorphism_count(g)


def test_aut_divides_factorial(c3, t3, dk3):
    import math

    for p in (c3, t3, dk3):
        assert math.factorial(p.h) % p.aut == 0


# -- canonical forms --------------------------------------------------------------

def test_canonical_respects_relabelling():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 6)
        g = random_digraph(rng, n)
        key = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == key


def test_canonical_distinguishes(c3, t3):
    assert canonical_form(c3.graph) != canonical_form(t3.graph)
    # reversal of a directed 3-cycle is isomorphic to it
    rev = Digraph(3, frozenset((v, u) for u, v in c3.graph.edges))
    assert canonical_form(rev) == canonical_form(c3.graph)


def test_canonical_exact_on_all_small_digraphs():
    """Key count equals the orbit-counting class number for n <= 4.

    Together with relabelling invariance (same key inside each class) this
    pins canonical_form to exact isomorphism: fewer keys would mean a
    collision, more would mean a split class.
    """
    for n in (2, 3, 4):
        assert len(isomorphism_classes(n)) == burnside_digraph_classes(n)


def test_canonical_exhaustive_relabel_small():
    # every representative keyed identically under every permutation; with the
    # orbit-count equality above this is a full pairwise-search equivalence
    for n in (3, 4):
        for g in isomorphism_classes(n):
            key = canonical_form(g)
            for perm in permutations(range(n)):
                assert canonical_form(relabel(g, list(perm))) == key


def test_canonical_key_bytes_are_pinned():
    # the keys are written into ex documents (witness_keys): any change of a
    # byte here changes those documents
    digest = hashlib.sha256()
    for g in all_digraphs_on_4() + key_sample():
        digest.update(canonical_form(g))
    assert digest.hexdigest() == "b2349904b2f64397358fc1c0d3c760767ac53e5f7e309a7583bc16a0c2d14fc4"


def test_canonical_key_matches_naive_minimum():
    for g in all_digraphs_on_4() + key_sample():
        assert _colour_refine(g) == sorted_signature_colours(g.n, g.edges), g.edge_list
        assert canonical_form(g) == naive_canonical_key(g.n, g.edges), g.edge_list
