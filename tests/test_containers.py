"""Container engine: coverage, sparsity, determinism, routing, pipeline."""

from __future__ import annotations

import hashlib
import random
import re
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digraphlab.containers
from digraphlab import (
    ContainerFamily,
    PatternDigraph,
    WeightParam,
    build_containers,
    build_hypergraph,
    container_pipeline,
    count_copies,
    count_free,
    verify_family,
)
from digraphlab.cli import BUILTIN_PATTERNS, load_pattern
from digraphlab.containers import DEAD, _WindowSieve, _check_sparsity
from digraphlab.density import require_usable_m
from digraphlab.errors import (
    ContainerBuildError,
    DigraphLabError,
    ParseError,
    PreconditionError,
)
from digraphlab.extremal import _free_masks, iter_free_edge_masks
from digraphlab.pairhypergraph import PairHypergraph, PairUniverse, tau_for
from oracles import (
    naive_build_containers,
    naive_export_paths,
    naive_export_preorder,
    naive_read_paths,
    naive_read_preorder,
)


def small_family(pat, N, eps=Fraction(1, 10), tau=None):
    hg = build_hypergraph(N, pat)
    if tau is None:
        tau = N ** -0.5
    return hg, build_containers(hg, tau, eps)


def test_empty_hypergraph_single_full_container(c3):
    # on [2] there are no triangle copies: one container, the whole universe
    hg = build_hypergraph(3, c3)
    empty = type(hg)(hg.universe, hg.r, (), 0)
    fam = build_containers(empty, 0.5, Fraction(1, 10))
    assert len(fam.containers) == 1
    assert fam.containers[0] == (1 << hg.universe.size) - 1
    # the root is the leaf: the sets are checked without a depth step; the
    # second family's container lacks one element
    assert fam.root == -2
    free = list(iter_free_edge_masks(3, c3, hg.universe.pair_index))
    for f in (fam, replace(fam, containers=[fam.containers[0] & ~2])):
        rep = verify_family(empty, f, c3, mode="exhaustive")
        assert (rep.checked, rep.miss_witness, rep.miss_container) == \
            _first_miss_per_mask(hg, f, free)
        rep = verify_family(empty, f, c3, mode="sampled", samples=500, seed=3)
        attempts = []
        want = _first_miss_per_mask(hg, f, islice(_sampled_masks(hg, 3, attempts), 500))
        assert (rep.checked, rep.miss_witness, rep.miss_container, rep.attempts) == \
            (*want, sum(attempts))
    assert rep.miss_container == 0


def test_single_hyperedge_each_container_misses_an_element(c3):
    hg = build_hypergraph(3, c3)
    single = type(hg)(hg.universe, hg.r, hg.edges[:1], 3)
    fam = build_containers(single, 0.5, Fraction(1, 4))
    edge_mask = 0
    for idx in single.edges[0]:
        edge_mask |= 1 << idx
    assert len(fam.containers) >= 1
    for c in fam.containers:
        assert edge_mask & ~c != 0  # at least one element of the edge missing
    rep = verify_family(single, fam, c3, mode="exhaustive")
    assert rep.checked == count_free(3, c3)
    assert rep.coverage_ok and rep.sparsity_ok


def test_parameter_validation(c3):
    hg = build_hypergraph(3, c3)
    with pytest.raises(PreconditionError):
        build_containers(hg, 0.5, Fraction(1, 2))
    with pytest.raises(PreconditionError):
        build_containers(hg, 0.5, Fraction(0))
    with pytest.raises(PreconditionError):
        build_containers(hg, 0.0, Fraction(1, 10))
    with pytest.raises(PreconditionError):
        build_containers(hg, 1.5, Fraction(1, 10))


def test_coverage_exhaustive_small(c3, t3):
    for pat in (c3, t3):
        for N in (3, 4):
            hg, fam = small_family(pat, N)
            rep = verify_family(hg, fam, pat, mode="exhaustive")
            assert rep.coverage_ok and rep.sparsity_ok
            assert rep.checked == count_free(N, pat)


def test_sparsity_recheck_is_exact(c3):
    hg, fam = small_family(c3, 4)
    limit = fam.eps * hg.edge_count
    for cmask in fam.containers:
        span = sum(1 for em in hg.edge_masks if em & ~cmask == 0)
        assert span <= limit


def test_routing_agrees_with_linear_scan(c3):
    # the fingerprint route must land on a container that contains the set
    hg, fam = small_family(c3, 4)
    for mask in iter_free_edge_masks(4, c3, hg.universe.pair_index):
        idx = fam.route(mask)
        assert idx is not None
        assert mask & ~fam.containers[idx] == 0


def test_route_partition_soundness(c3):
    """Every node's member/exclude split preserves the routed family.

    Walking each pattern-free digraph down the tree, the branch taken at a
    node is determined by pivot membership, the fingerprint stays inside the
    set, and the out-set stays disjoint from it.
    """
    hg, fam = small_family(c3, 4)
    for mask in iter_free_edge_masks(4, c3, hg.universe.pair_index):
        code = fam.root
        s_in = 0
        s_out = 0
        while code >= 0:
            piv = 1 << fam.pivots[code]
            if mask & piv:
                s_in |= piv
                code = fam.in_child[code]
            else:
                s_out |= piv
                code = fam.out_child[code]
        assert code != -1  # independent sets never reach a dead leaf
        assert s_in & ~mask == 0
        assert s_out & mask == 0
        assert mask & ~fam.containers[-code - 2] == 0


def test_determinism_byte_identical(c3):
    hg = build_hypergraph(4, c3)
    fam1 = build_containers(hg, 0.5, Fraction(1, 10))
    fam2 = build_containers(hg, 0.5, Fraction(1, 10))
    assert fam1.export_text() == fam2.export_text()


def test_export_roundtrip_routes_identically(c3):
    hg, fam = small_family(c3, 4)
    loaded = ContainerFamily.from_export_text(fam.export_text())
    assert loaded.containers == fam.containers
    for mask in iter_free_edge_masks(4, c3, hg.universe.pair_index):
        assert loaded.route(mask) == fam.route(mask)


def test_fault_injection_detected(c3):
    hg, fam = small_family(c3, 4)
    text = fam.export_text()
    lines = text.splitlines()
    w = (hg.universe.size + 3) // 4
    mask = int(lines[1], 16)
    lines[1] = f"{mask & ~(mask & -mask):0{w}x}"  # drop one universe element
    bad = ContainerFamily.from_export_text("\n".join(lines) + "\n")
    rep = verify_family(hg, bad, c3, mode="exhaustive")
    assert not rep.coverage_ok
    assert rep.miss_witness is not None and rep.miss_witness.startswith("n=4")


def test_empty_family_on_nonempty_hypergraph_fails(c3):
    hg = build_hypergraph(3, c3)
    empty_fam = ContainerFamily(
        N=3, r=3, eps=Fraction(1, 10), tau=0.5,
        containers=[], spans=[], root=-1, pivots=[], out_child=[], in_child=[],
    )
    # the root is DEAD: the first set is missed without a depth step
    rep = verify_family(hg, empty_fam, c3, mode="exhaustive")
    assert not rep.coverage_ok
    free = iter_free_edge_masks(3, c3, hg.universe.pair_index)
    assert (rep.checked, rep.miss_witness, rep.miss_container) == \
        _first_miss_per_mask(hg, empty_fam, free) == (1, "n=3\n", None)
    rep = verify_family(hg, empty_fam, c3, mode="sampled", samples=500, seed=3)
    attempts = []
    want = _first_miss_per_mask(hg, empty_fam, _sampled_masks(hg, 3, attempts))
    assert (rep.checked, rep.miss_witness, rep.miss_container, rep.attempts) == \
        (*want, sum(attempts))
    assert not rep.coverage_ok


def test_sampled_mode_deterministic(c3):
    hg, fam = small_family(c3, 5)
    r1 = verify_family(hg, fam, c3, mode="sampled", samples=500, seed=7)
    r2 = verify_family(hg, fam, c3, mode="sampled", samples=500, seed=7)
    assert r1.coverage_ok and r1.attempts == r2.attempts and r1.checked == r2.checked


def test_sampled_mode_first_miss_pinned(c3):
    # the first escaping sample pins which draws survive and in what order
    hg, fam = small_family(c3, 5)
    for k in (0, 7, 100):
        mask = fam.containers[k]
        fam.containers[k] = mask & ~(mask & -mask)
    rep = verify_family(hg, fam, c3, mode="sampled", samples=5000, seed=7)
    assert (rep.checked, rep.attempts, rep.miss_container) == (15, 65536, 0)
    assert rep.miss_witness == "n=5\n1 0\n2 0\n2 1\n3 4\n4 0\n4 2\n4 3\n"


def _first_miss_per_mask(hg, fam, masks):
    """(checked, witness, container) of the first set its route misses, one
    ``route`` call per set: the reference for the batched verifier."""
    checked = 0
    for mask in masks:
        checked += 1
        idx = fam.route(mask)
        if idx is None or mask & ~fam.containers[idx]:
            return checked, hg.universe.digraph_from_mask(mask).to_edge_text(), idx
    return checked, None, None


def _sampled_masks(hg, seed, attempts):
    """The sampled verifier's accepted sets, in order; counts draws in ``attempts``."""
    rng = np.random.RandomState(seed)
    while True:
        draws = rng.randint(0, 1 << hg.universe.size, size=65_536, dtype=np.uint64)
        attempts.append(len(draws))
        for mask in draws.tolist():
            if all(em & ~mask for em in hg.edge_masks):
                yield mask


@pytest.fixture(scope="module")
def c3_n5(c3):
    hg = build_hypergraph(5, c3)
    fam = build_containers(hg, 5 ** -0.5, Fraction(1, 10))
    return hg, fam, list(iter_free_edge_masks(5, c3, hg.universe.pair_index))


def _late_fault(fam, masks, after):
    """A copy of the family whose first miss is the first set routed to a
    container no earlier set reaches, past position ``after``."""
    seen = set()
    for k, mask in enumerate(masks):
        idx = fam.route(mask)
        if k >= after and idx not in seen and mask:
            bad = replace(fam, containers=list(fam.containers))
            bad.containers[idx] &= ~(mask & -mask)
            return bad
        seen.add(idx)
    raise AssertionError("no late container")


def test_batched_exhaustive_routing_matches_route(c3, c3_n5):
    hg, fam, free = c3_n5
    late = _late_fault(fam, free, 70_000)
    later = _late_fault(fam, free, 131_072)
    # a DEAD branch where free sets arrive: the first node with an internal in-child
    dead = replace(fam, in_child=fam.in_child[:])
    dead.in_child[next(n for n, c in enumerate(fam.in_child) if c >= 0)] = -1
    for bad in (late, later, dead):
        rep = verify_family(hg, bad, c3, mode="exhaustive")
        want = _first_miss_per_mask(hg, bad, free)
        assert (rep.checked, rep.miss_witness, rep.miss_container) == want
        assert not rep.coverage_ok
    # the late misses lie in the second and the third (partial) batch; the
    # DEAD one has no container
    assert _first_miss_per_mask(hg, late, free)[0] > 65_536
    assert _first_miss_per_mask(hg, later, free)[0] > 131_072
    assert _first_miss_per_mask(hg, dead, free)[2] is None


def test_batched_sampled_routing_matches_route(c3, c3_n5):
    hg, fam, _ = c3_n5
    attempts = []
    sampled = list(islice(_sampled_masks(hg, 7, attempts), 30_000))
    rep = verify_family(hg, fam, c3, mode="sampled", samples=30_000, seed=7)
    assert (rep.coverage_ok, rep.checked, rep.attempts) == (True, 30_000, sum(attempts))
    bad = _late_fault(fam, sampled, 12_000)
    rep = verify_family(hg, bad, c3, mode="sampled", samples=30_000, seed=7)
    attempts.clear()
    want = _first_miss_per_mask(hg, bad, _sampled_masks(hg, 7, attempts))
    assert (rep.checked, rep.miss_witness, rep.miss_container) == want
    assert rep.attempts == sum(attempts) > 65_536


@pytest.mark.parametrize("name", BUILTIN_PATTERNS)
def test_free_mask_decoder_matches_the_generator(name):
    pat, _ = load_pattern(name)
    for N in range(2, 6):
        edge_bit = PairUniverse(N).pair_index
        got = np.concatenate(list(_free_masks(N, pat, edge_bit))).tolist()
        assert got == list(iter_free_edge_masks(N, pat, edge_bit)), N
        if pat.h > N:
            # every state is free; on [2] the 4 states fill half a byte
            assert len(got) == 4 ** (N * (N - 1) // 2)


# a 5-cycle, and a triangle with one and with two isolated vertices: a window
# of 4 vertices can hold a triangle but never a copy of the last pattern
_MORE = {name: PatternDigraph.from_text(text) for name, text in (
    ("c5", "n=5; 0 1; 1 2; 2 3; 3 4; 4 0"),
    ("c3+1", "n=4; 0 1; 1 2; 2 0"),
    ("c3+2", "n=5; 0 1; 1 2; 2 0"),
)}


def _filtered(hg, draws):
    """The draws that hold no hyperedge, in draw order, one hyperedge at a time."""
    free = draws
    for em in hg.edge_masks:
        em = np.uint64(em)
        free = free[(free & em) != em]
    return free


@pytest.mark.parametrize("name", ["c3", "t3", "p3", "p4", "twocycle", "dk3", *_MORE])
def test_window_sieve_matches_the_hyperedge_filter(name):
    pat = _MORE[name] if name in _MORE else load_pattern(name)[0]
    rng = np.random.RandomState(3)
    for N in range(max(2, pat.h), 9):
        hg = build_hypergraph(N, pat)
        sieve = _WindowSieve(hg, pat)
        for _ in range(2):
            draws = rng.randint(0, 1 << hg.universe.size, size=65_536, dtype=np.uint64)
            assert sieve(draws).tolist() == _filtered(hg, draws).tolist(), N
        if pat.h > 4:
            assert sieve.table.all() and len(sieve.rest) == hg.edge_count
        else:
            # the hyperedges inside a window of 4 consecutive vertices are left to the table
            assert len(sieve.rest) < hg.edge_count


@pytest.mark.parametrize("cells", [1, 97])
def test_window_sieve_splits_its_hyperedge_test(cells, monkeypatch):
    # a bound below survivors x hyperedges tests the hyperedges in groups,
    # one at a time at a bound of 1
    monkeypatch.setattr(digraphlab.containers, "_REST_CELLS", cells)
    rng = np.random.RandomState(4)
    for pat, N in ((load_pattern("t3")[0], 7), (_MORE["c5"], 6), (_MORE["c3+2"], 5)):
        hg = build_hypergraph(N, pat)
        sieve = _WindowSieve(hg, pat)
        draws = rng.randint(0, 1 << hg.universe.size, size=20_000, dtype=np.uint64)
        windowed = sieve._windowed(draws)
        assert len(windowed) * len(sieve.rest) > 10 * cells
        assert sieve(draws).tolist() == _filtered(hg, draws).tolist(), N


def test_sampled_routing_on_dk3_with_an_explicit_tau(dk3):
    # dk3 has no usable m, so no tau of its own: the library takes one
    hg = build_hypergraph(6, dk3)
    fam = build_containers(hg, 0.5, Fraction(1, 10))
    attempts = []
    sampled = list(islice(_sampled_masks(hg, 3, attempts), 3000))
    rep = verify_family(hg, fam, dk3, mode="sampled", samples=3000, seed=3)
    assert (rep.coverage_ok, rep.checked, rep.attempts) == (True, 3000, sum(attempts))
    bad = _late_fault(fam, sampled, 1000)
    rep = verify_family(hg, bad, dk3, mode="sampled", samples=3000, seed=3)
    want = _first_miss_per_mask(hg, bad, sampled)
    assert (rep.checked, rep.miss_witness, rep.miss_container) == want


def test_pooled_sampled_routing_at_low_acceptance(t3):
    # about 0.03% of the draws on [7] hold no transitive triangle: the 1000
    # sets come from about 60 draw batches, and are routed together
    hg = build_hypergraph(7, t3)
    fam = build_containers(hg, tau_for(7, require_usable_m(t3)), Fraction(1, 3))
    rep = verify_family(hg, fam, t3, mode="sampled", samples=1000, seed=5)
    assert (rep.coverage_ok, rep.checked, rep.attempts) == (True, 1000, 59 * 65_536)
    pieces = digraphlab.containers._sampled_masks(hg, t3, 5, 1000)
    bad = _late_fault(fam, np.concatenate(list(pieces)).tolist(), 100)
    rep = verify_family(hg, bad, t3, mode="sampled", samples=1000, seed=5)
    attempts = []
    want = _first_miss_per_mask(hg, bad, _sampled_masks(hg, 5, attempts))
    assert (rep.checked, rep.miss_witness, rep.miss_container) == want
    # the miss lies in a later draw batch than the first
    assert rep.attempts == sum(attempts) > 65_536


def test_pipeline_refusals(dk3, a2, a4):
    with pytest.raises(PreconditionError) as err:
        container_pipeline(dk3, a2, 5, Fraction(1, 10))
    assert "6/3 > 2/2" in str(err.value)
    with pytest.raises(PreconditionError) as err:
        container_pipeline(dk3, a4, 5, Fraction(1, 10))
    assert "2-cycle" in str(err.value)


def test_pipeline_n4(c3, a2):
    rep = container_pipeline(c3, a2, 4, Fraction(1, 10))
    assert rep.verify.coverage_ok
    assert rep.verify.checked == count_free(4, c3)
    assert rep.copies_ok
    assert all(row.ea_within_extremal_slack for row in rep.rows)
    for row in rep.rows:
        assert row.copies_le_eps_edges and row.copies_le_eps_Nh
        assert row.copies <= float(rep.eps) * rep.N ** c3.h
    # family-size curve is reported, never asserted
    assert rep.reference_curve > 0


def test_pipeline_verdicts_against_integer_powers():
    # at a = log2(3), a*f2 + f1 <= ex + eps*N^2 iff
    # 3^f2 * 2^f1 <= 3^ex_f2 * 2^ex_f1 * 2^(eps*N^2); both sides are raised
    # to eps's denominator so that every power is an integer
    p4 = load_pattern("p4")[0]
    N, eps = 5, Fraction(1, 10)
    rep = container_pipeline(p4, WeightParam.parse("log2(3)"), N, eps)
    ex_f2, ex_f1 = rep.extremal.best_pair
    d = eps.denominator
    outside = 0
    for row in rep.rows:
        within = 3 ** (d * row.f2) * 2 ** (d * row.f1) <= \
            3 ** (d * ex_f2) * 2 ** (d * ex_f1 + eps.numerator * N * N)
        assert row.ea_within_extremal_slack is within
        assert row.copies_le_eps_Nh is (Fraction(row.copies) <= eps * N ** p4.h)
        outside += not within
    assert outside == 178 and not all(row.ea_within_extremal_slack for row in rep.rows)


def test_pipeline_copy_counts_match_decode(c3, a2):
    rep = container_pipeline(c3, a2, 4, Fraction(1, 10))
    hg = build_hypergraph(4, c3)
    fam = build_containers(hg, rep.tau, rep.eps)
    for row in rep.rows:
        g = fam.universe.digraph_from_mask(fam.containers[row.index])
        assert count_copies(g, c3) == row.copies


# (pattern, N, eps, tau or None for tau_for(N, m)) -> (containers, nodes, sha256 of
# export_text, sha256 of the fingerprint-path export the reader once took)
PINNED = {
    ("c3", 4, Fraction(1, 10), None): (
        99, 275, "5807d4512a866741634bff966fb14b34e60a2cbd546fd07a2f8c5e4f16abd3de",
        "e9b85a202538a6437ded8e171a6de5984da4437050ecf35d342849b505b38a0d"),
    ("c3", 5, Fraction(1, 10), None): (
        1785, 5207, "d11c161c50a7d62b7f99d32a54bf815e7cd33a03e882148c5cbd5026990dc197",
        "76c26aa69697ab6e168822beb584afcac83b1afa2b917bd6897d40fd884a3255"),
    ("c3", 6, Fraction(1, 5), None): (
        42524, 118778, "2d43386b5320087deeb823fe0b41bf9b501fd9bacb370e24e8c7964b6883d8da",
        "3f3ca956b5e04642e7f6291c84f70bc49d8e12b925a0ff82717a66179ba5d8f0"),
    ("t3", 6, Fraction(1, 3), None): (
        1476, 3267, "594cf46c5c2707139370dd1f80b8173d815964d249cf2e08f99c5633a58afb2e",
        "5ad6a785c630ecf2d3776b71cc19ad2fe653c6fcd8ce3a66ec5ef7a6214d096c"),
    ("dk3", 5, Fraction(1, 4), 0.5): (
        405, 575, "58ddb3e3afbf5aca39c628860f585bc40427549d08c201981696edf9161bc2c3",
        "d6aa5dd7c02ef805803db0dd8742ed7cb586bb6d1d873442819e63b37c3b9f69"),
}


def _pinned_id(key):
    name, N, eps, tau = key
    return f"{name}-N{N}-eps{eps}" + ("" if tau is None else f"-tau{tau}")


@pytest.fixture(scope="module")
def pinned_families():
    fams = {}
    for key in PINNED:
        name, N, eps, tau = key
        pat, _ = load_pattern(name)
        hg = build_hypergraph(N, pat)
        if tau is None:
            tau = tau_for(N, require_usable_m(pat))
        fams[key] = hg, build_containers(hg, tau, eps)
    return fams


def assert_one_container_per_leaf(fam):
    """A built family's leaves are its out-leaves, coded 0..containers-1 once
    each, and no two containers are equal."""
    assert all(code >= DEAD for code in fam.in_child)
    leaves = [code for code in [fam.root, *fam.out_child] if code < DEAD]
    assert sorted(-code - 2 for code in leaves) == list(range(len(fam.containers)))
    assert len(set(fam.containers)) == len(fam.containers)


@pytest.mark.parametrize("key", list(PINNED), ids=_pinned_id)
def test_pinned_families(pinned_families, key):
    _, fam = pinned_families[key]
    containers, nodes, digest, path_digest = PINNED[key]
    assert len(fam.containers) == containers
    assert len(fam.pivots) == nodes
    assert hashlib.sha256(fam.export_text().encode()).hexdigest() == digest
    assert hashlib.sha256(naive_export_paths(fam).encode()).hexdigest() == path_digest
    assert_one_container_per_leaf(fam)


def naive_sparsity(hg, fam):
    spans = [sum(1 for em in hg.edge_masks if em & ~c == 0) for c in fam.containers]
    worst = max(spans, default=0)
    return all(s * fam.eps.denominator <= fam.eps.numerator * hg.edge_count for s in spans), worst


def _recount(hg, fam):
    return _check_sparsity(hg, np.array(fam.containers, dtype=np.uint64), fam.eps)


@pytest.mark.parametrize("key", list(PINNED), ids=_pinned_id)
def test_sparsity_recount_against_naive(pinned_families, key):
    hg, fam = pinned_families[key]
    assert _recount(hg, fam) == naive_sparsity(hg, fam) == (True, max(fam.spans))
    # a container holding the whole universe spans every hyperedge
    full = replace(fam, containers=fam.containers + [(1 << hg.universe.size) - 1])
    assert _recount(hg, full) == naive_sparsity(hg, full) == (False, hg.edge_count)


def test_sparsity_recount_empty_family(c3):
    hg = build_hypergraph(4, c3)
    empty = ContainerFamily(
        N=4, r=3, eps=Fraction(1, 10), tau=0.5,
        containers=[], spans=[], root=-1, pivots=[], out_child=[], in_child=[],
    )
    assert _recount(hg, empty) == (True, 0)


def _routing(fam):
    return fam.root, list(fam.pivots), list(fam.out_child), list(fam.in_child)


def assert_both_formats_carry_the_tree(fam):
    """The reader gives back the builder's tree, and so does the fingerprint-path
    oracle; the export re-exports byte for byte and equals the naive writer's."""
    text = fam.export_text()
    loaded = ContainerFamily.from_export_text(text)
    assert _routing(loaded) == _routing(fam)
    assert _routing(naive_read_paths(naive_export_paths(fam))) == _routing(fam)
    assert loaded.containers == fam.containers
    assert loaded.export_text() == text == naive_export_preorder(fam)


@pytest.mark.parametrize("key", list(PINNED), ids=_pinned_id)
def test_reader_rebuilds_the_tree(pinned_families, key):
    _, fam = pinned_families[key]
    assert_both_formats_carry_the_tree(fam)
    # shuffled tree lines are refused at the first line the tree cannot take
    lines = fam.export_text().splitlines()
    head, tree = lines[:1 + len(fam.containers)], lines[1 + len(fam.containers):]
    random.Random(5).shuffle(tree)
    shuffled = "\n".join(head + tree) + "\n"
    with pytest.raises(ParseError) as want:
        naive_read_preorder(shuffled)
    with pytest.raises(ParseError) as got:
        ContainerFamily.from_export_text(shuffled)
    assert str(got.value) == str(want.value)


# a header on [3] (pivots 0..5) with two containers: the tree starts at line 4
@pytest.mark.parametrize("tree, line, why", [
    (["0", "-2"], 5, "routing tree ends with 1 branch(es) open"),
    (["0", "1", "-2"], 6, "routing tree ends with 2 branch(es) open"),
    ([], 3, "routing tree ends with 1 branch(es) open"),
    (["0", "-2", "-3", "-1"], 7, "code past the end of the routing tree"),
    (["-1", "-1"], 5, "code past the end of the routing tree"),
    (["0", "x", "-1"], 5, "bad tree code 'x'"),
    (["0", "1+", "-1"], 5, "bad tree code '1+'"),
    (["0", " -2", "-1"], 5, "bad tree code ' -2'"),
    (["0", "\u0661", "-1"], 5, "bad tree code '\u0661'"),
    (["0", "1-2", "-1"], 5, "bad tree code '1-2'"),
    (["0", "--2", "-1"], 5, "bad tree code '--2'"),
    (["0", "-", "-1"], 5, "bad tree code '-'"),
    (["6", "-2", "-1"], 4, "tree pivot 6 not in 0..5"),
    (["0", "-4", "-1"], 5, "tree leaf -4 not in -3..-1"),
    # the first bad line is named, whatever is wrong after it
    (["0", "7", "x"], 5, "tree pivot 7 not in 0..5"),
    (["-2", "-9", "x"], 5, "code past the end of the routing tree"),
])
def test_reader_refuses_malformed_trees(tree, line, why):
    text = "\n".join(["3 3 1/10 0.5 2", "3f", "1f", *tree]) + "\n"
    with pytest.raises(ParseError) as want:
        naive_read_preorder(text)
    assert str(want.value) == f"line {line}: {why}"
    with pytest.raises(ParseError, match=f"^line {line}: {re.escape(why)}$"):
        ContainerFamily.from_export_text(text)


def test_reader_reads_long_zero_padded_numbers():
    # leading zeros past Python's 4300-digit limit on int() are read as zeros
    text = f"3 3 1/10 0.5 1\n3f\n{'0' * 5000}1\n-1\n-{'0' * 5000}2\n"
    fam = ContainerFamily.from_export_text(text)
    assert _routing(fam) == (0, [1], [DEAD], [-2])
    assert fam.export_text() == "3 3 1/10 0.5 1\n3f\n1\n-1\n-2\n"
    # and so are the header's integers, eps's two parts included
    zeros = "0" * 5000
    head = f"{zeros}3 {zeros}3 {zeros}1/{zeros}10 0.5 {zeros}1"
    fam = ContainerFamily.from_export_text(f"{head}\n3f\n-2\n")
    assert (fam.N, fam.r, fam.eps, fam.containers) == (3, 3, Fraction(1, 10), [0x3F])
    assert fam.export_text() == "3 3 1/10 0.5 1\n3f\n-2\n"


def _tree(fam):
    return (fam.root, list(fam.pivots), list(fam.out_child), list(fam.in_child),
            fam.containers, fam.spans)


@pytest.mark.parametrize("name", ["c3", "t3", "dk3", "p3", "p4"])
def test_builder_matches_recursive_oracle(name):
    pat, _ = load_pattern(name)
    cases = [(N, eps) for N in range(max(3, pat.h), 7)
             for eps in (Fraction(1, 10), Fraction(1, 5), Fraction(1, 3))]
    if name == "t3":
        cases.append((7, Fraction(1, 3)))
    for N, eps in cases:
        hg = build_hypergraph(N, pat)
        fam = build_containers(hg, 1.0, eps)
        assert _tree(fam) == naive_build_containers(hg, eps), (N, eps)
        assert_one_container_per_leaf(fam)


@st.composite
def small_hypergraphs(draw):
    N = draw(st.integers(2, 10))
    n_u = N * (N - 1)
    edges = draw(st.lists(st.lists(st.integers(0, n_u - 1), min_size=1, max_size=4, unique=True),
                          max_size=12))
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    return PairHypergraph(PairUniverse(N), max((len(e) for e in edges), default=1), edges, 0)


@settings(max_examples=150, deadline=None, database=None)
@given(small_hypergraphs(), st.integers(7, 60), st.integers(1, 10))
def test_builder_matches_recursive_oracle_on_random_hypergraphs(hg, den, num):
    # eps <= 1/6 keeps the round cap (>= 48) above any depth: at most 48 elements;
    # N >= 9 puts elements past the first 64-bit word
    eps = Fraction(min(num, den // 6), den)
    fam = build_containers(hg, 1.0, eps)
    assert _tree(fam) == naive_build_containers(hg, eps)
    assert_one_container_per_leaf(fam)


def hub_hypergraph(seed: int, hub_degree: int | None = None) -> PairHypergraph:
    """Hyperedges on [9] (72 pairs) whose largest degree reaches int8's top.

    Every pair and triple of the hub pairs 64..70 is repeated 3-9 times, so
    the hubs lie in about 110-160 hyperedges each and the degree rows need
    int16.  With ``hub_degree``, pair 70 instead lies in exactly that many
    pair hyperedges with the pairs 64..69.  Random hyperedges of 1-4 pairs
    below 40, some through one hub, follow.  Pairs 40..63 and 71 are in no
    hyperedge.
    """
    rng = random.Random(seed)
    hubs = range(64, 71)
    if hub_degree is None:
        edges = [e for size in (2, 3) for e in combinations(hubs, size)
                 for _ in range(rng.randint(3, 9))]
        edges += [tuple(sorted({rng.choice(hubs), *rng.sample(range(40), rng.randint(0, 2))}))
                  for _ in range(60)]
    else:
        edges = [(64 + i % 6, 70) for i in range(hub_degree)]
    edges += [tuple(sorted(rng.sample(range(40), rng.randint(1, 4)))) for _ in range(120)]
    return PairHypergraph(PairUniverse(9), 4, tuple(sorted(edges)), 0)


@pytest.mark.parametrize("seed,hub_degree", [(seed, None) for seed in range(6)]
                         + [(6, 127), (7, 128)])
def test_builder_matches_recursive_oracle_past_int8_degrees(seed, hub_degree):
    hg = hub_hypergraph(seed, hub_degree)
    assert hg.max_degree == hub_degree or hg.max_degree >= 128
    assert min(map(len, hg.incidence)) == 0
    assert len(set(hg.edges)) < hg.edge_count
    for eps in (Fraction(1, 100), Fraction(1, 40), Fraction(1, 16)):
        fam = build_containers(hg, 1.0, eps)
        assert _tree(fam) == naive_build_containers(hg, eps)
        assert_one_container_per_leaf(fam)


def test_stop_rule_is_exact_for_any_eps(c3):
    # num * total overflows int64 for these fractions; the stop rule stays exact
    hg = build_hypergraph(4, c3)
    big = 10 ** 30
    for eps in (Fraction(1, big), Fraction(big - 1, 2 * big), Fraction(big // 10 + 1, big)):
        fam = build_containers(hg, 1.0, eps)
        assert _tree(fam) == naive_build_containers(hg, eps)
        assert all(s <= eps * hg.edge_count for s in fam.spans)


def test_builder_refuses_what_it_cannot_count_exactly(c3):
    # 2^24 hyperedges are refused before any is read, by the incidence cap
    # that keeps every degree at most 2^20, inside the builder's int32 rows
    stub = SimpleNamespace(universe=PairUniverse(4), r=3, edge_count=1 << 24)
    with pytest.raises(PreconditionError, match="capped at 2\\^21 cells"):
        build_containers(stub, 0.5, Fraction(1, 10))
    # and an incidence matrix past 2^21 cells
    stub = SimpleNamespace(universe=PairUniverse(100), r=3, edge_count=10_000)
    with pytest.raises(PreconditionError, match="capped at 2\\^21 cells"):
        build_containers(stub, 0.5, Fraction(1, 10))


def test_builder_guards(c3):
    hg = build_hypergraph(4, c3)
    with pytest.raises(ContainerBuildError, match="^decision tree exceeded 1 nodes$"):
        build_containers(hg, 0.5, Fraction(1, 10), max_nodes=1)
    # 4 * r * tau * |universe| <= 1 gives a fingerprint budget of 1
    with pytest.raises(ContainerBuildError, match="^fingerprint exceeded the tau budget 1$"):
        build_containers(hg, 1e-3, Fraction(1, 10))
    # one singleton hyperedge per pair on [7]: only exclusions branch, and the
    # family needs 28 of them against a round cap of 4 * 2 * ceil(50/17) = 24
    hg7 = build_hypergraph(7, c3)
    singles = type(hg7)(hg7.universe, 1, tuple((i,) for i in range(42)), 42)
    with pytest.raises(ContainerBuildError, match="^branch exceeded the round cap 24$"):
        build_containers(singles, 1.0, Fraction(17, 50))


def test_builder_reports_the_shallowest_breach(c3):
    # c3 on [4], eps=1/10: levels 0-2 hold 1, 2 and 4 nodes, and level 2 has
    # the first fingerprint of size 2
    hg = build_hypergraph(4, c3)
    # fingerprint and node budget both breached at level 2: the fingerprint
    # is reported, although a depth-first build meets the 5th node first
    with pytest.raises(ContainerBuildError, match="^fingerprint exceeded the tau budget 1$"):
        build_containers(hg, 1e-3, Fraction(1, 10), max_nodes=4)
    # the node budget breached at level 1 comes first
    with pytest.raises(ContainerBuildError, match="^decision tree exceeded 2 nodes$"):
        build_containers(hg, 1e-3, Fraction(1, 10), max_nodes=2)
    # the singleton tree is a path: its 25th node sits at the round cap 24
    hg7 = build_hypergraph(7, c3)
    singles = type(hg7)(hg7.universe, 1, tuple((i,) for i in range(42)), 42)
    with pytest.raises(ContainerBuildError, match="^branch exceeded the round cap 24$"):
        build_containers(singles, 1.0, Fraction(17, 50), max_nodes=24)


def test_verify_refuses_before_sparsity(c3, monkeypatch):
    def no_work(*args):
        raise AssertionError("sparsity re-count ran before the refusal")
    monkeypatch.setattr(digraphlab.containers, "_check_sparsity", no_work)
    hg = build_hypergraph(6, c3)
    fam = ContainerFamily(
        N=6, r=3, eps=Fraction(1, 10), tau=0.5,
        containers=[], spans=[], root=-1, pivots=[], out_child=[], in_child=[],
    )
    for mode, why in (("exhaustive", "capped at N=5"), ("nope", "unknown verify mode")):
        with pytest.raises(PreconditionError, match=why):
            verify_family(hg, fam, c3, mode=mode)


_C3_N4 = build_containers(build_hypergraph(4, PatternDigraph.from_text("n=3; 0 1; 1 2; 2 0")),
                          0.5, Fraction(1, 10)).export_text()
_NOISE = "0123456789abcdefABx+-,./_ \n\u00a0\u2028\u0661"
_TREE_FROM = 1 + int(_C3_N4.split(maxsplit=5)[4])      # the first tree line


def _big_number(draw):
    # 20 digits: past 2^64, or a small value behind leading zeros
    return draw(st.one_of(st.integers(10 ** 19, 10 ** 20 - 1).map(str),
                          st.integers(0, 120).map(lambda v: f"{v:020d}")))


@st.composite
def mutated_exports(draw):
    lines = _C3_N4.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["char", "drop", "dup", "swap", "header", "shuffle", "big",
                                   "upper", "code"]))
        if op == "upper":
            lines[k] = lines[k].upper()
            continue
        if op == "shuffle":
            lines[_TREE_FROM:] = draw(st.permutations(lines[_TREE_FROM:]))
            continue
        if op == "big":
            if re.fullmatch("-?[0-9]+", lines[k]):
                lines[k] = lines[k][:lines[k].startswith("-")] + _big_number(draw)
            continue
        if op == "code":
            # a pivot or leaf code near the ends of their ranges
            lines[k] = str(draw(st.integers(-102, 13)))
            continue
        if op == "char":
            ln = lines[k]
            i = draw(st.integers(0, len(ln)))
            cut = draw(st.integers(0, 1))
            lines[k] = ln[:i] + draw(st.text(_NOISE, max_size=3)) + ln[i + cut:]
        elif op == "drop":
            del lines[k]
        elif op == "dup":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            head = lines[0].split() or [""]      # an earlier edit may have blanked line 1
            head[draw(st.integers(0, len(head) - 1))] = draw(st.one_of(
                st.text(_NOISE, max_size=4),
                st.builds(lambda a, b: f"{a}" if b is None else f"{a}/{b}",
                          st.integers(-2, 99), st.none() | st.integers(0, 9))))
            lines[0] = " ".join(head)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_exports())
def test_reader_fuzz_fails_only_with_package_errors(c3, text):
    try:
        fam = ContainerFamily.from_export_text(text)
    except DigraphLabError:
        return
    # whatever parses lies inside its universe and can be verified without a crash
    n_u = fam.N * (fam.N - 1)
    assert fam.N >= 2 and 0 < fam.eps < Fraction(1, 2)
    assert all(c >> n_u == 0 for c in fam.containers)
    assert all(0 <= v < n_u for v in fam.pivots)
    if fam.N == 4:
        hg = build_hypergraph(4, c3)
        verify_family(hg, fam, c3, mode="exhaustive")


@settings(max_examples=300, deadline=None, database=None)
@given(mutated_exports())
def test_reader_matches_the_line_walk_oracle(text):
    # the same tree, or the same refusal at the same line, as filling the
    # open child slots one line at a time
    try:
        want = naive_read_preorder(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            ContainerFamily.from_export_text(text)
        assert str(got.value) == str(exc)
        return
    got = ContainerFamily.from_export_text(text)
    assert (_routing(got), got.containers) == (_routing(want), want.containers)
    assert got.export_text() == naive_export_preorder(want)


def _joined(*lines):
    return "".join(f"{line}\n" for line in lines)


_C3_N4_LINES = _C3_N4.splitlines()
_C3_N4_HEAD = _C3_N4_LINES[0]
_C3_N4_BLOCK = _C3_N4_LINES[1:_TREE_FROM]
_C3_N4_TREE = _C3_N4_LINES[_TREE_FROM:]
# on [10] the universe takes two uint64 words; the leading of 23 hex digits
# holds bits 88..91, of which 90 and 91 lie outside it
_TWO_WORD_EXPORT = _joined("10 3 1/10 0.5 3",
                           *(f"{c:023x}" for c in ((1 << 89) | 1, (1 << 64) | (1 << 63), 0x3F)),
                           "89", "-2", "64", "-3", "-4")


def _c3_n4_with(k, line):
    """The c3 export on [4] with its k-th line after the header replaced."""
    lines = _C3_N4_LINES[:]
    lines[1 + k] = line
    return _joined(*lines)


# (text, the writer's text of the family read, or the refusal), against the
# line walk: layouts the writer never writes go through the layout step
_READER_PATHS = {
    "writer-form": (_C3_N4, _C3_N4),
    "upper-case": (_joined(_C3_N4_HEAD, *map(str.upper, _C3_N4_BLOCK), *_C3_N4_TREE), _C3_N4),
    "no-containers": (_joined("3 3 1/10 0.5 0", "-1"), _joined("3 3 1/10 0.5 0", "-1")),
    "two-words": (_TWO_WORD_EXPORT.upper(), _TWO_WORD_EXPORT),
    "crlf": (_C3_N4.replace("\n", "\r\n"), _C3_N4),
    "zero-padded": (_c3_n4_with(0, "0" + _C3_N4_BLOCK[0]), _C3_N4),
    "blank-line": (_joined(_C3_N4_HEAD, _C3_N4_BLOCK[0], "", *_C3_N4_BLOCK[1:], *_C3_N4_TREE),
                   _C3_N4),
    "non-ascii-digit": (_c3_n4_with(1, "\u0661" + _C3_N4_BLOCK[1][1:]),
                        "line 3: bad container bitset"),
    # of the writer's length, but not ended by a line break
    "no-break": (_joined("3 3 1/10 0.5 1", "3f -2"), "line 2: bad container bitset"),
    "count-past-the-lines": (_joined("3 3 1/10 0.5 3", "3f", "1f"),
                             "family export truncated: missing containers"),
    "bit-at-N(N-1)": (_joined("3 3 1/10 0.5 3", "3f", "7f", "1f", "0", "-2", "-3"),
                      "line 3: container bitset has a bit at or above N(N-1)=6"),
    "two-words-bit-at-N(N-1)": (_TWO_WORD_EXPORT.replace(f"{0x3F:023x}", f"{1 << 90 | 1:023x}"),
                                "line 4: container bitset has a bit at or above N(N-1)=90"),
    "header-only": ("3 3 1/10 0.5 0\n", "line 1: routing tree ends with 1 branch(es) open"),
    "ten-digit-pivot": (_joined("40000 3 1/10 0.5 0", "1234567890", "-1", "-1"),
                        _joined("40000 3 1/10 0.5 0", "1234567890", "-1", "-1")),
    "ten-digit-pivot-past-N(N-1)": (_joined("40000 3 1/10 0.5 0", "1599960000", "-1", "-1"),
                                    "line 2: tree pivot 1599960000 not in 0..1599959999"),
    # tree line 5 is the leaf "-2"
    "25-leading-zeros": (_c3_n4_with(_TREE_FROM + 4, "-" + "0" * 25 + "2"), _C3_N4),
    "30-digit-leaf": (_c3_n4_with(_TREE_FROM + 4, "-1" + "0" * 29),
                      f"line {_TREE_FROM + 6}: tree leaf -1{'0' * 29} not in -100..-1"),
    "x1c-breaks": (_C3_N4.replace("\n", "\x1c"), _C3_N4),
    "u2028-breaks": (_C3_N4.replace("\n", "\u2028"), _C3_N4),
    "x85-breaks": (_C3_N4.replace("\n", "\x85"), _C3_N4),
    "padded-container": (_c3_n4_with(0, "\x1f" + _C3_N4_BLOCK[0] + "\xa0"), _C3_N4),
    "40-zeros-container": (_c3_n4_with(0, "0" * 40 + _C3_N4_BLOCK[0]), _C3_N4),
    "tab-after-code": (_c3_n4_with(_TREE_FROM + 4, "-2\t"),
                       f"line {_TREE_FROM + 6}: bad tree code '-2\\t'"),
}


@pytest.mark.parametrize("name", list(_READER_PATHS))
def test_reader_paths_match_the_line_walk_oracle(name):
    # the same family, or the same refusal, as the line walk
    text, want = _READER_PATHS[name]
    try:
        oracle = naive_read_preorder(text)
    except ParseError as exc:
        assert str(exc) == want
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            ContainerFamily.from_export_text(text)
    else:
        got = ContainerFamily.from_export_text(text)
        assert (_routing(got), got.containers) == (_routing(oracle), oracle.containers)
        assert got.export_text() == want


@settings(max_examples=150, deadline=None, database=None)
@given(small_hypergraphs(), st.integers(7, 60), st.integers(1, 10), st.randoms(use_true_random=False))
def test_writer_matches_the_depth_first_oracle(hg, den, num, rng):
    eps = Fraction(min(num, den // 6), den)
    fam = build_containers(hg, 1.0, eps)
    assert_both_formats_carry_the_tree(fam)
    text = fam.export_text()
    # the tree lines follow the tree, not the numbering of its nodes
    nodes = len(fam.pivots)
    new = list(range(nodes))
    rng.shuffle(new)

    def renamed(code):
        return new[code] if code >= 0 else code

    old = [0] * nodes
    for k, v in enumerate(new):
        old[v] = k
    shuffled = replace(
        fam, root=renamed(fam.root), pivots=[fam.pivots[old[v]] for v in range(nodes)],
        out_child=[renamed(fam.out_child[old[v]]) for v in range(nodes)],
        in_child=[renamed(fam.in_child[old[v]]) for v in range(nodes)])
    assert shuffled.export_text() == text


def _deep_path(depth: int) -> list[str]:
    """A path of ``depth`` nodes, node v taking its excluded branch on to node
    v+1 when v is even and its included branch when v is odd, ending in leaf 0."""
    tree, dead_after = [], 0
    for v in range(depth):
        tree += [str(v)] if v % 2 == 0 else [str(v), "-1"]
        dead_after += v % 2 == 0
    return tree + ["-2"] + ["-1"] * dead_after


@pytest.mark.parametrize("N, tree", [
    (3, ["0", "1", "-1", "-2", "-3"]),
    (3, ["0", "-1", "-2"]),
    (3, ["0", "-2", "-1"]),
    (3, ["-2"]),
    (3, ["-1"]),
    (56, _deep_path(3000)),
    (400, ["159599", "-1", "-2"]),
], ids=["in-leaf-under-a-node", "dead-out-child", "dead-in-child", "root-leaf", "empty-tree",
        "3000-tokens-deep", "one-pivot-of-159600"])
def test_writer_writes_back_trees_the_builder_never_makes(N, tree):
    # builder trees have no included leaves; a file may also hold a path
    # deeper than Python's recursion limit, or a pivot far past its node count
    width = (N * N - N + 3) // 4
    text = "".join([f"{N} 3 1/10 0.5 2\n", f"{1:0{width}x}\n", f"{2:0{width}x}\n",
                    *(f"{code}\n" for code in tree)])
    fam = ContainerFamily.from_export_text(text)
    tracemalloc.start()
    try:
        assert fam.export_text() == text
        # the writer's tables follow the tree, not the largest pivot
        assert tracemalloc.get_traced_memory()[1] < 2 << 20
    finally:
        tracemalloc.stop()
    assert naive_export_preorder(fam) == text
    assert _routing(naive_read_preorder(text)) == _routing(fam)


@pytest.mark.parametrize("N", [4000, 46_340])
def test_reader_takes_no_time_over_an_empty_block(N):
    # no containers, and one node with both children DEAD: the digit passes
    # follow the lines there are, not the universe's hex width
    text = f"{N} 3 1/10 0.5 0\n5\n-1\n-1\n"
    start = time.monotonic()
    fam = ContainerFamily.from_export_text(text)
    assert time.monotonic() - start < 2
    assert (fam.containers, _routing(fam)) == ([], (0, [5], [DEAD], [DEAD]))
    assert fam.export_text() == text


def test_reader_reads_ragged_lines_past_one_word():
    # containers of up to 1,056 bits on [33], with as many digits as they
    # need, in upper case, or zero-padded past the universe's 264 digits:
    # each word past the first is read over the lines that reach it
    rng = random.Random(7)
    values = [rng.getrandbits(rng.randint(1, 33 * 32)) for _ in range(200)]
    lines = [rng.choice([f"{v:x}", f"{v:X}", f"{v:0300x}"]) for v in values]
    text = _joined(f"33 3 1/10 0.5 {len(values)}", *lines, "0", "-2", "-1")
    assert ContainerFamily.from_export_text(text).containers == values
    assert naive_read_preorder(text).containers == values


def test_reader_reads_one_long_line_among_short_ones():
    # 100,000 one-digit containers and one of 400,000 digits on [46,340]: the
    # words before each line's last are read together, not in a pass of their own
    text = "".join(["46340 3 1/10 0.5 100001\n", "1\n" * 100_000, "f" * 400_000, "\n-2\n"])
    start = time.monotonic()
    fam = ContainerFamily.from_export_text(text)
    assert time.monotonic() - start < 2
    assert fam.containers[0] == 1 and fam.containers[-1] == (1 << 1_600_000) - 1


def test_reader_memory_on_the_bench_export(pinned_families):
    # the c3 export on [6] that the benchmark reads: one read peaks near 7.2 MiB
    text = pinned_families[("c3", 6, Fraction(1, 5), None)][1].export_text()
    tracemalloc.start()
    try:
        ContainerFamily.from_export_text(text)
        assert tracemalloc.get_traced_memory()[1] < 10 << 20
    finally:
        tracemalloc.stop()


def test_reader_orders_more_open_slots_than_int16_holds():
    # the path leaves one included subtree open per even node: 2^16 + 2 open
    # child slots at its deepest code, so the counts 1 and 2^16 + 1 would be
    # one 16-bit value.  The root's included child, its last line, is leaf 1
    N = 363     # N(N-1) > 2^17 + 1, the path's last pivot
    width = (N * N - N + 3) // 4
    tree = _deep_path((1 << 17) + 2)[:-1] + ["-3"]
    text = "".join([f"{N} 3 1/10 0.5 2\n", f"{1:0{width}x}\n", f"{2:0{width}x}\n",
                    *(f"{code}\n" for code in tree)])
    fam = ContainerFamily.from_export_text(text)
    assert _routing(fam) == _routing(naive_read_preorder(text))
    assert fam.in_child[0] == -3
    assert fam.export_text() == text
