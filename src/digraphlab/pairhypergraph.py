"""The auxiliary uniform hypergraph on ordered pairs, and its co-degree
analytics.

Vertices of the hypergraph are the N^2-N ordered pairs of distinct elements
of [N]; hyperedges are the edge images of injective placements of the pattern,
so pattern-free digraphs on [N] are exactly the independent sets.  The
co-degree profile computes the exact per-level sums behind the normalised
quantities delta_j and assembles the weighted co-degree function used to
gate the container construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .density import degree_lemma_constant, require_usable_m
from .digraphs import Digraph, PatternDigraph, count_copies, falling
from .errors import BudgetError, PreconditionError, VerificationError
from .extremal import _bits, compile_copies

BUILD_INJECTION_BUDGET = 5_000_000


@dataclass(frozen=True)
class PairUniverse:
    """All ordered pairs (i, j), i != j, of [N], with a fixed index codec."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise PreconditionError("pair universe needs N >= 2")

    @property
    def size(self) -> int:
        return self.N * self.N - self.N

    def pair_index(self, i: int, j: int) -> int:
        """idx = i*(N-1) + (j if j < i else j-1)."""
        return i * (self.N - 1) + (j if j < i else j - 1)

    def index_pair(self, idx: int) -> tuple[int, int]:
        i, t = divmod(idx, self.N - 1)
        return i, (t if t < i else t + 1)

    def digraph_from_mask(self, mask: int) -> Digraph:
        return Digraph(self.N, frozenset(map(self.index_pair, _bits(mask))))


@dataclass(frozen=True)
class PairHypergraph:
    """r-uniform hypergraph whose hyperedges are labelled pattern copies."""

    universe: PairUniverse
    r: int
    edges: tuple[tuple[int, ...], ...]  # sorted tuples of pair indices
    labelled_copy_count: int

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << idx for idx in e) for e in self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.universe.size)]
        for eid, e in enumerate(self.edges):
            for idx in e:
                inc[idx].append(eid)
        return tuple(tuple(x) for x in inc)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max((len(x) for x in self.incidence), default=0)

    def average_degree(self) -> Fraction:
        if self.universe.size == 0:
            raise PreconditionError("empty universe")
        return Fraction(self.r * self.edge_count, self.universe.size)

    def export_text(self) -> str:
        lines = [f"N={self.universe.N} r={self.r} edges={self.edge_count}"]
        for e in self.edges:
            lines.append(" ".join(str(i) for i in e))
        return "\n".join(lines) + "\n"


def build_hypergraph(N: int, pattern: PatternDigraph) -> PairHypergraph:
    """Materialise the auxiliary hypergraph on [N] for the pattern.

    Hyperedges are the copies of ``compile_copies(N, pattern)``, each edge
    (u, v) read as the pair index ``pair_index(u, v)``.  The labelled count
    keeps the raw number of injections (it equals edge count times the
    automorphism count whenever copies never coincide).
    """
    if N < pattern.h:
        raise PreconditionError(f"N={N} below pattern vertex count h={pattern.h}")
    raw = falling(N, pattern.h)
    if raw > BUILD_INJECTION_BUDGET:
        raise BudgetError(f"{raw} injections exceed the build budget {BUILD_INJECTION_BUDGET}")
    uni = PairUniverse(N)
    edges = sorted(
        tuple(sorted(uni.pair_index(u, v) for u, v in copy)) for copy in compile_copies(N, pattern)
    )
    # every injection of the full pattern realises a copy (the host is the
    # complete digraph), so the labelled count is the raw injection count
    hg = PairHypergraph(uni, pattern.r, tuple(edges), raw)
    _self_check(hg, pattern)
    return hg


def _self_check(hg: PairHypergraph, pattern: PatternDigraph) -> None:
    """Every hyperedge decodes to exactly one spanning copy of the pattern,
    by an embedding search that shares no code with the copy table."""
    for e, mask in zip(hg.edges, hg.edge_masks):
        if len(e) != pattern.r:
            raise VerificationError("hyperedge size differs from pattern edge count")
        if count_copies(hg.universe.digraph_from_mask(mask), pattern) != 1:
            raise VerificationError("hyperedge does not decode to exactly one pattern copy")


# ---------------------------------------------------------------------------
# Co-degree profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodegreeProfile:
    tau: float
    r: int
    universe_size: int
    edge_count: int
    labelled_count: int
    d_avg: Fraction
    max_degree: int
    codegree_sums: dict[int, int]       # j -> sum over universe vertices of d^(j)(v)
    delta_j: dict[int, float]           # average-degree normalisation
    delta: float
    delta_j_maxnorm: dict[int, float]   # max-degree normalisation (alternate form)
    delta_maxnorm: float


def _codegree_sums(hg: PairHypergraph) -> dict[int, int]:
    """Exact sums of d^(j)(v) = max over j-subsets through v of their co-degree.

    Only subsets lying inside at least one hyperedge can have positive
    co-degree, so for each vertex we count, over the incident hyperedges,
    every (j-1)-subset of the remaining elements.
    """
    r = hg.r
    sums = {j: 0 for j in range(2, r + 1)}
    for v in range(hg.universe.size):
        eids = hg.incidence[v]
        if not eids:
            continue
        others = [tuple(x for x in hg.edges[eid] if x != v) for eid in eids]
        for j in range(2, r + 1):
            counter = Counter(combo for rest in others for combo in combinations(rest, j - 1))
            sums[j] += max(counter.values())
    return sums


def codegree_profile(hg: PairHypergraph, tau: float) -> CodegreeProfile:
    """Exact co-degree sums plus the weighted co-degree function at tau.

    The normalisation divides by tau^(j-1) * n * d with d the average degree
    (the identity used when the degree bound is consumed); the max-degree
    variant divides by the maximum degree instead and is reported alongside.
    """
    if not (0 < tau <= 1):
        raise PreconditionError(f"tau={tau} outside (0, 1]")
    if hg.edge_count == 0:
        raise PreconditionError("co-degree profile undefined on an empty hypergraph")
    if hg.r > 20:   # the sums walk 2^(r-1) subsets per incidence: subset_maxima's bound
        raise BudgetError(f"co-degree sums over 2^{hg.r - 1} subsets per incidence refused")
    sums = _codegree_sums(hg)
    r = hg.r
    n_d = hg.r * hg.edge_count  # n * d_avg collapses to r * |edges|
    delta1 = hg.max_degree
    n_max = hg.universe.size * delta1
    delta_j = {j: sums[j] / (tau ** (j - 1) * n_d) for j in sums}
    delta_j_max = {j: sums[j] / (tau ** (j - 1) * n_max) for j in sums}
    scale = 2.0 ** (math.comb(r, 2) - 1)
    delta = scale * sum(2.0 ** (-(j - 1)) * delta_j[j] for j in delta_j)
    delta_max = scale * sum(2.0 ** (-(j - 1)) * delta_j_max[j] for j in delta_j_max)
    return CodegreeProfile(
        tau=tau,
        r=r,
        universe_size=hg.universe.size,
        edge_count=hg.edge_count,
        labelled_count=hg.labelled_copy_count,
        d_avg=hg.average_degree(),
        max_degree=delta1,
        codegree_sums=sums,
        delta_j=delta_j,
        delta=delta,
        delta_j_maxnorm=delta_j_max,
        delta_maxnorm=delta_max,
    )


# ---------------------------------------------------------------------------
# Degree-bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaRow:
    N: int
    tau: float
    delta: float
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class LemmaReport:
    gamma: Fraction
    m: Fraction
    constant: int
    rows: tuple[LemmaRow, ...]
    all_ok: bool


def verify_degree_lemma(pattern: PatternDigraph, N_values, gamma: Fraction) -> LemmaReport:
    """Check delta(D(N,H), gamma^-1 * N^(-1/m)) <= C(H)*gamma for each N.

    Requires a usable (finite, unflagged) exponent m and gamma <= 1.  The
    verdict compares the float delta against the exact bound; the slack in
    every desk-scale instance is many orders of magnitude.
    """
    gamma = Fraction(gamma)
    if gamma > 1 or gamma <= 0:
        raise PreconditionError(f"gamma={gamma} outside (0, 1]")
    m = require_usable_m(pattern)
    constant = degree_lemma_constant(pattern)
    bound = Fraction(constant) * gamma
    rows = []
    for N in N_values:
        hg = build_hypergraph(N, pattern)
        try:
            tau = float(1 / gamma) * N ** (-1 / float(m))
        except OverflowError:  # 1/gamma past the float range puts tau far above 1
            raise PreconditionError(f"gamma={gamma} puts tau above 1 at N={N}") from None
        prof = codegree_profile(hg, tau)
        ok = prof.delta <= float(bound)
        rows.append(LemmaRow(N, tau, prof.delta, bound, ok))
    return LemmaReport(gamma, m, constant, tuple(rows), all(r.ok for r in rows))


def tau_for(N: int, m: Fraction) -> float:
    """The pipeline's branching scale N^(-1/m)."""
    return N ** (-1 / float(m))
