"""Labelled digraphs: exact representation, parsing, copy counting and
canonical forms.

A digraph lives on vertices 0..n-1 with no loops and no repeated ordered
pairs; between two vertices there may be no edge, a single directed edge, or
both opposite edges (a 2-cycle).  Everything here is immutable and pure, so
all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetError, ParseError, PreconditionError

MAX_VERTICES = 64
_CANONICAL_MAX = 10  # minimisation over permutations; factorial beyond this is hopeless

# numbers are kept short: int() refuses a string past 4300 digits
_HEADER_RE = re.compile(r"^n\s*=\s*(\d{1,18})$")


def falling(n: int, k: int) -> int:
    """Falling factorial n*(n-1)*...*(n-k+1)."""
    return math.perm(n, k)


@dataclass(frozen=True)
class Digraph:
    """Immutable labelled digraph on [n] = {0, ..., n-1}.

    out_mask[u] has bit v set iff the edge u->v is present, in_mask[u] bit v
    iff v->u is; f2 counts the pairs joined both ways (2-cycles) and f1 the
    pairs joined by one directed edge.  All four are filled by the pass that
    checks the edges.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    out_mask: tuple[int, ...] = field(init=False, repr=False, compare=False)
    in_mask: tuple[int, ...] = field(init=False, repr=False, compare=False)
    f2: int = field(init=False, repr=False, compare=False)
    f1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if not 1 <= n <= MAX_VERTICES:
            raise PreconditionError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        out = [0] * n
        inn = [0] * n
        for u, v in self.edges:
            if u == v:
                raise PreconditionError(f"loop edge ({u},{v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        f2 = sum((o & i).bit_count() for o, i in zip(out, inn)) // 2
        object.__setattr__(self, "out_mask", tuple(out))
        object.__setattr__(self, "in_mask", tuple(inn))
        object.__setattr__(self, "f2", f2)
        object.__setattr__(self, "f1", len(self.edges) - 2 * f2)

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    # -- manipulation --------------------------------------------------------

    def spanned_subgraph(self, edge_subset) -> "Digraph":
        """Digraph induced by an edge subset, reindexed onto its endpoints."""
        edge_subset = list(edge_subset)
        verts = sorted({x for e in edge_subset for x in e})
        idx = {v: i for i, v in enumerate(verts)}
        return Digraph(max(1, len(verts)), frozenset((idx[u], idx[v]) for u, v in edge_subset))

    def to_edge_text(self) -> str:
        lines = [f"n={self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edge_list)
        return "\n".join(lines) + "\n"


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list document format.

    Header line ``n=<int>``; each following line one edge ``<u> <v>``
    (0-based).  ``#`` starts a comment; ``;`` also separates logical lines so
    single-line documents work.  Errors name the physical line number.
    """
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for chunk in raw.split(";"):
            body = chunk.split("#", 1)[0].strip()
            if not body:
                continue
            if n is None:
                m = _HEADER_RE.match(body)
                if not m:
                    raise ParseError(f"expected header 'n=<int>', got {body!r}", lineno)
                n = int(m.group(1))
                if not 1 <= n <= MAX_VERTICES:
                    raise ParseError(f"vertex count {n} outside 1..{MAX_VERTICES}", lineno)
                continue
            parts = body.split()
            if len(parts) != 2 or not all(p.isdecimal() and len(p) <= 18 for p in parts):
                raise ParseError(f"malformed edge line {body!r}", lineno)
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ParseError(f"loop edge ({u},{v})", lineno)
            if u >= n or v >= n:
                raise ParseError(f"vertex index {max(u, v)} >= n={n}", lineno)
            if (u, v) in seen:
                raise ParseError(f"duplicate edge ({u},{v})", lineno)
            seen.add((u, v))
            edges.append((u, v))
    if n is None:
        raise ParseError("empty document: missing header 'n=<int>'")
    return Digraph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def _embedding_plan(core: Digraph) -> list[tuple[list[int], list[int]]]:
    """Constraint-first visit order for embedding the core into a host.

    Entry i holds (need_out, need_in): slot indices j < i whose image must
    send an edge to / receive an edge from the vertex placed at slot i.
    """
    n = core.n
    out_m, in_m = core.out_mask, core.in_mask
    order: list[int] = []
    while len(order) < n:
        # most links to the placed vertices, then the highest degree, then the least index
        order.append(max((v for v in range(n) if v not in order), key=lambda v: (
            sum((out_m[u] | in_m[u]) >> v & 1 for u in order),
            out_m[v].bit_count() + in_m[v].bit_count(), -v)))
    return [([i for i, u in enumerate(order[:k]) if out_m[u] >> v & 1],
             [i for i, u in enumerate(order[:k]) if in_m[u] >> v & 1]) for k, v in enumerate(order)]


def _embed_search(g: Digraph, core: Digraph, plan) -> int:
    """Count injective embeddings of core into g."""
    k = core.n
    out_m, in_m = g.out_mask, g.in_mask
    full = (1 << g.n) - 1
    images = [0] * k

    def extend(i: int, used: int) -> int:
        need_out, need_in = plan[i]
        cand = full & ~used
        for s in need_out:
            cand &= out_m[images[s]]
        for s in need_in:
            cand &= in_m[images[s]]
        if i + 1 == k:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            images[i] = bit.bit_length() - 1
            total += extend(i + 1, used | bit)
        return total

    return extend(0, 0)


@dataclass(frozen=True)
class PatternDigraph:
    """A forbidden pattern H with cached derived data."""

    graph: Digraph

    def __post_init__(self):
        if len(self.graph.edges) < 2:
            raise PreconditionError("pattern needs at least 2 edges")

    @classmethod
    def from_text(cls, text: str) -> "PatternDigraph":
        return cls(parse_digraph(text))

    @cached_property
    def r(self) -> int:
        """Edge count of the pattern."""
        return len(self.graph.edges)

    @cached_property
    def h(self) -> int:
        """Vertex count of the pattern, isolated vertices included."""
        return self.graph.n

    @cached_property
    def aut(self) -> int:
        return automorphism_count(self.graph)

    @cached_property
    def subset_maxima(self) -> tuple[tuple[int, int, int], tuple[int, int, int] | None]:
        """subset_maxima over the sorted edge list, walked once per pattern."""
        return subset_maxima(self.graph.edge_list)

    @cached_property
    def core_digraph(self) -> Digraph:
        """The pattern restricted to its non-isolated vertices, reindexed."""
        return self.graph.spanned_subgraph(self.graph.edges)

    @cached_property
    def core_aut(self) -> int:
        return automorphism_count(self.core_digraph)

    @cached_property
    def embedding_plan(self):
        return _embedding_plan(self.core_digraph)


def count_copies(g: Digraph, pattern: PatternDigraph) -> int:
    """Number of distinct subsets of g's edges forming a copy of the pattern.

    A copy is the edge image of an injective vertex map of the whole pattern;
    two maps differing by a pattern automorphism give the same subset, so the
    count equals core embeddings / |Aut(core)|, gated on room for isolated
    vertices.  Zero iff g is pattern-free.
    """
    if g.n < pattern.h:
        return 0
    emb = _embed_search(g, pattern.core_digraph, pattern.embedding_plan)
    return emb // pattern.core_aut


def is_pattern_free(g: Digraph, pattern: PatternDigraph) -> bool:
    return count_copies(g, pattern) == 0


# ---------------------------------------------------------------------------
# Densest edge subsets
# ---------------------------------------------------------------------------

def _spans(edges) -> list[int]:
    """The endpoint set of every subset of edges, by mask: those of the mask
    without its highest bit, and that edge's."""
    span = [0]
    for u, v in edges:
        span += [s | 1 << u | 1 << v for s in span]
    return span


def subset_maxima(edges) -> tuple[tuple[int, int, int], tuple[int, int, int] | None]:
    """(e, v, mask) of the first edge subset of largest e/v, and of the first
    of largest (e-1)/(v-2) with v >= 3 (None if no subset spans 3 vertices),
    over subsets of e >= 2 edges with v endpoints; bit i of a mask picks
    edges[i], and "first" means the least mask.

    One walk in ascending mask order keeps the least mask of each (e, v),
    from endpoint tables of 2^(r/2) entries for the low and the high half
    of a mask; those few candidates are compared by cross-multiplication.
    """
    r = len(edges)
    if r > 20:
        raise BudgetError(f"subpattern scan over 2^{r} subsets refused")
    k = r // 2
    lo_span = _spans(edges[:k])
    lo_size = [lo.bit_count() for lo in range(1 << k)]
    first: dict[int, int] = {}  # v << 5 | e -> the least mask of e edges on v vertices
    for hi, hi_span in enumerate(_spans(edges[k:])):
        e = hi.bit_count()
        keys = [(hi_span | s).bit_count() << 5 | e + c for s, c in zip(lo_span, lo_size)]
        for key in set(keys).difference(first):
            first[key] = hi << k | keys.index(key)
    dense = shifted = None
    for mask, v, e in sorted((mask, key >> 5, key & 31) for key, mask in first.items()):
        if e > 1 and (dense is None or e * dense[1] > dense[0] * v):
            dense = (e, v, mask)
        if v > 2 and (shifted is None or (e - 1) * (shifted[1] - 2) > (shifted[0] - 1) * (v - 2)):
            shifted = (e, v, mask)
    return dense, shifted


# ---------------------------------------------------------------------------
# Canonical forms and automorphisms
# ---------------------------------------------------------------------------

def _colour_refine(g: Digraph) -> list[int]:
    """Iterated directed colour refinement; colour ids are canonical under
    isomorphism (ranks of sorted signatures at every round).

    Colours start as ranks of (out-degree, in-degree, 2-cycle count).  Every
    vertex has four relation masks over the other vertices: none, out only,
    in only, both.  A round's signature is one integer: the vertex's colour,
    then one 4-bit field 15 - |mask & cell| per (relation, colour cell),
    relation-major.  The integers sort as the tuples (colour, sorted
    (relation, colour of u) over the other vertices u) would, since a tuple
    holding more of a smaller pair sorts first; n - 1 <= 15 keeps each field
    in range.  Stops when a round splits no colour.
    """
    n = g.n
    full = (1 << n) - 1
    rels = []
    triples = []
    for v, (o, i) in enumerate(zip(g.out_mask, g.in_mask)):
        rels.append((full ^ (o | i | 1 << v), o & ~i, i & ~o, o & i))
        triples.append((o.bit_count(), i.bit_count(), (o & i).bit_count()))
    rank = {t: r for r, t in enumerate(sorted(set(triples)))}
    colours = [rank[t] for t in triples]
    while len(rank) < n:
        width = 4 * len(rank)  # the fields of one relation, first cell highest
        # tally[m] holds |m & cell| in the field of each cell, for every vertex set m
        tally = [0]
        for c in colours:
            unit = 1 << width - 4 - 4 * c
            tally += [t + unit for t in tally]
        top = (1 << 4 * width) - 1
        sigs = [
            c << 4 * width
            | top - (tally[no] << 3 * width | tally[out] << 2 * width | tally[inn] << width | tally[both])
            for c, (no, out, inn, both) in zip(colours, rels)
        ]
        split = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(split) == len(rank):
            break
        rank = split
        colours = [rank[s] for s in sigs]
    return colours


def _colour_cells(g: Digraph) -> list[list[int]]:
    """The vertices of each refined colour, in colour order."""
    colours = _colour_refine(g)
    cells = [[] for _ in range(max(colours) + 1)]
    for v, c in enumerate(colours):
        cells[c].append(v)
    return cells


def _canonical_search(g: Digraph, orders: list | _OrderCount | None) -> bytes:
    """The canonical key of g; when orders is a list (or an _OrderCount),
    every colour-respecting vertex order attaining the least word sequence
    is appended to it.  A discrete colouring admits one such order, read off
    without a search."""
    n = g.n
    if n > _CANONICAL_MAX:
        raise BudgetError(f"canonical form over {n}! permutations refused")
    if n == 1:
        if orders is not None:
            orders.append((0,))
        return bytes([1])
    out_m = g.out_mask
    cells = _colour_cells(g)
    acc = 0
    if len(cells) == n:
        order = [v for v, in cells]
        for k, v in enumerate(order):
            row = out_m[v]
            for u in order[:k]:
                acc = acc << 2 | (out_m[u] >> v & 1) << 1 | (row >> u & 1)
        if orders is not None:
            orders.append(tuple(order))
    else:
        for k, w in enumerate(_minimal_words(out_m, cells, orders)):
            acc = acc << 2 * k | w
    nbytes = max(1, (n * (n - 1) + 7) // 8)
    return bytes([n]) + acc.to_bytes(nbytes, "big")


def canonical_form(g: Digraph) -> bytes:
    """Canonical key: two digraphs get the same key iff they are isomorphic.

    Exact minimisation of the adjacency bit string over all colour-respecting
    vertex orders (colour refinement never separates vertices an isomorphism
    could exchange, so restricting to colour-respecting orders is lossless).
    The string is read in bordered order: placing vertex k appends the 2k bits
    (M[0,k], M[k,0], M[1,k], M[k,1], ..., M[k-1,k], M[k,k-1]).  The search
    also meets every automorphism (canonical_form_and_group); this call keeps
    none of them, so a large group costs it no memory.
    """
    return _canonical_search(g, None)


def canonical_form_and_orders(g: Digraph) -> tuple[bytes, list[tuple[int, ...]]]:
    """canonical_form(g) and every colour-respecting vertex order attaining
    it (order[i] is the vertex placed i-th), from one search.

    The optimal orders give one adjacency matrix, so the map from the first
    of them to each one is an automorphism.  An automorphism keeps the
    refined colours, so it maps the first order to an optimal one: the
    orders are the first one under Aut(g), each automorphism once, and
    their last vertices are the Aut(g)-orbit of the vertex placed last.
    """
    orders: list[tuple[int, ...]] = []
    return _canonical_search(g, orders), orders


def orders_group(orders: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The automorphisms that map the first optimal order to each one, as
    perm[old] = new, in lexicographic order (canonical_form_and_orders)."""
    if len(orders) == 1:
        return [tuple(range(len(orders[0])))]
    return sorted(tuple(v for _, v in sorted(zip(orders[0], order))) for order in orders)


def canonical_form_and_group(g: Digraph) -> tuple[bytes, list[tuple[int, ...]]]:
    """canonical_form(g) and automorphisms(g), from one search."""
    key, orders = canonical_form_and_orders(g)
    return key, orders_group(orders)


def _minimal_words(out_m: tuple[int, ...], cells: list[list[int]],
                   orders: list | _OrderCount | None) -> list[int]:
    """The lexicographically least word sequence over the vertex orders that
    place the cells one after another; word k is the 2k bits of vertex k.
    When orders is given, the vertex orders attaining it are appended."""
    n = len(out_m)
    # pair[u][v]: the 2 bits (u->v, v->u) that u, placed before v, adds to v's word
    pair = [[(out_m[u] >> v & 1) << 1 | (out_m[v] >> u & 1) for v in range(n)] for u in range(n)]
    slot_cell = [cell for cell in cells for _ in cell]
    used = [False] * n
    path = [0] * n
    inf = 1 << (2 * n + 2)  # larger than any word
    best = [inf] * n

    # words[v] is v's word against the first k placed vertices.  Invariant on
    # entry to dfs(k): the words of the vertices on path equal best[0..k-1]; a
    # strictly smaller word truncates best in place (the old deeper suffix is
    # dominated) and drops the orders recorded against it.  Only strictly
    # larger words are pruned, so every order attaining the global minimum
    # reaches a leaf, and none is improved on after the first one did
    def dfs(k: int, words: list[int]):
        if k == n:
            if orders is not None:
                orders.append(tuple(path))
            return
        for v in slot_cell[k]:
            if used[v]:
                continue
            w = words[v]
            if w > best[k]:
                continue
            if w < best[k]:
                best[k] = w
                for i in range(k + 1, n):
                    best[i] = inf
                if orders is not None:
                    orders.clear()
            used[v] = True
            path[k] = v
            dfs(k + 1, [x << 2 | b for x, b in zip(words, pair[v])])
            used[v] = False

    dfs(0, [0] * n)
    return best


def require_automorphism_budget(g: Digraph) -> None:
    """Refuse an automorphism search over more than 10 vertices."""
    if g.n > _CANONICAL_MAX:
        raise BudgetError(f"automorphism search over {g.n}! permutations refused")


def automorphisms(g: Digraph) -> list[tuple[int, ...]]:
    """Every automorphism of g, as perm[old] = new, in lexicographic order,
    read off the search that gives the canonical key
    (canonical_form_and_group).  A discrete colouring gives the identity."""
    require_automorphism_budget(g)
    return canonical_form_and_group(g)[1]


class _OrderCount:
    """An order sink for _canonical_search that keeps only how many it got."""

    count = 0

    def append(self, order):
        self.count += 1

    def clear(self):
        self.count = 0


def automorphism_count(g: Digraph) -> int:
    """|Aut(G)|, the number of orders attaining the least word sequence
    (n <= 10), counted in the search: no order is kept."""
    require_automorphism_budget(g)
    orders = _OrderCount()
    _canonical_search(g, orders)
    return orders.count
