"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive (itertools over permutations and
subsets, Fractions, no bitsets, no incremental state) so that agreement with
the package is a genuine dual-route check, not the same code twice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, groupby, permutations, product


def naive_copy_images(edges: frozenset, n: int, h_edges: frozenset, h_n: int) -> set[frozenset]:
    """Distinct edge images of injective placements of the pattern."""
    images = set()
    if h_n > n:
        return images
    for img in permutations(range(n), h_n):
        mapped = frozenset((img[u], img[v]) for u, v in h_edges)
        if mapped <= edges:
            images.add(mapped)
    return images


def naive_count_copies(edges: frozenset, n: int, h_edges: frozenset, h_n: int) -> int:
    return len(naive_copy_images(edges, n, h_edges, h_n))


def naive_compiled_copies(n: int, h_edges: frozenset, h_n: int) -> list[tuple]:
    """The r-edge subsets of the complete digraph on [n] (r = |h_edges|) that
    hold a copy of the pattern, each as the sorted tuple of its edges, sorted."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return [subset for subset in combinations(arcs, len(h_edges))
            if naive_count_copies(frozenset(subset), n, h_edges, h_n)]


def naive_subsets(h_edges) -> list[tuple[tuple, int, int]]:
    """(subset, e, v) for every edge subset with at least two edges."""
    edges = sorted(h_edges)
    out = []
    for size in range(2, len(edges) + 1):
        for subset in combinations(edges, size):
            verts = {x for e in subset for x in e}
            out.append((subset, size, len(verts)))
    return out


def naive_m(h_edges) -> tuple[Fraction | None, bool]:
    """(max (e-1)/(v-2) over subsets with v >= 3, two-cycle-subset flag)."""
    best = None
    flag = False
    for _, e, v in naive_subsets(h_edges):
        if v == 2:
            flag = True
            continue
        cand = Fraction(e - 1, v - 2)
        if best is None or cand > best:
            best = cand
    return best, flag


def naive_witnesses(h_edges) -> tuple[tuple, tuple | None]:
    """(subset, e, v) of largest e/v, and of largest (e-1)/(v-2) over v >= 3
    (None if no subset spans three vertices); ties go to the subset of
    least mask, bit i standing for the i-th edge in sorted order."""
    edges = sorted(h_edges)

    def first_max(ratio, rows):
        rows = list(rows)
        if not rows:
            return None
        return max(rows, key=lambda row: (ratio(row[1], row[2]),
                                          -sum(1 << edges.index(x) for x in row[0])))

    subsets = naive_subsets(h_edges)
    return (first_max(Fraction, subsets),
            first_max(lambda e, v: Fraction(e - 1, v - 2), (s for s in subsets if s[2] >= 3)))


def naive_max_density(h_edges) -> Fraction:
    return max(Fraction(e, v) for _, e, v in naive_subsets(h_edges))


def naive_condition(h_edges, a: Fraction) -> bool:
    return naive_max_density(h_edges) <= a / 2


def all_digraph_edge_sets(n: int):
    """Every labelled digraph on [n], as a frozenset of ordered pairs."""
    pairs = list(combinations(range(n), 2))
    for states in product(range(4), repeat=len(pairs)):
        edges = []
        for (i, j), t in zip(pairs, states):
            if t & 1:
                edges.append((i, j))
            if t & 2:
                edges.append((j, i))
        yield frozenset(edges)


def f_counts(edges: frozenset) -> tuple[int, int]:
    f2 = sum(1 for u, v in edges if u < v and (v, u) in edges)
    return f2, len(edges) - 2 * f2


def naive_extremal(n: int, h_edges: frozenset, h_n: int, a: Fraction):
    """(max a*f2+f1 over pattern-free digraphs, free count, attaining count)."""
    best = None
    free = 0
    attain = 0
    for edges in all_digraph_edge_sets(n):
        if naive_count_copies(edges, n, h_edges, h_n) != 0:
            continue
        free += 1
        f2, f1 = f_counts(edges)
        val = a * f2 + f1
        if best is None or val > best:
            best = val
            attain = 1
        elif val == best:
            attain += 1
    return best, free, attain


def naive_supersat(n: int, h_edges: frozenset, h_n: int, a: Fraction, k_max: int):
    """max a*f2+f1 over digraphs with at most k copies, for k in 0..k_max."""
    best = [None] * (k_max + 1)
    for edges in all_digraph_edge_sets(n):
        c = naive_count_copies(edges, n, h_edges, h_n)
        if c > k_max:
            continue
        f2, f1 = f_counts(edges)
        val = a * f2 + f1
        for k in range(c, k_max + 1):
            if best[k] is None or val > best[k]:
                best[k] = val
    return best


def burnside_digraph_classes(n: int) -> int:
    """Number of digraph isomorphism classes on [n] via orbit counting:
    average over all vertex permutations of 2^(orbits on ordered pairs)."""
    total = 0
    ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
    for perm in permutations(range(n)):
        seen = set()
        orbits = 0
        for e in ordered:
            if e in seen:
                continue
            orbits += 1
            u, v = e
            while (u, v) not in seen:
                seen.add((u, v))
                u, v = perm[u], perm[v]
        total += 2 ** orbits
    return total // math.factorial(n)


def naive_codegree_sums(universe_size: int, edges: list[tuple[int, ...]], r: int) -> dict[int, int]:
    """Sum over universe vertices of max co-degree over j-subsets through it.

    Quadratic in the number of hyperedges: candidate subsets come from the
    edges themselves (anything else has co-degree zero), and each candidate
    is scored by scanning the whole edge list.
    """
    edge_sets = [set(e) for e in edges]
    sums = {}
    for j in range(2, r + 1):
        candidates = set()
        for e in edges:
            for combo in combinations(sorted(e), j):
                candidates.add(combo)
        d = {}
        for sigma in candidates:
            s = set(sigma)
            d[sigma] = sum(1 for es in edge_sets if s <= es)
        per_vertex = [0] * universe_size
        for sigma, val in d.items():
            for v in sigma:
                if val > per_vertex[v]:
                    per_vertex[v] = val
        sums[j] = sum(per_vertex)
    return sums


def naive_automorphisms(n: int, edges: frozenset) -> list[tuple[int, ...]]:
    """Vertex permutations (perm[old] = new) mapping the edge set onto itself,
    all n! tried, in lexicographic order."""
    return [perm for perm in permutations(range(n))
            if frozenset((perm[u], perm[v]) for u, v in edges) == edges]


def relabel(g, perm):
    """The image of the digraph g under the vertex permutation perm
    (perm[old] = new)."""
    from digraphlab import Digraph

    return Digraph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def class_route_count(k: int, pattern) -> int:
    """The number of labelled pattern-free digraphs on [k+1], by classes.

    Each free class g on [k] has k!/|Aut g| labellings, and each of them is
    extended by every attachment code that keeps it free.  It goes through
    canonical growth and automorphism counts, which ``count_free`` does not
    touch, so it is a second route for f*(6).
    """
    from digraphlab import automorphism_count, free_classes
    from digraphlab.extremal import _attachment_table, _free_codes

    fact = math.factorial(k)
    table = _attachment_table(k, pattern)
    return sum(fact // automorphism_count(g) * _free_codes(g, table).bit_count()
               for g in free_classes(k, pattern).values())


def naive_tie_groups(weight, f2: list[int], f1: list[int]) -> list[tuple[tuple[int, int], int]]:
    """The (pair, bitset) tie groups of ``extremal._tie_groups``, heaviest
    first, each group's bitset read off one string of flags, one per state."""
    key = cmp_to_key(weight.cmp_pairs)
    pairs = list(zip(f2, f1))
    groups = []
    for _, tied in groupby(sorted(set(pairs), key=key, reverse=True), key=key):
        tied = set(tied)
        flags = "".join("1" if pair in tied else "0" for pair in reversed(pairs))
        groups.append((min(tied), int(flags, 2)))
    return groups


def naive_greedy_seed(n: int, pattern, weight):
    """The digraph on [n] whose (f2, f1) seeds the canonical bound.

    Each level searches the parent's automorphisms, builds every extension
    by an orbit-minimal free code and keeps the first heaviest; a level with
    no free code gives the empty digraph on [n].
    """
    from digraphlab import Digraph
    from digraphlab.digraphs import automorphisms
    from digraphlab.extremal import _attachment_table, _children

    weighted = cmp_to_key(weight.cmp_pairs)
    g = Digraph(1, frozenset())
    for k in range(1, n):
        g = max(_children([(g, automorphisms(g))], _attachment_table(k, pattern)),
                key=lambda ext: weighted((ext.f2, ext.f1)), default=None)
        if g is None:
            return Digraph(n, frozenset())
    return g


def naive_blocks(n: int, pattern, c_max: int) -> list[tuple[int, list[int]]]:
    """The (hi, exact) rows of ``extremal._blocks``, one high state at a time.

    Per high state every copy is tested, and each one the state holds adds
    its low-state bitset into saturating bit-sliced counters.  It shares the
    copy list and the low-state bitsets with the walker, not the subset sums.
    """
    from digraphlab import extremal

    slots = extremal.pair_slots(n)
    bit = extremal._state_bits(n)
    low = min(len(slots), extremal._LOW_SLOTS)
    lo_full = (1 << 4 ** low) - 1
    copies = extremal.compile_copies(n, pattern)
    table = []  # per copy: (high part of its edge bits, bitset of its low states)
    for copy in copies:
        req = sum(1 << bit[e] for e in copy)
        table.append((req >> 2 * low, extremal._holding(2 * low, req & ((1 << 2 * low) - 1))))
    c_top = min(c_max, len(copies))
    planes = max(1, c_top.bit_length())
    rows = []
    for hi in range(4 ** (len(slots) - low)):
        # `counters` holds the count mod 2^planes, `over` the states whose
        # count reached 2^planes > c_top
        counters = [0] * planes
        over = 0
        for hi_req, carry in table:
            if hi & hi_req != hi_req:
                continue
            for j in range(planes):
                counters[j], carry = counters[j] ^ carry, counters[j] & carry
                if not carry:
                    break
            over |= carry
        exact = []
        for c in range(c_top + 1):
            mask = lo_full ^ over
            for j, plane in enumerate(counters):
                mask &= plane if c >> j & 1 else ~plane
            exact.append(mask)
        rows.append((hi, exact))
    return rows


def sorted_signature_colours(n: int, edges: frozenset) -> list[int]:
    """Iterated directed colour refinement with sorted tuple signatures.

    Start from the rank of (out-degree, in-degree, 2-cycle count); each round
    a vertex's signature is its colour and the sorted (relation, colour) pairs
    of the other vertices, relation 0 none, 1 out only, 2 in only, 3 both.
    Colours are ranks in the sorted set of signatures, so they are canonical
    under isomorphism.  Stops when a round splits no colour.
    """
    def rel(u, v):
        return ((u, v) in edges) | (((v, u) in edges) << 1)

    triples = [
        (sum((v, u) in edges for u in range(n)),
         sum((u, v) in edges for u in range(n)),
         sum(rel(v, u) == 3 for u in range(n) if u != v))
        for v in range(n)
    ]
    colours = [sorted(set(triples)).index(t) for t in triples]
    while True:
        sigs = [(colours[v], tuple(sorted((rel(v, u), colours[u]) for u in range(n) if u != v)))
                for v in range(n)]
        new = [sorted(set(sigs)).index(s) for s in sigs]
        if len(set(new)) == len(set(colours)):
            return new
        colours = new


def naive_canonical_key(n: int, edges: frozenset) -> bytes:
    """The canonical key by a minimum over every colour-respecting vertex order.

    Vertices are placed cell by cell in colour order, every order inside each
    cell tried.  Placing the k-th vertex appends, for p = 0..k-1, the bit of
    the edge from the p-th vertex to it, then the bit of the edge back.  The
    key is the byte n followed by the smallest such bit string, big-endian.
    """
    if n == 1:
        return bytes([1])
    colours = sorted_signature_colours(n, edges)
    cells = [[v for v in range(n) if colours[v] == c] for c in sorted(set(colours))]
    best = None
    for parts in product(*(permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        bits = "".join(
            f"{int((order[p], order[k]) in edges)}{int((order[k], order[p]) in edges)}"
            for k in range(n) for p in range(k)
        )
        if best is None or bits < best:
            best = bits
    return bytes([n]) + int(best, 2).to_bytes(max(1, (n * (n - 1) + 7) // 8), "big")


def naive_build_containers(hg, eps: Fraction):
    """The container decision tree, built recursively with per-edge lists.

    Returns ``(root, pivots, out_child, in_child, containers, spans)`` as
    plain lists, numbered as the recursion visits nodes (excluded branch
    first) and emits containers.  No guards: callers keep the tree small.
    """
    dead = -1
    total = hg.edge_count
    full_mask = (1 << hg.universe.size) - 1
    rem = [list(e) for e in hg.edges]     # elements not yet in the fingerprint
    alive = [True] * total
    edges_with = hg.incidence
    deg = [len(eids) for eids in edges_with]
    pivots, out_child, in_child, containers, spans = [], [], [], [], []
    index: dict[int, int] = {}

    def stops(spanned: int) -> bool:
        return spanned <= eps * total

    def emit(out_mask: int, spanned: int) -> int:
        cmask = full_mask & ~out_mask
        if cmask not in index:
            index[cmask] = len(containers)
            containers.append(cmask)
            spans.append(spanned)
        return -index[cmask] - 2

    def visit(spanned: int, out_mask: int) -> int:
        pivot = deg.index(max(deg))
        node = len(pivots)
        pivots.append(pivot)
        out_child.append(dead)
        in_child.append(dead)
        live = [eid for eid in edges_with[pivot] if alive[eid]]
        out_spanned = spanned - len(live)
        if stops(out_spanned):
            out_child[node] = emit(out_mask | (1 << pivot), out_spanned)
        else:
            for eid in live:
                alive[eid] = False
                for v in rem[eid]:
                    deg[v] -= 1
            out_child[node] = visit(out_spanned, out_mask | (1 << pivot))
            for eid in live:
                alive[eid] = True
                for v in rem[eid]:
                    deg[v] += 1
        if any(len(rem[eid]) == 1 for eid in live):
            return node
        for eid in live:
            rem[eid].remove(pivot)
        deg[pivot] = 0
        in_child[node] = visit(spanned, out_mask)
        deg[pivot] = len(live)
        for eid in live:
            rem[eid].append(pivot)
        return node

    root = emit(0, total) if stops(total) else visit(total, 0)
    return root, pivots, out_child, in_child, containers, spans


def _naive_head(fam) -> list[str]:
    """A family's header and hex container lines."""
    n_u = fam.N * (fam.N - 1)
    w = max(1, (n_u + 3) // 4)
    return [f"{fam.N} {fam.r} {fam.eps} {fam.tau!r} {len(fam.containers)}",
            *(f"{c:0{w}x}" for c in fam.containers)]


def naive_export_paths(fam) -> str:
    """A family's export in the fingerprint-path format the reader once took:
    one line per container leaf, written by an explicit depth-first walk.

    ``fam`` needs ``N r eps tau containers root pivots out_child in_child``.
    The walk descends the excluded branch first; a path's tokens are
    ``<pair index><+|->`` (``.`` for the empty path), then the leaf's index.
    """
    dead = -1
    lines = _naive_head(fam)
    stack = [(fam.root, [])]
    while stack:
        code, path = stack.pop()
        if code == dead:
            continue
        if code < 0:
            lines.append(f"{','.join(path) or '.'} {-code - 2}")
            continue
        v = fam.pivots[code]
        stack.append((fam.in_child[code], path + [f"{v}+"]))
        stack.append((fam.out_child[code], path + [f"{v}-"]))
    return "\n".join(lines) + "\n"


def naive_export_preorder(fam) -> str:
    """A family's export, its routing tree written by an explicit preorder walk:
    one code per line, a node's pivot before its excluded, then its included subtree."""
    lines = _naive_head(fam)
    stack = [fam.root]
    while stack:
        code = stack.pop()
        if code < 0:
            lines.append(str(code))
            continue
        lines.append(str(fam.pivots[code]))
        stack.append(fam.in_child[code])
        stack.append(fam.out_child[code])
    return "\n".join(lines) + "\n"


def _naive_read_head(text: str):
    """The non-blank lines of a family export, its header fields and its
    containers, or the package's ``ParseError`` with the reader's message."""
    import re

    from digraphlab.errors import ParseError

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty family export")
    head = lines[0].split()
    if len(head) != 5:
        raise ParseError("family header needs 'N r eps tau count'", 1)
    if not re.fullmatch(r"[0-9]+(/[0-9]+)?", head[2]):
        raise ParseError(f"bad family header: eps {head[2]!r} is not a fraction p/q", 1)
    try:
        N, r = int(head[0]), int(head[1])
        eps = Fraction(head[2])
        tau = float(head[3])
        count = int(head[4])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad family header: {exc}", 1) from None
    if N < 2:
        raise ParseError(f"family header N={N} below 2", 1)
    if N * (N - 1) >= 1 << 31:
        raise ParseError(f"family header N={N}: N(N-1) reaches 2^31", 1)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ParseError(f"family header eps={eps} outside (0, 1/2)", 1)
    if not 0 < tau <= 1:
        raise ParseError(f"family header tau={head[3]} outside (0, 1]", 1)
    if count < 0:
        raise ParseError(f"family header count {count} is negative", 1)
    n_u = N * N - N
    containers = []
    for k in range(min(count, len(lines) - 1)):
        hex_s = lines[1 + k].strip()
        if not re.fullmatch(r"[0-9a-fA-F]+", hex_s):
            raise ParseError("bad container bitset", 2 + k)
        if int(hex_s, 16) >> n_u:
            raise ParseError(f"container bitset has a bit at or above N(N-1)={n_u}", 2 + k)
        containers.append(int(hex_s, 16))
    if len(containers) < count:
        raise ParseError("family export truncated: missing containers")
    return lines, (N, r, eps, tau, count), containers


def naive_read_paths(text: str):
    """A fingerprint-path export (``naive_export_paths``) read line by line,
    its paths inserted one by one into a trie.

    Returns a namespace with ``N r eps tau containers root pivots out_child
    in_child`` (plain lists; nodes numbered as the lines create them), or
    raises the package's ``ParseError``.  Lines are counted among the
    non-blank ones.
    """
    import re
    from types import SimpleNamespace

    from digraphlab.errors import ParseError

    dead = -1
    lines, (N, r, eps, tau, count), containers = _naive_read_head(text)
    n_u = N * N - N
    pivots, out_child, in_child = [], [], []
    top = [dead]             # the slot holding the root
    last = None              # the path of the line before
    for line, ln in enumerate(lines[1 + count:], start=2 + count):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("bad fingerprint pair", line)
        path_s, idx_s = parts
        steps = []
        for tok in ([] if path_s == "." else path_s.split(",")):
            if not tok or tok[-1] not in "+-" or not re.fullmatch("[0-9]+", tok[:-1]):
                raise ParseError(f"bad fingerprint token {tok!r}", line)
            if int(tok[:-1]) >= n_u:
                raise ParseError(f"fingerprint pivot {int(tok[:-1])} not in 0..{n_u - 1}", line)
            steps.append((int(tok[:-1]), tok[-1] == "+"))
        if not (re.fullmatch("[0-9]+", idx_s) and int(idx_s) < count):
            raise ParseError(f"container index {idx_s!r} not in 0..{count - 1}", line)
        # the writer's order: at the first step where this path leaves the
        # last one, both take the same pivot, the last one its excluded branch
        if last is not None:
            d = next((d for d, (s, t) in enumerate(zip(last, steps)) if s != t), None)
            if d is None:
                raise ParseError("conflicting fingerprint paths", line)
            if last[d][0] != steps[d][0]:
                raise ParseError("fingerprint paths disagree on pivot", line)
            if last[d][1]:
                raise ParseError("fingerprint paths out of depth-first order", line)
        last = steps
        kids, at = top, 0    # the walk stands in slot kids[at]
        for piv, plus in steps:
            code = kids[at]
            if code == dead:
                code = len(pivots)
                pivots.append(piv)
                out_child.append(dead)
                in_child.append(dead)
                kids[at] = code
            elif code < 0:
                raise ParseError("conflicting fingerprint paths", line)
            elif pivots[code] != piv:
                raise ParseError("fingerprint paths disagree on pivot", line)
            kids, at = (in_child if plus else out_child), code
        if kids[at] != dead:
            raise ParseError("conflicting fingerprint paths", line)
        kids[at] = -int(idx_s) - 2
    return SimpleNamespace(N=N, r=r, eps=eps, tau=tau, containers=containers, root=top[0],
                           pivots=pivots, out_child=out_child, in_child=in_child)


def naive_read_preorder(text: str):
    """A family export read line by line, its routing tree built on a stack
    of the child slots still open, the next to fill on top.

    Returns the namespace ``naive_read_paths`` does (nodes numbered in
    preorder), or raises the package's ``ParseError`` with the reader's
    message and line.
    """
    import re
    from types import SimpleNamespace

    from digraphlab.errors import ParseError

    dead = -1
    lines, (N, r, eps, tau, count), containers = _naive_read_head(text)
    n_u = N * N - N
    pivots, out_child, in_child = [], [], []
    top = [dead]
    slots = [(top, 0)]       # (list, index) of each open child slot
    for line, tok in enumerate(lines[1 + count:], start=2 + count):
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ParseError(f"bad tree code {tok!r}", line)
        if not slots:
            raise ParseError("code past the end of the routing tree", line)
        digits = tok.lstrip("-").lstrip("0")
        value = int(digits or "0") if len(digits) < 100 else 10 ** 100
        value = -value if tok[0] == "-" else value
        if value >= n_u:
            raise ParseError(f"tree pivot {tok} not in 0..{n_u - 1}", line)
        if value < -1 - count:
            raise ParseError(f"tree leaf {tok} not in -{count + 1}..-1", line)
        kids, at = slots.pop()
        if value < 0:
            kids[at] = value
            continue
        kids[at] = len(pivots)
        pivots.append(value)
        out_child.append(dead)
        in_child.append(dead)
        slots.append((in_child, kids[at]))
        slots.append((out_child, kids[at]))
    if slots:
        raise ParseError(f"routing tree ends with {len(slots)} branch(es) open", len(lines))
    return SimpleNamespace(N=N, r=r, eps=eps, tau=tau, containers=containers, root=top[0],
                           pivots=pivots, out_child=out_child, in_child=in_child)
