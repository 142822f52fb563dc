"""Constructive container families for the pair hypergraph, with verification.

The builder is a deterministic binary decision tree over universe elements.
At each node it picks the live element of highest degree (ties: lowest pair
index) and branches on whether that element belongs to the independent set:

* excluded: the element joins the out-set, killing every hyperedge through
  it; the candidate container (universe minus out-set) shrinks;
* included: the element joins the fingerprint; hyperedges through it shrink,
  and a branch whose fingerprint swallows a whole hyperedge handles no
  independent set at all and is abandoned.

A branch stops as soon as the candidate container spans at most eps*e(D)
hyperedges; that leaf's container receives every independent set routed to
it, so coverage and sparsity hold by construction and are still re-verified
from scratch.  Hard guards (branch depth, fingerprint budget, node budget)
fail loudly; there is no silent partial family.  When several are breached,
the shallowest level's first breach is reported, in the order round cap,
fingerprint, nodes.

The tree is grown one depth level at a time with numpy: a node is two
rows of uint64 words (out-set and fingerprint), and the degrees of a chunk
of nodes are a float32 product with the hyperedge incidence matrix.  Nodes
and containers are then numbered as a depth-first build (excluded branch
first) would visit and emit them, and the tree is stored as ``array('i')``.
The verifier routes batches of sets down the tree together, one depth step
at a time.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np

from .digraphs import PatternDigraph, count_copies
from .errors import ContainerBuildError, ParseError, PreconditionError, VerificationError
from .extremal import (
    FULL_MODE_MAX_N,
    CANONICAL_MODE_MAX_N,
    ExtremalResult,
    extremal_number,
    iter_free_edge_masks,
)
from .pairhypergraph import PairHypergraph, PairUniverse, build_hypergraph, tau_for
from .density import condition_a, require_usable_m
from .weights import WeightParam

DEAD = -1  # child code: branch handles no independent set
_WORD_MASK = (1 << 64) - 1
_F32_EXACT = 1 << 24     # float32 holds every integer below this exactly
# hyperedges x universe: the size of the builder's float32 incidence matrix
# and the multiply-adds of one node's degrees
_INCIDENCE_CELLS = 1 << 21
# Frontier rows per step: enough to cover numpy's per-call cost (at least
# _MIN_ROWS), and few enough that rows x hyperedges stays under _STEP_CELLS.
# Each degree product keeps rows x hyperedges x universe under _BLAS_CELLS,
# which OpenBLAS runs on one thread: on a loaded 2-core machine, waking its
# threads cost milliseconds per call.
_MIN_ROWS = 64
_STEP_CELLS = 1 << 20
_BLAS_CELLS = 1 << 19
_ROUTE_BATCH = 65_536    # free sets the exhaustive verifier routes together
_HEX = re.compile(r"[0-9a-fA-F]+")
# the header eps as the builder writes it; Fraction's exponent forms such as
# 1e-9999999 would first build a ten-million-digit integer
_FRACTION = re.compile(r"[0-9]+(/[0-9]+)?")


def _leaf_code(container_idx: int) -> int:
    return -container_idx - 2


def _leaf_index(code: int) -> int:
    return -code - 2


@dataclass
class ContainerFamily:
    """Decision tree plus the deduplicated list of containers it emits."""

    N: int
    r: int
    eps: Fraction
    tau: float
    total_edges: int
    containers: list[int]           # universe bitmasks
    spans: list[int]                # builder's spanned-hyperedge counts
    root: int                       # node index or leaf code
    pivots: array                   # array('i'), like the two child codes
    out_child: array
    in_child: array

    @cached_property
    def universe(self) -> PairUniverse:
        return PairUniverse(self.N)

    def route(self, mask: int) -> int | None:
        """Container index covering the independent set given as a bitmask."""
        code = self.root
        while code >= 0:
            v = self.pivots[code]
            code = self.in_child[code] if (mask >> v) & 1 else self.out_child[code]
        return None if code == DEAD else _leaf_index(code)

    def fingerprint_pairs(self) -> list[tuple[str, int]]:
        """(path string, container index) per container leaf, in DFS order.

        Path tokens are ``<pair index><+|->`` for the included/excluded
        branch; paths are prefix-free and reconstruct the routing tree.
        """
        out: list[tuple[str, int]] = []
        path: list[str] = []     # the tokens from the root to the popped code
        stack = [(self.root, 0, "")]
        while stack:
            code, depth, token = stack.pop()
            if depth:
                del path[depth - 1:]
                path.append(token)
            if code == DEAD:
                continue
            if code < 0:
                out.append((",".join(path) if path else ".", _leaf_index(code)))
                continue
            v = self.pivots[code]
            stack.append((self.in_child[code], depth + 1, f"{v}+"))
            stack.append((self.out_child[code], depth + 1, f"{v}-"))
        return out

    def export_text(self) -> str:
        w = max(1, (self.universe.size + 3) // 4)
        lines = [f"{self.N} {self.r} {self.eps} {self.tau!r} {len(self.containers)}"]
        for c in self.containers:
            lines.append(f"{c:0{w}x}")
        for path, idx in self.fingerprint_pairs():
            lines.append(f"{path} {idx}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_export_text(cls, text: str) -> "ContainerFamily":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty family export")
        head = lines[0].split()
        if len(head) != 5:
            raise ParseError("family header needs 'N r eps tau count'", 1)
        if not _FRACTION.fullmatch(head[2]):
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
        if not Fraction(0) < eps < Fraction(1, 2):
            raise ParseError(f"family header eps={eps} outside (0, 1/2)", 1)
        if count < 0:
            raise ParseError(f"family header count {count} is negative", 1)
        if len(lines) < 1 + count:
            raise ParseError("family export truncated: missing containers")
        n_u = N * N - N
        containers = []
        for k in range(count):
            hex_s = lines[1 + k].strip()
            if not _HEX.fullmatch(hex_s):
                raise ParseError("bad container bitset", 2 + k)
            cmask = int(hex_s, 16)
            if cmask >> n_u:
                raise ParseError(f"container bitset has a bit at or above N(N-1)={n_u}", 2 + k)
            containers.append(cmask)
        fam = cls(
            N=N, r=r, eps=eps, tau=tau, total_edges=-1,
            containers=containers, spans=[], root=DEAD,
            pivots=array("i"), out_child=array("i"), in_child=array("i"),
        )
        fam._rebuild_tree(lines[1 + count:], offset=2 + count)
        return fam

    def _rebuild_tree(self, pair_lines: list[str], offset: int) -> None:
        """Reconstruct the routing tree from exported (fingerprint, index) pairs.

        Each path is inserted into a trie from the root.  Exports list the
        leaves in DFS order, so consecutive paths share long prefixes: the
        tokens equal to the previous line's are neither parsed nor walked
        again, the walk resumes at the node where the two paths part.
        """
        count = len(self.containers)
        n_u = self.universe.size
        pivots = array("i")
        out_child = array("i")
        in_child = array("i")
        top = [DEAD]             # the slot holding the root
        prev: list[str] = []     # previous line's tokens
        nodes: list[int] = []    # nodes[d]: the node the previous path's token d branches at
        for k, ln in enumerate(pair_lines):
            line = offset + k
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError("bad fingerprint pair", line)
            path_s, idx_s = parts
            tokens = [] if path_s == "." else path_s.split(",")
            d = 0
            for tok, old in zip(tokens, prev):
                if tok != old:
                    break
                d += 1
            steps: list[tuple[int, bool]] = []
            for tok in tokens[d:]:
                if not tok or tok[-1] not in "+-" or not tok[:-1].isdecimal():
                    raise ParseError(f"bad fingerprint token {tok!r}", line)
                piv = int(tok[:-1])
                if piv >= n_u:
                    raise ParseError(f"fingerprint pivot {piv} not in 0..{n_u - 1}", line)
                steps.append((piv, tok[-1] == "+"))
            if not (idx_s.isdecimal() and int(idx_s) < count):
                raise ParseError(f"container index {idx_s!r} not in 0..{count - 1}", line)
            del nodes[d:]
            # the walk stands in slot kids[at]: a child list and its parent node
            kids, at = (in_child if tokens[d - 1][-1] == "+" else out_child, nodes[-1]) if d else (top, 0)
            code = kids[at]
            for piv, plus in steps:
                if code == DEAD:
                    code = len(pivots)
                    pivots.append(piv)
                    out_child.append(DEAD)
                    in_child.append(DEAD)
                    kids[at] = code
                elif code < 0:
                    raise ParseError("conflicting fingerprint paths", line)
                elif pivots[code] != piv:
                    raise ParseError("fingerprint paths disagree on pivot", line)
                nodes.append(code)
                kids, at = in_child if plus else out_child, code
                code = kids[at]
            if code != DEAD:
                raise ParseError("conflicting fingerprint paths", line)
            kids[at] = _leaf_code(int(idx_s))
            prev = tokens
        self.root, self.pivots, self.out_child, self.in_child = top[0], pivots, out_child, in_child


def _words(masks, words: int) -> np.ndarray:
    """Bitmasks as rows of ``words`` uint64 words, least significant first."""
    return np.array([[(m >> s) & _WORD_MASK for s in range(0, 64 * words, 64)] for m in masks],
                    dtype=np.uint64).reshape(len(masks), words)


def _ints(rows: np.ndarray) -> list[int]:
    """Rows of uint64 words, least significant first, as Python ints."""
    out = rows[:, -1].tolist()
    for k in range(rows.shape[1] - 2, -1, -1):
        out = [hi << 64 | lo for hi, lo in zip(out, rows[:, k].tolist())]
    return out


def _int_array(values: np.ndarray) -> array:
    """A numpy integer vector as ``array('i')``: 4 bytes per entry, Python ints on read."""
    out = array("i")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.intc)).cast("B"))
    return out


def build_containers(
    hg: PairHypergraph,
    tau: float,
    eps: Fraction,
    *,
    max_nodes: int = 5_000_000,
) -> ContainerFamily:
    """Deterministic container family with verified-by-construction routing.

    The tree is built one depth level at a time.  A node's whole state is
    its out-set (the out-pivots on its path) and its fingerprint (the
    in-pivots); it spans the hyperedges that miss its out-set.  Nodes are
    then numbered in the preorder of a depth-first build that descends the
    excluded branch first, and containers in the order that build first
    emits them.
    """
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise PreconditionError(f"eps={eps} outside (0, 1/2)")
    if not (0 < tau <= 1):
        raise PreconditionError(f"tau={tau} outside (0, 1]")
    n_u = hg.universe.size
    total = hg.edge_count
    if total >= _F32_EXACT:
        # degrees are float32 sums of 0/1 terms, exact only below 2^24
        raise PreconditionError(f"{total} hyperedges: the container builder takes fewer than 2^24")
    if total * n_u > _INCIDENCE_CELLS:
        raise PreconditionError(
            f"{total} hyperedges on {n_u} pairs: the container builder's incidence matrix "
            f"is capped at 2^21 cells")
    # a branch stops when spanned <= eps*total, i.e. spanned <= floor(eps*total)
    threshold = eps.numerator * total // eps.denominator
    r = max(hg.r, 2)
    depth_cap = 4 * r * math.ceil(1 / eps)
    fp_budget = max(1, math.ceil(4 * r * tau * n_u))
    common = dict(N=hg.universe.N, r=hg.r, eps=eps, tau=tau, total_edges=total)
    if total <= threshold:
        # no hyperedge at all: the whole universe is the only container
        return ContainerFamily(
            **common, containers=[(1 << n_u) - 1], spans=[total], root=_leaf_code(0),
            pivots=array("i"), out_child=array("i"), in_child=array("i"),
        )

    levels, nodes = _grow_levels(hg, threshold, depth_cap, fp_budget, max_nodes)
    pivots, out_child, in_child, leaves = _number_nodes(levels, nodes)
    containers, spans = _number_containers(out_child, *leaves)
    return ContainerFamily(
        **common, containers=containers, spans=spans, root=0,
        pivots=_int_array(pivots), out_child=_int_array(out_child), in_child=_int_array(in_child),
    )


class _Expander:
    """Pivot, pivot degree and DEAD in-child of nodes given by their sets.

    A node's out-set and fingerprint are rows of uint64 words, least
    significant first.  A hyperedge is live iff it misses the out-set, and
    an element's degree counts the live hyperedges holding it (0 inside the
    fingerprint).
    """

    def __init__(self, hg: PairHypergraph):
        n_u = self.n_u = hg.universe.size
        total = hg.edge_count
        self.words = -(-n_u // 64)
        self.edges = _words(hg.edge_masks, self.words).T.copy()     # word k of every edge
        self.incidence = np.zeros((total, n_u), dtype=np.float32)
        for eid, e in enumerate(hg.edges):
            self.incidence[eid, list(e)] = 1
        v = np.arange(n_u)
        self.bits = np.zeros((n_u, self.words), dtype=np.uint64)
        self.bits[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
        # through[v]: the hyperedges holding v, padded by repeating the first
        # (an element in no hyperedge is never a pivot)
        width = max(len(eids) for eids in hg.incidence)
        self.through = np.array([list(eids) + [eids[0] if eids else 0] * (width - len(eids))
                                 for eids in hg.incidence], dtype=np.intp)
        self.rows = max(1, min(max(_MIN_ROWS, _BLAS_CELLS // (total * n_u)),
                               _STEP_CELLS // total))
        # hyperedges per product, so that rows x edges x universe <= _BLAS_CELLS
        self.edge_step = max(1, _BLAS_CELLS // (self.rows * n_u))

    def _misses(self, sets: np.ndarray) -> np.ndarray:
        """[node, edge]: the hyperedge misses the node's set."""
        out = (sets[:, 0, None] & self.edges[0]) == 0
        for k in range(1, self.words):
            out &= (sets[:, k, None] & self.edges[k]) == 0
        return out

    def __call__(self, out: np.ndarray, fp: np.ndarray):
        """(pivot, its degree, in-child DEAD) per node; every node spans a hyperedge."""
        width = len(out)
        pivot = np.empty(width, dtype=np.min_scalar_type(self.n_u - 1))
        pivot_deg = np.empty(width, dtype=np.int32)
        dead = np.empty(width, dtype=bool)
        for a in range(0, width, self.rows):
            o, f = out[a:a + self.rows], fp[a:a + self.rows]
            alive = self._misses(o).astype(np.float32)
            deg = alive[:, :self.edge_step] @ self.incidence[:self.edge_step]
            for e in range(self.edge_step, len(self.incidence), self.edge_step):
                deg += alive[:, e:e + self.edge_step] @ self.incidence[e:e + self.edge_step]
            in_fp = np.unpackbits(f.astype("<u8", copy=False).view(np.uint8), axis=1,
                                  count=self.n_u, bitorder="little")
            deg *= in_fp == 0
            # a live edge keeps an element outside the fingerprint: max >= 1
            p = deg.argmax(axis=1)
            pivot[a:a + self.rows] = p
            pivot_deg[a:a + self.rows] = deg[np.arange(len(p)), p]
            # the included branch is DEAD iff a live edge through the pivot
            # has all its other elements in fp.  Out-pivots are outside fp
            # plus the pivot, so a dead edge never passes the test
            ids = self.through[p]
            rest = ~(f | self.bits[p])
            held = (self.edges[0][ids] & rest[:, 0, None]) == 0
            for k in range(1, self.words):
                held &= (self.edges[k][ids] & rest[:, k, None]) == 0
            dead[a:a + self.rows] = held.any(axis=1)
        return pivot, pivot_deg, dead


def _grow_levels(hg: PairHypergraph, threshold: int, depth_cap: int, fp_budget: int,
                 max_nodes: int) -> tuple[list, int]:
    """The tree's levels, root first, and its node count.

    Level d lists its nodes in preorder.  It keeps each node's pivot, the
    rows of its out- and in-child in level d+1 (-1: a leaf or DEAD), and
    the container mask and span of each out-leaf, in row order.
    """
    expand = _Expander(hg)
    full_mask = _words([(1 << expand.n_u) - 1], expand.words)[0]
    # the frontier: one row per node of the current level
    out = np.zeros((1, expand.words), dtype=np.uint64)
    fp = np.zeros((1, expand.words), dtype=np.uint64)
    spanned = np.array([hg.edge_count], dtype=np.int32)
    fp_size = np.zeros(1, dtype=np.int32)

    levels = []
    nodes = 0
    while len(out):
        width = len(out)
        if len(levels) >= depth_cap:
            raise ContainerBuildError(f"branch exceeded the round cap {depth_cap}")
        if fp_size.max() > fp_budget:
            raise ContainerBuildError(f"fingerprint exceeded the tau budget {fp_budget}")
        nodes += width
        if nodes > max_nodes:
            raise ContainerBuildError(f"decision tree exceeded {max_nodes} nodes")
        pivot, pivot_deg, dead = expand(out, fp)
        pbit = expand.bits[pivot]
        out_spanned = spanned - pivot_deg
        leaf = out_spanned <= threshold
        # the next level lists each parent's out-child, then its in-child
        kids = np.stack([~leaf, ~dead], axis=1).ravel()
        row = (np.cumsum(kids, dtype=np.int32) - 1).reshape(width, 2)
        row[~kids.reshape(width, 2)] = -1
        levels.append((pivot, row[:, 0], row[:, 1],
                       ~(out[leaf] | pbit[leaf]) & full_mask, out_spanned[leaf]))
        out, fp, spanned, fp_size = (
            np.stack(pair, axis=1).reshape(2 * width, *pair[0].shape[1:])[kids]
            for pair in ((out | pbit, out), (fp, fp | pbit),
                         (out_spanned, spanned), (fp_size, fp_size + 1))
        )
    return levels, nodes


def _number_nodes(levels: list, nodes: int):
    """Tree arrays in the preorder of a depth-first build that descends the
    excluded branch first, and (parent, mask, span) of every out-leaf.

    The out-leaf codes are left for ``_number_containers``; ``levels`` is
    emptied as it is read.
    """
    # a node's out-child follows it, and its in-child follows the
    # out-child's subtree, so subtree sizes go bottom-up first
    out_size = []
    below = np.zeros(1, dtype=np.int64)     # row -1 (no child) has size 0
    for _, out_row, in_row, _, _ in reversed(levels):
        out_size.append(below[out_row])
        below = np.append(1 + out_size[-1] + below[in_row], 0)
    out_size.reverse()

    pivots = np.empty(nodes, dtype=np.intc)
    out_child = np.empty(nodes, dtype=np.intc)
    in_child = np.full(nodes, DEAD, dtype=np.intc)
    leaf_parent, leaf_masks, leaf_spans = [], [], []
    pre = np.zeros(1, dtype=np.int64)
    for d in range(len(levels)):
        pivot, out_row, in_row, masks, spans = levels[d]
        skip = out_size[d]
        levels[d] = out_size[d] = None
        has_out, has_in = out_row >= 0, in_row >= 0
        nxt = np.empty(int(has_out.sum() + has_in.sum()), dtype=np.int64)
        nxt[out_row[has_out]] = pre[has_out] + 1
        nxt[in_row[has_in]] = pre[has_in] + 1 + skip[has_in]
        pivots[pre] = pivot
        out_child[pre[has_out]] = nxt[out_row[has_out]]
        in_child[pre[has_in]] = nxt[in_row[has_in]]
        leaf_parent.append(pre[~has_out])
        leaf_masks.append(masks)
        leaf_spans.append(spans)
        pre = nxt
    leaves = tuple(np.concatenate(x) for x in (leaf_parent, leaf_masks, leaf_spans))
    return pivots, out_child, in_child, leaves


def _number_containers(out_child: np.ndarray, parent: np.ndarray, masks: np.ndarray,
                       spans: np.ndarray) -> tuple[list[int], list[int]]:
    """Containers and spans in the order the depth-first build emits them.

    A node emits its out-leaf when it is visited, so each distinct mask
    takes its place from its first leaf parent in preorder.  Writes every
    out-leaf's code into ``out_child``.
    """
    by_mask = np.argsort(masks[:, 0]) if masks.shape[1] == 1 else np.lexsort(masks.T)
    sorted_masks = masks[by_mask]
    new = np.r_[True, (sorted_masks[1:] != sorted_masks[:-1]).any(axis=1)]
    starts = np.flatnonzero(new)
    emitted = np.argsort(np.minimum.reduceat(parent[by_mask], starts))
    rank = np.empty(len(starts), dtype=np.intc)
    rank[emitted] = np.arange(len(starts), dtype=np.intc)
    out_child[parent[by_mask]] = _leaf_code(rank[np.cumsum(new, dtype=np.intc) - 1])
    first = by_mask[starts[emitted]]
    return _ints(masks[first]), spans[first].tolist()


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    mode: str
    checked: int
    coverage_ok: bool
    miss_witness: str | None
    miss_container: int | None
    sparsity_ok: bool
    max_span: int
    span_limit_num: int    # sparsity passes iff span*den <= num
    span_limit_den: int
    attempts: int | None = None
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.coverage_ok and self.sparsity_ok

    def raise_on_failure(self) -> None:
        if not self.coverage_ok:
            raise VerificationError(
                "coverage miss: a pattern-free digraph escaped every container",
                witness=self.miss_witness,
            )
        if not self.sparsity_ok:
            raise VerificationError(
                f"sparsity violated: a container spans {self.max_span} hyperedges"
            )


def _check_sparsity(hg: PairHypergraph, fam: ContainerFamily) -> tuple[bool, int]:
    """Re-count spanned hyperedges per container from the hyperedge store.

    Needs a universe of at most 63 pairs (``require_verifiable``).
    """
    conts = np.array(fam.containers, dtype=np.uint64)
    span = np.zeros(len(conts), dtype=np.int64)
    for em in hg.edge_masks:
        em = np.uint64(em)
        span += (conts & em) == em
    worst = int(span.max()) if len(conts) else 0
    return worst * fam.eps.denominator <= fam.eps.numerator * hg.edge_count, worst


def require_verifiable(N: int, mode: str) -> None:
    """Refuse a verification outside its budget before any work is done."""
    if mode == "exhaustive":
        if N > FULL_MODE_MAX_N:
            raise PreconditionError(f"exhaustive verification capped at N={FULL_MODE_MAX_N}")
    elif mode == "sampled":
        if N * N - N > 63:
            raise PreconditionError("sampled verification needs a <=63-bit universe")
    else:
        raise PreconditionError(f"unknown verify mode {mode!r}")


def verify_family(
    hg: PairHypergraph,
    fam: ContainerFamily,
    pattern: PatternDigraph,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
) -> VerifyReport:
    """Check coverage of pattern-free digraphs and container sparsity.

    Exhaustive mode walks every pattern-free digraph on [N] (budget: N <= 5);
    sampled mode draws uniform digraphs (each directed edge an independent
    coin) and keeps the pattern-free ones, so accepted samples are uniform
    over the independent sets.
    """
    N = hg.universe.N
    if fam.N != N:
        raise PreconditionError("family and hypergraph live on different [N]")
    require_verifiable(N, mode)
    sp_ok, worst = _check_sparsity(hg, fam)
    num, den = fam.eps.numerator, fam.eps.denominator
    limit_num = num * hg.edge_count

    conts = np.fromiter(fam.containers, dtype=np.uint64, count=len(fam.containers))
    tree = tuple(np.asarray(x, dtype=np.intc) for x in (fam.pivots, fam.out_child, fam.in_child))

    def report(checked: int, miss: tuple[int, int] | None = None, attempts=None) -> VerifyReport:
        """``miss``: the first missed set's mask and the leaf code it reached."""
        witness = idx = None
        if miss is not None:
            witness = hg.universe.digraph_from_mask(miss[0]).to_edge_text()
            idx = None if miss[1] == DEAD else _leaf_index(miss[1])
        return VerifyReport(mode, checked, miss is None, witness, idx, sp_ok, worst, limit_num,
                            den, attempts, None if attempts is None else seed)

    if mode == "exhaustive":
        checked = 0
        masks = iter_free_edge_masks(N, pattern, hg.universe.pair_index)
        while True:
            sets = np.fromiter(islice(masks, _ROUTE_BATCH), dtype=np.uint64)
            if not len(sets):
                return report(checked)
            miss = _first_miss(fam.root, tree, conts, sets)
            if miss is not None:
                k, code = miss
                return report(checked + k + 1, (int(sets[k]), code))
            checked += len(sets)

    rng = np.random.RandomState(seed)
    edge_masks = [np.uint64(m) for m in hg.edge_masks]
    n_u = hg.universe.size
    accepted = 0
    attempts = 0
    batch = 65_536
    while accepted < samples:
        draws = rng.randint(0, 1 << n_u, size=batch, dtype=np.uint64)
        attempts += batch
        # survivors keep their draw order, edge by edge
        free = draws
        for em in edge_masks:
            free = free[(free & em) != em]
        free = free[:samples - accepted]
        miss = _first_miss(fam.root, tree, conts, free)
        if miss is not None:
            k, code = miss
            return report(accepted + k + 1, (int(free[k]), code), attempts)
        accepted += len(free)
    return report(accepted, attempts=attempts)


def _first_miss(root: int, tree: tuple[np.ndarray, ...], conts: np.ndarray,
                masks: np.ndarray) -> tuple[int, int] | None:
    """(position, leaf code) of the first mask its routed container misses.

    Every mask descends the tree together, one depth step per round; a mask
    that ends on a DEAD branch is missed too.
    """
    pivots, out_child, in_child = tree
    code = np.full(len(masks), root, dtype=np.intc)
    live = np.flatnonzero(code >= 0)
    while len(live):
        c = code[live]
        bit = (masks[live] >> pivots[c].astype(np.uint64)) & np.uint64(1)
        code[live] = np.where(bit != 0, in_child[c], out_child[c])
        live = live[code[live] >= 0]
    held = np.zeros(len(masks), dtype=bool)
    leaf = np.flatnonzero(code != DEAD)
    held[leaf] = (masks[leaf] & ~conts[_leaf_index(code[leaf])]) == 0
    misses = np.flatnonzero(~held)
    if not len(misses):
        return None
    k = int(misses[0])
    return k, int(code[k])


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass
class ContainerRow:
    index: int
    copies: int
    f2: int
    f1: int
    ea_str: str
    ea_float: float
    copies_le_eps_edges: bool
    copies_le_eps_Nh: bool
    ea_within_extremal_slack: bool | None


@dataclass
class PipelineReport:
    N: int
    eps: Fraction
    tau: float
    m: Fraction
    hypergraph_edges: int
    labelled_count: int
    family_size: int
    log2_family: float
    reference_curve: float       # N^(2-1/m) * log2(N)
    implied_constant: float
    extremal: ExtremalResult | None
    extremal_note: str
    rows: list[ContainerRow]
    verify: VerifyReport
    copies_ok: bool
    ea_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.verify.ok and self.copies_ok


def container_pipeline(
    pattern: PatternDigraph,
    weight: WeightParam,
    N: int,
    eps: Fraction,
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> PipelineReport:
    """Build the hypergraph, run the container construction at tau=N^(-1/m),
    decode every container as a digraph and check the three conclusions."""
    cond = condition_a(pattern, weight)
    if not cond.ok:
        raise PreconditionError(
            f"sparsity condition fails at a={weight.exact_str}: "
            f"subgraph density {cond.witness_text}"
        )
    m = require_usable_m(pattern)
    mode = "exhaustive" if N <= FULL_MODE_MAX_N else "sampled"
    require_verifiable(N, mode)
    hg = build_hypergraph(N, pattern)
    tau = tau_for(N, m)
    fam = build_containers(hg, tau, eps)
    verify = verify_family(hg, fam, pattern, mode=mode, samples=samples, seed=seed)

    extremal = None
    note = "bound unavailable: N beyond the exact extremal budget"
    if N <= FULL_MODE_MAX_N:
        extremal = extremal_number(N, pattern, weight, mode="full")
        note = "exact (full enumeration)"
    elif N <= CANONICAL_MODE_MAX_N:
        extremal = extremal_number(N, pattern, weight, mode="canonical")
        note = "exact (canonical search)"

    eps_f = float(eps)
    rows: list[ContainerRow] = []
    copies_ok = True
    ea_ok: bool | None = None if extremal is None else True
    for idx, cmask in enumerate(fam.containers):
        g = fam.universe.digraph_from_mask(cmask)
        copies = count_copies(g, pattern)
        if copies != fam.spans[idx]:
            raise VerificationError(
                f"container {idx}: decoded copy count {copies} differs from "
                f"spanned hyperedges {fam.spans[idx]}"
            )
        le_edges = copies * eps.denominator <= eps.numerator * hg.edge_count
        le_nh = copies <= eps_f * N ** pattern.h
        copies_ok = copies_ok and le_edges and le_nh
        within = None
        if extremal is not None:
            # ea(G_C) <= ex + eps*N^2, exact when the weight is rational
            if weight.is_rational:
                lhs = weight.ea_fraction(g.f2, g.f1)
                rhs = extremal.value_fraction + eps * N * N
                within = lhs <= rhs
            else:
                within = weight.ea_float(g.f2, g.f1) <= extremal.value_float + eps_f * N * N
            ea_ok = ea_ok and within
        rows.append(
            ContainerRow(
                idx, copies, g.f2, g.f1,
                weight.ea_str(g.f2, g.f1), weight.ea_float(g.f2, g.f1),
                le_edges, le_nh, within,
            )
        )

    fam_size = len(fam.containers)
    log2_fam = math.log2(fam_size) if fam_size else float("-inf")
    ref = N ** (2 - 1 / float(m)) * math.log2(N)
    implied = log2_fam / ref if ref > 0 else float("nan")
    return PipelineReport(
        N=N, eps=eps, tau=tau, m=m,
        hypergraph_edges=hg.edge_count,
        labelled_count=hg.labelled_copy_count,
        family_size=fam_size,
        log2_family=log2_fam,
        reference_curve=ref,
        implied_constant=implied,
        extremal=extremal,
        extremal_note=note,
        rows=rows,
        verify=verify,
        copies_ok=copies_ok,
        ea_ok=ea_ok,
    )
