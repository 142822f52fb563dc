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
fail loudly; there is no silent partial family.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    pivots: list[int]
    out_child: list[int]
    in_child: list[int]

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

        def walk(code: int, path: list[str]):
            if code == DEAD:
                return
            if code < 0:
                out.append((",".join(path) if path else ".", _leaf_index(code)))
                return
            v = self.pivots[code]
            walk(self.out_child[code], path + [f"{v}-"])
            walk(self.in_child[code], path + [f"{v}+"])

        walk(self.root, [])
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
            pivots=[], out_child=[], in_child=[],
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
        pivots: list[int] = []
        out_child: list[int] = []
        in_child: list[int] = []
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


def build_containers(
    hg: PairHypergraph,
    tau: float,
    eps: Fraction,
    *,
    max_nodes: int = 5_000_000,
) -> ContainerFamily:
    """Deterministic container family with verified-by-construction routing."""
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise PreconditionError(f"eps={eps} outside (0, 1/2)")
    if not (0 < tau <= 1):
        raise PreconditionError(f"tau={tau} outside (0, 1]")
    n_u = hg.universe.size
    total = hg.edge_count
    # branch stops when spanned <= eps*total, compared exactly
    th_num, th_den = eps.numerator, eps.denominator
    r = max(hg.r, 2)
    depth_cap = 4 * r * math.ceil(1 / eps)
    fp_budget = max(1, math.ceil(4 * r * tau * n_u))

    # rem[eid]: the elements of hyperedge eid not yet in the fingerprint
    rem = [list(e) for e in hg.edges]
    alive = [True] * total
    edges_with = hg.incidence
    deg = [len(eids) for eids in edges_with]

    full_mask = (1 << n_u) - 1
    pivots: list[int] = []
    out_child: list[int] = []
    in_child: list[int] = []
    containers: list[int] = []
    spans: list[int] = []
    cont_index: dict[int, int] = {}

    def emit_container(out_mask: int, spanned: int) -> int:
        cmask = full_mask & ~out_mask
        idx = cont_index.get(cmask)
        if idx is None:
            idx = len(containers)
            cont_index[cmask] = idx
            containers.append(cmask)
            spans.append(spanned)
        return _leaf_code(idx)

    def visit(depth: int, spanned: int, out_mask: int, fp_size: int) -> int:
        """Internal node: both children are decided here before descending."""
        if depth >= depth_cap:
            raise ContainerBuildError(f"branch exceeded the round cap {depth_cap}")
        if fp_size > fp_budget:
            raise ContainerBuildError(f"fingerprint exceeded the tau budget {fp_budget}")
        if len(pivots) >= max_nodes:
            raise ContainerBuildError(f"decision tree exceeded {max_nodes} nodes")
        # spanned > threshold >= 0 means a live edge exists, and live edges
        # keep a nonempty remainder, so the highest degree is >= 1
        pivot = deg.index(max(deg))
        node = len(pivots)
        pivots.append(pivot)
        out_child.append(DEAD)
        in_child.append(DEAD)
        # pivots on a path are distinct, so every live edge through the pivot
        # still holds it in its remainder
        live = [eid for eid in edges_with[pivot] if alive[eid]]

        # excluded branch: kill every live edge through the pivot
        out_spanned = spanned - len(live)
        if out_spanned * th_den <= th_num * total:
            out_child[node] = emit_container(out_mask | (1 << pivot), out_spanned)
        else:
            for eid in live:
                alive[eid] = False
                for v in rem[eid]:
                    deg[v] -= 1
            out_child[node] = visit(depth + 1, out_spanned, out_mask | (1 << pivot), fp_size)
            for eid in live:
                alive[eid] = True
                for v in rem[eid]:
                    deg[v] += 1

        # included branch: a live edge left with the pivot alone would be
        # swallowed by the fingerprint (DEAD); otherwise shrink the live edges
        # through the pivot.  spanned does not change, so the child is internal
        for eid in live:
            if len(rem[eid]) == 1:
                return node
        for eid in live:
            rem[eid].remove(pivot)
        deg[pivot] = 0
        in_child[node] = visit(depth + 1, spanned, out_mask, fp_size + 1)
        deg[pivot] = len(live)
        for eid in live:
            rem[eid].append(pivot)
        return node

    old_limit = sys.getrecursionlimit()
    # pivots on a path are distinct, so no path is deeper than n_u
    sys.setrecursionlimit(max(old_limit, min(depth_cap, n_u) + n_u + 100))
    try:
        if total * th_den <= th_num * total:
            root = emit_container(0, total)
        else:
            root = visit(0, total, 0, 0)
    finally:
        sys.setrecursionlimit(old_limit)

    return ContainerFamily(
        N=hg.universe.N,
        r=hg.r,
        eps=eps,
        tau=tau,
        total_edges=total,
        containers=containers,
        spans=spans,
        root=root,
        pivots=pivots,
        out_child=out_child,
        in_child=in_child,
    )


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

    def containment_fail(mask: int) -> tuple[str, int | None] | None:
        idx = fam.route(mask)
        if idx is None or mask & ~fam.containers[idx]:
            g = hg.universe.digraph_from_mask(mask)
            return g.to_edge_text(), idx
        return None

    if mode == "exhaustive":
        checked = 0
        for mask in iter_free_edge_masks(N, pattern, hg.universe.pair_index):
            checked += 1
            fail = containment_fail(mask)
            if fail is not None:
                return VerifyReport(
                    mode, checked, False, fail[0], fail[1],
                    sp_ok, worst, limit_num, den,
                )
        return VerifyReport(mode, checked, True, None, None, sp_ok, worst, limit_num, den)

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
        for mask in free:
            mask = int(mask)
            accepted += 1
            fail = containment_fail(mask)
            if fail is not None:
                return VerifyReport(
                    mode, accepted, False, fail[0], fail[1],
                    sp_ok, worst, limit_num, den, attempts, seed,
                )
            if accepted >= samples:
                break
    return VerifyReport(
        mode, accepted, True, None, None, sp_ok, worst, limit_num, den, attempts, seed,
    )


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
