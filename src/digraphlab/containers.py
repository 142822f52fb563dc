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
rows of uint64 words (out-set and fingerprint) and a row of small-integer
degrees, which each child takes from its parent's.  An in-child zeroes its
pivot's degree; an out-child subtracts, for each element, the live
hyperedges through the pivot that hold it, summed from rows of an integer
incidence table.  Nodes and containers are then numbered as a depth-first
build (excluded branch first) would visit and emit them, and the tree is
stored as ``array('i')``.

The verifier makes its sets with array passes and routes them down the tree
together, one depth step at a time, _ROUTE_BATCH sets per pass.  The sets
still descending are one compacted working set of (position, mask, node):
a step takes each next node from one interleaved child table, and only a
step at which some set reaches a leaf or DEAD writes their codes out and
compresses the working set.  Exhaustive
mode takes its sets from the extremal module's free-mask decoder
(_free_masks), which unpacks the block walker's free-state bitsets a chunk
of high states at a time.  Sampled mode draws uniform batches and sieves
them first with one table: a window of 4 consecutive vertices owns 3
consecutive bits of each of its 4 out-blocks, which together are the mask
of the window relabelled onto [4], and the table says whether that digraph
is pattern-free.  Only the hyperedges that no window holds are then tested
one by one.

The export writes the tree once, in preorder, one code per line: a node's
pivot, then its excluded and its included subtree, or a leaf's code.  The
writer walks the tree with an explicit stack.  The reader brings an export
to the plain layout (ASCII lines, each ended by one "\n"), then reads each
section's lines as numbers in one array pass, a digit column at a time: the
containers in hex, the tree's codes in decimal.  It checks the shape with
one running count of open child slots, and finds each node's included child
as the next code with the same count before it, by one stable sort (a radix
sort on 16-bit counts).  A conflicting path cannot be written in this form.

numpy loads on the first array pass of the builder, verifier, writer or
reader (lazy.LazyNumpy), not with this module.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .digraphs import PatternDigraph, count_copies
from .errors import (
    BudgetError,
    ContainerBuildError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .lazy import LazyNumpy
from .extremal import (
    FULL_MODE_MAX_N,
    CANONICAL_MODE_MAX_N,
    ExtremalResult,
    _free_masks,
    extremal_number,
)
from .pairhypergraph import PairHypergraph, PairUniverse, build_hypergraph, tau_for
from .density import condition_a, require_usable_m
from .weights import WeightParam

np = LazyNumpy(globals())

DEAD = -1  # child code: branch handles no independent set
_WORD_MASK = (1 << 64) - 1
# hyperedges x universe: the size of the builder's integer incidence table.
# The universe has at least 2 pairs, so under this cap every degree is at
# most 2^20 and fits the widest degree dtype, int32
_INCIDENCE_CELLS = 1 << 21
# incidence rows x universe the builder sums per pass (frontier rows x
# largest degree x universe): 256 KiB at int8.  Over c3 N=6 and N=7, t3
# N=7 and p4 N=8, 2^19 was no faster and 2^16 up to 1.7x slower
_GATHER_CELLS = 1 << 18
# free sets the verifier routes together, in either mode: the sets of its
# decoded blocks or of its sampled draw batches are pooled, and routed this
# many at a time
_ROUTE_BATCH = 65_536
_DRAW_BATCH = 65_536     # uniform draws the sampled verifier makes together
# draws after which the sampled verifier gives up: p3 on [7] reaches them in
# 14.5 s with 54 samples accepted (one Xeon vCPU).  The most any test or
# bench run makes is 3,866,624 (t3 on [7], 1,000 samples)
_DRAW_BUDGET = 1 << 30
# vertices per window of the sampled verifier's table sieve: one table of
# 2^(k(k-1)) = 4096 entries
_WINDOW = 4
# draws the window sieve takes at a time, so that its 128 KiB arrays stay in
# cache: over 40 batches of t3 draws on [7] and of c3 draws on [6], its
# passes took 0.041 s and 0.034 s this way, and 0.070 s each on whole
# batches (one Xeon vCPU)
_SIEVE_ROWS = 16_384
# survivors x hyperedges the window sieve then tests together (512 KiB of
# uint64 cells); the survivors are compressed after each group of
# hyperedges, so the groups widen as they thin out.  A pattern on more than
# _WINDOW vertices leaves every hyperedge to this test.  Against one
# compress pass per hyperedge, per batch of the same survivors (20 batches,
# best of 5, one Xeon vCPU): t3 N=7 (132 hyperedges) 0.61 -> 0.16 ms, c3
# N=6 (20) 0.41 -> 0.14 ms, a 5-cycle on [7] (504) 22-27 -> 14-18 ms
_REST_CELLS = 1 << 16
# the header eps as the builder writes it; Fraction's exponent forms such as
# 1e-9999999 would first build a ten-million-digit integer
_FRACTION = re.compile(r"[0-9]+(/[0-9]+)?")
_DIGIT_RUN = re.compile(r"([+-]?)0*([0-9]+)")


def _leaf_code(container_idx: int) -> int:
    return -container_idx - 2


def _leaf_index(code: int) -> int:
    return -code - 2


@dataclass
class ContainerFamily:
    """Decision tree plus the containers its leaves name: one per leaf in a
    built family, while the leaves of a family read from an export may share one."""

    N: int
    r: int
    eps: Fraction
    tau: float
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

    def export_text(self) -> str:
        """Header, one hex container per line, then the routing tree in
        preorder, one code per line: a node's pivot (excluded subtree first,
        then included), ``-1`` for DEAD, ``-i-2`` for container i's leaf."""
        head = f"{self.N} {self.r} {self.eps} {self.tau!r} {len(self.containers)}\n"
        return "".join([head, _hex_lines(self.containers, self.universe.size),
                        _tree_lines(self.root, self.pivots, self.out_child, self.in_child)])

    @classmethod
    def from_export_text(cls, text: str) -> "ContainerFamily":
        """The family an export describes, read in the plain layout
        (_plain_export) in one array pass over each section's lines
        (_read_numbers).  Refuses what the builder never writes, with the
        number of the first bad line among the non-blank ones."""
        (N, r, eps, tau, count), text, data, ends = _plain_export(text)
        n_u = N * N - N
        width = max(1, (n_u + 3) // 4)
        # the leading digit holds the universe's top n_u - 4(width-1) bits
        bad, over, _, (low, line, w, high) = _read_numbers(
            data, ends[:1 + count], 16, width, 1 << n_u - 4 * (width - 1))
        k = int(np.append(over[:bad], True).argmax())     # the first line over, else bad
        if k < len(over):
            raise ParseError("bad container bitset" if k == bad else
                             f"container bitset has a bit at or above N(N-1)={n_u}", 2 + k)
        if len(over) < count:
            raise ParseError("family export truncated: missing containers")
        containers = low.tolist()
        for i, shift, value in zip(line.tolist(), (64 * w).tolist(), high.tolist()):
            containers[i] |= value << shift
        del low, high
        bad, over, minus, (codes, *_) = _read_numbers(data, ends[count:], 10, 18, 10)
        if over.any():      # past 18 digits (so in int64): out of every range
            codes[over] = 1 << 62
        np.negative(codes, out=codes, where=minus)
        del data, ends, over, minus     # none is needed for the tree's shape
        root, pivots, out_child, in_child = _read_tree(
            codes[:bad], len(codes), lambda k: text.split("\n", 2 + count + k)[1 + count + k],
            2 + count, n_u, count)
        return cls(N=N, r=r, eps=eps, tau=tau, containers=containers, spans=[], root=root,
                   pivots=pivots, out_child=out_child, in_child=in_child)


# ---------------------------------------------------------------------------
# Family export: writer
# ---------------------------------------------------------------------------

def _hex_lines(masks: list[int], n_u: int) -> str:
    """The masks as zero-padded hex numbers of the universe's width, one per line."""
    if not masks:
        return ""
    width = max(1, (n_u + 3) // 4)
    rows = _words(masks, -(-width // 16))
    text = np.empty((len(masks), width + 1), dtype=np.uint8)
    text[:, width] = ord("\n")
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    for k in range(width):      # the k-th digit from the right
        nibble = (rows[:, k // 16] >> np.uint64(4 * (k % 16))) & np.uint64(15)
        text[:, width - 1 - k] = digits[nibble]
    return text.tobytes().decode("ascii")


def _tree_lines(root: int, pivots, out_child, in_child) -> str:
    """The routing tree in preorder, one code per line: a node's pivot, then
    its excluded subtree, then its included subtree; a leaf's code, or DEAD.

    The walk goes down each excluded branch in a loop and keeps every
    pending included subtree on a stack, so it follows the tree's links and
    not the numbering of its nodes.
    """
    name = {v: str(v) for v in set(pivots)}     # over the pivots in use, not up to the largest
    lines = []
    stack = [root]
    while stack:
        code = stack.pop()
        while code >= 0:
            lines.append(name[pivots[code]])
            stack.append(in_child[code])
            code = out_child[code]
        lines.append("-1" if code == DEAD else str(code))    # one string for every DEAD
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Family export: reader
# ---------------------------------------------------------------------------

def _header_int(field: str, name: str) -> int:
    """A header field as ``int`` reads it, but a run of digits loses its
    leading zeros first, and one still past int's digit limit is refused by name."""
    run = _DIGIT_RUN.fullmatch(field)
    if run is None:
        return int(field)
    try:
        return int(run[1] + run[2])
    except ValueError:
        raise ParseError(f"bad family header: {name} has {len(run[2])} digits, too many to read",
                         1) from None


def _parse_header(line: str) -> tuple[int, int, Fraction, float, int]:
    """(N, r, eps, tau, count) of a family header, or a ParseError at line 1."""
    head = line.split()
    if len(head) != 5:
        raise ParseError("family header needs 'N r eps tau count'", 1)
    if not _FRACTION.fullmatch(head[2]):
        raise ParseError(f"bad family header: eps {head[2]!r} is not a fraction p/q", 1)
    try:
        N, r = _header_int(head[0], "N"), _header_int(head[1], "r")
        eps = Fraction(*(_header_int(part, "eps") for part in head[2].split("/")))
        tau = float(head[3])
        count = _header_int(head[4], "count")
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad family header: {exc}", 1) from None
    if N < 2:
        raise ParseError(f"family header N={N} below 2", 1)
    if N * (N - 1) >= 1 << 31:
        # pivots are stored as 32-bit ints
        raise ParseError(f"family header N={N}: N(N-1) reaches 2^31", 1)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ParseError(f"family header eps={eps} outside (0, 1/2)", 1)
    if not 0 < tau <= 1:
        # the builder takes tau in (0, 1]; nan fails both comparisons
        raise ParseError(f"family header tau={head[3]} outside (0, 1]", 1)
    if count < 0:
        raise ParseError(f"family header count {count} is negative", 1)
    return N, r, eps, tau, count


def _plain_export(text: str):
    """(header fields, text, its bytes, its "\\n"s' positions) of an export
    in the plain layout: a non-blank, printable header line, then an ASCII
    body whose only whitespace is one "\\n" ending each non-empty line.  An
    export in any other is rewritten as its lines are defined: the non-blank
    lines str.splitlines finds, the ``count`` container lines stripped."""
    head = text[:text.find("\n")]
    if text.endswith("\n") and text.isascii() and head.isprintable() and head.strip():
        data, ends = _lines(text)
        if (np.count_nonzero(data[len(head):] <= ord(" ")) == len(ends)
                and np.diff(ends).min(initial=2) > 1):
            return _parse_header(head), text, data, ends
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise ParseError("empty family export")
    fields = _parse_header(lines[0])
    lines[1:1 + fields[-1]] = [line.strip() for line in lines[1:1 + fields[-1]]]
    text = "\n".join(lines) + "\n"
    del lines
    return fields, text, *_lines(text)


def _lines(text: str):
    """The bytes of ``text``, "?" for a character past ASCII, and its "\\n"s' positions."""
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    return data, np.flatnonzero(data == ord("\n"))


def _read_numbers(data, ends, base: int, keep: int, lead: int):
    """(bad, over, minus, words) of the lines ``data[ends[i] + 1:ends[i + 1]]``
    as numbers: in hex of either case (``base`` 16), or in decimal after an
    optional "-" (10).

    ``bad`` is the first line with a byte that is not a digit or a leading
    sign, or with no digit, else the line count.  ``over`` marks the lines
    whose value reaches ``lead * base**(keep - 1)``, ``minus`` those with a
    sign.  ``words`` is (last, line, w, rest): each line's last word, of 16
    hex digits in a uint64 or of at most 18 decimal digits (int32 while no
    line has more than 9), and word w of ``line[j]`` in ``rest[j]``.
    """
    # a sign needs a digit after it: "-" alone is a bad line
    minus = (data[ends[:-1] + 1] == ord("-")) & (np.diff(ends) > 2) & (base == 10)
    lens = np.diff(ends) - 1
    lens -= minus
    columns = min(keep, int(lens.max(initial=0)))
    wide = np.flatnonzero(lens > keep)
    # digit k from the right is read where k < lens, for k < columns
    lens = np.minimum(lens, columns, out=lens).astype(np.min_scalar_type(columns))
    # the bytes from the "\\n" before the first line to the one after the last
    block = data[ends[0]:ends[-1] + 1]
    bad = block - ord("0") > 9
    if base == 16:
        bad &= (block | 32) - ord("a") > 5      # nor a letter of either case
    bad &= block != ord("\n")
    bad[ends[:-1][minus] + 1 - ends[0]] = False
    bad = int(np.searchsorted(ends, ends[0] + bad.argmax())) - 1 if bad.any() else len(lens)
    # '0' is the least digit: a wide line is over iff a byte before its last keep is more
    over = np.zeros(len(lens), dtype=bool)
    over[wide] = np.maximum.reduceat(data, np.stack(
        [ends[wide] + 1 + minus[wide], ends[wide + 1] - keep], axis=1).ravel())[::2] > ord("0")
    per = 16 if base == 16 else 18      # digits per word
    dtype = np.uint64 if base == 16 else np.int32 if columns <= 9 else np.int64
    # digit keep - 1 from the right must be below lead
    tops = np.flatnonzero(lens >= keep)
    byte = data[ends[tops + 1] - keep]
    over[tops] |= (byte & 15) + 9 * (byte >> 6) >= lead
    # Each word is read a column at a time from its leftmost: first every line's
    # last word, then all other words together, so the passes cost as much as the
    # digits.  The line ends step back and are restored; an index below 0 is past a line.
    deep = np.flatnonzero(lens > per)
    more = (lens[deep].astype(np.intp) - 1) // per      # each line's words before its last
    line = np.repeat(deep, more)
    w = np.arange(1, len(line) + 1) - np.repeat(np.cumsum(more) - more, more)
    words = []
    for at, reach in ((ends[1:], lens), (ends[line + 1] - per * w, lens[line] - per * w)):
        word = np.zeros(len(reach), dtype=dtype)
        top = min(per, int(reach.max(initial=0)))
        at -= top
        for k in range(top - 1, -1, -1):
            byte = data[at]
            digit = byte & 15
            if base == 16:      # a letter of either case: its low 4 bits are its value - 9
                digit += 9 * (byte >> 6)
            digit *= reach > k
            word *= base
            word += digit
            at += 1
        words.append(word)
    return bad, over, minus, (words[0], line, w, words[1])


def _read_tree(codes, lines: int, text, first: int, n_u: int, count: int):
    """(root, pivots, out_child, in_child) of a routing tree written in
    preorder, one code per line from line ``first``; nodes numbered in preorder.
    ``codes`` are those of the ``lines`` lines before the first bad one.

    In a full binary tree written in preorder, each node opens two child
    slots and fills one, and each leaf or DEAD fills one: the count of open
    slots stays at 1 or more until the last code, and ends at 0.  A node's
    excluded child is the next code, and its included child the next code
    with the same count of open slots before it.  A ParseError names the
    first line that is not a code, lies past the tree's end, or holds a
    pivot or leaf code out of range; else, if the tree is unfinished, the last line.
    """
    n = len(codes)
    node = codes >= 0
    # open child slots after each code
    opened = np.cumsum(node.astype(np.int32) * 2 - 1, dtype=np.int32) + 1
    closed = np.flatnonzero(opened[:-1] == 0)
    past = int(closed[0]) + 1 if len(closed) else n     # the first code past the tree's end
    wrong = np.flatnonzero((codes[:past] >= n_u) | (codes[:past] < -1 - count))
    k = int(wrong[0]) if len(wrong) else past
    if k < n:
        why = ("code past the end of the routing tree" if k == past
               else f"tree pivot {text(k)} not in 0..{n_u - 1}" if node[k]
               else f"tree leaf {text(k)} not in -{count + 1}..-1")
        raise ParseError(why, first + k)
    if n < lines:
        raise ParseError(f"bad tree code {text(n)!r}", first + n)
    if not n or opened[-1]:
        left = opened[-1] if n else 1
        raise ParseError(f"routing tree ends with {left} branch(es) open", first + n - 1)
    codes = codes.astype(np.int32, copy=False)
    before = np.append(np.int32(1), opened[:-1])    # open slots before each code
    del opened
    if before.max() < 1 << 15:
        # numpy's stable sort of 16-bit ints is a radix sort, and a stable
        # sort's permutation is unique
        before = before.astype(np.int16)
    order = np.argsort(before, kind="stable")
    del before
    in_at = np.empty(n, dtype=np.int32)
    in_at[order[:-1]] = order[1:]
    del order
    nodes = np.flatnonzero(node).astype(np.int32)
    pivots = _int_array(codes[nodes])
    codes[nodes] = np.arange(len(nodes), dtype=np.int32)
    return int(codes[0]), pivots, _int_array(codes[nodes + 1]), _int_array(codes[in_at[nodes]])


def _words(masks, words: int) -> np.ndarray:
    """Bitmasks as rows of ``words`` uint64 words, least significant first."""
    if words == 1:
        return np.array(masks, dtype=np.uint64).reshape(len(masks), 1)
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
    excluded branch first, and containers, one per out-leaf, in the order
    that build emits them.
    """
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise PreconditionError(f"eps={eps} outside (0, 1/2)")
    if not (0 < tau <= 1):
        raise PreconditionError(f"tau={tau} outside (0, 1]")
    n_u = hg.universe.size
    total = hg.edge_count
    if total * n_u > _INCIDENCE_CELLS:
        raise PreconditionError(
            f"{total} hyperedges on {n_u} pairs: the container builder's incidence matrix "
            f"is capped at 2^21 cells")
    # a branch stops when spanned <= eps*total, i.e. spanned <= floor(eps*total)
    threshold = eps.numerator * total // eps.denominator
    r = max(hg.r, 2)
    depth_cap = 4 * r * math.ceil(1 / eps)
    fp_budget = max(1, math.ceil(4 * r * tau * n_u))
    common = dict(N=hg.universe.N, r=hg.r, eps=eps, tau=tau)
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


def _grow_levels(hg: PairHypergraph, threshold: int, depth_cap: int, fp_budget: int,
                 max_nodes: int) -> tuple[list, int]:
    """The tree's levels, root first, and its node count.

    Level d keeps each node's pivot, the rows of its out- and in-child in
    level d+1 (-1: a leaf or DEAD), and the container mask and span of each
    out-leaf, in row order.  Level d+1 lists the out-children, then the
    in-children, each in their parents' order.

    A node is its out-set and fingerprint, rows of uint64 words (least
    significant first), and its degrees: an element's degree counts the
    live hyperedges holding it (live: missing the out-set), and is 0 inside
    the fingerprint.  An in-child keeps its parent's live hyperedges, so
    only the pivot's degree changes, to 0.  An out-child loses the live
    hyperedges through the pivot, and each element's degree drops by the
    number of them that hold it (clipped at 0 inside the fingerprint).
    """
    n_u = hg.universe.size
    total = hg.edge_count
    words = -(-n_u // 64)
    v = np.arange(n_u)
    bits = np.zeros((n_u, words), dtype=np.uint64)
    bits[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    full_mask = _words([(1 << n_u) - 1], words)[0]
    degree = np.array([len(eids) for eids in hg.incidence])
    # signed, so that a fingerprint entry may go below 0 before the clip
    dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= degree.max())
    # through[:, v]: the hyperedges holding v, padded with hyperedge
    # `total`, which has no words and holds no element
    edges = np.zeros((words, total + 1), dtype=np.uint64)      # word k of every edge
    edges[:, :total] = _words(hg.edge_masks, words).T
    incidence = np.zeros((total + 1, n_u), dtype=dtype)
    for eid, e in enumerate(hg.edges):
        incidence[eid, list(e)] = 1
    through = np.full((degree.max(), n_u), total, dtype=np.intp)
    for u, eids in enumerate(hg.incidence):
        through[:len(eids), u] = eids
    chunk = max(1, _GATHER_CELLS // through.size)     # frontier rows per pass

    # the frontier: one row per node of the current level
    out = np.zeros((1, words), dtype=np.uint64)
    fp = np.zeros((1, words), dtype=np.uint64)
    deg = degree.astype(dtype)[None]
    spanned = np.array([total], dtype=np.int32)
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
        if levels:
            # a level's degree rows are made once it has passed the guards;
            # deg, pivot, go_out and go_in still hold its parent level's
            nxt = np.empty((width, n_u), dtype=dtype)
            n_out = len(go_out)
            for a in range(0, n_out, chunk):
                c = go_out[a:a + chunk]
                # the live hyperedges through the pivot; the others become padding
                ids = through.take(pivot[c], axis=1)
                for k in range(words):
                    ids[(edges[k][ids] & parent_out[c, k]) != 0] = total
                drop = incidence[ids].sum(axis=0, dtype=dtype)
                np.maximum(deg[c] - drop, 0, out=nxt[a:a + len(c)])
            np.take(deg, go_in, axis=0, out=nxt[n_out:])
            nxt[np.arange(n_out, width), pivot[go_in]] = 0
            deg = nxt
        # a live edge keeps an element outside the fingerprint: max >= 1
        pivot = deg.argmax(axis=1).astype(np.min_scalar_type(n_u - 1))
        out_spanned = spanned - deg[np.arange(width), pivot]
        leaf = out_spanned <= threshold
        pbit = bits[pivot]
        # the included branch is DEAD iff a live edge through the pivot has
        # all its other elements in fp.  Out-pivots are outside fp plus the
        # pivot, so a dead edge never passes the test
        dead = np.empty(width, dtype=bool)
        for a in range(0, width, chunk):
            ids = through.take(pivot[a:a + chunk], axis=1)
            rest = ~(fp[a:a + chunk] | pbit[a:a + chunk])
            held = ids < total
            for k in range(words):
                held &= (edges[k][ids] & rest[:, k]) == 0
            dead[a:a + chunk] = held.any(axis=0)
        go_out, go_in = np.flatnonzero(~leaf), np.flatnonzero(~dead)
        n_out = len(go_out)
        row = np.full((width, 2), -1, dtype=np.int32)
        row[go_out, 0] = np.arange(n_out)
        row[go_in, 1] = np.arange(n_out, n_out + len(go_in))
        levels.append((pivot, row[:, 0], row[:, 1],
                       ~(out[leaf] | pbit[leaf]) & full_mask, out_spanned[leaf]))
        parent_out = out
        out, fp, spanned, fp_size = (
            np.concatenate(pair) for pair in (
                (out[go_out] | pbit[go_out], out[go_in]), (fp[go_out], fp[go_in] | pbit[go_in]),
                (out_spanned[go_out], spanned[go_in]), (fp_size[go_out], fp_size[go_in] + 1)))
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
    """Containers and spans in the order the depth-first build emits them:
    one per out-leaf, in its parent's preorder.  Writes every out-leaf's
    code into ``out_child``.

    No two out-leaves share a mask.  Take the pivot v of their lowest common
    ancestor: v is in the out-set of the leaf on its excluded side (or of its
    own out-leaf), and in the fingerprint, so never in the out-set, of the other.
    """
    order = np.argsort(parent)
    out_child[parent[order]] = _leaf_code(np.arange(len(order), dtype=np.intc))
    return _ints(masks[order]), spans[order].tolist()


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


def _check_sparsity(hg: PairHypergraph, conts: np.ndarray, eps: Fraction) -> tuple[bool, int]:
    """Re-count spanned hyperedges per container from the hyperedge store.

    Needs a universe of at most 63 pairs (``require_verifiable``).
    """
    span = np.zeros(len(conts), dtype=np.int64)
    for em in hg.edge_masks:
        em = np.uint64(em)
        span += (conts & em) == em
    worst = int(span.max()) if len(conts) else 0
    return worst * eps.denominator <= eps.numerator * hg.edge_count, worst


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
    conts = np.fromiter(fam.containers, dtype=np.uint64, count=len(fam.containers))
    sp_ok, worst = _check_sparsity(hg, conts, fam.eps)
    num, den = fam.eps.numerator, fam.eps.denominator
    limit_num = num * hg.edge_count

    pivots = np.asarray(fam.pivots, dtype=np.uint64)
    # node c's excluded child at 2c, its included child at 2c + 1
    child = np.empty(2 * len(pivots), dtype=np.intc)
    child[0::2] = fam.out_child
    child[1::2] = fam.in_child

    if mode == "exhaustive":
        pieces = _free_masks(N, pattern, hg.universe.pair_index)
    else:
        pieces = _sampled_masks(hg, pattern, seed, samples)
    ends: list[int] = []        # the running count of sets at the end of each piece
    checked = 0
    witness = idx = None
    for sets in _pooled(pieces, ends):
        miss = _first_miss(fam.root, pivots, child, conts, sets)
        if miss is not None:
            k, code = miss
            checked += k + 1
            # the pieces after the one holding the miss were not needed
            del ends[bisect_left(ends, checked) + 1:]
            witness = hg.universe.digraph_from_mask(int(sets[k])).to_edge_text()
            idx = None if code == DEAD else _leaf_index(code)
            break
        checked += len(sets)
    # in sampled mode a piece is one batch of draws
    attempts = None if mode == "exhaustive" else _DRAW_BATCH * len(ends)
    return VerifyReport(mode, checked, witness is None, witness, idx, sp_ok, worst, limit_num,
                        den, attempts, None if attempts is None else seed)


class _WindowSieve:
    """The pattern-free draws of a batch, in draw order.

    A window of k consecutive vertices s..s+k-1 owns, in each of its k
    out-blocks, the k-1 consecutive bits from pair index i(N-1)+s on; taken
    in order they are the pair-index mask of the window relabelled onto
    [k].  One table over those masks, filled from the exhaustive decoder on
    [k], rejects every draw holding a copy inside some window.  What is left
    is tested against the hyperedges no window holds, in groups of at most
    _REST_CELLS survivor x hyperedge cells.
    """

    def __init__(self, hg: PairHypergraph, pattern: PatternDigraph):
        uni = hg.universe
        N = uni.N
        k = min(N, _WINDOW)
        small = PairUniverse(k)
        self.table = np.zeros(1 << small.size, dtype=bool)
        for masks in _free_masks(k, pattern, small.pair_index):
            self.table[masks] = True
        # window s: the draw shifted down by s(N-1)+s has its out-block j
        # at bit j(N-1); moving it down by j(N-k) puts it at j(k-1)
        self.starts = [np.uint64(s * (N - 1) + s) for s in range(N - k + 1)]
        self.blocks = [(np.uint64(j * (N - k)), np.uint64(((1 << (k - 1)) - 1) << j * (k - 1)))
                       for j in range(k)]

        def held(edge) -> bool:
            """Whether the hyperedge lies inside some window."""
            ends = [v for idx in edge for v in uni.index_pair(idx)]
            return k >= pattern.h and max(ends) - min(ends) < k

        # one column: a group of its rows meets the survivors in one broadcast
        self.rest = np.array([m for e, m in zip(hg.edges, hg.edge_masks) if not held(e)],
                             dtype=np.uint64).reshape(-1, 1)

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        free = np.concatenate([self._windowed(draws[a:a + _SIEVE_ROWS])
                               for a in range(0, len(draws), _SIEVE_ROWS)])
        done = 0
        while done < len(self.rest) and len(free):
            group = self.rest[done:done + max(1, _REST_CELLS // len(free))]
            free = free.compress(~((free & group) == group).any(axis=0))
            done += len(group)
        return free

    def _windowed(self, free: np.ndarray) -> np.ndarray:
        """The draws whose windows all hold pattern-free digraphs."""
        for start in self.starts:
            x = free >> start
            code = x & self.blocks[0][1]
            for down, bits in self.blocks[1:]:
                code |= (x >> down) & bits
            # compress and take are several times faster than a boolean
            # index and a uint64 index; the codes are below 2^12
            free = free.compress(self.table.take(code.view(np.int64)))
        return free


def _sampled_masks(hg: PairHypergraph, pattern: PatternDigraph, seed: int, samples: int):
    """The accepted sets of each batch of uniform draws, in draw order, until
    ``samples`` sets are accepted; a BudgetError once _DRAW_BUDGET draws
    were not enough."""
    sieve = _WindowSieve(hg, pattern)
    rng = np.random.RandomState(seed)
    accepted = made = 0
    while accepted < samples:
        if made >= _DRAW_BUDGET:
            raise BudgetError(f"sampled verification stopped after {made} draws, "
                              f"{accepted} of {samples} samples accepted")
        made += _DRAW_BATCH
        draws = rng.randint(0, 1 << hg.universe.size, size=_DRAW_BATCH, dtype=np.uint64)
        free = sieve(draws)[:samples - accepted]
        accepted += len(free)
        yield free


def _pooled(pieces, ends: list[int]):
    """The pieces' sets, in order, in groups of _ROUTE_BATCH (the last may be
    smaller); appends each piece's end, counted in sets, to ``ends``."""
    pool, size = [], 0
    for piece in pieces:
        ends.append((ends[-1] if ends else 0) + len(piece))
        while size + len(piece) >= _ROUTE_BATCH:
            cut = _ROUTE_BATCH - size
            yield np.concatenate([*pool, piece[:cut]])
            pool, size, piece = [], 0, piece[cut:]
        pool.append(piece)
        size += len(piece)
    if size:
        yield np.concatenate(pool)


def _first_miss(root: int, pivots: np.ndarray, child: np.ndarray, conts: np.ndarray,
                masks: np.ndarray) -> tuple[int, int] | None:
    """(position, leaf code) of the first mask its routed container misses.

    The masks still descending travel as one working set of (position, mask,
    node), one depth step per round: each reads its pivot bit and takes the
    next node from the interleaved ``child`` table (``child[2 * node + bit]``).
    At a step where some reach a leaf or DEAD, those write their code once and
    the working set is compressed.  A mask that ends on a DEAD branch is
    missed too.
    """
    code = np.full(len(masks), root, dtype=np.intc)
    live = len(masks) if root >= 0 else 0
    pos, m, node = np.arange(live, dtype=np.intc), masks[:live], code[:live].copy()
    one = np.uint64(1)
    while len(pos):
        # a uint64 bit added to intc codes would promote them to float64
        bit = ((m >> pivots.take(node)) & one).astype(np.intc)
        node = child.take(2 * node + bit)
        done = node < 0
        if done.any():
            code[pos.compress(done)] = node.compress(done)
            keep = ~done
            pos, m, node = pos.compress(keep), m.compress(keep), node.compress(keep)
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

    rows: list[ContainerRow] = []
    copies_ok = True
    for idx, cmask in enumerate(fam.containers):
        g = fam.universe.digraph_from_mask(cmask)
        copies = count_copies(g, pattern)
        if copies != fam.spans[idx]:
            raise VerificationError(
                f"container {idx}: decoded copy count {copies} differs from "
                f"spanned hyperedges {fam.spans[idx]}"
            )
        le_edges = copies * eps.denominator <= eps.numerator * hg.edge_count
        le_nh = copies * eps.denominator <= eps.numerator * N ** pattern.h
        copies_ok = copies_ok and le_edges and le_nh
        within = None
        if extremal is not None:
            # ea(G_C) <= ex + eps*N^2, decided exactly for both weight kinds
            within = weight.cmp_pairs((g.f2, g.f1 - eps * N * N), extremal.best_pair) <= 0
        rows.append(ContainerRow(idx, copies, g.f2, g.f1, weight.ea_str(g.f2, g.f1),
                                 le_edges, le_nh, within))

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
    )
