"""Exact extremal numbers, pattern-free counts and supersaturation scans.

compile_copies lists each copy of the pattern in the complete digraph on [n]
as the sorted tuple of its directed edges.  Each of the p = n(n-1)/2 pair
slots i < j of a digraph on [n] takes one of four states; state index idx
keeps slot q in bits 2q (i->j) and 2q+1 (j->i).  One block walker serves the
full scan, the free-mask decoder and its reference iterator: the low
min(p, 5) slots form a block whose states are the bits of one Python
integer.  Each copy's block bitset is added into bit-sliced counters at its
high requirement, and a fast zeta (subset-sum) transform over the high bits
gives every high state the copies it holds, so the 4^10 states of n=5 take a
few milliseconds whatever the copy count.  The full scan's reduce compares
integer ranks, from one exact sort of the (f2, f1) pairs on [n], and walks
each high state's low tie groups heaviest first only while a group can
still change the best.  Full-mode extremal_number keys a witness only when no
earlier witness's S_n orbit holds it, so it keys each class once.  The decoder
(_free_masks) unpacks the free-state bitsets of a chunk of blocks with
numpy.  It gives the container verifier its exhaustive sets and the window
table of its sampled sieve, and count-free the labelled free digraphs on
[n-1], from which f*(n) is counted with no canonical form for every
n <= 6 (_count_one_vertex_more).  iter_free_edge_masks yields the same
masks one at a time and is kept as the decoder's reference.

Both the count and canonical mode see a digraph on [k+1] as one on [k] plus
an attachment code of vertex k, and both read which codes make a copy off
one split of the copies on [k+1] (_split_copies).  One level loop (_grown)
grows graphs a vertex at a time by canonical augmentation (_augmented), for
the class list and the extremal search alike: a child is kept only if its
new vertex is canonically last, so no class is kept twice, and a child
whose new vertex lacks the largest degree triple is dropped with no search
(_top_last).  It carries each digraph as its masks and sizes (_Grown) and
builds a Digraph only for a returned class or witness.  The codes that keep
a new vertex free are one bitset over the 4^k codes, a lookup in the
attachment table by the adjacency word.  Each level's codes are split once
into tie groups of equal weight: the greedy seed takes the lowest free code
of the heaviest group, and the bound keeps a prefix of the groups before
any digraph is built.  Of each orbit of codes under the parent's
automorphisms, read off the search that kept the parent, only the smallest
is extended.  It reaches its cap n=7: c3 at a=2 takes 1.7-2.5 s per CLI
process on one Xeon vCPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, groupby, islice, permutations
from operator import and_, or_, xor

from .digraphs import (
    Digraph,
    PatternDigraph,
    canonical_form,
    canonical_form_and_orders,
    count_copies,
    orders_group,
)
from .errors import BudgetError, PreconditionError, VerificationError
from .lazy import LazyNumpy
from .weights import WeightParam

np = LazyNumpy(globals())

FULL_MODE_MAX_N = 5
CANONICAL_MODE_MAX_N = 7
COUNT_CLASSES_MAX_N = 6
COUNT_FREE_MAX_N = 6  # f*(n) decodes the 4^((n-1)(n-2)/2) states on [n-1]

_LOW_SLOTS = 5  # one block holds the 4^5 = 1024 states of the low slots
_SPLIT_STATES = 64  # high states whose counters the walker splits into exact bitsets together
_DECODE_STATES = 1 << 16  # states the free-mask decoder unpacks together
_RAW_WITNESSES = 50_000  # free states the full scan keeps as witnesses


def pair_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def compile_copies(n: int, pattern: PatternDigraph) -> list[tuple[tuple[int, int], ...]]:
    """Distinct copies of the pattern inside the complete digraph on [n].

    Each copy is the sorted tuple of its directed edges (u, v), and the list
    is sorted.  If n is below the pattern's vertex count there are no copies
    at all.
    """
    if n < pattern.h:
        return []
    core = pattern.core_digraph
    return sorted({
        tuple(sorted((img[u], img[v]) for u, v in core.edges))
        for img in permutations(range(n), core.n)
    })


# ---------------------------------------------------------------------------
# The block walker
# ---------------------------------------------------------------------------

def _bits(x: int):
    """Positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _holding(width: int, req: int) -> int:
    """Bitset of the states s < 2^width that hold every bit of req."""
    states = 1
    for b in range(width):
        states = states << (1 << b) if req >> b & 1 else states | states << (1 << b)
    return states


def _per_state(slot_values) -> list[int]:
    """table[s] = sum over slots q of slot_values[q][state of slot q in s]."""
    table = [0]
    for values in slot_values:
        table = [t + v for v in values for t in table]
    return table


def _sizes(width: int) -> tuple[list[int], list[int]]:
    """The (f2, f1) tables of the 4^width states of width pair slots."""
    return _per_state([(0, 0, 0, 1)] * width), _per_state([(0, 1, 1, 0)] * width)


def _state_bits(n: int) -> dict[tuple[int, int], int]:
    """The state bit of every directed edge on [n]: 2q for i->j and 2q+1 for
    j->i, where q is the slot of the pair i < j."""
    bit = {}
    for q, (i, j) in enumerate(pair_slots(n)):
        bit[i, j], bit[j, i] = 2 * q, 2 * q + 1
    return bit


def _zeta_slices(width: int):
    """(into, frm) slice pairs over the 2^width high states, bit b by bit b:
    the pairs of bit b pair every state holding b (into) with the same state
    without b (frm).  A bit below the middle pairs whole strides, one slice
    per offset; a bit above it pairs runs, one slice per run."""
    size = 1 << width
    for b in range(width):
        step = 1 << b
        if step * step <= size // 2:
            yield from ((slice(o + step, size, 2 * step), slice(o, size, 2 * step))
                        for o in range(step))
        else:
            yield from ((slice(s + step, s + 2 * step), slice(s, s + step))
                        for s in range(0, size, 2 * step))


def _blocks(n: int, pattern: PatternDigraph, c_max: int):
    """An iterator of (hi, exact) for every high state hi, in index order.

    exact[c] is the bitset of the low states lo for which the state
    hi * 4^L + lo holds exactly c copies, for c = 0..c_max at most.  A copy
    is present in state idx iff idx has every state bit of its edges.  Each
    copy's low-state bitset is added into saturating bit-sliced counters at
    its exact high requirement; the fast zeta transform then sums, bit by
    high bit, every high state's counters over its subsets, so hi counts the
    copies whose high requirement it holds.  All 4^(p-L) high states are
    held at once, so n is capped at FULL_MODE_MAX_N.
    """
    if n > FULL_MODE_MAX_N:
        raise BudgetError(
            f"the block walker holds 4^{n * (n - 1) // 2 - _LOW_SLOTS} high states at once; "
            f"capped at n={FULL_MODE_MAX_N}"
        )
    slots = pair_slots(n)
    bit = _state_bits(n)
    low = min(len(slots), _LOW_SLOTS)
    lo_full = (1 << 4 ** low) - 1
    copies = compile_copies(n, pattern)
    c_top = min(c_max, len(copies))
    # saturating counters: planes[j][hi] holds bit j of the count, over[hi]
    # the states whose count reached 2^len(planes) > c_top
    size = 4 ** (len(slots) - low)
    planes = [[0] * size for _ in range(c_top.bit_length())]
    over = [0] * size
    for copy in copies:
        req = sum(1 << bit[e] for e in copy)
        hi = req >> 2 * low
        carry = _holding(2 * low, req & ((1 << 2 * low) - 1))
        for plane in planes:
            plane[hi], carry = plane[hi] ^ carry, plane[hi] & carry
            if not carry:
                break
        over[hi] |= carry
    for into, frm in _zeta_slices(2 * (len(slots) - low)):
        carry = None  # a ripple carry, plane by plane
        for plane in planes:
            x, y = plane[into], plane[frm]
            total = list(map(xor, x, y))
            if carry is None:
                carry = list(map(and_, x, y))
            else:
                carry, total = (list(map(or_, map(and_, x, y), map(and_, total, carry))),
                                list(map(xor, total, carry)))
            plane[into] = total
        over[into] = map(or_, over[into], over[frm])
        if carry is not None:
            over[into] = map(or_, over[into], carry)

    def rows():
        """Each high state's exact, _SPLIT_STATES states at a time: the low
        states that did not saturate, split by each plane's bit, highest
        plane first, keeping the prefixes that still lead to a count of at
        most c_top.  The sums are dropped once split."""
        for a in range(0, size, _SPLIT_STATES):
            b = min(a + _SPLIT_STATES, size)
            exact = [[lo_full ^ x for x in over[a:b]]]
            for j in reversed(range(len(planes))):
                split = []
                for part in exact:
                    held = list(map(and_, part, planes[j][a:b]))
                    split += [list(map(xor, part, held)), held]
                exact = split[:(c_top >> j) + 1]
            for sums in (over, *planes):
                sums[a:b] = [0] * (b - a)
            yield from zip(*exact)

    return enumerate(rows())


def _tie_groups(weight: WeightParam, f2: list[int], f1: list[int]) -> list[tuple[tuple[int, int], int]]:
    """The states grouped by equal weighted size, heaviest first: one
    (pair, bitset) per group, pair being the least (f2, f1) of its members."""
    key = cmp_to_key(weight.cmp_pairs)  # equal keys are exact ties
    states: dict[tuple[int, int], int] = {}  # each pair's bitset of states
    for s, pair in enumerate(zip(f2, f1)):
        states[pair] = states.get(pair, 0) | 1 << s
    groups = []
    for _, tied in groupby(sorted(states, key=key, reverse=True), key=key):
        tied = list(tied)
        groups.append((min(tied), sum(states[pair] for pair in tied)))  # disjoint bitsets
    return groups


def _ranks(weight: WeightParam, p: int) -> dict[tuple[int, int], int]:
    """The rank of every pair (f2, f1) with f2 + f1 <= p, from one exact sort
    by weighted size: a heavier pair ranks higher, and tied pairs share a rank."""
    key = cmp_to_key(weight.cmp_pairs)
    pairs = sorted(((f2, s - f2) for s in range(p + 1) for f2 in range(s + 1)), key=key)
    return {pair: r for r, (_, tied) in enumerate(groupby(pairs, key=key)) for pair in tied}


def _heaviest(groups, mask: int) -> int:
    """The states of mask in the heaviest tie group that meets it, or 0."""
    return next((x for x in (mask & codes for _, codes in groups) if x), 0)


@dataclass
class ScanResult:
    n: int
    states: int
    best_pairs: list[tuple[int, int] | None]  # index = exact copy count
    witness_states: list[int]
    witness_overflow: bool


def full_scan(
    n: int,
    pattern: PatternDigraph,
    weight: WeightParam,
    k_max: int = 0,
    collect_witnesses: bool = False,
) -> ScanResult:
    """Exhaustive scan of all 4^(n(n-1)/2) digraphs on [n], exact reduce.

    best_pairs[c] is the pair of the first state in index order attaining
    the maximum among states with exactly c copies; witness_states are the
    free states attaining best_pairs[0], in index order, at most _RAW_WITNESSES.

    The reduce compares int ranks (_ranks), from one exact sort by
    cmp_pairs.  Each high state's mask for c walks the low tie groups
    heaviest first, each ranked with the high state's pair added, and stops
    at the first group the mask meets or the first that cannot change
    best_pairs[c]: one ranked below it, or level with it, save at c = 0 with
    witnesses collected, where a tie adds witnesses.
    """
    if n > FULL_MODE_MAX_N:
        raise BudgetError(
            f"full enumeration needs 4^{n * (n - 1) // 2} states; capped at n={FULL_MODE_MAX_N}"
        )
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if k_max < 0:
        raise PreconditionError("k_max must be >= 0")
    p = n * (n - 1) // 2
    low = min(p, _LOW_SLOTS)
    (lo_f2, lo_f1), (hi_f2, hi_f1) = _sizes(low), _sizes(p - low)
    groups = _tie_groups(weight, lo_f2, lo_f1)
    rank = _ranks(weight, p)
    # per high pair: (rank of group pair + high pair, group bitset), heaviest first
    ladders = {pair: [(rank[pair[0] + g2, pair[1] + g1], codes) for (g2, g1), codes in groups]
               for pair in set(zip(hi_f2, hi_f1))}
    best = [-1] * (k_max + 1)  # the rank of best_pairs[c], -1 while it is None
    best_pairs: list[tuple[int, int] | None] = [None] * (k_max + 1)
    wits: list[int] = []
    overflow = False
    for hi, exact in _blocks(n, pattern, k_max):
        ladder = ladders[hi_f2[hi], hi_f1[hi]]
        for c, mask in enumerate(exact):
            if not mask:
                continue
            ties = c == 0 and collect_witnesses
            floor = best[c] if ties else best[c] + 1  # the least rank that changes anything
            for r, codes in ladder:
                if r < floor:
                    break
                top = mask & codes  # its lowest bit comes first in index order
                if not top:
                    continue
                if r > best[c]:
                    lo = (top & -top).bit_length() - 1
                    best[c] = r
                    best_pairs[c] = (lo_f2[lo] + hi_f2[hi], lo_f1[lo] + hi_f1[hi])
                    if ties:
                        wits, overflow = [], False  # a strictly better pair replaces them
                if ties:
                    # a tie appends the witnesses; past _RAW_WITNESSES they only set overflow
                    for s in _bits(top):
                        if len(wits) == _RAW_WITNESSES:
                            overflow = True
                            break
                        wits.append((hi << 2 * low) | s)
                break
    return ScanResult(n, 4 ** p, best_pairs, wits, overflow)


def _state_masks(n: int, edge_bit) -> tuple[list[int], list[int]]:
    """The edge bitmask of every low state and of every high state.

    edge_bit(u, v) gives the bit position of the directed edge u->v; the
    state hi * 4^L + lo has the mask hi_masks[hi] | lo_masks[lo].
    """
    slots = [(1 << edge_bit(i, j), 1 << edge_bit(j, i)) for i, j in pair_slots(n)]
    lo_masks, hi_masks = (_per_state([(0, fw, bw, fw | bw) for fw, bw in part])
                          for part in (slots[:_LOW_SLOTS], slots[_LOW_SLOTS:]))
    return lo_masks, hi_masks


def iter_free_edge_masks(n: int, pattern: PatternDigraph, edge_bit):
    """An iterator of one bitmask per pattern-free digraph on [n] (all of
    them), in state-index order; an n past FULL_MODE_MAX_N is refused on the
    call.

    edge_bit(u, v) gives the bit position of the directed edge u->v, so the
    caller controls the indexing (e.g. the pair-universe codec).  The
    verifier and the labelled count decode the same blocks in bulk
    (_free_masks); this generator is its reference.
    """
    blocks = _blocks(n, pattern, 0)  # refuses an n past FULL_MODE_MAX_N here
    lo_masks, hi_masks = _state_masks(n, edge_bit)
    return (hi_masks[hi] | lo_masks[lo] for hi, exact in blocks for lo in _bits(exact[0]))


def _free_masks(n: int, pattern: PatternDigraph, edge_bit):
    """Arrays of the bitmasks of the pattern-free digraphs on [n], in
    state-index order, one chunk of the block walker's high states at a time.

    The masks are those of iter_free_edge_masks.  Each block's free-state
    bitset becomes bytes; the chunk's bytes are unpacked into one bit per
    state (and zero bits past the last state, when 4^L is below 8), and the
    set bits, row by row, are the free states in order.
    """
    lo_masks, hi_masks = (np.array(t, dtype=np.uint64) for t in _state_masks(n, edge_bit))
    width = len(lo_masks)               # 4^L states per block
    size = -(-width // 8)
    step = max(1, _DECODE_STATES // width)
    blocks = _blocks(n, pattern, 0)
    while chunk := list(islice(blocks, step)):
        raw = b"".join(exact[0].to_bytes(size, "little") for _, exact in chunk)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        hi, lo = np.nonzero(bits.reshape(len(chunk), 8 * size))
        yield hi_masks[chunk[0][0] + hi] | lo_masks[lo]


# ---------------------------------------------------------------------------
# Labelled counts from the free digraphs one vertex smaller
# ---------------------------------------------------------------------------

def _split_copies(k: int, pattern: PatternDigraph) -> list[tuple[tuple, int]]:
    """One entry (base, requirement) per copy of the pattern on [k+1] whose
    base can lie inside a pattern-free digraph on [k].

    An attachment code of the new vertex k has 2 bits per old vertex u: bit
    2u is the edge u->k and bit 2u+1 the edge k->u.  base holds the copy's
    edges among the old vertices, and the requirement is the code of its
    edges at k (0 when it has none).
    """
    entries = []
    for copy in compile_copies(k + 1, pattern):
        req = sum(1 << (2 * u if v == k else 2 * v + 1) for u, v in copy if k in (u, v))
        # a copy with requirement 0 lies on [k].  A free digraph on [k] can
        # hold it only at k = h - 1: the core is there, and the new vertex is
        # the room its isolated vertices lacked.  At k >= h it would be a
        # copy on [k] itself.
        if req or k + 1 == pattern.h:
            entries.append((tuple(e for e in copy if k not in e), req))
    return entries


def _count_one_vertex_more(k: int, pattern: PatternDigraph) -> int:
    """The number of labelled pattern-free digraphs on [k+1], counted from
    the free digraphs on [k] with no canonical form.

    A digraph on [k+1] is a digraph G on [k] plus an attachment code x of
    vertex k, and it is free iff G is free and no copy has its base inside G
    and its requirement inside x.  So f*(k+1) is the sum over the 4^k codes
    x of F - |U_x|, F the number of free G and U_x those holding the base of
    a copy whose requirement lies inside x.  Each distinct base is one
    bitset over the free list, in state-index order.  The codes are walked
    depth first over their 2k bits, and a copy's bitset joins U when the
    walk sets the highest bit of its requirement.  A copy with requirement 0
    (see _split_copies) is met by every code; it seeds the walk.
    """
    bit = _state_bits(k)
    copies = [(req, sum(1 << bit[e] for e in base)) for base, req in _split_copies(k, pattern)]
    holders = {base: 0 for _, base in copies}  # base -> bitset of the free G holding it
    free = 0
    for masks in _free_masks(k, pattern, lambda u, v: bit[u, v]):
        for base in holders:
            b = np.uint64(base)
            held = np.packbits((masks & b) == b, bitorder="little").tobytes()
            holders[base] |= int.from_bytes(held, "little") << free
        free += len(masks)
    seed = 0
    by_top = [[] for _ in range(2 * k)]  # copies by the highest bit of their requirement
    for req, base in copies:
        if req:
            by_top[req.bit_length() - 1].append((req, holders[base]))
        else:
            seed |= holders[base]

    def walk(d: int, code: int, hit: int, left: int) -> int:
        """The sum of F - |U_x| over the codes x that agree with code below
        bit d; hit is U of code's bits below d, and left is F - |hit|."""
        if d == 2 * k:
            return left
        total = walk(d + 1, code, hit, left)
        code |= 1 << d
        met = [held for req, held in by_top[d] if code & req == req]
        for held in met:
            hit |= held
        if met:
            left = free - hit.bit_count()
        return total + walk(d + 1, code, hit, left)

    return walk(0, 0, seed, free - seed.bit_count())


# ---------------------------------------------------------------------------
# One-vertex growth: canonical augmentation and Aut-orbit pruning
# ---------------------------------------------------------------------------

class _Grown:
    """A digraph in one-vertex growth, held as the fields its readers use:
    n, out_mask, in_mask, f2 and f1, each as in Digraph."""

    __slots__ = ("n", "out_mask", "in_mask", "f2", "f1")

    def __init__(self, n: int, out_mask: tuple[int, ...], in_mask: tuple[int, ...], f2: int, f1: int):
        self.n, self.out_mask, self.in_mask, self.f2, self.f1 = n, out_mask, in_mask, f2, f1

    @classmethod
    def empty(cls, n: int) -> "_Grown":
        return cls(n, (0,) * n, (0,) * n, 0, 0)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, row in enumerate(self.out_mask) for v in _bits(row))


def _attachment_table(k: int, pattern: PatternDigraph) -> list[tuple[int, int]]:
    """One entry (base, forbidden) per copy of _split_copies(k, pattern):
    base has bit u*k + v for each of the copy's edges u->v among the old
    vertices, and forbidden is the bitset of the 4^k attachment codes that
    hold its requirement.  A copy with requirement 0 (see _split_copies)
    forbids every code."""
    return [(sum(1 << u * k + v for u, v in base), _holding(2 * k, req))
            for base, req in _split_copies(k, pattern)]


def _free_codes(g, table) -> int:
    """Bitset of the attachment codes that keep the pattern-free g (a
    Digraph or a _Grown) free: table is _attachment_table(g.n, pattern), and
    a copy on [g.n + 1] appears iff its base lies inside g and the code
    holds its requirement."""
    k = g.n
    adj = sum(row << u * k for u, row in enumerate(g.out_mask))  # bit u*k + v is the edge u->v
    forbidden = 0
    for base, codes in table:
        if base & adj == base:
            forbidden |= codes
    return ((1 << 4 ** k) - 1) & ~forbidden


def _extension(g, code: int) -> _Grown:
    """g with a new vertex k = g.n attached by the attachment code, from g's
    masks: digit u of the code (bits 2u, 2u+1) adds u->k, k->u or both."""
    k = g.n
    out, inn = list(g.out_mask), list(g.in_mask)
    k_out = k_in = f2 = 0
    for u in range(k):
        d = code >> 2 * u & 3
        if d & 1:
            out[u] |= 1 << k
            k_in |= 1 << u
        if d & 2:
            inn[u] |= 1 << k
            k_out |= 1 << u
        f2 += d == 3
    return _Grown(k + 1, (*out, k_out), (*inn, k_in), g.f2 + f2, g.f1 + code.bit_count() - 2 * f2)


def _orbit_minimal(auts: list[tuple[int, ...]], codes: int) -> int:
    """The codes of the bitset that no automorphism of the parent g maps to a
    smaller one.

    auts is Aut(g), read off the search that kept g (_augmented).  An
    automorphism pi moves a code's bits 2u, 2u+1 to 2pi(u), 2pi(u)+1, and g
    extended by pi(code) is isomorphic to g extended by code.  The bitset
    must be closed under Aut(g), as the free codes and each tie group are;
    walking it in ascending order then meets each orbit at its minimum first.
    """
    if len(auts) == 1:
        return codes
    k = len(auts[0])
    keep = 0
    seen = set()
    for code in _bits(codes):
        if code in seen:
            continue
        keep |= 1 << code
        digits = [(u, code >> 2 * u & 3) for u in range(k)]
        for perm in auts:
            seen.add(sum(d << 2 * perm[u] for u, d in digits))
    return keep


def _children(reps, table, reach=None):
    """The one-vertex extensions of each (g, Aut(g)) of reps by its
    orbit-minimal free codes, reps in turn and codes ascending; table is
    _attachment_table(g.n, pattern).  reach(g), when given, is the bitset of
    the codes of g worth extending, read when the walk reaches g and closed
    under Aut(g)."""
    for g, auts in reps:
        codes = _free_codes(g, table)
        if reach is not None:
            codes &= reach(g)
        for code in _bits(_orbit_minimal(auts, codes)):
            yield _extension(g, code)


def _top_last(g) -> bool:
    """Whether no vertex of g has a larger (out-degree, in-degree, 2-cycle
    count) than its last vertex.

    That triple is colour refinement's starting colour.  Refinement keeps
    the cell order and the canonical order places the cells in colour
    order, so the vertex placed last has the largest triple: a child whose
    new vertex fails this is never canonically last, and needs no search."""
    out, inn = g.out_mask[-1], g.in_mask[-1]
    top = (out.bit_count(), inn.bit_count(), (out & inn).bit_count())
    return all((o.bit_count(), i.bit_count(), (o & i).bit_count()) <= top
               for o, i in zip(g.out_mask, g.in_mask))


def _augmented(exts):
    """(key, ext, orders) for each extension that canonical augmentation
    keeps, in the order met: those whose new vertex k = ext.n - 1 the
    canonical order can place last, i.e. k is in the Aut(ext)-orbit
    {order[-1]} of the key's optimal orders.  One search per extension that
    passes _top_last gives the verdict, the key and the orders, and so the
    group the next level needs (orders_group)."""
    for ext in exts:
        if not _top_last(ext):
            continue
        key, orders = canonical_form_and_orders(ext)
        k = ext.n - 1
        if any(order[-1] == k for order in orders):
            yield key, ext, orders


def _grown(tables, reach=None):
    """The last level's extensions of one-vertex growth from the digraph on
    [1], untested; each earlier level's are cut to one per class by
    canonical augmentation (_augmented) and extended by _children with
    reach.  tables[k - 1] is _attachment_table(k, pattern).

    Each free class on [k+1] that reach keeps is kept exactly once (McKay,
    Isomorph-free exhaustive generation, J. Algorithms 1998):
    - Its canonical parent X - l, l the vertex placed last, is free, as
      freeness is hereditary; by induction its class was kept once, as g.
      An isomorphism g -> X - l carries l's edges to a free code of g, and
      the orbit-minimal code of its Aut(g)-orbit gives a child isomorphic
      to X by a map taking k to l, which _augmented keeps.
    - reach(g) reads only g's size and (f2, f1), so it is closed under
      Aut(g), and it is hereditary for a >= 1: with d2, d1 and d0 the
      double, single and empty pairs at l, the bound of X - l's extension
      exceeds X's by a(d1 + d0) - d1 >= 0, so every canonical ancestor of
      a class that reaches the best pair passes it too.
    - Two kept children that are isomorphic map k to k, after an
      automorphism of one of them, so they come from the same g by codes
      that an automorphism of g exchanges: the same orbit, whose
      orbit-minimal code is extended once.
    """
    exts = [_Grown.empty(1)]
    for table in tables:
        exts = _children(((g, orders_group(orders)) for _, g, orders in _augmented(exts)),
                         table, reach)
    return exts


def free_classes(n: int, pattern: PatternDigraph) -> dict[bytes, Digraph]:
    """All pattern-free isomorphism classes on [n], via one-vertex growth,
    keyed by canonical form, in the order growth meets them.

    Every pattern-free class on k+1 vertices is a free class on k vertices
    plus a vertex, so extending every class by the orbit-minimal free
    codes of its automorphisms and keeping the children whose new vertex
    is canonically last gives each class once (_grown); each key comes from
    the search that kept its class.
    """
    if n > COUNT_CLASSES_MAX_N:
        raise BudgetError(f"class generation capped at n={COUNT_CLASSES_MAX_N}")
    reps = _augmented(_grown([_attachment_table(k, pattern) for k in range(1, n)]))
    return {key: Digraph(g.n, g.edges) for key, g, _ in reps}


def _greedy_seed(tables, groups) -> _Grown:
    """The end of a greedy path from the digraph on [1]: each level adds the
    lowest free code of the heaviest tie group (groups[k - 1] for level k)
    that has one.  Free codes and tie groups are closed under Aut(parent),
    so that code is orbit-minimal and gives the first heaviest extension
    _children would yield.  A dead end, where a core copy on h - 1 vertices
    forbids every code, gives the empty digraph, free as a pattern has edges."""
    g = _Grown.empty(1)
    for table, level in zip(tables, groups):
        top = _heaviest(level, _free_codes(g, table))
        if not top:
            return _Grown.empty(len(tables) + 1)
        g = _extension(g, (top & -top).bit_length() - 1)
    return g


def _extremal_canonical(n: int, pattern: PatternDigraph, weight: WeightParam):
    """Branch-and-bound over canonical representatives; exact max + classes.

    The bound starts at _greedy_seed's (f2, f1), heaviest free code first.
    Pruning discards a code only when even turning every remaining pair into
    a double edge cannot reach the bound.  Below level n growth keeps each
    class once, by canonical augmentation, and the bound is hereditary
    (_grown), so every class attaining the maximum survives to level n.
    There each extension that ties or beats the bound is keyed, and a
    winner keeps the first representative met: a labelling of its class
    that a canonical parent and an orbit-minimal code give.
    """
    if n > CANONICAL_MODE_MAX_N:
        raise BudgetError(f"canonical search capped at n={CANONICAL_MODE_MAX_N}")
    tables = [_attachment_table(k, pattern) for k in range(1, n)]
    groups = [_tie_groups(weight, *_sizes(k)) for k in range(1, n)]
    seed = _greedy_seed(tables, groups)
    best_pair, winners = (seed.f2, seed.f1), {}

    def reach(g: _Grown) -> int:
        """The codes whose extension of g can still reach best_pair (always
        attained; a later, higher one prunes more): the groups are heaviest
        first, so they form a prefix."""
        rem = n * (n - 1) // 2 - (g.n + 1) * g.n // 2  # pairs not yet placed in g's child
        codes = 0
        for (f2, f1), group in groups[g.n - 1]:
            if weight.cmp_pairs((g.f2 + f2 + rem, g.f1 + f1), best_pair) < 0:
                break
            codes |= group
        return codes

    # level n: an extension that loses to best_pair is never canonicalised
    for ext in _grown(tables, reach):
        val = weight.cmp_pairs((ext.f2, ext.f1), best_pair)
        if val < 0:
            continue
        key = canonical_form(ext)
        if val > 0:
            best_pair = (ext.f2, ext.f1)
            winners = {key: ext}
        else:
            winners.setdefault(key, ext)
    return best_pair, {key: Digraph(g.n, g.edges) for key, g in winners.items()}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalResult:
    n: int
    weight: WeightParam
    mode: str
    value_str: str
    value_float: float
    value_fraction: Fraction | None
    best_pair: tuple[int, int]
    witnesses: tuple[Digraph, ...]
    witness_keys: tuple[bytes, ...]
    witness_overflow: bool
    states_scanned: int | None


def _assemble_result(n, pattern, weight, mode, best_pair, class_map, overflow,
                     witness_cap, states) -> ExtremalResult:
    keys = sorted(class_map)
    if len(keys) > witness_cap:
        keys = keys[:witness_cap]
        overflow = True
    witnesses = tuple(class_map[k] for k in keys)
    for wit in witnesses:
        if count_copies(wit, pattern) != 0:
            raise VerificationError("extremal witness is not pattern-free on re-check")
        if weight.cmp_pairs((wit.f2, wit.f1), best_pair) != 0:
            raise VerificationError("extremal witness does not attain the maximum on re-check")
    return ExtremalResult(
        n=n,
        weight=weight,
        mode=mode,
        value_str=weight.ea_str(best_pair[0], best_pair[1]),
        value_float=weight.ea_float(*best_pair),
        value_fraction=weight.ea_fraction(*best_pair),
        best_pair=best_pair,
        witnesses=witnesses,
        witness_keys=tuple(keys),
        witness_overflow=overflow,
        states_scanned=states,
    )


def extremal_number(
    n: int,
    pattern: PatternDigraph,
    weight: WeightParam,
    mode: str = "full",
    witness_cap: int = 256,
) -> ExtremalResult:
    """Exact maximum weighted size over pattern-free digraphs on [n]."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if mode == "full":
        scan = full_scan(n, pattern, weight, k_max=0, collect_witnesses=True)
        best_pair = scan.best_pairs[0]
        class_map: dict[bytes, Digraph] = {}
        bit = _state_bits(n)
        edges = sorted(bit, key=bit.get)  # edges[b] has state bit b
        moves = [[bit[perm[u], perm[v]] for u, v in edges] for perm in permutations(range(n))]
        seen = set()  # the S_n orbits of the states keyed so far
        for state in scan.witness_states:
            if state in seen:
                continue  # an earlier witness of its class came first in index order
            on = list(_bits(state))
            g = Digraph(n, frozenset(edges[b] for b in on))
            class_map[canonical_form(g)] = g
            seen.update(sum(1 << move[b] for b in on) for move in moves)
        return _assemble_result(
            n, pattern, weight, mode, best_pair, class_map, scan.witness_overflow,
            witness_cap, scan.states,
        )
    if mode == "canonical":
        best_pair, winners = _extremal_canonical(n, pattern, weight)
        return _assemble_result(
            n, pattern, weight, mode, best_pair, winners, False, witness_cap, None,
        )
    raise PreconditionError(f"unknown mode {mode!r}; expected full or canonical")


def count_free(n: int, pattern: PatternDigraph) -> int:
    """Exact number of labelled pattern-free digraphs on [n]."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n > COUNT_FREE_MAX_N:
        raise BudgetError(f"labelled count capped at n={COUNT_FREE_MAX_N}")
    return _count_one_vertex_more(n - 1, pattern)


@dataclass(frozen=True)
class RatioReport:
    n: int
    count: int
    ex2: int
    log2_count: float
    ratio: float | None


def counting_ratio(n: int, pattern: PatternDigraph) -> RatioReport:
    """log2 of the pattern-free count against the a=2 extremal number.

    Also asserts the exact spanning lower bound count >= 2**ex2: every edge
    subset of an extremal witness is pattern-free by monotonicity.  The
    count comes first: it refuses an n past its cap before any search runs.
    """
    count = count_free(n, pattern)
    mode = "full" if n <= FULL_MODE_MAX_N else "canonical"
    ex = extremal_number(n, pattern, WeightParam.from_rational(2), mode=mode)
    if ex.value_fraction.denominator != 1:
        raise VerificationError("a=2 extremal value must be an integer")
    ex2 = int(ex.value_fraction)
    if count < (1 << ex2):
        raise VerificationError(f"spanning lower bound violated: f*={count} < 2^{ex2}")
    log2c = math.log2(count)
    ratio = (log2c / ex2) if ex2 > 0 else None
    return RatioReport(n, count, ex2, log2c, ratio)


@dataclass(frozen=True)
class SupersatPoint:
    n: int
    k: int
    f2: int
    f1: int
    value_str: str
    value_float: float
    value_fraction: Fraction | None


def supersat_scan(
    n: int,
    pattern: PatternDigraph,
    weight: WeightParam,
    k_max: int,
) -> list[SupersatPoint]:
    """For each copy budget k in 0..k_max, the exact maximum weighted size
    over digraphs on [n] with at most k pattern copies."""
    if k_max < 0:
        raise PreconditionError("k_max must be >= 0")
    scan = full_scan(n, pattern, weight, k_max=k_max)
    points: list[SupersatPoint] = []
    running: tuple[int, int] | None = None
    for k in range(k_max + 1):
        cand = scan.best_pairs[k]
        if cand is not None and (running is None or weight.cmp_pairs(cand, running) > 0):
            running = cand
        f2, f1 = running
        points.append(
            SupersatPoint(
                n, k, f2, f1,
                weight.ea_str(f2, f1),
                weight.ea_float(f2, f1),
                weight.ea_fraction(f2, f1),
            )
        )
    return points
