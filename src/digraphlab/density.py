"""Exact density parameters of a pattern digraph.

Two quantities drive everything downstream: the sparsity verdict (every edge
subset with more than one edge must have density e/v at most a/2) and the
shifted-ratio maximum m = max (e-1)/(v-2) used as the container exponent.
Both are read off one walk over the pattern's edge subsets
(``PatternDigraph.subset_maxima``), which compares the ratios exactly by
integer cross-multiplication and keeps the first subset attaining each
maximum as its witness.  A pattern is walked once, whichever of these asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digraphs import PatternDigraph
from .errors import PreconditionError
from .weights import WeightParam

Edge = tuple[int, int]


@dataclass(frozen=True)
class MDensityResult:
    """Maximum of (e-1)/(v-2) over edge subsets with e > 1 and v >= 3.

    Subsets spanning only two vertices (a bare 2-cycle) make the denominator
    vanish; they are excluded from the numeric maximum but their presence is
    surfaced through ``has_two_cycle_subgraph``, and every consumer that
    needs a usable exponent refuses when the flag is set.  ``value`` is None
    when no qualifying subset exists at all.
    """

    value: Fraction | None
    witness: tuple[Edge, ...] | None
    has_two_cycle_subgraph: bool

    @property
    def usable(self) -> bool:
        return self.value is not None and not self.has_two_cycle_subgraph

    @property
    def display(self) -> str:
        if self.value is None or self.has_two_cycle_subgraph:
            return "infinite"
        return str(self.value)


@dataclass(frozen=True)
class ConditionResult:
    """Verdict of the sparsity condition at weight a, with the densest subgraph."""

    ok: bool
    max_density: Fraction
    witness: tuple[Edge, ...]
    weight: WeightParam

    @property
    def witness_text(self) -> str:
        e = len(self.witness)
        v = len({x for edge in self.witness for x in edge})
        rel = "<=" if self.ok else ">"
        return f"{e}/{v} {rel} {self.weight.exact_str}/2"


def _witness(pattern: PatternDigraph, mask: int) -> tuple[Edge, ...]:
    """The edges a subset mask picks from the sorted edge list."""
    return tuple(edge for i, edge in enumerate(pattern.graph.edge_list) if mask >> i & 1)


def m_density(pattern: PatternDigraph) -> MDensityResult:
    """The container exponent m; a subset spanning two vertices with two
    edges is exactly a 2-cycle, so the flag is f2 > 0."""
    two_cycle = pattern.graph.f2 > 0
    if pattern.subset_maxima[1] is None:
        return MDensityResult(None, None, two_cycle)
    e, v, mask = pattern.subset_maxima[1]
    return MDensityResult(Fraction(e - 1, v - 2), _witness(pattern, mask), two_cycle)


def condition_a(pattern: PatternDigraph, weight: WeightParam) -> ConditionResult:
    """True iff every edge subset with e > 1 has e/v <= a/2, decided exactly."""
    e, v, mask = pattern.subset_maxima[0]
    worst = Fraction(e, v)
    return ConditionResult(weight.cmp_to_fraction(2 * worst) >= 0, worst, _witness(pattern, mask), weight)


def degree_lemma_constant(pattern: PatternDigraph) -> int:
    """The exact coefficient r * 2^(r^2) * (h!)^2 used in the degree bound."""
    r, h = pattern.r, pattern.h
    return r * (1 << (r * r)) * math.factorial(h) ** 2


@dataclass(frozen=True)
class DensityReport:
    m: MDensityResult
    condition: ConditionResult
    constant: int


def density_report(pattern: PatternDigraph, weight: WeightParam) -> DensityReport:
    return DensityReport(m_density(pattern), condition_a(pattern, weight), degree_lemma_constant(pattern))


def require_usable_m(pattern: PatternDigraph) -> Fraction:
    """The exponent m as a Fraction, refusing flagged or missing values."""
    res = m_density(pattern)
    if not res.usable:
        if res.has_two_cycle_subgraph:
            raise PreconditionError("container exponent is flagged infinite: the pattern contains "
                                    "a 2-cycle subgraph (v=2, e=2), so the shifted ratio diverges")
        raise PreconditionError("container exponent undefined: no subgraph with e>1 and v>=3")
    return res.value
