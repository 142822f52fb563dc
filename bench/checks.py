"""Checks of every operation's output against computations made apart from it.

The pair hypergraph, the pattern-free digraphs on [N] <= 5, random maximal
free digraphs above that, container spans, routing and containment are all
recomputed here with numpy uint64 masks, from the pattern's edge list, the
documented pair codec ``idx = i*(N-1) + (j if j < i else j-1)`` and the
documented family export format.  Witnesses are re-checked with the naive
routines of ``tests/oracles.py``.  The program is called only where a check
compares two of its routes (full against canonical search, the labelled
count against its isomorphism classes).
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np

from workloads import PATTERNS, Op

SAMPLES_PER_FAMILY = 256   # random maximal free digraphs (and as many halves) routed above N=5
EXACT_MAX_N = 5            # up to here every free digraph is routed


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("digraphlab_test_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_index(N: int, i: int, j: int) -> int:
    return i * (N - 1) + (j if j < i else j - 1)


def ex2_closed_form(name: str, n: int) -> int:
    """ex(n) at a=2: 2*floor(n^2/4) for c3 and t3, C(n,2)+floor(n^2/4) for dk3."""
    if name == "dk3":
        return n * (n - 1) // 2 + n * n // 4
    return 2 * (n * n // 4)


def hyperedge_count_formula(name: str, N: int) -> int:
    """Copies in the complete digraph: 2*C(N,3) for c3, 6*C(N,3) for t3, C(N,3) for dk3."""
    per_triple = {"c3": 2, "t3": 6, "dk3": 1}[name]
    return per_triple * math.comb(N, 3)


def parse_edge_text(text: str) -> tuple[int, frozenset]:
    lines = [ln.strip() for ln in text.replace(";", "\n").splitlines() if ln.strip()]
    n = int(lines[0].split("=")[1])
    return n, frozenset(tuple(int(x) for x in ln.split()) for ln in lines[1:])


@lru_cache(maxsize=None)
def hyperedges(name: str, N: int) -> np.ndarray:
    """Edge images of every injective placement of the pattern in [N], as sorted masks."""
    masks = set()
    for img in permutations(range(N), 3):
        masks.add(sum(1 << pair_index(N, img[u], img[v]) for u, v in PATTERNS[name]))
    return np.array(sorted(masks), dtype=np.uint64)


@lru_cache(maxsize=None)
def free_table(name: str, N: int) -> np.ndarray:
    """free[mask] for every digraph on [N] (N <= 5, 2^20 masks), by brute force."""
    n_u = N * (N - 1)
    masks = np.arange(1 << n_u, dtype=np.uint64)
    free = np.ones(1 << n_u, dtype=bool)
    for e in hyperedges(name, N):
        free &= (masks & e) != e
    return free


def free_count(name: str, n: int) -> int:
    return int(free_table(name, n).sum())


def route_tree(tree: dict, sets: np.ndarray) -> np.ndarray:
    """Container index each set is routed to through the saved decision tree (-1: none).

    A node code >= 0 branches on its pivot; a leaf code c < -1 names
    container -c-2; -1 is a DEAD branch.
    """
    pivots, out_child, in_child = tree["pivots"], tree["out_child"], tree["in_child"]
    code = np.full(len(sets), int(tree["root"]), dtype=np.int64)
    live = np.flatnonzero(code >= 0)
    while len(live):
        c = code[live]
        bit = (sets[live] >> pivots[c].astype(np.uint64)) & np.uint64(1)
        code[live] = np.where(bit == 1, in_child[c], out_child[c])
        live = live[code[live] >= 0]
    return np.where(code == -1, -1, -code - 2)


def spans(containers: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Number of hyperedges inside each container."""
    out = np.zeros(len(containers), dtype=np.int64)
    for e in edges:
        out += (containers & e) == e
    return out


def orbit_total(reps, n: int) -> int:
    """Sum of n!/|Aut(G)| over the representatives, |Aut| by permutation check."""
    R = np.array([sum(1 << pair_index(n, u, v) for u, v in g.edges) for g in reps],
                 dtype=np.uint64)
    aut = np.zeros(len(R), dtype=np.int64)
    for perm in permutations(range(n)):
        img = np.zeros(len(R), dtype=np.uint64)
        for u in range(n):
            for v in range(n):
                if u != v:
                    b = np.uint64(pair_index(n, u, v))
                    img |= ((R >> b) & np.uint64(1)) << np.uint64(pair_index(n, perm[u], perm[v]))
        aut += img == R
    return sum(math.factorial(n) // int(a) for a in aut)


def program_pattern(name: str):
    """The pattern as the program's own object, for checks that call a second route."""
    from digraphlab import PatternDigraph

    return PatternDigraph.from_text("n=3; " + "; ".join(f"{u} {v}" for u, v in PATTERNS[name]))


class Checker:
    """Independent checks for one workload's outputs, with shared caches."""

    def __init__(self, root: Path, seed: int):
        self.oracles = load_oracles(root)
        self.rng = np.random.default_rng([seed, 7])

    # -- independent computations ------------------------------------------

    def sample_free(self, name: str, N: int) -> np.ndarray:
        """Free digraphs to route: all of them for N <= 5, else random ones.

        A random one is grown greedily in a random element order, which makes
        it maximal; each is tried together with a random half of it.
        """
        if N <= EXACT_MAX_N:
            return np.flatnonzero(free_table(name, N)).astype(np.uint64)
        n_u = N * (N - 1)
        through: list[list[int]] = [[] for _ in range(n_u)]
        for e in hyperedges(name, N):
            e = int(e)
            for x in range(n_u):
                if e >> x & 1:
                    through[x].append(e)
        out = []
        for _ in range(SAMPLES_PER_FAMILY):
            s = 0
            for x in self.rng.permutation(n_u):
                t = s | (1 << int(x))
                if all(e & t != e for e in through[x]):
                    s = t
            half = int(self.rng.integers(0, 1 << n_u)) & s
            out += [s, half]
        return np.array(out, dtype=np.uint64)

    # -- family checks -----------------------------------------------------

    def family_problems(self, name: str, N: int, eps: Fraction, containers: np.ndarray,
                        route) -> list[str]:
        """Sparsity of every container, and coverage: each free digraph tried is
        routed (by ``route``) to a container that holds it."""
        problems = []
        edges = hyperedges(name, N)
        worst = int(spans(containers, edges).max(initial=0))
        if worst * eps.denominator > eps.numerator * len(edges):
            problems.append(f"sparsity: a container spans {worst} of {len(edges)} hyperedges")
        sets = self.sample_free(name, N)
        idx = route(sets)
        held = np.zeros(len(sets), dtype=bool)
        ok = idx >= 0
        held[ok] = (containers[idx[ok]] & sets[ok]) == sets[ok]
        if not held.all():
            first = int(sets[np.flatnonzero(~held)[0]])
            problems.append(f"coverage: {int((~held).sum())} of {len(sets)} free digraphs are "
                            f"routed to no container holding them, first {first:#x}")
        return problems

    # -- per-operation checks ----------------------------------------------

    def check(self, op: Op, doc: dict, captures: list[dict], outdir: Path) -> list[str]:
        """Problems found in one operation's output; empty when it is correct."""
        res = doc["results"]
        if op.kind == "ex":
            return self._check_ex(op, res)
        if op.kind == "count-free":
            return self._check_count_free(op, int(res["count"]))
        if op.kind == "supersat":
            vals = [int(p["max_ea"]) for p in res["points"]]
            problems = []
            if any(a > b for a, b in zip(vals, vals[1:])):
                problems.append(f"supersat values decrease in k: {vals}")
            if vals[0] != ex2_closed_form(op.pattern, op.size):
                problems.append(f"supersat k=0 value {vals[0]} differs from ex")
            return problems
        if op.kind == "export":
            return self._check_export(op, res)
        if op.kind == "verify":
            return self._check_verify(op, res, captures, outdir)
        raise ValueError(op.kind)

    def _witness_problems(self, name, n, witnesses, want) -> list[str]:
        problems = []
        h_edges = frozenset(PATTERNS[name])
        for text in witnesses:
            wn, edges = parse_edge_text(text)
            if wn != n or self.oracles.naive_count_copies(edges, n, h_edges, 3) != 0:
                problems.append(f"witness is not {name}-free on [{n}]: {text!r}")
            elif not want(self.oracles.f_counts(edges)):
                problems.append(f"witness does not attain the value: {text!r}")
        if not witnesses:
            problems.append("no witness")
        return problems

    def _check_ex(self, op: Op, res: dict) -> list[str]:
        n, name = op.size, op.pattern
        pair = (int(res["best_f2"]), int(res["best_f1"]))
        if op.extra["a"] == "2":
            want = ex2_closed_form(name, n)
            problems = [] if res["value"] == str(want) else [f"ex = {res['value']}, closed form {want}"]
            return problems + self._witness_problems(
                name, n, res["witnesses"], lambda f: 2 * f[0] + f[1] == want)
        # log2(3): the full scan must agree with the canonical search
        from digraphlab import WeightParam, extremal_number

        other = extremal_number(n, program_pattern(name), WeightParam.parse(op.extra["a"]),
                                mode="canonical")
        problems = []
        if other.best_pair != pair or other.value_str != res["value"]:
            problems.append(f"full {res['value']} {pair} != canonical {other.value_str} {other.best_pair}")
        if sorted(k.hex() for k in other.witness_keys) != sorted(res["witness_keys"]):
            problems.append("full and canonical modes found different witness classes")
        return problems + self._witness_problems(name, n, res["witnesses"], lambda f: f == pair)

    def _check_count_free(self, op: Op, count: int) -> list[str]:
        n, name = op.size, op.pattern
        problems = []
        lower = 1 << ex2_closed_form(name, n)
        upper = 4 ** (n - 1) * free_count(name, n - 1)
        if not lower <= count <= upper:
            problems.append(f"f*({n}) = {count} outside [2^ex2, 4^{n - 1} f*({n - 1})] = "
                            f"[{lower}, {upper}]")
        if n <= EXACT_MAX_N:
            from digraphlab import free_classes

            total = orbit_total(list(free_classes(n, program_pattern(name)).values()), n)
            if total != count:
                problems.append(f"f*({n}) = {count}, but the classes give {total}")
        return problems

    def _check_export(self, op: Op, res: dict) -> list[str]:
        """Counts only: the family's coverage and sparsity are checked where the
        reader path parses this export (``read-family-*``)."""
        problems = []
        if int(res["hypergraph_edges"]) != hyperedge_count_formula(op.pattern, op.size):
            problems.append(f"hypergraph has {res['hypergraph_edges']} edges")
        count = int(Path(op.extra["export"]).read_text().split(None, 5)[4])
        if int(res["containers"]) != count:
            problems.append(f"document counts {res['containers']} containers, export {count}")
        return problems

    def _check_verify(self, op: Op, res: dict, captures: list[dict], outdir: Path) -> list[str]:
        N, name, eps = op.size, op.pattern, Fraction(op.extra["eps"])
        problems = []
        if not (res["coverage_ok"] and res["sparsity_ok"]):
            problems.append(f"program reports coverage {res['coverage_ok']}, "
                            f"sparsity {res['sparsity_ok']}")
        want = free_count(name, N) if op.extra["mode"] == "exhaustive" else op.extra["samples"]
        if int(res["checked"]) != want:
            problems.append(f"checked {res['checked']}, expected {want}")
        if len(captures) != 1:
            return problems + [f"expected one verify_family call, saw {len(captures)}"]
        cap = captures[0]
        arrays = np.load(outdir / cap["file"])
        edges = hyperedges(name, N)
        if cap["edge_count"] != hyperedge_count_formula(name, N) or \
                not np.array_equal(np.sort(arrays["edges"]), edges):
            problems.append(f"program's hypergraph ({cap['edge_count']} edges) differs")
        if cap.get("round_trip") is False:
            problems.append("parsed family does not re-export byte for byte")
        return problems + self.family_problems(
            name, N, eps, arrays["containers"], lambda sets: route_tree(arrays, sets))


def read_doc(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
