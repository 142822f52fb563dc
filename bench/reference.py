"""Make the count-free n=6 reference values anew, by a route apart from the program.

    python3 bench/reference.py

f*(n+1) is counted as the number of labelled one-vertex extensions of the
pattern-free digraphs on [n]: every free digraph on [n+1] restricts to a free
digraph on [n] plus the 2-bit attachment codes of vertex n.  The free
digraphs on [n] come from the benchmark's brute-force table over all 2^(n(n-1))
masks, not from the program's scan, and the count shares neither
``canonical_form`` nor ``automorphism_count`` with ``count_free``.  It takes
a few seconds per pattern.

The timed runs check only the cheap bounds 2^ex2(6) <= f*(6) <= 4^5 f*(5);
these exact values are pinned here and in README.md.  Exit 0 iff every count
made equals its pinned value.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import free_table, pair_index  # noqa: E402
from workloads import PATTERNS  # noqa: E402

REFERENCE = {("c3", 6): 36_686_047, ("dk3", 6): 823_931_109}


def count_extensions(name: str, n: int) -> int:
    """Number of labelled pattern-free digraphs on [n+1], from those on [n]."""
    new = n
    copies = set()  # (base mask on [n], required attachment code) per copy through vertex n
    for img in permutations(range(n + 1), 3):
        if new not in img:
            continue
        base = req = 0
        for u, v in PATTERNS[name]:
            a, b = img[u], img[v]
            if b == new:
                req |= 1 << (2 * a)          # edge a -> new
            elif a == new:
                req |= 1 << (2 * b + 1)      # edge new -> b
            else:
                base |= 1 << pair_index(n, a, b)
        copies.add((base, req))
    copies = sorted(copies)
    bases = np.flatnonzero(free_table(name, n)).astype(np.uint64)
    # which copies each free base digraph already holds the base part of
    signature = np.zeros(len(bases), dtype=np.uint64)
    for k, (base, _) in enumerate(copies):
        b = np.uint64(base)
        signature |= ((bases & b) == b).astype(np.uint64) << np.uint64(k)
    codes = np.arange(4 ** n, dtype=np.uint64)
    total = 0
    for sig, mult in zip(*np.unique(signature, return_counts=True)):
        bad = np.zeros(len(codes), dtype=bool)
        for k, (_, req) in enumerate(copies):
            if int(sig) >> k & 1:
                r = np.uint64(req)
                bad |= (codes & r) == r
        total += int(mult) * int(len(codes) - bad.sum())
    return total


def main() -> int:
    ok = True
    out = {}
    for (name, n), want in REFERENCE.items():
        count = count_extensions(name, n - 1)
        ok = ok and count == want
        out[f"{name} n={n}"] = {"count": count, "pinned": want}
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
