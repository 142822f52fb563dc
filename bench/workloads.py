"""The benchmark's workloads: which CLI calls each one makes, and on what inputs.

A workload is a fixed list of operations.  One operation is one call of
``digraphlab.cli.main``; a round is one pass over the list.  The seed only
picks the vertex labelling of every pattern file (the results are invariant
under relabelling, the work is not pinned to one labelling) and the seed of
the sampled verifier, so a claim can be rechecked on an unused seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Pattern edge lists, written out relabelled as the program's inputs.
PATTERNS = {
    "c3": ((0, 1), (1, 2), (2, 0)),
    "t3": ((0, 1), (1, 2), (0, 2)),
    "dk3": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}

WORKLOADS = ("scan", "canonical", "containers")

# The one documented-budget call each workload times on its own.
BUDGET_CASE = {"scan": "ex-full-t3", "canonical": "ex-canonical-t3", "containers": "exhaustive-c3"}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its checks need to know about it."""

    name: str
    kind: str                 # which check applies: ex, count-free, supersat, export, verify
    pattern: str
    size: int                 # n for extremal calls, N for container calls
    args: tuple[str, ...]     # CLI argv without --out
    extra: dict = field(default_factory=dict)


def write_inputs(workdir: Path, seed: int) -> dict[str, Path]:
    """Write each pattern with its vertices permuted by the seed; return the paths."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in PATTERNS:
        perm = list(range(3))
        rng.shuffle(perm)
        edges = sorted((perm[u], perm[v]) for u, v in PATTERNS[name])
        path = workdir / f"{name}.dg"
        path.write_text("n=3\n" + "".join(f"{u} {v}\n" for u, v in edges))
        files[name] = path
    return files


def cli_seed(seed: int) -> int:
    """The sampled verifier's seed (numpy's legacy RNG takes 32 bits)."""
    return seed % (1 << 32)


def workload_ops(workload: str, seed: int, patterns: dict[str, Path], workdir: Path,
                 small: bool = False, faulty_family: bool = False) -> list[Op]:
    """The operations of one round.

    ``small`` shrinks the sizes so the smoke mode runs in seconds.  ``faulty_family``
    points the family reader at a copy of the export with one element dropped
    from one container (the smoke mode's fault injection).
    """
    p = {name: str(path) for name, path in patterns.items()}
    d = 1 if small else 0

    def ex(mode, name, n, a="2"):
        suffix = "" if a == "2" else "-log2_3"
        return Op(f"ex-{mode}-{name}{suffix}", "ex", name, n,
                  ("ex", "--mode", mode, "--pattern", p[name], "--n", str(n), "--a", a),
                  {"a": a})

    def count_free(name, n):
        return Op(f"count-free-{name}", "count-free", name, n,
                  ("count-free", "--pattern", p[name], "--n", str(n)))

    if workload == "scan":
        n = 5 - d
        return [
            ex("full", "t3", n),
            ex("full", "c3", n, "log2(3)"),
            count_free("c3", n),
            Op("supersat-dk3", "supersat", "dk3", n,
               ("supersat", "--pattern", p["dk3"], "--n", str(n), "--a", "2", "--k-max", "3")),
        ]
    if workload == "canonical":
        n = 6 - 2 * d
        return [ex("canonical", "t3", n), count_free("c3", n), count_free("t3", n)]
    if workload == "containers":
        s = str(cli_seed(seed))
        export = workdir / "family-c3.txt"
        reader_input = workdir / "family-c3-faulty.txt" if faulty_family else export

        def verify(name, N, eps, mode, samples=None, family=None):
            args = ["verify-family", "--mode", mode, "--pattern", p[name], "--N", str(N),
                    "--eps", eps]
            if mode == "sampled":
                args += ["--seed", s]
            if samples is not None:
                args += ["--samples", str(samples)]
            if family is not None:
                args += ["--family", str(family)]
            op_name = f"read-family-{name}" if family else f"{mode}-{name}"
            return Op(op_name, "verify", name, N, tuple(args),
                      {"eps": eps, "mode": mode, "samples": samples or 10_000,
                       "family_file": family})

        # the reader path runs first, so its memory growth is not hidden
        # under the high-water mark of the later builds
        return [
            Op("export-c3", "export", "c3", 6 - 2 * d,
               ("containers", "--pattern", p["c3"], "--N", str(6 - 2 * d), "--eps", "1/5",
                "--export", str(export)),
               {"eps": "1/5", "export": export, "faulty_copy": reader_input if faulty_family else None}),
            verify("c3", 6 - 2 * d, "1/5", "sampled", family=reader_input),
            verify("c3", 5 - d, "1/10", "exhaustive"),
            verify("c3", 6 - d, "1/10", "sampled"),
            verify("t3", 7 - 2 * d, "1/3", "sampled", samples=1000),
        ]
    raise ValueError(f"unknown workload {workload!r}")
