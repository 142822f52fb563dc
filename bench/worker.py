"""One workload process: set up, run whole rounds of CLI calls, report.

Started by ``run.py`` in a fresh interpreter.  It imports ``digraphlab`` from
the checkout's ``src/``, writes the seeded inputs, and calls
``digraphlab.cli.main`` in-process for every operation, with ``--out`` to a
file and no ``--workers``.  Only the calls themselves are timed.  The
documents of the first round, and the families and hypergraphs that the
``verify-family`` calls of the first untraced round worked on, are saved for
the checks that ``run.py`` makes in its own process, so that they do not count
toward this process's peak memory.  Later rounds must reproduce the first
round's documents byte for byte.

    python3 bench/worker.py --root . --workload scan --seed 1 --seconds 35 \
        --trace 0 --outdir .bench_out/scan [--setup-only] [--smoke] [--inject-fault]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Every call is timed at least this many times per run, and the median of its
# times is reported.
MIN_ROUNDS = 3

# The machine's speed wanders by tens of percent over seconds to minutes (other
# tenants share its cores; CPU time tracks wall time, so it is not waiting),
# and neither the fastest nor the median of one run's timings removes a slow
# minute.  So every timed call and set-up probe is bracketed by two runs of a
# fixed calibration loop, and its time is scaled to the speed at which that
# loop takes CALIBRATION_S, about this machine's typical speed.
CALIBRATION_S = 0.1


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop of integer arithmetic and dict updates."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_500_000):
        s += i & 7
    d: dict[int, int] = {}
    x = 1
    for _ in range(50_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        d[x >> 52] = d.get(x >> 52, 0) + (x & 0xFF)  # at most 4096 keys: no memory peak
    return time.perf_counter() - t0


class Calibrated:
    """Scales each wall time by the calibration runs just before and just after it."""

    def __init__(self):
        self.times = [calibrate()]

    def scale(self, wall: float) -> float:
        """``wall``, measured since the last calibration, at the reference speed."""
        self.times.append(calibrate())
        return wall * 2 * CALIBRATION_S / (self.times[-2] + self.times[-1])


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    return ap.parse_args(argv)


def drop_one_element(src: Path, dst: Path) -> None:
    """Copy a family export with the lowest element of container 0 removed."""
    lines = src.read_text().splitlines()
    mask = int(lines[1], 16)
    lines[1] = f"{mask & ~(mask & -mask):0{len(lines[1])}x}"
    dst.write_text("\n".join(lines) + "\n")


class Capture:
    """Keeps the (hypergraph, family) of each verify_family call the CLI makes."""

    def __init__(self, cli):
        self.cli = cli
        self.calls = []

    def __enter__(self):
        self.verify_family = self.cli.verify_family
        self.cli.verify_family = self
        return self

    def __exit__(self, *exc):
        self.cli.verify_family = self.verify_family

    def __call__(self, hg, fam, *args, **kwargs):
        self.calls.append((hg, fam))
        return self.verify_family(hg, fam, *args, **kwargs)


def save_capture(path: Path, hg, fam, family_file: Path | None) -> dict:
    """Write the family (containers and routing tree) and the hypergraph for the checks."""
    import numpy as np

    np.savez(
        path,
        containers=np.fromiter(fam.containers, dtype=np.uint64, count=len(fam.containers)),
        edges=np.fromiter(hg.edge_masks, dtype=np.uint64, count=len(hg.edge_masks)),
        pivots=np.fromiter(fam.pivots, dtype=np.int64, count=len(fam.pivots)),
        out_child=np.fromiter(fam.out_child, dtype=np.int64, count=len(fam.out_child)),
        in_child=np.fromiter(fam.in_child, dtype=np.int64, count=len(fam.in_child)),
        root=np.int64(fam.root),
    )
    info = {"file": path.name, "edge_count": hg.edge_count}
    if family_file is not None:
        # round trip: the parsed export must re-export byte for byte
        info["round_trip"] = fam.export_text() == family_file.read_text()
    return info


def median_walls(rounds: list[dict]) -> dict[str, float]:
    """Each operation's median scaled time over ``rounds``."""
    return {op: statistics.median(r["walls"][op] for r in rounds) for op in rounds[0]["walls"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(args.root).resolve()
    outdir = Path(args.outdir).resolve()
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import digraphlab.cli as cli
    import_s = time.perf_counter() - t0

    import workloads

    patterns = workloads.write_inputs(outdir / "inputs", args.seed)
    ops = workloads.workload_ops(args.workload, args.seed, patterns, outdir, small=args.smoke,
                                 faulty_family=args.inject_fault)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        return 0

    docs = outdir / "docs"
    docs.mkdir(exist_ok=True)
    first_docs: dict[str, bytes] = {}
    captures: dict[str, list[dict]] = {}

    setup_probes: list[float] = []
    raw_setup_probes: list[float] = []
    clock = Calibrated()

    def probe_setup() -> None:
        """Time one fresh interpreter from spawn to ready (not inside any timed call)."""
        t = time.monotonic()
        proc = subprocess.run([sys.executable, __file__] + sys.argv[1:] + ["--setup-only"],
                              capture_output=True, text=True, timeout=60, check=True)
        raw_setup_probes.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t)
        setup_probes.append(clock.scale(raw_setup_probes[-1]))

    def run_round(tracer=None, keep=False, probe=False) -> dict:
        """One pass over the operations; ``keep`` saves the captures for the checks."""
        walls, raw_walls, cpus, codes = {}, {}, {}, {}
        with Capture(cli) as capture:
            for i, op in enumerate(ops):
                if probe and i in (0, len(ops) // 2):
                    probe_setup()
                out = docs / f"{op.name}.json"
                argv = list(op.args) + ["--out", str(out)]
                gc.collect()
                c0 = time.process_time()
                w0 = time.perf_counter()
                rc = tracer.run_main(cli.main, argv) if tracer else cli.main(argv)
                raw_walls[op.name] = time.perf_counter() - w0
                cpus[op.name] = time.process_time() - c0
                walls[op.name] = clock.scale(raw_walls[op.name])
                codes[op.name] = rc
                if op.extra.get("faulty_copy") is not None:
                    drop_one_element(op.extra["export"], op.extra["faulty_copy"])
                text = out.read_bytes() if out.exists() else b""
                if op.name not in first_docs:
                    first_docs[op.name] = text
                elif text != first_docs[op.name]:
                    codes[op.name] = f"document differs from round 1 (exit {rc})"
                if keep:
                    captures[op.name] = [
                        save_capture(outdir / f"{op.name}.{k}.npz", hg, fam,
                                     op.extra.get("family_file"))
                        for k, (hg, fam) in enumerate(capture.calls)
                    ]
                capture.calls.clear()
        return {"walls": walls, "raw_walls": raw_walls, "cpu_s": sum(cpus.values()),
                "codes": codes}

    rounds = []
    trace_metrics = None
    if args.trace:
        from tracing import Tracer

        # Traced and untraced rounds alternate, twice; the overhead compares the
        # calls' median traced times with their median untraced times.  A traced
        # round comes first, so its memory deltas start from a fresh process,
        # and the captures (whose round trip re-exports the family) are saved
        # in an untraced round, so the trace holds only the program's own calls.
        tracers, traced, untraced = [], [], []
        for k in range(2):
            tracers.append(Tracer())
            tracers[-1].install()
            try:
                traced.append(run_round(tracers[-1]))
            finally:
                tracers[-1].remove()
            untraced.append(run_round(keep=k == 0))
        rounds = traced + untraced
        trace_metrics = tracers[0].metrics()
        trace_metrics["process.cpu_s"] = untraced[0]["cpu_s"]
        trace_metrics["process.import_s"] = import_s
        trace_metrics["trace.overhead_s"] = (sum(median_walls(traced).values())
                                             - sum(median_walls(untraced).values()))
    else:
        # whole rounds: at least MIN_ROUNDS, then more while the next one is
        # expected to end within --seconds
        min_rounds = 1 if args.smoke else MIN_ROUNDS
        t_rounds = time.monotonic()
        rounds.append(run_round(keep=True, probe=True))
        while True:
            spent = time.monotonic() - t_rounds
            if len(rounds) >= min_rounds and spent * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
            rounds.append(run_round(probe=True))
        probe_setup()

    result = {
        "import_s": import_s,
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": setup_probes,
        "raw_setup_s": raw_setup_probes,
        "calibration_s": clock.times,
        "captures": captures,
        "trace": trace_metrics,
    }
    (outdir / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
