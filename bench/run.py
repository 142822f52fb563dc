"""Benchmark of digraphlab's CLI: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload scan|canonical|containers --seed N \
        --seconds S --trace 0|1 [--smoke] [--inject-fault]

Run from the root of a checkout.  One fresh single-threaded interpreter runs
whole rounds of the workload's CLI calls for about --seconds, at least three
(``worker.py``), and times set-up in further fresh interpreters between the
calls.  Every time is scaled by calibration runs around it (see ``worker.py``).
Every operation's output is then checked against computations made apart
from the program (``checks.py``).  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics.

--trace 0 reports wall_s, setup_s, peak_rss_mib and budget_case_s.  --trace 1
runs traced and untraced rounds in turn, twice, and reports the per-layer
metrics of the first traced round, with the difference of the median traced
and untraced times as trace.overhead_s.

--smoke shrinks every size so that a run takes seconds; --inject-fault (with
--smoke, containers only) drops one element from one container of the family
export before the reader path reads it, which must fail that operation and
its coverage check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import median_walls  # noqa: E402
from workloads import BUDGET_CASE, WORKLOADS, workload_ops, write_inputs  # noqa: E402

WORKER_TIMEOUT_S = 170
# one thread for numpy's math libraries; a fixed hash seed for set order
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def worker_argv(args, outdir: Path) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(Path.cwd()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--outdir", str(outdir)]
    if args.smoke:
        argv.append("--smoke")
    if args.inject_fault:
        argv.append("--inject-fault")
    return argv


def run_worker(args, outdir: Path) -> dict:
    proc = subprocess.run(worker_argv(args, outdir), env=_child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads((outdir / "worker.json").read_text())


def check_outputs(args, outdir: Path, report: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct); problems go to standard error."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    from checks import Checker, read_doc

    ops = workload_ops(args.workload, args.seed, write_inputs(outdir / "inputs", args.seed),
                       outdir, small=args.smoke, faulty_family=args.inject_fault)
    attempted = failed = 0
    failed_ops = set()
    for rnd in report["rounds"]:
        for op in ops:
            attempted += 1
            if rnd["codes"][op.name] != 0:
                failed += 1
                failed_ops.add(op.name)
    checker = Checker(Path.cwd(), args.seed)
    correct = True
    for op in ops:
        doc = read_doc(outdir / "docs" / f"{op.name}.json")
        if doc is None:
            problems = ["no document"]
        else:
            try:
                problems = checker.check(op, doc, report["captures"][op.name], outdir)
            except Exception as exc:  # a malformed document is a wrong output, not a crash
                problems = [f"check raised {exc!r}"]
        for p in problems:
            tag = "failed operation" if op.name in failed_ops else "check failed"
            print(f"{tag}: {op.name}: {p}", file=sys.stderr)
        if problems and op.name not in failed_ops:
            correct = False
    return attempted, failed, correct


def end_to_end(args, report: dict) -> dict:
    """Medians of the scaled times: of each call over the rounds, and of the set-up probes."""
    medians = median_walls(report["rounds"])
    return {
        "wall_s": {"value": sum(medians.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(report["setup_s"]), "unit": "s"},
        "peak_rss_mib": {"value": report["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        "budget_case_s": {"value": medians[BUDGET_CASE[args.workload]], "unit": "s"},
    }


def per_layer(report: dict) -> dict:
    with open(HERE.parent / "BENCHMARK.json") as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in report["trace"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "digraphlab" / "cli.py").is_file() or \
            not (root / "tests" / "oracles.py").is_file():
        print("run.py: run from the root of a digraphlab checkout "
              "(src/digraphlab and tests/oracles.py not found)", file=sys.stderr)
        return 2
    if args.inject_fault and not (args.smoke and args.workload == "containers"):
        ap.error("--inject-fault needs --smoke and --workload containers")

    outdir = root / ".bench_out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        report = run_worker(args, outdir)
        metrics = per_layer(report) if args.trace else end_to_end(args, report)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct = check_outputs(args, outdir, report)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
