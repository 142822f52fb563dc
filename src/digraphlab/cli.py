"""Command-line surface: every operation behind one deterministic dispatcher.

Each subcommand maps one-to-one onto a library operation and emits a single
self-describing JSON document (manifest, inputs, results, checks) on stdout
or into --out.  Exit codes: 0 success, 1 usage/parse problems, 2 refused
preconditions or budgets, 3 failed verification (coverage miss, bound
violation, injected fault).  Re-running the same manifest reproduces the
output byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .containers import (
    ContainerFamily,
    build_containers,
    container_pipeline,
    require_verifiable,
    verify_family,
)
from .density import condition_a, density_report, require_usable_m
from .digraphs import PatternDigraph, falling, require_automorphism_budget
from .errors import (
    BudgetError,
    DigraphLabError,
    ParseError,
    PreconditionError,
    VerificationError,
)
from .extremal import (
    FULL_MODE_MAX_N,
    compile_copies,
    count_free,
    counting_ratio,
    extremal_number,
    supersat_scan,
)
from .pairhypergraph import (
    BUILD_INJECTION_BUDGET,
    build_hypergraph,
    codegree_profile,
    tau_for,
    verify_degree_lemma,
)
from .report import float_field, frac_str, int_str, render_document
from .weights import WeightParam, parse_fraction

BUILTIN_PATTERNS = ("c3", "t3", "dk3", "twocycle", "p3", "p4")


class UsageError(DigraphLabError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract wants 1
        raise UsageError(message)


def load_pattern(spec: str) -> tuple[PatternDigraph, str]:
    """Resolve --pattern: a file path, or a builtin corpus name."""
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"unreadable graph file {spec!r}: {exc}") from None
        return PatternDigraph.from_text(text), spec
    name = spec[:-3] if spec.endswith(".dg") else spec
    if name in BUILTIN_PATTERNS:
        text = resources.files("digraphlab.patterns").joinpath(f"{name}.dg").read_text()
        return PatternDigraph.from_text(text), f"builtin:{name}"
    raise UsageError(f"pattern {spec!r}: no such file or builtin pattern")


def _parse_n_range(text: str, pattern: PatternDigraph) -> range | list[int]:
    """--N-range: "lo..hi" or "a,b,c", refused unless every N can be built."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            values = range(int(lo), int(hi) + 1)
        except ValueError:
            raise UsageError(f"malformed N range {text!r}") from None
    else:
        try:
            values = [int(x) for x in text.split(",") if x]
        except ValueError:
            raise UsageError(f"malformed N list {text!r}") from None
    if not values:
        raise PreconditionError(f"--N-range {text!r} is empty")
    # a range is never materialised: its ends are read off directly
    if isinstance(values, range):
        least, largest = values[0], values[-1]
    else:
        least, largest = min(values), max(values)
    if least < pattern.h:
        raise PreconditionError(f"N={least} below pattern vertex count h={pattern.h}")
    # falling(N, h) rises with N, so the largest N decides the build budget
    raw = falling(largest, pattern.h)
    if raw > BUILD_INJECTION_BUDGET:
        raise BudgetError(f"N={largest}: {raw} injections exceed the build budget "
                          f"{BUILD_INJECTION_BUDGET}")
    return values


_UNRECORDED = ("subcommand", "func", "out", "seed", "witness_dir")


def _run(args) -> int:
    """Run one subcommand and write its document; exit 3 on a failed verdict.

    The manifest records every flag of the subcommand as parsed, in
    declaration order, except --seed (its own field), --out and
    --witness-dir, which say where output goes.
    """
    pattern, source = load_pattern(args.pattern)
    # the automorphism count refuses a pattern on more than 10 vertices before
    # any work; the count itself waits for the handler, so that the handler's
    # own refusals (more than 20 edges, say) do not wait for a 10! search
    require_automorphism_budget(pattern.graph)
    results, checks, failure = args.func(args, pattern)
    inputs = {"pattern": {
        "source": source,
        "n": int_str(pattern.h),
        "edges": int_str(pattern.r),
        "aut": int_str(pattern.aut),
        "edge_list": pattern.graph.to_edge_text(),
    }}
    params = {k: "" if v is None else str(v)
              for k, v in vars(args).items() if k not in _UNRECORDED}
    doc = {
        "manifest": {
            "command": args.subcommand,
            "tool": "digraphlab",
            "version": __version__,
            "seed": args.seed,
            "params": params,
        },
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }
    text = render_document(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed reader fails here, inside main, not at shutdown
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 3


def _edges_json(edges) -> list[list[int]]:
    return [[u, v] for u, v in sorted(edges)]


def _parse_tau(args, pattern: PatternDigraph) -> float:
    """--tau: "auto" for N^(-1/m), or a number in (0, 1]."""
    if args.tau == "auto":
        m = require_usable_m(pattern)
        if args.N < pattern.h:  # at N=0, N^(-1/m) divides by zero
            raise PreconditionError(f"N={args.N} below pattern vertex count h={pattern.h}")
        return tau_for(args.N, m)
    tau = parse_fraction(args.tau, "tau")
    if not 0 < tau <= 1:  # decided exactly: float() of a large value overflows
        raise PreconditionError(f"tau={args.tau} outside (0, 1]")
    if float(tau) == 0:
        raise PreconditionError(f"--tau {args.tau} is below the float range")
    return float(tau)


def _parse_weight(args) -> WeightParam:
    """--a for a subcommand that also reports weighted sizes as floats."""
    weight = WeightParam.parse(args.a)
    try:
        weight.a_float
    except OverflowError:
        raise PreconditionError(f"--a {args.a} is past the float range") from None
    return weight


def _refuse_infinite_sizes(args, values) -> None:
    """Refuse --a when a weighted size the scan found is past the float range."""
    if not all(map(math.isfinite, values)):
        raise PreconditionError(f"--a {args.a}: the weighted size is past the float range")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, checks, failure), where failure
# is the stderr line of a failed verdict (exit 3) or None
# ---------------------------------------------------------------------------

def _condition_a_doc(weight: WeightParam, cond) -> dict:
    return {
        "a": weight.exact_str,
        "verdict": cond.ok,
        "max_density": frac_str(cond.max_density),
        "witness_edges": _edges_json(cond.witness),
        "witness_text": cond.witness_text,
    }


def cmd_density(args, pattern):
    weight = WeightParam.parse(args.a)
    rep = density_report(pattern, weight)
    m = rep.m
    return {
        "m": m.display,
        "m_finite_part": None if m.value is None else frac_str(m.value),
        "m_two_cycle_flag": m.has_two_cycle_subgraph,
        "m_witness_edges": None if m.witness is None else _edges_json(m.witness),
        "condition_a": _condition_a_doc(weight, rep.condition),
        "degree_constant": int_str(rep.constant),
    }, [], None


def cmd_condition_a(args, pattern):
    weight = WeightParam.parse(args.a)
    return _condition_a_doc(weight, condition_a(pattern, weight)), [], None


def cmd_ex(args, pattern):
    weight = _parse_weight(args)
    res = extremal_number(
        args.n, pattern, weight, mode=args.mode,
        witness_cap=args.witness_cap,
    )
    _refuse_infinite_sizes(args, [res.value_float])
    if args.witness_dir:
        out_dir = Path(args.witness_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(res.witnesses):
            (out_dir / f"witness_{i:03d}.dg").write_text(w.to_edge_text())
    return {
        "value": res.value_str,
        "value_float": float_field(res.value_float),
        "best_f2": int_str(res.best_pair[0]),
        "best_f1": int_str(res.best_pair[1]),
        "mode": res.mode,
        "witness_count": int_str(len(res.witnesses)),
        "witness_overflow": res.witness_overflow,
        "witness_keys": [k.hex() for k in res.witness_keys],
        "witnesses": [w.to_edge_text() for w in res.witnesses],
        "states_scanned": None if res.states_scanned is None else int_str(res.states_scanned),
    }, [
        # a failed witness re-check raises, and exits 3 before any document is written
        {"name": "witnesses-pattern-free-and-extremal", "pass": True,
         "detail": f"witnesses re-checked via copy counting: {len(res.witnesses)}"},
    ], None


def cmd_count_free(args, pattern):
    return {"count": int_str(count_free(args.n, pattern))}, [], None


def cmd_ratio(args, pattern):
    rep = counting_ratio(args.n, pattern)
    return {
        "count": int_str(rep.count),
        "ex2": int_str(rep.ex2),
        "log2_count": float_field(rep.log2_count),
        "ratio": None if rep.ratio is None else float_field(rep.ratio),
    }, [
        # a violated bound raises, and exits 3 before any document is written
        {"name": "count >= 2^ex2", "pass": True,
         "detail": f"exact big-integer comparison: {rep.count} >= 2^{rep.ex2}"},
    ], None


def cmd_supersat(args, pattern):
    weight = _parse_weight(args)
    if 1 <= args.n <= FULL_MODE_MAX_N:  # larger n is refused by the scan itself
        copies = len(compile_copies(args.n, pattern))
        if args.k_max > copies:
            raise PreconditionError(f"--k-max {args.k_max} exceeds {copies}, the number of "
                                    f"copies of the pattern in the complete digraph on [{args.n}]")
    points = supersat_scan(args.n, pattern, weight, args.k_max)
    _refuse_infinite_sizes(args, [p.value_float for p in points])
    return {
        "points": [
            {"k": int_str(p.k), "max_ea": p.value_str,
             "f2": int_str(p.f2), "f1": int_str(p.f1),
             "max_ea_float": float_field(p.value_float)}
            for p in points
        ],
    }, [], None


def cmd_hypergraph(args, pattern):
    hg = build_hypergraph(args.N, pattern)
    export = hg.export_text()
    if args.export:
        Path(args.export).write_text(export)
    return {
        "universe_size": int_str(hg.universe.size),
        "r": int_str(hg.r),
        "edges": int_str(hg.edge_count),
        "labelled_copy_count": int_str(hg.labelled_copy_count),
        "export_text": None if args.export else export,
    }, [
        # a failed hyperedge decode raises, and exits 3 before any document is written
        {"name": "hyperedges-decode-to-one-copy", "pass": True,
         "detail": f"hyperedges decoded to one copy each during the build: {hg.edge_count}"},
    ], None


def cmd_codegree(args, pattern):
    tau = _parse_tau(args, pattern)
    # delta_j divides by tau^(j-1) for j up to r
    if tau ** (pattern.r - 1) == 0:
        raise PreconditionError(f"--tau {args.tau}: tau^{pattern.r - 1} is below the float range")
    prof = codegree_profile(build_hypergraph(args.N, pattern), tau)
    if not math.isfinite(prof.delta):
        raise PreconditionError(f"--tau {args.tau}: the co-degree function is past the float range")
    return {
        "tau": float_field(prof.tau),
        "universe_size": int_str(prof.universe_size),
        "edges": int_str(prof.edge_count),
        "labelled_copy_count": int_str(prof.labelled_count),
        "average_degree": frac_str(prof.d_avg),
        "max_degree": int_str(prof.max_degree),
        "codegree_sums": {str(j): int_str(s) for j, s in sorted(prof.codegree_sums.items())},
        "delta_j": {str(j): float_field(v) for j, v in sorted(prof.delta_j.items())},
        "delta": float_field(prof.delta),
        "delta_j_maxnorm": {str(j): float_field(v) for j, v in sorted(prof.delta_j_maxnorm.items())},
        "delta_maxnorm": float_field(prof.delta_maxnorm),
    }, [], None


def cmd_verify_lemma(args, pattern):
    gamma = parse_fraction(args.gamma, "gamma")
    rep = verify_degree_lemma(pattern, _parse_n_range(args.N_range, pattern), gamma)
    return {
        "m": frac_str(rep.m),
        "gamma": frac_str(rep.gamma),
        "degree_constant": int_str(rep.constant),
        "bound": frac_str(Fraction(rep.constant) * rep.gamma),
        "rows": [
            {"N": int_str(r.N), "tau": float_field(r.tau),
             "delta": float_field(r.delta), "pass": r.ok}
            for r in rep.rows
        ],
        "delta_trend": [float_field(r.delta) for r in rep.rows],
    }, [
        {"name": "degree-bound-all-rows", "pass": rep.all_ok,
         "detail": f"{sum(r.ok for r in rep.rows)}/{len(rep.rows)} rows pass"},
    ], None if rep.all_ok else "verification failed: degree bound violated"


def cmd_containers(args, pattern):
    eps = parse_fraction(args.eps, "eps")
    tau = _parse_tau(args, pattern)
    hg = build_hypergraph(args.N, pattern)
    fam = build_containers(hg, tau, eps)
    export = fam.export_text()
    if args.export:
        Path(args.export).write_text(export)
    return {
        "universe_size": int_str(hg.universe.size),
        "hypergraph_edges": int_str(hg.edge_count),
        "eps": frac_str(eps),
        "tau": float_field(fam.tau),
        "containers": int_str(len(fam.containers)),
        "tree_nodes": int_str(len(fam.pivots)),
        "max_span": int_str(max(fam.spans, default=0)),
        "export_text": None if args.export else export,
    }, [], None


def cmd_verify_family(args, pattern):
    require_verifiable(args.N, args.mode)
    eps = parse_fraction(args.eps, "eps")
    if args.family:
        # the family carries its own tau; an explicit one must be valid and the same
        tau = None if args.tau == "auto" else _parse_tau(args, pattern)
        try:
            fam = ContainerFamily.from_export_text(Path(args.family).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"unreadable family file {args.family!r}: {exc}") from None
        # sparsity is checked against the family's own eps
        if fam.eps != eps:
            raise PreconditionError(f"--eps {eps} differs from the family's eps {fam.eps}")
        if tau is not None and tau != fam.tau:
            raise PreconditionError(f"--tau {args.tau} differs from the family's tau {fam.tau!r}")
        # a hyperedge has one element per pattern edge
        if fam.r != pattern.r:
            raise PreconditionError(f"the family's r={fam.r} differs from the pattern's "
                                    f"edge count {pattern.r}")
        if fam.N != args.N:
            raise PreconditionError("family and hypergraph live on different [N]")
        hg = build_hypergraph(args.N, pattern)
    else:
        tau = _parse_tau(args, pattern)
        hg = build_hypergraph(args.N, pattern)
        fam = build_containers(hg, tau, eps)
    rep = verify_family(hg, fam, pattern, mode=args.mode, samples=args.samples, seed=args.seed)
    failure = None
    if not rep.ok:
        failure = (f"verification failed: coverage miss, witness:\n{rep.miss_witness}"
                   if rep.miss_witness is not None
                   else "verification failed: container sparsity violated")
    return {
        "mode": rep.mode,
        "checked": int_str(rep.checked),
        "attempts": None if rep.attempts is None else int_str(rep.attempts),
        "coverage_ok": rep.coverage_ok,
        "miss_witness": rep.miss_witness,
        "miss_container": None if rep.miss_container is None else int_str(rep.miss_container),
        "sparsity_ok": rep.sparsity_ok,
        "max_span": int_str(rep.max_span),
    }, [
        {"name": "coverage", "pass": rep.coverage_ok,
         "detail": f"{rep.checked} pattern-free digraphs routed"},
        {"name": "sparsity", "pass": rep.sparsity_ok,
         "detail": f"max span {rep.max_span}, limit {rep.span_limit_num}/{rep.span_limit_den}"},
    ], failure


def _weighted_size_detail(rep) -> str:
    """How many containers exceed ex + eps*N^2, and the first of them.  The
    conclusion is asymptotic, so a breach at desk scale is reported, not
    asserted."""
    if rep.extremal is None:
        return rep.extremal_note
    above = [row for row in rep.rows if not row.ea_within_extremal_slack]
    detail = (f"{rep.extremal_note}; reported, not asserted: {len(above)} of {len(rep.rows)} "
              f"containers above ex + eps*N^2 = {rep.extremal.value_str} + "
              f"{frac_str(rep.eps * rep.N ** 2)}")
    if above:
        detail += f", the first container {above[0].index} at {above[0].ea_str}"
    return detail


def cmd_pipeline(args, pattern):
    weight = _parse_weight(args)
    eps = parse_fraction(args.eps, "eps")
    rep = container_pipeline(pattern, weight, args.N, eps, samples=args.samples, seed=args.seed)
    ex = rep.extremal
    return {
        "N": int_str(rep.N),
        "m": frac_str(rep.m),
        "tau": float_field(rep.tau),
        "eps": frac_str(rep.eps),
        "hypergraph_edges": int_str(rep.hypergraph_edges),
        "labelled_copy_count": int_str(rep.labelled_count),
        "family_size": int_str(rep.family_size),
        "log2_family_size": float_field(rep.log2_family),
        "reference_curve": float_field(rep.reference_curve),
        "implied_constant": float_field(rep.implied_constant),
        "extremal": None if ex is None else {"value": ex.value_str, "mode": ex.mode},
        "extremal_note": rep.extremal_note,
        "coverage": {
            "mode": rep.verify.mode,
            "checked": int_str(rep.verify.checked),
            "ok": rep.verify.coverage_ok,
        },
        "containers": [
            {
                "index": int_str(row.index),
                "copies": int_str(row.copies),
                "ea": row.ea_str,
                "copies_le_eps_edges": row.copies_le_eps_edges,
                "copies_le_eps_Nh": row.copies_le_eps_Nh,
                "ea_within_extremal_slack": row.ea_within_extremal_slack,
            }
            for row in rep.rows
        ],
    }, [
        {"name": "property-a-coverage", "pass": rep.verify.coverage_ok,
         "detail": f"{rep.verify.mode}: {rep.verify.checked} independent sets"},
        {"name": "property-b-copy-bounds", "pass": rep.copies_ok,
         "detail": "both eps normalisations (hyperedge count and N^h)"},
        {"name": "property-b-weighted-size", "pass": None, "detail": _weighted_size_detail(rep)},
        {"name": "property-c-family-size", "pass": None,
         "detail": "reported against the reference curve, not asserted"},
    ], None if rep.ok else "verification failed: container pipeline property check"


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="digraphlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the document here instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the manifest")
    common.add_argument("--pattern", required=True, help="pattern file or builtin name")

    def add(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = add("density", cmd_density, "exponent m, sparsity verdict, degree constant")
    p.add_argument("--a", default="2")

    p = add("condition-a", cmd_condition_a, "sparsity verdict at weight a")
    p.add_argument("--a", default="2")

    p = add("ex", cmd_ex, "exact extremal weighted size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="2")
    p.add_argument("--mode", choices=["full", "canonical"], default="full")
    p.add_argument("--witness-cap", type=int, default=256)
    p.add_argument("--witness-dir", default=None, help="write witness .dg files here")

    p = add("count-free", cmd_count_free, "exact labelled pattern-free count")
    p.add_argument("--n", type=int, required=True)

    p = add("ratio", cmd_ratio, "log2 count against the a=2 extremal number")
    p.add_argument("--n", type=int, required=True)

    p = add("supersat", cmd_supersat, "max weighted size per copy budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="2")
    p.add_argument("--k-max", type=int, required=True)

    p = add("hypergraph", cmd_hypergraph, "build and export the pair hypergraph")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--export", default=None, help="write the export format here")

    p = add("codegree", cmd_codegree, "co-degree profile at tau")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tau", default="auto", help="branching scale; auto = N^(-1/m)")

    p = add("verify-lemma", cmd_verify_lemma, "numeric degree-bound check across N")
    p.add_argument("--gamma", default="1")
    p.add_argument("--N-range", required=True, help="e.g. 6..14 or 6,8,10")

    p = add("containers", cmd_containers, "build a container family")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--tau", default="auto")
    p.add_argument("--export", default=None, help="write the family export here")

    p = add("verify-family", cmd_verify_family, "coverage and sparsity verification")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", default="1/10")
    p.add_argument("--tau", default="auto")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--family", default=None, help="verify this exported family instead of rebuilding")

    p = add("pipeline", cmd_pipeline, "end-to-end container run with checks")
    p.add_argument("--a", default="2")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--samples", type=int, default=10_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("missing subcommand")
        for flag, least in (("witness_cap", 0), ("samples", 1)):
            value = getattr(args, flag, least)
            if value < least:
                raise PreconditionError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
        if not 0 <= args.seed < 1 << 32:
            # the sampled verifier's RNG takes a 32-bit seed
            raise PreconditionError(f"--seed must be in 0..{(1 << 32) - 1}, got {args.seed}")
        return _run(args)
    except UsageError as exc:
        print(f"digraphlab: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the unwritten rest of the document goes to devnull, so the
        # interpreter's last flush of stdout does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("digraphlab: error: standard output closed", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path (--out, --export, --witness-dir) not writable
        print(f"digraphlab: error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"digraphlab: parse error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, PreconditionError) as exc:
        print(f"digraphlab: refused: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"digraphlab: verification failed: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
