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
from .density import density_report, m_density, require_usable_m
from .digraphs import Digraph, PatternDigraph
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
from .pairhypergraph import build_hypergraph, codegree_profile, tau_for, verify_degree_lemma
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
            text = path.read_text()
        except OSError as exc:
            raise UsageError(f"unreadable graph file {spec!r}: {exc}") from None
        return PatternDigraph.from_text(text), spec
    name = spec[:-3] if spec.endswith(".dg") else spec
    if name in BUILTIN_PATTERNS:
        text = resources.files("digraphlab.patterns").joinpath(f"{name}.dg").read_text()
        return PatternDigraph.from_text(text), f"builtin:{name}"
    raise UsageError(f"pattern {spec!r}: no such file or builtin pattern")


def _parse_n_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise UsageError(f"malformed N range {text!r}") from None
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"malformed N list {text!r}") from None


def _manifest(command: str, args, params: dict) -> dict:
    return {
        "command": command,
        "tool": "digraphlab",
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "params": params,
    }


def _pattern_doc(pattern: PatternDigraph, source: str) -> dict:
    return {
        "source": source,
        "n": int_str(pattern.h),
        "edges": int_str(pattern.r),
        "aut": int_str(pattern.aut),
        "edge_list": pattern.graph.to_edge_text(),
    }


def _emit(args, doc: dict) -> None:
    text = render_document(doc)
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _edges_json(edges) -> list[list[int]]:
    return [[u, v] for u, v in sorted(edges)]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    pattern, src = load_pattern(args.pattern)
    weight = WeightParam.parse(args.a)
    rep = density_report(pattern, weight)
    m = rep.m
    doc = {
        "manifest": _manifest("density", args, {"pattern": args.pattern, "a": args.a}),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "m": m.display,
            "m_finite_part": None if m.value is None else frac_str(m.value),
            "m_two_cycle_flag": m.has_two_cycle_subgraph,
            "m_witness_edges": None if m.witness is None else _edges_json(m.witness),
            "condition_a": {
                "a": weight.exact_str,
                "verdict": rep.condition.ok,
                "max_density": frac_str(rep.condition.max_density),
                "witness_edges": _edges_json(rep.condition.witness),
                "witness_text": rep.condition.witness_text,
            },
            "degree_constant": int_str(rep.constant),
        },
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_condition_a(args) -> int:
    pattern, src = load_pattern(args.pattern)
    weight = WeightParam.parse(args.a)
    rep = density_report(pattern, weight).condition
    doc = {
        "manifest": _manifest("condition-a", args, {"pattern": args.pattern, "a": args.a}),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "a": weight.exact_str,
            "verdict": rep.ok,
            "max_density": frac_str(rep.max_density),
            "witness_edges": _edges_json(rep.witness),
            "witness_text": rep.witness_text,
        },
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_ex(args) -> int:
    pattern, src = load_pattern(args.pattern)
    weight = WeightParam.parse(args.a)
    res = extremal_number(
        args.n, pattern, weight, mode=args.mode,
        witness_cap=args.witness_cap,
    )
    if args.witness_dir:
        out_dir = Path(args.witness_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(res.witnesses):
            (out_dir / f"witness_{i:03d}.dg").write_text(w.to_edge_text())
    doc = {
        "manifest": _manifest("ex", args, {
            "pattern": args.pattern, "n": str(args.n), "a": args.a,
            "mode": args.mode, "witness_cap": str(args.witness_cap),
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
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
        },
        # a failed witness re-check raises, and exits 3 before any document is written
        "checks": [
            {"name": "witnesses-pattern-free-and-extremal", "pass": True,
             "detail": f"witnesses re-checked via copy counting: {len(res.witnesses)}"},
        ],
    }
    _emit(args, doc)
    return 0


def cmd_count_free(args) -> int:
    pattern, src = load_pattern(args.pattern)
    count = count_free(args.n, pattern)
    doc = {
        "manifest": _manifest("count-free", args, {"pattern": args.pattern, "n": str(args.n)}),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {"count": int_str(count)},
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_ratio(args) -> int:
    pattern, src = load_pattern(args.pattern)
    rep = counting_ratio(args.n, pattern)
    doc = {
        "manifest": _manifest("ratio", args, {"pattern": args.pattern, "n": str(args.n)}),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "count": int_str(rep.count),
            "ex2": int_str(rep.ex2),
            "log2_count": float_field(rep.log2_count),
            "ratio": None if rep.ratio is None else float_field(rep.ratio),
        },
        # a violated bound raises, and exits 3 before any document is written
        "checks": [
            {"name": "count >= 2^ex2", "pass": True,
             "detail": f"exact big-integer comparison: {rep.count} >= 2^{rep.ex2}"},
        ],
    }
    _emit(args, doc)
    return 0


def cmd_supersat(args) -> int:
    pattern, src = load_pattern(args.pattern)
    weight = WeightParam.parse(args.a)
    if 1 <= args.n <= FULL_MODE_MAX_N:  # larger n is refused by the scan itself
        copies = len(compile_copies(args.n, pattern))
        if args.k_max > copies:
            raise PreconditionError(f"--k-max {args.k_max} exceeds {copies}, the number of "
                                    f"copies of the pattern in the complete digraph on [{args.n}]")
    points = supersat_scan(args.n, pattern, weight, args.k_max)
    doc = {
        "manifest": _manifest("supersat", args, {
            "pattern": args.pattern, "n": str(args.n), "a": args.a, "k_max": str(args.k_max),
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "points": [
                {"k": int_str(p.k), "max_ea": p.value_str,
                 "f2": int_str(p.f2), "f1": int_str(p.f1),
                 "max_ea_float": float_field(p.value_float)}
                for p in points
            ],
        },
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_hypergraph(args) -> int:
    pattern, src = load_pattern(args.pattern)
    hg = build_hypergraph(args.N, pattern)
    export = hg.export_text()
    if args.export:
        Path(args.export).write_text(export)
    doc = {
        "manifest": _manifest("hypergraph", args, {
            "pattern": args.pattern, "N": str(args.N),
            "export": args.export or "",
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "universe_size": int_str(hg.universe.size),
            "r": int_str(hg.r),
            "edges": int_str(hg.edge_count),
            "labelled_copy_count": int_str(hg.labelled_copy_count),
            "export_text": None if args.export else export,
        },
        # a failed hyperedge decode raises, and exits 3 before any document is written
        "checks": [
            {"name": "hyperedges-decode-to-one-copy", "pass": True,
             "detail": f"hyperedges decoded to one copy each during the build: {hg.edge_count}"},
        ],
    }
    _emit(args, doc)
    return 0


def cmd_codegree(args) -> int:
    pattern, src = load_pattern(args.pattern)
    tau = _parse_tau(args, pattern)
    hg = build_hypergraph(args.N, pattern)
    prof = codegree_profile(hg, tau)
    doc = {
        "manifest": _manifest("codegree", args, {
            "pattern": args.pattern, "N": str(args.N), "tau": args.tau,
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
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
        },
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_verify_lemma(args) -> int:
    pattern, src = load_pattern(args.pattern)
    gamma = parse_fraction(args.gamma, "gamma")
    n_values = _parse_n_range(args.N_range)
    rep = verify_degree_lemma(pattern, n_values, gamma)
    doc = {
        "manifest": _manifest("verify-lemma", args, {
            "pattern": args.pattern, "gamma": args.gamma, "N_range": args.N_range,
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
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
        },
        "checks": [
            {"name": "degree-bound-all-rows", "pass": rep.all_ok,
             "detail": f"{sum(r.ok for r in rep.rows)}/{len(rep.rows)} rows pass"},
        ],
    }
    _emit(args, doc)
    if not rep.all_ok:
        print("verification failed: degree bound violated", file=sys.stderr)
        return 3
    return 0


def _parse_tau(args, pattern: PatternDigraph) -> float:
    """--tau: "auto" for N^(-1/m), or a number in (0, 1]."""
    if args.tau == "auto":
        return tau_for(args.N, require_usable_m(pattern))
    tau = parse_fraction(args.tau, "tau")
    if not 0 < tau <= 1:  # decided exactly: float() of a large value overflows
        raise PreconditionError(f"tau={args.tau} outside (0, 1]")
    return float(tau)


def cmd_containers(args) -> int:
    pattern, src = load_pattern(args.pattern)
    eps = parse_fraction(args.eps, "eps")
    tau = _parse_tau(args, pattern)
    hg = build_hypergraph(args.N, pattern)
    fam = build_containers(hg, tau, eps)
    export = fam.export_text()
    if args.export:
        Path(args.export).write_text(export)
    doc = {
        "manifest": _manifest("containers", args, {
            "pattern": args.pattern, "N": str(args.N), "eps": args.eps,
            "tau": args.tau, "export": args.export or "",
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "universe_size": int_str(hg.universe.size),
            "hypergraph_edges": int_str(hg.edge_count),
            "eps": frac_str(eps),
            "tau": float_field(fam.tau),
            "containers": int_str(len(fam.containers)),
            "tree_nodes": int_str(len(fam.pivots)),
            "max_span": int_str(max(fam.spans, default=0)),
            "export_text": None if args.export else export,
        },
        "checks": [],
    }
    _emit(args, doc)
    return 0


def cmd_verify_family(args) -> int:
    pattern, src = load_pattern(args.pattern)
    require_verifiable(args.N, args.mode)
    eps = parse_fraction(args.eps, "eps")
    if args.family:
        try:
            fam = ContainerFamily.from_export_text(Path(args.family).read_text())
        except OSError as exc:
            raise UsageError(f"unreadable family file {args.family!r}: {exc}") from None
        # sparsity is checked against the family's own eps
        if fam.eps != eps:
            raise PreconditionError(f"--eps {eps} differs from the family's eps {fam.eps}")
        hg = build_hypergraph(args.N, pattern)
    else:
        tau = _parse_tau(args, pattern)
        hg = build_hypergraph(args.N, pattern)
        fam = build_containers(hg, tau, eps)
    rep = verify_family(hg, fam, pattern, mode=args.mode, samples=args.samples, seed=args.seed)
    doc = {
        "manifest": _manifest("verify-family", args, {
            "pattern": args.pattern, "N": str(args.N), "eps": args.eps,
            "tau": args.tau, "mode": args.mode, "samples": str(args.samples),
            "family": args.family or "",
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
            "mode": rep.mode,
            "checked": int_str(rep.checked),
            "attempts": None if rep.attempts is None else int_str(rep.attempts),
            "coverage_ok": rep.coverage_ok,
            "miss_witness": rep.miss_witness,
            "miss_container": None if rep.miss_container is None else int_str(rep.miss_container),
            "sparsity_ok": rep.sparsity_ok,
            "max_span": int_str(rep.max_span),
        },
        "checks": [
            {"name": "coverage", "pass": rep.coverage_ok,
             "detail": f"{rep.checked} pattern-free digraphs routed"},
            {"name": "sparsity", "pass": rep.sparsity_ok,
             "detail": f"max span {rep.max_span}, limit {rep.span_limit_num}/{rep.span_limit_den}"},
        ],
    }
    _emit(args, doc)
    if not rep.ok:
        if rep.miss_witness is not None:
            print(f"verification failed: coverage miss, witness:\n{rep.miss_witness}",
                  file=sys.stderr)
        else:
            print("verification failed: container sparsity violated", file=sys.stderr)
        return 3
    return 0


def cmd_pipeline(args) -> int:
    pattern, src = load_pattern(args.pattern)
    weight = WeightParam.parse(args.a)
    eps = parse_fraction(args.eps, "eps")
    rep = container_pipeline(pattern, weight, args.N, eps, samples=args.samples, seed=args.seed)
    ex_doc = None
    if rep.extremal is not None:
        ex_doc = {
            "value": rep.extremal.value_str,
            "mode": rep.extremal.mode,
        }
    doc = {
        "manifest": _manifest("pipeline", args, {
            "pattern": args.pattern, "a": args.a, "N": str(args.N),
            "eps": args.eps, "samples": str(args.samples),
        }),
        "inputs": {"pattern": _pattern_doc(pattern, src)},
        "results": {
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
            "extremal": ex_doc,
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
        },
        "checks": [
            {"name": "property-a-coverage", "pass": rep.verify.coverage_ok,
             "detail": f"{rep.verify.mode}: {rep.verify.checked} independent sets"},
            {"name": "property-b-copy-bounds", "pass": rep.copies_ok,
             "detail": "both eps normalisations (hyperedge count and N^h)"},
            {"name": "property-b-weighted-size", "pass": bool(rep.ea_ok) if rep.ea_ok is not None else None,
             "detail": rep.extremal_note},
            {"name": "property-c-family-size", "pass": None,
             "detail": "reported against the reference curve, not asserted"},
        ],
    }
    _emit(args, doc)
    if not rep.ok:
        print("verification failed: container pipeline property check", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="digraphlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the document here instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the manifest")

    def pat(p):
        p.add_argument("--pattern", required=True, help="pattern file or builtin name")

    p = sub.add_parser("density", parents=[common], help="exponent m, sparsity verdict, degree constant")
    pat(p)
    p.add_argument("--a", default="2")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("condition-a", parents=[common], help="sparsity verdict at weight a")
    pat(p)
    p.add_argument("--a", default="2")
    p.set_defaults(func=cmd_condition_a)

    p = sub.add_parser("ex", parents=[common], help="exact extremal weighted size")
    pat(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="2")
    p.add_argument("--mode", choices=["full", "canonical"], default="full")
    p.add_argument("--witness-cap", type=int, default=256)
    p.add_argument("--witness-dir", default=None, help="write witness .dg files here")
    p.set_defaults(func=cmd_ex)

    p = sub.add_parser("count-free", parents=[common], help="exact labelled pattern-free count")
    pat(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count_free)

    p = sub.add_parser("ratio", parents=[common], help="log2 count against the a=2 extremal number")
    pat(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("supersat", parents=[common], help="max weighted size per copy budget")
    pat(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="2")
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=cmd_supersat)

    p = sub.add_parser("hypergraph", parents=[common], help="build and export the pair hypergraph")
    pat(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--export", default=None, help="write the export format here")
    p.set_defaults(func=cmd_hypergraph)

    p = sub.add_parser("codegree", parents=[common], help="co-degree profile at tau")
    pat(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tau", default="auto", help="branching scale; auto = N^(-1/m)")
    p.set_defaults(func=cmd_codegree)

    p = sub.add_parser("verify-lemma", parents=[common], help="numeric degree-bound check across N")
    pat(p)
    p.add_argument("--gamma", default="1")
    p.add_argument("--N-range", required=True, help="e.g. 6..14 or 6,8,10")
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("containers", parents=[common], help="build a container family")
    pat(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--tau", default="auto")
    p.add_argument("--export", default=None, help="write the family export here")
    p.set_defaults(func=cmd_containers)

    p = sub.add_parser("verify-family", parents=[common], help="coverage and sparsity verification")
    pat(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", default="1/10")
    p.add_argument("--tau", default="auto")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--family", default=None, help="verify this exported family instead of rebuilding")
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("pipeline", parents=[common], help="end-to-end container run with checks")
    pat(p)
    p.add_argument("--a", default="2")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_pipeline)

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
        return args.func(args)
    except UsageError as exc:
        print(f"digraphlab: error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"digraphlab: parse error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, PreconditionError) as exc:
        print(f"digraphlab: refused: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        msg = f"digraphlab: verification failed: {exc}"
        if exc.witness:
            msg += f"\nwitness:\n{exc.witness}"
        print(msg, file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
