"""Command-line front end: `dqi <group> <command> ...`.

Exit codes: 0 = the answer is True, 1 = False, 2 = Unknown (budget or
incomplete method), 3 = usage error, malformed input, or a constraint-class
violation.  With ``--json`` every decision command prints a RunReport
object (documented in docs/report.md) on stdout instead of prose.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from .chase import (
    BUDGET_CUT,
    SATURATED,
    ChaseBudget,
    chase_vis_critical,
    classical_chase,
    visible_chase,
)
from .core import (
    ClassError,
    Const,
    Instance,
    Schema,
    SchemaError,
    UCQ,
    value_name,
)
from .deciders import (
    ChaseExhausted,
    ClassExact,
    Verdict,
    Witness,
    decide_exists_nqi,
    decide_exists_pqi,
    decide_nqi,
    decide_owq,
    decide_pqi,
    decide_realizable,
)
from .gfp import build_gfp_program, eval_gfp, program_text
from .oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi, oracle_owq, oracle_pqi, oracle_realizable
from .reductions import (
    EXISTS_NQI,
    EXISTS_PQI,
    NQI,
    OWQ,
    PQI,
    REALIZABILITY,
    ProblemInstance,
    disj_to_constants,
    exists_nqi_to_owq,
    nqi_to_realizability,
    owq_to_exists_pqi,
    owq_to_pqi,
    pqi_to_nqi,
    realizability_to_nqi,
    ucq_to_cq,
)
from .textio import ParseError, ProblemFile, emit_gnfo, parse, serialize

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

DEFAULT_BUDGET = ChaseBudget(max_nodes=10000, max_facts=2000, max_depth=200)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# plumbing


def _load(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except (ParseError, SchemaError) as e:
        raise UsageError(f"{path}: {e}") from e


def _pick_query(pf: ProblemFile, name: Optional[str], path: str) -> UCQ:
    if name is None:
        if len(pf.queries) == 1:
            return next(iter(pf.queries.values()))
        raise UsageError(f"{path} defines queries {sorted(pf.queries)}; pick one with --query")
    if name not in pf.queries:
        raise UsageError(f"{path} has no query named {name!r} (it has {sorted(pf.queries)})")
    return pf.queries[name]


def _pick_instance(pf: ProblemFile, name: Optional[str], path: str) -> Instance:
    if name is None:
        if len(pf.instances) == 1:
            return next(iter(pf.instances.values()))
        raise UsageError(f"{path} defines instances {sorted(pf.instances)}; pick one with --instance")
    if name not in pf.instances:
        raise UsageError(f"{path} has no instance named {name!r} (it has {sorted(pf.instances)})")
    return pf.instances[name]


def _budget(args: argparse.Namespace) -> ChaseBudget:
    return ChaseBudget(
        max_nodes=args.budget_nodes,
        max_facts=args.budget_facts,
        max_depth=args.budget_depth,
    )


def _certificate_summary(certificate) -> Optional[Dict]:
    if certificate is None:
        return None
    if isinstance(certificate, Witness):
        return {
            "kind": "witness",
            "polarity": certificate.polarity,
            "facts": [
                [f.relation, [value_name(a) for a in f.args]]
                for f in certificate.instance.sorted_facts()
            ],
        }
    if isinstance(certificate, ChaseExhausted):
        return {
            "kind": "chaseExhausted",
            "nodes": certificate.nodes,
            "leaves": certificate.leaves,
            "dummies": certificate.dummies,
            "pruned": certificate.pruned,
        }
    if isinstance(certificate, ClassExact):
        return {"kind": "classExact", "method": certificate.method}
    return {"kind": type(certificate).__name__}


def _write_facts_tsv(path: str, instance: Instance) -> None:
    """One line per fact in sorted order: the relation, then each value."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in instance.sorted_facts():
            fh.write(f"{f.relation}\t" + "\t".join(value_name(a) for a in f.args) + "\n")


def _verdict_word(value: Optional[bool]) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "unknown"


def _exit_for(value: Optional[bool]) -> int:
    if value is True:
        return EXIT_TRUE
    if value is False:
        return EXIT_FALSE
    return EXIT_UNKNOWN


def _report(args: argparse.Namespace, verdict: Verdict, started: float,
            exactness: str, budget: Optional[ChaseBudget]) -> int:
    word = _verdict_word(verdict.value)
    if args.json:
        payload = {
            "command": " ".join(args.command_echo),
            "verdict": word,
            "reason": verdict.reason,
            "certificate": _certificate_summary(verdict.certificate),
            "exactness": exactness,
            "budget": None if budget is None else {
                "maxNodes": budget.max_nodes,
                "maxFacts": budget.max_facts,
                "maxDepth": budget.max_depth,
            },
            "wallTimeMs": round((time.monotonic() - started) * 1000.0, 3),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        line = word
        if verdict.reason:
            line += f"  ({verdict.reason})"
        print(line)
        summary = _certificate_summary(verdict.certificate)
        if summary and summary["kind"] == "witness":
            for rel, vals in summary["facts"]:
                print(f"  {rel}({', '.join(vals)})")
        elif summary and summary["kind"] == "classExact":
            print(f"  exact method: {summary['method']}")
    return _exit_for(verdict.value)


def _exactness_of(verdict: Verdict) -> str:
    if isinstance(verdict.certificate, (ClassExact, Witness, ChaseExhausted)):
        return "ExactForClass"
    return "BoundedOnly"


# ---------------------------------------------------------------------------
# command groups


def _cmd_check(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pf = _load(args.file)
    budget = _budget(args)
    if args.problem == "pqi":
        q = _pick_query(pf, args.query, args.file)
        v = _pick_instance(pf, args.instance, args.file)
        verdict = decide_pqi(q, pf.constraints, pf.schema, v, budget)
    elif args.problem == "nqi":
        q = _pick_query(pf, args.query, args.file)
        v = _pick_instance(pf, args.instance, args.file)
        verdict = decide_nqi(q, pf.constraints, pf.schema, v, budget)
    elif args.problem == "realizable":
        v = _pick_instance(pf, args.instance, args.file)
        verdict = decide_realizable(pf.constraints, pf.schema, v, budget)
    else:  # owq
        q = _pick_query(pf, args.query, args.file)
        i = _pick_instance(pf, args.instance, args.file)
        verdict = decide_owq(q, pf.constraints, i, budget)
    return _report(args, verdict, started, _exactness_of(verdict), budget)


def _cmd_exists(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pf = _load(args.file)
    budget = _budget(args)
    q = _pick_query(pf, args.query, args.file)
    if args.problem == "pqi":
        verdict = decide_exists_pqi(q, pf.constraints, pf.schema, budget)
    else:
        verdict = decide_exists_nqi(q, pf.constraints, pf.schema, budget)
    return _report(args, verdict, started, _exactness_of(verdict), budget)


_REDUCTIONS = {
    "ucq2cq": (PQI, True, True),
    "disj2const": (EXISTS_PQI, True, False),
    "pqi2nqi": (PQI, True, True),
    "owq2pqi": (OWQ, True, True),
    "owq2epqi": (OWQ, True, True),
    "nqi2real": (NQI, True, True),
    "real2nqi": (REALIZABILITY, False, True),
    "ensb2owq": (EXISTS_NQI, True, False),
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    kind, needs_query, needs_instance = _REDUCTIONS[args.reduction]
    q = _pick_query(pf, args.query, args.file) if needs_query else None
    v = _pick_instance(pf, args.instance, args.file) if needs_instance else None

    if args.reduction == "ucq2cq":
        out = ucq_to_cq(ProblemInstance(PQI, pf.constraints, pf.schema, query=q, instance=v))
    elif args.reduction == "disj2const":
        out = disj_to_constants(ProblemInstance(EXISTS_PQI, pf.constraints, pf.schema, query=q))
    elif args.reduction == "pqi2nqi":
        out = pqi_to_nqi(ProblemInstance(PQI, pf.constraints, pf.schema, query=q, instance=v),
                         connected=args.connected)
    elif args.reduction == "owq2pqi":
        out = owq_to_pqi(q, pf.constraints, v)
    elif args.reduction == "owq2epqi":
        out = owq_to_exists_pqi(q, pf.constraints, v)
    elif args.reduction == "nqi2real":
        out = nqi_to_realizability(q, pf.constraints, pf.schema, v)
    elif args.reduction == "real2nqi":
        out = realizability_to_nqi(pf.constraints, pf.schema, v)
    else:  # ensb2owq
        out = exists_nqi_to_owq(q, pf.constraints, pf.schema)

    queries = {} if out.query is None else {"Q": out.query}
    instances = {} if out.instance is None else {"V": out.instance}
    text = serialize(ProblemFile(out.schema, out.constraints, queries, instances))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{out.kind} problem written to {args.out}")
    return EXIT_TRUE


def _cmd_emit(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    q = _pick_query(pf, args.query, args.file)
    v = _pick_instance(pf, args.instance, args.file)
    text = emit_gnfo(args.problem.upper(), q, pf.constraints, pf.schema, v)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_TRUE


def _cmd_oracle(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pf = _load(args.file)
    bound = DomainBound(extra_values=args.extra_values,
                        max_facts_total=args.max_facts,
                        space_ceiling=args.space_ceiling)
    try:
        if args.problem == "pqi":
            q = _pick_query(pf, args.query, args.file)
            v = _pick_instance(pf, args.instance, args.file)
            answer = oracle_pqi(q, pf.constraints, pf.schema, v, bound)
        elif args.problem == "nqi":
            q = _pick_query(pf, args.query, args.file)
            v = _pick_instance(pf, args.instance, args.file)
            answer = oracle_nqi(q, pf.constraints, pf.schema, v, bound)
        elif args.problem == "realizable":
            v = _pick_instance(pf, args.instance, args.file)
            answer = oracle_realizable(pf.constraints, pf.schema, v, bound)
        else:  # owq
            q = _pick_query(pf, args.query, args.file)
            i = _pick_instance(pf, args.instance, args.file)
            answer = oracle_owq(q, pf.constraints, i, bound)
    except SearchSpaceTooLarge as e:
        verdict = Verdict(None, reason=str(e))
        return _report(args, verdict, started, "BoundedOnly", None)
    certificate = None if answer.witness is None else Witness(answer.witness, polarity=None)
    verdict = Verdict(answer.answer, certificate=certificate)
    return _report(args, verdict, started, answer.exactness, None)


def _cmd_chase(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    budget = _budget(args)
    if args.variant == "classical":
        i = _pick_instance(pf, args.instance, args.file)
        result = classical_chase(i, pf.constraints, budget)
        print(f"status: {result.status}")
        print(f"facts: {len(result.instance.facts)}")
        if args.trace:
            _write_facts_tsv(args.trace, result.instance)
        return EXIT_TRUE if result.status == SATURATED else EXIT_UNKNOWN
    if args.variant == "visible":
        v = _pick_instance(pf, args.instance, args.file)
        tree = visible_chase(pf.constraints, pf.schema, v, budget)
        counts: Dict[str, int] = {}
        for node in tree.nodes.values():
            counts[node.status] = counts.get(node.status, 0) + 1
        for status in sorted(counts):
            print(f"{status}: {counts[status]}")
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(tree.trace_tsv())
        return EXIT_TRUE if not counts.get(BUDGET_CUT) else EXIT_UNKNOWN
    # critical
    result = chase_vis_critical(pf.constraints, pf.schema, Const(args.value), budget)
    print(f"status: {result.status}")
    for f in result.instance.sorted_facts():
        print(f"  {f.relation}({', '.join(value_name(a) for a in f.args)})")
    if args.trace:
        _write_facts_tsv(args.trace, result.instance)
    return EXIT_TRUE if result.status == SATURATED else EXIT_UNKNOWN


def _cmd_gfp(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    q = _pick_query(pf, args.query, args.file)
    program = build_gfp_program(q, pf.constraints, pf.schema)
    if args.action == "build":
        sys.stdout.write(program_text(program))
        return EXIT_TRUE
    v = _pick_instance(pf, args.instance, args.file)
    visible_names = {r.name for r in pf.schema.visible_relations}
    ext = Instance(
        Schema(tuple(r for r in pf.schema.relations if r.visible)),
        frozenset(f for f in v.facts if f.relation in visible_names),
    )
    goal, fixpoint = eval_gfp(program, ext)
    print(f"goal: {_verdict_word(goal)}")
    print(f"fixpoint facts: {len(fixpoint.facts)}")
    if args.trace:
        _write_facts_tsv(args.trace, fixpoint)
    return EXIT_TRUE if goal else EXIT_FALSE


# ---------------------------------------------------------------------------
# argument parsing


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.max_nodes,
                   help="chase tree node budget (default %(default)s)")
    p.add_argument("--budget-facts", type=int, default=DEFAULT_BUDGET.max_facts,
                   help="facts-per-instance budget (default %(default)s)")
    p.add_argument("--budget-depth", type=int, default=DEFAULT_BUDGET.max_depth,
                   help="chase depth budget (default %(default)s)")


def _add_common(p: argparse.ArgumentParser, query: bool, instance: bool) -> None:
    p.add_argument("--file", required=True, help=".dqi problem file")
    if query:
        p.add_argument("--query", help="query name inside the file")
    if instance:
        p.add_argument("--instance", help="instance name inside the file")
    p.add_argument("--json", action="store_true", help="print a JSON RunReport")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="dqi",
        description="Decide query implication problems over partially visible schemas.",
    )
    groups = root.add_subparsers(dest="group", required=True)

    check = groups.add_parser("check", help="instance-level decision problems")
    check_sub = check.add_subparsers(dest="problem", required=True)
    for name, query, instance in (
        ("pqi", True, True),
        ("nqi", True, True),
        ("realizable", False, True),
        ("owq", True, True),
    ):
        p = check_sub.add_parser(name)
        _add_common(p, query, instance)
        _add_budget_flags(p)
        p.set_defaults(handler=_cmd_check)

    exists = groups.add_parser("exists", help="schema-level existence problems")
    exists_sub = exists.add_subparsers(dest="problem", required=True)
    for name in ("pqi", "nqi"):
        p = exists_sub.add_parser(name)
        _add_common(p, query=True, instance=False)
        _add_budget_flags(p)
        p.set_defaults(handler=_cmd_exists)

    reduce_ = groups.add_parser("reduce", help="answer-preserving problem transformations")
    reduce_sub = reduce_.add_subparsers(dest="reduction", required=True)
    for name, (kind, needs_query, needs_instance) in _REDUCTIONS.items():
        p = reduce_sub.add_parser(name, help=f"input kind: {kind}")
        _add_common(p, needs_query, needs_instance)
        p.add_argument("--out", required=True, help="output .dqi path, or - for stdout")
        if name == "pqi2nqi":
            p.add_argument("--connected", action="store_true",
                           help="keep the output constraint bodies connected")
        p.set_defaults(handler=_cmd_reduce)

    emit = groups.add_parser("emit", help="emit logical encodings")
    emit_sub = emit.add_subparsers(dest="encoding", required=True)
    gnfo = emit_sub.add_parser("gnfo", help="guarded-negation satisfiability encoding")
    gnfo.add_argument("problem", choices=("pqi", "nqi"))
    _add_common(gnfo, query=True, instance=True)
    gnfo.add_argument("--out", default="-", help="output path, or - for stdout (default)")
    gnfo.set_defaults(handler=_cmd_emit)

    oracle = groups.add_parser("oracle", help="bounded brute-force reference answers")
    oracle_sub = oracle.add_subparsers(dest="problem", required=True)
    for name, query, instance in (
        ("pqi", True, True),
        ("nqi", True, True),
        ("realizable", False, True),
        ("owq", True, True),
    ):
        p = oracle_sub.add_parser(name)
        _add_common(p, query, instance)
        p.add_argument("--extra-values", type=int, default=1,
                       help="fresh domain values beyond the instance (default %(default)s)")
        p.add_argument("--max-facts", type=int, default=12,
                       help="total fact bound per candidate (default %(default)s)")
        p.add_argument("--space-ceiling", type=float, default=5e6,
                       help="abort above this search-space estimate (default %(default)s)")
        p.set_defaults(handler=_cmd_oracle)

    chase = groups.add_parser("chase", help="run a chase and inspect it")
    chase_sub = chase.add_subparsers(dest="variant", required=True)
    for name in ("classical", "visible"):
        p = chase_sub.add_parser(name)
        _add_common(p, query=False, instance=True)
        p.add_argument("--trace", help="write a TSV trace to this path")
        _add_budget_flags(p)
        p.set_defaults(handler=_cmd_chase)
    crit = chase_sub.add_parser("critical")
    _add_common(crit, query=False, instance=False)
    crit.add_argument("--value", default="a", help="the critical domain value (default %(default)s)")
    crit.add_argument("--trace", help="write a TSV trace to this path")
    _add_budget_flags(crit)
    crit.set_defaults(handler=_cmd_chase)

    gfp = groups.add_parser("gfp", help="greatest-fixpoint Datalog compilation")
    gfp_sub = gfp.add_subparsers(dest="action", required=True)
    build = gfp_sub.add_parser("build", help="print the compiled program")
    _add_common(build, query=True, instance=False)
    build.set_defaults(handler=_cmd_gfp)
    ev = gfp_sub.add_parser("eval", help="evaluate the program on an instance")
    _add_common(ev, query=True, instance=True)
    ev.add_argument("--trace", help="write the fixpoint to this path as TSV")
    ev.set_defaults(handler=_cmd_gfp)

    return root


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold into our usage code
        return EXIT_USAGE if e.code not in (0, None) else 0
    args.command_echo = ["dqi"] + argv
    if not hasattr(args, "json"):
        args.json = False
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ClassError, SchemaError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
