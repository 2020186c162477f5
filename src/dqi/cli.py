"""Command-line front end: `dqi <group> <command> ...`.

Exit codes: 0 = the answer is True, 1 = False, 2 = Unknown (budget or
incomplete method), 3 = usage error, malformed input, a constraint-class
violation, or an output path that cannot be written.  With ``--json``
every decision command prints a RunReport object (documented in
docs/report.md) on stdout instead of prose.
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
from .core import UCQ, Const, Instance, Schema, SchemaError, value_name
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
    _NEEDS_INSTANCE,
    _NEEDS_QUERY,
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


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from e


def _pick(named: Dict, name: Optional[str], path: str, flag: str, plural: str):
    """The query or instance of the file that `--<flag> name` names, or its
    only one when no name is given."""
    if name is None:
        if len(named) == 1:
            return next(iter(named.values()))
        raise UsageError(f"{path} defines {plural} {sorted(named)}; pick one with --{flag}")
    if name not in named:
        raise UsageError(f"{path} has no {flag} named {name!r} (it has {sorted(named)})")
    return named[name]


def _query(pf: ProblemFile, args: argparse.Namespace) -> UCQ:
    return _pick(pf.queries, args.query, args.file, "query", "queries")


def _instance(pf: ProblemFile, args: argparse.Namespace) -> Instance:
    return _pick(pf.instances, args.instance, args.file, "instance", "instances")


def _problem(pf: ProblemFile, args: argparse.Namespace, kind: str) -> ProblemInstance:
    """The problem of `kind` on the file's constraints and schema, with the
    query and the instance that the kind takes."""
    q = _query(pf, args) if kind in _NEEDS_QUERY else None
    v = _instance(pf, args) if kind in _NEEDS_INSTANCE else None
    return ProblemInstance(kind, pf.constraints, pf.schema, query=q, instance=v)


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


def _facts_tsv(instance: Instance) -> str:
    """One line per fact in sorted order: the relation, then each value."""
    return "".join(f"{f.relation}\t" + "\t".join(value_name(a) for a in f.args) + "\n"
                   for f in instance.sorted_facts())


_WORD = {True: "true", False: "false", None: "unknown"}
_EXIT = {True: EXIT_TRUE, False: EXIT_FALSE, None: EXIT_UNKNOWN}


def _report(args: argparse.Namespace, verdict: Verdict, started: float,
            exactness: str, budget: Optional[ChaseBudget]) -> int:
    word = _WORD[verdict.value]
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
    return _EXIT[verdict.value]


def _exactness_of(verdict: Verdict) -> str:
    if isinstance(verdict.certificate, (ClassExact, Witness, ChaseExhausted)):
        return "ExactForClass"
    return "BoundedOnly"


# ---------------------------------------------------------------------------
# command groups


# the problem kind each subcommand of `check` and `oracle`, and of `exists`,
# names; `reductions` says which kinds take a query and which an instance
_INSTANCE_PROBLEMS = {"pqi": PQI, "nqi": NQI, "realizable": REALIZABILITY, "owq": OWQ}
_EXISTS_PROBLEMS = {"pqi": EXISTS_PQI, "nqi": EXISTS_NQI}

_DECIDERS = {
    PQI: lambda p, b: decide_pqi(p.query, p.constraints, p.schema, p.instance, b),
    NQI: lambda p, b: decide_nqi(p.query, p.constraints, p.schema, p.instance, b),
    REALIZABILITY: lambda p, b: decide_realizable(p.constraints, p.schema, p.instance, b),
    OWQ: lambda p, b: decide_owq(p.query, p.constraints, p.instance, b),
    EXISTS_PQI: lambda p, b: decide_exists_pqi(p.query, p.constraints, p.schema, b),
    EXISTS_NQI: lambda p, b: decide_exists_nqi(p.query, p.constraints, p.schema, b),
}

_ORACLES = {
    PQI: lambda p, d: oracle_pqi(p.query, p.constraints, p.schema, p.instance, d),
    NQI: lambda p, d: oracle_nqi(p.query, p.constraints, p.schema, p.instance, d),
    REALIZABILITY: lambda p, d: oracle_realizable(p.constraints, p.schema, p.instance, d),
    OWQ: lambda p, d: oracle_owq(p.query, p.constraints, p.instance, d),
}

# each reduction's name, input kind, and the call on its input problem
_REDUCTIONS = {
    "ucq2cq": (PQI, lambda p, args: ucq_to_cq(p)),
    "disj2const": (EXISTS_PQI, lambda p, args: disj_to_constants(p)),
    "pqi2nqi": (PQI, lambda p, args: pqi_to_nqi(p, connected=args.connected)),
    "owq2pqi": (OWQ, lambda p, args: owq_to_pqi(p.query, p.constraints, p.instance)),
    "owq2epqi": (OWQ, lambda p, args: owq_to_exists_pqi(p.query, p.constraints, p.instance)),
    "nqi2real": (NQI, lambda p, args: nqi_to_realizability(p.query, p.constraints, p.schema, p.instance)),
    "real2nqi": (REALIZABILITY, lambda p, args: realizability_to_nqi(p.constraints, p.schema, p.instance)),
    "ensb2owq": (EXISTS_NQI, lambda p, args: exists_nqi_to_owq(p.query, p.constraints, p.schema)),
}


def _cmd_decide(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pf = _load(args.file)
    budget = _budget(args)
    verdict = _DECIDERS[args.kind](_problem(pf, args, args.kind), budget)
    return _report(args, verdict, started, _exactness_of(verdict), budget)


def _cmd_reduce(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    kind, reduction = _REDUCTIONS[args.reduction]
    out = reduction(_problem(pf, args, kind), args)
    queries = {} if out.query is None else {"Q": out.query}
    instances = {} if out.instance is None else {"V": out.instance}
    text = serialize(ProblemFile(out.schema, out.constraints, queries, instances))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(args.out, text)
        print(f"{out.kind} problem written to {args.out}")
    return EXIT_TRUE


def _cmd_emit(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    q = _query(pf, args)
    v = _instance(pf, args)
    text = emit_gnfo(args.problem.upper(), q, pf.constraints, pf.schema, v)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_TRUE


def _cmd_oracle(args: argparse.Namespace) -> int:
    started = time.monotonic()
    pf = _load(args.file)
    bound = DomainBound(extra_values=args.extra_values,
                        max_facts_total=args.max_facts,
                        space_ceiling=args.space_ceiling)
    problem = _problem(pf, args, args.kind)
    try:
        answer = _ORACLES[args.kind](problem, bound)
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
        result = classical_chase(_instance(pf, args), pf.constraints, budget)
        print(f"status: {result.status}")
        print(f"facts: {len(result.instance.facts)}")
        if args.trace:
            _write(args.trace, _facts_tsv(result.instance))
        return EXIT_TRUE if result.status == SATURATED else EXIT_UNKNOWN
    if args.variant == "visible":
        tree = visible_chase(pf.constraints, pf.schema, _instance(pf, args), budget)
        counts: Dict[str, int] = {}
        for node in tree.nodes.values():
            counts[node.status] = counts.get(node.status, 0) + 1
        for status in sorted(counts):
            print(f"{status}: {counts[status]}")
        if args.trace:
            _write(args.trace, tree.trace_tsv())
        return EXIT_TRUE if not counts.get(BUDGET_CUT) else EXIT_UNKNOWN
    # critical
    result = chase_vis_critical(pf.constraints, pf.schema, Const(args.value), budget)
    print(f"status: {result.status}")
    for f in result.instance.sorted_facts():
        print(f"  {f.relation}({', '.join(value_name(a) for a in f.args)})")
    if args.trace:
        _write(args.trace, _facts_tsv(result.instance))
    return EXIT_TRUE if result.status == SATURATED else EXIT_UNKNOWN


def _cmd_gfp(args: argparse.Namespace) -> int:
    pf = _load(args.file)
    program = build_gfp_program(_query(pf, args), pf.constraints, pf.schema)
    if args.action == "build":
        sys.stdout.write(program_text(program))
        return EXIT_TRUE
    v = _instance(pf, args)
    visible_names = {r.name for r in pf.schema.visible_relations}
    ext = Instance(
        Schema(tuple(r for r in pf.schema.relations if r.visible)),
        frozenset(f for f in v.facts if f.relation in visible_names),
    )
    goal, fixpoint = eval_gfp(program, ext)
    print(f"goal: {_WORD[goal]}")
    print(f"fixpoint facts: {len(fixpoint.facts)}")
    if args.trace:
        _write(args.trace, _facts_tsv(fixpoint))
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


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--extra-values", type=int, default=1,
                   help="fresh domain values beyond the instance (default %(default)s)")
    p.add_argument("--max-facts", type=int, default=12,
                   help="total fact bound per candidate (default %(default)s)")
    p.add_argument("--space-ceiling", type=float, default=5e6,
                   help="abort above this search-space estimate (default %(default)s)")


def _add_common(p: argparse.ArgumentParser, query: bool, instance: bool) -> None:
    p.add_argument("--file", required=True, help=".dqi problem file")
    if query:
        p.add_argument("--query", help="query name inside the file")
    if instance:
        p.add_argument("--instance", help="instance name inside the file")
    p.add_argument("--json", action="store_true", help="print a JSON RunReport")


def _add_problems(group: argparse.ArgumentParser, dest: str, kinds: Dict[str, str],
                  add_flags, handler, help_kind: bool = False) -> None:
    """One subcommand per name of `kinds`, taking the `--query` and
    `--instance` its problem kind takes, then the flags `add_flags` adds;
    with `help_kind` its help line names the kind."""
    sub = group.add_subparsers(dest=dest, required=True)
    for name, kind in kinds.items():
        p = sub.add_parser(name, help=f"input kind: {kind}") if help_kind else sub.add_parser(name)
        _add_common(p, kind in _NEEDS_QUERY, kind in _NEEDS_INSTANCE)
        add_flags(p, name)
        p.set_defaults(handler=handler, kind=kind)


def _add_reduce_flags(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--out", required=True, help="output .dqi path, or - for stdout")
    if name == "pqi2nqi":
        p.add_argument("--connected", action="store_true",
                       help="keep the output constraint bodies connected")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="dqi",
        description="Decide query implication problems over partially visible schemas.",
    )
    groups = root.add_subparsers(dest="group", required=True)

    check = groups.add_parser("check", help="instance-level decision problems")
    _add_problems(check, "problem", _INSTANCE_PROBLEMS, lambda p, _: _add_budget_flags(p), _cmd_decide)
    exists = groups.add_parser("exists", help="schema-level existence problems")
    _add_problems(exists, "problem", _EXISTS_PROBLEMS, lambda p, _: _add_budget_flags(p), _cmd_decide)
    reduce_ = groups.add_parser("reduce", help="answer-preserving problem transformations")
    _add_problems(reduce_, "reduction", {name: kind for name, (kind, _) in _REDUCTIONS.items()},
                  _add_reduce_flags, _cmd_reduce, help_kind=True)

    emit = groups.add_parser("emit", help="emit logical encodings")
    emit_sub = emit.add_subparsers(dest="encoding", required=True)
    gnfo = emit_sub.add_parser("gnfo", help="guarded-negation satisfiability encoding")
    gnfo.add_argument("problem", choices=("pqi", "nqi"))
    _add_common(gnfo, query=True, instance=True)
    gnfo.add_argument("--out", default="-", help="output path, or - for stdout (default)")
    gnfo.set_defaults(handler=_cmd_emit)

    oracle = groups.add_parser("oracle", help="bounded brute-force reference answers")
    _add_problems(oracle, "problem", _INSTANCE_PROBLEMS, lambda p, _: _add_oracle_flags(p), _cmd_oracle)

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
    try:
        return args.handler(args)
    except ValueError as e:  # UsageError, and the library's ClassError, SchemaError and ParseError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
