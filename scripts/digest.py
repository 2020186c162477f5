#!/usr/bin/env python3
"""Digests of every answer, witness, verdict, certificate and chase tree on
seeded inputs, one per suite:

- `nqi`: the greatest-fixpoint NQI method (`dqi.gfp.nqi_gfp_detail`) on
  seeded digraph-reachability encodings and on seeded random
  inclusion-dependency and linear problems; each answer with its witness
  as sorted facts.
- `maxdb`: the maximal database of the NQI largest-model pass on the `nqi`
  suite's inputs, looked up for every hidden relation with every set of
  positions bound to the values some of its facts hold there; each lookup's
  facts sorted.
- `oracle`: all four oracles of `dqi.oracle` (`oracle_pqi`, `oracle_nqi`,
  `oracle_realizable`, `oracle_owq`) on seeded random problems of five
  families: inclusion dependencies, linear TGDs, disjunctive heads, linear
  TGDs plus an EGD, and the multi-atom bodies that `pqi_to_nqi` writes.
  Every seventh query is made open.  Each answer with its exactness and its
  witness as sorted facts, or the size estimate of a space over the ceiling.
- `chase`: `decide_pqi`, `decide_realizable`, `decide_owq`,
  `decide_exists_pqi` and `decide_exists_nqi` on seeded random
  inclusion-dependency and linear problems, each verdict with its
  certificate; for the same problems the visible chase trees, with and
  without the query stop (trace TSV plus every node's facts), and the
  classical chase with the query stop; then the visible chase tree of
  every instance of every fixture.
- `cli`: `dqi.cli.main` on every `check`, `exists`, `oracle`, `reduce`,
  `emit`, `chase` and `gfp` command, on every fixture, for each query and
  instance the command takes and with none picked, the decision commands
  also with `--json` (its `wallTimeMs` masked), plus usage errors; each
  run's exit code, stdout, stderr and written files.  The runs read the
  fixtures as `fixtures/<name>` and write files of fixed names, both in a
  scratch directory, so nothing depends on where the checkout lives.  For
  argparse's own help pages and usage errors only the exit code is hashed,
  because argparse's wording differs between Python versions.

A digest must not depend on the interpreter's hash seed, and a change that
keeps every answer, witness, trigger order, node id, verdict and certificate
keeps it, so the script exits 1 when some suite's digest differs from its
pin in `PINNED`:

    PYTHONHASHSEED=0 python3 scripts/digest.py

A change that means to alter some of these outputs updates that suite's pin.
"""
import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

from dqi.chase import ChaseBudget, classical_chase, visible_chase
from dqi.cli import main as cli_main
from dqi import gfp
from dqi.core import CQ, EGD, UCQ, Atom, ClassError, Const, ConstraintSet, Var, fact_key, value_key
from dqi.deciders import (
    ChaseExhausted,
    ClassExact,
    Witness,
    decide_exists_nqi,
    decide_exists_pqi,
    decide_owq,
    decide_pqi,
    decide_realizable,
)
from dqi.gfp import nqi_gfp_detail
from dqi.oracle import (
    DomainBound,
    SearchSpaceTooLarge,
    oracle_nqi,
    oracle_owq,
    oracle_pqi,
    oracle_realizable,
)
from dqi.problemgen import (
    random_boolean_query,
    random_digraph,
    random_id_constraints,
    random_id_problem,
    random_linear_constraints,
    random_linear_problem,
    random_schema,
    random_visible_instance,
    reachability_problem,
)
from dqi.reductions import PQI, ProblemInstance, pqi_to_nqi
from dqi.textio import parse

PINNED = {
    "nqi": "2689241fe3558f291466dfbf32212618d7a1e3194489558faf142a4dd00cebb5",
    "maxdb": "0f4f6cacc39403e800703b1421abd325ae487bb2950b121ba320c1c3e5cc2b33",
    "oracle": "a5b8bc59267a2a1bf817bb121ec03ac896d4efd336e2ebba17fd4ff0aeb7d6cc",
    "chase": "12901591a5e2c2f30a99aa3f803d5395887179ea107a07d7e910c45fc5d7676f",
    "cli": "22e85d11332fa70c6ccc2c684696ade0b2461cadedb0fb4a13b26024b8c17f2a",
}
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# ---------------------------------------------------------------------------
# nqi

NQI_GRAPHS, NQI_CASES = 60, 600


def nqi_problems():
    """(label, problem) pairs: reachability graphs of up to 5 nodes, then
    random problems, inclusion dependencies on odd seeds."""
    for seed in range(NQI_GRAPHS):
        nodes, edges, source, target = random_digraph(random.Random(seed), max_nodes=5)
        yield f"graph{seed}", reachability_problem(nodes, edges, source, target)
    for seed in range(NQI_CASES):
        gen = random_id_problem if seed % 2 else random_linear_problem
        yield f"random{seed}", gen(random.Random(seed))


def nqi_lines():
    for label, (q, c, s, v) in nqi_problems():
        try:
            ans, witness, _ = nqi_gfp_detail(q, c, s, v)
        except ClassError:
            ans, witness = None, None
        facts = () if witness is None else witness.sorted_facts()
        yield f"{label} {ans} {facts!r}\n", {True: "true", False: "false", None: "out-of-class"}[ans]


# ---------------------------------------------------------------------------
# maxdb


def maximal_databases(q, c, s, v):
    """The maximal databases (`dqi.gfp._MaximalDatabase`) that deciding the
    problem with `nqi_gfp_detail` builds, with the rules each was built from."""
    made = []
    plain = gfp._MaximalDatabase

    class Recorded(plain):
        def __init__(self, rules, constants, ext):
            super().__init__(rules, constants, ext)
            made.append((self, rules))

    gfp._MaximalDatabase = Recorded
    try:
        nqi_gfp_detail(q, c, s, v)
    except ClassError:
        pass
    finally:
        gfp._MaximalDatabase = plain
    return made


def maxdb_lines():
    """Over the `nqi` suite's inputs, for every hidden relation of every
    maximal database and every set of positions, the facts that an atom of
    distinct variables matches when the seed binds those positions to the
    values of some fact at them."""
    for label, problem in nqi_problems():
        for db, rules in maximal_databases(*problem):
            for rel, arity in sorted({(head.relation, len(head.args)) for head, _ in rules}):
                xs = tuple(Var(f"x{i}") for i in range(arity))
                atom = Atom(rel, xs)
                whole = db.facts(atom)
                for r in range(arity + 1):
                    for positions in itertools.combinations(range(arity), r):
                        keys = {tuple(f.args[i] for i in positions) for f in whole}
                        for key in sorted(keys, key=lambda k: [value_key(x) for x in k]):
                            seed = dict(zip([xs[i] for i in positions], key))
                            got = sorted(db.facts(atom, seed), key=fact_key)
                            yield f"{label} {rel} {positions} {key!r} {got!r}\n", "lookups"


# ---------------------------------------------------------------------------
# oracle

ORACLE_CASES = 1500
FAMILIES = ("id", "linear", "disjunctive", "egd", "multi-atom-body")


def oracle_problem(seed):
    """The seeded problem of family `FAMILIES[seed % 5]`."""
    rng = random.Random(seed)
    family = FAMILIES[seed % len(FAMILIES)]
    if family in ("id", "multi-atom-body"):
        q, c, s, v = random_id_problem(rng)
    else:
        q, c, s, v = random_linear_problem(rng, max_heads=2 if family == "disjunctive" else 1,
                                           hidden_disjunct_atoms=family == "disjunctive")
    if family == "egd":
        rel = rng.choice(s.relations)
        args = tuple(Var(f"e{i}") for i in range(rel.arity))
        right = Const("a") if rng.random() < 0.5 else args[-1]
        c = ConstraintSet(c.dependencies + (EGD((Atom(rel.name, args),), args[0], right),))
    if family == "multi-atom-body":
        out = pqi_to_nqi(ProblemInstance(PQI, c, s, query=q, instance=v))
        q, c, s, v = out.query, out.constraints, out.schema, out.instance
    if seed % 7 == 6:
        cq = q.disjuncts[0]
        free = cq.variables[:1]
        q = UCQ((CQ(free, tuple(x for x in cq.variables if x not in free), cq.atoms),))
    return family, (q, c, s, v)


def ask(kind, q, c, s, v, d):
    """The oracle's answer, exactness and sorted witness facts, or the size
    of a space over the ceiling."""
    try:
        if kind == "pqi":
            r = oracle_pqi(q, c, s, v, d)
        elif kind == "nqi":
            r = oracle_nqi(q, c, s, v, d)
        elif kind == "realizable":
            r = oracle_realizable(c, s, v, d)
        else:
            r = oracle_owq(q, c, v, d)
    except SearchSpaceTooLarge as exc:
        return ("too large", f"{exc.size:.6g}")
    return (r.answer, r.exactness, None if r.witness is None else r.witness.sorted_facts())


def oracle_lines():
    for seed in range(ORACLE_CASES):
        family, (q, c, s, v) = oracle_problem(seed)
        d = DomainBound(extra_values=1, max_facts_total=len(v.facts) + 5, space_ceiling=5e4)
        for kind in ("pqi", "nqi", "realizable", "owq"):
            got = ask(kind, q, c, s, v, d)
            yield f"{seed} {family} {kind} {got!r}\n", str(got[0]).lower().replace(" ", "-")


# ---------------------------------------------------------------------------
# chase

CHASE_CASES = 1650
BUDGET = ChaseBudget(500, 300, 60)


def chase_problem(seed):
    """(q, c, s, v) of up to five relations of arity at most 2; linear
    constraints on odd seeds, inclusion dependencies on even ones."""
    rng = random.Random(seed)
    s = random_schema(rng, max_relations=5, max_arity=2)
    if seed % 2:
        c = random_linear_constraints(rng, s, max_deps=5, max_heads=1)
    else:
        c = random_id_constraints(rng, s, max_deps=5)
    return random_boolean_query(rng, s), c, s, random_visible_instance(rng, s, adom=3)


def certificate_text(cert) -> str:
    if isinstance(cert, Witness):
        return f"witness {cert.polarity} {cert.instance.sorted_facts()!r}"
    if isinstance(cert, ChaseExhausted):
        return f"exhausted {cert.nodes} {cert.leaves} {cert.dummies} {cert.pruned}"
    if isinstance(cert, ClassExact):
        return f"exact {cert.method}"
    return repr(cert)


def tree_text(tree) -> str:
    facts = "".join(f"{n.id} {n.instance.sorted_facts()!r}\n" for _, n in sorted(tree.nodes.items()))
    return tree.trace_tsv() + facts


def chase_records(seed):
    """The hashed records of one seeded problem, each with its verdict (None
    for a chase, whose result is not counted)."""
    q, c, s, v = chase_problem(seed)
    calls = (
        ("pqi", lambda: decide_pqi(q, c, s, v, BUDGET)),
        ("realizable", lambda: decide_realizable(c, s, v, BUDGET)),
        ("owq", lambda: decide_owq(q, c, v, BUDGET)),
        ("exists-pqi", lambda: decide_exists_pqi(q, c, s, BUDGET)),
        ("exists-nqi", lambda: decide_exists_nqi(q, c, s, BUDGET)),
    )
    for name, call in calls:
        try:
            r = call()
        except ClassError:
            yield name, "out-of-class", "out-of-class"
            continue
        yield name, f"{r.value} {r.reason} {certificate_text(r.certificate)}", str(r.value).lower()
    yield "tree", tree_text(visible_chase(c, s, v, BUDGET)), None
    yield "pruned-tree", tree_text(visible_chase(c, s, v, BUDGET, prune=q)), None
    res = classical_chase(v, c, BUDGET, tripwire=q)
    yield "classical", f"{res.status} {res.instance.sorted_facts()!r}", None


def chase_lines():
    for seed in range(CHASE_CASES):
        for name, text, verdict in chase_records(seed):
            yield f"{seed} {name} {text}\n", verdict
    for path in sorted(FIXTURES.glob("*.dqi")):
        pf = parse(path.read_text(encoding="utf-8"))
        for name, v in sorted(pf.instances.items()):
            tree = visible_chase(pf.constraints, pf.schema, v, BUDGET)
            yield f"{path.name} {name} {tree_text(tree)}\n", None


# ---------------------------------------------------------------------------
# cli

# (command, takes --query, takes --instance, prints a verdict, extra flags)
CLI_COMMANDS = (
    *((("check", p), p != "realizable", True, True, ()) for p in ("pqi", "nqi", "realizable", "owq")),
    *((("exists", p), True, False, True, ()) for p in ("pqi", "nqi")),
    *((("oracle", p), p != "realizable", True, True, ("--max-facts", "3"))
      for p in ("pqi", "nqi", "realizable", "owq")),
    *((("reduce", r), r != "real2nqi", r not in ("disj2const", "ensb2owq"), False, out)
      for r in ("ucq2cq", "disj2const", "pqi2nqi", "owq2pqi", "owq2epqi", "nqi2real", "real2nqi", "ensb2owq")
      for out in (("--out", "-"), ("--out", "out.dqi"))),
    (("reduce", "pqi2nqi"), True, True, False, ("--out", "-", "--connected")),
    *((("emit", "gnfo", p), True, True, False, out)
      for p in ("pqi", "nqi") for out in ((), ("--out", "out.gnfo"))),
    *((("chase", v), False, True, False, ("--trace", "trace.tsv")) for v in ("classical", "visible")),
    (("chase", "critical"), False, False, False, ("--trace", "trace.tsv")),
    (("gfp", "build"), True, False, False, ()),
    (("gfp", "eval"), True, True, False, ("--trace", "trace.tsv")),
)
# budgets cut, a search space over its ceiling, and errors the CLI reports
# itself, in the order it meets them: the file, then the budget or bound,
# then the query, then the instance
CLI_EDGES = (
    ("check", "pqi", "--file", "fixtures/separation.dqi", "--budget-nodes", "1"),
    ("check", "pqi", "--file", "fixtures/separation.dqi", "--budget-nodes", "1", "--json"),
    ("oracle", "pqi", "--file", "fixtures/separation.dqi", "--space-ceiling", "1"),
    ("oracle", "owq", "--file", "fixtures/separation.dqi", "--space-ceiling", "1", "--json"),
    ("chase", "visible", "--file", "fixtures/separation.dqi", "--budget-depth", "1"),
    ("chase", "classical", "--file", "fixtures/separation.dqi", "--budget-facts", "1"),
    ("chase", "critical", "--file", "fixtures/separation.dqi", "--budget-depth", "1"),
    ("check", "pqi", "--file", "fixtures/missing.dqi", "--budget-nodes", "0"),
    ("check", "pqi", "--file", "fixtures/medical.dqi", "--budget-nodes", "0", "--query", "P"),
    ("oracle", "nqi", "--file", "fixtures/medical.dqi", "--max-facts", "-1", "--query", "P"),
    ("oracle", "owq", "--file", "fixtures/medical.dqi", "--space-ceiling", "nan"),
    ("check", "owq", "--file", "fixtures/medical.dqi", "--query", "P", "--instance", "W"),
    ("exists", "nqi", "--file", "fixtures/medical.dqi", "--query", "P"),
    ("check", "realizable", "--file", "fixtures/medical.dqi", "--instance", "W"),
    ("reduce", "owq2pqi", "--file", "fixtures/medical.dqi", "--query", "P", "--out", "-"),
    ("emit", "gnfo", "nqi", "--file", "fixtures/medical.dqi", "--instance", "W"),
    ("chase", "visible", "--file", "fixtures/medical.dqi", "--budget-depth", "-3"),
    ("gfp", "eval", "--file", "fixtures/medical.dqi"),
)
# errors and help pages of argparse itself: only the exit code is hashed
CLI_ARGPARSE = (
    ("--help",), ("check", "--help"), ("check", "pqi", "--help"), ("reduce", "pqi2nqi", "--help"),
    ("nonsense",), ("check",), ("check", "pqi"), ("exists", "nqi", "--file", "x", "--instance", "V"),
    ("check", "realizable", "--file", "x", "--query", "Q"), ("oracle", "pqi", "--file", "x", "--max-facts", "z"),
)


def cli_runs():
    """(argv, whether only the exit code is hashed) of every run."""
    for path in sorted(FIXTURES.glob("*.dqi")):
        pf = parse(path.read_text(encoding="utf-8"))
        file = ("--file", f"fixtures/{path.name}")
        for command, query, instance, verdict, extra in CLI_COMMANDS:
            for q in [None, *sorted(pf.queries)] if query else [None]:
                for i in [None, *sorted(pf.instances)] if instance else [None]:
                    picks = (("--query", q) if q else ()) + (("--instance", i) if i else ())
                    argv = command + file + picks + extra
                    yield argv, False
                    if verdict:
                        yield argv + ("--json",), False
    for argv in CLI_EDGES:
        yield argv, False
    for argv in CLI_ARGPARSE:
        yield argv, True


def cli_lines():
    """Each run's argv, exit code, stdout and stderr, and the files it wrote
    with their contents, from a scratch directory holding the fixtures."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(FIXTURES, os.path.join(scratch, "fixtures"))
        os.chdir(scratch)
        try:
            for argv, code_only in cli_runs():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(list(argv))
                written = []
                for name in sorted(set(os.listdir(".")) - {"fixtures"}):
                    with open(name, encoding="utf-8") as fh:
                        written.append((name, fh.read()))
                    os.remove(name)
                if code_only:
                    yield f"{argv!r} {code}\n", f"exit{code}"
                    continue
                stdout = re.sub(r'"wallTimeMs": [-+.e0-9]+', '"wallTimeMs": 0', out.getvalue())
                yield f"{argv!r} {code} {stdout!r} {err.getvalue()!r} {written!r}\n", f"exit{code}"
        finally:
            os.chdir(here)


# ---------------------------------------------------------------------------

SUITES = {"nqi": nqi_lines, "maxdb": maxdb_lines, "oracle": oracle_lines, "chase": chase_lines,
          "cli": cli_lines}


def digest(suite):
    """The hex digest of a suite's hashed lines, and the count of each
    outcome among them."""
    h = hashlib.sha256()
    outcomes: Counter = Counter()
    for line, outcome in SUITES[suite]():
        h.update(line.encode())
        if outcome is not None:
            outcomes[outcome] += 1
    return h.hexdigest(), outcomes


def main() -> int:
    failed = 0
    for suite in SUITES:
        got, outcomes = digest(suite)
        counts = " ".join(f"{k}={n}" for k, n in sorted(outcomes.items()))
        print(f"{suite}-digest: {got} {counts}")
        if got != PINNED[suite]:
            print(f"{suite}-digest: expected {PINNED[suite]}")
            failed = 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
