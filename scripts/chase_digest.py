#!/usr/bin/env python3
"""Digest of every chase-based verdict, certificate and chase tree on seeded inputs.

Runs `decide_pqi`, `decide_realizable`, `decide_owq`, `decide_exists_pqi`
and `decide_exists_nqi` on seeded random inclusion-dependency and linear
problems, and hashes each verdict with its certificate.  For the same
problems it hashes the visible chase trees, with and without the query
stop (trace TSV plus every node's facts), and the classical chase with
the query stop; then the visible chase tree of every instance of every
fixture.  The digest must not depend on the interpreter's hash
seed, and a change to the chase that keeps every trigger order, node id,
verdict and certificate keeps it, so the script exits 1 when the digest
differs from `PINNED`:

    PYTHONHASHSEED=0 python3 scripts/chase_digest.py
    PYTHONHASHSEED=1 python3 scripts/chase_digest.py

A change that means to alter some verdict, certificate or chase tree
updates `PINNED`.
"""
import hashlib
import random
from collections import Counter
from pathlib import Path

from dqi.chase import ChaseBudget, classical_chase, visible_chase
from dqi.core import ClassError
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
from dqi.problemgen import (
    random_boolean_query,
    random_id_constraints,
    random_linear_constraints,
    random_schema,
    random_visible_instance,
)
from dqi.textio import parse

PINNED = "12901591a5e2c2f30a99aa3f803d5395887179ea107a07d7e910c45fc5d7676f"
CASES = 1650
BUDGET = ChaseBudget(500, 300, 60)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DECIDERS = ("pqi", "realizable", "owq", "exists-pqi", "exists-nqi")


def problem(seed):
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


def records(seed):
    """The hashed lines of one seeded problem."""
    q, c, s, v = problem(seed)
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
            yield name, "out-of-class"
            continue
        yield name, f"{r.value} {r.reason} {certificate_text(r.certificate)}"
    yield "tree", tree_text(visible_chase(c, s, v, BUDGET))
    yield "pruned-tree", tree_text(visible_chase(c, s, v, BUDGET, prune=q))
    res = classical_chase(v, c, BUDGET, tripwire=q)
    yield "classical", f"{res.status} {res.instance.sorted_facts()!r}"


def main() -> int:
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    for seed in range(CASES):
        for name, text in records(seed):
            digest.update(f"{seed} {name} {text}\n".encode())
            if name in DECIDERS:
                verdicts[text.split(" ", 1)[0]] += 1
    for path in sorted(FIXTURES.glob("*.dqi")):
        pf = parse(path.read_text(encoding="utf-8"))
        for name, v in sorted(pf.instances.items()):
            tree = visible_chase(pf.constraints, pf.schema, v, BUDGET)
            digest.update(f"{path.name} {name} {tree_text(tree)}\n".encode())
    got = digest.hexdigest()
    counts = " ".join(f"{value}={n}" for value, n in sorted(verdicts.items()))
    print(f"chase-digest: {got} {counts}")
    if got != PINNED:
        print(f"chase-digest: expected {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
