#!/usr/bin/env python3
"""Digest of every bounded-oracle answer and witness on seeded inputs.

Asks all four oracles of `dqi.oracle` (`oracle_pqi`, `oracle_nqi`,
`oracle_realizable`, `oracle_owq`) on seeded random problems of five
families: inclusion dependencies, linear TGDs, disjunctive heads, linear
TGDs plus an EGD, and the multi-atom bodies that `pqi_to_nqi` writes.  Every
seventh query is made open.  It hashes each answer with its exactness and
its witness as sorted facts, or the size estimate of a space over the
ceiling.  The digest must not depend on the interpreter's hash seed, and a
change to the oracle that keeps every answer and witness keeps it, so the
script exits 1 when the digest differs from `PINNED`:

    PYTHONHASHSEED=0 python3 scripts/oracle_digest.py
    PYTHONHASHSEED=1 python3 scripts/oracle_digest.py

A change that means to alter some answer or witness updates `PINNED`.
"""
import hashlib
import random
from collections import Counter

from dqi.core import CQ, UCQ, Atom, CName, ConstraintSet, EGD, Var
from dqi.oracle import (
    DomainBound,
    SearchSpaceTooLarge,
    oracle_nqi,
    oracle_owq,
    oracle_pqi,
    oracle_realizable,
)
from dqi.problemgen import random_id_problem, random_linear_problem
from dqi.reductions import PQI, ProblemInstance, pqi_to_nqi

PINNED = "a5b8bc59267a2a1bf817bb121ec03ac896d4efd336e2ebba17fd4ff0aeb7d6cc"
CASES = 1500
FAMILIES = ("id", "linear", "disjunctive", "egd", "multi-atom-body")


def problem(seed):
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
        right = CName("a") if rng.random() < 0.5 else args[-1]
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


def main() -> int:
    digest = hashlib.sha256()
    outcomes = Counter()
    for seed in range(CASES):
        family, (q, c, s, v) = problem(seed)
        d = DomainBound(extra_values=1, max_facts_total=len(v.facts) + 5, space_ceiling=5e4)
        for kind in ("pqi", "nqi", "realizable", "owq"):
            got = ask(kind, q, c, s, v, d)
            outcomes[got[0]] += 1
            digest.update(f"{seed} {family} {kind} {got!r}\n".encode())
    got = digest.hexdigest()
    print(f"oracle-digest: {got} true={outcomes[True]} false={outcomes[False]} "
          f"too-large={outcomes['too large']}")
    if got != PINNED:
        print(f"oracle-digest: expected {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
