#!/usr/bin/env python3
"""Differential sweep of the six deciders against the bounded oracle.

The inputs have the shape of the benchmark's `decide_mix` workload: for
index i, generator seed `seed * 1_000_000 + i` gives a schema of at most
five relations of arity at most 2, inclusion dependencies on even indexes
and linear TGDs on odd ones, a Boolean query and a visible instance over
three values, and every decider runs under `ChaseBudget(500, 300, 60)`.

A decisive verdict without a witness is asked of the oracle in the one
direction where a bounded search can refute it, with one extra value and
three facts beyond the asked instance:

- PQI, NQI and OWQ True: a completion (for OWQ, a superset) where the
  query has the other value;
- realizability False: a completion that satisfies the constraints;
- existential NQI True: an NQI counterexample on the empty instance;
- existential PQI True: a PQI counterexample on the critical instance.

An oracle answer that comes with a witness is then a counterexample to the
verdict, and the sweep fails on it.  The other verdicts without a witness
(existential PQI False, OWQ False) cannot be refuted by a bounded search;
they are counted as unasked.

Most of those come from fact types, so a second sweep over the same inputs
(`fact_type_sweep`) checks every fact-type verdict against a chase that
saturates under the same budget: an existential PQI verdict against the
critical-instance chase, an OWQ verdict against the classical chase of the
visible instance.  Each chase step only adds facts or renames nulls, so a
query that holds where a chase stopped at its budget holds on the whole
chase; otherwise a chase that hits the budget leaves its verdict unchecked.
A verdict that disagrees with its chase fails the sweep.

    python3 scripts/oracle_sweep.py --seed 9001
"""
import argparse
import random
from collections import Counter
from typing import Tuple

from dqi.chase import SATURATED, ChaseBudget, chase_vis_critical, classical_chase
from dqi.core import ClassError, Const, Instance, critical_instance, eval_ucq
from dqi.deciders import (
    ClassExact,
    Witness,
    decide_exists_nqi,
    decide_exists_pqi,
    decide_nqi,
    decide_owq,
    decide_pqi,
    decide_realizable,
)
from dqi.oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi, oracle_owq, oracle_pqi, oracle_realizable
from dqi.problemgen import (
    random_boolean_query,
    random_id_constraints,
    random_linear_constraints,
    random_schema,
    random_visible_instance,
)

BUDGET = ChaseBudget(500, 300, 60)
CASES = 1650
SEED_STRIDE = 1_000_000


def inputs(gen_seed: int, linear: bool):
    """(q, c, s, v) of one generator seed, in `decide_mix`'s shape."""
    rng = random.Random(gen_seed)
    s = random_schema(rng, max_relations=5, max_arity=2)
    if linear:
        c = random_linear_constraints(rng, s, max_deps=5, max_heads=1)
    else:
        c = random_id_constraints(rng, s, max_deps=5)
    return random_boolean_query(rng, s), c, s, random_visible_instance(rng, s, adom=3)


def questions(q, c, s, v):
    """(decider, decide, refutable value, ask) for each decider: `decide`
    gives the verdict, and `ask` the oracle answer that can refute it when
    its value is the refutable one."""
    empty, critical = Instance(s), critical_instance(s, Const("a"))
    yield ("pqi", lambda: decide_pqi(q, c, s, v, BUDGET), True,
           lambda: oracle_pqi(q, c, s, v, bound(v)))
    yield ("nqi", lambda: decide_nqi(q, c, s, v, BUDGET), True,
           lambda: oracle_nqi(q, c, s, v, bound(v)))
    yield ("realizable", lambda: decide_realizable(c, s, v, BUDGET), False,
           lambda: oracle_realizable(c, s, v, bound(v)))
    yield ("owq", lambda: decide_owq(q, c, v, BUDGET), True,
           lambda: oracle_owq(q, c, v, bound(v)))
    yield ("exists_pqi", lambda: decide_exists_pqi(q, c, s, BUDGET), True,
           lambda: oracle_pqi(q, c, s, critical, bound(critical)))
    yield ("exists_nqi", lambda: decide_exists_nqi(q, c, s, BUDGET), True,
           lambda: oracle_nqi(q, c, s, empty, bound(empty)))


def bound(asked: Instance) -> DomainBound:
    return DomainBound(extra_values=1, max_facts_total=len(asked.facts) + 3)


def sweep(seed: int, cases: int = CASES) -> Tuple[Counter, Counter, Counter]:
    """Ask the oracle about every refutable verdict of the first `cases`
    inputs of `seed`; return the checked, unasked and too-large counts by
    decider, raising AssertionError on a refutation."""
    checked, unasked, too_large = Counter(), Counter(), Counter()
    for index in range(cases):
        gen_seed = seed * SEED_STRIDE + index
        for name, decide, refutable, ask in questions(*inputs(gen_seed, linear=index % 2 == 1)):
            try:
                verdict = decide()
            except ClassError:
                continue
            if verdict.value is None or isinstance(verdict.certificate, Witness):
                continue
            if verdict.value is not refutable:
                unasked[name] += 1
                continue
            try:
                answer = ask()
            except SearchSpaceTooLarge:
                too_large[name] += 1
                continue
            if answer.witness is not None:
                raise AssertionError(f"{name}/{gen_seed}: verdict {verdict.value} refuted by "
                                     f"{answer.witness.sorted_facts()}")
            checked[name] += 1
    return checked, unasked, too_large


# the certificates of the fact-type verdicts, by decider
FACT_TYPES = {"exists_pqi": ClassExact("fact types over the critical instance"),
              "owq": ClassExact("fact-type reachability")}


def fact_type_sweep(seed: int, cases: int = CASES) -> Tuple[Counter, Counter]:
    """Check every fact-type verdict of the first `cases` inputs of `seed`
    against the chase it decides without running: the critical-instance
    chase for existential PQI, the classical chase of the visible instance
    for OWQ.  Return the checked counts and the counts left unchecked
    because the chase neither saturated under `BUDGET` nor satisfied the
    query, by decider, raising AssertionError on a disagreement."""
    checked, unsaturated = Counter(), Counter()
    for index in range(cases):
        gen_seed = seed * SEED_STRIDE + index
        q, c, s, v = inputs(gen_seed, linear=index % 2 == 1)
        for name, decide, chase in (
                ("exists_pqi", lambda: decide_exists_pqi(q, c, s, BUDGET),
                 lambda: chase_vis_critical(c, s, Const("a"), BUDGET)),
                ("owq", lambda: decide_owq(q, c, v, BUDGET), lambda: classical_chase(v, c, BUDGET))):
            try:
                verdict = decide()
            except ClassError:
                continue
            if verdict.certificate != FACT_TYPES[name]:
                continue
            res = chase()
            holds = eval_ucq(q, res.instance) is True
            if not holds and res.status != SATURATED:
                unsaturated[name] += 1
                continue
            if verdict.value is not holds:
                raise AssertionError(f"{name}/{gen_seed}: fact types say {verdict.value}, "
                                     f"the saturated chase disagrees")
            checked[name] += 1
    return checked, unsaturated


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    ap.add_argument("--cases", type=int, default=CASES, help=f"inputs (default {CASES})")
    args = ap.parse_args()
    checked, unasked, too_large = sweep(args.seed, args.cases)

    def counts(c: Counter) -> str:
        return " ".join(f"{name}={n}" for name, n in sorted(c.items()))

    print(f"oracle-sweep: seed={args.seed} checked={sum(checked.values())} ({counts(checked)}) "
          f"unasked={sum(unasked.values())} ({counts(unasked)}) "
          f"too_large={sum(too_large.values())} refutations=0")
    checked, unsaturated = fact_type_sweep(args.seed, args.cases)
    print(f"fact-type-sweep: seed={args.seed} checked={sum(checked.values())} ({counts(checked)}) "
          f"unsaturated={sum(unsaturated.values())} ({counts(unsaturated)}) disagreements=0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
