"""Differential harnesses checking each problem reduction against the
brute-force enumerator (or an exact decision method) on random inputs.

Each function takes an iterable of seeds and returns (checked, skipped);
any semantic disagreement raises AssertionError.  Skips happen when the
bounded enumerator's search space exceeds its ceiling or a method cannot
settle the instance, never on a disagreement.
"""
from __future__ import annotations

import random
from typing import Iterable, Tuple

from dqi.chase import ChaseBudget
from dqi.core import Atom, ClassError, Const, Instance, UCQ, Var, eval_ucq, find_homomorphisms, satisfies
from dqi.deciders import (
    decide_exists_nqi,
    decide_pqi,
    decide_exists_pqi,
    decide_nqi,
    decide_owq,
    decide_realizable,
)
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
    random_id_constraints,
    random_id_problem,
    random_linear_problem,
    random_schema,
    random_visible_instance,
)
from dqi.reductions import (
    EXISTS_NQI,
    EXISTS_PQI,
    NQI,
    OWQ,
    PQI,
    ProblemInstance,
    REALIZABILITY,
    constant_encoding_lift,
    disj_to_constants,
    exists_nqi_to_owq,
    nqi_to_realizability,
    owq_to_exists_pqi,
    owq_to_pqi,
    pqi_to_nqi,
    realizability_to_nqi,
    ucq_to_cq,
)

BUDGET = ChaseBudget(10000, 2000, 200)


def instance_hom_exists(source: Instance, target: Instance) -> bool:
    """Is there a homomorphism source -> target fixing constants?"""
    atoms = [Atom(f.relation, tuple(v if isinstance(v, Const) else Var(f"n_{v.id}") for v in f.args))
             for f in source.sorted_facts()]
    for _ in find_homomorphisms(atoms, target):
        return True
    return False


def _bound(v, extra_facts=6, ceiling=3e5):
    """A fact budget leaving headroom above the instance's own size, so the
    enumerator can always place hidden facts regardless of how large the
    encoded instance starts out."""
    return DomainBound(extra_values=1, max_facts_total=len(v.facts) + extra_facts,
                       space_ceiling=ceiling)

Stats = Tuple[int, int]


def _pqi_problem(rng: random.Random, disjuncts: int = 1,
                 max_relations: int = 3, density: float = 0.3) -> ProblemInstance:
    s = random_schema(rng, max_relations=max_relations)
    c = random_id_constraints(rng, s)
    qs = [random_boolean_query(rng, s) for _ in range(disjuncts)]
    q = UCQ(tuple(d for query in qs for d in query.disjuncts))
    v = random_visible_instance(rng, s, density=density)
    return ProblemInstance(PQI, c, s, query=q, instance=v)


def diff_ucq_to_cq(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        p = _pqi_problem(rng, disjuncts=2, max_relations=2, density=0.25)
        out = ucq_to_cq(p)
        assert len(out.query.disjuncts) == 1
        # linear size: atoms grow by one per disjunct plus bounded overhead
        in_atoms = sum(len(d.atoms) for d in p.query.disjuncts)
        out_atoms = len(out.query.disjuncts[0].atoms)
        assert out_atoms <= 2 * in_atoms + 2 * len(p.query.disjuncts) + 2
        a = decide_pqi(p.query, p.constraints, p.schema, p.instance, BUDGET)
        b = decide_pqi(out.query, out.constraints, out.schema, out.instance, BUDGET)
        if a.value is None or b.value is None:
            skipped += 1
            continue
        assert a.value == b.value, (seed, a.value, b.value)
        checked += 1
    return checked, skipped


def diff_disj_to_constants_exact(seeds: Iterable[int]) -> Stats:
    """On constraint sets whose disjunctive rules only produce hidden atoms,
    the positive implication answers agree exactly at corresponding
    instances."""
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        q, c, s, v = random_linear_problem(rng, max_heads=2,
                                           hidden_disjunct_atoms=True)
        p = ProblemInstance(EXISTS_PQI, c, s, query=q)
        out = disj_to_constants(p)
        assert all(len(t.heads) == 1 for t in out.constraints.tgds)
        lifted = constant_encoding_lift(p, v)
        try:
            a = oracle_pqi(q, c, s, v, _bound(v))
            b = oracle_pqi(out.query, out.constraints, out.schema, lifted, _bound(lifted, extra_facts=5, ceiling=2e5))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        assert a.answer == b.answer, (seed, a.answer, b.answer)
        checked += 1
    return checked, skipped


def diff_disj_to_constants_forward(seeds: Iterable[int]) -> Stats:
    """In general (visible atoms inside disjuncts) a positive input answer
    still carries over to the lifted instance."""
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        q, c, s, v = random_linear_problem(rng, max_heads=2, adom=2)
        v = random_visible_instance(rng, s, adom=2, density=0.7)
        p = ProblemInstance(EXISTS_PQI, c, s, query=q)
        out = disj_to_constants(p)
        lifted = constant_encoding_lift(p, v)
        try:
            a = oracle_pqi(q, c, s, v, _bound(v))
            if a.answer is not True:
                skipped += 1
                continue
            b = oracle_pqi(out.query, out.constraints, out.schema, lifted, _bound(lifted, extra_facts=5, ceiling=2e5))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        assert b.answer is True, (seed,)
        checked += 1
    return checked, skipped


def diff_pqi_to_nqi(seeds: Iterable[int], connected: bool = False) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        p = _pqi_problem(rng)
        out = pqi_to_nqi(p, connected=connected)
        try:
            a = oracle_pqi(p.query, p.constraints, p.schema, p.instance, _bound(p.instance))
            b = oracle_nqi(out.query, out.constraints, out.schema, out.instance, _bound(out.instance, ceiling=2e6))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        assert a.answer == b.answer, (seed, a.answer, b.answer)
        checked += 1
    return checked, skipped


def diff_owq_to_pqi(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        s = random_schema(rng)
        c = random_id_constraints(rng, s)
        q = random_boolean_query(rng, s)
        f = random_visible_instance(rng, s, density=0.25)
        out = owq_to_pqi(q, c, f)
        try:
            a = oracle_owq(q, c, f, _bound(f))
            b = oracle_pqi(out.query, out.constraints, out.schema, out.instance, _bound(out.instance, extra_facts=5, ceiling=4e5))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        assert a.answer == b.answer, (seed, a.answer, b.answer)
        checked += 1
    return checked, skipped


def diff_owq_to_exists_pqi(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        s = random_schema(rng)
        c = random_id_constraints(rng, s)
        q = random_boolean_query(rng, s)
        f = random_visible_instance(rng, s, density=0.25)
        out = owq_to_exists_pqi(q, c, f)
        try:
            a = oracle_owq(q, c, f, _bound(f))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        try:
            b = decide_exists_pqi(out.query, out.constraints, out.schema, BUDGET)
        except ClassError:
            skipped += 1
            continue
        if b.value is None:
            skipped += 1
            continue
        assert a.answer == b.value, (seed, a.answer, b.value)
        checked += 1
    return checked, skipped


def diff_nqi_to_realizability(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        q, c, s, v = random_id_problem(rng)
        out = nqi_to_realizability(q, c, s, v)
        try:
            a = oracle_nqi(q, c, s, v, _bound(v))
            b = oracle_realizable(out.constraints, out.schema, out.instance, _bound(out.instance, ceiling=2e6))
        except SearchSpaceTooLarge:
            skipped += 1
            continue
        # the implication fails exactly when the flagged instance stays
        # realizable
        assert a.answer == (not b.answer), (seed, a.answer, b.answer)
        checked += 1
    return checked, skipped


def diff_realizability_to_nqi(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        s = random_schema(rng)
        c = random_id_constraints(rng, s)
        v = random_visible_instance(rng, s, density=0.3)
        out = realizability_to_nqi(c, s, v)
        a = decide_realizable(c, s, v, BUDGET)
        b = decide_nqi(out.query, out.constraints, out.schema, out.instance, BUDGET)
        if a.value is None or b.value is None:
            skipped += 1
            continue
        assert a.value == (not b.value), (seed, a.value, b.value)
        checked += 1
    return checked, skipped


def diff_exists_nqi_to_owq(seeds: Iterable[int]) -> Stats:
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        s = random_schema(rng)
        c = random_id_constraints(rng, s)
        q = random_boolean_query(rng, s)
        try:
            out = exists_nqi_to_owq(q, c, s)
        except ClassError:
            skipped += 1
            continue
        try:
            a = decide_exists_nqi(q, c, s, BUDGET)
        except ClassError:
            skipped += 1
            continue
        b = decide_owq(out.query, out.constraints, out.instance, BUDGET)
        if a.value is None or b.value is None:
            skipped += 1
            continue
        assert a.value == b.value, (seed, a.value, b.value)
        checked += 1
    return checked, skipped


ALL = {
    "ucq_to_cq": diff_ucq_to_cq,
    "disj_to_constants_exact": diff_disj_to_constants_exact,
    "disj_to_constants_forward": diff_disj_to_constants_forward,
    "pqi_to_nqi": diff_pqi_to_nqi,
    "owq_to_pqi": diff_owq_to_pqi,
    "owq_to_exists_pqi": diff_owq_to_exists_pqi,
    "nqi_to_realizability": diff_nqi_to_realizability,
    "realizability_to_nqi": diff_realizability_to_nqi,
    "exists_nqi_to_owq": diff_exists_nqi_to_owq,
}
