"""End-to-end acceptance gate: fixture behaviour, randomized differentials
against the brute-force enumerator, the reachability family, collapse
properties, reduction soundness, chase universality, and a certificate
audit over every decisive verdict produced here.  Each test states its
tolerance (agreement counts, wall-clock limits) inline."""
import itertools
import random
import time

import differentials as D
from differentials import instance_hom_exists
from dqi.chase import (
    BUDGET_CUT,
    ChaseBudget,
    decide_pqi_critical_linear,
    visible_chase,
)
from dqi.core import (
    ClassError,
    Const,
    Fact,
    Instance,
    critical_instance,
    eval_ucq,
    satisfies,
)
from dqi.deciders import (
    ChaseExhausted,
    ClassExact,
    Witness,
    decide_exists_nqi,
    decide_exists_pqi,
    decide_nqi,
    decide_owq,
    decide_pqi,
)
from dqi.gfp import nqi_gfp_detail, transform_adom
from dqi.oracle import DomainBound, SearchSpaceTooLarge, _models, oracle_nqi, oracle_pqi
from dqi.problemgen import (
    bfs_reachable,
    random_boolean_query,
    random_digraph,
    random_id_constraints,
    random_id_problem,
    random_linear_constraints,
    random_schema,
    reachability_problem,
)
from dqi.reductions import exists_nqi_to_owq

BUDGET = ChaseBudget(10000, 2000, 200)

# decisive verdicts produced by the tests below, re-validated at the end
RECORDED = []


def record(verdict, q, c, v):
    RECORDED.append((verdict, q, c, v))
    return verdict


# ---------------------------------------------------------------------------
# 1. medical fixture: empty roster refutes, one patient does not certify


def test_accept_1_medical_fixture(medical):
    q, c, s = medical.queries["Q"], medical.constraints, medical.schema
    t0 = time.perf_counter()
    r_empty = record(decide_nqi(q, c, s, medical.instances["Vempty"], BUDGET),
                     q, c, medical.instances["Vempty"])
    r_smith = record(decide_pqi(q, c, s, medical.instances["Vsmith"], BUDGET),
                     q, c, medical.instances["Vsmith"])
    elapsed = time.perf_counter() - t0
    assert r_empty.value is True
    assert r_smith.value is False
    w = r_smith.certificate
    assert isinstance(w, Witness)
    assert satisfies(c, w.instance)
    assert w.instance.visible().facts == medical.instances["Vsmith"].facts
    assert eval_ucq(q, w.instance) is not True
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. separation fixture: implied on completions yet not open-world certain


def test_accept_2_separation_fixture(separation):
    q, c, s = separation.queries["Q"], separation.constraints, separation.schema
    v = separation.instances["V"]
    t0 = time.perf_counter()
    r_pqi = record(decide_pqi(q, c, s, v, BUDGET), q, c, v)
    r_owq = record(decide_owq(q, c, v, BUDGET), q, c, None)
    elapsed = time.perf_counter() - t0
    assert r_pqi.value is True
    assert r_owq.value is False
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. controllability fixture: the witness needs a value outside the visible
#    active domain, and the selected-attribute rewriting makes a k=0
#    enumeration find it


def test_accept_3_adom_controllability_fixture(controllability):
    q, c, s = (controllability.queries["Q"], controllability.constraints,
               controllability.schema)
    v = controllability.instances["V"]
    r = record(decide_nqi(q, c, s, v, BUDGET), q, c, v)
    assert r.value is False
    w = r.certificate
    assert isinstance(w, Witness)
    a = Const("a")
    r_facts = w.instance.facts_of("R")
    assert set(w.instance.facts_of("S")) == {Fact("S", (a,))}
    assert not w.instance.facts_of("T")
    assert any(f.args[0] == a and f.args[1] != a for f in r_facts)

    k0 = DomainBound(extra_values=0, max_facts_total=10)
    untouched = oracle_nqi(q, c, s, v, k0)
    assert untouched.answer is True and untouched.witness is None

    tr = transform_adom(q, c, s)
    moved = oracle_nqi(tr.query, tr.constraints, tr.schema, Instance(tr.schema, v.facts), k0)
    assert moved.answer is False and moved.witness is not None


# ---------------------------------------------------------------------------
# 4. greatest-fixpoint evaluation vs the enumerator on 200 random
#    inclusion-dependency problems, under two minutes


def test_accept_4_gfp_vs_oracle_differential():
    t0 = time.perf_counter()
    seed = checked = 0
    while checked < 200:
        rng = random.Random(40_000 + seed)
        seed += 1
        q, c, s, v = random_id_problem(rng, adom=3)
        if not v.facts:
            continue  # k=0 on an empty domain has nothing to enumerate
        try:
            ans, witness, _ = nqi_gfp_detail(q, c, s, v)
        except ClassError:
            continue
        try:
            o = oracle_nqi(q, c, s, v,
                           DomainBound(extra_values=0,
                                       max_facts_total=len(v.facts) + 6,
                                       space_ceiling=3e5))
        except SearchSpaceTooLarge:
            continue
        assert ans == o.answer, (seed - 1, ans, o.answer)
        if witness is not None:
            assert satisfies(c, witness)
            assert witness.visible().facts == v.facts
            assert eval_ucq(q, witness) is True
        checked += 1
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 5. reachability family: refutability of the path query tracks graph
#    reachability on 50 random digraphs, under one minute


def test_accept_5_reachability_family():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = random.Random(50_000 + seed)
        nodes, edges, source, target = random_digraph(rng, max_nodes=8)
        q, c, s, v = reachability_problem(nodes, edges, source, target)
        r = record(decide_nqi(q, c, s, v, BUDGET), q, c, v)
        expected = not bfs_reachable(nodes, edges, source, target)
        assert r.value is expected, (seed, r.value, expected)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. critical-instance collapse for constant-free linear constraints


def test_accept_6_critical_instance_collapse():
    seed = checked = 0
    while checked < 50:
        assert seed < 1000, "generator starved before 50 comparable cases"
        rng = random.Random(60_000 + seed)
        seed += 1
        s = random_schema(rng)
        c = random_linear_constraints(rng, s, max_deps=2, max_heads=1)
        q = random_boolean_query(rng, s)
        v_a = critical_instance(s, Const("a"))
        try:
            e = decide_exists_pqi(q, c, s, BUDGET)
            p = decide_pqi(q, c, s, v_a, BUDGET)
            g = decide_pqi_critical_linear(q, c, s)
        except ClassError:
            continue
        if e.value is None or p.value is None:
            continue
        try:
            o = oracle_pqi(q, c, s, v_a,
                           DomainBound(extra_values=1,
                                       max_facts_total=len(v_a.facts) + 6,
                                       space_ceiling=3e5))
        except SearchSpaceTooLarge:
            continue
        assert e.value == p.value, (seed - 1, e.value, p.value)
        assert g == o.answer, (seed - 1, g, o.answer)
        checked += 1


# ---------------------------------------------------------------------------
# 7. empty-instance collapse: schema-level refutability equals refutability
#    of the empty instance equals the open-world rephrasing


def test_accept_7_empty_instance_collapse():
    seed = checked = 0
    while checked < 50:
        assert seed < 1000, "generator starved before 50 comparable cases"
        rng = random.Random(70_000 + seed)
        seed += 1
        s = random_schema(rng)
        c = random_id_constraints(rng, s)
        q = random_boolean_query(rng, s)
        try:
            out = exists_nqi_to_owq(q, c, s)
            a = decide_exists_nqi(q, c, s, BUDGET)
        except ClassError:
            continue
        empty = Instance(s, frozenset())
        n = record(decide_nqi(q, c, s, empty, BUDGET), q, c, empty)
        w = decide_owq(out.query, out.constraints, out.instance, BUDGET)
        if None in (a.value, n.value, w.value):
            continue
        assert a.value == n.value == w.value, (seed - 1, a.value, n.value, w.value)
        checked += 1


# ---------------------------------------------------------------------------
# 8. reduction soundness: every reduction's differential harness agrees with
#    the reference method on 55 seeds, with a minimum number of decided cases


REDUCTION_FLOORS = {
    "ucq_to_cq": 50,
    "disj_to_constants_exact": 20,
    "disj_to_constants_forward": 10,
    "pqi_to_nqi": 50,
    "owq_to_pqi": 45,
    "owq_to_exists_pqi": 25,
    "nqi_to_realizability": 50,
    "realizability_to_nqi": 50,
    "exists_nqi_to_owq": 50,
}


def test_accept_8_reduction_differentials():
    for name, harness in D.ALL.items():
        checked, _skipped = harness(range(55))
        assert checked >= REDUCTION_FLOORS[name], (name, checked)


# ---------------------------------------------------------------------------
# 9. chase universality: every enumerated completion is reached
#    homomorphically from some settled branch of the visible chase


def test_accept_9_visible_chase_universality():
    seed = checked = 0
    while checked < 30:
        assert seed < 500, "generator starved before 30 comparable cases"
        rng = random.Random(90_000 + seed)
        seed += 1
        q, c, s, v = random_id_problem(rng)
        tree = visible_chase(c, s, v, ChaseBudget(300, 100, 50))
        if tree.by_status(BUDGET_CUT):
            continue
        leaves = tree.leaves()
        if not leaves:
            continue
        try:
            models = list(itertools.islice(
                _models(c, v, s,
                        DomainBound(extra_values=1,
                                    max_facts_total=len(v.facts) + 5,
                                    space_ceiling=2e5)), 5))
        except SearchSpaceTooLarge:
            continue
        if not models:
            continue
        for m in models:
            assert any(instance_hom_exists(leaf.instance, m) for leaf in leaves), \
                (seed - 1,)
        checked += 1


# ---------------------------------------------------------------------------
# 10. certificate audit: every decisive verdict recorded above re-validates


def test_accept_10_certificate_audit():
    assert len(RECORDED) >= 50, "earlier acceptance tests must run first"
    for verdict, q, c, v in RECORDED:
        if verdict.value is None:
            continue
        cert = verdict.certificate
        assert cert is not None
        if isinstance(cert, Witness):
            assert satisfies(c, cert.instance)
            if v is not None:
                assert cert.instance.visible().facts == v.facts
            assert (eval_ucq(q, cert.instance) is True) == cert.polarity
        else:
            assert isinstance(cert, (ChaseExhausted, ClassExact))
