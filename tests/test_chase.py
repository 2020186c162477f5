import hashlib
import itertools
import math
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from differentials import instance_hom_exists
from dqi import chase
from dqi.chase import (
    A_MARK,
    BUDGET,
    BUDGET_CUT,
    ChaseBudget,
    DUMMY,
    EGD_FAILURE,
    EXPANDED,
    LEAF,
    PRUNED,
    SATURATED,
    ChaseResult,
    FactType,
    TypeEdge,
    _patterns,
    canon_pattern,
    chase_vis_critical,
    classical_chase,
    decide_owq_atomic_linear,
    decide_pqi_critical_linear,
    fact_type_closure,
    visible_chase,
)
from dqi.core import (
    CONST_TAG,
    DISJ_TAG,
    Atom,
    Const,
    ConstraintSet,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    TGD,
    Var,
    Null,
    active_domain,
    boolean_ucq,
    eval_ucq,
    fact_key,
    find_homomorphisms,
    head_matches,
    map_instance,
    normalize_single_head,
    satisfies,
    value_key,
    value_name,
)
from dqi.deciders import ClassExact, decide_exists_pqi
from dqi.oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi, oracle_pqi
from dqi.problemgen import (
    random_boolean_query,
    random_id_constraints,
    random_id_problem,
    random_linear_constraints,
    random_schema,
    random_visible_instance,
)
from dqi.textio import parse

from conftest import load_fixture


def two_rel_schema():
    return Schema((RelationDecl("R", 2, True), RelationDecl("S", 1, True)))


def test_classical_chase_saturates_and_satisfies():
    s = two_rel_schema()
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),)),
    ))
    start = Instance(s, frozenset({Fact("R", (Const("a"), Const("b")))}))
    res = classical_chase(start, c, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert satisfies(c, res.instance)
    assert Fact("S", (Const("a"),)) in res.instance.facts


def test_classical_chase_reuses_satisfied_heads():
    s = two_rel_schema()
    c = ConstraintSet((
        TGD((Atom("S", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("R", (Var("x"), Var("y"))),)),)),
    ))
    start = Instance(s, frozenset({Fact("S", (Const("a"),)),
                                   Fact("R", (Const("a"), Const("b")))}))
    res = classical_chase(start, c, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert res.instance.facts == start.facts


def test_classical_chase_budget_exceeded_on_infinite_chase():
    s = two_rel_schema()
    # R(x,y) -> exists z. R(y,z): fresh null forever
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((Var("z"),), (Atom("R", (Var("y"), Var("z"))),)),)),
    ))
    start = Instance(s, frozenset({Fact("R", (Const("a"), Const("b")))}))
    res = classical_chase(start, c, ChaseBudget(100, 25, 200))
    assert res.status == BUDGET


def test_classical_chase_egd_failure():
    s = two_rel_schema()
    c = ConstraintSet((
        EGD((Atom("R", (Var("x"), Var("y"))),), Var("x"), Var("y")),
    ))
    start = Instance(s, frozenset({Fact("R", (Const("a"), Const("b")))}))
    res = classical_chase(start, c, ChaseBudget(100, 100, 20))
    assert res.status == EGD_FAILURE


def test_classical_chase_egd_merges_nulls():
    s = two_rel_schema()
    c = ConstraintSet((
        TGD((Atom("S", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("R", (Var("x"), Var("y"))),)),)),
        EGD((Atom("R", (Var("x"), Var("y"))), Atom("R", (Var("x"), Var("z")))),
            Var("y"), Var("z")),
    ))
    start = Instance(s, frozenset({Fact("S", (Const("a"),))}))
    res = classical_chase(start, c, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert len(res.instance.facts_of("R")) == 1


def test_classical_chase_is_universal_for_random_id_problems():
    # the chase result maps homomorphically into every bounded model
    checked = 0
    for seed in range(40):
        rng = random.Random(7_000 + seed)
        q, c, s, v = random_id_problem(rng)
        res = classical_chase(v, c, ChaseBudget(200, 60, 40))
        if res.status != SATURATED:
            continue
        from dqi.oracle import _models

        try:
            models = list(_models(c, v, s, DomainBound(extra_values=1, max_facts_total=8)))
        except SearchSpaceTooLarge:
            continue
        for m in models[:10]:
            assert instance_hom_exists(res.instance, m)
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# visible chase tree


def test_visible_chase_tree_statuses_and_trace(separation, budget):
    tree = visible_chase(separation.constraints, separation.schema,
                         separation.instances["V"], budget)
    leaves = tree.leaves()
    assert leaves, "a settled branch must exist"
    for leaf in leaves:
        assert satisfies(separation.constraints, leaf.instance)
        assert leaf.instance.visible().facts == separation.instances["V"].facts
    trace = tree.trace_tsv()
    assert trace.splitlines()[0] == "id\tparent\tstatus\tdepth\tstep"
    assert len(trace.splitlines()) == len(tree.nodes) + 1


def test_visible_chase_respects_node_budget(separation):
    tree = visible_chase(separation.constraints, separation.schema,
                         separation.instances["V"], ChaseBudget(2, 2000, 200))
    assert tree.by_status(BUDGET_CUT) or tree.leaves()
    assert len(tree.nodes) <= 2 + 2  # root, children, budget sentinels


def test_visible_chase_leaves_refute_pqi_exactly(medical, budget):
    # on the medical fixture the one-patient instance has a completion
    # whose appointment is with a different doctor, so some leaf or its
    # grounding must falsify the query
    q = medical.queries["Q"]
    tree = visible_chase(medical.constraints, medical.schema,
                         medical.instances["Vsmith"], budget)
    assert any(eval_ucq(q, leaf.instance) is not True for leaf in tree.leaves())


def test_chase_vis_critical_single_branch():
    s = two_rel_schema()
    c = ConstraintSet((
        TGD((Atom("S", (Var("x"),)),),
            (HeadDisjunct((), (Atom("R", (Var("x"), Var("x"))),)),)),
    ))
    res = chase_vis_critical(c, s, Const("a"), ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert satisfies(c, res.instance)
    assert Fact("R", (Const("a"), Const("a"))) in res.instance.facts


# ---------------------------------------------------------------------------
# exact critical-instance decision for linear constant-free constraints


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_decide_pqi_critical_linear_matches_bounded_search(seed):
    rng = random.Random(seed)
    s = random_schema(rng)
    c = random_linear_constraints(rng, s, max_deps=2, max_heads=1)
    from dqi.problemgen import random_boolean_query
    from dqi.core import ClassError, critical_instance

    q = random_boolean_query(rng, s)
    try:
        got = decide_pqi_critical_linear(q, c, s)
    except ClassError:
        return
    v_a = critical_instance(s, Const("a"))
    try:
        exp = oracle_pqi(q, c, s, v_a, DomainBound(extra_values=1, max_facts_total=9))
    except SearchSpaceTooLarge:
        return
    if got:
        assert exp.answer is True
    else:
        # a refutation within the bound is exact; outside it the bounded
        # oracle cannot disagree in this direction
        pass
    if exp.answer is False:
        assert got is False


def test_decide_pqi_critical_linear_agrees_with_the_saturated_critical_chase():
    answers = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(seed)
        s = random_schema(rng, max_relations=4, max_arity=3)
        c = random_linear_constraints(rng, s, max_deps=4)
        q = random_boolean_query(rng, s, max_atoms=4)
        res = chase_vis_critical(c, s, Const("a"), ChaseBudget(max_depth=60))
        if res.status != SATURATED:
            continue
        got = decide_pqi_critical_linear(q, c, s)
        assert got is (eval_ucq(q, res.instance) is True), seed
        answers[got] += 1
    assert answers[True] >= 100 and answers[False] >= 100


def test_fact_type_closure_forces_through_a_hidden_fact_and_collapses():
    # V(a) gives H(a, n); H copies n into the hidden G, and G into the
    # visible W, so grounding forces n to a: H's stable type is H(a, a),
    # which enables the repeated-variable body H(x, x).  J's null is never
    # copied into a visible fact and stays a group.
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 2, False), RelationDecl("G", 1, False),
                RelationDecl("K", 1, False), RelationDecl("J", 2, False)))
    x, y = Var("x"), Var("y")

    def tgd(body, head, exist=()):
        return TGD((body,), (HeadDisjunct(exist, (head,)),))

    c = ConstraintSet((
        tgd(Atom("V", (x,)), Atom("H", (x, y)), (y,)),
        tgd(Atom("H", (x, y)), Atom("G", (y,))),
        tgd(Atom("G", (x,)), Atom("W", (x,))),
        tgd(Atom("H", (x, x)), Atom("K", (x,))),
        tgd(Atom("V", (x,)), Atom("J", (x, y)), (y,)),
    ))
    closure = fact_type_closure(c, s)
    v, w, g, k = (FactType(r, (A_MARK,)) for r in "VWGK")
    h, j = FactType("H", (A_MARK, A_MARK)), FactType("J", (A_MARK, 1))
    assert closure.reachable == {v, w, h, g, k, j}
    assert closure.edges == {
        v: [TypeEdge(v, 0, h, ()), TypeEdge(v, 4, j, ())],
        h: [TypeEdge(h, 1, g, ()), TypeEdge(h, 3, k, ())],
        g: [TypeEdge(g, 2, w, ())],
    }
    a = Const("a")
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert res.instance.facts_of("H") == (Fact("H", (a, a)),)
    assert decide_pqi_critical_linear(boolean_ucq([Atom("K", (x,))]), c, s)
    assert not decide_pqi_critical_linear(boolean_ucq([Atom("J", (x, x))]), c, s)


def _reference_fact_type_closure(c, s):
    """The stable types of every pattern of every relation, by sweeps over
    all of them until none changes, then the closure from the critical
    instance: the all-types pass that the demand-driven solver replaced."""
    linear = chase._linear_tgds(c)
    types = [FactType(r.name, pat) for r in s.relations for pat in _patterns(r.arity)]
    stable = {t: t for t in types}
    changed = True
    while changed:
        changed = False
        for t in types:
            st = stable[t]
            forced = set()
            for _, dep in linear.get(st.relation, ()):
                res = chase._apply_linear(dep, st)
                if res is None:
                    continue
                target, corr = res
                if s.decl(target.relation).visible:
                    forced.update(g for g, _ in corr)
                else:
                    marked = {raw for raw, e in zip(target.pattern, stable[target].pattern) if e == A_MARK}
                    forced.update(g for g, g2 in corr if g2 in marked)
            if forced:
                entries = [A_MARK if e in forced else e for e in st.pattern]
                stable[t] = stable[FactType(st.relation, canon_pattern(entries))]
                changed = True
    roots = [FactType(r.name, (A_MARK,) * r.arity) for r in s.visible_relations]
    return chase._reach(linear, roots, stable.__getitem__)


def random_linear_set(rng):
    """A constant-free linear set over relations of arity up to 4, with a
    two-atom head on half the seeds, split by `normalize_single_head` into
    its auxiliary relations."""
    s = random_schema(rng, max_relations=4, max_arity=4)
    c = random_linear_constraints(rng, s, max_deps=4)
    if rng.random() < 0.5:
        first, second = rng.choice(c.tgds), rng.choice(c.tgds)
        frontier = set(first.body[0].args)
        head = first.heads[0]
        extra = second.heads[0].atoms[0]
        renamed = Atom(extra.relation, tuple(v if v in frontier or v in head.exist_vars else Var("z" + v.name)
                                             for v in extra.args))
        exist = tuple(dict.fromkeys((*head.exist_vars, *(v for v in renamed.args if v.name[0] == "z"))))
        c = ConstraintSet((*c.tgds, TGD(first.body, (HeadDisjunct(exist, (*head.atoms, renamed)),))))
        c, s = normalize_single_head(c, s)
    return c, s


def test_demanded_stable_types_and_the_query_join_match_the_all_types_pass():
    # the join is checked on queries of up to four atoms over four
    # variables, drawn from the relations of the reachable types
    qvars = [Var(f"q{i}") for i in range(4)]
    auxiliary = forced = joins = 0
    for seed in range(400):
        rng = random.Random(seed)
        c, s = random_linear_set(rng)
        auxiliary += any(r.name.startswith("_aux_h") for r in s.relations)
        closure = fact_type_closure(c, s)
        reachable, edges = _reference_fact_type_closure(c, s)
        assert closure.reachable == reachable and closure.edges == edges, seed
        roots = [FactType(r.name, (A_MARK,) * r.arity) for r in s.visible_relations]
        forced += chase._reach(chase._linear_tgds(c), roots, lambda t: t)[0] != reachable
        relations = sorted({t.relation for t in reachable})
        for _ in range(5):
            atoms = [Atom(r, tuple(rng.choice(qvars) for _ in range(s.decl(r).arity)))
                     for r in (rng.choice(relations) for _ in range(rng.randint(1, 4)))]
            variables = list(dict.fromkeys(v for a in atoms for v in a.args))
            joined = list(chase._reachable_patterns(atoms, variables, closure.reachable))
            filtered = [p for p in _patterns(len(variables))
                        if all(FactType(a.relation, canon_pattern([dict(zip(variables, p))[v] for v in a.args]))
                               in reachable for a in atoms)]
            assert len(joined) == len(set(joined)) and set(joined) == set(filtered), seed
            joins += len(joined) > 1
    assert auxiliary >= 150 and forced >= 80 and joins >= 200


def test_exists_pqi_answers_a_nine_ary_hidden_relation_quickly():
    # V(x) -> exists y1..y8. H(x, y1, .., y8): the critical chase holds
    # V(a) and one H fact with eight distinct nulls
    xs = [Var(f"x{i}") for i in range(9)]
    ys = tuple(Var(f"y{i}") for i in range(1, 9))
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 9, False)))
    c = ConstraintSet((TGD((Atom("V", (xs[0],)),), (HeadDisjunct(ys, (Atom("H", (xs[0], *ys)),)),)),))
    for args, expected in ((xs, True), ([xs[0], xs[0], *xs[2:]], False)):
        start = time.perf_counter()
        verdict = decide_exists_pqi(boolean_ucq([Atom("H", tuple(args))]), c, s, ChaseBudget())
        assert time.perf_counter() - start < 2.0
        assert verdict.value is expected
        assert verdict.certificate == ClassExact("fact types over the critical instance")


# ---------------------------------------------------------------------------
# step budgets, tripwires and forced groundings of the single-branch chases


def chain_constraints(names):
    """P0(x) -> P1(x), P1(x) -> P2(x), ...: one chase step per link."""
    return ConstraintSet(tuple(
        TGD((Atom(a, (Var("x"),)),), (HeadDisjunct((), (Atom(b, (Var("x"),)),)),))
        for a, b in zip(names, names[1:])
    ))


def test_classical_chase_step_budget_is_exact():
    names = ["P0", "P1", "P2", "P3"]
    s = Schema(tuple(RelationDecl(n, 1, True) for n in names))
    c = chain_constraints(names)
    start = Instance(s, frozenset({Fact("P0", (Const("a"),))}))
    everything = {Fact(n, (Const("a"),)) for n in names}
    res = classical_chase(start, c, ChaseBudget(100, 100, 3))
    assert res.status == SATURATED
    assert res.instance.facts == everything
    # the third step is one too many; the result holds what it produced
    res = classical_chase(start, c, ChaseBudget(100, 100, 2))
    assert res.status == BUDGET
    assert res.instance.facts == everything


def test_critical_chase_step_budget_is_exact():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H1", 1, False),
                RelationDecl("H2", 1, False), RelationDecl("H3", 1, False)))
    c = chain_constraints(["V", "H1", "H2", "H3"])
    a = Const("a")
    everything = {Fact(n, (a,)) for n in ("V", "H1", "H2", "H3")}
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 3))
    assert res.status == SATURATED
    assert res.instance.facts == everything
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 2))
    assert res.status == BUDGET
    assert res.instance.facts == everything


def test_classical_chase_tripwire_reports_whether_the_instance_is_saturated():
    names = ["P0", "P1", "P2"]
    s = Schema(tuple(RelationDecl(n, 1, True) for n in names))
    c = chain_constraints(names)
    start = Instance(s, frozenset({Fact("P0", (Const("a"),))}))

    def holds(name):
        return boolean_ucq([Atom(name, (Var("x"),))])

    # P1 appears after one step, while P1 -> P2 is still unmet
    res = classical_chase(start, c, ChaseBudget(100, 100, 20), tripwire=holds("P1"))
    assert res.status == BUDGET
    assert res.instance.facts == {Fact("P0", (Const("a"),)), Fact("P1", (Const("a"),))}
    # P2 appears with the last step: the instance satisfies every constraint
    res = classical_chase(start, c, ChaseBudget(100, 100, 20), tripwire=holds("P2"))
    assert res.status == SATURATED
    assert satisfies(c, res.instance)
    assert len(res.instance.facts) == 3


def merge_after_a_pending_trigger():
    s = Schema((RelationDecl("S", 1, True), RelationDecl("R", 2, True),
                RelationDecl("T", 2, False), RelationDecl("U", 2, False)))
    c = ConstraintSet((
        TGD((Atom("S", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("T", (Var("x"), Var("y"))),)),)),
        EGD((Atom("T", (Var("x"), Var("y"))), Atom("R", (Var("x"), Var("w")))), Var("y"), Var("w")),
        TGD((Atom("T", (Var("x"), Var("y"))),),
            (HeadDisjunct((Var("z"),), (Atom("U", (Var("y"), Var("z"))),)),)),
    ))
    return s, c


def test_classical_chase_pending_triggers_follow_an_egd_merge():
    s, c = merge_after_a_pending_trigger()
    a, b = Const("a"), Const("b")
    start = Instance(s, frozenset({Fact("S", (a,)), Fact("R", (a, b))}))
    # the U trigger on T(a, ?1) is queued before the merge ?1 -> b and
    # must fire on T(a, b), never on the merged-away null
    res = classical_chase(start, c, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert {f for f in res.instance.facts if f.relation != "U"} == {
        Fact("S", (a,)), Fact("R", (a, b)), Fact("T", (a, b))}
    assert [f.args[0] for f in res.instance.facts_of("U")] == [b]


def test_critical_chase_egd_merges_a_null_into_the_critical_value():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 2, False)))
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("H", (Var("x"), Var("y"))),)),)),
        EGD((Atom("H", (Var("x"), Var("y"))),), Var("x"), Var("y")),
    ))
    a = Const("a")
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert res.instance.facts == {Fact("V", (a,)), Fact("H", (a, a))}


def test_critical_chase_grounds_a_visible_heads_fresh_null_to_the_critical_value():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 2, True),
                RelationDecl("H", 1, False)))
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("W", (Var("x"), Var("y"))),
                                        Atom("H", (Var("y"),)))),)),
    ))
    a = Const("a")
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert res.instance.facts == {Fact("V", (a,)), Fact("W", (a, a)), Fact("H", (a,))}


def grounding_after_a_pending_trigger():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 2, False), RelationDecl("G", 2, False)))
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("H", (Var("x"), Var("y"))),)),)),
        TGD((Atom("H", (Var("x"), Var("y"))),), (HeadDisjunct((), (Atom("W", (Var("y"),)),)),)),
        TGD((Atom("H", (Var("x"), Var("y"))),),
            (HeadDisjunct((Var("z"),), (Atom("G", (Var("y"), Var("z"))),)),)),
    ))
    return s, c


def test_critical_chase_grounds_an_older_null_under_its_pending_triggers():
    s, c = grounding_after_a_pending_trigger()
    a = Const("a")
    # W(?1) grounds ?1 to a after the G trigger on H(a, ?1) was queued
    res = chase_vis_critical(c, s, a, ChaseBudget(100, 100, 20))
    assert res.status == SATURATED
    assert {f for f in res.instance.facts if f.relation != "G"} == {
        Fact("V", (a,)), Fact("W", (a,)), Fact("H", (a, a))}
    assert [f.args[0] for f in res.instance.facts_of("G")] == [a]


# ---------------------------------------------------------------------------
# step labels of the visible chase tree


def steps_of(tree):
    return [line.split("\t")[4] for line in tree.trace_tsv().splitlines()[1:]]


def test_visible_chase_trace_labels_groundings_and_merges():
    from dqi.core import Null

    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 2, False)))
    a, b = Const("a"), Const("b")
    # a fresh visible null grounds to each visible value in turn
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("W", (Var("y"),)), Atom("H", (Var("x"), Var("y"))))),)),
    ))
    f0 = Instance(s, frozenset({Fact("V", (a,)), Fact("W", (a,)), Fact("W", (b,))}))
    tree = visible_chase(c, s, f0, ChaseBudget(100, 100, 20))
    assert steps_of(tree) == ["", "tgd#0/0 [?1->a]", "tgd#0/0 [?1->b]"]
    # an EGD merge that keeps the visible part opens a child
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("H", (Var("x"), Var("y"))),)),)),
        EGD((Atom("H", (Var("x"), Var("y"))),), Var("x"), Var("y")),
    ))
    tree = visible_chase(c, s, Instance(s, frozenset({Fact("V", (a,))})), ChaseBudget(100, 100, 20))
    assert steps_of(tree) == ["", "tgd#0/0", "egd#1 a=?1"]
    assert tree.nodes[2].status == LEAF
    assert tree.nodes[2].instance.facts == {Fact("V", (a,)), Fact("H", (a, a))}
    # an EGD merge of two visible values fails in one of two ways
    s2 = Schema((RelationDecl("V", 2, True),))
    c2 = ConstraintSet((EGD((Atom("V", (Var("x"), Var("y"))),), Var("x"), Var("y")),))
    tree = visible_chase(c2, s2, Instance(s2, frozenset({Fact("V", (a, b))})), ChaseBudget(100, 100, 20))
    assert steps_of(tree) == ["", "egd#0 a=b const-conflict"]
    assert tree.nodes[1].status == DUMMY
    tree = visible_chase(c2, s2, Instance(s2, frozenset({Fact("V", (a, Null(1)))})),
                         ChaseBudget(100, 100, 20))
    assert steps_of(tree) == ["", "egd#0 a=?1 visible-changed"]
    assert tree.nodes[1].status == DUMMY


def test_visible_chase_trace_labels_a_step_with_no_grounding():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 2, True)))
    c = ConstraintSet((
        TGD((Atom("V", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("W", (Var("x"), Var("y"))),)),)),
    ))
    tree = visible_chase(c, s, Instance(s, frozenset({Fact("V", (Const("a"),))})),
                         ChaseBudget(100, 100, 20))
    assert steps_of(tree) == ["", "tgd#0/0 no-grounding"]
    assert tree.nodes[1].status == DUMMY
    assert not tree.leaves()


# ---------------------------------------------------------------------------
# fact types: the pattern enumerator and exact atomic open-world answering


def test_patterns_enumerates_each_canonical_pattern_once():
    # a pattern of n positions gives n - m of them one of the k constants
    # and splits the other m into groups, one of Bell(m) set partitions
    bell = (1, 1, 2, 5, 15, 52)
    for constants in ((), (A_MARK,), (Const("k"), Const("m"))):
        k = len(constants)
        for n in range(6):
            pats = _patterns(n, constants)
            count = sum(math.comb(n, m) * k ** (n - m) * bell[m] for m in range(n + 1))
            assert len(pats) == count and len(set(pats)) == count
            assert all(len(p) == n and canon_pattern(p) == p for p in pats)
            assert all(e in constants or e >= 1 for p in pats for e in p)
    # the default pool is the critical value alone: Bell(n + 1) patterns
    for n, bell_next in enumerate((1, 2, 5, 15, 52, 203)):
        assert _patterns(n) == _patterns(n, (A_MARK,)) and len(_patterns(n)) == bell_next


def test_decide_owq_atomic_linear_agrees_with_the_saturated_chase():
    saturated = 0
    for seed in range(300):
        rng = random.Random(seed)
        s = random_schema(rng, max_relations=3, max_arity=3)
        c = random_linear_constraints(rng, s, max_deps=3)
        q = random_boolean_query(rng, s, max_atoms=1)
        dom = [Const("a"), Const("b")]
        facts = {Fact(r.name, tuple(rng.choice(dom) for _ in range(r.arity)))
                 for r in s.relations for _ in range(rng.randint(0, 2))}
        i = Instance(s, frozenset(facts))
        res = classical_chase(i, c, ChaseBudget(max_depth=60))
        if res.status != SATURATED:
            continue
        saturated += 1
        assert decide_owq_atomic_linear(q, c, i) is (eval_ucq(q, res.instance) is True), seed
    assert saturated >= 150


# ---------------------------------------------------------------------------
# semi-naive trigger discovery and the incremental query stop


DIFF_BUDGET = ChaseBudget(500, 300, 60)


def chase_record(q, c, s, v):
    """What the chases make of one problem: the visible chase tree without
    and with the query stop (trace, statuses and node facts), and the
    classical and critical chases, with and without it, where they apply."""
    def tree(prune):
        t = visible_chase(c, s, v, DIFF_BUDGET, prune=prune)
        return t.trace_tsv(), [(n.status, n.instance.facts) for _, n in sorted(t.nodes.items())]

    out = [tree(None), tree(q)]
    if DISJ_TAG not in c.tags:
        out += [classical_chase(v, c, DIFF_BUDGET), classical_chase(v, c, DIFF_BUDGET, tripwire=q)]
        if CONST_TAG not in c.tags:
            out.append(chase_vis_critical(c, s, Const("a"), DIFF_BUDGET))
    return out


HAND_BUILT = {
    # two nulls merge while triggers on the dropped one are queued; W grounds
    "merge-two-nulls": """dqi-1
schema { visible S/1; hidden R/2; hidden P/2; hidden G/2; visible W/1; }
constraints {
  S(x) -> exists y. R(x,y);
  S(x) -> exists y. P(x,y);
  P(x,y) -> R(x,y);
  R(x,y) & R(x,z) -> y = z;
  R(x,y) -> exists w. G(y,w);
  G(y,w) -> W(w);
}
query Q { exists x, y. P(x,y) & G(y,y) }
instance V { S(a). W(a). W(b). }
""",
    # the query first holds on a fact that a merge renamed
    "query-after-merge": """dqi-1
schema { visible S/1; hidden R/2; hidden T/1; }
constraints {
  S(x) -> exists y. R(x,y);
  R(x,y) -> T(y);
  R(x,y) & S(x) -> x = y;
}
query Q { exists x. R(x,x) & T(x) }
instance V { S(a). }
""",
    # a step adds two facts of one relation, and a later step completes
    # the query's last atom
    "two-facts-one-step": """dqi-1
schema { visible S/1; hidden R/2; hidden G/2; hidden T/1; }
constraints {
  S(x) -> exists y, z. R(x,y) & R(y,z);
  R(x,y) -> exists w. G(y,w);
  G(x,w) -> T(x);
}
query Q { exists x, y, z. R(x,y) & R(y,z) & T(z) }
instance V { S(a). S(b). }
""",
    # multi-atom bodies: a transitive closure that spawns nulls
    "multi-atom-bodies": """dqi-1
schema { visible E/2; hidden T/2; hidden P/2; }
constraints {
  E(x,y) -> T(x,y);
  T(x,y) & T(y,z) -> T(x,z);
  T(x,y) & E(y,x) -> exists w. P(x,w);
  P(x,w) & T(x,y) -> exists v. P(w,v);
}
query Q { exists x, w. P(x,w) & T(w,w) }
instance V { E(a,b). E(b,c). E(c,a). }
""",
}


def differential_cases():
    """(label, q, c, s, v): seeded inclusion-dependency and linear problems
    of the benchmark's shape, the fixtures, and hand-built merges,
    groundings and multi-atom bodies."""
    for seed in range(120):
        rng = random.Random(seed)
        s = random_schema(rng, max_relations=5, max_arity=2)
        if seed % 2:
            c = random_linear_constraints(rng, s, max_deps=5, max_heads=1)
        else:
            c = random_id_constraints(rng, s, max_deps=5)
        q = random_boolean_query(rng, s)
        yield f"seed{seed}", q, c, s, random_visible_instance(rng, s, adom=3)
    for name in ("medical.dqi", "separation.dqi", "controllability.dqi"):
        pf = load_fixture(name)
        for inst_name, v in sorted(pf.instances.items()):
            yield f"{name}/{inst_name}", pf.queries["Q"], pf.constraints, pf.schema, v
    for name, text in HAND_BUILT.items():
        pf = parse(text)
        yield name, pf.queries["Q"], pf.constraints, pf.schema, pf.instances["V"]
    a, b = Const("a"), Const("b")
    s, c = merge_after_a_pending_trigger()
    yield "egd-after-pending", boolean_ucq([Atom("U", (Var("x"), Var("y")))]), c, s, \
        Instance(s, frozenset({Fact("S", (a,)), Fact("R", (a, b))}))
    s, c = grounding_after_a_pending_trigger()
    yield "grounding-after-pending", boolean_ucq([Atom("G", (Var("x"), Var("x")))]), c, s, \
        Instance(s, frozenset({Fact("V", (a,)), Fact("W", (a,)), Fact("W", (b,))}))


def test_semi_naive_chase_matches_full_rematching(monkeypatch):
    cases = list(differential_cases())
    incremental = [chase_record(*case[1:]) for case in cases]
    # with no delta, every step rematches every body and the whole query
    monkeypatch.setattr(chase, "_delta", lambda last, instance: None)
    full = [chase_record(*case[1:]) for case in cases]
    for case, got, expected in zip(cases, incremental, full):
        assert got == expected, case[0]
    merged = [case[0] for case, record in zip(cases, incremental)
              if any("egd#" in line for line in record[0][0].splitlines())]
    assert {"merge-two-nulls", "query-after-merge", "egd-after-pending"} <= set(merged)


def chase_record_lines(record):
    """A `chase_record` as text that does not depend on the hash seed: each
    tree's trace and sorted node facts, each chase result's status and
    sorted facts."""
    for part in record:
        if isinstance(part, ChaseResult):
            yield f"{part.status} {part.instance.sorted_facts()!r}\n"
            continue
        trace, nodes = part
        yield trace
        for status, facts in nodes:
            yield f"{status} {sorted(facts, key=fact_key)!r}\n"


# sha256 of `chase_record_lines` over `differential_cases()`; the trees,
# trigger orders and chase results of multi-atom bodies, merges and
# groundings that the chase digest of `scripts/digest.py` does not reach
CHASE_RECORD_PIN = "544c5d2fc9a3bedb3a32af6ade90df7a4c02f742a288818c3ec97312b5aa1f74"


def test_chase_records_match_their_pin():
    h = hashlib.sha256()
    for label, q, c, s, v in differential_cases():
        h.update(f"{label}\n".encode())
        for line in chase_record_lines(chase_record(q, c, s, v)):
            h.update(line.encode())
    assert h.hexdigest() == CHASE_RECORD_PIN


def test_incremental_query_stop_agrees_with_eval_ucq_on_every_node():
    stops = 0
    for label, q, c, s, v in differential_cases():
        tree = visible_chase(c, s, v, DIFF_BUDGET)
        for node in tree.nodes.values():
            if node.parent is None:
                continue
            parent = tree.nodes[node.parent].instance
            if eval_ucq(q, parent) is True:
                continue  # the query stop never looks past a pruned node
            delta = chase._delta(parent, node.instance)
            holds = chase._query_holds(q, node.instance, delta)
            assert holds is (eval_ucq(q, node.instance) is True), (label, node.id)
            stops += holds
        pruned = visible_chase(c, s, v, DIFF_BUDGET, prune=q)
        for node in pruned.nodes.values():
            if node.status in (PRUNED, EXPANDED, LEAF):
                assert (node.status == PRUNED) is (eval_ucq(q, node.instance) is True), (label, node.id)
    assert stops >= 10


# ---------------------------------------------------------------------------
# chase children derived from their parent: match state and groundings


def test_derived_match_state_equals_a_fresh_one_on_every_node():
    derived = 0
    for label, q, c, s, v in differential_cases():
        tree = visible_chase(c, s, v, DIFF_BUDGET)
        for node in tree.nodes.values():
            inst = node.instance
            if node.parent is not None:
                parent_buckets = tree.nodes[node.parent].instance._match_state[0].values()
                derived += any(b is p for b in inst._match_state[0].values() for p in parent_buckets)
            fresh = Instance(s, inst.facts)
            assert inst._match_state[0] == fresh._match_state[0], (label, node.id)
            for dep in c.dependencies:
                homs = list(find_homomorphisms(dep.body, inst))
                assert homs == list(find_homomorphisms(dep.body, fresh)), (label, node.id)
                for h in homs:
                    for disjunct in getattr(dep, "heads", ()):
                        assert list(head_matches(disjunct, h, inst)) == \
                            list(head_matches(disjunct, h, fresh)), (label, node.id)
            for d in q.disjuncts:
                assert list(find_homomorphisms(d.atoms, inst)) == \
                    list(find_homomorphisms(d.atoms, fresh)), (label, node.id)
    assert derived >= 100


def product_groundings(k_prime, new_facts, visible_part, schema):
    """`_grounding_children` as the product loop: every tuple of visible
    values for the new visible facts' nulls, the whole instance mapped."""
    new_visible = [f for f in new_facts if schema.decl(f.relation).visible]
    if not new_visible:
        return [(k_prime, "", {})]
    adom_v = sorted(active_domain(visible_part), key=value_key)
    move = []
    for f in new_visible:
        for v in f.args:
            if isinstance(v, Null) and v not in move:
                move.append(v)
            if isinstance(v, Const) and v not in active_domain(visible_part):
                return []
    out, seen = [], set()
    for combo in itertools.product(adom_v, repeat=len(move)):
        g = dict(zip(move, combo))
        image = map_instance(k_prime, g)
        if image.visible().facts == visible_part.facts and image.facts not in seen:
            seen.add(image.facts)
            desc = ",".join(f"?{n.id}->{value_name(val)}" for n, val in zip(move, combo))
            out.append((image, desc, g))
    return out


def groundings_of(children):
    return [(image.facts, desc, g) for image, desc, g in children]


def test_grounding_children_agree_with_the_product_loop_on_seeded_trees(monkeypatch):
    calls = []

    def checked(k_prime, new_facts, visible_part, schema):
        got = grounding_children(k_prime, new_facts, visible_part, schema)
        expected = product_groundings(k_prime, new_facts, visible_part, schema)
        assert groundings_of(got) == groundings_of(expected)
        calls.append(len(got))
        return got

    grounding_children = chase._grounding_children
    monkeypatch.setattr(chase, "_grounding_children", checked)
    for label, q, c, s, v in differential_cases():
        visible_chase(c, s, v, DIFF_BUDGET)
    assert len(calls) >= 100
    assert {0, 1, 2} <= set(calls), sorted(set(calls))


def test_grounding_children_agree_with_the_product_loop_on_hand_built_steps():
    s = Schema((RelationDecl("R", 2, True), RelationDecl("V", 1, True), RelationDecl("H", 2, False)))
    a, b, c = Const("a"), Const("b"), Const("c")
    n1, n2 = Null(1), Null(2)

    def children(visible_facts, hidden_facts, new_facts):
        visible_part = Instance(s, frozenset(visible_facts))
        k_prime = visible_part.with_facts(hidden_facts).with_facts(new_facts)
        got = chase._grounding_children(k_prime, new_facts, visible_part, s)
        assert groundings_of(got) == groundings_of(product_groundings(k_prime, new_facts, visible_part, s))
        return groundings_of(got)

    ab = [Fact("R", (a, b)), Fact("R", (b, a))]
    # a null-free visible fact: kept inside the visible part, dropped outside it
    assert [desc for _, desc, _ in children(ab, [], [Fact("R", (a, b))])] == [""]
    assert children(ab, [], [Fact("R", (a, a))]) == []
    # a constant outside the visible domain never matches
    assert children(ab, [], [Fact("R", (c, n1))]) == []
    # symmetric nulls: (a, b) and (b, a) give the same image, kept once
    [(facts, desc, g)] = children(ab, [], [Fact("R", (n1, n2)), Fact("R", (n2, n1))])
    assert facts == set(ab) and desc == "?1->a,?2->b" and g == {n1: a, n2: b}
    # the matcher binds ?2 first, yet the children come in product order
    got = children(ab + [Fact("R", (a, c)), Fact("V", (a,)), Fact("V", (b,)), Fact("V", (c,))],
                   [Fact("H", (n1, n2))], [Fact("V", (n1,)), Fact("R", (a, n2))])
    assert [desc for _, desc, _ in got] == [f"?1->{x},?2->{y}" for x in "abc" for y in "bc"]
    # a body-bound null shared with a hidden fact moves with it
    got = children(ab + [Fact("V", (a,))], [Fact("H", (c, n1))], [Fact("R", (a, n1))])
    assert [(desc, Fact("H", (c, b)) in facts) for facts, desc, _ in got] == [("?1->b", True)]
    # a visible part holding a null: mapping the null to a changes the
    # visible part, so only the identity survives
    visible = [Fact("R", (a, n1)), Fact("V", (a,)), Fact("V", (n1,))]
    assert [desc for _, desc, _ in children(visible, [], [Fact("V", (n1,))])] == ["?1->?1"]
    assert children(visible[:2], [], [Fact("V", (n1,))]) == []
    # ... also when every moved visible fact lands inside the visible part
    assert [desc for _, desc, _ in children(visible[1:], [], [Fact("V", (n1,))])] == ["?1->?1"]


# The critical chase saturates at four facts, but the fact-type graph has
# self-loops: a forest search that does not memoise its states meets the
# same states along exponentially many paths.
CYCLIC_TYPES = """dqi-1
schema { visible R0/2; hidden R1/2; visible R2/3; }
constraints {
  R1(x1,x0) -> R1(x1,x1); R1(x0,x1) -> R1(x0,x1); R1(x1,x0) -> exists y. R1(x1,y);
  R0(x0,x0) -> exists y. R1(y,x0); R0(x0,x1) -> R0(x0,x0); R0(x1,x0) -> exists y. R2(x0,y,x1);
}
query Q { exists q1, q2, q0. R0(q1,q2) & R1(q1,q1) & R1(q1,q2) & R0(q0,q0) & R2(q1,q2,q2) }
"""


def test_exists_pqi_on_a_cyclic_type_graph_answers_false():
    pf = parse(CYCLIC_TYPES)
    q, c, s = pf.queries["Q"], pf.constraints, pf.schema
    res = chase_vis_critical(c, s, Const("a"), ChaseBudget(100, 100, 20))
    assert res.status == SATURATED and len(res.instance.facts) == 4
    assert eval_ucq(q, res.instance) is False
    assert decide_pqi_critical_linear(q, c, s) is False
    verdict = decide_exists_pqi(q, c, s, ChaseBudget())
    assert verdict.value is False
    assert verdict.certificate == ClassExact("fact types over the critical instance")
