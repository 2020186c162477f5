import itertools
import random
from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi.core import (
    Atom,
    ClassError,
    Const,
    ConstraintSet,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    Var,
    active_domain,
    apply_hom,
    boolean_ucq,
    constant_names,
    eval_ucq,
    find_homomorphisms,
    fact_key,
    head_matches,
    match_fact,
    satisfies,
    support_lookup,
)
from dqi import gfp
from dqi.gfp import (
    MAX_COPIES,
    DatalogRule,
    GFPProgram,
    TransformTooLarge,
    _MaximalDatabase,
    _largest_model,
    _prune_unsupported,
    build_gfp_program,
    eval_gfp,
    nqi_gfp_detail,
    program_text,
    transform_adom,
)
from dqi.oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi
from dqi.problemgen import (
    random_digraph,
    random_id_problem,
    random_linear_problem,
    reachability_problem,
)


def test_medical_fixture_nqi_empty_instance(medical):
    ans, witness, _ = nqi_gfp_detail(medical.queries["Q"], medical.constraints,
                                  medical.schema, medical.instances["Vempty"])
    assert ans is True and witness is None


def test_medical_fixture_nqi_with_patient(medical):
    ans, witness, _ = nqi_gfp_detail(medical.queries["Q"], medical.constraints,
                                  medical.schema, medical.instances["Vsmith"])
    assert ans is False
    assert witness.visible().facts == medical.instances["Vsmith"].facts
    assert satisfies(medical.constraints, witness)
    assert eval_ucq(medical.queries["Q"], witness) is True


def test_controllability_fixture_needs_adom_transform(controllability):
    # R(x,y) -> S(x), R(x,x) -> T(): a query witness must use a value
    # outside the visible active domain, which the transform supplies
    ans, witness, _ = nqi_gfp_detail(controllability.queries["Q"],
                                  controllability.constraints,
                                  controllability.schema,
                                  controllability.instances["V"])
    assert ans is False
    assert satisfies(controllability.constraints, witness)
    assert eval_ucq(controllability.queries["Q"], witness) is True
    assert not witness.facts_of("T")


def test_program_text_lists_rules():
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 1, False)))
    c = ConstraintSet((
        TGD((Atom("H", (Var("x"),)),),
            (HeadDisjunct((), (Atom("R", (Var("x"),)),)),)),
    ))
    q = boolean_ucq([Atom("H", (Var("x"),))])
    p = build_gfp_program(q, c, s)
    text = program_text(p)
    assert "Goal" in text and ":-" in text
    assert p.goal == "Goal"


def test_eval_gfp_goal_reflects_fixpoint():
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 1, False)))
    # H(x) -> R(x): hidden facts are only allowed over visible R values
    c = ConstraintSet((
        TGD((Atom("H", (Var("x"),)),),
            (HeadDisjunct((), (Atom("R", (Var("x"),)),)),)),
    ))
    q = boolean_ucq([Atom("H", (Var("x"),))])
    p = build_gfp_program(q, c, s)
    goal_on, fix_on = eval_gfp(p, Instance(s, frozenset({Fact("R", (Const("a"),))})))
    goal_off, _ = eval_gfp(p, Instance(s, frozenset()))
    assert goal_on is True
    assert goal_off is False
    assert Fact("H", (Const("a"),)) in fix_on.facts


def test_gfp_fixpoint_is_a_model_when_goal_holds():
    for seed in range(40):
        rng = random.Random(3_000 + seed)
        q, c, s, v = random_id_problem(rng)
        try:
            ans, witness, _ = nqi_gfp_detail(q, c, s, v)
        except ClassError:
            continue
        if not ans:
            assert witness is not None
            assert witness.visible().facts == v.facts
            assert satisfies(c, witness)
            assert eval_ucq(q, witness) is True


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), linear=st.booleans())
def test_gfp_agrees_with_bounded_counterexample_search(seed, linear):
    rng = random.Random(seed)
    if linear:
        q, c, s, v = random_linear_problem(rng, max_heads=1)
    else:
        q, c, s, v = random_id_problem(rng)
    try:
        ans, witness, _ = nqi_gfp_detail(q, c, s, v)
    except ClassError:
        return
    if ans:
        # the method claims no completion satisfies the query: the bounded
        # enumerator must not find one
        try:
            found = oracle_nqi(q, c, s, v,
                               DomainBound(extra_values=2, max_facts_total=8,
                                           space_ceiling=3e5))
        except SearchSpaceTooLarge:
            return
        assert found.answer is True
    else:
        assert witness is not None
        assert witness.visible().facts == v.facts
        assert satisfies(c, witness)
        assert eval_ucq(q, witness) is True


def test_gfp_widening_the_query_union_is_monotone():
    # adding a disjunct can only turn a True negative implication False
    for seed in range(25):
        rng = random.Random(9_100 + seed)
        q, c, s, v = random_id_problem(rng, adom=2)
        rng2 = random.Random(seed + 77)
        from dqi.core import UCQ
        from dqi.problemgen import random_boolean_query

        extra = random_boolean_query(rng2, s)
        q2 = UCQ(q.disjuncts + extra.disjuncts)
        try:
            a1, _, _ = nqi_gfp_detail(q, c, s, v)
            a2, _, _ = nqi_gfp_detail(q2, c, s, v)
        except ClassError:
            continue
        if a2 is True:
            assert a1 is True, "a completion satisfying q also satisfies q or q'"


def test_transform_rejects_out_of_class_constraints():
    s = Schema((RelationDecl("R", 2, True), RelationDecl("H", 2, False)))
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("y"))), Atom("R", (Var("y"), Var("z")))),
            (HeadDisjunct((), (Atom("H", (Var("x"), Var("z"))),)),)),
    ))
    q = boolean_ucq([Atom("H", (Var("x"), Var("y")))])
    with pytest.raises(ClassError):
        nqi_gfp_detail(q, c, s, Instance(s, frozenset()))


def test_eval_gfp_deletion_cascades_down_a_chain():
    # P1 <- P2 <- ... <- P7 <- E with E = {a}: P7(b) is never a candidate,
    # so deleting P6(b) has to cascade through P5(b), ..., P1(b)
    names = [f"P{i}" for i in range(1, 8)]
    x = Var("x")
    rules = [
        DatalogRule(Atom("A", (x,)), (Atom("D", (x,)),)),
        DatalogRule(Atom(names[-1], (x,)), (Atom("A", (x,)), Atom("E", (x,)))),
        DatalogRule(Atom("Goal", ()), (Atom(names[0], (x,)),)),
    ] + [
        DatalogRule(Atom(lo, (x,)), (Atom("A", (x,)), Atom(hi, (x,))))
        for lo, hi in zip(names, names[1:])
    ]
    p = GFPProgram(
        extensional=frozenset({"D", "E"}),
        intensional=frozenset(names + ["A", "Goal"]),
        arities=tuple(sorted([(n, 1) for n in names + ["A", "D", "E"]] + [("Goal", 0)])),
        rules=tuple(rules),
        constants=frozenset(),
        goal="Goal",
    )
    a, b = Const("a"), Const("b")
    ext = Instance(
        Schema((RelationDecl("D", 1, True), RelationDecl("E", 1, True))),
        frozenset({Fact("D", (a,)), Fact("D", (b,)), Fact("E", (a,))}),
    )
    goal, fixpoint = eval_gfp(p, ext)
    assert goal is True
    assert fixpoint.facts == ext.facts | {
        Fact("A", (a,)), Fact("A", (b,)), Fact("Goal", ()),
    } | {Fact(n, (a,)) for n in names}


def test_largest_model_keeps_a_fact_until_its_last_disjunct_dies():
    # H(x) -> S(x) | T(x), S(x) -> U(x) -> P(x), T(x) -> W(x) -> Q(x):
    # H(b) loses S(b) (no P(b)) and lives on T(b) while Q(b) holds
    s = Schema(tuple(RelationDecl(n, 1, True) for n in "DPQ")
               + tuple(RelationDecl(n, 1, False) for n in "HSTUW"))
    x = Var("x")

    def tgd(body, *heads):
        return TGD((Atom(body, (x,)),),
                   tuple(HeadDisjunct((), (Atom(h, (x,)),)) for h in heads))

    c = ConstraintSet((tgd("H", "S", "T"), tgd("S", "U"), tgd("U", "P"),
                       tgd("T", "W"), tgd("W", "Q")))
    q = boolean_ucq([Atom("H", (x,))])
    a, b = Const("a"), Const("b")
    base = {Fact("D", (a,)), Fact("D", (b,)), Fact("P", (a,))}
    kept_by_a = {Fact(n, (a,)) for n in "HSU"}

    one_left = _largest_model(q, c, s, Instance(s, frozenset(base | {Fact("Q", (b,))})))
    assert one_left is not None
    hidden = {f for f in one_left.facts if f.relation in "HSTUW"}
    assert hidden == kept_by_a | {Fact(n, (b,)) for n in "HTW"}

    none_left = _largest_model(q, c, s, Instance(s, frozenset(base)))
    assert none_left is not None
    assert {f for f in none_left.facts if f.relation in "HSTUW"} == kept_by_a



def test_program_text_escapes_a_quoted_constant():
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 1, False)))
    c = ConstraintSet((
        TGD((Atom("H", (Const('a"b'),)),),
            (HeadDisjunct((), (Atom("R", (Const('a"b'),)),)),)),
    ))
    q = boolean_ucq([Atom("H", (Var("x"),))])
    text = program_text(build_gfp_program(q, c, s))
    assert 'A("a\\"b").' in text.splitlines()
    assert 'H("a\\"b") :- A("a\\"b"), R("a\\"b").' in text.splitlines()


def test_program_text_names_shape_variables_from_w0():
    # one rule for the generic shape, one for the shape of the body
    # H(x, x, "k"): groups print as w0, w1, ..., constants stay quoted
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 3, False)))
    x = Var("x")
    c = ConstraintSet((
        TGD((Atom("H", (x, x, Const("k"))),), (HeadDisjunct((), (Atom("R", (x,)),)),)),
    ))
    q = boolean_ucq([Atom("H", (x, x, x))])
    lines = program_text(build_gfp_program(q, c, s)).splitlines()
    assert lines[3:] == [
        "A(x0) :- R(x0).",
        'A("k").',
        "H(w0, w1, w2) :- A(w0), A(w1), A(w2).",
        'H(w0, w0, "k") :- A(w0), A("k"), R(w0).',
        "Goal() :- H(x, x, x).",
    ]


def test_transform_stops_at_the_first_copy_over_the_limit():
    # H/10 has 678 570 copies; the limit is checked as each one is made
    xs = tuple(Var(f"x{i}") for i in range(10))
    s = Schema((RelationDecl("H", 10, False), RelationDecl("V", 1, True)))
    c = ConstraintSet((TGD((Atom("H", xs),), (HeadDisjunct((), (Atom("V", xs[:1]),)),)),))
    with pytest.raises(TransformTooLarge, match=rf"\({MAX_COPIES + 1}\)"):
        transform_adom(boolean_ucq([Atom("V", xs[:1])]), c, s)


# ---------------------------------------------------------------------------
# the demand-driven largest model


@pytest.fixture
def seeded_lookups_only(monkeypatch):
    """Fail any enumeration of the whole maximal database, or of a whole
    relation of it: a lookup whose atom binds no position."""
    seeded = _MaximalDatabase.facts

    def facts(self, atom=None, seed={}):
        if atom is None or all(isinstance(t, Var) and t not in seed for t in atom.args):
            raise AssertionError("the whole maximal database was enumerated")
        return seeded(self, atom, seed)

    monkeypatch.setattr(_MaximalDatabase, "facts", facts)


def test_true_reachability_answer_never_enumerates_the_maximal_database(seeded_lookups_only):
    # n2 is entered only from n3, which nothing enters: the path witness for
    # (n0, n2) dies only after the one for (n0, n3)
    nodes = ["n0", "n1", "n2", "n3"]
    q, c, s, v = reachability_problem(nodes, [("n0", "n1"), ("n3", "n2")], "n0", "n2")
    assert nqi_gfp_detail(q, c, s, v)[:2] == (True, None)
    # a False answer needs the whole largest model as its witness
    q, c, s, v = reachability_problem(["n0", "n1", "n2"], [("n0", "n2")], "n0", "n2")
    with pytest.raises(AssertionError, match="whole maximal database"):
        nqi_gfp_detail(q, c, s, v)


def test_reachability_maximal_database_projects_t_from_p():
    # T(x, z, j) -> ∃y,i _aux_h1(x, y, i, z, j), and _aux_h1's one rule is
    # bound by P(x, y, i, z, j): a T fact is a projection of a P fact rather
    # than any of the 9^3 domain triples
    nodes = ["n0", "n1", "n2", "n3"]
    edges = [("n0", "n1"), ("n1", "n2"), ("n3", "n2")]
    q, c, s, v = reachability_problem(nodes, edges, "n0", "n2")
    p = build_gfp_program(q, c, s)
    facts = _MaximalDatabase([(r.head, r.body) for r in p.rules], p.constants, v).facts()
    projected = {Fact("T", (f.args[0], f.args[3], f.args[4]))
                 for f in v.facts if f.relation == "P"}
    assert {f for f in facts if f.relation == "T"} == projected
    assert len(projected) == 36 and len(facts) == 98


def _one_step(p, ext):
    """Every fact a rule derives from the extensional facts when each
    intensional atom holds on every domain tuple."""
    domain = set(active_domain(ext)) | {Const(n) for n in p.constants}
    out = set()
    for r in p.rules:
        xs = sorted({x for a in (r.head,) + r.body for x in a.variables}, key=lambda x: x.name)
        ext_atoms = [a for a in r.body if a.relation in p.extensional]
        for combo in itertools.product(domain, repeat=len(xs)):
            m = dict(zip(xs, combo))
            if set(apply_hom(ext_atoms, m)) <= ext.facts:
                out.add(apply_hom((r.head,), m)[0])
    return out


_x, _y, _z = Var("x"), Var("y"), Var("z")
_S_OF_R = DatalogRule(Atom("S", (_x, _y)), (Atom("R", (_x, _y)),))


@pytest.mark.parametrize("rules,constants,relation,unfolded", [
    # one rule bound by E: S(x, y) gains E(x, y)
    ([DatalogRule(Atom("R", (_x, _y)), (Atom("E", (_x, _y)),)), _S_OF_R], (), "S", True),
    ([DatalogRule(Atom("R", (_x, _y)), (Atom("E", (_x, _y)),)),
      DatalogRule(Atom("R", (_x, _y)), (Atom("E", (_y, _x)),)), _S_OF_R], (), "S", False),
    ([DatalogRule(Atom("R", (_x, _x)), (Atom("E", (_x, _y)),)), _S_OF_R], (), "S", False),
    ([DatalogRule(Atom("R", (_x, Const("k"))), (Atom("E", (_x, _y)),)), _S_OF_R], ("k",), "S", False),
    # Q unfolds into R's rule, but R's own atoms bind only x
    ([DatalogRule(Atom("R", (_x, _y)), (Atom("E", (_x, _z)), Atom("Q", (_y,)))),
      DatalogRule(Atom("Q", (_x,)), (Atom("F", (_x,)),)), _S_OF_R], (), "S", False),
    # R's rule is not unfolded into itself
    ([DatalogRule(Atom("R", (_x, _y)), (Atom("E", (_x, _y)), Atom("R", (_y, _x))))], (), "R", False),
], ids=["single-rule", "two-rules", "repeated-head-variable", "head-constant",
        "head-bound-by-intensional-atom", "own-relation"])
def test_maximal_database_unfolds_only_single_rule_relations(rules, constants, relation, unfolded):
    rules = rules + [DatalogRule(Atom("Goal", ()), (rules[-1].head,))]
    arity = {a.relation: len(a.args) for r in rules for a in (r.head,) + r.body}
    intensional = {r.head.relation for r in rules}
    p = GFPProgram(
        extensional=frozenset(arity) - intensional,
        intensional=frozenset(intensional),
        arities=tuple(sorted(arity.items())),
        rules=tuple(rules),
        constants=frozenset(constants),
        goal="Goal",
    )
    a, b, c = Const("a"), Const("b"), Const("c")
    ext_schema = Schema(tuple(RelationDecl(n, arity[n], True) for n in sorted(p.extensional)))
    ext = Instance(ext_schema, frozenset(
        {Fact("E", (a, b)), Fact("E", (b, c))} | ({Fact("F", (a,))} if "F" in arity else set())
    ))
    got = {f for f in _MaximalDatabase([(r.head, r.body) for r in p.rules], p.constants, ext).facts()
           if f.relation == relation}
    one_step = {f for f in _one_step(p, ext) if f.relation == relation}
    if unfolded:
        assert got == {Fact("S", f.args) for f in ext.facts_of("E")} < one_step
    else:
        assert got == one_step


def test_visible_fact_without_support_ends_phase_one(seeded_lookups_only):
    # V(x) -> W(x) with V(a) visible and no W(a): V(a) cannot be kept
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 1, False)))
    x = Var("x")
    c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("W", (x,)),)),)),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    # V binds the query's H lookup
    q = boolean_ucq([Atom("V", (x,)), Atom("H", (x,))])
    assert _largest_model(q, c, s, v) is None


def test_forced_empty_copy_fact_dies():
    # H(x) -> V(x): H(a) and H(b) are candidates until H("a") is forced empty
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    x = Var("x")
    a, b = Const("a"), Const("b")
    c = ConstraintSet((TGD((Atom("H", (x,)),), (HeadDisjunct((), (Atom("V", (x,)),)),)),))
    q = boolean_ucq([Atom("H", (x,))])
    v = Instance(s, frozenset({Fact("V", (a,)), Fact("V", (b,))}))
    assert _largest_model(q, c, s, v).facts == v.facts | {Fact("H", (a,)), Fact("H", (b,))}
    model = _largest_model(q, c, s, v, forced_empty=(Atom("H", (Const("a"),)),))
    assert model.facts == v.facts | {Fact("H", (b,))}
    assert _largest_model(q, c, s, v, forced_empty=(Atom("H", (x,)),)) is None


def _reference_largest_model(q, c, s, v, forced_empty=(), constants=()):
    """The largest-model pass without the program: every domain tuple of
    every hidden relation, every trigger, one pruning, then the checks."""
    program = build_gfp_program(q, c, s)
    domain = set(active_domain(v)) | {Const(n) for n in (*program.constants, *constants)}
    hidden = {
        Fact(r.name, args)
        for r in s.hidden_relations
        for args in itertools.product(domain, repeat=r.arity)
    }
    top = Instance(s, frozenset(hidden) | v.facts)
    obligations = [
        (apply_hom((atom,), h)[0], [])
        for atom in forced_empty
        for h in find_homomorphisms((atom,), top)
    ]
    for tgd in c.tgds:
        for h in find_homomorphisms(tgd.body, top):
            supports = []
            for disjunct in tgd.heads:
                for g in head_matches(disjunct, h, top):
                    supports.append(apply_hom(disjunct.atoms, g))
            obligations.append((apply_hom(tgd.body, h)[0], supports))
    alive = _prune_unsupported(set(top.facts), obligations)
    if not v.facts <= alive:
        return None
    inst = Instance(s, frozenset(alive))
    if not (eval_ucq(q, inst) and satisfies(c, inst)):
        return None
    return inst


def test_largest_model_matches_the_full_pass(monkeypatch):
    demand_driven = gfp._largest_model
    outcomes = []

    def both(*args, **kwargs):
        got = demand_driven(*args, **kwargs)
        assert got == _reference_largest_model(*args, **kwargs)
        outcomes.append(got is None)
        return got

    monkeypatch.setattr(gfp, "_largest_model", both)
    for seed in range(200):
        rng = random.Random(seed)
        gen = random_id_problem if seed % 2 else random_linear_problem
        try:
            nqi_gfp_detail(*gen(rng))
        except ClassError:
            pass
    # the reachability encoding has the _aux_h heads and the unfolded T
    # relation that the random generators never produce; the reference
    # holds all |domain|^5 _aux_h1 tuples (20 s for one 5-node graph), so
    # the graphs stay at 3 nodes
    for seed in range(10):
        nodes, edges, source, target = random_digraph(random.Random(seed), max_nodes=3)
        nqi_gfp_detail(*reachability_problem(nodes, edges, source, target))
    # disjunctive heads reach the pass only directly
    for seed in range(40):
        q, c, s, v = random_linear_problem(random.Random(seed), max_heads=2,
                                           hidden_disjunct_atoms=True)
        try:
            both(q, c, s, v)
        except ClassError:
            pass
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


def test_false_answer_makes_no_seeded_lookup_after_the_enumeration(monkeypatch):
    # phase 2 enumerates the hidden facts and looks every support up in an
    # index, so once the first lookup that binds nothing has run, no lookup
    # binds a variable
    binds: List[bool] = []
    look_up = _MaximalDatabase.facts

    def facts(self, atom=None, seed={}):
        binds.append(atom is not None
                     and not all(isinstance(t, Var) and t not in seed for t in atom.args))
        return look_up(self, atom, seed)

    monkeypatch.setattr(_MaximalDatabase, "facts", facts)
    q, c, s, v = reachability_problem(["n0", "n1", "n2"], [("n0", "n2")], "n0", "n2")
    assert nqi_gfp_detail(q, c, s, v)[0] is False
    first = binds.index(False)
    assert any(binds[:first]), "phase 1 looks the query's T atom up by its bound values"
    assert binds[first:].count(True) == 0


_k = Const("k")
_u = Var("u")


@pytest.mark.parametrize("body,heads", [
    (Atom("B", (_x, _y, _z)), (HeadDisjunct((), (Atom("H", (_x, _k, _z)),)),)),
    (Atom("B", (_x, _y, _z)), (HeadDisjunct((), (Atom("H", (_x, _x, _y)),)),)),
    (Atom("B", (_x, _y, _z)), (HeadDisjunct((_u,), (Atom("H", (_u, _u, _x)),)),)),
    (Atom("B", (_x, _x, _k)), (HeadDisjunct((_u,), (Atom("H", (_u, _x, _x)),)),
                               HeadDisjunct((), (Atom("H", (_x, _k, _x)),)))),
    (Atom("B", (_x, _y, _z)), (HeadDisjunct((), ()),)),
    (Atom("B", (_k, _y, _y)), ()),
], ids=["head-constant", "repeated-frontier-variable", "repeated-existential-variable",
        "body-constant-and-two-disjuncts", "empty-disjunct", "forced-empty-copy"])
def test_support_lookup_agrees_with_match_fact(body, heads):
    # every fact over {a, b, k} of the body and head relations: the
    # compiled lookup gives exactly the supports that matching the head
    # atom under the body fact's frontier values gives
    values = (Const("a"), Const("b"), Const("k"))
    facts_of = {rel: [Fact(rel, args) for args in itertools.product(values, repeat=3)]
                for rel in ("B", "H")}
    lookup = support_lookup(body, heads, facts_of)
    found = 0
    for fact in facts_of["B"]:
        h = match_fact(body, fact, {})
        got = lookup(fact)
        if h is None:
            assert got is None
            continue
        want: List[tuple] = []
        for d in heads:
            seed = {x: val for x, val in h.items() if x not in d.exist_vars}
            if not d.atoms:
                want.append(())
                continue
            want.extend((g,) for g in facts_of["H"] if match_fact(d.atoms[0], g, seed) is not None)
        key = lambda support: [fact_key(g) for g in support]
        assert sorted(got, key=key) == sorted(want, key=key)
        found += len(got)
    assert found > 0 or not heads


_m = Var("m")
_LOOKUP_RULES = [
    (Atom("H", (_x, _y)), ()),  # no extensional atom
    (Atom("H", (_x, _k)), (Atom("E", (_x, _y)),)),  # a head constant
    (Atom("G", (_x, _x, _z)), (Atom("E", (_x, _y)),)),  # a repeated and a free head variable
    (Atom("G", (_x, _y, _z)), (Atom("E", (_x, _y)), Atom("F", (_y, _z)))),  # two atoms
    (Atom("G", (_y, _k, _y)), (Atom("E", (_y, _y)),)),  # a repeated atom variable
    (Atom("J", (_z,)), (Atom("F", (_k, _z)),)),  # an atom constant
    (Atom("J", (_m,)), (Atom("E", (_x, _y)), Atom("F", (_y, _x)))),  # two atoms, a free variable
    (Atom("K", (Const("q"), _x)), (Atom("E", (_x, _y)),)),  # a constant outside the domain
    (Atom("M", (_x, _y)), (Atom("T", (_x, _k, _x)),)),  # an atom constant and a repeated atom variable
]


def _maximal_database_by_brute_force(rules, constants, ext):
    """Every head fact of every assignment of a rule's variables over the
    domain that maps its (extensional) atoms into `ext`, without the facts
    holding a value outside the domain."""
    domain = set(active_domain(ext)) | {Const(n) for n in constants}
    out = set()
    for head, atoms in rules:
        xs = sorted({x for a in (head, *atoms) for x in a.variables}, key=lambda x: x.name)
        for combo in itertools.product(sorted(domain), repeat=len(xs)):
            m = dict(zip(xs, combo))
            if set(apply_hom(atoms, m)) <= ext.facts:
                fact = apply_hom((head,), m)[0]
                if set(fact.args) <= domain:
                    out.add(fact)
    return out


def test_compiled_lookups_match_the_brute_force_database():
    a, b, c, out = Const("a"), Const("b"), Const("c"), Const("out")
    s = Schema((RelationDecl("E", 2, True), RelationDecl("F", 2, True), RelationDecl("T", 3, True)))
    # T holds facts that fit both the constant and the repeat of T(x, k, x),
    # and facts that miss either or both with a first value no fit holds
    ext = Instance(s, frozenset(
        [Fact("E", args) for args in [(a, b), (b, b), (b, c), (c, a), (_k, _k)]]
        + [Fact("F", args) for args in [(b, c), (c, c), (_k, a), (a, b)]]
        + [Fact("T", args) for args in [(a, _k, a), (b, _k, b), (c, _k, b), (c, a, c), (_k, a, c)]]))
    db = _MaximalDatabase(_LOOKUP_RULES, ("k",), ext)
    every = _maximal_database_by_brute_force(_LOOKUP_RULES, ("k",), ext)
    assert db.facts() == every
    # lookup atoms of variables, a constant in the domain and one outside
    # it, with each variable unbound or seeded inside or outside the domain
    terms = (_x, _y, a, out)
    seeds = [{x: val for x, val in zip((_x, _y), vals) if val is not None}
             for vals in itertools.product((None, b, out), (None, c))]
    hits = Counter()
    for rel, arity in (("H", 2), ("G", 3), ("J", 1), ("K", 2), ("M", 2)):
        for args in itertools.product(terms, repeat=arity):
            atom = Atom(rel, args)
            for seed in seeds:
                want = {f for f in every if match_fact(atom, f, seed) is not None}
                assert db.facts(atom, seed) == want, (atom, seed)
                hits[rel] += bool(want)
    assert hits["H"] and hits["G"] and hits["J"] and hits["M"] and not hits["K"]


def test_nqi_decision_path_builds_no_datalog_program(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decision path built a Datalog program")

    monkeypatch.setattr(gfp, "GFPProgram", refuse)
    monkeypatch.setattr(gfp, "DatalogRule", refuse)
    q, c, s, v = reachability_problem(["n0", "n1", "n2"], [("n0", "n2")], "n0", "n2")
    assert nqi_gfp_detail(q, c, s, v)[0::2] == (False, "greatest fixpoint")
    # a constraint constant takes the selected-attribute transform
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 2, False)))
    c = ConstraintSet((TGD((Atom("H", (_x, _k)),), (HeadDisjunct((), (Atom("V", (_x,)),)),)),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    answer, _, method = nqi_gfp_detail(boolean_ucq([Atom("H", (_x, _y))]), c, s, v)
    assert (answer, method) == (False, "selected-attribute transform + greatest fixpoint")


def test_transform_keeps_a_selected_body_variable_on_a_constant_entry():
    # H(x,x) -> V(x) with the query H("k","k"): the copy that keeps the first
    # position and drops a "k" admits only H(k,k), so its body copy is
    # H_c1(k) -> V(k); without it H(k,k) is a witness that lacks V(k)
    s = Schema((RelationDecl("H", 2, False), RelationDecl("V", 1, True),
                RelationDecl("W", 1, True)))
    c = ConstraintSet((TGD((Atom("H", (_x, _x)),), (HeadDisjunct((), (Atom("V", (_x,)),)),)),))
    q = boolean_ucq([Atom("H", (_k, _k))])
    v = Instance(s, frozenset({Fact("W", (Const("a"),))}))
    assert nqi_gfp_detail(q, c, s, v)[:2] == (True, None)
    tr = transform_adom(q, c, s)
    copy = next(cp for cp in tr.copies if cp.selected == (0,) and cp.pattern == (_k,))
    assert TGD((Atom(copy.name, (_k,)),), (HeadDisjunct((), (Atom("V", (_k,)),)),)) \
        in tr.constraints.dependencies
    assert copy.name == "H_c1"


@pytest.mark.parametrize("name", ["sel", "pat"])
def test_transform_translates_a_query_the_same_whatever_its_constants_are_named(name):
    # the query variable x is kept in one copy atom and dropped onto a
    # constant entry in another: the two marks disagree, so no copy choice
    # splits it, however the constant is named
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False), RelationDecl("G", 1, False)))
    q = boolean_ucq([Atom("H", (_x,)), Atom("G", (_x,))])

    def disjuncts(constant):
        c = ConstraintSet((TGD((Atom("V", (_x,)),), (HeadDisjunct((), (Atom("H", (Const(constant),)),)),)),))
        return [str(d.atoms) for d in transform_adom(q, c, s).query.disjuncts]

    assert disjuncts(name) == [text.replace("'k'", repr(name)) for text in disjuncts("k")]


def _with_constants(problem, rng):
    """The problem with `x0` in each constraint and `q0` in the query made
    constants, each `a` (a visible value) or `k` (none)."""
    q, c, s, v = problem

    def pinned(atoms, x):
        k = Const(rng.choice("ak"))
        return tuple(Atom(a.relation, tuple(k if t == x else t for t in a.args)) for a in atoms)

    c = ConstraintSet(tuple(
        TGD(pinned(t.body, Var("x0")), tuple(HeadDisjunct(d.exist_vars, pinned(d.atoms, Var("x0")))
                                             for d in t.heads))
        for t in c.tgds))
    return boolean_ucq(*(pinned(d.atoms, Var("q0")) for d in q.disjuncts)), c, s, v


def test_translated_constants_lie_in_the_constants_nqi_gfp_detail_holds(monkeypatch):
    # the translated constraints and query name no constant outside the ones
    # `nqi_gfp_detail` hands to `_largest_model`, which therefore need not
    # collect them again: on the `nqi` digest's problems, which name none,
    # and on its random ones with constants put in
    largest_model = gfp._largest_model
    named: List[int] = []

    def checked(q, c, s, v, forced_empty=(), constants=None):
        assert set(constant_names(c, q)) <= set(constants)
        named.append(len(constant_names(c, q)))
        return largest_model(q, c, s, v, forced_empty, constants)

    monkeypatch.setattr(gfp, "_largest_model", checked)
    problems = [reachability_problem(*random_digraph(random.Random(seed), max_nodes=5))
                for seed in range(60)]
    randoms = [(random_id_problem if seed % 2 else random_linear_problem)(random.Random(seed))
               for seed in range(600)]
    problems += randoms + [_with_constants(p, random.Random(n)) for n, p in enumerate(randoms[:200])]
    for problem in problems:
        try:
            nqi_gfp_detail(*problem)
        except ClassError:
            pass
    assert len(named) > 700 and sum(n > 0 for n in named) > 100


def test_nqi_rejects_a_visible_instance_that_does_not_fit_the_schema():
    # the instances the method builds over its own schema are not checked
    # again, so `nqi_gfp_detail` checks `v` against `s` first: on the
    # inclusion-dependency path and on the transform path (the constant
    # head), a hidden fact and a fact of an undeclared relation are refused
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 2, False)))
    x, y = Var("x"), Var("y")
    q = boolean_ucq([Atom("H", (x, x))])
    a = Const("a")
    for head, method in ((Atom("V", (y,)), "greatest fixpoint"),
                         (Atom("V", (Const("k"),)), "selected-attribute transform + greatest fixpoint")):
        c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((y,), (Atom("H", (x, y)),)),)),
                           TGD((Atom("H", (x, y)),), (HeadDisjunct((), (head,)),))))
        hidden = Instance(s, frozenset({Fact("V", (a,)), Fact("H", (a, a))}))
        other = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True)))
        undeclared = Instance(other, frozenset({Fact("W", (a,))}))
        for v in (hidden, undeclared):
            with pytest.raises(SchemaError):
                nqi_gfp_detail(q, c, s, v)
        assert nqi_gfp_detail(q, c, s, Instance(s, frozenset({Fact("V", (a,))})))[2] == method
