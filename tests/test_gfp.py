import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi.core import (
    Atom,
    CName,
    ClassError,
    Const,
    ConstraintSet,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    TGD,
    Var,
    apply_hom,
    boolean_ucq,
    eval_ucq,
    find_homomorphisms,
    head_matches,
    satisfies,
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
        TGD((Atom("H", (CName('a"b'),)),),
            (HeadDisjunct((), (Atom("R", (CName('a"b'),)),)),)),
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
        TGD((Atom("H", (x, x, CName("k"))),), (HeadDisjunct((), (Atom("R", (x,)),)),)),
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
    """Fail any enumeration of the whole maximal database."""
    seeded = _MaximalDatabase.facts

    def facts(self, atom=None, seed={}):
        if atom is None:
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


def test_visible_fact_without_support_ends_phase_one(seeded_lookups_only):
    # V(x) -> W(x) with V(a) visible and no W(a): V(a) cannot be kept
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 1, False)))
    x = Var("x")
    c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("W", (x,)),)),)),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    assert _largest_model(boolean_ucq([Atom("H", (x,))]), c, s, v) is None


def test_forced_empty_copy_fact_dies():
    # H(x) -> V(x): H(a) and H(b) are candidates until H("a") is forced empty
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    x = Var("x")
    a, b = Const("a"), Const("b")
    c = ConstraintSet((TGD((Atom("H", (x,)),), (HeadDisjunct((), (Atom("V", (x,)),)),)),))
    q = boolean_ucq([Atom("H", (x,))])
    v = Instance(s, frozenset({Fact("V", (a,)), Fact("V", (b,))}))
    assert _largest_model(q, c, s, v).facts == v.facts | {Fact("H", (a,)), Fact("H", (b,))}
    model = _largest_model(q, c, s, v, forced_empty=(Atom("H", (CName("a"),)),))
    assert model.facts == v.facts | {Fact("H", (b,))}
    assert _largest_model(q, c, s, v, forced_empty=(Atom("H", (x,)),)) is None


def _reference_largest_model(q, c, s, v, forced_empty=(), extra_constants=()):
    """The largest-model pass before it became demand-driven: every fact of
    the maximal database, every trigger, one pruning, then the checks."""
    program = build_gfp_program(q, c, s, extra_constants=extra_constants)
    hidden_names = {r.name for r in s.hidden_relations}
    hidden = {f for f in _MaximalDatabase(program, v).facts() if f.relation in hidden_names}
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
    # disjunctive heads reach the pass only directly
    for seed in range(40):
        q, c, s, v = random_linear_problem(random.Random(seed), max_heads=2,
                                           hidden_disjunct_atoms=True)
        try:
            both(q, c, s, v)
        except ClassError:
            pass
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40

