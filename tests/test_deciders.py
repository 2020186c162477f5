import random

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
    TGD,
    UCQ,
    CQ,
    Var,
    boolean_ucq,
    eval_ucq,
    satisfies,
)
from dqi.deciders import (
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
    ground_nulls,
    nqi_tuples,
    pqi_tuples,
)
from dqi.oracle import DomainBound, SearchSpaceTooLarge, oracle_owq, oracle_pqi, oracle_realizable
from dqi.problemgen import random_id_problem
from dqi.textio import parse


def audit(verdict, q=None, c=None, v=None):
    """Every decisive verdict must carry a checkable certificate."""
    if verdict.value is None:
        return
    cert = verdict.certificate
    assert cert is not None, "decisive verdicts carry certificates"
    if isinstance(cert, Witness):
        assert satisfies(c, cert.instance)
        if v is not None:
            assert cert.instance.visible().facts == v.facts
        if q is not None:
            holds = eval_ucq(q, cert.instance) is True
            assert holds == cert.polarity
    else:
        assert isinstance(cert, (ChaseExhausted, ClassExact))


def test_pqi_fixture_positive(separation, budget):
    r = decide_pqi(separation.queries["Q"], separation.constraints,
                   separation.schema, separation.instances["V"], budget)
    assert r.value is True
    audit(r, separation.queries["Q"], separation.constraints, separation.instances["V"])


def test_pqi_fixture_negative_with_witness(medical, budget):
    r = decide_pqi(medical.queries["Q"], medical.constraints,
                   medical.schema, medical.instances["Vsmith"], budget)
    assert r.value is False
    audit(r, medical.queries["Q"], medical.constraints, medical.instances["Vsmith"])


def test_nqi_fixture_empty_instance(medical, budget):
    r = decide_nqi(medical.queries["Q"], medical.constraints,
                   medical.schema, medical.instances["Vempty"], budget)
    assert r.value is True
    assert isinstance(r.certificate, ClassExact)


def test_nqi_fixture_controllability_witness(controllability, budget):
    r = decide_nqi(controllability.queries["Q"], controllability.constraints,
                   controllability.schema, controllability.instances["V"], budget)
    assert r.value is False
    audit(r, controllability.queries["Q"], controllability.constraints,
          controllability.instances["V"])


@pytest.mark.parametrize("constraints, method", [
    # inclusion dependencies
    ("H(x,y) -> V(x);", "greatest fixpoint"),
    # a conjunctive head splits into inclusion dependencies
    ("H(x,y) -> V(x) & W(y);", "greatest fixpoint"),
    # a repeated variable or a constant needs the transform
    ("H(x,x) -> V(x); H(x,y) -> W(y);", "selected-attribute transform + greatest fixpoint"),
    ("H(x,y) -> V(\"c\");", "selected-attribute transform + greatest fixpoint"),
])
def test_nqi_names_the_exact_method(constraints, method, budget):
    pf = parse("dqi-1\nschema { visible V/1; visible W/1; hidden H/2; }\n"
               f"constraints {{ {constraints} }}\n"
               "query Q { exists x, y. H(x,y) }\ninstance E { }\n")
    r = decide_nqi(pf.queries["Q"], pf.constraints, pf.schema, pf.instances["E"], budget)
    assert r.value is True
    assert r.certificate == ClassExact(method)


def test_owq_fixture(separation, budget):
    r = decide_owq(separation.queries["Q"], separation.constraints,
                   separation.instances["V"], budget)
    assert r.value is False


def test_owq_is_vacuously_true_when_the_chase_clashes_two_constants(budget):
    pf = parse("dqi-1\nschema { visible R/2; hidden S/1; }\n"
               "constraints { R(x,y) & R(x,z) -> y = z; }\n"
               "query Q { exists x. S(x) }\ninstance I { R(a,b). R(a,c). }\n")
    q, c, i = pf.queries["Q"], pf.constraints, pf.instances["I"]
    r = decide_owq(q, c, i, budget)
    assert r.value is True
    assert r.certificate == ClassExact("chase clashed two constants")
    audit(r, q, c, i)


def test_realizable_fixture(controllability, budget):
    r = decide_realizable(controllability.constraints, controllability.schema,
                          controllability.instances["V"], budget)
    assert r.value is True
    assert satisfies(controllability.constraints, r.certificate.instance)


def test_unrealizable_instance(budget):
    s = Schema((RelationDecl("R", 1, True), RelationDecl("T", 0, True)))
    # R(x) -> T(), but the visible instance fixes T empty
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"),)),), (HeadDisjunct((), (Atom("T", ()),)),)),
    ))
    v = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    r = decide_realizable(c, s, v, budget)
    assert r.value is False


def test_exists_pqi_and_exists_nqi(separation, budget):
    q = separation.queries["Q"]
    c, s = separation.constraints, separation.schema
    r_p = decide_exists_pqi(q, c, s, budget)
    assert r_p.value is True  # the fixture instance itself is such an instance
    r_n = decide_exists_nqi(q, c, s, budget)
    assert r_n.value is True  # the empty instance works


def test_exists_collapse_rejects_query_constants(medical, budget):
    with pytest.raises(ClassError):
        decide_exists_pqi(medical.queries["Q"], medical.constraints,
                          medical.schema, budget)


def test_pqi_tuples_open_query(budget):
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 1, False)))
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"),)),), (HeadDisjunct((), (Atom("H", (Var("x"),)),)),)),
    ))
    x = Var("x")
    q = UCQ((CQ((x,), (), (Atom("H", (x,)),)),))
    v = Instance(s, frozenset({Fact("R", (Const("a"),)), Fact("R", (Const("b"),))}))
    answers, verdicts = pqi_tuples(q, c, s, v, budget)
    assert answers == frozenset({(Const("a"),), (Const("b"),)})
    negatives, _ = nqi_tuples(q, c, s, v, budget)
    assert negatives == frozenset()


def test_ground_nulls_is_isomorphic():
    from dqi.core import Null

    s = Schema((RelationDecl("R", 2, True),))
    i = Instance(s, frozenset({Fact("R", (Const("a"), Null(3)))}))
    g = ground_nulls(i)
    assert len(g.facts) == 1
    (f,) = g.facts
    assert f.args[0] == Const("a") and isinstance(f.args[1], Const)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_decide_pqi_agrees_with_bounded_enumeration(seed, budget):
    rng = random.Random(seed)
    q, c, s, v = random_id_problem(rng)
    r = decide_pqi(q, c, s, v, budget)
    audit(r, q, c, v)
    if r.value is None:
        return
    try:
        o = oracle_pqi(q, c, s, v, DomainBound(extra_values=1, max_facts_total=9,
                                               space_ceiling=3e5))
    except SearchSpaceTooLarge:
        return
    if o.answer is False:
        assert r.value is False
    if r.value is False:
        # the witness audit above already certifies the refutation
        pass


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_decide_realizable_agrees_with_bounded_enumeration(seed, budget):
    rng = random.Random(seed)
    q, c, s, v = random_id_problem(rng)
    r = decide_realizable(c, s, v, budget)
    if r.value is None:
        return
    try:
        o = oracle_realizable(c, s, v, DomainBound(extra_values=1, max_facts_total=9,
                                                   space_ceiling=3e5))
    except SearchSpaceTooLarge:
        return
    if o.answer is True:
        assert r.value is True
    if r.value is True and isinstance(r.certificate, Witness):
        assert satisfies(c, r.certificate.instance)
