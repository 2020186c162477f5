import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi.core import (
    Atom,
    CName,
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
    boolean_ucq,
    eval_ucq,
    satisfies,
)
from dqi.oracle import (
    BOUNDED,
    DomainBound,
    EXACT,
    SearchSpaceTooLarge,
    enumerate_extensions,
    oracle_nqi,
    oracle_owq,
    oracle_pqi,
    oracle_realizable,
)
from dqi.problemgen import random_id_problem


def toy():
    s = Schema((RelationDecl("R", 1, True), RelationDecl("H", 1, False)))
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"),)),),
            (HeadDisjunct((), (Atom("H", (Var("x"),)),)),)),
    ))
    q = boolean_ucq([Atom("H", (Var("x"),))])
    return q, c, s


def test_oracle_pqi_trivial_true_and_false():
    q, c, s = toy()
    d = DomainBound(extra_values=1, max_facts_total=8)
    v_on = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    v_off = Instance(s, frozenset())
    assert oracle_pqi(q, c, s, v_on, d).answer is True
    r = oracle_pqi(q, c, s, v_off, d)
    assert r.answer is False and r.exactness == EXACT
    assert eval_ucq(q, r.witness) is not True and satisfies(c, r.witness)


def test_oracle_nqi_trivial():
    q, c, s = toy()
    d = DomainBound(extra_values=1, max_facts_total=8)
    v_on = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    r = oracle_nqi(q, c, s, v_on, d)
    assert r.answer is False and r.exactness == EXACT
    assert eval_ucq(q, r.witness) is True


def test_oracle_realizable_reports_witness():
    q, c, s = toy()
    d = DomainBound(extra_values=1, max_facts_total=8)
    v = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    r = oracle_realizable(c, s, v, d)
    assert r.answer is True and satisfies(c, r.witness)
    assert r.witness.visible().facts == v.facts


def test_oracle_owq_counterexample_is_a_superset():
    q, c, s = toy()
    base = Instance(s, frozenset({Fact("H", (Const("a"),))}))
    # does every model containing H(a) satisfy exists x R(x)?  no
    q2 = boolean_ucq([Atom("R", (Var("x"),))])
    r = oracle_owq(q2, c, base, DomainBound(extra_values=1, max_facts_total=8))
    assert r.answer is False
    assert base.facts <= r.witness.facts


def test_search_space_ceiling_raises():
    q, c, s = toy()
    v = Instance(s, frozenset())
    with pytest.raises(SearchSpaceTooLarge):
        oracle_pqi(q, c, s, v, DomainBound(extra_values=6, max_facts_total=12,
                                           space_ceiling=10))


def test_enumerated_completions_preserve_the_visible_part():
    q, c, s = toy()
    v = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    seen = 0
    for f in enumerate_extensions(v, s, DomainBound(extra_values=1, max_facts_total=5)):
        assert f.visible().facts == v.facts
        seen += 1
    assert seen > 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_oracle_metamorphic_loosening_the_bound_keeps_refutations(seed):
    # a counterexample found within a small bound stays found in a larger one
    rng = random.Random(seed)
    q, c, s, v = random_id_problem(rng)
    small = DomainBound(extra_values=1, max_facts_total=7, space_ceiling=2e5)
    large = DomainBound(extra_values=1, max_facts_total=9, space_ceiling=2e6)
    try:
        r_small = oracle_pqi(q, c, s, v, small)
        if r_small.answer is False:
            assert oracle_pqi(q, c, s, v, large).answer is False
        r_n = oracle_nqi(q, c, s, v, small)
        if r_n.answer is False:
            assert oracle_nqi(q, c, s, v, large).answer is False
    except SearchSpaceTooLarge:
        return


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_oracle_pqi_and_nqi_cannot_both_fail_without_witnesses(seed):
    # on a realizable instance the two implications cannot both hold unless
    # no completion exists at all within the bound
    rng = random.Random(seed)
    q, c, s, v = random_id_problem(rng)
    d = DomainBound(extra_values=1, max_facts_total=8, space_ceiling=2e5)
    try:
        p = oracle_pqi(q, c, s, v, d)
        n = oracle_nqi(q, c, s, v, d)
        r = oracle_realizable(c, s, v, d)
    except SearchSpaceTooLarge:
        return
    if r.answer is True:
        # a completion exists, and it either satisfies q or it does not,
        # so at least one implication has a counterexample
        assert p.answer is False or n.answer is False


def test_oracle_realizable_uses_constants_named_only_by_an_egd():
    # V(x) -> exists y. H(y) and H(x) -> x = "c": the only completion puts
    # "c" into H, and "c" occurs in no atom, only on the equality's side
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    x, y = Var("x"), Var("y")
    c = ConstraintSet((
        TGD((Atom("V", (x,)),), (HeadDisjunct((y,), (Atom("H", (y,)),)),)),
        EGD((Atom("H", (x,)),), x, CName("c")),
    ))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    r = oracle_realizable(c, s, v, DomainBound(2, 4, 1e5))
    assert r.answer is True and r.exactness == EXACT
    assert r.witness.facts_of("H") == (Fact("H", (Const("c"),)),)

