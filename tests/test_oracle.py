import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi import oracle
from dqi.core import (
    CQ,
    UCQ,
    Atom,
    Const,
    ConstraintSet,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    Var,
    _term_value,
    apply_hom,
    boolean_ucq,
    constant_names,
    eval_ucq,
    find_homomorphisms,
    head_matches,
    satisfies,
)
from dqi.oracle import (
    BOUNDED,
    DomainBound,
    EXACT,
    OracleAnswer,
    SearchSpaceTooLarge,
    _compile,
    _extension_space,
    _models,
    _superset_space,
    enumerate_extensions,
    enumerate_supersets,
    oracle_nqi,
    oracle_owq,
    oracle_pqi,
    oracle_realizable,
)
from dqi.problemgen import random_id_problem, random_linear_problem
from dqi.reductions import PQI, ProblemInstance, pqi_to_nqi


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
        EGD((Atom("H", (x,)),), x, Const("c")),
    ))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    r = oracle_realizable(c, s, v, DomainBound(2, 4, 1e5))
    assert r.answer is True and r.exactness == EXACT
    assert r.witness.facts_of("H") == (Fact("H", (Const("c"),)),)


def test_query_oracles_check_the_query_against_the_schema_without_a_model():
    # H is unary, so H(x, x) does not fit; the EGD leaves no completion
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    x = Var("x")
    c = ConstraintSet((EGD((Atom("V", (x,)),), x, Const("z")),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    q = boolean_ucq([Atom("H", (x, x))])
    d = DomainBound(1, 4, 1e5)
    for ask in (lambda: oracle_pqi(q, c, s, v, d), lambda: oracle_nqi(q, c, s, v, d),
                lambda: oracle_owq(q, c, v, d)):
        with pytest.raises(SchemaError):
            ask()


# ---------------------------------------------------------------------------
# the oracles against the plain loop: build each candidate, then satisfies,
# then eval_ucq


def _reference(kind, q, c, s, v, d):
    extra = tuple(map(Const, constant_names(c, None if kind == "realizable" else q)))
    if kind == "owq":
        candidates = enumerate_supersets(v, v.schema, d, extra)
    else:
        candidates = enumerate_extensions(v, s, d, extra)
    for f in candidates:
        if not satisfies(c, f):
            continue
        if kind == "realizable":
            return OracleAnswer(True, EXACT, witness=f)
        if (eval_ucq(q, f) is True) == (kind == "nqi"):
            return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(kind != "realizable", BOUNDED)


def _ask(kind, q, c, s, v, d):
    if kind == "pqi":
        return oracle_pqi(q, c, s, v, d)
    if kind == "nqi":
        return oracle_nqi(q, c, s, v, d)
    if kind == "realizable":
        return oracle_realizable(c, s, v, d)
    return oracle_owq(q, c, v, d)


def _outcome(call):
    try:
        r = call()
    except SearchSpaceTooLarge as exc:
        return ("too large", exc.size)
    return (r.answer, r.exactness, r.witness)


def _reference_problem(seed):
    """A seeded ID, linear or disjunctive problem; every third carries an
    EGD, half of those naming a constant; every other query is open."""
    rng = random.Random(seed)
    family = seed % 3
    if family == 0:
        q, c, s, v = random_id_problem(rng)
    else:
        q, c, s, v = random_linear_problem(rng, max_heads=family)
    if seed % 3 == 1:
        rel = rng.choice(s.relations)
        args = tuple(Var(f"e{i}") for i in range(rel.arity))
        right = Const("a") if rng.random() < 0.5 else args[-1]
        c = ConstraintSet(c.dependencies + (EGD((Atom(rel.name, args),), args[0], right),))
    if seed % 2:
        cq = q.disjuncts[0]
        free = cq.variables[:1]
        q = UCQ((CQ(free, tuple(x for x in cq.variables if x not in free), cq.atoms),))
    return q, c, s, v


def test_oracles_agree_with_the_plain_loop():
    seen = set()
    for seed in range(150):
        q, c, s, v = _reference_problem(seed)
        d = DomainBound(extra_values=1, max_facts_total=len(v.facts) + 4, space_ceiling=5e3)
        for kind in ("pqi", "nqi", "realizable", "owq"):
            got = _outcome(lambda: _ask(kind, q, c, s, v, d))
            want = _outcome(lambda: _reference(kind, q, c, s, v, d))
            assert got == want, (seed, kind)
            seen.add((kind, got[0], bool(q.free_vars)))
    # every oracle answered both ways, on open and Boolean queries, and
    # some spaces were over the ceiling
    for kind in ("pqi", "nqi", "owq"):
        for answer in (True, False):
            for open_query in (False, True):
                if not (kind == "nqi" and open_query and answer is False):
                    assert (kind, answer, open_query) in seen, (kind, answer, open_query)
    assert {("realizable", True, False), ("realizable", False, False)} <= seen
    assert any(outcome == "too large" for _kind, outcome, _open in seen)


# ---------------------------------------------------------------------------
# edge cases of the compiled check


def test_size_check_fires_before_the_constraints_are_compiled(monkeypatch):
    def no_compile(*args):
        raise AssertionError("compiled a space over the ceiling")

    monkeypatch.setattr(oracle, "_compile", no_compile)
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 3, False)))
    x = Var("x")
    c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("H", (x, x, x)),)),)),))
    q = boolean_ucq([Atom("H", (x, x, x))])
    v = Instance(s, frozenset({Fact("V", (Const(n),)) for n in "abcdefgh"}))
    d = DomainBound(extra_values=4, max_facts_total=20, space_ceiling=1)
    for ask in (lambda: oracle_pqi(q, c, s, v, d), lambda: oracle_nqi(q, c, s, v, d),
                lambda: oracle_realizable(c, s, v, d), lambda: oracle_owq(q, c, v, d),
                lambda: next(_models(c, v, s, d))):
        with pytest.raises(SearchSpaceTooLarge):
            ask()


def test_a_trigger_in_the_base_without_any_support_rules_out_every_completion():
    # W is visible, so no completion of V(a) can add the W(a) that V(a) needs
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 1, False)))
    x = Var("x")
    c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("W", (x,)),)),)),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    assert oracle_realizable(c, s, v, DomainBound(1, 4, 1e5)) == OracleAnswer(False, BOUNDED)


def test_an_egd_clash_on_two_pool_facts_rules_out_every_candidate_holding_both():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    x, y = Var("x"), Var("y")
    c = ConstraintSet((EGD((Atom("H", (x,)), Atom("H", (y,))), x, y),))
    v = Instance(s, frozenset({Fact("V", (Const("a"),))}))
    models = list(_models(c, v, s, DomainBound(1, 4, 1e5)))
    assert [m.facts_of("H") for m in models] == [
        (), (Fact("H", (Const("!w0"),)),), (Fact("H", (Const("a"),)),)]


def test_pqi_holds_when_the_base_already_satisfies_the_query():
    q, c, s = toy()
    v = Instance(s, frozenset({Fact("R", (Const("a"),))}))
    q_visible = boolean_ucq([Atom("R", (Var("x"),))])
    assert oracle_pqi(q_visible, c, s, v, DomainBound(1, 8, 1e5)) == OracleAnswer(True, BOUNDED)


# ---------------------------------------------------------------------------
# the compiled triggers against the matcher


def _reference_compile(c, q, base, pool):
    """`_compile` through `find_homomorphisms` and `head_matches` alone."""
    top = base.with_facts(pool)
    bit = {f: 1 << i for i, f in enumerate(pool) if f not in base.facts}

    def outside(facts):
        return sum(bit.get(f, 0) for f in set(facts))

    triggers = set()
    for dep in c.dependencies:
        for h in find_homomorphisms(dep.body, top):
            if isinstance(dep, EGD):
                if _term_value(dep.left, h) == _term_value(dep.right, h):
                    continue
                supports = frozenset()
            else:
                supports = frozenset(outside(apply_hom(d.atoms, g))
                                     for d in dep.heads for g in head_matches(d, h, top))
                if 0 in supports:
                    continue
            triggers.add((outside(apply_hom(dep.body, h)), supports))
    matches = set()
    if q is not None and not q.free_vars:
        matches = {(outside(apply_hom(cq.atoms, h)), frozenset())
                   for cq in q.disjuncts for h in find_homomorphisms(cq.atoms, top)}
    return triggers, matches


def _filed(index):
    """An index as a set of (key, trigger) pairs, with the filing checked."""
    out = set()
    for key, triggers in index.items():
        assert len(set(triggers)) == len(triggers)
        for trigger in triggers:
            assert key == trigger[0] & -trigger[0]
            out.add(trigger)
    return out


_x, _y, _z, _u = Var("x"), Var("y"), Var("z"), Var("u")
_a = Const("a")


def _V(*args):
    return Atom("V", args)


def _H(*args):
    return Atom("H", args)


def _G(*args):
    return Atom("G", args)


_COMPILE_CASES = {
    "head-constant": TGD((_V(_x, _y),), (HeadDisjunct((), (_H(_y, _a),)),)),
    "repeated-variables": TGD((_V(_x, _x),), (HeadDisjunct((_u,), (_H(_u, _u),)),
                                              HeadDisjunct((), (_H(_x, _x),)))),
    "body-constant": TGD((_H(_a, _y),), (HeadDisjunct((_u,), (_H(_y, _u),)),)),
    "empty-head": TGD((_H(_x, _y),), (HeadDisjunct((), ()), HeadDisjunct((), (_G(_x),)))),
    "disjunctive-head": TGD((_H(_x, _y),), (HeadDisjunct((), (_G(_x),)),
                                            HeadDisjunct((_u,), (_H(_y, _u),)))),
    "support-in-base": TGD((_V(_x, _y),), (HeadDisjunct((), (_V(_y, _x),)),
                                           HeadDisjunct((), (_G(_y),)))),
    "existential-shadows-body": TGD((_V(_x, _y),), (HeadDisjunct((_y,), (_H(_x, _y),)),)),
    "two-atom-head": TGD((_V(_x, _y),), (HeadDisjunct((_u,), (_H(_x, _u), _G(_u))),)),
    "egd": EGD((_H(_x, _y),), _x, _y),
    "egd-constant": EGD((_G(_x),), _x, _a),
    "two-atom-body": TGD((_V(_x, _y), _H(_y, _z)), (HeadDisjunct((), (_G(_z),)),)),
}


def _compile_spaces():
    """(label, c, q, base, pool): every hand-written dependency, alone and
    all together, and seeded random problems with and without the
    multi-atom bodies of `pqi_to_nqi`, over their extension and superset
    spaces."""
    s = Schema((RelationDecl("V", 2, True), RelationDecl("H", 2, False),
                RelationDecl("G", 1, False)))
    v = Instance(s, frozenset(Fact("V", (Const(x), Const(y))) for x, y in ("ab", "bb", "ba")))
    q = boolean_ucq([_H(_x, _x)], [_G(_a)], [_V(_x, _y), _H(_y, _x)])
    d = DomainBound(extra_values=1)
    cases = [(name, ConstraintSet((dep,))) for name, dep in _COMPILE_CASES.items()]
    cases.append(("all", ConstraintSet(tuple(_COMPILE_CASES.values()))))
    for name, c in cases:
        yield name, c, q, _extension_space(v, s, d, (Const("a"),))
        yield name, c, q, _superset_space(v, s, d, (Const("a"),))
    for seed in range(60):
        q, c, s, v = _reference_problem(seed)
        if seed % 4 == 2:
            out = pqi_to_nqi(ProblemInstance(PQI, c, s, query=q, instance=v))
            q, c, s, v = out.query, out.constraints, out.schema, out.instance
        extra = tuple(map(Const, constant_names(c, q)))
        yield f"random{seed}", c, q, _extension_space(v, s, d, extra)
        yield f"random{seed}", c, q, _superset_space(v, v.schema, d, extra)


def test_compiled_triggers_equal_the_matcher_reference():
    nonempty = set()
    for label, c, q, (base, pool) in _compile_spaces():
        constraints, query = _compile(c, q, base, pool)
        want_constraints, want_query = _reference_compile(c, q, base, pool)
        assert _filed(constraints) == want_constraints, label
        assert _filed(query) == want_query, label
        if want_constraints:
            nonempty.add(label)
    # each hand-written case compiles some trigger, except the one whose
    # empty disjunct holds everywhere
    assert set(_COMPILE_CASES) - nonempty == {"empty-head"}


# ---------------------------------------------------------------------------
# pool facts that no answer can hold


def _tried(monkeypatch):
    """The pool bits that each search hands to `_combinations`, recorded."""
    seen = []
    combinations = oracle._combinations

    def recording(items, top):
        seen.append(list(items))
        return combinations(items, top)

    monkeypatch.setattr(oracle, "_combinations", recording)
    return seen


def _facts(pool, bits):
    return {pool[b.bit_length() - 1] for b in bits}


_w0 = Const("!w0")


def test_a_pool_fact_whose_lone_trigger_has_no_support_is_pruned(monkeypatch):
    # H(x) -> W(x) with W visible: H(a) has its support W(a) in the base,
    # H(!w0) has none; K(x) -> G(x): K(!w0) has the pool support G(!w0)
    s = Schema((RelationDecl("W", 1, True), RelationDecl("H", 1, False),
                RelationDecl("K", 1, False), RelationDecl("G", 1, False)))
    c = ConstraintSet((TGD((Atom("H", (_x,)),), (HeadDisjunct((), (Atom("W", (_x,)),)),)),
                       TGD((Atom("K", (_x,)),), (HeadDisjunct((), (Atom("G", (_x,)),)),))))
    v = Instance(s, frozenset({Fact("W", (_a,))}))
    d = DomainBound(1, 4, 1e5)
    tried = _tried(monkeypatch)
    models = list(_models(c, v, s, d))
    _, pool = _extension_space(v, s, d, ())
    assert _facts(pool, tried[0]) == set(pool) - {Fact("H", (_w0,))}
    assert models == [f for f in enumerate_extensions(v, s, d) if satisfies(c, f)]
    assert any(Fact("K", (_w0,)) in m.facts for m in models)


def test_a_one_fact_query_match_prunes_only_when_the_query_must_fail(monkeypatch):
    q, c, s = toy()  # R(x) -> H(x); q = exists x. H(x)
    v = Instance(s, frozenset({Fact("R", (_a,))}))
    d = DomainBound(1, 8, 1e5)
    tried = _tried(monkeypatch)
    assert oracle_pqi(q, c, s, v, d) == OracleAnswer(True, BOUNDED)
    assert oracle_nqi(q, c, s, v, d).answer is False
    assert oracle_owq(q, c, v, d) == OracleAnswer(True, BOUNDED)
    pqi, nqi, owq = tried
    hidden_pool = _extension_space(v, s, d, ())[1]
    assert _facts(hidden_pool, pqi) == set()
    assert _facts(hidden_pool, nqi) == {Fact("H", (_a,)), Fact("H", (_w0,))}
    assert _facts(_superset_space(v, s, d, ())[1], owq) == {Fact("R", (_w0,))}


def test_a_trigger_lying_in_the_base_ends_the_search_before_any_candidate(monkeypatch):
    def no_candidate(*args):
        raise AssertionError("tried a candidate")

    monkeypatch.setattr(oracle, "_violated", no_candidate)
    s = Schema((RelationDecl("V", 1, True), RelationDecl("W", 1, True),
                RelationDecl("H", 1, False)))
    v = Instance(s, frozenset({Fact("V", (_a,))}))
    d = DomainBound(1, 4, 1e5)
    # a TGD whose base trigger no completion can support (W is visible),
    # and an EGD clash in the base, which no superset mends either
    tgd = ConstraintSet((TGD((_V(_x),), (HeadDisjunct((), (Atom("W", (_x,)),)),)),))
    egd = ConstraintSet((EGD((_V(_x),), _x, Const("c")),))
    for c in (tgd, egd):
        assert oracle_realizable(c, s, v, d) == OracleAnswer(False, BOUNDED)
    assert oracle_owq(boolean_ucq([_H(_x)]), egd, v, d) == OracleAnswer(True, BOUNDED)
    # a query that the base satisfies, which a PQI or OWQ counterexample
    # must falsify
    no_constraints = ConstraintSet(())
    q = boolean_ucq([_V(_x)])
    assert oracle_pqi(q, no_constraints, s, v, d) == OracleAnswer(True, BOUNDED)
    assert oracle_owq(q, no_constraints, v, d) == OracleAnswer(True, BOUNDED)


def test_the_size_check_counts_the_pool_before_pruning():
    # the pool is the 16 H facts over {a, !w0, !w1, !w2}; each matches the
    # query that a PQI counterexample must falsify, so pruning leaves only
    # the empty candidate, yet the size is that of the whole pool
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 2, False)))
    q = boolean_ucq([_H(_x, _y)])
    c = ConstraintSet(())
    v = Instance(s, frozenset({Fact("V", (_a,))}))
    full = sum(math.comb(16, k) for k in range(5))
    with pytest.raises(SearchSpaceTooLarge) as exc:
        oracle_pqi(q, c, s, v, DomainBound(extra_values=3, max_facts_total=5, space_ceiling=full - 1))
    assert exc.value.size == full
    r = oracle_pqi(q, c, s, v, DomainBound(extra_values=3, max_facts_total=5, space_ceiling=full))
    assert r.answer is False and r.witness == v


def test_a_space_over_the_ceiling_builds_no_pool(monkeypatch):
    def unbuilt(self):
        raise AssertionError("built the pool of a space over the ceiling")

    monkeypatch.setattr(oracle._Pool, "_facts", property(unbuilt))
    q, c, s = toy()
    v = Instance(s, frozenset({Fact("R", (_a,))}))
    d = DomainBound(extra_values=8, max_facts_total=12, space_ceiling=10)
    for ask in (lambda: oracle_pqi(q, c, s, v, d), lambda: oracle_nqi(q, c, s, v, d),
                lambda: oracle_realizable(c, s, v, d), lambda: oracle_owq(q, c, v, d),
                lambda: next(enumerate_extensions(v, s, d)), lambda: next(enumerate_supersets(v, s, d))):
        with pytest.raises(SearchSpaceTooLarge):
            ask()
