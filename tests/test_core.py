import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi.core import (
    Atom,
    CQ,
    Const,
    ConstraintSet,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    Null,
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    UCQ,
    Var,
    active_domain,
    apply_hom,
    bind,
    boolean_cq,
    boolean_ucq,
    canonical_db,
    canonical_query,
    components,
    critical_instance,
    eval_ucq,
    find_homomorphisms,
    match_fact,
    matched_facts,
    normalize_single_head,
    satisfies,
)
from dqi.core import (
    CONNECTED_TAG,
    CONST_TAG,
    DISJ_TAG,
    EGD_TAG,
    FGTGD_TAG,
    ID_TAG,
    LINEAR_TAG,
)
from dqi.chase import A_MARK
from dqi.problemgen import random_id_problem, random_visible_instance, random_schema


def simple_schema():
    return Schema((
        RelationDecl("R", 2, True),
        RelationDecl("S", 1, True),
        RelationDecl("H", 2, False),
    ))


def inst(s, *facts):
    return Instance(s, frozenset(facts))


# ---------------------------------------------------------------------------
# values, variables and facts


def _mixed_terms():
    a = Const("a")
    return [Const("x"), Var("x"), Const("1"), Null(1), Fact("R", (a,)), Atom("R", (a,)), a, Var("a")]


def test_values_of_different_kinds_are_never_equal():
    assert Const("x") != Var("x") and Var("x") != Const("x")
    assert Const("1") != Null(1) and Null(1) != Const("1")
    assert Fact("R", (Const("a"),)) != Atom("R", (Const("a"),))
    assert Atom("R", (Const("a"),)) != Fact("R", (Const("a"),))
    terms = _mixed_terms()
    assert len(set(terms)) == len(terms)


def test_value_hashes_agree_with_equality():
    for t, u in zip(_mixed_terms(), _mixed_terms()):
        assert t == u and hash(t) == hash(u)
    # the representation: a constant is its name's `str`, a variable and a
    # fact are tuples of their fields; `Null` and `Atom` stay dataclasses,
    # so that no null equals an equality pattern and no atom a fact
    assert Const("a") == "a" and Var("x") == ("x",)
    assert Fact("R", (Const("a"),)) == ("R", (Const("a"),))
    assert dataclasses.is_dataclass(Null) and dataclasses.is_dataclass(Atom)


def test_value_text_is_unchanged():
    a, x, f = Const("a"), Var("x"), Fact("R", (Const("a"), Null(1)))
    assert repr(a) == str(a) == f"{a}" == "{}".format(a) == "Const('a')"
    assert repr(x) == str(x) == f"{x}" == "Var('x')"
    assert repr(f) == str(f) == f"{f}" == "Fact(relation='R', args=(Const('a'), Null(1)))"
    assert type(a.name) is str and a.name == "a"
    assert repr(Const("it's")) == 'Const("it\'s")'


def test_values_survive_pickling():
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        for t in _mixed_terms():
            back = pickle.loads(pickle.dumps(t, proto))
            assert back == t and type(back) is type(t) and repr(back) == repr(t)


# ---------------------------------------------------------------------------
# query evaluation


def test_eval_ucq_true_and_open():
    s = simple_schema()
    i = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("S", (Const("a"),)))
    q_hit = boolean_ucq([Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("x"),))])
    q_miss = boolean_ucq([Atom("R", (Var("x"), Var("x"))),])
    assert eval_ucq(q_hit, i) is True
    assert eval_ucq(q_miss, i) is False


def test_eval_ucq_union_takes_any_disjunct():
    s = simple_schema()
    i = inst(s, Fact("S", (Const("a"),)))
    q = boolean_ucq([Atom("R", (Var("x"), Var("y")))], [Atom("S", (Var("z"),))])
    assert eval_ucq(q, i) is True


def test_eval_ucq_constant_must_match():
    s = simple_schema()
    i = inst(s, Fact("S", (Const("a"),)))
    assert eval_ucq(boolean_ucq([Atom("S", (Const("a"),))]), i) is True
    assert eval_ucq(boolean_ucq([Atom("S", (Const("b"),))]), i) is False


def test_cq_rejects_unused_free_variable():
    with pytest.raises(SchemaError):
        CQ((Var("x"),), (), (Atom("S", (Var("y"),)),))


# ---------------------------------------------------------------------------
# homomorphisms


def test_find_homomorphisms_enumerates_all():
    s = simple_schema()
    i = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("R", (Const("b"), Const("b"))))
    homs = list(find_homomorphisms((Atom("R", (Var("x"), Var("y"))),), i))
    assert len(homs) == 2
    assert {(h[Var("x")], h[Var("y")]) for h in homs} == {
        (Const("a"), Const("b")),
        (Const("b"), Const("b")),
    }


def test_find_homomorphisms_repeated_variable():
    s = simple_schema()
    i = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("R", (Const("b"), Const("b"))))
    homs = list(find_homomorphisms((Atom("R", (Var("x"), Var("x"))),), i))
    assert [h[Var("x")] for h in homs] == [Const("b")]


def test_find_homomorphisms_seed_pins_variable():
    s = simple_schema()
    i = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("R", (Const("b"), Const("b"))))
    homs = list(find_homomorphisms((Atom("R", (Var("x"), Var("y"))),), i,
                                   seed={Var("x"): Const("a")}))
    assert len(homs) == 1 and homs[0][Var("y")] == Const("b")


def test_find_homomorphisms_join_consistency():
    s = simple_schema()
    i = inst(
        s,
        Fact("R", (Const("a"), Const("b"))),
        Fact("S", (Const("b"),)),
        Fact("R", (Const("c"), Const("d"))),
    )
    atoms = (Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("y"),)))
    homs = list(find_homomorphisms(atoms, i))
    assert len(homs) == 1 and homs[0][Var("x")] == Const("a")


def test_find_homomorphisms_order_is_pinned():
    # node ids and witnesses follow this order: the most constrained atom
    # first, candidates in fact order, keys in binding order
    s = Schema((RelationDecl("R", 2, True), RelationDecl("S", 1, True),
                RelationDecl("T", 2, False)))
    a, b, c, d = (Const(n) for n in "abcd")
    i = inst(s, Fact("R", (a, b)), Fact("R", (b, c)), Fact("R", (c, a)), Fact("R", (a, a)),
             Fact("S", (b,)), Fact("S", (a,)), Fact("T", (b, d)), Fact("T", (a, c)),
             Fact("T", (a, d)))
    x, y, z = Var("x"), Var("y"), Var("z")
    homs = list(find_homomorphisms(
        (Atom("R", (x, y)), Atom("T", (y, z)), Atom("S", (y,))), i))
    assert [[h[v].name for v in (x, y, z)] for h in homs] == [
        ["a", "a", "c"], ["c", "a", "c"], ["a", "a", "d"], ["c", "a", "d"], ["a", "b", "d"]]
    assert all(list(h) == [y, z, x] for h in homs)


def test_matched_facts_are_the_images_of_the_single_atom_matches():
    # every atom of R over two variables, a constant and a repeat, under
    # every seed of those variables: the same facts in the same order
    s = Schema((RelationDecl("R", 3, True), RelationDecl("S", 1, True)))
    a, b, c = Const("a"), Const("b"), Const("c")
    rng = random.Random(7)
    i = inst(s, *{Fact("R", tuple(rng.choice((a, b, c, Null(1))) for _ in range(3)))
                  for _ in range(20)}, Fact("S", (a,)))
    x, y = Var("x"), Var("y")
    seeds = [{v: val for v, val in zip((x, y), vals) if val is not None}
             for vals in itertools.product((None, a, Null(1)), (None, b))]
    found = 0
    for args in itertools.product((x, y, a, c), repeat=3):
        atom = Atom("R", args)
        for seed in seeds:
            got = matched_facts(atom, i, seed)
            assert got == [apply_hom((atom,), h)[0] for h in find_homomorphisms((atom,), i, seed)]
            found += len(got)
    assert found > 100
    assert matched_facts(Atom("S", (x, y)), i, {}) == []


def test_match_fact_binds_a_repeated_variable_once():
    x, y = Var("x"), Var("y")
    a, b = Const("a"), Const("b")
    atom = Atom("R", (x, x, y))
    assert match_fact(atom, Fact("R", (a, a, b)), {}) == {x: a, y: b}
    assert match_fact(atom, Fact("R", (a, b, b)), {}) is None
    assert match_fact(atom, Fact("S", (a, a, b)), {}) is None


def test_match_fact_checks_a_constant():
    x = Var("x")
    atom = Atom("R", (Const("k"), x))
    assert match_fact(atom, Fact("R", (Const("k"), Const("a"))), {}) == {x: Const("a")}
    assert match_fact(atom, Fact("R", (Const("j"), Const("a"))), {}) is None
    assert match_fact(atom, Fact("R", (Null(1), Const("a"))), {}) is None


def test_match_fact_extends_the_seed_and_rejects_a_conflict():
    x, y, z = Var("x"), Var("y"), Var("z")
    a, b = Const("a"), Const("b")
    seed = {z: b, x: a}
    atom = Atom("R", (x, y))
    m = match_fact(atom, Fact("R", (a, b)), seed)
    assert m == {z: b, x: a, y: b} and list(m) == [z, x, y]
    assert seed == {z: b, x: a}
    assert match_fact(atom, Fact("R", (b, b)), seed) is None


def test_bind_skips_a_none_value():
    x, y = Var("x"), Var("y")
    a = Const("a")
    assert bind((x, y, x), (None, a, None), {}) == {y: a}
    assert bind((Const("k"), x), (None, None), {y: a}) == {y: a}


def test_bind_meets_a_constant_only_with_itself():
    x = Var("x")
    k = Const("k")
    assert bind((k, x), (k, Const("a")), {}) == {x: Const("a")}
    assert bind((k,), (Const("j"),), {}) is None
    assert bind((k,), (Null(1),), {}) is None
    assert bind((k,), (1,), {}) is None


def test_bind_reads_pattern_entries_as_fact_values():
    x, y, z = Var("x"), Var("y"), Var("z")
    k = Const("k")
    assert bind((x, y, x, z), (1, A_MARK, 1, k), {}) == {x: 1, y: A_MARK, z: k}
    assert bind((x, x), (1, 2), {}) is None
    assert bind((x, k), (A_MARK, k), {}) == {x: A_MARK}
    assert bind((k, x), (A_MARK, 1), {}) is None
    seed = {x: 2}
    assert bind((x, y), (2, 1), seed) == {x: 2, y: 1} and seed == {x: 2}
    assert bind((x,), (1,), seed) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_reported_homomorphism_maps_atoms_to_facts(seed):
    rng = random.Random(seed)
    s = random_schema(rng)
    i = random_visible_instance(rng, s, adom=3, density=0.4)
    rel = rng.choice(list(s.relations))
    atoms = (Atom(rel.name, tuple(Var(f"v{k}") for k in range(rel.arity))),)
    for h in find_homomorphisms(atoms, i):
        assert all(f in i.facts for f in apply_hom(atoms, h))


# ---------------------------------------------------------------------------
# constraint satisfaction


def test_satisfies_tgd():
    s = simple_schema()
    t = TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),))
    c = ConstraintSet((t,))
    good = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("S", (Const("a"),)))
    bad = inst(s, Fact("R", (Const("a"), Const("b"))))
    assert satisfies(c, good)
    assert not satisfies(c, bad)


def test_satisfies_existential_head():
    s = simple_schema()
    t = TGD((Atom("S", (Var("x"),)),),
            (HeadDisjunct((Var("y"),), (Atom("R", (Var("x"), Var("y"))),)),))
    c = ConstraintSet((t,))
    good = inst(s, Fact("S", (Const("a"),)), Fact("R", (Const("a"), Const("q"))))
    bad = inst(s, Fact("S", (Const("a"),)), Fact("R", (Const("b"), Const("a"))))
    assert satisfies(c, good)
    assert not satisfies(c, bad)


def test_satisfies_disjunctive_head_needs_one_disjunct():
    s = simple_schema()
    t = TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),
             HeadDisjunct((), (Atom("S", (Var("y"),)),))))
    c = ConstraintSet((t,))
    assert satisfies(c, inst(s, Fact("R", (Const("a"), Const("b"))), Fact("S", (Const("b"),))))
    assert not satisfies(c, inst(s, Fact("R", (Const("a"), Const("b")))))


# ---------------------------------------------------------------------------
# classification


def test_classify_inclusion_dependencies():
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),)),
    ))
    tags = c.tags
    assert ID_TAG in tags and LINEAR_TAG in tags and FGTGD_TAG in tags
    assert DISJ_TAG not in tags and CONST_TAG not in tags and EGD_TAG not in tags


def test_classify_repeated_variable_is_not_id():
    c = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("x"))),),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),)),
    ))
    tags = c.tags
    assert ID_TAG not in tags and LINEAR_TAG in tags


def test_classify_constants_and_disjunction():
    c = ConstraintSet((
        TGD((Atom("S", (Const("a"),)),),
            (HeadDisjunct((), (Atom("S", (Const("a"),)),)),
             HeadDisjunct((), (Atom("R", (Const("a"), Const("a"))),)))),
    ))
    tags = c.tags
    assert CONST_TAG in tags and DISJ_TAG in tags


def test_classify_connected_bodies():
    connected = ConstraintSet((
        TGD((Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("y"),))),
            (HeadDisjunct((), (Atom("S", (Var("x"),)),)),)),
    ))
    disconnected = ConstraintSet((
        TGD((Atom("S", (Var("x"),)), Atom("S", (Var("y"),))),
            (HeadDisjunct((), (Atom("R", (Var("x"), Var("y"))),)),)),
    ))
    disconnected_egd = ConstraintSet(connected.dependencies + (
        EGD((Atom("S", (Var("x"),)), Atom("S", (Var("y"),))), Var("x"), Var("y")),
    ))
    assert CONNECTED_TAG in connected.tags
    assert CONNECTED_TAG not in disconnected.tags
    assert CONNECTED_TAG not in disconnected_egd.tags


def test_components_link_items_through_shared_keys():
    items = ["ab", "c", "", "bd", "ce", "f"]
    assert components(items, set) == [["ab", "bd"], ["c", "ce"], [""], ["f"]]
    # a late item joins two earlier classes, which keep the order of items
    assert components(["a", "b", "c", "ab"], set) == [["a", "b", "ab"], ["c"]]
    assert components([], set) == []


# ---------------------------------------------------------------------------
# canonical structures


def test_canonical_db_and_query_roundtrip():
    s = simple_schema()
    q = boolean_cq([Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("x"),))])
    db = canonical_db(q, s)
    assert len(db.facts) == 2
    back = canonical_query(db)
    i = inst(s, Fact("R", (Const("a"), Const("b"))), Fact("S", (Const("a"),)))
    assert eval_ucq(UCQ((back,)), i) is True


def test_critical_instance_covers_visible_relations_only():
    s = simple_schema()
    crit = critical_instance(s, Const("a"))
    assert crit.facts == frozenset({
        Fact("R", (Const("a"), Const("a"))),
        Fact("S", (Const("a"),)),
    })


def test_normalize_single_head_preserves_models():
    s = simple_schema()
    # R(x,y) -> exists z. H(x,z) & S(x): a two-atom head to split
    t = TGD((Atom("R", (Var("x"), Var("y"))),),
            (HeadDisjunct((Var("z"),), (Atom("H", (Var("x"), Var("z"))),
                                        Atom("S", (Var("x"),)))),))
    c0, s0 = normalize_single_head(ConstraintSet((t,)), s)
    assert all(len(h.atoms) == 1 for d in c0.tgds for h in d.heads)
    aux = [r for r in s0.relations if r.name not in s.by_name]
    assert len(aux) == 1 and not aux[0].visible
    # a model of the normalized set restricted to the source schema is a
    # model of the original constraint
    base = inst(s, Fact("R", (Const("a"), Const("b"))),
                Fact("H", (Const("a"), Const("w"))), Fact("S", (Const("a"),)))
    assert satisfies(ConstraintSet((t,)), base)
    for lifted_facts in _aux_liftings(base, aux[0]):
        lifted = Instance(s0, base.facts | lifted_facts)
        if satisfies(c0, lifted):
            break
    else:
        raise AssertionError("no lifting of a genuine model satisfies the split set")


def _aux_liftings(base, aux_decl):
    import itertools

    dom = sorted({v.name for f in base.facts for v in f.args if isinstance(v, Const)})
    for tup in itertools.product(dom, repeat=aux_decl.arity):
        yield {Fact(aux_decl.name, tuple(Const(n) for n in tup))}


def test_active_domain_and_instance_helpers():
    s = simple_schema()
    i = inst(s, Fact("R", (Const("a"), Null(1))), Fact("H", (Const("b"), Const("b"))))
    assert active_domain(i) == frozenset({Const("a"), Null(1), Const("b")})
    assert i.visible().facts == frozenset({Fact("R", (Const("a"), Null(1)))})
    assert i.with_facts([Fact("S", (Const("c"),))]).facts_of("S")


def test_derive_validates_the_facts_it_adds():
    s = simple_schema()
    a, b = Const("a"), Const("b")
    fresh = inst(s, Fact("R", (a, b)), Fact("S", (a,)))
    searched = inst(s, Fact("R", (a, b)), Fact("S", (a,)))
    assert list(find_homomorphisms([Atom("R", (Var("x"), Var("y")))], searched))  # builds its match state
    for base in (fresh, searched):
        with pytest.raises(SchemaError):
            base.with_facts([Fact("R", (a,))])
        with pytest.raises(SchemaError):
            base.with_facts([Fact("T", (a,))])
        with pytest.raises(SchemaError):
            base.derive([Fact("R", (a, b))], [Fact("S", (a, b))])
        child = base.derive([Fact("R", (a, b))], [Fact("R", (b, a)), Fact("H", (a, a))])
        assert child.facts == {Fact("S", (a,)), Fact("R", (b, a)), Fact("H", (a, a))}
        assert child.derive([], [Fact("S", (a,))]) is child


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_satisfies_is_invariant_under_single_head_normalization_on_models(seed):
    # any completion found by the brute-force enumerator for the original
    # constraints extends to the normalized schema and vice versa at the
    # level of answers; here we check the cheap direction on random models
    rng = random.Random(seed)
    q, c, s, v = random_id_problem(rng)
    c0, s0 = normalize_single_head(c, s)
    assert {r.name for r in s.relations} <= {r.name for r in s0.relations}
    assert all(len(h.atoms) == 1 for d in c0.tgds for h in d.heads)
