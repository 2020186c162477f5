import random

import pytest

import differentials as D
from dqi.core import TGD, Atom, ClassError, ConstraintSet, EGD, HeadDisjunct, UCQ, Var
from dqi.problemgen import (
    random_boolean_query,
    random_id_constraints,
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
from dqi.textio import ProblemFile, parse, serialize


def pqi_problem(seed, disjuncts=2):
    rng = random.Random(seed)
    s = random_schema(rng)
    c = random_id_constraints(rng, s)
    q = UCQ(tuple(d for _ in range(disjuncts)
                  for d in random_boolean_query(rng, s).disjuncts))
    v = random_visible_instance(rng, s)
    return ProblemInstance(PQI, c, s, query=q, instance=v)


# ---------------------------------------------------------------------------
# structural contracts


def test_ucq_to_cq_structure():
    p = pqi_problem(1)
    out = ucq_to_cq(p)
    assert out.kind == PQI
    assert len(out.query.disjuncts) == 1
    # every source relation survives with one extra attribute
    for r in p.schema.relations:
        assert out.schema.by_name[r.name].arity == r.arity + 1
        assert out.schema.by_name[r.name].visible == r.visible


def test_ucq_to_cq_size_is_linear():
    for disjuncts in (1, 2, 4, 8):
        p = pqi_problem(2, disjuncts=disjuncts)
        out = ucq_to_cq(p)
        in_atoms = sum(len(d.atoms) for d in p.query.disjuncts)
        out_atoms = len(out.query.disjuncts[0].atoms)
        # one extra lookup atom per disjunct plus two boundary atoms
        assert out_atoms <= in_atoms + len(p.query.disjuncts) + 2


def test_ucq_to_cq_rejects_wrong_kind():
    p = pqi_problem(3)
    with pytest.raises(ValueError):
        ucq_to_cq(ProblemInstance(NQI, p.constraints, p.schema,
                                  query=p.query, instance=p.instance))


def test_disj_to_constants_eliminates_disjunction():
    rng = random.Random(11)
    q, c, s, v = random_linear_problem(rng, max_heads=3)
    out = disj_to_constants(ProblemInstance(EXISTS_PQI, c, s, query=q))
    assert out.kind == EXISTS_PQI
    assert all(len(t.heads) == 1 for t in out.constraints.tgds)


def test_disj_to_constants_rejects_egds():
    rng = random.Random(12)
    q, c, s, v = random_linear_problem(rng)
    from dqi.core import ConstraintSet

    r = s.visible_relations[0]
    xs = tuple(Var(f"x{i}") for i in range(r.arity))
    c2 = ConstraintSet(c.dependencies + (EGD((Atom(r.name, xs),), xs[0], xs[0]),))
    with pytest.raises(ClassError):
        disj_to_constants(ProblemInstance(EXISTS_PQI, c2, s, query=q))


def test_constant_encoding_lift_lands_on_the_schema_of_disj_to_constants():
    for seed in range(20):
        q, c, s, v = random_linear_problem(random.Random(seed), max_heads=3)
        p = ProblemInstance(EXISTS_PQI, c, s, query=q)
        lifted = constant_encoding_lift(p, v)
        assert lifted.schema == disj_to_constants(p).schema
        assert len(lifted.facts) >= len(v.facts) + 1


def test_constant_encoding_lift_rejects_egds_and_non_linear_sets():
    q, c, s, v = random_linear_problem(random.Random(12))
    r = s.visible_relations[0]
    xs = tuple(Var(f"x{i}") for i in range(r.arity))
    atom = Atom(r.name, xs)
    with_egd = ConstraintSet(c.dependencies + (EGD((atom,), xs[0], xs[0]),))
    two_atom_body = ConstraintSet(c.dependencies + (TGD((atom, atom), (HeadDisjunct((), (atom,)),)),))
    for bad in (with_egd, two_atom_body):
        with pytest.raises(ClassError):
            constant_encoding_lift(ProblemInstance(EXISTS_PQI, bad, s, query=q), v)


def test_pqi_to_nqi_adds_flag_machinery():
    p = pqi_problem(21)
    out = pqi_to_nqi(p)
    assert out.kind == NQI
    new = [r for r in out.schema.relations if r.name not in p.schema.by_name]
    assert {r.arity for r in new} == {0}
    assert {r.visible for r in new} == {True, False}


def test_pqi_to_nqi_connected_variant_has_connected_bodies():
    from dqi.core import CONNECTED_TAG

    p = pqi_problem(22)
    out = pqi_to_nqi(p, connected=True)
    assert CONNECTED_TAG in out.constraints.tags


def test_owq_to_pqi_hides_the_whole_source_schema():
    rng = random.Random(31)
    s = random_schema(rng)
    c = random_id_constraints(rng, s)
    q = random_boolean_query(rng, s)
    f = random_visible_instance(rng, s)
    out = owq_to_pqi(q, c, f)
    for r in s.relations:
        assert not out.schema.by_name[r.name].visible
    assert out.query == q


def test_nqi_to_realizability_and_back_round_trip_kinds():
    rng = random.Random(41)
    s = random_schema(rng)
    c = random_id_constraints(rng, s)
    q = random_boolean_query(rng, s)
    v = random_visible_instance(rng, s)
    mid = nqi_to_realizability(q, c, s, v)
    assert mid.kind == REALIZABILITY and mid.query is None
    back = realizability_to_nqi(mid.constraints, mid.schema, mid.instance)
    assert back.kind == NQI and back.query is not None


def test_exists_nqi_to_owq_requires_connected_bodies():
    from dqi.core import Atom, ConstraintSet, HeadDisjunct, TGD

    rng = random.Random(51)
    s = random_schema(rng, max_relations=2)
    r = s.relations[0]
    xs = tuple(Var(f"x{i}") for i in range(r.arity))
    ys = tuple(Var(f"y{i}") for i in range(r.arity))
    disconnected = ConstraintSet((
        TGD((Atom(r.name, xs), Atom(r.name, ys)),
            (HeadDisjunct((), (Atom(r.name, xs),)),)),
    ))
    q = random_boolean_query(rng, s)
    with pytest.raises(ClassError):
        exists_nqi_to_owq(q, disconnected, s)


# ---------------------------------------------------------------------------
# variables a reduction invents survive the text format

_COLLIDING = """dqi-1
schema { visible V/3; hidden H/2; }
constraints {
  V(tv, w, tv0) -> H(tv, w);
  V(tv0, tv1, e0_y) -> exists y. H(y, e0_y) | H(tv1, tv0);
}
query Q { exists w, tv. H(w, tv) }
instance I { V(a, b, a). }
"""


@pytest.mark.parametrize("reduce", [
    lambda p: ucq_to_cq(ProblemInstance(PQI, p.constraints, p.schema, query=p.queries["Q"],
                                        instance=p.instances["I"])),
    lambda p: pqi_to_nqi(ProblemInstance(PQI, p.constraints, p.schema, query=p.queries["Q"],
                                         instance=p.instances["I"]), connected=True),
    lambda p: disj_to_constants(ProblemInstance(EXISTS_PQI, p.constraints, p.schema,
                                                query=p.queries["Q"])),
], ids=["ucq2cq", "pqi2nqi-connected", "disj2const"])
def test_reduced_problem_round_trips_through_the_text_format(reduce):
    out = reduce(parse(_COLLIDING))
    queries = {"Q": out.query}
    instances = {} if out.instance is None else {"V": out.instance}
    again = parse(serialize(ProblemFile(out.schema, out.constraints, queries, instances)))
    assert again.constraints == out.constraints
    assert again.queries == queries
    assert again.instances == instances


# ---------------------------------------------------------------------------
# differential spot checks (the full 50-case suites run in the acceptance
# tests; these small runs keep per-reduction failures attributable)


@pytest.mark.parametrize("name", sorted(D.ALL))
def test_reduction_differential_spot(name):
    checked, skipped = D.ALL[name](range(900, 910))
    assert checked + skipped == 10
    assert checked > 0
