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
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    UCQ,
    Var,
)
from dqi.problemgen import (
    random_boolean_query,
    random_linear_constraints,
    random_schema,
    random_visible_instance,
)
from dqi.textio import ParseError, ProblemFile, parse, serialize, emit_gnfo

from conftest import load_fixture


def test_parse_medical_fixture():
    pf = load_fixture("medical.dqi")
    assert {r.name for r in pf.schema.relations} == {"Patient", "Appointment"}
    assert pf.schema.by_name["Patient"].visible
    assert not pf.schema.by_name["Appointment"].visible
    assert len(pf.constraints.dependencies) == 2
    assert set(pf.queries) == {"Q"}
    assert set(pf.instances) == {"Vempty", "Vsmith"}
    assert not pf.instances["Vempty"].facts
    assert len(pf.instances["Vsmith"].facts) == 1


def test_parse_query_constants_and_existentials():
    pf = load_fixture("medical.dqi")
    q = pf.queries["Q"]
    (d,) = q.disjuncts
    assert not d.free_vars
    consts = {t.name for a in d.atoms for t in a.args if isinstance(t, Const)}
    assert consts == {"Smith", "Jones"}


def test_parse_reads_a_formula_constant_as_the_value_it_names():
    pf = parse('dqi-1\nschema { visible R/2; }\nquery Q { exists x. R("Smith", x) }\ninstance V { R(Smith, b). }\n')
    (atom,) = pf.queries["Q"].disjuncts[0].atoms
    (fact,) = pf.instances["V"].facts
    assert atom.args[0] == fact.args[0] == Const("Smith")
    assert hash(atom.args[0]) == hash(fact.args[0])


def test_roundtrip_fixtures():
    for name in ("medical.dqi", "separation.dqi", "controllability.dqi"):
        pf = load_fixture(name)
        again = parse(serialize(pf))
        assert again.schema == pf.schema
        assert again.constraints == pf.constraints
        assert again.queries == pf.queries
        assert again.instances == pf.instances


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_roundtrip_random_problem_files(seed):
    rng = random.Random(seed)
    s = random_schema(rng, max_relations=4, max_arity=3)
    c = random_linear_constraints(rng, s, max_deps=3, max_heads=2)
    q = random_boolean_query(rng, s)
    v = random_visible_instance(rng, s, adom=2, density=0.4)
    pf = ProblemFile(s, c, {"Q": q}, {"V": v})
    text = serialize(pf)
    again = parse(text)
    assert again.schema == pf.schema
    assert again.constraints == pf.constraints
    assert again.queries == pf.queries
    assert again.instances == pf.instances
    # serialization is a normal form: serializing again is the identity
    assert serialize(again) == text


def test_parse_rejects_unknown_relation():
    with pytest.raises((ParseError, SchemaError)):
        parse("""
        dqi-1
        schema { visible R/1; }
        query Q { exists x. Unknown(x) }
        """)


def test_parse_rejects_arity_mismatch():
    with pytest.raises((ParseError, SchemaError)):
        parse("""
        dqi-1
        schema { visible R/2; }
        instance V { R(a). }
        """)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse("this is not a problem file")


def test_comments_and_null_values():
    pf = parse("""
    # a comment
    dqi-1
    schema { visible R/2; }
    instance V { R(a, ?3). }  # trailing comment
    """)
    (f,) = pf.instances["V"].facts
    assert f.args[0] == Const("a")
    assert f.args[1].id == 3


def test_emit_gnfo_mentions_schema_and_polarity():
    pf = load_fixture("medical.dqi")
    text_p = emit_gnfo("PQI", pf.queries["Q"], pf.constraints, pf.schema,
                       pf.instances["Vsmith"])
    text_n = emit_gnfo("NQI", pf.queries["Q"], pf.constraints, pf.schema,
                       pf.instances["Vsmith"])
    assert "Patient" in text_p and "Appointment" in text_p
    assert text_p != text_n


@pytest.mark.parametrize("text, where", [
    ("query Q { exists X. H(X) }", (3, 18)),
    ("query Q { exists ;. H(x) }", (3, 18)),
    ("constraints { V(x) -> exists x, Y. H(Y); }", (3, 33)),
])
def test_parse_rejects_a_binder_that_is_not_a_variable(text, where):
    with pytest.raises(ParseError) as err:
        parse("dqi-1\nschema { visible V/1; hidden H/1; }\n" + text + "\n")
    assert (err.value.line, err.value.col) == where


def test_serialize_refuses_a_variable_that_reads_back_as_a_constant():
    s = Schema((RelationDecl("V", 1, True), RelationDecl("H", 1, False)))
    for x in (Var("_tv"), Var("X")):
        c = ConstraintSet((TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("H", (x,)),)),)),))
        with pytest.raises(ValueError):
            serialize(ProblemFile(s, c))
        q = UCQ((CQ((), (x,), (Atom("H", (x,)),)),))
        with pytest.raises(ValueError):
            serialize(ProblemFile(s, ConstraintSet(()), {"Q": q}))


def test_roundtrip_the_name_exists():
    # `exists` opens a binder list only when a name follows it, so it also
    # serves as a relation name and as a variable on an EGD's left side
    s = Schema((RelationDecl("V", 1, True), RelationDecl("exists", 1, False)))
    x, e = Var("x"), Var("exists")
    c = ConstraintSet((
        TGD((Atom("V", (x,)),), (HeadDisjunct((), (Atom("exists", (x,)),)),)),
        EGD((Atom("exists", (e,)), Atom("V", (x,))), e, x),
    ))
    queries = {
        "Q": UCQ((CQ((), (x,), (Atom("exists", (x,)),)),)),
        "F": UCQ((CQ((x,), (), (Atom("exists", (x,)),)),)),
    }
    pf = ProblemFile(s, c, queries)
    again = parse(serialize(pf))
    assert again.schema == s
    assert again.constraints == c
    assert again.queries == queries


def test_roundtrip_lowercase_formula_constants():
    # in a formula a bare lowercase name reads back as a variable, so every
    # formula constant is written quoted; instance values stay bare
    s = Schema((RelationDecl("V", 2, True), RelationDecl("H", 1, False)))
    x, y, k, jones = Var("x"), Var("y"), Const("k"), Const("jones")
    c = ConstraintSet((
        TGD((Atom("V", (x, y)),), (HeadDisjunct((), (Atom("H", (k,)),)),)),
        EGD((Atom("V", (x, y)),), x, jones),
    ))
    queries = {"Q": UCQ((CQ((), (x,), (Atom("V", (x, jones)),)),))}
    instances = {"I": Instance(s, frozenset({Fact("V", (jones, k))}))}
    text = serialize(ProblemFile(s, c, queries, instances))
    assert 'H("k")' in text and 'x = "jones"' in text and 'V(x, "jones")' in text
    assert "V(jones, k)." in text
    again = parse(text)
    assert again.constraints == c
    assert again.queries == queries
    assert again.instances == instances


def test_parse_reports_the_position_of_a_duplicate_instance():
    with pytest.raises(ParseError) as err:
        parse("dqi-1\nschema { visible V/1; }\ninstance I { V(a). }\n  instance I { V(b). }\n")
    assert (err.value.line, err.value.col) == (4, 3)
    assert "duplicate instance I" in str(err.value)
