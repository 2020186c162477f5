"""Answer-preserving transformations between the decision problems.

Every function here is pure: it reads a problem description and returns a
new one over a fresh schema, never mutating its inputs.  Relations
introduced by a reduction are prefixed "_aux_" and collision-checked
against the input schema; fresh data values are likewise checked against
the input's active domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .core import (
    CQ,
    UCQ,
    Atom,
    ClassError,
    Const,
    ConstraintSet,
    Dependency,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    Var,
    active_domain,
    apply_subst,
    canonical_db,
    canonical_query,
    constant_names,
    fresh_name,
    ground_nulls,
    require_empty_collapse,
    value_key,
)


# ---------------------------------------------------------------------------
# problem descriptions

PQI = "PQI"
NQI = "NQI"
EXISTS_PQI = "ExistsPQI"
EXISTS_NQI = "ExistsNQI"
OWQ = "OWQ"
REALIZABILITY = "Realizability"

_KINDS = (PQI, NQI, EXISTS_PQI, EXISTS_NQI, OWQ, REALIZABILITY)
_NEEDS_QUERY = (PQI, NQI, EXISTS_PQI, EXISTS_NQI, OWQ)
_NEEDS_INSTANCE = (PQI, NQI, OWQ, REALIZABILITY)


@dataclass(frozen=True)
class ProblemInstance:
    """A decision problem bundled with its payload.

    `instance` is the visible instance for the instance-level implication
    and realizability problems, and the given (full) instance for
    open-world query answering; the existence problems carry none.
    """

    kind: str
    constraints: ConstraintSet
    schema: Schema
    query: Optional[UCQ] = None
    instance: Optional[Instance] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown problem kind {self.kind!r}")
        if (self.query is None) == (self.kind in _NEEDS_QUERY):
            raise SchemaError(f"{self.kind} problems {'need a' if self.query is None else 'take no'} query")
        if (self.instance is None) == (self.kind in _NEEDS_INSTANCE):
            raise SchemaError(f"{self.kind} problems {'need an' if self.instance is None else 'take no'} instance")


def _require_kind(p: ProblemInstance, kind: str) -> None:
    if p.kind != kind:
        raise SchemaError(f"expected a {kind} problem, got {p.kind}")


# ---------------------------------------------------------------------------
# fresh-name helpers


def _fresh_relation(base: str, taken: Set[str]) -> str:
    return fresh_name(f"_aux_{base}", taken)


def _fresh_value_names(count: int, taken: Set[str], stem: str) -> List[str]:
    return [fresh_name(f"{stem}{i}", taken) for i in range(count)]


def _adom_names(values) -> Set[str]:
    return {v.name for v in values if isinstance(v, Const)}


def _fresh_var(base: str, taken: Set[Var]) -> Var:
    """`base`, or `base_1`, `base_2`, ... if taken: a lowercase name, which
    the text format reads back as a variable."""
    v = Var(base)
    k = 0
    while v in taken:
        k += 1
        v = Var(f"{base}_{k}")
    taken.add(v)
    return v


def _dep_vars(dep: Dependency) -> Set[Var]:
    out: Set[Var] = set()
    if isinstance(dep, TGD):
        atoms = list(dep.body) + [a for h in dep.heads for a in h.atoms]
        for h in dep.heads:
            out.update(h.exist_vars)
    else:
        atoms = list(dep.body)
        out.update(t for t in (dep.left, dep.right) if isinstance(t, Var))
    out.update(t for a in atoms for t in a.args if isinstance(t, Var))
    return out


def _extend_atom(a: Atom, extra) -> Atom:
    return Atom(a.relation, a.args + (extra,))


def _map_atoms(dep: Dependency, f: Callable[[Atom], Atom]) -> Dependency:
    """The same dependency with `f` applied to every atom."""
    body = tuple(f(a) for a in dep.body)
    if isinstance(dep, EGD):
        return EGD(body, dep.left, dep.right)
    return TGD(body, tuple(HeadDisjunct(h.exist_vars, tuple(f(a) for a in h.atoms)) for h in dep.heads))


# ---------------------------------------------------------------------------
# 1. union query -> conjunctive query (positive implication, instance level)


def ucq_to_cq(p: ProblemInstance) -> ProblemInstance:
    """Replace a union query by a single conjunctive query.

    Every relation gets one extra truth-value attribute that the rewritten
    constraints propagate unchanged; a three-row visible lookup table lets
    the conjunctive query evaluate the disjunction of the per-disjunct
    truth values, and visible all-padding rows keep every rewritten
    disjunct satisfiable.  Linear-size and class-preserving.
    """
    _require_kind(p, PQI)
    q, c, s, v = p.query, p.constraints, p.schema, p.instance
    assert q is not None and v is not None

    taken_rel = set(s.by_name)
    or_name = _fresh_relation("or", taken_rel)
    zero_name = _fresh_relation("zero", taken_rel)
    one_name = _fresh_relation("one", taken_rel)
    relations = tuple(RelationDecl(r.name, r.arity + 1, r.visible) for r in s.relations) + (
        RelationDecl(or_name, 3, True),
        RelationDecl(zero_name, 1, True),
        RelationDecl(one_name, 1, True),
    )
    s2 = Schema(relations)

    deps: List[Dependency] = []
    for dep in c.dependencies:
        b = _fresh_var("tv", _dep_vars(dep))
        deps.append(_map_atoms(dep, lambda a: _extend_atom(a, b)))

    # the truth value 0 doubles as the padding value; one linear rule per
    # hidden relation forces its all-0 padding row into every completion,
    # keeping each rewritten disjunct satisfiable at truth value 0
    for r in s.hidden_relations:
        bvar = Var("tv")
        deps.append(TGD((Atom(zero_name, (bvar,)),),
                        (HeadDisjunct((), (Atom(r.name, (bvar,) * (r.arity + 1)),)),)))
    c2 = ConstraintSet(tuple(deps))

    taken_vals = _adom_names(active_domain(v))
    val_zero, val_one = _fresh_value_names(2, taken_vals, "")
    zero, one = Const(val_zero), Const(val_one)

    # the full truth table of z = x or y; the all-0 row lets the evaluation
    # chain pass over false disjuncts that precede the first true one
    facts = {
        Fact(or_name, (one, one, one)),
        Fact(or_name, (one, zero, one)),
        Fact(or_name, (zero, one, one)),
        Fact(or_name, (zero, zero, zero)),
        Fact(zero_name, (zero,)),
        Fact(one_name, (one,)),
    }
    for r in s.visible_relations:
        facts.add(Fact(r.name, (zero,) * (r.arity + 1)))
    for f in v.facts:
        facts.add(Fact(f.relation, f.args + (one,)))
    v2 = Instance(s2, frozenset(facts))

    # chained disjunction evaluation; disjunct variables are renamed apart
    # because the original disjuncts are independently scoped
    atoms: List[Atom] = []
    exist: List[Var] = []
    c_prev = Var("acc0")
    exist.append(c_prev)
    atoms.append(Atom(zero_name, (c_prev,)))
    for i, d in enumerate(q.disjuncts):
        ren = {x: Var(f"d{i}_{x.name}") for x in d.variables}
        b_i, c_i = Var(f"tv{i}"), Var(f"acc{i + 1}")
        exist.extend([b_i, c_i])
        exist.extend(ren.values())
        atoms.extend(_extend_atom(apply_subst(a, ren), b_i) for a in d.atoms)
        atoms.append(Atom(or_name, (c_prev, b_i, c_i)))
        c_prev = c_i
    atoms.append(Atom(one_name, (c_prev,)))
    q2 = UCQ((CQ((), tuple(exist), tuple(atoms)),))
    return ProblemInstance(PQI, c2, s2, query=q2, instance=v2)


# ---------------------------------------------------------------------------
# 2. disjunctive heads -> constants (existence of a positive implication)


def disj_to_constants(p: ProblemInstance) -> ProblemInstance:
    """Eliminate head disjunctions from linear TGDs at the price of the
    constants 0 and 1.

    Each disjunctive rule asserts all of its disjuncts at once, tagging
    every disjunct with a truth-value variable and requiring the vector of
    tags to appear in a visible lookup table holding exactly the vectors
    with at least one 1.  Per lookup width, a hidden relation seeded through
    the table certifies the value 1, so the rewritten query can insist its
    atoms are genuinely present: a corrupted table row without a 1 would let
    an adversarial completion drop that certificate.
    """
    widths, or_names, check_names, init_name, zero_name_v, one_name_v, s2 = _constant_encoding(p)
    q, c = p.query, p.constraints
    assert q is not None
    zero, one = Const(zero_name_v), Const(one_name_v)

    deps: List[Dependency] = []
    for t in c.tgds:
        used = _dep_vars(t)
        body = (_extend_atom(t.body[0], one),)
        if len(t.heads) == 1:
            h = t.heads[0]
            deps.append(TGD(body, (HeadDisjunct(h.exist_vars, tuple(_extend_atom(a, one) for a in h.atoms)),)))
        else:
            tags = [_fresh_var(f"tv{j}", used) for j in range(len(t.heads))]
            exist: List[Var] = list(tags)
            atoms: List[Atom] = []
            for j, (h, tag) in enumerate(zip(t.heads, tags)):
                # each disjunct's existential variables are scoped apart
                ren = {x: _fresh_var(f"e{j}_{x.name}", used) for x in h.exist_vars}
                exist.extend(ren.values())
                atoms.extend(_extend_atom(apply_subst(a, ren), tag) for a in h.atoms)
            atoms.append(Atom(or_names[len(t.heads)], tuple(tags)))
            deps.append(TGD(body, (HeadDisjunct(tuple(exist), tuple(atoms)),)))

    # seed the lookup tables and one certification relation per width
    for m in widths:
        rows = tuple(
            Atom(or_names[m], tuple(one if bit else zero for bit in bits))
            for bits in itertools.product((0, 1), repeat=m)
            if any(bits)
        )
        deps.append(TGD((Atom(init_name, ()),), (HeadDisjunct((), rows),)))
        bs = tuple(Var(f"b{j}") for j in range(m))
        deps.append(TGD(
            (Atom(init_name, ()),),
            (HeadDisjunct(bs, (Atom(or_names[m], bs),)
                          + tuple(Atom(check_names[m], (b,)) for b in bs)),),
        ))
    c2 = ConstraintSet(tuple(deps))

    certify = tuple(Atom(check_names[m], (one,)) for m in widths) + (Atom(init_name, ()),)
    disjuncts = tuple(
        CQ((), d.exist_vars, tuple(_extend_atom(a, one) for a in d.atoms) + certify)
        for d in q.disjuncts
    )
    return ProblemInstance(EXISTS_PQI, c2, s2, query=UCQ(disjuncts))


def _constant_encoding(
    p: ProblemInstance,
) -> Tuple[List[int], Dict[int, str], Dict[int, str], str, str, str, Schema]:
    """What `disj_to_constants` introduces for `p`, an ∃PQI problem over
    linear TGDs: the head-disjunction widths, the lookup and certification
    relation per width, the initialization relation, the values 0 and 1,
    and the output schema."""
    _require_kind(p, EXISTS_PQI)
    q, c, s = p.query, p.constraints, p.schema
    assert q is not None
    if any(isinstance(d, EGD) for d in c.dependencies):
        raise ClassError("the disjunction-elimination step handles TGD-only constraint sets")
    if any(len(t.body) != 1 for t in c.tgds):
        raise ClassError("the disjunction-elimination step requires linear TGDs")
    widths = sorted({len(t.heads) for t in c.tgds if len(t.heads) > 1})
    taken_rel = set(s.by_name)
    or_names = {m: _fresh_relation(f"or{m}", taken_rel) for m in widths}
    check_names = {m: _fresh_relation(f"check{m}", taken_rel) for m in widths}
    init_name = _fresh_relation("init", taken_rel)
    zero_name_v, one_name_v = _fresh_value_names(2, set(constant_names(c, q)), "")
    s2 = Schema(
        tuple(RelationDecl(r.name, r.arity + 1, r.visible) for r in s.relations)
        + tuple(RelationDecl(or_names[m], m, True) for m in widths)
        + tuple(RelationDecl(check_names[m], 1, False) for m in widths)
        + (RelationDecl(init_name, 0, True),)
    )
    return widths, or_names, check_names, init_name, zero_name_v, one_name_v, s2


def constant_encoding_lift(p: ProblemInstance, v: Instance) -> Instance:
    """Carry a visible instance of a disjunctive problem over to the schema
    produced by `disj_to_constants`: tag every fact with 1 and add the
    initialization fact plus the full lookup tables.  For every visible
    instance the positive implication answers of the two problems agree on
    this pair, which is what the answer-preservation argument rests on."""
    widths, or_names, _, init_name, zero_name_v, one_name_v, s2 = _constant_encoding(p)
    zero, one = Const(zero_name_v), Const(one_name_v)

    facts: Set[Fact] = {Fact(init_name, ())}
    for f in v.facts:
        facts.add(Fact(f.relation, f.args + (one,)))
    for m in widths:
        for bits in itertools.product((0, 1), repeat=m):
            if any(bits):
                facts.add(Fact(or_names[m], tuple(one if bit else zero for bit in bits)))
    return Instance(s2, frozenset(facts))


# ---------------------------------------------------------------------------
# 3. positive implication -> negative implication (instance level)


def pqi_to_nqi(p: ProblemInstance, connected: bool = False) -> ProblemInstance:
    """Turn a positive implication question into a negative one.

    A hidden 0-ary flag is queried; a rule per query disjunct fires the
    visible error relation whenever the disjunct and the flag hold, so the
    flag can be present in some completion exactly when some completion
    violates the original query.  The connected variant threads one shared
    dummy attribute through every atom to keep rule bodies connected.
    """
    _require_kind(p, PQI)
    q, c, s, v = p.query, p.constraints, p.schema, p.instance
    assert q is not None and v is not None

    taken_rel = set(s.by_name)
    error_name = _fresh_relation("error", taken_rel)
    good_name = _fresh_relation("good", taken_rel)

    if not connected:
        s2 = Schema(s.relations + (RelationDecl(error_name, 0, True), RelationDecl(good_name, 0, False)))
        deps: List[Dependency] = list(c.dependencies)
        for d in q.disjuncts:
            deps.append(TGD(d.atoms + (Atom(good_name, ()),), (HeadDisjunct((), (Atom(error_name, ()),)),)))
        q2 = UCQ((CQ((), (), (Atom(good_name, ()),)),))
        v2 = Instance(s2, frozenset(v.facts))
        return ProblemInstance(NQI, ConstraintSet(tuple(deps)), s2, query=q2, instance=v2)

    check_name = _fresh_relation("check", taken_rel)
    s2 = Schema(
        tuple(RelationDecl(r.name, r.arity + 1, r.visible) for r in s.relations)
        + (
            RelationDecl(error_name, 1, True),
            RelationDecl(good_name, 1, False),
            RelationDecl(check_name, 1, True),
        )
    )
    deps = []
    for dep in c.dependencies:
        w = _fresh_var("w", _dep_vars(dep))
        deps.append(_map_atoms(dep, lambda a: _extend_atom(a, w)))
    for d in q.disjuncts:
        w = _fresh_var("w", set(d.variables))
        deps.append(TGD(
            tuple(_extend_atom(a, w) for a in d.atoms) + (Atom(good_name, (w,)),),
            (HeadDisjunct((), (Atom(error_name, (w,)),)),),
        ))
    xs_cache: Dict[int, Tuple[Var, ...]] = {}
    for r in s.relations:
        xs = xs_cache.setdefault(r.arity, tuple(Var(f"x{i}") for i in range(r.arity)))
        w = Var("w")
        deps.append(TGD((Atom(r.name, xs + (w,)),), (HeadDisjunct((), (Atom(check_name, (w,)),)),)))
    deps.append(TGD((Atom(good_name, (Var("w"),)),), (HeadDisjunct((), (Atom(check_name, (Var("w"),)),)),)))

    dummy_name = _fresh_value_names(1, _adom_names(active_domain(v)), "d")[0]
    dummy = Const(dummy_name)
    facts = {Fact(f.relation, f.args + (dummy,)) for f in v.facts}
    facts.add(Fact(check_name, (dummy,)))
    v2 = Instance(s2, frozenset(facts))
    q2 = UCQ((CQ((), (Var("w"),), (Atom(good_name, (Var("w"),)),)),))
    return ProblemInstance(NQI, ConstraintSet(tuple(deps)), s2, query=q2, instance=v2)


# ---------------------------------------------------------------------------
# 4. open-world answering -> positive implication


def owq_to_pqi(q: UCQ, c: ConstraintSet, f: Instance) -> ProblemInstance:
    """Open-world certain answering as a positive implication question.

    The whole schema moves to the hidden part; a visible copy of each
    relation feeds it through an inclusion dependency, and the given facts
    become the visible instance over the copies.
    """
    s = f.schema
    taken_rel = set(s.by_name)
    copies = {r.name: _fresh_relation(f"v_{r.name}", taken_rel) for r in s.relations}
    s2 = Schema(
        tuple(RelationDecl(r.name, r.arity, False) for r in s.relations)
        + tuple(RelationDecl(copies[r.name], r.arity, True) for r in s.relations)
    )
    deps: List[Dependency] = list(c.dependencies)
    for r in s.relations:
        xs = tuple(Var(f"x{i}") for i in range(r.arity))
        deps.append(TGD((Atom(copies[r.name], xs),), (HeadDisjunct((), (Atom(r.name, xs),)),)))
    f2 = ground_nulls(f)
    v2 = Instance(s2, frozenset(Fact(copies[x.relation], x.args) for x in f2.facts))
    return ProblemInstance(PQI, ConstraintSet(tuple(deps)), s2, query=q, instance=v2)


# ---------------------------------------------------------------------------
# 5. open-world answering -> existence of a positive implication


def owq_to_exists_pqi(q: UCQ, c: ConstraintSet, f: Instance) -> ProblemInstance:
    """Open-world certain answering as a schema-level positive question.

    A visible 0-ary flag forces (through one rule) a homomorphic copy of
    the given facts into the hidden schema; the query additionally demands
    the flag, so the only candidate visible instance is the one holding it.
    """
    s = f.schema
    taken_rel = set(s.by_name)
    good_name = _fresh_relation("good", taken_rel)
    s2 = Schema(tuple(RelationDecl(r.name, r.arity, False) for r in s.relations)
                + (RelationDecl(good_name, 0, True),))
    f2 = ground_nulls(f)
    image = canonical_query(f2)
    deps: List[Dependency] = list(c.dependencies)
    deps.append(TGD((Atom(good_name, ()),), (HeadDisjunct(image.exist_vars, image.atoms),)))
    disjuncts = tuple(CQ((), d.exist_vars, d.atoms + (Atom(good_name, ()),)) for d in q.disjuncts)
    return ProblemInstance(EXISTS_PQI, ConstraintSet(tuple(deps)), s2, query=UCQ(disjuncts))


# ---------------------------------------------------------------------------
# 6. negative implication -> realizability


def nqi_to_realizability(q: UCQ, c: ConstraintSet, s: Schema, v: Instance) -> ProblemInstance:
    """The negative implication fails exactly when the visible instance,
    extended with a 0-ary visible query flag, stays realizable.

    The flag forces the query through an intermediate hidden predicate per
    disjunct (two linear rules each), so a realizing extension is precisely
    a constraint-satisfying completion of the original instance on which
    the query holds.
    """
    taken_rel = set(s.by_name)
    flag_name = _fresh_relation("rq", taken_rel)
    extra_rels: List[RelationDecl] = [RelationDecl(flag_name, 0, True)]
    deps: List[Dependency] = list(c.dependencies)
    heads = []
    for i, d in enumerate(q.disjuncts):
        variables = tuple(d.variables)
        aux_name = _fresh_relation(f"q{i}", taken_rel)
        extra_rels.append(RelationDecl(aux_name, len(variables), False))
        heads.append(HeadDisjunct(variables, (Atom(aux_name, variables),)))
        for a in d.atoms:
            deps.append(TGD((Atom(aux_name, variables),), (HeadDisjunct((), (a,)),)))
    deps.append(TGD((Atom(flag_name, ()),), tuple(heads)))
    s2 = Schema(s.relations + tuple(extra_rels))
    v2 = Instance(s2, frozenset(v.facts) | {Fact(flag_name, ())})
    return ProblemInstance(REALIZABILITY, ConstraintSet(tuple(deps)), s2, instance=v2)


# ---------------------------------------------------------------------------
# 7. realizability -> negative implication


def realizability_to_nqi(c: ConstraintSet, s: Schema, v: Instance) -> ProblemInstance:
    """Realizability of a visible instance as a failing negative implication.

    Each original relation gets a hidden working copy constrained by the
    original dependencies.  Each visible relation is serialized through a
    successor ordering over its tuples (two extra attributes, with the last
    tuple looping to itself): the query asks for a hidden first element per
    nonempty relation, which the rules pin to the visible first element and
    then walk along the order, forcing every serialized tuple into the
    hidden copy; conversely every hidden tuple maps back into the visible
    serialization, so the hidden copies reproduce the original instance
    exactly.  The negative implication fails precisely when a realizing
    extension exists.
    """
    taken_rel = set(s.by_name)
    marker = _fresh_relation("rt", taken_rel)
    hidden = {r.name: _fresh_relation(f"h_{r.name}", taken_rel) for r in s.relations}
    serial = {r.name: _fresh_relation(f"v_{r.name}", taken_rel) for r in s.visible_relations}
    work = {r.name: _fresh_relation(f"u_{r.name}", taken_rel) for r in s.visible_relations}
    first_v = {r.name: _fresh_relation(f"firstv_{r.name}", taken_rel) for r in s.visible_relations}
    first_h = {r.name: _fresh_relation(f"firsth_{r.name}", taken_rel) for r in s.visible_relations}

    relations: List[RelationDecl] = [RelationDecl(marker, 0, True)]
    for r in s.relations:
        relations.append(RelationDecl(hidden[r.name], r.arity, False))
    for r in s.visible_relations:
        relations.extend([
            RelationDecl(serial[r.name], r.arity + 2, True),
            RelationDecl(work[r.name], r.arity + 2, False),
            RelationDecl(first_v[r.name], 1, True),
            RelationDecl(first_h[r.name], 1, False),
        ])
    s2 = Schema(tuple(relations))

    deps: List[Dependency] = [_map_atoms(dep, lambda a: Atom(hidden[a.relation], a.args))
                              for dep in c.dependencies]

    for r in s.visible_relations:
        xs = tuple(Var(f"x{i}") for i in range(r.arity))
        ws = tuple(Var(f"w{i}") for i in range(r.arity))
        x, y, z, u = Var("p0"), Var("p1"), Var("p2"), Var("p3")
        deps.extend([
            TGD((Atom(first_h[r.name], (x,)),), (HeadDisjunct((), (Atom(first_v[r.name], (x,)),)),)),
            TGD((Atom(first_h[r.name], (x,)),),
                (HeadDisjunct(ws + (z,), (Atom(work[r.name], ws + (x, z)),)),)),
            TGD((Atom(work[r.name], xs + (y, z)),),
                (HeadDisjunct(ws + (u,), (Atom(work[r.name], ws + (z, u)),)),)),
            TGD((Atom(work[r.name], xs + (y, z)),),
                (HeadDisjunct((), (Atom(serial[r.name], xs + (y, z)),)),)),
            TGD((Atom(work[r.name], xs + (y, z)),),
                (HeadDisjunct((), (Atom(hidden[r.name], xs),)),)),
            TGD((Atom(hidden[r.name], xs),),
                (HeadDisjunct((y, z), (Atom(serial[r.name], xs + (y, z)),)),)),
        ])

    taken_vals = _adom_names(active_domain(v))
    facts: Set[Fact] = {Fact(marker, ())}
    nonempty: List[str] = []
    for r in s.visible_relations:
        rows = sorted((f for f in v.facts if f.relation == r.name),
                      key=lambda f: tuple(value_key(x) for x in f.args))
        if not rows:
            continue
        nonempty.append(r.name)
        order = [Const(n) for n in _fresh_value_names(len(rows), taken_vals, f"#ord_{r.name}_")]
        for i, row in enumerate(rows):
            succ = order[i + 1] if i + 1 < len(rows) else order[i]
            facts.add(Fact(serial[r.name], row.args + (order[i], succ)))
        facts.add(Fact(first_v[r.name], (order[0],)))
    v2 = Instance(s2, frozenset(facts))

    atoms = (Atom(marker, ()),) + tuple(Atom(first_h[name], (Var(f"f_{name}"),)) for name in nonempty)
    q2 = UCQ((CQ((), tuple(Var(f"f_{name}") for name in nonempty), atoms),))
    return ProblemInstance(NQI, ConstraintSet(tuple(deps)), s2, query=q2, instance=v2)


# ---------------------------------------------------------------------------
# 8. existence of a negative implication -> open-world answering


def exists_nqi_to_owq(q: UCQ, c: ConstraintSet, s: Schema) -> ProblemInstance:
    """For disjoint-union-closed constraints the negative existence problem
    collapses to the empty visible instance, which in turn is open-world
    answering: does every model containing the query's canonical facts
    expose some visible fact?"""
    require_empty_collapse(c)
    if len(q.disjuncts) != 1:
        raise ClassError("this reduction expects a single conjunctive query")
    if not s.visible_relations:
        raise ClassError("the schema needs at least one visible relation")
    disjuncts = []
    for r in s.visible_relations:
        xs = tuple(Var(f"x{i}") for i in range(r.arity))
        disjuncts.append(CQ((), xs, (Atom(r.name, xs),)))
    q2 = UCQ(tuple(disjuncts))
    base = ground_nulls(canonical_db(q.disjuncts[0], s))
    return ProblemInstance(OWQ, c, s, query=q2, instance=base)
