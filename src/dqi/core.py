"""Schemas, instances, dependencies, queries and homomorphisms.

Everything here is an immutable value; operations are pure functions.
Constants obey the unique name assumption: distinct names denote
distinct values, and a constant is never equal to a labeled null.

The values that sets and dicts hold most are builtins underneath, so that
they hash and compare in C: a `Const` is a `str` subclass holding its name,
and `Var` and `Fact` are named tuples of their fields.  Hence
`Const("a") == "a"`, `Var("x") == ("x",)` and `Fact(r, args) == (r, args)`:
no set, dict or comparison may mix constant names with constants, or plain
tuples with variables or facts.  `Null` and `Atom` stay dataclasses, so that
a null never equals a one-entry equality pattern such as `(1,)` and a ground
atom never equals the fact with the same values.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple, TypeVar, Union)


class SchemaError(ValueError):
    """A fact, atom or query does not fit the schema it is used with."""


class ClassError(ValueError):
    """A constraint set is outside the class a method requires."""


# ---------------------------------------------------------------------------
# values and terms


class Const(str):
    """A constant: the `str` of its name, printed as `Const('a')`; `name` is
    the name as a plain `str`."""

    __slots__ = ()

    name = property(str.__str__)

    def __repr__(self) -> str:
        return f"Const({str.__repr__(self)})"

    __str__ = __repr__
    __format__ = object.__format__  # `str.__format__` would print the bare name

    # pickle protocols 0 and 1 would rebuild a `str` subclass from `str()`
    def __reduce__(self) -> Tuple[type, Tuple[str]]:
        return Const, (self.name,)


@dataclass(frozen=True)
class Null:
    id: int

    def __repr__(self) -> str:
        return f"Null({self.id})"


Value = Union[Const, Null]


def value_key(v: Value) -> Tuple[int, object]:
    """Total order over values: constants by name, then nulls by id (a
    `Const` compares as its name)."""
    if isinstance(v, Const):
        return (0, v)
    return (1, v.id)


def value_name(v: Value) -> str:
    """A value as reports, traces and chase steps write it: a constant's
    name, or `?N` for the null numbered N."""
    return v.name if isinstance(v, Const) else f"?{v.id}"


class Var(NamedTuple):
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


# A constant written in a formula is the value it names (unique names).
Term = Union[Var, Const]


class NullSource:
    """Hands out fresh nulls with ids unique within one computation."""

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self) -> Null:
        return Null(next(self._counter))

    @classmethod
    def above(cls, *instances: "Instance") -> "NullSource":
        top = 0
        for inst in instances:
            for f in inst.facts:
                for v in f.args:
                    if isinstance(v, Null) and v.id > top:
                        top = v.id
        return cls(top + 1)


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class RelationDecl:
    name: str
    arity: int
    visible: bool

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise SchemaError(f"negative arity for {self.name}")


@dataclass(frozen=True)
class Schema:
    relations: Tuple[RelationDecl, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate relation name")
        object.__setattr__(self, "relations", tuple(sorted(self.relations, key=lambda r: r.name)))

    @cached_property
    def by_name(self) -> Dict[str, RelationDecl]:
        return {r.name: r for r in self.relations}

    def decl(self, name: str) -> RelationDecl:
        try:
            return self.by_name[name]
        except KeyError:
            raise SchemaError(f"undeclared relation {name}") from None

    @property
    def visible_relations(self) -> Tuple[RelationDecl, ...]:
        return tuple(r for r in self.relations if r.visible)

    @property
    def hidden_relations(self) -> Tuple[RelationDecl, ...]:
        return tuple(r for r in self.relations if not r.visible)

    def with_relations(self, extra: Iterable[RelationDecl]) -> "Schema":
        return Schema(self.relations + tuple(extra))


# ---------------------------------------------------------------------------
# atoms, facts, instances


@dataclass(frozen=True)
class Atom:
    relation: str
    args: Tuple[Term, ...]

    @property
    def variables(self) -> Tuple[Var, ...]:
        return variables_of((self,))


def variables_of(atoms: Iterable[Atom]) -> Tuple[Var, ...]:
    """The variables of `atoms`, each once, in order of first occurrence."""
    seen: List[Var] = []
    for a in atoms:
        for t in a.args:
            if isinstance(t, Var) and t not in seen:
                seen.append(t)
    return tuple(seen)


class Fact(NamedTuple):
    relation: str
    args: Tuple[Value, ...]


def fact_key(f: Fact) -> Tuple:
    """Total order over facts: by relation, then by `value_key` of the
    values, written out inline."""
    return (f.relation, tuple([(0, v) if isinstance(v, Const) else (1, v.id) for v in f.args]))


@dataclass(frozen=True)
class Instance:
    schema: Schema
    facts: FrozenSet[Fact] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", frozenset(self.facts))
        self._check(self.facts)

    def _check(self, facts: Iterable[Fact]) -> None:
        for f in facts:
            decl = self.schema.decl(f.relation)
            if len(f.args) != decl.arity:
                raise SchemaError(f"arity mismatch in fact {f.relation}/{len(f.args)}")

    def sorted_facts(self) -> Tuple[Fact, ...]:
        return tuple(sorted(self.facts, key=fact_key))

    def visible(self) -> "Instance":
        """The visible facts; the instance itself when it has no other."""
        vis = frozenset(f for f in self.facts if self.schema.decl(f.relation).visible)
        return self if len(vis) == len(self.facts) else Instance(self.schema, vis)

    def with_facts(self, extra: Iterable[Fact]) -> "Instance":
        return self.derive((), extra)

    def derive(self, removed: Iterable[Fact], added: Iterable[Fact]) -> "Instance":
        """The instance without the facts `removed` and with the facts `added`.

        Only the facts it gains are validated.  When this instance's match
        state is built, or is to be derived from an ancestor's, the child's
        match state will be derived from that same built state on its first
        search (`_match_state`)."""
        added = set(added)
        gained = added - self.facts
        lost = self.facts.intersection(removed) - added
        if not gained and not lost:
            return self
        self._check(gained)
        child = Instance._unchecked(self.schema, (self.facts - lost if lost else self.facts) | gained)
        base = self if "_match_state" in self.__dict__ else self.__dict__.get("_state_base")
        if base is not None:
            child.__dict__["_state_base"] = base
        return child

    @staticmethod
    def _unchecked(schema: Schema, facts: FrozenSet[Fact]) -> "Instance":
        """The instance of `facts`, made without validating them: the caller
        knows that each fits `schema`."""
        inst = object.__new__(Instance)
        object.__setattr__(inst, "schema", schema)
        object.__setattr__(inst, "facts", facts)
        return inst

    def facts_of(self, relation: str) -> Tuple[Fact, ...]:
        return tuple(sorted((f for f in self.facts if f.relation == relation), key=fact_key))

    @cached_property
    def _match_state(self) -> "MatchState":
        """Relation buckets (each in `fact_key` order) and the hash indexes
        that `facts_at` reads, made on the first search over the instance;
        the instance is immutable, so every later search reuses them.

        An instance made by `derive` from one with a built state (its base)
        derives its state from the base's: untouched relation buckets and
        hash tables are shared (neither is mutated once made), a touched
        bucket is copied with the gained facts inserted in `fact_key` order,
        and so is each table of a relation that only gained facts; the
        tables of a relation that lost facts are dropped, to be rebuilt from
        its bucket on demand.  Any other instance builds its state from its
        facts."""
        base = self.__dict__.pop("_state_base", None)
        if base is not None:
            return _derive_state(base._match_state, base.facts - self.facts, self.facts - base.facts)
        by_rel: Dict[str, list] = {}
        for f in self.facts:
            by_rel.setdefault(f.relation, []).append(f)
        for fs in by_rel.values():
            fs.sort(key=fact_key)
        return by_rel, {}


def _derive_state(state: "MatchState", lost: Set[Fact], gained: Set[Fact]) -> "MatchState":
    """The match state of an instance that lost and gained the given facts,
    derived from the state of the instance it changed; see
    `Instance._match_state`."""
    by_rel, index = state
    child_rel = dict(by_rel)
    lost_rels = {f.relation for f in lost}
    for rel in lost_rels:
        child_rel[rel] = [f for f in by_rel[rel] if f not in lost]
    gained_of: Dict[str, List[Tuple[Tuple, Fact]]] = {}
    for f in gained:
        gained_of.setdefault(f.relation, []).append((fact_key(f), f))
    for rel, keyed in gained_of.items():
        child_rel[rel] = _inserted(child_rel[rel] if rel in lost_rels else by_rel.get(rel, []), keyed)
    for rel in lost_rels:
        if not child_rel[rel]:
            del child_rel[rel]
    child_index: Dict = {}
    for sig, table in index.items():
        rel, arity, positions = sig
        if rel in lost_rels:
            continue
        if rel in gained_of:
            table = dict(table)
            for k, f in gained_of[rel]:
                if len(f.args) == arity:
                    pos = tuple(f.args[p] for p in positions)
                    table[pos] = _inserted(table.get(pos, []), [(k, f)])
        child_index[sig] = table
    return child_rel, child_index


def _inserted(facts: List[Fact], keyed: Sequence[Tuple[Tuple, Fact]]) -> List[Fact]:
    """A copy of the `fact_key`-sorted list with the facts of `keyed`, each
    given with its key, inserted in order."""
    out = list(facts)
    for k, f in keyed:
        out.insert(bisect.bisect(out, k, key=fact_key), f)
    return out


def active_domain(instance: Instance) -> FrozenSet[Value]:
    """Values occurring in some fact of the instance."""
    return frozenset(v for f in instance.facts for v in f.args)


# ---------------------------------------------------------------------------
# dependencies


@dataclass(frozen=True)
class HeadDisjunct:
    exist_vars: Tuple[Var, ...]
    atoms: Tuple[Atom, ...]


@dataclass(frozen=True)
class TGD:
    body: Tuple[Atom, ...]
    heads: Tuple[HeadDisjunct, ...]

    def __post_init__(self) -> None:
        if not self.heads:
            raise SchemaError("TGD with no head disjunct")
        body_vars = {v for a in self.body for v in a.variables}
        for h in self.heads:
            for a in h.atoms:
                for v in a.variables:
                    if v not in body_vars and v not in h.exist_vars:
                        raise SchemaError(f"unsafe head variable {v.name}")

    @property
    def frontier(self) -> Tuple[Var, ...]:
        """Universally quantified variables occurring in some head atom."""
        body_vars = {v for a in self.body for v in a.variables}
        out = []
        for h in self.heads:
            for a in h.atoms:
                for v in a.variables:
                    if v in body_vars and v not in h.exist_vars and v not in out:
                        out.append(v)
        return tuple(out)


@dataclass(frozen=True)
class EGD:
    body: Tuple[Atom, ...]
    left: Term
    right: Term

    def __post_init__(self) -> None:
        body_vars = {v for a in self.body for v in a.variables}
        for t in (self.left, self.right):
            if isinstance(t, Var) and t not in body_vars:
                raise SchemaError(f"unsafe EGD variable {t.name}")


Dependency = Union[TGD, EGD]


@dataclass(frozen=True)
class ConstraintSet:
    dependencies: Tuple[Dependency, ...] = ()

    @property
    def tgds(self) -> Tuple[TGD, ...]:
        return tuple(d for d in self.dependencies if isinstance(d, TGD))

    @property
    def egds(self) -> Tuple[EGD, ...]:
        return tuple(d for d in self.dependencies if isinstance(d, EGD))

    @cached_property
    def tags(self) -> FrozenSet[str]:
        """Syntactic class tags (the `*_TAG` names), computed once: every
        method reads its class gate here."""
        tgds = self.tgds
        tags = set()
        if self.egds:
            tags.add(EGD_TAG)
        if any(isinstance(t, Const) for d in self.dependencies for t in _dep_terms(d)):
            tags.add(CONST_TAG)
        if any(len(t.heads) > 1 for t in tgds):
            tags.add(DISJ_TAG)
        if any(len(h.atoms) != 1 for t in tgds for h in t.heads):
            tags.add(NONATOMIC_HEAD_TAG)
        if all(_is_id(t) for t in tgds):
            tags.add(ID_TAG)
        if all(len(t.body) == 1 for t in tgds):
            tags.add(LINEAR_TAG)
        if all(_is_fg(t) for t in tgds):
            tags.add(FGTGD_TAG)
        if all(_is_connected(d.body) for d in self.dependencies):
            tags.add(CONNECTED_TAG)
        return frozenset(tags)


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class CQ:
    free_vars: Tuple[Var, ...]
    exist_vars: Tuple[Var, ...]
    atoms: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        atom_vars = {v for a in self.atoms for v in a.variables}
        for v in self.free_vars:
            if v not in atom_vars:
                raise SchemaError(f"free variable {v.name} occurs in no atom")

    @property
    def variables(self) -> Tuple[Var, ...]:
        return self.free_vars + tuple(v for v in variables_of(self.atoms) if v not in self.free_vars)


@dataclass(frozen=True)
class UCQ:
    disjuncts: Tuple[CQ, ...]

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise SchemaError("empty union query")
        sig = self.disjuncts[0].free_vars
        for d in self.disjuncts[1:]:
            if d.free_vars != sig:
                raise SchemaError("disjuncts disagree on free variables")

    @property
    def free_vars(self) -> Tuple[Var, ...]:
        return self.disjuncts[0].free_vars


def boolean_cq(atoms: Sequence[Atom]) -> CQ:
    """Boolean CQ existentially quantifying every variable of `atoms`."""
    atoms = tuple(atoms)
    return CQ(free_vars=(), exist_vars=variables_of(atoms), atoms=atoms)


def boolean_ucq(*disjunct_atoms: Sequence[Atom]) -> UCQ:
    return UCQ(tuple(boolean_cq(a) for a in disjunct_atoms))


# ---------------------------------------------------------------------------
# homomorphisms

Homomorphism = Dict[Var, Value]


def _term_value(t: Term, mapping: Mapping[Var, Value]) -> Optional[Value]:
    return t if isinstance(t, Const) else mapping.get(t)


MatchState = Tuple[Dict[str, list], Dict[Tuple[str, int, Tuple[int, ...]], Dict[Tuple, list]]]


def find_homomorphisms(
    atoms: Sequence[Atom],
    target: Instance,
    seed: Optional[Mapping[Var, Value]] = None,
) -> Iterator[Homomorphism]:
    """Enumerate extensions of `seed` mapping every atom onto a target fact.

    Backtracking search, most-constrained atom first; the output order is
    deterministic for fixed inputs.
    """
    remaining = list(atoms)
    base: Homomorphism = dict(seed) if seed else {}

    def extend(mapping: Homomorphism, todo: list) -> Iterator[Homomorphism]:
        if not todo:
            yield dict(mapping)
            return
        # pick the atom with the smallest branching per newly bound
        # variable: a beats b when |cand_a| ** new_b < |cand_b| ** new_a
        # (fully bound atoms are pure membership checks and always win)
        best = None  # (count, new_vars, position, atom, candidate list)
        for i, a in enumerate(todo):
            cand = facts_at(target, a.relation, len(a.args), *_known(a, mapping))
            new_vars = len({t for t in a.args
                            if isinstance(t, Var) and t not in mapping})
            if new_vars == 0:
                best = (len(cand), 0, i, a, cand)
                break
            if best is None or (best[1] > 0
                                and len(cand) ** best[1] < best[0] ** new_vars):
                best = (len(cand), new_vars, i, a, cand)
        assert best is not None
        _, _, pos, atom, cand = best
        rest = todo[:pos] + todo[pos + 1:]
        for f in cand:
            m = match_fact(atom, f, mapping)
            if m is not None:
                yield from extend(m, rest)

    return extend(base, remaining)


def _known(atom: Atom, mapping: Mapping[Var, Value]) -> Tuple[Tuple[int, ...], Tuple[Value, ...]]:
    """The positions of `atom` whose value a constant or `mapping` fixes,
    and those values."""
    positions: list = []
    key: list = []
    for pos, t in enumerate(atom.args):
        v = t if isinstance(t, Const) else mapping.get(t)
        if v is not None:
            positions.append(pos)
            key.append(v)
    return tuple(positions), tuple(key)


def facts_at(target: Instance, relation: str, arity: int,
             positions: Tuple[int, ...], key: Tuple[Value, ...]) -> Sequence[Fact]:
    """The facts of `relation` with `arity` values in `target` that hold
    `key` at `positions` (increasing), in bucket (`fact_key`) order.

    They are read from a hash table on those positions, which the
    instance's match state makes on the first read and keeps; the result
    is that table's entry, which the caller must not change."""
    by_rel, index = target._match_state
    sig = (relation, arity, positions)
    table = index.get(sig)
    if table is None:
        table = {}
        for f in by_rel.get(relation, ()):
            if len(f.args) == arity:
                table.setdefault(tuple([f.args[p] for p in positions]), []).append(f)
        index[sig] = table
    return table.get(key, ())


def matched_facts(atom: Atom, target: Instance, seed: Mapping[Var, Value]) -> List[Fact]:
    """The facts of `target` that `atom` matches under `seed`, in bucket
    order: the image of each match that `find_homomorphisms((atom,),
    target, seed)` enumerates, in its order, with no match built.  The facts
    keyed on the values `_known` fixes must also repeat the values at the
    equal-position pairs of the atom's shape (`_shape`); the key already
    holds a pair whose variable `seed` binds."""
    found = facts_at(target, atom.relation, len(atom.args), *_known(atom, seed))
    equal = _shape(atom).equal
    if not equal:
        return list(found)
    return [f for f in found if all(f.args[i] == f.args[j] for i, j in equal)]


H = TypeVar("H", bound=Hashable)


def bind(terms: Sequence[Term], values: Sequence[Optional[H]], seed: Mapping[Var, H]) -> Optional[Dict[Var, H]]:
    """The extension of `seed` that binds each variable of `terms` to the
    value at its positions, or None when a constant term meets another
    value or a variable two values.  A None value binds nothing.

    The values may be a fact's values, the entries of an equality pattern
    (`chase.canon_pattern`) or the known values of a partially bound atom."""
    m = dict(seed)
    for t, v in zip(terms, values):
        if v is None:
            continue
        if isinstance(t, Const):
            if t != v:
                return None
        elif m.setdefault(t, v) != v:
            return None
    return m


def match_fact(atom: Atom, fact: Fact, seed: Mapping[Var, Value]) -> Optional[Homomorphism]:
    """The extension of `seed` that maps `atom` onto `fact`, or None when
    the relation, a constant or an already bound variable disagrees."""
    if atom.relation != fact.relation or len(atom.args) != len(fact.args):
        return None
    return bind(atom.args, fact.args, seed)


Support = Tuple[Fact, ...]


class Shape(NamedTuple):
    """An atom compiled into positions: its arity, its constants by
    position, the pairs of positions that a repeated variable fills (each
    later position with the first), and the first position of each
    variable, in order of occurrence.  It is the one compiled reading of an
    atom: `support_lookup`, `matched_facts` and the maximal database of
    `dqi.gfp` (its lookups and rule plans) all read it."""
    arity: int
    consts: List[Tuple[int, Const]]
    equal: List[Tuple[int, int]]
    first: Dict[Var, int]


def _shape(atom: Atom) -> Shape:
    first: Dict[Var, int] = {}
    consts: List[Tuple[int, Const]] = []
    equal: List[Tuple[int, int]] = []
    for i, t in enumerate(atom.args):
        if isinstance(t, Const):
            consts.append((i, t))
        elif first.setdefault(t, i) != i:
            equal.append((i, first[t]))
    return Shape(len(atom.args), consts, equal, first)


def _fits(shape: Shape, args: Tuple[Value, ...]) -> bool:
    """Does the atom of `shape` match a fact of its relation with `args`?"""
    arity, consts, equal, _ = shape
    if len(args) != arity:
        return False
    for i, c in consts:
        if args[i] != c:
            return False
    for i, j in equal:
        if args[i] != args[j]:
            return False
    return True


def support_lookup(
    body: Atom, heads: Sequence[HeadDisjunct], facts_of: Mapping[str, Sequence[Fact]]
) -> Callable[[Fact], Optional[List[Support]]]:
    """One trigger compiled into positions, as a function from a fact of the
    body's relation to its supports among `facts_of` (facts by relation),
    or None when `body` does not match the fact.

    A support is a fact that matches a head disjunct's atom where the
    disjunct's frontier variables take the body fact's values, or the empty
    support of an empty disjunct; the disjuncts must have at most one atom.
    Each atom is compiled once into its shape (`_shape`, the reading of an
    atom that `matched_facts` and `dqi.gfp`'s maximal database share), and
    the frontier positions in the body and in each head are read off the
    shapes.  Each disjunct's facts are indexed by the values at their
    frontier positions, so a lookup checks the body fact once and makes one
    dict access per disjunct (the compiled trigger lookup of
    ChaseBench-style engines, Benedikt et al., PODS 2017).  It finds the supports that `head_matches`
    finds for the body match `match_fact(body, fact, {})`."""
    shape = _shape(body)
    indexed: List[Tuple[List[int], Dict[Tuple[Value, ...], List[Support]]]] = []
    for d in heads:
        if not d.atoms:
            indexed.append(([], {(): [()]}))
            continue
        (head,) = d.atoms
        head_shape = _shape(head)
        frontier = [x for x in head_shape.first if x in shape.first and x not in d.exist_vars]
        positions = [head_shape.first[x] for x in frontier]
        index: Dict[Tuple[Value, ...], List[Support]] = {}
        for f in facts_of.get(head.relation, ()):
            if _fits(head_shape, f.args):
                index.setdefault(tuple([f.args[i] for i in positions]), []).append((f,))
        indexed.append(([shape.first[x] for x in frontier], index))

    def lookup(fact: Fact) -> Optional[List[Support]]:
        args = fact.args
        if not _fits(shape, args):
            return None
        return [m for positions, index in indexed for m in index.get(tuple([args[i] for i in positions]), ())]

    return lookup


def apply_hom(atoms: Sequence[Atom], mapping: Mapping[Var, Value]) -> Tuple[Fact, ...]:
    """Instantiate atoms into facts under a total variable assignment."""
    out = []
    for a in atoms:
        args = []
        for t in a.args:
            v = _term_value(t, mapping)
            if v is None:
                raise SchemaError(f"unmapped variable {t}")
            args.append(v)
        out.append(Fact(a.relation, tuple(args)))
    return tuple(out)


def apply_subst(atom: Atom, subst: Mapping[Var, Term]) -> Atom:
    """`atom` with each variable that `subst` maps replaced by its image."""
    return Atom(
        atom.relation,
        tuple(subst.get(t, t) if isinstance(t, Var) else t for t in atom.args),
    )


def map_instance(instance: Instance, value_map: Mapping[Value, Value]) -> Instance:
    """Apply a value substitution to every fact: `Instance.derive` replaces
    the facts holding a mapped value with their images."""
    moved = [f for f in instance.facts if not value_map.keys().isdisjoint(f.args)]
    return instance.derive(moved, [Fact(f.relation, tuple(value_map.get(v, v) for v in f.args))
                                   for f in moved])


def fresh_name(base: str, taken: Set[str]) -> str:
    """Prefix `_` to `base` until the name is not in `taken`, then reserve it."""
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


def ground_nulls(i: Instance) -> Instance:
    """Replace labelled nulls with fresh constants (an isomorphic renaming,
    so constraint satisfaction and query polarity are preserved)."""
    taken = {v.name for v in active_domain(i) if isinstance(v, Const)}
    mapping: Dict[Value, Value] = {}
    for val in sorted(active_domain(i), key=value_key):
        if isinstance(val, Null):
            mapping[val] = Const(fresh_name(f"!n{val.id}", taken))
    return map_instance(i, mapping) if mapping else i


# ---------------------------------------------------------------------------
# semantic operations


def check_query(q: UCQ, schema: Schema) -> None:
    """Raise SchemaError unless every query atom names a declared relation
    with its declared arity."""
    for d in q.disjuncts:
        for a in d.atoms:
            if schema.decl(a.relation).arity != len(a.args):
                raise SchemaError(f"arity mismatch for {a.relation} in query")


def eval_ucq(q: UCQ, instance: Instance):
    """Evaluate a UCQ; Boolean queries give a bool, open ones answer tuples."""
    check_query(q, instance.schema)
    if not q.free_vars:
        for d in q.disjuncts:
            for _ in find_homomorphisms(d.atoms, instance):
                return True
        return False
    answers = set()
    for d in q.disjuncts:
        for h in find_homomorphisms(d.atoms, instance):
            answers.add(tuple(h[v] for v in q.free_vars))
    return frozenset(answers)


def satisfies(c: ConstraintSet, instance: Instance) -> bool:
    """Does the instance satisfy every dependency?"""
    for dep in c.dependencies:
        if isinstance(dep, TGD):
            for h in find_homomorphisms(dep.body, instance):
                if not any(
                    _head_satisfied(disjunct, h, instance) for disjunct in dep.heads
                ):
                    return False
        else:
            for h in find_homomorphisms(dep.body, instance):
                if _term_value(dep.left, h) != _term_value(dep.right, h):
                    return False
    return True


def head_matches(disjunct: HeadDisjunct, body_hom: Homomorphism,
                 instance: Instance) -> Iterator[Homomorphism]:
    """Matches of a head disjunct into the instance that agree with a body
    match on every variable the disjunct does not quantify."""
    seed = {v: val for v, val in body_hom.items() if v not in disjunct.exist_vars}
    return find_homomorphisms(disjunct.atoms, instance, seed=seed)


def _head_satisfied(disjunct: HeadDisjunct, body_hom: Homomorphism, instance: Instance) -> bool:
    for _ in head_matches(disjunct, body_hom, instance):
        return True
    return False


# ---------------------------------------------------------------------------
# constraint classification

ID_TAG = "ID"
LINEAR_TAG = "LinearTGD"
FGTGD_TAG = "FGTGD"
CONNECTED_TAG = "ConnectedBody"
DISJ_TAG = "DisjunctiveHead"
CONST_TAG = "HasConstants"
EGD_TAG = "HasEGD"
NONATOMIC_HEAD_TAG = "NonAtomicHead"  # a head disjunct is a conjunction or empty


def _atom_constants(a: Atom) -> bool:
    return any(isinstance(t, Const) for t in a.args)


def _dep_atoms(dep: Dependency) -> Iterator[Atom]:
    yield from dep.body
    if isinstance(dep, TGD):
        for h in dep.heads:
            yield from h.atoms


def _dep_terms(dep: Dependency) -> Iterator[Term]:
    """The terms of a dependency: its atoms' arguments and an EGD's sides."""
    for a in _dep_atoms(dep):
        yield from a.args
    if isinstance(dep, EGD):
        yield dep.left
        yield dep.right


def constant_names(
    c: Optional[ConstraintSet] = None, q: Optional[UCQ] = None
) -> Tuple[str, ...]:
    """Sorted names of the constants that the constraints (EGD sides
    included) or the query mention: a hidden witness may have to use them
    even when the visible part does not."""
    names = set()
    if c is not None:
        names.update(t.name for dep in c.dependencies for t in _dep_terms(dep) if isinstance(t, Const))
    if q is not None:
        names.update(
            t.name for d in q.disjuncts for a in d.atoms for t in a.args
            if isinstance(t, Const)
        )
    return tuple(sorted(names))


def _is_id(t: TGD) -> bool:
    if len(t.body) != 1 or len(t.heads) != 1 or len(t.heads[0].atoms) != 1:
        return False
    body, head = t.body[0], t.heads[0].atoms[0]
    for a in (body, head):
        if _atom_constants(a):
            return False
        if len(set(a.args)) != len(a.args):
            return False
    return True


def _is_fg(t: TGD) -> bool:
    frontier = set(t.frontier)
    return any(frontier <= set(a.variables) for a in t.body)


T = TypeVar("T")


def components(items: Sequence[T], keys: Callable[[T], Iterable[Hashable]]) -> List[List[T]]:
    """Split `items` into the classes linked by shared keys, keeping the
    order of `items` within and across classes; an item without keys is a
    class of its own."""
    classes: List[Tuple[Set[Hashable], List[int]]] = []  # keys, item indexes
    for i, x in enumerate(items):
        ks, members = set(keys(x)), [i]
        for joined in [c for c in classes if c[0] & ks]:
            classes.remove(joined)
            ks |= joined[0]
            members += joined[1]
        classes.append((ks, members))
    classes.sort(key=lambda c: min(c[1]))
    return [[items[j] for j in sorted(members)] for _, members in classes]


def _is_connected(atoms: Sequence[Atom]) -> bool:
    return len(components(atoms, lambda a: a.variables)) <= 1


def require_empty_collapse(c: ConstraintSet) -> None:
    """The class gate of the empty-instance collapse (∃NQI): constant-free
    constraints with connected bodies, which are preserved under disjoint
    unions."""
    if CONNECTED_TAG not in c.tags:
        raise ClassError("the empty-instance collapse requires connected constraint bodies "
                         "(preservation under disjoint unions)")
    if CONST_TAG in c.tags:
        raise ClassError("the empty-instance collapse requires constant-free constraints")


# ---------------------------------------------------------------------------
# canonical structures


def canonical_db(q: CQ, schema: Schema, nulls: Optional[NullSource] = None) -> Instance:
    """The query's atoms read as facts, variables becoming fresh nulls."""
    if q.free_vars:
        raise SchemaError("canonical database requires a Boolean query")
    nulls = nulls or NullSource()
    mapping: Homomorphism = {}
    for a in q.atoms:
        for t in a.args:
            if isinstance(t, Var) and t not in mapping:
                mapping[t] = nulls.fresh()
    return Instance(schema, frozenset(apply_hom(q.atoms, mapping)))


def canonical_query(instance: Instance) -> CQ:
    """Each value v becomes an existential variable y_v; facts become atoms."""
    names: Dict[Value, Var] = {}
    for v in sorted(active_domain(instance), key=value_key):
        if isinstance(v, Const):
            names[v] = Var(f"y_c_{v.name}")
        else:
            names[v] = Var(f"y_n_{v.id}")
    atoms = tuple(
        Atom(f.relation, tuple(names[v] for v in f.args)) for f in instance.sorted_facts()
    )
    return boolean_cq(atoms)


def critical_instance(s: Schema, a: Const) -> Instance:
    """Every visible relation holds the single all-`a` tuple; hidden ones empty."""
    facts = {Fact(r.name, (a,) * r.arity) for r in s.visible_relations}
    return Instance(s, frozenset(facts))


def normalize_single_head(c: ConstraintSet, s: Schema) -> Tuple[ConstraintSet, Schema]:
    """Split multi-atom TGD heads through fresh hidden intermediate relations.

    Answer-preserving for query implication: the intermediate relation records
    the head's variable assignment and each original head atom is re-derived
    from it.  A set whose head disjuncts are single atoms comes back unchanged.
    """
    if NONATOMIC_HEAD_TAG not in c.tags:
        return c, s
    deps: list = []
    extra: list = []
    counter = itertools.count(1)
    existing = set(s.by_name)

    def route(head: HeadDisjunct) -> HeadDisjunct:
        head_vars = variables_of(head.atoms)
        while True:
            aux_name = f"_aux_h{next(counter)}"
            if aux_name not in existing:
                break
        existing.add(aux_name)
        extra.append(RelationDecl(aux_name, len(head_vars), visible=False))
        aux_atom = Atom(aux_name, head_vars)
        for a in head.atoms:
            deps.append(TGD((aux_atom,), (HeadDisjunct((), (a,)),)))
        return HeadDisjunct(head.exist_vars, (aux_atom,))

    for dep in c.dependencies:
        if isinstance(dep, EGD):
            deps.append(dep)
            continue
        if all(len(h.atoms) <= 1 for h in dep.heads):
            deps.append(dep)
            continue
        heads = tuple(h if len(h.atoms) <= 1 else route(h) for h in dep.heads)
        deps.append(TGD(dep.body, heads))
    return ConstraintSet(tuple(deps)), s.with_relations(extra)
