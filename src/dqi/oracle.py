"""Bounded brute-force ground truth by exhaustive instance enumeration.

Quantifies the definitions directly: enumerate every completion of a
visible instance whose hidden part lives over the visible active domain
plus `extra_values` fresh constants, filter by constraint satisfaction,
and test the query on each survivor.  Answers are exact whenever the
theory guarantees the bounded domain suffices, and exact for any "False"
because a concrete witness is in hand.

Every candidate is `base ∪ S` for a subset S of one fixed pool of facts,
so it is a sub-instance of the top instance `base ∪ pool`, and the
matches of an atom list into a candidate are exactly the matches into the
top instance whose image lies inside the candidate.  A search therefore
matches the constraints and the query into the top instance once
(`_compile`) and decides each candidate by testing fact sets for
containment in S (a set of pool facts is a bitmask over pool positions):

- a dependency's trigger is a body match; it keeps the body facts outside
  `base`, and for a TGD the facts outside `base` of each head match that
  extends it (its supports).  An EGD trigger whose sides agree, and a TGD
  trigger with a support inside `base`, can never be violated and are
  dropped.  S satisfies the constraints iff every trigger whose body part
  lies in S has a support that lies in S;
- a match of a Boolean query keeps its facts outside `base`; the query
  holds on `base ∪ S` iff one of them lies in S (UCQs are monotone).  An
  open query never evaluates to True, so it holds on no candidate.

Most dependencies are TGDs with one body atom and head disjuncts of at most
one atom.  Those, and the one-atom query disjuncts, go through the compiled
trigger of `core.support_lookup`, shared with the NQI largest model: the
body relation's facts of the top instance are walked once, each disjunct's
supports are one dict access, and facts map straight to pool bits.  EGDs
and longer bodies or disjuncts go through `find_homomorphisms`.

Candidates come in the order of `enumerate_extensions` and
`enumerate_supersets`, so the first witness is the one the plain loop
(build the instance, then `satisfies` and `eval_ucq`) finds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .core import (
    Atom,
    ConstraintSet,
    Const,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    TGD,
    UCQ,
    _term_value,
    active_domain,
    apply_hom,
    check_query,
    constant_names,
    find_homomorphisms,
    head_matches,
    support_lookup,
    value_key,
)

T = TypeVar("T")

EXACT = "ExactForClass"
BOUNDED = "BoundedOnly"


class SearchSpaceTooLarge(RuntimeError):
    def __init__(self, size: float):
        super().__init__(f"oracle search space of about {size:.3g} instances exceeds the ceiling")
        self.size = size


@dataclass(frozen=True)
class DomainBound:
    extra_values: int = 1
    max_facts_total: int = 12
    space_ceiling: float = 5e6

    def __post_init__(self) -> None:
        if min(self.extra_values, self.max_facts_total) < 0:
            raise ValueError("extra values and the fact bound must not be negative")
        if not self.space_ceiling > 0:  # also rejects nan, which would turn the ceiling off
            raise ValueError("the space ceiling must be positive")


@dataclass(frozen=True)
class OracleAnswer:
    answer: bool
    exactness: str
    witness: Optional[Instance] = None

    def __bool__(self) -> bool:
        return self.answer


def fresh_constants(k: int) -> Tuple[Const, ...]:
    return tuple(Const(f"!w{i}") for i in range(k))


def _extension_space(v: Instance, s: Schema, d: DomainBound,
                     extra_constants: Tuple[Const, ...]) -> Tuple[Instance, List[Fact]]:
    """The base and the fact pool of the completions of `v`: every hidden fact."""
    base = Instance(s, frozenset(v.facts))
    return base, _facts_over(s.hidden_relations, base, d, extra_constants)


def _superset_space(i: Instance, s: Schema, d: DomainBound,
                    extra_constants: Tuple[Const, ...]) -> Tuple[Instance, List[Fact]]:
    """The base and the fact pool of the supersets of `i`: every fact of `s`
    not in it."""
    return i, [f for f in _facts_over(s.relations, i, d, extra_constants) if f not in i.facts]


def enumerate_extensions(v: Instance, s: Schema, d: DomainBound,
                         extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    """All F with Visible(F) = v and hidden facts over the bounded domain.

    Deterministic: hidden relations by name, tuples lexicographic, subsets by
    increasing cardinality.  Each hidden-fact subset appears exactly once.
    """
    base, pool = _extension_space(v, s, d, extra_constants)
    for combo in _combinations(base, pool, d):
        yield base.with_facts(combo)


def _facts_over(relations: Sequence[RelationDecl], i: Instance, d: DomainBound,
                extra_constants: Tuple[Const, ...]) -> List[Fact]:
    """Every fact of `relations` (by name, tuples lexicographic) over the
    active domain of `i`, `d.extra_values` fresh constants and
    `extra_constants`."""
    domain = sorted(active_domain(i) | set(fresh_constants(d.extra_values)) | set(extra_constants),
                    key=value_key)
    return [Fact(rel.name, tup) for rel in sorted(relations, key=lambda r: r.name)
            for tup in itertools.product(domain, repeat=rel.arity)]


def _combinations(base: Instance, pool: Sequence[T], d: DomainBound) -> Iterator[Tuple[T, ...]]:
    """Every subset of `pool` that keeps `base` within `d.max_facts_total`
    facts, by increasing size.  Raises SearchSpaceTooLarge at once, not on
    the first item, when their number exceeds `d.space_ceiling`."""
    top = min(len(pool), max(d.max_facts_total - len(base.facts), 0))
    size = sum(math.comb(len(pool), k) for k in range(top + 1))
    if size > d.space_ceiling:
        raise SearchSpaceTooLarge(size)
    return itertools.chain.from_iterable(itertools.combinations(pool, k) for k in range(top + 1))


# A set of pool facts is a bitmask: pool fact i is bit 1 << i.  A trigger is
# (its facts, its supports); it is violated inside S when its facts lie in S
# and none of its supports does.
Trigger = Tuple[int, FrozenSet[int]]
# triggers filed under their lowest fact, or under 0 when they have none
Index = Dict[int, List[Trigger]]


def _violated(index: Index, combo: Tuple[int, ...], s: int) -> bool:
    """Is some trigger of `index` violated inside S = sum(combo)?  Only the
    triggers filed under 0 or a fact of S can lie in S."""
    for key in (0, *combo):
        triggers = index.get(key)
        if triggers is None:
            continue
        for facts, supports in triggers:
            if facts & s == facts:
                for sup in supports:
                    if sup & s == sup:
                        break
                else:
                    return True
    return False


def _index(triggers: Iterable[Trigger]) -> Index:
    index: Index = {}
    for trigger in triggers:
        index.setdefault(trigger[0] & -trigger[0], []).append(trigger)
    return index


def _compile(c: ConstraintSet, q: Optional[UCQ], base: Instance,
             pool: Sequence[Fact]) -> Tuple[Index, Index]:
    """The triggers of `c` and the matches of `q` into `base ∪ pool`, as
    indexes over pool bitmasks (see the module docstring).  A match of the
    query is a trigger without supports, so the query holds on `base ∪ S`
    iff that index has a trigger violated inside S."""
    top = base.with_facts(pool)
    bit = {f: 1 << i for i, f in enumerate(pool) if f not in base.facts}
    facts_of: Dict[str, List[Fact]] = {}
    for f in top.facts:
        facts_of.setdefault(f.relation, []).append(f)

    def outside(facts: Iterable[Fact]) -> int:
        return sum(bit.get(f, 0) for f in set(facts))

    def compiled(body: Atom, heads: Sequence[HeadDisjunct]) -> Iterator[Trigger]:
        """The triggers of a single-atom body whose head disjuncts have one
        atom each; with no heads, the matches of the body atom."""
        lookup = support_lookup(body, heads, facts_of)
        for f in facts_of.get(body.relation, ()):
            found = lookup(f)
            if found is not None:
                supports = frozenset([bit.get(g, 0) for g, in found])
                if 0 not in supports:
                    yield bit.get(f, 0), supports

    triggers = set()
    for dep in c.dependencies:
        if isinstance(dep, TGD) and len(dep.body) == 1 and all(len(d.atoms) <= 1 for d in dep.heads):
            if all(d.atoms for d in dep.heads):  # an empty disjunct holds on every candidate
                triggers.update(compiled(dep.body[0], dep.heads))
            continue
        for h in find_homomorphisms(dep.body, top):
            if isinstance(dep, EGD):
                if _term_value(dep.left, h) == _term_value(dep.right, h):
                    continue
                supports: FrozenSet[int] = frozenset()
            else:
                supports = frozenset(outside(apply_hom(disjunct.atoms, g))
                                     for disjunct in dep.heads
                                     for g in head_matches(disjunct, h, top))
                if 0 in supports:
                    continue
            triggers.add((outside(apply_hom(dep.body, h)), supports))
    matches = set()
    if q is not None and not q.free_vars:
        for cq in q.disjuncts:
            if len(cq.atoms) == 1:
                matches.update(compiled(cq.atoms[0], ()))
            else:
                matches.update((outside(apply_hom(cq.atoms, h)), frozenset())
                               for h in find_homomorphisms(cq.atoms, top))
    return _index(triggers), _index(matches)


def _search(c: ConstraintSet, q: Optional[UCQ], want: bool, base: Instance, pool: List[Fact],
            d: DomainBound) -> Iterator[Instance]:
    """Every candidate of `_combinations(base, pool, d)`, in its order, that
    satisfies `c` and on which `q` is True iff `want` (no query, like an
    open one, is True on no candidate)."""
    combos = _combinations(base, [1 << i for i in range(len(pool))], d)
    constraints, query = _compile(c, q, base, pool)
    for combo in combos:
        s = sum(combo)
        if _violated(query, combo, s) == want and not _violated(constraints, combo, s):
            yield base.with_facts(pool[b.bit_length() - 1] for b in combo)


def _models(q_guard: ConstraintSet, v: Instance, s: Schema, d: DomainBound,
            extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    yield from _search(q_guard, None, False, *_extension_space(v, s, d, extra_constants), d)


def oracle_pqi(q: UCQ, c: ConstraintSet, s: Schema, v: Instance, d: DomainBound) -> OracleAnswer:
    """Does every bounded completion of v satisfying c satisfy q?"""
    check_query(q, s)
    space = _extension_space(v, s, d, tuple(map(Const, constant_names(c, q))))
    for f in _search(c, q, False, *space, d):
        return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)


def oracle_nqi(q: UCQ, c: ConstraintSet, s: Schema, v: Instance, d: DomainBound) -> OracleAnswer:
    """Does every bounded completion of v satisfying c falsify q?"""
    check_query(q, s)
    space = _extension_space(v, s, d, tuple(map(Const, constant_names(c, q))))
    for f in _search(c, q, True, *space, d):
        return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)


def oracle_realizable(c: ConstraintSet, s: Schema, v: Instance, d: DomainBound) -> OracleAnswer:
    """Does some bounded completion of v satisfy c?"""
    for f in _models(c, v, s, d, tuple(map(Const, constant_names(c)))):
        return OracleAnswer(True, EXACT, witness=f)
    return OracleAnswer(False, BOUNDED)


def enumerate_supersets(i: Instance, s: Schema, d: DomainBound,
                        extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    """All supersets of i (any relation) over the bounded domain."""
    base, pool = _superset_space(i, s, d, extra_constants)
    for combo in _combinations(base, pool, d):
        yield base.with_facts(combo)


def oracle_owq(q: UCQ, c: ConstraintSet, i: Instance, d: DomainBound) -> OracleAnswer:
    """Does q hold in every bounded superset of i satisfying c?"""
    check_query(q, i.schema)
    space = _superset_space(i, i.schema, d, tuple(map(Const, constant_names(c, q))))
    for f in _search(c, q, False, *space, d):
        return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)
