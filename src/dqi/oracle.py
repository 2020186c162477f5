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
body relation's facts of `base` and the pool are walked once, each
disjunct's supports are one dict access, and facts map straight to pool
bits.  EGDs and longer bodies or disjuncts go through `find_homomorphisms`
on the top instance, which is made only for them.

The size of a space is counted from its domain and relations before its
pool is built (`_Pool`), and a space over the ceiling raises
SearchSpaceTooLarge.  After compiling, a search drops every pool fact that
on its own is the facts of a trigger without supports (node consistency,
the first step of support counting, AC-4, Mohr & Henderson 1986): a
constraint trigger, or, when the query must fail, a one-fact query match.
No candidate holding such a fact can be an answer.  When such a trigger
lies in the base, no candidate is.  The size check counts the whole pool.

Candidates come in the order of `enumerate_extensions` and
`enumerate_supersets`, less the ones holding a dropped fact, so the first
witness is the one the plain loop (build the instance, then `satisfies`
and `eval_ucq`) finds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
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
    Value,
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
                     extra_constants: Tuple[Const, ...]) -> Tuple[Instance, "_Pool"]:
    """The base and the fact pool of the completions of `v`: every hidden fact."""
    base = Instance(s, frozenset(v.facts))
    return base, _Pool(s.hidden_relations, _domain(base, d, extra_constants))


def _superset_space(i: Instance, s: Schema, d: DomainBound,
                    extra_constants: Tuple[Const, ...]) -> Tuple[Instance, "_Pool"]:
    """The base and the fact pool of the supersets of `i`: every fact of `s`
    not in it."""
    return i, _Pool(s.relations, _domain(i, d, extra_constants), skip=i.facts)


def enumerate_extensions(v: Instance, s: Schema, d: DomainBound,
                         extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    """All F with Visible(F) = v and hidden facts over the bounded domain.

    Deterministic: hidden relations by name, tuples lexicographic, subsets by
    increasing cardinality.  Each hidden-fact subset appears exactly once.
    """
    base, pool = _extension_space(v, s, d, extra_constants)
    for combo in _combinations(pool, _top(base, len(pool), d)):
        yield base.with_facts(combo)


def _domain(i: Instance, d: DomainBound, extra_constants: Tuple[Const, ...]) -> List[Value]:
    """The active domain of `i`, `d.extra_values` fresh constants and
    `extra_constants`, in `value_key` order."""
    return sorted(active_domain(i) | set(fresh_constants(d.extra_values)) | set(extra_constants),
                  key=value_key)


class _Pool(Sequence[Fact]):
    """Every fact of `relations` (by name, tuples lexicographic) over
    `domain` that is not in `skip`, which may hold only such facts.  Its
    length, the sum of |domain|^arity less |skip|, is counted without
    building a fact, so a space over the ceiling is refused before its
    pool exists; the facts are built on first access."""

    def __init__(self, relations: Sequence[RelationDecl], domain: List[Value],
                 skip: FrozenSet[Fact] = frozenset()):
        self._relations = sorted(relations, key=lambda r: r.name)
        self._domain = domain
        self._skip = skip
        self._len = sum(len(domain) ** r.arity for r in relations) - len(skip)

    @cached_property
    def _facts(self) -> List[Fact]:
        facts = (Fact(rel.name, tup) for rel in self._relations
                 for tup in itertools.product(self._domain, repeat=rel.arity))
        return [f for f in facts if f not in self._skip]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Fact:  # type: ignore[override]
        return self._facts[i]

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)


def _top(base: Instance, n: int, d: DomainBound) -> int:
    """The most facts a candidate takes from a pool of `n`, so that `base`
    stays within `d.max_facts_total` facts.  Raises SearchSpaceTooLarge when
    the subsets of the pool of at most that many exceed `d.space_ceiling`."""
    top = min(n, max(d.max_facts_total - len(base.facts), 0))
    size = sum(math.comb(n, k) for k in range(top + 1))
    if size > d.space_ceiling:
        raise SearchSpaceTooLarge(size)
    return top


def _combinations(items: Sequence[T], top: int) -> Iterator[Tuple[T, ...]]:
    """Every subset of at most `top` of `items`, by increasing size, each
    in the order of `items`."""
    return itertools.chain.from_iterable(itertools.combinations(items, k) for k in range(top + 1))


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


def _unsupported(index: Index) -> int:
    """The pool facts that each on their own are the facts of a trigger of
    `index` with no supports, as a mask: no candidate holding one of them
    escapes the trigger.  -1, every fact and the base too, when such a
    trigger lies in the base."""
    dead = 0
    for key, triggers in index.items():
        for facts, supports in triggers:
            if facts == key and not supports:
                if not key:
                    return -1
                dead |= key
                break
    return dead


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
    bit = {f: 1 << i for i, f in enumerate(pool) if f not in base.facts}
    facts_of: Dict[str, List[Fact]] = {}
    for f in itertools.chain(base.facts, bit):
        facts_of.setdefault(f.relation, []).append(f)
    cqs = q.disjuncts if q is not None and not q.free_vars else ()
    single = [isinstance(dep, TGD) and len(dep.body) == 1 and all(len(d.atoms) <= 1 for d in dep.heads)
              for dep in c.dependencies]
    # the top instance, made only for the homomorphism search
    top = base.with_facts(pool) if not all(single) or any(len(cq.atoms) > 1 for cq in cqs) else base

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
    for dep, one_atom in zip(c.dependencies, single):
        if one_atom:
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
    for cq in cqs:
        if len(cq.atoms) == 1:
            matches.update(compiled(cq.atoms[0], ()))
        else:
            matches.update((outside(apply_hom(cq.atoms, h)), frozenset())
                           for h in find_homomorphisms(cq.atoms, top))
    return _index(triggers), _index(matches)


def _search(c: ConstraintSet, q: Optional[UCQ], want: bool, base: Instance, pool: Sequence[Fact],
            d: DomainBound) -> Iterator[Instance]:
    """Every candidate of `_combinations(pool, _top(base, len(pool), d))`,
    in its order, that satisfies `c` and on which `q` is True iff `want` (no
    query, like an open one, is True on no candidate).

    The size check counts the whole pool.  The candidates holding a pool
    fact that alone makes a trigger without supports are then skipped: a
    constraint trigger, or, when `q` must fail, a one-fact query match.
    When such a trigger lies in the base, no candidate is left."""
    top = _top(base, len(pool), d)
    constraints, query = _compile(c, q, base, pool)
    dead = _unsupported(constraints) | (0 if want else _unsupported(query))
    if dead < 0:
        return
    live = [1 << i for i in range(len(pool)) if not dead >> i & 1]
    for combo in _combinations(live, top):
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
    for combo in _combinations(pool, _top(base, len(pool), d)):
        yield base.with_facts(combo)


def oracle_owq(q: UCQ, c: ConstraintSet, i: Instance, d: DomainBound) -> OracleAnswer:
    """Does q hold in every bounded superset of i satisfying c?"""
    check_query(q, i.schema)
    space = _superset_space(i, i.schema, d, tuple(map(Const, constant_names(c, q))))
    for f in _search(c, q, False, *space, d):
        return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)
