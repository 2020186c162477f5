"""Bounded brute-force ground truth by exhaustive instance enumeration.

Quantifies the definitions directly: enumerate every completion of a
visible instance whose hidden part lives over the visible active domain
plus `extra_values` fresh constants, filter by constraint satisfaction,
and test the query on each survivor.  Answers are exact whenever the
theory guarantees the bounded domain suffices, and exact for any "False"
because a concrete witness is in hand.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .core import (
    ConstraintSet,
    Const,
    Fact,
    Instance,
    RelationDecl,
    Schema,
    UCQ,
    active_domain,
    constant_names,
    eval_ucq,
    satisfies,
    value_key,
)

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


@dataclass(frozen=True)
class OracleAnswer:
    answer: bool
    exactness: str
    witness: Optional[Instance] = None

    def __bool__(self) -> bool:
        return self.answer


def fresh_constants(k: int) -> Tuple[Const, ...]:
    return tuple(Const(f"!w{i}") for i in range(k))


def enumerate_extensions(v: Instance, s: Schema, d: DomainBound,
                         extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    """All F with Visible(F) = v and hidden facts over the bounded domain.

    Deterministic: hidden relations by name, tuples lexicographic, subsets by
    increasing cardinality.  Each hidden-fact subset appears exactly once.
    """
    base = Instance(s, frozenset(v.facts))
    yield from _subsets(base, _facts_over(s.hidden_relations, base, d, extra_constants), d)


def _facts_over(relations: Sequence[RelationDecl], i: Instance, d: DomainBound,
                extra_constants: Tuple[Const, ...]) -> List[Fact]:
    """Every fact of `relations` (by name, tuples lexicographic) over the
    active domain of `i`, `d.extra_values` fresh constants and
    `extra_constants`."""
    domain = sorted(active_domain(i) | set(fresh_constants(d.extra_values)) | set(extra_constants),
                    key=value_key)
    return [Fact(rel.name, tup) for rel in sorted(relations, key=lambda r: r.name)
            for tup in itertools.product(domain, repeat=rel.arity)]


def _subsets(base: Instance, pool: List[Fact], d: DomainBound) -> Iterator[Instance]:
    """`base` plus every subset of `pool` that keeps the instance within
    `d.max_facts_total` facts, by increasing size; raises SearchSpaceTooLarge
    first when their number exceeds `d.space_ceiling`."""
    top = min(len(pool), max(d.max_facts_total - len(base.facts), 0))
    size = sum(math.comb(len(pool), k) for k in range(top + 1))
    if size > d.space_ceiling:
        raise SearchSpaceTooLarge(size)
    for k in range(top + 1):
        for combo in itertools.combinations(pool, k):
            yield base.with_facts(combo)


def _models(q_guard: ConstraintSet, v: Instance, s: Schema, d: DomainBound,
            extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    for f in enumerate_extensions(v, s, d, extra_constants):
        if satisfies(q_guard, f):
            yield f


def oracle_pqi(q: UCQ, c: ConstraintSet, s: Schema, v: Instance, d: DomainBound) -> OracleAnswer:
    """Does every bounded completion of v satisfying c satisfy q?"""
    for f in _models(c, v, s, d, tuple(map(Const, constant_names(c, q)))):
        if eval_ucq(q, f) is not True:
            return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)


def oracle_nqi(
    q: UCQ, c: ConstraintSet, s: Schema, v: Instance, d: DomainBound, exact_for_class: bool = False
) -> OracleAnswer:
    """Does every bounded completion of v satisfying c falsify q?"""
    for f in _models(c, v, s, d, tuple(map(Const, constant_names(c, q)))):
        if eval_ucq(q, f) is True:
            return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, EXACT if exact_for_class else BOUNDED)


def oracle_realizable(c: ConstraintSet, s: Schema, v: Instance, d: DomainBound) -> OracleAnswer:
    """Does some bounded completion of v satisfy c?"""
    for f in _models(c, v, s, d, tuple(map(Const, constant_names(c)))):
        return OracleAnswer(True, EXACT, witness=f)
    return OracleAnswer(False, BOUNDED)


def enumerate_supersets(i: Instance, s: Schema, d: DomainBound,
                        extra_constants: Tuple[Const, ...] = ()) -> Iterator[Instance]:
    """All supersets of i (any relation) over the bounded domain."""
    pool = [f for f in _facts_over(s.relations, i, d, extra_constants) if f not in i.facts]
    yield from _subsets(i, pool, d)


def oracle_owq(q: UCQ, c: ConstraintSet, i: Instance, d: DomainBound) -> OracleAnswer:
    """Does q hold in every bounded superset of i satisfying c?"""
    for f in enumerate_supersets(i, i.schema, d, tuple(map(Const, constant_names(c, q)))):
        if satisfies(c, f) and eval_ucq(q, f) is not True:
            return OracleAnswer(False, EXACT, witness=f)
    return OracleAnswer(True, BOUNDED)
