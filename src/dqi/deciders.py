"""Decision procedures with three-valued verdicts and checkable certificates.

Each decider dispatches on the syntactic class of the constraint set: the
most specific exact method runs first, budgeted search methods follow, and
anything outside every method's reach returns Unknown with the limiting
reason.  False verdicts for query-implication questions carry a witness
instance that a checker can re-validate independently (it satisfies the
constraints, agrees on the visible part, and has the claimed query polarity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .core import (
    CQ,
    UCQ,
    ClassError,
    Const,
    ConstraintSet,
    Instance,
    Schema,
    Value,
    Var,
    active_domain,
    apply_subst,
    canonical_db,
    constant_names,
    eval_ucq,
    ground_nulls,
    normalize_single_head,
    require_empty_collapse,
    value_key,
    CONST_TAG,
    DISJ_TAG,
    EGD_TAG,
    LINEAR_TAG,
)
from .chase import (
    BUDGET_CUT,
    DUMMY,
    EGD_FAILURE,
    LEAF,
    PRUNED,
    SATURATED,
    ChaseBudget,
    ChaseTree,
    chase_vis_critical,
    classical_chase,
    decide_owq_atomic_linear,
    decide_pqi_critical_linear,
    visible_chase,
)
from .gfp import nqi_gfp_detail
from .oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi


# ---------------------------------------------------------------------------
# verdicts and certificates


@dataclass(frozen=True)
class Witness:
    """A concrete instance backing a verdict; `polarity` records whether the
    query is claimed true or false on it (None for realizability)."""

    instance: Instance
    polarity: Optional[bool] = None


@dataclass(frozen=True)
class ChaseExhausted:
    """Statistics of a chase tree that settled every branch."""

    nodes: int
    leaves: int
    dummies: int
    pruned: int


@dataclass(frozen=True)
class ClassExact:
    """The verdict came from a method that is exact for the input's class."""

    method: str


Certificate = Union[Witness, ChaseExhausted, ClassExact]


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer: True, False, or None meaning unknown."""

    value: Optional[bool]
    reason: str = ""
    certificate: Optional[Certificate] = None


def _tree_stats(tree: ChaseTree) -> ChaseExhausted:
    return ChaseExhausted(
        nodes=len(tree.nodes),
        leaves=len(tree.by_status(LEAF)),
        dummies=len(tree.by_status(DUMMY)),
        pruned=len(tree.by_status(PRUNED)),
    )


def _require_boolean(q: UCQ) -> None:
    if q.free_vars:
        raise ClassError("this decision requires a Boolean query; use the per-tuple variant")


# ---------------------------------------------------------------------------
# positive query implication


def decide_pqi(q: UCQ, c: ConstraintSet, s: Schema, v: Instance, b: ChaseBudget) -> Verdict:
    """Is the query certainly true in every constraint-satisfying completion
    of the visible instance?

    Runs the visible chase tree with query pruning (a branch is settled the
    moment the query holds on it, which is sound because later steps only
    extend or homomorphically collapse the instance).  Any surviving leaf
    that violates the query refutes the implication; when every branch is
    query-satisfied or inconsistent, the implication holds.  On a visible
    instance with no consistent completion the answer is vacuously True.
    """
    _require_boolean(q)
    tree = visible_chase(c, s, v, b, prune=q)
    leaves = tree.by_status(LEAF)  # the query stop failed on each of them
    if leaves:
        return Verdict(False, certificate=Witness(ground_nulls(leaves[0].instance), polarity=False))
    if tree.by_status(BUDGET_CUT):
        return Verdict(None, reason="chase budget exhausted before every branch settled",
                       certificate=_tree_stats(tree))
    return Verdict(True, certificate=_tree_stats(tree))


# ---------------------------------------------------------------------------
# negative query implication


_NQI_SEARCH = (
    DomainBound(extra_values=1, max_facts_total=8, space_ceiling=3e5),
    DomainBound(extra_values=2, max_facts_total=8, space_ceiling=3e5),
)


def decide_nqi(q: UCQ, c: ConstraintSet, s: Schema, v: Instance, b: ChaseBudget) -> Verdict:
    """Is the query certainly false in every constraint-satisfying completion
    of the visible instance?

    Exact for linear TGD constraint sets via the greatest-fixpoint method
    (with the selected-attribute transform outside the inclusion-dependency
    fragment).  Other classes get a bounded counterexample search, which can
    refute but never confirm, so confirmation degrades to Unknown.
    """
    _require_boolean(q)
    try:
        answer, witness, method = nqi_gfp_detail(q, c, s, v)
    except ClassError:
        pass
    else:
        if answer:
            return Verdict(True, certificate=ClassExact(method))
        assert witness is not None
        return Verdict(False, certificate=Witness(witness, polarity=True))
    for bound in _NQI_SEARCH:
        try:
            found = oracle_nqi(q, c, s, v, bound)
        except SearchSpaceTooLarge:
            break
        if not found.answer:
            assert found.witness is not None
            return Verdict(False, certificate=Witness(found.witness, polarity=True))
    return Verdict(None, reason="no complete method for this constraint class; "
                                "bounded search found no counterexample")


# ---------------------------------------------------------------------------
# realizability


def decide_realizable(c: ConstraintSet, s: Schema, v: Instance, b: ChaseBudget) -> Verdict:
    """Does the visible instance extend to a full instance satisfying the
    constraints?  Any settled chase branch is such an extension; if every
    branch dies on an inconsistency, none exists."""
    tree = visible_chase(c, s, v, b)
    leaves = tree.by_status(LEAF)
    if leaves:
        best = min(leaves, key=lambda n: (len(n.instance.facts), n.id))
        return Verdict(True, certificate=Witness(ground_nulls(best.instance), polarity=None))
    if tree.by_status(BUDGET_CUT):
        return Verdict(None, reason="chase budget exhausted before every branch settled",
                       certificate=_tree_stats(tree))
    return Verdict(False, certificate=_tree_stats(tree))


# ---------------------------------------------------------------------------
# open-world query answering


def decide_owq(q: UCQ, c: ConstraintSet, i: Instance, b: ChaseBudget) -> Verdict:
    """Does the query hold in every instance that contains `i` and satisfies
    the constraints (open-world certain answering)?"""
    _require_boolean(q)
    if eval_ucq(q, i) is True:
        return Verdict(True, certificate=ClassExact("query holds on the given facts"))
    exact = decide_owq_atomic_linear(q, c, i)
    if exact is not None:
        return Verdict(exact, certificate=ClassExact("fact-type reachability"))
    res = classical_chase(i, c, b, tripwire=q)
    if eval_ucq(q, res.instance) is True:
        return Verdict(True, certificate=ClassExact("chase derived the query"))
    if res.status == EGD_FAILURE:
        return Verdict(True, reason="no superset of the instance satisfies the constraints",
                       certificate=ClassExact("chase clashed two constants"))
    if res.status == SATURATED:
        return Verdict(False, certificate=Witness(ground_nulls(res.instance), polarity=False))
    return Verdict(None, reason="chase budget exhausted before saturation")


# ---------------------------------------------------------------------------
# existence problems (schema-level)


_CRITICAL = Const("a")


def _reject_query_constants(q: UCQ) -> None:
    if constant_names(q=q):
        raise ClassError("the single-value collapse requires a constant-free query")


def decide_exists_pqi(q: UCQ, c: ConstraintSet, s: Schema, b: ChaseBudget) -> Verdict:
    """Is there a realizable visible instance on which the query is certainly
    true?  For constant-free non-disjunctive constraints this collapses to
    the critical instance whose domain is a single value."""
    _require_boolean(q)
    tags = c.tags
    if DISJ_TAG in tags:
        raise ClassError("existence of a positive implication is undecidable with "
                         "disjunctive heads; refusing")
    if CONST_TAG in tags:
        raise ClassError("the single-value collapse requires constant-free constraints")
    _reject_query_constants(q)
    if EGD_TAG not in tags and LINEAR_TAG in tags:
        # multi-atom heads are routed through hidden intermediates first;
        # the fact-type method needs single-atom heads
        c1, s1 = normalize_single_head(c, s)
        answer = decide_pqi_critical_linear(q, c1, s1)
        return Verdict(answer, certificate=ClassExact("fact types over the critical instance"))
    res = chase_vis_critical(c, s, _CRITICAL, b)
    if eval_ucq(q, res.instance) is True:
        return Verdict(True, certificate=ClassExact("critical-instance chase"))
    if res.status == SATURATED:
        return Verdict(False, certificate=Witness(ground_nulls(res.instance), polarity=False))
    return Verdict(None, reason="critical-instance chase budget exhausted")


def decide_exists_nqi(q: UCQ, c: ConstraintSet, s: Schema, b: ChaseBudget) -> Verdict:
    """Is there a realizable visible instance on which the query is certainly
    false?  For constraints preserved under disjoint unions this collapses to
    the empty visible instance: the answer is True exactly when every query
    disjunct either contains a visible atom or has a canonical database whose
    visible chase tree dies on every branch."""
    _require_boolean(q)
    require_empty_collapse(c)
    _reject_query_constants(q)
    unknown = False
    for d in q.disjuncts:
        if any(s.decl(a.relation).visible for a in d.atoms):
            continue  # unsatisfiable with an empty visible part
        tree = visible_chase(c, s, canonical_db(d, s), b)
        leaves = tree.by_status(LEAF)
        if leaves:
            best = min(leaves, key=lambda n: (len(n.instance.facts), n.id))
            return Verdict(False, certificate=Witness(ground_nulls(best.instance), polarity=True))
        if tree.by_status(BUDGET_CUT):
            unknown = True
    if unknown:
        return Verdict(None, reason="chase budget exhausted before every branch settled")
    return Verdict(True, certificate=ClassExact("empty-instance collapse"))


# ---------------------------------------------------------------------------
# non-Boolean queries: per-tuple verdicts


def _substitute(q: UCQ, binding: Dict[Var, Const]) -> UCQ:
    disjuncts = []
    for d in q.disjuncts:
        disjuncts.append(CQ((), d.exist_vars, tuple(apply_subst(a, binding) for a in d.atoms)))
    return UCQ(tuple(disjuncts))


def _decide_tuples(decider, q: UCQ, c: ConstraintSet, s: Schema, v: Instance,
                   b: ChaseBudget) -> Tuple[frozenset, Dict[Tuple[Value, ...], Verdict]]:
    if not q.free_vars:
        raise ClassError("per-tuple decision requires a query with free variables")
    adom = sorted((x for x in active_domain(v) if isinstance(x, Const)), key=value_key)
    verdicts: Dict[Tuple[Value, ...], Verdict] = {}
    for tup in itertools.product(adom, repeat=len(q.free_vars)):
        verdicts[tup] = decider(_substitute(q, dict(zip(q.free_vars, tup))), c, s, v, b)
    answers = frozenset(t for t, verdict in verdicts.items() if verdict.value is True)
    return answers, verdicts


def pqi_tuples(q: UCQ, c: ConstraintSet, s: Schema, v: Instance,
               b: ChaseBudget) -> Tuple[frozenset, Dict[Tuple[Value, ...], Verdict]]:
    """Tuples over the visible active domain whose substitution makes the
    positive implication hold, plus the per-tuple verdicts."""
    return _decide_tuples(decide_pqi, q, c, s, v, b)


def nqi_tuples(q: UCQ, c: ConstraintSet, s: Schema, v: Instance,
               b: ChaseBudget) -> Tuple[frozenset, Dict[Tuple[Value, ...], Verdict]]:
    """Tuples over the visible active domain whose substitution makes the
    negative implication hold, plus the per-tuple verdicts."""
    return _decide_tuples(decide_nqi, q, c, s, v, b)
