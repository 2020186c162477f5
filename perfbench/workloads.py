"""The benchmark's three seeded workloads.

A workload turns a run seed into a fixed list of problems.  A problem is
one top-level call (or, in `oracle_enum`, one reduction pair) whose result
the benchmark checks.  Each problem carries its own generator seed,
`seed * SEED_STRIDE + index`, so any single problem can be rebuilt on its
own.  Generation, checking and classification run outside the timed region;
only `solve` is timed.

Outcomes are "decided" (a True/False verdict, or an agreement between the
two sides of a reduction) or "skipped" (Unknown, `ClassError`,
`SearchSpaceTooLarge`, or a harness precondition that does not hold), or,
in `oracle_enum`, "inconclusive" (the two sides disagree, and the fact
budgets are shown to explain it; see `_bound_explains`).
An exception of any other type is a failure, counted by the caller.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from dqi import chase, core, deciders, oracle, problemgen, reductions

SEED_STRIDE = 1_000_000

DECIDED = "decided"
SKIPPED = "skipped"
INCONCLUSIVE = "inconclusive"


@dataclass
class Problem:
    pid: int
    label: str
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], List[Problem]]
    solve: Callable[[Problem], Any]
    # returns (outcome, error message or None)
    check: Callable[[Problem, Any], Tuple[str, Optional[str]]]
    warm: Callable[[], None]


def interleave(problems: List[Problem], seed: int) -> List[Problem]:
    """The problems in a seeded random order, renumbered.

    A workload built in blocks of unlike problems (one block per reduction
    pair, or per graph size) would put its slowest problems next to one
    another, so a few seconds of a slow machine would move the whole tail.
    In a random order the slow problems are spread over the pass."""
    problems = list(problems)
    random.Random(seed).shuffle(problems)
    for pid, p in enumerate(problems):
        p.pid = pid
    return problems


# ---------------------------------------------------------------------------
# certificate audit shared by the decider workloads (the acceptance suite's
# test_accept_10 rules)


def audit_verdict(verdict, q, c, v) -> Optional[str]:
    if verdict.value is None:
        return None
    cert = verdict.certificate
    if cert is None:
        return "decisive verdict without a certificate"
    if isinstance(cert, deciders.Witness):
        if not core.satisfies(c, cert.instance):
            return "witness violates the constraints"
        if v is not None and cert.instance.visible().facts != v.visible().facts:
            return "witness changes the visible part"
        if cert.polarity is not None and (core.eval_ucq(q, cert.instance) is True) != cert.polarity:
            return "witness has the wrong query polarity"
        return None
    if not isinstance(cert, (deciders.ChaseExhausted, deciders.ClassExact)):
        return f"unexpected certificate type {type(cert).__name__}"
    return None


# ---------------------------------------------------------------------------
# nqi_reach: decide_nqi on digraph-reachability encodings

REACH_BUDGET = chase.ChaseBudget(10000, 2000, 200)
# The family is random_digraph(max_nodes=8) + reachability_problem.  A run
# draws from it a fixed number of graphs for each (nodes, edges) cell, half
# of each cell reachable: 5-node graphs with their modal edge counts, 116-168
# visible facts.  Cost grows steeply with the number of facts (0.3 s at 5
# nodes, 1-1.5 s at 6, 2-6 s at 8 on a 2-core container), so a draw that is
# not stratified would make the total depend on which sizes a seed happens
# to give rather than on the code, and larger graphs would leave too few
# problems in a run for a steady median.
REACH_CELLS = ((5, 4, 20), (5, 5, 20), (5, 6, 20))


def _reach_make(seed: int) -> List[Problem]:
    problems: List[Problem] = []
    index = 0
    for n_nodes, n_edges, count in REACH_CELLS:
        want = {True: count // 2, False: count - count // 2}
        while want[True] or want[False]:
            gseed = seed * SEED_STRIDE + index
            index += 1
            nodes, edges, source, target = problemgen.random_digraph(
                random.Random(gseed), max_nodes=8)
            if len(nodes) != n_nodes or len(edges) != n_edges:
                continue
            reachable = problemgen.bfs_reachable(nodes, edges, source, target)
            if want[reachable] == 0:
                continue
            want[reachable] -= 1
            q, c, s, v = problemgen.reachability_problem(nodes, edges, source, target)
            problems.append(Problem(len(problems), f"graph{gseed}",
                                    {"q": q, "c": c, "s": s, "v": v, "expected": not reachable}))
    return interleave(problems, seed)


def _reach_solve(p: Problem):
    d = p.data
    return deciders.decide_nqi(d["q"], d["c"], d["s"], d["v"], REACH_BUDGET)


def _reach_check(p: Problem, verdict) -> Tuple[str, Optional[str]]:
    d = p.data
    if verdict.value is None:
        return SKIPPED, None
    if verdict.value is not d["expected"]:
        return DECIDED, f"NQI verdict {verdict.value} but BFS says {d['expected']}"
    return DECIDED, audit_verdict(verdict, d["q"], d["c"], d["v"])


def _reach_warm() -> None:
    q, c, s, v = problemgen.reachability_problem(["n0", "n1", "n2"], [("n0", "n1")], "n0", "n2")
    deciders.decide_nqi(q, c, s, v, REACH_BUDGET)


# ---------------------------------------------------------------------------
# oracle_enum: reduction pairs checked by the bounded oracle on both sides
#
# Inputs and domain bounds follow the reduction differentials of the test
# suite, except that every space ceiling is ORACLE_CEILING.  The suite's
# ceilings (2e5-2e6 candidates) admit single seeds that enumerate for
# 20-30 s, longer than a whole run.  Above the ceiling the oracle raises
# SearchSpaceTooLarge from its size estimate alone: a declared skip.
#
# Each pair takes ORACLE_DRAWS consecutive generator seeds, so sizes come
# in the generators' own proportions.  Work per problem is spread widely
# (its standard deviation is about its mean), so a run needs thousands of
# distinct problems for a steady total; one pass over distinct problems
# averages the inputs better than repeated passes over fewer.

ORACLE_CEILING = 1e3
ORACLE_DRAWS = 600
# space ceiling of a disagreement's re-check, the harnesses' largest; the
# re-check runs outside the timed region
RECHECK_CEILING = 2e6


def _bound(v, extra_facts: int = 6) -> oracle.DomainBound:
    return oracle.DomainBound(extra_values=1, max_facts_total=len(v.facts) + extra_facts,
                              space_ceiling=ORACLE_CEILING)


def _gen_pqi_problem(rng):
    s = problemgen.random_schema(rng, max_relations=3)
    c = problemgen.random_id_constraints(rng, s)
    q = problemgen.random_boolean_query(rng, s)
    v = problemgen.random_visible_instance(rng, s, density=0.3)
    return {"p": reductions.ProblemInstance(reductions.PQI, c, s, query=q, instance=v)}


def _gen_open_world(rng):
    s = problemgen.random_schema(rng)
    c = problemgen.random_id_constraints(rng, s)
    q = problemgen.random_boolean_query(rng, s)
    f = problemgen.random_visible_instance(rng, s, density=0.25)
    return {"q": q, "c": c, "f": f}


def _gen_nqi_problem(rng):
    q, c, s, v = problemgen.random_id_problem(rng)
    return {"q": q, "c": c, "s": s, "v": v}


def _gen_disj_exact(rng):
    q, c, s, v = problemgen.random_linear_problem(rng, max_heads=2, hidden_disjunct_atoms=True)
    return {"q": q, "c": c, "s": s, "v": v}


def _gen_disj_forward(rng):
    q, c, s, v = problemgen.random_linear_problem(rng, max_heads=2, adom=2)
    v = problemgen.random_visible_instance(rng, s, adom=2, density=0.7)
    return {"q": q, "c": c, "s": s, "v": v}


# A side is one oracle question: (kind, q, c, s, instance, bound).

def _sides_pqi_to_nqi(d):
    p = d["p"]
    out = reductions.pqi_to_nqi(p)
    return (("pqi", p.query, p.constraints, p.schema, p.instance, _bound(p.instance)),
            ("nqi", out.query, out.constraints, out.schema, out.instance, _bound(out.instance)))


def _sides_nqi_to_real(d):
    q, c, s, v = d["q"], d["c"], d["s"], d["v"]
    out = reductions.nqi_to_realizability(q, c, s, v)
    return (("nqi", q, c, s, v, _bound(v)),
            ("realizable", None, out.constraints, out.schema, out.instance, _bound(out.instance)))


def _sides_owq_to_pqi(d):
    q, c, f = d["q"], d["c"], d["f"]
    out = reductions.owq_to_pqi(q, c, f)
    return (("owq", q, c, f.schema, f, _bound(f)),
            ("pqi", out.query, out.constraints, out.schema, out.instance, _bound(out.instance, 5)))


def _sides_disj(d):
    q, c, s, v = d["q"], d["c"], d["s"], d["v"]
    p = reductions.ProblemInstance(reductions.EXISTS_PQI, c, s, query=q)
    out = reductions.disj_to_constants(p)
    lifted = reductions.constant_encoding_lift(p, v)
    return (("pqi", q, c, s, v, _bound(v)),
            ("pqi", out.query, out.constraints, out.schema, lifted, _bound(lifted, 5)))


# name, generator, sides, how the two answers must relate
ORACLE_PAIRS = (
    ("pqi_to_nqi", _gen_pqi_problem, _sides_pqi_to_nqi, "equal"),
    # the implication fails exactly when the flagged instance stays realizable
    ("nqi_to_realizability", _gen_nqi_problem, _sides_nqi_to_real, "opposite"),
    ("owq_to_pqi", _gen_open_world, _sides_owq_to_pqi, "equal"),
    ("disj_to_constants_exact", _gen_disj_exact, _sides_disj, "equal"),
    # with visible atoms inside disjuncts only a True answer carries over
    ("disj_to_constants_forward", _gen_disj_forward, _sides_disj, "forward"),
)
_PAIRS = {name: (sides, rule) for name, _gen, sides, rule in ORACLE_PAIRS}


def _ask(side):
    kind, q, c, s, v, b = side
    if kind == "pqi":
        return oracle.oracle_pqi(q, c, s, v, b)
    if kind == "nqi":
        return oracle.oracle_nqi(q, c, s, v, b)
    if kind == "realizable":
        return oracle.oracle_realizable(c, s, v, b)
    return oracle.oracle_owq(q, c, v, b)


def _oracle_make(seed: int) -> List[Problem]:
    problems: List[Problem] = []
    for name, gen, _sides, _rule in ORACLE_PAIRS:
        for index in range(ORACLE_DRAWS):
            gseed = seed * SEED_STRIDE + index
            data = dict(gen(random.Random(gseed)), pair=name)
            problems.append(Problem(len(problems), f"{name}/{gseed}", data))
    return interleave(problems, seed)


def _oracle_solve(p: Problem):
    """Transform, then ask both sides.  Returns (rule, (side, answer),
    (side, answer) or None), or None when a side is over the ceiling."""
    sides, rule = _PAIRS[p.data["pair"]]
    side_a, side_b = sides(p.data)
    try:
        a = _ask(side_a)
        if rule == "forward" and a.answer is not True:
            return rule, (side_a, a), None
        return rule, (side_a, a), (side_b, _ask(side_b))
    except oracle.SearchSpaceTooLarge:
        return None


def _witness_error(side, ans) -> Optional[str]:
    kind, q, c, _s, v, _b = side
    w = ans.witness
    if w is None:
        if ans.exactness == oracle.EXACT and kind != "nqi":
            return f"exact oracle_{kind} answer without a witness"
        return None
    if not core.satisfies(c, w):
        return f"oracle_{kind} witness violates the constraints"
    if not v.facts <= w.facts:
        return f"oracle_{kind} witness drops given facts"
    if kind != "owq" and w.visible().facts != v.visible().facts:
        return f"oracle_{kind} witness changes the visible part"
    if kind != "realizable" and (core.eval_ucq(q, w) is True) != (kind == "nqi"):
        return f"oracle_{kind} witness has the wrong query polarity"
    return None


def _agree(rule: str, ans_a, ans_b) -> bool:
    return {"equal": ans_a.answer == ans_b.answer,
            "opposite": ans_a.answer != ans_b.answer,
            "forward": ans_b.answer is True}[rule]


def _bound_explains(rule: str, exact, bounded, exact_first: bool) -> bool:
    """Whether a disagreement is shown to come from the fact budgets alone.

    A BoundedOnly answer only says that no counterexample (for
    `oracle_realizable`: no model) fits the side's fact budget, and the
    harness bounds give the two sides different budgets: owq_to_pqi seed
    3000054 finds an OWQ counterexample with 6 extra facts while the PQI
    side, allowed 5, answers BoundedOnly True.  That is shown when the
    exact side's witness adds more facts than the bounded side may add, or
    when the bounded side, asked again with the exact side's budget,
    reaches an answer that agrees."""
    e_side, e_ans = exact
    b_side, b_ans = bounded
    e_v, e_bound = e_side[4], e_side[5]
    kind, q, c, s, b_v, b_bound = b_side
    needed = len(e_ans.witness.facts) - len(e_v.facts)
    allowed = b_bound.max_facts_total - len(b_v.facts)
    if needed > allowed:
        return True
    widened = e_bound.max_facts_total - len(e_v.facts)
    if widened <= allowed:
        return False
    wider = replace(b_bound, max_facts_total=len(b_v.facts) + widened,
                    space_ceiling=RECHECK_CEILING)
    try:
        again = _ask((kind, q, c, s, b_v, wider))
    except oracle.SearchSpaceTooLarge:
        return False
    pair = (e_ans, again) if exact_first else (again, e_ans)
    return _agree(rule, *pair)


def _oracle_check(p: Problem, result) -> Tuple[str, Optional[str]]:
    if result is None:
        return SKIPPED, None
    rule, a, b = result
    for side in (a, b):
        if side is not None:
            err = _witness_error(*side)
            if err:
                return DECIDED, err
    if b is None:
        return SKIPPED, None  # forward pair: nothing carries over from a False input
    if _agree(rule, a[1], b[1]):
        return DECIDED, None
    wrong = f"{rule} pair disagrees: {a[1].answer} ({a[1].exactness}) vs {b[1].answer} ({b[1].exactness})"
    # Every disagreement pairs an exact answer that holds a witness with a
    # BoundedOnly one; anything else is wrong outright.
    exactness = (a[1].exactness, b[1].exactness)
    if exactness == (oracle.EXACT, oracle.BOUNDED) and a[1].witness is not None:
        explained = _bound_explains(rule, a, b, exact_first=True)
    elif exactness == (oracle.BOUNDED, oracle.EXACT) and b[1].witness is not None:
        explained = _bound_explains(rule, b, a, exact_first=False)
    else:
        explained = False
    return (INCONCLUSIVE, None) if explained else (DECIDED, wrong)


def _oracle_warm() -> None:
    for name, gen, _sides, _rule in ORACLE_PAIRS:
        _oracle_solve(Problem(-1, "warm", dict(gen(random.Random(-1)), pair=name)))


# ---------------------------------------------------------------------------
# decide_mix: the six public deciders on one problem stream

MIX_BUDGET = chase.ChaseBudget(500, 300, 60)
MIX_SEEDS = 1650  # each gives six problems, one per decider
MIX_DECIDERS = ("decide_pqi", "decide_nqi", "decide_realizable", "decide_owq",
                "decide_exists_pqi", "decide_exists_nqi")


MIX_RELATIONS, MIX_ARITY, MIX_DEPS, MIX_ADOM = 5, 2, 5, 3


def _mix_inputs(rng: random.Random, linear: bool):
    s = problemgen.random_schema(rng, max_relations=MIX_RELATIONS, max_arity=MIX_ARITY)
    if linear:
        c = problemgen.random_linear_constraints(rng, s, max_deps=MIX_DEPS, max_heads=1)
    else:
        c = problemgen.random_id_constraints(rng, s, max_deps=MIX_DEPS)
    q = problemgen.random_boolean_query(rng, s)
    v = problemgen.random_visible_instance(rng, s, adom=MIX_ADOM)
    return q, c, s, v


def _mix_make(seed: int) -> List[Problem]:
    problems: List[Problem] = []
    for index in range(MIX_SEEDS):
        q, c, s, v = _mix_inputs(random.Random(seed * SEED_STRIDE + index), linear=index % 2 == 1)
        for name in MIX_DECIDERS:
            problems.append(Problem(len(problems), f"{name}/{seed * SEED_STRIDE + index}",
                                    {"decider": name, "q": q, "c": c, "s": s, "v": v}))
    return problems


def _mix_call(name, q, c, s, v):
    b = MIX_BUDGET
    if name == "decide_pqi":
        return deciders.decide_pqi(q, c, s, v, b)
    if name == "decide_nqi":
        return deciders.decide_nqi(q, c, s, v, b)
    if name == "decide_realizable":
        return deciders.decide_realizable(c, s, v, b)
    if name == "decide_owq":
        return deciders.decide_owq(q, c, v, b)
    if name == "decide_exists_pqi":
        return deciders.decide_exists_pqi(q, c, s, b)
    return deciders.decide_exists_nqi(q, c, s, b)


def _mix_solve(p: Problem):
    d = p.data
    try:
        return _mix_call(d["decider"], d["q"], d["c"], d["s"], d["v"])
    except core.ClassError:
        return None


def _mix_check(p: Problem, verdict) -> Tuple[str, Optional[str]]:
    if verdict is None or verdict.value is None:
        return SKIPPED, None
    d = p.data
    # the existence problems fix no visible instance, and OWQ's witness is
    # a superset of the given instance rather than a completion of it
    v = d["v"] if d["decider"] in ("decide_pqi", "decide_nqi", "decide_realizable") else None
    err = audit_verdict(verdict, d["q"], d["c"], v)
    if err is None and d["decider"] == "decide_owq" and isinstance(verdict.certificate, deciders.Witness):
        if not d["v"].facts <= verdict.certificate.instance.facts:
            err = "OWQ witness drops given facts"
    return DECIDED, err


def _mix_warm() -> None:
    q, c, s, v = _mix_inputs(random.Random(-1), linear=False)
    for name in MIX_DECIDERS:
        try:
            _mix_call(name, q, c, s, v)
        except core.ClassError:
            pass


WORKLOADS = {
    "nqi_reach": Workload(_reach_make, _reach_solve, _reach_check, _reach_warm),
    "oracle_enum": Workload(_oracle_make, _oracle_solve, _oracle_check, _oracle_warm),
    "decide_mix": Workload(_mix_make, _mix_solve, _mix_check, _mix_warm),
}
