"""Seeded generators for random decision problems.

The differential suites and the runnable scripts share these families.  All
generators take a `random.Random` so runs are reproducible from a seed.
"""
from __future__ import annotations

import itertools
import random
from typing import List, Set, Tuple

from .core import (
    Atom,
    CQ,
    Const,
    ConstraintSet,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    TGD,
    UCQ,
    Var,
    boolean_ucq,
)


def random_schema(rng: random.Random, max_relations: int = 3, max_arity: int = 2,
                  need_visible: bool = True, need_hidden: bool = False) -> Schema:
    rels = [
        RelationDecl(f"R{i}", rng.randint(1, max_arity), rng.random() < 0.5)
        for i in range(rng.randint(2, max_relations))
    ]
    if need_visible and not any(r.visible for r in rels):
        rels[0] = RelationDecl(rels[0].name, rels[0].arity, True)
    if need_hidden and not any(not r.visible for r in rels):
        rels[-1] = RelationDecl(rels[-1].name, rels[-1].arity, False)
    return Schema(tuple(rels))


def random_id_constraints(rng: random.Random, s: Schema, max_deps: int = 3) -> ConstraintSet:
    """Inclusion dependencies: single atoms, no constants, no repetitions."""
    deps: List[TGD] = []
    rels = list(s.relations)
    for _ in range(rng.randint(1, max_deps)):
        r = rng.choice(rels)
        body_args = tuple(Var(f"x{i}") for i in range(r.arity))
        r2 = rng.choice(rels)
        pool: List[Var] = list(body_args) + [Var(f"y{i}") for i in range(r2.arity)]
        head_args: List[Var] = []
        for _ in range(r2.arity):
            choices = [t for t in pool if t not in head_args]
            head_args.append(rng.choice(choices))
        exist = tuple(t for t in head_args if t.name.startswith("y"))
        deps.append(TGD((Atom(r.name, body_args),),
                        (HeadDisjunct(exist, (Atom(r2.name, tuple(head_args)),)),)))
    return ConstraintSet(tuple(deps))


def random_linear_constraints(rng: random.Random, s: Schema, max_deps: int = 2,
                              max_heads: int = 1, hidden_disjunct_atoms: bool = False,
                              ) -> ConstraintSet:
    """Single-atom-body TGDs; repetitions allowed, optional head disjunction."""
    deps: List[TGD] = []
    rels = list(s.relations)
    hidden = [r for r in rels if not r.visible]
    for _ in range(rng.randint(1, max_deps)):
        r = rng.choice(rels)
        body_vars = [Var("x0"), Var("x1")]
        body = (Atom(r.name, tuple(rng.choice(body_vars) for _ in range(r.arity))),)
        used = list(dict.fromkeys(t for t in body[0].args))
        n_heads = rng.randint(1, max_heads)
        heads: List[HeadDisjunct] = []
        for j in range(n_heads):
            pool = hidden if (hidden_disjunct_atoms and n_heads > 1 and hidden) else rels
            r2 = rng.choice(pool)
            cand = used + [Var(f"y{j}_0")]
            head_args = tuple(rng.choice(cand) for _ in range(r2.arity))
            exist = tuple(dict.fromkeys(
                t for t in head_args if isinstance(t, Var) and t.name.startswith("y")))
            heads.append(HeadDisjunct(exist, (Atom(r2.name, head_args),)))
        deps.append(TGD(body, tuple(heads)))
    return ConstraintSet(tuple(deps))


def random_boolean_query(rng: random.Random, s: Schema, max_atoms: int = 2) -> UCQ:
    qvars = [Var("q0"), Var("q1")]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        r = rng.choice(list(s.relations))
        atoms.append(Atom(r.name, tuple(rng.choice(qvars) for _ in range(r.arity))))
    return boolean_ucq(atoms)


def random_visible_instance(rng: random.Random, s: Schema, adom: int = 2,
                            density: float = 0.3) -> Instance:
    dom = [Const(chr(ord("a") + i)) for i in range(adom)]
    facts: Set[Fact] = set()
    for r in s.visible_relations:
        for t in itertools.product(dom, repeat=r.arity):
            if rng.random() < density:
                facts.add(Fact(r.name, t))
    return Instance(s, frozenset(facts))


def random_id_problem(rng: random.Random, adom: int = 2):
    s = random_schema(rng)
    c = random_id_constraints(rng, s)
    q = random_boolean_query(rng, s)
    v = random_visible_instance(rng, s, adom=adom)
    return q, c, s, v


def random_linear_problem(rng: random.Random, max_heads: int = 1,
                          hidden_disjunct_atoms: bool = False, adom: int = 2):
    s = random_schema(rng, need_hidden=hidden_disjunct_atoms)
    c = random_linear_constraints(rng, s, max_heads=max_heads,
                                  hidden_disjunct_atoms=hidden_disjunct_atoms)
    q = random_boolean_query(rng, s)
    v = random_visible_instance(rng, s, adom=adom)
    return q, c, s, v


def random_digraph(rng: random.Random, max_nodes: int = 8,
                   edge_density: float = 0.25) -> Tuple[List[str], List[Tuple[str, str]], str, str]:
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = [(u, v) for u in nodes for v in nodes
             if u != v and rng.random() < edge_density]
    source, target = rng.sample(nodes, 2)
    return nodes, edges, source, target


def reachability_problem(nodes: List[str], edges: List[Tuple[str, str]],
                         source: str, target: str):
    """A hidden ternary relation is constrained so it can only hold
    inductively justified path witnesses, making the implication question
    equivalent to graph reachability."""
    s = Schema((
        RelationDecl("N", 1, True),
        RelationDecl("E", 2, True),
        RelationDecl("A", 1, True),
        RelationDecl("B", 1, True),
        RelationDecl("P", 5, True),
        RelationDecl("T", 3, False),
    ))
    x, y, z, i, j = Var("x"), Var("y"), Var("z"), Var("i"), Var("j")
    c = ConstraintSet((
        TGD((Atom("T", (x, z, j)),),
            (HeadDisjunct((y, i), (Atom("T", (x, y, i)), Atom("P", (x, y, i, z, j)))),)),
    ))
    q = UCQ((CQ((), (x, z, j), (Atom("A", (x,)), Atom("B", (z,)), Atom("T", (x, z, j)))),))

    facts: Set[Fact] = set()
    for u in nodes:
        facts.add(Fact("N", (Const(u),)))
        facts.add(Fact("P", (Const(u), Const(u), Const("0"), Const(u), Const("0"))))
    for u, v in edges:
        facts.add(Fact("E", (Const(u), Const(v))))
    for w in nodes:
        for u, v in edges:
            for step in range(len(nodes)):
                facts.add(Fact("P", (Const(w), Const(u), Const(str(step)),
                                     Const(v), Const(str(step + 1)))))
    facts.add(Fact("A", (Const(source),)))
    facts.add(Fact("B", (Const(target),)))
    v_inst = Instance(s, frozenset(facts))
    return q, c, s, v_inst


def bfs_reachable(nodes: List[str], edges: List[Tuple[str, str]],
                  source: str, target: str) -> bool:
    adj: dict = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
    seen = {source}
    frontier = [source]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return target in seen
