"""Chase procedures over partially visible schemas.

Every chase applies a trigger (a dependency with a body match) through
one step function, `_fire`: an active TGD trigger gives one outcome per
head disjunct, with fresh nulls for its existential variables, and an
EGD trigger identifies two values or clashes two constants.  Around it:

- `classical_chase`: the standard restricted chase with a fair FIFO
  trigger queue, used for open-world query answering.
- `chase_vis_critical`: the single branch the visible chase takes when
  started from the critical instance (every visible relation holding one
  all-`a` tuple); there are no grounding choices because the visible
  active domain is the singleton `{a}`, so every null of a new visible
  fact becomes `a`.
- `visible_chase`: builds a tree of instances; whenever a step creates a
  visible fact, the affected values are grounded into the active domain
  of the fixed visible instance, branching over every grounding
  homomorphism and appending a dummy node when none exists.  EGD steps
  identify values and fail (dummy) on a constant/constant conflict or
  when they change the visible part.

The classical and critical chases run the same single-branch loop,
`_chase_branch`; the visible chase builds its tree in its own loop.

Both loops are semi-naive.  After the root, each instance is compared with
the one before it (a node's parent in the tree), and only the delta (the
facts that one lacked, `_delta`) is matched: `_discover` queues the body
matches that use a delta fact on the branch's FIFO of pending triggers, in
the order a full rematch would queue them, and the Boolean query that stops
a branch (`tripwire`, `prune`) is searched only among the matches that use
one (`_query_holds`), since it failed on the earlier instance.  TGD steps,
groundings and EGD merges all go through the same delta.

Each child instance is derived from its parent by `Instance.derive`: a TGD
step adds its facts (`with_facts`), and an EGD merge or a grounding
replaces only the facts holding a renamed null (`map_instance`,
`_grounding_children`), so the child's match state is its parent's plus
that change rather than a fresh build.  The visible chase finds its
groundings by matching the new visible facts into the visible part.

Plus fact types for constant-free linear TGDs: a relation with the
equality pattern of its values, kept canonical by `canon_pattern` and
enumerated by `_patterns`; these also serve `gfp`'s selected-attribute
copies, whose patterns hold named constants, and `core.bind` binds terms
to a pattern's entries as it does to a fact's values.  `_bind` matches an
atom against a type,
`_apply_linear` applies one TGD to it, and one breadth-first loop,
`_reach`, saturates a set of types.  `fact_type_closure` runs that loop
from the critical instance over stable types: it maps each type the loop
demands to its stable type, the one its facts end up with once grounding
has forced their nulls to `a`, solving only the types that one demands.
`decide_pqi_critical_linear` joins each query's atoms to the reachable
types (`_reachable_patterns`) and embeds each image so found into the
resulting forest, one component of null-linked facts (`core.components`)
at a time, in a search memoised on its states (`_Forest`), which decides
query implication over the critical instance without materializing an
unbounded chase.
`decide_owq_atomic_linear` runs the loop from the types of a given
instance to answer atomic queries open-world.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

from .core import (
    Atom,
    CQ,
    Const,
    ConstraintSet,
    ClassError,
    Dependency,
    Fact,
    Homomorphism,
    Instance,
    Null,
    NullSource,
    Schema,
    TGD,
    UCQ,
    Value,
    Var,
    CONST_TAG,
    DISJ_TAG,
    EGD_TAG,
    LINEAR_TAG,
    NONATOMIC_HEAD_TAG,
    _head_satisfied,
    _term_value,
    active_domain,
    apply_hom,
    bind,
    components,
    critical_instance,
    eval_ucq,
    fact_key,
    find_homomorphisms,
    map_instance,
    match_fact,
    satisfies,
    value_key,
    value_name,
)


@dataclass(frozen=True)
class ChaseBudget:
    max_nodes: int = 10000
    max_facts: int = 2000
    max_depth: int = 200

    def __post_init__(self) -> None:
        if min(self.max_nodes, self.max_facts, self.max_depth) <= 0:
            raise ValueError("budget fields must be positive")


SATURATED = "saturated"
BUDGET = "budget_exceeded"
EGD_FAILURE = "egd_failure"


@dataclass(frozen=True)
class ChaseResult:
    status: str
    instance: Instance


# ---------------------------------------------------------------------------
# the chase step


# (step label, new instance, new facts, value map).  A TGD disjunct adds
# facts and maps no value; an EGD adds no fact and maps the merged value.
# The instance is None when an EGD clashes two constants.
Outcome = Tuple[str, Optional[Instance], Tuple[Fact, ...], Mapping[Value, Value]]


def _fire(idx: int, dep: Dependency, hom: Homomorphism, instance: Instance,
          nulls: NullSource) -> Optional[List[Outcome]]:
    """Apply the trigger (dependency number `idx`, body match `hom`).

    Returns None when the trigger is not active; otherwise one outcome per
    TGD head disjunct, or the single EGD merge.
    """
    if isinstance(dep, TGD):
        if any(_head_satisfied(disjunct, hom, instance) for disjunct in dep.heads):
            return None
        out: List[Outcome] = []
        for d_idx, disjunct in enumerate(dep.heads):
            ext = dict(hom)
            for v in disjunct.exist_vars:
                ext[v] = nulls.fresh()
            new_facts = apply_hom(disjunct.atoms, ext)
            out.append((f"tgd#{idx}/{d_idx}", instance.with_facts(new_facts), new_facts, {}))
        return out
    u, v = _term_value(dep.left, hom), _term_value(dep.right, hom)
    if u == v:
        return None
    step = f"egd#{idx} {value_name(u)}={value_name(v)}"
    if isinstance(u, Const) and isinstance(v, Const):
        return [(step, None, (), {})]
    m = _merge_map(u, v)
    return [(step, map_instance(instance, m), (), m)]


def _merge_map(u: Value, v: Value) -> Mapping[Value, Value]:
    """Substitution identifying u and v; nulls collapse into the other value."""
    if isinstance(u, Null) and isinstance(v, Null):
        keep, drop = (u, v) if u.id < v.id else (v, u)
        return {drop: keep}
    if isinstance(u, Null):
        return {u: v}
    return {v: u}


def _delta(last: Optional[Instance], instance: Instance) -> Optional[List[Fact]]:
    """The facts of `instance` that `last` lacks, in `fact_key` order; None
    when there is no earlier instance, at the root of a chase."""
    if last is None:
        return None
    return sorted(instance.facts - last.facts, key=fact_key)


def _new_matches(body: Sequence[Atom], instance: Instance,
                 delta: Optional[Sequence[Fact]]) -> Iterable[Homomorphism]:
    """Every body match of `instance` that uses a fact of `delta`, in
    `find_homomorphisms` order (all of them without a delta).

    A one-atom body matches the delta's facts of its relation, which
    `find_homomorphisms` would yield in this `fact_key` order too; a longer
    body is matched in full when the delta has one of its relations."""
    if delta is None:
        return find_homomorphisms(body, instance)
    if len(body) == 1:
        matches = (match_fact(body[0], f, {}) for f in delta)
        return (m for m in matches if m is not None)
    relations = {a.relation for a in body}
    if not any(f.relation in relations for f in delta):
        return ()
    delta_set = set(delta)
    return (h for h in find_homomorphisms(body, instance) if not delta_set.isdisjoint(apply_hom(body, h)))


def _query_holds(q: UCQ, instance: Instance, delta: Optional[Sequence[Fact]]) -> bool:
    """Does the Boolean query hold on `instance`?

    With a delta, the query failed on the earlier instance.  A match that
    avoids the delta maps into facts the earlier instance had, so the query
    holds exactly when some match uses a delta fact: each atom is seeded
    with each delta fact and the rest of its disjunct matched."""
    if delta is None:
        if q.free_vars:
            raise ClassError("the query stop requires a Boolean query")
        return eval_ucq(q, instance) is True
    for d in q.disjuncts:
        for i, atom in enumerate(d.atoms):
            rest = d.atoms[:i] + d.atoms[i + 1:]
            for f in delta:
                seed = match_fact(atom, f, {})
                if seed is not None and next(find_homomorphisms(rest, instance, seed), None) is not None:
                    return True
    return False


# A branch's pending triggers: a FIFO of (dependency number, body match).
Pending = Deque[Tuple[int, Homomorphism]]


def _discover(pending: Pending, deps: Sequence[Dependency], instance: Instance,
              delta: Optional[Sequence[Fact]]) -> None:
    """Queue the body matches of `instance` that use a `delta` fact.

    A match that avoids the delta was a match of the previous instance, so
    it is queued already (renamed by `_remapped`) or was popped.  A match of
    a renamed fact may be queued twice; the later copy is inactive when
    popped, as the first fired or was inactive and renaming keeps heads."""
    for idx, dep in enumerate(deps):
        for hom in _new_matches(dep.body, instance, delta):
            pending.append((idx, hom))


def _fire_next(pending: Pending, deps: Sequence[Dependency], instance: Instance,
               nulls: NullSource) -> Optional[List[Outcome]]:
    """Pop triggers until one is active and fire it; None once the queue
    runs dry.  An inactive trigger leaves the instance as it was, so there
    is nothing new to discover in between."""
    while pending:
        idx, hom = pending.popleft()
        outcomes = _fire(idx, deps[idx], hom, instance, nulls)
        if outcomes is not None:
            return outcomes
    return None


def _remapped(pending: Pending, value_map: Mapping[Value, Value]) -> Pending:
    """A copy of the queue with its matches renamed by `value_map`."""
    if not value_map:
        return deque(pending)
    return deque((idx, {v: value_map.get(val, val) for v, val in hom.items()}) for idx, hom in pending)


# ---------------------------------------------------------------------------
# single-branch chases: classical and critical-instance


def _chase_branch(
    start: Instance,
    c: ConstraintSet,
    b: ChaseBudget,
    ground: Optional[Callable[[Sequence[Fact]], Mapping[Value, Value]]] = None,
    tripwire: Optional[UCQ] = None,
) -> ChaseResult:
    """Chase one branch from `start` with fair FIFO scheduling.

    `ground` maps values of a step's new facts (a forced grounding: the
    branch never chooses).  The branch may take `b.max_depth` steps; one
    more, or more than `b.max_facts` facts, ends it with BUDGET and the
    instance that step produced.  The Boolean query `tripwire` stops the
    chase as soon as it holds.
    """
    deps = c.dependencies
    nulls = NullSource.above(start)
    current = start
    previous: Optional[Instance] = None
    pending: Pending = deque()
    steps = 0
    while True:
        delta = _delta(previous, current)
        if tripwire is not None and _query_holds(tripwire, current, delta):
            return ChaseResult(SATURATED if satisfies(c, current) else BUDGET, current)
        _discover(pending, deps, current, delta)
        previous = current
        outcomes = _fire_next(pending, deps, current, nulls)
        if outcomes is None:
            return ChaseResult(SATURATED, current)
        [(_, image, new_facts, value_map)] = outcomes
        if image is None:
            return ChaseResult(EGD_FAILURE, current)
        current = image
        grounding = ground(new_facts) if ground is not None else {}
        if grounding:  # only a TGD step has new facts, and it maps no value
            current = map_instance(current, grounding)
            value_map = grounding
        if value_map:
            pending = _remapped(pending, value_map)
        steps += 1
        if steps > b.max_depth or len(current.facts) > b.max_facts:
            return ChaseResult(BUDGET, current)


def classical_chase(i: Instance, c: ConstraintSet, b: ChaseBudget,
                    tripwire: Optional[UCQ] = None) -> ChaseResult:
    """Restricted chase with fair FIFO scheduling.

    The Boolean query `tripwire` lets a caller stop as soon as it holds
    (the result then carries the current instance with status saturated
    only if it genuinely is).
    """
    if DISJ_TAG in c.tags:
        raise ClassError("classical chase requires non-disjunctive TGDs")
    return _chase_branch(i, c, b, tripwire=tripwire)


def chase_vis_critical(c: ConstraintSet, s: Schema, a: Const, b: ChaseBudget) -> ChaseResult:
    """The unique visible-chase branch from the critical instance V_a.

    Requires constant-free, non-disjunctive constraints: then every
    grounding choice is forced (the visible active domain is `{a}`) and
    no EGD can clash two distinct constants.
    """
    if CONST_TAG in c.tags:
        raise ClassError("critical-instance chase requires constant-free constraints")
    if DISJ_TAG in c.tags:
        raise ClassError("critical-instance chase requires non-disjunctive heads")

    def ground(new_facts: Sequence[Fact]) -> Dict[Value, Value]:
        return {val: a for f in new_facts if s.decl(f.relation).visible
                for val in f.args if isinstance(val, Null)}

    return _chase_branch(critical_instance(s, a), c, b, ground=ground)


# ---------------------------------------------------------------------------
# visible chase tree

OPEN = "open"
EXPANDED = "expanded"
LEAF = "leaf"
DUMMY = "dummy"
BUDGET_CUT = "budget_cut"
PRUNED = "pruned"


@dataclass
class ChaseNode:
    id: int
    instance: Instance
    status: str
    parent: Optional[int]
    depth: int
    applied_step: str = ""
    _pending: Optional[Pending] = None  # an open node's trigger queue


@dataclass
class ChaseTree:
    nodes: Dict[int, ChaseNode]

    def leaves(self) -> List[ChaseNode]:
        return [n for n in self.nodes.values() if n.status == LEAF]

    def by_status(self, status: str) -> List[ChaseNode]:
        return [n for n in self.nodes.values() if n.status == status]

    def trace_tsv(self) -> str:
        lines = ["id\tparent\tstatus\tdepth\tstep"]
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            parent = "" if n.parent is None else str(n.parent)
            lines.append(f"{n.id}\t{parent}\t{n.status}\t{n.depth}\t{n.applied_step}")
        return "\n".join(lines) + "\n"


def _grounding_children(
    k_prime: Instance,
    new_facts: Sequence[Fact],
    visible_part: Instance,
    schema: Schema,
) -> List[Tuple[Instance, str, Dict[Value, Value]]]:
    """Ground a step's new visible facts into the visible active domain.

    `k_prime` is a node instance, whose visible part is `visible_part`, with
    the step's `new_facts` added.  The candidate groundings are the
    homomorphisms of the new visible facts (nulls read as variables) into
    `visible_part`, taken in the order `product(adom, repeat=|nulls|)` would
    give over its sorted active domain.  A grounding is kept when its image
    has `visible_part` as visible part again, tested on the facts holding a
    grounded null (the only ones it moves), and when no earlier grounding
    gave the same image.  Returns each kept image with a description of the
    grounding and the grounding itself; an empty list when none is kept.
    """
    new_visible = [f for f in new_facts if schema.decl(f.relation).visible]
    if not new_visible:
        return [(k_prime, "", {})]
    if not visible_part.facts:
        return []  # nothing to match into, as in every chase of `decide_exists_nqi`
    move: List[Value] = list(dict.fromkeys(v for f in new_visible for v in f.args if isinstance(v, Null)))
    as_var = {n: Var(value_name(n)) for n in move}
    atoms = [Atom(f.relation, tuple(as_var.get(v, v) for v in f.args)) for f in new_visible]
    rank = {v: i for i, v in enumerate(sorted(active_domain(visible_part), key=value_key))}
    groundings = sorted((tuple(h[as_var[n]] for n in move) for h in find_homomorphisms(atoms, visible_part)),
                        key=lambda combo: [rank[v] for v in combo])
    if not groundings:
        return []
    moved = [f for f in k_prime.facts if not as_var.keys().isdisjoint(f.args)]
    moved_visible = [f for f in moved if schema.decl(f.relation).visible]
    kept_visible = [f for f in moved_visible if f in visible_part.facts]
    out: List[Tuple[Instance, str, Dict[Value, Value]]] = []
    seen: Set[FrozenSet[Fact]] = set()
    for combo in groundings:
        g = dict(zip(move, combo))
        images = {f: Fact(f.relation, tuple(g.get(v, v) for v in f.args)) for f in moved}
        visible_images = {images[f] for f in moved_visible}
        if not visible_images <= visible_part.facts or not visible_images.issuperset(kept_visible):
            continue
        image = k_prime.derive(moved, images.values())
        if image.facts not in seen:
            seen.add(image.facts)
            desc = ",".join(f"?{n.id}->{value_name(val)}" for n, val in zip(move, combo))
            out.append((image, desc, g))
    return out


def visible_chase(
    c: ConstraintSet,
    s: Schema,
    f0: Instance,
    b: ChaseBudget,
    prune: Optional[UCQ] = None,
) -> ChaseTree:
    """Build the visible chase tree from the visible instance `f0`.

    `prune` marks a branch as settled once the Boolean query holds on its
    instance (sound for query implication because homomorphic images
    preserve the query).
    """
    visible_part = f0.visible()
    nulls = NullSource.above(f0)
    root = ChaseNode(0, f0 if f0.schema == s else Instance(s, f0.facts), OPEN, None, 0, "", deque())
    nodes = {0: root}
    frontier: deque = deque([0])
    next_id = itertools.count(1)
    deps = list(c.dependencies)

    def new_node(instance: Instance, status: str, parent: ChaseNode, step: str,
                 pending: Optional[Pending]) -> ChaseNode:
        n = ChaseNode(next(next_id), instance, status, parent.id, parent.depth + 1, step, pending)
        nodes[n.id] = n
        return n

    while frontier:
        if len(nodes) >= b.max_nodes:
            while frontier:
                nodes[frontier.popleft()].status = BUDGET_CUT
            break
        node = nodes[frontier.popleft()]
        if node.status != OPEN:
            continue
        pending, node._pending = node._pending, None
        delta = _delta(None if node.parent is None else nodes[node.parent].instance, node.instance)
        if prune is not None and _query_holds(prune, node.instance, delta):
            node.status = PRUNED
            continue
        if node.depth >= b.max_depth or len(node.instance.facts) > b.max_facts:
            node.status = BUDGET_CUT
            continue
        _discover(pending, deps, node.instance, delta)
        outcomes = _fire_next(pending, deps, node.instance, nulls)
        node.status = LEAF if outcomes is None else EXPANDED
        for step, image, new_facts, merge in outcomes or ():
            if image is None:
                new_node(node.instance, DUMMY, node, step + " const-conflict", None)
                continue
            if merge:  # an EGD step grounds nothing but must keep the visible part
                children = [(image, "", merge)] if image.visible().facts == visible_part.facts else []
                failure = " visible-changed"
            else:
                children = _grounding_children(image, new_facts, visible_part, s)
                failure = " no-grounding"
            if not children:
                new_node(image, DUMMY, node, step + failure, None)
            for child_instance, desc, g in children:
                child = new_node(child_instance, OPEN, node, step + (f" [{desc}]" if desc else ""),
                                 _remapped(pending, g))
                frontier.append(child.id)
    return ChaseTree(nodes)


# ---------------------------------------------------------------------------
# equality patterns
#
# A pattern abstracts a tuple by which positions hold equal values and
# which hold a constant.  Each entry is a constant -- `A_MARK`, the
# distinguished value `a` of the critical instance, or a named `Const`
# -- or a group number (equal numbers mean equal values).
# Groups are canonically renumbered 1, 2, ... in order of first occurrence.
# Fact types below and the selected-attribute copies of `gfp` share it.

A_MARK = 0
Pattern = Tuple[Union[int, Const], ...]


def canon_pattern(entries: Sequence[Hashable]) -> Pattern:
    """Renumber the group labels of a pattern 1, 2, ... by first occurrence.

    `A_MARK` and `Const` entries are constants; any other hashable is a
    group label, so an atom's terms give their pattern (a fact's values are
    labels only once mapped to something else, such as their `value_key`)."""
    ren: Dict[Hashable, int] = {}
    return tuple(e if e == A_MARK or isinstance(e, Const) else ren.setdefault(e, len(ren) + 1)
                 for e in entries)


def _patterns(arity: int, constants: Sequence[Hashable] = (A_MARK,)) -> List[Pattern]:
    """All canonical patterns of a given arity over a constant pool, in
    lexicographic order: each entry is a constant or a group at most one
    above the largest before it."""
    level: List[Tuple[Pattern, int]] = [((), 0)]  # each with its largest group
    for _ in range(arity):
        level = [(p + (e,), top + (e == top + 1))
                 for p, top in level for e in (*constants, *range(1, top + 2))]
    return [p for p, _ in level]


# ---------------------------------------------------------------------------
# fact types for linear constraint sets
#
# A fact type abstracts a fact of the critical-instance chase: a relation
# plus the constant-free pattern of its values, where `A_MARK` stands for
# the constant `a` and each null group for equal nulls.


@dataclass(frozen=True)
class FactType:
    relation: str
    pattern: Tuple[int, ...]  # A_MARK for `a`, else group number

    def groups(self) -> Tuple[int, ...]:
        return tuple(dict.fromkeys(e for e in self.pattern if e != A_MARK))


@dataclass(frozen=True)
class TypeEdge:
    """One linear-TGD application step between fact types.

    `correspondence` maps a source pattern group to the target pattern
    entry it is copied into (absent when the group is dropped); fresh
    target groups come from existential variables.
    """

    source: FactType
    dep_index: int
    target: FactType
    correspondence: Tuple[Tuple[int, int], ...]


# The TGDs of a linear set with their numbers, grouped by body relation.
LinearIndex = Dict[str, List[Tuple[int, TGD]]]


def _linear_tgds(c: ConstraintSet) -> LinearIndex:
    tags = c.tags
    if EGD_TAG in tags:
        raise ClassError("fact types require TGD-only constraint sets")
    if LINEAR_TAG not in tags or DISJ_TAG in tags or NONATOMIC_HEAD_TAG in tags:
        raise ClassError("fact types require linear single-head TGDs")
    if CONST_TAG in tags:
        raise ClassError("fact types require constant-free constraints")
    by_body: LinearIndex = {}
    for idx, dep in enumerate(c.tgds):
        by_body.setdefault(dep.body[0].relation, []).append((idx, dep))
    return by_body


def _bind(atom: Atom, t: FactType) -> Optional[Dict[Var, int]]:
    """Bind the variables of an atom to the entries of a fact type, or None
    when the relation or the equalities disagree."""
    if atom.relation != t.relation:
        return None
    return bind(atom.args, t.pattern, {})


def _apply_linear(dep: TGD, t: FactType) -> Optional[Tuple[FactType, Tuple[Tuple[int, int], ...]]]:
    """Unify the TGD body with the fact type; give the raw produced type."""
    assign = _bind(dep.body[0], t)
    if assign is None:
        return None
    head = dep.heads[0].atoms[0]
    fresh = itertools.count(max(t.pattern, default=A_MARK) + 1)
    for var in head.args:
        if var not in assign:  # existential: a fresh group
            assign[var] = next(fresh)  # type: ignore[index]
    entries = [assign[var] for var in head.args]  # type: ignore[index]
    canon = canon_pattern(entries)
    source_groups = set(t.pattern) - {A_MARK}
    corr = tuple(sorted({(e, g) for e, g in zip(entries, canon) if e in source_groups}))
    return FactType(head.relation, canon), corr


def _reach(linear: LinearIndex, roots: Iterable[FactType],
           norm: Callable[[FactType], FactType]) -> Tuple[Set[FactType], Dict[FactType, List[TypeEdge]]]:
    """Breadth-first closure of `roots` under linear-TGD application, with
    every produced type passed through `norm`; returns the reached types and
    the edges keyed by source."""
    reached: Set[FactType] = set()
    queue: deque = deque()
    edges: Dict[FactType, List[TypeEdge]] = {}

    def visit(t: FactType) -> None:
        if t not in reached:
            reached.add(t)
            queue.append(t)

    for r in roots:
        visit(norm(r))
    while queue:
        t = queue.popleft()
        for idx, dep in linear.get(t.relation, ()):
            res = _apply_linear(dep, t)
            if res is None:
                continue
            target, corr = res
            stable_target = norm(target)
            edges.setdefault(t, []).append(
                TypeEdge(t, idx, stable_target, _restrict_corr(target, stable_target, corr)))
            visit(stable_target)
    return reached, edges


@dataclass(frozen=True)
class TypeClosure:
    """Saturated fact-type graph for a linear constraint set.

    `edges` is the derivability relation between stable types,
    keyed by source; `reachable` the types realized from the critical
    instance.
    """

    edges: Mapping[FactType, Sequence[TypeEdge]]
    reachable: FrozenSet[FactType]


def fact_type_closure(c: ConstraintSet, s: Schema) -> TypeClosure:
    """Saturate forcing and derivability over the fact types that the
    critical instance demands.

    `stable` sends a type to the type its facts end up with.  Grounding in
    the critical instance maps every value of a visible fact to `a`, so a
    group of `stable[t]` is forced when a linear TGD copies it into a
    visible fact, or into a position that is `a` in the stable type of the
    hidden fact it produces.  Forcing collapses the pattern, and the
    collapse's stable type becomes `stable[t]`; that can enable more
    unifications, so a worklist re-solves a type whenever a `stable` entry
    that it read changes.  Entries exist only for demanded types: the types
    `_reach` produces from the critical instance, and the hidden targets
    and collapses that solving a demanded type reads.  A type reads only
    the entries of types it demands, so `_reach`'s `norm` solves the types
    it demands to their fixpoint before it returns, and later demands never
    change them.
    """
    linear = _linear_tgds(c)
    stable: Dict[FactType, FactType] = {}
    # who read stable[key], and the types to re-solve, as ordered sets
    readers: Dict[FactType, Dict[FactType, None]] = {}
    work: Dict[FactType, None] = {}

    def demand(t: FactType) -> FactType:
        if t not in stable:
            stable[t], readers[t], work[t] = t, {t: None}, None
        return stable[t]

    def solve(t: FactType) -> None:
        st = stable[t]
        forced: Set[int] = set()
        for _, dep in linear.get(st.relation, ()):
            res = _apply_linear(dep, st)
            if res is None:
                continue
            target, corr = res
            if s.decl(target.relation).visible:
                forced.update(g for g, _ in corr)
            else:
                marked = {raw for raw, e in zip(target.pattern, demand(target).pattern) if e == A_MARK}
                readers[target][t] = None
                forced.update(g for g, g2 in corr if g2 in marked)
        if forced:
            entries = [A_MARK if e in forced else e for e in st.pattern]
            stable[t] = demand(FactType(st.relation, canon_pattern(entries)))
            work.update(readers[t])

    def norm(t: FactType) -> FactType:
        demand(t)
        while work:
            solve(work.popitem()[0])
        return stable[t]

    roots = [FactType(r.name, (A_MARK,) * r.arity) for r in s.visible_relations]
    reachable, edges = _reach(linear, roots, norm)
    return TypeClosure(edges=edges, reachable=frozenset(reachable))


def _restrict_corr(raw_target: FactType, stable_target: FactType,
                   corr: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    """Push a correspondence through the collapse of the target type."""
    # map raw target groups to stable target entries by position
    pos_map = {raw_e: st_e for raw_e, st_e in zip(raw_target.pattern, stable_target.pattern)
               if raw_e != A_MARK and st_e != A_MARK}
    return tuple(sorted((g, pos_map[g2]) for g, g2 in corr if g2 in pos_map))


# ---------------------------------------------------------------------------
# exact open-world answering of atomic queries (linear, constant-free)


def decide_owq_atomic_linear(q: UCQ, c: ConstraintSet, i: Instance) -> Optional[bool]:
    """Exact open-world answer via fact-type reachability.

    Applies when every constraint is a constant-free linear single-head TGD
    and every query disjunct is one constant-free atom.  Each derivation
    chain of such a chase starts at a single initial fact, so the reachable
    (relation, equality-pattern) pairs decide whether a query-matching fact
    is certain.  Returns None when the preconditions fail.
    """
    try:
        linear = _linear_tgds(c)
    except ClassError:
        return None
    shapes = []
    for d in q.disjuncts:
        if len(d.atoms) != 1:
            return None
        atom = d.atoms[0]
        if any(isinstance(t, Const) for t in atom.args):
            return None
        shapes.append(atom)
    start = [FactType(f.relation, canon_pattern([value_key(v) for v in f.args])) for f in i.facts]
    reached, _ = _reach(linear, start, lambda t: t)
    return any(_bind(a, t) is not None for a in shapes for t in reached)


# ---------------------------------------------------------------------------
# exact query implication over the critical instance (linear, constant-free)


def decide_pqi_critical_linear(q: UCQ, c: ConstraintSet, s: Schema) -> bool:
    """Does the critical-instance chase satisfy the query?  Exact.

    The chase from V_a unfolds the fact-type graph into a forest: each
    fact spawns one child per applicable linear TGD, and a null is shared
    only between a fact and its derivation descendants.  A disjunct holds
    iff its variables can be split into `a`-valued ones and null groups
    such that every all-`a` image fact has a reachable type and every
    null component embeds into one subtree of the forest.
    """
    closure = fact_type_closure(c, s)
    forest = _Forest(closure.edges)
    for disjunct in q.disjuncts:
        if disjunct.free_vars:
            raise ClassError("critical-instance decision requires Boolean queries")
        if _disjunct_embeds(disjunct, closure, forest):
            return True
    return False


def _disjunct_embeds(d: CQ, closure: TypeClosure, forest: "_Forest") -> bool:
    """Can the disjunct's variables be split into `a`-valued ones and null
    groups so that every image fact has a reachable type and every null
    component of the image embeds into one subtree of the forest?  Only the
    splits that `_reachable_patterns` joins are tried: an all-`a` image fact
    must be reachable, and every forest node's type is."""
    if any(isinstance(t, Const) for atom in d.atoms for t in atom.args):
        return False  # constant-free setting
    variables = list(d.variables)
    roots = sorted(closure.reachable, key=lambda t: (t.relation, t.pattern))
    for pattern in _reachable_patterns(d.atoms, variables, roots):
        assignment = dict(zip(variables, pattern))
        image = [(atom.relation, tuple(assignment[t] for t in atom.args)) for atom in d.atoms]
        nullish = list(dict.fromkeys(f for f in image if _nulls(f)))
        if all(any(forest.component(root, comp, {}) for root in roots)
               for comp in components(nullish, _nulls)):
            return True
    return False


def _reachable_patterns(atoms: Sequence[Atom], variables: Sequence[Var],
                        types: Iterable[FactType]) -> Iterator[Pattern]:
    """Each canonical pattern of `variables` under which every atom's image
    fact has one of `types`, once.

    A join: each atom in turn is bound by `_bind` to a type of its relation,
    and the type's groups go one-to-one to null labels, consistent with the
    variables bound so far.  A group with a bound variable keeps its label;
    any other takes a label of an earlier atom or a fresh one, and the
    atom's image must then have the type's pattern.  Two complete maps
    differ in some atom's type or in which variables share a label, so no
    pattern comes twice."""
    by_relation: Dict[str, List[FactType]] = {}
    for t in types:
        by_relation.setdefault(t.relation, []).append(t)

    def join(i: int, assign: Dict[Var, int]) -> Iterator[Pattern]:
        if i == len(atoms):
            yield canon_pattern([assign[v] for v in variables])
            return
        atom = atoms[i]
        earlier = list(dict.fromkeys(e for e in assign.values() if e != A_MARK))
        for t in by_relation.get(atom.relation, ()):
            entries = _bind(atom, t)
            if entries is None:
                continue
            label = {A_MARK: A_MARK, **{e: assign[v] for v, e in entries.items() if v in assign}}
            free = [g for g in t.groups() if g not in label]
            for picks in itertools.product([*earlier, None], repeat=len(free)):
                fresh = itertools.count(max(earlier, default=A_MARK) + 1)
                label.update((g, next(fresh) if p is None else p) for g, p in zip(free, picks))
                ext = {**{v: label[e] for v, e in entries.items()}, **assign}
                if canon_pattern([ext[v] for v in atom.args]) == t.pattern:
                    yield from join(i + 1, ext)

    return join(0, {})


# An image fact: a query atom's relation and the pattern of its image, with
# `A_MARK` for `a` and one number per null.
ImageFact = Tuple[str, Tuple[int, ...]]


def _nulls(f: ImageFact) -> List[int]:
    return [e for e in f[1] if e != A_MARK]


def _match_fact(t: FactType, fact: ImageFact, bind: Mapping[int, int]) -> Optional[Dict[int, int]]:
    """Match an image fact against the current node's type.

    The fact needs the type's relation and equalities, and `bind`, which
    maps image nulls to distinct pattern groups of `t`, must extend to its
    nulls; the extension is returned, or None.
    """
    rel, entries = fact
    if rel != t.relation or canon_pattern(entries) != t.pattern:
        return None
    used = set(bind.values())
    pairs = [(e, g) for e, g in zip(entries, t.pattern) if e != A_MARK]
    if any(bind[e] != g if e in bind else g in used for e, g in pairs):
        return None
    return {**bind, **dict(pairs)}


class _Forest:
    """Depth-first realization of image facts in the fact-type forest of one
    closure, memoised on its (type, binding, pending) states.

    A state met again on the current search path is cut as a cycle without
    progress: a realization that repeats a state along a path can skip the
    repeat.  A True answer holds whatever the path, so it is kept.  A False
    answer is kept when every cut below it returned to the state itself or
    to a state below it, as in Tarjan's lowlink; a False that rests on a cut
    to a state above it can change once that state is off the path.
    """

    def __init__(self, edges: Mapping[FactType, Sequence[TypeEdge]]):
        self.edges = edges
        self.memo: Dict[Tuple, bool] = {}
        self.path: Dict[Tuple, int] = {}  # state -> depth on the search path
        self.low = 0  # the shallowest depth a cut returned to

    def component(self, t: FactType, pending: List[ImageFact], bind: Mapping[int, int]) -> bool:
        """Can the pending facts be realized in the forest subtree below a
        node of type `t`, with `bind` fixing which pattern groups carry
        which nulls?"""
        state = (t, tuple(sorted(bind.items())), tuple(sorted(pending)))
        known = self.memo.get(state)
        if known is not None:
            return known
        if state in self.path:
            self.low = min(self.low, self.path[state])
            return False
        depth = self.path[state] = len(self.path)
        outer, self.low = self.low, depth
        found = self._place(t, pending, bind)
        del self.path[state]
        if found or self.low >= depth:
            self.memo[state] = found
        self.low = outer if found else min(outer, self.low)
        return found

    def _place(self, t: FactType, pending: List[ImageFact], bind: Mapping[int, int]) -> bool:
        # optionally pin unbound nulls to groups of this node's fact (a null
        # shared across children must be live here), then optionally match
        # one pending fact to the node itself
        unbound = list(dict.fromkeys(e for f in pending for e in _nulls(f) if e not in bind))
        free_groups = [g for g in t.groups() if g not in bind.values()]
        for k in range(min(len(unbound), len(free_groups)) + 1):
            for nulls_sel in itertools.combinations(unbound, k):
                for groups_sel in itertools.permutations(free_groups, k):
                    ext = {**bind, **dict(zip(nulls_sel, groups_sel))}
                    if self._spread(t, pending, ext):
                        return True
                    for i, fact in enumerate(pending):
                        new_bind = _match_fact(t, fact, ext)
                        if new_bind is None:
                            continue
                        rest = pending[:i] + pending[i + 1:]
                        if not rest or self._spread(t, rest, new_bind):
                            return True
        return False

    def _spread(self, t: FactType, pending: List[ImageFact], bind: Mapping[int, int]) -> bool:
        """Distribute pending facts among the node's children, one child per
        outgoing edge.  Facts linked by a null not bound at this node go to
        one child together; a bound null survives only along a copied
        group."""
        edges = self.edges.get(t, [])
        parts = [pending] if len(edges) <= 1 else components(
            pending, lambda f: [e for e in _nulls(f) if e not in bind])
        for split in itertools.product(range(len(edges)), repeat=len(parts)):
            by_edge: Dict[int, List[ImageFact]] = {}
            for e_idx, part in zip(split, parts):
                by_edge.setdefault(e_idx, []).extend(part)
            for e_idx, part in by_edge.items():
                corr = dict(edges[e_idx].correspondence)
                needed = {e for f in part for e in _nulls(f)}
                if any(g not in corr for n, g in bind.items() if n in needed):
                    break
                child_bind = {n: corr[g] for n, g in bind.items() if g in corr}
                if not self.component(edges[e_idx].target, part, child_bind):
                    break
            else:
                return True
        return False
