"""Greatest-fixpoint Datalog and the selected-attribute transform.

This module decides negative query implication (NQI) for linear TGDs in
polynomial data time.  The pipeline has three stages:

1. ``transform_adom`` rewrites a linear-TGD problem so that a
   counterexample instance exists iff one exists whose values all come from
   the active domain of the visible instance (plus the constants mentioned
   in the input).  Hidden relations are split into copies ``R[I,u]`` that
   record which attribute positions hold active-domain values (``I``) and
   the equality pattern ``u`` of the remaining positions, in the pattern
   encoding of ``chase`` with the named constants as its constants; terms
   are bound to a pattern's entries by ``core.bind``.
2. ``_shape_rules`` gives each hidden relation one rule per body shape a
   constraint distinguishes, gated on the heads of the constraints that
   every tuple of the shape triggers.  ``build_gfp_program`` prints the
   (controllable) problem as a Datalog program over these rules, with every
   hidden tuple also gated on the active domain and a goal relation for the
   query; only ``dqi gfp build`` and ``dqi gfp eval`` use it.
3. ``eval_gfp`` starts from the program's maximal database, then deletes
   facts until every survivor is derived by a rule instance whose body
   survives: the greatest fixpoint of the immediate consequence operator.
   The maximal database is ``_MaximalDatabase``: one step of that operator
   from the database holding every tuple over the active domain plus the
   program constants, and one step more for the atoms of each intensional
   relation with a single rule bound by extensional atoms, which is
   unfolded into the rules that use it.  Its facts are derived from the
   rules either all at once or only where one partially bound atom can
   match, whose known values ``core.bind`` binds to each rule head.  Each
   rule is compiled once, on its relation's first lookup, into a position
   plan (``_rule_plan``): a key on the shape of its first extensional atom
   (``core._shape``), read from a hash table of the visible facts
   (``core.facts_at``), and a head template filled from each fact found.

``nqi_gfp_detail`` reads the class tags of the constraints once and picks
the method: stage 1 runs unless they are inclusion dependencies without
constants.  Then it builds no program: it prunes the maximal database of
the shape rules over the active domain and the constants (``_largest_model``)
to the largest sub-instance that genuinely satisfies the constraints, which
makes the final answer independent of how tightly the rule bodies
approximate the constraints.  That pruning runs in two phases.  Phase 1
explores, over a worklist, only what the visible facts and the query
matches reach through supports, with the maximal database queried one head
atom at a time (the local fixpoint of Liu & Smolka, ICALP 1998); a True
answer, where a visible fact or every query match dies, needs nothing more.
Phase 2, for a False answer, enumerates the maximal database's hidden facts
once, looks every support up in an index of them by position, and resumes
the pruning on the facts that phase 1 did not explore, with no worklist; the
witness is the whole largest model.  Every pruning is one support-counting
deletion pass, ``_prune_unsupported``.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    Atom,
    ClassError,
    Const,
    ConstraintSet,
    CQ,
    Dependency,
    Fact,
    HeadDisjunct,
    Instance,
    RelationDecl,
    Schema,
    SchemaError,
    Support,
    TGD,
    Term,
    UCQ,
    Value,
    Var,
    active_domain,
    apply_hom,
    apply_subst,
    bind,
    boolean_cq,
    constant_names,
    facts_at,
    find_homomorphisms,
    fresh_name,
    match_fact,
    matched_facts,
    normalize_single_head,
    support_lookup,
    value_key,
    CONST_TAG,
    DISJ_TAG,
    EGD_TAG,
    ID_TAG,
    LINEAR_TAG,
    _shape,
    _term_value,
)
from .chase import Pattern, _patterns, canon_pattern
from .textio import _fo_atom

# size limits of the selected-attribute transform
MAX_COPIES = 20000
MAX_CONSTRAINTS = 200000

# how a query variable fares in a copy atom, unless a constant entry pins
# it: kept, or dropped into a pattern group (neither equals any constant)
_KEPT, _GROUPED = object(), object()

# ---------------------------------------------------------------------------
# hidden-relation copies


@dataclass(frozen=True)
class CopyRelation:
    """A copy of a hidden relation keeping positions `selected` and recalling
    the equality pattern of the dropped positions."""

    source: str
    source_arity: int
    selected: Tuple[int, ...]  # 0-based positions, sorted
    pattern: Pattern  # indexed by the complement of `selected`
    name: str

    @property
    def dropped(self) -> Tuple[int, ...]:
        sel = set(self.selected)
        return tuple(i for i in range(self.source_arity) if i not in sel)


class TransformTooLarge(ClassError):
    """The selected-attribute transform would exceed `MAX_COPIES` or
    `MAX_CONSTRAINTS`."""


@dataclass(frozen=True)
class AdomTransform:
    """The output of the selected-attribute transform, with enough structure
    to map counterexample instances back to the source schema."""

    query: UCQ
    constraints: ConstraintSet
    schema: Schema
    source_schema: Schema
    copies: Tuple[CopyRelation, ...]
    # copy atoms that cannot hold any fact in a reconstructible instance:
    # their constraints lose a value that a visible fact would have to carry
    forced_empty: Tuple[Atom, ...]

    @property
    def copy_by_name(self) -> Dict[str, CopyRelation]:
        return {c.name: c for c in self.copies}

    def fresh_pool(self, avoid: Iterable[Value]) -> Tuple[Const, ...]:
        """Fresh constants used to re-inflate dropped positions."""
        k = max((r.arity for r in self.source_schema.relations), default=0)
        taken = {v.name for v in avoid if isinstance(v, Const)}
        taken.update(
            e.name for cp in self.copies for e in cp.pattern if isinstance(e, Const)
        )
        pool: List[Const] = []
        i = 0
        while len(pool) < k:
            cand = f"!f{i}"
            i += 1
            if cand not in taken:
                pool.append(Const(cand))
        return tuple(pool)

    def reconstruct(self, transformed: Instance) -> Instance:
        """Map an instance over the transformed schema back to the source
        schema, re-inflating every copy fact with all injective assignments
        of its pattern groups to fresh constants."""
        pool = self.fresh_pool(active_domain(transformed))
        by_name = self.copy_by_name
        facts: Set[Fact] = set()
        source_rels = set(self.source_schema.by_name)
        for f in transformed.sorted_facts():
            if f.relation in source_rels:
                facts.add(f)
                continue
            copy = by_name.get(f.relation)
            if copy is None:
                continue
            groups = {e for e in copy.pattern if not isinstance(e, Const)}
            for combo in itertools.permutations(pool, len(groups)):
                args: List[Optional[Value]] = [None] * copy.source_arity
                for pos, v in zip(copy.selected, f.args):
                    args[pos] = v
                for pos, e in zip(copy.dropped, copy.pattern):
                    args[pos] = e if isinstance(e, Const) else combo[e - 1]
                facts.add(Fact(copy.source, tuple(args)))  # type: ignore[arg-type]
        return Instance(self.source_schema, frozenset(facts))


def _require_plain_linear(c: ConstraintSet, allow_disjunctive: bool = False) -> None:
    tags = c.tags
    if EGD_TAG in tags:
        raise ClassError("equality constraints are outside the linear-TGD method")
    if DISJ_TAG in tags and not allow_disjunctive:
        raise ClassError("disjunctive heads are outside the linear-TGD method")
    if LINEAR_TAG not in tags:
        raise ClassError("constraints must be linear TGDs (single body atom)")


def transform_adom(q: UCQ, c: ConstraintSet, s: Schema) -> AdomTransform:
    """Rewrite a linear-TGD problem into an equivalent one whose negative
    query implication always has an active-domain counterexample when it has
    any counterexample at all."""
    _require_plain_linear(c)
    if q.free_vars:
        raise ClassError("the transform expects a Boolean query")
    c, s = normalize_single_head(c, s)
    pool = tuple(map(Const, constant_names(c, q)))
    taken = set(s.by_name)

    # copies of every hidden relation, one per (selected set, pattern)
    copies: List[CopyRelation] = []
    copies_of: Dict[str, List[CopyRelation]] = {}
    copy_at: Dict[Tuple[str, Tuple[int, ...], Pattern], CopyRelation] = {}
    for rel in s.hidden_relations:
        per_rel: List[CopyRelation] = []
        idx = 0
        positions = list(range(rel.arity))
        for r in range(rel.arity, -1, -1):
            for sel in itertools.combinations(positions, r):
                for pat in _patterns(rel.arity - len(sel), pool):
                    name = fresh_name(f"{rel.name}_c{idx}", taken)
                    idx += 1
                    cp = CopyRelation(rel.name, rel.arity, sel, pat, name)
                    per_rel.append(cp)
                    copies.append(cp)
                    copy_at[(rel.name, sel, pat)] = cp
                    if len(copies) > MAX_COPIES:
                        raise TransformTooLarge(
                            f"too many relation copies ({len(copies)}); "
                            "lower the hidden arities or constant count"
                        )
        copies_of[rel.name] = per_rel

    new_schema = Schema(
        tuple(s.visible_relations)
        + tuple(
            RelationDecl(cp.name, len(cp.selected), visible=False) for cp in copies
        )
    )

    # translate each TGD once per body copy
    deps: List[Dependency] = []
    forced_empty: List[Atom] = []

    def head_translation(
        head_atom: Atom,
        exist_vars: Tuple[Var, ...],
        subst: Dict[Var, Term],
        selected_vars: Set[Var],
    ) -> Optional[List[HeadDisjunct]]:
        """Translate a head atom given the body substitution.

        Returns the list of admissible head disjuncts, or None when the copy
        holding the body fact can never appear in a reconstructible instance
        (a visible head would need a value that the copy dropped).  For
        hidden heads every keep-or-drop choice of the existential variables
        is a disjunct: a witness may place the existential value inside or
        outside the active domain, and each choice is sound on its own.
        """
        z = apply_subst(head_atom, subst).args
        decl = s.decl(head_atom.relation)
        z_vars = {t for t in z if isinstance(t, Var)}
        exist_here = tuple(v for v in exist_vars if v in z_vars)
        if decl.visible:
            # dropped body variables cannot reach a visible fact
            for t in z:
                if isinstance(t, Var) and t not in exist_vars and t not in selected_vars:
                    return None
            return [HeadDisjunct(exist_here, (Atom(head_atom.relation, z),))]
        out: List[HeadDisjunct] = []
        for r in range(len(exist_here) + 1):
            for kept_exist in itertools.combinations(exist_here, r):
                keep = tuple(
                    j
                    for j, t in enumerate(z)
                    if isinstance(t, Var)
                    and (t in selected_vars or t in kept_exist)
                )
                dropped = [z[j] for j in range(len(z)) if j not in set(keep)]
                target = copy_at[(head_atom.relation, keep, canon_pattern(dropped))]
                atom = Atom(target.name, tuple(z[j] for j in keep))
                disjunct = HeadDisjunct(
                    tuple(v for v in kept_exist if any(t == v for t in atom.args)),
                    (atom,),
                )
                if disjunct not in out:
                    out.append(disjunct)
        return out

    def copy_atoms(atom: Atom) -> Iterator[Tuple[Atom, Dict[Var, object]]]:
        """The copy atom over the selected positions of each copy whose
        pattern the dropped terms of `atom` match, with the pattern entry of
        each dropped variable; a visible atom is its own only copy."""
        if s.decl(atom.relation).visible:
            yield atom, {}
            return
        for cp in copies_of[atom.relation]:
            entry_of = bind([atom.args[i] for i in cp.dropped], cp.pattern, {})
            if entry_of is not None:
                yield Atom(cp.name, tuple(atom.args[i] for i in cp.selected)), entry_of

    for tgd in c.tgds:
        head = tgd.heads[0]
        for copy_atom, entry_of in copy_atoms(tgd.body[0]):
            # every fact the copy admits must satisfy the body atom: a
            # variable on a constant entry becomes that constant, also where
            # it is selected; the variables of a group become the first of
            # them, and none of them may be selected
            if any(not isinstance(e, Const) and t in copy_atom.args for t, e in entry_of.items()):
                continue
            rep: Dict[object, Var] = {}
            subst: Dict[Var, Term] = {
                t: e if isinstance(e, Const) else rep.setdefault(e, t)
                for t, e in entry_of.items()
            }
            new_body = apply_subst(copy_atom, subst)
            selected_vars = {t for t in new_body.args if isinstance(t, Var)}
            disjuncts = head_translation(
                head.atoms[0], tuple(head.exist_vars), subst, selected_vars
            )
            if disjuncts is None:
                forced_empty.append(new_body)
                continue
            deps.append(TGD((new_body,), tuple(disjuncts)))
            if len(deps) > MAX_CONSTRAINTS:
                raise TransformTooLarge("too many translated constraints")

    # translate each query disjunct once per compatible choice of copies
    new_disjuncts: List[CQ] = []
    for d in q.disjuncts:
        choices_per_atom: List[List[Tuple[Atom, Dict[Var, object]]]] = []
        for a in d.atoms:
            opts: List[Tuple[Atom, Dict[Var, object]]] = []
            for copy_atom, entry_of in copy_atoms(a):
                marks: Dict[Var, object] = {t: _KEPT for t in copy_atom.args if isinstance(t, Var)}
                if any(t in marks for t in entry_of):
                    continue  # split within one atom
                marks.update((t, e if isinstance(e, Const) else _GROUPED) for t, e in entry_of.items())
                opts.append((copy_atom, marks))
            choices_per_atom.append(opts)
        for combo in itertools.product(*choices_per_atom):
            # a variable shared between atoms must be consistently either
            # kept (joins survive) or dropped in all of them; a constant
            # binding must agree everywhere
            global_marks: Dict[Var, object] = {}
            if not all(global_marks.setdefault(v, m) == m
                       for _, marks in combo for v, m in marks.items()):
                continue
            subst = {v: m for v, m in global_marks.items() if isinstance(m, Const)}
            atoms = tuple(apply_subst(a, subst) for a, _ in combo)
            cq = boolean_cq(atoms)
            if cq not in new_disjuncts:
                new_disjuncts.append(cq)
            if len(new_disjuncts) > MAX_CONSTRAINTS:
                raise TransformTooLarge("too many translated query disjuncts")

    # the all-kept choice always survives validation, so the union is never empty
    assert new_disjuncts

    return AdomTransform(
        query=UCQ(tuple(new_disjuncts)),
        constraints=ConstraintSet(tuple(deps)),
        schema=new_schema,
        source_schema=s,
        copies=tuple(copies),
        forced_empty=tuple(forced_empty),
    )


# ---------------------------------------------------------------------------
# GFP-Datalog programs


@dataclass(frozen=True)
class DatalogRule:
    head: Atom
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_vars = {v for a in self.body for v in a.variables}
        for v in self.head.variables:
            if v not in body_vars:
                raise SchemaError(f"unsafe rule head variable {v.name}")


@dataclass(frozen=True)
class GFPProgram:
    extensional: FrozenSet[str]
    intensional: FrozenSet[str]
    arities: Tuple[Tuple[str, int], ...]
    rules: Tuple[DatalogRule, ...]
    constants: FrozenSet[str]
    goal: str

    def __post_init__(self) -> None:
        arity = dict(self.arities)
        if self.goal not in self.intensional:
            raise SchemaError("goal relation must be intensional")
        for r in self.rules:
            if r.head.relation not in self.intensional:
                raise SchemaError(f"rule head {r.head.relation} is not intensional")
            for a in (r.head,) + r.body:
                if a.relation not in arity:
                    raise SchemaError(f"undeclared relation {a.relation}")
                if arity[a.relation] != len(a.args):
                    raise SchemaError(f"arity mismatch for {a.relation}")


def program_text(p: GFPProgram) -> str:
    """Readable Datalog form: header lines, then one rule per line."""
    lines = [
        "% extensional: " + ", ".join(sorted(p.extensional)),
        "% intensional: " + ", ".join(sorted(p.intensional)),
        "% goal: " + p.goal,
    ]
    for r in p.rules:
        if r.body:
            lines.append(
                f"{_fo_atom(r.head)} :- " + ", ".join(_fo_atom(a) for a in r.body) + "."
            )
        else:
            lines.append(f"{_fo_atom(r.head)}.")
    return "\n".join(lines) + "\n"


def _shape_rules(c: ConstraintSet, s: Schema) -> List[Tuple[Atom, Tuple[Atom, ...]]]:
    """The rules of the hidden relations, as (head, atoms) pairs: one rule
    per body shape a constraint distinguishes, plus the generic shape, whose
    atoms are the head atoms of every single-disjunct constraint that each
    tuple of the shape triggers.  The TGD heads must be single atoms."""
    tgds_by_rel: Dict[str, List[TGD]] = {}
    for t in c.tgds:
        tgds_by_rel.setdefault(t.body[0].relation, []).append(t)
    exist_counter = itertools.count(1)
    rules: List[Tuple[Atom, Tuple[Atom, ...]]] = []
    for rel in s.hidden_relations:
        shapes: List[Pattern] = [tuple(range(1, rel.arity + 1))]  # generic shape
        for t in tgds_by_rel.get(rel.name, ()):
            pat = canon_pattern(t.body[0].args)
            if pat not in shapes:
                shapes.append(pat)
        for shape in shapes:
            head = Atom(rel.name, tuple(e if isinstance(e, Const) else Var(f"w{e - 1}") for e in shape))
            atoms: List[Atom] = []
            for t in tgds_by_rel.get(rel.name, ()):
                # does every tuple of this shape trigger the constraint?
                m = bind(t.body[0].args, head.args, {})
                if m is None:
                    continue
                if len(t.heads) > 1:
                    # a disjunctive obligation cannot become a conjunct; the
                    # largest-model pass enforces it instead
                    continue
                disjunct = t.heads[0]
                ren = {
                    y: Var(f"e{next(exist_counter)}_{y.name}")
                    for y in disjunct.exist_vars
                }
                # rename the existentials apart before pinning the body
                # variables, so a head variable can never capture a shape one
                for ha in disjunct.atoms:
                    atoms.append(apply_subst(apply_subst(ha, ren), m))
            rules.append((head, tuple(atoms)))
    return rules


def build_gfp_program(q: UCQ, c: ConstraintSet, s: Schema) -> GFPProgram:
    """Compile an NQI problem over linear TGDs into a GFP-Datalog program.

    Extensional relations are the visible ones.  A unary relation collects
    the active domain and the program constants; every hidden tuple is gated
    on it and on the heads of the constraints whose body it matches.  The
    goal relation fires on the query disjuncts.
    """
    _require_plain_linear(c, allow_disjunctive=True)
    if q.free_vars:
        raise ClassError("GFP compilation expects a Boolean query")
    c, s = normalize_single_head(c, s)
    taken = set(s.by_name)
    a_name = fresh_name("A", taken)
    goal_name = fresh_name("Goal", taken)
    constants = constant_names(c, q)

    rules: List[DatalogRule] = []
    # the active-domain relation: every position of every visible fact,
    # plus each constant of the problem
    for rel in s.visible_relations:
        args = tuple(Var(f"x{i}") for i in range(rel.arity))
        for i in range(rel.arity):
            rules.append(DatalogRule(Atom(a_name, (args[i],)), (Atom(rel.name, args),)))
    for name in constants:
        rules.append(DatalogRule(Atom(a_name, (Const(name),)), ()))
    # hidden relations: each shape rule, with every distinct head term on A
    for head, atoms in _shape_rules(c, s):
        gate = tuple(Atom(a_name, (t,)) for t in dict.fromkeys(head.args))
        rules.append(DatalogRule(head, gate + atoms))
    for d in q.disjuncts:
        rules.append(DatalogRule(Atom(goal_name, ()), tuple(d.atoms)))

    arities = tuple(
        sorted(
            [(r.name, r.arity) for r in s.relations]
            + [(a_name, 1), (goal_name, 0)]
        )
    )
    return GFPProgram(
        extensional=frozenset(r.name for r in s.visible_relations),
        intensional=frozenset(
            [r.name for r in s.hidden_relations] + [a_name, goal_name]
        ),
        arities=arities,
        rules=tuple(rules),
        constants=frozenset(constants),
        goal=goal_name,
    )


# a compiled rule: the facts it derives, given the values a lookup fixes
_Plan = Callable[[Optional[Sequence[Optional[Value]]]], List[Fact]]


class _MaximalDatabase:
    """The maximal intensional database of (head, body) rules, enumerated
    whole or only where a partially bound atom can match.

    The intensional relations are the rule heads' relations, the others
    extensional.  The facts are those a rule derives from the extensional
    facts when each intensional body atom holds on every tuple over the
    domain (the active domain plus the given constants), with one exception
    below.  So only the extensional atoms constrain the match and unpinned
    head variables range over the whole domain, which avoids ever
    materialising the |domain|^arity cross products.  A rule whose
    intensional atoms hold on no domain tuple (they name a constant outside
    the domain, or the domain is empty) still derives facts here; no rule
    instance derives them, so pruning deletes them.

    The exception is one more step of the immediate consequence operator,
    compiled into the rules.  An intensional relation whose single rule has
    a head of distinct variables, all bound by the rule's extensional atoms,
    holds after the first step exactly where those atoms match.  Every other
    rule with a body atom over it gains those atoms, so the atom no longer
    holds on every domain tuple.  This unfolds one level, from the original
    atoms only, so a cycle never iterates.  Every fact of the greatest
    fixpoint, and of the largest model of the constraints, is derived by a
    rule whose intensional atoms match their facts, which lie in the first
    step; so the database still holds them all, and pruning it leaves the
    same facts alive as pruning the first step would.
    """

    def __init__(self, rules: Sequence[Tuple[Atom, Sequence[Atom]]],
                 constants: Iterable[str], ext: Instance) -> None:
        intensional = {head.relation for head, _ in rules}
        self.ext = ext
        self.domain = sorted(
            set(active_domain(ext)) | {Const(n) for n in constants}, key=value_key
        )
        self.domain_set = set(self.domain)
        # the rules with their extensional atoms
        split = [(head, body, tuple(a for a in body if a.relation not in intensional))
                 for head, body in rules]
        # the relations that unfold, with the head and extensional atoms of
        # their rule; a constant head term is never a bound variable
        rule_count = Counter(head.relation for head, _ in rules)
        unfold = {
            head.relation: (head, ext_atoms)
            for head, _, ext_atoms in split
            if rule_count[head.relation] == 1
            and len(set(head.args)) == len(head.args)
            and set(head.args) <= {x for a in ext_atoms for x in a.variables}
        }
        # the rules with their extensional atoms, by head relation; a head
        # constant outside the domain makes a rule derive nothing
        self.rules: Dict[str, List[Tuple[Atom, Tuple[Atom, ...]]]] = {}
        self.plans: Dict[str, List[_Plan]] = {}  # by head relation, once looked up
        for head, body, ext_atoms in split:
            if any(isinstance(t, Const) and t not in self.domain_set for t in head.args):
                continue
            gained: List[Atom] = []
            for n, a in enumerate(body):
                if a.relation not in unfold or a.relation == head.relation:
                    continue
                unfolded, atoms = unfold[a.relation]
                # head variables become the atom's terms; the others are
                # renamed apart with a dot, which no parsed name contains
                ren: Dict[Var, Term] = dict(zip(unfolded.args, a.args))  # type: ignore[arg-type]
                for b in atoms:
                    for x in b.variables:
                        ren.setdefault(x, Var(f"{n}.{x.name}"))
                gained.extend(apply_subst(b, ren) for b in atoms)
            self.rules.setdefault(head.relation, []).append((head, ext_atoms + tuple(gained)))

    def facts(self, atom: Optional[Atom] = None,
              seed: Mapping[Var, Value] = {}) -> Set[Fact]:
        """Every fact, or with `atom` only those it matches under `seed`:
        each rule for its relation then runs, through its position plan
        (`_rule_plan`, compiled on the relation's first lookup), with the
        values that `atom` fixes at the head positions, its constants and
        the variables `seed` binds (`core._term_value`), and the facts it
        derives must repeat the values at the equal-position pairs of the
        atom's shape (`core._shape`); a pair whose variable `seed` binds
        holds already, since the plan binds that value at both positions."""
        if atom is None:
            known, relations, equal = None, list(self.rules), []
        else:
            known = [_term_value(t, seed) for t in atom.args]
            relations, equal = [atom.relation], _shape(atom).equal
        out: Set[Fact] = set()
        for rel in relations:
            plans = self.plans.get(rel)
            if plans is None:
                plans = self.plans[rel] = [
                    _rule_plan(head, ext_atoms, self.ext, self.domain, self.domain_set)
                    for head, ext_atoms in self.rules.get(rel, ())
                ]
            for plan in plans:
                out.update(plan(known))
        if equal:
            return {f for f in out if all(f.args[i] == f.args[j] for i, j in equal)}
        return out


def _rule_plan(
    head: Atom, ext_atoms: Sequence[Atom], ext: Instance, domain: Sequence[Value], domain_set: Set[Value]
) -> _Plan:
    """A rule of `_MaximalDatabase` compiled into positions: a function from
    the values a lookup fixes at the head positions (None where it fixes
    none, or no list for no lookup) to the facts the rule derives that hold
    them.

    The lookup's values are bound to the head once (`core.bind`).  The
    rule's first extensional atom is compiled into its shape (`core._shape`)
    and read from `ext` through `core.facts_at`, keyed on its constants and
    on the values bound to its variables; each fact must repeat the values
    at the shape's equal-position pairs.  A rule without extensional atoms
    reads one empty row.  Each head position is a constant, a position of
    that atom, or the slot of a variable the atom leaves unbound, which
    ranges over the domain unless the lookup binds it or the rule's other
    extensional atoms do (`find_homomorphisms`, seeded from the first atom's
    fact).  Values the atoms bind lie in the domain, so only a bound slot
    value is checked against it."""
    width, consts, equal, first_of = _shape(ext_atoms[0]) if ext_atoms else (0, [], [], {})
    rest = tuple(ext_atoms[1:])
    slot_vars = [x for x in head.variables if x not in first_of]
    # the head as indexes into a row, then the slot values, then its terms
    template = [width + len(slot_vars) + hp if isinstance(t, Const)
                else first_of[t] if t in first_of else width + slot_vars.index(t)
                for hp, t in enumerate(head.args)]

    def plan(known: Optional[Sequence[Optional[Value]]]) -> List[Fact]:
        bound = {} if known is None else bind(head.args, known, {})
        if bound is None or (known is not None and len(known) != len(head.args)):
            return []
        key: Dict[int, Value] = dict(consts)
        for x, v in bound.items():
            if x in first_of:
                if key.setdefault(first_of[x], v) != v:
                    return []
            elif v not in domain_set:
                return []
        rows: Sequence[Tuple[Value, ...]] = [()]
        if ext_atoms:
            positions = tuple(sorted(key))
            found = facts_at(ext, ext_atoms[0].relation, width, positions, tuple([key[p] for p in positions]))
            rows = [f.args for f in found
                    if not equal or all(f.args[i] == f.args[j] for i, j in equal)]
        if not rest:
            combos: Iterable[Tuple[Value, ...]] = list(
                itertools.product(*[(bound[x],) if x in bound else domain for x in slot_vars]))
        out: List[Fact] = []
        for row in rows:
            if rest:
                h = {x: row[p] for x, p in first_of.items()}
                h.update((x, v) for x, v in bound.items() if x not in first_of)
                combos = (combo for g in find_homomorphisms(rest, ext, h)
                          for combo in itertools.product(*[(g[x],) if x in g else domain for x in slot_vars]))
            for combo in combos:
                values = row + combo + head.args
                out.append(Fact(head.relation, tuple([values[i] for i in template])))
        return out

    return plan


def _prune_unsupported(
    alive: Set[Fact], obligations: Iterable[Tuple[Fact, Sequence[Support]]]
) -> Set[Fact]:
    """Shrink `alive` to its largest subset in which every obligation of a
    member keeps a live support, and return it.

    Each obligation pairs a fact with its supports; a support is a tuple of
    facts, live while all of them are.  Facts outside `alive` never die.
    Support counting (AC-4, Mohr & Henderson 1986): a fact is deleted when
    some obligation's live count reaches zero, and deleting it decrements
    only the obligations whose supports use it.  The result does not depend
    on the order of deletions.
    """
    owner: List[Fact] = []  # obligation -> the fact that owes it
    live: List[int] = []  # obligation -> number of live supports
    support_of: List[int] = []  # support -> its obligation
    users: Dict[Fact, List[int]] = {}  # fact -> supports that use it
    worklist: List[Fact] = []
    for fact, supports in obligations:
        ob = len(owner)
        owner.append(fact)
        live.append(len(supports))
        for support in supports:
            for g in set(support):
                if g in alive:
                    users.setdefault(g, []).append(len(support_of))
            support_of.append(ob)
        if not supports:
            worklist.append(fact)
    dead = [False] * len(support_of)
    while worklist:
        fact = worklist.pop()
        if fact not in alive:
            continue
        alive.discard(fact)
        for sid in users.get(fact, ()):
            if dead[sid]:
                continue
            dead[sid] = True
            ob = support_of[sid]
            live[ob] -= 1
            if live[ob] == 0:
                worklist.append(owner[ob])
    return alive


def eval_gfp(p: GFPProgram, ext: Instance) -> Tuple[bool, Instance]:
    """The greatest fixpoint of the immediate consequence operator below the
    maximal intensional database: an intensional fact survives while some
    rule instance deriving it has a live body."""
    for f in ext.facts:
        if f.relation not in p.extensional:
            raise SchemaError(f"{f.relation} is not extensional")
    candidates = _MaximalDatabase([(r.head, r.body) for r in p.rules], p.constants, ext).facts()
    decls = [RelationDecl(n, a, visible=(n in p.extensional)) for n, a in p.arities]
    schema = Schema(tuple(decls))
    top = Instance(schema, ext.facts | candidates)
    derivations: Dict[Fact, List[Support]] = {f: [] for f in candidates}
    for r in p.rules:
        for h in find_homomorphisms(r.body, top):
            supports = derivations.get(apply_hom((r.head,), h)[0])
            if supports is not None:
                supports.append(apply_hom(r.body, h))
    alive = _prune_unsupported(candidates, derivations.items())
    goal_true = any(f.relation == p.goal for f in alive)
    return goal_true, Instance(schema, ext.facts | alive)


# ---------------------------------------------------------------------------
# the NQI decision pipeline


def _largest_model(
    q: UCQ,
    c: ConstraintSet,
    s: Schema,
    v: Instance,
    forced_empty: Sequence[Atom] = (),
    constants: Optional[Sequence[str]] = None,
) -> Optional[Instance]:
    """The largest sub-instance of the maximal database of the constraints'
    shape rules (`_shape_rules`) over the active domain of `v` and the
    named constants, with visible part `v`, that satisfies every
    constraint, or None when there is none or it falsifies the query.  The
    named constants are `constants` when given, which must then hold every
    constant of `c` and `q` (`nqi_gfp_detail` passes the ones it collected
    before the transform), and those of `c` and `q` otherwise.  The TGD bodies
    and head disjuncts must be single atoms; a head disjunct may also be
    empty.  `v` must hold only visible facts of `s`, which is not checked
    here: `nqi_gfp_detail` validates it.

    Each trigger of a TGD on a fact is one obligation of that fact, and the
    facts matching the head of each disjunct are its supports: from `v` for
    a visible head, from the maximal database for a hidden one.  A visible
    fact cannot be deleted: losing one means no instance extends `v`.

    Whether a fact survives depends only on the facts it reaches through
    supports.  So phase 1 explores the closure of the visible facts and the
    query matches alone, querying the maximal database at each trigger's
    values, prunes it, and decides a None answer there.  That closure holds
    every support of its facts, so its survivors and its deleted facts are
    final; its visible lookups read the facts of `v` that an atom matches
    (`core.matched_facts`).  Otherwise phase 2 enumerates the maximal
    database's hidden facts once, indexes them by position
    (`core.support_lookup`), and prunes only the facts that phase 1 did not
    explore, giving the whole largest model as the witness.
    """
    hidden = {r.name for r in s.hidden_relations}
    if constants is None:
        constants = constant_names(c, q)
    maxdb = _MaximalDatabase(_shape_rules(c, s), constants, v)
    # body atom and head disjuncts of each trigger, by body relation; a fact
    # of a forced-empty copy owes an obligation that nothing supports
    triggers: Dict[str, List[Tuple[Atom, Tuple[HeadDisjunct, ...]]]] = {}
    for tgd in c.tgds:
        triggers.setdefault(tgd.body[0].relation, []).append((tgd.body[0], tgd.heads))
    for atom in forced_empty:
        triggers.setdefault(atom.relation, []).append((atom, ()))

    def matches(atoms: Sequence[Atom], seed: Mapping[Var, Value]) -> Iterator[Support]:
        """The facts of every match of `atoms` into `v` and the maximal
        database that extends `seed`."""
        if not atoms:
            yield ()
            return
        atom, rest = atoms[0], atoms[1:]
        if atom.relation in hidden:
            found: Iterable[Fact] = maxdb.facts(atom, seed)
        else:
            found = matched_facts(atom, v, seed)
        for f in found:
            if not rest:
                yield (f,)
                continue
            for more in matches(rest, match_fact(atom, f, seed)):  # type: ignore[arg-type]
                yield (f,) + more

    # phase 1: the support closure of the visible facts and the query
    # matches, visible query atoms first so that they bind the hidden lookups
    query_matches = [
        set(m)
        for d in q.disjuncts
        for m in matches(sorted(d.atoms, key=lambda a: a.relation in hidden), {})
    ]
    explored: Set[Fact] = set()
    obligations: List[Tuple[Fact, List[Support]]] = []
    worklist = list(itertools.chain(v.facts, *query_matches))
    while worklist:
        fact = worklist.pop()
        if fact in explored:
            continue
        explored.add(fact)
        for body, heads in triggers.get(fact.relation, ()):
            h = match_fact(body, fact, {})
            if h is None:
                continue
            supports = [
                m
                for d in heads
                for m in matches(d.atoms, {x: val for x, val in h.items() if x not in d.exist_vars})
            ]
            obligations.append((fact, supports))
            worklist.extend(g for support in supports for g in support)
    alive = _prune_unsupported(set(explored), obligations)
    if not (v.facts <= alive and any(m <= alive for m in query_matches)):
        return None

    # phase 2: the other hidden facts, whose supports lie in phase 1's
    # survivors (which hold `v`) and in these facts themselves
    rest = maxdb.facts() - explored
    facts_of: Dict[str, List[Fact]] = {}
    for f in itertools.chain(alive, rest):
        facts_of.setdefault(f.relation, []).append(f)
    lookups = {
        rel: [support_lookup(body, heads, facts_of) for body, heads in triggers.get(rel, ())]
        for rel in {f.relation for f in rest}
    }
    obligations = [
        (f, supports)
        for f in rest
        for lookup in lookups[f.relation]
        for supports in [lookup(f)]
        if supports is not None
    ]
    return Instance._unchecked(s, frozenset(alive | _prune_unsupported(rest, obligations)))


def nqi_gfp_detail(
    q: UCQ, c: ConstraintSet, s: Schema, v: Instance
) -> Tuple[bool, Optional[Instance], str]:
    """NQI for linear TGDs: the answer, a counterexample over the source
    schema when the answer is negative, and the method that decided it.

    Inclusion dependencies without constants need no transform; every
    other linear set goes through ``transform_adom`` first.
    """
    _require_plain_linear(c)
    if q.free_vars:
        raise ClassError("NQI expects a Boolean query")
    # `v0` below is made without validation, so check here that `v` holds
    # only visible facts of `s`
    if v.schema != s:
        v = Instance(s, v.facts)
    hidden = {r.name for r in s.hidden_relations}
    for f in v.facts:
        if f.relation in hidden:
            raise SchemaError(f"{f.relation} is not extensional")
    # one spare value keeps the collapse argument sound on an empty domain
    extra: Tuple[str, ...] = constant_names(c, q)
    if not extra and not any(f.args for f in v.facts):
        extra = ("!d0",)
    # multi-atom heads normalise away, so judge the fragment afterwards:
    # a head like R(x,y) ∧ S(y,z) is an inclusion-dependency set once split
    c0, s0 = normalize_single_head(c, s)
    if ID_TAG in c0.tags and CONST_TAG not in c0.tags:
        method, back, forced_empty = "greatest fixpoint", (lambda model: model), ()
    else:
        tr = transform_adom(q, c0, s0)
        method, back = "selected-attribute transform + greatest fixpoint", tr.reconstruct
        q, c0, s0, forced_empty = tr.query, tr.constraints, tr.schema, tr.forced_empty
    v0 = v if v.schema == s0 else Instance._unchecked(s0, v.facts)
    model = _largest_model(q, c0, s0, v0, forced_empty=forced_empty, constants=extra)
    if model is None:
        return True, None, method
    keep = set(s.by_name)
    witness = Instance._unchecked(s, frozenset(f for f in back(model).facts if f.relation in keep))
    return False, witness, method
