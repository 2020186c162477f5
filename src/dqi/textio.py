"""The `.dqi` problem description language and first-order formula emission.

A `.dqi` file starts with a `dqi-1` header line and holds one schema,
one constraints block, and any number of named queries and instances:

    dqi-1
    schema { visible F1/1; visible F2/1; hidden U/2; }
    constraints {
      F1(x) -> exists y. U(x,y);
      U(x,y) -> F2(y);
      R(x,x) -> T();
      U(x,y) & U(x,z) -> y = z;
      A(x) -> B(x) | C(x);
    }
    query Q { exists x. U(x,x) }
    instance V { F1(a). F2(a). }

Inside formulas a lowercase identifier is a variable and constants are
quoted (`"Smith"`); inside instance blocks every argument is a constant
(bare or quoted) or a null written `?7`.  `#` starts a line comment.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    Atom,
    CQ,
    Const,
    ConstraintSet,
    Dependency,
    EGD,
    Fact,
    HeadDisjunct,
    Instance,
    Null,
    RelationDecl,
    Schema,
    SchemaError,
    TGD,
    Term,
    UCQ,
    Value,
    Var,
    _dep_atoms,
    value_name,
    variables_of,
)

HEADER = "dqi-1"

_LOWER_NAME = re.compile(r"[a-z][A-Za-z0-9_]*$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ProblemFile:
    schema: Schema
    constraints: ConstraintSet
    queries: Dict[str, UCQ] = field(default_factory=dict)
    instances: Dict[str, Instance] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<null>\?\d+)
  | (?P<name>[A-Za-z_!][A-Za-z0-9_']*)
  | (?P<int>\d+)
  | (?P<arrow>->)
  | (?P<punct>[{}();,./|&=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        raw = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks: List[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text


# ---------------------------------------------------------------------------
# parsing


def parse(text: str) -> ProblemFile:
    """Parse a `.dqi` document."""
    lines = text.split("\n")
    header_at = None
    for i, ln in enumerate(lines):
        stripped = ln.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped == HEADER:
            header_at = i
        break
    if header_at is None:
        raise ParseError(f"missing {HEADER} header", 1, 1)
    lines[header_at] = ""
    toks = _tokenize("\n".join(lines))
    p = _Parser(toks)
    schema = Schema(())
    deps: List[Dependency] = []
    queries: Dict[str, UCQ] = {}
    raw_instances: Dict[str, List[Tuple[str, List[Value], _Tok]]] = {}
    seen_schema = False
    while p.peek() is not None:
        kw = p.next()
        if kw.text == "schema":
            if seen_schema:
                raise ParseError("duplicate schema section", kw.line, kw.col)
            schema = _parse_schema(p)
            seen_schema = True
        elif kw.text == "constraints":
            deps.extend(_parse_constraints(p))
        elif kw.text == "query":
            name = p.next().text
            if name in queries:
                raise ParseError(f"duplicate query {name}", kw.line, kw.col)
            queries[name] = _parse_query(p)
        elif kw.text == "instance":
            name = p.next().text
            if name in raw_instances:
                raise ParseError(f"duplicate instance {name}", kw.line, kw.col)
            raw_instances[name] = _parse_instance_block(p)
        else:
            raise ParseError(f"unknown section {kw.text!r}", kw.line, kw.col)
    for dep in deps:
        _check_atoms(schema, _dep_atoms(dep))
    for q in queries.values():
        for d in q.disjuncts:
            _check_atoms(schema, d.atoms)
    instances: Dict[str, Instance] = {}
    for name, raw in raw_instances.items():
        facts = set()
        for rel, args, tok in raw:
            decl = schema.by_name.get(rel)
            if decl is None:
                raise ParseError(f"undeclared relation {rel}", tok.line, tok.col)
            if decl.arity != len(args):
                raise ParseError(f"arity mismatch for {rel}", tok.line, tok.col)
            facts.add(Fact(rel, tuple(args)))
        instances[name] = Instance(schema, frozenset(facts))
    return ProblemFile(schema, ConstraintSet(tuple(deps)), queries, instances)


def _parse_schema(p: _Parser) -> Schema:
    p.expect("{")
    decls: List[RelationDecl] = []
    while not p.at("}"):
        vis = p.next()
        if vis.text not in ("visible", "hidden"):
            raise ParseError("expected 'visible' or 'hidden'", vis.line, vis.col)
        name = p.next()
        p.expect("/")
        ar = p.next()
        if ar.kind != "int":
            raise ParseError("expected arity", ar.line, ar.col)
        arity = int(ar.text)
        if arity > sys.maxsize:
            raise ParseError(f"arity {ar.text} is too large", ar.line, ar.col)
        decls.append(RelationDecl(name.text, arity, vis.text == "visible"))
        p.expect(";")
    p.expect("}")
    return Schema(tuple(decls))


def _parse_term(p: _Parser) -> Term:
    t = p.next()
    if t.kind == "string":
        return Const(_unquote(t.text))
    if t.kind == "name":
        if _LOWER_NAME.match(t.text):
            return Var(t.text)
        return Const(t.text)
    raise ParseError(f"expected term, found {t.text!r}", t.line, t.col)


def _parse_atom(p: _Parser) -> Atom:
    rel = p.next().text
    p.expect("(")
    args: List[Term] = []
    while not p.at(")"):
        if args:
            p.expect(",")
        args.append(_parse_term(p))
    p.expect(")")
    return Atom(rel, tuple(args))


def _parse_conjunction(p: _Parser) -> List[Atom]:
    atoms = [_parse_atom(p)]
    while p.at("&"):
        p.next()
        atoms.append(_parse_atom(p))
    return atoms


def _at_binders(p: _Parser) -> bool:
    """Does an `exists v1, ..., vk.` prefix start here?  `exists` followed
    by `(` is a relation and followed by `=` an EGD's left variable."""
    nxt = p.toks[p.pos + 1].text if p.pos + 1 < len(p.toks) else None
    return p.at("exists") and nxt not in ("(", "=")


def _parse_binders(p: _Parser) -> List[Var]:
    """The variables of an optional `exists v1, ..., vk.` prefix."""
    exist: List[Var] = []
    if _at_binders(p):
        p.next()
        while True:
            t = p.next()
            if t.kind != "name" or not _LOWER_NAME.match(t.text):
                raise ParseError(f"expected a variable, found {t.text!r}", t.line, t.col)
            exist.append(Var(t.text))
            if not p.at(","):
                break
            p.next()
        p.expect(".")
    return exist


def _parse_head_disjunct(p: _Parser) -> HeadDisjunct:
    return HeadDisjunct(tuple(_parse_binders(p)), tuple(_parse_conjunction(p)))


def _parse_constraints(p: _Parser) -> List[Dependency]:
    p.expect("{")
    deps: List[Dependency] = []
    while not p.at("}"):
        body = _parse_conjunction(p)
        p.expect("->")
        # an EGD right-hand side is `term = term`
        save = p.pos
        if not _at_binders(p):
            first = p.peek()
            if first is not None and first.kind in ("name", "string"):
                t1 = _parse_term(p)
                if p.at("="):
                    p.next()
                    t2 = _parse_term(p)
                    deps.append(EGD(tuple(body), t1, t2))
                    p.expect(";")
                    continue
            p.pos = save
        heads = [_parse_head_disjunct(p)]
        while p.at("|"):
            p.next()
            heads.append(_parse_head_disjunct(p))
        deps.append(TGD(tuple(body), tuple(heads)))
        p.expect(";")
    p.expect("}")
    return deps


def _parse_query(p: _Parser) -> UCQ:
    p.expect("{")
    disjuncts: List[CQ] = []
    while True:
        exist = _parse_binders(p)
        atoms = _parse_conjunction(p)
        free = tuple(v for v in variables_of(atoms) if v not in exist)
        disjuncts.append(CQ(free, tuple(exist), tuple(atoms)))
        if p.at("|"):
            p.next()
            continue
        break
    p.expect("}")
    return UCQ(tuple(disjuncts))


def _parse_instance_block(p: _Parser):
    p.expect("{")
    out = []
    while not p.at("}"):
        tok = p.peek()
        atom_name = p.next().text
        p.expect("(")
        args: List[Value] = []
        while not p.at(")"):
            if args:
                p.expect(",")
            t = p.next()
            if t.kind == "string":
                args.append(Const(_unquote(t.text)))
            elif t.kind == "null":
                args.append(Null(int(t.text[1:])))
            elif t.kind in ("name", "int"):
                args.append(Const(t.text))
            else:
                raise ParseError("expected constant or null", t.line, t.col)
        p.expect(")")
        p.expect(".")
        out.append((atom_name, args, tok))
    p.expect("}")
    return out


def _unquote(s: str) -> str:
    return s[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _check_atoms(schema: Schema, atoms: Iterable[Atom]) -> None:
    for a in atoms:
        decl = schema.by_name.get(a.relation)
        if decl is None:
            raise SchemaError(f"undeclared relation {a.relation}")
        if decl.arity != len(a.args):
            raise SchemaError(f"arity mismatch for {a.relation}")


# ---------------------------------------------------------------------------
# serialization


def _var_text(v: Var) -> str:
    if not _LOWER_NAME.match(v.name):
        raise ValueError(f"variable {v.name!r} would read back as a constant")
    return v.name


def _term_text(t: Term) -> str:
    """A formula term.  A constant is always quoted: written bare, a
    lowercase name would read back as a variable."""
    return _var_text(t) if isinstance(t, Var) else _quoted(t.name)


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _value_text(v: Value) -> str:
    if isinstance(v, Null):
        return value_name(v)
    return v.name if _LOWER_NAME.match(v.name) else _quoted(v.name)


def _atom_text(a: Atom) -> str:
    return f"{a.relation}({', '.join(_term_text(t) for t in a.args)})"


def _conj_text(atoms: Sequence[Atom]) -> str:
    return " & ".join(_atom_text(a) for a in atoms)


def _exists_text(exist_vars: Sequence[Var], atoms: Sequence[Atom]) -> str:
    prefix = ""
    if exist_vars:
        prefix = "exists " + ", ".join(map(_var_text, exist_vars)) + ". "
    return prefix + _conj_text(atoms)


def _dep_text(d: Dependency) -> str:
    if isinstance(d, EGD):
        return f"{_conj_text(d.body)} -> {_term_text(d.left)} = {_term_text(d.right)}"
    return f"{_conj_text(d.body)} -> " + " | ".join(_exists_text(h.exist_vars, h.atoms) for h in d.heads)


def serialize(p: ProblemFile) -> str:
    """Deterministic text form; `parse(serialize(p))` reproduces `p`.

    Raises ValueError on a variable whose name would read back as a
    constant."""
    lines = [HEADER, "schema {"]
    for r in p.schema.relations:
        vis = "visible" if r.visible else "hidden"
        lines.append(f"  {vis} {r.name}/{r.arity};")
    lines.append("}")
    lines.append("constraints {")
    for d in p.constraints.dependencies:
        lines.append(f"  {_dep_text(d)};")
    lines.append("}")
    for name in sorted(p.queries):
        q = p.queries[name]
        body = "\n    | ".join(_exists_text(d.exist_vars, d.atoms) for d in q.disjuncts)
        lines.append(f"query {name} {{ {body} }}")
    for name in sorted(p.instances):
        inst = p.instances[name]
        lines.append(f"instance {name} {{")
        for f in inst.sorted_facts():
            args = ", ".join(_value_text(v) for v in f.args)
            lines.append(f"  {f.relation}({args}).")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# first-order formula emission


def _fo_value(v: Value) -> str:
    return _quoted(value_name(v))


def _fo_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else _quoted(t.name)


def _fo_atom(a: Atom) -> str:
    return f"{a.relation}({', '.join(_fo_term(t) for t in a.args)})"


def _fo_conj(parts: Sequence[str]) -> str:
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return "(" + " & ".join(parts) + ")"


def _fo_disj(parts: Sequence[str]) -> str:
    if not parts:
        return "false"
    if len(parts) == 1:
        return parts[0]
    return "(" + " | ".join(parts) + ")"


def _fo_query(q: UCQ) -> str:
    parts = []
    for d in q.disjuncts:
        body = _fo_conj([_fo_atom(a) for a in d.atoms])
        vs = [v.name for v in d.variables]
        if vs:
            body = f"exists {', '.join(vs)}. {body}"
        parts.append(body)
    return _fo_disj(parts)


def _fo_dependency(d: Dependency) -> str:
    body_vars = sorted({v.name for a in d.body for v in a.variables})
    body = _fo_conj([_fo_atom(a) for a in d.body])
    if isinstance(d, EGD):
        inner = f"({body} -> {_fo_term(d.left)} = {_fo_term(d.right)})"
    else:
        heads = []
        for h in d.heads:
            htxt = _fo_conj([_fo_atom(a) for a in h.atoms])
            if h.exist_vars:
                htxt = f"exists {', '.join(v.name for v in h.exist_vars)}. {htxt}"
            heads.append(htxt)
        inner = f"({body} -> {_fo_disj(heads)})"
    if body_vars:
        return f"forall {', '.join(body_vars)}. {inner}"
    return inner


def _closed_world(s: Schema, v: Instance) -> List[str]:
    parts: List[str] = []
    for r in s.visible_relations:
        facts = v.facts_of(r.name)
        for f in facts:
            if r.arity == 0:
                parts.append(f"{r.name}()")
            else:
                parts.append(f"{r.name}({', '.join(_fo_value(x) for x in f.args)})")
        xs = [f"x{i+1}" for i in range(r.arity)]
        if r.arity == 0:
            if not facts:
                parts.append(f"({r.name}() -> false)")
            continue
        options = []
        for f in facts:
            options.append(_fo_conj([f"{x} = {_fo_value(val)}" for x, val in zip(xs, f.args)]))
        parts.append(
            f"forall {', '.join(xs)}. ({r.name}({', '.join(xs)}) -> {_fo_disj(options)})"
        )
    return parts


def emit_gnfo(kind: str, q: UCQ, c: ConstraintSet, s: Schema, v: Instance) -> str:
    """Emit the satisfiability encoding of a PQI or NQI question.

    PQI on (Q, C, S, V) is equivalent to unsatisfiability of
    `!Q & C & closed-world(V)`; NQI flips the polarity of Q.
    """
    if kind not in ("PQI", "NQI"):
        raise ValueError(f"kind must be PQI or NQI, not {kind!r}")
    qtxt = _fo_query(q)
    head = f"!({qtxt})" if kind == "PQI" else f"({qtxt})"
    parts = [head]
    parts.extend(_fo_dependency(d) for d in c.dependencies)
    parts.extend(_closed_world(s, v))
    return " &\n".join(parts) + "\n"
