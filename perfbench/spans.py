"""Span tracing of the `dqi` layers, attached from outside the library.

`Tracer.install()` wraps each public function listed in TARGETS and rebinds
the wrapper wherever a `dqi.*` module holds the original object, because
`chase`, `gfp`, `oracle` and `deciders` import `find_homomorphisms`,
`satisfies` and the rest by name.

A span records its parent span, the problem id, start and end, its busy
time and its self time.  Busy time is the time spent inside the function;
for the functions that return iterators it is the call plus every resume
of the iterator until it is exhausted or closed, and the time the consumer
spends between items is not counted.  Self time is busy time minus the
busy time of the spans nested directly inside it.  Spans stay in memory
(one row of eight integers each) and are written out by `write_spans`,
gzip-compressed.
"""
from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from dqi import chase, oracle

# A stat is (metric suffix, unit, value computed from the target's counters).
# Every target has the counter "calls"; an iterator target also has "items"
# (items produced) and "hit" (calls that produced at least one item).
Stat = Tuple[str, str, Callable[[Counter], float]]


def _count(key: str, name: str = "") -> Stat:
    return (name or key, "count", lambda c: c[key])


def _ratio(name: str, num: str, den: str) -> Stat:
    return (name, "ratio", lambda c: c[num] / c[den] if c[den] else 0.0)


def _tree_counts(tree) -> Dict[str, int]:
    statuses = [n.status for n in tree.nodes.values()]
    return {"nodes": len(statuses), "leaves": statuses.count(chase.LEAF),
            "budget_cut": statuses.count(chase.BUDGET_CUT)}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    iterator: bool = False
    # counters read off one return value
    read: Optional[Callable[[Any], Dict[str, int]]] = None
    # reported besides calls and self_s
    stats: Tuple[Stat, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_DECIDER = dict(read=lambda v: {"unknown": int(v.value is None)}, stats=(_count("unknown"),))

TARGETS: Tuple[Target, ...] = (
    Target("core", "find_homomorphisms", iterator=True,
           stats=(_count("items", "yielded"), _ratio("hit_ratio", "hit", "calls"))),
    Target("core", "satisfies", read=lambda r: {"true": int(r is True)},
           stats=(_ratio("true_ratio", "true", "calls"),)),
    Target("core", "eval_ucq"),
    Target("core", "map_instance"),
    Target("core", "Instance.with_facts"),
    Target("chase", "visible_chase", read=_tree_counts,
           stats=(_count("nodes"), _ratio("leaf_ratio", "leaves", "nodes"), _count("budget_cut"))),
    Target("chase", "classical_chase", read=lambda r: {"budget": int(r.status == chase.BUDGET)},
           stats=(_count("budget"),)),
    Target("chase", "decide_pqi_critical_linear"),
    Target("gfp", "nqi_gfp_detail"),
    Target("gfp", "build_gfp_program", read=lambda p: {"rules": len(p.rules)},
           stats=(_count("rules"),)),
    Target("gfp", "eval_gfp", read=lambda r: {"fixpoint_facts": len(r[1].facts)},
           stats=(_count("fixpoint_facts"),)),
    Target("gfp", "transform_adom", read=lambda p: {"constraints": len(p.constraints.dependencies)},
           stats=(_count("constraints"),)),
    Target("oracle", "enumerate_extensions", iterator=True, stats=(_count("items", "candidates"),)),
    Target("oracle", "enumerate_supersets", iterator=True, stats=(_count("items", "candidates"),)),
    Target("oracle", "oracle_pqi"),
    Target("oracle", "oracle_nqi"),
    Target("oracle", "oracle_realizable"),
    Target("oracle", "oracle_owq"),
    Target("reductions", "disj_to_constants"),
    Target("reductions", "constant_encoding_lift"),
    Target("reductions", "pqi_to_nqi"),
    Target("reductions", "owq_to_pqi"),
    Target("reductions", "nqi_to_realizability"),
    Target("deciders", "decide_pqi", **_DECIDER),
    Target("deciders", "decide_nqi", **_DECIDER),
    Target("deciders", "decide_realizable", **_DECIDER),
    Target("deciders", "decide_owq", **_DECIDER),
    Target("deciders", "decide_exists_pqi", **_DECIDER),
    Target("deciders", "decide_exists_nqi", **_DECIDER),
)

NAMES = tuple(t.name for t in TARGETS)

SPAN_COLUMNS = ("span", "parent", "name", "problem", "start_ns", "end_ns", "busy_ns", "self_ns")


class Tracer:
    def __init__(self) -> None:
        self.problem = -1
        # open frames: [span id, busy time of directly nested spans]
        self._stack: List[list] = []
        self._next_id = 0
        self.columns = {c: array("q") for c in SPAN_COLUMNS}
        self.self_ns = [0] * len(TARGETS)
        self.counters = [Counter() for _ in TARGETS]
        self._installed: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self) -> Tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        return sid, parent

    def _record(self, sid: int, parent: int, idx: int, problem: int, start: int, end: int,
                busy: int, child: int) -> None:
        cols = self.columns
        cols["span"].append(sid)
        cols["parent"].append(parent)
        cols["name"].append(idx)
        cols["problem"].append(problem)
        cols["start_ns"].append(start)
        cols["end_ns"].append(end)
        cols["busy_ns"].append(busy)
        cols["self_ns"].append(busy - child)
        self.counters[idx]["calls"] += 1
        self.self_ns[idx] += busy - child

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, idx: int, fn: Callable) -> Callable:
        read = TARGETS[idx].read
        counters = self.counters[idx]
        stack = self._stack

        def traced(*args, **kwargs):
            sid, parent = self._open()
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except oracle.SearchSpaceTooLarge:
                counters["too_large"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self._record(sid, parent, idx, self.problem, start, end, end - start, frame[1])
            if read is not None:
                counters.update(read(result))
            return result

        return traced

    def _wrap_iter(self, idx: int, fn: Callable) -> Callable:
        counters = self.counters[idx]
        stack = self._stack

        def iterate(sid: int, parent: int, problem: int, start: int, busy: int, child: int, it):
            produced = 0
            try:
                while True:
                    frame = [sid, 0]
                    stack.append(frame)
                    t0 = perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter_ns()
                        stack.pop()
                        if stack:
                            stack[-1][1] += t1 - t0
                        busy += t1 - t0
                        child += frame[1]
                    produced += 1
                    yield item
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()
                self._record(sid, parent, idx, problem, start, perf_counter_ns(), busy, child)
                counters["items"] += produced
                counters["hit"] += produced > 0

        def traced(*args, **kwargs):
            sid, parent = self._open()
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                it = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            return iterate(sid, parent, self.problem, start, end - start, frame[1], iter(it))

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "dqi" or name.startswith("dqi.")) and m is not None]
        for idx, t in enumerate(TARGETS):
            owner = sys.modules[f"dqi.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap_call(idx, orig))
                self._installed.append((cls, meth, orig))
                continue
            orig = getattr(owner, t.attr)
            wrapper = (self._wrap_iter if t.iterator else self._wrap_call)(idx, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for idx, t in enumerate(TARGETS):
            c = self.counters[idx]
            out[f"{t.name}.calls"] = (c["calls"], "count")
            out[f"{t.name}.self_s"] = (self.self_ns[idx] / 1e9, "s")
            for stat, unit, value in t.stats:
                out[f"{t.name}.{stat}"] = (value(c), unit)
        out["oracle.too_large"] = (sum(c["too_large"] for t, c in zip(TARGETS, self.counters)
                                       if t.module == "oracle"), "count")
        return out

    def write_spans(self, path: str) -> int:
        cols = [self.columns[c] for c in SPAN_COLUMNS]
        n = len(cols[0])
        name_col = self.columns["name"]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(SPAN_COLUMNS) + "\n")
            for i in range(n):
                row = [str(col[i]) for col in cols]
                row[2] = NAMES[name_col[i]]
                fh.write("\t".join(row) + "\n")
        return n
