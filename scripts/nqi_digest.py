#!/usr/bin/env python3
"""Digest of every NQI answer and witness on seeded inputs.

Runs the greatest-fixpoint NQI method (`dqi.gfp.nqi_gfp_detail`) on seeded
digraph-reachability encodings and on seeded random inclusion-dependency
and linear problems, and hashes each answer with its witness as sorted
facts.  The digest must not depend on the interpreter's hash seed, and a
change to the NQI engine that keeps every answer and witness keeps it, so
the script exits 1 when the digest differs from `PINNED`:

    PYTHONHASHSEED=0 python3 scripts/nqi_digest.py
    PYTHONHASHSEED=1 python3 scripts/nqi_digest.py

A change that means to alter some answer or witness updates `PINNED`.
"""
import hashlib
import random

from dqi.core import ClassError
from dqi.gfp import nqi_gfp_detail
from dqi.problemgen import (
    random_digraph,
    random_id_problem,
    random_linear_problem,
    reachability_problem,
)

PINNED = "2689241fe3558f291466dfbf32212618d7a1e3194489558faf142a4dd00cebb5"
GRAPHS, CASES = 60, 600


def problems():
    """(label, problem) pairs: reachability graphs of up to 5 nodes, then
    random problems, inclusion dependencies on odd seeds."""
    for seed in range(GRAPHS):
        nodes, edges, source, target = random_digraph(random.Random(seed), max_nodes=5)
        yield f"graph{seed}", reachability_problem(nodes, edges, source, target)
    for seed in range(CASES):
        gen = random_id_problem if seed % 2 else random_linear_problem
        yield f"random{seed}", gen(random.Random(seed))


def main() -> int:
    digest = hashlib.sha256()
    answers = {True: 0, False: 0, None: 0}
    for label, (q, c, s, v) in problems():
        try:
            ans, witness, _ = nqi_gfp_detail(q, c, s, v)
        except ClassError:
            ans, witness = None, None
        answers[ans] += 1
        facts = () if witness is None else witness.sorted_facts()
        digest.update(f"{label} {ans} {facts!r}\n".encode())
    got = digest.hexdigest()
    print(f"nqi-digest: {got} true={answers[True]} false={answers[False]} "
          f"out-of-class={answers[None]}")
    if got != PINNED:
        print(f"nqi-digest: expected {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
