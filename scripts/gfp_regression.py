#!/usr/bin/env python3
"""Differential check of the greatest-fixpoint refutability decision
against the bounded brute-force enumerator on random linear / inclusion-
dependency problems.

Contract (the enumerator is bounded, the fixpoint method exact):
refutable verdicts must survive a widened enumeration finding no
counterexample; non-refutable verdicts must come with a witness that
validates semantically.
"""
import argparse
import random
from typing import Iterable, Tuple

from dqi.core import ClassError, eval_ucq, satisfies
from dqi.gfp import nqi_gfp_detail
from dqi.oracle import DomainBound, SearchSpaceTooLarge, oracle_nqi
from dqi.problemgen import random_id_problem, random_linear_problem


def regression(seeds: Iterable[int]) -> Tuple[int, int]:
    """Check the fixpoint method on each seed's problem; return the checked
    and skipped counts, raising AssertionError on a disagreement."""
    checked = skipped = 0
    for seed in seeds:
        rng = random.Random(seed)
        gen = random_id_problem if seed % 2 else random_linear_problem
        q, c, s, v = gen(rng)
        try:
            ans, witness, _ = nqi_gfp_detail(q, c, s, v)
        except ClassError:
            skipped += 1
            continue
        if ans:
            try:
                o = oracle_nqi(q, c, s, v,
                               DomainBound(extra_values=2,
                                           max_facts_total=len(v.facts) + 8,
                                           space_ceiling=3e5))
            except SearchSpaceTooLarge:
                skipped += 1
                continue
            assert o.answer, f"seed {seed}: fixpoint says refutable, enumerator found {o.witness}"
        else:
            assert witness is not None, f"seed {seed}: negative verdict without witness"
            assert satisfies(c, witness), f"seed {seed}: witness violates constraints"
            assert witness.visible().facts == v.facts, f"seed {seed}: witness changes visible part"
            assert eval_ucq(q, witness) is True, f"seed {seed}: witness does not satisfy the query"
        checked += 1
    return checked, skipped


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    ap.add_argument("--cases", type=int, default=300, help="number of cases (default 300)")
    args = ap.parse_args()
    checked, skipped = regression(range(args.seed, args.seed + args.cases))
    print(f"gfp-vs-enumerator: checked={checked} skipped={skipped} disagreements=0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
