#!/usr/bin/env python3
"""dqi benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload nqi_reach --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Every pass over a workload's problems
runs in its own worker process (worker.py), with PYTHONHASHSEED derived
from --seed, so a seed fixes the inputs and every iteration order.

--trace 0 runs passes while another pass fits in --seconds (at least one),
measures set-up in at least SETUP_RUNS processes, and reports the
end-to-end metrics.  --trace 1 runs one untraced pass and two traced
passes, reports the per-layer metrics of the first traced pass, fails if
any exact count differs between the two, and writes the first traced
pass's spans to perfbench/out/.  Every result is checked; a wrong one
makes the run exit with status 1.  The last line of output is one JSON
object.  See perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("nqi_reach", "oracle_enum", "decide_mix")
DEFAULT_SEED = 1  # the held-out seed, never run while tuning, is 9001 (README.md)
# set-up takes well under a second and is noisier than the passes, so its
# median is taken over more processes than a run has passes
SETUP_RUNS = 7
RUN_LIMIT_S = 175.0
# standard percentiles; the tail is the highest with at least ten samples
# beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float, spans: str = "") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError("worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail(samples):
    """(percentile, value) for the highest ladder percentile that has at
    least ten samples beyond it."""
    n = len(samples)
    pct = max([p for p in TAIL_LADDER if n * (1 - p / 100) >= 10], default=TAIL_LADDER[0])
    if n < 2:
        return pct, max(samples)
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return pct, cuts[int(round(pct * 10)) - 1]


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def run_timed(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # machine speed drifts over seconds, so half of the set-up-only
    # processes run before the passes and the rest after them
    setups = [_worker(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_RUNS // 2)]
    passes = []
    timed = 0.0
    while True:
        r = _worker(workload, seed, "pass", deadline)
        passes.append(r)
        timed += r["pass_s"]
        if timed + r["pass_s"] > seconds:
            break
    setups += [r["setup_s"] for r in passes]
    while len(setups) < SETUP_RUNS:
        setups.append(_worker(workload, seed, "setup", deadline)["setup_s"])

    first = passes[0]
    n = first["problems"]
    wrong = [tuple(w) for r in passes for w in r["wrong"]]
    if any(r["outcomes"] != first["outcomes"] for r in passes):
        wrong.append(("-", "passes classified the problems differently"))
    per_problem = [statistics.median(x) for x in zip(*(r["latencies"] for r in passes))]
    pct, tail_s = tail(per_problem)
    failed = first["outcomes"].count("failed")
    print(f"# {workload} seed={seed}: {n} problems x {len(passes)} pass(es) in {timed:.2f} s; "
          f"tail is p{pct:g} of {n} per-problem medians; failed_ratio {failed / n:.4f} "
          f"({failed}/{n}); inconclusive {first['outcomes'].count('inconclusive')}; "
          f"set-up runs {', '.join(f'{x:.3f}' for x in setups)} s")
    return {"wrong": wrong, "attempted": n, "failed": failed, "metrics": _metrics({
        "setup_s": (statistics.median(setups), "s"),
        "problems_per_s": (n * len(passes) / timed, "1/s"),
        "verdict_p50_ms": (statistics.median(per_problem) * 1e3, "ms"),
        "verdict_tail_ms": (tail_s * 1e3, "ms"),
        "decided_ratio": (first["outcomes"].count("decided") / n, "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in passes), "MB"),
    })}


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.tsv.gz"
    ref = _worker(workload, seed, "pass", deadline)
    runs = [_worker(workload, seed, "traced", deadline, str(spans)),
            _worker(workload, seed, "traced", deadline)]
    wrong = [tuple(w) for r in [ref] + runs for w in r["wrong"]]
    first, second = ({k: v for k, (v, unit) in r["metrics"].items() if unit in ("count", "ratio")}
                     for r in runs)
    for name in sorted(first):
        if first[name] != second[name]:
            wrong.append(("-", f"count {name} differs between traced runs: "
                               f"{first[name]} vs {second[name]}"))
    if runs[0]["spans"] != runs[1]["spans"]:
        wrong.append(("-", "span totals differ between traced runs"))
    if not (ref["outcomes"] == runs[0]["outcomes"] == runs[1]["outcomes"]):
        wrong.append(("-", "tracing changed an outcome"))
    metrics = dict(runs[0]["metrics"])
    metrics["trace.time_ratio"] = (runs[0]["pass_s"] / ref["pass_s"], "ratio")
    metrics["trace.spans"] = (runs[0]["spans"], "count")
    print(f"# {workload} seed={seed}: untraced pass {ref['pass_s']:.2f} s, traced passes "
          f"{runs[0]['pass_s']:.2f} s and {runs[1]['pass_s']:.2f} s, "
          f"{runs[0]['spans']} spans each; spans of the first in {spans.relative_to(ROOT)}")
    return {"wrong": wrong, "attempted": ref["problems"],
            "failed": ref["outcomes"].count("failed"), "metrics": _metrics(metrics)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dqi" / "core.py").is_file():
        print(f"no dqi sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                results[name] = run_traced(name, args.seed, deadline)
            else:
                results[name] = run_timed(name, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3

    wrong = [(name, label, msg) for name, r in results.items() for label, msg in r["wrong"]]
    for name, label, msg in wrong:
        print(f"WRONG {name} {label}: {msg}", file=sys.stderr)
    for name, r in results.items():
        for metric, m in r["metrics"].items():
            print(f"{name:12s} {metric:44s} {m['value']:>16.6g} {m['unit']}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
