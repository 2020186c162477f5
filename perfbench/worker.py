"""One benchmark process: set up a workload, optionally run one pass over
its problems, check every result, and print one JSON object as the last
line of output.

run.py starts it with PYTHONHASHSEED fixed, so that set and dict iteration
orders, and with them every count the traced run reports, repeat exactly
for a given seed.  Each pass runs in a fresh process: a second pass in the
same process runs measurably slower, and fresh processes keep every pass
comparable.

Modes:
  setup   import the library, generate the problems and warm up; nothing else
  pass    set up, then solve every problem once, untraced
  traced  set up, attach the span tracer, solve every problem once; adds the
          per-layer metrics, and writes the spans to --spans when given
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _run_pass(wl, problems, tracer=None):
    """Solve every problem once; returns (wall seconds, latencies, results).
    A result is the solver's return value, or the exception it raised."""
    gc.collect()
    latencies = []
    results = []
    start = time.perf_counter()
    for p in problems:
        if tracer is not None:
            tracer.problem = p.pid
        t0 = time.perf_counter()
        try:
            out = wl.solve(p)
        except Exception as exc:  # an undeclared exception is a failure, not a crash
            out = exc
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        results.append(out)
    return time.perf_counter() - start, latencies, results


def _check(wl, problems, results):
    """Classify every result outside the timed region.  Returns the outcome
    list and the wrong results as (label, message)."""
    outcomes, wrong = [], []
    for p, out in zip(problems, results):
        if isinstance(out, Exception):
            outcomes.append("failed")
            continue
        outcome, err = wl.check(p, out)
        outcomes.append(outcome)
        if err:
            wrong.append((p.label, err))
    return outcomes, wrong


def run(workload_name: str, seed: int, mode: str, spans_path: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    core_file = Path(sys.modules["dqi.core"].__file__).resolve()
    if SRC.resolve() not in core_file.parents:
        raise SystemExit(f"dqi was imported from {core_file}, not from this checkout")
    wl = workloads.WORKLOADS[workload_name]
    problems = wl.make(seed)
    wl.warm()
    out = {"setup_s": time.perf_counter() - t0, "problems": len(problems)}
    if mode == "setup":
        return out

    tracer = None
    if mode == "traced":
        tracer = importlib.import_module("spans").Tracer()
        tracer.install()
    wall, latencies, results = _run_pass(wl, problems, tracer)
    if tracer is not None:
        tracer.uninstall()
    outcomes, wrong = _check(wl, problems, results)
    out.update(pass_s=wall, latencies=latencies, outcomes=outcomes, wrong=wrong,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["metrics"] = tracer.layer_metrics()
        out["spans"] = len(tracer.columns["span"])
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.mode, args.spans)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
