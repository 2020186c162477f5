"""The differential gates that CI runs as scripts, run in-process with their
exact checked/skipped counts: `scripts/gfp_regression.py --cases 300`,
`scripts/run_reductions.py --seed 55 --cases 55` and
`scripts/oracle_sweep.py --seed 1` (its oracle sweep and its fact-type
sweep)."""
import importlib.util
import pathlib

import differentials as D

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# (checked, skipped) of each reduction harness on seeds 55-109
REDUCTION_COUNTS = {
    "ucq_to_cq": (55, 0),
    "disj_to_constants_exact": (31, 24),
    "disj_to_constants_forward": (15, 40),
    "pqi_to_nqi": (55, 0),
    "owq_to_pqi": (55, 0),
    "owq_to_exists_pqi": (39, 16),
    "nqi_to_realizability": (55, 0),
    "realizability_to_nqi": (55, 0),
    "exists_nqi_to_owq": (55, 0),
}


# decider verdicts the oracle was asked about on seed 1, and those it
# cannot refute, by decider
SWEEP_CHECKED = {"pqi": 816, "nqi": 680, "owq": 663, "realizable": 383, "exists_pqi": 960, "exists_nqi": 1274}
SWEEP_UNASKED = {"exists_pqi": 690, "owq": 415}
# fact-type verdicts on seed 1 that a chase under the sweep's budget checked,
# and those whose chase neither saturated nor satisfied the query
FACT_TYPE_CHECKED = {"exists_pqi": 1643, "owq": 487}
FACT_TYPE_UNSATURATED = {"exists_pqi": 7, "owq": 21}


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"{name}_script", SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_gfp_regression_checks_298_of_its_300_seeds():
    assert load_script("gfp_regression").regression(range(300)) == (298, 2)


def test_oracle_sweep_refutes_no_verdict_on_seed_1():
    checked, unasked, too_large = load_script("oracle_sweep").sweep(1)
    assert checked == SWEEP_CHECKED
    assert unasked == SWEEP_UNASKED
    assert not too_large


def test_fact_type_sweep_finds_no_disagreement_on_seed_1():
    checked, unsaturated = load_script("oracle_sweep").fact_type_sweep(1)
    assert checked == FACT_TYPE_CHECKED
    assert unsaturated == FACT_TYPE_UNSATURATED


def test_reduction_harnesses_keep_their_counts_on_the_held_out_seeds():
    got = {name: harness(range(55, 110)) for name, harness in D.ALL.items()}
    assert got == REDUCTION_COUNTS
