"""The differential gates that CI runs as scripts, run in-process with their
exact checked/skipped counts: `scripts/gfp_regression.py --cases 300` and
`scripts/run_reductions.py --seed 55 --cases 55`."""
import importlib.util
import pathlib

import differentials as D

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "gfp_regression.py"

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


def test_gfp_regression_checks_298_of_its_300_seeds():
    spec = importlib.util.spec_from_file_location("gfp_regression_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.regression(range(300)) == (298, 2)


def test_reduction_harnesses_keep_their_counts_on_the_held_out_seeds():
    got = {name: harness(range(55, 110)) for name, harness in D.ALL.items()}
    assert got == REDUCTION_COUNTS
