import json
import pathlib
import random
import re
import shlex

import pytest

from dqi.cli import EXIT_FALSE, EXIT_TRUE, EXIT_UNKNOWN, EXIT_USAGE, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
MEDICAL = str(FIXTURES / "medical.dqi")
SEPARATION = str(FIXTURES / "separation.dqi")
CONTROLLABILITY = str(FIXTURES / "controllability.dqi")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_nqi_true_exit_code(capsys):
    code, out, _ = run(capsys, "check", "nqi", "--file", MEDICAL,
                       "--instance", "Vempty")
    assert code == EXIT_TRUE
    assert "true" in out


def test_check_pqi_false_exit_code_and_witness(capsys):
    code, out, _ = run(capsys, "check", "pqi", "--file", MEDICAL,
                       "--instance", "Vsmith")
    assert code == EXIT_FALSE
    assert "Appointment" in out


def test_check_json_report_shape(capsys):
    code, out, _ = run(capsys, "check", "pqi", "--file", SEPARATION,
                       "--instance", "V", "--json")
    assert code == EXIT_TRUE
    report = json.loads(out)
    assert report["verdict"] == "true"
    assert set(report) == {"command", "verdict", "reason", "certificate",
                           "exactness", "budget", "wallTimeMs"}
    assert set(report["budget"]) == {"maxNodes", "maxFacts", "maxDepth"}


def test_check_owq_false(capsys):
    code, out, _ = run(capsys, "check", "owq", "--file", SEPARATION,
                       "--instance", "V")
    assert code == EXIT_FALSE


def test_check_realizable(capsys):
    code, _, _ = run(capsys, "check", "realizable", "--file", CONTROLLABILITY,
                     "--instance", "V")
    assert code == EXIT_TRUE


def test_exists_subcommands(capsys):
    code, _, _ = run(capsys, "exists", "pqi", "--file", SEPARATION)
    assert code == EXIT_TRUE
    code, _, _ = run(capsys, "exists", "nqi", "--file", SEPARATION)
    assert code == EXIT_TRUE


def test_exists_rejects_query_constants(capsys):
    code, _, err = run(capsys, "exists", "pqi", "--file", MEDICAL)
    assert code == EXIT_USAGE
    assert "error" in err


def test_reduce_writes_parseable_problem_file(tmp_path, capsys):
    out_path = tmp_path / "out.dqi"
    code, _, _ = run(capsys, "reduce", "pqi2nqi", "--file", MEDICAL,
                     "--instance", "Vsmith", "--out", str(out_path))
    assert code == EXIT_TRUE
    from dqi.textio import parse

    pf = parse(out_path.read_text())
    assert "Q" in pf.queries and "V" in pf.instances


# a lowercase query constant, which the reductions' output must keep quoted
LOWERCASE_CONSTANT = """dqi-1
schema { visible P/1; hidden A/2; }
constraints { P(p) -> exists d. A(p, d); }
query Q { exists p. A(p, "jones") }
instance V { P(smith). }
"""


def test_reductions_keep_a_lowercase_query_constant(tmp_path, capsys):
    problem = tmp_path / "in.dqi"
    problem.write_text(LOWERCASE_CONSTANT)
    code, _, _ = run(capsys, "check", "pqi", "--file", str(problem))
    assert code == EXIT_FALSE
    for reduction, check in (("pqi2nqi", "nqi"), ("ucq2cq", "pqi")):
        out = tmp_path / f"{reduction}.dqi"
        code, _, _ = run(capsys, "reduce", reduction, "--file", str(problem), "--out", str(out))
        assert code == EXIT_TRUE
        assert '"jones"' in out.read_text()
        code, _, _ = run(capsys, "check", check, "--file", str(out))
        assert code == EXIT_FALSE, reduction


def test_reduce_to_stdout(capsys):
    code, out, _ = run(capsys, "reduce", "nqi2real", "--file", MEDICAL,
                       "--instance", "Vsmith", "--out", "-")
    assert code == EXIT_TRUE
    assert "dqi-1" in out


def test_emit_gnfo(capsys):
    code, out, _ = run(capsys, "emit", "gnfo", "pqi", "--file", MEDICAL,
                       "--instance", "Vsmith")
    assert code == EXIT_TRUE
    assert "Patient" in out


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, "oracle", "nqi", "--file", MEDICAL,
                       "--instance", "Vsmith", "--max-facts", "3", "--json")
    assert code == EXIT_FALSE
    assert json.loads(out)["verdict"] == "false"


@pytest.mark.parametrize("flag, value", [("--max-facts", "-1"), ("--extra-values", "-1"),
                                         ("--space-ceiling", "nan"), ("--space-ceiling", "0")])
def test_oracle_rejects_a_malformed_bound(capsys, flag, value):
    code, out, err = run(capsys, "oracle", "nqi", "--file", MEDICAL,
                         "--instance", "Vsmith", flag, value)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:")


def test_chase_subcommands(capsys, tmp_path):
    code, out, _ = run(capsys, "chase", "classical", "--file", SEPARATION,
                       "--instance", "V")
    assert code == EXIT_TRUE
    trace = tmp_path / "trace.tsv"
    code, out, _ = run(capsys, "chase", "visible", "--file", SEPARATION,
                       "--instance", "V", "--trace", str(trace))
    assert code == EXIT_TRUE
    assert trace.read_text().splitlines()[0] == "id\tparent\tstatus\tdepth\tstep"
    code, out, _ = run(capsys, "chase", "critical", "--file", CONTROLLABILITY)
    assert code == EXIT_TRUE


def test_gfp_subcommands(capsys):
    code, out, _ = run(capsys, "gfp", "build", "--file", MEDICAL)
    assert code == EXIT_TRUE
    assert ":-" in out
    code, out, _ = run(capsys, "gfp", "eval", "--file", MEDICAL,
                       "--instance", "Vempty")
    assert code == EXIT_FALSE
    assert "goal: false" in out


def test_usage_errors(capsys):
    assert run(capsys, "check", "pqi", "--file", "/nonexistent.dqi")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    # a file with two instances demands an explicit --instance
    code, _, err = run(capsys, "check", "pqi", "--file", MEDICAL)
    assert code == EXIT_USAGE and "instance" in err


@pytest.mark.parametrize("argv", [
    ("reduce", "pqi2nqi", "--file", MEDICAL, "--instance", "Vsmith", "--out"),
    ("emit", "gnfo", "pqi", "--file", MEDICAL, "--instance", "Vsmith", "--out"),
    ("chase", "classical", "--file", SEPARATION, "--trace"),
    ("chase", "visible", "--file", SEPARATION, "--trace"),
    ("chase", "critical", "--file", CONTROLLABILITY, "--trace"),
    ("gfp", "eval", "--file", MEDICAL, "--instance", "Vsmith", "--trace"),
])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "out")
    code, _, err = run(capsys, *argv, path)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_every_readme_cli_example_runs(tmp_path, capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("dqi ")]
    assert len(examples) == 8
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv[1:]]
        code, _, err = run(capsys, *argv)
        assert code in (EXIT_TRUE, EXIT_FALSE, EXIT_UNKNOWN), (argv, err)


def test_an_arity_beyond_the_index_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.dqi"
    path.write_text("dqi-1\n"
                    "schema { visible P/1; hidden H/99999999999999999999; }\n"
                    "constraints { }\n"
                    "query Q { exists x. P(x) }\n"
                    "instance V { P(a). }\n")
    code, _, err = run(capsys, "check", "nqi", "--file", str(path))
    assert code == EXIT_USAGE
    assert "2:32: arity 99999999999999999999 is too large" in err


_FUZZ_TOKEN = re.compile(r"\s+|\w+|\"[^\"]*\"|->|.", re.S)
_FUZZ_BUDGET = ("--budget-nodes", "40", "--budget-facts", "30", "--budget-depth", "8")


def _mutant(rng, text):
    """One to three token edits of a problem file: delete, duplicate, swap
    with the next token, or replace by a token of the same file."""
    toks = _FUZZ_TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks))
        op = rng.randrange(4)
        if op == 0:
            del toks[i]
        elif op == 1:
            toks.insert(i, toks[i])
        elif op == 2 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        else:
            toks[i] = rng.choice(toks)
    return "".join(toks)


def _fuzz_commands(path, instance):
    return (
        ["check", "nqi", "--file", path, "--instance", instance, *_FUZZ_BUDGET],
        ["check", "pqi", "--file", path, "--instance", instance, *_FUZZ_BUDGET],
        ["exists", "pqi", "--file", path, *_FUZZ_BUDGET],
        ["gfp", "build", "--file", path],
        ["emit", "gnfo", "pqi", "--file", path, "--instance", instance],
    )


def _fuzz_cases(count=300, seed=7):
    """(mutated text, instance name, command index) triples: each mutant of
    a fixture is run under one of the `_fuzz_commands`."""
    fixtures = [(FIXTURES / name).read_text() for name in
                ("medical.dqi", "separation.dqi", "controllability.dqi")]
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(fixtures)
        instance = rng.choice(re.findall(r"instance (\w+)", text))
        yield _mutant(rng, text), instance, rng.randrange(5)


def test_mutated_problem_files_never_escape_the_exit_codes(tmp_path, capsys):
    path = str(tmp_path / "mutant.dqi")
    codes = set()
    for text, instance, cmd in _fuzz_cases():
        pathlib.Path(path).write_text(text)
        argv = _fuzz_commands(path, instance)[cmd]
        code = main(argv)
        capsys.readouterr()
        assert code in (EXIT_TRUE, EXIT_FALSE, EXIT_UNKNOWN, EXIT_USAGE), (argv, text)
        codes.add(code)
    assert EXIT_USAGE in codes and EXIT_TRUE in codes
