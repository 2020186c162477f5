import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


def test_every_digest_suite_matches_its_pin():
    spec = importlib.util.spec_from_file_location("digest_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    got = {suite: script.digest(suite)[0] for suite in script.SUITES}
    assert got == script.PINNED
