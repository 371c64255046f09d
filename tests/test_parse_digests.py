import importlib.util
import json


def test_parse_digests_equal_the_committed_ones(scripts_dir):
    # Identity gate for the parser: every input of the corpus in
    # scripts/parse_digests.py (a program of every construct, the bundled
    # programs, the benchmark sources at seeds 1 and 7 and 5,000 seeded
    # mutations of them) still gives the printed program, the node spans and
    # the diagnostics it gave when tests/data/parse_digests.json was written.
    # A change that means to alter them regenerates that file:
    #   python3 scripts/parse_digests.py --out tests/data/parse_digests.json
    spec = importlib.util.spec_from_file_location(
        "parse_digests", scripts_dir / "parse_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = json.loads(
        (scripts_dir.parent / "tests" / "data" / "parse_digests.json").read_text())
    now = module.digests(5000)
    assert list(now) == list(committed)
    first = next((name for name in now if now[name] != committed[name]), None)
    assert first is None, f"first input that parses differently: {first}"
