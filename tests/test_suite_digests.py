import json
import subprocess
import sys


def _digests(scripts_dir, *args):
    return subprocess.run([sys.executable, str(scripts_dir / "suite_digests.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_suite_digests_of_round_chain_repeat_and_compare(scripts_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        done = _digests(scripts_dir, "--seeds", "1", "--workloads", "round-chain",
                        "--out", str(out))
        assert done.returncode == 0, done.stderr
    runs = json.loads(a.read_text())
    assert len(runs) == 10  # round-chain-2..6, incremental on and off
    assert all(r["complete"] and r["stats"]["tests"] == 2 for r in runs.values())
    done = _digests(scripts_dir, "--compare", str(a), str(b))
    assert (done.returncode, done.stdout) == (0, "0 of 10 runs differ\n")

    name = "round-chain/seed1/round-chain-4/whole"
    runs[name]["depth_trace"].append(1)
    del runs["round-chain/seed1/round-chain-2/incremental"]
    b.write_text(json.dumps(runs))
    done = _digests(scripts_dir, "--compare", str(a), str(b))
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "differs: round-chain/seed1/round-chain-2/incremental",
        f"differs: {name}", "2 of 10 runs differ"]


def test_seed1_digests_equal_the_committed_ones(scripts_dir, tmp_path):
    # Identity gate: every run of brackets, round-chain, regulation-mix,
    # smtlib-pipe (seed 1) and the bundled programs emits the same suite,
    # stats, `complete` and `depth_trace` as when
    # tests/data/suite_digests_seed1.json was written.  A change that means
    # to alter them regenerates that file:
    #   python3 scripts/suite_digests.py --seeds 1 --compact \
    #     --workloads brackets,round-chain,regulation-mix,smtlib-pipe,bundled \
    #     --out tests/data/suite_digests_seed1.json
    committed = scripts_dir.parent / "tests" / "data" / "suite_digests_seed1.json"
    out = tmp_path / "now.json"
    done = _digests(scripts_dir, "--seeds", "1", "--compact", "--workloads",
                    "brackets,round-chain,regulation-mix,smtlib-pipe,bundled",
                    "--out", str(out))
    assert done.returncode == 0, done.stderr
    done = _digests(scripts_dir, "--compare", str(committed), str(out))
    assert done.returncode == 0, done.stdout  # names each run that differs
    assert done.stdout == "0 of 1364 runs differ\n"
