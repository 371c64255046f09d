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
