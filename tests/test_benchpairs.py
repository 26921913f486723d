"""The pair runner ``tools/benchpairs.py``, run against a stub benchmark.

A throwaway git repository holds two commits whose ``perfbench/run.py`` is
a stub: it prints two lines and a final JSON line like the real runner, and
writes a ``result.json`` with a digest.  The change commit's stub reports a
lower ``pass_ref``, so the summary must find it better in every pair.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"

STUB = '''
import argparse, json, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
value = float(pathlib.Path("PASS_REF").read_text())
run_dir = pathlib.Path(".perfbench_run", args.workload)
run_dir.mkdir(parents=True, exist_ok=True)
(run_dir / "result.json").write_text(json.dumps({"summary": {"digests": ["d-" + args.seed]}}))
print("workload %s  seed %s" % (args.workload, args.seed))
print("  pass_ref %s ref" % value)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "pass_ref": {"value": value, "unit": "ref"}, "peak_rss_mib": {"value": 30.0, "unit": "MiB"}}}))
'''


def commit(repo, pass_ref):
    (repo / "PASS_REF").write_text(str(pass_ref))
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", str(pass_ref)],
                   cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.fixture
def stub_repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "pkg" / "__init__.py").write_text("")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pass_ref", "better": "lower"}, {"name": "peak_rss_mib", "better": "lower"}]}))
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    parent = commit(repo, 2.0)
    (repo / "UNCOMMITTED").write_text("")
    return repo, parent, commit(repo, 1.5)


def test_the_pair_runner_alternates_sides_and_records_every_run(stub_repo):
    repo, parent, change = stub_repo
    (repo / "PASS_REF").write_text("0.1")  # uncommitted: no run may see it
    done = subprocess.run(
        [sys.executable, str(TOOL), parent, change[:10], "--label", "t", "--workloads", "verify", "cli",
         "--seeds", "7", "59", "--pairs", "2", "--seconds", "0.5"],
        cwd=repo, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((repo / "BENCH_t.json").read_text())
    assert set(record) == {"what", "parent", "change", "note", "python", "numpy", "nproc", "groups"}
    assert record["parent"]["commit"] == parent
    assert record["change"]["commit"] == change
    assert record["parent"]["src_tree"] == record["change"]["src_tree"]
    assert [(g["workload"], g["seed"], g["trace"], g["seconds"]) for g in record["groups"]] == [
        ("verify", 7, 0, 0.5), ("verify", 59, 0, 0.5), ("cli", 7, 0, 0.5), ("cli", 59, 0, 0.5)]
    for group in record["groups"]:
        runs = group["runs"]
        assert [(r["pair"], r["side"], r["ran_first"]) for r in runs] == [
            (0, "parent", True), (0, "change", False), (1, "change", True), (1, "parent", False)]
        for run in runs:
            assert set(run) == {"pair", "side", "ran_first", "printed", "result", "digests", "returncode"}
            assert run["returncode"] == 0
            assert run["digests"] == ["d-%d" % group["seed"]]
            assert run["printed"][0] == "workload %s  seed %d" % (group["workload"], group["seed"])
            want = 2.0 if run["side"] == "parent" else 1.5
            assert run["result"]["metrics"]["pass_ref"]["value"] == want
    summary = done.stdout.splitlines()
    assert summary[0].startswith("BENCH_t.json: parent %s, change %s" % (parent[:7], change[:7]))
    assert summary.count("  digests equal") == 4
    assert "verify seed 59: 4 runs, 0 failed or incorrect" in summary
    pass_ref = [line.split() for line in summary if line.split()[0] == "pass_ref"]
    assert len(pass_ref) == 4
    for words in pass_ref:
        assert words[1:6] == ["parent", "2", "change", "1.5", "(-25.0%)"]
        assert words[7:9] == ["IQR", "0"]
        assert words[-6:] == ["better", "in", "2/2", "shift", "beyond", "IQR"]
    # equal values are not a win, and no shift beyond an IQR of 0
    assert all(line.endswith("change better in 0/2") for line in summary if line.split()[0] == "peak_rss_mib")


def test_a_failing_run_is_recorded_and_counted(stub_repo):
    repo, parent, change = stub_repo
    (repo / "perfbench" / "run.py").write_text("import sys; print('broken'); sys.exit(3)")
    broken = commit(repo, 1.0)
    done = subprocess.run(
        [sys.executable, str(TOOL), parent, broken, "--label", "f", "--workloads", "catalog",
         "--pairs", "1", "--seconds", "0.5"],
        cwd=repo, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    runs = json.loads((repo / "BENCH_f.json").read_text())["groups"][0]["runs"]
    assert [(r["side"], r["returncode"], r["result"]) for r in runs][1] == ("change", 3, None)
    assert runs[1]["printed"] == ["broken"]
    assert "catalog seed 7: 2 runs, 1 failed or incorrect" in done.stdout.splitlines()
