"""The pair runner ``tools/benchpairs.py``, run against a stub benchmark.

A throwaway git repository holds two commits whose ``perfbench/run.py`` is
a stub: it prints two lines and a final JSON line like the real runner, and
writes a ``result.json`` with a digest, six cases and two passes of case
and reference times.  The change commit's stub reports a lower ``pass_ref``
and cheaper cases, so the summary must find it better in every pair and
list the five cases that moved, with the verdict ``gain``; run the other
way round, the verdict is ``worse``.  A failed run, or digests that differ
between the sides, make the runner exit with 1.
"""

import importlib.util
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
# one pass as given and one three times as slow; the last case costs nothing
case_s = [value] * 5 + [0.0]
ref_s = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
samples = [{"case_s": [f * c for c in case_s], "ref_s": ref_s} for f in (1, 3)]
(run_dir / "result.json").write_text(json.dumps({
    "cases": [{"id": i, "op": "stub", "n": i, "why": "w"} for i in range(6)],
    "summary": {"digests": ["d-" + args.seed], "samples": samples}}))
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
            assert set(run) == {"pair", "side", "ran_first", "printed", "result", "digests", "case_ref",
                                "returncode"}
            assert run["returncode"] == 0
            assert run["digests"] == ["d-%d" % group["seed"]]
            assert run["printed"][0] == "workload %s  seed %d" % (group["workload"], group["seed"])
            want = 2.0 if run["side"] == "parent" else 1.5
            assert run["result"]["metrics"]["pass_ref"]["value"] == want
            # the median of the two passes over each case's windowed reference:
            # the median of ref_s[i-2 .. i+2], 1, 1.5, then 2
            assert run["case_ref"] == pytest.approx({
                "#0 op=stub n=0": 2 * want, "#1 op=stub n=1": 2 * want / 1.5, "#2 op=stub n=2": want,
                "#3 op=stub n=3": want, "#4 op=stub n=4": want, "#5 op=stub n=5": 0.0})
    summary = done.stdout.splitlines()
    assert summary[0].startswith("BENCH_t.json: parent %s, change %s" % (parent[:7], change[:7]))
    assert summary.count("  digests equal") == 4
    assert "verify seed 59: 4 runs, 0 failed or incorrect" in summary
    pass_ref = [line.split() for line in summary if line.split()[0] == "pass_ref"]
    assert len(pass_ref) == 4
    for words in pass_ref:
        assert words[1:6] == ["parent", "2", "change", "1.5", "(-25.0%)"]
        assert words[7:9] == ["IQR", "0"]
        assert words[-7:] == ["better", "in", "2/2", "shift", "beyond", "IQR", "gain"]
    # equal values are not a win, and no shift beyond an IQR of 0
    assert all(line.endswith("change better in 0/2  unresolved")
               for line in summary if line.split()[0] == "peak_rss_mib")
    # the five cases that moved most, largest first; #5 did not move
    headers = [i for i, line in enumerate(summary) if line == "  cases that moved most, median ref:"]
    assert len(headers) == 4
    for i in headers:
        moved = [line.split() for line in summary[i + 1:i + 6]]
        assert [words[0] for words in moved] == ["#0", "#1", "#2", "#3", "#4"]
        assert moved[0][3:] == ["parent", "4", "change", "3", "(-1)"]
        assert summary[i + 6].startswith("  digests")


def test_a_failing_run_is_recorded_and_counted(stub_repo):
    repo, parent, change = stub_repo
    (repo / "perfbench" / "run.py").write_text("import sys; print('broken'); sys.exit(3)")
    broken = commit(repo, 1.0)
    done = subprocess.run(
        [sys.executable, str(TOOL), parent, broken, "--label", "f", "--workloads", "catalog",
         "--pairs", "1", "--seconds", "0.5"],
        cwd=repo, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stderr
    runs = json.loads((repo / "BENCH_f.json").read_text())["groups"][0]["runs"]
    assert [(r["side"], r["returncode"], r["result"]) for r in runs][1] == ("change", 3, None)
    assert runs[1]["printed"] == ["broken"]
    assert runs[1]["case_ref"] is None
    assert "catalog seed 7: 2 runs, 1 failed or incorrect" in done.stdout.splitlines()


def test_differing_digests_fail_the_comparison(stub_repo):
    repo, parent, change = stub_repo
    (repo / "perfbench" / "run.py").write_text(STUB.replace('"d-" + args.seed', '"e-" + args.seed'))
    other = commit(repo, 1.5)
    done = subprocess.run(
        [sys.executable, str(TOOL), parent, other, "--label", "d", "--workloads", "verify",
         "--pairs", "1", "--seconds", "0.5"],
        cwd=repo, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stderr
    summary = done.stdout.splitlines()
    assert "verify seed 7: 2 runs, 0 failed or incorrect" in summary
    assert "  digests DIFFER: {'parent': ['d-7'], 'change': ['e-7']}" in summary


def test_a_slower_change_is_reported_worse(stub_repo):
    repo, parent, change = stub_repo
    done = subprocess.run(
        [sys.executable, str(TOOL), change, parent, "--label", "w", "--workloads", "verify",
         "--pairs", "1", "--seconds", "0.5"],
        cwd=repo, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    verdicts = {line.split()[0]: line.split()[-1] for line in done.stdout.splitlines() if "change better in" in line}
    assert verdicts == {"pass_ref": "worse", "peak_rss_mib": "unresolved"}


def load_tool():
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "wins, pairs, shift, iqr, lower, want",
    [
        (9, 10, -0.5, 0.1, True, "gain"),  # one pair lost or tied still gains
        (8, 10, -0.5, 0.1, True, "unresolved"),  # two ties count for neither side
        (10, 10, -0.1, 0.1, True, "unresolved"),  # a shift inside the IQR
        (10, 10, 0.5, 0.1, True, "worse"),
        (0, 10, 0.5, 0.1, True, "worse"),
        (10, 10, 0.5, 0.1, False, "gain"),  # a metric where higher is better
        (9, 10, -0.5, 0.1, False, "worse"),
        (0, 0, -0.5, 0.1, True, "unresolved"),  # no pair to win
    ],
)
def test_the_verdict_needs_nine_pairs_in_ten_and_a_shift_beyond_the_iqr(wins, pairs, shift, iqr, lower, want):
    assert load_tool().verdict(wins, pairs, shift, iqr, lower) == want
