"""Run the benchmark in alternating parent/change pairs and record every run.

    python3 tools/benchpairs.py PARENT CHANGE --label LABEL \
        [--workloads verify cli ...] [--seeds 7 59 ...] [--pairs 10] \
        [--seconds 30] [--note TEXT]

Run it from inside the git repository.  Each side is extracted from a
``git archive`` of its commit, so uncommitted files never reach a run.  For
every workload and seed it runs ``perfbench/run.py --trace 0`` of each side
``--pairs`` times, one run at a time, and swaps which side goes first from
one pair to the next.  Every run is written to ``BENCH_<LABEL>.json`` in
the current directory as ``groups`` of ``runs``, each with the lines the
runner printed, its final JSON line, its output digests, each case's median
cost in reference units and its exit code (and the tail of its stderr if it
failed).  Then, for every end-to-end metric, it prints the median of each
side, the parent's interquartile range and in how many pairs the change was
better, and the five cases whose median cost moved most.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


def resolve(commit: str) -> dict:
    """The full hash of ``commit`` and the hash of its ``src`` tree."""
    full = git("rev-parse", "--verify", commit + "^{commit}").decode().strip()
    return {"commit": full, "src_tree": git("rev-parse", full + ":src").decode().strip()}


def extract(commit: str, dest: Path) -> None:
    """The files of ``commit``, from ``git archive``, in the empty directory ``dest``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result, printed = None, lines
    else:
        printed = lines[:-1]
    try:
        report = json.loads((checkout / ".perfbench_run" / workload / "result.json").read_text())
    except (OSError, ValueError):
        report = {}
    digests = report.get("summary", {}).get("digests")
    run = {"printed": printed, "result": result, "digests": digests, "case_ref": case_costs(report),
           "returncode": done.returncode}
    if done.returncode:
        run["stderr"] = done.stderr.splitlines()[-20:]
    return run


def case_label(case: dict) -> str:
    """``#id`` and what the case runs: its argv, else its fields but ``why``,
    a list by its length."""
    words = case.get("argv")
    if words is None:
        words = []
        for key, value in case.items():
            if isinstance(value, dict):
                words += ["%s=%s" % item for item in value.items()]
            elif key not in ("id", "why"):
                words.append("%s=%s" % (key, "[%d]" % len(value) if isinstance(value, list) else value))
    return "#%s %s" % (case.get("id"), " ".join(words))


def case_costs(report: dict):
    """Each case's median cost over the run's passes in reference units, by
    ``case_label``, from the ``cases`` and ``summary.samples`` of a
    ``result.json``; None where they are missing."""
    try:
        cases = report["cases"]
        # the windowed reference of perfbench/run.py's ref_costs
        per_pass = [
            [c / statistics.median(sample["ref_s"][max(0, i - 2):i + 3]) for i, c in enumerate(sample["case_s"])]
            for sample in report["summary"]["samples"]
        ]
        return {case_label(case): statistics.median(costs) for case, costs in zip(cases, zip(*per_pass))}
    except (KeyError, TypeError, ValueError, ZeroDivisionError, statistics.StatisticsError):
        return None


def run_group(checkouts: dict, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    """``pairs`` alternating pairs of one workload and seed: the parent goes first in even pairs."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for place, side in enumerate(order):
            run = run_once(checkouts[side], workload, seed, seconds)
            runs.append({"pair": pair, "side": side, "ran_first": place == 0, **run})
            print("  %s seed %d pair %d %-6s exit %d" % (workload, seed, pair, side, run["returncode"]),
                  file=sys.stderr, flush=True)
    return {"workload": workload, "seed": seed, "trace": 0, "seconds": seconds, "runs": runs}


def directions(checkout: Path) -> dict:
    """``better`` of each end-to-end metric, from the ``BENCHMARK.json`` of ``checkout``."""
    try:
        declared = json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError):
        return {}
    return {metric["name"]: metric.get("better", "lower") for metric in declared}


def summarize(group: dict, better: dict) -> list[str]:
    """One line per end-to-end metric: each side's median, the parent's IQR
    and the pairs in which the change was better."""
    values = {}
    for run in group["runs"]:
        metrics = (run["result"] or {}).get("metrics", {})
        for name, metric in metrics.items():
            values.setdefault(name, {side: {} for side in SIDES})[run["side"]][run["pair"]] = metric["value"]
    failed = sum(run["returncode"] != 0 or not (run["result"] or {}).get("correct") for run in group["runs"])
    lines = ["%s seed %d: %d runs, %d failed or incorrect" % (
        group["workload"], group["seed"], len(group["runs"]), failed)]
    for name, by_side in values.items():
        parent, change = by_side["parent"], by_side["change"]
        lower = better.get(name, "lower") == "lower"
        paired = [p for p in parent if p in change and None not in (parent[p], change[p])]
        wins = sum((change[p] < parent[p]) if lower else (change[p] > parent[p]) for p in paired)
        kept = {side: [v for v in by_side[side].values() if v is not None] for side in SIDES}
        if not kept["parent"] or not kept["change"]:
            lines.append("  %-14s no values" % name)
            continue
        medians = {side: statistics.median(kept[side]) for side in SIDES}
        quartiles = statistics.quantiles(kept["parent"], n=4) if len(kept["parent"]) > 1 else [medians["parent"]] * 3
        iqr = quartiles[2] - quartiles[0]
        shift = medians["change"] - medians["parent"]
        lines.append("  %-14s parent %.6g  change %.6g  (%+.1f%%)  parent IQR %.6g  change better in %d/%d%s" % (
            name, medians["parent"], medians["change"], 100 * shift / medians["parent"] if medians["parent"] else 0.0,
            iqr, wins, len(paired), "  shift beyond IQR" if abs(shift) > iqr else ""))
    lines += moved_cases(group)
    digests = {side: sorted({d for run in group["runs"] if run["side"] == side for d in run["digests"] or ()})
               for side in SIDES}
    lines.append("  digests %s" % ("equal" if digests["parent"] == digests["change"] else "DIFFER: %r" % digests))
    return lines


def moved_cases(group: dict) -> list[str]:
    """The five cases whose median cost over each side's runs moved most."""
    costs = {side: {} for side in SIDES}
    for run in group["runs"]:
        for label, cost in (run["case_ref"] or {}).items():
            costs[run["side"]].setdefault(label, []).append(cost)
    medians = {side: {label: statistics.median(c) for label, c in costs[side].items()} for side in SIDES}
    parent, change = medians["parent"], medians["change"]
    moved = sorted((label for label in parent if label in change),
                   key=lambda label: abs(change[label] - parent[label]), reverse=True)[:5]
    if not moved:
        return []
    return ["  cases that moved most, median ref:"] + [
        "    %-48s parent %.4g  change %.4g  (%+.4g)" % (
            label, parent[label], change[label], change[label] - parent[label])
        for label in moved
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=["catalog", "verify", "cli"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    record = {
        "what": "perfbench/run.py runs of alternating parent/change pairs, each side from a git archive of its commit",
        "parent": resolve(args.parent),
        "change": resolve(args.change),
        "note": args.note,
        "python": sys.version,
        "numpy": None,
        "nproc": os.cpu_count(),
        "groups": [],
    }
    try:
        record["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        pass
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as work:
        checkouts = {side: Path(work, side) for side in SIDES}
        for side, checkout in checkouts.items():
            extract(record[side]["commit"], checkout)
        better = directions(checkouts["change"])
        for workload in args.workloads:
            for seed in args.seeds:
                record["groups"].append(run_group(checkouts, workload, seed, args.pairs, args.seconds))
    out = Path("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("%s: parent %s, change %s, %s, Python %s, %d CPUs" % (
        out, record["parent"]["commit"][:7], record["change"]["commit"][:7], platform.machine(),
        platform.python_version(), record["nproc"] or 0))
    for group in record["groups"]:
        print("\n".join(summarize(group, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
