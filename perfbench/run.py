"""The completeforms benchmark.

    python3 perfbench/run.py --workload {catalog,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  Every workload runs in fresh
interpreters started one at a time from this process, until S seconds have
passed.  Each output is checked against an answer that does not come from
the program (see oracles.py).  The last line of stdout is one JSON object:
with ``--trace 0`` its metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run.  Lines before it show every metric by
name with its unit.  Run artifacts (worker results, spans and a
``result.json`` with the seed, the case list and the environment) go to
``.perfbench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import cases
import oracles

BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = [("setup_s", "s"), ("pass_ref", "ref"), ("peak_rss_mib", "MiB")]

# (name, unit, better).  BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("cones.gkz_decomposition.calls", "count", "lower"),
    ("cones.gkz_decomposition.self_s", "s", "lower"),
    ("cones.gkz_decomposition.hyperplanes", "count", "lower"),
    ("cones.gkz_decomposition.chambers", "count", "lower"),
    ("cones.gkz_decomposition.distinct_inputs", "count", "lower"),
    ("cones.cone_from_rays.calls", "count", "lower"),
    ("cones.cone_from_rays.self_s", "s", "lower"),
    ("cones.cone_from_rays.calls_per_chamber", "count", "lower"),
    ("cones.primitive_vector.calls", "count", "lower"),
    ("cones.RationalCone.contains.calls", "count", "lower"),
    ("cones.RationalCone.contains.self_s", "s", "lower"),
    ("cones.errors", "count", "lower"),
    ("determinantal.rank_census.calls", "count", "lower"),
    ("determinantal.rank_census.self_s", "s", "lower"),
    ("determinantal.rank_census.matrices", "count", "lower"),
    ("determinantal.rank_census.matrices_per_s", "1/s", "higher"),
    ("determinantal.rank_census_reference.calls", "count", "lower"),
    ("determinantal.rank_census_reference.self_s", "s", "lower"),
    ("determinantal.verify_rank_minor_lemma.self_s", "s", "lower"),
    ("determinantal.verify_rank_minor_lemma.matrices", "count", "lower"),
    ("determinantal.verify_rank_minor_lemma.candidates", "count", "lower"),
    ("determinantal.verify_rank_minor_lemma.us_per_matrix", "us", "lower"),
    ("determinantal.verify_component_split.self_s", "s", "lower"),
    ("determinantal.verify_component_split.matrices", "count", "lower"),
    ("determinantal.verify_component_split.us_per_matrix", "us", "lower"),
    ("determinantal.import_s", "s", "lower"),
    ("determinantal.errors", "count", "lower"),
    ("polynomials.minor_det.calls", "count", "lower"),
    ("polynomials.minor_det.self_s", "s", "lower"),
    ("polynomials.minor_det.terms", "count", "lower"),
    ("polynomials.shift_and_leading_form.calls", "count", "lower"),
    ("polynomials.shift_and_leading_form.self_s", "s", "lower"),
    ("polynomials.verify_tangent_cone.self_s", "s", "lower"),
    ("polynomials.verify_tangent_cone.minors_checked", "count", "lower"),
    ("polynomials.errors", "count", "lower"),
    ("lattice.smith_normal_form.calls", "count", "lower"),
    ("lattice.smith_normal_form.self_s", "s", "lower"),
    ("lattice.cokernel.calls", "count", "lower"),
    ("lattice.solve_rational.calls", "count", "lower"),
    ("lattice.solve_rational.self_s", "s", "lower"),
    ("lattice.errors", "count", "lower"),
    ("spaces.build_model.calls", "count", "lower"),
    ("spaces.build_model.self_s", "s", "lower"),
    ("spaces.build_model.calls_per_query", "count", "lower"),
    ("spaces.mori_chambers.self_s", "s", "lower"),
    ("spaces.classify_positivity.self_s", "s", "lower"),
    ("spaces.orbit_picard_group.self_s", "s", "lower"),
    ("spaces.kontsevich_dictionary.self_s", "s", "lower"),
    ("spaces.errors", "count", "lower"),
    ("rendering.chamber_svg.calls", "count", "lower"),
    ("rendering.chamber_svg.self_s", "s", "lower"),
    ("rendering.markdown_report.calls", "count", "lower"),
    ("rendering.markdown_report.self_s", "s", "lower"),
    ("rendering.errors", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.errors", "count", "lower"),
    ("python.startup_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

RUN_BUDGET_S = 170  # every run ends well inside 180 s
MIN_PASSES = 2
STARTUP_PROBES = 5
PROBE_EVERY = 8  # cli invocations between two set-up probes
ENVELOPE = {"space", "invariants", "cones", "chambers", "positivity", "automorphisms", "verifications"}


class Setup(Exception):
    """The checkout cannot run the benchmark."""


# ------------------------------------------------------------------ children


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def spawn(self, argv, cwd=None):
        """Run argv; returns (spawn time, wall s, exit code, peak RSS MiB, stdout, stderr)."""
        self.count += 1
        out_path = self.run_dir / ("child%d.out" % self.count)
        err_path = self.run_dir / ("child%d.err" % self.count)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Setup("the run budget of %d s is used up" % RUN_BUDGET_S)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=cwd or self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            lock = threading.Lock()
            state = {"exited": False, "killed": False}

            def kill():
                with lock:
                    if not state["exited"]:
                        state["killed"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # wait without reaping, so that kill() can never hit a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
                raise
            finally:
                with lock:
                    state["exited"] = True
                timer.cancel()
                if proc.returncode is None:
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.monotonic() - started
        killed = state["killed"]
        if killed:
            raise Setup("a child overran the run budget: %s" % " ".join(map(str, argv)))
        stdout = out_path.read_bytes()
        stderr = err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return started, wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr

    def python(self, *args, cwd=None):
        return self.spawn([sys.executable, *args], cwd=cwd)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def ready_probe(runner: Runner, imports: str) -> float:
    """Seconds from spawning an interpreter to the end of its imports."""
    code = "import time%s; print(time.monotonic())" % imports
    started, _, status, _, out, err = runner.python("-c", code)
    if status != 0:
        raise Setup("python -c %r failed: %s" % (code, err.decode(errors="replace")[-400:]))
    return float(out) - started


def warm_up(runner: Runner) -> None:
    """Compile the program and the benchmark to bytecode once, unmeasured.

    An installed package carries its bytecode, so a user does not compile
    the program on every call.  Without this, a checkout whose environment
    sets PYTHONDONTWRITEBYTECODE compiles every module in every measured
    interpreter (the first compiling cli invocation peaked 2.7 MiB higher),
    and one that does not compiles in the first of them only.  compileall
    writes the bytecode whatever that variable says; the interpreters only
    read it.
    """
    _, _, status, _, out, err = runner.python(
        "-m", "compileall", "-q", str(runner.root / "src"), str(BENCH_DIR))
    if status != 0:
        raise Setup("compiling the program failed: %s" % (out + err).decode(errors="replace")[-2000:])


def startup_ref(runner: Runner) -> float:
    """Wall seconds to spawn and reap a bare interpreter: the reference
    that a cli invocation's time is divided by (see calibrate.py)."""
    _, wall, status, _, _, err = runner.python("-c", "pass")
    if status != 0:
        raise Setup("python -c pass failed: %s" % err.decode(errors="replace")[-400:])
    return wall


def startup_floor(runner: Runner) -> float:
    return statistics.median(ready_probe(runner, "") for _ in range(STARTUP_PROBES))


# ------------------------------------------------------------------ library workloads


def library_pass(runner: Runner, workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh worker; its set-up time is one set-up sample."""
    runner.count += 1
    out = runner.run_dir / ("worker%d.json" % runner.count)
    started, wall, status, _, _, err = runner.python(
        str(BENCH_DIR / "worker.py"), workload, str(seed), "1" if traced else "0", str(out)
    )
    if status != 0 or not out.is_file():
        raise Setup("the %s worker failed (exit %d): %s" % (workload, status, err.decode(errors="replace")[-2000:]))
    result = json.loads(out.read_text())
    result.update(setups=[result["ready"] - started], wall_s=wall, bad=len(result.get("bad_cases", [])))
    if traced:
        result["traces"] = [result["trace"]]
    return result


def cli_pass(runner: Runner, case_list, pass_dir: Path, traced: bool, goldens: Path) -> dict:
    pass_dir.mkdir()
    records, latencies, refs, rss, traces, imports, setups = [], [], [], [], [], [], []
    wrong, failures, bad = [], [], 0
    for case in case_list:
        if not traced and case["id"] % PROBE_EVERY == 0:
            setups.append(ready_probe(runner, ", completeforms.cli"))
        if traced:
            stats = pass_dir / ("trace%d.json" % case["id"])
            argv = [str(BENCH_DIR / "tracecli.py"), str(stats), *case["argv"]]
        else:
            argv = ["-m", "completeforms.cli", *case["argv"]]
        refs.append(startup_ref(runner))
        _, wall, status, peak, stdout, stderr = runner.python(*argv, cwd=pass_dir)
        latencies.append(wall)
        rss.append(peak)
        svg = None
        if "svg" in case:
            target = pass_dir / case["svg"]["path"]
            svg = target.read_bytes() if target.is_file() else None
        try:
            w, f = check_cli(case, status, stdout, stderr, svg, goldens)
        except (LookupError, TypeError) as exc:  # a malformed payload is a wrong answer
            w, f = ["checking the output raised %s: %s" % (type(exc).__name__, exc)], []
        wrong += ["case %d: %s" % (case["id"], x) for x in w]
        failures += ["case %d: %s" % (case["id"], x) for x in f]
        bad += bool(w or f)
        records.append([status, stdout.hex(), svg.hex() if svg else None, b"Traceback" in stderr])
        if traced:
            data = json.loads(stats.read_text())
            traces.append(data["trace"])
            imports.append(data["imports"])
    return {
        "case_s": latencies,
        "ref_s": refs,
        "wall_s": sum(latencies),
        "rss_mib": max(rss),
        "cases": len(case_list),
        "bad": bad,
        "wrong": wrong,
        "failed": failures,
        "digest": hashlib.sha256(json.dumps(records).encode()).hexdigest(),
        "setups": setups,
        "traces": traces,
        "imports": {key: statistics.median(i[key] for i in imports) for key in imports[0]} if traced else {},
    }


def measure(run_pass, runner: Runner, seconds: float, trace: bool):
    """Untraced passes, alternating with traced ones when tracing, until
    `seconds` have passed (and at least MIN_PASSES untraced passes ran)."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            (traced if is_traced else plain).append(run_pass(is_traced))
        done = len(plain) >= (1 if trace else MIN_PASSES) and time.monotonic() - start >= seconds
        if done or runner.time_left() < 2 * sum(r["wall_s"] for r in plain[-1:] + traced[-1:]):
            return plain, traced


def summarize(runner: Runner, plain, traced, cli: bool) -> dict:
    results = plain + traced
    summary = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(r["cases"] for r in results),
        "failed": sum(r["bad"] for r in results),
        "wrong": [w for r in results for w in r["wrong"]],
        "failures": [f for r in results for f in r["failed"]],
        "digests": sorted({r["digest"] for r in results}),
        "setup_s": statistics.median(s for r in plain for s in r["setups"]),
        "pass_s": case_median_sum([r["case_s"] for r in plain]),
        "pass_ref": case_median_sum([ref_costs(r["case_s"], r["ref_s"]) for r in plain]),
        "ref_s": statistics.median(f for r in plain for f in r["ref_s"]),
        "peak_rss_mib": max(r["rss_mib"] for r in plain),
        "samples": [{"case_s": r["case_s"], "ref_s": r["ref_s"]} for r in plain],
    }
    if traced:
        layers = combine_layers([layer_metrics(r["traces"], r["imports"], cli) for r in traced], summary)
        layers["trace.pass_s"] = case_median_sum([r["case_s"] for r in traced])
        # in reference units, so that a slow spell during either kind of pass
        # does not pass for overhead; then back to seconds at the run's speed
        traced_ref = case_median_sum([ref_costs(r["case_s"], r["ref_s"]) for r in traced])
        layers["trace.overhead_s"] = (traced_ref - summary["pass_ref"]) * summary["ref_s"]
        layers["python.startup_s"] = startup_floor(runner)
        summary["layers"] = layers
    return summary


def run_library(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = measure(lambda t: library_pass(runner, workload, seed, t), runner, seconds, trace)
    summary = summarize(runner, plain, traced, cli=False)
    if workload == "verify":
        summary["matrices_per_s"] = statistics.median(r["matrices"] / r["matrix_s"] for r in plain)
    return summary


def run_cli(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    goldens = runner.root / "tests" / "goldens"
    for stem, _ in cases.GOLDEN_COMMANDS:
        for suffix in (".json", ".svg"):
            if not (goldens / (stem + suffix)).is_file():
                raise Setup("golden %s%s is missing under tests/goldens" % (stem, suffix))
    case_list = cases.cli_cases(seed)
    numbers = itertools.count()

    def run_pass(traced):
        return cli_pass(runner, case_list, runner.run_dir / ("pass%d" % next(numbers)), traced, goldens)

    plain, traced = measure(run_pass, runner, seconds, trace)
    summary = summarize(runner, plain, traced, cli=True)
    summary["cli_p50_s"] = statistics.median(t for r in plain for t in r["case_s"])
    return summary


def check_cli(case, status, stdout, stderr, svg, goldens: Path):
    """(wrong answers, failures) for one CLI invocation."""
    expect = case["expect"]
    if b"Traceback" in stderr:
        return [], ["exit %d with a traceback" % status]
    if expect != "ok":
        if status != expect:
            return [], ["exit %d, expected %d" % (status, expect)]
        if stdout or not stderr.strip():
            return [], ["error path must print a message on stderr only"]
        return [], []
    if status != 0:
        return [], ["exit %d: %s" % (status, stderr.decode(errors="replace")[-300:])]
    wrong = []
    argv = case["argv"]
    if "golden" in case and stdout != (goldens / (case["golden"] + ".json")).read_bytes():
        wrong.append("stdout differs from golden %s.json" % case["golden"])
    if "svg" in case and svg != (goldens / (case["svg"]["golden"] + ".svg")).read_bytes():
        wrong.append("svg differs from golden %s.svg" % case["svg"]["golden"])
    key = space_key(argv)
    text = stdout.decode(errors="replace")
    if "markdown" in argv:
        if key and not text.startswith("# %s\n" % oracles.space_title(*key)):
            wrong.append("markdown title %r" % text.split("\n", 1)[0])
        for label, value in markdown_facts(key):
            if "| %s | %s |" % (label, value) not in text:
                wrong.append("markdown lacks '| %s | %s |'" % (label, value))
        return wrong, []
    try:
        payload = json.loads(text)
    except ValueError:
        return wrong + ["stdout is not JSON"], []
    if set(payload) != ENVELOPE:
        return wrong + ["envelope keys %s" % sorted(payload)], []
    if argv[0] == "verify" and payload["verifications"][0]["passed"] is not True:
        wrong.append("verification did not pass")
    if key:
        wrong += space_payload_problems(key, argv[0], payload)
    return wrong, []


# CLI space name -> its parameters in flag order
SPACE_PARAMS = dict(cases.CLI_SPACE.values())


def space_key(argv):
    if "--space" not in argv:
        return None
    name = argv[argv.index("--space") + 1]
    return name, tuple(int(argv[argv.index("--" + k) + 1]) for k in SPACE_PARAMS[name])


def markdown_facts(key):
    if key is None:
        return []
    facts = []
    if key in oracles.PICARD_RANKS:
        facts.append(("class rank", oracles.PICARD_RANKS[key]))
    if key in oracles.ORBIT_GROUPS:
        facts.append(("orbit Picard group", oracles.orbit_text(*oracles.ORBIT_GROUPS[key])))
    if key in oracles.POSITIVITY:
        facts.append(("positivity", oracles.POSITIVITY[key]))
    return facts


def space_payload_problems(key, command, payload):
    problems = []
    inv = payload["invariants"]
    if payload["space"]["name"] != oracles.space_title(*key):
        problems.append("space name %s" % payload["space"]["name"])
    if key in oracles.PICARD_RANKS and inv["picard_rank"] != oracles.PICARD_RANKS[key]:
        problems.append("picard_rank %s" % inv["picard_rank"])
    if key in oracles.ORBIT_GROUPS and inv["orbit_picard"] != oracles.orbit_text(*oracles.ORBIT_GROUPS[key]):
        problems.append("orbit_picard %s" % inv["orbit_picard"])
    if key in oracles.POSITIVITY and payload["positivity"] != oracles.POSITIVITY[key]:
        problems.append("positivity %s" % payload["positivity"])
    if command == "chambers":
        chambers = payload["chambers"]
        if key in oracles.CHAMBER_COUNTS and chambers["count"] != oracles.CHAMBER_COUNTS[key]:
            problems.append("chamber count %s" % chambers["count"])
        if sum(c["is_nef"] for c in chambers["chambers"]) != 1:
            problems.append("the nef cone is not exactly one chamber")
    return problems


# ------------------------------------------------------------------ per-layer metrics


def case_median_sum(per_pass) -> float:
    """The sum over cases of each case's median over the passes, so that a
    slow spell of the machine during one case of one pass moves it less
    than it moves the median of whole passes."""
    return sum(statistics.median(times) for times in zip(*per_pass))


def ref_costs(case_s, ref_s) -> list:
    """Each case's time in reference units (calibrate.py): over the median
    of the reference times taken before it and before the two cases on
    either side, so that one jittery reference moves one case's cost less,
    while a slow spell of the machine, which lasts many cases, still
    divides out."""
    return [c / statistics.median(ref_s[max(0, i - 2):i + 3]) for i, c in enumerate(case_s)]


def layer_metrics(traces, imports, cli: bool) -> dict:
    """Per-layer metrics of one traced pass, merged over its processes."""
    functions, counts, module_errors = {}, {}, {}
    top_level = gkz_inputs = 0
    for t in traces:
        for name, stats in t["functions"].items():
            entry = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            for key in entry:
                entry[key] += stats[key]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in t["module_errors"].items():
            module_errors[name] = module_errors.get(name, 0) + value
        top_level += t["top_level"]
        gkz_inputs += t["gkz_inputs"]

    def stat(function, key):
        return functions.get(function, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        function, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "errors") and function in functions:
            out[name] = stat(function, key)
        elif name in counts:
            out[name] = counts[name]
        else:
            out[name] = 0
    out["cones.gkz_decomposition.distinct_inputs"] = gkz_inputs
    out["cones.cone_from_rays.calls_per_chamber"] = ratio(
        counts.get("cones.cone_from_rays.calls_in_gkz", 0), counts.get("cones.gkz_decomposition.chambers", 0))
    out["determinantal.rank_census.matrices_per_s"] = ratio(
        counts.get("determinantal.rank_census.matrices", 0), stat("determinantal.rank_census", "self_s"))
    for routine in ("verify_rank_minor_lemma", "verify_component_split"):
        function = "determinantal." + routine
        out[function + ".us_per_matrix"] = ratio(
            stat(function, "self_s"), counts.get(function + ".matrices", 0), 1e6)
    out["spaces.build_model.calls_per_query"] = ratio(stat("spaces.build_model", "calls"), top_level)
    for layer, value in module_errors.items():
        out[layer + ".errors"] = value
    out["determinantal.import_s"] = imports.get("determinantal.import_s", 0.0)
    out["cli.import_s"] = imports["import_s"] if cli else 0.0
    out["trace.pass_s"] = 0.0
    out["python.startup_s"] = 0.0
    out["trace.overhead_s"] = 0.0
    return out


def is_time(name: str) -> bool:
    return name.endswith(("_s", "per_s", "us_per_matrix"))


def combine_layers(per_pass, summary) -> dict:
    """Medians of the times over the traced passes; counts must repeat."""
    combined = {}
    for name, _, _ in PER_LAYER:
        values = [p[name] for p in per_pass]
        if is_time(name):
            combined[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                summary["wrong"].append("work count %s differs between traced passes: %s" % (name, values))
            combined[name] = values[0]
    return combined


# ------------------------------------------------------------------ main


def environment(root: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    revision = None
    if (root / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        revision = probe.stdout.strip() or None
    return {
        "python": sys.version,
        "executable": sys.executable,
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "completeforms" / "__init__.py").is_file():
        print("perfbench: src/completeforms is missing; run from the root of a checkout", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir)
    trace = bool(args.trace)
    try:
        warm_up(runner)
        if args.workload == "cli":
            summary = run_cli(runner, args.seed, args.seconds, trace)
        else:
            summary = run_library(runner, args.workload, args.seed, args.seconds, trace)
    except Setup as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    if len(summary["digests"]) != 1:
        summary["wrong"].append("outputs differ between passes of one seed (traced or not)")
    correct = not summary["wrong"]
    failed_frac = summary["failed"] / summary["attempted"]
    if trace:
        metrics = {name: {"value": summary["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": cases.WORKLOADS[args.workload](args.seed),
        "environment": environment(root),
        "summary": {k: v for k, v in summary.items() if k != "layers"},
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=1))

    print("workload %s  seed %d  passes %d  traced passes %d  (%s)" % (
        args.workload, args.seed, summary["passes"], summary["traced_passes"], run_dir / "result.json"))
    shown = [(name, summary.get(name), unit) for name, unit in END_TO_END]
    shown.append(("pass_s", summary["pass_s"], "s"))
    shown.append(("ref_s", summary["ref_s"], "s"))
    shown.append(("cli_p50_s", summary.get("cli_p50_s"), "s"))
    shown.append(("matrices_per_s", summary.get("matrices_per_s"), "1/s"))
    for name, value, unit in shown:
        print("  %-16s %s %s" % (name, "n/a" if value is None else "%.6g" % value, unit))
    print("  %-16s %.6g (%d of %d cases)" % ("failed_frac", failed_frac, summary["failed"], summary["attempted"]))
    if trace:
        for name, unit, _ in PER_LAYER:
            print("  %-52s %.6g %s" % (name, summary["layers"][name], unit))
    for line in (summary["wrong"] + summary["failures"])[:20]:
        print("  problem: %s" % line)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
