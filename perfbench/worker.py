"""One pass of the catalog or verify workload, in a fresh interpreter.

    python worker.py WORKLOAD SEED TRACED OUT

The process prints nothing; it writes one JSON document to OUT holding the
monotonic clock reading at which it was ready (imports done and the cases
generated), its peak resident set over the pass, the time of each case and of the reference work timed right
before it (``calibrate.compute_s``), the problems the oracles found, a
digest of every output and, when TRACED is 1, the import times and the
tracer summary.  The spans go to OUT with ``.spans`` appended.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction

import calibrate
import cases
import oracles


def canonical(value):
    """A JSON-ready image of a program output, read from fields only."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        out = {"__type__": type(value).__name__}
        for f in fields(value):
            out[f.name] = canonical(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return repr(value)


# ------------------------------------------------------------------ catalog


def make_kind(spaces, family, p):
    if family == "C":
        return spaces.Collineations(p["n"], p["m"], p["h"])
    if family == "Q":
        return spaces.Quadrics(p["n"], p["h"])
    if family == "secS":
        return spaces.SegreBlowup(p["n"], p["m"], p["h"], p["k"])
    if family in ("secV1", "secV2"):
        return spaces.VeroneseBlowup(p["n"], p["h"], p["k"])
    if family == "mbar-p":
        return spaces.KontsevichP(p["n"])
    if family == "mbar-pxp":
        return spaces.KontsevichPxP(p["n"], p["m"])
    return spaces.KontsevichGr(p["n"])


class Catalog:
    def __init__(self):
        from completeforms import cones, spaces
        from completeforms.errors import CoordinatesUnknown, OutOfScope

        self.cones = cones
        self.spaces = spaces
        self.refusals = (OutOfScope, CoordinatesUnknown)

    def _query(self, out, name, fn, *args):
        try:
            out[name] = ("ok", fn(*args))
        except self.refusals as exc:
            out[name] = ("refused", type(exc).__name__)
        except Exception as exc:  # an unexpected failure is a case outcome
            out[name] = ("error", "%s: %s" % (type(exc).__name__, exc))

    def run(self, case):
        if case["op"] == "gkz":
            out = {}
            self._query(out, "gkz_decomposition", self.cones.gkz_decomposition, case["vectors"])
            return out
        s = self.spaces
        family, p = case["family"], case["params"]
        kind = make_kind(s, family, p)
        out = {}
        q = self._query
        q(out, "build_model", s.build_model, kind)
        q(out, "orbit_picard_group", s.orbit_picard_group, kind)
        q(out, "effective_cone", s.effective_cone, kind)
        q(out, "nef_cone", s.nef_cone, kind)
        q(out, "moving_cone", s.moving_cone, kind)
        q(out, "mori_chambers", s.mori_chambers, kind)
        q(out, "classify_positivity", s.classify_positivity, kind)
        q(out, "kontsevich_dictionary", s.kontsevich_dictionary, kind)
        status, dictionary = out["kontsevich_dictionary"]
        if status == "ok" and family == "mbar-gr":
            q(out, "dictionary_apply", dictionary.apply, (6, -3, -2))
        if status == "ok" and family == "mbar-p":
            def nef_images():
                tower = s.build_model(s.VeroneseBlowup(p["n"], 3, 1))
                mapping = s.build_model(kind)
                images = [dictionary.apply(tower.class_coordinates(lb)) for lb in tower.nef_generators]
                return images, [mapping.class_coordinates("T"), mapping.class_coordinates("H")]
            q(out, "dictionary_nef", nef_images)
        if family in ("mbar-gr", "secV2") and 4 <= p["n"] <= 10:
            q(out, "verify_riemann_hurwitz", s.verify_riemann_hurwitz, p["n"])
        if family in ("mbar-pxp", "C"):
            q(out, "sanity_check_knm", s.sanity_check_knm, p["n"], p["m"])
        return out

    def check(self, case, out, rng):
        """(wrong answers, failures) for one case."""
        wrong, failed = [], []
        for name, (status, value) in out.items():
            if status == "error":
                failed.append("%s raised %s" % (name, value))
        if case["op"] == "gkz":
            status, dec = out["gkz_decomposition"]
            if status == "ok":
                chambers = [(c.rays, c.facet_normals) for c in dec.chambers]
                wrong += oracles.check_fan(case["vectors"], chambers, rng)
            elif status == "refused":
                wrong.append("gkz_decomposition refused a pointed full-dimensional input")
            return wrong, failed
        key = oracles.family_key(case["family"], case["params"])
        name, n = key[0], key[1][0]

        def expect(query, read, want, extra=None):
            """Compare read(value) with a table entry (None: no entry) and
            run extra(value); a refusal pinned by the tests must happen."""
            status, value = out[query]
            pinned = oracles.REFUSALS.get(query, {}).get(name)
            if pinned is not None:
                if (status, value) != ("refused", pinned):
                    wrong.append("%s: expected %s, got %s" % (query, pinned, status))
            elif status == "refused" and want is not None:
                wrong.append("%s refused a query with a recorded answer" % query)
            elif status == "ok":
                got = read(value)
                if want is not None and got != want:
                    wrong.append("%s: expected %r, got %r" % (query, want, got))
                problem = extra(value) if extra else None
                if problem:
                    wrong.append("%s: %s" % (query, problem))

        rank = oracles.PICARD_RANKS.get(key)
        expect("build_model", lambda m: (m.name, m.picard_rank if rank else None),
               (oracles.space_title(*key), rank))
        expect("orbit_picard_group", lambda g: (g.free_rank, tuple(g.invariant_factors)),
               oracles.ORBIT_GROUPS.get(key))
        expect("classify_positivity", lambda c: c.value, oracles.POSITIVITY.get(key))
        expect("mori_chambers", lambda d: len(d.chambers), oracles.CHAMBER_COUNTS.get(key),
               lambda d: self._check_chambers(key, d, out, rng))

        eff, nef = out["effective_cone"], out["nef_cone"]
        if eff[0] == "ok" and nef[0] == "ok":
            if any(sum(a * b for a, b in zip(f, r)) < 0 for f in eff[1].facet_normals for r in nef[1].rays):
                wrong.append("a nef ray lies outside the effective cone")
        if "dictionary_apply" in out:
            want = (Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2)) if 4 <= n <= 8 else None
            expect("dictionary_apply", tuple, want)
        if "dictionary_nef" in out:
            expect("dictionary_nef", lambda v: set(v[0]) == set(v[1]), True if 2 <= n <= 6 else None)
        if "verify_riemann_hurwitz" in out:
            solved = [Fraction(2 * n + 2), Fraction(-(3 * n - 2), 2), Fraction(-(n - 2))]
            expect("verify_riemann_hurwitz", lambda r: (r.passed, list(r.details["solved"])), (True, solved))
        if "sanity_check_knm" in out:
            reduced = {"Kn": n - 1, "Km": case["params"]["m"] - 1, "Knm": 4}
            expect("sanity_check_knm", lambda r: (r.passed, r.details["reduced"]), (True, reduced))
        return wrong, failed

    @staticmethod
    def _check_chambers(key, dec, out, rng):
        if key[0] == "secV" and key[1][1:] == (4, 2):
            if (6, -3, -2) not in {r for c in dec.chambers for r in c.rays}:
                return "the new ray (6, -3, -2) is missing"
        status, nef = out["nef_cone"]
        if status == "ok" and sum(1 for c in dec.chambers if c == nef) != 1:
            return "the nef cone is not exactly one chamber"
        model = out["build_model"][1]
        labels = tuple(model.boundary) + tuple(model.colors)
        vectors = [model.classes[lb].coordinates for lb in labels]
        chambers = [(c.rays, c.facet_normals) for c in dec.chambers]
        return "; ".join(oracles.check_fan(vectors, chambers, rng)) or None


# ------------------------------------------------------------------ verify


class Verify:
    def __init__(self):
        from completeforms import determinantal, polynomials

        self.det = determinantal
        self.poly = polynomials

    def run(self, case):
        op = case["op"]
        try:
            if op == "census":
                return ("ok", self.det.rank_census(case["a"], case["b"], case["q"], symmetric=case["symmetric"]))
            if op == "lemma":
                return ("ok", self.det.verify_rank_minor_lemma(case["a"], case["b"], case["k"], case["q"]))
            if op == "split":
                return ("ok", self.det.verify_component_split(
                    case["a"], case["b"], case["k"], case["q"], symmetric=case["symmetric"]))
            return ("ok", self.poly.verify_tangent_cone(
                case["n"], case["m"], case["h"], case["k"], symmetric=case["symmetric"]))
        except Exception as exc:  # an unexpected failure is a case outcome
            return ("error", "%s: %s" % (type(exc).__name__, exc))

    def check(self, case, out, rng):
        status, value = out
        if status == "error":
            return [], [value]
        op, q = case["op"], case.get("q")
        if op == "census":
            a, b = case["a"], case["b"]
            if case["symmetric"]:
                want = {r: oracles.symmetric_rank_count(a, r, q) for r in range(a + 1)}
            else:
                want = {r: oracles.rank_count(a, b, r, q) for r in range(min(a, b) + 1)}
            got = dict(value.counts)
            return ([] if got == want else ["census %s, expected %s" % (got, want)]), []
        if not value.passed:
            return ["%s reported a counterexample %s" % (op, value.counterexample)], []
        if op == "tangent":
            want = oracles.tangent_minors(case["n"], case["m"], case["h"], case["k"])
            got = value.counts["minors_checked"]
            return ([] if got == want else ["minors_checked %d, expected %d" % (got, want)]), []
        want = oracles.split_counts(case["a"], case["b"], case["k"], q, case["symmetric"])
        counts = value.counts
        if op == "lemma":
            want = {"matrices": want["matrices"], "candidates": want["det_zero"],
                    "rows_degenerate": want["h1"], "cols_degenerate": want["h2"]}
        elif case["symmetric"] and counts["h1"] != counts["h2"]:
            return ["symmetric split has h1 != h2"], []
        got = {k: counts[k] for k in want}
        return ([] if got == want else ["%s counts %s, expected %s" % (op, got, want)]), []

    @staticmethod
    def matrices(case):
        if case["op"] == "tangent":
            return 0
        if case["symmetric"]:
            return case["q"] ** (case["a"] * (case["a"] + 1) // 2)
        return case["q"] ** (case["a"] * case["b"])


# ------------------------------------------------------------------ main


def peak_rss_mib() -> float:
    """This process's peak resident set since its exec (VmHWM).  The rusage
    of a child would not do: at exec it takes over the peak of the parent
    that spawned it, so a worker would never read below the driver."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    workload, seed, traced, out_path = argv
    seed = int(seed)
    case_list = cases.WORKLOADS[workload](seed)
    imports, tracer = {}, None
    if traced == "1":
        from tracer import ImportWatch, Tracer

        numpy_clock = ImportWatch(lambda name: name == "numpy").install()
    start = time.perf_counter()
    runner = Catalog() if workload == "catalog" else Verify()
    if traced == "1":
        imports = {"import_s": time.perf_counter() - start,
                   "determinantal.import_s": numpy_clock.seconds.get("numpy", 0.0)}
        tracer = Tracer()
        tracer.install()
    result = {"ready": time.monotonic(), "imports": imports}
    outputs, case_s, ref_s = [], [], []
    for case in case_list:
        ref_s.append(calibrate.compute_s())
        if tracer is not None:
            tracer.case = case["id"]
        c0 = time.perf_counter()
        outputs.append(runner.run(case))
        case_s.append(time.perf_counter() - c0)
    result["rss_mib"] = peak_rss_mib()  # before the checks, which are not the program's
    if tracer is not None:
        tracer.enabled = False
    wrong, failed, canon = [], [], []
    for case, out in zip(case_list, outputs):
        rng = random.Random("perfbench:%d:check:%d" % (seed, case["id"]))
        try:
            w, f = runner.check(case, out, rng)
        except Exception as exc:  # a malformed output is a wrong answer
            w, f = ["checking the output raised %s: %s" % (type(exc).__name__, exc)], []
        wrong += ["case %d: %s" % (case["id"], x) for x in w]
        failed += ["case %d: %s" % (case["id"], x) for x in f]
        if w or f:
            result.setdefault("bad_cases", []).append(case["id"])
        canon.append(canonical(out))
    digest = hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()
    result.update({
        "case_s": case_s,
        "ref_s": ref_s,
        "cases": len(case_list),
        "wrong": wrong,
        "failed": failed,
        "digest": digest,
    })
    if workload == "verify":
        timed = [(Verify.matrices(c), t) for c, t in zip(case_list, case_s) if c["op"] != "tangent"]
        result["matrices"] = sum(m for m, _ in timed)
        result["matrix_s"] = sum(t for _, t in timed)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(out_path + ".spans")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
