"""End-to-end tests for the command line front end.

The golden files under tests/goldens/ pin the exact bytes the CLI emits for
three representative chamber queries (JSON and SVG) and for seven
``invariants`` queries, one per space kind.  If an intentional change to the
payload layout breaks these, regenerate the goldens with the commands named
in each test and review the diff by hand.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from completeforms import cli, cones, secants, spaces
from completeforms.reports import VerificationReport
from completeforms.secants import segre_secant_invariants, veronese_secant_invariants

GOLDENS = Path(__file__).parent / "goldens"
README = Path(__file__).resolve().parent.parent / "README.md"

ENVELOPE_KEYS = {
    "space",
    "invariants",
    "cones",
    "chambers",
    "positivity",
    "automorphisms",
    "verifications",
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# payload shape


def test_invariants_emits_the_full_envelope(capsys):
    code, out, err = run_cli(["invariants", "--space", "Q", "--n", "4", "--h", "3"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == ENVELOPE_KEYS
    assert payload["chambers"] is None
    assert payload["verifications"] is None
    assert payload["invariants"]["picard_rank"] == 3
    assert payload["invariants"]["orbit_picard"] == "Z"
    assert payload["positivity"] == "Fano"
    assert payload["space"]["name"] == "Q(4,3)"


def test_every_subcommand_reuses_the_same_envelope(capsys):
    """All three subcommands emit the same seven top level keys."""
    for argv in [
        ["invariants", "--space", "mbar-p", "--n", "3"],
        ["chambers", "--space", "C", "--n", "1", "--m", "2", "--h", "2"],
        ["verify", "--check", "rh-solve", "--n", "5"],
    ]:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert set(json.loads(out)) == ENVELOPE_KEYS


def test_chambers_fills_the_chamber_section(capsys):
    code, out, _ = run_cli(["chambers", "--space", "Q", "--n", "4", "--h", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    chambers = payload["chambers"]
    assert chambers["count"] == 5
    assert len(chambers["chambers"]) == 5
    nef_flags = [c["is_nef"] for c in chambers["chambers"]]
    assert nef_flags.count(True) == 1


def test_invariants_for_a_space_without_coordinates_still_succeeds(capsys):
    """Partial towers without a distinguished basis report what they can."""
    code, out, _ = run_cli(
        ["invariants", "--space", "secS", "--n", "3", "--m", "3", "--h", "3", "--k", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["positivity"] is None
    assert payload["cones"] == {"effective": None, "nef": None, "moving": None}
    assert payload["invariants"]["picard_rank"] == 3


def test_markdown_format_renders_a_report(capsys):
    code, out, _ = run_cli(
        ["invariants", "--space", "Q", "--n", "4", "--h", "3", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert out.startswith("# Q(4,3)")
    assert "| class rank | 3 |" in out


@pytest.mark.parametrize(
    "space, line",
    [
        (["mbar-p", "--n", "1"], "1 chamber on 1 ray"),
        (["C", "--n", "2", "--m", "2", "--h", "2"], "3 chambers on 4 rays"),
    ],
)
def test_a_markdown_chamber_count_names_one_chamber_and_one_ray_in_the_singular(space, line, capsys):
    code, out, _ = run_cli(["chambers", "--space", *space, "--format", "markdown"], capsys)
    assert code == 0
    assert line in out.splitlines()


@pytest.fixture
def catalog_calls(monkeypatch, fresh_memos):
    """Count the models built through ``spaces``, the secants evaluated
    through ``spaces`` and ``secants``, and the cones enumerated from rays
    through ``spaces`` and ``cones``, from empty memos."""
    calls = {"build_model": 0, "secant": 0, "cone_from_rays": 0}

    def count(module, name, key):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(spaces, "build_model", "build_model")
    for module in (spaces, secants):
        count(module, "segre_secant_invariants", "secant")
        count(module, "veronese_secant_invariants", "secant")
    count(spaces, "cone_from_rays", "cone_from_rays")
    count(cones, "cone_from_rays", "cone_from_rays")
    return calls


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize(
    "command",
    [
        "invariants --space Q --n 6 --h 2",
        "invariants --space mbar-pxp --n 2 --m 3",
        "chambers --space secV --n 6 --h 4 --k 2",
        "chambers --space C --n 2 --m 3 --h 2",
        "invariants --space C --n 1 --m 3 --h 2",
        "invariants --space Q --n 3 --h 4",
    ],
)
def test_a_space_query_builds_one_model_and_evaluates_one_secant(
    command, fmt, catalog_calls, capsys
):
    code, out, _ = run_cli(command.split() + ["--format", fmt], capsys)
    assert code == 0 and out
    assert (catalog_calls["build_model"], catalog_calls["secant"]) == (1, 1)


@pytest.mark.parametrize(
    "command, built",
    [("chambers --space secV --n 4 --h 4 --k 2", 7), ("chambers --space Q --n 4 --h 3", 7)],
)
def test_chambers_reads_the_nef_rays_off_the_cone_section(command, built, catalog_calls, capsys):
    """The nef flag compares rays already in the payload; no cone is built for it."""
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert [c["is_nef"] for c in json.loads(out)["chambers"]["chambers"]].count(True) == 1
    assert catalog_calls["cone_from_rays"] == built


# ---------------------------------------------------------------------------
# verification subcommand


def test_each_verify_check_passes_on_a_small_instance(capsys):
    checks = [
        ["verify", "--check", "rank-lemma", "--rows", "2", "--cols", "2", "--k", "1", "--q", "2"],
        ["verify", "--check", "component-split", "--rows", "2", "--cols", "2", "--k", "1", "--q", "2"],
        ["verify", "--check", "census", "--rows", "2", "--cols", "2", "--q", "3"],
        ["verify", "--check", "census", "--rows", "2", "--cols", "2", "--q", "3", "--symmetric"],
        ["verify", "--check", "tangent-cone", "--n", "2", "--m", "2", "--h", "2", "--k", "1"],
        ["verify", "--check", "rh-solve", "--n", "4"],
        ["verify", "--check", "knm-identity", "--n", "2", "--m", "3"],
    ]
    for argv in checks:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        payload = json.loads(out)
        reports = payload["verifications"]
        assert len(reports) == 1
        assert reports[0]["passed"] is True


def test_census_report_names_its_parameters(capsys):
    _, out, _ = run_cli(
        ["verify", "--check", "census", "--rows", "2", "--cols", "3", "--q", "2"], capsys
    )
    report = json.loads(out)["verifications"][0]
    assert report["name"] == "rank-census"
    assert report["parameters"] == {"rows": 2, "cols": 3, "q": 2, "symmetric": False}
    assert report["counts"] == {"matrices": 64}


def test_a_census_over_a_large_field_prints_the_closed_form(capsys):
    # 4093^2 matrices, inside the budget; each is ranked by one zero test
    code, out, _ = run_cli(
        ["verify", "--check", "census", "--rows", "1", "--cols", "2", "--q", "4093"], capsys
    )
    assert code == 0
    report = json.loads(out)["verifications"][0]
    assert report["passed"] is True
    assert report["counts"] == {"matrices": 4093**2}
    want = {"0": 1, "1": 4093**2 - 1}
    assert report["details"] == {"closed_form": want, "counts": want}


def test_a_failing_report_exits_one(capsys, monkeypatch):
    """The exit status mirrors report.passed, exercised with a stub."""
    stub = VerificationReport(
        name="double-cover-anticanonical-solve",
        parameters={"n": 4},
        passed=False,
        counts={},
        details={},
        counterexample={"reason": "stubbed failure"},
    )
    monkeypatch.setattr(cli.spaces, "verify_riemann_hurwitz", lambda n: stub)
    code, out, _ = run_cli(["verify", "--check", "rh-solve", "--n", "4"], capsys)
    assert code == 1
    assert json.loads(out)["verifications"][0]["passed"] is False


# ---------------------------------------------------------------------------
# exit codes for bad input


def test_missing_parameter_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["invariants", "--space", "Q", "--n", "4"])
    assert excinfo.value.code == 2


def test_extraneous_parameter_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["invariants", "--space", "Q", "--n", "4", "--h", "3", "--m", "2"])
    assert excinfo.value.code == 2


def test_symmetric_flag_is_rejected_where_it_makes_no_sense(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(
            ["verify", "--check", "rank-lemma", "--rows", "2", "--cols", "2",
             "--k", "1", "--q", "2", "--symmetric"]
        )
    assert excinfo.value.code == 2


def test_domain_errors_exit_two_with_a_message(capsys):
    code, out, err = run_cli(["invariants", "--space", "Q", "--n", "0", "--h", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --check rank-lemma --rows 0 --cols 2 --k 1 --q 2",
         "error: matrix format must be positive, got 0x2\n"),
        ("verify --check component-split --rows 5 --cols 5 --k 9 --q 2",
         "error: would enumerate 2^25 matrices, budget is 16777216\n"),
    ],
)
def test_a_lemma_check_reports_the_census_refusal_before_k(argv, message, capsys):
    """The format and the budget are checked before k, which is out of range here too."""
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out, err) == (2, "", message)


def test_an_oversized_space_exits_two(capsys):
    code, out, err = run_cli(["invariants", "--space", "Q", "--n", "1001", "--h", "2"], capsys)
    assert (code, out) == (2, "")
    assert "n <= 1000" in err


def _read_decimal(digits):
    """The int of a decimal string of any length, read in pieces that stay
    under the interpreter's limit on int(str) (Python 3.11 on)."""
    value = 0
    for start in range(0, len(digits), 1000):
        piece = digits[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.mark.parametrize(
    "argv, secant",
    [
        (["--space", "C", "--n", "250", "--m", "250", "--h", "49"], (250, 250, 49)),
        (["--space", "Q", "--n", "400", "--h", "100", "--format", "markdown"], (400, 100)),
    ],
    ids=["C(250,250,49)", "Q(400,100)-markdown"],
)
def test_a_secant_degree_past_the_digit_limit_prints_whole(argv, secant, capsys):
    """Secant degrees in range run past the 4,300 digits Python 3.11 on
    converts by default (past 90,000 near C(1000,1000,400)); the CLI prints
    each whole, exits 0 and leaves the interpreter's limit as it was."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(["invariants"] + argv, capsys)
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    invariants = segre_secant_invariants if len(secant) == 3 else veronese_secant_invariants
    degree = invariants(*secant).degree
    printed = re.search(r"\bdegree\W+(\d{4301,})", out).group(1)
    assert _read_decimal(printed) == degree


def test_composite_field_size_exits_two(capsys):
    code, _, err = run_cli(
        ["verify", "--check", "census", "--rows", "2", "--cols", "2", "--q", "4"], capsys
    )
    assert code == 2
    assert "prime" in err


def test_a_huge_field_size_exits_two_without_trial_division(capsys):
    code, out, err = run_cli(
        ["verify", "--check", "census", "--rows", "1", "--cols", "1", "--q", str(10**18 + 3)],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "budget" in err


def test_an_oversized_tangent_cone_minor_exits_two(capsys):
    code, out, err = run_cli(
        ["verify", "--check", "tangent-cone", "--n", "40", "--m", "40", "--h", "20", "--k", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: a tangent-cone walk is capped at 5x5 minors, got 21x21 minors (h = 20)\n"


def test_a_long_tangent_cone_walk_exits_two(capsys):
    # pairs of 5x5 and of 3x3 minors, each within the minor cap: the term cap
    # refuses the walk and the message gives the terms it would build
    for n, h, terms in [(40, 4, math.comb(40, 4) ** 2 * 120), (1000, 2, math.comb(1000, 2) ** 2 * 6)]:
        code, out, err = run_cli(
            ["verify", "--check", "tangent-cone", "--n", str(n), "--m", str(n), "--h", str(h), "--k", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a tangent-cone walk is capped at 100000 Leibniz terms, this one would build %d (h = %d)\n"
            % (terms, h)
        )


def test_out_of_scope_spaces_exit_three(capsys):
    for argv in [
        ["chambers", "--space", "mbar-gr", "--n", "4"],
        ["chambers", "--space", "secS", "--n", "3", "--m", "3", "--h", "3", "--k", "1"],
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert out == ""
        assert err.strip() == cli.OUT_OF_SCOPE_MESSAGE


def test_unwritable_svg_path_exits_two_with_a_message(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "chambers.svg"
    code, out, err = run_cli(
        ["chambers", "--space", "Q", "--n", "4", "--h", "3", "--svg", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def _cli_subprocess(argv, stdout):
    return subprocess.run(
        [sys.executable, "-m", "completeforms.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def _assert_one_error_line(result):
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_a_full_stdout_exits_two_with_a_message():
    with open("/dev/full", "w") as full:
        result = _cli_subprocess(["invariants", "--space", "Q", "--n", "4", "--h", "3"], full)
    _assert_one_error_line(result)


def test_a_closed_stdout_pipe_exits_two_with_a_message():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        result = _cli_subprocess(["verify", "--check", "rh-solve", "--n", "4"], write)
    finally:
        os.close(write)
    _assert_one_error_line(result)


# ---------------------------------------------------------------------------
# goldens and determinism

GOLDEN_COMMANDS = [
    ("chambers_q_n4", ["chambers", "--space", "Q", "--n", "4", "--h", "3"]),
    ("chambers_c_n2_m2", ["chambers", "--space", "C", "--n", "2", "--m", "2", "--h", "2"]),
    ("chambers_secv_n4", ["chambers", "--space", "secV", "--n", "4", "--h", "4", "--k", "2"]),
    # the bar drawings of rank two and rank one
    ("chambers_q_n2_h3", ["chambers", "--space", "Q", "--n", "2", "--h", "3"]),
    ("chambers_mbar_p_n1", ["chambers", "--space", "mbar-p", "--n", "1"]),
]


# Together these cover every kind, a kind without coordinates (secS, mbar-gr
# at n = 2), a secant past its range ("secant": null) and a kind whose
# automorphism group is not recorded ("automorphisms": null).
INVARIANTS_GOLDEN_COMMANDS = [
    ("invariants_c_n2_m3_h2", ["invariants", "--space", "C", "--n", "2", "--m", "3", "--h", "2"]),
    ("invariants_q_n3_h2", ["invariants", "--space", "Q", "--n", "3", "--h", "2"]),
    (
        "invariants_secs_n3_m5_h4_k2",
        ["invariants", "--space", "secS", "--n", "3", "--m", "5", "--h", "4", "--k", "2"],
    ),
    (
        "invariants_secv_n1_h3_k1",
        ["invariants", "--space", "secV", "--n", "1", "--h", "3", "--k", "1"],
    ),
    ("invariants_mbar_p_n1", ["invariants", "--space", "mbar-p", "--n", "1"]),
    ("invariants_mbar_pxp_n2_m2", ["invariants", "--space", "mbar-pxp", "--n", "2", "--m", "2"]),
    ("invariants_mbar_gr_n2", ["invariants", "--space", "mbar-gr", "--n", "2"]),
]
JSON_GOLDEN_COMMANDS = GOLDEN_COMMANDS + INVARIANTS_GOLDEN_COMMANDS


@pytest.mark.parametrize(
    "stem,argv", JSON_GOLDEN_COMMANDS, ids=[s for s, _ in JSON_GOLDEN_COMMANDS]
)
def test_json_output_matches_the_golden_byte_for_byte(stem, argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    golden = (GOLDENS / (stem + ".json")).read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize("stem,argv", GOLDEN_COMMANDS, ids=[s for s, _ in GOLDEN_COMMANDS])
def test_svg_output_matches_the_golden_byte_for_byte(stem, argv, tmp_path, capsys):
    target = tmp_path / "picture.svg"
    code, _, _ = run_cli(argv + ["--svg", str(target)], capsys)
    assert code == 0
    golden = (GOLDENS / (stem + ".svg")).read_bytes()
    assert target.read_bytes() == golden


def test_a_one_chamber_bar_title_is_singular(tmp_path, capsys):
    target = tmp_path / "picture.svg"
    argv = ["chambers", "--space", "C", "--n", "1", "--m", "1", "--h", "1", "--svg", str(target)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert "C(1,1,1) chamber decomposition (1 chamber)</text>" in target.read_text(encoding="utf-8")


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["chambers", "--space", "secV", "--n", "3", "--h", "4", "--k", "2"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_module_entry_point_runs():
    """python3 -m completeforms.cli behaves like the installed script."""
    result = subprocess.run(
        [sys.executable, "-m", "completeforms.cli",
         "invariants", "--space", "Q", "--n", "2", "--h", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["space"]["name"] == "Q(2,2)"


# ---------------------------------------------------------------------------
# README commands stay honest


def readme_commands():
    lines = []
    fenced = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("completeforms "):
            lines.append(line)
    return lines


def test_readme_shows_at_least_one_command_per_subcommand():
    commands = readme_commands()
    for word in ("invariants", "chambers", "verify"):
        assert any(shlex.split(c)[1] == word for c in commands), word


def test_every_readme_command_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in readme_commands():
        code = cli.main(shlex.split(command)[1:])
        capsys.readouterr()
        assert code == 0, command


# ---------------------------------------------------------------------------
# fuzz over a bounded parameter box


def _exit_code(argv):
    """Run the CLI in process; return (exit code, stdout).  Any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _fuzz_argv(data, needed, names, values):
    """Flags for ``needed``, with one flag of ``names`` sometimes added or dropped."""
    flip = data.draw(st.one_of(st.none(), st.sampled_from(names)))
    argv = []
    for name in names:
        if (name in needed) != (name == flip):
            argv += ["--%s" % name, str(data.draw(values[name]))]
    return argv


def _assert_documented_exit(argv, fmt):
    code, out = _exit_code(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0 and fmt == "json":
        json.loads(out)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["invariants", "chambers"]),
    space=st.sampled_from(sorted(cli._SPACES)),
    fmt=st.sampled_from(["json", "markdown"]),
    data=st.data(),
)
def test_fuzzed_space_commands_exit_with_a_documented_code(command, space, fmt, data):
    needed = [f.name for f in dataclasses.fields(cli._SPACES[space])]
    values = dict.fromkeys("nmhk", st.integers(-1, 5))
    argv = [command, "--space", space] + _fuzz_argv(data, needed, "nmhk", values)
    _assert_documented_exit(argv + ["--format", fmt], fmt)


@settings(max_examples=200, deadline=None)
@given(
    check=st.sampled_from(sorted(cli._CHECKS)),
    symmetric=st.booleans(),
    fmt=st.sampled_from(["json", "markdown"]),
    data=st.data(),
)
def test_fuzzed_verify_checks_exit_with_a_documented_code(check, symmetric, fmt, data):
    values = dict.fromkeys(("rows", "cols", "k", "h"), st.integers(-1, 3))
    values.update(n=st.integers(-1, 4), m=st.integers(-1, 4), q=st.sampled_from([2, 3]))
    names = ("rows", "cols", "k", "q", "n", "m", "h")
    argv = ["verify", "--check", check] + _fuzz_argv(data, cli._CHECKS[check].params, names, values)
    if symmetric:
        argv.append("--symmetric")
    _assert_documented_exit(argv + ["--format", fmt], fmt)
