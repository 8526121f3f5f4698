import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bockstein

from bockstein.cases import Case
from bockstein.cli import main
from bockstein.jsonio import emit_json


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_formulas_series(capsys):
    code, out, _ = run_cli(capsys, "formulas", "--p", "3", "--series", "r1", "--n", "1..3")
    assert code == 0 and out.strip() == "9, 27, 90"
    code, out, _ = run_cli(capsys, "formulas", "--p", "3", "--series", "r2", "--n", "1..4")
    assert code == 0 and out.strip() == "3, 9, 27, 84"
    code, out, _ = run_cli(capsys, "formulas", "--p", "2", "--series", "dmu", "--n", "2")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "formulas", "--p", "3", "--series", "rconj",
                           "--n", "1..3", "--m", "1")
    assert code == 0 and out.strip() == "9, 27, 90"


@pytest.mark.parametrize("args, message", [
    (("--p", "4", "--n", "1..3"), "4 is not prime"),
    (("--p", "1", "--n", "2"), "1 is not prime"),
    (("--p", "3", "--n", "5..2"), "empty range 5..2"),
    (("--p", "3317044064679887385961981", "--n", "1"),
     "3317044064679887385961981 is too large: primes are checked below "
     "3,317,044,064,679,887,385,961,981"),
])
def test_formulas_refuses_bad_input_exit_two(capsys, args, message):
    code, out, err = run_cli(capsys, "formulas", "--series", "r1", *args)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (("--series", "r2", "--n", "1000000"), "r2 at 1000000"),
    (("--series", "r1", "--n", "10000"), "r1 at 10000"),
    (("--series", "rconj", "--n", "1", "--m", "1", "--N", "1000000"), "rconj at 1"),
], ids=["r2", "r1", "rconj"])
def test_formulas_refuses_values_too_long_to_print(monkeypatch, capsys, args, message):
    # refused from the value's power of p, before any value is computed
    from bockstein import cli

    def no_value(*args):
        raise AssertionError("a value was computed")

    monkeypatch.setattr(cli, "r_len", no_value)
    monkeypatch.setattr(cli, "r_conj", no_value)
    code, out, err = run_cli(capsys, "formulas", "--p", "3", *args)
    assert code == 2 and not out
    limit = sys.get_int_max_str_digits()
    assert err == f"error: {message} has more than {limit:,} digits, the most Python prints\n"


def test_formulas_at_a_large_prime(capsys):
    # 10^18 + 3 is prime; trial division would take about 10^9 steps
    p = 10**18 + 3
    code, out, _ = run_cli(capsys, "formulas", "--p", str(p), "--series", "r1", "--n", "1")
    assert code == 0 and out == f"{p * p}\n"


def test_python_dash_m_runs_the_cli():
    # a checkout without the installed script; importing the package does
    # not run the command line
    env = {**os.environ, "PYTHONPATH": str(Path(bockstein.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "bockstein", "formulas", "--p", "3",
                           "--series", "r1", "--n", "1..3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "9, 27, 90\n")
    done = subprocess.run([sys.executable, "-m", "bockstein", "formulas", "--p", "4",
                           "--series", "r1", "--n", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and "4 is not prime" in done.stderr
    done = subprocess.run([sys.executable, "-c", "import sys, bockstein; "
                           "print('bockstein.__main__' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout == "False\n"


def test_verify_of_a_large_window_stays_small():
    # v1 p=3 D=20000 keeps about 20,000 A-degrees; the pages' (t, s) views
    # would hold D^2/|v| keys, and a run builds none of them.  The peak RSS
    # is read inside the fresh interpreter that runs verify
    env = {**os.environ, "PYTHONPATH": str(Path(bockstein.__file__).parents[1])}
    code = ("import resource, sys\n"
            "from bockstein.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", code, "verify", "--case", "v1", "--p", "3",
                           "--max-degree", "20000"],
                          capture_output=True, text=True, env=env, timeout=120)
    lines = done.stdout.splitlines()
    assert "VERIFIED" in lines[-2]
    exit_code, max_rss_kb = map(int, lines[-1].split())
    assert exit_code == 0 and done.returncode == 0
    assert max_rss_kb < 100 * 1024


def test_verify_v0_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "v0", "--p", "2", "--n", "2",
                           "--max-degree", "58")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_conj_tagged(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "conj", "--p", "3", "--n", "3",
                           "--m", "1", "--max-degree", "80")
    assert code == 0
    assert "conjectural" in out


@pytest.mark.parametrize("args", [("--case", "v0", "--p", "2", "--n", "3000"),
                                  ("--case", "conj", "--p", "3", "--n", "3000", "--m", "2")],
                         ids=["v0", "conj"])
def test_verify_an_algebra_of_thousands_of_generators(capsys, args):
    # 3,002 generators, a handful of them of degree <= 40: the basis is
    # enumerated without a stack frame per generator, so the run does not
    # meet the interpreter's recursion limit
    code, out, err = run_cli(capsys, "verify", *args, "--max-degree", "40")
    assert code == 0
    assert "VERIFIED" in out
    # the run's warning is one note line, not Python's warning text
    assert err == "note: window too small to contain any rule source; E_1 = E_infinity\n"


def test_verify_page_cap_names_degrees_without_a_tower(capsys):
    # at cap 4 the classes at 64, 83 and 103 support the unfired d_8, so the
    # degrees may hold no tower; verify says so instead of a mismatch
    code, out, _ = run_cli(capsys, "verify", "--case", "v2", "--p", "2",
                           "--max-degree", "120", "--page-cap", "4")
    assert code == 0
    for t in (64, 83, 103):
        line = next(ln for ln in out.splitlines() if ln.startswith(f"unverified t={t}:"))
        assert "possibly absent" in line
    assert "VERIFIED" in out


def test_verify_counts_the_unverified_degrees_on_its_closing_line(capsys, monkeypatch):
    # at cap 4 six degrees of 0..60 hold unknowns the oracle's towers
    # match; the closing line says so, and the exit code stays 0.  A run
    # with none says nothing of them
    monkeypatch.setenv("BOCKSTEIN_COLOR", "0")
    code, out, _ = run_cli(capsys, "verify", "--case", "v2", "--p", "2",
                           "--max-degree", "60", "--page-cap", "4")
    lines = out.splitlines()
    unverified = [ln for ln in lines if ln.startswith("unverified t=")]
    assert code == 0 and len(unverified) == 6
    assert lines[-1] == ("VERIFIED: engine matches the closed-form profile on 0..60; "
                         "6 degrees unverified")
    code, out, _ = run_cli(capsys, "verify", "--case", "v2", "--p", "2",
                           "--max-degree", "16", "--page-cap", "4")
    assert code == 0 and out.splitlines()[-1] == (
        "VERIFIED: engine matches the closed-form profile on 0..16; 1 degree unverified")
    code, out, _ = run_cli(capsys, "verify", "--case", "v2", "--p", "2", "--max-degree", "60")
    assert code == 0 and out.splitlines()[-1] == (
        "VERIFIED: engine matches the closed-form profile on 0..60")


def test_run_localized_span(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "v2", "--p", "3",
                           "--max-degree", "60", "--localized")
    assert code == 0
    assert "Laurent span {1}" in out
    code, out, _ = run_cli(capsys, "run", "--case", "v1", "--p", "3",
                           "--max-degree", "60", "--localized")
    assert code == 0
    assert "Laurent span {1, λ1}" in out


def test_run_localized_under_a_page_cap_names_the_page_read(capsys):
    # capped at 3, the unfired d_9 and d_27 may still remove the towers at
    # 17 and 53, so the span read is E_4's, not E_infinity's; uncapped, every
    # tower is decided and the output is the span alone
    args = ("run", "--case", "v2", "--p", "3", "--max-degree", "60", "--localized")
    code, out, _ = run_cli(capsys, *args, "--page-cap", "3")
    assert code == 0 and "E_infinity" not in out
    assert out.splitlines()[1:] == ["E_4 = Laurent span {1, λ2, λ3}",
                                    "t=    0: inf",
                                    "t=   17: unknown(possibly absent)",
                                    "t=   53: unknown(possibly absent)"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[1:] == ["E_infinity = Laurent span {1}"]


def test_run_v1_p2_needs_variant(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "v1", "--p", "2", "--max-degree", "30")
    assert code == 2
    assert "Remark" in err
    code, _, _ = run_cli(capsys, "run", "--case", "v1", "--p", "2", "--max-degree", "30",
                         "--variant", "B")
    assert code == 0


def test_run_writes_artifacts(tmp_path, capsys):
    jpath = tmp_path / "out.json"
    spath = tmp_path / "out.svg"
    jpath.write_text("stale\n" * 100_000)  # longer than the document: replaced whole
    code, out, _ = run_cli(capsys, "run", "--case", "v0", "--p", "2", "--n", "2",
                           "--max-degree", "58", "--json", str(jpath), "--svg", str(spath))
    assert code == 0
    doc = json.loads(jpath.read_text())
    towers = {t["t"]: t["lengths"] for t in doc["towers"]}
    assert towers[31] == [2] and towers[0] == ["inf"]
    assert spath.read_text().startswith("<svg")
    case = Case("v0", 2, 58, n=2)
    sched, pages, profile = case.run()
    assert jpath.read_bytes() == emit_json(pages, profile, case.meta(sched)).encode()


@pytest.mark.parametrize("flag", [("--json", "x.json"), ("--svg", "x.svg"), ("--ascii",)],
                         ids=lambda flag: flag[0])
def test_verify_refuses_the_output_options_of_run(tmp_path, capsys, flag):
    # verify writes no documents, so an output option is a usage error
    args = [*flag[:1], *(str(tmp_path / name) for name in flag[1:])]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "v1", "--p", "3", "--max-degree", "60", *args])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out and f"unrecognized arguments: {flag[0]}" in out.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--json", "--svg"])
def test_output_path_that_cannot_be_opened_exit_two(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "run", "--case", "v0", "--p", "2", "--n", "2",
                             "--max-degree", "20", flag, str(path))
    assert code == 2 and not out  # refused before the run
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("svg", ["x", "./x", "sub/../x", "link"],
                         ids=["same", "dot", "parent", "symlink"])
def test_json_and_svg_at_one_path_exit_two(tmp_path, monkeypatch, capsys, svg):
    # the SVG would overwrite the JSON document; the paths are compared
    # resolved, and the run is refused before it starts, creating no file
    from bockstein import engine

    def no_run(*a, **k):
        raise AssertionError("engine.run called")

    monkeypatch.setattr(engine, "run", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to("x")
    code, out, err = run_cli(capsys, "run", "--case", "v2", "--p", "3", "--max-degree", "20",
                             "--json", "x", "--svg", svg)
    assert code == 2 and not out
    assert err == "error: --json and --svg both name x; give each its own file\n"
    assert sorted(os.listdir(tmp_path)) == ["link", "sub"]


def test_refused_run_leaves_no_new_output_file(tmp_path, capsys):
    # the outputs are opened before the run; a run refused as oversized
    # removes the file it created and leaves an existing one as it was
    jpath, spath = tmp_path / "new.json", tmp_path / "old.svg"
    spath.write_text("kept")
    code, out, err = run_cli(capsys, "run", "--case", "v2", "--p", "2",
                             "--max-degree", "3000000", "--json", str(jpath),
                             "--svg", str(spath))
    assert code == 2 and not out and "above the limit" in err
    assert not jpath.exists() and spath.read_text() == "kept"


def test_usage_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "v0", "--p", "2", "--max-degree", "20")
    assert code == 2  # missing --n
    code, _, err = run_cli(capsys, "run", "--case", "v0", "--p", "2", "--n", "2",
                           "--max-degree", "20", "--localized")
    assert code == 2  # |v0| = 0 cannot be localized


@pytest.mark.parametrize("args", [
    ("--case", "v2", "--p", "2", "--n", "3"),
    ("--case", "v2", "--p", "2", "--m", "5"),
    ("--case", "v2", "--p", "2", "--variant", "A"),
    ("--case", "v1", "--p", "3", "--n", "2"),
    ("--case", "v1", "--p", "2", "--m", "1", "--variant", "A"),
    ("--case", "v1", "--p", "3", "--variant", "B"),
    ("--case", "v0", "--p", "2", "--n", "2", "--m", "7"),
    ("--case", "v0", "--p", "2", "--n", "2", "--variant", "B"),
    ("--case", "conj", "--p", "3", "--n", "3", "--m", "1", "--variant", "A"),
])
def test_parameter_the_case_does_not_take_exit_two(tmp_path, capsys, args):
    # refused, not run and written into meta
    jpath = tmp_path / "x.json"
    code, out, err = run_cli(capsys, "run", *args, "--max-degree", "30", "--json", str(jpath))
    assert code == 2 and not out and not jpath.exists()
    assert err.startswith(f"error: case {args[1]} takes")


def test_verify_mismatch_exit_one(monkeypatch, capsys):
    # engineer a mismatch by lying about the oracle
    from bockstein.cases import Case
    from bockstein.towers import TowerProfile

    def fake_oracle(case):
        prof = TowerProfile(case.D)
        prof.add(0, 5)
        return prof

    monkeypatch.setattr(Case, "oracle", fake_oracle)
    code, out, _ = run_cli(capsys, "verify", "--case", "v0", "--p", "2", "--n", "2",
                           "--max-degree", "20")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_page_cap_below_one_exit_two(capsys, cap):
    code, out, err = run_cli(capsys, "verify", "--case", "v2", "--p", "2",
                             "--max-degree", "40", "--page-cap", cap)
    assert code == 2
    assert "page cap" in err and "VERIFIED" not in out


@pytest.mark.parametrize("args", [
    ("--case", "v2", "--p", "2", "--max-degree", "3000000"),
    ("--case", "v0", "--p", "2", "--n", "2", "--max-degree", "3000000"),
])
def test_oversized_input_exit_two(capsys, args):
    # refused from the estimate on the schedule's pages, before any basis
    # is built; a schedule holds one rule per page, 18 for v0 here
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 2 and not out
    assert "(A-degree, page) states" in err and "above the limit" in err


def test_oversized_refusal_of_a_cost_too_long_to_print(capsys):
    # |v| = 2 * 7^10000 - 2 makes the cost a number of about 8,450 digits,
    # more than Python converts to decimal by default; the refusal states
    # the bound rounded up to a power of 2
    code, out, err = run_cli(capsys, "verify", "--case", "conj", "--p", "7", "--n", "10000",
                             "--m", "10000", "--max-degree", "40")
    assert code == 2 and not out
    assert err == ("error: the run may keep up to 2^28078 (A-degree, page) states, "
                   "above the limit of 1,000,000; choose a smaller --max-degree\n")


@pytest.mark.parametrize("args, message", [
    (("verify", "--case", "v0", "--p", "2", "--n", "100000000"),
     "n = 100,000,000 is above the limit of 10,000; choose a smaller --n"),
    (("verify", "--case", "conj", "--p", "3", "--n", "100000000", "--m", "2"),
     "n = 100,000,000 is above the limit of 10,000; choose a smaller --n"),
    (("verify", "--case", "conj", "--p", "7", "--n", "10000", "--m", "10000"),
     "the run may keep up to 2^28078 (A-degree, page) states, above the limit of "
     "1,000,000; choose a smaller --max-degree"),
    (("run", "--case", "conj", "--p", "7", "--n", "10000", "--m", "10000"),
     "the run may keep up to 2^28078 (A-degree, page) states, above the limit of "
     "1,000,000; choose a smaller --max-degree"),
], ids=["v0", "conj", "conj-cost-verify", "conj-cost-run"])
def test_oversized_n_is_refused_before_any_algebra(monkeypatch, capsys, args, message):
    # an algebra of 10^8 generators would not fit in memory, and one of
    # 10,001 generators of up to 8,450 digits takes most of a second; every
    # run and every oracle builds its algebra through thh_mod_p_algebra
    from bockstein import closedform

    def no_algebra(p, n):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(closedform, "thh_mod_p_algebra", no_algebra)
    code, out, err = run_cli(capsys, *args, "--max-degree", "40")
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_verify_builds_the_algebra_once_for_the_case_and_once_for_the_oracle(
        monkeypatch, capsys):
    # and no other: the engine reads v's exponent and degree off A, with no
    # A[v] of its own
    from bockstein import closedform
    from bockstein.algebra import Algebra

    built, algebras = [], []
    thh = closedform.thh_mod_p_algebra
    monkeypatch.setattr(closedform, "thh_mod_p_algebra",
                        lambda p, n: built.append((p, n)) or thh(p, n))
    post_init = Algebra.__post_init__
    monkeypatch.setattr(Algebra, "__post_init__",
                        lambda A: algebras.append(A.p) or post_init(A))
    code, out, _ = run_cli(capsys, "verify", "--case", "v2", "--p", "2", "--max-degree", "160")
    assert code == 0 and "VERIFIED" in out
    assert built == [(2, 2), (2, 2)]
    assert algebras == [2, 2]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("args", [("--case", "v0", "--n", "2"), ("--case", "v1"),
                                  ("--case", "v2"), ("--case", "conj", "--n", "3", "--m", "2")],
                         ids=["v0", "v1", "v2", "conj"])
@pytest.mark.parametrize("p", ["0", "1", "4", "-3", "3317044064679887385961981"])
def test_a_p_that_is_not_prime_is_refused(capsys, command, args, p):
    # the schedule is the first thing a run builds, and it builds no
    # algebra, so it checks p itself; a ladder at p < 2 would never end
    code, out, err = run_cli(capsys, command, *args, "--p", p, "--max-degree", "40")
    assert code == 2 and not out
    assert err in (f"error: {p} is not prime\n",
                   f"error: {p} is too large: primes are checked below "
                   f"3,317,044,064,679,887,385,961,981\n")


def test_cost_estimate_reads_the_schedule_pages(monkeypatch):
    # the size check counts the pages the schedule emits: v0 p=2 n=0 emits
    # page 2 from D = 7 on, where its d_2(mu_1^2) hits degree 7, and page 1
    # alone at D = 6, where both ends of d_2, 8 and 7, lie past the window
    from bockstein import engine
    from bockstein.cases import Case

    seen = []
    estimate = engine.estimate_cost
    monkeypatch.setattr(engine, "estimate_cost",
                        lambda deg_v, D, pages, *rest: seen.append(list(pages))
                        or estimate(deg_v, D, pages, *rest))
    _, sched6, _ = Case("v0", 2, 6, n=0).build()
    _, sched7, _ = Case("v0", 2, 7, n=0).build()
    assert sorted(sched6.pages) == [1] and sorted(sched7.pages) == [1, 2]
    assert seen == [[1], [1, 2]]


@pytest.mark.parametrize("args, message", [
    (("--case", "v1", "--p", "2", "--variant", "A", "--max-degree", "3000"),
     "no oracle is asserted for the p = 2 v1 case"),
    (("--case", "v1", "--p", "2", "--variant", "A", "--max-degree", "3000", "--localized"),
     "paper assumes p >= 3"),
    (("--case", "v2", "--p", "2", "--max-degree", "3000000"), "above the limit"),
])
def test_verify_refuses_before_the_run(monkeypatch, capsys, args, message):
    # a case with no oracle, or too large, is refused before the engine runs
    # and before any oracle of the case's size is built
    from bockstein import closedform, engine

    def no_run(*a, **k):
        raise AssertionError("engine.run called")

    sizes = []
    t22 = closedform.t22_profile
    monkeypatch.setattr(engine, "run", no_run)
    monkeypatch.setattr(closedform, "t22_profile", lambda p, D: sizes.append(D) or t22(p, D))
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 2 and not out
    assert err.startswith("error: ") and message in err
    assert sizes in ([], [0])
