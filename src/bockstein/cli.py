"""Command-line interface: run, verify, formulas.

Exit codes: 0 success/verified, 1 profile mismatch, 2 usage error,
3 internal assertion (d o d != 0 and friends).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from contextlib import ExitStack, contextmanager, suppress
from typing import Iterator, List, Optional, TextIO, Tuple

from .algebra import AlgebraError, is_prime
from .cases import KINDS, Case
from .engine import EngineAssertionError, ScheduleError
from .formulas import FormulaError, d_deg, deg_lambda, deg_mu, nu_p, r_conj, r_len
from .jsonio import json_fragments, laurent_span
from .svg import ChartStyle, emit_svg
from .towers import compare


def _color(text: str, code: str) -> str:
    want = os.environ.get("BOCKSTEIN_COLOR")
    if want == "0" or (want is None and not sys.stdout.isatty()):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _run(case: Case):
    """case.run(), printing each warning it raises as a note line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = case.run()
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    return result


def cmd_run(case: Case, json_path: Optional[str], svg_path: Optional[str],
            ascii_: bool) -> int:
    with _outputs(json_path, svg_path) as (json_file, svg_file):
        sched, pages, profile = _run(case)
        print(f"run {sched.label}: pages {sorted(sched.pages)}, final E_{pages[-1].r}")
        if case.localized:
            names = laurent_span(pages[-1], case.D, ascii_)
            print("E_infinity = Laurent span {" + ", ".join(names) + "}")
        else:
            for line in profile.summary_lines():
                print(line)
        if sched.meta.get("conjectural"):
            print("note: conjectural schedule; towers certify internal consistency only")
        if json_file:
            _write(json_file, json_fragments(pages, profile, case.meta(sched), ascii_))
        if svg_file:
            _write(svg_file, [emit_svg(case.chart_page(pages), ChartStyle(), case.D,
                                       title=sched.label)])
    return 0


@contextmanager
def _outputs(*paths: Optional[str]) -> Iterator[List[Optional[TextIO]]]:
    """Open the output files (None for a path not given) before the run,
    without truncating them.  If the block raises, the files opened anew
    are removed."""
    created: List[str] = []
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(_open_output(path, created)) if path else None
                   for path in paths]
    except BaseException:
        for path in created:
            with suppress(OSError):
                os.remove(path)
        raise


def _open_output(path: str, created: List[str]) -> TextIO:
    """Open a file to append to, adding its path to created if this made
    it; a path that cannot be opened is a usage error."""
    try:
        try:
            fh = open(path, "x", encoding="utf-8")
        except FileExistsError:
            return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
    created.append(path)
    return fh


def _write(fh: TextIO, fragments: List[str]) -> None:
    """Replace the content of an output file opened by _outputs, flushed
    before it is reported."""
    fh.truncate(0)
    fh.writelines(fragments)
    fh.flush()
    print(f"wrote {fh.name}")


def cmd_verify(case: Case) -> int:
    case.check_oracle()
    sched, _, profile = _run(case)
    report = compare(profile, case.oracle(), case.D)
    tag = " [conjectural]" if sched.meta.get("conjectural") else ""
    for line in report.lines():
        print(line)
    if report.ok:
        print(_color(f"VERIFIED{tag}: engine matches the closed-form profile "
                     f"on 0..{case.D}", "32"))
        return 0
    print(_color(f"MISMATCH{tag}: {len(report.mismatches)} degrees disagree", "31"))
    return 1


def _parse_range(spec: str) -> Tuple[int, int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        return int(a), int(b)
    v = int(spec)
    return v, v


def _r_conj(p: int, n: int, m: Optional[int], family_n: int) -> int:
    if m is None:
        raise FormulaError("series rconj needs --m")
    return r_conj(p, family_n, m, n)


# series name -> (value at index n, given p, --m and --N; given n, --m and
# --N, an exponent e with p^e <= value, or 0 for nu, whose value is below n)
SERIES = {
    "r1": (lambda p, n, m, family_n: r_len(p, n, 1), lambda n, m, family_n: n + 1),
    "r2": (lambda p, n, m, family_n: r_len(p, n, 2), lambda n, m, family_n: n),
    "d1": (lambda p, n, m, family_n: d_deg(p, n, 1), lambda n, m, family_n: n),
    "d2": (lambda p, n, m, family_n: d_deg(p, n, 2), lambda n, m, family_n: n),
    "dlambda": (lambda p, n, m, family_n: deg_lambda(p, n), lambda n, m, family_n: n),
    "dmu": (lambda p, n, m, family_n: deg_mu(p, n), lambda n, m, family_n: n + 1),
    "nu": (lambda p, n, m, family_n: nu_p(p, n), lambda n, m, family_n: 0),
    "rconj": (_r_conj, lambda n, m, family_n: family_n - m + n if m else 0),
}


def cmd_formulas(p: int, series: str, rng: Tuple[int, int], m: Optional[int],
                 family_n: int) -> int:
    if not is_prime(p):
        raise FormulaError(f"{p} is not prime")
    lo, hi = rng
    if lo > hi:
        raise FormulaError(f"empty range {lo}..{hi}")
    value, exponent = SERIES[series]
    # every series grows with n; refuse a top value Python would not print
    # before computing it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and exponent(hi, m, family_n) * math.log10(p) >= limit:
        raise FormulaError(f"{series} at {hi} has more than {limit:,} digits, the most "
                           f"Python prints")
    print(", ".join(str(value(p, n, m, family_n)) for n in range(lo, hi + 1)))
    return 0


def _add_run_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--case", required=True, choices=list(KINDS))
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    sp.add_argument("--localized", action="store_true")
    sp.add_argument("--variant", choices=["A", "B"])
    sp.add_argument("--page-cap", type=int, dest="page_cap")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bockstein",
                                 description="Bockstein spectral-sequence engine and "
                                             "closed-form certification")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="run the engine, print towers, emit JSON/SVG")
    _add_run_args(sp)
    sp.add_argument("--json", dest="json_path", help="write the schema-2 JSON document")
    sp.add_argument("--svg", dest="svg_path")
    sp.add_argument("--ascii", action="store_true", dest="ascii_")
    sp = sub.add_parser("verify", help="run engine and oracle, compare, exit 0 iff equal")
    _add_run_args(sp)
    sp = sub.add_parser("formulas", help="print closed-form value tables")
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--series", required=True,
                    choices=list(SERIES))
    sp.add_argument("--n", required=True, help="index or range lo..hi")
    sp.add_argument("--m", type=int)
    sp.add_argument("--N", type=int, default=2, dest="family_n",
                    help="family height n for rconj (default 2)")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "formulas":
            return cmd_formulas(args.p, args.series, _parse_range(args.n), args.m,
                                args.family_n)
        case = Case(args.case, args.p, args.max_degree, n=args.n, m=args.m,
                    localized=args.localized, variant=args.variant, page_cap=args.page_cap)
        if args.command == "run":
            return cmd_run(case, args.json_path, args.svg_path, args.ascii_)
        return cmd_verify(case)
    except EngineAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ScheduleError, FormulaError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
