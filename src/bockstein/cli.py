"""Command-line interface: run, verify, formulas.

Exit codes: 0 success/verified, 1 profile mismatch, 2 usage error,
3 internal assertion (d o d != 0 and friends).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraError
from .closedform import (
    localized_expected_profile,
    t0n_profile,
    t12_profile,
    t22_profile,
    thh_mod_p_algebra,
    tmn_profile,
)
from .engine import (
    MAX_COST,
    EngineAssertionError,
    ScheduleError,
    Window,
    estimate_cost,
    run as run_engine,
    schedule_conj,
    schedule_v0,
    schedule_v1,
    schedule_v2,
)
from .formulas import FormulaError, d_deg, deg_lambda, deg_mu, nu_p, r_conj, r_len
from .jsonio import emit_json, rep_str
from .svg import ChartStyle, emit_svg
from .towers import compare


@dataclass
class RunConfig:
    case: str
    p: int
    max_degree: int
    n: Optional[int] = None
    m: Optional[int] = None
    localized: bool = False
    variant: Optional[str] = None
    page_cap: Optional[int] = None
    json_path: Optional[str] = None
    svg_path: Optional[str] = None
    ascii_: bool = False


def _color(text: str, code: str) -> str:
    want = os.environ.get("BOCKSTEIN_COLOR")
    if want == "0" or (want is None and not sys.stdout.isatty()):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _check_cost(cfg: RunConfig, deg_v: int, pages: List[int]) -> None:
    cost = estimate_cost(deg_v, cfg.max_degree, pages, cfg.localized, cfg.page_cap)
    if cost > MAX_COST:
        raise ScheduleError(f"the run would keep about {cost:,} (A-degree, page) states, "
                            f"above the limit of {MAX_COST:,}; choose a smaller --max-degree")


def _build(cfg: RunConfig):
    """Algebra, schedule and window of a case.  The size of the run is
    checked first: the v0 schedule has one rule per mu-power in the window,
    so its pages are counted in closed form, while the ladder schedules take
    a step per page and are built before the check."""
    w = Window(cfg.max_degree)
    if cfg.case == "v0":
        if cfg.n is None:
            raise ScheduleError("case v0 needs --n")
        if cfg.localized:
            raise ScheduleError("v0 has |v| = 0; the localized (rational) answer "
                                "is the closed-form module's job")
        # mu^k fires on page nu_p(k) + 1, so page j + 1 needs k = p^j
        dm = deg_mu(cfg.p, cfg.n)
        _check_cost(cfg, 0, [j + 1 for j in range(cfg.max_degree.bit_length() + 1)
                             if cfg.p ** j * dm <= cfg.max_degree + 1])
        A = thh_mod_p_algebra(cfg.p, cfg.n)
        sched = schedule_v0(cfg.p, cfg.n, w)
    elif cfg.case == "v1":
        A = thh_mod_p_algebra(cfg.p, 2)
        sched = schedule_v1(cfg.p, w, variant=cfg.variant)
    elif cfg.case == "v2":
        A = thh_mod_p_algebra(cfg.p, 2)
        sched = schedule_v2(cfg.p, w)
    elif cfg.case == "conj":
        if cfg.n is None or cfg.m is None:
            raise ScheduleError("case conj needs --n and --m")
        if cfg.localized:
            raise ScheduleError("no localized answer is asserted for the conjectural case")
        A = thh_mod_p_algebra(cfg.p, cfg.n)
        sched = schedule_conj(cfg.p, cfg.n, cfg.m, w)
    else:
        raise ScheduleError(f"unknown case {cfg.case!r}")
    if cfg.case != "v0":
        _check_cost(cfg, sched.v.degree, sorted(sched.pages))
    return A, sched, w


def _oracle(cfg: RunConfig):
    if cfg.localized:
        return localized_expected_profile(cfg.case, cfg.p, cfg.max_degree)
    if cfg.case == "v0":
        return t0n_profile(cfg.p, cfg.n, cfg.max_degree)
    if cfg.case == "v1":
        if cfg.p == 2:
            raise ScheduleError("no oracle is asserted for the p = 2 v1 case")
        return t12_profile(cfg.p, cfg.max_degree)
    if cfg.case == "v2":
        return t22_profile(cfg.p, cfg.max_degree)
    if cfg.case == "conj":
        return tmn_profile(cfg.p, cfg.n, cfg.m, cfg.max_degree)
    raise ScheduleError(f"unknown case {cfg.case!r}")


def _meta(cfg: RunConfig, sched) -> Dict[str, object]:
    return {
        "case": cfg.case,
        "p": cfg.p,
        "n": cfg.n,
        "m": cfg.m,
        "D": cfg.max_degree,
        "localized": cfg.localized,
        "variant": cfg.variant,
        "pages": sorted(sched.pages),
    }


def _print_localized_span(pages, cfg: RunConfig) -> None:
    final = pages[-1]
    names: List[str] = []
    for b in range(0, cfg.max_degree + 1):
        cell = final.cells.get((b, 0))
        if cell is None or cell.dim == 0:
            continue
        for row in cell.reps_rows():
            names.append(rep_str(final.ctx.A, cell.monomials, row, final.ctx.v.name, 0,
                                 cfg.ascii_))
    print("E_infinity = Laurent span {" + ", ".join(names) + "}")


def cmd_run(cfg: RunConfig) -> int:
    A, sched, w = _build(cfg)
    pages, profile = run_engine(A, sched, w, localized=cfg.localized, page_cap=cfg.page_cap)
    print(f"run {sched.label}: pages {sorted(sched.pages)}, final E_{pages[-1].r}")
    if cfg.localized:
        _print_localized_span(pages, cfg)
    else:
        for line in profile.summary_lines():
            print(line)
    if sched.meta.get("conjectural"):
        print("note: conjectural schedule; towers certify internal consistency only")
    if cfg.json_path:
        with open(cfg.json_path, "w", encoding="utf-8") as fh:
            fh.write(emit_json(pages, profile, _meta(cfg, sched), cfg.ascii_))
        print(f"wrote {cfg.json_path}")
    if cfg.svg_path:
        page = pages[-1] if cfg.page_cap is None else next(
            (pg for pg in pages if pg.r >= cfg.page_cap), pages[-1])
        with open(cfg.svg_path, "w", encoding="utf-8") as fh:
            fh.write(emit_svg(page, ChartStyle(), cfg.max_degree, title=sched.label))
        print(f"wrote {cfg.svg_path}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    A, sched, w = _build(cfg)
    pages, profile = run_engine(A, sched, w, localized=cfg.localized, page_cap=cfg.page_cap)
    oracle = _oracle(cfg)
    report = compare(profile, oracle, cfg.max_degree)
    tag = " [conjectural]" if sched.meta.get("conjectural") else ""
    for line in report.lines():
        print(line)
    if report.ok:
        print(_color(f"VERIFIED{tag}: engine matches the closed-form profile "
                     f"on 0..{cfg.max_degree}", "32"))
        return 0
    print(_color(f"MISMATCH{tag}: {len(report.mismatches)} degrees disagree", "31"))
    return 1


def _parse_range(spec: str) -> Tuple[int, int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        return int(a), int(b)
    v = int(spec)
    return v, v


def cmd_formulas(p: int, series: str, rng: Tuple[int, int], m: Optional[int],
                 family_n: int) -> int:
    lo, hi = rng
    vals = []
    for n in range(lo, hi + 1):
        if series == "r1":
            vals.append(r_len(p, n, 1))
        elif series == "r2":
            vals.append(r_len(p, n, 2))
        elif series == "d1":
            vals.append(d_deg(p, n, 1))
        elif series == "d2":
            vals.append(d_deg(p, n, 2))
        elif series == "dlambda":
            vals.append(deg_lambda(p, n))
        elif series == "dmu":
            vals.append(deg_mu(p, n))
        elif series == "nu":
            vals.append(nu_p(p, n))
        elif series == "rconj":
            if m is None:
                raise FormulaError("series rconj needs --m")
            vals.append(r_conj(p, family_n, m, n))
        else:
            raise FormulaError(f"unknown series {series!r}")
    print(", ".join(str(v) for v in vals))
    return 0


def _add_run_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--case", required=True, choices=["v0", "v1", "v2", "conj"])
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    sp.add_argument("--localized", action="store_true")
    sp.add_argument("--variant", choices=["A", "B"])
    sp.add_argument("--page-cap", type=int, dest="page_cap")
    sp.add_argument("--json", dest="json_path")
    sp.add_argument("--svg", dest="svg_path")
    sp.add_argument("--ascii", action="store_true", dest="ascii_")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bockstein",
                                 description="Bockstein spectral-sequence engine and "
                                             "closed-form certification")
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="run the engine, print towers, emit JSON/SVG")
    _add_run_args(sp)
    sp = sub.add_parser("verify", help="run engine and oracle, compare, exit 0 iff equal")
    _add_run_args(sp)
    sp = sub.add_parser("formulas", help="print closed-form value tables")
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--series", required=True,
                    choices=["r1", "r2", "d1", "d2", "dlambda", "dmu", "nu", "rconj"])
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
        cfg = RunConfig(
            case=args.case, p=args.p, max_degree=args.max_degree, n=args.n, m=args.m,
            localized=args.localized, variant=args.variant, page_cap=args.page_cap,
            json_path=args.json_path, svg_path=args.svg_path, ascii_=args.ascii_,
        )
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_verify(cfg)
    except EngineAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except (ScheduleError, FormulaError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
