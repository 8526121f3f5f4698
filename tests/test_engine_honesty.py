"""Regression tests for honest reporting: exact pages up to the view's
edge, unknown reporting, and the structural facts the tower reading relies
on (dimensions non-increasing and v-multiplication surjective along slants).
"""

import warnings

import pytest

from bockstein import engine, linalg
from bockstein.cases import Case
from bockstein.closedform import t22_profile, thh_mod_p_algebra
from bockstein.engine import (
    DIM,
    MONOMIALS,
    Window,
    run,
    schedule_v0,
    schedule_v2,
)
from bockstein.formulas import deg_mu
from bockstein.towers import Unknown, compare
import golden
from reference import dim_at, reps_rows


def _top_filtration(pd):
    """The highest filtration at which page pd shows a class."""
    return max(s1 for _a, runs in pd.windows() for _s0, s1, _cell in runs)


def test_top_filtrations_are_exact():
    # the v0 view ends at the last page, s = 2; classes there whose
    # differential lands above it are decided all the same
    A = thh_mod_p_algebra(2, 2)
    w = Window(58)
    sched = schedule_v0(2, 2, w)
    pages, _ = run(A, sched, w)
    e2, final = pages[1], pages[-1]
    assert e2.r == 2 and final.r == 3
    assert _top_filtration(final) == max(sched.pages) == 2
    assert dim_at(e2, 16, 2) == 0      # mu_3 v0^2 supports d_1 into (15, 3)
    assert dim_at(e2, 15, 2) == 0      # lambda_3 v0^2 is the boundary of mu_3 v0
    for s in range(3):
        assert dim_at(final, 32, s) == 0   # mu_3^2 v0^s supports d_2
        assert dim_at(final, 0, s) == 1    # the unit's free tower


def test_full_windows_are_decidable():
    # the ladder schedules emit every page whose target tower base is inside
    # the window, so an uncapped run never needs an unknown
    A = thh_mod_p_algebra(2, 2)
    for D in (30, 50, 90):
        w = Window(D)
        _, prof = run(A, schedule_v2(2, w), w)
        assert not prof.has_unknown()
        assert prof == t22_profile(2, D)


def test_capped_run_reports_unknowns_honestly():
    # stopping at page 18 leaves the last emitted rule (page 36, killing the
    # tower at 39) unfired: the profile must say unknown there, compare must
    # list it as unverified, and the advisory bound must not overclaim
    A = thh_mod_p_algebra(2, 2)
    w = Window(50)
    sched = schedule_v2(2, w)
    _, prof = run(A, sched, w, page_cap=18)
    lens = prof.lengths(39)
    assert len(lens) == 1 and isinstance(lens[0], Unknown)
    assert lens[0].lower is None or lens[0].lower <= 36
    rep = compare(prof, t22_profile(2, 50), 50)
    assert rep.ok
    assert any(t == 39 for t, _ in rep.unverified)


def test_unknown_lower_bounds_never_overclaim():
    # sweep page caps; every unknown's advisory bound must stay consistent
    # with the true (closed-form) length
    A = thh_mod_p_algebra(2, 2)
    D = 120
    oracle = t22_profile(2, D)
    w = Window(D)
    saw_unknown = False
    for cap in (2, 4, 8, 18, 36):
        _, prof = run(A, schedule_v2(2, w), w, page_cap=cap)
        assert compare(prof, oracle, D).ok
        for t in prof.degrees():
            for u in prof.lengths(t):
                if not isinstance(u, Unknown):
                    continue
                saw_unknown = True
                if u.lower is not None:
                    assert any(L == float("inf") or L >= u.lower
                               for L in oracle.lengths(t)), (cap, t, u)
    assert saw_unknown


def _possibly_absent_degrees(prof, oracle):
    """Degrees of the profile's possibly-absent unknowns, after checking
    that no unknown bound overclaims against the oracle."""
    out = []
    for t in prof.degrees():
        for u in prof.lengths(t):
            if not isinstance(u, Unknown):
                continue
            if u.possibly_absent:
                assert u.lower is None, (t, u)
                out.append(t)
            elif u.lower is not None:
                assert any(L == float("inf") or L >= u.lower
                           for L in oracle.lengths(t)), (t, u)
    return out


@pytest.mark.parametrize("case,absent_at", [
    (Case("v1", 3, 400, page_cap=9), 162),       # mu_3^3 supports the unfired d_27
    (Case("v0", 2, 200, n=2, page_cap=2), 64),   # mu_3^4 supports the unfired d_3
], ids=["v1", "v0"])
def test_capped_sources_may_hold_no_tower(case, absent_at):
    # a class that supports a differential of a page the cap left unfired
    # loses its whole v-tower: the unknown there must claim no tower, on the
    # |v| > 0 path (v1) and on the |v| = 0 path (v0) alike
    sched, _, prof = case.run()
    assert case.page_cap < max(sched.pages)
    oracle = case.oracle()
    rep = compare(prof, oracle, case.D)
    assert rep.ok
    absent = _possibly_absent_degrees(prof, oracle)
    assert absent_at in absent and not oracle.lengths(absent_at)
    assert {t for t, _ in rep.unverified} >= set(absent)


def test_localized_capped_run_claims_no_tower():
    # with v inverted an unfired page removes its target's tower too, so a
    # capped localized run may not claim a tower where one may vanish
    case = Case("v2", 3, 60, localized=True, page_cap=3)
    _, _, prof = case.run()
    oracle = case.oracle()
    assert compare(prof, oracle, case.D).ok
    assert _possibly_absent_degrees(prof, oracle) == [17, 53]


def test_dims_nonincreasing_and_v_surjective_along_slants():
    # the two structural facts behind the tower reading, checked numerically
    # on every class of every page of a mixed run
    A = thh_mod_p_algebra(3, 2)
    w = Window(140)
    pages, _ = run(A, schedule_v2(3, w), w)
    dv = pages[0].ctx.deg_v
    p = A.p
    checked = 0
    for pd in pages:
        # the cell at (t + |v|, s + 1) is the next one up the A-degree's
        # window, whose filtrations are consecutive
        for _a, runs in pd.windows():
            column = [cell for s0, s1, cell in runs for _ in range(s0, s1 + 1)]
            for cell, nxt in zip(column, column[1:]):
                assert nxt[DIM] <= cell[DIM]
                if nxt[DIM] == 0:
                    continue
                # v * reps of this cell span the next cell modulo its boundaries
                rows = []
                for rep in reps_rows(cell):
                    vec = [0] * len(nxt[MONOMIALS])
                    for mon, c in zip(cell[MONOMIALS], rep):
                        if c:
                            vec[nxt[MONOMIALS].index(mon)] = c
                    coeffs = engine._express(nxt, vec, p, {})
                    assert coeffs is not None
                    rows.append(coeffs)
                assert linalg.rank(rows, p) == nxt[DIM]
                checked += 1
    assert checked > 50


def test_v0_stabilization_horizon():
    # the view ends at the last page R, past which the v0 columns are
    # stable: the pages read through a view up to R + 4 show at every
    # filtration above R what the view shows at R
    A = thh_mod_p_algebra(2, 3)
    w = Window(200)
    sched = schedule_v0(2, 3, w)
    pages, _ = run(A, sched, w)
    final = pages[-1]
    R = max(sched.pages)
    assert final.ctx.s_hi == R == 3
    wide = golden.reread(pages, R + 4)[-1]
    for t in range(0, 201):
        assert {dim_at(wide, t, s) for s in range(R, R + 5)} == {dim_at(final, t, R)}, t


# every v0 height the sweeps below run, each at p = 2, 3 and 5
V0_HEIGHTS = [(p, n) for p in (2, 3, 5) for n in range(5)]


def _v0_edges(p, n, top=300):
    """The windows D <= top at which a v0 schedule gains a page, and the
    window just below each, and top itself: the windows where a page's
    lowest end, p^j |mu| - 1, is D or D + 1."""
    dm = deg_mu(p, n)
    edges = {top}
    q = 1
    while q * dm - 2 <= top:
        edges |= {D for D in (q * dm - 2, q * dm - 1) if 0 <= D <= top}
        q *= p
    return sorted(edges)


@pytest.mark.parametrize("p, n", V0_HEIGHTS, ids=str)
def test_v0_schedules_emit_exactly_the_pages_with_an_end_in_the_window(p, n):
    # every emitted page's d has an end in 0..D, and the first page not
    # emitted, which the schedule names as its future page, has none: its
    # lowest end is the future floor, past D
    A = thh_mod_p_algebra(p, n)

    def ends(page):
        (rule,) = page.rules
        return [A.degree(rule.source)] + [A.degree(m[:-1]) for m in rule.target]

    for D in range(301):
        sched = schedule_v0(p, n, Window(D))
        J = len(sched.pages)
        assert sorted(sched.pages) == list(range(1, J + 1))
        for page in sched.pages.values():
            assert any(0 <= e <= D for e in ends(page)), (D, page.r)
        # the first page not emitted, from a window that holds it
        nxt = schedule_v0(p, n, Window(p ** J * deg_mu(p, n))).pages[J + 1]
        assert min(ends(nxt)) == sched.future_target_floor > D
        assert sched.future_min_page == J + 1


@pytest.mark.parametrize("p, n", V0_HEIGHTS, ids=str)
def test_the_top_filtration_of_a_v0_view_is_the_last_page(p, n):
    # the view ends at the schedule's last page R: every bar starts at or
    # below R, and the last page's target starts a bar at R, so no lower
    # bound holds every bar
    for D in _v0_edges(p, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # windows below the first page warn
            sched, pages, _ = Case("v0", p, D, n=n).run()
        R = max(sched.pages, default=0)
        for pd in pages:
            assert (pd.ctx.s_lo, pd.ctx.s_hi) == (0, R)
            assert _top_filtration(pd) == R
        starts = [s for bars in pages[-1].degrees.values() for s, _ in bars]
        assert max(starts) == R, D


@pytest.mark.parametrize("p, n", V0_HEIGHTS, ids=str)
def test_a_capped_v0_run_reads_its_towers_up_to_the_cap(p, n):
    # every unknown of a capped v0 run may hold no tower or is at least
    # cap + 1 long: the fired pages decide every tower they kill
    saw = False
    for D in _v0_edges(p, n):
        for cap in range(1, len(schedule_v0(p, n, Window(D)).pages)):
            case = Case("v0", p, D, n=n, page_cap=cap)
            _, _, prof = case.run()
            assert compare(prof, case.oracle(), D).ok
            for t in prof.degrees():
                for x in prof.lengths(t):
                    if isinstance(x, Unknown):
                        saw = True
                        assert x.possibly_absent or x.lower >= cap + 1, (D, cap, t, x)
    assert saw or len(schedule_v0(p, n, Window(300)).pages) < 2
