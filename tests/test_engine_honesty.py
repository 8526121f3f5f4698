"""Regression tests for honest reporting: exact pages up to the view's
edge, unknown reporting, and the structural facts the tower reading relies
on (dimensions non-increasing and v-multiplication surjective along slants).
"""

import pytest

from bockstein import linalg
from bockstein.cases import Case
from bockstein.closedform import t22_profile, thh_mod_p_algebra
from bockstein.engine import (
    Window,
    run,
    schedule_v0,
    schedule_v2,
)
from bockstein.towers import Unknown, compare


def test_top_filtrations_are_exact():
    # the v0 view ends at s = 7; classes there whose differential lands
    # above it are decided all the same
    A = thh_mod_p_algebra(2, 2)
    w = Window(58)
    pages, _ = run(A, schedule_v0(2, 2, w), w)
    e2, final = pages[1], pages[-1]
    assert e2.r == 2 and final.r == 3
    assert max(s for (_t, s) in final.cells) == 7
    assert e2.dim(16, 7) == 0      # mu_3 v0^7 supports d_1 into (15, 8)
    assert e2.dim(15, 7) == 0      # lambda_3 v0^7 is its boundary
    for s in range(8):
        assert final.dim(32, s) == 0   # mu_3^2 v0^s supports d_2
        assert final.dim(0, s) == 1    # the unit's free tower


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
        for (t, s), cell in pd.cells.items():
            nxt = pd.cells.get((t + dv, s + 1))
            if nxt is None:
                continue
            assert nxt.dim <= cell.dim
            if nxt.dim == 0:
                continue
            # v * reps of this cell span the next cell modulo its boundaries
            rows = []
            for rep in cell.reps_rows():
                vec = [0] * len(nxt.monomials)
                for mon, c in zip(cell.monomials, rep):
                    if c:
                        vec[nxt.monomials.index(mon)] = c
                coeffs = nxt.express(vec, p)
                assert coeffs is not None
                rows.append(coeffs)
            assert linalg.rank(rows, p) == nxt.dim
            checked += 1
    assert checked > 50


def test_v0_stabilization_horizon():
    # beyond the sum of the fired pages, v0-columns are stable; the engine
    # asserts this internally, here we confirm the dims explicitly
    A = thh_mod_p_algebra(2, 3)
    w = Window(200)
    pages, prof = run(A, schedule_v0(2, 3, w), w)
    final = pages[-1]
    horizon = sum(r for r in (1, 2, 3))
    for t in range(0, 201):
        a, b = final.dim(t, horizon), final.dim(t, horizon + 1)
        assert a == b, (t, a, b)
