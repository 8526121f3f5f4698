import dataclasses
import gc
import json
import random
import sys
import tracemalloc
import warnings
from bisect import bisect_left
from collections import defaultdict
from operator import itemgetter
from typing import Dict

import pytest

from bockstein.algebra import (
    EXTERIOR,
    POLYNOMIAL,
    Algebra,
    AlgebraError,
    ForeignGeneratorError,
    GeneratorSpec,
    basis_up_to,
    mul_monomials,
    multiply,
    require_prime,
    sparse_monomial,
)
from bockstein import engine, linalg
from bockstein.cases import Case
from bockstein.closedform import (
    t0n_presentation,
    t0n_profile,
    t12_presentation,
    t12_profile,
    t22_presentation,
    t22_profile,
    thh_mod_p_algebra,
    tmn_presentation,
)
from bockstein.engine import (
    AmbiguousPatternError,
    BOUNDARIES,
    DIM,
    MONOMIALS,
    REPS,
    DeadSourceError,
    DifferentialSchedule,
    EngineContext,
    MalformedRuleError,
    PageData,
    Rule,
    RulePage,
    ScheduleError,
    Window,
    _bar_at,
    _d_of_monomial,
    _homology,
    _page_generators,
    _record,
    _rule_degrees,
    _set_bits,
    apply_page,
    as_window,
    build_e1,
    reach,
    run,
    schedule_conj,
    schedule_v0,
    schedule_v1,
    schedule_v2,
)
from bockstein.formulas import deg_mu, nu_p
from bockstein.jsonio import emit_json, laurent_span
from bockstein.svg import ChartStyle, emit_svg
from bockstein.towers import INF, TowerProfile, Unknown, compare, length_str
import golden
from reference import derivation_extend, dim_at, element, make_cell, rank_mod_p, reps_rows


def v_gen(name, deg):
    return GeneratorSpec(name, deg, POLYNOMIAL)


def test_build_e1_dims():
    # pages 1 and 2 with no rules fire nothing and fix the view's filtrations
    A = thh_mod_p_algebra(2, 2)
    sched = DifferentialSchedule(v_gen("v0", 0), {1: RulePage(1, []), 2: RulePage(2, [])})
    pd = run(A, sched, Window(16))[0][0]
    assert max(s for (_t, s) in _cell_view(pd)) == 2  # the last page
    for s in range(0, 3):
        assert dim_at(pd, 15, s) == 1  # lambda_3 v0^s
        assert dim_at(pd, 1, s) == 0
    assert dim_at(pd, 15, 3) == 0  # above the view
    assert pd.r == 1 and not _diff_view(pd)


def test_build_e1_localized_laurent_class():
    A = thh_mod_p_algebra(2, 2)
    with pytest.warns(UserWarning, match="window too small"):
        (pd,), _ = run(A, DifferentialSchedule(v_gen("v2", 6), {}), Window(12), localized=True)
    cell = _cell_view(pd).get((3, -2))  # lambda_3 v2^{-2}
    assert cell is not None and cell[DIM] == 1
    assert cell[MONOMIALS] == (A.monomial(**{"λ3": 1}),)
    # the view lists -floor(D/|v|) <= s <= floor(D/|v|)
    assert {s for (_t, s) in _cell_view(pd)} == set(range(-2, 3))


def test_apply_page_empty_rules_increments():
    # a page with no rules has an empty cone: it records no differential
    # and passes every A-degree's bars on as they are
    A = thh_mod_p_algebra(2, 2)
    (pd, nxt), _ = run(A, DifferentialSchedule(v_gen("v0", 0), {1: RulePage(1, [])}), Window(16))
    assert nxt.r == 2 and not pd.maps and pd.degrees
    assert list(nxt.degrees) == list(pd.degrees)
    assert all(nxt.degrees[a] is bars for a, bars in pd.degrees.items())


def _cell_view(pd):
    """The classes of a page at every (t, s) of the window, built eagerly:
    the (t, s) view as engine._cell_view built it before the views became
    lazy, kept as the reference the lazy view is checked against."""
    dv = pd.ctx.deg_v
    return {(a + s * dv, s): cell for a in pd.degrees
            for s0, s1, cell in pd.window(a) for s in range(s0, s1 + 1)}


def _diff_view(pd):
    """The differentials of a page at every (t, s) source windows_maps
    shows, built eagerly as engine._diff_view built them (the reference),
    each the record maps holds; the one at (t, s) hits (t - 1, s + r)."""
    dv = pd.ctx.deg_v
    return {(a + s * dv, s): rec for a, runs in pd.windows_maps()
            for s0, s1, rec in runs for s in range(s0, s1 + 1)}


# |v| = 0, v1, v2 capped early and late, localized, and the p = 2 variant B
VIEW_CASES = [
    Case("v0", 2, 58, n=2), Case("v1", 3, 130), Case("v2", 2, 120, page_cap=2),
    Case("v2", 2, 120, page_cap=8), Case("v2", 3, 120, localized=True),
    Case("v1", 2, 60, variant="B"),
]


@pytest.mark.parametrize("case", VIEW_CASES, ids=golden.case_id)
def test_lazy_views_equal_the_eager_ones(case):
    # each page's cells and diffs, computed from the bars when read, list
    # the keys of the eager views in the same order, with the same length,
    # and give, by values(), the very cell tuples and DiffRecords the bars
    # hold; the keys in order pin what the window shows and what it does not
    _, pages, _ = case.run()
    assert any(pd.maps for pd in pages)
    for pd in pages:
        for view, ref in ((pd.cells, _cell_view(pd)), (pd.diffs, _diff_view(pd))):
            assert list(view) == list(ref) and len(view) == len(ref)
            want = [(key, id(item)) for key, item in ref.items()]
            assert [(key, id(item)) for key, item in zip(view, view.values())] == want


@pytest.mark.parametrize("case", golden.FIXED, ids=golden.case_id)
def test_a_record_is_the_one_maps_holds_and_fits_its_page(case):
    # a d_r record stores only its matrix and rank: windows_maps gives the
    # very record maps holds, and its matrix has a row per class of the source
    # (t, s) and a column per class of the target (t - 1, s + r) the page
    # implies; a localized source at t = 0 has its target at t = -1, where
    # the view shows no cell
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, pages, _ = case.run()
    for pd in pages:
        dv, r, cells = pd.ctx.deg_v, pd.r, _cell_view(pd)
        for (t, s), rec in _diff_view(pd).items():
            assert rec is _bar_at(pd.maps[t - s * dv], s)
            if t >= 1:
                width = cells[(t - 1, s + r)][DIM]
                assert all(len(row) == width for row in rec.matrix), (r, t, s)
                if t <= case.D:
                    assert len(rec.matrix) == cells[(t, s)][DIM], (r, t, s)


def _refuse(self, *args):
    raise AssertionError("a (t, s) page view was read")


@pytest.mark.parametrize("case", golden.FIXED, ids=golden.case_id)
def test_no_library_reader_reads_a_page_view(case, monkeypatch):
    # run, compare, the JSON writer and the chart read the bars through
    # the window walks and readers, never a (t, s) view (_entries is what
    # iterating and values() walk)
    for name in ("__iter__", "__len__", "values", "_entries"):
        monkeypatch.setattr(engine._PageView, name, _refuse)
    with pytest.raises(AssertionError, match="view was read"):
        len(PageData(1, None, {}).cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched, pages, profile = case.run()
    # no oracle is asserted for v1 at p = 2; compare the run with itself
    expected = profile if (case.kind, case.p) == ("v1", 2) else case.oracle()
    compare(profile, expected, case.D)
    emit_json(pages, profile, case.meta(sched))
    emit_svg(case.chart_page(pages), ChartStyle(), case.D, title=sched.label)


@pytest.mark.parametrize("order", ["forward", "backward"])
@pytest.mark.parametrize("case", VIEW_CASES, ids=golden.case_id)
def test_derived_views_equal_whole_views(case, order):
    # read in either order, each page's (t, s) view has the keys, in the same
    # order, and the very cell tuples of its bars looked up filtration by
    # filtration over the whole window; an A-degree the page before left
    # untouched shows each (t, s) the same cell on both pages
    _, pages, _ = case.run()
    for pd in (pages if order == "forward" else pages[::-1]):
        ctx = pd.ctx
        whole = {}
        for a, bars in pd.degrees.items():
            for s in range(ctx.s_lo, ctx.s_hi + 1):
                t = a + s * ctx.deg_v
                if 0 <= t <= ctx.max_degree:
                    whole[(t, s)] = _bar_at(bars, s)
        assert list(pd.cells) == list(whole)
        assert list(map(id, pd.cells.values())) == list(map(id, whole.values()))
    for pd, nxt in zip(pages, pages[1:]):
        dv, shift = pd.ctx.deg_v, 1 + pd.r * pd.ctx.deg_v
        touched = set(pd.maps) | {a - shift for a in pd.maps}
        here, there = (dict(zip(page.cells, page.cells.values())) for page in (pd, nxt))
        kept = [key for key in here if key[0] - key[1] * dv not in touched]
        assert kept and all(there[key] is here[key] for key in kept)


@pytest.mark.parametrize("case", [c for c in golden.FIXED if not c.localized] + [
    Case("v2", 2, 120, page_cap=2), Case("v2", 2, 120, page_cap=8),
    Case("v2", 3, 120, localized=True)], ids=golden.case_id)
def test_untouched_a_degrees_share_their_bars(case):
    # a page passes the very bars object of every A-degree its differentials
    # neither leave nor enter on to the next page; bars start at the lowest
    # filtration and then at increasing fired pages, no two consecutive ones
    # hold equal cells (a cell is a tuple, so equal is the same classes and
    # boundaries over the same monomials), and dim_at(t, s) reads them as
    # the whole view does
    _, pages, _ = case.run()
    for pd, nxt in zip(pages, pages[1:]):
        shift = 1 + pd.r * pd.ctx.deg_v
        touched = set(pd.maps) | {a - shift for a in pd.maps}
        assert len(touched) < len(pd.degrees)
        assert all(nxt.degrees[a] is bars for a, bars in pd.degrees.items() if a not in touched)
    for pd in pages:
        for bars in pd.degrees.values():
            starts = [s for s, _ in bars]
            assert starts[0] == pd.ctx.s_lo and starts == sorted(set(starts))
            assert all(c0 != c1 for (_, c0), (_, c1) in zip(bars, bars[1:]))
        whole = _cell_view(pd)
        assert all(dim_at(pd, t, s) == cell[DIM] for (t, s), cell in whole.items())


# the levels of tuples a page's degrees hold: bars, bar pairs, cells, and
# the cells' reps and boundaries with their rows
STATE_DEPTH = 5


@pytest.mark.parametrize("case", golden.FIXED, ids=golden.case_id)
def test_the_run_state_is_plain_data(case):
    # every bar, bar pair, cell, reps and boundaries of every page is an
    # exact tuple of ints, tuples and None, so the collector stops walking
    # it.  CPython untracks a tuple only in a collection that sees its items
    # untracked, and a collection sees a container before what it holds, so
    # each full collection untracks one more level: after as many as the
    # state is deep, nothing reachable from a page's degrees is tracked.  A
    # list, or any other container that stays tracked, in a cell keeps the
    # cell and its bars tracked too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, pages, _ = case.run()
    for _ in range(STATE_DEPTH):
        gc.collect()
    seen, tracked = set(), []
    todo = [bars for pd in pages for bars in pd.degrees.values()]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked.append(obj)
        todo += gc.get_referents(obj)
    assert not tracked, tracked[:3]
    assert all(not gc.is_tracked(pd.degrees) for pd in pages)


@pytest.mark.parametrize("case", golden.FIXED, ids=golden.case_id)
def test_a_page_differs_from_the_one_before_where_that_one_fired(case):
    # what the JSON writer reuses records by: each page run returns after
    # E_1 either shares the degrees of the page before it (no page fired in
    # between), or was fired from that page, with the maps it recorded
    # there, and holds another bars object exactly at the A-degrees
    # changed() gives
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, pages, _ = case.run()
    assert pages[0].fired_from is None
    for before, pd in zip(pages, pages[1:]):
        if pd.degrees is before.degrees:
            continue
        assert pd.fired_from is before and pd.ctx is before.ctx
        assert pd.fired_maps is before.maps
        assert list(pd.degrees) == list(before.degrees)
        changed = {a for a, bars in pd.degrees.items() if bars is not before.degrees[a]}
        assert changed == pd.changed(), pd.r


def _expand(runs):
    """(s, id(item)) at each filtration of runs (s_from, s_to, item)."""
    return [(s, id(item)) for s0, s1, item in runs for s in range(s0, s1 + 1)]


@pytest.mark.parametrize("case", golden.FIXED + [
    Case("v2", 3, 10, localized=True), Case("v1", 3, 0), Case("v1", 3, 4)], ids=golden.case_id)
def test_window_readers_follow_the_window_rule(case):
    # the readers against the rule written out, probed on every kept
    # A-degree a: a class at (a + s|v|, s) shows when 0 <= t <= D and
    # s_lo <= s <= s_hi, and a nonzero d_r out of it when 0 <= t <= D + 1
    # and s_lo <= s <= s_hi - r.  windows gives each shown A-degree's
    # window, in increasing order, and windows_maps each source of d_r, in
    # increasing order.  The cases include s_hi = 0 (localized v2 p=3
    # D=10), a window with no page (v1 p=3 D=0) and |v| = 0 (v0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, pages, _ = case.run()
    for pd in pages:
        ctx = pd.ctx
        dv, D = ctx.deg_v, ctx.max_degree
        shown, shown_maps = [], dict(pd.windows_maps())
        assert list(shown_maps) == sorted(pd.maps)
        for a, bars in pd.degrees.items():
            want = [(s, id(_bar_at(bars, s))) for s in range(ctx.s_lo, ctx.s_hi + 1)
                    if 0 <= a + s * dv <= D]
            assert _expand(pd.window(a)) == want, a
            shown += [a] if want else []
            row = pd.maps.get(a, ((ctx.s_lo, None),))
            want = [(s, id(_bar_at(row, s))) for s in range(ctx.s_lo, ctx.s_hi - pd.r + 1)
                    if 0 <= a + s * dv <= D + 1 and _bar_at(row, s) is not None]
            assert _expand(shown_maps.get(a, [])) == want, a
        assert [a for a, _ in pd.windows()] == shown
        assert list(pd.windows()) == [(a, list(pd.window(a))) for a in shown]
        assert not list(pd.window(-1))


def test_apply_page_v2_tower_length_two():
    # d_2(mu_3) = v_2^2 lambda_1 at p=2: the lambda_1 slant keeps s = 0, 1 only
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v2", 6)
    mu = A.monomial(**{"μ3": 1})
    Av = A.adjoin(v)
    target = element(Av, (1, Av.monomial(**{"λ1": 1, "v2": 2})))
    pages, _ = run(A, DifferentialSchedule(v, {2: RulePage(2, [Rule(mu, target)])}), Window(40))
    nxt = pages[-1]
    assert [pd.r for pd in pages] == [1, 2, 3]
    dims = [dim_at(nxt, 3 + 6 * j, j) for j in range(5)]
    assert dims == [1, 1, 0, 0, 0]


def test_apply_page_leibniz_matches_derivation_extend():
    # p=3 v0 case: d_1(mu_3) = v0 lambda_3 kills lambda_1 mu_3 with target
    # v0 lambda_1 lambda_3 (sign absorbed in the unit)
    A = thh_mod_p_algebra(3, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})))
    (pd, nxt), _ = run(A, DifferentialSchedule(v, {1: RulePage(1, [Rule(mu, target)])}),
                       Window(120))
    key = (5 + 54, 0)  # lambda_1 mu_3
    rec = _diff_view(pd).get(key)
    assert rec is not None and rec.rank == 1
    # cross-check the matrix against the signed derivation on the monomial
    hand = derivation_extend({"μ3": target}, {Av.monomial(**{"λ1": 1, "μ3": 1}): 1}, Av)
    tcell = _cell_view(pd)[(key[0] - 1, key[1] + pd.r)]
    want = [0] * len(tcell[MONOMIALS])
    for m, c in hand.items():
        want[tcell[MONOMIALS].index(m[:-1])] = c
    assert rec.matrix == [want]
    # and the class is dead on the next page
    assert dim_at(nxt, *key) == 0


# the bars of each page of the run below, as its schema-2 `levels`:
# A-degree -> [(s_from, s_to, dim, lead monomials)], recorded by the engine
# that kept one boundary level per fired page, each cut at the view's top
# filtration, the last page 3
MULTI_BARS = {
    1: {
        0: [(0, 3, 1, ['1'])],
        1: [(0, 3, 2, ['x2', 'x1'])],
        2: [(0, 3, 2, ['y', 'x1·x2'])],
        3: [(0, 3, 3, ['x3', 'x2·y', 'x1·y'])],
        4: [(0, 3, 4, ['y^2', 'x2·x3', 'x1·x3', 'x1·x2·y'])],
        5: [(0, 3, 4, ['x3·y', 'x2·y^2', 'x1·y^2', 'x1·x2·x3'])],
        6: [(0, 3, 4, ['y^3', 'x2·x3·y', 'x1·x3·y', 'x1·x2·y^2'])],
    },
    2: {
        0: [(0, 3, 1, ['1'])],
        1: [(0, 3, 2, ['x2', 'x1'])],
        2: [(0, 0, 2, ['y', 'x1·x2']), (1, 3, 1, ['y'])],
        3: [(0, 3, 2, ['x2·y', 'x1·y'])],
        4: [(0, 0, 4, ['y^2', 'x2·x3', 'x1·x3', 'x1·x2·y']), (1, 3, 3, ['y^2', 'x2·x3', 'x1·x3'])],
        5: [(0, 3, 3, ['x2·y^2', 'x1·y^2', 'x1·x2·x3'])],
        6: [(0, 0, 4, ['y^3', 'x2·x3·y', 'x1·x3·y', 'x1·x2·y^2']),
            (1, 3, 3, ['y^3', 'x2·x3·y', 'x1·x3·y'])],
    },
    3: {
        0: [(0, 3, 1, ['1'])],
        1: [(0, 1, 2, ['x2', 'x1']), (2, 3, 1, ['x1'])],
        2: [(0, 0, 1, ['x1·x2'])],
        3: [(0, 1, 2, ['x2·y', 'x1·y']), (2, 3, 1, ['x1·y'])],
        4: [(0, 0, 3, ['x2·x3', 'x1·x3', 'x1·x2·y']), (1, 3, 2, ['x2·x3', 'x1·x3'])],
        5: [(0, 1, 3, ['x2·y^2', 'x1·y^2', 'x1·x2·x3']), (2, 3, 2, ['x2·y^2', 'x1·y^2'])],
        6: [(0, 0, 3, ['y^3', 'x2·x3·y', 'x1·x2·y^2']), (1, 3, 2, ['y^3', 'x2·x3·y'])],
    },
    4: {
        0: [(0, 3, 1, ['1'])],
        1: [(0, 1, 2, ['x2', 'x1']), (2, 3, 1, ['x1'])],
        2: [(0, 0, 1, ['x1·x2'])],
        3: [(0, 1, 2, ['x2·y', 'x1·y']), (2, 3, 1, ['x1·y'])],
        4: [(0, 0, 3, ['x2·x3', 'x1·x3', 'x1·x2·y']), (1, 3, 2, ['x2·x3', 'x1·x3'])],
        5: [(0, 1, 3, ['x2·y^2', 'x1·y^2', 'x1·x2·x3']), (2, 2, 2, ['x2·y^2', 'x1·y^2']),
            (3, 3, 1, ['x2·y^2'])],
        6: [(0, 0, 2, ['x2·x3·y', 'x1·x2·y^2']), (1, 3, 1, ['x2·x3·y'])],
    },
}

# and d_r out of each source A-degree, as its schema-2 `runs`:
# A-degree -> [(s_from, s_to, rank, matrix)], recorded with them, each cut
# at the sources whose target lies in the view (s + r <= 3)
MULTI_MAPS = {
    1: {
        3: [(0, 2, 1, [[0, 1], [0, 0], [0, 0]])],
        5: [(0, 2, 1, [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])],
        7: [(0, 2, 1, [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])],
    },
    2: {
        2: [(0, 0, 1, [[2, 1], [0, 0]]), (1, 1, 1, [[2, 1]])],
        4: [(0, 0, 1, [[1, 2], [0, 0], [0, 0], [0, 0]]), (1, 1, 1, [[1, 2], [0, 0], [0, 0]])],
        6: [(0, 0, 1, [[0, 0, 0], [0, 0, 1], [0, 0, 1], [0, 0, 0]]),
            (1, 1, 1, [[0, 0, 0], [0, 0, 1], [0, 0, 1]])],
    },
    3: {
        6: [(0, 0, 1, [[0, 1], [0, 0], [0, 0]])],
    },
    4: {},
}


def test_cells_of_several_monomials_over_three_pages():
    # no schedule reaches a cell of more than one monomial, so this run is
    # built by hand: E(x1, x2, x3) (x) P(y) over F_3 with |v0| = 0, whose
    # A-degrees 2..6 hold 2 to 4 monomials.  d_1(x3) = v0 x1x2 kills part of
    # every bar of A-degree 3 and starts a bar at 1 in A-degrees 2, 4 and 6;
    # d_2(y) = v0^2 (x1 + 2 x2) only adds a top bar to A-degree 1, since
    # x1 and x2 support nothing; d_3(y^3) = v0^3 x1y^2 gives A-degree 5 a
    # third bar
    from bockstein.algebra import Algebra

    A = Algebra(3, (GeneratorSpec("x1", 1, EXTERIOR), GeneratorSpec("x2", 1, EXTERIOR),
                    GeneratorSpec("x3", 3, EXTERIOR), GeneratorSpec("y", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    rules = [
        RulePage(1, [Rule(A.monomial(x3=1), element(Av, (1, Av.monomial(x1=1, x2=1, v0=1))))]),
        RulePage(2, [Rule(A.monomial(y=1), element(Av, (1, Av.monomial(x1=1, v0=2)),
                                                   (2, Av.monomial(x2=1, v0=2))))]),
        RulePage(3, [Rule(A.monomial(y=3), element(Av, (1, Av.monomial(x1=1, y=2, v0=3))))],
                 attach={0: 0, 1: 0}),
    ]
    pages, _ = run(A, DifferentialSchedule(v, {page.r: page for page in rules}), Window(6))
    assert [pd.r for pd in pages] == [1, 2, 3, 4]
    assert pages[2].degrees[1][0][1] is pages[1].degrees[1][0][1]  # d_2 keeps its bar at 0
    # d_3 out of A-degree 6 has a record on each of its two bars; the view
    # shows only the one at 0, whose target is at the top filtration 3
    assert [(s, rec.rank, rec.matrix) for s, rec in pages[2].maps[6]] == [
        (0, 1, [[0, 1], [0, 0], [0, 0]]), (1, 1, [[0, 1], [0, 0]])]
    doc = json.loads(emit_json(pages, TowerProfile(6), {}))
    for pd, record in zip(pages, doc["pages"]):
        bars = {rec["a"]: [tuple(run) for run in rec["levels"]] for rec in record["degrees"]}
        maps = {rec["a"]: [tuple(run) for run in rec["runs"]] for rec in record["differentials"]}
        assert (bars, maps) == (MULTI_BARS[pd.r], MULTI_MAPS[pd.r])
        # the dimension at every (t, s) of the view
        want = {(a, s): dim for a, runs in bars.items() for s0, s1, dim, _ in runs
                for s in range(s0, s1 + 1)}
        assert {(t, s): dim_at(pd, t, s) for t in range(7) for s in range(12)
                if dim_at(pd, t, s)} == want


def test_apply_page_dead_source_error(monkeypatch):
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})))
    # mu_3 supports d_1, so it is dead on page 2
    t2 = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 2})))
    sched = DifferentialSchedule(v, {1: RulePage(1, [Rule(mu, target)]),
                                     2: RulePage(2, [Rule(mu, t2)])})
    fired = _record_fired(monkeypatch)
    with pytest.raises(DeadSourceError, match="^dead source$"):
        run(A, sched, Window(40))
    assert fired == [1, 2]


def test_apply_page_beyond_the_given_pages_errors():
    # with |v| > 0 the kept A-degrees are fixed by the largest page given to
    # build_e1; a later page would draw boundaries from degrees not kept.
    # run always gives every page, so this step is made by hand, on E_1
    # over every A-degree up to reach and page 2's whole clearing index
    from bockstein.engine import EngineError

    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v2", 6)
    Av = A.adjoin(v)
    w = Window(40)
    e1 = build_e1(A, v, w, False, 1, 0, (1 << reach(v.degree, 40, 1, False) + 1) - 1)
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ1": 1, "v2": 2})))
    gens = _page_generators(A, v.degree, RulePage(2, [Rule(mu, target)]))
    with pytest.raises(EngineError, match="above the A-degrees kept"):
        apply_page(PageData(2, e1.ctx, e1.degrees), gens, _rule_degrees(A, gens, e1.ctx.reach))


def _one_page(v, *rules, attach=None):
    """A schedule of page 1 alone."""
    return DifferentialSchedule(v, {1: RulePage(1, list(rules), attach)})


def test_apply_page_malformed_rule_errors():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    w = Window(40)
    mu = A.monomial(**{"μ3": 1})
    with pytest.raises(MalformedRuleError, match=r"^malformed rule \(target degree 7 != "
                                                 r"source degree 16 - 1\)$"):
        # wrong degree: target must sit one below the source
        target = element(Av, (1, Av.monomial(**{"λ2": 1, "v0": 1})))
        run(A, _one_page(v, Rule(mu, target)), w)
    with pytest.raises(MalformedRuleError, match=r"^malformed rule \(target v-exponent \[2\] "
                                                 r"!= page 1\)$"):
        # wrong filtration shift: v-exponent 2 on page 1
        target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 2})))
        run(A, _one_page(v, Rule(mu, target)), w)
    with pytest.raises(MalformedRuleError, match=r"^malformed rule \(target is not homogeneous\)$"):
        # terms of degrees 15 and 7
        target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})),
                         (1, Av.monomial(**{"λ2": 1, "v0": 1})))
        run(A, _one_page(v, Rule(mu, target)), w)


def test_a_page_with_two_rules_on_one_source_or_a_zero_target_is_refused():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})))
    with pytest.raises(MalformedRuleError, match=r"^malformed rule \(duplicate source\)$"):
        run(A, _one_page(v, Rule(mu, target), Rule(mu, target)), Window(40))
    with pytest.raises(MalformedRuleError, match=r"^malformed rule \(zero target\)$"):
        run(A, _one_page(v, Rule(mu, {})), Window(40))


def test_a_rule_whose_target_an_earlier_page_killed_is_refused():
    # d_1(x) = v0 w makes w a boundary from filtration 1 on, so d_2(z) =
    # v0^2 w, well formed and with a live source, hits no class of E_2;
    # without page 1's rule the same page 2 fires
    A = Algebra(3, (GeneratorSpec("x", 3, EXTERIOR), GeneratorSpec("z", 3, EXTERIOR),
                    GeneratorSpec("w", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    page2 = RulePage(2, [Rule(A.monomial(z=1), element(Av, (1, Av.monomial(w=1, v0=2))))])
    page1 = RulePage(1, [Rule(A.monomial(x=1), element(Av, (1, Av.monomial(w=1, v0=1))))])
    with pytest.raises(MalformedRuleError,
                       match=r"^malformed rule \(target does not survive to this page\)$"):
        run(A, DifferentialSchedule(v, {1: page1, 2: page2}), Window(6))
    pages, _ = run(A, DifferentialSchedule(v, {1: RulePage(1, []), 2: page2}), Window(6))
    assert [pd.r for pd in pages] == [1, 2, 3]


def test_run_refuses_a_v_named_as_a_generator_and_a_localized_v_of_degree_zero():
    A = thh_mod_p_algebra(2, 2)
    with pytest.raises(ScheduleError, match="^v generator 'μ3' already present in the algebra$"):
        run(A, DifferentialSchedule(v_gen("μ3", 6), {1: RulePage(1, [])}), Window(40))
    sched = schedule_v0(2, 2, Window(40))
    with pytest.raises(ScheduleError, match=r"^localized mode requires \|v\| > 0$"):
        run(A, sched, Window(40), localized=True)


def _record_fired(monkeypatch):
    """The page of each apply_page call a run makes, in order."""
    fired = []
    apply = engine.apply_page

    def record(pd, *args):
        fired.append(pd.r)
        return apply(pd, *args)

    monkeypatch.setattr(engine, "apply_page", record)
    return fired


def test_a_malformed_rule_is_refused_before_any_page_fires(monkeypatch):
    # page 8's target lambda_3 v2^8 times lambda_1 sits at A-degree 18, not
    # 15.  Capped at 4, the run never fires page 8 but reads its target's
    # A-degree as the floor of its unknowns, so the form of every page's
    # rules is checked before E_1 is built, fired or not
    A = thh_mod_p_algebra(2, 2)
    w = Window(60)
    sched = schedule_v2(2, w)
    (rule,) = sched.pages[8].rules
    lam1 = A.index("λ1")
    target = {tuple(e + (j == lam1) for j, e in enumerate(m)): c for m, c in rule.target.items()}
    sched.pages[8] = dataclasses.replace(sched.pages[8], rules=[Rule(rule.source, target)])
    fired = _record_fired(monkeypatch)
    for cap in (4, None):
        with pytest.raises(MalformedRuleError,
                           match=r"^malformed rule \(target degree 66 != source degree 64 - 1\)$"):
            run(A, sched, w, page_cap=cap)
    assert fired == []


def test_a_target_zero_mod_p_is_refused_before_any_page_fires(monkeypatch):
    # v0 p=2 n=2 D=40 with page 2's target v0^2 lambda_3 mu_3 given the
    # coefficient 2 or 0: either is zero mod p, so the compile refuses it as
    # a zero target, whether page 2 fires or a cap of 1 leaves it unfired
    A = thh_mod_p_algebra(2, 2)
    w = Window(40)
    fired = _record_fired(monkeypatch)
    for c in (2, 0):
        sched = schedule_v0(2, 2, w)
        (rule,) = sched.pages[2].rules
        (mon,) = rule.target
        assert mon == A.adjoin(v_gen("v0", 0)).monomial(**{"λ3": 1, "μ3": 1, "v0": 2})
        sched.pages[2] = dataclasses.replace(sched.pages[2], rules=[Rule(rule.source, {mon: c})])
        for cap in (1, None):
            with pytest.raises(MalformedRuleError, match=r"^malformed rule \(zero target\)$"):
                run(A, sched, w, page_cap=cap)
    assert fired == []


def test_a_page_under_another_key_is_refused_before_any_page_fires(monkeypatch):
    # v0 p=2 n=2 D=60 keys its page 2 as 2; stated as RulePage(3, ...) with
    # the target v0^3 lambda_3 mu_3 that page 3 would need, each rule is
    # well formed, and the run refuses the page under key 2, capped or not,
    # before E_1 or page 1
    A = thh_mod_p_algebra(2, 2)
    w = Window(60)
    sched = schedule_v0(2, 2, w)
    (rule,) = sched.pages[2].rules
    target = {m[:-1] + (3,): c for m, c in rule.target.items()}
    sched.pages[2] = RulePage(3, [Rule(rule.source, target)], sched.pages[2].attach)
    fired = _record_fired(monkeypatch)
    for cap in (1, None):
        with pytest.raises(MalformedRuleError,
                           match=r"^malformed rule \(page 3 scheduled at page 2\)$"):
            run(A, sched, w, page_cap=cap)
    assert fired == []


def page_derivations(A, sched, D):
    """d_r of a monomial on each page of the schedule, as the engine runs it."""
    ctx = EngineContext(A, sched.v, False, D, max(sched.pages))
    gens = {r: _page_generators(A, ctx.deg_v, pg) for r, pg in sched.pages.items()}
    return lambda r, m: _d_of_monomial(ctx, gens[r], m)


def test_schedule_v0_page_assignment():
    # one power rule per page, and its Leibniz extension is the paper's
    # d_{nu_p(k)+1}(mu^k) = v0^{nu_p(k)+1} mu^{k-1} lambda_{n+1} up to a unit
    sched = schedule_v0(2, 2, Window(58))
    assert sorted(sched.pages) == [1, 2] and sched.label == "v0 p=2 n=2"
    D = 1200
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            A = thh_mod_p_algebra(p, n)
            sched = schedule_v0(p, n, Window(D))
            assert all(len(pg.rules) == 1 for pg in sched.pages.values())
            d = page_derivations(A, sched, D)
            mu, lam = f"μ{n + 1}", f"λ{n + 1}"
            k = 1
            while k * A.degree(A.monomial(**{mu: 1})) <= D:
                m = A.monomial(**{mu: k})
                for r in sched.pages:
                    image = d(r, m)
                    if r == nu_p(p, k) + 1:
                        (target, c), = image.items()
                        assert target == A.monomial(**{mu: k - 1, lam: 1}) and c % p
                    else:
                        assert image == {}, (p, n, k, r)
                    assert d(r, A.monomial(**{mu: k, lam: 1})) == {}
                k += 1


def _schedule_v0_reference(p, n, w):
    """schedule_v0 as it was before it became the ladder (n, 0), kept as its
    reference: d_{j+1}(mu^{p^j}) = v_0^{j+1} mu^{p^j-1} lambda_{n+1}, page
    j + 1 emitted exactly when p^j |mu| <= D + 1."""
    w = as_window(w)
    require_prime(p)
    v = GeneratorSpec("v0", 0, POLYNOMIAL)
    dm = deg_mu(p, n)
    lam = n          # index of lambda_{n+1}
    mu = n + 1       # index of mu_{n+1}
    vi = n + 2
    pages: Dict[int, RulePage] = {}
    j, q = 0, 1
    while q * dm <= w.max_degree + 1:
        src = sparse_monomial(n + 2, {mu: q})
        target = {sparse_monomial(n + 3, {vi: j + 1, mu: q - 1, lam: 1}): 1}
        attach = {i: 0 for i in range(n)}
        attach[lam] = q - 1
        pages[j + 1] = RulePage(j + 1, [Rule(src, target)], attach)
        j, q = j + 1, q * p
    return DifferentialSchedule(
        v, pages, label=f"v0 p={p} n={n}",
        future_target_floor=q * dm - 1,
        future_min_page=j + 1,
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_schedule_v0_is_the_ladder_at_m_zero(p):
    # 30 cases a prime, 120 in all: the same v and label, the same page keys
    # in order, and on each page the same rules and attached exponents, in
    # insertion order, and the same future floor and page
    for n in range(5):
        for D in (0, 5, 40, 200, 1000, 5000):
            got, want = schedule_v0(p, n, Window(D)), _schedule_v0_reference(p, n, Window(D))
            assert (got.v, got.label, got.conjectural) == (want.v, want.label, want.conjectural)
            assert list(got.pages) == list(want.pages), (n, D)
            for g, e in zip(got.pages.values(), want.pages.values()):
                assert g.r == e.r
                assert [(r.source, r.target) for r in g.rules] == \
                    [(r.source, r.target) for r in e.rules]
                assert list(g.attach.items()) == list(e.attach.items())
            assert (got.future_target_floor, got.future_min_page) == \
                (want.future_target_floor, want.future_min_page), (n, D)


# (label, schedule at D, its oracle's presentation at D): every certified
# ladder and the conjectural ones, p <= 7, n <= 3 at m = 0 and n <= 4 above
LADDERS = (
    [(f"v0 p={p} n={n}", lambda D, p=p, n=n: schedule_v0(p, n, D),
      lambda D, p=p, n=n: t0n_presentation(p, n, D)) for p in (2, 3, 5, 7) for n in range(4)]
    + [(f"v1 p={p}", lambda D, p=p: schedule_v1(p, D),
        lambda D, p=p: t12_presentation(p, D)) for p in (3, 5, 7)]
    + [(f"v2 p={p}", lambda D, p=p: schedule_v2(p, D),
        lambda D, p=p: t22_presentation(p, D)) for p in (2, 3, 5, 7)]
    + [(f"conj p={p} n={n} m={m}", lambda D, p=p, n=n, m=m: schedule_conj(p, n, m, D),
        lambda D, p=p, n=n, m=m: tmn_presentation(p, n, m, D))
       for p in (2, 3, 5, 7) for n in range(1, 5) for m in range(1, n + 1)
       if not (m == 1 and p == 2)])


@pytest.mark.parametrize("schedule, presentation", [c[1:] for c in LADDERS],
                         ids=[c[0] for c in LADDERS])
def test_each_ladder_schedule_fires_its_presentations_towers(schedule, presentation):
    # step s fires on page page(s) and leaves towers of that length based
    # on its head: the schedule's pages are the presentation's tower
    # lengths, and each page's rule hits the least degree of a tower of
    # its length, the head's (no tail, mu-multiple or permanent product)
    D = 3000
    sched, pres = schedule(D), presentation(D)
    least: Dict[int, int] = {}
    for g in pres.torsion_generators:
        least[g.length] = min(least.get(g.length, g.degree), g.degree)
    assert sorted(sched.pages) == sorted(least)
    for r, page in sched.pages.items():
        (rule,) = page.rules
        (target,) = rule.target
        assert pres.algebra.degree(target[:-1]) == least[r], r


def test_variant_b_exterior_rule_on_cycles():
    # variant B's d_2(lambda_3) = v1^2 lambda_1 lambda_2 is a rule on an
    # exterior generator; mu is a cycle of page 2, so d_2(lambda_3 mu^k) =
    # lambda_1 lambda_2 mu^k, and the run records exactly those maps
    A = thh_mod_p_algebra(2, 2)
    D = 120
    sched = schedule_v1(2, Window(D), variant="B")
    d = page_derivations(A, sched, D)
    for k in range(D // 16 + 1):
        assert d(2, A.monomial(**{"λ3": 1, "μ3": k})) == {A.monomial(λ1=1, λ2=1, μ3=k): 1}
        assert d(2, A.monomial(**{"μ3": k})) == {}
    pages, _ = run(A, sched, Window(D))
    e2 = next(pd for pd in pages if pd.r == 2)
    src = {(15 + 16 * k, 0) for k in range(D // 16 + 1) if 15 + 16 * k <= D + 1}
    diffs = _diff_view(e2)
    assert {key for key in diffs if key[1] == 0} >= src
    for key in src:
        rec, target = diffs[key], (key[0] - 1, key[1] + e2.r)
        assert rec.rank == 1 and target == (key[0] - 1, 2)
        assert _cell_view(e2)[target][MONOMIALS] == (A.monomial(λ1=1, λ2=1, μ3=(key[0] - 15) // 16),)


def test_monomials_that_do_not_factor_over_the_page_generators():
    A = thh_mod_p_algebra(2, 2)
    # variant B's page 4 fires d_4(mu_3) = v1^4 lambda_2 with lambda_1 and
    # lambda_2 live; lambda_3 supported d_2, so it is no page generator
    sched = schedule_v1(2, Window(120), variant="B")
    d = page_derivations(A, sched, 120)
    assert sched.pages[4].attach == {0: 0, 1: 0}
    assert d(4, A.monomial(λ1=1, μ3=1)) == {A.monomial(λ1=1, λ2=1): 1}
    assert d(4, A.monomial(λ3=1, μ3=1)) == {}
    # v2 at p = 2: page 4 fires on mu_3^2, and lambda_1 mu_3 is a page
    # generator; a mu-exponent that mu_3^2 and the attachments do not use
    # up gives no factorization, so zero
    sched = schedule_v2(2, Window(160))
    d = page_derivations(A, sched, 160)
    assert sched.pages[4].attach[0] == 1
    assert d(4, A.monomial(μ3=2)) == {A.monomial(λ2=1): 1}
    assert d(4, A.monomial(μ3=3)) == {}
    assert d(4, A.monomial(λ1=1, μ3=2)) == {}
    assert d(4, A.monomial(λ1=1, μ3=3)) == {A.monomial(λ1=1, λ2=1, μ3=1): 1}


def test_rule_source_must_be_a_page_generator():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    w = Window(40)
    # lambda_1 mu_3 is a product of two page generators of a page with no
    # attachments, not one of them
    src = A.monomial(λ1=1, μ3=1)
    target = element(Av, (1, Av.monomial(λ1=1, λ3=1, v0=1)))
    with pytest.raises(MalformedRuleError, match="page generator"):
        run(A, _one_page(v, Rule(src, target)), w)
    # and a second power rule on a page is not one either
    mu, mu2 = A.monomial(μ3=1), A.monomial(μ3=2)
    rules = [Rule(mu, element(Av, (1, Av.monomial(λ3=1, v0=1)))),
             Rule(mu2, element(Av, (1, Av.monomial(λ3=1, μ3=1, v0=1))))]
    with pytest.raises(MalformedRuleError, match="page generator"):
        run(A, _one_page(v, *rules), w)
    # a mu-power attached to an exterior generator needs the page's mu
    lam3 = (A.monomial(λ3=1), element(Av, (1, Av.monomial(λ1=1, λ2=1, v0=1))))
    with pytest.raises(MalformedRuleError, match="no power rule"):
        run(A, _one_page(v, Rule(*lam3), attach={0: 0, 1: 0, 2: 1}), w)


def test_schedule_v1_paper_pages():
    sched = schedule_v1(3, Window(400))
    pages = sorted(sched.pages)
    assert pages[:3] == [9, 27, 90]
    for r, exp in zip(pages, (1, 3, 9)):
        assert sched.pages[r].rules[0].source == (0, 0, 0, exp)
    # one ladder at odd p: a p = 2 variant is an error, not a relabelling
    with pytest.raises(ScheduleError, match="variant"):
        schedule_v1(3, Window(400), variant="B")


def test_schedule_v2_paper_pages():
    sched = schedule_v2(2, Window(160))
    pages = sorted(sched.pages)
    assert pages[:4] == [2, 4, 8, 18]
    for r, exp in zip(pages, (1, 2, 4, 8)):
        assert sched.pages[r].rules[0].source == (0, 0, 0, exp)


def test_schedule_v1_p2_needs_variant():
    with pytest.raises(AmbiguousPatternError):
        schedule_v1(2, Window(60))
    a = schedule_v1(2, Window(60), variant="A")
    b = schedule_v1(2, Window(60), variant="B")
    assert sorted(a.pages) != sorted(b.pages)  # B carries extra remark pages
    # B fires the Remark's first candidate, d_2(lambda_3) = v1^2 lambda_1 lambda_2
    A = thh_mod_p_algebra(2, 2)
    (rule,) = b.pages[2].rules
    assert rule.source == A.monomial(**{"λ3": 1})
    assert rule.target == {A.adjoin(b.v).monomial(**{"λ1": 1, "λ2": 1, "v1": 2}): 1}
    assert 2 not in a.pages
    # both variants run without internal inconsistencies
    for sched in (a, b):
        run(A, sched, Window(60))


def test_schedule_conj_p2_m1_ambiguous():
    with pytest.raises(AmbiguousPatternError):
        schedule_conj(2, 3, 1, Window(60))


@pytest.mark.parametrize("m, make, primes", [
    (1, schedule_v1, (3, 5, 7)),
    (2, schedule_v2, (2, 3, 5)),
], ids=["v1", "v2"])
@pytest.mark.parametrize("D", [0, 30, 400, 4000])
def test_theorem_ladders_are_the_conjectural_ladder_at_height_two(m, make, primes, D):
    # T_m^n reduces to T_1^2 and T_2^2 at n = 2: the theorems' schedules are
    # the conjecture's, differing only in their label and conjectural mark
    for p in primes:
        sched, conj = make(p, Window(D)), schedule_conj(p, 2, m, Window(D))
        assert sched.pages == conj.pages
        assert sched.v == conj.v
        assert sched.future_target_floor == conj.future_target_floor
        assert sched.future_min_page == conj.future_min_page
        assert (sched.label, sched.conjectural) == (f"v{m} p={p}", False)
        assert (conj.label, conj.conjectural) == (f"conj p={p} n=2 m={m}", True)


SCHEDULES = {
    "v0": lambda p, w: schedule_v0(p, 2, w),
    "v1": lambda p, w: schedule_v1(p, w),
    "v2": lambda p, w: schedule_v2(p, w),
    "conj": lambda p, w: schedule_conj(p, 3, 2, w),
}


@pytest.mark.parametrize("make", [
    lambda w: schedule_v0(3, 2, w),
    lambda w: schedule_v1(3, w),
    lambda w: schedule_v1(2, w, variant="A"),
    lambda w: schedule_v1(2, w, variant="B"),
    lambda w: schedule_v2(3, w),
    lambda w: schedule_conj(3, 3, 2, w),
], ids=["v0", "v1", "v1-p2-A", "v1-p2-B", "v2", "conj"])
def test_schedules_build_no_algebra(monkeypatch, make):
    # a schedule is its pages, stated from p, n and the formulas; the one
    # algebra of a run is the caller's
    def no_algebra(self):
        raise AssertionError("an Algebra was built")

    monkeypatch.setattr(Algebra, "__post_init__", no_algebra)
    assert make(Window(400)).pages


@pytest.mark.parametrize("kind", list(SCHEDULES))
def test_schedules_refuse_a_p_that_is_not_prime(kind):
    # with no algebra to refuse it, a ladder at p = 1 would never end: every
    # lambda-family degree there is 1
    with pytest.raises(AlgebraError, match="^1 is not prime$"):
        SCHEDULES[kind](1, Window(10))


def test_run_refuses_a_schedule_over_another_algebra():
    # the caller pairs the algebra with the schedule: v2's rules have the 4
    # exponents of E(λ1, λ2, λ3) ⊗ P(μ3), and n = 3 has 5 generators
    with pytest.raises(ForeignGeneratorError):
        run(thh_mod_p_algebra(2, 3), schedule_v2(2, Window(40)), Window(40))


def test_run_v0_chart():
    A = thh_mod_p_algebra(2, 2)
    pages, prof = run(A, schedule_v0(2, 2, Window(58)), Window(58))
    assert compare(prof, t0n_profile(2, 2, 58), 58).ok
    assert prof.lengths(31) == [2] and prof.lengths(0) == [INF]
    # pages list: E_1 (= first fired page), fired page 2, final
    assert [pd.r for pd in pages] == [1, 2, 3]


def test_run_localized_small():
    A = thh_mod_p_algebra(3, 2)
    _, prof = run(A, schedule_v1(3, Window(60)), Window(60), localized=True)
    assert dict(prof.towers) == {0: [INF], 5: [INF]}
    _, prof = run(A, schedule_v2(3, Window(60)), Window(60), localized=True)
    assert dict(prof.towers) == {0: [INF]}


def test_unit_robustness_small():
    # rescaling every rule target by a unit leaves the profile unchanged
    A = thh_mod_p_algebra(3, 2)
    w = Window(60)
    base = schedule_v2(3, w)
    _, prof1 = run(A, base, w)
    scaled = schedule_v2(3, w)
    for pg in scaled.pages.values():
        pg.rules[:] = [Rule(rule.source, {m: (2 * c) % 3 for m, c in rule.target.items()})
                       for rule in pg.rules]
    _, prof2 = run(A, scaled, w)
    assert prof1 == prof2


def test_rederive_pages():
    # every page's classes, representatives and differential ranks equal
    # the recorded documents (see golden.py)
    assert golden.same_documents(Case("v2", 3, 80))


def test_localization_injectivity_small():
    # with v inverted exactly the free towers survive, and the localized
    # pages equal the recorded ones on their filtration range
    for kind in ("v1", "v2"):
        _, _, plain = Case(kind, 3, 60).run()
        _, _, local = Case(kind, 3, 60, localized=True).run()
        free = {t: [x for x in plain.lengths(t) if x == INF] for t in plain.degrees()}
        assert dict(local.towers) == {t: v for t, v in free.items() if v}
        assert golden.same_documents(Case(kind, 3, 60, localized=True))


@pytest.mark.parametrize("kind, p, D, n, m", [
    ("v1", 3, 120, None, None), ("v2", 2, 120, None, None), ("v2", 3, 120, None, None),
    ("conj", 3, 200, 3, 1), ("conj", 3, 200, 3, 2), ("conj", 3, 250, 4, 2),
    ("conj", 5, 150, 3, 2)], ids=lambda x: str(x))
def test_the_localized_run_keeps_exactly_the_free_towers(kind, p, D, n, m):
    # with v inverted exactly the unlocalized run's free towers survive, an
    # answer that needs no oracle.  The two modes fire different cones
    # (a localized view reaches about twice as far up), so each checks
    # the other.  Case refuses localized conj, which has no asserted
    # answer, so conj runs through engine.run
    if kind == "conj":
        A, w = thh_mod_p_algebra(p, n), Window(D)
        sched = schedule_conj(p, n, m, w)
        (_, plain), (_, local) = run(A, sched, w), run(A, sched, w, localized=True)
    else:
        _, _, plain = Case(kind, p, D).run()
        _, _, local = Case(kind, p, D, localized=True).run()
    assert not plain.has_unknown() and not local.has_unknown()
    free = {t: [x for x in plain.lengths(t) if x == INF] for t in plain.degrees()}
    assert dict(local.towers) == {t: v for t, v in free.items() if v}
    assert len(local.towers) >= 1


def test_page_cap_reports_unknown():
    # stopping before the ladder's last page must not fake certainty
    A = thh_mod_p_algebra(3, 2)
    w = Window(130)
    sched = schedule_v1(3, w)
    _, prof = run(A, sched, w, page_cap=27)
    rep = compare(prof, t12_profile(3, 130), 130)
    assert rep.ok  # unknowns match, nothing contradicts
    assert prof.has_unknown()
    full = run(A, sched, w)[1]
    assert not full.has_unknown()


def test_engine_matches_t22_small():
    A = thh_mod_p_algebra(2, 2)
    _, prof = run(A, schedule_v2(2, Window(40)), Window(40))
    rep = compare(prof, t22_profile(2, 40), 40)
    assert rep.ok and not rep.unverified


CROSS = [
    Case("v0", 5, 300, n=1),
    Case("v0", 3, 100, n=0),   # the height-0 specialization
    Case("v1", 5, 150),
    Case("v2", 5, 120),
    Case("conj", 5, 150, n=3, m=2),
    Case("conj", 3, 250, n=4, m=2),
    Case("conj", 3, 160, n=4, m=3),
]


@pytest.mark.parametrize("case", CROSS, ids=lambda c: f"{c.kind}-{c.p}-{c.height}-{c.m}-{c.D}")
def test_cross_validation_other_parameters(case):
    _, _, prof = case.run()
    oracle = case.oracle()
    rep = compare(prof, oracle, case.D)
    assert rep.ok and not rep.unverified and not prof.has_unknown()
    assert prof == oracle


def test_apply_page_rejects_a_differential_not_defined_on_classes():
    # d_1(z) = v0 (x + y) makes x + y a boundary from filtration 1 on; a
    # d_2 with d_2(y) = v0^2 and d_2(x) = 0 is nonzero on that boundary, so
    # it takes different values on the classes of filtrations 0 and 1
    from bockstein.algebra import EXTERIOR, Algebra
    from bockstein.engine import EngineAssertionError

    A = Algebra(2, (GeneratorSpec("x", 1, EXTERIOR), GeneratorSpec("y", 1, EXTERIOR),
                    GeneratorSpec("z", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    d1 = element(Av, (1, Av.monomial(x=1, v0=1)), (1, Av.monomial(y=1, v0=1)))
    d2 = Rule(A.monomial(y=1), element(Av, (1, Av.monomial(v0=2))))  # exterior generator
    sched = DifferentialSchedule(v, {1: RulePage(1, [Rule(A.monomial(z=1), d1)]),
                                     2: RulePage(2, [d2])})
    with pytest.raises(EngineAssertionError,
                       match="^d_2 out of A-degree 1 depends on the representatives$"):
        run(A, sched, Window(0))  # keeps A-degrees 0..2


def test_apply_page_rejects_a_differential_that_does_not_square_to_zero():
    # d_1(z) = v0 y and d_1(y) = v0 x, extended by Leibniz, give
    # d_1 d_1(z) = v0^2 x, a nonzero composite out of A-degree 3
    from bockstein.algebra import EXTERIOR, Algebra
    from bockstein.engine import EngineAssertionError

    A = Algebra(2, (GeneratorSpec("x", 1, EXTERIOR), GeneratorSpec("y", 2, EXTERIOR),
                    GeneratorSpec("z", 3, EXTERIOR)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    rules = [Rule(A.monomial(z=1), element(Av, (1, Av.monomial(y=1, v0=1)))),
             Rule(A.monomial(y=1), element(Av, (1, Av.monomial(x=1, v0=1))))]
    with pytest.raises(EngineAssertionError, match="d_1 o d_1 != 0 out of A-degree 3"):
        run(A, _one_page(v, *rules), Window(3))


def reference_d_of_monomial(ctx, page, m):
    """d_r of an A-monomial by the formula the compiled page derivation
    replaced, kept as its reference: factor m over the page generators as
    _page_generators resolves them, then form each Leibniz term
    N * d_r(g) * (m / g) with algebra.multiply over A[v]."""
    A, p = ctx.A, ctx.A.p
    Av = A.adjoin(ctx.v)
    exterior = [i for i, g in enumerate(A.generators) if g.kind == EXTERIOR]
    attach = {i: 0 for i in exterior} if page.attach is None else page.attach
    mu, q = None, 1
    for rule in page.rules:
        support = [i for i, e in enumerate(rule.source) if e]
        if len(support) == 1 and A.generators[support[0]].kind == POLYNOMIAL:
            mu, q = support[0], rule.source[support[0]]
            break
    left = 0 if mu is None else m[mu]
    for i in exterior:
        if m[i]:
            if i not in attach:
                return {}
            left -= attach[i]
    if left < 0 or left % q:
        return {}
    out = {}
    for rule in page.rules:
        g = next((i for i in exterior if rule.source[i]), mu)
        if not m[g]:
            continue
        mult = (left // q if g == mu else 1) % p
        if mult == 0:
            continue
        cof = tuple(a - b for a, b in zip(m, rule.source))
        sign, _ = mul_monomials(A, rule.source, cof)
        for mon, c in multiply(rule.target, {cof + (0,): sign * mult % p}, Av).items():
            c = (out.get(mon[:-1], 0) + c) % p
            if c:
                out[mon[:-1]] = c
            else:
                out.pop(mon[:-1], None)
    return out


def _derivation_cases():
    """The golden cases (variant B among them) and page-cap sweep and the
    cross-validation cases, each once: a page cap leaves the schedule as
    it is."""
    seen, out = set(), []
    for c in golden.all_cases() + CROSS:
        c = dataclasses.replace(c, page_cap=None)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


@pytest.mark.parametrize("case", _derivation_cases(), ids=golden.case_id)
def test_page_derivation_matches_the_leibniz_reference(case):
    # every monomial of every A-degree the run keeps, on every page of the
    # schedule, fired or not
    sched, pages, _ = case.run()
    ctx = pages[0].ctx
    for r, page in sched.pages.items():
        gens = _page_generators(ctx.A, ctx.deg_v, page)
        for bars in pages[0].degrees.values():
            for m in bars[0][1][MONOMIALS]:
                assert _d_of_monomial(ctx, gens, m) == reference_d_of_monomial(ctx, page, m), \
                    (r, m)


def test_page_derivation_signs_rules_past_odd_factors():
    # in the schedules every rule source is mu^q or sits right of the odd
    # factors it meets, so the sign of g * (m / g) is always +1 there; here
    # d_1(x3) = v0 (y + x1 x2 + z^2) and d_1(y) = v0 (x2 + x1 z) over
    # E(x1, x2, x3) (x) P(y, z) at p = 3, checked on every monomial up to
    # degree 24 against the reference and the signed derivation
    from bockstein.algebra import Algebra, basis_up_to

    A = Algebra(3, (GeneratorSpec("x1", 1, EXTERIOR), GeneratorSpec("x2", 3, EXTERIOR),
                    GeneratorSpec("x3", 5, EXTERIOR), GeneratorSpec("y", 4, POLYNOMIAL),
                    GeneratorSpec("z", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    d_x3 = element(Av, (1, Av.monomial(y=1, v0=1)), (1, Av.monomial(x1=1, x2=1, v0=1)),
                   (1, Av.monomial(z=2, v0=1)))
    d_y = element(Av, (1, Av.monomial(x2=1, v0=1)), (1, Av.monomial(x1=1, z=1, v0=1)))
    page = RulePage(1, [Rule(A.monomial(x3=1), d_x3), Rule(A.monomial(y=1), d_y)])
    ctx = EngineContext(A, v, False, 24, 1)
    gens = _page_generators(A, ctx.deg_v, page)
    for mons in basis_up_to(A, 24).values():
        for m in mons:
            got = _d_of_monomial(ctx, gens, m)
            want = {mon[:-1]: c for mon, c in
                    derivation_extend({"x3": d_x3, "y": d_y}, {m + (0,): 1}, Av).items()}
            assert got == want == reference_d_of_monomial(ctx, page, m), m
    # d(x1 x3) = -x1 d(x3) = -x1 y - x1 z^2, the x1 x1 x2 term dying
    assert _d_of_monomial(ctx, gens, A.monomial(x1=1, x3=1)) == {
        A.monomial(x1=1, y=1): 2, A.monomial(x1=1, z=2): 2}


def test_page_derivation_drops_the_leibniz_terms_that_cancel():
    # over E(a, b) (x) P(mu) at p = 3 with a's page generator a mu, d(mu) =
    # v b and d(a mu) = c v ab give d(a mu^2) = d(a mu) mu - a mu d(mu) =
    # (c - 1) ab mu: both terms land on one monomial, which c = 1 cancels
    A = Algebra(3, (GeneratorSpec("a", 1, EXTERIOR), GeneratorSpec("b", 3, EXTERIOR),
                    GeneratorSpec("μ", 4, POLYNOMIAL)))
    v = v_gen("v", 0)
    Av = A.adjoin(v)
    ctx = EngineContext(A, v, False, 20, 1)
    for c, want in ((1, {}), (2, {A.monomial(a=1, b=1, μ=1): 1})):
        rules = [Rule(A.monomial(μ=1), element(Av, (1, Av.monomial(b=1, v=1)))),
                 Rule(A.monomial(a=1, μ=1), element(Av, (c, Av.monomial(a=1, b=1, v=1))))]
        page = RulePage(1, rules, attach={0: 1, 1: 0})
        gens = _page_generators(A, ctx.deg_v, page)
        m = A.monomial(a=1, μ=2)
        assert _d_of_monomial(ctx, gens, m) == reference_d_of_monomial(ctx, page, m) == want, c
        for mons in basis_up_to(A, 20).values():
            for m in mons:
                assert _d_of_monomial(ctx, gens, m) == reference_d_of_monomial(ctx, page, m), m


def _visits(monkeypatch, case):
    """Run a case, recording the A-degrees each page's derivation is asked
    about, by page generators."""
    visits = defaultdict(set)
    d_of = engine._d_of_monomial

    def record(ctx, gens, m):
        visits[gens].add(ctx.A.degree(m))
        return d_of(ctx, gens, m)

    monkeypatch.setattr(engine, "_d_of_monomial", record)
    sched, pages, _ = case.run()
    monkeypatch.undo()
    return sched, pages, visits


@pytest.mark.parametrize("case", _derivation_cases(), ids=golden.case_id)
def test_pages_visit_every_a_degree_d_r_does_not_vanish_on(monkeypatch, case):
    # a page walks its cone (engine._cones), which may hold more, but it
    # must visit each kept A-degree of the cone with a monomial of nonzero
    # d_r, and the cone must hold every such A-degree up to the sources at
    # D + 1 that windows_maps shows; the golden cases include variant B's
    # exterior rule d_2(lambda_3) and p = 5
    sched, pages, visits = _visits(monkeypatch, case)
    ctx = pages[0].ctx
    compiled = {r: _page_generators(ctx.A, ctx.deg_v, page) for r, page in sched.pages.items()}
    cones = engine._cones(ctx, sorted(compiled.items()))
    shown = ctx.max_degree + 1 - ctx.s_lo * ctx.deg_v
    for r, gens in compiled.items():
        hit = {a for a, bars in pages[0].degrees.items()
               if any(_d_of_monomial(ctx, gens, m) for m in bars[0][1][MONOMIALS])}
        cone = {a for a in hit if cones[r] >> a & 1}
        assert {a for a in hit if a <= shown} <= cone, r
        assert cone <= visits[gens], (r, sorted(cone - visits[gens])[:5])


def test_pages_skip_the_a_degrees_no_rule_reaches(monkeypatch):
    # v2 p=2 D=160 keeps 89 A-degrees (of the 516 up to reach) over 7
    # fired pages, and its pages visit 44 of those 623 (A-degree, page)
    # pairs, each in the page's cone with a nonzero d_r (their clearing
    # indices hold 253 such pairs); a page that visited every kept A-degree
    # would fail
    sched, pages, visits = _visits(monkeypatch, Case("v2", 2, 160))
    kept, fired = len(pages[0].degrees), len(sched.pages)
    assert 0 < sum(map(len, visits.values())) <= kept * fired // 10


def _hand_built():
    """Runs built by hand, (label, algebra, schedule, window), whose cells
    hold up to 8 monomials: the three pages of
    test_cells_of_several_monomials_over_three_pages at |v0| = 0, and two
    schedules at |v| = 2, one of three power rules over F_2 and one over
    F_5 whose d_3 has its source at A-degree 50, far above the window."""
    def gens(p, *specs):
        return Algebra(p, tuple(GeneratorSpec(name, d, kind) for name, d, kind in specs))

    A = gens(3, ("x1", 1, EXTERIOR), ("x2", 1, EXTERIOR), ("x3", 3, EXTERIOR),
             ("y", 2, POLYNOMIAL))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    multi = {
        1: RulePage(1, [Rule(A.monomial(x3=1), element(Av, (1, Av.monomial(x1=1, x2=1, v0=1))))]),
        2: RulePage(2, [Rule(A.monomial(y=1), element(Av, (1, Av.monomial(x1=1, v0=2)),
                                                      (2, Av.monomial(x2=1, v0=2))))]),
        3: RulePage(3, [Rule(A.monomial(y=3), element(Av, (1, Av.monomial(x1=1, y=2, v0=3))))],
                    attach={0: 0, 1: 0}),
    }
    out = [("multi-v0", A, DifferentialSchedule(v, multi), Window(6))]
    v = v_gen("v", 2)
    B = gens(2, ("x1", 3, EXTERIOR), ("x2", 3, EXTERIOR), ("x3", 1, EXTERIOR),
             ("x4", 1, EXTERIOR), ("y", 4, POLYNOMIAL))
    Bv = B.adjoin(v)
    powers = {
        1: RulePage(1, [Rule(B.monomial(y=1), element(Bv, (1, Bv.monomial(x3=1, v=1)),
                                                      (1, Bv.monomial(x4=1, v=1))))]),
        2: RulePage(2, [Rule(B.monomial(y=2), element(Bv, (1, Bv.monomial(x1=1, v=2))))]),
        3: RulePage(3, [Rule(B.monomial(y=4), element(
            Bv, (1, Bv.monomial(x3=1, y=2, v=3)), (1, Bv.monomial(x1=1, x3=1, x4=1, y=1, v=3)),
            (1, Bv.monomial(x4=1, y=2, v=3))))]),
    }
    out.append(("powers-p2", B, DifferentialSchedule(v, powers), Window(30)))
    C = gens(5, ("x1", 7, EXTERIOR), ("x2", 1, EXTERIOR), ("x3", 1, EXTERIOR),
             ("x4", 1, EXTERIOR), ("y", 2, POLYNOMIAL))
    Cv = C.adjoin(v)
    high = {
        1: RulePage(1, [Rule(C.monomial(x1=1), element(Cv, (3, Cv.monomial(x2=1, x4=1, y=1, v=1))))]),
        3: RulePage(3, [Rule(C.monomial(y=25), element(
            Cv, (4, Cv.monomial(x1=1, x3=1, x4=1, y=17, v=3)), (3, Cv.monomial(x4=1, y=21, v=3)),
            (4, Cv.monomial(x3=1, y=21, v=3))))]),
    }
    out.append(("high-source-p5", C, DifferentialSchedule(v, high), Window(28)))
    return out


def _outputs(pages, profile, meta, chart, D, label):
    """What a reader sees of a run: its profile with the advisory marks of
    its unknowns, its JSON document, its chart, and d_r on every page as
    windows_maps shows it."""
    towers = {t: [length_str(x) for x in profile.lengths(t)] for t in profile.degrees()}
    maps = [(pd.r, a, runs) for pd in pages for a, runs in pd.windows_maps() if runs]
    return (towers, emit_json(pages, profile, meta), emit_svg(chart, ChartStyle(), D, title=label),
            maps)


def _records(pages):
    return sum(rec is not None for pd in pages for bars in pd.maps.values() for _, rec in bars)


HAND_BUILT = _hand_built()


def _full_walk(ctx, fired):
    """What engine._cones gives a run, made with no cone: each fired page's
    whole clearing index and every A-degree up to reach for E_1.  A run
    given these fires every record of d_r on every page, the reference the
    cones are checked against."""
    cones = {r: _rule_degrees(ctx.A, gens, ctx.reach) for r, gens in fired}
    cones[None] = (1 << ctx.reach + 1) - 1
    return cones


@pytest.mark.parametrize("case", golden.all_cases() + HAND_BUILT,
                         ids=lambda c: c[0] if isinstance(c, tuple) else golden.case_id(c))
def test_cones_fire_what_the_full_walk_fires(case, monkeypatch):
    # run fires each page on its cone (engine._cones); a page's full
    # clearing index on E_1 over every A-degree up to reach (_full_walk)
    # must give the same profile (unknowns' marks included), the same JSON
    # and SVG bytes and the same d_r records through windows_maps on every
    # page, over every golden case, every page-cap sweep point and the
    # hand-built runs, whose cells hold several monomials
    if isinstance(case, tuple):
        label, A, sched, w = case

        def once():
            pages, profile = run(A, sched, w)
            return pages, _outputs(pages, profile, {}, pages[-1], w.max_degree, label)
    else:
        def once():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sched, pages, profile = case.run()
            return pages, _outputs(pages, profile, case.meta(sched), case.chart_page(pages),
                                   case.D, sched.label)
    pages, got = once()
    monkeypatch.setattr(engine, "_cones", _full_walk)
    full, want = once()
    assert [pd.r for pd in pages] == [pd.r for pd in full]
    assert got == want
    assert _records(pages) <= _records(full)
    if isinstance(case, tuple) and pages[0].ctx.deg_v:
        assert _records(pages) < _records(full)


@pytest.mark.parametrize("case", golden.all_cases() + HAND_BUILT,
                         ids=lambda c: c[0] if isinstance(c, tuple) else golden.case_id(c))
def test_e1_holds_exactly_the_a_degrees_the_run_reads(case, monkeypatch):
    # run builds E_1 on the A-degrees its cones' walk ends with, restated
    # here with sets: the window and the sources at D + 1, each fired
    # page's rule sources and targets, and its cone's sources and targets.
    # E_1 must hold exactly the nonempty ones, and the same run on the full
    # E_1, its cones kept, must show the same on every page
    if isinstance(case, tuple):
        label, A, sched, w = case
        cap = None

        def once():
            pages, profile = run(A, sched, w)
            return pages, _outputs(pages, profile, {}, pages[-1], w.max_degree, label)
    else:
        A, sched, w = case.build()
        cap = case.page_cap

        def once():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, pages, profile = case.run()
            return pages, _outputs(pages, profile, case.meta(sched), case.chart_page(pages),
                                   case.D, sched.label)
    pages, got = once()
    ctx = pages[0].ctx
    fired = [r for r in sorted(sched.pages) if cap is None or r <= cap]
    cones = engine._cones(ctx, [(r, _page_generators(A, ctx.deg_v, sched.pages[r]))
                               for r in fired])
    read = set(range(ctx.max_degree - ctx.s_lo * ctx.deg_v + 2))
    for r in fired:
        shift = 1 + r * ctx.deg_v
        for rule in sched.pages[r].rules:
            read |= {A.degree(rule.source), A.degree(rule.source) - shift}
        cone = set(_set_bits(cones[r]))
        read |= cone | {a - shift for a in cone}
    basis = basis_up_to(A, ctx.reach)
    assert list(pages[0].degrees) == sorted(a for a in read if a in basis)
    find_cones = engine._cones
    monkeypatch.setattr(engine, "_cones", lambda ctx, fired: {
        **find_cones(ctx, fired), None: _full_walk(ctx, ())[None]})
    full, want = once()
    assert list(full[0].degrees) == sorted(basis)
    assert got == want
    assert _records(pages) == _records(full)


def test_e1_keeps_the_a_degrees_the_ladders_read():
    # of the 516 and 33,084 A-degrees up to reach, v2 p=2 D=160 and
    # D=10000 read 89 and 5,019: their windows, rules and cones
    for D, kept in ((160, 89), (10000, 5019)):
        _, pages, _ = Case("v2", 2, D).run()
        assert len(pages[0].degrees) == kept, D


@pytest.mark.parametrize("case, compiled", [
    (Case("v2", 2, 120, page_cap=8), 6), (Case("v2", 2, 160), 7),
    (Case("v0", 2, 1000, n=3), 5)], ids=["v2-p2-D120-cap8", "v2-p2-D160", "v0-p2-n3-D1000"])
def test_a_run_compiles_each_page_once(monkeypatch, case, compiled):
    # the cones, the fired pages and the unfired pages' unknowns share one
    # compiled PageGenerators per page
    calls = []
    compile_page = engine._page_generators

    def count(A, deg_v, page):
        calls.append(page.r)
        return compile_page(A, deg_v, page)

    monkeypatch.setattr(engine, "_page_generators", count)
    sched, _, _ = case.run()
    assert sorted(calls) == sorted(sched.pages) and len(calls) == compiled


def test_a_run_on_v2_p2_d2000_allocates_under_three_mib():
    # a memory guard: tracemalloc's peak over engine.run is 4.17 MiB with
    # E_1 on every A-degree up to reach (4,508) and 1.55 MiB on the 1,011
    # the run reads (Python 3.11), so a change that builds the full E_1
    # again fails
    A, sched, w = Case("v2", 2, 2000).build()
    tracemalloc.start()
    try:
        run(A, sched, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def _targets_read_below():
    """A schedule, for its cones only (page 2's target dies on page 1),
    whose page 1 cone holds A-degree 6 only through a target: page 4's
    rule reads its source at 7, page 2 fires a record from 7 into 4, and
    page 1's record from 6 enters 4.  E(x1, x2, x3, x4) (x) P(y) over
    F_2, |v| = 1, window 0..1."""
    A = Algebra(2, (GeneratorSpec("x1", 1, EXTERIOR), GeneratorSpec("x2", 2, EXTERIOR),
                    GeneratorSpec("x3", 7, EXTERIOR), GeneratorSpec("x4", 5, EXTERIOR),
                    GeneratorSpec("y", 2, POLYNOMIAL)))
    v = v_gen("v", 1)
    Av = A.adjoin(v)
    sched = DifferentialSchedule(v, {
        1: RulePage(1, [Rule(A.monomial(x2=1), element(Av, (1, Av.monomial(v=1))))]),
        2: RulePage(2, [Rule(A.monomial(x4=1), element(Av, (1, Av.monomial(x2=1, v=2))))]),
        4: RulePage(4, [Rule(A.monomial(x3=1), element(Av, (1, Av.monomial(y=1, v=4))))]),
    })
    return "targets-read-below", A, sched, Window(1)


@pytest.mark.parametrize("case", golden.FIXED + HAND_BUILT + [_targets_read_below()],
                         ids=lambda c: c[0] if isinstance(c, tuple) else golden.case_id(c))
def test_each_cone_holds_every_record_a_later_read_depends_on(case):
    # the cones against their rule, stated as sets: before page r the run
    # reads the window and the sources at D + 1, each later rule's source
    # and target, and the source and target of each later cone's record; a
    # page's cone must hold each record of its clearing index that leaves
    # or enters one of them, and the record out of each of its records'
    # targets
    if isinstance(case, tuple):
        _, A, sched, w = case
        localized = False
    else:
        A, sched, w = case.build()
        localized = case.localized
    max_source = max(A.degree(rule.source) for pg in sched.pages.values() for rule in pg.rules)
    ctx = EngineContext(A, sched.v, localized, w.max_degree, max(sched.pages), max_source)
    cones = engine._cones(ctx, [(r, _page_generators(A, ctx.deg_v, pg))
                                for r, pg in sorted(sched.pages.items())])
    read = set(range(ctx.max_degree - ctx.s_lo * ctx.deg_v + 2))
    for r in sorted(sched.pages, reverse=True):
        shift = 1 + r * ctx.deg_v
        for rule in sched.pages[r].rules:
            read |= {A.degree(rule.source), A.degree(rule.source) - shift}
        gens = _page_generators(A, ctx.deg_v, sched.pages[r])
        index = set(_set_bits(_rule_degrees(A, gens, ctx.reach)))
        cone = set(_set_bits(cones[r]))
        assert cone <= index
        assert {a for a in index if a in read or a - shift in read} <= cone, r
        assert {a - shift for a in cone} & index <= cone, r
        read |= cone | {a - shift for a in cone}


def test_a_rule_source_killed_above_the_window_is_still_refused():
    # d_1(z) = v w^2 leaves z no cycle, so d_2(z) = v^2 w has a dead
    # source.  With the window at 0 both records lie above it and change
    # nothing the run reads; page 1 fires at z's A-degree only because
    # page 2's rule check reads it
    A = Algebra(3, (GeneratorSpec("z", 7, EXTERIOR), GeneratorSpec("w", 2, POLYNOMIAL)))
    v = v_gen("v", 2)
    Av = A.adjoin(v)
    sched = DifferentialSchedule(v, {
        1: RulePage(1, [Rule(A.monomial(z=1), element(Av, (1, Av.monomial(w=2, v=1))))]),
        2: RulePage(2, [Rule(A.monomial(z=1), element(Av, (1, Av.monomial(w=1, v=2))))]),
    })
    for D in (0, 5):
        with pytest.raises(DeadSourceError):
            run(A, sched, Window(D))


def test_clearing_index_of_rules_on_several_generators():
    # the Koszul-sign algebra below has a polynomial generator besides mu
    # and two rules on a page, one exterior and one on mu; with no power
    # rule every polynomial generator is free; d_1(y) = v0 (x2 + x1 z)
    # lives on y x2 through its x1 z term alone, the x2 term dying on the
    # cofactor x2, so each term leaves out only the exterior generators it
    # holds itself
    from bockstein.algebra import Algebra, basis_up_to

    A = Algebra(3, (GeneratorSpec("x1", 1, EXTERIOR), GeneratorSpec("x2", 3, EXTERIOR),
                    GeneratorSpec("x3", 5, EXTERIOR), GeneratorSpec("y", 4, POLYNOMIAL),
                    GeneratorSpec("z", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    d_x3 = element(Av, (1, Av.monomial(y=1, v0=1)), (1, Av.monomial(x1=1, x2=1, v0=1)))
    d_y = element(Av, (1, Av.monomial(x2=1, v0=1)), (1, Av.monomial(x1=1, z=1, v0=1)))
    d_y3 = element(Av, (1, Av.monomial(x2=1, y=1, z=2, v0=1)))
    ctx = EngineContext(A, v, False, 40, 1)
    basis = basis_up_to(A, 40)
    for page in (RulePage(1, [Rule(A.monomial(x3=1), d_x3), Rule(A.monomial(y=1), d_y)]),
                 RulePage(1, [Rule(A.monomial(x3=1), d_x3)]),
                 RulePage(1, [Rule(A.monomial(y=3), d_y3)], attach={0: 0, 1: 1}),
                 RulePage(1, [Rule(A.monomial(y=1), d_y)])):
        gens = _page_generators(A, ctx.deg_v, page)
        index = _rule_degrees(A, gens, 40)
        hit = [a for a, mons in basis.items() if any(_d_of_monomial(ctx, gens, m) for m in mons)]
        assert hit and all(index >> a & 1 for a in hit), page
        assert index < 1 << 41


def test_set_bits_walks_a_clearing_index_in_increasing_order():
    rng = random.Random(0)
    for x in [*range(256), 1 << 8, (1 << 64) - 1] + [rng.getrandbits(rng.randint(1, 3000))
                                                     for _ in range(50)]:
        assert list(_set_bits(x)) == [a for a in range(x.bit_length()) if x >> a & 1]


def _random_cell(rng, p, n, dim):
    """A cell over n monomials with dim classes: untouched when dim is n and
    the coin says so, otherwise reps independent modulo random boundaries."""
    mons = tuple((i,) for i in range(n))
    if dim == n and rng.random() < 0.5:
        return make_cell(mons)
    while True:
        bnd = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(n - dim + 1))]
        ech = linalg.echelon_from_rows(bnd, p)
        reps = []
        for _ in range(20 * n):
            row = [rng.randrange(p) for _ in range(n)]
            if len(reps) < dim and linalg.echelon_insert(ech, row, p) is not None:
                reps.append(row)
        if len(reps) == dim:
            return make_cell(mons, reps, bnd)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_record_is_eliminated_once_as_linalg_would(p):
    # _record's kernel, rank and reduced echelon form, which apply_page
    # reuses for the homology and the well-definedness check, against the
    # linalg functions they replace; every row of its matrix against a
    # CosetSolver of the target, the untouched targets included
    rng = random.Random(p)
    for _ in range(150):
        tn = rng.randint(1, 5)
        tcell = _random_cell(rng, p, tn, rng.randint(1, min(4, tn)))
        sn = rng.randint(1, 5)
        cell = _random_cell(rng, p, sn, rng.randint(1, min(4, sn)))
        # each source monomial goes to a class of the target plus a boundary,
        # as a row over the target's monomials
        rows = []
        for _ in range(sn):
            vec = [0] * tn
            for row in reps_rows(tcell) + list(tcell[BOUNDARIES]):
                c = rng.randrange(p) if rng.random() < 0.6 else 0
                vec = [(x + c * y) % p for x, y in zip(vec, row)]
            rows.append(vec)
        e = _record(cell, rows, tcell, p, 1, 0, {})
        solver = linalg.CosetSolver(reps_rows(tcell), tcell[BOUNDARIES], tn, p)
        want = []
        for rep in reps_rows(cell):
            vec = [0] * tn
            for c, row in zip(rep, rows):
                vec = [(x + c * y) % p for x, y in zip(vec, row)]
            want.append(solver.express(vec))
        if not any(map(any, want)):
            assert e is None
            continue
        mat, kernel, echelon = e
        assert mat == want
        assert kernel == linalg.left_kernel(mat, tcell[DIM], p)
        assert linalg.rank(mat, p) == len(mat) - len(kernel)
        assert echelon == linalg.echelon_from_rows(mat, p)
        # and the kernel on its own terms: it annihilates the matrix, its
        # rows are independent, and there are rows - rank of them
        assert not any(map(any, linalg.mat_mul(kernel, mat, p)))
        assert linalg.rank(kernel, p) == len(kernel) == len(mat) - linalg.rank(mat, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_untouched_cells_express_a_vector_as_itself(p):
    # an untouched cell has every monomial alive and no boundaries, so
    # engine._express needs no solver; it must agree with one on vectors not
    # yet reduced mod p
    rng = random.Random(p)
    for n in range(1, 5):
        cell = make_cell(tuple((i,) for i in range(n)))
        solver = linalg.CosetSolver(reps_rows(cell), [], n, p)
        solvers = {}
        for _ in range(50):
            vec = [rng.randrange(-p, 2 * p) for _ in range(n)]
            got = engine._express(cell, vec, p, solvers)
            assert got == solver.express(vec)
        assert not solvers


class _ReferenceCosetSolver:
    """linalg.CosetSolver as it was before it shared kernel_and_echelon's
    forward elimination, kept as its reference: the boundaries' echelon
    form, then a tracked elimination of the boundary-reduced reps."""

    def __init__(self, reps, boundaries, width, p):
        self.p = p
        self.width = width
        self.nreps = len(reps)
        self.bnd = linalg.echelon_from_rows(boundaries, p)
        self.ech = []  # (pivot, row, coeffs over reps)
        for i, rep in enumerate(reps):
            row = linalg.reduce_row(rep, self.bnd, p)
            track = [0] * self.nreps
            track[i] = 1
            for piv, erow, etrack in self.ech:
                c = row[piv]
                if c:
                    for j in range(width):
                        if erow[j]:
                            row[j] = (row[j] - c * erow[j]) % p
                    for j in range(self.nreps):
                        if etrack[j]:
                            track[j] = (track[j] - c * etrack[j]) % p
            piv = next((j for j, c in enumerate(row) if c), None)
            if piv is None:
                raise ValueError("representatives are dependent modulo boundaries")
            inv = linalg.inv_mod(row[piv], p)
            row = [(c * inv) % p for c in row]
            track = [(c * inv) % p for c in track]
            self.ech.append((piv, row, track))

    def express(self, vec):
        p = self.p
        row = linalg.reduce_row(vec, self.bnd, p)
        coeffs = [0] * self.nreps
        for piv, erow, etrack in self.ech:
            c = row[piv]
            if c:
                for j in range(self.width):
                    if erow[j]:
                        row[j] = (row[j] - c * erow[j]) % p
                for j in range(self.nreps):
                    if etrack[j]:
                        coeffs[j] = (coeffs[j] + c * etrack[j]) % p
        if any(row):
            return None
        return coeffs

    def in_boundaries(self, vec):
        return not any(linalg.reduce_row(vec, self.bnd, self.p))


def _random_rows(rng, p, count, width, earlier):
    """count rows of unreduced residues, each at random zero, a combination
    of earlier rows and those before it (so dependent), or random."""
    rows = []
    for _ in range(count):
        pick = rng.random()
        if pick < 0.1:
            row = [rng.choice((0, p, -p)) for _ in range(width)]
        elif pick < 0.35 and earlier + rows:
            row = [0] * width
            for other in earlier + rows:
                c = rng.randrange(p)
                row = [x + c * y for x, y in zip(row, other)]
            row = [x + p * rng.randint(-1, 1) for x in row]
        else:
            row = [rng.randrange(-p, 2 * p) for _ in range(width)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_solver_equals_the_reference(p):
    # dependent reps, unreduced residues, vectors in and out of the span:
    # the same coordinates, the same None and the same refusal as the
    # reference, and all-zero coordinates exactly on the boundaries
    rng = random.Random(100 + p)
    seen = defaultdict(int)
    for _ in range(600):
        width = rng.randint(0, 6)
        bnd = _random_rows(rng, p, rng.randint(0, 4), width, [])
        reps = _random_rows(rng, p, rng.randint(0, 4), width, bnd if rng.random() < 0.3 else [])
        try:
            ref = _ReferenceCosetSolver(reps, bnd, width, p)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                linalg.CosetSolver(reps, bnd, width, p)
            seen["refused"] += 1
            continue
        solver = linalg.CosetSolver(reps, bnd, width, p)
        for vec in _random_rows(rng, p, 12, width, reps + bnd):
            want = ref.express(vec)
            assert solver.express(vec) == want
            if want is None:
                seen["outside"] += 1
                continue
            assert (not any(want)) == ref.in_boundaries(vec)
            seen["boundary" if ref.in_boundaries(vec) else "class"] += 1
    assert min(seen[k] for k in ("refused", "outside", "boundary", "class")) >= 50, dict(seen)


def _reference_homology(cell, out_mat, tdim, image_mat, p):
    """_homology as computed with identity rows built for an untouched cell
    and two eliminations of each record: left_kernel of the outgoing one
    and echelon_from_rows of the incoming one."""
    if out_mat is None and image_mat is None:
        return cell
    reps = reps_rows(cell)
    n = len(reps)
    if out_mat is not None:
        ker = linalg.left_kernel(out_mat, tdim, p)
    else:
        ker = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    im_ech = {} if image_mat is None else linalg.echelon_from_rows(image_mat, p)
    combos, combo_ech = [], {}
    for kv in ker:
        red = linalg.reduce_row(linalg.reduce_row(kv, im_ech, p), combo_ech, p)
        if any(red):
            linalg.echelon_insert(combo_ech, red, p)
            combos.append(red)
    assert len(combos) == len(ker) - len(im_ech)
    width = len(cell[MONOMIALS])

    def combine(combo):
        vec = [0] * width
        for c, rep in zip(combo, reps):
            vec = [(x + c * y) % p for x, y in zip(vec, rep)]
        return vec

    bnd = [list(b) for b in cell[BOUNDARIES]]
    bnd += [vec for vec in map(combine, image_mat or ()) if any(vec)]
    return make_cell(cell[MONOMIALS], [combine(c) for c in combos], bnd)


def _combinations(rng, p, basis, count):
    """count random combinations of the basis rows."""
    rows = []
    for _ in range(count):
        row = [0] * len(basis[0])
        for b in basis:
            c = rng.randrange(p)
            row = [(x + c * y) % p for x, y in zip(row, b)]
        rows.append(row)
    return rows


def _eliminated(mat, ncols, p):
    """A record as _record gives it: (matrix, left kernel, echelon form)."""
    return (mat, *linalg.kernel_and_echelon(mat, ncols, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_homology_builds_what_identity_rows_and_two_eliminations_build(p):
    # touched and untouched cells of dimension 1-4, each with an outgoing
    # record, an incoming one, both or neither; the incoming rows are
    # combinations of the outgoing kernel, as d_r o d_r = 0 makes them
    rng = random.Random(10 + p)
    untouched = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        cell = _random_cell(rng, p, n, rng.randint(1, n))
        untouched += cell[REPS] is None
        dim = cell[DIM]
        out_mat = tdim = None
        if rng.random() < 0.6:
            tdim = rng.randint(1, 4)
            basis = [[rng.randrange(p) for _ in range(tdim)] for _ in range(rng.randint(1, dim))]
            out_mat = _combinations(rng, p, basis, dim)
            if not any(map(any, out_mat)):
                out_mat = None
        cycles = (linalg.left_kernel(out_mat, tdim, p) if out_mat is not None
                  else [[int(i == j) for j in range(dim)] for i in range(dim)])
        image_mat = None
        if cycles and rng.random() < 0.6:
            image_mat = _combinations(rng, p, cycles, rng.randint(1, 4))
            if not any(map(any, image_mat)):
                image_mat = None
        out = None if out_mat is None else _eliminated(out_mat, tdim, p)
        image = None if image_mat is None else _eliminated(image_mat, dim, p)
        got = _homology(cell, None if out is None else out[1], image_mat,
                        {} if image is None else image[2], p, 1, 0)
        assert got == _reference_homology(cell, out_mat, tdim, image_mat, p)
    assert 50 < untouched < 250


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_and_echelon_is_left_kernel_and_echelon_from_rows(p):
    # zero, repeated and dependent rows included; the kernel must equal
    # left_kernel's row for row, since it picks the next representatives
    rng = random.Random(20 + p)
    for _ in range(200):
        ncols = rng.randint(1, 6)
        basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        rows = _combinations(rng, p, basis, rng.randint(1, 6))
        if rng.random() < 0.3:
            rows.append(list(rows[0]))
        kernel, echelon = linalg.kernel_and_echelon(rows, ncols, p)
        assert kernel == linalg.left_kernel(rows, ncols, p)
        assert echelon == linalg.echelon_from_rows(rows, p)


def _reference_forward(rows, ncols, p):
    """linalg._forward as it was before it reduced each row in the one list
    it builds, kept as its reference: [row | e_i] copied, reduced by
    reduce_row against the pivot rows so far, its pivot found by a
    generator."""
    m = len(rows)
    fwd = {}
    kernel = []
    for i, row in enumerate(rows):
        aug = list(row) + [0] * m
        aug[ncols + i] = 1
        r = linalg.reduce_row(aug, fwd, p)
        piv = next((j for j in range(ncols) if r[j]), None)
        if piv is None:
            kernel.append([c % p for c in r[ncols:]])
        else:
            inv = linalg.inv_mod(r[piv], p)
            fwd[piv] = [(c * inv) % p for c in r]
    return fwd, kernel


def _reference_kernel_and_echelon(rows, ncols, p):
    """linalg.kernel_and_echelon on _reference_forward: the pivot rows cut
    to M's columns and back-substituted from the last pivot up."""
    fwd, kernel = _reference_forward(rows, ncols, p)
    ech = {}
    for piv in sorted(fwd, reverse=True):
        r = fwd[piv][:ncols]
        for col, other in ech.items():
            c = r[col]
            if c:
                for j in range(col, ncols):
                    if other[j]:
                        r[j] = (r[j] - c * other[j]) % p
        ech[piv] = r
    return kernel, ech


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_and_echelon_equals_the_reference(p):
    # left_kernel is kernel_and_echelon's kernel, so the test above cannot
    # see a kernel that changes basis; here widths 1-6 with zero, repeated,
    # dependent and unreduced rows, and every 1 x 1 matrix, against the
    # elimination _forward replaced: the pivot rows (which CosetSolver
    # reduces by), the kernel row for row (the next representatives) and
    # the echelon form
    rng = random.Random(30 + p)
    seen = defaultdict(int)
    matrices = [([[c]], 1) for c in range(-p, 2 * p)]
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = _random_rows(rng, p, rng.randint(1, 6), ncols, [])
        if rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        matrices.append((rows, ncols))
    for rows, ncols in matrices:
        kernel, echelon = linalg.kernel_and_echelon(rows, ncols, p)
        fwd, cols, forward_kernel = linalg._forward(rows, ncols, p)
        assert (fwd, forward_kernel) == _reference_forward(rows, ncols, p)
        assert cols == sorted(fwd)  # the pivot columns, increasing
        assert (kernel, echelon) == _reference_kernel_and_echelon(rows, ncols, p)
        seen[min(len(kernel), 2)] += 1
    assert min(seen[k] for k in (0, 1, 2)) >= 30, dict(seen)


def _counted(calls, name, f):
    def counted(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)
    return counted


def test_a_page_eliminates_each_record_once_and_builds_no_identity_rows(monkeypatch):
    # v1 p=3 D=2000, whose cones fire 151 records: each nonzero d_r record
    # costs one forward elimination, echelon_from_rows runs only inside the
    # solvers of touched cells, and no untouched cell (all of E_1's) is
    # asked for identity rows, by the run or by the writers, which read its
    # classes off its monomials: a cell is an exact tuple, with no method
    # that builds them (reference.reps_rows is test tooling), so a run that
    # asked would fail
    calls = defaultdict(int)
    for name in ("kernel_and_echelon", "left_kernel", "echelon_from_rows"):
        monkeypatch.setattr(linalg, name, _counted(calls, name, getattr(linalg, name)))
    monkeypatch.setattr(linalg.CosetSolver, "__init__", _counted(
        calls, "solvers", linalg.CosetSolver.__init__))
    homology = engine._homology

    def counted_homology(cell, kernel, image, echelon, p, r, a):
        calls["homology"] += 1
        calls["homology of neither"] += kernel is None and image is None
        return homology(cell, kernel, image, echelon, p, r, a)

    monkeypatch.setattr(engine, "_homology", counted_homology)
    sched, pages, profile = Case("v1", 3, 2000).run()
    records = {pd.r: sum(rec is not None for bars in pd.maps.values() for _, rec in bars)
               for pd in pages}
    assert records[min(sched.pages)] > 0 and sum(records.values()) > 100
    assert calls["kernel_and_echelon"] == sum(records.values())
    # _homology runs on each bar of a record's source and on the new top
    # bar of each target, and never on the old bars of an A-degree that d_r
    # only enters, which the page passes on
    shift = {pd.r: 1 + pd.r * pd.ctx.deg_v for pd in pages}
    assert calls["homology"] == sum(
        len(pd.degrees[a]) for pd in pages for a in pd.maps) + sum(
        len({a - shift[pd.r] for a in pd.maps}) for pd in pages)
    assert calls["homology of neither"] == 0
    assert calls["left_kernel"] == 0
    assert calls["echelon_from_rows"] == calls["solvers"]
    emit_json(pages, profile, {})
    _, local, _ = Case("v2", 3, 120, localized=True).run()
    assert laurent_span(local[-1]) == ["1"]
    # v0 p=2 n=3 D=1000 fires 244 records on 1 x 1 cells: each target's new
    # top bar reads its reps off the image's echelon form, and a source's
    # kernel is empty, so no row is reduced (one reduce_row per record when
    # the target's identity rows were built and reduced)
    monkeypatch.setattr(linalg, "reduce_row", _counted(calls, "reduce_row", linalg.reduce_row))
    _, v0_pages, _ = Case("v0", 2, 1000, n=3).run()
    assert sum(rec is not None for pd in v0_pages for bars in pd.maps.values()
               for _, rec in bars) == 244
    assert calls["reduce_row"] == 0
    monkeypatch.undo()
    assert all(type(cell) is tuple for pd in pages + v0_pages
               for bars in pd.degrees.values() for _, cell in bars)


def test_a_capped_run_builds_no_identity_rows():
    # v2 p=2 D=120 cap 4: the classes at 64, 83 and 103 support the unfired
    # d_8; _unfired_sources forms their images off the monomials' images
    # (_combination), so no cell is asked for rows: a cell is an exact
    # tuple, with no method that builds them (reference.reps_rows is test
    # tooling), so a run that asked would fail
    _, pages, profile = Case("v2", 2, 120, page_cap=4).run()
    for t in (64, 83, 103):
        assert any(x.possibly_absent for x in profile.lengths(t) if isinstance(x, Unknown))
    assert all(type(cell) is tuple for pd in pages
               for bars in pd.degrees.values() for _, cell in bars)


def _reference_read_column(prof, b, bars, future_min_page, leaving):
    """engine._read_column as it was before it read the bars in one pass,
    kept as its reference: a list of every bar's dimension, the check that
    they never increase, then the towers."""
    dims = [cell[DIM] for _, cell in bars]
    for k in range(1, len(dims)):
        if dims[k] > dims[k - 1]:
            raise engine.EngineAssertionError(
                f"dimensions increase along the v-tower at base degree {b}")
    top = (len(bars) if future_min_page is None
           else bisect_left(bars, future_min_page, key=itemgetter(0))) - 1
    for k in range(1, top + 1):
        for _ in range(dims[k - 1] - dims[k]):
            prof.add(b, bars[k][0])
    if future_min_page is None:
        for _ in range(dims[top]):
            prof.add(b, INF)
        return
    absent = leaving(bars[top][1]) if dims[top] else 0
    for _ in range(absent):
        prof.add(b, Unknown(possibly_absent=True))
    for _ in range(dims[top] - absent):
        prof.add(b, Unknown(future_min_page))


def _marked(profile):
    """A profile with its unknowns' advisory marks: lower bounds and the
    possibly-absent mark, which TowerProfile's equality leaves out."""
    return {t: [length_str(x) for x in profile.towers[t]] for t in profile.degrees()}


@pytest.mark.parametrize("case", golden.all_cases(), ids=golden.case_id)
def test_towers_are_read_as_the_reference_reads_them(case, monkeypatch):
    # every golden case and page-cap sweep point: the final page's towers
    # read again with the reference column reader give the same lengths,
    # the same unknowns' lower bounds and the same possibly-absent marks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched, pages, profile = case.run()
    ctx = pages[-1].ctx
    unfired = {r: _page_generators(ctx.A, ctx.deg_v, sched.pages[r]) for r in sorted(sched.pages)
               if case.page_cap is not None and r > case.page_cap}
    monkeypatch.setattr(engine, "_read_column", _reference_read_column)
    want = engine.extract_towers(pages[-1], sched, unfired)
    assert _marked(profile) == _marked(want)
    assert profile.towers


@pytest.mark.parametrize("seed", range(4))
def test_read_column_equals_the_reference_on_random_bars(seed):
    # random bars of 1-5 cells of dimension 0-4 starting at 0 and at random
    # pages, mostly non-increasing, with and without a future page (below,
    # among and above the bars' starts); leaving counts a part of the top
    # cell's classes.  The same towers and marks, or the same refusal
    rng = random.Random(seed)
    seen = defaultdict(int)

    def leaving(cell):
        return len(cell[MONOMIALS]) % (cell[DIM] + 1)

    for _ in range(400):
        starts = [0] + sorted(rng.sample(range(1, 30), rng.randint(0, 4)))
        dims = [rng.randint(0, 4)]
        for _ in starts[1:]:
            dims.append(rng.randint(0, dims[-1]) if rng.random() < 0.9 else rng.randint(0, 5))
        bars = tuple((s, make_cell(tuple((i,) for i in range(rng.randint(d, 5))), [[1]] * d))
                     for s, d in zip(starts, dims))
        future = None if rng.random() < 0.4 else rng.randint(1, 32)
        got, want = TowerProfile(10), TowerProfile(10)
        errors = []
        for reader, prof in ((engine._read_column, got), (_reference_read_column, want)):
            try:
                reader(prof, 7, bars, future, leaving)
                errors.append(None)
            except engine.EngineAssertionError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        if errors[0] is None:
            assert _marked(got) == _marked(want)
            seen["unknown" if got.has_unknown() else "read"] += 1
        else:
            seen["refused"] += 1
        seen[min(len(bars), 2)] += 1
    assert min(seen[k] for k in ("unknown", "read", "refused", 1, 2)) >= 20, dict(seen)


def _reference_next_state(pd):
    """The state after page pd as the walk that gathered the fired records
    first and then took the homology of each A-degree they leave or enter,
    in increasing order, built it, from pd's records by _reference_homology:
    each bar of a source loses its cycles, and a target gains a new top bar
    (with v inverted, its one bar is replaced) from its old top bar, its
    own top record and the incoming one."""
    ctx, r, p = pd.ctx, pd.r, pd.ctx.A.p
    shift = 1 + r * ctx.deg_v
    incoming = {a - shift: bars[-1][1].matrix for a, bars in pd.maps.items()}
    state = dict(pd.degrees)
    for a in sorted(pd.maps.keys() | incoming.keys()):
        bars, out, image = pd.degrees[a], pd.maps.get(a), incoming.get(a)
        tdim = None if out is None else pd.degrees[a - shift][-1][1][DIM]
        top = None if out is None else out[-1][1].matrix
        if ctx.localized:
            ((s, cell),) = bars
            state[a] = ((s, _reference_homology(cell, top, tdim, image, p)),)
            continue
        new = list(bars) if out is None else [
            (s, _reference_homology(cell, rec.matrix, tdim, None, p))
            for (s, cell), (_, rec) in zip(bars, out)]
        if image is not None:
            new.append((r, _reference_homology(bars[-1][1], top, tdim, image, p)))
        state[a] = tuple(new)
    return state


def _step_cases():
    out = [(label, lambda A=A, s=s, w=w: run(A, s, w)[0]) for label, A, s, w in HAND_BUILT]
    out += [(label + "-loc", lambda A=A, s=s, w=w: run(A, s, w, localized=True)[0])
            for label, A, s, w in HAND_BUILT if s.v.degree]
    out += [(golden.case_id(c), lambda c=c: c.run()[1]) for c in (
        Case("v2", 2, 120, localized=True), Case("v0", 2, 200, n=3),
        Case("v1", 3, 130, page_cap=27), Case("conj", 3, 160, n=4, m=3))]
    return out


@pytest.mark.parametrize("label, pages_of", _step_cases(), ids=[c[0] for c in _step_cases()])
def test_each_page_builds_the_state_the_reference_builds(label, pages_of):
    # apply_page forms each target's new top bar in the upward walk that
    # fires the records, as soon as the target's incoming record fires;
    # every fired page must leave the state the two-pass reference builds
    # from the same records, on runs whose A-degrees are both a source and
    # a target of one page (the hand-built ones, localized included)
    pages = pages_of()
    both = 0
    for pd, nxt in zip(pages, pages[1:]):
        if not pd.maps:
            continue
        shift = 1 + pd.r * pd.ctx.deg_v
        both += len(pd.maps.keys() & {a - shift for a in pd.maps})
        assert nxt.degrees == _reference_next_state(pd), pd.r
    if label in ("powers-p2", "high-source-p5", "powers-p2-loc", "high-source-p5-loc"):
        assert both > 0


# sha256 of the schema-2 document (UTF-8, meta {}) and of the profile's
# summary lines of the multi-row run below, recorded by the engine before
# the record step was rewritten to make fewer calls and objects per record
MULTI_ROW_JSON_SHA256 = "ceab174f24c502ae6e5f373d11050cbab7bf3f405a56964ea7efb7177c5e4cc9"
MULTI_ROW_PROFILE_SHA256 = "04a308b1b5a7e363b7dc721842f8ea78ac11543954d27bf8af99c4d6d813e7bb"


def _eight_class_schedule():
    """E(λ0..λ5: 3, 5, 7, 9, 11, 13) ⊗ P(μ: 16) at p = 3 and |v| = 3, with
    d_1(μ) = v·λ0λ3 and d_2(μ^3) = v^2·μ^2λ3: its cells hold up to eight
    classes, where no certified case has a cell of dimension > 1."""
    gens = tuple(GeneratorSpec(f"λ{i}", d, EXTERIOR) for i, d in enumerate((3, 5, 7, 9, 11, 13)))
    A = Algebra(3, gens + (GeneratorSpec("μ", 16, POLYNOMIAL),))
    v = v_gen("v", 3)
    Av = A.adjoin(v)
    return A, DifferentialSchedule(v, {
        1: RulePage(1, [Rule(A.monomial(μ=1), element(Av, (1, Av.monomial(λ0=1, λ3=1, v=1))))]),
        2: RulePage(2, [Rule(A.monomial(μ=3), element(Av, (1, Av.monomial(μ=2, λ3=1, v=2))))]),
    })


def test_a_run_on_cells_of_up_to_eight_classes_keeps_its_document(monkeypatch):
    # _eight_class_schedule at D = 300 reaches the multi-row paths of the
    # record step, the homology and CosetSolver end to end
    A, sched = _eight_class_schedule()
    solvers = []
    init = linalg.CosetSolver.__init__

    def counted(self, reps, boundaries, width, p):
        solvers.append(len(reps))
        init(self, reps, boundaries, width, p)

    monkeypatch.setattr(linalg.CosetSolver, "__init__", counted)
    pages, profile = run(A, sched, Window(300))
    monkeypatch.undo()
    doc = emit_json(pages, profile, {})
    summary = "\n".join(profile.summary_lines())
    assert golden._sha(doc) == MULTI_ROW_JSON_SHA256
    assert golden._sha(summary) == MULTI_ROW_PROFILE_SHA256
    records = [rec for pd in pages for bars in pd.maps.values() for _, rec in bars if rec]
    assert [pd.r for pd in pages] == [1, 2, 3]
    assert (len(records), sum(len(rec.matrix) > 1 for rec in records)) == (324, 316)
    assert max(cell[DIM] for pd in pages for bars in pd.degrees.values() for _, cell in bars) == 8
    assert (len(solvers), sum(n > 1 for n in solvers)) == (93, 85)
    assert sum(map(len, profile.towers.values())) == 821


def _leaving_counts(monkeypatch, A, sched, D):
    """Run the schedule capped at page 1, and check the count of classes
    that may leave of each top cell page 1 touched against the rank of
    their images under page 2 by the Leibniz reference, a class being its
    representative's combination of monomials.  Returns (cell, count) of
    those cells, and the profile."""
    counted = []
    leaving = engine._unfired_sources

    def record(ctx, unfired, cell):
        n = leaving(ctx, unfired, cell)
        counted.append((ctx, cell, n))
        return n

    monkeypatch.setattr(engine, "_unfired_sources", record)
    _, profile = run(A, sched, Window(D), page_cap=1)
    monkeypatch.undo()
    touched = [(ctx, cell, n) for ctx, cell, n in counted if cell[REPS] is not None]
    page = sched.pages[2]
    for ctx, cell, n in touched:
        images = [reference_d_of_monomial(ctx, page, m) for m in cell[MONOMIALS]]
        index = {mon: k for k, mon in enumerate({mon for img in images for mon in img})}
        rows = []
        for rep in reps_rows(cell):
            row = [0] * len(index)
            for c, img in zip(rep, images):
                for mon, x in img.items():
                    row[index[mon]] += c * x
            rows.append(row)
        assert n == rank_mod_p(rows, A.p), cell[MONOMIALS]
    return [(cell, n) for _, cell, n in touched], profile


def test_classes_that_may_leave_are_counted_on_their_representatives(monkeypatch):
    # capped at page 1, a run leaves page 2 unfired, and each top cell of a
    # tower counts the classes page 2's derivation does not vanish on
    A, sched = _eight_class_schedule()
    touched, _ = _leaving_counts(monkeypatch, A, sched, 300)
    assert (len(touched), sum(n > 0 for _, n in touched)) == (206, 92)
    assert max(cell[DIM] for cell, _ in touched) == 6
    # there the monomials' images have the classes' rank; here d_1(μ) = v b
    # leaves the class e of {e, aμ}, and d_2(a) = v^2 is nonzero on aμ alone,
    # so no class of that cell may leave
    A = Algebra(3, (GeneratorSpec("a", 1, EXTERIOR), GeneratorSpec("b", 3, EXTERIOR),
                    GeneratorSpec("e", 5, EXTERIOR), GeneratorSpec("μ", 4, POLYNOMIAL)))
    v = v_gen("v", 0)
    Av = A.adjoin(v)
    sched = DifferentialSchedule(v, {
        1: RulePage(1, [Rule(A.monomial(μ=1), element(Av, (1, Av.monomial(b=1, v=1))))]),
        2: RulePage(2, [Rule(A.monomial(a=1), element(Av, (1, Av.monomial(v=2))))]),
    })
    touched, profile = _leaving_counts(monkeypatch, A, sched, 5)
    assert [(cell[MONOMIALS], n) for cell, n in touched] == [
        ((A.monomial(e=1), A.monomial(a=1, μ=1)), 0)]
    assert profile.lengths(5) == [Unknown(2)]


def test_a_run_makes_about_twenty_python_calls_per_record():
    # the Python-level calls engine.run makes, counted with sys.setprofile
    # (generator resumes included), on v0 p=2 n=3 D=1000, whose 244 records
    # are 1 x 1: 7,795 when each record made about ten calls and a cell
    # computed its dimension on each read, 4,702 (19.3 a record, E_1 and
    # the tower reading included) when a cell was a class instance, and
    # 3,720 (15.2) since a cell is a tuple built with no call, in a fresh
    # interpreter; the test runner may add a call or two of its own
    A, sched, w = Case("v0", 2, 1000, n=3).build()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        pages, _ = run(A, sched, w)
    finally:
        sys.setprofile(None)
    assert sum(rec is not None for pd in pages for bars in pd.maps.values()
               for _, rec in bars) == 244
    assert calls <= 3728, calls
