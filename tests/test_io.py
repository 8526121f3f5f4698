import json
import random
import re
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import pytest

from bockstein.algebra import EXTERIOR, POLYNOMIAL, Algebra, GeneratorSpec
from bockstein.cases import Case
from bockstein.closedform import thh_mod_p_algebra
from bockstein.engine import (Cell, DiffRecord, EngineContext, PageData, Window, run,
                              schedule_v0, schedule_v2)
from bockstein.jsonio import (_json_list, _lead_renderer, _with_v, emit_json, json_fragments,
                              monomial_str)
from bockstein import jsonio, svg
from bockstein.svg import ChartStyle, chart_marks, draw_chart, emit_svg
from bockstein.towers import INF, TowerProfile, Unknown
import golden
from golden import expand, parse_json
from reference import reps_rows


def _lead(A, monomials, row, ascii_):
    for mon, c in zip(monomials, row):
        if c:
            return monomial_str(A, mon, ascii_)
    return None


def rep_str(A, monomials, row, v_name, s, ascii_=False):
    """Lead-monomial string of a representative row, with the v-power."""
    return _with_v(_lead(A, monomials, row, ascii_), v_name, s, ascii_)


def length_json(x):
    if isinstance(x, Unknown):
        return "unknown"
    if x == INF:
        return "inf"
    return int(x)


def towers_record(profile):
    """The writer's towers as the encoder was given them: the reference the
    tower text is checked against."""
    return [{"t": d, "lengths": [length_json(x) for x in profile.towers[d]]}
            for d in profile.degrees()]


def _v0_run(D=58):
    A = thh_mod_p_algebra(2, 2)
    w = Window(D)
    sched = schedule_v0(2, 2, w)
    pages, prof = run(A, sched, w)
    meta = {"case": "v0", "p": 2, "n": 2, "D": D, "localized": False, "variant": None}
    return pages, prof, meta


def test_monomial_string_format():
    A = thh_mod_p_algebra(2, 2)
    assert monomial_str(A, A.unit) == "1"
    assert monomial_str(A, A.monomial(**{"λ3": 1})) == "λ3"
    m = A.monomial(**{"λ1": 1, "μ3": 2})
    assert monomial_str(A, m) == "λ1·μ3^2"
    assert monomial_str(A, m, ascii_=True) == "l1*m3^2"


def test_json_schema_and_fixtures():
    pages, prof, meta = _v0_run()
    doc = json.loads(expand(emit_json(pages, prof, meta)))
    assert set(doc) == {"meta", "pages", "towers"}
    assert doc["meta"]["case"] == "v0" and doc["meta"]["tool_version"]
    page1 = doc["pages"][0]
    assert page1["r"] == 1
    rec = next(c for c in page1["classes"] if c["t"] == 15 and c["s"] == 0)
    assert rec == {"t": 15, "s": 0, "dim": 1, "reps": ["λ3"]}
    t31 = next(t for t in doc["towers"] if t["t"] == 31)
    assert t31 == {"t": 31, "lengths": [2]}
    assert all(d["rank"] >= 1 for pg in doc["pages"] for d in pg["differentials"])


def test_json_roundtrip_and_determinism():
    pages, prof, meta = _v0_run(40)
    text1 = emit_json(pages, prof, meta)
    text2 = emit_json(pages, prof, meta)
    assert text1 == text2
    meta2, pages2, prof2 = parse_json(text1)
    assert (meta2, pages2, prof2) == parse_json(expand(text1))  # both schemas
    assert meta2 == {**meta, "tool_version": meta2["tool_version"]}
    assert prof2 == prof
    assert towers_record(prof2) == towers_record(prof)
    assert [pg["r"] for pg in pages2] == [pd.r for pd in pages]
    for pd, pg in zip(pages, pages2):
        A, v_name = pd.ctx.A, pd.ctx.v.name
        classes = [(t, s, cell.dim, [rep_str(A, cell.monomials, row, v_name, s)
                                     for row in reps_rows(cell)])
                   for (t, s), cell in sorted(pd.cells.items()) if cell.dim and 0 <= t <= 40]
        assert [(c["t"], c["s"], c["dim"], c["reps"]) for c in pg["classes"]] == classes
        diffs = [((t, s), rec.target, rec.rank) for (t, s), rec in sorted(pd.diffs.items())
                 if rec.rank and (0 <= t <= 40 or 0 <= rec.target[0] <= 40)]
        assert [((d["from"]["t"], d["from"]["s"]), (d["to"]["t"], d["to"]["s"]), d["rank"])
                for d in pg["differentials"]] == diffs
    assert any(pg["differentials"] for pg in pages2)


def test_json_empty_window():
    A = thh_mod_p_algebra(2, 2)
    w = Window(2)
    with pytest.warns(UserWarning):
        pages, prof = run(A, schedule_v0(2, 2, w), w)
    doc = json.loads(expand(emit_json(pages, prof, {"case": "v0", "p": 2, "n": 2, "D": 2,
                                                    "localized": False, "variant": None})))
    # degree 2 window: only the unit class in degree 0 exists
    assert doc["towers"] == [{"t": 0, "lengths": ["inf"]}]
    assert all(not pg["differentials"] for pg in doc["pages"])


def _made_up_pages(ctx):
    """A page with no A-degrees, and one with a class of dimension 2 in
    A-degree 2 from the fired page 1 on."""
    mons = (ctx.A.monomial(**{"λ1": 1}), ctx.A.monomial(**{"λ2": 1}))
    return [PageData(1, ctx, {}), PageData(2, ctx, {2: ((0, Cell(())), (1, Cell(mons)))})]


def _fixed_point_documents():
    """Documents of a ladder, a localized, a page-capped and an empty-window
    run, plus made-up pages and no pages."""
    out = []
    for c in (Case("v2", 2, 50), Case("v2", 3, 60, localized=True),
              Case("v2", 2, 50, page_cap=4), Case("v0", 2, 2, n=2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty window warns
            sched, pages, prof = c.run()
        out.append((pages, prof, c.meta(sched)))
    made = _made_up_pages(pages[0].ctx)  # in the empty-window run's context
    return out + [(made, TowerProfile(2), {}), ([], TowerProfile(0), {})]


@pytest.mark.parametrize("ascii_", [False, True], ids=["utf8", "ascii"])
def test_json_layout_is_a_fixed_point_of_json_dumps(ascii_):
    for pages, prof, meta in _fixed_point_documents():
        text = emit_json(pages, prof, meta, ascii_)
        doc = expand(text)
        assert json.dumps(json.loads(doc), ensure_ascii=False, indent=1) == doc
        assert (doc.isascii() and text.isascii()) or not ascii_


def test_json_made_up_pages_expand_to_their_classes():
    with pytest.warns(UserWarning):  # the empty window
        (e1,), _ = Case("v0", 2, 2, n=2).run()[1:]
    # a run with no page has a view of filtration 0 alone, where the class
    # of page 2 does not show
    doc = json.loads(expand(emit_json(_made_up_pages(e1.ctx), TowerProfile(2), {})))
    assert [page["classes"] for page in doc["pages"]] == [[], []]
    # in the context of a schedule whose last page is 2, the class shows at
    # filtration 1 (the fired page 1) through the top filtration 2 of the view
    ctx = EngineContext(e1.ctx.A, e1.ctx.v, False, 2, 2)
    doc = json.loads(expand(emit_json(_made_up_pages(ctx), TowerProfile(2), {})))
    assert [page["classes"] for page in doc["pages"]] == [[], [
        {"t": 2, "s": s, "dim": 2, "reps": [f"λ1·v0{x}", f"λ2·v0{x}"]}
        for s, x in ((1, ""), (2, "^2"))]]


@pytest.mark.parametrize("order", ["run", "skipping", "reversed"])
def test_json_patched_pages_equal_whole_pages(order):
    # a page renders only the A-degrees whose bars are not those of the page
    # listed before it, whatever the order of the pages; each page record is
    # the one the page gets in a document of its own, and an A-degree whose
    # bars a page shares with the page before keeps its record
    for c in (Case("v0", 2, 58, n=2), Case("v2", 2, 120, page_cap=8),
              Case("v2", 3, 60, localized=True)):
        sched, pages, prof = c.run()
        pages = {"run": pages, "skipping": pages[::2], "reversed": pages[::-1]}[order]
        doc = json.loads(emit_json(pages, prof, c.meta(sched)))
        assert len(doc["pages"]) == len(pages)
        for pd, record in zip(pages, doc["pages"]):
            (alone,) = json.loads(emit_json([pd], prof, c.meta(sched)))["pages"]
            assert record == alone
        if order == "run":
            for i in range(1, len(pages)):
                before, pd = pages[i - 1].degrees, pages[i].degrees
                kept = {rec["a"]: rec for rec in doc["pages"][i - 1]["degrees"]
                        if pd[rec["a"]] is before[rec["a"]]}
                assert kept and all(rec == kept[rec["a"]] for rec in doc["pages"][i]["degrees"]
                                    if rec["a"] in kept)


def test_json_records_are_shared_by_the_pages_that_show_them():
    # an A-degree a page did not change is the same string on both pages
    sched, pages, prof = Case("v1", 3, 400).run()
    fragments = json_fragments(pages, prof, Case("v1", 3, 400).meta(sched))
    records = [text for text in fragments if text.startswith('{"a": ')]
    assert len({id(text) for text in records}) < len(records) / 2


def test_json_schema_2_grows_with_the_a_degrees_not_the_classes():
    # schema 1 grows about 4.1x from D=1000 to D=2000 (6.2 M to 25.3 M
    # characters); schema 2 about as the A-degrees times the pages
    sizes = []
    for D in (1000, 2000):
        c = Case("v1", 3, D)
        sched, pages, prof = c.run()
        sizes.append(len(emit_json(pages, prof, c.meta(sched))))
    assert sizes[1] < 2.5 * sizes[0]


@pytest.mark.parametrize("case", [Case("v1", 3, 400), Case("v2", 2, 160)], ids=golden.case_id)
def test_json_writer_holds_one_copy_of_the_document(case):
    # the document is one join of fragments shared with the records: no page
    # text, joined page list or second formatted copy is built alongside it
    sched, pages, prof = case.run()
    tracemalloc.start()
    try:
        doc = emit_json(pages, prof, case.meta(sched))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sys.getsizeof(doc)


def test_svg_dot_counts_match_dims():
    pages, prof, meta = _v0_run(40)
    final = pages[-1]
    svg = emit_svg(final, ChartStyle(), 40)
    per_col = {}
    for m in re.finditer(r'data-t="(\d+)" data-s="(\d+)"', svg):
        t, s = int(m.group(1)), int(m.group(2))
        per_col[(t, s)] = per_col.get((t, s), 0) + 1
    for (t, s), count in per_col.items():
        assert final.dim(t, s) == count
    dv = final.ctx.deg_v
    for a, _ in final.shown():
        for s0, s1, cell in final.window(a):
            for s in range(s0, s1 + 1):
                if 0 <= a + s * dv <= 40 and cell.dim:
                    assert per_col.get((a + s * dv, s)) == cell.dim


def test_svg_shows_differential_arrows():
    A = thh_mod_p_algebra(2, 2)
    w = Window(40)
    sched = schedule_v2(2, w)
    pages, prof = run(A, sched, w)
    fired = next(pg for pg in pages if any(True for a in pg.maps for _ in pg.window_maps(a)))
    svg = emit_svg(fired, ChartStyle(), 40)
    assert f">d{fired.r}</text>" in svg


def _draw_chart_reference(page, dots, arrows, style, max_degree, title=""):
    """svg.draw_chart as it was before it formatted each coordinate once
    per chart: every coordinate of every element formatted afresh."""
    X_SCALE, Y_SCALE, DOT_RADIUS = svg.X_SCALE, svg.Y_SCALE, svg.DOT_RADIUS
    X_TICK_STEP, MARGIN = svg.X_TICK_STEP, svg.MARGIN
    dv = page.ctx.deg_v
    dims = {key: dim for key, dim in dots.items() if key[0] <= max_degree}
    s_values = [s for (_t, s) in dims]
    s_top = max(s_values, default=0)
    s_bottom = min(s_values, default=0) if page.ctx.localized else 0

    def X(t):
        return MARGIN + t * X_SCALE

    def Y(s):
        return MARGIN + (s_top - s) * Y_SCALE

    width = X(max_degree) + MARGIN
    height = Y(s_bottom) + MARGIN
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    if title:
        out.append(f'<text x="{MARGIN}" y="{MARGIN / 2:.1f}" font-size="11">{title}</text>')
    out.append(f'<line x1="{X(0)}" y1="{Y(s_bottom)}" x2="{X(max_degree)}" y2="{Y(s_bottom)}" '
               'stroke="black" stroke-width="0.5"/>')
    for t in range(0, max_degree + 1, X_TICK_STEP):
        out.append(f'<text x="{X(t):.1f}" y="{Y(s_bottom) + 12:.1f}" font-size="7" '
                   f'text-anchor="middle">{t}</text>')

    def dots(t, s, dim):
        return [(X(t) + (i - (dim - 1) / 2.0) * 2.6, Y(s)) for i in range(dim)]

    for (t, s), dim in dims.items():
        nxt = dims.get((t + dv, s + 1))
        if not s_bottom <= s < s_top or nxt is None:
            continue
        k = min(dim, nxt)
        a = dots(t, s, dim)
        b = dots(t + dv, s + 1, nxt)
        for i in range(k):
            out.append(f'<line x1="{a[i][0]:.1f}" y1="{a[i][1]:.1f}" '
                       f'x2="{b[i][0]:.1f}" y2="{b[i][1]:.1f}" '
                       'stroke="#888" stroke-width="0.6"/>')
    for (t, s), (t2, s2) in arrows:
        if not (0 <= t <= max_degree and 0 <= t2 <= max_degree):
            continue
        if not (s_bottom <= s <= s_top and s_bottom <= s2 <= s_top):
            continue
        out.append(f'<line x1="{X(t):.1f}" y1="{Y(s):.1f}" x2="{X(t2):.1f}" y2="{Y(s2):.1f}" '
                   'stroke="#c00" stroke-width="0.7"/>')
        out.append(f'<text x="{(X(t) + X(t2)) / 2:.1f}" y="{(Y(s) + Y(s2)) / 2:.1f}" '
                   f'font-size="6" fill="#c00">d{page.r}</text>')
    for (t, s), dim in dims.items():
        if not s_bottom <= s <= s_top:
            continue
        for (x, y) in dots(t, s, dim):
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{DOT_RADIUS}" '
                       f'data-t="{t}" data-s="{s}"/>')
    out.append("</svg>")
    return "\n".join(out)


# the chart page of every case of the benchmark's three workloads (ladders,
# localized and page caps), the first two the fan-out test's, and a v0 run
CHART_CASES = ([Case("v2", 2, 120, page_cap=8), Case("v1", 3, 120, localized=True),
                Case("v2", 2, 120, localized=True), Case("v2", 3, 120, localized=True),
                Case("v1", 3, 400), Case("v2", 2, 160), Case("v2", 3, 200),
                Case("conj", 3, 200, n=3, m=1), Case("conj", 3, 200, n=3, m=2),
                Case("v0", 2, 1000, n=3), Case("v0", 2, 1000, n=4)]
               + [Case("v2", 2, 120, page_cap=c) for c in (18, 36)]
               + [Case("v1", 3, 400, page_cap=c) for c in (27, 90)] + [Case("v0", 2, 58, n=2)])
# the d_r arrows a whole chart draws, where there are any
CHART_ARROWS = {Case("v2", 2, 120, page_cap=8): 20, Case("v1", 3, 400, page_cap=27): 214}


def _reference_dots(marks):
    """The {(t, s): dim} the reference drawer reads, off a chart's marks."""
    return {(t, s): dim for t, s, dim, _ in marks}


@pytest.mark.parametrize("case", CHART_CASES, ids=golden.case_id)
def test_chart_equals_the_reference_drawer(case):
    # the chart of every page of a real run: arrows (under caps 8 and 27),
    # filtrations below 0 (localized) and |v| = 0 (v0)
    sched, pages, _ = case.run()
    chart_page = case.chart_page(pages)
    for page in pages:
        marks, arrows = chart_marks(page)
        want = _draw_chart_reference(page, _reference_dots(marks), arrows, ChartStyle(), case.D,
                                     sched.label)
        assert draw_chart(page, marks, arrows, ChartStyle(), case.D, sched.label) == want, page.r
        if page is chart_page:
            assert marks
            assert want.count('stroke="#c00"') == CHART_ARROWS.get(case, 0)


@pytest.mark.parametrize("case", CHART_CASES, ids=golden.case_id)
def test_chart_marks_carry_their_partners_dimension(case):
    # each mark is the dimension window gives at (t, s) and, as up, at its
    # v-line partner (t + |v|, s + 1); the marks hold every (t, s) with
    # classes once, in (t, s) order
    _, pages, _ = case.run()
    for page in pages:
        dv = page.ctx.deg_v
        marks, _ = chart_marks(page)
        assert marks == sorted(marks)
        assert len({(t, s) for t, s, _, _ in marks}) == len(marks)
        for t, s, dim, up in marks:
            assert (dim, up) == (page.dim(t, s), page.dim(t + dv, s + 1)), (page.r, t, s)
        shown = sum(s1 - s0 + 1 for a, _ in page.shown() for s0, s1, cell in page.window(a)
                    if cell.dim)
        assert len(marks) == shown


def test_chart_marks_read_each_run_top_off_the_next_bar():
    # no certified page holds two runs with classes in one A-degree, so the
    # tops are read off made-up bars: A-degree 4 changes at filtrations 2,
    # 3, 4 and 6, and the window ends at 6; a run's top takes the next bar's
    # dim as up (0 for the bar with no class and at the window's end)
    _, pages, _ = Case("v2", 2, 40).run()
    ctx = pages[-1].ctx
    assert (ctx.deg_v, ctx.s_hi) == (6, 6)
    bars = tuple((s0, Cell((ctx.A.unit,) * dim)) for s0, dim in ((0, 3), (2, 1), (3, 0), (4, 2),
                                                                   (6, 4)))
    page = PageData(ctx.top_page, ctx, {4: bars})
    marks, arrows = chart_marks(page)
    assert marks == [(4 + 6 * s, s, dim, up) for s, dim, up in
                     ((0, 3, 3), (1, 3, 1), (2, 1, 0), (4, 2, 2), (5, 2, 4), (6, 4, 0))]
    assert all(up == page.dim(t + 6, s + 1) for t, s, _, up in marks) and arrows == []
    want = _draw_chart_reference(page, _reference_dots(marks), arrows, ChartStyle(), 40, "tops")
    assert draw_chart(page, marks, arrows, ChartStyle(), 40, "tops") == want
    assert want.count('stroke="#888"') == 3 + 1 + 2 + 2


@pytest.mark.parametrize("case", CHART_CASES[:2], ids=golden.case_id)
def test_chart_fans_out_as_the_reference_drawer(case):
    # no certified page holds a class of dimension > 1, so the fan-out is
    # drawn from made-up marks: dimensions 1 to 4 in every pairing along
    # v-lines, marks left of t = 0, past max_degree and below filtration 0,
    # arrows in and out of the chart, and every dimension
    # in the columns t = 0 and t = max_degree, whose v-line partners lie
    # past max_degree
    _, pages, _ = case.run()
    page = case.chart_page(pages)
    dv, D = page.ctx.deg_v, 40
    dots = {(t, s): 1 + (3 * t * t + 5 * s * s + t * s) % 13 % 4
            for t in range(-5, D + 20) for s in range(-4, 6) if (t + s) % 3}
    dots.update({(t, s): 1 + s % 4 for t in (0, D) for s in range(-4, 6)})
    dots.update({(D + dv, s): 1 + s % 3 for s in range(-3, 7)})
    dots = dict(sorted(dots.items()))
    arrows = sorted(((t, s), (t - 1, s + r)) for (t, s) in dots for r in (1, 3) if t % 5 == 0)
    pairs = {(dim, dots[t + dv, s + 1]) for (t, s), dim in dots.items() if (t + dv, s + 1) in dots}
    assert pairs == {(a, b) for a in range(1, 5) for b in range(1, 5)}
    for t in (0, D):
        assert {dim for (t2, _), dim in dots.items() if t2 == t} == {1, 2, 3, 4}
    assert all((D + dv, s + 1) in dots for s in range(-4, 6))
    marks = [(t, s, dim, dots.get((t + dv, s + 1), 0)) for (t, s), dim in dots.items()]
    want = _draw_chart_reference(page, dots, arrows, ChartStyle(), D, "fan")
    assert draw_chart(page, marks, arrows, ChartStyle(), D, "fan") == want
    assert all(mark in want for mark in ("<circle", 'stroke="#888"', 'stroke="#c00"'))


def test_svg_title_is_escaped():
    pages, _, _ = _v0_run(40)
    root = ET.fromstring(emit_svg(pages[-1], ChartStyle(), 40, title="a<b & c"))
    assert [el.text for el in root if el.get("font-size") == "11"] == ["a<b & c"]


def test_unknown_serializes_per_schema():
    prof = TowerProfile(10)
    prof.add(3, Unknown(7))
    assert json.loads(emit_json([], prof, {}))["towers"] == [{"t": 3, "lengths": ["unknown"]}]


def test_possibly_absent_unknown_serializes_as_unknown():
    prof = TowerProfile(10)
    prof.add(3, Unknown(possibly_absent=True))
    doc = emit_json([], prof, {"D": 10})
    assert json.loads(doc)["towers"] == [{"t": 3, "lengths": ["unknown"]}]
    # the mark does not survive a round trip: it comes back a plain unknown
    (back,) = parse_json(doc)[2].lengths(3)
    assert isinstance(back, Unknown) and not back.possibly_absent


@pytest.mark.parametrize("seed", range(4))
def test_tower_text_is_what_json_writes_of_the_records(seed):
    # random profiles of ints, INF, unknowns with a lower bound or the
    # possibly-absent mark, several lengths at one degree, and an empty
    # profile: the writer's towers are json.dumps of the records the
    # encoder was given before the writer spelled them itself
    rng = random.Random(seed)
    lengths = [lambda: rng.randint(1, 10 ** rng.randint(1, 30)), lambda: INF, lambda: Unknown(),
               lambda: Unknown(rng.randint(1, 99)), lambda: Unknown(possibly_absent=True)]
    profiles = [TowerProfile(0)]
    for _ in range(20):
        prof = TowerProfile(200)
        for t in rng.sample(range(201), rng.randint(1, 60)):
            for _ in range(rng.choice((1, 1, 2, 5))):
                prof.add(t, rng.choice(lengths)())
        profiles.append(prof)
    assert any(len(prof.lengths(t)) > 1 for prof in profiles for t in prof.degrees())
    for prof in profiles:
        want = ",\n".join(json.dumps(rec, ensure_ascii=False) for rec in towers_record(prof))
        doc = emit_json([], prof, {})
        assert doc.endswith('"towers": [' + ("\n" + want if want else "") + "]}\n")


@pytest.mark.parametrize("seed", range(4))
def test_matrix_text_is_what_json_writes(seed):
    # made-up d_r bars on a page whose matrices are random ints, [], [[]]
    # and [[0, 0]] among them: each differential record is json.dumps of
    # its runs as window_maps cuts them
    ctx = Case("v2", 2, 50).run()[1][0].ctx
    rng = random.Random(seed)
    matrices = [[], [[]], [[0, 0]]] + [
        [[rng.randint(0, 10 ** rng.randint(0, 25)) for _ in range(w)] for _ in range(h)]
        for h, w in ((rng.randint(1, 6), rng.randint(0, 6)) for _ in range(40))]
    pd = PageData(1, ctx, {})
    pd.maps = {a: ((ctx.s_lo, DiffRecord(a - 1 - ctx.deg_v, m, rng.randint(0, 6))),)
               for a, m in enumerate(matrices)}
    want = [json.dumps({"a": a, "to": a - 1 - ctx.deg_v,
                        "runs": [[s0, s1, rec.rank, rec.matrix] for s0, s1, rec in pd.window_maps(a)]},
                       ensure_ascii=False) for a in sorted(pd.maps)]
    records = [text for text in json_fragments([pd], TowerProfile(50), {})
               if text.startswith('{"a": ')]
    assert records == want and '"runs": []' not in "".join(want)


def test_the_encoder_writes_only_the_meta_and_the_names(monkeypatch):
    # every record is formatted from ints and strings prepared once per
    # document: the encoder runs once for the meta and once for each
    # generator's name (500 calls at v0 p=2 n=3 D=1000 when it also wrote
    # each tower degree and each d_r run's matrix)
    case = Case("v0", 2, 1000, n=3)
    sched, pages, prof = case.run()
    calls = []
    encode = jsonio._dumps
    monkeypatch.setattr(jsonio, "_dumps", lambda obj: calls.append(obj) or encode(obj))
    emit_json(pages, prof, case.meta(sched))
    assert len(calls) == 1 + len(pages[0].ctx.A.generators) == 6


def test_empty_document():
    text = emit_json([], TowerProfile(0), {"case": "v0", "p": 2, "n": 2, "D": 0,
                                          "localized": False, "variant": None})
    for doc in (json.loads(text), json.loads(expand(text))):
        assert doc["pages"] == [] and doc["towers"] == []


@pytest.mark.parametrize("ascii_", [False, True])
def test_the_lead_renderer_writes_what_json_writes(ascii_):
    # generator names JSON must escape (a quote, a backslash, a control
    # character) beside non-ASCII ones, on untouched and touched cells, a
    # zero rep row among them: the escaped leads joined as a JSON list are
    # the bytes json gives for monomial_str's leads, and the plain leads
    # are monomial_str's
    A = Algebra(3, (GeneratorSpec('a"1', 1, EXTERIOR), GeneratorSpec("b\\2", 3, EXTERIOR),
                    GeneratorSpec("λ\t", 2, POLYNOMIAL), GeneratorSpec("μ3", 4, POLYNOMIAL)))
    mons = ((0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 2, 0), (0, 1, 1, 3), (0, 0, 0, 1))
    cells = [Cell(mons), Cell(mons[:1]), Cell(mons, [[0, 0, 1, 2, 0], [0, 0, 0, 0, 0],
                                                      [2, 1, 0, 0, 1], [0, 0, 0, 0, 1]])]
    escaped = _lead_renderer(A, ascii_, escape=True)
    plain = _lead_renderer(A, ascii_, escape=False)
    for cell in cells:
        rows = reps_rows(cell)
        want = [next((monomial_str(A, m, ascii_) for m, c in zip(cell.monomials, row) if c), None)
                for row in rows]
        assert plain(cell) == want
        assert _json_list(escaped(cell)) == json.dumps(want, ensure_ascii=False)
    assert None in want and '\\"' in _json_list(escaped(cells[0]))
