import json
import re
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import pytest

from bockstein.cases import Case
from bockstein.closedform import thh_mod_p_algebra
from bockstein.engine import Cell, Window, run, schedule_v0, schedule_v2
from bockstein.jsonio import emit_json, monomial_str, parse_json, rep_str, towers_record
from bockstein.svg import ChartStyle, emit_svg
from bockstein.towers import TowerProfile
import golden


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
    doc = json.loads(emit_json(pages, prof, meta))
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
    assert prof2 == prof
    assert towers_record(prof2) == towers_record(prof)
    assert [pg["r"] for pg in pages2] == [pd.r for pd in pages]
    for pd, pg in zip(pages, pages2):
        A, v_name = pd.ctx.A, pd.ctx.v.name
        classes = [(t, s, cell.dim, [rep_str(A, cell.monomials, row, v_name, s)
                                     for row in cell.reps_rows()])
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
    doc = json.loads(emit_json(pages, prof, {"case": "v0", "p": 2, "n": 2, "D": 2,
                                             "localized": False, "variant": None}))
    # degree 2 window: only the unit class in degree 0 exists
    assert doc["towers"] == [{"t": 0, "lengths": ["inf"]}]
    assert all(not pg["differentials"] for pg in doc["pages"])


def _fixed_point_documents():
    """Documents of a ladder, a localized, a page-capped and an empty-window
    run, plus pages with no classes and a class of dimension 2."""
    out = []
    for c in (Case("v2", 2, 50), Case("v2", 3, 60, localized=True),
              Case("v2", 2, 50, page_cap=4), Case("v0", 2, 2, n=2)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty window warns
            sched, pages, prof = c.run()
        out.append((pages, prof, c.meta(sched)))
    ctx = pages[0].ctx  # of the empty-window run
    mons = (ctx.A.monomial(**{"λ1": 1}), ctx.A.monomial(**{"λ2": 1}))
    made = [SimpleNamespace(r=1, ctx=ctx, cells={}, diffs={}),
            SimpleNamespace(r=2, ctx=ctx, cells={(2, 1): Cell(mons)}, diffs={})]
    return out + [(made, TowerProfile(2), {}), ([], TowerProfile(0), {})]


@pytest.mark.parametrize("ascii_", [False, True], ids=["utf8", "ascii"])
def test_json_layout_is_a_fixed_point_of_json_dumps(ascii_):
    for pages, prof, meta in _fixed_point_documents():
        doc = emit_json(pages, prof, meta, ascii_)
        assert json.dumps(json.loads(doc), ensure_ascii=False, indent=1) == doc
        assert doc.isascii() or not ascii_


@pytest.mark.parametrize("filtered", [False, True], ids=["run", "filtered"])
def test_json_patched_pages_equal_whole_pages(filtered):
    # a page is patched from the page before when their view keys agree (a
    # run) and rendered whole when they do not (views filtered differently
    # on each page, as tests/golden.py makes); either way each page record
    # is the one the page gets in a document of its own
    for c in (Case("v0", 2, 58, n=2), Case("v2", 2, 120, page_cap=8),
              Case("v2", 3, 60, localized=True)):
        sched, pages, prof = c.run()
        if filtered:
            pages = [golden._view(pd, {key for key in pd.cells if key[0] % (i + 2) == 0}, None)
                     for i, pd in enumerate(pages)]
        assert (pages[1].cells.keys() == pages[0].cells.keys()) is not filtered
        doc = json.loads(emit_json(pages, prof, c.meta(sched)))
        assert len(doc["pages"]) == len(pages)
        for pd, record in zip(pages, doc["pages"]):
            (alone,) = json.loads(emit_json([pd], prof, c.meta(sched)))["pages"]
            assert record == alone


@pytest.mark.parametrize("case", [Case("v1", 3, 400), Case("v2", 2, 160)], ids=golden.case_id)
def test_json_writer_holds_one_copy_of_the_document(case):
    # the document is one join of fragments shared with the records: no page
    # text, joined page list or second formatted copy is built alongside it
    sched, pages, prof = case.run()
    for pd in pages:
        pd.cells
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
    svg = emit_svg(final, ChartStyle(max_filtration=4), 40)
    per_col = {}
    for m in re.finditer(r'data-t="(\d+)" data-s="(\d+)"', svg):
        t, s = int(m.group(1)), int(m.group(2))
        per_col[(t, s)] = per_col.get((t, s), 0) + 1
    for (t, s), count in per_col.items():
        assert final.dim(t, s) == count
    for (t, s), cell in final.cells.items():
        if 0 <= t <= 40 and 0 <= s <= 4 and cell.dim:
            assert per_col.get((t, s)) == cell.dim


def test_svg_shows_differential_arrows():
    A = thh_mod_p_algebra(2, 2)
    w = Window(40)
    sched = schedule_v2(2, w)
    pages, prof = run(A, sched, w)
    fired = next(pg for pg in pages if pg.diffs)
    svg = emit_svg(fired, ChartStyle(), 40)
    assert f">d{fired.r}</text>" in svg


def test_unknown_serializes_per_schema():
    from bockstein.towers import Unknown

    prof = TowerProfile(10)
    prof.add(3, Unknown(7))
    assert towers_record(prof) == [{"t": 3, "lengths": ["unknown"]}]


def test_possibly_absent_unknown_serializes_as_unknown():
    from bockstein.towers import Unknown

    prof = TowerProfile(10)
    prof.add(3, Unknown(possibly_absent=True))
    assert towers_record(prof) == [{"t": 3, "lengths": ["unknown"]}]
    # the mark does not survive a round trip: it comes back a plain unknown
    doc = json.dumps({"meta": {"D": 10}, "pages": [], "towers": towers_record(prof)})
    (back,) = parse_json(doc)[2].lengths(3)
    assert isinstance(back, Unknown) and not back.possibly_absent


def test_empty_document():
    doc = json.loads(emit_json([], TowerProfile(0), {"case": "v0", "p": 2, "n": 2,
                                                     "D": 0, "localized": False,
                                                     "variant": None}))
    assert doc["pages"] == [] and doc["towers"] == []
