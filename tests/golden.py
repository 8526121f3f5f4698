"""Golden results: tower profiles and document digests of fixed runs.

`tests/data/golden.json` holds, for every acceptance case, every CLI case
and a page-cap sweep, the tower profile (advisory fields written through
`towers.length_str`) and the sha256 of the JSON and SVG documents the CLI
writes for it.  `tests/test_golden.py` recomputes them and requires equality.
The records were made by the (t, s)-grid engine that the per-A-degree
engine replaced, so they check the replacement against it.  The JSON
digests are of schema-1 text (`jsonio`): they were recorded when the CLI
wrote it, and are now checked on `jsonio.expand` of the schema-2 document
the CLI writes.

Two kinds of documents are compared on a restricted view instead of whole:

* Localized documents are restricted to the filtrations
  -floor(D/|v|) <= s <= floor(D/|v|), the range they list.
* Where the recorded run marked classes "indeterminate" (the edge of its
  bounded grid, listed in `dropped` with their dimensions), those classes
  and the differentials touching them are left out on both sides, and the
  test only requires that the run under test shows no more classes there.

The JSON document is restricted on its schema-1 dict, dumped again with
`json.dumps(indent=1, ensure_ascii=False)`; the SVG chart is drawn from the
page views restricted the same way.

Each record's `case` is a `bockstein.cases.Case` stored as a dict (its
`kind` under the key "case"); the runs, their `meta` and the page each
chart draws come from that `Case`, as in the CLI.

After those records come the digests of a few whole documents written
with `--ascii` (marked `"ascii": true`), whose generator names take their
own path through the writer.  They were recorded by the writer that
encoded a dict tree with `json.dumps(indent=1)`, so they check the
writers that replaced it.

`PYTHONPATH=src python tests/golden.py` records anew, with the current
engine as the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from bockstein.cases import Case
from bockstein.jsonio import emit_json, expand, parse_json
from bockstein.svg import ChartStyle, emit_svg
from bockstein.towers import length_str

DATA = Path(__file__).resolve().parent / "data" / "golden.json"


def case_of(rec) -> Case:
    """The case a record was made for."""
    c = rec["case"]
    return Case(c["case"], c["p"], c["D"], n=c["n"], m=c["m"], localized=c["localized"],
                variant=c["variant"], page_cap=c["page_cap"])


def case_id(c: Case) -> str:
    parts = [c.kind, f"p{c.p}"]
    parts += [f"{key}{val}" for key, val in (("n", c.n), ("m", c.m)) if val is not None]
    parts.append(f"D{c.D}")
    if c.localized:
        parts.append("loc")
    if c.variant:
        parts.append(f"var{c.variant}")
    if c.page_cap is not None:
        parts.append(f"cap{c.page_cap}")
    return "-".join(parts)


# acceptance criteria, tests/test_engine.py, tests/test_cli.py, the README and
# the demos, and the benchmark's ladders
FIXED = [
    Case("v0", 2, 58, n=2), Case("v0", 3, 300, n=2), Case("v0", 2, 200, n=3),
    Case("v0", 2, 20, n=2), Case("v0", 5, 300, n=1), Case("v0", 3, 100, n=0),
    Case("v0", 2, 1000, n=3), Case("v0", 2, 1000, n=4),
    Case("v1", 3, 400), Case("v1", 3, 120), Case("v1", 3, 130), Case("v1", 5, 150),
    Case("v1", 2, 30, variant="B"), Case("v1", 2, 60, variant="A"),
    Case("v1", 2, 60, variant="B"),
    Case("v2", 2, 160), Case("v2", 3, 200), Case("v2", 3, 120), Case("v2", 3, 80),
    Case("v2", 3, 60), Case("v2", 3, 140), Case("v2", 2, 30), Case("v2", 2, 40),
    Case("v2", 2, 50), Case("v2", 2, 90), Case("v2", 5, 120),
    Case("conj", 3, 200, n=3, m=1), Case("conj", 3, 200, n=3, m=2),
    Case("conj", 3, 80, n=3, m=1), Case("conj", 5, 150, n=3, m=2),
    Case("conj", 3, 250, n=4, m=2), Case("conj", 3, 160, n=4, m=3),
    Case("v1", 3, 120, localized=True), Case("v2", 2, 120, localized=True),
    Case("v2", 3, 120, localized=True), Case("v1", 3, 60, localized=True),
    Case("v2", 3, 60, localized=True), Case("v2", 3, 60, localized=True, page_cap=3),
    Case("v1", 3, 130, page_cap=27), Case("v2", 2, 50, page_cap=18),
]

# every page below the last and every page minus one, as page caps
SWEEP_BASES = [
    Case("v2", 2, 120), Case("v2", 3, 200), Case("v1", 3, 400), Case("v0", 2, 200, n=2),
    Case("v0", 3, 300, n=1), Case("conj", 3, 200, n=3, m=1), Case("conj", 3, 200, n=3, m=2),
]


# documents written with --ascii: a ladder of each kind, a localized run and
# a page-capped run
ASCII = [
    Case("v0", 2, 58, n=2), Case("v1", 3, 400), Case("v2", 2, 160),
    Case("v2", 3, 120, localized=True), Case("v1", 3, 130, page_cap=27),
]


def sweep():
    out = []
    for base in SWEEP_BASES:
        pages = sorted(base.build()[1].pages)
        caps = {r for r in pages[:-1]} | {r - 1 for r in pages}
        out.extend(dataclasses.replace(base, page_cap=cap) for cap in sorted(caps) if cap >= 1)
    return out


def all_cases():
    seen, out = set(), []
    for c in FIXED + sweep():
        if case_id(c) not in seen:
            seen.add(case_id(c))
            out.append(c)
    return out


def _keeper(drop, s_range):
    """Whether a (t, s) is kept: not dropped, its filtration in s_range."""
    return lambda key: key not in drop and (s_range is None or s_range[0] <= key[1] <= s_range[1])


def _view(pd, drop, s_range):
    """The page with the dropped classes, the filtrations outside s_range and
    the differentials touching either left out."""
    keep = _keeper(drop, s_range)
    return SimpleNamespace(
        r=pd.r, ctx=pd.ctx,
        cells={k: c for k, c in pd.cells.items() if keep(k)},
        diffs={k: rec for k, rec in pd.diffs.items() if keep(k) and keep(rec.target)})


def _restricted(text, drop, s_range):
    """The schema-1 text of a schema-2 document restricted as _view restricts
    pages: the pages of its expansion (as parse_json reads them) filtered,
    dumped again with its meta and towers."""
    meta, pages, _ = parse_json(text)
    for i, page in enumerate(pages):
        keep = _keeper(drop.get(i, set()), s_range)
        page["classes"] = [c for c in page["classes"] if keep((c["t"], c["s"]))]
        page["differentials"] = [d for d in page["differentials"]
                                 if keep((d["from"]["t"], d["from"]["s"]))
                                 and keep((d["to"]["t"], d["to"]["s"]))]
    towers = json.loads(text)["towers"]
    return json.dumps({"meta": meta, "pages": pages, "towers": towers}, indent=1,
                      ensure_ascii=False)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stored(c: Case) -> dict:
    return {"case": c.kind, "p": c.p, "n": c.n, "m": c.m, "D": c.D,
            "localized": c.localized, "variant": c.variant, "page_cap": c.page_cap}


def snapshot(c, dropped=()):
    """The golden record of one case, and its pages.  dropped lists
    [page index, t, s, ...] of classes to leave out of the documents."""
    sched, pages, profile = c.run()
    drop = {}
    for i, t, s, *_ in dropped:
        drop.setdefault(i, set()).add((t, s))
    s_range = None
    if c.localized:
        bound = c.D // sched.v.degree
        s_range = (-bound, bound)
    filtered = bool(drop) or s_range is not None
    views = [_view(pd, drop.get(i, set()), s_range) if filtered else pd
             for i, pd in enumerate(pages)]
    doc = emit_json(pages, profile, c.meta(sched))
    doc = _restricted(doc, drop, s_range) if filtered else expand(doc)
    chart = emit_svg(c.chart_page(views), ChartStyle(), c.D, title=sched.label)
    return {
        "case": _stored(c),
        "towers": {str(t): [length_str(x) for x in profile.lengths(t)]
                   for t in profile.degrees()},
        "pages": [pd.r for pd in pages],
        "filtered": filtered,
        "dropped": [list(d) for d in dropped],
        "json_sha256": _sha(doc),
        "svg_sha256": _sha(chart),
    }, pages


def ascii_snapshot(c) -> dict:
    """The golden record of the whole --ascii JSON document of one case."""
    sched, pages, profile = c.run()
    doc = expand(emit_json(pages, profile, c.meta(sched), ascii_=True))
    return {"case": _stored(c), "ascii": True, "json_sha256": _sha(doc)}


def load(ascii_=False):
    """The records of all_cases(), or with ascii_ those of ASCII."""
    records = json.loads(DATA.read_text(encoding="utf-8"))
    return [rec for rec in records if rec.get("ascii", False) == ascii_]


def same_documents(c) -> bool:
    """Whether a recorded case's JSON and SVG documents come out the same."""
    want = next(rec for rec in load() if case_of(rec) == c)
    got, _ = snapshot(c, dropped=want["dropped"])
    return (got["json_sha256"], got["svg_sha256"]) == (want["json_sha256"], want["svg_sha256"])


def main() -> int:
    records = []
    for c in all_cases():
        rec, _ = snapshot(c)
        records.append(rec)
        print(case_id(c), flush=True)
    records += [ascii_snapshot(c) for c in ASCII]
    DATA.parent.mkdir(exist_ok=True)
    lines = [json.dumps(rec, ensure_ascii=False, separators=(",", ":")) for rec in records]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
