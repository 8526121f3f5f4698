"""Golden results: tower profiles and document digests of fixed runs, and
schema 1, the (t, s) reading of a document that the digests pin.

`tests/data/golden.json` holds, for every acceptance case, every CLI case
and a page-cap sweep, the tower profile (advisory fields written through
`towers.length_str`) and the sha256 of the JSON and SVG documents the CLI
writes for it.  `tests/test_golden.py` recomputes them and requires equality.
The records were made by the (t, s)-grid engine that the per-A-degree
engine replaced, so they check the replacement against it.  The JSON
digests are of schema-1 text: they were recorded when the CLI wrote it,
and are now checked on `expand` of the schema-2 document the CLI writes.

Schema 1 is the (t, s) reading, in the layout of json.dumps(doc,
indent=1, ensure_ascii=False): per page `classes` {t, s, dim, reps with
the v-power} and `differentials` {from, to, rank}, in (t, s) order.
`expand` gives it from a schema-2 document alone, and `parse_json` reads
both.  The CLI neither writes nor reads it.

Every digest is of a whole document, nothing left out: the chart
`run --svg` writes, and `expand` of the document `run --json` writes.

Each record's `case` is a `bockstein.cases.Case` stored as a dict (its
`kind` under the key "case"); the runs, their `meta` and the page each
chart draws come from that `Case`, as in the CLI.

The records of the FIXED cases also hold the sha256 of the schema-2
document itself, whole, written as UTF-8 (`json2_sha256`) and with
`--ascii` (`json2_ascii_sha256`).  Schema 1 carries the ranks of d_r but
not its matrices, whose entries also depend on the signs of the
representatives; schema 2 carries them, so these digests pin the
differentials byte for byte.  They were recorded by the
engine that formed each Leibniz term with `algebra.multiply` over A[v].

After those records come the digests of a few whole documents written
with `--ascii` (marked `"ascii": true`), whose generator names take their
own path through the writer.  They were recorded by the writer that
encoded a dict tree with `json.dumps(indent=1)`, so they check the
writers that replaced it.

The digests of the v0 records (|v| = 0), and of the ASCII record of a v0
case, are of a later engine than the rest.  The grid engine listed the
filtrations s <= sum(pages) + 2 + max(pages) on a |v| = 0 view; a view
now ends at the schedule's last page R (`engine.view_filtrations`), so
these documents list fewer filtrations.  The towers of the five capped v0
records are of that engine too: a capped v0 run reads a tower up to the
first page the schedule did not emit, where the grid engine stopped at a
page that could be page 1 and recorded `unknown(>= 1)` for towers its
fired pages decided.  Each of those towers now reads a length up to the
cap or `unknown(>= cap+1)`; every other entry is as the grid engine
recorded it.

`PYTHONPATH=src python tests/golden.py` fills in what the file lacks: a
record for each case that has none and each key a record lacks, taken from
the current engine.  Every existing record and digest is kept as it is, so
a digest made by an older engine is never re-recorded.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import List, Tuple

from bockstein.cases import Case
from bockstein.engine import PageData
from bockstein.jsonio import _READING, _with_v, emit_json
from bockstein.svg import ChartStyle, emit_svg
from bockstein.towers import INF, TowerProfile, Unknown, length_str

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


def length_from_json(x) -> object:
    if x == "unknown":
        return Unknown()
    if x == "inf":
        return INF
    return int(x)


def _schema1(doc: dict) -> dict:
    """The schema-1 reading of a parsed schema-2 document: every class and
    differential at its (t, s), in (t, s) order."""
    head = doc["meta"]
    v_name, dv, ascii_ = head["v"], head["v_degree"], head["ascii"]
    pages = []
    for page in doc["pages"]:
        r = page["r"]
        classes = []
        for rec in page["degrees"]:
            a = rec["a"]
            for s0, s1, dim, leads in rec["levels"]:
                classes += [{"t": a + s * dv, "s": s, "dim": dim,
                             "reps": [_with_v(x, v_name, s, ascii_) for x in leads]}
                            for s in range(s0, s1 + 1)]
        diffs = []
        for rec in page["differentials"]:
            a, ta = rec["a"], rec["to"]
            for s0, s1, rank, _matrix in rec["runs"]:
                diffs += [{"from": {"t": a + s * dv, "s": s},
                           "to": {"t": ta + (s + r) * dv, "s": s + r}, "rank": rank}
                          for s in range(s0, s1 + 1)]
        classes.sort(key=lambda c: (c["t"], c["s"]))
        diffs.sort(key=lambda d: (d["from"]["t"], d["from"]["s"]))
        pages.append({"r": r, "classes": classes, "differentials": diffs})
    meta = {key: value for key, value in head.items() if key not in _READING}
    return {"meta": meta, "pages": pages, "towers": doc["towers"]}


def expand(text: str) -> str:
    """The schema-1 text of a schema-2 document: the layout of
    json.dumps(doc, indent=1, ensure_ascii=False), which the golden
    digests pin."""
    return json.dumps(_schema1(json.loads(text)), indent=1, ensure_ascii=False)


def parse_json(text: str) -> Tuple[dict, List[dict], TowerProfile]:
    """The meta, schema-1 pages and tower profile of a document of either
    schema; a schema-2 document reads as its expand.  Inverse of emit_json
    up to the advisory marks of unknowns: a lower bound and the
    possibly-absent mark are both written as "unknown", so neither
    survives a round trip and every unknown comes back plain."""
    doc = json.loads(text)
    if doc["meta"].get("schema") == 2:
        doc = _schema1(doc)
    meta = doc["meta"]
    profile = TowerProfile(int(meta["D"]))
    for entry in doc["towers"]:
        for x in entry["lengths"]:
            profile.add(int(entry["t"]), length_from_json(x))
    return meta, doc["pages"], profile


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stored(c: Case) -> dict:
    return {"case": c.kind, "p": c.p, "n": c.n, "m": c.m, "D": c.D,
            "localized": c.localized, "variant": c.variant, "page_cap": c.page_cap}


def reread(pages, s_hi):
    """The pages of a run read through one copy of their context whose
    view ends at filtration s_hi: the same bars and differentials, each
    shown up to s_hi."""
    ctx = copy.copy(pages[0].ctx)
    ctx.s_hi = s_hi
    out = []
    for pd in pages:
        seen = PageData(pd.r, ctx, pd.degrees)
        seen.maps = pd.maps
        out.append(seen)
    return out


def snapshot(c):
    """The golden record of one case: the digests of the documents the CLI
    writes for it, whole (the JSON read through expand), and for a FIXED
    case of the schema-2 document itself, UTF-8 and --ascii."""
    sched, pages, profile = c.run()
    doc = emit_json(pages, profile, c.meta(sched))
    rec = {
        "case": _stored(c),
        "towers": {str(t): [length_str(x) for x in profile.lengths(t)]
                   for t in profile.degrees()},
        "pages": [pd.r for pd in pages],
        "json_sha256": _sha(expand(doc)),
        "svg_sha256": _sha(emit_svg(c.chart_page(pages), ChartStyle(), c.D, title=sched.label)),
    }
    if c in FIXED:
        rec["json2_sha256"] = _sha(doc)
        rec["json2_ascii_sha256"] = _sha(emit_json(pages, profile, c.meta(sched), ascii_=True))
    return rec


def ascii_snapshot(c) -> dict:
    """The golden record of the whole --ascii JSON document of one case."""
    sched, pages, profile = c.run()
    doc = emit_json(pages, profile, c.meta(sched), ascii_=True)
    return {"case": _stored(c), "ascii": True, "json_sha256": _sha(expand(doc))}


def load(ascii_=False):
    """The records of all_cases(), or with ascii_ those of ASCII."""
    records = json.loads(DATA.read_text(encoding="utf-8"))
    return [rec for rec in records if rec.get("ascii", False) == ascii_]


def same_documents(c) -> bool:
    """Whether a recorded case's JSON and SVG documents come out the same."""
    want = next(rec for rec in load() if case_of(rec) == c)
    got = snapshot(c)
    keys = ("json_sha256", "svg_sha256")
    return [got[key] for key in keys] == [want[key] for key in keys]


def main() -> int:
    old = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []
    kept = {(case_id(case_of(rec)), rec.get("ascii", False)): rec for rec in old}
    records = []
    for c, ascii_ in [(c, False) for c in all_cases()] + [(c, True) for c in ASCII]:
        rec = kept.pop((case_id(c), ascii_), {})
        fresh = ascii_snapshot(c) if ascii_ else snapshot(c)
        added = [key for key in fresh if key not in rec]
        for key in added:
            rec[key] = fresh[key]
        records.append(rec)
        if added:
            print(case_id(c), "ascii" if ascii_ else "", *added, flush=True)
    # records of cases no longer listed are kept too, for a person to remove
    records += kept.values()
    DATA.parent.mkdir(exist_ok=True)
    lines = [json.dumps(rec, ensure_ascii=False, separators=(",", ":")) for rec in records]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
