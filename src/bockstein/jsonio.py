"""JSON serialization of pages and tower profiles.

Schema: a top-level object with `meta` (case, p, n, D, localized, variant,
tool version), `pages` (one record per computed page with its classes and
differential arrows), and `towers`.  Monomial strings use the fixed
generator-name table (λ1, ..., μ3, v0, v1, v2) in UTF-8, or an ASCII
fallback (l1, m3, g4(x), s-prefixes) when requested.  Two runs with the
same configuration produce byte-identical documents.

The byte format is pinned: a document is the text that
json.dumps(doc, indent=1, ensure_ascii=False) gives, with the keys in the
order meta, pages, towers.  json_fragments lays that text out as one flat
list of fragments: the pieces of json.dumps templates split at their
values, the list separators, and class records shared by the pages that
show them.  emit_json is one join of that list, and `run --json` writes
it to the file fragment by fragment, so no page text and no second copy
of the document is built.  The golden digests (tests/golden.py) and the
fixed-point tests in tests/test_io.py check the bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _encode
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, Monomial
from .engine import PageData
from .towers import INF, TowerProfile, Unknown

TOOL_VERSION = "0.1.0"

_ASCII_MAP = {"λ": "l", "μ": "m", "σ": "s", "γ": "g"}


def _name(name: str, ascii_: bool) -> str:
    if not ascii_:
        return name
    for k, v in _ASCII_MAP.items():
        name = name.replace(k, v)
    return name


def monomial_str(A: Algebra, m: Monomial, ascii_: bool = False) -> str:
    parts = []
    for g, e in zip(A.generators, m):
        if e == 0:
            continue
        nm = _name(g.name, ascii_)
        parts.append(nm if e == 1 else f"{nm}^{e}")
    sep = "*" if ascii_ else "·"
    return sep.join(parts) if parts else "1"


def _lead(A: Algebra, monomials: Sequence[Monomial], row: Sequence[int],
          ascii_: bool) -> Optional[str]:
    for mon, c in zip(monomials, row):
        if c:
            return monomial_str(A, mon, ascii_)
    return None


def _with_v(lead: Optional[str], v_name: str, s: int, ascii_: bool) -> str:
    if lead is None:
        return "0"
    if s == 0:
        return lead
    vpart = _name(v_name, ascii_) + (f"^{s}" if s != 1 else "")
    sep = "*" if ascii_ else "·"
    return vpart if lead == "1" else f"{lead}{sep}{vpart}"


def rep_str(A: Algebra, monomials: Sequence[Monomial], row: Sequence[int],
            v_name: str, s: int, ascii_: bool = False) -> str:
    """Lead-monomial string of a representative row, with the v-power."""
    return _with_v(_lead(A, monomials, row, ascii_), v_name, s, ascii_)


def laurent_span(page: PageData, max_degree: int, ascii_: bool = False) -> List[str]:
    """Representatives of the Laurent lines a localized page keeps: its
    classes at filtration 0 in degrees 0..max_degree."""
    names: List[str] = []
    for t in range(max_degree + 1):
        cell = page.cells.get((t, 0))
        if cell is None or cell.dim == 0:
            continue
        for row in cell.reps_rows():
            names.append(rep_str(page.ctx.A, cell.monomials, row, page.ctx.v.name, 0, ascii_))
    return names


def length_json(x) -> object:
    if isinstance(x, Unknown):
        return "unknown"
    if x == INF:
        return "inf"
    return int(x)


def length_from_json(x) -> object:
    if x == "unknown":
        return Unknown()
    if x == "inf":
        return INF
    return int(x)


def towers_record(profile: TowerProfile) -> List[dict]:
    return [{"t": d, "lengths": [length_json(x) for x in profile.towers[d]]}
            for d in profile.degrees()]


def _layout(value: object, depth: int) -> List[str]:
    """The text json.dumps(value, indent=1) lays out `depth` levels into the
    document, split at each None: the pieces that go between the values."""
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * depth).split("null")


def _template(record: dict, depth: int):
    """str.format of _layout(record, depth), a {} field at each None."""
    return "{}".join(piece.replace("{", "{{").replace("}", "}}")
                     for piece in _layout(record, depth)).format


# a list's layout is its opening, its separator and its closing
_DOC = _layout({"meta": None, "pages": None, "towers": None}, 0)
_PAGES = _layout([None, None], 1)
_PAGE = _layout({"r": None, "classes": None, "differentials": None}, 2)
_ITEMS = _layout([None, None], 3)
_CLASS = _template({"t": None, "s": None, "dim": None, "reps": [None]}, 4)
_REPS = _layout([None, None], 5)
_DIFF = _template({"from": {"t": None, "s": None}, "to": {"t": None, "s": None},
                   "rank": None}, 4)
_EMPTY = json.dumps([])


def _close_list(out: List[str], start: int, layout: Sequence[str]) -> None:
    """Close the JSON list whose items were appended to out from index
    start, each after the separator of its layout (_layout([None, None],
    depth)): the first separator becomes the opening bracket."""
    if len(out) == start:
        out.append(_EMPTY)
    else:
        out[start] = layout[0]
        out.append(layout[2])


def _nested(obj: object) -> str:
    """json.dumps(indent=1) of a value one level inside the document."""
    return json.dumps(obj, ensure_ascii=False, indent=1).replace("\n", "\n ")


def json_fragments(pages: Sequence[PageData], profile: TowerProfile, meta: Dict[str, object],
                   ascii_: bool = False) -> List[str]:
    """The JSON document of a run, in the pinned layout (module docstring),
    as a flat list of fragments whose concatenation is the document.

    The list holds the pieces of the document's and each page's layout,
    the list separators, and the class and differential records.  Each
    page's class records are kept as a dict from (t, s) to the record text
    (None for an empty class or one outside 0..D), in (t, s) order.  A page
    with the same view keys as the page before patches that page's dict,
    rendering only the keys whose cell is a different object; any other
    page (the first, or a view filtered differently from the page before)
    starts from its sorted keys with no text, so every key is rendered.  A
    record that several pages show is one string, listed once per page.
    Identity is a safe key because the pages keep their cells alive; for
    the same reason a cell's lead monomials are rendered once per document,
    keyed on its id, and each class record adds only its v-power."""
    D = profile.max_degree
    leads: Dict[int, List[Optional[str]]] = {}
    prev_cells: Dict[Tuple[int, int], object] = {}
    records: Dict[Tuple[int, int], Optional[str]] = {}
    out = [_DOC[0], _nested({**meta, "tool_version": TOOL_VERSION}), _DOC[1]]
    pages_start = len(out)
    for pd in pages:
        A, v_name, cells = pd.ctx.A, pd.ctx.v.name, pd.cells
        if cells.keys() == prev_cells.keys():
            base = prev_cells
        else:
            base, records = {}, dict.fromkeys(sorted(cells))
        for key, cell in cells.items():
            if cell is base.get(key):
                continue
            lead = leads.get(id(cell))
            if lead is None:
                lead = leads[id(cell)] = [_lead(A, cell.monomials, row, ascii_)
                                          for row in cell.reps_rows()]
            (t, s) = key
            if lead and 0 <= t <= D:
                reps = _REPS[1].join([_encode(_with_v(x, v_name, s, ascii_)) for x in lead])
                records[key] = _CLASS(t, s, len(lead), reps)
            else:
                records[key] = None
        prev_cells = cells
        out += (_PAGES[1], _PAGE[0], str(pd.r), _PAGE[1])
        start = len(out)
        for text in records.values():
            if text is not None:
                out += (_ITEMS[1], text)
        _close_list(out, start, _ITEMS)
        out.append(_PAGE[2])
        start = len(out)
        for (t, s) in sorted(pd.diffs):
            rec = pd.diffs[(t, s)]
            (t2, s2) = rec.target
            if rec.rank and (0 <= t <= D or 0 <= t2 <= D):
                out += (_ITEMS[1], _DIFF(t, s, t2, s2, rec.rank))
        _close_list(out, start, _ITEMS)
        out.append(_PAGE[3])
    _close_list(out, pages_start, _PAGES)
    out += (_DOC[2], _nested(towers_record(profile)), _DOC[3])
    return out


def emit_json(pages: Sequence[PageData], profile: TowerProfile, meta: Dict[str, object],
              ascii_: bool = False) -> str:
    """The JSON document of a run, in the pinned layout (module docstring):
    one join of json_fragments, which holds no other copy of its text."""
    return "".join(json_fragments(pages, profile, meta, ascii_))


def parse_json(text: str) -> Tuple[dict, List[dict], TowerProfile]:
    """Inverse of emit_json up to the advisory marks of unknowns: a lower
    bound and the possibly-absent mark are both written as "unknown", so
    neither survives a round trip and every unknown comes back plain."""
    doc = json.loads(text)
    meta = doc["meta"]
    profile = TowerProfile(int(meta["D"]))
    for entry in doc["towers"]:
        for x in entry["lengths"]:
            profile.add(int(entry["t"]), length_from_json(x))
    return meta, doc["pages"], profile
