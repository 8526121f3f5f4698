"""JSON serialization of pages and tower profiles.

Schema: a top-level object with `meta` (case, p, n, D, localized, variant,
tool version), `pages` (one record per computed page with its classes and
differential arrows), and `towers`.  Monomial strings use the fixed
generator-name table (λ1, ..., μ3, v0, v1, v2) in UTF-8, or an ASCII
fallback (l1, m3, g4(x), s-prefixes) when requested.  Two runs with the
same configuration produce byte-identical documents.
"""

from __future__ import annotations

import json
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


def rep_str(A: Algebra, monomials: Sequence[Monomial], row: Sequence[int],
            v_name: str, s: int, ascii_: bool = False) -> str:
    """Lead-monomial string of a representative row, with the v-power."""
    lead: Optional[str] = None
    for mon, c in zip(monomials, row):
        if c:
            lead = monomial_str(A, mon, ascii_)
            break
    if lead is None:
        return "0"
    if s == 0:
        return lead
    vpart = _name(v_name, ascii_) + (f"^{s}" if s != 1 else "")
    sep = "*" if ascii_ else "·"
    return vpart if lead == "1" else f"{lead}{sep}{vpart}"


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


def page_record(pd: PageData, max_degree: int, ascii_: bool = False) -> dict:
    ctx = pd.ctx
    A = ctx.A
    classes = []
    for (t, s) in sorted(pd.cells):
        if not 0 <= t <= max_degree:
            continue
        cell = pd.cells[(t, s)]
        if cell.dim == 0:
            continue
        reps = [rep_str(A, cell.monomials, row, ctx.v.name, s, ascii_)
                for row in cell.reps_rows()]
        classes.append({"t": t, "s": s, "dim": cell.dim, "reps": reps})
    diffs = []
    for key in sorted(pd.diffs):
        rec = pd.diffs[key]
        if rec.rank == 0:
            continue
        (t, s) = key
        (t2, s2) = rec.target
        if 0 <= t <= max_degree or 0 <= t2 <= max_degree:
            diffs.append({"from": {"t": t, "s": s}, "to": {"t": t2, "s": s2},
                          "rank": rec.rank})
    return {"r": pd.r, "classes": classes, "differentials": diffs}


def towers_record(profile: TowerProfile) -> List[dict]:
    return [{"t": d, "lengths": [length_json(x) for x in profile.towers[d]]}
            for d in profile.degrees()]


def emit_json(pages: Sequence[PageData], profile: TowerProfile, meta: Dict[str, object],
              ascii_: bool = False) -> str:
    doc = {
        "meta": {**meta, "tool_version": TOOL_VERSION},
        "pages": [page_record(pd, profile.max_degree, ascii_) for pd in pages],
        "towers": towers_record(profile),
    }
    return json.dumps(doc, ensure_ascii=False, indent=1)


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
