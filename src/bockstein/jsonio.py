"""JSON serialization of pages and tower profiles.

A document holds `meta` (the caller's keys and the tool version), `pages`
and `towers` (per degree `t`, its `lengths`: int, "inf" or "unknown").
Monomials use the generator-name table (λ1, ..., μ3, v0, v1, v2) in
UTF-8, or an ASCII fallback (l1, m3, g4(x), s-prefixes) when requested.
Two runs with the same configuration give byte-identical documents.

emit_json writes schema 2, which is the engine's state: a v-tower is one
A-degree a, whose bars (PageData.degrees) hold its classes at
(a + s|v|, s).  Its `meta` adds the schema, v's name and degree, the
view's filtrations and whether names are ASCII.  A page holds `r`,
`degrees`: per A-degree `a` that PageData.windows walks, `levels`
[s_from, s_to, dim, reps], its bars as PageData.window cuts them, each
rep a lead monomial without its v-power; and `differentials`: per source
A-degree `a`, its target `to` and `runs` [s_from, s_to, rank, matrix], the
bars of d_r as PageData.windows_maps cuts them (sources in degrees
0..D + 1 whose targets are in the view).  The writer reads a page only
through the walks PageData.windows and windows_maps and, for the
A-degrees a page changed (PageData.changed), PageData.window.  json_fragments lays the text
out as a flat list of fragments, each A-degree's record one string shared
by the pages that show it, and each page's list laid out by slice
assignment; emit_json joins it and `run --json` streams it.  Records are formatted from ints
and from strings made once per document (escaped generator names, each
generator's factor text per exponent, each cell's level text); a d_r
matrix, a list of lists of ints, is its own JSON text as str writes it,
so the encoder writes only meta and names.

Schema 1, the (t, s) reading that the golden digests pin, is test
tooling: tests/golden.py expands a schema-2 document into it and reads
both.  The CLI neither writes nor reads it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .algebra import Algebra, Monomial
from .engine import DIM, MONOMIALS, REPS, Cell, PageData, Runs
from .towers import INF, TowerProfile, Unknown

TOOL_VERSION = "0.1.0"

_ASCII_MAP = {"λ": "l", "μ": "m", "σ": "s", "γ": "g"}


def _name(name: str, ascii_: bool) -> str:
    if not ascii_:
        return name
    for k, v in _ASCII_MAP.items():
        name = name.replace(k, v)
    return name


class _Factors(dict):
    """One generator's factor text by exponent: "" at 0, its name at 1 and
    name^e above, each made the first time it is read, so a table holds
    the exponents a document meets and needs no largest one."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__(((0, ""), (1, name)))
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.name}^{e}"
        return text


def _speller(names: Sequence[str], sep: str) -> Callable[[Monomial], str]:
    """Spells a monomial with one name per generator: its factors' texts
    (_Factors) joined by sep, or "1"."""
    tables = [_Factors(nm) for nm in names]
    factor = dict.__getitem__

    def spell(m: Monomial) -> str:
        return sep.join(filter(None, map(factor, tables, m))) or "1"

    return spell


def monomial_str(A: Algebra, m: Monomial, ascii_: bool = False) -> str:
    return _speller([_name(g.name, ascii_) for g in A.generators], "*" if ascii_ else "·")(m)


def _lead_renderer(A: Algebra, ascii_: bool,
                   escape: bool) -> Callable[[Cell], List[Optional[str]]]:
    """The lead monomial of each class of a cell (None for a zero row),
    written as monomial_str writes it; an untouched cell's classes are its
    monomials.  The generators' names are taken once, JSON-escaped with
    escape: the separator, the carets and the digits need no escape, so a
    lead is then its own JSON string body.  Each factor text is made once
    per renderer (_speller)."""
    names = [_name(g.name, ascii_) for g in A.generators]
    if escape:
        names = [_dumps(nm)[1:-1] for nm in names]
    spell = _speller(names, "*" if ascii_ else "·")

    def leads(cell: Cell) -> List[Optional[str]]:
        mons, reps = cell[MONOMIALS], cell[REPS]
        if reps is None:
            return list(map(spell, mons))
        return [next((spell(m) for m, c in zip(mons, row) if c), None) for row in reps]

    return leads


def _json_list(leads: Sequence[Optional[str]]) -> str:
    """The JSON text of a nonempty list of escaped leads, as _dumps lays it
    out; a missing lead is null."""
    if None in leads:
        return "[" + ", ".join("null" if x is None else f'"{x}"' for x in leads) + "]"
    return '["' + '", "'.join(leads) + '"]'


def laurent_span(page: PageData, ascii_: bool = False) -> List[str]:
    """Representatives of the Laurent lines a localized page keeps: its
    classes at filtration 0 in the run's degrees 0..D, "0" for a zero row."""
    leads = _lead_renderer(page.ctx.A, ascii_, escape=False)
    return ["0" if lead is None else lead
            for _, runs in page.windows()
            for s0, s1, cell in runs if s0 <= 0 <= s1
            for lead in leads(cell)]


# the keys schema 2 adds to the caller's meta, which schema 1 (tests/golden.py)
# drops again
_READING = ("schema", "v", "v_degree", "filtrations", "ascii")


_dumps = json.JSONEncoder(ensure_ascii=False).encode


def _degree_record(a: int, window: Iterable[Tuple[int, int, Cell]], reps: Dict[int, str],
                   leads: Callable[[Cell], List[Optional[str]]]) -> Optional[str]:
    """The record of A-degree a from its window (PageData.window), None
    when it shows no class.  reps holds the text each cell gives a
    level after its filtrations, rendered once per document: its dim and
    its lead monomials (leads, with escaped names), or "" for a cell with
    no class."""
    runs = []
    for s0, s1, cell in window:
        text = reps.get(id(cell))
        if text is None:
            dim = cell[DIM]
            text = reps[id(cell)] = f", {dim}, {_json_list(leads(cell))}]" if dim else ""
        if text:
            runs.append(f"[{s0}, {s1}{text}")
    return f'{{"a": {a}, "levels": [{", ".join(runs)}]}}' if runs else None


def _diff_record(a: int, target: int, runs: Runs) -> Optional[str]:
    """The record of d_r out of A-degree a into A-degree target from its
    runs (PageData.windows_maps), None when they are empty.  A matrix is a
    list of lists of ints, whose str is its JSON text."""
    if not runs:
        return None
    texts = ", ".join([f"[{s0}, {s1}, {rec.rank}, {rec.matrix}]" for s0, s1, rec in runs])
    return f'{{"a": {a}, "to": {target}, "runs": [{texts}]}}'


def _towers(profile: TowerProfile) -> List[str]:
    """The record of each degree of a profile: t and its lengths, each an
    int, "inf" or "unknown" (which drops an unknown's advisory marks)."""
    out = []
    for d in profile.degrees():
        lengths = ", ".join(['"unknown"' if isinstance(x, Unknown) else '"inf"' if x == INF
                             else str(int(x)) for x in profile.towers[d]])
        out.append(f'{{"t": {d}, "lengths": [{lengths}]}}')
    return out


def _items(out: List[str], items) -> None:
    """Append the items of a JSON list that are not None, one a line,
    after its opening: the list's fragments are laid out by slice
    assignment, each item after its separator."""
    texts = [text for text in items if text is not None]
    if texts:
        seq = [",\n"] * (2 * len(texts))
        seq[0] = "\n"
        seq[1::2] = texts
        out += seq


def json_fragments(pages: Sequence[PageData], profile: TowerProfile, meta: Dict[str, object],
                   ascii_: bool = False) -> List[str]:
    """The schema-2 document of a run (module docstring) as a flat list of
    fragments whose concatenation is the document.

    Each A-degree's record is one string, listed once per page that shows
    it.  A page is decided by the page listed before it: sharing its
    degrees, it reuses every record; fired from it (PageData.fired_from),
    it differs only at the A-degrees PageData.changed gives, and
    re-renders the ones it shows; any other page is rendered whole, in
    one walk.  So a document of a run's pages costs the first page plus
    each page's changes, and pages in any order give the same records."""
    ctx = pages[0].ctx if pages else None
    reading = dict(zip(_READING, (2, ctx and ctx.v.name, ctx and ctx.deg_v,
                                  ctx and [ctx.s_lo, ctx.s_hi], ascii_)))
    out = ['{"meta": ', _dumps({**meta, "tool_version": TOOL_VERSION, **reading}),
           ',\n"pages": [']
    reps: Dict[int, str] = {}
    leads = _lead_renderer(ctx.A, ascii_, escape=True) if ctx else None
    records: Dict[int, Optional[str]] = {}
    before: Optional[PageData] = None
    for pd in pages:
        if before is not None and pd.fired_from is before:
            records = dict(records)
            for a in pd.changed():
                if a in records:
                    records[a] = _degree_record(a, pd.window(a), reps, leads)
        elif before is None or before.ctx is not pd.ctx or before.degrees is not pd.degrees:
            records = {a: _degree_record(a, runs, reps, leads) for a, runs in pd.windows()}
        out += ("\n" if before is None else ",\n", f'{{"r": {pd.r}, "degrees": [')
        _items(out, records.values())
        out.append('],\n"differentials": [')
        shift = 1 + pd.r * pd.ctx.deg_v
        _items(out, [_diff_record(a, a - shift, runs) for a, runs in pd.windows_maps()])
        out.append("]}")
        before = pd
    out.append('],\n"towers": [')
    _items(out, _towers(profile))
    out.append("]}\n")
    return out


def emit_json(pages: Sequence[PageData], profile: TowerProfile, meta: Dict[str, object],
              ascii_: bool = False) -> str:
    """The schema-2 document of a run: one join of json_fragments, which
    holds no other copy of its text."""
    return "".join(json_fragments(pages, profile, meta, ascii_))
