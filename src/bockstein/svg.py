"""SVG chart emission: one dot per class, lines along v-multiplication,
labeled arrows for the page's differentials, x ticks every few columns.

chart_marks reads a page only through its window readers (PageData.shown,
window and window_maps), the ones the JSON writer reads, so the rendered
class count per column always equals the page dimensions (each circle
carries data-t/data-s attributes so that tests can verify this against
the JSON document).  The marks are read tower by tower: each A-degree's
window runs give its dots at (a + s|v|, s), and a dot's v-line partner
(t + |v|, s + 1) is the same tower's next filtration, so each mark carries
its partner's dimension and the chart looks none up.  draw_chart walks the
marks once, formats the x of every column, the y of every row and each fan
of several classes in one column once per chart, and writes every element
from those strings; a column of one class reads its own x with no call.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, Tuple

from .engine import PageData

Point = Tuple[int, int]
# (t, s, dim, up): the classes at (t, s) and those at its v-line partner
# (t + |v|, s + 1), 0 when it shows none
Mark = Tuple[int, int, int, int]

# the layout: points per degree and per filtration, the dot radius, the
# degrees between x ticks and the margin
X_SCALE = 10.0
Y_SCALE = 14.0
DOT_RADIUS = 2.2
X_TICK_STEP = 2
MARGIN = 28.0


class ChartStyle:
    """A chart's style, which has no setting: draw_chart reads none.  It
    stays a parameter of emit_svg and draw_chart while the benchmark's
    cases pass one (ROADMAP B1)."""


def chart_marks(page: PageData) -> Tuple[List[Mark], List[Tuple[Point, Point]]]:
    """What a chart can draw of a page, read through its window readers:
    a mark (t, s, dim, up) at each (t, s) that window shows classes at, and
    each d_r that window_maps shows as its source and target; both in
    (t, s) order.  Inside a window run, up is the run's own dim; at its
    top, the next run's dim, since an A-degree's runs follow each other
    with no gap (its bars are Cells, each holding up to the next one's
    start), and 0 at the last run's top, the window's end."""
    r, dv = page.r, page.ctx.deg_v
    marks: List[Mark] = []
    for a, _ in page.shown():
        top = 0  # the dim of the run before, when it has classes
        for s0, s1, cell in page.window(a):
            dim = cell.dim
            if top:
                marks.append((a + s * dv, s, top, dim))
            if dim:
                marks += [(a + k * dv, k, dim, dim) for k in range(s0, s1)]
            top, s = dim, s1
        if top:
            marks.append((a + s * dv, s, top, 0))
    marks.sort()
    arrows = [((a + s * dv, s), (a + s * dv - 1, s + r)) for a in page.maps
              for s0, s1, _ in page.window_maps(a) for s in range(s0, s1 + 1)]
    return marks, sorted(arrows)


def emit_svg(page: PageData, style: ChartStyle, max_degree: int,
             title: str = "") -> str:
    return draw_chart(page, *chart_marks(page), style, max_degree, title)


def draw_chart(page: PageData, marks: List[Mark], arrows: List[Tuple[Point, Point]],
               style: ChartStyle, max_degree: int, title: str = "") -> str:
    """The chart of a page's marks (chart_marks) in degrees 0..max_degree."""
    dv = page.ctx.deg_v
    marks = marks[:bisect_left(marks, max_degree + 1, key=itemgetter(0))]
    s_values = list(map(itemgetter(1), marks))
    s_top = max(s_values, default=0)
    s_bottom = min(s_values, default=0) if page.ctx.localized else 0

    def X(t: float) -> float:
        return MARGIN + t * X_SCALE

    def Y(s: float) -> float:
        return MARGIN + (s_top - s) * Y_SCALE

    # each coordinate formatted once per chart: the x of every column and
    # the y of every row; the classes of a column holding dim > 1 of them
    # fan out horizontally, and each such fan is formatted once
    col = {t: f"{X(t):.1f}" for t in range(min(0, marks[0][0] if marks else 0), max_degree + 1)}
    fans: Dict[Tuple[int, int], List[str]] = {}

    def fan(t: int, dim: int) -> List[str]:
        got = fans.get((t, dim))
        if got is None:
            got = fans[t, dim] = [f"{X(t) + (i - (dim - 1) / 2.0) * 2.6:.1f}" for i in range(dim)]
        return got

    ys = {s: f"{Y(s):.1f}" for s in range(s_bottom, s_top + 1)}
    width = X(max_degree) + MARGIN
    height = Y(s_bottom) + MARGIN
    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    if title:
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{MARGIN}" y="{MARGIN / 2:.1f}" font-size="11">{title}</text>')
    out.append(f'<line x1="{X(0)}" y1="{Y(s_bottom)}" x2="{X(max_degree)}" y2="{Y(s_bottom)}" '
               'stroke="black" stroke-width="0.5"/>')
    tick = f'" y="{Y(s_bottom) + 12:.1f}" font-size="7" text-anchor="middle">'
    out += [f'<text x="{col[t]}{tick}{t}</text>' for t in range(0, max_degree + 1, X_TICK_STEP)]
    # one walk of the marks: the v-multiplication lines to a dot's partner,
    # one for each class both ends hold, go straight out; the dots go last,
    # after the arrows, so they sit on top.  The text a row shares between
    # its elements' x coordinates is formatted once per row.
    dots: List[str] = []
    circle_mid = {s: f'" cy="{y}" r="{DOT_RADIUS}" data-t="' for s, y in ys.items()}
    circle_end = {s: f'" data-s="{s}"/>' for s in ys}
    line_mid = {s: f'" y1="{y}" x2="' for s, y in ys.items()}
    line_end = {s: f'" y2="{ys[s + 1]}" stroke="#888" stroke-width="0.6"/>'
                for s in ys if s < s_top}
    for t, s, dim, up in marks:
        if not s_bottom <= s <= s_top:
            continue
        if up and s < s_top and t + dv <= max_degree:
            mid, end = line_mid[s], line_end[s]
            if dim == up == 1:
                out.append(f'<line x1="{col[t]}{mid}{col[t + dv]}{end}')
            else:
                out += [f'<line x1="{x}{mid}{x2}{end}'
                        for x, x2 in zip(fan(t, dim), fan(t + dv, up))]
        mid, end = circle_mid[s], circle_end[s]
        if dim == 1:
            dots.append(f'<circle cx="{col[t]}{mid}{t}{end}')
        else:
            dots += [f'<circle cx="{x}{mid}{t}{end}' for x in fan(t, dim)]
    # differentials of this page
    for (t, s), (t2, s2) in arrows:
        if not (0 <= t <= max_degree and 0 <= t2 <= max_degree):
            continue
        if not (s_bottom <= s <= s_top and s_bottom <= s2 <= s_top):
            continue
        out.append(f'<line x1="{col[t]}" y1="{ys[s]}" x2="{col[t2]}" y2="{ys[s2]}" '
                   'stroke="#c00" stroke-width="0.7"/>')
        out.append(f'<text x="{(X(t) + X(t2)) / 2:.1f}" y="{(Y(s) + Y(s2)) / 2:.1f}" '
                   f'font-size="6" fill="#c00">d{page.r}</text>')
    out += dots
    out.append("</svg>")
    return "\n".join(out)
