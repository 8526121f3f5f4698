"""SVG chart emission: one dot per class, lines along v-multiplication,
labeled arrows for the page's differentials, x ticks every few columns.

chart_marks reads a page only through its window readers (PageData.shown,
window and window_maps), the ones the JSON writer reads, so the rendered
class count per column always equals the page dimensions (each circle
carries data-t/data-s attributes so that tests can verify this against
the JSON document).  draw_chart formats the x of every column, the y of
every row and each fan of several classes in one column once per chart,
and writes every element from those strings; a column of one class reads
its own x with no call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .engine import PageData

Point = Tuple[int, int]

# the layout: points per degree and per filtration, the dot radius, the
# degrees between x ticks and the margin
X_SCALE = 10.0
Y_SCALE = 14.0
DOT_RADIUS = 2.2
X_TICK_STEP = 2
MARGIN = 28.0


@dataclass
class ChartStyle:
    """A chart's style, which has no setting: draw_chart reads none.  It
    stays a parameter of emit_svg and draw_chart while the benchmark's
    cases pass one (ROADMAP B1)."""


def chart_marks(page: PageData) -> Tuple[Dict[Point, int], List[Tuple[Point, Point]]]:
    """What a chart can draw of a page, read through its window readers:
    the number of classes at each (t, s) that window shows some at, and
    each d_r that window_maps shows as its source and target; both in
    (t, s) order."""
    r, dv = page.r, page.ctx.deg_v
    dots = {(a + s * dv, s): dim for a, _ in page.shown() for s0, s1, cell in page.window(a)
            for dim in (cell.dim,) if dim for s in range(s0, s1 + 1)}
    arrows = [((a + s * dv, s), (a + s * dv - 1, s + r)) for a in page.maps
              for s0, s1, _ in page.window_maps(a) for s in range(s0, s1 + 1)]
    return dict(sorted(dots.items())), sorted(arrows)


def emit_svg(page: PageData, style: ChartStyle, max_degree: int,
             title: str = "") -> str:
    return draw_chart(page, *chart_marks(page), style, max_degree, title)


def draw_chart(page: PageData, dots: Dict[Point, int], arrows: List[Tuple[Point, Point]],
               style: ChartStyle, max_degree: int, title: str = "") -> str:
    """The chart of a page's marks (chart_marks) in degrees 0..max_degree."""
    dv = page.ctx.deg_v
    dims = {key: dim for key, dim in dots.items() if key[0] <= max_degree}
    s_values = [s for (_t, s) in dims]
    s_top = max(s_values, default=0)
    s_bottom = min(s_values, default=0) if page.ctx.localized else 0

    def X(t: float) -> float:
        return MARGIN + t * X_SCALE

    def Y(s: float) -> float:
        return MARGIN + (s_top - s) * Y_SCALE

    # each coordinate formatted once per chart: the x of every column and
    # the y of every row; the classes of a column holding dim > 1 of them
    # fan out horizontally, and each such fan is formatted once
    col = {t: f"{X(t):.1f}" for t in range(min(0, min(dims, default=(0, 0))[0]), max_degree + 1)}
    fans: Dict[Point, List[str]] = {}

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
    tick_y = f"{Y(s_bottom) + 12:.1f}"
    out += [f'<text x="{col[t]}" y="{tick_y}" font-size="7" text-anchor="middle">{t}</text>'
            for t in range(0, max_degree + 1, X_TICK_STEP)]
    # v-multiplication lines between consecutive filtrations of a tower, one
    # for each class both ends hold; a column of one class is its own x
    for (t, s), dim in dims.items():
        nxt = dims.get((t + dv, s + 1))
        if not s_bottom <= s < s_top or nxt is None:
            continue
        y, y2 = ys[s], ys[s + 1]
        pairs = ((col[t], col[t + dv]),) if dim == nxt == 1 else zip(fan(t, dim), fan(t + dv, nxt))
        for x, x2 in pairs:
            out.append(f'<line x1="{x}" y1="{y}" x2="{x2}" y2="{y2}" '
                       'stroke="#888" stroke-width="0.6"/>')
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
    # dots last so they sit on top
    radius = f'r="{DOT_RADIUS}"'
    for (t, s), dim in dims.items():
        if not s_bottom <= s <= s_top:
            continue
        y = ys[s]
        for x in (col[t],) if dim == 1 else fan(t, dim):
            out.append(f'<circle cx="{x}" cy="{y}" {radius} data-t="{t}" data-s="{s}"/>')
    out.append("</svg>")
    return "\n".join(out)
