"""SVG chart emission: one dot per class, lines along v-multiplication,
labeled arrows for the page's differentials, x ticks every few columns.

chart_marks reads a page only through its window readers
(PageData.shown, window and window_maps), the ones the JSON writer reads,
so the rendered class count per column always equals the page dimensions
(each circle carries data-t/data-s attributes so that tests can verify
this against the JSON document).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .engine import PageData

Point = Tuple[int, int]


@dataclass
class ChartStyle:
    x_scale: float = 10.0
    y_scale: float = 14.0
    dot_radius: float = 2.2
    x_tick_step: int = 2
    margin: float = 28.0
    max_filtration: Optional[int] = None


def chart_marks(page: PageData) -> Tuple[Dict[Point, int], List[Tuple[Point, Point]]]:
    """What a chart can draw of a page, read through its window readers:
    the number of classes at each (t, s) that window shows some at, and
    each d_r that window_maps shows as its source and target; both in
    (t, s) order."""
    dv, r = page.ctx.deg_v, page.r
    dots = {(a + s * dv, s): cell.dim for a, _ in page.shown()
            for s0, s1, cell in page.window(a) if cell.dim for s in range(s0, s1 + 1)}
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
    if style.max_filtration is not None:
        s_top = min(s_top, style.max_filtration)
    s_bottom = min(s_values, default=0) if page.ctx.localized else 0
    m = style.margin

    def X(t: float) -> float:
        return m + t * style.x_scale

    def Y(s: float) -> float:
        return m + (s_top - s) * style.y_scale

    width = X(max_degree) + m
    height = Y(s_bottom) + m
    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    if title:
        out.append(f'<text x="{m}" y="{m / 2:.1f}" font-size="11">{title}</text>')
    out.append(f'<line x1="{X(0)}" y1="{Y(s_bottom)}" x2="{X(max_degree)}" y2="{Y(s_bottom)}" '
               'stroke="black" stroke-width="0.5"/>')
    for t in range(0, max_degree + 1, style.x_tick_step):
        out.append(f'<text x="{X(t):.1f}" y="{Y(s_bottom) + 12:.1f}" font-size="7" '
                   f'text-anchor="middle">{t}</text>')

    def dots(t: int, s: int, dim: int) -> List[tuple]:
        # several classes in one bidegree fan out horizontally
        return [(X(t) + (i - (dim - 1) / 2.0) * 2.6, Y(s)) for i in range(dim)]

    # v-multiplication lines between consecutive filtrations of a tower
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
    # differentials of this page
    for (t, s), (t2, s2) in arrows:
        if not (0 <= t <= max_degree and 0 <= t2 <= max_degree):
            continue
        if not (s_bottom <= s <= s_top and s_bottom <= s2 <= s_top):
            continue
        out.append(f'<line x1="{X(t):.1f}" y1="{Y(s):.1f}" x2="{X(t2):.1f}" y2="{Y(s2):.1f}" '
                   'stroke="#c00" stroke-width="0.7"/>')
        out.append(f'<text x="{(X(t) + X(t2)) / 2:.1f}" y="{(Y(s) + Y(s2)) / 2:.1f}" '
                   f'font-size="6" fill="#c00">d{page.r}</text>')
    # dots last so they sit on top
    for (t, s), dim in dims.items():
        if not s_bottom <= s <= s_top:
            continue
        for (x, y) in dots(t, s, dim):
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{style.dot_radius}" '
                       f'data-t="{t}" data-s="{s}"/>')
    out.append("</svg>")
    return "\n".join(out)
