"""SVG chart emission: one dot per class, lines along v-multiplication,
labeled arrows for the page's differentials, x ticks every few columns.

The rendered class count per column always equals the page dimensions
(each circle carries data-t/data-s attributes so that tests can verify
this against the JSON document).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .engine import PageData


@dataclass
class ChartStyle:
    x_scale: float = 10.0
    y_scale: float = 14.0
    dot_radius: float = 2.2
    x_tick_step: int = 2
    margin: float = 28.0
    max_filtration: Optional[int] = None


def emit_svg(page: PageData, style: ChartStyle, max_degree: int,
             title: str = "") -> str:
    ctx = page.ctx
    dv = ctx.deg_v
    # the nonempty classes of the window, in (t, s) order, with their dims
    dims = dict(sorted((key, cell.dim) for key, cell in page.cells.items()
                       if cell.dim and 0 <= key[0] <= max_degree))
    s_values = [s for (_t, s) in dims]
    s_hi = max(s_values, default=0)
    if style.max_filtration is not None:
        s_hi = min(s_hi, style.max_filtration)
    s_lo = min(s_values, default=0) if ctx.localized else 0
    m = style.margin

    def X(t: float) -> float:
        return m + t * style.x_scale

    def Y(s: float) -> float:
        return m + (s_hi - s) * style.y_scale

    width = X(max_degree) + m
    height = Y(s_lo) + m
    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    if title:
        out.append(f'<text x="{m}" y="{m / 2:.1f}" font-size="11">{title}</text>')
    out.append(f'<line x1="{X(0)}" y1="{Y(s_lo)}" x2="{X(max_degree)}" y2="{Y(s_lo)}" '
               'stroke="black" stroke-width="0.5"/>')
    for t in range(0, max_degree + 1, style.x_tick_step):
        out.append(f'<text x="{X(t):.1f}" y="{Y(s_lo) + 12:.1f}" font-size="7" '
                   f'text-anchor="middle">{t}</text>')

    def dots(t: int, s: int, dim: int) -> List[tuple]:
        # several classes in one bidegree fan out horizontally
        return [(X(t) + (i - (dim - 1) / 2.0) * 2.6, Y(s)) for i in range(dim)]

    # v-multiplication lines between consecutive filtrations of a tower
    for (t, s), dim in dims.items():
        nxt = dims.get((t + dv, s + 1))
        if not s_lo <= s < s_hi or nxt is None:
            continue
        k = min(dim, nxt)
        a = dots(t, s, dim)
        b = dots(t + dv, s + 1, nxt)
        for i in range(k):
            out.append(f'<line x1="{a[i][0]:.1f}" y1="{a[i][1]:.1f}" '
                       f'x2="{b[i][0]:.1f}" y2="{b[i][1]:.1f}" '
                       'stroke="#888" stroke-width="0.6"/>')
    # differentials of this page
    for (t, s), rec in sorted(page.diffs.items()):
        (t2, s2) = rec.target
        if rec.rank == 0 or not (0 <= t <= max_degree and 0 <= t2 <= max_degree):
            continue
        if not (s_lo <= s <= s_hi and s_lo <= s2 <= s_hi):
            continue
        out.append(f'<line x1="{X(t):.1f}" y1="{Y(s):.1f}" x2="{X(t2):.1f}" y2="{Y(s2):.1f}" '
                   'stroke="#c00" stroke-width="0.7"/>')
        out.append(f'<text x="{(X(t) + X(t2)) / 2:.1f}" y="{(Y(s) + Y(s2)) / 2:.1f}" '
                   f'font-size="6" fill="#c00">d{page.r}</text>')
    # dots last so they sit on top
    for (t, s), dim in dims.items():
        if not s_lo <= s <= s_hi:
            continue
        for (x, y) in dots(t, s, dim):
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{style.dot_radius}" '
                       f'data-t="{t}" data-s="{s}"/>')
    out.append("</svg>")
    return "\n".join(out)
