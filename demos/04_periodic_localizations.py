"""Localized (Laurent) runs: inverting v collapses everything periodic.

With v inverted the same schedules leave only the free part: two Laurent
lines {1, λ1} in the v1 case and a single line {1} in the v2 case, matching
the closed-form periodic answers.
"""

from bockstein import localized_expected
from bockstein.cases import Case
from bockstein.jsonio import laurent_span

D = 120
for kind, p in (("v1", 3), ("v2", 2), ("v2", 3)):
    _, pages, _ = Case(kind, p, D, localized=True).run()
    print(f"{kind} case, p={p}:  Laurent span", laurent_span(pages[-1]),
          " expected", localized_expected(kind, p))
