"""The benchmark's tracer hooks name functions that exist, and its
observers can read what they count.

`perfbench/tracing.py` patches the functions its SPANS and LEAVES tables
name, and lists a missing one as absent instead of failing, so a renamed
function would silently read 0 in its per-layer metric.  This test reads
the tables without importing the benchmark package or writing beside it,
and requires every (module, attribute) to resolve under `bockstein`.
"""

import importlib
import types
from collections import defaultdict
from pathlib import Path

import pytest

from bockstein.cases import Case
from bockstein.engine import (
    PageData,
    _bar_at,
    _page_generators,
    _rule_degrees,
    apply_page,
    build_e1,
    reach,
)
import golden

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING_PATH)
    exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"),
         module.__dict__)
    return module


TRACING = _load_tracing()
HOOKS = [(module_name, attr) for _, module_name, attr, _ in TRACING.SPANS + TRACING.LEAVES]


def test_the_tracer_tables_are_read():
    assert len(HOOKS) > 10


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_every_tracer_hook_resolves(module_name, attr):
    owner = importlib.import_module(f"bockstein.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# |v| > 0, |v| = 0 at two primes, and localized, where s runs below 0
OBSERVED_CASES = [Case("v2", 2, 60), Case("v0", 2, 200, n=2), Case("v0", 3, 300, n=1),
                  Case("v2", 3, 120, localized=True), Case("v2", 2, 120, localized=True)]


@pytest.mark.parametrize("case", OBSERVED_CASES, ids=golden.case_id)
def test_the_tracer_observers_count_the_page_views(case):
    # the observers of build_e1 and apply_page count E_1's (t, s) classes
    # and each fired page's (t, s) differentials through the engine's
    # views, which compute them from the bars when read; here those counts
    # must equal the views' sizes, counted over the window from the bars
    A, sched, w = case.build()
    counts = defaultdict(int)
    top_page = max(sched.pages)
    every = (1 << reach(sched.v.degree, w.max_degree, top_page, case.localized) + 1) - 1
    pd = build_e1(A, sched.v, w, case.localized, top_page, 0, every)
    TRACING._cells(counts, (A, sched.v, w), {}, pd)
    ctx = pd.ctx
    keys = [(t, s) for t in range(ctx.max_degree + 1) for s in range(ctx.s_lo, ctx.s_hi + 1)
            if t - s * ctx.deg_v in pd.degrees]
    assert counts["engine.build_e1.cells"] == counts["engine.build_e1.window_cells"] == len(keys)
    diffs = ranks = 0
    for r in sorted(sched.pages):
        pd = pd if pd.r == r else PageData(r, ctx, pd.degrees)
        gens = _page_generators(A, ctx.deg_v, sched.pages[r])
        index = _rule_degrees(A, gens, ctx.reach)
        nxt = apply_page(pd, gens, index)
        TRACING._page(counts, (pd, gens, index), {}, nxt)
        for t in range(ctx.max_degree + 2):
            for s in range(ctx.s_lo, ctx.s_hi - r + 1):
                row = pd.maps.get(t - s * ctx.deg_v)
                rec = None if row is None else _bar_at(row, s)
                if rec is not None:
                    diffs += 1
                    ranks += rec.rank
        pd = nxt
    assert diffs > 0
    assert counts["engine.apply_page.diffs"] == diffs
    assert counts["engine.apply_page.rank_sum"] == ranks
