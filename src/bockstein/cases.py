"""The case registry: one table from a family of runs to its algebra,
schedule, oracle and documents.

The paper's results come as a few fixed families.  THH of taf^D and of
tmf_1(3) with coefficients HZ_(p), k(1) and k(2) are the ladders v0, v1 and
v2; the E_3 forms B<n> give the conjectural family conj.  A `Case` names
one run of a family: the prime p, the window 0..D and the parameters the
family takes.  It checks them, refuses a run too large to attempt, builds
and runs it, names its oracle, and gives the `meta` of its JSON document
and the page its chart draws.  The CLI, the tests and the demos all start
from it.

Schedules and oracles are called through their modules
(`engine.schedule_v1(...)`), never captured at import, so that a function
patched there is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import closedform, engine
from .algebra import Algebra
from .engine import MAX_COST, DifferentialSchedule, PageData, ScheduleError, Window
from .towers import TowerProfile


class Family(NamedTuple):
    """What the cases of one kind take, and how they are built and checked."""

    needs: Tuple[str, ...]     # parameters among n, m, variant a case must give
    optional: Tuple[str, ...]  # the ones it may give
    schedule: Callable[["Case", Window], DifferentialSchedule]
    oracle: Callable[["Case"], TowerProfile]
    n: Optional[int] = None    # the algebra's n, where the family fixes it
    unlocalized: Optional[str] = None  # why no localized run is asserted


# Cases whose algebra has n above this are refused before it is built: its
# n + 2 generators have degrees of up to n log2(p) bits, and the time grows
# faster than n^1.5.  Measured on a 2-vCPU Xeon with Python 3.11.7 (run and
# oracle), v0 p=2 D=40 took 0.75 s at n = 10,000 and 2.8 s at 20,000, v0
# p=7 D=40 took 2.9 s at 10,000, and v0 p=2 D=1000 took 4.8 s at 9,999.
MAX_HEIGHT = 10_000


@dataclass(frozen=True)
class Case:
    """One run: kind (v0, v1, v2 or conj), prime p, window 0..D and the
    parameters its family takes; `localized` inverts v, `page_cap` leaves
    the pages above it unfired.  A parameter the family does not take, or
    a missing one it needs, raises ScheduleError, and so does an n above
    MAX_HEIGHT."""

    kind: str
    p: int
    D: int
    n: Optional[int] = None
    m: Optional[int] = None
    localized: bool = False
    variant: Optional[str] = None
    page_cap: Optional[int] = None

    def __post_init__(self) -> None:
        Window(self.D)  # refuses D < 0
        fam = KINDS.get(self.kind)
        if fam is None:
            raise ScheduleError(f"unknown case {self.kind!r}")
        given = [name for name in ("n", "m", "variant") if getattr(self, name) is not None]
        if not set(fam.needs) <= set(given):
            raise ScheduleError(f"case {self.kind} needs "
                                + " and ".join(f"--{name}" for name in fam.needs))
        for name in given:
            if name not in fam.needs + fam.optional:
                raise ScheduleError(f"case {self.kind} takes no --{name}")
        if self.variant is not None and self.p != 2:
            raise ScheduleError(f"case {self.kind} takes --variant only at p = 2, "
                                f"where the pattern is open")
        if self.localized and fam.unlocalized:
            raise ScheduleError(fam.unlocalized)
        if self.height > MAX_HEIGHT:
            raise ScheduleError(f"n = {self.height:,} is above the limit of {MAX_HEIGHT:,}; "
                                f"choose a smaller --n")

    @property
    def height(self) -> int:
        """The n of the algebra E(λ1..λn+1) ⊗ P(μn+1) the case runs on."""
        fixed = KINDS[self.kind].n
        return self.n if fixed is None else fixed

    def build(self) -> Tuple[Algebra, DifferentialSchedule, Window]:
        """Algebra, schedule and window.  Every schedule has one rule per
        page, and the pages grow with log D (v0) or with the ladder's steps,
        so the schedule is built first and the size of the run is checked on
        its pages before the algebra is."""
        w = Window(self.D)
        sched = KINDS[self.kind].schedule(self, w)
        cost = engine.estimate_cost(sched.v.degree, self.D, sorted(sched.pages),
                                    self.localized, self.page_cap)
        if cost > MAX_COST:
            raise ScheduleError(f"the run would keep about {cost:,} (A-degree, page) states, "
                                f"above the limit of {MAX_COST:,}; choose a smaller --max-degree")
        return closedform.thh_mod_p_algebra(self.p, self.height), sched, w

    def run(self) -> Tuple[DifferentialSchedule, List[PageData], TowerProfile]:
        """The schedule, the recorded pages and the tower profile."""
        A, sched, w = self.build()
        pages, profile = engine.run(A, sched, w, localized=self.localized,
                                    page_cap=self.page_cap)
        return sched, pages, profile

    def oracle(self) -> TowerProfile:
        """The closed-form profile the run is certified against."""
        if self.localized:
            return closedform.localized_expected_profile(self.kind, self.p, self.D)
        return KINDS[self.kind].oracle(self)

    def check_oracle(self) -> None:
        """Raise what oracle() raises when no oracle is asserted for the
        case, without a run or an oracle of the case's size: that depends
        on the parameters only, never on D, so the same case on the window
        0..0 answers it."""
        replace(self, D=0).oracle()

    def meta(self, sched: DifferentialSchedule) -> Dict[str, object]:
        """The `meta` of the run's JSON document."""
        return {
            "case": self.kind,
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "D": self.D,
            "localized": self.localized,
            "variant": self.variant,
            "pages": sorted(sched.pages),
        }

    def chart_page(self, pages: Sequence[PageData]) -> PageData:
        """The page the chart draws: the final one, or under a page cap the
        first page at or past the cap."""
        if self.page_cap is None:
            return pages[-1]
        return next((pg for pg in pages if pg.r >= self.page_cap), pages[-1])


def _t12(c: Case) -> TowerProfile:
    if c.p == 2:
        raise ScheduleError("no oracle is asserted for the p = 2 v1 case")
    return closedform.t12_profile(c.p, c.D)


KINDS: Dict[str, Family] = {
    "v0": Family(
        needs=("n",), optional=(),
        schedule=lambda c, w: engine.schedule_v0(c.p, c.n, w),
        oracle=lambda c: closedform.t0n_profile(c.p, c.n, c.D),
        unlocalized="v0 has |v| = 0; the localized (rational) answer "
                    "is the closed-form module's job"),
    "v1": Family(
        needs=(), optional=("variant",), n=2,
        schedule=lambda c, w: engine.schedule_v1(c.p, w, variant=c.variant),
        oracle=_t12),
    "v2": Family(
        needs=(), optional=(), n=2,
        schedule=lambda c, w: engine.schedule_v2(c.p, w),
        oracle=lambda c: closedform.t22_profile(c.p, c.D)),
    "conj": Family(
        needs=("n", "m"), optional=(),
        schedule=lambda c, w: engine.schedule_conj(c.p, c.n, c.m, w),
        oracle=lambda c: closedform.tmn_profile(c.p, c.n, c.m, c.D),
        unlocalized="no localized answer is asserted for the conjectural case"),
}
