"""Multiplicative Bockstein spectral-sequence engine, one state per A-degree.

Bidegrees are (t, s): t is the abutment topological degree (a class x*v^s
contributes s*|v| to t) and s is the v-filtration, so d_r maps
(t, s) -> (t-1, s+r).  E_1 of a run is A[v] (or A[v^{+-1}] in localized
mode); schedules inject page-indexed rules which the engine extends as a
derivation.

Each page states its generators once: the live exterior generators, each
with the power of mu (the page's polynomial generator) attached to it, and
the power of mu that the page's power rule fires on.  A rule is d_r on one
of those generators.  d_r of a monomial is 0 when it does not factor over
them (a torsion remnant of earlier pages), and otherwise the sum of the
Leibniz terms of its factors that carry a rule.  One function reads the
rules (_page_generators): it checks each rule's form (its source a page
generator, its target a nonzero homogeneous element at v-exponent r one
degree below the source) and records the A-degrees of its ends, which every
later stage reads instead.  run checks and compiles every page, fired or
capped, before it builds E_1; firing a page checks only what needs its
state, that each source lives and each target survives (_validate_rules).

Since d_r(x*v^s) = d_r(x)*v^s, page r maps A-degree a to a - 1 - r|v|
whatever the filtration, and one v-tower is one A-degree.  So the state is
kept per A-degree a: the cycles Z_r(a) and the boundaries, as subspaces of
F_p^{basis(a)}, computed by exact Gaussian elimination over F_p with
echelon-pivot representatives under the canonical monomial order.  The
boundaries of page r reach a tower only from filtration r on, since their
sources sit r filtrations lower; so the classes at (t, s) are Z_r(a)
modulo the boundaries of the fired pages <= s.  An A-degree is thus a
barcode (Zomorodian-Carlsson, Computing persistent homology, 2005): bars
(s_from, Cell), the first from the lowest filtration and each later one
from a fired page whose boundaries changed its cell.  A page that does not
touch an A-degree passes its bars on unchanged.  With v inverted every
page's boundaries reach every filtration, and each A-degree has one bar.
PageData owns the window 0..D: its readers cut the bars to it by one rule
(EngineContext._cut), a whole page in one walk (windows, and windows_maps
over its d_r records) or one A-degree at a time (window, window_maps), and
the documents and the chart read only them.  A d_r record (DiffRecord)
holds only its matrix and rank: its source A-degree is its key in
PageData.maps, and its target is the A-degree a - 1 - r|v| the page
implies.  A page knows the page it was fired from (PageData.fired_from)
and the d_r records that firing made (fired_maps), so a reader of
consecutive pages can reread only the A-degrees the firing changed
(PageData.changed).

Every page asserts, on the records it fires, d_r o d_r = 0, that d_r
takes the same values from every bar (so it is defined on E_r), and the
homology bookkeeping of each state.

A page costs the differentials it fires, and a run fires only those its
output depends on.  A page's clearing index holds the A-degrees where a
monomial factors over the page generators with a rule factor whose
Leibniz term can live, since d_r vanishes on every other one.  A page
visits only its cone (_cones), the A-degrees of that index whose records
the window, the later pages and the rule checks read, found by walking
the pages from the last to the first.  With |v| > 0 most of a clearing
index lies above the window, where nothing reads a record's target.  run
is the engine's one path: it compiles the pages, finds their cones,
builds E_1 on what they read and folds the fired pages over it, each page
step given its compiled page and its cone.  A page eliminates each record
of d_r once: one forward elimination gives its rank, its kernel (the
source's cycles) and pivot rows that back-substitute to its reduced
echelon form (the span the well-definedness check compares, and the image
the target divides by).
And a cell no page has touched is the identity on its monomials: its
classes' values are their images, a combination of them is its own
vector, and it expresses a vector as itself, so it builds no rows and
only the cells the homology built keep a solver.  A record costs its
arithmetic, not its calls: a Leibniz term is an exponent sum and a
parity (koszul_flips), the images are written once per A-degree as rows
over the target's monomials, the elimination reduces each row in the one
list it is built in, a record is plain tuples until its DiffRecord is
made, a cell stores its dimension, and one upward walk fires the
records, checks them and forms the next state: the homology is taken on
the bars of each source and, as soon as its record fires, on one new top
bar per target, whose reps are read off the image's reduced echelon form
with no identity rows built, while an A-degree that d_r only enters
passes its old bars on.

Reading the towers at base degree b: the classes that become boundaries on
page r are towers of length r, the cycles that never do are free towers,
and in localized mode Z_inf(b)/B(b) at filtration 0 is the Laurent span.
The boundaries into the window come from at most 1 + R|v| A-degrees above
it (R the last page), so no run reads an A-degree above that reach, and
every tower is decided by what the run fired.  The state holds only the
A-degrees the run reads: the window, the sources and targets of the rules
and of the cones' records.  run finds them before it builds E_1 and has
build_e1 enumerate only them.  The only unknowns come from the
schedule: a degree that a rule the schedule did not emit (its future
floor) or a page the run did not fire (a page cap) can hit is read only up
to the smallest such page, and what survives there is "unknown" with that
page as its advisory lower bound.  A surviving class whose image under an
unfired page's rules (Leibniz extension included) is nonzero may support
that differential, and then its whole v-tower leaves: its unknown is
"possibly absent" and carries no lower bound.  In localized mode every
unknown that an unfired page can hit is possibly absent, since a
differential there removes its target's Laurent tower as well.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import linalg
from .algebra import (
    EXTERIOR,
    POLYNOMIAL,
    Algebra,
    Element,
    GeneratorSpec,
    Monomial,
    basis_up_to,
    koszul_flips,
    require_prime,
    sparse_monomial,
)
from .formulas import LambdaFamily, r_conj, r_len
from .towers import INF, TowerProfile, Unknown


class EngineError(RuntimeError):
    pass


class EngineAssertionError(EngineError):
    """Internal consistency violation (d o d != 0 and friends); exit code 3."""


class ScheduleError(ValueError):
    pass


class MalformedRuleError(ScheduleError):
    pass


class DeadSourceError(ScheduleError):
    pass


class AmbiguousPatternError(ScheduleError):
    pass


@dataclass(frozen=True)
class Window:
    """Results are reported on degrees 0..max_degree."""

    max_degree: int

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")


def as_window(w) -> Window:
    return w if isinstance(w, Window) else Window(int(w))


@dataclass(frozen=True)
class Rule:
    source: Monomial   # a page generator: a monomial of A, no v factor
    target: Element    # element over A[v], v-exponent equal to the page


@dataclass
class RulePage:
    r: int
    rules: List[Rule]
    # the live exterior generators by index, each with the exponent of mu
    # attached to it as a page generator (lambda-family expansions); None
    # means every exterior generator, no mu attached
    attach: Optional[Dict[int, int]] = None


# a term of a rule's target over A: (coefficient mod p, monomial, the
# exterior generators it holds, which a cofactor must not hold for the
# product to live, and the symmetric difference of the koszul_flips of the
# rule's source and of the term, where the cofactor's exponents sign it)
Term = Tuple[int, Monomial, Tuple[int, ...], Tuple[int, ...]]


class PageGenerators(NamedTuple):
    """A page's derivation, compiled once from its RulePage by
    _page_generators into what _d_of_monomial reads.

    The page generators are mu^q, with mu the polynomial generator of the
    page's power rule (q = 1 and no mu without one), and each live exterior
    generator i as lambda_i mu^cost(i).  A monomial factors over them when
    it holds no dead exterior generator and the mu-exponent its lambdas'
    costs leave is a multiple of q.  rules lists each generator that has a
    rule as (its index, its page generator, d_r of that as Terms over A,
    the page's v-power stripped), and ends gives each one's source and
    target A-degree, in the same order.  _rule_degrees reads the same fields
    for the page's clearing index, the A-degrees where such a factorization
    has a rule factor whose Leibniz term can live; the cones, the rule
    checks, the run's reach and the unknowns read ends."""

    mu: Optional[int]
    q: int
    dead: Tuple[int, ...]                # exterior generators that are not live
    costs: Tuple[Tuple[int, int], ...]   # live lambdas with a nonzero mu-cost
    rules: Tuple[Tuple[int, Monomial, Tuple[Term, ...]], ...]
    ends: Tuple[Tuple[int, int], ...]    # (source, target) A-degree of each rule


@dataclass
class DifferentialSchedule:
    v: GeneratorSpec
    pages: Dict[int, RulePage]
    label: str = ""
    conjectural: bool = False  # a conjectured pattern, not a theorem
    # smallest tower-base degree a not-emitted rule could create boundaries
    # on (None = schedule complete), and the smallest not-emitted page
    future_target_floor: Optional[int] = None
    future_min_page: Optional[int] = None


@dataclass(slots=True, init=False)
class Cell:
    """The classes of one A-degree on one bar of one page.

    reps is None for an untouched state (all monomials alive, no
    boundaries); otherwise rows of coefficients over the monomial list.
    A cell is not changed once built, so its dimension is stored when it
    is built, and the solver express builds is kept.
    """

    monomials: Tuple[Monomial, ...]
    reps: Optional[List[List[int]]]
    boundaries: List[List[int]]
    dim: int = field(compare=False)
    _solver: Optional[linalg.CosetSolver] = field(repr=False, compare=False)

    def __init__(self, monomials: Tuple[Monomial, ...], reps: Optional[List[List[int]]] = None,
                 boundaries: Optional[List[List[int]]] = None) -> None:
        self.monomials = monomials
        self.reps = reps
        self.boundaries = [] if boundaries is None else boundaries
        self.dim = len(monomials if reps is None else reps)
        self._solver = None

    def express(self, vec: Sequence[int], p: int) -> Optional[List[int]]:
        """vec over the monomials in the coordinates of the cell's classes,
        or None when it is not a class; all-zero coordinates mean vec is a
        boundary.  An untouched cell's classes are its monomials and it has
        no boundaries, so there vec is its own coordinates and no solver is
        built: only the cells _homology made need one."""
        if self.reps is None:
            return [c % p for c in vec]
        if self._solver is None:
            self._solver = linalg.CosetSolver(self.reps, self.boundaries,
                                              len(self.monomials), p)
        return self._solver.express(vec)


def view_filtrations(deg_v: int, max_degree: int, top_page: int,
                     localized: bool) -> Tuple[int, int]:
    """The filtrations a page view lists, top_page the schedule's last page
    R.  With |v| > 0, every filtration a class of degree <= D can have
    (localized: the same range below zero).  With |v| = 0, s <= R: the
    smallest bound that holds every bar's start (a fired page) and every
    d_r's target (r, from a source at 0), and E_{R+1} = E_infinity."""
    if deg_v == 0:
        return 0, top_page
    s_hi = max_degree // deg_v
    return (-s_hi if localized else 0), s_hi


def reach(deg_v: int, max_degree: int, top_page: int, localized: bool,
          max_source: int = 0) -> int:
    """The largest A-degree a run keeps: the view's A-degrees (differential
    sources at t = D + 1 included), the sources of every boundary into them
    up to page top_page, and every rule source."""
    s_lo = view_filtrations(deg_v, max_degree, top_page, localized)[0]
    top = max_degree + 1 - s_lo * deg_v
    return max(top + 1 + top_page * deg_v, max_source)


# Runs whose estimate_cost exceeds this are refused as oversized.  As
# `bockstein verify` (median of 5, a fresh interpreter from its start to
# the exit, on a 2-vCPU Xeon with Python 3.11.7, whose speed varies by up
# to about 1.6x from one minute to the next), v2 p=5 D=3000 (cost
# 132,972), v2 p=2 D=2000 (90,230) and v1 p=3 D=4000 (82,986) take 0.19 s,
# 0.22 s and 0.19 s, most of it the interpreter's start and the imports,
# v1 p=3 D=20000 (346,661) takes 0.26 s and 21.6 MB peak RSS, and v2 p=2
# D=10000 (860,275) takes 0.24 s and 23.7 MB.  The cost
# counts every A-degree up to reach on every fired page, though E_1 holds
# only the A-degrees the run reads (5,019 of 33,084 for v2 p=2 D=10000) and
# a page fires only its cone, so it bounds the ladders' work loosely from
# above (ROADMAP D10).
MAX_COST = 1_000_000


def estimate_cost(deg_v: int, max_degree: int, pages: Sequence[int], localized: bool,
                  page_cap: Optional[int] = None) -> int:
    """An upper bound on the (A-degree, page) states a run keeps: the
    A-degrees up to reach times the pages it fires.  It builds no algebra;
    the run keeps only the A-degrees it reads, often a small part."""
    fired = [r for r in pages if page_cap is None or r <= page_cap]
    return (reach(deg_v, max_degree, max(pages, default=0), localized) + 1) * max(1, len(fired))


class EngineContext:
    """Shared immutable state of one run: algebra, v, window, the
    schedule's last page (top_page), view range and A-degree reach."""

    def __init__(self, A: Algebra, v: GeneratorSpec, localized: bool, max_degree: int,
                 top_page: int = 0, max_source: int = 0) -> None:
        if any(g.name == v.name for g in A.generators):
            raise ScheduleError(f"v generator {v.name!r} already present in the algebra")
        if localized and v.degree == 0:
            raise ScheduleError("localized mode requires |v| > 0")
        self.A = A
        self.v = v
        self.deg_v = v.degree
        self.localized = localized
        self.max_degree = max_degree
        self.top_page = top_page
        self.s_lo, self.s_hi = view_filtrations(v.degree, max_degree, top_page, localized)
        self.reach = reach(v.degree, max_degree, top_page, localized, max_source)

    def _cut(self, a: int, bars: Bars, top: int, hi: int) -> Runs:
        """(s_from, s_to, item) of each bar of A-degree a, cut to the view's
        filtrations up to hi at which a lies in degrees 0..top: the window
        rule, which every reader of a page cuts its bars by."""
        lo, dv = self.s_lo, self.deg_v
        if dv == 0:
            if not 0 <= a <= top:
                return []
        else:
            if lo < -(a // dv):
                lo = -(a // dv)
            if hi > (top - a) // dv:
                hi = (top - a) // dv
        runs = []
        for k, (s0, item) in enumerate(bars):
            s0 = lo if s0 < lo else s0
            s1 = hi if k == len(bars) - 1 else min(hi, bars[k + 1][0] - 1)
            if s0 <= s1:
                runs.append((s0, s1, item))
        return runs


@dataclass(slots=True)
class DiffRecord:
    matrix: List[List[int]]  # rows: source reps, cols: target reps
    rank: int


# bars ((s_from, item), ...) by increasing s_from; an item holds up to the next bar's start
Bars = Tuple[Tuple[int, object], ...]
# runs [(s_from, s_to, item), ...]: bars cut to a window (EngineContext._cut)
Runs = List[Tuple[int, int, object]]


def _bar_at(bars: Bars, s: int):
    """The item of the bar that holds filtration s (s >= the first s_from)."""
    return bars[bisect_right(bars, s, key=itemgetter(0)) - 1][1]


class PageData:
    """The page E_r of a run.

    degrees maps each A-degree a, in increasing order, to its bars
    ((s_from, Cell), ...), the classes at (a + s|v|, s).  A run keeps the
    nonempty A-degrees it reads (see run), every page the same ones.  The
    first bar starts at the view's lowest filtration, each later one at a
    fired page r whose boundaries (which reach filtration r on) changed the cell;
    consecutive bars hold different Cells, and localized runs keep one bar.
    A page that does not touch an A-degree passes the same bars object on
    to the next.  When the page is applied, maps gives d_r out of each
    A-degree a it does not vanish on, as bars ((s_from, DiffRecord), ...),
    one over each of the A-degree's bars; every record of a hits A-degree
    a - 1 - r|v|, so a record stores only its matrix and rank.  fired_from
    is the page whose firing left this page's degrees (apply_page, run),
    and fired_maps the maps that firing recorded on it, kept here so that
    firing fired_from again cannot change them; both are None for E_1 and
    for a page made otherwise.  This page holds fired_from's very bars but
    at the A-degrees changed() gives.

    What a reader shows of them is cut to the window 0..D by one rule
    (EngineContext._cut), read in one walk over a page (windows,
    windows_maps) or one A-degree at a time (window(a), window_maps(a));
    the documents and the chart read only those.  cells and diffs are
    their (t, s) views, read-only mappings that read the bars on every
    access and give the very Cells and DiffRecords the bars hold, so a
    run builds neither; no library code reads them, and the benchmark's
    tracer counts through them (ROADMAP B1, D9).
    """

    def __init__(self, r: int, ctx: EngineContext, degrees: Dict[int, Bars]) -> None:
        self.r = r
        self.ctx = ctx
        self.degrees = degrees
        self.maps: Dict[int, Bars] = {}
        self.fired_from: Optional[PageData] = None
        self.fired_maps: Optional[Dict[int, Bars]] = None

    @property
    def cells(self) -> Mapping[Tuple[int, int], Cell]:
        """The classes at every (t, s) of the window: the bar's own Cell."""
        return _PageView(self, self.windows, self.window)

    @property
    def diffs(self) -> Mapping[Tuple[int, int], DiffRecord]:
        """d_r at every (t, s) source window_maps shows: the record maps
        holds, whose target is (t - 1, s + r)."""
        return _PageView(self, self.windows_maps, self.window_maps)

    def changed(self) -> Set[int]:
        """The A-degrees at which this page holds other bars than
        fired_from: the sources of fired_maps and their targets
        a - 1 - r|v|, which apply_page gives new bars and no other."""
        shift = 1 + self.fired_from.r * self.ctx.deg_v
        return {*self.fired_maps, *[a - shift for a in self.fired_maps]}

    def windows(self) -> Iterator[Tuple[int, Runs]]:
        """(a, window(a)) of each A-degree whose tower meets degrees 0..D,
        in increasing order: the kept A-degrees 0..D - s_lo|v|."""
        ctx = self.ctx
        cut, D, hi = ctx._cut, ctx.max_degree, ctx.s_hi
        top = D - ctx.s_lo * ctx.deg_v
        for a, bars in self.degrees.items():
            if a > top:
                return
            yield a, cut(a, bars, D, hi)

    def windows_maps(self) -> Iterator[Tuple[int, Runs]]:
        """(a, window_maps(a)) of each A-degree d_r does not vanish on, in
        increasing order."""
        ctx, maps = self.ctx, self.maps
        cut, top, hi = ctx._cut, ctx.max_degree + 1, ctx.s_hi - self.r
        for a in sorted(maps):
            yield a, cut(a, maps[a], top, hi)

    def window(self, a: int) -> Runs:
        """(s_from, s_to, Cell) of each bar of A-degree a, cut to the view's
        filtrations at which it lies in degrees 0..D."""
        ctx = self.ctx
        return ctx._cut(a, self.degrees.get(a, ()), ctx.max_degree, ctx.s_hi)

    def window_maps(self, a: int) -> Runs:
        """(s_from, s_to, DiffRecord) of each bar of d_r out of A-degree a
        that does not vanish, cut to the sources in degrees 0..D + 1 whose
        targets lie in the view's filtrations."""
        ctx = self.ctx
        return ctx._cut(a, self.maps.get(a, ()), ctx.max_degree + 1, ctx.s_hi - self.r)


class _PageView(Mapping):
    """A (t, s) view of a page, read off its bars on every access.

    The keys run over the A-degrees and runs that walk() gives, in order;
    a lookup reads the runs(a) of its A-degree and the one that holds it,
    and items and values walk the bars as the keys do.  A value is the
    bar's own item.  The view keeps nothing, so a read allocates only what
    it returns."""

    __slots__ = ("_pd", "_walk", "_runs")

    def __init__(self, pd: PageData, walk: Callable[[], Iterator[Tuple[int, Runs]]],
                 runs: Callable[[int], Runs]) -> None:
        self._pd = pd
        self._walk = walk
        self._runs = runs

    def _entries(self) -> Iterator[Tuple[int, int, object]]:
        """(t, s, item) of every key (t, s), in order."""
        dv = self._pd.ctx.deg_v
        for a, runs in self._walk():
            for s0, s1, item in runs:
                for s in range(s0, s1 + 1):
                    yield a + s * dv, s, item

    def __getitem__(self, key: Tuple[int, int]):
        if type(key) is not tuple or len(key) != 2:
            raise KeyError(key)
        t, s = key
        if type(t) is not int or type(s) is not int:
            raise KeyError(key)
        for s0, s1, item in self._runs(t - s * self._pd.ctx.deg_v):
            if s0 <= s <= s1:
                return item
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for t, s, _ in self._entries():
            yield t, s

    def __len__(self) -> int:
        return sum(s1 - s0 + 1 for _, runs in self._walk() for s0, s1, _ in runs)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        for t, s, item in self._mapping._entries():
            yield (t, s), item


class _Values(ValuesView):
    def __iter__(self):
        return map(itemgetter(2), self._mapping._entries())


def build_e1(A: Algebra, v: GeneratorSpec, w, localized: bool, top_page: int,
             max_source: int, needed: int) -> PageData:
    """E_1 = A[v] (A[v^{+-1}] when localized), seen through the window, on
    the nonempty A-degrees of needed, a bitset.

    top_page is the schedule's last page R: with |v| > 0 it fixes how far
    above the window boundaries come from, and with |v| = 0 the view ends
    at filtration R (view_filtrations).  max_source is the largest A-degree
    of a rule source, so that every rule can be checked against its state.
    run passes the A-degrees it reads (_cones), and the basis walk
    enumerates only them (basis_up_to), or every one when they are all of
    0..reach.
    """
    w = as_window(w)
    ctx = EngineContext(A, v, localized, w.max_degree, top_page, max_source)
    only = None if needed == (1 << ctx.reach + 1) - 1 else _set_bits(needed)
    basis = basis_up_to(A, ctx.reach, only)
    # sorted by the degrees alone, which are distinct ints
    degrees = {a: ((ctx.s_lo, Cell(tuple(basis[a]))),) for a in sorted(basis)}
    return PageData(1, ctx, degrees)


def _page_generators(A: Algebra, deg_v: int, page: RulePage) -> PageGenerators:
    """Check a page's rules and compile them by generator: the one place
    that reads a Rule.  The power rule is the one whose source is a pure
    power of a polynomial generator; every other source must be a live
    exterior generator times its attached mu-power.  A target must be one
    nonzero homogeneous element over A[v] at v-exponent r, one degree below
    its source; a target monomial is an A-monomial with v's exponent last,
    so its degree is that A-monomial's plus r|v|.  What needs the page's
    state, that the source and target survive to it, _validate_rules
    checks."""
    exterior = A.exterior
    r = page.r
    attach = {i: 0 for i in exterior} if page.attach is None else page.attach
    mu, q = None, 1
    for rule in page.rules:
        A.validate_monomial(rule.source)
        support = [i for i, e in enumerate(rule.source) if e]
        if mu is None and len(support) == 1 and A.generators[support[0]].kind == POLYNOMIAL:
            mu, q = support[0], rule.source[support[0]]
    if mu is None and any(attach.values()):
        raise MalformedRuleError("malformed rule (mu attached on a page with no power rule)")
    index: Dict[Monomial, int] = {}
    for i, c in attach.items():
        gen = [0] * A.ngens
        gen[i] = 1
        if c:  # mu is not None, or the check above refused the page
            gen[mu] = c
        index[tuple(gen)] = i
    if mu is not None:
        gen = [0] * A.ngens
        gen[mu] = q
        index[tuple(gen)] = mu
    rules: Dict[int, Tuple[int, Monomial, Tuple[Term, ...]]] = {}
    ends: List[Tuple[int, int]] = []
    for rule in page.rules:
        gi = index.get(rule.source)
        if gi is None:
            raise MalformedRuleError("malformed rule (source is not a page generator)")
        if gi in rules:
            raise MalformedRuleError("malformed rule (duplicate source)")
        for mon in rule.target:
            A.validate_monomial(mon[:-1])
        flips = set(koszul_flips(A, rule.source))
        terms = tuple((c % A.p, mon[:-1], tuple(j for j in exterior if mon[j]),
                       tuple(sorted(flips.symmetric_difference(koszul_flips(A, mon[:-1])))))
                      for mon, c in rule.target.items() if c % A.p)
        if not terms:
            raise MalformedRuleError("malformed rule (zero target)")
        vexps = {m[-1] for m in rule.target}
        if vexps != {r}:
            raise MalformedRuleError(
                f"malformed rule (target v-exponent {sorted(vexps)} != page {r})")
        tas = {A.degree(m[:-1]) for m in rule.target}
        if len(tas) > 1:
            raise MalformedRuleError("malformed rule (target is not homogeneous)")
        (ta,) = tas
        sdeg, tdeg = A.degree(rule.source), ta + r * deg_v
        if tdeg != sdeg - 1:
            raise MalformedRuleError(
                f"malformed rule (target degree {tdeg} != source degree {sdeg} - 1)")
        rules[gi] = (gi, rule.source, terms)
        ends.append((sdeg, ta))
    dead = tuple(i for i in exterior if i not in attach)
    costs = tuple((i, c) for i, c in attach.items() if c)
    return PageGenerators(mu, q, dead, costs, tuple(rules.values()), tuple(ends))


def _validate_rules(pd: PageData, gens: PageGenerators) -> None:
    """Refuse a rule whose source is not a live class at filtration 0 or
    whose target is not a nonzero class at filtration r on this page.
    _page_generators has checked the rules' form and made each end a
    monomial of A in its A-degree, and E_1 keeps each end's A-degree with
    its whole basis (_cones, build_e1), so both ends index their cells."""
    p = pd.ctx.A.p
    for (_, source, terms), (sa, ta) in zip(gens.rules, gens.ends):
        src_cell = _bar_at(pd.degrees[sa], 0)
        vec = [0] * len(src_cell.monomials)
        vec[src_cell.monomials.index(source)] = 1
        coeffs = src_cell.express(vec, p)
        if coeffs is None or not any(coeffs):
            raise DeadSourceError("dead source")
        tcell = _bar_at(pd.degrees[ta], pd.r)
        tvec = [0] * len(tcell.monomials)
        for c, amon, _, _ in terms:
            tvec[tcell.monomials.index(amon)] = c
        coeffs = tcell.express(tvec, p)
        if coeffs is None or not any(coeffs):
            raise MalformedRuleError("malformed rule (target does not survive to this page)")


def _d_of_monomial(ctx: EngineContext, gens: PageGenerators, m: Monomial) -> Element:
    """Page derivation on one A-monomial; the v-shift by the page is implied.

    A monomial that does not factor over the page generators (an exterior
    generator that is not live, or a mu-exponent that the attachments and
    mu^q do not use up) is a torsion remnant of earlier pages and supports
    nothing.  Otherwise each factor g with a rule, N times in m (N = 1 for
    an exterior one), gives the Leibniz term N * d_r(g) * (m / g), signed
    by g * (m / g) = +-m.  Each term of d_r(g) * (m / g) is one product of
    A-monomials: its exponent sum, its coefficient taken mod p, signed by
    the parity of the cofactor's exponents at the term's flips (Term).
    """
    mu, q, dead, costs, rules, _ = gens
    for i in dead:
        if m[i]:
            return {}
    left = 0 if mu is None else m[mu]
    for i, c in costs:
        if m[i]:
            left -= c
    if left < 0 or left % q:
        return {}
    p = ctx.A.p
    out: Element = {}
    for i, source, terms in rules:
        if not m[i]:
            continue
        mult = (left // q if i == mu else 1) % p
        if mult == 0:
            continue
        # m factors over the page generators, so the cofactor m / g is >= 0,
        # and it holds each exterior generator at most once, as m does; a
        # term is a monomial of A (_page_generators) whose exterior
        # generators are held.  So the held test is the exterior-square
        # test, and mul_monomials' length, exterior and negative checks
        # cannot fire here.
        cof = tuple(map(sub, m, source))
        exps = cof.__getitem__
        for c, t, held, flips in terms:
            if any(map(exps, held)):
                continue
            mon = tuple(map(add, t, cof))
            # c and mult are units mod p: a sum of 0 cancels a held term
            v = (out.get(mon, 0) + (-c if sum(map(exps, flips)) & 1 else c) * mult) % p
            if v:
                out[mon] = v
            else:
                del out[mon]
    return out


def _byte_bits() -> Tuple[Tuple[int, ...], ...]:
    """The positions of the set bits of each byte value, in increasing
    order.  Bit j doubles the table, so an import builds 255 small tuples."""
    table: List[Tuple[int, ...]] = [()]
    for j in range(8):
        table += [bits + (j,) for bits in table]
    return tuple(table)


_BYTE_BITS = _byte_bits()


def _set_bits(x: int) -> List[int]:
    """The positions of the set bits of x >= 0, in increasing order: x is
    cut into bytes once, and each nonzero byte reads its bits off
    _BYTE_BITS."""
    return [8 * k + j for k, byte in enumerate(x.to_bytes((x.bit_length() + 7) // 8, "little"))
            if byte for j in _BYTE_BITS[byte]]


def _rule_degrees(A: Algebra, gens: PageGenerators, top: int) -> int:
    """The clearing index of a page, as a bitset: the A-degrees 0..top that
    hold a monomial which factors over the page generators with a rule
    factor whose Leibniz term can live.  d_r is 0 on every other A-degree,
    so no cone holds them (_cones), as persistence skips the columns whose
    result is known in advance (Chen-Kerber, Persistent homology
    computation with a twist, 2011).

    For each generator g with a rule and each term t of d_r(g) they are
    the degrees of g times a product of the other page generators: each
    live lambda (with its attached mu-power) at most once, and mu^q and
    every generator that is neither exterior nor mu any number of times,
    but no exterior generator that t holds, since t times it is 0.  For
    g = mu^q the monomial holds mu^(qk), and the term's multiplicity k
    must not be a multiple of p."""
    mask = (1 << (top + 1)) - 1

    def powers(bits: int, d: int) -> int:
        # doubling the step adds every multiple of d up to top
        while 0 < d <= top:
            bits |= (bits << d) & mask
            d <<= 1
        return bits

    cost = dict(gens.costs)
    dmu = 0 if gens.mu is None else A.generators[gens.mu].degree
    out = 0
    for (gi, _, terms), (d, _) in zip(gens.rules, gens.ends):
        for _, _, held, _ in terms:
            bits = 1
            for i, g in enumerate(A.generators):
                if i == gi or i in held:
                    continue
                if g.kind != EXTERIOR:
                    bits = powers(bits, gens.q * dmu if i == gens.mu else g.degree)
                elif i not in gens.dead:
                    bits |= (bits << (g.degree + cost.get(i, 0) * dmu)) & mask
            if gi != gens.mu:
                out |= (bits << d) & mask
                continue
            # k = j + pl with 0 < j < p
            bits = powers(bits, A.p * d)
            j = 1
            while j < A.p and j * d <= top:
                out |= (bits << j * d) & mask
                j += 1
    return out


def _combination(combo: Sequence[int], reps: Sequence[Sequence[int]], width: int,
                 p: int) -> List[int]:
    """The vector over width coordinates of a combination of the rows
    reps, such as a touched cell's classes over its monomials."""
    vec = [0] * width
    for c, rep in zip(combo, reps):
        if c:
            for j, x in enumerate(rep):
                if x:
                    vec[j] = (vec[j] + c * x) % p
    return vec


# one bar's d_r record eliminated (_record): its matrix, the matrix's left
# kernel and its reduced echelon form by pivot
_Eliminated = Tuple[List[List[int]], List[List[int]], Dict[int, List[int]]]


def _record(cell: Cell, rows: List[List[int]], tcell: Cell, p: int, r: int,
            a: int) -> Optional[_Eliminated]:
    """d_r on the classes of one bar of A-degree a in the coordinates of
    the target's classes, eliminated once (linalg.kernel_and_echelon):
    (matrix, left kernel, reduced echelon form), or None when it vanishes.
    rows are the bar's monomials' images over the target's monomials.  An
    untouched cell's classes are its monomials, so their values are the
    rows, and an untouched target's coordinates of a value, reduced mod p,
    are the value itself (Cell.express)."""
    if cell.reps is None:
        values = rows
    else:
        width = len(tcell.monomials)
        values = [_combination(rep, rows, width, p) for rep in cell.reps]
    if tcell.reps is None:
        mat = values
    else:
        mat = []
        for vec in values:
            coeffs = tcell.express(vec, p) if any(vec) else [0] * tcell.dim
            if coeffs is None:
                raise EngineAssertionError(
                    f"d_{r} value in A-degree {a} is not a class of the current page")
            mat.append(coeffs)
    if not any(map(any, mat)):
        return None
    kernel, echelon = linalg.kernel_and_echelon(mat, tcell.dim, p)
    return mat, kernel, echelon


def _homology(cell: Cell, kernel: Optional[List[List[int]]], image: Optional[List[List[int]]],
              echelon: Dict[int, List[int]], p: int, r: int, a: int) -> Cell:
    """The next page's cell: the classes in kernel (the left kernel of the
    outgoing d_r, or every class when it is None) modulo the rows of image
    (the incoming d_r's matrix, or none when it is None), whose reduced
    echelon form is echelon, all in the coordinates of the cell's classes.
    An untouched cell's classes are its monomials, so there a combination
    of classes is its own vector, and the combinations are the reps and
    boundaries as they are.

    Each kernel row is reduced against the image's reduced echelon form,
    then against the new reps found so far.  Without an outgoing d_r the
    kernel is every class, and identity row i reduced against a reduced
    echelon form is e_i less the echelon row of pivot i, or e_i when i is
    no pivot, so those rows are read off the echelon form and no identity
    row is built or reduced (nor the zero row of a pivot whose echelon row
    is its unit vector).  The rows that stay nonzero are the new reps, and
    there must be as many as the kernel's rows less the image's rank."""
    if image is None:
        if kernel is None:
            return cell
        ker = kernel
        im_rank = 0
    else:
        im_rank = len(echelon)
        if kernel is not None:
            ker = [linalg.reduce_row(kv, echelon, p) for kv in kernel]
        else:
            n = cell.dim
            ker = []
            for i in range(n):
                row = echelon.get(i)
                if row is None:
                    row = [0] * n
                    row[i] = 1
                elif any(row[i + 1:]):
                    row = [-c % p for c in row]
                    row[i] = 0  # the echelon row is 1 at its pivot, 0 before
                else:
                    continue  # e_i less the echelon row e_i is 0: no class
                ker.append(row)
    combos: List[List[int]] = []
    combo_ech: Dict[int, List[int]] = {}
    for red in ker:
        if combo_ech:
            red = linalg.reduce_row(red, combo_ech, p)
        if any(red):
            linalg.echelon_insert(combo_ech, red, p)
            combos.append(red)
    if len(combos) != (cell.dim if kernel is None else len(kernel)) - im_rank:
        raise EngineAssertionError(
            f"homology dimension bookkeeping failed at A-degree {a} on page {r}")
    reps = cell.reps
    if reps is not None:
        width = len(cell.monomials)
        if combos:
            combos = [_combination(combo, reps, width, p) for combo in combos]
        if image is not None:
            image = [_combination(row, reps, width, p) for row in image]
    # cells are not changed once built, so one that gains no boundary
    # shares its list with the cell before it
    boundaries = cell.boundaries
    if image is not None and any(map(any, image)):
        boundaries = boundaries + list(filter(any, image))
    return Cell(cell.monomials, combos, boundaries)


def _cones(ctx: EngineContext,
           pages: Sequence[Tuple[int, PageGenerators]]) -> Dict[Optional[int], int]:
    """The cone of each page a run fires, as a bitset: the A-degrees of its
    clearing index whose d_r records what the run reads depends on.  pages
    are the fired pages (r, their compiled generators) in the order they
    fire.  Under the key None it gives what the walk ends with: the
    A-degrees of E_1 that the run reads, which run has build_e1 build.

    A record reads the bars of its source and the top bar of its target,
    and changes only those two A-degrees.  So the pages are walked from the
    last to the first, keeping a bitset of the A-degrees whose state after
    the page is read.  It starts as the kept A-degrees of the window, the
    sources at D + 1 that window_maps shows included (what extract_towers,
    the documents and the chart read).  Each page adds the ends of its
    rules, their source and target A-degrees (what _validate_rules reads),
    and its cone is the A-degrees of its clearing index whose record leaves
    or enters a needed A-degree, closed downward so that the record out of
    each fired record's target fires too and the d_r o d_r check reads it.
    The page before then needs the sources and targets of the cone."""
    dv = ctx.deg_v
    need = (1 << (ctx.max_degree - ctx.s_lo * dv + 2)) - 1
    cones: Dict[Optional[int], int] = {}
    for r, gens in reversed(pages):
        shift = 1 + r * dv
        for sa, ta in gens.ends:
            need |= 1 << sa | 1 << ta
        index = _rule_degrees(ctx.A, gens, ctx.reach)
        cone = index & (need | need << shift)
        while True:
            grown = cone | (index & cone >> shift)
            if grown == cone:
                break
            cone = grown
        need |= cone | cone >> shift
        cones[r] = cone
    cones[None] = need
    return cones


def apply_page(pd: PageData, gens: PageGenerators, cone: int) -> PageData:
    """Fire page pd.r and return the next page.

    gens is the page checked and compiled (_page_generators) and cone the
    A-degrees it fires, a bitset of kept A-degrees of pd (_cones); run
    finds both before it builds E_1.  The fired differentials are recorded
    on the input PageData.  Firing checks only what needs the page's state
    (_validate_rules): each rule's source is a live class at filtration 0
    and its target a nonzero class at filtration r.

    A page costs what it fires.  It visits the A-degrees of its cone,
    walking its set bits in increasing order.  Every other A-degree keeps
    the state it had before the page: d_r vanishes there, or nothing the
    run reads looks at it.  A page with no rules has an empty cone.  The
    images of a source's monomials are written once, as rows over the
    target's monomials, for all its bars.  Each record of d_r is eliminated
    once (_record, through linalg.kernel_and_echelon): the one forward
    elimination gives the rank and the source bar's cycles, and its pivot
    rows, back-substituted, the reduced echelon form that is both the span
    the well-definedness check compares and the image the target's
    homology divides by.  A record is kept as plain (matrix, kernel,
    echelon) tuples until its DiffRecord is made.  A cell that no page has
    touched builds no identity rows: _record reads its classes' values off
    the rows, _homology takes a combination of its classes as its own
    vector, and as a target it expresses a vector as itself
    (Cell.express), so only the cells _homology made build a solver.

    One upward walk fires the records and forms the next page's state.
    _homology runs on each bar of a source as its record fires, and then
    on the target's new top bar: the target lies below the source, so its
    own record, if any, has fired, and it is divided by the record's
    image at once.  Without an outgoing record the target's new reps are
    read off the image's reduced echelon form, and a pivot whose echelon
    row is its own unit vector adds no row.  A target's old bars pass on
    as they are; with v inverted its one bar is replaced.  The page
    returned records pd as fired_from and the maps as fired_maps: it holds
    new bars exactly at the sources of those maps and their targets
    (PageData.changed), and pd's very bars elsewhere.
    """
    ctx = pd.ctx
    p = ctx.A.p
    r = pd.r
    if ctx.deg_v and r > ctx.top_page:
        raise EngineError(f"page {r} draws boundaries from above the A-degrees kept "
                          f"for pages up to {ctx.top_page}")
    _validate_rules(pd, gens)
    shift = 1 + r * ctx.deg_v

    # d_r per A-degree and bar, into the target's top bar: a target sits at
    # filtration >= r, where every fired page's boundaries have arrived.
    # The walk goes up and a record's target lies below its source, so the
    # target's own record, if any, has fired (tops holds each A-degree's
    # top-bar record eliminated): the record is checked against it and
    # forms the target's new state at once.  Every bar of a source loses
    # the cycles that support d_r; the boundaries of page r reach
    # filtration r on, where they start a new top bar over the target's
    # bars (with v inverted they reach every filtration, and the one bar
    # is replaced), so an A-degree that d_r only enters keeps its old bars.
    maps: Dict[int, Bars] = {}
    tops: Dict[int, _Eliminated] = {}
    degrees = dict(pd.degrees)
    for a in _set_bits(cone):
        bars = pd.degrees[a]
        images = [_d_of_monomial(ctx, gens, m) for m in bars[0][1].monomials]
        if not any(images):
            continue
        ta = a - shift
        tbars = pd.degrees.get(ta)
        if tbars is None:
            raise EngineAssertionError("differential leaves its bidegree")
        tcell = tbars[-1][1]
        # the images as rows over the target's monomials, once for all
        # bars; a nonzero coefficient outside the target is one a row misses
        tmons = tcell.monomials
        rows = []
        for image in images:
            row = list(map(image.get, tmons, repeat(0)))
            if len(tmons) - row.count(0) != len(image):
                raise EngineAssertionError("differential leaves its bidegree")
            rows.append(row)
        elim = []
        for _, cell in bars:
            elim.append(_record(cell, rows, tcell, p, r, a))
        top = elim[-1]
        if top is None and not any(elim):
            continue
        # d_r o d_r must vanish; the target's d_r is read at its top bar
        second = tops.get(ta)
        if second is not None:
            for e in elim:
                if e is not None and any(map(any, linalg.mat_mul(e[0], second[0], p))):
                    raise EngineAssertionError(f"d_{r} o d_{r} != 0 out of A-degree {a}")
        # the sources of a tower's boundaries sit in every bar; d_r must hit
        # the same classes from each, or it is not defined on E_r: each
        # record's row space, its reduced echelon form (which is unique),
        # must be the top one's.  So past this check every bar has a record.
        if len(elim) > 1 and (top is None or any(e is None or e[2] != top[2] for e in elim)):
            raise EngineAssertionError(
                f"d_{r} out of A-degree {a} depends on the representatives")
        recs, kept = [], []
        for (s, cell), (mat, kernel, _) in zip(bars, elim):
            recs.append((s, DiffRecord(mat, len(mat) - len(kernel))))
            kept.append((s, _homology(cell, kernel, None, {}, p, r, a)))
        maps[a] = tuple(recs)
        degrees[a] = tuple(kept)
        tops[a] = top
        new = _homology(tcell, None if second is None else second[1], top[0], top[2], p, r, ta)
        if ctx.localized:
            degrees[ta] = ((tbars[0][0], new),)
        else:
            degrees[ta] += ((r, new),)

    pd.maps = maps
    nxt = PageData(r + 1, ctx, degrees)
    nxt.fired_from, nxt.fired_maps = pd, maps
    return nxt


# ----------------------------------------------------------------------
# schedules: stated from p, n and the formulas, with no algebra built.  A
# source has the n + 2 exponents of lambda_1 .. lambda_{n+1}, mu_{n+1} (the
# generators of thh_mod_p_algebra(p, n)), a target one more for v.


def schedule_v0(p: int, n: int, w) -> DifferentialSchedule:
    """d_s(mu^{p^{s-1}}) = v_0^s mu^{p^{s-1}-1} lambda_{n+1}, the ladder (n, 0).
    Leibniz extends it to the paper's d_{nu_p(k)+1}(mu^k) =
    v_0^{nu_p(k)+1} mu^{k-1} lambda_{n+1}, with the unit k / p^{nu_p(k)} mod p."""
    return _ladder_schedule(p, n, 0, w, f"v0 p={p} n={n}")


def _ladder_schedule(p: int, n: int, m: int, w, label: str) -> DifferentialSchedule:
    """The mu-power ladder (n, m): step s fires
    d_r(mu_{n+1}^{p^{s-1}}) = v_m^r lambda_{n-m+s}, with
    lambda_1 .. lambda_{n-m} and lambda_{n-m+s} .. lambda_{n+s} attached.
    The paper's v_1 and v_2 ladders are (2, 1) and (2, 2), v_0 is (n, 0).
    At m >= 1 the degrees fix step s's page r = r_n(s, m).  At m = 0,
    |v_0| = 0 and they fix none; r_conj's sum is no page there, and v_0's
    is the paper's nu_p(p^{s-1}) + 1 = s.

    Emits steps while the target tower base degree stays inside the
    reported window; every death of an in-window tower is then computable,
    and anything a not-emitted rule could hit lies above the window.  p is
    checked first: below 2 every target degree would lie in the window and
    the ladder not end.
    """
    w = as_window(w)
    require_prime(p)
    v = GeneratorSpec(f"v{m}", 2 * p**m - 2, POLYNOMIAL)
    family = LambdaFamily(p, n, m)

    def page(s: int) -> int:
        return r_conj(p, n, m, s) if m else s

    mu = n + 1       # index of mu_{n+1}
    vi = n + 2
    pages: Dict[int, RulePage] = {}
    s = 1
    while family.degree(n - m + s) <= w.max_degree:
        r = page(s)
        base, e = family.entry(n - m + s)
        target = {sparse_monomial(n + 3, {vi: r, base - 1: 1, mu: e}): 1}
        source = sparse_monomial(n + 2, {mu: p ** (s - 1)})
        attach = {i: 0 for i in range(n - m)}
        for idx in range(n - m + s, n + s + 1):
            b, ee = family.entry(idx)
            attach[b - 1] = ee
        pages[r] = RulePage(r, [Rule(source, target)], attach)
        s += 1
    return DifferentialSchedule(
        v, pages, label=label,
        future_target_floor=family.degree(n - m + s),
        future_min_page=page(s),
    )


def schedule_v1(p: int, w, variant: Optional[str] = None) -> DifferentialSchedule:
    """d_{r(s,1)}(mu_3^{p^{s-1}}) = v_1^{r(s,1)} lambda_{s+1} for p >= 3: the
    ladder (2, 1).

    At p = 2 the pattern is open (paper Remark): besides the odd-p ladder,
    the candidates d_{r(n,1)+2}(lambda_{n+3}) = v^{r(n,1)+2} lambda_1
    lambda_{n+2} (n even, and the degenerate first case d_2(lambda_3) =
    v^2 lambda_1 lambda_2) cannot be ruled out.  Pass variant "A" for the
    odd-p ladder as-is, or "B" for the branch where d_2(lambda_3) fires.
    The Remark's candidates are branch alternatives, not a simultaneous
    schedule: once one fires, the later ladder targets are dead, so
    variant "B" keeps only the still-valid ladder prefix and reports
    everything past the known part as unknown.  Neither p=2 variant is
    certified against an oracle, and other primes take no variant.
    """
    w = as_window(w)
    if p != 2 and variant is not None:
        raise ScheduleError(f"variant {variant!r} given at p = {p}; variants choose "
                            f"between the open p = 2 patterns")
    if p == 2 and variant not in ("A", "B"):
        raise AmbiguousPatternError("ambiguous pattern (paper Remark)")
    if p == 2 and variant == "B":
        return _schedule_v1_p2_variant_b(w)
    return _ladder_schedule(p, 2, 1, w, f"v1 p={p}" + (f" variant {variant}" if variant else ""))


def _schedule_v1_p2_variant_b(w: Window) -> DifferentialSchedule:
    p = 2
    family = LambdaFamily(p, 2, 1)
    v = GeneratorSpec("v1", 2 * p - 2, POLYNOMIAL)
    mu, vi = 3, 4
    pages: Dict[int, RulePage] = {}
    # the candidate differential the paper could not rule out
    lam3 = sparse_monomial(4, {2: 1})
    pages[2] = RulePage(2, [Rule(lam3, {sparse_monomial(5, {vi: 2, 0: 1, 1: 1}): 1})])
    # the first ladder differential is unaffected by it
    if family.degree(2) <= w.max_degree:
        r = r_len(p, 1, 1)
        src = sparse_monomial(4, {mu: 1})
        pages[r] = RulePage(r, [Rule(src, {sparse_monomial(5, {vi: r, 1: 1}): 1})],
                            attach={0: 0, 1: 0})
    # past this point the branch is uncharted; everything above lambda_3's
    # degree stays unknown
    return DifferentialSchedule(
        v, pages, label="v1 p=2 variant B",
        future_target_floor=family.degree(3),
        future_min_page=r_len(p, 2, 1),
    )


def schedule_v2(p: int, w) -> DifferentialSchedule:
    """d_{r(s,2)}(mu_3^{p^{s-1}}) = v_2^{r(s,2)} lambda_s, all primes: the
    ladder (2, 2)."""
    return _ladder_schedule(p, 2, 2, w, f"v2 p={p}")


def schedule_conj(p: int, n: int, m: int, w) -> DifferentialSchedule:
    """Conjectural ladder d_{r_n(s,m)}(mu_{n+1}^{p^{s-1}}) = v_m^r lambda_{n-m+s},
    marked conjectural."""
    w = as_window(w)
    if not 1 <= m <= n:
        raise ScheduleError("need 1 <= m <= n")
    if m == 1 and p == 2:
        raise AmbiguousPatternError("ambiguous pattern (paper Remark)")
    return replace(_ladder_schedule(p, n, m, w, f"conj p={p} n={n} m={m}"),
                   conjectural=True)


# ----------------------------------------------------------------------
# running and tower extraction


def run(A: Algebra, sched: DifferentialSchedule, w, localized: bool = False,
        page_cap: Optional[int] = None) -> Tuple[List[PageData], TowerProfile]:
    """Run the schedule and extract the E_infinity tower profile.

    Returns the recorded pages (E_1, each fired page carrying its
    differentials, and the final page) and the tower profile over degrees
    0..max_degree.  A page cap leaves the pages above it unfired.

    Every page, fired or capped, is checked against its key and compiled
    once (_page_generators) before anything else, so a malformed rule on
    any page is refused before any work.  Its compiled generators serve the
    reach (the ends' largest source), _cones, apply_page and, for the
    unfired pages, extract_towers.  The cones come next, and E_1 is built
    last, on the A-degrees their walk ends with: the window, the rules'
    sources and targets and the cones' sources and targets.  Then the run
    is a fold: each fired page r fires its cone on E_r, the state the
    fired pages below it left.
    """
    w = as_window(w)
    if page_cap is not None and page_cap < 1:
        raise ScheduleError(f"page cap {page_cap} is below 1, so no page could fire")
    order = sorted(sched.pages)
    gens: Dict[int, PageGenerators] = {}
    for r in order:
        page = sched.pages[r]
        if page.r != r:
            raise MalformedRuleError(f"malformed rule (page {page.r} scheduled at page {r})")
        gens[r] = _page_generators(A, sched.v.degree, page)
    max_source = max((sa for g in gens.values() for sa, _ in g.ends), default=0)
    ctx = EngineContext(A, sched.v, localized, w.max_degree, max(order, default=0), max_source)
    fired = [r for r in order if page_cap is None or r <= page_cap]
    cones = _cones(ctx, [(r, gens[r]) for r in fired])
    pd = build_e1(A, sched.v, w, localized, ctx.top_page, max_source, cones[None])
    if not sched.pages:
        warnings.warn("window too small to contain any rule source; E_1 = E_infinity",
                      stacklevel=2)
    pages_out: List[PageData] = [pd]
    for r in fired:
        if r > 1:  # E_r holds the state the fired pages below r left
            e_r = PageData(r, pd.ctx, pd.degrees)
            e_r.fired_from, e_r.fired_maps = pd.fired_from, pd.fired_maps
            pages_out.append(e_r)
            pd = e_r
        pd = apply_page(pd, gens[r], cones[r])
    if fired:
        pages_out.append(pd)
    profile = extract_towers(pd, sched, {r: gens[r] for r in order[len(fired):]})
    return pages_out, profile


def extract_towers(final: PageData, sched: DifferentialSchedule,
                   unfired: Mapping[int, PageGenerators]) -> TowerProfile:
    """The towers over the run's window, read from the final page's
    per-degree state; unfired maps each of the schedule's pages the run did
    not fire to its compiled generators."""
    ctx = final.ctx
    prof = TowerProfile(ctx.max_degree)

    future_floor = sched.future_target_floor
    future_min_page = sched.future_min_page
    unfired_gens = list(unfired.values())

    def leaving(cell: Cell) -> int:
        return _unfired_sources(ctx, unfired_gens, cell)

    for r, gens in unfired.items():
        # a target's tower base is its A-degree
        for _, base in gens.ends:
            future_floor = base if future_floor is None else min(future_floor, base)
        future_min_page = r if future_min_page is None else min(future_min_page, r)

    for b, bars in final.degrees.items():
        if b > ctx.max_degree:
            break
        hit = future_floor is not None and b >= future_floor
        if ctx.localized:
            # with v inverted a later differential removes its target's
            # Laurent tower as well as its source's, so a future hit may
            # leave nothing
            length = Unknown(possibly_absent=True) if hit else INF
            for _ in range(bars[0][1].dim):
                prof.add(b, length)
            continue
        _read_column(prof, b, bars, future_min_page if hit else None, leaving)
    return prof


def _unfired_sources(ctx: EngineContext, unfired: Sequence[PageGenerators], cell: Cell) -> int:
    """How many classes of the cell have a nonzero image under the rules of
    the unfired pages (Leibniz extension included): the rank of their
    stacked images, each monomial's keyed by (unfired page, monomial).
    Such a class may support a differential the run did not fire, and then
    its whole v-tower leaves."""
    if not unfired or cell.dim == 0:
        return 0
    images = [{(i, mon): c for i, gens in enumerate(unfired)
               for mon, c in _d_of_monomial(ctx, gens, m).items()} for m in cell.monomials]
    index: Dict[Tuple[int, Monomial], int] = {}
    for img in images:
        for key in img:
            index.setdefault(key, len(index))
    if not index:
        return 0
    rows = []
    for img in images:
        row = [0] * len(index)
        for key, c in img.items():
            row[index[key]] = c
        rows.append(row)
    # a class's value is its rep's combination of its monomials' (_record)
    if cell.reps is not None:
        rows = [_combination(rep, rows, len(index), ctx.A.p) for rep in cell.reps]
    return linalg.rank(rows, ctx.A.p)


def _read_column(prof: TowerProfile, b: int, bars: Bars, future_min_page: Optional[int],
                 leaving: Callable[[Cell], int]) -> None:
    """Add the towers of the v-tower at base b from its bars: the classes a
    bar starting at a fired page r has fewer than the bar below it became
    boundaries on page r, so they are towers of length r.  With a future
    page at future_min_page, only the bars that start below it are read,
    and the classes of the last of them are unknown; leaving(cell) counts
    those that may support an unfired differential.  One pass over the
    bars checks that the dimensions never increase and adds the finite
    towers, with no list of the dimensions built."""
    # observations past the smallest unfired page are not trustworthy
    top = (len(bars) if future_min_page is None
           else bisect_left(bars, future_min_page, key=itemgetter(0))) - 1
    below = bars[0][1].dim
    for k in range(1, len(bars)):
        s, cell = bars[k]
        dim = cell.dim
        if dim > below:
            raise EngineAssertionError(
                f"dimensions increase along the v-tower at base degree {b}")
        if k <= top:
            for _ in range(below - dim):
                prof.add(b, s)
        below = dim
    if future_min_page is None:  # the top bar is the last one
        for _ in range(below):
            prof.add(b, INF)
        return
    # a class that may support an unfired differential may hold no tower at
    # all, so it gets no lower bound; the rest can only be hit later
    last = bars[top][1]
    left = last.dim
    absent = leaving(last) if left else 0
    for _ in range(absent):
        prof.add(b, Unknown(possibly_absent=True))
    for _ in range(left - absent):
        prof.add(b, Unknown(future_min_page))
