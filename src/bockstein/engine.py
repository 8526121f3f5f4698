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
Leibniz terms of its factors that carry a rule.

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
PageData owns the window 0..D: its readers shown, window and window_maps
cut the bars to it, and dim, the documents and the chart read only them.

Every page asserts d_r o d_r = 0, that d_r takes the same values from
every bar (so it is defined on E_r), and the homology bookkeeping of each
state.

A page costs the differentials it fires.  It visits only the A-degrees
of its clearing index, where a monomial factors over the page generators
with a rule factor whose Leibniz term can live, since d_r vanishes on
every other one.  It eliminates each record of d_r once: one forward
elimination gives its rank, its kernel (the source's cycles) and pivot
rows that back-substitute to its reduced echelon form (the span the
well-definedness check compares, and the image the target divides by).
And a cell no page has touched is the identity on its monomials: its
classes' values are their images, a combination of them is its own
vector, and it expresses a vector as itself, so it builds no rows and
only the cells the homology built keep a solver.

Reading the towers at base degree b: the classes that become boundaries on
page r are towers of length r, the cycles that never do are free towers,
and in localized mode Z_inf(b)/B(b) at filtration 0 is the Laurent span.
The boundaries into the window come from at most 1 + R|v| A-degrees above
it (R the last page), so the state covers exactly those degrees and every
tower is decided by what the run fired.  The only unknowns come from the
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
from itertools import takewhile
from operator import itemgetter, sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    EXTERIOR,
    LAURENT,
    POLYNOMIAL,
    Algebra,
    Element,
    GeneratorSpec,
    Monomial,
    basis_up_to,
    element_degree,
    mul_monomials,
    require_prime,
    sparse_monomial,
)
from .formulas import LambdaFamily, deg_mu, nu_p, r_conj, r_len
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


# a term of a rule's target over A: (coefficient mod p, monomial, and the
# exterior generators it holds, which a cofactor must not hold for the
# product to live)
Term = Tuple[int, Monomial, Tuple[int, ...]]


class PageGenerators(NamedTuple):
    """A page's derivation, compiled once from its RulePage by
    _page_generators into what _d_of_monomial reads.

    The page generators are mu^q, with mu the polynomial generator of the
    page's power rule (q = 1 and no mu without one), and each live exterior
    generator i as lambda_i mu^cost(i).  A monomial factors over them when
    it holds no dead exterior generator and the mu-exponent its lambdas'
    costs leave is a multiple of q.  rules lists each generator that has a
    rule as (its index, its page generator, d_r of that as Terms over A,
    the page's v-power stripped).  _rule_degrees reads the same fields for
    the page's clearing index, the A-degrees where such a factorization
    has a rule factor whose Leibniz term can live."""

    mu: Optional[int]
    q: int
    dead: Tuple[int, ...]                # exterior generators that are not live
    costs: Tuple[Tuple[int, int], ...]   # live lambdas with a nonzero mu-cost
    rules: Tuple[Tuple[int, Monomial, Tuple[Term, ...]], ...]


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


@dataclass
class Cell:
    """The classes of one A-degree on one bar of one page.

    reps is None for an untouched state (all monomials alive, no
    boundaries); otherwise rows of coefficients over the monomial list.
    A cell is not changed once built, so the solver express builds is kept.
    """

    monomials: Tuple[Monomial, ...]
    reps: Optional[List[List[int]]] = None
    boundaries: List[List[int]] = field(default_factory=list)
    _solver: Optional[linalg.CosetSolver] = field(default=None, init=False, repr=False,
                                                  compare=False)

    @property
    def dim(self) -> int:
        return len(self.monomials) if self.reps is None else len(self.reps)

    def reps_rows(self) -> List[List[int]]:
        if self.reps is None:
            n = len(self.monomials)
            return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        return [list(r) for r in self.reps]

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


def view_filtrations(deg_v: int, max_degree: int, pages: Sequence[int],
                     localized: bool) -> Tuple[int, int]:
    """The filtrations a page view lists.  With |v| > 0 they are every
    filtration a class of degree <= D can have (localized: the same range
    below zero); with |v| = 0, s <= sum(pages) + 2 + max(pages)."""
    if deg_v == 0:
        return 0, sum(pages) + 2 + max(pages, default=0)
    s_hi = max_degree // deg_v
    return (-s_hi if localized else 0), s_hi


def reach(deg_v: int, max_degree: int, pages: Sequence[int], localized: bool,
          max_source: int = 0) -> int:
    """The largest A-degree a run keeps: the view's A-degrees (differential
    sources at t = D + 1 included), the sources of every boundary into them,
    and every rule source."""
    s_lo = view_filtrations(deg_v, max_degree, pages, localized)[0]
    top = max_degree + 1 - s_lo * deg_v
    return max(top + 1 + max(pages, default=0) * deg_v, max_source)


# Runs whose estimate_cost exceeds this are refused as oversized.  As
# `bockstein verify` (median of 3, from importing bockstein to the exit, on
# a 2-vCPU Xeon with Python 3.11.7), v2 p=5 D=3000 (cost 132,972), v2 p=2
# D=2000 (90,230) and v1 p=3 D=4000 (82,986) take 0.09 s, 0.18 s and 0.10 s,
# v1 p=3 D=20000 (346,661) takes 0.22 s and 28 MB peak RSS, and v2 p=2
# D=10000 (860,275) takes 0.97 s and 73 MB.  The cost counts every kept
# A-degree on every fired page, though late pages touch few of them, so
# it overstates the ladders' work (ROADMAP D10).
MAX_COST = 1_000_000


def estimate_cost(deg_v: int, max_degree: int, pages: Sequence[int], localized: bool,
                  page_cap: Optional[int] = None) -> int:
    """A-degrees a run keeps times the pages it fires: its work and memory
    up to a factor that depends on the algebra only."""
    fired = [r for r in pages if page_cap is None or r <= page_cap]
    return (reach(deg_v, max_degree, pages, localized) + 1) * max(1, len(fired))


class EngineContext:
    """Shared immutable state of one run: algebra, v, window, view range
    and A-degree reach."""

    def __init__(self, A: Algebra, v: GeneratorSpec, localized: bool, max_degree: int,
                 pages: Sequence[int] = (), max_source: int = 0) -> None:
        if any(g.name == v.name for g in A.generators):
            raise ScheduleError(f"v generator {v.name!r} already present in the algebra")
        if localized and v.degree == 0:
            raise ScheduleError("localized mode requires |v| > 0")
        self.A = A
        self.v = v
        self.deg_v = v.degree
        self.localized = localized
        vkind = LAURENT if localized else POLYNOMIAL
        self.Av = A.adjoin(GeneratorSpec(v.name, v.degree, vkind))
        self.v_index = self.Av.ngens - 1
        self.max_degree = max_degree
        self.top_page = max(pages, default=0)
        self.s_lo, self.s_hi = view_filtrations(v.degree, max_degree, pages, localized)
        self.reach = reach(v.degree, max_degree, pages, localized, max_source)

    def _filtrations(self, a: int, top: int) -> Tuple[int, int]:
        """The view's filtrations at which A-degree a lies in degrees 0..top
        (empty when the first exceeds the second)."""
        lo, hi, dv = self.s_lo, self.s_hi, self.deg_v
        if dv == 0:
            return (lo, hi) if 0 <= a <= top else (1, 0)
        return max(lo, -(a // dv)), min(hi, (top - a) // dv)


@dataclass
class DiffRecord:
    target: object  # (t, s) in a page view; the target A-degree in PageData.maps
    matrix: List[List[int]]  # rows: source reps, cols: target reps
    rank: int


# bars ((s_from, item), ...) by increasing s_from; an item holds up to the next bar's start
Bars = Tuple[Tuple[int, object], ...]


def _bar_at(bars: Bars, s: int):
    """The item of the bar that holds filtration s (s >= the first s_from)."""
    return bars[bisect_right(bars, s, key=itemgetter(0)) - 1][1]


def _clip_bars(bars: Bars, lo: int, hi: int) -> Iterator[Tuple[int, int, object]]:
    """(s_from, s_to, item) of each bar whose item is not None, cut to the
    filtrations lo..hi."""
    for k, (s0, item) in enumerate(bars):
        s0 = lo if s0 < lo else s0
        s1 = hi if k == len(bars) - 1 else min(hi, bars[k + 1][0] - 1)
        if s0 <= s1 and item is not None:
            yield s0, s1, item


class PageData:
    """The page E_r of a run.

    degrees maps each A-degree a, in increasing order, to its bars
    ((s_from, Cell), ...), the classes at (a + s|v|, s).  The first bar
    starts at the view's lowest filtration, each later one at a fired page
    r whose boundaries (which reach filtration r on) changed the cell;
    consecutive bars hold different Cells, and localized runs keep one bar.
    A page that does not touch an A-degree passes the same bars object on
    to the next.  When the page is applied, maps gives d_r out of each
    A-degree it does not vanish on, as bars ((s_from, DiffRecord or None),
    ...) over the A-degree's bars, each record's target the A-degree
    a - 1 - r|v|.

    What a reader shows of them is cut to the window 0..D by shown(),
    window(a) and window_maps(a); dim, the documents and the chart read
    only those.  cells and diffs are their (t, s) views, read-only mappings
    computed from the bars when they are read, so a run builds neither;
    only the benchmark's tracer reads them (ROADMAP B1).
    """

    def __init__(self, r: int, ctx: EngineContext, degrees: Dict[int, Bars]) -> None:
        self.r = r
        self.ctx = ctx
        self.degrees = degrees
        self.maps: Dict[int, Bars] = {}

    @property
    def cells(self) -> Mapping[Tuple[int, int], Cell]:
        """The classes at every (t, s) of the window: the bar's own Cell."""
        return _CellView(self)

    @property
    def diffs(self) -> Mapping[Tuple[int, int], DiffRecord]:
        """d_r at every (t, s) source window_maps shows, each record's
        target the (t - 1, s + r) it hits."""
        return _DiffView(self)

    def shown(self) -> Iterator[Tuple[int, Bars]]:
        """(a, bars) of each A-degree whose tower meets degrees 0..D, in
        increasing order: the kept A-degrees 0..D - s_lo|v|."""
        top = self.ctx.max_degree - self.ctx.s_lo * self.ctx.deg_v
        return takewhile(lambda item: item[0] <= top, self.degrees.items())

    def window(self, a: int) -> Iterator[Tuple[int, int, Cell]]:
        """(s_from, s_to, Cell) of each bar of A-degree a, cut to the view's
        filtrations at which it lies in degrees 0..D."""
        return _clip_bars(self.degrees.get(a, ()), *self.ctx._filtrations(a, self.ctx.max_degree))

    def window_maps(self, a: int) -> Iterator[Tuple[int, int, DiffRecord]]:
        """(s_from, s_to, DiffRecord) of each bar of d_r out of A-degree a
        that does not vanish, cut to the sources in degrees 0..D + 1 whose
        targets lie in the view's filtrations."""
        ctx = self.ctx
        lo, hi = ctx._filtrations(a, ctx.max_degree + 1)
        return _clip_bars(self.maps.get(a, ()), lo, min(hi, ctx.s_hi - self.r))

    def dim(self, t: int, s: int) -> int:
        """The dimension at (t, s); 0 outside the window and the view."""
        return next((cell.dim for s0, s1, cell in self.window(t - s * self.ctx.deg_v)
                     if s0 <= s <= s1), 0)


class _PageView(Mapping):
    """A (t, s) view of a page, read off its bars on every access.

    The keys run over the A-degrees of _sources, in order, and over each
    one's bars as _clipped cuts them; a lookup reads the one bar of its
    A-degree that holds it, and items and values walk the bars as the keys
    do.  The view keeps nothing, so a read allocates only what it returns."""

    __slots__ = ("_pd",)

    def __init__(self, pd: PageData) -> None:
        self._pd = pd

    def _entries(self) -> Iterator[Tuple[int, int, object]]:
        """(t, s, item) of every key (t, s), in order."""
        dv = self._pd.ctx.deg_v
        for a in self._sources():
            for s0, s1, item in self._clipped(a):
                for s in range(s0, s1 + 1):
                    yield a + s * dv, s, item

    def __getitem__(self, key: Tuple[int, int]):
        if type(key) is not tuple or len(key) != 2:
            raise KeyError(key)
        t, s = key
        if type(t) is not int or type(s) is not int:
            raise KeyError(key)
        for s0, s1, item in self._clipped(t - s * self._pd.ctx.deg_v):
            if s0 <= s <= s1:
                return self._value(t, s, item)
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for t, s, _ in self._entries():
            yield t, s

    def __len__(self) -> int:
        return sum(s1 - s0 + 1 for a in self._sources() for s0, s1, _ in self._clipped(a))

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        view = self._mapping
        for t, s, item in view._entries():
            yield (t, s), view._value(t, s, item)


class _Values(ValuesView):
    def __iter__(self):
        view = self._mapping
        for t, s, item in view._entries():
            yield view._value(t, s, item)


class _CellView(_PageView):
    __slots__ = ()

    def _sources(self) -> Iterator[int]:
        return map(itemgetter(0), self._pd.shown())

    def _clipped(self, a: int) -> Iterator[Tuple[int, int, Cell]]:
        return self._pd.window(a)

    def _value(self, t: int, s: int, cell: Cell) -> Cell:
        return cell


class _DiffView(_PageView):
    __slots__ = ()

    def _sources(self) -> Iterator[int]:
        return iter(self._pd.maps)

    def _clipped(self, a: int) -> Iterator[Tuple[int, int, DiffRecord]]:
        return self._pd.window_maps(a)

    def _value(self, t: int, s: int, rec: DiffRecord) -> DiffRecord:
        return DiffRecord((t - 1, s + self._pd.r), rec.matrix, rec.rank)


def build_e1(A: Algebra, v: GeneratorSpec, w, localized: bool = False,
             pages: Sequence[int] = (), max_source: int = 0) -> PageData:
    """E_1 = A[v] (A[v^{+-1}] when localized), seen through the window.

    pages are the schedule's page numbers: the largest fixes how far above
    the window boundaries come from, and with |v| = 0 they fix the
    filtrations a view lists.  max_source is the largest A-degree of a rule
    source, so that every rule can be checked against its state.
    """
    w = as_window(w)
    ctx = EngineContext(A, v, localized, w.max_degree, tuple(pages), max_source)
    degrees = {a: ((ctx.s_lo, Cell(tuple(mons))),)
               for a, mons in sorted(basis_up_to(A, ctx.reach).items())}
    return PageData(1, ctx, degrees)


def _page_generators(A: Algebra, page: RulePage) -> PageGenerators:
    """Resolve a page's generators and compile its rules by generator.  The
    power rule is the one whose source is a pure power of a polynomial
    generator; every other source must be a live exterior generator times
    its attached mu-power."""
    exterior = A.exterior
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
        index[tuple(1 if j == i else c if j == mu else 0 for j in range(A.ngens))] = i
    if mu is not None:
        index[tuple(q if j == mu else 0 for j in range(A.ngens))] = mu
    rules: Dict[int, Tuple[int, Monomial, Tuple[Term, ...]]] = {}
    for rule in page.rules:
        gi = index.get(rule.source)
        if gi is None:
            raise MalformedRuleError("malformed rule (source is not a page generator)")
        if gi in rules:
            raise MalformedRuleError("malformed rule (duplicate source)")
        terms = tuple((c % A.p, mon[:-1], tuple(j for j in exterior if mon[j]))
                      for mon, c in rule.target.items() if c % A.p)
        rules[gi] = (gi, rule.source, terms)
    dead = tuple(i for i in exterior if i not in attach)
    costs = tuple((i, c) for i, c in attach.items() if c)
    return PageGenerators(mu, q, dead, costs, tuple(rules.values()))


def _validate_rules(pd: PageData, page: RulePage) -> None:
    ctx = pd.ctx
    A, Av, p = ctx.A, ctx.Av, ctx.A.p
    r = page.r
    for rule in page.rules:
        if not rule.target:
            raise MalformedRuleError("malformed rule (zero target)")
        vexps = {m[ctx.v_index] for m in rule.target}
        if vexps != {r}:
            raise MalformedRuleError(
                f"malformed rule (target v-exponent {sorted(vexps)} != page {r})")
        sdeg = A.degree(rule.source)
        tdeg = element_degree(rule.target, Av)
        if tdeg != sdeg - 1:
            raise MalformedRuleError(
                f"malformed rule (target degree {tdeg} != source degree {sdeg} - 1)")
        # survival: the source must be a live class (a cycle that is not a
        # boundary) at filtration 0 and the target must still be nonzero at
        # filtration r on this page
        src_bars = pd.degrees.get(sdeg)
        if src_bars is None or rule.source not in src_bars[0][1].monomials:
            raise DeadSourceError("dead source")
        src_cell = _bar_at(src_bars, 0)
        vec = [0] * len(src_cell.monomials)
        vec[src_cell.monomials.index(rule.source)] = 1
        coeffs = src_cell.express(vec, p)
        if coeffs is None or not any(coeffs):
            raise DeadSourceError("dead source")
        tbars = pd.degrees.get(sdeg - 1 - r * ctx.deg_v)
        if tbars is None:
            raise MalformedRuleError("malformed rule (target bidegree empty)")
        tcell = _bar_at(tbars, r)
        tvec = [0] * len(tcell.monomials)
        for m, c in rule.target.items():
            amon = m[:-1]
            if amon not in tcell.monomials:
                raise MalformedRuleError("malformed rule (target outside bidegree)")
            tvec[tcell.monomials.index(amon)] = c % p
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
    A-monomials (mul_monomials), its coefficient taken mod p.
    """
    for i in gens.dead:
        if m[i]:
            return {}
    left = 0 if gens.mu is None else m[gens.mu]
    for i, c in gens.costs:
        if m[i]:
            left -= c
    if left < 0 or left % gens.q:
        return {}
    A = ctx.A
    p = A.p
    out: Element = {}
    for i, source, terms in gens.rules:
        if not m[i]:
            continue
        mult = (left // gens.q if i == gens.mu else 1) % p
        if mult == 0:
            continue
        cof = tuple(map(sub, m, source))
        sign, _ = mul_monomials(A, source, cof)
        for c, t, held in terms:
            for j in held:
                if cof[j]:
                    break
            else:
                s, mon = mul_monomials(A, t, cof)
                _accumulate(out, mon, s * sign * mult * c, p)
    return out


def _accumulate(acc: Element, m: Monomial, c: int, p: int) -> None:
    v = (acc.get(m, 0) + c) % p
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


def _set_bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0, in increasing order: x is
    cut into bytes once, and each nonzero byte gives up its lowest set bit
    until it is empty."""
    for k, byte in enumerate(x.to_bytes((x.bit_length() + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            yield 8 * k + low.bit_length() - 1
            byte ^= low


def _rule_degrees(A: Algebra, gens: PageGenerators, top: int) -> int:
    """The clearing index of a page, as a bitset: the A-degrees 0..top that
    hold a monomial which factors over the page generators with a rule
    factor whose Leibniz term can live.  d_r is 0 on every other A-degree,
    so apply_page skips them, as persistence skips the columns whose
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
    for gi, source, terms in gens.rules:
        d = A.degree(source)
        for _, _, held in terms:
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


class _Eliminated(NamedTuple):
    """A d_r record of one bar with what one elimination of it gives (see
    linalg.kernel_and_echelon): the left kernel, whose dimension is the
    rows less the rank, and the reduced row echelon form of its rows."""

    rec: DiffRecord
    kernel: List[List[int]]
    echelon: Dict[int, List[int]]


def _page_map(cell: Cell, images: Sequence[Element], tcell: Cell, p: int,
              r: int, a: int, ta: int) -> Optional[_Eliminated]:
    """d_r on the classes of one cell, in the coordinates of the target's
    classes, eliminated; None when it vanishes.  An untouched cell's
    classes are its monomials, so their values are the images themselves."""
    tindex = {mon: i for i, mon in enumerate(tcell.monomials)}
    mat: List[List[int]] = []
    nonzero = False
    for k in range(cell.dim):
        if cell.reps is None:
            dvec = images[k]
        else:
            dvec = {}
            for j, c in enumerate(cell.reps[k]):
                if c and images[j]:
                    for mon, cc in images[j].items():
                        _accumulate(dvec, mon, c * cc, p)
        if not dvec:
            mat.append([0] * tcell.dim)
            continue
        vec = [0] * len(tcell.monomials)
        for mon, cc in dvec.items():
            pos = tindex.get(mon)
            if pos is None:
                raise EngineAssertionError("differential leaves its bidegree")
            vec[pos] = cc
        coeffs = tcell.express(vec, p)
        if coeffs is None:
            raise EngineAssertionError(
                f"d_{r} value in A-degree {a} is not a class of the current page")
        mat.append(coeffs)
        nonzero = nonzero or any(coeffs)
    if not nonzero:
        return None
    kernel, echelon = linalg.kernel_and_echelon(mat, tcell.dim, p)
    return _Eliminated(DiffRecord(ta, mat, len(mat) - len(kernel)), kernel, echelon)


def _homology(cell: Cell, out: Optional[_Eliminated], image: Optional[_Eliminated],
              p: int, r: int, a: int) -> Cell:
    """The next page's cell: the kernel of the outgoing d_r (out) modulo the
    rows of the incoming one (image), both in the coordinates of the cell's
    classes.  An untouched cell's classes are its monomials, so there a
    combination of classes is its own vector."""
    if out is None and image is None:
        return cell
    n = cell.dim
    if out is not None:
        ker = out.kernel
    else:
        ker = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    im_ech = {} if image is None else image.echelon
    image_rows = () if image is None else image.rec.matrix
    new_rep_combos: List[List[int]] = []
    combo_ech: Dict[int, List[int]] = {}
    for kv in ker:
        red = linalg.reduce_row(kv, im_ech, p)
        red = linalg.reduce_row(red, combo_ech, p)
        if any(red):
            linalg.echelon_insert(combo_ech, red, p)
            new_rep_combos.append(red)
    if len(new_rep_combos) != len(ker) - len(im_ech):
        raise EngineAssertionError(
            f"homology dimension bookkeeping failed at A-degree {a} on page {r}")
    reps = cell.reps
    width = len(cell.monomials)

    def _combine(combo: List[int]) -> List[int]:
        if reps is None:
            return list(combo)
        vec = [0] * width
        for i, c in enumerate(combo):
            if c:
                ri = reps[i]
                for j in range(width):
                    if ri[j]:
                        vec[j] = (vec[j] + c * ri[j]) % p
        return vec

    new_bnd = [list(b) for b in cell.boundaries]
    for row in image_rows:
        vec = _combine(row)
        if any(vec):
            new_bnd.append(vec)
    return Cell(cell.monomials, [_combine(combo) for combo in new_rep_combos], new_bnd)


def _span(e: Optional[_Eliminated]) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Canonical form (reduced echelon) of the row space of a map."""
    if e is None:
        return ()
    return tuple((piv, tuple(row)) for piv, row in sorted(e.echelon.items()))


def apply_page(pd: PageData, page: RulePage) -> PageData:
    """Fire page pd.r with the rules of page and return the next page.

    Each rule's source must be a page generator.  A page with no rules
    yields the input's state with r incremented.  The fired differentials
    are recorded on the input PageData.

    A page costs what it fires.  It visits only the kept A-degrees of its
    clearing index (_rule_degrees), walking its set bits in increasing
    order.  Each record of d_r is eliminated once (_page_map, through
    linalg.kernel_and_echelon): the one forward elimination gives the rank
    and the source bar's cycles, and its pivot rows, back-substituted, the
    reduced echelon form that is both the span the well-definedness check
    compares and the image the target's homology divides by.  A cell that
    no page has touched builds no identity rows: _page_map reads its
    classes' values off the images, _homology takes a combination of its
    classes as its own vector, and as a target it expresses a vector as
    itself (Cell.express), so only the cells _homology made build a
    solver.
    """
    ctx = pd.ctx
    p = ctx.A.p
    r = pd.r
    if page.r != r:
        raise MalformedRuleError(f"malformed rule (page {page.r} applied at page {r})")
    if not page.rules:
        return PageData(r + 1, ctx, pd.degrees)
    if ctx.deg_v and r > ctx.top_page:
        raise EngineError(f"page {r} draws boundaries from above the A-degrees kept "
                          f"for pages up to {ctx.top_page}")
    gens = _page_generators(ctx.A, page)
    _validate_rules(pd, page)
    shift = 1 + r * ctx.deg_v

    # d_r per A-degree and bar, into the target's top bar: a target sits at
    # filtration >= r, where every fired page's boundaries have arrived;
    # elim holds each bar's record eliminated, beside maps
    maps: Dict[int, Bars] = {}
    elim: Dict[int, List[Optional[_Eliminated]]] = {}
    for a in _set_bits(_rule_degrees(ctx.A, gens, ctx.reach)):
        bars = pd.degrees.get(a)
        if bars is None:
            continue
        images = [_d_of_monomial(ctx, gens, m) for m in bars[0][1].monomials]
        if not any(images):
            continue
        tbars = pd.degrees.get(a - shift)
        if tbars is None:
            raise EngineAssertionError("differential leaves its bidegree")
        tcell = tbars[-1][1]
        row = [_page_map(cell, images, tcell, p, r, a, a - shift) for _, cell in bars]
        if any(e is not None for e in row):
            maps[a] = tuple((s, None if e is None else e.rec) for (s, _), e in zip(bars, row))
            elim[a] = row

    incoming: Dict[int, _Eliminated] = {}
    for a, row in elim.items():
        # d_r o d_r must vanish; the target's d_r is read at its top bar
        second = maps[a - shift][-1][1] if a - shift in maps else None
        for e in row:
            if e is not None and second is not None and any(
                    map(any, linalg.mat_mul(e.rec.matrix, second.matrix, p))):
                raise EngineAssertionError(f"d_{r} o d_{r} != 0 out of A-degree {a}")
        # the sources of a tower's boundaries sit in every bar; d_r must hit
        # the same classes from each, or it is not defined on E_r
        if len(row) > 1 and len({_span(e) for e in row}) > 1:
            raise EngineAssertionError(
                f"d_{r} out of A-degree {a} depends on the representatives")
        incoming[a - shift] = row[-1]

    # every bar loses the cycles that support d_r; the boundaries of page r
    # reach filtration r on, where they start a new top bar
    degrees = dict(pd.degrees)
    for a in sorted(elim.keys() | incoming.keys()):
        bars = pd.degrees[a]
        row = elim.get(a, [None] * len(bars))
        image = incoming.get(a)
        if ctx.localized:
            ((s, cell),) = bars
            degrees[a] = ((s, _homology(cell, row[0], image, p, r, a)),)
            continue
        new = [(s, _homology(cell, e, None, p, r, a)) for (s, cell), e in zip(bars, row)]
        if image is not None:
            new.append((r, _homology(bars[-1][1], row[-1], image, p, r, a)))
        degrees[a] = tuple(new)

    pd.maps = maps
    return PageData(r + 1, ctx, degrees)


# ----------------------------------------------------------------------
# schedules: stated from p, n and the formulas, with no algebra built.  A
# source has the n + 2 exponents of lambda_1 .. lambda_{n+1}, mu_{n+1} (the
# generators of thh_mod_p_algebra(p, n)), a target one more for v.


def schedule_v0(p: int, n: int, w) -> DifferentialSchedule:
    """d_{j+1}(mu^{p^j}) = v_0^{j+1} mu^{p^j-1} lambda_{n+1}: one power rule
    per page, on the page generators lambda_1 .. lambda_n, lambda_{n+1}
    mu^{p^j-1} and mu^{p^j}.  Its Leibniz extension is the paper's
    d_{nu_p(k)+1}(mu^k) = v_0^{nu_p(k)+1} mu^{k-1} lambda_{n+1}, with the
    unit k / p^{nu_p(k)} mod p.  A p that is not prime raises AlgebraError."""
    w = as_window(w)
    require_prime(p)
    v = GeneratorSpec("v0", 0, POLYNOMIAL)
    dm = deg_mu(p, n)
    lam = n          # index of lambda_{n+1}
    mu = n + 1       # index of mu_{n+1}
    vi = n + 2
    # page j + 1 is emitted while mu^{p^j} lies within D + 1 plus one degree
    # per page; the page count feeds back into that bound
    t_hi = w.max_degree + 1
    while True:
        js = [j for j in range(t_hi.bit_length()) if p ** j * dm <= t_hi]
        if w.max_degree + 1 + len(js) == t_hi:
            break
        t_hi = w.max_degree + 1 + len(js)
    pages: Dict[int, RulePage] = {}
    for j in js:
        q = p ** j
        src = sparse_monomial(n + 2, {mu: q})
        target = {sparse_monomial(n + 3, {vi: j + 1, mu: q - 1, lam: 1}): 1}
        attach = {i: 0 for i in range(n)}
        attach[lam] = q - 1
        pages[j + 1] = RulePage(j + 1, [Rule(src, target)], attach)
    k_next = t_hi // dm + 1
    min_page = nu_p(p, k_next) + 1
    return DifferentialSchedule(
        v, pages, label=f"v0 p={p} n={n}",
        future_target_floor=k_next * dm - 1,
        future_min_page=min_page,
    )


def _ladder_schedule(p: int, n: int, m: int, w, label: str) -> DifferentialSchedule:
    """The mu-power ladder (n, m): step s fires
    d_{r_n(s,m)}(mu_{n+1}^{p^{s-1}}) = v_m^r lambda_{n-m+s}, with
    lambda_1 .. lambda_{n-m} and lambda_{n-m+s} .. lambda_{n+s} attached.
    The paper's v_1 and v_2 ladders are (2, 1) and (2, 2).

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
    mu = n + 1       # index of mu_{n+1}
    vi = n + 2
    pages: Dict[int, RulePage] = {}
    s = 1
    while family.degree(n - m + s) <= w.max_degree:
        r = r_conj(p, n, m, s)
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
        future_min_page=r_conj(p, n, m, s),
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
    """
    w = as_window(w)
    if page_cap is not None and page_cap < 1:
        raise ScheduleError(f"page cap {page_cap} is below 1, so no page could fire")
    max_source = max((A.degree(rule.source) for pg in sched.pages.values()
                      for rule in pg.rules), default=0)
    pd = build_e1(A, sched.v, w, localized, pages=sorted(sched.pages), max_source=max_source)
    if not sched.pages:
        warnings.warn("window too small to contain any rule source; E_1 = E_infinity",
                      stacklevel=2)
    pages_out: List[PageData] = [pd]
    final = pd
    unfired: List[int] = []
    for r in sorted(sched.pages):
        if page_cap is not None and r > page_cap:
            unfired.append(r)
            continue
        # the pages between fired ones pass the state through unchanged
        cur = final if final.r == r else PageData(r, final.ctx, final.degrees)
        nxt = apply_page(cur, sched.pages[r])
        if cur is not pages_out[-1]:
            pages_out.append(cur)
        final = nxt
    if final is not pages_out[-1]:
        pages_out.append(final)
    profile = extract_towers(final, sched, w, localized, tuple(unfired))
    return pages_out, profile


def extract_towers(final: PageData, sched: DifferentialSchedule, w, localized: bool,
                   unfired: Tuple[int, ...] = ()) -> TowerProfile:
    """The towers over the window, read from the final page's per-degree
    state; unfired lists the schedule's pages the run did not fire."""
    w = as_window(w)
    ctx = final.ctx
    prof = TowerProfile(w.max_degree)

    future_floor = sched.future_target_floor
    future_min_page = sched.future_min_page
    unfired_gens = [_page_generators(ctx.A, sched.pages[r]) for r in unfired]
    for r in unfired:
        for rule in sched.pages[r].rules:
            for mon in rule.target:
                base = ctx.Av.degree(mon) - r * ctx.deg_v
                future_floor = base if future_floor is None else min(future_floor, base)
        future_min_page = r if future_min_page is None else min(future_min_page, r)

    for b in range(0, w.max_degree + 1):
        bars = final.degrees.get(b)
        if bars is None:
            continue
        hit = future_floor is not None and b >= future_floor
        if localized:
            # with v inverted a later differential removes its target's
            # Laurent tower as well as its source's, so a future hit may
            # leave nothing
            length = Unknown(possibly_absent=True) if hit else INF
            for _ in range(bars[0][1].dim):
                prof.add(b, length)
            continue
        _read_column(prof, b, bars, future_min_page if hit else None,
                     lambda cell: _unfired_sources(ctx, unfired_gens, cell))
    return prof


def _unfired_sources(ctx: EngineContext, unfired: Sequence[PageGenerators], cell: Cell) -> int:
    """How many classes of the cell have a nonzero image under the rules of
    the unfired pages (Leibniz extension included): the rank of their
    stacked images.  Such a class may support a differential the run did
    not fire, and then its whole v-tower leaves."""
    if not unfired or cell.dim == 0:
        return 0
    p = ctx.A.p
    images = [[_d_of_monomial(ctx, gens, m) for gens in unfired] for m in cell.monomials]
    index: Dict[Tuple[int, Monomial], int] = {}
    for per_page in images:
        for i, img in enumerate(per_page):
            for mon in img:
                index.setdefault((i, mon), len(index))
    if not index:
        return 0
    rows = []
    for rep in cell.reps_rows():
        row = [0] * len(index)
        for c, per_page in zip(rep, images):
            if c:
                for i, img in enumerate(per_page):
                    for mon, cc in img.items():
                        k = index[(i, mon)]
                        row[k] = (row[k] + c * cc) % p
        rows.append(row)
    return linalg.rank(rows, p)


def _read_column(prof: TowerProfile, b: int, bars: Bars, future_min_page: Optional[int],
                 leaving: Callable[[Cell], int]) -> None:
    """Add the towers of the v-tower at base b from its bars: the classes a
    bar starting at a fired page r has fewer than the bar below it became
    boundaries on page r, so they are towers of length r.  With a future
    page at future_min_page, only the bars that start below it are read,
    and the classes of the last of them are unknown; leaving(cell) counts
    those that may support an unfired differential."""
    dims = [cell.dim for _, cell in bars]
    for k in range(1, len(dims)):
        if dims[k] > dims[k - 1]:
            raise EngineAssertionError(
                f"dimensions increase along the v-tower at base degree {b}")
    # observations past the smallest unfired page are not trustworthy
    top = (len(bars) if future_min_page is None
           else bisect_left(bars, future_min_page, key=itemgetter(0))) - 1
    for k in range(1, top + 1):
        for _ in range(dims[k - 1] - dims[k]):
            prof.add(b, bars[k][0])
    if future_min_page is None:
        for _ in range(dims[top]):
            prof.add(b, INF)
        return
    # a class that may support an unfired differential may hold no tower at
    # all, so it gets no lower bound; the rest can only be hit later
    absent = leaving(bars[top][1]) if dims[top] else 0
    for _ in range(absent):
        prof.add(b, Unknown(possibly_absent=True))
    for _ in range(dims[top] - absent):
        prof.add(b, Unknown(future_min_page))
