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
modulo the boundaries of the fired pages <= s, and each A-degree keeps one
boundary level per fired page, with its own representatives.  With v
inverted every page's boundaries reach every filtration and one level is
kept.  The (t, s) pages that documents and charts read are views of this
state over the window 0..D.

Every page asserts d_r o d_r = 0, that d_r takes the same values from
every boundary level (so it is defined on E_r), and the homology
bookkeeping of each state.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set,
                    Tuple)

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
    multiply,
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


class PageGenerators(NamedTuple):
    """A page's generators, resolved from its RulePage: mu^q with mu the
    polynomial generator of the page's power rule (q = 1 and no mu without
    one), and each live exterior generator i as lambda_i mu^attach[i].
    rules maps a generator's index to its page generator and d_r of it."""

    mu: Optional[int]
    q: int
    exterior: Tuple[int, ...]  # every exterior generator of the algebra
    attach: Dict[int, int]
    rules: Dict[int, Tuple[Monomial, Element]]


@dataclass
class DifferentialSchedule:
    v: GeneratorSpec
    pages: Dict[int, RulePage]
    label: str = ""
    meta: Dict[str, object] = field(default_factory=dict)
    # smallest tower-base degree a not-emitted rule could create boundaries
    # on (None = schedule complete), and the smallest not-emitted page
    future_target_floor: Optional[int] = None
    future_min_page: Optional[int] = None

    @property
    def max_page(self) -> int:
        return max(self.pages) if self.pages else 0


@dataclass
class Cell:
    """The classes of one A-degree at one boundary level on one page.

    reps is None for an untouched state (all monomials alive, no
    boundaries); otherwise rows of coefficients over the monomial list.
    A cell is not changed once built, so its solver is kept.
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

    def solver(self, p: int) -> linalg.CosetSolver:
        if self._solver is None:
            self._solver = linalg.CosetSolver(self.reps_rows(), self.boundaries,
                                              len(self.monomials), p)
        return self._solver


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


# Runs whose estimate_cost exceeds this are refused as oversized.  The
# largest certified windows (v2 p=5 D=3000: 132,972; v2 p=2 D=2000: 90,230;
# v1 p=3 D=4000: 82,986) take a few seconds each.
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


@dataclass
class DiffRecord:
    target: object  # (t, s) in a page view; the target A-degree per A-degree
    matrix: List[List[int]]  # rows: source reps, cols: target reps
    rank: int


class PageData:
    """The page E_r of a run.

    degrees maps each A-degree to its cells by boundary level: level k holds
    the boundaries of the first k fired pages (one level when localized).
    cells is the (t, s) view of them over the window, built when first read
    (E_1's by build_e1).  A page made from another (prev) derives its view
    from prev's: only the A-degrees in changed have new cells, and every
    other A-degree shows each filtration the same Cell object on both
    pages.  When the page is applied, maps records its differentials per
    A-degree, by boundary level (None where d_r vanishes; the record's
    target is an A-degree), and diffs is their view.
    """

    def __init__(self, r: int, ctx: EngineContext, degrees: Dict[int, Tuple[Cell, ...]],
                 fired: Tuple[int, ...] = (), prev: Optional[PageData] = None,
                 changed: FrozenSet[int] = frozenset()) -> None:
        self.r = r
        self.ctx = ctx
        self.degrees = degrees
        self.fired = fired
        self.prev = prev
        self.changed = changed
        self.maps: Dict[int, Tuple[Optional[DiffRecord], ...]] = {}
        self.diffs: Dict[Tuple[int, int], DiffRecord] = {}
        self._cells: Optional[Dict[Tuple[int, int], Cell]] = None

    def level(self, s: int) -> int:
        """Index of the boundary level that filtration s sees on this page."""
        return -1 if self.ctx.localized else bisect_right(self.fired, s)

    @property
    def cells(self) -> Dict[Tuple[int, int], Cell]:
        if self._cells is None:
            self._cells = _cell_view(self)
        return self._cells

    def dim(self, t: int, s: int) -> int:
        cell = self.cells.get((t, s))
        return cell.dim if cell else 0


def _cell_view(pd: PageData) -> Dict[Tuple[int, int], Cell]:
    """The classes of a page at every (t, s) of the window.

    A page derived from others starts from the nearest one up its chain
    whose view is built and replaces the keys of the A-degrees changed
    since: an unchanged A-degree's levels gain only a copy of the top one
    (localized: none), so every filtration keeps its Cell.  A page with no
    built view up its chain is built the same way from all its A-degrees,
    in their order."""
    ctx, dv = pd.ctx, pd.ctx.deg_v
    filtrations = [(s, pd.level(s)) for s in range(ctx.s_lo, ctx.s_hi + 1)]
    changed: Set[int] = set()
    base: Optional[PageData] = pd
    while base is not None and base._cells is None:
        changed |= base.changed
        base = base.prev
    cells = {} if base is None else dict(base._cells)
    for a in (pd.degrees if base is None else changed):
        levels = pd.degrees[a]
        for s, k in filtrations:
            t = a + s * dv
            if t > ctx.max_degree:
                break
            if t >= 0:
                cells[(t, s)] = levels[k]
    return cells


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
    degrees = {a: (Cell(tuple(mons)),) for a, mons in sorted(basis_up_to(A, ctx.reach).items())}
    pd = PageData(1, ctx, degrees)
    pd._cells = _cell_view(pd)
    return pd


def _normalize_rules(rules, page: int) -> RulePage:
    if isinstance(rules, RulePage):
        return rules
    return RulePage(page, [Rule(tuple(source), dict(target)) for source, target in rules])


def _page_generators(A: Algebra, page: RulePage) -> PageGenerators:
    """Resolve a page's generators and key its rules by generator.  The
    power rule is the one whose source is a pure power of a polynomial
    generator; every other source must be a live exterior generator times
    its attached mu-power."""
    exterior = tuple(i for i, g in enumerate(A.generators) if g.kind == EXTERIOR)
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
    rules: Dict[int, Tuple[Monomial, Element]] = {}
    for rule in page.rules:
        gi = index.get(rule.source)
        if gi is None:
            raise MalformedRuleError("malformed rule (source is not a page generator)")
        if gi in rules:
            raise MalformedRuleError("malformed rule (duplicate source)")
        rules[gi] = (rule.source, rule.target)
    return PageGenerators(mu, q, exterior, attach, rules)


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
        src_levels = pd.degrees.get(sdeg)
        if src_levels is None or rule.source not in src_levels[0].monomials:
            raise DeadSourceError("dead source")
        src_cell = src_levels[pd.level(0)]
        vec = [0] * len(src_cell.monomials)
        vec[src_cell.monomials.index(rule.source)] = 1
        solver = src_cell.solver(p)
        if solver.in_boundaries(vec) or solver.express(vec) is None:
            raise DeadSourceError("dead source")
        tlevels = pd.degrees.get(sdeg - 1 - r * ctx.deg_v)
        if tlevels is None:
            raise MalformedRuleError("malformed rule (target bidegree empty)")
        tcell = tlevels[pd.level(r)]
        tvec = [0] * len(tcell.monomials)
        for m, c in rule.target.items():
            amon = m[:-1]
            if amon not in tcell.monomials:
                raise MalformedRuleError("malformed rule (target outside bidegree)")
            tvec[tcell.monomials.index(amon)] = c % p
        tsolver = tcell.solver(p)
        if tsolver.in_boundaries(tvec) or tsolver.express(tvec) is None:
            raise MalformedRuleError("malformed rule (target does not survive to this page)")


def _d_of_monomial(ctx: EngineContext, gens: PageGenerators, m: Monomial) -> Element:
    """Page derivation on one A-monomial; the v-shift by the page is implied.

    A monomial that does not factor over the page generators (an exterior
    generator that is not live, or a mu-exponent that the attachments and
    mu^q do not use up) is a torsion remnant of earlier pages and supports
    nothing.  Otherwise each factor g with a rule, N times in m (N = 1 for
    an exterior one), gives the Leibniz term N * d_r(g) * (m / g), signed
    by g * (m / g) = +-m.
    """
    A = ctx.A
    p = A.p
    left = 0 if gens.mu is None else m[gens.mu]
    for i in gens.exterior:
        if m[i]:
            c = gens.attach.get(i)
            if c is None:
                return {}
            left -= c
    if left < 0 or left % gens.q:
        return {}
    out: Element = {}
    for i, (source, target) in gens.rules.items():
        if not m[i]:
            continue
        mult = (left // gens.q if i == gens.mu else 1) % p
        if mult == 0:
            continue
        cof = tuple(a - b for a, b in zip(m, source))
        sign, _ = mul_monomials(A, source, cof)
        for mon, c in multiply(target, {cof + (0,): sign * mult % p}, ctx.Av).items():
            _accumulate(out, mon[:-1], c, p)
    return out


def _accumulate(acc: Element, m: Monomial, c: int, p: int) -> None:
    v = (acc.get(m, 0) + c) % p
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


def _page_map(cell: Cell, images: Sequence[Element], tcell: Cell, p: int,
              r: int, a: int, ta: int) -> Optional[DiffRecord]:
    """d_r on the classes of one cell, in the coordinates of the target's
    classes; None when it vanishes."""
    tindex = {mon: i for i, mon in enumerate(tcell.monomials)}
    mat: List[List[int]] = []
    nonzero = False
    for row in cell.reps_rows():
        dvec: Element = {}
        for j, c in enumerate(row):
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
        coeffs = tcell.solver(p).express(vec)
        if coeffs is None:
            raise EngineAssertionError(
                f"d_{r} value in A-degree {a} is not a class of the current page")
        mat.append(coeffs)
        nonzero = nonzero or any(coeffs)
    if not nonzero:
        return None
    return DiffRecord(ta, mat, linalg.rank(mat, p))


def _homology(cell: Cell, rec: Optional[DiffRecord], image_rows: Optional[List[List[int]]],
              p: int, r: int, a: int) -> Cell:
    """The next page's cell: the kernel of the outgoing d_r (rec) modulo the
    incoming image rows, both in the coordinates of the cell's classes."""
    if rec is None and not image_rows:
        return cell
    reps = cell.reps_rows()
    n = len(reps)
    if rec is not None:
        ker = linalg.left_kernel(rec.matrix, len(rec.matrix[0]) if rec.matrix else 0, p)
    else:
        ker = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    im_ech: Dict[int, List[int]] = {}
    im_count = 0
    for row in image_rows or ():
        if linalg.echelon_insert(im_ech, row, p) is not None:
            im_count += 1
    new_rep_combos: List[List[int]] = []
    combo_ech: Dict[int, List[int]] = {}
    for kv in ker:
        red = linalg.reduce_row(kv, im_ech, p)
        red = linalg.reduce_row(red, combo_ech, p)
        if any(red):
            linalg.echelon_insert(combo_ech, red, p)
            new_rep_combos.append(red)
    if len(new_rep_combos) != len(ker) - im_count:
        raise EngineAssertionError(
            f"homology dimension bookkeeping failed at A-degree {a} on page {r}")
    width = len(cell.monomials)

    def _combine(combo: List[int]) -> List[int]:
        vec = [0] * width
        for i, c in enumerate(combo):
            if c:
                ri = reps[i]
                for j in range(width):
                    if ri[j]:
                        vec[j] = (vec[j] + c * ri[j]) % p
        return vec

    new_bnd = [list(b) for b in cell.boundaries]
    for row in image_rows or ():
        vec = _combine(row)
        if any(vec):
            new_bnd.append(vec)
    return Cell(cell.monomials, [_combine(combo) for combo in new_rep_combos], new_bnd)


def _span(rec: Optional[DiffRecord], p: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Canonical form (reduced echelon) of the row space of a map."""
    if rec is None:
        return ()
    return tuple((piv, tuple(row)) for piv, row in
                 sorted(linalg.echelon_from_rows(rec.matrix, p).items()))


def _diff_view(pd: PageData, maps: Mapping[int, Tuple[Optional[DiffRecord], ...]]
               ) -> Dict[Tuple[int, int], DiffRecord]:
    """The differentials of a page with a source or a target in the window,
    both ends within the view's filtrations."""
    ctx, dv, r = pd.ctx, pd.ctx.deg_v, pd.r
    diffs = {}
    for a, row in maps.items():
        for s in range(ctx.s_lo, ctx.s_hi - r + 1):
            t = a + s * dv
            if t > ctx.max_degree + 1:
                break
            rec = row[pd.level(s)]
            if t >= 0 and rec is not None:
                diffs[(t, s)] = DiffRecord((t - 1, s + r), rec.matrix, rec.rank)
    return diffs


def apply_page(pd: PageData, rules) -> PageData:
    """Fire page pd.r with the given rules and return the next page.

    rules may be a RulePage or a plain list of (source, target) pairs,
    which states no attachments; each source must be a page generator.  An
    empty list yields the input's state with r incremented.
    The fired differentials are recorded on the input PageData.
    """
    ctx = pd.ctx
    p = ctx.A.p
    r = pd.r
    page = _normalize_rules(rules, r)
    if page.r != r:
        raise MalformedRuleError(f"malformed rule (page {page.r} applied at page {r})")
    if not page.rules:
        return PageData(r + 1, ctx, pd.degrees, pd.fired, pd)
    if ctx.deg_v and r > ctx.top_page:
        raise EngineError(f"page {r} draws boundaries from above the A-degrees kept "
                          f"for pages up to {ctx.top_page}")
    gens = _page_generators(ctx.A, page)
    _validate_rules(pd, page)
    shift = 1 + r * ctx.deg_v

    # d_r per A-degree and boundary level, into the target's full level: a
    # target sits at filtration >= r, where every fired page's boundaries
    # have arrived
    maps: Dict[int, Tuple[Optional[DiffRecord], ...]] = {}
    for a, levels in pd.degrees.items():
        images = [_d_of_monomial(ctx, gens, m) for m in levels[0].monomials]
        if not any(images):
            continue
        tlevels = pd.degrees.get(a - shift)
        if tlevels is None:
            raise EngineAssertionError("differential leaves its bidegree")
        memo: Dict[int, Optional[DiffRecord]] = {}
        for cell in levels:
            if id(cell) not in memo:
                memo[id(cell)] = _page_map(cell, images, tlevels[-1], p, r, a, a - shift)
        row = tuple(memo[id(cell)] for cell in levels)
        if any(rec is not None for rec in row):
            maps[a] = row

    incoming: Dict[int, List[List[int]]] = {}
    for a, row in maps.items():
        # levels sharing a cell share its record, so each is checked once
        distinct = list({id(rec): rec for rec in row}.values())
        # d_r o d_r must vanish; the target's d_r is read at its top level
        second = maps.get(a - shift, (None,))[-1]
        for rec in distinct:
            if rec is not None and second is not None and any(
                    map(any, linalg.mat_mul(rec.matrix, second.matrix, p))):
                raise EngineAssertionError(f"d_{r} o d_{r} != 0 out of A-degree {a}")
        # the sources of a tower's boundaries sit at every level; d_r must
        # hit the same classes from each, or it is not defined on E_r
        if len(distinct) > 1 and len({_span(rec, p) for rec in distinct}) > 1:
            raise EngineAssertionError(
                f"d_{r} out of A-degree {a} depends on the representatives")
        incoming[a - shift] = row[-1].matrix

    # every level loses the cycles that support d_r; the boundaries of page
    # r reach filtration r on, which is the new top level
    degrees: Dict[int, Tuple[Cell, ...]] = {}
    for a, levels in pd.degrees.items():
        row = maps.get(a)
        image_rows = incoming.get(a)
        if row is None and image_rows is None:
            degrees[a] = levels if ctx.localized else levels + levels[-1:]
            continue
        row = row or (None,) * len(levels)
        if ctx.localized:
            degrees[a] = (_homology(levels[-1], row[-1], image_rows, p, r, a),)
            continue
        memo_cells: Dict[int, Cell] = {}
        for cell, rec in zip(levels, row):
            if id(cell) not in memo_cells:
                memo_cells[id(cell)] = _homology(cell, rec, None, p, r, a)
        # with no image rows the top level is the old top's homology again
        top = (_homology(levels[-1], row[-1], image_rows, p, r, a) if image_rows
               else memo_cells[id(levels[-1])])
        degrees[a] = tuple(memo_cells[id(cell)] for cell in levels) + (top,)

    pd.maps = maps
    pd.diffs = _diff_view(pd, maps)
    return PageData(r + 1, ctx, degrees, pd.fired + (r,), pd,
                    frozenset(maps) | frozenset(incoming))


# ----------------------------------------------------------------------
# schedules


def _thh_algebra(p: int, n: int) -> Algebra:
    from .closedform import thh_mod_p_algebra

    return thh_mod_p_algebra(p, n)


def _target_element(Av: Algebra, exps: Mapping[int, int], coeff: int = 1) -> Element:
    m = [0] * Av.ngens
    for i, e in exps.items():
        m[i] += e
    return {tuple(m): coeff % Av.p}


def schedule_v0(p: int, n: int, w) -> DifferentialSchedule:
    """d_{j+1}(mu^{p^j}) = v_0^{j+1} mu^{p^j-1} lambda_{n+1}: one power rule
    per page, on the page generators lambda_1 .. lambda_n, lambda_{n+1}
    mu^{p^j-1} and mu^{p^j}.  Its Leibniz extension is the paper's
    d_{nu_p(k)+1}(mu^k) = v_0^{nu_p(k)+1} mu^{k-1} lambda_{n+1}, with the
    unit k / p^{nu_p(k)} mod p."""
    w = as_window(w)
    A = _thh_algebra(p, n)
    v = GeneratorSpec("v0", 0, POLYNOMIAL)
    Av = A.adjoin(v)
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
        src = tuple(q if i == mu else 0 for i in range(A.ngens))
        target = _target_element(Av, {vi: j + 1, mu: q - 1, lam: 1})
        attach = {i: 0 for i in range(n)}
        attach[lam] = q - 1
        pages[j + 1] = RulePage(j + 1, [Rule(src, target)], attach)
    k_next = t_hi // dm + 1
    min_page = nu_p(p, k_next) + 1
    return DifferentialSchedule(
        v, pages, label=f"v0 p={p} n={n}",
        meta={"case": "v0", "p": p, "n": n, "D": w.max_degree},
        future_target_floor=k_next * dm - 1,
        future_min_page=min_page,
    )


def _ladder_schedule(p: int, w, family: LambdaFamily, v_name: str, v_deg: int,
                     page_of, target_index_of, attach_indices, label: str,
                     meta: Dict[str, object]) -> DifferentialSchedule:
    """Shared builder for the v1/v2/conjecture mu-power ladders.

    Emits one power rule per step s with source mu^{p^{s-1}} while the
    target tower base degree stays inside the reported window; every death
    of an in-window tower is then computable, and anything a not-emitted
    rule could hit lies above the window.
    """
    w = as_window(w)
    A = _thh_algebra(p, family.n)
    v = GeneratorSpec(v_name, v_deg, POLYNOMIAL)
    Av = A.adjoin(v)
    mu = A.ngens - 1
    vi = Av.ngens - 1
    pages: Dict[int, RulePage] = {}
    s = 1
    while True:
        tgt_idx = target_index_of(s)
        if family.degree(tgt_idx) > w.max_degree:
            break
        r = page_of(s)
        base, e = family.entry(tgt_idx)
        target = _target_element(Av, {vi: r, base - 1: 1, mu: e})
        source = tuple(p ** (s - 1) if i == mu else 0 for i in range(A.ngens))
        attach: Dict[int, int] = {}
        for idx in attach_indices(s):
            b, ee = family.entry(idx)
            attach[b - 1] = ee
        pages[r] = RulePage(r, [Rule(source, target)], attach)
        s += 1
    return DifferentialSchedule(
        v, pages, label=label, meta=meta,
        future_target_floor=family.degree(target_index_of(s)),
        future_min_page=page_of(s),
    )


def schedule_v1(p: int, w, variant: Optional[str] = None) -> DifferentialSchedule:
    """d_{r(s,1)}(mu_3^{p^{s-1}}) = v_1^{r(s,1)} lambda_{s+1} for p >= 3.

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
    family = LambdaFamily("v1", p)
    if p == 2 and variant == "B":
        return _schedule_v1_p2_variant_b(w, family)
    return _ladder_schedule(
        p, w, family, "v1", 2 * p - 2,
        page_of=lambda s: r_len(p, s, 1),
        target_index_of=lambda s: s + 1,
        attach_indices=lambda s: (1, s + 1, s + 2),
        label=f"v1 p={p}" + (f" variant {variant}" if variant else ""),
        meta={"case": "v1", "p": p, "D": w.max_degree, "variant": variant},
    )


def _schedule_v1_p2_variant_b(w: Window, family: LambdaFamily) -> DifferentialSchedule:
    p = 2
    A = _thh_algebra(p, 2)
    v = GeneratorSpec("v1", 2 * p - 2, POLYNOMIAL)
    Av = A.adjoin(v)
    mu = A.ngens - 1
    vi = Av.ngens - 1
    pages: Dict[int, RulePage] = {}
    # the candidate differential the paper could not rule out
    lam3 = tuple(1 if i == 2 else 0 for i in range(A.ngens))
    pages[2] = RulePage(2, [Rule(lam3, _target_element(Av, {vi: 2, 0: 1, 1: 1}))])
    # the first ladder differential is unaffected by it
    if family.degree(2) <= w.max_degree:
        r = r_len(p, 1, 1)
        src = tuple(1 if i == mu else 0 for i in range(A.ngens))
        pages[r] = RulePage(r, [Rule(src, _target_element(Av, {vi: r, 1: 1}))],
                            attach={0: 0, 1: 0})
    # past this point the branch is uncharted; everything above lambda_3's
    # degree stays unknown
    return DifferentialSchedule(
        v, pages, label="v1 p=2 variant B",
        meta={"case": "v1", "p": p, "D": w.max_degree, "variant": "B"},
        future_target_floor=family.degree(3),
        future_min_page=r_len(p, 2, 1),
    )


def schedule_v2(p: int, w) -> DifferentialSchedule:
    """d_{r(s,2)}(mu_3^{p^{s-1}}) = v_2^{r(s,2)} lambda_s, all primes."""
    w = as_window(w)
    family = LambdaFamily("v2", p)
    return _ladder_schedule(
        p, w, family, "v2", 2 * p * p - 2,
        page_of=lambda s: r_len(p, s, 2),
        target_index_of=lambda s: s,
        attach_indices=lambda s: (s, s + 1, s + 2),
        label=f"v2 p={p}",
        meta={"case": "v2", "p": p, "D": w.max_degree},
    )


def schedule_conj(p: int, n: int, m: int, w) -> DifferentialSchedule:
    """Conjectural ladder d_{r_n(s,m)}(mu_{n+1}^{p^{s-1}}) = v_m^r lambda_{n-m+s}."""
    w = as_window(w)
    if not 1 <= m <= n:
        raise ScheduleError("need 1 <= m <= n")
    if m == 1 and p == 2:
        raise AmbiguousPatternError("ambiguous pattern (paper Remark)")
    family = LambdaFamily("conj", p, n=n, m=m)
    permanents = tuple(range(1, n - m + 1))
    return _ladder_schedule(
        p, w, family, f"v{m}", 2 * p**m - 2,
        page_of=lambda s: r_conj(p, n, m, s),
        target_index_of=lambda s: n - m + s,
        attach_indices=lambda s: permanents + tuple(range(n - m + s, n + s + 1)),
        label=f"conj p={p} n={n} m={m}",
        meta={"case": "conj", "p": p, "n": n, "m": m, "D": w.max_degree,
              "conjectural": True},
    )


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
        cur = final if final.r == r else PageData(r, final.ctx, final.degrees, final.fired, final)
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
        levels = final.degrees.get(b)
        if levels is None:
            continue
        hit = future_floor is not None and b >= future_floor
        if localized:
            # with v inverted a later differential removes its target's
            # Laurent tower as well as its source's, so a future hit may
            # leave nothing
            length = Unknown(possibly_absent=True) if hit else INF
            for _ in range(levels[-1].dim):
                prof.add(b, length)
            continue
        _read_column(prof, b, levels, final.fired, future_min_page if hit else None,
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


def _read_column(prof: TowerProfile, b: int, levels: Sequence[Cell], fired: Sequence[int],
                 future_min_page: Optional[int], leaving: Callable[[Cell], int]) -> None:
    """Add the towers of the v-tower at base b from its boundary levels:
    levels[k] holds the classes that survive the boundaries of the first k
    fired pages, so the classes page fired[k - 1] kills are towers of that
    length.  With a future page at future_min_page, the classes left after
    the pages below it are unknown; leaving(cell) counts those that may
    support an unfired differential."""
    dims = [cell.dim for cell in levels]
    for k in range(1, len(dims)):
        if dims[k] > dims[k - 1]:
            raise EngineAssertionError(
                f"dimensions increase along the v-tower at base degree {b}")
    # observations past the smallest unfired page are not trustworthy
    trusted = len(fired) if future_min_page is None else bisect_right(fired, future_min_page - 1)
    for k in range(1, trusted + 1):
        for _ in range(dims[k - 1] - dims[k]):
            prof.add(b, fired[k - 1])
    top = dims[trusted]
    if future_min_page is None:
        for _ in range(top):
            prof.add(b, INF)
        return
    # a class that may support an unfired differential may hold no tower at
    # all, so it gets no lower bound; the rest can only be hit later
    absent = leaving(levels[trusted]) if top else 0
    for _ in range(absent):
        prof.add(b, Unknown(possibly_absent=True))
    for _ in range(top - absent):
        prof.add(b, Unknown(future_min_page))
