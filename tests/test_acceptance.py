"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -v -s tests/test_acceptance.py`).

All comparisons are exact; there are no tolerances anywhere.  The engine's
d o d = 0, well-definedness and dimension-bookkeeping checks are hard
assertions inside apply_page, so every run below exercises them.
"""

import functools
import itertools
import random
import time

from bockstein.algebra import Algebra, multiply
from bockstein.cases import Case
from bockstein.closedform import (
    localized_expected,
    rational_thh_dims,
    t0n_profile,
    t12_profile,
    t22_profile,
    thh_mod_p_algebra,
    tmn_profile,
)
from bockstein.engine import DifferentialSchedule, Rule, RulePage, Window, run, schedule_v0
from bockstein.formulas import (
    d_deg,
    deg_mu,
    r_len,
)
from bockstein.towers import INF, TowerProfile, compare
from conftest import random_homogeneous
import golden
from reference import d_deg_explicit, derivation_extend


def report(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.monotonic()
            try:
                fn(*a, **k)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL ({time.monotonic() - t0:.1f}s) {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS ({time.monotonic() - t0:.1f}s) {desc}")
        return wrapper
    return deco


# runs shared between criteria are made once
_run_case = functools.lru_cache(maxsize=None)(Case.run)


def _exact_match(prof, oracle, D):
    rep = compare(prof, oracle, D)
    assert rep.ok, rep.lines()[:8]
    assert not rep.unverified, rep.unverified[:8]
    assert not prof.has_unknown()
    assert prof == oracle


@report(1, "v0 certification p=2 n=2 D=58 equals T_0^2 and the chart (< 10 s)")
def test_criterion_1():
    t0 = time.monotonic()
    sched, pages, prof = _run_case(Case("v0", 2, 58, n=2))
    _exact_match(prof, t0n_profile(2, 2, 58), 58)
    # the chart fixture, frozen: three displayed pages and the four groups
    assert [pd.r for pd in pages] == [1, 2, 3]
    for d in (0, 3, 7, 10):
        assert prof.lengths(d) == [INF]
    for d in (15, 18, 22, 25, 47, 50, 54, 57):
        assert prof.lengths(d) == [1]
    for d in (31, 34, 38, 41):
        assert prof.lengths(d) == [2]
    assert time.monotonic() - t0 < 10


@report(2, "v0 certification p=3 n=2 D=300 and p=2 n=3 D=200 exact (< 60 s each)")
def test_criterion_2():
    for (p, n, D) in ((3, 2, 300), (2, 3, 200)):
        t0 = time.monotonic()
        sched, pages, prof = _run_case(Case("v0", p, D, n=n))
        _exact_match(prof, t0n_profile(p, n, D), D)
        assert time.monotonic() - t0 < 60


@report(3, "v1 certification p=3 D=400 equals T_1^2 incl. lengths 9/27/90 (< 5 min)")
def test_criterion_3():
    t0 = time.monotonic()
    sched, pages, prof = _run_case(Case("v1", 3, 400))
    assert {9, 27, 90} <= set(sched.pages)
    _exact_match(prof, t12_profile(3, 400), 400)
    for d in (17, 22, 70, 75):
        assert prof.lengths(d) == [9]
    for d in (53, 58, 178, 183):
        assert prof.lengths(d) == [27]
    for d in (125, 130):
        assert prof.lengths(d) == [90]
    assert prof.lengths(0) == [INF] and prof.lengths(5) == [INF]
    assert time.monotonic() - t0 < 300


@report(4, "v2 certification p=2 D=160 (pages 2,4,8,18,...) and p=3 D=200 exact (< 5 min each)")
def test_criterion_4():
    t0 = time.monotonic()
    sched, pages, prof = _run_case(Case("v2", 2, 160))
    assert {2, 4, 8, 18} <= set(sched.pages)
    _exact_match(prof, t22_profile(2, 160), 160)
    assert time.monotonic() - t0 < 300
    t0 = time.monotonic()
    sched, pages, prof = _run_case(Case("v2", 3, 200))
    assert {3, 9, 27} <= set(sched.pages)
    _exact_match(prof, t22_profile(3, 200), 200)
    assert time.monotonic() - t0 < 300


@report(5, "localized runs: v1 p=3 gives {1, lambda_1}; v2 p=2,3 give {1}; exact")
def test_criterion_5():
    _, _, prof = _run_case(Case("v1", 3, 120, localized=True))
    assert dict(prof.towers) == {0: [INF], 5: [INF]}
    assert localized_expected("v1", 3) == {0: 1, 5: 1}
    for p in (2, 3):
        _, _, prof = _run_case(Case("v2", p, 120, localized=True))
        assert dict(prof.towers) == {0: [INF]}


@report(6, "conjecture consistency: T_m^n specializations and engine runs, exact")
def test_criterion_6():
    for p in (3, 5):
        assert tmn_profile(p, 2, 1, 400) == t12_profile(p, 400)
        assert tmn_profile(p, 2, 2, 300) == t22_profile(p, 300)
    for (n, m) in ((3, 1), (3, 2)):
        sched, pages, prof = _run_case(Case("conj", 3, 200, n=n, m=m))
        assert sched.conjectural  # labeled, not asserted as truth
        _exact_match(prof, tmn_profile(3, n, m, 200), 200)


@report(7, "formula identities for n <= 30, p in {2,3,5,7}; recursive = explicit (< 1 s)")
def test_criterion_7():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7):
        for n in range(1, 31):
            assert deg_mu(p, 2) * p ** (n - 1) - 1 - d_deg(p, n + 1, 1) == \
                (2 * p - 2) * r_len(p, n, 1)
            assert 2 * p ** (n + 2) - d_deg(p, n, 2) - 1 == \
                (2 * p * p - 2) * r_len(p, n, 2)
        for m in (1, 2):
            for n in range(1, 41):
                assert d_deg(p, n, m) == d_deg_explicit(p, n, m)
    assert time.monotonic() - t0 < 1


@report(8, "property suites: d o d, recorded pages, Leibniz 10^4/prime, unit-robustness, "
           "localization, Kuenneth, rational free parts")
def test_criterion_8():
    # d_r o d_r = 0 is asserted inside apply_page on every run above; the
    # pages (classes, representatives, differential ranks) equal the
    # recorded documents
    for c in (Case("v0", 2, 58, n=2), Case("v2", 3, 200)):
        assert golden.same_documents(c)

    # signed Leibniz on 10^4 random pairs per prime, exactly
    for p in (2, 3, 5):
        A = thh_mod_p_algebra(p, 1)
        rules = {"μ2": {A.monomial(**{"λ2": 1}): 1}}
        rng = random.Random(100 + p)
        cache = {}
        for _ in range(10_000):
            d1, d2 = rng.randint(0, 12), rng.randint(0, 12)
            x = random_homogeneous(rng, A, d1, cache)
            y = random_homogeneous(rng, A, d2, cache)
            lhs = derivation_extend(rules, multiply(x, y, A), A)
            rhs = multiply(derivation_extend(rules, x, A), y, A)
            sign = -1 if d1 % 2 else 1
            for mm, c in multiply(x, derivation_extend(rules, y, A), A).items():
                c = (rhs.get(mm, 0) + sign * c) % p
                if c:
                    rhs[mm] = c
                else:
                    rhs.pop(mm, None)
            assert lhs == rhs

    # unit-robustness of the tower profile at p=3, v1 and v2 cases, D=120
    for kind in ("v1", "v2"):
        _, _, prof1 = Case(kind, 3, 120).run()
        for unit in (2,):
            A, scaled, w = Case(kind, 3, 120).build()
            for pg in scaled.pages.values():
                pg.rules[:] = [Rule(rule.source, {mm: (unit * c) % 3
                                                  for mm, c in rule.target.items()})
                               for rule in pg.rules]
            _, prof2 = run(A, scaled, w)
            assert prof1 == prof2

    # localization, D = 120: exactly the free towers survive with v
    # inverted, and the localized pages equal the recorded ones
    for kind in ("v1", "v2"):
        _, _, plain = _run_case(Case(kind, 3, 120))
        _, _, local = _run_case(Case(kind, 3, 120, localized=True))
        free = {t: [x for x in plain.lengths(t) if x == INF] for t in plain.degrees()}
        assert dict(local.towers) == {t: v for t, v in free.items() if v}
        assert golden.same_documents(Case(kind, 3, 120, localized=True))

    # Kuenneth on the engine, by the free (x) tower case of the Bockstein
    # Kuenneth theorem (J. P. May, A primer on the Bockstein spectral
    # sequence): the v0 run on E(lambda_1..lambda_{n+1}) (x) P(mu_{n+1}) is
    # the run on B = E(lambda_{n+1}) (x) P(mu_{n+1}), with the same pages
    # projected to B's generators, times the free towers of
    # E(lambda_1..lambda_n), on which every page's rule vanishes
    for (p, n, D) in ((2, 2, 58), (3, 2, 300), (2, 3, 200)):
        A, w = thh_mod_p_algebra(p, n), Window(D)
        sched = schedule_v0(p, n, w)
        _, prof = run(A, sched, w)
        B = Algebra(p, A.generators[n:])
        pages = {}
        for r, page in sched.pages.items():
            rules = []
            for rule in page.rules:
                assert not any(rule.source[:n]) and not any(any(m[:n]) for m in rule.target)
                rules.append(Rule(rule.source[n:], {m[n:]: c for m, c in rule.target.items()}))
            pages[r] = RulePage(r, rules, {i - n: c for i, c in page.attach.items() if i >= n})
        _, prof_b = run(B, DifferentialSchedule(
            sched.v, pages, future_target_floor=sched.future_target_floor,
            future_min_page=sched.future_min_page), w)
        assert not prof_b.has_unknown()
        want = TowerProfile(D)
        for k in range(n + 1):
            for subset in itertools.combinations(A.generators[:n], k):
                shift = sum(g.degree for g in subset)
                for t in prof_b.degrees():
                    if t + shift <= D:
                        for length in prof_b.lengths(t):
                            want.add(t + shift, length)
        assert prof == want

    # rational free part vs t0n free part, n <= 3, p in {2, 3}
    for p in (2, 3):
        for n in (0, 1, 2, 3):
            prof = t0n_profile(p, n, 150)
            free = {d: sum(1 for x in prof.lengths(d) if x == INF) for d in prof.degrees()}
            free = {d: c for d, c in free.items() if c}
            assert free == rational_thh_dims(p, n, 150)
