import pytest

from bockstein.algebra import GeneratorSpec, POLYNOMIAL, derivation_extend, element
from bockstein.cases import Case
from bockstein.closedform import (
    t0n_profile,
    t12_profile,
    t22_profile,
    thh_mod_p_algebra,
)
from bockstein.engine import (
    AmbiguousPatternError,
    DeadSourceError,
    MalformedRuleError,
    ScheduleError,
    Window,
    apply_page,
    build_e1,
    run,
    schedule_conj,
    schedule_v0,
    schedule_v1,
    schedule_v2,
)
from bockstein.towers import INF, compare
import golden


def v_gen(name, deg):
    return GeneratorSpec(name, deg, POLYNOMIAL)


def test_build_e1_dims():
    A = thh_mod_p_algebra(2, 2)
    pd = build_e1(A, v_gen("v0", 0), Window(16), pages=(1, 2))
    assert max(s for (_t, s) in pd.cells) == 7  # sum(pages) + 2 + max(pages)
    for s in range(0, 8):
        assert pd.dim(15, s) == 1  # lambda_3 v0^s
        assert pd.dim(1, s) == 0
    assert pd.r == 1 and not pd.diffs


def test_build_e1_localized_laurent_class():
    A = thh_mod_p_algebra(2, 2)
    pd = build_e1(A, v_gen("v2", 6), Window(12), localized=True)
    cell = pd.cells.get((3, -2))  # lambda_3 v2^{-2}
    assert cell is not None and cell.dim == 1
    assert cell.monomials == (A.monomial(**{"λ3": 1}),)
    # the view lists -floor(D/|v|) <= s <= floor(D/|v|)
    assert {s for (_t, s) in pd.cells} == set(range(-2, 3))


def test_apply_page_empty_rules_increments():
    A = thh_mod_p_algebra(2, 2)
    pd = build_e1(A, v_gen("v0", 0), Window(16))
    nxt = apply_page(pd, [])
    assert nxt.r == 2 and nxt.degrees is pd.degrees and nxt.fired == ()


def test_apply_page_v2_tower_length_two():
    # d_2(mu_3) = v_2^2 lambda_1 at p=2: the lambda_1 slant keeps s = 0, 1 only
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v2", 6)
    pd = apply_page(build_e1(A, v, Window(40), pages=(2,)), [])
    mu = A.monomial(**{"μ3": 1})
    Av = A.adjoin(v)
    target = element(Av, (1, Av.monomial(**{"λ1": 1, "v2": 2})))
    nxt = apply_page(pd, [(mu, target)])
    dims = [nxt.dim(3 + 6 * j, j) for j in range(5)]
    assert dims == [1, 1, 0, 0, 0]


def test_apply_page_leibniz_matches_derivation_extend():
    # p=3 v0 case: d_1(mu_3) = v0 lambda_3 kills lambda_1 mu_3 with target
    # v0 lambda_1 lambda_3 (sign absorbed in the unit)
    A = thh_mod_p_algebra(3, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(120), pages=(1,))
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})))
    nxt = apply_page(pd, [(mu, target)])
    key = (5 + 54, 0)  # lambda_1 mu_3
    rec = pd.diffs.get(key)
    assert rec is not None and rec.rank == 1
    # cross-check the matrix against the signed derivation on the monomial
    hand = derivation_extend({"μ3": target}, {Av.monomial(**{"λ1": 1, "μ3": 1}): 1}, Av)
    tcell = pd.cells[rec.target]
    want = [0] * len(tcell.monomials)
    for m, c in hand.items():
        want[tcell.monomials.index(m[:-1])] = c
    assert rec.matrix == [want]
    # and the class is dead on the next page
    assert nxt.dim(*key) == 0


def test_apply_page_dead_source_error():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(40), pages=(1, 2))
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 1})))
    nxt = apply_page(pd, [(mu, target)])
    # mu_3 supported d_1, so it is dead on page 2
    t2 = element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 2})))
    with pytest.raises(DeadSourceError):
        apply_page(nxt, [(mu, t2)])


def test_apply_page_beyond_the_given_pages_errors():
    # with |v| > 0 the kept A-degrees are fixed by the largest page given to
    # build_e1; a later page would draw boundaries from degrees not kept
    from bockstein.engine import EngineError

    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v2", 6)
    Av = A.adjoin(v)
    pd = apply_page(build_e1(A, v, Window(40), pages=(1,)), [])
    mu = A.monomial(**{"μ3": 1})
    target = element(Av, (1, Av.monomial(**{"λ1": 1, "v2": 2})))
    with pytest.raises(EngineError, match="above the A-degrees kept"):
        apply_page(pd, [(mu, target)])


def test_apply_page_malformed_rule_errors():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(40), pages=(1,))
    mu = A.monomial(**{"μ3": 1})
    with pytest.raises(MalformedRuleError):
        # wrong degree: target must sit one below the source
        apply_page(pd, [(mu, element(Av, (1, Av.monomial(**{"λ2": 1, "v0": 1}))))])
    with pytest.raises(MalformedRuleError):
        # wrong filtration shift: v-exponent 2 on page 1
        apply_page(pd, [(mu, element(Av, (1, Av.monomial(**{"λ3": 1, "v0": 2}))))])


def test_schedule_v0_page_assignment():
    sched = schedule_v0(2, 2, Window(58))
    by_page = {r: sorted(src[3] for src, _ in rules) for r, rules in sched.rules.items()}
    assert by_page == {1: [1, 3], 2: [2]}
    assert sched.max_page == 2
    assert sched.meta["case"] == "v0"


def test_schedule_v1_paper_pages():
    sched = schedule_v1(3, Window(400))
    pages = sorted(sched.pages)
    assert pages[:3] == [9, 27, 90]
    for r, exp in zip(pages, (1, 3, 9)):
        assert sched.pages[r].rules[0].source == (0, 0, 0, exp)
    # one ladder at odd p: a p = 2 variant is an error, not a relabelling
    with pytest.raises(ScheduleError, match="variant"):
        schedule_v1(3, Window(400), variant="B")


def test_schedule_v2_paper_pages():
    sched = schedule_v2(2, Window(160))
    pages = sorted(sched.pages)
    assert pages[:4] == [2, 4, 8, 18]
    for r, exp in zip(pages, (1, 2, 4, 8)):
        assert sched.pages[r].rules[0].source == (0, 0, 0, exp)


def test_schedule_v1_p2_needs_variant():
    with pytest.raises(AmbiguousPatternError):
        schedule_v1(2, Window(60))
    a = schedule_v1(2, Window(60), variant="A")
    b = schedule_v1(2, Window(60), variant="B")
    assert sorted(a.pages) != sorted(b.pages)  # B carries extra remark pages
    # B fires the Remark's first candidate, d_2(lambda_3) = v1^2 lambda_1 lambda_2
    A = thh_mod_p_algebra(2, 2)
    (rule,) = b.pages[2].rules
    assert rule.source == A.monomial(**{"λ3": 1})
    assert rule.target == {A.adjoin(b.v).monomial(**{"λ1": 1, "λ2": 1, "v1": 2}): 1}
    assert 2 not in a.pages
    # both variants run without internal inconsistencies
    for sched in (a, b):
        run(A, sched, Window(60))


def test_schedule_conj_p2_m1_ambiguous():
    with pytest.raises(AmbiguousPatternError):
        schedule_conj(2, 3, 1, Window(60))


def test_run_v0_chart():
    A = thh_mod_p_algebra(2, 2)
    pages, prof = run(A, schedule_v0(2, 2, Window(58)), Window(58))
    assert compare(prof, t0n_profile(2, 2, 58), 58).ok
    assert prof.lengths(31) == [2] and prof.lengths(0) == [INF]
    # pages list: E_1 (= first fired page), fired page 2, final
    assert [pd.r for pd in pages] == [1, 2, 3]


def test_run_localized_small():
    A = thh_mod_p_algebra(3, 2)
    _, prof = run(A, schedule_v1(3, Window(60)), Window(60), localized=True)
    assert dict(prof.towers) == {0: [INF], 5: [INF]}
    _, prof = run(A, schedule_v2(3, Window(60)), Window(60), localized=True)
    assert dict(prof.towers) == {0: [INF]}


def test_unit_robustness_small():
    # rescaling every rule target by a unit leaves the profile unchanged
    A = thh_mod_p_algebra(3, 2)
    w = Window(60)
    base = schedule_v2(3, w)
    _, prof1 = run(A, base, w)
    scaled = schedule_v2(3, w)
    for pg in scaled.pages.values():
        for i, rule in enumerate(pg.rules):
            pg.rules[i] = type(rule)(rule.source,
                                     {m: (2 * c) % 3 for m, c in rule.target.items()},
                                     rule.mode)
    _, prof2 = run(A, scaled, w)
    assert prof1 == prof2


def test_rederive_pages():
    # every page's classes, representatives and differential ranks equal
    # the recorded documents (see golden.py)
    assert golden.same_documents(Case("v2", 3, 80))


def test_localization_injectivity_small():
    # with v inverted exactly the free towers survive, and the localized
    # pages equal the recorded ones on their filtration range
    for kind in ("v1", "v2"):
        _, _, plain = Case(kind, 3, 60).run()
        _, _, local = Case(kind, 3, 60, localized=True).run()
        free = {t: [x for x in plain.lengths(t) if x == INF] for t in plain.degrees()}
        assert dict(local.towers) == {t: v for t, v in free.items() if v}
        assert golden.same_documents(Case(kind, 3, 60, localized=True))


def test_page_cap_reports_unknown():
    # stopping before the ladder's last page must not fake certainty
    A = thh_mod_p_algebra(3, 2)
    w = Window(130)
    sched = schedule_v1(3, w)
    _, prof = run(A, sched, w, page_cap=27)
    rep = compare(prof, t12_profile(3, 130), 130)
    assert rep.ok  # unknowns match, nothing contradicts
    assert prof.has_unknown()
    full = run(A, sched, w)[1]
    assert not full.has_unknown()


def test_engine_matches_t22_small():
    A = thh_mod_p_algebra(2, 2)
    _, prof = run(A, schedule_v2(2, Window(40)), Window(40))
    rep = compare(prof, t22_profile(2, 40), 40)
    assert rep.ok and not rep.unverified


CROSS = [
    Case("v0", 5, 300, n=1),
    Case("v0", 3, 100, n=0),   # the height-0 specialization
    Case("v1", 5, 150),
    Case("v2", 5, 120),
    Case("conj", 5, 150, n=3, m=2),
    Case("conj", 3, 250, n=4, m=2),
    Case("conj", 3, 160, n=4, m=3),
]


@pytest.mark.parametrize("case", CROSS, ids=lambda c: f"{c.kind}-{c.p}-{c.height}-{c.m}-{c.D}")
def test_cross_validation_other_parameters(case):
    _, _, prof = case.run()
    oracle = case.oracle()
    rep = compare(prof, oracle, case.D)
    assert rep.ok and not rep.unverified and not prof.has_unknown()
    assert prof == oracle


def test_apply_page_rejects_a_differential_not_defined_on_classes():
    # d_1(z) = v0 (x + y) makes x + y a boundary from filtration 1 on; a
    # d_2 with d_2(y) = v0^2 and d_2(x) = 0 is nonzero on that boundary, so
    # it takes different values on the classes of filtrations 0 and 1
    from bockstein.algebra import EXTERIOR, Algebra
    from bockstein.engine import EXACT, EngineAssertionError, Rule, RulePage

    A = Algebra(2, (GeneratorSpec("x", 1, EXTERIOR), GeneratorSpec("y", 1, EXTERIOR),
                    GeneratorSpec("z", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(0), pages=(1, 2))  # keeps A-degrees 0..2
    d1 = element(Av, (1, Av.monomial(x=1, v0=1)), (1, Av.monomial(y=1, v0=1)))
    pd = apply_page(pd, [(A.monomial(z=1), d1)])
    d2 = Rule(A.monomial(y=1), element(Av, (1, Av.monomial(v0=2))), EXACT)
    with pytest.raises(EngineAssertionError, match="depends on the representatives"):
        apply_page(pd, RulePage(2, [d2]))
