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
    EngineContext,
    MalformedRuleError,
    PageData,
    Rule,
    RulePage,
    ScheduleError,
    Window,
    _d_of_monomial,
    _page_generators,
    apply_page,
    build_e1,
    run,
    schedule_conj,
    schedule_v0,
    schedule_v1,
    schedule_v2,
)
from bockstein.formulas import nu_p
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
    assert nxt.prev is pd and not nxt.changed


@pytest.mark.parametrize("order", ["forward", "backward"])
@pytest.mark.parametrize("case", [
    Case("v0", 2, 58, n=2), Case("v1", 3, 130), Case("v2", 2, 120, page_cap=2),
    Case("v2", 2, 120, page_cap=8), Case("v2", 3, 120, localized=True),
    Case("v1", 2, 60, variant="B"),
], ids=golden.case_id)
def test_derived_views_equal_whole_views(case, order):
    # every page after E_1 patches its view from the page it was made from;
    # read in either order, the view has the keys, in the same order, and
    # the very Cell objects of a view built over the whole window
    _, pages, _ = case.run()
    assert pages[0].prev is None and all(pd.prev is not None for pd in pages[1:])
    for pd in (pages if order == "forward" else pages[::-1]):
        whole = PageData(pd.r, pd.ctx, pd.degrees, pd.fired).cells
        assert list(pd.cells) == list(whole)
        assert all(pd.cells[key] is cell for key, cell in whole.items())


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


def page_derivations(A, sched, D):
    """d_r of a monomial on each page of the schedule, as the engine runs it."""
    ctx = EngineContext(A, sched.v, False, D, sorted(sched.pages))
    gens = {r: _page_generators(A, pg) for r, pg in sched.pages.items()}
    return lambda r, m: _d_of_monomial(ctx, gens[r], m)


def test_schedule_v0_page_assignment():
    # one power rule per page, and its Leibniz extension is the paper's
    # d_{nu_p(k)+1}(mu^k) = v0^{nu_p(k)+1} mu^{k-1} lambda_{n+1} up to a unit
    sched = schedule_v0(2, 2, Window(58))
    assert sorted(sched.pages) == [1, 2] and sched.meta["case"] == "v0"
    D = 1200
    for p in (2, 3, 5):
        for n in (0, 1, 2):
            A = thh_mod_p_algebra(p, n)
            sched = schedule_v0(p, n, Window(D))
            assert all(len(pg.rules) == 1 for pg in sched.pages.values())
            d = page_derivations(A, sched, D)
            mu, lam = f"μ{n + 1}", f"λ{n + 1}"
            k = 1
            while k * A.degree(A.monomial(**{mu: 1})) <= D:
                m = A.monomial(**{mu: k})
                for r in sched.pages:
                    image = d(r, m)
                    if r == nu_p(p, k) + 1:
                        (target, c), = image.items()
                        assert target == A.monomial(**{mu: k - 1, lam: 1}) and c % p
                    else:
                        assert image == {}, (p, n, k, r)
                    assert d(r, A.monomial(**{mu: k, lam: 1})) == {}
                k += 1


def test_variant_b_exterior_rule_on_cycles():
    # variant B's d_2(lambda_3) = v1^2 lambda_1 lambda_2 is a rule on an
    # exterior generator; mu is a cycle of page 2, so d_2(lambda_3 mu^k) =
    # lambda_1 lambda_2 mu^k, and the run records exactly those maps
    A = thh_mod_p_algebra(2, 2)
    D = 120
    sched = schedule_v1(2, Window(D), variant="B")
    d = page_derivations(A, sched, D)
    for k in range(D // 16 + 1):
        assert d(2, A.monomial(**{"λ3": 1, "μ3": k})) == {A.monomial(λ1=1, λ2=1, μ3=k): 1}
        assert d(2, A.monomial(**{"μ3": k})) == {}
    pages, _ = run(A, sched, Window(D))
    e2 = next(pd for pd in pages if pd.r == 2)
    src = {(15 + 16 * k, 0) for k in range(D // 16 + 1) if 15 + 16 * k <= D + 1}
    assert {key for key, rec in e2.diffs.items() if key[1] == 0} >= src
    for key in src:
        rec = e2.diffs[key]
        assert rec.rank == 1 and rec.target == (key[0] - 1, 2)
        assert e2.cells[rec.target].monomials == (A.monomial(λ1=1, λ2=1, μ3=(key[0] - 15) // 16),)


def test_monomials_that_do_not_factor_over_the_page_generators():
    A = thh_mod_p_algebra(2, 2)
    # variant B's page 4 fires d_4(mu_3) = v1^4 lambda_2 with lambda_1 and
    # lambda_2 live; lambda_3 supported d_2, so it is no page generator
    sched = schedule_v1(2, Window(120), variant="B")
    d = page_derivations(A, sched, 120)
    assert sched.pages[4].attach == {0: 0, 1: 0}
    assert d(4, A.monomial(λ1=1, μ3=1)) == {A.monomial(λ1=1, λ2=1): 1}
    assert d(4, A.monomial(λ3=1, μ3=1)) == {}
    # v2 at p = 2: page 4 fires on mu_3^2, and lambda_1 mu_3 is a page
    # generator; a mu-exponent that mu_3^2 and the attachments do not use
    # up gives no factorization, so zero
    sched = schedule_v2(2, Window(160))
    d = page_derivations(A, sched, 160)
    assert sched.pages[4].attach[0] == 1
    assert d(4, A.monomial(μ3=2)) == {A.monomial(λ2=1): 1}
    assert d(4, A.monomial(μ3=3)) == {}
    assert d(4, A.monomial(λ1=1, μ3=2)) == {}
    assert d(4, A.monomial(λ1=1, μ3=3)) == {A.monomial(λ1=1, λ2=1, μ3=1): 1}


def test_rule_source_must_be_a_page_generator():
    A = thh_mod_p_algebra(2, 2)
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(40), pages=(1,))
    # lambda_1 mu_3 is a product of two page generators of a page with no
    # attachments, not one of them
    src = A.monomial(λ1=1, μ3=1)
    target = element(Av, (1, Av.monomial(λ1=1, λ3=1, v0=1)))
    with pytest.raises(MalformedRuleError, match="page generator"):
        apply_page(pd, [(src, target)])
    # and a second power rule on a page is not one either
    mu, mu2 = A.monomial(μ3=1), A.monomial(μ3=2)
    rules = [(mu, element(Av, (1, Av.monomial(λ3=1, v0=1)))),
             (mu2, element(Av, (1, Av.monomial(λ3=1, μ3=1, v0=1))))]
    with pytest.raises(MalformedRuleError, match="page generator"):
        apply_page(pd, rules)
    # a mu-power attached to an exterior generator needs the page's mu
    lam3 = (A.monomial(λ3=1), element(Av, (1, Av.monomial(λ1=1, λ2=1, v0=1))))
    with pytest.raises(MalformedRuleError, match="no power rule"):
        apply_page(pd, RulePage(1, [Rule(*lam3)], attach={0: 0, 1: 0, 2: 1}))


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
        pg.rules[:] = [Rule(rule.source, {m: (2 * c) % 3 for m, c in rule.target.items()})
                       for rule in pg.rules]
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
    from bockstein.engine import EngineAssertionError

    A = Algebra(2, (GeneratorSpec("x", 1, EXTERIOR), GeneratorSpec("y", 1, EXTERIOR),
                    GeneratorSpec("z", 2, POLYNOMIAL)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(0), pages=(1, 2))  # keeps A-degrees 0..2
    d1 = element(Av, (1, Av.monomial(x=1, v0=1)), (1, Av.monomial(y=1, v0=1)))
    pd = apply_page(pd, [(A.monomial(z=1), d1)])
    d2 = Rule(A.monomial(y=1), element(Av, (1, Av.monomial(v0=2))))  # exterior generator
    with pytest.raises(EngineAssertionError, match="depends on the representatives"):
        apply_page(pd, RulePage(2, [d2]))


def test_apply_page_rejects_a_differential_that_does_not_square_to_zero():
    # d_1(z) = v0 y and d_1(y) = v0 x, extended by Leibniz, give
    # d_1 d_1(z) = v0^2 x, a nonzero composite out of A-degree 3
    from bockstein.algebra import EXTERIOR, Algebra
    from bockstein.engine import EngineAssertionError

    A = Algebra(2, (GeneratorSpec("x", 1, EXTERIOR), GeneratorSpec("y", 2, EXTERIOR),
                    GeneratorSpec("z", 3, EXTERIOR)))
    v = v_gen("v0", 0)
    Av = A.adjoin(v)
    pd = build_e1(A, v, Window(3), pages=(1,))
    rules = [(A.monomial(z=1), element(Av, (1, Av.monomial(y=1, v0=1)))),
             (A.monomial(y=1), element(Av, (1, Av.monomial(x=1, v0=1))))]
    with pytest.raises(EngineAssertionError, match="d_1 o d_1 != 0 out of A-degree 3"):
        apply_page(pd, rules)
