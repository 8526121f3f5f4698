from collections import Counter

import pytest

from bockstein import closedform
from bockstein.closedform import (
    TorsionGenerator,
    TorsionPresentation,
    _exterior_subsets,
    localized_expected,
    rational_thh_dims,
    t0n_presentation,
    t0n_profile,
    t12_presentation,
    t12_profile,
    t22_presentation,
    t22_profile,
    thh_mod_p_algebra,
    tmn_presentation,
    tmn_profile,
)
from bockstein.algebra import EXTERIOR, POLYNOMIAL, GeneratorSpec, graded_dims, sparse_monomial
from bockstein.formulas import FormulaError, deg_lambda, deg_mu, nu_p, r_conj
from bockstein.towers import INF, TowerProfile


def test_thh_mod_p_algebra_degrees():
    A = thh_mod_p_algebra(2, 2)
    assert [g.degree for g in A.generators] == [3, 7, 15, 16]
    A = thh_mod_p_algebra(3, 2)
    assert [g.degree for g in A.generators] == [5, 17, 53, 54]
    A = thh_mod_p_algebra(5, 0)
    assert [(g.name, g.degree) for g in A.generators] == [("λ1", 9), ("μ1", 10)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_thh_mod_p_algebra_matches_the_degree_formulas(p):
    for n in range(41):
        want = [GeneratorSpec(f"λ{i}", deg_lambda(p, i), EXTERIOR) for i in range(1, n + 2)]
        want.append(GeneratorSpec(f"μ{n + 1}", deg_mu(p, n), POLYNOMIAL))
        assert thh_mod_p_algebra(p, n).generators == tuple(want)


def test_rational_dims():
    assert rational_thh_dims(3, 2, 30) == {0: 1, 5: 1, 17: 1, 22: 1}
    assert rational_thh_dims(7, 0, 40) == {0: 1}
    assert rational_thh_dims(2, 2, 12) == {0: 1, 3: 1, 7: 1, 10: 1}


def test_t0n_chart_fixture():
    prof = t0n_profile(2, 2, 58)
    want = TowerProfile(58)
    for d in (0, 3, 7, 10):
        want.add(d, INF)
    for d in (15, 18, 22, 25, 47, 50, 54, 57):
        want.add(d, 1)
    for d in (31, 34, 38, 41):
        want.add(d, 2)
    assert prof == want


def test_t0n_bokstedt_shape():
    # n = 0: infinite tower at 0 only, torsion lambda_1(i) of length nu(i)+1
    for p in (2, 3):
        prof = t0n_profile(p, 0, 20 * p)
        assert prof.lengths(0) == [INF]
        i = 1
        while 2 * i * p - 1 <= 20 * p:
            assert prof.lengths(2 * i * p - 1) == [nu_p(p, i) + 1]
            i += 1


def test_t12_fixtures():
    prof = t12_profile(3, 130)
    assert prof.lengths(0) == [INF] and prof.lengths(5) == [INF]
    for d in (17, 22):
        assert prof.lengths(d) == [9]
    for d in (53, 58):
        assert prof.lengths(d) == [27]
    for d in (125, 130):
        assert prof.lengths(d) == [90]
    prof80 = t12_profile(3, 80)
    assert prof80.lengths(70) == [9] and prof80.lengths(75) == [9]
    prof10 = t12_profile(3, 10)
    assert prof10.degrees() == [0, 5]
    with pytest.raises(FormulaError):
        t12_profile(2, 50)


def test_t22_fixtures():
    prof = t22_profile(2, 20)
    assert prof.lengths(0) == [INF]
    assert prof.lengths(3) == [2]
    assert prof.lengths(10) == [2]
    assert prof.lengths(18) == [2]
    prof4 = t22_profile(2, 4)
    assert prof4.degrees() == [0, 3] and prof4.lengths(3) == [2]
    prof6 = t22_profile(3, 6)
    assert prof6.degrees() == [0, 5] and prof6.lengths(5) == [3]


def test_tmn_specializations():
    for p in (3, 5):
        assert tmn_profile(p, 2, 1, 400) == t12_profile(p, 400)
        assert tmn_profile(p, 2, 2, 300) == t22_profile(p, 300)


def test_tmn_height_one_conjectural_fixture():
    # (n, m) = (1, 1): no independent table; certify the conjecture formula's
    # own shape: towers of length r_1(s,1) at the recursive lambda degrees
    p = 3
    prof = tmn_profile(p, 1, 1, 120)
    assert prof.lengths(0) == [INF]
    assert prof.lengths(2 * p - 1) == [r_conj(p, 1, 1, 1)]  # lambda_1 tower, length p
    # s = 2 head lambda_2 at degree 2p^2 - 1
    assert prof.lengths(2 * p * p - 1) == [r_conj(p, 1, 1, 2)]


def test_tmn_errors():
    with pytest.raises(FormulaError):
        tmn_profile(3, 2, 3, 50)
    with pytest.raises(FormulaError):
        tmn_profile(2, 2, 1, 50)


def test_localized_expected():
    assert localized_expected("v1", 3) == {0: 1, 5: 1}
    assert localized_expected("v2", 2) == {0: 1}
    assert localized_expected("v2", 3) == {0: 1}
    with pytest.raises(FormulaError):
        localized_expected("v1", 2)


def test_free_part_matches_rational():
    for p in (2, 3):
        for n in (0, 1, 2, 3):
            D = 150
            prof = t0n_profile(p, n, D)
            rational = rational_thh_dims(p, n, D)
            free = {d: sum(1 for x in prof.lengths(d) if x == INF) for d in prof.degrees()}
            free = {d: c for d, c in free.items() if c}
            assert free == rational


def test_presentation_validation():
    A = thh_mod_p_algebra(2, 2)
    good = TorsionGenerator("z", 15, 1, A.monomial(**{"λ3": 1}))
    TorsionPresentation(A, [A.unit], [good])
    with pytest.raises(ValueError):
        TorsionPresentation(A, [], [TorsionGenerator("z", 14, 1, A.monomial(**{"λ3": 1}))])
    with pytest.raises(ValueError):
        TorsionPresentation(A, [], [good, good])
    with pytest.raises(ValueError):
        TorsionPresentation(A, [], [TorsionGenerator("z", 15, 0, A.monomial(**{"λ3": 1}))])


def test_presentation_names_are_informative():
    pres = t0n_presentation(2, 2, 58)
    names = {t.name for t in pres.torsion_generators}
    assert "λ3(1)" in names
    assert any(name.startswith("λ1·λ3(") for name in names)


def _exterior_subsets_reference(A, indices, max_degree):
    """The enumeration before it skipped generators too large to take: a
    new list per generator, whatever its degree."""
    out = [(0, {}, "")]
    for i in indices:
        d = A.generators[i].degree
        out = out + [
            (deg + d, {**exps, i: 1}, label + ("·" if label else "") + A.generators[i].name)
            for deg, exps, label in out
            if deg + d <= max_degree
        ]
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_exterior_subsets_equal_the_unskipped_enumeration(p):
    # the same (degree, exponents, label) triples in the same order, for
    # windows below, at and above generator degrees, and for index lists
    # out of order and with a generator left out
    for n in range(7):
        A = thh_mod_p_algebra(p, n)
        degrees = sorted({A.generators[i].degree for i in range(n + 1)})
        windows = {0, 1, 2, 10, 60, 400, 3000} | set(degrees) | {d - 1 for d in degrees}
        for indices in (list(range(n + 1)), list(range(n, -1, -1)), list(range(0, n + 1, 2))):
            for D in sorted(windows):
                got = _exterior_subsets(A, indices, D)
                assert got == _exterior_subsets_reference(A, indices, D)


# (oracle, its presentation at D, |v| of its Bockstein tower, D); v0 has
# |v0| = 0, v_m has |v_m| = 2p^m - 2.  The tmn rows are evidence for the
# conjectured presentations.  tmn p=5 n=4 m=3 goes to D = 10000, since the
# source of its first finite tower lies at 6,250
BALANCE_CASES = [
    ("t12 p=3", lambda D: t12_presentation(3, D), 4, 600),
    ("t12 p=5", lambda D: t12_presentation(5, D), 8, 600),
    ("t22 p=2", lambda D: t22_presentation(2, D), 6, 600),
    ("t22 p=3", lambda D: t22_presentation(3, D), 16, 600),
    ("t0n p=2 n=2", lambda D: t0n_presentation(2, 2, D), 0, 600),
    ("t0n p=3 n=2", lambda D: t0n_presentation(3, 2, D), 0, 600),
    ("t0n p=2 n=3", lambda D: t0n_presentation(2, 3, D), 0, 600),
    ("t0n p=5 n=1", lambda D: t0n_presentation(5, 1, D), 0, 600),
    ("tmn p=3 n=3 m=1", lambda D: tmn_presentation(3, 3, 1, D), 4, 600),
    ("tmn p=3 n=3 m=2", lambda D: tmn_presentation(3, 3, 2, D), 16, 600),
    ("tmn p=5 n=4 m=3", lambda D: tmn_presentation(5, 4, 3, D), 248, 10000),
]


@pytest.mark.parametrize("presentation, deg_v, D", [c[1:] for c in BALANCE_CASES],
                         ids=[c[0] for c in BALANCE_CASES])
def test_the_oracles_balance_e1(presentation, deg_v, D):
    # a finite tower based at b of length r is one E_1 class at b that
    # becomes a boundary and one at b + 1 + r|v| that supports it; a free
    # tower is one class at b.  So in every degree b <= D the mod-p
    # algebra's dimension is the towers based at b plus the finite towers
    # whose source lies at b, with no engine run
    pres = presentation(D)
    dims = graded_dims(pres.algebra, D)
    prof = pres.profile(D)
    sources = Counter(b + 1 + r * deg_v for b in prof.degrees() for r in prof.lengths(b)
                      if r != INF)
    assert any(sources[b] for b in range(D + 1))
    assert [b for b in range(D + 1) if dims[b] != len(prof.lengths(b)) + sources[b]] == []


def _ladder_presentation_reference(p, max_degree, family, length_of, head_index_of, tails,
                                   permanents, gen_name):
    """_ladder_presentation as it was before it enumerated the permanent
    products once: one _exterior_subsets call per (step, tail, multiple)."""
    A = thh_mod_p_algebra(p, family.n)
    mu = A.ngens - 1
    D = max_degree
    free = [sparse_monomial(A.ngens, exps) for _, exps, _ in _exterior_subsets(A, permanents, D)]
    torsion = []
    s = 1
    while family.degree(head_index_of(s)) <= D:
        length = length_of(s)
        head_base, head_e = family.entry(head_index_of(s))
        head_deg = family.degree(head_index_of(s))
        step_mu_deg = p ** (s - 1) * deg_mu(p, family.n)
        for tail in tails(s):
            exps = {head_base - 1: 1, mu: head_e}
            tail_deg = 0
            for idx in tail:
                b, e = family.entry(idx)
                exps[b - 1] = 1
                exps[mu] += e
                tail_deg += family.degree(idx)
            if head_deg + tail_deg > D:
                continue
            m = 0
            while True:
                if m % p == p - 1:
                    m += 1
                    continue
                deg0 = head_deg + tail_deg + m * step_mu_deg
                if deg0 > D:
                    break
                mexps = dict(exps)
                mexps[mu] = mexps.get(mu, 0) + m * p ** (s - 1)
                base_name = gen_name(s, m, tail)
                for pdeg, pexps, plabel in _exterior_subsets(A, permanents, D - deg0):
                    name = (plabel + "·" if plabel else "") + base_name
                    proj = sparse_monomial(A.ngens, {**mexps, **pexps})
                    torsion.append(TorsionGenerator(name, deg0 + pdeg, length, proj))
                m += 1
        s += 1
    return TorsionPresentation(A, free, torsion)


@pytest.mark.parametrize("presentation", [
    lambda D: t12_presentation(3, D), lambda D: t12_presentation(5, D),
    lambda D: t22_presentation(2, D), lambda D: t22_presentation(3, D),
    lambda D: tmn_presentation(3, 3, 1, D), lambda D: tmn_presentation(3, 3, 2, D),
    lambda D: tmn_presentation(3, 4, 2, D), lambda D: tmn_presentation(5, 4, 3, D),
    lambda D: tmn_presentation(2, 5, 2, D)],
    ids=["t12-p3", "t12-p5", "t22-p2", "t22-p3", "tmn-p3-n3-m1", "tmn-p3-n3-m2",
         "tmn-p3-n4-m2", "tmn-p5-n4-m3", "tmn-p2-n5-m2"])
def test_ladder_presentations_equal_the_reference(presentation, monkeypatch):
    # the same free part and the same generators (names, degrees, lengths,
    # projections) in the same order, at windows below, at and above the
    # permanents' degrees
    for D in (0, 5, 17, 60, 200, 600, 2000):
        got = presentation(D)
        with monkeypatch.context() as patch:
            patch.setattr(closedform, "_ladder_presentation", _ladder_presentation_reference)
            want = presentation(D)
        assert got.free_part == want.free_part
        assert got.torsion_generators == want.torsion_generators, D
    assert len({g.name for g in got.torsion_generators}) > 10


def _t0n_presentation_reference(p, n, max_degree):
    """t0n_presentation as it was before it enumerated the lambda-products
    once and then became the ladder (n, 0), kept as its reference: one
    _exterior_subsets call per step i."""
    A = thh_mod_p_algebra(p, n)
    mu = A.ngens - 1
    lam_top = n
    D = max_degree
    subsets = _exterior_subsets(A, list(range(n)), D)
    free = [sparse_monomial(A.ngens, exps) for _, exps, _ in subsets]
    torsion = []
    i = 1
    while 2 * i * p ** (n + 1) - 1 <= D:
        base_deg = 2 * i * p ** (n + 1) - 1
        length = nu_p(p, i) + 1
        for deg, exps, label in _exterior_subsets(A, list(range(n)), D - base_deg):
            name = (label + "·" if label else "") + f"λ{n + 1}({i})"
            proj = sparse_monomial(A.ngens, {**exps, lam_top: 1, mu: i - 1})
            torsion.append(TorsionGenerator(name, deg + base_deg, length, proj))
        i += 1
    return TorsionPresentation(A, free, torsion, [deg for deg, _, _ in subsets])


@pytest.mark.parametrize("p, n", [(2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (3, 2), (5, 1),
                                  (7, 1), (2, 8), (2, 2), (3, 1), (3, 3), (5, 0), (5, 2),
                                  (5, 3)])
def test_t0n_presentation_equals_the_reference(p, n):
    # the same free part and degrees in the same order, and the same
    # generators (names, degrees, lengths, projections) as multisets: the
    # ladder emits them step by step, the reference by i.  The windows lie
    # below, at and above the torsion's first degree and the products'
    # degrees, and hold the 36 cases p in {2, 3, 5}, n <= 3, D in {40, 300, 2000}
    seen = 0
    for D in (0, 3, 31, 40, 63, 100, 300, 1000, 2000, 5000):
        got, want = t0n_presentation(p, n, D), _t0n_presentation_reference(p, n, D)
        assert got.free_part == want.free_part
        assert got.free_degrees == want.free_degrees
        assert sorted(got.torsion_generators) == sorted(want.torsion_generators), D
        seen += len(got.torsion_generators)
    assert seen > 10
