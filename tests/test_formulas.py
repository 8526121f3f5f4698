import sys

import pytest

from bockstein.closedform import thh_mod_p_algebra
from bockstein.engine import Window, schedule_v1
from bockstein.formulas import (
    FormulaError,
    LambdaFamily,
    d_deg,
    deg_lambda,
    deg_mu,
    nu_p,
    r_conj,
    r_len,
)
from reference import d_deg_explicit, lambda_expand

PRIMES = (2, 3, 5, 7)


def test_nu_p():
    assert nu_p(3, 9) == 2
    assert nu_p(2, 12) == 2
    assert nu_p(5, 7) == 0
    with pytest.raises(FormulaError):
        nu_p(3, 0)
    with pytest.raises(FormulaError):
        nu_p(3, -3)


def test_generator_degrees():
    assert deg_lambda(2, 3) == 15
    assert deg_mu(2, 2) == 16
    assert deg_lambda(3, 1) == 5


def test_d_deg_displayed_values():
    for p in PRIMES:
        assert d_deg(p, 4, 1) == 2 * p**4 - 2 * p**3 + 2 * p**2 - 1
        assert d_deg(p, 4, 2) == 2 * p**4 - 2 * p**3 + 2 * p - 1
        assert d_deg(p, 5, 1) == 2 * p**5 - 2 * p**4 + 2 * p**3 - 1


def test_d_deg_recursive_equals_explicit():
    for p in PRIMES:
        for m in (1, 2):
            for n in range(1, 41):
                assert d_deg(p, n, m) == d_deg_explicit(p, n, m)


def test_d_deg_takes_no_frame_per_step():
    # n = 3000 is 1,500 steps of the d1 recursion and 1,000 of d2, past the
    # default limit of 1,000 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for m in (1, 2):
            assert d_deg(2, 3000, m) == d_deg_explicit(2, 3000, m)
    finally:
        sys.setrecursionlimit(limit)


def test_r_len_displayed_values():
    assert r_len(3, 1, 1) == 9
    assert r_len(3, 3, 1) == 90
    assert r_len(3, 4, 2) == 84
    assert [r_len(2, n, 2) for n in range(1, 5)] == [2, 4, 8, 18]


def test_r_conj_specializes_to_r_len():
    for p in PRIMES:
        for s in range(1, 31):
            assert r_conj(p, 2, 1, s) == r_len(p, s, 1)
            assert r_conj(p, 2, 2, s) == r_len(p, s, 2)
    assert r_conj(3, 2, 1, 1) == 9
    with pytest.raises(FormulaError):
        r_conj(3, 2, 3, 1)


def test_lambda_family_page_is_the_ladder_step_page():
    # s at m = 0 and r(s, m) on the paper's ladders (2, 1) and (2, 2); no
    # page below step 1, where a bare s would be 0 or negative
    for p in PRIMES:
        for s in range(1, 9):
            assert LambdaFamily(p, 3, 0).page(s) == s
            assert LambdaFamily(p, 0, 0).page(s) == s
            for m in (1, 2):
                assert LambdaFamily(p, 2, m).page(s) == r_len(p, s, m)
    for n, m in ((0, 0), (3, 0), (2, 1), (2, 2), (4, 3)):
        for s in (0, -1):
            with pytest.raises(FormulaError, match="s must be >= 1"):
                LambdaFamily(3, n, m).page(s)


def test_lambda_expand_examples():
    for p in (3, 5):
        A = thh_mod_p_algebra(p, 2)
        v1 = LambdaFamily(p, 2, 1)
        v2 = LambdaFamily(p, 2, 2)
        assert lambda_expand(v1, 4) == A.monomial(**{"λ2": 1, "μ3": p - 1})
        assert lambda_expand(v2, 4) == A.monomial(**{"λ1": 1, "μ3": p - 1})
        assert lambda_expand(v2, 6) == A.monomial(**{"λ3": 1, "μ3": p * p * (p - 1)})


def test_lambda_expand_degrees_match_d_deg():
    for p in PRIMES:
        for m in (1, 2):
            fam = LambdaFamily(p, 2, m)
            for s in range(1, 26):
                assert fam.degree(s) == d_deg(p, s, m)


def test_d_deg_refuses_an_index_or_case_off_the_ladder():
    for m in (1, 2):
        with pytest.raises(FormulaError):
            d_deg(3, 0, m)
    for n in (1, 4):
        with pytest.raises(FormulaError):
            d_deg(3, n, 3)


def test_lambda_family_refuses_m_outside_zero_to_n():
    for n, m in ((2, -1), (2, 3), (0, 1)):
        with pytest.raises(FormulaError, match="need 0 <= m <= n"):
            LambdaFamily(3, n, m)
    # n is checked first: v0, which takes no m, refuses n < 0 by n alone
    with pytest.raises(FormulaError, match="n must be >= 0"):
        LambdaFamily(3, -1, 0)
    # at m = 0 the family is v0's: lambda_{n+1+j} = lambda_{n+1} mu^{p^j - 1},
    # in degree p^j |mu| - 1
    for p in (2, 3, 5, 7):
        for n in range(4):
            family = LambdaFamily(p, n, 0)
            for j in range(6):
                assert family.entry(n + 1 + j) == (n + 1, p**j - 1)
                assert family.degree(n + 1 + j) == p**j * deg_mu(p, n) - 1


def test_degree_identities():
    # |mu_3^{p^{n-1}}| - 1 - d(n+1, 1) = |v_1| r(n, 1) and
    # 2 p^{n+2} - d(n, 2) - 1 = |v_2| r(n, 2)
    for p in PRIMES:
        for n in range(1, 31):
            assert deg_mu(p, 2) * p ** (n - 1) - 1 - d_deg(p, n + 1, 1) == \
                (2 * p - 2) * r_len(p, n, 1)
            assert 2 * p ** (n + 2) - d_deg(p, n, 2) - 1 == (2 * p * p - 2) * r_len(p, n, 2)


def test_p2_patterns_exposed_as_data():
    # the two open p = 2 patterns are schedules: variant A adds no rule to
    # the odd-p ladder, variant B adds d_2(lambda_3) = v1^2 lambda_1 lambda_2
    a = schedule_v1(2, Window(60), variant="A")
    b = schedule_v1(2, Window(60), variant="B")
    assert 2 not in a.pages
    names = [g.name for g in thh_mod_p_algebra(2, 2).adjoin(b.v).generators]

    def lambdas(m):
        return tuple(int(names[i][1:]) for i, e in enumerate(m) if e and names[i][0] == "λ")

    (rule,) = b.pages[2].rules
    (target,) = rule.target
    assert {"page": 2, "source": lambdas(rule.source), "targets": lambdas(target)} == \
        {"page": 2, "source": (3,), "targets": (1, 2)}
