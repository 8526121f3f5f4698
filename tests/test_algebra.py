import random

import pytest

from bockstein.algebra import (
    EXTERIOR,
    POLYNOMIAL,
    PRIME_LIMIT,
    Algebra,
    AlgebraError,
    ForeignGeneratorError,
    GeneratorSpec,
    InfiniteBasisError,
    _free_walk,
    basis_in_degree,
    basis_up_to,
    derivation_extend,
    element,
    graded_dims,
    is_prime,
    koszul_sign,
    mul_monomials,
    multiply,
)
from bockstein.closedform import thh_mod_p_algebra
from conftest import brute_basis, random_homogeneous, series_dims


def test_exterior_square_vanishes():
    A = thh_mod_p_algebra(2, 2)
    l1 = element(A, (1, A.monomial(**{"λ1": 1})))
    assert multiply(l1, l1, A) == {}


def test_koszul_sign_odd_prime():
    A = thh_mod_p_algebra(3, 2)
    l1 = element(A, (1, A.monomial(**{"λ1": 1})))
    l2 = element(A, (1, A.monomial(**{"λ2": 1})))
    prod = A.monomial(**{"λ1": 1, "λ2": 1})
    assert multiply(l2, l1, A) == {prod: 2}  # -1 mod 3
    assert multiply(l1, l2, A) == {prod: 1}


@pytest.mark.parametrize("kind", ["divided", "truncated"])
def test_only_the_kinds_thh_needs_are_generator_kinds(kind):
    # THH_*(B<n>; F_p)[v] has exterior, polynomial and Laurent generators
    with pytest.raises(AlgebraError, match="unknown generator kind"):
        GeneratorSpec("x", 4, kind)


def test_foreign_generator_error():
    A = thh_mod_p_algebra(2, 2)
    B = thh_mod_p_algebra(2, 1)
    a = element(B, (1, B.unit))
    with pytest.raises(ForeignGeneratorError):
        multiply(a, a, A)


def test_exterior_parity_enforced_at_odd_p():
    with pytest.raises(AlgebraError):
        Algebra(3, (GeneratorSpec("x", 2, EXTERIOR),))
    Algebra(2, (GeneratorSpec("x", 2, EXTERIOR),))  # fine at p = 2


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the prime bases up to 7 and up to 23
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3) and is_prime(10**18 + 9)
    with pytest.raises(AlgebraError, match="too large"):
        is_prime(PRIME_LIMIT)


def test_basis_examples():
    A = thh_mod_p_algebra(2, 2)  # degrees 3, 7, 15, 16
    assert basis_in_degree(A, 15) == [(0, 0, 1, 0)]
    assert basis_in_degree(A, 10) == [(1, 1, 0, 0)]
    assert basis_in_degree(A, 0) == [A.unit]


def test_basis_against_brute_force(mixed_algebras):
    for p, A in mixed_algebras.items():
        for d in range(0, 41):
            assert basis_in_degree(A, d) == brute_basis(A, d), (p, d)


def test_basis_up_to_matches_basis_in_degree(mixed_algebras):
    algebras = list(mixed_algebras.values()) + [thh_mod_p_algebra(2, 4), thh_mod_p_algebra(3, 2)]
    for A in algebras:
        got = basis_up_to(A, 300)
        want = {d: basis_in_degree(A, d) for d in range(0, 301)}
        assert got == {d: mons for d, mons in want.items() if mons}


@pytest.mark.parametrize("seed", range(12))
def test_basis_on_shuffled_generators_equals_brute_force(seed):
    # the walk yields the all-zero tail once what is left is below every
    # later generator's degree; that must hold in any generator order, and
    # exterior generators of degree 0 must never cut a walk short
    rng = random.Random(seed)
    gens = [GeneratorSpec("a", 0, EXTERIOR), GeneratorSpec("b", 0, EXTERIOR),
            GeneratorSpec("c", 1, EXTERIOR), GeneratorSpec("d", 5, EXTERIOR),
            GeneratorSpec("x", 2, POLYNOMIAL), GeneratorSpec("y", 3, POLYNOMIAL),
            GeneratorSpec("z", 7, POLYNOMIAL), GeneratorSpec("w", 13, EXTERIOR)]
    rng.shuffle(gens)
    A = Algebra(2, tuple(gens[:rng.randint(1, len(gens))]))
    D = 14
    want = {d: brute_basis(A, d) for d in range(D + 1)}
    assert basis_up_to(A, D) == {d: mons for d, mons in want.items() if mons}
    assert all(basis_in_degree(A, d) == want[d] for d in range(D + 1))
    # in lexicographic order, each monomial with what it leaves of D
    assert list(_free_walk(A, D)) == sorted((m, D - d) for d, mons in want.items() for m in mons)


@pytest.mark.parametrize("seed", range(12))
def test_basis_up_to_a_degree_set_is_the_basis_cut_to_it(seed):
    # the walk filters the last generator's exponents and its early
    # all-zero tails by the set; in any generator order (exterior
    # generators of degree 0 included) it must yield exactly the monomials
    # of the full walk whose degree the set holds, in the same order, and
    # degrees outside 0..D change nothing
    rng = random.Random(seed)
    gens = [GeneratorSpec("a", 0, EXTERIOR), GeneratorSpec("c", 1, EXTERIOR),
            GeneratorSpec("d", 5, EXTERIOR), GeneratorSpec("x", 2, POLYNOMIAL),
            GeneratorSpec("y", 3, POLYNOMIAL), GeneratorSpec("z", 7, POLYNOMIAL),
            GeneratorSpec("w", 13, EXTERIOR)]
    rng.shuffle(gens)
    algebras = [Algebra(2, tuple(gens[:rng.randint(1, len(gens))])), thh_mod_p_algebra(2, 2)]
    for A, D in zip(algebras, (14, 200)):
        full = list(_free_walk(A, D))
        for degrees in [set(), {0}, {D}, set(range(D + 1)), {-3, D + 1, D + 40},
                        set(rng.sample(range(D + 5), D // 3))]:
            assert list(_free_walk(A, D, degrees)) == [
                (m, left) for m, left in full if D - left in degrees], degrees
            assert basis_up_to(A, D, degrees) == {
                d: mons for d, mons in basis_up_to(A, D).items() if d in degrees}


def test_basis_lengths_against_series(mixed_algebras):
    for A in mixed_algebras.values():
        dims = series_dims(A, 60)
        for d in range(0, 61):
            assert len(basis_in_degree(A, d)) == dims[d]
        assert graded_dims(A, 60) == dims


def test_infinite_basis_errors():
    B = Algebra(2, (GeneratorSpec("v0", 0, POLYNOMIAL),))
    with pytest.raises(InfiniteBasisError):
        basis_in_degree(B, 0)
    # inverting v is a mode of the engine, not a generator kind
    with pytest.raises(AlgebraError, match="unknown generator kind 'laurent'"):
        GeneratorSpec("u", 2, "laurent")


def test_degree_additivity(mixed_algebras):
    rng = random.Random(7)
    for A in mixed_algebras.values():
        cache = {}
        for _ in range(300):
            d1, d2 = rng.randint(0, 15), rng.randint(0, 15)
            a = random_homogeneous(rng, A, d1, cache)
            b = random_homogeneous(rng, A, d2, cache)
            for m in multiply(a, b, A):
                assert A.degree(m) == d1 + d2


def test_associativity_and_commutativity(mixed_algebras):
    rng = random.Random(11)
    for A in mixed_algebras.values():
        cache = {}
        for _ in range(10_000):
            degs = [rng.randint(0, 12) for _ in range(3)]
            a, b, c = (random_homogeneous(rng, A, d, cache) for d in degs)
            left = multiply(multiply(a, b, A), c, A)
            right = multiply(a, multiply(b, c, A), A)
            assert left == right
            ab = multiply(a, b, A)
            ba = multiply(b, a, A)
            sign = -1 if (degs[0] % 2 and degs[1] % 2) else 1
            assert ab == {m: (sign * v) % A.p for m, v in ba.items()}


def _odd_transpositions(A, m1, m2):
    """How many pairs of odd-degree factors trade places when the factors
    of m1, then those of m2, are sorted into generator order."""
    odd = [i for m in (m1, m2) for i, e in enumerate(m) for _ in range(e)
           if A.generators[i].degree % 2]
    return sum(odd[x] > odd[y] for x in range(len(odd)) for y in range(x + 1, len(odd)))


def test_koszul_sign_counts_the_odd_transpositions(mixed_algebras):
    # the sign mul_monomials gives a living product and _d_of_monomial
    # gives each Leibniz term, against a count of the transpositions; the
    # p = 2 algebra has odd polynomial generators, so odd exponents above 1
    rng = random.Random(12)
    algebras = list(mixed_algebras.values()) + [Algebra(2, (
        GeneratorSpec("y", 1, POLYNOMIAL), GeneratorSpec("a", 3, EXTERIOR),
        GeneratorSpec("z", 5, POLYNOMIAL)))]
    for A in algebras:
        mons = [m for d in range(14) for m in basis_in_degree(A, d)]
        dead = 0
        for _ in range(3000):
            m1, m2 = rng.choice(mons), rng.choice(mons)
            want = -1 if _odd_transpositions(A, m1, m2) % 2 else 1
            assert koszul_sign(A, m1, m2) == want, (m1, m2)
            s, _ = mul_monomials(A, m1, m2)
            assert s in (0, want)
            dead += s == 0
        assert 0 < dead < 3000


def _random_rules(rng, A, cache):
    rules = {}
    for g in A.generators:
        tgt = random_homogeneous(rng, A, g.degree - 1, cache)
        if tgt:
            rules[g.name] = tgt
    return rules


def test_derivation_examples():
    # rules {mu -> v lambda}, x = mu^2 over p=3 gives 2 v lambda mu
    A = Algebra(3, (
        GeneratorSpec("λ", 5, EXTERIOR),
        GeneratorSpec("μ", 6, POLYNOMIAL),
        GeneratorSpec("v", 0, POLYNOMIAL),
    ))
    vl = element(A, (1, A.monomial(λ=1, v=1)))
    rules = {"μ": vl}
    musq = element(A, (1, A.monomial(μ=2)))
    assert derivation_extend(rules, musq, A) == {A.monomial(λ=1, μ=1, v=1): 2}
    # x = lambda mu: exterior square kills the product
    lm = element(A, (1, A.monomial(λ=1, μ=1)))
    assert derivation_extend(rules, lm, A) == {}
    # x = mu^p: char p kills the coefficient
    mup = element(A, (1, A.monomial(μ=3)))
    assert derivation_extend(rules, mup, A) == {}
    with pytest.raises(ForeignGeneratorError):
        derivation_extend({"nope": vl}, musq, A)


def test_derivation_signed_leibniz(mixed_algebras):
    rng = random.Random(23)
    for A in mixed_algebras.values():
        cache = {}
        rules = _random_rules(rng, A, cache)
        for _ in range(1000):
            d1, d2 = rng.randint(0, 14), rng.randint(0, 14)
            x = random_homogeneous(rng, A, d1, cache)
            y = random_homogeneous(rng, A, d2, cache)
            lhs = derivation_extend(rules, multiply(x, y, A), A)
            rhs = multiply(derivation_extend(rules, x, A), y, A)
            sign = -1 if d1 % 2 else 1
            for m, c in multiply(x, derivation_extend(rules, y, A), A).items():
                c = (rhs.get(m, 0) + sign * c) % A.p
                if c:
                    rhs[m] = c
                else:
                    rhs.pop(m, None)
            assert lhs == rhs


def test_derivation_linearity(mixed_algebras):
    rng = random.Random(31)
    for A in mixed_algebras.values():
        cache = {}
        rules = _random_rules(rng, A, cache)
        for _ in range(400):
            d = rng.randint(0, 14)
            x = random_homogeneous(rng, A, d, cache)
            y = random_homogeneous(rng, A, d, cache)
            c = rng.randrange(A.p)
            combo = dict(x)
            for m, v in y.items():
                cv = (combo.get(m, 0) + c * v) % A.p
                if cv:
                    combo[m] = cv
                else:
                    combo.pop(m, None)
            dx = derivation_extend(rules, x, A)
            dy = derivation_extend(rules, y, A)
            want = dict(dx)
            for m, v in dy.items():
                cv = (want.get(m, 0) + c * v) % A.p
                if cv:
                    want[m] = cv
                else:
                    want.pop(m, None)
            assert derivation_extend(rules, combo, A) == want
