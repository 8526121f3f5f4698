"""Independent constructors for the closed-form answers: the mod-p algebra,
rational dimensions, the three torsion-module presentations T_0^n, T_1^2,
T_2^2, the conjectural T_m^n, and the localized answers.

These never touch the engine; they are the certification oracles.  Torsion
orders over v_0 are stored as tower lengths k (meaning Z/p^k); over v_1 and
v_2 a length-k tower is a P(v)/v^k summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    EXTERIOR,
    POLYNOMIAL,
    Algebra,
    GeneratorSpec,
    Monomial,
    graded_dims,
    sparse_monomial,
)
from .formulas import FormulaError, LambdaFamily, deg_lambda, deg_mu, r_conj, r_len
from .towers import INF, TowerProfile


def thh_mod_p_algebra(p: int, n: int) -> Algebra:
    """E(lambda_1, ..., lambda_{n+1}) tensor P(mu_{n+1}) with
    |lambda_i| = 2p^i - 1 and |mu_{n+1}| = 2p^{n+1}."""
    if n < 0:
        raise FormulaError("n must be >= 0")
    # a running power: p**i afresh for each lambda_i is quadratic in n
    gens, q = [], 1
    for i in range(1, n + 2):
        q *= p
        gens.append(GeneratorSpec(f"λ{i}", 2 * q - 1, EXTERIOR))
    gens.append(GeneratorSpec(f"μ{n + 1}", 2 * q, POLYNOMIAL))
    return Algebra(p, tuple(gens))


def rational_thh_dims(p: int, n: int, max_degree: int) -> Dict[int, int]:
    """Graded dimensions of the rational answer E_Q(sigma v_1 ... sigma v_n),
    |sigma v_i| = 2p^i - 1; zero entries are omitted."""
    if n < 0:
        raise FormulaError("n must be >= 0")
    gens = tuple(GeneratorSpec(f"σv{i}", deg_lambda(p, i), EXTERIOR) for i in range(1, n + 1))
    dims = graded_dims(Algebra(p, gens), max_degree)
    return {d: c for d, c in enumerate(dims) if c}


class TorsionGenerator(NamedTuple):
    name: str
    degree: int
    length: int
    projection: Monomial


@dataclass
class TorsionPresentation:
    """Free towers plus named finite towers with their projection monomials.

    free_degrees holds the degree of each free monomial.  The constructors
    below pass the degrees their enumeration yields, since Algebra.degree
    sums a dense exponent tuple; left out, they are taken from the algebra.
    """

    algebra: Algebra
    free_part: List[Monomial]
    torsion_generators: List[TorsionGenerator]
    free_degrees: Optional[List[int]] = None

    def __post_init__(self) -> None:
        names = {t.name for t in self.torsion_generators}
        if len(names) != len(self.torsion_generators):
            raise ValueError("torsion generator names must be unique")
        degree = self.algebra.degree
        for t in self.torsion_generators:
            if t.length < 1:
                raise ValueError(f"{t.name}: tower length must be >= 1")
            if degree(t.projection) != t.degree:
                raise ValueError(
                    f"{t.name}: projection degree {degree(t.projection)}"
                    f" != stated degree {t.degree}")
        if self.free_degrees is None:
            self.free_degrees = [degree(m) for m in self.free_part]

    def profile(self, max_degree: int) -> TowerProfile:
        prof = TowerProfile(max_degree)
        for d in self.free_degrees:
            if d <= max_degree:
                prof.add(d, INF)
        for t in self.torsion_generators:
            if t.degree <= max_degree:
                prof.add(t.degree, t.length)
        return prof


def _exterior_subsets(A: Algebra, indices: List[int], max_degree: int):
    """(degree, sparse exponent dict, label) for each subset of exterior
    generators, degree-bounded."""
    out = [(0, {}, "")]
    for i in indices:
        d = A.generators[i].degree
        if d > max_degree:  # no subset takes i, not even {i} alone
            continue
        out.extend([  # a list, built from out before out grows
            (deg + d, {**exps, i: 1}, label + ("·" if label else "") + A.generators[i].name)
            for deg, exps, label in out
            if deg + d <= max_degree
        ])
    return out


def t0n_presentation(p: int, n: int, max_degree: int) -> TorsionPresentation:
    """The integral answer, the ladder (n, 0): free part E(lambda_1..lambda_n),
    torsion towers of length nu_p(i)+1 = s on lambda-products times
    lambda_{n+1} mu^{i-1}, i = p^{s-1}(m+1) with m != p-1 mod p."""
    return _ladder_presentation(
        p, max_degree, LambdaFamily(p, n, 0),
        length_of=lambda s: s,
        head_index_of=lambda s: n + s,
        tails=lambda s: [()],
        permanents=list(range(n)),
        gen_name=lambda s, m, tail: f"λ{n + 1}({p ** (s - 1) * (m + 1)})",
    )


def t0n_profile(p: int, n: int, max_degree: int) -> TowerProfile:
    return t0n_presentation(p, n, max_degree).profile(max_degree)


def _ladder_presentation(p: int, max_degree: int, family: LambdaFamily,
                         length_of, head_index_of, tails, permanents: List[int],
                         gen_name) -> TorsionPresentation:
    """Common shape of T_0^n, T_1^2, T_2^2 and T_m^n.

    Towers are indexed by a step s >= 1, a mu-multiple m >= 0 with
    m != p-1 mod p, a choice of tail lambda-factors, and a product of
    permanent exterior classes; the head factor is the lambda-family entry
    of head_index_of(s) and the length is length_of(s).
    """
    A = thh_mod_p_algebra(p, family.n)
    mu = A.ngens - 1
    D = max_degree
    # the permanent products up to D, enumerated once: those up to a
    # smaller bound are the ones of degree <= it, in the same order
    products = _exterior_subsets(A, permanents, D)
    free = [sparse_monomial(A.ngens, exps) for _, exps, _ in products]
    torsion: List[TorsionGenerator] = []
    s = 1
    while family.degree(head_index_of(s)) <= D:
        length = length_of(s)
        head_base, head_e = family.entry(head_index_of(s))
        head_deg = family.degree(head_index_of(s))
        step = p ** (s - 1)  # mu-multiple m stands for mu^(step * m)
        step_mu_deg = step * deg_mu(p, family.n)
        for tail in tails(s):
            # the head and tails lie among m + 1 consecutive lambda-indices (the
            # head alone at m = 0), whose entries keep their residues mod m + 1
            # in n-m+1..n+1: no two share a base, and none is a permanent (1..n-m)
            exps: Dict[int, int] = {head_base - 1: 1, mu: head_e}
            tail_deg = 0
            for idx in tail:
                b, e = family.entry(idx)
                exps[b - 1] = 1
                exps[mu] += e
                tail_deg += family.degree(idx)
            deg_ht = head_deg + tail_deg
            if deg_ht > D:
                continue
            # the permanents are exterior, no head or tail and free of mu (the
            # last generator): a projection is the head and tails times a
            # permanent product, its mu-free prefix a sum made once per
            # product, followed by the mu-exponent of m
            head = sparse_monomial(A.ngens, exps)[:mu]
            prefixes = [(pdeg, plabel, tuple(map(add, head, product[:mu])))
                        for (pdeg, _, plabel), product in zip(products, free) if pdeg <= D - deg_ht]
            for m in range((D - deg_ht) // step_mu_deg + 1):
                if m % p == p - 1:
                    continue
                deg0 = deg_ht + m * step_mu_deg
                base_name = gen_name(s, m, tail)
                mu_exp = (exps[mu] + m * step,)
                for pdeg, plabel, prefix in prefixes:
                    if pdeg > D - deg0:
                        continue
                    name = (plabel + "·" if plabel else "") + base_name
                    torsion.append(TorsionGenerator(name, deg0 + pdeg, length, prefix + mu_exp))
        s += 1
    return TorsionPresentation(A, free, torsion, [deg for deg, _, _ in products])


def t12_presentation(p: int, max_degree: int) -> TorsionPresentation:
    """P(v_1) (x) E(lambda_1) + T_1^2, p >= 3: towers of length r(n,1) on
    lambda_1^e z_{n,m} and lambda_1^e z'_{n,m}."""
    if p < 3:
        raise FormulaError("paper assumes p >= 3")
    family = LambdaFamily(p, 2, 1)

    def name(s: int, m: int, tail: Tuple[int, ...]) -> str:
        return (f"z({s},{m})" if not tail else f"z'({s},{m})")

    return _ladder_presentation(
        p, max_degree, family,
        length_of=lambda s: r_len(p, s, 1),
        head_index_of=lambda s: s + 1,
        tails=lambda s: [(), (s + 2,)],
        permanents=[0],
        gen_name=name,
    )


def t12_profile(p: int, max_degree: int) -> TowerProfile:
    return t12_presentation(p, max_degree).profile(max_degree)


def t22_presentation(p: int, max_degree: int) -> TorsionPresentation:
    """P(v_2) + T_2^2: towers of length r(n,2) on the four families
    y, y', y'', y''' (head lambda_n with optional lambda_{n+1}, lambda_{n+2})."""
    family = LambdaFamily(p, 2, 2)

    def name(s: int, m: int, tail: Tuple[int, ...]) -> str:
        primes = "'" * ((1 if s + 1 in tail else 0) + (2 if s + 2 in tail else 0))
        return f"y{primes}({s},{m})"

    return _ladder_presentation(
        p, max_degree, family,
        length_of=lambda s: r_len(p, s, 2),
        head_index_of=lambda s: s,
        tails=lambda s: [(), (s + 1,), (s + 2,), (s + 1, s + 2)],
        permanents=[],
        gen_name=name,
    )


def t22_profile(p: int, max_degree: int) -> TowerProfile:
    return t22_presentation(p, max_degree).profile(max_degree)


def tmn_presentation(p: int, n: int, m: int, max_degree: int) -> TorsionPresentation:
    """The conjectural T_m^n: free part E(lambda_1..lambda_{n-m}); towers of
    length r_n(s,m) on a_{s,l}^{(k)} with head lambda_{n-m+s} and tails
    chosen among lambda_{n-m+s+1}..lambda_{n+s}."""
    if not 1 <= m <= n:
        raise FormulaError("need 1 <= m <= n")
    if m == 1 and p == 2:
        raise FormulaError("paper assumes p >= 3 in the m = 1 case")
    family = LambdaFamily(p, n, m)

    def tails(s: int):
        out: List[Tuple[int, ...]] = [()]
        for i in range(1, m + 1):
            out = out + [t + (n - m + s + i,) for t in out]
        return out

    def name(s: int, ell: int, tail: Tuple[int, ...]) -> str:
        bits = "".join("1" if (n - m + s + i) in tail else "0" for i in range(1, m + 1))
        return f"a({s},{ell};{bits})"

    return _ladder_presentation(
        p, max_degree, family,
        length_of=lambda s: r_conj(p, n, m, s),
        head_index_of=lambda s: n - m + s,
        tails=tails,
        permanents=list(range(n - m)),
        gen_name=name,
    )


def tmn_profile(p: int, n: int, m: int, max_degree: int) -> TowerProfile:
    return tmn_presentation(p, n, m, max_degree).profile(max_degree)


def localized_expected(case: str, p: int, max_degree: Optional[int] = None) -> Dict[int, int]:
    """Expected localized E_infinity per degree (filtration-0 slice dims):
    the v1 case is two shifted copies of K(1), the v2 case is K(2) itself."""
    if case == "v1":
        if p < 3:
            raise FormulaError("paper assumes p >= 3")
        return {0: 1, 2 * p - 1: 1}
    if case == "v2":
        return {0: 1}
    raise FormulaError(f"unknown localized case {case!r}")


def localized_expected_profile(case: str, p: int, max_degree: int) -> TowerProfile:
    prof = TowerProfile(max_degree)
    for d, k in sorted(localized_expected(case, p).items()):
        if d <= max_degree:
            for _ in range(k):
                prof.add(d, INF)
    return prof
