import itertools
import random

import pytest

from bockstein.algebra import (
    EXTERIOR,
    POLYNOMIAL,
    Algebra,
    GeneratorSpec,
)


def brute_basis(A: Algebra, d: int, cap: int = 0):
    """Exhaustive enumeration of exponent vectors of degree d, independent of
    the library's recursive enumerator."""
    ranges = []
    for g in A.generators:
        if g.kind == EXTERIOR:
            ranges.append(range(0, 2))
        else:
            hi = cap if g.degree == 0 else (max(d, 0) // g.degree if g.degree else 0)
            ranges.append(range(0, hi + 1))
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * g.degree for e, g in zip(exps, A.generators)) == d:
            out.append(tuple(exps))
    return sorted(out)


def series_dims(A: Algebra, max_degree: int):
    """Generating-function coefficients, computed by naive polynomial
    multiplication (independent oracle for basis sizes)."""
    poly = [1] + [0] * max_degree
    for g in A.generators:
        if g.kind == EXTERIOR:
            factor = {0: 1, g.degree: 1}
        else:
            factor = {e * g.degree: 1 for e in range(0, max_degree // g.degree + 1)}
        new = [0] * (max_degree + 1)
        for d, c in enumerate(poly):
            if c:
                for shift, c2 in factor.items():
                    if d + shift <= max_degree:
                        new[d + shift] += c * c2
        poly = new
    return poly


def random_homogeneous(rng: random.Random, A: Algebra, degree: int, basis_cache: dict):
    from bockstein.algebra import basis_in_degree

    mons = basis_cache.get(degree)
    if mons is None:
        mons = basis_in_degree(A, degree)
        basis_cache[degree] = mons
    if not mons:
        return {}
    out = {}
    for m in rng.sample(mons, k=min(len(mons), rng.randint(1, 3))):
        c = rng.randrange(1, A.p)
        out[m] = c
    return out


@pytest.fixture
def mixed_algebras():
    """Small mixed-kind algebras per prime for property tests."""
    return {p: Algebra(p, (
        GeneratorSpec("a", 1, EXTERIOR),
        GeneratorSpec("b", 3, EXTERIOR),
        GeneratorSpec("x", 2, POLYNOMIAL),
    )) for p in (2, 3, 5)}
