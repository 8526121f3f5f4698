"""Test-side references the library is checked against.

The Leibniz reference (`element`, `add_into`, `derivation_extend`) extends
generator rules to the signed derivation through `algebra.multiply`; the
engine forms its Leibniz terms with `algebra.mul_monomials` instead, so the
two share only monomial arithmetic.  `d_deg_explicit` is the displayed
alternating sum that `formulas.d_deg`'s recursion is checked against, and
`lambda_expand` unrolls a `formulas.LambdaFamily` entry to a monomial.
`reps_rows` gives an engine cell's classes as rows over its monomials,
which a run never builds, and `rank_mod_p` is the rank of such rows by
plain row reduction.

This module imports no `bockstein` module but `algebra`
(`tests/test_layering.py`): `LambdaFamily` is named in an annotation only,
and `FormulaError` is the `ValueError` that `formulas.FormulaError` is.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

from bockstein.algebra import Algebra, Element, Monomial, multiply

FormulaError = ValueError


def element(A: Algebra, *terms: Tuple[int, Monomial]) -> Element:
    """Assemble an element from (coefficient, monomial) pairs, reducing mod p."""
    out: Element = {}
    for c, m in terms:
        A.validate_monomial(m)
        c = (out.get(m, 0) + c) % A.p
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def add_into(acc: Element, other: Element, p: int, scale: int = 1) -> None:
    for m, c in other.items():
        v = (acc.get(m, 0) + scale * c) % p
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def derivation_extend(rules: Mapping[str, Element], x: Element, A: Algebra) -> Element:
    """Extend generator rules to the unique signed derivation.

    `rules` maps generator names to target elements; generators without a
    rule map to zero.  Satisfies d(xy) = d(x) y + (-1)^{|x|} x d(y).
    """
    for name in rules:
        A.index(name)  # raises ForeignGeneratorError on non-generators
    p = A.p
    degs = A._degrees  # type: ignore[attr-defined]
    out: Element = {}
    for m, c in x.items():
        A.validate_monomial(m)
        prefix_parity = 0
        for i, e in enumerate(m):
            if e:
                g = A.generators[i]
                target = rules.get(g.name)
                if target:
                    reduced = list(m)
                    reduced[i] = e - 1
                    sign = -1 if prefix_parity else 1
                    coeff = (c * e * sign) % p
                    if coeff:
                        # contribution: coeff * (m with one g removed) * d(g),
                        # multiply() supplies the remaining Koszul signs
                        part = multiply({tuple(reduced): coeff}, target, A)
                        add_into(out, part, p)
                prefix_parity = (prefix_parity + e * degs[i]) % 2
    return out


def d_deg_explicit(p: int, n: int, m: int) -> int:
    """d(n, m) as the displayed alternating sum, for cross-checking."""
    if m not in (1, 2):
        raise FormulaError("m must be 1 or 2")
    if n < 1:
        raise FormulaError("n must be >= 1")
    if n <= 3:
        return 2 * p**n - 1
    total = 0
    j = n
    while j > 3:
        total += 2 * p**j - 2 * p ** (j - 1)
        j -= m + 1
    return total + 2 * p**j - 1


def lambda_expand(family: LambdaFamily, s: int):
    """Expansion of lambda_s as a monomial over the mod-p THH algebra
    E(lambda_1..lambda_{n+1}) (x) P(mu_{n+1}), whose n + 2 generators come
    in that order."""
    base, e = family.entry(s)
    m = [0] * (family.n + 2)
    m[base - 1] = 1
    m[-1] += e
    return tuple(m)


def reps_rows(cell) -> List[List[int]]:
    """The classes as rows over the monomials, identity rows for an
    untouched cell.  A run never asks for them: it takes a class's
    value as its rep's combination of its monomials' (_combination)."""
    if cell.reps is None:
        n = len(cell.monomials)
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return [list(r) for r in cell.reps]


def rank_mod_p(rows: List[List[int]], p: int) -> int:
    """The rank over F_p of the rows, by row reduction on a copy."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
