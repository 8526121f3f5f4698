"""Closed-form integer formulas: valuations, generator degrees, differential
lengths, and the recursive lambda-family of the ladder (n, m).  The paper's
v_1 and v_2 ladders are this ladder at (2, 1) and (2, 2).

All arithmetic is exact big-integer; degrees at p=7, n=25 exceed 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class FormulaError(ValueError):
    pass


def nu_p(p: int, k: int) -> int:
    """p-adic valuation of k, for p >= 2 and k >= 1."""
    if p < 2 or k <= 0:
        raise FormulaError(f"nu_p needs p >= 2 and k >= 1, got p = {p}, k = {k}")
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def deg_lambda(p: int, i: int) -> int:
    if i < 1:
        raise FormulaError("lambda index must be >= 1")
    return 2 * p**i - 1


def deg_mu(p: int, n: int) -> int:
    if n < 0:
        raise FormulaError("n must be >= 0")
    return 2 * p ** (n + 1)


def d_deg(p: int, n: int, m: int) -> int:
    """Topological degree d(n, m) of lambda_n in the ladder (2, m):
    d(n) = 2p^n - 2p^(n-1) + d(n - m - 1) above n = 3, from d(j) = 2p^j - 1
    at its base j <= 3."""
    if m not in (1, 2):
        raise FormulaError("m must be 1 or 2")
    return LambdaFamily(p, 2, m).degree(n)


def r_len(p: int, n: int, m: int) -> int:
    """Differential length r(n, m) for the v_1 (m=1) and v_2 (m=2) ladders.

    m=1: p^{n+1} + p^{n-1} + ... down in steps of 2, ending at p^2 (n odd)
    or p^3 (n even).  m=2: p^n + p^{n-3} + ... down in steps of 3, ending at
    p^1, p^2, p^3 for n = 1, 2, 0 mod 3.  The paper assumes p >= 3 for m=1;
    the value still evaluates at p=2 but carries no asserted differential
    pattern there (see engine.schedule_v1).
    """
    if m not in (1, 2):
        raise FormulaError("m must be 1 or 2")
    if n < 1:
        raise FormulaError("n must be >= 1")
    if m == 1:
        end = 2 if n % 2 == 1 else 3
        top = n + 1
    else:
        rem = n % 3
        end = {1: 1, 2: 2, 0: 3}[rem]
        top = n
    total = 0
    j = top
    while j >= end:
        total += p**j
        j -= m + 1
    return total


def r_conj(p: int, n: int, m: int, s: int) -> int:
    """Conjectural differential length r_n(s, m), 1 <= m <= n, exponent step m+1.

    The sum runs from p^{n-m+s} down to p^{n+j-m}, where j is the unique
    element of {1, ..., m+1} with s = j mod m+1.
    """
    if m < 1 or m > n:
        raise FormulaError("need 1 <= m <= n")
    if s < 1:
        raise FormulaError("s must be >= 1")
    j = s % (m + 1)
    if j == 0:
        j = m + 1
    total = 0
    e = n - m + s
    while e >= n + j - m:
        total += p**e
        e -= m + 1
    return total


@dataclass(frozen=True)
class LambdaFamily:
    """The recursive lambda-family of the ladder (n, m), 0 <= m <= n:

        lambda_s = lambda_{s-(m+1)} mu_{n+1}^{p^{s-(n+2)}(p-1)} for s > n + 1.

    At n = 2 this is the paper's v_1 (m = 1) and v_2 (m = 2) family, where
    lambda_s = lambda_{s-m-1} mu_3^{p^{s-4}(p-1)} for s > 3.  At m = 0 it is
    v_0's lambda_{n+1+j} = lambda_{n+1} mu_{n+1}^{p^j-1}.  Entries unroll to
    (base lambda index, mu exponent).
    """

    p: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise FormulaError("n must be >= 0")
        if not 0 <= self.m <= self.n:
            raise FormulaError("need 0 <= m <= n")

    def entry(self, s: int) -> Tuple[int, int]:
        """(base lambda index, mu exponent) of the expansion of lambda_s."""
        if s < 1:
            raise FormulaError("lambda index must be >= 1")
        p, step, top = self.p, self.m + 1, self.n + 1
        e = 0
        while s > top:
            e += p ** (s - top - 1) * (p - 1)
            s -= step
        return s, e

    def degree(self, s: int) -> int:
        base, e = self.entry(s)
        return deg_lambda(self.p, base) + e * deg_mu(self.p, self.n)

    def page(self, s: int) -> int:
        """Step s's page, the length of the towers it leaves: r_n(s, m) at
        m >= 1.  At m = 0, |v_0| = 0 and the degrees fix no page; r_conj's
        sum is none there, and v_0's is the paper's nu_p(p^{s-1}) + 1 = s."""
        if s < 1:
            raise FormulaError("s must be >= 1")
        return r_conj(self.p, self.n, self.m, s) if self.m else s
