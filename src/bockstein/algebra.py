"""Exact arithmetic in free graded-commutative algebras over F_p.

Monomials are exponent tuples aligned with the generator list of an
:class:`Algebra`; elements are dicts mapping monomials to nonzero residues
in ``{1, ..., p-1}``.  The canonical monomial order used everywhere
downstream is graded lexicographic, i.e. the sort key ``(degree, exponents)``.

The generator kinds are the ones THH_*(B<n>; F_p)[v] needs: exterior
(the lambdas) and polynomial (mu and v).  Inverting v is a mode of the
engine, which keeps v's exponent beside an A-monomial, not a kind here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]
Element = Dict[Monomial, int]

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"

_KINDS = (EXTERIOR, POLYNOMIAL)


class AlgebraError(ValueError):
    pass


class ForeignGeneratorError(AlgebraError):
    """Raised when an element does not live over the given algebra."""


class InfiniteBasisError(AlgebraError):
    """Raised when a basis enumeration cannot terminate."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n >= PRIME_LIMIT is
    refused with AlgebraError, since these bases do not decide it."""
    if n >= PRIME_LIMIT:
        raise AlgebraError(f"{n} is too large: primes are checked below {PRIME_LIMIT:,}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, k = n - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise AlgebraError unless p is a prime that is_prime can decide."""
    if not is_prime(p):
        raise AlgebraError(f"{p} is not prime")


@dataclass(frozen=True)
class GeneratorSpec:
    """A named algebra generator with an internal degree and a kind."""

    name: str
    degree: int
    kind: str = POLYNOMIAL

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise AlgebraError(f"unknown generator kind {self.kind!r}")
        if self.degree < 0:
            raise AlgebraError(f"generator {self.name}: degree must be >= 0")

    def exponent_ok(self, e: int) -> bool:
        if self.kind == EXTERIOR:
            return e in (0, 1)
        return e >= 0


@dataclass(frozen=True)
class Algebra:
    """A free graded-commutative algebra over F_p on an ordered generator list."""

    p: int
    generators: Tuple[GeneratorSpec, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        if self.p != 2:
            for g in self.generators:
                if g.kind == EXTERIOR and not g.degree & 1:
                    raise AlgebraError(
                        f"generator {g.name}: exterior generators must have odd degree at odd p"
                    )
        object.__setattr__(self, "_index", {g.name: i for i, g in enumerate(self.generators)})
        object.__setattr__(self, "_degrees", tuple(g.degree for g in self.generators))
        # the tables mul_monomials and koszul_sign read: the odd-degree
        # generators from the right and the exterior ones
        object.__setattr__(self, "_odd_from_right", tuple(
            i for i in reversed(range(len(self.generators))) if self.generators[i].degree & 1))
        object.__setattr__(self, "_exterior", tuple(
            i for i, g in enumerate(self.generators) if g.kind == EXTERIOR))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def unit(self) -> Monomial:
        return (0,) * len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ForeignGeneratorError(f"foreign generator {name!r}") from None

    def degree(self, m: Monomial) -> int:
        if len(m) != len(self.generators):
            raise ForeignGeneratorError("foreign generator (monomial length mismatch)")
        degs: Tuple[int, ...] = self._degrees  # type: ignore[attr-defined]
        return sum(map(mul, m, degs))

    def validate_monomial(self, m: Monomial) -> None:
        if len(m) != len(self.generators):
            raise ForeignGeneratorError("foreign generator (monomial length mismatch)")
        for g, e in zip(self.generators, m):
            if not g.exponent_ok(e):
                raise AlgebraError(f"exponent {e} invalid for generator {g.name} ({g.kind})")

    def monomial(self, **exps: int) -> Monomial:
        """Build a monomial from generator-name keyword exponents."""
        m = [0] * len(self.generators)
        for name, e in exps.items():
            m[self.index(name)] = e
        mono = tuple(m)
        self.validate_monomial(mono)
        return mono

    def adjoin(self, gen: GeneratorSpec) -> "Algebra":
        return Algebra(self.p, self.generators + (gen,))

    @property
    def exterior(self) -> Tuple[int, ...]:
        """The indices of the exterior generators."""
        return self._exterior  # type: ignore[attr-defined,no-any-return]


def sparse_monomial(ngens: int, exps: Mapping[int, int]) -> Monomial:
    """The monomial over ngens generators with exponent exps[i] at index i."""
    m = [0] * ngens
    for i, e in exps.items():
        m[i] += e
    return tuple(m)


def koszul_flips(A: Algebra, m: Monomial) -> Tuple[int, ...]:
    """The odd-degree generators with an odd number of m's odd-degree
    factors to their right: the Koszul sign of m * m2 is -1 to the sum of
    m2's exponents there, since each odd factor of m2 moves past those."""
    out = []
    right = 0  # parity of m's odd factors right of j
    for j in A._odd_from_right:  # type: ignore[attr-defined]
        if right:
            out.append(j)
        right ^= m[j] & 1
    return tuple(out)


def koszul_sign(A: Algebra, m1: Monomial, m2: Monomial) -> int:
    """The Koszul sign (1 or -1) of m1 * m2 (koszul_flips); the monomials
    are not checked."""
    return -1 if sum(map(m2.__getitem__, koszul_flips(A, m1))) & 1 else 1


def mul_monomials(A: Algebra, m1: Monomial, m2: Monomial) -> Tuple[int, Monomial]:
    """Product of two monomials: (sign in {0, 1, -1}, canonical monomial).

    The sign is the Koszul sign (koszul_sign); zero means the product dies
    by an exterior square.  The work is one exponent sum, a check of each
    exterior generator and the sign, read from tables the algebra builds
    once.
    """
    if len(m1) != A.ngens or len(m2) != A.ngens:
        raise ForeignGeneratorError("foreign generator (monomial length mismatch)")
    out = tuple(map(add, m1, m2))
    for j in A._exterior:  # type: ignore[attr-defined]
        if out[j] > 1:
            return 0, A.unit
    if out and min(out) < 0:
        j = next(j for j, e in enumerate(out) if e < 0)
        raise AlgebraError(f"exponent {out[j]} invalid for generator {A.generators[j].name}")
    return koszul_sign(A, m1, m2), out


def multiply(a: Element, b: Element, A: Algebra) -> Element:
    """Bilinear graded-commutative product with Koszul signs."""
    out: Element = {}
    p = A.p
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            s, m = mul_monomials(A, m1, m2)
            if s == 0:
                continue
            v = (out.get(m, 0) + s * c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _free_walk(A: Algebra, max_degree: int,
               degrees: Optional[Iterable[int]] = None) -> Iterator[Tuple[Monomial, int]]:
    """Every monomial of degree <= max_degree, in lexicographic order, with
    max_degree minus its degree; with degrees, only those whose degree it
    holds.

    The depth-first walk keeps one iterator of exponents per generator on a
    list, not a stack frame, so an algebra with thousands of generators
    enumerates without recursion.  Once what is left is below the smallest
    degree of the generators after i (an exterior generator of degree 0
    counts as 0), each of them can only be 0, so the walk yields that
    all-zero tail at once instead of visiting them.  With degrees, the last
    generator takes only the exponents that land in degrees, and of the
    earlier all-zero tails only those in degrees are yielded, so the walk
    costs the monomials it keeps.  The last generator's exponents are
    yielded in one loop."""
    gens = A.generators
    if any(g.degree == 0 and g.kind == POLYNOMIAL for g in gens):
        raise InfiniteBasisError("infinite basis")
    lefts = None if degrees is None else {max_degree - d for d in degrees}
    n = len(gens)
    if n == 0:
        if lefts is None or max_degree in lefts:
            yield (), max_degree
        return
    # after[i]: the smallest degree after generator i; above max_degree for the last
    after = [0] * n
    low = max_degree + 1
    for i in range(n - 1, -1, -1):
        after[i] = low
        low = min(low, gens[i].degree)
    cur = [0] * n
    rems: List[int] = []
    stack: List[Iterator[int]] = []
    rem: Optional[int] = max_degree  # what is left for the next generator, on a step down
    while rem is not None or stack:
        if rem is not None:
            g = gens[len(stack)]
            top = rem // g.degree if g.degree else 1  # degree 0 here is exterior
            exps = range((min(top, 1) if g.kind == EXTERIOR else top) + 1)
            if len(stack) < n - 1:
                rems.append(rem)
                stack.append(iter(exps))
            else:
                for e in exps:
                    left = rem - e * g.degree
                    if lefts is None or left in lefts:
                        cur[-1] = e
                        yield tuple(cur), left
                cur[-1] = 0
                if not stack:
                    break
        i = len(stack) - 1
        e = next(stack[i], None)
        rem = None
        if e is None:
            stack.pop()
            rems.pop()
            cur[i] = 0
            continue
        cur[i] = e
        left = rems[i] - e * gens[i].degree
        if left >= after[i]:
            rem = left
        elif lefts is None or left in lefts:
            yield tuple(cur), left


def basis_in_degree(A: Algebra, d: int) -> List[Monomial]:
    """All monomials of degree exactly d, in canonical order."""
    return sorted(m for m, left in _free_walk(A, d) if left == 0)


def basis_up_to(A: Algebra, max_degree: int,
                degrees: Optional[Iterable[int]] = None) -> Dict[int, List[Monomial]]:
    """All monomials of degree 0..max_degree in one pass, by degree, each
    list in canonical order (as basis_in_degree gives it); degrees without
    a monomial are left out, and so, when degrees is given, are the degrees
    it does not hold."""
    out: Dict[int, List[Monomial]] = {}
    for m, left in _free_walk(A, max_degree, degrees):
        out.setdefault(max_degree - left, []).append(m)
    for mons in out.values():
        mons.sort()
    return out


def graded_dims(A: Algebra, max_degree: int) -> List[int]:
    """Dimensions of A in degrees 0..max_degree, by generating-series product."""
    dims = [0] * (max_degree + 1)
    dims[0] = 1
    for g in A.generators:
        if g.degree == 0:
            raise InfiniteBasisError("infinite basis")
        new = [0] * (max_degree + 1)
        if g.kind == EXTERIOR:
            reach: Iterable[int] = (0, 1)
        else:
            reach = range(0, max_degree // g.degree + 1)
        for e in reach:
            shift = e * g.degree
            if shift > max_degree:
                break
            for d in range(shift, max_degree + 1):
                new[d] += dims[d - shift]
        dims = new
    return dims
