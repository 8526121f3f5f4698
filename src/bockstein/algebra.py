"""Exact arithmetic in free graded-commutative algebras over F_p.

Monomials are exponent tuples aligned with the generator list of an
:class:`Algebra`; elements are dicts mapping monomials to nonzero residues
in ``{1, ..., p-1}``.  The canonical monomial order used everywhere
downstream is graded lexicographic, i.e. the sort key ``(degree, exponents)``.

Divided-power generators are a constructor-level convenience: they are
stored in expanded characteristic-p form (one truncated-height-p factor per
``gamma_{p^k}``) by :func:`expand_divided`.  Operations that need exponent
arithmetic reject unexpanded divided generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

Monomial = Tuple[int, ...]
Element = Dict[Monomial, int]

EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"
TRUNCATED = "truncated"
DIVIDED = "divided"
LAURENT = "laurent"

_KINDS = (EXTERIOR, POLYNOMIAL, TRUNCATED, DIVIDED, LAURENT)


class AlgebraError(ValueError):
    pass


class ForeignGeneratorError(AlgebraError):
    """Raised when an element does not live over the given algebra."""


class InfiniteBasisError(AlgebraError):
    """Raised when a basis enumeration cannot terminate."""


class NotFreeError(AlgebraError):
    """Raised for operations that only apply to free algebras."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GeneratorSpec:
    """A named algebra generator with an internal degree and a kind."""

    name: str
    degree: int
    kind: str = POLYNOMIAL
    height: Optional[int] = None  # truncated kind only: exponents 0..height-1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise AlgebraError(f"unknown generator kind {self.kind!r}")
        if self.degree < 0:
            raise AlgebraError(f"generator {self.name}: degree must be >= 0")
        if self.kind == TRUNCATED:
            if self.height is None or self.height < 2:
                raise AlgebraError(f"generator {self.name}: truncated height must be >= 2")
        elif self.height is not None:
            raise AlgebraError(f"generator {self.name}: height only applies to truncated kind")

    def exponent_ok(self, e: int) -> bool:
        if self.kind == EXTERIOR:
            return e in (0, 1)
        if self.kind == TRUNCATED:
            return 0 <= e < self.height  # type: ignore[operator]
        if self.kind == LAURENT:
            return True
        return e >= 0


@dataclass(frozen=True)
class Algebra:
    """A free graded-commutative algebra over F_p on an ordered generator list."""

    p: int
    generators: Tuple[GeneratorSpec, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise AlgebraError(f"{self.p} is not prime")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        if self.p != 2:
            for g in self.generators:
                if g.kind == EXTERIOR and g.degree % 2 == 0:
                    raise AlgebraError(
                        f"generator {g.name}: exterior generators must have odd degree at odd p"
                    )
        object.__setattr__(self, "_index", {g.name: i for i, g in enumerate(self.generators)})
        object.__setattr__(self, "_degrees", tuple(g.degree for g in self.generators))

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
        return sum(e * d for e, d in zip(m, degs))

    def parity(self, m: Monomial) -> int:
        degs: Tuple[int, ...] = self._degrees  # type: ignore[attr-defined]
        return sum(e * d for e, d in zip(m, degs)) % 2

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

    def has_divided(self) -> bool:
        return any(g.kind == DIVIDED for g in self.generators)


def mul_monomials(A: Algebra, m1: Monomial, m2: Monomial) -> Tuple[int, Monomial]:
    """Product of two monomials: (sign in {0, 1, -1}, canonical monomial).

    The sign is the Koszul sign of interleaving m2's factors into m1;
    zero means the product dies by a kind constraint (exterior square,
    truncation).
    """
    if len(m1) != A.ngens or len(m2) != A.ngens:
        raise ForeignGeneratorError("foreign generator (monomial length mismatch)")
    out = []
    sign_exp = 0
    suffix_parity = A.parity(m1)
    degs = A._degrees  # type: ignore[attr-defined]
    for j, (e, f, g) in enumerate(zip(m1, m2, A.generators)):
        # moving g^f from m2 past the part of m1 strictly to the right of position j
        suffix_parity = (suffix_parity - e * degs[j]) % 2
        if f and degs[j] % 2:
            sign_exp += (f % 2) * suffix_parity
        tot = e + f
        if not g.exponent_ok(tot):
            if g.kind in (EXTERIOR, TRUNCATED):
                return 0, A.unit
            raise AlgebraError(f"exponent {tot} invalid for generator {g.name}")
        out.append(tot)
    return (-1) ** (sign_exp % 2), tuple(out)


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


def multiply(a: Element, b: Element, A: Algebra) -> Element:
    """Bilinear graded-commutative product with Koszul signs."""
    if A.has_divided():
        raise NotFreeError("expand divided-power generators first (expand_divided)")
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


def element_degree(a: Element, A: Algebra) -> Optional[int]:
    """Common degree of a homogeneous element, None for the zero element."""
    degs = {A.degree(m) for m in a}
    if not degs:
        return None
    if len(degs) > 1:
        raise AlgebraError(f"element is not homogeneous (degrees {sorted(degs)})")
    return degs.pop()


def basis_in_degree(A: Algebra, d: int, filtration_cap: Optional[int] = None) -> List[Monomial]:
    """All monomials of degree exactly d, in canonical order.

    With `filtration_cap` set, exponents of Laurent generators are bounded by
    |e| <= cap and exponents of degree-0 polynomial generators by e <= cap;
    without it those enumerations cannot terminate.
    """
    if A.has_divided():
        raise NotFreeError("expand divided-power generators first (expand_divided)")
    has_laurent = any(g.kind == LAURENT for g in A.generators)
    unbounded = has_laurent or any(
        g.degree == 0 and g.kind in (POLYNOMIAL,) for g in A.generators
    )
    if unbounded and filtration_cap is None:
        raise InfiniteBasisError("infinite basis")
    if d < 0 and not has_laurent:
        return []

    gens = A.generators
    n = len(gens)
    out: List[Monomial] = []
    cur = [0] * n

    # Laurent generators let later factors reach degree d from any partial sum,
    # so the remaining-degree pruning only applies on laurent-free tails.
    laurent_after = [False] * (n + 1)
    for i in range(n - 1, -1, -1):
        laurent_after[i] = laurent_after[i + 1] or gens[i].kind == LAURENT

    def rec(i: int, rem: int) -> None:
        if i == n:
            if rem == 0:
                out.append(tuple(cur))
            return
        g = gens[i]
        if g.kind == EXTERIOR:
            exps: Iterable[int] = (0, 1)
        elif g.kind == TRUNCATED:
            exps = range(g.height)  # type: ignore[arg-type]
        elif g.kind == LAURENT:
            cap = filtration_cap if filtration_cap is not None else 0
            exps = range(-cap, cap + 1)
        else:  # polynomial
            if g.degree == 0:
                cap = filtration_cap if filtration_cap is not None else 0
                exps = range(0, cap + 1)
            else:
                exps = range(0, rem // g.degree + 1) if rem >= 0 else range(0)
        for e in exps:
            used = e * g.degree
            if not laurent_after[i + 1] and rem - used < 0:
                if g.degree > 0 and e >= 0:
                    break
                continue
            cur[i] = e
            rec(i + 1, rem - used)
            cur[i] = 0

    rec(0, d)
    out.sort()
    return out


def basis_up_to(A: Algebra, max_degree: int) -> Dict[int, List[Monomial]]:
    """All monomials of degree 0..max_degree in one pass, by degree, each
    list in canonical order (as basis_in_degree gives it); degrees without
    a monomial are left out."""
    if A.has_divided():
        raise NotFreeError("expand divided-power generators first (expand_divided)")
    gens = A.generators
    if any(g.kind == LAURENT or (g.degree == 0 and g.kind == POLYNOMIAL) for g in gens):
        raise InfiniteBasisError("infinite basis")
    if any(g.degree < 0 for g in gens):
        raise AlgebraError("basis_up_to needs generators of degree >= 0")
    n = len(gens)
    out: Dict[int, List[Monomial]] = {}
    cur = [0] * n

    def rec(i: int, deg: int) -> None:
        if i == n:
            out.setdefault(deg, []).append(tuple(cur))
            return
        g = gens[i]
        top = 1 if g.kind == EXTERIOR else g.height - 1 if g.kind == TRUNCATED else None
        e = 0
        while (top is None or e <= top) and deg + e * g.degree <= max_degree:
            cur[i] = e
            rec(i + 1, deg + e * g.degree)
            e += 1
        cur[i] = 0

    rec(0, 0)
    for mons in out.values():
        mons.sort()
    return out


def graded_dims(A: Algebra, max_degree: int) -> List[int]:
    """Dimensions of A in degrees 0..max_degree, by generating-series product."""
    if any(g.kind == LAURENT for g in A.generators):
        raise InfiniteBasisError("infinite basis")
    if A.has_divided():
        A = expand_divided(A, max_degree)
    dims = [0] * (max_degree + 1)
    dims[0] = 1
    for g in A.generators:
        if g.degree == 0:
            raise InfiniteBasisError("infinite basis")
        new = [0] * (max_degree + 1)
        if g.kind == EXTERIOR:
            reach: Iterable[int] = (0, 1)
        elif g.kind == TRUNCATED:
            reach = range(g.height)  # type: ignore[arg-type]
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


def expand_divided(A: Algebra, max_degree: int) -> Algebra:
    """Replace divided-power generators by truncated-height-p factors.

    A divided generator x of degree d becomes generators gamma_{p^k}(x) of
    degree p^k * d and height p, for all k with p^k * d <= max_degree.
    """
    gens: List[GeneratorSpec] = []
    p = A.p
    for g in A.generators:
        if g.kind != DIVIDED:
            gens.append(g)
            continue
        if g.degree == 0:
            raise AlgebraError(f"divided generator {g.name} must have positive degree")
        q = 1
        while q * g.degree <= max_degree:
            gens.append(GeneratorSpec(f"γ{q}({g.name})", q * g.degree, TRUNCATED, height=p))
            q *= p
    return Algebra(p, tuple(gens))


def _factorial_unit(n: int, p: int) -> int:
    """The unit part n! / p^{v_p(n!)} mod p (Wilson recursion)."""
    u = 1
    while n > 0:
        q, r = divmod(n, p)
        for k in range(2, r + 1):
            u = (u * k) % p
        if q % 2 == 1 and p != 2:
            u = (-u) % p
        n = q
    return u % p


def divided_gamma(A_exp: Algebra, base_name: str, i: int) -> Element:
    """The class gamma_i(x) in the expanded model of a divided-power algebra.

    In terms of the truncated generators, gamma_i = u * prod gamma_{p^k}^{d_k}
    where d_k are the base-p digits of i and u is the unit
    prod (p^k!)^{d_k} / i!  (the p-adic valuations cancel exactly).
    """
    p = A_exp.p
    if i < 0:
        raise AlgebraError("gamma index must be >= 0")
    if i == 0:
        return {A_exp.unit: 1}
    exps = [0] * A_exp.ngens
    num = 1
    q, k = 1, 0
    rem = i
    while rem > 0:
        d = rem % p
        if d:
            name = f"γ{q}({base_name})"
            exps[A_exp.index(name)] = d
            num = (num * pow(_factorial_unit(q, p), d, p)) % p
        rem //= p
        q *= p
        k += 1
    coeff = (num * pow(_factorial_unit(i, p), p - 2, p)) % p
    return {tuple(exps): coeff}


def derivation_extend(rules: Mapping[str, Element], x: Element, A: Algebra) -> Element:
    """Extend generator rules to the unique signed derivation.

    `rules` maps generator names to target elements; generators without a
    rule map to zero.  Satisfies d(xy) = d(x) y + (-1)^{|x|} x d(y).
    """
    if A.has_divided():
        raise NotFreeError("expand divided-power generators first (expand_divided)")
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
