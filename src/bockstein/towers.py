"""Tower profiles: the engine's and the closed-form constructors' common
output format, plus the certification diff.

A tower length is a positive int (a finite v-tower, i.e. p^k torsion over
v_0 or a P(v)/v^k summand over v_1/v_2), INF for a free summand, or an
Unknown marker when the run does not determine the length.  Unknown
carries an advisory lower bound, or the advisory mark that the tower may
not exist at all; both are excluded from equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

INF = math.inf


@dataclass(frozen=True)
class Unknown:
    """A tower alive to the window edge whose continuation is undetermined.

    A plain Unknown stands for a tower that exists: its length is >= lower
    if finite.  A possibly-absent Unknown stands for a class that may
    support a differential the run did not fire; its whole v-tower then
    leaves, so it claims neither a tower nor a lower bound.
    """

    lower: Optional[int] = None  # advisory: length is >= lower if finite
    possibly_absent: bool = False  # advisory: there may be no tower at all

    def __post_init__(self) -> None:
        if self.possibly_absent and self.lower is not None:
            raise ValueError("a possibly-absent unknown carries no lower bound")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unknown)

    def __hash__(self) -> int:
        return hash("unknown")


TowerLength = Union[int, float, Unknown]


def _length_key(x: TowerLength) -> Tuple[int, float]:
    if isinstance(x, Unknown):
        return (3 if x.possibly_absent else 2, float(x.lower or 0))
    if x == INF:
        return (1, 0.0)
    return (0, float(x))


def length_str(x: TowerLength) -> str:
    if isinstance(x, Unknown):
        if x.possibly_absent:
            return "unknown(possibly absent)"
        return f"unknown(>= {x.lower})" if x.lower is not None else "unknown"
    if x == INF:
        return "inf"
    return str(int(x))


@dataclass
class TowerProfile:
    """Per topological degree, the multiset of tower lengths."""

    max_degree: int
    towers: Dict[int, List[TowerLength]] = field(default_factory=dict)

    def add(self, degree: int, length: TowerLength) -> None:
        if isinstance(length, int) and length < 1:
            raise ValueError("tower length must be >= 1")
        lengths = self.towers.setdefault(degree, [])
        lengths.append(length)
        if len(lengths) > 1:
            lengths.sort(key=_length_key)

    def lengths(self, degree: int) -> List[TowerLength]:
        return list(self.towers.get(degree, []))

    def degrees(self) -> List[int]:
        return sorted(d for d, v in self.towers.items() if v)

    def restrict(self, max_degree: int) -> "TowerProfile":
        out = TowerProfile(max_degree)
        for d, v in self.towers.items():
            if 0 <= d <= max_degree and v:
                out.towers[d] = sorted(v, key=_length_key)
        return out

    def has_unknown(self) -> bool:
        return any(isinstance(x, Unknown) for v in self.towers.values() for x in v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TowerProfile):
            return NotImplemented
        a = {d: v for d, v in self.towers.items() if v}
        b = {d: v for d, v in other.towers.items() if v}
        return self.max_degree == other.max_degree and a == b

    def summary_lines(self) -> List[str]:
        out = []
        for d in self.degrees():
            out.append(f"t={d:>5}: " + ", ".join(length_str(x) for x in self.towers[d]))
        return out


@dataclass
class DiffReport:
    """Result of comparing an engine profile against an oracle profile."""

    mismatches: List[Tuple[int, List[TowerLength], List[TowerLength]]] = field(default_factory=list)
    unverified: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self) -> List[str]:
        out = []
        for d, eng, orc in self.mismatches:
            out.append(
                f"MISMATCH t={d}: engine {[length_str(x) for x in eng]}"
                f" vs oracle {[length_str(x) for x in orc]}"
            )
        for d, msg in self.unverified:
            out.append(f"unverified t={d}: {msg}")
        if not out:
            out.append("profiles agree exactly")
        return out


def _unknown_matches(u: Unknown, length: TowerLength) -> bool:
    if isinstance(length, Unknown):
        return True
    if u.lower is None:
        return True
    if length == INF:
        return True
    return int(length) >= u.lower


def compare(engine: TowerProfile, oracle: TowerProfile, max_degree: Optional[int] = None) -> DiffReport:
    """Per-degree multiset comparison; engine Unknown entries match any
    oracle entry consistent with their bound but are reported as unverified.

    A plain Unknown must absorb an oracle entry.  A possibly-absent Unknown
    absorbs one if any is left over, and otherwise stays unmatched without a
    mismatch; either way it is listed as unverified.

    Only the degrees 0..D that either profile holds are visited, in
    increasing order, and a degree whose two lists are equal and hold no
    Unknown is passed over: it adds nothing to the report."""
    D = max_degree if max_degree is not None else min(engine.max_degree, oracle.max_degree)
    report = DiffReport()
    for d in sorted(d for d in engine.towers.keys() | oracle.towers.keys() if 0 <= d <= D):
        eng = engine.towers.get(d, [])
        if eng == oracle.towers.get(d, []) and not any(isinstance(x, Unknown) for x in eng):
            continue
        eng = engine.lengths(d)
        orc = oracle.lengths(d)
        known = [x for x in eng if not isinstance(x, Unknown)]
        unknowns = [x for x in eng if isinstance(x, Unknown)]
        rest = list(orc)
        leftover_known = []
        for x in known:
            if x in rest:
                rest.remove(x)
            else:
                leftover_known.append(x)
        # unknowns absorb remaining oracle entries they are consistent with,
        # smallest bound first against smallest remaining length; the
        # possibly-absent ones sort last and take only what is left
        unmatched_unknowns: List[Unknown] = []
        for u in sorted(unknowns, key=_length_key):
            hit = next((x for x in sorted(rest, key=_length_key) if _unknown_matches(u, x)), None)
            if hit is None and u.possibly_absent:
                report.unverified.append(
                    (d, f"engine {length_str(u)} matched to no oracle tower; "
                        "the degree may hold none, unverified"))
            elif hit is None:
                unmatched_unknowns.append(u)
            else:
                rest.remove(hit)
                report.unverified.append(
                    (d, f"engine {length_str(u)} matched to oracle {length_str(hit)} unverified")
                )
        if leftover_known or rest or unmatched_unknowns:
            report.mismatches.append((d, eng, orc))
    return report
