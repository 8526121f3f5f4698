"""Dense row-echelon linear algebra over F_p for small matrices.

Rows are plain lists of residues.  Pivots are chosen at the first nonzero
column (lowest index), which together with the canonical monomial order
fixes deterministic representatives everywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

Row = List[int]


def inv_mod(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


def reduce_row(row: Sequence[int], ech: Dict[int, Row], p: int) -> Row:
    """Reduce a row against an echelon dict {pivot_col: normalized row}."""
    r = [c % p for c in row]
    for col in sorted(ech):
        c = r[col]
        if c:
            piv = ech[col]
            for j in range(col, len(r)):
                if piv[j]:
                    r[j] = (r[j] - c * piv[j]) % p
    return r


def echelon_insert(ech: Dict[int, Row], row: Sequence[int], p: int) -> Optional[int]:
    """Insert a row into an echelon dict; returns its pivot column or None."""
    r = reduce_row(row, ech, p)
    piv = next((j for j, c in enumerate(r) if c), None)
    if piv is None:
        return None
    inv = inv_mod(r[piv], p)
    r = [(c * inv) % p for c in r]
    # back-substitute into existing rows for a reduced echelon form
    for col, other in ech.items():
        c = other[piv]
        if c:
            for j in range(len(r)):
                if r[j]:
                    other[j] = (other[j] - c * r[j]) % p
    ech[piv] = r
    return piv


def echelon_from_rows(rows: Sequence[Sequence[int]], p: int) -> Dict[int, Row]:
    ech: Dict[int, Row] = {}
    for row in rows:
        echelon_insert(ech, row, p)
    return ech


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(echelon_from_rows(rows, p))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> List[Row]:
    """The product a . b of two matrices given by rows."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for j, c in enumerate(row):
            if c:
                for k, x in enumerate(b[j]):
                    if x:
                        acc[k] = (acc[k] + c * x) % p
        out.append(acc)
    return out


def left_kernel(rows: Sequence[Sequence[int]], ncols: int, p: int) -> List[Row]:
    """Basis of {x : x . M = 0} for M given by rows (len(x) = len(rows))."""
    return kernel_and_echelon(rows, ncols, p)[0]


def kernel_and_echelon(rows: Sequence[Sequence[int]], ncols: int,
                       p: int) -> Tuple[List[Row], Dict[int, Row]]:
    """The left kernel of M (given by rows, ncols wide) and the reduced
    echelon form of its rows, echelon_from_rows(rows, p), from one forward
    elimination of [M | 1]: the combos of the rows that reduce to zero are
    the kernel, and the pivot rows, cut to M's columns and back-substituted
    from the last pivot up, are the reduced echelon form, which is unique.
    The rank is the rows less the kernel's dimension."""
    m = len(rows)
    fwd: Dict[int, Row] = {}
    kernel: List[Row] = []
    for i, row in enumerate(rows):
        aug = list(row) + [0] * m
        aug[ncols + i] = 1
        r = reduce_row(aug, fwd, p)
        piv = next((j for j in range(ncols) if r[j]), None)
        if piv is None:
            kernel.append([c % p for c in r[ncols:]])
        else:
            inv = inv_mod(r[piv], p)
            fwd[piv] = [(c * inv) % p for c in r]
    ech: Dict[int, Row] = {}
    for piv in sorted(fwd, reverse=True):
        r = fwd[piv][:ncols]
        # the rows of later pivots are reduced already, so subtracting one
        # clears its pivot column and leaves the other pivot columns at 0
        for col, other in ech.items():
            c = r[col]
            if c:
                for j in range(col, ncols):
                    if other[j]:
                        r[j] = (r[j] - c * other[j]) % p
        ech[piv] = r
    return kernel, ech


class CosetSolver:
    """Express vectors of a cell in representative coordinates mod boundaries."""

    def __init__(self, reps: Sequence[Sequence[int]], boundaries: Sequence[Sequence[int]],
                 width: int, p: int) -> None:
        self.p = p
        self.width = width
        self.nreps = len(reps)
        self.bnd = echelon_from_rows(boundaries, p)
        # echelon of boundary-reduced reps, with tracking matrix T: ech_row = T . reps
        self.ech: List[Tuple[int, Row, Row]] = []  # (pivot, row, coeffs over reps)
        for i, rep in enumerate(reps):
            row = reduce_row(rep, self.bnd, p)
            track = [0] * self.nreps
            track[i] = 1
            for piv, erow, etrack in self.ech:
                c = row[piv]
                if c:
                    for j in range(width):
                        if erow[j]:
                            row[j] = (row[j] - c * erow[j]) % p
                    for j in range(self.nreps):
                        if etrack[j]:
                            track[j] = (track[j] - c * etrack[j]) % p
            piv = next((j for j, c in enumerate(row) if c), None)
            if piv is None:
                raise ValueError("representatives are dependent modulo boundaries")
            inv = inv_mod(row[piv], p)
            row = [(c * inv) % p for c in row]
            track = [(c * inv) % p for c in track]
            self.ech.append((piv, row, track))

    def express(self, vec: Sequence[int]) -> Optional[Row]:
        """Coefficients over the reps, or None if vec is not in their span."""
        p = self.p
        row = reduce_row(vec, self.bnd, p)
        coeffs = [0] * self.nreps
        for piv, erow, etrack in self.ech:
            c = row[piv]
            if c:
                for j in range(self.width):
                    if erow[j]:
                        row[j] = (row[j] - c * erow[j]) % p
                for j in range(self.nreps):
                    if etrack[j]:
                        coeffs[j] = (coeffs[j] + c * etrack[j]) % p
        if any(row):
            return None
        return coeffs

    def in_boundaries(self, vec: Sequence[int]) -> bool:
        return not any(reduce_row(vec, self.bnd, self.p))
