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


def _forward(rows: Sequence[Sequence[int]], ncols: int,
             p: int) -> Tuple[Dict[int, Row], List[Row]]:
    """One forward elimination of [M | 1], M given by rows and ncols wide:
    the pivot rows, each normalized at its pivot (the first nonzero of its
    M part) and reduced against the earlier ones only, and, in row order,
    the combos of the rows (the identity part) that reduce to zero in M.

    Each row is reduced as reduce_row would, against the pivots in
    increasing order (cols, kept sorted), in the one list it is built in."""
    width = ncols + len(rows)
    zeros = [0] * len(rows)
    fwd: Dict[int, Row] = {}
    cols: List[int] = []
    kernel: List[Row] = []
    for i, row in enumerate(rows):
        r = [c % p for c in row]
        r += zeros
        r[ncols + i] = 1
        for col in cols:
            c = r[col]
            if c:
                piv = fwd[col]
                for j in range(col, width):
                    if piv[j]:
                        r[j] = (r[j] - c * piv[j]) % p
        for j in range(ncols):
            if r[j]:
                inv = inv_mod(r[j], p)
                # r is reduced mod p, so a pivot of 1 leaves it normalized
                fwd[j] = r if inv == 1 else [(c * inv) % p for c in r]
                cols.append(j)
                cols.sort()
                break
        else:
            kernel.append(r[ncols:])
    return fwd, kernel


def kernel_and_echelon(rows: Sequence[Sequence[int]], ncols: int,
                       p: int) -> Tuple[List[Row], Dict[int, Row]]:
    """The left kernel of M (given by rows, ncols wide) and the reduced
    echelon form of its rows, echelon_from_rows(rows, p), from one forward
    elimination of [M | 1] (_forward): the combos of the rows that reduce
    to zero are the kernel, and the pivot rows, cut to M's columns and
    back-substituted from the last pivot up, are the reduced echelon form,
    which is unique.  The rank is the rows less the kernel's dimension."""
    fwd, kernel = _forward(rows, ncols, p)
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
    """Express vectors of a cell in representative coordinates mod boundaries.

    One forward elimination (_forward) of the boundaries, then the reps,
    each row tracking the combo of them it stands for.  A rep that reduces
    to zero is a combination of the boundaries and the earlier reps, so a
    kernel combo that takes a rep means the reps are dependent."""

    def __init__(self, reps: Sequence[Sequence[int]], boundaries: Sequence[Sequence[int]],
                 width: int, p: int) -> None:
        self.p = p
        self.width = width
        self.reps_at = width + len(boundaries)  # where the reps' part of a combo starts
        self.pad = len(boundaries) + len(reps)
        self.fwd, kernel = _forward(list(boundaries) + list(reps), width, p)
        if any(any(combo[len(boundaries):]) for combo in kernel):
            raise ValueError("representatives are dependent modulo boundaries")

    def express(self, vec: Sequence[int]) -> Optional[Row]:
        """Coefficients over the reps, or None if vec is not in their span
        modulo the boundaries.  Reducing [vec | 0] leaves [0 | -c] when vec
        is the combination c of the rows, so the coefficients are minus the
        reps' part of what is left."""
        p = self.p
        row = reduce_row(list(vec) + [0] * self.pad, self.fwd, p)
        if any(row[:self.width]):
            return None
        return [-c % p for c in row[self.reps_at:]]
