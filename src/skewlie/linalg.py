"""Exact dense linear algebra over the rationals and the integers.

Matrices are row-major lists of lists of ``fractions.Fraction`` (``QMatrix``),
or plain ints for the integer lattice routines.  Elimination is fraction-free:
rows are scaled to primitive integer vectors, reduced with cross-multiplication,
and only normalized back to rationals at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

QMatrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows: Sequence[Sequence]) -> QMatrix:
    """Coerce nested sequences of ints/Fractions/strings into a QMatrix."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> QMatrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _primitive_int_rows(m: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row to a primitive integer vector (zero rows stay zero)."""
    out = []
    for row in m:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _int_echelon(rows: list[list[int]]) -> list[int]:
    """In-place fraction-free row echelon reduction; returns pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for k in range(r, nrows):
            if rows[k][c]:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pval = prow[c]
        for k in range(r + 1, nrows):
            v = rows[k][c]
            if not v:
                continue
            g = gcd(pval, v)
            a, b = pval // g, v // g
            new = [a * x - b * y for x, y in zip(rows[k], prow)]
            g2 = 0
            for x in new:
                g2 = gcd(g2, x)
            if g2 > 1:
                new = [x // g2 for x in new]
            rows[k] = new
        pivots.append(c)
        r += 1
    return pivots


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    rows = _primitive_int_rows(m)
    return len(_int_echelon(rows))


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[QMatrix, int, list[int]]:
    """Reduced row echelon form: (rref matrix, rank, pivot columns)."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = _primitive_int_rows(m)
    pivots = _int_echelon(rows)
    rnk = len(pivots)
    frac_rows: list[list[Fraction]] = [[] for _ in range(rnk)]
    for i in range(rnk - 1, -1, -1):
        pv = rows[i][pivots[i]]
        row = [Fraction(x, pv) for x in rows[i]]
        for j in range(i + 1, rnk):
            f = row[pivots[j]]
            if f:
                rj = frac_rows[j]
                row = [x - f * y for x, y in zip(row, rj)]
        frac_rows[i] = row
    out = frac_rows + [[ZERO] * ncols for _ in range(nrows - rnk)]
    return out, rnk, pivots


def rref_rows(m: Sequence[Sequence[Fraction]]) -> QMatrix:
    """Nonzero rows of the RREF: a canonical basis of the row space."""
    out, rnk, _ = rref(m)
    return out[:rnk]


def nullspace_rows(m: Sequence[Sequence[Fraction]]) -> QMatrix:
    """Basis vectors of the right null space, one per row, in canonical form.

    Each basis vector carries a 1 in "its" free column and 0 in the others',
    so span comparisons reduce to RREF equality of the stacked rows.
    """
    out, _, pivots = rref(m)
    ncols = len(m[0]) if m else 0
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -out[i][f]
        basis.append(v)
    return basis


def kernel(m: Sequence[Sequence[Fraction]]) -> QMatrix:
    """Basis of the right null space as matrix columns: m @ kernel(m) == 0."""
    basis = nullspace_rows(m)
    ncols = len(m[0]) if m else 0
    return [[basis[j][i] for j in range(len(basis))] for i in range(ncols)]


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction] | None:
    """One solution of a·x = b with free variables set to 0, or None."""
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    out, rnk, pivots = rref(aug)
    ncols = len(a[0]) if a else 0
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = out[i][ncols]
    return x


def hnf(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form over the integers.

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows are dropped; the integer row span is preserved.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [k for k in range(r, nrows) if rows[k][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda k: (abs(rows[k][c]), k))
            k0, k1 = nz[0], nz[1]
            q = rows[k1][c] // rows[k0][c]
            rows[k1] = [a - q * b for a, b in zip(rows[k1], rows[k0])]
        nz = [k for k in range(r, nrows) if rows[k][c]]
        if not nz:
            continue
        k = nz[0]
        rows[r], rows[k] = rows[k], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for k in range(r):
            q = rows[k][c] // rows[r][c]
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def clear_denominators(row: Sequence[Fraction]) -> list[int]:
    """Smallest positive integer multiple of a rational row."""
    den = 1
    for x in row:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in row]
