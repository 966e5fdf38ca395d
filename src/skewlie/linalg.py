"""Exact dense linear algebra over the rationals and the integers.

Matrices are row-major lists of lists of ``fractions.Fraction`` (``QMatrix``),
or plain ints for the integer lattice routines.  Elimination is fraction-free:
rows are scaled to primitive integer vectors, reduced with cross-multiplication,
and only normalized back to rationals at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Sequence

QMatrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

MODULUS = 2**61 - 1  # a Mersenne prime


def identity(n: int) -> QMatrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _primitive_int_rows(m: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row to a primitive integer vector (zero rows stay zero)."""
    out = []
    for row in m:
        den = reduce(lcm, (x.denominator for x in row), 1)
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = reduce(gcd, ints, 0)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _cancel(row: list[int], prow: list[int], c: int) -> list[int]:
    """The primitive integer combination of row and prow with 0 in column c."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    g2 = reduce(gcd, new, 0)
    return [x // g2 for x in new] if g2 > 1 else new


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
        for k in range(r + 1, nrows):
            if rows[k][c]:
                rows[k] = _cancel(rows[k], prow, c)
        pivots.append(c)
        r += 1
    return pivots


def rank_mod_p_reaches(rows: Iterable[Sequence[int]], target: int) -> bool:
    """Whether the integer rows reach rank ``target`` mod MODULUS, read one at a time
    until they do.

    Reduction mod a prime maps every vanishing minor to 0, so the rank mod p never
    exceeds the rank over Q: True is exact.  False may only mean that p divides
    every nonzero minor of that size, and then an exact rank has to decide.
    """
    if target <= 0:
        return True
    p = MODULUS
    pivots: list[tuple[int, list[int]]] = []  # (column, row with 1 there and 0 at earlier pivots)
    for row in rows:
        v = list(row)
        for c, prow in pivots:
            f = v[c] % p
            if f:
                v = [a - f * b for a, b in zip(v, prow)]  # reduced once, below
        v = [x % p for x in v]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            scale = pow(v[c], -1, p)
            pivots.append((c, [x * scale % p for x in v]))
            if len(pivots) == target:
                return True
    return False


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    rows = _primitive_int_rows(m)
    return len(_int_echelon(rows))


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[QMatrix, int, list[int]]:
    """Reduced row echelon form: (rref matrix, rank, pivot columns), cleared in integers."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = _primitive_int_rows(m)
    pivots = _int_echelon(rows)
    rnk = len(pivots)
    for i in range(rnk - 1, -1, -1):
        for j in range(i + 1, rnk):
            if rows[i][pivots[j]]:
                rows[i] = _cancel(rows[i], rows[j], pivots[j])
    out = [[Fraction(x, rows[i][pc]) for x in rows[i]] for i, pc in enumerate(pivots)]
    return out + [[ZERO] * ncols for _ in range(nrows - rnk)], rnk, pivots


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

