"""Exact dense linear algebra over the rationals and the integers.

Matrices are row-major lists of lists of ``fractions.Fraction`` (``QMatrix``),
or plain ints for the integer lattice routines.  Every exact space comes from one
fraction-free elimination, ``_echelon``, which reads integer rows one at a time,
reduces them by cross-multiplication and keeps the RREF rows up to scale.  ``rank``,
``rref`` and ``solve`` scale rational rows to integers first; ``null_space`` returns
the canonical kernel basis in integers over one common denominator.
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


def _clear_denominators(m: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, primitive if the row has an entry 1."""
    out = []
    for row in m:
        den = reduce(lcm, (x.denominator for x in row), 1)
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _cancel(row: list[int], prow: list[int], c: int) -> list[int]:
    """The primitive integer combination of row and prow with 0 in column c."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    g2 = reduce(gcd, new, 0)
    return [x // g2 for x in new] if g2 > 1 else new


def _echelon(rows: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """Fraction-free reduced echelon form of integer rows read one at a time, as
    {pivot column: primitive row}: each new row is reduced against the kept rows, then
    its pivot's column is cleared from them.  A kept row starts at its pivot and is 0
    at the other pivots, so the kept rows are the RREF rows up to scale."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for c, prow in pivots.items():
            if row[c]:
                row = _cancel(row, prow, c)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        g = reduce(gcd, row, 0)
        if g > 1:
            row = [x // g for x in row]
        for k, prow in pivots.items():
            if prow[c]:
                pivots[k] = _cancel(prow, row, c)
        pivots[c] = row
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
    return len(_echelon(_clear_denominators(m)))


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[QMatrix, int, list[int]]:
    """Reduced row echelon form: (rref matrix, rank, pivot columns)."""
    ncols = len(m[0]) if m else 0
    echelon = _echelon(_clear_denominators(m))
    pivots = sorted(echelon)
    out = [[Fraction(x, echelon[c][c]) for x in echelon[c]] for c in pivots]
    return out + [[ZERO] * ncols for _ in range(len(m) - len(pivots))], len(pivots), pivots


def rref_rows(m: Sequence[Sequence[Fraction]]) -> QMatrix:
    """Nonzero rows of the RREF: a canonical basis of the row space."""
    out, rnk, _ = rref(m)
    return out[:rnk]


def null_space(rows: Iterable[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """(L, B) for the right null space of integer rows of length n: B / L is its canonical
    basis, one vector per free column with 1 there and 0 in the other free columns.  L is
    the lcm of the pivots; with no rows, L = 1 and B is the identity."""
    echelon = _echelon(rows)
    den = reduce(lcm, (row[c] for c, row in echelon.items()), 1)
    basis = []
    for f in range(n):
        if f not in echelon:
            v = [0] * n
            v[f] = den
            for c, row in echelon.items():
                v[c] = -row[f] * (den // row[c])
            basis.append(v)
    return den, basis


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

