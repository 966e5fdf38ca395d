"""Exact dense linear algebra over the integers.

Every exact space comes from one fraction-free elimination, ``_echelon``, which reads
integer rows one at a time, reduces them by cross-multiplication and keeps the RREF
rows up to scale.  A subspace of Q^n has one representation, its canonical integer
basis: ``row_basis`` returns the primitive integer multiples of its RREF rows, and
``null_space`` the canonical kernel basis over one common denominator.  The rank of
integer rows is ``len(_echelon(rows))``.  Every elimination mod a prime, the rank
certificate ``rank_mod_p_reaches`` and the table's Krylov split, runs ``reduce_mod_p``.
``pack`` puts a row into one int, a slot per entry, so a combination of rows is a few
big-int multiply-adds (Kronecker substitution); ``unpack_mod`` reads it back mod p.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, mod, mul, sub
from typing import Iterable, Sequence

MODULUS = 2**26 - 5  # a prime: products of two residues fit two 30-bit int digits
_WORDS = 1 if sys.byteorder == "little" else -1  # slot 0 first, in native byte order


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


def reduce_mod_p(row: list[int], pivots: list[tuple[int, list[int]]], p: int, width: int) -> bool:
    """Reduce ``row`` in place against ``pivots``, each (column, row with 1 there), in
    order, and mod the prime p once at the end; a shorter pivot leaves the rest of the row
    as it is.  If the first ``width`` entries are not all 0, scale the row to 1 at the
    first nonzero one, append it to ``pivots`` and return True."""
    for c, prow in pivots:
        if f := row[c] % p:
            row[:len(prow)] = map(sub, row, map(mul, prow, repeat(f)))
    row[:] = map(mod, row, repeat(p))
    c = next(compress(range(width), row), None)
    if c is not None:
        row[:] = map(mod, map(mul, row, repeat(pow(row[c], -1, p))), repeat(p))
        pivots.append((c, row))
    return c is not None


def slot_words(bound: int) -> int:
    """The number of 64-bit words a slot needs to hold every int in [0, bound]."""
    return max(1, -(-bound.bit_length() // 64))


def pack(row: Sequence[int], words: int) -> int:
    """The int with row[j], each in [0, 2^64), in slot j of ``words`` 64-bit words."""
    slots = array("Q", bytes(8 * words * len(row)))
    slots[::words] = array("Q", row)
    return int.from_bytes(slots[::_WORDS], sys.byteorder)


def unpack_mod(x: int, size: int, words: int, p: int) -> list[int]:
    """The ``size`` slots of ``words`` 64-bit words of x >= 0, each mod p: the inverse of
    ``pack`` for a sum of packed rows whose every slot stays below 2^(64 words)."""
    slots = array("Q", x.to_bytes(8 * words * size, sys.byteorder))[::_WORDS]
    acc = slots[::words]
    for i in range(1, words):
        acc = map(add, acc, map(mul, slots[i::words], repeat(pow(2, 64 * i, p))))
    return list(map(mod, acc, repeat(p)))


def rank_mod_p_reaches(rows: Iterable[Sequence[int]], target: int) -> bool:
    """Whether the integer rows reach rank ``target`` mod MODULUS, read one at a time
    until they do.

    Reduction mod a prime maps every vanishing minor to 0, so the rank mod p never
    exceeds the rank over Q: True is exact.  False may only mean that p divides
    every nonzero minor of that size, and then an exact rank has to decide.
    """
    if target <= 0:
        return True
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        v = list(row)
        if reduce_mod_p(v, pivots, MODULUS, len(v)) and len(pivots) == target:
            return True
    return False


def row_basis(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The canonical integer basis of the row space: the RREF rows in pivot order,
    each scaled to a primitive integer row with a positive pivot."""
    echelon = _echelon(rows)
    return [row if row[c] > 0 else [-x for x in row] for c, row in sorted(echelon.items())]


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
