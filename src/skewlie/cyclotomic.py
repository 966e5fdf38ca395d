"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Elements are stored reduced modulo the e-th cyclotomic polynomial in the power
basis 1, z, ..., z^(phi(e)-1).  A per-conductor table of x^k mod Phi_e for
k < e makes products, Galois twists and root-of-unity sums cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from .errors import SpecError

ZERO = Fraction(0)
ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            out[k - dd] = c
            for i in range(dd + 1):
                num[k - dd + i] -= c * den[i]
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, lowest degree first, monic."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_basis_table(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_e for k in 0..e-1, each as its nonzero (i, coefficient)
    pairs in the power basis; past phi(e) most rows have few terms."""
    phi = euler_phi(e)
    top = [-c for c in cyclotomic_polynomial(e)[:phi]]
    table = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(e):
        table.append(tuple((i, c) for i, c in enumerate(cur) if c))
        lead = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if lead:
            nxt = [a + lead * b for a, b in zip(nxt, top)]
        cur = nxt
    return tuple(table)


def reduce_root_vector(e: int, mults: Sequence) -> list:
    """Power-basis coordinates of sum_k mults[k] * zeta_e^k; ints for int mults."""
    table = power_basis_table(e)
    out = [0] * euler_phi(e)
    for k, c in enumerate(mults):
        if c:
            for i, t in table[k % e]:
                out[i] += c * t
    return out


def twist_root_vector(mv: Sequence[int], k: int, e: int) -> tuple[int, ...]:
    """Root multiplicities of the value under the Galois twist zeta -> zeta^k."""
    out = [0] * e
    for idx in compress(range(len(mv)), mv):  # mv is mostly zeros at large e
        out[idx * k % e] += mv[idx]
    return tuple(out)


class Cyclotomic:
    """An element of Q(zeta_e) with exact rational coordinates."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if conductor < 1:
            raise SpecError("conductor must be positive")
        if len(coeffs) != euler_phi(conductor):
            raise SpecError(
                f"need {euler_phi(conductor)} coordinates at conductor {conductor}, "
                f"got {len(coeffs)}"
            )
        self.conductor = conductor
        self.coeffs = coeffs

    @classmethod
    def zero(cls, e: int) -> "Cyclotomic":
        return cls(e, [ZERO] * euler_phi(e))

    @classmethod
    def rational(cls, e: int, value) -> "Cyclotomic":
        coeffs = [ZERO] * euler_phi(e)
        coeffs[0] = Fraction(value)
        return cls(e, coeffs)

    @classmethod
    def one(cls, e: int) -> "Cyclotomic":
        return cls.rational(e, 1)

    @classmethod
    def root(cls, e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k."""
        return cls.from_root_vector(e, [0] * (k % e) + [1])

    @classmethod
    def from_root_vector(cls, e: int, mults: Sequence) -> "Cyclotomic":
        return cls(e, reduce_root_vector(e, mults))

    def _check(self, other: "Cyclotomic") -> None:
        if self.conductor != other.conductor:
            raise SpecError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        e = self.conductor
        phi = len(self.coeffs)
        prod = [ZERO] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        table = power_basis_table(e)
        out = list(prod[:phi])
        for j in range(phi, 2 * phi - 1):
            c = prod[j]
            if c:
                for i, t in table[j % e]:
                    out[i] += c * t
        return Cyclotomic(e, out)

    def scale(self, q) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic(self.conductor, [q * a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and self.conductor == other.conductor
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def galois(self, k: int) -> "Cyclotomic":
        """Image under the field automorphism zeta -> zeta^k (gcd(k, e) = 1)."""
        e = self.conductor
        if gcd(k, e) != 1:
            raise SpecError(f"{k} is not coprime to the conductor {e}")
        table = power_basis_table(e)
        out = [ZERO] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                for i, t in table[(j * k) % e]:
                    out[i] += c * t
        return Cyclotomic(e, out)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(self.conductor - 1 if self.conductor > 1 else 1)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticError(f"{self} is not rational")
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self:
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{j}" if j > 1 else "")
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def cyclotomic_add(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    return a + b


def cyclotomic_mul(a: Cyclotomic, b: Cyclotomic) -> Cyclotomic:
    return a * b


def galois_apply(k: int, a: Cyclotomic) -> Cyclotomic:
    return a.galois(k)
