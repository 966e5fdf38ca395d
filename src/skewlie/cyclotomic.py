"""Character values in Q(zeta_e), read from their root multiplicities.

A value is an integer vector of length e: entry k counts the eigenvalues equal
to zeta_e^k.  It is reduced modulo the e-th cyclotomic polynomial to its
coordinates in the power basis 1, z, ..., z^(phi(e)-1) by a per-conductor
table of x^k mod Phi_e, and twisted by zeta -> zeta^k on the vector itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Sequence


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=64)  # the divisors of one exponent: at most 40 below the order cap
def ramanujan_sums(o: int) -> tuple[int, ...]:
    """c_o(m) = Tr_{Q(zeta_o)/Q}(zeta_o^m), m < o (Hardy and Wright, ch. 16): the m-th powers of
    all o-th roots of unity sum to o or 0, and c_d(m), d | o, sums those of order d."""
    divisors = [d for d in range(1, o) if o % d == 0]
    return tuple(o * (m == 0) - sum(ramanujan_sums(d)[m % d] for d in divisors) for m in range(o))


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


# a table near e = 2000 holds about 36 MB, and a character table reads only its own e
@lru_cache(maxsize=8)
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


def value_text(e: int, mults: Sequence[int]) -> str:
    """sum_k mults[k] zeta_e^k as text: its nonzero power-basis terms c, z<e>^j,
    -z<e>^j or c*z<e>^j (z<e> for j = 1) joined by their signs, or "0"."""
    terms = []
    for j, c in enumerate(reduce_root_vector(e, mults)):
        if c:
            z = f"z{e}" + (f"^{j}" if j > 1 else "")
            terms.append(str(c) if j == 0 else z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
    return "".join(t if i == 0 or t[0] == "-" else "+" + t for i, t in enumerate(terms)) or "0"
