"""Frobenius-Schur indicators and the real/symplectic/complex dimension ledger."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator

from .cyclotomic import reduce_root_vector
from .errors import ComputationError
from .groups import square_root_count

if TYPE_CHECKING:
    from .wedderburn import CharacterTable


def fs_indicator(table: "CharacterTable", index: int) -> int:
    """(1/|G|) sum_g chi(g^2), always -1, 0, or 1; each distinct chi(g^2) is read once."""
    return next(_indicators(table, [table.root_mults[index]]))


def _indicators(table: "CharacterTable", rows: Iterable[tuple]) -> Iterator[int]:
    """The indicator of each of the rows, from one power map at 2."""
    e = table.conductor
    sizes = table.classes.sizes()
    weights: dict[int, int] = {}  # squared class -> total size of the classes squaring to it
    for j, k in enumerate(table.power_map(2)):
        weights[k] = weights.get(k, 0) + sizes[j]
    for row in rows:
        acc = [0] * e
        for k, w in weights.items():
            for t in compress(range(e), row[k]):  # the nonzero entries only
                acc[t] += w * row[k][t]
        red = reduce_root_vector(e, acc)
        if any(red[1:]):
            raise ComputationError("indicator sum is not rational (table bug)")
        value, rem = divmod(red[0], table.group.order)
        if rem or value not in (-1, 0, 1):
            raise ComputationError(
                f"indicator {red[0]}/{table.group.order} outside {{-1,0,1}} (table bug)")
        yield value


@dataclass(frozen=True)
class IndicatorReport:
    """Indicator per character, the type partition of the table, and the ledger parts."""

    indicators: tuple[int, ...]
    real: tuple[int, ...]
    symplectic: tuple[int, ...]
    complex_pairs: tuple[tuple[int, int], ...]
    eq1_identity: bool
    involution_count_identity: bool
    orthogonal_part: int
    symplectic_part: int
    pair_part: int
    square_roots: int
    indicator_weighted_degrees: int

    def to_json(self) -> dict:
        return {
            "indicators": list(self.indicators),
            "partition": {
                "real": list(self.real),
                "symplectic": list(self.symplectic),
                "complex_pairs": [list(p) for p in self.complex_pairs],
            },
            "eq1_identity": self.eq1_identity,
        }


def complex_dimension_identity(table: "CharacterTable") -> tuple[bool, dict]:
    """Dimension bookkeeping of the skew part of CG under g -> g^-1.

    Checks sum_real d(d-1)/2 + sum_symplectic d(d+1)/2 + sum_pairs d^2
    against (|G| - #{g : g^2 = 1}) / 2, all exactly; |G| - #{g : g^2 = 1}
    counts the elements paired with a distinct inverse, so it is even.
    """
    report = table.indicators
    detail = {
        "orthogonal_part": report.orthogonal_part,
        "symplectic_part": report.symplectic_part,
        "pair_part": report.pair_part,
        "rhs": (table.group.order - report.square_roots) // 2,
        "square_roots_of_identity": report.square_roots,
    }
    return report.eq1_identity, detail


def involution_count_identity(table: "CharacterTable") -> tuple[bool, dict]:
    """sum_chi nu2(chi) chi(1) equals the number of solutions of g^2 = 1."""
    report = table.indicators
    detail = {
        "indicator_weighted_degrees": report.indicator_weighted_degrees,
        "square_roots_of_identity": report.square_roots,
    }
    return report.involution_count_identity, detail


def indicator_report(table: "CharacterTable") -> IndicatorReport:
    """Indicators, the conjugate pairs, read through the inverse classes, and the ledger.
    An indicator is rational, so it is read on the first row of each Galois orbit."""
    rows = table.root_mults
    orbit = {i: o for o in table.orbits for i in o.members}
    nus = dict(zip(table.orbits, _indicators(table, [rows[o.members[0]] for o in table.orbits])))
    indicators = tuple(nus[orbit[i]] for i in range(len(rows)))
    real = tuple(i for i, nu in enumerate(indicators) if nu == 1)
    symp = tuple(i for i, nu in enumerate(indicators) if nu == -1)
    conj = table.classes.class_inverse  # conj chi(g) = chi(g^-1), the twist by -1
    pairs = []
    paired = set()
    for i, nu in enumerate(indicators):
        if nu != 0 or i in paired:
            continue
        bar = tuple(rows[i][c] for c in conj)
        j = next((j for j in orbit[i].members if rows[j] == bar), None)
        if j is None:
            raise ComputationError("conjugate character missing from the table")
        if j == i or indicators[j] != 0:
            raise ComputationError("complex-type character without a conjugate partner")
        paired.update((i, j))
        pairs.append((i, j))
    sqrt_count = square_root_count(table.group)
    lhs_real = sum(table.degrees[i] * (table.degrees[i] - 1) // 2 for i in real)
    lhs_symp = sum(table.degrees[i] * (table.degrees[i] + 1) // 2 for i in symp)
    lhs_pairs = sum(table.degrees[i] * table.degrees[i] for i, _ in pairs)
    eq1 = 2 * (lhs_real + lhs_symp + lhs_pairs) == table.group.order - sqrt_count
    weighted = sum(nu * d for nu, d in zip(indicators, table.degrees))
    return IndicatorReport(
        indicators=indicators,
        real=real,
        symplectic=symp,
        complex_pairs=tuple(pairs),
        eq1_identity=eq1,
        involution_count_identity=weighted == sqrt_count,
        orthogonal_part=lhs_real,
        symplectic_part=lhs_symp,
        pair_part=lhs_pairs,
        square_roots=sqrt_count,
        indicator_weighted_degrees=weighted,
    )
