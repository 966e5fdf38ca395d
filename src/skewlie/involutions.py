"""Rational group algebra elements, involutions, and the skew/symmetric split.

An involution is additive, reverses products, and squares to the identity.
All four spec kinds (canonical g -> g^-1, oriented g -> alpha(g) g^-1, a
general anti-automorphism of G, or an arbitrary rational matrix) are stored
the same way, as d and the sparse integer images of the basis elements under
d*sigma, and are checked against the axioms once, in integers, when built.
The group-induced kinds are d = 1 with every image one signed basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import SpecError
from .groups import Group, conjugacy_classes, generators
from .linalg import row_basis
from .serialize import frac_str

ZERO = Fraction(0)

CANONICAL = "canonical"
ORIENTED = "oriented"
ANTI_AUTOMORPHISM = "anti_automorphism"
LINEAR = "linear"
# The one field each kind of JSON spec carries besides "kind"; each kind names its constructor.
SPEC_FIELDS = {CANONICAL: None, ORIENTED: "alpha", ANTI_AUTOMORPHISM: "map", LINEAR: "matrix"}


class AlgebraElement:
    """An element of QG: exact rational coefficients over the group basis."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs: Iterable):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != group.order:
            raise SpecError(
                f"need {group.order} coefficients for {group.name}, got {len(coeffs)}"
            )
        self.group = group
        self.coeffs = coeffs

    @classmethod
    def basis(cls, group: Group, g: int) -> "AlgebraElement":
        return cls(group, [int(h == g) for h in range(group.order)])

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution product in QG."""
        if self.group is not other.group:
            raise SpecError("group mismatch between algebra elements")
        out = [ZERO] * self.group.order
        mult = self.group.mult
        for g, a in enumerate(self.coeffs):
            if a:
                row = mult[g]
                for h, b in enumerate(other.coeffs):
                    if b:
                        out[row[h]] += a * b
        return AlgebraElement(self.group, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group is other.group
            and self.coeffs == other.coeffs
        )


@dataclass(frozen=True, eq=False)
class Involution:
    """An involution of QG, checked against the axioms when it is built.

    ``scaled_columns`` is (d, columns) for d the least common denominator of
    sigma: ``columns[g]`` is d*sigma(g) as a tuple of (index, int) pairs, sorted
    by index with no zero coefficient.  Group-induced involutions are the case
    d = 1 with one entry, +1 or -1, per column; ``kind`` is only the JSON label.
    ``class_sum_images`` (d*sigma on the center) and the canonical integer bases
    ``skew_basis`` and ``sym_basis`` of the -1 and +1 eigenspaces are computed on
    first use and kept: every reader of QG^- or QG^+ reads them.
    """

    group: Group
    kind: str
    scaled_columns: tuple[int, tuple[tuple[tuple[int, int], ...], ...]]

    def __post_init__(self) -> None:
        """sigma(sigma(g)) = g for every g, and sigma(gs) = sigma(s) sigma(g) for
        every g and every s in the generating set S or s = 1; on tau = d*sigma,
        tau(tau(g)) = d^2 g and d tau(gs) = tau(s) tau(g).

        s = 1 gives sigma(1) sigma(g) = sigma(g) for all g, and sigma is onto,
        so sigma(1) = 1.  Induction on the length of h as a word in S then gives
        sigma(gh) = sigma(h) sigma(g) for every h: sigma(g(hs)) = sigma(s)
        sigma(gh) = sigma(s) sigma(h) sigma(g) = sigma(hs) sigma(g).
        """
        if self.signed_permutation and _signed_axioms_hold(self.group, *self.signed_permutation):
            return  # else the loops below find the first failure and name it
        mult = self.group.mult
        d, cols = self.scaled_columns
        if d != 1 and (d < 1 or gcd(d, *(c for col in cols for _, c in col)) != 1):
            raise SpecError(f"d = {d} is not the least common denominator of sigma")
        for g, cg in enumerate(cols):
            if _sparse_sum((k, c * a) for h, a in cg for k, c in cols[h]) != ((g, d * d),):
                raise SpecError(f"not an involution at element {g}")
        targets = cols if d == 1 else tuple(tuple((h, d * c) for h, c in col) for col in cols)
        for s in (0, *generators(self.group)):
            cs = cols[s]
            for g, cg in enumerate(cols):
                product = _sparse_sum((mult[i][j], a * b) for i, a in cs for j, b in cg)
                if product != targets[mult[g][s]]:
                    raise SpecError(f"not an anti-homomorphism at pair ({g},{s})")

    @classmethod
    def canonical(cls, group: Group) -> "Involution":
        return cls(group, CANONICAL, (1, tuple(((h, 1),) for h in group.inv)))

    @classmethod
    def oriented(cls, group: Group, alpha: Sequence[int]) -> "Involution":
        if not isinstance(alpha, Sequence) or len(alpha) != group.order:
            raise SpecError("alpha length must equal the group order")
        if any(type(a) is not int or a not in (1, -1) for a in alpha):
            raise SpecError("alpha values must be +1 or -1")
        return cls(group, ORIENTED, (1, tuple(((h, a),) for h, a in zip(group.inv, alpha))))

    @classmethod
    def anti_automorphism(cls, group: Group, mapping: Sequence[int]) -> "Involution":
        if not isinstance(mapping, Sequence) or any(type(h) is not int for h in mapping):
            raise SpecError("map entries must be integers")
        if sorted(mapping) != list(range(group.order)):
            raise SpecError("map is not a permutation of the group elements")
        return cls(group, ANTI_AUTOMORPHISM, (1, tuple(((h, 1),) for h in mapping)))

    @classmethod
    def linear(cls, group: Group, matrix: Sequence[Sequence]) -> "Involution":
        n = group.order
        if (not isinstance(matrix, Sequence) or len(matrix) != n
                or any(not isinstance(row, Sequence) or len(row) != n for row in matrix)):
            raise SpecError("linear involution matrix must be |G| x |G|")
        parse = cache(Fraction)  # one Fraction per distinct entry
        try:
            if any(type(x) is bool for row in matrix for x in row):  # True would hit a cached 1
                raise TypeError
            m = [list(map(parse, row)) for row in matrix]
        except (TypeError, ValueError, ArithmeticError):
            raise SpecError("linear involution matrix entries must be rationals") from None
        d = lcm(*(x.denominator for row in m for x in row))
        cols = tuple(tuple((h, int(m[h][g] * d)) for h in range(n) if m[h][g]) for g in range(n))
        return cls(group, LINEAR, (d, cols))

    @classmethod
    def from_json(cls, group: Group, obj: dict) -> "Involution":
        if not isinstance(obj, dict):
            raise SpecError("involution spec must be a JSON object")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in SPEC_FIELDS:
            raise SpecError(f"unknown involution kind {kind!r}")
        name = SPEC_FIELDS[kind]
        for key in obj:
            if key not in ("kind", name):
                raise SpecError(f"{kind} involution spec has unknown key {key!r}")
        if kind == CANONICAL:
            return cls.canonical(group)
        if name not in obj:
            raise SpecError(f"{kind} involution spec has no {name!r} field")
        return getattr(cls, kind)(group, obj[name])

    def to_json(self) -> dict:
        if self.kind == CANONICAL:
            return {"kind": CANONICAL}
        if self.kind == ORIENTED:
            return {"kind": ORIENTED, "alpha": [col[0][1] for col in self.scaled_columns[1]]}
        if self.kind == ANTI_AUTOMORPHISM:
            return {"kind": ANTI_AUTOMORPHISM, "map": [col[0][0] for col in self.scaled_columns[1]]}
        d, cols = self.scaled_columns
        matrix = [["0"] * len(cols) for _ in cols]  # column g holds sigma(g)
        for g, col in enumerate(cols):
            for h, c in col:
                matrix[h][g] = frac_str(Fraction(c, d))
        return {"kind": LINEAR, "matrix": matrix}

    @cached_property
    def signed_permutation(self) -> tuple[list[int], list[int]] | None:
        """(perm, signs) with sigma(g) = signs[g] perm[g] if d = 1 and each column is one
        entry +-1, as for a group-induced sigma; else None."""
        d, cols = self.scaled_columns
        signed = d == 1 and all(len(col) == 1 and col[0][1] in (1, -1) for col in cols)
        return ([col[0][0] for col in cols], [col[0][1] for col in cols]) if signed else None

    @cached_property
    def class_sum_images(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row j: d*sigma(K_j) for the class sum K_j, central again, as its nonzero
        (k, integer coefficient on the representative of class k)."""
        cd = conjugacy_classes(self.group)
        rep_class = {r: k for k, r in enumerate(cd.class_reps)}
        cols = self.scaled_columns[1]
        out = []
        for cls in cd.classes:
            row = [0] * len(cd)
            for g in cls:
                for h, c in cols[g]:
                    if h in rep_class:
                        row[rep_class[h]] += c
            out.append(tuple((k, v) for k, v in enumerate(row) if v))
        return tuple(out)

    @cached_property
    def skew_basis(self) -> list[list[int]]:
        """QG^- as ``linalg.row_basis`` of the rows d g - (d sigma)(g): the RREF rows, each
        primitive with a positive pivot.  That basis of a subspace is unique."""
        return row_basis(eigen_rows(self, -1))

    @cached_property
    def sym_basis(self) -> list[list[int]]:
        """QG^+ as ``linalg.row_basis`` of the rows d g + (d sigma)(g)."""
        return row_basis(eigen_rows(self, 1))

    @property
    def skew_dim(self) -> int:
        return len(self.skew_basis)

    @property
    def sym_dim(self) -> int:
        return len(self.sym_basis)

    @property
    def fixed_plus(self) -> int:
        """The number of g with sigma(g) = g."""
        d, cols = self.scaled_columns
        return sum(1 for g, col in enumerate(cols) if col == ((g, d),))

    @property
    def fixed_minus(self) -> int:
        """The number of g with sigma(g) = -g."""
        d, cols = self.scaled_columns
        return sum(1 for g, col in enumerate(cols) if col == ((g, -d),))

    def validate(self) -> "Involution":
        """The axioms were checked at construction; kept for callers that chain it."""
        return self


def _signed_axioms_hold(group: Group, perm: list[int], signs: list[int]) -> bool:
    """sigma(g) = e_g g' squares to 1, g'' = g and e_g' = e_g, and reverses the products gs
    for s = 1 and s in S, s'g' = (gs)' and e_s e_g = e_gs: one gather per column gs of s."""
    mult = group.mult
    columns = ((s, list(map(itemgetter(s), mult))) for s in (0, *generators(group)))
    return (list(map(perm.__getitem__, perm)) == list(range(len(perm)))
            and list(map(signs.__getitem__, perm)) == signs
            and all(list(map(mult[perm[s]].__getitem__, perm)) == list(map(perm.__getitem__, gs))
                    and list(map(signs.__getitem__, gs)) == list(map(signs[s].__mul__, signs))
                    for s, gs in columns))


def _sparse_sum(terms) -> tuple:
    """Sum of (index, coeff) terms as sorted pairs without zero coefficients."""
    acc: dict = {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def eigen_rows(inv: Involution, s: int) -> list[list[int]]:
    """Integer rows d*g + s*(d*sigma)(g), s = +-1, on ``scaled_columns``: they span
    the s-eigenspace of sigma."""
    n = inv.group.order
    d, cols = inv.scaled_columns
    rows = []
    for g, col in enumerate(cols):
        row = [0] * n
        row[g] = d
        for h, c in col:
            row[h] += s * c
        rows.append(row)
    return rows


def skew_space(inv: Involution) -> Involution:
    """The involution itself, which keeps its split of QG into symmetric and skew parts;
    ``skew_dim``, the integer rank of the rows g - sigma(g), is computed here on first use."""
    inv.skew_dim  # the rank, kept on inv
    return inv
