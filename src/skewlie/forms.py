"""Nonsingular bilinear forms on the regular module realizing an involution.

Every involution of QG is the adjoint involution of a nonsingular symmetric or
skew-symmetric rational form h(x, y) = lam(sigma(x) y) on QG itself, for a
suitable linear functional lam.  h is symmetric (skew) exactly when lam vanishes
on the g - sigma(g) (g + sigma(g)); a fixed-seed search picks a nonsingular lam.
The skew-adjoint condition h(f x, y) + h(x, f y) = 0 then cuts out exactly the
skew-symmetric elements, and intersecting with ZG gives the integral lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import repeat
from math import lcm
from operator import add, mul, ne
from typing import Iterable, Iterator, Sequence

from .errors import ComputationError, SpecError
from .groups import generators
from .involutions import Involution, eigen_rows, skew_space
from .linalg import (
    QMatrix,
    ZERO,
    ONE,
    _int_echelon,
    _primitive_int_rows,
    hnf,
    identity,
    nullspace_rows,
    rank,
    rank_mod_p_reaches,
    rref_rows,
)
from .serialize import frac_matrix, frac_row

SYMMETRIC = "symmetric"
SKEW = "skew"

DEFAULT_ATTEMPTS = 64


@dataclass(frozen=True)
class BilinearForm:
    """Gram matrix of a nonsingular form on the group basis of QG."""

    gram: QMatrix
    symmetry: str  # symmetric | skew

    @cached_property
    def int_gram(self) -> list[list[int]]:
        """The gram times one positive scalar, to integers of content 1: the same
        rank, symmetry and null spaces (one scalar, so never row by row)."""
        n = len(self.gram)
        flat = _primitive_int_rows([[x for row in self.gram for x in row]])[0]
        return [flat[i:i + n] for i in range(0, n * n, n)]

    @cached_property
    def nonsingular(self) -> bool:
        """Rank n mod a prime proves it; short of that, the exact rank decides."""
        n = len(self.gram)
        return rank_mod_p_reaches(self.int_gram, n) or rank(self.int_gram) == n


@dataclass(frozen=True)
class AdjointRealization:
    """A form h(x, y) = functional(sigma(x) y) whose adjoint involution is sigma."""

    form: BilinearForm
    involution: Involution
    functional: tuple[Fraction, ...]


def _symmetry_of(gram: QMatrix) -> str:
    n = len(gram)
    if all(gram[i][j] == gram[j][i] for i in range(n) for j in range(i, n)):
        return SYMMETRIC
    if all(gram[i][j] == -gram[j][i] for i in range(n) for j in range(i, n)):
        return SKEW
    raise ComputationError("gram matrix is neither symmetric nor skew-symmetric")


def _require_group_induced(inv: Involution, what: str) -> None:
    """Group-induced involutions are exactly those with one signed entry per column."""
    if any(len(col) != 1 for col in inv.columns):
        raise SpecError(f"{what} needs a group-induced involution")


def canonical_regular_form(inv: Involution) -> AdjointRealization:
    """The coefficient-of-identity form for a group-induced involution.

    h(g, h) = identity coefficient of sigma(g) h, which is a signed permutation
    matrix: symmetric and nonsingular by construction.
    """
    _require_group_induced(inv, "canonical regular form")
    group = inv.group
    n = group.order
    gram = [[ZERO] * n for _ in range(n)]
    for g, col in enumerate(inv.columns):
        for k, c in col:
            gram[g][group.inv[k]] += c
    functional = tuple([ONE] + [ZERO] * (n - 1))
    form = BilinearForm(gram=gram, symmetry=_symmetry_of(gram))
    if form.symmetry != SYMMETRIC:
        raise ComputationError("coefficient-of-identity form came out non-symmetric")
    return AdjointRealization(form=form, involution=inv, functional=functional)


def _solution_space(rows: Iterable[Sequence[int]], n: int) -> QMatrix:
    """Null space basis of the distinct nonzero rows (Q^n if none), from their echelon form."""
    constraints = sorted({tuple(row) for row in rows if any(row)})
    if not constraints:
        return identity(n)
    return nullspace_rows(constraints[:len(_int_echelon(constraints))])


def _functional_space(inv: Involution, want: str) -> QMatrix:
    """Functionals lam with lam(sigma(g)h) = +-lam(sigma(h)g), i.e. lam(x -+ sigma(x)) = 0
    for x = sigma(h)g; h = 1 gives every x = g, as sigma(1) = 1: the n rows g -+ sigma(g)."""
    return _solution_space(eigen_rows(inv, -1 if want == SYMMETRIC else 1), inv.group.order)


def realize_adjoint_form(inv: Involution, seed: int = 0) -> AdjointRealization:
    """Find a nonsingular symmetric (preferred) or skew form realizing sigma.

    The adjoint identity h(f x, y) = h(x, sigma(f) y) holds for every functional lam
    by anti-multiplicativity, and h is symmetric (skew) exactly when lam o sigma = lam
    (-lam).  The search only has to hit a nonsingular gram, drawing fixed-seed integer
    combinations of the basis of those lam.  lam and the gram are built in integers, on
    the basis times its common denominator den and on d*sigma, and divided by den*d once.
    """
    n = inv.group.order
    mult = inv.group.mult
    d, cols = inv.scaled_columns
    rng = random.Random(seed)
    for want in (SYMMETRIC, SKEW):
        basis = _functional_space(inv, want)
        if not basis:
            continue
        den = reduce(lcm, (x.denominator for row in basis for x in row), 1)
        int_basis = [[x.numerator * (den // x.denominator) for x in row] for row in basis]
        for _ in range(DEFAULT_ATTEMPTS):
            weights = [rng.randint(-9, 9) for _ in basis]
            lam = [sum(w * row[i] for w, row in zip(weights, int_basis)) for i in range(n)]
            # gram[g][h] = den * d * lam(sigma(g) h)
            gram = [[sum(c * lam[mult[k][h]] for k, c in col) for h in range(n)] for col in cols]
            form = BilinearForm(gram=[[Fraction(x, den * d) for x in row] for row in gram],
                                symmetry=want)
            if not form.nonsingular:
                continue
            if _symmetry_of(form.int_gram) != want:
                raise ComputationError("constraint solution has the wrong symmetry")
            functional = tuple(Fraction(x, den) for x in lam)
            return AdjointRealization(form=form, involution=inv, functional=functional)
    raise ComputationError(
        f"no nonsingular symmetric or skew realization found in {DEFAULT_ATTEMPTS} draws per class"
    )


def check_adjoint_identity(r: AdjointRealization) -> bool:
    """h(f x, y) == h(x, sigma(f) y) for f in the generating set S and all basis x, y.

    This is exact at every order.  If the identity holds for f1 and f2, then by
    bilinearity and the anti-multiplicativity of sigma, checked when sigma was
    built, h(f1 f2 x, y) = h(f2 x, sigma(f1) y) = h(x, sigma(f2) sigma(f1) y)
    = h(x, sigma(f1 f2) y); and f = 1 holds because sigma(1) = 1.  It is read on
    the integer gram, with the left side times the scale d of d*sigma on the right.
    """
    inv = r.involution
    group = inv.group
    n = group.order
    gram = r.form.int_gram
    mult = group.mult
    d, columns = inv.scaled_columns

    def holds(f: int, x: int, y: int) -> bool:
        return d * gram[mult[f][x]][y] == sum(w * gram[x][mult[z][y]] for z, w in columns[f])

    return all(holds(f, x, y) for f in generators(group) for x in range(n) for y in range(n))


def _skew_adjoint_blocks(r: AdjointRealization) -> Iterator[list[list[int]]]:
    """B_x[z][y] = h(zx, y) + h(x, zy) on the integer gram, one n x n block per x:
    f satisfies the skew-adjoint condition exactly when sum_z f_z B_x[z] = 0 for all x."""
    gram = r.form.int_gram
    mult = r.involution.group.mult
    for x, gx in enumerate(gram):
        yield [[a + gx[m] for a, m in zip(gram[mz[x]], mz)] for mz in mult]


def _skew_adjoint_rows(r: AdjointRealization) -> Iterator[tuple[int, ...]]:
    """The rows (x, y) of the skew-adjoint system, x-major: the columns of each block."""
    return (row for block in _skew_adjoint_blocks(r) for row in zip(*block))


def skew_adjoint_space(r: AdjointRealization) -> QMatrix:
    """RREF basis of {f in QG : h(f x, y) + h(x, f y) = 0 for all x, y}.

    f acts by left multiplication on the regular module, so the condition is
    one exact linear system in the |G| coefficients of f, one integer row per (x, y).
    """
    n = r.involution.group.order
    return rref_rows(_solution_space(_skew_adjoint_rows(r), n))


def adjoint_space_matches_skew_span(inv: Involution, r: AdjointRealization) -> bool:
    """The defining system of the form cuts out exactly the skew elements.

    Let N be its solution space and S the span of the g - sigma(g).  S lies in N
    when each d*(g - sigma(g)), with d*sigma in integers, solves every one of the
    n^2 rows; that is read on every block B_x, not derived from the adjoint
    identity.  N = S then follows once the rank of the system reaches
    n - dim S mod a prime, since the rank mod p never exceeds the rank over Q.
    Short of that, the exact solution space decides.
    """
    d, scaled = inv.scaled_columns
    moved = [(g, terms) for g, terms in enumerate(scaled) if terms != ((g, d),)]
    for block in _skew_adjoint_blocks(r):
        for g, terms in moved:
            image = reduce(partial(map, add), (map(mul, repeat(c), block[h]) for h, c in terms))
            if any(map(ne, map(mul, repeat(d), block[g]), image)):  # stops at the first mismatch
                return False
    skew = skew_space(inv)
    if rank_mod_p_reaches(_skew_adjoint_rows(r), inv.group.order - skew.skew_dim):
        return True
    return skew_adjoint_space(r) == skew.skew_basis


def skew_lattice_generators(inv: Involution) -> list[list[int]]:
    """The nonzero integer rows g - sigma(g) of a group-induced involution."""
    _require_group_induced(inv, "integral lattice")
    return [row for row in eigen_rows(inv, -1) if any(row)]


def integral_skew_lattice(inv: Involution) -> list[list[int]]:
    """HNF basis of ZG intersected with the skew-adjoint solution space.

    Saturation via HNF of the integer generators {g - sigma(g)} stacked with
    the primitive integer multiples of the RREF basis of the rational solution
    space (a row with a pivot 1 is primitive once its denominators are cleared).
    """
    gens = skew_lattice_generators(inv)
    space = skew_adjoint_space(canonical_regular_form(inv))
    lattice = hnf(gens + _primitive_int_rows(space))
    if len(lattice) != len(space):
        raise ComputationError("integral lattice rank differs from the rational space")
    return lattice


def form_checks(r: AdjointRealization) -> dict[str, bool]:
    """The three checks of a realization, as `form_report` names them."""
    return {
        "nonsingular": r.form.nonsingular,
        "adjoint_identity": check_adjoint_identity(r),
        "eq_1_2_matches_skew_span": adjoint_space_matches_skew_span(r.involution, r),
    }


def form_report(inv: Involution, seed: int = 0) -> dict:
    """JSON-ready form artifact with all verification bits."""
    r = realize_adjoint_form(inv, seed=seed)
    checks = form_checks(r)
    return {
        "group": inv.group.name,
        "involution": inv.to_json(),
        "symmetry": r.form.symmetry,
        "gram": frac_matrix(r.form.gram),
        "functional": frac_row(r.functional),
        "checks": checks,
    }
