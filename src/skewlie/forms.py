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
from itertools import chain, repeat
from math import gcd
from operator import add, itemgetter, mul, ne
from typing import Iterator

from .errors import ComputationError, SpecError
from .groups import generators
from .involutions import Involution
from .linalg import _echelon, null_space, rank_mod_p_reaches, row_basis
from .serialize import frac_str

SYMMETRIC = "symmetric"
SKEW = "skew"

DEFAULT_ATTEMPTS = 64

ONE = Fraction(1)


@dataclass(frozen=True, init=False)
class BilinearForm:
    """A form on the group basis of QG with gram scale * int_gram: int_gram of content 1,
    with the rank, symmetry and null spaces of the form, and one positive rational scale."""

    int_gram: list[list[int]]
    scale: Fraction
    symmetry: str  # symmetric | skew

    def __init__(self, symmetry: str, int_gram: list[list[int]], scale: Fraction = ONE):
        content = gcd(*(gcd(*row) for row in int_gram)) or 1
        if content > 1:
            int_gram = [[x // content for x in row] for row in int_gram]
        vars(self).update(int_gram=int_gram, scale=scale * content, symmetry=symmetry)

    @cached_property
    def nonsingular(self) -> bool:
        """Rank n mod a prime proves it; short of that, the exact rank decides."""
        n = len(self.int_gram)
        return rank_mod_p_reaches(self.int_gram, n) or len(_echelon(self.int_gram)) == n


@dataclass(frozen=True)
class AdjointRealization:
    """A form h(x, y) = functional(sigma(x) y) whose adjoint involution is sigma."""

    form: BilinearForm
    involution: Involution
    functional: tuple[Fraction, ...]


def _symmetry_of(gram: list[list[int]]) -> str:
    transpose = list(map(list, zip(*gram)))
    if gram == transpose:
        return SYMMETRIC
    if all(not any(map(add, row, col)) for row, col in zip(gram, transpose)):
        return SKEW
    raise ComputationError("gram matrix is neither symmetric nor skew-symmetric")


def _functional_space(inv: Involution, want: str) -> tuple[int, list[list[int]]]:
    """Functionals lam with lam(sigma(g)h) = +-lam(sigma(h)g), i.e. lam(x -+ sigma(x)) = 0
    for x = sigma(h)g; h = 1 gives every x = g, as sigma(1) = 1: the (L, B) of ``null_space``
    of the n rows g -+ sigma(g), read as the involution's basis of their span."""
    return null_space(inv.skew_basis if want == SYMMETRIC else inv.sym_basis, inv.group.order)


def realize_adjoint_form(inv: Involution, seed: int = 0) -> AdjointRealization:
    """Find a nonsingular symmetric (preferred) or skew form realizing sigma.

    The adjoint identity h(f x, y) = h(x, sigma(f) y) holds for every functional lam
    by anti-multiplicativity, and h is symmetric (skew) exactly when lam o sigma = lam
    (-lam).  The search only has to hit a nonsingular gram, drawing fixed-seed integer
    combinations of the basis of those lam.  lam and the gram are integer sums, on the
    basis over its common denominator den and on d*sigma, with the scale 1/(den*d).
    """
    n = inv.group.order
    mult = inv.group.mult
    d, cols = inv.scaled_columns
    rng = random.Random(seed)
    for want in (SYMMETRIC, SKEW):
        den, basis = _functional_space(inv, want)
        if not basis:
            continue
        for _ in range(DEFAULT_ATTEMPTS):
            weights = [rng.randint(-9, 9) for _ in basis]
            lam = [sum(w * row[i] for w, row in zip(weights, basis)) for i in range(n)]
            form = BilinearForm(symmetry=want, int_gram=_draw_gram(lam, cols, mult),
                                scale=Fraction(1, den * d))
            if not form.nonsingular:
                continue
            if _symmetry_of(form.int_gram) != want:
                raise ComputationError("constraint solution has the wrong symmetry")
            return AdjointRealization(form, inv, tuple(Fraction(x, den) for x in lam))
    raise ComputationError(f"no nonsingular symmetric or skew realization found in "
                           f"{DEFAULT_ATTEMPTS} draws per class")


def _draw_gram(lam: list[int], cols, mult) -> list[list[int]]:
    """gram[g][h] = lam((d*sigma)(g) h): row g sums c * lam[k h] over the (k, c) of column g."""
    return [list(reduce(partial(map, add), (map(mul, repeat(c), map(lam.__getitem__, mult[k]))
                                            for k, c in col))) for col in cols]


def _equals_combination(d: int, left: list[int], terms, row) -> bool:
    """Whether d * left == sum c * row(h) over the (h, c) of terms, lists of ints, up to
    the first mismatch; one term (h, +-d) is one comparison of left with +-row(h)."""
    if len(terms) == 1 and terms[0][1] in (d, -d):
        h, c = terms[0]
        return left == row(h) if c == d else not any(map(add, left, row(h)))
    image = reduce(partial(map, add), (map(mul, repeat(c), row(h)) for h, c in terms))
    return not any(map(ne, map(mul, repeat(d), left), image))


def check_adjoint_identity(r: AdjointRealization) -> bool:
    """h(f x, y) == h(x, sigma(f) y) for f in the generating set S and all basis x, y,
    exact at every order: if it holds for f1 and f2, then by bilinearity and the
    anti-multiplicativity of sigma, checked when sigma was built, h(f1 f2 x, y) =
    h(f2 x, sigma(f1) y) = h(x, sigma(f2) sigma(f1) y) = h(x, sigma(f1 f2) y); and
    f = 1 holds as sigma(1) = 1.  Read one row over y per (f, x) of the integer gram:
    d times row fx against the sum of w times row x read through z, over d*sigma(f)."""
    gram = r.form.int_gram
    mult = r.involution.group.mult
    d, columns = r.involution.scaled_columns
    return all(_equals_combination(d, gram[mult[f][x]], columns[f],
                                   lambda z: list(map(gx.__getitem__, mult[z])))
               for f in generators(r.involution.group) for x, gx in enumerate(gram))


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


def skew_adjoint_space(r: AdjointRealization) -> list[list[int]]:
    """Canonical integer basis (``linalg.row_basis``) of
    {f in QG : h(f x, y) + h(x, f y) = 0 for all x, y}.

    f acts by left multiplication on the regular module, so the condition is
    one exact linear system in the |G| coefficients of f, one integer row per (x, y);
    only the distinct rows are reduced, at most n of the n^2 on the canonical form.
    """
    return row_basis(null_space(set(_skew_adjoint_rows(r)), r.involution.group.order)[1])


def _blocks_solve(inv: Involution, r: AdjointRealization) -> bool:
    """Part (a) on each block: d B_x[g] = sum c B_x[h] over (h, c) in (d sigma)(g), g moved."""
    d, scaled = inv.scaled_columns
    moved = [(g, terms) for g, terms in enumerate(scaled) if terms != ((g, d),)]
    return all(all(_equals_combination(d, block[g], terms, block.__getitem__)
                   for g, terms in moved) for block in _skew_adjoint_blocks(r))


def _pairs_solve(inv: Involution, r: AdjointRealization) -> bool:
    """Part (a) for sigma(g) = e g': B_x[g] = e B_x[g'] over all (x, y), once per pair {g, g'}
    (sigma^2 = 1 gives g' the sign e too), and B_x[g] = 0 for sigma(g) = -g.  Row g is two
    gathers of the gram, h(gx, y) and h(x, gy), read only for n > 1 (sigma(1) = 1), where
    itemgetter(*mult[g]) gives tuples."""
    gram, mult = r.form.int_gram, inv.group.mult

    def row(g: int) -> list[int]:
        return list(map(add, chain.from_iterable(map(gram.__getitem__, mult[g])),
                        chain.from_iterable(map(itemgetter(*mult[g]), gram))))

    pairs = ((g, k, e) for g, (k, e) in enumerate(zip(*inv.signed_permutation))
             if k > g or k == g and e < 0)
    return all(row(g) == row(k) if e > 0 else not any(map(add, row(g), row(k))) for g, k, e in pairs)


def adjoint_space_matches_skew_span(inv: Involution, r: AdjointRealization) -> bool:
    """The defining system of the form cuts out exactly the skew elements.

    Let N be its solution space and S the span of the g - sigma(g).  S lies in N
    when each d*(g - sigma(g)), with d*sigma in integers, solves every one of the
    n^2 rows, read on every block B_x (for sigma induced by G, one comparison over
    all (x, y) per pair {g, sigma(g)}), not derived from the adjoint identity.  N = S
    then follows once the rank of the system reaches n - dim S mod a prime, since the
    rank mod p never exceeds the rank over Q.  Short of that, the exact rank of its
    distinct rows decides: N = S exactly when it is n - dim S.
    """
    solves = _pairs_solve if inv.signed_permutation else _blocks_solve
    if not solves(inv, r):
        return False
    target = inv.group.order - inv.skew_dim
    return (rank_mod_p_reaches(_skew_adjoint_rows(r), target)
            or len(_echelon(set(_skew_adjoint_rows(r)))) == target)


def integral_skew_lattice(inv: Involution) -> list[list[int]]:
    """Basis of ZG^- = ZG intersected with QG^-, read off ``inv.skew_basis``.  For sigma(g) =
    e g' its RREF rows are g - e g' for g < g' and g for sigma(g) = -g, with pivots 1: an
    integer x in QG^- is the sum of x_c times the row of pivot c, so they span ZG^-."""
    if inv.signed_permutation is None:
        raise SpecError("integral lattice needs a group-induced involution")
    lattice = inv.skew_basis
    if any(next(filter(None, row)) != 1 for row in lattice):
        raise ComputationError("integral lattice basis has a pivot other than 1")
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
    gram, scale = r.form.int_gram, r.form.scale
    text = {x: frac_str(x * scale) for x in set(chain.from_iterable(gram))}
    return {
        "group": inv.group.name,
        "involution": inv.to_json(),
        "symmetry": r.form.symmetry,
        "gram": [list(map(text.__getitem__, row)) for row in gram],
        "functional": list(map(frac_str, r.functional)),
        "checks": checks,
    }
