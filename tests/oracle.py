"""Independent brute-force oracles used to derive and freeze expected values.

Everything here deliberately avoids the package's elimination and closure
code paths: determinants go through permutation expansion, ranks through
minor search, spans through division-based Gaussian elimination.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, compress, permutations, product
from math import gcd, isqrt, prod
from typing import Sequence

from skewlie import SpecError, conjugacy_classes
from skewlie.cyclotomic import euler_phi, power_basis_table, reduce_root_vector
from skewlie.errors import ComputationError
from skewlie.forms import AdjointRealization, BilinearForm
from skewlie.groups import _split_product_args, generators
from skewlie.involutions import Involution, eigen_rows
from skewlie.wedderburn import CentralIdempotent, _combine, class_matrix


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def determinant_by_expansion(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(m[i][perm[i]])
            if not prod:
                break
        else:
            total += permutation_sign(perm) * prod
    return total


def rank_by_minors(m, p=None) -> int:
    """Largest k such that some k x k minor is nonzero (sizes <= ~6x8), or nonzero
    mod the prime p when one is given (integer m)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                minor = [[m[i][j] for j in cols] for i in rows]
                det = determinant_by_expansion(minor)
                if det % p if p else det:
                    return k
    return 0


def mat(rows):
    """Coerce nested sequences of ints/Fractions/strings into a rational matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def dense_matrix(inv):
    """sigma as a dense rational matrix, column g holding the coefficients of
    sigma(g): each integer entry of ``inv.scaled_columns`` over its d."""
    d, cols = inv.scaled_columns
    m = [[Fraction(0)] * len(cols) for _ in cols]
    for g, col in enumerate(cols):
        for h, c in col:
            m[h][g] = Fraction(c, d)
    return m


def rational_gram(form):
    """The gram of a ``BilinearForm`` in Fractions: its scale times its integer gram."""
    return [[x * form.scale for x in row] for row in form.int_gram]


def fraction_columns(inv):
    """sigma(g) for every g as sorted (index, Fraction) pairs without zeros, read off
    the columns of ``dense_matrix(inv)``."""
    m = dense_matrix(inv)
    return [tuple((h, row[g]) for h, row in enumerate(m) if row[g]) for g in range(len(m))]


def division_rref(m):
    """Classic divide-by-pivot RREF, a different code path from the package."""
    rows = [[Fraction(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, nrows) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == nrows:
            break
    return [row for row in rows if any(row)]


def rank(m) -> int:
    """The rank of a rational or integer matrix, by the division RREF."""
    return len(division_rref(m))


def over_pivots(rows):
    """Each nonzero row divided by its first nonzero entry, as Fractions: the RREF
    rows, when the rows are a canonical integer basis such as ``linalg.row_basis``'s."""
    return [[Fraction(x, next(v for v in row if v)) for x in row] for row in rows]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def row_space_equal(a, b) -> bool:
    """Rational row-span equality by the division RREF."""
    return division_rref(a) == division_rref(b)


def in_integer_row_span(h, row) -> bool:
    """Whether row is an integer combination of the rows of h, an echelon basis
    such as an HNF: each pivot in turn must divide what is left in its column."""
    row = list(row)
    for basis_row in h:
        c = next(k for k, x in enumerate(basis_row) if x)
        q, r = divmod(row[c], basis_row[c])
        if r:
            return False
        row = [x - q * y for x, y in zip(row, basis_row)]
    return not any(row)


# ---------------------------------------------------------------------------
# the integral skew lattice by Euclidean row reduction: ZG^- is the HNF of the
# generators g - sigma(g) stacked with a rational basis of QG^-
# ---------------------------------------------------------------------------

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


def skew_lattice_generators(inv: Involution) -> list[list[int]]:
    """The nonzero integer rows g - sigma(g) of a group-induced involution, the ones with
    one signed entry per column."""
    if inv.signed_permutation is None:
        raise SpecError("integral lattice needs a group-induced involution")
    return [row for row in eigen_rows(inv, -1) if any(row)]


# ---------------------------------------------------------------------------
# exact arithmetic in Q(zeta_e), the field the root vectors of the package stand for
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_e) by its rational coordinates in the power basis
    1, z, ..., z^(phi(e)-1), reduced modulo Phi_e."""

    conductor: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if self.conductor < 1 or len(coeffs) != euler_phi(self.conductor):
            raise SpecError(f"need phi({self.conductor}) coordinates at a positive "
                            f"conductor, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, e):
        return cls(e, [0] * euler_phi(e))

    @classmethod
    def rational(cls, e, value):
        return cls(e, [value] + [0] * (euler_phi(e) - 1))

    @classmethod
    def one(cls, e):
        return cls.rational(e, 1)

    @classmethod
    def root(cls, e, k=1):
        """zeta_e^k."""
        return cls.from_root_vector(e, [0] * (k % e) + [1])

    @classmethod
    def from_root_vector(cls, e, mults):
        return cls(e, reduce_root_vector(e, mults))

    def _check(self, other):
        if self.conductor != other.conductor:
            raise SpecError(f"conductor mismatch: {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        """The product of the power-basis polynomials, reduced through x^k mod Phi_e."""
        self._check(other)
        phi = len(self.coeffs)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return Cyclotomic(self.conductor, self._reduce(enumerate(prod)))

    def _reduce(self, terms):
        """Power-basis coordinates of sum c x^j over the (j, c) terms."""
        e, table = self.conductor, power_basis_table(self.conductor)
        out = [Fraction(0)] * len(self.coeffs)
        for j, c in terms:
            if c:
                for i, t in table[j % e]:
                    out[i] += c * t
        return out

    def scale(self, q):
        return Cyclotomic(self.conductor, [Fraction(q) * a for a in self.coeffs])

    def __bool__(self):
        return any(self.coeffs)

    def galois(self, k):
        """Image under the field automorphism zeta -> zeta^k (gcd(k, e) = 1)."""
        e = self.conductor
        if gcd(k, e) != 1:
            raise SpecError(f"{k} is not coprime to the conductor {e}")
        return Cyclotomic(e, self._reduce((j * k, c) for j, c in enumerate(self.coeffs)))

    def conjugate(self):
        return self.galois(self.conductor - 1 if self.conductor > 1 else 1)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ArithmeticError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self):
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


def cyclotomic_values(table):
    """The values of a CharacterTable as Cyclotomic numbers, one row per character;
    cells holding the same root vector share one number."""
    exact = {mv: Cyclotomic.from_root_vector(table.conductor, mv)
             for mv in set(chain.from_iterable(table.root_mults))}
    return [[exact[mv] for mv in row] for row in table.root_mults]


def cyclotomic_power(z, k):
    """z**k by k multiplications."""
    out = Cyclotomic.one(z.conductor)
    for _ in range(k):
        out = out * z
    return out


def embed(z, conductor):
    """z written in Q(zeta_conductor), a multiple of z's conductor e, through
    zeta_e = zeta_conductor^(conductor/e)."""
    step = conductor // z.conductor
    out = Cyclotomic.zero(conductor)
    for j, c in enumerate(z.coeffs):
        out = out + Cyclotomic.root(conductor, j * step).scale(c)
    return out


def associativity_failure(mult):
    """The first triple (a, b, c) with (ab)c != a(bc), over all n^3 triples, or None."""
    n = len(mult)
    for a in range(n):
        ra = mult[a]
        for b in range(n):
            rb, rab = mult[b], mult[ra[b]]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return a, b, c
    return None


def adjoint_identity_by_triples(mult, columns, gram) -> bool:
    """h(fx, y) == h(x, sigma(f) y) over all n^3 basis triples, where
    columns[f] holds sigma(f) as (index, coeff) pairs and h(a, b) = gram[a][b]."""
    n = len(mult)
    return all(
        gram[mult[f][x]][y] == sum((c * gram[x][mult[z][y]] for z, c in columns[f]), Fraction(0))
        for f in range(n) for x in range(n) for y in range(n)
    )


def adjoint_identity_by_fractions(mult, gens, columns, gram) -> bool:
    """h(fx, y) == h(x, sigma(f) y) for f in gens and all basis x, y, read in
    rationals on the unscaled gram and sigma."""
    n = len(mult)
    return all(
        gram[mult[f][x]][y] == sum((c * gram[x][mult[z][y]] for z, c in columns[f]), Fraction(0))
        for f in gens for x in range(n) for y in range(n)
    )


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def nullspace_rows(m):
    """Canonical null space basis of a rational matrix, by the division RREF: one
    vector per free column, 1 there and 0 in the other free columns."""
    n = len(m[0]) if m else 0
    reduced = division_rref(m)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis


def functional_space_by_fractions(mult, columns, symmetric: bool):
    """Functionals lam with lam(sigma(g)h) -+ lam(sigma(h)g) = 0 for all g <= h,
    one rational row per pair."""
    n = len(mult)
    sign = -1 if symmetric else 1
    rows = []
    for g in range(n):
        for h in range(g, n):
            row = [Fraction(0)] * n
            for k, c in columns[g]:
                row[mult[k][h]] += c
            for k, c in columns[h]:
                row[mult[k][g]] += sign * c
            rows.append(row)
    return nullspace_rows(rows)


def realize_by_fractions(mult, columns, seed, attempts):
    """(gram, functional) of the fixed-seed draw of a nonsingular symmetric, else
    skew, form lam(sigma(x) y), all in rationals; None if no draw is nonsingular."""
    n = len(mult)
    rng = random.Random(seed)
    for symmetric in (True, False):
        basis = functional_space_by_fractions(mult, columns, symmetric)
        if not basis:
            continue
        for _ in range(attempts):
            weights = [Fraction(rng.randint(-9, 9)) for _ in basis]
            lam = [sum((w * row[i] for w, row in zip(weights, basis)), Fraction(0))
                   for i in range(n)]
            if not any(lam):
                continue
            gram = [[sum((c * lam[mult[k][h]] for k, c in col), Fraction(0)) for h in range(n)]
                    for col in columns]
            if len(division_rref(gram)) == n:
                return gram, lam
    return None


def skew_adjoint_space_by_fractions(mult, gram):
    """RREF basis of {f : h(fx, y) + h(x, fy) = 0 for all x, y}, one rational
    row per pair (x, y)."""
    n = len(mult)
    rows = [[gram[mult[z][x]][y] + gram[x][mult[z][y]] for z in range(n)]
            for x in range(n) for y in range(n)]
    return division_rref(nullspace_rows(rows))


def canonical_regular_form(inv) -> AdjointRealization:
    """The coefficient-of-identity form of a group-induced involution, the lattice's second
    route to QG^-: h(g, h) is the identity coefficient of sigma(g) h, a signed permutation
    matrix, so symmetric and nonsingular by construction.  One entry in every column forces
    d = 1 and coefficients +-1."""
    if inv.signed_permutation is None:
        raise SpecError("canonical regular form needs a group-induced involution")
    n = inv.group.order
    gram = [[0] * n for _ in range(n)]
    for g, ((k, c),) in enumerate(inv.scaled_columns[1]):
        gram[g][inv.group.inv[k]] = c
    if gram != [list(col) for col in zip(*gram)]:
        raise ComputationError("coefficient-of-identity form came out non-symmetric")
    return AdjointRealization(BilinearForm("symmetric", gram), inv,
                              tuple(Fraction(int(g == 0)) for g in range(n)))


def conjugation_orbits(mult, inv):
    """Partition of {0..n-1} into conjugacy classes, as a set of frozensets."""
    n = len(mult)
    orbits = set()
    for g in range(n):
        orbits.add(frozenset(mult[mult[x][g]][inv[x]] for x in range(n)))
    return orbits


def permutation_closure(generators, degree):
    """All permutations generated, as a set of tuples (identity included)."""
    gens = [tuple(g) for g in generators]
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            new = tuple(cur[i] for i in g)
            if new not in elems:
                elems.add(new)
                frontier.append(new)
    return elems


def sign_characters_by_generators(mult):
    """Every homomorphism G -> {1, -1}, as a set of coefficient tuples.

    A greedy generating set is grown here, each sign assignment on it is
    extended along x -> x*s from the identity, and an extension is kept when
    alpha(x*s) = alpha(x)*alpha(s) for every x and every generator s.
    """
    n = len(mult)

    def span(gens):
        reached, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for s in gens:
                if mult[x][s] not in reached:
                    reached.add(mult[x][s])
                    frontier.append(mult[x][s])
        return reached

    gens, reached = [], {0}
    for g in range(n):
        if g not in reached:
            gens.append(g)
            reached = span(gens)
    found = set()
    for signs in product((1, -1), repeat=len(gens)):
        alpha = [1] + [0] * (n - 1)
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s, sign in zip(gens, signs):
                y = mult[x][s]
                if not alpha[y]:
                    alpha[y] = alpha[x] * sign
                    frontier.append(y)
        if all(alpha[mult[x][s]] == alpha[x] * sign
               for x in range(n) for s, sign in zip(gens, signs)):
            found.add(tuple(alpha))
    return found


def element_orders(mult):
    orders = []
    for g in range(len(mult)):
        k, x = 1, g
        while x != 0:
            x = mult[x][g]
            k += 1
        orders.append(k)
    return orders


def involution_axioms_hold(mult, matrix) -> bool:
    """Dense check that a matrix is an involution of QG, for a multiplication table.

    Column g of ``matrix`` holds the coefficients of sigma(g).  The oracle asks
    for M*M = I by an explicit matrix product, and for sigma(gh) =
    sigma(h)sigma(g) by multiplying the dense image columns out over all pairs
    of group elements.
    """
    n = len(mult)
    m = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            entry = sum((m[i][k] * m[k][j] for k in range(n)), Fraction(0))
            if entry != (1 if i == j else 0):
                return False
    col = [[m[i][g] for i in range(n)] for g in range(n)]
    for g in range(n):
        for h in range(n):
            prod = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    prod[mult[a][b]] += col[h][a] * col[g][b]
            if prod != col[mult[g][h]]:
                return False
    return True


def axiom_failure_by_sparse_sums(group, scaled_columns):
    """The SpecError text that constructing an Involution on ``scaled_columns`` (d, the
    sparse columns of d*sigma) must raise, or None: the lowest-terms check of d, then
    sigma(sigma(g)) = g for each g in order, then sigma(gs) = sigma(s) sigma(g) for s = 1
    and each s of the generating set, g in order, every image a sum of sparse terms."""
    def total(terms):
        acc = {}
        for k, c in terms:
            acc[k] = acc.get(k, 0) + c
        return {k: c for k, c in acc.items() if c}

    mult = group.mult
    d, cols = scaled_columns
    if d != 1 and (d < 1 or gcd(d, *(c for col in cols for _, c in col)) != 1):
        return f"d = {d} is not the least common denominator of sigma"
    for g, col in enumerate(cols):
        if total((k, c * a) for h, a in col for k, c in cols[h]) != {g: d * d}:
            return f"not an involution at element {g}"
    for s in (0, *generators(group)):
        for g, col in enumerate(cols):
            product = total((mult[i][j], a * b) for i, a in cols[s] for j, b in col)
            if product != {h: d * c for h, c in cols[mult[g][s]]}:
                return f"not an anti-homomorphism at pair ({g},{s})"
    return None


def convolve(mult, a, b):
    """Product of two elements of QG, given as dense coefficient lists."""
    out = [Fraction(0)] * len(mult)
    for g, x in enumerate(a):
        if x:
            row = mult[g]
            for h, y in enumerate(b):
                if y:
                    out[row[h]] += x * y
    return out


def apply(inv, x):
    """sigma(x) for x a coefficient sequence, through ``dense_matrix(inv)``."""
    out = [Fraction(0)] * len(x)
    for g, col in enumerate(fraction_columns(inv)):
        if x[g]:
            for h, c in col:
                out[h] += c * x[g]
    return out


def bracket(mult, a, b):
    """The Lie bracket ab - ba of two coefficient sequences, by two convolutions."""
    return [x - y for x, y in zip(convolve(mult, a, b), convolve(mult, b, a))]


def bracket_closed(mult, rows) -> bool:
    """Whether the rational span of the rows holds the bracket of every pair of them."""
    r = rank(rows)
    return all(rank(rows + [bracket(mult, x, y)]) == r for x, y in combinations(rows, 2))


def idempotent_coeffs(idem):
    """e = E/|G| over the group basis, from the class vector E = ``idem.coords``."""
    n = idem.group.order
    return [Fraction(idem.coords[k], n) for k in conjugacy_classes(idem.group).class_of]


def idempotent_axioms_by_convolution(mult, idempotents) -> bool:
    """sum e_i = 1, e_i e_j = delta_ij e_i and e_i g = g e_i for all g, by dense products."""
    n = len(mult)
    if not idempotents:
        return False
    if [sum(col, Fraction(0)) for col in zip(*idempotents)] != [1] + [0] * (n - 1):
        return False
    basis = [[1 if h == g else 0 for h in range(n)] for g in range(n)]
    for i, a in enumerate(idempotents):
        for j, b in enumerate(idempotents):
            if convolve(mult, a, b) != (list(a) if i == j else [0] * n):
                return False
        if any(convolve(mult, a, x) != convolve(mult, x, a) for x in basis):
            return False
    return True


def structure_constants_by_products(mult, classes):
    """a[i][j][k] with K_i K_j = sum_k a[i][j][k] K_k, by all |K_i| |K_j| products
    of every pair of classes: n^2 products in all.  Each count on class k must be
    |K_k| times a[i][j][k], since a product of central elements is central."""
    s = len(classes)
    class_of = {g: k for k, cls in enumerate(classes) for g in cls}
    table = [[[0] * s for _ in range(s)] for _ in range(s)]
    for i in range(s):
        for j in range(s):
            counts = [0] * s
            for x in classes[i]:
                for y in classes[j]:
                    counts[class_of[mult[x][y]]] += 1
            for k, c in enumerate(counts):
                q, r = divmod(c, len(classes[k]))
                assert not r, "class sum product is not class-constant"
                table[i][j][k] = q
    return table


def center_kinds_by_every_class(mult, classes, constants, idempotents, sigmas):
    """Per idempotent E = |G| e, in class coordinates: the rank, by division, of all s
    rows E K_C, which span the center e Z(QG), and its kind under each sigma (given by
    its columns): "pair" if sigma moves E, "first" if it fixes every row, else "second"."""
    s = len(classes)
    class_of = {g: k for k, cls in enumerate(classes) for g in cls}

    def fixed(z, columns):
        full = [z[class_of[g]] for g in range(len(mult))]
        image = [0] * len(mult)
        for g, col in enumerate(columns):
            for h, c in col:
                image[h] += c * full[g]
        return image == full

    out = []
    for coords in idempotents:
        rows = [[sum(coords[j] * constants[c][j][k] for j in range(s)) for k in range(s)]
                for c in range(s)]
        kinds = ["pair" if not fixed(coords, cols)
                 else "first" if all(fixed(z, cols) for z in rows) else "second"
                 for cols in sigmas]
        out.append((len(division_rref(rows)), kinds))
    return out


def skew_dim_by_rank(mult, columns, e) -> int:
    """Rank of {e(g - sigma(g)) : g in G}, where columns[g] holds sigma(g) as (index, coeff) pairs."""
    n = len(mult)
    rows = []
    for g, col in enumerate(columns):
        diff = [Fraction(0)] * n
        diff[g] += 1
        for h, c in col:
            diff[h] -= c
        rows.append(convolve(mult, e, diff))
    return len(division_rref(rows))


# ---------------------------------------------------------------------------
# character table by eigenspace kernels and a DFT on every class
# ---------------------------------------------------------------------------

def _rref_mod(rows, p):
    rows = [row[:] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if rows[k][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _kernel_mod(a, p):
    """Column vectors spanning the null space of a over F_p."""
    red, pivots = _rref_mod(a, p)
    ncols = len(a[0]) if a else 0
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][f]) % p
        basis.append(v)
    return basis


def _det_mod(a, p):
    a = [row[:] for row in a]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _charpoly_mod(a, p):
    """Coefficients of det(xI - a) over F_p, low degree first, by interpolation."""
    k = len(a)
    xs = list(range(k + 1))
    coeffs = [_det_mod([[(x if i == j else 0) - a[i][j] for j in range(k)] for i in range(k)], p)
              for x in xs]
    for level in range(1, k + 1):  # Newton divided differences
        for i in range(k, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * pow(xs[i] - xs[i - level], p - 2, p) % p
    poly = [0] * (k + 1)
    acc = [1]  # (x - xs[0]) ... (x - xs[i-1])
    for i in range(k + 1):
        for j, c in enumerate(acc):
            poly[j] = (poly[j] + coeffs[i] * c) % p
        if i < k:
            acc = [(u - xs[i] * v) % p for u, v in zip([0] + acc, acc + [0])]
    return poly


def _split_space(vectors, m, p):
    """Eigenspaces of the dense matrix m on the invariant span of vectors."""
    if len(vectors) == 1:
        return [vectors]
    k = len(vectors)
    images = [[sum(a * x for a, x in zip(row, v)) % p for row in m] for v in vectors]
    aug = [[vectors[j][i] for j in range(k)] + [images[j][i] for j in range(k)]
           for i in range(len(vectors[0]))]
    red, pivots = _rref_mod(aug, p)
    assert pivots[:k] == list(range(k)) and all(pc < k for pc in pivots[k:])
    restriction = [[red[i][k + j] for j in range(k)] for i in range(k)]
    poly = _charpoly_mod(restriction, p)
    pieces = []
    for lam in range(p):
        if sum(c * pow(lam, t, p) for t, c in enumerate(poly)) % p:
            continue
        shifted = [[(restriction[i][j] - (lam if i == j else 0)) % p for j in range(k)]
                   for i in range(k)]
        pieces.append([[sum(c[t] * vectors[t][i] for t in range(k)) % p
                        for i in range(len(vectors[0]))] for c in _kernel_mod(shifted, p)])
    assert sum(len(piece) for piece in pieces) == k, "not diagonalizable over F_p"
    return pieces


def _smallest_primitive_root(p):
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    return 1


def table_by_kernels(group, classes, constants, e, p):
    """(degrees, root_mults) of the character table, sorted as the package sorts them.

    The eigenspaces of every class matrix are split by charpoly and kernels,
    and each character is lifted by an inverse DFT on every class.
    """
    s = len(classes)
    n = group.order
    sizes = classes.sizes()
    spaces = [[[int(i == j) for i in range(s)] for j in range(s)]]
    for i in range(1, s):
        m = constants[i]
        spaces = [piece for w in spaces for piece in _split_space(w, m, p)]
    assert all(len(w) == 1 for w in spaces), "the class matrices do not split F_p^s"
    z = pow(_smallest_primitive_root(p), (p - 1) // e, p)
    powmap = []
    for rep in classes.class_reps:
        powers, x = [], 0
        while True:
            powers.append(classes.class_of[x])
            x = group.mult[x][rep]
            if x == 0:
                break
        powmap.append(powers)
    rows = []
    for (v,) in spaces:
        u = [x * pow(v[0], p - 2, p) % p for x in v]
        t = sum(u[j] * u[classes.class_inverse[j]] * pow(sizes[j], p - 2, p) for j in range(s)) % p
        d = isqrt(n * pow(t, p - 2, p) % p)
        x_mod = [d * u[j] * pow(sizes[j], p - 2, p) % p for j in range(s)]
        mults = []
        for powers in powmap:
            o = len(powers)
            zo = pow(z, e // o, p)
            mv = [0] * e
            for m in range(o):
                c = sum(x_mod[powers[l]] * pow(zo, -m * l % o, p) for l in range(o))
                mv[(e // o) * m] = c * pow(o, p - 2, p) % p
            assert sum(mv) == d and max(mv) <= d
            mults.append(tuple(mv))
        rows.append((d, tuple(mults)))
    rows.sort()
    return tuple(d for d, _ in rows), tuple(mv for _, mv in rows)


# ---------------------------------------------------------------------------
# the Galois action by twisting every value
# ---------------------------------------------------------------------------

def _twisted_row(row, k, e):
    """Each root-multiplicity vector of a row under zeta_e^t -> zeta_e^(tk)."""
    out = []
    for mv in row:
        image = [0] * e
        for t, m in enumerate(mv):
            image[t * k % e] += m
        out.append(tuple(image))
    return tuple(out)


def galois_orbits_by_twists(table):
    """The member tuples of the Galois orbits, in the order of galois_orbits, by
    twisting every value of every row by every unit k mod the conductor.  A
    twist that is not a row raises KeyError."""
    e = table.conductor
    index = {row: i for i, row in enumerate(table.root_mults)}
    orbits = {tuple(sorted({index[_twisted_row(row, k, e)]
                            for k in range(1, e + 1) if gcd(k, e) == 1}))
              for row in table.root_mults}
    return sorted(orbits, key=lambda m: (table.degrees[m[0]], m[0]))


def conjugates_by_twist(table):
    """For each row, the index of its complex conjugate, the twist by -1."""
    e = table.conductor
    index = {row: i for i, row in enumerate(table.root_mults)}
    return [index[_twisted_row(row, e - 1, e)] for row in table.root_mults]


# ---------------------------------------------------------------------------
# the per-entry table builders, one Python step per entry: groups.py builds the
# same tables from slices and gathers of whole rows and columns
# ---------------------------------------------------------------------------

def cyclic_table(n):
    """C_n: row i is i, i+1, ..., n-1, 0, ..., i-1."""
    return [list(range(i, n)) + list(range(i)) for i in range(n)]


def inverting_extension_table(m, z):
    """C_m = <a> extended by b with b a b^-1 = a^-1 and b^2 = a^z, a^i b^j at i + m*j:
    dihedral:n is (n, 0) and dicyclic:n is (2n, n)."""

    def row(x):  # a^i b a^k b^l = a^(i - k + z*l) b^(1 + l)
        i, j = x % m, x // m
        if j == 0:
            return [(i + k) % m + m * l for l in (0, 1) for k in range(m)]
        return [(i - k + z * l) % m + m * (1 - l) for l in (0, 1) for k in range(m)]

    return [row(x) for x in range(2 * m)]


def metacyclic_table(m, k, r, z):
    """a^i b^j a^t b^l = a^(i + t r^j) b^(j + l), with b^k replaced by a^z."""
    return [[(i + t * pow(r, j, m) + z * (j + l >= k)) % m + m * ((j + l) % k)
             for l in range(k) for t in range(m)]
            for j in range(k) for i in range(m)]


def product_table(*tables):
    """The direct product in the indices of the iterated product: mixed radix, the
    last factor fastest, one entry at a time."""
    sizes = [len(t) for t in tables]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]

    def row(x):
        out = [0]
        for table, m, stride in zip(tables, sizes, strides):
            out = [u * m + v for u in out for v in table[x // stride % m]]
        return out

    return [row(x) for x in range(prod(sizes))]


def permutation_table(generators, degree):
    """Breadth-first closure, x * g for each element x in turn and each generator g,
    then every product composed and looked up."""
    gens = [tuple(g) for g in generators]
    ident = tuple(range(degree))
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        cur = queue.pop(0)
        for gen in gens:
            new = tuple(cur[i] for i in gen)
            if new not in index:
                index[new] = len(elems)
                elems.append(new)
                queue.append(new)
    return [[index[tuple(a[i] for i in b)] for b in elems] for a in elems]


def table_by_entries(spec):
    """The table of a builtin spec string or a permutation-generator dict, by the
    builders above; symmetric and alternating from the generators groups.py uses."""
    if isinstance(spec, dict):
        return permutation_table(spec["permutation_generators"], spec["degree"])
    family, _, arg = spec.partition(":")
    if family == "product":
        return product_table(*map(table_by_entries, _split_product_args(arg)))
    args = [int(t) for t in arg.split(",")]
    if family == "abelian":
        return product_table(*map(cyclic_table, args))
    if family == "metacyclic":
        return metacyclic_table(*args)
    (n,) = args
    if family == "cyclic":
        return cyclic_table(n)
    if family in ("dihedral", "dicyclic"):
        return inverting_extension_table(*((n, 0) if family == "dihedral" else (2 * n, n)))
    cycle = list(range(1, n)) + [0]
    if family == "symmetric":
        return permutation_table([[1, 0] + list(range(2, n)), cycle] if n > 1 else [], n)
    three = [1, 2, 0] + list(range(3, n))
    return permutation_table([three] + {3: [], 4: [[0, 2, 3, 1]], 5: [cycle]}[n], n)


# The table-level routines as they were before the orbit and rational-class sums: every
# pair of rows over every class, every member of every orbit, every class matrix.

def table_orthogonality_by_pairs(table) -> bool:
    """Exact row orthogonality of a square character table.

    With X the s x s table, D the diagonal of class sizes and P the permutation
    of the classes by inversion, the row relations say X (DP) X^T = |G| I.  So X
    is invertible with inverse (DP) X^T / |G|, and X^T X = |G| (DP)^-1: those are
    the column relations.  That is why the table must be square, s rows of s
    values, and why the column relations are not checked again.
    """
    e = table.conductor
    n = table.group.order
    s = len(table.classes)
    sizes = table.classes.sizes()
    inv = table.classes.class_inverse
    if len(table.root_mults) != s or any(len(row) != s for row in table.root_mults):
        return False
    # each value as its nonzero root multiplicities (t, m): m copies of zeta_e^t
    terms = table.rendered_rows(lambda mv: [(t, m) for t, m in enumerate(mv) if m])

    def equals(i: int, j: int) -> bool:
        """Whether sum_k |K_k| chi_i(K_k) chi_j(K_k^-1) is |G| for i = j and 0 otherwise."""
        acc = [0] * e
        for k in range(s):
            w, y = sizes[k], terms[j][inv[k]]
            for t, a in terms[i][k]:
                for u, b in y:
                    acc[(t + u) % e] += w * a * b
        red = reduce_root_vector(e, acc)
        return not any(red[1:]) and red[0] == (n if i == j else 0)

    return all(equals(i, j) for i in range(s) for j in range(i, s))


def rational_idempotents_by_sums(table):
    """E = |G| e = d sum_chi chi(K_j^-1) on class j, over each Galois orbit of degree d."""
    e = table.conductor
    cd = table.classes
    idems = []
    for oi, orbit in enumerate(table.orbits):
        coords = []
        for j in range(len(cd)):
            acc = [sum(col) for col in zip(*(table.root_mults[i][cd.class_inverse[j]]
                                             for i in orbit.members))]
            value = reduce_root_vector(e, acc)
            if any(value[1:]):
                raise ComputationError("expected a rational value")
            coords.append(orbit.degree * value[0])
        idems.append(CentralIdempotent(table.group, tuple(coords), oi))
    return idems


def idempotent_axioms_by_class_matrices(idems) -> bool:
    """sum e_i = 1 and e_i e_j = delta_ij e_i.

    Each e_i is stored as the integer class function E_i = |G| e_i, so it is
    central with coefficients in (1/|G|)Z by representation.  The check is in
    the class algebra: sum E_i = |G|*1 and E_i^2 = |G| E_i, multiplied through
    the class matrices.  Orthogonality follows: in each field factor of
    Z(QG), of characteristic 0, every e_i is 0 or 1 and they sum to 1.
    """
    if not idems:
        return False
    group = idems[0].group
    s = len(conjugacy_classes(group))
    coords = [ci.coords for ci in idems]
    if [sum(col) for col in zip(*coords)] != [group.order] + [0] * (s - 1):
        return False
    for ei in coords:  # E_i^2 = sum_b E_i[b] (K_b E_i)
        square = _combine(ei, [tuple(enumerate(_combine(ei, class_matrix(group, b), s))) if x
                               else () for b, x in enumerate(ei)], s)
        if square != [group.order * x for x in ei]:
            return False
    return True


def indicators_by_rows(table):
    """The indicator of every row, from one power map at 2."""
    e = table.conductor
    sizes = table.classes.sizes()
    weights: dict[int, int] = {}  # squared class -> total size of the classes squaring to it
    for j, k in enumerate(table.power_map(2)):
        weights[k] = weights.get(k, 0) + sizes[j]
    out = []
    for row in table.root_mults:
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
        out.append(value)
    return tuple(out)


def _charpoly(m):
    """det(x I - m) of an integer matrix, lowest degree first, by Faddeev and LeVerrier:
    with N_1 = I, c_(r-k) = -tr(m N_k)/k and N_(k+1) = m N_k + c_(r-k) I, all exact."""
    r = len(m)
    coeffs = [0] * r + [1]
    mn = [[0] * r for _ in range(r)]  # m N_0, N_0 = 0
    for k in range(1, r + 1):
        nk = [[x + (coeffs[r - k + 1] if i == j else 0) for j, x in enumerate(row)]
              for i, row in enumerate(mn)]
        mn = [[sum(a * nk[l][j] for l, a in enumerate(row)) for j in range(r)] for row in m]
        coeffs[r - k], rem = divmod(-sum(mn[i][i] for i in range(r)), k)
        assert not rem, "Faddeev-LeVerrier division is not exact"
    return coeffs


def rational_components_by_class_algebra(mult, inv, seed=0):
    """The rational central primitive idempotents of QG from the multiplication table
    alone, with no character table: sorted pairs (E, dim), E = |G| e on every element and
    dim = dim_Q QGe = E(1).

    The sums R_A of the rational classes span the span of the e_i.  Their structure
    constants a[A][B][C], the coefficient of R_C in R_A R_B, are read at one z of each
    R_C as #{x in R_A : x^-1 z in R_B}: one pass over G per rational class.  With
    fixed-seed integers c_A, X = sum_A c_A R_A acts on that span with integer eigenvalues,
    sum_A c_A |R_A| chi(R_A)/chi(1) on e_i, so each of absolute value at most
    sum_A |c_A| |R_A|, and a scan of that range finds them all.  When they are r distinct
    values, e_i = prod_(j != i) (X - lambda_j)/(lambda_i - lambda_j)."""
    n = len(mult)
    class_of = {g: cls for cls in conjugation_orbits(mult, inv) for g in cls}
    part, rational = {}, []  # element -> its rational class, and the rational classes
    for x in range(n):
        if x in part:
            continue
        powers, y = [0], x
        while y != 0:
            powers.append(y)
            y = mult[y][x]
        o = len(powers)
        members = sorted(set().union(*(class_of[powers[k % o]] for k in range(1, o + 1)
                                       if gcd(k, o) == 1)))
        part.update(dict.fromkeys(members, len(rational)))
        rational.append(members)
    r = len(rational)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for c, members in enumerate(rational):
        z = members[0]
        for x in range(n):
            a[part[x]][part[mult[inv[x]][z]]][c] += 1
    rng = random.Random(seed)
    weights = [rng.randint(1, 99) for _ in range(r)]
    m = [[sum(w * a[i][b][c] for i, w in enumerate(weights)) for b in range(r)] for c in range(r)]
    bound = sum(w * len(members) for w, members in zip(weights, rational))
    poly = _charpoly(m)
    roots = [lam for lam in range(-bound, bound + 1)
             if reduce(lambda acc, coef: acc * lam + coef, reversed(poly), 0) == 0]
    assert len(roots) == r, "the combination does not separate the components"
    out = []
    for lam in roots:
        v = [Fraction(int(part[0] == c)) for c in range(r)]  # the identity, R_0 = {1}
        for mu in roots:
            if mu != lam:
                v = [(sum(x * y for x, y in zip(m[c], v)) - mu * v[c]) / (lam - mu)
                     for c in range(r)]
        big = [n * v[part[g]] for g in range(n)]
        assert all(x.denominator == 1 for x in big), "|G| e is not integral"
        out.append((tuple(map(int, big)), int(big[0])))
    return sorted(out)
