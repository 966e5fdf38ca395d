"""Independent brute-force oracles used to derive and freeze expected values.

Everything here deliberately avoids the package's elimination and closure
code paths: determinants go through permutation expansion, ranks through
minor search, spans through division-based Gaussian elimination.
"""

from fractions import Fraction
from itertools import combinations, permutations


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


def rank_by_minors(m) -> int:
    """Largest k such that some k x k minor is nonzero (sizes <= ~6x8)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                minor = [[m[i][j] for j in cols] for i in rows]
                if determinant_by_expansion(minor):
                    return k
    return 0


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
