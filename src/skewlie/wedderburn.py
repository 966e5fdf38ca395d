"""Exact complex character tables and the decomposition of (QG, sigma).

The character table comes from the modular method of Dixon and Schneider: the
class matrices, built from the class representatives as the split needs them,
commute, and their common eigenvectors over F_p are the central characters.
One cyclic vector per piece of the eigenbasis splits it: the Krylov vectors of
the piece's vector under a class matrix, one map per layer of its gathered rows,
give its minimal polynomial, and each root a packed combination of them, its
projection on one eigenspace.  Generators split first, then the rest largest
first, the roots tried first among the eigenvalues |K| zeta_o^t of the linear
characters.  Degrees and values are recovered mod p.  The twist of chi by a unit
k is chi read through the power map of k, mod p as well as exactly: so one
character per Galois orbit is lifted to sums of roots of unity, a linear one as
one row of discrete logs, any other by an inverse DFT on each rational class,
and the other rows of the orbit are read through the power maps, each matched
to its own eigenvector mod p.  The Galois orbits give the rational central
primitive idempotents.  One trace of sigma over G classifies each simple
component of QG: its kind on its center, its type from its skew dimension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from math import gcd, isqrt
from operator import add, getitem, mod, mul
from typing import Callable, Sequence

from .cyclotomic import euler_phi, ramanujan_sums, reduce_root_vector, twist_root_vector
from .errors import ComputationError, SpecError
from .groups import ConjugacyData, Group, _per_group, conjugacy_classes, exponent, generators
from .indicators import IndicatorReport, indicator_report
from .involutions import Involution, skew_space
from .linalg import pack, reduce_mod_p, slot_words, unpack_mod
from .serialize import frac_str

DEFAULT_PRIME_BOUND = 10**8


# ---------------------------------------------------------------------------
# class algebra
# ---------------------------------------------------------------------------

@_per_group
def class_matrix(group: Group, i: int) -> tuple:
    """The class matrix M_i, built once per group on first use.

    Row j holds the nonzero (k, a_ijk), where K_i K_j = sum_k a_ijk K_k for
    the class sums K.  a_ijk is the coefficient of the representative z_k in
    K_i K_j, #{x in K_i : x^-1 z_k in K_j}: s |K_i| lookups.
    """
    cd = conjugacy_classes(group)
    mult, ginv, class_of = group.mult, group.inv, cd.class_of
    rows: list[list] = [[] for _ in cd.classes]
    for k, z in enumerate(cd.class_reps):
        for j, a in Counter(class_of[mult[ginv[x]][z]] for x in cd.classes[i]).items():
            rows[j].append((k, a))
    return tuple(map(tuple, rows))


def class_structure_constants(group: Group) -> list[list[list[int]]]:
    """The dense view a[i][j][k] of every class matrix: s^3 ints, for inspection only."""
    s = len(conjugacy_classes(group))
    table = [[[0] * s for _ in range(s)] for _ in range(s)]
    for i in range(s):
        for j, row in enumerate(class_matrix(group, i)):
            for k, a in row:
                table[i][j][k] = a
    return table


def _combine(x: Sequence, rows: Sequence, size: int) -> list:
    """sum_j x[j] * rows[j], each row given by its (k, value) pairs."""
    out = [0] * size
    for xj, row in zip(x, rows):
        if xj:
            for k, v in row:
                out[k] += xj * v
    return out


# ---------------------------------------------------------------------------
# the Dixon prime and the eigenbasis mod p (internal to the table construction)
# ---------------------------------------------------------------------------

def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    return next((d for d in chain([2], range(3, isqrt(n) + 1, 2)) if n % d == 0), n)


def _dixon_threshold(group: Group) -> tuple[int, int]:
    """The exponent e and the bound 2*ceil(sqrt(|G|))*|G| a Dixon prime must exceed."""
    n = group.order
    return exponent(group), 2 * (isqrt(n - 1) + 1) * n  # ceil(sqrt(n)) = isqrt(n - 1) + 1


def find_dixon_prime(group: Group) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*ceil(sqrt(|G|))*|G|."""
    e, threshold = _dixon_threshold(group)
    p = threshold - (threshold - 1) % e  # largest p <= threshold with p = 1 mod e
    while True:
        p += e
        if p > DEFAULT_PRIME_BOUND:
            raise SpecError(f"no prime p = 1 (mod {e}) with p > {threshold} "
                            f"below the bound {DEFAULT_PRIME_BOUND}")
        if p > threshold and _least_factor(p) == p:
            return p


def check_dixon_prime(group: Group, p: int) -> int:
    e, threshold = _dixon_threshold(group)
    if p > DEFAULT_PRIME_BOUND:
        raise SpecError(f"{p} exceeds the Dixon prime bound {DEFAULT_PRIME_BOUND}")
    if p < 2 or _least_factor(p) != p:
        raise SpecError(f"{p} is not prime")
    if p % e != (1 % e):
        raise SpecError(f"{p} is not 1 mod the group exponent {e}")
    if p <= threshold:
        raise SpecError(f"{p} is not larger than 2*ceil(sqrt(|G|))*|G| = {threshold}")
    return p


def _primitive_root(p: int) -> int:
    factors, m = set(), p - 1
    while m > 1:
        factors.add(q := _least_factor(m))
        m //= q
    for g in range(1, p):  # 1 only for p = 2, with no factor q
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ComputationError(f"no primitive root mod {p}")


def _gather(m: tuple) -> Callable[[list[int], int], list[int]]:
    """The product w -> m w mod p, for m given by its rows of nonzero (k, a): with the rows
    sorted by decreasing length, layer t is (idx_t, coef_t), the t-th pair of each row that
    has one, and m w = sum_t coef_t * w[idx_t] is one map pass per layer, put back in order."""
    order = sorted(range(len(m)), key=lambda j: -len(m[j]))
    rows = [m[j] or ((0, 0),) for j in order]  # an empty row sums to 0 all the same
    (idx0, coef0), *layers = [tuple(zip(*(row[t] for row in rows if len(row) > t)))
                              for t in range(len(rows[0]))]
    back = sorted(range(len(m)), key=order.__getitem__)

    def product(w: list[int], p: int) -> list[int]:
        acc = list(map(mul, coef0, map(w.__getitem__, idx0)))
        for idx, coef in layers:
            acc[:len(idx)] = map(add, acc, map(mul, coef, map(w.__getitem__, idx)))
        return list(map(mod, map(acc.__getitem__, back), repeat(p)))
    return product


def _minimal_polynomial(v: list[int], m: Callable, p: int) -> tuple[list[list[int]], list[int]]:
    """The Krylov vectors v, mv, ..., m^(d-1) v mod p and the monic minimal polynomial
    of v under m (low degree first), m its product ``_gather`` gives.  The rows
    (m^k v | e_k) are reduced with pivots among the first s = len(v) entries; the
    first whose left part reduces to 0 holds mu, with mu_k = 1, in its tail."""
    krylov: list[list[int]] = []
    pivots: list[tuple[int, list[int]]] = []
    w = list(map(mod, v, repeat(p)))
    for _ in range(len(v) + 1):  # at most s Krylov vectors are independent
        aug = w + [0] * len(krylov) + [1]
        if not reduce_mod_p(aug, pivots, p, len(v)):
            return krylov, aug[len(v):]
        krylov.append(w)
        w = m(w, p)
    raise ComputationError(f"more than {len(v)} Krylov vectors are independent mod p")


def _split(v: list[int], m: Callable, p: int, likely: Sequence[int] = ()) -> list[list[int]]:
    """Split the piece of v by m, the product from ``_gather``: one child w = (mu/(x - lam))(m) v
    per root lam of the minimal polynomial mu of v, in increasing lam, a nonzero multiple of
    the projection of v on the lam-eigenspace of m.  Each lam is tried in ``likely`` first,
    then in the rest of F_p, and confirmed by mu(lam) = 0."""
    krylov, mu = _minimal_polynomial(v, m, p)
    deg = len(krylov)
    if deg == 1:
        return [v]
    likely = dict.fromkeys(likely)
    roots = []  # scanned in O(1) memory: a --dixon-prime may be large
    for lam in chain(likely, (x for x in range(p) if x not in likely)):
        acc = 0
        for c in reversed(mu):
            acc = (acc * lam + c) % p
        if not acc:
            roots.append(lam)
            if len(roots) == deg:
                break
    else:
        raise ComputationError("class matrix is not split semisimple mod p")
    roots.sort()
    words = slot_words(deg * (p - 1) ** 2)
    packed = [pack(w, words) for w in krylov]
    children = []
    for lam in roots:
        q, acc = [0] * deg, 0
        for k in range(deg, 0, -1):  # synthetic division: q = mu / (x - lam)
            acc = (acc * lam + mu[k]) % p
            q[k - 1] = acc
        children.append(unpack_mod(sum(map(mul, q, packed)), len(v), words, p))
    return children


def _central_characters(group: Group, p: int, z: int) -> list[list[int]]:
    """One vector per central character omega_chi = (omega_chi(K_j))_j, up to a unit.

    Each piece of the eigenbasis is kept as one vector whose coordinate on
    every omega_chi of the piece is nonzero.  The first piece is
    e_0 = sum_chi (chi(1)^2/|G|) omega_chi, nonzero on every omega_chi since
    p > |G|.  The class matrices split every piece until there is one piece
    per class: the classes of ``generators(group)`` first (their sums generate
    Z(QG) if G is abelian), then the rest largest first, with the eigenvalues
    |K_i| zeta_o^t, o = o(g_i), of the linear characters as the likely roots,
    zeta_o a power of the root of unity z of order exponent(G) mod p; only the
    matrices used are built, and each is gathered once for its products.
    """
    cd = conjugacy_classes(group)
    sizes = cd.sizes()
    s = len(sizes)
    e = exponent(group)
    order = {c: len(powers) for powers, twins in _rational_classes(group) for c, _ in twins}
    first = dict.fromkeys(cd.class_of[g] for g in generators(group))
    rest = sorted((i for i in range(1, s) if i not in first), key=lambda i: -sizes[i])
    pieces = [[1] + [0] * (s - 1)]
    for i in chain(first, rest):
        if len(pieces) >= s:
            break
        m, o = _gather(class_matrix(group, i)), order[i]
        likely = [sizes[i] * pow(z, e // o * t, p) % p for t in range(o)]
        pieces = [w for v in pieces for w in _split(v, m, p, likely)]
    if len(pieces) != s:
        raise ComputationError(
            f"eigenspace splitting ended with {len(pieces)} pieces for {s} classes"
        )
    return pieces


@_per_group
def _rational_classes(group: Group) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """One entry per rational class: the classes of g^0, ..., g^(o-1) for the
    representative g of its first class, and each class of a generator g^k of
    <g> as (class, k), gcd(k, o) = 1.  chi(g^k) is the Galois twist of chi(g) by k."""
    cd = conjugacy_classes(group)
    out = []
    seen: set[int] = set()
    for j, rep in enumerate(cd.class_reps):
        if j in seen:
            continue
        powers, x = [0], rep
        while x != 0:
            powers.append(cd.class_of[x])
            x = group.mult[x][rep]
        o = len(powers)
        twins = {powers[k % o]: k for k in range(o, 0, -1) if gcd(k, o) == 1}
        seen.update(twins)
        out.append((tuple(powers), tuple(twins.items())))
    return tuple(out)


def _lift(xs: list[int], d: int, e: int, p: int, dft: dict) -> list[int]:
    """Root multiplicities of chi(g), as a length-e vector, from x[l] = chi(g^l)
    mod p for l < o = o(g), by the inverse DFT over the o-th roots of unity:
    the multiplicity of each must be at most d, and they must sum to d."""
    mv = [0] * e
    o_inv, matrix = dft[len(xs)]
    step = e // len(xs)
    total = 0
    for m, col in enumerate(matrix):
        c = sum(map(mul, xs, col)) * o_inv % p
        if c > d:
            raise ComputationError("lifted root multiplicity exceeds the degree")
        mv[step * m] = c
        total += c
    if total != d:
        raise ComputationError("root multiplicities do not sum to the degree")
    return mv


def _linear_row(x_mod: Sequence[int], e: int, dlog: dict, checks: tuple, ones: dict) -> tuple:
    """The row of a linear character x, zeta_e^T[c] on class c for T = log_z x mod p, each
    the one-hot vector ``ones[T[c]]``, once T[a] = k T[b] mod e for the (a, b, k) of
    ``checks``, one pass over all of them."""
    try:
        logs = list(map(dlog.__getitem__, x_mod))
    except KeyError:
        raise ComputationError("a linear character value is no e-th root of unity mod p") from None
    a, b, k = checks
    if (list(map(logs.__getitem__, a))
            != list(map(mod, map(mul, k, map(logs.__getitem__, b)), repeat(e)))):
        raise ComputationError("linear character is not multiplicative on a cyclic subgroup")
    for t in set(logs).difference(ones):
        ones[t] = (0,) * t + (1,) + (0,) * (e - 1 - t)
    return tuple(map(ones.__getitem__, logs))


@_per_group
def _linear_checks(group: Group) -> tuple[tuple[int, ...], ...]:
    """(a, b, k) as three tuples, with x(a) = x(b)^k for every linear character x: a = the
    class of g^k for the representative g of each rational class and every unit k mod o(g),
    and a = the class of y^k for every class y and every prime k | exponent(G).  These are
    x(y^l) = x(y)^l for every y and l: l is a unit times primes dividing o(y)."""
    e = exponent(group)
    triples = [(powers[k % len(powers)], powers[1 % len(powers)], k)
               for powers, _ in _rational_classes(group)
               for k in range(1, len(powers) + 1) if gcd(k, len(powers)) == 1]
    triples += [(a, b, k) for k in range(2, e + 1) if e % k == 0 and _least_factor(k) == k
                for b, a in enumerate(_power_map(group, k))]
    return tuple(zip(*triples))


def _power_map(group: Group, k: int) -> tuple[int, ...]:
    """The class of x^k for x in each class: the class of g^j, for g the first
    representative of its rational class, goes to the class of g^(jk).  For k
    prime to the exponent chi(x^k) is the Galois twist of chi(x) by k, also mod
    p (Isaacs, Character Theory of Finite Groups)."""
    image = [0] * len(conjugacy_classes(group))
    for powers, twins in _rational_classes(group):
        for c, j in twins:
            image[c] = powers[j * k % len(powers)]
    return tuple(image)


@_per_group
def _unit_power_maps(group: Group) -> tuple[tuple[int, ...], ...]:
    """The distinct power maps of the units k mod exponent(G), in increasing k."""
    e = exponent(group)
    return tuple(dict.fromkeys(_power_map(group, k) for k in range(1, e + 1) if gcd(k, e) == 1))


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    """Exact character table with values in Q(zeta_conductor).

    ``root_mults[i][j]`` is the value of character i on class j as the multiplicities of
    the eigenvalues of rho(g), o-th roots of unity for g of order o: the checks reject
    any other vector as malformed, even of the same value.  ``to_json`` and text output
    read it too.  The results that depend on G alone, not on an involution, are computed
    on first use and kept on the table.
    """

    group: Group
    classes: ConjugacyData
    conductor: int
    degrees: tuple[int, ...]
    root_mults: tuple[tuple[tuple[int, ...], ...], ...]
    orbit_of: tuple[int, ...]  # a label per row, shared by the rows of one Galois orbit
    prime: int

    def __len__(self) -> int:
        return len(self.degrees)

    def power_map(self, k: int) -> tuple[int, ...]:
        """The class of x^k for x in each class."""
        return _power_map(self.group, k)

    @cached_property
    def orbits(self) -> tuple[GaloisOrbit, ...]:
        return tuple(galois_orbits(self))

    @cached_property
    def idempotents(self) -> tuple[CentralIdempotent, ...]:
        return tuple(rational_idempotents(self))

    @cached_property
    def indicators(self) -> IndicatorReport:
        return indicator_report(self)

    @cached_property
    def checks(self) -> dict[str, bool]:
        return {"idempotent_axioms": idempotent_axioms_hold(self.idempotents),
                "orthogonality": table_orthogonality(self)}

    @cached_property
    def center_dims(self) -> tuple[int, ...]:
        """dim_Q e Z(QG) per component, checked to be [Z:Q]: tr(L_e | Z(QG)), once E^2 = |G| E."""
        n = self.group.order
        identity = [((g, 1),) for g in range(n)]
        traces = [_trace(self.group, ci.coords, identity, True) for ci in self.idempotents]
        if any(t != n * o.field_degree for t, o in zip(traces, self.orbits)):
            raise ComputationError("center basis has the wrong dimension")
        if not self.checks["idempotent_axioms"]:
            raise ComputationError("the idempotent axioms fail, so no trace on a center is read")
        return tuple(t // n for t in traces)

    def rendered_rows(self, render) -> list[list]:
        """The rows with every cell as ``render(value)``, called once per distinct value:
        the build keeps one tuple object per value, so values are told apart by identity."""
        values = list(chain.from_iterable(self.root_mults))
        text = {i: render(mv) for i, mv in dict(zip(map(id, values), values)).items()}
        cells = map(text.__getitem__, map(id, values))
        return [list(islice(cells, len(row))) for row in self.root_mults]

    def to_json(self) -> dict:
        """Each value as its power-basis coordinates, one list of strings per
        distinct value that every cell holding it shares."""
        return {
            "group": self.group.name,
            "order": self.group.order,
            "conductor": self.conductor,
            "class_sizes": list(self.classes.sizes()),
            "class_representatives": list(self.classes.class_reps),
            "degrees": list(self.degrees),
            "characters": self.rendered_rows(
                lambda mv: list(map(str, reduce_root_vector(self.conductor, mv)))),
        }


def character_table(group: Group, prime: int | None = None) -> CharacterTable:
    cd = conjugacy_classes(group)
    s = len(cd)
    n = group.order
    e = exponent(group)
    p = check_dixon_prime(group, prime) if prime is not None else find_dixon_prime(group)
    z = pow(_primitive_root(p), (p - 1) // e, p)
    vectors = _central_characters(group, p, z)

    size_inv = [pow(sz, p - 2, p) for sz in cd.sizes()]
    dlog = {pow(z, t, p): t for t in range(e)}
    dft = {}  # order o -> (1/o mod p, rows m of zeta_o^(-m l) over l); degree > 1 only

    interned: dict = {}  # one tuple object per distinct value of degree > 1
    ones: dict = {}  # t -> the one tuple object of the value zeta_e^t
    twists: dict = {}  # chi^k mod p -> (row of chi^k, orbit of chi), for each row lifted so far
    rows = []
    for v in vectors:
        # normalize so the identity-class coordinate is 1, recover the degree mod p
        if v[0] % p == 0:
            raise ComputationError("eigenvector vanishes on the identity class")
        u0_inv = pow(v[0], p - 2, p)
        w = list(map(mul, v, size_inv))  # v[0] u_j / |K_j| for u = v / v[0]
        t = sum(map(mul, w, map(v.__getitem__, cd.class_inverse))) * u0_inv * u0_inv % p
        d_sq = n * pow(t, p - 2, p) % p
        d = isqrt(d_sq)
        if d * d != d_sq or d == 0 or n % d != 0:
            raise ComputationError("character degree recovery failed")
        x_mod = tuple(map(mod, map(mul, w, repeat(d * u0_inv)), repeat(p)))
        row, orbit = twists.pop(x_mod, (None, len(rows)))
        if row is None:  # the first character of its Galois orbit: lift it
            if d == 1:
                row = _linear_row(x_mod, e, dlog, _linear_checks(group), ones)
            else:
                mults: list = [None] * s
                for powers, twins in _rational_classes(group):
                    o = len(powers)
                    if o not in dft:
                        zo = [pow(z, e // o * t, p) for t in range(o)]  # zeta_o^t
                        dft[o] = (pow(o, p - 2, p),
                                  [[zo[-m * l % o] for l in range(o)] for m in range(o)])
                    mv = _lift([x_mod[c] for c in powers], d, e, p, dft)
                    for twin, k in twins:
                        tv = twist_root_vector(mv, k, e)
                        mults[twin] = interned.setdefault(tv, tv)
                row = tuple(mults)
            for pm in _unit_power_maps(group):  # chi^k is chi read through the power map of k
                key = tuple(map(x_mod.__getitem__, pm))
                if key != x_mod and key not in twists:
                    twists[key] = (tuple(map(row.__getitem__, pm)), orbit)
        rows.append((d, row, orbit, x_mod))

    rows.sort(key=lambda r: (r[0], r[1]))
    degrees, root_mults, orbit_of, keys = zip(*rows)
    if sum(d * d for d in degrees) != n:
        raise ComputationError("degree squares do not sum to the group order")
    if len(set(keys)) != s:  # each row reduces mod p to its own key
        raise ComputationError("character rows are not distinct")
    if twists:
        raise ComputationError("a Galois twist mod p matches no eigenvector")
    return CharacterTable(
        group=group,
        classes=cd,
        conductor=e,
        degrees=degrees,
        root_mults=root_mults,
        orbit_of=orbit_of,
        prime=p,
    )


# ---------------------------------------------------------------------------
# exact value arithmetic on root-multiplicity vectors
# ---------------------------------------------------------------------------

def table_orthogonality(table: CharacterTable) -> bool:
    """Exact row orthogonality of a square character table: X (DP) X^T = |G| I, with D the
    class sizes and P the inversion of the classes, which on a square X gives the column
    relations too, so they are not checked again (README, "How the checks are exact").

    With chi the first row of each Galois orbit and g the first class, of order o, of each
    rational class R: (i) chi read through the unit power maps gives exactly the rows of its
    orbit, by identity or else by value; (ii) chi(g^k) is chi(g) twisted by each unit k mod
    o; (iii) chi(g) sits on the multiples of e/o.  Then the pairs (chi, each row of an orbit
    from chi's on) decide the table, and R adds |K_g| #R / phi(o) Tr(chi(g) psi(g^-1)) to
    each, Tr(zeta_o^m) = c_o(m): times phi(e), chi's covector against psi's values at g^-1.
    """
    e, n, s = table.conductor, table.group.order, len(table.classes)
    rows, orbits, pms = table.root_mults, table.orbits, _unit_power_maps(table.group)
    if len(rows) != s or any(len(row) != s for row in rows) or not any(  # (i)
            all(len(members := {keys[m] for m in o.members}) == len(o.members) and members
                == {tuple(map(keys[o.members[0]].__getitem__, pm)) for pm in pms} for o in orbits)
            for keys in ([tuple(map(id, row)) for row in rows], rows)):
        return False
    phi, classes, unit_cuts, gather, layout = euler_phi(e), [], [], [], []  # per unit k; per R
    for powers, twins in _rational_classes(table.group):
        o, base, cut = len(powers), len(gather), slice(None, None, e // len(powers))
        layout.append((powers[1 % o], powers[-1], cut, ramanujan_sums(o),
                       len(table.classes.classes[powers[-1]]) * len(twins) * phi // euler_phi(o)))
        for k in filter(lambda k: gcd(k, o) == 1, range(1, o + 1)):  # chi(g^(1/k)) is chi(g)
            gather += (base + u * k % o for u in range(o))  # twisted by 1/k: at u, chi(g) at u k
            classes.append(powers[pow(k, -1, o) % o])
            unit_cuts.append(cut)
    covectors, blocks = [], {}  # blocks: (g, id of chi(g)) -> chi's part of the covector
    for chi in (rows[orbit.members[0]] for orbit in orbits):  # (iii) by the zeros off e/o, (ii)
        cells = list(map(chi.__getitem__, classes))
        read = list(chain.from_iterable(map(getitem, cells, unit_cuts)))
        if (sum(map(tuple.count, cells, repeat(0))) != e * len(cells) - len(read) + read.count(0)
                or read != list(map(read.__getitem__, gather))):
            return False
        covectors.append([])
        for g, _, cut, c, w in layout:  # chi(g) zeta_o^u has the trace sum_t chi(g)_t c_o(t + u)
            if (block := blocks.get((g, id(chi[g])))) is None:
                block = blocks[g, id(chi[g])] = [0] * len(c)
                for t in filter(chi[g][cut].__getitem__, range(len(c))):
                    block[:] = map(add, block, map(mul, repeat(w * chi[g][cut][t]), c[t:] + c[:t]))
            covectors[-1] += block
    _, inverses, cuts, _, _ = zip(*layout)
    for b, orbit in enumerate(orbits):
        for m in orbit.members:
            flat = list(chain.from_iterable(map(getitem, map(rows[m].__getitem__, inverses), cuts)))
            if (list(map(sum, map(map, repeat(mul), covectors[:b + 1], repeat(flat))))
                    != [0] * b + [phi * n if m == orbit.members[0] else 0]):
                return False
    return True


# ---------------------------------------------------------------------------
# Galois orbits and rational central primitive idempotents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisOrbit:
    """One orbit of characters under zeta -> zeta^k; one rational component."""

    members: tuple[int, ...]
    degree: int  # common character degree n

    @property
    def field_degree(self) -> int:  # [Q(chi) : Q] = orbit size
        return len(self.members)

    @property
    def dim_q(self) -> int:
        return self.degree * self.degree * self.field_degree


def galois_orbits(table: CharacterTable) -> list[GaloisOrbit]:
    """The orbits of the rows under the twists by the units k mod the conductor,
    as the build labelled them in ``orbit_of``.  It matched every row read
    through a unit power map to its own eigenvector mod p, and distinct
    characters are distinct mod p (<chi, chi> = |G| is prime to p), so these
    are the orbits of the exact rows."""
    members: dict[int, list[int]] = {}
    for i, orbit in enumerate(table.orbit_of):
        members.setdefault(orbit, []).append(i)
    return sorted((GaloisOrbit(tuple(m), table.degrees[m[0]]) for m in members.values()),
                  key=lambda o: (o.degree, o.members[0]))


@dataclass(frozen=True)
class CentralIdempotent:
    """A rational central primitive idempotent e and its character orbit.

    ``coords`` is the class function E = |G| e, one int per conjugacy class, so
    e is central with coefficients in (1/|G|)Z by representation.
    """

    group: Group
    coords: tuple[int, ...]
    orbit_index: int

    def __post_init__(self) -> None:
        if (len(self.coords) != len(conjugacy_classes(self.group))
                or any(type(c) is not int for c in self.coords)):
            raise SpecError("idempotent coords need one int per conjugacy class")


def rational_idempotents(table: CharacterTable) -> list[CentralIdempotent]:
    """E = |G| e = d sum_{chi in O} chi(K_j^-1) = d |O| Tr(chi(K_j^-1)) / phi(e) on class j, once
    per rational class, Tr(zeta_e^t) = c_e(t): the units mod e twist the first row chi of each
    Galois orbit O, of degree d, to each row of O phi(e)/|O| times."""
    c, phi = ramanujan_sums(table.conductor), euler_phi(table.conductor)
    idems = []
    for oi, orbit in enumerate(table.orbits):
        row, coords = table.root_mults[orbit.members[0]], {}
        for powers, twins in _rational_classes(table.group):  # powers[-1]: the class of g^-1
            value, rem = divmod(orbit.dim_q * sum(map(mul, row[powers[-1]], c)), orbit.degree * phi)
            if rem:
                raise ComputationError("expected a rational value")
            coords.update((j, value) for j, _ in twins)
        idems.append(CentralIdempotent(table.group, tuple(map(coords.get, range(len(row)))), oi))
    return idems


def idempotent_axioms_hold(idems: Sequence[CentralIdempotent]) -> bool:
    """sum e_i = 1 and e_i e_j = delta_ij e_i.

    E_i = |G| e_i is an integer class function, so e_i is central by representation.  Checked:
    sum E_i = |G|*1, E_i constant on each rational class, and E_i^2 = |G| E_i at one z per
    rational class, sum_x E_i(x) E_i(x^-1 z).  The rational class sums span the span of the
    e_i, a subalgebra (Berman-Witt), so that is E_i^2 = |G| E_i everywhere.  Orthogonality
    follows: in each field factor of Z(QG) every e_i is 0 or 1, and they sum to 1.
    """
    if not idems:
        return False
    group, coords = idems[0].group, [ci.coords for ci in idems]
    cd, rational = conjugacy_classes(group), [list(dict(tw)) for _, tw in _rational_classes(group)]
    columns = list(zip(*coords))  # each class -> the values of all E_i there
    if (list(map(sum, columns)) != [group.order] + [0] * (len(cd) - 1)
            or any(columns[c] != columns[cs[0]] for cs in rational for c in cs)):
        return False
    products = [[group.mult[y][cd.class_reps[cs[0]]] for y in group.inv] for cs in rational]
    for ei in coords:
        f = list(map(ei.__getitem__, cd.class_of))
        if any(sum(map(mul, f, map(f.__getitem__, col))) != group.order * ei[cs[0]]
               for cs, col in zip(rational, products)):  # col[x] = x^-1 z
            return False
    return True


# ---------------------------------------------------------------------------
# component classification
# ---------------------------------------------------------------------------

FIRST = "first"
SECOND = "second"
PAIR = "pair"
ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
UNITARY = "unitary"


@dataclass(frozen=True)
class ComponentReport:
    """One simple component of QG classified against an involution."""

    component_id: int
    dim_q: int
    center_degree: int
    degree_n: int
    kind: str            # first | second | pair
    type: str            # orthogonal | symplectic | unitary
    skew_dim_q: int      # for a pair, counted once for both halves
    paired_with: int | None = None

    def to_json(self) -> dict:
        fields = dict(vars(self))
        return {"id": fields.pop("component_id"), **fields}


def _trace(group: Group, f: Sequence[int], columns: Sequence, at_reps: bool) -> int:
    """sum_g sum_{(h, m) in columns[g]} m f[class(x h^-1)], x = g or, ``at_reps``, the
    representative of its class.  For f = |G| e, e central, and d sigma in ``columns``
    with sigma(e) = e, this is d |G| tr(sigma L_e) on QG, or on Z(QG) ``at_reps``."""
    cd = conjugacy_classes(group)
    left = map(cd.class_reps.__getitem__, cd.class_of) if at_reps else range(group.order)
    mult, ginv, class_of = group.mult, group.inv, cd.class_of
    return sum(m * f[class_of[mult[x][ginv[h]]]] for x, col in zip(left, columns) for h, m in col)


def component_skew_dim(idem: CentralIdempotent, inv: Involution) -> int:
    """dim_Q (fQG)^- = (|G| f[1] - tr(sigma L_f))/2 for f = e, or e + sigma(e) if sigma moves e.

    f is central and sigma-fixed, so sigma commutes with the projection L_f onto
    fQG, and tr(sigma L_f) = sum_g sum_{(h, m) in sigma(g)} m f[g h^-1].  For a
    swapped pair (fQG)^- is isomorphic to eQG: the trace must vanish.  All in integers:
    d|G| f is d E, or d E + d sigma(E), and its trace is d^2 |G| tr(sigma L_f).
    """
    group = idem.group
    n = group.order
    d, cols = inv.scaled_columns
    de = [d * x for x in idem.coords]
    sigma_e = _combine(idem.coords, inv.class_sum_images, len(de))  # d sigma(E)
    f = de if sigma_e == de else [a + b for a, b in zip(de, sigma_e)]
    num = d * n * f[0] - _trace(group, f, cols, False)
    twice, rem = divmod(num, d * d * n)
    if twice < 0 or rem or twice % 2:
        raise ComputationError(
            f"trace formula gives the skew dimension {frac_str(f'{num}/{2 * d * d * n}')}")
    return twice // 2


def sigma_action_on_components(idems: Sequence[CentralIdempotent], inv: Involution) -> tuple[int, ...]:
    """The permutation sigma(e_i) = e_perm[i]; always an involution.

    Each E_i = |G| e_i is mapped in integer class coordinates, through d*sigma on
    the class sums, and looked up among the d E_j.
    """
    sums = inv.class_sum_images
    d = inv.scaled_columns[0]
    index = {tuple(d * x for x in ci.coords): i for i, ci in enumerate(idems)}
    perm = tuple(index.get(tuple(_combine(ci.coords, sums, len(sums)))) for ci in idems)
    if None in perm:
        raise ComputationError("involution image of a central idempotent matches no idempotent")
    if any(perm[j] != i for i, j in enumerate(perm)):
        raise ComputationError("component action of the involution is not involutive")
    return perm


def classify_components(table: CharacterTable, inv: Involution) -> list[ComponentReport]:
    """Classify every component, pairs once.  On the center of a sigma-fixed component,
    a field of degree [Z:Q], sigma has order 1 (first kind, trace [Z:Q]) or 2 (trace 0)."""
    orbits = table.orbits
    idems = table.idempotents
    perm = sigma_action_on_components(idems, inv)
    dims = table.center_dims
    n = table.group.order
    d, cols = inv.scaled_columns
    reports = []
    for i, orbit in enumerate(orbits):
        j = perm[i]
        if j < i:
            continue  # reported with its twin j
        ndeg = orbit.degree
        cdeg = orbit.field_degree
        skew = component_skew_dim(idems[i], inv)
        if j != i:
            twin = orbits[j]
            if (twin.degree, twin.field_degree) != (ndeg, cdeg):
                raise ComputationError("swapped components have mismatched invariants")
            if skew != ndeg * ndeg * cdeg:
                raise ComputationError(f"component {i}: pair skew dimension {skew} != n^2*[Z:Q] "
                                       f"= {ndeg * ndeg * cdeg}")
            kind, typ = PAIR, UNITARY
        elif (trace := _trace(table.group, idems[i].coords, cols, True)) == d * n * dims[i]:
            dz, rem = divmod(skew, cdeg)
            if rem == 0 and dz == ndeg * (ndeg - 1) // 2:
                typ = ORTHOGONAL
            elif rem == 0 and dz == ndeg * (ndeg + 1) // 2 and ndeg % 2 == 0:
                typ = SYMPLECTIC
            else:
                raise ComputationError(f"component {i}: first-kind skew dimension {skew} fits "
                                       f"no formula (n={ndeg}, center degree {cdeg})")
            kind = FIRST
        elif trace == 0:
            if 2 * skew != ndeg * ndeg * cdeg:
                raise ComputationError(
                    f"component {i}: second-kind skew dimension {skew} != n^2*[Z:Q]/2")
            kind, typ = SECOND, UNITARY
        else:
            raise ComputationError(f"component {i}: trace of sigma on the center is not [Z:Q] or 0")
        reports.append(ComponentReport(
            component_id=i, dim_q=orbit.dim_q, center_degree=cdeg, degree_n=ndeg,
            kind=kind, type=typ, skew_dim_q=skew, paired_with=None if j == i else j,
        ))
    return reports


# ---------------------------------------------------------------------------
# full decomposition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    group: Group
    involution: Involution
    table: CharacterTable
    components: tuple[ComponentReport, ...]
    skew_dim: int
    sum_components: int
    checks: dict

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "involution": self.involution.to_json(),
            "components": [c.to_json() for c in self.components],
            "totals": {
                "skew_dim": self.skew_dim,
                "sum_components": self.sum_components,
            },
            "checks": dict(self.checks),
            "indicators": self.table.indicators.to_json(),
        }


def decomposition_report(group: Group, inv: Involution,
                         table: CharacterTable | None = None) -> DecompositionReport:
    """Classify every component and verify the global skew-dimension identity."""
    if table is None:
        table = character_table(group)
    components = classify_components(table, inv)
    skew_dim = skew_space(inv).skew_dim
    total = sum(c.skew_dim_q for c in components)
    if sum(o.dim_q for o in table.orbits) != group.order:
        raise ComputationError("component dimensions do not sum to |G|")
    return DecompositionReport(
        group=group,
        involution=inv,
        table=table,
        components=tuple(components),
        skew_dim=skew_dim,
        sum_components=total,
        checks={"theorem2_identity": total == skew_dim, **table.checks},
    )
