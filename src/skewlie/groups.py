"""Finite groups as indexed multiplication tables, identity at index 0.

Built-in families (cyclic, dihedral, dicyclic, metacyclic, symmetric, alternating,
abelian by invariant factors, direct products) resolve through string specs like
"dicyclic:2" or "product:cyclic:2,dicyclic:2"; arbitrary groups come in as
multiplication tables or permutation generator lists closed by breadth-first
multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import chain, compress
from math import lcm, prod
from operator import itemgetter, ne
from typing import Callable, Iterator, Sequence

from .errors import SpecError

DEFAULT_MAX_ORDER = 2000


class Group:
    """Immutable finite group on indices 0..order-1 with identity 0.

    ``derived`` caches what is computed from the table, for the group's lifetime.
    """

    __slots__ = ("name", "order", "mult", "inv", "derived")

    def __init__(self, name: str, mult: tuple[tuple[int, ...], ...], inv: tuple[int, ...]):
        self.name = name
        self.order = len(mult)
        self.mult = mult
        self.inv = inv
        self.derived: dict = {}

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mult[x][g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        """Every class one element: read off the classes, which are kept on the group."""
        return len(conjugacy_classes(self)) == self.order

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "mult_table": [list(row) for row in self.mult],
        }


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes sorted by (size, least member), identity class first."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    class_reps: tuple[int, ...]
    class_inverse: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def _check_table(name: str, mult: list[list[int]]) -> Group:
    n = len(mult)
    if n == 0:
        raise SpecError(f"{name}: empty multiplication table")
    full = set(range(n))
    for i, row in enumerate(mult):
        if len(row) != n or set(row) != full:
            raise SpecError(f"{name}: row {i} is not a permutation of 0..{n - 1}")
    for j, col in enumerate(zip(*mult)):
        if set(col) != full:
            raise SpecError(f"{name}: column {j} is not a permutation of 0..{n - 1}")
    for g in range(n):
        if mult[0][g] != g or mult[g][0] != g:
            raise SpecError(f"{name}: index 0 is not a two-sided identity")
    inv = [-1] * n
    for g in range(n):
        h = mult[g].index(0)
        if mult[h][g] != 0:
            raise SpecError(f"{name}: element {g} has no two-sided inverse")
        inv[g] = h
    group = Group(name, tuple(map(tuple, mult)), tuple(inv))
    # Light's test: the a with (xa)y = x(ay) for all x, y are closed under
    # products and include the identity, so they are all of G once they include
    # S.  While the members of S pass, each closure is a subgroup that the next
    # member doubles, so a non-associative table fails within log2 n + 1 members.
    rows = group.mult
    for a in generators(group):  # none for n = 1, so itemgetter(*ra) gives tuples
        ra = rows[a]  # row xa is compared with row x read at ra, one x at a time
        for x in compress(range(n), map(ne, map(rows.__getitem__, map(itemgetter(a), rows)),
                                        map(itemgetter(*ra), rows))):
            y = next(y for y in range(n) if rows[rows[x][a]][y] != rows[x][ra[y]])
            raise SpecError(f"{name}: non-associative table at ({x},{a},{y})")
    return group


def _built_group(name: str, order: int, rows: Callable[[], list], max_order: int) -> Group:
    """Check the order against the cap, then build the table by rows() and check it."""
    if order > max_order:
        raise SpecError(f"{name}: order {order} exceeds the configured cap {max_order}")
    return _check_table(name, rows())


def _metacyclic_rows(m: int, k: int, r: int, z: int) -> Iterator[tuple[int, ...]]:
    """a^i b^j a^t b^l = a^(i + t r^j) b^(j + l), with b^k = a^z: in row a^i b^j the block
    of b^(j + l) is coset j + l mod k of the doubled cosets c, read from a^i, or from
    a^(i + z) past b^k, in steps of r^j: a slice for r^j = 1 or -1, else one gather."""
    cosets = [tuple(range(m * j, m * j + m)) * 2 for j in range(k)]
    for j in range(k):
        rj = pow(r, j, m)
        if rj == 1 % m:
            block = lambda c, i: c[i:i + m]
        elif rj == m - 1:
            block = lambda c, i: c[i + m:i:-1]
        else:
            gather = itemgetter(*(t * rj % m for t in range(m)))
            block = lambda c, i: gather(c[i:i + m])
        for i in range(m):
            yield tuple(chain.from_iterable([block(c, i) for c in cosets[j:]]
                                            + [block(c, (i + z) % m) for c in cosets[:j]]))


def metacyclic_group(m: int, k: int, r: int, z: int, name: str | None = None,
                     max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """<a, b | a^m = 1, b^k = a^z, b a b^-1 = a^r>, of order mk, a^i b^j at i + m*j."""
    if m < 1 or k < 1 or pow(r, k, m) != 1 % m or z * (r - 1) % m:
        raise SpecError("metacyclic:m,k,r,z needs m, k >= 1, r^k = 1 and z(r - 1) = 0 mod m")
    return _built_group(name or f"metacyclic:{m},{k},{r},{z}", m * k,
                        lambda: list(_metacyclic_rows(m, k, r, z)), max_order)


def cyclic_group(n: int, name: str | None = None, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    return metacyclic_group(n, 1, 1, 0, name or f"cyclic:{n}", max_order)


def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Dihedral group of order 2n: rotations r^i at i, reflections r^i s at n+i."""
    if n < 1:
        raise SpecError("dihedral parameter must be positive")
    return metacyclic_group(n, 2, n - 1, 0, f"dihedral:{n}", max_order)


def dicyclic_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Dicyclic group of order 4n (n=2 is Q8): a of order 2n and b^2 = a^n."""
    if n < 1:
        raise SpecError("dicyclic parameter must be positive")
    return metacyclic_group(2 * n, 2, 2 * n - 1, n, f"dicyclic:{n}", max_order)


def group_from_permutations(
    generators: list[list[int]],
    degree: int,
    name: str | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> Group:
    """Close permutation generators by breadth-first multiplication.  Column b of the
    table, b = b's for a generator s, is column b' read through right multiplication by s."""
    gens = []
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise SpecError(f"generator {g} is not a permutation of 0..{degree - 1}")
        gens.append(tuple(g))
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    parent = [None]  # b -> (b', s) with elems[b] = elems[b'] * gens[s]
    right: list[list[int]] = [[] for _ in gens]  # right[s][x]: the index of elems[x] * gens[s]
    for x, cur in enumerate(elems):
        for s, gen in enumerate(gens):
            new = tuple(map(cur.__getitem__, gen))
            if new not in index:
                if len(elems) >= max_order:
                    raise SpecError(f"permutation closure exceeds the cap {max_order}")
                index[new] = len(elems)
                elems.append(new)
                parent.append((x, s))
            right[s].append(index[new])
    cols = [tuple(index.values())]  # within the cap, which the closure enforces
    for b, s in parent[1:]:
        cols.append(tuple(map(right[s].__getitem__, cols[b])))
    rows = list(zip(*cols))
    del cols
    return _check_table(name or f"perm-group:deg{degree}:order{len(rows)}", rows)


def symmetric_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    if not 1 <= n <= 5:
        raise SpecError("symmetric builtin supports 1 <= n <= 5")
    gens = [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]][:n - 1]  # none for n = 1
    return group_from_permutations(gens, n, name=f"symmetric:{n}", max_order=max_order)


def alternating_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    if not 3 <= n <= 5:
        raise SpecError("alternating builtin supports 3 <= n <= 5")
    gens = [[1, 2, 0] + list(range(3, n))] + {3: [], 4: [[0, 2, 3, 1]], 5: [[1, 2, 3, 4, 0]]}[n]
    return group_from_permutations(gens, n, name=f"alternating:{n}", max_order=max_order)


def _product_rows(tables: Sequence[Sequence[Sequence[int]]]) -> list[tuple[int, ...]]:
    """Rows of the direct product of the tables, in the indices of the iterated direct
    product: mixed radix, the last factor fastest.  Row (x, y) of A x B joins, for each
    u of A's row x, the block of B's row y offset by u |B|."""
    idx = tuple(range(prod(map(len, tables))))
    factors = [t for t in tables if len(t) > 1]  # an order-1 factor changes no index
    rows = factors[0] if factors else [(0,)]  # as they are: below, entries only index blocks
    for table in factors[1:]:
        m = len(table)
        product: list = [None] * (len(rows) * m)
        for y, row in enumerate(table):
            gather = itemgetter(*row)
            blocks = [gather(idx[u:u + m]) for u in range(0, len(product), m)]
            product[y::m] = [tuple(chain.from_iterable(map(blocks.__getitem__, x))) for x in rows]
        rows = product
    return rows


def direct_product(*factors: Group, name: str | None = None,
                   max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Direct product of the factors, identity at 0: one table, checked once."""
    return _built_group(name or "product:" + ",".join(f.name for f in factors),
                        prod(f.order for f in factors),
                        lambda: _product_rows([f.mult for f in factors]), max_order)


def abelian_group(invariants: list[int], max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """C_m1 x ... x C_mr, indexed as the iterated direct product: one table, checked once."""
    if not invariants:
        raise SpecError("abelian spec needs at least one invariant factor")
    if min(invariants) < 1:
        raise SpecError("cyclic group order must be positive")
    return _built_group("abelian:" + ",".join(map(str, invariants)), prod(invariants),
                        lambda: _product_rows([list(_metacyclic_rows(m, 1, 1, 0))
                                               for m in invariants]), max_order)


def group_from_table(mult_table: list[list[int]], name: str = "table-group",
                     max_order: int = DEFAULT_MAX_ORDER) -> Group:
    ints = {i: i for i in range(len(mult_table))}  # one int object per value; others stay
    return _built_group(name, len(mult_table),
                        lambda: [tuple(map(ints.get, r, r)) for r in mult_table], max_order)


def _split_product_args(text: str) -> list[str]:
    """Split "cyclic:2,abelian:2,4,dihedral:3" into component specs.

    A bare integer token continues the argument list of the previous component.
    """
    parts: list[str] = []
    for token in text.split(","):
        if parts and token.isdigit():
            parts[-1] += "," + token
        else:
            parts.append(token)
    return parts


def _int_rows(value, field: str) -> list:
    """A JSON field that must be a list of lists of integers."""
    if not isinstance(value, (list, tuple)) or any(
            not isinstance(row, (list, tuple)) or any(type(x) is not int for x in row)
            for row in value):
        raise SpecError(f"{field} must be a list of lists of integers")
    return value


_ONE_INTEGER_FAMILIES = {
    "cyclic": cyclic_group, "dihedral": dihedral_group, "dicyclic": dicyclic_group,
    "symmetric": symmetric_group, "alternating": alternating_group,
}


def build_group(spec, max_order: int = DEFAULT_MAX_ORDER) -> Group:
    """Resolve a group spec: builtin string, JSON dict, or Group passthrough."""
    if isinstance(spec, Group):
        return spec
    if isinstance(spec, dict):
        if not isinstance(spec.get("name", ""), str):
            raise SpecError("group JSON 'name' must be a string")
        if "mult_table" in spec:
            table = _int_rows(spec["mult_table"], "mult_table")
            if "order" in spec and spec["order"] != len(table):
                raise SpecError("declared order does not match the table size")
            return group_from_table(table, spec.get("name", "table-group"), max_order)
        if "permutation_generators" in spec:
            if type(spec.get("degree")) is not int:
                raise SpecError("permutation_generators need an integer 'degree'")
            return group_from_permutations(
                _int_rows(spec["permutation_generators"], "permutation_generators"),
                spec["degree"],
                spec.get("name"),
                max_order,
            )
        raise SpecError("group JSON needs mult_table or permutation_generators")
    if not isinstance(spec, str):
        raise SpecError(f"unsupported group spec {spec!r}")
    family, _, arg = spec.partition(":")
    try:
        if family in _ONE_INTEGER_FAMILIES:
            return _ONE_INTEGER_FAMILIES[family](int(arg), max_order=max_order)
        if family == "metacyclic":
            m, k, r, z = map(int, arg.split(","))
            return metacyclic_group(m, k, r, z, max_order=max_order)
        if family == "abelian":
            return abelian_group([int(t) for t in arg.split(",")], max_order=max_order)
        if family == "product":
            parts = _split_product_args(arg)
            if len(parts) < 2:
                raise SpecError("product spec needs at least two components")
            factors = []
            for part in parts:  # past the cap, the parts built so far name the order
                factors.append(build_group(part, max_order))
                if prod(f.order for f in factors) > max_order:
                    break
            return direct_product(*factors, name=spec, max_order=max_order)
    except ValueError as exc:
        raise SpecError(f"bad group spec {spec!r}: {exc}") from None
    raise SpecError(f"unknown group family {family!r}")


def _per_group(fn):
    """Compute fn(group, *args) once per group and arguments, and keep it in ``group.derived``."""
    @wraps(fn)
    def cached(group: Group, *args):
        key = (fn, *args) if args else fn
        if key not in group.derived:
            group.derived[key] = fn(group, *args)
        return group.derived[key]
    return cached


@_per_group
def generators(group: Group) -> tuple[int, ...]:
    """A generating set S, each member the least element outside the closure of
    the identity under right multiplication by the members before it.

    For a group each closure is a subgroup, and each new member at least doubles
    it, so |S| <= log2 |G|.  Only the Latin-square property is used, so
    ``_check_table`` can take S before it knows that the table is associative.
    """
    mult = group.mult
    reached = [False] * group.order
    reached[0] = True
    closure = [0]
    gens: list[int] = []
    for g in range(group.order):
        if reached[g]:
            continue
        gens.append(g)
        # the old closure is closed under the old members: it needs only g
        old, i = len(closure), 0
        while i < len(closure):
            row = mult[closure[i]]
            for s in (gens if i >= old else (g,)):
                y = row[s]
                if not reached[y]:
                    reached[y] = True
                    closure.append(y)
            i += 1
    return tuple(gens)


@_per_group
def conjugacy_classes(group: Group) -> ConjugacyData:
    n = group.order
    mult, inv = group.mult, group.inv
    class_id = [-1] * n
    classes = []
    for g in range(n):
        if class_id[g] >= 0:
            continue
        orbit = sorted({mult[mult[x][g]][inv[x]] for x in range(n)})
        cid = len(classes)
        for y in orbit:
            class_id[y] = cid
        classes.append(tuple(orbit))
    order_key = sorted(range(len(classes)), key=lambda c: (len(classes[c]), classes[c][0]))
    classes = [classes[c] for c in order_key]
    class_of = [-1] * n
    for cid, cls in enumerate(classes):
        for y in cls:
            class_of[y] = cid
    reps = tuple(cls[0] for cls in classes)
    class_inverse = tuple(class_of[inv[rep]] for rep in reps)
    return ConjugacyData(
        classes=tuple(classes),
        class_of=tuple(class_of),
        class_reps=reps,
        class_inverse=class_inverse,
    )


@_per_group
def exponent(group: Group) -> int:
    value = 1
    for rep in conjugacy_classes(group).class_reps:
        value = lcm(value, group.element_order(rep))
    return value


def square_root_count(group: Group) -> int:
    """Number of g with g*g = identity, the identity included."""
    return sum(1 for g in range(group.order) if group.mult[g][g] == 0)


@_per_group
def sign_characters(group: Group) -> tuple[tuple[int, ...], ...]:
    """All homomorphisms G -> {1, -1} as coefficient tuples, trivial one first.

    Each kills K = <g^2>; G/K has exponent 2, so it is abelian, and mask[g]
    holds the F2 coordinates of gK on the cosets of least elements.
    """
    n, mult = group.order, group.mult
    squares = {mult[g][g] for g in range(n)}
    mask = {0: 0}
    queue = [0]
    for x in queue:  # squares are inverse-closed: right closure is K
        for y in (mult[x][s] for s in squares):
            if y not in mask:
                mask[y] = 0
                queue.append(y)
    bits = 0
    for g in range(n):
        if g not in mask:
            for x, m in list(mask.items()):
                mask[mult[x][g]] = m | 1 << bits
            bits += 1
    return tuple(
        tuple(-1 if bin(p & mask[g]).count("1") % 2 else 1 for g in range(n))
        for p in range(1 << bits)
    )
