import gc
import random
import re
import tracemalloc
from itertools import chain, islice
from math import lcm

import pytest

from oracle import (
    associativity_failure,
    conjugation_orbits,
    element_orders,
    permutation_closure,
    sign_characters_by_generators,
    table_by_entries,
)
from skewlie import (
    Group,
    SpecError,
    build_group,
    conjugacy_classes,
    exponent,
    sign_characters,
    square_root_count,
)
from skewlie import groups
from skewlie.catalog import catalog_groups
from skewlie.groups import (
    abelian_group,
    cyclic_group,
    direct_product,
    generators,
    group_from_permutations,
    group_from_table,
)


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1
    assert exponent(g) == 1
    assert square_root_count(g) == 1
    assert len(conjugacy_classes(g)) == 1


def test_q8_square_roots(q8):
    # from the presentation a^2 = b^2 = (ab)^2 is the unique involution
    assert q8.order == 8
    assert square_root_count(q8) == 2


def test_permutation_generators_give_s3():
    gens = [[1, 0, 2], [1, 2, 0]]
    assert len(permutation_closure(gens, 3)) == 6  # oracle
    g = group_from_permutations(gens, 3)
    assert g.order == 6
    assert not g.is_abelian()


def test_is_abelian_matches_every_pair():
    """One class per element exactly when every pair commutes, on every catalog group
    of order <= 60: both answers occur."""
    seen = set()
    for g in catalog_groups(max_order=60):
        commute = all(g.mult[a][b] == g.mult[b][a] for a in range(g.order) for b in range(a))
        assert g.is_abelian() == commute, g.name
        seen.add(commute)
    assert seen == {True, False}


def test_builtin_family_orders():
    assert build_group("dihedral:4").order == 8
    assert build_group("dicyclic:3").order == 12
    assert build_group("symmetric:4").order == 24
    assert build_group("alternating:5").order == 60
    assert build_group("abelian:2,4").order == 8
    assert build_group("product:cyclic:2,dicyclic:2").order == 16
    assert build_group("product:abelian:2,2,cyclic:3").order == 12


def test_conjugacy_classes_against_oracle(q8, s3):
    for g in (q8, s3, build_group("alternating:4")):
        cd = conjugacy_classes(g)
        assert {frozenset(c) for c in cd.classes} == conjugation_orbits(g.mult, g.inv)
        assert sum(cd.sizes()) == g.order
        assert all(g.order % size == 0 for size in cd.sizes())
        # class_inverse is an involutive permutation
        ci = cd.class_inverse
        assert sorted(ci) == list(range(len(cd)))
        assert all(ci[ci[k]] == k for k in range(len(cd)))


def test_q8_class_sizes(q8):
    assert conjugacy_classes(q8).sizes() == (1, 1, 2, 2, 2)


def test_s3_class_sizes(s3):
    assert conjugacy_classes(s3).sizes() == (1, 2, 3)


def test_abelian_classes_are_singletons():
    g = build_group("cyclic:12")
    assert conjugacy_classes(g).sizes() == (1,) * 12


def test_exponent_against_oracle(q8, s3):
    for g in (q8, s3, build_group("cyclic:12"), build_group("dihedral:6")):
        assert exponent(g) == lcm(*element_orders(g.mult))
    assert exponent(q8) == 4
    assert exponent(s3) == 6


def test_square_root_counts(s3):
    assert square_root_count(s3) == 4  # identity plus three transpositions
    assert square_root_count(build_group("abelian:2,2,2")) == 8


def test_identity_is_index_zero():
    for spec in ("cyclic:5", "dihedral:3", "dicyclic:2", "symmetric:4"):
        g = build_group(spec)
        assert all(g.mult[0][x] == x == g.mult[x][0] for x in range(g.order))
        assert all(g.mult[x][g.inv[x]] == 0 == g.mult[g.inv[x]][x] for x in range(g.order))


def test_latin_square_property():
    g = build_group("dicyclic:4")
    n = g.order
    for row in g.mult:
        assert sorted(row) == list(range(n))
    for c in range(n):
        assert sorted(g.mult[r][c] for r in range(n)) == list(range(n))


LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_bad_tables_rejected():
    with pytest.raises(SpecError):
        group_from_table([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(SpecError, match=r"column 0 is not a permutation of 0\.\.1"):
        group_from_table([[0, 1], [0, 1]])  # rows are permutations, columns are not
    with pytest.raises(SpecError):
        group_from_table([[1, 0], [0, 1]])  # identity not at 0
    # -1 indexes a tuple from its end, onto 2; 3 lies past the end
    for table in ([[0, 1, 2], [1, -1, 0], [2, 0, 1]], [[0, 1, 2], [1, 3, 0], [2, 0, 1]]):
        with pytest.raises(SpecError, match=r"row 1 is not a permutation of 0\.\.2"):
            group_from_table(table)
    with pytest.raises(SpecError):
        # latin square, identity at 0, but not associative: (1*1)*2 != 1*(1*2)
        group_from_table(LOOP_5)


def test_order_cap_enforced():
    with pytest.raises(SpecError):
        build_group("cyclic:10", max_order=5)
    with pytest.raises(SpecError):
        group_from_permutations([[1, 2, 3, 4, 5, 6, 0]], 7, max_order=5)
    for spec in ("dihedral:3", "dicyclic:2", "abelian:2,3", "product:cyclic:2,cyclic:3"):
        with pytest.raises(SpecError, match="exceeds the configured cap 5"):
            build_group(spec, max_order=5)
    with pytest.raises(SpecError, match="table-group: order 6 exceeds the configured cap 5"):
        group_from_table(build_group("cyclic:6").mult, max_order=5)


@pytest.mark.parametrize("invariants", [[1], [5], [2, 2, 2], [3, 1, 4], [2, 4, 8], [6, 1, 2]])
def test_abelian_table_is_the_iterated_direct_product(invariants):
    """One table in the indices of C_m1 x C_m2 x ..., built and checked once."""
    expected = cyclic_group(invariants[0])
    for m in invariants[1:]:
        expected = direct_product(expected, cyclic_group(m))
    group = abelian_group(invariants)
    assert group.name == "abelian:" + ",".join(map(str, invariants))
    assert (group.mult, group.inv) == (expected.mult, expected.inv)


def test_product_table_is_built_and_checked_once(monkeypatch):
    """Each factor's table is checked, then the product's, with no partial product."""
    checked = []
    check_table = groups._check_table

    def counting(name, mult):
        checked.append(len(mult))
        return check_table(name, mult)

    monkeypatch.setattr(groups, "_check_table", counting)
    spec = "product:cyclic:2,cyclic:2,cyclic:2,cyclic:2,dihedral:32"
    assert build_group(spec).order == 1024
    assert checked == [2, 2, 2, 2, 64, 1024]


def test_product_table_is_componentwise():
    """Index (a, b, c) -> (a*|B| + b)*|C| + c, with the factors multiplied in place."""
    factors = [build_group(s) for s in ("cyclic:2", "symmetric:3", "dicyclic:2")]
    group = build_group("product:cyclic:2,symmetric:3,dicyclic:2")
    sizes = [f.order for f in factors]

    def digits(x):
        return [x // (sizes[1] * sizes[2]), x // sizes[2] % sizes[1], x % sizes[2]]

    for x in range(group.order):
        for y in range(group.order):
            a, b, c = (f.mult[u][v] for f, u, v in zip(factors, digits(x), digits(y)))
            assert group.mult[x][y] == (a * sizes[1] + b) * sizes[2] + c


def test_abelian_invariants_must_be_positive():
    for invariants in ([0], [2, 0, 3], [-4]):
        with pytest.raises(SpecError, match="cyclic group order must be positive"):
            abelian_group(invariants)
    with pytest.raises(SpecError, match="at least one invariant factor"):
        abelian_group([])


def test_group_json_round_trip(q8):
    obj = q8.to_json()
    rebuilt = build_group(obj)
    assert rebuilt.mult == q8.mult


def test_sign_characters_are_homomorphisms(q8, s3):
    for g in (q8, s3, build_group("cyclic:6"), build_group("alternating:4")):
        chars = sign_characters(g)
        assert chars[0] == (1,) * g.order
        for alpha in chars:
            for a in range(g.order):
                for b in range(g.order):
                    assert alpha[g.mult[a][b]] == alpha[a] * alpha[b]
        assert len(set(chars)) == len(chars)


def test_sign_character_counts(q8, s3):
    assert len(sign_characters(s3)) == 2
    assert len(sign_characters(q8)) == 4
    assert len(sign_characters(build_group("cyclic:5"))) == 1
    assert len(sign_characters(build_group("alternating:4"))) == 1
    assert len(sign_characters(build_group("abelian:2,2,2"))) == 8


def test_sign_characters_match_the_generator_oracle():
    for group in catalog_groups() + [build_group("abelian:2,2,2,2,2,2,2,2")]:
        chars = sign_characters(group)
        assert chars[0] == (1,) * group.order, group.name
        assert len(set(chars)) == len(chars), group.name
        assert set(chars) == sign_characters_by_generators(group.mult), group.name


def test_the_squares_generate_a_kernel_holding_every_commutator():
    """K = <g^2> holds every commutator, so G/K is elementary abelian and the
    sign characters are the 2^k characters of G/K, with common kernel K."""
    for group in catalog_groups():
        mult, inv, n = group.mult, group.inv, group.order
        kernel = _right_closure(mult, {mult[g][g] for g in range(n)})
        assert all(mult[mult[inv[a]][inv[b]]][mult[a][b]] in kernel
                   for a in range(n) for b in range(n)), group.name
        chars = sign_characters(group)
        assert len(chars) * len(kernel) == n, group.name
        assert kernel == {g for g in range(n) if all(a[g] == 1 for a in chars)}, group.name


def test_unknown_specs_rejected():
    with pytest.raises(SpecError):
        build_group("frobnicator:3")
    with pytest.raises(SpecError):
        build_group("symmetric:6")


def test_derived_data_dies_with_the_group():
    name = "cache-lifetime-probe"
    group = cyclic_group(6, name=name)
    conjugacy_classes(group)
    exponent(group)
    sign_characters(group)
    del group
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Group) and o.name == name]


def _right_closure(mult, gens):
    """The identity closed under right multiplication by gens."""
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = mult[x][s]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def test_generators_are_greedy_and_small():
    for group in catalog_groups() + [build_group("abelian:2,2,2,2,2,2,2,2")]:
        gens = generators(group)
        assert 2 ** len(gens) <= group.order, group.name
        for k, g in enumerate(gens):
            before = _right_closure(group.mult, gens[:k])
            assert g == min(set(range(group.order)) - before), group.name
        assert len(_right_closure(group.mult, gens)) == group.order, group.name
    assert generators(build_group("cyclic:1")) == ()
    assert generators(build_group("cyclic:12")) == (1,)
    assert len(generators(build_group("abelian:2,2,2"))) == 3


@pytest.mark.parametrize("spec", ["abelian:2,2,2", "abelian:5", "product:cyclic:2,cyclic:3",
                                  "product:cyclic:2,abelian:2,2,dihedral:3"])
def test_composite_groups_keep_the_checked_cache(spec):
    """The last table check names the group, so the generating set it cached stays."""
    group = build_group(spec)
    assert group.name == spec
    assert generators.__wrapped__ in group.derived


def _intercalates(mult):
    """Cells (r1, c1), (r2, c2) holding a and (r1, c2), (r2, c1) holding b, off
    row 0 and column 0: exchanging a and b there keeps a Latin square with
    identity 0."""
    n = len(mult)
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = mult[r2].index(mult[r1][c1])
                if c2 > c1 and mult[r1][c2] == mult[r2][c1]:
                    yield r1, r2, c1, c2


def _swapped(mult, cells):
    r1, r2, c1, c2 = cells
    table = [list(row) for row in mult]
    table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
    table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    return table


def _assert_named_triple_fails(table, message):
    x, a, y = map(int, re.search(r"non-associative table at \((\d+),(\d+),(\d+)\)",
                                 message).groups())
    assert table[table[x][a]][y] != table[x][table[a][y]]
    return x, a, y


def test_table_check_matches_associativity_oracle():
    tables = []
    for group in catalog_groups(max_order=16):
        tables.append(group.mult)
        tables += [_swapped(group.mult, cells) for cells in islice(_intercalates(group.mult), 3)]
    assert len(tables) > 2 * len(catalog_groups(max_order=16))
    for table in tables:
        failure = associativity_failure(table)
        try:
            group_from_table(table)
        except SpecError as exc:
            assert failure is not None
            if "non-associative" in str(exc):
                _assert_named_triple_fails(table, str(exc))
        else:
            assert failure is None


@pytest.mark.parametrize("spec", ["dihedral:65", "dicyclic:33", "product:symmetric:4,cyclic:6",
                                  "abelian:2,2,2,2,2,2,2,2"])
def test_large_non_associative_tables_rejected(spec):
    """Above order 128 a single swapped intercalate is caught, with no sampling."""
    mult = build_group(spec).mult
    cells = next(c for c in _intercalates(mult)
                 if 0 not in (mult[c[0]][c[2]], mult[c[0]][c[3]]))
    table = _swapped(mult, cells)
    with pytest.raises(SpecError, match="non-associative") as info:
        group_from_table(table)
    _assert_named_triple_fails(table, str(info.value))


@pytest.mark.parametrize("m", [3, 27])
def test_light_test_runs_past_a_passing_generator(m):
    """LOOP_5 x C_m, the C_m factor on the low index: the first generator lies
    in C_m and passes, so only a later member of S can fail."""
    table = [[LOOP_5[x // m][y // m] * m + (x + y) % m for y in range(5 * m)]
             for x in range(5 * m)]
    with pytest.raises(SpecError, match="non-associative") as info:
        group_from_table(table)
    assert _assert_named_triple_fails(table, str(info.value))[1] != 1


ABELIAN_INVARIANTS = ("1", "5", "2,2,2,2,2,2", "3,1,4", "2,4,8", "6,1,2")
# 2 to 5 factors, order-1 factors among them, one factor a permutation group
PRODUCTS = (
    "product:cyclic:2,dihedral:3",
    "product:alternating:4,cyclic:3",
    "product:dicyclic:2,abelian:2,3,cyclic:1",
    "product:cyclic:2,cyclic:3,cyclic:2,dicyclic:1",
    "product:cyclic:3,cyclic:1,dihedral:2,cyclic:2,cyclic:2",
)
BUILT_IN = (
    [f"cyclic:{n}" for n in range(1, 61)]
    + [f"dihedral:{n}" for n in range(1, 60)]
    + [f"dicyclic:{n}" for n in range(1, 40)]
    + [f"abelian:{a}" for a in ABELIAN_INVARIANTS]
    + list(PRODUCTS)
    + [f"symmetric:{n}" for n in range(1, 6)]
    + [f"alternating:{n}" for n in range(3, 6)]
)


def _random_permutation_specs():
    rng = random.Random(41)
    return [{"permutation_generators": [rng.sample(range(d), d) for _ in range(2)], "degree": d}
            for d in (4, 5, 6)]


def _assert_matches_the_entry_builder(spec):
    group = build_group(spec)
    table = table_by_entries(spec)
    assert group.mult == tuple(map(tuple, table)), spec
    assert group.inv == tuple(row.index(0) for row in table), spec
    if isinstance(spec, dict):
        assert group.name == f"perm-group:deg{spec['degree']}:order{len(table)}"
    else:
        assert group.name == spec
    return group


def test_builders_match_the_per_entry_builders():
    """mult, inv and name of every family against the builders that made one entry
    at a time, on the catalog's families and beyond."""
    orders = [_assert_matches_the_entry_builder(spec).order
              for spec in BUILT_IN + _random_permutation_specs()]
    assert max(orders[-3:]) > 24  # the random groups are not all tiny


def test_the_table_at_the_order_cap_matches_the_per_entry_builder():
    """dihedral:1000, with each of its 2000 values one int object in all 4 million entries."""
    group = _assert_matches_the_entry_builder("dihedral:1000")
    assert len(set(map(id, chain.from_iterable(group.mult)))) == group.order


@pytest.mark.parametrize("spec, message", [
    ("cyclic:0", "cyclic group order must be positive"),
    ("dihedral:0", "dihedral parameter must be positive"),
    ("dicyclic:-1", "dicyclic parameter must be positive"),
    ("cyclic:x", "bad group spec 'cyclic:x': invalid literal for int() with base 10: 'x'"),
    ("dicyclic:2.5", "bad group spec 'dicyclic:2.5': invalid literal for int() with base 10: '2.5'"),
    ("symmetric:0", "symmetric builtin supports 1 <= n <= 5"),
    ("alternating:6", "alternating builtin supports 3 <= n <= 5"),
    ("abelian:", "bad group spec 'abelian:': invalid literal for int() with base 10: ''"),
    ("abelian:2,0", "cyclic group order must be positive"),
    ("product:cyclic:2", "product spec needs at least two components"),
    ("product:cyclic:2,dihedral:0", "dihedral parameter must be positive"),
    ("frobnicator:3", "unknown group family 'frobnicator'"),
    ("cyclic:3000", "cyclic:3000: order 3000 exceeds the configured cap 2000"),
    ("dihedral:1001", "dihedral:1001: order 2002 exceeds the configured cap 2000"),
    ("dicyclic:501", "dicyclic:501: order 2004 exceeds the configured cap 2000"),
    ("product:dihedral:1000,cyclic:2",
     "product:dihedral:1000,cyclic:2: order 4000 exceeds the configured cap 2000"),
    ("abelian:2,2,2,2,2,2,2,2,2,2,2",
     "abelian:2,2,2,2,2,2,2,2,2,2,2: order 2048 exceeds the configured cap 2000"),
    ({"permutation_generators": [[0, 0]], "degree": 2},
     "generator [0, 0] is not a permutation of 0..1"),
    ({"permutation_generators": [[1, 2, 3, 4, 5, 6, 7, 8, 0], [1, 0, 2, 3, 4, 5, 6, 7, 8]],
      "degree": 9}, "permutation closure exceeds the cap 2000"),
    ({"mult_table": [[0, 1, 2], [1, -1, 0], [2, 0, 1]]},
     "table-group: row 1 is not a permutation of 0..2"),
    ({"mult_table": []}, "table-group: empty multiplication table"),
])
def test_bad_specs_keep_their_messages(spec, message):
    with pytest.raises(SpecError) as info:
        build_group(spec)
    assert str(info.value) == message


@pytest.mark.parametrize("spec", ["dihedral:500", "product:alternating:5,dicyclic:4"])
def test_building_a_table_holds_no_second_table(spec):
    """The peak while building is at most 1.1 times what the finished group keeps: rows
    are joined from slices and compared lazily, never collected twice."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        group = build_group(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order > 900
    assert peak - before <= 1.1 * (kept - before), (peak - before, kept - before)


METACYCLIC = ("7,3,2,0", "13,3,3,0", "11,5,3,0", "9,3,4,0", "16,2,7,0", "3,8,2,0")


@pytest.mark.parametrize("params", METACYCLIC + ("8,2,3,0", "8,2,5,0", "5,4,2,0", "4,2,3,2",
                                                 "1,6,5,0", "12,4,5,6"))
def test_metacyclic_tables_follow_the_product_rule(params):
    """a^i b^j a^t b^l = a^(i + t r^j) b^(j + l), with b^k = a^z, entry by entry."""
    m, k, _, _ = map(int, params.split(","))
    assert _assert_matches_the_entry_builder(f"metacyclic:{params}").order == m * k


def test_cyclic_dihedral_and_dicyclic_are_metacyclic():
    for n in range(1, 25):
        for family, params in (("cyclic", (n, 1, 1, 0)), ("dihedral", (n, 2, n - 1, 0)),
                               ("dicyclic", (2 * n, 2, 2 * n - 1, n))):
            meta = build_group("metacyclic:" + ",".join(map(str, params)))
            assert meta.mult == build_group(f"{family}:{n}").mult, (family, n)


@pytest.mark.parametrize("spec", ["metacyclic:7,3,3,0", "metacyclic:8,2,3,1", "metacyclic:0,2,1,0",
                                  "metacyclic:3,0,1,0", "metacyclic:-3,2,1,0", "metacyclic:6,2,2,0"])
def test_metacyclic_parameters_must_present_a_group(spec):
    """r^k = 1 and z(r - 1) = 0 mod m, with m, k >= 1: 3^3 = 6 mod 7, 1*(3 - 1) = 2 mod 8,
    and 2 is no unit mod 6."""
    with pytest.raises(SpecError, match=r"^metacyclic:m,k,r,z needs m, k >= 1, r\^k = 1 and "
                                        r"z\(r - 1\) = 0 mod m$"):
        build_group(spec)


def test_metacyclic_specs_are_read_whole_and_capped():
    with pytest.raises(SpecError, match="bad group spec 'metacyclic:7,3,2'"):
        build_group("metacyclic:7,3,2")
    with pytest.raises(SpecError, match="bad group spec 'metacyclic:7,3,2,0,1'"):
        build_group("metacyclic:7,3,2,0,1")
    with pytest.raises(SpecError, match="metacyclic:1000,3,1,0: order 3000 exceeds the configured"):
        build_group("metacyclic:1000,3,1,0")
    assert build_group("product:metacyclic:7,3,2,0,cyclic:2").order == 42
