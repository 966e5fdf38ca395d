import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlie import (
    Involution,
    SpecError,
    build_group,
    character_table,
    class_structure_constants,
    classify_components,
    component_skew_dim,
    conjugacy_classes,
    decomposition_report,
    exponent,
    find_dixon_prime,
    galois_orbits,
    indicator_report,
    rational_idempotents,
    sigma_action_on_components,
    sign_characters,
    skew_space,
    table_orthogonality,
)
from skewlie.catalog import (
    builtin_involutions,
    c3c3_swap_involution,
    catalog_groups,
    klein_swap_involution,
    linear_fixtures,
    s3_conjugated_fixture,
)
from skewlie import wedderburn
from skewlie.errors import ComputationError
from skewlie.groups import direct_product, group_from_permutations
from skewlie.wedderburn import CentralIdempotent, check_dixon_prime, idempotent_axioms_hold

from oracle import (
    Cyclotomic,
    _rref_mod,
    _smallest_primitive_root,
    apply,
    center_kinds_by_every_class,
    convolve,
    cyclotomic_values,
    fraction_columns,
    galois_orbits_by_twists,
    idempotent_axioms_by_class_matrices,
    idempotent_axioms_by_convolution,
    idempotent_coeffs,
    indicators_by_rows,
    rational_components_by_class_algebra,
    rational_idempotents_by_sums,
    skew_dim_by_rank,
    structure_constants_by_products,
    table_by_kernels,
    table_orthogonality_by_pairs,
)

ORACLE_LIMIT = 24


def class_sum(group, cls):
    return [int(g in cls) for g in range(group.order)]


def test_structure_constants_trivial():
    g = build_group("cyclic:1")
    assert class_structure_constants(g) == [[[1]]]


def test_structure_constants_c2():
    g = build_group("cyclic:2")
    a = class_structure_constants(g)
    assert a[1][1] == [1, 0]  # C1*C1 = C0


def test_structure_constants_against_class_sum_oracle(s3, q8):
    for g in (s3, q8, build_group("alternating:4")):
        cd = conjugacy_classes(g)
        constants = class_structure_constants(g)
        for i, ci in enumerate(cd.classes):
            for j, cj in enumerate(cd.classes):
                product = convolve(g.mult, class_sum(g, ci), class_sum(g, cj))
                expected = [0] * g.order
                for k, ck in enumerate(cd.classes):
                    for x in ck:
                        expected[x] += constants[i][j][k]
                assert product == expected


def test_s3_transposition_class_square(s3):
    cd = conjugacy_classes(s3)
    sizes = cd.sizes()
    t = sizes.index(3)  # transpositions
    cyc = sizes.index(2)  # 3-cycles
    a = class_structure_constants(s3)
    assert a[t][t][0] == 3
    assert a[t][t][cyc] == 3
    assert a[t][t][t] == 0


def test_dixon_prime_bounds(q8, monkeypatch):
    p = find_dixon_prime(q8)
    assert p == 53  # smallest p = 1 mod 4 above 2*3*8 = 48
    monkeypatch.setattr(wedderburn, "DEFAULT_PRIME_BOUND", 50)
    with pytest.raises(SpecError):
        find_dixon_prime(q8)


def test_dixon_prime_override_is_capped_before_any_primality_test():
    c3 = build_group("cyclic:3")
    assert check_dixon_prime(c3, 99999931) == 99999931  # the largest usable prime
    with pytest.raises(SpecError, match="exceeds the Dixon prime bound"):
        check_dixon_prime(c3, 100000039)  # prime and 1 mod 3


def test_dixon_prime_override_names_the_first_failing_condition():
    """The bound, then primality (below 2 too), then 1 mod e, then the threshold."""
    c3 = build_group("cyclic:3")
    for p, message in [(-5, "is not prime"), (0, "is not prime"), (1, "is not prime"),
                       (99999930, "is not prime"), (10000143, "is not prime"),
                       (5, "not 1 mod the group exponent 3"), (7, "is not larger than")]:
        with pytest.raises(SpecError, match=message):
            check_dixon_prime(c3, p)
    assert check_dixon_prime(c3, 10000141) == 10000141


def test_least_factor_and_primitive_root_match_trial_oracles():
    from skewlie.wedderburn import _least_factor, _primitive_root

    for n in range(2, 3000):
        assert _least_factor(n) == next(d for d in range(2, n + 1) if n % d == 0), n
    for p in (q for q in range(2, 800) if _least_factor(q) == q):
        assert _primitive_root(p) == _smallest_primitive_root(p), p


def test_prime_override_validation(q8):
    with pytest.raises(SpecError):
        character_table(q8, prime=49)  # not prime
    with pytest.raises(SpecError):
        character_table(q8, prime=59)  # not 1 mod 4
    with pytest.raises(SpecError):
        character_table(q8, prime=13)  # too small
    alt = character_table(q8, prime=97)
    assert alt.degrees == (1, 1, 1, 1, 2)
    assert cyclotomic_values(alt) == cyclotomic_values(character_table(q8))


def test_s3_table(s3_table, s3):
    assert s3_table.degrees == (1, 1, 2)
    assert all(v.is_rational() for row in cyclotomic_values(s3_table) for v in row)
    assert sum(d * d for d in s3_table.degrees) == s3.order
    assert table_orthogonality(s3_table)


def test_orthogonality_rejects_a_changed_value(c3_table, s3_table, q8_table):
    from dataclasses import replace

    for table in (c3_table, s3_table, q8_table):
        for i in range(len(table)):
            rows = [list(row) for row in table.root_mults]
            mv = list(rows[i][-1])
            mv[0] += 1  # one more copy of 1 in the value on the last class
            rows[i][-1] = tuple(mv)
            changed = replace(table, root_mults=tuple(tuple(row) for row in rows))
            assert not table_orthogonality(changed)


def test_orthogonality_rejects_a_dropped_row(c3_table, s3_table, q8_table):
    """The rows left still satisfy the row relations; only squareness catches it."""
    from dataclasses import replace

    for table in (c3_table, s3_table, q8_table, character_table(build_group("cyclic:5"))):
        for i in range(len(table)):
            rows = table.root_mults[:i] + table.root_mults[i + 1:]
            assert not table_orthogonality(replace(table, root_mults=rows))
        short = tuple(row[:-1] for row in table.root_mults)
        assert not table_orthogonality(replace(table, root_mults=short))


def test_c3_table_is_dft(c3_table):
    # three linear characters with values in {1, zeta3, zeta3^2}
    assert c3_table.degrees == (1, 1, 1)
    e = c3_table.conductor
    assert e == 3
    roots = {Cyclotomic.rational(3, 1), Cyclotomic.root(3), Cyclotomic.root(3, 2)}
    values = {v for row in cyclotomic_values(c3_table) for v in row}
    assert values == roots
    rows = {tuple(row) for row in cyclotomic_values(c3_table)}
    one, z, z2 = Cyclotomic.one(3), Cyclotomic.root(3), Cyclotomic.root(3, 2)
    assert rows == {(one, one, one), (one, z, z2), (one, z2, z)}


def test_q8_table_values(q8_table):
    assert q8_table.degrees == (1, 1, 1, 1, 2)
    # the class of a^2 is the other singleton class, index 1
    assert q8_table.classes.sizes() == (1, 1, 2, 2, 2)
    two_dim = cyclotomic_values(q8_table)[4]
    assert two_dim[0].rational_value() == 2
    assert two_dim[1].rational_value() == -2
    assert all(two_dim[j].rational_value() == 0 for j in (2, 3, 4))


def test_row_count_matches_class_count():
    for spec in ("cyclic:5", "dihedral:5", "symmetric:4", "alternating:4"):
        g = build_group(spec)
        t = character_table(g)
        assert len(t.degrees) == len(conjugacy_classes(g))


def test_orthogonality_via_cyclotomic_arithmetic(c3_table, s3_table, q8_table):
    # independent of the integer fast path: exact Cyclotomic products
    for table in (c3_table, s3_table, q8_table):
        e = table.conductor
        cd = table.classes
        n = table.group.order
        sizes = cd.sizes()
        values = cyclotomic_values(table)
        for i, row_i in enumerate(values):
            for j, row_j in enumerate(values):
                acc = Cyclotomic.zero(e)
                for k in range(len(cd)):
                    term = row_i[k] * row_j[cd.class_inverse[k]]
                    acc = acc + term.scale(sizes[k])
                expected = Cyclotomic.rational(e, n if i == j else 0)
                assert acc == expected


def test_galois_orbits_q8(q8_table):
    orbits = galois_orbits(q8_table)
    assert [o.members for o in orbits] == [(0,), (1,), (2,), (3,), (4,)]
    assert [o.dim_q for o in orbits] == [1, 1, 1, 1, 4]


def test_galois_orbits_c3(c3_table):
    orbits = galois_orbits(c3_table)
    assert sorted(o.field_degree for o in orbits) == [1, 2]
    assert sum(o.dim_q for o in orbits) == 3


def test_galois_orbits_trivial():
    t = character_table(build_group("cyclic:1"))
    orbits = galois_orbits(t)
    assert len(orbits) == 1
    assert orbits[0].dim_q == 1


def test_power_maps_at_minus_one_and_two():
    for g in catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE]:
        t = character_table(g)
        cd = t.classes
        assert t.power_map(-1) == cd.class_inverse, g.name
        assert t.power_map(2) == tuple(cd.class_of[g.mult[r][r]] for r in cd.class_reps), g.name
        assert t.power_map(1) == tuple(range(len(cd))) == t.power_map(exponent(g) + 1), g.name


def test_galois_orbits_reject_rows_not_closed_under_the_twists(c3_table):
    """C3 with the row (1, z^2, z) replaced by (1, z, z): the power map at 2 swaps
    the two nontrivial classes, and (1, z, z^2) read through it is no row, so
    the orbit oracle fails."""
    from dataclasses import replace

    one, z, z2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    rows = tuple((one, z, z) if row == (one, z2, z) else row for row in c3_table.root_mults)
    assert rows != c3_table.root_mults
    with pytest.raises(KeyError):
        galois_orbits_by_twists(replace(c3_table, root_mults=rows))


@pytest.mark.parametrize("spec", ["cyclic:120", "dihedral:30"])
def test_galois_action_twists_no_values(monkeypatch, spec):
    """Outside the table build the Galois action is the power maps on the classes."""
    import skewlie.cyclotomic as cyclotomic
    import skewlie.indicators as indicators
    import skewlie.wedderburn as wedderburn

    t = character_table(build_group(spec))
    calls = []
    for module in (cyclotomic, indicators, wedderburn):
        if hasattr(module, "twist_root_vector"):
            monkeypatch.setattr(module, "twist_root_vector", lambda *a: calls.append(a))
    assert galois_orbits(t) and indicator_report(t)
    assert calls == []


def test_c3_idempotents(c3, c3_table):
    idems = rational_idempotents(c3_table)
    avg = [Fraction(1, 3)] * 3
    elements = [idempotent_coeffs(ci) for ci in idems]
    assert avg in elements
    other = next(e for e in elements if e != avg)
    assert other == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]
    assert idempotent_axioms_hold(idems)
    for e in elements:
        assert convolve(c3.mult, e, e) == e


def test_q8_idempotent_dimensions(q8_table):
    orbits = galois_orbits(q8_table)
    idems = rational_idempotents(q8_table)
    assert idempotent_axioms_hold(idems)
    assert sorted(o.dim_q for o in orbits) == [1, 1, 1, 1, 4]


def test_trivial_group_idempotent():
    g = build_group("cyclic:1")
    t = character_table(g)
    idems = rational_idempotents(t)
    assert len(idems) == 1
    assert idempotent_coeffs(idems[0]) == [1]


def test_component_skew_dims_q8(q8, q8_table, canonical):
    inv = canonical(q8)
    orbits = galois_orbits(q8_table)
    idems = rational_idempotents(q8_table)
    dims = [component_skew_dim(ci, inv) for ci in idems]
    by_orbit_dim = sorted(zip((o.dim_q for o in orbits), dims))
    assert by_orbit_dim == [(1, 0), (1, 0), (1, 0), (1, 0), (4, 3)]


def test_component_skew_dim_c3(c3, c3_table, canonical):
    inv = canonical(c3)
    orbits = galois_orbits(c3_table)
    idems = rational_idempotents(c3_table)
    for orbit, ci in zip(orbits, idems):
        expected = 1 if orbit.field_degree == 2 else 0
        assert component_skew_dim(ci, inv) == expected


def test_a_skew_dimension_off_the_integers_is_printed_as_a_fraction(monkeypatch, c3, c3_table,
                                                                   canonical):
    """With the trace of sigma one too high, the Q(zeta_3) component of C3 reads
    (2*3*1 - 1) / (2*3) = 5/6, printed exactly, not as 0.8333333333333334."""
    trace = wedderburn._trace
    monkeypatch.setattr(wedderburn, "_trace",
                        lambda group, f, columns, at_reps: trace(group, f, columns, at_reps) + 1)
    ci = next(ci for o, ci in zip(galois_orbits(c3_table), rational_idempotents(c3_table))
              if o.field_degree == 2)
    with pytest.raises(ComputationError, match=r"^trace formula gives the skew dimension 5/6$"):
        component_skew_dim(ci, canonical(c3))


def test_sigma_action_identity_for_canonical(q8, q8_table, canonical):
    idems = rational_idempotents(q8_table)
    perm = sigma_action_on_components(idems, canonical(q8))
    assert perm == tuple(range(5))


def test_sigma_action_identity_for_abelian_canonical(canonical):
    g = build_group("cyclic:6")
    t = character_table(g)
    idems = rational_idempotents(t)
    assert sigma_action_on_components(idems, canonical(g)) == tuple(range(len(idems)))


def test_sigma_action_swaps_for_oriented_c4():
    g = build_group("cyclic:4")
    inv = Involution.oriented(g, [1, -1, 1, -1]).validate()
    t = character_table(g)
    idems = rational_idempotents(t)
    perm = sigma_action_on_components(idems, inv)
    assert sorted(perm) == list(range(len(idems)))
    assert perm != tuple(range(len(idems)))  # a genuine transposition occurs


def test_pair_swap_fixture_klein():
    g, inv = klein_swap_involution()
    t = character_table(g)
    idems = rational_idempotents(t)
    perm = sigma_action_on_components(idems, inv)
    swapped = [i for i, j in enumerate(perm) if j != i]
    assert len(swapped) == 2
    reports = classify_components(t, inv)
    pair = [c for c in reports if c.kind == "pair"]
    assert len(pair) == 1
    assert pair[0].type == "unitary"
    assert pair[0].skew_dim_q == 1  # n^2 [Z:Q] with n = 1, [Z:Q] = 1


def test_sigma_action_rejects_foreign_idempotents(q8, q8_table):
    """An image that matches no E_j raises.  Elements off the integer class
    coordinates have no class vector; the oracle rejects them in QG."""
    coeffs = [idempotent_coeffs(ci) for ci in q8_table.idempotents]
    noncentral = [row[:] for row in coeffs]
    noncentral[-1][max(conjugacy_classes(q8).classes, key=len)[-1]] += 1  # inside a class
    fractional = [row[:] for row in coeffs]
    fractional[-1][0] += Fraction(1, 2 * q8.order)
    assert idempotent_axioms_by_convolution(q8.mult, coeffs)
    for mutant in (noncentral, fractional):
        assert not idempotent_axioms_by_convolution(q8.mult, mutant)

    g, inv = klein_swap_involution()
    idems = list(character_table(g).idempotents)
    j = next(j for i, j in enumerate(sigma_action_on_components(idems, inv)) if j != i)
    with pytest.raises(ComputationError, match="matches no idempotent"):
        sigma_action_on_components(idems[:j] + idems[j + 1:], inv)


def test_pair_swap_fixture_c3c3():
    g, inv = c3c3_swap_involution()
    rep = decomposition_report(g, inv)
    kinds = sorted(c.kind for c in rep.components)
    assert "pair" in kinds and "second" in kinds
    pair = next(c for c in rep.components if c.kind == "pair")
    assert pair.skew_dim_q == pair.degree_n ** 2 * pair.center_degree == 2
    assert rep.checks["theorem2_identity"]


def test_classify_q8(q8, canonical):
    rep = decomposition_report(q8, canonical(q8))
    quaternion = next(c for c in rep.components if c.dim_q == 4)
    assert quaternion.kind == "first"
    assert quaternion.type == "symplectic"
    assert quaternion.degree_n == 2
    assert quaternion.skew_dim_q == 3  # n(n+1)/2 with n = 2
    ones = [c for c in rep.components if c.dim_q == 1]
    assert len(ones) == 4
    assert all(c.type == "orthogonal" and c.skew_dim_q == 0 for c in ones)
    assert rep.skew_dim == 3 == rep.sum_components
    assert rep.all_checks_pass


def test_classify_c3_second_kind(c3, canonical):
    rep = decomposition_report(c3, canonical(c3))
    field = next(c for c in rep.components if c.center_degree == 2)
    assert field.kind == "second"
    assert field.type == "unitary"
    assert field.skew_dim_q == 1
    assert rep.all_checks_pass


def test_trivial_component_always_orthogonal(s3, canonical):
    rep = decomposition_report(s3, canonical(s3))
    trivial = [c for c in rep.components if c.dim_q == 1 and c.skew_dim_q == 0]
    assert trivial
    assert all(c.type == "orthogonal" for c in trivial)


def test_decomposition_totals(s3, canonical):
    rep = decomposition_report(s3, canonical(s3))
    assert rep.skew_dim == 1  # (6 - 4) / 2
    assert rep.sum_components == 1
    two_dim = next(c for c in rep.components if c.degree_n == 2)
    assert two_dim.type == "orthogonal"
    g2 = build_group("cyclic:2")
    rep2 = decomposition_report(g2, Involution.canonical(g2).validate())
    assert rep2.skew_dim == 0 == rep2.sum_components


def test_report_matches_independent_skew_dim(q8, canonical):
    inv = canonical(q8)
    rep = decomposition_report(q8, inv)
    assert rep.skew_dim == skew_space(inv).skew_dim


def test_report_json_shape(q8, canonical):
    obj = decomposition_report(q8, canonical(q8)).to_json()
    assert obj["group"] == "dicyclic:2"
    assert obj["involution"] == {"kind": "canonical"}
    assert obj["totals"] == {"skew_dim": 3, "sum_components": 3}
    assert set(obj["checks"]) == {"theorem2_identity", "idempotent_axioms", "orthogonality"}
    assert all(
        set(c) == {"id", "dim_q", "center_degree", "degree_n", "kind", "type",
                   "skew_dim_q", "paired_with"}
        for c in obj["components"]
    )
    assert obj["indicators"]["eq1_identity"] is True


@pytest.fixture(scope="module")
def oracle_cases():
    """(group, table, involutions): catalog groups of order <= 24 under every
    built-in involution, and the linear fixtures."""
    cases = [(g, [inv for _, inv in builtin_involutions(g)])
             for g in catalog_groups(max_order=ORACLE_LIMIT)]
    cases += [(g, [inv]) for _, g, inv in linear_fixtures()]
    return [(g, character_table(g), invs) for g, invs in cases]


def test_skew_dims_match_rank_oracle(oracle_cases):
    """The trace formula against the rank of {e(g - sigma(g))}, swapped components included,
    and skew_space's integer rank against the same oracle at e = 1 and its canonical basis."""
    swapped = 0
    for g, t, invs in oracle_cases:
        one = [1] + [0] * (g.order - 1)
        for inv in invs:
            ssr = skew_space(inv)
            columns = fraction_columns(inv)
            assert (ssr.skew_dim == skew_dim_by_rank(g.mult, columns, one)
                    == len(ssr.skew_basis)), (g.name, inv.to_json())
            for ci in t.idempotents:
                e = idempotent_coeffs(ci)
                expected = skew_dim_by_rank(g.mult, columns, e)
                assert component_skew_dim(ci, inv) == expected, (g.name, inv.to_json())
                swapped += apply(inv, e) != e
    assert swapped > 0


def _fractions_built(monkeypatch, g, inv) -> int:
    """How many Fractions decomposition_report builds once the table is built and checked."""
    t = character_table(g)
    assert all(t.checks.values())
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    decomposition_report(g, inv, table=t)
    monkeypatch.undo()
    return len(built)


@pytest.mark.parametrize("kind", ["canonical", "oriented"])
def test_decomposition_builds_no_fraction_for_group_induced_sigma(monkeypatch, kind):
    """Once the table is built and checked, the report is integer arithmetic only."""
    g = build_group("dicyclic:6")
    if kind == "canonical":
        inv = Involution.canonical(g)
    else:
        inv = Involution.oriented(g, next(a for a in sign_characters(g) if -1 in a))
    assert _fractions_built(monkeypatch, g, inv) == 0


def test_decomposition_builds_no_fraction_for_linear_sigma(monkeypatch):
    """Nor for a linear sigma with d = 3: sigma on the center is read as d*sigma."""
    g, inv = s3_conjugated_fixture()
    assert inv.scaled_columns[0] == 3
    assert _fractions_built(monkeypatch, g, inv) == 0


RANDOM_ORDER_CAP = 60


@st.composite
def random_permutation_groups(draw):
    """Groups generated by 1-2 permutations of degree 3 to 5, times C2 or not, of order
    at most RANDOM_ORDER_CAP: a closure past the cap (S5) falls back to <first permutation>,
    and C2 is taken only below half the cap (so A5, but not A5 x C2)."""
    degree = draw(st.integers(3, 5))
    perms = draw(st.lists(st.permutations(range(degree)).map(list), min_size=1, max_size=2))
    try:
        g = group_from_permutations(perms, degree, max_order=RANDOM_ORDER_CAP)
    except SpecError:
        g = group_from_permutations(perms[:1], degree)
    if 2 * g.order <= RANDOM_ORDER_CAP and draw(st.booleans()):
        g = direct_product(g, build_group("cyclic:2"))
    return g


@settings(max_examples=40, deadline=None)
@given(random_permutation_groups())
def test_random_groups_against_oracles(g):
    """Every oriented involution of a random group: the report's checks, the integer rank
    of skew_space against the dense oracle, the idempotent axioms by convolution, and
    the center rows and kinds against all s rows; the class matrices and the table
    itself against their oracles."""
    cd = conjugacy_classes(g)
    constants = structure_constants_by_products(g.mult, cd.classes)
    assert class_structure_constants(g) == constants, g.name
    t = character_table(g)
    assert (t.degrees, t.root_mults) == table_by_kernels(g, cd, constants, t.conductor, t.prime)
    assert [o.members for o in t.orbits] == galois_orbits_by_twists(t), g.name
    assert idempotent_axioms_by_convolution(g.mult, [idempotent_coeffs(ci) for ci in t.idempotents])
    one = [1] + [0] * (g.order - 1)
    oriented = [Involution.oriented(g, alpha) for alpha in sign_characters(g)]
    for inv in oriented:
        report = decomposition_report(g, inv, table=t)
        assert all(report.checks.values()), (g.name, inv.to_json(), report.checks)
        assert report.skew_dim == skew_dim_by_rank(g.mult, fraction_columns(inv), one), g.name
    _assert_centers_match_oracle(g, t, constants, oriented)
    _assert_table_results_match_the_pairwise_oracles(g, t)


def _axiom_mutants(idems):
    """Idempotent lists that break an axiom, by name, as integer class vectors."""
    idems = list(idems)
    last = len(idems) - 1

    def replace(changes):
        return [CentralIdempotent(ci.group, changes.get(k, ci.coords), ci.orbit_index)
                for k, ci in enumerate(idems)]

    mutants = {
        "scaled by 2": replace({last: tuple(2 * x for x in idems[last].coords)}),
        "dropped": idems[:-1],
    }
    if len(idems) > 1:  # the same sum, but the products fail
        e0, e1 = idems[0].coords, idems[1].coords
        mutants["shifted"] = replace({0: tuple(2 * x for x in e0),
                                      1: tuple(b - a for a, b in zip(e0, e1))})
    return mutants


def test_idempotent_axioms_match_convolution_oracle(oracle_cases):
    for g, t, _ in oracle_cases:
        idems = list(t.idempotents)
        assert idempotent_axioms_hold(idems), g.name
        coeffs = [idempotent_coeffs(ci) for ci in idems]
        assert idempotent_axioms_by_convolution(g.mult, coeffs)
        for name, mutant in _axiom_mutants(idems).items():
            assert not idempotent_axioms_hold(mutant), (g.name, name)
            expanded = [idempotent_coeffs(ci) for ci in mutant]
            assert not idempotent_axioms_by_convolution(g.mult, expanded), (g.name, name)
        # off the class vectors, so for the oracle only: one coefficient inside the largest class
        coeffs[-1][max(conjugacy_classes(g).classes, key=len)[-1]] += 1
        assert not idempotent_axioms_by_convolution(g.mult, coeffs), g.name


def test_central_idempotent_is_one_int_per_class(q8, q8_table):
    """The class vector E = |G| e, read on every element of its class and divided by
    |G|, is an idempotent of QG; and nothing else is a class vector."""
    for ci in q8_table.idempotents:
        e = idempotent_coeffs(ci)
        assert len(e) == q8.order and convolve(q8.mult, e, e) == e
    coords = q8_table.idempotents[-1].coords
    for bad in (coords[:-1], coords + (0,), (Fraction(1, 2),) + coords[1:]):
        with pytest.raises(SpecError, match="one int per conjugacy class"):
            CentralIdempotent(q8, bad, 0)


def test_classification_checks_raise_on_mismatch(monkeypatch, q8, c3, canonical):
    """The skew-dimension formulas, the pair check and the center dimension are real checks."""
    import skewlie.wedderburn as wedderburn

    true_dim = wedderburn.component_skew_dim
    klein, swap = klein_swap_involution()
    pair = next(i for i, j in enumerate(sigma_action_on_components(
        character_table(klein).idempotents, swap)) if j != i)
    quaternion = next(i for i, o in enumerate(character_table(q8).orbits) if o.degree == 2)
    field = next(i for i, o in enumerate(character_table(c3).orbits) if o.field_degree == 2)
    cases = [(q8, canonical(q8), quaternion, f"component {quaternion}: first-kind skew dimension 4"),
             (c3, canonical(c3), field, f"component {field}: second-kind skew dimension 2"),
             (klein, swap, pair, f"component {pair}: pair skew dimension 2")]
    for g, inv, target, message in cases:
        monkeypatch.setattr(wedderburn, "component_skew_dim",
                            lambda ci, s, k=target: true_dim(ci, s) + (ci.orbit_index == k))
        with pytest.raises(ComputationError, match=message):
            classify_components(character_table(g), inv)
    monkeypatch.setattr(wedderburn, "component_skew_dim", true_dim)

    t = character_table(q8)
    idems = list(t.idempotents)
    summed = tuple(a + b for a, b in zip(idems[0].coords, idems[1].coords))
    merged = CentralIdempotent(q8, summed, 0)
    vars(t)["idempotents"] = (merged, *idems[1:])
    with pytest.raises(ComputationError, match="center basis has the wrong dimension"):
        classify_components(t, canonical(q8))


def test_kind_trace_off_both_values_raises(monkeypatch, q8, canonical):
    """The trace of sigma on a fixed center must be [Z:Q] or 0; one more than the true
    trace is neither, on component 0, the trivial character."""
    t = character_table(q8)
    assert t.center_dims  # the identity traces, read before the patch
    trace = wedderburn._trace
    monkeypatch.setattr(wedderburn, "_trace", lambda group, f, columns, at_reps:
                        trace(group, f, columns, at_reps) + at_reps)
    with pytest.raises(ComputationError, match="component 0: trace of sigma on the center"):
        classify_components(t, canonical(q8))


def test_traces_on_the_center_need_the_idempotent_axioms(q8):
    """With e_0 in place of e_1 every trace of the identity is |G| [Z:Q], but the e_i no
    longer sum to 1, so the traces are not taken as the dimensions of the centers."""
    t = character_table(q8)
    idems = t.idempotents
    vars(t)["idempotents"] = (idems[0], idems[0], *idems[2:])
    assert not t.checks["idempotent_axioms"]
    with pytest.raises(ComputationError, match="the idempotent axioms fail"):
        t.center_dims


def _assert_centers_match_oracle(g, t, constants, invs):
    """The dimension of each center by the trace of the identity is the rank of all s
    rows E K_C, which is [Z:Q], and every component gets the oracle's kind under each
    involution."""
    expected = center_kinds_by_every_class(g.mult, conjugacy_classes(g).classes, constants,
                                           [ci.coords for ci in t.idempotents],
                                           [fraction_columns(inv) for inv in invs])
    for i, orbit in enumerate(t.orbits):
        assert t.center_dims[i] == expected[i][0] == orbit.field_degree, (g.name, i)
    for k, inv in enumerate(invs):
        for c in classify_components(t, inv):
            assert c.kind == expected[c.component_id][1][k], (g.name, inv.to_json(), c)


def test_center_kinds_match_every_class_oracle():
    """On the catalog and ORACLE_WIDE, under every built-in involution."""
    for g in catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE]:
        constants = structure_constants_by_products(g.mult, conjugacy_classes(g).classes)
        _assert_centers_match_oracle(g, character_table(g), constants,
                                     [inv for _, inv in builtin_involutions(g)])


def test_center_dims_traced_once_per_table(monkeypatch):
    """Across every built-in involution of dicyclic:3, the trace of the identity on each
    component's center is taken once, on the first classification."""
    g = build_group("dicyclic:3")
    t = character_table(g)
    identity = [((x, 1),) for x in range(g.order)]
    traced = []
    trace = wedderburn._trace

    def counted(group, f, columns, at_reps):
        if list(columns) == identity:
            traced.append(f)
        return trace(group, f, columns, at_reps)

    monkeypatch.setattr(wedderburn, "_trace", counted)
    invs = [inv for _, inv in builtin_involutions(g)]
    assert len(invs) > 1
    for inv in invs:
        assert len(decomposition_report(g, inv, table=t).components) > 1
    assert traced == [ci.coords for ci in t.idempotents]


def test_sigma_on_class_sums_built_once_per_involution(monkeypatch):
    """decomposition_report reads sigma on the center from one build per involution."""
    from functools import cached_property

    built = []
    build = Involution.__dict__["class_sum_images"].func

    def counted(inv):
        built.append(inv)
        return build(inv)

    patched = cached_property(counted)
    patched.__set_name__(Involution, "class_sum_images")
    monkeypatch.setattr(Involution, "class_sum_images", patched)
    g = build_group("dicyclic:3")
    t = character_table(g)
    invs = [inv for _, inv in builtin_involutions(g)]
    for inv in invs:
        assert len(decomposition_report(g, inv, table=t).components) > 1
    assert built == invs


# with F21 = metacyclic:7,3,2,0 and the semidihedral group of order 32: second-kind
# components of degree 3 and of degree 2 over a center of degree 4
ORACLE_WIDE = ("cyclic:24", "abelian:3,3,3", "dicyclic:15", "dihedral:30",
               "metacyclic:7,3,2,0", "metacyclic:16,2,7,0")


def test_f21_components_do_not_depend_on_the_presentation():
    """The canonical components of metacyclic:7,3,2,0 and of F21 given as x -> x + 1
    and x -> 2x on 7 points agree as a multiset; among them, M_3(Q(sqrt -7)) of the
    second kind."""
    def components(group):
        report = decomposition_report(group, Involution.canonical(group)).to_json()
        return sorted(tuple((k, v) for k, v in c.items() if k != "id")
                      for c in report["components"])

    perms = build_group({"permutation_generators": [[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]],
                         "degree": 7})
    meta = build_group("metacyclic:7,3,2,0")
    assert perms.order == meta.order == 21
    assert components(perms) == components(meta)
    assert any(c["degree_n"] == 3 and c["center_degree"] == 2 and c["kind"] == "second"
               for c in map(dict, components(meta)))


def test_table_matches_kernel_oracle():
    """Cyclic-vector splitting and one lift per rational class against the
    charpoly-and-kernel split with a DFT on every class, at the same prime; and the
    class matrices, built from the class representatives, against all n^2 products."""
    groups = catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE]
    for g in groups:
        cd = conjugacy_classes(g)
        constants = structure_constants_by_products(g.mult, cd.classes)
        assert class_structure_constants(g) == constants, g.name
        t = character_table(g)
        assert t.prime == find_dixon_prime(g)
        expected = table_by_kernels(g, cd, constants, t.conductor, t.prime)
        assert (t.degrees, t.root_mults) == expected, g.name
        assert [o.members for o in galois_orbits(t)] == galois_orbits_by_twists(t), g.name


@pytest.mark.parametrize("spec, most", [("cyclic:240", 1), ("abelian:2,2,2,2,2,2,2,2", 8)])
def test_table_builds_only_the_class_matrices_it_splits_by(monkeypatch, spec, most):
    import skewlie.wedderburn as wedderburn

    built = []
    true_matrix = wedderburn.class_matrix
    monkeypatch.setattr(wedderburn, "class_matrix",
                        lambda group, i: built.append(i) or true_matrix(group, i))
    g = build_group(spec)
    t = character_table(g)
    assert len(t) == len(conjugacy_classes(g))
    assert 0 < len(set(built)) <= most


def test_table_keeps_one_root_vector_per_distinct_value():
    t = character_table(build_group("cyclic:120"))
    cells = [mv for row in t.root_mults for mv in row]
    assert len({id(mv) for mv in cells}) == len(set(cells)) == 120


def test_orthogonality_rejects_an_irrational_change():
    """A value that moves only an irrational coordinate: 1 -> 1 + zeta_5 on the
    identity class of the trivial character of C5 leaves the rational part of
    every inner product as it was, so only the irrational parts catch it."""
    from dataclasses import replace

    table = character_table(build_group("cyclic:5"))
    trivial = next(i for i, row in enumerate(table.root_mults)
                   if all(mv == (1, 0, 0, 0, 0) for mv in row))
    rows = [list(row) for row in table.root_mults]
    rows[trivial][0] = (1, 1, 0, 0, 0)
    changed = replace(table, root_mults=tuple(tuple(row) for row in rows))
    assert Cyclotomic.from_root_vector(5, rows[trivial][0]).coeffs == (1, 1, 0, 0)
    assert table_orthogonality(table)
    assert not table_orthogonality(changed)


def _sparse(matrix):
    """Rows of a dense matrix as their nonzero (k, entry) pairs, as class_matrix returns them."""
    return tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in matrix)


def _gathered(matrix):
    """The product by a dense matrix, as _split and _minimal_polynomial read it."""
    return wedderburn._gather(_sparse(matrix))


@pytest.mark.parametrize("spec, matrices, message", [
    # a Jordan block: e_0 is no eigenvector, and (x - 3)^2 has one root
    ("cyclic:2", [[[3, 0], [1, 3]]], "not split semisimple mod p"),
    # x^2 + 1 has no root mod 11
    ("cyclic:2", [[[0, 10], [1, 0]]], "not split semisimple mod p"),
    # scalar class matrices never split the first piece
    ("cyclic:3", [[[2, 0, 0], [0, 2, 0], [0, 0, 2]]] * 2, "ended with 1 pieces for 3 classes"),
    # two swaps that do not commute split e_0 into four pieces
    ("cyclic:3", [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
     "ended with 4 pieces for 3 classes"),
])
def test_splitting_guards(monkeypatch, spec, matrices, message):
    import skewlie.wedderburn as wedderburn

    g = build_group(spec)
    identity = [[int(i == j) for j in range(g.order)] for i in range(g.order)]
    products = tuple(_sparse(m) for m in [identity] + matrices)
    monkeypatch.setattr(wedderburn, "class_matrix", lambda group, i: products[i])
    with pytest.raises(ComputationError, match=message):
        character_table(g)


@pytest.mark.parametrize("spec", ["symmetric:3", "dicyclic:2", "alternating:5", "dihedral:15"])
def test_split_candidates_change_only_the_search_order(monkeypatch, spec):
    """The candidate roots |K_i| zeta_o^t against the plain scan of F_p on the same mu:
    the same children, in the same order.  The degree-2 characters of S3 and Q8 have
    eigenvalue 0, which is no candidate, on the first class split; every group here
    has such a split, so the scan past the candidates runs too."""
    import skewlie.wedderburn as wedderburn
    from skewlie.wedderburn import _minimal_polynomial, _split

    calls = []
    monkeypatch.setattr(wedderburn, "_split", lambda v, m, p, likely=():
                        calls.append((v, m, p, likely)) or _split(v, m, p, likely))
    character_table(build_group(spec))
    monkeypatch.undo()
    outside = 0
    for v, m, p, likely in calls:
        assert likely, spec
        assert _split(v, m, p, likely) == _split(v, m, p), spec
        _, mu = _minimal_polynomial(v, m, p)
        hits = sum(not sum(c * pow(lam, k, p) for k, c in enumerate(mu)) % p for lam in likely)
        outside += hits < len(mu) - 1
    assert outside, spec


def test_split_candidates_that_miss_repeat_or_sit_on_a_jordan_block():
    """Candidates that are not roots, or repeat, or cover every root, find the scan's
    roots and children; a Jordan block with its one root among the candidates is still
    not split semisimple."""
    from skewlie.wedderburn import _split

    p = 11
    m = _gathered([[2, 0, 0], [0, 5, 0], [0, 0, 7]])  # roots 2, 5, 7
    v = [1, 1, 1]
    expected = _split(v, m, p)
    assert len(expected) == 3
    for likely in ([2], [7], [7, 7, 7], [3, 4, 9], [9, 7, 9, 2, 5, 2], [7, 5, 2], list(range(p))[::-1]):
        assert _split(v, m, p, likely) == expected, likely
    jordan = _gathered([[3, 0], [1, 3]])  # (x - 3)^2 on e_0
    for likely in ([3], [3, 3], [3, 4]):
        with pytest.raises(ComputationError, match="not split semisimple mod p"):
            _split([1, 0], jordan, p, likely)


def _row_product(m, w, p):
    """m w mod p straight from the rows of m, each its nonzero (k, a)."""
    return [sum(a * w[k] for k, a in row) % p for row in m]


def _random_sparse(rng, s):
    """Rows of different lengths, empty ones included, with coefficients up to 40."""
    return tuple(tuple((k, rng.randrange(1, 41))
                       for k in sorted(rng.sample(range(s), rng.randrange(s + 1))))
                 for _ in range(s))


def test_gathered_product_matches_the_row_definition():
    """The layered product against the rows: random sparse matrices, and every
    class matrix of two groups whose longest rows are much longer than the rest."""
    rng = random.Random(7)
    for p in (11, 101, 99999989):
        for s in (1, 2, 5, 9, 16):
            m = _random_sparse(rng, s)
            w = [rng.randrange(p) for _ in range(s)]
            assert wedderburn._gather(m)(w, p) == _row_product(m, w, p), m
    for spec in ("product:alternating:5,dicyclic:4", "dihedral:30"):
        g = build_group(spec)
        p = find_dixon_prime(g)
        s = len(conjugacy_classes(g))
        for i in range(s):
            m = wedderburn.class_matrix(g, i)
            w = [rng.randrange(p) for _ in range(s)]
            assert wedderburn._gather(m)(w, p) == _row_product(m, w, p), (spec, i)


def test_split_children_match_the_list_combination():
    """Each child of a split, a packed combination of the Krylov vectors, against the
    same combination summed column by column, up to the prime 2^61 - 1, where a slot
    must hold deg (p - 1)^2 >= 2^122 and one 64-bit word would overflow."""
    rng = random.Random(13)
    for p in (11, 101, 99999989, 2**61 - 1):
        for s in (2, 4, 7):
            roots = rng.sample(range(p), s)
            m = [[roots[j] if j == k else 0 for k in range(s)] for j in range(s)]
            v = [rng.randrange(1, p) for _ in range(s)]
            krylov, mu = wedderburn._minimal_polynomial(v, _gathered(m), p)
            expected = []
            for lam in sorted(roots):
                q = [0] * len(krylov)
                acc = 0
                for k in range(len(krylov), 0, -1):
                    acc = (acc * lam + mu[k]) % p
                    q[k - 1] = acc
                expected.append([sum(c * w[j] for c, w in zip(q, krylov)) % p for j in range(s)])
            assert wedderburn._split(v, _gathered(m), p, roots) == expected


def test_linear_row_reads_discrete_logs():
    """A linear row is one one-hot value per class, shared across rows through
    ``ones``; a value with no discrete log, or one class moved to another root of
    unity, fails with a ComputationError."""
    g = build_group("cyclic:12")
    t = character_table(g)
    p, e = t.prime, t.conductor
    z = pow(wedderburn._primitive_root(p), (p - 1) // e, p)
    dlog = {pow(z, k, p): k for k in range(e)}
    checks = wedderburn._linear_checks(g)
    ones: dict = {}
    rows = []
    for row in t.root_mults:
        x_mod = [pow(z, mv.index(1), p) for mv in row]
        rows.append(wedderburn._linear_row(x_mod, e, dlog, checks, ones))
        assert rows[-1] == row
    assert len({id(mv) for row in rows for mv in row}) == len(ones) == e
    faithful = next(row for row in t.root_mults if row[1][1] == 1)  # chi(g) = zeta_12
    x_mod = [pow(z, mv.index(1), p) for mv in faithful]
    for c, value in [(5, pow(z, 6, p)), (0, z), (11, 1)]:
        changed = x_mod[:c] + [value] + x_mod[c + 1:]
        with pytest.raises(ComputationError, match="not multiplicative"):
            wedderburn._linear_row(changed, e, dlog, checks, {})
    no_root = next(x for x in range(2, p) if x not in dlog)
    with pytest.raises(ComputationError, match="no e-th root of unity"):
        wedderburn._linear_row(x_mod[:3] + [no_root] + x_mod[4:], e, dlog, checks, {})


def test_linear_rows_check_every_unit_on_each_representative():
    """On Q8 every class is rational: g^3 is conjugate to g.  The class function 1 on 1,
    -1 on -1 and i on the rest passes x(y^2) = x(y)^2 on every class and x(g^k) = x(g)^k
    for one unit k per class, but not x(g^3) = x(g)^3."""
    g = build_group("dicyclic:2")
    cd = conjugacy_classes(g)
    p, e = find_dixon_prime(g), 4
    z = pow(wedderburn._primitive_root(p), (p - 1) // e, p)
    dlog = {pow(z, k, p): k for k in range(e)}
    checks = wedderburn._linear_checks(g)
    square = {x: g.mult[x][x] for x in range(g.order)}
    x_mod = [1 if r == 0 else p - 1 if square[r] == 0 else z for r in cd.class_reps]
    with pytest.raises(ComputationError, match="not multiplicative"):
        wedderburn._linear_row(x_mod, e, dlog, checks, {})
    one_unit = tuple(zip(*[t for t in zip(*checks) if t[2] != 3]))  # drops g^3 = g only
    assert len(one_unit[0]) < len(checks[0])
    assert wedderburn._linear_row(x_mod, e, dlog, one_unit, {})


def test_linear_rows_check_the_prime_power_maps(monkeypatch):
    """On C4 the class function 1, i, 1, -i passes x(g^k) = x(g)^k for the units k = 1, 3
    and has degree 1 by the degree formula, but x(g^2) = 1 != x(g)^2: only the power
    map of the prime 2 tells it from a character, and the build must reject it there."""
    true_split = wedderburn._central_characters

    def faked(group, p, z):
        vectors = true_split(group, p, z)
        v = next(v for v in vectors if v[2] * pow(v[0], -1, p) % p == p - 1
                 and v[1] * pow(v[0], -1, p) % p != p - 1)  # a faithful character
        v[2] = v[0]
        return vectors

    monkeypatch.setattr(wedderburn, "_central_characters", faked)
    with pytest.raises(ComputationError, match="not multiplicative on a cyclic subgroup"):
        character_table(build_group("cyclic:4"))


def _dense_krylov(v, m, p):
    """v, mv, ..., m^s v mod p for a dense m, s = len(v)."""
    out = [[x % p for x in v]]
    for _ in range(len(v)):
        out.append([sum(a * x for a, x in zip(row, out[-1])) % p for row in m])
    return out


def _minimal_polynomial_cases():
    rng = random.Random(31)
    cases = [
        (11, [[2, 0, 0], [0, 5, 0], [0, 0, 7]], [0, 0, 0], [1]),  # the zero vector: mu = 1
        (11, [[2, 0, 0], [0, 5, 0], [0, 0, 7]], [0, 4, 0], [6, 1]),  # an eigenvector: x - 5
        (11, [[3, 0], [1, 3]], [1, 0], [9, 5, 1]),  # a Jordan block: (x - 3)^2
        (101, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [1, 0, 0], [100, 0, 0, 1]),  # x^3 - 1
    ]
    for p in (11, 101, 10000141):
        for s in (1, 2, 4, 7):
            m = [[rng.randrange(p) if rng.random() < 0.35 else 0 for _ in range(s)]
                 for _ in range(s)]
            cases.append((p, m, [rng.randrange(p) if rng.random() < 0.6 else 0
                                 for _ in range(s)], None))
    return cases


@pytest.mark.parametrize("p, m, v, expected", _minimal_polynomial_cases())
def test_minimal_polynomial_matches_the_rref_oracle(p, m, v, expected):
    """mu is monic, mu(m) v = 0 mod p, and deg mu is the rank mod p of the Krylov
    space by the oracle's RREF, so no polynomial of lower degree annihilates v."""
    from skewlie.wedderburn import _minimal_polynomial

    krylov, mu = _minimal_polynomial(v, _gathered(m), p)
    powers = _dense_krylov(v, m, p)
    deg = len(mu) - 1
    assert mu[-1] == 1 and all(0 <= c < p for c in mu)
    assert [[x % p for x in w] for w in krylov] == powers[:deg]
    assert all(sum(c * w[j] for c, w in zip(mu, powers)) % p == 0 for j in range(len(v)))
    assert deg == len(_rref_mod(powers, p)[1])
    if expected is not None:
        assert mu == expected


def test_minimal_polynomial_stops_after_s_krylov_vectors(monkeypatch):
    """A reduction that keeps a row whose first s entries are 0 as a pivot, here one that
    seeks pivots past ``width``, finds a new pivot in the tail of every augmented row;
    the search then raises after s + 1 rows instead of running forever."""
    from skewlie.wedderburn import _minimal_polynomial

    reduce_mod_p = wedderburn.reduce_mod_p
    calls = []

    def past_width(row, pivots, p, width):
        calls.append(width)
        assert len(calls) <= 50, "the Krylov search does not stop"
        return reduce_mod_p(row, pivots, p, len(row))

    monkeypatch.setattr(wedderburn, "reduce_mod_p", past_width)
    with pytest.raises(ComputationError, match="more than 3 Krylov vectors"):
        _minimal_polynomial([1, 1, 1], _gathered([[2, 0, 0], [0, 5, 0], [0, 0, 7]]), 11)
    assert len(calls) == 4


def test_lifting_guards():
    """The DFT lift of one class from chi mod p on the powers of its representative."""
    from skewlie.wedderburn import _lift

    p = 13
    dft = {2: (pow(2, p - 2, p), [[1, 1], [1, p - 1]])}  # order 2: zeta_2 = -1
    assert _lift([2, 0], 2, 2, p, dft) == [1, 1]
    assert _lift([1, p - 1], 1, 2, p, dft) == [0, 1]
    with pytest.raises(ComputationError, match="exceeds the degree"):
        _lift([2, 4], 2, 2, p, dft)  # 3 copies of 1 in a degree-2 value
    with pytest.raises(ComputationError, match="do not sum to the degree"):
        _lift([1, 1], 2, 2, p, dft)


@pytest.mark.parametrize("spec, change, message", [
    ("dicyclic:2", "perturb", "degree recovery failed"),
    ("dicyclic:2", "repeat", "degree squares do not sum to the group order"),
    ("cyclic:3", "duplicate", "character rows are not distinct"),  # every degree is 1
])
def test_table_guards(monkeypatch, spec, change, message):
    """The degree, the sum of squares and the distinctness checks on the recovered rows."""
    import skewlie.wedderburn as wedderburn

    true_split = wedderburn._central_characters

    def changed(group, p, z):
        vectors = true_split(group, p, z)
        if change == "perturb":
            vectors[0] = [(x + 1) % p for x in vectors[0]]
        elif change == "repeat":
            vectors = [vectors[0]] * len(vectors)
        else:
            vectors[0] = vectors[1]
        return vectors

    monkeypatch.setattr(wedderburn, "_central_characters", changed)
    with pytest.raises(ComputationError, match=message):
        character_table(build_group(spec))


@pytest.mark.parametrize("spec, linear, dft", [
    pytest.param(*case, id=case[0]) for case in [
        ("cyclic:60", 12, 0), ("dihedral:30", 4, 60), ("abelian:2,4,8", 28, 0),
        ("product:cyclic:5,dicyclic:4", 8, 48)]])
def test_one_lift_per_galois_orbit(monkeypatch, spec, linear, dft):
    """The build lifts one character per Galois orbit: a linear one as one row, any
    other by one DFT on each rational class; it reads the other rows of the orbit
    through the power maps.  The orbits it records are those of the exact rows."""
    rows, lifts = [], []
    true_row, true_lift = wedderburn._linear_row, wedderburn._lift
    monkeypatch.setattr(wedderburn, "_linear_row", lambda *a: rows.append(a) or true_row(*a))
    monkeypatch.setattr(wedderburn, "_lift", lambda *a: lifts.append(a) or true_lift(*a))
    g = build_group(spec)
    t = character_table(g)
    degrees = [o.degree for o in t.orbits]
    assert len(rows) == degrees.count(1) == linear
    assert len(lifts) == (len(degrees) - linear) * len(wedderburn._rational_classes(g)) == dft
    assert [o.members for o in t.orbits] == galois_orbits_by_twists(t)


@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:5", "alternating:5", "dicyclic:3"])
def test_a_wrong_power_map_fails_the_build(monkeypatch, spec):
    """Each row read through a power map must be the twist of an eigenvector mod
    p.  Every map below moves the identity class, as no power map does, so some
    twist of a lifted character matches no eigenvector."""
    def swapped(group):
        return tuple((pm[1], pm[0]) + pm[2:] for pm in true_maps(group))

    true_maps = wedderburn._unit_power_maps
    monkeypatch.setattr(wedderburn, "_unit_power_maps", swapped)
    with pytest.raises(ComputationError, match="Galois twist mod p matches no eigenvector"):
        character_table(build_group(spec))


# four metacyclic groups with irrational characters of degree 3, 5 and 3 and a center
# of degree 2 under a cyclic quotient of order 8
METACYCLIC_WIDE = ("metacyclic:13,3,3,0", "metacyclic:11,5,3,0", "metacyclic:9,3,4,0",
                   "metacyclic:3,8,2,0")


def _assert_table_results_match_the_pairwise_oracles(g, t):
    """The sums by Galois orbit and rational class against the routines they replaced:
    every pair of rows over every class, every member of every orbit, every class
    matrix, every row's indicator."""
    assert table_orthogonality(t) and table_orthogonality_by_pairs(t), g.name
    idems = t.idempotents
    assert [ci.coords for ci in idems] == [ci.coords for ci in rational_idempotents_by_sums(t)], g.name
    assert idempotent_axioms_hold(idems) and idempotent_axioms_by_class_matrices(idems), g.name
    assert t.indicators.indicators == indicators_by_rows(t), g.name


def test_table_results_match_the_pairwise_oracles():
    for g in catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE + METACYCLIC_WIDE]:
        _assert_table_results_match_the_pairwise_oracles(g, character_table(g))


def _components_match_the_class_algebra(g, t) -> bool:
    """r, each E_i on every element and each dim_q against the table-free oracle."""
    got = sorted((tuple(ci.coords[k] for k in t.classes.class_of), t.orbits[ci.orbit_index].dim_q)
                 for ci in t.idempotents)
    return got == rational_components_by_class_algebra(g.mult, g.inv)


def test_components_match_the_rational_class_algebra():
    for g in catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE + METACYCLIC_WIDE]:
        assert _components_match_the_class_algebra(g, character_table(g)), g.name


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:15", "metacyclic:13,3,3,0"])
def test_the_rational_class_algebra_rejects_merged_orbits(spec):
    """orbit_of with the first two orbits, both of linear characters, under one label."""
    from dataclasses import replace

    g = build_group(spec)
    t = character_table(g)
    first, second = (t.orbit_of[o.members[0]] for o in t.orbits[:2])
    assert t.orbits[0].degree == t.orbits[1].degree == 1
    merged = replace(t, orbit_of=tuple(first if x == second else x for x in t.orbit_of))
    assert len(merged.orbits) == len(t.orbits) - 1
    try:
        matches = _components_match_the_class_algebra(g, merged)
    except ComputationError:  # d |O| Tr(chi) / phi(e) is no integer
        matches = False
    assert not matches


def _with_rows(table, changes):
    """The table with the cells (row, class) -> value of ``changes``."""
    from dataclasses import replace

    rows = [list(row) for row in table.root_mults]
    for (i, j), value in changes.items():
        rows[i][j] = value
    return replace(table, root_mults=tuple(map(tuple, rows)))


@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:5", "cyclic:12", "metacyclic:7,3,2,0"])
def test_orthogonality_rejects_a_changed_value_in_a_row_after_the_first(spec):
    """A row of an orbit, not its first, takes the first row's value on one class where
    they differ: it is no longer the first row read through a unit power map."""
    t = character_table(build_group(spec))
    orbit = next(o for o in t.orbits if len(o.members) > 1)
    first, m = orbit.members[:2]
    j = next(j for j, (a, b) in enumerate(zip(t.root_mults[first], t.root_mults[m])) if a != b)
    changed = _with_rows(t, {(m, j): t.root_mults[first][j]})
    assert not table_orthogonality(changed)
    assert not table_orthogonality_by_pairs(changed)


@pytest.mark.parametrize("n", [5, 7, 11])
def test_orthogonality_rejects_a_broken_twin_in_a_first_row(n):
    """cyclic:n, n prime, with the value on a^c moved to a^(1/c mod n) in every row.  The
    move commutes with inversion, so the row relations still hold and the pairwise routine
    accepts the table; it turns the twist by k into the twist by 1/k, so each orbit is still
    its first row read through the unit power maps, (i), and every value still sits on the
    multiples of e/o, (iii).  The sums read chi(a) and psi(a^-1), which do not move.  But
    chi(a^2) is no longer the twist of chi(a) by 2: only the twist check (ii) sees it."""
    g = build_group(f"cyclic:{n}")
    t = character_table(g)
    cls = t.classes.class_of
    changed = _with_rows(t, {(i, cls[c]): row[cls[pow(c, -1, n)]]
                             for i, row in enumerate(t.root_mults) for c in range(1, n)})
    maps = wedderburn._unit_power_maps(g)
    for orbit in changed.orbits:
        first = changed.root_mults[orbit.members[0]]
        assert ({tuple(map(first.__getitem__, pm)) for pm in maps}
                == {changed.root_mults[m] for m in orbit.members})
    assert table_orthogonality_by_pairs(changed)
    assert not table_orthogonality(changed)


@pytest.mark.parametrize("spec", ["cyclic:6", "dihedral:6", "dicyclic:3"])
def test_orthogonality_rejects_a_value_off_the_multiples_of_e_over_o(spec):
    """1 + (1 + zeta_e + ... + zeta_e^(e-1)) = 1 on an involution class, for the trivial
    character: the same value, but not as eigenvalue multiplicities, which sit on the
    square roots of 1.  The pairwise routine reads values and accepts it; invariant (iii)
    rejects the cell as malformed."""
    g = build_group(spec)
    t = character_table(g)
    e = t.conductor
    c = next(powers[1] for powers, _ in wedderburn._rational_classes(g) if len(powers) == 2)
    one = (1,) + (0,) * (e - 1)
    trivial = t.root_mults.index((one,) * len(t))
    assert e > 2 and t.orbit_of.count(t.orbit_of[trivial]) == 1
    changed = _with_rows(t, {(trivial, c): (2,) + (1,) * (e - 1)})
    assert table_orthogonality_by_pairs(changed)
    assert not table_orthogonality(changed)


def test_orthogonality_rejects_a_change_only_the_stabilizer_sees():
    """dicyclic:2 = Q8: chi(i) = 0 -> 2i in the row of degree 2, one orbit of one row.
    The class of i is a rational class of one class, i^3 = i^-1 is conjugate to i, and
    2i sits on the multiples of e/o = 1: of the three invariants only the twist by the
    stabilizer, k = 3, sees the change, and so do the sums."""
    g = build_group("dicyclic:2")
    t = character_table(g)
    row = t.orbits[-1].members[0]
    assert t.degrees[row] == 2 and t.conductor == 4
    c = next(powers[1] for powers, twins in wedderburn._rational_classes(g)
             if len(powers) == 4 and len(twins) == 1)
    assert t.root_mults[row][c] == (0, 1, 0, 1)  # i + i^3 = 0
    changed = _with_rows(t, {(row, c): (0, 2, 0, 0)})
    assert table_orthogonality(t)
    assert not table_orthogonality(changed)


@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:5", "cyclic:12", "metacyclic:7,3,2,0"])
def test_idempotent_axioms_reject_a_change_inside_a_rational_class(spec):
    """E_0 + 1 and E_1 - 1 on a second class of a rational class: the sum is kept, and E_0
    and E_1 are no longer constant on that rational class."""
    g = build_group(spec)
    idems = list(character_table(g).idempotents)
    c = next(cls for _, twins in wedderburn._rational_classes(g) if len(twins) > 1
             for cls, _ in twins[1:])
    shifted = [CentralIdempotent(g, tuple(x + (k == c) * (1 if i == 0 else -1 if i == 1 else 0)
                                          for k, x in enumerate(ci.coords)), ci.orbit_index)
               for i, ci in enumerate(idems)]
    assert idempotent_axioms_hold(idems)
    assert not idempotent_axioms_hold(shifted)
    assert not idempotent_axioms_by_class_matrices(shifted)


def test_idempotent_axioms_reject_a_class_function_off_the_rational_classes():
    """cyclic:5 with 5 moved from the class of a^4 to that of a^2 in E_0, and back in E_1:
    the sum is kept, and E_i^2 = |G| E_i still holds at the one element of each rational
    class where the check reads it, so only the check that each E_i is constant on the
    rational classes sees the change."""
    g = build_group("cyclic:5")
    cd = conjugacy_classes(g)
    idems = list(character_table(g).idempotents)
    move = [0] * len(cd)
    move[cd.class_of[2]], move[cd.class_of[4]] = 5, -5
    shifted = [CentralIdempotent(g, tuple(x + sign * y for x, y in zip(ci.coords, move)), k)
               for k, (ci, sign) in enumerate(zip(idems, (1, -1)))]
    read = [cd.class_reps[twins[0][0]] for _, twins in wedderburn._rational_classes(g)]
    for e in map(idempotent_coeffs, shifted):
        square = convolve(g.mult, e, e)
        assert [square[z] for z in read] == [e[z] for z in read]
        assert square != e
    assert not idempotent_axioms_hold(shifted)
    assert not idempotent_axioms_by_class_matrices(shifted)


@pytest.mark.parametrize("spec", ["cyclic:30", "dihedral:24"])
def test_decompositions_build_no_class_matrix_the_table_did_not(spec):
    g = build_group(spec)
    t = character_table(g)

    def matrices():
        return {key for key in g.derived
                if isinstance(key, tuple) and key[0] is wedderburn.class_matrix.__wrapped__}

    built = matrices()
    for _, inv in builtin_involutions(g):
        assert decomposition_report(g, inv, table=t).all_checks_pass
    assert matrices() == built


@pytest.mark.parametrize("spec", ["cyclic:120", "dihedral:128"])
def test_table_results_peak_below_the_table_build(spec):
    """Under tracemalloc, the idempotents, indicators and checks of a table hold at most
    what the build of that table held at its peak."""
    import tracemalloc

    g = build_group(spec)
    tracemalloc.start()
    try:
        t = character_table(g)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert t.idempotents and t.indicators and all(t.checks.values())
        results = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert results <= build, (results, build)
