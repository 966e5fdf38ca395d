import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    apply,
    axiom_failure_by_sparse_sums,
    bracket,
    bracket_closed,
    convolve,
    dense_matrix,
    involution_axioms_hold,
    rank,
)

from skewlie import (
    AlgebraElement,
    ComputationError,
    Involution,
    SpecError,
    build_group,
    sign_characters,
    skew_space,
)
from skewlie import involutions
from skewlie.catalog import (algebra_unit_inverse, builtin_involutions, c3c3_swap_involution,
                             catalog_groups, conjugated_canonical_involution,
                             klein_swap_involution, klein_swap_linear_involution,
                             s3_conjugated_fixture)
from skewlie.groups import generators
from test_wedderburn import ORACLE_WIDE


def coeffs(g, *terms):
    """The coefficients of sum c g_i over the (i, c) terms, as Fractions."""
    out = [Fraction(0)] * g.order
    for i, c in terms:
        out[i] += c
    return out


def element(g, *terms):
    return AlgebraElement(g, coeffs(g, *terms))


def basis(g, i):
    return AlgebraElement.basis(g, i)


def test_basis_multiplication_matches_table(q8):
    for a in range(q8.order):
        for b in range(q8.order):
            assert basis(q8, a) * basis(q8, b) == basis(q8, q8.mult[a][b])


def test_zero_divisor_in_c2():
    g = build_group("cyclic:2")
    one_plus = element(g, (0, 1), (1, 1))
    one_minus = element(g, (0, 1), (1, -1))
    assert one_plus * one_minus == element(g)


def test_q8_product_c_equals_ab(q8):
    # with a at index 1 and b at index 4, c = ab sits at index 5
    assert q8.mult[1][4] == 5
    assert basis(q8, 1) * basis(q8, 4) == basis(q8, 5)


def test_group_mismatch_rejected(q8, s3):
    with pytest.raises(SpecError):
        basis(q8, 1) * basis(s3, 1)


def test_bracket_antisymmetry_and_bilinearity(q8):
    x = coeffs(q8, (1, 1), (4, 2))
    y = coeffs(q8, (5, 1), (2, Fraction(-1, 3)))
    z = coeffs(q8, (3, 1))
    assert not any(bracket(q8.mult, x, x))
    assert bracket(q8.mult, x, y) == [-c for c in bracket(q8.mult, y, x)]
    x_plus_2y = [a + 2 * b for a, b in zip(x, y)]
    assert bracket(q8.mult, x_plus_2y, z) == [
        a + 2 * b for a, b in zip(bracket(q8.mult, x, z), bracket(q8.mult, y, z))]


def test_bracket_vanishes_on_abelian():
    g = build_group("cyclic:6")
    rng = random.Random(1)
    for _ in range(5):
        x = [rng.randint(-3, 3) for _ in range(6)]
        y = [rng.randint(-3, 3) for _ in range(6)]
        assert not any(bracket(g.mult, x, y))


def test_q8_skew_part_is_not_commutative(q8, canonical):
    inv = canonical(q8)
    a = coeffs(q8, (1, 1), (q8.inv[1], -1))
    b = coeffs(q8, (4, 1), (q8.inv[4], -1))
    assert apply(inv, a) == [-c for c in a]
    assert any(bracket(q8.mult, a, b))


def test_canonical_apply_on_basis(q8, canonical):
    inv = canonical(q8)
    for g in range(q8.order):
        assert apply(inv, coeffs(q8, (g, 1))) == coeffs(q8, (q8.inv[g], 1))


def test_oriented_with_trivial_alpha_is_canonical(q8, canonical):
    inv = canonical(q8)
    oriented = Involution.oriented(q8, [1] * q8.order)
    for g in range(q8.order):
        assert apply(oriented, coeffs(q8, (g, 1))) == apply(inv, coeffs(q8, (g, 1)))


def test_oriented_on_cyclic4_is_valid():
    g = build_group("cyclic:4")
    inv = Involution.oriented(g, [1, -1, 1, -1])
    report = skew_space(inv)
    assert report.skew_dim == 1
    assert report.fixed_minus == 0
    assert report.skew_basis == [[0, 1, 0, 1]]


def test_broken_map_rejected(c3):
    # fixes the generator but sends its square elsewhere: not multiplicative
    with pytest.raises(SpecError):
        Involution.anti_automorphism(c3, [0, 1, 1])
    with pytest.raises(SpecError):
        Involution.anti_automorphism(c3, [1, 2, 0])


def test_alpha_must_be_homomorphism():
    g = build_group("cyclic:4")
    with pytest.raises(SpecError):
        Involution.oriented(g, [1, -1, -1, 1])
    with pytest.raises(SpecError):
        Involution.oriented(g, [1, 2, 1, 2])


def test_linear_matrix_must_be_involutive(c3):
    n = c3.order
    not_involutive = [[Fraction(2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    with pytest.raises(SpecError):
        Involution.linear(c3, not_involutive)


@pytest.mark.parametrize("bad", ["x", "1/0", "", None, float("nan"), float("inf"),
                                 [1], {"a": 1}, (), 1j, True, False])
def test_every_bad_linear_entry_raises_one_message(c3, bad):
    """Entries are parsed once per distinct value; a bad one, hashable or not, first
    or after good ones it does not equal, raises the same SpecError."""
    for i, j in ((0, 0), (2, 1)):
        matrix = [["1" if a == b else 0 for b in range(3)] for a in range(3)]
        matrix[i][j] = bad
        with pytest.raises(SpecError) as err:
            Involution.linear(c3, matrix)
        assert str(err.value) == "linear involution matrix entries must be rationals"


def test_bad_spec_rejected_at_construction(c3, q8):
    # no .validate() call: the axioms are checked when the spec is built
    with pytest.raises(SpecError):
        Involution.anti_automorphism(c3, [0, 1, 1])
    inv = Involution.canonical(q8)
    assert inv.validate() is inv
    with pytest.raises(AttributeError):
        inv.scaled_columns = Involution.canonical(c3).scaled_columns
    with pytest.raises(AttributeError):
        inv.kind = "linear"


def test_scaled_columns_must_be_in_lowest_terms(q8):
    """(k d, k d*sigma) passes the axioms for any k != 0 but misstates sigma, so
    only the least positive d is stored."""
    cols = Involution.canonical(q8).scaled_columns[1]
    for k in (2, -1):
        scaled = tuple(tuple((h, k * c) for h, c in col) for col in cols)
        with pytest.raises(SpecError, match="least common denominator"):
            Involution(q8, "canonical", (k, scaled))


def test_q8_skew_dim(q8, canonical):
    report = skew_space(canonical(q8))
    assert report.skew_dim == 3
    assert report.sym_dim == 5
    assert report.fixed_plus == 2  # 1 and a^2


def test_elementary_abelian_skew_is_zero(canonical):
    g = build_group("abelian:2,2")
    report = skew_space(canonical(g))
    assert report.skew_dim == 0
    assert report.sym_dim == 4


def test_involution_axioms_on_basis_pairs(q8, s3, canonical):
    for g in (q8, s3):
        inv = canonical(g)
        units = [coeffs(g, (x, 1)) for x in range(g.order)]
        images = [apply(inv, u) for u in units]
        for x in range(g.order):
            assert apply(inv, images[x]) == units[x]
            for y in range(g.order):
                lhs = apply(inv, units[g.mult[x][y]])
                assert lhs == convolve(g.mult, images[y], images[x])


def test_skew_sym_decomposition(q8, canonical):
    report = skew_space(canonical(q8))
    assert report.skew_dim + report.sym_dim == q8.order
    joint = report.skew_basis + report.sym_basis
    assert rank(joint) == q8.order


def test_fixed_point_dimension_formula():
    for spec, alphas in (("dicyclic:2", None), ("dihedral:4", None), ("cyclic:8", None)):
        g = build_group(spec)
        from skewlie import sign_characters
        for alpha in sign_characters(g):
            inv = Involution.oriented(g, alpha)
            report = skew_space(inv)
            expected = (g.order - report.fixed_plus - report.fixed_minus) // 2 + report.fixed_minus
            assert report.skew_dim == expected


def test_bracket_closure_of_skew_space(q8, s3, canonical):
    for g in (q8, s3, build_group("dihedral:4")):
        assert bracket_closed(g.mult, skew_space(canonical(g)).skew_basis), g.name
    # the check bites: with one row replaced by a symmetric element the span is not closed
    report = skew_space(canonical(q8))
    assert not bracket_closed(q8.mult, report.sym_basis[:1] + report.skew_basis[1:])


def test_jacobi_identity_on_sampled_triples(q8, canonical):
    report = skew_space(canonical(q8))
    rows = report.skew_basis
    rng = random.Random(0)
    for _ in range(100):
        x, y, z = (
            [sum(Fraction(rng.randint(-2, 2)) * r[i] for r in rows) for i in range(q8.order)]
            for _ in range(3)
        )
        terms = (
            bracket(q8.mult, x, bracket(q8.mult, y, z)),
            bracket(q8.mult, y, bracket(q8.mult, z, x)),
            bracket(q8.mult, z, bracket(q8.mult, x, y)),
        )
        assert not any(map(sum, zip(*terms)))


def test_linear_variant_eigenspace_split(s3):
    # canonical involution packaged as an explicit matrix
    n = s3.order
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for g in range(n):
        matrix[s3.inv[g]][g] = Fraction(1)
    linear = Involution.linear(s3, matrix)
    canonical_report = skew_space(Involution.canonical(s3))
    linear_report = skew_space(linear)
    assert linear_report.skew_basis == canonical_report.skew_basis
    assert linear_report.sym_basis == canonical_report.sym_basis
    assert linear_report.fixed_plus == canonical_report.fixed_plus


def test_involution_json_round_trip(q8):
    for obj in (
        {"kind": "canonical"},
        # alpha(a^i b^j) = (-1)^i, the sign character with alpha(a) = -1
        {"kind": "oriented", "alpha": [1, -1, 1, -1, 1, -1, 1, -1]},
        {"kind": "anti_automorphism", "map": list(q8.inv)},
    ):
        inv = Involution.from_json(q8, obj)
        assert inv.validate().to_json() == obj
    with pytest.raises(SpecError):
        Involution.from_json(q8, {"kind": "mystery"})


def test_linear_involution_json_round_trip(c3):
    """d, the integer columns of d*sigma, the JSON and sigma itself survive the round
    trip: d = 1 for inversion on C3 as a matrix, d = 3 for the conjugated S3 fixture."""
    n = c3.order
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for g in range(n):
        matrix[c3.inv[g]][g] = Fraction(1)
    _, fixture = s3_conjugated_fixture()
    assert fixture.scaled_columns[0] == 3
    for inv in (Involution.linear(c3, matrix), fixture):
        d, cols = inv.scaled_columns
        assert all(type(c) is int for col in cols for _, c in col)
        obj = inv.to_json()
        assert obj["kind"] == "linear"
        assert all(isinstance(x, str) for row in obj["matrix"] for x in row)
        rebuilt = Involution.from_json(inv.group, obj)
        assert rebuilt.scaled_columns == inv.scaled_columns
        assert rebuilt.to_json() == obj
        assert dense_matrix(rebuilt) == dense_matrix(inv)
        assert lcm(*(x.denominator for row in dense_matrix(inv) for x in row)) == d


def test_unit_inverse_with_rational_coefficients(s3):
    """(1 + c t)(1 - c t) = 1 - c^2 for a transposition t, so 1 + (2/3) t has the
    inverse (9/5)(1 - (2/3) t); and 1/2 + (1/3) g + (5/7) h on C3, and D4, have
    two-sided inverses."""
    t = next(g for g in range(1, s3.order) if s3.mult[g][g] == 0)
    u = element(s3, (0, 1), (t, Fraction(2, 3)))
    expected = element(s3, (0, Fraction(9, 5)), (t, Fraction(-6, 5)))
    assert algebra_unit_inverse(u) == expected
    for spec in ("cyclic:3", "dihedral:4"):
        g = build_group(spec)
        u = element(g, (0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(5, 7)))
        x = algebra_unit_inverse(u)
        assert u * x == x * u == basis(g, 0), spec
        assert any(c.denominator > 1 for c in x.coeffs), spec


def test_unit_inverse_rejects_zero_divisors_and_zero():
    """1 + r for r of order 6 in D6 divides 1 - r^6 = 0, as 1 + g does on C2, and
    1 - e for the trivial idempotent e has a kernel of dimension 1."""
    d6 = build_group("dihedral:6")
    r = next(g for g in range(d6.order) if d6.element_order(g) == 6)
    c2 = build_group("cyclic:2")
    one_minus_e = element(d6, (0, 1), *((g, Fraction(-1, d6.order)) for g in range(d6.order)))
    for u in (element(d6, (0, 1), (r, 1)), element(c2, (0, 1), (1, 1)),
              one_minus_e, element(d6)):
        with pytest.raises(ComputationError, match="not a unit"):
            algebra_unit_inverse(u)


SMALL_GROUPS = [build_group(spec) for spec in (
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:8",
    "dihedral:3", "dihedral:4", "dicyclic:2", "abelian:2,2", "abelian:2,2,2",
)]


def _signed_permutation(mapping, signs):
    n = len(mapping)
    m = [[Fraction(0)] * n for _ in range(n)]
    for g in range(n):
        m[mapping[g]][g] = Fraction(signs[g])
    return m


def _agrees_with_oracle(group, build, matrix):
    """Construction succeeds exactly when the dense oracle accepts the matrix."""
    expected = involution_axioms_hold(group.mult, matrix)
    try:
        build()
    except SpecError:
        assert not expected
    else:
        assert expected


@st.composite
def maps_and_signs(draw):
    group = draw(st.sampled_from(SMALL_GROUPS))
    n = group.order
    mapping = draw(st.one_of(
        st.sampled_from([list(group.inv), list(range(n))]),
        st.permutations(range(n)),
    ))
    signs = draw(st.one_of(
        st.sampled_from(sign_characters(group)),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
    ))
    return group, mapping, signs


@settings(max_examples=80, deadline=None)
@given(maps_and_signs())
def test_group_induced_construction_matches_dense_oracle(case):
    group, mapping, signs = case
    _agrees_with_oracle(group, lambda: Involution.anti_automorphism(group, mapping),
                        _signed_permutation(mapping, [1] * group.order))
    _agrees_with_oracle(group, lambda: Involution.oriented(group, signs),
                        _signed_permutation(group.inv, signs))
    signed = _signed_permutation(mapping, signs)
    _agrees_with_oracle(group, lambda: Involution.linear(group, signed), signed)


@st.composite
def perturbed_linear(draw):
    if draw(st.booleans()):
        # u = 5 + g + g^-1 + h + h^-1 is a unit fixed by the canonical
        # involution; on a nonabelian group it need not be central
        group = draw(st.sampled_from([g for g in SMALL_GROUPS if not g.is_abelian()]))
        terms = [(0, 5)]
        for g in draw(st.lists(st.integers(1, group.order - 1), min_size=2, max_size=2)):
            terms += [(g, 1), (group.inv[g], 1)]
        matrix = dense_matrix(conjugated_canonical_involution(group, element(group, *terms)))
    else:
        group = draw(st.sampled_from(SMALL_GROUPS))
        matrix = dense_matrix(draw(st.sampled_from(builtin_involutions(group)))[1])
    n = group.order
    change = draw(st.sampled_from(("keep", "perturb", "shear")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    t = draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2))))
    if change == "perturb":
        matrix[i][j] += t
    elif change == "shear" and i != j:
        # E M E^-1 with E = I + t*E_ij still squares to I, but it is an
        # anti-automorphism only if E commutes with M
        for row in matrix:
            row[j] -= t * row[i]
        matrix[i] = [a + t * b for a, b in zip(matrix[i], matrix[j])]
    return group, matrix


@settings(max_examples=80, deadline=None)
@given(perturbed_linear())
def test_linear_construction_matches_dense_oracle(case):
    group, matrix = case
    _agrees_with_oracle(group, lambda: Involution.linear(group, matrix), matrix)


def test_axioms_are_checked_on_every_generator_and_on_one():
    # alpha is multiplicative along the first generator of C2^3, not the others
    g = build_group("abelian:2,2,2")
    assert generators(g) == (1, 2, 4)
    alpha = [1, 1, 1, 1, 1, 1, -1, -1]
    assert not involution_axioms_hold(g.mult, _signed_permutation(g.inv, alpha))
    with pytest.raises(SpecError, match="anti-homomorphism"):
        Involution.oriented(g, alpha)
    # -1 on the trivial group squares to 1, and S is empty: only s = 1 sees it
    trivial = build_group("cyclic:1")
    assert not involution_axioms_hold(trivial.mult, [[-1]])
    with pytest.raises(SpecError, match="anti-homomorphism"):
        Involution.oriented(trivial, [-1])


def test_signed_permutations_pass_as_the_sparse_sum_reference_does():
    """Every built-in involution of the catalog and ORACLE_WIDE and the three
    group-induced fixtures is a signed permutation that the gathers accept, and the
    sparse-sum reference of the axioms finds no failure in it."""
    groups = catalog_groups() + [build_group(spec) for spec in ORACLE_WIDE]
    cases = [inv for group in groups for _, inv in builtin_involutions(group)]
    cases += [make()[1] for make in (klein_swap_involution, klein_swap_linear_involution,
                                     c3c3_swap_involution)]
    for inv in cases:
        assert involutions._signed_axioms_hold(inv.group, *inv.signed_permutation)
        assert axiom_failure_by_sparse_sums(inv.group, inv.scaled_columns) is None


@pytest.mark.parametrize("spec, kind, perm, signs, message", [
    # a 3-cycle on the transpositions of S3: not involutive
    ("symmetric:3", "anti_automorphism", [0, 2, 3, 1, 4, 5], None,
     "not an involution at element 1"),
    # -1 on two of the eight elements of C2^3: no sign character is -1 on fewer than four
    ("abelian:2,2,2", "oriented", None, [1, 1, 1, 1, 1, 1, -1, -1],
     "not an anti-homomorphism at pair (4,2)"),
    # the identity map of S3 squares to 1 but keeps the order of products
    ("symmetric:3", "anti_automorphism", [0, 1, 2, 3, 4, 5], None,
     "not an anti-homomorphism at pair (2,1)"),
    # the generator swap of C2 x C2 times a character it does not fix reverses
    # products, but sigma(sigma(a)) = -a: only the signs of the square see it
    ("abelian:2,2", "linear", [0, 2, 1, 3], [1, -1, 1, -1],
     "not an involution at element 1"),
])
def test_a_failing_signed_permutation_names_what_the_reference_names(spec, kind, perm, signs,
                                                                       message):
    """The gathers reject each mutant, and construction raises the sparse-sum
    reference's text, naming the same element g or pair (g, s)."""
    group = build_group(spec)
    perm = perm or list(group.inv)
    signs = signs or [1] * group.order
    scaled = (1, tuple(((k, e),) for k, e in zip(perm, signs)))
    assert not involutions._signed_axioms_hold(group, perm, signs)
    assert axiom_failure_by_sparse_sums(group, scaled) == message
    with pytest.raises(SpecError) as err:
        Involution(group, kind, scaled)
    assert str(err.value) == message
