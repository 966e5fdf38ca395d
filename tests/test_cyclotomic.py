from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import Cyclotomic, cyclotomic_power, embed
from skewlie import SpecError, build_group, character_table
from skewlie.catalog import catalog_groups
from skewlie.cyclotomic import (
    cyclotomic_polynomial,
    euler_phi,
    power_basis_table,
    ramanujan_sums,
    reduce_root_vector,
    twist_root_vector,
    value_text,
)
from test_golden import MAX_ORDER, WIDE_CHARTAB


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squared_is_minus_one():
    z = Cyclotomic.root(4)
    assert z * z == Cyclotomic.rational(4, -1)


def test_zeta3_plus_conjugate_is_minus_one():
    z = Cyclotomic.root(3)
    assert z + z * z == Cyclotomic.rational(3, -1)


def test_zeta12_fourth_power_embeds_zeta3():
    # Phi_12 = x^4 - x^2 + 1, so x^4 reduces to x^2 - 1 in the power basis
    z12 = Cyclotomic.root(12)
    fourth = cyclotomic_power(z12, 4)
    assert fourth.coeffs == (Fraction(-1), Fraction(0), Fraction(1), Fraction(0))
    assert fourth == embed(Cyclotomic.root(3), 12)


def test_root_power_wraps_at_conductor():
    for e in (1, 2, 3, 4, 6, 8, 12):
        assert cyclotomic_power(Cyclotomic.root(e), e) == Cyclotomic.one(e)


def test_minimal_polynomial_vanishes():
    for e in (3, 4, 5, 8, 12):
        z = Cyclotomic.root(e)
        poly = cyclotomic_polynomial(e)
        acc = Cyclotomic.zero(e)
        for k, c in enumerate(poly):
            acc = acc + cyclotomic_power(z, k).scale(c)
        assert not acc


def test_conductor_mismatch_raises():
    with pytest.raises(SpecError):
        Cyclotomic.root(3) * Cyclotomic.root(4)


def test_conductor_one_and_two_behave_rationally():
    for e in (1, 2):
        a = Cyclotomic.rational(e, Fraction(3, 4))
        b = Cyclotomic.rational(e, Fraction(-2, 5))
        assert (a * b).rational_value() == Fraction(3, 4) * Fraction(-2, 5)
        assert (a + b).rational_value() == Fraction(3, 4) + Fraction(-2, 5)
    assert Cyclotomic.root(2).rational_value() == -1


def small_cyclo(e):
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=euler_phi(e),
        max_size=euler_phi(e),
    ).map(lambda coeffs: Cyclotomic(e, coeffs))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(
    lambda e: st.tuples(small_cyclo(e), small_cyclo(e), small_cyclo(e))
))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(
    lambda e: st.tuples(st.just(e), small_cyclo(e), small_cyclo(e))
))
def test_galois_is_ring_map(args):
    e, a, b = args
    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)


def test_galois_identity_and_composition():
    e = 12
    a = Cyclotomic(e, [1, 2, Fraction(1, 3), -1])
    assert a.galois(1) == a
    for k1 in (5, 7, 11):
        for k2 in (5, 7, 11):
            assert a.galois(k2).galois(k1) == a.galois((k1 * k2) % e)


def test_conjugation_fixes_rationals():
    for e in (1, 2, 3, 8):
        a = Cyclotomic.rational(e, Fraction(7, 2))
        assert a.conjugate() == a


def test_galois_rejects_non_coprime():
    with pytest.raises(SpecError):
        Cyclotomic.root(4).galois(2)


def test_is_rational():
    assert Cyclotomic.rational(5, 3).is_rational()
    assert not Cyclotomic.root(5).is_rational()


@pytest.fixture(scope="module")
def chartab_values():
    """(conductor, root vector) of every distinct value of the tables whose text
    ``chartab`` the golden digests freeze."""
    groups = catalog_groups(max_order=MAX_ORDER) + [build_group(spec) for spec in WIDE_CHARTAB]
    tables = [character_table(g) for g in groups]
    return sorted({(t.conductor, mv) for t in tables for mv in chain.from_iterable(t.root_mults)})


def test_value_text_matches_the_field_oracle(chartab_values):
    assert len(chartab_values) > 500
    for e, mv in chartab_values:
        assert value_text(e, mv) == str(Cyclotomic.from_root_vector(e, mv)), (e, mv)


def test_root_vector_twist_matches_the_field_automorphism(chartab_values):
    for e, mv in chartab_values:
        z = Cyclotomic.from_root_vector(e, mv)
        for k in range(1, e + 1):
            if gcd(k, e) == 1:
                twisted = reduce_root_vector(e, twist_root_vector(mv, k, e))
                assert twisted == list(z.galois(k).coeffs), (e, mv, k)


def test_power_basis_table_cache_is_bounded():
    """The tables live as long as the process, and one at a conductor near 2000
    holds tens of MB: the cache keeps a fixed few however many conductors are read,
    and a table built again after it left the cache is the same table."""
    bound = power_basis_table.cache_info().maxsize
    assert bound is not None and bound <= 16
    first = power_basis_table(60)
    for e in range(1, 200):
        power_basis_table(e)
        assert power_basis_table.cache_info().currsize <= bound
    assert power_basis_table(60) == first
    assert reduce_root_vector(60, [1] * 60) == [0] * euler_phi(60)


def test_ramanujan_sums_are_the_reduced_sums_of_the_twists():
    """c_o(m) is the rational value of the sum of the twists of zeta_o^m by the units mod o."""
    for o in range(1, 61):
        for m in range(o):
            twists = [twist_root_vector(tuple(int(t == m) for t in range(o)), k, o)
                      for k in range(1, o + 1) if gcd(k, o) == 1]
            total = reduce_root_vector(o, [sum(col) for col in zip(*twists)])
            assert total == [ramanujan_sums(o)[m]] + [0] * (euler_phi(o) - 1), (o, m)
