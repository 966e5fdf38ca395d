import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    division_rref,
    in_integer_row_span,
    mat,
    matmul,
    rank_by_minors,
    row_space_equal,
    transpose,
)
from skewlie.linalg import (
    MODULUS,
    hnf,
    identity,
    nullspace_rows,
    rank,
    rank_mod_p_reaches,
    rref,
    rref_rows,
    solve,
)

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def small_matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(fractions_st, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_rref_identity():
    m = identity(3)
    out, rnk, pivots = rref(m)
    assert out == m
    assert rnk == 3
    assert pivots == [0, 1, 2]


def test_rref_dependent_rows():
    out, rnk, pivots = rref(mat([[1, 2], [2, 4]]))
    assert out == mat([[1, 2], [0, 0]])
    assert rnk == 1
    assert pivots == [0]


def test_rank_matches_minor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        m = mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                 for _ in range(rows)])
        assert rank(m) == rank_by_minors(m)


def test_rank_mod_p_reaches_matches_the_minor_oracle():
    """Entries near multiples of the prime, so that the rank mod p can fall below the
    rank over Q, against minors mod p, for every target."""
    rng = random.Random(11)
    p = MODULUS
    short = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.choice((0, 1, -2, 3, p, -p, 2 * p, p + 1)) for _ in range(cols)]
             for _ in range(rows)]
        k = rank_by_minors(m, p)
        assert k <= rank_by_minors(m)
        short += k < rank_by_minors(m)
        for target in range(min(rows, cols) + 2):
            assert rank_mod_p_reaches(m, target) == (k >= target)
    assert short


def test_rank_mod_p_reaches_reads_rows_only_until_the_target():
    def rows():
        yield [0, 0, 0]
        yield [3, 0, 6]
        yield [1, 0, 2]
        yield [0, MODULUS, 5]
        raise AssertionError("read a row past the target")

    assert rank_mod_p_reaches(rows(), 2)
    assert rank_mod_p_reaches(rows(), 0)
    assert rank_mod_p_reaches([], 0) and not rank_mod_p_reaches([], 1)
    assert not rank_mod_p_reaches([[MODULUS, 0], [0, 1]], 2)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_plus_nullity(m):
    m = mat(m)
    assert rank(m) + len(nullspace_rows(m)) == len(m[0])


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(m):
    out, _, _ = rref(mat(m))
    again, _, _ = rref(out)
    assert again == out


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_agrees_with_division_oracle(m):
    assert rref_rows(mat(m)) == division_rref(m)


def test_kernel_of_identity_is_empty():
    assert nullspace_rows(identity(3)) == []


def test_kernel_of_zero_matrix():
    z = mat([[0, 0, 0], [0, 0, 0]])
    assert nullspace_rows(z) == identity(3)


def test_kernel_single_constraint():
    m = mat([[1, 1, 0]])
    k = nullspace_rows(m)
    assert k == mat([[-1, 1, 0], [0, 0, 1]])
    assert matmul(m, transpose(k)) == [[Fraction(0), Fraction(0)]]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_annihilates(m):
    m = mat(m)
    k = nullspace_rows(m)
    assert len(k) + rank(m) == len(m[0])
    if k:
        prod = matmul(m, transpose(k))
        assert all(x == 0 for row in prod for x in row)


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 2], [3, 4]])
    x = solve(a, [Fraction(5), Fraction(11)])
    assert x == [Fraction(1), Fraction(2)]
    bad = solve(mat([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)])
    assert bad is None


def test_hnf_identity_and_diagonal():
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert hnf([[2, 0], [0, 2]]) == [[2, 0], [0, 2]]


def test_hnf_frozen_example():
    # elementary row reduction: (3,4) - 3*(1,2) = (0,-2); then (1,2) - (0,2) = (1,0)
    assert hnf([[1, 2], [3, 4]]) == [[1, 0], [0, 2]]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=5)
)
def test_hnf_preserves_integer_row_span(rows):
    h = hnf(rows)
    for row in rows:
        assert in_integer_row_span(h, row)
    for row in h:
        assert in_integer_row_span(hnf(rows), row)
    # Q-span agrees as well
    nonzero = [r for r in rows if any(r)]
    if nonzero:
        assert row_space_equal(mat(nonzero), mat(h))


def test_transpose_shape():
    assert transpose([[1, 2, 3]]) == [[1], [2], [3]]
