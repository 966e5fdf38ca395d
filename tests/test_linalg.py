import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    division_rref,
    hnf,
    identity,
    in_integer_row_span,
    mat,
    nullspace_rows,
    over_pivots,
    rank_by_minors,
    row_space_equal,
    transpose,
)
from skewlie.linalg import (
    MODULUS,
    _echelon,
    null_space,
    pack,
    rank_mod_p_reaches,
    reduce_mod_p,
    row_basis,
    slot_words,
    unpack_mod,
)


def int_matrices(max_rows=6, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                           min_size=1, max_size=max_rows))


def over_l(space):
    """B / L as Fractions, for the (L, B) of null_space."""
    den, basis = space
    return [[Fraction(x, den) for x in row] for row in basis]


def _is_canonical(rows) -> bool:
    """Every row primitive, with a positive pivot, the pivots increasing."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    return (pivots == sorted(set(pivots)) and all(row[c] > 0 for c, row in zip(pivots, rows))
            and all(reduce(gcd, row, 0) == 1 for row in rows))


def test_rref_identity():
    """The RREF of the identity is itself, as row_basis and as the pivots of _echelon."""
    ones = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert row_basis(ones) == ones and mat(ones) == identity(3)
    assert sorted(_echelon(ones)) == [0, 1, 2]


def test_rref_dependent_rows():
    """A dependent row adds nothing; each RREF row (1, 3/2) is kept as (2, 3), and a
    negative pivot is flipped."""
    assert row_basis([[1, 2], [2, 4]]) == [[1, 2]]
    assert row_basis([[-2, -3], [4, 6]]) == [[2, 3]]
    assert row_basis([[0, -3, 6], [0, 0, 0]]) == [[0, 1, -2]]
    assert row_basis([[0, 0]]) == [] and row_basis([]) == []


def test_rank_matches_minor_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert len(_echelon(m)) == len(row_basis(m)) == rank_by_minors(m)


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


def test_reduce_mod_p_keeps_the_tail_past_a_shorter_pivot():
    """Rows longer than a pivot keep their tail, reduced mod p once; a pivot is sought
    among the first ``width`` entries only."""
    p = 11
    pivots = []
    assert reduce_mod_p(first := [2, 4, 1], pivots, p, 2)
    assert pivots == [(0, [1, 2, 6])] and first == [1, 2, 6]  # 2^-1 = 6 mod 11
    row = [3, 6, 0, 16]  # 3 * (1, 2) on the left; the tail is (0 - 3 * 6, 16) = (4, 5)
    assert not reduce_mod_p(row, pivots, p, 2)
    assert row == [0, 0, 4, 5] and len(pivots) == 1
    row = [-8, 27, -1, 7, 1]  # minus 3 * (1, 2, 6): (0, 10, 3, 7, 1) mod 11, over 10
    assert reduce_mod_p(row, pivots, p, 2)
    assert pivots[1] == (1, row) and row == [0, 1, 8, 4, 10]


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
@given(int_matrices())
def test_rank_plus_nullity(m):
    assert len(_echelon(m)) + len(null_space(m, len(m[0]))[1]) == len(m[0])


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_rref_idempotent(m):
    """The canonical basis of a row space is the canonical basis of its own span."""
    out = row_basis(m)
    assert row_basis(out) == out


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_rref_agrees_with_division_oracle(m):
    """row_basis is the division RREF, each row scaled to a primitive integer row."""
    out = row_basis(m)
    assert over_pivots(out) == division_rref(m)
    assert _is_canonical(out)


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.randoms(use_true_random=False))
def test_row_basis_reads_any_order_and_repeats_alike(m, rng):
    """Shuffled and duplicated streams of the same rows, some negated or scaled, give
    the same canonical basis, with every pivot positive."""
    scaled = [(rng.choice((-2, -1, 1, 3)), rng.choice(m)) for _ in range(rng.randint(0, 6))]
    stream = m + [[k * x for x in row] for k, row in scaled]
    rng.shuffle(stream)
    out = row_basis(iter(stream))
    assert out == row_basis(m)
    assert _is_canonical(out)


def test_kernel_of_identity_is_empty():
    assert null_space([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == (1, [])


def test_kernel_of_zero_matrix():
    ones = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert null_space([], 3) == (1, ones)
    assert null_space([[0, 0, 0], [0, 0, 0]], 3) == (1, ones)
    assert over_l(null_space([], 3)) == nullspace_rows(mat([[0, 0, 0]])) == identity(3)


def test_kernel_single_constraint():
    assert null_space([[1, 1, 0]], 3) == (1, [[-1, 1, 0], [0, 0, 1]])
    assert null_space([[2, 3, 0]], 3) == (2, [[-3, 2, 0], [0, 0, 2]])
    assert over_l(null_space([[2, 3, 0]], 3)) == nullspace_rows(mat([[2, 3, 0]]))


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_kernel_annihilates(m):
    """B / L is the kernel read off the division RREF, and m B^T = 0 in integers."""
    den, basis = null_space(m, len(m[0]))
    assert den > 0
    assert over_l((den, basis)) == nullspace_rows(mat(m))
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m for v in basis)


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.randoms(use_true_random=False))
def test_echelon_reads_any_order_and_repeats_alike(m, rng):
    """Shuffled and duplicated streams of the same rows give the same pivots, those of
    the RREF, the same B / L, and never more kept rows than columns."""
    n = len(m[0])
    stream = m + [rng.choice(m) for _ in range(rng.randint(0, 6))]
    rng.shuffle(stream)
    kept = _echelon(iter(stream))
    assert len(kept) <= n
    reduced = division_rref(m)
    assert sorted(kept) == [next(c for c, x in enumerate(row) if x) for row in reduced]
    assert [[Fraction(x, kept[c][c]) for x in kept[c]] for c in sorted(kept)] == reduced
    assert over_l(null_space(iter(stream), n)) == over_l(null_space(m, n))


def test_solve_consistent_and_inconsistent():
    """a x = b is solved by the kernel of [a | -b]: a vector with last entry t != 0 gives
    x = v[:n] / t; on an inconsistent system the last entry is 0 on the whole kernel."""
    den, basis = null_space([[1, 2, -5], [3, 4, -11]], 3)
    assert len(basis) == 1 and basis[0][2] == den
    assert [Fraction(x, den) for x in basis[0][:2]] == [1, 2]
    _, basis = null_space([[1, 1, 0], [1, 1, -1]], 3)
    assert basis and not any(v[2] for v in basis)


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


def _list_combination(coeffs, rows, p):
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(len(rows[0]))]


@pytest.mark.parametrize("p, deg, size", [(11, 3, 5), (65537, 40, 9), (99999989, 7, 6),
                                          (99999989, 1900, 3)])
def test_packed_combination_matches_the_list_combination(p, deg, size):
    """sum_k q[k] rows[k] mod p through one packed int per row, with slots sized for
    deg (p - 1)^2: every entry p - 1, then random entries.  At p near 10^8 and deg
    1900, deg (p - 1)^2 exceeds 2^64, so one 64-bit word per slot would overflow."""
    rng = random.Random(p + deg)
    words = slot_words(deg * (p - 1) ** 2)
    assert words == (2 if deg * (p - 1) ** 2 >= 2**64 else 1)
    for fill in ("top", "random"):
        rows = [[p - 1 if fill == "top" else rng.randrange(p) for _ in range(size)]
                for _ in range(deg)]
        coeffs = [p - 1 if fill == "top" else rng.randrange(p) for _ in range(deg)]
        packed = [pack(row, words) for row in rows]
        total = sum(c * x for c, x in zip(coeffs, packed))
        assert unpack_mod(total, size, words, p) == _list_combination(coeffs, rows, p)
    assert unpack_mod(pack([0, 5, p - 1], words), 3, words, p) == [0, 5, p - 1]


def test_slot_words_cover_the_bound():
    assert [slot_words(b) for b in (0, 1, 2**64 - 1, 2**64, 2**128 - 1, 2**128)] == [1, 1, 1, 2, 2, 3]
