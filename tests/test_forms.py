from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, prod

import pytest

from oracle import (
    adjoint_identity_by_fractions,
    adjoint_identity_by_triples,
    apply,
    canonical_regular_form,
    convolve,
    fraction_columns,
    functional_space_by_fractions,
    hnf,
    identity,
    mat,
    over_pivots,
    rank,
    rational_gram,
    realize_by_fractions,
    row_space_equal,
    skew_adjoint_space_by_fractions,
    skew_lattice_generators,
)
from skewlie import (
    ComputationError,
    Involution,
    SpecError,
    adjoint_space_matches_skew_span,
    build_group,
    check_adjoint_identity,
    decomposition_report,
    form_report,
    integral_skew_lattice,
    realize_adjoint_form,
    sign_characters,
    skew_adjoint_space,
    skew_space,
)
from skewlie import forms, involutions, linalg
from skewlie.catalog import (
    builtin_involutions,
    catalog_groups,
    klein_swap_involution,
    klein_swap_linear_involution,
    linear_fixtures,
    s3_conjugated_fixture,
)
from skewlie.forms import form_checks
from skewlie.groups import generators
from skewlie.involutions import eigen_rows
from skewlie.linalg import MODULUS, rank_mod_p_reaches
from skewlie.verify import FORMS_ORDER_LIMIT


def test_canonical_gram_is_identity(q8, canonical):
    r = canonical_regular_form(canonical(q8))
    assert rational_gram(r.form) == identity(q8.order)
    assert r.form.symmetry == "symmetric"
    assert r.functional[0] == 1 and not any(r.functional[1:])


def test_oriented_c4_gram_is_signed_diagonal():
    g = build_group("cyclic:4")
    inv = Involution.oriented(g, [1, -1, 1, -1]).validate()
    r = canonical_regular_form(inv)
    expected = mat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert rational_gram(r.form) == expected
    assert r.form.symmetry == "symmetric"


def test_adjoint_identity_all_triples_q8(q8, canonical):
    r = canonical_regular_form(canonical(q8))
    assert check_adjoint_identity(r)
    assert adjoint_identity_by_triples(q8.mult, fraction_columns(r.involution),
                                       rational_gram(r.form))


def _one_entry_changes(r):
    """r with int_gram[i][j] raised by 1, for every cell (i, j)."""
    n = len(r.form.int_gram)
    for i in range(n):
        for j in range(n):
            gram = [list(row) for row in r.form.int_gram]
            gram[i][j] += 1
            yield replace(r, form=replace(r.form, int_gram=gram))


def test_adjoint_identity_matches_all_triples_oracle():
    """The check over the generating set agrees with all n^3 triples, on the
    realized forms and on every one-entry change of them."""
    for label, group, inv in [("s3", build_group("symmetric:3"), None),
                              ("dihedral:4", build_group("dihedral:4"), None),
                              *linear_fixtures()]:
        inv = inv or Involution.canonical(group)
        r = realize_adjoint_form(inv, seed=0)
        for case in (r, *_one_entry_changes(r)):
            expected = adjoint_identity_by_triples(group.mult, fraction_columns(inv),
                                                   rational_gram(case.form))
            assert check_adjoint_identity(case) == expected, label


def test_adjoint_identity_is_checked_on_every_generator():
    """On D6, S = (r, s).  The oriented involution with alpha = -1 on the
    reflections agrees with the canonical one on the rotations, so its form
    passes the check for r under the canonical involution but fails it for s."""
    g = build_group("dihedral:6")
    assert generators(g) == (1, 6)
    alpha = next(a for a in sign_characters(g) if a[1] == 1 and a[6] == -1)
    r = realize_adjoint_form(Involution.oriented(g, alpha), seed=0)
    mixed = replace(r, involution=Involution.canonical(g))
    assert not adjoint_identity_by_triples(g.mult, fraction_columns(mixed.involution),
                                           rational_gram(mixed.form))
    assert not check_adjoint_identity(mixed)


def test_every_one_entry_change_fails_the_adjoint_identity():
    """Order 24, above any size where all triples are cheap: 576 changed forms."""
    r = realize_adjoint_form(Involution.canonical(build_group("dihedral:12")), seed=0)
    assert check_adjoint_identity(r)
    changed = list(_one_entry_changes(r))
    assert len(changed) == 576
    assert not any(check_adjoint_identity(case) for case in changed)


def test_canonical_form_requires_group_induced(s3):
    _, linear = s3_conjugated_fixture()
    with pytest.raises(SpecError):
        canonical_regular_form(linear)


def test_realize_returns_valid_witness(q8, canonical):
    inv = canonical(q8)
    r = realize_adjoint_form(inv, seed=0)
    gram = rational_gram(r.form)
    assert rank(gram) == q8.order
    assert r.form.symmetry in ("symmetric", "skew")
    assert check_adjoint_identity(r)
    # h(x, y) = functional(sigma(x) y) reproduces the gram matrix
    units = [[int(h == g) for h in range(q8.order)] for g in range(q8.order)]
    for g in range(q8.order):
        sg = apply(inv, units[g])
        for h in range(q8.order):
            prod = convolve(q8.mult, sg, units[h])
            value = sum(l * c for l, c in zip(r.functional, prod))
            assert value == gram[g][h]


def test_realize_is_deterministic(s3, canonical):
    inv = canonical(s3)
    a = realize_adjoint_form(inv, seed=5)
    b = realize_adjoint_form(inv, seed=5)
    assert rational_gram(a.form) == rational_gram(b.form)
    c = realize_adjoint_form(inv, seed=6)
    assert rational_gram(c.form) != rational_gram(a.form)  # different draw, still valid


def test_skew_adjoint_space_s3(s3, canonical):
    inv = canonical(s3)
    space = skew_adjoint_space(canonical_regular_form(inv))
    assert len(space) == 1
    # spanned by the difference of the two 3-cycles
    three_cycles = [g for g in range(s3.order) if s3.element_order(g) == 3]
    expected = [0] * s3.order
    expected[three_cycles[0]] = 1
    expected[three_cycles[1]] = -1
    assert space == [expected]
    assert space == skew_space(inv).skew_basis


def test_skew_adjoint_space_q8(q8, canonical):
    inv = canonical(q8)
    space = skew_adjoint_space(canonical_regular_form(inv))
    assert len(space) == 3
    assert space == skew_space(inv).skew_basis


def test_skew_adjoint_space_c2_is_zero(canonical):
    g = build_group("cyclic:2")
    space = skew_adjoint_space(canonical_regular_form(canonical(g)))
    assert space == []


def test_equation_matches_span_for_fixtures():
    for label, fixture in (
        ("s3", s3_conjugated_fixture),
        ("klein", klein_swap_involution),
        ("klein-linear", klein_swap_linear_involution),
    ):
        group, inv = fixture()
        r = realize_adjoint_form(inv, seed=0)
        assert check_adjoint_identity(r), label
        assert adjoint_space_matches_skew_span(inv, r), label


def test_q8_lattice_basis(q8, canonical):
    lat = integral_skew_lattice(canonical(q8))
    # a - a^3, b - b^3, ab - (ab)^3 in dicyclic indexing
    expected = hnf([
        [0, 1, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, 0, 1, 0, -1],
    ])
    assert lat == expected


def test_lattice_equals_span_of_skew_generators(canonical):
    for spec in ("cyclic:7", "dihedral:4", "symmetric:3", "dicyclic:3"):
        g = build_group(spec)
        inv = canonical(g)
        gens = []
        for x in range(g.order):
            row = [0] * g.order
            row[x] += 1
            row[g.inv[x]] -= 1
            if any(row):
                gens.append(row)
        assert integral_skew_lattice(inv) == hnf(gens)


def test_lattice_zero_for_elementary_abelian(canonical):
    g = build_group("abelian:2,2")
    assert integral_skew_lattice(canonical(g)) == []


def test_lattice_spans_rational_solution_space(q8, canonical):
    inv = canonical(q8)
    lat = integral_skew_lattice(inv)
    space = skew_adjoint_space(canonical_regular_form(inv))
    assert len(lat) == len(space)
    assert row_space_equal(lat, space)


def test_lattice_needs_group_induced():
    _, linear = s3_conjugated_fixture()
    with pytest.raises(SpecError):
        integral_skew_lattice(linear)


def test_the_lattice_guards_its_pivots():
    """The lattice is the involution's skew basis, returned only if every pivot is 1; a
    forged basis with a pivot of 2 spans a sublattice of index 2 and is refused."""
    inv = Involution.oriented(build_group("cyclic:2"), [1, -1])
    assert integral_skew_lattice(inv) is inv.skew_basis
    vars(inv)["skew_basis"] = [[0, 2]]
    with pytest.raises(ComputationError, match="pivot"):
        integral_skew_lattice(inv)
    _, linear = s3_conjugated_fixture()
    with pytest.raises(SpecError, match="group-induced"):
        integral_skew_lattice(linear)


def test_oriented_lattice_is_saturated():
    # alpha(a) = -1 on C2: sigma(a) = -a, so a itself is integral skew,
    # while the g - sigma(g) generators only reach 2a
    g = build_group("cyclic:2")
    inv = Involution.oriented(g, [1, -1]).validate()
    lat = integral_skew_lattice(inv)
    assert lat == [[0, 1]]


def test_form_report_shape(q8, canonical):
    rep = form_report(canonical(q8), seed=0)
    assert rep["symmetry"] in ("symmetric", "skew")
    assert rep["checks"] == {
        "nonsingular": True,
        "adjoint_identity": True,
        "eq_1_2_matches_skew_span": True,
    }
    assert all(isinstance(x, str) for row in rep["gram"] for x in row)
    assert all(isinstance(x, str) for x in rep["functional"])


def _form_cases(max_order: int = 12):
    """Every catalog group up to max_order under every built-in involution, and the
    four linear fixtures; at FORMS_ORDER_LIMIT, the forms `verify` realizes."""
    for group in catalog_groups(max_order=max_order):
        for label, inv in builtin_involutions(group):
            yield f"{group.name} {label}", inv
    for label, _, inv in linear_fixtures():
        yield label, inv


def test_integer_route_matches_the_rational_oracle():
    """The n integer rows g -+ sigma(g) give the same functional spaces, as B / L, as
    the n(n+1)/2 rational pair rows reduced by division, on every form `verify` realizes;
    and the same grams, functionals and skew-adjoint spaces, and the same adjoint
    check, on the form cases for seeds 0-2."""
    verified = list(_form_cases(FORMS_ORDER_LIMIT))
    assert len(verified) == 161
    for label, inv in verified:
        for want in ("symmetric", "skew"):
            expected = functional_space_by_fractions(inv.group.mult, fraction_columns(inv),
                                                     want == "symmetric")
            den, basis = forms._functional_space(inv, want)
            assert [[Fraction(x, den) for x in row] for row in basis] == expected, (label, want)
    for label, inv in _form_cases():
        mult, columns = inv.group.mult, fraction_columns(inv)
        for seed in (0, 1, 2):
            r = realize_adjoint_form(inv, seed=seed)
            gram, lam = realize_by_fractions(mult, columns, seed, forms.DEFAULT_ATTEMPTS)
            assert rational_gram(r.form) == gram and list(r.functional) == lam, (label, seed)
            # one positive scalar for the whole gram, to content 1
            flat = [x for row in r.form.int_gram for x in row]
            scale = next(x / g for x, g in zip(flat, chain(*gram)) if g)
            assert scale > 0 and reduce(gcd, flat, 0) == 1, label
            assert r.form.int_gram == [[scale * g for g in row] for row in gram], label
            assert (over_pivots(skew_adjoint_space(r))
                    == skew_adjoint_space_by_fractions(mult, gram)), label
            assert check_adjoint_identity(r), label
            assert adjoint_identity_by_fractions(mult, generators(inv.group), columns, gram)


def test_s3_fixture_scales_sigma_and_the_gram():
    """The fixture with denominators of 3 in sigma and in its realized gram."""
    _, inv = s3_conjugated_fixture()
    assert inv.scaled_columns[0] == 3
    r = realize_adjoint_form(inv, seed=0)
    gram = rational_gram(r.form)
    assert {x.denominator for row in gram for x in row} == {1, 3}
    assert r.form.int_gram == [[3 * x for x in row] for row in gram]


def test_every_one_entry_change_fails_the_skew_span_check():
    """Raising one gram entry by 1 moves the solution space of
    h(fx, y) + h(x, fy) = 0 off the skew elements, so the check reads the form."""
    cases = [(spec, Involution.canonical(build_group(spec)))
             for spec in ("symmetric:3", "dihedral:4", "dicyclic:2", "dihedral:8", "dicyclic:4")]
    cases += [(label, inv) for label, _, inv in linear_fixtures()]
    for label, inv in cases:
        r = realize_adjoint_form(inv, seed=0)
        assert adjoint_space_matches_skew_span(inv, r), label
        changed = list(_one_entry_changes(r))
        assert len(changed) == inv.group.order ** 2
        assert not any(adjoint_space_matches_skew_span(inv, case) for case in changed), label


def test_every_constraint_row_is_built_and_reduced(monkeypatch):
    """The n functional rows g -+ sigma(g) reach _echelon once, when the involution
    builds its basis of their span, and null_space reads that basis; every distinct
    one of the n^2 skew-adjoint rows reaches the solver, and its elimination reads
    them all."""
    solved, read = [], []
    null_space, echelon = forms.null_space, linalg._echelon

    def counting_space(rows, n):
        solved.append(list(rows))
        return null_space(solved[-1], n)

    def counting_echelon(rows):
        read.append(list(rows))
        return echelon(read[-1])

    _, inv = s3_conjugated_fixture()
    monkeypatch.setattr(forms, "null_space", counting_space)
    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    r = realize_adjoint_form(inv, seed=0)
    skew_adjoint_space(r)
    rows = list(forms._skew_adjoint_rows(r))
    assert len(rows) == 36
    sign = -1 if r.form.symmetry == "symmetric" else 1
    basis = inv.skew_basis if sign < 0 else inv.sym_basis
    assert read[0] == eigen_rows(inv, sign) and read.count(read[0]) == 1
    assert [len(x) for x in solved] == [len(basis), len(set(rows))]
    assert solved[0] == basis
    assert set(solved[1]) == set(rows)
    assert all(x in read for x in solved)


def test_the_rows_g_minus_sigma_g_are_eliminated_once(monkeypatch):
    """On one sigma of dihedral:4, the report, the realized form, its checks and the
    lattice reduce the n rows g - sigma(g) once, for the involution's basis, and the
    lattice solves no skew-adjoint system."""
    read, echelon = [], linalg._echelon

    def counting(rows):
        read.append(list(rows))
        return echelon(read[-1])

    def no_system(r):
        raise AssertionError("the lattice solved a skew-adjoint system")

    for module in (linalg, forms, involutions):
        monkeypatch.setattr(module, "_echelon", counting, raising=False)
    group = build_group("dihedral:4")
    label, inv = builtin_involutions(group)[-1]
    assert decomposition_report(group, inv).all_checks_pass
    assert all(form_checks(realize_adjoint_form(inv, seed=0)).values())
    monkeypatch.setattr(forms, "skew_adjoint_space", no_system)
    assert integral_skew_lattice(inv)
    assert read.count(eigen_rows(inv, -1)) == 1, label


def _pivot_product(rows) -> int:
    return prod(next(x for x in row if x) for row in rows)


def test_the_lattice_matches_the_route_through_the_coefficient_of_identity_form():
    """Every built-in involution of the catalog groups of order <= 24 and the three
    group-induced fixtures: the skew-adjoint space of the oracle's coefficient-of-identity
    form is sigma's skew basis, and saturating the generators g - sigma(g) against it
    gives the lattice.  hnf(gens) has index 2^fixed_minus in it, with the same pivot
    columns: where sigma(g) = -g the lattice holds g and the generators only 2g."""
    cases = [(f"{group.name} {label}", inv) for group in catalog_groups(max_order=24)
             for label, inv in builtin_involutions(group)]
    fixtures = [(label, inv) for label, _, inv in linear_fixtures() if inv.signed_permutation]
    assert len(fixtures) == 3
    for label, inv in cases + fixtures:
        space = skew_adjoint_space(canonical_regular_form(inv))
        assert space == inv.skew_basis, label
        gens = skew_lattice_generators(inv)
        lattice = integral_skew_lattice(inv)
        assert lattice == inv.skew_basis, label
        assert hnf(gens + space) == lattice, label
        assert _pivot_product(hnf(gens)) == 2 ** inv.fixed_minus * _pivot_product(lattice), label
    assert any(inv.fixed_minus for _, inv in cases)


def test_the_certificate_matches_the_exact_route():
    """The skew-span certificate gives the answer of the full solution space on every
    form case, seeds 0-2, and on every one-entry change of those grams."""
    for label, inv in _form_cases():
        skew_basis = skew_space(inv).skew_basis
        for seed in (0, 1, 2):
            r = realize_adjoint_form(inv, seed=seed)
            assert adjoint_space_matches_skew_span(inv, r), (label, seed)
            for case in (r, *_one_entry_changes(r)):
                exact = skew_adjoint_space(case) == skew_basis
                assert adjoint_space_matches_skew_span(inv, case) == exact, (label, seed)


def test_the_pair_reading_matches_the_block_reading():
    """Part (a) of the certificate for a group-induced sigma, one comparison over all
    (x, y) per pair {g, sigma(g)}, agrees with the x-major blocks on every group-induced
    form case that `verify` realizes, seeds 0-2, and on every one-entry change of those
    grams.  The cases include cyclic:1, where no element moves, and oriented involutions
    with sigma(g) = -g, where the pair reading needs a zero row."""
    cases = [(label, inv) for label, inv in _form_cases(FORMS_ORDER_LIMIT)
             if inv.signed_permutation]
    assert len(cases) == 160 and cases[0][1].group.order == 1
    assert any(k == g and e < 0 for _, inv in cases
               for g, (k, e) in enumerate(zip(*inv.signed_permutation)))
    outcomes = set()
    for label, inv in cases:
        for seed in (0, 1, 2):
            r = realize_adjoint_form(inv, seed=seed)
            assert forms._pairs_solve(inv, r) and forms._blocks_solve(inv, r), (label, seed)
            for case in _one_entry_changes(r):
                solved = forms._pairs_solve(inv, case)
                assert solved == forms._blocks_solve(inv, case), (label, seed)
                outcomes.add(solved)
    assert outcomes == {True, False}


def _counting_exact_ranks(monkeypatch) -> list:
    """The rows of every exact rank that forms takes: for the skew-span certificate the
    distinct rows of the system, a set; for nonsingular the integer gram, a list."""
    calls, echelon = [], forms._echelon

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(forms, "_echelon", counting)
    return calls


def _certificate_ranks(calls) -> list:
    return [rows for rows in calls if isinstance(rows, set)]


def test_the_certificate_matches_the_exact_route_across_involutions(monkeypatch):
    """The form realizing one built-in involution, checked against each of them.
    Where the skew span of sigma lies inside that of the form's involution, part (a)
    holds and only the rank tells the spans apart, as on C2 with the canonical
    involution and the form of the oriented one."""
    calls = _counting_exact_ranks(monkeypatch)
    for group in catalog_groups(max_order=12):
        involutions = [inv for _, inv in builtin_involutions(group)]
        for r in [realize_adjoint_form(inv, seed=0) for inv in involutions]:
            own = skew_space(r.involution).skew_basis
            for inv in involutions:
                exact = skew_adjoint_space(r) == skew_space(inv).skew_basis
                assert adjoint_space_matches_skew_span(inv, r) == exact, group.name
                assert exact == (skew_space(inv).skew_basis == own), group.name
    assert _certificate_ranks(calls)


def test_a_rank_short_mod_p_falls_back_to_the_exact_space(monkeypatch):
    """With a rank mod p that never reaches its target, the skew span is decided by
    the exact rank of the system's distinct rows and nonsingularity by the exact rank
    of the gram: the same answers as the full solution space."""
    monkeypatch.setattr(forms, "rank_mod_p_reaches", lambda rows, target: False)
    calls = _counting_exact_ranks(monkeypatch)
    inv = Involution.canonical(build_group("symmetric:3"))
    r = realize_adjoint_form(inv, seed=0)
    assert rational_gram(r.form) == realize_by_fractions(inv.group.mult, fraction_columns(inv),
                                                         0, forms.DEFAULT_ATTEMPTS)[0]
    assert r.form.nonsingular
    assert calls == [r.form.int_gram]
    assert adjoint_space_matches_skew_span(inv, r)
    assert _certificate_ranks(calls) == [set(forms._skew_adjoint_rows(r))]
    assert skew_adjoint_space(r) == skew_space(inv).skew_basis
    assert not any(adjoint_space_matches_skew_span(inv, case) for case in _one_entry_changes(r))


def test_a_system_below_the_target_rank_is_decided_exactly(monkeypatch):
    """The zero form: every g - sigma(g) solves its system, and so does every f, so
    the rank mod p stays 0 below n - dim S and the exact route says no."""
    inv = Involution.canonical(build_group("symmetric:3"))
    r = realize_adjoint_form(inv, seed=0)
    calls = _counting_exact_ranks(monkeypatch)
    zero = replace(r, form=replace(r.form, int_gram=[[0] * len(row) for row in r.form.int_gram]))
    assert not zero.form.nonsingular
    assert not adjoint_space_matches_skew_span(inv, zero)
    assert calls == [zero.form.int_gram, set(forms._skew_adjoint_rows(zero))]
    assert skew_adjoint_space(zero) != skew_space(inv).skew_basis


def test_the_fixed_prime_needs_no_fallback_on_the_verify_forms(monkeypatch):
    """On every form that skewlie verify checks, the rank mod p settles the skew span
    and nonsingularity: the certificate takes no exact rank, and nonsingular only on
    a draw that is singular over Q."""
    calls = _counting_exact_ranks(monkeypatch)
    cases = [inv for _, inv in _form_cases(FORMS_ORDER_LIMIT)]
    assert len(cases) == 161
    for inv in cases:
        assert all(form_report(inv, seed=0)["checks"].values())
    assert _certificate_ranks(calls) == []
    assert all(rank(gram) < len(gram) for gram in calls)


def test_nonsingular_falls_back_to_the_exact_rank():
    """Singular over Q is False; singular mod the prime but not over Q is True."""
    assert not forms.BilinearForm(int_gram=[[1, 2], [2, 4]], symmetry="symmetric").nonsingular
    assert not rank_mod_p_reaches([[MODULUS, 0], [0, 1]], 2)
    assert forms.BilinearForm(int_gram=[[MODULUS, 0], [0, 1]], symmetry="symmetric").nonsingular


def test_nonsingular_agrees_with_the_exact_rank_on_every_draw(monkeypatch):
    """Every gram drawn on the form cases, seeds 0-2, the rejected ones too."""
    drawn, form_class = [], forms.BilinearForm

    def recording_form(**fields):
        drawn.append(form_class(**fields))
        return drawn[-1]

    monkeypatch.setattr(forms, "BilinearForm", recording_form)
    for _, inv in _form_cases():
        for seed in (0, 1, 2):
            realize_adjoint_form(inv, seed=seed)
    assert len(drawn) > 3 * len(list(_form_cases()))
    for form in drawn:
        assert form.nonsingular == (rank(rational_gram(form)) == len(form.int_gram))
