import pytest

from skewlie import (
    ComputationError,
    build_group,
    character_table,
    complex_dimension_identity,
    fs_indicator,
    indicator_report,
    involution_count_identity,
)
from skewlie import indicators
from skewlie.catalog import catalog_groups

from oracle import Cyclotomic, conjugates_by_twist, cyclotomic_values


def indicator_by_elementwise_sum(table, index):
    """Oracle: sum chi(g^2) directly over all group elements via Cyclotomic values."""
    group = table.group
    cd = table.classes
    e = table.conductor
    row = cyclotomic_values(table)[index]
    acc = Cyclotomic.zero(e)
    for g in range(group.order):
        sq = group.mult[g][g]
        acc = acc + row[cd.class_of[sq]]
    return acc.rational_value() / group.order


@pytest.mark.parametrize("total", [4, 16, -16, 12])
def test_indicator_sum_must_be_minus_one_zero_or_one_times_the_order(monkeypatch, q8_table, total):
    """The sum of chi(g^2) over Q8 must be -8, 0 or 8: 4 and 12 leave a remainder
    mod 8, and 16 and -16 give the indicators 2 and -2."""
    monkeypatch.setattr(indicators, "reduce_root_vector", lambda e, acc: [total] + [0] * (e - 1))
    with pytest.raises(ComputationError, match=f"indicator {total}/8 outside"):
        fs_indicator(q8_table, 0)


def test_trivial_character_indicator(s3_table):
    trivial = next(
        i for i, row in enumerate(cyclotomic_values(s3_table))
        if all(v.rational_value() == 1 for v in row)
    )
    assert fs_indicator(s3_table, trivial) == 1


def test_q8_two_dim_indicator(q8_table):
    assert q8_table.degrees[4] == 2
    assert fs_indicator(q8_table, 4) == -1
    assert indicator_by_elementwise_sum(q8_table, 4) == -1


def test_c3_nontrivial_indicator(c3_table):
    for i in range(3):
        expected = indicator_by_elementwise_sum(c3_table, i)
        assert fs_indicator(c3_table, i) == expected
    assert sorted(fs_indicator(c3_table, i) for i in range(3)) == [0, 0, 1]


def test_indicators_match_elementwise_oracle(s3_table, q8_table):
    for table in (s3_table, q8_table):
        for i in range(len(table)):
            assert fs_indicator(table, i) == indicator_by_elementwise_sum(table, i)


def test_involution_count_s3(s3_table):
    ok, detail = involution_count_identity(s3_table)
    assert ok
    assert detail["indicator_weighted_degrees"] == 4  # 1 + 1 + 2


def test_involution_count_q8(q8_table):
    ok, detail = involution_count_identity(q8_table)
    assert ok
    assert detail["indicator_weighted_degrees"] == 2  # 1+1+1+1-2


def test_involution_count_trivial():
    t = character_table(build_group("cyclic:1"))
    ok, detail = involution_count_identity(t)
    assert ok and detail["indicator_weighted_degrees"] == 1


def test_dimension_identity_q8(q8_table):
    ok, detail = complex_dimension_identity(q8_table)
    assert ok
    assert detail["orthogonal_part"] == 0
    assert detail["symplectic_part"] == 3
    assert detail["pair_part"] == 0
    assert detail["rhs"] == 3  # (8 - 2) / 2


def test_dimension_identity_s3(s3_table):
    ok, detail = complex_dimension_identity(s3_table)
    assert ok
    assert detail["orthogonal_part"] == 1
    assert detail["rhs"] == 1  # (6 - 4) / 2


def test_dimension_identity_elementary_abelian():
    t = character_table(build_group("abelian:2,2"))
    ok, detail = complex_dimension_identity(t)
    assert ok
    assert detail["rhs"] == 0


def test_indicator_is_galois_stable():
    for spec in ("cyclic:5", "cyclic:12", "dihedral:5", "dicyclic:3"):
        g = build_group(spec)
        t = character_table(g)
        from skewlie import galois_orbits

        for orbit in galois_orbits(t):
            values = {fs_indicator(t, i) for i in orbit.members}
            assert len(values) == 1


def test_complex_characters_come_in_pairs():
    t = character_table(build_group("cyclic:5"))
    report = indicator_report(t)
    assert sorted(report.indicators) == [0, 0, 0, 0, 1]
    trivial = next(
        i for i, row in enumerate(cyclotomic_values(t))
        if all(v.is_rational() and v.rational_value() == 1 for v in row)
    )
    assert report.indicators[trivial] == 1
    assert len(report.complex_pairs) == 2
    paired = {i for pair in report.complex_pairs for i in pair}
    assert paired == set(range(5)) - {trivial}
    assert report.eq1_identity
    assert report.involution_count_identity


def test_conjugate_pairs_match_the_twist_by_minus_one():
    """The pairs read through the inverse classes against the twist of every value by -1."""
    for g in catalog_groups() + [build_group(spec) for spec in ("cyclic:24", "dicyclic:15")]:
        t = character_table(g)
        report = indicator_report(t)
        conj = conjugates_by_twist(t)
        pairs = {i: j for i, j in report.complex_pairs}
        for i, nu in enumerate(report.indicators):
            if nu:
                assert conj[i] == i, (g.name, i)
            elif i in pairs:
                assert conj[i] == pairs[i] and conj[pairs[i]] == i, (g.name, i)
        assert 2 * len(pairs) == sum(conj[i] != i for i in range(len(t))), g.name


def test_symplectic_components_have_indicator_minus_one(q8, q8_table):
    from skewlie import Involution, decomposition_report, galois_orbits

    rep = decomposition_report(q8, Involution.canonical(q8).validate(), table=q8_table)
    orbits = galois_orbits(q8_table)
    for comp in rep.components:
        if comp.type == "symplectic":
            for member in orbits[comp.component_id].members:
                assert rep.table.indicators.indicators[member] == -1


def test_indicator_report_reads_the_power_map_at_2_once(monkeypatch):
    """One power map per table, not one per character."""
    import skewlie.wedderburn as wedderburn

    t = character_table(build_group("cyclic:12"))
    calls = []
    true_power_map = wedderburn._power_map
    monkeypatch.setattr(wedderburn, "_power_map",
                        lambda group, k: calls.append(k) or true_power_map(group, k))
    report = indicator_report(t)
    assert calls == [2]
    assert report.indicators == tuple(fs_indicator(t, i) for i in range(len(t)))
