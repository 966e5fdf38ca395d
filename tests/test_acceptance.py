"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every assertion is an exact equality, never a tolerance.
"""

import time

import pytest
from oracle import apply, bracket_closed, convolve, hnf, rank

from skewlie import (
    Involution,
    build_group,
    character_table,
    complex_dimension_identity,
    decomposition_report,
    fs_indicator,
    integral_skew_lattice,
    involution_count_identity,
    realize_adjoint_form,
    sigma_action_on_components,
    skew_adjoint_space,
    skew_space,
    square_root_count,
    table_orthogonality,
)
from skewlie.catalog import builtin_involutions, catalog_groups, linear_fixtures
from skewlie.serialize import dumps
from skewlie.wedderburn import idempotent_axioms_hold

FORMS_LIMIT = 24


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def catalog_ctx():
    """Character table, orbits, idempotents, and involutions per catalog group."""
    ctx = []
    for g in catalog_groups():
        t = character_table(g)
        ctx.append((g, t, t.orbits, t.idempotents, builtin_involutions(g)))
    return ctx


def test_criterion_1_q8_example():
    start = time.perf_counter()
    q8 = build_group("dicyclic:2")
    inv = Involution.canonical(q8).validate()
    rep = decomposition_report(q8, inv)
    elapsed = time.perf_counter() - start
    dims = sorted(c.dim_q for c in rep.components)
    quaternion = next(c for c in rep.components if c.dim_q == 4)
    ok = (
        dims == [1, 1, 1, 1, 4]
        and rep.skew_dim == 3
        and quaternion.kind == "first"
        and quaternion.type == "symplectic"
        and quaternion.degree_n == 2
        and quaternion.skew_dim_q == 3
        and all(c.skew_dim_q == 0 for c in rep.components if c.dim_q == 1)
        and rep.all_checks_pass
        and elapsed < 1.0
    )
    _report("criterion 1: quaternion example", ok, f"{elapsed:.3f}s")


def test_criterion_2_global_identity(catalog_ctx):
    start = time.perf_counter()
    failures = []
    groups = 0
    reports = 0
    for g, t, orbits, idems, invs in catalog_ctx:
        groups += 1
        for label, inv in invs:
            rep = decomposition_report(g, inv, table=t)
            reports += 1
            if rep.sum_components != rep.skew_dim:
                failures.append((g.name, label))
    elapsed = time.perf_counter() - start
    ok = not failures and groups >= 50 and elapsed < 300.0
    _report(
        "criterion 2: global skew-dimension identity",
        ok,
        f"{groups} groups, {reports} involutions, {elapsed:.1f}s" +
        (f", failures={failures}" if failures else ""),
    )


def test_criterion_3_adjoint_form_equation(catalog_ctx):
    start = time.perf_counter()
    failures = []
    checked = 0
    for g, _, _, _, invs in catalog_ctx:
        if g.order > FORMS_LIMIT:
            continue
        for label, inv in invs:
            r = realize_adjoint_form(inv, seed=0)
            checked += 1
            if skew_adjoint_space(r) != skew_space(inv).skew_basis:
                failures.append((g.name, label))
    for label, g, inv in linear_fixtures():
        r = realize_adjoint_form(inv, seed=0)
        checked += 1
        if skew_adjoint_space(r) != skew_space(inv).skew_basis:
            failures.append((label,))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        "criterion 3: adjoint-form solution space equals skew span",
        ok,
        f"{checked} realizations, {elapsed:.1f}s" +
        (f", failures={failures}" if failures else ""),
    )


def test_criterion_4_complex_dimension_identity(catalog_ctx):
    failures = []
    for g, t, _, _, _ in catalog_ctx:
        ok, _detail = complex_dimension_identity(t)
        if not ok:
            failures.append(g.name)
    _report(
        "criterion 4: real/symplectic/complex dimension identity",
        not failures,
        f"{len(catalog_ctx)} groups" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_5_character_table_integrity(catalog_ctx):
    failures = []
    for g, t, _, _, _ in catalog_ctx:
        checks = [
            table_orthogonality(t),
            sum(d * d for d in t.degrees) == g.order,
            all(g.order % d == 0 for d in t.degrees),
            involution_count_identity(t)[0],
            sum(fs_indicator(t, i) * t.degrees[i] for i in range(len(t)))
            == square_root_count(g),
        ]
        if not all(checks):
            failures.append((g.name, checks))
    _report(
        "criterion 5: character table integrity",
        not failures,
        f"{len(catalog_ctx)} groups" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_6_idempotent_axioms(catalog_ctx):
    failures = []
    for g, t, orbits, idems, invs in catalog_ctx:
        if not idempotent_axioms_hold(idems):
            failures.append((g.name, "axioms"))
            continue
        for label, inv in invs:
            perm = sigma_action_on_components(idems, inv)
            if any(perm[perm[i]] != i for i in range(len(perm))):
                failures.append((g.name, label))
    _report(
        "criterion 6: idempotent axioms and involutive component action",
        not failures,
        f"{len(catalog_ctx)} groups" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_7_integral_lattice(catalog_ctx):
    failures = []
    checked = 0
    for g, _, _, _, _ in catalog_ctx:
        if g.order > FORMS_LIMIT:
            continue
        inv = Involution.canonical(g).validate()
        lattice = integral_skew_lattice(inv)
        gens = []
        for x in range(g.order):
            row = [0] * g.order
            row[x] += 1
            row[g.inv[x]] -= 1
            if any(row):
                gens.append(row)
        checked += 1
        if lattice != (hnf(gens) if gens else []):
            failures.append(g.name)
    _report(
        "criterion 7: integral skew lattice",
        not failures,
        f"{checked} groups" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_8_property_suites(catalog_ctx):
    failures = []
    sample = [(g, invs) for g, _, _, _, invs in catalog_ctx if g.order <= 16]
    for g, invs in sample:
        for label, inv in invs:
            report = skew_space(inv)
            if report.skew_dim + report.sym_dim != g.order:
                failures.append((g.name, label, "direct-sum"))
            joint = report.skew_basis + report.sym_basis
            if rank(joint) != g.order:
                failures.append((g.name, label, "disjointness"))
            units = [[int(h == x) for h in range(g.order)] for x in range(g.order)]
            images = [apply(inv, u) for u in units]
            for x in range(g.order):
                if apply(inv, images[x]) != units[x]:
                    failures.append((g.name, label, "involution-squared"))
                    break
                for y in range(g.order):
                    if apply(inv, units[g.mult[x][y]]) != convolve(g.mult, images[y], images[x]):
                        failures.append((g.name, label, "anti-multiplicativity"))
                        break
        # bracket closure of the skew space under the canonical involution
        if not bracket_closed(g.mult, skew_space(invs[0][1]).skew_basis):
            failures.append((g.name, "bracket-closure"))
    # byte-identical JSON outputs across repeated in-process runs
    q8 = build_group("dicyclic:2")
    inv = Involution.canonical(q8).validate()
    first = dumps(decomposition_report(q8, inv).to_json())
    second = dumps(decomposition_report(q8, inv).to_json())
    if first != second:
        failures.append(("dicyclic:2", "determinism"))
    _report(
        "criterion 8: standalone property suites",
        not failures,
        f"{len(sample)} groups" + (f", failures={failures}" if failures else ""),
    )
