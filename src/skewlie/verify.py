"""Catalog-wide identity suite shared by the CLI and the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import catalog
from .forms import form_checks, integral_skew_lattice, realize_adjoint_form
from .groups import Group
from .indicators import complex_dimension_identity, involution_count_identity
from .involutions import Involution
from .wedderburn import CharacterTable, character_table, decomposition_report

FORMS_ORDER_LIMIT = 24


@dataclass
class CheckLine:
    group: str
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationSummary:
    lines: list[CheckLine] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(line.ok for line in self.lines)

    def add(self, group: str, name: str, ok: bool, detail: str = "") -> None:
        self.lines.append(CheckLine(group, name, ok, detail))

    def failures(self) -> list[CheckLine]:
        return [line for line in self.lines if not line.ok]

    def to_json(self) -> dict:
        return {
            "checks": [
                {"group": l.group, "name": l.name, "ok": l.ok, "detail": l.detail}
                for l in self.lines
            ],
            "total": len(self.lines),
            "failed": len(self.failures()),
            "all_pass": self.all_pass,
        }


def _table_integrity(summary: VerificationSummary, group: Group, table: CharacterTable) -> None:
    name = group.name
    summary.add(name, "orthogonality", table.checks["orthogonality"])
    summary.add(
        name, "degree-squares",
        sum(d * d for d in table.degrees) == group.order,
    )
    summary.add(name, "degrees-divide-order", all(group.order % d == 0 for d in table.degrees))
    summary.add(
        name, "class-count",
        len(table.degrees) == len(table.classes),
    )
    ok, detail = involution_count_identity(table)
    summary.add(name, "involution-count", ok, str(detail))
    ok, detail = complex_dimension_identity(table)
    summary.add(name, "complex-dimension-identity", ok, str(detail))


def _file_form_checks(summary: VerificationSummary, group: Group, label: str,
                      checks: dict[str, bool]) -> None:
    """The three checks that `skewlie form` reports for this involution."""
    summary.add(group.name, f"form-nonsingular[{label}]", checks["nonsingular"])
    summary.add(group.name, f"adjoint-identity[{label}]", checks["adjoint_identity"])
    summary.add(group.name, f"skew-solution-space[{label}]",
                checks["eq_1_2_matches_skew_span"])


def _lattice_check(summary: VerificationSummary, group: Group, inv: Involution) -> None:
    """The expected side is ZG^- in closed form, read from sigma(g) = e g' in increasing g:
    g - e g' for each g < g', and g alone for each g' = g with e = -1."""
    lattice = integral_skew_lattice(inv)
    expected = []
    for g, (h, e) in enumerate(zip(*inv.signed_permutation)):
        if h > g or (h == g and e == -1):
            row = [0] * group.order
            row[g] = 1
            if h > g:
                row[h] = -e
            expected.append(row)
    summary.add(group.name, "integral-skew-lattice", lattice == expected)


def verify_group(group: Group, summary: VerificationSummary, seed: int = 0) -> None:
    table = character_table(group)
    _table_integrity(summary, group, table)
    summary.add(
        group.name, "component-dimensions",
        sum(o.dim_q for o in table.orbits) == group.order,
    )
    with_forms = group.order <= FORMS_ORDER_LIMIT
    per_sigma: dict = {}  # the report and form checks of each distinct sigma, for every label
    for label, inv in catalog.builtin_involutions(group):
        if inv.scaled_columns not in per_sigma:
            per_sigma[inv.scaled_columns] = (
                decomposition_report(group, inv, table=table),
                form_checks(realize_adjoint_form(inv, seed=seed)) if with_forms else None)
        report, checks = per_sigma[inv.scaled_columns]
        summary.add(
            group.name, f"skew-decomposition[{label}]",
            report.checks["theorem2_identity"],
            f"components={report.sum_components} skew={report.skew_dim}",
        )
        summary.add(
            group.name, f"idempotent-axioms[{label}]",
            report.checks["idempotent_axioms"],
        )
        if label == "canonical":
            canonical = inv
            fixed = all(c.paired_with is None for c in report.components)
            summary.add(group.name, "canonical-fixes-components", fixed)
            symplectic_neg = all(
                table.indicators.indicators[m] == -1
                for c in report.components if c.type == "symplectic"
                for m in table.orbits[c.component_id].members
            )
            summary.add(group.name, "symplectic-indicator", symplectic_neg)
        if with_forms:
            _file_form_checks(summary, group, label, checks)
    if with_forms:
        _lattice_check(summary, group, canonical)


def run_verification(selector: str | None = None, seed: int = 0,
                     max_order: int | None = None,
                     include_fixtures: bool = True) -> VerificationSummary:
    summary = VerificationSummary()
    groups = catalog.catalog_groups(selector=selector, max_order=max_order)
    for group in groups:
        verify_group(group, summary, seed=seed)
    if include_fixtures and selector is None:
        for label, group, inv in catalog.linear_fixtures():
            report = decomposition_report(group, inv)
            summary.add(label, "skew-decomposition", report.checks["theorem2_identity"])
            summary.add(label, "idempotent-axioms", report.checks["idempotent_axioms"])
            _file_form_checks(summary, group, label,
                              form_checks(realize_adjoint_form(inv, seed=seed)))
    return summary
