from skewlie.catalog import CATALOG_SPECS, catalog_groups
from skewlie.verify import run_verification


def test_catalog_composition():
    assert len(CATALOG_SPECS) == 58
    groups = catalog_groups()
    assert max(g.order for g in groups) == 60  # alternating:5
    assert all(g.order <= 120 for g in groups)
    names = [g.name for g in groups]
    assert "dicyclic:2" in names and "alternating:5" in names


def test_catalog_selector():
    assert [g.name for g in catalog_groups(selector="dicyclic:2")] == ["dicyclic:2"]
    assert catalog_groups(selector="nosuchgroup") == []
    # seven dicyclic entries plus the C2 x Q8 product, by substring
    assert len(catalog_groups(selector="dicyclic")) == 8
    assert all(g.order <= 12 for g in catalog_groups(max_order=12))


def test_single_group_verification():
    summary = run_verification(selector="dicyclic:2")
    assert summary.lines
    assert summary.all_pass
    names = {line.name for line in summary.lines}
    assert "orthogonality" in names
    assert "integral-skew-lattice" in names
    assert any(n.startswith("skew-decomposition") for n in names)
    assert any(n.startswith("skew-solution-space") for n in names)


def test_verification_json_shape():
    summary = run_verification(selector="symmetric:3")
    obj = summary.to_json()
    assert obj["all_pass"] is True
    assert obj["failed"] == 0
    assert obj["total"] == len(obj["checks"]) == len(summary.lines)


def test_table_results_computed_once_per_table(monkeypatch):
    """verify_group serves every involution of a group from one table's results."""
    import sys

    import skewlie.wedderburn as wedderburn
    from skewlie import build_group
    from skewlie.verify import VerificationSummary, verify_group

    names = ("galois_orbits", "rational_idempotents", "indicator_report",
             "idempotent_axioms_hold", "table_orthogonality")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for k, m in sys.modules.items() if k.startswith("skewlie.")]
    for name in names:
        original = getattr(wedderburn, name)
        wrapper = counted(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    summary = VerificationSummary()
    verify_group(build_group("dihedral:4"), summary)
    assert summary.all_pass
    assert calls == dict.fromkeys(names, 1)


def test_each_distinct_sigma_is_decomposed_and_realized_once(monkeypatch):
    """On dihedral:4 the trivial sign character gives the canonical involution again,
    as oriented:++++++++.  decomposition_report and realize_adjoint_form run once per
    distinct sigma, and every label still gets its lines, in order, all passing."""
    import skewlie.verify as verify
    from skewlie import build_group, decomposition_report
    from skewlie.catalog import builtin_involutions
    from skewlie.verify import VerificationSummary, verify_group

    group = build_group("dihedral:4")
    labelled = builtin_involutions(group)
    distinct = {inv.scaled_columns for _, inv in labelled}
    assert len(distinct) == len(labelled) - 1 == 4
    calls = {"decomposition_report": 0, "realize_adjoint_form": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(verify, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    summary = VerificationSummary()
    verify_group(group, summary)
    assert calls == dict.fromkeys(calls, len(distinct))
    assert summary.all_pass

    expected = ["orthogonality", "degree-squares", "degrees-divide-order", "class-count",
                "involution-count", "complex-dimension-identity", "component-dimensions"]
    details = {}
    for label, inv in labelled:
        report = decomposition_report(group, inv)
        details[f"skew-decomposition[{label}]"] = (
            f"components={report.sum_components} skew={report.skew_dim}")
        expected += [f"skew-decomposition[{label}]", f"idempotent-axioms[{label}]"]
        if label == "canonical":
            expected += ["canonical-fixes-components", "symplectic-indicator"]
        expected += [f"form-nonsingular[{label}]", f"adjoint-identity[{label}]",
                     f"skew-solution-space[{label}]"]
    expected.append("integral-skew-lattice")
    assert [line.name for line in summary.lines] == expected
    assert {line.name: line.detail for line in summary.lines if line.name in details} == details


def test_the_lattice_line_holds_under_every_group_induced_sigma(monkeypatch):
    """verify's closed-form ZG^- agrees with the lattice under every built-in sigma of every
    catalog group and the three group-induced fixtures.  A lattice that skips the
    saturation, the HNF of the generators g - sigma(g) alone, reaches only 2g where
    sigma(g) = -g, so the line must read false exactly where fixed_minus > 0."""
    import skewlie.verify as verify
    from oracle import hnf, skew_lattice_generators
    from skewlie.catalog import builtin_involutions, linear_fixtures

    cases = [(group, inv) for group in catalog_groups() for _, inv in builtin_involutions(group)]
    cases += [(group, inv) for _, group, inv in linear_fixtures() if inv.signed_permutation]
    assert len(cases) == 196

    def lines():
        summary = verify.VerificationSummary()
        for group, inv in cases:
            verify._lattice_check(summary, group, inv)
        return [line.ok for line in summary.lines]

    assert all(lines())
    monkeypatch.setattr(verify, "integral_skew_lattice",
                        lambda inv: hnf(skew_lattice_generators(inv)))
    assert lines() == [not inv.fixed_minus for _, inv in cases]
    assert sum(1 for _, inv in cases if inv.fixed_minus) == 52
