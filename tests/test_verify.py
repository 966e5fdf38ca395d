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
