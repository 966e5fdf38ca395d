"""serialize.dumps against json.dumps(obj, indent=2) + "\\n", byte for byte."""

import json
from fractions import Fraction

import pytest

from skewlie import character_table, decomposition_report, form_report
from skewlie.catalog import CATALOG_SPECS, builtin_involutions, catalog_groups, linear_fixtures
from skewlie.cli import main
from skewlie.serialize import chunks, dumps
from skewlie.verify import FORMS_ORDER_LIMIT, run_verification


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


SHARED = ["1", "-1/2", "0"]
CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    [[], {}, (), [[]], [{}], {"x": [[], {}]}],
    ("t", ("u", ()), [("v",)]),
    "",
    "café ☃ \U0001d11e",
    "tab\tnewline\nreturn\rnul\x00 esc\x1b del\x7f quote\" backslash\\ slash/",
    {"ключ": "ü", "nl\nkey": ["\x01", " "]},
    {"": "", "e": {"": []}},
    [True, 1, False, 0, None, -1, -7, 10**30, -(10**30)],
    {"true": True, "one": 1, "false": False, "zero": 0, "none": None},
    # one list at depths 1, 2, 3 and 4, and twice at one depth
    [SHARED, [SHARED, SHARED], [[SHARED]], {"k": [SHARED]}, SHARED],
    {"a": SHARED, "b": [SHARED, ("x", SHARED)]},
    [["a", 1], ["a", "b"], [["a"], "b"]],
]


@pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
def test_dumps_matches_json(obj):
    assert dumps(obj) == reference(obj)
    assert "".join(chunks(obj)) == dumps(obj)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, {1, 2}, b"x", object(), {1: "a"},
                                 [1, [Fraction(1, 3)]]])
def test_dumps_rejects_what_skewlie_never_emits(bad):
    with pytest.raises(TypeError):
        dumps(bad)


def _outputs():
    """Every JSON object skewlie prints for the catalog and the linear fixtures."""
    for group in catalog_groups():
        table = character_table(group)
        yield f"chartab {group.name}", table.to_json()
        for label, inv in builtin_involutions(group):
            report = decomposition_report(group, inv, table=table)
            yield f"decompose {group.name} {label}", report.to_json()
            if group.order <= FORMS_ORDER_LIMIT:
                yield f"form {group.name} {label}", form_report(inv, seed=0)
    for label, group, inv in linear_fixtures():
        yield f"decompose {label}", decomposition_report(group, inv).to_json()
        yield f"form {label}", form_report(inv, seed=0)
    yield "verify", run_verification().to_json()


def test_every_output_matches_json():
    assert [name for name, obj in _outputs() if dumps(obj) != reference(obj)] == []


def test_group_info_matches_json(capsys):
    """group-info builds its dict inside the CLI; its text must read back to itself."""
    for spec in CATALOG_SPECS:
        assert main(["group-info", "--group", spec]) == 0
        out = capsys.readouterr().out
        assert out == reference(json.loads(out)), spec
