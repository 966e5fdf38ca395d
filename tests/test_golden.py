"""Golden digests of what the CLI prints, frozen before refactors.

Each entry is the sha256 of ``dumps(...)`` of one request: ``chartab``,
``decompose`` and ``form`` for every catalog group of order <= 12 under every
built-in involution, ``decompose`` and ``form`` for the linear fixtures,
``verify`` for each of those catalog groups alone and for the fixtures alone,
``chartab`` for the wider groups of WIDE_CHARTAB (24 to 64 classes), for
every other catalog group of order > 12, and ``chartab`` and ``decompose``
under every built-in involution for the groups of LARGE_CHARTAB and METACYCLIC,
``sign_characters`` in order for the groups of SIGN_CHARACTER_GROUPS, ``form``
for every catalog group of order <= FORM_MAX_ORDER under every built-in
involution and for the fixtures at each seed of FORM_SEEDS, and ``form`` under
the canonical involution for the groups of LARGE_FORM_GROUPS, seed 0.  The
``chartab-text`` entries are the sha256 of the file that ``skewlie chartab
--format text --out`` writes, for the same catalog groups and WIDE_CHARTAB.
Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when an
output is meant to change.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from skewlie import (
    Involution,
    build_group,
    character_table,
    decomposition_report,
    form_report,
    sign_characters,
)
from skewlie import cli
from skewlie.catalog import CATALOG_SPECS, builtin_involutions, catalog_groups, linear_fixtures
from skewlie.serialize import dumps
from skewlie.verify import run_verification

GOLDEN = Path(__file__).with_name("golden_digests.json")
MAX_ORDER = 12
WIDE_CHARTAB = (
    [f"cyclic:{n}" for n in (24, 30, 32, 36, 40, 42, 45, 48, 56, 60)]
    + [f"abelian:{a}" for a in ("2,2,2,2,2", "3,3,3", "4,4,4", "2,4,8", "2,2,2,2,2,2")]
    + ["dicyclic:15", "dihedral:30"]
    + ["product:cyclic:5,dicyclic:4", "product:cyclic:9,dicyclic:2",
       "product:cyclic:8,alternating:4"]
)
LARGE_CHARTAB = ("cyclic:120", "dihedral:128", "product:alternating:5,dicyclic:4")
# second-kind components of degree 3 and 5, a center of degree 4, and 2-groups
METACYCLIC = tuple(f"metacyclic:{p}" for p in (
    "7,3,2,0", "13,3,3,0", "11,5,3,0", "9,3,4,0", "16,2,7,0", "3,8,2,0"))
# every catalog group, the benchmark's decompose-mid groups outside the
# catalog, and two groups with many sign characters or many elements
SIGN_CHARACTER_GROUPS = CATALOG_SPECS + (
    "dicyclic:12", "dihedral:24", "product:symmetric:3,cyclic:4",
    "abelian:2,2,2,2,2,2,2,2", "dihedral:500",
)
# the order cap of the verify forms, and two groups above it
FORM_MAX_ORDER = 24
FORM_SEEDS = (0, 1, 2)
LARGE_FORM_GROUPS = ("dihedral:32", "dihedral:64")


def _sha(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def _text_chartab_sha(spec: str, tmp: Path) -> str:
    path = tmp / "chartab.txt"
    assert cli.main(["chartab", "--group", spec, "--format", "text", "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in [g.name for g in catalog_groups(max_order=MAX_ORDER)] + WIDE_CHARTAB:
            out[f"chartab-text {spec}"] = _text_chartab_sha(spec, Path(tmp))
    for group in catalog_groups(max_order=MAX_ORDER):
        table = character_table(group)
        out[f"chartab {group.name}"] = _sha(table.to_json())
        for label, inv in builtin_involutions(group):
            report = decomposition_report(group, inv, table=table)
            out[f"decompose {group.name} {label}"] = _sha(report.to_json())
            out[f"form {group.name} {label}"] = _sha(form_report(inv, seed=0))
        summary = run_verification(selector=group.name, include_fixtures=False)
        out[f"verify {group.name}"] = _sha(summary.to_json())
    for label, group, inv in linear_fixtures():
        out[f"decompose {label}"] = _sha(decomposition_report(group, inv).to_json())
        out[f"form {label}"] = _sha(form_report(inv, seed=0))
    # no catalog group has order <= 0, so only the linear fixtures run
    out["verify fixtures"] = _sha(run_verification(max_order=0).to_json())
    above = [g.name for g in catalog_groups() if g.order > MAX_ORDER and g.name not in WIDE_CHARTAB]
    for spec in WIDE_CHARTAB + above:
        out[f"chartab {spec}"] = _sha(character_table(build_group(spec)).to_json())
    for spec in LARGE_CHARTAB + METACYCLIC:
        group = build_group(spec)
        table = character_table(group)
        out[f"chartab {spec}"] = _sha(table.to_json())
        for label, inv in builtin_involutions(group):
            report = decomposition_report(group, inv, table=table)
            out[f"decompose {spec} {label}"] = _sha(report.to_json())
    for spec in SIGN_CHARACTER_GROUPS:
        out[f"sign_characters {spec}"] = _sha(sign_characters(build_group(spec)))
    form_cases = [(f"{group.name} {label}", inv)
                  for group in catalog_groups(max_order=FORM_MAX_ORDER)
                  for label, inv in builtin_involutions(group)]
    form_cases += [(label, inv) for label, _, inv in linear_fixtures()]
    for label, inv in form_cases:
        for seed in FORM_SEEDS:
            out[f"form {label} seed={seed}"] = _sha(form_report(inv, seed=seed))
    for spec in LARGE_FORM_GROUPS:
        inv = Involution.canonical(build_group(spec))
        out[f"form {spec} canonical seed=0"] = _sha(form_report(inv, seed=0))
    return out


def test_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    assert [k for k in expected if got[k] != expected[k]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
