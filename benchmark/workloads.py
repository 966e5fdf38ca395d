"""Request lists of the benchmark workloads.

A request is what one CLI call does: the group spec and the involution travel
as text, exactly as a user would pass them, and the request builds its group
afresh.  The seed picks the request order, the `form` and `verify` seeds and,
on `linear-sigma`, which unit of each group's pool conjugates the canonical
involution.  The group lists are fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from skewlie import AlgebraElement, ComputationError, build_group, catalog
from skewlie.serialize import frac_str

# chartab-wide: the table layers alone, with 24 to 64 classes and Dixon primes
# up to about 1000; nothing is classified.
CHARTAB_GROUPS = (
    [f"cyclic:{n}" for n in (24, 30, 32, 36, 40, 42, 45, 48, 56, 60)]
    + [f"abelian:{a}" for a in ("2,2,2,2,2", "3,3,3", "4,4,4", "2,4,8", "2,2,2,2,2,2")]
    + ["dicyclic:15", "dihedral:30"]
    + ["product:cyclic:5,dicyclic:4", "product:cyclic:9,dicyclic:2",
       "product:cyclic:8,alternating:4"]
)

# decompose-mid: each group under every built-in involution; classification
# and the idempotent checks dominate and the table is 3% or less.
DECOMPOSE_GROUPS = (
    "symmetric:4", "dicyclic:6", "dihedral:12", "dicyclic:12", "dihedral:24",
    "alternating:5", "product:symmetric:3,cyclic:4",
)

# linear-sigma: decompose and form under linear involutions, the dense-matrix
# branch that elsewhere only the four small fixtures reach.
LINEAR_GROUPS = (
    "dihedral:6", "dicyclic:3", "alternating:4", "dihedral:8", "symmetric:4",
    "dicyclic:6", "dihedral:12", "dihedral:16", "dicyclic:8", "dihedral:24",
    "dicyclic:12", "product:symmetric:4,cyclic:2",
)

# Each linear group has a fixed pool of UNIT_POOL conjugating units, stored in
# UNITS by make_reference.py, so that every request a seed can make has a
# stored reference.
UNIT_POOL = 3
UNITS = Path(__file__).resolve().parent / "units.json"

FIXTURES = "fixtures"


@dataclass(frozen=True)
class Request:
    kind: str                 # chartab | decompose | form | verify
    group: str                # group spec; for verify the catalog selector or FIXTURES
    involution: str | None    # involution JSON text, as given on the command line
    seed: int                 # seed of form and verify
    key: str                  # names the request and its stored reference

    def to_json(self) -> dict:
        return {"kind": self.kind, "group": self.group, "key": self.key, "seed": self.seed}


def _chartab() -> list[Request]:
    return [Request("chartab", g, None, 0, f"chartab {g}") for g in CHARTAB_GROUPS]


def _decompose() -> list[Request]:
    out = []
    for spec in DECOMPOSE_GROUPS:
        for label, inv in catalog.builtin_involutions(build_group(spec)):
            text = json.dumps(inv.to_json())
            out.append(Request("decompose", spec, text, 0, f"decompose {spec} {label}"))
    return out


def _verify(seed: int) -> list[Request]:
    """verify-catalog: `skewlie verify` split into one request per catalog group,
    plus one for the linear fixtures; the only workload where one table serves
    several involutions."""
    out = [Request("verify", spec, None, seed, f"verify {spec}") for spec in catalog.CATALOG_SPECS]
    out.append(Request("verify", FIXTURES, None, seed, f"verify {FIXTURES}"))
    return out


def conjugated_canonical(group, coeffs) -> str:
    """sigma_u(x) = u^-1 sigma(x) u for the unit u with these coefficients, as JSON text.

    The matrix is that of catalog.conjugated_canonical_involution, built
    without its validation: validating is part of every request that uses it.
    """
    unit = AlgebraElement(group, coeffs)
    inverse = catalog.algebra_unit_inverse(unit)
    n = group.order
    cols = [(inverse * AlgebraElement.basis(group, group.inv[g]) * unit).coeffs
            for g in range(n)]
    matrix = [[frac_str(cols[g][h]) for g in range(n)] for h in range(n)]
    return json.dumps({"kind": "linear", "matrix": matrix})


def unit_candidates(spec: str):
    """Conjugating units of one group, as coefficient lists, in a fixed order.

    Each unit is u = a + b(g + g^-1) [+ c(h + h^-1)] with small integer
    coefficients, so the canonical involution fixes it.  Draws repeat until u
    is invertible, sigma_u is no signed permutation, and u^-1 has 4 to 6
    terms; units with a denser inverse cost up to four times as much.
    """
    group = build_group(spec)
    n = group.order
    rng = random.Random(f"unit-pool {spec}")
    while True:
        coeffs = [0] * n
        coeffs[0] = rng.choice((1, 2, 3))
        for g in rng.sample(range(1, n), rng.choice((1, 2))):
            c = rng.choice((-2, -1, 1, 2))
            coeffs[g] += c
            coeffs[group.inv[g]] += c
        try:
            inverse = catalog.algebra_unit_inverse(AlgebraElement(group, coeffs))
        except ComputationError:
            continue
        if not 4 <= sum(1 for c in inverse.coeffs if c) <= 6:
            continue
        columns = json.loads(conjugated_canonical(group, coeffs))["matrix"]
        if all([x for x in row if x != "0"] in (["1"], ["-1"]) for row in columns):
            continue
        yield coeffs


def _linear(seed: int, rng: random.Random) -> list[Request]:
    units = json.loads(UNITS.read_text())
    out = []
    for spec in LINEAR_GROUPS:
        k = rng.randrange(UNIT_POOL)
        text = conjugated_canonical(build_group(spec), units[spec][k])
        out.append(Request("decompose", spec, text, 0, f"decompose {spec} unit{k}"))
        out.append(Request("form", spec, text, seed, f"form {spec} unit{k}"))
    return out


def _selftest(seed: int) -> list[Request]:
    spec = "dicyclic:2"
    canonical = json.dumps({"kind": "canonical"})
    return [
        Request("chartab", spec, None, 0, f"chartab {spec}"),
        Request("decompose", spec, canonical, 0, f"decompose {spec} canonical"),
        Request("form", spec, canonical, seed, f"form {spec} canonical"),
        Request("verify", spec, None, seed, f"verify {spec}"),
    ]


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's request list for one seed, in the order it is sent."""
    rng = random.Random(seed)
    if workload == "chartab-wide":
        out = _chartab()
    elif workload == "decompose-mid":
        out = _decompose()
    elif workload == "verify-catalog":
        out = _verify(seed)
    elif workload == "linear-sigma":
        out = _linear(seed, rng)
    elif workload == "selftest":
        out = _selftest(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
