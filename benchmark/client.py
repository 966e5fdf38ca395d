"""One request, sent the way the CLI sends it, and the content it is judged by.

`send` goes through the public functions a CLI call uses and looks each one up
on the `skewlie` package at call time, so the tracer's wrappers see it.
`content` extracts only the mathematical content of an output, so that fields a
later change adds to the JSON (labels, failure detail) do not count as wrong.
"""

from __future__ import annotations

import hashlib
import json

import skewlie as sk
import skewlie.verify
from skewlie.serialize import dumps

from workloads import FIXTURES, Request


def _involution(group, text: str):
    return sk.Involution.from_json(group, json.loads(text)).validate()


def emit(make) -> str:
    """The output stage of a CLI call: build the JSON object and serialize it."""
    return dumps(make())


def send(req: Request) -> str:
    """Run one request to its JSON text, as `skewlie <kind>` would print it."""
    if req.kind == "verify":
        if req.group == FIXTURES:
            # no catalog group has order <= 0, so only the linear fixtures run
            summary = sk.verify.run_verification(seed=req.seed, max_order=0)
        else:
            summary = sk.verify.run_verification(
                selector=req.group, seed=req.seed, include_fixtures=False)
        return emit(summary.to_json)
    group = sk.build_group(req.group)
    if req.kind == "chartab":
        return emit(sk.character_table(group).to_json)
    inv = _involution(group, req.involution)
    if req.kind == "decompose":
        table = sk.character_table(group)
        return emit(sk.decomposition_report(group, inv, table=table).to_json)
    if req.kind == "form":
        report = sk.form_report(inv, seed=req.seed)
        return emit(lambda: report)
    raise ValueError(f"unknown request kind {req.kind!r}")


COMPONENT_KEYS = ("id", "dim_q", "center_degree", "degree_n", "kind", "type",
                  "skew_dim_q", "paired_with")
FORM_CHECKS = ("nonsingular", "adjoint_identity", "eq_1_2_matches_skew_span")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def content(req: Request, text: str):
    """The reference value of an output: a digest, or for verify the passed checks."""
    out = json.loads(text)
    if req.kind == "chartab":
        return _digest([out["degrees"], out["class_sizes"], out["characters"]])
    if req.kind == "decompose":
        return _digest([[[c[k] for k in COMPONENT_KEYS] for c in out["components"]],
                        out["totals"]["skew_dim"], out["totals"]["sum_components"]])
    if req.kind == "form":
        return _digest([out["symmetry"], [out["checks"][k] for k in FORM_CHECKS]])
    return sorted(f"{c['group']} / {c['name']}" for c in out["checks"] if c["ok"] is True)


def checks_pass(req: Request, text: str) -> bool:
    """Every check the output itself reports is true."""
    out = json.loads(text)
    if req.kind == "chartab":
        return True
    if req.kind == "verify":
        return all(c["ok"] is True for c in out["checks"])
    return all(v is True for v in out["checks"].values())


def matches(req: Request, text: str, reference) -> bool:
    """The output holds the reference's content; verify may hold extra checks."""
    got = content(req, text)
    if req.kind == "verify":
        return set(reference) <= set(got)
    return got == reference
