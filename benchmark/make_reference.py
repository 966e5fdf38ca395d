"""Write the unit pool and the reference outputs the benchmark judges against.

    python3 benchmark/make_reference.py

Run it only on a commit whose outputs are trusted.  It picks each linear
group's pool of units, then sends every request of every workload, for every
unit of the pool, and stores the mathematical content of each output (see
client.content) in reference.json.  It takes about ten minutes.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCE  # noqa: E402

CANDIDATES = 8
SPREAD = 1.08


def unit_seconds(spec: str, coeffs) -> float:
    """CPU seconds of the decompose and form requests of one unit, best of two."""
    text = workloads.conjugated_canonical(workloads.build_group(spec), coeffs)
    best = float("inf")
    for _ in range(2):
        t0 = time.process_time()
        for kind in ("decompose", "form"):
            client.send(workloads.Request(kind, spec, text, 0, kind))
        best = min(best, time.process_time() - t0)
    return best


def unit_pool(spec: str) -> list[list[int]]:
    """UNIT_POOL of the first CANDIDATES units, chosen so their costs lie close.

    Among the units the draw accepts, one can still cost twice another.  The
    pool is the cheapest run of UNIT_POOL units, in order of cost, whose
    dearest costs at most SPREAD times its cheapest, or else the tightest run.
    Then the seed changes which unit a request uses but hardly the work.
    """
    units = list(islice(workloads.unit_candidates(spec), CANDIDATES))
    costs = [unit_seconds(spec, u) for u in units]
    order = sorted(range(len(units)), key=costs.__getitem__)
    k = workloads.UNIT_POOL
    ratios = [costs[order[i + k - 1]] / costs[order[i]] for i in range(len(units) - k + 1)]
    close = [i for i, r in enumerate(ratios) if r <= SPREAD]
    start = close[0] if close else min(range(len(ratios)), key=ratios.__getitem__)
    chosen = sorted(order[start:start + k])
    print(spec, "unit seconds", [round(c, 3) for c in costs], "chosen", chosen, flush=True)
    return [units[i] for i in chosen]


def all_requests(units: dict) -> list:
    """One request per reference key; seeds do not change the stored content."""
    reqs = {}
    for name in ("chartab-wide", "decompose-mid", "verify-catalog", "selftest"):
        for req in workloads.requests(name, 0):
            reqs[req.key] = req
    for spec in workloads.LINEAR_GROUPS:
        group = workloads.build_group(spec)
        for k, coeffs in enumerate(units[spec]):
            text = workloads.conjugated_canonical(group, coeffs)
            for kind in ("decompose", "form"):
                key = f"{kind} {spec} unit{k}"
                reqs[key] = workloads.Request(kind, spec, text, 0, key)
    return sorted(reqs.values(), key=lambda r: r.key)


def main() -> int:
    units = {spec: unit_pool(spec) for spec in workloads.LINEAR_GROUPS}
    workloads.UNITS.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in units.items()) + "\n}\n")
    references = {}
    for req in all_requests(units):
        text = client.send(req)
        if not client.checks_pass(req, text):
            raise SystemExit(f"{req.key}: a check in the output is false")
        references[req.key] = client.content(req, text)
        print(req.key, flush=True)
    REFERENCE.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
