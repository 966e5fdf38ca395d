"""Spans around the public functions of skewlie, recorded from outside the package.

`Tracer.install` wraps each function in LAYERS and rebinds the wrapper under
the same name in every namespace that binds the original, so calls made from
inside the package are seen too; `Involution.validate` is wrapped on the class.
Spans stay in memory as (name, start, end, parent, request, sizes) and are
written out at the end of the run.  An untraced run never installs the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import skewlie.verify  # noqa: F401  (loads the last module that binds a traced name)
from skewlie.involutions import Involution

# (module, function) pairs; the span name is "module.function"
LAYERS = (
    ("groups", "build_group"),
    ("groups", "conjugacy_classes"),
    ("wedderburn", "class_structure_constants"),
    ("wedderburn", "character_table"),
    ("wedderburn", "galois_orbits"),
    ("wedderburn", "rational_idempotents"),
    ("wedderburn", "table_orthogonality"),
    ("wedderburn", "idempotent_axioms_hold"),
    ("indicators", "indicator_report"),
    ("wedderburn", "classify_components"),
    ("wedderburn", "component_skew_dim"),
    ("wedderburn", "sigma_action_on_components"),
    ("wedderburn", "decomposition_report"),
    ("involutions", "skew_space"),
    ("forms", "realize_adjoint_form"),
    ("forms", "check_adjoint_identity"),
    ("forms", "skew_adjoint_space"),
    ("forms", "integral_skew_lattice"),
    ("verify", "verify_group"),
)
VALIDATE = "involutions.Involution.validate"
TABLE = "wedderburn.character_table"
# The output stage of a request, to_json included; client.emit is wrapped under this name.
DUMPS = "serialize.dumps"


# Problem sizes recorded on a span from the result of its call: the order n,
# class count s, conductor e and Dixon prime p of a table, the number of
# Wedderburn components, and the kind of an involution.
SIZES = {
    "groups.build_group": lambda group: {"n": group.order},
    TABLE: lambda table: {"n": table.group.order, "s": len(table),
                          "e": table.conductor, "p": table.prime},
    "wedderburn.galois_orbits": lambda orbits: {"components": len(orbits)},
    VALIDATE: lambda inv: {"kind": inv.kind},
}


class Tracer:
    """Spans of one run, each [name, start, end, parent, request, sizes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.on = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, None])
        self._stack.append(index)
        return index

    def close(self, index: int, sizes: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = sizes

    def wrap(self, name: str, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, sizes(result) if sizes and result is not None else None)

        return traced

    def install(self, client) -> None:
        """Wrap every layer, rebinding it in skewlie's modules and in `client`."""
        modules = [m for k, m in sys.modules.items() if k == "skewlie" or k.startswith("skewlie.")]
        modules.append(client)
        for module_name, attr in LAYERS:
            original = getattr(sys.modules[f"skewlie.{module_name}"], attr)
            traced = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
        Involution.validate = self.wrap(VALIDATE, Involution.validate)
        client.emit = self.wrap(DUMPS, client.emit)


def layer_totals(spans) -> dict[str, dict]:
    """Self time and call count per span name.

    Self time is the span's duration minus that of its direct children; spans
    nest strictly because requests run one at a time on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for i, (name, start, end, _, _, _) in enumerate(spans):
        totals[name]["self_s"] += end - start - child[i]
        totals[name]["calls"] += 1
    return totals


# Per-layer metrics reported by a traced run, as (layer, statistic).
# calls_per_table is calls divided by character_table calls; its ideal is 1.
METRICS = (
    ("groups.build_group", "self_s"),
    ("groups.conjugacy_classes", "self_s"),
    ("wedderburn.class_structure_constants", "self_s"),
    (TABLE, "self_s"),
    (TABLE, "calls"),
    ("wedderburn.galois_orbits", "self_s"),
    ("wedderburn.rational_idempotents", "self_s"),
    ("wedderburn.table_orthogonality", "self_s"),
    ("wedderburn.table_orthogonality", "calls"),
    ("wedderburn.table_orthogonality", "calls_per_table"),
    ("wedderburn.idempotent_axioms_hold", "self_s"),
    ("wedderburn.idempotent_axioms_hold", "calls_per_table"),
    ("indicators.indicator_report", "self_s"),
    ("indicators.indicator_report", "calls_per_table"),
    ("wedderburn.classify_components", "self_s"),
    ("wedderburn.component_skew_dim", "self_s"),
    ("wedderburn.component_skew_dim", "calls"),
    ("wedderburn.sigma_action_on_components", "self_s"),
    ("wedderburn.decomposition_report", "self_s"),
    ("wedderburn.decomposition_report", "calls"),
    (VALIDATE, "self_s"),
    ("involutions.skew_space", "self_s"),
    ("involutions.skew_space", "calls"),
    ("forms.realize_adjoint_form", "self_s"),
    ("forms.check_adjoint_identity", "self_s"),
    ("forms.skew_adjoint_space", "self_s"),
    ("forms.skew_adjoint_space", "calls"),
    ("forms.integral_skew_lattice", "self_s"),
    (DUMPS, "self_s"),
    ("verify.verify_group", "self_s"),
)
UNITS = {"self_s": "s", "calls": "count", "calls_per_table": "ratio"}


def layer_metrics(spans) -> dict[str, dict]:
    """The METRICS of one traced pass, keyed "layer.statistic"."""
    totals = layer_totals(spans)
    tables = totals[TABLE]["calls"] if TABLE in totals else 0
    out = {}
    for layer, stat in METRICS:
        got = totals.get(layer, {"self_s": 0.0, "calls": 0})
        if stat == "calls_per_table":
            value = got["calls"] / tables if tables else 0.0
        else:
            value = got[stat]
        out[f"{layer}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    return out
