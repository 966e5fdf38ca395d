"""Command-line front end.

Commands: decompose, form, chartab, verify, group-info.
Exit codes: 0 success, 1 input/config error, 2 mathematical check failure.
All numeric JSON values are exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .cyclotomic import value_text
from .errors import ComputationError, SpecError
from .forms import form_report
from .groups import DEFAULT_MAX_ORDER, build_group, exponent, square_root_count, conjugacy_classes
from .involutions import Involution
from .serialize import chunks
from .verify import run_verification
from .wedderburn import character_table, decomposition_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK = 2

ENV_SEED = "SKEWLIE_SEED"
ENV_MAX_ORDER = "SKEWLIE_MAX_ORDER"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"environment variable {name}={raw!r} is not an integer") from None


def _load_json(spec: str):
    """Inline JSON, or the contents of an existing .json path, parsed; any other spec as given."""
    inline = spec.lstrip().startswith("{")
    if not (inline or spec.endswith(".json") and Path(spec).exists()):
        return spec
    try:
        return json.loads(spec if inline else Path(spec).read_text())
    except RecursionError:
        raise SpecError("JSON input is nested too deeply") from None
    except ValueError as exc:  # not JSON, a file not in UTF-8, or an integer past int()'s cap
        raise SpecError(str(exc)) from None


def _resolve_group(spec: str, max_order: int):
    return build_group(_load_json(spec), max_order)


def _resolve_involution(group, spec: str) -> Involution:
    if spec == "canonical":
        return Involution.canonical(group)
    data = _load_json(spec)
    if data is spec:
        raise SpecError(f"unrecognized involution spec {spec!r}")
    return Involution.from_json(group, data)


def _emit(parts: Iterable[str], out: str | None) -> None:
    """Write the parts in order, to the --out path or to stdout, without joining them."""
    if out:
        with open(out, "w") as fp:
            fp.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _component_lines(report) -> list[str]:
    lines = [f"group {report.group.name}: |G| = {report.group.order}"]
    for c in report.components:
        pair = f" paired with {c.paired_with}" if c.paired_with is not None else ""
        lines.append(
            f"  component {c.component_id}: dim_q={c.dim_q} n={c.degree_n} "
            f"[Z:Q]={c.center_degree} kind={c.kind} type={c.type} "
            f"skew={c.skew_dim_q}{pair}"
        )
    lines.append(
        f"  totals: components={report.sum_components} skew_dim={report.skew_dim}"
    )
    lines.append("  checks: " + " ".join(f"{k}={v}" for k, v in report.checks.items()))
    return lines


def cmd_decompose(args) -> int:
    group = _resolve_group(args.group, args.max_order)
    inv = _resolve_involution(group, args.involution)
    table = character_table(group, prime=args.dixon_prime)
    report = decomposition_report(group, inv, table=table)
    if args.format == "json":
        _emit(chunks(report.to_json()), args.out)
    else:
        _emit(["\n".join(_component_lines(report)) + "\n"], args.out)
    return EXIT_OK if report.all_checks_pass else EXIT_CHECK


def cmd_form(args) -> int:
    group = _resolve_group(args.group, args.max_order)
    inv = _resolve_involution(group, args.involution)
    report = form_report(inv, seed=args.seed)
    if args.format == "json":
        _emit(chunks(report), args.out)
    else:
        lines = [
            f"group {group.name}: {report['symmetry']} form on the regular module",
            "  checks: " + " ".join(f"{k}={v}" for k, v in report["checks"].items()),
        ]
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if all(report["checks"].values()) else EXIT_CHECK


def cmd_chartab(args) -> int:
    group = _resolve_group(args.group, args.max_order)
    table = character_table(group, prime=args.dixon_prime)
    if args.format == "json":
        _emit(chunks(table.to_json()), args.out)
    else:
        header = "class sizes: " + " ".join(str(s) for s in table.classes.sizes())
        rows = [header]
        cells = table.rendered_rows(lambda mv: f"{value_text(table.conductor, mv):>10s}")
        for i, row in enumerate(cells):
            rows.append(f"chi_{i} (deg {table.degrees[i]}): {' '.join(row)}")
        _emit(["\n".join(rows) + "\n"], args.out)
    return EXIT_OK


def cmd_group_info(args) -> int:
    group = _resolve_group(args.group, args.max_order)
    cd = conjugacy_classes(group)
    info = {
        "name": group.name,
        "order": group.order,
        "exponent": exponent(group),
        "abelian": group.is_abelian(),
        "class_sizes": list(cd.sizes()),
        "square_roots_of_identity": square_root_count(group),
    }
    if args.format == "json":
        _emit(chunks(info), args.out)
    else:
        _emit(["\n".join(f"{k}: {v}" for k, v in info.items()) + "\n"], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    summary = run_verification(selector=args.catalog, seed=args.seed, max_order=args.max_order)
    if not summary.lines:
        sys.stderr.write("empty selection\n")
        return EXIT_INPUT
    if args.format == "json":
        _emit(chunks(summary.to_json()), args.out)
    else:
        lines = []
        for line in summary.lines:
            status = "pass" if line.ok else "FAIL"
            detail = f"  {line.detail}" if line.detail and not line.ok else ""
            lines.append(f"{status}  {line.group:32s} {line.name}{detail}")
        lines.append(
            f"{len(summary.lines) - len(summary.failures())}/{len(summary.lines)} checks passed"
        )
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if summary.all_pass else EXIT_CHECK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is an input error: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewlie",
        description="Exact skew-symmetric decomposition of rational group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--group": dict(required=True,
                        help='group spec: "dicyclic:2", inline JSON, or a .json path'),
        "--involution": dict(default="canonical", help='"canonical", inline JSON, or a .json path'),
        "--catalog": dict(default=None, help="selector, e.g. dicyclic:2"),
        "--seed": dict(type=int, default=None),
        "--dixon-prime": dict(type=int, default=None),
    }
    # each command takes only the flags it reads
    for name, run, own, fmt, text in (
        ("decompose", cmd_decompose, ("--group", "--involution", "--dixon-prime"), "json",
         "component classification report"),
        ("form", cmd_form, ("--group", "--involution", "--seed"), "json",
         "adjoint bilinear form on the regular module"),
        ("chartab", cmd_chartab, ("--group", "--dixon-prime"), "json", "exact character table"),
        ("group-info", cmd_group_info, ("--group",), "json", "order, exponent, classes"),
        ("verify", cmd_verify, ("--catalog", "--seed"), "text",
         "run the identity suite over the built-in catalog"),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default=fmt)
        p.add_argument("--max-order", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _env_int(ENV_SEED, 0)
        if args.max_order is None:
            args.max_order = _env_int(ENV_MAX_ORDER, DEFAULT_MAX_ORDER)
        return args.run(args)
    except (SpecError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ComputationError as exc:
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK
    except MemoryError:
        sys.stderr.write(f"error: out of memory in {args.command}; try a smaller group\n")
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
