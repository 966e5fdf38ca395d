"""JSON helpers: every rational is an exact "p/q" string, never a float."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence


def frac_str(x) -> str:
    """"p/q", or "p" for an integer; an exact int or Fraction prints as itself
    (a bool is not exact here: True prints as 1)."""
    return str(x if type(x) in (int, Fraction) else Fraction(x))


def frac_row(row: Sequence) -> list[str]:
    return [frac_str(x) for x in row]


def frac_matrix(m: Sequence[Sequence]) -> list[list[str]]:
    return [frac_row(row) for row in m]


def dumps(obj) -> str:
    """Deterministic JSON text: fixed key order as constructed, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"
