"""JSON helpers: every rational is an exact "p/q" string, never a float, and the
one writer of indent-2 JSON text, in pieces or joined."""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence


def frac_str(x) -> str:
    """"p/q", or "p" for an integer; an exact int or Fraction prints as itself
    (a bool is not exact here: True prints as 1)."""
    return str(x if type(x) in (int, Fraction) else Fraction(x))


def frac_row(row: Sequence) -> list[str]:
    return [frac_str(x) for x in row]


def chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2) + "\\n"`` in pieces, for dicts with
    str keys, lists, tuples, str, int, bool and None; anything else is a TypeError.

    A list of strings is rendered in one join and kept by (id, depth) until the
    text is done, so a list that the object holds many times is formatted once.
    """
    memo: dict = {}
    text = _whole(obj, 0, memo)
    if text is None:
        yield from _pieces(obj, 0, memo)
    else:
        yield text
    yield "\n"


def dumps(obj) -> str:
    """Deterministic JSON text: fixed key order as constructed, trailing newline."""
    return "".join(chunks(obj))


def _whole(o, depth: int, memo: dict) -> str | None:
    """The text of o at this depth if it is a scalar, empty or a list of strings;
    None for any other dict, list or tuple."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        key = (id(o), depth)
        text = memo.get(key)
        if text is None and all(isinstance(x, str) for x in o):
            inner = "\n" + "  " * (depth + 1)
            text = memo[key] = ("[" + inner + ("," + inner).join(map(encode_basestring_ascii, o))
                                + inner[:-2] + "]")
        return text
    if isinstance(o, dict):
        return None if o else "{}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return encode_basestring_ascii(k) + ": "


def _pieces(o, depth: int, memo: dict) -> Iterator[str]:
    """The text of a nonempty dict, list or tuple that _whole does not render."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(o, dict):
        sep, close, items, keyed = "{" + inner, "}", o.items(), True
    else:
        sep, close, items, keyed = "[" + inner, "]", enumerate(o), False
    for k, x in items:
        head = sep + _key(k) if keyed else sep
        text = _whole(x, depth + 1, memo)
        if text is None:
            yield head
            yield from _pieces(x, depth + 1, memo)
        else:
            yield head + text
        sep = "," + inner
    yield inner[:-2] + close
