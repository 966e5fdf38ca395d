"""JSON helpers: every rational is an exact "p/q" string, never a float, and the
one writer of indent-2 JSON text, in pieces or joined."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Iterator


def frac_str(x) -> str:
    """"p/q", or "p" for an integer; an exact int or Fraction prints as itself
    (a bool is not exact here: True prints as 1)."""
    return str(x if type(x) in (int, Fraction) else Fraction(x))


def chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2) + "\\n"`` in pieces, for dicts with
    str keys, lists, tuples, str, int, bool and None; anything else is a TypeError.

    A list of strings is rendered in one join and kept by (id, depth) until the
    text is done, so a list that the object holds many times is formatted once.  A
    dict or list whose items all render so, or are scalars, is one piece.
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
    """The text of a nonempty dict, list or tuple that _whole does not render: in one
    join if every item renders whole, else item by item."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(o, dict):
        opener, close, heads, items = "{", "}", map(_key, o), o.values()
    else:
        opener, close, heads, items = "[", "]", repeat(""), o
    texts = list(map(memo.get, zip(map(id, items), repeat(depth + 1))))  # lists rendered before
    if None in texts:
        texts = [_whole(x, depth + 1, memo) if t is None else t for t, x in zip(texts, items)]
    if None not in texts:
        yield opener + inner + ("," + inner).join(map(add, heads, texts)) + inner[:-2] + close
        return
    sep = opener + inner
    for head, x, text in zip(heads, items, texts):
        if text is None:
            yield sep + head
            yield from _pieces(x, depth + 1, memo)
        else:
            yield sep + head + text
        sep = "," + inner
    yield inner[:-2] + close
