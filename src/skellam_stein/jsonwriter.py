"""Streaming writer of JSON records, byte for byte ``json.dump(doc, out, indent=2)``.

With ``indent`` set, CPython's ``json`` runs its pure-Python encoder and
``dump`` writes every token as its own ``write`` call; ``dumps`` holds the
whole text at once.  ``dump`` here writes the same text in bounded chunks:

- dicts with string keys are walked;
- lists, 1-D arrays and ``Rows`` go out in blocks of ``_BLOCK`` items,
  1-D arrays read block by block (``arr[i:i+B].tolist()``) and ``Rows``
  built block by block from its columns: floats through
  ``float.__repr__``; flat dicts column by column, each run of dicts with
  one key order and scalar values as one list of tokens per key (one
  ``float.__repr__`` or ``int.__repr__`` map where a column is all floats or
  all ints) joined through one template per key order;
- every other value goes through ``json.dumps(value, indent=2)``, re-indented
  by replacing each newline; json escapes newlines inside strings, so every
  raw newline in its output is layout.

numpy scalars and arrays are written as their ``item()`` and ``tolist()``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from itertools import chain, groupby, repeat
from operator import itemgetter

import numpy as np

# Items per write when a list or 1-D array is streamed.  A block is held
# about three times over (items, their texts, the joined text), so it is
# kept to tens of KB: blocks of 4096 items, which hold all 2047 rows of a
# 2048-bin `verify haar --sweep` record at once, raised its peak RSS by
# about 1 MB.
_BLOCK = 256


class Rows(Sequence):
    """Flat rows {key: column[i]} of equal-length 1-D arrays, each slice's
    dicts built when asked for, so a row table is never held whole."""

    def __init__(self, **columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self[index : index + 1 or None][0]
        return [dict(zip(self.columns, row)) for row in zip(*(c[index].tolist() for c in self.columns.values()))]


def dump(doc, out) -> None:
    """Write doc to the text stream out as json.dump(doc, out, indent=2)
    writes it once numpy values are converted to Python ones."""
    _write_value(out, doc, "")


def _numpy_default(value):
    if isinstance(value, Rows):  # an empty one; others are streamed
        return value[:]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value, pad: str) -> str:
    text = json.dumps(value, indent=2, default=_numpy_default)
    return text.replace("\n", "\n" + pad)


def _float_token(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_token(value) -> str | None:
    """JSON text of a str, int, float, bool, None or numpy scalar; else None."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_token(value)
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _row_template(keys: tuple, pad: str) -> tuple[list[str], str] | None:
    """The text before each value of a flat dict with these keys at
    indentation pad, and the text that closes it."""
    if not keys or not all(isinstance(k, str) for k in keys):
        return None
    inner = pad + "  "
    heads = [(",\n" if i else "{\n") + inner + json.dumps(k) + ": " for i, k in enumerate(keys)]
    return heads, "\n" + pad + "}"


def _column_tokens(column: list) -> list:
    """JSON tokens of one key's values over a run of rows: one repr map when
    every value is exactly a float or exactly an int (a bool column must
    print true/false), else _scalar_token per value, None where none fits."""
    kinds = set(map(type, column))
    if kinds == {float}:
        tokens = list(map(float.__repr__, column))
        if "n" in "".join(tokens):  # nan or inf, which json spells NaN and Infinity
            tokens = list(map(_float_token, column))
        return tokens
    if kinds == {int}:
        return list(map(int.__repr__, column))
    return list(map(_scalar_token, column))


def _run_text(rows: list, keys: tuple, template, sep: str) -> str | None:
    """sep.join of the texts of a run of dicts with one key order: one token
    list per key, interleaved with the template's text in one join; None
    when a value is not a scalar."""
    columns = [_column_tokens(list(map(itemgetter(k), rows))) for k in keys]
    if any(None in tokens for tokens in columns):
        return None
    heads, close = template
    parts = [repeat(close + sep + heads[0]), columns[0]]
    for head, tokens in zip(heads[1:], columns[1:]):
        parts += [repeat(head), tokens]
    pieces = list(chain.from_iterable(zip(*parts)))
    pieces[0] = heads[0]  # no row closes before the first
    pieces.append(close)
    return "".join(pieces)


def _item_texts(block, pad: str, sep: str, templates: dict) -> list[str]:
    """Texts of a block's items: one for each run of flat dicts with one key
    order, one for every other item."""
    texts = []
    start = 0
    for keys, run in groupby([tuple(v) if isinstance(v, dict) else None for v in block]):
        stop = start + len(list(run))
        items, start = block[start:stop], stop
        text = None
        if keys is not None:
            if keys not in templates:
                templates[keys] = _row_template(keys, pad)
            if templates[keys] is not None:
                text = _run_text(items, keys, templates[keys], sep)
        if text is not None:
            texts.append(text)
            continue
        for value in items:
            token = _scalar_token(value)
            texts.append(_dumps(value, pad) if token is None else token)
    return texts


def _write_items(out, blocks, pad: str) -> None:
    """Write a non-empty list, given as blocks of items, at indentation pad."""
    inner = pad + "  "
    sep = ",\n" + inner
    lead = "[\n" + inner
    templates: dict = {}  # key tuple -> row template, or None for no template
    for block in blocks:
        try:
            text = sep.join(map(float.__repr__, block))
        except TypeError:  # not a block of floats
            text = sep.join(_item_texts(block, inner, sep, templates))
        else:
            if "n" in text:  # nan or inf, which json spells NaN and Infinity
                text = sep.join(map(_float_token, block))
        out.write(lead + text)
        lead = sep
    out.write("\n" + pad + "]")


def _write_value(out, value, pad: str) -> None:
    """Write value as json.dump lays it out at indentation pad."""
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        inner = pad + "  "
        lead = "{\n" + inner
        for key, item in value.items():
            out.write(lead + json.dumps(key) + ": ")
            _write_value(out, item, inner)
            lead = ",\n" + inner
        out.write("\n" + pad + "}")
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
        _write_items(
            out, (value[i : i + _BLOCK].tolist() for i in range(0, value.size, _BLOCK)), pad
        )
    elif isinstance(value, (list, tuple, Rows)) and value:
        _write_items(out, (value[i : i + _BLOCK] for i in range(0, len(value), _BLOCK)), pad)
    else:
        out.write(_dumps(value, pad))
