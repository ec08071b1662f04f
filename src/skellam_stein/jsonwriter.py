"""Streaming writer of JSON records, byte for byte ``json.dump(doc, out, indent=2)``.

With ``indent`` set, CPython's ``json`` runs its pure-Python encoder and
``dump`` writes every token as its own ``write`` call; ``dumps`` holds the
whole text at once.  ``dump`` here writes the same text in bounded chunks:

- dicts with string keys are walked;
- lists, 1-D arrays and ``Rows`` go out in blocks of ``_BLOCK`` items.  A
  block of an array, and a block of each column of a ``Rows`` table, is one
  list of tokens picked by the array's dtype (``_tokens``): one
  ``float.__repr__`` or ``int.__repr__`` map, ``true``/``false``, or
  ``json.dumps`` per value (strings and every other dtype).  A table's
  column lists are interleaved with its keys' text in one join.  A list
  goes item by item, each through ``json.dumps`` as below;
- every other value goes through ``json.dumps(value, indent=2)``, re-indented
  by replacing each newline; json escapes newlines inside strings, so every
  raw newline in its output is layout.

numpy scalars and arrays are written as their ``item()`` and ``tolist()``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain, repeat

import numpy as np

# Items per write when a list, 1-D array or table is streamed.  A block is
# held about three times over (items, their texts, the joined text), so it
# is kept to tens of KB: blocks of 4096 items, which hold all 2047 rows of a
# 2048-bin `verify haar --sweep` record at once, raised its peak RSS by
# about 1 MB.
_BLOCK = 256


class Rows(Sequence):
    """A table as its columns, equal-length 1-D arrays under string keys.
    The renderers read the columns; as a Sequence it is the flat rows
    {key: column[i]}, each slice's dicts built when asked for."""

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
    if isinstance(value, Rows):  # an empty one, or one inside a value json.dumps writes
        return value[:]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value, pad: str) -> str:
    text = json.dumps(value, indent=2, default=_numpy_default)
    return text.replace("\n", "\n" + pad)


def _tokens(column: np.ndarray, pad: str) -> list[str]:
    """JSON texts of the values of a 1-D array at indentation pad, by its
    dtype: floats, ints and bools through one map each (json.dumps where a
    float is nan or inf, which json spells NaN and Infinity), every other
    value through json.dumps."""
    kind = column.dtype.kind
    values = column.tolist()
    if kind == "f":
        return list(map(float.__repr__ if np.isfinite(column).all() else json.dumps, values))
    if kind in "iu":
        return list(map(int.__repr__, values))
    if kind == "b":
        return ["true" if v else "false" for v in values]
    return [_dumps(v, pad) for v in values]


def _table_texts(rows: Rows, pad: str, sep: str):
    """The text of each block of a table's rows at indentation pad, rows
    joined by sep: one token list per column, interleaved with the text
    before each key's value in one join."""
    inner = pad + "  "
    heads = [
        (",\n" if i else "{\n") + inner + json.dumps(k) + ": " for i, k in enumerate(rows.columns)
    ]
    close = "\n" + pad + "}"
    for i in range(0, len(rows), _BLOCK):
        columns = [_tokens(c[i : i + _BLOCK], inner) for c in rows.columns.values()]
        parts = [repeat(close + sep + heads[0]), columns[0]]
        for head, tokens in zip(heads[1:], columns[1:]):
            parts += [repeat(head), tokens]
        pieces = list(chain.from_iterable(zip(*parts)))
        pieces[0] = heads[0]  # no row closes before the first
        pieces.append(close)
        yield "".join(pieces)


def _write_items(out, texts, pad: str) -> None:
    """Write a non-empty list at indentation pad, given the text of each
    block of its items."""
    sep = ",\n" + pad + "  "
    lead = "[\n" + pad + "  "
    for text in texts:
        out.write(lead + text)
        lead = sep
    out.write("\n" + pad + "]")


def _write_value(out, value, pad: str) -> None:
    """Write value as json.dump lays it out at indentation pad."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        lead = "{\n" + inner
        for key, item in value.items():
            out.write(lead + json.dumps(key) + ": ")
            _write_value(out, item, inner)
            lead = sep
        out.write("\n" + pad + "}")
    elif isinstance(value, Rows) and len(value):
        _write_items(out, _table_texts(value, inner, sep), pad)
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
        blocks = (value[i : i + _BLOCK] for i in range(0, value.size, _BLOCK))
        _write_items(out, (sep.join(_tokens(block, inner)) for block in blocks), pad)
    elif isinstance(value, (list, tuple)) and value:
        blocks = (value[i : i + _BLOCK] for i in range(0, len(value), _BLOCK))
        _write_items(out, (sep.join([_dumps(v, inner) for v in block]) for block in blocks), pad)
    else:
        out.write(_dumps(value, pad))
