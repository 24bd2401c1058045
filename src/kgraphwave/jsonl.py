"""JSON-lines text of the path-space listings, rendered from columns.

A listing record is a fixed template whose holes are filled with the JSON
text of edge ids, vertex names, small integers and floats.  Here every such
text is made once and the records are joined from columns of texts:

- `strings` makes the text of each name, once per graph;
- `numbers` makes the text of each float, once per distinct bit pattern, so
  -0.0, NaN and Infinity read exactly as `json.dumps` writes them;
- `word_lists` makes the inside of the JSON list of each word row;
- `cells` and `text` lay columns of texts side by side, row by row;
- `int_matrix` makes the text of an integer matrix from its nonzeros.

The output equals ``"".join(json.dumps(r) + "\\n" for r in records)`` for the
records the same columns describe; `parse` reads such text back as dicts.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np


def _column(texts: list[str]) -> np.ndarray:
    out = np.empty(len(texts), dtype=object)
    out[:] = texts
    return out


def strings(items: Sequence[str]) -> np.ndarray:
    """The JSON text of each string, as an object array."""
    return _column([json.dumps(s) for s in items])


def integers(count: int) -> np.ndarray:
    """The JSON text of 0, 1, ..., count - 1, as an object array."""
    return _column([str(i) for i in range(count)])


def numbers(values: np.ndarray) -> np.ndarray:
    """The JSON text of each float, as an object array.

    Each distinct bit pattern is formatted once, by one `json.dumps` of the
    distinct values: float texts hold no ``", "``, so the list text splits
    back into them.  Bit patterns, unlike values, keep -0.0 apart from 0.0
    and every NaN apart from every number.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    out = np.empty(len(bits), dtype=object)
    if not len(bits):
        return out
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = _column(json.dumps(ranked[first].view(np.float64).tolist())[1:-1].split(", "))
    out[order] = distinct[np.cumsum(first) - 1]
    return out


def word_lists(texts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The inside of the JSON list of each row of ``words``, whose entries
    index ``texts``: one string per row."""
    return _column([", ".join(row) for row in texts[words].tolist()])


def _table(columns) -> list:
    """The cells of the columns row by row; a str column repeats."""
    rows = max((len(c) for c in columns if not isinstance(c, str)), default=1)
    table = np.empty((rows, len(columns)), dtype=object)
    for i, column in enumerate(columns):
        table[:, i] = column
    return table.ravel().tolist()


def text(*columns) -> str:
    """The columns joined row by row into one string."""
    return "".join(_table(columns))


def cells(*columns) -> np.ndarray:
    """The columns joined within each row: one string per row, as an object
    array.  No cell may hold a newline (JSON text never does)."""
    return _column(text(*columns, "\n").split("\n")[:-1])


def int_matrix(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
               values: np.ndarray) -> str:
    """``json.dumps(m.tolist())`` for the int matrix ``m`` of this shape whose
    nonzeros are ``values`` at ``(rows, cols)``, given in row-major order.

    The text is one join of a table with a row per nonzero and per row end:
    the zeros before it, each run a slice of one ``"0, " * columns`` string,
    then the nonzero's text and its comma, or at a row end what closes it.
    """
    n, columns = shape
    if not n * columns:
        return json.dumps([[]] * n)
    ends = np.searchsorted(rows, np.arange(n), side="right") + np.arange(n)  # after row r's nonzeros
    nonzero = np.ones(len(rows) + n, dtype=bool)
    nonzero[ends] = False
    col = np.full(len(nonzero), columns, dtype=np.intp)
    col[nonzero] = cols
    previous = np.concatenate([[-1], col[:-1]])  # the column before each piece in its row
    previous[ends[:-1] + 1] = -1
    gaps = 3 * (col - previous - 1)  # the length of the zeros' text before each piece
    gaps[ends] = np.maximum(gaps[ends] - 2, 0)  # a row's last zero has no comma
    zeros = "0, " * columns
    table = np.empty((len(col), 3), dtype=object)
    table[:, 0] = [zeros[:g] for g in gaps.tolist()]
    table[nonzero, 1] = [str(v) for v in values.tolist()]
    table[nonzero, 2] = np.where(col[nonzero] < columns - 1, ", ", "")
    table[ends, 1:] = "", "], ["
    table[0, 0], table[ends[-1], 2] = "[[" + table[0, 0], "]]"
    return "".join(table.ravel().tolist())


def listing(heads: np.ndarray, term_heads: np.ndarray, members) -> str:
    """One record per member, ``{<head>, "terms": [<term>, ...]}``, each
    term ``<term head><value>}``.

    ``members`` gives, for each head, the positions its terms sit at, in
    ascending order, and their values; exact zeros, -0.0 too, are left out.
    The text is one join of a table with a row per term (per member if it
    keeps none): the member's head where its record opens, the term, and
    what follows it.
    """
    members = list(members)
    at = np.concatenate([a for a, _ in members]) if members else np.empty(0, dtype=np.intp)
    values = np.concatenate([v for _, v in members]) if members else np.empty(0)
    owner = np.repeat(np.arange(len(members)), [len(a) for a, _ in members])
    keep = values != 0.0
    counts = np.bincount(owner[keep], minlength=len(members))
    rows = np.maximum(counts, 1)
    first = np.cumsum(rows) - rows
    table = np.full((rows.sum(), 5), "", dtype=object)
    table[first, 0], table[first, 1] = heads, ', "terms": ['
    filled = np.repeat(counts > 0, rows)
    table[filled, 2], table[filled, 3] = term_heads[at[keep]], numbers(values[keep])
    table[:, 4] = "}, "
    table[first + rows - 1, 4] = np.where(counts > 0, "}]}\n", "]}\n").astype(object)
    return "".join(table.ravel().tolist())


def parse(lines: str) -> list[dict]:
    """The records of JSON-lines text."""
    return [json.loads(line) for line in lines.split("\n") if line]
