"""Two-step table flattening: hierarchical header -> one key per column,
then the body written row-major as ``key: value`` pairs.

Header rows collapse into one name per column (nested as ``upper(lower)``
when several header levels stack). The body rows are written straight from
the validated grid, so a cell's text repeats at every position it spans.
``linearize`` is the one place the text's length is bounded: it counts
the text in the same walk that builds the keys, and stops at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .tables import TableValidationError, ValidatedTable

KV_SEPARATOR = ": "
PAIR_SEPARATOR = ", "
ROW_SEPARATOR = " ; "

# Most characters one table may linearize to. ``MAX_GRID_CELLS`` bounds
# grid positions, not text: every key repeats once per body row and every
# cell text once per position it spans.
MAX_LINEARIZED_CHARS = 1_000_000


class LinearizedTextTooLarge(TableValidationError):
    """The table would linearize to more than ``MAX_LINEARIZED_CHARS`` characters."""


@dataclass(frozen=True)
class FlattenedTableText:
    """Serialized table plus the number of ``key: value`` pairs it contains."""

    text: str
    pair_count: int


def _nest(names: list[str]) -> str:
    if not names:
        return ""
    out = names[-1]
    for name in reversed(names[:-1]):
        out = f"{name}({out})"
    return out


def _column_levels(table: ValidatedTable, col: int) -> list[str]:
    """Level names of one column, top-down: each distinct header cell once
    (a cell spanning several header rows is not repeated), empty texts
    skipped."""
    names: list[str] = []
    previous = None
    for row in table.header_grid:
        owner = row[col]
        if owner is not previous and owner.text:
            names.append(owner.text)
        previous = owner
    return names


def flatten_headers(table: ValidatedTable) -> tuple[str, ...]:
    """Collapse the header grid into one name per column.

    The level names of a column (see ``_column_levels``) nest left-to-right:
    ``["a", "d"] -> "a(d)"``, ``["a", "b", "c"] -> "a(b(c))"``.
    """
    return tuple(_nest(_column_levels(table, col)) for col in range(table.width))


def linearize(table: ValidatedTable) -> FlattenedTableText:
    """Flatten headers, then write each body row as ``key: value`` pairs
    joined by ``", "``, rows joined by ``" ; "``; an empty body gives the
    empty string and builds no key.

    One walk bounds the text before writing it: the body cell texts and
    separators are summed from the grid, then each header key is built and
    counted once per body row. The walk raises ``LinearizedTextTooLarge`` as
    soon as the count passes ``MAX_LINEARIZED_CHARS``, so a refused table
    has built at most that many characters of keys plus one key.
    """
    n_rows = table.n_body_rows
    if n_rows == 0:
        return FlattenedTableText(text="", pair_count=0)
    length = (sum(len(cell.text) for cell in chain.from_iterable(table.body_grid))
              + n_rows * (table.width * len(KV_SEPARATOR)
                          + (table.width - 1) * len(PAIR_SEPARATOR))
              + (n_rows - 1) * len(ROW_SEPARATOR))
    keys = []
    for col in range(table.width):
        if length > MAX_LINEARIZED_CHARS:
            break
        key = _nest(_column_levels(table, col))
        keys.append(key + KV_SEPARATOR)
        length += n_rows * len(key)
    if length > MAX_LINEARIZED_CHARS:
        raise LinearizedTextTooLarge(
            f"table would linearize to more than {MAX_LINEARIZED_CHARS} characters")
    return FlattenedTableText(
        text=ROW_SEPARATOR.join(
            PAIR_SEPARATOR.join([key + cell.text for key, cell in zip(keys, row)])
            for row in table.body_grid
        ),
        pair_count=n_rows * table.width,
    )
