"""Two-step table flattening: hierarchical -> regular -> key:value text.

Header rows collapse into one name per column (nested as ``upper(lower)``
when several header levels stack), body cells are replicated across every
grid position they span, and the resulting regular table serializes
row-major as ``header: value`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tables import (
    HierarchicalTable,
    RegularTable,
    ValidatedTable,
    validate_table,
)

KV_SEPARATOR = ": "
PAIR_SEPARATOR = ", "
ROW_SEPARATOR = " ; "


@dataclass(frozen=True)
class FlatHeader:
    """One name per grid column, possibly nested like ``a(d)`` or ``a(b(c))``."""

    keys: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.keys)


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


def flatten_headers(table: ValidatedTable) -> FlatHeader:
    """Collapse the header grid into one name per column.

    Walking a column top-down, each distinct cell contributes its text once
    (a cell spanning several header rows is not repeated), empty texts
    contribute nothing, and the remaining level names nest left-to-right:
    ``["a", "d"] -> "a(d)"``, ``["a", "b", "c"] -> "a(b(c))"``.
    """
    keys = []
    for col in range(table.width):
        names: list[str] = []
        previous = None
        for row in table.header_grid:
            owner = row[col]
            if owner is not previous and owner.text:
                names.append(owner.text)
            previous = owner
        keys.append(_nest(names))
    return FlatHeader(keys=tuple(keys))


def expand_body(table: ValidatedTable) -> RegularTable:
    """Replicate every body cell into all grid positions it spans.

    The output keeps the resolved row count and width of the input grid and
    carries the flattened header as its single header row.
    """
    header = flatten_headers(table)
    rows = [[cell.text for cell in row] for row in table.body_grid]
    return RegularTable(title=table.title, header=list(header.keys), rows=rows)


def serialize_row_major(table: RegularTable) -> FlattenedTableText:
    """Emit ``header: value`` pairs, comma-joined within a row, rows joined
    by ``" ; "``. An empty body serializes to the empty string."""
    row_texts = [
        PAIR_SEPARATOR.join(
            f"{key}{KV_SEPARATOR}{value}" for key, value in zip(table.header, row)
        )
        for row in table.rows
    ]
    return FlattenedTableText(
        text=ROW_SEPARATOR.join(row_texts),
        pair_count=len(table.rows) * table.width,
    )


def linearize(table: HierarchicalTable | ValidatedTable) -> FlattenedTableText:
    """Full pipeline: validate (unless already validated), flatten headers,
    expand body, serialize."""
    if not isinstance(table, ValidatedTable):
        table = validate_table(table)
    return serialize_row_major(expand_body(table))
