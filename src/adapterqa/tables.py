"""Table ingest: a table's JSON checked once and resolved onto occupancy grids.

A hierarchical table is a title plus header rows and body rows of span
carrying cells. ``validate_table`` checks every cell of a table's JSON
object and places it on a rectangular grid (each grid position owned by
exactly one cell), so that downstream flattening can reason about columns
instead of raw cell lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, SchemaError, check_int

# Most grid positions ((header rows + body rows) x width) a table may
# resolve to: spans let a few bytes claim any area, and linearize writes one
# pair per body position.
MAX_GRID_CELLS = 100_000

# C0 and C1 control characters, each mapped to a space.
_CONTROL_TO_SPACE = dict.fromkeys([*range(0x20), *range(0x7F, 0xA0)], " ")

_CELL_KEYS = frozenset({"text", "colspan", "rowspan"})


def normalize_text(text: str) -> str:
    """Trim surrounding whitespace and collapse internal runs (including
    control characters) to single spaces."""
    # Printable text holds no control character, so the translation is
    # skipped for it.
    if not text.isprintable():
        text = text.translate(_CONTROL_TO_SPACE)
    return " ".join(text.split())


class TableValidationError(InputError):
    """A table's span layout cannot be resolved onto a rectangular grid."""


class OverlappingSpans(TableValidationError):
    """Two cells claim the same grid position."""


class RaggedGrid(TableValidationError):
    """Rows resolve to different widths or leave uncovered positions."""


class SpanOutOfBounds(TableValidationError):
    """A rowspan or colspan extends past the edge of the grid."""


class EmptyGrid(TableValidationError):
    """The table resolves to a grid with no rows or no columns."""


class GridTooLarge(TableValidationError):
    """The resolved grid would hold more than ``MAX_GRID_CELLS`` positions."""


@dataclass(slots=True)
class Cell:
    """One cell of a resolved grid, covering ``rowspan`` x ``colspan``
    positions. ``validate_table`` makes it with normalized text and spans
    >= 1."""

    text: str
    colspan: int
    rowspan: int


@dataclass
class ValidatedTable:
    """A hierarchical table with its resolved occupancy grids.

    ``header_grid[r][c]`` / ``body_grid[r][c]`` hold the owning ``Cell``
    (the same instance across its whole span) for every grid position.
    """

    title: str
    width: int
    header_grid: list[list[Cell]]
    body_grid: list[list[Cell]]

    @property
    def n_header_rows(self) -> int:
        return len(self.header_grid)

    @property
    def n_body_rows(self) -> int:
        return len(self.body_grid)


def _cell_rows(obj: dict, key: str) -> list[list[Cell]]:
    """The cells of one section of a table's JSON, row by row, each checked:
    an object with no keys but ``text``, ``colspan`` and ``rowspan``,
    string text, integer spans >= 1."""
    rows = obj.get(key, [])
    if not isinstance(rows, list) or any(not isinstance(row, list) for row in rows):
        raise SchemaError(f"'{key}' must be a list of rows (lists of cells)")
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if not isinstance(cell, dict):
                raise SchemaError(f"cell must be an object, got {type(cell).__name__}")
            if not _CELL_KEYS.issuperset(cell):
                raise SchemaError(f"unknown cell keys: {sorted(set(cell) - _CELL_KEYS)}")
            text = cell.get("text", "")
            colspan = cell.get("colspan", 1)
            rowspan = cell.get("rowspan", 1)
            if not isinstance(text, str):
                raise SchemaError(f"cell text must be a string, got {type(text).__name__}")
            # A plain int >= 1 passes; anything else gets the full rule.
            if type(colspan) is not int or colspan < 1:
                check_int("colspan", colspan, SchemaError)
            if type(rowspan) is not int or rowspan < 1:
                check_int("rowspan", rowspan, SchemaError)
            cells.append(Cell(normalize_text(text), colspan, rowspan))
        out.append(cells)
    return out


def _place(rows: list[list[Cell]], what: str, width: int | None,
           max_width: int) -> list[list[Cell]]:
    """Place each cell at the leftmost free column of its starting row.

    With ``width=None`` the grid grows as needed, up to ``max_width``
    columns, and the width is inferred; otherwise cells must fit within
    ``width`` columns. Returns the occupancy grid (one owning Cell per
    position); raises on overlaps, out-of-bounds spans, or uncovered
    positions. A free position holds ``None`` and every ``Cell`` is true,
    so ``any`` and ``all`` over a grid row tell filled from free.
    """
    n_rows = len(rows)
    grid: list[list[Cell | None]] = [[] if width is None else [None] * width for _ in rows]
    for r, row in enumerate(rows):
        line = grid[r]
        start = 0
        for cell in row:
            while start < len(line) and line[start] is not None:
                start += 1
            colspan, rowspan = cell.colspan, cell.rowspan
            end = start + colspan
            if width is None:
                if end > max_width:
                    raise GridTooLarge(
                        f"{what} row {r} resolves wider than {max_width} columns, so the grid "
                        f"would exceed {MAX_GRID_CELLS} positions"
                    )
            elif start >= width:
                raise RaggedGrid(f"{what} row {r} resolves wider than the grid width {width}")
            elif end > width:
                raise SpanOutOfBounds(
                    f"{what} row {r}: colspan {colspan} at column {start} "
                    f"exceeds the grid width {width}"
                )
            if r + rowspan > n_rows:
                raise SpanOutOfBounds(
                    f"{what} row {r}: rowspan {rowspan} extends past the last {what} row"
                )
            if colspan == 1 == rowspan:  # the common cell: its one position is free
                if start == len(line):
                    line.append(cell)
                else:
                    line[start] = cell
            else:
                for rr in range(r, r + rowspan):
                    target = grid[rr]
                    if len(target) < end:
                        target.extend([None] * (end - len(target)))
                    claimed = target[start:end]
                    if any(claimed):
                        c = start + next(i for i, owner in enumerate(claimed) if owner)
                        raise OverlappingSpans(
                            f"{what} rows: two cells claim position ({rr}, {c})")
                    target[start:end] = [cell] * colspan
            start = end

    resolved_width = width if width is not None else max(map(len, grid), default=0)
    for r, line in enumerate(grid):
        if len(line) != resolved_width or not all(line):
            raise RaggedGrid(
                f"{what} row {r} covers {len(line) - line.count(None)} of "
                f"{resolved_width} columns"
            )
    return grid  # type: ignore[return-value]


def validate_table(obj: object) -> ValidatedTable:
    """Check a table's JSON object and resolve its spans onto occupancy grids.

    Every cell of both sections is checked before any is placed, so a cell
    error is reported ahead of any grid error. The header section fixes the
    grid width; body rows must resolve to the same width with full
    rectangular cover, and the whole grid may hold at most
    ``MAX_GRID_CELLS`` positions. ``obj`` is not modified.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"table must be an object, got {type(obj).__name__}")
    title = obj.get("title", "")
    if not isinstance(title, str):
        raise SchemaError("table title must be a string")
    if "header_rows" not in obj:
        raise SchemaError("table is missing 'header_rows'")
    header_rows = _cell_rows(obj, "header_rows")
    body_rows = _cell_rows(obj, "body_rows")
    if not header_rows:
        raise EmptyGrid("table has no header rows")
    max_width = MAX_GRID_CELLS // (len(header_rows) + len(body_rows))
    header_grid = _place(header_rows, "header", None, max_width)
    width = len(header_grid[0])
    if width < 1:
        raise EmptyGrid("table resolves to zero columns")
    return ValidatedTable(normalize_text(title), width, header_grid,
                          _place(body_rows, "body", width, width))
