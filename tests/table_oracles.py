"""Reference implementations of table ingest, for differential tests.

``normalize_text_regex`` is the regex version that
``adapterqa.tables.normalize_text`` replaces: control characters become
spaces, every whitespace run becomes one space, and the ends are trimmed.
The two must return equal strings.

``HierarchicalTable`` and its dataclass ``Cell`` are the typed table model
that ``adapterqa.tables.validate_table`` replaces: the JSON is parsed into
them first (``from_json_dict``), then ``validate_table_oracle`` resolves
the parsed cells onto occupancy grids in a second walk. Tests build tables
with these types and send them through ``to_json_dict()`` into the real
one-pass ingest, whose errors and grids must equal this two-step path's.

``logical_cells`` lists the unique cells of a validated table, each
spanning cell once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from adapterqa.errors import InputError, SchemaError, check_int
from adapterqa.tables import (
    MAX_GRID_CELLS,
    EmptyGrid,
    GridTooLarge,
    OverlappingSpans,
    RaggedGrid,
    SpanOutOfBounds,
    ValidatedTable,
    normalize_text,
    validate_table,
)

_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_text_regex(text: str) -> str:
    text = _CONTROL_CHARS.sub(" ", text)
    return _WHITESPACE_RUN.sub(" ", text).strip()


@dataclass
class Cell:
    """One table cell covering ``rowspan`` x ``colspan`` grid positions.

    Text is normalized on construction; spans must be >= 1.
    """

    text: str = ""
    colspan: int = 1
    rowspan: int = 1

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise InputError(f"cell text must be a string, got {type(self.text).__name__}")
        check_int("colspan", self.colspan)
        check_int("rowspan", self.rowspan)
        self.text = normalize_text(self.text)

    @classmethod
    def from_json_dict(cls, obj: object) -> "Cell":
        if not isinstance(obj, dict):
            raise SchemaError(f"cell must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {"text", "colspan", "rowspan"}
        if unknown:
            raise SchemaError(f"unknown cell keys: {sorted(unknown)}")
        try:
            return cls(
                text=obj.get("text", ""),
                colspan=obj.get("colspan", 1),
                rowspan=obj.get("rowspan", 1),
            )
        except InputError as exc:
            raise SchemaError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        out: dict = {"text": self.text}
        if self.colspan != 1:
            out["colspan"] = self.colspan
        if self.rowspan != 1:
            out["rowspan"] = self.rowspan
        return out


@dataclass
class HierarchicalTable:
    """A titled table whose header/body cells may span rows and columns."""

    title: str
    header_rows: list[list[Cell]]
    body_rows: list[list[Cell]] = field(default_factory=list)

    @classmethod
    def from_json_dict(cls, obj: object) -> "HierarchicalTable":
        if not isinstance(obj, dict):
            raise SchemaError(f"table must be an object, got {type(obj).__name__}")
        title = obj.get("title", "")
        if not isinstance(title, str):
            raise SchemaError("table title must be a string")
        if "header_rows" not in obj:
            raise SchemaError("table is missing 'header_rows'")

        def rows_from(key: str) -> list[list[Cell]]:
            raw = obj.get(key, [])
            if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
                raise SchemaError(f"'{key}' must be a list of rows (lists of cells)")
            return [[Cell.from_json_dict(c) for c in row] for row in raw]

        return cls(
            title=normalize_text(title),
            header_rows=rows_from("header_rows"),
            body_rows=rows_from("body_rows"),
        )

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "header_rows": [[c.to_json_dict() for c in row] for row in self.header_rows],
            "body_rows": [[c.to_json_dict() for c in row] for row in self.body_rows],
        }


def resolve(table: HierarchicalTable) -> ValidatedTable:
    """The real ingest of a table built with the oracle types."""
    return validate_table(table.to_json_dict())


def logical_cells(table: ValidatedTable) -> list:
    """The unique cells of a validated table's grids (each spanning cell
    appears once), in first-occurrence (row-major) order."""
    seen = {}
    for grid in (table.header_grid, table.body_grid):
        for row in grid:
            for cell in row:
                seen.setdefault(id(cell), cell)
    return list(seen.values())


def _resolve_section_oracle(rows: list[list[Cell]], what: str, width: int | None,
                            max_width: int) -> list[list[Cell]]:
    """Place each cell at the leftmost free column of its starting row.

    With ``width=None`` the grid grows as needed, up to ``max_width``
    columns, and the width is inferred; otherwise cells must fit within
    ``width`` columns. Returns the occupancy grid (one owning Cell per
    position); raises on overlaps, out-of-bounds spans, or uncovered
    positions.
    """
    n_rows = len(rows)
    grid: list[list[Cell | None]] = [[] for _ in range(n_rows)]

    def col_free(r: int, c: int) -> bool:
        return c >= len(grid[r]) or grid[r][c] is None

    def occupy(r: int, c: int, cell: Cell):
        while len(grid[r]) <= c:
            grid[r].append(None)
        grid[r][c] = cell

    for r, row in enumerate(rows):
        cursor = 0
        for cell in row:
            while not col_free(r, cursor):
                cursor += 1
            if width is None and cursor + cell.colspan > max_width:
                raise GridTooLarge(
                    f"{what} row {r} resolves wider than {max_width} columns, so the grid "
                    f"would exceed {MAX_GRID_CELLS} positions"
                )
            if width is not None and cursor >= width:
                raise RaggedGrid(
                    f"{what} row {r} resolves wider than the grid width {width}"
                )
            if width is not None and cursor + cell.colspan > width:
                raise SpanOutOfBounds(
                    f"{what} row {r}: colspan {cell.colspan} at column {cursor} "
                    f"exceeds the grid width {width}"
                )
            if r + cell.rowspan > n_rows:
                raise SpanOutOfBounds(
                    f"{what} row {r}: rowspan {cell.rowspan} extends past the last {what} row"
                )
            for dr in range(cell.rowspan):
                for dc in range(cell.colspan):
                    if not col_free(r + dr, cursor + dc):
                        raise OverlappingSpans(
                            f"{what} rows: two cells claim position ({r + dr}, {cursor + dc})"
                        )
                    occupy(r + dr, cursor + dc, cell)
            cursor += cell.colspan

    resolved_width = width if width is not None else max((len(g) for g in grid), default=0)
    for r, grid_row in enumerate(grid):
        if len(grid_row) != resolved_width or any(c is None for c in grid_row):
            raise RaggedGrid(
                f"{what} row {r} covers {sum(c is not None for c in grid_row)} of "
                f"{resolved_width} columns"
            )
    return grid  # type: ignore[return-value]


def validate_table_oracle(raw: HierarchicalTable) -> ValidatedTable:
    """Resolve spans onto occupancy grids, checking full rectangular cover.

    The header section fixes the grid width; body rows must resolve to the
    same width, and the whole grid may hold at most ``MAX_GRID_CELLS``
    positions. Pure function: ``raw`` is not modified. The grids hold the
    oracle's ``Cell`` objects.
    """
    if not raw.header_rows:
        raise EmptyGrid("table has no header rows")
    max_width = MAX_GRID_CELLS // (len(raw.header_rows) + len(raw.body_rows))
    header_grid = _resolve_section_oracle(raw.header_rows, "header", width=None,
                                          max_width=max_width)
    width = len(header_grid[0]) if header_grid else 0
    if width < 1:
        raise EmptyGrid("table resolves to zero columns")
    body_grid = _resolve_section_oracle(raw.body_rows, "body", width=width, max_width=width)
    return ValidatedTable(
        title=raw.title,
        width=width,
        header_grid=header_grid,
        body_grid=body_grid,
    )


def ingest_oracle(obj: object) -> ValidatedTable:
    """The two-step path: parse into the typed model, then resolve it."""
    return validate_table_oracle(HierarchicalTable.from_json_dict(obj))
