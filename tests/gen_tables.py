"""Random span-table generation and independent grid oracles for tests.

The generators build tables that are valid by construction (spans fully
tile each section). The oracles re-derive placement with their own naive
bookkeeping so production code is checked against a separate path.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from table_oracles import Cell, HierarchicalTable


def _tile_section(n_rows: int, width: int, pick_span, make_text) -> list[list[Cell]]:
    """Tile an n_rows x width grid with random spans, row by row.

    ``pick_span(limit)`` returns an int in [1, limit]; placement at the
    leftmost free column matches the validator's semantics.
    """
    occupied = [[False] * width for _ in range(n_rows)]
    rows = []
    for r in range(n_rows):
        row = []
        c = 0
        while c < width:
            if occupied[r][c]:
                c += 1
                continue
            gap = 0
            while c + gap < width and not occupied[r][c + gap]:
                gap += 1
            colspan = pick_span(min(gap, 3))
            rowspan = pick_span(min(n_rows - r, 3))
            for dr in range(rowspan):
                for dc in range(colspan):
                    occupied[r + dr][c + dc] = True
            row.append(Cell(text=make_text(), colspan=colspan, rowspan=rowspan))
            c += colspan
        rows.append(row)
    return rows


def random_table(rng: random.Random, max_width: int = 6, max_header_rows: int = 3,
                 max_body_rows: int = 6) -> HierarchicalTable:
    counter = iter(range(10_000))

    def make_text() -> str:
        return f"c{next(counter)}"

    width = rng.randint(1, max_width)
    header = _tile_section(rng.randint(1, max_header_rows), width,
                           lambda limit: rng.randint(1, limit), make_text)
    body = _tile_section(rng.randint(0, max_body_rows), width,
                         lambda limit: rng.randint(1, limit), make_text)
    return HierarchicalTable(title="t", header_rows=header, body_rows=body)


@st.composite
def hierarchical_tables(draw, max_width: int = 6, max_header_rows: int = 3,
                        max_body_rows: int = 6) -> HierarchicalTable:
    counter = iter(range(10_000))

    def make_text() -> str:
        return f"c{next(counter)}"

    def pick_span(limit: int) -> int:
        return draw(st.integers(1, limit))

    width = draw(st.integers(1, max_width))
    header = _tile_section(draw(st.integers(1, max_header_rows)), width, pick_span, make_text)
    body = _tile_section(draw(st.integers(0, max_body_rows)), width, pick_span, make_text)
    return HierarchicalTable(title="t", header_rows=header, body_rows=body)


def paint_section_oracle(rows: list[list[Cell]], width: int) -> list[list[tuple[int, str]]]:
    """Independent placement: paint (cell uid, text) onto every coordinate
    each cell covers, filling leftmost free columns first."""
    n_rows = len(rows)
    grid: list[list[tuple[int, str] | None]] = [[None] * width for _ in range(n_rows)]
    uid = 0
    for r, row in enumerate(rows):
        c = 0
        for cell in row:
            while grid[r][c] is not None:
                c += 1
            for dr in range(cell.rowspan):
                for dc in range(cell.colspan):
                    grid[r + dr][c + dc] = (uid, cell.text)
            uid += 1
            c += cell.colspan
    return grid  # type: ignore[return-value]


def expand_body_oracle(table: HierarchicalTable, width: int) -> list[list[str]]:
    """Expected expanded body: the painted text at every grid coordinate."""
    painted = paint_section_oracle(table.body_rows, width)
    return [[text for _, text in row] for row in painted]


def flatten_headers_oracle(table: HierarchicalTable, width: int) -> list[str]:
    """Expected flat header: walk each column's painted levels top-down,
    keep each cell's text once, drop empties, nest with parentheses."""
    painted = paint_section_oracle(table.header_rows, width)
    keys = []
    for col in range(width):
        names = []
        last_uid = None
        for row in painted:
            uid, text = row[col]
            if uid != last_uid and text:
                names.append(text)
            last_uid = uid
        nested = ""
        for name in reversed(names):
            nested = f"{name}({nested})" if nested else name
        keys.append(nested)
    return keys


def linearize_oracle(table: HierarchicalTable, width: int) -> str:
    """Expected linearized text: each expanded body row as ``key: value``
    pairs joined by ``", "``, rows joined by ``" ; "``."""
    keys = flatten_headers_oracle(table, width)
    return " ; ".join(
        ", ".join(f"{key}: {value}" for key, value in zip(keys, row))
        for row in expand_body_oracle(table, width)
    )
