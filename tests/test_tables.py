import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa.errors import InputError, SchemaError
from adapterqa.tables import (
    MAX_GRID_CELLS,
    Cell,
    EmptyGrid,
    GridTooLarge,
    HierarchicalTable,
    OverlappingSpans,
    RaggedGrid,
    SpanOutOfBounds,
    normalize_text,
    validate_table,
)

from gen_tables import hierarchical_tables
from table_oracles import normalize_text_regex


def simple_table():
    return HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1"), Cell("2")]],
    )


def test_regular_table_is_valid_with_width_two():
    v = validate_table(simple_table())
    assert v.width == 2
    assert v.n_header_rows == 1
    assert v.n_body_rows == 1
    assert [c.text for c in v.header_grid[0]] == ["a", "b"]


def test_multi_row_header_with_spans_resolves():
    t = HierarchicalTable(
        title="t",
        header_rows=[
            [Cell("a", colspan=2), Cell("b", rowspan=2), Cell("e")],
            [Cell("d", colspan=2), Cell("f")],
        ],
        body_rows=[],
    )
    v = validate_table(t)
    assert v.width == 4
    # b owns column 2 in both header rows
    assert v.header_grid[0][2] is v.header_grid[1][2]


def test_colspan_beyond_width_is_out_of_bounds():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("x", colspan=3)]],
    )
    with pytest.raises(SpanOutOfBounds):
        validate_table(t)


def test_rowspan_past_last_row_is_out_of_bounds():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a", rowspan=2)]],
        body_rows=[],
    )
    with pytest.raises(SpanOutOfBounds):
        validate_table(t)


def test_colspan_reaching_into_rowspan_overlaps():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b"), Cell("c")]],
        body_rows=[
            [Cell("x"), Cell("y", rowspan=2), Cell("z")],
            [Cell("w", colspan=2)],
        ],
    )
    with pytest.raises(OverlappingSpans):
        validate_table(t)


def test_short_body_row_is_ragged():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1")]],
    )
    with pytest.raises(RaggedGrid):
        validate_table(t)


def test_overlong_body_row_is_ragged():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1"), Cell("2"), Cell("3")]],
    )
    with pytest.raises(RaggedGrid):
        validate_table(t)


def test_ragged_header_rows():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a", colspan=2)], [Cell("b")]],
        body_rows=[],
    )
    with pytest.raises(RaggedGrid):
        validate_table(t)


def test_empty_header_rejected():
    with pytest.raises(EmptyGrid):
        validate_table(HierarchicalTable(title="t", header_rows=[], body_rows=[]))
    with pytest.raises(EmptyGrid):
        validate_table(HierarchicalTable(title="t", header_rows=[[]], body_rows=[]))


def test_grid_area_is_bounded_by_header_plus_body_rows_times_width():
    def table(width, n_body):
        return HierarchicalTable(
            title="t",
            header_rows=[[Cell("h", colspan=width)]],
            body_rows=[[Cell("b", colspan=width)] for _ in range(n_body)],
        )

    assert validate_table(table(MAX_GRID_CELLS // 4, 3)).width == MAX_GRID_CELLS // 4
    too_large = ((MAX_GRID_CELLS // 4 + 1, 3), (MAX_GRID_CELLS + 1, 0), (1, MAX_GRID_CELLS))
    for width, n_body in too_large:
        with pytest.raises(GridTooLarge):
            validate_table(table(width, n_body))


def test_text_normalization():
    assert normalize_text("  a \t b\n") == "a b"
    assert normalize_text("x\x00y") == "x y"
    assert Cell("  two   words ").text == "two words"
    assert not any(ord(ch) < 32 for ch in Cell("a\x01b").text)


def test_normalization_equals_regex_oracle_on_every_code_point():
    # Each code point between two letters: a separator is dropped to one
    # space, anything else stays, so one disagreement changes the text.
    text = "a" + "a".join(map(chr, range(sys.maxunicode + 1))) + "a"
    assert normalize_text(text) == normalize_text_regex(text)


# Whitespace, C0/C1 controls and their neighbours, drawn often.
SEPARATORS = st.sampled_from(
    [chr(c) for c in (*range(0x00, 0x21), *range(0x7E, 0xA1), 0x1680, *range(0x2000, 0x200C),
                      0x2028, 0x2029, 0x202F, 0x205F, 0x3000, 0xFEFF)])


@settings(max_examples=200)
@given(st.text(SEPARATORS | st.characters(), max_size=40))
@example("\x1c\x85 a\u00a0\u2028b\x7f ")
def test_normalization_equals_regex_oracle(text):
    assert normalize_text(text) == normalize_text_regex(text)


def test_empty_header_text_allowed():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell(""), Cell("b")]],
        body_rows=[[Cell("1"), Cell("2")]],
    )
    v = validate_table(t)
    assert v.header_grid[0][0].text == ""


@pytest.mark.parametrize("kwargs", [{"colspan": 0}, {"rowspan": 0}, {"colspan": -2}])
def test_invalid_spans_rejected_at_construction(kwargs):
    with pytest.raises(InputError):
        Cell("x", **kwargs)


def test_json_round_trip_and_span_defaults():
    obj = {
        "title": "films",
        "header_rows": [[{"text": "Year"}, {"text": "Film", "colspan": 1}]],
        "body_rows": [[{"text": "2013"}, {"text": "Padhe Padhe"}]],
    }
    t = HierarchicalTable.from_json_dict(obj)
    assert t.header_rows[0][0].colspan == 1
    assert t.header_rows[0][0].rowspan == 1
    back = t.to_json_dict()
    assert back["title"] == "films"
    assert HierarchicalTable.from_json_dict(back) == t


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"title": "t"},
        {"title": 3, "header_rows": []},
        {"title": "t", "header_rows": [[{"text": "a", "colspan": 0}]]},
        {"title": "t", "header_rows": [[{"text": "a", "bogus": 1}]]},
        {"title": "t", "header_rows": "nope"},
    ],
)
def test_bad_table_json_raises_schema_error(obj):
    with pytest.raises(SchemaError):
        HierarchicalTable.from_json_dict(obj)


@settings(max_examples=200)
@given(hierarchical_tables())
def test_span_area_equals_grid_area(table):
    v = validate_table(table)
    area = sum(c.rowspan * c.colspan for c in v.logical_cells())
    assert area == (v.n_header_rows + v.n_body_rows) * v.width


@given(hierarchical_tables())
def test_validation_is_deterministic_and_pure(table):
    snapshot = table.to_json_dict()
    v1 = validate_table(table)
    v2 = validate_table(table)
    texts1 = [[c.text for c in row] for row in v1.header_grid + v1.body_grid]
    texts2 = [[c.text for c in row] for row in v2.header_grid + v2.body_grid]
    assert texts1 == texts2
    assert table.to_json_dict() == snapshot
