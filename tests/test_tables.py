import copy
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa.errors import InputError, SchemaError
from adapterqa.tables import (
    MAX_GRID_CELLS,
    EmptyGrid,
    GridTooLarge,
    OverlappingSpans,
    RaggedGrid,
    SpanOutOfBounds,
    normalize_text,
    validate_table,
)

from gen_tables import hierarchical_tables
from table_oracles import (
    Cell,
    HierarchicalTable,
    ingest_oracle,
    logical_cells,
    normalize_text_regex,
    resolve,
)


def simple_table():
    return HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1"), Cell("2")]],
    )


def test_regular_table_is_valid_with_width_two():
    v = resolve(simple_table())
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
    v = resolve(t)
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
        resolve(t)


def test_rowspan_past_last_row_is_out_of_bounds():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a", rowspan=2)]],
        body_rows=[],
    )
    with pytest.raises(SpanOutOfBounds):
        resolve(t)


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
        resolve(t)


def test_short_body_row_is_ragged():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1")]],
    )
    with pytest.raises(RaggedGrid):
        resolve(t)


def test_overlong_body_row_is_ragged():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("1"), Cell("2"), Cell("3")]],
    )
    with pytest.raises(RaggedGrid):
        resolve(t)


def test_ragged_header_rows():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a", colspan=2)], [Cell("b")]],
        body_rows=[],
    )
    with pytest.raises(RaggedGrid):
        resolve(t)


def test_empty_header_rejected():
    with pytest.raises(EmptyGrid):
        resolve(HierarchicalTable(title="t", header_rows=[], body_rows=[]))
    with pytest.raises(EmptyGrid):
        resolve(HierarchicalTable(title="t", header_rows=[[]], body_rows=[]))


def test_grid_area_is_bounded_by_header_plus_body_rows_times_width():
    def table(width, n_body):
        return HierarchicalTable(
            title="t",
            header_rows=[[Cell("h", colspan=width)]],
            body_rows=[[Cell("b", colspan=width)] for _ in range(n_body)],
        )

    assert resolve(table(MAX_GRID_CELLS // 4, 3)).width == MAX_GRID_CELLS // 4
    too_large = ((MAX_GRID_CELLS // 4 + 1, 3), (MAX_GRID_CELLS + 1, 0), (1, MAX_GRID_CELLS))
    for width, n_body in too_large:
        with pytest.raises(GridTooLarge):
            resolve(table(width, n_body))


def test_text_normalization():
    assert normalize_text("  a \t b\n") == "a b"
    assert normalize_text("x\x00y") == "x y"
    for text, normalized in (("  two   words ", "two words"), ("a\x01b", "a b")):
        grid = validate_table({"header_rows": [[{"text": text}]]}).header_grid
        assert grid[0][0].text == normalized


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
    v = resolve(t)
    assert v.header_grid[0][0].text == ""


@pytest.mark.parametrize("kwargs", [{"colspan": 0}, {"rowspan": 0}, {"colspan": -2}])
def test_invalid_spans_rejected_at_construction(kwargs):
    with pytest.raises(InputError):
        validate_table({"header_rows": [[{"text": "x", **kwargs}]]})


def test_json_round_trip_and_span_defaults():
    obj = {
        "title": "films",
        "header_rows": [[{"text": "Year"}, {"text": "Film", "colspan": 1}]],
        "body_rows": [[{"text": "2013"}, {"text": "Padhe Padhe"}]],
    }
    v = validate_table(obj)
    assert v.header_grid[0][0].colspan == 1
    assert v.header_grid[0][0].rowspan == 1
    assert v.title == "films"
    # The oracle types that tests build tables with survive the trip through JSON.
    t = HierarchicalTable.from_json_dict(obj)
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
        validate_table(obj)


@settings(max_examples=200)
@given(hierarchical_tables())
def test_span_area_equals_grid_area(table):
    v = resolve(table)
    area = sum(c.rowspan * c.colspan for c in logical_cells(v))
    assert area == (v.n_header_rows + v.n_body_rows) * v.width


@given(hierarchical_tables())
def test_validation_is_deterministic_and_pure(table):
    obj = table.to_json_dict()
    snapshot = copy.deepcopy(obj)
    v1 = validate_table(obj)
    v2 = validate_table(obj)
    texts1 = [[c.text for c in row] for row in v1.header_grid + v1.body_grid]
    texts2 = [[c.text for c in row] for row in v2.header_grid + v2.body_grid]
    assert texts1 == texts2
    assert obj == snapshot


def outcome(ingest, obj):
    """What an ingest makes of ``obj``: its error as (type, message), or the
    grid as its title, width and, per position, the owning cell's index in
    first-occurrence order, text and spans."""
    try:
        v = ingest(obj)
    except InputError as exc:
        return type(exc), str(exc)
    owners: dict[int, int] = {}

    def view(grid):
        return [[(owners.setdefault(id(c), len(owners)), c.text, c.colspan, c.rowspan)
                 for c in row] for row in grid]

    return v.title, v.width, view(v.header_grid), view(v.body_grid)


NOT_OBJECTS = st.sampled_from([None, 1, 2.5, True, "cell", [], [{"text": "a"}]])
NOT_STRINGS = st.sampled_from([None, 1, 2.5, True, ["a"], {"text": "a"}])
BAD_SPANS = st.sampled_from([True, False, 0, -1, 2.5, "2", None])
SECTIONS = ("header_rows", "body_rows")


@st.composite
def mutated_table_objects(draw):
    """A generated table's JSON with up to three mutations: bad cells
    (non-objects, unknown keys, non-string text, bool/zero/negative/
    non-int spans), changed layouts (ragged, overlapping, out of bounds,
    wider than the grid bound), bad table fields, or no object at all."""
    obj = draw(hierarchical_tables(max_width=5, max_header_rows=3,
                                   max_body_rows=4)).to_json_dict()
    for _ in range(draw(st.integers(0, 3))):
        positions = [(key, r, i) for key in SECTIONS
                     if isinstance(obj.get(key), list) and all(isinstance(row, list)
                                                               for row in obj[key])
                     for r, row in enumerate(obj[key]) for i in range(len(row))]
        if not positions:
            break
        key, r, i = draw(st.sampled_from(positions))
        row = obj[key][r]
        kind = draw(st.sampled_from(
            ["not-object", "unknown-key", "text", "bad-span", "span", "widen", "wide-span",
             "drop-cell", "add-cell", "drop-row", "add-row", "table-field", "table"]))
        if kind == "table":
            return draw(NOT_OBJECTS)
        if kind == "not-object":
            row[i] = draw(NOT_OBJECTS)
        elif not isinstance(row[i], dict):
            continue
        elif kind == "unknown-key":
            row[i][draw(st.sampled_from(["bogus", "Text", "span", ""]))] = 1
        elif kind == "text":
            row[i]["text"] = draw(NOT_STRINGS | st.text(max_size=6))
        elif kind == "bad-span":
            row[i][draw(st.sampled_from(["colspan", "rowspan"]))] = draw(BAD_SPANS)
        elif kind == "span":
            row[i][draw(st.sampled_from(["colspan", "rowspan"]))] = draw(st.integers(1, 4))
        elif kind == "widen":
            # Runs into a rowspan from above, or pushes the row out of the grid.
            colspan = row[i].get("colspan", 1)
            if type(colspan) is int:
                row[i]["colspan"] = colspan + draw(st.integers(1, 3))
        elif kind == "wide-span":
            # From column 0: at, just past, and far past the widest header
            # row the grid bound allows.
            n_rows = sum(len(obj[k]) for k in SECTIONS if isinstance(obj.get(k), list))
            obj[key][r] = [{"text": "wide", "colspan": draw(st.sampled_from(
                [MAX_GRID_CELLS // n_rows, MAX_GRID_CELLS // n_rows + 1, 10**6]))}]
        elif kind == "drop-cell":
            del row[i]
        elif kind == "add-cell":
            row.insert(i, {"text": "new"})
        elif kind == "drop-row":
            del obj[key][r]
        elif kind == "add-row":
            obj[key].insert(r, draw(st.sampled_from([[], [{"text": "new"}], "row"])))
        elif kind == "table-field":
            field = draw(st.sampled_from(["title", *SECTIONS]))
            obj[field] = draw(NOT_OBJECTS | st.just(obj.get(field)))
            if draw(st.booleans()):
                del obj[field]
    return obj


@settings(max_examples=400, deadline=None)
@given(mutated_table_objects())
@example({"title": "t", "header_rows": [[{"text": "a", "colspan": 2}], [{"text": "b"}]],
          "body_rows": [[{"text": "x", "colspan": 0}]]})
@example({"header_rows": [[{"text": "a", "rowspan": 2}]], "body_rows": [[{"bogus": 1}]]})
@example({"header_rows": [[{"text": "a"}, {"text": "b", "rowspan": 2}],
                          [{"text": "c", "colspan": 2}]]})
@example({"header_rows": [[{"text": "a"}, {"text": "b"}, {"text": "c"}]],
          "body_rows": [[{"text": "x"}, {"text": "y", "rowspan": 2}, {"text": "z"}],
                        [{"text": "w", "colspan": 2}]]})
def test_one_pass_ingest_equals_parse_then_validate_oracle(obj):
    assert outcome(validate_table, obj) == outcome(ingest_oracle, obj)


def test_cell_errors_come_before_grid_errors():
    # Ragged header rows, and a body cell whose colspan is zero.
    obj = {"header_rows": [[{"text": "a", "colspan": 2}], [{"text": "b"}]],
           "body_rows": [[{"text": "x", "colspan": 0}]]}
    with pytest.raises(SchemaError, match="colspan must be a positive integer, got 0"):
        validate_table(obj)
    obj["body_rows"] = [[{"text": "x", "colspan": 2}]]
    with pytest.raises(RaggedGrid, match="header row 1 covers 1 of 2 columns"):
        validate_table(obj)
