import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterqa.linearize import (
    MAX_LINEARIZED_CHARS,
    LinearizedTextTooLarge,
    flatten_headers,
    linearize,
)
from adapterqa.tables import SpanOutOfBounds

from gen_tables import flatten_headers_oracle, hierarchical_tables, linearize_oracle
from table_oracles import Cell, HierarchicalTable, resolve


def worked_header_table(body_rows=()):
    return HierarchicalTable(
        title="t",
        header_rows=[
            [Cell("a", colspan=2), Cell("b", rowspan=2), Cell("e")],
            [Cell("d", colspan=2), Cell("f")],
        ],
        body_rows=list(body_rows),
    )


def regular_table(header: list[str], rows: list[list[str]]) -> HierarchicalTable:
    """A table whose single header row and body rows hold only 1x1 cells."""
    return HierarchicalTable(title="t", header_rows=[[Cell(h) for h in header]],
                             body_rows=[[Cell(v) for v in row] for row in rows])


def test_worked_hierarchical_header():
    v = resolve(worked_header_table())
    assert list(flatten_headers(v)) == ["a(d)", "a(d)", "b", "e(f)"]


def test_single_header_row_passes_through():
    t = HierarchicalTable(title="t", header_rows=[[Cell("x"), Cell("y"), Cell("z")]])
    assert list(flatten_headers(resolve(t))) == ["x", "y", "z"]


def test_three_stacked_header_levels_nest():
    # Oracle (level-by-level grid expansion): levels a, b, c in one column
    # join as a(b(c)).
    t = HierarchicalTable(title="t", header_rows=[[Cell("a")], [Cell("b")], [Cell("c")]])
    assert list(flatten_headers(resolve(t))) == ["a(b(c))"]
    assert flatten_headers_oracle(t, 1) == ["a(b(c))"]


def test_empty_header_level_contributes_nothing():
    t = HierarchicalTable(title="t", header_rows=[[Cell("a")], [Cell("")]])
    assert list(flatten_headers(resolve(t))) == ["a"]
    t = HierarchicalTable(title="t", header_rows=[[Cell("")], [Cell("")]])
    assert list(flatten_headers(resolve(t))) == [""]


def test_rowspan_body_cell_replicates_down():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("h1"), Cell("h2")]],
        body_rows=[
            [Cell("v", rowspan=2), Cell("x")],
            [Cell("y")],
        ],
    )
    assert linearize(resolve(t)).text == "h1: v, h2: x ; h1: v, h2: y"


def test_all_single_span_body_is_identity():
    t = HierarchicalTable(
        title="t",
        header_rows=[[Cell("h1"), Cell("h2")]],
        body_rows=[[Cell("1"), Cell("2")], [Cell("3"), Cell("4")]],
    )
    assert linearize(resolve(t)).text == "h1: 1, h2: 2 ; h1: 3, h2: 4"


@settings(max_examples=300)
@given(hierarchical_tables())
def test_expand_body_matches_painting_oracle(table):
    v = resolve(table)
    assert linearize(v).text == linearize_oracle(table, v.width)
    assert list(flatten_headers(v)) == flatten_headers_oracle(table, v.width)


@given(hierarchical_tables())
def test_pair_count_law_and_shape_preservation(table):
    v = resolve(table)
    flat = linearize(v)
    assert len(flatten_headers(v)) == v.width
    rows = flat.text.split(" ; ") if flat.text else []
    assert len(rows) == v.n_body_rows
    assert all(len(row.split(", ")) == v.width for row in rows)
    assert flat.pair_count == v.n_body_rows * v.width


def test_serialize_film_row():
    t = regular_table(["Year", "Film"], [["2013", "Padhe Padhe"]])
    assert linearize(resolve(t)).text == "Year: 2013, Film: Padhe Padhe"


def test_serialize_empty_body():
    flat = linearize(resolve(regular_table(["a", "b"], [])))
    assert flat.text == ""
    assert flat.pair_count == 0


def test_serialize_two_by_two_counts():
    flat = linearize(resolve(regular_table(["KEYONE", "KEYTWO"], [["1", "2"], ["3", "4"]])))
    assert flat.pair_count == 4
    # Substring-counting oracle on distinct sentinel headers.
    assert flat.text.count("KEYONE") == 2
    assert flat.text.count("KEYTWO") == 2
    assert flat.text.count(" ; ") == 1


def test_row_and_pair_separators():
    assert linearize(resolve(regular_table(["h"], [["1"], ["2"]]))).text == "h: 1 ; h: 2"


def test_linearize_worked_example_end_to_end():
    t = worked_header_table(
        body_rows=[[Cell("1"), Cell("2"), Cell("3"), Cell("4")]],
    )
    assert linearize(resolve(t)).text == "a(d): 1, a(d): 2, b: 3, e(f): 4"


def test_linearize_propagates_validation_errors():
    bad = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a"), Cell("b")]],
        body_rows=[[Cell("x", colspan=3)]],
    )
    with pytest.raises(SpanOutOfBounds):
        linearize(resolve(bad))


@st.composite
def tables_with_any_text(draw):
    """Generated span layouts whose cell texts are arbitrary, empty included."""
    layout = draw(hierarchical_tables(max_width=4, max_body_rows=4))
    text = st.text(max_size=6)

    def retext(rows):
        return [[Cell(draw(text), colspan=c.colspan, rowspan=c.rowspan) for c in row]
                for row in rows]

    return HierarchicalTable(title="t", header_rows=retext(layout.header_rows),
                             body_rows=retext(layout.body_rows))


# The module, not the function the package exports under the same name.
LINEARIZE_MODULE = importlib.import_module("adapterqa.linearize")


def assert_bound_is_exact(table):
    """A table whose text has ``n`` characters linearizes to that text
    under a bound of ``n`` and is refused under ``n - 1``."""
    v = resolve(table)
    text = linearize(v).text
    # A fixture-free patch: Hypothesis reruns the test body per example.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LINEARIZE_MODULE, "MAX_LINEARIZED_CHARS", len(text))
        assert linearize(v).text == text
        if text:
            patch.setattr(LINEARIZE_MODULE, "MAX_LINEARIZED_CHARS", len(text) - 1)
            with pytest.raises(LinearizedTextTooLarge):
                linearize(v)


@settings(max_examples=300)
@given(hierarchical_tables())
def test_bound_is_exact_on_generated_tables(table):
    assert_bound_is_exact(table)


@given(tables_with_any_text())
def test_bound_is_exact_on_any_text(table):
    assert_bound_is_exact(table)


def one_pair_table(value: str) -> HierarchicalTable:
    return HierarchicalTable(title="t", header_rows=[[Cell("k")]], body_rows=[[Cell(value)]])


def test_linearized_text_is_bounded():
    # "k: " plus the value is the whole text of a one-pair table.
    at_limit = one_pair_table("v" * (MAX_LINEARIZED_CHARS - 3))
    assert len(linearize(resolve(at_limit)).text) == MAX_LINEARIZED_CHARS
    with pytest.raises(LinearizedTextTooLarge):
        linearize(resolve(one_pair_table("v" * (MAX_LINEARIZED_CHARS - 2))))
    # 514 bytes of JSON within the grid bound that would repeat two
    # 200-character texts over 50,000 positions (20.2 MB of text).
    spread = HierarchicalTable(title="t", header_rows=[[Cell("h" * 200, colspan=50_000)]],
                               body_rows=[[Cell("b" * 200, colspan=50_000)]])
    with pytest.raises(LinearizedTextTooLarge):
        linearize(resolve(spread))
    # Two stacked 100,000-character header cells over 33,333 columns: each
    # key would be "a...(b...)", 6.7 GB of keys in all, while the grid
    # (3 x 33,333) is within MAX_GRID_CELLS.
    width = 33_333
    stacked = resolve(HierarchicalTable(
        title="t",
        header_rows=[[Cell("a" * 100_000, colspan=width)], [Cell("b" * 100_000, colspan=width)]],
        body_rows=[[Cell("", colspan=width)]],
    ))
    with pytest.raises(LinearizedTextTooLarge):
        linearize(stacked)
