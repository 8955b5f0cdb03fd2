import json
import os
import random
import sys

import pytest

from adapterqa import tables as tables_mod
from adapterqa.data import (
    PrepareLimits,
    QaRecord,
    compute_stats,
    prepare_example,
    read_records,
)
from adapterqa.assembly import EmptyQuestion
from adapterqa.errors import SchemaError
from adapterqa.linearize import LinearizedTextTooLarge, linearize
from adapterqa.tables import (
    EmptyGrid,
    GridTooLarge,
    OverlappingSpans,
    RaggedGrid,
    SpanOutOfBounds,
)

from gen_tables import random_table
from table_oracles import Cell, HierarchicalTable, resolve

TABLE_OBJ = {
    "title": "Films",
    "header_rows": [[{"text": "Year"}, {"text": "Film"}]],
    "body_rows": [[{"text": "2013"}, {"text": "Padhe Padhe"}]],
}


def table_record(record_id="r1", question="what year", answers=("2013",)):
    return {
        "id": record_id,
        "question": question,
        "title": "Films",
        "context": {"table": TABLE_OBJ},
        "answers": list(answers),
    }


def text_record(record_id="r1", question="who", passage="a b c", answers=("someone",)):
    return {
        "id": record_id,
        "question": question,
        "title": "Story",
        "context": {"passage": passage},
        "answers": list(answers),
    }


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    return path


def test_read_table_records(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [table_record(), table_record("r2")])
    records = read_records(path, "table")
    assert [r.id for r in records] == ["r1", "r2"]
    assert records[0].modality == "table"
    assert records[0].context == "Year: 2013, Film: Padhe Padhe"


def test_read_text_records(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [text_record()])
    records = read_records(path, "text")
    assert records[0].passage == "a b c"
    assert records[0].context == "a b c"


def test_each_table_is_validated_once(tmp_path, monkeypatch):
    calls = {"validate_table": [], "linearize": []}

    # Every package module that holds the ingest or the linearize function
    # calls a counter in its place.
    for target in (tables_mod.validate_table, linearize):
        def counting(obj, original=target, seen=calls[target.__name__]):
            seen.append(obj)
            return original(obj)

        for name, module in list(sys.modules.items()):
            if name == "adapterqa" or name.startswith("adapterqa."):
                for attr, value in list(vars(module).items()):
                    if value is target:
                        monkeypatch.setattr(module, attr, counting)
    path = write_jsonl(tmp_path / "d.jsonl", [table_record(), table_record("r2")])
    records = read_records(path, "table")
    compute_stats(records)
    for record in records:
        prepare_example(record)
    assert len(calls["validate_table"]) == 2
    assert len(calls["linearize"]) == 2


def test_modality_mismatch_reports_line(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [text_record(), table_record("r2")])
    with pytest.raises(SchemaError) as err:
        read_records(path, "text")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "obj",
    [
        {"question": "q", "context": {"passage": "p"}, "answers": ["a"]},  # no id
        {"id": "r", "context": {"passage": "p"}, "answers": ["a"]},  # no question
        {"id": "r", "question": "q", "context": {"passage": "p"}, "answers": []},
        {"id": "r", "question": "q", "context": {}, "answers": ["a"]},
        {"id": "r", "question": "q", "context": {"passage": "p", "table": TABLE_OBJ}, "answers": ["a"]},
        {"id": "r", "question": "q", "answers": ["a"]},
        {"id": "r", "question": "q", "context": {"passage": 4}, "answers": ["a"]},
    ],
)
def test_schema_errors_carry_line_numbers(tmp_path, obj):
    path = write_jsonl(tmp_path / "d.jsonl", [text_record(), obj])
    with pytest.raises(SchemaError) as err:
        read_records(path, "text")
    assert err.value.line == 2


def with_table(**table):
    return {**table_record(), "context": {"table": {"title": "t", **table}}}


@pytest.mark.parametrize(
    "obj, error",
    [
        pytest.param(with_table(header_rows=[[{"text": "a"}, {"text": "b"}]],
                                body_rows=[[{"text": "x"}]]), RaggedGrid, id="ragged"),
        pytest.param(with_table(header_rows=[[{"text": "a"}, {"text": "b", "rowspan": 2}],
                                             [{"text": "c", "colspan": 2}]]),
                     OverlappingSpans, id="overlapping"),
        pytest.param(with_table(header_rows=[[{"text": "a"}]],
                                body_rows=[[{"text": "x", "colspan": 2}]]),
                     SpanOutOfBounds, id="out-of-bounds"),
        pytest.param(with_table(header_rows=[]), EmptyGrid, id="empty-grid"),
        pytest.param(with_table(header_rows=[[{"text": "h", "colspan": 10**6}]]),
                     GridTooLarge, id="grid-too-large"),
        pytest.param(with_table(header_rows=[[{"text": "h" * 200, "colspan": 50_000}]],
                                body_rows=[[{"text": "b" * 200, "colspan": 50_000}]]),
                     LinearizedTextTooLarge, id="text-too-large"),
        pytest.param(with_table(header_rows=[[{"text": "a", "colspan": 0}]]), SchemaError,
                     id="bad-cell"),
        pytest.param(table_record(question=" \t "), EmptyQuestion, id="empty-question"),
        pytest.param({k: v for k, v in table_record().items() if k != "question"}, SchemaError,
                     id="missing-question"),
        pytest.param({**table_record(), "question": 5}, SchemaError, id="int-question"),
        pytest.param({**table_record(), "title": ["t"]}, SchemaError, id="list-title"),
        pytest.param({**table_record(), "answers": "a"}, SchemaError, id="string-answers"),
        pytest.param(text_record(), SchemaError, id="wrong-modality"),
    ],
)
def test_input_errors_name_their_line_once(tmp_path, obj, error):
    path = tmp_path / "d.jsonl"
    # A blank line 2: line numbers count every line of the file.
    path.write_text(json.dumps(table_record()) + "\n\n" + json.dumps(obj) + "\n",
                    encoding="utf-8")
    with pytest.raises(error) as err:
        read_records(path, "table")
    assert type(err.value) is error
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: ")
    assert str(err.value).count("line 3: ") == 1


def test_invalid_json_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(text_record()) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_records(path, "text")
    assert err.value.line == 2


def test_invalid_table_spans_propagate(tmp_path):
    bad = table_record()
    bad["context"] = {
        "table": {
            "title": "t",
            "header_rows": [[{"text": "a"}, {"text": "b"}]],
            "body_rows": [[{"text": "x", "colspan": 3}]],
        }
    }
    path = write_jsonl(tmp_path / "d.jsonl", [bad])
    with pytest.raises(Exception):
        read_records(path, "table")


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(text_record()) + "\n\n", encoding="utf-8")
    assert len(read_records(path, "text")) == 1


def test_stats_single_record():
    record = QaRecord(id="r", question="a b c", title="", answers=["x"], passage="p q")
    stats = compute_stats([record])
    assert stats.n_samples == 1
    assert stats.max_question_tokens == 3
    assert stats.max_target_tokens == 1
    assert stats.max_context_tokens == 2
    assert stats.max_table_rows is None


def test_stats_table_shapes_from_resolved_grid():
    table = HierarchicalTable(
        title="t",
        header_rows=[[Cell("a", colspan=2), Cell("b", rowspan=2)], [Cell("c"), Cell("d")]],
        body_rows=[[Cell("x", rowspan=2), Cell("y"), Cell("z")], [Cell("u"), Cell("v")]],
    )
    record = QaRecord(id="r", question="q", title="", answers=["one two"], grid=resolve(table))
    stats = compute_stats([record])
    assert stats.max_table_rows == 4  # 2 header + 2 body resolved rows
    assert stats.max_table_cols == 3
    assert stats.max_context_tokens is None


def test_stats_match_brute_force_scan_oracle():
    rng = random.Random(13)
    records = []
    for i in range(25):
        q = " ".join("q" for _ in range(rng.randint(1, 9)))
        answers = [" ".join("a" for _ in range(rng.randint(1, 7)))
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            passage = " ".join("p" for _ in range(rng.randint(1, 30)))
            records.append(QaRecord(id=str(i), question=q, title="", answers=answers,
                                    passage=passage))
        else:
            records.append(QaRecord(id=str(i), question=q, title="", answers=answers,
                                    grid=resolve(random_table(rng))))
    stats = compute_stats(records)
    # independent linear re-scan
    assert stats.max_question_tokens == max(len(r.question.split()) for r in records)
    assert stats.max_target_tokens == max(
        len(a.split()) for r in records for a in r.answers
    )
    passages = [r for r in records if r.passage is not None]
    if passages:
        assert stats.max_context_tokens == max(len(r.passage.split()) for r in passages)
    assert stats.n_samples == 25


def test_stats_are_permutation_invariant():
    rng = random.Random(5)
    records = [
        QaRecord(id=str(i), question=" ".join(["q"] * rng.randint(1, 6)), title="",
                 answers=["a b"], passage=" ".join(["p"] * rng.randint(1, 6)))
        for i in range(10)
    ]
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert compute_stats(records) == compute_stats(shuffled)


def test_stats_empty_collection():
    stats = compute_stats([])
    assert stats.n_samples == 0


def test_prepare_examples_counts_and_contents(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [table_record(), table_record("r2")])
    records = read_records(path, "table")
    examples = [prepare_example(record) for record in records]
    assert len(examples) == len(records)
    seq, target = examples[0]
    assert seq.rendered == (
        "<question> what year <title> Films <context> Year: 2013, Film: Padhe Padhe"
    )
    assert target == "2013"


def test_prepare_applies_budgets_and_answer_index():
    record = QaRecord(
        id="r", question="q", title="t", answers=["first answer", "second answer here"],
        passage="c1 c2 c3 c4 c5",
    )
    seq, target = prepare_example(
        record,
        PrepareLimits(max_input_tokens=7, max_target_tokens=2, answer_index=1),
    )
    assert seq.n_tokens <= 7
    assert seq.context_tokens == ("c1", "c2")
    assert target == "second answer"


def test_prepare_bad_answer_index_raises():
    record = QaRecord(id="r", question="q", title="", answers=["only"], passage="p")
    with pytest.raises(SchemaError):
        prepare_example(record, PrepareLimits(answer_index=3))


def test_record_requires_exactly_one_context():
    with pytest.raises(SchemaError):
        QaRecord(id="r", question="q", title="", answers=["a"])
    with pytest.raises(SchemaError):
        QaRecord(id="r", question="q", title="", answers=["a"], passage="p",
                 grid=resolve(HierarchicalTable(title="", header_rows=[[Cell("h")]])))


@pytest.mark.skipif(
    "ADAPTERQA_FETAQA_DIR" not in os.environ,
    reason="set ADAPTERQA_FETAQA_DIR to a directory of converted train/dev/test JSONL splits",
)
def test_fetaqa_split_sizes_when_supplied():
    base = os.environ["ADAPTERQA_FETAQA_DIR"]
    expected = {"train": 7326, "dev": 1001, "test": 2003}
    for split, n in expected.items():
        records = read_records(os.path.join(base, f"{split}.jsonl"), "table")
        assert len(records) == n
