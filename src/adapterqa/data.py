"""QA record ingest (JSONL), dataset statistics, and example preparation.

A record pairs a question with either a text passage or a hierarchical
table plus one or more reference answers. A table is linearized once, as
its record is read; preparation assembles the prompted input sequence from
that text and applies optional token budgets.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .assembly import EmptyQuestion, InputSequence, assemble, truncate
from .errors import InputError, SchemaError, check_int
from .linearize import linearize
from .tables import ValidatedTable, validate_table

MODALITIES = ("table", "text")


@dataclass
class QaRecord:
    """One question over a passage or a table, with its reference answers.

    Every check runs when the record is built, so ``stats`` refuses what
    ``prepare`` cannot assemble or linearize. A table is linearized there,
    once, and ``prepare_example`` reads that text from ``context``.
    """

    id: str
    question: str
    title: str
    answers: list[str]
    passage: str | None = None
    # The table context, as ``tables.validate_table`` resolved it.
    grid: ValidatedTable | None = None
    # The passage verbatim, or the table linearized to key: value text.
    context: str = field(init=False)

    def __post_init__(self):
        if (self.passage is None) == (self.grid is None):
            raise SchemaError("record must carry exactly one of passage or table")
        if not self.answers:
            raise SchemaError("record must carry at least one answer")
        if not self.question.split():
            raise EmptyQuestion("question must contain at least one token")
        self.context = self.passage if self.grid is None else linearize(self.grid).text

    @property
    def modality(self) -> str:
        return "text" if self.passage is not None else "table"


def read_jsonl(path: str | Path, build: Callable[[dict], object]) -> list:
    """``build(obj)`` for the JSON object on each non-blank line of a JSONL
    file, in order.

    Any ``InputError`` raised while reading line N (by the UTF-8 or JSON
    decoder, by ``build``, or by the table and record checks it runs) keeps
    its type and gets ``line = N`` and one ``line N: `` prefix. Bytes that
    are not UTF-8 are a ``SchemaError``, as a line that is not JSON is.
    """
    built = []
    # Undecodable bytes are escaped here and decoded again per line below,
    # so the error names its line and not an offset into the read buffer.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"invalid UTF-8: {exc}") from exc
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise SchemaError(f"invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise SchemaError(f"line must be a JSON object, got {type(obj).__name__}")
                built.append(build(obj))
            except InputError as exc:
                exc.line = line_no
                exc.args = (f"line {line_no}: {exc}",)
                raise
    return built


def string_field(obj: dict, key: str, default: str | None = None) -> str:
    """``obj[key]``, which must be a string; ``default`` when the key is
    absent, which is an error when no default is given."""
    if key not in obj:
        if default is None:
            raise SchemaError(f"missing '{key}'")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"'{key}' must be a string, got {type(value).__name__}")
    return value


def _record_from_json(obj: dict) -> QaRecord:
    for key in ("id", "answers"):
        if key not in obj:
            raise SchemaError(f"record is missing '{key}'")
    if not isinstance(obj["answers"], list) or not all(isinstance(a, str) for a in obj["answers"]):
        raise SchemaError("'answers' must be a list of strings")
    context = obj.get("context")
    if not isinstance(context, dict) or len(set(context) & {"passage", "table"}) != 1:
        raise SchemaError("'context' must be an object with exactly one of 'passage' or 'table'")
    return QaRecord(
        id=str(obj["id"]),
        question=string_field(obj, "question"),
        title=string_field(obj, "title", ""),
        answers=list(obj["answers"]),
        passage=string_field(context, "passage") if "passage" in context else None,
        grid=validate_table(context["table"]) if "table" in context else None,
    )


def read_records(path: str | Path, modality: str,
                 then: Callable[[QaRecord], object] | None = None) -> list:
    """Parse a JSONL file of records, all of the given modality.

    Table contexts are validated (spans must resolve); input errors are
    reported with their line number. With ``then``, each record is replaced
    by ``then(record)`` as it is read, so errors raised there name the
    record's line too.
    """
    if modality not in MODALITIES:
        raise SchemaError(f"modality must be one of {MODALITIES}, got {modality!r}")

    def build(obj: dict) -> object:
        record = _record_from_json(obj)
        if record.modality != modality:
            raise SchemaError(f"expected {modality} context, found {record.modality}")
        return record if then is None else then(record)

    return read_jsonl(path, build)


@dataclass(frozen=True)
class DatasetStats:
    n_samples: int
    max_question_tokens: int
    max_target_tokens: int
    max_context_tokens: int | None  # text modality
    max_table_rows: int | None      # table modality, resolved grid height
    max_table_cols: int | None      # table modality, resolved grid width

    def to_json_dict(self) -> dict:
        return asdict(self)


def compute_stats(records: list[QaRecord]) -> DatasetStats:
    """Whitespace-token maxima per field; table shapes from resolved grids.

    Permutation-invariant: every aggregate is a max over records.
    """
    max_question = 0
    max_target = 0
    max_context: int | None = None
    max_rows: int | None = None
    max_cols: int | None = None
    for record in records:
        max_question = max(max_question, len(record.question.split()))
        max_target = max(max_target, max(len(a.split()) for a in record.answers))
        if record.passage is not None:
            tokens = len(record.passage.split())
            max_context = tokens if max_context is None else max(max_context, tokens)
        else:
            grid = record.grid
            rows = grid.n_header_rows + grid.n_body_rows
            max_rows = rows if max_rows is None else max(max_rows, rows)
            max_cols = grid.width if max_cols is None else max(max_cols, grid.width)
    return DatasetStats(
        n_samples=len(records),
        max_question_tokens=max_question,
        max_target_tokens=max_target,
        max_context_tokens=max_context,
        max_table_rows=max_rows,
        max_table_cols=max_cols,
    )


@dataclass(frozen=True)
class PrepareLimits:
    """Both budgets are exposed as configuration; None disables a budget."""

    max_input_tokens: int | None = None
    max_target_tokens: int | None = None
    answer_index: int = 0

    def __post_init__(self):
        for name in ("max_input_tokens", "max_target_tokens"):
            value = getattr(self, name)
            if value is not None:
                check_int(name, value)


def prepare_example(record: QaRecord,
                    limits: PrepareLimits = PrepareLimits()) -> tuple[InputSequence, str]:
    """The (prompted input, target) pair of one record.

    The input is assembled from ``record.context``, the text written when
    the record was read; the answer at ``limits.answer_index`` (default: the first) becomes the target. Any
    failure raises; records are never silently dropped.
    """
    if not (-len(record.answers) <= limits.answer_index < len(record.answers)):
        raise SchemaError(
            f"record {record.id}: answer index {limits.answer_index} out of range "
            f"for {len(record.answers)} answers"
        )
    seq = assemble(record.question, record.title, record.context)
    if limits.max_input_tokens is not None:
        seq = truncate(seq, limits.max_input_tokens)
    target = record.answers[limits.answer_index]
    if limits.max_target_tokens is not None:
        target = " ".join(target.split()[: limits.max_target_tokens])
    return seq, target

