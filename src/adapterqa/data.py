"""QA record ingest (JSONL), dataset statistics, and example preparation.

A record pairs a question with either a text passage or a hierarchical
table plus one or more reference answers. A table is linearized once, as
its record is read; preparation assembles the prompted input sequence from
that text and applies optional token budgets.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import workers
from .assembly import EmptyQuestion, InputSequence, assemble, truncate
from .errors import InputError, SchemaError, check_int
from .linearize import linearize
from .tables import ValidatedTable, validate_table

MODALITIES = ("table", "text")

# Bytes of a JSONL file each worker reads at least (``read_jsonl``). On a
# 2-core host a second worker took table ingest of 256 KB from 13.6 to
# 10.0 ms, while passages, about 4x cheaper a byte, gained nothing below
# about 480 KB (6.2 against 6.5 ms for ``stats`` at 483 KB).
JSONL_WORKER_BYTES = 256 * 1024


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


def _ranges(path: str | Path) -> list[tuple[int, int | None]]:
    """Byte ranges ``[start, stop)`` that cover the file in order, one per
    worker (``workers.worker_count`` of its size over
    ``JSONL_WORKER_BYTES``), each but the last ending just after a newline
    byte. The last one runs to the end of the file (``stop`` is None)."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        n = workers.worker_count(size, JSONL_WORKER_BYTES)
        starts = [0]
        for k in range(1, n):
            handle.seek(max(k * size // n, starts[-1]))
            handle.readline()
            if starts[-1] < handle.tell() < size:
                starts.append(handle.tell())
    return list(zip(starts, [*starts[1:], None]))


def _read_range(path: str | Path, start: int, stop: int | None,
                build: Callable[[dict], object]) -> tuple[list, int, Exception | None]:
    r"""``build(obj)`` for each non-blank line of bytes ``[start, stop)`` of
    a JSONL file, in order: ``(values, lines read, error)``. The first
    error stops the range at its line and is returned, not raised, so that
    the caller can raise the first error of the file.

    Lines end at ``\n``, ``\r\n`` or ``\r``, as in a file opened in text
    mode, and each line end reads as one ``\n``. The range is read in the
    ``\n``-ended chunks that ``_ranges`` cuts between."""
    values: list = []
    line_no = 0
    try:
        with open(path, "rb") as raw:
            raw.seek(start)
            for chunk in raw:
                for line in chunk.splitlines(keepends=True):
                    line_no += 1
                    data = line.rstrip(b"\r\n")
                    if len(data) < len(line):  # not the file's unended last line
                        data += b"\n"
                    if (obj := _json_object(data)) is not None:
                        values.append(build(obj))
                if stop is not None and raw.tell() >= stop:
                    break
    except Exception as exc:  # read_jsonl raises it if no earlier range failed
        return values, line_no, exc
    return values, line_no, None


def _json_object(data: bytes) -> dict | None:
    """The JSON object on a line, or None when the line is blank: its UTF-8
    text strips to nothing (``str.strip``, so U+3000 alone is blank)."""
    try:
        text = data.decode("utf-8")
        if not text.strip():
            return None
        obj = json.loads(text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid UTF-8: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"line must be a JSON object, got {type(obj).__name__}")
    return obj


def read_jsonl(path: str | Path, build: Callable[[dict], object]) -> list:
    """``build(obj)`` for the JSON object on each non-blank line of a JSONL
    file, in order.

    Any ``InputError`` raised while reading line N (by the UTF-8 or JSON
    decoder, by ``build``, or by the table and record checks it runs) keeps
    its type and gets ``line = N`` and one ``line N: `` prefix. Bytes that
    are not UTF-8 are a ``SchemaError``, as a line that is not JSON is.

    A file of at least twice ``JSONL_WORKER_BYTES`` is read in byte ranges
    that end at a newline, one per worker (``workers.in_processes``), so
    ``build`` should return something small: its values come back pickled.
    Each range numbers its own lines, and the line counts of the ranges
    before it are added, so the values and errors are those of one reader.
    """
    return _joined(workers.in_processes([functools.partial(_read_range, path, start, stop, build)
                                         for start, stop in _ranges(path)]))


def _joined(parts: list[tuple[list, int, Exception | None]]) -> list:
    """The values of ``_read_range`` results that cover a file in order,
    or the first error, numbered by its line in the file."""
    built: list = []
    lines_before = 0
    for values, n_lines, error in parts:
        if error is not None:
            if isinstance(error, InputError):
                error.line = lines_before + n_lines
                error.args = (f"line {error.line}: {error}",)
            raise error
        built += values
        lines_before += n_lines
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
    record's line too, and the file is read across workers
    (``read_jsonl``). Without it the records are read in this process:
    sent back pickled from a second worker, the records of a 972 KB table
    file took 59.6 ms on 2 cores, against 44.7 ms read here.
    """
    if modality not in MODALITIES:
        raise SchemaError(f"modality must be one of {MODALITIES}, got {modality!r}")

    def build(obj: dict) -> object:
        record = _record_from_json(obj)
        if record.modality != modality:
            raise SchemaError(f"expected {modality} context, found {record.modality}")
        return record if then is None else then(record)

    if then is None:
        return _joined([_read_range(path, 0, None, build)])
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

    The stats of each record, merged (``merge_stats``), so every aggregate
    is permutation-invariant.
    """
    return merge_stats([_record_stats(record) for record in records])


def _record_stats(record: QaRecord) -> DatasetStats:
    text, grid = record.passage is not None, record.grid
    return DatasetStats(
        n_samples=1,
        max_question_tokens=len(record.question.split()),
        max_target_tokens=max(len(a.split()) for a in record.answers),
        max_context_tokens=len(record.passage.split()) if text else None,
        max_table_rows=None if text else grid.n_header_rows + grid.n_body_rows,
        max_table_cols=None if text else grid.width,
    )


def merge_stats(parts: list[DatasetStats]) -> DatasetStats:
    """The stats of disjoint sets of records, from each set's stats: the
    counts add, and each maximum is the largest one given (a modality's
    field stays None when no set has one)."""
    if len(parts) == 1:
        return parts[0]

    def most(name: str, default: int | None) -> int | None:
        return max((value for part in parts if (value := getattr(part, name)) is not None),
                   default=default)

    return DatasetStats(
        n_samples=sum(part.n_samples for part in parts),
        max_question_tokens=most("max_question_tokens", 0),
        max_target_tokens=most("max_target_tokens", 0),
        max_context_tokens=most("max_context_tokens", None),
        max_table_rows=most("max_table_rows", None),
        max_table_cols=most("max_table_cols", None),
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

