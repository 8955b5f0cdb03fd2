"""Commands split across forked workers (``adapterqa.workers``).

``stats``, ``prepare`` and ``assemble --batch`` read their JSONL file in
byte ranges, and ``eval`` scores runs of whole blocks, one per worker.
Whatever the worker count, every output and every error must equal the
one-process run byte for byte, and no call may leave a child behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa import cli, data, metrics, workers
from adapterqa.errors import AdapterQaError, InputError, SchemaError

from gen_tables import random_table

ROOT = Path(__file__).resolve().parents[1]
WORKER_COUNTS = (1, 2, 3, 5)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def split_into(n: int):
    """A host with ``n`` usable CPUs, where every JSONL byte and every eval
    block of four pairs may go to a worker of its own. Yields the pids of
    the children forked meanwhile."""
    forks: list[int] = []
    real_fork = os.fork

    def fork() -> int:
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(workers, "usable_cpus", lambda: n), \
            mock.patch.object(data, "JSONL_WORKER_BYTES", 1), \
            mock.patch.object(metrics, "EVAL_WORKER_BLOCKS", 1), \
            mock.patch.object(metrics, "EVAL_BLOCK_PAIRS", 4), \
            mock.patch.object(os, "fork", fork):
        yield forks
    assert_no_child_left()


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert_no_child_left()
    return code, captured.out, captured.err


def table_record(i: int, rng: random.Random) -> dict:
    return {"id": f"t{i}", "question": f"what is in row {i}", "title": "T",
            "context": {"table": random_table(rng).to_json_dict()},
            "answers": [f"c{rng.randint(0, 9)} and c{rng.randint(0, 9)}", "none"]}


def text_record(i: int, rng: random.Random) -> dict:
    words = " ".join(rng.choice(["ka", "lo", "mi", "ne", "Ru", "sa,"]) for _ in range(40))
    return {"id": f"p{i}", "question": f"who is {i}", "title": "T",
            "context": {"passage": words}, "answers": [words[:30], "x"]}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, Path]:
    rng = random.Random(5)
    base = tmp_path_factory.mktemp("corpus")
    files = {"tables": [table_record(i, rng) for i in range(40)],
             "texts": [text_record(i, rng) for i in range(40)],
             "batch": [{"question": f"q {i}", "title": "T", "context": f"c{i} " * (i % 7)}
                       for i in range(40)]}
    paths = {}
    for name, objs in files.items():
        paths[name] = base / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    words = ["the", "cat", "sat", "on", "mat", "Dog", "ran,", "3.5", "-", "a"]
    for name in ("pred", "ref"):
        paths[name] = base / f"{name}.txt"
        paths[name].write_text("".join(" ".join(rng.choice(words) for _ in range(rng.randint(0, 20)))
                                       + "\n" for _ in range(42)), encoding="utf-8")
    return paths


COMMANDS = {
    "stats-table": ["stats", "--in", "tables", "--modality", "table"],
    "stats-text": ["stats", "--in", "texts", "--modality", "text"],
    "prepare-table": ["prepare", "--in", "tables", "--modality", "table",
                      "--max-tokens", "30", "--max-target-tokens", "2"],
    "prepare-text": ["prepare", "--in", "texts", "--modality", "text", "--answer-index", "-1"],
    "assemble": ["assemble", "--batch", "batch", "--max-tokens", "12"],
    "eval": ["eval", "--pred", "pred", "--ref", "ref"],
}


@pytest.mark.parametrize("n", WORKER_COUNTS)
@pytest.mark.parametrize("command", COMMANDS)
def test_split_commands_print_the_one_process_output(capsys, corpus, command, n):
    argv = [corpus.get(arg, arg) for arg in COMMANDS[command]]
    want = run(capsys, argv)
    assert want[0] == 0
    with split_into(n) as forks:
        got = run(capsys, argv)
    assert got == want
    assert len(forks) == n - 1


def _lines(raw: bytes) -> list[bytes]:
    """The file's lines as a text-mode reader splits them (universal
    newlines), each with its own line end."""
    text = raw.decode("utf-8", "surrogateescape")
    return [line.encode("utf-8", "surrogateescape")
            for line in io.StringIO(text, newline="").readlines()]


def layout(objs: list[dict], kind: str) -> bytes:
    """The records as JSONL with ``kind`` line ends. "blank" puts each
    record at the end of a block of one size, after a whitespace line and
    an empty one: a cut at a multiple of that size lands after the
    whitespace line, so blank lines stand on both sides of it."""
    if kind == "blank":
        lines = [json.dumps(obj) + "\n" for obj in objs]
        size = max(map(len, lines)) + 2000
        return "".join(" " * (size - len(line) - 2) + "\n\n" + line for line in lines).encode()
    ends = {"lf": ["\n"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n", "\r"]}[kind]
    return "".join(json.dumps(obj) + ends[i % len(ends)] for i, obj in enumerate(objs)).encode()


FAULTS = {
    # Each keeps the line's length, so the cuts stay where they were.
    "schema": (b'"question"', b'"qvestion"'),
    "json": (b"}", b" "),
    "utf8": (b'"title": "T"', b'"title": "\xff"'),
}


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("kind", ("lf", "crlf", "mixed", "blank"))
@pytest.mark.parametrize("where", ("last of chunk 0", "first of chunk 1", "last of file"))
@pytest.mark.parametrize("fault", FAULTS)
def test_a_bad_line_at_a_cut_names_the_line_one_reader_names(capsys, tmp_path, n, kind, where,
                                                             fault):
    rng = random.Random(11)
    path = tmp_path / "records.jsonl"
    raw = layout([text_record(i, rng) for i in range(30)], kind)
    path.write_bytes(raw)
    with split_into(n):
        ranges = data._ranges(path)
    assert len(ranges) == n
    lines = _lines(raw)
    starts = [sum(map(len, lines[:i])) for i in range(len(lines))]
    records = [i for i, line in enumerate(lines) if line.strip()]
    cut = ranges[1][0]
    if kind == "blank":  # blank lines on both sides of every cut
        for start, _ in ranges[1:]:
            at = starts.index(start)
            assert not lines[at - 1].strip() and not lines[at].strip()
    index = {"last of chunk 0": max(i for i in records if starts[i] < cut),
             "first of chunk 1": min(i for i in records if starts[i] >= cut),
             "last of file": records[-1]}[where]
    old, new = FAULTS[fault]
    at = starts[index] + lines[index].rindex(old) if fault == "json" else \
        starts[index] + lines[index].index(old)
    path.write_bytes(raw[:at] + new + raw[at + len(old):])

    want = run(capsys, ["stats", "--in", path, "--modality", "text"])
    with split_into(n) as forks:
        assert data._ranges(path) == ranges
        got = run(capsys, ["stats", "--in", path, "--modality", "text"])
    assert got == want
    assert len(forks) == n - 1
    code, out, err = got
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].startswith(f"line {index + 1}: ")
    with split_into(n), pytest.raises(InputError) as raised:
        data.read_records(path, "text")
    assert raised.value.line == index + 1


def read_jsonl_oracle(path: Path, build) -> list:
    """``read_jsonl`` as one reader: text mode, every line in order."""
    built = []
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                try:
                    obj = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"invalid UTF-8: {exc}") from exc
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise SchemaError(f"line must be a JSON object, got {type(obj).__name__}")
                built.append(build(obj))
            except InputError as exc:
                exc.line = line_no
                exc.args = (f"line {line_no}: {exc}",)
                raise
    return built


def _build(obj: dict) -> object:
    if "bad" in obj:
        raise SchemaError("'bad' is not allowed")
    return obj.get("k")


def outcome(read, path: Path) -> tuple:
    try:
        return ("ok", read(path, _build))
    except InputError as exc:
        return (type(exc).__name__, str(exc), exc.line)


LINE_BODIES = st.sampled_from([b'{"k": 1}', b'{"k": "\xc3\xa9"}', b'{"k": [1, 2]}', b"", b"   ",
                               b"\t", b'{"bad": 0}', b"[1]", b'{"k": ', b'{"k": "\xff"}', b"\xe2\x82"])
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r"])


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.tuples(LINE_BODIES, LINE_ENDS), max_size=12),
       last_end=st.booleans(), n=st.integers(1, 5))
# A JSON error at a line's end counts the line end in its position: each
# reads as one "\n", as in text mode.
@example(lines=[(b'{"k": 1}', b"\r"), (b'{"k": ', b"\r\n")], last_end=True, n=2)
@example(lines=[(b"", b"\r\n"), (b'{"k": ', b"\r")], last_end=True, n=2)
def test_read_jsonl_equals_one_reader_on_any_file(tmp_path_factory, lines, last_end, n):
    raw = b"".join(body + end for body, end in lines)
    if lines and not last_end:
        raw = raw[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
    path.write_bytes(raw)
    want = outcome(read_jsonl_oracle, path)
    with split_into(n):
        assert outcome(data.read_jsonl, path) == want


def test_a_worker_that_ends_without_a_result_exits_1(capsys, corpus):
    parent = os.getpid()
    real = cli.compute_stats

    def compute_stats(records):
        if os.getpid() != parent:
            os._exit(3)
        return real(records)

    with split_into(2), mock.patch.object(cli, "compute_stats", compute_stats):
        code, out, err = run(capsys, ["stats", "--in", corpus["texts"], "--modality", "text"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "AdapterQaError",
                               "message": "worker 1 ended without a result (exit status 3)"}


@pytest.mark.parametrize("host", ("another thread", "no os.fork", "one CPU"))
def test_commands_run_in_this_process_where_they_cannot_fork(capsys, monkeypatch, corpus, host):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    with split_into(1 if host == "one CPU" else 3) as forks:
        if host == "no os.fork":
            monkeypatch.delattr(os, "fork")
        elif host == "another thread":
            thread.start()
        try:
            for argv in COMMANDS.values():
                argv = [corpus.get(arg, arg) for arg in argv]
                with mock.patch.object(workers, "usable_cpus", lambda: 1):
                    want = run(capsys, argv)
                assert run(capsys, argv) == want
                assert want[0] == 0
        finally:
            stop.set()
            monkeypatch.undo()
    assert forks == []


def test_in_processes_returns_in_order_and_raises_the_lowest_failure():
    def fail(k: int):
        raise SchemaError(f"call {k}")

    assert workers.in_processes([lambda k=k: (k, os.getpid()) for k in range(3)])[0] == \
        (0, os.getpid())
    pids = {pid for _, pid in workers.in_processes([lambda k=k: (k, os.getpid())
                                                    for k in range(3)])}
    assert len(pids) == 3
    assert [k for k, _ in workers.in_processes([lambda k=k: (k, 0) for k in range(4)])] == \
        [0, 1, 2, 3]
    assert_no_child_left()
    for calls, message in (([lambda: 0, lambda: fail(1), lambda: fail(2)], "call 1"),
                           ([lambda: fail(0), lambda: fail(1)], "call 0"),
                           ([lambda: 0, lambda: 1, lambda: fail(2)], "call 2")):
        with pytest.raises(SchemaError, match=message):
            workers.in_processes(calls)
        assert_no_child_left()


def test_an_error_from_a_child_keeps_its_type_and_fields():
    def fail():
        exc = SchemaError("bad record")
        exc.line = 7
        raise exc

    with pytest.raises(SchemaError, match="bad record") as raised:
        workers.in_processes([lambda: None, fail])
    assert raised.value.line == 7
    assert_no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_children():
    def interrupted():
        raise KeyboardInterrupt

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        workers.in_processes([interrupted, lambda: time.sleep(60), lambda: time.sleep(60)])
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


def test_a_child_result_that_cannot_be_pickled_is_an_internal_error():
    with pytest.raises(AdapterQaError, match="worker 1 ended without a result"):
        workers.in_processes([lambda: None, lambda: threading.Lock()])
    assert_no_child_left()


def test_merged_stats_are_the_stats_of_all_records(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(table_record(i, rng)) + "\n" for i in range(12)),
                    encoding="utf-8")
    records = data.read_records(path, "table")
    whole = data.compute_stats(records)
    for cut in range(len(records) + 1):
        parts = [data.compute_stats(records[:cut]), data.compute_stats(records[cut:])]
        assert data.merge_stats(parts) == whole
    assert data.merge_stats([]) == data.compute_stats([])


def big_corpus(base: Path) -> dict[str, Path]:
    """A table file and eval files large enough to split at the real
    thresholds, one worker per CPU up to 2."""
    rng = random.Random(2)
    tables, size, i = base / "tables.jsonl", 0, 0
    with open(tables, "w", encoding="utf-8") as handle:
        while size < 2 * data.JSONL_WORKER_BYTES + 4096:
            size += handle.write(json.dumps(table_record(i, rng)) + "\n")
            i += 1
    pairs = 2 * metrics.EVAL_WORKER_BLOCKS * metrics.EVAL_BLOCK_PAIRS + 7
    words = ["alpha", "beta", "Gamma", "delta,", "4.5", "e-f"]
    paths = {"tables": tables}
    for name in ("pred", "ref"):
        paths[name] = base / f"{name}.txt"
        paths[name].write_text("".join(" ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
                                       + "\n" for _ in range(pairs)), encoding="utf-8")
    return paths


def test_the_command_line_splits_with_warnings_as_errors(capsys, tmp_path):
    """``python -W error -X dev``: an unclosed pipe (ResourceWarning) or a
    fork while threads run (a DeprecationWarning from Python 3.12) fails
    the run."""
    paths = big_corpus(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["stats", "--in", paths["tables"], "--modality", "table"],
                 ["prepare", "--in", paths["tables"], "--modality", "table"],
                 ["eval", "--pred", paths["pred"], "--ref", paths["ref"]]):
        argv = [str(arg) for arg in argv]
        with mock.patch.object(workers, "usable_cpus", lambda: 1):
            code, out, err = run(capsys, argv)
        assert code == 0
        proc = subprocess.run([sys.executable, "-W", "error", "-X", "dev", "-m", "adapterqa",
                               *argv], capture_output=True, text=True, env=env, cwd=str(ROOT),
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
