"""Commands split across forked workers (``adapterqa.workers``), and the
heap policy of training.

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
from adapterqa.toymodel import (
    ToyConfig,
    TrainConfig,
    build_toy_model,
    make_copy_task,
    train_adapters,
)

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


# U+3000, U+0085 and the ASCII separators \x1c-\x1f are whitespace to
# str.strip but not to bytes.strip; \x0b, \x0c, \x1c, U+0085 and U+2028
# end a line for str.splitlines, but not for bytes.splitlines or text mode.
LINE_BODIES = st.sampled_from([b'{"k": 1}', b'{"k": "\xc3\xa9"}', b'{"k": [1, 2]}', b"", b"   ",
                               b"\t", b'{"bad": 0}', b"[1]", b'{"k": ', b'{"k": "\xff"}',
                               b"\xe2\x82", b"\xe3\x80\x80", b"\xc2\x85", b"\x0b", b"\x0c", b"\x1c",
                               b'\xef\xbb\xbf{"k": 1}', b'{"k": 1}\x1c',
                               b'{"k": "a\xe2\x80\xa8b"}'])
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


def test_read_records_without_then_reads_in_this_process(tmp_path):
    """Without ``then``, a worker would send every record back pickled,
    which costs more than reading it here: a file that ``read_jsonl``
    splits across two workers is read in this process, forking nothing."""
    path = big_corpus(tmp_path)["tables"]
    assert path.stat().st_size >= 2 * data.JSONL_WORKER_BYTES
    want = read_jsonl_oracle(path, data._record_from_json)
    with mock.patch.object(workers, "usable_cpus", lambda: 2), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert len(data._ranges(path)) == 2
        assert data.read_records(path, "table") == want
    assert len(want) > 1000


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


def train_outputs() -> tuple[dict, bytes]:
    model = build_toy_model(ToyConfig(d_model=16, bottleneck=4, n_heads=2, vocab_size=16,
                                      max_len=8, seed=6))
    source, target = make_copy_task(n_examples=8, seq_len=6, vocab_size=16, seed=3)
    log = train_adapters(model, source, target, TrainConfig(steps=3))
    return log.to_json_dict(), model.theta.tobytes()


@pytest.mark.parametrize("result", (None, 0, 1),
                         ids=("no mallopt", "mallopt returns 0", "mallopt returns 1"))
def test_training_gives_the_same_outputs_whatever_mallopt_does(monkeypatch, result):
    """Where the C library has no ``mallopt``, or it refuses a setting,
    ``train_adapters`` runs as with the heap policy and gives the same log
    and adapters. Only the first call in a process looks ``mallopt`` up
    and calls it, once per setting until one is refused."""
    want = train_outputs()
    calls = []

    def mallopt(param: int, value: int) -> int:
        calls.append((param, value))
        return result

    def lookup():
        calls.append("lookup")
        return None if result is None else mallopt

    monkeypatch.setattr(workers, "_heap_kept", None)
    monkeypatch.setattr(workers, "_mallopt", lookup)
    assert train_outputs() == want
    assert train_outputs() == want
    made = {None: [], 0: workers.HEAP_POLICY[:1], 1: workers.HEAP_POLICY}[result]
    assert calls == ["lookup", *made]
    assert workers.keep_freed_heap() == (result == 1)


# Three training runs on three row shards, in a process held to at most two
# CPUs, then glibc's malloc_stats(), which writes one "Arena N:" block per
# arena to stderr. Without the arena cap the three shards' threads open
# three arenas.
ARENA_SCRIPT = """
import ctypes, json, os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from adapterqa import toymodel, workers
libc = ctypes.CDLL(None)
if not hasattr(libc, "malloc_stats"):
    sys.exit(3)
toymodel.SHARD_MIN_STREAM = 1
toymodel._usable_cpus = lambda: 3
model = toymodel.build_toy_model(toymodel.ToyConfig(d_model=16, bottleneck=4, n_heads=2,
                                                    vocab_size=16, max_len=8, seed=6))
source, target = toymodel.make_copy_task(n_examples=6, seq_len=6, vocab_size=16, seed=3)
for _ in range(3):
    toymodel.train_adapters(model, source, target, toymodel.TrainConfig(steps=3))
print(json.dumps([workers.keep_freed_heap(), workers.HEAP_POLICY]), flush=True)
libc.malloc_stats()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_training_threads_share_at_most_one_arena_per_cpu():
    """Under the heap policy malloc opens at most one arena per usable
    CPU, so training on more row shards than CPUs, each on a fresh thread
    at every forward and backward, reuses arenas rather than opening more
    (each arena keeps freed blocks of its own)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", ARENA_SCRIPT], capture_output=True, text=True,
                          env=env, cwd=str(ROOT), timeout=120)
    if proc.returncode == 3:
        pytest.skip("the C library has no malloc_stats")
    assert proc.returncode == 0, proc.stderr
    kept, policy = json.loads(proc.stdout)
    if not kept:
        pytest.skip("the C library refused the heap policy")
    cpus = min(2, len(os.sched_getaffinity(0)))
    assert [-8, cpus] in policy  # M_ARENA_MAX
    arenas = sum(line.startswith("Arena ") for line in proc.stderr.splitlines())
    assert 1 <= arenas <= cpus


# One run of every command, on files large enough for the data commands to
# split across workers; only train-toy and gradcheck run the model's many
# same-shaped forwards.
HEAP_COMMANDS = {
    "linearize": ["linearize", "--in", "{table}"],
    "assemble": ["assemble", "--batch", "{batch}"],
    "eval": ["eval", "--pred", "{pred}", "--ref", "{ref}"],
    "count-params": ["count-params"],
    "plan-ablation": ["plan-ablation", "--mode", "grid"],
    "gradcheck": ["gradcheck", "--d-model", "8", "--bottleneck", "2", "--vocab", "16",
                  "--seq-len", "4"],
    "train-toy": ["train-toy", "--d-model", "8", "--bottleneck", "2", "--vocab", "16",
                  "--seq-len", "4", "--examples", "4", "--steps", "2"],
    "stats": ["stats", "--in", "{tables}", "--modality", "table"],
    "prepare": ["prepare", "--in", "{tables}", "--modality", "table"],
}


@pytest.fixture(scope="module")
def heap_corpus(tmp_path_factory) -> dict[str, Path]:
    base = tmp_path_factory.mktemp("heap")
    paths = big_corpus(base)
    paths["table"] = base / "table.json"
    paths["table"].write_text(json.dumps(random_table(random.Random(4)).to_json_dict()),
                              encoding="utf-8")
    paths["batch"] = base / "batch.jsonl"
    paths["batch"].write_text("".join(
        json.dumps({"question": f"q {i}", "title": "T", "context": f"c{i} " * (i % 7)}) + "\n"
        for i in range(2 * data.JSONL_WORKER_BYTES // 30)), encoding="utf-8")
    return paths


@pytest.mark.parametrize("command", HEAP_COMMANDS)
def test_only_the_model_commands_set_the_heap_policy(tmp_path, heap_corpus, command):
    """Importing the package and running any command but ``train-toy`` and
    ``gradcheck`` never looks ``mallopt`` up; each of those does, once,
    through ``train_adapters`` or ``grad_check``."""
    argv = [arg.format_map(heap_corpus) for arg in HEAP_COMMANDS[command]]
    argv += ["--out", str(tmp_path / "out")]
    script = ("import json, sys\nfrom adapterqa import cli, workers\n"
              "looked = []\n"
              "workers._mallopt = lambda: looked.append(1)\n"  # as with no mallopt
              f"code = cli.main({argv!r})\n"
              "print(json.dumps([code, len(looked), workers._heap_kept]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=str(ROOT), timeout=120)
    assert proc.returncode == 0, proc.stderr
    model = command in ("train-toy", "gradcheck")
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, int(model), False if model else None]
    assert (tmp_path / "out").stat().st_size > 0
