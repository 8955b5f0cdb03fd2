"""The package's public names: ``adapterqa.__all__`` lists each name once,
and every listed name exists, so a deleted name left behind in it fails.

The benchmark (``perfbench/bench_workloads.py``) drives the package through
``adapterqa.…`` attribute chains; each of them must resolve, and each call
through one must still bind its arguments, so renaming or deleting a name
the benchmark uses fails here rather than in every benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import adapterqa

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "bench_workloads.py"


def test_every_exported_name_resolves_once():
    assert len(set(adapterqa.__all__)) == len(adapterqa.__all__)
    assert [name for name in adapterqa.__all__ if not hasattr(adapterqa, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from adapterqa import *", namespace)
    assert set(adapterqa.__all__) <= set(namespace)


def _chain(node: ast.expr) -> str | None:
    """``adapterqa.a.b`` for an attribute chain rooted at the package name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "adapterqa":
        return ".".join(["adapterqa", *reversed(names)])
    return None


def _resolve(chain: str):
    parts = chain.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, name)
        except AttributeError:  # a submodule not imported yet
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _bench_calls() -> tuple[list[str], list[ast.Call]]:
    """Every ``adapterqa.…`` chain in the benchmark's workloads (with its
    prefixes) and every call made through one."""
    tree = ast.parse(BENCH_WORKLOADS.read_text(encoding="utf-8"))
    chains = {_chain(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _chain(node.func) is not None]
    return sorted(chains - {None}), calls


def test_every_name_the_benchmark_reads_resolves():
    chains, _ = _bench_calls()
    assert "adapterqa.cli.main" in chains
    unresolved = []
    for chain in chains:
        try:
            _resolve(chain)
        except (AttributeError, ImportError) as exc:
            unresolved.append(f"{chain}: {exc}")
    assert unresolved == []


def test_every_benchmark_call_binds():
    """Each callee accepts its call's named keywords, and its positional
    arguments unless one is starred."""
    _, calls = _bench_calls()
    assert calls
    unbound = []
    for call in calls:
        signature = inspect.signature(_resolve(_chain(call.func)))
        positional = [] if any(isinstance(a, ast.Starred) for a in call.args) else call.args
        try:
            signature.bind_partial(*[None] * len(positional),
                                   **{kw.arg: None for kw in call.keywords if kw.arg is not None})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {_chain(call.func)}: {exc}")
    assert unbound == []
