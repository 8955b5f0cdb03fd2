"""In-memory span tracer and the instrumentation that wraps adapterqa.

Spans are recorded from the benchmark's side: the calls into each module's
public functions are wrapped by replacing the module attributes (in every
loaded ``adapterqa`` module that holds the same object), and each built
toy model has its sublayers wrapped per instance, found by class. A span
is (name, start, end, parent span, op id, value); ``value`` carries one
count measured at the boundary, such as the grid cells a validation
resolved. Spans stay in flat arrays until the run ends and are written
out once.

A wrap target that no longer exists is not an error: it is recorded in
``Instrumentation.absent`` with the reason, and the metrics that depend on
it are reported absent.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# Sublayer classes of adapterqa.toymodel and the category their self time
# is reported under. Order matters: the first isinstance match wins.
SUBLAYER_CLASSES = (
    ("AdapterModule", "adapter"),
    ("Attention", "attention"),
    ("FeedForward", "ffn"),
    ("LayerNorm", "norm"),
    ("Linear", "linear_frozen"),
)


class Tracer:
    """Records nested spans into parallel arrays; cost per span is a few
    list appends and two clock reads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.muted = 0  # > 0 inside a gradient audit: fine sublayer spans are skipped

    def name_of(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self.name_of(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    def wrap(self, name, fn, note=None, fine: bool = False):
        """Wrap ``fn`` in a span. ``name`` may be a function of the call's
        (args, kwargs); ``note(args, kwargs, result)`` sets the span value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fine and tracer.muted:
                return fn(*args, **kwargs)
            idx = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if note is not None:
                tracer.value[idx] = note(args, kwargs, out)
            return out

        return traced

    def __len__(self) -> int:
        return len(self.name_id)

    def write(self, path: Path, meta: dict):
        """Write the meta object, then one span per line as
        [name, start_s, end_s, parent, op, value], gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(meta) + "\n")
            names = self.names
            for i in range(len(self)):
                handle.write(json.dumps([names[self.name_id[i]], self.start[i], self.end[i],
                                         self.parent[i], self.op[i], self.value[i]]) + "\n")


class SpanTable:
    """Durations, self times and root contexts of a finished trace."""

    def __init__(self, tracer: Tracer, roots: tuple[str, ...]):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.value = np.frombuffer(tracer.value, dtype=np.float64).copy()
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)
                    - np.frombuffer(tracer.start, dtype=np.float64))
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        # ctx[i]: index of the nearest enclosing span whose name is a root
        # (the span itself if it is one). Parents precede children.
        root_ids = {tracer._name_ids[r] for r in roots if r in tracer._name_ids}
        ctx = np.full(len(self.dur), -1, dtype=np.int64)
        name_id = self.name_id.tolist()
        parent = self.parent.tolist()
        for i in range(len(name_id)):
            if name_id[i] in root_ids:
                ctx[i] = i
            elif parent[i] >= 0:
                ctx[i] = ctx[parent[i]]
        self.ctx = ctx
        self.ctx_name = np.where(ctx >= 0, self.name_id[np.maximum(ctx, 0)], -1)

    def mask(self, name: str, under: str | None = None) -> np.ndarray:
        """Spans called ``name``, optionally only those inside a root span
        called ``under``."""
        if name not in self.names or (under is not None and under not in self.names):
            return np.zeros(len(self.dur), dtype=bool)
        sel = self.name_id == self.names.index(name)
        if under is not None:
            sel &= self.ctx_name == self.names.index(under)
        return sel

    def count(self, name: str, under: str | None = None) -> int:
        return int(self.mask(name, under).sum())

    def total(self, name: str, under: str | None = None) -> float:
        return float(self.dur[self.mask(name, under)].sum())

    def self_total(self, name: str, under: str | None = None) -> float:
        return float(self.self_time[self.mask(name, under)].sum())

    def value_total(self, name: str, under: str | None = None) -> float:
        return float(self.value[self.mask(name, under)].sum())


def _cells_of(_args, _kwargs, validated) -> float:
    width = getattr(validated, "width", 0)
    rows = len(getattr(validated, "header_grid", ())) + len(getattr(validated, "body_grid", ()))
    return float(width * rows)


def _pairs_of(_args, _kwargs, flat) -> float:
    return float(getattr(flat, "pair_count", 0))


def _truncated(args, _kwargs, seq) -> float:
    return 1.0 if seq.n_tokens < args[0].n_tokens else 0.0


def _rouge_name(args, kwargs) -> str:
    n = kwargs["n"] if "n" in kwargs else args[2]
    return f"metrics.rouge{n}"


def _n_examples(_args, _kwargs, report) -> float:
    return float(getattr(report, "n_examples", 0))


def _n_checked(_args, _kwargs, report) -> float:
    return float(getattr(report, "n_params_checked", 0))


# (module, attribute, span name, note) for module-level functions. The
# names cover both the public calls the benchmark makes and the calls the
# package makes between its own modules.
FUNCTION_TARGETS = (
    ("adapterqa.tables", "validate_table", "tables.validate", _cells_of),
    ("adapterqa.linearize", "linearize", "linearize", _pairs_of),
    ("adapterqa.assembly", "assemble", "assembly.assemble", None),
    ("adapterqa.assembly", "truncate", "assembly.truncate", _truncated),
    ("adapterqa.data", "read_records", "data.read_records", None),
    ("adapterqa.data", "compute_stats", "data.compute_stats", None),
    ("adapterqa.data", "prepare_examples", "data.prepare_examples", None),
    ("adapterqa.metrics", "evaluate_pairs", "metrics.evaluate_pairs", _n_examples),
    ("adapterqa.metrics", "rouge_n", _rouge_name, None),
    ("adapterqa.metrics", "rouge_l", "metrics.rougeL", None),
    ("adapterqa.metrics", "sacrebleu_corpus", "metrics.bleu", None),
    ("adapterqa.metrics", "metric_tokenize", "metrics.tokenize", None),
    ("adapterqa.metrics", "bleu_tokenize", "metrics.tokenize", None),
    ("adapterqa.toymodel", "softmax_cross_entropy", "toymodel.loss", None),
    ("adapterqa.toymodel", "train_adapters", "toymodel.train_adapters", None),
)

CLASSMETHOD_TARGETS = (
    ("adapterqa.tables", "HierarchicalTable", "from_json_dict", "tables.parse"),
)


class Instrumentation:
    """Installs the wrappers for one traced phase and removes them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        tracer = self.tracer
        for module, attr, span, note in FUNCTION_TARGETS:
            self._patch(module, attr, span, lambda fn, s=span, n=note: tracer.wrap(s, fn, n))
        for module, cls_name, attr, span in CLASSMETHOD_TARGETS:
            cls = _lookup(module, cls_name)
            descriptor = vars(cls).get(attr) if isinstance(cls, type) else None
            if not isinstance(descriptor, classmethod):
                self.absent[span] = f"{module}.{cls_name}.{attr} not found"
                continue
            self._undo.append((cls, attr, descriptor))
            setattr(cls, attr, classmethod(tracer.wrap(span, descriptor.__func__)))
        self._patch("adapterqa.toymodel", "build_toy_model", "toymodel.build", self._build_wrapper)
        self._patch("adapterqa.toymodel", "grad_check", "toymodel.grad_check",
                    self._grad_check_wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _patch(self, module: str, attr: str, span: str, make_wrapper):
        """Replace ``module.attr`` by ``make_wrapper(original)`` in every
        loaded adapterqa module that holds the same object."""
        original = _lookup(module, attr)
        if not callable(original):
            label = span if isinstance(span, str) else "metrics.rouge"
            self.absent[label] = f"{module}.{attr} not found"
            return
        wrapped = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "adapterqa" or name.startswith("adapterqa.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _build_wrapper(self, original):
        traced = self.tracer.wrap("toymodel.build", original)

        @functools.wraps(original)
        def build(*args, **kwargs):
            model = traced(*args, **kwargs)
            self.instrument_model(model)
            return model

        return build

    def _grad_check_wrapper(self, original):
        traced = self.tracer.wrap("toymodel.grad_check", original, _n_checked)

        @functools.wraps(original)
        def grad_check(*args, **kwargs):
            self.tracer.muted += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self.tracer.muted -= 1

        return grad_check

    def _wrap_method(self, obj, method: str, span: str, note=None, fine=False) -> bool:
        bound = getattr(obj, method, None)
        if bound is None:
            return False
        wrapped = self.tracer.wrap(span, bound, note, fine)
        try:
            setattr(obj, method, wrapped)
        except AttributeError:
            return False
        return True

    def instrument_model(self, model):
        """Wrap one built model: its forward/backward/zero_grads, each
        encoder and decoder layer, and every sublayer found by class."""
        for method, span in (("forward", "toymodel.forward"), ("backward", "toymodel.backward"),
                             ("zero_grads", "toymodel.zero_grads")):
            if not self._wrap_method(model, method, span):
                self.absent[span] = f"ToyModel.{method} not found"

        encoder = list(getattr(model, "encoder", []))
        decoder = list(getattr(model, "decoder", []))
        if not encoder or not decoder:
            self.absent["toymodel.layers"] = "model has no encoder/decoder layer lists"
        layers = [("encoder", i, layer) for i, layer in enumerate(encoder)]
        layers += [("decoder", len(encoder) + i, layer) for i, layer in enumerate(decoder)]
        trainable = [index for _, index, layer in layers if _has_trainable(layer)]
        lowest = min(trainable) if trainable else None
        for side, index, layer in layers:
            useful = 1.0 if lowest is not None and index >= lowest else 0.0
            self._wrap_method(layer, "forward", f"toymodel.{side}.fwd")
            self._wrap_method(layer, "backward", f"toymodel.{side}.bwd",
                              note=lambda _a, _k, _out, u=useful: u)

        toymodel = sys.modules.get("adapterqa.toymodel")
        classes = []
        for cls_name, category in SUBLAYER_CLASSES:
            cls = getattr(toymodel, cls_name, None)
            if isinstance(cls, type):
                classes.append((cls, category))
            else:
                self.absent[f"toymodel.{category}"] = f"adapterqa.toymodel.{cls_name} not found"
        self._walk(model, classes, set())

    def _walk(self, obj, classes, seen: set):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        children = obj if isinstance(obj, (list, tuple)) else list(vars(obj).values())
        for child in children:
            if isinstance(child, (list, tuple)):
                self._walk(child, classes, seen)
                continue
            if not type(child).__module__.startswith("adapterqa") or id(child) in seen:
                continue
            category = next((cat for cls, cat in classes if isinstance(child, cls)), None)
            if category == "linear_frozen" and _has_trainable(child):
                category = None  # a trainable projection outside an adapter is not frozen work
            if category is not None:
                self._wrap_method(child, "forward", f"toymodel.{category}.fwd", fine=True)
                self._wrap_method(child, "backward", f"toymodel.{category}.bwd", fine=True)
            if category != "adapter" and hasattr(child, "__dict__"):
                self._walk(child, classes, seen)


def _has_trainable(obj) -> bool:
    params = getattr(obj, "parameters", None)
    return callable(params) and any(getattr(p, "trainable", False) for p in params())


def _lookup(module: str, attr: str):
    mod = sys.modules.get(module)
    return getattr(mod, attr, None) if mod is not None else None
