"""The three benchmark workloads, the run loop, and metric derivation.

A workload is set up from the seed (inputs generated into a work
directory, then one untimed warm-up op), then runs ops back to back for
the measured time. Every op is checked after it ends; a failed check or an
exception counts toward ``error_rate`` and the run goes on.

The package is reached only through names in ``adapterqa.__all__``, the
ablation planner's public functions and ``adapterqa.cli.main`` with
default options. Calls are looked up on the module at call time, so the
traced ops see the wrappers that ``bench_trace.Instrumentation``
installs and untraced ops run the plain code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import adapterqa
import adapterqa.ablation
import adapterqa.cli

from bench_inputs import copy_task, qa_corpus, random_pair
from bench_trace import Instrumentation, SpanTable, Tracer

SETUP_REPEATS = 3
MIN_OPS = 3
CALIBRATION_LOOPS = 3  # calibration loops timed before every op
GRADCHECK_BOUND = 1e-4  # the bound of the toolkit's own numerics acceptance test
# Finite-difference step of the audit. At grad_check's default of 1e-5 a
# central difference on this toy crosses a ReLU kink on ~2% of seeds
# (4 of 180: max_rel_error up to 0.07) although the analytic gradients are
# right: all four pass at 1e-6 with errors below 1e-6.
AUDIT_EPS = 1e-6

TRAIN = "toymodel.train_adapters"
GRADCHECK = "toymodel.grad_check"

# Metrics of the untraced run (the gated end-to-end set) and of the traced
# run (per layer). (name, unit, better); BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_cal", "cal", "lower"),
)

WORKLOAD_METRICS = (
    ("op_ms", "ms", "lower"),
    ("calibration_ms", "ms", "lower"),
    ("train.tokens_per_s", "1/s", "higher"),
    ("train.final_loss", "nats", "lower"),
    ("gradcheck.scalars_per_s", "1/s", "higher"),
    ("sweep.rows_per_min", "1/min", "higher"),
    ("stats.records_per_s", "1/s", "higher"),
    ("prepare.records_per_s", "1/s", "higher"),
    ("eval.pairs_per_s", "1/s", "higher"),
    ("error_rate", "ratio", "lower"),
)

SUBLAYERS = ("attention", "ffn", "norm", "adapter", "linear_frozen")

LAYER_METRICS = (
    ("toymodel.forward.ms", "ms", "lower"),
    ("toymodel.backward.ms", "ms", "lower"),
    *((f"toymodel.{side}.{d}_ms", "ms", "lower")
      for side in ("encoder", "decoder") for d in ("fwd", "bwd")),
    *((f"toymodel.{cat}.{d}_ms", "ms", "lower") for cat in SUBLAYERS for d in ("fwd", "bwd")),
    ("toymodel.linear_frozen.step_share", "ratio", "lower"),
    ("toymodel.loss_ms", "ms", "lower"),
    ("toymodel.zero_grads_ms", "ms", "lower"),
    ("toymodel.optimizer_ms", "ms", "lower"),
    ("toymodel.build_ms", "ms", "lower"),
    ("toymodel.matmul_gflop_per_step", "GFLOP-calc", "lower"),
    ("toymodel.gflops", "GFLOP/s-calc", "higher"),
    ("toymodel.backward.layers_run", "count", "lower"),
    ("toymodel.backward.useful_ratio", "ratio", "higher"),
    ("toymodel.gradcheck.forward_ms", "ms", "lower"),
    ("toymodel.gradcheck.layer_forwards_per_scalar", "count", "lower"),
    ("tables.parse_ms", "ms", "lower"),
    ("tables.validate_ms", "ms", "lower"),
    ("tables.validate.cells_per_s", "1/s", "higher"),
    ("tables.validate.calls_per_table", "count", "lower"),
    ("linearize.ms", "ms", "lower"),
    ("linearize.cells_per_s", "1/s", "higher"),
    ("assembly.assemble_ms", "ms", "lower"),
    ("assembly.truncate_ms", "ms", "lower"),
    ("assembly.truncated_ratio", "ratio", "higher"),
    ("data.read_records.self_ms", "ms", "lower"),
    ("data.compute_stats.self_ms", "ms", "lower"),
    ("data.prepare_examples.self_ms", "ms", "lower"),
    ("metrics.rouge1_ms", "ms", "lower"),
    ("metrics.rouge2_ms", "ms", "lower"),
    ("metrics.rougeL_ms", "ms", "lower"),
    ("metrics.bleu_ms", "ms", "lower"),
    ("metrics.tokenize_ms", "ms", "lower"),
    ("metrics.rougeL.lcs_cells_per_s", "1/s", "higher"),
    ("metrics.tokenize.calls_per_pair", "count", "lower"),
    ("cli.stats.self_ms", "ms", "lower"),
    ("cli.prepare.self_ms", "ms", "lower"),
    ("cli.eval.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = LAYER_METRICS + WORKLOAD_METRICS
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


@dataclass
class OpRecord:
    seconds: float
    cal: float = math.nan  # calibration-loop seconds around this op
    parts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None


class Calls:
    """How ops reach the program: plain, or through the tracer."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run ``adapterqa.cli.main(argv)`` in process; returns (exit code, stderr)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if self.tracer is None:
                code = adapterqa.cli.main(argv)
            else:
                code = self.tracer.call(f"cli.{argv[0]}", adapterqa.cli.main, argv)
        return code, err.getvalue()


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _log_problems(log, trainable: bool) -> list[str]:
    losses = [*log.losses, log.final_loss]
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite loss"]
    if trainable and not log.final_loss < log.initial_loss:
        return [f"loss did not fall: {log.initial_loss!r} -> {log.final_loss!r}"]
    if not trainable and any(x != log.initial_loss for x in losses):
        return ["loss moved with nothing trainable"]
    return []


def matmul_flops(cfg, batch: int, src_len: int, tgt_len: int, adapter_tokens: int) -> float:
    """Computed matmul FLOPs of one full forward+backward step.

    Forward: projections, attention scores and context, feed-forward,
    adapters and the output projection, each 2*m*k*n. Backward: frozen
    projections produce input gradients only (1x forward); attention cores
    and adapters produce two gradients (2x forward). Counted for a full
    backward through every layer. ``adapter_tokens`` sums the sequence
    lengths of the layers that carry adapters.
    """
    d, ff, b, v = cfg.d_model, cfg.resolved_d_ff(), cfg.bottleneck, cfg.vocab_size
    bs, bt = batch * src_len, batch * tgt_len
    enc_proj = cfg.n_encoder_layers * (4 * 2 * bs * d * d + 2 * 2 * bs * d * ff)
    enc_core = cfg.n_encoder_layers * (2 * 2 * bs * src_len * d)
    dec_proj = cfg.n_decoder_layers * (4 * 2 * bt * d * d + 2 * 2 * bt * d * d
                                       + 2 * 2 * bs * d * d + 2 * 2 * bt * d * ff)
    dec_core = cfg.n_decoder_layers * (2 * 2 * bt * tgt_len * d + 2 * 2 * bt * src_len * d)
    out = 2 * bt * d * v
    adapters = adapter_tokens * batch * 2 * (2 * 2 * d * b)
    forward = enc_proj + enc_core + dec_proj + dec_core + out + adapters
    backward = enc_proj + dec_proj + out + 2 * (enc_core + dec_core + adapters)
    return float(forward + backward)


class TrainFull:
    """Build a mid-size toy model and train adapters on all 12 layers."""

    name = "train-full"
    roots = (TRAIN, "toymodel.build")
    calibration = "matmul"

    def __init__(self, short: bool = False, corrupt: str | None = None):
        if short:
            self.dims = dict(d_model=32, bottleneck=8, n_encoder_layers=2, n_decoder_layers=2,
                             n_heads=2, vocab_size=64, max_len=8)
            self.batch, self.length, self.steps = 4, 8, 2
        else:
            self.dims = dict(d_model=128, bottleneck=16, n_encoder_layers=6, n_decoder_layers=6,
                             n_heads=4, vocab_size=512, max_len=32)
            self.batch, self.length, self.steps = 16, 32, 3
        if corrupt is not None:
            raise ValueError(f"{self.name} has no corruption {corrupt!r}")

    def setup(self, seed: int, workdir: Path):
        self.cfg = adapterqa.ToyConfig(seed=seed, **self.dims)
        self.source, self.target = copy_task(seed, self.batch, self.length, self.cfg.vocab_size)
        tokens = (self.cfg.n_encoder_layers + self.cfg.n_decoder_layers) * self.length
        self.flops_per_step = matmul_flops(self.cfg, self.batch, self.length, self.length, tokens)

    def op(self, calls: Calls) -> dict:
        model = adapterqa.build_toy_model(self.cfg)
        t0 = time.perf_counter()
        log = adapterqa.train_adapters(model, self.source, self.target,
                                       adapterqa.TrainConfig(steps=self.steps))
        train_s = time.perf_counter() - t0
        return {"model": model, "log": log, "train_s": train_s}

    def check(self, out: dict) -> OpRecord:
        log, model = out["log"], out["model"]
        rec = OpRecord(0.0, problems=_log_problems(log, trainable=True))
        dims = adapterqa.ModelDims(self.cfg.d_model, self.cfg.bottleneck,
                                   self.cfg.n_encoder_layers, self.cfg.n_decoder_layers)
        budget, _ = adapterqa.count_adapter_params(dims, adapterqa.AdapterSet.full(dims))
        trainable = adapterqa.freeze_report(model).trainable_total
        if budget != trainable:
            rec.problems.append(f"budget {budget} != freeze report {trainable}")
        tokens = self.batch * self.length * self.steps
        rec.parts = {"train_s": out["train_s"], "tokens": tokens,
                     "train_flop": self.flops_per_step * self.steps, "steps": self.steps,
                     "final_loss": log.final_loss}
        rec.digest = _digest(log.to_json_dict())
        return rec

    def named(self, ops: list[OpRecord]) -> dict[str, float]:
        return {
            "train.tokens_per_s": statistics.median(o.parts["tokens"] / o.parts["train_s"]
                                                    for o in ops),
            "train.final_loss": ops[0].parts["final_loss"],
        }

    def final_problems(self, calls: Calls) -> list[str] | None:
        return None


class AblationSweep:
    """The toy-scaled grid ablation plan: per row, budget audit, gradient
    audit on randomized adapters, and a short training run."""

    name = "ablation-sweep"
    roots = (TRAIN, GRADCHECK, "toymodel.build")
    calibration = "tiny-arrays"

    def __init__(self, short: bool = False, corrupt: str | None = None):
        if short:
            self.dims = dict(d_model=4, bottleneck=1, n_encoder_layers=4, n_decoder_layers=4,
                             n_heads=2, vocab_size=16, max_len=4)
            self.batch, self.length, self.steps = 1, 3, 3
        else:
            self.dims = dict(d_model=8, bottleneck=2, n_encoder_layers=4, n_decoder_layers=4,
                             n_heads=2, vocab_size=32, max_len=8)
            self.batch, self.length, self.steps = 2, 6, 20
        if corrupt is not None:
            raise ValueError(f"{self.name} has no corruption {corrupt!r}")

    def setup(self, seed: int, workdir: Path):
        d = self.dims
        self.seed = seed
        self.plan_dims = adapterqa.ModelDims(d["d_model"], d["bottleneck"],
                                             d["n_encoder_layers"], d["n_decoder_layers"])
        self.rows = []
        for config in adapterqa.ablation.grid_ablation_plan(self.plan_dims):
            aset = adapterqa.ablation.apply_ablation(adapterqa.AdapterSet.full(self.plan_dims),
                                                     config)
            cfg = adapterqa.ToyConfig(seed=seed, adapter_set=aset, **d)
            tokens = self.length * aset.n_active_layers
            flops = matmul_flops(cfg, self.batch, self.length, self.length, tokens)
            self.rows.append((config.label, aset, cfg, flops))
        self.audit_src, self.audit_tgt = random_pair(seed + 1, self.batch, self.length,
                                                     d["vocab_size"])
        self.source, self.target = copy_task(seed + 2, self.batch, self.length, d["vocab_size"])

    def op(self, calls: Calls) -> dict:
        results = []
        for label, aset, cfg, _ in self.rows:
            model = adapterqa.build_toy_model(cfg)
            budget, _ = adapterqa.count_adapter_params(self.plan_dims, aset)
            trainable = adapterqa.freeze_report(model).trainable_total
            model.randomize_adapters(seed=self.seed + 3)
            t0 = time.perf_counter()
            audit = adapterqa.grad_check(model, self.audit_src, self.audit_tgt, eps=AUDIT_EPS)
            t1 = time.perf_counter()
            fresh = adapterqa.build_toy_model(cfg)
            t2 = time.perf_counter()
            log = adapterqa.train_adapters(fresh, self.source, self.target,
                                           adapterqa.TrainConfig(steps=self.steps))
            t3 = time.perf_counter()
            results.append({"label": label, "budget": budget, "trainable": trainable,
                            "audit": audit, "log": log, "gc_s": t1 - t0, "train_s": t3 - t2})
        return {"rows": results}

    def check(self, out: dict) -> OpRecord:
        rec = OpRecord(0.0)
        digest_parts = []
        for row, (_, _, _, flops) in zip(out["rows"], self.rows):
            label, audit, log = row["label"], row["audit"], row["log"]
            if row["budget"] != row["trainable"]:
                rec.problems.append(f"{label}: budget {row['budget']} != freeze report "
                                    f"{row['trainable']}")
            if not audit.max_rel_error < GRADCHECK_BOUND:
                rec.problems.append(f"{label}: grad_check max_rel_error {audit.max_rel_error!r}")
            if audit.n_params_checked != row["trainable"]:
                rec.problems.append(f"{label}: grad_check checked {audit.n_params_checked} of "
                                    f"{row['trainable']} trainable scalars")
            rec.problems += [f"{label}: {p}" for p in _log_problems(log, row["trainable"] > 0)]
            digest_parts.append([label, log.to_json_dict(), repr(audit.max_rel_error),
                                 audit.n_params_checked])
        rows = out["rows"]
        rec.parts = {
            "train_s": sum(r["train_s"] for r in rows),
            "gc_s": sum(r["gc_s"] for r in rows),
            "scalars": sum(r["audit"].n_params_checked for r in rows),
            "tokens": len(rows) * self.batch * self.length * self.steps,
            "train_flop": sum(flops for *_, flops in self.rows) * self.steps,
            "steps": len(rows) * self.steps,
            "rows": len(rows),
            "final_loss": statistics.fmean(r["log"].final_loss for r in rows),
        }
        rec.digest = _digest(digest_parts)
        return rec

    def named(self, ops: list[OpRecord]) -> dict[str, float]:
        return {
            "train.tokens_per_s": statistics.median(o.parts["tokens"] / o.parts["train_s"]
                                                    for o in ops),
            "train.final_loss": ops[0].parts["final_loss"],
            "gradcheck.scalars_per_s": statistics.median(o.parts["scalars"] / o.parts["gc_s"]
                                                         for o in ops),
            "sweep.rows_per_min": statistics.median(60.0 * o.parts["rows"] / o.seconds
                                                    for o in ops),
        }

    def final_problems(self, calls: Calls) -> list[str] | None:
        return None


class QaData:
    """stats, prepare and eval over a FeTaQA-shaped corpus, through the CLI."""

    name = "qa-data"
    roots = ()
    calibration = "text"
    MARKERS = ("<question>", "<title>", "<context>")

    def __init__(self, short: bool = False, corrupt: str | None = None):
        self.n_tables, self.n_passages, self.budget = (12, 6, 64) if short else (600, 300, 256)
        if corrupt not in (None, "drop-pred-line"):
            raise ValueError(f"{self.name} has no corruption {corrupt!r}")
        self.corrupt = corrupt

    def setup(self, seed: int, workdir: Path):
        self.corpus = qa_corpus(seed, workdir, self.n_tables, self.n_passages)
        if self.corrupt == "drop-pred-line":
            lines = self.corpus.preds.read_text(encoding="utf-8").splitlines(keepends=True)
            self.corpus.preds.write_text("".join(lines[:-1]), encoding="utf-8")
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        preds = self.corpus.preds.read_text(encoding="utf-8").splitlines()
        # n*m dynamic-programming cells of one ROUGE-L pass over the corpus
        self.lcs_cells = sum(len(adapterqa.metric_tokenize(p)) * len(adapterqa.metric_tokenize(r))
                             for p, r in zip(preds, self.corpus.answers))

    def _files(self):
        c, o = self.corpus, self.out
        return (("table", c.tables, o / "stats-table.json", o / "prep-table.jsonl", c.n_tables),
                ("text", c.passages, o / "stats-text.json", o / "prep-text.jsonl", c.n_passages))

    def op(self, calls: Calls) -> dict:
        codes = {}
        t0 = time.perf_counter()
        for modality, src, stats, _, _ in self._files():
            codes[f"stats {modality}"] = calls.cli(
                ["stats", "--in", str(src), "--modality", modality, "--out", str(stats)])
        t1 = time.perf_counter()
        for modality, src, _, prep, _ in self._files():
            codes[f"prepare {modality}"] = calls.cli(
                ["prepare", "--in", str(src), "--modality", modality,
                 "--max-tokens", str(self.budget), "--out", str(prep)])
        t2 = time.perf_counter()
        codes["eval"] = calls.cli(["eval", "--pred", str(self.corpus.preds),
                                   "--ref", str(self.corpus.refs), "--out",
                                   str(self.out / "report.json")])
        t3 = time.perf_counter()
        return {"codes": codes, "stats_s": t1 - t0, "prepare_s": t2 - t1, "eval_s": t3 - t2}

    def check(self, out: dict) -> OpRecord:
        n = self.corpus.n_records
        rec = OpRecord(0.0, parts={"records": n, "stats_s": out["stats_s"],
                                   "prepare_s": out["prepare_s"], "eval_s": out["eval_s"]})
        for what, (code, err) in out["codes"].items():
            if code != 0:
                rec.problems.append(f"{what} exited {code}: {err.strip()[-200:]}")
        if rec.problems:
            return rec
        blobs = []
        answers = iter(self.corpus.answers)
        for modality, _, stats, prep, count in self._files():
            stats_bytes = stats.read_bytes()
            if json.loads(stats_bytes)["n_samples"] != count:
                rec.problems.append(f"stats {modality}: n_samples != {count}")
            prep_bytes = prep.read_bytes()
            lines = prep_bytes.decode("utf-8").splitlines()
            if len(lines) != count:
                rec.problems.append(f"prepare {modality}: {len(lines)} lines for {count} records")
            for line, answer in zip(lines, answers):
                example = json.loads(line)
                tokens = example["input"].split()
                if len(tokens) > self.budget:
                    rec.problems.append(f"prepare {modality}: {len(tokens)} tokens > budget")
                if any(tokens.count(m) != 1 for m in self.MARKERS):
                    rec.problems.append(f"prepare {modality}: markers not present exactly once")
                if example["target"] != answer:
                    rec.problems.append(f"prepare {modality}: target differs from the answer")
            blobs += [stats_bytes, prep_bytes]
        report_bytes = (self.out / "report.json").read_bytes()
        if json.loads(report_bytes)["n"] != n:
            rec.problems.append("eval: report counts the wrong number of pairs")
        rec.digest = _digest(*blobs, report_bytes)
        return rec

    def named(self, ops: list[OpRecord]) -> dict[str, float]:
        return {
            "stats.records_per_s": statistics.median(o.parts["records"] / o.parts["stats_s"]
                                                     for o in ops),
            "prepare.records_per_s": statistics.median(o.parts["records"] / o.parts["prepare_s"]
                                                       for o in ops),
            "eval.pairs_per_s": statistics.median(o.parts["records"] / o.parts["eval_s"]
                                                  for o in ops),
        }

    def final_problems(self, calls: Calls) -> list[str] | None:
        """Evaluating the references against themselves must score perfectly."""
        path = self.out / "self-report.json"
        refs = str(self.corpus.refs)
        code, err = calls.cli(["eval", "--pred", refs, "--ref", refs, "--out", str(path)])
        if code != 0:
            return [f"self-eval exited {code}: {err.strip()[-200:]}"]
        report = json.loads(path.read_text(encoding="utf-8"))
        bad = [k for k in ("rouge1", "rouge2", "rougeL") if report[k]["f"] != 1.0]
        if report["bleu"] != 100.0:
            bad.append("bleu")
        return [f"self-eval not perfect: {bad}"] if bad else []


WORKLOADS = {w.name: w for w in (TrainFull, AblationSweep, QaData)}

# Which workload exercises which named metric, for the absent reasons.
_NAMED_ON = {
    "train.tokens_per_s": ("train-full", "ablation-sweep"),
    "train.final_loss": ("train-full", "ablation-sweep"),
    "gradcheck.scalars_per_s": ("ablation-sweep",),
    "sweep.rows_per_min": ("ablation-sweep",),
    "stats.records_per_s": ("qa-data",),
    "prepare.records_per_s": ("qa-data",),
    "eval.pairs_per_s": ("qa-data",),
}


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, float]
    absent: dict[str, str]
    named: dict[str, float]
    problems: list[str]
    digest: str | None
    ops_untraced: int
    ops_traced: int
    n_spans: int = 0


_CAL_RNG = np.random.default_rng(0)
_CAL_TINY = _CAL_RNG.standard_normal((8, 8))
_CAL_WIDE = _CAL_RNG.standard_normal((512, 128))
_CAL_SQUARE = _CAL_RNG.standard_normal((128, 128))
_CAL_TEXT = " ".join(f"w{i * 7919 % 613}" for i in range(400))
_CAL_WORD = re.compile(r"[a-z0-9]+")


def _calibrate_tiny_arrays():
    counts: dict[str, int] = {}
    for i in range(600):
        h = np.maximum(_CAL_TINY @ _CAL_TINY, 0.0)
        h.sum(axis=-1, keepdims=True)
        for j in range(6):
            key = f"k{(i + j) % 251}"
            counts[key] = counts.get(key, 0) + 1


def _calibrate_text():
    for _ in range(20):
        tokens = _CAL_WORD.findall(_CAL_TEXT)
        Counter(zip(tokens, tokens[1:]))
        json.dumps({"tokens": tokens})


def _calibrate_matmul():
    for _ in range(6):
        h = _CAL_WIDE @ _CAL_SQUARE
        h @ _CAL_SQUARE.T


# Fixed loops, each a miniature of one workload's kind of work, built only
# from Python and numpy so that no change to adapterqa can touch them. On
# the shared 2-core test host the speed drifts by ~8% (IQR) over
# minutes, and by up to 2x between busy and quiet periods; every op slows
# with it. Dividing op time by the loop's time, measured around the same
# op, cancels most of the drift, so ``op_cal`` compares commits run at
# different times.
CALIBRATIONS = {
    "tiny-arrays": _calibrate_tiny_arrays,
    "text": _calibrate_text,
    "matmul": _calibrate_matmul,
}


def calibration_seconds(kind: str) -> float:
    """Median time of CALIBRATION_LOOPS runs of one calibration loop."""
    loop = CALIBRATIONS[kind]
    times = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_op(wl, reference: list, tracer: Tracer | None = None,
            absent: dict[str, str] | None = None) -> OpRecord:
    """Time one op (inside the instrumentation when traced), then check it."""
    instrument = Instrumentation(tracer) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with instrument:
            out = wl.op(Calls(tracer))
    except Exception as exc:  # a failed op is counted, not fatal
        return OpRecord(time.perf_counter() - t0, problems=[f"{type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            absent.update(instrument.absent)
    elapsed = time.perf_counter() - t0
    rec = _checked(wl, out, reference)
    rec.seconds = elapsed
    return rec


def _timed_loop(wl, seconds: float, reference: list, tracer: Tracer | None):
    """Run ops until ``seconds`` have been measured (at least MIN_OPS of each
    kind). With a tracer, untraced and traced ops alternate, so both see the
    same host speed and their ratio is the tracing overhead."""
    untraced: list[OpRecord] = []
    traced: list[OpRecord] = []
    absent: dict[str, str] = {}
    measured = 0.0
    before = calibration_seconds(wl.calibration)
    while (measured < seconds or len(untraced) < MIN_OPS
           or (tracer is not None and len(traced) < MIN_OPS)):
        if tracer is not None and len(traced) < len(untraced):
            tracer.op_id = len(traced)
            rec = _run_op(wl, reference, tracer, absent)
            traced.append(rec)
        else:
            rec = _run_op(wl, reference)
            untraced.append(rec)
        after = calibration_seconds(wl.calibration)
        rec.cal = (before + after) / 2
        before = after
        measured += rec.seconds
    return untraced, traced, absent


def _checked(wl, out, reference: list) -> OpRecord:
    try:
        rec = wl.check(out)
    except Exception as exc:
        return OpRecord(0.0, problems=[f"check raised {type(exc).__name__}: {exc}"])
    if not rec.problems:
        if not reference:
            reference.append(rec.digest)
        elif rec.digest != reference[0]:
            rec.problems.append(f"outputs differ from the first op: {rec.digest} != {reference[0]}")
    return rec


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 import_s: float = 0.0, short: bool = False,
                 corrupt: str | None = None, trace_out: Path | None = None,
                 meta: dict | None = None) -> RunResult:
    """Set up, warm up, measure and check one workload in this process."""
    wl = WORKLOADS[name](short=short, corrupt=corrupt)
    reference: list = []
    problems: list[str] = []
    setup_times = []
    try:
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(seed, workdir / f"setup{k}")
            warm = _run_op(wl, reference)
            problems += [f"warm-up: {p}" for p in warm.problems]
            setup_times.append(time.perf_counter() - t0)

        tracer = Tracer() if trace else None
        untraced, traced, absent = _timed_loop(wl, seconds, reference, tracer)
        final = wl.final_problems(Calls())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = untraced + traced
    attempted = len(ops) + (1 if final is not None else 0)
    failed = sum(1 for o in ops if o.problems) + (1 if final else 0)
    problems += [p for o in ops for p in o.problems] + (final or [])
    good = [o for o in untraced if not o.problems] or untraced
    error_rate = failed / attempted

    named = {}
    named_absent = {}
    if all(o.parts for o in good):
        named = wl.named(good)
    for metric, on in _NAMED_ON.items():
        if metric not in named:
            named_absent[metric] = (f"measured on {', '.join(on)} only" if name not in on
                                    else "no op completed")
    named["op_ms"] = 1e3 * statistics.median(o.seconds for o in good)
    named["calibration_ms"] = 1e3 * statistics.median(o.cal for o in good)
    named["error_rate"] = error_rate

    if not trace:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_cal": statistics.median(o.seconds / o.cal for o in good),
        }
        return RunResult(attempted, failed, metrics, named_absent, named, problems,
                         reference[0] if reference else None, len(untraced), 0)

    table = SpanTable(tracer, wl.roots)
    layer, layer_absent = layer_metrics(table, wl, len(traced), untraced, traced, absent)
    metrics = {**layer, **named}
    absent_all = {**layer_absent, **named_absent}
    for metric in absent_all:
        metrics[metric] = 0.0
    if trace_out is not None:
        tracer.write(trace_out, {**(meta or {}), "workload": name, "seed": seed,
                                 "metrics": metrics, "absent": absent_all})
    return RunResult(attempted, failed, metrics, absent_all, named, problems,
                     reference[0] if reference else None, len(untraced), len(traced),
                     len(tracer))


def layer_metrics(t: SpanTable, wl, n_ops: int, untraced: list[OpRecord],
                  traced: list[OpRecord], absent_spans: dict[str, str]):
    """Per-layer self times and counts from the traced phase."""
    m: dict[str, float] = {}
    absent: dict[str, str] = {}

    def need(metric: str, *spans: str) -> bool:
        missing = [absent_spans[s] for s in spans if s in absent_spans]
        if missing:
            absent[metric] = "; ".join(missing)
        return not missing

    ms = 1e3
    n_fwd = t.count("toymodel.forward", TRAIN)
    n_bwd = t.count("toymodel.backward", TRAIN)
    if n_bwd:
        if need("toymodel.forward.ms", "toymodel.forward"):
            m["toymodel.forward.ms"] = ms * t.total("toymodel.forward", TRAIN) / n_fwd
        if need("toymodel.backward.ms", "toymodel.backward"):
            m["toymodel.backward.ms"] = ms * t.total("toymodel.backward", TRAIN) / n_bwd
        for side in ("encoder", "decoder"):
            if need(f"toymodel.{side}.fwd_ms", "toymodel.layers"):
                m[f"toymodel.{side}.fwd_ms"] = ms * t.total(f"toymodel.{side}.fwd", TRAIN) / n_fwd
                m[f"toymodel.{side}.bwd_ms"] = ms * t.total(f"toymodel.{side}.bwd", TRAIN) / n_bwd
        for cat in SUBLAYERS:
            for d, n in (("fwd", n_fwd), ("bwd", n_bwd)):
                if need(f"toymodel.{cat}.{d}_ms", f"toymodel.{cat}"):
                    m[f"toymodel.{cat}.{d}_ms"] = ms * t.self_total(f"toymodel.{cat}.{d}",
                                                                    TRAIN) / n
        if need("toymodel.linear_frozen.step_share", "toymodel.linear_frozen"):
            frozen = (t.self_total("toymodel.linear_frozen.fwd", TRAIN)
                      + t.self_total("toymodel.linear_frozen.bwd", TRAIN))
            m["toymodel.linear_frozen.step_share"] = frozen / t.total(TRAIN)
        if need("toymodel.loss_ms", "toymodel.loss"):
            m["toymodel.loss_ms"] = ms * t.total("toymodel.loss", TRAIN) / n_fwd
        if need("toymodel.zero_grads_ms", "toymodel.zero_grads"):
            m["toymodel.zero_grads_ms"] = ms * t.total("toymodel.zero_grads", TRAIN) / n_bwd
        m["toymodel.optimizer_ms"] = ms * t.self_total(TRAIN) / n_bwd
        builds = t.dur[t.mask("toymodel.build")]
        if builds.size:
            m["toymodel.build_ms"] = ms * float(statistics.median(builds.tolist()))
        good = [o for o in untraced if not o.problems and "train_flop" in o.parts]
        if good:
            flop = sum(o.parts["train_flop"] for o in good)
            m["toymodel.matmul_gflop_per_step"] = flop / sum(o.parts["steps"] for o in good) / 1e9
            m["toymodel.gflops"] = flop / sum(o.parts["train_s"] for o in good) / 1e9
        if need("toymodel.backward.layers_run", "toymodel.layers"):
            layer_bwd = (t.mask("toymodel.encoder.bwd", TRAIN)
                         | t.mask("toymodel.decoder.bwd", TRAIN))
            m["toymodel.backward.layers_run"] = float(layer_bwd.sum()) / n_bwd
            m["toymodel.backward.useful_ratio"] = float(t.value[layer_bwd].sum() / layer_bwd.sum())

    scalars = t.value_total(GRADCHECK)
    if scalars and need("toymodel.gradcheck.forward_ms", "toymodel.forward"):
        fwd = np.nonzero(t.mask("toymodel.forward", GRADCHECK))[0]
        m["toymodel.gradcheck.forward_ms"] = ms * float(np.median(t.dur[fwd]))
        first = {}
        for i in fwd.tolist():
            first.setdefault(int(t.ctx[i]), i)
        layer_fwd = np.nonzero(t.mask("toymodel.encoder.fwd", GRADCHECK)
                               | t.mask("toymodel.decoder.fwd", GRADCHECK))[0]
        analytic = int(np.isin(t.parent[layer_fwd], list(first.values())).sum())
        m["toymodel.gradcheck.layer_forwards_per_scalar"] = (layer_fwd.size - analytic) / scalars

    if t.count("tables.parse"):
        m["tables.parse_ms"] = ms * t.total("tables.parse") / n_ops
        m["tables.validate.calls_per_table"] = t.count("tables.validate") / t.count("tables.parse")
    if t.count("tables.validate"):
        m["tables.validate_ms"] = ms * t.total("tables.validate") / n_ops
        m["tables.validate.cells_per_s"] = (t.value_total("tables.validate")
                                            / t.total("tables.validate"))
    if t.count("linearize"):
        m["linearize.ms"] = ms * t.self_total("linearize") / n_ops
        m["linearize.cells_per_s"] = t.value_total("linearize") / t.self_total("linearize")
    if t.count("assembly.assemble"):
        m["assembly.assemble_ms"] = ms * t.total("assembly.assemble") / n_ops
    if t.count("assembly.truncate"):
        m["assembly.truncate_ms"] = ms * t.total("assembly.truncate") / n_ops
        m["assembly.truncated_ratio"] = (t.value_total("assembly.truncate")
                                         / t.count("assembly.truncate"))
    for fn in ("read_records", "compute_stats", "prepare_examples"):
        if t.count(f"data.{fn}"):
            m[f"data.{fn}.self_ms"] = ms * t.self_total(f"data.{fn}") / n_ops
    for metric in ("rouge1", "rouge2", "rougeL", "bleu"):
        if t.count(f"metrics.{metric}"):
            m[f"metrics.{metric}_ms"] = ms * t.self_total(f"metrics.{metric}") / n_ops
    pairs = t.value_total("metrics.evaluate_pairs")
    if t.count("metrics.tokenize") and pairs:
        m["metrics.tokenize_ms"] = ms * t.total("metrics.tokenize") / n_ops
        m["metrics.tokenize.calls_per_pair"] = t.count("metrics.tokenize") / pairs
    if t.count("metrics.rougeL") and hasattr(wl, "lcs_cells"):
        evals = t.count("metrics.evaluate_pairs")
        m["metrics.rougeL.lcs_cells_per_s"] = wl.lcs_cells * evals / t.self_total("metrics.rougeL")
    for cmd in ("stats", "prepare", "eval"):
        if t.count(f"cli.{cmd}"):
            m[f"cli.{cmd}.self_ms"] = ms * t.self_total(f"cli.{cmd}") / n_ops

    ok_u = [o.seconds / o.cal for o in untraced if not o.problems]
    ok_t = [o.seconds / o.cal for o in traced if not o.problems]
    if ok_u and ok_t:
        m["trace.overhead_ratio"] = statistics.median(ok_t) / statistics.median(ok_u)

    for name, _, _ in LAYER_METRICS:
        if name not in m and name not in absent:
            absent[name] = _absent_reason(name, wl.name, absent_spans)
    return m, absent


def _absent_reason(metric: str, workload: str, absent_spans: dict[str, str]) -> str:
    for span, reason in absent_spans.items():
        if metric.startswith(span):
            return reason
    layer = metric.split(".")[0]
    if layer == "toymodel" and "gradcheck" in metric:
        return f"{workload} runs no gradient audit"
    if layer == "toymodel":
        return f"{workload} trains no toy model"
    if layer in ("tables", "linearize", "assembly", "data", "metrics", "cli"):
        return f"{workload} does not run the {layer} layer"
    return "no successful op to measure"

