"""Single command-line entry point exposing every operation.

Structured results (JSON/JSONL) go to stdout or ``--out``; human-readable
summaries go to stderr. Exit codes: 0 success, 2 invalid input (including
usage errors), 1 internal error. Failures print a machine-readable
``{"error": ..., "message": ...}`` object on stderr.

Each rule on an input lives in the library module that owns it, whose
error begins with the field at fault; ``main`` puts the option that sets
the field in its place (``OPTIONS``). The CLI states only what no library
function does: ``assemble --max-tokens`` and ``MAX_COPY_TASK_TOKENS``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import ablation as ablation_mod
from . import metrics as metrics_mod
from .adapters import AdapterSet, ModelDims, REFERENCE_DIMS, count_adapter_params
from .assembly import assemble, truncate
from .data import (
    PrepareLimits,
    compute_stats,
    merge_stats,
    prepare_example,
    read_jsonl,
    read_records,
    string_field,
)
from .errors import AdapterQaError, InputError, SchemaError, check_int
from .linearize import linearize
from .tables import validate_table
from .toymodel import (
    BOS_ID,
    ToyConfig,
    TrainConfig,
    build_toy_model,
    check_toy_size,
    freeze_report,
    grad_check,
    grad_check_copies,
    make_copy_task,
    train_adapters,
)


# Most copy-task tokens (--examples times --seq-len) train-toy may ask for.
# One step over this many at the default width takes a few seconds; the ids
# of 10^8 six-token examples alone would take 4.47 GiB.
MAX_COPY_TASK_TOKENS = 65_536

# Per command, the option that sets each library field or argument: main
# names the option where a library error begins with the field.
_TOY_OPTIONS = {"d_model": "--d-model", "bottleneck": "--bottleneck",
                "n_encoder_layers": "--enc-layers", "n_decoder_layers": "--dec-layers",
                "vocab_size": "--vocab", "seed": "--seed", "length": "--seq-len"}
OPTIONS = {
    "gradcheck": {**_TOY_OPTIONS, "batch": "--batch", "eps": "--eps"},
    "train-toy": {**_TOY_OPTIONS, "batch": "--examples", "steps": "--steps",
                  "learning_rate": "--lr"},
    "prepare": {"max_input_tokens": "--max-tokens", "max_target_tokens": "--max-target-tokens"},
}


class UsageError(InputError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` (with argparse's usage line and error text)
    instead of printing them and exiting, so ``main`` reports it as JSON."""

    def error(self, message: str):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


# Each cmd_* returns (output text, stderr summary); main writes both.


def cmd_linearize(args) -> tuple[str, str]:
    flat = linearize(validate_table(_load_json(args.infile)))
    return flat.text + "\n", f"linearized {flat.pair_count} key:value pairs"


def cmd_assemble(args) -> tuple[str, str]:
    # argparse groups cannot share --batch, so this exclusion is checked here.
    if args.batch is not None and (args.title, args.context, args.context_file) != (None,) * 3:
        args.usage_error("argument --batch: not allowed with --title, --context or --context-file")
    if args.max_tokens is not None:
        check_int("--max-tokens", args.max_tokens)

    def build(question: str, title: str, context: str) -> tuple[str, int]:
        """The rendered line and its token count; a worker sends back no
        ``InputSequence``."""
        seq = assemble(question, title, context)
        if args.max_tokens is not None:
            seq = truncate(seq, args.max_tokens)
        return seq.rendered + "\n", seq.n_tokens

    if args.batch is not None:
        seqs = read_jsonl(args.batch, lambda obj: build(
            string_field(obj, "question"), string_field(obj, "title", ""),
            string_field(obj, "context", "")))
    else:
        context = args.context
        if args.context_file is not None:
            context = Path(args.context_file).read_text(encoding="utf-8")
        seqs = [build(args.question, args.title or "", context or "")]
    return ("".join(line for line, _ in seqs),
            f"assembled {len(seqs)} sequences, {sum(n for _, n in seqs)} tokens")


def cmd_eval(args) -> tuple[str, str]:
    report = metrics_mod.evaluate_predictions(args.pred, args.ref)
    return (
        json.dumps(report.to_json_dict()) + "\n",
        f"n={report.n_examples} rouge1_f={report.rouge1.f1:.4f} "
        f"rouge2_f={report.rouge2.f1:.4f} rougeL_f={report.rougeL.f1:.4f} "
        f"bleu={report.bleu:.2f}",
    )


def _dims_from_args(args) -> ModelDims:
    if args.config is None:
        return REFERENCE_DIMS
    return ModelDims.from_json_dict(_load_json(args.config))


def cmd_count_params(args) -> tuple[str, str]:
    dims = _dims_from_args(args)
    active = AdapterSet.full(dims)
    if args.ablation is not None:
        config = ablation_mod.AblationConfig.from_json_dict(_load_json(args.ablation))
        active -= config.removed(dims)
    count, percent = count_adapter_params(dims, active)
    payload = {"trainable": count, "percent": percent,
               "active_layers": active.n_active_layers}
    return json.dumps(payload) + "\n", f"{count:,} trainable parameters ({percent:.2f}%)"


def cmd_plan_ablation(args) -> tuple[str, str]:
    dims = _dims_from_args(args)
    if args.mode == "uniform":
        plan = ablation_mod.uniform_ablation_plan(dims)
    else:
        plan = ablation_mod.grid_ablation_plan(dims)
    rows = ablation_mod.cost_plan(plan, dims)
    return ablation_mod.manifest_lines(rows), f"{len(rows)} configurations ({args.mode})"


def _toy_config(args, precision: str = "double") -> ToyConfig:
    return ToyConfig(
        d_model=args.d_model,
        bottleneck=args.bottleneck,
        n_encoder_layers=args.enc_layers,
        n_decoder_layers=args.dec_layers,
        vocab_size=args.vocab,
        seed=args.seed,
        precision=precision,
    )


def cmd_gradcheck(args) -> tuple[str, str]:
    cfg = _toy_config(args)
    check_toy_size(cfg, args.batch, args.seq_len, grad_check_copies(cfg, args.batch, args.seq_len))
    model = build_toy_model(cfg)
    model.randomize_adapters(seed=args.seed + 1)
    rng = np.random.default_rng(args.seed + 2)
    source = rng.integers(BOS_ID + 1, model.cfg.vocab_size, size=(args.batch, args.seq_len))
    target = rng.integers(BOS_ID + 1, model.cfg.vocab_size, size=(args.batch, args.seq_len))
    report = grad_check(model, source, target, eps=args.eps)
    payload = report.to_json_dict()
    del payload["per_parameter"]  # keep stdout compact; the maximum is what matters
    return (
        json.dumps(payload) + "\n",
        f"checked {report.n_params_checked} trainable scalars, "
        f"max relative error {report.max_rel_error:.3e} ({report.worst_parameter})",
    )


def cmd_train_toy(args) -> tuple[str, str]:
    # Ahead of the size bound, which a copy task past it may also break; a
    # size that is not positive is left to the library's rule.
    tokens = args.examples * args.seq_len
    if min(args.examples, args.seq_len) > 0 and tokens > MAX_COPY_TASK_TOKENS:
        raise InputError(f"--examples * --seq-len must be at most {MAX_COPY_TASK_TOKENS}, "
                         f"got {args.examples} * {args.seq_len}")
    train_cfg = TrainConfig(learning_rate=args.lr, steps=args.steps, optimizer=args.optimizer)
    cfg = _toy_config(args, args.precision)
    check_toy_size(cfg, args.examples, args.seq_len)
    model = build_toy_model(cfg)
    source, target = make_copy_task(
        n_examples=args.examples, seq_len=args.seq_len,
        vocab_size=model.cfg.vocab_size, seed=args.seed,
    )
    log = train_adapters(model, source, target, train_cfg)
    report = freeze_report(model)
    return (
        json.dumps(log.to_json_dict()) + "\n",
        f"model: {report.frozen_total:,} frozen + {report.trainable_total:,} trainable "
        f"({report.trainable_percent_of_base}% of base)\n"
        f"{args.steps} steps: loss {log.initial_loss:.4f} -> {log.final_loss:.4f} "
        f"(ratio {log.final_loss / log.initial_loss:.3f})",
    )


def cmd_stats(args) -> tuple[str, str]:
    # Each record's stats, merged: a worker sends back no record.
    stats = merge_stats(read_records(args.infile, args.modality,
                                     lambda record: compute_stats([record])))
    return json.dumps(stats.to_json_dict()) + "\n", f"{stats.n_samples} records"


def cmd_prepare(args) -> tuple[str, str]:
    limits = PrepareLimits(
        max_input_tokens=args.max_tokens,
        max_target_tokens=args.max_target_tokens,
        answer_index=args.answer_index,
    )

    def line(record) -> str:  # a worker sends back each finished line
        seq, target = prepare_example(record, limits)
        return json.dumps({"input": seq.rendered, "target": target}) + "\n"

    lines = read_records(args.infile, args.modality, line)
    return "".join(lines), f"prepared {len(lines)} examples"


def _default(function, name: str):
    """The default of ``function``'s parameter ``name``, so that an option
    states it nowhere else."""
    return inspect.signature(function).parameters[name].default


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: building it
    takes far longer than a parse."""
    parser = _Parser(
        prog="adapterqa",
        description="Table linearization, prompted inputs, adapter accounting, "
                    "ablation planning, toy adapter training, and text metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="flatten a table JSON file to key:value text")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("assemble", help="build a prompted input sequence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--question", default=None)
    source.add_argument("--batch", default=None,
                        help="JSONL file with question/title/context per line")
    p.add_argument("--title", default=None)
    context = p.add_mutually_exclusive_group()
    context.add_argument("--context", default=None)
    context.add_argument("--context-file", default=None)
    p.add_argument("--max-tokens", type=int, default=None)
    p.set_defaults(func=cmd_assemble, usage_error=p.error)

    p = sub.add_parser("eval", help="ROUGE and BLEU of line-aligned files")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count-params", help="trainable-parameter accounting")
    p.add_argument("--config", default=None, help="dims JSON (defaults to the reference dims)")
    p.add_argument("--ablation", default=None, help="JSON with removed_encoder/removed_decoder")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("plan-ablation", help="enumerate pruning experiments with costs")
    p.add_argument("--mode", choices=("uniform", "grid"), required=True)
    p.add_argument("--dims", dest="config", default=None)
    p.set_defaults(func=cmd_plan_ablation)

    def add_toy_flags(p):
        p.add_argument("--d-model", type=int, default=ToyConfig.d_model)
        p.add_argument("--bottleneck", type=int, default=ToyConfig.bottleneck)
        p.add_argument("--enc-layers", type=int, default=ToyConfig.n_encoder_layers)
        p.add_argument("--dec-layers", type=int, default=ToyConfig.n_decoder_layers)
        p.add_argument("--vocab", type=int, default=ToyConfig.vocab_size)
        p.add_argument("--seq-len", type=int, default=_default(make_copy_task, "seq_len"))
        p.add_argument("--seed", type=int, default=ToyConfig.seed)

    p = sub.add_parser("gradcheck", help="finite-difference audit of adapter gradients")
    add_toy_flags(p)
    p.add_argument("--eps", type=float, default=_default(grad_check, "eps"))
    p.add_argument("--batch", type=int, default=2)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train adapters on the synthetic copy task")
    add_toy_flags(p)
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--examples", type=int, default=_default(make_copy_task, "n_examples"))
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=TrainConfig.optimizer)
    p.add_argument("--precision", choices=("single", "double"), default=ToyConfig.precision)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("stats", help="dataset statistics from a JSONL record file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--modality", choices=("table", "text"), required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("prepare", help="records -> prompted (input, target) JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--modality", choices=("table", "text"), required=True)
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--max-target-tokens", type=int, default=None)
    p.add_argument("--answer-index", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    for p in sub.choices.values():  # main writes every command's output to --out
        p.add_argument("--out", default=None)
    return parser


def _error_payload(exc: Exception, options: dict[str, str]) -> str:
    """The error as JSON, with the option in ``options`` that sets the field
    the message begins with in place of that field."""
    field, space, rest = str(exc).partition(" ")
    message = options.get(field, field) + space + rest
    return json.dumps({"error": type(exc).__name__, "message": message})


def main(argv: list[str] | None = None) -> int:
    options = {}
    try:
        args = build_parser().parse_args(argv)
        options = OPTIONS.get(args.command, {})
        text, summary = args.func(args)
        if args.out is not None:
            Path(args.out).write_text(text, encoding="utf-8")
        if args.out is None or args.command == "eval":
            sys.stdout.write(text)  # eval echoes its report once --out is written
        print(summary, file=sys.stderr)
        return 0
    except SystemExit as exc:  # --help
        return exc.code
    except (InputError, UnicodeDecodeError) as exc:
        # Undecodable bytes in an input file are bad input, whichever command reads it.
        print(_error_payload(exc, options), file=sys.stderr)
        return 2
    except (AdapterQaError, OSError, MemoryError) as exc:
        # MemoryError: an allocation larger than the process may take, such
        # as the weights of a toy far wider than the machine holds.
        print(_error_payload(exc, options), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
