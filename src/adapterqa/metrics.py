"""From-scratch generation metrics: ROUGE-1/2/L and corpus-level BLEU.

ROUGE uses lowercase alphanumeric tokens, clipped n-gram overlap, and
sentence-level LCS; corpus scores are arithmetic means of per-example
precision/recall/F1. BLEU pools modified n-gram precisions (orders 1-4)
over the whole corpus on case-sensitive, punctuation-split tokens, applies
exponential smoothing to zero match counts, skips orders whose pooled
denominator is zero, and multiplies by the brevity penalty.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import AdapterQaError, InputError

MAX_BLEU_ORDER = 4

_ALNUM_RUN = re.compile(r"[a-z0-9]+")

# Punctuation splitting before whitespace tokenization (13a-style rules):
# most punctuation is always split off; period/comma stay attached between
# digits; a dash splits only after a digit.
_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_PERIOD_COMMA_AFTER = re.compile(r"([^0-9])([\.,])")
_PERIOD_COMMA_BEFORE = re.compile(r"([\.,])([^0-9])")
_DASH_AFTER_DIGIT = re.compile(r"([0-9])(-)")


class LengthMismatch(InputError):
    """Prediction and reference collections differ in size."""


class EmptyCorpus(InputError):
    """An evaluation was requested over zero examples."""


class IoError(AdapterQaError):
    """A metric input file could not be read."""


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRF":
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(precision=precision, recall=recall, f1=f1)

    def to_json_dict(self) -> dict:
        return {"p": self.precision, "r": self.recall, "f": self.f1}


@dataclass(frozen=True)
class MetricReport:
    rouge1: PRF
    rouge2: PRF
    rougeL: PRF
    bleu: float
    n_examples: int

    def to_json_dict(self) -> dict:
        return {
            "rouge1": self.rouge1.to_json_dict(),
            "rouge2": self.rouge2.to_json_dict(),
            "rougeL": self.rougeL.to_json_dict(),
            "bleu": self.bleu,
            "n": self.n_examples,
        }


def metric_tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters, dropping empties."""
    return _ALNUM_RUN.findall(text.lower())


def bleu_tokenize(text: str) -> list[str]:
    """Case-sensitive tokens with punctuation split from words."""
    text = _PUNCT.sub(r" \1 ", f" {text} ")
    text = _PERIOD_COMMA_AFTER.sub(r"\1 \2 ", text)
    text = _PERIOD_COMMA_BEFORE.sub(r" \1 \2", text)
    text = _DASH_AFTER_DIGIT.sub(r"\1 \2 ", text)
    return text.split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(hyp: str, ref: str, n: int) -> PRF:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    if n not in (1, 2):
        raise InputError(f"rouge_n supports n in {{1, 2}}, got {n}")
    hyp_grams = _ngrams(metric_tokenize(hyp), n)
    ref_grams = _ngrams(metric_tokenize(ref), n)
    n_hyp = sum(hyp_grams.values())
    n_ref = sum(ref_grams.values())
    if n_hyp == 0 or n_ref == 0:
        return PRF(0.0, 0.0, 0.0)
    overlap = sum(min(count, ref_grams[gram]) for gram, count in hyp_grams.items())
    return PRF.from_pr(overlap / n_hyp, overlap / n_ref)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b):
            if token_a == token_b:
                current.append(previous[j] + 1)
            else:
                current.append(max(previous[j + 1], current[j]))
        previous = current
    return previous[-1]


def rouge_l(hyp: str, ref: str) -> PRF:
    """Sentence-level LCS precision/recall/F1 over metric tokens."""
    hyp_tokens = metric_tokenize(hyp)
    ref_tokens = metric_tokenize(ref)
    if not hyp_tokens or not ref_tokens:
        return PRF(0.0, 0.0, 0.0)
    lcs = lcs_length(hyp_tokens, ref_tokens)
    return PRF.from_pr(lcs / len(hyp_tokens), lcs / len(ref_tokens))


def bleu_segment_stats(hyp: str, ref: str) -> tuple[list[int], list[int], int, int]:
    """Per-segment (clipped matches, totals, hyp length, ref length).

    These tuples add component-wise, so corpus pooling is an associative,
    order-independent reduction.
    """
    hyp_tokens = bleu_tokenize(hyp)
    ref_tokens = bleu_tokenize(ref)
    matches = []
    totals = []
    for n in range(1, MAX_BLEU_ORDER + 1):
        hyp_grams = _ngrams(hyp_tokens, n)
        ref_grams = _ngrams(ref_tokens, n)
        matches.append(sum(min(count, ref_grams[g]) for g, count in hyp_grams.items()))
        totals.append(max(len(hyp_tokens) - n + 1, 0))
    return matches, totals, len(hyp_tokens), len(ref_tokens)


def bleu_from_stats(matches: list[int], totals: list[int], hyp_len: int, ref_len: int) -> float:
    """Score pooled statistics: smoothed precisions, geometric mean, brevity
    penalty. Orders with a zero denominator are left out of the mean."""
    log_sum = 0.0
    effective_orders = 0
    smooth = 1.0
    for match, total in zip(matches, totals):
        if total == 0:
            continue
        effective_orders += 1
        if match == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total)
        else:
            precision = match / total
        log_sum += math.log(precision)
    if effective_orders == 0:
        return 0.0
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / effective_orders)


def sacrebleu_corpus(hyps: list[str], refs: list[str]) -> float:
    """Corpus BLEU in [0, 100] over aligned single-reference segments."""
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("corpus BLEU needs at least one segment pair")
    matches = [0] * MAX_BLEU_ORDER
    totals = [0] * MAX_BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        seg_matches, seg_totals, seg_hyp_len, seg_ref_len = bleu_segment_stats(hyp, ref)
        matches = [a + b for a, b in zip(matches, seg_matches)]
        totals = [a + b for a, b in zip(totals, seg_totals)]
        hyp_len += seg_hyp_len
        ref_len += seg_ref_len
    return bleu_from_stats(matches, totals, hyp_len, ref_len)


def _mean_prf(scores: list[PRF]) -> PRF:
    n = len(scores)
    return PRF(
        precision=sum(s.precision for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )


def evaluate_pairs(hyps: list[str], refs: list[str]) -> MetricReport:
    """Per-example ROUGE means plus corpus BLEU for aligned pairs."""
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} predictions vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("evaluation needs at least one example")
    per_example = [(rouge_n(hyp, ref, 1), rouge_n(hyp, ref, 2), rouge_l(hyp, ref))
                   for hyp, ref in zip(hyps, refs)]
    r1, r2, rl = zip(*per_example)
    return MetricReport(
        rouge1=_mean_prf(list(r1)),
        rouge2=_mean_prf(list(r2)),
        rougeL=_mean_prf(list(rl)),
        bleu=sacrebleu_corpus(hyps, refs),
        n_examples=len(hyps),
    )


def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def evaluate_predictions(pred_path: str | Path, ref_path: str | Path) -> MetricReport:
    """Score line-aligned prediction and reference files."""
    return evaluate_pairs(_read_lines(pred_path), _read_lines(ref_path))
