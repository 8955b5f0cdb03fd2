"""From-scratch generation metrics: ROUGE-1/2/L and corpus-level BLEU.

ROUGE uses lowercase alphanumeric tokens, clipped n-gram overlap, and
sentence-level LCS; corpus scores are arithmetic means of per-example
precision/recall/F1. BLEU pools modified n-gram precisions (orders 1-4)
over the whole corpus on case-sensitive, punctuation-split tokens, applies
exponential smoothing to zero match counts, skips orders whose pooled
denominator is zero, and multiplies by the brevity penalty.

The public scorers take strings; each tokenizes and then runs the same
token-level kernel that ``evaluate_pairs`` runs on tokens it computes
once per side and scheme.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .errors import AdapterQaError, InputError

MAX_BLEU_ORDER = 4

_ALNUM_RUN = re.compile(r"[a-z0-9]+")

# Punctuation splitting before whitespace tokenization (13a-style rules):
# most punctuation is always split off; period/comma stay attached between
# digits; a dash splits only after a digit.
_SPLIT_PUNCT = str.maketrans({c: f" {c} " for c in ' !"#$%&()*+/:;<=>?@[\\]^_`{|}~'})
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
    text = f" {text} ".translate(_SPLIT_PUNCT)
    # Callables, not group templates: Python 3.11 expands a template once per match.
    text = _PERIOD_COMMA_AFTER.sub(lambda m: f"{m[1]} {m[2]} ", text)
    text = _PERIOD_COMMA_BEFORE.sub(lambda m: f" {m[1]} {m[2]}", text)
    text = _DASH_AFTER_DIGIT.sub(lambda m: f"{m[1]} {m[2]} ", text)
    return text.split()


def _rouge_n_tokens(hyp: list[str], ref: list[str], n: int) -> PRF:
    if len(hyp) < n or len(ref) < n:
        return PRF(0.0, 0.0, 0.0)
    if n == 1:
        hyp_grams, ref_grams = Counter(hyp), Counter(ref)
    else:
        hyp_grams, ref_grams = Counter(zip(hyp, hyp[1:])), Counter(zip(ref, ref[1:]))
    ref_count = ref_grams.get
    overlap = sum(min(count, ref_count(gram, 0)) for gram, count in hyp_grams.items())
    return PRF.from_pr(overlap / (len(hyp) - n + 1), overlap / (len(ref) - n + 1))


def rouge_n(hyp: str, ref: str, n: int) -> PRF:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    if n not in (1, 2):
        raise InputError(f"rouge_n supports n in {{1, 2}}, got {n}")
    return _rouge_n_tokens(metric_tokenize(hyp), metric_tokenize(ref), n)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, bit-parallel over ``b``.

    After the first ``i`` tokens of ``a``, bit ``j`` of ``v`` is 0 exactly
    where LCS(a[:i], b[:j + 1]) exceeds LCS(a[:i], b[:j]), so the LCS length
    is the number of zero bits. Each token of ``a`` updates every bit at
    once with one add and one subtract on Python ints (Allison & Dix 1986;
    Hyyrö 2004, "Bit-parallel LCS-length computation revisited").
    """
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = masks.get(token)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l_tokens(hyp: list[str], ref: list[str]) -> PRF:
    if not hyp or not ref:
        return PRF(0.0, 0.0, 0.0)
    lcs = lcs_length(hyp, ref)
    return PRF.from_pr(lcs / len(hyp), lcs / len(ref))


def rouge_l(hyp: str, ref: str) -> PRF:
    """Sentence-level LCS precision/recall/F1 over metric tokens."""
    return _rouge_l_tokens(metric_tokenize(hyp), metric_tokenize(ref))


def _bleu_ngrams(tokens: list[str]) -> Counter:
    """All n-grams of orders 1..MAX_BLEU_ORDER, keyed by tuples of length n."""
    return Counter(chain.from_iterable(zip(*[tokens[i:] for i in range(n)])
                                       for n in range(1, MAX_BLEU_ORDER + 1)))


def _bleu_stats_tokens(hyp: list[str], ref: list[str]) -> tuple[list[int], list[int], int, int]:
    matches = [0] * MAX_BLEU_ORDER
    ref_count = _bleu_ngrams(ref).get
    for gram, count in _bleu_ngrams(hyp).items():
        clip = ref_count(gram)
        if clip:
            matches[len(gram) - 1] += min(count, clip)
    totals = [max(len(hyp) - n + 1, 0) for n in range(1, MAX_BLEU_ORDER + 1)]
    return matches, totals, len(hyp), len(ref)


def bleu_segment_stats(hyp: str, ref: str) -> tuple[list[int], list[int], int, int]:
    """Per-segment (clipped matches, totals, hyp length, ref length).

    These tuples add component-wise, so corpus pooling is an associative,
    order-independent reduction.
    """
    return _bleu_stats_tokens(bleu_tokenize(hyp), bleu_tokenize(ref))


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


def _pooled_bleu(segments) -> float:
    """Sum per-segment statistics over the corpus and score the totals."""
    matches = [0] * MAX_BLEU_ORDER
    totals = [0] * MAX_BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for seg_matches, seg_totals, seg_hyp_len, seg_ref_len in segments:
        matches = [a + b for a, b in zip(matches, seg_matches)]
        totals = [a + b for a, b in zip(totals, seg_totals)]
        hyp_len += seg_hyp_len
        ref_len += seg_ref_len
    return bleu_from_stats(matches, totals, hyp_len, ref_len)


def sacrebleu_corpus(hyps: list[str], refs: list[str]) -> float:
    """Corpus BLEU in [0, 100] over aligned single-reference segments."""
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("corpus BLEU needs at least one segment pair")
    return _pooled_bleu(bleu_segment_stats(hyp, ref) for hyp, ref in zip(hyps, refs))


def _mean_prf(scores: list[PRF]) -> PRF:
    n = len(scores)
    return PRF(
        precision=sum(s.precision for s in scores) / n,
        recall=sum(s.recall for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )


def evaluate_pairs(hyps: list[str], refs: list[str]) -> MetricReport:
    """Per-example ROUGE means plus corpus BLEU for aligned pairs.

    Each side is tokenized once per scheme, and every metric reads those
    tokens.
    """
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} predictions vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("evaluation needs at least one example")
    r1, r2, rl, bleu_segments = [], [], [], []
    for hyp, ref in zip(hyps, refs):
        hyp_tokens, ref_tokens = metric_tokenize(hyp), metric_tokenize(ref)
        r1.append(_rouge_n_tokens(hyp_tokens, ref_tokens, 1))
        r2.append(_rouge_n_tokens(hyp_tokens, ref_tokens, 2))
        rl.append(_rouge_l_tokens(hyp_tokens, ref_tokens))
        bleu_segments.append(_bleu_stats_tokens(bleu_tokenize(hyp), bleu_tokenize(ref)))
    return MetricReport(
        rouge1=_mean_prf(r1),
        rouge2=_mean_prf(r2),
        rougeL=_mean_prf(rl),
        bleu=_pooled_bleu(bleu_segments),
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
