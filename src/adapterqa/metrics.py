"""From-scratch generation metrics: ROUGE-1/2/L and corpus-level BLEU.

ROUGE uses lowercase alphanumeric tokens, clipped n-gram overlap, and
sentence-level LCS; corpus scores are arithmetic means of per-example
precision/recall/F1. BLEU pools modified n-gram precisions (orders 1-4)
over the whole corpus on case-sensitive, punctuation-split tokens, applies
exponential smoothing to zero match counts, skips orders whose pooled
denominator is zero, and multiplies by the brevity penalty.

The public scorers take strings; each tokenizes and then runs the same
token-level kernel that ``evaluate_pairs`` runs on tokens it computes
once per side and scheme. ROUGE-1, ROUGE-2 and every BLEU order count
their clipped n-gram matches with one kernel, ``_clipped_matches``: the
hypothesis n-grams stream against a ``Counter`` of the reference's.

``bleu_tokenize`` applies the 13a punctuation rules (Post 2018) token by
token. It splits on whitespace first, keeps a token without split
characters as it is, and runs the rule chain on each other token padded
with one space on each side. This equals the chain on the whole text
because no match spans two tokens. Every rule reads whitespace as a
non-digit. A period/comma-after match may start on the whitespace before
a token but ends on that token's period or comma; a period/comma-before
match starts on a token's period or comma and may end on the whitespace
after it; the dash rule never touches whitespace. The padding stands in
for that whitespace, and each rule step is skipped when the token lacks
the characters it reacts to.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .errors import InputError

MAX_BLEU_ORDER = 4
_BLEU_ORDERS = range(1, MAX_BLEU_ORDER + 1)

_ALNUM_RUN = re.compile(r"[a-z0-9]+")

# Punctuation splitting (13a-style rules): most punctuation is always split
# off; period/comma stay attached between digits; a dash splits only after a
# digit. A token holding none of the split characters needs no rule.
_PUNCT = '!"#$%&()*+/:;<=>?@[\\]^_`{|}~'
_SPLIT_PUNCT = str.maketrans({c: f" {c} " for c in _PUNCT})
_PUNCT_CHAR = re.compile(f"[{re.escape(_PUNCT)}]").search
_SPLIT_CHAR = re.compile(f"[{re.escape(_PUNCT)}.,-]").search
_PERIOD_COMMA_AFTER = re.compile(r"([^0-9])([\.,])")
_PERIOD_COMMA_BEFORE = re.compile(r"([\.,])([^0-9])")
_DASH_AFTER_DIGIT = re.compile(r"([0-9])(-)")


class LengthMismatch(InputError):
    """Prediction and reference collections differ in size."""


class EmptyCorpus(InputError):
    """An evaluation was requested over zero examples."""


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


# Callables, not group templates: Python 3.11 expands a template once per match.
def _space_after(match: re.Match) -> str:
    return f"{match[1]} {match[2]} "


def _space_before(match: re.Match) -> str:
    return f" {match[1]} {match[2]}"


def _split_token(token: str) -> list[str]:
    """The 13a chain on one whitespace-free token, padded as at a text's edges."""
    text = f" {token} "
    if _PUNCT_CHAR(token) is not None:
        text = text.translate(_SPLIT_PUNCT)
    if "." in token or "," in token:
        text = _PERIOD_COMMA_AFTER.sub(_space_after, text)
        text = _PERIOD_COMMA_BEFORE.sub(_space_before, text)
    if "-" in token:
        text = _DASH_AFTER_DIGIT.sub(_space_after, text)
    return text.split()


def bleu_tokenize(text: str) -> list[str]:
    """Case-sensitive tokens with punctuation split from words, one
    whitespace-separated token at a time (see the module docstring)."""
    tokens = []
    for token in text.split():
        if _SPLIT_CHAR(token) is None:
            tokens.append(token)
        else:
            tokens += _split_token(token)
    return tokens


def _ngrams(tokens: list[str], n: int):
    """The n-grams of ``tokens`` in order: the tokens themselves for n = 1,
    tuples of length n above."""
    return tokens if n == 1 else zip(*[tokens[i:] for i in range(n)])


def _clipped_matches(hyp_grams, left: Counter) -> int:
    """Sum over n-grams of min(hypothesis count, reference count).

    ``left`` counts the reference n-grams. Each hypothesis n-gram, streamed
    in order, takes one that is still left, so ``left`` is consumed and no
    hypothesis ``Counter`` is built.
    """
    count_left = left.get
    matches = 0
    for gram in hyp_grams:
        count = count_left(gram)
        if count:
            left[gram] = count - 1
            matches += 1
    return matches


def _rouge_n_tokens(hyp: list[str], ref: list[str], n: int) -> PRF:
    if len(hyp) < n or len(ref) < n:
        return PRF(0.0, 0.0, 0.0)
    overlap = _clipped_matches(_ngrams(hyp, n), Counter(_ngrams(ref, n)))
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
    """All n-grams of orders 1..MAX_BLEU_ORDER in one ``Counter``. Unigrams
    are strings and longer n-grams tuples of length n, so no two orders share
    a key."""
    return Counter(chain.from_iterable(_ngrams(tokens, n) for n in _BLEU_ORDERS))


def _bleu_stats_tokens(hyp: list[str], ref: list[str]) -> tuple[list[int], list[int], int, int]:
    left = _bleu_ngrams(ref)
    matches = [_clipped_matches(_ngrams(hyp, n), left) for n in _BLEU_ORDERS]
    totals = [max(len(hyp) - n + 1, 0) for n in _BLEU_ORDERS]
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
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def evaluate_predictions(pred_path: str | Path, ref_path: str | Path) -> MetricReport:
    """Score line-aligned prediction and reference files."""
    return evaluate_pairs(_read_lines(pred_path), _read_lines(ref_path))
