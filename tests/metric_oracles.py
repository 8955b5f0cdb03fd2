"""Reference implementations of the metrics, for differential tests.

These are the simple, string-level versions the fast kernels in
``adapterqa.metrics`` replace: an O(n·m) DP and an exhaustive search for
the LCS length, the regex punctuation split, one ``Counter`` per n-gram
order, and a report that re-tokenizes both sides for every metric. Their
floating-point steps are the same as the production code's, so the two
must agree exactly, never approximately.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

MAX_BLEU_ORDER = 4

_ALNUM_RUN = re.compile(r"[a-z0-9]+")
_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_PERIOD_COMMA_AFTER = re.compile(r"([^0-9])([\.,])")
_PERIOD_COMMA_BEFORE = re.compile(r"([\.,])([^0-9])")
_DASH_AFTER_DIGIT = re.compile(r"([0-9])(-)")


def lcs_exhaustive(a: list, b: list) -> int:
    """Longest subsequence of ``a`` that is also a subsequence of ``b``,
    by trying every subsequence of ``a`` from the longest down."""

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    for k in range(len(a), 0, -1):
        for idx in itertools.combinations(range(len(a)), k):
            if is_subsequence([a[i] for i in idx], b):
                return k
    return 0


def lcs_length_dp(a: list, b: list) -> int:
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


def metric_tokenize(text: str) -> list[str]:
    return _ALNUM_RUN.findall(text.lower())


def bleu_tokenize_regex(text: str) -> list[str]:
    """Case-sensitive tokens, punctuation split off by four regex passes."""
    text = _PUNCT.sub(r" \1 ", f" {text} ")
    text = _PERIOD_COMMA_AFTER.sub(r"\1 \2 ", text)
    text = _PERIOD_COMMA_BEFORE.sub(r" \1 \2", text)
    text = _DASH_AFTER_DIGIT.sub(r"\1 \2 ", text)
    return text.split()


def ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _prf(precision: float, recall: float) -> tuple[float, float, float]:
    if precision + recall > 0:
        return precision, recall, 2 * precision * recall / (precision + recall)
    return precision, recall, 0.0


def rouge_n(hyp: str, ref: str, n: int) -> tuple[float, float, float]:
    hyp_grams = ngrams(metric_tokenize(hyp), n)
    ref_grams = ngrams(metric_tokenize(ref), n)
    n_hyp = sum(hyp_grams.values())
    n_ref = sum(ref_grams.values())
    if n_hyp == 0 or n_ref == 0:
        return 0.0, 0.0, 0.0
    overlap = sum(min(count, ref_grams[gram]) for gram, count in hyp_grams.items())
    return _prf(overlap / n_hyp, overlap / n_ref)


def rouge_l(hyp: str, ref: str) -> tuple[float, float, float]:
    hyp_tokens = metric_tokenize(hyp)
    ref_tokens = metric_tokenize(ref)
    if not hyp_tokens or not ref_tokens:
        return 0.0, 0.0, 0.0
    lcs = lcs_length_dp(hyp_tokens, ref_tokens)
    return _prf(lcs / len(hyp_tokens), lcs / len(ref_tokens))


def bleu_segment_stats(hyp: str, ref: str) -> tuple[list[int], list[int], int, int]:
    hyp_tokens = bleu_tokenize_regex(hyp)
    ref_tokens = bleu_tokenize_regex(ref)
    matches = []
    totals = []
    for n in range(1, MAX_BLEU_ORDER + 1):
        hyp_grams = ngrams(hyp_tokens, n)
        ref_grams = ngrams(ref_tokens, n)
        matches.append(sum(min(count, ref_grams[g]) for g, count in hyp_grams.items()))
        totals.append(max(len(hyp_tokens) - n + 1, 0))
    return matches, totals, len(hyp_tokens), len(ref_tokens)


def sacrebleu_corpus(hyps: list[str], refs: list[str]) -> float:
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
    if effective_orders == 0 or hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / effective_orders)


def evaluate_pairs_json(hyps: list[str], refs: list[str]) -> dict:
    """The ``eval`` report as a JSON dict, every metric re-tokenizing its
    strings: ROUGE means of per-example scores, corpus-pooled BLEU."""

    def mean(scores):
        n = len(scores)
        p, r, f = zip(*scores)
        return {"p": sum(p) / n, "r": sum(r) / n, "f": sum(f) / n}

    pairs = list(zip(hyps, refs))
    return {
        "rouge1": mean([rouge_n(h, r, 1) for h, r in pairs]),
        "rouge2": mean([rouge_n(h, r, 2) for h, r in pairs]),
        "rougeL": mean([rouge_l(h, r) for h, r in pairs]),
        "bleu": sacrebleu_corpus(hyps, refs),
        "n": len(hyps),
    }
