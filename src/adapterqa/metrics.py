"""From-scratch generation metrics: ROUGE-1/2/L and corpus-level BLEU.

ROUGE uses lowercase alphanumeric tokens, clipped n-gram overlap, and
sentence-level LCS; corpus scores are arithmetic means of per-example
precision/recall/F1. BLEU pools modified n-gram precisions (orders 1-4)
over the whole corpus on case-sensitive, punctuation-split tokens, applies
exponential smoothing to zero match counts, skips orders whose pooled
denominator is zero, and multiplies by the brevity penalty.

Every scorer counts clipped n-gram matches with one kernel,
``_ngram_matches``, over a block of aligned pairs: ROUGE-1 and ROUGE-2 on
metric tokens, and each BLEU order on BLEU tokens. It maps the block's
tokens to integer ids and counts with sorts over arrays (``np.unique``),
not with one ``Counter`` per pair. ``evaluate_pairs`` and
``sacrebleu_corpus`` walk the corpus in blocks of ``EVAL_BLOCK_PAIRS``
pairs, and the single-pair scorers run a block of one. The block size is
a constant, not an option, because it bounds the memory of one block's
token lists and arrays. Each side of a pair is tokenized once per scheme.
ROUGE scores are exact per pair; a corpus mean adds them as Python floats
in pair order, and BLEU statistics pool as Python ints, so no result
depends on the block size.

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
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import InputError

MAX_BLEU_ORDER = 4
_BLEU_ORDERS = range(1, MAX_BLEU_ORDER + 1)

# Pairs scored per block. A block's token lists and count arrays grow with
# it; 64 pairs of 10-80-token answers keep them near 1 MB.
EVAL_BLOCK_PAIRS = 64

# Longest line, in characters, that ``evaluate_predictions`` scores.
# ROUGE-L's LCS takes time that grows with the product of a pair's token
# counts: a pair of 20,000-character lines of one-letter words takes about
# 18 ms, one of 100,000-character lines 0.22 s, and a few-MB line minutes.
MAX_EVAL_LINE_CHARS = 20_000

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


class LineTooLong(InputError):
    """An ``eval`` input line is longer than ``MAX_EVAL_LINE_CHARS``."""


class EmptyCorpus(InputError):
    """An evaluation was requested over zero examples."""


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

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


def _blocks(hyps: list[str], refs: list[str]):
    """Aligned slices of at most ``EVAL_BLOCK_PAIRS`` pairs, in order."""
    size = EVAL_BLOCK_PAIRS
    for start in range(0, len(hyps), size):
        yield hyps[start:start + size], refs[start:start + size]


def _ngram_matches(hyps: list[list[str]], refs: list[list[str]], max_order: int) -> np.ndarray:
    """Clipped n-gram matches of orders 1..max_order for aligned token
    lists: entry ``[n - 1, i]`` sums min(hypothesis count, reference count)
    over the n-grams of pair i.

    The segments hyp 0, ref 0, hyp 1, ... are laid end to end, and each
    token gets the index of its first occurrence as its id. An n-gram starts
    only where at least n tokens are left in its segment, so none crosses a
    pair or side. Order n's n-grams get ids from one ``np.unique`` over
    (order n - 1 id, last token) keys, so every id stays below the block's
    token count T and every key below T * max(T, segments), whatever the
    vocabulary. One more ``np.unique`` counts each (n-gram, segment) key. A
    hypothesis key directly followed by its key + 1 is the same n-gram in
    the pair's reference, and the smaller of the two counts is a match.
    """
    segments = [tokens for pair in zip(hyps, refs) for tokens in pair]
    lengths = np.fromiter(map(len, segments), np.int64, len(segments))
    n_tokens = int(lengths.sum())
    first_seen: dict[str, int] = {}
    tokens = np.fromiter(map(first_seen.setdefault, chain.from_iterable(segments), count()),
                         np.int64, n_tokens)
    segment = np.repeat(np.arange(len(segments)), lengths)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(n_tokens)
    matches = np.zeros((max_order, len(hyps)), np.int64)
    starts = np.arange(n_tokens)
    grams = tokens
    for n in range(1, max_order + 1):
        if n > 1:
            keep = left[starts] >= n
            starts = starts[keep]
            _, grams = np.unique(grams[keep] * n_tokens + tokens[starts + n - 1],
                                 return_inverse=True)
        keys, counts = np.unique(grams * len(segments) + segment[starts], return_counts=True)
        hyp = np.flatnonzero((keys[:-1] % 2 == 0) & (keys[:-1] + 1 == keys[1:]))
        clipped = np.minimum(counts[hyp], counts[hyp + 1])
        pair = keys[hyp] % len(segments) // 2
        # float64 sums, exact for any count below 2^53
        matches[n - 1] = np.bincount(pair, weights=clipped, minlength=len(hyps))
    return matches


def _prf_arrays(matches: np.ndarray, hyp_totals: np.ndarray,
                ref_totals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair precision, recall and F1 of matches over each side's count
    of n-grams. A side with no n-gram (count 0 or below) has no match
    either, so each of its pair's scores is 0."""
    precision = matches / np.maximum(hyp_totals, 1)
    recall = matches / np.maximum(ref_totals, 1)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros_like(both), where=both > 0)
    return precision, recall, f1


def _pair_prf(matches: int, hyp_total: int, ref_total: int) -> PRF:
    """``_prf_arrays`` for one pair."""
    scores = _prf_arrays(np.array([matches]), np.array([hyp_total]), np.array([ref_total]))
    return PRF(*(float(score[0]) for score in scores))


def _rouge_block(hyps: list[str], refs: list[str]) -> list[np.ndarray]:
    """ROUGE-1, ROUGE-2 and ROUGE-L precision, recall and F1 of each aligned
    pair, as nine arrays in that order."""
    hyp_tokens = [metric_tokenize(hyp) for hyp in hyps]
    ref_tokens = [metric_tokenize(ref) for ref in refs]
    hyp_lens = np.fromiter(map(len, hyp_tokens), np.int64, len(hyps))
    ref_lens = np.fromiter(map(len, ref_tokens), np.int64, len(refs))
    matches = _ngram_matches(hyp_tokens, ref_tokens, 2)
    lcs = np.fromiter(map(lcs_length, hyp_tokens, ref_tokens), np.int64, len(hyps))
    return [*_prf_arrays(matches[0], hyp_lens, ref_lens),
            *_prf_arrays(matches[1], hyp_lens - 1, ref_lens - 1),
            *_prf_arrays(lcs, hyp_lens, ref_lens)]


def rouge_n(hyp: str, ref: str, n: int) -> PRF:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    if type(n) is not int or n not in (1, 2):
        raise InputError(f"rouge_n supports n in {{1, 2}}, got {n!r}")
    hyp_tokens, ref_tokens = metric_tokenize(hyp), metric_tokenize(ref)
    matches = _ngram_matches([hyp_tokens], [ref_tokens], n)
    return _pair_prf(int(matches[n - 1, 0]), len(hyp_tokens) - n + 1, len(ref_tokens) - n + 1)


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


def rouge_l(hyp: str, ref: str) -> PRF:
    """Sentence-level LCS precision/recall/F1 over metric tokens."""
    hyp_tokens, ref_tokens = metric_tokenize(hyp), metric_tokenize(ref)
    return _pair_prf(lcs_length(hyp_tokens, ref_tokens), len(hyp_tokens), len(ref_tokens))


def _bleu_block(hyps: list[str], refs: list[str]) -> list[int]:
    """BLEU statistics summed over aligned strings, as Python ints: the
    clipped matches of orders 1..4, the hypothesis n-gram totals of the same
    orders, the hypothesis length and the reference length. The lists of two
    blocks add element-wise."""
    hyp_tokens = [bleu_tokenize(hyp) for hyp in hyps]
    ref_tokens = [bleu_tokenize(ref) for ref in refs]
    hyp_lens = [len(tokens) for tokens in hyp_tokens]
    matches = _ngram_matches(hyp_tokens, ref_tokens, MAX_BLEU_ORDER).sum(axis=1).tolist()
    totals = [sum(max(length - n + 1, 0) for length in hyp_lens) for n in _BLEU_ORDERS]
    return [*matches, *totals, sum(hyp_lens), sum(map(len, ref_tokens))]


def _bleu_fields(stats: list[int]) -> tuple[list[int], list[int], int, int]:
    """A flat statistics list as (matches, totals, hyp length, ref length)."""
    k = MAX_BLEU_ORDER
    return stats[:k], stats[k:2 * k], stats[2 * k], stats[2 * k + 1]


def _bleu_score(blocks: list[list[int]]) -> float:
    """Pool the blocks' statistics and score them."""
    return bleu_from_stats(*_bleu_fields([sum(column) for column in zip(*blocks)]))


def bleu_segment_stats(hyp: str, ref: str) -> tuple[list[int], list[int], int, int]:
    """Per-segment (clipped matches, totals, hyp length, ref length).

    These tuples add component-wise, so corpus pooling is an associative,
    order-independent reduction.
    """
    return _bleu_fields(_bleu_block([hyp], [ref]))


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
    return _bleu_score([_bleu_block(*block) for block in _blocks(hyps, refs)])


def evaluate_pairs(hyps: list[str], refs: list[str]) -> MetricReport:
    """Per-example ROUGE means plus corpus BLEU for aligned pairs.

    Each side is tokenized once per scheme, and every metric reads those
    tokens. A mean adds the per-pair scores as Python floats in pair order.
    """
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} predictions vs {len(refs)} references")
    if not hyps:
        raise EmptyCorpus("evaluation needs at least one example")
    rouge: list[list[float]] = [[] for _ in range(9)]
    bleu_blocks = []
    for block in _blocks(hyps, refs):
        for column, scores in zip(rouge, _rouge_block(*block)):
            column += scores.tolist()
        bleu_blocks.append(_bleu_block(*block))
    means = [sum(column) / len(hyps) for column in rouge]
    return MetricReport(
        rouge1=PRF(*means[0:3]),
        rouge2=PRF(*means[3:6]),
        rougeL=PRF(*means[6:9]),
        bleu=_bleu_score(bleu_blocks),
        n_examples=len(hyps),
    )


def _read_lines(path: str | Path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if len(line) > MAX_EVAL_LINE_CHARS:
            raise LineTooLong(f"{path}: line {number} holds {len(line):,} characters; "
                              f"eval scores lines of at most {MAX_EVAL_LINE_CHARS:,}")
    return lines


def evaluate_predictions(pred_path: str | Path, ref_path: str | Path) -> MetricReport:
    """Score line-aligned prediction and reference files. Both are read,
    and a line over ``MAX_EVAL_LINE_CHARS`` refused, before any scoring."""
    return evaluate_pairs(_read_lines(pred_path), _read_lines(ref_path))
