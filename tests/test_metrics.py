import itertools
import math
import random
import string
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adapterqa import metrics
from adapterqa.errors import InputError
from adapterqa.metrics import (
    EmptyCorpus,
    LengthMismatch,
    PRF,
    bleu_segment_stats,
    bleu_tokenize,
    evaluate_pairs,
    evaluate_predictions,
    lcs_length,
    metric_tokenize,
    rouge_l,
    rouge_n,
    sacrebleu_corpus,
)

import metric_oracles as oracle

token_lists = st.lists(st.sampled_from(["a", "b", "c", "cat", "sat"]), max_size=8)
sentences = token_lists.map(" ".join)


def test_metric_tokenize_examples():
    assert metric_tokenize("The cat's mat.") == ["the", "cat", "s", "mat"]
    assert metric_tokenize("") == []
    assert metric_tokenize("ABC abc") == ["abc", "abc"]


def test_rouge_n_identical():
    for n in (1, 2):
        assert rouge_n("the cat sat", "the cat sat", n) == PRF(1.0, 1.0, 1.0)


def test_rouge_2_hand_example():
    # Bigram oracle: hyp {the cat, cat sat}; ref adds {sat on, on the, the mat}.
    prf = rouge_n("the cat sat", "the cat sat on the mat", 2)
    assert prf.precision == 1.0
    assert prf.recall == pytest.approx(0.4)
    assert prf.f1 == pytest.approx(4 / 7, abs=1e-12)


def test_rouge_empty_sides_score_zero():
    assert rouge_n("the cat", "", 1) == PRF(0.0, 0.0, 0.0)
    assert rouge_n("", "the cat", 2) == PRF(0.0, 0.0, 0.0)
    assert rouge_l("", "the cat") == PRF(0.0, 0.0, 0.0)


def test_rouge_n_rejects_other_orders():
    for n in (3, 0, 2.0, True, "1"):
        with pytest.raises(InputError):
            rouge_n("a", "a", n)


def test_rouge_l_hand_example():
    prf = rouge_l("the cat", "the cat sat")
    assert prf.precision == 1.0
    assert prf.recall == pytest.approx(2 / 3, abs=1e-12)
    assert prf.f1 == pytest.approx(0.8, abs=1e-9)


def test_rouge_l_identical_and_disjoint():
    assert rouge_l("x y z", "x y z").f1 == 1.0
    assert rouge_l("a b", "c d").f1 == 0.0


@given(sentences.filter(lambda s: metric_tokenize(s)))
def test_rouge_l_self_similarity_is_one(text):
    assert rouge_l(text, text).f1 == 1.0


@settings(max_examples=300)
@given(token_lists, token_lists)
def test_lcs_dp_matches_exhaustive_enumeration(a, b):
    assert oracle.lcs_length_dp(a, b) == oracle.lcs_exhaustive(a, b)
    assert lcs_length(a, b) == oracle.lcs_exhaustive(a, b)


@given(sentences, sentences)
def test_rouge_swap_symmetry(hyp, ref):
    for scorer in (lambda h, r: rouge_n(h, r, 1), lambda h, r: rouge_n(h, r, 2), rouge_l):
        forward = scorer(hyp, ref)
        backward = scorer(ref, hyp)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)
        assert forward.f1 == pytest.approx(backward.f1)


@given(sentences, sentences)
def test_rouge_scores_bounded(hyp, ref):
    for prf in (rouge_n(hyp, ref, 1), rouge_n(hyp, ref, 2), rouge_l(hyp, ref)):
        for value in (prf.precision, prf.recall, prf.f1):
            assert 0.0 <= value <= 1.0


def test_bleu_tokenize_13a_style():
    assert bleu_tokenize("Hello, world!") == ["Hello", ",", "world", "!"]
    assert bleu_tokenize("costs 3.50 total") == ["costs", "3.50", "total"]
    assert bleu_tokenize("pp. 4-5") == ["pp", ".", "4", "-", "5"]
    assert bleu_tokenize("Mixed CASE stays") == ["Mixed", "CASE", "stays"]


def test_bleu_identical_corpus_is_100():
    hyps = ["the cat sat on the mat", "a longer sentence with many tokens here"]
    assert sacrebleu_corpus(hyps, list(hyps)) == pytest.approx(100.0)


def test_bleu_hand_example():
    # Oracle: p = (5/6, 3/5, 2/4, 1/3), BP = 1.
    expected = 100.0 * math.exp(
        (math.log(5 / 6) + math.log(3 / 5) + math.log(2 / 4) + math.log(1 / 3)) / 4
    )
    got = sacrebleu_corpus(["the cat sat on the mat"], ["the cat sat on a mat"])
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(53.73, abs=0.01)


def test_bleu_single_token_identical_skips_empty_orders():
    # Orders 2..4 have zero denominators and drop out of the geometric mean.
    assert sacrebleu_corpus(["hello"], ["hello"]) == pytest.approx(100.0)


def test_bleu_smoothing_on_zero_matches():
    # hyp/ref share unigrams only; zero-match orders get 1/(smooth * total)
    # with smooth doubling at each zero order: p2=1/(2*3), p3=1/(4*2), p4=1/(8*1).
    hyp = "a b c d"
    ref = "a c b d"
    matches, totals, hyp_len, ref_len = bleu_segment_stats(hyp, ref)
    assert matches == [4, 0, 0, 0]
    assert totals == [4, 3, 2, 1]
    expected = 100.0 * math.exp(
        (math.log(1.0) + math.log(1 / 6) + math.log(1 / 8) + math.log(1 / 8)) / 4
    )
    assert sacrebleu_corpus([hyp], [ref]) == pytest.approx(expected, abs=1e-9)


def test_bleu_brevity_penalty():
    # Short hypothesis: c=2, r=4 -> BP = exp(1 - 2).
    hyp, ref = "a b", "a b c d"
    matches, totals, _, _ = bleu_segment_stats(hyp, ref)
    assert matches[0] == 2 and matches[1] == 1
    p1, p2 = 2 / 2, 1 / 1
    expected = 100.0 * math.exp(1 - 4 / 2) * math.exp((math.log(p1) + math.log(p2)) / 2)
    assert sacrebleu_corpus([hyp], [ref]) == pytest.approx(expected, abs=1e-9)


def test_bleu_errors():
    with pytest.raises(LengthMismatch):
        sacrebleu_corpus(["a"], ["a", "b"])
    with pytest.raises(EmptyCorpus):
        sacrebleu_corpus([], [])


@given(st.lists(st.tuples(sentences, sentences), min_size=1, max_size=5), sentences)
def test_adding_identical_pair_never_reduces_matches(pairs, extra):
    def pooled_matches(pair_list):
        pooled = [0, 0, 0, 0]
        for hyp, ref in pair_list:
            seg, _, _, _ = bleu_segment_stats(hyp, ref)
            pooled = [a + b for a, b in zip(pooled, seg)]
        return pooled

    base = pooled_matches(pairs)
    grown = pooled_matches(pairs + [(extra, extra)])
    assert all(g >= b for b, g in zip(base, grown))


@given(st.lists(st.tuples(sentences, sentences), min_size=1, max_size=5))
def test_bleu_bounded(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert 0.0 <= sacrebleu_corpus(hyps, refs) <= 100.0 + 1e-9


def test_bleu_pooling_is_order_independent():
    pairs = [("the cat sat", "the cat sat down"), ("b c", "b d"), ("x", "x y z")]
    rng = random.Random(0)
    scores = set()
    for _ in range(5):
        rng.shuffle(pairs)
        scores.add(round(sacrebleu_corpus([h for h, _ in pairs], [r for _, r in pairs]), 12))
    assert len(scores) == 1


def test_evaluate_pairs_report_and_parallel_merge():
    hyps = ["the cat sat", "a b c", "exact match here"]
    refs = ["the cat sat on the mat", "a b d", "exact match here"]
    result = evaluate_pairs(hyps, refs)
    assert result.n_examples == 3
    assert 0.0 <= result.rouge1.f1 <= 1.0
    report = result.to_json_dict()
    assert set(report) == {"rouge1", "rouge2", "rougeL", "bleu", "n"}
    assert set(report["rouge1"]) == {"p", "r", "f"}


def test_evaluate_predictions_files(tmp_path):
    pred = tmp_path / "pred.txt"
    ref = tmp_path / "ref.txt"
    pred.write_text("the cat sat\nhello world\n", encoding="utf-8")
    ref.write_text("the cat sat\nhello there world\n", encoding="utf-8")
    report = evaluate_predictions(pred, ref)
    assert report.n_examples == 2
    assert report.rouge1.precision == pytest.approx((1.0 + 1.0) / 2)


def test_evaluate_predictions_length_mismatch(tmp_path):
    pred = tmp_path / "pred.txt"
    ref = tmp_path / "ref.txt"
    pred.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    with pytest.raises(LengthMismatch):
        evaluate_predictions(pred, ref)


def test_evaluate_predictions_missing_file(tmp_path):
    with pytest.raises(OSError):
        evaluate_predictions(tmp_path / "nope.txt", tmp_path / "nope2.txt")


# Differential tests: the fast kernels against the simple versions they
# replace (tests/metric_oracles.py), compared with ==, never approximately.

small_alphabet_pairs = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.lists(st.sampled_from("abcde"[:k]), max_size=90)] * 2))


@settings(max_examples=300)
@given(small_alphabet_pairs)
@example(([], []))
@example((["a"], []))
@example((["a"], ["a"]))
@example((["a"] * 90, ["a"] * 90))
def test_bit_parallel_lcs_equals_dp(pair):
    a, b = pair
    assert lcs_length(a, b) == oracle.lcs_length_dp(a, b)


# ASCII punctuation, digits and whitespace, a few letters, and non-ASCII
# letters, dashes and separators (str.split treats \xa0 and \u3000 as spaces).
TOKENIZER_ALPHABET = (string.punctuation + string.digits + string.whitespace
                      + "aZ" + "éΩ東–…\xa0\u3000")
tokenizer_text = st.text(st.sampled_from(TOKENIZER_ALPHABET), max_size=40) | st.text(max_size=20)


@settings(max_examples=500)
@given(tokenizer_text)
@example("pp. 4-5")
@example("3.50")
@example("")
@example("1,000.5 -x- .a, b. ,7")
@example("a.,b")
@example("1.,2")
@example("3-.4")
def test_translate_bleu_tokenize_equals_regex(text):
    assert bleu_tokenize(text) == oracle.bleu_tokenize_regex(text)


answer_words = st.sampled_from(["the", "The", "cat", "sat", "a", "a", "3.50", "pp.", "4-5",
                                "1,000", "-", ",", "x.", "(b)", "café", "東京"])
answers = st.lists(answer_words, max_size=30).map(" ".join) | tokenizer_text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(answers, answers), min_size=1, max_size=8))
@example([("pp. 4-5", "pp. 4-5")])
@example([("3.50", "3.50")])
@example([("", "")])
@example([("hello", "hello"), ("a", "b"), ("", "x"), ("x", "")])
def test_evaluate_pairs_equals_string_level_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert evaluate_pairs(hyps, refs).to_json_dict() == oracle.evaluate_pairs_json(hyps, refs)
    for hyp, ref in pairs:
        assert bleu_segment_stats(hyp, ref) == oracle.bleu_segment_stats(hyp, ref)
        for got, want in ((rouge_n(hyp, ref, 1), oracle.rouge_n(hyp, ref, 1)),
                          (rouge_n(hyp, ref, 2), oracle.rouge_n(hyp, ref, 2)),
                          (rouge_l(hyp, ref), oracle.rouge_l(hyp, ref))):
            assert (got.precision, got.recall, got.f1) == want


# Every whitespace character str.split() knows below U+3100, and the
# characters the 13a rules react to around it: the token-by-token tokenizer
# is exact only if no rule match spans two whitespace-separated tokens.
WHITESPACE_ALPHABET = [c for c in map(chr, range(0x3100)) if c.isspace()] + list(".,-1a(")


@settings(max_examples=1000)
@given(st.text(st.sampled_from(WHITESPACE_ALPHABET), max_size=30))
@example("a .b")
@example(". ,")
@example("x\x1c.5")
@example("1\u2028-2")
@example("1 -2")
@example("-.5")
@example(".,")
def test_token_by_token_bleu_tokenize_equals_regex(text):
    assert bleu_tokenize(text) == oracle.bleu_tokenize_regex(text)


# Few distinct words and many repeats, so that clipping decides most counts.
repeated_word_pairs = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.lists(st.sampled_from("abcde"[:k]), max_size=60)] * 2))


@settings(max_examples=300)
@given(repeated_word_pairs)
@example(([], []))
@example((["a"], ["a", "a"]))
@example((["a"] * 60, ["a"] * 3))
@example((["a", "b"] * 30, ["b", "a"] * 30))
def test_clipped_matches_equal_oracle_counts(pair):
    hyp, ref = (" ".join(tokens) for tokens in pair)
    assert bleu_segment_stats(hyp, ref) == oracle.bleu_segment_stats(hyp, ref)
    for n in (1, 2):
        got = rouge_n(hyp, ref, n)
        assert (got.precision, got.recall, got.f1) == oracle.rouge_n(hyp, ref, n)


def test_evaluate_pairs_tokenizes_each_side_once_per_scheme(monkeypatch):
    calls = {"metric": 0, "bleu": 0}

    def counted(name, tokenize):
        def wrapper(text):
            calls[name] += 1
            return tokenize(text)
        return wrapper

    monkeypatch.setattr(metrics, "metric_tokenize", counted("metric", metrics.metric_tokenize))
    monkeypatch.setattr(metrics, "bleu_tokenize", counted("bleu", metrics.bleu_tokenize))
    hyps = ["The cat sat, 3.50 - 4-5.", "a (b) c", ""]
    refs = ["the cat sat on the mat.", "a b d", "x"]
    metrics.evaluate_pairs(hyps, refs)
    assert calls == {"metric": 2 * len(hyps), "bleu": 2 * len(hyps)}


# Block boundaries: ``evaluate_pairs`` and ``sacrebleu_corpus`` score
# ``EVAL_BLOCK_PAIRS`` pairs per block, and no score may depend on where the
# blocks fall.

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(answers, answers), min_size=1, max_size=20),
       st.sampled_from([1, 2, 3, metrics.EVAL_BLOCK_PAIRS]))
@example([("a b c d", "a b c d"), ("", "x"), ("x y", "y x")], 1)
@example([("a b c d", "a b c d"), ("a b", "a b")], 2)
def test_every_block_size_equals_the_oracle(pairs, block_pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    with mock.patch.object(metrics, "EVAL_BLOCK_PAIRS", block_pairs):
        assert evaluate_pairs(hyps, refs).to_json_dict() == oracle.evaluate_pairs_json(hyps, refs)
        assert sacrebleu_corpus(hyps, refs) == oracle.sacrebleu_corpus(hyps, refs)


def answer_corpus(seed: int, n_pairs: int) -> tuple[list[str], list[str]]:
    """Seeded answer-like pairs. References run 10 + 70 u^3 words from a
    Zipf-like vocabulary with numbers, commas, periods and capitals mixed
    in; each hypothesis drops, repeats or replaces some reference words."""
    rng = random.Random(seed)
    vocab = [f"{a}{b}" for a, b in itertools.product(["ka", "lo", "mi", "nu", "Re", "su"],
                                                     map(str, range(200)))]
    weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    extras = ["3.50", "4-5", "(b)", "x,", "y.", "-", "The", "the"]
    hyps, refs = [], []
    for _ in range(n_pairs):
        ref = rng.choices(vocab, cum_weights=weights, k=10 + round(70 * rng.random() ** 3))
        ref = [rng.choice(extras) if rng.random() < 0.1 else word for word in ref]
        hyp = []
        for word in ref:
            roll = rng.random()
            if roll < 0.1:
                continue
            hyp.append(word if roll < 0.8 else rng.choice(vocab))
            if roll > 0.95:
                hyp.append(word)
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    return hyps, refs


def test_a_corpus_of_many_blocks_equals_the_oracle():
    hyps, refs = answer_corpus(seed=0, n_pairs=3 * metrics.EVAL_BLOCK_PAIRS + 5)
    assert evaluate_pairs(hyps, refs).to_json_dict() == oracle.evaluate_pairs_json(hyps, refs)
    assert sacrebleu_corpus(hyps, refs) == oracle.sacrebleu_corpus(hyps, refs)


def test_a_block_of_many_distinct_tokens_equals_the_oracle():
    # 70,400 distinct words in one block. A 4-gram key built from raw token
    # ids (((a * V + b) * V + c) * V + d) would exceed 2^64 here; the
    # kernel's keys stay below the block's token count squared.
    width = 1100
    rng = random.Random(2)
    words = [f"w{i}" for i in range(metrics.EVAL_BLOCK_PAIRS * width)]
    rng.shuffle(words)
    hyps, refs = [], []
    for i in range(metrics.EVAL_BLOCK_PAIRS):
        long = words[i * width:(i + 1) * width]
        start = rng.randrange(width - 10)
        excerpt = long[start:start + rng.randint(3, 10)]
        short = excerpt + excerpt[:2] + [rng.choice(words)]
        hyp, ref = (long, short) if i % 2 else (short, long)
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    assert evaluate_pairs(hyps, refs).to_json_dict() == oracle.evaluate_pairs_json(hyps, refs)
    assert sacrebleu_corpus(hyps, refs) == oracle.sacrebleu_corpus(hyps, refs)


# tracemalloc peak of one ``evaluate_pairs`` over the 900 pairs below:
# 0.96 MB at 64 pairs per block, 1.51 MB at 128, and 8.89 MB in one block of
# all 900 pairs. The per-pair Counter kernels it replaced peaked at 0.74 MB.
EVAL_PEAK_MB = 2.0


def test_eval_peak_stays_under_its_traced_bound():
    hyps, refs = answer_corpus(seed=1, n_pairs=900)
    tracemalloc.start()
    try:
        evaluate_pairs(hyps, refs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= EVAL_PEAK_MB * 1e6
