"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so
the same seed gives byte-identical inputs. The seed picks content and
order; the size profile (answer lengths, passage lengths, table shapes) is
stratified over fixed quantile grids, so the total work of a corpus barely
depends on the seed and runs with different seeds stay comparable.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "dor", "fen", "gal",
              "hul", "jin", "mar", "pel", "qua", "ris", "tam", "wel")
_QUESTION_WORDS = ("what", "who", "when", "which", "how", "where")


def copy_task(seed: int, batch: int, length: int, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Copy-task batch: random token ids (never 0 or the BOS id 1), target = source."""
    rng = np.random.default_rng(seed)
    source = rng.integers(2, vocab_size, size=(batch, length), dtype=np.int64)
    return source, source.copy()


def random_pair(seed: int, batch: int, length: int,
                vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent random source and target ids, as the gradient audit uses."""
    rng = np.random.default_rng(seed)
    source = rng.integers(2, vocab_size, size=(batch, length), dtype=np.int64)
    target = rng.integers(2, vocab_size, size=(batch, length), dtype=np.int64)
    return source, target


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n quantile midpoints in (0, 1), shuffled: a fixed histogram in seeded order."""
    grid = [(i + 0.5) / n for i in range(n)]
    rng.shuffle(grid)
    return grid


class _Words:
    """Zipf-like word source over a fixed synthetic vocabulary."""

    def __init__(self, rng: random.Random, size: int = 1500):
        vocab_rng = random.Random(0)
        words = set()
        while len(words) < size:
            n = vocab_rng.choice((1, 2, 2, 3))
            words.add("".join(vocab_rng.choice(_SYLLABLES) for _ in range(n)))
        self.vocab = sorted(words)
        self.cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(size)))
        self.rng = rng

    def take(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)

    def sentence(self, n: int) -> str:
        """n tokens with sentence punctuation and numbers mixed in."""
        tokens = self.take(n)
        for i in range(n):
            roll = self.rng.random()
            if roll < 0.06:
                tokens[i] = str(self.rng.randint(1, 2030))
            elif roll < 0.12:
                tokens[i] += ","
            elif roll < 0.15:
                tokens[i] += "."
        if tokens:
            tokens[0] = tokens[0].capitalize()
            tokens[-1] = tokens[-1].rstrip(",.") + "."
        return " ".join(tokens)


def _tile(rng: random.Random, n_rows: int, width: int, max_span: int, span_p: float,
          text) -> list[list[dict]]:
    """Tile an n_rows x width grid with spanning cells, row by row, each
    cell placed at the leftmost free column (the validator's rule)."""
    occupied = [[False] * width for _ in range(n_rows)]
    rows = []
    for r in range(n_rows):
        row = []
        c = 0
        while c < width:
            if occupied[r][c]:
                c += 1
                continue
            gap = 0
            while c + gap < width and not occupied[r][c + gap]:
                gap += 1
            colspan = rng.randint(2, min(gap, max_span)) if gap > 1 and rng.random() < span_p else 1
            rows_left = n_rows - r
            rowspan = (rng.randint(2, min(rows_left, max_span))
                       if rows_left > 1 and rng.random() < span_p else 1)
            for dr in range(rowspan):
                for dc in range(colspan):
                    occupied[r + dr][c + dc] = True
            cell = {"text": text()}
            if colspan > 1:
                cell["colspan"] = colspan
            if rowspan > 1:
                cell["rowspan"] = rowspan
            row.append(cell)
            c += colspan
        rows.append(row)
    return rows


@dataclass
class QaCorpus:
    """Files of one generated FeTaQA-shaped corpus plus what the checks need."""

    tables: Path
    passages: Path
    preds: Path
    refs: Path
    n_tables: int
    n_passages: int
    grid_cells: int        # header + body grid positions over all tables
    answers: list[str]     # reference answers, tables first, in file order

    @property
    def n_records(self) -> int:
        return self.n_tables + self.n_passages


def _perturb(rng: random.Random, words: _Words, answer: str) -> str:
    """A prediction near the answer: dropped, replaced, repeated and cut tokens."""
    out = []
    for token in answer.split():
        roll = rng.random()
        if roll < 0.10:
            continue
        if roll < 0.20:
            out.append(words.take(1)[0])
        elif roll < 0.25:
            out.extend((token, token))
        else:
            out.append(token)
    if rng.random() < 0.15:
        out = out[: max(1, int(len(out) * 0.6))]
    return " ".join(out) if out else answer.split()[0]


def qa_corpus(seed: int, workdir: Path, n_tables: int, n_passages: int) -> QaCorpus:
    """Write table records, passage records, references and predictions.

    Tables have 1-3 header levels, 1-8 columns and 2-16 body rows with row
    and column spans that tile the grid. Answers run 10-80 tokens with a
    long tail (length 10 + 70 u^3 over a quantile grid u); passages run
    30-400 tokens. Predictions are seeded perturbations of the answers.
    """
    rng = random.Random(seed)
    words = _Words(rng)
    workdir.mkdir(parents=True, exist_ok=True)

    def question() -> str:
        opener = rng.choice(_QUESTION_WORDS)
        body = words.sentence(rng.randint(7, 18)).lower()[:-1]  # drop the final period
        return f"{opener} {body}?"

    def cell_text() -> str:
        if rng.random() < 0.3:
            return str(rng.randint(1, 9999))
        return " ".join(words.take(rng.randint(1, 3)))

    n_total = n_tables + n_passages
    answer_u = _stratified(rng, n_total)
    answers = [words.sentence(10 + round(70 * u ** 3)) for u in answer_u]

    records_t = []
    grid_cells = 0
    shape_u = _stratified(rng, n_tables)
    for i, u in enumerate(shape_u):
        width = 1 + int(8 * u)
        levels = 1 + int(3 * ((u * 3.7) % 1.0))
        body_rows = 2 + int(15 * ((u * 7.31) % 1.0))
        grid_cells += width * (levels + body_rows)
        table = {
            "title": " ".join(words.take(rng.randint(2, 6))),
            "header_rows": _tile(rng, levels, width, 3, 0.35, cell_text),
            "body_rows": _tile(rng, body_rows, width, 3, 0.08, cell_text),
        }
        records_t.append({"id": f"t{i}", "question": question(), "title": table["title"],
                          "context": {"table": table}, "answers": [answers[i]]})

    records_p = []
    for i, u in enumerate(_stratified(rng, n_passages)):
        passage = words.sentence(30 + round(370 * u * u))
        records_p.append({"id": f"p{i}", "question": question(),
                          "title": " ".join(words.take(rng.randint(2, 6))),
                          "context": {"passage": passage},
                          "answers": [answers[n_tables + i]]})

    preds = [_perturb(rng, words, a) for a in answers]
    corpus = QaCorpus(
        tables=workdir / "tables.jsonl",
        passages=workdir / "passages.jsonl",
        preds=workdir / "pred.txt",
        refs=workdir / "ref.txt",
        n_tables=n_tables,
        n_passages=n_passages,
        grid_cells=grid_cells,
        answers=answers,
    )
    corpus.tables.write_text("".join(json.dumps(r) + "\n" for r in records_t), encoding="utf-8")
    corpus.passages.write_text("".join(json.dumps(r) + "\n" for r in records_p), encoding="utf-8")
    corpus.refs.write_text("".join(a + "\n" for a in answers), encoding="utf-8")
    corpus.preds.write_text("".join(p + "\n" for p in preds), encoding="utf-8")
    return corpus
