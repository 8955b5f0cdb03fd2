"""End-to-end demo on a synthetic mixed corpus.

Generates a small JSONL dataset of table and text QA records, then runs
``adapterqa stats``, ``adapterqa prepare --max-tokens 48`` and
``adapterqa eval`` (scoring dummy predictions against the prepared
targets) through the CLI entry point.

Usage: python scripts/demo_pipeline.py [--work-dir demo_run]
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adapterqa.cli import main as adapterqa  # noqa: E402

FILMS = [
    ("2013", "Padhe Padhe", "Kannada"),
    ("2014", "Kathai Thiraikathai Vasanam Iyakkam", "Tamil"),
    ("2015", "Inimey Ippadithaan", "Tamil"),
]


def make_table_record(idx, rng):
    rows = rng.sample(FILMS, k=2)
    year, film, _ = rows[0]
    return {
        "id": f"tab{idx}",
        "question": f"which film was released in {year}",
        "title": "Filmography",
        "context": {
            "table": {
                "title": "Filmography",
                "header_rows": [[{"text": "Year"}, {"text": "Film"}, {"text": "Language"}]],
                "body_rows": [[{"text": y}, {"text": f}, {"text": lang}] for y, f, lang in rows],
            }
        },
        "answers": [f"{film} was released in {year}"],
    }


def make_text_record(idx, rng):
    topic = rng.choice(["river", "mountain", "harbor"])
    return {
        "id": f"txt{idx}",
        "question": f"what does the passage say about the {topic}",
        "title": topic.title(),
        "context": {"passage": f"the {topic} is long and old and widely visited"},
        "answers": [f"the {topic} is long and old"],
    }


def run(*argv: str):
    code = adapterqa(list(argv))
    if code != 0:
        sys.exit(code)


def main(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="demo_run")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--seed", type=int, default=6)
    args = parser.parse_args(argv)

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    for modality, maker in (("table", make_table_record), ("text", make_text_record)):
        data_path = work / f"{modality}.jsonl"
        records_json = [maker(i, rng) for i in range(args.n)]
        data_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records_json), encoding="utf-8"
        )

        print(f"[{modality}]", flush=True)
        run("stats", "--in", str(data_path), "--modality", modality)
        prepared_path = work / f"{modality}_prepared.jsonl"
        run("prepare", "--in", str(data_path), "--modality", modality, "--max-tokens", "48",
            "--out", str(prepared_path))

        # dummy predictions: echo the reference for even ids, truncate for odd
        with open(prepared_path, encoding="utf-8") as handle:
            refs = [json.loads(line)["target"] for line in handle]
        preds = [ref if i % 2 == 0 else " ".join(ref.split()[:3]) for i, ref in enumerate(refs)]
        ref_path = work / f"{modality}_refs.txt"
        pred_path = work / f"{modality}_preds.txt"
        ref_path.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
        pred_path.write_text("".join(p + "\n" for p in preds), encoding="utf-8")
        run("eval", "--pred", str(pred_path), "--ref", str(ref_path))

    print(f"artifacts in {work}/")


if __name__ == "__main__":
    main()
