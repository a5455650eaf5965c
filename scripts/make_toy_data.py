#!/usr/bin/env python3
"""Write synthetic QA corpora as canonical TSV files."""

import argparse
from pathlib import Path

from synthetic import order_corpus, topic_corpus, toy_corpus, write_canonical_tsv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", choices=("toy", "topic", "order"),
                        default="topic")
    parser.add_argument("--out", type=Path, default=Path("data"))
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default: the corpus's own)")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    seed = {} if args.seed is None else {"seed": args.seed}
    if args.corpus == "toy":
        splits = {"toy": toy_corpus()}
    else:
        corpus = topic_corpus if args.corpus == "topic" else order_corpus
        train, dev = corpus(**seed)
        splits = {"train": train, "dev": dev}

    for name, dataset in splits.items():
        path = args.out / f"{args.corpus}_{name}.tsv"
        write_canonical_tsv(dataset, path)
        print(f"{path}: {dataset.num_questions} questions, "
              f"{dataset.num_pairs} pairs")


if __name__ == "__main__":
    main()
