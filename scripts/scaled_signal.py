#!/usr/bin/env python3
"""Trained-vs-untrained comparison on the topical corpus.

For each seed, evaluates a freshly initialized model and a trained one
on the dev split and reports the MAP lift.  Training should beat random
initialization by a clear margin on almost every seed.  The acceptance
suite runs ``lift_per_seed`` as defined here.
"""

import argparse

from qmatch.data import build_vocab
from qmatch.evaluation import evaluate
from qmatch.model import TrainerConfig, init_parameters
from qmatch.training import train
from synthetic import topic_corpus


def lift_per_seed(seeds=range(10), epochs: int = 60) -> list[tuple[float, float]]:
    """``(random-init MAP, best trained MAP)`` on the dev split per seed."""
    train_set, dev_set = topic_corpus(train_questions=100, dev_questions=25,
                                      topic_words=12, filler_words=30)
    vocab = build_vocab([train_set])
    base = TrainerConfig(
        embedding_dim=24,
        num_measurements=30,
        window_sizes=(1, 2),
        learning_rate=0.1,
        batch_size=8,
        epochs=epochs,
        dropout_rate=0.0,
    )
    maps = []
    for config in (base.with_overrides(seed=seed) for seed in seeds):
        baseline = evaluate(init_parameters(vocab, config), dev_set, config, vocab).map
        trained = train(train_set, dev_set, config, vocab=vocab).best_dev_map
        maps.append((baseline, trained))
    return maps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--min-lift", type=float, default=0.10)
    args = parser.parse_args()

    maps = lift_per_seed(range(args.seeds), args.epochs)
    print("seed  random-init MAP  trained MAP  lift")
    for seed, (baseline, trained) in enumerate(maps):
        print(f"{seed:4d}  {baseline:15.4f}  {trained:11.4f}  "
              f"{trained - baseline:+.4f}")
    wins = sum(trained - baseline >= args.min_lift for baseline, trained in maps)
    print(f"\nlift >= {args.min_lift:.2f} on {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
