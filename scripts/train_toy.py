#!/usr/bin/env python3
"""Overfit the tiny toy corpus and report train-set MAP/MRR.

A sanity run: the matcher should reach MAP = MRR = 1.0 within a few
dozen epochs.  The acceptance suite runs ``toy_overfit`` as defined here.
"""

import argparse

from qmatch.model import TrainerConfig
from qmatch.synthetic import toy_corpus
from qmatch.training import train


def toy_overfit(epochs: int = 50, seed: int = 3):
    """The training result and its final report on the training set."""
    toy = toy_corpus(8)
    config = TrainerConfig(
        embedding_dim=8,
        num_measurements=6,
        window_sizes=(1, 2),
        learning_rate=0.1,
        l2_lambda=1e-7,
        batch_size=8,
        epochs=epochs,
        dropout_rate=0.0,
        seed=seed,
    )
    result = train(toy, toy, config)   # the toy set is its own dev split
    return result, result.best_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    result, report = toy_overfit(args.epochs, args.seed)
    print(report.format_table())
    for record in result.history:
        print(f"epoch {record.epoch:3d}  loss {record.mean_loss:.4f}  "
              f"MAP {record.dev_map:.3f}")


if __name__ == "__main__":
    main()
