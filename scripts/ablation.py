#!/usr/bin/env python3
"""Ablations on the word-order corpus: complex vs real phases, windowed
(local) vs whole-sentence (global) mixtures.

Positives and negatives in this corpus are word-for-word permutations of
each other, so a representation that ignores order cannot separate them.
The global mixture gives a permuted sentence the same bits, so every
positive ties its negatives and ranks by answer id alone: its MAP is that
tie floor (0.775 on every seed).  The windowed model has to clear that bar
by actually learning which key pairs sit adjacent.

The complex-vs-real comparison at matched embedding dimension is much
tighter at this scale; expect a small edge, not the full-scale gap.  The
acceptance suite runs ``ablation_maps`` as defined here.
"""

import argparse

import numpy as np

from qmatch.data import build_vocab
from qmatch.model import TrainerConfig
from qmatch.training import train
from synthetic import order_corpus


def ablation_maps(seeds=range(5), epochs: int = 200) -> dict[str, list[float]]:
    """Best dev MAP per seed of each variant, keyed by the variant name."""
    train_set, dev_set = order_corpus(num_pairs=12, train_questions=72,
                                      dev_questions=60)
    vocab = build_vocab([train_set])
    base = TrainerConfig(
        embedding_dim=8,
        num_measurements=30,
        window_sizes=(2,),
        learning_rate=0.1,
        batch_size=8,
        epochs=epochs,
        dropout_rate=0.0,
    )
    variants = {
        "local/complex": base,
        "local/real": base.with_overrides(complex_valued=False),
        "global/complex": base.with_overrides(mixture="global"),
    }
    return {
        name: [
            train(train_set, dev_set, cfg.with_overrides(seed=s), vocab=vocab).best_dev_map
            for s in seeds
        ]
        for name, cfg in variants.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[0, 1, 2, 3, 4])
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args()

    results = ablation_maps(args.seeds, args.epochs)
    for name, maps in results.items():
        print(f"{name:15s} per-seed MAP {['%.3f' % m for m in maps]} "
              f"mean {np.mean(maps):.4f}")

    local = float(np.mean(results["local/complex"]))
    real = float(np.mean(results["local/real"]))
    global_ = float(np.mean(results["global/complex"]))
    print(f"\nlocal vs global mean MAP: {local:.4f} vs {global_:.4f} "
          f"({'ok' if local >= global_ else 'REVERSED'})")
    print(f"complex vs real  mean MAP: {local:.4f} vs {real:.4f} "
          f"({'ok' if local >= real else 'REVERSED'})")


if __name__ == "__main__":
    main()
