"""Seeded input corpora for the matcher workloads, written as canonical TSV.

The generators live here rather than in ``qmatch.synthetic`` so that the
benchmark's inputs do not move when the package's own synthetic corpora
change.  Every function is a pure function of its seed.
"""

from __future__ import annotations

import os

import numpy as np

SPLITS = ("train", "dev", "test")


def zipf_long(seed: int, train: int, dev: int, test: int) -> dict[str, list]:
    """Long sentences over a Zipf-distributed vocabulary.

    Token ranks follow p(r) ~ 1/r over 11k ranks, which leaves about 9.8k
    distinct tokens in a 200-question training split.  Questions hold 6-12
    tokens, answers 20-44 (so about one in six runs past the default
    ``max_sentence_len`` of 40).  Each question has 20 candidates: one
    positive that repeats 2-4 of the question's words, and 19 negatives.
    """
    rng = np.random.default_rng([seed, 2])
    cdf = np.cumsum(1.0 / np.arange(1, 11_001))
    cdf /= cdf[-1]

    def tokens(count: int) -> list[str]:
        return [f"z{int(r) + 1}" for r in np.searchsorted(cdf, rng.random(count))]

    def split(name: str, count: int) -> list:
        rows = []
        for q in range(count):
            question = tokens(int(rng.integers(6, 13)))
            cands = []
            for c in range(20):
                words = tokens(int(rng.integers(20, 45)))
                if c == 0:
                    shared = rng.choice(question, size=int(rng.integers(2, 5)))
                    for w in shared:
                        words[int(rng.integers(0, len(words)))] = str(w)
                cands.append((" ".join(words), int(c == 0)))
            order = rng.permutation(len(cands))
            rows.append((f"{name}{q}", " ".join(question),
                         [cands[int(i)] for i in order]))
        return rows

    return {"train": split("train", train), "dev": split("dev", dev),
            "test": split("test", test)}


def write_tsv(rows: list, path: str) -> None:
    """Canonical four-column layout: qid, question, answer, label."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, question, cands in rows:
            for text, label in cands:
                fh.write(f"{qid}\t{question}\t{text}\t{label}\n")


def write_corpus(corpus: dict[str, list], directory: str) -> dict[str, str]:
    paths = {}
    for name in SPLITS:
        paths[name] = os.path.join(directory, f"{name}.tsv")
        write_tsv(corpus[name], paths[name])
    return paths


def density_matrix(rng: np.random.Generator, dim: int, states: int) -> np.ndarray:
    """Dirichlet-weighted mixture of ``states`` random pure states."""
    vecs = rng.standard_normal((states, dim)) + 1j * rng.standard_normal((states, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.dirichlet(np.ones(states))
    rho = (vecs.T * weights) @ vecs.conj()
    return 0.5 * (rho + rho.conj().T)


def density_pairs(seed: int, dims: tuple[int, ...], per_dim: int) -> list:
    """Pairs of density matrices of random rank 1..d at each dimension d."""
    rng = np.random.default_rng([seed, 3])
    return [
        tuple(density_matrix(rng, d, int(rng.integers(1, d + 1))) for _ in range(2))
        for d in dims
        for _ in range(per_dim)
    ]
