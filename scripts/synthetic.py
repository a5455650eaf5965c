"""Deterministic synthetic QA corpora for experiments and tests.

Three families:

* ``toy_corpus``     — a tiny perfectly separable set for overfit checks.
* ``topic_corpus``   — topical questions whose answers share topic words,
                       with misleading filler overlap across topics; a
                       trained model should beat a random-init one.
* ``order_corpus``   — positives and negatives contain the *same multiset*
                       of words; only adjacency differs.  A bag-of-words
                       (whole-sentence) mixture cannot separate them, a
                       windowed one can.

``write_canonical_tsv`` writes a corpus split as a canonical TSV file.
"""

from __future__ import annotations

import numpy as np

from qmatch.data import CandidateAnswer, QADataset, QuestionGroup


def _group(qid: str, text: str, answers: list[tuple[str, int]]) -> QuestionGroup:
    candidates = [
        CandidateAnswer(answer_id=i, text=t, label=lab)
        for i, (t, lab) in enumerate(answers)
    ]
    return QuestionGroup(question_id=qid, text=text, candidates=candidates)


def toy_corpus(num_questions: int = 8) -> QADataset:
    """Each question names a key; only its positive answer echoes it."""
    questions = []
    for i in range(num_questions):
        other = (i + 1) % num_questions
        questions.append(
            _group(
                f"toy{i}",
                f"ask key{i}",
                [(f"echo key{i} reply", 1), (f"echo key{other} reply", 0)],
            )
        )
    return QADataset(split="toy", questions=questions)


def _sample_words(rng: np.random.Generator, pool: list[str], count: int) -> list[str]:
    return [pool[int(j)] for j in rng.integers(0, len(pool), size=count)]


def topic_corpus(
    num_topics: int = 4,
    train_questions: int = 40,
    dev_questions: int = 20,
    negatives: int = 4,
    topic_words: int = 30,
    filler_words: int = 60,
    seed: int = 11,
) -> tuple[QADataset, QADataset]:
    """Topical QA with cross-topic filler noise.

    A question and its positive answer draw content words from one topic
    pool; negatives draw theirs from other topics.  All sentences mix in
    shared filler words, so surface overlap alone is misleading.
    """
    rng = np.random.default_rng(seed)
    pools = [
        [f"t{t}w{i}" for i in range(topic_words)] for t in range(num_topics)
    ]
    filler = [f"f{i}" for i in range(filler_words)]

    def build(split: str, count: int, offset: int) -> QADataset:
        questions = []
        for q in range(count):
            topic = (q + offset) % num_topics
            q_text = " ".join(
                _sample_words(rng, pools[topic], int(rng.integers(2, 4)))
                + _sample_words(rng, filler, int(rng.integers(1, 3)))
            )

            def answer(t: int) -> str:
                return " ".join(
                    _sample_words(rng, pools[t], int(rng.integers(3, 6)))
                    + _sample_words(rng, filler, int(rng.integers(2, 5)))
                )

            answers = [(answer(topic), 1)]
            for _ in range(negatives):
                wrong = (topic + 1 + int(rng.integers(0, num_topics - 1))) % num_topics
                answers.append((answer(wrong), 0))
            order = rng.permutation(len(answers))
            questions.append(
                _group(f"{split}{q}", q_text, [answers[int(i)] for i in order])
            )
        return QADataset(split=split, questions=questions)

    train = build("train", train_questions, 0)
    dev = build("dev", dev_questions, 1)
    return train, dev


def order_corpus(
    num_pairs: int = 12,
    train_questions: int = 36,
    dev_questions: int = 18,
    seed: int = 13,
) -> tuple[QADataset, QADataset]:
    """Word order is the only signal.

    Every question asks about a key pair (a, b).  Its positive answer
    contains ``a b`` adjacent; the negative scatters the very same words
    apart with the same fillers in between.  Positive and negative are
    permutations of each other, so any order-blind representation scores
    them identically.
    """
    rng = np.random.default_rng(seed)
    pairs = [(f"a{i}", f"b{i}") for i in range(num_pairs)]
    filler = [f"pad{i}" for i in range(20)]

    def build(split: str, count: int) -> QADataset:
        questions = []
        for q in range(count):
            a, b = pairs[q % num_pairs]
            fill = _sample_words(rng, filler, 3)
            positive = " ".join([fill[0], a, b, fill[1], fill[2]])
            negative = " ".join([fill[0], a, fill[1], fill[2], b])
            answers = [(positive, 1), (negative, 0)]
            order = rng.permutation(2)
            questions.append(
                _group(f"{split}{q}", f"{a} {b}", [answers[int(i)] for i in order])
            )
        return QADataset(split=split, questions=questions)

    return build("train", train_questions), build("dev", dev_questions)


def write_canonical_tsv(dataset: QADataset, path: str) -> None:
    """Serialize to the canonical four-column layout (no header)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in dataset.questions:
            for c in q.candidates:
                fh.write(f"{q.question_id}\t{q.text}\t{c.text}\t{c.label}\n")
