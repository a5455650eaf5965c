"""Ranking metrics (MAP / MRR) over candidate-answer lists.

Candidates are ranked by descending model score (the cosine of the
question's and the candidate's representations, ``matcher.cosines``) with
ties broken by ascending answer id, which makes every evaluation
deterministic.  A split's representations come from one
``matcher.represent_groups`` call, one group per question and its
candidates; only the matcher knows how it splits that work between its
word and window stages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import QADataset
from .embedding import Vocabulary
from .errors import DataError, NumericError
from .matcher import cosines, represent_groups
from .model import ParameterSet, TrainerConfig


def average_precision(labels: list[int]) -> float:
    """Mean of precision-at-i over the positions i holding positives."""
    if not any(labels):
        raise DataError("average precision needs at least one positive label")
    hits = 0
    precisions = []
    for i, label in enumerate(labels, start=1):
        if label == 1:
            hits += 1
            precisions.append(hits / i)
    return float(np.mean(precisions))


def reciprocal_rank(labels: list[int]) -> float:
    """1 / rank of the first positive."""
    for i, label in enumerate(labels, start=1):
        if label == 1:
            return 1.0 / i
    raise DataError("reciprocal rank needs at least one positive label")


@dataclass
class RankedCandidate:
    answer_id: int
    score: float
    label: int


def rank_candidates(
    scores: list[float], answer_ids: list[int], labels: list[int]
) -> list[RankedCandidate]:
    """Sort by score descending, answer id ascending on score ties."""
    rows = [
        RankedCandidate(answer_id=a, score=s, label=l)
        for s, a, l in zip(scores, answer_ids, labels)
    ]
    rows.sort(key=lambda r: (-r.score, r.answer_id))
    return rows


@dataclass
class QuestionResult:
    question_id: str
    average_precision: float
    reciprocal_rank: float


@dataclass
class MetricReport:
    split: str
    map: float
    mrr: float
    per_question: list[QuestionResult]

    def format_table(self) -> str:
        lines = [
            f"split: {self.split}",
            f"questions: {len(self.per_question)}",
            f"MAP: {self.map:.4f}",
            f"MRR: {self.mrr:.4f}",
            "",
            "question_id\tAP\tRR",
        ]
        for row in self.per_question:
            lines.append(
                f"{row.question_id}\t{row.average_precision:.6f}"
                f"\t{row.reciprocal_rank:.6f}"
            )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        rows = [{"kind": "summary", "split": self.split, "map": self.map,
                 "mrr": self.mrr, "questions": len(self.per_question)}]
        rows += [{"kind": "question", "question_id": row.question_id,
                  "ap": row.average_precision, "rr": row.reciprocal_rank}
                 for row in self.per_question]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)


def require_questions(dataset: QADataset, purpose: str = "evaluate") -> None:
    """DataError unless ``dataset`` holds a question (to rank, or to
    ``purpose``); the message names the split."""
    if not dataset.questions:
        raise DataError(f"split {dataset.split!r} has no questions to {purpose}")


def evaluate(
    params: ParameterSet,
    dataset: QADataset,
    config: TrainerConfig,
    vocab: Vocabulary,
) -> MetricReport:
    """Deterministic MAP/MRR of the model over one split (eval mode).

    Texts become ids through ``vocab.encode_text``, once per vocabulary;
    ``represent_groups`` represents every question with its candidates in
    one call, and one ``cosines`` call per question gives each candidate
    the bits ``matcher.score`` gives it.  A sentence's bits do not depend
    on the other sentences of the split, so ranking a question alone
    computes what the whole-split pass computes.  Raises NumericError
    naming the question if a representation or score is not finite.
    """
    require_questions(dataset)
    encoded = [[vocab.encode_text(t.token_text) for t in (q, *q.candidates)]
               for q in dataset.questions]
    results = []
    for q, reps in zip(dataset.questions, represent_groups(encoded, params, config)):
        scores = cosines(reps[0], reps[1:])[0][:, 0]
        if not (np.isfinite(reps).all() and np.isfinite(scores).all()):
            raise NumericError(
                f"non-finite representation or score for question {q.question_id!r}"
            )
        ranked = rank_candidates(
            scores.tolist(),
            [c.answer_id for c in q.candidates],
            [c.label for c in q.candidates],
        )
        labels = [r.label for r in ranked]
        results.append(
            QuestionResult(
                question_id=q.question_id,
                average_precision=average_precision(labels),
                reciprocal_rank=reciprocal_rank(labels),
            )
        )
    return MetricReport(
        split=dataset.split,
        map=float(np.mean([r.average_precision for r in results])),
        mrr=float(np.mean([r.reciprocal_rank for r in results])),
        per_question=results,
    )
