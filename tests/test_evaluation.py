"""Ranking metrics: closed-form oracles, tie handling, end-to-end reports."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmatch.data import CandidateAnswer, QADataset, QuestionGroup
from qmatch.embedding import Vocabulary
from qmatch.errors import DataError, NumericError
from qmatch.evaluation import (
    MetricReport,
    QuestionResult,
    average_precision,
    evaluate,
    rank_candidates,
    reciprocal_rank,
)
from qmatch.data import build_vocab
from qmatch.model import TrainerConfig, init_parameters
from synthetic import topic_corpus


# ---------------------------------------------------------------------------
# closed-form checks


@pytest.mark.parametrize(
    "labels, expected",
    [
        ([0, 1], 0.5),
        ([1, 0, 1], 5.0 / 6.0),  # (1/1 + 2/3) / 2
        ([1, 1], 1.0),
        ([0, 0, 1], 1.0 / 3.0),
        ([1, 0, 0, 1, 0], (1.0 + 0.5) / 2.0),
    ],
)
def test_average_precision_by_hand(labels, expected):
    assert average_precision(labels) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "labels, expected",
    [([1, 0], 1.0), ([0, 1], 0.5), ([0, 0, 0, 1], 0.25)],
)
def test_reciprocal_rank_by_hand(labels, expected):
    assert reciprocal_rank(labels) == expected


def test_metrics_require_a_positive():
    with pytest.raises(DataError):
        average_precision([0, 0, 0])
    with pytest.raises(DataError):
        reciprocal_rank([0])


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30).filter(
        lambda ls: any(ls)
    )
)
def test_metric_ranges(labels):
    ap = average_precision(labels)
    rr = reciprocal_rank(labels)
    assert 0.0 < ap <= 1.0
    assert 0.0 < rr <= 1.0
    assert rr >= 1.0 / len(labels)
    # ranking every positive first is the unique way to reach AP = 1
    assert (ap == 1.0) == (sorted(labels, reverse=True) == labels)


# ---------------------------------------------------------------------------
# ranking


def test_rank_candidates_orders_by_score_then_id():
    ranked = rank_candidates(
        scores=[0.5, 0.9, 0.5], answer_ids=[2, 0, 1], labels=[0, 1, 0]
    )
    assert [r.answer_id for r in ranked] == [0, 1, 2]
    assert [r.score for r in ranked] == [0.9, 0.5, 0.5]
    assert [r.label for r in ranked] == [1, 0, 0]


def test_rank_candidates_ties_signed_zeros_by_answer_id():
    # 0.0 == -0.0, so the sign of a zero score never orders two candidates
    for scores in ([0.0, -0.0], [-0.0, 0.0]):
        ranked = rank_candidates(scores, [7, 3], [0, 1])
        assert [r.answer_id for r in ranked] == [3, 7]


def test_rank_ties_are_stable_under_input_order():
    a = rank_candidates([0.3, 0.3, 0.3], [2, 0, 1], [0, 1, 0])
    b = rank_candidates([0.3, 0.3, 0.3], [0, 1, 2], [1, 0, 0])
    assert [r.answer_id for r in a] == [r.answer_id for r in b] == [0, 1, 2]


def test_random_scores_one_positive_of_two_averages_three_quarters():
    # AP is 1 when the positive wins and 1/2 when it loses, so a null
    # model that ranks by coin flip sits near 3/4
    rng = np.random.default_rng(0)
    aps = []
    for _ in range(4000):
        scores = rng.uniform(size=2).tolist()
        ranked = rank_candidates(scores, [0, 1], [1, 0])
        aps.append(average_precision([r.label for r in ranked]))
    assert np.mean(aps) == pytest.approx(0.75, abs=0.02)


# ---------------------------------------------------------------------------
# end-to-end evaluation


def oracle_dataset():
    """Positive answers repeat the question verbatim; negatives never overlap."""
    questions = []
    for i, words in enumerate(
        ("alpha beta gamma", "delta epsilon", "zeta eta theta iota")
    ):
        questions.append(
            QuestionGroup(
                question_id=f"q{i}",
                text=words,
                candidates=[
                    CandidateAnswer(0, "unrelated filler noise", 0),
                    CandidateAnswer(1, words, 1),
                    CandidateAnswer(2, "different nonsense words", 0),
                ],
            )
        )
    return QADataset(split="dev", questions=questions)


def small_setup(dataset):
    config = TrainerConfig(
        embedding_dim=6,
        num_measurements=4,
        window_sizes=(1, 2),
        dropout_rate=0.0,
        seed=5,
    )
    vocab = build_vocab([dataset])
    params = init_parameters(vocab, config)
    return params, config, vocab


def test_exact_copy_answers_rank_first():
    ds = oracle_dataset()
    params, config, vocab = small_setup(ds)
    report = evaluate(params, ds, config, vocab)
    assert report.map == 1.0
    assert report.mrr == 1.0
    assert [r.question_id for r in report.per_question] == ["q0", "q1", "q2"]


def test_evaluate_is_deterministic():
    ds = oracle_dataset()
    params, config, vocab = small_setup(ds)
    a = evaluate(params, ds, config, vocab)
    b = evaluate(params, ds, config, vocab)
    assert a == b


def test_a_second_evaluate_with_the_same_vocabulary_encodes_nothing(monkeypatch):
    ds = oracle_dataset()
    params, config, vocab = small_setup(ds)
    first = evaluate(params, ds, config, vocab)
    calls = []
    monkeypatch.setattr(Vocabulary, "encode", lambda self, words: calls.append(words))
    assert evaluate(params, ds, config, vocab) == first
    assert calls == []


def test_ranking_a_question_alone_matches_the_whole_split():
    topics, _ = topic_corpus(train_questions=12, dev_questions=2, seed=3)
    # topic questions share words, and their sentences run past 5 tokens
    for ds, max_len in ((oracle_dataset(), 40), (topics, 5)):
        params, config, vocab = small_setup(ds)
        config = config.with_overrides(max_sentence_len=max_len)
        whole = evaluate(params, ds, config, vocab)
        for question, row in zip(ds.questions, whole.per_question):
            one = QADataset(split="dev", questions=[question])
            assert evaluate(params, one, config, vocab).per_question == [row]


def test_evaluate_rejects_non_finite_representations():
    ds = oracle_dataset()
    params, config, vocab = small_setup(ds)
    # a NaN phase row makes every window holding "epsilon" NaN
    params.phase[vocab.encode(["epsilon"])[0]] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="'q1'"):
            evaluate(params, ds, config, vocab)


def test_evaluate_rejects_empty_split():
    ds = QADataset(split="dev", questions=[])
    params, config, vocab = small_setup(oracle_dataset())
    with pytest.raises(DataError, match="no questions"):
        evaluate(params, ds, config, vocab)


# ---------------------------------------------------------------------------
# report serialization


def sample_report():
    return MetricReport(
        split="test",
        map=0.8125,
        mrr=0.875,
        per_question=[
            QuestionResult("q0", 1.0, 1.0),
            QuestionResult("q1", 0.625, 0.75),
        ],
    )


def test_format_table_lists_summary_and_rows():
    text = sample_report().format_table()
    assert "MAP: 0.8125" in text
    assert "MRR: 0.8750" in text
    assert "q1\t0.625000\t0.750000" in text


def test_jsonl_round_trip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.jsonl"
    report.write_jsonl(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0] == {
        "kind": "summary", "split": "test", "map": 0.8125, "mrr": 0.875,
        "questions": 2,
    }
    assert records[1:] == [
        {"kind": "question", "question_id": "q0", "ap": 1.0, "rr": 1.0},
        {"kind": "question", "question_id": "q1", "ap": 0.625, "rr": 0.75},
    ]
