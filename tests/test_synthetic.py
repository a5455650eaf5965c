"""Synthetic corpora: determinism, structure, and the order-only property."""

import numpy as np
import pytest

from qmatch.data import build_vocab
from qmatch.embedding import tokenize
from qmatch.matcher import represent
from qmatch.model import TrainerConfig, init_parameters
from synthetic import order_corpus, topic_corpus, toy_corpus


# ---------------------------------------------------------------------------
# toy corpus


def test_toy_corpus_is_keyed_and_separable():
    ds = toy_corpus(num_questions=5)
    assert ds.num_questions == 5
    assert ds.num_pairs == 10
    for i, q in enumerate(ds.questions):
        assert q.text == f"ask key{i}"
        (positive,) = q.positives()
        assert f"key{i}" in positive.text
        (negative,) = q.negatives()
        assert f"key{i}" not in negative.text


def test_toy_corpus_is_deterministic():
    assert toy_corpus(3) == toy_corpus(3)


# ---------------------------------------------------------------------------
# topic corpus


def test_topic_corpus_shapes_and_split_sizes():
    train, dev = topic_corpus(
        num_topics=3,
        train_questions=9,
        dev_questions=6,
        negatives=2,
        seed=5,
    )
    assert train.num_questions == 9
    assert dev.num_questions == 6
    for q in train.questions + dev.questions:
        assert len(q.positives()) == 1
        assert len(q.negatives()) == 2


def test_topic_corpus_positive_shares_topic_words():
    train, _ = topic_corpus(seed=11)

    def topics_of(text):
        return {t.split("w")[0] for t in tokenize(text) if t.startswith("t")}

    aligned = 0
    for q in train.questions:
        q_topics = topics_of(q.text)
        pos_topics = topics_of(q.positives()[0].text)
        if q_topics & pos_topics:
            aligned += 1
        for neg in q.negatives():
            # negatives draw their content words from other topics
            assert not (q_topics & topics_of(neg.text))
    assert aligned == len(train.questions)


def test_topic_corpus_candidate_order_is_shuffled():
    train, _ = topic_corpus(seed=11)
    first_labels = [q.candidates[0].label for q in train.questions]
    # if the positive always came first the shuffle would be broken
    assert 0 in first_labels and 1 in first_labels


def test_topic_corpus_is_deterministic_per_seed():
    a = topic_corpus(seed=7)
    b = topic_corpus(seed=7)
    assert a == b
    c = topic_corpus(seed=8)
    assert c != a


# ---------------------------------------------------------------------------
# order corpus


def test_order_corpus_positive_and_negative_share_a_multiset():
    train, dev = order_corpus()
    for q in train.questions + dev.questions:
        (pos,) = q.positives()
        (neg,) = q.negatives()
        assert sorted(tokenize(pos.text)) == sorted(tokenize(neg.text))
        assert tokenize(pos.text) != tokenize(neg.text)
        a, b = tokenize(q.text)
        pos_tokens = tokenize(pos.text)
        i = pos_tokens.index(a)
        assert pos_tokens[i + 1] == b  # the key pair sits adjacent


def test_order_corpus_defeats_order_blind_representations():
    """A whole-sentence mixture provably scores both candidates the same."""
    train, _ = order_corpus(num_pairs=4, train_questions=8, dev_questions=4)
    vocab = build_vocab([train])
    config = TrainerConfig(
        embedding_dim=6,
        num_measurements=5,
        mixture="global",
        dropout_rate=0.0,
        seed=1,
    )
    params = init_parameters(vocab, config)
    for q in train.questions:
        (pos,) = q.positives()
        (neg,) = q.negatives()
        rep_pos = represent(vocab.encode(tokenize(pos.text)), params, config)
        rep_neg = represent(vocab.encode(tokenize(neg.text)), params, config)
        np.testing.assert_allclose(rep_pos, rep_neg, atol=1e-12)


def test_order_corpus_windows_can_tell_the_candidates_apart():
    train, _ = order_corpus(num_pairs=4, train_questions=8, dev_questions=4)
    vocab = build_vocab([train])
    config = TrainerConfig(
        embedding_dim=6,
        num_measurements=5,
        window_sizes=(2,),
        mixture="local",
        dropout_rate=0.0,
        seed=1,
    )
    params = init_parameters(vocab, config)
    distinct = 0
    for q in train.questions:
        (pos,) = q.positives()
        (neg,) = q.negatives()
        rep_pos = represent(vocab.encode(tokenize(pos.text)), params, config)
        rep_neg = represent(vocab.encode(tokenize(neg.text)), params, config)
        if not np.allclose(rep_pos, rep_neg, atol=1e-12):
            distinct += 1
    assert distinct == len(train.questions)
