"""Dataset loading, filtering, vocabulary and triplet sampling."""

import logging
import os

import numpy as np
import pytest

from qmatch.data import (
    CANONICAL_FORMAT,
    FORMAT_PRESETS,
    CandidateAnswer,
    DatasetFormat,
    QADataset,
    QuestionGroup,
    build_vocab,
    load_tsv,
    read_format_descriptor,
    resolve_format,
    sample_triplets,
    write_canonical_tsv,
)
from qmatch.embedding import read_glove_vectors, tokenize
from qmatch.errors import DataError, ParseError

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def fixture(name):
    return os.path.join(DATA_DIR, name)


# ---------------------------------------------------------------------------
# format descriptors


def test_canonical_format_columns():
    assert CANONICAL_FORMAT == DatasetFormat(0, 1, 2, 3, has_header=False)
    assert CANONICAL_FORMAT.min_columns == 4


def test_wikiqa_preset_matches_published_layout():
    fmt = FORMAT_PRESETS["wikiqa"]
    assert fmt.question_id_col == 0
    assert fmt.question_col == 1
    assert fmt.answer_col == 5
    assert fmt.label_col == 6
    assert fmt.has_header
    assert fmt.min_columns == 7


def test_resolve_format_prefers_preset_names():
    assert resolve_format("trecqa") == FORMAT_PRESETS["trecqa"]
    assert resolve_format("canonical") is CANONICAL_FORMAT


def test_resolve_format_reads_descriptor_file():
    fmt = resolve_format(fixture("custom_layout.fmt"))
    assert fmt == DatasetFormat(
        question_id_col=1, question_col=2, answer_col=3, label_col=0, has_header=False
    )


@pytest.mark.parametrize(
    "content, message",
    [
        ("just words\n", "expected key = value"),
        ("question_col = abc\n", "bad integer"),
        ("answer_col = -1\n", "negative column '-1'"),
        ("colour = 3\n", "unknown key"),
        ("has_header = maybe\n", "bad boolean"),
    ],
)
def test_descriptor_errors_carry_line_numbers(tmp_path, content, message):
    path = tmp_path / "layout.fmt"
    path.write_text("# comment line\n" + content, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as excinfo:
        read_format_descriptor(str(path))
    assert ":2:" in str(excinfo.value)


def test_descriptor_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "layout.fmt"
    path.write_text(
        "\n# full comment\nhas_header = TRUE  # trailing comment\n", encoding="utf-8"
    )
    assert read_format_descriptor(str(path)).has_header


# ---------------------------------------------------------------------------
# loading and filtering


def test_load_canonical_tiny_counts_hand_checked():
    ds, report = load_tsv(fixture("canonical_tiny.tsv"), CANONICAL_FORMAT, split="dev")
    # eight data rows (blank line skipped): q1 x3, q2 x3, q3 x1, q4 x1
    assert report.rows_read == 8
    # q1's "!!! ..." answer and q4's "??? !!!" answer tokenize to nothing
    assert report.pairs_dropped_empty_text == 2
    # q3 has only a negative; q4 lost its only pair before forming a group
    assert report.questions_dropped_no_positive == 1
    assert report.questions_kept == 2
    assert report.pairs_kept == 5
    assert ds.split == "dev"
    assert ds.num_questions == 2
    assert ds.num_pairs == 5
    assert [q.question_id for q in ds.questions] == ["q1", "q2"]


def test_load_normalizes_whitespace_and_numbers_answers():
    ds, _ = load_tsv(fixture("canonical_tiny.tsv"), CANONICAL_FORMAT)
    q1, q2 = ds.questions
    assert q2.text == "Name a prime number"  # triple space collapsed
    assert [c.answer_id for c in q1.candidates] == [0, 1]
    assert [c.label for c in q1.candidates] == [1, 0]
    assert q1.candidates[0].text == "The sky is blue ."
    assert [c.label for c in q2.candidates] == [1, 0, 0]
    assert len(q1.positives()) == 1 and len(q1.negatives()) == 1
    assert len(q2.negatives()) == 2


def test_load_keeps_each_texts_tokens():
    ds, _ = load_tsv(fixture("canonical_tiny.tsv"), CANONICAL_FORMAT)
    for q in ds.questions:
        assert q.token_text.split() == tokenize(q.text)
        for c in q.candidates:
            assert c.token_text.split() == tokenize(c.text)


def test_already_tokenised_text_is_not_copied(tmp_path):
    path = tmp_path / "split.tsv"
    path.write_text("q1\twho wrote it\tshe wrote it\t1\n", encoding="utf-8")
    ds, _ = load_tsv(str(path), CANONICAL_FORMAT)
    (q,) = ds.questions
    assert q.token_text is q.text
    assert q.candidates[0].token_text is q.candidates[0].text
    assert q.candidates[0].token_text.split() == ["she", "wrote", "it"]


def test_constructed_groups_tokenize_their_text():
    group = QuestionGroup("q1", "Who, then?", [CandidateAnswer(0, "It was me.", 1)])
    assert group.token_text.split() == ["who", "then"]
    assert group.candidates[0].token_text.split() == ["it", "was", "me"]


def test_load_wikiqa_layout():
    ds, report = load_tsv(fixture("wikiqa_tiny.tsv"), FORMAT_PRESETS["wikiqa"])
    assert report.rows_read == 5  # header not counted
    assert report.questions_kept == 2
    assert report.pairs_kept == 5
    assert ds.questions[0].candidates[0].text.startswith("Glaciers form")


def test_load_custom_descriptor_layout():
    fmt = resolve_format(fixture("custom_layout.fmt"))
    ds, _ = load_tsv(fixture("custom_layout.tsv"), fmt)
    assert ds.num_questions == 1
    (group,) = ds.questions
    assert group.question_id == "q9"
    assert group.text == "Where is the tower"
    assert [c.label for c in group.candidates] == [1, 0]


def test_load_rejects_short_rows(tmp_path):
    path = tmp_path / "short.tsv"
    path.write_text("q1\tonly two columns\n", encoding="utf-8")
    with pytest.raises(ParseError, match="at least 4"):
        load_tsv(str(path), CANONICAL_FORMAT)


@pytest.mark.parametrize(
    "read, line",
    [
        (lambda path: load_tsv(path, CANONICAL_FORMAT), "q{0}\twhat is {1}\tit is {0}\t1\n"),
        (read_format_descriptor, "# comment {0} on {1}\n"),
        (lambda path: read_glove_vectors(path, 2), "{1}{0} 0.125 0.0625\n"),
    ],
    ids=["load_tsv", "read_format_descriptor", "read_glove_vectors"],
)
def test_readers_name_the_first_line_that_is_not_utf8(tmp_path, read, line):
    # 500 good lines fill more than the reader's first 8 KB decoding chunk,
    # so the reader's own line count would name an earlier line
    good = "".join(line.format(i, "tea") for i in range(500)).encode("utf-8")
    path = tmp_path / "latin1.txt"
    path.write_bytes(good + line.format(500, "caf\xe9").encode("latin-1") + good)
    with pytest.raises(ParseError, match="latin1.txt:501: not valid UTF-8"):
        read(str(path))


@pytest.mark.parametrize(
    "read",
    [lambda path: load_tsv(path, CANONICAL_FORMAT), read_format_descriptor,
     lambda path: read_glove_vectors(path, 2)],
    ids=["load_tsv", "read_format_descriptor", "read_glove_vectors"],
)
def test_readers_name_line_1_when_the_first_byte_is_not_utf8(tmp_path, read):
    # the reader looks for a byte-order mark by decoding the first chunk,
    # which must fail as any other undecodable line does
    path = tmp_path / "latin1.txt"
    path.write_bytes("\xe9 0.5 0.25\n".encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.txt:1: not valid UTF-8"):
        read(str(path))


@pytest.mark.parametrize(
    "read, text",
    [
        # as text, the mark would split q1 into a half with no negative
        # and a half with no positive, which the loader drops
        (lambda path: load_tsv(path, CANONICAL_FORMAT)[0].questions,
         "q1\twhat is tea\tit is tea\t1\nq1\twhat is tea\tit is rain\t0\n"),
        (read_format_descriptor, "label_col = 3\nanswer_col = 0\n"),
        (lambda path: {token: vector.tolist()
                       for token, vector in read_glove_vectors(path, 2).items()},
         "tea 0.5 0.25\n"),
    ],
    ids=["load_tsv", "read_format_descriptor", "read_glove_vectors"],
)
def test_readers_drop_a_leading_byte_order_mark(tmp_path, read, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(str(marked)) == read(str(plain))


def test_load_rejects_unknown_labels(tmp_path):
    path = tmp_path / "badlabel.tsv"
    path.write_text("q1\tSome question\tSome answer\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="unknown label"):
        load_tsv(str(path), CANONICAL_FORMAT)


def test_load_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_tsv(fixture("does_not_exist.tsv"), CANONICAL_FORMAT)


def test_report_summary_mentions_counts():
    _, report = load_tsv(fixture("canonical_tiny.tsv"), CANONICAL_FORMAT)
    text = report.summary()
    assert "2 questions" in text
    assert "5 pairs" in text


def test_write_canonical_round_trip(tmp_path):
    ds, _ = load_tsv(fixture("wikiqa_tiny.tsv"), FORMAT_PRESETS["wikiqa"])
    out = tmp_path / "round.tsv"
    write_canonical_tsv(ds, str(out))
    again, report = load_tsv(str(out), CANONICAL_FORMAT)
    assert again.questions == ds.questions
    assert report.pairs_dropped_empty_text == 0


# ---------------------------------------------------------------------------
# vocabulary construction


def test_build_vocab_orders_by_frequency_then_token():
    group = QuestionGroup(
        question_id="q",
        text="b a b",
        candidates=[
            CandidateAnswer(0, "a b", 1),
            CandidateAnswer(1, "c a", 0),
        ],
    )
    vocab = build_vocab([QADataset(split="train", questions=[group])])
    # counts: a=3, b=3, c=1 -> frequency tie between a and b broken by token
    assert vocab.tokens[2:] == ("a", "b", "c")
    np.testing.assert_array_equal(vocab.encode(["c", "a", "zzz"]), [4, 2, 1])


def test_build_vocab_merges_splits():
    one = QADataset(
        "train",
        [QuestionGroup("q1", "alpha", [CandidateAnswer(0, "beta", 1)])],
    )
    two = QADataset(
        "train",
        [QuestionGroup("q2", "beta", [CandidateAnswer(0, "gamma beta", 1)])],
    )
    vocab = build_vocab([one, two])
    assert vocab.tokens[2:] == ("beta", "alpha", "gamma")


# ---------------------------------------------------------------------------
# triplet sampling


def sampling_dataset():
    return QADataset(
        split="train",
        questions=[
            QuestionGroup(
                "qa",
                "first question",
                [
                    CandidateAnswer(0, "right answer", 1),
                    CandidateAnswer(1, "wrong one", 0),
                    CandidateAnswer(2, "wrong two", 0),
                    CandidateAnswer(3, "wrong three", 0),
                ],
            ),
            QuestionGroup(
                "qb",
                "second question",
                [
                    CandidateAnswer(0, "good one", 1),
                    CandidateAnswer(1, "good two", 1),
                    CandidateAnswer(2, "good three", 1),
                    CandidateAnswer(3, "bad one", 0),
                    CandidateAnswer(4, "bad two", 0),
                ],
            ),
            QuestionGroup(
                "qc",
                "third question",
                [CandidateAnswer(0, "only positive", 1)],
            ),
        ],
    )


def test_sample_triplets_pairs_every_positive_once():
    triplets = sample_triplets(sampling_dataset(), epoch_seed=7)
    # qa contributes 1, qb contributes 3, qc has no negatives to offer
    assert len(triplets) == 4
    assert triplets[0][0].token_text == "first question"
    assert triplets[0][1].token_text == "right answer"
    for t in triplets[1:]:
        assert t[0].token_text == "second question"
    assert {t[1].token_text for t in triplets[1:]} == {
        "good one",
        "good two",
        "good three",
    }


def test_sample_triplets_are_the_datasets_own_objects():
    ds = sampling_dataset()
    qa, qb, _ = ds.questions
    triplets = sample_triplets(ds, epoch_seed=7)
    assert triplets[0][0] is qa and triplets[0][1] is qa.candidates[0]
    for (q, p, _), positive in zip(triplets[1:], qb.positives(), strict=True):
        assert q is qb and p is positive
    assert all(any(n is c for c in q.negatives()) for q, _, n in triplets)


def test_sample_triplets_negatives_cycle_without_replacement():
    triplets = sample_triplets(sampling_dataset(), epoch_seed=3)
    negatives = [t[2].token_text for t in triplets
                 if t[0].token_text.split()[0] == "second"]
    # two distinct negatives for three positives: the shuffle cycles
    counts = sorted(negatives.count(c) for c in set(negatives))
    assert counts == [1, 2]


def test_sample_triplets_deterministic_per_seed():
    ds = sampling_dataset()
    assert sample_triplets(ds, epoch_seed=11) == sample_triplets(ds, epoch_seed=11)
    picks = {sample_triplets(ds, epoch_seed=s)[0][2].token_text for s in range(10)}
    assert len(picks) > 1  # the epoch seed really reshuffles negatives


def test_sample_triplets_warns_on_question_without_negatives(caplog):
    with caplog.at_level(logging.WARNING, logger="qmatch.data"):
        sample_triplets(sampling_dataset(), epoch_seed=0)
    assert any("qc" in rec.getMessage() for rec in caplog.records)
