"""Question/answer dataset loading, vocabulary and triplet sampling.

Datasets arrive as UTF-8 tab-separated files whose column layout is
described by a small key=value format descriptor (never sniffed).  The
loader groups candidate answers under their question, drops pairs whose
text tokenizes to nothing, drops questions without any positive answer,
and reports what it kept and why it dropped the rest.  Every question and
answer keeps its tokens, so vocabulary building, triplet sampling and
evaluation never tokenize again.  Sampled triplets are the dataset's own
question and answer objects, not copies of their tokens.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .embedding import Vocabulary, _open_text, tokenize
from .errors import DataError, ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetFormat:
    """Column layout of a TSV file (0-based indices)."""

    question_id_col: int = 0
    question_col: int = 1
    answer_col: int = 2
    label_col: int = 3
    has_header: bool = False

    @property
    def min_columns(self) -> int:
        return 1 + max(
            self.question_id_col, self.question_col, self.answer_col, self.label_col
        )


CANONICAL_FORMAT = DatasetFormat(0, 1, 2, 3, has_header=False)

# Published layouts: WikiQA ships QuestionID/Question/DocumentID/DocumentTitle/
# SentenceID/Sentence/Label with a header; TREC QA splits are commonly
# distributed as qid/question/answer/label without one.
FORMAT_PRESETS = {
    "canonical": CANONICAL_FORMAT,
    "trecqa": DatasetFormat(0, 1, 2, 3, has_header=False),
    "wikiqa": DatasetFormat(0, 1, 5, 6, has_header=True),
}

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def read_format_descriptor(path: str) -> DatasetFormat:
    """Parse a key=value text file into a DatasetFormat.

    Recognised keys: question_id_col, question_col, answer_col, label_col
    (integers >= 0) and has_header (true/false).  '#' starts a comment.
    """
    values: dict[str, object] = {}
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "has_header":
                if value.lower() not in _BOOL_VALUES:
                    raise ParseError(f"{path}:{lineno}: bad boolean {value!r}")
                values[key] = _BOOL_VALUES[value.lower()]
            elif key in ("question_id_col", "question_col", "answer_col", "label_col"):
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad integer {value!r}") from None
                if values[key] < 0:
                    raise ParseError(f"{path}:{lineno}: negative column {value!r}")
            else:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
    return DatasetFormat(**values)  # type: ignore[arg-type]


def resolve_format(spec: str) -> DatasetFormat:
    """A preset name ('wikiqa', 'trecqa', 'canonical') or a descriptor path."""
    if spec in FORMAT_PRESETS:
        return FORMAT_PRESETS[spec]
    return read_format_descriptor(spec)


def join_tokens(text: str) -> str:
    """``text``'s tokens joined by single spaces: ``text`` itself when it is
    already in that form, so a tokenised corpus keeps no second copy."""
    joined = " ".join(tokenize(text))
    return text if joined == text else joined


class _Tokenized:
    """A text tokenised once: ``token_text`` holds its tokens joined by
    single spaces (tokens never hold whitespace)."""

    text: str
    token_text: str | None

    def __post_init__(self) -> None:
        if self.token_text is None:
            self.token_text = join_tokens(self.text)


@dataclass
class CandidateAnswer(_Tokenized):
    answer_id: int
    text: str
    label: int
    token_text: str | None = field(default=None, repr=False)


@dataclass
class QuestionGroup(_Tokenized):
    question_id: str
    text: str
    candidates: list[CandidateAnswer] = field(default_factory=list)
    token_text: str | None = field(default=None, repr=False)

    def positives(self) -> list[CandidateAnswer]:
        return [c for c in self.candidates if c.label == 1]

    def negatives(self) -> list[CandidateAnswer]:
        return [c for c in self.candidates if c.label == 0]


@dataclass
class QADataset:
    split: str
    questions: list[QuestionGroup]

    @property
    def num_questions(self) -> int:
        return len(self.questions)

    @property
    def num_pairs(self) -> int:
        return sum(len(q.candidates) for q in self.questions)


@dataclass
class LoadReport:
    path: str
    split: str
    rows_read: int = 0
    pairs_dropped_empty_text: int = 0
    questions_dropped_no_positive: int = 0
    questions_kept: int = 0
    pairs_kept: int = 0

    def summary(self) -> str:
        return (
            f"{self.split}: kept {self.questions_kept} questions / "
            f"{self.pairs_kept} pairs from {self.rows_read} rows "
            f"(dropped {self.pairs_dropped_empty_text} empty-text pairs, "
            f"{self.questions_dropped_no_positive} questions without positives)"
        )


def _normalize_text(text: str) -> str:
    return " ".join(text.split())


def load_tsv(
    path: str, fmt: DatasetFormat, split: str = "train"
) -> tuple[QADataset, LoadReport]:
    """Load and filter one split.

    Grouping follows first appearance order of each question id; answer
    ids number the kept candidates of a question from zero in file order.
    """
    report = LoadReport(path=path, split=split)
    groups: dict[str, QuestionGroup] = {}   # in first-appearance order
    question, q_joined = None, ""   # the last question text seen, its tokens
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if fmt.has_header and lineno == 1:
                continue
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            report.rows_read += 1
            cols = line.split("\t")
            if len(cols) < fmt.min_columns:
                raise ParseError(
                    f"{path}:{lineno}: expected at least {fmt.min_columns} "
                    f"tab-separated columns, found {len(cols)}"
                )
            qid = cols[fmt.question_id_col].strip()
            text = _normalize_text(cols[fmt.question_col])
            if text != question:
                question, q_joined = text, join_tokens(text)
            answer = _normalize_text(cols[fmt.answer_col])
            label_text = cols[fmt.label_col].strip()
            if label_text not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: unknown label value {label_text!r}")
            label = int(label_text)
            a_joined = join_tokens(answer)
            if not q_joined or not a_joined:
                report.pairs_dropped_empty_text += 1
                continue
            if qid not in groups:
                groups[qid] = QuestionGroup(qid, question, token_text=q_joined)
            candidates = groups[qid].candidates
            candidates.append(
                CandidateAnswer(len(candidates), answer, label, token_text=a_joined)
            )

    kept: list[QuestionGroup] = []
    for group in groups.values():
        if not group.positives():
            report.questions_dropped_no_positive += 1
            continue
        kept.append(group)

    report.questions_kept = len(kept)
    report.pairs_kept = sum(len(g.candidates) for g in kept)
    return QADataset(split=split, questions=kept), report


def build_vocab(datasets: list[QADataset]) -> Vocabulary:
    """Vocabulary over the given (training) splits.

    Tokens are ordered by descending frequency, ties broken
    lexicographically, after the reserved padding/unknown entries.
    Question text counts once per question, answers once per candidate.
    """
    counts: Counter[str] = Counter()
    for ds in datasets:
        for q in ds.questions:
            counts.update(q.token_text.split())
            for c in q.candidates:
                counts.update(c.token_text.split())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_tokens([t for t, _ in ordered])


def sample_triplets(
    dataset: QADataset, epoch_seed: int
) -> list[tuple[QuestionGroup, CandidateAnswer, CandidateAnswer]]:
    """One epoch's (question, positive, negative) triplets, the dataset's
    own objects: every positive paired with a fresh negative.

    Negatives are drawn without replacement (shuffled per question per
    epoch); if a question has more positives than negatives the shuffled
    list cycles.  Questions with no negative candidate are skipped with
    a warning.
    """
    rng = np.random.default_rng(epoch_seed)
    out = []
    for q in dataset.questions:
        positives = q.positives()
        negatives = q.negatives()
        if not negatives:
            log.warning(
                "question %s has no negative candidates; skipped for training",
                q.question_id,
            )
            continue
        perm = rng.permutation(len(negatives))
        for i, pos in enumerate(positives):
            out.append((q, pos, negatives[perm[i % len(negatives)]]))
    return out
