"""Words as complex superposition states.

Each vocabulary entry owns two real lookup rows: amplitudes r and phases
phi, combined as r * exp(i*phi) per coordinate.  The L2 norm of a row is
kept as a word-importance weight and the direction as a unit state.
Signed amplitudes are allowed (a sign flip is a phase shift by pi), which
lets pretrained real vectors seed the amplitude table directly.
"""

from __future__ import annotations

import math
import string
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParseError, ShapeError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Norm given to structurally-empty states (padding row, all-zero vectors).
DEGENERATE_WEIGHT = 1e-8
# Norms below this have no usable direction.
ZERO_NORM = 1e-300

_STRIP_CHARS = string.punctuation + string.whitespace


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenizer that strips surrounding punctuation.

    Interior punctuation (hyphens, apostrophes) is preserved; tokens that
    are nothing but punctuation disappear.  No stemming.
    """
    out = []
    for piece in text.lower().split():
        token = piece.strip(_STRIP_CHARS)
        if token:
            out.append(token)
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Token/index bijection with reserved padding and unknown entries.

    Index 0 is the padding token, index 1 the unknown token; real tokens
    start at index 2.  Encoding never fails: unseen tokens map to UNK.
    The tokens are stored as a tuple and the index is derived from them;
    they must start with PAD, UNK and hold no token twice (ValueError
    otherwise).  ``index`` is a read-only view of a plain dict, which
    pickles and copies with the vocabulary.
    """

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        if tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
            raise ValueError(
                f"vocabulary does not start with {PAD_TOKEN}, {UNK_TOKEN}"
            )
        index = {t: i for i, t in enumerate(tokens)}
        if len(index) != len(tokens):
            dup = next(t for i, t in enumerate(tokens) if index[t] != i)
            raise ValueError(f"duplicate vocabulary token {dup!r}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "_ids", index)

    @property
    def index(self) -> MappingProxyType:
        return MappingProxyType(self._ids)

    @classmethod
    def from_tokens(cls, ordered_tokens: list[str]) -> "Vocabulary":
        return cls([PAD_TOKEN, UNK_TOKEN, *ordered_tokens])

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def encode(self, words: list[str]) -> np.ndarray:
        unk = self._ids[UNK_TOKEN]
        return np.array([self._ids.get(w, unk) for w in words], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


@dataclass
class WordState:
    """Unit-norm complex state plus the norm it was stripped of."""

    state: np.ndarray
    weight: float


def assemble_word_vector(amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Combine one amplitude row and one phase row into a complex vector."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if amplitudes.shape != phases.shape or amplitudes.ndim != 1:
        raise ShapeError(
            f"amplitude/phase rows must be matching vectors, "
            f"got {amplitudes.shape} and {phases.shape}"
        )
    return amplitudes * np.exp(1j * phases)


def uniform_state(dim: int) -> np.ndarray:
    """Zero-phase state with equal mass on every coordinate."""
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row; rows below 1e-150 are scaled by 2**600 first
    (exact), since the squares of their entries would go subnormal."""
    norms = np.linalg.norm(x, axis=1)
    tiny = norms < 1e-150
    if tiny.any():
        norms[tiny] = np.linalg.norm(x[tiny] * 2.0**600, axis=1) * 2.0**-600
    return norms


def normalize_word(vector: np.ndarray) -> WordState:
    """Split a raw word vector into a unit state and its norm.

    A numerically zero vector (padding, or fully dropped out) has no
    direction; it becomes the uniform state with weight DEGENERATE_WEIGHT
    so downstream softmax weighting treats it as negligible.
    """
    vector = np.asarray(vector, dtype=np.complex128)
    if vector.ndim != 1 or vector.size == 0:
        raise ShapeError(f"expected a non-empty vector, got shape {vector.shape}")
    weight = float(row_norms(vector[None, :])[0])
    if weight < ZERO_NORM:
        return WordState(state=uniform_state(vector.size), weight=DEGENERATE_WEIGHT)
    return WordState(state=vector / weight, weight=weight)


def init_phases(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """Phase table drawn uniformly from [-pi, pi), deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi, math.pi, size=(vocab_size, dim))


def _pad_row(dim: int) -> np.ndarray:
    return np.full(dim, DEGENERATE_WEIGHT / math.sqrt(dim), dtype=np.float64)


@contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text.  A byte that does not decode raises a
    ParseError naming the first line that is not UTF-8; the reader decodes
    ahead in chunks, so the caller's line count cannot say which it is."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                # bytes.splitlines breaks where text mode's universal newlines do
                lines = raw.read().splitlines()
            for lineno, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"{path}:{lineno}: not valid UTF-8 ({exc.reason} at "
                        f"byte {exc.start} of the line)"
                    ) from None
            raise


def read_glove_vectors(path: str, dim: int) -> dict[str, np.ndarray]:
    """Parse a whitespace-separated embedding text file.

    Each line holds a token followed by ``dim`` finite floats.  Malformed
    lines, and lines that are not UTF-8, raise ParseError naming the file
    and 1-based line number.
    """
    vectors: dict[str, np.ndarray] = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} values for "
                    f"{token!r}, found {len(values)}"
                )
            try:
                vector = np.array([float(x) for x in values], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            if not np.isfinite(vector).all():
                raise ParseError(f"{path}:{lineno}: non-finite value for {token!r}")
            vectors[token] = vector
    return vectors


def init_amplitudes_from_glove(
    vocab: Vocabulary,
    dim: int,
    seed: int,
    glove_path: str | None = None,
) -> np.ndarray:
    """Amplitude table seeded from pretrained vectors where available.

    Tokens found in the embedding file copy their vector; everything else
    (including the unknown token, and every token when ``glove_path`` is
    None) draws i.i.d. uniform(-0.25, 0.25) coordinates.  The padding row
    is fixed at norm DEGENERATE_WEIGHT.
    """
    rng = np.random.default_rng(seed)
    pretrained = read_glove_vectors(glove_path, dim) if glove_path else {}
    table = np.empty((len(vocab), dim), dtype=np.float64)
    table[0] = _pad_row(dim)
    drawn = []
    for i, token in enumerate(vocab.tokens[1:], start=1):
        if token in pretrained:
            table[i] = pretrained[token]
        else:
            drawn.append(i)
    # one draw fills the rows in vocabulary order, as a draw per row would
    table[drawn] = rng.uniform(-0.25, 0.25, size=(len(drawn), dim))
    return table
