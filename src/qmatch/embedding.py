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
    otherwise).  A pickle or deep copy is rebuilt from the tokens alone.
    """

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _texts: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_texts", {})

    def __reduce__(self):
        return type(self), (self.tokens,)

    @classmethod
    def from_tokens(cls, ordered_tokens: list[str]) -> "Vocabulary":
        return cls([PAD_TOKEN, UNK_TOKEN, *ordered_tokens])

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: list[str]) -> np.ndarray:
        unk = self._ids[UNK_TOKEN]
        return np.array([self._ids.get(w, unk) for w in words], dtype=np.int64)

    def encode_text(self, token_text: str) -> np.ndarray:
        """Read-only ids of a dataset text's ``token_text``, encoded the first
        time this vocabulary meets it.  The memo lives as long as the
        vocabulary, holds one array per distinct text and is not copied."""
        if token_text not in self._texts:
            self._texts[token_text] = self.encode(token_text.split())
            self._texts[token_text].flags.writeable = False
        return self._texts[token_text]


def phase_factor(phases: np.ndarray) -> np.ndarray:
    """exp(i * phases) as one complex array: cos into its real part, sin
    into its imaginary part.  A NaN phase gives NaN in both parts."""
    out = np.empty(np.shape(phases), dtype=np.complex128)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    return out


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


def init_phases(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """Phase table drawn uniformly from [-pi, pi), deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi, math.pi, size=(vocab_size, dim))


def _pad_row(dim: int) -> np.ndarray:
    return np.full(dim, DEGENERATE_WEIGHT / math.sqrt(dim), dtype=np.float64)


@contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text, less a leading byte-order mark.  A byte
    that does not decode raises a ParseError naming the first line that is
    not UTF-8; the reader decodes ahead in chunks, so the caller's line
    count cannot say which it is."""
    with open(path, encoding="utf-8-sig") as fh:
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
    pretrained: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Amplitude table seeded from pretrained vectors where available.

    Tokens found in ``pretrained`` (as ``read_glove_vectors`` returns it)
    copy their vector; everything else (including the unknown token, and
    every token when ``pretrained`` is None) draws i.i.d.
    uniform(-0.25, 0.25) coordinates.  The padding row is fixed at norm
    DEGENERATE_WEIGHT.  A vector that is not ``dim`` wide is a ShapeError.
    """
    rng = np.random.default_rng(seed)
    pretrained = pretrained or {}
    table = np.empty((len(vocab), dim), dtype=np.float64)
    table[0] = _pad_row(dim)
    drawn = []
    for i, token in enumerate(vocab.tokens[1:], start=1):
        if token not in pretrained:
            drawn.append(i)
        elif np.shape(pretrained[token]) == (dim,):
            table[i] = pretrained[token]
        else:   # a narrower vector would broadcast across the row
            raise ShapeError(f"pretrained vector for {token!r} is not {dim} wide")
    # one draw fills the rows in vocabulary order, as a draw per row would
    table[drawn] = rng.uniform(-0.25, 0.25, size=(len(drawn), dim))
    return table
