"""Deterministic on-disk checkpoints.

Layout: a UTF-8 text header (one ``key: value`` per line, terminated by a
blank line), then the vocabulary as one JSON line, then the raw parameter
blocks as little-endian float64 in C order:

    amplitude (V, n) | phase (V, n) | measurements real (k, n) | imag (k, n)

Writing the same parameters twice produces byte-identical files — there
are no timestamps or compression headers.  Saves go through a renamed
temporary file, so a failed save never leaves a half-written checkpoint,
and ``_check_loadable`` is the one rule of what a checkpoint may hold:
save refuses what load would reject.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .embedding import Vocabulary, row_norms
from .errors import ConfigError, ParseError
from .model import UNIT_NORM_ATOL, ParameterSet, TrainerConfig

MAGIC = "qmatch-checkpoint"
FORMAT_VERSION = 1


def _blocks(params: ParameterSet) -> list[np.ndarray]:
    return [
        params.amplitude,
        params.phase,
        params.measurements.real,
        params.measurements.imag,
    ]


def _check_loadable(params: ParameterSet, config: TrainerConfig, vocab_size: int):
    """Raise ConfigError (NumericError for a non-finite block) unless the
    parameters hold one row per vocabulary token, blocks of the config's
    shapes, finite values and unit measurement rows."""
    if params.vocab_size != vocab_size:
        raise ConfigError(
            f"vocabulary has {vocab_size} tokens but parameters cover "
            f"{params.vocab_size}"
        )
    n, k = config.embedding_dim, config.num_measurements
    shapes = [params.amplitude.shape, params.phase.shape, params.measurements.shape]
    if shapes != (want := [(vocab_size, n), (vocab_size, n), (k, n)]):
        raise ConfigError(f"parameter blocks of shapes {shapes} disagree with the "
                          f"config's {want} (embedding_dim {n}, num_measurements {k})")
    params.check_finite()
    if np.any(np.abs(row_norms(params.measurements) - 1.0) > UNIT_NORM_ATOL):
        raise ConfigError("measurement rows are not unit norm")


def save_checkpoint(
    path: str | Path,
    params: ParameterSet,
    config: TrainerConfig,
    vocab: Vocabulary,
) -> None:
    _check_loadable(params, config, len(vocab))
    vocab_line = json.dumps(list(vocab.tokens), ensure_ascii=False)
    header = (
        f"{MAGIC} v{FORMAT_VERSION}\n"
        f"vocab_size: {params.vocab_size}\n"
        f"dim: {params.dim}\n"
        f"measurements: {params.k}\n"
        f"config: {json.dumps(config.to_dict(), sort_keys=True)}\n"
        "\n"
    )
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("utf-8"))
            fh.write(vocab_line.encode("utf-8"))
            fh.write(b"\n")
            for block in _blocks(params):
                fh.write(np.ascontiguousarray(block, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(
    path: str | Path,
) -> tuple[ParameterSet, TrainerConfig, Vocabulary]:
    path = Path(path)
    raw = path.read_bytes()
    # slice by offsets, so the parameter payload is never copied out of raw
    head_end = raw.find(b"\n\n")
    if head_end < 0:
        raise ParseError(f"{path}: missing checkpoint header terminator")
    head = raw[:head_end]
    try:
        lines = head.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: checkpoint header is not UTF-8 ({exc})") from exc
    if not lines or not lines[0].startswith(MAGIC):
        raise ParseError(f"{path}: not a checkpoint file")
    version = lines[0][len(MAGIC):].strip()
    if version != f"v{FORMAT_VERSION}":
        raise ParseError(
            f"{path}: unsupported checkpoint version {version!r}"
        )
    fields: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    try:
        vocab_size = int(fields["vocab_size"])
        dim = int(fields["dim"])
        k = int(fields["measurements"])
        config = TrainerConfig.from_dict(json.loads(fields["config"]))
    except KeyError as exc:
        raise ParseError(f"{path}: missing checkpoint field {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: bad checkpoint field ({exc})") from exc
    except ConfigError as exc:
        raise ParseError(f"{path}: bad stored config ({exc})") from exc

    vocab_end = raw.find(b"\n", head_end + 2)
    if vocab_end < 0:
        raise ParseError(f"{path}: truncated vocabulary record")
    vocab_line = raw[head_end + 2 : vocab_end]
    payload = memoryview(raw)[vocab_end + 1 :]
    try:
        tokens = json.loads(vocab_line.decode("utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ParseError(f"{path}: bad vocabulary record ({exc})") from exc
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(f"{path}: vocabulary record is not a list of strings")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    shapes = [(vocab_size, dim), (vocab_size, dim), (k, dim), (k, dim)]
    expected = sum(r * c for r, c in shapes) * 8
    if len(payload) != expected:
        raise ParseError(
            f"{path}: parameter payload is {len(payload)} bytes, "
            f"expected {expected}"
        )
    blocks = []
    offset = 0
    for shape in shapes:
        count = shape[0] * shape[1]
        blocks.append(
            np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset += count * 8
    amplitude, phase, meas_re, meas_im = blocks
    params = ParameterSet(
        amplitude=amplitude, phase=phase, measurements=meas_re + 1j * meas_im
    )
    try:
        _check_loadable(params, config, len(vocab))
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return params, config, vocab
