"""Checkpoint round-trips, byte stability, and corruption handling."""

import dataclasses
import json

import numpy as np
import pytest

from qmatch import checkpoint
from qmatch.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from qmatch.embedding import Vocabulary
from qmatch.errors import ConfigError, NumericError, ParseError
from qmatch.model import TrainerConfig, init_parameters
from qmatch.training import enumerate_grid


def setup_state(seed=9):
    vocab = Vocabulary.from_tokens(["red", "green", "blue", "naïve"])
    config = TrainerConfig(
        embedding_dim=5, num_measurements=3, window_sizes=(1, 3), seed=seed
    )
    params = init_parameters(vocab, config)
    # make the complex parts non-trivial so both payload halves matter
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=params.measurements.shape) + 1j * rng.normal(
        size=params.measurements.shape
    )
    params.measurements = raw / np.linalg.norm(raw, axis=1)[:, None]
    params.phase[:] = rng.normal(size=params.phase.shape)
    return params, config, vocab


@pytest.fixture()
def saved(tmp_path):
    """``setup_state()`` saved as ``model.qmatch``."""
    path = tmp_path / "model.qmatch"
    save_checkpoint(path, *setup_state())
    return path


def test_round_trip_restores_everything(saved):
    params, config, vocab = setup_state()
    loaded_params, loaded_config, loaded_vocab = load_checkpoint(saved)
    np.testing.assert_array_equal(loaded_params.amplitude, params.amplitude)
    np.testing.assert_array_equal(loaded_params.phase, params.phase)
    np.testing.assert_array_equal(loaded_params.measurements, params.measurements)
    assert loaded_config == config
    assert loaded_vocab.tokens == vocab.tokens
    assert loaded_vocab.encode(vocab.tokens).tolist() == list(range(len(vocab)))


def test_saves_are_byte_identical(tmp_path):
    params, config, vocab = setup_state()
    first = tmp_path / "a.qmatch"
    second = tmp_path / "b.qmatch"
    save_checkpoint(first, params, config, vocab)
    save_checkpoint(second, params.copy(), config, vocab)
    assert first.read_bytes() == second.read_bytes()


def test_failed_save_leaves_existing_checkpoint_intact(tmp_path, saved, monkeypatch):
    params, config, vocab = setup_state()
    before = saved.read_bytes()

    def failing_blocks(p):
        yield p.amplitude
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "_blocks", failing_blocks)
    changed = params.copy()
    changed.amplitude += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(saved, changed, config, vocab)
    assert saved.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.qmatch"]


def test_header_is_readable_text(saved):
    _, config, vocab = setup_state()
    head = saved.read_bytes().split(b"\n\n", 1)[0].decode("utf-8")
    lines = head.splitlines()
    assert lines[0] == f"{MAGIC} v{FORMAT_VERSION}"
    assert f"vocab_size: {len(vocab)}" in lines
    assert "dim: 5" in lines
    assert "measurements: 3" in lines
    config_line = next(l for l in lines if l.startswith("config: "))
    assert json.loads(config_line[len("config: "):]) == config.to_dict()


def test_save_rejects_vocab_parameter_mismatch(tmp_path):
    params, config, _ = setup_state()
    other_vocab = Vocabulary.from_tokens(["just", "three", "words", "plus", "more"])
    with pytest.raises(ConfigError, match="tokens but parameters"):
        save_checkpoint(tmp_path / "x.qmatch", params, config, other_vocab)


def test_load_rejects_wrong_magic(tmp_path, saved):
    bad = tmp_path / "bad.qmatch"
    bad.write_bytes(b"x" + saved.read_bytes()[1:])
    with pytest.raises(ParseError, match="not a checkpoint"):
        load_checkpoint(bad)


def test_load_rejects_future_version(tmp_path, saved):
    bad = tmp_path / "future.qmatch"
    bad.write_bytes(saved.read_bytes().replace(b" v1\n", b" v9\n", 1))
    with pytest.raises(ParseError, match="unsupported checkpoint version"):
        load_checkpoint(bad)


def test_load_rejects_truncated_payload(tmp_path, saved):
    bad = tmp_path / "short.qmatch"
    bad.write_bytes(saved.read_bytes()[:-16])
    with pytest.raises(ParseError, match="payload"):
        load_checkpoint(bad)


def test_load_rejects_missing_terminator(tmp_path):
    bad = tmp_path / "head.qmatch"
    bad.write_bytes(f"{MAGIC} v{FORMAT_VERSION}\nvocab_size: 3\n".encode())
    with pytest.raises(ParseError, match="terminator"):
        load_checkpoint(bad)


def test_load_rejects_missing_fields(tmp_path):
    bad = tmp_path / "fields.qmatch"
    bad.write_bytes(f"{MAGIC} v{FORMAT_VERSION}\nvocab_size: 3\n\n[]\n".encode())
    with pytest.raises(ParseError, match="missing checkpoint field"):
        load_checkpoint(bad)


def test_load_rejects_a_non_integer_header_field(tmp_path, saved):
    bad = tmp_path / "field.qmatch"
    bad.write_bytes(saved.read_bytes().replace(b"\ndim: 5\n", b"\ndim: five\n", 1))
    with pytest.raises(ParseError, match="field.qmatch: bad checkpoint field"):
        load_checkpoint(bad)


def test_load_rejects_a_vocabulary_record_with_no_newline(tmp_path, saved):
    head, rest = saved.read_bytes().split(b"\n\n", 1)
    bad = tmp_path / "cut.qmatch"
    bad.write_bytes(head + b"\n\n" + rest.split(b"\n", 1)[0])
    with pytest.raises(ParseError, match="cut.qmatch: truncated vocabulary record"):
        load_checkpoint(bad)


def test_load_rejects_token_count_mismatch(tmp_path, saved):
    data = saved.read_bytes()
    head, rest = data.split(b"\n\n", 1)
    vocab_line, payload = rest.split(b"\n", 1)
    tokens = json.loads(vocab_line)
    shorter = json.dumps(tokens[:-1]).encode("utf-8")
    bad = tmp_path / "tokens.qmatch"
    bad.write_bytes(head + b"\n\n" + shorter + b"\n" + payload)
    with pytest.raises(ParseError, match="tokens"):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b'"red"', b'"red', "bad vocabulary record"),
        (b'"red"', b'"r\xffd"', "bad vocabulary record"),
        (b"\n\n[", b"\n\n7\n[", "vocabulary record is not a list of strings"),
        (b'"red"', b"7", "vocabulary record is not a list of strings"),
        (b"dim", b"d\xffm", "checkpoint header is not UTF-8"),
        (b'"<unk>"', b'"unk"', "vocabulary does not start with <pad>, <unk>"),
        (b'"<pad>", "<unk>"', b'"<unk>", "<pad>"',
         "vocabulary does not start with <pad>, <unk>"),
    ],
    ids=["not-json", "not-utf8", "not-a-list", "not-all-strings", "header-not-utf8",
         "no-unk", "pad-unk-swapped"],
)
def test_load_names_the_file_of_a_corrupt_vocabulary_or_header(
    tmp_path, saved, old, new, message
):
    bad = tmp_path / "bad.qmatch"
    bad.write_bytes(saved.read_bytes().replace(old, new, 1))
    with pytest.raises(ParseError, match=f"bad.qmatch: {message}"):
        load_checkpoint(bad)


def test_load_rejects_duplicate_tokens(tmp_path, saved):
    bad = tmp_path / "dup.qmatch"
    bad.write_bytes(saved.read_bytes().replace(b'"green"', b'"red"', 1))
    with pytest.raises(ParseError, match="duplicate vocabulary token 'red'"):
        load_checkpoint(bad)


def save_edited(path, edit):
    """Save ``setup_state()`` at ``path``, then write ``edit(params)``'s
    blocks over its payload: a file edited by hand, which save refuses to
    write."""
    params, config, vocab = setup_state()
    save_checkpoint(path, params, config, vocab)
    edit(params)
    payload = b"".join(np.ascontiguousarray(block, dtype="<f8").tobytes()
                       for block in checkpoint._blocks(params))
    path.write_bytes(path.read_bytes()[: -len(payload)] + payload)


@pytest.mark.parametrize("block", ["amplitude", "phase", "measurements"])
def test_load_rejects_non_finite_blocks(tmp_path, block):
    def poison(params):
        getattr(params, block)[2, 1] = np.nan

    path = tmp_path / "nan.qmatch"
    save_edited(path, poison)
    with pytest.raises(NumericError, match=f"parameter block '{block}'"):
        load_checkpoint(path)


def test_load_rejects_an_infinite_imaginary_entry_without_a_warning(tmp_path):
    # the suite turns RuntimeWarnings into errors: reading the blocks as
    # re + 1j * im would warn on inf * 0 before the finite check ran
    def poison(params):
        params.measurements.imag[2, 1] = np.inf

    path = tmp_path / "inf.qmatch"
    save_edited(path, poison)
    with pytest.raises(
        NumericError,
        match="inf.qmatch: non-finite values in parameter block 'measurements'",
    ):
        load_checkpoint(path)


def test_load_rejects_non_unit_measurement_rows(tmp_path):
    def stretch(params):
        params.measurements[1] *= 1.0 + 1e-4

    path = tmp_path / "norm.qmatch"
    save_edited(path, stretch)
    with pytest.raises(ParseError, match="norm.qmatch: measurement rows are not unit"):
        load_checkpoint(path)


def test_load_rejects_a_stored_config_whose_dimensions_disagree(tmp_path, saved):
    # the header's dimensions fit the payload, the stored config's do not
    bad = tmp_path / "dims.qmatch"
    edit_stored_config(saved, bad, embedding_dim=4)
    with pytest.raises(ParseError, match="dims.qmatch: parameter blocks of shapes"):
        load_checkpoint(bad)


def nan_amplitude(params):
    params.amplitude[2, 1] = np.nan


def double_a_measurement_row(params):
    params.measurements[1] *= 2.0


@pytest.mark.parametrize(
    "overrides, edit, error, message",
    [
        ({"embedding_dim": 4}, None, ConfigError, "disagree with the config"),
        ({"num_measurements": 2}, None, ConfigError, "disagree with the config"),
        ({}, nan_amplitude, NumericError, "parameter block 'amplitude'"),
        ({}, double_a_measurement_row, ConfigError, "rows are not unit norm"),
    ],
    ids=["embedding-dim", "measurement-count", "nan-amplitude", "rows-scaled-by-2"],
)
def test_save_refuses_what_load_would_reject(tmp_path, overrides, edit, error, message):
    params, config, vocab = setup_state()
    config = config.with_overrides(**overrides)
    if edit is not None:
        edit(params)
    path = tmp_path / "refused.qmatch"
    with pytest.raises(error, match=message):
        save_checkpoint(path, params, config, vocab)
    assert not path.exists()
    assert not (tmp_path / "refused.qmatch.tmp").exists()


def edit_stored_config(path, out, **changes):
    """Copy the checkpoint at ``path`` to ``out`` with its stored config
    changed as given."""
    head, rest = path.read_bytes().split(b"\n\n", 1)
    lines = head.decode("utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("config: "))
    stored = json.loads(lines[i][len("config: "):])
    stored.update(changes)
    lines[i] = "config: " + json.dumps(stored, sort_keys=True)
    out.write_bytes("\n".join(lines).encode("utf-8") + b"\n\n" + rest)


def test_load_names_the_file_of_an_out_of_range_config(tmp_path, saved):
    bad = tmp_path / "margin.qmatch"
    edit_stored_config(saved, bad, margin=-1.0)
    with pytest.raises(ParseError, match="margin.qmatch: bad stored config") as info:
        load_checkpoint(bad)
    assert "margin must be positive" in str(info.value)
    assert isinstance(info.value.__cause__, ConfigError)


BAD_TYPES = [
    {"window_sizes": 3},
    {"window_sizes": [1, 2.5]},
    {"epochs": "ten"},
    {"embedding_dim": 2.5},
    {"seed": True},
    {"learning_rate": None},
    {"margin": "0.1"},
    {"complex_valued": "false"},
    {"complex_valued": 0},
    {"dropout_rate": "0.9", "dropout_is_keep_prob": True},
]


@pytest.mark.parametrize("fields", BAD_TYPES, ids=lambda f: json.dumps(f))
def test_from_dict_rejects_a_field_of_the_wrong_type(fields):
    name = next(iter(fields))
    with pytest.raises(ConfigError, match=f"{name} must be "):
        TrainerConfig.from_dict(fields)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["margin", "learning_rate", "l2_lambda"])
def test_validate_rejects_a_non_finite_rate(name, value):
    # a NaN margin would otherwise train to exit 0 and log a NaN loss
    with pytest.raises(ConfigError, match=f"{name} must be .* finite"):
        TrainerConfig(**{name: value})


# every lower bound, with its message in full
BOUNDS = [
    ("embedding_dim", 0, "embedding_dim must be >= 1, got 0"),
    ("num_measurements", 0, "num_measurements must be >= 1, got 0"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("max_sentence_len", 0, "max_sentence_len must be >= 1, got 0"),
    ("epochs", -1, "epochs must be >= 0, got -1"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("margin", 0.0, "margin must be positive and finite, got 0.0"),
    ("learning_rate", -1.0, "learning_rate must be positive and finite, got -1.0"),
]


@pytest.mark.parametrize("name, value, message", BOUNDS, ids=[b[0] for b in BOUNDS])
def test_an_out_of_range_field_names_itself_and_its_value(name, value, message):
    with pytest.raises(ConfigError) as info:
        TrainerConfig(**{name: value})
    assert str(info.value) == message


def test_a_config_cannot_change_after_it_is_made():
    config = TrainerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.learning_rate = -1.0
    assert config == TrainerConfig()


def test_a_grid_config_with_a_list_of_windows_equals_its_tuple_config(tmp_path):
    params, config, vocab = setup_state()
    (grid,) = enumerate_grid(config, {"window_sizes": [[1, 2]]})
    tupled = config.with_overrides(window_sizes=(1, 2))
    assert grid.window_sizes == (1, 2)
    assert grid == tupled and hash(grid) == hash(tupled)
    path = tmp_path / "grid.qmatch"
    save_checkpoint(path, params, grid, vocab)
    assert load_checkpoint(path)[1] == grid


@pytest.mark.parametrize("data", [[1, 2], "local", None])
def test_from_dict_rejects_a_non_object(data):
    with pytest.raises(ConfigError, match="a config must be an object"):
        TrainerConfig.from_dict(data)


@pytest.mark.parametrize(
    "fields, message",
    [({"mixture": "mean"}, "unknown mixture kind 'mean'"),
     ({"window_sizes": ()}, "window_sizes must not be empty for local mixture"),
     ({"window_sizes": (2, 0)}, "window sizes must be >= 1, got (2, 0)"),
     ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'")],
    ids=["mixture", "no-windows", "window-below-1", "optimizer"],
)
def test_a_bad_choice_names_itself(fields, message):
    with pytest.raises(ConfigError) as info:
        TrainerConfig(**fields)
    assert str(info.value) == message


def test_the_global_mixture_reads_no_window_sizes():
    config = TrainerConfig(mixture="global", window_sizes=())
    assert config.representation_len == config.num_measurements


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['colour', 'size'\]"):
        TrainerConfig.from_dict({"margin": 0.2, "size": 1, "colour": "red"})


def test_from_dict_accepts_ints_for_float_fields():
    config = TrainerConfig.from_dict({"margin": 1, "window_sizes": [2, 1]})
    assert config.margin == 1 and config.window_sizes == (2, 1)


def test_load_names_the_file_of_a_mistyped_config(tmp_path, saved):
    bad = tmp_path / "typed.qmatch"
    edit_stored_config(saved, bad, complex_valued="false")
    with pytest.raises(ParseError, match="typed.qmatch: bad stored config") as info:
        load_checkpoint(bad)
    assert isinstance(info.value.__cause__, ConfigError)


@pytest.mark.parametrize("keep_prob", [False, True])
def test_load_reads_the_retired_keep_probability_switch(tmp_path, keep_prob):
    # checkpoints written before the switch was retired carry it in their
    # config; true meant dropout_rate was the keep probability
    params, config, vocab = setup_state()
    config = config.with_overrides(dropout_rate=0.3)
    path = tmp_path / "model.qmatch"
    save_checkpoint(path, params, config, vocab)
    old = tmp_path / "old.qmatch"
    edit_stored_config(path, old, dropout_is_keep_prob=keep_prob)
    loaded_params, loaded_config, _ = load_checkpoint(old)
    rate = 1.0 - 0.3 if keep_prob else 0.3
    assert loaded_config == config.with_overrides(dropout_rate=rate)
    np.testing.assert_array_equal(loaded_params.measurements, params.measurements)


def test_load_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_checkpoint("/nonexistent/never.qmatch")


def test_loaded_parameters_are_writable(saved):
    # frombuffer views are read-only; training must get its own memory
    loaded, _, _ = load_checkpoint(saved)
    loaded.amplitude[0, 0] = 42.0
    loaded.measurements[0, 0] = 0.5 + 0.5j
    assert loaded.amplitude[0, 0] == 42.0
