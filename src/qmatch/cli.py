"""Command-line entry points.

Subcommands: train, eval, grid-search, inspect-words, inspect-match,
inspect-measurements, metric-audit.  ``train`` and ``grid-search``
take hyperparameters from an optional JSON config file, and explicit
flags win over the file.  ``eval`` and the ``inspect-*`` commands run
with the config stored in their checkpoint and take no hyperparameter
flags.  Exit codes: 0 success, 2 configuration/parse/missing-path
problems, 3 data problems, 4 numeric or domain failures, 1 anything
unexpected.

``QMATCH_THREADS`` caps the BLAS thread pools; ``main`` applies it before
numpy is first imported, which is why the numeric modules are imported
lazily inside the command handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericError,
    ParseError,
    QmatchError,
    ShapeError,
)

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CHECKPOINT_NAME = "checkpoint.qmatch"
BEST_CHECKPOINT_NAME = "best_checkpoint.qmatch"
TRAIN_LOG_NAME = "train_log.jsonl"
DEV_REPORT_NAME = "dev_report.jsonl"
EVAL_REPORT_NAME = "eval_report.jsonl"
GRID_RESULTS_NAME = "grid_results.jsonl"
AUDIT_TABLE_NAME = "metric_audit.txt"
AUDIT_DETAILS_NAME = "metric_audit.json"


def _configure_threads() -> None:
    value = os.environ.get("QMATCH_THREADS")
    if value is None:
        return
    try:
        count = int(value) if value.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        count = 0
    if count < 1:
        raise ConfigError(f"QMATCH_THREADS must be a positive integer, got {value!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(count))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_natural(text: str, low: int = 0) -> int:
    if not text.isdecimal() or int(text) < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return int(text)


def _parse_positive_int(text: str) -> int:
    return _parse_natural(text, 1)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {exc}")


def _parse_dims(text: str) -> tuple[int, ...]:
    dims = _parse_int_list(text)
    if any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(f"expected dimensions >= 2, got {text!r}")
    return dims


# TrainerConfig fields exposed as flags: (flag type, help)
_CONFIG_FLAGS: dict[str, tuple] = {
    "embedding_dim": (int, "amplitude/phase embedding dimension"),
    "num_measurements": (int, "number of measurement vectors"),
    "window_sizes": (_parse_int_list, "comma-separated sliding-window widths"),
    "mixture": (str, "'local' (windows) or 'global' (whole sentence)"),
    "complex_valued": (_parse_bool, "false trains a real-only ablation"),
    "margin": (float, "triplet hinge margin"),
    "learning_rate": (float, "optimizer step size"),
    "l2_lambda": (float, "L2 decay on amplitude rows"),
    "batch_size": (int, "triplets per optimizer step"),
    "epochs": (int, "training epochs"),
    "dropout_rate": (float, "probability of dropping an entry, in [0, 1)"),
    "optimizer": (str, "'sgd' or 'adam'"),
    "max_sentence_len": (int, "sentences truncate to this many tokens"),
    "seed": (int, "run seed"),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for name, (ftype, help_text) in _CONFIG_FLAGS.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=ftype,
            default=None, help=help_text,
        )
    parser.add_argument(
        "--config", type=str, default=None,
        help="JSON file of hyperparameters (flags override it)",
    )


def _require_path(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such {what}: {p}")
    return p


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_json(path_str: str, what: str):
    """A file's JSON value; not UTF-8 or not JSON is a ParseError naming it."""
    from .embedding import _open_text

    path = _require_path(path_str, what)
    with _open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _build_config(args):
    from .model import TrainerConfig

    if args.config is not None:
        config = TrainerConfig.from_dict(_read_json(args.config, "config file"))
    else:
        config = TrainerConfig()
    return config.with_overrides(**{
        name: getattr(args, name)
        for name in _CONFIG_FLAGS
        if getattr(args, name) is not None
    })


def _load_dataset(path_str: str, format_spec: str, split: str, require=None):
    """The split at ``path_str``, checked by ``require`` (by default, that it
    keeps a question): a DataError here, before any command opens ``--out``."""
    from .data import load_tsv, resolve_format
    from .evaluation import require_questions

    path = _require_path(path_str, "dataset")
    fmt = resolve_format(format_spec)
    dataset, report = load_tsv(path, fmt, split=split)
    print(report.summary(), file=sys.stderr)
    (require or require_questions)(dataset)
    return dataset


def _load_checkpoint_for(args):
    from .checkpoint import load_checkpoint

    return load_checkpoint(_require_path(args.checkpoint, "checkpoint"))


def cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .embedding import read_glove_vectors
    from .training import require_triplets, train

    config = _build_config(args)
    train_set = _load_dataset(args.dataset, args.format, "train", require_triplets)
    dev_set = (
        _load_dataset(args.dev, args.format, split="dev") if args.dev else None
    )
    pretrained = (
        read_glove_vectors(args.glove, config.embedding_dim) if args.glove else None
    )
    out = _out_dir(args)
    log_path = out / TRAIN_LOG_NAME
    with open(log_path, "w", encoding="utf-8") as log_file:

        def log_fn(record: dict) -> None:
            log_file.write(json.dumps(record) + "\n")

        result = train(
            train_set, dev_set, config, pretrained=pretrained, log_fn=log_fn
        )
    ckpt_path = out / CHECKPOINT_NAME
    save_checkpoint(ckpt_path, result.params, config, result.vocab)
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")
    report = result.best_report
    if report is not None:
        report.write_jsonl(out / DEV_REPORT_NAME)
        print(
            f"best epoch {result.best_epoch}: "
            f"dev MAP {report.map:.4f}, dev MRR {report.mrr:.4f}"
        )
    return 0


def cmd_eval(args) -> int:
    from .evaluation import evaluate

    params, config, vocab = _load_checkpoint_for(args)
    dataset = _load_dataset(args.dataset, args.format, split=args.split)
    out = _out_dir(args)
    report = evaluate(params, dataset, config, vocab)
    report_path = out / EVAL_REPORT_NAME
    report.write_jsonl(report_path)
    print(report.format_table())
    print(f"report: {report_path}")
    return 0


def cmd_grid_search(args) -> int:
    from .checkpoint import save_checkpoint
    from .data import build_vocab
    from .embedding import read_glove_vectors
    from .training import DEFAULT_GRID_POOLS, enumerate_grid, require_triplets, train

    config = _build_config(args)
    if args.grid is not None:
        pools = _read_json(args.grid, "grid file")
        if not isinstance(pools, dict):
            raise ParseError(f"{args.grid}: expected an object of pools")
    else:
        pools = DEFAULT_GRID_POOLS
    # every combination is checked before any data is read or file opened
    configs = enumerate_grid(config, pools)
    widths = sorted({cfg.embedding_dim for cfg in configs})
    if args.glove and len(widths) > 1:
        raise ConfigError(f"--glove has one width; grid sweeps embedding_dim {widths}")
    train_set = _load_dataset(args.dataset, args.format, "train", require_triplets)
    dev_set = _load_dataset(args.dev, args.format, split="dev")
    vocab = build_vocab([train_set])
    pretrained = read_glove_vectors(args.glove, widths[0]) if args.glove else None
    out = _out_dir(args)
    rows_path = out / GRID_RESULTS_NAME
    best = None
    with open(rows_path, "w", encoding="utf-8") as rows_file:
        for run, cfg in enumerate(configs):
            result = train(train_set, dev_set, cfg, vocab=vocab, pretrained=pretrained)
            report = result.best_report
            rows_file.write(json.dumps({
                "kind": "grid", "run": run, "dev_map": report.map,
                "dev_mrr": report.mrr, "config": cfg.to_dict(),
            }) + "\n")
            # the first run of a tied dev MAP wins
            if best is None or report.map > best.best_dev_map:
                best = result
    ckpt_path = out / BEST_CHECKPOINT_NAME
    save_checkpoint(ckpt_path, best.params, best.config, best.vocab)
    print(f"grid rows: {rows_path}")
    print(f"best checkpoint: {ckpt_path}")
    print(f"best dev MAP {best.best_dev_map:.4f} "
          f"with {json.dumps(best.config.to_dict(), sort_keys=True)}")
    return 0


def _write_or_print(text: str, out_path: Path | None) -> None:
    if out_path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        print(f"report: {out_path}")


def cmd_inspect_words(args) -> int:
    from .interpret import word_importance

    params, _, vocab = _load_checkpoint_for(args)
    rows = word_importance(params, vocab, top_n=args.top_n)
    lines = ["rank\ttoken\tnorm"]
    lines += [f"{i + 1}\t{r.token}\t{r.norm:.6f}" for i, r in enumerate(rows)]
    _write_or_print("\n".join(lines) + "\n",
                    Path(args.out) if args.out else None)
    return 0


def cmd_inspect_match(args) -> int:
    from .interpret import match_weight_map

    params, config, vocab = _load_checkpoint_for(args)
    result = match_weight_map(params, config, vocab, args.question, args.answer)
    lines = [
        f"window_size\t{result.window_size}",
        f"similarity\t{result.similarity:.6f}",
        "side\tposition\ttoken\tweight",
    ]
    for side, win in (
        ("question", result.question_window),
        ("answer", result.answer_window),
    ):
        for offset, (token, weight) in enumerate(zip(win.tokens, win.weights)):
            lines.append(f"{side}\t{win.start + offset}\t{token}\t{weight:.6f}")
    _write_or_print("\n".join(lines) + "\n",
                    Path(args.out) if args.out else None)
    return 0


def cmd_inspect_measurements(args) -> int:
    from .interpret import measurement_neighbors

    params, _, vocab = _load_checkpoint_for(args)
    rows = measurement_neighbors(params, vocab, top_n=args.top_n)
    lines = ["measurement\trank\ttoken\tsimilarity"]
    for entry in rows:
        for rank, (token, sim) in enumerate(
            zip(entry.tokens, entry.similarities), start=1
        ):
            lines.append(f"{entry.measurement}\t{rank}\t{token}\t{sim:.6f}")
    _write_or_print("\n".join(lines) + "\n",
                    Path(args.out) if args.out else None)
    return 0


def cmd_metric_audit(args) -> int:
    from .density_metrics import (
        METRIC_FNS,
        audit_metrics,
        render_audit_table,
        report_to_dict,
    )

    names = (
        sorted(METRIC_FNS)
        if args.metrics is None
        else [n.strip() for n in args.metrics.split(",") if n.strip()]
    )
    if not names or not args.dims:
        raise ConfigError("--metrics and --dims must each name at least one entry")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"--metrics names {', '.join(repeated)} more than once")
    unknown = [n for n in names if n not in METRIC_FNS]
    if unknown:
        raise ConfigError(f"unknown metric {', '.join(unknown)}; "
                          f"choose from {', '.join(sorted(METRIC_FNS))}")
    out = _out_dir(args)
    reports = audit_metrics(names, trials=args.trials, dims=args.dims, seed=args.seed)
    table = render_audit_table(reports)
    (out / AUDIT_TABLE_NAME).write_text(table, encoding="utf-8")
    details = [report_to_dict(rep) for rep in reports]
    (out / AUDIT_DETAILS_NAME).write_text(
        json.dumps(details, indent=2), encoding="utf-8"
    )
    print(table, end="")
    print(f"table: {out / AUDIT_TABLE_NAME}")
    print(f"details: {out / AUDIT_DETAILS_NAME}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmatch",
        description="complex-valued semantic matching for question answering",
    )
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train a matcher and save a checkpoint")
    p_train.add_argument("--dataset", required=True, help="training TSV")
    p_train.add_argument("--dev", default=None, help="dev TSV for model selection")
    p_train.add_argument("--format", default="canonical",
                         help="format preset name or descriptor file")
    p_train.add_argument("--glove", default=None,
                         help="pretrained vector file for amplitude init")
    p_train.add_argument("--out", default=None, help="output directory")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a dataset with a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--format", default="canonical")
    p_eval.add_argument("--split", default="eval", help="split name for reports")
    p_eval.add_argument("--out", default=None, help="output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid-search", help="hyperparameter sweep on dev MAP")
    p_grid.add_argument("--dataset", required=True)
    p_grid.add_argument("--dev", required=True)
    p_grid.add_argument("--format", default="canonical")
    p_grid.add_argument("--glove", default=None)
    p_grid.add_argument("--grid", default=None,
                        help="JSON file of {field: [values]} pools")
    p_grid.add_argument("--out", default=None)
    _add_config_flags(p_grid)
    p_grid.set_defaults(func=cmd_grid_search)

    p_words = sub.add_parser("inspect-words",
                             help="rank words by learned amplitude norm")
    p_words.add_argument("--checkpoint", required=True)
    p_words.add_argument("--top-n", type=_parse_positive_int, default=50)
    p_words.add_argument("--out", default=None, help="output file (default stdout)")
    p_words.set_defaults(func=cmd_inspect_words)

    p_match = sub.add_parser("inspect-match",
                             help="best-matching window pair for a QA pair")
    p_match.add_argument("--checkpoint", required=True)
    p_match.add_argument("--question", required=True)
    p_match.add_argument("--answer", required=True)
    p_match.add_argument("--out", default=None, help="output file (default stdout)")
    p_match.set_defaults(func=cmd_inspect_match)

    p_meas = sub.add_parser("inspect-measurements",
                            help="nearest words to each measurement vector")
    p_meas.add_argument("--checkpoint", required=True)
    p_meas.add_argument("--top-n", type=_parse_positive_int, default=10)
    p_meas.add_argument("--out", default=None, help="output file (default stdout)")
    p_meas.set_defaults(func=cmd_inspect_measurements)

    p_audit = sub.add_parser("metric-audit",
                             help="empirical axiom audit of density-matrix metrics")
    p_audit.add_argument("--trials", type=_parse_positive_int, default=10_000)
    p_audit.add_argument("--dims", type=_parse_dims, default=(2, 3, 4),
                         help="comma-separated matrix dimensions (default 2,3,4)")
    p_audit.add_argument("--metrics", default=None,
                         help="comma-separated metric names (default: all)")
    p_audit.add_argument("--seed", type=_parse_natural, default=0)
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=cmd_metric_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_threads()
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return 2
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError) as exc:
        print(f"error: bad path: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NumericError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
