"""Command line front end.

Subcommands mirror the pipeline stages: encode, screen, train, eval,
predict, synth, and pipeline (which chains encode -> screen -> train ->
eval and writes a manifest).  Settings resolve with flag > config file >
default precedence; every artifact is deterministic for fixed inputs,
flags, and seed.

Exit codes: 0 success, 2 configuration or usage error, 3 data or schema
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import cart, evaluation, screening, synth
from .dataset import (
    DEFAULT_MISSING_TOKENS,
    Dataset,
    OutlierRule,
    class_distribution,
    clean,
    csv_text,
    json_number,
    load_codebook,
    load_csv,
    open_output,
    read_back,
    read_errors,
    read_header,
    schema_from_header,
    write_csv,
)
from .errors import ConfigError, DataError, SolvencyError, SolvencyWarning

ENCODED_CSV = "encoded.csv"
CLEANING_LOG = "cleaning.log"
WALD_CSV = "wald.csv"
CORRELATION_CSV = "correlation.csv"
SCREENING_JSON = "screening.json"
MODEL_JSON = "model.json"
TREE_DOT = "tree.dot"
TREE_TXT = "tree.txt"
EVAL_JSON = "eval.json"
EVAL_TXT = "eval.txt"
ROC_TSV = "roc.tsv"
PREDICTIONS_CSV = "predictions.csv"
SYNTHETIC_CSV = "synthetic.csv"
MANIFEST_JSON = "manifest.json"


@dataclass
class PipelineConfig:
    """Effective settings for every stage; see README for the fields."""

    input: str | None = None
    codebook: str | None = None
    skip_codebook: bool = False
    target: str = "TARGET"
    out: str = "."
    seed: int = 0
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    outlier_method: str = "iqr"
    iqr_multiplier: float = 1.5
    z_threshold: float = 3.0
    alpha: float = 0.05
    r_threshold: float = 0.8
    max_iter: int = 50
    tol: float = 1e-8
    per_variable: bool = False
    variables: tuple[str, ...] | None = None
    screening: str | None = None
    min_node_size: int = 5
    max_depth: int = 10
    min_gini_decrease: float = 0.0
    allow_large_min_node: bool = False
    holdout: float | None = None
    model: str | None = None
    roc_scores: str = "proportion"
    synth: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie inside (0, 1)")
        if not 0.0 < self.r_threshold <= 1.0:
            raise ConfigError("r-threshold must lie inside (0, 1]")
        if self.max_iter < 1:
            raise ConfigError("max-iter must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.holdout is not None and not 0.0 < self.holdout < 1.0:
            raise ConfigError("holdout fraction must lie inside (0, 1)")
        if self.roc_scores not in ("proportion", "hard"):
            raise ConfigError("roc-scores must be 'proportion' or 'hard'")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name.replace('_', '-')} must be a "
                                  f"finite number, not {value!r}")
        # raise now what train and encode would raise after earlier
        # stages had written their artifacts
        self.cart_config()
        self.outlier_rule()

    def cart_config(self) -> cart.CartConfig:
        return cart.CartConfig(
            min_node_size=self.min_node_size,
            max_depth=self.max_depth,
            min_gini_decrease=self.min_gini_decrease,
            allow_large_min_node=self.allow_large_min_node,
        )

    def outlier_rule(self) -> OutlierRule:
        return OutlierRule(self.outlier_method, self.iqr_multiplier,
                           self.z_threshold)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def to_doc(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            doc[f.name.replace("_", "-")] = value
        return doc


def _read_json(path: str, what: str):
    """The JSON value the what file at path holds; ConfigError naming
    the file if it cannot be read, is not UTF-8 JSON, or nests too
    deeply to read."""
    with read_errors(path, what), open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            # JSONDecodeError, a byte that is not UTF-8, or an integer
            # past Python's int-string limit
            raise ConfigError(
                f"{what} file {path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{what} file {path} nests too deeply") from None


def load_config_file(path: str) -> dict:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


#: The JSON values a config file may give a field of each annotated
#: type, and how to name them.
CONFIG_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "dict": (dict, "an object"),
    "tuple[str, ...]": (list, "a list of strings"),
}


def _config_value(key: str, value, annotation: str):
    """A config file's value for a field of the given annotated type, as
    the field holds it; ConfigError naming the key if it has the wrong
    JSON type."""
    kind, _, other = annotation.partition(" | ")
    if value is None and other == "None":
        return None
    types, words = CONFIG_TYPES[kind]
    fits = isinstance(value, types) and (kind == "bool"
                                         or not isinstance(value, bool))
    if fits and kind == "float" and isinstance(value, int):
        fits = json_number(value)
    if fits and kind == "tuple[str, ...]":
        fits = all(isinstance(item, str) for item in value)
        value = tuple(value)
    if not fits:
        raise ConfigError(f"config key {key!r} must be {words}, "
                          f"not {value!r}")
    return value


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, the config file, and command line flags."""
    cfg = PipelineConfig()
    annotations = {f.name: f.type for f in fields(PipelineConfig)}
    if getattr(args, "config", None):
        doc = load_config_file(args.config)
        updates = {}
        for key, value in doc.items():
            name = key.replace("-", "_")
            if name not in annotations:
                raise ConfigError(f"unknown config key {key!r}")
            updates[name] = _config_value(key, value, annotations[name])
        cfg = replace(cfg, **updates)
    for name in annotations:
        if hasattr(args, name) and getattr(args, name) is not None:
            value = getattr(args, name)
            if name in ("missing_tokens", "variables"):
                value = tuple(value)
            cfg = replace(cfg, **{name: value})
    if args.command == "synth":
        # synth's own flags override its config object's values
        flags = {"n_rows": args.rows, "noise": args.noise, "seed": args.seed}
        cfg = replace(cfg, synth={**cfg.synth, **{
            key: value for key, value in flags.items() if value is not None}})
    cfg.validate()
    return cfg


# -- shared stage helpers ---------------------------------------------------


def _load(cfg: PipelineConfig, path: str, encoded: bool = True) -> Dataset:
    """Read a dataset whose categorical cells hold codes when encoded,
    else labels, which the codebook (if any) turns into codes."""
    book = load_codebook(cfg.codebook) if cfg.codebook else None
    schema = schema_from_header(read_header(path), cfg.target, book, path)
    return load_csv(path, schema, missing_tokens=cfg.missing_tokens,
                    codebook=None if encoded else book)


def _stage_data(cfg: PipelineConfig, handed: dict) -> Dataset:
    """The dataset pipeline hands a stage, else the --input file, else
    the out directory's encoded.csv."""
    if "data" in handed:
        return handed["data"]
    return _load(cfg, cfg.input if cfg.input else cfg.path(ENCODED_CSV))


def _write(path: str, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


# -- stages ------------------------------------------------------------------
# Each is stage_<name>(cfg, handed) -> the artifacts it wrote.  handed
# is the dict a pipeline run passes along ({} for a single command):
# encode's dataset under "data", train's tree under "tree".


def stage_encode(cfg: PipelineConfig, handed: dict) -> list[str]:
    """Write encoded.csv and cleaning.log; hand on the dataset the
    later stages would read back from encoded.csv."""
    if not cfg.input:
        raise ConfigError("encode needs an input CSV (--input)")
    data = _load(cfg, cfg.input, encoded=cfg.skip_codebook)
    cleaned, log = clean(data, cfg.outlier_rule())
    write_csv(cleaned, cfg.path(ENCODED_CSV))
    _write(cfg.path(CLEANING_LOG),
           "".join(f"{row}\t{reason}\n" for row, reason in log))
    print(f"encode: kept {cleaned.n} of {data.n} rows, "
          f"class counts {class_distribution(cleaned)}")
    handed["data"] = read_back(cleaned, cfg.missing_tokens)
    return [ENCODED_CSV, CLEANING_LOG]


def stage_screen(cfg: PipelineConfig, handed: dict) -> list[str]:
    data = _stage_data(cfg, handed)
    if cfg.holdout is not None:
        data, _ = data.split(cfg.holdout, cfg.seed)
    names = data.schema.names
    if cfg.per_variable:
        rows = screening.per_variable_wald(
            data, names, max_iter=cfg.max_iter, tol=cfg.tol)
    else:
        fit = screening.fit_logistic(
            data, names, max_iter=cfg.max_iter, tol=cfg.tol)
        rows = screening.wald_table(fit)
    _write(cfg.path(WALD_CSV), screening.wald_rows_to_text(rows))
    corr = screening.pearson_matrix(data, names)
    _write(cfg.path(CORRELATION_CSV),
           screening.correlation_text(names, corr))
    doc = screening.screen(rows, corr, alpha=cfg.alpha,
                           r_threshold=cfg.r_threshold)
    _write(cfg.path(SCREENING_JSON), json.dumps(doc, indent=2) + "\n")
    print(f"screen: kept {len(doc['kept'])} of {len(names)} variables")
    return [WALD_CSV, CORRELATION_CSV, SCREENING_JSON]


def _screened_variables(cfg: PipelineConfig, data: Dataset) -> list[str]:
    if cfg.variables is not None:
        names, source = list(cfg.variables), "requested"
    else:
        # the screen stage's kept list feeds training; fall back to the
        # one in the output directory so pipeline and manual runs match
        path = cfg.screening if cfg.screening else cfg.path(SCREENING_JSON)
        if not cfg.screening and not os.path.exists(path):
            return data.schema.names
        doc = _read_json(path, "screening")
        names = doc.get("kept") if isinstance(doc, dict) else None
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ConfigError(f"screening file {path} holds no JSON object "
                              "with a 'kept' list of variable names")
        source = f"in screening file {path}"
    unknown = [name for name in names if name not in data.schema.names]
    if unknown:
        raise ConfigError(f"unknown variables {source}: {unknown}")
    return names


def stage_train(cfg: PipelineConfig, handed: dict) -> list[str]:
    """Write model.json, tree.dot and tree.txt; hand on the tree eval
    would read back from model.json."""
    data = _stage_data(cfg, handed)
    variables = _screened_variables(cfg, data)
    if cfg.holdout is not None:
        data, _ = data.split(cfg.holdout, cfg.seed)
    tree = cart.grow(data, variables, cfg.cart_config())
    labels = cart.node_labels(tree)
    _write(cfg.path(MODEL_JSON), cart.serialize(tree))
    _write(cfg.path(TREE_DOT), cart.export_dot(tree, labels))
    _write(cfg.path(TREE_TXT), cart.export_text(tree, labels))
    print(f"train: {tree.node_count()} nodes, depth {tree.depth()}, "
          f"{data.n} training rows")
    handed["tree"] = tree
    return [MODEL_JSON, TREE_DOT, TREE_TXT]


def _load_model(cfg: PipelineConfig, handed: dict) -> cart.CartTree:
    """The --model file, else the tree pipeline hands on, else the out
    directory's model.json; a file deserialize refuses is named in the
    error."""
    if "tree" in handed and not cfg.model:
        return handed["tree"]
    path = cfg.model if cfg.model else cfg.path(MODEL_JSON)
    with read_errors(path, "model"), open(path, encoding="utf-8-sig") as fh:
        try:
            return cart.deserialize(fh.read())
        except (UnicodeDecodeError, DataError) as exc:
            raise DataError(f"model {path}: {exc}") from None


def stage_eval(cfg: PipelineConfig, handed: dict) -> list[str]:
    data = _stage_data(cfg, handed)
    if cfg.holdout is not None:
        _, data = data.split(cfg.holdout, cfg.seed)
    tree = _load_model(cfg, handed)
    classes, scores = cart.predict_dataset(tree, data)
    actual = data.binary_target()
    cm = evaluation.confusion(actual, classes)
    rates = evaluation.error_rates(cm)
    mets = evaluation.metrics(cm)
    roc_scores = scores if cfg.roc_scores == "proportion" else (
        classes.astype(float))
    curve = evaluation.roc(actual, roc_scores)
    _write(cfg.path(EVAL_JSON),
           evaluation.report_json(cm, rates, mets, curve))
    _write(cfg.path(EVAL_TXT),
           evaluation.report_table(cm, rates, mets, curve))
    _write(cfg.path(ROC_TSV), evaluation.roc_dump(curve))
    print(f"eval: {data.n} rows, accuracy {mets['accuracy']:.6f}, "
          f"auc {curve['auc']:.6f}")
    return [EVAL_JSON, EVAL_TXT, ROC_TSV]


def stage_predict(cfg: PipelineConfig, handed: dict) -> list[str]:
    if not cfg.input:
        raise ConfigError("predict needs an input CSV (--input)")
    tree = _load_model(cfg, handed)
    schema, target = tree.schema, tree.schema.target
    has_target = target in read_header(cfg.input)
    data = load_csv(cfg.input, schema, missing_tokens=cfg.missing_tokens,
                    target_optional=True)
    classes, scores = cart.predict_dataset(tree, data)
    names = schema.names + ([target] if has_target else [])
    # A score keeps repr's decimal part even when whole, so it goes in
    # as text.  Every score is a leaf's proportion: repr each distinct
    # one once, told apart by its bits so -0.0 keeps its sign, and
    # gather the text by row.
    bits, which = np.unique(scores.view(np.int64), return_inverse=True)
    score_text = np.array(list(map(repr, bits.view(float).tolist())),
                          dtype=object)[which]
    columns = [data.column(name) for name in names] + [classes, score_text]
    with open_output(cfg.path(PREDICTIONS_CSV)) as fh:
        fh.writelines(csv_text(names + ["predicted_class", "score"], columns,
                               "\n"))
    print(f"predict: wrote {data.n} predictions")
    return [PREDICTIONS_CSV]


def stage_synth(cfg: PipelineConfig, handed: dict) -> list[str]:
    doc = {"seed": cfg.seed, **cfg.synth}
    data = synth.generate(doc)
    write_csv(data, cfg.path(SYNTHETIC_CSV))
    print(f"synth: wrote {data.n} rows, seed {doc['seed']}, "
          f"noise {float(doc.get('noise', 0.0))}")
    return [SYNTHETIC_CSV]


PIPELINE_STAGES = ("encode", "screen", "train", "eval")


def run_pipeline(cfg: PipelineConfig) -> int:
    """Chain the four stages, writing a manifest whatever happens."""
    manifest = {"stages": [], "config": cfg.to_doc()}
    exit_code = 0
    # later stages take in memory what they would read back from earlier
    # ones' artifacts, so each artifact is the one a manual run writes
    handed = {}
    for name in PIPELINE_STAGES:
        entry = {"name": name, "status": "skipped", "artifacts": [],
                 "seconds": 0.0}
        manifest["stages"].append(entry)
        if exit_code:
            continue
        started = time.perf_counter()
        try:
            entry["artifacts"] = COMMANDS[name][0](cfg, handed)
            entry["status"] = "completed"
        except SolvencyError as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            print(f"pipeline: {name} failed: {exc}", file=sys.stderr)
            exit_code = exc.exit_code
        finally:
            entry["seconds"] = round(time.perf_counter() - started, 6)
    _write(cfg.path(MANIFEST_JSON), json.dumps(manifest, indent=2) + "\n")
    return exit_code


# -- argument parsing --------------------------------------------------------


#: Flag groups, each declared once: (flag, add_argument keywords).
FLAG_GROUPS = {
    "common": [
        ("--config", dict(help="JSON config file")),
        ("--out", dict(help="output directory (default .)")),
        ("--seed", dict(type=int, help="64-bit RNG seed")),
    ],
    "data": [
        ("--input", dict(help="input CSV path")),
        ("--codebook", dict(help="codebook CSV path")),
        ("--target", dict(help="target column name")),
        ("--missing-token", dict(dest="missing_tokens", action="append",
                                 help="missing-value token (repeatable)")),
    ],
    "encode": [
        ("--skip-codebook", dict(
            action="store_true", default=None,
            help="input categorical cells already hold codes")),
        ("--outlier-method", dict(choices=["iqr", "zscore", "off"])),
        ("--iqr-multiplier", dict(type=float)),
        ("--z-threshold", dict(type=float)),
    ],
    "screen": [
        ("--alpha", dict(type=float)),
        ("--r-threshold", dict(type=float)),
        ("--max-iter", dict(type=int)),
        ("--tol", dict(type=float)),
        ("--per-variable", dict(action="store_true", default=None,
                                help="one single-variable fit per candidate")),
    ],
    "variables": [
        ("--screening", dict(help="screening.json from the screen step")),
        ("--variables", dict(type=lambda s: tuple(s.split(",")),
                             help="comma-separated variable names "
                                  "(overrides --screening)")),
    ],
    "tree": [
        ("--min-node-size", dict(type=int)),
        ("--max-depth", dict(type=int)),
        ("--min-gini-decrease", dict(type=float)),
        ("--allow-large-min-node", dict(action="store_true", default=None,
                                        help="permit min-node-size above 5")),
    ],
    "holdout": [("--holdout", dict(
        type=float, help="seeded held-out row fraction (off by default)"))],
    "model": [("--model", dict(help="model.json path"))],
    "roc": [("--roc-scores", dict(choices=["proportion", "hard"]))],
    "synth": [
        ("--rows", dict(type=int, help="row count")),
        ("--noise", dict(type=float, help="label flip rate in [0, 0.5)")),
    ],
}

#: subcommand -> (stage, help, flag groups); pipeline has no stage of
#: its own and chains PIPELINE_STAGES.
COMMANDS = {
    "encode": (stage_encode, "encode labels and clean rows",
               ("common", "data", "encode")),
    "screen": (stage_screen, "significance and correlation screen",
               ("common", "data", "screen", "holdout")),
    "train": (stage_train, "grow the decision tree",
              ("common", "data", "variables", "tree", "holdout")),
    "eval": (stage_eval, "confusion, rates, and ROC report",
             ("common", "data", "model", "holdout", "roc")),
    "predict": (stage_predict, "append predictions to feature rows",
                ("common", "data", "model")),
    "synth": (stage_synth, "generate seeded synthetic data",
              ("common", "synth")),
    "pipeline": (None, "encode, screen, train, eval",
                 ("common", "data", "encode", "screen", "tree", "holdout",
                  "roc")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvency",
        description="Credit solvency scoring with screened CART trees.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, groups) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for group in groups:
            for flag, options in FLAG_GROUPS[group]:
                p.add_argument(flag, **options)
    return parser


@contextmanager
def _warning_lines(command: str):
    """Format the package's warnings as the lines "solvency <command>:
    warning: <message>", without Python's source path and line; other
    warnings keep Python's format, and the warning filters decide as
    before whether a warning shows."""
    python_format = warnings.formatwarning

    def format_warning(message, category, *where):
        if issubclass(category, SolvencyWarning):
            return f"solvency {command}: warning: {message}\n"
        return python_format(message, category, *where)

    warnings.formatwarning = format_warning
    try:
        yield
    finally:
        warnings.formatwarning = python_format


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _warning_lines(args.command):
        try:
            cfg = resolve_config(args)
            try:
                os.makedirs(cfg.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make output directory {cfg.out}: "
                                  f"{exc.strerror}") from None
            if args.command == "pipeline":
                return run_pipeline(cfg)
            COMMANDS[args.command][0](cfg, {})
            return 0
        except SolvencyError as exc:
            print(f"solvency {args.command}: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
