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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import cart, evaluation, screening, synth
from .dataset import (
    DEFAULT_MISSING_TOKENS,
    CodeBook,
    Dataset,
    FeatureSpec,
    OutlierRule,
    Schema,
    apply_codebook,
    class_distribution,
    clean,
    csv_text,
    load_csv,
    read_back,
    read_header,
    schema_from_header,
    write_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateClassError,
    NumericError,
    SolvencyError,
)

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
    mode: str = cart.CLASSIFICATION
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
        try:
            OutlierRule(self.outlier_method, self.iqr_multiplier,
                        self.z_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def cart_config(self) -> cart.CartConfig:
        return cart.CartConfig(
            min_node_size=self.min_node_size,
            max_depth=self.max_depth,
            min_gini_decrease=self.min_gini_decrease,
            mode=self.mode,
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


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
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
    cfg.validate()
    return cfg


# -- shared stage helpers ---------------------------------------------------


def _load(cfg: PipelineConfig, path: str, encoded: bool = True) -> Dataset:
    """Read a dataset whose categorical cells hold codes when encoded,
    else labels, which the codebook (if any) turns into codes."""
    book = CodeBook.load(cfg.codebook) if cfg.codebook else None
    schema = schema_from_header(read_header(path), cfg.target, book, path)
    data = load_csv(path, schema, missing_tokens=cfg.missing_tokens,
                    encoded=encoded)
    return data if encoded or book is None else apply_codebook(data, book)


def _stage_data(cfg: PipelineConfig, data: Dataset | None) -> Dataset:
    """The dataset pipeline hands a stage, else the --input file, else
    the out directory's encoded.csv."""
    if data is not None:
        return data
    return _load(cfg, cfg.input if cfg.input else cfg.path(ENCODED_CSV))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- stages ------------------------------------------------------------------


def stage_encode(cfg: PipelineConfig) -> tuple[list[str], Dataset]:
    """Write encoded.csv and cleaning.log; also return the dataset that
    the later stages would read back from encoded.csv."""
    if not cfg.input:
        raise ConfigError("encode needs an input CSV (--input)")
    data = _load(cfg, cfg.input, encoded=cfg.skip_codebook)
    cleaned, log = clean(data, cfg.outlier_rule())
    write_csv(cleaned, cfg.path(ENCODED_CSV))
    _write(cfg.path(CLEANING_LOG), log.to_text())
    dist = class_distribution(cleaned)
    print(f"encode: kept {cleaned.n} of {data.n} rows, "
          f"class counts {dist.counts}")
    return [ENCODED_CSV, CLEANING_LOG], read_back(cleaned, cfg.missing_tokens)


def stage_screen(cfg: PipelineConfig, data: Dataset | None = None
                 ) -> list[str]:
    data = _stage_data(cfg, data)
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
    _write(cfg.path(CORRELATION_CSV), corr.to_text())
    variable_rows = [r for r in rows if r.variable != screening.CONSTANT_ROW]
    outcome = screening.screen(variable_rows, corr, alpha=cfg.alpha,
                               r_threshold=cfg.r_threshold)
    doc = {
        "alpha": cfg.alpha,
        "r-threshold": cfg.r_threshold,
        "kept": outcome.kept,
        "dropped": [
            {k: v for k, v in (
                ("name", d.name), ("reason", d.reason), ("sig", d.sig),
                ("partner", d.partner), ("r", d.r)) if v is not None}
            for d in outcome.dropped
        ],
    }
    _write(cfg.path(SCREENING_JSON), json.dumps(doc, indent=2) + "\n")
    print(f"screen: kept {len(outcome.kept)} of {len(names)} variables")
    return [WALD_CSV, CORRELATION_CSV, SCREENING_JSON]


def _screened_variables(cfg: PipelineConfig, data: Dataset) -> list[str]:
    if cfg.variables is not None:
        names, source = list(cfg.variables), "requested"
    else:
        # the screen stage's kept list feeds training; fall back to the
        # one in the output directory so pipeline and manual runs match
        path = cfg.screening if cfg.screening else cfg.path(SCREENING_JSON)
        if cfg.screening and not os.path.exists(path):
            raise ConfigError(f"screening file not found: {path}")
        if not os.path.exists(path):
            return data.schema.names
        with open(path, encoding="utf-8") as fh:
            try:
                names = json.load(fh)["kept"]
            except (ValueError, TypeError, KeyError):
                names = None
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise ConfigError(f"screening file {path} holds no JSON object "
                              "with a 'kept' list of variable names")
        source = f"in screening file {path}"
    unknown = [name for name in names if name not in data.schema.names]
    if unknown:
        raise ConfigError(f"unknown variables {source}: {unknown}")
    return names


def stage_train(cfg: PipelineConfig, data: Dataset | None = None
                ) -> tuple[list[str], cart.CartTree]:
    """Write model.json, tree.dot and tree.txt; also return the tree
    that eval would read back from model.json."""
    data = _stage_data(cfg, data)
    variables = _screened_variables(cfg, data)
    if cfg.holdout is not None:
        data, _ = data.split(cfg.holdout, cfg.seed)
    tree = cart.grow(data, variables, cfg.cart_config())
    _write(cfg.path(MODEL_JSON), cart.serialize(tree))
    _write(cfg.path(TREE_DOT), cart.export_dot(tree))
    _write(cfg.path(TREE_TXT), cart.export_text(tree))
    print(f"train: {tree.node_count()} nodes, depth {tree.depth()}, "
          f"{data.n} training rows")
    return [MODEL_JSON, TREE_DOT, TREE_TXT], tree


def _load_model(cfg: PipelineConfig, tree: cart.CartTree | None = None
                ) -> cart.CartTree:
    """The --model file, else the tree pipeline hands on, else the out
    directory's model.json; refused unless it is a classification tree."""
    path = cfg.model if cfg.model else cfg.path(MODEL_JSON)
    if cfg.model or tree is None:
        if not os.path.exists(path):
            raise ConfigError(f"model file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            tree = cart.deserialize(fh.read())
    if tree.config.mode != cart.CLASSIFICATION:
        raise ConfigError(
            f"model {path} is a {tree.config.mode} tree; eval and predict "
            f"need a {cart.CLASSIFICATION} tree")
    return tree


def stage_eval(cfg: PipelineConfig, data: Dataset | None = None,
               tree: cart.CartTree | None = None) -> list[str]:
    data = _stage_data(cfg, data)
    if cfg.holdout is not None:
        _, data = data.split(cfg.holdout, cfg.seed)
    tree = _load_model(cfg, tree)
    classes, scores = cart.predict_dataset(tree, data)
    actual = data.binary_target()
    cm = evaluation.confusion(actual, classes)
    rates = evaluation.error_rates(cm)
    mets = evaluation.metrics(cm)
    roc_scores = scores if cfg.roc_scores == "proportion" else (
        classes.astype(float))
    try:
        curve = evaluation.roc(actual, roc_scores)
    except DegenerateClassError:
        curve = None
    _write(cfg.path(EVAL_JSON),
           evaluation.report_json(cm, rates, mets, curve))
    _write(cfg.path(EVAL_TXT),
           evaluation.report_table(cm, rates, mets, curve))
    artifacts = [EVAL_JSON, EVAL_TXT]
    if curve is not None:
        _write(cfg.path(ROC_TSV), evaluation.roc_dump(curve))
        artifacts.append(ROC_TSV)
    auc_text = f"{curve.auc:.6f}" if curve else "n/a"
    print(f"eval: {data.n} rows, accuracy {mets.accuracy:.6f}, "
          f"auc {auc_text}")
    return artifacts


def stage_predict(cfg: PipelineConfig) -> list[str]:
    if not cfg.input:
        raise ConfigError("predict needs an input CSV (--input)")
    tree = _load_model(cfg)
    features = [FeatureSpec(name, kind, levels)
                for name, kind, levels in tree.fingerprint[:-1]]
    target = tree.fingerprint[-1]
    schema = Schema(features, target)
    has_target = target in read_header(cfg.input)
    data = load_csv(cfg.input, schema, missing_tokens=cfg.missing_tokens,
                    encoded=True, target_optional=True)
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
    with open(cfg.path(PREDICTIONS_CSV), "w", encoding="utf-8",
              newline="") as fh:
        fh.writelines(csv_text(names + ["predicted_class", "score"], columns,
                               "\n"))
    print(f"predict: wrote {data.n} predictions")
    return [PREDICTIONS_CSV]


def stage_synth(cfg: PipelineConfig) -> list[str]:
    doc = dict(cfg.synth)
    doc.setdefault("seed", cfg.seed)
    spec = synth.spec_from_doc(doc)
    data = synth.generate(spec)
    write_csv(data, cfg.path(SYNTHETIC_CSV))
    print(f"synth: wrote {data.n} rows, seed {spec.seed}, "
          f"noise {spec.noise}")
    return [SYNTHETIC_CSV]


PIPELINE_STAGES = (
    ("encode", stage_encode),
    ("screen", stage_screen),
    ("train", stage_train),
    ("eval", stage_eval),
)


def run_pipeline(cfg: PipelineConfig) -> int:
    """Chain the four stages, writing a manifest whatever happens."""
    manifest = {"stages": [], "config": cfg.to_doc()}
    exit_code = 0
    failed = False
    # Encode reads the input and hands the later stages, in memory, the
    # dataset they would read back from encoded.csv, and train hands
    # eval the tree it would read back from model.json, so every
    # artifact is the one a manual run of the four commands writes.
    data = tree = None
    for name, func in PIPELINE_STAGES:
        entry = {"name": name, "status": "skipped", "artifacts": [],
                 "seconds": 0.0}
        manifest["stages"].append(entry)
        if failed:
            continue
        started = time.perf_counter()
        try:
            if name == "encode":
                entry["artifacts"], data = func(cfg)
            elif name == "train":
                entry["artifacts"], tree = func(cfg, data)
            elif name == "eval":
                entry["artifacts"] = func(cfg, data, tree)
            else:
                entry["artifacts"] = func(cfg, data)
            entry["status"] = "completed"
        except SolvencyError as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
            print(f"pipeline: {name} failed: {exc}", file=sys.stderr)
            exit_code = exit_code_for(exc)
            failed = True
        finally:
            entry["seconds"] = round(time.perf_counter() - started, 6)
    _write(cfg.path(MANIFEST_JSON), json.dumps(manifest, indent=2) + "\n")
    return exit_code


def exit_code_for(exc: SolvencyError) -> int:
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, NumericError):
        return 4
    return 3


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
        ("--mode", dict(choices=[cart.CLASSIFICATION, cart.REGRESSION])),
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

#: subcommand -> (help, flag groups)
SUBCOMMANDS = {
    "encode": ("encode labels and clean rows", ("common", "data", "encode")),
    "screen": ("significance and correlation screen",
               ("common", "data", "screen", "holdout")),
    "train": ("grow the decision tree",
              ("common", "data", "variables", "tree", "holdout")),
    "eval": ("confusion, rates, and ROC report",
             ("common", "data", "model", "holdout", "roc")),
    "predict": ("append predictions to feature rows",
                ("common", "data", "model")),
    "synth": ("generate seeded synthetic data", ("common", "synth")),
    "pipeline": ("encode, screen, train, eval",
                 ("common", "data", "encode", "screen", "tree", "holdout",
                  "roc")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvency",
        description="Credit solvency scoring with screened CART trees.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, groups) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for group in groups:
            for flag, options in FLAG_GROUPS[group]:
                p.add_argument(flag, **options)
    return parser


COMMANDS = {
    "encode": stage_encode,
    "screen": stage_screen,
    "train": stage_train,
    "eval": stage_eval,
    "predict": stage_predict,
    "synth": stage_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "synth":
            doc = dict(cfg.synth)
            if args.rows is not None:
                doc["n_rows"] = args.rows
            if args.noise is not None:
                doc["noise"] = args.noise
            if args.seed is not None:
                doc["seed"] = args.seed
            cfg = replace(cfg, synth=doc)
        os.makedirs(cfg.out, exist_ok=True)
        if args.command == "pipeline":
            return run_pipeline(cfg)
        COMMANDS[args.command](cfg)
        return 0
    except SolvencyError as exc:
        print(f"solvency {args.command}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
