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

import numpy as np

from . import cart, evaluation, screening, synth
from .dataset import (
    DEFAULT_MISSING_TOKENS,
    Dataset,
    OutlierRule,
    binary_codes,
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


#: Every setting and its default, in the order manifest.json lists
#: them; README's "Config file" section documents the keys.
DEFAULTS = {
    "input": None, "codebook": None, "skip-codebook": False,
    "target": "TARGET", "out": ".", "seed": 0,
    "missing-tokens": list(DEFAULT_MISSING_TOKENS),
    "outlier-method": "iqr", "iqr-multiplier": 1.5, "z-threshold": 3.0,
    "alpha": 0.05, "r-threshold": 0.8, "max-iter": 50, "tol": 1e-8,
    "per-variable": False, "variables": None, "screening": None,
    "min-node-size": 5, "max-depth": 10, "min-gini-decrease": 0.0,
    "holdout": None, "model": None, "roc-scores": "proportion", "synth": {},
}

#: The JSON type of each setting whose default is null; the others
#: take their default's type.
NULL_DEFAULT_TYPES = {"input": str, "codebook": str, "variables": list,
                      "screening": str, "holdout": float, "model": str}

#: How a refusal names each JSON type; a list setting holds strings.
TYPE_WORDS = {str: "a string", int: "an integer", float: "a number",
              bool: "true or false", dict: "an object",
              list: "a list of strings"}


def validate(cfg: dict) -> None:
    """ConfigError for any setting out of its range, including those
    train and encode would refuse after earlier stages had written their
    artifacts."""
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigError("alpha must lie inside (0, 1)")
    if not 0.0 < cfg["r-threshold"] <= 1.0:
        raise ConfigError("r-threshold must lie inside (0, 1]")
    if cfg["max-iter"] < 1:
        raise ConfigError("max-iter must be positive")
    if cfg["tol"] <= 0:
        raise ConfigError("tol must be positive")
    if cfg["holdout"] is not None and not 0.0 < cfg["holdout"] < 1.0:
        raise ConfigError("holdout fraction must lie inside (0, 1)")
    if cfg["roc-scores"] not in ("proportion", "hard"):
        raise ConfigError("roc-scores must be 'proportion' or 'hard'")
    if not 0 <= cfg["seed"] < 2 ** 64:
        raise ConfigError("seed must fit in 64 unsigned bits")
    for key, value in cfg.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, not {value!r}")
    cart_config(cfg)
    outlier_rule(cfg)


def cart_config(cfg: dict) -> cart.CartConfig:
    return cart.CartConfig(
        min_node_size=cfg["min-node-size"],
        max_depth=cfg["max-depth"],
        min_gini_decrease=cfg["min-gini-decrease"],
    )


def outlier_rule(cfg: dict) -> OutlierRule:
    return OutlierRule(cfg["outlier-method"], cfg["iqr-multiplier"],
                       cfg["z-threshold"])


def out_path(cfg: dict, name: str) -> str:
    return os.path.join(cfg["out"], name)


def _read_json(path: str, what: str):
    """The JSON value the what file at path holds; ConfigError naming
    the file if it cannot be read, is not UTF-8 JSON, nests too deeply
    to read, or names a key twice in one object."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(
                    f"{what} file {path} names the key {key!r} twice")
            doc[key] = value
        return doc

    with read_errors(path, what), open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except ValueError as exc:
            # JSONDecodeError, a byte that is not UTF-8, or an integer
            # past Python's int-string limit
            raise ConfigError(
                f"{what} file {path} is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{what} file {path} nests too deeply") from None


def _check_setting(key: str, value) -> None:
    """ConfigError naming a config file's key if it is not a setting's
    kebab-case name or value has not the JSON type of that setting,
    null only where the default is null."""
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    if value is None and DEFAULTS[key] is None:
        return
    kind = NULL_DEFAULT_TYPES.get(key, type(DEFAULTS[key]))
    if kind is float:
        # a float that is not finite gets validate's own message
        fits = type(value) is float or json_number(value)
    elif kind is list:
        fits = type(value) is list and all(type(v) is str for v in value)
    else:
        fits = type(value) is kind
    if not fits:
        raise ConfigError(f"config key {key!r} must be {TYPE_WORDS[kind]}, "
                          f"not {value!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    """The settings: DEFAULTS, then the config file's, then the flags'."""
    cfg = dict(DEFAULTS)
    if args.config:
        doc = _read_json(args.config, "config")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON "
                              "object")
        for key, value in doc.items():
            _check_setting(key, value)
            cfg[key] = value
    for key in DEFAULTS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    if args.command == "synth":
        # synth's own flags override its config object's values
        flags = {"n_rows": args.rows, "noise": args.noise, "seed": args.seed}
        cfg["synth"] = {**cfg["synth"], **{
            key: value for key, value in flags.items() if value is not None}}
    validate(cfg)
    return cfg


# -- shared stage helpers ---------------------------------------------------


def _load(cfg: dict, path: str, encoded: bool = True) -> Dataset:
    """Read a dataset whose categorical cells hold codes when encoded,
    else labels, which the codebook (if any) turns into codes."""
    book = load_codebook(cfg["codebook"]) if cfg["codebook"] else None
    schema = schema_from_header(read_header(path), cfg["target"], book, path)
    return load_csv(path, schema, missing_tokens=cfg["missing-tokens"],
                    codebook=None if encoded else book)


def _stage_data(cfg: dict, handed: dict) -> tuple[Dataset, Dataset]:
    """The rows a stage fits and the rows it scores, of the dataset
    pipeline hands it, else of the --input file, else of the out
    directory's encoded.csv: the two parts of the seeded --holdout
    split, else all rows for both."""
    data = handed["data"] if "data" in handed else _load(
        cfg, cfg["input"] or out_path(cfg, ENCODED_CSV))
    if cfg["holdout"] is None:
        return data, data
    return data.split(cfg["holdout"], cfg["seed"])


def _write(path: str, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


# -- stages ------------------------------------------------------------------
# Each is stage_<name>(cfg, handed) -> the artifacts it wrote.  handed
# is the dict a pipeline run passes along ({} for a single command):
# encode's dataset under "data", train's tree under "tree".


def stage_encode(cfg: dict, handed: dict) -> list[str]:
    """Write encoded.csv and cleaning.log; hand on the dataset the
    later stages would read back from encoded.csv."""
    if not cfg["input"]:
        raise ConfigError("encode needs an input CSV (--input)")
    data = _load(cfg, cfg["input"], encoded=cfg["skip-codebook"])
    cleaned, log = clean(data, outlier_rule(cfg))
    # a kept row whose target is not 0 or 1 is named by its input row
    binary_codes(cleaned.y, cleaned.schema.target,
                 np.delete(np.arange(data.n), [row for row, _ in log]))
    write_csv(cleaned, out_path(cfg, ENCODED_CSV))
    _write(out_path(cfg, CLEANING_LOG),
           "".join(f"{row}\t{reason}\n" for row, reason in log))
    print(f"encode: kept {cleaned.n} of {data.n} rows, "
          f"class counts {class_distribution(cleaned)}")
    handed["data"] = read_back(cleaned, cfg["missing-tokens"])
    return [ENCODED_CSV, CLEANING_LOG]


def stage_screen(cfg: dict, handed: dict) -> list[str]:
    data, _ = _stage_data(cfg, handed)
    names = data.schema.names
    if cfg["per-variable"]:
        rows = screening.per_variable_wald(
            data, names, max_iter=cfg["max-iter"], tol=cfg["tol"])
    else:
        fit = screening.fit_logistic(
            data, names, max_iter=cfg["max-iter"], tol=cfg["tol"])
        rows = screening.wald_table(fit)
    _write(out_path(cfg, WALD_CSV), screening.wald_rows_to_text(rows))
    corr = screening.pearson_matrix(data, names)
    _write(out_path(cfg, CORRELATION_CSV),
           screening.correlation_text(names, corr))
    doc = screening.screen(rows, corr, alpha=cfg["alpha"],
                           r_threshold=cfg["r-threshold"])
    _write(out_path(cfg, SCREENING_JSON), json.dumps(doc, indent=2) + "\n")
    print(f"screen: kept {len(doc['kept'])} of {len(names)} variables")
    return [WALD_CSV, CORRELATION_CSV, SCREENING_JSON]


def _screened_variables(cfg: dict, data: Dataset) -> list[str]:
    if cfg["variables"] is not None:
        names, source = cfg["variables"], "requested"
    else:
        # the screen stage's kept list feeds training; fall back to the
        # one in the output directory so pipeline and manual runs match
        path = cfg["screening"] or out_path(cfg, SCREENING_JSON)
        if not cfg["screening"] and not os.path.exists(path):
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


def stage_train(cfg: dict, handed: dict) -> list[str]:
    """Write model.json, tree.dot and tree.txt; hand on the tree eval
    would read back from model.json."""
    data, _ = _stage_data(cfg, handed)
    variables = _screened_variables(cfg, data)
    tree = cart.grow(data, variables, cart_config(cfg))
    labels = cart.node_labels(tree)
    _write(out_path(cfg, MODEL_JSON), cart.serialize(tree))
    _write(out_path(cfg, TREE_DOT), cart.export_dot(tree, labels))
    _write(out_path(cfg, TREE_TXT), cart.export_text(tree, labels))
    print(f"train: {tree.node_count()} nodes, depth {tree.depth()}, "
          f"{data.n} training rows")
    handed["tree"] = tree
    return [MODEL_JSON, TREE_DOT, TREE_TXT]


def _load_model(cfg: dict, handed: dict) -> cart.CartTree:
    """The --model file, else the tree pipeline hands on, else the out
    directory's model.json; a file deserialize refuses is named in the
    error."""
    if "tree" in handed and not cfg["model"]:
        return handed["tree"]
    path = cfg["model"] or out_path(cfg, MODEL_JSON)
    with read_errors(path, "model"), open(path, encoding="utf-8-sig") as fh:
        try:
            return cart.deserialize(fh.read())
        except (UnicodeDecodeError, DataError) as exc:
            raise DataError(f"model {path}: {exc}") from None


def stage_eval(cfg: dict, handed: dict) -> list[str]:
    _, data = _stage_data(cfg, handed)
    tree = _load_model(cfg, handed)
    classes, scores = cart.predict_dataset(tree, data)
    actual = data.binary_target()
    cm = evaluation.confusion(actual, classes)
    rates = evaluation.error_rates(cm)
    mets = evaluation.metrics(cm)
    roc_scores = scores if cfg["roc-scores"] == "proportion" else (
        classes.astype(float))
    curve = evaluation.roc(actual, roc_scores)
    _write(out_path(cfg, EVAL_JSON),
           evaluation.report_json(cm, rates, mets, curve))
    _write(out_path(cfg, EVAL_TXT),
           evaluation.report_table(cm, rates, mets, curve))
    _write(out_path(cfg, ROC_TSV), evaluation.roc_dump(curve))
    print(f"eval: {data.n} rows, accuracy {mets['accuracy']:.6f}, "
          f"auc {curve['auc']:.6f}")
    return [EVAL_JSON, EVAL_TXT, ROC_TSV]


def stage_predict(cfg: dict, handed: dict) -> list[str]:
    if not cfg["input"]:
        raise ConfigError("predict needs an input CSV (--input)")
    tree = _load_model(cfg, handed)
    schema, target = tree.schema, tree.schema.target
    has_target = target in read_header(cfg["input"])
    data = load_csv(cfg["input"], schema,
                    missing_tokens=cfg["missing-tokens"], target_optional=True)
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
    with open_output(out_path(cfg, PREDICTIONS_CSV)) as fh:
        fh.writelines(csv_text(names + ["predicted_class", "score"], columns,
                               "\n"))
    print(f"predict: wrote {data.n} predictions")
    return [PREDICTIONS_CSV]


def stage_synth(cfg: dict, handed: dict) -> list[str]:
    doc = {"seed": cfg["seed"], **cfg["synth"]}
    data = synth.generate(doc)
    write_csv(data, out_path(cfg, SYNTHETIC_CSV))
    print(f"synth: wrote {data.n} rows, seed {doc['seed']}, "
          f"noise {float(doc.get('noise', 0.0))}")
    return [SYNTHETIC_CSV]


PIPELINE_STAGES = ("encode", "screen", "train", "eval")


def run_pipeline(cfg: dict) -> int:
    """Chain the four stages, writing a manifest whatever happens."""
    manifest = {"stages": [], "config": cfg}
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
    _write(out_path(cfg, MANIFEST_JSON),
           json.dumps(manifest, indent=2) + "\n")
    return exit_code


# -- argument parsing --------------------------------------------------------


#: Flag groups, each declared once: (flag, add_argument keywords).
FLAG_GROUPS = {
    "common": [
        ("--config", dict(help="JSON config file")),
        ("--out", dict(help="output directory (default .)")),
    ],
    # encode and predict take no seed: neither splits rows nor draws
    "seed": [("--seed", dict(type=int, help="64-bit RNG seed"))],
    "input": [
        ("--input", dict(help="input CSV path")),
        ("--missing-token", dict(dest="missing_tokens", action="append",
                                 help="missing-value token (repeatable)")),
    ],
    # predict takes neither: the model fixes the schema and the target
    "schema": [
        ("--codebook", dict(help="codebook CSV path")),
        ("--target", dict(help="target column name")),
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
        ("--variables", dict(type=lambda s: s.split(","),
                             help="comma-separated variable names "
                                  "(overrides --screening)")),
    ],
    "tree": [
        ("--min-node-size", dict(type=int)),
        ("--max-depth", dict(type=int)),
        ("--min-gini-decrease", dict(type=float)),
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
               ("common", "input", "schema", "encode")),
    "screen": (stage_screen, "significance and correlation screen",
               ("common", "seed", "input", "schema", "screen", "holdout")),
    "train": (stage_train, "grow the decision tree",
              ("common", "seed", "input", "schema", "variables", "tree",
               "holdout")),
    "eval": (stage_eval, "confusion, rates, and ROC report",
             ("common", "seed", "input", "schema", "model", "holdout", "roc")),
    "predict": (stage_predict, "append predictions to feature rows",
                ("common", "input", "model")),
    "synth": (stage_synth, "generate seeded synthetic data",
              ("common", "seed", "synth")),
    "pipeline": (None, "encode, screen, train, eval",
                 ("common", "seed", "input", "schema", "encode", "screen",
                  "tree", "holdout", "roc")),
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
                os.makedirs(cfg["out"], exist_ok=True)
            except OSError as exc:
                raise ConfigError("cannot make output directory "
                                  f"{cfg['out']}: {exc.strerror}") from None
            if args.command == "pipeline":
                return run_pipeline(cfg)
            COMMANDS[args.command][0](cfg, {})
            return 0
        except SolvencyError as exc:
            print(f"solvency {args.command}: {exc}", file=sys.stderr)
            return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
