"""Seeded benchmark inputs and output oracles for the solvency CLI.

The inputs come from this module's own PCG64 generator, never from
``solvency.synth``, so a change to the package cannot change what the
benchmark feeds it.  The oracles below check the CLI's artifacts
against facts the generator knows (which rows it spoiled, which label
the planted rule gives) and against a small router written here over
the ``model.json`` node records; none of them calls the code under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

TARGET = "TARGET"

#: The 13-column credit schema: (name, numeric range) or (name, labels).
#: Categorical labels are listed in code order; two-level features use
#: codes 1, 0 (first label is 1), wider ones 1..levels.
SCHEMA = (
    ("NAME_CONTRACT_TYPE", ("Cash loans", "Revolving loans")),
    ("CODE_GENDER", ("F", "M")),
    ("FLAG_OWN_CAR", ("Y", "N")),
    ("CNT_CHILDREN", (0.0, 4.0)),
    ("AMT_INCOME_TOTAL", (25_000.0, 250_000.0)),
    ("AMT_CREDIT", (45_000.0, 1_000_000.0)),
    ("AMT_ANNUITY", (2_000.0, 60_000.0)),
    ("AMT_GOODS_PRICE", (40_000.0, 900_000.0)),
    ("NAME_INCOME_TYPE", ("State servant", "Working", "Commercial associate",
                          "Pensioner")),
    ("NAME_EDUCATION_TYPE", ("Higher education", "Incomplete higher",
                             "Secondary / secondary special",
                             "Lower secondary")),
    ("NAME_FAMILY_STATUS", ("Married", "Single / not married",
                            "Civil marriage", "Separated", "Widow")),
    ("NAME_HOUSING_TYPE", ("House / apartment", "With parents",
                           "Municipal apartment", "Office apartment",
                           "Co-op apartment", "Rented apartment")),
    ("CNT_FAM_MEMBERS", (1.0, 7.0)),
)
NAMES = [name for name, _ in SCHEMA]
INCOME = NAMES.index("AMT_INCOME_TOTAL")
CREDIT = NAMES.index("AMT_CREDIT")

#: Depth-2 planted rule: income <= 137,500 and credit <= 522,500 is 1.
INCOME_CUT = 137_500.0
CREDIT_CUT = 522_500.0

NA_RATE = 0.002
OUTLIER_RATE = 0.01
#: Injected incomes lie far above any Tukey fence of the uniform column.
OUTLIER_RANGE = (2_500_000.0, 5_000_000.0)


def _is_categorical(spec) -> bool:
    return isinstance(spec[0], str)


def _codes(labels) -> list[int]:
    return [1, 0] if len(labels) == 2 else list(range(1, len(labels) + 1))


def draw(rng: np.random.Generator, n: int, noise: float = 0.0):
    """Feature matrix (codes for categoricals) and 0/1 labels."""
    X = np.empty((n, len(SCHEMA)))
    for j, (_, spec) in enumerate(SCHEMA):
        if _is_categorical(spec):
            X[:, j] = rng.choice(_codes(spec), n)
        else:
            X[:, j] = rng.uniform(spec[0], spec[1], n)
    y = ((X[:, INCOME] <= INCOME_CUT) & (X[:, CREDIT] <= CREDIT_CUT))
    y = y.astype(np.int64)
    if noise:
        y = np.where(rng.random(n) < noise, 1 - y, y)
    return X, y


def _render(X: np.ndarray, labelled: bool) -> list[list[str]]:
    """Cells as text: repr for floats (exact round trip), ints for codes,
    labels in place of codes when labelled."""
    columns = []
    for j, (_, spec) in enumerate(SCHEMA):
        if not _is_categorical(spec):
            columns.append([repr(v) for v in X[:, j].tolist()])
        elif labelled:
            lookup = dict(zip(_codes(spec), spec))
            columns.append([lookup[int(v)] for v in X[:, j].tolist()])
        else:
            columns.append([str(int(v)) for v in X[:, j].tolist()])
    return columns


def write_table(path: str, columns: list[list[str]], names: list[str]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(row) + "\n")


def write_codebook(path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,label,code\n")
        for name, spec in SCHEMA:
            if _is_categorical(spec):
                for label, code in zip(spec, _codes(spec)):
                    fh.write(f"{name},{label},{code}\n")


@dataclass
class Inputs:
    """One workload's generated files, CLI argv and oracle facts."""

    argv: list[str]
    files: dict[str, str]
    rows: dict[str, int]
    X: np.ndarray
    y: np.ndarray | None
    dropped: dict[int, str] = field(default_factory=dict)
    #: argv of an untimed CLI run that must precede the timed ones;
    #: the timed argv gets its ``--out`` from the caller
    prepare: list[str] | None = None

    def kept(self) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of the rows cleaning should keep."""
        rows = np.setdiff1d(np.arange(self.X.shape[0]),
                            np.fromiter(self.dropped, dtype=np.int64))
        return self.X[rows], self.y[rows]


def _seeds(seed: int):
    """Independent child streams: main data and fresh scoring rows."""
    return np.random.SeedSequence(seed).spawn(2)


def make_labelled(workdir: str, seed: int, rows: int) -> Inputs:
    """Raw labelled rows with NA cells and income outliers, no noise."""
    rng = np.random.Generator(np.random.PCG64(_seeds(seed)[0]))
    X, y = draw(rng, rows)
    outliers = rng.random(rows) < OUTLIER_RATE
    X[outliers, INCOME] = rng.uniform(*OUTLIER_RANGE, int(outliers.sum()))
    na = rng.random((rows, len(SCHEMA) + 1)) < NA_RATE
    columns = _render(X, labelled=True) + [[str(v) for v in y.tolist()]]
    dropped = {}
    for i, j in zip(*np.nonzero(na)):
        columns[j][i] = "NA"
    header = NAMES + [TARGET]
    first_na = na.argmax(axis=1)
    for i in np.nonzero(na.any(axis=1) | outliers)[0].tolist():
        dropped[i] = (f"missing:{header[first_na[i]]}" if na[i].any()
                      else f"outlier:{NAMES[INCOME]}")
    data = os.path.join(workdir, "raw.csv")
    book = os.path.join(workdir, "codebook.csv")
    write_table(data, columns, header)
    write_codebook(book)
    return Inputs(
        argv=["pipeline", "--input", data, "--codebook", book],
        files={"raw.csv": data, "codebook.csv": book},
        rows={"input": rows, "dropped": len(dropped)},
        X=X, y=y, dropped=dropped)


def _coded(path: str, X: np.ndarray, y: np.ndarray | None) -> None:
    columns = _render(X, labelled=False)
    names = list(NAMES)
    if y is not None:
        columns.append([str(v) for v in y.tolist()])
        names.append(TARGET)
    write_table(path, columns, names)


DEEP_NOISE = 0.2
#: Deep enough that every leaf ends pure: a cap such as 20 truncates the
#: tree at a seed-dependent point, and the node count (so the cost)
#: then varies twofold between seeds.
DEEP_MAX_DEPTH = 64


def make_deep(workdir: str, seed: int, rows: int) -> Inputs:
    """Coded rows with label noise; every variable survives screening."""
    rng = np.random.Generator(np.random.PCG64(_seeds(seed)[0]))
    X, y = draw(rng, rows, noise=DEEP_NOISE)
    data = os.path.join(workdir, "coded.csv")
    book = os.path.join(workdir, "codebook.csv")
    _coded(data, X, y)
    write_codebook(book)
    argv = ["pipeline", "--input", data, "--codebook", book,
            "--skip-codebook", "--alpha", "0.999999", "--r-threshold", "1.0",
            "--min-node-size", "1", "--max-depth", str(DEEP_MAX_DEPTH)]
    return Inputs(argv=argv, files={"coded.csv": data, "codebook.csv": book},
                  rows={"input": rows}, X=X, y=y)


def make_batch(workdir: str, seed: int, rows: int, train_rows: int) -> Inputs:
    """Fresh unlabelled coded rows scored against the model that the
    deep workload's command grows from train_rows rows of the seed."""
    train = make_deep(workdir, seed, train_rows)
    model_dir = os.path.join(workdir, "model")
    rng = np.random.Generator(np.random.PCG64(_seeds(seed)[1]))
    X, _ = draw(rng, rows)
    data = os.path.join(workdir, "fresh.csv")
    _coded(data, X, None)
    model = os.path.join(model_dir, "model.json")
    return Inputs(
        argv=["predict", "--input", data, "--model", model],
        files={**train.files, "fresh.csv": data},
        rows={"input": rows, "train": train_rows}, X=X, y=None,
        prepare=train.argv + ["--out", model_dir])


# -- oracles -----------------------------------------------------------------


def route(model: dict, X: np.ndarray):
    """Rows reaching each node of model.json's preorder node records,
    and each node's depth."""
    nodes = model["nodes"]
    reach = [np.empty(0, dtype=np.int64)] * len(nodes)
    depth = [0] * len(nodes)
    stack = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        i, idx, d = stack.pop()
        reach[i], depth[i] = idx, d
        node = nodes[i]
        if node["left"] is None:
            continue
        col = X[idx, node["feature_index"]]
        if node["threshold"] is not None:
            left = col <= node["threshold"]
        else:
            left = np.isin(col, node["subset"])
        stack.append((node["left"], idx[left], d + 1))
        stack.append((node["right"], idx[~left], d + 1))
    return reach, depth


def predict(model: dict, reach: list) -> tuple[np.ndarray, np.ndarray]:
    """(class, score) of every routed row from its leaf record."""
    n = sum(r.size for r, node in zip(reach, model["nodes"])
            if node["left"] is None)
    classes, scores = np.empty(n, dtype=np.int64), np.empty(n)
    for rows, node in zip(reach, model["nodes"]):
        if node["left"] is None:
            classes[rows], scores[rows] = node["class"], node["p1"]
    return classes, scores


def _load(outdir: str, name: str):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _confusion(actual: np.ndarray, predicted: np.ndarray) -> dict:
    return {"vp": int(np.sum((actual == 1) & (predicted == 1))),
            "vn": int(np.sum((actual == 0) & (predicted == 0))),
            "fp": int(np.sum((actual == 0) & (predicted == 1))),
            "fn": int(np.sum((actual == 1) & (predicted == 0)))}


def check_pipeline(outdir: str, inputs: Inputs) -> list[str]:
    """Oracles shared by both pipelines; the tree is grown on and
    evaluated on every kept row."""
    manifest = _load(outdir, "manifest.json")
    states = [s["status"] for s in manifest["stages"]]
    if states != ["completed"] * 4:
        return [f"pipeline stages {states}"]
    problems = []
    with open(os.path.join(outdir, "cleaning.log"), encoding="utf-8") as fh:
        logged = {int(i): reason for i, reason in
                  (line.rstrip("\n").split("\t") for line in fh)}
    if logged != inputs.dropped:
        problems.append(
            f"cleaning.log names {len(logged)} rows, generator spoiled "
            f"{len(inputs.dropped)}; {len(set(logged) ^ set(inputs.dropped))}"
            " differ")
    X, y = inputs.kept()
    encoded = np.loadtxt(os.path.join(outdir, "encoded.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
    if encoded.shape != (y.size, X.shape[1] + 1) or not (
            np.array_equal(encoded[:, :-1], X)
            and np.array_equal(encoded[:, -1], y)):
        problems.append("encoded.csv differs from the generated kept rows")
    model = _load(outdir, "model.json")
    reach, _ = route(model, X)
    miscounted = sum(
        1 for rows, node in zip(reach, model["nodes"])
        if node["counts"] != [int(np.sum(y[rows] == 0)),
                              int(np.sum(y[rows] == 1))])
    if miscounted:
        problems.append(f"{miscounted} model.json node counts differ from "
                        "the rows the router sends there")
    report = _load(outdir, "eval.json")
    expected = _confusion(y, predict(model, reach)[0])
    found = {k: report[k] for k in expected}
    if found != expected:
        problems.append(f"eval.json confusion {found}, router gives "
                        f"{expected}")
    return problems


#: The CLI defaults the labelled workload runs with.
MIN_NODE_SIZE = 5
MAX_DEPTH = 10


def check_labelled(outdir: str, inputs: Inputs) -> list[str]:
    """Shared oracles, and the noise-free planted rule is recovered: a
    leaf holds both classes only where the stopping rules forbade a
    split (a greedy Gini cut can strand a few rows near a threshold)."""
    problems = check_pipeline(outdir, inputs)
    if problems:
        return problems
    X, y = inputs.kept()
    model = _load(outdir, "model.json")
    reach, depth = route(model, X)
    mixed = [i for i, (rows, node) in enumerate(zip(reach, model["nodes"]))
             if node["left"] is None and 0 < int(y[rows].sum()) < rows.size
             and rows.size >= MIN_NODE_SIZE and depth[i] < MAX_DEPTH]
    if mixed:
        problems.append(f"leaves {mixed} hold both classes yet could split")
    return problems


def check_batch(outdir: str, inputs: Inputs) -> list[str]:
    model = _load(os.path.dirname(inputs.argv[inputs.argv.index("--model")
                                              + 1]), "model.json")
    classes, scores = predict(model, route(model, inputs.X)[0])
    path = os.path.join(outdir, "predictions.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    if header != NAMES + ["predicted_class", "score"]:
        return [f"predictions.csv header {header}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if table.shape != (inputs.X.shape[0], len(NAMES) + 2):
        return [f"predictions.csv shape {table.shape}"]
    if not np.array_equal(table[:, :-2], inputs.X):
        problems.append("predictions.csv feature cells differ from input")
    if not np.array_equal(table[:, -2], classes):
        problems.append(f"{int(np.sum(table[:, -2] != classes))} "
                        "predicted_class cells differ from the router")
    if not np.array_equal(table[:, -1], scores):
        problems.append(f"{int(np.sum(table[:, -1] != scores))} "
                        "score cells differ from the router")
    return problems
