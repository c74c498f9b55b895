"""Tabular credit data: schema, label encoding, and row cleaning.

The flow is load_csv -> apply_codebook -> clean.  A freshly loaded
dataset may hold missing markers (None) and, in categorical columns,
raw text labels.  apply_codebook turns labels into integer codes and
clean drops rows carrying missing markers or numeric outliers, so the
modelling stages downstream only ever see dense numeric rows.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CodeBookError,
    DataError,
    EmptyDatasetError,
    EmptyDistributionError,
    EmptyResultError,
    HeaderMismatchError,
    MissingFileError,
    RaggedRowError,
    UnknownLabelError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Cell contents treated as a missing marker (after whitespace strip).
DEFAULT_MISSING_TOKENS = ("", "NA", "N/A")


@dataclass(frozen=True)
class FeatureSpec:
    """One input column: its name, kind, and position in the row layout.

    levels is the modality count and is only meaningful for categorical
    features, where it must be at least 2.
    """

    name: str
    kind: str
    levels: int | None = None
    index: int = 0

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.levels is None or self.levels < 2:
                raise ValueError(
                    f"categorical feature {self.name!r} needs >= 2 levels")


class Schema:
    """Ordered feature specs plus the target column name."""

    def __init__(self, features: Sequence[FeatureSpec], target: str):
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names in schema")
        if target in names:
            raise ValueError(f"target {target!r} collides with a feature")
        self.features = tuple(
            replace(f, index=i) for i, f in enumerate(features))
        self.target = target

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def __len__(self):
        return len(self.features)

    def __eq__(self, other):
        return (isinstance(other, Schema)
                and self.features == other.features
                and self.target == other.target)

    def __getitem__(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)

    def fingerprint(self) -> tuple:
        """Hashable identity used to refuse mismatched model/data pairs."""
        return tuple((f.name, f.kind, f.levels) for f in self.features) + (
            self.target,)

    def __repr__(self):
        kinds = ", ".join(f"{f.name}:{f.kind[0]}" for f in self.features)
        return f"Schema({kinds} -> {self.target})"


class CodeBook:
    """Label -> integer code maps for the categorical features.

    Insertion order of labels is preserved; codes within one feature
    must be distinct so decoding is exact.
    """

    def __init__(self, mappings: dict[str, dict[str, int]]):
        self.mappings = {k: dict(v) for k, v in mappings.items()}
        for feature, table in self.mappings.items():
            if len(set(table.values())) != len(table):
                raise ValueError(f"duplicate codes for feature {feature!r}")
            if len(table) < 2:
                raise ValueError(f"feature {feature!r} has fewer than 2 labels")
        self._inverse = {
            feature: {code: label for label, code in table.items()}
            for feature, table in self.mappings.items()
        }

    def features(self) -> list[str]:
        return list(self.mappings)

    def levels(self, feature: str) -> int:
        return len(self.mappings[feature])

    def encode(self, feature: str, label: str) -> int:
        return self.mappings[feature][label]

    def decode(self, feature: str, code: int) -> str:
        return self._inverse[feature][code]

    def __contains__(self, feature: str) -> bool:
        return feature in self.mappings

    def __eq__(self, other):
        return isinstance(other, CodeBook) and self.mappings == other.mappings

    def save(self, path: str) -> None:
        """Write one (feature, label, code) record per row."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "label", "code"])
            for feature, table in self.mappings.items():
                for label, code in table.items():
                    writer.writerow([feature, label, code])

    @classmethod
    def load(cls, path: str) -> "CodeBook":
        if not os.path.exists(path):
            raise MissingFileError(f"codebook file not found: {path}")
        mappings: dict[str, dict[str, int]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            expected = {"feature", "label", "code"}
            if reader.fieldnames is None or set(reader.fieldnames) != expected:
                raise HeaderMismatchError(
                    f"codebook header must be {sorted(expected)}, "
                    f"found {reader.fieldnames}")
            for record in reader:
                feature, code = record["feature"], record["code"]
                try:
                    code = int(code)
                except (TypeError, ValueError):
                    raise CodeBookError(
                        f"{path} line {reader.line_num}: code {code!r} of "
                        f"feature {feature!r} is not an integer") from None
                mappings.setdefault(feature, {})[record["label"]] = code
        return cls(mappings)

    @classmethod
    def infer(cls, data: "Dataset") -> "CodeBook":
        """Assign codes by first appearance in the raw data.

        Two-level features follow the boolean convention (first label
        seen -> 1, second -> 0); wider features count up from 1.
        """
        order: dict[str, list[str]] = {}
        cat = [f for f in data.schema.features if f.kind == CATEGORICAL]
        for row in data.rows:
            for f in cat:
                label = row[f.index]
                if label is None:
                    continue
                seen = order.setdefault(f.name, [])
                if label not in seen:
                    seen.append(label)
        mappings = {}
        for name, labels in order.items():
            if len(labels) == 2:
                mappings[name] = {labels[0]: 1, labels[1]: 0}
            else:
                mappings[name] = {lab: i + 1 for i, lab in enumerate(labels)}
        return cls(mappings)


#: Codes for the seven nominal variables of the bundled credit schema.
DEFAULT_CODEBOOK = CodeBook({
    "NAME_CONTRACT_TYPE": {"Cash loans": 1, "Revolving loans": 0},
    "CODE_GENDER": {"F": 1, "M": 0},
    "FLAG_OWN_CAR": {"Y": 1, "N": 0},
    "NAME_INCOME_TYPE": {
        "State servant": 1,
        "Working": 2,
        "Commercial associate": 3,
        "Pensioner": 4,
    },
    "NAME_FAMILY_STATUS": {
        "Married": 1,
        "Single / not married": 2,
        "Civil marriage": 3,
        "Separated": 4,
        "Widow": 5,
    },
    "NAME_HOUSING_TYPE": {
        "House / apartment": 1,
        "With parents": 2,
        "Municipal apartment": 3,
        "Office apartment": 4,
        "Co-op apartment": 5,
        "Rented apartment": 6,
    },
    "NAME_EDUCATION_TYPE": {
        "Higher education": 1,
        "Incomplete higher": 2,
        "Secondary / secondary special": 3,
        "Lower secondary": 4,
    },
})


@dataclass(frozen=True)
class ClassDistribution:
    """Row counts per target class, in class-code order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or any(c < 0 for c in self.counts):
            raise ValueError(f"invalid class counts {self.counts!r}")
        if self.total < 1:
            raise EmptyDistributionError("class distribution over zero rows")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def proportions(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


@dataclass
class Dataset:
    """Rows of feature values plus a trailing target value.

    Cell conventions: numeric columns hold floats, categorical columns
    hold str labels before encoding and int codes after, and None marks
    a missing value.  The target is always the last element of a row.
    """

    schema: Schema
    rows: list[list]

    def __post_init__(self):
        width = len(self.schema) + 1
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RaggedRowError(
                    f"row {i} has {len(row)} values, expected {width}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        if name == self.schema.target:
            return [row[-1] for row in self.rows]
        i = self.schema[name].index
        return [row[i] for row in self.rows]

    def feature_array(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense float matrix of the requested feature columns."""
        specs = (self.schema.features if names is None
                 else [self.schema[n] for n in names])
        out = np.empty((self.n, len(specs)), dtype=float)
        for j, spec in enumerate(specs):
            out[:, j] = [row[spec.index] for row in self.rows]
        return out

    def target_array(self) -> np.ndarray:
        return np.asarray([row[-1] for row in self.rows], dtype=float)

    def binary_target(self) -> np.ndarray:
        """Target as an int array, insisting every value is 0 or 1."""
        y = self.target_array()
        if not np.all((y == 0.0) | (y == 1.0)):
            bad = y[(y != 0.0) & (y != 1.0)][0]
            raise DataError(f"target value {bad!r} is not 0 or 1")
        return y.astype(int)

    def select(self, indices: Iterable[int]) -> "Dataset":
        return Dataset(self.schema, [self.rows[i] for i in indices])

    def split(self, fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded (train, holdout) partition; both keep original row order."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("holdout fraction must be inside (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n)
        k = int(round(fraction * self.n))
        held = sorted(perm[:k].tolist())
        kept = sorted(perm[k:].tolist())
        return self.select(kept), self.select(held)


@dataclass
class CleaningLog:
    """Per-row drop records: (original row index, reason)."""

    entries: list[tuple[int, str]] = field(default_factory=list)

    def to_text(self) -> str:
        return "".join(f"{i}\t{reason}\n" for i, reason in self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class OutlierRule:
    """How clean() decides a numeric value is an outlier.

    method "iqr" uses Tukey fences at multiplier * IQR beyond the
    quartiles (linear-interpolation quartiles).  method "zscore" cuts
    at z_threshold population standard deviations from the mean.
    method "off" disables outlier removal.
    """

    method: str = "iqr"
    multiplier: float = 1.5
    z_threshold: float = 3.0

    def __post_init__(self):
        if self.method not in ("iqr", "zscore", "off"):
            raise ValueError(f"unknown outlier method {self.method!r}")
        if self.multiplier <= 0 or self.z_threshold <= 0:
            raise ValueError("outlier cutoffs must be positive")

    def fences(self, values: np.ndarray) -> tuple[float, float]:
        """Inclusive [low, high] range of acceptable values."""
        if self.method == "iqr":
            q1, q3 = np.percentile(values, [25.0, 75.0])
            spread = self.multiplier * (q3 - q1)
            return q1 - spread, q3 + spread
        mean = float(values.mean())
        sd = float(values.std())
        return mean - self.z_threshold * sd, mean + self.z_threshold * sd


def load_csv(
    path: str,
    schema: Schema,
    *,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    encoded: bool = False,
    target_optional: bool = False,
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    The header must contain exactly the schema's feature names plus the
    target name, in any order; columns are matched by name.  Numeric
    cells that fail to parse (or parse to a non-finite value) become
    missing markers.  With encoded=True categorical cells are read as
    integer codes instead of labels.  With target_optional=True the
    target column may be absent, in which case every row gets a missing
    target (useful for scoring unlabeled rows).
    """
    if not os.path.exists(path):
        raise MissingFileError(f"input file not found: {path}")
    missing = {tok.strip() for tok in missing_tokens}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatchError(f"{path} is empty, no header row")
        found = [h.strip() for h in header]
        has_target = not (target_optional and schema.target not in found)
        expected = set(schema.names) | ({schema.target} if has_target
                                        else set())
        if set(found) != expected or len(found) != len(expected):
            raise HeaderMismatchError(
                f"header mismatch: expected columns {sorted(expected)}, "
                f"found {found}")
        positions = {name: found.index(name) for name in expected}
        rows = []
        for lineno, record in enumerate(reader):
            if len(record) != len(found):
                raise RaggedRowError(
                    f"row {lineno} has {len(record)} cells, "
                    f"expected {len(found)}")
            row = []
            for spec in schema.features:
                cell = record[positions[spec.name]].strip()
                if cell in missing:
                    row.append(None)
                elif spec.kind == NUMERIC or encoded:
                    row.append(_parse_number(cell, integer=spec.kind == CATEGORICAL))
                else:
                    row.append(cell)
            if has_target:
                target_cell = record[positions[schema.target]].strip()
                row.append(None if target_cell in missing
                           else _parse_number(target_cell))
            else:
                row.append(None)
            rows.append(row)
    return Dataset(schema, rows)


def _parse_number(cell: str, integer: bool = False):
    try:
        value = float(cell)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return int(value) if integer and value == int(value) else value


def write_csv(data: Dataset, path: str) -> None:
    """Write header plus rows; integer cells print without a decimal part."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.schema.names + [data.schema.target])
        for row in data.rows:
            writer.writerow(["" if v is None else _format_cell(v)
                             for v in row])


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def apply_codebook(data: Dataset, book: CodeBook) -> Dataset:
    """Replace categorical labels with their integer codes.

    Missing markers pass through untouched; a label absent from the
    codebook aborts with the offending feature, label, and row index.
    """
    cat = [f for f in data.schema.features if f.kind == CATEGORICAL]
    for f in cat:
        if f.name not in book:
            raise UnknownLabelError(f.name, "<no mapping>", -1)
    rows = []
    for i, row in enumerate(data.rows):
        new = list(row)
        for f in cat:
            label = row[f.index]
            if label is None or isinstance(label, (int, np.integer)):
                continue
            try:
                new[f.index] = book.encode(f.name, label)
            except KeyError:
                raise UnknownLabelError(f.name, label, i) from None
        rows.append(new)
    return Dataset(data.schema, rows)


def clean(
    data: Dataset,
    rule: OutlierRule = OutlierRule(),
) -> tuple[Dataset, CleaningLog]:
    """Drop rows with missing markers, then rows with numeric outliers.

    Outlier fences are recomputed and reapplied until no row is
    dropped, which makes cleaning idempotent: running clean on its own
    output removes nothing.  The log records each dropped row's
    original position and the first offending column.  Surviving rows
    keep their relative order.
    """
    log = CleaningLog()
    numeric = [f for f in data.schema.features if f.kind == NUMERIC]

    kept: list[int] = []
    for i, row in enumerate(data.rows):
        offender = next(
            (f.name for f in data.schema.features if row[f.index] is None),
            None)
        if offender is None and row[-1] is None:
            offender = data.schema.target
        if offender is None:
            kept.append(i)
        else:
            log.entries.append((i, f"missing:{offender}"))

    if rule.method != "off" and numeric:
        while kept:
            fences = {}
            for f in numeric:
                col = np.asarray([data.rows[i][f.index] for i in kept],
                                 dtype=float)
                fences[f.name] = rule.fences(col)
            survivors = []
            for i in kept:
                offender = None
                for f in numeric:
                    low, high = fences[f.name]
                    if not low <= data.rows[i][f.index] <= high:
                        offender = f.name
                        break
                if offender is None:
                    survivors.append(i)
                else:
                    log.entries.append((i, f"outlier:{offender}"))
            if len(survivors) == len(kept):
                break
            kept = survivors

    log.entries.sort(key=lambda e: e[0])
    if not kept:
        raise EmptyResultError("cleaning removed every row")
    return data.select(kept), log


def class_distribution(data: Dataset) -> ClassDistribution:
    """Counts of target classes 0 and 1."""
    if data.n == 0:
        raise EmptyDatasetError("cannot take class distribution of 0 rows")
    y = data.binary_target()
    return ClassDistribution((int(np.sum(y == 0)), int(np.sum(y == 1))))


def schema_from_header(
    header: Sequence[str],
    target: str,
    book: CodeBook | None = None,
) -> Schema:
    """Build a schema from CSV column names.

    Columns present in the codebook become categorical with the book's
    modality count; everything else is numeric.
    """
    if target not in header:
        raise HeaderMismatchError(
            f"target column {target!r} not in header {list(header)}")
    features = []
    for name in header:
        if name == target:
            continue
        if book is not None and name in book:
            features.append(
                FeatureSpec(name, CATEGORICAL, levels=book.levels(name)))
        else:
            features.append(FeatureSpec(name, NUMERIC))
    return Schema(features, target)


def read_header(path: str) -> list[str]:
    if not os.path.exists(path):
        raise MissingFileError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise HeaderMismatchError(f"{path} is empty, no header row")
