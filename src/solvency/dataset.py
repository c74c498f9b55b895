"""Tabular credit data: schema, label encoding, and row cleaning.

The flow is load_csv -> apply_codebook -> clean.  A dataset holds
float64 columns with NaN for a missing value, plus the raw text labels
of categorical columns not yet encoded.  apply_codebook turns labels
into integer codes and clean drops rows carrying missing values or
numeric outliers, so the modelling stages only see dense columns.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

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

#: Rows converted per block while reading a CSV, which bounds the cell
#: text held at once.
_BLOCK_ROWS = 4096


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
            # float64 columns hold integers exactly up to 2**53
            if any(abs(code) > 2 ** 53 for code in table.values()):
                raise ValueError(
                    f"feature {feature!r} has a code outside [-2**53, 2**53]")
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
        with _csv_reader(path, csv.DictReader) as reader:
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
        try:
            return cls(mappings)
        except ValueError as exc:
            raise CodeBookError(f"{path}: {exc}") from None

    @classmethod
    def infer(cls, data: "Dataset") -> "CodeBook":
        """Assign codes by first appearance in the raw labels.

        Two-level features follow the boolean convention (first label
        seen -> 1, second -> 0); wider features count up from 1.
        Features are listed in the order their first label appears.
        """
        mappings, first = {}, {}
        for name, column in data.labels.items():
            present = ~np.equal(column, None)
            labels = list(dict.fromkeys(column[present].tolist()))
            if labels:
                first[name] = (int(present.argmax()), data.schema[name].index)
                mappings[name] = (
                    {labels[0]: 1, labels[1]: 0} if len(labels) == 2
                    else {lab: i + 1 for i, lab in enumerate(labels)})
        return cls({name: mappings[name]
                    for name in sorted(mappings, key=first.get)})


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


@dataclass(eq=False)
class Dataset:
    """Feature columns plus a target column.

    X holds one float64 column per schema feature, in schema order, and
    y the target; NaN marks a missing value in both.  A categorical
    column that has not been through the codebook keeps its raw text
    labels in labels[name], an object array with None for a missing
    cell, and holds NaN in X.
    """

    schema: Schema
    X: np.ndarray
    y: np.ndarray
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        shape = (self.y.shape[0], len(self.schema))
        if (self.X.shape != shape or self.y.ndim != 1 or any(
                col.shape != shape[:1] for col in self.labels.values())):
            raise RaggedRowError(
                f"columns do not form {shape[0]} rows of {shape[1]} "
                "features plus a target")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def column(self, name: str) -> np.ndarray:
        """The named column: target, raw labels, or feature values."""
        if name == self.schema.target:
            return self.y
        if name in self.labels:
            return self.labels[name]
        return self.X[:, self.schema[name].index]

    def feature_array(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense row-major copy of the requested feature columns; the
        layout fixes the order in which reductions add values up."""
        specs = (self.schema.features if names is None
                 else [self.schema[n] for n in names])
        return self.X.take([spec.index for spec in specs], axis=1)

    def binary_target(self) -> np.ndarray:
        """Target as an int array, insisting every value is 0 or 1."""
        y = self.y
        if not np.all((y == 0.0) | (y == 1.0)):
            bad = y[(y != 0.0) & (y != 1.0)][0]
            raise DataError(f"target value {bad!r} is not 0 or 1")
        return y.astype(int)

    def codes(self, name: str) -> np.ndarray:
        """A categorical column as an int array, insisting every cell is
        a whole number within 2**53."""
        x = self.X[:, self.schema[name].index]
        bad = np.flatnonzero((x != np.trunc(x)) | ~(np.abs(x) <= 2.0 ** 53))
        if bad.size:
            raise DataError(
                f"row {bad[0]} holds {float(x[bad[0]])!r} in categorical "
                f"feature {name!r}, which is not a whole number within 2**53")
        return x.astype(np.int64)

    def select(self, indices: Iterable[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.schema, self.X[idx], self.y[idx],
                       {name: col[idx] for name, col in self.labels.items()})

    def split(self, fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded (train, holdout) partition; both keep original row order."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("holdout fraction must be inside (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n)
        k = int(round(fraction * self.n))
        return self.select(np.sort(perm[k:])), self.select(np.sort(perm[:k]))


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
    target name, in any order; columns are matched by name.  Cells are
    stripped of whitespace; a cell equal to a missing token is missing.
    Numeric cells are read with Python's float(), and a cell it refuses
    or reads as non-finite is missing too.  With encoded=True
    categorical cells are read as numeric codes; otherwise they are
    kept as text labels.  With target_optional=True the target column
    may be absent, in which case every row gets a missing target
    (useful for scoring unlabeled rows).
    """
    found = read_header(path)
    missing = {tok.strip() for tok in missing_tokens}
    labelled = [f.name for f in schema.features
                if f.kind == CATEGORICAL and not encoded]
    with _csv_reader(path) as reader:
        next(reader)
        has_target = not (target_optional and schema.target not in found)
        expected = set(schema.names) | ({schema.target} if has_target
                                        else set())
        if set(found) != expected or len(found) != len(expected):
            raise HeaderMismatchError(
                f"header mismatch: expected columns {sorted(expected)}, "
                f"found {found}")
        names = schema.names + ([schema.target] if has_target else [])
        parts = {name: [np.empty(0, object if name in labelled else float)]
                 for name in names}
        start = 0
        while block := list(islice(reader, _BLOCK_ROWS)):
            widths = np.fromiter(map(len, block), np.intp, len(block))
            ragged = np.flatnonzero(widths != len(found))
            if ragged.size:
                i = ragged[0]
                raise RaggedRowError(
                    f"row {start + i} has {widths[i]} cells, "
                    f"expected {len(found)}")
            cells = list(zip(*block))
            for name, part in parts.items():
                part.append(_parse_cells(cells[found.index(name)], missing,
                                         text=name in labelled))
            start += len(block)
    columns = {name: np.concatenate(part) for name, part in parts.items()}
    labels = {name: columns.pop(name) for name in labelled}
    X = np.full((start, len(schema)), np.nan)
    for spec in schema.features:
        if spec.name in columns:
            X[:, spec.index] = columns[spec.name]
    y = columns.get(schema.target, np.full(start, np.nan))
    return Dataset(schema, X, y, labels)


def _parse_cells(cells: tuple[str, ...], missing: set[str],
                 text: bool) -> np.ndarray:
    """One column of a block: the stripped labels with None where
    missing when text is set, else float() of each cell with NaN where
    a cell is missing, not a number, or not finite."""
    stripped = np.array(list(map(str.strip, cells)), dtype=object)
    absent = np.fromiter(map(missing.__contains__, stripped), bool,
                         len(stripped))
    if text:
        stripped[absent] = None
        return stripped
    values = np.full(len(stripped), np.nan)
    values[~absent] = _to_float(stripped[~absent])
    values[~np.isfinite(values)] = np.nan
    return values


def _to_float(cells: np.ndarray) -> np.ndarray:
    """float() of every cell, NaN where float() refuses one."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        # halve the distinct cells until the ones float() refuses stand
        # alone; a column of text has few distinct cells
        distinct, inverse = np.unique(cells, return_inverse=True)
        if len(distinct) == 1:
            return np.full(len(cells), np.nan)
        half = len(distinct) // 2
        return np.concatenate([_to_float(distinct[:half]),
                               _to_float(distinct[half:])])[inverse]


def write_csv(data: Dataset, path: str) -> None:
    """Write header plus rows, each cell as text_rows renders it."""
    names = data.schema.names + [data.schema.target]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for rows in text_rows([data.column(name) for name in names]):
            writer.writerows(rows)


def read_back(data: Dataset,
              missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS
              ) -> Dataset:
    """The dataset load_csv(..., encoded=True) reads from the file
    write_csv makes of data, without the file.  Rendering and float()
    round-trip every finite value except -0.0, which is written as 0,
    and a cell whose text equals a missing token reads back missing, as
    does a non-finite one."""
    if data.labels:
        raise ValueError("read_back needs coded columns, not raw labels")
    written_as_token = []
    for token in {tok.strip() for tok in missing_tokens}:
        try:
            value = float(token)
        except ValueError:
            continue
        if np.isfinite(value) and _format_cells(np.array([value])) == [token]:
            written_as_token.append(value)
    X, y = np.add(data.X, 0.0, order="C"), data.y + 0.0
    for values in (X, y):
        values[~np.isfinite(values) | np.isin(values, written_as_token)] = \
            np.nan
    return Dataset(data.schema, X, y)


def text_rows(columns: Sequence[np.ndarray]) -> Iterator:
    """Rows of cell text of equally long columns, one iterator of row
    tuples per block of rows, so a table's text is never held whole."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield zip(*(_format_cells(column[start:stop]) for column in columns))


def _format_cells(values: np.ndarray) -> list[str]:
    """Text of one column's cells: labels as they are, "" for a missing
    value, whole numbers without a decimal part, and other numbers at
    repr precision."""
    if values.dtype == object:
        return np.where(np.equal(values, None), "", values).tolist()
    text = np.full(values.shape, "", dtype=object)
    whole = np.isfinite(values) & (values == np.trunc(values))
    text[whole] = np.fromiter(map(str, map(int, values[whole].tolist())),
                              object)
    rest = ~whole & ~np.isnan(values)
    text[rest] = np.fromiter(map(repr, values[rest].tolist()), object)
    return text.tolist()


def apply_codebook(data: Dataset, book: CodeBook) -> Dataset:
    """Replace categorical labels with their integer codes.

    Missing values pass through untouched; a label absent from the
    codebook aborts with the offending feature, label, and row index
    (the first such row, then the first such feature in it).
    """
    for f in data.schema.features:
        if f.kind == CATEGORICAL and f.name not in book:
            raise UnknownLabelError(f.name, "<no mapping>", -1)
    X = data.X.copy()
    unknown = []
    for name, labels in data.labels.items():
        j = data.schema[name].index
        # codes are finite, so inf marks a label the book lacks
        codes = {None: np.nan, **book.mappings[name]}
        X[:, j] = np.fromiter(map(codes.get, labels, repeat(np.inf)), float,
                              data.n)
        if np.isinf(X[:, j]).any():
            row = int(np.isinf(X[:, j]).argmax())
            unknown.append((row, j, name, labels[row]))
    if unknown:
        row, _, name, label = min(unknown)
        raise UnknownLabelError(name, label, row)
    return Dataset(data.schema, X, data.y)


def clean(
    data: Dataset,
    rule: OutlierRule = OutlierRule(),
) -> tuple[Dataset, CleaningLog]:
    """Drop rows with missing values, then rows with numeric outliers.

    Outlier fences are recomputed and reapplied until no row is
    dropped, which makes cleaning idempotent: running clean on its own
    output removes nothing.  Each round's fences come from the kept
    rows in their original order.  The log records each dropped row's
    original position and the first offending column in schema order
    (the target comes last).  Surviving rows keep their relative order.
    """
    names = data.schema.names + [data.schema.target]
    holes = np.isnan(np.column_stack([data.X, data.y]))
    for name, column in data.labels.items():
        holes[:, data.schema[name].index] = np.equal(column, None)
    dropped = holes.any(axis=1)
    rows = [np.flatnonzero(dropped)]
    reasons = [np.array([f"missing:{name}" for name in names],
                        dtype=object)[holes[dropped].argmax(axis=1)]]
    kept = np.flatnonzero(~dropped)

    numeric = [f for f in data.schema.features if f.kind == NUMERIC]
    outlier = np.array([f"outlier:{f.name}" for f in numeric], dtype=object)
    while rule.method != "off" and numeric and kept.size:
        outside = np.empty((kept.size, len(numeric)), dtype=bool)
        for j, f in enumerate(numeric):
            values = data.X[kept, f.index]
            low, high = rule.fences(values)
            outside[:, j] = ~((low <= values) & (values <= high))
        bad = outside.any(axis=1)
        if not bad.any():
            break
        rows.append(kept[bad])
        reasons.append(outlier[outside[bad].argmax(axis=1)])
        kept = kept[~bad]

    rows, reasons = np.concatenate(rows), np.concatenate(reasons)
    order = np.argsort(rows)
    log = CleaningLog(list(zip(rows[order].tolist(),
                               reasons[order].tolist())))
    if not kept.size:
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
    path: str = "header",
) -> Schema:
    """Build a schema from CSV column names.

    Columns present in the codebook become categorical with the book's
    modality count; everything else is numeric.  A column named twice
    raises HeaderMismatchError naming path, the file the header is from.
    """
    header = list(header)
    for i, name in enumerate(header):
        if name in header[:i]:
            raise HeaderMismatchError(
                f"{path} names column {name!r} more than once")
    if target not in header:
        raise HeaderMismatchError(
            f"target column {target!r} not in header {list(header)}")
    return Schema([FeatureSpec(name, CATEGORICAL, levels=book.levels(name))
                   if book is not None and name in book
                   else FeatureSpec(name, NUMERIC)
                   for name in header if name != target], target)


def read_header(path: str) -> list[str]:
    if not os.path.exists(path):
        raise MissingFileError(f"input file not found: {path}")
    with _csv_reader(path) as reader:
        try:
            return [h.strip() for h in next(reader)]
        except StopIteration:
            raise HeaderMismatchError(f"{path} is empty, no header row")


@contextmanager
def _csv_reader(path: str, kind=csv.reader):
    """A csv reader of the given kind over the UTF-8 text of path.  A
    byte that is not UTF-8, or a line the csv module rejects, raises
    DataError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = kind(fh)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path} is not UTF-8 text: byte "
                f"0x{exc.object[exc.start]:02x} cannot be decoded") from None
        except csv.Error as exc:
            # a DictReader counts a line only once it has parsed it
            line = getattr(reader, "reader", reader).line_num
            raise DataError(f"{path} line {line}: {exc}") from None
