"""Tabular credit data: schema, label encoding, and row cleaning.

The flow is load_csv -> clean.  A dataset holds float64 columns with
NaN for a missing value.  Given a codebook, load_csv turns each block's
categorical labels into integer codes as it reads them (apply_codebook),
and clean drops rows carrying missing values or numeric outliers, so
the modelling stages only see dense columns.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Cell contents treated as a missing marker (after whitespace strip).
DEFAULT_MISSING_TOKENS = ("", "NA", "N/A")

#: Rows converted per block while reading or writing a CSV, which
#: bounds the cell text held at once.
_BLOCK_ROWS = 4096

#: Characters of a text that is not plain split into lines at once.
_TEXT_CHUNK = 2 ** 20

#: Text of the whole numbers below 1024, which most coded and 0/1 cells
#: are: one gather renders a column of them.
_CODE_TEXT = np.array([str(i) for i in range(1024)], dtype=object)

#: A text cell holding one of these goes in quotes, as csv.writer's
#: minimal quoting puts it.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


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
            raise ConfigError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.levels is None or self.levels < 2:
                raise ConfigError(
                    f"categorical feature {self.name!r} needs >= 2 levels")


@dataclass
class Schema:
    """Ordered feature specs plus the target column name."""

    features: Sequence[FeatureSpec]
    target: str

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature names in schema")
        if self.target in names:
            raise ConfigError(
                f"target {self.target!r} collides with a feature")
        self.features = tuple(
            replace(f, index=i) for i, f in enumerate(self.features))

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def __len__(self):
        return len(self.features)

    def __getitem__(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)


def load_codebook(path: str) -> dict[str, dict[str, int]]:
    """A codebook file's {feature: {label: code}}, labels in file order.

    The header names feature, label and code once each, in any order,
    and every row holds three cells.  Feature names, labels and header
    names are stripped, as load_csv strips cells and header names.  A
    code that is not an integer, a label listed twice, duplicate codes,
    fewer than 2 labels, or a code beyond 2**53, which a float64 column
    would not hold exactly, raises DataError naming the file.
    """
    book: dict[str, dict[str, int]] = {}
    expected = ["code", "feature", "label"]
    with _csv_reader(path, "codebook") as reader:
        header = _header(reader, path)
        if sorted(header) != expected:
            raise DataError(
                f"{path}: codebook header must be {expected}, "
                f"found {header}")
        order = [header.index(name) for name in ("feature", "label", "code")]
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != 3:
                raise DataError(f"{where}: {len(row)} cells, expected 3")
            feature, label, code = (row[j] for j in order)
            feature, label = feature.strip(), label.strip()
            try:
                code = int(code)
            except ValueError:
                raise DataError(
                    f"{where}: code {code!r} of feature {feature!r} is not "
                    "an integer") from None
            labels = book.setdefault(feature, {})
            if label in labels:
                raise DataError(f"{where}: label {label!r} of feature "
                                f"{feature!r} is listed twice")
            labels[label] = code
    for feature, labels in book.items():
        codes = labels.values()
        if len(set(codes)) != len(codes):
            problem = f"duplicate codes for feature {feature!r}"
        elif len(codes) < 2:
            problem = f"feature {feature!r} has fewer than 2 labels"
        elif max(map(abs, codes)) > 2 ** 53:
            problem = f"feature {feature!r} has a code outside [-2**53, 2**53]"
        else:
            continue
        raise DataError(f"{path}: {problem}")
    return book


#: Codes for the seven nominal variables of the bundled credit schema.
DEFAULT_CODEBOOK = {
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
}


def json_number(value) -> bool:
    """Whether a parsed JSON value is a number that a float holds; int
    and float compare exactly, and NaN compares false."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def not_whole(values: np.ndarray) -> np.ndarray:
    """Where values are not whole numbers within 2**53, NaN included."""
    return (values != np.trunc(values)) | ~(np.abs(values) <= 2.0 ** 53)


def whole_codes(values: np.ndarray, feature: str, rows) -> np.ndarray:
    """Cells of a categorical feature as an int array; one that is not a
    whole number within 2**53 raises DataError naming it by rows."""
    bad = np.flatnonzero(not_whole(values))
    if bad.size:
        raise DataError(
            f"row {rows[bad[0]]} holds {float(values[bad[0]])!r} in "
            f"categorical feature {feature!r}, which is not a whole number "
            "within 2**53")
    return values.astype(np.int64)


def binary_codes(values: np.ndarray, target: str, rows) -> np.ndarray:
    """Target values as an int array; the first that is not 0 or 1, or
    none, raises DataError naming it by rows."""
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))
    if bad.size:
        i = bad[0]
        value = "missing" if np.isnan(values[i]) else repr(float(values[i]))
        raise DataError(f"target {target!r} of row {rows[i]} is {value}, "
                        "not 0 or 1")
    return values.astype(int)


@dataclass(eq=False)
class Dataset:
    """Feature columns plus a target column.

    X holds one float64 column per schema feature, in schema order, and
    y the target; NaN marks a missing value in both.  A categorical
    column holds integer codes.
    """

    schema: Schema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        shape = (self.y.shape[0], len(self.schema))
        if self.X.shape != shape or self.y.ndim != 1:
            raise DataError(
                f"columns do not form {shape[0]} rows of {shape[1]} "
                "features plus a target")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def column(self, name: str) -> np.ndarray:
        """The named column: target or feature values."""
        if name == self.schema.target:
            return self.y
        return self.X[:, self.schema[name].index]

    def feature_array(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense row-major copy of the requested feature columns; the
        layout fixes the order in which reductions add values up."""
        specs = (self.schema.features if names is None
                 else [self.schema[n] for n in names])
        return self.X.take([spec.index for spec in specs], axis=1)

    def binary_target(self) -> np.ndarray:
        """Target as an int array, insisting every value is 0 or 1."""
        return binary_codes(self.y, self.schema.target, range(self.n))

    def codes(self, name: str) -> np.ndarray:
        """A categorical column as an int array, insisting every cell is
        a whole number within 2**53."""
        return whole_codes(self.X[:, self.schema[name].index], name,
                           range(self.n))

    def select(self, indices: Iterable[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.schema, self.X[idx], self.y[idx])

    def split(self, fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded (train, holdout) partition; both keep original row order.
        A fraction outside (0, 1) raises ConfigError, and one that leaves
        either part without rows raises DataError."""
        if not 0.0 < fraction < 1.0:
            raise ConfigError("holdout fraction must lie inside (0, 1)")
        k = int(round(fraction * self.n))
        if k in (0, self.n):
            empty = "holdout" if k == 0 else "training"
            raise DataError(f"holdout fraction {fraction!r} of {self.n} rows "
                            f"leaves no {empty} rows")
        perm = np.random.default_rng(seed).permutation(self.n)
        return self.select(np.sort(perm[k:])), self.select(np.sort(perm[:k]))


@dataclass(frozen=True)
class OutlierRule:
    """How clean() decides a numeric value is an outlier.

    method "iqr" uses Tukey fences at multiplier * IQR beyond the
    quartiles (linear-interpolation quartiles).  method "zscore" cuts
    at z_threshold population standard deviations from the mean.
    method "off" disables outlier removal.  An unknown method or a
    cutoff that is not positive raises ConfigError.
    """

    method: str = "iqr"
    multiplier: float = 1.5
    z_threshold: float = 3.0

    def __post_init__(self):
        if self.method not in ("iqr", "zscore", "off"):
            raise ConfigError(f"unknown outlier method {self.method!r}")
        if self.multiplier <= 0:
            raise ConfigError("iqr-multiplier must be positive")
        if self.z_threshold <= 0:
            raise ConfigError("z-threshold must be positive")

    def fences(self, values: np.ndarray) -> tuple[float, float]:
        """Inclusive [low, high] range of acceptable values."""
        if self.method == "iqr":
            q1, q3 = _quartiles(values)
            spread = self.multiplier * (q3 - q1)
            return q1 - spread, q3 + spread
        mean = float(values.mean())
        sd = float(values.std())
        return mean - self.z_threshold * sd, mean + self.z_threshold * sd


def _quartiles(values: np.ndarray) -> np.ndarray:
    """np.percentile(values, [25.0, 75.0]) of NaN-free values, bit for
    bit, without the np.unique call that imports numpy.ma."""
    last = values.size - 1
    at = last * np.array([0.25, 0.75])
    # numpy's: the top position's lower neighbour is -1 (so t = 1), and
    # its partition points, which place 0.0 and -0.0 as numpy does
    below = np.minimum(np.floor(at), last - 1).astype(np.intp)
    ordered = np.partition(values, sorted({0, -1, *below, *(below + 1)}))
    a, b = ordered[below], ordered[below + 1]
    t = at - below
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def load_csv(
    path: str,
    schema: Schema,
    *,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    codebook: Mapping[str, Mapping[str, int]] | None = None,
    target_optional: bool = False,
) -> Dataset:
    """Read a comma-separated file into a Dataset.

    The header must contain exactly the schema's feature names plus the
    target name, in any order; columns are matched by name.  Cells are
    stripped of whitespace; a cell equal to a missing token is missing.
    Numeric cells are read with Python's float(), and a cell it refuses
    or reads as non-finite is missing too.  Given a codebook,
    categorical cells hold labels, which apply_codebook turns into
    codes block by block; once every block has been read, a label the
    book lacks raises DataError naming its first row and, in
    it, the first such feature.  Without one, categorical cells are
    read as numeric codes.  With target_optional=True the target column
    may be absent, in which case every row gets a missing target
    (useful for scoring unlabeled rows).

    The file is read once.  A plain text, whose every line is one csv
    row (see _plain_lines), is read block by block by np.loadtxt or a
    split on commas (see _plain_blocks); any other by the csv module.
    """
    # a cell that is exactly a token reads as "nan"; float() would read
    # a token that is a finite number as a value, so such a token turns
    # the fast paths off
    missing = dict.fromkeys((tok.strip() for tok in missing_tokens), "nan")
    fast = not any(map(np.isfinite, map(_number, missing)))
    labelled = [] if codebook is None else [
        f.name for f in schema.features if f.kind == CATEGORICAL]
    unknown = None
    with closing(_row_blocks(path, fast and not labelled)) as blocks:
        found = next(blocks)
        has_target = not (target_optional and schema.target not in found)
        expected = set(schema.names) | ({schema.target} if has_target
                                        else set())
        if set(found) != expected or len(found) != len(expected):
            raise DataError(
                f"header mismatch: expected columns {sorted(expected)}, "
                f"found {found}")
        for name in labelled:
            if name not in codebook:
                raise DataError(
                    f"codebook has no labels for feature {name!r}")
        names = schema.names + ([schema.target] if has_target else [])
        parts = {name: [np.empty(0)] for name in names}
        start = 0
        for rows, columns in blocks:
            if isinstance(columns, np.ndarray):
                columns[~np.isfinite(columns)] = np.nan
            else:
                cells = dict(zip(found, columns))
                codes, error = (
                    apply_codebook({name: cells[name] for name in labelled},
                                   codebook, missing, start)
                    if labelled else ({}, None))
                unknown = unknown or error
                columns = [codes[name] if name in codes
                           else _parse_cells(cells[name], missing, fast)
                           for name in found]
            for name, part in parts.items():
                part.append(columns[found.index(name)])
            start += rows
    if unknown is not None:
        raise unknown
    columns = {name: np.concatenate(part) for name, part in parts.items()}
    X = np.full((start, len(schema)), np.nan)
    for spec in schema.features:
        X[:, spec.index] = columns[spec.name]
    y = columns.get(schema.target, np.full(start, np.nan))
    return Dataset(schema, X, y)


def apply_codebook(cells: Mapping[str, Sequence[str]],
                   book: Mapping[str, Mapping[str, int]],
                   missing: Iterable[str], start: int
                   ) -> tuple[dict[str, np.ndarray], DataError | None]:
    """The codes of one block's label cells, by feature, and the error
    for the block's first label the book lacks, or None.

    Each cell is stripped and looked up in the feature's book; a
    missing token reads as NaN, even where the book has it as a label.
    The error names the first row holding an unknown label (start
    numbers the block's first row) and, in it, the first such feature
    in the order of cells.
    """
    codes, unknown = {}, []
    for j, (name, column) in enumerate(cells.items()):
        # codes are finite, so inf marks a label the book lacks
        table = {**book[name], **dict.fromkeys(missing, np.nan)}
        codes[name] = np.fromiter(map(table.get, map(str.strip, column),
                                      repeat(np.inf)), float, len(column))
        if np.isinf(codes[name]).any():
            row = int(np.isinf(codes[name]).argmax())
            unknown.append((row, j, name, column[row].strip()))
    if not unknown:
        return codes, None
    row, _, name, label = min(unknown)
    return codes, DataError(f"unknown label {label!r} for feature {name!r} "
                            f"at row {start + row}")


def _row_blocks(path: str, numeric: bool) -> Iterator:
    """The header row of path, then its data rows in blocks of
    _BLOCK_ROWS, each as (row count, columns): the cells of each
    column or, from _plain_blocks if numeric is set and the text allows
    it, a float matrix with one row per column.  A text that is not
    plain goes to the csv module whole."""
    with read_errors(path, line_num=lambda: reader.line_num):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        lines = _plain_lines(text)
        if lines is not None:
            yield from _plain_blocks(lines, numeric)
            return
        reader = csv.reader(_text_lines(text))
        header = _header(reader, path)
        yield header
        start = 0
        while block := list(islice(reader, _BLOCK_ROWS)):
            yield len(block), _columns(block, len(header), start)
            start += len(block)


def _plain_lines(text: str) -> list[str] | None:
    """The lines of text if each holds one csv row that a split on
    commas reads as csv does, else None.  That holds when the text has
    no quote, no CR but at a line's end, no NUL (which csv refuses
    before Python 3.11), no blank line (a row of no cells) and no line
    over csv's field limit."""
    if '"' in text or "\0" in text or (
            "\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty string after a final newline
    if (not lines or "" in lines or "\r" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    return lines


def _text_lines(text: str) -> Iterator[str]:
    """The lines of text as a file opened with newline="" reads them,
    split by io.StringIO about _TEXT_CHUNK characters at a time: it
    holds four bytes a character, four times an ASCII text whole."""
    start = 0
    while start < len(text):
        # a cut after an LF splits no CRLF and no line
        stop = text.find("\n", start + _TEXT_CHUNK) + 1 or len(text)
        yield from io.StringIO(text[start:stop], newline="")
        start = stop


def _plain_blocks(lines: list[str], numeric: bool) -> Iterator:
    """_row_blocks of the lines of a plain text: the header row, then
    each block of lines as _loadtxt reads it, if numeric is set (every
    column numeric, no missing token a finite number) and it can, else
    as a split on commas does.  Each block's lines leave the list as
    it is read, so they are freed block by block."""
    header = [name.strip() for name in lines.pop(0).split(",")]
    yield header
    width = len(header)
    start = 0
    while lines:
        block = lines[:_BLOCK_ROWS]
        del lines[:_BLOCK_ROWS]
        values = _loadtxt(block, width) if numeric else None
        if values is not None:
            yield len(block), values.T
        else:
            _check_widths(np.fromiter(map(str.count, block, repeat(",")),
                                      np.intp, len(block)) + 1, width, start)
            cells = ",".join(block).replace("\r", "").split(",")
            yield len(block), [cells[j::width] for j in range(width)]
        start += len(block)


def _loadtxt(lines: list[str], width: int) -> np.ndarray | None:
    """The cells of plain lines as np.loadtxt reads them, or None where
    it refuses them or could read them otherwise than csv and float()
    do.  loadtxt refuses what float() would read differently (1_000,
    non-ASCII digits, empty cells, tokens such as NA) and ragged
    rows."""
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            dtype=float)
    except ValueError:
        return None
    return values if values.shape == (len(lines), width) else None


def _columns(rows: list[list[str]], width: int, start: int) -> list:
    """The columns of csv rows, the first of which is data row start."""
    _check_widths(np.fromiter(map(len, rows), np.intp, len(rows)), width,
                  start)
    return list(zip(*rows))


def _check_widths(widths: np.ndarray, width: int, start: int) -> None:
    """DataError naming the first row of other than width cells, given
    the cell counts of rows from data row start on."""
    ragged = np.flatnonzero(widths != width)
    if ragged.size:
        i = ragged[0]
        raise DataError(
            f"row {start + i} has {widths[i]} cells, expected {width}")


def _parse_cells(cells: Sequence[str], missing: dict[str, str],
                 fast: bool) -> np.ndarray:
    """One numeric column of a block: _number of each stripped cell,
    NaN where a cell is missing or not finite.

    fast, which needs that no missing token is a finite number, first
    tries one float() per cell, each cell that is exactly a token read
    as "nan" (a token float() reads is not finite, so the cell reads
    NaN either way).  A cell float() accepts reads as its stripped text
    would.  If float() refuses one (a padded token, text), the exact
    path strips every cell and reads it on its own.
    """
    if fast:
        try:
            values = np.fromiter(map(float, map(missing.get, cells, cells)),
                                 float, len(cells))
        except ValueError:
            fast = False
    if not fast:
        cells = list(map(str.strip, cells))
        values = np.fromiter(map(_number, map(missing.get, cells, cells)),
                             float, len(cells))
    values[~np.isfinite(values)] = np.nan
    return values


def _number(text: str) -> float:
    """float() of text, or NaN where float() refuses it."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def write_csv(data: Dataset, path: str) -> None:
    """Write header plus rows as csv.writer would, each cell as
    csv_text renders it."""
    names = data.schema.names + [data.schema.target]
    with open_output(path) as fh:
        fh.writelines(csv_text(names, [data.column(name) for name in names],
                               "\r\n"))


@contextmanager
def open_output(path: str):
    """path opened to write UTF-8 text with no newline translation; an
    OSError raises ConfigError naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def read_back(data: Dataset,
              missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS
              ) -> Dataset:
    """The dataset load_csv reads, without a codebook, from the file
    write_csv makes of data, without the file.  Rendering and float()
    round-trip every finite value except -0.0, which is written as 0,
    and a cell whose text equals a missing token reads back missing, as
    does a non-finite one."""
    written_as_token = []
    for token in {tok.strip() for tok in missing_tokens}:
        value = _number(token)
        if np.isfinite(value) and _format_cells(np.array([value])) == [token]:
            written_as_token.append(value)
    X, y = np.add(data.X, 0.0, order="C"), data.y + 0.0
    for values in (X, y):
        values[~np.isfinite(values) | np.isin(values, written_as_token)] = \
            np.nan
    return Dataset(data.schema, X, y)


def csv_text(header: Sequence[str], columns: Sequence[np.ndarray],
             newline: str) -> Iterator[str]:
    """The text of a CSV file of a header and equally long columns: the
    header line, then one string per block of rows, so a table's text
    is never held whole.  Every line ends with newline.  Cells render
    as _format_cells renders them, and names are quoted as text is."""
    yield _csv_lines([[name] for name in _quoted(list(header))], newline)
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield _csv_lines([_format_cells(column[start:stop])
                          for column in columns], newline)


def _csv_lines(cells: list[list[str]], newline: str) -> str:
    """Lines of the rows whose cell text is given column by column,
    joined as csv.writer joins them, which writes a row of one empty
    cell as a pair of quotes."""
    if len(cells) == 1:
        rows = ['""' if cell == "" else cell for cell in cells[0]]
    else:
        rows = map(",".join, zip(*cells))
    return newline.join(rows) + newline


def _quoted(cells: list[str]) -> list[str]:
    """Text cells as csv.writer's minimal quoting writes them: one
    holding a comma, a quote, CR or LF goes in quotes, its quotes
    doubled."""
    if not _NEEDS_QUOTES.search("".join(cells)):
        return cells
    return ['"' + cell.replace('"', '""') + '"'
            if _NEEDS_QUOTES.search(cell) else cell for cell in cells]


def _format_cells(values: np.ndarray) -> list[str]:
    """Text of one column's cells: text quoted as csv.writer quotes
    it, "" for a missing value, whole numbers without a decimal part
    (those below 1024 from a table), and other numbers at repr
    precision."""
    if values.dtype == object:
        return _quoted(np.where(np.equal(values, None), "", values).tolist())
    whole = np.isfinite(values) & (values == np.trunc(values))
    code = whole & (values >= 0) & (values < len(_CODE_TEXT))
    if code.all():
        return _CODE_TEXT[values.astype(np.intp)].tolist()
    rest = ~whole & ~np.isnan(values)
    if rest.all():
        return list(map(repr, values.tolist()))
    text = np.full(values.shape, "", dtype=object)
    text[code] = _CODE_TEXT[values[code].astype(np.intp)]
    whole &= ~code
    text[whole] = np.fromiter(map(str, map(int, values[whole].tolist())),
                              object)
    text[rest] = np.fromiter(map(repr, values[rest].tolist()), object)
    return text.tolist()


def clean(
    data: Dataset,
    rule: OutlierRule = OutlierRule(),
) -> tuple[Dataset, list[tuple[int, str]]]:
    """Drop rows with missing values, then rows with numeric outliers;
    return the kept rows and cleaning.log's (row, reason) records.

    Outlier fences are recomputed and reapplied until no row is
    dropped, which makes cleaning idempotent: running clean on its own
    output removes nothing.  Each round's fences come from the kept
    rows in their original order.  The log records each dropped row's
    original position and the first offending column in schema order
    (the target comes last).  Surviving rows keep their relative order.
    If no row is kept, DataError names the first column, if any, that
    has no value in any row.
    """
    names = data.schema.names + [data.schema.target]
    holes = np.isnan(np.column_stack([data.X, data.y]))
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
    log = list(zip(rows[order].tolist(), reasons[order].tolist()))
    if not kept.size:
        empty = np.flatnonzero(holes.all(axis=0)) if data.n else []
        detail = (f"; column {names[empty[0]]!r} has no value in any row"
                  if len(empty) else "")
        raise DataError(f"cleaning removed every row{detail}")
    return data.select(kept), log


def class_distribution(data: Dataset) -> tuple[int, int]:
    """Counts of target classes 0 and 1."""
    if data.n == 0:
        raise DataError("cannot take class distribution of 0 rows")
    y = data.binary_target()
    return int(np.sum(y == 0)), int(np.sum(y == 1))


def schema_from_header(
    header: Sequence[str],
    target: str,
    book: Mapping[str, Mapping[str, int]] | None = None,
    path: str = "header",
) -> Schema:
    """Build a schema from CSV column names.

    Columns present in the codebook become categorical with the book's
    modality count; everything else is numeric.  A column named twice
    raises DataError naming path, the file the header is from.
    """
    header = list(header)
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path} names column {name!r} more than once")
    if target not in header:
        raise DataError(
            f"target column {target!r} not in header {list(header)}")
    return Schema([FeatureSpec(name, CATEGORICAL, levels=len(book[name]))
                   if book is not None and name in book
                   else FeatureSpec(name, NUMERIC)
                   for name in header if name != target], target)


def read_header(path: str) -> list[str]:
    with _csv_reader(path) as reader:
        return _header(reader, path)


def _header(reader, path: str) -> list[str]:
    """The stripped column names of the first row of a csv reader."""
    try:
        return [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path} is empty, no header row")


@contextmanager
def _csv_reader(path: str, what: str = "input"):
    """A csv reader over the UTF-8 text of path, less a byte-order mark,
    whose open and read errors raise as read_errors raises them, naming
    path as the what file."""
    with read_errors(path, what, lambda: reader.line_num), \
            open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        yield reader


@contextmanager
def read_errors(path: str, what: str = "input", line_num=None):
    """A path that cannot be opened or read raises ConfigError naming it
    as the what file (the file system is part of the invocation, not of
    the data); a byte that is not UTF-8, or a line the csv module
    rejects (the line line_num() numbers), raises DataError naming the
    file."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(
            f"{what} file {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path} is not UTF-8 text: byte "
            f"0x{exc.object[exc.start]:02x} cannot be decoded") from None
    except csv.Error as exc:
        raise DataError(f"{path} line {line_num()}: {exc}") from None
