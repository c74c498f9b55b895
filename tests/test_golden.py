"""Golden SHA-256 digests of the dataset-layer artifacts.

The inputs hold the awkward cells the CSV reader and writer must treat
exactly as before: default and custom missing tokens, unparsable,
non-finite and underscored numbers, padded cells, fractional codes in
an encoded categorical column, raw labels written without a codebook,
z-score cleaning over several rounds, and a scoring file without a
target column.  The digests were recorded from the row-list dataset
layer, so any change to the bytes of encoded.csv, cleaning.log or
predictions.csv shows up here.
"""

import hashlib

import numpy as np

from solvency.cli import main
from solvency.dataset import (
    CATEGORICAL,
    NUMERIC,
    FeatureSpec,
    OutlierRule,
    Schema,
    clean,
    load_csv,
    write_csv,
)

BOOK = """feature,label,code
color,red,1
color,green,2
color,blue,3
flag,Y,1
flag,N,0
"""

HEADER = "color,flag,amount,count,ratio,TARGET"

#: (row, column) -> cell text planted over the generated labelled rows
RAW_CELLS = {
    (1, 0): " green ", (2, 2): " 12.5 ", (3, 2): "NA", (4, 5): "NA",
    (5, 3): "-999", (6, 4): "oops", (7, 2): "inf", (8, 3): "-inf",
    (9, 4): "nan", (10, 2): "1_000", (11, 3): "1e3", (12, 2): "N/A",
    (13, 4): "NA", (13, 2): "NA", (14, 5): "NA", (14, 3): "NA",
    (15, 2): "250000", (16, 3): "-40000", (17, 4): "9.5e3",
    (18, 2): "3.0", (19, 1): "Y ", (20, 2): "7000",
}

#: planted over the generated coded rows
CODED_CELLS = {
    (1, 0): "2.5", (2, 0): "3.0", (3, 1): "", (4, 2): "N/A",
    (5, 0): " 1 ", (6, 2): "1_000", (7, 3): "nan", (8, 5): "",
    (9, 4): "Inf", (10, 0): "NA", (11, 2): "1e308", (12, 3): "-0",
}

#: planted over the generated scoring rows, which have no target
SCORING_CELLS = {
    (1, 2): "1_000", (2, 3): " 7 ", (3, 4): "0.0", (4, 2): "3.0",
    (5, 4): "-0.0", (6, 3): "12",
}

DIGESTS = {
    "zscore/encoded.csv":
        "94285affc25301993f74285c0b220953b26916d7e2b0d08cfb044e676580de8a",
    "zscore/cleaning.log":
        "db83b1c281ece4ae039c767b0f8c2353d2f74a5bb4932db1a08e0f45eba5baba",
    "skip/encoded.csv":
        "511016a620b34402d2e3c77b3d8f5c4cbffce99440d32af0f1b5096665b10c22",
    "skip/cleaning.log":
        "67ee0c8f88fdbd761ecad7da294518c94964b12d97b0e60eca90d4ae935721a8",
    "scored/predictions.csv":
        "4746c901bfefbd51d9167a5b26ca9b9b53542bc6a0eda439948a1e3595fd7f7c",
    "labelled/predictions.csv":
        "bf3d18227ebb52dd893beda8a9f26f602feab5be8c5a15225870195290c8e4ce",
    "raw/encoded.csv":
        "ef3afe602006179ddab499832a635cf1033fa908888ea051b080f3b59c58a22f",
    "raw/cleaning.log":
        "db83b1c281ece4ae039c767b0f8c2353d2f74a5bb4932db1a08e0f45eba5baba",
}


def _table(rng, n, labelled, target=True):
    labels = (["red", "green", "blue"], ["Y", "N"])
    codes = ([1, 2, 3], [1, 0])
    pick = labels if labelled else codes
    color = rng.integers(0, 3, n)
    flag = rng.integers(0, 2, n)
    amount = rng.uniform(0.0, 2000.0, n)
    count = rng.integers(0, 60, n)
    ratio = rng.normal(1.0, 0.25, n)
    y = rng.integers(0, 2, n)
    rows = []
    for i in range(n):
        row = [str(pick[0][color[i]]), str(pick[1][flag[i]]),
               f"{amount[i]:.2f}", str(count[i]), repr(float(ratio[i]))]
        if target:
            row.append(str(y[i]))
        rows.append(row)
    return rows


def _write(path, header, rows, cells):
    for (i, j), text in cells.items():
        rows[i][j] = text
    path.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows),
                    encoding="utf-8")


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_digests(tmp_path):
    rng = np.random.default_rng(20261018)
    book = tmp_path / "book.csv"
    book.write_text(BOOK, encoding="utf-8")
    raw, coded, scoring = (tmp_path / n for n in
                           ("raw.csv", "coded.csv", "scoring.csv"))
    _write(raw, HEADER, _table(rng, 80, labelled=True), RAW_CELLS)
    _write(coded, HEADER, _table(rng, 60, labelled=False), CODED_CELLS)
    _write(scoring, HEADER.rsplit(",", 1)[0],
           _table(rng, 40, labelled=False, target=False), SCORING_CELLS)

    out = {name: tmp_path / name for name in ("zscore", "skip", "model")}
    assert main(["encode", "--input", str(raw), "--codebook", str(book),
                 "--missing-token", "NA", "--missing-token", "-999",
                 "--outlier-method", "zscore", "--z-threshold", "2.0",
                 "--out", str(out["zscore"])]) == 0
    assert main(["encode", "--input", str(coded), "--codebook", str(book),
                 "--skip-codebook", "--out", str(out["skip"])]) == 0
    encoded = out["zscore"] / "encoded.csv"
    assert main(["train", "--input", str(encoded), "--codebook", str(book),
                 "--min-node-size", "1", "--out", str(out["model"])]) == 0
    model = str(out["model"] / "model.json")
    assert main(["predict", "--input", str(scoring), "--model", model,
                 "--out", str(tmp_path / "scored")]) == 0
    assert main(["predict", "--input", str(encoded), "--model", model,
                 "--out", str(tmp_path / "labelled")]) == 0

    schema = Schema([FeatureSpec("color", CATEGORICAL, levels=3),
                     FeatureSpec("flag", CATEGORICAL, levels=2),
                     FeatureSpec("amount", NUMERIC),
                     FeatureSpec("count", NUMERIC),
                     FeatureSpec("ratio", NUMERIC)], "TARGET")
    data = load_csv(str(raw), schema, missing_tokens=("NA", "-999"))
    kept, log = clean(data, OutlierRule("zscore", z_threshold=2.0))
    write_csv(kept, str(tmp_path / "raw.out.csv"))
    (tmp_path / "raw.log").write_text(log.to_text(), encoding="utf-8")

    found = {
        "zscore/encoded.csv": _digest(out["zscore"] / "encoded.csv"),
        "zscore/cleaning.log": _digest(out["zscore"] / "cleaning.log"),
        "skip/encoded.csv": _digest(out["skip"] / "encoded.csv"),
        "skip/cleaning.log": _digest(out["skip"] / "cleaning.log"),
        "scored/predictions.csv":
            _digest(tmp_path / "scored" / "predictions.csv"),
        "labelled/predictions.csv":
            _digest(tmp_path / "labelled" / "predictions.csv"),
        "raw/encoded.csv": _digest(tmp_path / "raw.out.csv"),
        "raw/cleaning.log": _digest(tmp_path / "raw.log"),
    }
    assert found == DIGESTS
