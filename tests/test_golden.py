"""Golden SHA-256 digests of the artifacts.

The inputs hold the awkward cells the CSV reader and writer must treat
exactly as before: default and custom missing tokens, unparsable,
non-finite and underscored numbers, padded cells, fractional codes in
an encoded categorical column, z-score cleaning over several rounds,
and a scoring file without a target column.  The digests were recorded
from the row-list dataset layer, so any change to the bytes of
encoded.csv, cleaning.log or predictions.csv shows up here.  The
library calls that encode does, made by hand, write the same bytes.

The screening and evaluation artifacts are pinned on seeded synthetic
data run through pipeline four ways: correlation.csv, eval.json,
eval.txt, roc.tsv, and screening.json's kept list with each dropped
variable's name, reason and partner.  wald.csv and every sig are left
out, because they come from LAPACK and differ between numpy builds.

synthetic.csv and synth's stdout line are pinned for the bundled
schema and for a config whose synth object takes every custom-features
path: integer low/high, 2 and 3 levels, a numeric feature without a
range, a named target and a nested subset rule.
"""

import json

import hashlib

import numpy as np
import pytest

from solvency.cli import main
from solvency.dataset import (
    CATEGORICAL,
    NUMERIC,
    FeatureSpec,
    OutlierRule,
    Schema,
    clean,
    load_codebook,
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
        "94285affc25301993f74285c0b220953b26916d7e2b0d08cfb044e676580de8a",
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
    data = load_csv(str(raw), schema, missing_tokens=("NA", "-999"),
                    codebook=load_codebook(str(book)))
    kept, log = clean(data, OutlierRule("zscore", z_threshold=2.0))
    write_csv(kept, str(tmp_path / "raw.out.csv"))
    (tmp_path / "raw.log").write_text(
        "".join(f"{row}\t{reason}\n" for row, reason in log),
        encoding="utf-8")

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


#: pipeline flags of each run on the noisy synthetic file, all with
#: --alpha 0.999999 so no variable drops on a sig; the last one's low
#: r-threshold drops four as correlated
PIPELINE_RUNS = {
    "joint": [],
    "per-variable": ["--per-variable", "--holdout", "0.3"],
    "hard": ["--roc-scores", "hard"],
    "correlated": ["--r-threshold", "0.05"],
}

PIPELINE_ARTIFACTS = ("correlation.csv", "eval.json", "eval.txt", "roc.tsv")

PIPELINE_DIGESTS = {
    "joint/correlation.csv":
        "7ecf0e082182e8ef2907e3f7a55afed55e084895eb2ebbde92937da679e3c090",
    "joint/eval.json":
        "da7d0324a2c8d68d2f10e17362c26e4d52b32bd89536067c13c024c2c320b677",
    "joint/eval.txt":
        "9ee6cf5929320eeb38cc04ad3cadfd02a58fb2ceeb9223322e5f6eafaad66229",
    "joint/roc.tsv":
        "aa28681b18a8c309101e9ac841721d50c6615f814940d8150458e6b9172e45a9",
    "per-variable/correlation.csv":
        "089a9a2a15fd17d49a3e8bba57f39d5e8c67c82212896e18b43d4a5367741650",
    "per-variable/eval.json":
        "f1efd57e1e555daa48fb3f986028113aa5ed478708cc0a80b2accba02c3a3542",
    "per-variable/eval.txt":
        "4a391069809592531574377aa4ee7897ed464838e7c5ce1b26d4608df4ce78eb",
    "per-variable/roc.tsv":
        "f5ee575dfcedfe6a6f44d42451f74b682fe67770511e842f7be23c15aaea5402",
    "hard/correlation.csv":
        "7ecf0e082182e8ef2907e3f7a55afed55e084895eb2ebbde92937da679e3c090",
    "hard/eval.json":
        "b521f01eccc38f0009d0bb80540c1704047e3334d933057ab89dd110da7d160d",
    "hard/eval.txt":
        "3a039f99ec19c776e2acb329475e54e6bcdc9c328b14ec6f274b26e6345b0ec5",
    "hard/roc.tsv":
        "abca033b2eb4f7c4791d0fc2049859371966f0f13ccd8ef4e5296c933e1a2f20",
    "correlated/correlation.csv":
        "7ecf0e082182e8ef2907e3f7a55afed55e084895eb2ebbde92937da679e3c090",
    "correlated/eval.json":
        "5f196f25cab850e44fa7ae08755a16d4872a7e24e739b0fca145c27676a4c10c",
    "correlated/eval.txt":
        "2b68c1313dd375e5f5de8e0a61f1984cdda0db120dd41136ec121309bc1247fd",
    "correlated/roc.tsv":
        "adce6ea9b6882c510802c9f8b9895f2156dd783a1b32162fed5ae34e2c9456a3",
}

ALL_KEPT = [
    "NAME_CONTRACT_TYPE", "CODE_GENDER", "FLAG_OWN_CAR", "CNT_CHILDREN",
    "AMT_INCOME_TOTAL", "AMT_CREDIT", "AMT_ANNUITY", "AMT_GOODS_PRICE",
    "NAME_INCOME_TYPE", "NAME_EDUCATION_TYPE", "NAME_FAMILY_STATUS",
    "NAME_HOUSING_TYPE", "CNT_FAM_MEMBERS",
]

#: run -> (kept, [(name, reason, partner), ...]) from screening.json
PIPELINE_SCREENING = {
    "joint": (ALL_KEPT, []),
    "per-variable": (ALL_KEPT, []),
    "hard": (ALL_KEPT, []),
    "correlated": (
        [name for name in ALL_KEPT if name not in (
            "AMT_GOODS_PRICE", "CNT_FAM_MEMBERS", "NAME_EDUCATION_TYPE",
            "NAME_HOUSING_TYPE")],
        [("AMT_GOODS_PRICE", "correlated", "NAME_CONTRACT_TYPE"),
         ("CNT_FAM_MEMBERS", "correlated", "CNT_CHILDREN"),
         ("NAME_EDUCATION_TYPE", "correlated", "AMT_INCOME_TOTAL"),
         ("NAME_HOUSING_TYPE", "correlated", "NAME_INCOME_TYPE")]),
}


def test_golden_pipeline_digests(tmp_path):
    assert main(["synth", "--rows", "1500", "--seed", "11", "--noise", "0.2",
                 "--out", str(tmp_path)]) == 0
    source = str(tmp_path / "synthetic.csv")
    digests, screening = {}, {}
    for run, flags in PIPELINE_RUNS.items():
        out = tmp_path / run
        assert main(["pipeline", "--input", source, "--alpha", "0.999999",
                     *flags, "--out", str(out)]) == 0
        for name in PIPELINE_ARTIFACTS:
            digests[f"{run}/{name}"] = _digest(out / name)
        doc = json.loads((out / "screening.json").read_text())
        screening[run] = (doc["kept"], [
            (d["name"], d["reason"], d.get("partner"))
            for d in doc["dropped"]])
    assert screening == PIPELINE_SCREENING
    assert digests == PIPELINE_DIGESTS


#: a synth object of custom features, planting a rule three splits deep
CUSTOM_SYNTH = {
    "n_rows": 300, "seed": 7, "noise": 0.1, "target": "label",
    "features": [
        {"name": "x", "kind": "numeric", "low": -2, "high": 5},
        {"name": "c", "kind": "categorical", "levels": 3},
        {"name": "b", "kind": "categorical"},
        {"name": "z", "kind": "numeric"},
    ],
    "rule": {"feature": "c", "subset": [1, 3],
             "left": {"feature": "b", "subset": [0],
                      "left": {"feature": "x", "threshold": 1.5,
                               "left": 1, "right": 0},
                      "right": 0},
             "right": {"label": 1}},
}

#: run -> (synth flags, stdout, synthetic.csv digest)
SYNTH_RUNS = {
    "default": (["--rows", "500", "--seed", "11", "--noise", "0.2"],
                "synth: wrote 500 rows, seed 11, noise 0.2\n",
                "e2c5f9352f592fd89c642445ababcec0"
                "09230543e4a5168af74ac03d3349ae18"),
    "custom": (["--config", "cfg.json"],
               "synth: wrote 300 rows, seed 7, noise 0.1\n",
               "97d7db8013f6295fb333255975d9cf91"
               "56b91d3f3acbad6d9bddb5f855139a8b"),
}


@pytest.mark.parametrize("run", SYNTH_RUNS)
def test_golden_synth_digests(tmp_path, monkeypatch, capsys, run):
    flags, stdout, digest = SYNTH_RUNS[run]
    (tmp_path / "cfg.json").write_text(json.dumps({"synth": CUSTOM_SYNTH}))
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *flags, "--out", "out"]) == 0
    assert capsys.readouterr().out == stdout
    assert _digest(tmp_path / "out" / "synthetic.csv") == digest
