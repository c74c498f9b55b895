"""The benchmark's tracer still reaches every layer function.

perfbench/tracing.py wraps the public functions it lists and reports
any that something in the package still holds unwrapped (a renamed
function, a default argument, a partial).  These run perfbench's own
child script with tracing on, on tiny inputs, as the benchmark would.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solvency.cli import main

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, argv):
    """The result a traced child.py call writes, after asserting that
    it exits 0."""
    result = tmp_path / "child.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result),
         "1", *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(result.read_text())
    assert doc["exit"] == 0
    return doc


@pytest.fixture
def synthetic(tmp_path):
    assert main(["synth", "--rows", "200", "--seed", "3", "--noise", "0.1",
                 "--out", str(tmp_path)]) == 0
    return tmp_path / "synthetic.csv"


def test_pipeline_reaches_every_wrapper(tmp_path, synthetic):
    doc = traced(tmp_path, ["pipeline", "--input", str(synthetic),
                            "--skip-codebook", "--out", str(tmp_path / "p")])
    assert doc["unreached"] == []
    layers = doc["layers"]
    assert layers["cart.grow_nodes"] > 1 and layers["rows_out"] > 0
    assert layers["cart.export_s"] > 0 and layers["cart.deserialize_s"] == 0


def test_labelled_pipeline_reaches_every_wrapper(tmp_path):
    """load_csv maps labels to codes through apply_codebook, block by
    block, which the tracer must see."""
    book = tmp_path / "book.csv"
    book.write_text("feature,label,code\ncolor,red,1\ncolor,blue,0\n",
                    encoding="utf-8")
    source = tmp_path / "labelled.csv"
    source.write_text("color,x,TARGET\n" + "".join(
        f"{('red', 'blue', 'NA')[i % 3]},{i % 7},{i % 5 % 2}\n"
        for i in range(60)), encoding="utf-8")
    doc = traced(tmp_path, ["pipeline", "--input", str(source), "--codebook",
                            str(book), "--out", str(tmp_path / "p")])
    assert doc["unreached"] == []
    layers = doc["layers"]
    assert layers["dataset.apply_codebook_s"] > 0
    assert layers["rows_in"] == 60 and layers["dataset.clean_dropped_rows"] > 0


def test_predict_reaches_every_wrapper(tmp_path, synthetic):
    model = tmp_path / "m"
    assert main(["train", "--input", str(synthetic), "--out",
                 str(model)]) == 0
    doc = traced(tmp_path, ["predict", "--input", str(synthetic),
                            "--model", str(model / "model.json"),
                            "--out", str(tmp_path / "p")])
    assert doc["unreached"] == []
    assert doc["layers"]["cart.deserialize_s"] > 0
    assert doc["layers"]["rows_out"] == 200
