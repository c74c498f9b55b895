"""The typed-error contract as a standing property: whatever the input
files hold, ``cli.main`` returns 0, 2, 3 or 4 and lets no exception
escape (it turns each SolvencyError into its exit code).

Each property mutates one kind of input: CSV headers, cells and row
widths; codebooks; JSON configs; ``--screening`` files; ``model.json``
fields.  The ``example`` seeds are input that once gave a traceback or
a wrong exit code, one per kind, and paths that cannot be read or
written.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solvency.cli import PipelineConfig, main
from solvency.dataset import DEFAULT_CODEBOOK

#: A file entry that is made as a directory.
DIRECTORY = None

CELLS = st.sampled_from([
    "", "NA", "nan", "inf", "-inf", "1e400", "-0", "0.5", "2.9", "abc",
    " 1 ", "1_0", '"', '"x"', ",", "\r", "\n", "\x00", "-1", "99", "\xe9",
    "Married", " Widow ", "M", "7",
]) | st.text(max_size=6)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1000)
    | st.sampled_from([2 ** 64, 10 ** 400, -(10 ** 20)])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The bytes of a 40-row coded CSV, the bundled codebook, the same
    rows with labels, and the model pipeline grows from them."""
    out = tmp_path_factory.mktemp("base")
    DEFAULT_CODEBOOK.save(str(out / "book.csv"))
    assert run({}, ["synth", "--rows", "40", "--seed", "5",
                    "--out", str(out)]) == 0
    assert run({}, ["pipeline", "--input", str(out / "synthetic.csv"),
                    "--codebook", str(out / "book.csv"), "--skip-codebook",
                    "--out", str(out)]) == 0
    coded = (out / "synthetic.csv").read_text().splitlines()
    header = coded[0].split(",")
    labelled = [coded[0]]
    for line in coded[1:]:
        cells = line.split(",")
        labelled.append(",".join(
            DEFAULT_CODEBOOK.decode(name, int(float(cell)))
            if name in DEFAULT_CODEBOOK else cell
            for name, cell in zip(header, cells)))
    return {"coded": coded, "labelled": labelled,
            "book": (out / "book.csv").read_text().splitlines(),
            "model": json.loads((out / "model.json").read_text())}


def run(files: dict, argv: list[str]) -> int:
    """main(argv) in a fresh directory holding files (name -> bytes, or
    DIRECTORY); an argument "@name" is the path of name there."""
    with tempfile.TemporaryDirectory() as root:
        for name, data in files.items():
            path = os.path.join(root, name)
            if data is DIRECTORY:
                os.makedirs(path)
            else:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "wb") as fh:
                    fh.write(data)
        args = [os.path.join(root, a[1:]) if a.startswith("@") else a
                for a in argv]
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            return main(args)


def text(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def check(base: dict, files: dict, argv: list[str]) -> None:
    """Run argv with files over the base inputs; exit codes 0/2/3/4."""
    inputs = {"data.csv": text(base["coded"]), "book.csv": text(base["book"]),
              "model.json": json.dumps(base["model"]).encode(), **files}
    assert run(inputs, argv + ["--out", "@out"]) in (0, 2, 3, 4)


PROPERTY = settings(suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

#: command -> its flags that read the base inputs
READS = {
    "screen": ["--input", "@data.csv", "--codebook", "@book.csv"],
    "train": ["--input", "@data.csv", "--codebook", "@book.csv"],
    "eval": ["--input", "@data.csv", "--codebook", "@book.csv",
             "--model", "@model.json"],
    "predict": ["--input", "@data.csv", "--model", "@model.json"],
    "pipeline": ["--input", "@data.csv", "--codebook", "@book.csv",
                 "--skip-codebook"],
}


def _mutate_lines(lines: list[str], edits) -> list[str]:
    """lines with each edit (kind, row, column, cell) applied: a cell
    replaced, or a row made one cell shorter or longer."""
    rows = [line.split(",") for line in lines]
    for kind, i, j, cell in edits:
        row = rows[i % len(rows)]
        j %= len(row)
        if kind == "cell":
            row[j] = cell
        elif kind == "repeat":
            row[j] = row[(j + 1) % len(row)]
        elif kind == "short":
            del row[j]
        else:
            row.insert(j, cell)
    return [",".join(row) for row in rows]


EDIT = st.tuples(st.sampled_from(["cell", "repeat", "short", "long"]),
                 st.integers(0, 40), st.integers(0, 13), CELLS)


@PROPERTY
@given(command=st.sampled_from(sorted(READS)),
       edits=st.lists(EDIT, min_size=1, max_size=3))
@example(command="screen", edits=[("repeat", 0, 0, "")])
@example(command="train", edits=[("cell", 1, 0, "0.5")])
@example(command="predict", edits=[("cell", 1, 8, "2.9")])
def test_mutated_csv(base, command, edits):
    """Header names, cells and row widths of the coded input."""
    check(base, {"data.csv": text(_mutate_lines(base["coded"], edits))},
          [command] + READS[command])


LABELLED = ["--input", "@data.csv", "--codebook", "@book.csv"]


@PROPERTY
@given(command=st.sampled_from(["encode", "pipeline"]),
       book=st.lists(EDIT, max_size=2), cells=st.lists(EDIT, max_size=2))
@example(command="encode", book=[("cell", 1, 1, " Cash loans")], cells=[])
@example(command="encode", book=[("cell", 2, 1, "Cash loans")], cells=[])
@example(command="pipeline", book=[("cell", 3, 2, "1.5")],
         cells=[("cell", 2, 0, "Cash loan")])
def test_mutated_codebook(base, command, book, cells):
    """Codebook records and the labels they map, through encode and
    pipeline."""
    check(base, {"book.csv": text(_mutate_lines(base["book"], book)),
                 "data.csv": text(_mutate_lines(base["labelled"], cells))},
          [command] + LABELLED)


#: Config keys naming no file: a fuzzed path could name any file.
CONFIG_KEYS = sorted(
    {f.replace("_", "-") for f in PipelineConfig.__dataclass_fields__}
    - {"input", "codebook", "out", "model", "screening"}) + ["bogus"]
SYNTH_KEYS = ["noise", "seed", "rule", "features", "target", "bogus"]

CONFIGS = st.one_of(
    st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=3),
    st.fixed_dictionaries({"synth": st.dictionaries(
        st.sampled_from(SYNTH_KEYS), JSON_VALUES, max_size=3)}),
    JSON_VALUES).map(lambda doc: json.dumps(doc).encode())


@PROPERTY
@given(command=st.sampled_from(["synth", "pipeline", "train", "eval"]),
       config=CONFIGS)
@example(command="pipeline", config=b'{"alpha": "0.05"}')
@example(command="train", config=b'{"min-gini-decrease": 1' + b"0" * 400
         + b"}")
@example(command="screen", config=b'{"tol": 1' + b"0" * 5000 + b"}")
@example(command="synth", config=b'{"synth": {"rule": {"feature": '
         b'"AMT_CREDIT", "threshold": 1, "left": 0}}}')
@example(command="pipeline", config=b"[" * 100_000 + b"]" * 100_000)
@example(command="pipeline", config=b"\xff{}")
@example(command="pipeline", config=DIRECTORY)
def test_mutated_config(base, command, config):
    """JSON configs, the synth object's among them."""
    argv = [command, "--config", "@config.json"]
    if command == "synth":
        argv += ["--rows", "30"]
    else:
        argv += READS.get(command, READS["screen"])
    check(base, {"config.json": config}, argv)


SCREENINGS = st.one_of(
    st.fixed_dictionaries({"kept": st.lists(
        st.sampled_from(["AMT_CREDIT", "CODE_GENDER", "TARGET"]) | CELLS,
        max_size=3) | JSON_VALUES}),
    JSON_VALUES).map(lambda doc: json.dumps(doc).encode()) | st.binary(
        max_size=20)


@PROPERTY
@given(screening=SCREENINGS)
@example(screening=b'{"kept": "AMT_CREDIT"}')
@example(screening=b'{"kept": []}')
@example(screening=DIRECTORY)
def test_mutated_screening(base, screening):
    """--screening files read by train."""
    check(base, {"screening.json": screening},
          ["train", "--screening", "@screening.json"] + READS["train"])


def _mutate_model(model: dict, edits) -> bytes:
    """model with each edit (node index, or None for the document; key;
    value) applied, the node edits first."""
    doc = json.loads(json.dumps(model))
    for node, key, value in sorted(edits, key=lambda e: e[0] is None):
        record = doc if node is None else doc["nodes"][
            node % len(doc["nodes"])]
        record[key] = value
    return json.dumps(doc).encode()


MODEL_EDITS = st.lists(st.tuples(
    st.none() | st.integers(0, 10),
    st.sampled_from(["format", "config", "schema", "n_training_rows",
                     "nodes", "n", "counts", "left", "right", "feature",
                     "feature_index", "threshold", "subset", "complement",
                     "class", "p1", "mean"]),
    JSON_VALUES), min_size=1, max_size=3)


@PROPERTY
@given(command=st.sampled_from(["eval", "predict"]), edits=MODEL_EDITS)
@example(command="predict", edits=[(None, "n_training_rows", "abc")])
@example(command="eval", edits=[(0, "counts", [1, 2])])
@example(command="predict", edits=[(0, "right", True)])
@example(command="predict", edits=[(0, "feature_index", 4.5)])
def test_mutated_model(base, command, edits):
    """model.json fields, through eval and predict."""
    check(base, {"model.json": _mutate_model(base["model"], edits)},
          [command] + READS[command])


#: Paths that cannot be read or written: (files over the base inputs,
#: argv); the config and screening ones are examples above.
PATHS = {
    **{f"{command}-input": ({"data.csv": DIRECTORY}, [command] + flags)
       for command, flags in READS.items()},
    "codebook": ({"book.csv": DIRECTORY}, ["pipeline"] + LABELLED),
    "model": ({"model.json": DIRECTORY}, ["predict"] + READS["predict"]),
    "model-not-utf8": ({"model.json": b'{"format": "\xff"}'},
                       ["predict"] + READS["predict"]),
    "out": ({"out": b"a file"}, ["pipeline"] + READS["pipeline"]),
    "artifact": ({"out/model.json": DIRECTORY},
                 ["pipeline"] + READS["pipeline"]),
    "manifest": ({"out/manifest.json": DIRECTORY},
                 ["pipeline"] + READS["pipeline"]),
}


@pytest.mark.parametrize("files, argv", PATHS.values(), ids=PATHS)
def test_unusable_path(base, files, argv):
    check(base, files, argv)
