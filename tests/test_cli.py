"""Command line behavior: exit codes, artifacts, configuration
precedence, determinism, and stage composability.

Everything runs main() in-process with --out pointed at tmp_path, so
these tests double as integration coverage of the whole package.
"""

import argparse
import json
import os
import subprocess
import sys

import pytest

from solvency import cart, cli, screening
from solvency.cart import deserialize
from solvency.cli import build_parser, main
from solvency.dataset import load_csv, read_header, schema_from_header

PLANTED = {"AMT_INCOME_TOTAL", "AMT_CREDIT"}

CODEBOOK_CSV = """feature,label,code
color,red,1
color,green,2
color,blue,3
flag,N,0
flag,Y,1
"""

LABELED_CSV = """color,flag,amount,y
red,N,10.0,0
green,Y,11.0,1
blue,N,12.0,0
red,Y,13.0,1
green,N,14.0,0
"""


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def synth_args(out, rows=200, seed=3, noise=None):
    args = ["synth", "--rows", str(rows), "--seed", str(seed),
            "--out", str(out)]
    if noise is not None:
        args += ["--noise", str(noise)]
    return args


def make_synthetic(out, rows=200, seed=3, noise=None):
    assert main(synth_args(out, rows, seed, noise)) == 0
    return out / "synthetic.csv"


class TestSynthCommand:
    def test_same_seed_is_byte_identical(self, workdir):
        a, b = workdir / "a", workdir / "b"
        make_synthetic(a, seed=9)
        make_synthetic(b, seed=9)
        assert (a / "synthetic.csv").read_bytes() == \
            (b / "synthetic.csv").read_bytes()

    def test_different_seed_differs(self, workdir):
        a, b = workdir / "a", workdir / "b"
        make_synthetic(a, seed=1)
        make_synthetic(b, seed=2)
        assert (a / "synthetic.csv").read_bytes() != \
            (b / "synthetic.csv").read_bytes()

    def test_row_count_flag(self, workdir):
        path = make_synthetic(workdir, rows=37)
        assert len(path.read_text().splitlines()) == 38  # header + rows

    def test_invalid_noise_exits_2(self, workdir, capsys):
        assert main(synth_args(workdir, noise=0.75)) == 2
        assert "noise" in capsys.readouterr().err

    def test_config_file_supplies_spec(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_rows": 30}}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir)]) == 0
        assert len((workdir / "synthetic.csv")
                   .read_text().splitlines()) == 31

    def test_rows_flag_beats_config_file(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_rows": 30}}))
        assert main(["synth", "--config", str(cfg), "--rows", "40",
                     "--out", str(workdir)]) == 0
        assert len((workdir / "synthetic.csv")
                   .read_text().splitlines()) == 41


class TestEncodeCommand:
    def setup_inputs(self, workdir):
        (workdir / "book.csv").write_text(CODEBOOK_CSV)
        (workdir / "raw.csv").write_text(LABELED_CSV)

    def test_labels_become_codes(self, workdir):
        self.setup_inputs(workdir)
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "encoded.csv").read_text().splitlines()
        assert lines[0] == "color,flag,amount,y"
        assert lines[1].split(",")[:2] == ["1", "0"]  # red, N
        assert lines[3].split(",")[:2] == ["3", "0"]  # blue, N
        assert (workdir / "cleaning.log").exists()

    def test_unknown_label_exits_3(self, workdir, capsys):
        self.setup_inputs(workdir)
        bad = workdir / "bad.csv"
        bad.write_text("color,flag,amount,y\npurple,N,10.0,0\nred,Y,11.0,1\n")
        rc = main(["encode", "--input", str(bad),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "color" in err and "purple" in err

    def test_non_integer_code_exits_3(self, workdir, capsys):
        self.setup_inputs(workdir)
        (workdir / "book.csv").write_text(
            CODEBOOK_CSV.replace("color,green,2", "color,green,two"))
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 3" in err and "'two'" in err and "'color'" in err

    @pytest.mark.parametrize("book, feature", [
        (CODEBOOK_CSV.replace("color,green,2", "color,green,1"), "color"),
        ("feature,label,code\ncolor,red,1\nflag,N,0\nflag,Y,1\n", "color"),
        (CODEBOOK_CSV.replace("flag,Y,1", f"flag,Y,{2 ** 53 + 1}"), "flag"),
        (CODEBOOK_CSV.replace("flag,Y,1", f"flag,Y,{-2 ** 60}"), "flag"),
    ], ids=["duplicate-code", "one-label", "code-above-2**53",
            "code-below--2**53"])
    def test_invalid_codebook_exits_3(self, workdir, capsys, book, feature):
        self.setup_inputs(workdir)
        (workdir / "book.csv").write_text(book)
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(workdir / "book.csv") in err and repr(feature) in err

    def test_code_at_2_to_the_53_is_kept(self, workdir):
        self.setup_inputs(workdir)
        (workdir / "book.csv").write_text(
            CODEBOOK_CSV.replace("color,blue,3", f"color,blue,{2 ** 53}"))
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "encoded.csv").read_text().splitlines()
        assert lines[3].split(",")[0] == str(2 ** 53)  # blue

    def test_skip_codebook_passthrough(self, workdir):
        source = make_synthetic(workdir, rows=60, seed=4)
        out = workdir / "enc"
        rc = main(["encode", "--input", str(source), "--skip-codebook",
                   "--outlier-method", "off", "--out", str(out)])
        assert rc == 0
        assert (out / "encoded.csv").read_bytes() == source.read_bytes()

    def test_missing_input_exits_2(self, workdir):
        rc = main(["encode", "--input", str(workdir / "nope.csv"),
                   "--out", str(workdir)])
        assert rc == 2


class TestScreenCommand:
    def test_artifacts_and_kept_list(self, workdir):
        source = make_synthetic(workdir, rows=200, seed=3)
        rc = main(["screen", "--input", str(source),
                   "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "screening.json").read_text())
        assert PLANTED <= set(doc["kept"])
        assert doc["alpha"] == 0.05 and doc["r-threshold"] == 0.8
        wald = (workdir / "wald.csv").read_text().splitlines()
        assert wald[0] == "variable,B,SE,wald,ddl,sig"
        assert wald[-1].startswith("constant,")
        corr = (workdir / "correlation.csv").read_text().splitlines()
        assert len(corr) == 14  # header + one line per feature

    def test_alpha_flag_recorded(self, workdir):
        source = make_synthetic(workdir, rows=200, seed=3)
        rc = main(["screen", "--input", str(source), "--alpha", "0.01",
                   "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "screening.json").read_text())
        assert doc["alpha"] == 0.01

    def test_duplicated_column_exits_4(self, workdir, capsys):
        rows = ["x1,x2,y"]
        for i in range(24):
            v = float(i)
            rows.append(f"{v},{v},{i % 2}")
        bad = workdir / "dup.csv"
        bad.write_text("\n".join(rows) + "\n")
        rc = main(["screen", "--input", str(bad), "--target", "y",
                   "--out", str(workdir)])
        assert rc == 4
        assert "singular" in capsys.readouterr().err

    def test_unconverged_fit_warns_and_exits_0(self, workdir):
        source = make_synthetic(workdir, rows=4000, seed=3, noise=0.2)
        args = ["screen", "--input", str(source), "--max-iter", "2",
                "--out", str(workdir)]
        with pytest.warns(screening.ConvergenceWarning,
                          match="did not converge in 2 iterations"):
            assert main(args) == 0
        proc = run_module(*args, warnings="default")
        assert proc.returncode == 0
        assert ("ConvergenceWarning: IRLS did not converge in 2 iterations"
                in proc.stderr)

    def test_tiny_input_exits_3(self, workdir):
        bad = workdir / "tiny.csv"
        bad.write_text("x,y\n1.0,0\n2.0,1\n")
        rc = main(["screen", "--input", str(bad), "--target", "y",
                   "--out", str(workdir)])
        assert rc == 3

    def test_holdout_screens_the_training_rows_only(self, workdir):
        source = make_synthetic(workdir, rows=400, seed=3, noise=0.1)
        rc = main(["screen", "--input", str(source), "--holdout", "0.3",
                   "--seed", "7", "--out", str(workdir)])
        assert rc == 0
        schema = schema_from_header(read_header(str(source)), "TARGET")
        data = load_csv(str(source), schema, encoded=True)
        train, _ = data.split(0.3, 7)

        def table(rows):
            return screening.wald_rows_to_text(
                screening.wald_table(screening.fit_logistic(rows)))

        wald = (workdir / "wald.csv").read_text()
        assert wald == table(train)
        assert wald != table(data)

    def test_per_variable_screen_drops_duplicated_column(self, workdir):
        # the same data that makes the joint fit singular screens fine
        # one variable at a time; the copy goes as a correlated drop
        import numpy as np
        rng = np.random.default_rng(15)
        x = rng.normal(0.0, 1.0, 300)
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-1.5 * x))).astype(int)
        path = workdir / "dup.csv"
        path.write_text("x1,x2,y\n" + "".join(
            f"{v!r},{v!r},{t}\n" for v, t in zip(x.tolist(), y.tolist())))
        rc = main(["screen", "--input", str(path), "--target", "y",
                   "--per-variable", "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "screening.json").read_text())
        assert doc["kept"] == ["x1"]
        (drop,) = doc["dropped"]
        assert (drop["name"], drop["reason"], drop["partner"]) == \
            ("x2", "correlated", "x1")
        assert abs(drop["r"] - 1.0) < 1e-12


class TestTrainCommand:
    def encoded(self, workdir, **kw):
        return make_synthetic(workdir, **kw)

    def test_planted_rule_recovered(self, workdir):
        source = self.encoded(workdir, rows=200, seed=3)
        rc = main(["train", "--input", str(source), "--min-node-size", "1",
                   "--out", str(workdir)])
        assert rc == 0
        rc = main(["eval", "--input", str(source), "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "eval.json").read_text())
        assert doc["accuracy"] == 1.0

    def test_constant_target_gives_single_leaf(self, workdir):
        flat = workdir / "flat.csv"
        flat.write_text("x,y\n" + "".join(
            f"{float(i)},1\n" for i in range(12)))
        rc = main(["train", "--input", str(flat), "--target", "y",
                   "--out", str(workdir)])
        assert rc == 0
        model = json.loads((workdir / "model.json").read_text())
        assert len(model["nodes"]) == 1
        assert model["nodes"][0]["class"] == 1

    def test_chain_deeper_than_the_recursion_limit(self, workdir):
        chain = workdir / "chain.csv"
        chain.write_text("x,y\n" + "".join(
            f"{float(i)},{i % 2}\n" for i in range(1200)))
        rc = main(["train", "--input", str(chain), "--target", "y",
                   "--min-node-size", "1", "--max-depth", "2000",
                   "--out", str(workdir)])
        assert rc == 0
        model = json.loads((workdir / "model.json").read_text())
        assert len(model["nodes"]) == 2399

    def test_min_node_size_guard(self, workdir):
        source = self.encoded(workdir)
        rc = main(["train", "--input", str(source),
                   "--min-node-size", "6", "--out", str(workdir)])
        assert rc == 2
        rc = main(["train", "--input", str(source),
                   "--min-node-size", "6", "--allow-large-min-node",
                   "--out", str(workdir)])
        assert rc == 0

    def test_variables_flag_restricts_model(self, workdir):
        source = self.encoded(workdir)
        rc = main(["train", "--input", str(source),
                   "--variables", "AMT_INCOME_TOTAL",
                   "--out", str(workdir)])
        assert rc == 0
        model = json.loads((workdir / "model.json").read_text())
        used = {node.get("feature") for node in model["nodes"]
                if node.get("feature")}
        assert used <= {"AMT_INCOME_TOTAL"}

    def test_unknown_variable_exits_2(self, workdir):
        source = self.encoded(workdir)
        rc = main(["train", "--input", str(source),
                   "--variables", "NO_SUCH_COLUMN", "--out", str(workdir)])
        assert rc == 2

    def test_missing_screening_file_exits_2(self, workdir):
        source = self.encoded(workdir)
        rc = main(["train", "--input", str(source),
                   "--screening", str(workdir / "nope.json"),
                   "--out", str(workdir)])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "kept: [AMT_CREDIT]",
        '{"dropped": []}',
        '{"kept": ["AMT_CREDIT", "NO_SUCH_COLUMN"]}',
    ], ids=["not-json", "no-kept-list", "unknown-variable"])
    def test_malformed_screening_file_exits_2(self, workdir, capsys, text):
        source = self.encoded(workdir)
        path = workdir / "screen.json"
        path.write_text(text)
        rc = main(["train", "--input", str(source), "--screening", str(path),
                   "--out", str(workdir)])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    def test_non_integer_categorical_code_exits_3(self, workdir, capsys):
        book = workdir / "book.csv"
        book.write_text(CODEBOOK_CSV)
        coded = workdir / "coded.csv"
        coded.write_text("color,flag,amount,y\n1,0,10.0,0\n2,1,11.0,1\n"
                         "1.5,0,12.0,0\n2,1,13.0,1\n1,0,14.0,1\n")
        rc = main(["train", "--input", str(coded), "--codebook", str(book),
                   "--target", "y", "--min-node-size", "1",
                   "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "'color'" in err

    def test_screening_that_keeps_nothing_gives_the_root_leaf(self,
                                                               workdir):
        source = self.encoded(workdir)
        path = workdir / "screen.json"
        path.write_text('{"kept": []}')
        rc = main(["train", "--input", str(source), "--screening", str(path),
                   "--min-node-size", "1", "--out", str(workdir)])
        assert rc == 0
        root = json.loads((workdir / "model.json").read_text())["nodes"]
        assert len(root) == 1 and root[0]["left"] is None
        assert root[0]["n"] == 200

    def test_screening_json_in_out_dir_feeds_training(self, workdir):
        source = self.encoded(workdir, rows=200, seed=3)
        assert main(["screen", "--input", str(source),
                     "--out", str(workdir)]) == 0
        assert main(["train", "--input", str(source),
                     "--out", str(workdir)]) == 0
        kept = set(json.loads(
            (workdir / "screening.json").read_text())["kept"])
        model = json.loads((workdir / "model.json").read_text())
        used = {node.get("feature") for node in model["nodes"]
                if node.get("feature")}
        assert used <= kept


class TestEvalCommand:
    def trained(self, workdir, rows=200, seed=3, noise=None, extra=()):
        source = make_synthetic(workdir, rows=rows, seed=seed, noise=noise)
        assert main(["train", "--input", str(source),
                     "--out", str(workdir), *extra]) == 0
        return source

    def test_report_files(self, workdir):
        source = self.trained(workdir)
        rc = main(["eval", "--input", str(source), "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "eval.json").read_text())
        for key in ("vp", "vn", "fp", "fn", "e1", "e2", "e3", "auc"):
            assert key in doc
        assert 0.0 <= doc["auc"] <= 1.0
        assert (workdir / "eval.txt").read_text().startswith(" ")
        roc_lines = (workdir / "roc.tsv").read_text().splitlines()
        assert roc_lines[0] == "0.0\t0.0"

    def test_hard_score_mode(self, workdir):
        source = self.trained(workdir, noise=0.2)
        rc = main(["eval", "--input", str(source), "--roc-scores", "hard",
                   "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "eval.json").read_text())
        assert 0.0 <= doc["auc"] <= 1.0

    def test_holdout_reruns_identically(self, workdir):
        source = self.trained(workdir, rows=400,
                              extra=("--holdout", "0.3", "--seed", "7"))
        outs = []
        for sub in ("e1", "e2"):
            out = workdir / sub
            rc = main(["eval", "--input", str(source),
                       "--model", str(workdir / "model.json"),
                       "--holdout", "0.3", "--seed", "7",
                       "--out", str(out)])
            assert rc == 0
            outs.append((out / "eval.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_model_exits_2(self, workdir):
        source = make_synthetic(workdir)
        rc = main(["eval", "--input", str(source), "--out", str(workdir)])
        assert rc == 2

    def test_leaf_class_outside_0_1_exits_3(self, workdir, capsys):
        source = self.trained(workdir)
        model = workdir / "model.json"
        doc = json.loads(model.read_text())
        leaf = next(i for i, node in enumerate(doc["nodes"])
                    if node["left"] is None)
        doc["nodes"][leaf]["class"] = 7
        model.write_text(json.dumps(doc))
        rc = main(["eval", "--input", str(source), "--out", str(workdir)])
        assert rc == 3
        assert f"node {leaf} is a classification leaf whose 'class' is 7" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_regression_model_exits_2(self, workdir, capsys, command):
        source = self.trained(workdir, extra=("--mode", "regression"))
        rc = main([command, "--input", str(source), "--out", str(workdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "regression" in err and "model.json" in err


class TestPredictCommand:
    def test_leaf_without_class_exits_3(self, workdir, capsys):
        source = TestEvalCommand().trained(workdir)
        model = workdir / "model.json"
        doc = json.loads(model.read_text())
        leaf = next(i for i, node in enumerate(doc["nodes"])
                    if node["left"] is None)
        doc["nodes"][leaf]["class"] = None
        model.write_text(json.dumps(doc))
        rc = main(["predict", "--input", str(source), "--out", str(workdir)])
        assert rc == 3
        assert f"node {leaf} is a classification leaf" in \
            capsys.readouterr().err

    def test_with_target_column(self, workdir):
        source = TestEvalCommand().trained(workdir)
        rc = main(["predict", "--input", str(source),
                   "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "predictions.csv").read_text().splitlines()
        assert lines[0].endswith("TARGET,predicted_class,score")
        assert len(lines) == 201

    def test_predictions_match_eval_confusion(self, workdir):
        source = TestEvalCommand().trained(workdir)
        assert main(["eval", "--input", str(source),
                     "--out", str(workdir)]) == 0
        assert main(["predict", "--input", str(source),
                     "--out", str(workdir)]) == 0
        doc = json.loads((workdir / "eval.json").read_text())
        lines = (workdir / "predictions.csv").read_text().splitlines()
        header = lines[0].split(",")
        t = header.index("TARGET")
        p = header.index("predicted_class")
        hits = sum(1 for line in lines[1:]
                   if line.split(",")[t] == line.split(",")[p])
        assert hits == doc["vp"] + doc["vn"]

    def test_without_target_column(self, workdir):
        source = TestEvalCommand().trained(workdir)
        text = source.read_text().splitlines()
        names = text[0].split(",")
        drop = names.index("TARGET")
        unlabeled = workdir / "unlabeled.csv"
        unlabeled.write_text("\n".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in text) + "\n")
        rc = main(["predict", "--input", str(unlabeled),
                   "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "predictions.csv").read_text().splitlines()
        assert "TARGET" not in lines[0]
        assert lines[0].endswith("predicted_class,score")

    def test_empty_input_writes_header_only(self, workdir):
        source = TestEvalCommand().trained(workdir)
        empty = workdir / "empty.csv"
        empty.write_text(source.read_text().splitlines()[0] + "\n")
        rc = main(["predict", "--input", str(empty),
                   "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1

    def blank_cell(self, workdir, source, feature, row):
        """Copy of source with one feature cell of one data row blank."""
        lines = source.read_text().splitlines()
        j = lines[0].split(",").index(feature)
        cells = lines[row + 1].split(",")
        cells[j] = ""
        lines[row + 1] = ",".join(cells)
        holey = workdir / "holey.csv"
        holey.write_text("\n".join(lines) + "\n")
        return holey

    def test_missing_routed_cell_exits_3(self, workdir, capsys):
        source = TestEvalCommand().trained(workdir)
        model = json.loads((workdir / "model.json").read_text())
        feature = model["nodes"][0]["feature"]
        holey = self.blank_cell(workdir, source, feature, row=7)
        rc = main(["predict", "--input", str(holey), "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "row 7" in err and repr(feature) in err

    def test_missing_unrouted_cell_still_scores(self, workdir):
        source = TestEvalCommand().trained(workdir)
        model = json.loads((workdir / "model.json").read_text())
        routed = {node["feature"] for node in model["nodes"]
                  if node["left"] is not None}
        unused = next(f["name"] for f in model["schema"]["features"]
                      if f["name"] not in routed)
        holey = self.blank_cell(workdir, source, unused, row=7)
        rc = main(["predict", "--input", str(holey), "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "predictions.csv").read_text().splitlines()
        assert len(lines) == 201

    def test_non_integer_categorical_cell_exits_3(self, workdir, capsys):
        book = workdir / "book.csv"
        book.write_text(CODEBOOK_CSV)
        coded = workdir / "coded.csv"
        coded.write_text("color,flag,amount,y\n" + "".join(
            f"{code},{i % 2},{10.0 + i},{int(code == 2)}\n"
            for i, code in enumerate([1, 2, 3] * 4)))
        assert main(["train", "--input", str(coded), "--codebook", str(book),
                     "--target", "y", "--variables", "color",
                     "--min-node-size", "1", "--out", str(workdir)]) == 0
        model = json.loads((workdir / "model.json").read_text())
        assert model["nodes"][0]["feature"] == "color"
        fresh = workdir / "fresh.csv"
        fresh.write_text("color,flag,amount\n3,1,12.0\n2.9,0,10.0\n")
        rc = main(["predict", "--input", str(fresh), "--out", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "row 1" in err and "2.9" in err and "'color'" in err
        assert not (workdir / "predictions.csv").exists()

    def test_schema_mismatch_exits_3(self, workdir):
        TestEvalCommand().trained(workdir)
        other = workdir / "other.csv"
        other.write_text("a,b\n1.0,2.0\n")
        rc = main(["predict", "--input", str(other),
                   "--out", str(workdir)])
        assert rc == 3


#: Longer than the csv module's field limit of 131,072 characters.
LONG_FIELD = "9" * 200_000

LATIN_CODEBOOK = CODEBOOK_CSV.replace("red", "r\xe9d").encode("latin-1")


class TestUnreadableFiles:
    """A byte that is not UTF-8, or a line the csv module rejects,
    exits 3 naming the file, whichever reader meets it."""

    @pytest.mark.parametrize("data, book, bad, found", [
        (b"x,\xffy\n1.0,0\n", None, "in.csv", "byte 0xff"),
        (b"x,y\n" + b"1.0,0\n2.0,1\n" * 2000 + b"\xff,1\n", None,
         "in.csv", "byte 0xff"),
        (LABELED_CSV.encode(), LATIN_CODEBOOK, "book.csv", "byte 0xe9"),
        (b"x," + LONG_FIELD.encode() + b"\n1.0,0\n", None,
         "in.csv", "line 1: field larger than field limit"),
        (b"x,y\n1.0,0\n" + LONG_FIELD.encode() + b",1\n", None,
         "in.csv", "line 3: field larger than field limit"),
        (LABELED_CSV.encode(), CODEBOOK_CSV.replace("red", LONG_FIELD).encode(),
         "book.csv", "line 2: field larger than field limit"),
    ], ids=["header-byte", "cell-byte", "codebook-byte",
            "header-field", "cell-field", "codebook-field"])
    def test_exits_3_naming_the_file(self, workdir, capsys, data, book, bad,
                                     found):
        (workdir / "in.csv").write_bytes(data)
        args = ["encode", "--input", str(workdir / "in.csv"), "--target", "y",
                "--out", str(workdir / "out")]
        if book is None:
            args.append("--skip-codebook")
        else:
            (workdir / "book.csv").write_bytes(book)
            args += ["--codebook", str(workdir / "book.csv")]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert str(workdir / bad) in err and found in err

    def test_cell_cases_pass_the_header_reader(self, workdir):
        """The cell cases above fail in load_csv, not in read_header."""
        source = workdir / "in.csv"
        source.write_bytes(b"x,y\n" + b"1.0,0\n2.0,1\n" * 2000 + b"\xff,1\n")
        assert read_header(str(source)) == ["x", "y"]
        source.write_bytes(b"x,y\n1.0,0\n" + LONG_FIELD.encode() + b",1\n")
        assert read_header(str(source)) == ["x", "y"]


@pytest.mark.parametrize("command", ["encode", "screen", "train", "eval",
                                     "pipeline"])
def test_repeated_header_column_exits_3(workdir, capsys, command):
    source = workdir / "dup.csv"
    source.write_text("a,a,TARGET\n" + "1.0,2.0,0\n3.0,4.0,1\n" * 10)
    assert main([command, "--input", str(source),
                 "--out", str(workdir / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{source} names column 'a' more than once" in err


def run_module(*args, warnings="error"):
    """python -W <warnings> -m solvency.cli with the given arguments, run
    on this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "solvency.cli", *args],
        capture_output=True, text=True, env=env, timeout=60)


def run_pipeline_into(out, source, extra=()):
    return main(["pipeline", "--input", str(source), "--skip-codebook",
                 "--out", str(out), *extra])


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


class TestPipelineCommand:
    def test_full_run(self, workdir):
        source = make_synthetic(workdir, rows=200, seed=3)
        out = workdir / "run"
        assert run_pipeline_into(out, source) == 0
        manifest = read_manifest(out)
        assert [s["status"] for s in manifest["stages"]] == \
            ["completed"] * 4
        for stage in manifest["stages"]:
            for artifact in stage["artifacts"]:
                assert (out / artifact).exists()
        assert manifest["config"]["r-threshold"] == 0.8
        assert manifest["config"]["seed"] == 0
        kept = json.loads((out / "screening.json").read_text())["kept"]
        assert PLANTED <= set(kept)

    def test_missing_codebook_fails_first_stage(self, workdir):
        source = make_synthetic(workdir)
        out = workdir / "run"
        rc = main(["pipeline", "--input", str(source),
                   "--codebook", str(workdir / "absent.csv"),
                   "--out", str(out)])
        assert rc == 2
        manifest = read_manifest(out)
        assert [s["status"] for s in manifest["stages"]] == \
            ["failed", "skipped", "skipped", "skipped"]
        assert "absent.csv" in manifest["stages"][0]["error"]

    def test_rerun_is_identical_except_timings(self, workdir):
        source = make_synthetic(workdir, rows=200, seed=3)
        outs = []
        for sub in ("r1", "r2"):
            out = workdir / sub
            assert run_pipeline_into(out, source) == 0
            outs.append(out)
        a, b = (read_manifest(o) for o in outs)
        for doc in (a, b):
            for stage in doc["stages"]:
                stage["seconds"] = 0.0
            doc["config"]["out"] = ""
        assert a == b
        for name in ("encoded.csv", "cleaning.log", "wald.csv",
                     "correlation.csv", "screening.json", "model.json",
                     "tree.dot", "tree.txt", "eval.json", "eval.txt",
                     "roc.tsv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_matches_manual_stages(self, workdir, capsys):
        source = make_synthetic(workdir, rows=200, seed=3)
        assert_pipeline_matches_manual(workdir, capsys, source,
                                       ["--skip-codebook"])

    @pytest.mark.parametrize("case", ["negative-zero", "code-read-missing",
                                      "holdout", "zscore"])
    def test_matches_manual_stages_on(self, workdir, capsys, case):
        source = make_synthetic(workdir, rows=400, seed=3, noise=0.1)
        encode, data, split = ["--skip-codebook"], [], []
        if case == "negative-zero":
            # -0.0 is written as 0 and read back as +0.0
            text = source.read_text().replace("\n0,", "\n-0.0,")
            assert text.count("\n-0.0,") > 100
            source.write_text(text)
        elif case == "code-read-missing":
            # code 0 of flag survives encode, whose token check sees the
            # label N, then reads back missing in screen
            (workdir / "book.csv").write_text(CODEBOOK_CSV)
            source = workdir / "raw.csv"
            source.write_text(LABELED_CSV + "".join(
                f"{('red', 'green', 'blue')[i % 3]},{'NY'[i % 2]},"
                f"{10 + i % 7}.5,{i // 2 % 2}\n" for i in range(60)))
            encode = []
            data = ["--codebook", str(workdir / "book.csv"), "--target", "y",
                    "--missing-token", "0"]
        elif case == "holdout":
            split = ["--holdout", "0.3", "--seed", "7"]
        else:
            encode = ["--skip-codebook", "--outlier-method", "zscore"]
        assert_pipeline_matches_manual(workdir, capsys, source, encode,
                                       data, split)

    def test_parses_one_csv(self, workdir, monkeypatch):
        source = make_synthetic(workdir, rows=200, seed=3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counted)
        assert run_pipeline_into(workdir / "run", source) == 0
        assert calls == [str(source)]


    def test_evaluates_the_grown_tree_in_memory(self, workdir, monkeypatch):
        source = make_synthetic(workdir, rows=200, seed=3)
        texts = counted_deserialize(monkeypatch)
        out = workdir / "run"
        assert run_pipeline_into(out, source) == 0
        assert texts == []
        manual = workdir / "manual"
        assert main(["eval", "--input", str(out / "encoded.csv"),
                     "--model", str(out / "model.json"),
                     "--out", str(manual)]) == 0
        assert texts == [(out / "model.json").read_text()]
        for name in ("eval.json", "eval.txt", "roc.tsv"):
            assert (out / name).read_bytes() == (manual / name).read_bytes()

    def test_evaluates_a_configured_model_file(self, workdir, monkeypatch):
        source = make_synthetic(workdir, rows=200, seed=3)
        stump = workdir / "stump"
        assert main(["train", "--input", str(source), "--max-depth", "1",
                     "--out", str(stump)]) == 0
        config = workdir / "config.json"
        config.write_text(json.dumps({"model": str(stump / "model.json")}))
        texts = counted_deserialize(monkeypatch)
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 0
        assert texts == [(stump / "model.json").read_text()]
        assert (out / "model.json").read_text() != texts[0]
        manual = workdir / "manual"
        assert main(["eval", "--input", str(out / "encoded.csv"),
                     "--model", str(stump / "model.json"),
                     "--out", str(manual)]) == 0
        assert (out / "eval.json").read_bytes() == \
            (manual / "eval.json").read_bytes()

    def test_regression_config_fails_at_eval(self, workdir, capsys):
        """pipeline has no --mode flag, but a config file may set the
        mode: train grows a regression tree, and eval refuses it."""
        source = make_synthetic(workdir, rows=200, seed=3)
        config = workdir / "regression.json"
        config.write_text(json.dumps({"mode": "regression"}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 2
        stages = read_manifest(out)["stages"]
        assert [s["status"] for s in stages] == ["completed"] * 3 + ["failed"]
        assert stages[3]["error"] == (
            f"model {out / 'model.json'} is a regression tree; eval and "
            "predict need a classification tree")
        assert "regression" in capsys.readouterr().err


def counted_deserialize(monkeypatch):
    """The texts cart.deserialize is called on from now on."""
    texts = []

    def counted(text):
        texts.append(text)
        return deserialize(text)

    monkeypatch.setattr(cart, "deserialize", counted)
    return texts


def assert_pipeline_matches_manual(workdir, capsys, source, encode_flags,
                                   data_flags=(), split_flags=()):
    """pipeline and encode, screen, train, eval run by hand with the
    same flags give the same exit code, stage outcomes and files."""
    auto, manual = workdir / "auto", workdir / "manual"
    code = main(["pipeline", "--input", str(source), "--out", str(auto),
                 *encode_flags, *data_flags, *split_flags])
    stages = [{k: v for k, v in stage.items() if k in ("name", "status",
                                                       "error")}
              for stage in read_manifest(auto)["stages"]]
    by_hand, manual_code = [], 0
    for name, flags in (("encode", ["--input", str(source), *encode_flags]),
                        ("screen", split_flags), ("train", split_flags),
                        ("eval", split_flags)):
        if manual_code:
            by_hand.append({"name": name, "status": "skipped"})
            continue
        capsys.readouterr()
        manual_code = main([name, "--out", str(manual), *data_flags, *flags])
        by_hand.append({"name": name, "status": "completed"})
        if manual_code:
            err = capsys.readouterr().err.strip()
            by_hand[-1] = {"name": name, "status": "failed",
                           "error": err.removeprefix(f"solvency {name}: ")}
    assert (code, stages) == (manual_code, by_hand)
    names = sorted(os.listdir(manual))
    assert sorted(os.listdir(auto)) == sorted(names + ["manifest.json"])
    for name in names:
        assert (auto / name).read_bytes() == (manual / name).read_bytes(), \
            name


#: Option strings of every subcommand; pipeline takes the encode,
#: screen, tree and eval settings but never --mode, --variables,
#: --screening or --model.
COMMON = {"-h", "--help", "--config", "--out", "--seed"}
DATA = {"--input", "--codebook", "--target", "--missing-token"}
ENCODE = {"--skip-codebook", "--outlier-method", "--iqr-multiplier",
          "--z-threshold"}
SCREEN = {"--alpha", "--r-threshold", "--max-iter", "--tol",
          "--per-variable"}
TREE = {"--min-node-size", "--max-depth", "--min-gini-decrease",
        "--allow-large-min-node"}
OPTIONS = {
    "encode": COMMON | DATA | ENCODE,
    "screen": COMMON | DATA | SCREEN | {"--holdout"},
    "train": COMMON | DATA | TREE | {"--screening", "--variables", "--mode",
                                     "--holdout"},
    "eval": COMMON | DATA | {"--model", "--holdout", "--roc-scores"},
    "predict": COMMON | DATA | {"--model"},
    "synth": COMMON | {"--rows", "--noise"},
    "pipeline": COMMON | DATA | ENCODE | SCREEN | TREE | {"--holdout",
                                                          "--roc-scores"},
}


class TestParser:
    def test_option_strings_of_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {opt for action in parser._actions
                        for opt in action.option_strings}
                 for name, parser in sub.choices.items()}
        assert found == OPTIONS

    def test_pipeline_flags_parse_as_the_stage_flags_do(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def spec(action):
            return (type(action), action.dest, action.type, action.choices,
                    action.default, action.const)

        stages = {opt: spec(action)
                  for name in ("encode", "screen", "train", "eval")
                  for action in sub.choices[name]._actions
                  for opt in action.option_strings}
        for action in sub.choices["pipeline"]._actions:
            for opt in action.option_strings:
                assert spec(action) == stages[opt], opt

    def test_module_entry_point_runs_without_warnings(self):
        proc = run_module("--help")
        assert proc.returncode == 0, proc.stderr


class TestConfigResolution:
    def test_file_then_flag_precedence(self, workdir):
        source = make_synthetic(workdir, rows=200, seed=3)
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.01, "r-threshold": 0.9}))
        rc = main(["screen", "--config", str(cfg), "--alpha", "0.2",
                   "--input", str(source), "--out", str(workdir)])
        assert rc == 0
        doc = json.loads((workdir / "screening.json").read_text())
        assert doc["alpha"] == 0.2  # flag wins
        assert doc["r-threshold"] == 0.9  # file beats default

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"alhpa": 0.01}))
        rc = main(["synth", "--config", str(cfg), "--out", str(workdir)])
        assert rc == 2
        assert "alhpa" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"missing-tokens": 5}, {"alpha": "x"}, {"max-depth": "deep"},
    ], ids=["missing-tokens", "alpha", "max-depth"])
    def test_wrongly_typed_config_value_exits_2(self, workdir, capsys, doc):
        source = make_synthetic(workdir)
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(cfg), "--input", str(source),
                   "--out", str(workdir)])
        assert rc == 2
        (key,) = doc
        assert repr(key) in capsys.readouterr().err

    def test_config_must_be_object(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir)]) == 2

    def test_config_must_be_json(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text("alpha = 0.01")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir)]) == 2

    def test_invalid_alpha_flag_exits_2(self, workdir, capsys):
        source = make_synthetic(workdir)
        rc = main(["screen", "--input", str(source), "--alpha", "1.5",
                   "--out", str(workdir)])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_argparse_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--mode", "ternary"])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
