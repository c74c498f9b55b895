"""Command line behavior: exit codes, artifacts, configuration
precedence, determinism, and stage composability.

Everything runs main() in-process with --out pointed at tmp_path, so
these tests double as integration coverage of the whole package.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from solvency import cart, cli, screening
from solvency.cart import deserialize
from solvency.cli import build_parser, main
from solvency.dataset import load_csv, read_header, schema_from_header
from solvency.errors import SolvencyWarning

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

    @pytest.mark.parametrize("doc, flags, same", [
        ({"seed": 5, "synth": {"n_rows": 30, "noise": 0.3, "seed": 9}},
         ["--rows", "40", "--noise", "0.1", "--seed", "2"],
         ["--rows", "40", "--noise", "0.1", "--seed", "2"]),
        ({"seed": 5, "synth": {"n_rows": 30, "seed": 9}}, ["--noise", "0.1"],
         ["--rows", "30", "--noise", "0.1", "--seed", "9"]),
        ({"seed": 5, "synth": {"n_rows": 30}}, [], ["--rows", "30",
                                                    "--seed", "5"]),
    ], ids=["flags", "synth-seed", "top-level-seed"])
    def test_flag_then_synth_object_then_file_seed(self, workdir, doc, flags,
                                                   same):
        """A synth flag beats the config's synth object, whose seed beats
        the config's top-level seed."""
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(cfg), *flags,
                     "--out", str(workdir / "a")]) == 0
        assert main(["synth", *same, "--out", str(workdir / "b")]) == 0
        assert ((workdir / "a" / "synthetic.csv").read_bytes()
                == (workdir / "b" / "synthetic.csv").read_bytes())

    def test_digests_pinned(self, workdir):
        """synthetic.csv of a noisy run and of the README's config
        example, as recorded before the planted rule was held as its
        JSON form."""
        assert main(synth_args(workdir / "a", rows=500, seed=3,
                               noise=0.1)) == 0
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": 0.01, "r-threshold": 0.9, "min-node-size": 1,
            "synth": {"n_rows": 500, "noise": 0.1,
                      "rule": {"feature": "AMT_CREDIT", "threshold": 300000,
                               "left": 1, "right": 0}}}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir / "b")]) == 0
        digests = [hashlib.sha256((workdir / run / "synthetic.csv")
                                  .read_bytes()).hexdigest()
                   for run in ("a", "b")]
        assert digests == [
            "3ecb8ae88ad9d2c5b4b23c715dc2d216523e9f90ee499d63102fdff36683f831",
            "0f73a3a0203a59bff88adf21d5ace1d239943a01b31abcc5254f509fe1ad7fb2",
        ]

    @pytest.mark.parametrize("spec, found", [
        ({"rule": {"feature": "AMT_CREDIT", "threshold": 1, "left": 0}},
         "rule split on 'AMT_CREDIT' needs 'left', 'right' and one of "
         "'threshold' and 'subset'"),
        ({"rule": {"feature": "NAME_HOUSING_TYPE", "subset": ["x"],
                   "left": 1, "right": 0}},
         "rule subset on 'NAME_HOUSING_TYPE' must be a list of its codes "
         "1..6, not ['x']"),
        ({"rule": {"feature": "NAME_HOUSING_TYPE", "subset": 3,
                   "left": 1, "right": 0}},
         "rule subset on 'NAME_HOUSING_TYPE' must be a list of its codes "
         "1..6, not 3"),
        ({"features": 3}, "synth key 'features' must be a list, not 3"),
        ({"features": [{"name": 5, "kind": "numeric"}], "rule": 0},
         "synth feature key 'name' must be a string, not 5"),
        ({"features": [{"name": "x", "kind": "numeric", "low": "x"}],
          "rule": 0},
         "synth feature 'x' key 'low' must be a finite number, not 'x'"),
        ({"features": [{"name": "c", "kind": "categorical", "levels": 1}],
          "rule": 0},
         "categorical feature 'c' needs >= 2 levels"),
        ({"features": [{"name": "a", "kind": "numeric"},
                       {"name": "a", "kind": "numeric"}], "rule": 0},
         "synth feature 'a' is listed twice"),
        ({"seed": -1}, "seed must fit in 64 unsigned bits"),
        ({"rule": {"label": 1.5}},
         "rule leaves must be class 0 or 1, not 1.5"),
        ({"rule": True}, "rule leaves must be class 0 or 1, not True"),
        ({"features": [{"name": "c", "kind": "categorical", "levels": "3"}],
          "rule": 0},
         "synth feature 'c' key 'levels' must be an integer, not '3'"),
        ({"features": [{"name": "x", "kind": "numeric"}], "target": 5,
          "rule": 0},
         "synth key 'target' must be a string, not 5"),
        ({"n_rows": 100.9},
         "synth key 'n_rows' must be an integer, not 100.9"),
        ({"rule": {"feature": "AMT_CREDIT", "threshold": 1, "subset": [1],
                   "left": 0, "right": 1}},
         "rule split on 'AMT_CREDIT' needs 'left', 'right' and one of "
         "'threshold' and 'subset'"),
        ({"nrows": 30, "seed": 4}, "unknown key 'nrows' in synth object"),
        ({"features": [{"name": "c", "kind": "categorical", "levels": 3,
                        "high": 9}], "rule": 0},
         "unknown key 'high' in synth feature 'c'"),
        ({"rule": {"feature": "AMT_CREDIT", "threshold": 1, "left": 0,
                   "right": {"label": 1, "colour": 1}}},
         "unknown key 'colour' in rule leaf"),
    ], ids=["no-right", "subset-text", "subset-number", "features-number",
            "name-number", "low-text", "one-level", "twice-named",
            "negative-seed", "fractional-label", "bool-rule", "levels-text",
            "target-number", "fractional-rows", "threshold-and-subset",
            "misspelled-key", "categorical-high", "leaf-key"])
    def test_malformed_spec_exits_2(self, workdir, capsys, spec, found):
        """Each value is refused with one line naming it, before any
        file is written, and never coerced."""
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"synth": spec}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir / "out")]) == 2
        assert capsys.readouterr().err == f"solvency synth: {found}\n"
        assert not (workdir / "out" / "synthetic.csv").exists()


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

    def test_padded_codebook_label_matches_its_cells(self, workdir):
        """Cells are stripped before the lookup, and so are book labels."""
        self.setup_inputs(workdir)
        (workdir / "book.csv").write_text(
            CODEBOOK_CSV.replace("color,red,1", "color, red ,1"))
        (workdir / "raw.csv").write_text(
            LABELED_CSV.replace("red,Y", " red ,Y"))
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--target", "y", "--out", str(workdir)])
        assert rc == 0
        lines = (workdir / "encoded.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "1", "2", "3", "1", "2"]

    @pytest.mark.parametrize("repeat", ["color,red,2", "color, red ,2",
                                        "color,red,1"])
    def test_repeated_codebook_label_exits_3(self, workdir, capsys, repeat):
        """A label listed twice, or twice once stripped, names its line;
        before, the last code silently won."""
        self.setup_inputs(workdir)
        book = workdir / "book.csv"
        book.write_text(CODEBOOK_CSV.replace("color,blue,3",
                                             f"{repeat}\ncolor,blue,3"))
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(book), "--target", "y",
                   "--out", str(workdir)])
        assert rc == 3
        assert (f"{book} line 4: label 'red' of feature 'color' is listed "
                "twice") in capsys.readouterr().err
        assert not (workdir / "encoded.csv").exists()

    @pytest.mark.parametrize("book, found", [
        ("feature,label,code,code\ncolor,red,1,5\ncolor,green,2,6\n"
         "color,blue,3,7\nflag,N,0,0\nflag,Y,1,1\n",
         ": codebook header must be ['code', 'feature', 'label'], found "
         "['feature', 'label', 'code', 'code']"),
        (CODEBOOK_CSV.replace("color,red,1", "color,red,1,9"),
         " line 2: 4 cells, expected 3"),
        (CODEBOOK_CSV.replace("color,red,1", "color,red"),
         " line 2: 2 cells, expected 3"),
        (CODEBOOK_CSV.replace("color,red,1", "\ncolor,red,1"),
         " line 2: 0 cells, expected 3"),
    ], ids=["column-twice", "long-row", "short-row", "blank-line"])
    def test_malformed_codebook_exits_3(self, workdir, capsys, book, found):
        """Before, the last code column won, a long row lost its extra
        cells, a short one was refused as a code None, and a blank line
        was skipped."""
        self.setup_inputs(workdir)
        path = workdir / "book.csv"
        path.write_text(book)
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(path), "--target", "y",
                   "--out", str(workdir)])
        assert rc == 3
        assert capsys.readouterr().err == f"solvency encode: {path}{found}\n"
        assert not (workdir / "encoded.csv").exists()

    def test_padded_codebook_names_match_the_unpadded(self, workdir):
        """Feature and header names are stripped, as labels are; before,
        a padded feature name matched no column."""
        self.setup_inputs(workdir)
        assert main(["encode", "--input", str(workdir / "raw.csv"),
                     "--codebook", str(workdir / "book.csv"), "--target",
                     "y", "--out", str(workdir / "plain")]) == 0
        (workdir / "book.csv").write_text(
            CODEBOOK_CSV.replace("feature,label,code", " feature, label, code")
            .replace("color,", " color ,"))
        assert main(["encode", "--input", str(workdir / "raw.csv"),
                     "--codebook", str(workdir / "book.csv"), "--target",
                     "y", "--out", str(workdir / "padded")]) == 0
        encoded = [(workdir / out / "encoded.csv").read_bytes()
                   for out in ("plain", "padded")]
        assert encoded[0] == encoded[1]
        assert encoded[0].splitlines()[1] == b"1,0,10,0"

    def test_a_column_the_book_lacks_is_named(self, workdir, capsys):
        """A labelled column whose feature the book does not hold reads
        as numeric, so each of its cells is missing; before, encode said
        only that cleaning removed every row."""
        (workdir / "raw.csv").write_text(
            "color,x,TARGET\nred,1.0,0\nblue,2.0,1\nred,3.0,0\n")
        (workdir / "book.csv").write_text(
            "feature,label,code\nshade,red,1\nshade,blue,2\n")
        rc = main(["encode", "--input", str(workdir / "raw.csv"),
                   "--codebook", str(workdir / "book.csv"),
                   "--out", str(workdir)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "solvency encode: cleaning removed every row; column 'color' "
            "has no value in any row\n")
        assert not (workdir / "encoded.csv").exists()

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

    def test_target_outside_0_1_names_its_input_row(self, workdir, capsys):
        """Data row 0 is dropped for its NA cell; the 2 in data row 2 is
        named by that row before any artifact is written."""
        source = workdir / "raw.csv"
        source.write_text("x,TARGET\nNA,1\n2,0\n3,2\n4,0\n5,1\n")
        out = workdir / "enc"
        assert main(["encode", "--input", str(source), "--out",
                     str(out)]) == 3
        assert capsys.readouterr().err == (
            "solvency encode: target 'TARGET' of row 2 is 2.0, not 0 or 1\n")
        assert list(out.iterdir()) == []

    def test_target_outside_0_1_in_a_dropped_row_is_not_checked(
            self, workdir, capsys):
        source = workdir / "raw.csv"
        source.write_text("x,TARGET\nNA,2\n2,0\n3,1\n4,0\n5,1\n")
        assert main(["encode", "--input", str(source), "--out",
                     str(workdir)]) == 0
        assert "class counts (2, 2)" in capsys.readouterr().out
        assert (workdir / "cleaning.log").read_text() == "0\tmissing:x\n"


@pytest.mark.parametrize("command", ["encode", "predict"])
def test_command_without_input_exits_2(workdir, capsys, command):
    assert main([command, "--out", str(workdir)]) == 2
    assert capsys.readouterr().err == (
        f"solvency {command}: {command} needs an input CSV (--input)\n")


@pytest.mark.parametrize("command", ["encode", "screen", "train"])
def test_empty_input_exits_3(workdir, capsys, command):
    empty = workdir / "empty.csv"
    empty.write_text("")
    assert main([command, "--input", str(empty), "--out", str(workdir)]) == 3
    assert capsys.readouterr().err == (
        f"solvency {command}: {empty} is empty, no header row\n")


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

    def test_variable_names_are_quoted(self, workdir):
        """A name holding a comma is quoted in wald.csv and
        correlation.csv, as in encoded.csv's header."""
        source = make_synthetic(workdir, rows=200, seed=3)
        text = source.read_text().replace("AMT_CREDIT", '"amt, credit"', 1)
        source.write_text(text)
        assert main(["screen", "--input", str(source),
                     "--out", str(workdir)]) == 0
        names = next(csv.reader(text.splitlines()))[:-1]
        assert "amt, credit" in names
        with open(workdir / "wald.csv", newline="") as fh:
            wald = list(csv.reader(fh))
        assert {len(row) for row in wald} == {6}
        assert [row[0] for row in wald[1:]] == names + ["constant"]
        with open(workdir / "correlation.csv", newline="") as fh:
            corr = list(csv.reader(fh))
        assert {len(row) for row in corr} == {len(names) + 1}
        assert corr[0] == [""] + names
        assert [row[0] for row in corr[1:]] == names

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

    @pytest.mark.parametrize("extra", [[], ["--per-variable"]],
                             ids=["joint", "per-variable"])
    def test_constant_column_exits_4_naming_it(self, workdir, capsys, extra):
        bad = workdir / "const.csv"
        bad.write_text("x1,x2,y\n" + "".join(
            f"{i},7.5,{i % 2}\n" for i in range(24)))
        rc = main(["screen", "--input", str(bad), "--target", "y", *extra,
                   "--out", str(workdir)])
        assert rc == 4
        assert capsys.readouterr().err == (
            "solvency screen: variable 'x2' has zero variance\n")

    def test_unconverged_fit_warns_and_exits_0(self, workdir):
        source = make_synthetic(workdir, rows=4000, seed=3, noise=0.2)
        args = ["screen", "--input", str(source), "--max-iter", "2",
                "--out", str(workdir)]
        with pytest.warns(SolvencyWarning,
                          match="did not converge in 2 iterations"):
            assert main(args) == 0
        proc = run_module(*args, warnings="default")
        assert proc.returncode == 0
        assert proc.stderr == ("solvency screen: warning: IRLS did not "
                               "converge in 2 iterations; the coefficients "
                               "are not final\n")

    @pytest.mark.parametrize("extra, digest", [
        ([], "b6c037cade40a8a3851b535413c50f677765782f917f4db27341435aa461f50c"),
        (["--per-variable"],
         "449d82f7d34904aec1f02d6de69ffbe82631c7b81f63027658bcaff2c77cbc59"),
    ], ids=["joint", "per-variable"])
    def test_unconverged_wald_bytes(self, workdir, extra, digest):
        """wald.csv of fits stopped by --max-iter 2: the coefficients
        after two steps and the standard errors at them."""
        source = make_synthetic(workdir, rows=4000, seed=3, noise=0.2)
        with pytest.warns(SolvencyWarning, match="did not converge"):
            assert main(["screen", "--input", str(source), "--max-iter", "2",
                         *extra, "--out", str(workdir)]) == 0
        assert hashlib.sha256(
            (workdir / "wald.csv").read_bytes()).hexdigest() == digest

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
        data = load_csv(str(source), schema)
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

    def test_min_node_size_has_no_cap(self, workdir):
        """min-node-size takes any size from 1 up, as CartConfig does,
        and --allow-large-min-node is no flag."""
        source = self.encoded(workdir)
        rc = main(["train", "--input", str(source),
                   "--min-node-size", "6", "--out", str(workdir)])
        assert rc == 0
        model = json.loads((workdir / "model.json").read_text())
        assert model["config"]["min_node_size"] == 6
        with pytest.raises(SystemExit) as exc:
            main(["train", "--input", str(source), "--allow-large-min-node",
                  "--out", str(workdir)])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("text, found", [
        ("kept: [AMT_CREDIT]", "screening file {} is not valid JSON: "
         "Expecting value: line 1 column 1 (char 0)"),
        ('{"dropped": []}', "screening file {} holds no JSON object with a "
         "'kept' list of variable names"),
        ('{"kept": ["AMT_CREDIT", "NO_SUCH_COLUMN"]}',
         "unknown variables in screening file {}: ['NO_SUCH_COLUMN']"),
    ], ids=["not-json", "no-kept-list", "unknown-variable"])
    def test_malformed_screening_file_exits_2(self, workdir, capsys, text,
                                              found):
        source = self.encoded(workdir)
        path = workdir / "screen.json"
        path.write_text(text)
        rc = main(["train", "--input", str(source), "--screening", str(path),
                   "--out", str(workdir)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"solvency train: {found.format(path)}\n"

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

    def test_one_class_exits_3_before_any_report(self, workdir, capsys):
        # error_rates refuses a one-class set before roc runs, so eval
        # never reports a missing ROC
        source = self.trained(workdir)
        lines = source.read_text().splitlines()
        positives = workdir / "positives.csv"
        positives.write_text("\n".join(
            [lines[0]] + [line.rpartition(",")[0] + ",1"
                          for line in lines[1:]]) + "\n")
        out = workdir / "one-class"
        assert main(["eval", "--input", str(positives),
                     "--model", str(workdir / "model.json"),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "solvency eval: both classes must be present for rates\n")
        assert os.listdir(out) == []

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
    def test_regression_model_exits_3(self, workdir, capsys, command):
        """A model.json of any mode but classification, such as a
        regression model from an older version, is a malformed model."""
        source = self.trained(workdir)
        model = workdir / "model.json"
        doc = json.loads(model.read_text())
        doc["config"]["mode"] = "regression"
        model.write_text(json.dumps(doc))
        rc = main([command, "--input", str(source), "--out", str(workdir)])
        assert rc == 3
        assert (f"model {model}: bad config section: mode is 'regression', "
                "not 'classification'") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(format="cart-model/999"),
         "expected 'cart-model/1', found 'cart-model/999'"),
        (lambda doc: doc["nodes"][0].update(counts=None),
         "node 0 has n 200 and counts None, not a whole number and two "
         "whole numbers"),
        (lambda doc: doc["nodes"][0].update(left=True),
         "node 0 child index True out of range"),
    ], ids=["foreign-format", "null-counts", "boolean-child"])
    def test_refused_model_names_its_file(self, workdir, capsys, command,
                                          edit, message):
        source = self.trained(workdir)
        model = workdir / "elsewhere.json"
        doc = json.loads((workdir / "model.json").read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        rc = main([command, "--input", str(source), "--model", str(model),
                   "--out", str(workdir)])
        assert rc == 3
        assert f"model {model}: {message}" in capsys.readouterr().err


def test_other_warnings_keep_the_python_format():
    with cli._warning_lines("screen"):
        ours = warnings.formatwarning("careful", SolvencyWarning, "w.py", 3,
                                      "")
        other = warnings.formatwarning("careful", UserWarning, "w.py", 3, "")
    assert ours == "solvency screen: warning: careful\n"
    assert other == "w.py:3: UserWarning: careful\n"
    assert warnings.formatwarning("careful", UserWarning, "w.py", 3,
                                  "") == other


def coded_rows(path, color=None, target=None, missing=None):
    """A 60-row coded CSV of color (1, 2, 3 in turn), x and y, whose y
    is 1 where color is 1, flipped in every seventh row; color and
    target map a data row to the cell it holds instead, and missing
    names a data row whose x is NA."""
    lines = ["color,x,y"]
    for i in range(60):
        code = i % 3 + 1
        cells = [(color or {}).get(i, code),
                 "NA" if i == missing else f"{i}.5",
                 (target or {}).get(i, int((code == 1) != (i % 7 == 0)))]
        lines.append(",".join(map(str, cells)))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHoldoutNamesInputRows:
    """Under --holdout a refusal names the row's number in the file the
    command read, not its position in the part the stage reads.  Each
    seed puts the bad row in that part, away from its own number."""

    def run(self, workdir, command, source, seed, *extra):
        (workdir / "book.csv").write_text(CODEBOOK_CSV)
        return main([command, "--input", str(source), "--codebook",
                     str(workdir / "book.csv"), "--target", "y",
                     "--holdout", "0.5", "--seed", str(seed),
                     "--out", str(workdir / "out"), *extra])

    @pytest.mark.parametrize("seed", [2, 4])
    def test_train_names_a_code_that_is_not_whole(self, workdir, capsys,
                                                   seed):
        source = coded_rows(workdir / "coded.csv", color={30: 1.5})
        assert self.run(workdir, "train", source, seed) == 3
        assert capsys.readouterr().err == (
            "solvency train: row 30 holds 1.5 in categorical feature "
            "'color', which is not a whole number within 2**53\n")

    @pytest.mark.parametrize("seed", [1, 3])
    def test_eval_names_a_code_that_is_not_whole(self, workdir, capsys,
                                                  seed):
        clean = coded_rows(workdir / "clean.csv")
        assert self.run(workdir, "train", clean, seed) == 0
        model = workdir / "out" / "model.json"
        assert deserialize(model.read_text()).feature[0] == 0  # color
        source = coded_rows(workdir / "coded.csv", color={30: 1.5})
        capsys.readouterr()
        assert self.run(workdir, "eval", source, seed,
                        "--model", str(model)) == 3
        assert capsys.readouterr().err == (
            "solvency eval: row 30 holds 1.5 in categorical feature "
            "'color', which is not a whole number within 2**53\n")

    @pytest.mark.parametrize("seed", [3, 5])
    def test_screen_names_a_target_outside_0_1(self, workdir, capsys, seed):
        source = coded_rows(workdir / "coded.csv", target={40: 2})
        assert self.run(workdir, "screen", source, seed) == 3
        assert capsys.readouterr().err == (
            "solvency screen: target 'y' of row 40 is 2.0, not 0 or 1\n")

    def test_eval_names_a_missing_cell(self, workdir, capsys):
        clean = coded_rows(workdir / "clean.csv")
        assert self.run(workdir, "train", clean, 1) == 0
        model = str(workdir / "out" / "model.json")
        source = coded_rows(workdir / "coded.csv", color={30: "NA"})
        capsys.readouterr()
        assert self.run(workdir, "eval", source, 1, "--model", model) == 3
        assert capsys.readouterr().err == (
            "solvency eval: row 30 has no value for feature 'color', "
            "which the tree routes on\n")

    def test_pipeline_names_the_encoded_row(self, workdir, capsys):
        """encode drops data row 5, so input row 30 is encoded.csv's row
        29, which train refuses in pipeline as in the manual chain."""
        (workdir / "book.csv").write_text(CODEBOOK_CSV)
        source = coded_rows(workdir / "coded.csv", color={30: 1.5},
                            missing=5)
        assert_pipeline_matches_manual(
            workdir, capsys, source, ["--skip-codebook"],
            ["--codebook", str(workdir / "book.csv"), "--target", "y"],
            ["--holdout", "0.5", "--seed", "1"])
        assert read_manifest(workdir / "auto")["stages"][2]["error"] == (
            "row 29 holds 1.5 in categorical feature 'color', which is not "
            "a whole number within 2**53")


class TestPredictCommand:
    @pytest.mark.parametrize("flag, value", [
        ("--codebook", "no-such.csv"), ("--target", "TARGET")])
    def test_schema_flags_are_usage_errors(self, workdir, flag, value):
        """The model fixes the schema and the target and input cells
        hold codes, so predict takes no --codebook or --target."""
        source = TestEvalCommand().trained(workdir)
        with pytest.raises(SystemExit) as err:
            main(["predict", "--input", str(source), flag,
                  str(workdir / value), "--out", str(workdir / "out")])
        assert err.value.code == 2
        assert not (workdir / "out").exists()

    def test_config_settings_it_does_not_read_are_ignored(self, workdir):
        """One config file serves every command, and each reads only its
        own settings: a codebook, target and alpha change nothing that
        predict writes, even a codebook that does not exist."""
        source = TestEvalCommand().trained(workdir)
        config = workdir / "config.json"
        config.write_text(json.dumps({
            "codebook": str(workdir / "no-such.csv"), "target": "nope",
            "alpha": 0.5}))
        for out, extra in (("plain", []), ("configured",
                                           ["--config", str(config)])):
            assert main(["predict", "--input", str(source),
                         "--model", str(workdir / "model.json"),
                         "--out", str(workdir / out), *extra]) == 0
        assert (workdir / "configured" / "predictions.csv").read_bytes() == \
            (workdir / "plain" / "predictions.csv").read_bytes()

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

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_unseen_codes_warn_in_one_line_each(self, workdir, command):
        """Each unseen (feature, code) prints one "solvency <command>:
        warning:" line, in row order, without Python's source path and
        source line."""
        book = workdir / "book.csv"
        book.write_text(CODEBOOK_CSV)
        coded = workdir / "coded.csv"
        coded.write_text("color,flag,amount,y\n" + "".join(
            f"{code},{i % 2},{10.0 + i},{int(code == 2)}\n"
            for i, code in enumerate([1, 2] * 6)))
        assert main(["train", "--input", str(coded), "--codebook", str(book),
                     "--target", "y", "--variables", "color",
                     "--min-node-size", "1", "--out", str(workdir)]) == 0
        fresh = workdir / "fresh.csv"
        fresh.write_text("color,flag,amount,y\n4,1,12.0,1\n1,0,10.0,0\n"
                         "3,0,11.0,0\n4,1,13.0,0\n")
        # the model fixes predict's schema; eval reads it from the flags
        schema = [] if command == "predict" else [
            "--codebook", str(book), "--target", "y"]
        proc = run_module(command, "--input", str(fresh), *schema,
                          "--out", str(workdir), warnings="default")
        assert proc.returncode == 0
        assert proc.stderr == "".join(
            f"solvency {command}: warning: code {code} of 'color' is absent "
            "from the training rows of node 0; routing right\n"
            for code in (4, 3))

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


class TestUnusablePaths:
    """A path that cannot be read or written exits 2 naming it and the
    operating system's reason, not with a traceback."""

    # (command, flag): each flag names a file its command opens
    READERS = [("encode", "--input"), ("pipeline", "--codebook"),
               ("pipeline", "--config"), ("predict", "--model"),
               ("train", "--screening")]
    WHAT = {"--input": "input", "--codebook": "codebook",
            "--config": "config", "--model": "model",
            "--screening": "screening"}

    def args(self, workdir, command, flag, path):
        args = [command, flag, str(path), "--out", str(workdir / "out")]
        if flag != "--input":
            args += ["--input", str(make_synthetic(workdir))]
        return args

    @pytest.mark.parametrize("command, flag", READERS,
                             ids=[flag[2:] for _, flag in READERS])
    def test_directory_as_input_exits_2(self, workdir, capsys, command,
                                        flag):
        folder = workdir / "folder"
        folder.mkdir()
        assert main(self.args(workdir, command, flag, folder)) == 2
        assert (f"{self.WHAT[flag]} file {folder} cannot be read: "
                "Is a directory\n") in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", READERS,
                             ids=[flag[2:] for _, flag in READERS])
    def test_missing_file_message_kept(self, workdir, capsys, command,
                                       flag):
        missing = workdir / "nope"
        assert main(self.args(workdir, command, flag, missing)) == 2
        assert (f"{self.WHAT[flag]} file not found: {missing}\n"
                in capsys.readouterr().err)

    def test_model_not_utf8_exits_3_naming_the_model(self, workdir, capsys):
        model = workdir / "model.json"
        model.write_bytes(b'{"format": "\xff"}')
        assert main(self.args(workdir, "predict", "--model", model)) == 3
        assert capsys.readouterr().err.startswith(
            f"solvency predict: model {model}: 'utf-8' codec can't decode "
            "byte 0xff")

    @pytest.mark.parametrize("sub, reason", [
        ("", "File exists"), ("sub", "Not a directory")],
        ids=["existing-file", "below-a-file"])
    def test_out_that_cannot_be_made_exits_2(self, workdir, capsys, sub,
                                             reason):
        make_synthetic(workdir)
        out = workdir / "synthetic.csv" / sub if sub else (
            workdir / "synthetic.csv")
        before = (workdir / "synthetic.csv").read_bytes()
        assert main(synth_args(out)) == 2
        assert capsys.readouterr().err == (
            f"solvency synth: cannot make output directory {out}: "
            f"{reason}\n")
        assert (workdir / "synthetic.csv").read_bytes() == before

    def test_artifact_that_cannot_be_written_fails_its_stage(self, workdir,
                                                              capsys):
        out = workdir / "out"
        (out / "model.json").mkdir(parents=True)
        assert main(["pipeline", "--input", str(make_synthetic(workdir)),
                     "--out", str(out)]) == 2
        error = f"cannot write {out / 'model.json'}: Is a directory"
        assert (f"pipeline: train failed: {error}\n"
                in capsys.readouterr().err)
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [s["status"] for s in stages] == [
            "completed", "completed", "failed", "skipped"]
        assert stages[2]["error"] == error

    def test_manifest_that_cannot_be_written_exits_2(self, workdir, capsys):
        out = workdir / "out"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["pipeline", "--input", str(make_synthetic(workdir)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"solvency pipeline: cannot write {out / 'manifest.json'}: "
            "Is a directory\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_blank_line_in_coded_input_exits_3(workdir, capsys, command,
                                           newline):
    """A blank line in a coded file is a row of no cells, though
    np.loadtxt would skip it."""
    source = TestEvalCommand().trained(workdir)
    lines = source.read_text().splitlines()
    lines.insert(6, "")
    blank = workdir / "blank.csv"
    blank.write_bytes((newline.join(lines) + newline).encode())
    assert main([command, "--input", str(blank), "--out", str(workdir)]) == 3
    assert "row 5 has 0 cells, expected 14" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "screen", "train", "eval",
                                     "pipeline"])
def test_repeated_header_column_exits_3(workdir, capsys, command):
    source = workdir / "dup.csv"
    source.write_text("a,a,TARGET\n" + "1.0,2.0,0\n3.0,4.0,1\n" * 10)
    assert main([command, "--input", str(source),
                 "--out", str(workdir / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{source} names column 'a' more than once" in err


@pytest.mark.parametrize("command, flag, code, found", [
    ("synth", "--config", 2, "config file {} nests too deeply"),
    ("train", "--screening", 2, "screening file {} nests too deeply"),
    ("predict", "--model", 3, "model {}: JSON nests too deeply to read"),
], ids=["config", "screening", "model"])
def test_deeply_nested_json_refused(workdir, capsys, command, flag, code,
                                    found):
    """JSON nested past Python's recursion limit is refused like other
    unreadable JSON, naming the file, not as a RecursionError."""
    deep = workdir / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    args = [command, flag, str(deep), "--out", str(workdir / "out")]
    if command != "synth":
        args += ["--input", str(make_synthetic(workdir))]
    assert main(args) == code
    assert capsys.readouterr().err == \
        f"solvency {command}: {found.format(deep)}\n"


@pytest.mark.parametrize("command, flag, text, key", [
    ("synth", "--config", '{"alpha": 0.01, "alpha": 0.5}', "alpha"),
    ("synth", "--config", '{"synth": {"n_rows": 10, "n_rows": 20}}',
     "n_rows"),
    ("train", "--screening", '{"kept": ["x0"], "kept": ["x1"]}', "kept"),
], ids=["config", "config-synth", "screening"])
def test_key_named_twice_refused(workdir, capsys, command, flag, text, key):
    """A JSON object that names a key twice is refused naming the file
    and the key, not read as its later value; a config file is refused
    before the out directory is made."""
    twice = workdir / "twice.json"
    twice.write_text(text)
    out = workdir / "out"
    args = [command, flag, str(twice), "--out", str(out)]
    if command != "synth":
        args += ["--input", str(make_synthetic(workdir))]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"solvency {command}: {flag[2:]} file {twice} names the key "
        f"{key!r} twice\n")
    if flag == "--config":
        assert not out.exists()
    else:
        assert os.listdir(out) == []


def run_python(*args, warnings="error"):
    """python -W <warnings> with the given arguments, run on this
    checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", warnings, *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def run_module(*args, warnings="error"):
    """python -W <warnings> -m solvency.cli with the given arguments."""
    return run_python("-m", "solvency.cli", *args, warnings=warnings)


@pytest.mark.skipif(np.__version__.startswith("1."),
                    reason="numpy 1.x imports numpy.ma with numpy")
def test_pipeline_imports_no_numpy_ma(workdir):
    """clean's IQR fences do without np.percentile, whose np.unique
    imports numpy.ma, tens of milliseconds on every run."""
    source = make_synthetic(workdir, rows=400, seed=3, noise=0.1)
    argv = ["pipeline", "--input", str(source), "--out", str(workdir)]
    proc = run_python("-c", "import sys; from solvency.cli import main; "
                      f"code = main({argv!r}); "
                      "print(code, 'numpy.ma' in sys.modules)")
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


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

    def test_mode_in_config_refused_before_any_stage(self, workdir, capsys):
        """A tree mode is no setting: a config file naming one stops
        pipeline before encode runs or the out directory is made."""
        source = make_synthetic(workdir, rows=200, seed=3)
        config = workdir / "regression.json"
        config.write_text(json.dumps({"mode": "regression"}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 2
        assert not out.exists()
        assert "unknown config key 'mode'" in capsys.readouterr().err

    def test_large_min_node_key_in_config_refused_before_any_stage(
            self, workdir, capsys):
        """allow-large-min-node is no setting: a config file naming it,
        as a manifest's config object from before its removal does,
        stops pipeline before encode runs or the out directory is
        made."""
        source = make_synthetic(workdir, rows=200, seed=3)
        config = workdir / "old.json"
        config.write_text(json.dumps({"allow-large-min-node": True}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 2
        assert not out.exists()
        assert "unknown config key 'allow-large-min-node'" in \
            capsys.readouterr().err

    def test_spss_min_node_size_grows_a_tree(self, workdir):
        """SPSS CRT's default of 100 cases per parent node runs as any
        other min-node-size: no node under 100 rows is split."""
        source = make_synthetic(workdir, rows=2000, seed=3)
        out = workdir / "run"
        assert run_pipeline_into(out, source,
                                 ["--min-node-size", "100"]) == 0
        text = (out / "model.json").read_text()
        assert '"min_node_size": 100' in text
        internal = [node["n"] for node in json.loads(text)["nodes"]
                    if node["left"] is not None]
        assert internal and min(internal) >= 100

    @pytest.mark.parametrize("fraction, empty", [
        ("0.001", "holdout"), ("0.999", "training")])
    def test_holdout_leaving_a_part_empty_fails_at_screen(
            self, workdir, fraction, empty):
        """A --holdout that rounds either part to no rows fails the
        first stage that splits, naming the fraction, the row count and
        the empty part, and no later stage runs."""
        source = make_synthetic(workdir, rows=300, seed=3)
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--holdout", fraction]) == 3
        stages = read_manifest(out)["stages"]
        assert [s["status"] for s in stages] == \
            ["completed", "failed", "skipped", "skipped"]
        n = len((out / "encoded.csv").read_text().splitlines()) - 1
        assert stages[1]["error"] == (f"holdout fraction {fraction} of {n} "
                                      f"rows leaves no {empty} rows")

    @pytest.mark.parametrize("key, value, message", [
        ("min-node-size", 0, "min_node_size must be at least 1"),
        ("max-depth", -1, "max_depth cannot be negative"),
        ("min-gini-decrease", -1, "min_gini_decrease cannot be negative"),
        ("alpha", 2, "alpha must lie inside (0, 1)"),
        ("iqr-multiplier", 0, "iqr-multiplier must be positive"),
        ("z-threshold", -1, "z-threshold must be positive"),
        ("max-iter", 0, "max-iter must be positive"),
        ("seed", -1, "seed must fit in 64 unsigned bits"),
        ("seed", 2 ** 64, "seed must fit in 64 unsigned bits"),
    ])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_bad_setting_refused_before_any_stage(self, workdir, capsys, key,
                                                  value, message, given):
        """A tree, screen or outlier setting a stage would refuse, or a
        seed outside 64 bits, stops pipeline before encode runs or the
        out directory is made."""
        source = make_synthetic(workdir, rows=200, seed=3)
        extra = [f"--{key}", str(value)]
        if given == "config":
            config = workdir / "settings.json"
            config.write_text(json.dumps({key: value}))
            extra = ["--config", str(config)]
        out = workdir / "run"
        assert run_pipeline_into(out, source, extra) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"solvency pipeline: {message}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("outlier-method", "bogus", "unknown outlier method 'bogus'"),
        ("roc-scores", "x", "roc-scores must be 'proportion' or 'hard'"),
    ])
    def test_setting_outside_its_flag_choices_refused_before_any_stage(
            self, workdir, capsys, key, value, message):
        """A config file can give a value the flag's choices exclude;
        it stops pipeline as a bad flag value would."""
        source = make_synthetic(workdir, rows=200, seed=3)
        config = workdir / "settings.json"
        config.write_text(json.dumps({key: value}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"solvency pipeline: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "alpha", "r-threshold", "tol", "iqr-multiplier", "z-threshold",
        "min-gini-decrease", "holdout"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_non_finite_setting_refused_before_any_stage(
            self, workdir, capsys, key, value, given):
        """Every float setting must be a finite number, from a flag or a
        config file; the settings with a range keep its message."""
        message = {
            "alpha": "alpha must lie inside (0, 1)",
            "r-threshold": "r-threshold must lie inside (0, 1]",
            "holdout": "holdout fraction must lie inside (0, 1)",
        }.get(key, f"{key} must be a finite number, not {value}")
        if (key, value) == ("tol", "-inf"):
            message = "tol must be positive"
        source = make_synthetic(workdir, rows=200, seed=3)
        extra = [f"--{key}={value}"]
        if given == "config":
            config = workdir / "settings.json"
            config.write_text(json.dumps({key: float(value)}))
            extra = ["--config", str(config)]
        out = workdir / "run"
        assert run_pipeline_into(out, source, extra) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"solvency pipeline: {message}\n"

    @pytest.mark.parametrize("key", [
        "alpha", "r-threshold", "tol", "iqr-multiplier", "z-threshold",
        "min-gini-decrease", "holdout"])
    def test_integer_past_the_float_range_refused_before_any_stage(
            self, workdir, capsys, key):
        """A config file's JSON integer too large for a float is no
        number for a float setting."""
        source = make_synthetic(workdir, rows=200, seed=3)
        config = workdir / "settings.json"
        # zscore, so that clean would use z-threshold
        config.write_text(json.dumps({key: 10 ** 400,
                                      "outlier-method": "zscore"}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, ["--config", str(config)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"solvency pipeline: config key {key!r} must be a number, "
            f"not 1{'0' * 400}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python reads JSON integers of any length")
@pytest.mark.parametrize("command", ["pipeline", "synth", "predict"])
def test_integer_past_the_digit_limit_names_the_file(workdir, capsys,
                                                     command):
    """json reads an integer longer than Python's int-string limit as a
    ValueError, which the config and model readers refuse as invalid
    JSON naming the file."""
    source = make_synthetic(workdir, rows=200, seed=3)
    huge = "1" + "0" * 5000
    bad = workdir / "bad.json"
    if command == "predict":
        assert main(["train", "--input", str(source),
                     "--out", str(workdir)]) == 0
        text = (workdir / "model.json").read_text()
        bad.write_text(text.replace('"n_training_rows": 200',
                                    f'"n_training_rows": {huge}'))
        assert huge in bad.read_text()
        argv, code = ["--input", str(source), "--model", str(bad)], 3
    else:
        bad.write_text(f'{{"seed": {huge}}}')
        argv, code = ["--config", str(bad)], 2
        if command == "pipeline":
            argv += ["--input", str(source)]
    out = workdir / "run"
    assert main([command, *argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert str(bad) in err and "not valid JSON" in err


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
#: screen, tree and eval settings but never --variables, --screening
#: or --model, predict never --codebook or --target, and neither
#: encode nor predict, which split no rows and draw nothing, --seed.
COMMON = {"-h", "--help", "--config", "--out"}
SEED = {"--seed"}
INPUT = {"--input", "--missing-token"}
DATA = INPUT | {"--codebook", "--target"}
ENCODE = {"--skip-codebook", "--outlier-method", "--iqr-multiplier",
          "--z-threshold"}
SCREEN = {"--alpha", "--r-threshold", "--max-iter", "--tol",
          "--per-variable"}
TREE = {"--min-node-size", "--max-depth", "--min-gini-decrease"}
OPTIONS = {
    "encode": COMMON | DATA | ENCODE,
    "screen": COMMON | SEED | DATA | SCREEN | {"--holdout"},
    "train": COMMON | SEED | DATA | TREE | {"--screening", "--variables",
                                            "--holdout"},
    "eval": COMMON | SEED | DATA | {"--model", "--holdout", "--roc-scores"},
    "predict": COMMON | INPUT | {"--model"},
    "synth": COMMON | SEED | {"--rows", "--noise"},
    "pipeline": COMMON | SEED | DATA | ENCODE | SCREEN | TREE | {
        "--holdout", "--roc-scores"},
}


class TestParser:
    def test_option_strings_of_every_subcommand(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {opt for action in parser._actions
                        for opt in action.option_strings}
                 for name, parser in sub.choices.items()}
        assert found == OPTIONS

    @pytest.mark.parametrize("command", ["encode", "predict"])
    def test_seed_is_a_usage_error(self, workdir, command):
        """Neither encode nor predict splits rows or draws a random
        number, so neither takes --seed."""
        source = TestEvalCommand().trained(workdir)
        with pytest.raises(SystemExit) as err:
            main([command, "--input", str(source), "--seed", "1",
                  "--out", str(workdir / "out")])
        assert err.value.code == 2
        assert not (workdir / "out").exists()

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

    # keys are the kebab-case names only, so no file gives one setting
    # under two spellings
    @pytest.mark.parametrize("doc, key", [
        ({"alhpa": 0.01}, "alhpa"),
        ({"min_node_size": 2}, "min_node_size"),
        ({"min-node-size": 3, "min_node_size": 2}, "min_node_size"),
    ], ids=["misspelled", "underscores", "both-spellings"])
    def test_unknown_config_key_exits_2(self, workdir, capsys, doc, key):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["synth", "--config", str(cfg), "--out", str(workdir)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"solvency synth: unknown config key {key!r}\n")

    @pytest.mark.parametrize("doc, message", [
        ({"missing-tokens": 5},
         "config key 'missing-tokens' must be a list of strings, not 5"),
        ({"alpha": "x"}, "config key 'alpha' must be a number, not 'x'"),
        ({"max-depth": "deep"},
         "config key 'max-depth' must be an integer, not 'deep'"),
        ({"variables": [1]},
         "config key 'variables' must be a list of strings, not [1]"),
        ({"missing-tokens": "NA"},
         "config key 'missing-tokens' must be a list of strings, not 'NA'"),
    ], ids=["missing-tokens", "alpha", "max-depth", "variables-items",
            "missing-tokens-string"])
    def test_wrongly_typed_config_value_exits_2(self, workdir, capsys, doc,
                                                message):
        source = make_synthetic(workdir)
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = workdir / "run"
        rc = main(["train", "--config", str(cfg), "--input", str(source),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"solvency train: {message}\n"

    def test_manifest_records_the_merged_settings(self, workdir):
        """manifest.json's config holds every setting in one fixed order:
        the flag's value, else the config file's, else the default."""
        source = make_synthetic(workdir, rows=400, seed=3, noise=0.1)
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({
            "input": None, "missing-tokens": ["NA", "?"],
            "variables": ["AMT_CREDIT", "AMT_INCOME_TOTAL"],
            "holdout": 0.25, "iqr-multiplier": 2}))
        out = workdir / "run"
        assert run_pipeline_into(out, source, [
            "--config", str(cfg), "--missing-token", "-",
            "--missing-token", "NA", "--alpha", "0.1"]) == 0
        manifest = read_manifest(out)
        for stage in manifest["stages"]:
            stage["seconds"] = 0.0
        text = json.dumps(manifest, indent=2).replace(str(workdir), "<dir>")
        assert text == MANIFEST_TEXT

    def test_config_must_be_object(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"solvency synth: config file {cfg} must hold a JSON object\n")

    def test_config_must_be_json(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text("alpha = 0.01")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"solvency synth: config file {cfg} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n")

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


def labelled_input(workdir):
    """A codebook and a labelled input whose first column is categorical."""
    (workdir / "book.csv").write_text(CODEBOOK_CSV)
    source = workdir / "raw.csv"
    source.write_text(LABELED_CSV + "".join(
        f"{('red', 'green', 'blue')[i % 3]},{'NY'[i % 2]},"
        f"{10 + i % 7}.5,{i // 2 % 2}\n" for i in range(60)))
    return source


@pytest.mark.parametrize("marked", [("raw.csv",), ("book.csv",),
                                    ("raw.csv", "book.csv")],
                         ids=["input", "codebook", "both"])
def test_byte_order_mark_gives_the_same_artifacts(workdir, marked):
    """Inputs saved with a UTF-8 byte-order mark, as spreadsheet programs
    save CSV, give the artifacts of the same files without one."""
    labelled_input(workdir)
    copy = workdir / "marked"
    copy.mkdir()
    for name in ("raw.csv", "book.csv"):
        text = (workdir / name).read_bytes()
        (copy / name).write_bytes(
            b"\xef\xbb\xbf" + text if name in marked else text)
    outs = []
    for source in (workdir, copy):
        out = source / "out"
        assert main(["pipeline", "--input", str(source / "raw.csv"),
                     "--codebook", str(source / "book.csv"), "--target", "y",
                     "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))
                     if name != "manifest.json"})
    assert outs[0] == outs[1]
    assert outs[1]["encoded.csv"].startswith(b"color,flag,amount,y\r\n")


def marked_copy(path):
    """A copy of path beside it, prefixed with a UTF-8 byte-order mark."""
    copy = path.with_name("marked-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def test_byte_order_mark_on_a_config_is_read(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text('{"alpha": 0.1}')
    for out, path in (("plain", cfg), ("marked", marked_copy(cfg))):
        assert main(["synth", "--config", str(path), "--rows", "30",
                     "--out", str(workdir / out)]) == 0
    assert ((workdir / "plain" / "synthetic.csv").read_bytes()
            == (workdir / "marked" / "synthetic.csv").read_bytes())


def test_config_byte_that_is_not_utf8_exits_2(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_bytes(b"\xff{}")
    assert main(["synth", "--config", str(cfg),
                 "--out", str(workdir / "out")]) == 2
    assert capsys.readouterr().err == (
        f"solvency synth: config file {cfg} is not valid JSON: 'utf-8' "
        "codec can't decode byte 0xff in position 0: invalid start byte\n")


def test_byte_order_mark_on_a_model_is_read(workdir):
    source = TestEvalCommand().trained(workdir)
    model = workdir / "model.json"
    for out, path in (("plain", model), ("marked", marked_copy(model))):
        assert main(["predict", "--input", str(source), "--model", str(path),
                     "--out", str(workdir / out)]) == 0
    assert ((workdir / "plain" / "predictions.csv").read_bytes()
            == (workdir / "marked" / "predictions.csv").read_bytes())


def test_byte_order_mark_on_a_screening_file_is_read(workdir):
    source = make_synthetic(workdir)
    screening = workdir / "kept.json"
    screening.write_text('{"kept": ["AMT_INCOME_TOTAL", "AMT_CREDIT"]}')
    for out, path in (("plain", screening), ("marked",
                                             marked_copy(screening))):
        assert main(["train", "--input", str(source), "--screening",
                     str(path), "--out", str(workdir / out)]) == 0
    assert ((workdir / "plain" / "model.json").read_bytes()
            == (workdir / "marked" / "model.json").read_bytes())


def test_schema_mismatch_names_the_feature(workdir, capsys):
    """A model trained through a codebook, evaluated on labelled input
    without it, names the first feature whose kind differs."""
    source = labelled_input(workdir)
    assert main(["pipeline", "--input", str(source), "--codebook",
                 str(workdir / "book.csv"), "--target", "y",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    assert main(["eval", "--input", str(source), "--target", "y",
                 "--out", str(workdir)]) == 3
    assert capsys.readouterr().err == (
        "solvency eval: dataset schema differs from the tree's training "
        "schema: feature 0 is 'color' (numeric) in the data and 'color' "
        "(categorical, 3 levels) in the tree\n")


def test_missing_target_at_eval_names_the_row(workdir, capsys):
    source = TestEvalCommand().trained(workdir)
    lines = source.read_text().splitlines()
    lines[6] = lines[6].rpartition(",")[0] + ",NA"
    holey = workdir / "holey.csv"
    holey.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--input", str(holey), "--out", str(workdir)]) == 3
    assert capsys.readouterr().err == (
        "solvency eval: target 'TARGET' of row 5 is missing, not 0 or 1\n")


#: manifest.json of TestConfigResolution's merged-settings run, stage
#: timings zeroed and its temporary directory written <dir>.
MANIFEST_TEXT = """\
{
  "stages": [
    {
      "name": "encode",
      "status": "completed",
      "artifacts": [
        "encoded.csv",
        "cleaning.log"
      ],
      "seconds": 0.0
    },
    {
      "name": "screen",
      "status": "completed",
      "artifacts": [
        "wald.csv",
        "correlation.csv",
        "screening.json"
      ],
      "seconds": 0.0
    },
    {
      "name": "train",
      "status": "completed",
      "artifacts": [
        "model.json",
        "tree.dot",
        "tree.txt"
      ],
      "seconds": 0.0
    },
    {
      "name": "eval",
      "status": "completed",
      "artifacts": [
        "eval.json",
        "eval.txt",
        "roc.tsv"
      ],
      "seconds": 0.0
    }
  ],
  "config": {
    "input": "<dir>/synthetic.csv",
    "codebook": null,
    "skip-codebook": true,
    "target": "TARGET",
    "out": "<dir>/run",
    "seed": 0,
    "missing-tokens": [
      "-",
      "NA"
    ],
    "outlier-method": "iqr",
    "iqr-multiplier": 2,
    "z-threshold": 3.0,
    "alpha": 0.1,
    "r-threshold": 0.8,
    "max-iter": 50,
    "tol": 1e-08,
    "per-variable": false,
    "variables": [
      "AMT_CREDIT",
      "AMT_INCOME_TOTAL"
    ],
    "screening": null,
    "min-node-size": 5,
    "max-depth": 10,
    "min-gini-decrease": 0.0,
    "holdout": 0.25,
    "model": null,
    "roc-scores": "proportion",
    "synth": {}
  }
}"""
