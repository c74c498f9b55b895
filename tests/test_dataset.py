"""Loading, encoding, and cleaning behavior."""

import csv
import io
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cells, make_dataset, rows
from oracles import numeric_cell
from solvency.dataset import (
    CATEGORICAL,
    DEFAULT_CODEBOOK,
    NUMERIC,
    Dataset,
    FeatureSpec,
    _BLOCK_ROWS,
    OutlierRule,
    Schema,
    class_distribution,
    clean,
    csv_text,
    _columns,
    _format_cells,
    _parse_cells,
    _quartiles,
    _text_lines,
    load_codebook,
    load_csv,
    read_back,
    read_header,
    schema_from_header,
    write_csv,
)
from solvency.errors import ConfigError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSchema:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ConfigError,
                           match="^duplicate feature names in schema$"):
            Schema([FeatureSpec("a", NUMERIC), FeatureSpec("a", NUMERIC)],
                   "TARGET")

    def test_target_cannot_be_a_feature(self):
        with pytest.raises(ConfigError,
                           match="^target 'a' collides with a feature$"):
            Schema([FeatureSpec("a", NUMERIC)], "a")

    def test_indices_follow_declaration_order(self):
        s = Schema([FeatureSpec("a", NUMERIC),
                    FeatureSpec("b", CATEGORICAL, levels=3)], "y")
        assert [f.index for f in s.features] == [0, 1]
        assert s["b"].levels == 3

    def test_fingerprint_changes_with_kind(self):
        a = Schema([FeatureSpec("a", NUMERIC)], "y")
        b = Schema([FeatureSpec("a", CATEGORICAL, levels=2)], "y")
        assert a != b

    def test_unknown_name_is_a_key_error(self):
        s = Schema([FeatureSpec("a", NUMERIC)], "y")
        with pytest.raises(KeyError) as exc:
            s["b"]
        assert exc.value.args == ("b",)

    def test_categorical_needs_two_levels(self):
        with pytest.raises(ConfigError,
                           match="^categorical feature 'a' needs >= 2 levels$"):
            FeatureSpec("a", CATEGORICAL, levels=1)

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigError, match="^unknown feature kind 'text'$"):
            FeatureSpec("a", "text")


class TestCodeBook:
    def test_bundled_binary_convention(self):
        # first-listed label of a two-level variable carries code 1
        assert DEFAULT_CODEBOOK["CODE_GENDER"]["F"] == 1
        assert DEFAULT_CODEBOOK["CODE_GENDER"]["M"] == 0
        assert DEFAULT_CODEBOOK["NAME_CONTRACT_TYPE"]["Cash loans"] == 1
        assert DEFAULT_CODEBOOK["FLAG_OWN_CAR"]["N"] == 0

    def test_bundled_multilevel_codes(self):
        book = DEFAULT_CODEBOOK
        assert book["NAME_INCOME_TYPE"]["State servant"] == 1
        assert book["NAME_INCOME_TYPE"]["Pensioner"] == 4
        assert book["NAME_EDUCATION_TYPE"]["Lower secondary"] == 4
        assert book["NAME_HOUSING_TYPE"]["Rented apartment"] == 6
        assert book["NAME_FAMILY_STATUS"]["Widow"] == 5
        assert len(book["NAME_HOUSING_TYPE"]) == 6

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "codes.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "label", "code"])
            for feature, labels in DEFAULT_CODEBOOK.items():
                writer.writerows([feature, label, code]
                                 for label, code in labels.items())
        book = load_codebook(str(path))
        assert book == DEFAULT_CODEBOOK
        assert [list(labels) for labels in book.values()] == [
            list(labels) for labels in DEFAULT_CODEBOOK.values()]

    def test_load_missing_file(self):
        with pytest.raises(ConfigError, match="^codebook file not found: "):
            load_codebook("/no/such/codebook.csv")


class TestLoadCsv:
    def test_columns_match_by_name_any_order(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["TARGET,b,a", "1,2.0,3.0", "0,4.0,5.0"])
        schema = Schema([FeatureSpec("a", NUMERIC),
                         FeatureSpec("b", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert rows(data) == [[3.0, 2.0, 1.0], [5.0, 4.0, 0.0]]

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,c,TARGET", "1,2,0"])
        schema = Schema([FeatureSpec("a", NUMERIC),
                         FeatureSpec("b", NUMERIC)], "TARGET")
        with pytest.raises(DataError, match="^header mismatch: expected "
                                            r"columns \['TARGET', 'a', 'b'\]"):
            load_csv(str(p), schema)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET", "1,0", "2"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        with pytest.raises(DataError, match="^row 1 has 1 cells, expected 2$"):
            load_csv(str(p), schema)

    def test_missing_tokens_become_none(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET", ",1", "NA,0", "N/A,1", "7.5,0"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert cells(data.X[:, 0]) == [None, None, None, 7.5]

    def test_unparseable_and_nonfinite_numerics_become_none(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET", "oops,1", "inf,0", "nan,1", "2,0"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert cells(data.X[:, 0]) == [None, None, None, 2.0]

    def test_encoded_categorical_cells_read_as_codes(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["c,TARGET", "2,1", "1,0"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")
        data = load_csv(str(p), schema)
        assert cells(data.X[:, 0]) == [2, 1]

    def test_fractional_code_and_python_float_syntax(self, tmp_path):
        # cells read with float(): padding, underscores and exponents
        # parse, a fractional code stays fractional
        p = tmp_path / "d.csv"
        write_lines(p, ["c,a,TARGET", "2.5, 1_000 ,1", " 3 ,1e3,0",
                        "-0,-inf,1"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=3),
                         FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert rows(data) == [[2.5, 1000.0, 1.0], [3.0, 1000.0, 0.0],
                              [0.0, None, 1.0]]

    def test_unparsable_cells_scattered_through_a_column(self, tmp_path):
        texts = ["1", "x", "2.5", "x", "y", " 3 ", "1_0", "nan", "z", "4e1",
                 "1e400", "--1", "0x10", "+7", ".5", "5."] * 3

        def reference(text):
            try:
                value = float(text)
            except ValueError:
                return None
            return value if math.isfinite(value) else None

        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET"] + [f"{t},1" for t in texts])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert cells(data.X[:, 0]) == [reference(t) for t in texts]

    def test_custom_token_that_parses_as_a_number(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET", "-999,1", "NA,0", "4,-999"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema, missing_tokens=["-999"])
        assert rows(data) == [[None, 1.0], [None, 0.0], [4.0, None]]

    def test_labels_read_as_codes_through_a_codebook(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["c,TARGET", " red ,1", "NA,0", "blue,1"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=2)], "TARGET")
        book = {"c": {"red": 1, "blue": 0}}
        data = load_csv(str(p), schema, codebook=book)
        assert rows(data) == [[1.0, 1.0], [None, 0.0], [0.0, 1.0]]

    def test_rows_beyond_one_block(self, tmp_path):
        p = tmp_path / "d.csv"
        n = 2 * _BLOCK_ROWS + 3
        write_lines(p, ["a,TARGET"] + [f"{i},{i % 2}" for i in range(n)])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema)
        assert cells(data.X[:, 0]) == [float(i) for i in range(n)]
        assert cells(data.y) == [float(i % 2) for i in range(n)]

    def test_ragged_row_in_a_later_block_is_named(self, tmp_path):
        p = tmp_path / "d.csv"
        lines = ["a,TARGET"] + ["1,0"] * (_BLOCK_ROWS + 5)
        lines[_BLOCK_ROWS + 3] = "1,0,9"
        write_lines(p, lines)
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        with pytest.raises(DataError, match=f"row {_BLOCK_ROWS + 2} "):
            load_csv(str(p), schema)

    def test_target_optional_mode(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a", "1.5", "2.5"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema, target_optional=True)
        assert cells(data.y) == [None, None]

    def test_missing_file(self):
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        with pytest.raises(ConfigError, match="^input file not found: "):
            load_csv("/no/such/file.csv", schema)

    def test_write_then_load_round_trip(self, tmp_path):
        data = make_dataset(
            {"a": [1.5, -2.0, 3.25], "c": [1, 2, 1]},
            [0, 1, 0],
            kinds={"c": CATEGORICAL},
        )
        p = tmp_path / "out.csv"
        write_csv(data, str(p))
        again = load_csv(str(p), data.schema)
        assert rows(again) == rows(data)


def load_labelled(tmp_path, lines, *names, book=DEFAULT_CODEBOOK,
                  **kwargs):
    """load_csv of lines, whose first row is the header, through book;
    names are the categorical columns, whose levels the book gives."""
    path = tmp_path / "labelled.csv"
    write_lines(path, lines)
    schema = schema_from_header(lines[0].split(","), "TARGET", book)
    assert [f.name for f in schema.features if f.kind == CATEGORICAL] == [
        *names]
    return load_csv(str(path), schema, codebook=book, **kwargs)


class TestApplyCodebook:
    """load_csv turns each block's labels into codes as it reads it."""

    def test_table_one_row_encodes_exactly(self, tmp_path):
        names = ("NAME_CONTRACT_TYPE", "CODE_GENDER", "NAME_EDUCATION_TYPE")
        data = load_labelled(tmp_path, [
            ",".join(names) + ",TARGET",
            "Cash loans,F,Higher education,1",
            "Revolving loans,M,Secondary / secondary special,0"], *names)
        assert rows(data) == [[1, 1, 1, 1], [0, 0, 3, 0]]

    def test_unknown_label_names_feature_and_row(self, tmp_path):
        with pytest.raises(DataError) as err:
            load_labelled(tmp_path, ["CODE_GENDER,TARGET", "F,0", "X,1"],
                          "CODE_GENDER")
        assert str(err.value) == \
            "unknown label 'X' for feature 'CODE_GENDER' at row 1"

    def test_missing_markers_pass_through(self, tmp_path):
        data = load_labelled(tmp_path, ["CODE_GENDER,TARGET", "F,0", "NA,1"],
                             "CODE_GENDER")
        assert rows(data)[1][0] is None

    def test_tokens_win_over_labels(self, tmp_path):
        """A cell equal to a missing token is missing even where the book
        has it as a label; one equal to a label once stripped is coded."""
        book = {"c": {"NA": 1, "x": 2}}
        data = load_labelled(tmp_path, ["c,TARGET", "NA,1", " x ,0", " NA,1"],
                             "c", book=book)
        assert cells(data.X[:, 0]) == [None, 2.0, None]

    @pytest.mark.parametrize("edits, first", [
        ({5: "Q,Z,1", 8: "?,?,0"}, ("FLAG_OWN_CAR", "Q", 5)),
        ({4: "Y,W,1", 5: "Q,F,1"}, ("CODE_GENDER", "W", 4)),
    ], ids=["same-row", "lower-row"])
    def test_first_unknown_label_by_row_then_schema_order(self, tmp_path,
                                                          edits, first):
        """The lowest row holding an unknown label wins, then the first
        such feature in schema order; later blocks do not count."""
        lines = ["FLAG_OWN_CAR,CODE_GENDER,TARGET"] + ["Y,F,0"] * 9
        for row, line in edits.items():
            lines[1 + row] = line
        with mock.patch("solvency.dataset._BLOCK_ROWS", 4), \
                pytest.raises(DataError) as err:
            load_labelled(tmp_path, lines, "FLAG_OWN_CAR", "CODE_GENDER")
        feature, label, row = first
        assert str(err.value) == \
            f"unknown label {label!r} for feature {feature!r} at row {row}"

    def test_a_later_parse_error_is_reported_first(self, tmp_path):
        """An unknown label is raised only once every block has been
        read, so a ragged row after it is what the error names."""
        lines = ["CODE_GENDER,TARGET", "F,0", "X,1"] + ["M,0"] * 6 + ["F"]
        with mock.patch("solvency.dataset._BLOCK_ROWS", 4), \
                pytest.raises(DataError, match="row 8 has 1 cells"):
            load_labelled(tmp_path, lines, "CODE_GENDER")

    def test_a_feature_the_book_lacks(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["c,TARGET", "red,1"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=2)], "TARGET")
        with pytest.raises(DataError, match="^codebook has no labels for "
                                            "feature 'c'$"):
            load_csv(str(path), schema, codebook=DEFAULT_CODEBOOK)


class TestClean:
    def test_missing_rows_dropped_first_offender_logged(self):
        data = make_dataset(
            {"a": [1.0, None, 3.0], "b": [5.0, 6.0, None]},
            [0, 1, 0],
        )
        cleaned, log = clean(data, OutlierRule("off"))
        assert cleaned.n == 1
        assert log == [(1, "missing:a"), (2, "missing:b")]

    def test_missing_target_logged(self):
        data = make_dataset({"a": [1.0, 2.0]}, [0, None])
        cleaned, log = clean(data, OutlierRule("off"))
        assert cleaned.n == 1
        assert log == [(1, "missing:TARGET")]

    @pytest.mark.parametrize("args, found", [
        (("bogus",), "^unknown outlier method 'bogus'$"),
        (("iqr", 0.0), "^iqr-multiplier must be positive$"),
        (("zscore", 1.5, -1.0), "^z-threshold must be positive$"),
    ])
    def test_bad_outlier_rule_refused(self, args, found):
        with pytest.raises(ConfigError, match=found):
            OutlierRule(*args)

    def test_planted_outlier_dropped_by_iqr_fences(self):
        # 12 evenly spread values plus one far excursion; quartiles of
        # the bulk put the fence well inside 500
        values = [float(v) for v in range(1, 13)] + [500.0]
        data = make_dataset({"a": values}, [0, 1] * 6 + [0])
        cleaned, log = clean(data)
        assert cleaned.n == 12
        assert log == [(12, "outlier:a")]

    def test_clean_is_idempotent(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.uniform(0, 1, 40), [9.0, -7.0]])
        data = make_dataset({"a": values.tolist()},
                            rng.integers(0, 2, 42).tolist())
        once, log1 = clean(data)
        twice, log2 = clean(once)
        assert len(log2) == 0
        assert rows(twice) == rows(once)

    def test_fences_reapplied_until_stable(self):
        # dropping the extreme value tightens the fences enough to
        # expose the next one, so a single pass would under-clean
        values = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 25.0, 3000.0]
        data = make_dataset({"a": values}, [0, 1, 0, 1, 0, 1, 0, 1])
        cleaned, log = clean(data)
        reasons = {i for i, _ in log}
        assert reasons == {6, 7}
        assert cleaned.n == 6

    def test_zscore_rule(self):
        values = [0.0] * 10 + [100.0]
        data = make_dataset({"a": values}, [0, 1] * 5 + [0])
        cleaned, _ = clean(data, OutlierRule("zscore", z_threshold=3.0))
        assert cleaned.n == 10

    def test_everything_dropped_raises(self):
        data = make_dataset({"a": [None, None]}, [0, 1])
        with pytest.raises(DataError, match="^cleaning removed every row; "
                           "column 'a' has no value in any row$"):
            clean(data, OutlierRule("off"))

    def test_quartiles_use_linear_interpolation(self):
        # for 1..5 plus an outlier at 100: q1/q3 of the full column are
        # interpolated, not nearest-rank; the fence (iqr*1.5) keeps 1..5
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
        q1, q3 = np.percentile(values, [25.0, 75.0])
        assert q1 == 2.25 and q3 == 4.75
        data = make_dataset({"a": values}, [0, 1, 0, 1, 0, 1])
        cleaned, _ = clean(data)
        assert cells(cleaned.X[:, 0]) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_iqr_fences_match_np_percentile_bit_for_bit(self):
        """The fences equal those from np.percentile's quartiles, to the
        bit, at every small size, with ties (0.0 and -0.0 among them)
        and at magnitudes near the float range's edge."""
        rng = np.random.default_rng(20261019)
        rule = OutlierRule("iqr", multiplier=1.5)
        for trial in range(1200):
            n = trial % 9 + 1 if trial < 900 else int(rng.integers(10, 400))
            values = [rng.normal(size=n),
                      rng.integers(0, 3, n).astype(float),
                      rng.choice([-1e300, 1e300, 0.0, -0.0, 2.5], n),
                      rng.choice([0.0, -0.0, 2.5], n),
                      rng.normal(size=n) * 10.0 ** rng.integers(-300, 300),
                      ][trial % 5]
            quartiles = np.percentile(values, [25.0, 75.0])
            assert _quartiles(values).view(np.int64).tolist() == \
                quartiles.view(np.int64).tolist(), values.tolist()
            q1, q3 = quartiles
            spread = 1.5 * (q3 - q1)
            want = np.array([q1 - spread, q3 + spread])
            got = np.array(rule.fences(values))
            assert got.view(np.int64).tolist() == \
                want.view(np.int64).tolist(), values.tolist()


class TestSplitAndDistribution:
    def test_split_is_seeded_partition(self):
        data = make_dataset({"a": [float(i) for i in range(20)]},
                            [i % 2 for i in range(20)])
        train1, hold1 = data.split(0.25, seed=3)
        train2, hold2 = data.split(0.25, seed=3)
        assert rows(train1) == rows(train2) and rows(hold1) == rows(hold2)
        assert hold1.n == 5 and train1.n == 15
        together = sorted(r[0] for r in rows(train1) + rows(hold1))
        assert together == [float(i) for i in range(20)]

    def test_split_changes_with_seed(self):
        data = make_dataset({"a": [float(i) for i in range(40)]},
                            [i % 2 for i in range(40)])
        _, hold_a = data.split(0.5, seed=1)
        _, hold_b = data.split(0.5, seed=2)
        assert rows(hold_a) != rows(hold_b)

    def test_split_keeps_row_order(self):
        data = make_dataset({"a": [float(i) for i in range(10)]},
                            [0] * 10)
        train, hold = data.split(0.3, seed=0)
        assert cells(train.X[:, 0]) == sorted(cells(train.X[:, 0]))
        assert cells(hold.X[:, 0]) == sorted(cells(hold.X[:, 0]))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_split_fraction_outside_0_1_refused(self, fraction):
        data = make_dataset({"a": [1.0, 2.0]}, [0, 1])
        with pytest.raises(ConfigError, match=re.escape(
                "holdout fraction must lie inside (0, 1)")):
            data.split(fraction, seed=0)

    @pytest.mark.parametrize("fraction, empty", [
        (0.001, "holdout"), (0.999, "training")])
    def test_split_leaving_a_part_empty_refused(self, fraction, empty):
        data = make_dataset({"a": [float(i) for i in range(300)]},
                            [i % 2 for i in range(300)])
        with pytest.raises(DataError) as exc:
            data.split(fraction, seed=0)
        assert str(exc.value) == (f"holdout fraction {fraction} of 300 rows "
                                  f"leaves no {empty} rows")
        assert exc.value.exit_code == 3

    def test_class_distribution_counts(self):
        data = make_dataset({"a": [1.0, 2.0, 3.0]}, [0, 1, 1])
        assert class_distribution(data) == (1, 2)

    def test_empty_distribution_raises(self):
        with pytest.raises(DataError, match="of 0 rows$"):
            class_distribution(make_dataset({"a": []}, []))

    def test_codes_are_whole_numbers(self):
        data = make_dataset({"c": [3, -2 ** 53, 2 ** 53]}, [0, 1, 0],
                            kinds={"c": CATEGORICAL}, levels={"c": 3})
        assert data.codes("c").tolist() == [3, -2 ** 53, 2 ** 53]

    @pytest.mark.parametrize("bad", [1.5, None, 2.0 ** 53 + 2, -math.inf])
    def test_codes_refuse_a_cell_that_is_not_a_whole_number(self, bad):
        data = make_dataset({"c": [1, 2, bad, 1.5]}, [0, 1, 0, 1],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        with pytest.raises(DataError, match="row 2 .*'c'"):
            data.codes("c")


class TestRowNumbers:
    """A Dataset numbers each row as the file it was read from does, and
    a refusal names a row by that number, not by its position."""

    def numbered(self, n=10):
        return make_dataset({"a": [float(i) for i in range(n)]},
                            [i % 2 for i in range(n)])

    def test_rows_count_from_0_by_default(self):
        assert self.numbered().rows.tolist() == list(range(10))

    def test_select_carries_rows(self):
        part = self.numbered().select([7, 2, 5])
        assert part.rows.tolist() == [7, 2, 5]
        assert part.select([2, 0]).rows.tolist() == [5, 7]

    def test_split_carries_rows(self):
        train, hold = self.numbered(20).split(0.3, seed=4)
        for part in (train, hold):
            assert part.rows.tolist() == part.X[:, 0].astype(int).tolist()
        assert sorted(train.rows.tolist() + hold.rows.tolist()) == \
            list(range(20))

    def test_read_back_numbers_rows_from_0(self):
        back = read_back(self.numbered().select([8, 3, 6]))
        assert back.rows.tolist() == [0, 1, 2]
        assert cells(back.X[:, 0]) == [8.0, 3.0, 6.0]

    @pytest.mark.parametrize("numbers", [[0, 1], [[0, 1, 2]], 5],
                             ids=["short", "two-dimensional", "scalar"])
    def test_rows_of_another_shape_refused(self, numbers):
        data = self.numbered(3)
        with pytest.raises(DataError) as exc:
            Dataset(data.schema, data.X, data.y, numbers)
        assert str(exc.value) == (f"row numbers of shape {np.shape(numbers)} "
                                  "do not number 3 rows")

    def test_refusals_name_the_row_number(self):
        data = make_dataset({"c": [1, 2, 1.5, 1, 2, 1]}, [0, 1, 0, 2, 1, 0],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        part = data.select([5, 2, 3])
        with pytest.raises(DataError, match=re.escape(
                "row 2 holds 1.5 in categorical feature 'c', which is not "
                "a whole number within 2**53")):
            part.codes("c")
        with pytest.raises(DataError, match="^target 'TARGET' of row 3 is "
                                            "2.0, not 0 or 1$"):
            part.binary_target()

    def test_clean_logs_row_numbers(self):
        data = make_dataset({"a": [1.0, 2.0, None, 4.0, None, 6.0]},
                            [0, 1, 0, 1, 0, 1])
        kept, log = clean(data.select([5, 4, 1, 2]), OutlierRule("off"))
        assert log == [(2, "missing:a"), (4, "missing:a")]
        assert kept.rows.tolist() == [5, 1]


class TestDatasetShape:
    @pytest.mark.parametrize("X, y", [
        (np.zeros((3, 2)), np.zeros(3)), (np.zeros((3, 1)), np.zeros((3, 1))),
        (np.zeros((2, 1)), np.zeros(3))],
        ids=["two-columns", "two-dimensional-target", "short-columns"])
    def test_columns_that_do_not_form_the_rows_refused(self, X, y):
        schema = Schema([FeatureSpec("a", NUMERIC)], "y")
        with pytest.raises(DataError) as exc:
            Dataset(schema, X, y)
        assert str(exc.value) == ("columns do not form 3 rows of 1 features "
                                  "plus a target")


class TestSchemaFromHeader:
    def test_codebook_columns_become_categorical(self):
        header = ["AMT_CREDIT", "CODE_GENDER", "TARGET"]
        schema = schema_from_header(header, "TARGET", DEFAULT_CODEBOOK)
        assert schema["AMT_CREDIT"].kind == NUMERIC
        assert schema["CODE_GENDER"].kind == CATEGORICAL
        assert schema["CODE_GENDER"].levels == 2

    def test_target_must_be_present(self):
        with pytest.raises(DataError, match="^target column 'TARGET' not "
                                            "in header"):
            schema_from_header(["a", "b"], "TARGET")

    def test_repeated_column_rejected_naming_the_file(self):
        with pytest.raises(DataError, match="in.csv .*'a'"):
            schema_from_header(["a", "b", "a", "TARGET"], "TARGET",
                               path="in.csv")

    def test_read_header(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a, b ,TARGET", "1,2,0"])
        assert read_header(str(p)) == ["a", "b", "TARGET"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False), min_size=4, max_size=40),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_clean_idempotence_property(values, seed):
    """clean(clean(x)) == clean(x) for dense numeric data."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 2, len(values)).tolist()
    data = make_dataset({"a": list(values)}, target)
    try:
        once, _ = clean(data)
    except DataError as exc:
        assert str(exc).startswith("cleaning removed every row")
        return
    twice, log = clean(once)
    assert len(log) == 0
    assert rows(twice) == rows(once)


#: Cells whose text is awkward to write and read back: signed zeros,
#: subnormals, the float64 extremes, whole numbers past 2**53 (which
#: float64 holds only at even or coarser steps) and non-finite values.
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, 1e308, -1e308,
           2.0 ** 53 + 2, 2.0 ** 60, -(2.0 ** 63), 1e22, 0.1, 0.5, 1.0,
           -3.0, 1000.0, math.nan, math.inf, -math.inf]
CELLS = st.one_of(st.sampled_from(AWKWARD), st.floats(),
                  st.integers(-2 ** 70, 2 ** 70).map(float))
#: Tokens that are near misses of a rendered cell, or no number at all
NEAR_MISSES = ["0", "-0", "0.0", " 1 ", "1e3", "NA", "", "inf", "1_000"]


def assert_bit_equal(a, b):
    assert a.shape == b.shape
    holes = np.isnan(a)
    assert np.array_equal(holes, np.isnan(b))
    assert (np.where(holes, 0.0, a).tobytes()
            == np.where(holes, 0.0, b).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=3))
def test_read_back_matches_a_written_and_reloaded_file(data, n, width):
    """read_back(d) is what load_csv reads from write_csv's file of d,
    bit for bit, whatever the cells and missing tokens."""
    X = np.array(data.draw(st.lists(CELLS, min_size=n * width,
                                    max_size=n * width)),
                 dtype=float).reshape(n, width)
    y = np.array(data.draw(st.lists(CELLS, min_size=n, max_size=n)),
                 dtype=float)
    schema = Schema([FeatureSpec(f"f{j}", NUMERIC) for j in range(width)],
                    "TARGET")
    written = Dataset(schema, X, y)
    rendered = _format_cells(np.concatenate([X.ravel(), y]))
    text = st.sampled_from(NEAR_MISSES + rendered)
    tokens = data.draw(st.lists(
        st.one_of(text, text.map(lambda t: f" {t} ")), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.csv")
        write_csv(written, path)
        loaded = load_csv(path, schema_from_header(read_header(path),
                                                   "TARGET"),
                          missing_tokens=tokens)
    back = read_back(written, tokens)
    assert back.schema == loaded.schema
    assert_bit_equal(back.X, loaded.X)
    assert_bit_equal(back.y, loaded.y)
    assert back.X.flags.c_contiguous


def test_read_back_turns_a_token_matching_cell_missing():
    """A code 0 written as "0" reads back missing under token "0", and
    -0.0 reads back as +0.0; near misses of the text leave cells be."""
    data = make_dataset({"a": [0.0, -0.0, 1.0, 2.0]}, [0, 1, 0, 1])
    back = read_back(data, ["0"])
    assert cells(back.column("a")) == [None, None, 1.0, 2.0]
    assert cells(back.y) == [None, 1.0, None, 1.0]
    for token in ("-0", "0.0", "1e0", "1_0"):
        back = read_back(data, [token])
        assert not np.isnan(back.X).any() and not np.isnan(back.y).any()
    assert math.copysign(1.0, read_back(data).X[1, 0]) == 1.0


#: Pieces of reader cells: numbers in several spellings, tokens, and
#: text or numbers that float() refuses ("--1", "0x10").
READ_PIECES = ["0", "-0", "1", "2.5", "-3", "1e3", "1_000", "1e400", "inf",
               "-nan", "NA", "N/A", "", "--1", "x", "-999", "0x10"]
#: Padding that both float() and strip() remove, and "\x1c", which
#: only strip() removes.
PADS = ["", " ", "\t", "\u3000", "\x1c"]
READ_CELLS = st.builds(
    lambda pre, body, post: pre + body + post, st.sampled_from(PADS),
    st.one_of(st.sampled_from(READ_PIECES), st.floats().map(repr),
              st.integers(-10 ** 20, 10 ** 20).map(str)),
    st.sampled_from(PADS))
#: Missing tokens, among them finite numbers ("-999", " 2.5 ") that
#: float() reads like any other cell.
READ_TOKENS = st.lists(st.one_of(
    st.sampled_from(["NA", "N/A", "", "-999", " 2.5 ", "0", "inf", "x"]),
    READ_CELLS), max_size=4)


def reference_read(cell, tokens):
    """The reader's rule for one numeric cell."""
    text = cell.strip()
    if text in {token.strip() for token in tokens}:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=4), READ_TOKENS)
def test_load_csv_reads_each_cell_by_the_reference_rule(data, n, block,
                                                        tokens):
    """load_csv is bit-equal to float() of the stripped cell, missing
    on a token and NaN when not finite, over blocks of a few rows
    (which a patched block size makes many)."""
    columns = [data.draw(st.lists(READ_CELLS, min_size=n, max_size=n))
               for _ in range(2)]
    schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["a", "TARGET"], *zip(*columns)])
        with mock.patch("solvency.dataset._BLOCK_ROWS", block):
            loaded = load_csv(path, schema, missing_tokens=tokens)
    expected = [np.array([reference_read(cell, tokens) for cell in column],
                         dtype=float) for column in columns]
    assert_bit_equal(loaded.X[:, 0], expected[0])
    assert_bit_equal(loaded.y, expected[1])


#: Labels that csv.writer must quote or treat specially, and None.
LABELS = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(
    ["", ",", '"', "a,b", 'say "hi"', "\r", "\n", "x\r\ny", " x "]))
NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 1023.0, 1024.0, -1.0, -1024.0,
                     2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60, -(2.0 ** 63),
                     1e22, 0.5, math.nan, math.inf, -math.inf]),
    st.floats(), st.integers(-2 ** 70, 2 ** 70).map(float))


def reference_text(cell):
    """The writer's rule for one cell, before csv quoting."""
    if cell is None or isinstance(cell, str):
        return cell or ""
    if math.isnan(cell):
        return ""
    if math.isfinite(cell) and cell == math.trunc(cell):
        return str(int(cell))
    return repr(cell)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=8),
       st.lists(st.booleans(), max_size=3),
       st.integers(min_value=1, max_value=4))
def test_write_csv_matches_csv_writer(data, n, text_columns, block):
    """csv_text's file is byte-equal to csv.writer's of the same cells,
    whatever the names and labels (text columns, as predict writes its
    scores), for zero or more features, over blocks of a few rows; so is
    write_csv's, which writes through it, of a dataset without text."""
    names = data.draw(st.lists(st.text(max_size=4), unique=True,
                               min_size=len(text_columns) + 1,
                               max_size=len(text_columns) + 1))
    cells = [data.draw(st.lists(LABELS if text else NUMBERS,
                                min_size=n, max_size=n))
             for text in text_columns + [False]]
    columns = [np.array(column, dtype=object if text else float)
               for text, column in zip(text_columns + [False], cells)]
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(
        [names] + [[reference_text(cell) for cell in row]
                   for row in zip(*cells)])
    expected = expected.getvalue().encode("utf-8")
    with mock.patch("solvency.dataset._BLOCK_ROWS", block):
        assert "".join(csv_text(names, columns, "\r\n")).encode() == expected
        if any(text_columns):
            return
        schema = Schema([FeatureSpec(name, NUMERIC) for name in names[:-1]],
                        names[-1])
        X = np.array(columns[:-1], dtype=float).reshape(len(names) - 1, n).T
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            write_csv(Dataset(schema, X, columns[-1]), str(path))
            assert path.read_bytes() == expected


#: Cells of an all-numeric file that np.loadtxt reads as float() does:
#: repr and str spellings, padding, infinities, NaN, and the numbers
#: that the missing tokens below name.
PLAIN_CELLS = st.one_of(
    st.floats().map(repr), st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["0", "-0", "1e3", ".5", "+7", "inf", "-nan", "1e400",
                     " 7 ", "\t2.5", "5\u3000", "\x1c4", "6\x0b", "-999",
                     "2.5"]))
#: Cells the first pass must leave to the csv path: tokens, empty
#: cells, float() syntax loadtxt lacks (1_000, non-ASCII digits),
#: text, a NUL and a field over csv's 131,072-character limit.
ODD_CELLS = st.sampled_from(
    ["NA", "N/A", "", "1_000", "\u0661\u0662", "x", "1\x00", "9" * 131_073])
#: Changes to a file's lines: an odd cell, a blank line, a row one cell
#: short or long, a lone CR, a quoted first cell, and a quoted cell
#: holding a line break.
LINE_EDITS = st.sampled_from(["odd", "odd", "blank", "short", "long",
                              "lone-cr", "quote", "quoted-break"])


def load_outcome(path, schema, tokens):
    """load_csv's X and y bytes, or the type and text of its error."""
    try:
        data = load_csv(path, schema, missing_tokens=tokens)
    except Exception as exc:  # compared below, whatever it is
        return type(exc), str(exc)
    return data.X.tobytes(), data.y.tobytes(), data.X.shape


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.sampled_from(["\n", "\r\n"]),
       st.lists(st.sampled_from(["NA", "N/A", "", "x", "nan", "-inf",
                                 "-999", " 2.5 "]), max_size=3))
def test_first_pass_reads_as_the_csv_path(data, n, block, newline, tokens):
    """load_csv of an all-numeric file gives the bits, or raises the
    error type and message, that it gives with the loadtxt first pass
    patched out, over blocks of a few rows."""
    header = data.draw(st.permutations(["a", "c", "TARGET"]))
    lines = [",".join(header)] + [
        ",".join(data.draw(st.lists(PLAIN_CELLS, min_size=3, max_size=3)))
        for _ in range(n)]
    for edit in data.draw(st.lists(LINE_EDITS, max_size=3)):
        i = data.draw(st.integers(min_value=1, max_value=len(lines)))
        if edit == "blank":
            lines.insert(i, "")
        elif i < len(lines) and edit == "odd":
            cells = lines[i].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
                ODD_CELLS)
            lines[i] = ",".join(cells)
        elif i < len(lines):
            line = lines[i]
            lines[i] = {"short": line.rpartition(",")[0],
                        "long": line + ",1",
                        "lone-cr": line.replace(",", "\r,", 1),
                        "quote": '"' + line.replace(",", '",', 1),
                        "quoted-break": '"' + line.replace(",", '\n",', 1),
                        }[edit]
    ending = data.draw(st.sampled_from(["", newline, newline * 2]))
    schema = Schema([FeatureSpec("a", NUMERIC),
                     FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.csv")
        Path(path).write_bytes((newline.join(lines) + ending).encode())
        with mock.patch("solvency.dataset._BLOCK_ROWS", block):
            outcome = load_outcome(path, schema, tokens)
            with mock.patch("solvency.dataset._plain_lines",
                            return_value=None):
                expected = load_outcome(path, schema, tokens)
    assert outcome == expected


#: Cells float() refuses, which send a block down the exact path:
#: ODD_CELLS less the NUL, which csv refuses before Python 3.11, and the
#: field over csv's limit, both of which make load_csv raise, plus the
#: missing marker of spreadsheet exports, padded or not.
REFUSED_CELLS = st.one_of(
    ODD_CELLS.filter(lambda cell: "\0" not in cell and len(cell) < 1000),
    st.sampled_from(["#N/A", " #N/A", "#N/A\t", "#n/a", "N/A "]))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.sampled_from(["\n", "\r\n"]),
       st.lists(st.sampled_from(["NA", "N/A", "", "#N/A", " NA ", "x",
                                 "nan"]), max_size=3),
       st.booleans(), st.booleans())
def test_every_cell_reads_as_the_cell_oracle(data, n, block, newline, tokens,
                                             finite_token, quote_all):
    """load_csv reads each cell of a numeric file as numeric_cell reads
    its text, bit for bit, the sign of -0.0 included: through
    np.loadtxt, one float() per cell or the exact path, with or
    without a token that is a finite number, over blocks of a few
    rows, split on commas or, all cells quoted, read by csv."""
    tokens = tokens + ["-999"] if finite_token else tokens
    padded = st.sampled_from(tokens or ["NA"]).map(lambda tok: f" {tok}\t")
    cell = st.one_of(PLAIN_CELLS, REFUSED_CELLS, padded)
    header = data.draw(st.permutations(["a", "c", "TARGET"]))
    ids = data.draw(st.sampled_from([None, *header]))  # distinct text IDs
    table = [[f"id{i:04d}" if name == ids else data.draw(cell)
              for name in header] for i in range(n)]
    text = io.StringIO()
    csv.writer(text, lineterminator=newline,
               quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
               ).writerows([header, *table])
    schema = Schema([FeatureSpec("a", NUMERIC),
                     FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.getvalue().encode())
        with mock.patch("solvency.dataset._BLOCK_ROWS", block):
            loaded = load_csv(str(path), schema, missing_tokens=tokens)
    for j, name in enumerate(header):
        expected = np.array([numeric_cell(row[j], tokens) for row in table],
                            dtype=float)
        assert loaded.column(name).tobytes() == expected.tobytes(), name


class TestFirstPass:
    """Clean numeric files are read by np.loadtxt, block by block."""

    schema = Schema([FeatureSpec("a", NUMERIC),
                     FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")

    def test_clean_files_never_reach_the_csv_path(self, tmp_path):
        lf = tmp_path / "lf.csv"
        write_lines(lf, ["TARGET,a,c"] + [f"{i % 2},{i * 0.25},{i % 3}"
                                          for i in range(10)])
        data = make_dataset({"a": [0.1, -2.0, 1e300, -0.0, 3.0],
                             "c": [1, 2, 3, 1, 2]}, [0, 1, 1, 1, 0],
                            kinds={"c": CATEGORICAL})
        crlf = tmp_path / "encoded.csv"
        write_csv(data, str(crlf))
        assert b"\r\n" in crlf.read_bytes()
        with mock.patch("solvency.dataset._BLOCK_ROWS", 3), \
                mock.patch("solvency.dataset._parse_cells",
                           side_effect=AssertionError("csv path")):
            plain = load_csv(str(lf), self.schema)
            again = load_csv(str(crlf), data.schema)
        assert rows(plain) == [[i * 0.25, float(i % 3), float(i % 2)]
                               for i in range(10)]
        assert_bit_equal(again.X, read_back(data).X)
        assert_bit_equal(again.y, read_back(data).y)

    def test_a_refused_block_alone_takes_the_csv_path(self, tmp_path):
        """An NA cell sends its block, and only it, to _parse_cells."""
        p = tmp_path / "d.csv"
        lines = ["a,c,TARGET"] + [f"{i}.5,{i % 3},{i % 2}" for i in range(12)]
        lines[6] = "NA,2,1"
        write_lines(p, lines)
        with mock.patch("solvency.dataset._BLOCK_ROWS", 4), \
                mock.patch("solvency.dataset._parse_cells",
                           wraps=_parse_cells) as parse:
            data = load_csv(str(p), self.schema)
        assert parse.call_count == 3  # a, c and TARGET of the second block
        assert cells(data.X[:, 0]) == [None if i == 5 else i + 0.5
                                       for i in range(12)]

    @pytest.mark.parametrize("text, message", [
        ("a,c,TARGET\n1,1,0\n\n2,2,1\n", "row 1 has 0 cells"),
        ("a,c,TARGET\r\n1,1,0\r\n2,2,1\r\n\r\n", "row 2 has 0 cells"),
        ("a,c,TARGET\n\n", "row 0 has 0 cells"),
        ("a,c,TARGET\n1,1\n", "row 0 has 2 cells"),
        ("a,c,TARGET\n1,1,0,1\n2,2,1,0\n", "row 0 has 4 cells"),
    ], ids=["blank-mid-file", "blank-crlf-trailing", "blank-only-row",
            "short-rows", "long-rows"])
    def test_ragged_rows_are_named(self, tmp_path, text, message):
        """A blank line is a row of no cells, and rows that all lack or
        all add a cell are ragged, though loadtxt would read them."""
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        with pytest.raises(DataError, match=f"{message}, expected 3"):
            load_csv(str(p), self.schema)

    def test_long_field_names_the_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,c,TARGET", "1,1,0", "9" * 131_073 + ",1,0"])
        with pytest.raises(DataError, match="line 3: field larger than "
                                            "field limit"):
            load_csv(str(p), self.schema)


#: Cells of a labelled column: labels, padded labels and tokens, labels
#: float() reads as numbers, and short text without a comma, quote, CR,
#: LF or NUL.
LABEL_CELLS = st.one_of(
    st.sampled_from(["red", " green ", "\tblue　", "NA", " NA ", "N/A",
                     "", "x y", "-999", "nan", "1e3"]),
    st.text(st.characters(blacklist_characters=',"\r\n\x00',
                          blacklist_categories=("Cs",)), max_size=4))
#: Changes to a labelled file's lines: those of LINE_EDITS, a label
#: holding a NUL, and a padded token.
LABEL_EDITS = st.sampled_from(["odd", "nul", "pad", "blank", "short", "long",
                               "lone-cr", "quote", "quoted-break"])


def label_book(path):
    """A codebook giving each distinct stripped cell of column c, as the
    csv module reads path, a code of its own, so codes tell apart every
    label a reader could find."""
    labels = [",", ",,"]  # no cell reads as these, and a book needs two
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        j = next(reader).index("c")
        try:
            labels += [row[j].strip() for row in reader if len(row) > j]
        except csv.Error:
            pass
    return {"c": {label: code
                  for code, label in enumerate(dict.fromkeys(labels))}}


def labelled_outcome(path, schema, tokens, book):
    """load_csv's X and y bytes through book, or the type and text of
    its error."""
    try:
        data = load_csv(path, schema, missing_tokens=tokens, codebook=book)
    except Exception as exc:  # compared below, whatever it is
        return type(exc), str(exc)
    return data.X.tobytes(), data.y.tobytes(), data.X.shape


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.sampled_from(["\n", "\r\n"]),
       st.lists(st.sampled_from(["NA", "N/A", "", "x", "nan", "-999",
                                 " 2.5 "]), max_size=3))
def test_split_pass_reads_labelled_files_as_the_csv_path(data, n, block,
                                                         newline, tokens):
    """load_csv of a file with a labelled column gives the bits, or
    raises the error type and message, that it gives with the
    comma-split pass patched out, over blocks of a few rows, through a
    codebook that codes each label the file holds apart."""
    header = data.draw(st.permutations(["a", "c", "TARGET"]))
    draws = {"a": PLAIN_CELLS, "c": LABEL_CELLS, "TARGET": PLAIN_CELLS}
    lines = [",".join(header)] + [
        ",".join(data.draw(draws[name]) for name in header)
        for _ in range(n)]
    for edit in data.draw(st.lists(LABEL_EDITS, max_size=3)):
        i = data.draw(st.integers(min_value=1, max_value=len(lines)))
        if edit == "blank":
            lines.insert(i, "")
        elif i < len(lines) and edit in ("odd", "nul", "pad"):
            cells = lines[i].split(",")
            j = data.draw(st.integers(0, len(cells) - 1))
            if edit == "odd":
                cells[j] = data.draw(ODD_CELLS)
            elif edit == "nul":
                cells[j] = "re\x00d"
            else:
                token = data.draw(st.sampled_from(tokens or ["NA"]))
                cells[j] = f" {token} "
            lines[i] = ",".join(cells)
        elif i < len(lines):
            line = lines[i]
            lines[i] = {"short": line.rpartition(",")[0],
                        "long": line + ",1",
                        "lone-cr": line.replace(",", "\r,", 1),
                        "quote": '"' + line.replace(",", '",', 1),
                        "quoted-break": '"' + line.replace(",", '\n",', 1),
                        }[edit]
    ending = data.draw(st.sampled_from(["", newline, newline * 2]))
    schema = Schema([FeatureSpec("a", NUMERIC),
                     FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "d.csv")
        Path(path).write_bytes((newline.join(lines) + ending).encode())
        book = label_book(path)
        with mock.patch("solvency.dataset._BLOCK_ROWS", block):
            outcome = labelled_outcome(path, schema, tokens, book)
            with mock.patch("solvency.dataset._plain_lines",
                            return_value=None):
                expected = labelled_outcome(path, schema, tokens, book)
    assert outcome == expected


class TestSplitPass:
    """Files with labelled columns are split on commas, block by block."""

    schema = Schema([FeatureSpec("a", NUMERIC),
                     FeatureSpec("c", CATEGORICAL, levels=3)], "TARGET")
    book = {"c": {"red": 1, "green": 2, "re\x00d": 3}}
    lines = ["c,a,TARGET"] + [
        f"{(' red', 'green ', 'NA')[i % 3]},{'NA' if i == 4 else i / 4},"
        f"{i % 2}" for i in range(10)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_clean_files_never_reach_the_csv_path(self, tmp_path, newline):
        """No line goes through the csv module; the CR of a CRLF is not
        part of a cell."""
        p = tmp_path / "d.csv"
        p.write_bytes((newline.join(self.lines) + newline).encode())
        with mock.patch("solvency.dataset._BLOCK_ROWS", 3), \
                mock.patch("solvency.dataset._columns",
                           side_effect=AssertionError("csv path")):
            data = load_csv(str(p), self.schema, codebook=self.book)
        assert rows(data) == [
            [None if i == 4 else i / 4, (None if i % 3 == 2 else i % 3 + 1),
             float(i % 2)] for i in range(10)]

    def test_a_nul_sends_the_whole_text_to_csv(self, tmp_path):
        """A text holding a NUL is read by the csv module, every block
        of it, which reads the NUL as a character from Python 3.11 on
        and refuses it before."""
        p = tmp_path / "d.csv"
        lines = list(self.lines)
        lines[5] = "re\x00d,1.0,1"
        write_lines(p, lines)
        with mock.patch("solvency.dataset._BLOCK_ROWS", 3), \
                mock.patch("solvency.dataset._columns",
                           wraps=_columns) as columns:
            if sys.version_info < (3, 11):
                with pytest.raises(DataError, match="line 6: line contains "
                                                    "NUL"):
                    load_csv(str(p), self.schema, codebook=self.book)
                return
            data = load_csv(str(p), self.schema, codebook=self.book)
        assert [call.args[2] for call in columns.call_args_list] == [
            0, 3, 6, 9]
        assert data.X[4, 1] == 3

    def test_a_quoted_file_is_opened_once(self, tmp_path):
        """A text that is not plain goes to the csv module from the
        text already read, not from the file opened again."""
        p = tmp_path / "d.csv"
        p.write_bytes(b'c,a,TARGET\n"red",1.5,1\n"green",2,0\n')
        with mock.patch("solvency.dataset.open", wraps=open,
                        create=True) as opened:
            data = load_csv(str(p), self.schema, codebook=self.book)
        assert opened.call_count == 1
        assert rows(data) == [[1.5, 1.0, 1.0], [2.0, 2.0, 0.0]]

    @pytest.mark.parametrize("text, message", [
        ("a,c,TARGET\nred,1,0\n\ngreen,2,1\n", "row 1 has 0 cells"),
        ("a,c,TARGET\r\n1,red,0\r\n\r\n", "row 1 has 0 cells"),
        ("a,c,TARGET\n1,red\n", "row 0 has 2 cells"),
        ("a,c,TARGET\n1,red,0\n1,red,0,1\n1,red\n", "row 1 has 4 cells"),
    ], ids=["blank-mid-file", "blank-crlf-trailing", "short-row",
            "long-then-short"])
    def test_ragged_rows_are_named(self, tmp_path, text, message):
        """A long row and a short one together hold as many commas as
        two good rows, but each line is counted."""
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        with pytest.raises(DataError, match=f"{message}, expected 3"):
            load_csv(str(p), self.schema, codebook=self.book)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_line_of_a_one_column_file(self, tmp_path, newline):
        """A blank line holds as many commas as a row of one cell, but
        is a row of none."""
        p = tmp_path / "d.csv"
        p.write_bytes(newline.join(["TARGET", "NA", "", "1", ""]).encode())
        with pytest.raises(DataError, match="row 1 has 0 cells, "
                                            "expected 1"):
            load_csv(str(p), Schema([], "TARGET"))

    def test_long_field_names_the_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,c,TARGET", "1,red,0", "1," + "r" * 131_073 + ",0"])
        with pytest.raises(DataError, match="line 3: field larger than "
                                            "field limit"):
            load_csv(str(p), self.schema, codebook=self.book)


@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from('a,"\r\n'), max_size=40),
       st.integers(min_value=0, max_value=8))
def test_text_lines_split_as_a_file_does(text, chunk):
    """_text_lines, which splits a text a chunk at a time, gives the
    lines that a file opened with newline="" gives, wherever a chunk
    ends."""
    with mock.patch("solvency.dataset._TEXT_CHUNK", chunk):
        assert list(_text_lines(text)) == list(io.StringIO(text, newline=""))


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet programs write it, is not
    part of the first column name."""

    def test_input_reads_as_without_it(self, tmp_path):
        text = "c,a,TARGET\r\nred,1.5,1\r\nNA,2,0\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(text.encode("utf-8-sig"))
        schema = Schema([FeatureSpec("a", NUMERIC),
                         FeatureSpec("c", CATEGORICAL, levels=2)], "TARGET")
        book = {"c": {"red": 1, "blue": 0}}
        assert read_header(str(marked)) == ["c", "a", "TARGET"]
        for path in (plain, marked):
            data = load_csv(str(path), schema, codebook=book)
            assert rows(data) == [[1.5, 1.0, 1.0], [2.0, None, 0.0]]
        with mock.patch("solvency.dataset._plain_lines", return_value=None):
            assert rows(load_csv(str(marked), schema,
                                 codebook=book)) == rows(data)

    def test_codebook_reads_as_without_it(self, tmp_path):
        path = tmp_path / "book.csv"
        path.write_bytes("feature,label,code\nc,red,1\nc,blue,0\n".encode(
            "utf-8-sig"))
        assert load_codebook(str(path)) == {"c": {"red": 1, "blue": 0}}


class TestBinaryTarget:
    @pytest.mark.parametrize("target, message", [
        ([0, 1, None, 2], "target 'TARGET' of row 2 is missing, not 0 or 1"),
        ([1, 0.5, 0], "target 'TARGET' of row 1 is 0.5, not 0 or 1"),
        ([2, 0], "target 'TARGET' of row 0 is 2.0, not 0 or 1"),
    ], ids=["missing", "fraction", "whole"])
    def test_first_bad_row_is_named(self, target, message):
        data = make_dataset({"a": [1.0] * len(target)}, target)
        with pytest.raises(DataError, match=f"^{message}$"):
            data.binary_target()
