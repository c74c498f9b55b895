"""Loading, encoding, and cleaning behavior."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cells, make_dataset, rows
from solvency.dataset import (
    CATEGORICAL,
    DEFAULT_CODEBOOK,
    NUMERIC,
    ClassDistribution,
    CodeBook,
    Dataset,
    FeatureSpec,
    _BLOCK_ROWS,
    OutlierRule,
    Schema,
    apply_codebook,
    class_distribution,
    clean,
    _format_cells,
    load_csv,
    read_back,
    read_header,
    schema_from_header,
    write_csv,
)
from solvency.errors import (
    DataError,
    EmptyDistributionError,
    EmptyResultError,
    HeaderMismatchError,
    MissingFileError,
    RaggedRowError,
    UnknownLabelError,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSchema:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([FeatureSpec("a", NUMERIC), FeatureSpec("a", NUMERIC)],
                   "TARGET")

    def test_target_cannot_be_a_feature(self):
        with pytest.raises(ValueError):
            Schema([FeatureSpec("a", NUMERIC)], "a")

    def test_indices_follow_declaration_order(self):
        s = Schema([FeatureSpec("a", NUMERIC),
                    FeatureSpec("b", CATEGORICAL, levels=3)], "y")
        assert [f.index for f in s.features] == [0, 1]
        assert s["b"].levels == 3

    def test_fingerprint_changes_with_kind(self):
        a = Schema([FeatureSpec("a", NUMERIC)], "y")
        b = Schema([FeatureSpec("a", CATEGORICAL, levels=2)], "y")
        assert a.fingerprint() != b.fingerprint()

    def test_categorical_needs_two_levels(self):
        with pytest.raises(ValueError):
            FeatureSpec("a", CATEGORICAL, levels=1)


class TestCodeBook:
    def test_bundled_binary_convention(self):
        # first-listed label of a two-level variable carries code 1
        assert DEFAULT_CODEBOOK.encode("CODE_GENDER", "F") == 1
        assert DEFAULT_CODEBOOK.encode("CODE_GENDER", "M") == 0
        assert DEFAULT_CODEBOOK.encode("NAME_CONTRACT_TYPE", "Cash loans") == 1
        assert DEFAULT_CODEBOOK.encode("FLAG_OWN_CAR", "N") == 0

    def test_bundled_multilevel_codes(self):
        book = DEFAULT_CODEBOOK
        assert book.encode("NAME_INCOME_TYPE", "State servant") == 1
        assert book.encode("NAME_INCOME_TYPE", "Pensioner") == 4
        assert book.encode("NAME_EDUCATION_TYPE", "Lower secondary") == 4
        assert book.encode("NAME_HOUSING_TYPE", "Rented apartment") == 6
        assert book.encode("NAME_FAMILY_STATUS", "Widow") == 5
        assert book.levels("NAME_HOUSING_TYPE") == 6

    def test_decode_inverts_encode(self):
        for feature in DEFAULT_CODEBOOK.features():
            for label in DEFAULT_CODEBOOK.mappings[feature]:
                code = DEFAULT_CODEBOOK.encode(feature, label)
                assert DEFAULT_CODEBOOK.decode(feature, code) == label

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "codes.csv"
        DEFAULT_CODEBOOK.save(str(path))
        assert CodeBook.load(str(path)) == DEFAULT_CODEBOOK

    def test_load_missing_file(self):
        with pytest.raises(MissingFileError):
            CodeBook.load("/no/such/codebook.csv")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValueError):
            CodeBook({"x": {"a": 1, "b": 1}})

    def test_infer_first_appearance_order(self):
        data = make_dataset(
            {"color": ["red", "blue", "red", "green"]},
            [0, 1, 0, 1],
            kinds={"color": CATEGORICAL},
            levels={"color": 3},
        )
        book = CodeBook.infer(data)
        assert book.mappings["color"] == {"red": 1, "blue": 2, "green": 3}

    def test_infer_binary_convention(self):
        data = make_dataset(
            {"flag": ["Y", "N", "Y"]},
            [0, 1, 0],
            kinds={"flag": CATEGORICAL},
        )
        assert CodeBook.infer(data).mappings["flag"] == {"Y": 1, "N": 0}


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
        with pytest.raises(HeaderMismatchError):
            load_csv(str(p), schema)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,TARGET", "1,0", "2"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        with pytest.raises(RaggedRowError):
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
        data = load_csv(str(p), schema, encoded=True)
        assert cells(data.X[:, 0]) == [2, 1]
        assert data.labels == {}

    def test_fractional_code_and_python_float_syntax(self, tmp_path):
        # cells read with float(): padding, underscores and exponents
        # parse, a fractional code stays fractional
        p = tmp_path / "d.csv"
        write_lines(p, ["c,a,TARGET", "2.5, 1_000 ,1", " 3 ,1e3,0",
                        "-0,-inf,1"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=3),
                         FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema, encoded=True)
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

    def test_raw_labels_kept_as_text(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["c,TARGET", " red ,1", "NA,0", "blue,1"])
        schema = Schema([FeatureSpec("c", CATEGORICAL, levels=2)], "TARGET")
        data = load_csv(str(p), schema)
        assert rows(data) == [["red", 1.0], [None, 0.0], ["blue", 1.0]]
        assert np.isnan(data.X).all()

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
        with pytest.raises(RaggedRowError, match=f"row {_BLOCK_ROWS + 2} "):
            load_csv(str(p), schema)

    def test_target_optional_mode(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a", "1.5", "2.5"])
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        data = load_csv(str(p), schema, target_optional=True)
        assert cells(data.y) == [None, None]

    def test_missing_file(self):
        schema = Schema([FeatureSpec("a", NUMERIC)], "TARGET")
        with pytest.raises(MissingFileError):
            load_csv("/no/such/file.csv", schema)

    def test_write_then_load_round_trip(self, tmp_path):
        data = make_dataset(
            {"a": [1.5, -2.0, 3.25], "c": [1, 2, 1]},
            [0, 1, 0],
            kinds={"c": CATEGORICAL},
        )
        p = tmp_path / "out.csv"
        write_csv(data, str(p))
        again = load_csv(str(p), data.schema, encoded=True)
        assert rows(again) == rows(data)


class TestApplyCodebook:
    def test_table_one_row_encodes_exactly(self):
        data = make_dataset(
            {
                "NAME_CONTRACT_TYPE": ["Cash loans", "Revolving loans"],
                "CODE_GENDER": ["F", "M"],
                "NAME_EDUCATION_TYPE": ["Higher education",
                                        "Secondary / secondary special"],
            },
            [1, 0],
            kinds={name: CATEGORICAL for name in (
                "NAME_CONTRACT_TYPE", "CODE_GENDER", "NAME_EDUCATION_TYPE")},
            levels={"NAME_CONTRACT_TYPE": 2, "CODE_GENDER": 2,
                    "NAME_EDUCATION_TYPE": 4},
        )
        encoded = apply_codebook(data, DEFAULT_CODEBOOK)
        assert rows(encoded)[0][:3] == [1, 1, 1]
        assert rows(encoded)[1][:3] == [0, 0, 3]
        assert encoded.labels == {}

    def test_unknown_label_names_feature_and_row(self):
        data = make_dataset(
            {"CODE_GENDER": ["F", "X"]},
            [0, 1],
            kinds={"CODE_GENDER": CATEGORICAL},
        )
        with pytest.raises(UnknownLabelError) as err:
            apply_codebook(data, DEFAULT_CODEBOOK)
        assert err.value.feature == "CODE_GENDER"
        assert err.value.label == "X"
        assert err.value.row == 1

    def test_missing_markers_pass_through(self):
        data = make_dataset(
            {"CODE_GENDER": ["F", None]},
            [0, 1],
            kinds={"CODE_GENDER": CATEGORICAL},
        )
        encoded = apply_codebook(data, DEFAULT_CODEBOOK)
        assert rows(encoded)[1][0] is None


class TestClean:
    def test_missing_rows_dropped_first_offender_logged(self):
        data = make_dataset(
            {"a": [1.0, None, 3.0], "b": [5.0, 6.0, None]},
            [0, 1, 0],
        )
        cleaned, log = clean(data, OutlierRule("off"))
        assert cleaned.n == 1
        assert log.entries == [(1, "missing:a"), (2, "missing:b")]

    def test_missing_target_logged(self):
        data = make_dataset({"a": [1.0, 2.0]}, [0, None])
        cleaned, log = clean(data, OutlierRule("off"))
        assert cleaned.n == 1
        assert log.entries == [(1, "missing:TARGET")]

    def test_planted_outlier_dropped_by_iqr_fences(self):
        # 12 evenly spread values plus one far excursion; quartiles of
        # the bulk put the fence well inside 500
        values = [float(v) for v in range(1, 13)] + [500.0]
        data = make_dataset({"a": values}, [0, 1] * 6 + [0])
        cleaned, log = clean(data)
        assert cleaned.n == 12
        assert log.entries == [(12, "outlier:a")]

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
        reasons = {i for i, _ in log.entries}
        assert reasons == {6, 7}
        assert cleaned.n == 6

    def test_zscore_rule(self):
        values = [0.0] * 10 + [100.0]
        data = make_dataset({"a": values}, [0, 1] * 5 + [0])
        cleaned, _ = clean(data, OutlierRule("zscore", z_threshold=3.0))
        assert cleaned.n == 10

    def test_everything_dropped_raises(self):
        data = make_dataset({"a": [None, None]}, [0, 1])
        with pytest.raises(EmptyResultError):
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

    def test_class_distribution_counts(self):
        data = make_dataset({"a": [1.0, 2.0, 3.0]}, [0, 1, 1])
        dist = class_distribution(data)
        assert dist.counts == (1, 2)
        assert dist.total == 3
        assert dist.proportions == (1 / 3, 2 / 3)

    def test_empty_distribution_raises(self):
        with pytest.raises(EmptyDistributionError):
            ClassDistribution((0, 0))

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


class TestSchemaFromHeader:
    def test_codebook_columns_become_categorical(self):
        header = ["AMT_CREDIT", "CODE_GENDER", "TARGET"]
        schema = schema_from_header(header, "TARGET", DEFAULT_CODEBOOK)
        assert schema["AMT_CREDIT"].kind == NUMERIC
        assert schema["CODE_GENDER"].kind == CATEGORICAL
        assert schema["CODE_GENDER"].levels == 2

    def test_target_must_be_present(self):
        with pytest.raises(HeaderMismatchError):
            schema_from_header(["a", "b"], "TARGET")

    def test_repeated_column_rejected_naming_the_file(self):
        with pytest.raises(HeaderMismatchError, match="in.csv .*'a'"):
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
    except EmptyResultError:
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
                          missing_tokens=tokens, encoded=True)
    back = read_back(written, tokens)
    assert back.schema == loaded.schema
    assert_bit_equal(back.X, loaded.X)
    assert_bit_equal(back.y, loaded.y)
    assert back.X.flags.c_contiguous and not back.labels


def test_read_back_refuses_raw_labels():
    schema = Schema([FeatureSpec("color", CATEGORICAL, levels=2)], "TARGET")
    labelled = Dataset(schema, [[math.nan]], [1.0],
                       {"color": np.array(["red"], dtype=object)})
    with pytest.raises(ValueError, match="raw labels"):
        read_back(labelled)


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
