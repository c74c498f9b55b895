"""Seeded synthetic data generation with a planted labeling rule."""

import re

import numpy as np
import pytest

from conftest import rows
from solvency.dataset import (
    CATEGORICAL,
    DEFAULT_CODEBOOK,
    NUMERIC,
    FeatureSpec,
    Schema,
    schema_from_header,
    write_csv,
)
from solvency.errors import ConfigError
from solvency.synth import (
    DEFAULT_COLUMNS,
    DEFAULT_RANGES,
    DEFAULT_RULE,
    check_rule,
    generate,
    planted_labels,
)


def tiny_schema():
    return Schema([
        FeatureSpec("income", NUMERIC),
        FeatureSpec("region", CATEGORICAL, levels=3),
    ], target="y")


def split(feature, left=1, right=0, **test):
    """A planted rule split in its JSON form."""
    return {"feature": feature, **test, "left": left, "right": right}


def depth(rule):
    if not isinstance(rule, dict) or "label" in rule:
        return 0
    return 1 + max(depth(rule["left"]), depth(rule["right"]))


def tiny_doc(low=0.0, high=1.0, **overrides):
    """A synth object over tiny_schema's features, income drawn from
    [low, high)."""
    return {
        "n_rows": 200,
        "features": [
            {"name": "income", "kind": "numeric", "low": low, "high": high},
            {"name": "region", "kind": "categorical", "levels": 3},
        ],
        "target": "y",
        "rule": split("income", threshold=0.5),
        **overrides,
    }


class TestDeterminism:
    def test_equal_seeds_give_byte_equal_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(generate({"n_rows": 500, "seed": 11}), a)
        write_csv(generate({"n_rows": 500, "seed": 11}), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        a = generate({"n_rows": 100, "seed": 1})
        b = generate({"n_rows": 100, "seed": 2})
        assert rows(a) != rows(b)

    def test_noise_seeded_too(self):
        a = generate({"n_rows": 300, "seed": 5, "noise": 0.3})
        b = generate({"n_rows": 300, "seed": 5, "noise": 0.3})
        assert rows(a) == rows(b)


class TestLabels:
    def test_noise_free_labels_follow_rule_exactly(self):
        data = generate({"n_rows": 1000, "seed": 3})
        columns = {f.name: data.X[:, f.index].copy()
                   for f in data.schema.features}
        expected = planted_labels(DEFAULT_RULE, columns, 1000)
        actual = data.y
        assert np.array_equal(actual, expected)

    def test_flip_rate_tracks_noise(self):
        noisy = generate({"n_rows": 10_000, "seed": 4, "noise": 0.2})
        clean = generate({"n_rows": 10_000, "seed": 4, "noise": 0.0})
        flips = int(np.sum(noisy.y != clean.y))
        assert abs(flips / 10_000 - 0.2) < 0.01

    def test_rows_outside_rule_are_zero(self):
        data = generate({"n_rows": 2000, "seed": 6})
        schema = data.schema
        income = schema["AMT_INCOME_TOTAL"].index
        credit = schema["AMT_CREDIT"].index
        for row in rows(data):
            inside = row[income] <= 137_500.0 and row[credit] <= 522_500.0
            assert row[-1] == (1 if inside else 0)


class TestDrawnValues:
    def test_numeric_columns_stay_in_their_ranges(self):
        data = generate({"n_rows": 500, "seed": 7})
        schema = data.schema
        for name, (low, high) in DEFAULT_RANGES.items():
            i = schema[name].index
            values = data.X[:, i].tolist()
            assert low <= min(values) and max(values) < high

    def test_categorical_codes_match_convention(self):
        data = generate({"n_rows": 500, "seed": 8})
        binary = data.column("CODE_GENDER").tolist()
        assert set(binary) <= {0, 1}
        wide = data.column("NAME_HOUSING_TYPE").tolist()
        assert set(wide) <= set(range(1, 7))
        assert all(v.is_integer() for v in wide)

    def test_default_schema_shape(self):
        """The bundled schema is the default columns' header read with
        DEFAULT_CODEBOOK: thirteen features, seven of them categorical."""
        schema = generate({"n_rows": 1}).schema
        assert schema == schema_from_header(
            [*DEFAULT_COLUMNS, "TARGET"], "TARGET", DEFAULT_CODEBOOK)
        assert schema.target == "TARGET"
        assert schema.features[0].name == "NAME_CONTRACT_TYPE"
        assert [f.levels for f in schema.features] == [
            2, 2, 2, None, None, None, None, None, 4, 4, 5, 6, None]
        assert depth(DEFAULT_RULE) == 2
        check_rule(DEFAULT_RULE, schema)


class TestValidation:
    def test_bad_row_count(self):
        with pytest.raises(ConfigError, match="^n_rows must be positive$"):
            generate(tiny_doc(n_rows=0))

    def test_noise_bounds(self):
        found = re.escape("noise must lie in [0, 0.5)")
        with pytest.raises(ConfigError, match=found):
            generate(tiny_doc(noise=0.5))
        with pytest.raises(ConfigError, match=found):
            generate(tiny_doc(noise=-0.01))
        generate(tiny_doc(noise=0.49))  # accepted

    def test_rule_depth_capped(self):
        node = 1
        for _ in range(4):
            node = split("income", left=node, threshold=0.5)
        with pytest.raises(ConfigError, match="depth cannot exceed 3"):
            generate(tiny_doc(rule=node))
        generate(tiny_doc(rule=node["left"]))  # depth 3 is accepted

    def test_depth_check_stops_past_the_limit(self):
        """A rule nested far past the limit is refused, not recursed
        through."""
        node = 1
        for _ in range(100_000):
            node = split("income", left=node, threshold=0.5)
        with pytest.raises(ConfigError, match="depth cannot exceed 3"):
            generate(tiny_doc(rule=node))

    def test_rule_unknown_feature(self):
        with pytest.raises(ConfigError,
                           match="unknown feature 'balance'"):
            generate(tiny_doc(rule=split("balance", threshold=1.0)))

    def test_threshold_on_categorical_rejected(self):
        with pytest.raises(ConfigError,
                           match="threshold rule on categorical 'region'"):
            generate(tiny_doc(rule=split("region", threshold=1.5)))

    def test_subset_on_numeric_rejected(self):
        with pytest.raises(ConfigError,
                           match="subset rule on numeric 'income'"):
            generate(tiny_doc(rule=split("income", subset=[1])))

    def test_subset_codes_outside_levels_rejected(self):
        with pytest.raises(ConfigError,
                           match=re.escape("codes 1..3, not [4]")):
            generate(tiny_doc(rule=split("region", subset=[4])))

    def test_leaf_label_must_be_binary(self):
        with pytest.raises(ConfigError, match="class 0 or 1, not 2"):
            generate(tiny_doc(rule=split("income", left=2, threshold=0.5)))

    @pytest.mark.parametrize("rule, found", [
        (True, "class 0 or 1, not True"),
        ({"label": 1.0}, "class 0 or 1, not 1.0"),
        ({"label": {"label": 1}}, "class 0 or 1, not {'label': 1}"),
        (None, "class 0 or 1, not None"),
        (split(5, threshold=0.5), "unknown feature 5"),
        ({"threshold": 0.5, "left": 1, "right": 0}, "unknown feature None"),
        (split("income", threshold=0.5, subset=[1]), "one of 'threshold'"),
        (split("income"), "one of 'threshold' and 'subset'"),
        (split("income", threshold="0.5"), "finite number, not '0.5'"),
        (split("income", threshold=float("nan")), "finite number, not nan"),
        (split("income", threshold=10 ** 400), "finite number, not 1000"),
        (split("income", threshold=True), "finite number, not True"),
        (split("region", subset=[1.0]), "codes 1..3, not [1.0]"),
        (split("region", subset=[True]), "codes 1..3, not [True]"),
        (split("region", subset="1"), "codes 1..3, not '1'"),
        (split("region", subset=[0, 3]), "codes 1..3, not [0, 3]"),
        ({"feature": "income", "threshold": 0.5, "right": 0},
         "needs 'left', 'right' and one of"),
        ({"label": 0, "colour": 1}, "unknown key 'colour' in rule leaf"),
        (split("income", threshold=0.5, note="x"),
         "unknown key 'note' in rule split on 'income'"),
        (split("balance", note="x"),
         "unknown key 'note' in rule split on 'balance'"),
    ], ids=["bool-leaf", "float-label", "nested-label", "null-leaf",
            "feature-number", "no-feature", "both-tests", "no-test",
            "threshold-text", "threshold-nan", "threshold-huge",
            "threshold-bool", "subset-float", "subset-bool", "subset-text",
            "subset-code", "no-left", "leaf-key", "split-key",
            "keys-first"])
    def test_malformed_rule_refused(self, rule, found):
        with pytest.raises(ConfigError, match=re.escape(found)):
            check_rule(rule, tiny_schema())

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError, match="^empty range for 'income'$"):
            generate(tiny_doc(low=1.0, high=1.0))

    def test_empty_range_refused_after_the_rule(self):
        """Every other value is checked before a range is found
        empty."""
        with pytest.raises(ConfigError, match="unknown feature 'balance'"):
            generate(tiny_doc(low=1.0, high=1.0,
                              rule=split("balance", threshold=1.0)))


class TestDocs:
    def test_rule_round_trip(self):
        doc = {
            "feature": "region",
            "subset": [1, 3],
            "left": {"label": 1},
            "right": {"feature": "income", "threshold": 0.25,
                      "left": 0, "right": 1},
        }
        check_rule(doc, tiny_schema())
        columns = {"region": np.array([1.0, 3.0, 2.0, 2.0, 2.0]),
                   "income": np.array([0.9, 0.1, 0.1, 0.25, 0.3])}
        assert planted_labels(doc, columns, 5).tolist() == [1, 1, 0, 0, 1]

    def test_bare_int_is_leaf(self):
        check_rule(1, tiny_schema())
        assert planted_labels(1, {}, 3).tolist() == [1, 1, 1]
        assert planted_labels({"label": 0}, {}, 2).tolist() == [0, 0]

    def test_bad_rule_doc(self):
        with pytest.raises(ConfigError):
            check_rule({"threshold": 0.5}, tiny_schema())

    def test_spec_defaults(self):
        """{} draws what the bundled schema, spelled out as features
        with DEFAULT_RANGES, draws under DEFAULT_RULE."""
        features = [
            {"name": name, "kind": "categorical",
             "levels": len(DEFAULT_CODEBOOK[name])}
            if name in DEFAULT_CODEBOOK else
            {"name": name, "kind": "numeric", "low": DEFAULT_RANGES[name][0],
             "high": DEFAULT_RANGES[name][1]}
            for name in DEFAULT_COLUMNS]
        data = generate({})
        spelled = generate({"n_rows": 4000, "seed": 0, "noise": 0.0,
                            "features": features, "rule": DEFAULT_RULE})
        assert data.n == 4000
        assert data.schema == spelled.schema
        assert np.array_equal(data.X, spelled.X)
        assert np.array_equal(data.y, spelled.y)

    def test_spec_with_custom_features(self):
        data = generate({
            "n_rows": 50,
            "seed": 9,
            "features": [
                {"name": "x", "kind": "numeric", "low": 2.0, "high": 4.0},
                {"name": "c", "kind": "categorical", "levels": 3},
            ],
            "target": "label",
            "rule": {"feature": "x", "threshold": 3.0,
                     "left": 1, "right": 0},
        })
        assert data.schema.target == "label"
        assert all(2.0 <= row[0] < 4.0 for row in rows(data))
        assert all(row[-1] == (1 if row[0] <= 3.0 else 0)
                   for row in rows(data))

    def test_target_without_features_names_the_bundled_target(self):
        """target renames the bundled schema's target; its features and
        every drawn value stay."""
        data = generate({"n_rows": 5, "target": "label"})
        default = generate({"n_rows": 5})
        assert data.schema == schema_from_header(
            [*DEFAULT_COLUMNS, "label"], "label", DEFAULT_CODEBOOK)
        assert np.array_equal(data.X, default.X)
        assert np.array_equal(data.y, default.y)

    def test_spec_doc_validation(self):
        with pytest.raises(ConfigError,
                           match="^synth spec must be a JSON object$"):
            generate([])
        with pytest.raises(ConfigError,
                           match="^unknown feature kind 'text'$"):
            generate({"features": [{"name": "x", "kind": "text"}]})
        with pytest.raises(ConfigError, match="^bad feature entry: 'x'$"):
            generate({"features": ["x"]})
        with pytest.raises(ConfigError,
                           match="'n_rows' must be an integer, not 'many'"):
            generate({"n_rows": "many"})

    @pytest.mark.parametrize("doc, found", [
        ({"n_rows": True}, "'n_rows' must be an integer, not True"),
        ({"seed": 1.0}, "'seed' must be an integer, not 1.0"),
        ({"seed": 2 ** 64}, "seed must fit in 64 unsigned bits"),
        ({"noise": "0.1"}, "'noise' must be a finite number, not '0.1'"),
        ({"noise": float("nan")}, "'noise' must be a finite number, not nan"),
        ({"features": {"x": "numeric"}}, "'features' must be a list"),
        ({"features": [{"name": "x", "kind": "numeric", "high": None}]},
         "feature 'x' key 'high' must be a finite number, not None"),
        ({"features": [{"name": "x", "kind": "numeric", "low": 1e400}]},
         "feature 'x' key 'low' must be a finite number, not inf"),
        ({"features": [{"name": "c", "kind": "categorical",
                        "levels": True}]},
         "feature 'c' key 'levels' must be an integer, not True"),
        ({"features": [{"name": "x"}]}, "unknown feature kind None"),
        ({"features": [{"name": "x", "kind": "numeric"}], "target": "x"},
         "target 'x' collides with a feature"),
        ({"target": "AMT_CREDIT"},
         "target 'AMT_CREDIT' collides with a feature"),
        ({"target": 3}, "synth key 'target' must be a string, not 3"),
        ({"features": 5, "target": 3}, "'features' must be a list, not 5"),
        ({"n_rows": 0, "noise": "x"}, "'noise' must be a finite number"),
        ({"seed": -1, "noise": 0.7}, "noise must lie in [0, 0.5)"),
    ], ids=["rows-bool", "seed-float", "seed-too-big", "noise-text",
            "noise-nan", "features-object", "high-null", "low-inf",
            "levels-bool", "no-kind", "target-feature",
            "target-bundled-feature", "target-int", "features-then-target",
            "types-first",
            "noise-before-seed"])
    def test_value_of_wrong_type_names_its_key(self, doc, found):
        with pytest.raises(ConfigError, match=re.escape(found)):
            generate(doc)

    @pytest.mark.parametrize("doc, found", [
        ({"n_rows": 30, "seeed": 4}, "unknown key 'seeed' in synth object"),
        ({"nrows": 30, "noise": "x"}, "unknown key 'nrows' in synth object"),
        ({"features": [{"name": "x", "kind": "numeric", "colour": 1}]},
         "unknown key 'colour' in synth feature 'x'"),
        ({"features": [{"name": "c", "kind": "categorical", "low": 0}]},
         "unknown key 'low' in synth feature 'c'"),
        ({"features": [{"name": "x", "kind": "numeric", "levels": 3}]},
         "unknown key 'levels' in synth feature 'x'"),
        ({"features": [{"name": 5, "kind": "numeric", "high": 2,
                        "colour": 1}]},
         "unknown key 'colour' in synth feature 5"),
        ({"features": [{"name": "c", "kind": "categorial", "levels": 3}]},
         "unknown feature kind 'categorial'"),
        ({"rule": {"label": 0, "colour": 1}},
         "unknown key 'colour' in rule leaf"),
    ], ids=["synth", "synth-first", "feature", "categorical-low",
            "numeric-levels", "feature-first", "unknown-kind", "leaf"])
    def test_unknown_key_refused(self, doc, found):
        """A key its object does not read is refused, before any other
        check of that object; an entry of unknown kind is refused for
        its kind."""
        with pytest.raises(ConfigError, match=f"^{re.escape(found)}$"):
            generate(doc)

    def test_whole_numbers_serve_as_numbers(self):
        whole = generate({
            "noise": 0, "features": [
                {"name": "x", "kind": "numeric", "low": 1, "high": 3}],
            "rule": {"feature": "x", "threshold": 2, "left": 1, "right": 0},
        })
        floats = generate({
            "noise": 0.0, "features": [
                {"name": "x", "kind": "numeric", "low": 1.0, "high": 3.0}],
            "rule": {"feature": "x", "threshold": 2.0, "left": 1,
                     "right": 0},
        })
        assert np.array_equal(whole.X, floats.X)
        assert ((1.0 <= whole.X) & (whole.X < 3.0)).all()
        assert whole.y.tolist() == [1 if x <= 2 else 0 for x in whole.X[:, 0]]
