"""Seeded synthetic data generation with a planted labeling rule."""

import numpy as np
import pytest

from conftest import rows
from solvency.dataset import CATEGORICAL, NUMERIC, FeatureSpec, Schema, write_csv
from solvency.errors import ConfigError
from solvency.synth import (
    DEFAULT_RANGES,
    RuleNode,
    SynthSpec,
    default_rule,
    default_schema,
    default_spec,
    generate,
    rule_from_doc,
    spec_from_doc,
)


def tiny_schema():
    return Schema([
        FeatureSpec("income", NUMERIC),
        FeatureSpec("region", CATEGORICAL, levels=3),
    ], target="y")


def tiny_spec(**overrides):
    params = dict(
        n_rows=200,
        schema=tiny_schema(),
        rule=RuleNode(feature="income", threshold=0.5,
                      left=RuleNode.leaf(1), right=RuleNode.leaf(0)),
        ranges={"income": (0.0, 1.0)},
    )
    params.update(overrides)
    return SynthSpec(**params)


class TestDeterminism:
    def test_equal_seeds_give_byte_equal_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(generate(default_spec(n_rows=500, seed=11)), a)
        write_csv(generate(default_spec(n_rows=500, seed=11)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        a = generate(default_spec(n_rows=100, seed=1))
        b = generate(default_spec(n_rows=100, seed=2))
        assert rows(a) != rows(b)

    def test_noise_seeded_too(self):
        a = generate(default_spec(n_rows=300, seed=5, noise=0.3))
        b = generate(default_spec(n_rows=300, seed=5, noise=0.3))
        assert rows(a) == rows(b)


class TestLabels:
    def test_noise_free_labels_follow_rule_exactly(self):
        spec = default_spec(n_rows=1000, seed=3)
        data = generate(spec)
        columns = {f.name: data.X[:, f.index].copy()
                   for f in spec.schema.features}
        expected = spec.rule.evaluate(columns)
        actual = data.y
        assert np.array_equal(actual, expected)

    def test_flip_rate_tracks_noise(self):
        noisy = generate(default_spec(n_rows=10_000, seed=4, noise=0.2))
        clean = generate(default_spec(n_rows=10_000, seed=4, noise=0.0))
        flips = int(np.sum(noisy.y != clean.y))
        assert abs(flips / 10_000 - 0.2) < 0.01

    def test_rows_outside_rule_are_zero(self):
        spec = default_spec(n_rows=2000, seed=6)
        data = generate(spec)
        schema = spec.schema
        income = schema["AMT_INCOME_TOTAL"].index
        credit = schema["AMT_CREDIT"].index
        for row in rows(data):
            inside = row[income] <= 137_500.0 and row[credit] <= 522_500.0
            assert row[-1] == (1 if inside else 0)


class TestDrawnValues:
    def test_numeric_columns_stay_in_their_ranges(self):
        data = generate(default_spec(n_rows=500, seed=7))
        schema = data.schema
        for name, (low, high) in DEFAULT_RANGES.items():
            i = schema[name].index
            values = data.X[:, i].tolist()
            assert low <= min(values) and max(values) < high

    def test_categorical_codes_match_convention(self):
        data = generate(default_spec(n_rows=500, seed=8))
        schema = data.schema
        binary = data.column("CODE_GENDER").tolist()
        assert set(binary) <= {0, 1}
        wide = data.column("NAME_HOUSING_TYPE").tolist()
        assert set(wide) <= set(range(1, 7))
        assert all(v.is_integer() for v in wide)

    def test_default_schema_shape(self):
        schema = default_schema()
        assert len(schema.features) == 13
        assert schema.target == "TARGET"
        assert schema.features[0].name == "NAME_CONTRACT_TYPE"
        assert default_rule().depth() == 2


class TestValidation:
    def test_bad_row_count(self):
        with pytest.raises(ConfigError):
            tiny_spec(n_rows=0)

    def test_noise_bounds(self):
        with pytest.raises(ConfigError):
            tiny_spec(noise=0.5)
        with pytest.raises(ConfigError):
            tiny_spec(noise=-0.01)
        tiny_spec(noise=0.49)  # accepted

    def test_rule_depth_capped(self):
        node = RuleNode.leaf(1)
        for _ in range(4):
            node = RuleNode(feature="income", threshold=0.5,
                            left=node, right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=node)

    def test_rule_unknown_feature(self):
        rule = RuleNode(feature="balance", threshold=1.0,
                        left=RuleNode.leaf(1), right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=rule)

    def test_threshold_on_categorical_rejected(self):
        rule = RuleNode(feature="region", threshold=1.5,
                        left=RuleNode.leaf(1), right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=rule)

    def test_subset_on_numeric_rejected(self):
        rule = RuleNode(feature="income", subset=frozenset({1}),
                        left=RuleNode.leaf(1), right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=rule)

    def test_subset_codes_outside_levels_rejected(self):
        rule = RuleNode(feature="region", subset=frozenset({4}),
                        left=RuleNode.leaf(1), right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=rule)

    def test_leaf_label_must_be_binary(self):
        rule = RuleNode(feature="income", threshold=0.5,
                        left=RuleNode.leaf(2), right=RuleNode.leaf(0))
        with pytest.raises(ConfigError):
            tiny_spec(rule=rule)

    def test_range_on_categorical_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(ranges={"income": (0.0, 1.0),
                              "region": (0.0, 3.0)})

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(ranges={"income": (1.0, 1.0)})


class TestDocs:
    def test_rule_round_trip(self):
        doc = {
            "feature": "region",
            "subset": [1, 3],
            "left": {"label": 1},
            "right": {"feature": "income", "threshold": 0.25,
                      "left": 0, "right": 1},
        }
        rule = rule_from_doc(doc)
        assert rule.subset == frozenset({1, 3})
        assert rule.left.label == 1
        assert rule.right.threshold == 0.25
        assert rule.right.left.label == 0

    def test_bare_int_is_leaf(self):
        assert rule_from_doc(1).label == 1

    def test_bad_rule_doc(self):
        with pytest.raises(ConfigError):
            rule_from_doc({"threshold": 0.5})

    def test_spec_defaults(self):
        spec = spec_from_doc({})
        assert spec.n_rows == 4000
        assert spec.seed == 0
        assert spec.noise == 0.0
        assert len(spec.schema.features) == 13
        assert spec.ranges == DEFAULT_RANGES

    def test_spec_with_custom_features(self):
        spec = spec_from_doc({
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
        data = generate(spec)
        assert data.schema.target == "label"
        assert all(2.0 <= row[0] < 4.0 for row in rows(data))
        assert all(row[-1] == (1 if row[0] <= 3.0 else 0)
                   for row in rows(data))

    def test_spec_doc_validation(self):
        with pytest.raises(ConfigError):
            spec_from_doc([])
        with pytest.raises(ConfigError):
            spec_from_doc({"features": [{"name": "x", "kind": "text"}]})
        with pytest.raises(ConfigError):
            spec_from_doc({"features": ["x"]})
        with pytest.raises(ConfigError):
            spec_from_doc({"n_rows": "many"})
