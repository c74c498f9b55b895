"""Tree growing: impurity arithmetic, split search, stopping rules,
serialization, and prediction."""

import hashlib
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from oracles import brute_force_best_split, reference_grow, route_rows
from solvency import cart
from solvency.cart import (
    CLASSIFICATION,
    FORMAT_VERSION,
    REGRESSION,
    CartConfig,
    SplitRule,
    UnseenCategoryWarning,
    assign_leaf,
    best_split,
    deserialize,
    export_dot,
    export_text,
    gini,
    grow,
    predict_dataset,
    predict_values,
    serialize,
    split_gini,
)
from solvency.dataset import CATEGORICAL, ClassDistribution
from solvency.errors import (
    ConfigError,
    DataError,
    MalformedDocumentError,
    SchemaMismatchError,
    VersionMismatchError,
)


def random_mixed_dataset(rng, max_rows=60, max_features=4, max_levels=5):
    """Small random dataset mixing numeric and categorical columns,
    with heavy value ties so tie-breaking actually fires."""
    n = int(rng.integers(5, max_rows + 1))
    k = int(rng.integers(1, max_features + 1))
    columns, kinds, levels = {}, {}, {}
    for j in range(k):
        name = f"f{j}"
        if rng.random() < 0.5:
            span = int(rng.integers(2, 7))
            columns[name] = rng.integers(0, span, n).astype(float).tolist()
        else:
            m = int(rng.integers(2, max_levels + 1))
            kinds[name] = CATEGORICAL
            levels[name] = m
            low = 0 if m == 2 else 1
            columns[name] = rng.integers(low, m + (low == 1), n).tolist()
    target = rng.integers(0, 2, n).tolist()
    return make_dataset(columns, target, kinds=kinds, levels=levels)


class TestGini:
    def test_pure_node_is_exactly_zero(self):
        assert gini(ClassDistribution((7, 0))) == 0.0
        assert gini(ClassDistribution((0, 3))) == 0.0

    def test_even_node_is_exactly_half(self):
        for k in (1, 2, 10, 999):
            assert gini(ClassDistribution((k, k))) == 0.5

    def test_agrees_with_rational_arithmetic(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            c0 = int(rng.integers(0, 1000))
            c1 = int(rng.integers(0, 1000))
            if c0 + c1 == 0:
                continue
            total = Fraction(c0 + c1)
            exact = 1 - (Fraction(c1) / total) ** 2 - (
                Fraction(c0) / total) ** 2
            assert abs(gini(ClassDistribution((c0, c1))) - exact) < 1e-15

    def test_split_gini_is_weighted_average(self):
        left = ClassDistribution((2, 2))
        right = ClassDistribution((4, 0))
        # (4 * 0.5 + 4 * 0.0) / 8
        assert split_gini(left, right) == 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_bounds_and_symmetry(self, c0, c1):
        if c0 + c1 == 0:
            return
        value = gini(ClassDistribution((c0, c1)))
        assert 0.0 <= value <= 0.5
        # swapping classes reorders the subtractions, so only near-exact
        swapped = gini(ClassDistribution((c1, c0)))
        assert abs(value - swapped) < 1e-15


class TestAssignLeaf:
    def test_majority(self):
        assert assign_leaf((2, 5)) == (1, 5 / 7)
        assert assign_leaf((5, 2)) == (0, 2 / 7)

    def test_tie_goes_to_zero(self):
        predicted, p1 = assign_leaf((3, 3))
        assert predicted == 0
        assert p1 == 0.5


class TestBestSplit:
    def test_perfect_numeric_split(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        rule, decrease = best_split(data)
        assert rule.feature == "x"
        assert rule.threshold == 2.5
        assert decrease == 0.5

    def test_threshold_is_midpoint_of_distinct_values(self):
        data = make_dataset({"x": [0.0, 0.0, 10.0, 10.0]}, [0, 0, 1, 1])
        rule, _ = best_split(data)
        assert rule.threshold == 5.0

    def test_categorical_subset_contains_smallest_code(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2, 3, 3]}, [1, 1, 0, 0, 1, 1],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        rule, decrease = best_split(data)
        assert rule.subset == frozenset({1, 3})
        assert rule.complement == frozenset({2})
        assert decrease == pytest.approx(4 / 9, abs=1e-15)

    def test_pure_node_has_no_split(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0]}, [1, 1, 1])
        assert best_split(data) is None

    def test_constant_columns_have_no_split(self):
        data = make_dataset({"x": [2.0, 2.0, 2.0, 2.0]}, [0, 1, 0, 1])
        assert best_split(data) is None

    def test_single_row_has_no_split(self):
        data = make_dataset({"x": [1.0]}, [0])
        assert best_split(data) is None

    def test_min_gini_decrease_filters(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 1, 0, 1])
        config = CartConfig(min_gini_decrease=0.4)
        assert best_split(data, config=config) is None

    def test_variables_argument_restricts_search(self):
        data = make_dataset(
            {"noise": [1.0, 2.0, 3.0, 4.0], "clean": [0.0, 0.0, 1.0, 1.0]},
            [0, 0, 1, 1])
        rule, _ = best_split(data, variables=["noise"])
        assert rule.feature == "noise"


class TestTieBreaking:
    def test_equal_features_prefer_lowest_index(self):
        data = make_dataset(
            {"a": [0.0, 0.0, 1.0, 1.0], "b": [0.0, 0.0, 1.0, 1.0]},
            [0, 0, 1, 1])
        rule, _ = best_split(data)
        assert rule.feature == "a"

    def test_equal_cuts_prefer_lowest_threshold(self):
        # cuts at 0.5 and 2.5 both isolate one positive against a
        # (1, 2)-count side, so their impurities are bit-identical
        data = make_dataset({"x": [0.0, 1.0, 2.0, 3.0]}, [1, 0, 0, 1])
        rule, _ = best_split(data)
        assert rule.threshold == 0.5

    def test_equal_subsets_prefer_lexicographically_smallest(self):
        # {1} and {1, 2} isolate the same impurity; (1,) sorts first
        data = make_dataset(
            {"c": [1, 1, 2, 2, 3, 3]}, [1, 1, 1, 0, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        rule, _ = best_split(data)
        assert rule.subset == frozenset({1})

    # each case ties a subset with one whose mask comes first in the
    # evaluator's enumeration; blocks of 2 masks split them apart
    @pytest.mark.parametrize("block_bits", [12, 1])
    @pytest.mark.parametrize("codes, target, subset", [
        ([1, 2, 3, 3, 1, 2, 4, 5], [0, 1, 0, 0, 1, 1, 1, 0], {1, 2, 4}),
        ([2, 1, 2, 4, 3, 1], [1, 1, 0, 0, 1, 0], {1, 2, 3}),
        ([2, 3, 1, 3, 2, 4], [0, 1, 0, 1, 1, 0], {1, 2, 4}),
    ])
    def test_tied_subsets_order_by_code_tuple(self, monkeypatch, block_bits,
                                              codes, target, subset):
        monkeypatch.setattr(cart, "_BLOCK_BITS", block_bits)
        data = make_dataset({"c": codes}, target,
                            kinds={"c": CATEGORICAL}, levels={"c": 5})
        rule, _ = best_split(data)
        assert rule.subset == frozenset(subset)
        assert_agrees_with_oracle(data)

    def test_numeric_beats_categorical_only_by_position(self):
        columns_numeric_first = {
            "x": [0.0, 0.0, 1.0, 1.0],
            "c": [1, 1, 2, 2],
        }
        data = make_dataset(columns_numeric_first, [0, 0, 1, 1],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        rule, _ = best_split(data)
        assert rule.feature == "x"

        columns_categorical_first = {
            "c": [1, 1, 2, 2],
            "x": [0.0, 0.0, 1.0, 1.0],
        }
        data = make_dataset(columns_categorical_first, [0, 0, 1, 1],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        rule, _ = best_split(data)
        assert rule.feature == "c"


def assert_agrees_with_oracle(data):
    """best_split picks the oracle's decrease (bit for bit), feature,
    and threshold or code subset."""
    found = best_split(data)
    expected = brute_force_best_split(data)
    if expected is None:
        assert found is None
        return
    dec, feature, detail = expected
    rule, decrease = found
    assert decrease == dec  # bit-for-bit
    assert rule.feature == feature
    if rule.threshold is not None:
        assert rule.threshold == detail
    else:
        assert rule.subset == detail
        codes = {int(c) for c in data.column(feature)}
        assert rule.complement == frozenset(codes) - detail


def random_wide_categorical_dataset(rng, max_levels=12, max_rows=80):
    """Two categorical columns whose codes are sparse and partly
    negative, the wider with up to max_levels levels, plus a coarse
    numeric column."""
    n = int(rng.integers(5, max_rows + 1))
    m = int(rng.integers(2, max_levels + 1))
    wide = np.sort(rng.choice(np.arange(-60, 140), m, replace=False))
    narrow = np.array([-7, 0, 93])
    columns = {
        "w": rng.choice(wide, n).tolist(),
        "x": rng.integers(0, 3, n).astype(float).tolist(),
        "v": rng.choice(narrow, n).tolist(),
    }
    return make_dataset(columns, rng.integers(0, 2, n).tolist(),
                        kinds={"w": CATEGORICAL, "v": CATEGORICAL},
                        levels={"w": m, "v": 3})


class TestBruteForceAgreement:
    def test_exact_agreement_on_random_datasets(self):
        rng = np.random.default_rng(22)
        for _ in range(80):
            assert_agrees_with_oracle(random_mixed_dataset(rng))

    def test_wide_sparse_and_negative_codes(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            assert_agrees_with_oracle(random_wide_categorical_dataset(rng))

    def test_subsets_scored_across_several_blocks(self, monkeypatch):
        # blocks of 2**2 masks: a 12-level column spans 1024 blocks
        monkeypatch.setattr(cart, "_BLOCK_BITS", 2)
        rng = np.random.default_rng(29)
        for _ in range(20):
            assert_agrees_with_oracle(random_wide_categorical_dataset(rng))


class TestCartConfig:
    def test_min_node_size_capped_without_override(self):
        with pytest.raises(ConfigError):
            CartConfig(min_node_size=6)

    def test_override_lifts_cap(self):
        assert CartConfig(min_node_size=6,
                          allow_large_min_node=True).min_node_size == 6

    def test_bounds(self):
        with pytest.raises(ConfigError):
            CartConfig(min_node_size=0)
        with pytest.raises(ConfigError):
            CartConfig(max_depth=-1)
        with pytest.raises(ConfigError):
            CartConfig(mode="ternary")
        with pytest.raises(ConfigError):
            CartConfig(min_gini_decrease=-0.1)

    def test_zero_depth_means_root_leaf(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(max_depth=0))
        assert tree.nodes[0].is_leaf


class TestGrow:
    def test_recovers_staircase_exactly(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, [0, 0, 0, 1, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert tree.node_count() == 3
        assert tree.nodes[0].rule.threshold == 3.5
        classes, _ = predict_dataset(tree, data)
        assert classes.tolist() == [0, 0, 0, 1, 1, 1]

    def test_homogeneous_root_stays_leaf(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0]}, [1, 1, 1])
        tree = grow(data)
        assert tree.nodes[0].is_leaf
        assert tree.nodes[0].predicted_class == 1

    def test_min_node_size_stops_growth(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0]}, [0, 1, 0, 1])
        tree = grow(data, config=CartConfig(min_node_size=5))
        assert tree.nodes[0].is_leaf

    def test_max_depth_stops_growth(self):
        rng = np.random.default_rng(23)
        data = make_dataset({"x": rng.uniform(0, 1, 64).tolist()},
                            rng.integers(0, 2, 64).tolist())
        tree = grow(data, config=CartConfig(min_node_size=1, max_depth=2))
        assert tree.depth() <= 2

    def test_counts_and_proportions_recorded(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, [0, 0, 0, 1, 0, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert tree.nodes[0].counts == (4, 2)
        for node in tree.nodes:
            if node.is_leaf:
                assert node.positive_proportion == (
                    node.counts[1] / node.n)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(24)
        data = random_mixed_dataset(rng, max_rows=40)
        perm = rng.permutation(data.n)
        shuffled = data.select(perm.tolist())
        a = serialize(grow(data, config=CartConfig(min_node_size=1)))
        b = serialize(grow(shuffled, config=CartConfig(min_node_size=1)))
        assert a == b

    def test_midpoint_on_the_upper_value_makes_a_leaf(self):
        # the midpoint of these adjacent floats rounds onto the upper one,
        # which would send both rows left
        low = float(np.nextafter(1.0, 2.0))
        data = make_dataset({"x": [low, float(np.nextafter(low, 2.0))]},
                            [0, 1])
        config = CartConfig(min_node_size=1)
        tree = grow(data, config=config)
        assert tree.nodes[0].is_leaf
        assert json.loads(serialize(tree))["nodes"] == reference_grow(
            data, config)

    def test_leaf_tie_predicts_zero(self):
        data = make_dataset({"x": [1.0, 1.0]}, [0, 1])
        tree = grow(data)
        assert tree.nodes[0].predicted_class == 0


class TestRegressionMode:
    def test_leaf_means_and_variance_split(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0]}, [10.0, 10.0, 20.0, 20.0])
        tree = grow(data, config=CartConfig(mode=REGRESSION,
                                            min_node_size=1))
        assert tree.nodes[0].rule.threshold == 2.5
        fresh = make_dataset({"x": [1.5, 3.7]}, [None, None])
        assert predict_values(tree, fresh).tolist() == [10.0, 20.0]

    def test_constant_target_is_leaf(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0]}, [4.0, 4.0, 4.0])
        tree = grow(data, config=CartConfig(mode=REGRESSION))
        assert tree.nodes[0].is_leaf
        assert tree.nodes[0].mean == 4.0


class TestSerialization:
    def grown_tree(self, seed=25):
        rng = np.random.default_rng(seed)
        data = random_mixed_dataset(rng, max_rows=50)
        return grow(data, config=CartConfig(min_node_size=1)), data

    def test_round_trip_is_bit_exact(self):
        tree, data = self.grown_tree()
        text = serialize(tree)
        again = deserialize(text)
        assert serialize(again) == text
        c1, s1 = predict_dataset(tree, data)
        c2, s2 = predict_dataset(again, data)
        assert c1.tolist() == c2.tolist()
        assert s1.tolist() == s2.tolist()

    def test_thresholds_survive_at_full_precision(self):
        data = make_dataset({"x": [0.1, 0.2, 0.30000000000000004, 0.4]},
                            [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        again = deserialize(serialize(tree))
        assert again.nodes[0].rule.threshold == tree.nodes[0].rule.threshold

    def test_format_tag_present(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        assert doc["format"] == FORMAT_VERSION

    def test_unknown_version_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["format"] = "cart-model/999"
        with pytest.raises(VersionMismatchError):
            deserialize(json.dumps(doc))

    def test_missing_format_rejected(self):
        with pytest.raises(MalformedDocumentError):
            deserialize("{}")

    def test_non_json_rejected_with_position(self):
        with pytest.raises(MalformedDocumentError) as err:
            deserialize("{this is not json")
        assert "position" in str(err.value)

    def test_backward_child_reference_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        if doc["nodes"][0]["left"] is None:
            pytest.skip("grew a single leaf")
        doc["nodes"][1]["left"] = 0
        doc["nodes"][1]["right"] = 0
        with pytest.raises(MalformedDocumentError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [
        ("feature_index", 99),
        ("feature_index", -1),
        ("feature", "nonexistent"),
    ])
    def test_rule_outside_schema_rejected(self, field, value):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["nodes"][0][field] = value
        with pytest.raises(MalformedDocumentError, match="node 0"):
            deserialize(json.dumps(doc))

    def test_rule_kind_must_match_feature_kind(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0], "c": [1, 1, 2, 2]}, [0, 0, 1, 1],
            kinds={"c": CATEGORICAL}, levels={"c": 2})
        doc = json.loads(serialize(
            grow(data, config=CartConfig(min_node_size=1))))
        root = doc["nodes"][0]
        assert root["feature"] == "x"
        root.update(feature="c", feature_index=1)  # threshold on a code
        with pytest.raises(MalformedDocumentError, match="numeric rule on categorical"):
            deserialize(json.dumps(doc))
        root.update(feature="x", feature_index=0, threshold=None,
                    subset=[1], complement=[2])
        with pytest.raises(MalformedDocumentError, match="categorical rule on numeric"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("mode, field, value", [
        ("classification", "class", None),
        ("classification", "p1", None),
        ("classification", "p1", "0.5"),
        ("regression", "mean", None),
        ("regression", "mean", float("nan")),
    ])
    def test_leaf_without_its_number_rejected(self, mode, field, value):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        doc = json.loads(serialize(grow(data, config=CartConfig(
            min_node_size=1, mode=mode))))
        leaf = doc["nodes"][-1]
        assert leaf["left"] is None and leaf[field] is not None
        leaf[field] = value
        with pytest.raises(MalformedDocumentError,
                           match=f"node {len(doc['nodes']) - 1} .*{field}"):
            deserialize(json.dumps(doc))

    def test_orphan_node_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["nodes"].append({"n": 1, "counts": [1, 0], "left": None,
                             "right": None, "class": 0, "p1": 0.0,
                             "mean": None})
        with pytest.raises(MalformedDocumentError):
            deserialize(json.dumps(doc))

    def test_table_out_of_preorder_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        order = [0]  # breadth first: one tree, every child after its parent
        for i in order:
            if doc["nodes"][i]["left"] is not None:
                order += [doc["nodes"][i]["left"], doc["nodes"][i]["right"]]
        assert order != sorted(order)
        slot = {old: new for new, old in enumerate(order)}
        doc["nodes"] = [dict(doc["nodes"][old]) for old in order]
        for rec in doc["nodes"]:
            if rec["left"] is not None:
                rec["left"], rec["right"] = slot[rec["left"]], slot[rec["right"]]
        with pytest.raises(MalformedDocumentError, match="out of preorder"):
            deserialize(json.dumps(doc))

    def test_shared_child_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["nodes"][0]["right"] = doc["nodes"][0]["left"]
        with pytest.raises(MalformedDocumentError):
            deserialize(json.dumps(doc))

    def test_deserialize_accepts_wide_min_node_size(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["config"]["min_node_size"] = 50
        restored = deserialize(json.dumps(doc))
        assert restored.config.min_node_size == 50


class TestPredict:
    def test_schema_mismatch_refused(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        other = make_dataset({"z": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data)
        with pytest.raises(SchemaMismatchError):
            predict_dataset(tree, other)

    def test_unseen_category_routes_right_with_warning(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        tree = grow(data, config=CartConfig(min_node_size=1))
        fresh = make_dataset({"c": [3]}, [None],
                             kinds={"c": CATEGORICAL}, levels={"c": 3})
        with pytest.warns(UnseenCategoryWarning):
            predicted, _ = predict_dataset(tree, fresh)
        right_leaf = tree.nodes[tree.nodes[0].right]
        assert predicted.tolist() == [right_leaf.predicted_class]

    def test_scores_are_leaf_proportions(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, [0, 1, 0, 1, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1, max_depth=1))
        _, scores = predict_dataset(tree, data)
        for score in scores:
            assert 0.0 <= score <= 1.0

    def test_bulk_routing_matches_row_routing(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            data = random_mixed_dataset(rng)
            tree = grow(data, config=CartConfig(min_node_size=1))
            classes, scores = predict_dataset(tree, data)
            leaves = route_rows(json.loads(serialize(tree))["nodes"], data.X)
            assert classes.tolist() == [leaf["class"] for leaf in leaves]
            assert scores.tolist() == [leaf["p1"] for leaf in leaves]
        data = real_target_dataset()
        tree = grow(data, config=CartConfig(min_node_size=3, mode=REGRESSION))
        leaves = route_rows(json.loads(serialize(tree))["nodes"], data.X)
        assert predict_values(tree, data).tolist() == [
            leaf["mean"] for leaf in leaves]

    def test_unseen_category_warns_once_per_code(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 4})
        tree = grow(data, config=CartConfig(min_node_size=1))
        fresh = make_dataset({"c": [4, 3, 1, 3]}, [0, 0, 0, 0],
                             kinds={"c": CATEGORICAL}, levels={"c": 4})
        with pytest.warns(UnseenCategoryWarning) as caught:
            classes, _ = predict_dataset(tree, fresh)
        assert [str(w.message) for w in caught] == [
            "code 4 of 'c' never seen in training; routing right",
            "code 3 of 'c' never seen in training; routing right",
        ]
        right = tree.nodes[tree.nodes[0].right].predicted_class
        assert classes.tolist() == [right, right, 1, right]

    def test_missing_cell_on_routed_feature_names_row(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0], "z": [0.0] * 4},
                            [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        holey = make_dataset({"x": [1.0, 2.0, None, 4.0], "z": [0.0] * 4},
                             [0, 0, 1, 1])
        with pytest.raises(DataError, match="row 2 .*'x'"):
            predict_dataset(tree, holey)

    def test_missing_cell_on_unused_feature_still_scores(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0], "z": [0.0] * 4},
                            [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        holey = make_dataset({"x": [1.0, 2.0, 3.0, 4.0],
                              "z": [None, 0.0, None, 0.0]}, [0, 0, 1, 1])
        classes, _ = predict_dataset(tree, holey)
        assert classes.tolist() == [0, 0, 1, 1]

    def test_wrong_row_width_rejected(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data)
        wide = make_dataset({"x": [1.0], "z": [2.0]}, [None])
        with pytest.raises(SchemaMismatchError):
            predict_dataset(tree, wide)

    def test_mode_must_match(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="regression tree"):
            predict_values(grow(data), data)
        tree = grow(data, config=CartConfig(mode=REGRESSION))
        with pytest.raises(ValueError, match="classification tree"):
            predict_dataset(tree, data)


class TestRendering:
    def test_dot_output_shape(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        dot = export_dot(tree)
        assert dot.startswith("digraph")
        assert 'label="True"' in dot and 'label="False"' in dot
        assert dot.count("->") == 2

    def test_text_output_shape(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        text = export_text(tree)
        assert "x <= 2.5" in text
        assert "True:" in text and "False:" in text

    def test_renderings_are_deterministic(self):
        tree1, _ = TestSerialization().grown_tree(seed=26)
        tree2, _ = TestSerialization().grown_tree(seed=26)
        assert export_dot(tree1) == export_dot(tree2)
        assert export_text(tree1) == export_text(tree2)


class TestRuleDescribe:
    def test_numeric_description(self):
        rule = SplitRule("x", 0, threshold=2.5)
        assert rule.describe() == "x <= 2.5"

    def test_subset_description(self):
        rule = SplitRule("c", 1, subset=frozenset({2, 1}),
                         complement=frozenset({3}))
        assert rule.describe() == "c in {1, 2}"

    def test_rule_needs_exactly_one_kind(self):
        with pytest.raises(ValueError):
            SplitRule("x", 0)
        with pytest.raises(ValueError):
            SplitRule("x", 0, threshold=1.0, subset=frozenset({1}),
                      complement=frozenset({2}))


@given(st.integers(0, 2 ** 32 - 1))
def test_split_agreement_property(seed):
    """best_split matches the exhaustive oracle on arbitrary small
    mixed datasets."""
    rng = np.random.default_rng(seed)
    assert_agrees_with_oracle(
        random_mixed_dataset(rng, max_rows=25, max_features=3))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 8),
       st.sampled_from([0.0, 0.0, 0.01, 0.05]))
def test_tree_agreement_property(seed, min_node_size, max_depth, min_decrease):
    """Every node record of a grown tree matches a node-at-a-time
    recursion over the exhaustive split oracle."""
    rng = np.random.default_rng(seed)
    data = random_mixed_dataset(rng, max_rows=60, max_features=4,
                                max_levels=6)
    config = CartConfig(min_node_size=min_node_size, max_depth=max_depth,
                        min_gini_decrease=min_decrease)
    records = json.loads(serialize(grow(data, config=config)))["nodes"]
    assert records == reference_grow(data, config)


def test_grow_then_serialize_is_deterministic():
    rng1 = np.random.default_rng(27)
    rng2 = np.random.default_rng(27)
    a = serialize(grow(random_mixed_dataset(rng1)))
    b = serialize(grow(random_mixed_dataset(rng2)))
    assert a == b


def test_no_warning_for_seen_codes():
    data = make_dataset(
        {"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
        kinds={"c": CATEGORICAL}, levels={"c": 3})
    tree = grow(data, config=CartConfig(min_node_size=1))
    fresh = make_dataset({"c": [1, 2]}, [None, None],
                         kinds={"c": CATEGORICAL}, levels={"c": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict_dataset(tree, fresh)


def test_chain_deeper_than_the_recursion_limit():
    """Alternating labels on one numeric column peel one row off per
    split, so the tree is a chain of 1,199 rules."""
    n = 1200
    data = make_dataset({"x": [float(i) for i in range(n)]},
                        [i % 2 for i in range(n)])
    start = time.perf_counter()
    tree = grow(data, config=CartConfig(min_node_size=1, max_depth=2000))
    assert time.perf_counter() - start < 2.0  # 1,199 levels of one node
    assert tree.node_count() == 2 * n - 1
    assert tree.depth() == n - 1
    text = serialize(tree)
    assert serialize(deserialize(text)) == text
    assert export_dot(tree).count("->") == 2 * (n - 1)
    lines = export_text(tree).splitlines()
    assert len(lines) == 2 * n - 1
    assert max(len(line) - len(line.lstrip()) for line in lines) == 2 * (n - 1)
    classes, _ = predict_dataset(tree, data)
    assert classes.tolist() == [i % 2 for i in range(n)]


def noisy_classification_dataset(n=300, seed=31):
    """Planted rule over mixed columns with a fifth of the labels flipped."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0, 10, n), 1)
    k = rng.integers(0, 10, n).astype(float)
    c = rng.integers(1, 5, n)
    b = rng.integers(0, 2, n)
    h = rng.integers(1, 7, n)
    clean = ((x > 4.0) & np.isin(c, [2, 3])) | ((k < 3) & (h >= 4))
    y = np.where(rng.random(n) < 0.2, ~clean, clean).astype(int)
    return make_dataset(
        {"x": x.tolist(), "c": c.tolist(), "k": k.tolist(), "b": b.tolist(),
         "h": h.tolist()}, y.tolist(),
        kinds={"c": CATEGORICAL, "b": CATEGORICAL, "h": CATEGORICAL},
        levels={"c": 4, "b": 2, "h": 6})


def real_target_dataset(n=200, seed=32):
    """Real-valued target driven by sparse, partly negative codes."""
    rng = np.random.default_rng(seed)
    g = rng.choice([-5, 2, 7, 11, 100], n)
    s = rng.integers(0, 2, n)
    x = rng.normal(0.0, 1.0, n)
    effect = {-5: -1.5, 2: 0.25, 7: 0.3, 11: 2.0, 100: -0.1}
    y = (np.array([effect[v] for v in g.tolist()]) + 0.7 * s + 0.5 * x
         + rng.normal(0.0, 0.3, n))
    return make_dataset(
        {"g": g.tolist(), "x": x.tolist(), "s": s.tolist()}, y.tolist(),
        kinds={"g": CATEGORICAL, "s": CATEGORICAL}, levels={"g": 5, "s": 2})


# SHA-256 of serialize, export_dot and export_text, recorded before the
# split search was vectorised; regression trees depend on the order in
# which real-valued targets are summed.
GOLDEN = {
    "noisy-classification": (
        noisy_classification_dataset,
        CartConfig(min_node_size=1, max_depth=30),
        ("e670e85da30118e5f2b63dd8d2d5cb31578e97d188f1c7d6112e772b9c5e4d0c",
         "f392af522980d8934c266ea9a5f2720008802beda775e25ba9c81617ff5e2624",
         "bc93f56b757552129026b73d2599375af2fd1f3648bfcda79bd47afa5d32bc8e")),
    "real-target-regression": (
        real_target_dataset,
        CartConfig(min_node_size=3, max_depth=12, mode=REGRESSION),
        ("e8ba803c536a10ca6cc7a4a9ec0811e6d8ff414378b4104141938a4384b7d88a",
         "bed4b55c8e8f3662f3c73d47833b9a554f5c5325b254af56d3bbe088cb8a6249",
         "d1dd5e5bdd7a1baf79547fc5f2eb3a95c11b1eb05b6bfddd84c9a7554f6ba84b")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name):
    make, config, digests = GOLDEN[name]
    tree = grow(make(), config=config)
    found = tuple(hashlib.sha256(render(tree).encode()).hexdigest()
                  for render in (serialize, export_dot, export_text))
    assert found == digests
