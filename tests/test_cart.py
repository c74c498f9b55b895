"""Tree growing: impurity arithmetic, split search, stopping rules,
serialization, and prediction."""

import hashlib
import json
import re
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from oracles import (
    _decrease,
    brute_force_best_split,
    gini_two_counts,
    ordered_scan_split,
    reference_grow,
    route_rows,
    tied_reference,
)
from solvency import cart
from solvency.cart import (
    FORMAT_VERSION,
    CartConfig,
    assign_leaf,
    best_split,
    deserialize,
    export_dot,
    export_text,
    grow,
    node_labels,
    predict_dataset,
    serialize,
)
from solvency.dataset import CATEGORICAL, Dataset, Schema
from solvency.errors import ConfigError, DataError, SolvencyWarning


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
        assert cart._impurity(7, 0) == 0.0
        assert cart._impurity(3, 3) == 0.0

    def test_even_node_is_exactly_half(self):
        for k in (1, 2, 10, 999):
            assert cart._impurity(2 * k, k) == 0.5

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
            assert abs(cart._impurity(c0 + c1, c1) - exact) < 1e-15

    def test_split_gini_is_weighted_average(self):
        # left (2, 2) and right (4, 0): (4 * 0.5 + 4 * 0.0) / 8 off parent
        assert cart._decrease(1.0, 8, 4, 2, 2) == 1.0 - 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_bounds_and_symmetry(self, c0, c1):
        if c0 + c1 == 0:
            return
        value = cart._impurity(c0 + c1, c1)
        assert 0.0 <= value <= 0.5
        # swapping classes reorders the subtractions, so only near-exact
        swapped = cart._impurity(c1 + c0, c0)
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
        assert rule == {"feature": "x", "feature_index": 0, "threshold": 2.5,
                        "subset": None, "complement": None}
        assert decrease == 0.5

    def test_threshold_is_midpoint_of_distinct_values(self):
        data = make_dataset({"x": [0.0, 0.0, 10.0, 10.0]}, [0, 0, 1, 1])
        rule, _ = best_split(data)
        assert rule["threshold"] == 5.0

    def test_categorical_subset_contains_smallest_code(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2, 3, 3]}, [1, 1, 0, 0, 1, 1],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        rule, decrease = best_split(data)
        assert rule == {"feature": "c", "feature_index": 0, "threshold": None,
                        "subset": [1, 3], "complement": [2]}
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
        assert rule["feature"] == "noise"


class TestTieBreaking:
    def test_equal_features_prefer_lowest_index(self):
        data = make_dataset(
            {"a": [0.0, 0.0, 1.0, 1.0], "b": [0.0, 0.0, 1.0, 1.0]},
            [0, 0, 1, 1])
        rule, _ = best_split(data)
        assert rule["feature"] == "a"

    def test_equal_cuts_prefer_lowest_threshold(self):
        # cuts at 0.5 and 2.5 both isolate one positive against a
        # (1, 2)-count side, so their impurities are bit-identical
        data = make_dataset({"x": [0.0, 1.0, 2.0, 3.0]}, [1, 0, 0, 1])
        rule, _ = best_split(data)
        assert rule["threshold"] == 0.5

    def test_equal_subsets_prefer_lexicographically_smallest(self):
        # {1} and {1, 2} isolate the same impurity; (1,) sorts first
        data = make_dataset(
            {"c": [1, 1, 2, 2, 3, 3]}, [1, 1, 1, 0, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        rule, _ = best_split(data)
        assert rule["subset"] == [1]

    # each case has two subsets of bit-equal decrease; the winner must
    # not depend on the order the rows arrive in
    @pytest.mark.parametrize("row_seed", [12, 1])
    @pytest.mark.parametrize("codes, target, subset", [
        ([1, 2, 3, 3, 1, 2, 4, 5], [0, 1, 0, 0, 1, 1, 1, 0], {1, 2, 4}),
        ([2, 1, 2, 4, 3, 1], [1, 1, 0, 0, 1, 0], {1, 2, 3}),
        ([2, 3, 1, 3, 2, 4], [0, 1, 0, 1, 1, 0], {1, 2, 4}),
    ])
    def test_tied_subsets_order_by_code_tuple(self, row_seed, codes, target,
                                              subset):
        order = np.random.default_rng(row_seed).permutation(len(codes))
        data = make_dataset({"c": [codes[i] for i in order]},
                            [target[i] for i in order],
                            kinds={"c": CATEGORICAL}, levels={"c": 5})
        rule, _ = best_split(data)
        assert rule["subset"] == sorted(subset)
        assert_agrees_with_oracle(data)

    def test_numeric_beats_categorical_only_by_position(self):
        columns_numeric_first = {
            "x": [0.0, 0.0, 1.0, 1.0],
            "c": [1, 1, 2, 2],
        }
        data = make_dataset(columns_numeric_first, [0, 0, 1, 1],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        rule, _ = best_split(data)
        assert rule["feature"] == "x"

        columns_categorical_first = {
            "c": [1, 1, 2, 2],
            "x": [0.0, 0.0, 1.0, 1.0],
        }
        data = make_dataset(columns_categorical_first, [0, 0, 1, 1],
                            kinds={"c": CATEGORICAL}, levels={"c": 2})
        rule, _ = best_split(data)
        assert rule["feature"] == "c"


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
    assert rule["feature"] == feature
    assert rule["feature_index"] == data.schema[feature].index
    if rule["threshold"] is not None:
        assert rule["threshold"] == detail
    else:
        assert rule["subset"] == sorted(detail)
        codes = {int(c) for c in data.column(feature)}
        assert rule["complement"] == sorted(codes - detail)


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

    def test_subsets_scored_across_several_blocks(self):
        # a block is a run of codes sharing one class-1 proportion; the
        # scan cuts only between blocks, never inside one
        rng = np.random.default_rng(29)
        for _ in range(20):
            assert_agrees_with_oracle(random_wide_categorical_dataset(rng))
        rng = np.random.default_rng(35)
        for _ in range(20):
            assert_agrees_with_oracle(random_tied_dataset(rng))


def planted_subset_dataset(levels, n=2000, seed=33):
    """n rows over every code 1..levels of one categorical column, whose
    target is 1 exactly for the codes of a random half; returns the
    dataset and the side of that split holding code 1."""
    rng = np.random.default_rng(seed)
    codes = np.arange(1, levels + 1)
    column = rng.permutation(np.resize(codes, n))
    ones = rng.choice(codes, levels // 2, replace=False)
    side = set(ones.tolist()) if 1 in ones else set(codes.tolist()) - set(
        ones.tolist())
    data = make_dataset({"c": column.tolist()},
                        np.isin(column, ones).astype(int).tolist(),
                        kinds={"c": CATEGORICAL}, levels={"c": levels})
    return data, side


def third_positive_dataset(sizes):
    """One categorical column whose code c + 1 holds 3 * sizes[c] rows,
    a third of them class 1: every code has the node's proportion."""
    codes, target = [], []
    for code, k in enumerate(sizes, start=1):
        codes += [code] * (3 * k)
        target += [1, 0, 0] * k
    return make_dataset({"c": codes}, target, kinds={"c": CATEGORICAL},
                        levels={"c": len(sizes)})


class TestOrderedScan:
    @pytest.mark.parametrize("levels", [30, 64])
    def test_wide_column_splits_in_bounded_time(self, levels):
        data, side = planted_subset_dataset(levels)
        start = time.perf_counter()
        rule, decrease = best_split(data)
        assert time.perf_counter() - start < 1.0
        assert rule["subset"] == sorted(side)
        assert rule["complement"] == sorted(set(range(1, levels + 1)) - side)
        c1 = float(data.y.sum())
        assert decrease == gini_two_counts(c1, data.n - c1, float(data.n))

    # every subset's exact decrease is 0, so the winner is decided by
    # rounding and then by the code tuple
    @pytest.mark.parametrize("sizes", [
        (1, 1, 1), (1, 2, 3), (2, 1, 1, 2), (3, 1, 4, 1, 5), (1,) * 7,
        (5, 1, 1), (1, 1, 5), (4, 4, 4, 4), (7, 2, 9, 1, 3),
        (2, 3, 1, 1, 2, 3, 1, 2, 3, 1),
    ])
    def test_codes_sharing_one_proportion_match_the_oracle(self, sizes):
        assert_agrees_with_oracle(third_positive_dataset(sizes))

    def test_forty_codes_sharing_one_proportion_in_bounded_time(self):
        sizes = np.random.default_rng(34).integers(1, 4, 40).tolist()
        data = third_positive_dataset(sizes)
        start = time.perf_counter()
        rule, decrease = best_split(data)
        assert time.perf_counter() - start < 1.0
        assert 1 in rule["subset"]
        assert sorted(rule["subset"] + rule["complement"]) == list(range(1, 41))
        y = data.binary_target().astype(float)
        c1 = float(y.sum())
        n = float(data.n)
        left = np.isin(data.X[:, 0], rule["subset"])
        assert decrease == _decrease(y, left, gini_two_counts(c1, n - c1, n),
                                     c1, n - c1, n)


class TestCartConfig:
    def test_min_node_size_has_no_cap(self):
        """A min_node_size above the rows grown on is kept and stops
        the root from splitting; only a size below 1 is refused."""
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=6))
        assert tree.config.min_node_size == 6
        assert tree.feature.tolist() == [-1]

    def test_bounds(self):
        with pytest.raises(ConfigError):
            CartConfig(min_node_size=0)
        with pytest.raises(ConfigError):
            CartConfig(max_depth=-1)
        with pytest.raises(ConfigError):
            CartConfig(min_gini_decrease=-0.1)

    def test_zero_depth_means_root_leaf(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(max_depth=0))
        assert tree.feature.tolist() == [-1]


class TestGrow:
    def test_recovers_staircase_exactly(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, [0, 0, 0, 1, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert tree.node_count() == 3
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == 3.5
        classes, _ = predict_dataset(tree, data)
        assert classes.tolist() == [0, 0, 0, 1, 1, 1]

    def test_zero_rows_refused(self):
        with pytest.raises(DataError, match="^cannot grow a tree on 0 rows$"):
            grow(make_dataset({"x": []}, []))

    def test_homogeneous_root_stays_leaf(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0]}, [1, 1, 1])
        tree = grow(data)
        assert tree.feature.tolist() == [-1]
        assert assign_leaf(tree.counts[0])[0] == 1

    def test_min_node_size_stops_growth(self):
        data = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0]}, [0, 1, 0, 1])
        tree = grow(data, config=CartConfig(min_node_size=5))
        assert tree.feature.tolist() == [-1]

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
        assert tree.counts[0].tolist() == [4, 2]
        for i in np.flatnonzero(tree.feature < 0):
            c0, c1 = tree.counts[i].tolist()
            assert assign_leaf(tree.counts[i])[1] == c1 / (c0 + c1)

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
        assert tree.feature.tolist() == [-1]
        assert json.loads(serialize(tree))["nodes"] == reference_grow(
            data, config)

    def test_leaf_tie_predicts_zero(self):
        data = make_dataset({"x": [1.0, 1.0]}, [0, 1])
        tree = grow(data)
        assert assign_leaf(tree.counts[0])[0] == 0


def deeper_code_dataset():
    """The root splits on x; its left child splits on c and holds codes
    1 and 2 only, while code 3 is in training on the right."""
    return make_dataset(
        {"x": [1.0] * 6 + [9.0] * 18, "c": [1, 1, 1, 2, 2, 2] + [1, 2, 3] * 6},
        [1, 1, 1, 0, 0, 0] + [1] * 18, kinds={"c": CATEGORICAL},
        levels={"c": 3})


#: Leaf fields set to values outside the format, with the ids these
#: cases have always been reported under.
LEAF_VALUES = [
    ("class", None),
    ("p1", None),
    ("p1", "0.5"),
    ("class", 0.5),
    ("class", 7),
    ("class", True),
    ("p1", 1.5),
    ("p1", float("nan")),
]


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

    def test_config_round_trips(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        config = CartConfig(min_node_size=9, max_depth=3,
                            min_gini_decrease=0.01)
        tree = grow(data, config=config)
        assert deserialize(serialize(tree)).config == tree.config == config

    def test_thresholds_survive_at_full_precision(self):
        data = make_dataset({"x": [0.1, 0.2, 0.30000000000000004, 0.4]},
                            [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        again = deserialize(serialize(tree))
        assert again.threshold[0] == tree.threshold[0]

    def test_format_tag_present(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        assert doc["format"] == FORMAT_VERSION

    def test_unknown_version_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["format"] = "cart-model/999"
        with pytest.raises(DataError, match="^expected 'cart-model/1', "
                                            "found 'cart-model/999'$"):
            deserialize(json.dumps(doc))

    def test_missing_format_rejected(self):
        with pytest.raises(DataError, match="^missing format field$"):
            deserialize("{}")

    def stump_doc(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        return json.loads(serialize(grow(data, config=CartConfig(
            min_node_size=1))))

    @pytest.mark.parametrize("text", ["[]", "1", '"model"', "null"])
    def test_root_that_is_no_object_rejected(self, text):
        with pytest.raises(DataError,
                           match="^document root must be an object$"):
            deserialize(text)

    @pytest.mark.parametrize("key", [
        "config", "schema", "n_training_rows", "nodes"])
    def test_missing_section_rejected(self, key):
        doc = self.stump_doc()
        del doc[key]
        with pytest.raises(DataError, match=f"^missing {key} field$"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("nodes", [{}, []], ids=["object", "empty"])
    def test_nodes_not_a_nonempty_list_rejected(self, nodes):
        doc = self.stump_doc()
        doc["nodes"] = nodes
        with pytest.raises(DataError, match="^nodes must be a nonempty list$"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("nodes, message", [
        (lambda n: ["x"], "node 0 is not an object"),
        (lambda n: [dict(n[0], right=1), n[1]], "node 1 referenced twice"),
        (lambda n: [{k: v for k, v in n[0].items() if k != "n"}, *n[1:]],
         "node 0: 'n'"),
    ], ids=["not-object", "twice", "no-n"])
    def test_malformed_node_table_rejected(self, nodes, message):
        doc = self.stump_doc()
        doc["nodes"] = nodes(doc["nodes"])
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            deserialize(json.dumps(doc))

    def test_non_json_rejected_with_position(self):
        with pytest.raises(DataError, match="^not valid JSON ") as err:
            deserialize("{this is not json")
        assert "position" in str(err.value)

    def test_backward_child_reference_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        if doc["nodes"][0]["left"] is None:
            pytest.skip("grew a single leaf")
        doc["nodes"][1]["left"] = 0
        doc["nodes"][1]["right"] = 0
        with pytest.raises(DataError,
                           match="^node 1 child index 0 out of range$"):
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
        with pytest.raises(DataError, match="node 0"):
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
        with pytest.raises(DataError, match="numeric rule on categorical"):
            deserialize(json.dumps(doc))
        root.update(feature="x", feature_index=0, threshold=None,
                    subset=[1], complement=[2])
        with pytest.raises(DataError, match="categorical rule on numeric"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("field, value", LEAF_VALUES, ids=[
        f"classification-{field}-{value}" for field, value in LEAF_VALUES])
    def test_leaf_without_its_number_rejected(self, field, value):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        doc = json.loads(serialize(grow(data, config=CartConfig(
            min_node_size=1))))
        leaf = doc["nodes"][-1]
        assert leaf["left"] is None and leaf[field] is not None
        leaf[field] = value
        with pytest.raises(DataError,
                           match=f"node {len(doc['nodes']) - 1} .*{field}"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("node, field, value", [
        (0, "threshold", float("nan")),
        (0, "threshold", float("inf")),
        (0, "threshold", "2e5"),
        (1, "subset", "12"),
        (1, "subset", [1.0]),
        (1, "complement", [3.5]),
        (1, "complement", 2),
    ])
    def test_rule_values_outside_the_format_rejected(self, node, field,
                                                     value):
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        doc["nodes"][node][field] = value
        with pytest.raises(DataError, match=f"node {node} .*{field}"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("field, codes", [
        ("subset", [1, 1]),
        ("subset", [3, 1]),
        ("complement", [4, 2]),
        ("complement", [2, 2 ** 53 + 1]),
        ("subset", [-2 ** 53 - 1, 1]),
        ("complement", [2, 2 ** 70]),
    ], ids=["repeated", "descending", "descending-complement",
            "past-2**53", "below--2**53", "2**70"])
    def test_code_lists_serialize_would_rewrite_rejected(self, field, codes):
        """Only a strictly ascending list of codes within 2**53 is written
        back as the file held it, and only such codes can meet a cell."""
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        doc["nodes"][1][field] = codes
        with pytest.raises(DataError, match=(
                f"^node 1 is a rule whose '{field}' is "
                + re.escape(f"{codes}, not strictly ascending codes within "
                            "2**53") + "$")):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("fields, message", [
        ({"subset": []}, "node 1: categorical rule needs nonempty sides"),
        ({"complement": []}, "node 1: categorical rule needs nonempty sides"),
        ({"complement": [1, 2]}, "node 1: subset and complement overlap"),
    ], ids=["empty-subset", "empty-complement", "overlap"])
    def test_sides_that_cannot_route_rejected(self, fields, message):
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        doc["nodes"][1].update(fields)
        with pytest.raises(DataError, match=f"^{message}$"):
            deserialize(json.dumps(doc))

    def test_codes_at_2_to_the_53_load_and_route(self):
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        doc["nodes"][1].update(subset=[-2 ** 53, 1], complement=[2, 2 ** 53])
        text = json.dumps(doc)
        tree = deserialize(text)
        assert tree.codes.tolist() == [-2 ** 53, 1, 2, 2 ** 53]
        assert serialize(tree) == text + "\n"
        fresh = make_dataset({"x": [1.0, 1.0], "c": [2 ** 53, -2 ** 53]},
                             [None] * 2, kinds={"c": CATEGORICAL},
                             levels={"c": 3})
        assert predict_dataset(tree, fresh)[0].tolist() == [0, 1]

    @pytest.mark.parametrize("node, field, value", [
        (0, "n", float("inf")),
        (0, "threshold", 10 ** 400),
    ], ids=["n-inf", "threshold-1e400"])
    def test_numbers_past_float_range_rejected(self, node, field, value):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        doc = json.loads(serialize(grow(data, config=CartConfig(
            min_node_size=1))))
        doc["nodes"][node][field] = value
        with pytest.raises(DataError, match=f"node {node}"):
            deserialize(json.dumps(doc))

    def test_whole_floats_written_as_ints_load(self):
        tree = grow(deeper_code_dataset(), config=CartConfig(min_node_size=1))
        text = serialize(tree)
        nodes = json.loads(text)["nodes"]
        assert nodes[0]["threshold"] == 5 and nodes[2]["p1"] == 1
        assert type(nodes[0]["threshold"]) is type(nodes[2]["p1"]) is int
        assert serialize(deserialize(text)) == text

    @pytest.mark.parametrize("value", [
        '"abc"', "null", "[24]", "1e400", "24.0", "true", '"24"'])
    def test_bad_n_training_rows_rejected(self, value):
        text = serialize(grow(deeper_code_dataset(),
                              config=CartConfig(min_node_size=1)))
        assert '"n_training_rows": 24,' in text
        with pytest.raises(DataError, match="n_training_rows"):
            deserialize(text.replace('"n_training_rows": 24,',
                                     f'"n_training_rows": {value},'))

    @pytest.mark.parametrize("node, field, value", [
        (0, "n", '"24"'),
        (0, "n", "true"),
        (0, "n", "24.0"),
        (0, "n", "24.5"),
        (0, "counts", '["6", 18]'),
        (0, "counts", "[6, 18.0]"),
        (0, "counts", "[6, 18, 0]"),
        (0, "counts", "[24]"),
        (0, "counts", '"12"'),
        (0, "counts", "null"),
        (3, "counts", "{}"),
        (0, "feature_index", "0.5"),
        (0, "feature_index", "0.0"),
        (1, "feature_index", "true"),
    ])
    def test_numbers_that_are_not_json_integers_rejected(self, node, field,
                                                         value):
        """int() would read each as a count or an index; serialize would
        then not give back the document it came from."""
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        doc["nodes"][node][field] = json.loads(value)
        with pytest.raises(DataError, match=f"node {node} "):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("edits, message", [
        ({4: {"n": 0, "counts": [0, 0]}}, "node 4 has n 0 "),
        ({4: {"n": -5}}, "node 4 has n -5 "),
        ({0: {"counts": [-1, 25]}}, r"node 0 has n 24 and counts \[-1, 25\]"),
        ({0: {"counts": [3, 20]}}, r"node 0 has n 24 and counts \[3, 20\]"),
        ({0: {"counts": [4, 20]}},
         r"node 0 has counts \[4, 20\], where its children have \[3, 3\] "
         r"and \[0, 18\]"),
        ({1: {"n": 7, "counts": [4, 3]}, 3: {"n": 4, "counts": [4, 0]}},
         r"node 0 has counts \[3, 21\], where its children have \[4, 3\]"),
        ({4: {"class": 0}}, "node 4 is a leaf whose class and p1 are 0 and 1,"
                            r" where its counts \[0, 18\] give \(1, 1.0\)"),
        ({2: {"p1": 0.9}}, "node 2 is a leaf whose class and p1 are 1 and "
                           "0.9"),
        ({3: {"counts": [2, 1]}}, "node 3 is a leaf whose class and p1 are 0 "
                                  "and 0"),
    ], ids=["zero-n", "negative-n", "negative-count", "counts-not-summing",
            "root-counts", "child-counts", "flipped-class", "other-p1",
            "leaf-counts"])
    def test_counts_that_contradict_the_tree_rejected(self, edits, message):
        """A record's counts must be those of n rows, the sum of its
        children's, and, at a leaf, give its class and p1."""
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        for node, fields in edits.items():
            doc["nodes"][node].update(fields)
        with pytest.raises(DataError, match=message):
            deserialize(json.dumps(doc))

    @staticmethod
    def leaf_of(n, ones):
        """A one-leaf model of n training rows, ones of them class 1."""
        doc = json.loads(serialize(grow(make_dataset({"x": [1.0]}, [0]))))
        c, p1 = assign_leaf([n - ones, ones])
        doc["n_training_rows"] = n
        doc["nodes"][0].update({"n": n, "counts": [n - ones, ones],
                                "class": c, "p1": p1})
        return json.dumps(doc)

    def test_n_of_2_to_the_53_loads_and_scores_exactly(self):
        n = 2 ** 53
        tree = deserialize(self.leaf_of(n, n - 1))
        assert tree.counts.tolist() == [[1, n - 1]]
        classes, scores = predict_dataset(tree, make_dataset({"x": [5.0]},
                                                             [None]))
        assert classes.tolist() == [1]
        assert scores.tolist() == [(n - 1) / n]

    def test_n_above_2_to_the_53_rejected(self):
        n = 2 ** 53 + 1
        with pytest.raises(DataError,
                           match=f"^node 0 has n {n}, above 2\\*\\*53$"):
            deserialize(self.leaf_of(n, 1))

    @pytest.mark.parametrize("value", [23, 25, -3])
    def test_n_training_rows_other_than_the_root_n_rejected(self, value):
        text = serialize(grow(deeper_code_dataset(),
                              config=CartConfig(min_node_size=1)))
        with pytest.raises(DataError,
                           match=f"n_training_rows is {value}, where the "
                                 "root holds 24 rows"):
            deserialize(text.replace('"n_training_rows": 24,',
                                     f'"n_training_rows": {value},'))

    @pytest.mark.parametrize("section, field, value", [
        ("config", "min_node_size", '"1"'),
        ("config", "min_node_size", "1.0"),
        ("config", "max_depth", "true"),
        ("config", "max_depth", "10.5"),
        ("config", "min_gini_decrease", '"0"'),
        ("config", "min_gini_decrease", "1e400"),
        ("config", "mode", '["classification"]'),
        ("feature", "levels", '"3"'),
        ("feature", "levels", "3.0"),
        ("feature", "name", "1"),
        ("feature", "kind", '"ordinal"'),
        ("schema", "target", "null"),
    ])
    def test_header_values_of_the_wrong_type_rejected(self, section, field,
                                                      value):
        doc = json.loads(serialize(grow(deeper_code_dataset(),
                                        config=CartConfig(min_node_size=1))))
        where = {"config": doc["config"], "schema": doc["schema"],
                 "feature": doc["schema"]["features"][1]}[section]
        where[field] = json.loads(value)
        part = "config" if section == "config" else "schema"
        with pytest.raises(DataError, match=f"bad {part} section"):
            deserialize(json.dumps(doc))

    def test_orphan_node_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["nodes"].append({"n": 1, "counts": [1, 0], "left": None,
                             "right": None, "class": 0, "p1": 0.0,
                             "mean": None})
        with pytest.raises(DataError,
                           match="^node list is not a single tree$"):
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
        with pytest.raises(DataError, match="out of preorder"):
            deserialize(json.dumps(doc))

    def test_shared_child_rejected(self):
        tree, _ = self.grown_tree()
        doc = json.loads(serialize(tree))
        doc["nodes"][0]["right"] = doc["nodes"][0]["left"]
        with pytest.raises(DataError, match="is out of preorder$"):
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
        with pytest.raises(DataError, match="^dataset schema differs from "
                                            "the tree's training schema: "
                                            "feature 0 is 'z'"):
            predict_dataset(tree, other)

    @pytest.mark.parametrize("columns, target, message", [
        ({"x": [1.0], "z": [2.0]}, "TARGET",
         "feature 1 is 'z' (numeric) in the data and absent in the tree"),
        ({"z": [1.0]}, "TARGET",
         "feature 0 is 'z' (numeric) in the data and 'x' (numeric) in the "
         "tree"),
        ({"x": [1.0]}, "y",
         "the target is 'y' in the data and 'TARGET' in the tree"),
    ], ids=["extra-feature", "renamed-feature", "renamed-target"])
    def test_schema_mismatch_names_the_difference(self, columns, target,
                                                  message):
        tree = grow(make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1]))
        other = make_dataset(columns, [None])
        if target != "TARGET":
            other = Dataset(Schema(other.schema.features, target), other.X,
                            other.y)
        with pytest.raises(DataError, match=(
                "^dataset schema differs from the tree's training schema: "
                + re.escape(message) + "$")):
            predict_dataset(tree, other)

    def test_unseen_category_routes_right_with_warning(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        tree = grow(data, config=CartConfig(min_node_size=1))
        fresh = make_dataset({"c": [3]}, [None],
                             kinds={"c": CATEGORICAL}, levels={"c": 3})
        with pytest.warns(SolvencyWarning, match="^code 3 of 'c' is absent "
                          "from the training rows of node 0; routing right$"):
            predicted, _ = predict_dataset(tree, fresh)
        right = assign_leaf(tree.counts[tree.right[0]])[0]
        assert predicted.tolist() == [right]

    def test_refusal_names_the_row_number(self):
        tree = grow(make_dataset({"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
                                 kinds={"c": CATEGORICAL}, levels={"c": 2}),
                    config=CartConfig(min_node_size=1))
        fresh = make_dataset({"c": [1, 2, None, 1.5]}, [0, 0, 0, 0],
                             kinds={"c": CATEGORICAL}, levels={"c": 2})
        with pytest.raises(DataError, match="^row 2 has no value for "
                                            "feature 'c', which the tree "
                                            "routes on$"):
            predict_dataset(tree, fresh.select([3, 2]))
        with pytest.raises(DataError, match=re.escape(
                "row 3 holds 1.5 in categorical feature 'c', which is not "
                "a whole number within 2**53")):
            predict_dataset(tree, fresh.select([0, 3]))

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
            records = json.loads(serialize(tree))["nodes"]
            leaves, error, unseen = route_rows(records, data.X)
            assert error is None and unseen == {}
            assert classes.tolist() == [records[i]["class"] for i in leaves]
            assert scores.tolist() == [records[i]["p1"] for i in leaves]

    def test_unseen_category_warns_once_per_code(self):
        data = make_dataset(
            {"c": [1, 1, 2, 2]}, [1, 1, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 4})
        tree = grow(data, config=CartConfig(min_node_size=1))
        fresh = make_dataset({"c": [4, 3, 1, 3]}, [0, 0, 0, 0],
                             kinds={"c": CATEGORICAL}, levels={"c": 4})
        with pytest.warns(SolvencyWarning, match="routing right$") as caught:
            classes, _ = predict_dataset(tree, fresh)
        assert [str(w.message) for w in caught] == [
            "code 4 of 'c' is absent from the training rows of node 0; "
            "routing right",
            "code 3 of 'c' is absent from the training rows of node 0; "
            "routing right",
        ]
        right = assign_leaf(tree.counts[tree.right[0]])[0]
        assert classes.tolist() == [right, right, 1, right]

    def test_code_absent_from_a_deeper_node_names_that_node(self):
        tree = grow(deeper_code_dataset(), config=CartConfig(min_node_size=1))
        assert tree.feature[:2].tolist() == [0, 1]  # x, then c
        assert 3 not in tree.codes[tree.side[1] > 0]
        fresh = make_dataset({"x": [9.0, 1.0, 1.0], "c": [3, 3, 3]},
                             [None] * 3, kinds={"c": CATEGORICAL},
                             levels={"c": 3})
        with pytest.warns(SolvencyWarning, match="routing right$") as caught:
            classes, _ = predict_dataset(tree, fresh)
        assert [str(w.message) for w in caught] == [
            "code 3 of 'c' is absent from the training rows of node 1; "
            "routing right"]
        assert classes.tolist() == [1, 0, 0]

    def test_unseen_codes_warn_by_first_row_then_node(self):
        """A code met at a deep node in an early row and at a shallow
        node in a later one is named at the first; warnings follow the
        rows that first met their codes."""
        data = make_dataset(
            {"a": [1] * 8 + [2] * 8,
             "b": [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 2, 2]},
            [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
            kinds={"a": CATEGORICAL, "b": CATEGORICAL},
            levels={"a": 2, "b": 2})
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert tree.feature.tolist() == [1, 0, -1, -1, 0, -1, -1]  # b; a, a
        fresh = make_dataset({"a": [7, 1, 7], "b": [2, 9, 1]}, [None] * 3,
                             kinds={"a": CATEGORICAL, "b": CATEGORICAL},
                             levels={"a": 2, "b": 2})
        with pytest.warns(SolvencyWarning, match="routing right$") as caught:
            predict_dataset(tree, fresh)
        assert [str(w.message) for w in caught] == [
            f"code {code} of {name!r} is absent from the training rows of "
            f"node {node}; routing right"
            for code, name, node in ((7, "a", 4), (9, "b", 0))]

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
        with pytest.raises(DataError, match="^dataset schema differs from "
                                            "the tree's training schema: "
                                            "feature 1 is 'z'"):
            predict_dataset(tree, wide)


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
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert node_labels(tree)[0] == ("x <= 2.5", "n=4 counts=(2, 2)")

    def test_subset_description(self):
        data = make_dataset(
            {"x": [0.0] * 6, "c": [2, 2, 1, 1, 3, 3]}, [1, 1, 1, 1, 0, 0],
            kinds={"c": CATEGORICAL}, levels={"c": 3})
        tree = grow(data, config=CartConfig(min_node_size=1))
        assert tree.feature[0] == 1 and tree.side[0].tolist() == [1, 1, 2]
        assert node_labels(tree)[0] == ("c in {1, 2}", "n=6 counts=(2, 4)")

    def test_rule_needs_exactly_one_kind(self):
        """A rule record holds a threshold or a subset and complement:
        one with neither, or a threshold beside codes, is refused."""
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [0, 0, 1, 1])
        text = serialize(grow(data, config=CartConfig(min_node_size=1)))
        for fields in ({"threshold": None},
                       {"subset": [1], "complement": [2]},
                       {"complement": [2]}):
            doc = json.loads(text)
            doc["nodes"][0].update(fields)
            with pytest.raises(DataError, match="^node 0"):
                deserialize(json.dumps(doc))


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


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_loaded_tree_renders_and_predicts_as_grown(seed, min_node_size):
    """deserialize(serialize(t)) holds t's node table: it holds the same
    counts, schema and config, renders the same bytes and predicts the
    same arrays."""
    rng = np.random.default_rng(seed)
    data = random_mixed_dataset(rng, max_rows=40)
    tree = grow(data, config=CartConfig(min_node_size=min_node_size))
    loaded = deserialize(serialize(tree))
    assert loaded.counts.dtype == tree.counts.dtype
    assert loaded.counts.shape == tree.counts.shape
    assert loaded.counts.tolist() == tree.counts.tolist()
    assert loaded.schema == tree.schema
    assert loaded.config == tree.config
    for render in (serialize, export_dot, export_text):
        assert render(loaded) == render(tree)
    pairs = zip(predict_dataset(tree, data), predict_dataset(loaded, data))
    for grown, again in pairs:
        assert grown.dtype == again.dtype
        assert grown.tolist() == again.tolist()


def mutated_rows(rng, data, rows=30):
    """Rows drawn from data's, whose cells are at a random rate made
    missing, moved off a whole number, pushed past 2**53 or, in a
    categorical column, replaced by a code the column may never hold."""
    X = data.X[rng.integers(0, data.n, rows)]
    rate = rng.choice([0.0, 0.01, 0.03, 0.1])
    X[rng.random(X.shape) < rate / 3] = np.nan
    X[rng.random(X.shape) < rate / 3] += 0.5
    X[rng.random(X.shape) < rate / 3] = 2.0 ** 60
    rate = rng.choice([0.0, 0.1, 0.3])
    for spec in data.schema.features:
        if spec.kind == CATEGORICAL:
            hit = rng.random(rows) < rate
            X[hit, spec.index] = rng.integers(-2, 9, int(hit.sum()))
    return Dataset(data.schema, X, np.full(rows, np.nan))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_router_matches_row_by_row_reference_property(seed, min_node_size):
    """On rows with missing cells, values that are not whole and codes no
    node saw, the router gives the reference router's leaves and warnings,
    or the DataError naming the node and row it stops at."""
    rng = np.random.default_rng(seed)
    data = random_mixed_dataset(rng, max_rows=40)
    tree = grow(data, config=CartConfig(min_node_size=min_node_size))
    fresh = mutated_rows(rng, data)
    records = json.loads(serialize(tree))["nodes"]
    leaves, error, unseen = route_rows(records, fresh.X)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found, message = cart._leaf_index(tree, fresh).tolist(), None
        except DataError as exc:
            message = str(exc)
    if error is None:
        assert message is None and found == leaves
        names = tree.schema.names
        assert [str(w.message) for w in caught] == [
            f"code {code} of {names[j]!r} is absent from the training rows "
            f"of node {i}; routing right"
            for (j, code), (_, i) in sorted(unseen.items(),
                                            key=lambda item: item[1])]
    else:
        node, kind, row = error
        rec = records[node]
        value = float(fresh.X[row, rec["feature_index"]])
        assert message == (
            f"row {row} has no value for feature {rec['feature']!r}, which "
            "the tree routes on" if kind == 0 else
            f"row {row} holds {value!r} in categorical feature "
            f"{rec['feature']!r}, which is not a whole number within 2**53")
        assert caught == []


#: Class-1 and class-0 rows of the blocks tied codes are built from.
RATIOS = [(1, 1), (1, 2), (2, 1), (0, 1), (1, 0), (1, 3)]


def random_tied_dataset(rng, max_levels=10):
    """A categorical column of up to max_levels sparse, partly negative
    codes that share one to three class-1 proportions, beside a narrow
    categorical and a coarse numeric column."""
    m = int(rng.integers(2, max_levels + 1))
    codes = np.sort(rng.choice(np.arange(-30, 70), m, replace=False))
    ratios = rng.choice(len(RATIOS), int(rng.integers(1, 4)), replace=False)
    column, target = [], []
    for code in codes.tolist():
        ones, zeros = RATIOS[rng.choice(ratios)]
        k = int(rng.integers(1, 4))
        column += [code] * (k * (ones + zeros))
        target += [1] * (k * ones) + [0] * (k * zeros)
    n = len(target)
    order = rng.permutation(n)
    columns = {
        "t": np.array(column)[order].tolist(),
        "v": rng.choice([-7, 0, 93], n).tolist(),
        "x": rng.integers(0, 3, n).astype(float).tolist(),
    }
    return make_dataset(columns, np.array(target)[order].tolist(),
                        kinds={"t": CATEGORICAL, "v": CATEGORICAL},
                        levels={"t": m, "v": 3})


@given(st.integers(0, 2 ** 32 - 1))
def test_tied_categorical_agreement_property(seed):
    """best_split matches the exhaustive oracle on wide categorical
    columns whose codes share proportions, all of them or in groups."""
    assert_agrees_with_oracle(
        random_tied_dataset(np.random.default_rng(seed)))


def test_tied_matches_the_table_reference():
    """_tied's bitset subset sums give the boolean-table reference's
    decrease, bit for bit, and left ranks, on random code counts that
    share one class-1 proportion or not, in nodes of up to ~90k rows."""
    rng = np.random.default_rng(41)
    for trial in range(300):
        levels = int(rng.integers(2, 13))
        most = 100_000 // levels if trial % 7 == 0 else 40
        count = rng.integers(1, most, levels)
        count[rng.random(levels) < 0.3] = 0  # ranks absent from the node
        if trial % 2:  # every code holds class-1 rows in one ratio
            ones, zeros = RATIOS[trial % 3]
            count -= count % (ones + zeros)
            c1 = count.sum() // (ones + zeros) * ones
        else:
            c1 = rng.integers(1, max(2, count.sum()))
        if np.count_nonzero(count) < 2:
            continue
        n, c1 = np.intp(count.sum()), float(c1)
        parent = cart._impurity(float(n), c1)
        dec, left = cart._LevelScorer._tied(count.astype(float), parent, n,
                                            c1)
        want_dec, want_left = tied_reference(count, parent, int(n), c1)
        assert dec == want_dec
        assert left.tolist() == want_left.tolist()


def random_many_level_dataset(rng):
    """One categorical column of 20 to 300 sparse, partly negative
    codes, one to six rows each, every code drawing its targets at one
    of a few class-1 rates, so proportions tie.  In half the examples
    the last half of the codes mirror the first with the classes
    swapped, so mirrored cuts often tie in decrease."""
    m = int(rng.integers(20, 301))
    half = m // 2 if rng.random() < 0.5 else 0
    codes = rng.choice(np.arange(-500, 1000), m, replace=False)
    sizes = rng.integers(1, 7, m)
    ones = rng.binomial(sizes, rng.choice(
        [0.0, 0.25, 0.5, 0.75, 1.0, rng.random()], m))
    sizes[m - half:] = sizes[:half]
    ones[m - half:] = sizes[:half] - ones[:half]
    column = np.repeat(codes, sizes)
    target = np.concatenate([np.arange(s) < k for s, k in zip(sizes, ones)])
    order = rng.permutation(column.shape[0])
    return make_dataset({"c": column[order].tolist()},
                        target[order].astype(int).tolist(),
                        kinds={"c": CATEGORICAL}, levels={"c": m})


@given(st.integers(0, 2 ** 32 - 1))
def test_many_level_split_matches_the_ordered_scan_reference(seed):
    """best_split on one column of 20 to 300 codes, too many for the
    exhaustive oracle, matches a cut-by-cut ordered scan bit for bit.
    Codes that all share one proportion are left to the exhaustive and
    _tied properties."""
    data = random_many_level_dataset(np.random.default_rng(seed))
    expected = ordered_scan_split(data.X[:, 0], data.binary_target())
    assume(expected is not None)
    rule, decrease = best_split(data)
    assert decrease == expected[0]  # bit-for-bit
    assert rule["subset"] == list(expected[1])
    codes = {int(c) for c in data.X[:, 0]}
    assert rule["complement"] == sorted(codes - set(expected[1]))


def test_many_level_grow_traces_little_memory():
    """The ordered scan's memory follows the level count, not its
    square: a deep tree over three 150-level columns traces a peak
    under 16 MB, where a levels x levels subset mask per (node, column)
    pair would reach about 65."""
    rng = np.random.default_rng(61)
    n, levels = 5000, 150
    columns = {"x": rng.random(n).round(3).tolist()}
    for name in "abc":
        columns[name] = rng.integers(1, levels + 1, n).tolist()
    signal = (np.array(columns["a"]) % 3 == 0) ^ (np.array(columns["x"]) > 0.5)
    target = (signal ^ (rng.random(n) < 0.2)).astype(int).tolist()
    data = make_dataset(columns, target,
                        kinds=dict.fromkeys("abc", CATEGORICAL),
                        levels=dict.fromkeys("abc", levels))
    tracemalloc.start()
    try:
        grow(data, config=CartConfig(min_node_size=1, max_depth=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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


# SHA-256 of serialize, export_dot and export_text, recorded before the
# split search was vectorised.
GOLDEN = {
    "noisy-classification": (
        noisy_classification_dataset,
        CartConfig(min_node_size=1, max_depth=30),
        ("e670e85da30118e5f2b63dd8d2d5cb31578e97d188f1c7d6112e772b9c5e4d0c",
         "f392af522980d8934c266ea9a5f2720008802beda775e25ba9c81617ff5e2624",
         "bc93f56b757552129026b73d2599375af2fd1f3648bfcda79bd47afa5d32bc8e")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name):
    make, config, digests = GOLDEN[name]
    tree = grow(make(), config=config)
    found = tuple(hashlib.sha256(render(tree).encode()).hexdigest()
                  for render in (serialize, export_dot, export_text))
    assert found == digests


def escaped_names_dataset():
    """Feature and target names that JSON must escape (a quote, a
    backslash, non-ASCII letters), a numeric column whose midpoints are
    negative whole numbers, and labels a depth-3 tree sorts purely."""
    rng = np.random.default_rng(41)
    n = 80
    a = rng.choice([-6, -4, -2, 0, 2], n)
    c = rng.integers(1, 4, n)
    x = np.round(rng.uniform(-1, 1, n), 2)
    y = ((a <= -3) ^ np.isin(c, [1, 3])) | (x > 0.8)
    data = make_dataset(
        {'say "hi"': a.tolist(), "back\\slash": c.tolist(),
         "\u00c5lder": x.tolist()}, y.astype(int).tolist(),
        kinds={"back\\slash": CATEGORICAL}, levels={"back\\slash": 3})
    return Dataset(Schema(data.schema.features, "m\u00e5l"), data.X, data.y)


# SHA-256 of serialize, recorded while it still walked each record as a
# dict, and a fragment of the text each case is there to pin.
SERIALIZED = {
    "escaped-names": (
        escaped_names_dataset, CartConfig(min_node_size=1, max_depth=3),
        ('"say \\"hi\\""', '"back\\\\slash"', '"\\u00c5lder"',
         '"m\\u00e5l"', '"threshold": -3,', '"p1": 0,', '"p1": 1,'),
        "292a7425d050d6589fd6ecbed0a705ae05e16fe243549111ed6cc293a724cf5b"),
    "int-config": (
        noisy_classification_dataset,
        CartConfig(min_node_size=2, max_depth=4, min_gini_decrease=10 ** 17),
        ('"min_gini_decrease": 100000000000000000,',),
        "a0cabc77aaf0f4956e58f7bb23f366337328720f96dad6bd7e0d9030bc67ae84"),
    # Recorded while grow still partitioned its lists by offsets.  The
    # widest depth of the first holds 372 nodes; in the second, 273
    # children of one depth may split, so that level's lists are sorted
    # on a uint16 key.
    "wide-levels": (
        lambda: noisy_classification_dataset(n=5000),
        CartConfig(min_node_size=1, max_depth=64),
        ('"n_training_rows": 5000,',),
        "30fa8335faa3a5a3e8a71d3d43732e23a70b6a3246dccef5412095e56fa28e01"),
    "uint16-key": (
        lambda: noisy_classification_dataset(n=7000),
        CartConfig(min_node_size=1, max_depth=64),
        ('"n_training_rows": 7000,',),
        "68b9cb1e53d2cd5cfd2a2ece456e4f8c1b839b4641cce5dde9883441896d39a4"),
}


@pytest.mark.parametrize("name", sorted(SERIALIZED))
def test_serialize_matches_recorded_digest(name):
    make, config, fragments, digest = SERIALIZED[name]
    text = serialize(grow(make(), config=config))
    assert [f for f in fragments if f not in text] == []
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert serialize(deserialize(text)) == text
