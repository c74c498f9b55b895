"""Confusion counts, error rates, ROC sweeps and the Hanley-McNeil
uncertainty around the area under the curve."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mann_whitney_auc, roc_reference
from solvency.errors import DataError
from solvency.evaluation import (
    REPORT_FIELDS,
    auc_se_ci,
    confusion,
    error_rates,
    metrics,
    report_json,
    report_table,
    roc,
    roc_dump,
)


class TestConfusionMatrix:
    def test_totals(self, solvency_confusion):
        cm = solvency_confusion
        assert sum(cm.values()) == 3988
        assert cm["vp"] + cm["fn"] == 1996
        assert cm["vn"] + cm["fp"] == 1992

    def test_all_zero_rejected(self):
        # a table over no rows holds neither class, so nothing is
        # computed from it
        zero = {"vp": 0, "vn": 0, "fp": 0, "fn": 0}
        with pytest.raises(DataError, match="both classes .* for rates$"):
            error_rates(zero)
        with pytest.raises(DataError, match="both classes .* for metrics$"):
            metrics(zero)

    def test_tally_from_vectors(self):
        actual = [1, 1, 1, 0, 0, 0, 1, 0]
        predicted = [1, 0, 1, 0, 1, 0, 0, 0]
        cm = confusion(actual, predicted)
        assert cm == {"vp": 2, "vn": 3, "fp": 1, "fn": 2}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_non_binary_values(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])
        with pytest.raises(ValueError):
            confusion([1, 0], [1, 0.5])

    def test_empty(self):
        with pytest.raises(DataError, match="^no rows to evaluate$"):
            confusion([], [])


class TestErrorRates:
    def test_exact_fractions(self, solvency_confusion):
        rates = error_rates(solvency_confusion)
        assert rates["e1"] == 621 / 1996
        assert rates["e2"] == 517 / 1992
        assert rates["e3"] == 1138 / 3988

    def test_rational_oracle(self, solvency_confusion):
        rates = error_rates(solvency_confusion)
        assert math.isclose(rates["e1"], Fraction(621, 1996), rel_tol=1e-15)
        assert math.isclose(rates["e2"], Fraction(517, 1992), rel_tol=1e-15)
        assert math.isclose(rates["e3"], Fraction(1138, 3988), rel_tol=1e-15)

    def test_degenerate_class(self):
        with pytest.raises(DataError, match="both classes .* for rates$"):
            error_rates({"vp": 3, "vn": 0, "fp": 0, "fn": 2})
        with pytest.raises(DataError, match="both classes .* for rates$"):
            error_rates({"vp": 0, "vn": 3, "fp": 2, "fn": 0})


class TestMetrics:
    def test_exact_fractions(self, solvency_confusion):
        mets = metrics(solvency_confusion)
        assert mets["accuracy"] == 2850 / 3988
        assert mets["sensitivity"] == 1375 / 1996
        assert mets["specificity"] == 1475 / 1992

    def test_complementarity_with_rates(self, solvency_confusion):
        rates = error_rates(solvency_confusion)
        mets = metrics(solvency_confusion)
        assert abs(mets["sensitivity"] - (1.0 - rates["e1"])) < 1e-15
        assert abs(mets["specificity"] - (1.0 - rates["e2"])) < 1e-15
        assert abs(mets["accuracy"] - (1.0 - rates["e3"])) < 1e-15

    def test_degenerate_class(self):
        with pytest.raises(DataError, match="both classes .* for metrics$"):
            metrics({"vp": 3, "vn": 0, "fp": 0, "fn": 2})


class TestRocSweep:
    def test_perfect_separation(self):
        curve = roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve["auc"] == 1.0
        assert curve["points"] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]

    def test_reversed_scores(self):
        curve = roc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1])
        assert curve["auc"] == 0.0

    def test_constant_scores_give_diagonal(self):
        curve = roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert curve["points"] == [(0.0, 0.0), (1.0, 1.0)]
        assert curve["auc"] == 0.5

    def test_tie_group_collapses_to_one_step(self):
        # the two 0.8 rows move diagonally in a single step
        curve = roc([1, 0, 1, 0], [0.8, 0.8, 0.6, 0.2])
        assert curve["points"] == [
            (0.0, 0.0), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
        assert curve["auc"] == 0.625
        assert mann_whitney_auc([1, 0, 1, 0], [0.8, 0.8, 0.6, 0.2]) == 0.625

    def test_hard_labels_give_balanced_accuracy(self, solvency_confusion):
        cm = solvency_confusion
        actual = ([1] * cm["vp"] + [1] * cm["fn"]
                  + [0] * cm["vn"] + [0] * cm["fp"])
        scores = ([1.0] * cm["vp"] + [0.0] * cm["fn"]
                  + [0.0] * cm["vn"] + [1.0] * cm["fp"])
        curve = roc(actual, scores)
        mets = metrics(cm)
        expected = (mets["sensitivity"] + mets["specificity"]) / 2.0
        assert abs(curve["auc"] - expected) < 1e-12
        assert curve["auc"] == pytest.approx(0.7146698014502901, abs=1e-15)

    def test_matches_pairwise_ranking_on_random_ties(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            n = int(rng.integers(4, 80))
            actual = rng.integers(0, 2, n)
            if actual.min() == actual.max():
                actual[0] = 1 - actual[0]
            # coarse grid forces plenty of tied scores
            scores = rng.integers(0, 6, n) / 5.0
            curve = roc(actual, scores)
            assert abs(curve["auc"] - mann_whitney_auc(actual, scores)) < 1e-9

    def test_score_out_of_range(self):
        for bad in (1.2, -0.1, float("nan"), float("inf")):
            with pytest.raises(DataError, match=r"scores must lie inside"):
                roc([0, 1], [0.5, bad])

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="^ROC needs both classes"):
            roc([1, 1, 1], [0.1, 0.5, 0.9])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^no rows for the ROC sweep$"):
            roc([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc([0, 1], [0.5])


    def test_actual_class_outside_0_1_refused(self):
        with pytest.raises(ValueError) as err:
            roc([0, 2], [0.5, 0.5])
        assert str(err.value) == "actual values must all be 0 or 1"

class TestAucUncertainty:
    def hanley_mcneil(self, auc, n1, n0):
        # same published formula, spelled independently
        q1 = auc / (2.0 - auc)
        q2 = (2.0 * auc ** 2) / (1.0 + auc)
        num = (auc * (1.0 - auc) + (n1 - 1.0) * (q1 - auc ** 2)
               + (n0 - 1.0) * (q2 - auc ** 2))
        return math.sqrt(num / (n1 * n0))

    def test_against_formula_re_spelling(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            auc = float(rng.uniform(0.0, 1.0))
            n1 = int(rng.integers(1, 5000))
            n0 = int(rng.integers(1, 5000))
            se, (low, high) = auc_se_ci(auc, n1, n0)
            assert se == pytest.approx(self.hanley_mcneil(auc, n1, n0),
                                       rel=1e-12)
            assert low == max(0.0, auc - 1.96 * se)
            assert high == min(1.0, auc + 1.96 * se)

    def test_frozen_study_sized_value(self):
        se, (low, high) = auc_se_ci(0.7146698014502901, 1996, 1992)
        assert se == pytest.approx(0.008082346508283824, abs=1e-18)
        assert low == pytest.approx(0.7146698014502901 - 1.96 * se,
                                    abs=1e-15)
        assert 0.0 < low < high < 1.0

    def test_boundary_aucs_have_zero_se(self):
        for auc in (0.0, 1.0):
            se, (low, high) = auc_se_ci(auc, 10, 10)
            assert se == 0.0
            assert (low, high) == (auc, auc)

    def test_interval_clipping(self):
        se, (low, high) = auc_se_ci(0.5, 1, 1)
        assert se == 0.5
        assert (low, high) == (0.0, 1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            auc_se_ci(1.5, 10, 10)
        with pytest.raises(ValueError):
            auc_se_ci(-0.1, 10, 10)
        with pytest.raises(DataError, match="at least one row of each class"):
            auc_se_ci(0.5, 0, 10)


class TestReports:
    def build(self, solvency_confusion):
        cm = solvency_confusion
        rates = error_rates(cm)
        mets = metrics(cm)
        curve = roc([0, 0, 1, 1], [0.1, 0.6, 0.4, 0.9])
        return cm, rates, mets, curve

    def test_json_round_trip(self, solvency_confusion):
        cm, rates, mets, curve = self.build(solvency_confusion)
        doc = json.loads(report_json(cm, rates, mets, curve))
        assert tuple(doc) == REPORT_FIELDS
        assert doc["vp"] == 1375 and doc["fn"] == 621
        assert doc["e1"] == rates["e1"]
        assert doc["accuracy"] == mets["accuracy"]
        assert doc["auc"] == curve["auc"]
        assert doc["auc_ci_high"] == curve["auc_ci_high"]

    def test_json_is_deterministic(self, solvency_confusion):
        cm, rates, mets, curve = self.build(solvency_confusion)
        assert report_json(cm, rates, mets, curve) == report_json(
            cm, rates, mets, curve)

    def test_table_contents(self, solvency_confusion):
        cm, rates, mets, curve = self.build(solvency_confusion)
        table = report_table(cm, rates, mets, curve)
        assert "predicted 0" in table
        assert f"{rates['e1']:.8f}" in table
        assert f"{curve['auc']:.8f}" in table
        assert table.endswith("\n")

    def test_roc_dump_round_trips_floats(self):
        curve = roc([1, 0, 1, 0], [0.8, 0.8, 0.6, 0.2])
        lines = roc_dump(curve).splitlines()
        assert len(lines) == len(curve["points"])
        for line, (x, y) in zip(lines, curve["points"]):
            sx, sy = line.split("\t")
            assert float(sx) == x and float(sy) == y


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)),
                min_size=2, max_size=60))
def test_roc_curve_properties(rows):
    """Any sweep starts at (0,0), ends at (1,1), never steps backwards,
    and its area agrees with the pairwise ranking probability."""
    actual = [a for a, _ in rows]
    if len(set(actual)) < 2:
        return
    scores = [s / 8.0 for _, s in rows]
    curve = roc(actual, scores)
    assert curve["points"][0] == (0.0, 0.0)
    assert curve["points"][-1] == (1.0, 1.0)
    for (x0, y0), (x1, y1) in zip(curve["points"], curve["points"][1:]):
        assert x1 >= x0 and y1 >= y0
    assert 0.0 <= curve["auc"] <= 1.0
    assert abs(curve["auc"] - mann_whitney_auc(actual, scores)) < 1e-9
    assert curve["auc_ci_low"] <= curve["auc"] <= curve["auc_ci_high"]


@st.composite
def scored_rows(draw):
    """Classes and scores in [0, 1]: many ties, no ties, or the same
    class mix at every distinct score."""
    shape = draw(st.sampled_from(["ties", "distinct", "mixed"]))
    if shape == "mixed":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12,
                               unique=True))
        cell = [1] * draw(st.integers(1, 3)) + [0] * draw(st.integers(1, 3))
        actual = cell * len(values)
        scores = [v for v in values for _ in cell]
    else:
        values = (st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
                  if shape == "ties" else st.floats(0.0, 1.0))
        scores = draw(st.lists(values, min_size=2, max_size=80,
                               unique=shape == "distinct"))
        actual = draw(st.lists(st.integers(0, 1), min_size=len(scores),
                               max_size=len(scores)))
    order = draw(st.permutations(range(len(scores))))
    return [actual[i] for i in order], [scores[i] for i in order]


@given(scored_rows())
def test_roc_matches_the_row_by_row_sweep(rows):
    """Every point and the area equal the reference sweep's, bit for
    bit."""
    actual, scores = rows
    if len(set(actual)) < 2:
        return
    points, area = roc_reference(actual, scores)
    curve = roc(actual, scores)
    assert curve["points"] == points
    assert all(type(x) is float and type(y) is float
               for x, y in curve["points"])
    assert curve["auc"] == area
