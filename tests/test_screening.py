"""Logistic fitting, significance statistics, correlations, and the
two-pass variable screen."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from conftest import correlated_pair_dataset, make_dataset
from oracles import central_difference_gradient, chi_square_density_1df
from solvency.screening import (
    CONSTANT_ROW,
    REASON_CORRELATED,
    REASON_NOT_SIGNIFICANT,
    chi_square_sf_1df,
    correlation_text,
    fit_logistic,
    fit_logistic_xy,
    logistic_gradient,
    logistic_log_likelihood,
    pearson_matrix,
    per_variable_wald,
    screen,
    wald_rows_to_text,
    wald_table,
)
from solvency.errors import DataError, NumericError, SolvencyWarning


def seeded_logistic_data(seed, n=400, k=3, scale=1.0):
    """Features, target, and the true coefficients behind them."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, scale, (n, k))
    beta = rng.uniform(-1.2, 1.2, k)
    intercept = rng.uniform(-0.5, 0.5)
    eta = X @ beta + intercept
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return X, y, np.append(beta, intercept)


class TestIrls:
    def test_matches_quasi_newton_optimum(self):
        X, y, _ = seeded_logistic_data(0)
        names = ["x1", "x2", "x3"]
        fit = fit_logistic_xy(X, y, names)
        assert fit.converged

        design = np.column_stack([X, np.ones(X.shape[0])])

        def negative_ll(beta):
            eta = design @ beta
            return -float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        found = optimize.minimize(negative_ll, np.zeros(4), method="BFGS",
                                  options={"gtol": 1e-10})
        np.testing.assert_allclose(fit.coefficients, found.x,
                                   rtol=1e-5, atol=1e-6)

    def test_gradient_vanishes_at_optimum(self):
        X, y, _ = seeded_logistic_data(1)
        fit = fit_logistic_xy(X, y, ["a", "b", "c"])
        design = np.column_stack([X, np.ones(X.shape[0])])
        grad = logistic_gradient(design, y, fit.coefficients)
        assert float(np.max(np.abs(grad))) < 1e-6

    def test_gradient_matches_central_differences(self):
        X, y, _ = seeded_logistic_data(2, n=150)
        design = np.column_stack([X, np.ones(X.shape[0])])
        rng = np.random.default_rng(7)
        for _ in range(5):
            beta = rng.uniform(-0.8, 0.8, 4)
            analytic = logistic_gradient(design, y, beta)
            numeric = central_difference_gradient(
                lambda b: logistic_log_likelihood(design, y, b), beta)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5)

    def test_standard_errors_from_inverse_information(self):
        X, y, _ = seeded_logistic_data(3)
        fit = fit_logistic_xy(X, y, ["a", "b", "c"])
        design = np.column_stack([X, np.ones(X.shape[0])])
        p = 1.0 / (1.0 + np.exp(-(design @ fit.coefficients)))
        info = design.T @ (design * (p * (1.0 - p))[:, None])
        expected = np.sqrt(np.diag(np.linalg.inv(info)))
        np.testing.assert_allclose(fit.standard_errors, expected, rtol=1e-12)

    def test_recovers_known_coefficients(self):
        X, y, truth = seeded_logistic_data(4, n=2000)
        fit = fit_logistic_xy(X, y, ["a", "b", "c"])
        err = np.abs(fit.coefficients - truth)
        assert np.all(err <= 3.0 * fit.standard_errors)

    def test_monetary_scale_columns_fit(self):
        # raw credit-sized units must not trip the singularity guard
        rng = np.random.default_rng(8)
        income = rng.uniform(25_000, 250_000, 500)
        credit = rng.uniform(45_000, 1_000_000, 500)
        eta = -3e-5 * income + 4e-6 * credit
        y = (rng.random(500) < 1.0 / (1.0 + np.exp(-eta)))
        fit = fit_logistic_xy(np.column_stack([income, credit]),
                              y.astype(float), ["income", "credit"])
        assert fit.converged

    def test_duplicated_column_is_singular(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=200)
        X = np.column_stack([x, x])
        y = (rng.random(200) < 0.5).astype(float)
        with pytest.raises(NumericError, match=r"\(constant or duplicated"):
            fit_logistic_xy(X, y, ["a", "a_copy"])

    def test_constant_column_is_singular(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([rng.normal(size=200), np.full(200, 2.5)])
        y = (rng.random(200) < 0.5).astype(float)
        with pytest.raises(NumericError, match=r"\(constant or duplicated"):
            fit_logistic_xy(X, y, ["a", "const_col"])

    def test_separation_warns_and_flags(self):
        x = np.linspace(-2, 2, 80)
        y = (x > 0).astype(float)
        with pytest.warns(SolvencyWarning, match=re.escape(
                "coefficient magnitude exceeded 15.0; data look "
                "quasi-separated")):
            fit = fit_logistic_xy(x[:, None], y, ["x"])
        assert fit.separation

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            fit_logistic_xy(np.ones((3, 3)), np.array([0.0, 1.0, 0.0]),
                            ["a", "b", "c"])

    def test_dataset_entry_point(self):
        X, y, _ = seeded_logistic_data(5, n=60, k=2)
        data = make_dataset({"a": X[:, 0].tolist(), "b": X[:, 1].tolist()},
                            y.astype(int).tolist())
        fit = fit_logistic(data)
        assert fit.variables == ["a", "b"]
        assert len(fit.coefficients) == 3
        assert not fit.separation


class TestChiSquareSurvival:
    def test_matches_quadrature(self):
        for x in (0.05, 0.5, 1.0, 3.84, 10.56, 25.0):
            tail, _ = integrate.quad(chi_square_density_1df, x, np.inf)
            assert abs(chi_square_sf_1df(x) - tail) < 1e-9

    def test_canonical_alpha_point(self):
        # the 5% critical value of the one-degree chi-square
        assert abs(chi_square_sf_1df(3.841458820694124) - 0.05) < 1e-12

    def test_known_tail_value(self):
        assert abs(chi_square_sf_1df(10.56) - 0.00116) < 5e-6

    def test_boundaries(self):
        assert chi_square_sf_1df(0.0) == 1.0
        assert chi_square_sf_1df(1e9) == 0.0
        with pytest.raises(ValueError):
            chi_square_sf_1df(-0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_is_a_survival_function(self, x):
        v = chi_square_sf_1df(x)
        assert 0.0 <= v <= 1.0
        assert chi_square_sf_1df(x + 1.0) <= v


class TestWaldTable:
    def test_statistic_from_printed_style_coefficients(self):
        rows = wald_table(_fixed_fit(["v"], [0.429], [0.132]))
        assert abs(rows[0]["wald"] - 10.5625) < 1e-12
        assert abs(rows[0]["wald"] - 10.56) < 5e-3
        assert rows[0]["ddl"] == 1

    def test_second_printed_style_row(self):
        rows = wald_table(_fixed_fit(["v"], [-1.604], [0.165]))
        assert abs(rows[0]["wald"] - 94.49) < 2e-2

    def test_zero_coefficient_gives_unit_p_value(self):
        rows = wald_table(_fixed_fit(["v"], [0.0], [0.371]))
        assert rows[0]["wald"] == 0.0
        assert rows[0]["sig"] == 1.0

    def test_intercept_row_comes_last(self):
        rows = wald_table(_fixed_fit(["a", "b"], [0.5, -0.5], [0.1, 0.1],
                                     intercept=1.0, intercept_se=0.2))
        assert [r["variable"] for r in rows] == ["a", "b", CONSTANT_ROW]

    def test_invariant_under_label_flip(self):
        X, y, _ = seeded_logistic_data(11)
        names = ["a", "b", "c"]
        direct = wald_table(fit_logistic_xy(X, y, names))
        flipped = wald_table(fit_logistic_xy(X, 1.0 - y, names))
        for row_d, row_f in zip(direct, flipped):
            assert abs(row_d["B"] + row_f["B"]) < 1e-6
            np.testing.assert_allclose(row_d["wald"], row_f["wald"],
                                       rtol=1e-5, atol=1e-9)

    def test_text_rendering(self):
        rows = wald_table(_fixed_fit(["v"], [0.5], [0.25]))
        text = wald_rows_to_text(rows)
        lines = text.splitlines()
        assert lines[0] == "variable,B,SE,wald,ddl,sig"
        assert lines[1].startswith("v,0.5,0.25,4.0,1,")

    def test_per_variable_rows(self):
        X, y, _ = seeded_logistic_data(12, n=300, k=2)
        data = make_dataset({"a": X[:, 0].tolist(), "b": X[:, 1].tolist()},
                            y.astype(int).tolist())
        rows = per_variable_wald(data)
        assert [r["variable"] for r in rows] == ["a", "b"]
        lone = wald_table(fit_logistic(data, ["a"]))[0]
        assert rows[0] == lone


def _fixed_fit(names, coefficients, ses, intercept=0.0, intercept_se=1.0):
    from solvency.screening import LogisticFit
    return LogisticFit(
        variables=list(names),
        coefficients=np.array(list(coefficients) + [intercept]),
        standard_errors=np.array(list(ses) + [intercept_se]),
        iterations=1,
        converged=True,
    )


class TestPearson:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(13)
        cols = {name: rng.normal(size=50).tolist() for name in "abcd"}
        data = make_dataset(cols, rng.integers(0, 2, 50).tolist())
        corr = pearson_matrix(data)
        expected = np.corrcoef(data.feature_array().T)
        np.testing.assert_allclose(corr, expected, atol=1e-12)

    def test_exact_half_on_constructed_vectors(self):
        # ten 1s then ten 0s against a vector agreeing on 4 of the 1s:
        # covariance 0.1, variances 0.25 and 0.16, so r = 1/2 exactly
        x = [1.0] * 10 + [0.0] * 10
        y = [1.0] * 4 + [0.0] * 16
        data = make_dataset({"x": x, "y": y}, [0, 1] * 10)
        corr = pearson_matrix(data)
        assert corr[0, 1] == 0.5

    def test_diagonal_exactly_one_and_symmetric(self):
        rng = np.random.default_rng(14)
        data = make_dataset(
            {name: rng.normal(size=30).tolist() for name in "abc"},
            rng.integers(0, 2, 30).tolist())
        corr = pearson_matrix(data)
        assert np.all(np.diag(corr) == 1.0)
        assert np.array_equal(corr, corr.T)

    def test_perfectly_linear_columns_clip_to_unit(self):
        x = np.linspace(0, 1, 25)
        data = make_dataset({"x": x.tolist(), "y": (2 * x + 1).tolist(),
                             "z": (-x).tolist()},
                            [0, 1] * 12 + [0])
        corr = pearson_matrix(data)
        assert corr[0, 1] == 1.0
        assert corr[0, 2] == -1.0

    def test_zero_variance_named(self):
        data = make_dataset({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]},
                            [0, 1, 0])
        with pytest.raises(NumericError) as err:
            pearson_matrix(data)
        assert str(err.value) == "variable 'a' has zero variance"

    def test_text_quotes_names_and_round_trips_values(self):
        names = ["a", "b, c"]
        values = np.array([[1.0, 0.1 + 0.2], [0.1 + 0.2, 1.0]])
        lines = correlation_text(names, values).split("\n")
        assert lines[0] == ',a,"b, c"'
        assert lines[1].startswith("a,") and lines[2].startswith('"b, c",')
        assert lines[3:] == [""]
        assert float(lines[1].split(",")[-1]) == 0.1 + 0.2

    def test_pairs_iterate_upper_triangle_in_order(self):
        # (a, d) comes before (b, c) row by row, after it column by column
        names = ["a", "b", "c", "d"]
        corr = _corr(names, [("a", "d", 0.9), ("b", "c", 0.9)])
        outcome = screen(_rows({n: 0.001 for n in names}), corr)
        pairs = [(d["partner"], d["name"]) for d in outcome["dropped"]]
        assert pairs == [("a", "d"), ("b", "c")]


def _rows(sig_by_name):
    return [{"variable": name, "B": 0.3, "SE": 0.1, "wald": 9.0, "ddl": 1,
             "sig": sig} for name, sig in sig_by_name.items()]


def _corr(names, entries):
    values = np.eye(len(names))
    for a, b, r in entries:
        i, j = names.index(a), names.index(b)
        values[i, j] = values[j, i] = r
    return values


class TestScreen:
    def test_significance_pass_runs_first(self):
        names = ["a", "b", "c"]
        rows = _rows({"a": 0.01, "b": 0.40, "c": 0.002})
        corr = _corr(names, [("a", "c", 0.95)])
        outcome = screen(rows, corr)
        assert outcome["kept"] == ["a"]
        reasons = {d["name"]: d["reason"] for d in outcome["dropped"]}
        assert reasons == {"b": REASON_NOT_SIGNIFICANT,
                           "c": REASON_CORRELATED}

    def test_correlated_pair_drops_later_schema_member(self):
        names = ["a", "b"]
        rows = _rows({"a": 0.001, "b": 0.001})
        outcome = screen(rows, _corr(names, [("a", "b", 0.9)]))
        assert outcome["kept"] == ["a"]
        dropped = outcome["dropped"][0]
        assert dropped["name"] == "b" and dropped["partner"] == "a"
        assert dropped["r"] == 0.9

    def test_threshold_is_inclusive_on_magnitude(self):
        names = ["a", "b", "c"]
        rows = _rows({n: 0.001 for n in names})
        outcome = screen(rows, _corr(names, [("a", "b", -0.8),
                                             ("a", "c", 0.79)]))
        assert outcome["kept"] == ["a", "c"]

    def test_pair_skipped_when_earlier_member_already_gone(self):
        # b falls with a; the (b, c) pair is then moot and c survives
        names = ["a", "b", "c"]
        rows = _rows({n: 0.001 for n in names})
        outcome = screen(rows, _corr(names, [("a", "b", 0.97),
                                             ("b", "c", 0.92)]))
        assert outcome["kept"] == ["a", "c"]

    def test_alpha_boundary_keeps_exact_hits(self):
        names = ["a", "b"]
        rows = _rows({"a": 0.05, "b": 0.051})
        outcome = screen(rows, _corr(names, []))
        assert outcome["kept"] == ["a"]
        assert outcome["dropped"][0]["name"] == "b"

    def test_variable_sets_must_agree(self):
        rows = _rows({"a": 0.01})
        corr = _corr(["a", "b"], [])
        with pytest.raises(ValueError):
            screen(rows, corr)

    def test_non_square_matrix_refused(self):
        rows = _rows({"a": 0.01, "b": 0.01})
        with pytest.raises(ValueError, match="2 x 2"):
            screen(rows, np.zeros((2, 3)))

    def test_intercept_row_ignored(self):
        # a full table including the intercept line is accepted; the
        # intercept is never a screening candidate even when its
        # p-value is large
        rows = _rows({"a": 0.01}) + [
            {"variable": CONSTANT_ROW, "B": 1.0, "SE": 0.3, "wald": 11.1,
             "ddl": 1, "sig": 0.9}]
        outcome = screen(rows, _corr(["a"], []))
        assert outcome["kept"] == ["a"]
        assert outcome["dropped"] == []

    def test_planted_near_duplicates_eliminated(self):
        data = correlated_pair_dataset()
        names = data.schema.names
        corr = pearson_matrix(data)
        at = names.index
        assert abs(corr[at("AMT_CREDIT"), at("AMT_GOODS_PRICE")]
                   - 0.986) < 1e-9
        assert abs(corr[at("CNT_CHILDREN"), at("CNT_FAM_MEMBERS")]
                   - 0.888) < 1e-9
        rows = _rows({n: 0.001 for n in names})
        outcome = screen(rows, corr)
        assert set(outcome["kept"]) == {
            "CNT_CHILDREN", "AMT_INCOME_TOTAL", "AMT_CREDIT", "AMT_ANNUITY"}
        dropped = {d["name"]: d["partner"] for d in outcome["dropped"]}
        assert dropped == {"AMT_GOODS_PRICE": "AMT_CREDIT",
                           "CNT_FAM_MEMBERS": "CNT_CHILDREN"}


def test_pure_noise_variable_fails_the_gate_in_most_seeds():
    """A column unrelated to the target lands past the 0.05 level in
    nearly every seeded draw (chance sends it under now and then)."""
    flagged = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (400, 3))
        eta = 1.2 * X[:, 0] - 0.9 * X[:, 1]  # the third column is noise
        y = (rng.random(400) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic_xy(X, y, ["a", "b", "noise"])
        sig = {r["variable"]: r["sig"] for r in wald_table(fit)}
        if sig["noise"] > 0.05:
            flagged += 1
    assert flagged >= 18


def test_informative_independent_variables_all_kept():
    rng = np.random.default_rng(77)
    X = rng.normal(0.0, 1.0, (500, 3))
    eta = X @ np.array([1.1, -1.0, 0.9]) + 0.2
    y = (rng.random(500) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    names = ["a", "b", "c"]
    data = make_dataset({n: X[:, j].tolist() for j, n in enumerate(names)},
                        y.tolist())
    rows = [r for r in wald_table(fit_logistic(data))
            if r["variable"] != CONSTANT_ROW]
    outcome = screen(rows, pearson_matrix(data))
    assert outcome["kept"] == names
    assert outcome["dropped"] == []


def test_chi_square_quadrature_against_erfc_form():
    """Integrating the density from x to infinity reproduces the
    closed erfc form across magnitudes."""
    for x in np.linspace(0.01, 40.0, 25):
        tail, err = integrate.quad(chi_square_density_1df, x, np.inf)
        assert err < 1e-7
        assert abs(tail - math.erfc(math.sqrt(x / 2.0))) < 1e-9
