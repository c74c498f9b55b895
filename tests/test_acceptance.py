"""Release gate: ten end-to-end checks, one test function each.

Each function exercises a reference fixture or a statistical property
at its stated tolerance; `pytest -v tests/test_acceptance.py` prints
one pass/fail line per check.
"""

import json
import os
import time
from itertools import combinations

import numpy as np

from conftest import (
    NOT_SIGNIFICANT_NAMES,
    correlated_pair_dataset,
    make_dataset,
)
from oracles import (
    brute_force_best_split,
    central_difference_gradient,
    mann_whitney_auc,
)
from solvency.cart import (
    CartConfig,
    _impurity,
    best_split,
    grow,
    predict_dataset,
)
from solvency.cli import main
from solvency.dataset import CATEGORICAL
from solvency.evaluation import auc_se_ci, error_rates, metrics, roc
from solvency.screening import (
    chi_square_sf_1df,
    fit_logistic_xy,
    logistic_gradient,
    logistic_log_likelihood,
    pearson_matrix,
    screen,
)
from solvency.synth import planted_labels


def test_01_error_rates_from_reference_confusion_matrix(solvency_confusion):
    """VP=1375, VN=1475, FP=517, FN=621 reproduce the three error rates
    at print precision and the headline accuracy band."""
    started = time.perf_counter()
    rates = error_rates(solvency_confusion)
    mets = metrics(solvency_confusion)
    assert abs(rates["e1"] - 0.31112224) < 5e-7
    assert abs(rates["e2"] - 0.25953815) < 5e-7
    assert abs(rates["e3"] - 0.285356) < 5e-7
    assert 0.714 <= mets["accuracy"] <= 0.715
    assert 0.688 <= mets["sensitivity"] <= 0.690
    assert 0.740 <= mets["specificity"] <= 0.741
    assert time.perf_counter() - started < 1.0


def test_02_hard_label_roc_auc_and_uncertainty(solvency_confusion):
    """Hard 0/1 scores realizing the same matrix put the AUC at the
    reported level and its Hanley-McNeil error near 0.008."""
    started = time.perf_counter()
    cm = solvency_confusion
    actual = ([1] * cm["vp"] + [1] * cm["fn"]
              + [0] * cm["vn"] + [0] * cm["fp"])
    scores = ([1.0] * cm["vp"] + [0.0] * cm["fn"]
              + [0.0] * cm["vn"] + [1.0] * cm["fp"])
    curve = roc(actual, scores)
    assert 0.714 <= curve["auc"] <= 0.716
    se, _ = auc_se_ci(curve["auc"], 1996, 1992)
    assert 0.006 <= se <= 0.010
    assert curve["auc_se"] == se
    assert time.perf_counter() - started < 1.0


def test_03_wald_statistics_consistent_with_printed_table(
        significance_table):
    """Every significant row's printed Wald statistic is reachable from
    its three-decimal coefficient and standard error within the 2%
    slack, and exactly the two known rows sit past the 0.05 gate.

    Reachability is checked over the half-ulp rounding boxes of the
    printed values: the monetary rows print B and SE as 0.000, so any
    nonnegative ratio is consistent with them, and two rows (education,
    housing) only agree once rounding of B and SE is taken into
    account (their literal ratios sit 2.62% and 2.31% off).
    """
    h = 5e-4  # half of the last printed decimal place
    for name, b, se, wald, printed_sig in significance_table:
        # the printed p-value column follows from the printed statistic
        assert abs(chi_square_sf_1df(wald) - printed_sig) < 1e-3, name
        if name in NOT_SIGNIFICANT_NAMES:
            continue
        if b == 0.0:
            assert se == 0.0 and wald > 0.0
            continue
        lo = ((abs(b) - h) / (se + h)) ** 2
        hi = ((abs(b) + h) / (se - h)) ** 2
        assert lo <= 1.02 * wald and hi >= 0.98 * wald, name
    flagged = {name for name, _, _, wald, _ in significance_table
               if chi_square_sf_1df(wald) > 0.05}
    assert flagged == NOT_SIGNIFICANT_NAMES


def test_04_correlation_screen_drops_redundant_partners():
    """On data planted with r=0.986 and r=0.888 pairs (all other
    |r| < 0.5), screening at threshold 0.8 removes exactly the two
    later-declared partners."""
    data = correlated_pair_dataset()
    names = data.schema.names
    corr = pearson_matrix(data)
    at = names.index
    assert abs(corr[at("AMT_CREDIT"), at("AMT_GOODS_PRICE")] - 0.986) < 1e-9
    assert abs(corr[at("CNT_CHILDREN"), at("CNT_FAM_MEMBERS")] - 0.888) < 1e-9
    planted = ({"AMT_CREDIT", "AMT_GOODS_PRICE"},
               {"CNT_CHILDREN", "CNT_FAM_MEMBERS"})
    for i, j in combinations(range(len(names)), 2):
        a, b, r = names[i], names[j], corr[i, j]
        if {a, b} not in planted:
            assert abs(r) < 0.5, (a, b)
    rows = [{"variable": n, "B": 1.0, "SE": 0.2, "wald": 25.0, "ddl": 1,
             "sig": 0.001} for n in names]
    outcome = screen(rows, corr, alpha=0.05, r_threshold=0.8)
    dropped = {d["name"] for d in outcome["dropped"]}
    assert dropped == {"AMT_GOODS_PRICE", "CNT_FAM_MEMBERS"}
    assert set(outcome["kept"]) == set(names) - dropped


def _random_split_case(rng):
    """n <= 200 rows, <= 5 features, categorical modalities <= 5."""
    n = int(rng.integers(5, 201))
    k = int(rng.integers(1, 6))
    columns, kinds, levels = {}, {}, {}
    for j in range(k):
        name = f"f{j}"
        if rng.random() < 0.5:
            span = int(rng.integers(2, 9))
            columns[name] = rng.integers(0, span, n).astype(float).tolist()
        else:
            m = int(rng.integers(2, 6))
            kinds[name] = CATEGORICAL
            levels[name] = m
            low = 0 if m == 2 else 1
            columns[name] = rng.integers(low, m + (low == 1), n).tolist()
    return make_dataset(columns, rng.integers(0, 2, n).tolist(),
                        kinds=kinds, levels=levels)


def test_05_split_search_matches_exhaustive_oracle():
    """500 randomized datasets: the production split search returns the
    oracle's impurity decrease bit-for-bit and the same rule under the
    tie-break order, in every case."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    agreements = 0
    for _ in range(500):
        data = _random_split_case(rng)
        found = best_split(data)
        expected = brute_force_best_split(data)
        if expected is None:
            assert found is None
            agreements += 1
            continue
        decrease_oracle, feature, detail = expected
        rule, decrease = found
        assert decrease == decrease_oracle
        assert rule["feature"] == feature
        if rule["threshold"] is not None:
            assert rule["threshold"] == detail
        else:
            assert rule["subset"] == sorted(detail)
        agreements += 1
    assert agreements == 500
    assert time.perf_counter() - started < 60.0


def test_06_gini_identity_and_exact_anchors():
    """The complement form 1 - p1^2 - p0^2 equals 2*p1*p0 within 1e-12
    on 10,000 random class distributions; pure and balanced nodes hit
    0 and 0.5 exactly."""
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        n = int(rng.integers(1, 10_001))
        c1 = int(rng.integers(0, n + 1))
        c0 = n - c1
        value = _impurity(n, c1)
        p1 = c1 / n
        p0 = c0 / n
        assert abs(value - 2.0 * p1 * p0) < 1e-12
    for k in (1, 3, 17, 1996):
        assert _impurity(k, 0) == 0.0
        assert _impurity(k, k) == 0.0
        assert _impurity(2 * k, k) == 0.5


def test_07_trapezoid_auc_equals_rank_statistic():
    """Sweep area and the Mann-Whitney pair count (ties half) agree
    within 1e-9 on 200 random score sets, ties included."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 120))
        actual = rng.integers(0, 2, n)
        if actual.min() == actual.max():
            actual[0] = 1 - actual[0]
        scores = rng.integers(0, 7, n) / 6.0
        curve = roc(actual, scores)
        assert abs(curve["auc"] - mann_whitney_auc(actual, scores)) < 1e-9


def test_08_logistic_fit_gradient_and_coverage():
    """Converged fits sit at a max-norm < 1e-6 stationary point, the
    analytic gradient matches finite differences, and each coefficient
    lands within 3 standard errors of truth in >= 18 of 20 seeded
    2000-row fits."""
    rng = np.random.default_rng(8)
    X = rng.normal(0.0, 1.0, (400, 3))
    y = (rng.random(400) < 0.5).astype(float)
    design = np.column_stack([X, np.ones(400)])
    for _ in range(5):
        beta = rng.uniform(-1.0, 1.0, 4)
        exact = logistic_gradient(design, y, beta)
        approx = central_difference_gradient(
            lambda b: logistic_log_likelihood(design, y, b), beta)
        np.testing.assert_allclose(approx, exact, rtol=1e-5, atol=1e-8)

    true_beta = np.array([0.8, -0.5, 0.3])
    true_intercept = 0.2
    truth = np.append(true_beta, true_intercept)
    hits = np.zeros(4, dtype=int)
    for seed in range(20):
        seed_rng = np.random.default_rng(seed)
        X = seed_rng.normal(0.0, 1.0, (2000, 3))
        eta = X @ true_beta + true_intercept
        y = (seed_rng.random(2000)
             < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic_xy(X, y, ["a", "b", "c"])
        assert fit.converged
        design = np.column_stack([X, np.ones(2000)])
        gradient = logistic_gradient(design, y,
                                     np.array(fit.coefficients))
        assert np.max(np.abs(gradient)) < 1e-6
        within = (np.abs(np.array(fit.coefficients) - truth)
                  <= 3.0 * np.array(fit.standard_errors))
        hits += within.astype(int)
    assert np.all(hits >= 18), hits.tolist()


def _grid_rule_dataset(seed, n=1500):
    """Round-figure monetary draws labeled by a depth-2 rule whose
    thresholds fall between grid points, so the boundary partition is
    recoverable exactly from any sample."""
    rng = np.random.default_rng(seed)
    income = 5000.0 * rng.integers(5, 51, n)
    credit = 25000.0 * rng.integers(2, 41, n)
    rule = {"feature": "AMT_INCOME_TOTAL", "threshold": 137_500.0,
            "left": {"feature": "AMT_CREDIT", "threshold": 512_500.0,
                     "left": 1, "right": 0},
            "right": 0}
    columns = {
        "NAME_CONTRACT_TYPE": rng.integers(0, 2, n).tolist(),
        "AMT_INCOME_TOTAL": income.tolist(),
        "AMT_CREDIT": credit.tolist(),
        "AMT_ANNUITY": rng.uniform(2_000.0, 60_000.0, n).tolist(),
        "NAME_HOUSING_TYPE": rng.integers(1, 7, n).tolist(),
    }
    labels = planted_labels(rule, {"AMT_INCOME_TOTAL": income,
                                   "AMT_CREDIT": credit}, n)
    return make_dataset(columns, [int(v) for v in labels],
                        kinds={"NAME_CONTRACT_TYPE": CATEGORICAL,
                               "NAME_HOUSING_TYPE": CATEGORICAL},
                        levels={"NAME_CONTRACT_TYPE": 2,
                                "NAME_HOUSING_TYPE": 6})


def test_09_planted_rule_recovered_across_seeds():
    """Noise-free depth-2 labels: the grown tree (min node size 1)
    reaches training accuracy 1.0 with at most 7 nodes on each of 20
    seeds."""
    for seed in range(20):
        data = _grid_rule_dataset(seed)
        tree = grow(data, config=CartConfig(min_node_size=1))
        classes, _ = predict_dataset(tree, data)
        actual = data.y
        assert np.array_equal(classes, actual), seed
        assert tree.node_count() <= 7, (seed, tree.node_count())


def test_10_full_pipeline_scale_and_determinism(tmp_path, monkeypatch):
    """The chained encode/screen/train/eval run on 4,000 rows by 13
    features finishes in under 10 seconds and reruns byte-identically
    (manifest timings aside)."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--rows", "4000", "--seed", "0",
                 "--out", "data"]) == 0
    artifacts = ["encoded.csv", "cleaning.log", "wald.csv",
                 "correlation.csv", "screening.json", "model.json",
                 "tree.dot", "tree.txt", "eval.json", "eval.txt",
                 "roc.tsv"]
    blobs = []
    manifests = []
    for run in ("r1", "r2"):
        os.makedirs(run)
        monkeypatch.chdir(tmp_path / run)
        started = time.perf_counter()
        rc = main(["pipeline", "--input", "../data/synthetic.csv",
                   "--skip-codebook", "--out", "."])
        elapsed = time.perf_counter() - started
        monkeypatch.chdir(tmp_path)
        assert rc == 0
        assert elapsed < 10.0
        blobs.append({name: (tmp_path / run / name).read_bytes()
                      for name in artifacts})
        manifests.append(json.loads(
            (tmp_path / run / "manifest.json").read_text()))
    assert blobs[0] == blobs[1]
    for manifest in manifests:
        assert [s["status"] for s in manifest["stages"]] == \
            ["completed"] * 4
        for stage in manifest["stages"]:
            stage["seconds"] = 0.0
    assert manifests[0] == manifests[1]
