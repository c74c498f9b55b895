"""Shared fixtures: small hand-built datasets and the published-style
significance table used by the screening and acceptance suites."""

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from solvency.dataset import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    FeatureSpec,
    Schema,
)
from solvency.evaluation import ConfusionMatrix

pytest_plugins = ["pytester"]

# Properties that leave max_examples unset run the profile's count:
# "default" locally, ten times as many under HYPOTHESIS_PROFILE=ci.
settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("ci", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_dataset(columns, target, kinds=None, levels=None):
    """Build a Dataset from parallel column lists.

    columns maps name -> list of cell values, None for a missing one; a
    column holding text becomes raw labels.  kinds maps name -> kind
    (default numeric); levels maps name -> modality count for the
    categorical ones (default max code, at least 2).
    """
    kinds = kinds or {}
    levels = levels or {}
    features = []
    for name, cells in columns.items():
        kind = kinds.get(name, NUMERIC)
        if kind == CATEGORICAL:
            if name in levels:
                m = levels[name]
            else:
                present = [c for c in cells if c is not None]
                if any(isinstance(c, str) for c in present):
                    m = max(2, len(set(present)))
                else:
                    m = max(2, max(int(c) for c in present))
            features.append(FeatureSpec(name, CATEGORICAL, levels=m))
        else:
            features.append(FeatureSpec(name, NUMERIC))
    schema = Schema(features, "TARGET")
    X = np.full((len(target), len(features)), np.nan)
    labels = {}
    for spec in schema.features:
        cells = columns[spec.name]
        if any(isinstance(c, str) for c in cells):
            labels[spec.name] = np.array(cells, dtype=object)
        else:
            X[:, spec.index] = [np.nan if c is None else c for c in cells]
    y = [np.nan if t is None else t for t in target]
    return Dataset(schema, X, y, labels)


def cells(values):
    """A column as a list, None where a value is missing."""
    return [None if isinstance(v, float) and math.isnan(v) else v
            for v in np.asarray(values).tolist()]


def rows(data):
    """A dataset as lists of feature cells plus the target, None where a
    value is missing."""
    names = data.schema.names + [data.schema.target]
    return [list(row) for row in zip(*(cells(data.column(n))
                                       for n in names))]


@pytest.fixture
def solvency_confusion():
    """The roughly 4000-row holdout cross-tabulation used as the
    evaluation fixture throughout."""
    return ConfusionMatrix(vp=1375, vn=1475, fp=517, fn=621)


# Published-style univariate significance table: one row per candidate
# variable as (name, B, SE, wald, printed_sig), coefficients rounded to
# three decimals exactly as a stats package prints them.  The monetary
# variables' coefficients are so small they print as 0.000 while their
# Wald statistics stay large.
SIGNIFICANCE_TABLE = [
    ("NAME_CONTRACT_TYPE", 0.429, 0.132, 10.522, 0.001),
    ("CODE_GENDER", -1.604, 0.165, 94.361, 0.000),
    ("FLAG_OWN_CAR", -0.424, 0.085, 24.811, 0.000),
    ("CNT_CHILDREN", 0.341, 0.126, 7.298, 0.007),
    ("AMT_INCOME_TOTAL", 0.000, 0.000, 39.407, 0.000),
    ("AMT_CREDIT", 0.000, 0.000, 34.029, 0.000),
    ("AMT_ANNUITY", 0.000, 0.000, 0.435, 0.510),
    ("AMT_GOODS_PRICE", 0.000, 0.000, 44.091, 0.000),
    ("NAME_INCOME_TYPE", -0.375, 0.063, 35.415, 0.000),
    ("NAME_EDUCATION_TYPE", 0.746, 0.038, 375.557, 0.000),
    ("NAME_FAMILY_STATUS", -0.017, 0.043, 0.151, 0.697),
    ("NAME_HOUSING_TYPE", 0.108, 0.044, 6.167, 0.013),
    ("CNT_FAM_MEMBERS", -0.263, 0.111, 5.650, 0.017),
]

NOT_SIGNIFICANT_NAMES = {"AMT_ANNUITY", "NAME_FAMILY_STATUS"}


@pytest.fixture
def significance_table():
    return list(SIGNIFICANCE_TABLE)


def standardized(values):
    """Zero-mean unit-population-sd copy of a vector."""
    v = np.asarray(values, dtype=float)
    v = v - v.mean()
    return v / np.sqrt(np.mean(v * v))


def correlated_pair_dataset(seed=20260814, n=400):
    """Credit-shaped numeric dataset with two planted near-duplicate
    column pairs and everything else weakly related.

    The credit amount and the goods price correlate at 0.986, the child
    count and the family size at 0.888; empirical correlations hit the
    targets exactly (to rounding) by construction through explicit
    orthogonalization.
    """
    rng = np.random.default_rng(seed)

    def planted(rho):
        u = standardized(rng.normal(size=n))
        v = rng.normal(size=n)
        v = v - np.mean(u * v) / np.mean(u * u) * u
        v = standardized(v)
        return u, rho * u + np.sqrt(1.0 - rho * rho) * v

    credit, goods = planted(0.986)
    children, family = planted(0.888)
    income = rng.normal(size=n)
    annuity = rng.normal(size=n)
    target = rng.integers(0, 2, n).tolist()
    columns = {
        "CNT_CHILDREN": children.tolist(),
        "AMT_INCOME_TOTAL": income.tolist(),
        "AMT_CREDIT": credit.tolist(),
        "AMT_ANNUITY": annuity.tolist(),
        "AMT_GOODS_PRICE": goods.tolist(),
        "CNT_FAM_MEMBERS": family.tolist(),
    }
    return make_dataset(columns, target)
