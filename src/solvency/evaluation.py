"""Classifier assessment: confusion counts, error rates, ROC, AUC.

Conventions are the standard ones with class 1 as the positive
(solvent) class: vp and vn count correct predictions of 1 and 0, fn
counts actual 1 predicted 0, fp counts actual 0 predicted 1.  The
three error rates are fn/n1, fp/n0 and (fn+fp)/n.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .errors import DataError


def confusion(actual: Sequence[int], predicted: Sequence[int]
              ) -> dict[str, int]:
    """eval.json's four cells, {"vp", "vn", "fp", "fn"}, tallied from
    parallel 0/1 vectors."""
    a = np.asarray(actual)
    p = np.asarray(predicted)
    if a.shape[0] == 0:
        raise DataError("no rows to evaluate")
    if a.shape != p.shape:
        raise ValueError("actual and predicted lengths differ")
    for vec, which in ((a, "actual"), (p, "predicted")):
        if not np.all((vec == 0) | (vec == 1)):
            raise ValueError(f"{which} values must all be 0 or 1")
    vn, fp, fn, vp = np.bincount((2 * a + p).astype(np.intp),
                                 minlength=4).tolist()
    return {"vp": vp, "vn": vn, "fp": fp, "fn": fn}


def _class_totals(cm: dict[str, int], what: str) -> tuple[int, int]:
    """Actual positives and negatives; DataError unless both classes
    are present."""
    positives, negatives = cm["vp"] + cm["fn"], cm["vn"] + cm["fp"]
    if positives == 0 or negatives == 0:
        raise DataError(f"both classes must be present for {what}")
    return positives, negatives


def error_rates(cm: dict[str, int]) -> dict[str, float]:
    """eval.json's e1 (missed positives / actual positives), e2 (false
    alarms / actual negatives) and e3 (all errors / all rows)."""
    positives, negatives = _class_totals(cm, "rates")
    return {"e1": cm["fn"] / positives,
            "e2": cm["fp"] / negatives,
            "e3": (cm["fn"] + cm["fp"]) / (positives + negatives)}


def metrics(cm: dict[str, int]) -> dict[str, float]:
    """eval.json's accuracy, sensitivity and specificity."""
    positives, negatives = _class_totals(cm, "metrics")
    return {"accuracy": (cm["vp"] + cm["vn"]) / (positives + negatives),
            "sensitivity": cm["vp"] / positives,
            "specificity": cm["vn"] / negatives}


def roc(actual: Sequence[int], scores: Sequence[float]) -> dict:
    """The operating points from sweeping the decision threshold
    downward over actual classes and scores in [0, 1], with eval.json's
    auc fields: {"auc", "auc_se", "auc_ci_low", "auc_ci_high",
    "points"}.

    points runs from (0, 0) to (1, 1) as (fpr, tpr) pairs; tied scores
    contribute a single step.  auc is the trapezoid area, auc_se the
    Hanley-McNeil standard error, and the interval 1.96 auc_se either
    side, clipped to [0, 1].
    """
    a = np.asarray(actual)
    s = np.asarray(scores, dtype=float)
    if a.shape[0] == 0:
        raise DataError("no rows for the ROC sweep")
    if a.shape != s.shape:
        raise ValueError("actual and score lengths differ")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("actual values must all be 0 or 1")
    if np.any(~np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0:
        raise DataError("scores must lie inside [0, 1]")
    order = np.argsort(-s, kind="mergesort")
    # the last row of each run of tied scores, and the class-1 and
    # class-0 rows up to it; fp / n0 and tp / n1 divide exact integers
    # in float64, which gives the bits Python's int division would
    ends = np.append(np.flatnonzero(np.diff(s[order])), a.shape[0] - 1)
    tp = np.cumsum(a[order] == 1)[ends]
    fp = ends + 1 - tp
    n1, n0 = int(tp[-1]), int(fp[-1])
    if n1 == 0 or n0 == 0:
        raise DataError("ROC needs both classes present")
    points = [(0.0, 0.0)] + list(zip((fp / n0).tolist(), (tp / n1).tolist()))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    area = min(1.0, max(0.0, area))
    se, (low, high) = auc_se_ci(area, n1, n0)
    return {"auc": area, "auc_se": se, "auc_ci_low": low, "auc_ci_high": high,
            "points": points}


def auc_se_ci(auc: float, n1: int, n0: int
              ) -> tuple[float, tuple[float, float]]:
    """Hanley-McNeil standard error and 95% interval for an AUC.

    Boundary AUC values 0 and 1 are accepted (the variance formula
    degenerates to zero there) so perfect separations stay reportable.
    """
    if not 0.0 <= auc <= 1.0:
        raise ValueError(f"auc must lie in [0, 1], got {auc}")
    if n1 < 1 or n0 < 1:
        raise DataError("need at least one row of each class")
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    variance = (auc * (1.0 - auc)
                + (n1 - 1) * (q1 - auc * auc)
                + (n0 - 1) * (q2 - auc * auc)) / (n1 * n0)
    se = math.sqrt(max(0.0, variance))
    low = max(0.0, auc - 1.96 * se)
    high = min(1.0, auc + 1.96 * se)
    return se, (low, high)


REPORT_FIELDS = (
    "vp", "vn", "fp", "fn", "e1", "e2", "e3",
    "accuracy", "sensitivity", "specificity",
    "auc", "auc_se", "auc_ci_low", "auc_ci_high",
)


def report_json(cm: dict[str, int], rates: dict[str, float],
                mets: dict[str, float], curve: dict) -> str:
    """Machine-readable summary; identical inputs give identical bytes."""
    cells = {**cm, **rates, **mets, **curve}
    doc = {name: cells[name] for name in REPORT_FIELDS}
    return json.dumps(doc, indent=2) + "\n"


def report_table(cm: dict[str, int], rates: dict[str, float],
                 mets: dict[str, float], curve: dict) -> str:
    """Fixed-width table for humans."""
    lines = [
        "                 predicted 0   predicted 1",
        f"actual 0   {cm['vn']:13d} {cm['fp']:13d}",
        f"actual 1   {cm['fn']:13d} {cm['vp']:13d}",
        "",
        f"e1 (missed positives)   {rates['e1']:.8f}",
        f"e2 (false alarms)       {rates['e2']:.8f}",
        f"e3 (overall errors)     {rates['e3']:.8f}",
        f"accuracy                {mets['accuracy']:.8f}",
        f"sensitivity             {mets['sensitivity']:.8f}",
        f"specificity             {mets['specificity']:.8f}",
        f"auc                     {curve['auc']:.8f}",
        f"auc se                  {curve['auc_se']:.8f}",
        f"auc 95% ci              [{curve['auc_ci_low']:.8f}, "
        f"{curve['auc_ci_high']:.8f}]",
    ]
    return "\n".join(lines) + "\n"


def roc_dump(curve: dict) -> str:
    """One fpr<TAB>tpr line per operating point."""
    return "".join(f"{x!r}\t{y!r}\n" for x, y in curve["points"])
