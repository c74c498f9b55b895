"""Classifier assessment: confusion counts, error rates, ROC, AUC.

Conventions are the standard ones with class 1 as the positive
(solvent) class: vp and vn count correct predictions of 1 and 0, fn
counts actual 1 predicted 0, fp counts actual 0 predicted 1.  The
three error rates are fn/n1, fp/n0 and (fn+fp)/n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateClassError,
    EmptyInputError,
    ScoreOutOfRangeError,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    vp: int
    vn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.vp, self.vn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts cannot be negative")
        if self.n == 0:
            raise EmptyInputError("confusion matrix over 0 rows")

    @property
    def n(self) -> int:
        return self.vp + self.vn + self.fp + self.fn

    @property
    def actual_positives(self) -> int:
        return self.vp + self.fn

    @property
    def actual_negatives(self) -> int:
        return self.vn + self.fp


def confusion(actual: Sequence[int], predicted: Sequence[int]
              ) -> ConfusionMatrix:
    """Tally the four cells from parallel 0/1 vectors."""
    a = np.asarray(actual)
    p = np.asarray(predicted)
    if a.shape[0] == 0:
        raise EmptyInputError("no rows to evaluate")
    if a.shape != p.shape:
        raise ValueError("actual and predicted lengths differ")
    for vec, which in ((a, "actual"), (p, "predicted")):
        if not np.all((vec == 0) | (vec == 1)):
            raise ValueError(f"{which} values must all be 0 or 1")
    vn, fp, fn, vp = np.bincount((2 * a + p).astype(np.intp),
                                 minlength=4).tolist()
    return ConfusionMatrix(vp=vp, vn=vn, fp=fp, fn=fn)


def error_rates(cm: ConfusionMatrix) -> dict[str, float]:
    """eval.json's e1 (missed positives / actual positives), e2 (false
    alarms / actual negatives) and e3 (all errors / all rows)."""
    if cm.actual_positives == 0 or cm.actual_negatives == 0:
        raise DegenerateClassError("both classes must be present for rates")
    return {"e1": cm.fn / cm.actual_positives,
            "e2": cm.fp / cm.actual_negatives,
            "e3": (cm.fn + cm.fp) / cm.n}


def metrics(cm: ConfusionMatrix) -> dict[str, float]:
    """eval.json's accuracy, sensitivity and specificity."""
    if cm.actual_positives == 0 or cm.actual_negatives == 0:
        raise DegenerateClassError("both classes must be present for metrics")
    return {"accuracy": (cm.vp + cm.vn) / cm.n,
            "sensitivity": cm.vp / cm.actual_positives,
            "specificity": cm.vn / cm.actual_negatives}


@dataclass
class RocCurve:
    """Operating points from sweeping the decision threshold downward.

    points runs from (0, 0) to (1, 1) as (fpr, tpr) pairs; tied scores
    contribute a single step.  auc is the trapezoid area, se the
    Hanley-McNeil standard error, and ci the 1.96-se interval clipped
    to [0, 1].
    """

    points: list[tuple[float, float]]
    auc: float
    se: float
    ci_low: float
    ci_high: float


def roc(actual: Sequence[int], scores: Sequence[float]) -> RocCurve:
    """Build the curve from actual classes and scores in [0, 1]."""
    a = np.asarray(actual)
    s = np.asarray(scores, dtype=float)
    if a.shape[0] == 0:
        raise EmptyInputError("no rows for the ROC sweep")
    if a.shape != s.shape:
        raise ValueError("actual and score lengths differ")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("actual values must all be 0 or 1")
    if np.any(~np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0:
        raise ScoreOutOfRangeError("scores must lie inside [0, 1]")
    order = np.argsort(-s, kind="mergesort")
    # the last row of each run of tied scores, and the class-1 and
    # class-0 rows up to it; fp / n0 and tp / n1 divide exact integers
    # in float64, which gives the bits Python's int division would
    ends = np.append(np.flatnonzero(np.diff(s[order])), a.shape[0] - 1)
    tp = np.cumsum(a[order] == 1)[ends]
    fp = ends + 1 - tp
    n1, n0 = int(tp[-1]), int(fp[-1])
    if n1 == 0 or n0 == 0:
        raise DegenerateClassError("ROC needs both classes present")
    points = [(0.0, 0.0)] + list(zip((fp / n0).tolist(), (tp / n1).tolist()))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    area = min(1.0, max(0.0, area))
    se, (low, high) = auc_se_ci(area, n1, n0)
    return RocCurve(points=points, auc=area, se=se, ci_low=low, ci_high=high)


def auc_se_ci(auc: float, n1: int, n0: int
              ) -> tuple[float, tuple[float, float]]:
    """Hanley-McNeil standard error and 95% interval for an AUC.

    Boundary AUC values 0 and 1 are accepted (the variance formula
    degenerates to zero there) so perfect separations stay reportable.
    """
    if not 0.0 <= auc <= 1.0:
        raise ValueError(f"auc must lie in [0, 1], got {auc}")
    if n1 < 1 or n0 < 1:
        raise DegenerateClassError("need at least one row of each class")
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


def report_json(cm: ConfusionMatrix, rates: dict[str, float],
                mets: dict[str, float], curve: RocCurve | None) -> str:
    """Machine-readable summary; identical inputs give identical bytes.

    When no curve is available (degenerate scores) the four auc fields
    are null.
    """
    cells = {**vars(cm), **rates, **mets}
    # the auc fields are the curve's auc, se, ci_low and ci_high
    doc = {name: cells[name] if name in cells
           else curve and getattr(curve, name.removeprefix("auc_"))
           for name in REPORT_FIELDS}
    return json.dumps(doc, indent=2) + "\n"


def report_table(cm: ConfusionMatrix, rates: dict[str, float],
                 mets: dict[str, float], curve: RocCurve | None) -> str:
    """Fixed-width table for humans."""
    lines = [
        "                 predicted 0   predicted 1",
        f"actual 0   {cm.vn:13d} {cm.fp:13d}",
        f"actual 1   {cm.fn:13d} {cm.vp:13d}",
        "",
        f"e1 (missed positives)   {rates['e1']:.8f}",
        f"e2 (false alarms)       {rates['e2']:.8f}",
        f"e3 (overall errors)     {rates['e3']:.8f}",
        f"accuracy                {mets['accuracy']:.8f}",
        f"sensitivity             {mets['sensitivity']:.8f}",
        f"specificity             {mets['specificity']:.8f}",
    ]
    if curve is None:
        lines.append("roc                     unavailable")
    else:
        lines.append(f"auc                     {curve.auc:.8f}")
        lines.append(f"auc se                  {curve.se:.8f}")
        lines.append(f"auc 95% ci              [{curve.ci_low:.8f}, "
                     f"{curve.ci_high:.8f}]")
    return "\n".join(lines) + "\n"


def roc_dump(curve: RocCurve) -> str:
    """One fpr<TAB>tpr line per operating point."""
    return "".join(f"{x!r}\t{y!r}\n" for x, y in curve.points)
