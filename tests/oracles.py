"""Independent reference implementations the tests compare against.

Everything here is deliberately written the dumb, obvious way: masks
and pair counting instead of prefix sums, itertools instead of bit
tricks.  The split oracle keeps the same arithmetic formula shape
(p = count/n, impurity = 1 - p*p - q*q, weighted = (nl*gl + nr*gr)/n)
so that agreement with the library can be asserted bit for bit.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from solvency.dataset import NUMERIC


def gini_two_counts(c1: float, c0: float, n: float) -> float:
    p1 = c1 / n
    p0 = c0 / n
    return 1.0 - p1 * p1 - p0 * p0


def brute_force_best_split(data, variables=None):
    """Exhaustive split search over every feature and cut.

    Returns (decrease, feature_name, detail) where detail is a float
    threshold for numeric features or a frozenset of codes for
    categorical ones, or None when no admissible split exists.  Ties
    resolve to the lowest feature index, then the lowest threshold,
    then the lexicographically smallest sorted code tuple.
    """
    names = list(variables) if variables is not None else data.schema.names
    specs = sorted((data.schema[n] for n in names), key=lambda s: s.index)
    y = data.binary_target().astype(float)
    n = float(y.shape[0])
    c1 = float(y.sum())
    c0 = n - c1
    if y.shape[0] < 2 or c1 == 0.0 or c0 == 0.0:
        return None
    parent = gini_two_counts(c1, c0, n)

    best = None  # (decrease, feature, detail)
    for spec in specs:
        values = data.feature_array([spec.name])[:, 0]
        cand = None
        if spec.kind == NUMERIC:
            distinct = np.unique(values)
            feature_best = None
            for i in range(distinct.shape[0] - 1):
                threshold = (distinct[i] + distinct[i + 1]) / 2.0
                left = values <= distinct[i]
                dec = _decrease(y, left, parent, c1, c0, n)
                # ascending thresholds + strict > keeps the lowest one
                if feature_best is None or dec > feature_best[0]:
                    feature_best = (dec, float(threshold))
            if feature_best is not None:
                cand = (feature_best[0], spec.name, feature_best[1])
        else:
            codes = sorted(int(c) for c in np.unique(values))
            if len(codes) >= 2:
                feature_best = None
                for subset in _half_partitions(codes):
                    left = np.isin(values, subset)
                    dec = _decrease(y, left, parent, c1, c0, n)
                    if (feature_best is None or dec > feature_best[0]
                            or (dec == feature_best[0]
                                and subset < feature_best[1])):
                        feature_best = (dec, subset)
                cand = (feature_best[0], spec.name,
                        frozenset(feature_best[1]))
        if cand is not None and (best is None or cand[0] > best[0]):
            best = cand
    if best is None or best[0] < 0.0:
        return None
    return best


def ordered_scan_split(values, y):
    """Breiman's ordered scan of one categorical column at one node,
    one cut at a time.

    values holds the node's codes and y its 0/1 targets.  The codes are
    sorted by exact class-1 proportion, then by code, and cut only
    between distinct proportions; a cut's canonical side is the one
    holding the smallest code.  Returns (decrease, sorted canonical
    code tuple) of the best cut, ties going to the smallest tuple, or
    None when every code shares one proportion.
    """
    values = np.asarray(values, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, ones = {}, {}
    for code, target in zip(values.astype(int).tolist(), y.tolist()):
        rows[code] = rows.get(code, 0) + 1
        ones[code] = ones.get(code, 0) + int(target)
    share = {code: Fraction(ones[code], rows[code]) for code in rows}
    ranked = sorted(rows, key=lambda code: (share[code], code))
    n = float(y.shape[0])
    c1 = float(y.sum())
    c0 = n - c1
    parent = gini_two_counts(c1, c0, n)
    best = None  # (decrease, code tuple)
    for j in range(1, len(ranked)):
        if share[ranked[j - 1]] == share[ranked[j]]:
            continue
        side = ranked[:j] if min(rows) in ranked[:j] else ranked[j:]
        subset = tuple(sorted(side))
        dec = _decrease(y, np.isin(values, subset), parent, c1, c0, n)
        if (best is None or dec > best[0]
                or (dec == best[0] and subset < best[1])):
            best = (dec, subset)
    return best


def _half_partitions(codes):
    """Every proper nonempty subset containing the smallest code."""
    first, rest = codes[0], codes[1:]
    for size in range(len(rest)):
        for tail in combinations(rest, size):
            yield (first,) + tail


def _decrease(y, left_mask, parent, c1, c0, n):
    nl = float(left_mask.sum())
    nr = n - nl
    if nl < 1 or nr < 1:
        return -np.inf
    cl1 = float(y[left_mask].sum())
    cl0 = nl - cl1
    gl = gini_two_counts(cl1, cl0, nl)
    gr = gini_two_counts(c1 - cl1, c0 - cl0, nr)
    weighted = (nl * gl + nr * gr) / n
    return parent - weighted


def reference_grow(data, config, variables=None):
    """Node records of a classification tree grown one node at a time.

    A preorder recursion, left child first, over brute_force_best_split
    on data.select(rows).  It stops where the library stops: fewer than
    config.min_node_size rows, depth config.max_depth, no split, or a
    decrease below config.min_gini_decrease; and a split whose threshold
    (a midpoint that rounded onto its upper value) sends every row one
    way makes a leaf.  Records have the shape of
    json.loads(serialize(tree))["nodes"].
    """
    y = data.binary_target()
    records = []

    def visit(rows, depth):
        n = len(rows)
        c1 = int(y[rows].sum())
        record = {"n": n, "counts": [n - c1, c1], "left": None, "right": None}
        records.append(record)
        found = None
        if n >= config.min_node_size and depth < config.max_depth:
            found = brute_force_best_split(data.select(rows), variables)
        if found is not None and found[0] >= config.min_gini_decrease:
            _, name, detail = found
            j = data.schema[name].index
            values = data.X[rows, j]
            if isinstance(detail, frozenset):
                go_left = np.isin(values, list(detail))
                rule = {"threshold": None, "subset": sorted(detail),
                        "complement": sorted({int(v) for v in values} - detail)}
            else:
                go_left = values <= detail
                rule = {"threshold": detail, "subset": None, "complement": None}
            if 0 < go_left.sum() < n:
                record.update(rule, feature=name, feature_index=j)
                record["left"] = len(records)
                visit(rows[go_left], depth + 1)
                record["right"] = len(records)
                visit(rows[~go_left], depth + 1)
                return
        record.update({"class": 1 if c1 > n - c1 else 0, "p1": c1 / n,
                       "mean": None})

    visit(np.arange(data.n), 0)
    return records


def route_rows(records, X):
    """Route each row of X down a serialized tree, one row at a time.

    records are the node records of a serialized tree,
    json.loads(serialize(tree))["nodes"]: a rule record names its
    feature index and a threshold (left iff value <= threshold) or a
    code subset (left iff the code is in it; a code in neither the
    subset nor the complement goes right), and its two children.  A row
    stops at the first rule whose feature it has no value for (kind 0),
    or whose categorical value is not a whole number within 2**53 (kind
    1).

    Returns (leaves, error, unseen): the index of the leaf record each
    row reaches, None for a row that stopped; None, or (node, kind, row)
    of the lowest node where a row stopped, there kind 0 before kind 1,
    then the lowest row; and, for each (feature index, code) that a row
    met outside a rule's subset and complement, the first (row, node).
    """
    leaves, stops, unseen = [], [], {}
    for r, row in enumerate(X):
        i = 0
        while i is not None and records[i]["left"] is not None:
            rec = records[i]
            value = row[rec["feature_index"]]
            if math.isnan(value):
                stops.append((i, 0, r))
                i = None
            elif rec["threshold"] is not None:
                i = rec["left"] if value <= rec["threshold"] else rec["right"]
            elif abs(value) > 2 ** 53 or value != math.floor(value):
                stops.append((i, 1, r))
                i = None
            elif int(value) in rec["subset"]:
                i = rec["left"]
            else:
                if int(value) not in rec["complement"]:
                    unseen.setdefault((rec["feature_index"], int(value)),
                                      (r, i))
                i = rec["right"]
        leaves.append(i)
    return leaves, min(stops, default=None), unseen


def tied_reference(count, parent, n, ones):
    """_LevelScorer._tied with subset sums held as boolean tables.

    Best decrease and left-rank mask of a pair of n rows, ones of them
    class 1, whose codes hold count[r] rows at rank r.  reach[j, x]
    says a subset of the codes from j on holds x rows; the decrease of
    each reachable left count holding the first code is scored, and the
    smallest code tuple reaching a best count is built greedily.
    """
    ranks = np.flatnonzero(count)
    m, sizes = ranks.shape[0], count[ranks].astype(int)
    # no count passes n, so np.roll never wraps a reachable one round
    reach = np.tile(np.arange(n + 1) == 0, (m + 1, 1))
    for j in range(m - 1, -1, -1):
        reach[j] = reach[j + 1] | np.roll(reach[j + 1], sizes[j])
    nl = np.flatnonzero(reach[1, :n - sizes[0]]) + sizes[0]
    nr = n - nl
    left = nl * ones / n
    right = ones - left
    dec = parent - (nl * gini_two_counts(left, nl - left, nl)
                    + nr * gini_two_counts(right, nr - right, nr)) / n
    goal = np.bincount(nl[dec == dec.max()], minlength=n + 1) > 0
    chosen, held = np.arange(count.shape[0]) == ranks[0], sizes[0]
    for j in range(1, m):
        if not goal[held] and (np.roll(reach[j + 1], held + sizes[j])
                               & goal).any():
            chosen[ranks[j]], held = True, held + sizes[j]
    return dec.max(), chosen


def roc_reference(actual, scores):
    """ROC points and trapezoid area by a row-by-row sweep down the
    scores, one point per run of tied scores."""
    a = np.asarray(actual)
    s = np.asarray(scores, dtype=float)
    n1 = int(np.sum(a == 1))
    n0 = a.shape[0] - n1
    order = np.argsort(-s, kind="mergesort")
    sorted_scores, sorted_actual = s[order], a[order]
    points = [(0.0, 0.0)]
    tp = fp = i = 0
    while i < a.shape[0]:
        j = i
        while j < a.shape[0] and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(np.sum(sorted_actual[i:j] == 1))
        fp += int(np.sum(sorted_actual[i:j] == 0))
        points.append((fp / n0, tp / n1))
        i = j
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return points, min(1.0, max(0.0, area))


def mann_whitney_auc(actual, scores) -> float:
    """Pairwise rank AUC: P(score_pos > score_neg) + half-credit ties."""
    actual = np.asarray(actual)
    scores = np.asarray(scores, dtype=float)
    pos = scores[actual == 1]
    neg = scores[actual == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (pos.shape[0] * neg.shape[0])


def central_difference_gradient(f, x, h=1e-4):
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def chi_square_density_1df(t: float) -> float:
    """Density of the chi-square distribution with one degree of
    freedom, used as a quadrature integrand."""
    return np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi * t)


def numeric_cell(text: str, tokens) -> float:
    """The value of a numeric CSV cell as load_csv documents it: the
    cell is stripped, a missing token (also stripped) reads as NaN,
    and anything else is float() of the text, NaN where float()
    refuses it or reads a value that is not finite."""
    text = text.strip()
    if text in [token.strip() for token in tokens]:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan
