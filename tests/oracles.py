"""Independent reference implementations the tests compare against.

Everything here is deliberately written the dumb, obvious way: masks
and pair counting instead of prefix sums, itertools instead of bit
tricks.  The split oracle keeps the same arithmetic formula shape
(p = count/n, impurity = 1 - p*p - q*q, weighted = (nl*gl + nr*gr)/n)
so that agreement with the library can be asserted bit for bit.
"""

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


def variance(n, s, s2):
    """Population variance of n values with sum s and sum of squares s2."""
    mean = s / n
    return s2 / n - mean * mean


def brute_force_best_variance_split(data, variables=None):
    """Exhaustive regression split search over every feature and cut.

    Same result shape and tie rules as brute_force_best_split, with the
    population variance of the target as impurity.  Sums of real
    targets are formed as the library forms them, since their rounding
    depends on the order of the terms: the node's impurity uses the
    target's sums in row order; a numeric cut adds the targets at or
    below it in stable sorted order from 0.0, against the whole running
    sum as the node's total; a code's sums add its rows in row order, a
    subset adds its codes' sums in ascending code order from 0.0, and
    the node's total is np.sum of every code's sums in code order.
    """
    names = list(variables) if variables is not None else data.schema.names
    specs = sorted((data.schema[n] for n in names), key=lambda s: s.index)
    y = data.y
    n = y.shape[0]
    if n < 2:
        return None
    parent = variance(n, y.sum(), (y * y).sum())
    if parent <= 0.0:
        return None

    def decrease(nl, left, total):
        nr = n - nl
        gl = variance(nl, *left)
        gr = variance(nr, total[0] - left[0], total[1] - left[1])
        return parent - (nl * gl + nr * gr) / n

    best = None  # (decrease, feature, detail)
    for spec in specs:
        values = data.feature_array([spec.name])[:, 0]
        feature_best = None
        if spec.kind == NUMERIC:
            order = np.argsort(values, kind="stable")
            sums, s, s2 = [], 0.0, 0.0
            for t in y[order]:
                s, s2 = s + t, s2 + t * t
                sums.append((s, s2))
            v = values[order]
            for i in range(n - 1):
                if v[i + 1] > v[i]:
                    dec = decrease(i + 1, sums[i], sums[-1])
                    if feature_best is None or dec > feature_best[0]:
                        feature_best = (dec, float((v[i] + v[i + 1]) / 2.0))
        else:
            codes = sorted(int(c) for c in np.unique(values))
            count, code_sums = {}, {}
            for c in codes:
                t = y[values == c]
                count[c], code_sums[c] = t.shape[0], (np.sum(t), np.sum(t * t))
            total = tuple(np.sum(np.array([code_sums[c][k] for c in codes]))
                          for k in (0, 1))
            for subset in (_half_partitions(codes) if len(codes) >= 2 else ()):
                s, s2 = 0.0, 0.0
                for c in subset:
                    s, s2 = s + code_sums[c][0], s2 + code_sums[c][1]
                dec = decrease(sum(count[c] for c in subset), (s, s2), total)
                if (feature_best is None or dec > feature_best[0]
                        or (dec == feature_best[0]
                            and subset < feature_best[1])):
                    feature_best = (dec, subset)
            if feature_best is not None:
                feature_best = (feature_best[0], frozenset(feature_best[1]))
        if feature_best is not None and (best is None
                                         or feature_best[0] > best[0]):
            best = (feature_best[0], spec.name, feature_best[1])
    if best is None or best[0] < 0.0:
        return None
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
    """Leaf record each row of X reaches, one row at a time.

    records are the node records of a serialized tree,
    json.loads(serialize(tree))["nodes"]: a rule record names its
    feature index and a threshold (left iff value <= threshold) or a
    code subset (left iff the truncated code is in it), and the indices
    of its two children.
    """
    found = []
    for row in X:
        rec = records[0]
        while rec["left"] is not None:
            value = row[rec["feature_index"]]
            if rec["threshold"] is not None:
                left = value <= rec["threshold"]
            else:
                left = int(value) in rec["subset"]
            rec = records[rec["left"] if left else rec["right"]]
        found.append(rec)
    return found


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
