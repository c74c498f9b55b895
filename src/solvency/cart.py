"""Binary CART: Gini-driven growing, prediction, and serialization.

Splits are binary.  Numeric features are cut at midpoints between
consecutive distinct values (left means value <= threshold); categorical
features are cut by code subsets (left means code in subset), the one
an exhaustive search over the node's codes would pick, found by
Breiman's ordered scan.  Candidates are ranked by impurity decrease with
a deterministic tie-break: lowest feature index first, then lowest
threshold, then lexicographically smallest sorted code subset.

Classification impurity is Gini, 1 - sum(p_i^2); regression mode uses
the population variance of the target instead and predicts leaf means.

Trees grow level by level, as in SLIQ and SPRINT: each numeric column
is sorted once, stably, at the root, and every node of one depth is
scored in a fixed number of array passes over the rows still splitting.
Each node's choice is the one a node-at-a-time search would make, and
the finished table is numbered in preorder.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    ClassDistribution,
    Dataset,
    FeatureSpec,
    Schema,
    whole_codes,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    MalformedDocumentError,
    SchemaMismatchError,
    VersionMismatchError,
)

FORMAT_VERSION = "cart-model/1"

CLASSIFICATION = "classification"
REGRESSION = "regression"


class UnseenCategoryWarning(UserWarning):
    """Prediction met a categorical code that no training row of the
    node testing it held; such a row goes right."""


def gini(dist: ClassDistribution) -> float:
    """Gini impurity 1 - sum of squared class proportions."""
    total = float(dist.total)
    acc = 1.0
    for c in dist.counts:
        p = c / total
        acc -= p * p
    return acc


def split_gini(left: ClassDistribution, right: ClassDistribution) -> float:
    """Size-weighted Gini of a two-way partition."""
    n = left.total + right.total
    return (left.total * gini(left) + right.total * gini(right)) / n


@dataclass(frozen=True)
class SplitRule:
    """Routing test at an internal node.

    Exactly one of threshold (numeric: left iff value <= threshold) and
    subset (categorical: left iff code in subset) is set.  complement
    holds the codes of the node's training rows routed right, so
    prediction can tell a code none of them held from one that belongs
    right.
    """

    feature: str
    feature_index: int
    threshold: float | None = None
    subset: frozenset[int] | None = None
    complement: frozenset[int] | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.subset is None):
            raise ValueError("rule needs exactly one of threshold/subset")
        if self.subset is not None:
            if not self.subset or self.complement is None or not self.complement:
                raise ValueError("categorical rule needs nonempty sides")
            if self.subset & self.complement:
                raise ValueError("subset and complement overlap")

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None

    def describe(self) -> str:
        if self.is_numeric:
            return f"{self.feature} <= {self.threshold!r}"
        codes = ", ".join(str(c) for c in sorted(self.subset))
        return f"{self.feature} in {{{codes}}}"


@dataclass(frozen=True)
class CartConfig:
    """Growing limits.

    min_node_size in [1, 5] unless allow_large_min_node is set; a node
    with fewer rows is never split.  max_depth bounds the root-to-leaf
    rule count.  A split is kept only when its impurity decrease is at
    least min_gini_decrease.
    """

    min_node_size: int = 5
    max_depth: int = 10
    min_gini_decrease: float = 0.0
    mode: str = CLASSIFICATION
    allow_large_min_node: bool = False

    def __post_init__(self):
        if self.min_node_size < 1:
            raise ConfigError("min_node_size must be at least 1")
        if self.min_node_size > 5 and not self.allow_large_min_node:
            raise ConfigError(
                f"min_node_size {self.min_node_size} exceeds 5; "
                "pass the large-min-node override to allow it")
        if self.max_depth < 0:
            raise ConfigError("max_depth cannot be negative")
        if self.min_gini_decrease < 0:
            raise ConfigError("min_gini_decrease cannot be negative")
        if self.mode not in (CLASSIFICATION, REGRESSION):
            raise ConfigError(f"unknown mode {self.mode!r}")


@dataclass(eq=False)
class CartTree:
    """Grown tree plus everything needed to apply or rebuild it.

    The preorder node table of the cart-model/1 format, as columns with
    one entry per node: a node comes before its children, its whole
    left subtree before its right child, so internal node i has its
    left child at i + 1.  rules[i] and right[i] are its rule and right
    child, None and -1 at a leaf; n[i] and counts[i] its row and class
    counts (None in regression).  The leaf predictions, 0 at internal
    nodes, are arrays: predicted_class and positive_proportion in
    classification, mean in regression, and None in the other mode.
    """

    rules: list[SplitRule | None]
    right: list[int]
    n: list[int]
    counts: list[tuple[int, int] | None]
    fingerprint: tuple
    config: CartConfig
    n_training_rows: int
    predicted_class: np.ndarray | None = None
    positive_proportion: np.ndarray | None = None
    mean: np.ndarray | None = None

    def node_count(self) -> int:
        return len(self.rules)

    def depth(self) -> int:
        return max(_depths(self.right))


def _depths(right: list[int]) -> list[int]:
    """Depth of every node of a preorder table, in one forward pass."""
    depths = [0] * len(right)
    for i, r in enumerate(right):
        if r >= 0:
            depths[i + 1] = depths[r] = depths[i] + 1
    return depths


def assign_leaf(counts: tuple[int, int]) -> tuple[int, float]:
    """Majority class and positive proportion; ties go to class 0."""
    n = counts[0] + counts[1]
    predicted = 1 if counts[1] > counts[0] else 0
    return predicted, counts[1] / n


# -- split search ----------------------------------------------------------
#
# The candidate scoring below is written so that an independent
# brute-force enumeration using the same arithmetic (p = c/n as plain
# division, impurity = 1 - p*p - q*q, weighted = (nl*gl + nr*gr)/n,
# decrease = parent - weighted) reproduces the chosen decrease bit for
# bit.  Keep products spelled as multiplication, not **.  Class counts
# are integer-valued floats below 2**53, so they may be summed in any
# order and across nodes.  Sums of real targets must keep their order:
# prefix sums start from 0.0 at each node and run in stable sorted
# order, per-code sums are np.sum over the code's rows in row order, and
# a subset sums its codes in ascending order starting from 0.0.

def _impurity(n, s, s2=None):
    """Gini of n rows of which s are class 1 when s2 is None, else the
    population variance of n values with sum s and sum of squares s2."""
    if s2 is None:
        p1 = s / n
        p0 = (n - s) / n
        return 1.0 - p1 * p1 - p0 * p0
    mean = s / n
    return s2 / n - mean * mean


def _decrease(parent, n, nl, left, total):
    """Impurity decrease of sending nl of n rows left, where left and
    total hold the left side's and the node's target sums."""
    nr = n - nl
    right = [t - s for t, s in zip(total, left)]
    return parent - (nl * _impurity(nl, *left) + nr * _impurity(nr, *right)) / n


def _segments(sizes):
    """First position of each node's segment and the node of every
    position, for nodes of the given row counts laid end to end."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.shape[0]), sizes)


def _ascending_sums(sums, left):
    """Each row count and target sum of the ranks marked in left, added
    in ascending rank order, as a node-at-a-time search adds them."""
    return [np.cumsum(np.where(left, t, 0.0), -1)[..., -1] for t in sums]


class _LevelScorer:
    """Best split of every node of one tree level, over a fixed set of
    feature columns.

    Built once per tree.  A level is held as attribute lists, as in
    SLIQ and SPRINT: lists[0] holds each node's rows in row order and
    lists[1 + j] the same rows sorted stably by numeric column j, the
    nodes' segments laid end to end in the same order in every list.
    Each numeric column is scored for all nodes at once with segmented
    prefix sums and a segmented argmax.  Categorical codes become dense
    ranks, which keep their order, and every (node, column) pair is
    scored at once by the ordered scan (see _subsets).
    """

    def __init__(self, data: Dataset, variables, mode: str):
        names = list(variables) if variables is not None else data.schema.names
        self.specs = sorted((data.schema[n] for n in names),
                            key=lambda s: s.index)
        self.classification = mode == CLASSIFICATION
        self.y = (data.binary_target().astype(float) if self.classification
                  else data.y)
        self.numeric = np.array([s.kind == NUMERIC for s in self.specs],
                                dtype=bool)
        self.num = np.flatnonzero(self.numeric)
        self.cat = np.flatnonzero(~self.numeric)
        # feature position -> row of values or of ranks
        self.slot = np.empty(len(self.specs), dtype=np.intp)
        self.slot[self.num] = np.arange(self.num.size)
        self.slot[self.cat] = np.arange(self.cat.size)
        self.values = np.empty((self.num.size, data.n))
        for j, f in enumerate(self.num):
            self.values[j] = data.X[:, self.specs[f].index]
        self.ranks = np.empty((self.cat.size, data.n), dtype=np.intp)
        self.codes = []
        for j, f in enumerate(self.cat):
            codes, self.ranks[j] = np.unique(data.codes(self.specs[f].name),
                                             return_inverse=True)
            self.codes.append(codes)
        # at least two, so every pair has a cut position to score
        self.levels = max([2] + [len(codes) for codes in self.codes])

    def presort(self, rows):
        """Attribute lists of the rows as one node: the rows as given,
        then sorted stably by each numeric column."""
        return [rows] + [rows[np.argsort(v[rows], kind="stable")]
                         for v in self.values]

    def split(self, lists, sizes):
        """Best split of each node of a level whose attribute lists and
        row counts (each at least 2) are given.

        Returns per node the decrease (-inf when the node is homogeneous
        or no column separates it), the feature position and threshold,
        and per node and categorical column the ranks the best subset
        sends left and right.  Ties go to the lowest feature index, then
        the lowest threshold, then the smallest sorted code subset.
        """
        rows = lists[0]
        a = sizes.shape[0]
        starts, seg = _segments(sizes)
        n = sizes.astype(float)
        ones = None
        if self.classification:
            ones = np.add.reduceat(self.y[rows], starts)
            parent = _impurity(n, ones)
        else:
            parent = np.empty(a)
            for i, (s, e) in enumerate(zip(starts, starts + sizes)):
                y = self.y[rows[s:e]]
                parent[i] = _impurity(e - s, y.sum(), (y * y).sum())
        best = np.full((a, len(self.specs)), -np.inf)
        threshold = np.full((a, len(self.specs)), np.nan)
        subsets = np.zeros((2, a, 0, self.levels), dtype=bool)
        if self.num.size:
            self._thresholds(lists, starts, seg, n, parent, ones, best,
                             threshold)
        if self.cat.size:
            subsets = self._subsets(rows, starts, sizes, seg, parent, best)
        best[parent <= 0.0] = -np.inf
        f = best.argmax(axis=1)
        at = np.arange(a)
        return best[at, f], f, threshold[at, f], subsets

    def _thresholds(self, lists, starts, seg, n, parent, ones, best,
                    threshold):
        """Fill best and threshold for the numeric columns; ones holds
        each node's class-1 count in classification."""
        m = seg.shape[0]
        position = np.arange(m)
        last = starts + n.astype(np.intp) - 1
        nl = (position - starts[seg] + 1).astype(float)
        n, parent = n[seg], parent[seg]
        if self.classification:
            before = (np.cumsum(ones) - ones)[seg]
            total = [ones[seg]]
        for j, rows in enumerate(lists[1:]):
            y = self.y[rows]
            if self.classification:
                left = [np.cumsum(y) - before]
            else:
                left = [np.empty(m), np.empty(m)]
                for s, e in zip(starts, last + 1):
                    np.cumsum(y[s:e], out=left[0][s:e])
                    np.cumsum(y[s:e] * y[s:e], out=left[1][s:e])
                total = [t[last][seg] for t in left]
            v = self.values[j, rows]
            cut = np.empty(m, dtype=bool)
            cut[:-1] = v[1:] > v[:-1]
            cut[last] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = np.where(cut, _decrease(parent, n, nl, left, total),
                               -np.inf)
            top = np.maximum.reduceat(dec, starts)
            pick = np.minimum.reduceat(
                np.where(dec == top[seg], position, m), starts)
            f = self.num[j]
            best[:, f] = top
            threshold[:, f] = (v[pick] + v[pick + 1]) / 2.0

    def _subsets(self, rows, starts, sizes, seg, parent, best):
        """Fill best for the categorical columns; returns, per node and
        column, the ranks the best subset sends left and right.

        For two-class Gini and for variance an optimal subset is a prefix
        of the codes sorted by class-1 proportion (by mean), and one that
        splits a group of equal proportions scores strictly less (Breiman
        et al. 1984, Thm 4.5; Fisher 1958).  So a (node, column) pair is
        cut only between distinct proportions in that order, ties by rank,
        a cut's left side holding the first present rank.  _tied solves a
        pair whose codes all share one proportion.
        """
        a, k, levels = sizes.shape[0], self.cat.size, self.levels
        table = np.zeros((2 if self.classification else 3, a, k, levels))
        cell = seg * levels
        for c in range(k):
            index = cell + self.ranks[c, rows]
            table[0, :, c] = np.bincount(
                index, minlength=a * levels).reshape(a, levels)
            if self.classification:
                table[1, :, c] = np.bincount(
                    index, self.y[rows], a * levels).reshape(a, levels)
        present = table[0] > 0
        if self.classification:
            totals = table[1:].sum(axis=3)
        else:
            for i, (s, e) in enumerate(zip(starts, starts + sizes)):
                y = self.y[rows[s:e]]
                for c in range(k):
                    ranks = self.ranks[c, rows[s:e]]
                    for r in np.flatnonzero(present[i, c]):
                        v = y[ranks == r]
                        table[1:, i, c, r] = np.sum(v), np.sum(v * v)
            totals = np.array([[[t[i, c, present[i, c]].sum()
                                 for c in range(k)] for i in range(a)]
                               for t in table[1:]])
        with np.errstate(divide="ignore", invalid="ignore"):
            key = table[1] / table[0]  # nan at absent ranks, which sort last
            order = np.argsort(key, axis=2, kind="stable")
            cut = np.diff(np.take_along_axis(key, order, axis=2), axis=2) > 0
            # sides[i, c, j]: left ranks of the pair cut after position j
            head = (np.argsort(order, axis=2)[:, :, None]
                    <= np.arange(levels - 1)[:, None])
            sides = present[:, :, None] & (head == np.take_along_axis(
                head, present.argmax(axis=2)[..., None, None], axis=3))
            nl, *left = _ascending_sums(table[:, :, :, None], sides)
            dec = np.where(cut, _decrease(
                parent[:, None, None], sizes[:, None, None], nl, left,
                totals[..., None]), -np.inf)
        top, pick = dec.max(axis=2), dec.argmax(axis=2)
        for i, c in np.argwhere(((dec == top[..., None]).sum(axis=2) > 1)
                                & (top > -np.inf)):
            pick[i, c] = min(np.flatnonzero(dec[i, c] == top[i, c]), key=(
                lambda j: tuple(np.flatnonzero(sides[i, c, j]))))
        left = sides[np.arange(a)[:, None], np.arange(k), pick]
        # pairs without a cut; those of a homogeneous node are never used
        for i, c in np.argwhere((present.sum(axis=2) > 1) & ~cut.any(axis=2)
                                & (parent > 0.0)[:, None]):
            top[i, c], left[i, c] = self._tied(
                table[:, i, c], parent[i], sizes[i], totals[:, i, c])
        best[:, self.cat] = top
        return np.stack([left, present & ~left])

    def _tied(self, table, parent, n, totals):
        """Best decrease and left ranks of a pair of n rows whose codes
        share one proportion: every subset's exact decrease is 0, and
        rounding picks the winner.  Regression scores every subset; in
        classification the decrease follows from the left row count, and
        the smallest code tuple reaching a best count is built greedily."""
        ranks, m = np.flatnonzero(table[0]), np.count_nonzero(table[0])
        if not self.classification:
            # odd numbers below 2**m - 1: the subsets with the first code
            subsets = np.zeros((2 ** (m - 1) - 1, table.shape[1]), dtype=bool)
            subsets[:, ranks] = (np.arange(1, 2 ** m - 1, 2)[:, None]
                                 >> np.arange(m)) & 1
            nl, *left = _ascending_sums(table[:, None], subsets)
            dec = _decrease(parent, n, nl, left, totals)
            return dec.max(), min(subsets[dec == dec.max()],
                                  key=lambda s: tuple(np.flatnonzero(s)))
        sizes = table[0, ranks].astype(int)
        # reach[j, x]: a subset of the codes from j on holds x rows; no
        # count passes n, so np.roll never wraps a reachable one round
        reach = np.tile(np.arange(n + 1) == 0, (m + 1, 1))
        for j in range(m - 1, -1, -1):
            reach[j] = reach[j + 1] | np.roll(reach[j + 1], sizes[j])
        # left counts holding the first code, short of the whole node
        nl = np.flatnonzero(reach[1, :n - sizes[0]]) + sizes[0]
        dec = _decrease(parent, n, nl, [nl * totals[0] / n], totals)
        goal = np.bincount(nl[dec == dec.max()], minlength=n + 1) > 0
        left, held = np.arange(table.shape[1]) == ranks[0], sizes[0]
        for j in range(1, m):
            if not goal[held] and (np.roll(reach[j + 1], held + sizes[j])
                                   & goal).any():
                left[ranks[j]], held = True, held + sizes[j]
        return dec.max(), left

    def goes_left(self, rows, seg, f, threshold, sent_left):
        """Whether each row goes left under its node's rule, for rows in
        nodes seg that split on feature positions f."""
        feature = f[seg]
        j = self.slot[feature]
        left = np.empty(rows.shape[0], dtype=bool)
        p = np.flatnonzero(self.numeric[feature])
        left[p] = self.values[j[p], rows[p]] <= threshold[seg[p]]
        p = np.flatnonzero(~self.numeric[feature])
        left[p] = sent_left[seg[p], j[p], self.ranks[j[p], rows[p]]]
        return left

    def rule(self, f, threshold, subsets) -> SplitRule:
        """The rule on feature position f; subsets holds the ranks each
        categorical column's best subset sends left and right."""
        spec = self.specs[f]
        if spec.kind == NUMERIC:
            return SplitRule(spec.name, spec.index, threshold=float(threshold))
        codes = self.codes[self.slot[f]]
        left, right = subsets[:, self.slot[f], :codes.shape[0]]
        return SplitRule(spec.name, spec.index,
                         subset=frozenset(codes[left].tolist()),
                         complement=frozenset(codes[right].tolist()))


def best_split(
    data: Dataset,
    variables: list[str] | None = None,
    config: CartConfig = CartConfig(),
    indices=None,
) -> tuple[SplitRule, float] | None:
    """Best admissible rule for the given rows, or None.

    None means no candidate exists (too few rows, no variables, pure
    node, constant columns) or the best decrease falls short of
    min_gini_decrease.
    """
    idx = (np.arange(data.n) if indices is None
           else np.asarray(indices, dtype=np.intp))
    scorer = _LevelScorer(data, variables, config.mode)
    if idx.shape[0] < 2 or not scorer.specs:
        return None
    dec, f, threshold, subsets = scorer.split(
        scorer.presort(idx), np.array([idx.shape[0]]))
    if dec[0] < config.min_gini_decrease:  # -inf when nothing splits
        return None
    return scorer.rule(f[0], threshold[0], subsets[:, 0]), float(dec[0])


def grow(
    data: Dataset,
    variables: list[str] | None = None,
    config: CartConfig = CartConfig(),
) -> CartTree:
    """Grow a tree level by level from one presort of the rows.

    All nodes of one depth that may split are scored in one pass over
    the level's attribute lists; each list is then partitioned stably by
    child, so a node's rows keep the order a stable sort of that node
    alone would give them.  A node becomes a leaf when it is
    homogeneous, no admissible split remains (none when no variable is
    given), it holds fewer than min_node_size rows, or it sits at
    max_depth.  Once growth ends the nodes are numbered in preorder,
    left child first.
    """
    if data.n == 0:
        raise EmptyDatasetError("cannot grow a tree on 0 rows")
    scorer = _LevelScorer(data, variables, config.mode)
    y = scorer.y
    classification = scorer.classification
    smallest = max(config.min_node_size, 2)
    # Nodes are made level by level, a split node's two children side by
    # side: sizes[i] is node i's row count, ones[i] its class-1 count
    # (classification only), rules[i] its rule and first[i] its left child.
    sizes = [data.n]
    ones = [float(y.sum())] if classification else []
    rules: dict[int, SplitRule] = {}
    first: dict[int, int] = {}
    leaf_of_row = np.zeros(data.n, dtype=np.intp)  # regression leaf means
    goes = np.empty(data.n, dtype=bool)  # each row's side at this level
    # The nodes of one depth that may split: ids, row and class-1 counts.
    level, level_n = np.array([0]), np.array([data.n])
    level_ones = np.array(ones)
    mixed = 0 < ones[0] < data.n if classification else True
    if (data.n < smallest or config.max_depth == 0 or not mixed
            or not scorer.specs):
        level = level[:0]
    lists = scorer.presort(np.arange(data.n)) if level.shape[0] else []
    depth = 0
    while level.shape[0]:
        dec, f, threshold, subsets = scorer.split(lists, level_n)
        starts, seg = _segments(level_n)
        left = scorer.goes_left(lists[0], seg, f, threshold, subsets[0])
        nl = np.add.reduceat(left, starts, dtype=np.intp)
        # A midpoint that rounds onto its upper boundary value would
        # sweep every row to one side; refuse rather than split.
        split = (dec >= config.min_gini_decrease) & (nl > 0) & (nl < level_n)
        child = len(sizes) + 2 * (np.cumsum(split) - 1)
        for i in np.flatnonzero(split):
            rules[int(level[i])] = scorer.rule(f[i], threshold[i],
                                               subsets[:, i])
            first[int(level[i])] = int(child[i])
        group_n = np.stack([nl, level_n - nl], axis=1)
        sizes += group_n[split].ravel().tolist()
        if classification:
            ones_left = np.add.reduceat(y[lists[0]] * left, starts)
            group_ones = np.stack([ones_left, level_ones - ones_left], axis=1)
            ones += group_ones[split].ravel().tolist()
            mixed = (group_ones > 0) & (group_ones < group_n)
        else:
            moving = split[seg]
            leaf_of_row[lists[0][moving]] = (child[seg] + ~left)[moving]
        depth += 1
        opened = (split[:, None] & mixed & (group_n >= smallest)
                  & (depth < config.max_depth)).ravel()
        # Partition every list stably by child.  Each (node, side) group
        # gets a region, those of children that may split first, in child
        # order, and the rest after, where they drop out.  A row's place
        # is its group's start plus the rows of its group before it,
        # counted from the running total of rows sent left.
        group_n = group_n.ravel()
        order = np.argsort(~opened, kind="stable")
        region = np.empty(group_n.shape[0], dtype=np.intp)
        region[order] = np.cumsum(group_n[order]) - group_n[order]
        lefts_before = np.cumsum(nl) - nl
        to_left = (region[0::2] - lefts_before)[seg]
        to_right = ((region[1::2] - starts + lefts_before)[seg]
                    + np.arange(seg.shape[0]))
        goes[lists[0]] = left
        kept = int(group_n[opened].sum())
        for j, rows in enumerate(lists):
            flag = goes[rows]
            before = np.cumsum(flag) - flag
            out = np.empty_like(rows)
            out[np.where(flag, to_left + before, to_right - before)] = rows
            lists[j] = out[:kept]
        level = np.stack([child, child + 1], axis=1).ravel()[opened]
        level_n = group_n[opened]
        if classification:
            level_ones = group_ones.ravel()[opened]
    return CartTree(**_preorder(sizes, ones, rules, first, y, leaf_of_row),
                    fingerprint=data.schema.fingerprint(), config=config,
                    n_training_rows=data.n)


def _preorder(sizes, ones, rules, first, y, leaf_of_row) -> dict:
    """The node table's columns, in preorder, of nodes given in making
    order.  A regression tree has no ones; its leaf means come from the
    rows leaf_of_row sends to each leaf, summed in row order."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if i in first:
            stack += [first[i] + 1, first[i]]
    index = {made: i for i, made in enumerate(order)}
    right = [index[first[i] + 1] if i in first else -1 for i in order]
    table = dict(rules=[rules.get(i) for i in order], right=right,
                 n=[sizes[i] for i in order])
    leaves = [j for j, r in enumerate(right) if r < 0]
    if ones:
        counts = [(sizes[i] - int(ones[i]), int(ones[i])) for i in order]
        predicted, p1 = np.zeros(len(order), dtype=int), np.zeros(len(order))
        for j in leaves:
            predicted[j], p1[j] = assign_leaf(counts[j])
        return dict(table, counts=counts, predicted_class=predicted,
                    positive_proportion=p1)
    by_leaf = np.argsort(leaf_of_row, kind="stable")
    ends = np.cumsum(np.bincount(leaf_of_row, minlength=len(sizes))).tolist()
    mean = np.zeros(len(order))
    for j in leaves:
        i = order[j]
        mean[j] = y[by_leaf[ends[i] - sizes[i]:ends[i]]].mean()
    return dict(table, counts=[None] * len(order), mean=mean)


def predict_dataset(tree: CartTree, data: Dataset):
    """Apply a classification tree to every row; returns (classes,
    scores) arrays, the scores being leaf positive proportions."""
    leaf = _leaf_index(tree, data, CLASSIFICATION)
    return tree.predicted_class[leaf], tree.positive_proportion[leaf]


def predict_values(tree: CartTree, data: Dataset) -> np.ndarray:
    """Apply a regression tree to every row; returns the leaf means."""
    return tree.mean[_leaf_index(tree, data, REGRESSION)]


def _leaf_index(tree: CartTree, data: Dataset, mode: str) -> np.ndarray:
    """Table index of the leaf each row reaches.

    The dataset schema must match the training schema exactly, and the
    tree must be of the given mode.  Rows are routed together, one
    index partition per node.  A row that reaches a rule on a feature
    it has no value for, or a categorical rule with a value that is not
    a whole number within 2**53, raises DataError naming the row and
    feature; such a value in a feature its path never tests is harmless.
    A categorical code that no training row of the node testing it held
    routes right, with one UnseenCategoryWarning per feature and code.
    """
    if data.schema.fingerprint() != tree.fingerprint:
        raise SchemaMismatchError(
            "dataset schema differs from the tree's training schema")
    if tree.config.mode != mode:
        raise ValueError(f"needs a {mode} tree, not a {tree.config.mode} one")
    leaf = np.empty(data.n, dtype=np.intp)
    unseen: dict[tuple[str, int], tuple[int, int]] = {}
    stack = [(0, np.arange(data.n))]
    while stack:
        i, idx = stack.pop()
        rule = tree.rules[i]
        if rule is None:
            leaf[idx] = i
            continue
        values = data.X[idx, rule.feature_index]
        missing = np.isnan(values)
        if missing.any():
            raise DataError(
                f"row {idx[missing.argmax()]} has no value for feature "
                f"{rule.feature!r}, which the tree routes on")
        if rule.is_numeric:
            left = values <= rule.threshold
        else:
            whole_codes(values, rule.feature, idx)
            left = np.isin(values, list(rule.subset))
            absent = ~left & ~np.isin(values, list(rule.complement))
            for code in np.unique(values[absent]):
                first = (int(idx[absent & (values == code)][0]), i)
                key = (rule.feature, int(code))
                unseen[key] = min(unseen.get(key, first), first)
        stack.append((tree.right[i], idx[~left]))
        stack.append((i + 1, idx[left]))
    # Warn in the order a row-by-row walk would first meet each code;
    # along one row's path the table index grows with depth.
    for (feature, code), (_, i) in sorted(unseen.items(),
                                          key=lambda item: item[1]):
        warnings.warn(f"code {code} of {feature!r} is absent from the "
                      f"training rows of node {i}; routing right",
                      UnseenCategoryWarning)
    return leaf


# -- serialization ---------------------------------------------------------


def _json(value) -> str:
    """JSON text of a header value: a string escaped to ASCII, a float
    at 17 significant digits, and an int, also one a config file gave a
    float field, as an int."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)


def serialize(tree: CartTree) -> str:
    """Tree as a one-document JSON string, preorder node records.

    Every float prints as format(x, ".17g"), which holds it exactly and
    is not repr: a whole one prints as an int (1.0 as 1), and 17 digits
    may show more (0.81499999999999995 for 0.815).  Strings are escaped
    to ASCII.  Each node record is filled in from the columns by the
    template of its kind: leaf, numeric rule or categorical rule.
    """
    config = tree.config
    features = ", ".join(
        f'{{"name": {_json(name)}, "kind": {_json(kind)}, '
        f'"levels": {_json(levels)}}}'
        for name, kind, levels in tree.fingerprint[:-1])
    head = (f'{{"format": "{FORMAT_VERSION}", "config": {{'
            f'"min_node_size": {_json(config.min_node_size)}, '
            f'"max_depth": {_json(config.max_depth)}, '
            f'"min_gini_decrease": {_json(config.min_gini_decrease)}, '
            f'"mode": {_json(config.mode)}}}, "schema": {{"features": '
            f'[{features}], "target": {_json(tree.fingerprint[-1])}}}, '
            f'"n_training_rows": {_json(tree.n_training_rows)}, "nodes": [')
    # Python numbers print as JSON: tolist() gives them, and codes and
    # counts already are
    if tree.mean is None:
        leaves = [f'"class": {c}, "p1": {p:.17g}, "mean": null'
                  for c, p in zip(tree.predicted_class.tolist(),
                                  tree.positive_proportion.tolist())]
    else:
        leaves = [f'"class": null, "p1": null, "mean": {m:.17g}'
                  for m in tree.mean.tolist()]
    names = {name: _json(name) for name, _, _ in tree.fingerprint[:-1]}
    records = []
    for i, (rule, n, counts, r) in enumerate(zip(tree.rules, tree.n,
                                                 tree.counts, tree.right)):
        counts = "null" if counts is None else f"[{counts[0]}, {counts[1]}]"
        if rule is None:
            records.append(f'{{"n": {n}, "counts": {counts}, "left": null, '
                           f'"right": null, {leaves[i]}}}')
            continue
        if rule.threshold is None:
            test = (f'"threshold": null, "subset": {sorted(rule.subset)}, '
                    f'"complement": {sorted(rule.complement)}')
        else:
            test = (f'"threshold": {rule.threshold:.17g}, "subset": null, '
                    '"complement": null')
        records.append(f'{{"n": {n}, "counts": {counts}, "left": {i + 1}, '
                       f'"right": {r}, "feature": {names[rule.feature]}, '
                       f'"feature_index": {rule.feature_index}, {test}}}')
    return head + ", ".join(records) + "]}\n"


def _fingerprint_from_doc(doc) -> tuple:
    """The schema section's fingerprint, refused unless it describes a
    Schema: string names and target, known kinds, whole levels."""
    try:
        specs = [(f["name"], f["kind"], f["levels"]) for f in doc["features"]]
        target = doc["target"]
        if type(target) is not str or not all(
                type(name) is str and (levels is None or type(levels) is int)
                for name, _, levels in specs):
            raise TypeError("names must be strings and levels null or "
                            "whole numbers")
        schema = Schema([FeatureSpec(*spec) for spec in specs], target)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad schema section: {exc}") from None
    return schema.fingerprint()


def deserialize(text: str) -> CartTree:
    """Rebuild a tree from serialize() output.

    Raises VersionMismatchError for a foreign format tag and
    MalformedDocumentError for anything structurally wrong, naming the
    offending node index where one exists.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocumentError(
            f"not valid JSON at position {exc.pos}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise MalformedDocumentError("document root must be an object")
    version = doc.get("format")
    if version is None:
        raise MalformedDocumentError("missing format field")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"expected {FORMAT_VERSION!r}, found {version!r}")
    for key in ("config", "schema", "n_training_rows", "nodes"):
        if key not in doc:
            raise MalformedDocumentError(f"missing {key} field")
    cfg = doc["config"]
    try:
        limits = cfg["min_node_size"], cfg["max_depth"]
        if not (type(limits[0]) is type(limits[1]) is int
                and _number(cfg["min_gini_decrease"])):
            raise TypeError("min_node_size and max_depth must be whole "
                            "numbers and min_gini_decrease a finite number")
        config = CartConfig(*limits, cfg["min_gini_decrease"], cfg["mode"],
                            allow_large_min_node=True)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise MalformedDocumentError(f"bad config section: {exc}") from None
    fingerprint = _fingerprint_from_doc(doc["schema"])
    rows = doc["n_training_rows"]
    if type(rows) is not int:
        raise MalformedDocumentError(
            f"n_training_rows is {rows!r}, not a whole number")
    records = doc["nodes"]
    if not isinstance(records, list) or not records:
        raise MalformedDocumentError("nodes must be a nonempty list")

    rules, right, n, counts = [], [], [], []
    columns = _LEAF_COLUMNS[config.mode]
    leaf = {column: [0] * len(records) for column in columns.values()}
    kind = f"{config.mode} leaf"
    # A depth-first walk, left child first, must meet every node once
    # and in table order: the table is then one tree, in preorder, and
    # each internal node's left child is the next node.
    pending = [0]
    for i, rec in enumerate(records):
        if not pending:
            raise MalformedDocumentError("node list is not a single tree")
        if pending.pop() != i:
            raise MalformedDocumentError(f"node {i} is out of preorder")
        if not isinstance(rec, dict):
            raise MalformedDocumentError(f"node {i} is not an object")
        left, r = rec.get("left"), rec.get("right")
        if (left is None) != (r is None):
            raise MalformedDocumentError(
                f"node {i} has only one child index")
        try:
            count, c = rec["n"], rec["counts"]
            if type(count) is not int or c is not None and not (
                    type(c) is list and len(c) == 2
                    and type(c[0]) is type(c[1]) is int):
                raise MalformedDocumentError(
                    f"node {i} has n {count!r} and counts {c!r}, not a whole "
                    "number and null or two whole numbers")
            n.append(count)
            counts.append(tuple(c) if c is not None else None)
            if left is None:
                rules.append(None)
                for key, column in columns.items():
                    leaf[column][i] = _value(rec, key, i, kind)
            else:
                for child in (left, r):
                    if not (isinstance(child, int)
                            and i < child < len(records)):
                        raise MalformedDocumentError(
                            f"node {i} child index {child!r} out of range")
                pending += [r, left]
                rules.append(_record_rule(rec, i, fingerprint[:-1]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedDocumentError(f"node {i}: {exc}") from None
        right.append(-1 if r is None else r)
    if pending:
        raise MalformedDocumentError(f"node {pending[-1]} referenced twice")
    for column, values in leaf.items():
        leaf[column] = np.array(values, int if column == "predicted_class"
                                else float)
    return CartTree(rules=rules, right=right, n=n, counts=counts,
                    fingerprint=fingerprint, config=config,
                    n_training_rows=rows, **leaf)


def _number(value) -> bool:
    """Whether a parsed JSON value is a number that a float holds; int
    and float compare exactly, and NaN compares false."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


#: What each value field of a node record must hold, and its test.
_VALUES = {
    "class": ("0 or 1", lambda v: type(v) is int and v in (0, 1)),
    "p1": ("a finite number in [0, 1]", lambda v: _number(v) and 0 <= v <= 1),
    "mean": ("a finite number", _number),
    "threshold": ("a finite number", _number),
    "subset": ("a list of whole numbers",
               lambda v: type(v) is list and all(type(c) is int for c in v)),
}
_VALUES["complement"] = _VALUES["subset"]

#: The leaf fields of each mode's records, each to its CartTree column.
_LEAF_COLUMNS = {CLASSIFICATION: {"class": "predicted_class",
                                  "p1": "positive_proportion"},
                 REGRESSION: {"mean": "mean"}}


def _value(rec: dict, key: str, i: int, node: str):
    """Field key of node i's record, refused unless it holds what
    _VALUES asks; node names what node i is, a rule or a mode's leaf."""
    value = rec.get(key)
    what, valid = _VALUES[key]
    if not valid(value):
        raise MalformedDocumentError(
            f"node {i} is a {node} whose {key!r} is {value!r}, not {what}")
    return value


def _record_rule(rec: dict, i: int, features: tuple) -> SplitRule:
    """The rule of internal node i's record, refused when a value breaks
    the format or the schema contradicts its feature, index or kind."""
    name, j = rec["feature"], rec["feature_index"]
    if type(j) is not int or not 0 <= j < len(features) or (
            features[j][0] != name):
        raise MalformedDocumentError(
            f"node {i} routes on feature {name!r} at index {j}, "
            "which the schema does not hold")
    if rec["threshold"] is not None:
        threshold = _value(rec, "threshold", i, "rule")
        rule = SplitRule(name, j, threshold=float(threshold))
    else:
        rule = SplitRule(
            name, j, subset=frozenset(_value(rec, "subset", i, "rule")),
            complement=frozenset(_value(rec, "complement", i, "rule")))
    kind = NUMERIC if rule.is_numeric else CATEGORICAL
    if features[j][1] != kind:
        raise MalformedDocumentError(
            f"node {i} has a {kind} rule on {features[j][1]} feature "
            f"{name!r}")
    return rule


# -- rendering -------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _labels(tree: CartTree) -> list[tuple[str, str]]:
    """(body, stats) of every node: its rule or leaf prediction, then its
    row count and class counts.  tolist() gives Python floats, whose
    repr is the bare number."""
    if tree.mean is not None:
        leaves = [f"leaf mean={m!r}" for m in tree.mean.tolist()]
    else:
        leaves = [f"leaf class={c} p1={p!r}" for c, p in zip(
            tree.predicted_class.tolist(), tree.positive_proportion.tolist())]
    return [(leaf if rule is None else rule.describe(),
             f"n={n}" if counts is None else f"n={n} counts={counts}")
            for rule, leaf, n, counts in zip(tree.rules, leaves, tree.n,
                                             tree.counts)]


def export_dot(tree: CartTree) -> str:
    """Graphviz digraph; edges carry True (left) and False (right)."""
    lines = ["digraph cart {", "  node [shape=box];"]
    for i, (body, stats) in enumerate(_labels(tree)):
        lines.append(f'  n{i} [label="{_dot_escape(body)}\\n{stats}"];')
    for i, r in enumerate(tree.right):
        if r >= 0:
            lines.append(f'  n{i} -> n{i + 1} [label="True"];')
            lines.append(f'  n{i} -> n{r} [label="False"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_text(tree: CartTree) -> str:
    """Indented plain-text outline of the tree, two spaces per level."""
    depths = _depths(tree.right)
    tags = [""] * len(depths)
    lines = []
    for i, ((body, stats), r) in enumerate(zip(_labels(tree), tree.right)):
        lines.append(f"{'  ' * depths[i]}{tags[i]}{body} [{stats}]")
        if r >= 0:
            tags[i + 1], tags[r] = "True: ", "False: "
    return "\n".join(lines) + "\n"
