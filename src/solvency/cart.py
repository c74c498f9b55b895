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
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    ClassDistribution,
    Dataset,
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
    """Prediction met a categorical code absent from training."""


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
    holds the training codes routed right, so prediction can tell a
    genuinely unseen code from one that belongs right.
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


@dataclass
class TreeNode:
    """Internal node (rule plus the table indices of its two children)
    or leaf (prediction)."""

    n: int
    counts: tuple[int, int] | None = None
    rule: SplitRule | None = None
    left: int | None = None
    right: int | None = None
    predicted_class: int | None = None
    positive_proportion: float | None = None
    mean: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


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


@dataclass
class CartTree:
    """Grown tree plus everything needed to apply or rebuild it.

    nodes is the preorder node table of the cart-model/1 format: the
    root comes first, and every node comes before its children, its
    whole left subtree before its right child.
    """

    nodes: list[TreeNode]
    fingerprint: tuple
    config: CartConfig
    n_training_rows: int

    def node_count(self) -> int:
        return len(self.nodes)

    def depth(self) -> int:
        return max(_depths(self.nodes))


def _depths(nodes: list[TreeNode]) -> list[int]:
    """Depth of every node of a preorder table, in one forward pass."""
    depths = [0] * len(nodes)
    for i, node in enumerate(nodes):
        if not node.is_leaf:
            depths[node.left] = depths[node.right] = depths[i] + 1
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

    None means no candidate exists (too few rows, pure node, constant
    columns) or the best decrease falls short of min_gini_decrease.
    """
    idx = (np.arange(data.n) if indices is None
           else np.asarray(indices, dtype=np.intp))
    if idx.shape[0] < 2:
        return None
    scorer = _LevelScorer(data, variables, config.mode)
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
    homogeneous, no admissible split remains, it holds fewer than
    min_node_size rows, or it sits at max_depth.  Once growth ends the
    nodes are numbered in preorder, left child first.
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
    if data.n < smallest or config.max_depth == 0 or not mixed:
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
    return CartTree(nodes=_preorder(sizes, ones, rules, first, y, leaf_of_row),
                    fingerprint=data.schema.fingerprint(), config=config,
                    n_training_rows=data.n)


def _preorder(sizes, ones, rules, first, y, leaf_of_row) -> list[TreeNode]:
    """The node table, in preorder, of nodes given in making order.  A
    regression tree has no ones; its leaf means come from the rows
    leaf_of_row sends to each leaf, summed in row order."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if i in first:
            stack += [first[i] + 1, first[i]]
    index = {made: i for i, made in enumerate(order)}
    by_leaf = np.argsort(leaf_of_row, kind="stable")
    ends = np.cumsum(np.bincount(leaf_of_row, minlength=len(sizes))).tolist()
    nodes = []
    for i in order:
        n = sizes[i]
        counts = (n - int(ones[i]), int(ones[i])) if ones else None
        if i in rules:
            nodes.append(TreeNode(n=n, counts=counts, rule=rules[i],
                                  left=index[first[i]],
                                  right=index[first[i] + 1]))
        elif counts is None:
            rows = by_leaf[ends[i] - n:ends[i]]
            nodes.append(TreeNode(n=n, mean=float(y[rows].mean())))
        else:
            predicted, p1 = assign_leaf(counts)
            nodes.append(TreeNode(n=n, counts=counts, predicted_class=predicted,
                                  positive_proportion=p1))
    return nodes


def predict_dataset(tree: CartTree, data: Dataset):
    """Apply a classification tree to every row; returns (classes,
    scores) arrays, the scores being leaf positive proportions."""
    leaf = _leaf_index(tree, data, CLASSIFICATION)
    return (_leaf_values(tree, "predicted_class", int)[leaf],
            _leaf_values(tree, "positive_proportion")[leaf])


def predict_values(tree: CartTree, data: Dataset) -> np.ndarray:
    """Apply a regression tree to every row; returns the leaf means."""
    leaf = _leaf_index(tree, data, REGRESSION)
    return _leaf_values(tree, "mean")[leaf]


def _leaf_values(tree: CartTree, attr: str, dtype=float) -> np.ndarray:
    """One attribute of every leaf, by table index; 0 at internal nodes."""
    values = np.zeros(len(tree.nodes), dtype=dtype)
    for i, node in enumerate(tree.nodes):
        if node.is_leaf:
            values[i] = getattr(node, attr)
    return values


def _leaf_index(tree: CartTree, data: Dataset, mode: str) -> np.ndarray:
    """Table index of the leaf each row reaches.

    The dataset schema must match the training schema exactly, and the
    tree must be of the given mode.  Rows are routed together, one
    index partition per node.  A row that reaches a rule on a feature
    it has no value for raises DataError naming the row and feature;
    a missing value in a feature its path never tests is harmless.
    A categorical code absent from training routes right with one
    UnseenCategoryWarning per code.
    """
    if data.schema.fingerprint() != tree.fingerprint:
        raise SchemaMismatchError(
            "dataset schema differs from the tree's training schema")
    if tree.config.mode != mode:
        raise ValueError(f"needs a {mode} tree, not a {tree.config.mode} one")
    leaf = np.empty(data.n, dtype=np.intp)
    unseen: dict[str, tuple[int, int]] = {}
    stack = [(0, np.arange(data.n))]
    while stack:
        i, idx = stack.pop()
        node = tree.nodes[i]
        if node.is_leaf:
            leaf[idx] = i
            continue
        rule = node.rule
        values = data.X[idx, rule.feature_index]
        missing = np.isnan(values)
        if missing.any():
            raise DataError(
                f"row {idx[missing.argmax()]} has no value for feature "
                f"{rule.feature!r}, which the tree routes on")
        if rule.is_numeric:
            left = values <= rule.threshold
        else:
            values = np.trunc(values)
            left = np.isin(values, list(rule.subset))
            never_seen = ~left & ~np.isin(values, list(rule.complement))
            for code in np.unique(values[never_seen]):
                msg = (f"code {int(code)} of {rule.feature!r} never seen in "
                       "training; routing right")
                first = (int(idx[never_seen & (values == code)][0]), i)
                unseen[msg] = min(unseen.get(msg, first), first)
        stack.append((node.right, idx[~left]))
        stack.append((node.left, idx[left]))
    # Warn in the order a row-by-row walk would first meet each code;
    # along one row's path the table index grows with depth.
    for msg in sorted(unseen, key=unseen.get):
        warnings.warn(msg, UnseenCategoryWarning)
    return leaf


# -- serialization ---------------------------------------------------------


def _emit_json(value, parts: list[str]) -> None:
    """Minimal JSON writer printing floats at 17 significant digits."""
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, float):
        parts.append(format(value, ".17g"))
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(", ")
            _emit_json(item, parts)
        parts.append("]")
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(key) + ": ")
            _emit_json(item, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_document(doc: dict) -> str:
    parts: list[str] = []
    _emit_json(doc, parts)
    return "".join(parts) + "\n"


def serialize(tree: CartTree) -> str:
    """Tree as a one-document JSON string, preorder node records."""
    records = []
    for node in tree.nodes:
        rec = {"n": node.n,
               "counts": list(node.counts) if node.counts is not None else None,
               "left": node.left, "right": node.right}
        if node.rule is not None:
            rec["feature"] = node.rule.feature
            rec["feature_index"] = node.rule.feature_index
            rec["threshold"] = node.rule.threshold
            rec["subset"] = (sorted(node.rule.subset)
                             if node.rule.subset is not None else None)
            rec["complement"] = (sorted(node.rule.complement)
                                 if node.rule.complement is not None else None)
        else:
            rec["class"] = node.predicted_class
            rec["p1"] = node.positive_proportion
            rec["mean"] = node.mean
        records.append(rec)
    doc = {
        "format": FORMAT_VERSION,
        "config": {
            "min_node_size": tree.config.min_node_size,
            "max_depth": tree.config.max_depth,
            "min_gini_decrease": tree.config.min_gini_decrease,
            "mode": tree.config.mode,
        },
        "schema": _fingerprint_to_doc(tree.fingerprint),
        "n_training_rows": tree.n_training_rows,
        "nodes": records,
    }
    return dumps_document(doc)


def _fingerprint_to_doc(fp: tuple) -> dict:
    return {
        "features": [
            {"name": name, "kind": kind, "levels": levels}
            for name, kind, levels in fp[:-1]
        ],
        "target": fp[-1],
    }


def _fingerprint_from_doc(doc) -> tuple:
    try:
        features = tuple(
            (f["name"], f["kind"], f["levels"]) for f in doc["features"])
        return features + (doc["target"],)
    except (KeyError, TypeError) as exc:
        raise MalformedDocumentError(f"bad schema section: {exc}") from None


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
        config = CartConfig(
            min_node_size=int(cfg["min_node_size"]),
            max_depth=int(cfg["max_depth"]),
            min_gini_decrease=float(cfg["min_gini_decrease"]),
            mode=cfg["mode"],
            allow_large_min_node=True,
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise MalformedDocumentError(f"bad config section: {exc}") from None
    fingerprint = _fingerprint_from_doc(doc["schema"])
    records = doc["nodes"]
    if not isinstance(records, list) or not records:
        raise MalformedDocumentError("nodes must be a nonempty list")

    nodes = [_record_to_node(rec, i, config.mode)
             for i, rec in enumerate(records)]
    # A depth-first walk, left child first, must meet every node once
    # and in table order: the table is then one tree, in preorder.
    pending = [0]
    for i, rec in enumerate(records):
        if not pending:
            raise MalformedDocumentError("node list is not a single tree")
        if pending.pop() != i:
            raise MalformedDocumentError(f"node {i} is out of preorder")
        left, right = rec.get("left"), rec.get("right")
        if (left is None) != (right is None):
            raise MalformedDocumentError(
                f"node {i} has only one child index")
        if left is not None:
            for child in (left, right):
                if not isinstance(child, int) or not i < child < len(records):
                    raise MalformedDocumentError(
                        f"node {i} child index {child!r} out of range")
            pending += [right, left]
    if pending:
        raise MalformedDocumentError(f"node {pending[-1]} referenced twice")
    features = fingerprint[:-1]
    for i, node in enumerate(nodes):
        if node.rule is not None:
            _check_rule(node.rule, features, i)
    return CartTree(nodes=nodes, fingerprint=fingerprint, config=config,
                    n_training_rows=int(doc["n_training_rows"]))


def _check_rule(rule: SplitRule, features: tuple, i: int) -> None:
    """Refuse a rule whose feature, index or kind the schema contradicts."""
    j = rule.feature_index
    if not 0 <= j < len(features) or features[j][0] != rule.feature:
        raise MalformedDocumentError(
            f"node {i} routes on feature {rule.feature!r} at index {j}, "
            "which the schema does not hold")
    kind = NUMERIC if rule.is_numeric else CATEGORICAL
    if features[j][1] != kind:
        raise MalformedDocumentError(
            f"node {i} has a {kind} rule on {features[j][1]} feature "
            f"{rule.feature!r}")


#: Fields a leaf record of each mode must hold as a finite number.
_LEAF_FIELDS = {CLASSIFICATION: ("class", "p1"), REGRESSION: ("mean",)}


def _record_to_node(rec, i: int, mode: str) -> TreeNode:
    if not isinstance(rec, dict):
        raise MalformedDocumentError(f"node {i} is not an object")
    try:
        counts = rec["counts"]
        counts = tuple(int(c) for c in counts) if counts is not None else None
        if rec.get("left") is not None:
            threshold = rec["threshold"]
            if threshold is not None:
                rule = SplitRule(rec["feature"], int(rec["feature_index"]),
                                 threshold=float(threshold))
            else:
                rule = SplitRule(rec["feature"], int(rec["feature_index"]),
                                 subset=frozenset(rec["subset"]),
                                 complement=frozenset(rec["complement"]))
            return TreeNode(n=int(rec["n"]), counts=counts, rule=rule,
                            left=rec["left"], right=rec["right"])
        for key in _LEAF_FIELDS[mode]:
            value = rec.get(key)
            if not (type(value) is int or (type(value) is float
                                           and math.isfinite(value))):
                raise MalformedDocumentError(
                    f"node {i} is a {mode} leaf whose {key!r} is "
                    f"{value!r}, not a finite number")
        cls = rec.get("class")
        p1 = rec.get("p1")
        mean = rec.get("mean")
        return TreeNode(
            n=int(rec["n"]), counts=counts,
            predicted_class=int(cls) if cls is not None else None,
            positive_proportion=float(p1) if p1 is not None else None,
            mean=float(mean) if mean is not None else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"node {i}: {exc}") from None


# -- rendering -------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(node: TreeNode) -> tuple[str, str]:
    """(body, stats) of a node: its rule or leaf prediction, then its
    row count and class counts."""
    stats = f"n={node.n}"
    if node.counts is not None:
        stats += f" counts={node.counts}"
    if not node.is_leaf:
        return node.rule.describe(), stats
    if node.mean is not None:
        return f"leaf mean={node.mean!r}", stats
    return (f"leaf class={node.predicted_class} "
            f"p1={node.positive_proportion!r}"), stats


def export_dot(tree: CartTree) -> str:
    """Graphviz digraph; edges carry True (left) and False (right)."""
    lines = ["digraph cart {", "  node [shape=box];"]
    for i, node in enumerate(tree.nodes):
        body, stats = _node_label(node)
        lines.append(f'  n{i} [label="{_dot_escape(body)}\\n{stats}"];')
    for i, node in enumerate(tree.nodes):
        if not node.is_leaf:
            lines.append(f'  n{i} -> n{node.left} [label="True"];')
            lines.append(f'  n{i} -> n{node.right} [label="False"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_text(tree: CartTree) -> str:
    """Indented plain-text outline of the tree, two spaces per level."""
    depths = _depths(tree.nodes)
    tags = [""] * len(tree.nodes)
    lines = []
    for i, node in enumerate(tree.nodes):
        body, stats = _node_label(node)
        lines.append(f"{'  ' * depths[i]}{tags[i]}{body} [{stats}]")
        if not node.is_leaf:
            tags[node.left], tags[node.right] = "True: ", "False: "
    return "\n".join(lines) + "\n"
