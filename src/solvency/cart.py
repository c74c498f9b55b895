"""Binary CART: Gini-driven growing, prediction, and serialization.

Splits are binary.  Numeric features are cut at midpoints between
consecutive distinct values (left means value <= threshold); categorical
features are cut by code subsets (left means code in subset), the one
an exhaustive search over the node's codes would pick, found by
Breiman's ordered scan.  Candidates are ranked by impurity decrease with
a deterministic tie-break: lowest feature index first, then lowest
threshold, then lexicographically smallest sorted code subset.

The target is two-class.  Impurity is Gini, 1 - sum(p_i^2), and a
leaf predicts its majority class and its class-1 proportion.

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
from itertools import zip_longest

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    FeatureSpec,
    Schema,
    json_number,
    not_whole,
    whole_codes,
)
from .errors import ConfigError, DataError, SolvencyWarning

FORMAT_VERSION = "cart-model/1"

#: The only mode model.json records; a tree of any other is refused.
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class CartConfig:
    """Growing limits.

    A node with fewer than min_node_size rows, at least 1, is never
    split.  max_depth bounds the root-to-leaf rule count.  A split is
    kept only when its impurity decrease is at least min_gini_decrease.
    """

    min_node_size: int = 5
    max_depth: int = 10
    min_gini_decrease: float = 0.0

    def __post_init__(self):
        if self.min_node_size < 1:
            raise ConfigError("min_node_size must be at least 1")
        if self.max_depth < 0:
            raise ConfigError("max_depth cannot be negative")
        if self.min_gini_decrease < 0:
            raise ConfigError("min_gini_decrease cannot be negative")


@dataclass(eq=False)
class CartTree:
    """Grown tree plus everything needed to apply or rebuild it.

    The preorder node table of the cart-model/1 format, as columns with
    one entry per node: a node comes before its children, its whole
    left subtree before its right child, so internal node i has its
    left child at i + 1.  feature[i] and right[i] are its rule's schema
    feature index and its right child, -1 at a leaf; threshold[i] is a
    numeric rule's threshold, else NaN.  codes holds, sorted, each code
    a categorical rule names, and side[i, k] is 1 or 2 where node i
    sends codes[k] left or right, else 0.  counts[i] holds its class-0
    and class-1 row counts: its row count is their sum, and at a leaf
    assign_leaf gives its prediction from them.  schema is the training
    Schema.
    """

    feature: np.ndarray
    threshold: np.ndarray
    codes: np.ndarray
    side: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    schema: Schema
    config: CartConfig

    def node_count(self) -> int:
        return self.feature.shape[0]

    def depth(self) -> int:
        return max(_depths(self.right.tolist()))


def _depths(right: list[int]) -> list[int]:
    """Depth of every node of a preorder table, in one forward pass."""
    depths = [0] * len(right)
    for i, r in enumerate(right):
        if r >= 0:
            depths[i + 1] = depths[r] = depths[i] + 1
    return depths


def assign_leaf(counts):
    """Majority class and positive proportion; ties go to class 0.  The
    two counts may be numbers or arrays of them, one entry per node."""
    return (counts[1] > counts[0]) * 1, counts[1] / (counts[0] + counts[1])


# -- split search ----------------------------------------------------------
#
# The candidate scoring below is written so that an independent
# brute-force enumeration using the same arithmetic (p = c/n as plain
# division, impurity = 1 - p*p - q*q, weighted = (nl*gl + nr*gr)/n,
# decrease = parent - weighted) reproduces the chosen decrease bit for
# bit.  Keep products spelled as multiplication, not **.  Every summed
# quantity is a row or class count, an integer-valued float below 2**53,
# so it may be summed in any order and across nodes.

def _impurity(n, ones):
    """Gini of n rows of which ones are class 1."""
    p1 = ones / n
    p0 = (n - ones) / n
    return 1.0 - p1 * p1 - p0 * p0


def _decrease(parent, n, nl, left, total):
    """Impurity decrease of sending nl of n rows left, where left and
    total are the left side's and the node's class-1 counts."""
    nr = n - nl
    return parent - (nl * _impurity(nl, left)
                     + nr * _impurity(nr, total - left)) / n


def _segments(sizes):
    """First position of each node's segment and the node of every
    position, for nodes of the given row counts laid end to end."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.shape[0]), sizes)


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

    def __init__(self, data: Dataset, variables):
        names = list(variables) if variables is not None else data.schema.names
        self.specs = sorted((data.schema[n] for n in names),
                            key=lambda s: s.index)
        self.index = np.array([s.index for s in self.specs], dtype=np.intp)
        self.y = data.binary_target().astype(float)
        self.numeric = np.array([s.kind == NUMERIC for s in self.specs],
                                dtype=bool)
        self.num = np.flatnonzero(self.numeric)
        self.cat = np.flatnonzero(~self.numeric)
        # feature position -> row of values or of ranks
        self.slot = np.empty(len(self.specs), dtype=np.intp)
        self.slot[self.num] = np.arange(self.num.size)
        self.slot[self.cat] = np.arange(self.cat.size)
        self.values = data.X[:, self.index[self.num]].T.copy()
        found = [np.unique(data.codes(self.specs[f].name), return_inverse=True)
                 for f in self.cat]
        self.ranks = np.array([r for _, r in found], dtype=np.intp).reshape(
            self.cat.size, data.n)
        # at least two, so every pair has a cut position to score
        self.levels = max([2] + [c.shape[0] for c, _ in found])
        # codes[j, r]: the code of rank r in categorical column j
        self.codes = np.array(
            [np.pad(c, (0, self.levels - c.shape[0])) for c, _ in found],
            dtype=np.int64).reshape(self.cat.size, self.levels)

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
        ones = np.add.reduceat(self.y[rows], starts)
        parent = _impurity(n, ones)
        best = np.full((a, len(self.specs)), -np.inf)
        threshold = np.full((a, len(self.specs)), np.nan)
        subsets = np.zeros((2, a, 0, self.levels), dtype=bool)
        if self.num.size:
            self._thresholds(lists, starts, seg, n, parent, ones, best,
                             threshold)
        if self.cat.size:
            subsets = self._subsets(rows, sizes, seg, parent, ones, best)
        best[parent <= 0.0] = -np.inf
        f = best.argmax(axis=1)
        at = np.arange(a)
        return best[at, f], f, threshold[at, f], subsets

    def _thresholds(self, lists, starts, seg, n, parent, ones, best,
                    threshold):
        """Fill best and threshold for the numeric columns; ones holds
        each node's class-1 count."""
        m = seg.shape[0]
        position = np.arange(m)
        last = starts + n.astype(np.intp) - 1
        nl = (position - starts[seg] + 1).astype(float)
        n, parent, total = n[seg], parent[seg], ones[seg]
        before = (np.cumsum(ones) - ones)[seg]
        for j, rows in enumerate(lists[1:]):
            left = np.cumsum(self.y[rows]) - before
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

    def _subsets(self, rows, sizes, seg, parent, ones, best):
        """Fill best for the categorical columns; returns, per node and
        column, the ranks the best subset sends left and right.

        For two-class Gini an optimal subset is a prefix of the codes
        sorted by class-1 proportion, and one that splits a group of
        equal proportions scores strictly less (Breiman et al. 1984, Thm
        4.5).  So a (node, column) pair is cut only between distinct
        proportions in that order, ties by rank, a cut's left side
        holding the first present rank.  _tied solves a pair whose codes
        all share one proportion.
        """
        a, k, levels = sizes.shape[0], self.cat.size, self.levels
        # table[0] and table[1]: rows and class-1 rows per (node, column,
        # rank), counted for every column at once
        index = ((seg * k + np.arange(k)[:, None]) * levels
                 + self.ranks[:, rows]).ravel()
        table = np.stack([np.bincount(index, w, a * k * levels) for w in (
            None, np.tile(self.y[rows], k))]).reshape(2, a, k, levels)
        present = table[0] > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            key = table[1] / table[0]  # nan at absent ranks, which sort last
            order = np.argsort(key, axis=2, kind="stable")
            cut = np.diff(np.take_along_axis(key, order, axis=2), axis=2) > 0
            # rows and class-1 rows before each cut; the other side's exact
            # counts would only swap the two terms of _decrease's addition
            nl, left = np.take_along_axis(table, order[None], axis=3).cumsum(
                axis=3)[..., :-1]
            dec = np.where(cut, _decrease(
                parent[:, None, None], sizes[:, None, None], nl, left,
                ones[:, None, None]), -np.inf)
        top, pick = dec.max(axis=2), dec.argmax(axis=2)
        # a cut after place j of order sends left the present ranks on
        # the first present rank's side of it
        place = np.argsort(order, axis=2)
        first = np.take_along_axis(place, present.argmax(axis=2)[..., None], 2)

        def sides(j, at=...):
            return present[at] & ((place[at] <= j) == (first[at] <= j))
        for i, c in np.argwhere(((dec == top[..., None]).sum(axis=2) > 1)
                                & (top > -np.inf)):
            pick[i, c] = min(np.flatnonzero(dec[i, c] == top[i, c]), key=(
                lambda j: tuple(np.flatnonzero(sides(j, (i, c))))))
        left = sides(pick[..., None])
        # pairs without a cut; those of a homogeneous node are never used
        for i, c in np.argwhere((present.sum(axis=2) > 1) & ~cut.any(axis=2)
                                & (parent > 0.0)[:, None]):
            top[i, c], left[i, c] = self._tied(
                table[0, i, c], parent[i], sizes[i], ones[i])
        best[:, self.cat] = top
        return np.stack([left, present & ~left])

    @staticmethod
    def _tied(count, parent, n, ones):
        """Best decrease and left ranks of a pair of n rows, ones of
        them class 1, whose codes (count[r] rows at rank r) share one
        proportion: every subset's exact decrease is 0, and rounding
        picks the winner.  The decrease follows from the left row count,
        and the smallest code tuple reaching a best count is built
        greedily."""
        ranks = np.flatnonzero(count)
        sizes, n = count[ranks].astype(int).tolist(), int(n)
        # reach[j]: bit x is set when a subset of the codes from j on
        # holds x rows
        reach = [1] * (len(sizes) + 1)
        for j in range(len(sizes) - 1, -1, -1):
            reach[j] = reach[j + 1] | (reach[j + 1] << sizes[j])
        # left counts holding the first code, short of the whole node
        packed = np.frombuffer(reach[1].to_bytes(n // 8 + 1, "little"),
                               dtype=np.uint8)
        nl = np.flatnonzero(np.unpackbits(
            packed, count=n - sizes[0], bitorder="little")) + sizes[0]
        dec = _decrease(parent, n, nl, nl * ones / n, ones)
        # goal: bit x is set when x is a best left count
        best = np.bincount(nl[dec == dec.max()], minlength=n + 1) > 0
        goal = int.from_bytes(np.packbits(best, bitorder="little"), "little")
        left, held = np.arange(count.shape[0]) == ranks[0], sizes[0]
        for j in range(1, len(sizes)):
            if (not (goal >> held) & 1
                    and (reach[j + 1] << (held + sizes[j])) & goal):
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

    def named(self, f, subsets):
        """(node, code, side) of each code the rules of nodes splitting
        on feature positions f send left (side 1) or right (2), given the
        ranks split sends; ascending within a side."""
        cat = np.flatnonzero(~self.numeric[f])
        j = self.slot[f[cat]]
        side, i, r = np.nonzero(subsets[:, cat, j])
        return cat[i], self.codes[j[i], r], side + 1


def best_split(
    data: Dataset,
    variables: list[str] | None = None,
    config: CartConfig = CartConfig(),
) -> tuple[dict, float] | None:
    """Best admissible rule for all rows, and its decrease, or None.

    The rule is a dict of a model.json node record's rule fields:
    feature, feature_index, and threshold or the subset and complement
    code lists, the others None.  None means no candidate exists (too
    few rows, no variables, pure node, constant columns) or the best
    decrease falls short of min_gini_decrease.
    """
    scorer = _LevelScorer(data, variables)
    if data.n < 2 or not scorer.specs:
        return None
    dec, f, threshold, subsets = scorer.split(
        scorer.presort(np.arange(data.n)), np.array([data.n]))
    if dec[0] < config.min_gini_decrease:  # -inf when nothing splits
        return None
    spec, t = scorer.specs[f[0]], float(threshold[0])  # NaN unless numeric
    _, codes, side = scorer.named(f, subsets)
    return {"feature": spec.name, "feature_index": spec.index,
            "threshold": None if math.isnan(t) else t,
            "subset": codes[side == 1].tolist() or None,
            "complement": codes[side == 2].tolist() or None}, float(dec[0])


def grow(
    data: Dataset,
    variables: list[str] | None = None,
    config: CartConfig = CartConfig(),
) -> CartTree:
    """Grow a tree level by level from one presort of the rows.

    All nodes of one depth that may split are scored in one pass over
    the level's attribute lists; each list is then sorted stably by
    child, so a node's rows keep the order a stable sort of that node
    alone would give them.  A node becomes a leaf when it is
    homogeneous, no admissible split remains (none when no variable is
    given), it holds fewer than min_node_size rows, or it sits at
    max_depth.  Once growth ends the nodes are numbered in preorder,
    left child first.
    """
    if data.n == 0:
        raise DataError("cannot grow a tree on 0 rows")
    scorer = _LevelScorer(data, variables)
    y = scorer.y
    smallest = max(config.min_node_size, 2)
    # Nodes are made level by level, a split node's two children side by
    # side: sizes[i] is node i's row count and ones[i] its class-1 count.
    # splits holds per level the split nodes' ids, left children, schema
    # feature indices and thresholds; named each (id, code, side) of them.
    sizes = [data.n]
    ones = [float(y.sum())]
    splits, named = [], []
    # The nodes of one depth that may split: ids, row and class-1 counts.
    level, level_n = np.array([0]), np.array([data.n])
    level_ones = np.array(ones)
    if (data.n < smallest or config.max_depth == 0
            or not 0 < ones[0] < data.n or not scorer.specs):
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
        ids = level[split]
        splits.append((ids, child[split], scorer.index[f[split]],
                       threshold[split]))
        i, code, side = scorer.named(f[split], subsets[:, split])
        named += zip(ids[i].tolist(), code.tolist(), side.tolist())
        group_n = np.stack([nl, level_n - nl], axis=1)
        sizes += group_n[split].ravel().tolist()
        ones_left = np.add.reduceat(y[lists[0]] * left, starts)
        group_ones = np.stack([ones_left, level_ones - ones_left], axis=1)
        ones += group_ones[split].ravel().tolist()
        mixed = (group_ones > 0) & (group_ones < group_n)
        depth += 1
        opened = (split[:, None] & mixed & (group_n >= smallest)
                  & (depth < config.max_depth)).ravel()
        # Sort every list stably by child.  Each (node, side) group gets
        # a rank, those of children that may split first, in child order,
        # and the rest one rank after, where they drop out.  A key of 16
        # bits or fewer makes the stable argsort a radix sort.
        group_n = group_n.ravel()
        n_open, kept = int(opened.sum()), int(group_n[opened].sum())
        rank = np.full(group_n.shape[0], n_open,
                       dtype=np.min_scalar_type(n_open))
        rank[opened] = np.arange(n_open)
        rank_of_row = np.empty(data.n, dtype=rank.dtype)
        rank_of_row[lists[0]] = rank[2 * seg + ~left]
        for j, rows in enumerate(lists):
            order = np.argsort(rank_of_row[rows], kind="stable")
            lists[j] = rows[order[:kept]]
        level = np.stack([child, child + 1], axis=1).ravel()[opened]
        level_n = group_n[opened]
        level_ones = group_ones.ravel()[opened]
    return CartTree(**_preorder(sizes, ones, splits, named),
                    schema=data.schema, config=config)


def _preorder(sizes, ones, splits, named) -> dict:
    """The node table's columns, in preorder, of nodes given in making
    order, from what grow gathers.  A left child comes right after its
    parent and a right child after its sibling's subtree."""
    made = len(sizes)
    span = np.ones(made, dtype=np.intp)  # subtree sizes, from the leaves up
    for ids, left, _, _ in reversed(splits):
        span[ids] += span[left] + span[left + 1]
    at = np.zeros(made, dtype=np.intp)  # preorder index of each node
    for ids, left, _, _ in splits:
        at[left], at[left + 1] = at[ids] + 1, at[ids] + 1 + span[left]
    feature, right = np.full((2, made), -1, dtype=np.intp)
    threshold = np.full(made, np.nan)
    for ids, left, f, t in splits:
        feature[at[ids]], right[at[ids]], threshold[at[ids]] = (
            f, at[left + 1], t)
    n, c1 = np.array([sizes, ones], dtype=np.int64)
    counts = np.empty((made, 2), dtype=np.int64)
    counts[at] = np.stack([n - c1, c1], axis=1)
    triples = np.asarray(named, dtype=np.int64).reshape(-1, 3)
    triples[:, 0] = at[triples[:, 0]]
    return dict(feature=feature, threshold=threshold, right=right,
                counts=counts, **_side_table(made, triples))


def _side_table(nodes: int, triples) -> dict:
    """The codes and side columns of a table of the given node count,
    from its (node, code, side) triples: one sort and one scatter."""
    at, codes, sides = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    table, slot = np.unique(codes, return_inverse=True)
    side = np.zeros((nodes, table.shape[0]), dtype=np.int8)
    side[at, slot] = sides
    return dict(codes=table, side=side)


def predict_dataset(tree: CartTree, data: Dataset):
    """Apply the tree to every row; returns (classes, scores) arrays,
    the scores being leaf positive proportions."""
    leaf = _leaf_index(tree, data)
    classes, p1 = assign_leaf(tree.counts.T)  # per node, then per row
    return classes[leaf], p1[leaf]


def _schema_difference(ours: Schema, trained: Schema) -> str:
    """The first feature, else the target, in which a dataset's schema
    differs from a tree's, told on both sides."""
    def told(f):
        if f is None:
            return "absent"
        return f"{f.name!r} ({f.kind}" + (
            f", {f.levels} levels)" if f.kind == CATEGORICAL else ")")
    pairs = zip_longest(ours.features, trained.features)
    for i, (mine, theirs) in enumerate(pairs):
        if mine != theirs:
            return (f"feature {i} is {told(mine)} in the data and "
                    f"{told(theirs)} in the tree")
    return (f"the target is {ours.target!r} in the data and "
            f"{trained.target!r} in the tree")


def _leaf_index(tree: CartTree, data: Dataset) -> np.ndarray:
    """Table index of the leaf each row reaches.

    The dataset schema must match the training schema exactly.  Rows
    step down the tree together: each pass gathers, for every row not
    yet at a leaf, its node's feature, threshold and right child, and a
    categorical value's slot in tree.codes by searchsorted.  A row stops
    at its first node testing a feature it has no value for, or a
    categorical value that is not a whole number within 2**53.  DataError
    then names the lowest such node and there the lowest row, a missing
    value first: what a preorder walk would meet first.  A code that no
    training row of its node held routes right, with one
    SolvencyWarning per feature and code, at the first (row, node).
    """
    if data.schema != tree.schema:
        raise DataError(
            "dataset schema differs from the tree's training schema: "
            + _schema_difference(data.schema, tree.schema))
    names = tree.schema.names
    X, width = data.X.ravel(), data.X.shape[1]
    categorical = np.isnan(tree.threshold) & (tree.feature >= 0)
    # Only a missing cell, or a cell not whole in a column a categorical
    # rule tests, can stop a row; without one no pass looks for them.
    tested = sorted(set(tree.feature[categorical].tolist()))
    check = np.isnan(X).any() or not_whole(data.X[:, tested]).any()
    leaf = np.empty(data.n, dtype=np.intp)
    rows, node = np.arange(data.n), np.zeros(data.n, dtype=np.intp)
    # (node, kind, row) of stopped rows, (row, node, code) of unseen codes
    stops, unseen = [(rows[:0],) * 3], [(rows[:0],) * 3]
    while rows.shape[0]:
        f = tree.feature.take(node)
        done = f < 0
        if done.any():
            leaf[rows[done]] = node[done]
            rows, node, f = rows[~done], node[~done], f[~done]
        values, cat = X.take(rows * width + f), categorical.take(node)
        if check:
            bad = np.isnan(values)
            bad[cat] |= not_whole(values[cat])
            # kind 0: a missing value; kind 1: a categorical one not whole
            stops.append((node[bad], 1 - np.isnan(values[bad]), rows[bad]))
            rows, node, values, cat = (a[~bad] for a in (rows, node, values, cat))
        c = np.flatnonzero(cat)
        code = values[c].astype(np.int64)
        slot = np.searchsorted(tree.codes, code).clip(
            max=tree.codes.shape[0] - 1)
        side = np.where(tree.codes[slot] == code, tree.side[node[c], slot], 0)
        if not side.all():
            new = c[side == 0]
            unseen.append((rows[new], node[new], code[side == 0]))
        left = values <= tree.threshold.take(node)
        left[c] = side == 1
        node = np.where(left, node + 1, tree.right.take(node))
    at, kind, row = (np.concatenate(a) for a in zip(*stops))
    if at.shape[0]:
        first = np.lexsort((row, kind, at))[0]
        j, row = tree.feature[at[first]], row[first]
        if kind[first] == 0:
            raise DataError(f"row {row} has no value for feature "
                            f"{names[j]!r}, which the tree routes on")
        whole_codes(data.X[[row], j], names[j], [row])
    row, node, code = (np.concatenate(a) for a in zip(*unseen))
    order = np.lexsort((node, row))  # the order a row-by-row walk meets
    # one whole number per (feature, code), and its first meeting
    _, rank = np.unique(code, return_inverse=True)
    key = rank * len(names) + tree.feature[node]
    _, first = np.unique(key[order], return_index=True)
    for i in order[np.sort(first)].tolist():
        warnings.warn(f"code {code[i]} of {names[tree.feature[node[i]]]!r} "
                      f"is absent from the training rows of node {node[i]}; "
                      "routing right", SolvencyWarning)
    return leaf


# -- serialization ---------------------------------------------------------


def _json(value) -> str:
    """JSON text of a header value: a float at 17 significant digits,
    anything else as json.dumps writes it (a string escaped to ASCII,
    and an int, also one a config file gave a float field, as an int)."""
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
    config, schema = tree.config, tree.schema
    counts = tree.counts.tolist()
    features = ", ".join(
        f'{{"name": {_json(f.name)}, "kind": {_json(f.kind)}, '
        f'"levels": {_json(f.levels)}}}' for f in schema.features)
    head = (f'{{"format": "{FORMAT_VERSION}", "config": {{'
            f'"min_node_size": {_json(config.min_node_size)}, '
            f'"max_depth": {_json(config.max_depth)}, '
            f'"min_gini_decrease": {_json(config.min_gini_decrease)}, '
            f'"mode": "{CLASSIFICATION}"}}, "schema": {{"features": '
            f'[{features}], "target": {_json(schema.target)}}}, '
            f'"n_training_rows": {sum(counts[0])}, "nodes": [')
    # Python numbers print as JSON, and tolist() gives them
    names = [_json(name) for name in schema.names]
    subsets, complements = _code_lists(tree)
    records = []
    for i, (j, t, (c0, c1), r, c, p) in enumerate(zip(
            tree.feature.tolist(), tree.threshold.tolist(), counts,
            tree.right.tolist(), *_leaf_predictions(tree))):
        n = c0 + c1
        if j < 0:
            records.append(f'{{"n": {n}, "counts": [{c0}, {c1}], "left": null, '
                           f'"right": null, "class": {c}, "p1": {p:.17g}, '
                           '"mean": null}')
            continue
        if i in subsets:
            test = (f'"threshold": null, "subset": {subsets[i]}, '
                    f'"complement": {complements[i]}')
        else:
            test = f'"threshold": {t:.17g}, "subset": null, "complement": null'
        records.append(f'{{"n": {n}, "counts": [{c0}, {c1}], "left": {i + 1}, '
                       f'"right": {r}, "feature": {names[j]}, '
                       f'"feature_index": {j}, {test}}}')
    return head + ", ".join(records) + "]}\n"


def _leaf_predictions(tree: CartTree) -> list[list]:
    """Every node's assign_leaf class and p1 as Python numbers; only a
    leaf's are its prediction."""
    return [a.tolist() for a in assign_leaf(tree.counts.T)]


def _code_lists(tree: CartTree) -> tuple[dict, dict]:
    """The codes each categorical rule sends left and right, as sorted
    lists keyed by node, from one pass over the nonzero cells of side."""
    node, slot = np.nonzero(tree.side)
    lists = ({}, {})
    for i, side, code in zip(node.tolist(), tree.side[node, slot].tolist(),
                             tree.codes[slot].tolist()):
        lists[side - 1].setdefault(i, []).append(code)
    return lists


def _schema_from_doc(doc) -> Schema:
    """The schema section's Schema, refused unless it describes one:
    string names and target, known kinds, whole levels."""
    try:
        specs = [(f["name"], f["kind"], f["levels"]) for f in doc["features"]]
        target = doc["target"]
        if type(target) is not str or not all(
                type(name) is str and (levels is None or type(levels) is int)
                for name, _, levels in specs):
            raise TypeError("names must be strings and levels null or "
                            "whole numbers")
        return Schema([FeatureSpec(*spec) for spec in specs], target)
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"bad schema section: {exc}") from None


def deserialize(text: str) -> CartTree:
    """Rebuild a tree from serialize() output.

    Raises DataError for a foreign format tag and for anything
    structurally wrong, a mode other than classification included,
    naming the offending node index where one exists.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(
            f"not valid JSON at position {exc.pos}: {exc.msg}") from None
    except ValueError as exc:
        # an integer past Python's int-string limit
        raise DataError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DataError("JSON nests too deeply to read") from None
    if not isinstance(doc, dict):
        raise DataError("document root must be an object")
    version = doc.get("format")
    if version is None:
        raise DataError("missing format field")
    if version != FORMAT_VERSION:
        raise DataError(f"expected {FORMAT_VERSION!r}, found {version!r}")
    for key in ("config", "schema", "n_training_rows", "nodes"):
        if key not in doc:
            raise DataError(f"missing {key} field")
    cfg = doc["config"]
    try:
        limits = cfg["min_node_size"], cfg["max_depth"]
        if not (type(limits[0]) is type(limits[1]) is int
                and json_number(cfg["min_gini_decrease"])):
            raise TypeError("min_node_size and max_depth must be whole "
                            "numbers and min_gini_decrease a finite number")
        if cfg["mode"] != CLASSIFICATION:
            raise ValueError(f"mode is {cfg['mode']!r}, not "
                             f"{CLASSIFICATION!r}")
        config = CartConfig(*limits, cfg["min_gini_decrease"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"bad config section: {exc}") from None
    schema = _schema_from_doc(doc["schema"])
    rows = doc["n_training_rows"]
    if type(rows) is not int:
        raise DataError(f"n_training_rows is {rows!r}, not a whole number")
    records = doc["nodes"]
    if not isinstance(records, list) or not records:
        raise DataError("nodes must be a nonempty list")

    feature, threshold, named, right, counts = [], [], [], [], []
    # A depth-first walk, left child first, must meet every node once
    # and in table order: the table is then one tree, in preorder, and
    # each internal node's left child is the next node.
    pending = [0]
    for i, rec in enumerate(records):
        if not pending:
            raise DataError("node list is not a single tree")
        if pending.pop() != i:
            raise DataError(f"node {i} is out of preorder")
        if not isinstance(rec, dict):
            raise DataError(f"node {i} is not an object")
        left, r = rec.get("left"), rec.get("right")
        if (left is None) != (r is None):
            raise DataError(f"node {i} has only one child index")
        try:
            count, c = rec["n"], rec["counts"]
            if type(count) is not int or not (
                    type(c) is list and len(c) == 2
                    and type(c[0]) is type(c[1]) is int):
                raise DataError(
                    f"node {i} has n {count!r} and counts {c!r}, not a whole "
                    "number and two whole numbers")
            if count < 1 or not 0 <= c[0] <= count or c[0] + c[1] != count:
                raise DataError(
                    f"node {i} has n {count} and counts {c}, not n of at "
                    "least 1 and two non-negative counts summing to it")
            if count > 2 ** 53:
                # beyond it int64 counts and float p1 need not be exact
                raise DataError(f"node {i} has n {count}, above 2**53")
            counts.append(c)
            if left is None:
                j, t, triples = -1, math.nan, []
                leaf = (_value(rec, "class", i, "classification leaf"),
                        _value(rec, "p1", i, "classification leaf"))
                if leaf != assign_leaf(c):
                    raise DataError(
                        f"node {i} is a leaf whose class and p1 are "
                        f"{leaf[0]!r} and {leaf[1]!r}, where its counts "
                        f"{c} give {assign_leaf(c)}")
            else:
                for child in (left, r):
                    if not (type(child) is int
                            and i < child < len(records)):
                        raise DataError(
                            f"node {i} child index {child!r} out of range")
                pending += [r, left]
                j, t, triples = _record_rule(rec, i, schema.features)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"node {i}: {exc}") from None
        feature.append(j)
        threshold.append(t)
        named += triples
        right.append(-1 if r is None else r)
    if pending:
        raise DataError(f"node {pending[-1]} referenced twice")
    if rows != sum(counts[0]):
        raise DataError(f"n_training_rows is {rows}, where the "
                        f"root holds {sum(counts[0])} rows")
    counts = np.array(counts, dtype=np.int64)
    right = np.array(right, dtype=np.intp)
    parent = np.flatnonzero(right >= 0)
    bad = parent[(counts[parent] != counts[parent + 1]
                  + counts[right[parent]]).any(axis=1)]
    if bad.shape[0]:
        i, r = bad[0], right[bad[0]]
        raise DataError(
            f"node {i} has counts {counts[i].tolist()}, where its children "
            f"have {counts[i + 1].tolist()} and {counts[r].tolist()}")
    return CartTree(feature=np.array(feature, dtype=np.intp),
                    threshold=np.array(threshold),
                    **_side_table(len(records), named), right=right,
                    counts=counts, schema=schema, config=config)


#: What each value field of a node record must hold, and its test.
_VALUES = {
    "class": ("0 or 1", lambda v: type(v) is int and v in (0, 1)),
    "p1": ("a finite number in [0, 1]",
           lambda v: json_number(v) and 0 <= v <= 1),
    "threshold": ("a finite number", json_number),
    "subset": ("a list of whole numbers",
               lambda v: type(v) is list and all(type(c) is int for c in v)),
}
_VALUES["complement"] = _VALUES["subset"]


def _value(rec: dict, key: str, i: int, node: str):
    """Field key of node i's record, refused unless it holds what
    _VALUES asks; node names what node i is, a rule or a leaf."""
    value = rec.get(key)
    what, valid = _VALUES[key]
    if not valid(value):
        raise DataError(
            f"node {i} is a {node} whose {key!r} is {value!r}, not {what}")
    return value


def _record_rule(rec: dict, i: int, features: tuple) -> tuple:
    """The feature index, threshold (NaN at a categorical rule) and
    (node, code, side) triples (none at a numeric rule) of internal node
    i's record, refused when a value breaks the format or the schema
    contradicts its feature, index or kind."""
    name, j = rec["feature"], rec["feature_index"]
    if type(j) is not int or not 0 <= j < len(features) or (
            features[j].name != name):
        raise DataError(
            f"node {i} routes on feature {name!r} at index {j}, "
            "which the schema does not hold")
    if rec["threshold"] is not None:
        if rec.get("subset") is not None or rec.get("complement") is not None:
            raise DataError(
                f"node {i}: rule needs exactly one of threshold/subset")
        kind, triples = NUMERIC, []
        threshold = float(_value(rec, "threshold", i, "rule"))
    else:
        subset, complement = (_value(rec, key, i, "rule")
                              for key in ("subset", "complement"))
        # as serialize writes them, and codes a data cell can hold
        for key, codes in (("subset", subset), ("complement", complement)):
            if codes != sorted(set(codes)) or codes and not (
                    -2 ** 53 <= codes[0] and codes[-1] <= 2 ** 53):
                raise DataError(
                    f"node {i} is a rule whose {key!r} is {codes!r}, not "
                    "strictly ascending codes within 2**53")
        if not (subset and complement):
            raise DataError(f"node {i}: categorical rule needs nonempty sides")
        if not set(subset).isdisjoint(complement):
            raise DataError(f"node {i}: subset and complement overlap")
        kind, threshold = CATEGORICAL, math.nan
        triples = [(i, c, 1) for c in subset] + [(i, c, 2) for c in complement]
    if features[j].kind != kind:
        raise DataError(
            f"node {i} has a {kind} rule on {features[j].kind} feature "
            f"{name!r}")
    return j, threshold, triples


# -- rendering -------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def node_labels(tree: CartTree) -> list[tuple[str, str]]:
    """(body, stats) of every node: its rule or leaf prediction, then its
    row count and class counts.  tolist() gives Python floats, whose
    repr is the bare number."""
    names = tree.schema.names
    subsets, _ = _code_lists(tree)
    return [(f"leaf class={c} p1={p!r}" if j < 0 else
             f"{names[j]} in {{{', '.join(map(str, subsets[i]))}}}"
             if i in subsets else f"{names[j]} <= {t!r}",
             f"n={c0 + c1} counts=({c0}, {c1})")
            for i, (j, t, (c0, c1), c, p) in enumerate(zip(
                tree.feature.tolist(), tree.threshold.tolist(),
                tree.counts.tolist(), *_leaf_predictions(tree)))]


def export_dot(tree: CartTree,
               labels: list[tuple[str, str]] | None = None) -> str:
    """Graphviz digraph; edges carry True (left) and False (right).
    labels, if given, are the tree's node_labels, rendered once for
    both exports."""
    lines = ["digraph cart {", "  node [shape=box];"]
    for i, (body, stats) in enumerate(labels or node_labels(tree)):
        lines.append(f'  n{i} [label="{_dot_escape(body)}\\n{stats}"];')
    for i, r in enumerate(tree.right.tolist()):
        if r >= 0:
            lines.append(f'  n{i} -> n{i + 1} [label="True"];')
            lines.append(f'  n{i} -> n{r} [label="False"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_text(tree: CartTree,
                labels: list[tuple[str, str]] | None = None) -> str:
    """Indented plain-text outline of the tree, two spaces per level;
    labels as for export_dot."""
    right = tree.right.tolist()
    depths = _depths(right)
    tags = [""] * len(depths)
    lines = []
    for i, ((body, stats), r) in enumerate(zip(labels or node_labels(tree),
                                               right)):
        lines.append(f"{'  ' * depths[i]}{tags[i]}{body} [{stats}]")
        if r >= 0:
            tags[i + 1], tags[r] = "True: ", "False: "
    return "\n".join(lines) + "\n"
