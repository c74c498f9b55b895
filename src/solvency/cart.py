"""Binary CART: Gini-driven growing, prediction, and serialization.

Splits are binary.  Numeric features are cut at midpoints between
consecutive distinct values (left means value <= threshold); categorical
features are cut by code subsets (left means code in subset), with every
nontrivial bipartition of the codes present at the node enumerated.
Candidates are ranked by impurity decrease with a deterministic
tie-break: lowest feature index first, then lowest threshold, then
lexicographically smallest sorted code subset.

Classification impurity is Gini, 1 - sum(p_i^2); regression mode uses
the population variance of the target instead and predicts leaf means.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    ClassDistribution,
    Dataset,
    Schema,
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

    def goes_left(self, value) -> bool:
        if self.is_numeric:
            return float(value) <= self.threshold
        return int(value) in self.subset

    def describe(self) -> str:
        if self.is_numeric:
            return f"{self.feature} <= {self.threshold!r}"
        codes = ", ".join(str(c) for c in sorted(self.subset))
        return f"{self.feature} in {{{codes}}}"


@dataclass
class TreeNode:
    """Internal node (rule plus two children) or leaf (prediction)."""

    n: int
    counts: tuple[int, int] | None = None
    rule: SplitRule | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    predicted_class: int | None = None
    positive_proportion: float | None = None
    mean: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None

    def walk(self):
        """Preorder traversal."""
        yield self
        if not self.is_leaf:
            yield from self.left.walk()
            yield from self.right.walk()


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
    """Grown tree plus everything needed to apply or rebuild it."""

    root: TreeNode
    fingerprint: tuple
    config: CartConfig
    n_training_rows: int

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    def depth(self) -> int:
        def d(node):
            return 0 if node.is_leaf else 1 + max(d(node.left), d(node.right))
        return d(self.root)

    def predict(self, row) -> tuple[int, float]:
        """Route one feature row; returns (class, positive proportion)."""
        if self.config.mode != CLASSIFICATION:
            raise ValueError("predict() needs a classification tree")
        leaf = self._route(row)
        return leaf.predicted_class, leaf.positive_proportion

    def predict_value(self, row) -> float:
        """Regression counterpart of predict: the leaf mean."""
        if self.config.mode != REGRESSION:
            raise ValueError("predict_value() needs a regression tree")
        return self._route(row).mean

    def _route(self, row) -> TreeNode:
        expected = len(self.fingerprint) - 1
        if len(row) != expected:
            raise SchemaMismatchError(
                f"row has {len(row)} values, tree expects {expected}")
        node = self.root
        while not node.is_leaf:
            rule = node.rule
            value = row[rule.feature_index]
            if not rule.is_numeric:
                code = int(value)
                if code not in rule.subset and code not in rule.complement:
                    warnings.warn(
                        f"code {code} of {rule.feature!r} never seen in "
                        "training; routing right", UnseenCategoryWarning)
            node = node.left if rule.goes_left(value) else node.right
        return node


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
# bit.  Keep products spelled as multiplication, not **.  Sums of real
# targets must also keep their order: prefix sums run in stable sorted
# order, per-code sums are np.sum over the code's rows in row order, and
# a subset sums its codes in ascending order starting from 0.0.

#: Code subsets are scored 2**_BLOCK_BITS masks per column at a time,
#: which bounds memory; the time stays exponential in the level count.
_BLOCK_BITS = 12
_NO_KEY = np.iinfo(np.int64).max


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


def _lattice(start, v):
    """Subset sums of the q codes in each row of v: entry R of a row is
    start plus v[c] for every code c whose bit q-1-c is set in R, added
    in ascending code order."""
    k, q = v.shape
    out = np.empty((k, 1 << q))
    out[:, 0] = start
    for c in range(q):
        view = out.reshape(k, 1 << c, 2, 1 << (q - 1 - c))
        view[:, :, 1, 0] = view[:, :, 0, 0] + v[:, c, None]
    return out


class _NodeEvaluator:
    """Best split of any set of rows over a fixed set of feature columns.

    Built once per tree.  Numeric columns form one matrix and are scored
    together from one stable sort per node.  Categorical codes become
    dense ranks, which keep their order, offset per column so that one
    bincount counts every column's codes.  Code subsets are masks over
    the ranks with rank c at bit levels-1-c; in that layout
    popcount - mask - lowest set bit orders masks as their sorted code
    tuples order lexicographically.
    """

    def __init__(self, data: Dataset, variables, mode: str):
        names = list(variables) if variables is not None else data.schema.names
        self.specs = sorted((data.schema[n] for n in names),
                            key=lambda s: s.index)
        self.classification = mode == CLASSIFICATION
        self.y = (data.binary_target().astype(float) if self.classification
                  else data.target_array())
        matrix = data.feature_array([s.name for s in self.specs])
        numeric = np.array([s.kind == NUMERIC for s in self.specs], dtype=bool)
        self.num = np.flatnonzero(numeric)
        self.cat = np.flatnonzero(~numeric)
        self.values = matrix[:, self.num]
        found = [np.unique(matrix[:, j], return_inverse=True) for j in self.cat]
        self.codes = [codes.astype(int) for codes, _ in found]
        self.levels = max((len(codes) for codes in self.codes), default=1)
        self.ranks = np.empty((data.n, len(found)), dtype=np.intp)
        for c, (_, inverse) in enumerate(found):
            self.ranks[:, c] = inverse.ravel() + c * self.levels
        self.bits = 1 << (self.levels - 1 - np.arange(self.levels))
        self.block = min(self.levels, _BLOCK_BITS)
        self.low = np.arange(1 << self.block)
        self.low_popcount = _lattice(0.0, np.ones((1, self.block)))[0].astype(int)

    def split(self, idx):
        """(decrease, rule, mask of the rows sent left) for the best split
        of the rows idx, or None when they are homogeneous or no column
        separates them.  Ties go to the lowest feature index, then the
        lowest threshold, then the smallest sorted code subset."""
        n = idx.shape[0]
        if n < 2:
            return None
        y = self.y[idx]
        stats = [y] if self.classification else [y, y * y]
        parent = _impurity(n, *[s.sum() for s in stats])
        if parent <= 0.0:
            return None
        best = np.full(len(self.specs), -np.inf)
        if self.num.size:
            v = self.values[idx]
            order = np.argsort(v, axis=0, kind="mergesort")
            v = np.take_along_axis(v, order, axis=0)
            sums = [np.cumsum(s[order], axis=0) for s in stats]
            dec = _decrease(parent, n, np.arange(1.0, n)[:, None],
                            [s[:-1] for s in sums], [s[-1] for s in sums])
            dec = np.where(v[1:] > v[:-1], dec, -np.inf)
            cut = dec.argmax(axis=0)
            best[self.num] = dec[cut, np.arange(self.num.size)]
        if self.cat.size:
            ranks = self.ranks[idx]
            best[self.cat], masks, present = self._subsets(
                ranks, stats, n, parent)
        f = int(best.argmax())
        if best[f] == -np.inf:
            return None
        spec = self.specs[f]
        if spec.kind == NUMERIC:
            j = int(np.searchsorted(self.num, f))
            threshold = float((v[cut[j], j] + v[cut[j] + 1, j]) / 2.0)
            rule = SplitRule(spec.name, spec.index, threshold=threshold)
            return float(best[f]), rule, self.values[idx, j] <= threshold
        j = int(np.searchsorted(self.cat, f))
        side = (masks[j] & self.bits) != 0
        codes = self.codes[j]
        here = present[j, :codes.shape[0]]
        lside = side[:codes.shape[0]]
        rule = SplitRule(spec.name, spec.index,
                         subset=frozenset(codes[here & lside].tolist()),
                         complement=frozenset(codes[here & ~lside].tolist()))
        return float(best[f]), rule, side[ranks[:, j] - j * self.levels]

    def _subsets(self, ranks, stats, n, parent):
        """Best decrease and mask of each categorical column, and which
        codes of each are present, from the node's offset ranks."""
        k, levels = self.cat.size, self.levels
        flat = ranks.ravel()
        counts = np.bincount(flat, minlength=k * levels).reshape(k, levels)
        present = counts > 0
        if self.classification:
            sums = [np.bincount(flat, np.repeat(stats[0], k),
                                k * levels).reshape(k, levels)]
            totals = [stats[0].sum()]
        else:
            sums = [np.zeros((k, levels)), np.zeros((k, levels))]
            for c, r in zip(*np.nonzero(present)):
                rows = stats[0][ranks[:, c] == c * levels + r]
                sums[0][c, r], sums[1][c, r] = np.sum(rows), np.sum(rows * rows)
            totals = [np.array([s[c, present[c]].sum() for c in range(k)])[:, None]
                      for s in sums]
        table = np.concatenate([counts.astype(float)] + sums)
        q = self.block
        heads = _lattice(0.0, table[:, :levels - q])
        have = present @ self.bits
        absent = ((1 << levels) - 1) ^ have
        first = self.bits[present.argmax(axis=1)]
        best = np.full(k, -np.inf)
        best_key = np.full(k, _NO_KEY)
        best_mask = np.zeros(k, dtype=np.int64)
        for h in range(heads.shape[1]):
            masks = (h << q) + self.low
            nl, *left = _lattice(heads[:, h], table[:, levels - q:]).reshape(
                len(sums) + 1, k, -1)
            valid = ((masks & absent[:, None] == 0)
                     & (masks & first[:, None] != 0) & (masks != have[:, None]))
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = np.where(valid, _decrease(parent, n, nl, left, totals),
                               -np.inf)
            key = self.low_popcount + h.bit_count() - masks - (masks & -masks)
            top = dec.max(axis=1)
            pick = np.where(dec == top[:, None], key, _NO_KEY).argmin(axis=1)
            better = (top > best) | ((top == best) & (key[pick] < best_key))
            best = np.where(better, top, best)
            best_key = np.where(better, key[pick], best_key)
            best_mask = np.where(better, masks[pick], best_mask)
        return best, best_mask, present


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
    idx = np.arange(data.n) if indices is None else np.asarray(indices)
    found = _NodeEvaluator(data, variables, config.mode).split(idx)
    if found is None or found[0] < config.min_gini_decrease:
        return None
    return found[1], found[0]


def grow(
    data: Dataset,
    variables: list[str] | None = None,
    config: CartConfig = CartConfig(),
) -> CartTree:
    """Grow a tree by recursive partitioning.

    A node becomes a leaf when it is homogeneous, no admissible split
    remains, it holds fewer than min_node_size rows, or it sits at
    max_depth.
    """
    if data.n == 0:
        raise EmptyDatasetError("cannot grow a tree on 0 rows")
    search = _NodeEvaluator(data, variables, config.mode)
    y = search.y

    def build(idx, depth) -> TreeNode:
        n = idx.shape[0]
        counts = None
        if search.classification:
            c1 = int(y[idx].sum())
            counts = (n - c1, c1)
        found = None
        if n >= config.min_node_size and depth < config.max_depth:
            found = search.split(idx)
        # A midpoint that rounds onto its upper boundary value would
        # sweep every row to one side; refuse rather than recurse.
        if (found is not None and found[0] >= config.min_gini_decrease
                and 0 < int(found[2].sum()) < n):
            _, rule, left = found
            return TreeNode(n=n, counts=counts, rule=rule,
                            left=build(idx[left], depth + 1),
                            right=build(idx[~left], depth + 1))
        if counts is None:
            return TreeNode(n=n, mean=float(y[idx].mean()))
        predicted, p1 = assign_leaf(counts)
        return TreeNode(n=n, counts=counts, predicted_class=predicted,
                        positive_proportion=p1)

    root = build(np.arange(data.n), 0)
    return CartTree(root=root, fingerprint=data.schema.fingerprint(),
                    config=config, n_training_rows=data.n)


def predict_dataset(tree: CartTree, data: Dataset):
    """Apply the tree to every row; returns (classes, scores) arrays.

    Scores are leaf positive proportions.  The dataset schema must
    match the training schema exactly.  Rows are routed together, one
    index partition per node.  A row that reaches a rule on a feature
    it has no value for raises DataError naming the row and feature;
    a missing value in a feature its path never tests is harmless.
    """
    if data.schema.fingerprint() != tree.fingerprint:
        raise SchemaMismatchError(
            "dataset schema differs from the tree's training schema")
    if tree.config.mode != CLASSIFICATION:
        raise ValueError("predict() needs a classification tree")
    classes = np.empty(data.n, dtype=int)
    scores = np.empty(data.n, dtype=float)
    columns: dict[int, np.ndarray] = {}
    unseen: dict[str, tuple[int, int]] = {}
    stack = [(tree.root, np.arange(data.n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if node.is_leaf:
            classes[idx] = node.predicted_class
            scores[idx] = node.positive_proportion
            continue
        rule = node.rule
        j = rule.feature_index
        if j not in columns:
            columns[j] = np.array([np.nan if row[j] is None else row[j]
                                   for row in data.rows], dtype=float)
        values = columns[j][idx]
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
                first = (int(idx[never_seen & (values == code)][0]), depth)
                unseen[msg] = min(unseen.get(msg, first), first)
        stack.append((node.right, idx[~left], depth + 1))
        stack.append((node.left, idx[left], depth + 1))
    # warn in the order a row-by-row walk would first meet each code
    for msg in sorted(unseen, key=unseen.get):
        warnings.warn(msg, UnseenCategoryWarning)
    return classes, scores


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
    nodes = list(tree.root.walk())
    index = {id(node): i for i, node in enumerate(nodes)}
    records = []
    for node in nodes:
        rec = {
            "n": node.n,
            "counts": list(node.counts) if node.counts is not None else None,
            "left": index[id(node.left)] if node.left is not None else None,
            "right": index[id(node.right)] if node.right is not None else None,
        }
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

    nodes = [_record_to_node(rec, i) for i, rec in enumerate(records)]
    referenced = set()
    for i, rec in enumerate(records):
        left, right = rec.get("left"), rec.get("right")
        if (left is None) != (right is None):
            raise MalformedDocumentError(
                f"node {i} has only one child index")
        if left is not None:
            for child in (left, right):
                if not isinstance(child, int) or not i < child < len(records):
                    raise MalformedDocumentError(
                        f"node {i} child index {child!r} out of range")
                if child in referenced:
                    raise MalformedDocumentError(
                        f"node {child} referenced twice")
                referenced.add(child)
            nodes[i].left = nodes[left]
            nodes[i].right = nodes[right]
    if referenced != set(range(1, len(records))):
        raise MalformedDocumentError("node list is not a single tree")
    features = fingerprint[:-1]
    for i, node in enumerate(nodes):
        if node.rule is not None:
            _check_rule(node.rule, features, i)
    return CartTree(root=nodes[0], fingerprint=fingerprint, config=config,
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


def _record_to_node(rec, i: int) -> TreeNode:
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
            return TreeNode(n=int(rec["n"]), counts=counts, rule=rule)
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
    nodes = list(tree.root.walk())
    index = {id(node): i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        body, stats = _node_label(node)
        lines.append(f'  n{i} [label="{_dot_escape(body)}\\n{stats}"];')
    for i, node in enumerate(nodes):
        if not node.is_leaf:
            lines.append(
                f'  n{i} -> n{index[id(node.left)]} [label="True"];')
            lines.append(
                f'  n{i} -> n{index[id(node.right)]} [label="False"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_text(tree: CartTree) -> str:
    """Indented plain-text outline of the tree."""
    lines: list[str] = []

    def emit(node: TreeNode, prefix: str, tag: str):
        body, stats = _node_label(node)
        lines.append(f"{prefix}{tag}{body} [{stats}]")
        if not node.is_leaf:
            emit(node.left, prefix + "  ", "True: ")
            emit(node.right, prefix + "  ", "False: ")

    emit(tree.root, "", "")
    return "\n".join(lines) + "\n"
