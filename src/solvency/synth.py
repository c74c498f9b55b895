"""Seeded synthetic credit-style datasets with a planted decision rule.

Labels are the planted rule's verdict XORed with Bernoulli(noise)
flips.  All randomness comes from numpy's default PCG64 generator
seeded with the single spec seed; feature columns are drawn in schema
order, then the flip vector, so equal specs give byte-equal datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CATEGORICAL, NUMERIC, Dataset, FeatureSpec, Schema
from .errors import ConfigError


@dataclass(frozen=True)
class RuleNode:
    """Planted rule tree; label is set on leaves, feature on splits."""

    feature: str | None = None
    threshold: float | None = None
    subset: frozenset[int] | None = None
    left: "RuleNode | None" = None
    right: "RuleNode | None" = None
    label: int | None = None

    @classmethod
    def leaf(cls, label: int) -> "RuleNode":
        return cls(label=label)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def evaluate(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        if self.is_leaf:
            some = next(iter(columns.values()))
            return np.full(some.shape[0], self.label, dtype=int)
        col = columns[self.feature]
        if self.threshold is not None:
            mask = col <= self.threshold
        else:
            mask = np.isin(col.astype(int), sorted(self.subset))
        return np.where(mask, self.left.evaluate(columns),
                        self.right.evaluate(columns))


@dataclass
class SynthSpec:
    """Everything generate() needs; validated on construction."""

    n_rows: int
    schema: Schema
    rule: RuleNode
    noise: float = 0.0
    seed: int = 0
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_rows < 1:
            raise ConfigError("n_rows must be positive")
        if not 0.0 <= self.noise < 0.5:
            raise ConfigError("noise must lie in [0, 0.5)")
        if self.rule.depth() > 3:
            raise ConfigError("planted rule depth cannot exceed 3")
        self._validate_rule(self.rule)
        for name, (low, high) in self.ranges.items():
            spec = self.schema[name]
            if spec.kind != NUMERIC:
                raise ConfigError(f"range given for categorical {name!r}")
            if not low < high:
                raise ConfigError(f"empty range for {name!r}")

    def _validate_rule(self, node: RuleNode) -> None:
        if node.is_leaf:
            if node.label not in (0, 1):
                raise ConfigError("rule leaves must be class 0 or 1")
            return
        try:
            spec = self.schema[node.feature]
        except KeyError:
            raise ConfigError(
                f"rule references unknown feature {node.feature!r}")
        if node.threshold is not None:
            if spec.kind != NUMERIC:
                raise ConfigError(
                    f"threshold rule on categorical {node.feature!r}")
        elif node.subset is not None:
            if spec.kind != CATEGORICAL:
                raise ConfigError(f"subset rule on numeric {node.feature!r}")
            if not node.subset <= set(_codes_for(spec)):
                raise ConfigError(
                    f"rule subset {sorted(node.subset)} outside the codes "
                    f"of {node.feature!r}")
        else:
            raise ConfigError("rule split needs a threshold or a subset")
        if node.left is None or node.right is None:
            raise ConfigError("rule split needs both children")
        self._validate_rule(node.left)
        self._validate_rule(node.right)


def _codes_for(spec: FeatureSpec) -> range:
    """Two-level features use boolean codes 0/1, wider ones 1..levels."""
    return range(0, 2) if spec.levels == 2 else range(1, spec.levels + 1)


def generate(spec: SynthSpec) -> Dataset:
    """Draw the dataset described by spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_rows
    X = np.empty((n, len(spec.schema)))
    for f in spec.schema.features:
        if f.kind == NUMERIC:
            low, high = spec.ranges.get(f.name, (0.0, 1.0))
            X[:, f.index] = rng.uniform(low, high, n)
        else:
            codes = _codes_for(f)
            X[:, f.index] = rng.integers(codes.start, codes.stop, n)
    base = spec.rule.evaluate({f.name: X[:, f.index]
                               for f in spec.schema.features})
    flips = rng.random(n) < spec.noise
    return Dataset(spec.schema, X, np.where(flips, 1 - base, base))


#: Numeric value ranges for the bundled credit-shaped schema.
DEFAULT_RANGES = {
    "CNT_CHILDREN": (0.0, 4.0),
    "AMT_INCOME_TOTAL": (25_000.0, 250_000.0),
    "AMT_CREDIT": (45_000.0, 1_000_000.0),
    "AMT_ANNUITY": (2_000.0, 60_000.0),
    "AMT_GOODS_PRICE": (40_000.0, 900_000.0),
    "CNT_FAM_MEMBERS": (1.0, 7.0),
}


def default_schema() -> Schema:
    """Thirteen features shaped like a credit application table."""
    return Schema([
        FeatureSpec("NAME_CONTRACT_TYPE", CATEGORICAL, levels=2),
        FeatureSpec("CODE_GENDER", CATEGORICAL, levels=2),
        FeatureSpec("FLAG_OWN_CAR", CATEGORICAL, levels=2),
        FeatureSpec("CNT_CHILDREN", NUMERIC),
        FeatureSpec("AMT_INCOME_TOTAL", NUMERIC),
        FeatureSpec("AMT_CREDIT", NUMERIC),
        FeatureSpec("AMT_ANNUITY", NUMERIC),
        FeatureSpec("AMT_GOODS_PRICE", NUMERIC),
        FeatureSpec("NAME_INCOME_TYPE", CATEGORICAL, levels=4),
        FeatureSpec("NAME_EDUCATION_TYPE", CATEGORICAL, levels=4),
        FeatureSpec("NAME_FAMILY_STATUS", CATEGORICAL, levels=5),
        FeatureSpec("NAME_HOUSING_TYPE", CATEGORICAL, levels=6),
        FeatureSpec("CNT_FAM_MEMBERS", NUMERIC),
    ], target="TARGET")


def default_rule() -> RuleNode:
    """Depth-2 planted rule: modest income and modest credit mean 1."""
    return RuleNode(
        feature="AMT_INCOME_TOTAL",
        threshold=137_500.0,
        left=RuleNode(
            feature="AMT_CREDIT",
            threshold=522_500.0,
            left=RuleNode.leaf(1),
            right=RuleNode.leaf(0),
        ),
        right=RuleNode.leaf(0),
    )


def default_spec(n_rows: int = 4000, seed: int = 0,
                 noise: float = 0.0) -> SynthSpec:
    return SynthSpec(
        n_rows=n_rows,
        schema=default_schema(),
        rule=default_rule(),
        noise=noise,
        seed=seed,
        ranges=dict(DEFAULT_RANGES),
    )


def rule_from_doc(doc) -> RuleNode:
    """Planted rule from its JSON form; bare ints are leaves."""
    if isinstance(doc, int):
        return RuleNode.leaf(doc)
    if isinstance(doc, dict) and "label" in doc:
        return RuleNode.leaf(int(doc["label"]))
    if not isinstance(doc, dict) or "feature" not in doc:
        raise ConfigError(f"bad rule node: {doc!r}")
    subset = doc.get("subset")
    return RuleNode(
        feature=doc["feature"],
        threshold=(float(doc["threshold"])
                   if doc.get("threshold") is not None else None),
        subset=frozenset(int(c) for c in subset) if subset is not None else None,
        left=rule_from_doc(doc["left"]),
        right=rule_from_doc(doc["right"]),
    )


def spec_from_doc(doc: dict) -> SynthSpec:
    """SynthSpec from a JSON object; omitted parts fall back to the
    bundled credit-shaped defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("synth spec must be a JSON object")
    if "features" in doc:
        features = []
        ranges = {}
        for f in doc["features"]:
            try:
                name, kind = f["name"], f["kind"]
            except (KeyError, TypeError):
                raise ConfigError(f"bad feature entry: {f!r}") from None
            if kind == NUMERIC:
                features.append(FeatureSpec(name, NUMERIC))
                if "low" in f or "high" in f:
                    ranges[name] = (float(f.get("low", 0.0)),
                                    float(f.get("high", 1.0)))
            elif kind == CATEGORICAL:
                features.append(
                    FeatureSpec(name, CATEGORICAL,
                                levels=int(f.get("levels", 2))))
            else:
                raise ConfigError(f"unknown feature kind {kind!r}")
        schema = Schema(features, doc.get("target", "TARGET"))
    else:
        schema = default_schema()
        ranges = dict(DEFAULT_RANGES)
    rule = (rule_from_doc(doc["rule"]) if "rule" in doc else default_rule())
    try:
        return SynthSpec(
            n_rows=int(doc.get("n_rows", 4000)),
            schema=schema,
            rule=rule,
            noise=float(doc.get("noise", 0.0)),
            seed=int(doc.get("seed", 0)),
            ranges=ranges,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth spec: {exc}") from None
