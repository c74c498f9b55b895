"""Seeded synthetic credit-style datasets with a planted decision rule.

Labels are the planted rule's verdict XORed with Bernoulli(noise)
flips.  All randomness comes from numpy's default PCG64 generator
seeded with the synth object's one seed; feature columns are drawn in
schema order, then the flip vector, so equal objects give byte-equal
datasets.  A synth object is the JSON form README documents, and so is
its planted rule (see check_rule).
"""

from __future__ import annotations

import numpy as np

from .dataset import (CATEGORICAL, DEFAULT_CODEBOOK, NUMERIC, Dataset,
                      FeatureSpec, Schema, json_number, schema_from_header)
from .errors import ConfigError


def _is_leaf(rule) -> bool:
    return not isinstance(rule, dict) or "label" in rule


def _label(rule):
    return rule["label"] if isinstance(rule, dict) else rule


def _known_keys(doc: dict, known, owner: str) -> None:
    """ConfigError naming owner and the first key of doc not in known."""
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {owner}")


def check_rule(rule, schema: Schema, depth: int = 0) -> None:
    """Refuse with ConfigError a planted rule not in its JSON form over
    schema's features, or stacking more than 3 splits on a path.  A leaf
    is 0, 1 or {"label": 0 | 1}; a split {"feature", "threshold" |
    "subset", "left", "right"} sends left the rows whose value is at
    most the threshold, or is a code in the subset.  A node with any
    other key is refused."""
    if _is_leaf(rule):
        if isinstance(rule, dict):
            _known_keys(rule, ("label",), "rule leaf")
        label = _label(rule)
        if not (type(label) is int and label in (0, 1)):
            raise ConfigError(
                f"rule leaves must be class 0 or 1, not {label!r}")
        return
    _known_keys(rule, ("feature", "threshold", "subset", "left", "right"),
                f"rule split on {rule.get('feature')!r}")
    if depth == 3:
        raise ConfigError("planted rule depth cannot exceed 3")
    name = rule.get("feature")
    if name not in schema.names:
        raise ConfigError(f"rule references unknown feature {name!r}")
    spec = schema[name]
    if (("threshold" in rule) == ("subset" in rule)
            or "left" not in rule or "right" not in rule):
        raise ConfigError(f"rule split on {name!r} needs 'left', 'right' "
                          "and one of 'threshold' and 'subset'")
    if "threshold" in rule:
        if spec.kind != NUMERIC:
            raise ConfigError(f"threshold rule on categorical {name!r}")
        if not json_number(rule["threshold"]):
            raise ConfigError(f"rule threshold on {name!r} must be a finite "
                              f"number, not {rule['threshold']!r}")
    else:
        if spec.kind != CATEGORICAL:
            raise ConfigError(f"subset rule on numeric {name!r}")
        subset, codes = rule["subset"], _codes_for(spec)
        if not (type(subset) is list
                and all(type(c) is int and c in codes for c in subset)):
            raise ConfigError(
                f"rule subset on {name!r} must be a list of its codes "
                f"{codes.start}..{codes.stop - 1}, not {subset!r}")
    check_rule(rule["left"], schema, depth + 1)
    check_rule(rule["right"], schema, depth + 1)


def planted_labels(rule, columns: dict[str, np.ndarray],
                   n: int) -> np.ndarray:
    """The class a checked planted rule gives each of n rows; columns
    maps each feature it tests to the rows' values."""
    if _is_leaf(rule):
        return np.full(n, _label(rule), dtype=int)
    values = columns[rule["feature"]]
    if "threshold" in rule:
        left = values <= float(rule["threshold"])
    else:
        left = np.isin(values.astype(int), rule["subset"])
    return np.where(left, planted_labels(rule["left"], columns, n),
                    planted_labels(rule["right"], columns, n))


def _codes_for(spec: FeatureSpec) -> range:
    """Two-level features use boolean codes 0/1, wider ones 1..levels."""
    return range(0, 2) if spec.levels == 2 else range(1, spec.levels + 1)


#: Numeric value ranges for the bundled credit-shaped schema.
DEFAULT_RANGES = {
    "CNT_CHILDREN": (0.0, 4.0),
    "AMT_INCOME_TOTAL": (25_000.0, 250_000.0),
    "AMT_CREDIT": (45_000.0, 1_000_000.0),
    "AMT_ANNUITY": (2_000.0, 60_000.0),
    "AMT_GOODS_PRICE": (40_000.0, 900_000.0),
    "CNT_FAM_MEMBERS": (1.0, 7.0),
}

#: Column order of the bundled credit-shaped schema; DEFAULT_CODEBOOK
#: makes the nominal ones categorical with its levels.
DEFAULT_COLUMNS = (
    "NAME_CONTRACT_TYPE", "CODE_GENDER", "FLAG_OWN_CAR", "CNT_CHILDREN",
    "AMT_INCOME_TOTAL", "AMT_CREDIT", "AMT_ANNUITY", "AMT_GOODS_PRICE",
    "NAME_INCOME_TYPE", "NAME_EDUCATION_TYPE", "NAME_FAMILY_STATUS",
    "NAME_HOUSING_TYPE", "CNT_FAM_MEMBERS",
)

#: Depth-2 planted rule: modest income and modest credit mean 1.
DEFAULT_RULE = {"feature": "AMT_INCOME_TOTAL", "threshold": 137_500.0,
                "left": {"feature": "AMT_CREDIT", "threshold": 522_500.0,
                         "left": 1, "right": 0},
                "right": 0}


def _value(doc: dict, key: str, default, kind: type, owner: str = "synth"):
    """doc[key], else default; ConfigError naming the key unless it has
    the JSON type kind: int, float (a finite number, or int), str or list."""
    value = doc.get(key, default)
    if not (json_number(value) if kind is float else type(value) is kind):
        words = {int: "an integer", float: "a finite number",
                 str: "a string", list: "a list"}[kind]
        raise ConfigError(f"{owner} key {key!r} must be {words}, "
                          f"not {value!r}")
    return value


def _schema(doc: dict) -> tuple[Schema, dict[str, tuple[float, float]]]:
    """The schema of a synth object's features and target, and the value
    range of each numeric feature given low or high; the bundled
    credit-shaped features and DEFAULT_RANGES when it lists none."""
    if "features" not in doc:
        features = schema_from_header([*DEFAULT_COLUMNS, "TARGET"], "TARGET",
                                      DEFAULT_CODEBOOK).features
        return (Schema(features, _value(doc, "target", "TARGET", str)),
                DEFAULT_RANGES)
    features, ranges = [], {}
    for f in _value(doc, "features", None, list):
        if not isinstance(f, dict):
            raise ConfigError(f"bad feature entry: {f!r}")
        kind = f.get("kind")
        # an entry of unknown kind is refused for its kind, by FeatureSpec
        reads = (("low", "high") if kind == NUMERIC else ("levels",)
                 if kind == CATEGORICAL else tuple(f))
        _known_keys(f, ("name", "kind", *reads),
                    f"synth feature {f.get('name')!r}")
        name = _value(f, "name", None, str, "synth feature")
        owner = f"synth feature {name!r}"
        if any(g.name == name for g in features):
            raise ConfigError(f"{owner} is listed twice")
        if kind == NUMERIC and ("low" in f or "high" in f):
            ranges[name] = (float(_value(f, "low", 0.0, float, owner)),
                            float(_value(f, "high", 1.0, float, owner)))
        levels = (_value(f, "levels", 2, int, owner)
                  if kind == CATEGORICAL else None)
        features.append(FeatureSpec(name, kind, levels))
    return Schema(features, _value(doc, "target", "TARGET", str)), ranges


def generate(doc: dict) -> Dataset:
    """Draw the dataset a synth object describes, each value of its JSON
    type; omitted parts fall back to the bundled credit-shaped schema,
    DEFAULT_RANGES and DEFAULT_RULE.  A value or key it refuses raises
    ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("synth spec must be a JSON object")
    _known_keys(doc, ("n_rows", "noise", "seed", "features", "target", "rule"),
                "synth object")
    schema, ranges = _schema(doc)
    n = _value(doc, "n_rows", 4000, int)
    noise = float(_value(doc, "noise", 0.0, float))
    seed = _value(doc, "seed", 0, int)
    rule = doc.get("rule", DEFAULT_RULE)
    if n < 1:
        raise ConfigError("n_rows must be positive")
    if not 0.0 <= noise < 0.5:
        raise ConfigError("noise must lie in [0, 0.5)")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 unsigned bits")
    check_rule(rule, schema)
    for name, (low, high) in ranges.items():
        if not low < high:
            raise ConfigError(f"empty range for {name!r}")
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(schema)))
    for f in schema.features:
        if f.kind == NUMERIC:
            X[:, f.index] = rng.uniform(*ranges.get(f.name, (0.0, 1.0)), n)
        else:
            codes = _codes_for(f)
            X[:, f.index] = rng.integers(codes.start, codes.stop, n)
    base = planted_labels(rule, {f.name: X[:, f.index]
                                 for f in schema.features}, n)
    flips = rng.random(n) < noise
    return Dataset(schema, X, np.where(flips, 1 - base, base))
