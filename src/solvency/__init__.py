"""Credit solvency scoring: encode, screen, grow a CART tree, evaluate.

The public surface is re-exported here.  The CLI entry point lives in
solvency.cli, not imported here so ``python -m solvency.cli`` loads it once.
"""

from . import cart, dataset, evaluation, screening, synth
from .cart import (
    CartConfig,
    CartTree,
    best_split,
    deserialize,
    export_dot,
    export_text,
    grow,
    predict_dataset,
    serialize,
)
from .dataset import (
    DEFAULT_CODEBOOK,
    Dataset,
    FeatureSpec,
    OutlierRule,
    Schema,
    apply_codebook,
    class_distribution,
    clean,
    load_codebook,
    load_csv,
    schema_from_header,
    write_csv,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    SolvencyError,
    SolvencyWarning,
)
from .evaluation import (
    auc_se_ci,
    confusion,
    error_rates,
    metrics,
    report_json,
    report_table,
    roc,
)
from .screening import (
    LogisticFit,
    chi_square_sf_1df,
    fit_logistic,
    correlation_text,
    pearson_matrix,
    per_variable_wald,
    screen,
    wald_table,
)
from .synth import generate

__version__ = "0.1.0"

__all__ = [
    "CartConfig", "CartTree", "best_split", "deserialize",
    "export_dot", "export_text", "grow", "predict_dataset", "serialize",
    "DEFAULT_CODEBOOK", "Dataset", "FeatureSpec", "OutlierRule", "Schema",
    "apply_codebook", "class_distribution", "clean", "load_codebook",
    "load_csv", "schema_from_header", "write_csv",
    "ConfigError", "DataError", "NumericError", "SolvencyError",
    "SolvencyWarning",
    "auc_se_ci", "confusion", "error_rates", "metrics", "report_json",
    "report_table", "roc",
    "LogisticFit", "chi_square_sf_1df", "correlation_text", "fit_logistic",
    "pearson_matrix", "per_variable_wald", "screen", "wald_table",
    "generate",
    "cart", "dataset", "evaluation", "screening", "synth",
]
