"""Variable screening ahead of tree growing.

Two elimination passes over the candidate explanatory variables:

1. significance: a logistic model is fitted by iteratively reweighted
   least squares, each coefficient gets a Wald statistic (B/SE)^2 with
   one degree of freedom, and variables whose p-value exceeds alpha
   are dropped;
2. redundancy: among the survivors, every pair whose absolute Pearson
   correlation reaches the threshold loses its later-schema member.

The survivors feed the CART stage.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _quoted
from .errors import (
    DataError,
    SingularMatrixError,
    SolvencyWarning,
    ZeroVarianceError,
)

#: |coefficient| above which the fit is treated as quasi-separated.
SEPARATION_GUARD = 15.0

#: Condition number (after equilibration) above which the weighted
#: information matrix is declared singular; catches constant and
#: duplicated columns, which only reach exact singularity up to
#: rounding.
_COND_LIMIT = 1e12


class SeparationWarning(SolvencyWarning):
    """A logistic coefficient ran away; the data are likely separable."""


class ConvergenceWarning(SolvencyWarning):
    """IRLS used up its iterations before the coefficients settled."""


@dataclass
class LogisticFit:
    """Result of an IRLS logistic regression.

    coefficients and standard_errors align with variables; the
    intercept is the last entry of each array.
    """

    variables: list[str]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float
    separation: bool = False


def logistic_log_likelihood(X: np.ndarray, y: np.ndarray,
                            beta: np.ndarray) -> float:
    """Bernoulli log-likelihood at beta; X already carries the
    intercept column."""
    eta = X @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def logistic_gradient(X: np.ndarray, y: np.ndarray,
                      beta: np.ndarray) -> np.ndarray:
    """Score vector X'(y - p) of the log-likelihood."""
    p = _expit(X @ beta)
    return X.T @ (y - p)


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fit_logistic_xy(
    X: np.ndarray,
    y: np.ndarray,
    variables: list[str],
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
    guard: float = SEPARATION_GUARD,
) -> LogisticFit:
    """IRLS on an explicit design matrix (intercept column appended here).

    Newton steps solve (X'WX) d = X'(y - p) with W = diag(p(1-p));
    convergence means the largest coefficient change fell below tol.
    Standard errors are the square roots of the diagonal of the inverse
    information matrix at the final coefficients.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("design matrix and target lengths disagree")
    if X.shape[1] != len(variables):
        raise ValueError("one name per design column is required")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic target must be 0/1")
    n, k = X.shape
    if n <= k + 1:
        # reachable from the CLI with a too-small CSV, so a data error
        raise DataError(f"{n} rows cannot support {k + 1} coefficients")

    design = np.column_stack([X, np.ones(n)])
    beta = np.zeros(k + 1)
    converged = False
    separated = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = _expit(design @ beta)
        w = p * (1.0 - p)
        info = design.T @ (design * w[:, None])
        _check_invertible(info)
        step = np.linalg.solve(info, design.T @ (y - p))
        beta = beta + step
        if np.any(np.abs(beta) > guard):
            separated = True
            warnings.warn(
                "coefficient magnitude exceeded "
                f"{guard}; data look quasi-separated", SeparationWarning)
            break
        if float(np.max(np.abs(step))) < tol:
            converged = True
            break
    if not converged and not separated:
        warnings.warn(
            f"IRLS did not converge in {iterations} iterations; the "
            "coefficients are not final", ConvergenceWarning)

    p = _expit(design @ beta)
    w = p * (1.0 - p)
    info = design.T @ (design * w[:, None])
    _check_invertible(info)
    covariance = np.linalg.inv(info)
    se = np.sqrt(np.diag(covariance))
    return LogisticFit(
        variables=list(variables),
        coefficients=beta,
        standard_errors=se,
        iterations=iterations,
        converged=converged,
        log_likelihood=logistic_log_likelihood(design, y, beta),
        separation=separated,
    )


def _check_invertible(info: np.ndarray) -> None:
    """Scale-invariant near-singularity test.

    The raw condition number of X'WX grows with the squared column
    scales (monetary columns reach 1e6), so the matrix is equilibrated
    first: S = D (X'WX) D with D = diag(1/sqrt(diagonal)).  An all-zero
    column shows up as a zero diagonal entry and is singular outright.
    """
    diag = np.diag(info)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        raise SingularMatrixError(
            "information matrix is singular (all-zero column?)")
    d = 1.0 / np.sqrt(diag)
    cond = np.linalg.cond(info * np.outer(d, d))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            "information matrix is singular (constant or duplicated column?)")


def fit_logistic(
    data: Dataset,
    variables: list[str] | None = None,
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
    guard: float = SEPARATION_GUARD,
) -> LogisticFit:
    """Fit the binary target on the named feature columns jointly."""
    names = list(variables) if variables is not None else data.schema.names
    X = data.feature_array(names)
    y = data.binary_target().astype(float)
    return fit_logistic_xy(X, y, names, max_iter=max_iter, tol=tol,
                           guard=guard)


CONSTANT_ROW = "constant"


@dataclass(frozen=True)
class WaldRow:
    """One line of the significance table."""

    variable: str
    b: float
    se: float
    wald: float
    ddl: int
    sig: float


def chi_square_sf_1df(x: float) -> float:
    """Survival function of a chi-square with one degree of freedom.

    P(X > x) = erfc(sqrt(x/2)); erfc keeps absolute error well under
    1e-10 across the whole domain.
    """
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def wald_table(fit: LogisticFit) -> list[WaldRow]:
    """Wald statistic and p-value per coefficient, intercept row last."""
    rows = []
    names = fit.variables + [CONSTANT_ROW]
    for name, b, se in zip(names, fit.coefficients, fit.standard_errors):
        wald = 0.0 if b == 0.0 else (b / se) ** 2
        rows.append(WaldRow(
            variable=name,
            b=float(b),
            se=float(se),
            wald=float(wald),
            ddl=1,
            sig=chi_square_sf_1df(float(wald)),
        ))
    return rows


def per_variable_wald(
    data: Dataset,
    variables: list[str] | None = None,
    *,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> list[WaldRow]:
    """One single-variable fit per candidate, slope rows only.

    Alternative to the joint fit for comparing against outputs produced
    by one-at-a-time univariate workflows; intercepts are refitted each
    time and not reported.
    """
    names = list(variables) if variables is not None else data.schema.names
    rows = []
    for name in names:
        fit = fit_logistic(data, [name], max_iter=max_iter, tol=tol)
        rows.append(wald_table(fit)[0])
    return rows


def wald_rows_to_text(rows: list[WaldRow]) -> str:
    """Delimited table: variable,B,SE,wald,ddl,sig."""
    lines = ["variable,B,SE,wald,ddl,sig"]
    names = _quoted([r.variable for r in rows])
    for name, r in zip(names, rows):
        lines.append(f"{name},{r.b!r},{r.se!r},{r.wald!r},{r.ddl},{r.sig!r}")
    return "\n".join(lines) + "\n"


@dataclass
class CorrelationMatrix:
    """Pairwise Pearson correlations over a fixed variable order."""

    names: list[str]
    values: np.ndarray

    def r(self, a: str, b: str) -> float:
        return float(self.values[self.names.index(a), self.names.index(b)])

    def pairs(self):
        """(name_i, name_j, r) over the upper triangle, i < j."""
        for i in range(len(self.names)):
            for j in range(i + 1, len(self.names)):
                yield self.names[i], self.names[j], float(self.values[i, j])

    def to_text(self) -> str:
        names = _quoted(self.names)
        lines = ["," + ",".join(names)]
        for i, name in enumerate(names):
            cells = ",".join(repr(float(v)) for v in self.values[i])
            lines.append(f"{name},{cells}")
        return "\n".join(lines) + "\n"


def pearson_matrix(data: Dataset, variables: list[str] | None = None,
                   ) -> CorrelationMatrix:
    """Population-moment Pearson correlations between feature columns.

    The upper triangle is computed once and mirrored, the diagonal is
    written as exactly 1, and rounding excursions are clipped back into
    [-1, 1].
    """
    names = list(variables) if variables is not None else data.schema.names
    X = data.feature_array(names)
    n, k = X.shape
    if n < 2:
        raise ZeroVarianceError(names[0] if names else "<none>")
    centered = X - X.mean(axis=0)
    sd = np.sqrt(np.mean(centered ** 2, axis=0))
    for j, name in enumerate(names):
        if sd[j] == 0.0:
            raise ZeroVarianceError(name)
    values = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = float(np.mean(centered[:, i] * centered[:, j])
                      / (sd[i] * sd[j]))
            r = min(1.0, max(-1.0, r))
            values[i, j] = r
            values[j, i] = r
    return CorrelationMatrix(names, values)


REASON_NOT_SIGNIFICANT = "not_significant"
REASON_CORRELATED = "correlated"


def screen(
    wald_rows: list[WaldRow],
    corr: CorrelationMatrix,
    *,
    alpha: float = 0.05,
    r_threshold: float = 0.8,
) -> dict:
    """Apply the two elimination passes; return the screening.json
    object: alpha, r-threshold, the kept names in matrix order, and one
    record per dropped variable in the order it was dropped,
    {"name", "reason", "sig"} or {"name", "reason", "partner", "r"}.

    Significance first: sig > alpha drops the variable (so a NaN sig
    keeps it).  Then each surviving pair with |r| >= r_threshold drops
    its second member in the matrix order (pairs are visited in
    upper-triangle order, and a pair is skipped when either member is
    already gone).
    """
    sig_by_name = {row.variable: row.sig for row in wald_rows
                   if row.variable != CONSTANT_ROW}
    if set(sig_by_name) != set(corr.names):
        raise ValueError(
            "wald rows and correlation matrix cover different variables: "
            f"{sorted(set(sig_by_name) ^ set(corr.names))}")

    dropped = [{"name": name, "reason": REASON_NOT_SIGNIFICANT,
                "sig": sig_by_name[name]}
               for name in corr.names if sig_by_name[name] > alpha]
    alive = dict.fromkeys(corr.names, True)
    alive.update((d["name"], False) for d in dropped)
    for a, b, r in corr.pairs():
        if alive[a] and alive[b] and abs(r) >= r_threshold:
            alive[b] = False
            dropped.append({"name": b, "reason": REASON_CORRELATED,
                            "partner": a, "r": r})
    return {"alpha": alpha, "r-threshold": r_threshold,
            "kept": [name for name in corr.names if alive[name]],
            "dropped": dropped}
