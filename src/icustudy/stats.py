"""Self-contained statistical kernel.

Five-number summaries, one-way and two-way ANOVA F-ratios, chi-squared and
t tests, and the tail probabilities they need.  The two-way analysis follows
the naive unweighted cell-means decomposition (equal stratum weights,
harmonic-mean cell size) rather than a regression-based type II/III scheme;
this keeps every sum of squares non-negative and makes the identity

    S_cells = S1_A + S1_B + S1_AB

hold exactly even in heavily unbalanced layouts.  Two namings are carried
for the two-way F's: primary = treatment main effect, secondary =
treatment x subclass interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import (
    AllCellsEmptyForTreatment,
    EmptyInput,
    InvalidDof,
    NumericError,
    ZeroMarginal,
    ZeroVariance,
)


@dataclass(frozen=True)
class FiveNumber:
    min: float
    q1: float
    median: float
    q3: float
    max: float

    def as_tuple(self):
        return (self.min, self.q1, self.median, self.q3, self.max)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    dof: tuple
    flag: str | None = None


@dataclass(frozen=True)
class AnovaResult:
    """Two-way 2xK result: primary = main effect, secondary = interaction."""

    f_primary: float
    f_secondary: float
    dof_primary: tuple
    dof_secondary: tuple
    ss: dict
    warnings: tuple = field(default=())

    @property
    def dof(self):
        """(between, within) for each F, flattened to four integers."""
        return self.dof_primary + self.dof_secondary


# --- tail probabilities ------------------------------------------------------


def chi2_tail(statistic: float, df: float) -> float:
    """Upper-tail probability of a chi-squared distribution."""
    if df <= 0:
        raise InvalidDof(f"chi-squared dof must be positive, got {df}")
    if statistic <= 0:
        return 1.0
    return float(special.gammaincc(df / 2.0, statistic / 2.0))


def t_tail_two_sided(statistic: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if df <= 0:
        raise InvalidDof(f"t dof must be positive, got {df}")
    t2 = statistic * statistic
    return float(special.betainc(df / 2.0, 0.5, df / (df + t2)))


def f_tail(statistic: float, d1: float, d2: float) -> float:
    """Upper-tail probability of an F distribution."""
    if d1 <= 0 or d2 <= 0:
        raise InvalidDof(f"F dofs must be positive, got ({d1}, {d2})")
    if statistic <= 0:
        return 1.0
    return float(special.betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * statistic)))


def normal_tail_two_sided(statistic: float) -> float:
    return float(special.erfc(abs(statistic) / np.sqrt(2.0)))


def evidence_band(p: float) -> str:
    """Qualitative evidence label for a p-value.

    >0.1 absence; (0.05,0.1] weak; (0.01,0.05] moderate; [0.001,0.01] strong;
    <0.001 very strong evidence against the null hypothesis.
    """
    if not np.isfinite(p):  # NaN would fall through every comparison to "very strong"
        raise NumericError(f"p-value must be finite, got {p}")
    if p > 0.1:
        return "absence"
    if p > 0.05:
        return "weak"
    if p > 0.01:
        return "moderate"
    if p >= 0.001:
        return "strong"
    return "very strong"


# --- summaries ---------------------------------------------------------------


def five_number_summary(xs) -> FiveNumber:
    """Min, lower quartile, median, upper quartile, max.

    Quartiles interpolate linearly at positions 1 + (n-1) * q.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise EmptyInput("five_number_summary needs at least one value")
    q = np.quantile(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
    return FiveNumber(*(float(v) for v in q))


# --- ANOVA -------------------------------------------------------------------


def one_way_anova(groups) -> TestResult:
    """F test that several group means are equal.

    F = (S1 / (k-1)) / (S2 / (n-k)) with S1 the between-group and S2 the
    within-group sum of squares.  Degenerate layouts (S2 == 0) are flagged
    rather than raised: F is +inf when the groups differ, NaN when every
    value is identical.

    Groups may also be (n_g, m) matrices, m columns analysed in one call:
    the statistic and p-value are then length-m arrays and `flag` holds one
    flag per column.  Each group's column is summed as a C-contiguous row,
    so every column's F is bit-equal to its own one-column call.
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2 or any(len(a) == 0 for a in arrays):
        raise EmptyInput("one_way_anova needs at least two non-empty groups")
    n = sum(len(a) for a in arrays)
    k = len(arrays)
    if n <= k:
        raise EmptyInput("one_way_anova needs more observations than groups")
    rows = [np.ascontiguousarray(a.reshape(len(a), -1).T) for a in arrays]  # (m, n_g)
    means = [r.mean(axis=1) for r in rows]
    grand = sum(r.sum(axis=1) for r in rows) / n
    s1 = sum(r.shape[1] * (m - grand) ** 2 for r, m in zip(rows, means))
    s2 = sum(((r - m[:, None]) ** 2).sum(axis=1) for r, m in zip(rows, means))
    dof = (k - 1, n - k)
    tol = _ss_noise_floor(np.concatenate(rows, axis=1))
    out = []
    for ss1, ss2, floor in zip(s1.tolist(), s2.tolist(), tol.tolist()):
        if not ss2 <= floor:  # a NaN is not degenerate
            f = (ss1 / dof[0]) / (ss2 / dof[1])
            out.append((f, f_tail(f, *dof), None))
        elif ss1 <= floor:
            out.append((float("nan"), float("nan"), "degenerate"))
        else:
            out.append((float("inf"), 0.0, "degenerate"))
    if arrays[0].ndim == 1:  # one column: floats and one flag
        f, p, flag = out[0]
        return TestResult(f, p, dof, flag)
    f, p, flags = zip(*out)
    return TestResult(np.array(f), np.array(p), dof, flags)


def _ss_noise_floor(values: np.ndarray):
    """Sums of squares below this are rounding noise, not variation: one
    floor per row of `values`, a NaN counting as magnitude 1."""
    scale = np.fmax(np.max(np.abs(values), axis=-1), 1.0)
    return values.shape[-1] * (1e-9 * scale) ** 2


def _safe_f(ss_num, dof_num: int, ss_den, dof_den: int, tol) -> tuple:
    """Per column: F, and the warning of the column that has one, else None."""
    if dof_num <= 0 or dof_den <= 0:
        return np.full(ss_num.shape, np.nan), ["degenerate dof"] * len(ss_num)
    zero = ss_den <= tol
    differs = zero & (ss_num > tol)
    with np.errstate(divide="ignore", invalid="ignore"):  # the zero columns are set below
        # tiny negative numerators are rounding noise from the decomposition
        f = np.maximum(ss_num, 0.0) / dof_num / (ss_den / dof_den)
    f = np.where(zero, np.where(differs, np.inf, 0.0), f)
    return f, [("zero within-cell variance" if d else None) for d in differs.tolist()]


def two_way_anova_2xk(values, treatment, subclass) -> AnovaResult:
    """Two-way 2 x K analysis of variance on an unbalanced layout.

    Parameters
    ----------
    values : array of observations, or an (n, m) matrix of m columns of them
    treatment : binary labels (two distinct values)
    subclass : stratum labels (K >= 2 distinct values)

    Unweighted cell-means decomposition: row/column effects are computed
    from cell means with equal stratum weight and scaled by the harmonic
    mean cell size; the error term is the pooled within-cell sum of
    squares.  Strata missing one treatment arm are dropped from the
    analysis and reported in `warnings`.

    A matrix is analysed column by column in one pass: the F's and sums of
    squares are then length-m arrays and `warnings` holds one tuple per
    column.  Each cell is summed as a C-contiguous row per column, so its
    mean is bit-equal to the mean of that column's cell alone.
    """
    values = np.asarray(values, dtype=float)
    treatment = np.asarray(treatment)
    subclass = np.asarray(subclass)
    if values.ndim > 2 or not (values.shape[:1] == treatment.shape == subclass.shape):
        raise EmptyInput("values, treatment and subclass must have equal length")
    t_levels = np.unique(treatment)
    s_levels = np.unique(subclass)
    if t_levels.size != 2:
        raise EmptyInput(f"treatment must have exactly two levels, got {t_levels.size}")
    if s_levels.size < 2:
        raise EmptyInput("subclass must have at least two levels")

    warnings: list[str] = []
    rows = []  # of the cells (0, s), (1, s) of each complete stratum s
    for s in s_levels:
        in_s = subclass == s
        a, b = (np.flatnonzero(in_s & (treatment == t)) for t in t_levels)
        if a.size == 0 or b.size == 0:
            warnings.append(f"stratum {s} has an empty treatment arm; excluded")
            continue
        rows += [a, b]
    if not rows:
        raise AllCellsEmptyForTreatment("no stratum has observations in both arms")

    columns = np.ascontiguousarray(values.reshape(len(values), -1).T)  # (m, n)
    used = np.ascontiguousarray(columns[:, np.concatenate(rows)])
    bounds = np.cumsum([0] + [r.size for r in rows])
    cells = [used[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    kk = len(cells) // 2
    cell_mean = [c.mean(axis=1) for c in cells]
    # harmonic mean cell size over the 2*K complete cells
    n_h = (2 * kk) / sum(1.0 / r.size for r in rows)

    row_mean = [np.stack(cell_mean[i::2], axis=1).mean(axis=1) for i in (0, 1)]
    col_mean = [(a + b) / 2.0 for a, b in zip(cell_mean[0::2], cell_mean[1::2])]
    grand = (row_mean[0] + row_mean[1]) / 2.0

    s1_a = n_h * kk * sum((m - grand) ** 2 for m in row_mean)
    s1_b = n_h * 2 * sum((m - grand) ** 2 for m in col_mean)
    s_cells = n_h * sum((m - grand) ** 2 for m in cell_mean)
    s1_ab = s_cells - s1_a - s1_b
    s2 = sum(((c - m[:, None]) ** 2).sum(axis=1) for c, m in zip(cells, cell_mean))
    total = ((columns - columns.mean(axis=1)[:, None]) ** 2).sum(axis=1)

    dof_err = used.shape[1] - 2 * kk
    tol = _ss_noise_floor(used)
    f_primary, warn_primary = _safe_f(s1_a, 1, s2, dof_err, tol)
    f_secondary, warn_secondary = _safe_f(s1_ab, kk - 1, s2, dof_err, tol)
    ss = {"total": total, "s_cells": s_cells, "s1_a": s1_a, "s1_b": s1_b, "s1_ab": s1_ab, "s2_within": s2}
    warned = tuple((*warnings, *(w for w in pair if w)) for pair in zip(warn_primary, warn_secondary))
    if values.ndim == 1:  # one column: floats and one tuple of warnings
        f_primary, f_secondary, warned = float(f_primary[0]), float(f_secondary[0]), warned[0]
        ss = {name: float(v[0]) for name, v in ss.items()}
    return AnovaResult(f_primary, f_secondary, (1, dof_err), (kk - 1, dof_err), ss, warned)


# --- classical tests ----------------------------------------------------------


def chi_squared_2x2(counts) -> TestResult:
    """Pearson chi-squared test of homogeneity on a 2x2 count table, without
    continuity correction."""
    o = np.asarray(counts, dtype=float)
    if o.shape != (2, 2) or (o < 0).any():
        raise EmptyInput("chi_squared_2x2 needs a 2x2 table of non-negative counts")
    rows = o.sum(axis=1)
    cols = o.sum(axis=0)
    n = o.sum()
    if (rows <= 0).any() or (cols <= 0).any():
        raise ZeroMarginal("chi-squared table has a zero marginal")
    e = np.outer(rows, cols) / n
    stat = float(((o - e) ** 2 / e).sum())
    return TestResult(stat, chi2_tail(stat, 1), (1,))


def t_test_two_sample(a, b) -> TestResult:
    """Welch's two-sided two-sample t test: no equal-variance assumption,
    Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise EmptyInput("t test needs at least two observations per group")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    denom2 = va + vb
    if denom2 <= 0:
        raise ZeroVariance("both groups have zero variance")
    stat = (a.mean() - b.mean()) / np.sqrt(denom2)
    df = denom2**2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    return TestResult(float(stat), t_tail_two_sided(stat, df), (float(df),))
