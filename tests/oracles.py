"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python loops and formula
transcriptions, no shared code with the library under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from icustudy.cohort import ELIX_BINARY_FIELDS
from icustudy.errors import DataError, InvalidSpec
from icustudy.evoml import GpConfig, GpRun
from icustudy.group import PatientKey, StudyGroup
from icustudy.synth import ATTRITION_KINDS, SynthManifest, SynthSpec


# --- order statistics -----------------------------------------------------------


def five_number_oracle(xs):
    s = sorted(float(v) for v in xs)
    n = len(s)

    def at(p):
        pos = (n - 1) * p
        lo = math.floor(pos)
        hi = math.ceil(pos)
        return s[lo] + (pos - lo) * (s[hi] - s[lo])

    return (s[0], at(0.25), at(0.5), at(0.75), s[-1])


# --- ANOVA ---------------------------------------------------------------------


def one_way_f_oracle(groups):
    """F from the raw definitional sums: S1 between, S2 within."""
    all_values = [v for g in groups for v in g]
    n = len(all_values)
    k = len(groups)
    grand = sum(all_values) / n
    s1 = 0.0
    s2 = 0.0
    for g in groups:
        m = sum(g) / len(g)
        s1 += len(g) * (m - grand) ** 2
        for v in g:
            s2 += (v - m) ** 2
    return (s1 / (k - 1)) / (s2 / (n - k))


def two_way_f_oracle(values, treatment, subclass):
    """Step-by-step 2 x K unweighted cell-means ANOVA.

    Follows the published 15-step recipe: build the cells, take the
    unweighted grand and marginal means of cell means, form the
    between-group sums of squares for each factor, subtract to get the
    interaction sum of squares, and divide by the pooled within-cell
    error.  (The recipe's printed within-term difference for the
    interaction is always negative as written; the usable error term for
    both ratios is the within-cell sum of squares.)

    Returns (f_primary, f_secondary) or raises ValueError when no stratum
    holds both treatment arms.
    """
    # Step 1: collect the cells of the two-way layout, strata complete in
    # both arms only.
    t_levels = sorted(set(treatment))
    s_levels = sorted(set(subclass))
    assert len(t_levels) == 2
    cells = {}
    complete = []
    for s in s_levels:
        a = [v for v, t, c in zip(values, treatment, subclass) if c == s and t == t_levels[0]]
        b = [v for v, t, c in zip(values, treatment, subclass) if c == s and t == t_levels[1]]
        if a and b:
            cells[(0, s)] = a
            cells[(1, s)] = b
            complete.append(s)
    if not complete:
        raise ValueError("no complete stratum")
    kk = len(complete)

    def mean(vs):
        return sum(vs) / len(vs)

    cell_means = {key: mean(vs) for key, vs in cells.items()}
    # harmonic mean cell size shared by every between-group term
    n_h = (2 * kk) / sum(1.0 / len(vs) for vs in cells.values())

    # Step 2: overall mean of the cell means.
    m = sum(cell_means.values()) / (2 * kk)
    # Steps 3-4: treatment-row means of cell means.
    m_a = [mean([cell_means[(i, s)] for s in complete]) for i in (0, 1)]
    # Step 5: between-groups sum of squares for the treatment factor.
    s1_a = n_h * kk * sum((ma - m) ** 2 for ma in m_a)
    # Steps 6-7-8 give the treatment F once the error term is known.
    # Step 9: repeat for the subclass factor.
    m_b = {s: mean([cell_means[(0, s)], cell_means[(1, s)]]) for s in complete}
    s1_b = n_h * 2 * sum((mb - m) ** 2 for mb in m_b.values())
    # Step 10: between-groups sum of squares over all 2K cells.
    s_bw = n_h * sum((cm - m) ** 2 for cm in cell_means.values())
    # Step 11: interaction sum of squares by subtraction.
    s1_ab = s_bw - s1_a - s1_b
    # Steps 12-13: pooled within-cell error.
    s_wi = 0.0
    n = 0
    for vs in cells.values():
        cm = mean(vs)
        n += len(vs)
        for v in vs:
            s_wi += (v - cm) ** 2
    # Steps 14-15: form both ratios.
    dof_err = n - 2 * kk
    f_primary = (s1_a / 1.0) / (s_wi / dof_err)
    f_secondary = (s1_ab / (kk - 1)) / (s_wi / dof_err)
    return f_primary, f_secondary


# The 2 x K ANOVA of one column as `stats.two_way_anova_2xk` computed it
# before it took a matrix of columns: a dict of cells, scalar cell means and
# Python sums over them.


def _ss_noise_floor(values: np.ndarray) -> float:
    """Sums of squares below this are rounding noise, not variation."""
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    return values.size * (1e-9 * scale) ** 2


def _safe_f(ss_num: float, dof_num: int, ss_den: float, dof_den: int, tol: float, warnings: list) -> float:
    if dof_num <= 0 or dof_den <= 0:
        warnings.append("degenerate dof")
        return float("nan")
    if ss_den <= tol:
        if ss_num <= tol:
            return 0.0
        warnings.append("zero within-cell variance")
        return float("inf")
    # tiny negative numerators are rounding noise from the decomposition
    return max(ss_num, 0.0) / dof_num / (ss_den / dof_den)


def two_way_anova_2xk_oracle(values, treatment, subclass):
    """Two-way 2 x K analysis of variance on an unbalanced layout.

    Parameters
    ----------
    values : array of observations
    treatment : binary labels (two distinct values)
    subclass : stratum labels (K >= 2 distinct values)

    Unweighted cell-means decomposition: row/column effects are computed
    from cell means with equal stratum weight and scaled by the harmonic
    mean cell size; the error term is the pooled within-cell sum of
    squares.  Strata missing one treatment arm are dropped from the
    analysis and reported in `warnings`.
    """
    from icustudy.errors import AllCellsEmptyForTreatment, EmptyInput
    from icustudy.stats import AnovaResult

    values = np.asarray(values, dtype=float)
    treatment = np.asarray(treatment)
    subclass = np.asarray(subclass)
    if not (values.shape == treatment.shape == subclass.shape):
        raise EmptyInput("values, treatment and subclass must have equal length")
    t_levels = np.unique(treatment)
    s_levels = np.unique(subclass)
    if t_levels.size != 2:
        raise EmptyInput(f"treatment must have exactly two levels, got {t_levels.size}")
    if s_levels.size < 2:
        raise EmptyInput("subclass must have at least two levels")

    warnings: list[str] = []
    cells = {}
    complete = []
    for s in s_levels:
        in_s = subclass == s
        a = values[in_s & (treatment == t_levels[0])]
        b = values[in_s & (treatment == t_levels[1])]
        if a.size == 0 or b.size == 0:
            warnings.append(f"stratum {s} has an empty treatment arm; excluded")
            continue
        cells[(0, s)] = a
        cells[(1, s)] = b
        complete.append(s)
    if not complete:
        raise AllCellsEmptyForTreatment("no stratum has observations in both arms")

    kk = len(complete)
    n_used = sum(c.size for c in cells.values())
    cell_mean = {key: c.mean() for key, c in cells.items()}
    # harmonic mean cell size over the 2*K complete cells
    n_h = (2 * kk) / sum(1.0 / c.size for c in cells.values())

    row_mean = [np.mean([cell_mean[(i, s)] for s in complete]) for i in (0, 1)]
    col_mean = {s: (cell_mean[(0, s)] + cell_mean[(1, s)]) / 2.0 for s in complete}
    grand = (row_mean[0] + row_mean[1]) / 2.0

    s1_a = n_h * kk * sum((m - grand) ** 2 for m in row_mean)
    s1_b = n_h * 2 * sum((m - grand) ** 2 for m in col_mean.values())
    s_cells = n_h * sum((m - grand) ** 2 for m in cell_mean.values())
    s1_ab = s_cells - s1_a - s1_b
    s2 = sum(((c - c.mean()) ** 2).sum() for c in cells.values())
    total = float(((values - values.mean()) ** 2).sum())

    dof_err = n_used - 2 * kk
    dof_primary = (1, dof_err)
    dof_secondary = (kk - 1, dof_err)
    tol = _ss_noise_floor(np.concatenate([c for c in cells.values()]))
    f_primary = _safe_f(s1_a, 1, s2, dof_err, tol, warnings)
    f_secondary = _safe_f(s1_ab, kk - 1, s2, dof_err, tol, warnings)

    return AnovaResult(
        f_primary=float(f_primary),
        f_secondary=float(f_secondary),
        dof_primary=dof_primary,
        dof_secondary=dof_secondary,
        ss={
            "total": total,
            "s_cells": float(s_cells),
            "s1_a": float(s1_a),
            "s1_b": float(s1_b),
            "s1_ab": float(s1_ab),
            "s2_within": float(s2),
        },
        warnings=tuple(warnings),
    )


# The quintile split as `propensity.stratify_quintiles` made it before one
# lexsort: a sort of positions by a (score, key) lambda.


def stratify_quintiles_oracle(scores, keys, n_strata=5):
    """Rank patients by score and cut into contiguous equal blocks.

    Block sizes follow the largest-remainder rule with remainders going to
    the highest quintiles; ties in score are broken by patient key so the
    split is deterministic.  Returns the quintile of each patient: one
    key-lambda sort and a loop over the block positions.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n < n_strata:
        raise ValueError(f"need at least {n_strata} patients, got {n}")
    order = sorted(range(n), key=lambda i: (scores[i], keys[i]))
    base, rem = divmod(n, n_strata)
    sizes = [base] * n_strata
    for q in range(n_strata - rem, n_strata):
        sizes[q] += 1
    assignment = np.zeros(n, dtype=int)
    pos = 0
    for q, size in enumerate(sizes, start=1):
        assignment[order[pos : pos + size]] = q
        pos += size
    return assignment


# --- simple tests -----------------------------------------------------------------


def chi2_2x2_oracle(table):
    """Sum of (O - E)^2 / E by direct arithmetic."""
    r0 = table[0][0] + table[0][1]
    r1 = table[1][0] + table[1][1]
    c0 = table[0][0] + table[1][0]
    c1 = table[0][1] + table[1][1]
    n = r0 + r1
    stat = 0.0
    for i, row_total in ((0, r0), (1, r1)):
        for j, col_total in ((0, c0), (1, c1)):
            e = row_total * col_total / n
            stat += (table[i][j] - e) ** 2 / e
    return stat


def welch_t_oracle(a, b):
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    va = sum((v - ma) ** 2 for v in a) / (len(a) - 1)
    vb = sum((v - mb) ** 2 for v in b) / (len(b) - 1)
    se2 = va / len(a) + vb / len(b)
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1))
    return t, df


# --- tail probabilities by adaptive quadrature ------------------------------------------


def chi2_tail_quadrature(stat, df):
    import mpmath

    df = mpmath.mpf(df)
    norm = mpmath.power(2, df / 2) * mpmath.gamma(df / 2)
    density = lambda x: mpmath.power(x, df / 2 - 1) * mpmath.e ** (-x / 2) / norm
    return float(mpmath.quad(density, [stat, mpmath.inf]))


def t_tail_two_sided_quadrature(stat, df):
    import mpmath

    df = mpmath.mpf(df)
    norm = mpmath.gamma((df + 1) / 2) / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
    density = lambda x: norm * mpmath.power(1 + x * x / df, -(df + 1) / 2)
    return float(2 * mpmath.quad(density, [abs(stat), mpmath.inf]))


def f_tail_quadrature(stat, d1, d2):
    import mpmath

    d1 = mpmath.mpf(d1)
    d2 = mpmath.mpf(d2)
    norm = (
        mpmath.power(d1 / d2, d1 / 2)
        * mpmath.gamma((d1 + d2) / 2)
        / (mpmath.gamma(d1 / 2) * mpmath.gamma(d2 / 2))
    )
    density = lambda x: norm * mpmath.power(x, d1 / 2 - 1) * mpmath.power(
        1 + d1 * x / d2, -(d1 + d2) / 2
    )
    return float(mpmath.quad(density, [stat, mpmath.inf]))


# --- joins ------------------------------------------------------------------------


def nested_loop_join(ids, values):
    """Quadratic reference join: for each id key, one full scan of the value
    keys for the first row with that key; -1 where there is none."""
    return [next((j for j, key in enumerate(values) if key == k), -1) for k in ids]


# --- lexicon search -----------------------------------------------------------------


def mentions_drug_oracle(text):
    """One regex search per diuretic lexicon entry, each hit checked for a
    non-alphanumeric character (or the text's edge) on both sides."""
    from icustudy.cohort import DEFAULT_DIURETIC_LEXICON

    lowered = text.lower()
    for entry in DEFAULT_DIURETIC_LEXICON:
        for m in re.finditer(re.escape(entry), lowered):
            before = lowered[m.start() - 1] if m.start() > 0 else " "
            after = lowered[m.end()] if m.end() < len(lowered) else " "
            if not before.isalnum() and not after.isalnum():
                return True
    return False


# --- model terms -------------------------------------------------------------------
# The term type that variable-index tuples replaced: a kind string, up to
# two indices, and a per-kind branch for its label, its design column and
# its place in the candidate order.


@dataclass(frozen=True)
class ModelTermOracle:
    kind: str  # "intercept" | "main" | "square" | "interaction"
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.kind == "intercept":
            if self.i is not None or self.j is not None:
                raise DataError("intercept takes no indices")
        elif self.kind in ("main", "square"):
            if not self.i or self.j is not None:
                raise DataError(f"{self.kind} term needs exactly one index")
        elif self.kind == "interaction":
            if not self.i or not self.j:
                raise DataError("interaction term needs two indices")
            if self.i > self.j:
                raise DataError("interaction indices must satisfy i <= j")
            if self.i == self.j:
                raise DataError("use a square term for i == j")
        else:
            raise DataError(f"unknown term kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "intercept":
            return "1"
        if self.kind == "main":
            return f"x{self.i}"
        if self.kind == "square":
            return f"x{self.i}*x{self.i}"
        return f"x{self.i}*x{self.j}"

    def indices(self) -> tuple:
        if self.kind == "intercept":
            return ()
        if self.kind in ("main", "square"):
            return (self.i,)
        return (self.i, self.j)


#: the old term constructors, by the form name of each
TERM_ORACLE = {
    "intercept": lambda: ModelTermOracle("intercept"),
    "main": lambda i: ModelTermOracle("main", i),
    "square": lambda i: ModelTermOracle("square", i),
    "interaction": lambda i, j: (
        ModelTermOracle("square", i) if i == j else ModelTermOracle("interaction", min(i, j), max(i, j))
    ),
}


def term_oracle(term: tuple) -> ModelTermOracle:
    """The old term of a variable-index tuple."""
    if not term:
        return TERM_ORACLE["intercept"]()
    return TERM_ORACLE["main"](*term) if len(term) == 1 else TERM_ORACLE["interaction"](*term)


def design_matrix_oracle(terms, group) -> np.ndarray:
    """The design columns of old terms, one per-kind branch each."""
    cols = []
    for term in terms:
        if term.kind == "intercept":
            cols.append(np.ones(group.n))
        elif term.kind == "main":
            cols.append(group.col(term.i))
        elif term.kind == "square":
            cols.append(group.col(term.i) ** 2)
        else:
            cols.append(group.col(term.i) * group.col(term.j))
    return np.column_stack(cols) if cols else np.empty((group.n, 0))


def candidate_order_oracle(terms) -> list:
    """Variable-index tuples in stepwise order, ranked by their old terms'
    kinds: mains by index, then squares, then interactions (i, j)."""
    rank = {"main": 0, "square": 1, "interaction": 2}
    return sorted(terms, key=lambda t: (rank[term_oracle(t).kind],) + term_oracle(t).indices())


# --- logistic fit ---------------------------------------------------------------------


def unstandardize_oracle(coef_std, cov_std, mu, sigma):
    """Coefficients and covariance in original units, the transform
    matrix built one column at a time."""
    p = coef_std.size
    a = np.zeros((p, p))
    a[0, 0] = 1.0
    for j in range(1, p):
        a[j, j] = 1.0 / sigma[j]
        a[0, j] = -mu[j] / sigma[j]
    coef = a @ coef_std
    cov = a @ cov_std @ a.T if cov_std is not None else None
    return coef, cov


def _log_likelihood_oracle(y: np.ndarray, mu: np.ndarray) -> float:
    # one log per row: for 0/1 y the two-term sum adds only a signed zero
    mu = np.clip(mu, 1e-12, 1.0 - 1e-12)
    return float(np.log(np.where(y > 0, mu, 1.0 - mu)).sum())


def fit_logistic_design_oracle(design: np.ndarray, y: np.ndarray, names) -> "LogitFit":
    """The single-design Newton (IRLS) fit as it was before every fit went
    through the batched trial-fit kernel: its own loop, scipy's expit and
    a full z' W z information per iteration.  It shares the rank check,
    the standardization and `LogitFit` with the library, which are not
    what it checks, and reads MAX_ITER and the other limits from
    `icustudy.regress` at call time, so a patched limit applies to it too.

    One rule differs from the kernel: when all 40 step-halving trials are
    rejected it takes beta + 0.5**40 step but keeps the log-likelihood of
    the 0.5**39 trial."""
    from scipy.special import expit

    from icustudy import regress
    from icustudy.regress import LogitFit, _check_rank, _standardize

    y = np.asarray(y, dtype=float)
    if design.shape[0] != y.size:
        raise DataError("design and outcome lengths differ")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("logistic outcome must be coded 0/1")
    names = list(names)
    _check_rank(design, names)
    z, mu_c, sigma_c = _standardize(design)

    beta = np.zeros(z.shape[1])
    p = expit(z @ beta)  # the probabilities at beta, carried from each accepted step
    ll = _log_likelihood_oracle(y, p)
    wz = np.empty_like(z)
    iterations = 0
    converged = False
    separation = False
    for iterations in range(1, regress.MAX_ITER + 1):
        grad = z.T @ (y - p)
        if np.max(np.abs(grad)) < regress.GRADIENT_TOL:
            converged = True
            iterations -= 1
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        h = z.T @ np.multiply(w[:, None], z, out=wz)
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, grad, rcond=None)[0]
        # step-halving keeps the likelihood monotone
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            p = expit(z @ candidate)
            ll_new = _log_likelihood_oracle(y, p)
            if ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        else:  # no trial accepted: take the last halving, not the last trial
            candidate = beta + scale * step
            p = expit(z @ candidate)
        beta = candidate
        ll = ll_new
        if np.max(np.abs(beta)) > regress.SEPARATION_BOUND:
            separation = True
            break
    else:
        iterations = regress.MAX_ITER

    grad = z.T @ (y - p)
    if not separation and np.max(np.abs(grad)) < regress.GRADIENT_TOL:
        converged = True
    w = np.clip(p * (1.0 - p), 1e-12, None)
    h = z.T @ np.multiply(w[:, None], z, out=wz)
    try:
        cov_std = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        cov_std = np.linalg.pinv(h)
    coef, cov = unstandardize_oracle(beta, cov_std, mu_c, sigma_c)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return LogitFit(
        coefficients=coef,
        standard_errors=se,
        log_likelihood=_log_likelihood_oracle(y, expit(design @ coef)),
        iterations=iterations,
        converged=converged and not separation,
        separation=separation,
        term_names=names,
        n_obs=y.size,
    )


# --- stepwise selection -------------------------------------------------------------

STEPWISE_TIE_TOL = 1e-9


def forward_pass_oracle(group, y, spec, candidates, p_enter):
    """One forward phase the per-candidate way: every trial design goes
    through `fit_logistic_design_oracle` on its own.  Gains within
    STEPWISE_TIE_TOL * max(1, |ll_current|) of the best are ties, won by
    the earliest candidate (mains by index, then squares, then
    interactions)."""
    from icustudy.errors import RankDeficient
    from icustudy.stats import chi2_tail

    def fit(spec):
        return fit_logistic_design_oracle(spec.design_matrix(group), y, spec.term_names())

    current = spec
    current_ll = fit(current).log_likelihood
    remaining = candidate_order_oracle(candidates)
    while remaining:
        gains = []
        for term in list(remaining):
            try:
                trial = fit(current.with_term(term))
            except RankDeficient:
                remaining.remove(term)
                continue
            if trial.converged:
                gains.append((trial.log_likelihood - current_ll, term, trial.log_likelihood))
        if not gains:
            break
        best = max(g for g, _, _ in gains)
        tol = STEPWISE_TIE_TOL * max(1.0, abs(current_ll))
        gain, term, ll = next(g for g in gains if g[0] >= best - tol)
        if chi2_tail(2.0 * max(gain, 0.0), 1) >= p_enter or gain <= 0.0:
            break
        current = current.with_term(term)
        current_ll = ll
        remaining.remove(term)
    return current


def stepwise_oracle(group, candidates, y, p_enter=0.05):
    """Two-phase forward selection built on `forward_pass_oracle`."""
    from icustudy.regress import ModelSpec, interaction, main, square

    spec = forward_pass_oracle(group, y, ModelSpec([]), [main(i) for i in candidates], p_enter)
    survivors = spec.main_indices()
    if not survivors:
        return spec
    phase2 = [square(i) for i in survivors]
    phase2 += [interaction(a, b) for k, a in enumerate(survivors) for b in survivors[k + 1 :]]
    return forward_pass_oracle(group, y, spec, phase2, p_enter)


# --- per-record study rows ------------------------------------------------------------
#
# The study-row assembly as it was before the cohort became one table:
# records carrying an attribute dict (`cohort_records`), one `_by_day` pass
# per timeline, dicts of daily values, and one `build_row_values` list per
# record.


class Record:
    """A patient of the cohort with its joined extracts as attributes."""

    def __init__(self, ident, attrs):
        self.ident = ident
        self.subject_id, self.hadm_id, self.icustay_id = ident
        self.attrs = attrs

    def key(self):
        from icustudy.group import PatientKey

        return PatientKey(*self.ident)


def cohort_records(cohort):
    """One Record per record of `cohort`, its attributes filled from its
    joined rows, as `load_extracts` once attached them: a timeline as its
    (offset, value) rows in a list, a flag as whether it joined, the
    Elixhauser binaries as one tuple, any other extract's first row spread
    over its value names; None where the record joined no row."""
    from helpers import EXTRACT_VALUES
    from icustudy.cohort import TIMELINE_EXTRACTS

    records = []
    for r, ident in enumerate(cohort.idents()):
        attrs = {}
        for name, joined in cohort.extracts.items():
            run = int(joined.run[r])
            rows = joined.table[joined.bounds[run] : joined.bounds[run + 1]].tolist() if run >= 0 else None
            names = EXTRACT_VALUES.get(name, (name,))
            if name in TIMELINE_EXTRACTS:
                attrs[name] = None if rows is None else [tuple(row) for row in rows]
            elif not joined.table.shape[1]:  # a flag
                attrs[name] = rows is not None
            elif name == "elixhauser_binary":
                attrs[name] = None if rows is None else tuple(rows[0])
            else:
                attrs.update(zip(names, rows[0] if rows else [None] * len(names)))
        records.append(Record(ident, attrs))
    return records


HOURS_PER_DAY = 24.0


def _by_day(samples) -> dict:
    """Day -> that day's values, in (offset, value) order; every sample must
    have a finite offset >= 0 and a finite value."""
    from icustudy.errors import DataError

    pairs = []
    for off, val in samples:
        off, val = float(off), float(val)
        if not math.isfinite(off) or off < 0:
            raise DataError(f"timeline offset must be finite and >= 0, got {off}")
        if not math.isfinite(val):
            raise DataError(f"timeline value must be finite, got {val}")
        pairs.append((off, val))
    out: dict = {}
    for off, val in sorted(pairs):
        out.setdefault(int(off // HOURS_PER_DAY) + 1, []).append(val)
    return out


def daily_median(samples) -> dict:
    """Day -> median of that day's samples; days without samples are absent."""
    return {day: statistics.median(vals) for day, vals in _by_day(samples).items()}


def daily_sum(samples) -> dict:
    """Day -> sum of that day's samples (amounts); absent when empty."""
    return {day: float(np.sum(vals)) for day, vals in _by_day(samples).items()}


def _block(daily: dict, t1: int, t2: int, t3: int) -> list:
    """(mean over the days of 1..t1 present, day 1, day t1, day t2, day t3)."""
    first = [daily[d] for d in range(1, t1 + 1) if d in daily]
    mean = float(np.mean(first)) if first else None
    return [mean, daily.get(1), daily.get(t1), daily.get(t2), daily.get(t3)]


def _binary(value, name):
    from icustudy.errors import DataError

    if value is None:
        return None
    if value not in (-1.0, 1.0):
        raise DataError(f"{name} must be -1 or +1, got {value}")
    return float(value)


def decision_timepoint(first_dose_day: int | None, default_untreated: int = 4) -> int:
    """Day of the treatment decision: actual first-dose day when treated,
    the configured default otherwise."""
    if default_untreated < 1:
        raise DataError("default decision day must be >= 1")
    if first_dose_day is not None:
        if first_dose_day < 1:
            raise DataError("first dose day must be >= 1")
        return int(first_dose_day)
    return int(default_untreated)


def build_row_values(rec, options) -> list:
    """The 58 per-patient values (None where unavailable), in x order.

    The checks run in one fixed order (first dose, age, gender, race, the
    median timelines, the Elixhauser score, the Elixhauser binaries,
    fluids, the other binaries, length of stay), so a record with several
    faults is always rejected for the same one.
    """
    from icustudy.cohort import ELIX_BINARY_FIELDS
    from icustudy.errors import DataError

    attrs = rec.attrs
    first_dose_hours = attrs.get("first_dose_hours")
    treated = first_dose_hours is not None
    if treated and not math.isfinite(first_dose_hours):
        raise DataError(f"first dose hours must be finite, got {first_dose_hours}")
    first_dose_day = int(first_dose_hours // HOURS_PER_DAY) + 1 if treated else None
    if treated and first_dose_day >= 2**63:
        raise DataError(f"first dose day must be < 2**63, got {first_dose_hours // HOURS_PER_DAY + 1}")
    days = (decision_timepoint(first_dose_day, options.t1_default), options.t2, options.t3)
    age = attrs.get("age")
    if age is not None and not math.isfinite(age):
        raise DataError(f"age must be finite, got {age}")

    gender = _binary(attrs.get("gender"), "gender")
    race = _binary(attrs.get("race"), "race")
    saps, sofa, creatinine, bp, bp_mean = [
        _block(daily_median(attrs.get(name) or []), *days)
        for name in ("saps", "sofa", "creatinine", "bp", "bp_mean")
    ]
    elixhauser = attrs.get("elixhauser")
    if elixhauser is not None and not math.isfinite(elixhauser):
        raise DataError(f"Elixhauser score must be finite, got {elixhauser}")
    elix_bin = attrs.get("elixhauser_binary") or (None,) * len(ELIX_BINARY_FIELDS)
    elix = [_binary(v, name) for v, name in zip(elix_bin, ELIX_BINARY_FIELDS, strict=True)]

    # Days with any fluid record form the grid; a missing side on such a day
    # counts as 0.0 so that balance aggregates equal input-minus-output
    # aggregates exactly.
    sums_in = daily_sum(attrs.get("fluids_in") or [])
    sums_out = daily_sum(attrs.get("fluids_out") or [])
    grid = sorted(sums_in.keys() | sums_out.keys())
    fin = {d: sums_in.get(d, 0.0) for d in grid}
    fout = {d: sums_out.get(d, 0.0) for d in grid}
    fbal = {d: fin[d] - fout[d] for d in grid}

    vasopressors = _binary(attrs.get("vasopressors"), "vasopressors")
    ventilation = _binary(attrs.get("ventilation"), "ventilation")
    mortality = _binary(attrs.get("mortality"), "mortality")
    los = attrs.get("los")
    if los is not None and not math.isfinite(los):
        raise DataError(f"length of stay must be finite, got {los}")
    if los is not None and los < 0:
        raise DataError(f"length of stay must be >= 0, got {los}")
    return [
        1.0 if treated else -1.0, age, gender, race,
        *saps, *sofa, elixhauser, *elix, *creatinine,
        *_block(fin, *days), *_block(fout, *days), *_block(fbal, *days),
        vasopressors, ventilation, *bp, *bp_mean, mortality, los,
    ]


def assemble_study_group_oracle(records, options=None):
    """The study group and rejections of Records (see `cohort_records`),
    one `build_row_values` per record."""
    from icustudy.errors import DataError
    from icustudy.group import N_VARIABLES, StudyGroup
    from icustudy.varprep import AssemblyOptions, Rejection

    options = options or AssemblyOptions()
    rows = []
    rejections = []
    for rec in records:
        key = rec.key()
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
                values = build_row_values(rec, options)
        except DataError as exc:
            rejections.append(Rejection(key, str(exc)))
            continue
        overflow = next((i for i, v in enumerate(values, 1) if v is not None and not math.isfinite(v)), None)
        if overflow is not None:
            rejections.append(Rejection(key, f"x{overflow} must be finite, got {values[overflow - 1]}"))
            continue
        missing = next((i for i in range(1, N_VARIABLES + 1) if values[i - 1] is None), None)
        if missing is not None:
            rejections.append(Rejection(key, f"x{missing} missing"))
            continue
        rows.append((key, values))
    rows.sort(key=lambda row: row[0])
    x = np.array([values for _, values in rows], dtype=float) if rows else np.empty((0, N_VARIABLES))
    return StudyGroup([key for key, _ in rows], x), rejections


def survivor_records_oracle(extracts_dir, survivors_path) -> list:
    """The records of survivors.csv from a full reload of every extract."""
    from pathlib import Path

    from icustudy.cohort import load_extracts

    wanted = set(read_csv_rows(survivors_path, KEY_COLUMNS, row_key))
    records = cohort_records(load_extracts(Path(extracts_dir)))
    return [r for r in records if None not in r.ident and r.ident in wanted]


# --- hand-off readers ------------------------------------------------------------
# The readers' checks as `group` made them with a validated PatientKey
# dataclass, verbatim, so that the reference does not move with the code it
# checks.  One rule is new: an id must fit the int64 array a study group
# holds, checked before the positive-id rule.

KEY_COLUMNS = ("subject_id", "hadm_id", "icustay_id")
STRATA_COLUMNS = KEY_COLUMNS + ("score", "quintile")


def oracle_key(subject_id, hadm_id, icustay_id) -> tuple:
    """The key triple, each id checked as PatientKey.__post_init__ once did."""
    np.array([subject_id, hadm_id, icustay_id], dtype=np.int64)  # OverflowError beyond int64
    for name, value in zip(KEY_COLUMNS, (subject_id, hadm_id, icustay_id)):
        if not isinstance(value, int) or value <= 0:
            raise DataError(f"PatientKey.{name} must be a positive integer, got {value!r}")
    return (subject_id, hadm_id, icustay_id)


def read_csv_rows(path, columns, parse) -> list:
    """parse(row) for each row, as a dict, of a CSV file holding `columns`;
    a missing column, a short row or a cell `parse` rejects is a DataError
    naming the file (and the line)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        try:
            return [parse(row) for row in reader]
        except (TypeError, ValueError, OverflowError, DataError) as exc:  # a short row leaves None cells
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def row_key(row: dict) -> tuple:
    """The key triple of a CSV row read as a dict, as ints."""
    return tuple(int(row[c]) for c in KEY_COLUMNS)


# The report writer as it formatted one cell at a time, verbatim but for
# fnum written out, so that the reference does not move with the code.


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return value  # csv writes None as an empty cell


def write_table_oracle(path, header, rows) -> None:
    """A report or extract CSV: floats through fnum, booleans as 0/1, None as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


# The hand-off writers as they wrote one csv.writer row at a time, verbatim
# but for their names and the header, so that the reference does not move
# with the code.

_STUDYGROUP_HEADER = list(KEY_COLUMNS) + [f"x{i}" for i in range(1, 59)]


def write_studygroup_csv_oracle(group: StudyGroup, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_STUDYGROUP_HEADER)
        for key, row in zip(group.ids.tolist(), group.x.tolist()):
            writer.writerow(key + [repr(v) for v in row])


def write_strata_csv_oracle(group: StudyGroup, scores, assignment, path) -> None:
    """One row per patient: key, propensity score and stratum label 1..K."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STRATA_COLUMNS)
        for key, score, q in zip(group.ids.tolist(), scores.tolist(), assignment):
            writer.writerow(key + [repr(score), int(q)])


def read_studygroup_csv_oracle(path):
    """studygroup.csv read one csv.reader row at a time, each cell by int() or float()."""
    from icustudy.group import N_VARIABLES

    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected = list(KEY_COLUMNS) + [f"x{i}" for i in range(1, N_VARIABLES + 1)]
        if header != expected:
            raise DataError(f"{path}: unexpected header (want key columns plus x1..x{N_VARIABLES})")
        keys, rows = [], []
        try:
            for line in reader:
                if len(line) != len(expected):
                    raise ValueError(f"{len(line)} cells, want {len(expected)}")
                keys.append(oracle_key(int(line[0]), int(line[1]), int(line[2])))
                rows.append([float(v) for v in line[3:]])
        except (ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: the study group is empty")
    try:
        return StudyGroup(keys, np.array(rows, dtype=float))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_strata_csv_oracle(path, group):
    """strata.csv read one csv.DictReader row at a time, in the order of `group`."""
    by_key = dict(read_csv_rows(
        path, STRATA_COLUMNS,
        lambda r: (oracle_key(*row_key(r)), (float(r["score"]), int(r["quintile"]))),
    ))
    missing = [k for k in group.keys if k not in by_key]
    if missing:
        raise DataError(f"{path}: does not cover patient {'/'.join(map(str, missing[0]))}")
    scores = np.array([by_key[k][0] for k in group.keys])
    assignment = np.array([by_key[k][1] for k in group.keys], dtype=int)
    used = sorted(set(assignment.tolist()))
    stray = [q for q in used if not 1 <= q <= len(used)]
    if stray:
        raise DataError(f"{path}: stratum labels must be 1..{len(used)}, each used, got {stray[0]}")
    return scores, assignment


# --- genetic programming: the Node engine -----------------------------------------
# The expression-tree engine that evoml's prefix programs replaced, verbatim.
# It draws the same numbers from the same Random stream, so a program and
# its Node tree must agree node for node; `prefix` and `tree` convert.


def prefix(node) -> tuple:
    """The (op, var, const) triples of `node`'s subtree in preorder."""
    if node.is_terminal():
        return ((None, node.var, node.const),)
    return sum((prefix(c) for c in node.children), ((node.op, None, None),))


def tree(prog):
    """The Node tree of a prefix program; ValueError unless `prog` is
    exactly one whole program."""

    def build(i):
        op, var, const = prog[i]
        if op is None:
            return Node(var=var, const=const), i + 1
        children, i = [], i + 1
        for _ in range(ARITY[op]):
            child, i = build(i)
            children.append(child)
        return Node(op=op, children=children), i

    try:
        node, end = build(0)
    except (IndexError, KeyError) as exc:
        raise ValueError(f"not a program: {exc!r}") from None
    if end != len(prog):
        raise ValueError(f"{len(prog) - end} triples after the program")
    return node


BINARY_OPS = ("+", "-", "*", "/")
UNARY_OPS = ("log2", "sqrt")
FUNCTIONS = BINARY_OPS + UNARY_OPS
ARITY = {op: 2 for op in BINARY_OPS} | {op: 1 for op in UNARY_OPS}

DIV_EPS = 1e-9


class Node:
    """Expression-tree node: an operator with children, a feature index,
    or a constant."""

    __slots__ = ("op", "children", "var", "const")

    def __init__(self, op=None, children=(), var=None, const=None):
        self.op = op
        self.children = list(children)
        self.var = var
        self.const = const

    def is_terminal(self) -> bool:
        return self.op is None

    def copy(self) -> "Node":
        if self.is_terminal():
            return Node(var=self.var, const=self.const)
        return Node(op=self.op, children=[c.copy() for c in self.children])

    def depth(self) -> int:
        if self.is_terminal():
            return 1
        return 1 + max(c.depth() for c in self.children)

    def size(self) -> int:
        if self.is_terminal():
            return 1
        return 1 + sum(c.size() for c in self.children)

    def nodes(self):
        yield self
        for child in self.children:
            yield from child.nodes()

    def __str__(self):
        if self.is_terminal():
            return f"x{self.var}" if self.var is not None else format(self.const, ".6g")
        if len(self.children) == 1:
            return f"{self.op}({self.children[0]})"
        return f"({self.children[0]} {self.op} {self.children[1]})"


def _sanitize(values: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(values), values, 1.0)


def eval_tree_batch(node: Node, x: np.ndarray) -> np.ndarray:
    """Evaluate a tree on a (rows, features) matrix with total protection:
    a/b = 1 when |b| < 1e-9, log2 of a non-positive is 0, sqrt uses the
    absolute value, and any non-finite intermediate becomes 1."""
    if node.is_terminal():
        if node.var is not None:
            return x[:, node.var].astype(float)
        return np.full(x.shape[0], float(node.const))
    args = [eval_tree_batch(c, x) for c in node.children]
    with np.errstate(all="ignore"):
        if node.op == "+":
            out = args[0] + args[1]
        elif node.op == "-":
            out = args[0] - args[1]
        elif node.op == "*":
            out = args[0] * args[1]
        elif node.op == "/":
            out = np.where(np.abs(args[1]) < DIV_EPS, 1.0, args[0] / np.where(np.abs(args[1]) < DIV_EPS, 1.0, args[1]))
        elif node.op == "log2":
            out = np.where(args[0] <= 0.0, 0.0, np.log2(np.where(args[0] <= 0.0, 1.0, args[0])))
        elif node.op == "sqrt":
            out = np.sqrt(np.abs(args[0]))
        else:
            raise DataError(f"unknown operator {node.op!r}")
    return _sanitize(out)


def _random_terminal(n_features: int, config: GpConfig, rng: random.Random) -> Node:
    choice = rng.randrange(n_features + 1)
    if choice < n_features:
        return Node(var=choice)
    return Node(const=rng.uniform(*config.const_range))


def _grow(depth_budget: int, n_features: int, config: GpConfig, rng: random.Random) -> Node:
    if depth_budget <= 1:
        return _random_terminal(n_features, config, rng)
    n_terminals = n_features + 1
    pick = rng.randrange(len(FUNCTIONS) + n_terminals)
    if pick >= len(FUNCTIONS):
        return _random_terminal(n_features, config, rng)
    op = FUNCTIONS[pick]
    kids = [_grow(depth_budget - 1, n_features, config, rng) for _ in range(ARITY[op])]
    return Node(op=op, children=kids)


def _full(depth_budget: int, n_features: int, config: GpConfig, rng: random.Random) -> Node:
    if depth_budget <= 1:
        return _random_terminal(n_features, config, rng)
    op = FUNCTIONS[rng.randrange(len(FUNCTIONS))]
    kids = [_full(depth_budget - 1, n_features, config, rng) for _ in range(ARITY[op])]
    return Node(op=op, children=kids)


def gp_init_population(config: GpConfig, n_features: int, rng: random.Random) -> list:
    """Ramped half-and-half over depths 1..init_depth: equal-size depth
    bins, half grown and half full, all within max_depth."""
    population = []
    depths = list(range(1, config.init_depth + 1))
    for i in range(config.population_size):
        depth = depths[i % len(depths)]
        builder = _grow if (i // len(depths)) % 2 == 0 else _full
        population.append(builder(depth, n_features, config, rng))
    return population


# --- variation -------------------------------------------------------------------


def _random_node_index(tree: Node, rng: random.Random) -> int:
    return rng.randrange(tree.size())


def _replace_node(tree: Node, index: int, replacement: Node) -> Node:
    """Copy of `tree` with the node at preorder `index` swapped out."""
    counter = {"i": -1}

    def rebuild(node: Node) -> Node:
        counter["i"] += 1
        if counter["i"] == index:
            return replacement.copy()
        if node.is_terminal():
            return Node(var=node.var, const=node.const)
        return Node(op=node.op, children=[rebuild(c) for c in node.children])

    return rebuild(tree)


def _node_at(tree: Node, index: int) -> Node:
    for i, node in enumerate(tree.nodes()):
        if i == index:
            return node
    raise IndexError(index)


def crossover(a: Node, b: Node, rng: random.Random) -> tuple:
    """Swap random subtrees between two parents; returns two offspring."""
    ia = _random_node_index(a, rng)
    ib = _random_node_index(b, rng)
    sub_a = _node_at(a, ia)
    sub_b = _node_at(b, ib)
    child_a = _replace_node(a, ia, sub_b)
    child_b = _replace_node(b, ib, sub_a)
    return child_a, child_b


def _node_depth_at(tree: Node, index: int) -> int:
    counter = {"i": -1}

    def walk(node: Node, depth: int):
        counter["i"] += 1
        if counter["i"] == index:
            return depth
        for child in node.children:
            found = walk(child, depth + 1)
            if found is not None:
                return found
        return None

    return walk(tree, 1)


def mutate(tree: Node, n_features: int, config: GpConfig, rng: random.Random) -> Node:
    """Replace a random subtree with a freshly grown one whose depth budget
    keeps the whole tree within max_depth."""
    index = _random_node_index(tree, rng)
    at_depth = _node_depth_at(tree, index)
    budget = max(1, config.max_depth - at_depth + 1)
    replacement = _grow(min(budget, config.init_depth), n_features, config, rng)
    return _replace_node(tree, index, replacement)



def _fitness(tree: Node, x: np.ndarray, y: np.ndarray, task: str) -> float:
    out = eval_tree_batch(tree, x)
    if task == "classify":
        predicted = np.where(out >= 0.0, 1.0, -1.0)
        return float((predicted != y).sum())
    return float(np.mean(np.abs(out - y)))


def _tournament(fitnesses: list, config: GpConfig, rng: random.Random) -> int:
    best = None
    for _ in range(config.tournament_size):
        i = rng.randrange(len(fitnesses))
        if best is None or fitnesses[i] < fitnesses[best] or (
            fitnesses[i] == fitnesses[best] and i < best
        ):
            best = i
    return best


def gp_evolve(config: GpConfig, x: np.ndarray, y: np.ndarray, task: str) -> GpRun:
    """Evolve expression trees against the training rows.

    task "classify": fitness is the misclassification count with prediction
    sign(output) mapped to +-1 at threshold 0.  task "regress": fitness is
    mean absolute error.  Per breeding draw: reproduction with probability
    p_reproduction, otherwise crossover or mutation with the two remaining
    probabilities renormalized.  Offspring deeper than max_depth are
    rejected and the parents retained; the single best individual survives
    unchanged (elitism of 1), so the best-so-far trace never increases.
    """
    if task not in ("classify", "regress"):
        raise DataError(f"unknown GP task {task!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise DataError("gp_evolve needs a non-empty training set")
    rng = random.Random(config.seed)
    n_features = x.shape[1]

    population = gp_init_population(config, n_features, rng)
    fitnesses = [_fitness(t, x, y, task) for t in population]
    best_idx = min(range(len(population)), key=lambda i: (fitnesses[i], i))
    best, best_fit = population[best_idx].copy(), fitnesses[best_idx]
    trace = [best_fit]

    p_cross = config.p_crossover / max(config.p_crossover + config.p_mutation, 1e-12)
    for _ in range(config.generations):
        next_population = [best.copy()]  # elitism of 1
        while len(next_population) < config.population_size:
            r = rng.random()
            if r < config.p_reproduction:
                winner = population[_tournament(fitnesses, config, rng)]
                next_population.append(winner.copy())
            elif rng.random() < p_cross:
                pa = population[_tournament(fitnesses, config, rng)]
                pb = population[_tournament(fitnesses, config, rng)]
                ca, cb = crossover(pa, pb, rng)
                for child, parent in ((ca, pa), (cb, pb)):
                    if len(next_population) >= config.population_size:
                        break
                    keep = child if child.depth() <= config.max_depth else parent.copy()
                    next_population.append(keep)
            else:
                parent = population[_tournament(fitnesses, config, rng)]
                child = mutate(parent, n_features, config, rng)
                if child.depth() > config.max_depth:
                    child = parent.copy()
                next_population.append(child)
        population = next_population
        fitnesses = [_fitness(t, x, y, task) for t in population]
        gen_best = min(range(len(population)), key=lambda i: (fitnesses[i], i))
        if fitnesses[gen_best] < best_fit:
            best, best_fit = population[gen_best].copy(), fitnesses[gen_best]
        trace.append(best_fit)

    return GpRun(best=best, best_fitness=best_fit, trace=trace, task=task)


# --- the per-record synth generator ---------------------------------------------------
#
# The generator as it was before it drew its records as arrays: one
# SynthPatient per record holding `attrs` and `daily` dicts, a ground-truth
# row rebuilt per record at each stage, drivers read through an if-chain,
# and the step counts kept as sets of record ids.  Its draws and bytes are
# the reference the columnar generator must match.

DAYS = 6
MEDIAN_SERIES = ("saps", "sofa", "creatinine", "bp", "bp_mean")
SUM_SERIES = ("fluids_in", "fluids_out")


@dataclass
class SynthPatient:
    subject_id: int
    hadm_id: int | None
    icustay_id: int
    violation: str | None  # which pipeline condition this record breaks
    attrs: dict = field(default_factory=dict)
    daily: dict = field(default_factory=dict)  # series -> {day: value}
    x: list | None = None  # ground-truth study-row values for survivors


NAIVE_SUMMARY = (
    "ADMISSION DIAGNOSIS: severe sepsis with fluid overload.\n"
    "MEDICATIONS ON ADMISSION: aspirin 81mg, metoprolol 25mg.\n"
    "HOSPITAL COURSE: fluid resuscitation on arrival, gradual recovery.\n"
    "DISCHARGE MEDICATIONS: furosemide 20mg daily, aspirin 81mg.\n"
)

NOT_NAIVE_SUMMARY = (
    "ADMISSION DIAGNOSIS: sepsis, volume overload.\n"
    "DRUGS ON ADMISSION: lasix 40mg daily, lisinopril 10mg.\n"
    "HOSPITAL COURSE: continued diuresis, slow improvement.\n"
)


def _sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _calibrate_alpha(linear: np.ndarray, target: float) -> float:
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        mean_p = float(np.mean(1.0 / (1.0 + np.exp(-(mid + linear)))))
        if mean_p < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _plant_daily(rng: np.random.Generator, severity: float) -> dict:
    # saps is filled by the caller, which owns the configurable spread
    daily: dict = {name: {} for name in MEDIAN_SERIES + SUM_SERIES}
    for day in range(1, DAYS + 1):
        daily["sofa"][day] = max(0.0, 8.0 + 3.0 * severity + rng.normal(0.0, 1.0))
        daily["creatinine"][day] = max(0.2, 1.8 + 0.8 * severity + rng.normal(0.0, 0.3))
        daily["bp"][day] = 113.0 - 8.0 * severity + rng.normal(0.0, 4.0)
        daily["bp_mean"][day] = 78.0 - 6.0 * severity + rng.normal(0.0, 3.0)
        daily["fluids_in"][day] = max(0.0, 2.6 - 0.25 * day + 0.5 * severity + rng.normal(0.0, 0.4))
        daily["fluids_out"][day] = max(0.0, 1.4 + 0.05 * day - 0.1 * severity + rng.normal(0.0, 0.3))
    return daily


def _ground_truth_x(patient: SynthPatient, t1_default: int) -> list:
    """Expected study-row values from the planted daily data."""
    a = patient.attrs
    treated = a["treated"]
    t1 = a["first_dose_day"] if treated else t1_default
    t2, t3 = 3, 4
    x: list = [None] * 58

    def put(i, v):
        x[i - 1] = None if v is None else float(v)

    put(1, 1.0 if treated else -1.0)
    put(2, a["age"])
    put(3, a["gender"])
    put(4, a["race"])
    for start, name in ((5, "saps"), (10, "sofa"), (25, "creatinine"), (47, "bp"), (52, "bp_mean")):
        series = patient.daily[name]
        put(start, np.mean([series[d] for d in range(1, t1 + 1)]))
        put(start + 1, series[1])
        put(start + 2, series[t1])
        put(start + 3, series[t2])
        put(start + 4, series[t3])
    put(15, a["elixhauser"])
    for k in range(9):
        put(16 + k, a["elixhauser_binary"][k])
    fin = patient.daily["fluids_in"]
    fout = patient.daily["fluids_out"]
    fbal = {d: fin[d] - fout[d] for d in fin}
    for start, series in ((30, fin), (35, fout), (40, fbal)):
        put(start, np.mean([series[d] for d in range(1, t1 + 1)]))
        put(start + 1, series[1])
        put(start + 2, series[t1])
        put(start + 3, series[t2])
        put(start + 4, series[t3])
    put(45, a["vasopressors"])
    put(46, a["ventilation"])
    put(57, a.get("mortality"))
    put(58, a.get("los"))
    return x


def _build_patients(spec: SynthSpec, rng: np.random.Generator) -> list:
    patients: list[SynthPatient] = []
    next_id = [1]

    def fresh_ids():
        i = next_id[0]
        next_id[0] += 1
        return 10000 + i, 20000 + i, 30000 + i

    def base_patient(violation: str | None) -> SynthPatient:
        sid, hid, iid = fresh_ids()
        severity = float(rng.normal())
        p = SynthPatient(sid, hid, iid, violation)
        p.daily = _plant_daily(rng, severity)
        saps_base = 15.8 + spec.saps_sd * severity
        for day in range(1, DAYS + 1):
            p.daily["saps"][day] = max(0.0, saps_base + float(rng.normal(0.0, 0.8)))
        p.attrs = {
            "severity": severity,
            "age": float(np.clip(66.0 + 10.0 * severity + rng.normal(0.0, 12.0), 18.0, 95.0)),
            "gender": 1.0 if rng.random() < 0.425 else -1.0,
            "race": 1.0 if rng.random() < 0.02 else -1.0,
            "elixhauser": float(np.clip(round(3.0 + 1.3 * severity + rng.normal(0.0, 1.0)), 0, 12)),
            "elixhauser_binary": [
                1.0 if rng.random() < _sigmoid(-1.0 + 0.9 * severity) else -1.0
                for _ in range(9)
            ],
            "vasopressors": 1.0 if rng.random() < _sigmoid(0.6 + 0.9 * severity) else -1.0,
            "ventilation": 1.0 if rng.random() < _sigmoid(0.8 + 0.8 * severity) else -1.0,
            "sepsis": True,
            "cmo": False,
            "summary": NAIVE_SUMMARY,
        }
        return p

    for _ in range(spec.n):
        patients.append(base_patient(None))

    for kind in ATTRITION_KINDS:
        for _ in range(int(spec.attrition.get(kind, 0))):
            p = base_patient(kind)
            if kind == "missing_ids":
                p.hadm_id = None
                p.attrs["summary"] = None  # hadm-keyed extracts cannot join
            elif kind == "multi_admission":
                p2 = base_patient(kind)
                p2.subject_id = p.subject_id
                patients.append(p)
                p = p2
            elif kind == "short_stay":
                pass  # handled at emission: day-1 samples only
            elif kind == "minor":
                p.attrs["age"] = float(rng.uniform(1.0, 17.0))
            elif kind == "no_sepsis":
                p.attrs["sepsis"] = False
            elif kind == "cmo":
                p.attrs["cmo"] = True
            elif kind == "no_summary":
                p.attrs["summary"] = None
            elif kind == "not_naive":
                p.attrs["summary"] = NOT_NAIVE_SUMMARY
            elif kind == "missing_data":
                pass  # handled at emission: creatinine file omits this patient
            patients.append(p)
    return patients


def _assign_treatment_and_outcomes(spec: SynthSpec, patients: list, rng: np.random.Generator):
    """Treatment from the planted logistic model, then outcomes."""
    # driver values are T1-independent, so they exist before assignment
    linear = []
    for p in patients:
        total = 0.0
        for idx, coef in sorted(spec.treatment_beta.items()):
            total += coef * _driver_value(p, idx)
        linear.append(total)
    linear = np.array(linear)
    alpha = spec.treatment_alpha
    if spec.prevalence_target is not None and len(patients):
        alpha = _calibrate_alpha(linear, spec.prevalence_target)

    dose_days = [d for d, _ in spec.first_dose_days]
    dose_probs = [w for _, w in spec.first_dose_days]
    total_w = sum(dose_probs)
    dose_probs = [w / total_w for w in dose_probs]

    for p, lin in zip(patients, linear):
        p.attrs["treated"] = bool(rng.random() < _sigmoid(alpha + float(lin)))
        p.attrs["first_dose_day"] = (
            int(rng.choice(dose_days, p=dose_probs)) if p.attrs["treated"] else None
        )

    # provisional ground-truth rows give the outcome models their regressors
    for p in patients:
        p.x = _ground_truth_x(p, spec.t1_default)

    saps_values = np.array([p.x[4] for p in patients])  # x5
    saps_mean = float(saps_values.mean()) if len(patients) else 0.0

    for p in patients:
        treated01 = 1.0 if p.attrs["treated"] else 0.0
        eta = spec.mortality.alpha + spec.mortality.treated_effect * treated01
        for idx, coef in sorted(spec.mortality.beta.items()):
            eta += coef * p.x[idx - 1]
        eta += spec.mortality.interaction_treated_saps * (p.x[4] - saps_mean) * treated01
        p.attrs["mortality"] = 1.0 if rng.random() < _sigmoid(eta) else -1.0

        los = spec.los.alpha + spec.los.treated_effect * treated01
        for idx, coef in sorted(spec.los.beta.items()):
            los += coef * p.x[idx - 1]
        los += float(rng.normal(0.0, spec.los.noise_sd))
        p.attrs["los"] = max(0.0, los)
        p.x = _ground_truth_x(p, spec.t1_default)
    return alpha, saps_mean


def _driver_value(p: SynthPatient, idx: int) -> float:
    """Planted value of a T1-independent study variable."""
    a = p.attrs
    if idx == 2:
        return a["age"]
    if idx == 3:
        return a["gender"]
    if idx == 4:
        return a["race"]
    if idx == 15:
        return a["elixhauser"]
    if 16 <= idx <= 24:
        return a["elixhauser_binary"][idx - 16]
    if idx == 45:
        return a["vasopressors"]
    if idx == 46:
        return a["ventilation"]
    block = {
        5: ("saps", "median"), 10: ("sofa", "median"), 25: ("creatinine", "median"),
        30: ("fluids_in", "sum"), 35: ("fluids_out", "sum"), 40: ("balance", "sum"),
        47: ("bp", "median"), 52: ("bp_mean", "median"),
    }
    for start, (name, _) in block.items():
        if start <= idx <= start + 4:
            offset = idx - start
            day = {1: 1, 3: 3, 4: 4}.get(offset)  # offsets 1, 3, 4 = days 1, T2, T3
            if day is None:
                raise InvalidSpec(f"x{idx} depends on the decision day")
            if name == "balance":
                return p.daily["fluids_in"][day] - p.daily["fluids_out"][day]
            return p.daily[name][day]
    raise InvalidSpec(f"x{idx} cannot drive treatment assignment")


# --- file emission ----------------------------------------------------------------


def _emit(out_dir: Path, name: str, header: list, rows: list) -> None:
    with open(out_dir / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _sample_offsets(day: int) -> tuple:
    base = 24.0 * (day - 1)
    return (base + 3.0, base + 11.0, base + 20.0)


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def synth_generate_oracle(spec: SynthSpec, out_dir: str | Path) -> SynthManifest:
    """Write the extract files and the ground-truth manifest for `spec`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    patients = _build_patients(spec, rng)
    alpha_used, saps_mean = (
        _assign_treatment_and_outcomes(spec, patients, rng) if patients else (spec.treatment_alpha, 0.0)
    )

    # ids.csv keeps insertion order; every other file sorts by its key
    _emit(
        out_dir,
        "ids",
        ["subject_id", "hadm_id", "icustay_id"],
        [
            [p.subject_id, p.hadm_id if p.hadm_id is not None else "", p.icustay_id]
            for p in patients
        ],
    )
    by_icu = sorted(patients, key=lambda p: p.icustay_id)
    by_hadm = sorted((p for p in patients if p.hadm_id is not None), key=lambda p: p.hadm_id)

    _emit(
        out_dir,
        "demographics",
        ["icustay_id", "age", "gender"],
        [[p.icustay_id, _fmt(p.attrs["age"]), _fmt(p.attrs["gender"])] for p in by_icu],
    )
    _emit(out_dir, "race", ["hadm_id", "value"], [[p.hadm_id, _fmt(p.attrs["race"])] for p in by_hadm])
    _emit(
        out_dir,
        "elixhauser",
        ["hadm_id", "value"],
        [[p.hadm_id, _fmt(p.attrs["elixhauser"])] for p in by_hadm],
    )
    _emit(
        out_dir,
        "elixhauser_binary",
        ["hadm_id"] + list(ELIX_BINARY_FIELDS),
        [
            [p.hadm_id] + [_fmt(v) for v in p.attrs["elixhauser_binary"]]
            for p in by_hadm
        ],
    )
    for name, attr in (("vasopressors", "vasopressors"), ("ventilation", "ventilation"), ("mortality", "mortality")):
        _emit(
            out_dir,
            name,
            ["icustay_id", "value"],
            [[p.icustay_id, _fmt(p.attrs[attr])] for p in by_icu],
        )
    _emit(out_dir, "los", ["icustay_id", "value"], [[p.icustay_id, _fmt(p.attrs["los"])] for p in by_icu])
    _emit(
        out_dir,
        "diuretics",
        ["icustay_id", "first_dose_hours"],
        [
            [p.icustay_id, _fmt(24.0 * (p.attrs["first_dose_day"] - 1) + 6.0)]
            for p in by_icu
            if p.attrs["treated"]
        ],
    )
    _emit(
        out_dir,
        "summaries",
        ["hadm_id", "text"],
        [[p.hadm_id, p.attrs["summary"]] for p in by_hadm if p.attrs["summary"]],
    )
    _emit(out_dir, "sepsis", ["icustay_id"], [[p.icustay_id] for p in by_icu if p.attrs["sepsis"]])
    _emit(out_dir, "cmo", ["icustay_id"], [[p.icustay_id] for p in by_icu if p.attrs["cmo"]])

    for series in MEDIAN_SERIES:
        rows = []
        for p in by_icu:
            if p.violation == "missing_data" and series == "creatinine":
                continue
            days = [1] if p.violation == "short_stay" else range(1, DAYS + 1)
            for day in days:
                value = p.daily[series][day]
                delta = 0.1 * abs(value) + 0.01
                offsets = _sample_offsets(day)
                for off, v in zip(offsets, (value - delta, value, value + delta)):
                    rows.append([p.icustay_id, _fmt(off), _fmt(v)])
        _emit(out_dir, series, ["icustay_id", "offset_hours", "value"], rows)

    for series in SUM_SERIES:
        rows = []
        for p in by_icu:
            days = [1] if p.violation == "short_stay" else range(1, DAYS + 1)
            for day in days:
                total = p.daily[series][day]
                parts = (0.2 * total, 0.3 * total, 0.5 * total)
                for off, v in zip(_sample_offsets(day), parts):
                    rows.append([p.icustay_id, _fmt(off), _fmt(v)])
                # the planted daily value becomes the float sum of its parts
                p.daily[series][day] = float(np.sum(parts))
        _emit(out_dir, series, ["icustay_id", "offset_hours", "value"], rows)

    # recompute ground truth with the emitted (post-split) fluid totals
    for p in patients:
        if p.x is not None:
            p.x = _ground_truth_x(p, spec.t1_default)

    step_counts = _expected_step_counts(patients)
    survivors = [p for p in patients if p.violation is None]
    survivors.sort(key=lambda p: (p.subject_id, p.hadm_id, p.icustay_id))
    expected_rows = [
        {
            "subject_id": p.subject_id,
            "hadm_id": p.hadm_id,
            "icustay_id": p.icustay_id,
            "x": [float(v) for v in p.x],
        }
        for p in survivors
    ]
    n_treated = sum(1 for p in survivors if p.attrs["treated"])
    manifest = SynthManifest(
        seed=spec.seed,
        n_requested=spec.n,
        n_records=len(patients),
        prevalence=n_treated / len(survivors) if survivors else 0.0,
        params={
            "treatment_alpha": alpha_used,
            "treatment_beta": {f"x{k}": v for k, v in sorted(spec.treatment_beta.items())},
            "prevalence_target": spec.prevalence_target,
            "mortality": {
                "alpha": spec.mortality.alpha,
                "beta": {f"x{k}": v for k, v in sorted(spec.mortality.beta.items())},
                "interaction_treated_saps": spec.mortality.interaction_treated_saps,
                "interaction_centered_at": saps_mean,
                "treated_effect": spec.mortality.treated_effect,
            },
            "los": {
                "alpha": spec.los.alpha,
                "treated_effect": spec.los.treated_effect,
                "beta": {f"x{k}": v for k, v in sorted(spec.los.beta.items())},
                "noise_sd": spec.los.noise_sd,
            },
            "attrition": {k: int(spec.attrition.get(k, 0)) for k in ATTRITION_KINDS},
            "saps_sd": spec.saps_sd,
            "t1_default": spec.t1_default,
        },
        step_counts=step_counts,
        expected_rows=expected_rows,
    )
    (out_dir / "manifest.json").write_text(json.dumps(asdict(manifest), sort_keys=True, indent=2))
    return manifest


def synth_study_group_oracle(spec: SynthSpec) -> StudyGroup:
    """The clean cohort as an in-memory study group, skipping file io.

    Same seed and spec as synth_generate, same planted rows (up to the
    1e-16 effect of splitting fluid totals into file samples).
    """
    rng = np.random.default_rng(spec.seed)
    patients = _build_patients(spec, rng)
    if patients:
        _assign_treatment_and_outcomes(spec, patients, rng)
    survivors = [p for p in patients if p.violation is None]
    keys = [PatientKey(p.subject_id, p.hadm_id, p.icustay_id) for p in survivors]
    x = (
        np.array([[float(v) for v in p.x] for p in survivors])
        if survivors
        else np.empty((0, 58))
    )
    return StudyGroup(keys, x)


def _expected_step_counts(patients: list) -> list:
    """The generator's own 16-step attrition bookkeeping."""
    subject_counts: dict = {}
    for p in patients:
        subject_counts[p.subject_id] = subject_counts.get(p.subject_id, 0) + 1

    def members(condition) -> set:
        return {id(p) for p in patients if condition(p)}

    sets: dict = {}
    sets["A"] = members(lambda p: p.hadm_id is not None)
    sets["B"] = members(lambda p: subject_counts[p.subject_id] == 1)
    sets["C"] = sets["A"] & sets["B"]
    sets["D"] = members(lambda p: p.violation != "short_stay")
    sets["E"] = sets["C"] & sets["D"]
    sets["F"] = members(lambda p: p.attrs["age"] >= 18.0)
    sets["G"] = sets["E"] & sets["F"]
    sets["H"] = members(lambda p: p.attrs["sepsis"])
    sets["I"] = sets["G"] & sets["H"]
    sets["L"] = members(lambda p: not p.attrs["cmo"])
    sets["M"] = sets["I"] & sets["L"]
    sets["N"] = members(lambda p: bool(p.attrs["summary"]) and p.hadm_id is not None)
    sets["O"] = sets["M"] & sets["N"]
    sets["P"] = members(lambda p: p.violation != "not_naive")
    sets["Q"] = sets["O"] & sets["P"]
    sets["R"] = sets["Q"] & members(lambda p: p.violation != "missing_data")

    order = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "L", "M", "N", "O", "P", "Q", "R"]
    return [
        {"index": i + 1, "label": label, "surviving": len(sets[label])}
        for i, label in enumerate(order)
    ]
