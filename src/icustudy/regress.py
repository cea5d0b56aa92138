"""Regression engine: logistic MLE, least-squares linear fits, Wald
p-values, and two-phase forward stepwise selection.

Model specs are term lists over the study variables: the intercept, main
effects x_i, squares x_i*x_i and pairwise interactions x_i*x_j.  Design
columns are standardized internally for conditioning and every reported
coefficient refers to the original units.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

import numpy as np
from scipy import linalg as sla

from .errors import DataError, NotConverged, RankDeficient
from .group import N_VARIABLES, StudyGroup
from .stats import TestResult, chi2_tail, normal_tail_two_sided, t_tail_two_sided

log = logging.getLogger(__name__)

GRADIENT_TOL = 1e-10
MAX_ITER = 50
SEPARATION_BOUND = 30.0
RANK_TOL = 1e-10
TIE_TOL = 1e-9  # stepwise gains this close to the best, relative to max(1, |ll|), are ties
CANDIDATE_BLOCK = 128  # stepwise trial fits iterated together
BLOCK_ELEMENTS = 1 << 15  # float64 elements per array of a row block


# --- model terms --------------------------------------------------------------
#
# A term is the ascending tuple of the variables it multiplies: () is the
# intercept, (i,) a main effect, (i, i) a square, (i, j) with i < j an
# interaction.


def main(i: int) -> tuple:
    return (i,)


def square(i: int) -> tuple:
    return (i, i)


def interaction(i: int, j: int) -> tuple:
    return (min(i, j), max(i, j))


def label(term: tuple) -> str:
    return "*".join(f"x{i}" for i in term) or "1"


_TERM_RE = re.compile(r"^(?:1|x(\d+)(?:\*x(\d+))?)$")


class ModelSpec:
    """Ordered term list, always beginning with the intercept."""

    def __init__(self, terms: Sequence[tuple]):
        terms = sorted(terms, key=lambda t: t != ())  # the intercept first, the rest in order
        if terms[:1] != [()]:
            terms.insert(0, ())
        for t in terms:
            if len(t) > 2 or list(t) != sorted(t) or not all(1 <= i <= N_VARIABLES for i in t):
                raise DataError(f"model term {label(t)} is not xI or xI*xJ with 1 <= I <= J <= {N_VARIABLES}")
        if len(set(terms)) != len(terms):
            raise DataError("duplicate terms in model spec")
        self.terms = tuple(terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, ModelSpec) and self.terms == other.terms

    def __repr__(self):
        return f"ModelSpec({self.to_text()!r})"

    def has(self, term: tuple) -> bool:
        return term in self.terms

    def with_term(self, term: tuple) -> "ModelSpec":
        return ModelSpec(list(self.terms) + [term])

    def main_indices(self) -> tuple:
        return tuple(t[0] for t in self.terms if len(t) == 1)

    def term_names(self) -> list:
        return [label(t) for t in self.terms]

    def to_text(self) -> str:
        return " + ".join(self.term_names())

    @staticmethod
    def from_text(text: str) -> "ModelSpec":
        terms = []
        for token in (t.strip() for t in text.split("+")):
            if not token:
                continue
            m = _TERM_RE.match(token)
            if not m:
                raise DataError(f"cannot parse model term {token!r}")
            terms.append(tuple(sorted(int(g) for g in m.groups() if g)))
        return ModelSpec(terms)

    def design_matrix(self, group: StudyGroup) -> np.ndarray:
        """Each term's column: the product of its variables' columns."""
        return np.column_stack([reduce(np.multiply, map(group.col, t), np.ones(group.n)) for t in self.terms])


# --- fits ---------------------------------------------------------------------


@dataclass
class LogitFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    separation: bool
    term_names: list
    n_obs: int

    def linear_predictor(self, design: np.ndarray) -> np.ndarray:
        return design @ self.coefficients


@dataclass
class LinearFit:
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residual_variance: float
    r_squared: float
    term_names: list
    n_obs: int
    log_likelihood: float = float("nan")

    @property
    def dof_resid(self) -> int:
        return self.n_obs - len(self.coefficients)


def _check_finite(design: np.ndarray, names: Sequence[str]) -> None:
    finite = np.isfinite(design).all(axis=0)
    if not finite.all():
        raise DataError(f"design column {names[int(np.argmin(finite))]} holds a non-finite value")


def _check_rank(design: np.ndarray, names: Sequence[str]) -> None:
    # column-pivoted QR; a tiny trailing pivot names the dependent column
    _check_finite(design, names)
    r, piv = sla.qr(design, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        raise RankDeficient(names[piv[0]] if len(names) else "<empty>")
    bad = np.nonzero(diag <= RANK_TOL * diag[0])[0]
    if bad.size:
        raise RankDeficient(names[piv[bad[0]]])


def _standardize(design: np.ndarray) -> tuple:
    """Center/scale all non-intercept columns; returns (Z, mu, sigma).

    Column 0 is assumed to be the intercept and is left untouched.  Z is
    Fortran-ordered, so that a column of Z is one contiguous row of Z'.
    """
    mu = design.mean(axis=0)
    sigma = design.std(axis=0)
    mu[0] = 0.0
    sigma[0] = 1.0
    sigma[sigma == 0.0] = 1.0
    z = np.subtract(design, mu, order="F")
    z /= sigma  # in place: one design-sized temporary, not two
    return z, mu, sigma


def _unstandardize(coef_std, cov_std, mu, sigma):
    a = np.diag(1.0 / sigma)  # sigma[0], the intercept's, is 1
    a[0, 1:] = -mu[1:] / sigma[1:]
    coef = a @ coef_std
    cov = a @ cov_std @ a.T if cov_std is not None else None
    return coef, cov


def _log_likelihood(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Log-likelihood of the 0/1 outcome `y` at each row of fitted
    probabilities `mu`, summed along that row alone: one log per patient,
    of mu where y = 1 and of 1 - mu where y = 0."""
    t = np.clip(mu, 1e-12, 1.0 - 1e-12)
    t *= 2.0 * y - 1.0
    t += 1.0 - y
    return np.log(t, out=t).sum(axis=-1)


def fit_logistic_design(design: np.ndarray, y: np.ndarray, names: Sequence[str]) -> LogitFit:
    """Newton (IRLS) maximum-likelihood logistic fit on a prepared design.

    The standardized design is fitted as a batch of one through
    `_trial_fits`: zero start, step-halving on likelihood decrease, and
    separation flagged once a standardized coefficient passes +-30 while
    the score has not vanished; the fit is returned unconverged rather
    than raised.  Standard errors come from the inverse observed
    information at the returned coefficients.
    """
    y = np.asarray(y, dtype=float)
    if design.shape[0] != y.size:
        raise DataError("design and outcome lengths differ")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DataError("logistic outcome must be coded 0/1")
    names = list(names)
    _check_rank(design, names)
    z, mu_c, sigma_c = _standardize(design)
    p = z.shape[1] - 1
    beta, ll, converged, separation, iterations = (a[0] for a in _trial_fits(z, y, p, np.array([p])))
    mu = _expit_inplace(z @ beta)
    w = np.clip(mu * (1.0 - mu), 1e-12, None)
    h = z.T @ (w[:, None] * z)
    try:
        cov_std = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        cov_std = np.linalg.pinv(h)
    coef, cov = _unstandardize(beta, cov_std, mu_c, sigma_c)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return LogitFit(
        coefficients=coef,
        standard_errors=se,
        log_likelihood=float(ll),
        iterations=int(iterations),
        converged=bool(converged),
        separation=bool(separation),
        term_names=names,
        n_obs=y.size,
    )


def fit_linear_design(design: np.ndarray, y: np.ndarray, names: Sequence[str]) -> LinearFit:
    """Ordinary least squares on a prepared design matrix."""
    y = np.asarray(y, dtype=float)
    names = list(names)
    _check_rank(design, names)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(resid @ resid)
    n, p = design.shape
    if n <= p:
        raise DataError("linear fit needs more observations than terms")
    sigma2 = rss / (n - p)
    xtx_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 0.0))
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if tss == 0.0 else max(0.0, min(1.0, 1.0 - rss / tss))
    return LinearFit(
        coefficients=coef,
        standard_errors=se,
        residual_variance=sigma2,
        r_squared=r2,
        term_names=names,
        n_obs=n,
    )


def fit_logistic(group: StudyGroup, spec: ModelSpec, outcome: np.ndarray) -> LogitFit:
    """Fit `spec` on the group with a 0/1 outcome column."""
    return fit_logistic_design(spec.design_matrix(group), outcome, spec.term_names())


def coefficient_p_values(fit) -> list:
    """Per-term Wald tests: normal reference for logistic, t for linear."""
    if isinstance(fit, LogitFit):
        if not fit.converged:
            raise NotConverged("logistic fit did not converge; p-values unavailable")
        dof, tail = float("inf"), normal_tail_two_sided
    elif isinstance(fit, LinearFit):
        dof = fit.dof_resid
        tail = partial(t_tail_two_sided, df=dof)
    else:
        raise DataError(f"unsupported fit type {type(fit).__name__}")
    results = []
    for coef, se in zip(fit.coefficients, fit.standard_errors):
        if se <= 0:
            results.append(TestResult(float("inf"), 0.0, (dof,)))
        else:
            results.append(TestResult(float(coef / se), tail(coef / se), (dof,)))
    return results


# --- stepwise selection ---------------------------------------------------------


def _candidate_order(terms):
    # deterministic: mains by index, then squares, then interactions (i, j)
    return sorted(terms, key=lambda t: (len(t), len(set(t)), t))


def _expit_inplace(x):
    # 1 / (1 + exp(-x)): within 2 ulp of scipy's expit, about 3x faster
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=x), out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _row_blocks(n, width):
    rows = max(1, BLOCK_ELEMENTS // width)
    return [slice(s, s + rows) for s in range(0, n, rows)]


def _rank_deficient(z, norms, sigma, p, cols):
    """Per candidate column c: is [z[:, :p], z[:, c]] rank deficient?  As
    in `_check_rank`, c's residual off the base span in raw units (sigma_c
    times z_c's, as the base holds the intercept) is held against RANK_TOL
    times the largest raw column norm.  One QR serves every candidate."""
    q = np.linalg.qr(z[:, :p])[0]
    resid = np.empty(cols.size)
    for b in _row_blocks(cols.size, z.shape[0]):
        zc = z.T[cols[b]]
        zc -= (zc @ q) @ q.T
        resid[b] = np.linalg.norm(zc, axis=1)
    return resid * sigma[cols] <= RANK_TOL * np.maximum(norms[:p].max(), norms[cols])


def _trial_score(zt, y, p, zc, mu):
    """Score of each design [z[:, :p], zc[i]] at its row of fitted
    probabilities `mu`, and the candidate parts of its information: the
    products with the base columns and the diagonal.  `mu` is overwritten
    with the weights mu (1 - mu)."""
    k = zc.shape[0]
    grad, cross, diag = np.empty((k, p + 1)), np.empty((k, p)), np.empty(k)
    zb = zt[:p].T
    for b in _row_blocks(k, y.size):
        zcb, w = zc[b], mu[b]
        resid = y - w
        grad[b, :p] = resid @ zb
        grad[b, p] = np.einsum("ij,ij->i", resid, zcb)
        np.clip(np.multiply(w, 1.0 - w, out=w), 1e-12, None, out=w)
        wz = zcb * w
        cross[b] = wz @ zb
        diag[b] = np.einsum("ij,ij->i", wz, zcb)
    return grad, cross, diag


def _trial_information(zt, p, w, cross, diag):
    """Observed information of each design from its row of weights `w`.
    One design takes its base block as one product zb' W zb.  For more,
    the base blocks of all K are one product w Q' per block of patients,
    column i of Q the upper triangle of z_i z_i'."""
    k = w.shape[0]
    info = np.empty((k, p + 1, p + 1))
    if k == 1:
        zb = zt[:p].T
        info[0, :p, :p] = zb.T @ (w[0, :, None] * zb)
    else:
        iu, ju = np.triu_indices(p)
        base = np.zeros((k, iu.size))
        for r in _row_blocks(w.shape[1], iu.size):
            q = zt[iu, r]
            q *= zt[ju, r]
            base += w[:, r] @ q.T
        info[:, iu, ju] = info[:, ju, iu] = base
    info[:, :p, p] = info[:, p, :p] = cross
    info[:, p, p] = diag
    return info


def _trial_steps(zt, y, p, zc, step, eta, mu, ll):
    """Step-halving along each design's direction d = Z step: the first
    trial eta + s d, s = 1, 1/2, ..., whose log-likelihood is within 1e-12
    of `ll`, or else the 40th, replaces the rows of `eta`, `mu` and `ll`;
    returns each s and `ll`.  A row's `_log_likelihood` is summed along
    that row alone, so no value depends on the other candidates."""
    k = zc.shape[0]
    scale = np.ones(k)
    for b in _row_blocks(k, y.size):
        d = step[b, :p] @ zt[:p]
        d += step[b, p, None] * zc[b]
        rows, trial = np.arange(k)[b], eta[b] + d
        for attempt in range(40):
            m = _expit_inplace(trial.copy())
            ll_new = _log_likelihood(y, m)
            ok = (ll_new >= ll[rows] - 1e-12) | (attempt == 39)
            if attempt == 0 and ok.all():  # the common case: rows is the slice b
                eta[b], mu[b], ll[b] = trial, m, ll_new
                break
            eta[rows[ok]], mu[rows[ok]], ll[rows[ok]] = trial[ok], m[ok], ll_new[ok]
            rows, d = rows[~ok], d[~ok]
            if not rows.size:
                break
            scale[rows] *= 0.5
            trial = eta[rows] + scale[rows, None] * d
    return scale, ll


def _keep_rows(a, keep):
    """`a[keep]` in place, a block of rows at a time: no row moves down."""
    if keep.all():
        return a
    rows = np.flatnonzero(keep)
    kept = a[: rows.size]
    for b in _row_blocks(rows.size, a.shape[1]):
        kept[b] = a[rows[b]]
    return kept


def _trial_fits(z, y, p, cols):
    """Newton (IRLS) maximum-likelihood logistic fits of the designs
    [z[:, :p], z[:, c]] for all columns c of `cols` at once.  Each starts
    at zero coefficients and carries its candidate column, linear predictor
    and fitted probabilities (rows of `zc`, `eta` and `mu`) from step to
    step; step-halving, convergence and the separation bound (a coefficient
    past +-30) are masks over the designs.  Returns each design's
    standardized coefficients, log-likelihood, whether it converged,
    whether it was separated and its number of Newton steps."""
    zt, k, n = z.T, cols.size, y.size
    zc, eta, mu = zt[cols], np.zeros((k, n)), np.full((k, n), 0.5)
    beta = np.zeros((k, p + 1))
    ll = np.full(k, _log_likelihood(y, mu[0]))
    converged, separated = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    steps = np.zeros(k, dtype=int)
    live = np.arange(k)  # neither converged nor separated: the rows of zc, eta and mu
    for iteration in range(MAX_ITER + 1):
        grad, cross, diag = _trial_score(zt, y, p, zc, mu)
        done = np.abs(grad).max(axis=1) < GRADIENT_TOL
        converged[live[done]] = True
        if done.all() or iteration == MAX_ITER:  # the limit: a last score check
            break
        keep = ~done
        live, grad, cross, diag = live[keep], grad[keep], cross[keep], diag[keep]
        zc, eta, mu = (_keep_rows(a, keep) for a in (zc, eta, mu))
        info = _trial_information(zt, p, mu, cross, diag)
        try:
            step = np.linalg.solve(info, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array([np.linalg.lstsq(h, g, rcond=None)[0] for h, g in zip(info, grad)])
        scale, ll[live] = _trial_steps(zt, y, p, zc, step, eta, mu, ll[live])
        beta[live] += scale[:, None] * step
        steps[live] += 1
        keep = ~(np.abs(beta[live]).max(axis=1) > SEPARATION_BOUND)
        separated[live[~keep]] = True
        live = live[keep]
        zc, eta, mu = (_keep_rows(a, keep) for a in (zc, eta, mu))
        if not live.size:
            break
    return beta, ll, converged, separated, steps


def _forward_pass(group, y, spec, candidates, p_enter):
    """One forward-selection phase; returns the augmented spec.

    Every term's column is standardized once per pass, in one matrix whose
    first columns are the model's; `_standardize` works column by column,
    so each is the column `fit_logistic_design` would use, bit for bit.
    Each step fits all remaining candidates from zero (`_trial_fits`, in
    blocks of CANDIDATE_BLOCK).  A candidate that makes the design rank
    deficient leaves the pool; an unconverged or separated fit sits out
    the step.
    """
    current = spec
    current_ll = fit_logistic(group, current, y).log_likelihood
    remaining = _candidate_order(candidates)
    terms = list(spec) + remaining
    raw = ModelSpec(terms).design_matrix(group)
    _check_finite(raw, [label(t) for t in terms])
    z, mu, sigma = _standardize(raw)
    del raw
    norms = np.sqrt(y.size) * np.hypot(mu, sigma)  # raw column norms
    column = {t: c for c, t in enumerate(terms)}
    deficient, skipped = [], {}
    while remaining:
        p = len(current)
        cols = np.array([column[t] for t in remaining])
        bad = _rank_deficient(z, norms, sigma, p, cols)
        for term in (t for t, b in zip(remaining, bad) if b):
            log.debug("stepwise: %s makes the design rank deficient; skipped", label(term))
            deficient.append(label(term))
        remaining, cols = [t for t, b in zip(remaining, bad) if not b], cols[~bad]
        if not remaining:
            break
        blocks = range(0, cols.size, CANDIDATE_BLOCK)
        fits = [_trial_fits(z, y, p, cols[s : s + CANDIDATE_BLOCK])[1:3] for s in blocks]
        ll, ok = (np.concatenate(part) for part in zip(*fits))
        for term in (t for t, good in zip(remaining, ok) if not good):
            log.debug("stepwise: fit with %s did not converge; skipped", label(term))
            skipped[label(term)] = None
        if not ok.any():
            break
        gains = np.where(ok, ll - current_ll, -np.inf)
        k = int(np.argmax(gains >= gains.max() - TIE_TOL * max(1.0, abs(current_ll))))
        if chi2_tail(2.0 * max(gains[k], 0.0), 1) >= p_enter or gains[k] <= 0.0:
            break
        term = remaining.pop(k)
        c = column[term]  # the new base column moves to position p
        terms[p], terms[c] = term, terms[p]
        column[term], column[terms[c]] = p, c
        for a in (z.T, norms, sigma):
            a[[p, c]] = a[[c, p]]
        current, current_ll = current.with_term(term), ll[k]
    reasons = (("unconverged or separated", list(skipped)), ("rank deficient", deficient))
    parts = [f"{len(labels)} as {why} ({', '.join(labels)})" for why, labels in reasons if labels]
    if parts:
        log.warning("stepwise: skipped candidates: %s", "; ".join(parts))
    return current


def stepwise_select(
    group: StudyGroup,
    candidates: Sequence[int],
    outcome: np.ndarray,
    p_enter: float = 0.05,
) -> ModelSpec:
    """Two-phase forward selection for a logistic model.

    Phase 1 screens main effects of `candidates` by likelihood-ratio
    improvement at `p_enter`.  Phase 2 offers squares and pairwise
    interactions restricted to the phase-1 survivors.  Gains within
    TIE_TOL of the best are ties, won by the earliest candidate (mains by
    index, then squares, then interactions).  Each pass logs one warning
    that counts and names its skipped candidates.
    """
    if not candidates:
        raise DataError("stepwise_select needs a non-empty candidate list")
    spec = ModelSpec([])
    spec = _forward_pass(group, outcome, spec, [main(i) for i in candidates], p_enter)
    survivors = spec.main_indices()
    if survivors:
        phase2 = [square(i) for i in survivors]
        phase2 += [interaction(a, b) for idx, a in enumerate(survivors) for b in survivors[idx + 1 :]]
        spec = _forward_pass(group, outcome, spec, phase2, p_enter)
    return spec
