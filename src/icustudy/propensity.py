"""Propensity scoring, quintile stratification, covariate balance and the
iterative model-refinement loop.

Scores are fitted treatment probabilities from a logistic model.  Patients
are ranked by score and split into K contiguous blocks (`n_strata`, five by
default); balance of each of the 55 covariates is then measured with a
2 x K analysis of variance whose two F-ratios are reported as the primary
(treatment main) and secondary (treatment x subclass interaction) effects,
next to the one-way F computed prior to subclassification.  One ANOVA call
covers all the covariates of a balance report or a refinement ranking.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import AllCellsEmptyForTreatment, DataError, NotConverged, RankDeficient, TooFewPatients
from .group import COVARIATE_INDICES, LOS_INDEX, MORTALITY_INDEX, StudyGroup
from .regress import ModelSpec, fit_logistic_design, interaction, main, square
from .stats import AnovaResult, FiveNumber, five_number_summary, one_way_anova, two_way_anova_2xk

log = logging.getLogger(__name__)

N_STRATA = 5
SCORE_CLAMP = 1e-12


@dataclass
class Stratification:
    scores: np.ndarray          # fitted probability per patient, group order
    assignment: np.ndarray      # quintile 1..K per patient, group order

    @property
    def ranges(self) -> list:
        """Per-quintile (low, high) observed score bounds."""
        blocks = (self.scores[self.assignment == q] for q in np.unique(self.assignment))
        return [(float(b.min()), float(b.max())) for b in blocks]

    @property
    def n_strata(self) -> int:
        return len(np.unique(self.assignment))


@dataclass
class CovariateBalance:
    index: int                  # variable index (x2..x56)
    f_pre: float                # one-way F prior to subclassification
    f_primary: float
    f_secondary: float
    warnings: tuple = ()


@dataclass
class BalanceReport:
    covariates: list
    summary_pre: FiveNumber
    summary_primary: FiveNumber
    summary_secondary: FiveNumber


@dataclass
class RefinementAttempt:
    variable: int
    form: str                   # "main" | "square" | "interaction(xJ)"
    f_before: float
    f_after: float
    accepted: bool


@dataclass
class QuintileOutcome:
    quintile: int
    score_low: float
    score_high: float
    n_treated: int
    n_untreated: int
    mortality_pct_treated: float | None
    mortality_pct_untreated: float | None
    mean_los_treated: float | None
    mean_los_untreated: float | None


def stratify_quintiles(scores: np.ndarray, ids: np.ndarray, n_strata: int = N_STRATA) -> Stratification:
    """Rank patients by score and cut into contiguous equal blocks.

    Block sizes follow the largest-remainder rule with remainders going to
    the highest quintiles; ties in score are broken by the patients' (n, 3)
    ids, compared as key triples, so the split is deterministic.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n < n_strata:
        raise TooFewPatients(f"need at least {n_strata} patients, got {n}")
    ids = np.asarray(ids, dtype=np.int64).reshape(n, 3)
    base, rem = divmod(n, n_strata)
    sizes = np.full(n_strata, base)
    sizes[n_strata - rem :] += 1
    assignment = np.zeros(n, dtype=int)
    assignment[np.lexsort((*ids.T[::-1], scores))] = np.repeat(np.arange(1, n_strata + 1), sizes)
    return Stratification(scores, assignment)


def _covariate_anova(group: StudyGroup, strat: Stratification, indices) -> AnovaResult:
    """The 2 x K ANOVA of the covariates x<indices> in one call; where no
    stratum holds both arms, every F is NaN with the reason as its warning."""
    try:
        return two_way_anova_2xk(group.x[:, np.subtract(indices, 1)], group.treated.astype(int), strat.assignment)
    except AllCellsEmptyForTreatment as exc:
        nan = np.full(len(indices), np.nan)
        return AnovaResult(nan, nan, (), (), {}, ((str(exc),),) * len(indices))


def assess_balance(group: StudyGroup, strat: Stratification) -> BalanceReport:
    """Per-covariate balance: one-way F before stratification and the
    two-way primary/secondary F's within it.  Degenerate covariates are
    carried with warnings instead of failing the report."""
    treated = group.treated
    values = group.x[:, np.subtract(COVARIATE_INDICES, 1)]
    pre = one_way_anova([values[treated], values[~treated]])
    two_way = _covariate_anova(group, strat, COVARIATE_INDICES)
    out = []
    for idx, f_pre, flag, f_primary, f_secondary, warnings in zip(
        COVARIATE_INDICES, pre.statistic.tolist(), pre.flag,
        two_way.f_primary.tolist(), two_way.f_secondary.tolist(), two_way.warnings,
    ):
        if flag == "degenerate" and math.isnan(f_pre):
            f_pre = 0.0
        out.append(CovariateBalance(idx, f_pre, f_primary, f_secondary, warnings))

    def _summary(values):
        finite = [v for v in values if math.isfinite(v)]
        return five_number_summary(finite if finite else [float("nan")])

    return BalanceReport(
        covariates=out,
        summary_pre=_summary([c.f_pre for c in out]),
        summary_primary=_summary([c.f_primary for c in out]),
        summary_secondary=_summary([c.f_secondary for c in out]),
    )


def fit_and_stratify(group: StudyGroup, spec: ModelSpec, n_strata: int = N_STRATA):
    """Fit the propensity model `spec` and stratify its scores, the fitted
    treatment probabilities clamped away from 0 and 1."""
    design = spec.design_matrix(group)  # the fit's design gives the scores too
    fit = fit_logistic_design(design, (group.col(1) > 0).astype(float), spec.term_names())
    if not fit.converged:
        raise NotConverged(f"propensity fit for {spec.to_text()!r} did not converge")
    scores = np.clip(expit(fit.linear_predictor(design)), SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return fit, stratify_quintiles(scores, group.ids, n_strata)


def refine_model(
    group: StudyGroup,
    spec: ModelSpec,
    strat: Stratification | None = None,
    fraction: float = 0.25,
    max_passes: int = 1,
    n_strata: int = N_STRATA,
):
    """One-pass (optionally iterated) balance-driven model refinement.

    The top `fraction` of excluded covariates ranked by current primary
    F-ratio are tried in order; for each, the main effect, then its square,
    then interactions with in-model main effects are added, keeping the
    first form that strictly lowers that covariate's own primary F under
    the re-fitted, re-stratified model (into `n_strata` strata).  Every
    attempt is logged, and each pass logs one warning that counts and
    names its skipped forms.  A given starting `strat` must hold
    `n_strata` strata, so that each f_before and f_after compare alike.
    """
    if strat is None:
        _, strat = fit_and_stratify(group, spec, n_strata)
    if strat.n_strata != n_strata:
        raise DataError(f"the starting stratification holds {strat.n_strata} strata, but n_strata is {n_strata}")
    attempts: list[RefinementAttempt] = []
    current_spec = spec
    current_strat = strat

    for _ in range(max_passes):
        in_model = set(current_spec.main_indices())
        excluded = [i for i in COVARIATE_INDICES if i not in in_model]
        if not excluded:
            break
        f_excluded = _covariate_anova(group, current_strat, excluded).f_primary.tolist()
        ranked = sorted(zip(excluded, f_excluded), key=lambda pair: (-_nan_low(pair[1]), pair[0]))
        # the candidate budget is the top fraction of the excluded pool,
        # rounded down (44 excluded -> 11 candidates)
        n_candidates = max(1, math.floor(fraction * len(excluded)))
        accepted_any = False
        skipped = {}  # reason class -> the forms it skipped

        for var, _ in ranked[:n_candidates]:
            forms = [("main", main(var)), ("square", square(var))]
            for partner in sorted(current_spec.main_indices()):
                if partner != var:
                    forms.append((f"interaction(x{partner})", interaction(var, partner)))
            f_before = float(_covariate_anova(group, current_strat, [var]).f_primary[0])
            for form_name, term in forms:
                if current_spec.has(term):
                    continue
                try:
                    trial_spec = current_spec.with_term(term)
                    _, trial_strat = fit_and_stratify(group, trial_spec, n_strata)
                except (RankDeficient, NotConverged, np.linalg.LinAlgError) as exc:
                    log.debug("refinement: x%d %s skipped (%s)", var, form_name, exc)
                    skipped.setdefault(type(exc).__name__, []).append(f"x{var} {form_name}")
                    attempts.append(
                        RefinementAttempt(var, form_name, f_before, float("nan"), False)
                    )
                    continue
                f_after = float(_covariate_anova(group, trial_strat, [var]).f_primary[0])
                improved = (
                    math.isfinite(f_after)
                    and math.isfinite(f_before)
                    and f_after < f_before
                )
                attempts.append(
                    RefinementAttempt(var, form_name, f_before, f_after, improved)
                )
                if improved:
                    current_spec = trial_spec
                    current_strat = trial_strat
                    accepted_any = True
                    break
        if skipped:
            parts = [f"{len(labels)} as {why} ({', '.join(labels)})" for why, labels in skipped.items()]
            log.warning("refinement: skipped forms: %s", "; ".join(parts))
        if not accepted_any:
            break

    return current_spec, current_strat, attempts


def _nan_low(value: float) -> float:
    return value if math.isfinite(value) else float("-inf")


def strata_outcome_table(group: StudyGroup, strat: Stratification) -> list:
    """Per-quintile outcome rows: counts, death percentage and mean length
    of stay for each arm; an empty arm reports n=0 with blank statistics."""
    mortality = group.col(MORTALITY_INDEX) > 0
    los = group.col(LOS_INDEX)
    treated = group.treated
    rows = []
    for q, (low, high) in enumerate(strat.ranges, start=1):
        in_q = strat.assignment == q
        stats_by_arm = []
        for arm_mask in (in_q & treated, in_q & ~treated):
            count = int(arm_mask.sum())
            if count == 0:
                stats_by_arm.append((0, None, None))
            else:
                stats_by_arm.append(
                    (
                        count,
                        float(100.0 * mortality[arm_mask].mean()),
                        float(los[arm_mask].mean()),
                    )
                )
        (n_t, mort_t, los_t), (n_u, mort_u, los_u) = stats_by_arm
        rows.append(
            QuintileOutcome(q, low, high, n_t, n_u, mort_t, mort_u, los_t, los_u)
        )
    return rows
