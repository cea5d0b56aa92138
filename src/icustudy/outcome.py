"""Adjusted outcome workflow.

Three modeling steps against the two outcomes (30-day mortality, ICU length
of stay), all adjusted for health condition (age, gender, SAPS, SOFA,
Elixhauser) and the propensity score:

  A. does the treatment have an independent effect?
  B. if not, does the treatment x SAPS cross term?
  C. split the group at the SAPS median and re-ask per subset.

The treatment enters these model matrices as a 0/1 indicator so reported
coefficients read as treated-versus-untreated effects; the cross term is
the raw, uncentered product of the indicator with SAPS.  A final
stratified pass runs per-quintile chi-squared (mortality) or t (length of
stay) tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantVariable, EmptyInput, IcuStudyError, ZeroMarginal, ZeroVariance
from .group import LOS_INDEX, MORTALITY_INDEX, StudyGroup
from .propensity import Stratification
from .regress import coefficient_p_values, fit_linear_design, fit_logistic_design
from .stats import TestResult, chi_squared_2x2, evidence_band, t_test_two_sample

HEALTH_CONDITION_INDICES = (2, 3, 5, 10, 15)
SAPS_INDEX = 5
SIGNIFICANCE = 0.05


@dataclass
class TermReport:
    name: str
    beta: float
    se: float
    p_value: float
    band: str


@dataclass
class OutcomeModelReport:
    model_id: str
    terms: list
    flags: dict
    log_likelihood: float
    n_obs: int

    def term(self, name: str) -> TermReport:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)

    def p_value(self, name: str) -> float:
        return self.term(name).p_value


@dataclass
class SubsetSplit:
    threshold: float
    less_sick: StudyGroup
    sicker: StudyGroup
    scores_less_sick: np.ndarray
    scores_sicker: np.ndarray


@dataclass
class SubsetModelResult:
    subset: str
    report: OutcomeModelReport | None
    error: str | None


@dataclass
class QuintileTest:
    quintile: int
    result: TestResult | None
    untestable_reason: str | None

    @property
    def testable(self) -> bool:
        return self.result is not None


def _design(group: StudyGroup, scores: np.ndarray, cross: bool):
    """Model matrix: intercept, treated indicator, health condition, score.

    Term order matches the reports: 1, x1, x2, x3, x5, x10, x15, V1 and,
    when `cross` is set, x1*x5.
    """
    treated01 = (group.col(1) > 0).astype(float)
    cols = [np.ones(group.n), treated01]
    names = ["1", "x1"]
    for idx in HEALTH_CONDITION_INDICES:
        cols.append(group.col(idx))
        names.append(f"x{idx}")
    cols.append(np.asarray(scores, dtype=float))
    names.append("V1")
    if cross:
        cols.append(treated01 * group.col(SAPS_INDEX))
        names.append("x1*x5")
    return np.column_stack(cols), names


def _report(model_id, fit, names, flag_term, flag_name) -> OutcomeModelReport:
    pvals = coefficient_p_values(fit)
    terms = [
        TermReport(name, float(coef), float(se), r.p_value, evidence_band(r.p_value))
        for name, coef, se, r in zip(names, fit.coefficients, fit.standard_errors, pvals)
    ]
    report = OutcomeModelReport(
        model_id=model_id,
        terms=terms,
        flags={},
        log_likelihood=fit.log_likelihood,
        n_obs=fit.n_obs,
    )
    report.flags[flag_name] = report.p_value(flag_term) < SIGNIFICANCE
    return report


def fit_model_a(group: StudyGroup, scores: np.ndarray):
    """Step A: treatment + health condition + propensity score.

    Returns the (mortality, length-of-stay) report pair; each carries a
    `treatment_significant` flag for the 0.05 rule on the treatment term.
    """
    design, names = _design(group, scores, cross=False)
    mortality01 = (group.col(MORTALITY_INDEX) > 0).astype(float)
    fit_m = fit_logistic_design(design, mortality01, names)
    rep_m = _report("A.Mortality", fit_m, names, "x1", "treatment_significant")
    fit_l = fit_linear_design(design, group.col(LOS_INDEX), names)
    rep_l = _report("A.LOS", fit_l, names, "x1", "treatment_significant")
    return rep_m, rep_l


def fit_model_b(group: StudyGroup, scores: np.ndarray) -> OutcomeModelReport:
    """Step B: mortality model with the treatment x SAPS cross term added."""
    design, names = _design(group, scores, cross=True)
    mortality01 = (group.col(MORTALITY_INDEX) > 0).astype(float)
    fit = fit_logistic_design(design, mortality01, names)
    return _report("B", fit, names, "x1*x5", "cross_effect_significant")


def split_by_median(group: StudyGroup, variable: int, scores: np.ndarray) -> SubsetSplit:
    """Split at the median of x<variable>: below -> less sick, at or above
    (ties included) -> sicker."""
    values = group.col(variable)
    if np.ptp(values) == 0.0:
        raise ConstantVariable(f"x{variable} is constant; cannot split")
    threshold = float(np.median(values))
    less = values < threshold
    scores = np.asarray(scores, dtype=float)
    return SubsetSplit(
        threshold=threshold,
        less_sick=group.subset(less),
        sicker=group.subset(~less),
        scores_less_sick=scores[less],
        scores_sicker=scores[~less],
    )


def fit_model_c(split: SubsetSplit):
    """Step C: the step-B model fit independently on each health-condition
    subset; one subset failing does not abort the other."""
    results = []
    for label, subgroup, scores in (
        ("C.LessSick", split.less_sick, split.scores_less_sick),
        ("C.Sicker", split.sicker, split.scores_sicker),
    ):
        try:
            design, names = _design(subgroup, scores, cross=True)
            mortality01 = (subgroup.col(MORTALITY_INDEX) > 0).astype(float)
            fit = fit_logistic_design(design, mortality01, names)
            report = _report(label, fit, names, "x1*x5", "cross_effect_significant")
            results.append(SubsetModelResult(label, report, None))
        except (IcuStudyError, np.linalg.LinAlgError) as exc:
            results.append(SubsetModelResult(label, None, f"{type(exc).__name__}: {exc}"))
    return results


def stratified_outcome_tests(
    group: StudyGroup,
    strat: Stratification,
    outcome: str,
    t_variant: str = "welch",
) -> list:
    """Per-quintile treated-versus-untreated tests.

    Mortality uses the 2x2 chi-squared on (arm x dead/alive); length of
    stay uses the two-sample t test.  Quintiles where a test cannot run
    (empty arm, zero marginal, too few values) are reported untestable.
    """
    if outcome not in ("mortality", "los"):
        raise EmptyInput(f"unknown outcome kind {outcome!r}")
    treated = group.treated
    dead = group.col(MORTALITY_INDEX) > 0
    los = group.col(LOS_INDEX)
    tests = []
    for q in range(1, strat.n_strata + 1):
        in_q = strat.assignment == q
        t_mask = in_q & treated
        u_mask = in_q & ~treated
        if t_mask.sum() == 0 or u_mask.sum() == 0:
            tests.append(QuintileTest(q, None, "empty treatment arm"))
            continue
        try:
            if outcome == "mortality":
                table = [
                    [int((t_mask & dead).sum()), int((t_mask & ~dead).sum())],
                    [int((u_mask & dead).sum()), int((u_mask & ~dead).sum())],
                ]
                result = chi_squared_2x2(table)
            else:
                result = t_test_two_sample(los[t_mask], los[u_mask], variant=t_variant)
        except (ZeroMarginal, ZeroVariance, EmptyInput) as exc:
            tests.append(QuintileTest(q, None, str(exc)))
            continue
        tests.append(QuintileTest(q, result, None))
    return tests
