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
stratified pass runs per-quintile chi-squared (mortality) or Welch t
(length of stay) tests.
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


def health_condition(group: StudyGroup) -> np.ndarray:
    """The health-condition adjusters x2, x3, x5, x10, x15 as an (n, 5)
    matrix: the k-means points, and the adjusters of every Step 3 model."""
    return group.x[:, [i - 1 for i in HEALTH_CONDITION_INDICES]]


def model_columns(group: StudyGroup, scores: np.ndarray, x1) -> tuple:
    """The Step 3 columns for treatment `x1` (a column, or one value for
    every row) and their names: x1, the health-condition adjusters, the
    propensity score V1 and the raw product x1*x5 with SAPS."""
    x1 = np.broadcast_to(np.asarray(x1, dtype=float), (group.n,))
    columns = np.column_stack([x1, health_condition(group), scores, x1 * group.col(SAPS_INDEX)])
    return columns, ["x1", *(f"x{i}" for i in HEALTH_CONDITION_INDICES), "V1", f"x1*x{SAPS_INDEX}"]


def _design(group: StudyGroup, scores: np.ndarray, cross: bool):
    """Model matrix: the intercept, then the Step 3 columns with x1 coded
    0/1, the cross term x1*x5 only when `cross` is set."""
    columns, names = model_columns(group, scores, (group.col(1) > 0).astype(float))
    width = len(names) if cross else len(names) - 1
    return np.column_stack([np.ones(group.n), columns[:, :width]]), ["1", *names[:width]]


def _fit(model_id: str, group: StudyGroup, scores: np.ndarray, cross: bool, los: bool = False) -> OutcomeModelReport:
    """Design, fit and report of every Step 3 model: logistic on mortality,
    or linear on LOS when `los` is set.  The one flag is the 0.05 rule on
    the cross term when `cross` is set, else on the treatment term."""
    design, names = _design(group, scores, cross)
    if los:
        fit = fit_linear_design(design, group.col(LOS_INDEX), names)
    else:
        fit = fit_logistic_design(design, (group.col(MORTALITY_INDEX) > 0).astype(float), names)
    terms = [
        TermReport(name, float(coef), float(se), r.p_value, evidence_band(r.p_value))
        for name, coef, se, r in zip(names, fit.coefficients, fit.standard_errors, coefficient_p_values(fit))
    ]
    term, flag = (names[-1], "cross_effect_significant") if cross else ("x1", "treatment_significant")
    flags = {flag: terms[names.index(term)].p_value < SIGNIFICANCE}
    return OutcomeModelReport(model_id, terms, flags, fit.log_likelihood, fit.n_obs)


def fit_model_a(group: StudyGroup, scores: np.ndarray):
    """Step A: treatment + health condition + propensity score.

    Returns the (mortality, length-of-stay) report pair; each carries a
    `treatment_significant` flag for the 0.05 rule on the treatment term.
    """
    return _fit("A.Mortality", group, scores, cross=False), _fit("A.LOS", group, scores, cross=False, los=True)


def fit_model_b(group: StudyGroup, scores: np.ndarray) -> OutcomeModelReport:
    """Step B: mortality model with the treatment x SAPS cross term added."""
    return _fit("B", group, scores, cross=True)


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
            results.append(SubsetModelResult(label, _fit(label, subgroup, scores, cross=True), None))
        except (IcuStudyError, np.linalg.LinAlgError) as exc:
            results.append(SubsetModelResult(label, None, f"{type(exc).__name__}: {exc}"))
    return results


def stratified_outcome_tests(group: StudyGroup, strat: Stratification, outcome: str) -> list:
    """Per-quintile treated-versus-untreated tests.

    Mortality uses the 2x2 chi-squared on (arm x dead/alive); length of
    stay uses Welch's two-sample t test.  Quintiles where a test cannot run
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
                result = t_test_two_sample(los[t_mask], los[u_mask])
        except (ZeroMarginal, ZeroVariance, EmptyInput) as exc:
            tests.append(QuintileTest(q, None, str(exc)))
            continue
        tests.append(QuintileTest(q, result, None))
    return tests
