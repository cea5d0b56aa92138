import logging
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icustudy.errors import DataError, NotConverged, TooFewPatients
from icustudy.group import PatientKey, StudyGroup
from icustudy.propensity import (
    Stratification,
    assess_balance,
    fit_and_stratify,
    refine_model,
    strata_outcome_table,
    stratify_quintiles,
)
from icustudy.regress import ModelSpec, fit_logistic, main
from icustudy.synth import SynthSpec, synth_study_group

from helpers import make_group
from oracles import stratify_quintiles_oracle


# --- scores ------------------------------------------------------------------


def test_intercept_only_scores_equal_prevalence():
    rng = np.random.default_rng(1)
    treated = np.array([1.0] * 189 + [-1.0] * 1333)
    rng.shuffle(treated)
    group = make_group(rng, 1522, {1: treated})
    scores = fit_and_stratify(group, ModelSpec([]))[1].scores
    assert scores == pytest.approx(np.full(1522, 189 / 1522), abs=1e-10)


def test_scores_monotone_in_linear_predictor():
    rng = np.random.default_rng(2)
    x = np.linspace(-3, 3, 200)
    treated = np.where(rng.random(200) < 1 / (1 + np.exp(-x)), 1.0, -1.0)
    group = make_group(rng, 200, {1: treated, 5: x})
    spec = ModelSpec([main(5)])
    fit, strat = fit_and_stratify(group, spec)
    scores = strat.scores
    order = np.argsort(fit.linear_predictor(spec.design_matrix(group)))
    assert (np.diff(scores[order]) >= 0).all()
    assert (scores > 0).all() and (scores < 1).all()


def test_scores_require_convergence():
    # x5 separates the arms perfectly: no converged fit gives the scores
    rng = np.random.default_rng(3)
    x = np.linspace(-3, 3, 20)
    group = make_group(rng, 20, {1: np.sign(x), 5: x})
    with pytest.raises(NotConverged):
        fit_and_stratify(group, ModelSpec([main(5)]))


# --- stratification -----------------------------------------------------------


def _keys(n):
    return [PatientKey(i + 1, i + 1, i + 1) for i in range(n)]


def test_quintile_sizes_largest_remainder():
    rng = np.random.default_rng(4)
    scores = rng.random(1522)
    strat = stratify_quintiles(scores, _keys(1522))
    sizes = [int((strat.assignment == q).sum()) for q in range(1, 6)]
    assert sizes == [304, 304, 304, 305, 305]


def test_quintile_order_for_distinct_scores():
    scores = np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.05])
    strat = stratify_quintiles(scores, _keys(10))
    sizes = [int((strat.assignment == q).sum()) for q in range(1, 6)]
    assert sizes == [2, 2, 2, 2, 2]
    # the two smallest scores land in quintile 1
    assert set(np.where(strat.assignment == 1)[0]) == {1, 9}
    assert set(np.where(strat.assignment == 5)[0]) == {0, 6}


def test_quintile_ties_resolved_by_key():
    scores = np.full(10, 0.5)
    strat = stratify_quintiles(scores, _keys(10))
    assert list(strat.assignment) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    sizes = [int((strat.assignment == q).sum()) for q in range(1, 6)]
    assert sizes == [2, 2, 2, 2, 2]


def test_quintile_ranges_ordered():
    rng = np.random.default_rng(5)
    scores = rng.random(100)
    strat = stratify_quintiles(scores, _keys(100))
    for (lo1, hi1), (lo2, hi2) in zip(strat.ranges, strat.ranges[1:]):
        assert lo1 <= hi1 <= lo2 <= hi2


@given(st.integers(2, 400), st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quintiles_match_sort_oracle_on_ties(n, n_strata, seed):
    # few distinct scores and few distinct subject and admission ids, so
    # that ties are broken by every key component in turn
    rng = np.random.default_rng(seed)
    n = max(n, n_strata)
    scores = rng.choice([0.1, 0.5, np.nextafter(0.5, 1.0), 0.9], size=n)
    stays = rng.permutation(n) + 1
    keys = [PatientKey(int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(stay)) for stay in stays]
    strat = stratify_quintiles(scores, keys, n_strata)
    assert strat.assignment.tolist() == stratify_quintiles_oracle(scores, keys, n_strata).tolist()


def test_too_few_patients():
    with pytest.raises(TooFewPatients):
        stratify_quintiles(np.array([0.1, 0.2]), _keys(2))


def test_assignment_invariant_to_score_shift():
    rng = np.random.default_rng(6)
    eta = rng.normal(size=60)
    s1 = 1 / (1 + np.exp(-eta))
    s2 = 1 / (1 + np.exp(-(eta + 2.0)))
    keys = _keys(60)
    assert (stratify_quintiles(s1, keys).assignment == stratify_quintiles(s2, keys).assignment).all()


# --- balance assessment -----------------------------------------------------------


def _confounded_group(seed, n=1522):
    spec = SynthSpec(n=n, seed=seed, prevalence_target=0.12)
    return synth_study_group(spec)


def _driver_strat(group):
    return fit_and_stratify(group, ModelSpec([main(11), main(41), main(46)]))[1]


def test_balance_covers_55_covariates():
    group = _confounded_group(7, n=400)
    report = assess_balance(group, _driver_strat(group))
    assert [c.index for c in report.covariates] == list(range(2, 57))


def test_balance_constant_covariate_zero_f():
    rng = np.random.default_rng(8)
    group = make_group(rng, 200, {25: np.full(200, 3.3)})
    strat = stratify_quintiles(rng.random(200), group.ids)
    report = assess_balance(group, strat)
    row = next(c for c in report.covariates if c.index == 25)
    assert row.f_pre == 0.0
    assert row.f_primary == 0.0
    assert row.f_secondary == 0.0


def test_balance_without_a_complete_stratum_is_nan_with_reason():
    rng = np.random.default_rng(3)
    group = make_group(rng, 40)
    strat = Stratification(rng.random(40), np.where(group.treated, 1, 2))  # one arm per stratum
    report = assess_balance(group, strat)
    assert all(np.isnan(c.f_primary) and np.isnan(c.f_secondary) for c in report.covariates)
    assert {c.warnings for c in report.covariates} == {("no stratum has observations in both arms",)}


def test_balance_permutation_invariant():
    group = _confounded_group(9, n=300)
    strat = _driver_strat(group)
    report1 = assess_balance(group, strat)

    rng = np.random.default_rng(0)
    perm = rng.permutation(group.n)
    shuffled = StudyGroup(group.ids[perm], group.x[perm])
    strat2 = stratify_quintiles(strat.scores[perm], shuffled.ids)
    report2 = assess_balance(shuffled, strat2)
    for c1, c2 in zip(report1.covariates, report2.covariates):
        if np.isfinite(c1.f_primary) and np.isfinite(c2.f_primary):
            assert c1.f_primary == pytest.approx(c2.f_primary, rel=1e-9)
        assert c1.f_pre == pytest.approx(c2.f_pre, rel=1e-9)


def test_balance_improves_after_stratification():
    group = _confounded_group(10)
    report = assess_balance(group, _driver_strat(group))
    pre = statistics.median([c.f_pre for c in report.covariates])
    post = statistics.median(
        [c.f_primary for c in report.covariates if np.isfinite(c.f_primary)]
    )
    assert post <= 0.5 * pre


def test_unconfounded_median_f_unexceptional():
    # with random assignment, the observed median pre-stratification F sits
    # inside the central 90% of its own simulated null distribution
    def null_median(seed):
        spec = SynthSpec(n=400, seed=seed, prevalence_target=0.25, treatment_beta={})
        group = synth_study_group(spec)
        report = assess_balance(group, _driver_strat(group))
        return statistics.median([c.f_pre for c in report.covariates])

    null = sorted(null_median(seed) for seed in range(30))
    lo = null[1]  # ~5th percentile of 30 draws
    hi = null[-2]  # ~95th
    observed = null_median(999)
    assert lo <= observed <= hi


def test_treatment_prevalence_rises_across_quintiles():
    group = _confounded_group(11)
    strat = _driver_strat(group)
    treated = group.treated
    fractions = [
        treated[strat.assignment == q].mean() for q in range(1, 6)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


# --- refinement -------------------------------------------------------------------


def test_refinement_accepts_planted_driver():
    spec = SynthSpec(
        n=1522, seed=5, prevalence_target=0.12, treatment_beta={11: 0.18, 41: 0.30, 46: 1.4}
    )
    group = synth_study_group(spec)
    refined, strat, log = refine_model(group, ModelSpec([main(11), main(41)]))
    x46 = [a for a in log if a.variable == 46]
    assert x46 and x46[0].accepted
    assert x46[0].f_after < x46[0].f_before
    assert 46 in refined.main_indices()


def test_refinement_from_strata_of_another_count_is_data_error():
    """f_before on five strata against every f_after on four would
    compare F ratios of different designs."""
    group = _confounded_group(12, n=300)
    spec = ModelSpec([main(11), main(41)])
    _, five = fit_and_stratify(group, spec, 5)
    message = "the starting stratification holds 5 strata, but n_strata is 4"
    with pytest.raises(DataError, match=message):
        refine_model(group, spec, five, n_strata=4)
    _, _, log = refine_model(group, spec, five, n_strata=5)
    assert log


def test_refinement_accepted_attempts_strictly_reduce_f():
    group = _confounded_group(12, n=600)
    _, _, log = refine_model(group, ModelSpec([main(11), main(41)]))
    accepted = [a for a in log if a.accepted]
    assert accepted
    for a in accepted:
        assert a.f_after < a.f_before


def test_refinement_form_order_main_square_interaction():
    group = _confounded_group(13, n=500)
    _, _, log = refine_model(group, ModelSpec([main(11), main(41)]))
    by_var = {}
    for a in log:
        by_var.setdefault(a.variable, []).append(a.form)
    for forms in by_var.values():
        assert forms[0] == "main"
        if len(forms) > 1:
            assert forms[1] == "square"
        for form in forms[2:]:
            assert form.startswith("interaction(")


def test_refinement_all_constant_candidates_rejected(caplog):
    rng = np.random.default_rng(14)
    n = 300
    overrides = {}
    for i in range(2, 57):
        if i in (11, 41):
            continue
        if i in (3, 4) or 16 <= i <= 24 or i in (45, 46, 57):
            overrides[i] = np.full(n, 1.0)
        else:
            overrides[i] = np.full(n, 2.5)
    group = make_group(rng, n, overrides)
    initial = ModelSpec([main(11), main(41)])
    with caplog.at_level(logging.WARNING):
        refined, _, log = refine_model(group, initial)
    assert refined == initial
    assert log and not any(a.accepted for a in log)
    # one summary line for the pass names every skipped form; the per-form
    # lines, with the model text, are DEBUG
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    forms = ", ".join(f"x{a.variable} {a.form}" for a in log)
    assert warnings[0] == f"refinement: skipped forms: {len(log)} as RankDeficient ({forms})"


def test_refinement_candidate_budget_is_quarter_of_excluded():
    # 11 main effects in the model leave 44 excluded covariates, of which
    # exactly a quarter (11) are offered to the refinement pass
    group = _confounded_group(19, n=400)
    in_model = [5, 6, 7, 8, 9, 11, 25, 26, 27, 41, 47]
    spec = ModelSpec([main(i) for i in in_model])
    _, _, log = refine_model(group, spec)
    tried = {a.variable for a in log}
    assert len(tried) == 11
    assert tried.isdisjoint(in_model)


def test_refinement_final_spec_refits_and_converges():
    group = _confounded_group(15, n=600)
    refined, strat, _ = refine_model(group, ModelSpec([main(11), main(41)]))
    fit = fit_logistic(group, refined, (group.col(1) > 0).astype(float))
    assert fit.converged
    assert len(strat.scores) == group.n


# --- outcome table -----------------------------------------------------------------


def test_outcome_table_half_deaths():
    rng = np.random.default_rng(16)
    n = 50
    treated = np.full(n, -1.0)
    treated[:2] = 1.0
    mortality = np.full(n, -1.0)
    mortality[0] = 1.0  # one of the two treated dies
    group = make_group(rng, n, {1: treated, 57: mortality})
    scores = np.linspace(0.9, 0.1, n)  # treated rows get the top quintile
    strat = stratify_quintiles(scores, group.ids)
    q_of_treated = strat.assignment[0]
    rows = strata_outcome_table(group, strat)
    row = rows[q_of_treated - 1]
    assert row.n_treated == 2
    assert row.mortality_pct_treated == pytest.approx(50.0)


def test_outcome_table_empty_arm_blank():
    rng = np.random.default_rng(17)
    n = 60
    group = make_group(rng, n, {1: np.full(n, -1.0)})
    strat = stratify_quintiles(rng.random(n), group.ids)
    for row in strata_outcome_table(group, strat):
        assert row.n_treated == 0
        assert row.mortality_pct_treated is None
        assert row.mean_los_treated is None
        assert row.n_untreated > 0
        assert row.mean_los_untreated is not None


def test_outcome_table_matches_groupby_oracle():
    group = _confounded_group(18, n=500)
    strat = _driver_strat(group)
    rows = strata_outcome_table(group, strat)
    for row in rows:
        in_q = strat.assignment == row.quintile
        for arm_value, n_attr, mort_attr, los_attr in (
            (1.0, row.n_treated, row.mortality_pct_treated, row.mean_los_treated),
            (-1.0, row.n_untreated, row.mortality_pct_untreated, row.mean_los_untreated),
        ):
            mask = in_q & (group.col(1) == arm_value)
            assert n_attr == mask.sum()
            if mask.sum():
                deaths = (group.col(57)[mask] > 0).mean() * 100
                assert mort_attr == pytest.approx(deaths)
                assert los_attr == pytest.approx(group.col(58)[mask].mean())
