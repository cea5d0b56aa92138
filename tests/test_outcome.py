import numpy as np
import pytest

from icustudy.errors import ConstantVariable, RankDeficient
from icustudy.group import PatientKey, StudyGroup
from icustudy.outcome import (
    SubsetSplit,
    fit_model_a,
    fit_model_b,
    fit_model_c,
    split_by_median,
    stratified_outcome_tests,
)
from icustudy.propensity import fit_and_stratify, stratify_quintiles
from icustudy.regress import ModelSpec, main
from icustudy.synth import LosModel, MortalityModel, SynthSpec, synth_study_group

from helpers import make_group


def _scores_for(group):
    return fit_and_stratify(group, ModelSpec([main(11), main(41), main(46)]))[1].scores


def _synth(seed, **kwargs):
    spec = SynthSpec(n=kwargs.pop("n", 800), seed=seed, **kwargs)
    group = synth_study_group(spec)
    return group, _scores_for(group)


# --- model A ------------------------------------------------------------------


def test_model_a_term_sets():
    group, scores = _synth(1)
    rep_m, rep_l = fit_model_a(group, scores)
    want = ["1", "x1", "x2", "x3", "x5", "x10", "x15", "V1"]
    assert [t.name for t in rep_m.terms] == want
    assert [t.name for t in rep_l.terms] == want
    assert rep_m.model_id == "A.Mortality"
    assert rep_l.model_id == "A.LOS"
    assert "treatment_significant" in rep_m.flags
    for term in rep_m.terms + rep_l.terms:
        assert term.band in ("absence", "weak", "moderate", "strong", "very strong")


def test_model_a_planted_los_effect():
    group, scores = _synth(
        2, n=1500, prevalence_target=0.3, treatment_beta={},
        los=LosModel(alpha=8.0, treated_effect=2.6, noise_sd=2.0),
    )
    _, rep_l = fit_model_a(group, scores)
    assert rep_l.flags["treatment_significant"]
    assert rep_l.p_value("x1") < 0.001
    assert rep_l.term("x1").beta == pytest.approx(2.6, abs=0.3)


def test_model_a_null_treatment_usually_nonsignificant():
    hits = 0
    for seed in range(10):
        group, scores = _synth(100 + seed, n=700, prevalence_target=0.3, treatment_beta={})
        rep_m, rep_l = fit_model_a(group, scores)
        hits += (not rep_m.flags["treatment_significant"]) + (
            not rep_l.flags["treatment_significant"]
        )
    assert hits >= 20 * 0.8


def test_model_a_row_duplication_leaves_betas_unchanged():
    group, scores = _synth(3, n=300)
    rep1_m, rep1_l = fit_model_a(group, scores)
    doubled_keys = group.keys + [
        PatientKey(k.subject_id + 900000, k.hadm_id + 900000, k.icustay_id + 900000)
        for k in group.keys
    ]
    doubled = StudyGroup(doubled_keys, np.vstack([group.x, group.x]))
    rep2_m, rep2_l = fit_model_a(doubled, np.concatenate([scores, scores]))
    for t1, t2 in zip(rep1_m.terms, rep2_m.terms):
        assert t1.beta == pytest.approx(t2.beta, rel=1e-6, abs=1e-9)
    for t1, t2 in zip(rep1_l.terms, rep2_l.terms):
        assert t1.beta == pytest.approx(t2.beta, rel=1e-6, abs=1e-9)


def test_significance_flag_matches_rule():
    group, scores = _synth(4, n=500)
    rep_m, rep_l = fit_model_a(group, scores)
    for rep in (rep_m, rep_l):
        assert rep.flags["treatment_significant"] == (rep.p_value("x1") < 0.05)


# --- model B -------------------------------------------------------------------


def test_model_b_adds_cross_term_and_nests_model_a():
    group, scores = _synth(5)
    rep_a, _ = fit_model_a(group, scores)
    rep_b = fit_model_b(group, scores)
    assert [t.name for t in rep_b.terms][-1] == "x1*x5"
    assert rep_b.log_likelihood >= rep_a.log_likelihood - 1e-9


def test_model_b_recovers_planted_interaction():
    group, scores = _synth(
        6, n=1500, prevalence_target=0.35, treatment_beta={}, saps_sd=10.0,
        mortality=MortalityModel(alpha=-0.7, beta={}, interaction_treated_saps=-0.043),
    )
    rep_a, _ = fit_model_a(group, scores)
    rep_b = fit_model_b(group, scores)
    assert not rep_a.flags["treatment_significant"]
    assert rep_b.flags["cross_effect_significant"]
    assert rep_b.term("x1*x5").beta == pytest.approx(-0.043, abs=0.03)


def test_model_b_null_interaction_rarely_significant():
    rejections = 0
    for seed in range(20):
        group, scores = _synth(200 + seed, n=600, prevalence_target=0.3, treatment_beta={})
        rep_b = fit_model_b(group, scores)
        rejections += rep_b.flags["cross_effect_significant"]
    assert rejections / 20 <= 0.15


def test_model_b_constant_treatment_rank_deficient():
    rng = np.random.default_rng(7)
    group = make_group(rng, 200, {1: np.full(200, -1.0)})
    with pytest.raises(RankDeficient) as excinfo:
        fit_model_b(group, rng.random(200))
    assert excinfo.value.column == "x1"


# --- median split ----------------------------------------------------------------


def test_split_even_values():
    rng = np.random.default_rng(8)
    group = make_group(rng, 10, {5: np.arange(1.0, 11.0)})
    split = split_by_median(group, 5, rng.random(10))
    assert split.threshold == pytest.approx(5.5)
    assert split.less_sick.n == 5
    assert split.sicker.n == 5


def test_split_ties_go_to_sicker():
    rng = np.random.default_rng(9)
    values = np.array([1.0, 2.0, 3.0, 3.0, 3.0, 9.0])
    group = make_group(rng, 6, {5: values})
    split = split_by_median(group, 5, rng.random(6))
    assert split.threshold == pytest.approx(3.0)
    assert split.less_sick.n == 2  # the three tied rows land in "sicker"
    assert split.sicker.n == 4


def test_split_completeness_and_disjointness():
    group, scores = _synth(10, n=500)
    split = split_by_median(group, 5, scores)
    assert split.less_sick.n + split.sicker.n == group.n
    less_keys = set(split.less_sick.keys)
    sicker_keys = set(split.sicker.keys)
    assert not (less_keys & sicker_keys)
    assert (split.less_sick.col(5) < split.threshold).all()
    assert (split.sicker.col(5) >= split.threshold).all()


def test_split_constant_variable_raises():
    rng = np.random.default_rng(11)
    group = make_group(rng, 50, {5: np.full(50, 17.0)})
    with pytest.raises(ConstantVariable):
        split_by_median(group, 5, rng.random(50))


# --- model C ---------------------------------------------------------------------


def test_model_c_identical_subsets_identical_reports():
    group, scores = _synth(12, n=400)
    split = SubsetSplit(
        threshold=0.0,
        less_sick=group,
        sicker=group,
        scores_less_sick=scores,
        scores_sicker=scores,
    )
    results = fit_model_c(split)
    assert results[0].report is not None and results[1].report is not None
    for t1, t2 in zip(results[0].report.terms, results[1].report.terms):
        assert t1.beta == pytest.approx(t2.beta, rel=1e-9, abs=1e-12)
        assert t1.p_value == pytest.approx(t2.p_value, rel=1e-9, abs=1e-12)


def test_model_c_planted_interaction_in_less_sick_half():
    hits = 0
    for seed in range(10):
        group, scores = _synth(
            300 + seed, n=1600, prevalence_target=0.35, treatment_beta={}, saps_sd=10.0,
            mortality=MortalityModel(alpha=-0.7, beta={}, interaction_treated_saps=-0.12),
        )
        # only keep the interaction's effect below the SAPS median: re-draw
        # mortality for the sicker half as pure noise
        rng = np.random.default_rng(999 + seed)
        threshold = np.median(group.col(5))
        sicker = group.col(5) >= threshold
        noise = np.where(rng.random(group.n) < 0.33, 1.0, -1.0)
        group.x[sicker, 56] = noise[sicker]
        split = split_by_median(group, 5, scores)
        results = {r.subset: r for r in fit_model_c(split)}
        less = results["C.LessSick"].report
        sick = results["C.Sicker"].report
        if less is None or sick is None:
            continue
        hits += less.flags["cross_effect_significant"] and not sick.flags[
            "cross_effect_significant"
        ]
    assert hits >= 8


def test_model_c_small_subset_does_not_crash():
    group, scores = _synth(13, n=400)
    tiny_mask = np.zeros(group.n, dtype=bool)
    tiny_mask[:12] = True
    split = SubsetSplit(
        threshold=0.0,
        less_sick=group.subset(tiny_mask),
        sicker=group.subset(~tiny_mask),
        scores_less_sick=scores[tiny_mask],
        scores_sicker=scores[~tiny_mask],
    )
    results = fit_model_c(split)
    assert len(results) == 2
    tiny = results[0]
    assert tiny.report is not None or tiny.error
    assert results[1].report is not None


# --- stratified tests ----------------------------------------------------------------


def _grid_strat(rng, group):
    scores = np.linspace(0.01, 0.99, group.n)
    return stratify_quintiles(scores, group.ids)


def test_stratified_identical_arms_p_one():
    rng = np.random.default_rng(14)
    n = 500
    # alternate arms over pairs with equal values: each quintile's treated
    # and untreated length-of-stay multisets coincide exactly
    treated = np.tile([1.0, -1.0], n // 2)
    los = np.repeat(np.tile([3.0, 5.0, 7.0, 9.0, 11.0], n // 10), 2)
    group = make_group(rng, n, {1: treated, 58: los})
    strat = _grid_strat(rng, group)
    for qt in stratified_outcome_tests(group, strat, "los"):
        assert qt.testable
        assert qt.result.statistic == pytest.approx(0.0, abs=1e-12)
        assert qt.result.p_value == pytest.approx(1.0, abs=1e-12)


def test_stratified_mortality_untestable_when_no_treated():
    rng = np.random.default_rng(15)
    n = 250
    treated = rng.choice([-1.0, 1.0], size=n)
    scores = np.linspace(0.01, 0.99, n)
    order = np.argsort(scores)
    # quintile 1: force all untreated
    treated[order[:50]] = -1.0
    group = make_group(rng, n, {1: treated})
    strat = stratify_quintiles(scores, group.ids)
    tests = stratified_outcome_tests(group, strat, "mortality")
    assert not tests[0].testable
    assert tests[0].untestable_reason
    assert any(t.testable for t in tests[1:])


def test_stratified_planted_shift_in_selected_quintiles():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        n = 1000
        treated = rng.choice([-1.0, 1.0], size=n)
        scores = np.linspace(0.01, 0.99, n)
        keys = [PatientKey(i + 1, i + 1, i + 1) for i in range(n)]
        strat = stratify_quintiles(scores, keys)
        shift_q = {1, 3, 5}
        los = 6.0 + rng.normal(0, 2.0, size=n)
        in_shift = np.isin(strat.assignment, list(shift_q)) & (treated > 0)
        los[in_shift] += 6.0
        group = make_group(rng, n, {1: treated, 58: np.maximum(los, 0.0)})
        tests = stratified_outcome_tests(group, strat, "los")
        significant = {t.quintile for t in tests if t.testable and t.result.p_value < 0.05}
        hits += significant == shift_q
    assert hits >= 7


def test_stratified_mortality_matches_direct_chi_squared():
    from icustudy.stats import chi_squared_2x2

    rng = np.random.default_rng(16)
    n = 600
    treated = rng.choice([-1.0, 1.0], size=n)
    dead = rng.choice([-1.0, 1.0], size=n, p=[0.65, 0.35])
    group = make_group(rng, n, {1: treated, 57: dead})
    scores = np.linspace(0.01, 0.99, n)
    strat = stratify_quintiles(scores, group.ids)
    tests = stratified_outcome_tests(group, strat, "mortality")
    for qt in tests:
        in_q = strat.assignment == qt.quintile
        t_mask = in_q & (group.col(1) > 0)
        u_mask = in_q & (group.col(1) < 0)
        table = [
            [int((t_mask & (group.col(57) > 0)).sum()), int((t_mask & (group.col(57) < 0)).sum())],
            [int((u_mask & (group.col(57) > 0)).sum()), int((u_mask & (group.col(57) < 0)).sum())],
        ]
        want = chi_squared_2x2(table)
        assert qt.testable
        assert qt.result.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert qt.result.p_value == pytest.approx(want.p_value, rel=1e-12)
